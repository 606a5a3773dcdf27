//! One error type for the whole workspace: every fallible layer — IR
//! construction, scheduling, simulator construction, fault-plan
//! validation, post-run audits —
//! defines its own precise error enum, and this module folds them into a
//! single [`enum@Error`] so callers composing several layers can use one
//! `Result` type and `?` throughout.

use std::fmt;

use poly_cluster::ClusterError;
use poly_core::RunSpecError;
use poly_ir::IrError;
use poly_sched::ScheduleError;
use poly_sim::{AuditError, FaultPlanError, SimError};

/// Any error the Poly workspace can produce, by originating layer.
#[derive(Debug, Clone, PartialEq)]
pub enum Error {
    /// IR construction / validation failed (cycles, bad edges, …).
    Ir(IrError),
    /// The two-step scheduler found no feasible plan.
    Schedule(ScheduleError),
    /// A simulator could not be built: its policy does not fit the
    /// graph or the pool.
    Sim(SimError),
    /// A post-run lifecycle/energy audit invariant was violated.
    Audit(AuditError),
    /// A fault plan failed validation (unknown device, bad ordering, …).
    FaultPlan(FaultPlanError),
    /// A cluster was misconfigured (no nodes, mismatched tenancy, …).
    Cluster(ClusterError),
    /// A single-node run spec cannot generate its load (non-finite
    /// rate).
    Run(RunSpecError),
}

impl fmt::Display for Error {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Error::Ir(e) => write!(f, "ir: {e}"),
            Error::Schedule(e) => write!(f, "schedule: {e}"),
            Error::Sim(e) => write!(f, "sim: {e}"),
            Error::Audit(e) => write!(f, "audit: {e}"),
            Error::FaultPlan(e) => write!(f, "fault plan: {e}"),
            Error::Cluster(e) => write!(f, "cluster: {e}"),
            Error::Run(e) => write!(f, "run: {e}"),
        }
    }
}

impl std::error::Error for Error {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            Error::Ir(e) => Some(e),
            Error::Schedule(e) => Some(e),
            Error::Sim(e) => Some(e),
            Error::Audit(e) => Some(e),
            Error::FaultPlan(e) => Some(e),
            Error::Cluster(e) => Some(e),
            Error::Run(e) => Some(e),
        }
    }
}

impl From<IrError> for Error {
    fn from(e: IrError) -> Self {
        Error::Ir(e)
    }
}

impl From<ScheduleError> for Error {
    fn from(e: ScheduleError) -> Self {
        Error::Schedule(e)
    }
}

impl From<SimError> for Error {
    fn from(e: SimError) -> Self {
        Error::Sim(e)
    }
}

impl From<AuditError> for Error {
    fn from(e: AuditError) -> Self {
        Error::Audit(e)
    }
}

impl From<FaultPlanError> for Error {
    fn from(e: FaultPlanError) -> Self {
        Error::FaultPlan(e)
    }
}

impl From<ClusterError> for Error {
    fn from(e: ClusterError) -> Self {
        Error::Cluster(e)
    }
}

impl From<RunSpecError> for Error {
    fn from(e: RunSpecError) -> Self {
        Error::Run(e)
    }
}

/// Workspace-wide result alias over [`enum@Error`].
pub type Result<T> = std::result::Result<T, Error>;

#[cfg(test)]
mod tests {
    use super::*;

    fn schedule_err() -> ScheduleError {
        ScheduleError::NoImplementation {
            kernel: "k3".into(),
        }
    }

    #[test]
    fn layers_convert_and_display_with_their_origin() {
        let e: Error = schedule_err().into();
        assert!(matches!(e, Error::Schedule(_)));
        assert!(e.to_string().starts_with("schedule: "));
        assert!(std::error::Error::source(&e).is_some());
    }

    #[test]
    fn simulator_construction_errors_fold_in() {
        let e: Error = poly_sim::SimError::PolicyLength {
            policy: 1,
            kernels: 2,
        }
        .into();
        assert!(matches!(e, Error::Sim(_)));
        assert!(e.to_string().starts_with("sim: policy must cover"), "{e}");
        assert!(std::error::Error::source(&e).is_some());
    }

    #[test]
    fn question_mark_folds_layer_errors() {
        fn plan() -> Result<()> {
            Err(schedule_err())?;
            Ok(())
        }
        assert!(matches!(plan(), Err(Error::Schedule(_))));
    }
}
