//! # poly-backend — measured CPU execution of a node's kernels
//!
//! A node runs its kernels on one of two backends, which its
//! `poly_core::NodeSetup` names with an [`ExecBackend`]:
//!
//! - **analytical** (the default): the GPU/FPGA models of
//!   `poly_device`, the same ones the design-space explorer evaluates,
//!   time every implementation, and nothing in this crate runs;
//! - **CPU**: [`CpuClient::measure`] really executes a representative
//!   micro-kernel (GEMM / stencil / streaming reduce, sized from the IR's
//!   op counts) on a [`poly_par`] thread pool and reports measured
//!   wall-clock latency and derived energy. Numeric results (checksums)
//!   are deterministic for any thread count; latency samples are
//!   measured, and a per-client cache makes repeated runs of the same
//!   kernel return identical reports within one process.
//!
//! The [`calibrate`](crate::calibrate::calibrate) harness compares a
//! per-class reference-rate prediction against measured execution per
//! kernel — the model-error distribution reported by the `experiments
//! backend` figure.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod calibrate;
mod cpu;
mod kernels;

pub use cpu::{CpuClient, ExecReport, CPU_IDLE_POWER_W, CPU_PEAK_POWER_W};
pub use kernels::{MicroKernel, MicroKernelClass, MicroRun, MICRO_CHUNKS, MICRO_OPS_CAP};

use std::sync::Arc;

/// Which execution backend a node runs its kernels on. Stored in the
/// node provisioning ([`Default`] = analytical, the bit-identical legacy
/// path) and overridable per run; cluster nodes each carry their own,
/// so a mixed fleet provisions different backends on different nodes.
#[derive(Debug, Clone, Default)]
pub enum ExecBackend {
    /// Analytical device models drive the DES (the legacy path,
    /// bit-identical to pre-backend behavior).
    #[default]
    Analytical,
    /// Kernels really execute on the host CPU via the shared client;
    /// measured wall-clock latency replaces the analytical timing in
    /// the DES clock.
    Cpu(Arc<CpuClient>),
}

impl ExecBackend {
    /// Stable label (`"analytical"` / `"cpu"`), used to tag telemetry
    /// exec spans.
    #[must_use]
    pub fn label(&self) -> &'static str {
        match self {
            ExecBackend::Analytical => "analytical",
            ExecBackend::Cpu(_) => "cpu",
        }
    }

    /// Whether this is the analytical (identity) backend.
    #[must_use]
    pub fn is_analytical(&self) -> bool {
        matches!(self, ExecBackend::Analytical)
    }

    /// The CPU client when the backend is measured.
    #[must_use]
    pub fn cpu(&self) -> Option<&Arc<CpuClient>> {
        match self {
            ExecBackend::Analytical => None,
            ExecBackend::Cpu(c) => Some(c),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn backend_default_is_analytical() {
        let b = ExecBackend::default();
        assert!(b.is_analytical());
        assert_eq!(b.label(), "analytical");
        assert!(b.cpu().is_none());
    }
}
