//! The interval-driven runtime loop: monitor → model → optimizer →
//! simulator, re-planning every interval over a utilization trace — the
//! machinery behind the 24-hour trace evaluation (Figs. 11–12) and the
//! QoS-violation / prediction-error analysis of Section VI-C.
//!
//! A run is described by a [`RunSpec`] (workload, mode, seed, faults,
//! lifecycle override, telemetry recorder) and executed by
//! [`PolyRuntime::run`].

use crate::{AppContext, Optimizer, Tenant};
use poly_backend::ExecBackend;
use poly_ir::{KernelGraph, KernelId};
use poly_obs::Recorder;
use poly_sim::workload::{poisson, SizeDist, TracePoint};
use poly_sim::{DynamicDispatch, FaultPlan, KernelImpl, LifecycleConfig, Policy, RetryStats};

/// How the runtime selects policies.
#[derive(Debug, Clone)]
pub enum RuntimeMode {
    /// Poly: re-plan every interval from monitor feedback.
    Poly,
    /// Static baseline: one fixed policy for the whole trace.
    Static(Policy),
}

/// One interval of a trace run.
#[derive(Debug, Clone, PartialEq)]
pub struct IntervalRecord {
    /// Interval start in milliseconds since trace begin.
    pub start_ms: f64,
    /// Trace utilization level for the interval.
    pub utilization: f64,
    /// Offered load in RPS.
    pub offered_rps: f64,
    /// Measured p99 latency over the interval (0 if nothing completed —
    /// `completed == 0` distinguishes that from a true zero).
    pub p99_ms: f64,
    /// Model-predicted p99 for the adopted policy (Poly mode only).
    pub predicted_p99_ms: f64,
    /// Mean node power over the interval, in watts.
    pub avg_power_w: f64,
    /// Whether the adopted policy differs from the previous interval's.
    pub policy_changed: bool,
    /// Requests completing over the bound during the interval.
    pub violations: usize,
    /// Requests completed during the interval.
    pub completed: usize,
    /// Healthy devices at the end of the interval.
    pub healthy_devices: usize,
    /// Fault events (fail-stop / slowdown / recovery) applied during the
    /// interval.
    pub fault_events: usize,
    /// Work items retried onto surviving devices during the interval.
    pub retried: usize,
}

/// Aggregate results of a trace run.
#[derive(Debug, Clone, PartialEq)]
pub struct TraceReport {
    /// Per-interval records.
    pub intervals: Vec<IntervalRecord>,
    /// Total energy over the trace, in joules.
    pub energy_j: f64,
    /// Mean node power over the trace, in watts.
    pub mean_power_w: f64,
    /// Overall QoS violation ratio (violations / completed).
    pub violation_ratio: f64,
    /// Mean absolute relative error of the model's p99 predictions against
    /// measurements (Poly mode; the paper reports < 6%).
    pub prediction_error: f64,
    /// Total fault events applied over the trace.
    pub fault_events: usize,
    /// Unified re-issue ledger over the trace: fail-stop retries, bounded
    /// retry exhaustion, and hedging (`redistributed` stays 0 at node
    /// level).
    pub retry: RetryStats,
    /// Requests abandoned past their deadline over the trace (0 unless
    /// the node's lifecycle config sets deadlines).
    pub timed_out: usize,
    /// Mean time from a fail-stop to the first subsequent interval whose
    /// measured p99 is back under the bound, in milliseconds (0 when no
    /// fail-stop was injected or service never recovered).
    pub mean_recovery_ms: f64,
}

/// A [`RunSpec`] whose load cannot be generated: a non-finite rate
/// would stall the Poisson arrival process.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum RunSpecError {
    /// The load scaling is not finite.
    InvalidMaxRps {
        /// The offending scaling, RPS.
        max_rps: f64,
    },
    /// A trace point's utilization, or its offered rate (utilization ×
    /// load scaling), is not finite.
    InvalidUtilization {
        /// Index of the offending trace point.
        index: usize,
        /// Its utilization.
        utilization: f64,
    },
}

impl std::fmt::Display for RunSpecError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match *self {
            RunSpecError::InvalidMaxRps { max_rps } => {
                write!(f, "load scaling must be finite, got {max_rps} RPS")
            }
            RunSpecError::InvalidUtilization { index, utilization } => write!(
                f,
                "trace point {index} offers a non-finite rate (utilization {utilization})"
            ),
        }
    }
}

impl std::error::Error for RunSpecError {}

/// Check that `trace` scaled by `max_rps` yields finite arrival rates:
/// the check both [`RunSpec`] and the cluster's run spec apply before
/// generating load.
///
/// # Errors
/// The first offence, as a typed [`RunSpecError`].
pub fn validate_load(trace: &[TracePoint], max_rps: f64) -> Result<(), RunSpecError> {
    if !max_rps.is_finite() {
        return Err(RunSpecError::InvalidMaxRps { max_rps });
    }
    for (index, p) in trace.iter().enumerate() {
        if !(p.utilization * max_rps).is_finite() {
            return Err(RunSpecError::InvalidUtilization {
                index,
                utilization: p.utilization,
            });
        }
    }
    Ok(())
}

/// Everything that defines one trace run: the workload (trace, interval,
/// load scaling), the planning mode, the arrival seed, an optional fault
/// plan, an optional per-run lifecycle override, and an optional
/// telemetry recorder.
///
/// Build with [`RunSpec::new`] plus the chained setters; unset options
/// default to fault-free, the node's configured lifecycle, and no
/// recording.
#[derive(Debug, Clone)]
pub struct RunSpec {
    trace: Vec<TracePoint>,
    interval_ms: f64,
    max_rps: f64,
    mode: RuntimeMode,
    seed: u64,
    faults: FaultPlan,
    lifecycle: Option<LifecycleConfig>,
    recorder: Option<Box<dyn Recorder>>,
    sizes: SizeDist,
    dynamic: Option<DynamicDispatch>,
    backend: Option<ExecBackend>,
}

impl RunSpec {
    /// A run replaying `trace` with `interval_ms` sampling / re-planning
    /// period at `max_rps` load scaling. Defaults: [`RuntimeMode::Poly`],
    /// seed 0, no faults, configured lifecycle, no recorder.
    #[must_use]
    pub fn new(trace: &[TracePoint], interval_ms: f64, max_rps: f64) -> Self {
        Self {
            trace: trace.to_vec(),
            interval_ms,
            max_rps,
            mode: RuntimeMode::Poly,
            seed: 0,
            faults: FaultPlan::new(),
            lifecycle: None,
            recorder: None,
            sizes: SizeDist::Nominal,
            dynamic: None,
            backend: None,
        }
    }

    /// Check the spec's load for values that cannot run (see
    /// [`validate_load`]).
    ///
    /// # Errors
    /// The first offence, as a typed [`RunSpecError`].
    pub fn validate(&self) -> Result<(), RunSpecError> {
        validate_load(&self.trace, self.max_rps)
    }

    /// Planning mode ([`RuntimeMode::Poly`] or a static baseline).
    #[must_use]
    pub fn mode(mut self, mode: RuntimeMode) -> Self {
        self.mode = mode;
        self
    }

    /// Seed for the Poisson arrival process.
    #[must_use]
    pub fn seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Scripted device fault plan.
    #[must_use]
    pub fn faults(mut self, faults: FaultPlan) -> Self {
        self.faults = faults;
        self
    }

    /// Override the node's request-lifecycle config for this run.
    #[must_use]
    pub fn lifecycle(mut self, lifecycle: LifecycleConfig) -> Self {
        self.lifecycle = Some(lifecycle);
        self
    }

    /// Attach a telemetry recorder (e.g. a `MemRecorder` handle; keep a
    /// clone to read the samples back after the run).
    #[must_use]
    pub fn recorder(mut self, recorder: impl Recorder + 'static) -> Self {
        self.recorder = Some(Box::new(recorder));
        self
    }

    /// Per-request input-size distribution (default
    /// [`SizeDist::Nominal`], i.e. every request exactly nominal — the
    /// legacy behavior, bit for bit).
    #[must_use]
    pub fn sizes(mut self, sizes: SizeDist) -> Self {
        self.sizes = sizes;
        self
    }

    /// Enable the hybrid static/dynamic scheduling layer: planning still
    /// produces the interval policy, but each kernel keeps its top-k
    /// implementations and dispatch picks among them per request by input
    /// size and per-device queue depth (with work stealing when
    /// `dynamic.steal`). Off by default — the purely static plan.
    #[must_use]
    pub fn dynamic(mut self, dynamic: DynamicDispatch) -> Self {
        self.dynamic = Some(dynamic);
        self
    }

    /// Override the node's provisioned execution backend for this run
    /// (default: the [`NodeSetup::backend`](crate::NodeSetup) the context
    /// carries). With [`ExecBackend::Cpu`], every adopted policy is
    /// re-timed from real host execution — see [`retime_policy`].
    #[must_use]
    pub fn backend(mut self, backend: ExecBackend) -> Self {
        self.backend = Some(backend);
        self
    }

    /// The trace being replayed.
    #[must_use]
    pub fn trace(&self) -> &[TracePoint] {
        &self.trace
    }
}

/// Re-time `policy` for `backend`.
///
/// On the analytical backend this is the identity — the modeled
/// latencies flow into the DES untouched, bit-identical to the
/// pre-backend path. On the CPU backend every implementation — the
/// per-kernel primaries *and* the dispatch-time alternates, uniformly —
/// has its timing replaced by the measured wall-clock of the kernel's
/// micro-kernel execution ([`poly_backend::CpuClient::measure`]): batch
/// collapses to 1 and the power figures become the host package's. The
/// platform assignment (`kind`, `impl_index`) is untouched, so plan
/// structure, bitstream residency, and policy-change accounting are
/// preserved while the DES clock advances on measured time — modeled
/// transfer/reconfiguration overheads and measured kernel time coexist
/// in one clock.
///
/// Measurements are cached per kernel in the client, so re-timing the
/// same policy twice in one process is bit-stable (and cheap).
#[must_use]
pub fn retime_policy(policy: &Policy, backend: &ExecBackend, graph: &KernelGraph) -> Policy {
    let Some(client) = backend.cpu() else {
        return policy.clone();
    };
    let kernels = graph.kernels();
    let retime = |imp: &KernelImpl| -> KernelImpl {
        let k = &kernels[imp.kernel.0];
        let report = client.measure(k.name(), &k.profile());
        KernelImpl {
            latency_ms: report.latency_ms,
            latency_single_ms: report.latency_ms,
            service_ms: report.service_ms,
            batch: report.batch,
            active_power_w: report.active_power_w,
            idle_power_w: report.idle_power_w,
            ..*imp
        }
    };
    let retimed = Policy::from_impls(policy.impls().iter().map(retime).collect());
    if policy.has_alternates() {
        let alts = (0..policy.len())
            .map(|k| policy.alts_of(KernelId(k)).iter().map(retime).collect())
            .collect();
        retimed.with_alternate_impls(alts)
    } else {
        retimed
    }
}

/// The Poly runtime for one application on one provisioned node.
#[derive(Debug)]
pub struct PolyRuntime {
    tenant: Tenant,
}

impl PolyRuntime {
    /// Runtime for the application/node bundle `ctx`.
    #[must_use]
    pub fn new(ctx: AppContext) -> Self {
        Self {
            tenant: Tenant::new(ctx, None),
        }
    }

    /// The optimizer (e.g. to inspect the model's correction factor).
    #[must_use]
    pub fn optimizer(&self) -> &Optimizer {
        self.tenant.control().optimizer()
    }

    /// The application/node bundle this runtime drives.
    #[must_use]
    pub fn context(&self) -> &AppContext {
        self.tenant.context()
    }

    /// Replay `spec`: re-plan every interval from monitor feedback (Poly
    /// mode, through the [`ControlLoop`](crate::ControlLoop)) or hold one
    /// policy (static mode), applying the spec's fault plan and recording
    /// telemetry into its recorder (if any).
    ///
    /// In Poly mode a device fault is detected at the next interval and
    /// the runtime re-plans onto the surviving devices, bypassing the
    /// change hysteresis — a failure is never "not worthwhile".
    ///
    /// # Panics
    /// Panics if the spec fails [`RunSpec::validate`]; use
    /// [`try_run`](Self::try_run) to get the typed error instead.
    #[must_use]
    pub fn run(&mut self, spec: &RunSpec) -> TraceReport {
        match self.try_run(spec) {
            Ok(report) => report,
            Err(e) => panic!("invalid run spec: {e}"),
        }
    }

    /// [`run`](Self::run), rejecting a spec that fails
    /// [`RunSpec::validate`] before anything runs.
    ///
    /// # Errors
    /// The spec's first invalid parameter, as a typed [`RunSpecError`].
    pub fn try_run(&mut self, spec: &RunSpec) -> Result<TraceReport, RunSpecError> {
        spec.validate()?;
        Ok(self.replay(spec))
    }

    /// The replay of [`run`](Self::run), on a validated spec.
    fn replay(&mut self, spec: &RunSpec) -> TraceReport {
        let trace = &spec.trace;
        let interval_ms = spec.interval_ms;
        let tenant = &mut self.tenant;
        let bound_ms = tenant.context().bound_ms();
        let pinned = match &spec.mode {
            RuntimeMode::Poly => None,
            RuntimeMode::Static(p) => Some(p),
        };

        // Initial policy: plan for the first interval's load (or pin the
        // static one). With the dynamic layer on, every adopted policy
        // also carries the plan's top-k alternates for the dispatch-time
        // chooser; a measured backend then re-times the whole policy.
        let setup = tenant.context().setup();
        let backend = spec
            .backend
            .clone()
            .unwrap_or_else(|| setup.backend.clone());
        let mut sim_config = setup.sim_config.clone();
        if let Some(lc) = &spec.lifecycle {
            sim_config.lifecycle = lc.clone();
        }
        sim_config.dynamic = spec.dynamic;
        let first_rps = trace.first().map_or(0.0, |p| p.utilization * spec.max_rps);
        tenant.begin(first_rps, pinned, backend, sim_config, &spec.faults);
        let mut recorder = spec.recorder.clone();
        let recording = recorder.as_ref().is_some_and(|r| r.enabled());
        if recording {
            tenant.set_recorder(recorder.clone());
        }

        let mut intervals = Vec::with_capacity(trace.len());
        let mut energy_mj = 0.0;
        let mut total_completed = 0usize;
        let mut total_violations = 0usize;
        let mut total_fault_events = 0usize;
        let mut err_sum = 0.0;
        let mut err_n = 0usize;

        for (i, point) in trace.iter().enumerate() {
            let start = point.start_ms;
            let end = start + interval_ms;
            let offered_rps = point.utilization * spec.max_rps;

            // Re-plan from the monitor's estimate (the first interval was
            // planned by `begin`); a static policy only holds.
            if i > 0 {
                if pinned.is_some() {
                    tenant.control_mut().hold(offered_rps, "static");
                } else {
                    let est = tenant.control().load_estimate_rps().max(offered_rps * 0.1);
                    tenant.replan(est);
                }
            }

            // Offer this interval's arrivals and run it.
            let arrivals: Vec<f64> =
                poisson(offered_rps, interval_ms, spec.seed.wrapping_add(i as u64))
                    .into_iter()
                    .map(|t| start + t)
                    .collect();
            // Decorrelate the size stream from the arrival stream (same
            // per-interval index, different seed lineage).
            let sizes = (!matches!(spec.sizes, SizeDist::Nominal)).then(|| {
                let size_seed = spec
                    .seed
                    .wrapping_mul(0x9E37_79B9_7F4A_7C15)
                    .wrapping_add(i as u64);
                spec.sizes.sample(arrivals.len(), size_seed)
            });
            let out = tenant.step(&arrivals, sizes.as_deref(), end, Some(interval_ms));
            total_completed += out.completed;
            total_violations += out.violations;
            total_fault_events += out.fault_events;
            energy_mj += out.energy_j * 1000.0;
            if let Some(err) = out.model_error {
                err_sum += err;
                err_n += 1;
            }

            if recording {
                if let Some(r) = recorder.as_mut() {
                    r.record(end, tenant.interval_event(i, start, offered_rps, &out));
                }
            }

            intervals.push(IntervalRecord {
                start_ms: start,
                utilization: point.utilization,
                offered_rps,
                p99_ms: out.p99_ms,
                predicted_p99_ms: tenant.control().predicted_p99_ms(),
                avg_power_w: out.avg_power_w,
                policy_changed: tenant.control().changed(),
                violations: out.violations,
                completed: out.completed,
                healthy_devices: out.healthy_devices,
                fault_events: out.fault_events,
                retried: out.retried,
            });
        }

        // Recovery latency: time from each fail-stop to the end of the
        // first subsequent interval that completed work back under the
        // bound.
        let mut recovery_sum = 0.0;
        let mut recovery_n = 0usize;
        for f in spec.faults.fail_stops() {
            if let Some(r) = intervals
                .iter()
                .find(|r| r.start_ms >= f.at_ms && r.completed > 0 && r.p99_ms <= bound_ms)
            {
                recovery_sum += r.start_ms + interval_ms - f.at_ms;
                recovery_n += 1;
            }
        }

        let sim = tenant.sim().expect("begun above");
        let total_ms = trace.len() as f64 * interval_ms;
        TraceReport {
            intervals,
            energy_j: energy_mj / 1000.0,
            mean_power_w: if total_ms > 0.0 {
                energy_mj / total_ms
            } else {
                0.0
            },
            violation_ratio: if total_completed > 0 {
                total_violations as f64 / total_completed as f64
            } else {
                0.0
            },
            prediction_error: if err_n > 0 {
                err_sum / err_n as f64
            } else {
                0.0
            },
            fault_events: total_fault_events,
            retry: sim.retry_stats(),
            timed_out: sim.counters().timed_out,
            mean_recovery_ms: if recovery_n > 0 {
                recovery_sum / recovery_n as f64
            } else {
                0.0
            },
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::provision::{table_iii, Architecture, Setting};
    use poly_dse::Explorer;

    fn runtime() -> PolyRuntime {
        let app = poly_apps::asr();
        let setup = table_iii(Setting::I, Architecture::HeterPoly);
        let ex = Explorer::new(setup.gpu.clone(), setup.fpga.clone());
        let spaces = app.kernels().iter().map(|k| ex.explore(k)).collect();
        PolyRuntime::new(AppContext::new(app, spaces, setup, 200.0))
    }

    fn flat_trace(n: usize, util: f64, interval_ms: f64) -> Vec<TracePoint> {
        (0..n)
            .map(|i| TracePoint {
                start_ms: i as f64 * interval_ms,
                utilization: util,
            })
            .collect()
    }

    #[test]
    fn light_load_trace_is_violation_free_and_cheap() {
        let mut rt = runtime();
        let trace = flat_trace(6, 0.15, 10_000.0);
        let report = rt.run(&RunSpec::new(&trace, 10_000.0, 20.0).seed(7));
        assert_eq!(report.intervals.len(), 6);
        assert!(report.violation_ratio < 0.05, "{}", report.violation_ratio);
        assert!(report.mean_power_w > 0.0);
    }

    #[test]
    fn load_step_triggers_replanning() {
        let mut rt = runtime();
        let mut trace = flat_trace(4, 0.1, 10_000.0);
        trace.extend(flat_trace(4, 0.9, 10_000.0).into_iter().map(|mut p| {
            p.start_ms += 40_000.0;
            p
        }));
        let report = rt.run(&RunSpec::new(&trace, 10_000.0, 20.0).seed(11));
        // Some interval after the step must adopt a different policy.
        assert!(
            report.intervals.iter().skip(4).any(|r| r.policy_changed),
            "{:?}",
            report
                .intervals
                .iter()
                .map(|r| r.policy_changed)
                .collect::<Vec<_>>()
        );
    }

    #[test]
    fn static_mode_never_changes_policy() {
        let mut rt = runtime();
        // Build a static policy from the latency-only plan.
        let app = poly_apps::asr();
        let setup = table_iii(Setting::I, Architecture::HeterPoly);
        let ex = Explorer::new(setup.gpu.clone(), setup.fpga.clone());
        let spaces: Vec<_> = app.kernels().iter().map(|k| ex.explore(k)).collect();
        let plan = poly_sched::Scheduler::default()
            .plan_latency(&app, &spaces, &setup.pool)
            .unwrap();
        let policy = Policy::from_plan(&plan, &spaces, &setup.gpu);
        let trace = flat_trace(5, 0.3, 10_000.0);
        let report = rt.run(
            &RunSpec::new(&trace, 10_000.0, 15.0)
                .mode(RuntimeMode::Static(policy))
                .seed(3),
        );
        assert!(report.intervals.iter().all(|r| !r.policy_changed));
    }

    #[test]
    fn prediction_error_is_bounded() {
        let mut rt = runtime();
        let trace = flat_trace(8, 0.3, 10_000.0);
        let report = rt.run(&RunSpec::new(&trace, 10_000.0, 20.0).seed(21));
        assert!(report.prediction_error <= 1.0);
    }
}
