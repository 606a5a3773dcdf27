//! One application on one node — its [`AppContext`], [`ControlLoop`]
//! and [`Simulator`] — stepped interval by interval: the one interval
//! body [`PolyRuntime`](crate::PolyRuntime) and every cluster node
//! tenant share. Callers generate the arrivals and re-plan;
//! [`Tenant::step`] runs the interval and feeds the control loop.

use crate::{AppContext, ControlLoop, IntervalObs};
use poly_backend::ExecBackend;
use poly_obs::{Event as ObsEvent, Recorder};
use poly_sim::{FaultPlan, Policy, SimConfig, Simulator};

/// One interval's measurements, as one tenant saw them.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct IntervalOutcome {
    /// Interval duration the monitor was fed, ms.
    pub duration_ms: f64,
    /// Requests completed during the interval.
    pub completed: usize,
    /// Measured p99 latency (0 if nothing completed — `completed == 0`
    /// distinguishes that from a true zero).
    pub p99_ms: f64,
    /// Completions over the tenant's QoS bound.
    pub violations: usize,
    /// Mean power over the interval, in watts.
    pub avg_power_w: f64,
    /// Energy over the interval, in joules.
    pub energy_j: f64,
    /// Healthy devices at the interval end.
    pub healthy_devices: usize,
    /// Fault events applied during the interval.
    pub fault_events: usize,
    /// Work items retried onto surviving devices during the interval.
    pub retried: usize,
    /// Requests abandoned past their deadline during the interval.
    pub timed_out: usize,
    /// The model's relative p99 prediction error, when the interval was
    /// fed back into the model (see [`ControlLoop::observe`]).
    pub model_error: Option<f64>,
}

/// One application on one node: its context, its control loop and its
/// simulator.
#[derive(Debug)]
pub struct Tenant {
    ctx: AppContext,
    control: ControlLoop,
    sim: Option<Simulator>,
    /// Whether the adopted policy is a pinned static baseline, whose
    /// measurements never feed the control loop.
    pinned: bool,
}

impl Tenant {
    /// A tenant for `ctx`; with `cap_w` set, every plan must fit that
    /// power cap (see [`ControlLoop::new`]).
    #[must_use]
    pub fn new(ctx: AppContext, cap_w: Option<f64>) -> Self {
        let control = ControlLoop::new(&ctx, cap_w);
        Self {
            ctx,
            control,
            sim: None,
            pinned: false,
        }
    }

    /// The application/node bundle.
    #[must_use]
    pub fn context(&self) -> &AppContext {
        &self.ctx
    }

    /// The control loop.
    #[must_use]
    pub fn control(&self) -> &ControlLoop {
        &self.control
    }

    /// The control loop, to set a cap, hold or force a re-plan.
    pub fn control_mut(&mut self) -> &mut ControlLoop {
        &mut self.control
    }

    /// The simulator of the current replay (`None` before
    /// [`begin`](Self::begin)).
    #[must_use]
    pub fn sim(&self) -> Option<&Simulator> {
        self.sim.as_ref()
    }

    /// The simulator of the current replay, mutably.
    pub fn sim_mut(&mut self) -> Option<&mut Simulator> {
        self.sim.as_mut()
    }

    /// Start a fresh replay: adopt an initial policy for `first_rps` (or
    /// `pinned`, a static baseline the caller must never re-plan)
    /// re-timed for `backend`, and build a simulator from `sim_config`
    /// with `faults` scripted in. Adopted policies carry dispatch-time
    /// alternates exactly when `sim_config` enables the dynamic layer.
    pub fn begin(
        &mut self,
        first_rps: f64,
        pinned: Option<&Policy>,
        backend: ExecBackend,
        mut sim_config: SimConfig,
        faults: &FaultPlan,
    ) {
        self.pinned = pinned.is_some();
        sim_config.backend_label = backend.label();
        let alternates = sim_config.dynamic.is_some();
        let policy = self
            .control
            .begin(&self.ctx, first_rps, pinned, backend, alternates);
        let mut sim = Simulator::new(
            self.ctx.graph_owned(),
            &self.ctx.setup().pool,
            policy,
            sim_config,
        );
        sim.inject_faults(faults);
        self.sim = Some(sim);
    }

    /// Attach (or detach) a telemetry recorder to the current replay's
    /// simulator.
    pub fn set_recorder(&mut self, recorder: Option<Box<dyn Recorder>>) {
        if let Some(sim) = self.sim.as_mut() {
            sim.set_recorder(recorder);
        }
    }

    /// Re-plan for the coming interval from the load estimate `est_rps`
    /// (see [`ControlLoop::replan`]). Returns whether the policy changed.
    ///
    /// # Panics
    /// Panics if called before [`begin`](Self::begin).
    pub fn replan(&mut self, est_rps: f64) -> bool {
        let sim = self.sim.as_mut().expect("begin first");
        self.control.replan(&self.ctx, sim, est_rps)
    }

    /// Run one interval: offer `arrivals` (absolute times, with optional
    /// per-request relative `sizes`) and run the simulator to `end_ms` in
    /// a fresh accounting window. Counts, p99, power and energy come from
    /// the window's report, fault/retry/timeout counts from a
    /// [`Counters`](poly_sim::Counters) delta. Unless the policy is
    /// pinned, the measurements feed the control loop, whose monitor sees
    /// `duration_ms` as the interval length, or the accounting window's
    /// (`end_ms` minus the previous interval's end) when `None`.
    ///
    /// # Panics
    /// Panics if called before [`begin`](Self::begin), or if `sizes`
    /// does not pair one size with each arrival.
    pub fn step(
        &mut self,
        arrivals: &[f64],
        sizes: Option<&[f64]>,
        end_ms: f64,
        duration_ms: Option<f64>,
    ) -> IntervalOutcome {
        let sim = self.sim.as_mut().expect("begin first");
        match sizes {
            Some(sizes) => sim.enqueue_arrivals_sized(arrivals, sizes),
            None => sim.enqueue_arrivals(arrivals),
        }
        let before = sim.counters();
        sim.reset_accounting();
        let report = sim.finish(end_ms);
        let window = sim.counters().delta(&before);
        let mut out = IntervalOutcome {
            duration_ms: duration_ms.unwrap_or(report.duration_ms),
            completed: report.completed,
            p99_ms: report.latency.p99(),
            violations: report.latency.violations_over(self.ctx.bound_ms()),
            avg_power_w: report.avg_power_w,
            energy_j: report.energy_j,
            healthy_devices: sim.healthy_devices(),
            fault_events: window.fault_events,
            retried: window.retry.device_retries,
            timed_out: window.timed_out,
            model_error: None,
        };
        let obs = IntervalObs {
            duration_ms: out.duration_ms,
            arrived: report.arrived,
            completed: out.completed,
            p99_ms: out.p99_ms,
            avg_power_w: out.avg_power_w,
            queued: sim.queued(),
        };
        if !self.pinned {
            out.model_error = self.control.observe(obs);
        }
        out
    }

    /// Completion latencies of the last [`step`](Self::step) (empty
    /// before the first).
    #[must_use]
    pub fn window_latencies(&self) -> &[f64] {
        self.sim.as_ref().map_or(&[], Simulator::window_latencies)
    }

    /// The `Interval` telemetry event for `out`, the interval number
    /// `index` starting at `start_ms` with `offered_rps` offered.
    #[must_use]
    pub fn interval_event(
        &self,
        index: usize,
        start_ms: f64,
        offered_rps: f64,
        out: &IntervalOutcome,
    ) -> ObsEvent {
        ObsEvent::Interval {
            index,
            start_ms,
            dur_ms: out.duration_ms,
            offered_rps,
            load_est_rps: self.control.est_rps(),
            policy_changed: self.control.changed(),
            reason: self.control.reason(),
            predicted_p99_ms: self.control.predicted_p99_ms(),
            observed_p99_ms: out.p99_ms,
            power_w: out.avg_power_w,
            completed: out.completed,
            violations: out.violations,
        }
    }
}
