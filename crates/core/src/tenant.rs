//! One application on one node — its [`AppContext`], [`ControlLoop`]
//! and [`Simulator`] — stepped interval by interval: the one interval
//! body [`PolyRuntime`](crate::PolyRuntime) and every cluster node
//! tenant share. A tenant lives for one replay: [`Tenant::begin`] builds
//! it from a clone of the context, so no state carries from one replay
//! to the next. Callers generate the arrivals and re-plan;
//! [`Tenant::step`] runs the interval and feeds the control loop.

use crate::{AppContext, ControlLoop, IntervalObs};
use poly_obs::{Event as ObsEvent, Recorder};
use poly_sim::{DynamicDispatch, FaultPlan, Policy, SimConfig, Simulator};

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

/// One application on one node for one replay: its context, its
/// control loop and its simulator, all built by [`Tenant::begin`].
#[derive(Debug)]
pub struct Tenant {
    ctx: AppContext,
    control: ControlLoop,
    sim: Simulator,
    /// Whether the adopted policy is a pinned static baseline, whose
    /// measurements never feed the control loop.
    pinned: bool,
}

impl Tenant {
    /// One replay of `ctx`'s application: a fresh control loop with its
    /// initial policy for `first_rps` adopted (or `pinned`, a static
    /// baseline the caller must never re-plan), capped at `cap_w` when
    /// set (see [`ControlLoop::begin`]), and a simulator built from the
    /// node's [`NodeSetup`](crate::NodeSetup) with `dynamic` dispatch,
    /// `faults` scripted in and `recorder` attached. The setup is the one
    /// source of the node's backend and lifecycle. Adopted policies carry
    /// dispatch-time alternates exactly when `dynamic` is set.
    #[must_use]
    pub fn begin(
        ctx: AppContext,
        cap_w: Option<f64>,
        first_rps: f64,
        pinned: Option<&Policy>,
        dynamic: Option<DynamicDispatch>,
        faults: &FaultPlan,
        recorder: Option<Box<dyn Recorder>>,
    ) -> Self {
        let control = ControlLoop::begin(&ctx, cap_w, first_rps, pinned, dynamic.is_some());
        let setup = ctx.setup();
        let sim_config = SimConfig {
            backend_label: setup.backend.label(),
            dynamic,
            ..setup.sim_config.clone()
        };
        let mut sim = Simulator::new(
            ctx.graph_owned(),
            &setup.pool,
            control.policy().clone(),
            sim_config,
        );
        sim.inject_faults(faults);
        sim.set_recorder(recorder);
        Self {
            ctx,
            control,
            sim,
            pinned: pinned.is_some(),
        }
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

    /// The simulator of this replay.
    #[must_use]
    pub fn sim(&self) -> &Simulator {
        &self.sim
    }

    /// The simulator of this replay, mutably.
    pub fn sim_mut(&mut self) -> &mut Simulator {
        &mut self.sim
    }

    /// Re-plan for the coming interval from the load estimate `est_rps`
    /// (see [`ControlLoop::replan`]). Returns whether the policy changed.
    pub fn replan(&mut self, est_rps: f64) -> bool {
        self.control.replan(&self.ctx, &mut self.sim, est_rps)
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
    /// Panics if `sizes` does not pair one size with each arrival.
    pub fn step(
        &mut self,
        arrivals: &[f64],
        sizes: Option<&[f64]>,
        end_ms: f64,
        duration_ms: Option<f64>,
    ) -> IntervalOutcome {
        let sim = &mut self.sim;
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
        self.sim.window_latencies()
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
