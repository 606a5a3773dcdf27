//! The discrete-event engine of one leaf node, split by mechanism.
//!
//! This module holds the [`Simulator`]: its configuration, the event
//! kinds, construction and validation, the one event loop, and `handle`,
//! the only event dispatcher. Each mechanism is an `impl Simulator`
//! block in its own submodule, next to the state only it touches
//! (DESIGN.md §26 maps them).

mod accounting;
mod batch;
mod cancel;
mod dispatch;
mod faults;
mod hedge;
mod pipeline;

pub use accounting::{KernelStats, SimReport};
pub use dispatch::DynamicDispatch;
pub use pipeline::PipelineConfig;

use crate::arena::{Outcome, ReqArena};
use crate::counters::Counters;
use crate::device::{DeviceState, WorkItem};
use crate::equeue::EventQueue;
use crate::fault::FaultEvent;
use crate::lifecycle::LifecycleConfig;
use crate::Policy;
use poly_device::{DeviceKind, PcieLink};
use poly_ir::{KernelGraph, KernelId};
use poly_obs::{Event as ObsEvent, Recorder};
use poly_sched::Pool;
use std::sync::Arc;

/// Fraction of GPU board idle power drawn when the current policy leaves
/// the GPU unused (deep-idle clocks, memory parked).
pub const GPU_PARKED_FRACTION: f64 = 0.3;

/// Static simulation parameters of one leaf node.
#[derive(Debug, Clone, PartialEq)]
pub struct SimConfig {
    /// PCIe link paying inter-platform kernel transfers.
    pub pcie: PcieLink,
    /// QoS (p99) latency bound in milliseconds, for violation accounting.
    pub latency_bound_ms: f64,
    /// GPU board idle power before any kernel has run, in watts.
    pub gpu_idle_w: f64,
    /// FPGA board idle power before any bitstream is loaded, in watts.
    pub fpga_idle_w: f64,
    /// FPGA reconfiguration time in milliseconds.
    pub fpga_reconfig_ms: f64,
    /// Per-request lifecycle policy (deadlines, bounded retries, hedged
    /// dispatch). The default disables all of it — legacy behavior.
    pub lifecycle: LifecycleConfig,
    /// Dispatch-time dynamic layer over the interval plan (`None` = the
    /// purely static plan, the default): per-request implementation
    /// choice among the policy's top-k alternates, plus work-stealing to
    /// idle devices. Takes effect only when the active [`Policy`] carries
    /// alternates ([`Policy::with_alternates`]).
    pub dynamic: Option<DynamicDispatch>,
    /// Label of the execution backend whose timing feeds the DES clock
    /// ("analytical" = modeled, "cpu" = host-measured), stamped onto
    /// every `ExecStart` telemetry span. Purely informational — the
    /// engine advances on whatever latencies the active [`Policy`]
    /// carries, so measured and analytical time coexist in one clock.
    pub backend_label: &'static str,
    /// Cross-kernel pipelined streaming over the DAG edges. The default
    /// (`depth == 0`) is barrier semantics — the engine's behavior is
    /// bit-identical to a build without this field.
    pub pipeline: PipelineConfig,
}

impl Default for SimConfig {
    fn default() -> Self {
        Self {
            pcie: PcieLink::gen3_x16(),
            latency_bound_ms: 200.0,
            gpu_idle_w: 42.0,
            fpga_idle_w: 4.5,
            fpga_reconfig_ms: 220.0,
            lifecycle: LifecycleConfig::default(),
            dynamic: None,
            backend_label: "analytical",
            pipeline: PipelineConfig::default(),
        }
    }
}

impl SimConfig {
    /// Board idle power of a cold device of `kind` (no kernel run, no
    /// bitstream loaded): at construction and on recovery.
    fn idle_w(&self, kind: DeviceKind) -> f64 {
        match kind {
            DeviceKind::Gpu => self.gpu_idle_w,
            DeviceKind::Fpga => self.fpga_idle_w,
        }
    }
}

/// A simulator that cannot be built: the policy does not fit the graph
/// or the pool, or a lifecycle knob is out of range. Found at
/// construction ([`Simulator::try_new`]) and on every policy swap
/// ([`Simulator::set_policy`]), never mid-dispatch.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum SimError {
    /// The policy does not choose exactly one implementation per kernel.
    PolicyLength {
        /// Implementations in the policy.
        policy: usize,
        /// Kernels in the graph.
        kernels: usize,
    },
    /// A kernel's primary implementation targets a platform the pool
    /// has no device of. (Alternates may name absent platforms: the
    /// dynamic chooser skips them.)
    MissingPlatform {
        /// The kernel.
        kernel: KernelId,
        /// The platform its primary implementation needs.
        kind: DeviceKind,
    },
    /// A [`LifecycleConfig`] knob outside its valid range (see
    /// [`LifecycleConfig::validate`]).
    Lifecycle {
        /// The knob, e.g. `"backoff.jitter_frac"`.
        field: &'static str,
        /// Its value.
        value: f64,
        /// The range it must lie in, e.g. `"finite and >= 0"`.
        bound: &'static str,
    },
}

impl std::fmt::Display for SimError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match *self {
            SimError::PolicyLength { policy, kernels } => write!(
                f,
                "policy must cover every kernel: it has {policy} implementations for {kernels} kernels"
            ),
            SimError::MissingPlatform { kernel, kind } => {
                write!(f, "no device of kind {kind} in pool for kernel {kernel}")
            }
            SimError::Lifecycle {
                field,
                value,
                bound,
            } => write!(f, "lifecycle {field} must be {bound}, got {value}"),
        }
    }
}

impl std::error::Error for SimError {}

/// One scheduled event. Request, kernel, device and fault indices are
/// stored `u32`-wide (requests fit by the arena's admission bound, the
/// rest are small by construction): the payload is 16 bytes, so a queue
/// entry is 32 and two share a cache line. [`ix`] narrows an index where
/// an event is built and `handle` widens it back.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum EventKind {
    Arrival {
        req: u32,
    },
    Dispatch {
        req: u32,
        kernel: u32,
    },
    DeviceFree {
        dev: u32,
    },
    /// Launch `launch` on device `dev` completes: every item of it passes
    /// through `complete` in launch order. `frees` marks a launch that
    /// frees its device at that same instant (GPU launches): the event
    /// then does the `DeviceFree` step first (see `batch::Launches`).
    LaunchDone {
        dev: u32,
        launch: u32,
        frees: bool,
    },
    /// Scripted fault (index into `Simulator::faults`).
    Fault {
        idx: u32,
    },
    /// The request's deadline: if it is still incomplete, every copy of
    /// its work is cancelled and it is marked timed out.
    Deadline {
        req: u32,
    },
    /// Hedge check scheduled at dispatch + hedge delay: if the stage is
    /// still outstanding under the same attempt, fire a second copy on
    /// another device.
    HedgeFire {
        req: u32,
        kernel: u32,
        attempt: u32,
    },
}

const _: () = assert!(std::mem::size_of::<EventKind>() == 16);
const _: () = assert!(crate::equeue::entry_size::<EventKind>() == 32);

/// Narrow an engine index to an event field. Every index the engine
/// schedules fits `u32`: requests by [`crate::arena::MAX_REQ_INDEX`],
/// kernels, devices and faults by far.
fn ix(i: usize) -> u32 {
    u32::try_from(i).expect("event indices fit u32")
}

/// Discrete-event simulator of one accelerator-outfitted leaf node.
///
/// Drive it by enqueuing arrivals
/// ([`enqueue_arrivals`](Self::enqueue_arrivals)), advancing time
/// ([`advance_to`](Self::advance_to)) — optionally swapping the execution
/// [`Policy`] between advances, which is how the Poly runtime's re-planning
/// loop is simulated — and finally collecting a [`SimReport`]
/// ([`finish`](Self::finish)).
#[derive(Debug, Clone)]
pub struct Simulator {
    graph: KernelGraph,
    /// The graph's entry kernels, dispatched on every arrival.
    sources: Vec<KernelId>,
    policy: Policy,
    config: SimConfig,
    devices: Vec<DeviceState>,
    /// Timer-wheel event queue; stamps each event with a monotone
    /// sequence number and pops in exact `(time, seq)` order.
    events: EventQueue<EventKind>,
    /// One record per request (plus its contiguous stages) with global,
    /// never-reused indices (settled prefixes compact away at accounting
    /// resets).
    requests: ReqArena,
    now: f64,
    /// Batch formation: wait budgets, the arrival-rate estimate, scratch.
    batching: batch::Batching,
    /// Rolling stage-latency windows behind the hedge delay.
    hedging: hedge::Hedging,
    /// The dynamic chooser's downstream-margin walks and scratch.
    margin: dispatch::Margin,
    /// Healthy devices by kind and by loaded bitstream.
    routes: dispatch::Routes,
    /// The in-flight book: every launch whose `LaunchDone` is still
    /// queued, with its completion time and items (each device lists
    /// its own open launch ids).
    launches: batch::Launches,
    /// The current accounting window (see [`SimReport`]): its start,
    /// its counts and its per-kernel breakdown.
    stats_since: f64,
    arrived: usize,
    completed: usize,
    /// Completed-request latencies since the last accounting reset.
    /// Shared (copy-on-write) so report generation can snapshot it in
    /// O(1) instead of cloning the whole buffer.
    latencies: Arc<Vec<f64>>,
    /// Reusable workspace for quantile selection at report time.
    lat_scratch: Vec<f64>,
    kernel_stats: Vec<KernelStats>,
    /// Scripted faults, indexed by `EventKind::Fault`.
    faults: Vec<FaultEvent>,
    /// Work with no healthy device of the required kind, parked until a
    /// policy change or a recovery makes it dispatchable again.
    stranded: Vec<WorkItem>,
    /// Successor edges of the launching or completing kernel (scratch of
    /// `pipeline_stream` and `complete`).
    succ_scratch: Vec<(KernelId, u64)>,
    /// Devices touched by a cancellation sweep (scratch).
    touched_scratch: Vec<usize>,
    /// Lifetime counts: lifecycle, audit, faults, re-issues and queue
    /// work (never reset; see [`counters`](Self::counters)).
    counters: Counters,
    /// Lifetime busy-energy books (see `audit`).
    booked_busy_mj: f64,
    refunded_busy_mj: f64,
    /// Telemetry sink (`None` = recording off). The recorder keeps its
    /// own sequence numbering and never feeds back into simulation state,
    /// so attaching one cannot perturb results.
    recorder: Option<Box<dyn Recorder>>,
}

/// Check that `policy` fits a `kernels`-kernel graph on `devices`: one
/// implementation per kernel, each primary on a platform the pool has.
fn check_policy(policy: &Policy, kernels: usize, devices: &[DeviceState]) -> Result<(), SimError> {
    if policy.len() != kernels {
        return Err(SimError::PolicyLength {
            policy: policy.len(),
            kernels,
        });
    }
    let missing = policy
        .impls()
        .iter()
        .find(|imp| devices.iter().all(|d| d.kind != imp.kind));
    missing.map_or(Ok(()), |imp| {
        Err(SimError::MissingPlatform {
            kernel: imp.kernel,
            kind: imp.kind,
        })
    })
}

impl Simulator {
    /// Create a simulator for `graph` on the devices of `pool`, executing
    /// per `policy`.
    ///
    /// # Panics
    /// Panics with the [`SimError`] message where
    /// [`try_new`](Self::try_new) would return it.
    #[must_use]
    pub fn new(graph: KernelGraph, pool: &Pool, policy: Policy, config: SimConfig) -> Self {
        Self::try_new(graph, pool, policy, config).unwrap_or_else(|e| panic!("{e}"))
    }

    /// Create a simulator for `graph` on the devices of `pool`, executing
    /// per `policy`.
    ///
    /// # Errors
    /// [`SimError::PolicyLength`] when `policy` does not cover the graph's
    /// kernels one for one, [`SimError::MissingPlatform`] when a
    /// kernel's primary implementation needs a platform `pool` lacks, and
    /// [`SimError::Lifecycle`] for a lifecycle knob out of range.
    pub fn try_new(
        graph: KernelGraph,
        pool: &Pool,
        policy: Policy,
        config: SimConfig,
    ) -> Result<Self, SimError> {
        config.lifecycle.validate()?;
        let n_kernels = graph.len();
        let devices: Vec<DeviceState> = pool
            .kinds()
            .iter()
            .map(|&kind| {
                let reconfig_ms = match kind {
                    DeviceKind::Gpu => 0.0,
                    DeviceKind::Fpga => config.fpga_reconfig_ms,
                };
                DeviceState::new(kind, reconfig_ms, config.idle_w(kind))
            })
            .collect();
        check_policy(&policy, n_kernels, &devices)?;
        let pred_template: Vec<u16> = (0..n_kernels)
            .map(|i| {
                u16::try_from(graph.predecessors(KernelId(i)).count())
                    .expect("predecessor count fits u16")
            })
            .collect();
        let streaming = config.pipeline.enabled();
        let slack_ms = config
            .lifecycle
            .deadline_factor
            .map_or(f64::INFINITY, |f| f * config.latency_bound_ms);
        let margin = dispatch::Margin::new(&graph);
        let mut sim = Self {
            sources: graph.sources(),
            graph,
            policy,
            config,
            devices,
            events: EventQueue::new(),
            requests: ReqArena::new(pred_template, slack_ms, streaming),
            now: 0.0,
            batching: batch::Batching::default(),
            hedging: hedge::Hedging::new(n_kernels),
            margin,
            routes: dispatch::Routes::default(),
            launches: batch::Launches::default(),
            stats_since: 0.0,
            arrived: 0,
            completed: 0,
            latencies: Arc::new(Vec::new()),
            lat_scratch: Vec::new(),
            kernel_stats: vec![KernelStats::default(); n_kernels],
            faults: Vec::new(),
            stranded: Vec::new(),
            succ_scratch: Vec::new(),
            touched_scratch: Vec::new(),
            counters: Counters::default(),
            booked_busy_mj: 0.0,
            refunded_busy_mj: 0.0,
            recorder: None,
        };
        sim.preload_bitstreams();
        sim.reroute();
        sim.recompute_wait_budgets();
        sim.apply_idle_floors();
        Ok(sim)
    }

    /// Current simulation time in milliseconds.
    #[must_use]
    pub fn now(&self) -> f64 {
        self.now
    }

    /// Attach (or detach, with `None`) a telemetry [`Recorder`]. Every
    /// emission site gates on [`Recorder::enabled`] before constructing
    /// an event, so a `NullRecorder` (or no recorder) costs one branch.
    pub fn set_recorder(&mut self, recorder: Option<Box<dyn Recorder>>) {
        self.recorder = recorder;
    }

    /// Whether an enabled recorder is attached (emission sites use this
    /// to skip event construction entirely when recording is off).
    #[must_use]
    pub fn recording(&self) -> bool {
        self.recorder.as_ref().is_some_and(|r| r.enabled())
    }

    /// Record the event `make` builds at sim time `t_ms`. Every emission
    /// site goes through here, and `make` runs only while recording.
    fn obs_at(&mut self, t_ms: f64, make: impl FnOnce() -> ObsEvent) {
        if let Some(r) = self.recorder.as_mut().filter(|r| r.enabled()) {
            r.record(t_ms, make());
        }
    }

    /// Record the event `make` builds at the current sim time.
    fn obs(&mut self, make: impl FnOnce() -> ObsEvent) {
        self.obs_at(self.now, make);
    }

    /// Replace the execution policy. Running executions finish under the
    /// old implementations; future dispatches use the new ones (FPGAs pay
    /// reconfiguration when the loaded bitstream no longer matches).
    ///
    /// # Panics
    /// Panics with the [`SimError`] message when `policy` does not fit
    /// the graph or the pool, as [`try_new`](Self::try_new) checks it.
    pub fn set_policy(&mut self, policy: Policy) {
        if let Err(e) = check_policy(&policy, self.graph.len(), &self.devices) {
            panic!("{e}");
        }
        self.policy = policy;
        self.recompute_wait_budgets();
        self.apply_idle_floors();
        // A new plan may make stranded work dispatchable again (e.g. it
        // moves a kernel off a failed platform).
        self.redispatch_stranded();
    }

    /// Enqueue request arrivals at the given absolute times (ms). Times
    /// before the current simulation time are clamped to "now". When the
    /// lifecycle config sets a deadline factor, each request also gets an
    /// absolute deadline (`arrival + factor × bound`) at which all its
    /// outstanding work is cancelled.
    ///
    /// # Panics
    /// Panics with "a simulator admits at most 2^32 requests" once this
    /// simulator has admitted 2^32 requests in all: request indices are
    /// `u32`-wide.
    pub fn enqueue_arrivals(&mut self, times: &[f64]) {
        for &t in times {
            self.enqueue_one(t, 1.0);
        }
    }

    /// [`enqueue_arrivals`](Self::enqueue_arrivals) with per-request
    /// relative input sizes (`sizes[i]` pairs with `times[i]`; 1.0 =
    /// nominal). Execution and energy scale per
    /// [`poly_device::size_scale`]; the deadline stays the QoS bound —
    /// the SLO does not grow with the input.
    ///
    /// # Panics
    /// Panics unless `times` and `sizes` have equal length, and, as
    /// [`enqueue_arrivals`](Self::enqueue_arrivals), past 2^32 admitted
    /// requests.
    pub fn enqueue_arrivals_sized(&mut self, times: &[f64], sizes: &[f64]) {
        assert_eq!(times.len(), sizes.len(), "one size per arrival");
        for (&t, &size) in times.iter().zip(sizes) {
            self.enqueue_one(t, size);
        }
    }

    fn enqueue_one(&mut self, t: f64, size: f64) {
        let arrival_ms = t.max(self.now);
        let req = self.requests.push_sized(arrival_ms, size);
        let deadline_ms = self.requests.deadline_ms(req);
        self.counters.admitted += 1;
        self.events
            .push(arrival_ms, EventKind::Arrival { req: ix(req) });
        if deadline_ms.is_finite() {
            self.events
                .push(deadline_ms, EventKind::Deadline { req: ix(req) });
        }
        self.obs_at(arrival_ms, || ObsEvent::ReqEnqueue { req, deadline_ms });
    }

    /// Schedule the dispatch of `req`'s `kernel` stage at `t`: the one
    /// place a [`EventKind::Dispatch`] is built.
    fn push_dispatch(&mut self, t: f64, req: usize, kernel: KernelId) {
        self.events.push(
            t,
            EventKind::Dispatch {
                req: ix(req),
                kernel: ix(kernel.0),
            },
        );
    }

    /// Process all events up to (and including) time `t`.
    pub fn advance_to(&mut self, t: f64) {
        self.run_until(t);
        self.now = self.now.max(t);
    }

    /// Run until the event queue drains (all enqueued requests complete),
    /// then return the absolute completion time.
    pub fn drain(&mut self) -> f64 {
        self.run_until(f64::INFINITY);
        self.now
    }

    /// The event loop: pop events in `(time, seq)` order and handle each,
    /// while the next one is due by `until`.
    fn run_until(&mut self, until: f64) {
        while let Some((et, _, kind)) = self.events.pop_due(until) {
            if et < self.now {
                self.counters.clock_regressions += 1;
            }
            self.now = self.now.max(et);
            self.handle(kind);
        }
    }

    fn handle(&mut self, kind: EventKind) {
        match kind {
            EventKind::Arrival { req } => {
                let req = req as usize;
                // A request cancelled before its arrival event fired (node
                // drain between enqueue and arrival) never enters.
                if self.requests.is_settled(req) {
                    return;
                }
                self.arrived += 1;
                self.batching.note_arrival(self.now);
                // With nothing else due by now, the sources' `Dispatch`
                // events would be the next pops, in push order, and
                // whatever a dispatch pushes would pop after them: run
                // them in place instead, in that order.
                let inline = self.events.peek_time().is_none_or(|t| t > self.now);
                for i in 0..self.sources.len() {
                    if inline {
                        self.dispatch(req, self.sources[i]);
                    } else {
                        self.push_dispatch(self.now, req, self.sources[i]);
                    }
                }
            }
            EventKind::Dispatch { req, kernel } => {
                self.dispatch(req as usize, KernelId(kernel as usize));
            }
            EventKind::DeviceFree { dev } => self.device_free(dev as usize),
            EventKind::LaunchDone { dev, launch, frees } => {
                self.launch_done(dev as usize, launch, frees);
            }
            EventKind::Fault { idx } => self.apply_fault(idx as usize),
            EventKind::Deadline { req } => {
                let req = req as usize;
                if !self.requests.is_settled(req) {
                    self.abort_request(req, Outcome::TimedOut);
                }
            }
            EventKind::HedgeFire {
                req,
                kernel,
                attempt,
            } => self.hedge_fire(req as usize, KernelId(kernel as usize), attempt),
        }
    }

    /// Total queued work items across devices, plus work stranded by
    /// failures (the monitor's queue-length signal).
    #[must_use]
    pub fn queued(&self) -> usize {
        self.devices.iter().map(|d| d.queue.len()).sum::<usize>() + self.stranded.len()
    }

    /// Milliseconds of deadline budget request `req` has left (∞ when
    /// deadlines are disabled, 0 when the deadline has passed).
    ///
    /// # Panics
    /// Panics if `req` was never enqueued, or if it settled before the
    /// last [`reset_accounting`](Self::reset_accounting) (settled request
    /// state is compacted away at measurement boundaries).
    #[must_use]
    pub fn remaining_budget_ms(&self, req: usize) -> f64 {
        (self.requests.deadline_ms(req) - self.now).max(0.0)
    }
}

#[cfg(test)]
mod testkit {
    //! Shared fixtures of the engine's unit tests: one- and two-kernel
    //! graphs and hand-built GPU/FPGA implementations.

    use super::{SimConfig, Simulator};
    use crate::{KernelImpl, Policy};
    use poly_device::DeviceKind;
    use poly_ir::{
        KernelBuilder, KernelGraph, KernelGraphBuilder, KernelId, OpFunc, PatternKind, Shape,
    };
    use poly_sched::Pool;

    /// A single-kernel application `a`.
    pub fn graph1() -> KernelGraph {
        let k = KernelBuilder::new("a")
            .pattern("m", PatternKind::Map, Shape::d1(1024), &[OpFunc::Mac])
            .build()
            .unwrap();
        KernelGraphBuilder::new("app").kernel(k).build().unwrap()
    }

    /// A two-kernel chain `a → b` with a 1 MiB edge.
    pub fn graph2() -> KernelGraph {
        let k = KernelBuilder::new("a")
            .pattern("m", PatternKind::Map, Shape::d1(1024), &[OpFunc::Mac])
            .build()
            .unwrap();
        KernelGraphBuilder::new("app")
            .kernel(k.clone())
            .kernel(k.with_name("b"))
            .edge("a", "b", 1 << 20)
            .build()
            .unwrap()
    }

    pub fn gpu_impl(kernel: usize, latency: f64, batch: u32) -> KernelImpl {
        KernelImpl {
            kernel: KernelId(kernel),
            kind: DeviceKind::Gpu,
            impl_index: 0,
            latency_ms: latency,
            latency_single_ms: latency / f64::from(batch.max(1)) * 1.5,
            service_ms: latency / f64::from(batch.max(1)),
            batch,
            active_power_w: 200.0,
            idle_power_w: 40.0,
        }
    }

    pub fn fpga_impl(kernel: usize, latency: f64) -> KernelImpl {
        KernelImpl {
            kernel: KernelId(kernel),
            kind: DeviceKind::Fpga,
            impl_index: 0,
            latency_ms: latency,
            latency_single_ms: latency,
            service_ms: latency * 0.9,
            batch: 1,
            active_power_w: 25.0,
            idle_power_w: 5.0,
        }
    }

    /// The two-kernel chain on `pool` under `policy`, default config.
    pub fn sim(policy: Vec<KernelImpl>, pool: Pool) -> Simulator {
        Simulator::new(
            graph2(),
            &pool,
            Policy::from_impls(policy),
            SimConfig::default(),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::testkit::*;
    use super::*;
    use crate::KernelImpl;

    #[test]
    fn single_request_latency_is_sum_plus_transfer() {
        let mut s = sim(
            vec![gpu_impl(0, 10.0, 1), fpga_impl(1, 20.0)],
            Pool::heterogeneous(1, 1),
        );
        s.enqueue_arrivals(&[0.0]);
        s.drain();
        let r = s.finish(1000.0);
        assert_eq!(r.completed, 1);
        // 10 (a on GPU) + pcie(1 MiB) + 20 (b; bitstream preloaded).
        let expect = 10.0 + PcieLink::gen3_x16().transfer_ms(1 << 20) + 20.0;
        assert!(
            (r.latency.max() - expect).abs() < 1e-6,
            "{} vs {expect}",
            r.latency.max()
        );
    }

    #[test]
    fn same_platform_pays_no_transfer_and_no_second_reconfig() {
        let mut s = sim(
            vec![fpga_impl(0, 10.0), fpga_impl(1, 20.0)],
            Pool::heterogeneous(0, 2),
        );
        s.enqueue_arrivals(&[0.0, 1000.0]);
        s.drain();
        let r = s.finish(5000.0);
        assert_eq!(r.completed, 2);
        // Second request reuses the loaded bitstreams: latency = 10 + 20
        // with no reconfig (each device keeps its kernel).
        let second = r.latency.quantile(0.1).min(r.latency.max());
        assert!(second <= r.latency.max());
        assert!((r.latency.quantile(0.01) - 30.0).abs() < 1.0 || r.latency.max() > 30.0);
        let total_reconfigs: usize = r.devices.iter().map(|d| d.reconfigs).sum();
        assert_eq!(total_reconfigs, 0, "no bitstream swap needed");
    }

    #[test]
    fn queueing_grows_tail_latency() {
        // Single-kernel app on one FPGA (service 9 ms): arrivals every
        // 8 ms overload the device, arrivals every 25 ms do not.
        let g = graph1();
        let lat_at = |interval_ms: f64| {
            let mut s = Simulator::new(
                g.clone(),
                &Pool::heterogeneous(0, 1),
                Policy::from_impls(vec![fpga_impl(0, 10.0)]),
                SimConfig::default(),
            );
            let arrivals: Vec<f64> = (0..300).map(|i| i as f64 * interval_ms).collect();
            s.enqueue_arrivals(&arrivals);
            s.drain();
            s.finish(100_000.0).latency.p99()
        };
        assert!(lat_at(8.0) > lat_at(25.0) * 2.0);
    }

    #[test]
    fn policy_swap_changes_future_executions() {
        let mut s = sim(
            vec![fpga_impl(0, 10.0), fpga_impl(1, 10.0)],
            Pool::heterogeneous(1, 2),
        );
        s.enqueue_arrivals(&[0.0]);
        s.advance_to(2_000.0);
        // Swap kernel 0 to the GPU for future requests.
        s.set_policy(Policy::from_impls(vec![
            gpu_impl(0, 12.0, 2),
            fpga_impl(1, 10.0),
        ]));
        s.enqueue_arrivals(&[2_000.0]);
        s.drain();
        let r = s.finish(10_000.0);
        assert_eq!(r.completed, 2);
        let gpu = r
            .devices
            .iter()
            .find(|d| d.kind == DeviceKind::Gpu)
            .unwrap();
        assert!(gpu.utilization > 0.0, "GPU executed after the swap");
    }

    #[test]
    fn timeline_records_every_execution() {
        let mut s = sim(
            vec![fpga_impl(0, 10.0), fpga_impl(1, 10.0)],
            Pool::heterogeneous(0, 2),
        );
        let rec = poly_obs::MemRecorder::new();
        s.set_recorder(Some(Box::new(rec.clone())));
        s.enqueue_arrivals(&[0.0, 1.0]);
        s.drain();
        let execs = |rec: &poly_obs::MemRecorder| -> Vec<(f64, usize, f64, f64)> {
            rec.samples()
                .into_iter()
                .filter_map(|smp| match smp.event {
                    ObsEvent::ExecStart {
                        batch,
                        reconfig_ms,
                        exec_ms,
                        ..
                    } => Some((smp.t_ms, batch, reconfig_ms, exec_ms)),
                    _ => None,
                })
                .collect()
        };
        // 2 requests × 2 kernels = 4 executions (batch = 1 each).
        let tl = execs(&rec);
        assert_eq!(tl.len(), 4);
        for &(start_ms, batch, reconfig_ms, exec_ms) in &tl {
            assert!(start_ms + reconfig_ms + exec_ms > start_ms);
            assert_eq!(batch, 1);
            assert!(reconfig_ms >= 0.0);
        }
        // Recording can be turned off again.
        s.set_recorder(None);
        s.enqueue_arrivals(&[100.0]);
        s.drain();
        assert_eq!(execs(&rec).len(), 4);
    }

    /// A plan that targets a platform the pool lacks is refused when the
    /// simulator is built, not when a request first reaches the kernel.
    #[test]
    fn missing_platform_is_a_construction_error() {
        let policy = Policy::from_impls(vec![gpu_impl(0, 10.0, 1), fpga_impl(1, 10.0)]);
        let err = Simulator::try_new(
            graph2(),
            &Pool::heterogeneous(0, 1), // no GPU!
            policy,
            SimConfig::default(),
        )
        .expect_err("the GPU stage has nowhere to run");
        assert_eq!(
            err,
            SimError::MissingPlatform {
                kernel: KernelId(0),
                kind: DeviceKind::Gpu,
            }
        );
        assert!(err.to_string().starts_with("no device of kind"), "{err}");
    }

    /// A NaN jitter fraction is refused when the simulator is built, not
    /// by the jitter draw of the first backoff retry.
    #[test]
    fn bad_lifecycle_is_a_construction_error() {
        let config = SimConfig {
            lifecycle: LifecycleConfig {
                retry: crate::RetryPolicy::Backoff(crate::BackoffPolicy {
                    jitter_frac: f64::NAN,
                    ..crate::BackoffPolicy::default()
                }),
                ..LifecycleConfig::default()
            },
            ..SimConfig::default()
        };
        let policy = Policy::from_impls(vec![fpga_impl(0, 10.0), fpga_impl(1, 10.0)]);
        let err = Simulator::try_new(graph2(), &Pool::heterogeneous(0, 1), policy, config)
            .expect_err("a NaN jitter fraction cannot run");
        assert!(
            matches!(err, SimError::Lifecycle { field: "backoff.jitter_frac", value, .. } if value.is_nan()),
            "{err:?}"
        );
        assert!(err.to_string().contains("backoff.jitter_frac"), "{err}");
    }

    /// A policy shorter than the graph is refused with both sizes, and
    /// `new` panics with the same message.
    #[test]
    fn short_policy_is_a_construction_error() {
        let build = || {
            Simulator::try_new(
                graph2(),
                &Pool::heterogeneous(0, 1),
                Policy::from_impls(vec![fpga_impl(0, 10.0)]),
                SimConfig::default(),
            )
        };
        let err = build().expect_err("kernel b has no implementation");
        assert_eq!(
            err,
            SimError::PolicyLength {
                policy: 1,
                kernels: 2
            }
        );
        let panic = std::panic::catch_unwind(|| {
            Simulator::new(
                graph2(),
                &Pool::heterogeneous(0, 1),
                Policy::from_impls(vec![fpga_impl(0, 10.0)]),
                SimConfig::default(),
            )
        })
        .expect_err("new panics with the same error");
        let msg = panic
            .downcast_ref::<String>()
            .expect("a formatted panic message");
        assert_eq!(*msg, err.to_string());
    }

    /// A policy swap runs the construction check too.
    #[test]
    #[should_panic(expected = "no device of kind gpu in pool for kernel")]
    fn set_policy_refuses_a_missing_platform() {
        let mut s = sim(
            vec![fpga_impl(0, 10.0), fpga_impl(1, 10.0)],
            Pool::heterogeneous(0, 2),
        );
        let policy: Vec<KernelImpl> = vec![gpu_impl(0, 10.0, 1), fpga_impl(1, 10.0)];
        s.set_policy(Policy::from_impls(policy));
    }
}
