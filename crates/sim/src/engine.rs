use crate::arena::{Outcome, ReqArena};
use crate::audit::AuditReport;
use crate::counters::Counters;
use crate::device::{ms_to_ns, ns_to_ms, DeviceState, DeviceStats, InflightItem, WorkItem};
use crate::equeue::EventQueue;
use crate::fault::{FaultEvent, FaultKind, FaultPlan};
use crate::lifecycle::{LifecycleConfig, RetryPolicy};
use crate::metrics::RetryStats;
use crate::{KernelImpl, LatencyStats, Policy};
use poly_device::{DeviceKind, PcieLink};
use poly_ir::{KernelGraph, KernelId};
use poly_obs::{Event as ObsEvent, Recorder};
use poly_sched::Pool;
use std::collections::VecDeque;
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

/// Cross-kernel pipelined streaming (MKPipe-style): a producer kernel's
/// output is split into `tiles` chunks flowing to each DAG successor
/// through a bounded channel of `depth` credits, so the successor starts
/// on the first tile rather than the last. The producer stalls when the
/// consumer cannot drain credits fast enough; `depth == 0` disables the
/// whole mechanism and reproduces barrier semantics event-for-event.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PipelineConfig {
    /// Channel depth in tile credits; `0` = barrier semantics (default).
    pub depth: u32,
    /// Tiles each inter-kernel payload is split into.
    pub tiles: u32,
}

impl Default for PipelineConfig {
    fn default() -> Self {
        Self {
            depth: 0,
            tiles: poly_ir::DEFAULT_TILES,
        }
    }
}

impl PipelineConfig {
    /// Pipelined streaming with `depth` credits at the default tiling.
    #[must_use]
    pub fn with_depth(depth: u32) -> Self {
        Self {
            depth,
            ..Self::default()
        }
    }

    /// Whether streaming is active (a zero depth or a single tile is the
    /// barrier degenerate case).
    #[must_use]
    pub fn enabled(&self) -> bool {
        self.depth > 0 && self.tiles > 1
    }
}

/// Configuration of the hybrid static/dynamic dispatch layer: at
/// dispatch time each request picks among the interval plan's top-k
/// implementations by its own input size and the current per-device
/// queue estimates.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DynamicDispatch {
    /// Work-stealing escape hatch: a device going idle with an empty
    /// queue pulls the newest item from the most backlogged queue it can
    /// serve without a bitstream swap.
    pub steal: bool,
}

impl Default for DynamicDispatch {
    fn default() -> Self {
        Self { steal: true }
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
enum EventKind {
    Arrival {
        req: usize,
    },
    Dispatch {
        req: usize,
        kernel: KernelId,
    },
    DeviceFree {
        dev: usize,
    },
    /// `attempt` invalidates completions of executions killed by a device
    /// fail-stop: a stale event whose attempt no longer matches the
    /// request's counter is ignored. `hedge` marks completions of hedge
    /// copies (win attribution only).
    Complete {
        req: usize,
        kernel: KernelId,
        attempt: u32,
        hedge: bool,
    },
    /// Scripted fault (index into `Simulator::faults`).
    Fault {
        idx: usize,
    },
    /// The request's deadline: if it is still incomplete, every copy of
    /// its work is cancelled and it is marked timed out.
    Deadline {
        req: usize,
    },
    /// Hedge check scheduled at dispatch + hedge delay: if the stage is
    /// still outstanding under the same attempt, fire a second copy on
    /// another device.
    HedgeFire {
        req: usize,
        kernel: KernelId,
        attempt: u32,
    },
}

/// Per-kernel execution breakdown over a simulation window.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct KernelStats {
    /// Kernel executions started (batches, not requests).
    pub executions: usize,
    /// Requests served across those executions.
    pub requests: usize,
    /// Total queueing delay observed by requests before their kernel
    /// execution started, in milliseconds.
    pub queue_wait_ms: f64,
    /// Total device-occupancy time of this kernel's executions, in
    /// milliseconds.
    pub busy_ms: f64,
}

impl KernelStats {
    /// Mean batch size of the kernel's executions.
    #[must_use]
    pub fn mean_batch(&self) -> f64 {
        if self.executions == 0 {
            0.0
        } else {
            self.requests as f64 / self.executions as f64
        }
    }

    /// Mean per-request queueing delay in milliseconds.
    #[must_use]
    pub fn mean_wait_ms(&self) -> f64 {
        if self.requests == 0 {
            0.0
        } else {
            self.queue_wait_ms / self.requests as f64
        }
    }
}

/// Summary of one accounting window: the whole simulation, or the
/// segment since the last
/// [`reset_accounting`](Simulator::reset_accounting). Lifetime counts
/// live in [`Simulator::counters`].
#[derive(Debug, Clone, PartialEq)]
pub struct SimReport {
    /// Simulated duration in milliseconds.
    pub duration_ms: f64,
    /// Requests that arrived.
    pub arrived: usize,
    /// Requests that completed.
    pub completed: usize,
    /// Latency distribution of completed requests.
    pub latency: LatencyStats,
    /// Fraction of completed requests exceeding the QoS bound.
    pub qos_violation_ratio: f64,
    /// Mean node power over the duration (idle + active, all devices), W.
    pub avg_power_w: f64,
    /// Total energy over the duration, in joules.
    pub energy_j: f64,
    /// Completed requests per second.
    pub throughput_rps: f64,
    /// Per-device statistics.
    pub devices: Vec<DeviceStats>,
    /// Per-kernel execution breakdown, indexed by kernel id.
    pub kernels: Vec<KernelStats>,
}

impl std::fmt::Display for SimReport {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "{}/{} requests in {:.1} s: p50 {:.1} ms, p99 {:.1} ms, {:.1} RPS, {:.1} W ({:.2}% over bound)",
            self.completed,
            self.arrived,
            self.duration_ms / 1000.0,
            self.latency.p50(),
            self.latency.p99(),
            self.throughput_rps,
            self.avg_power_w,
            self.qos_violation_ratio * 100.0
        )
    }
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
    policy: Policy,
    config: SimConfig,
    devices: Vec<DeviceState>,
    /// Timer-wheel event queue; stamps each event with a monotone
    /// sequence number and pops in exact `(time, seq)` order.
    events: EventQueue<EventKind>,
    /// Struct-of-arrays request state with global, never-reused indices
    /// (settled prefixes compact away at accounting resets).
    requests: ReqArena,
    now: f64,
    arrived: usize,
    completed: usize,
    stats_since: f64,
    /// Per-kernel batch-wait budget (ms after request arrival by which the
    /// kernel must start to keep the QoS bound reachable); 0 disables
    /// waiting. Recomputed on policy changes.
    wait_budget: Vec<f64>,
    /// EWMA arrival rate (requests per ms), for adaptive batching.
    arrival_rate: f64,
    last_arrival_ms: f64,
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
    /// Rolling per-kernel stage-latency windows feeding the hedge-delay
    /// quantile (filled only when hedging is enabled).
    hedge_window: Vec<VecDeque<f64>>,
    // --- reusable scratch buffers (hot-path allocation elimination) --------
    /// Batch under formation in `try_start`.
    batch_scratch: Vec<WorkItem>,
    /// Successor edges of the completing kernel in `complete`.
    succ_scratch: Vec<(KernelId, u64)>,
    /// Devices touched by a cancellation sweep.
    touched_scratch: Vec<usize>,
    /// Hedge-window copy for quantile selection.
    hedge_scratch: Vec<f64>,
    /// Per-kernel remainder table for `downstream_margin`.
    margin_scratch: Vec<f64>,
    /// Per-device backlog table for `downstream_margin`.
    load_scratch: Vec<f64>,
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

impl Simulator {
    /// Create a simulator for `graph` on the devices of `pool`, executing
    /// per `policy`.
    #[must_use]
    pub fn new(graph: KernelGraph, pool: &Pool, policy: Policy, config: SimConfig) -> Self {
        let n_kernels = graph.len();
        let devices = pool
            .kinds()
            .iter()
            .map(|&kind| match kind {
                DeviceKind::Gpu => DeviceState::new(kind, 0.0, config.gpu_idle_w),
                DeviceKind::Fpga => {
                    DeviceState::new(kind, config.fpga_reconfig_ms, config.fpga_idle_w)
                }
            })
            .collect();
        let pred_template: Vec<u16> = (0..n_kernels)
            .map(|i| {
                u16::try_from(graph.predecessors(KernelId(i)).count())
                    .expect("predecessor count fits u16")
            })
            .collect();
        let mut sim = Self {
            graph,
            policy,
            config,
            devices,
            events: EventQueue::new(),
            requests: ReqArena::new(pred_template),
            now: 0.0,
            arrived: 0,
            completed: 0,
            stats_since: 0.0,
            wait_budget: Vec::new(),
            arrival_rate: 0.0,
            last_arrival_ms: -1.0,
            latencies: Arc::new(Vec::new()),
            lat_scratch: Vec::new(),
            kernel_stats: vec![KernelStats::default(); n_kernels],
            faults: Vec::new(),
            stranded: Vec::new(),
            hedge_window: vec![VecDeque::new(); n_kernels],
            batch_scratch: Vec::new(),
            succ_scratch: Vec::new(),
            touched_scratch: Vec::new(),
            hedge_scratch: Vec::new(),
            margin_scratch: Vec::new(),
            load_scratch: Vec::new(),
            counters: Counters::default(),
            booked_busy_mj: 0.0,
            refunded_busy_mj: 0.0,
            recorder: None,
        };
        sim.preload_bitstreams();
        sim.recompute_wait_budgets();
        sim.apply_idle_floors();
        sim
    }

    /// Park platforms the current policy does not use: a GPU with no
    /// assigned kernel drops to its deep-idle (low-DVFS, memory parked)
    /// power — the paper's runtime "reduc[es] the GPU operating frequency"
    /// at low load (Section VI-C). [`GPU_PARKED_FRACTION`] of board idle.
    fn apply_idle_floors(&mut self) {
        let uses_gpu = self
            .policy
            .impls()
            .iter()
            .any(|i| i.kind == DeviceKind::Gpu);
        for d in &mut self.devices {
            if d.kind == DeviceKind::Gpu && d.healthy {
                d.idle_power_w = if uses_gpu {
                    self.config.gpu_idle_w
                } else {
                    self.config.gpu_idle_w * GPU_PARKED_FRACTION
                };
            }
        }
    }

    /// Slack-aware batch budgets: a kernel's batch may be held open until
    /// `request arrival + budget`, where the budget is what remains of the
    /// QoS bound after the downstream critical path at full-batch
    /// latencies. FPGAs and unbatched implementations never wait.
    fn recompute_wait_budgets(&mut self) {
        let order = self.graph.topological_order();
        let mut remaining = vec![0.0_f64; self.graph.len()];
        for &id in order.iter().rev() {
            let tail = self
                .graph
                .successors(id)
                .map(|e| {
                    let differs = self.policy.of(e.from).kind != self.policy.of(e.to).kind;
                    let t = if differs {
                        self.config.pcie.transfer_ms(e.bytes)
                    } else {
                        0.0
                    };
                    t + remaining[e.to.0]
                })
                .fold(0.0_f64, f64::max);
            remaining[id.0] = self.policy.of(id).latency_ms + tail;
        }
        self.wait_budget = (0..self.graph.len())
            .map(|i| {
                let imp = self.policy.of(KernelId(i));
                if imp.kind == DeviceKind::Gpu && imp.batch > 1 {
                    (self.config.latency_bound_ms * 0.6 - remaining[i]).max(0.0)
                } else {
                    0.0
                }
            })
            .collect();
    }

    /// Downstream margin for one request of relative input `size` about
    /// to dispatch `kernel`: the critical path from `kernel` (exclusive)
    /// to the sinks, each node priced at the best implementation the
    /// dispatcher could *actually* use there — the node's primary, or a
    /// top-k FPGA alternate whose bitstream is resident right now (an
    /// open express lane). Each candidate costs its size-scaled
    /// single-request latency plus the current backlog of the least
    /// loaded device it may run on. Pricing only reachable options is
    /// what keeps the margin honest: a nominally fast GPU alternate the
    /// dispatcher will never take (it would land on the plan's scarce
    /// bottleneck device) must not make an at-risk request look safe,
    /// and an unloaded lane costs infinity until someone opens it.
    fn downstream_margin(&mut self, kernel: KernelId, size: f64) -> f64 {
        let sg = poly_device::size_scale(DeviceKind::Gpu, size);
        let sf = poly_device::size_scale(DeviceKind::Fpga, size);
        // Per-device backlog right now: busy tail plus queued work, derated.
        let now = self.now;
        self.counters.work.margin.events += 1;
        let mut load = std::mem::take(&mut self.load_scratch);
        load.clear();
        load.extend(
            self.devices
                .iter()
                .map(|d| (d.busy_until.max(now) - now) + ns_to_ms(d.queue.backlog_ns()) * d.derate),
        );
        let mut rem = std::mem::take(&mut self.margin_scratch);
        rem.clear();
        rem.resize(self.graph.len(), 0.0);
        for &id in self.graph.topological_order().iter().rev() {
            let mut best = 0.0_f64;
            for e in self.graph.successors(id) {
                let prim = self.policy.of(e.to);
                let mut node = f64::INFINITY;
                for imp in self.policy.alts_of(e.to) {
                    let is_primary = imp.kind == prim.kind && imp.impl_index == prim.impl_index;
                    // Mirror the dispatch rule exactly: a downstream node
                    // runs its primary or escapes through a resident FPGA
                    // lane; it never escapes to the GPU.
                    if !is_primary && imp.kind != DeviceKind::Fpga {
                        continue;
                    }
                    // Congestion of the devices this implementation may
                    // actually run on: any healthy GPU, or the healthy
                    // FPGAs holding exactly this bitstream (infinite if
                    // none — an unloaded lane is not an option).
                    let mut cong = f64::INFINITY;
                    for (i, d) in self.devices.iter().enumerate() {
                        if !d.healthy {
                            continue;
                        }
                        let ok = match imp.kind {
                            DeviceKind::Gpu => d.kind == DeviceKind::Gpu,
                            DeviceKind::Fpga => d.loaded == Some((e.to, imp.impl_index)),
                        };
                        if ok {
                            cong = cong.min(load[i]);
                        }
                    }
                    let scale = match imp.kind {
                        DeviceKind::Gpu => sg,
                        DeviceKind::Fpga => sf,
                    };
                    node = node.min(imp.latency_single_ms * scale + cong);
                }
                best = best.max(node + rem[e.to.0]);
            }
            rem[id.0] = best;
        }
        let margin = rem[kernel.0];
        self.margin_scratch = rem;
        self.load_scratch = load;
        margin
    }

    /// Configure FPGA devices with the policy's bitstreams at time zero,
    /// mirroring how a leaf node pre-provisions accelerators when it
    /// adopts a plan. Devices are split among the policy's FPGA kernels
    /// **proportionally to their service demand** (largest remainder, at
    /// least one each while devices last) — the same split the analytic
    /// capacity model assumes. Later policy changes pay reconfiguration.
    fn preload_bitstreams(&mut self) {
        let fpga_kernels: Vec<(poly_ir::KernelId, usize, f64, f64)> = self
            .policy
            .impls()
            .iter()
            .filter(|i| i.kind == DeviceKind::Fpga)
            .map(|i| (i.kernel, i.impl_index, i.idle_power_w, i.service_ms))
            .collect();
        if fpga_kernels.is_empty() {
            return;
        }
        let fpga_devs: Vec<usize> = self
            .devices
            .iter()
            .enumerate()
            .filter(|(_, d)| d.kind == DeviceKind::Fpga)
            .map(|(i, _)| i)
            .collect();
        let n = fpga_devs.len() as f64;
        let total: f64 = fpga_kernels.iter().map(|k| k.3).sum();
        let mut shares: Vec<f64> = fpga_kernels
            .iter()
            .map(|k| {
                if total > 0.0 {
                    (k.3 / total * n).floor().max(1.0)
                } else {
                    1.0
                }
            })
            .collect();
        // Trim if minimums overshoot, then hand out spares to the most
        // loaded kernels.
        while shares.iter().sum::<f64>() > n && shares.iter().any(|&s| s > 1.0) {
            let (idx, _) = shares
                .iter()
                .enumerate()
                .filter(|(_, &s)| s > 1.0)
                .map(|(j, &s)| (j, fpga_kernels[j].3 / s))
                .min_by(|a, b| a.1.total_cmp(&b.1))
                .expect("some share above one");
            shares[idx] -= 1.0;
        }
        let mut spare = n - shares.iter().sum::<f64>();
        while spare >= 1.0 {
            let (idx, _) = fpga_kernels
                .iter()
                .enumerate()
                .map(|(j, k)| (j, k.3 / shares[j]))
                .max_by(|a, b| a.1.total_cmp(&b.1))
                .expect("non-empty");
            shares[idx] += 1.0;
            spare -= 1.0;
        }
        let mut cursor = fpga_devs.into_iter();
        for ((kernel, idx, idle, _), share) in fpga_kernels.iter().zip(&shares) {
            for _ in 0..(*share as usize) {
                let Some(dev) = cursor.next() else { return };
                self.devices[dev].loaded = Some((*kernel, *idx));
                self.devices[dev].idle_power_w = *idle;
            }
        }
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

    /// Record `event` at sim time `t_ms`.
    fn obs_at(&mut self, t_ms: f64, event: ObsEvent) {
        if let Some(r) = &mut self.recorder {
            r.record(t_ms, event);
        }
    }

    /// Record `event` at the current sim time.
    fn obs(&mut self, event: ObsEvent) {
        let now = self.now;
        self.obs_at(now, event);
    }

    /// Replace the execution policy. Running executions finish under the
    /// old implementations; future dispatches use the new ones (FPGAs pay
    /// reconfiguration when the loaded bitstream no longer matches).
    pub fn set_policy(&mut self, policy: Policy) {
        assert_eq!(
            policy.len(),
            self.graph.len(),
            "policy must cover every kernel"
        );
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
        let factor = self.config.lifecycle.deadline_factor;
        let arrival_ms = t.max(self.now);
        let deadline_ms = factor.map_or(f64::INFINITY, |f| {
            arrival_ms + f * self.config.latency_bound_ms
        });
        let req = self.requests.push_sized(arrival_ms, deadline_ms, size);
        self.counters.admitted += 1;
        self.push(arrival_ms, EventKind::Arrival { req });
        if deadline_ms.is_finite() {
            self.push(deadline_ms, EventKind::Deadline { req });
        }
        if self.recording() {
            self.obs_at(arrival_ms, ObsEvent::ReqEnqueue { req, deadline_ms });
        }
    }

    fn push(&mut self, t: f64, kind: EventKind) {
        self.events.push(t, kind);
    }

    /// Process all events up to (and including) time `t`.
    pub fn advance_to(&mut self, t: f64) {
        while let Some(et) = self.events.peek_time() {
            if et > t {
                break;
            }
            let (et, _, kind) = self.events.pop().expect("peeked");
            if et < self.now - 1e-9 {
                self.counters.clock_regressions += 1;
            }
            self.now = self.now.max(et);
            self.handle(kind);
        }
        self.now = self.now.max(t);
    }

    /// Run until the event queue drains (all enqueued requests complete),
    /// then return the absolute completion time.
    pub fn drain(&mut self) -> f64 {
        while let Some((et, _, kind)) = self.events.pop() {
            if et < self.now - 1e-9 {
                self.counters.clock_regressions += 1;
            }
            self.now = self.now.max(et);
            self.handle(kind);
        }
        self.now
    }

    fn handle(&mut self, kind: EventKind) {
        match kind {
            EventKind::Arrival { req } => {
                // A request cancelled before its arrival event fired (node
                // drain between enqueue and arrival) never enters.
                if self.requests.is_settled(req) {
                    return;
                }
                self.arrived += 1;
                if self.last_arrival_ms >= 0.0 {
                    let interval = (self.now - self.last_arrival_ms).max(0.01);
                    self.arrival_rate = 0.9 * self.arrival_rate + 0.1 / interval;
                }
                self.last_arrival_ms = self.now;
                for source in self.graph.sources() {
                    self.push(
                        self.now,
                        EventKind::Dispatch {
                            req,
                            kernel: source,
                        },
                    );
                }
            }
            EventKind::Dispatch { req, kernel } => {
                // The request is already settled (hedge twin finished
                // the stage, or a terminal transition happened while
                // this dispatch was in flight).
                if self.requests.is_settled(req) || self.requests.done(req, kernel.0) {
                    return;
                }
                // Doomed work is cancelled at dispatch instead of
                // queued: a stage with no remaining budget cannot
                // produce an in-bound completion.
                if self.now >= self.requests.deadline_ms(req) {
                    self.abort_request(req, Outcome::TimedOut);
                    return;
                }
                let size = self.requests.size(req);
                // Snapshot the hedge delay before try_start records this
                // stage's own projected latency into the window — a slow
                // primary must not inflate its own hedge delay.
                let hedge_delay = self.hedge_delay_ms(kernel);
                match self.choose_dispatch(req, kernel, None) {
                    Some((dev, alt, est_ms)) => {
                        let item = WorkItem {
                            req,
                            kernel,
                            ready_ms: self.now,
                            est_ns: ms_to_ns(est_ms),
                            alt,
                            hedge: false,
                        };
                        self.devices[dev].queue.push_back(item);
                        if self.recording() {
                            let attempt = self.requests.attempt(req, kernel.0);
                            self.obs(ObsEvent::StageDispatch {
                                req,
                                kernel: kernel.0,
                                device: dev,
                                attempt,
                                hedge: false,
                            });
                            if alt != 0 {
                                let imp = self.impl_of(kernel, alt);
                                self.obs(ObsEvent::DynamicChoice {
                                    req,
                                    kernel: kernel.0,
                                    device: dev,
                                    alt,
                                    impl_index: imp.impl_index,
                                });
                            }
                        }
                        self.try_start(dev);
                        if let Some(delay) = hedge_delay {
                            self.maybe_schedule_hedge(req, kernel, delay);
                        }
                    }
                    // Every device of the required kind is down: park the
                    // work until a re-plan or a recovery.
                    None => {
                        let imp = *self.policy.of(kernel);
                        let est_ms = imp.service_ms * poly_device::size_scale(imp.kind, size);
                        self.stranded.push(WorkItem {
                            req,
                            kernel,
                            ready_ms: self.now,
                            est_ns: ms_to_ns(est_ms),
                            alt: 0,
                            hedge: false,
                        });
                        if self.recording() {
                            self.obs(ObsEvent::StageStranded {
                                req,
                                kernel: kernel.0,
                            });
                        }
                    }
                }
            }
            EventKind::DeviceFree { dev } => {
                if self.devices[dev].healthy && self.devices[dev].busy_until <= self.now + 1e-12 {
                    self.devices[dev].executing = false;
                    self.try_start(dev);
                    // Still idle after draining its own queue: poach from
                    // the deepest compatible backlog (dynamic mode only).
                    if !self.devices[dev].executing {
                        self.try_steal(dev);
                    }
                }
            }
            EventKind::Complete {
                req,
                kernel,
                attempt,
                hedge,
            } => self.complete(req, kernel, attempt, hedge),
            EventKind::Fault { idx } => self.apply_fault(idx),
            EventKind::Deadline { req } => {
                if !self.requests.is_settled(req) {
                    self.abort_request(req, Outcome::TimedOut);
                }
            }
            EventKind::HedgeFire {
                req,
                kernel,
                attempt,
            } => self.hedge_fire(req, kernel, attempt),
        }
    }

    /// Schedule a hedge check for the stage just dispatched. The caller
    /// sampled `delay` from the latency window *before* the stage
    /// started, so the quantile reflects its peers, not itself.
    fn maybe_schedule_hedge(&mut self, req: usize, kernel: KernelId, delay: f64) {
        if self.requests.hedged(req, kernel.0) {
            return; // one hedge per stage
        }
        let attempt = self.requests.attempt(req, kernel.0);
        let at = self.now + delay;
        // Never hedge past the deadline: the copy could not win in time.
        if at >= self.requests.deadline_ms(req) {
            return;
        }
        self.push(
            at,
            EventKind::HedgeFire {
                req,
                kernel,
                attempt,
            },
        );
    }

    /// The current hedge delay for `kernel`: the configured quantile over
    /// its rolling stage-latency window, floored at `min_delay_ms`.
    /// `None` while hedging is disabled or the window is cold.
    fn hedge_delay_ms(&mut self, kernel: KernelId) -> Option<f64> {
        let h = self.config.lifecycle.hedge?;
        let w = &self.hedge_window[kernel.0];
        if w.len() < h.min_samples.max(1) {
            return None;
        }
        // Same nearest-rank selection as `hedge_delay_from`, but over the
        // reusable scratch buffer instead of a fresh sorted copy.
        let mut scratch = std::mem::take(&mut self.hedge_scratch);
        scratch.clear();
        scratch.extend(w.iter().copied());
        scratch.sort_by(f64::total_cmp);
        let n = scratch.len();
        let rank = ((h.quantile * n as f64).ceil() as usize).clamp(1, n) - 1;
        let delay = scratch[rank].max(h.min_delay_ms);
        self.hedge_scratch = scratch;
        Some(delay)
    }

    /// Fire the hedge for a stage that is still outstanding: queue a
    /// duplicate copy on a device other than the one holding the primary.
    /// First completion wins (the `done` flag makes the duplicate safe);
    /// the loser is cancelled and its booked busy energy refunded.
    fn hedge_fire(&mut self, req: usize, kernel: KernelId, attempt: u32) {
        let now = self.now;
        let k = kernel.0;
        if self.requests.is_settled(req)
            || self.requests.done(req, k)
            || self.requests.attempt(req, k) != attempt
            || self.requests.hedged(req, k)
            || now >= self.requests.deadline_ms(req)
        {
            return;
        }
        // Locate the device holding the primary copy (queued or in
        // flight); a stranded primary has nothing to race against.
        let mut holder = None;
        for (i, d) in self.devices.iter_mut().enumerate() {
            let queued = d.queue.contains_stage(req, kernel);
            self.counters.work.dispatch.entries += d.queue.take_touched();
            if queued
                || d.inflight.iter().any(|e| {
                    e.item.req == req
                        && e.item.kernel == kernel
                        && e.attempt == attempt
                        && e.completion_ms > now + 1e-12
                })
            {
                holder = Some(i);
                break;
            }
        }
        let Some(holder) = holder else { return };
        let Some((alt_dev, alt, est_ms)) = self.choose_dispatch(req, kernel, Some(holder)) else {
            return;
        };
        // A hedge only helps when the copy can start ahead of the queued
        // primary. Duplicating into a device that is itself backlogged
        // amplifies load exactly when the system can least afford it — a
        // synchronized burst would hedge every request at once, double
        // every queue, and starve both copies past the deadline.
        let alt_ready = {
            let d = &self.devices[alt_dev];
            d.queue.is_empty() && d.busy_until.max(now) < self.requests.deadline_ms(req)
        };
        if !alt_ready {
            return;
        }
        self.requests.set_hedged(req, k);
        self.counters.retry.hedges_fired += 1;
        self.devices[alt_dev].queue.push_back(WorkItem {
            req,
            kernel,
            ready_ms: now,
            est_ns: ms_to_ns(est_ms),
            alt,
            hedge: true,
        });
        if self.recording() {
            self.obs(ObsEvent::HedgeFired {
                req,
                kernel: k,
                device: alt_dev,
            });
        }
        self.try_start(alt_dev);
    }

    /// Device selection for one implementation: affinity-with-spill. Each
    /// kernel has a *home* device among the implementation's platform
    /// (stable hash), which keeps GPU batches of the same kernel together
    /// and avoids convoy effects from interleaving kernel types; heavily
    /// loaded homes spill to the least loaded peer. FPGA devices loaded
    /// with a different bitstream are additionally charged the
    /// reconfiguration time. Returns the winning device together with the
    /// load score it won on (the dynamic chooser compares these across
    /// alternates), or `None` when every device of the required kind is
    /// currently failed (the caller strands the work). `exclude` removes
    /// one device from consideration (hedged dispatch must not double
    /// down on the device holding the primary copy). With `require_kind`,
    /// an outright-missing platform is a panic — a *plan* targeting an
    /// absent platform is a planning bug, not a runtime fault; alternate
    /// probes pass `false` because an alternate's platform may
    /// legitimately be absent from this node's pool.
    fn choose_device_for(
        &self,
        imp: &KernelImpl,
        exclude: Option<usize>,
        require_kind: bool,
    ) -> Option<(usize, f64)> {
        let kernel = imp.kernel;
        // Pass 1 (allocation-free: the peer set is characterized by
        // counters instead of materialized): count devices of the kind,
        // healthy non-excluded peers, and — for FPGAs — peers already
        // configured for this kernel and whether all of those are
        // backlogged.
        let mut any_of_kind = false;
        let mut n_peers = 0usize;
        let mut n_matching = 0usize;
        let mut all_backlogged = true;
        for (i, d) in self.devices.iter().enumerate() {
            if d.kind != imp.kind {
                continue;
            }
            any_of_kind = true;
            if !d.healthy || Some(i) == exclude {
                continue;
            }
            n_peers += 1;
            if imp.kind == DeviceKind::Fpga && d.loaded == Some((kernel, imp.impl_index)) {
                n_matching += 1;
                if d.queue.len() < 3 {
                    all_backlogged = false;
                }
            }
        }
        if !any_of_kind {
            assert!(
                !require_kind,
                "no device of kind {} in pool for kernel {kernel}",
                imp.kind
            );
            return None;
        }
        if n_peers == 0 {
            return None;
        }
        // FPGA dispatch is bitstream-sticky: transient queue pressure must
        // not trigger reconfiguration storms (each swap poisons another
        // kernel's home), so only devices already configured for this
        // kernel are eligible — unless none exists (fresh policy), in
        // which case any peer may be reconfigured once. Expansion
        // hysteresis: only consider reconfiguring an additional device
        // when every configured device already has a sustained backlog.
        let restrict = imp.kind == DeviceKind::Fpga && n_matching > 0 && !all_backlogged;
        let eligible = |i: usize, d: &DeviceState| {
            d.kind == imp.kind
                && d.healthy
                && Some(i) != exclude
                && (!restrict || d.loaded == Some((kernel, imp.impl_index)))
        };
        // Pass 2: the home device — the (kernel mod peers)-th eligible
        // device in index order, same as indexing the former peers Vec.
        let n_eligible = if restrict { n_matching } else { n_peers };
        let home_pos = kernel.0 % n_eligible;
        let mut home = usize::MAX;
        let mut pos = 0usize;
        for (i, d) in self.devices.iter().enumerate() {
            if !eligible(i, d) {
                continue;
            }
            if pos == home_pos {
                home = i;
                break;
            }
            pos += 1;
        }
        // Pass 3: least-loaded eligible device (strict-less, first min).
        let mut best: Option<(f64, usize)> = None;
        for (i, d) in self.devices.iter().enumerate() {
            if !eligible(i, d) {
                continue;
            }
            // Price the backlog at each queued entry's own expected
            // service time (mixed-cost queues would otherwise be priced
            // uniformly at *this* candidate's service time, under- or
            // over-stating the wait whenever the queue holds other
            // kernels or other sizes). A derated (throttled) device
            // works through its backlog `derate`× slower, so weight the
            // sum accordingly. The queue keeps that sum running in whole
            // nanoseconds, so it is exact and costs nothing to read.
            let mut score = d.busy_until.max(self.now) + ns_to_ms(d.queue.backlog_ns()) * d.derate;
            if i != home && d.kind == DeviceKind::Gpu {
                // GPU spill only pays off when the home is congested by
                // more than one average execution (batch locality); FPGA
                // spill cost is the reconfiguration term below.
                score += imp.latency_ms;
            }
            if d.kind == DeviceKind::Fpga
                && d.loaded.is_some()
                && d.loaded != Some((kernel, imp.impl_index))
            {
                score += d.reconfig_ms;
            }
            if best.is_none_or(|(bs, _)| score < bs) {
                best = Some((score, i));
            }
        }
        Some(best.expect("non-empty peers")).map(|(s, i)| (i, s))
    }

    /// Resolve the implementation a queued entry was dispatched under:
    /// alternate `alt` of the policy's top-k list for `kernel`, falling
    /// back to the primary when a re-plan shrank the list underneath an
    /// already-queued entry.
    fn impl_of(&self, kernel: KernelId, alt: u8) -> KernelImpl {
        let alts = self.policy.alts_of(kernel);
        alts.get(alt as usize).copied().unwrap_or(alts[0])
    }

    /// Dispatch-time device/implementation choice for one request of
    /// relative input `size`: returns `(device, alternate, expected
    /// occupancy ms)`.
    ///
    /// With the dynamic layer off (no [`DynamicDispatch`] config or no
    /// alternates attached to the policy) this reduces exactly to the
    /// static plan: the primary implementation on the device
    /// `choose_device_for` picks.
    ///
    /// With it on, the chooser is *deadline-driven*: the primary is the
    /// interval plan's power-optimal pick, so it stays in force whenever
    /// this request's projected completion — queue score plus size-scaled
    /// execution plus the downstream critical path at this request's size
    /// — still meets the request's QoS target. Only a request the static
    /// plan is about to sink (an oversized input, or a burst victim
    /// behind a deep backlog) is repriced across the top-k alternates,
    /// and it escapes only to an alternate that (a) needs no FPGA
    /// reconfiguration — bitstream swaps poison a loaded kernel's home
    /// and storm under exactly the burst pressure that triggers escapes —
    /// and (b) is itself projected to *make* the target. Among saving
    /// alternates the cheapest by per-item active energy wins (ties keep
    /// the earliest alternate, for determinism): rescue is an exception
    /// path and should cost as little power as possible. A doomed request
    /// that no alternate can save stays on the power-optimal primary
    /// rather than burning a fast implementation's energy on a lost
    /// cause.
    fn choose_dispatch(
        &mut self,
        req: usize,
        kernel: KernelId,
        exclude: Option<usize>,
    ) -> Option<(usize, u8, f64)> {
        self.counters.work.dispatch.events += 1;
        let size = self.requests.size(req);
        let dynamic = self.config.dynamic.is_some() && self.policy.has_alternates();
        let primary = *self.policy.of(kernel);
        let primary_scale = poly_device::size_scale(primary.kind, size);
        let primary_est = primary.service_ms * primary_scale;
        let primary_pick = self.choose_device_for(&primary, exclude, true);
        if !dynamic {
            return primary_pick.map(|(dev, _)| (dev, 0, primary_est));
        }
        // Absolute QoS target, and the downstream critical path (rescaled
        // to this request's size) that must still fit after this stage.
        let target = self.requests.arrival_ms(req) + self.config.latency_bound_ms;
        let margin = self.downstream_margin(kernel, size);
        if let Some((dev, score)) = primary_pick {
            let projected = score + primary.latency_single_ms * primary_scale;
            if projected + margin <= target {
                return Some((dev, 0, primary_est));
            }
        }
        // (energy, projected completion, device, alternate, occupancy).
        let mut rescue: Option<(f64, f64, usize, u8, f64)> = None;
        for (alt, imp) in self.policy.alts_of(kernel).iter().enumerate().skip(1) {
            // Escapes are FPGA-lane-only. Every empirical variant of
            // GPU-targeted rescue lost: at high load the lone GPU *is*
            // the plan (k0/k3 of every request funnel through it), and
            // even at low load escapes fire during exactly the bursts
            // that precede plan escalation, so the "parked" GPU they
            // pile onto is about to become the bottleneck.
            if imp.kind != DeviceKind::Fpga || !self.fpga_loaded(kernel, imp.impl_index) {
                continue;
            }
            let scale = poly_device::size_scale(imp.kind, size);
            // The primary kept the missing-platform panic above (a plan
            // that targets an absent platform is a planning bug);
            // alternates on absent platforms are simply skipped.
            let Some((dev, score)) = self.choose_device_for(imp, exclude, false) else {
                continue;
            };
            // Strict residency: the escape runs only on a device already
            // holding this exact bitstream. `choose_device_for` may spill
            // to an unconfigured peer when the lane is backlogged; taking
            // that pick would reconfigure a device mid-burst (poisoning
            // whatever home it had) — the one storm the lane design
            // exists to avoid. A full lane means no escape this time.
            if self.devices[dev].loaded != Some((kernel, imp.impl_index)) {
                continue;
            }
            let projected = score + imp.latency_single_ms * scale;
            if projected + margin > target {
                continue;
            }
            let energy = imp.latency_single_ms * scale * imp.active_power_w;
            if rescue.is_none_or(|(e, p, ..)| (energy, projected) < (e, p)) {
                let alt = u8::try_from(alt).unwrap_or(u8::MAX);
                rescue = Some((energy, projected, dev, alt, imp.service_ms * scale));
            }
        }
        if let Some((_, _, dev, alt, est_ms)) = rescue {
            return Some((dev, alt, est_ms));
        }
        // No feasible rescue. If the primary cannot make the target
        // either, the request is doomed — it will violate no matter
        // where it runs. A doomed request owes the system two things:
        // cost as little energy as possible, and get out of the way of
        // requests that can still be saved. Both point the same
        // direction: *shed* the stage to a resident FPGA alternate
        // whenever that is strictly cheaper per item than the primary —
        // which in practice moves a doomed request's GPU stages
        // (hundreds of watts on the plan's bottleneck device) onto an
        // idle leftover bitstream at tens of watts, freeing the GPU for
        // requests with live deadlines. Feasibility is deliberately not
        // checked: the request misses either way, and slower-but-cheaper
        // is exactly the right trade for a lost cause.
        let doomed = primary_pick.is_none_or(|(_, score)| {
            score + primary.latency_single_ms * primary_scale + margin > target
        });
        if doomed {
            let primary_energy = primary.latency_single_ms * primary_scale * primary.active_power_w;
            // (energy, device, alternate, occupancy).
            let mut shed: Option<(f64, usize, u8, f64)> = None;
            for (alt, imp) in self.policy.alts_of(kernel).iter().enumerate().skip(1) {
                if imp.kind != DeviceKind::Fpga || !self.fpga_loaded(kernel, imp.impl_index) {
                    continue;
                }
                let scale = poly_device::size_scale(imp.kind, size);
                let energy = imp.latency_single_ms * scale * imp.active_power_w;
                if energy >= primary_energy {
                    continue;
                }
                let Some((dev, _)) = self.choose_device_for(imp, exclude, false) else {
                    continue;
                };
                if self.devices[dev].loaded != Some((kernel, imp.impl_index)) {
                    continue;
                }
                if shed.is_none_or(|(e, ..)| energy < e) {
                    let alt = u8::try_from(alt).unwrap_or(u8::MAX);
                    shed = Some((energy, dev, alt, imp.service_ms * scale));
                }
            }
            if let Some((_, dev, alt, est_ms)) = shed {
                return Some((dev, alt, est_ms));
            }
        }
        primary_pick.map(|(dev, _)| (dev, 0, primary_est))
    }

    /// Whether any healthy FPGA currently holds the `(kernel,
    /// impl_index)` bitstream. Dynamic escapes only target already-loaded
    /// bitstreams — an escape must never trigger a reconfiguration.
    fn fpga_loaded(&self, kernel: KernelId, impl_index: usize) -> bool {
        self.devices
            .iter()
            .any(|d| d.healthy && d.loaded == Some((kernel, impl_index)))
    }

    /// Work stealing (dynamic mode only): an idle device poaches the
    /// *youngest* entry from the deepest compatible backlog. Steals are
    /// *same-implementation only* — the thief must be able to run the
    /// entry exactly as priced (same platform; for FPGAs, the bitstream
    /// already loaded), so a steal is a pure queue migration: identical
    /// execution and energy, strictly less waiting. Cross-platform
    /// steals are deliberately excluded — re-pricing a queued entry onto
    /// the other platform's alternate either pays a reconfiguration or
    /// drags work onto the plan's scarce fast device, both of which
    /// showed up as net losses under burst pressure. Stealing the queue
    /// tail (not the head) preserves the victim's batch currently
    /// forming at the front.
    fn try_steal(&mut self, dev: usize) {
        let steal = matches!(self.config.dynamic, Some(dc) if dc.steal);
        if !steal || !self.policy.has_alternates() {
            return;
        }
        let thief_kind = self.devices[dev].kind;
        let thief_loaded = self.devices[dev].loaded;
        if !self.devices[dev].healthy
            || self.devices[dev].executing
            || !self.devices[dev].queue.is_empty()
        {
            return;
        }
        // Deepest victim with at least two waiting entries whose tail can
        // run on the thief (strict-greater, first max: deterministic).
        let mut best: Option<(usize, usize)> = None;
        for (v, d) in self.devices.iter().enumerate() {
            if v == dev || d.queue.len() < 2 {
                continue;
            }
            let Some(item) = d.queue.back() else { continue };
            if item.hedge {
                continue; // hedge copies are placement-pinned by design
            }
            let imp = self.impl_of(item.kernel, item.alt);
            let movable = imp.kind == thief_kind
                && (thief_kind != DeviceKind::Fpga
                    || thief_loaded == Some((item.kernel, imp.impl_index)));
            if !movable {
                continue;
            }
            if best.is_none_or(|(bl, _)| d.queue.len() > bl) {
                best = Some((d.queue.len(), v));
            }
        }
        let Some((_, victim)) = best else {
            return;
        };
        let item = self.devices[victim]
            .queue
            .pop_back()
            .expect("victim queue checked non-empty");
        self.counters.work.dispatch.entries += self.devices[victim].queue.take_touched();
        self.devices[dev].queue.push_back(item);
        self.counters.retry.steals += 1;
        if self.recording() {
            self.obs(ObsEvent::WorkSteal {
                req: item.req,
                kernel: item.kernel.0,
                from: victim,
                to: dev,
            });
        }
        self.try_start(dev);
    }

    /// Start the next batch on device `dev` if it is healthy, idle, and
    /// has work.
    fn try_start(&mut self, dev: usize) {
        let now = self.now;
        if !self.devices[dev].healthy {
            return;
        }
        if self.devices[dev].executing && self.devices[dev].busy_until > now + 1e-12 {
            return;
        }
        // Drop completed entries from the in-flight book before committing
        // to more work (lazy pruning keeps completion O(1)).
        self.devices[dev]
            .inflight
            .retain(|e| e.completion_ms > now + 1e-12);
        let Some(front) = self.devices[dev].queue.front() else {
            self.devices[dev].executing = false;
            return;
        };
        let imp: KernelImpl = self.impl_of(front.kernel, front.alt);
        self.counters.work.batch.events += 1;

        // Deliberate batch formation (DjiNN-style): hold a partial GPU
        // batch open while (a) the oldest request's slack still allows it
        // and (b) the current arrival rate makes further same-kernel work
        // likely within that slack. At light load (b) fails and requests
        // start immediately, keeping the low-load tail flat.
        let budget = self.wait_budget.get(front.kernel.0).copied().unwrap_or(0.0);
        if budget > 0.0 {
            let same = self.devices[dev].queue.kernel_count(front.kernel);
            let deadline = self.requests.arrival_ms(front.req) + budget;
            // Queue gate: only hold the batch open when a partial batch is
            // already forming (the device is trending throughput-bound);
            // a lone request at moderate load starts immediately.
            if same >= 2 && same < imp.batch && deadline > now + 1e-9 && self.arrival_rate > 0.0 {
                let kind = self.devices[dev].kind;
                let peers = self
                    .devices
                    .iter()
                    .filter(|x| x.kind == kind)
                    .count()
                    .max(1) as f64;
                // Wait only when the batch is expected to fill within the
                // remaining slack; otherwise launch the partial batch now.
                // The rate EWMA only updates on arrivals, so after a burst
                // it stays frozen at its peak and predicts imminent fill
                // forever; the gap since the last arrival is evidence too,
                // and once it exceeds the EWMA's own expected inter-arrival
                // the gap is the better estimate.
                let gap = (now - self.last_arrival_ms).max(0.01);
                let rate = self.arrival_rate.min(1.0 / gap);
                let fill_ms = f64::from(imp.batch - same) / (rate / peers);
                if now + fill_ms <= deadline {
                    let wake = (now + 1.2 * fill_ms).min(deadline);
                    self.devices[dev].executing = false;
                    self.push(wake, EventKind::DeviceFree { dev });
                    return;
                }
            }
        }
        // Gather up to `batch` queued items of the front's kernel and
        // alternate (GPU batching) in FIFO order: a prefix of the front's
        // lane. Batches are homogeneous in (kernel, alternate) — entries
        // dispatched under different implementations must not share a
        // launch — and everything else keeps its order. The buffer is
        // engine-owned scratch, so batch formation allocates nothing.
        let mut batch = std::mem::take(&mut self.batch_scratch);
        batch.clear();
        let d = &mut self.devices[dev];
        d.queue.take_front_batch(imp.batch as usize, &mut batch);
        self.counters.work.batch.entries += d.queue.take_touched();

        let mut start = now;
        if d.kind == DeviceKind::Fpga && d.loaded != Some((front.kernel, imp.impl_index)) {
            if d.loaded.is_some() {
                d.reconfigs += 1;
            }
            start += d.reconfig_ms;
            d.loaded = Some((front.kernel, imp.impl_index));
        }

        let n = u32::try_from(batch.len()).unwrap_or(u32::MAX);
        {
            let ks = &mut self.kernel_stats[front.kernel.0];
            ks.executions += 1;
            ks.requests += batch.len();
            for item in &batch {
                ks.queue_wait_ms += (start - item.ready_ms).max(0.0);
            }
        }
        // Size scaling: the batch runs as long as its mean scale factor
        // (GPU lanes run the same launch; the widest input dominates the
        // mean it contributes to), and an FPGA pipeline streams each
        // request for its own scaled service time. At all-nominal sizes
        // every factor is exactly 1.0, the sum is exactly `n`, and both
        // expressions are bit-identical to the unscaled model.
        let scale_sum: f64 = batch
            .iter()
            .map(|it| poly_device::size_scale(imp.kind, self.requests.size(it.req)))
            .sum();
        let scale_mean = scale_sum / f64::from(n.max(1));
        let exec = imp.exec_ms(n) * scale_mean * d.derate;
        let completion = start + exec;
        let occupancy = match imp.kind {
            DeviceKind::Gpu => imp.exec_ms(n) * scale_mean,
            DeviceKind::Fpga => imp.service_ms * scale_sum,
        };
        let busy_until = start + occupancy * d.derate;
        // Pipelined streaming: floor this launch's completion on any
        // still-arriving producer tiles, charge producer-side stalls, and
        // dispatch DAG successors on the first tile instead of the last.
        // Behind `enabled()` so the barrier default stays bit-identical.
        let (completion, busy_until) = if self.config.pipeline.enabled() {
            self.pipeline_stream(
                &batch,
                front.kernel,
                imp,
                start,
                exec,
                completion,
                busy_until,
            )
        } else {
            (completion, busy_until)
        };
        self.kernel_stats[front.kernel.0].busy_ms += busy_until - now;
        self.devices[dev].account_busy(now, busy_until, imp.active_power_w);
        self.booked_busy_mj += imp.active_power_w * (busy_until - now).max(0.0);
        let d = &mut self.devices[dev];
        d.idle_power_w = imp.idle_power_w;
        d.active_power_w = imp.active_power_w;
        d.executing = true;
        d.busy_until = busy_until;

        self.push(busy_until, EventKind::DeviceFree { dev });
        if self.recording() {
            self.obs(ObsEvent::ExecStart {
                device: dev,
                device_kind: match imp.kind {
                    DeviceKind::Gpu => "gpu",
                    DeviceKind::Fpga => "fpga",
                },
                backend: self.config.backend_label,
                kernel: front.kernel.0,
                impl_index: imp.impl_index,
                batch: batch.len(),
                reconfig_ms: start - now,
                busy_ms: busy_until - now,
                exec_ms: exec,
            });
        }
        if let Some(h) = self.config.lifecycle.hedge {
            // Feed the rolling stage-latency window that the hedge delay
            // quantile is computed over (dispatch-to-completion, queueing
            // included — hedges race the whole stage, not just execution).
            let w = &mut self.hedge_window[front.kernel.0];
            for item in &batch {
                if w.len() >= h.window.max(1) {
                    w.pop_front();
                }
                w.push_back(completion - item.ready_ms);
            }
        }
        for &item in &batch {
            let attempt = self.requests.attempt(item.req, item.kernel.0);
            if self.recording() {
                self.obs(ObsEvent::StageStart {
                    req: item.req,
                    kernel: item.kernel.0,
                    device: dev,
                    attempt,
                    hedge: item.hedge,
                    queue_wait_ms: (start - item.ready_ms).max(0.0),
                    service_ms: completion - start,
                });
            }
            self.devices[dev].inflight.push(InflightItem {
                item,
                attempt,
                completion_ms: completion,
            });
            self.push(
                completion,
                EventKind::Complete {
                    req: item.req,
                    kernel: item.kernel,
                    attempt,
                    hedge: item.hedge,
                },
            );
        }
        batch.clear();
        self.batch_scratch = batch;
    }

    /// The streaming half of [`try_start`](Self::try_start), called once
    /// per launch when [`PipelineConfig::enabled`]. Three effects, all on
    /// simulated time only:
    ///
    /// - **Consumer floor** — if any batched request is itself being
    ///   streamed into (a producer dispatched it on a first tile), this
    ///   launch cannot finish before that producer's last tile lands plus
    ///   one of its own tile times; completion and occupancy are floored
    ///   accordingly.
    /// - **Producer stall** — for every DAG successor this launch is the
    ///   last pending predecessor of, the bounded channel gives the
    ///   producer `min(depth, tiles)` credits; a consumer whose per-tile
    ///   time exceeds the producer's backs pressure up, extending the
    ///   producer by `(tiles - credits) * (tc - tp)` (the classic bounded
    ///   -buffer closed form; zero when the channel never fills).
    /// - **Early dispatch** — each such successor stage is dispatched
    ///   just in time to overlap with the remaining tiles (one chunk
    ///   transfer after the first tile, or later if the consumer is fast
    ///   enough to idle-wait otherwise). Its predecessor count is
    ///   consumed *now* and the stage marked streamed, so the producer's
    ///   eventual completion neither re-decrements nor re-dispatches it —
    ///   a killed or hedged producer replays against the same flag.
    ///
    /// Returns the adjusted `(completion, busy_until)`.
    #[allow(clippy::too_many_arguments)]
    fn pipeline_stream(
        &mut self,
        batch: &[WorkItem],
        kernel: KernelId,
        imp: KernelImpl,
        start: f64,
        exec: f64,
        completion: f64,
        busy_until: f64,
    ) -> (f64, f64) {
        let cfg = self.config.pipeline;
        let tiles = f64::from(cfg.tiles);
        let (mut completion, mut busy_until) = (completion, busy_until);

        // Consumer side: wait for the slowest streaming producer's last
        // tile, then one more tile of our own work. `NEG_INFINITY` floors
        // (no streaming producer) never bind.
        let floor = batch
            .iter()
            .map(|it| self.requests.stream_floor(it.req, kernel.0))
            .fold(f64::NEG_INFINITY, f64::max);
        if floor.is_finite() && floor + exec / tiles > completion {
            let delta = floor + exec / tiles - completion;
            completion += delta;
            busy_until += delta;
        }

        // Producer side: stream into successors we are the last pending
        // predecessor of.
        let mut succs = std::mem::take(&mut self.succ_scratch);
        succs.clear();
        succs.extend(self.graph.successors(kernel).map(|e| (e.to, e.bytes)));
        if !succs.is_empty() {
            let credits = f64::from(cfg.depth.min(cfg.tiles));
            let tp = (completion - start) / tiles;
            let mut stall = 0.0f64;
            for &(succ, _) in &succs {
                let eligible = batch.iter().any(|it| {
                    self.requests.remaining_preds(it.req, succ.0) == 1
                        && !self.requests.streamed(it.req, succ.0)
                });
                if eligible {
                    let tc = self.policy.of(succ).latency_single_ms / tiles;
                    stall = stall.max((tiles - credits) * (tc - tp));
                }
            }
            if stall > 0.0 {
                completion += stall;
                busy_until += stall;
            }
            for &(succ, bytes) in &succs {
                let succ_imp = *self.policy.of(succ);
                // Per-tile chunk crossing the platform boundary pays PCIe
                // at chunk granularity; same-kind edges stream for free,
                // like the barrier path's transfer rule.
                let chunk_ms = if succ_imp.kind == imp.kind {
                    0.0
                } else {
                    let chunk =
                        poly_ir::ChannelSpec::new(bytes, cfg.tiles, cfg.depth).chunk_bytes();
                    self.config.pcie.transfer_ms(chunk)
                };
                // Just-in-time start: late enough that the consumer never
                // idles on an empty channel (its estimated run ends one of
                // its tiles after our last tile), but never before our
                // first tile can reach it.
                let jit = start
                    + tp.max(
                        (completion - start) - succ_imp.latency_single_ms * (1.0 - 1.0 / tiles),
                    )
                    + chunk_ms;
                for it in batch {
                    if self.requests.remaining_preds(it.req, succ.0) == 1
                        && !self.requests.streamed(it.req, succ.0)
                    {
                        self.requests.dec_remaining_preds(it.req, succ.0);
                        self.requests.set_streamed(it.req, succ.0);
                        self.requests
                            .set_stream_floor(it.req, succ.0, completion + chunk_ms);
                        self.push(
                            jit,
                            EventKind::Dispatch {
                                req: it.req,
                                kernel: succ,
                            },
                        );
                    }
                }
            }
        }
        succs.clear();
        self.succ_scratch = succs;
        (completion, busy_until)
    }

    fn complete(&mut self, req: usize, kernel: KernelId, attempt: u32, hedge: bool) {
        let now = self.now;
        // The request reached a terminal state (deadline, retry
        // exhaustion, node drain) while this completion was in flight.
        if self.requests.is_settled(req) {
            self.counters.stale_completions += 1;
            return;
        }
        // A stale completion: the execution that scheduled this event
        // was killed by a fail-stop (or invalidated by a cancellation)
        // and the kernel was re-dispatched under a higher attempt
        // number — or the hedge twin already finished this stage.
        if self.requests.done(req, kernel.0) || self.requests.attempt(req, kernel.0) != attempt {
            self.counters.stale_completions += 1;
            return;
        }
        self.requests.set_done(req, kernel.0);
        let kernels_left = self.requests.dec_kernels_left(req);
        let was_hedged = self.requests.hedged(req, kernel.0);
        if was_hedged {
            if hedge {
                self.counters.retry.hedge_wins += 1;
            }
            // First completion wins: cancel the losing copy wherever it is
            // and refund whatever busy time it still held booked.
            self.cancel_duplicates(req, kernel);
        }
        if self.recording() {
            self.obs(ObsEvent::StageComplete {
                req,
                kernel: kernel.0,
            });
        }
        let my_kind = self.policy.of(kernel).kind;
        let mut succs = std::mem::take(&mut self.succ_scratch);
        succs.clear();
        succs.extend(self.graph.successors(kernel).map(|e| (e.to, e.bytes)));
        for &(succ, bytes) in &succs {
            // A streamed successor was dispatched on our first tile and
            // its predecessor count consumed then — completing the last
            // tile must not double-count (or re-dispatch a copy).
            if self.requests.streamed(req, succ.0) {
                continue;
            }
            if self.requests.dec_remaining_preds(req, succ.0) == 0 {
                let succ_kind = self.policy.of(succ).kind;
                let transfer = if succ_kind == my_kind {
                    0.0
                } else {
                    self.config.pcie.transfer_ms(bytes)
                };
                self.push(now + transfer, EventKind::Dispatch { req, kernel: succ });
            }
        }
        succs.clear();
        self.succ_scratch = succs;
        if kernels_left == 0 {
            self.set_terminal(req, Outcome::Completed);
            let latency = now - self.requests.arrival_ms(req);
            Arc::make_mut(&mut self.latencies).push(latency);
            self.completed += 1;
            if self.recording() {
                self.obs(ObsEvent::ReqComplete {
                    req,
                    latency_ms: latency,
                });
            }
        }
    }

    /// Move `req` to a terminal outcome, exactly once. A second terminal
    /// transition is counted as an audit violation and ignored.
    fn set_terminal(&mut self, req: usize, outcome: Outcome) {
        if self.requests.is_settled(req) {
            self.counters.double_terminal += 1;
            return;
        }
        self.requests.set_outcome(req, outcome);
        match outcome {
            Outcome::InFlight => unreachable!("terminal transition to InFlight"),
            Outcome::Completed => self.counters.completed += 1,
            Outcome::TimedOut => self.counters.timed_out += 1,
            Outcome::Failed => self.counters.failed += 1,
            Outcome::Cancelled => self.counters.cancelled += 1,
        }
        if self.recording() {
            // `Completed` is reported by the caller as `ReqComplete`
            // (which carries the latency); only the failure outcomes are
            // recorded here.
            match outcome {
                Outcome::TimedOut => self.obs(ObsEvent::ReqTimedOut { req }),
                Outcome::Failed => self.obs(ObsEvent::ReqFailed { req }),
                Outcome::Cancelled => self.obs(ObsEvent::ReqCancelled { req }),
                Outcome::InFlight | Outcome::Completed => {}
            }
        }
    }

    /// Abandon every copy of `req`'s outstanding work — queued, stranded,
    /// or in flight — and settle the request with `outcome`. In-flight
    /// executions are invalidated through the attempt counters (their
    /// scheduled completions go stale) and the busy time a now-empty
    /// batch still held booked is refunded.
    fn abort_request(&mut self, req: usize, outcome: Outcome) {
        let now = self.now;
        let mut touched = std::mem::take(&mut self.touched_scratch);
        touched.clear();
        self.counters.work.cancel.events += 1;
        for (i, d) in self.devices.iter_mut().enumerate() {
            let removed = d.queue.remove_req(req);
            self.counters.work.cancel.entries += d.queue.take_touched();
            if removed > 0 {
                touched.push(i);
            }
        }
        self.stranded.retain(|it| it.req != req);
        // Bump every stage's attempt: any completion still scheduled for
        // this request is now stale (belt and braces — the terminal
        // outcome alone already makes them stale).
        self.requests.bump_all_attempts(req);
        for (i, d) in self.devices.iter_mut().enumerate() {
            let before = d.inflight.len();
            d.inflight
                .retain(|e| !(e.item.req == req && e.completion_ms > now + 1e-12));
            if d.inflight.len() != before {
                touched.push(i);
            }
        }
        self.set_terminal(req, outcome);
        for &dev in &touched {
            self.cut_if_idle(dev);
        }
        touched.clear();
        self.touched_scratch = touched;
    }

    /// Remove the losing copies of a hedged stage after its first
    /// completion: queued duplicates are dropped, in-flight duplicates are
    /// invalidated (the `done` flag makes their completions stale), and
    /// devices whose batch just emptied get their booked busy time
    /// refunded.
    fn cancel_duplicates(&mut self, req: usize, kernel: KernelId) {
        let now = self.now;
        let mut touched = std::mem::take(&mut self.touched_scratch);
        touched.clear();
        self.counters.work.cancel.events += 1;
        for (i, d) in self.devices.iter_mut().enumerate() {
            let before = d.inflight.len();
            let removed = d.queue.remove_stage(req, kernel);
            self.counters.work.cancel.entries += d.queue.take_touched();
            d.inflight.retain(|e| {
                !(e.item.req == req && e.item.kernel == kernel && e.completion_ms > now + 1e-12)
            });
            if removed > 0 || d.inflight.len() != before {
                touched.push(i);
            }
        }
        self.stranded
            .retain(|it| !(it.req == req && it.kernel == kernel));
        for &dev in &touched {
            self.cut_if_idle(dev);
        }
        touched.clear();
        self.touched_scratch = touched;
    }

    /// If device `dev` is mid-execution but every work item of its
    /// current batch has been cancelled, cut the execution short: refund
    /// the remaining pre-booked busy energy and free the device now.
    fn cut_if_idle(&mut self, dev: usize) {
        let now = self.now;
        let has_live = {
            let d = &self.devices[dev];
            if !d.healthy || !d.executing || d.busy_until <= now + 1e-12 {
                return;
            }
            d.inflight.iter().any(|e| {
                e.completion_ms > now + 1e-12
                    && !self.requests.is_settled(e.item.req)
                    && !self.requests.done(e.item.req, e.item.kernel.0)
                    && self.requests.attempt(e.item.req, e.item.kernel.0) == e.attempt
            })
        };
        if has_live {
            return;
        }
        let d = &mut self.devices[dev];
        let cut = d.busy_until.min(d.accounted_to_ms) - now;
        if cut > 0.0 {
            let refund = d.active_power_w * cut;
            d.busy_energy_mj -= refund;
            d.busy_ms -= cut;
            d.accounted_to_ms = now;
            self.refunded_busy_mj += refund;
        }
        d.executing = false;
        d.busy_until = now;
        self.push(now, EventKind::DeviceFree { dev });
    }

    /// Discard all statistics gathered so far (latencies, counters, and
    /// energy books) and start a fresh measurement window at the current
    /// simulation time. Queue and device state is preserved — this is how
    /// warmup is excluded from steady-state measurements.
    pub fn reset_accounting(&mut self) {
        for d in &mut self.devices {
            d.account_idle_until(self.now);
            d.busy_energy_mj = 0.0;
            d.idle_energy_mj = 0.0;
            d.busy_ms = 0.0;
        }
        self.stats_since = self.now;
        self.arrived = 0;
        self.completed = 0;
        Arc::make_mut(&mut self.latencies).clear();
        for ks in &mut self.kernel_stats {
            *ks = KernelStats::default();
        }
        // Measurement boundaries are also when the settled request prefix
        // is reclaimed: over a long replay the arena stays bounded by the
        // in-flight population instead of growing with the trace.
        self.requests.compact();
    }

    /// Completion latencies of the current accounting window (since the
    /// last [`reset_accounting`](Self::reset_accounting)), in completion
    /// order: the raw samples behind [`finish`](Self::finish)'s
    /// latency digest, for callers that merge windows across simulators.
    #[must_use]
    pub fn window_latencies(&self) -> &[f64] {
        &self.latencies
    }

    /// Total queued work items across devices, plus work stranded by
    /// failures (the monitor's queue-length signal).
    #[must_use]
    pub fn queued(&self) -> usize {
        self.devices.iter().map(|d| d.queue.len()).sum::<usize>() + self.stranded.len()
    }

    /// Schedule the events of `plan` as discrete fault events. Events
    /// scripted before the current time fire immediately (at "now").
    ///
    /// A [`FaultKind::Revoke`] lowers to a [`FaultKind::FailStop`] at
    /// `at_ms + notice_ms`: the engine models only the capacity loss at
    /// the deadline; reacting to the *notice* (draining before the
    /// deadline) is the cluster layer's job.
    pub fn inject_faults(&mut self, plan: &FaultPlan) {
        for &event in plan.events() {
            assert!(
                event.device < self.devices.len(),
                "fault targets device {} but the pool has {}",
                event.device,
                self.devices.len()
            );
            let event = match event.kind {
                FaultKind::Revoke { .. } => FaultEvent {
                    at_ms: event.at_ms + event.kind.effect_delay_ms(),
                    device: event.device,
                    kind: FaultKind::FailStop,
                },
                _ => event,
            };
            let idx = self.faults.len();
            self.faults.push(event);
            self.push(event.at_ms.max(self.now), EventKind::Fault { idx });
        }
    }

    /// The pool of currently healthy devices — what the runtime should
    /// re-plan against after a failure.
    #[must_use]
    pub fn available_pool(&self) -> Pool {
        let kinds: Vec<DeviceKind> = self
            .devices
            .iter()
            .filter(|d| d.healthy)
            .map(|d| d.kind)
            .collect();
        Pool::new(&kinds)
    }

    /// Number of currently healthy devices.
    #[must_use]
    pub fn healthy_devices(&self) -> usize {
        self.devices.iter().filter(|d| d.healthy).count()
    }

    /// Abandon every request that has not completed yet: clear device
    /// queues and in-flight books, drop stranded work, and mark the
    /// victims finished so their already-scheduled completion events
    /// become stale. Returns how many requests were abandoned — the
    /// traffic a front-end router must redistribute to other nodes when
    /// it drains this one (e.g. after a whole-node fail-stop).
    ///
    /// Scripted fault events stay queued, so a later recovery still
    /// returns the devices to service.
    /// Calling it on an empty or already-drained simulator — including a
    /// second consecutive call — is a deterministic no-op: nothing is
    /// double-counted and no busy energy is refunded twice.
    pub fn cancel_pending(&mut self) -> usize {
        let now = self.now;
        for d in &mut self.devices {
            d.queue.clear();
            d.inflight.clear();
            // A healthy device cut off mid-execution gets its remaining
            // pre-booked busy energy refunded (the work will never
            // finish); a failed device was already refunded at the
            // fail-stop. `executing` guards double refunds: the first
            // call clears it, so a second call skips the block.
            if d.healthy && d.executing && d.busy_until > now + 1e-12 {
                let cut = d.busy_until.min(d.accounted_to_ms) - now;
                if cut > 0.0 {
                    let refund = d.active_power_w * cut;
                    d.busy_energy_mj -= refund;
                    d.busy_ms -= cut;
                    d.accounted_to_ms = now;
                    self.refunded_busy_mj += refund;
                }
                d.executing = false;
                d.busy_until = now;
            }
        }
        self.stranded.clear();
        let mut cancelled = 0;
        for req in self.requests.live_range() {
            if !self.requests.is_settled(req) {
                cancelled += 1;
                // Stale-ify every scheduled completion of the victim.
                self.requests.bump_all_attempts(req);
                self.set_terminal(req, Outcome::Cancelled);
            }
        }
        cancelled
    }

    /// Re-dispatch work stranded by failures (called when a recovery or a
    /// policy change may have made it dispatchable again).
    fn redispatch_stranded(&mut self) {
        let stranded = std::mem::take(&mut self.stranded);
        let now = self.now;
        for item in stranded {
            self.push(
                now,
                EventKind::Dispatch {
                    req: item.req,
                    kernel: item.kernel,
                },
            );
        }
    }

    /// Apply scripted fault `idx` at the current time.
    fn apply_fault(&mut self, idx: usize) {
        let FaultEvent { device, kind, .. } = self.faults[idx];
        let now = self.now;
        match kind {
            FaultKind::FailStop => {
                if !self.devices[device].healthy {
                    return; // already down
                }
                self.counters.fail_stops += 1;
                self.counters.fault_events += 1;
                if self.recording() {
                    self.obs(ObsEvent::Fault {
                        device,
                        kind: "fail-stop",
                    });
                }
                let mut queued_victims: Vec<WorkItem> = Vec::new();
                {
                    let d = &mut self.devices[device];
                    // The busy-energy account was pre-booked to the end of
                    // the running execution; refund the part the failure
                    // cuts off — a dead board draws nothing.
                    if d.executing && d.busy_until > now {
                        let cut = d.busy_until.min(d.accounted_to_ms) - now;
                        if cut > 0.0 {
                            let refund = d.active_power_w * cut;
                            d.busy_energy_mj -= refund;
                            d.busy_ms -= cut;
                            d.accounted_to_ms = now;
                            self.refunded_busy_mj += refund;
                        }
                    }
                    d.account_idle_until(now);
                    d.healthy = false;
                    d.executing = false;
                    d.busy_until = now;
                    d.loaded = None;
                    d.idle_power_w = 0.0;
                    queued_victims.extend(d.queue.drain());
                }
                // Kill the in-flight batch: bump each victim's attempt so
                // its scheduled completion becomes stale, then retry it.
                let mut to_retry: Vec<WorkItem> = Vec::new();
                let inflight = std::mem::take(&mut self.devices[device].inflight);
                for entry in inflight {
                    let req = entry.item.req;
                    let k = entry.item.kernel.0;
                    // A settled request never holds a live future
                    // completion (the settling path invalidated it), so
                    // the settled check short-circuits before any
                    // per-kernel state is touched.
                    if entry.completion_ms > now + 1e-12
                        && !self.requests.is_settled(req)
                        && !self.requests.done(req, k)
                        && self.requests.attempt(req, k) == entry.attempt
                    {
                        self.requests.bump_attempt(req, k);
                        to_retry.push(entry.item);
                    }
                }
                match self.config.lifecycle.retry {
                    // Legacy: re-dispatch everything immediately, without
                    // bound; queued victims keep their attempt counter.
                    RetryPolicy::Immediate => {
                        to_retry.extend(queued_victims);
                        self.counters.retry.device_retries += to_retry.len();
                        for item in to_retry {
                            self.push(
                                now,
                                EventKind::Dispatch {
                                    req: item.req,
                                    kernel: item.kernel,
                                },
                            );
                        }
                    }
                    RetryPolicy::Backoff(policy) => {
                        // Queued (never-started) victims also count this
                        // kill against their stage's retry budget, so the
                        // bound is uniform across queue positions.
                        for item in &queued_victims {
                            self.requests.bump_attempt(item.req, item.kernel.0);
                        }
                        to_retry.extend(queued_victims);
                        for item in to_retry {
                            if self.requests.is_settled(item.req) {
                                continue; // settled while the kill ran
                            }
                            let n = self.requests.attempt(item.req, item.kernel.0);
                            if n > policy.max_retries {
                                self.counters.retry.exhausted += 1;
                                self.abort_request(item.req, Outcome::Failed);
                                continue;
                            }
                            self.counters.retry.device_retries += 1;
                            let key = ((item.req as u64) << 20) | item.kernel.0 as u64;
                            let delay = policy.delay_ms(n, key);
                            self.push(
                                now + delay,
                                EventKind::Dispatch {
                                    req: item.req,
                                    kernel: item.kernel,
                                },
                            );
                        }
                    }
                }
            }
            FaultKind::Slowdown { factor } => {
                let d = &mut self.devices[device];
                if d.healthy {
                    d.derate = factor.max(1.0);
                    self.counters.fault_events += 1;
                    if self.recording() {
                        self.obs(ObsEvent::Fault {
                            device,
                            kind: "slowdown",
                        });
                    }
                }
            }
            FaultKind::Recover => {
                let was_down = !self.devices[device].healthy;
                {
                    let d = &mut self.devices[device];
                    d.derate = 1.0;
                    if was_down {
                        d.healthy = true;
                        d.executing = false;
                        d.busy_until = now;
                        // The board rejoins cold at its configured idle
                        // power; energy accounting resumes from now.
                        d.accounted_to_ms = d.accounted_to_ms.max(now);
                        d.idle_power_w = match d.kind {
                            DeviceKind::Gpu => self.config.gpu_idle_w,
                            DeviceKind::Fpga => self.config.fpga_idle_w,
                        };
                    }
                }
                if was_down {
                    self.counters.fault_events += 1;
                    self.apply_idle_floors();
                    if self.recording() {
                        self.obs(ObsEvent::Fault {
                            device,
                            kind: "recover",
                        });
                    }
                }
                self.redispatch_stranded();
                self.push(now, EventKind::DeviceFree { dev: device });
            }
            // Revocations are lowered to FailStop at injection time
            // (`inject_faults`); one can never reach the queue.
            FaultKind::Revoke { .. } => unreachable!("Revoke is lowered at injection"),
        }
    }

    /// Close the books at time `t` (≥ now) and produce the report.
    /// The simulator can continue afterwards, but energy accounting is
    /// simplest when `finish` is called once at the end.
    pub fn finish(&mut self, t: f64) -> SimReport {
        self.advance_to(t);
        let end = t.max(self.now);
        let duration_ms = (end - self.stats_since).max(1e-9);
        let mut energy_mj = 0.0;
        let mut devices = Vec::with_capacity(self.devices.len());
        for d in &mut self.devices {
            let e = d.finish(end);
            energy_mj += e;
            devices.push(DeviceStats {
                kind: d.kind,
                utilization: d.utilization(duration_ms),
                energy_j: e / 1000.0,
                reconfigs: d.reconfigs,
            });
        }
        let latency = LatencyStats::from_shared(&self.latencies, &mut self.lat_scratch);
        let qos_violation_ratio = latency.violation_ratio(self.config.latency_bound_ms);
        SimReport {
            duration_ms,
            arrived: self.arrived,
            completed: self.completed,
            qos_violation_ratio,
            avg_power_w: if duration_ms > 0.0 {
                energy_mj / duration_ms
            } else {
                0.0
            },
            energy_j: energy_mj / 1000.0,
            throughput_rps: if duration_ms > 0.0 {
                self.completed as f64 * 1000.0 / duration_ms
            } else {
                0.0
            },
            latency,
            devices,
            kernels: self.kernel_stats.clone(),
        }
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

    /// Snapshot of the lifetime counters (never reset: they survive
    /// [`reset_accounting`](Self::reset_accounting)). Take a
    /// [`delta`](Counters::delta) between two snapshots to count a window,
    /// e.g. one interval's fault events or timeouts; the queue work counts
    /// in [`work`](Counters::work) are deterministic and
    /// machine-independent, so a test can bound the work per event.
    #[must_use]
    pub fn counters(&self) -> Counters {
        self.counters
    }

    /// Cumulative re-issue ledger since construction.
    #[must_use]
    pub fn retry_stats(&self) -> RetryStats {
        self.counters.retry
    }

    /// Lifetime conservation accounting for invariant checking — see
    /// [`AuditReport`]: a view over [`counters`](Self::counters) plus the
    /// pending population and the busy-energy books, covering the whole
    /// life of the simulator.
    #[must_use]
    pub fn audit(&self) -> AuditReport {
        let c = &self.counters;
        AuditReport {
            admitted: c.admitted,
            completed: c.completed,
            timed_out: c.timed_out,
            failed: c.failed,
            cancelled: c.cancelled,
            pending: self.requests.pending(),
            stale_completions: c.stale_completions,
            double_terminal: c.double_terminal,
            clock_regressions: c.clock_regressions,
            booked_busy_mj: self.booked_busy_mj,
            refunded_busy_mj: self.refunded_busy_mj,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lifecycle::{BackoffPolicy, HedgeConfig};
    use poly_ir::{KernelBuilder, KernelGraphBuilder, OpFunc, PatternKind, Shape};

    fn graph2() -> KernelGraph {
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

    fn gpu_impl(kernel: usize, latency: f64, batch: u32) -> KernelImpl {
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

    fn fpga_impl(kernel: usize, latency: f64) -> KernelImpl {
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

    fn sim(policy: Vec<KernelImpl>, pool: Pool) -> Simulator {
        Simulator::new(
            graph2(),
            &pool,
            Policy::from_impls(policy),
            SimConfig::default(),
        )
    }

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
    fn gpu_batches_under_load() {
        // One GPU, batchable kernel: 8 simultaneous arrivals should finish
        // far faster than 8 sequential batch-1 executions.
        let one = KernelBuilder::new("a")
            .pattern("m", PatternKind::Map, Shape::d1(1024), &[OpFunc::Mac])
            .build()
            .unwrap();
        let g = KernelGraphBuilder::new("app").kernel(one).build().unwrap();
        let imp = KernelImpl {
            kernel: KernelId(0),
            kind: DeviceKind::Gpu,
            impl_index: 0,
            latency_ms: 80.0,
            latency_single_ms: 20.0,
            service_ms: 10.0,
            batch: 8,
            active_power_w: 200.0,
            idle_power_w: 40.0,
        };
        let mut s = Simulator::new(
            g,
            &Pool::heterogeneous(1, 0),
            Policy::from_impls(vec![imp]),
            SimConfig::default(),
        );
        s.enqueue_arrivals(&[0.0; 8]);
        s.drain();
        let r = s.finish(1000.0);
        assert_eq!(r.completed, 8);
        // First arrival starts a batch of 1 (20 ms); the other 7 form one
        // batch afterwards. Max latency ≈ 20 + exec(7) < 8 × 20.
        assert!(r.latency.max() < 8.0 * 20.0, "{}", r.latency.max());
    }

    #[test]
    fn queueing_grows_tail_latency() {
        // Single-kernel app on one FPGA (service 9 ms): arrivals every
        // 8 ms overload the device, arrivals every 25 ms do not.
        let one = KernelBuilder::new("a")
            .pattern("m", PatternKind::Map, Shape::d1(1024), &[OpFunc::Mac])
            .build()
            .unwrap();
        let g = KernelGraphBuilder::new("app").kernel(one).build().unwrap();
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
    fn reconfiguration_thrash_is_modelled() {
        // One FPGA alternating two kernels pays the bitstream swap each
        // time — a second FPGA eliminates the thrash entirely.
        let run = |fpgas: usize| {
            let mut s = sim(
                vec![fpga_impl(0, 10.0), fpga_impl(1, 10.0)],
                Pool::heterogeneous(0, fpgas),
            );
            s.enqueue_arrivals(&(0..20).map(|i| f64::from(i) * 1000.0).collect::<Vec<_>>());
            s.drain();
            s.finish(60_000.0)
        };
        let thrash = run(1);
        let clean = run(2);
        let thrash_reconfigs: usize = thrash.devices.iter().map(|d| d.reconfigs).sum();
        let clean_reconfigs: usize = clean.devices.iter().map(|d| d.reconfigs).sum();
        assert!(thrash_reconfigs >= 10, "{thrash_reconfigs}");
        assert_eq!(clean_reconfigs, 0);
        // Median: every thrashing request pays two swaps; the clean setup
        // only pays the initial bitstream loads on the first request.
        assert!(thrash.latency.p50() > clean.latency.p50() * 5.0);
    }

    #[test]
    fn power_integrates_idle_plus_active() {
        let mut s = sim(
            vec![fpga_impl(0, 10.0), fpga_impl(1, 10.0)],
            Pool::heterogeneous(0, 1),
        );
        // No arrivals at all: pure idle for 1 s at the preloaded
        // bitstream's idle power (5 W in the test implementation).
        let r = s.finish(1000.0);
        assert!((r.avg_power_w - 5.0).abs() < 1e-9);
        assert!((r.energy_j - 5.0).abs() < 1e-9);
    }

    #[test]
    fn violation_ratio_reflects_bound() {
        let mut s = sim(
            vec![fpga_impl(0, 150.0), fpga_impl(1, 150.0)],
            Pool::heterogeneous(0, 2),
        );
        s.enqueue_arrivals(&[0.0]);
        s.drain();
        let r = s.finish(10_000.0);
        // 150 + reconfig 220 + transfer... way over the 200 ms bound.
        assert_eq!(r.qos_violation_ratio, 1.0);
    }

    #[test]
    fn counter_deltas_count_a_window_then_nothing() {
        let mut s = sim(
            vec![fpga_impl(0, 5.0), fpga_impl(1, 5.0)],
            Pool::heterogeneous(0, 2),
        );
        let before = s.counters();
        s.enqueue_arrivals(&[0.0, 1.0]);
        s.advance_to(5_000.0);
        let r = s.finish(5_000.0);
        assert_eq!((r.arrived, r.completed), (2, 2));
        let d = s.counters().delta(&before);
        assert_eq!((d.admitted, d.completed), (2, 2));
        assert_eq!(s.window_latencies().len(), 2);
        drop(r);

        let before = s.counters();
        s.reset_accounting();
        let r = s.finish(6_000.0);
        assert_eq!((r.arrived, r.completed), (0, 0));
        assert!(r.latency.is_empty());
        assert!(s.window_latencies().is_empty());
        assert_eq!(s.counters().delta(&before), Counters::default());
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

    #[test]
    fn kernel_breakdown_accounts_every_request() {
        let mut s = sim(
            vec![fpga_impl(0, 10.0), fpga_impl(1, 10.0)],
            Pool::heterogeneous(0, 2),
        );
        s.enqueue_arrivals(&[0.0, 1.0, 2.0]);
        s.drain();
        let r = s.finish(10_000.0);
        assert_eq!(r.kernels.len(), 2);
        for ks in &r.kernels {
            assert_eq!(ks.requests, 3, "{ks:?}");
            assert!(ks.executions >= 1);
            assert!(ks.busy_ms > 0.0);
            assert!(ks.mean_batch() >= 1.0);
            assert!(ks.mean_wait_ms() >= 0.0);
        }
    }

    #[test]
    #[should_panic(expected = "no device of kind")]
    fn missing_platform_panics() {
        let mut s = sim(
            vec![gpu_impl(0, 10.0, 1), fpga_impl(1, 10.0)],
            Pool::heterogeneous(0, 1), // no GPU!
        );
        s.enqueue_arrivals(&[0.0]);
        s.drain();
    }

    // --- fault injection ---------------------------------------------------

    fn graph1() -> KernelGraph {
        let k = KernelBuilder::new("a")
            .pattern("m", PatternKind::Map, Shape::d1(1024), &[OpFunc::Mac])
            .build()
            .unwrap();
        KernelGraphBuilder::new("app").kernel(k).build().unwrap()
    }

    #[test]
    fn fail_stop_retries_inflight_on_survivor() {
        // Two FPGAs, both preloaded with the kernel. The request starts on
        // its home device (0); device 0 dies mid-execution at t = 5 and the
        // work is retried on device 1, completing at 5 + 10 = 15.
        let mut s = Simulator::new(
            graph1(),
            &Pool::heterogeneous(0, 2),
            Policy::from_impls(vec![fpga_impl(0, 10.0)]),
            SimConfig::default(),
        );
        s.inject_faults(&FaultPlan::new().fail_stop(5.0, 0));
        s.enqueue_arrivals(&[0.0]);
        s.drain();
        let r = s.finish(1000.0);
        assert_eq!(r.completed, 1);
        let c = s.counters();
        assert_eq!((c.fail_stops, c.retry.device_retries), (1, 1));
        assert!(
            (r.latency.max() - 15.0).abs() < 1e-6,
            "retried completion at 15, got {}",
            r.latency.max()
        );
    }

    #[test]
    fn fail_stop_strands_until_recovery() {
        // The only GPU dies before the request arrives: the work strands
        // (no healthy device of its kind) until the recovery at t = 100
        // re-dispatches it.
        let mut s = Simulator::new(
            graph1(),
            &Pool::heterogeneous(1, 0),
            Policy::from_impls(vec![gpu_impl(0, 20.0, 1)]),
            SimConfig::default(),
        );
        s.inject_faults(&FaultPlan::new().fail_stop(5.0, 0).recover(100.0, 0));
        s.enqueue_arrivals(&[10.0]);
        s.advance_to(50.0);
        assert_eq!(s.healthy_devices(), 0);
        assert!(s.available_pool().is_empty());
        assert_eq!(s.queued(), 1, "request parked while the pool is empty");
        s.drain();
        let r = s.finish(1000.0);
        assert_eq!(r.completed, 1);
        assert!(
            r.latency.max() >= 90.0,
            "latency includes the outage window: {}",
            r.latency.max()
        );
    }

    #[test]
    fn slowdown_derates_execution_until_recovery() {
        let mut s = Simulator::new(
            graph1(),
            &Pool::heterogeneous(0, 1),
            Policy::from_impls(vec![fpga_impl(0, 10.0)]),
            SimConfig::default(),
        );
        s.inject_faults(&FaultPlan::new().slow_down(0.0, 0, 2.0).recover(100.0, 0));
        s.enqueue_arrivals(&[0.0, 200.0]);
        s.drain();
        let r = s.finish(1000.0);
        assert_eq!(r.completed, 2);
        // Throttled request takes 2 × 10 ms; post-recovery one is nominal.
        assert!((r.latency.max() - 20.0).abs() < 1e-6, "{}", r.latency.max());
        assert!(
            (r.latency.quantile(0.01) - 10.0).abs() < 1e-6,
            "{}",
            r.latency.quantile(0.01)
        );
        assert_eq!(s.counters().fail_stops, 0, "a slowdown is not a fail-stop");
    }

    #[test]
    fn failed_device_draws_no_power() {
        // Idle FPGA at 5 W dies at t = 400: only 400 ms of idle energy is
        // accounted over the 1 s window.
        let mut s = Simulator::new(
            graph1(),
            &Pool::heterogeneous(0, 1),
            Policy::from_impls(vec![fpga_impl(0, 10.0)]),
            SimConfig::default(),
        );
        s.inject_faults(&FaultPlan::new().fail_stop(400.0, 0));
        let r = s.finish(1000.0);
        assert!((r.energy_j - 2.0).abs() < 1e-9, "{}", r.energy_j);
        assert!((r.avg_power_w - 2.0).abs() < 1e-9, "{}", r.avg_power_w);
    }

    #[test]
    fn available_pool_reflects_health() {
        let mut s = Simulator::new(
            graph1(),
            &Pool::heterogeneous(1, 2),
            Policy::from_impls(vec![fpga_impl(0, 10.0)]),
            SimConfig::default(),
        );
        s.inject_faults(&FaultPlan::new().fail_stop(10.0, 0).recover(30.0, 0));
        s.advance_to(20.0);
        assert_eq!(s.available_pool(), Pool::heterogeneous(0, 2));
        assert_eq!(s.healthy_devices(), 2);
        s.advance_to(40.0);
        assert_eq!(s.available_pool(), Pool::heterogeneous(1, 2));
        assert_eq!(s.healthy_devices(), 3);
    }

    #[test]
    fn fault_counter_deltas_count_a_window_then_nothing() {
        let mut s = Simulator::new(
            graph1(),
            &Pool::heterogeneous(0, 2),
            Policy::from_impls(vec![fpga_impl(0, 10.0)]),
            SimConfig::default(),
        );
        s.inject_faults(&FaultPlan::new().fail_stop(5.0, 0).recover(50.0, 0));
        let before = s.counters();
        s.enqueue_arrivals(&[0.0]);
        s.advance_to(100.0);
        let d = s.counters().delta(&before);
        assert_eq!(d.fault_events, 2, "fail-stop + recovery");
        assert_eq!(d.fail_stops, 1);
        assert_eq!(d.retry.device_retries, 1);
        let before = s.counters();
        s.advance_to(200.0);
        let d = s.counters().delta(&before);
        assert_eq!((d.fault_events, d.retry.device_retries), (0, 0));
    }

    #[test]
    fn cancel_pending_abandons_incomplete_requests() {
        // Single FPGA, 10 ms service: at t = 25 the first two requests are
        // done and three are queued or in flight. Draining the node
        // abandons exactly those three; they never complete.
        let mut s = Simulator::new(
            graph1(),
            &Pool::heterogeneous(0, 1),
            Policy::from_impls(vec![fpga_impl(0, 10.0)]),
            SimConfig::default(),
        );
        s.enqueue_arrivals(&[0.0, 1.0, 2.0, 3.0, 4.0]);
        s.advance_to(25.0);
        let cancelled = s.cancel_pending();
        assert_eq!(cancelled, 3);
        assert_eq!(s.queued(), 0, "queues drained");
        s.drain();
        let r = s.finish(1000.0);
        assert_eq!(r.completed, 2, "abandoned requests never complete");
        // A second drain has nothing left to cancel.
        assert_eq!(s.cancel_pending(), 0);
    }

    #[test]
    fn cancel_pending_preserves_scripted_recovery() {
        // The only device fails at t = 5 stranding the request; the router
        // drains the node, but the scripted recovery at t = 100 still
        // fires and the node serves fresh traffic afterwards.
        let mut s = Simulator::new(
            graph1(),
            &Pool::heterogeneous(0, 1),
            Policy::from_impls(vec![fpga_impl(0, 10.0)]),
            SimConfig::default(),
        );
        s.inject_faults(&FaultPlan::new().fail_stop(5.0, 0).recover(100.0, 0));
        s.enqueue_arrivals(&[0.0]);
        s.advance_to(50.0);
        assert_eq!(s.healthy_devices(), 0);
        assert_eq!(s.cancel_pending(), 1);
        s.advance_to(150.0);
        assert_eq!(s.healthy_devices(), 1, "recovery survives the drain");
        s.enqueue_arrivals(&[150.0]);
        s.drain();
        let r = s.finish(1000.0);
        assert_eq!(r.completed, 1, "post-recovery traffic is served");
    }

    // --- batch-hold deferral gate ------------------------------------------

    /// One GPU, one batch-8 kernel with a 40 ms wait budget
    /// (0.6 × 200 ms bound − 80 ms full-batch latency).
    fn hold_sim() -> Simulator {
        let imp = KernelImpl {
            kernel: KernelId(0),
            kind: DeviceKind::Gpu,
            impl_index: 0,
            latency_ms: 80.0,
            latency_single_ms: 20.0,
            service_ms: 10.0,
            batch: 8,
            active_power_w: 200.0,
            idle_power_w: 40.0,
        };
        Simulator::new(
            graph1(),
            &Pool::heterogeneous(1, 0),
            Policy::from_impls(vec![imp]),
            SimConfig::default(),
        )
    }

    /// Queue two same-kernel requests directly (bypassing the arrival
    /// EWMA) so the `same >= 2` gate is reachable with a chosen
    /// `arrival_rate`. Marks the last arrival as "now" so the chosen
    /// rate reads as fresh, not stale.
    fn seed_two(s: &mut Simulator) {
        s.last_arrival_ms = s.now;
        for i in 0..2 {
            let req = s.requests.push(s.now, f64::INFINITY);
            assert_eq!(req, i);
            s.devices[0].queue.push_back(WorkItem {
                req,
                kernel: KernelId(0),
                ready_ms: s.now,
                est_ns: ms_to_ns(s.policy.of(KernelId(0)).service_ms),
                alt: 0,
                hedge: false,
            });
        }
    }

    #[test]
    fn batch_hold_skipped_at_zero_arrival_rate() {
        let mut s = hold_sim();
        seed_two(&mut s);
        s.arrival_rate = 0.0;
        s.try_start(0);
        assert!(
            s.devices[0].executing,
            "zero arrival rate must launch immediately, not divide by zero"
        );
    }

    #[test]
    fn batch_hold_skipped_at_near_zero_arrival_rate() {
        // A vanishing rate passes the `> 0` gate but predicts an absurd
        // fill time, so the fill-within-slack check launches immediately.
        let mut s = hold_sim();
        seed_two(&mut s);
        s.arrival_rate = 1e-9;
        s.try_start(0);
        assert!(s.devices[0].executing);
    }

    #[test]
    fn batch_hold_skipped_when_rate_estimate_is_stale() {
        // The EWMA still reads one arrival per ms from an old burst, but
        // nothing has arrived for 12 ms. The gap refutes the estimate
        // (capped rate 1/12), the predicted fill blows the 40 ms budget,
        // and the partial batch launches instead of waiting it out.
        let mut s = hold_sim();
        seed_two(&mut s);
        s.now = 12.0;
        s.arrival_rate = 1.0;
        s.last_arrival_ms = 0.0;
        s.try_start(0);
        assert!(s.devices[0].executing, "stale rate must not hold the batch");
    }

    #[test]
    fn batch_hold_skipped_when_deadline_passed() {
        // Requests arrived at t = 0 with a 40 ms budget; at t = 50 the
        // deadline is in the past and the partial batch must launch now.
        let mut s = hold_sim();
        seed_two(&mut s);
        s.now = 50.0;
        s.arrival_rate = 1.0;
        s.try_start(0);
        assert!(s.devices[0].executing);
    }

    #[test]
    fn batch_hold_defers_when_fill_lands_exactly_on_deadline() {
        // fill_ms = (8 − 2) / (0.25 / 1 peer) = 24; at t = 16 the batch
        // fills exactly at the 40 ms deadline (16 + 24 = 40), which the
        // `<=` comparison accepts: the device waits, capped at the
        // deadline, then launches.
        let mut s = hold_sim();
        seed_two(&mut s);
        s.now = 16.0;
        s.last_arrival_ms = s.now; // fresh estimate: an arrival just landed
        s.arrival_rate = 0.25;
        s.try_start(0);
        assert!(!s.devices[0].executing, "batch held open");
        let wake = s.events.peek_time().expect("wake event queued");
        assert_eq!(wake, 40.0, "wake capped at the deadline");
        s.advance_to(40.0);
        assert!(s.devices[0].executing, "partial batch launched at deadline");
        s.drain();
        let r = s.finish(1000.0);
        assert_eq!(r.completed, 2);
    }

    #[test]
    fn burst_after_idle_launches_partial_batches_promptly() {
        // The arrival-rate EWMA only updates on arrivals, so after a
        // synchronized burst followed by silence it stays frozen at its
        // peak. A second burst must not be held the full wait budget on
        // the strength of that stale estimate: the gap since the last
        // arrival caps the rate, so partial batches launch promptly and
        // deadlined requests survive.
        let mut s = Simulator::new(
            graph2(),
            &Pool::heterogeneous(2, 2),
            Policy::from_impls(vec![gpu_impl(0, 40.0, 8), fpga_impl(1, 10.0)]),
            SimConfig {
                lifecycle: LifecycleConfig {
                    deadline_factor: Some(2.0),
                    retry: RetryPolicy::Backoff(BackoffPolicy::default()),
                    hedge: Some(HedgeConfig::default()),
                },
                ..SimConfig::default()
            },
        );
        let warm: Vec<f64> = (0..50).map(|i| i as f64 * 15.0).collect();
        s.enqueue_arrivals(&warm);
        s.advance_to(1000.0);
        let before = s.audit();
        // Quiet gap, then bursts of 32 simultaneous arrivals (the shape a
        // half-open breaker's probe quota or a drained backlog produces).
        for i in 0..5 {
            let t = 10_000.0 + i as f64 * 10_000.0;
            s.enqueue_arrivals(&vec![t; 32]);
            s.advance_to(t + 10_000.0);
        }
        let a = s.audit();
        a.check().expect("audit green");
        assert!(
            a.completed - before.completed > 100,
            "bursts must complete: {}",
            a.completed - before.completed
        );
    }

    // --- request lifecycle: deadlines, bounded retries, hedging ------------

    fn lifecycle_sim(lifecycle: LifecycleConfig) -> Simulator {
        Simulator::new(
            graph1(),
            &Pool::heterogeneous(0, 2),
            Policy::from_impls(vec![fpga_impl(0, 10.0)]),
            SimConfig {
                lifecycle,
                ..SimConfig::default()
            },
        )
    }

    #[test]
    fn deadline_cancels_doomed_work() {
        // Single FPGA, 10 ms latency, deadline = arrival + 25 ms
        // (0.125 × 200 ms bound). Ten simultaneous arrivals: the first two
        // complete (10, 20 ms); everything else is past its deadline at
        // t = 25 and is cancelled — queued and in-flight alike.
        let mut s = Simulator::new(
            graph1(),
            &Pool::heterogeneous(0, 1),
            Policy::from_impls(vec![fpga_impl(0, 10.0)]),
            SimConfig {
                lifecycle: LifecycleConfig {
                    deadline_factor: Some(0.125),
                    ..LifecycleConfig::default()
                },
                ..SimConfig::default()
            },
        );
        s.enqueue_arrivals(&[0.0; 10]);
        s.drain();
        let r = s.finish(1000.0);
        assert_eq!(r.completed, 2);
        let a = s.audit();
        a.check().expect("audit invariants hold");
        assert_eq!(a.completed, 2);
        assert_eq!(a.timed_out, 8);
        assert_eq!(a.pending, 0);
        assert!(
            a.refunded_busy_mj > 0.0,
            "the in-flight victim's booked busy energy is refunded"
        );
        assert!(a.refunded_busy_mj <= a.booked_busy_mj);
    }

    #[test]
    fn deadline_budget_propagates_across_stages() {
        // Two-stage DAG under a 200 ms bound with factor 1.0: the budget
        // shrinks monotonically as the request advances and is never
        // negative at any point the clock stops at.
        let mut s = Simulator::new(
            graph2(),
            &Pool::heterogeneous(0, 2),
            Policy::from_impls(vec![fpga_impl(0, 10.0), fpga_impl(1, 20.0)]),
            SimConfig {
                lifecycle: LifecycleConfig {
                    deadline_factor: Some(1.0),
                    ..LifecycleConfig::default()
                },
                ..SimConfig::default()
            },
        );
        s.enqueue_arrivals(&[0.0]);
        let mut last = s.remaining_budget_ms(0);
        assert!((last - 200.0).abs() < 1e-9, "{last}");
        for t in [5.0, 10.0, 15.0, 30.0, 250.0] {
            s.advance_to(t);
            let b = s.remaining_budget_ms(0);
            assert!(b >= 0.0, "budget never negative: {b}");
            assert!(b <= last + 1e-9, "budget monotone: {b} after {last}");
            last = b;
        }
        let r = s.finish(1000.0);
        assert_eq!(r.completed, 1, "in-budget request completes normally");
        assert_eq!(s.counters().timed_out, 0);
        assert_eq!(s.remaining_budget_ms(0), 0.0, "budget exhausted at 250+");
        s.audit().check().expect("audit invariants hold");
    }

    #[test]
    fn backoff_delays_the_retry() {
        // Same scenario as `fail_stop_retries_inflight_on_survivor`, but
        // with jitter-free backoff: the retry waits base_ms = 5 ms, so the
        // victim completes at 5 (kill) + 5 (backoff) + 10 = 20 ms instead
        // of 15.
        let mut s = lifecycle_sim(LifecycleConfig {
            retry: RetryPolicy::Backoff(BackoffPolicy {
                jitter_frac: 0.0,
                ..BackoffPolicy::default()
            }),
            ..LifecycleConfig::default()
        });
        s.inject_faults(&FaultPlan::new().fail_stop(5.0, 0));
        s.enqueue_arrivals(&[0.0]);
        s.drain();
        let r = s.finish(1000.0);
        assert_eq!(r.completed, 1);
        assert_eq!(s.retry_stats().device_retries, 1);
        assert_eq!(s.retry_stats().exhausted, 0);
        assert!(
            (r.latency.max() - 20.0).abs() < 1e-6,
            "retry delayed by 5 ms backoff, got {}",
            r.latency.max()
        );
        s.audit().check().expect("audit invariants hold");
    }

    #[test]
    fn exhausted_retry_budget_fails_the_request() {
        // One FPGA that keeps dying mid-execution. max_retries = 1: the
        // first kill retries (after 5 ms), the second kill exhausts the
        // budget and the request is failed — not retried forever.
        let mut s = Simulator::new(
            graph1(),
            &Pool::heterogeneous(0, 1),
            Policy::from_impls(vec![fpga_impl(0, 10.0)]),
            SimConfig {
                lifecycle: LifecycleConfig {
                    retry: RetryPolicy::Backoff(BackoffPolicy {
                        max_retries: 1,
                        jitter_frac: 0.0,
                        ..BackoffPolicy::default()
                    }),
                    ..LifecycleConfig::default()
                },
                ..SimConfig::default()
            },
        );
        // Kill at 5 (retry dispatches at 10), recover at 6, kill again at
        // 12 mid-retry: attempt 2 > max_retries 1 → failed.
        s.inject_faults(
            &FaultPlan::new()
                .fail_stop(5.0, 0)
                .recover(6.0, 0)
                .fail_stop(12.0, 0)
                .recover(13.0, 0),
        );
        s.enqueue_arrivals(&[0.0]);
        s.drain();
        let r = s.finish(1000.0);
        assert_eq!(r.completed, 0, "request failed, not completed");
        assert_eq!(s.retry_stats().device_retries, 1);
        assert_eq!(s.retry_stats().exhausted, 1);
        let a = s.audit();
        a.check().expect("audit invariants hold");
        assert_eq!(a.failed, 1);
        assert_eq!(a.pending, 0);
    }

    #[test]
    fn hedge_fires_against_slow_primary_and_wins() {
        // Warm the latency window with 8 nominal requests (~10 ms each),
        // then derate device 0 by 5×. The next request's primary copy
        // takes 50 ms; the hedge fires at ~10 ms on device 1 and wins.
        let mut s = lifecycle_sim(LifecycleConfig {
            hedge: Some(HedgeConfig {
                quantile: 0.95,
                min_delay_ms: 1.0,
                window: 16,
                min_samples: 4,
            }),
            ..LifecycleConfig::default()
        });
        let warmup: Vec<f64> = (0..8).map(|i| f64::from(i) * 50.0).collect();
        s.enqueue_arrivals(&warmup);
        s.advance_to(400.0);
        s.inject_faults(&FaultPlan::new().slow_down(400.0, 0, 5.0));
        s.enqueue_arrivals(&[450.0]);
        s.drain();
        let r = s.finish(1000.0);
        assert_eq!(r.completed, 9);
        assert_eq!(s.retry_stats().hedges_fired, 1);
        assert_eq!(s.retry_stats().hedge_wins, 1);
        // The hedged request finished well under the derated 50 ms.
        assert!(r.latency.max() < 40.0, "{}", r.latency.max());
        let a = s.audit();
        a.check().expect("audit invariants hold");
        assert_eq!(
            a.stale_completions, 1,
            "the losing copy's completion event arrives stale"
        );
        assert!(
            a.refunded_busy_mj > 0.0,
            "loser's booked busy time refunded"
        );
    }

    #[test]
    fn hedge_suppressed_when_every_alternate_is_backlogged() {
        // A synchronized burst puts queued work on both devices; every
        // stage out-waits the hedge delay, but duplicating into an
        // equally backlogged peer queue would only double the load. The
        // load guard must suppress all of them.
        let mut s = lifecycle_sim(LifecycleConfig {
            hedge: Some(HedgeConfig {
                quantile: 0.95,
                min_delay_ms: 1.0,
                window: 16,
                min_samples: 4,
            }),
            ..LifecycleConfig::default()
        });
        let warmup: Vec<f64> = (0..8).map(|i| f64::from(i) * 50.0).collect();
        s.enqueue_arrivals(&warmup);
        s.advance_to(400.0);
        s.enqueue_arrivals(&[450.0; 10]);
        s.drain();
        let r = s.finish(1000.0);
        assert_eq!(r.completed, 18);
        assert_eq!(
            s.retry_stats().hedges_fired,
            0,
            "no hedge may fire into a backlogged queue"
        );
        s.audit().check().expect("audit invariants hold");
    }

    #[test]
    fn cancel_pending_is_idempotent_and_refunds_once() {
        // Empty simulator: nothing to cancel.
        let mut empty = lifecycle_sim(LifecycleConfig::default());
        assert_eq!(empty.cancel_pending(), 0);
        assert_eq!(empty.cancel_pending(), 0);
        empty.audit().check().expect("empty audit holds");

        // Mid-execution drain: the running request is cancelled, its
        // remaining busy energy refunded exactly once; the second call is
        // a no-op (no double count, no double refund).
        let mut s = Simulator::new(
            graph1(),
            &Pool::heterogeneous(0, 1),
            Policy::from_impls(vec![fpga_impl(0, 10.0)]),
            SimConfig::default(),
        );
        s.enqueue_arrivals(&[0.0, 1.0]);
        s.advance_to(5.0);
        assert_eq!(s.cancel_pending(), 2);
        let refunded = s.audit().refunded_busy_mj;
        assert!(refunded > 0.0, "in-flight execution refunded");
        assert_eq!(s.cancel_pending(), 0, "second drain is a no-op");
        assert_eq!(
            s.audit().refunded_busy_mj,
            refunded,
            "no double busy-energy refund"
        );
        s.drain();
        let r = s.finish(1000.0);
        assert_eq!(r.completed, 0);
        let a = s.audit();
        a.check().expect("audit invariants hold");
        assert_eq!(a.cancelled, 2);
        assert_eq!(a.pending, 0);
        // Energy books: 5 ms of busy time at 25 W remain accounted, the
        // rest of the 10 ms execution was refunded.
        assert!(a.refunded_busy_mj <= a.booked_busy_mj);
    }

    #[test]
    fn batch_hold_light_load_drains_without_deferral() {
        // Widely spaced arrivals never form a partial batch (`same >= 2`
        // fails), so every request starts immediately at single-request
        // latency.
        let mut s = hold_sim();
        let arrivals: Vec<f64> = (0..5).map(|i| f64::from(i) * 300.0).collect();
        s.enqueue_arrivals(&arrivals);
        s.drain();
        let r = s.finish(5000.0);
        assert_eq!(r.completed, 5);
        assert!(r.latency.max() < 30.0, "{}", r.latency.max());
    }

    /// Regression for the queue-delay estimate: pricing every queued
    /// entry at the *candidate's* `service_ms` (the old formula) sees a
    /// queue of one 100 ms entry as "one × 10 ms" and misroutes new work
    /// onto the device with the expensive backlog. Summing each entry's
    /// own estimate routes to the genuinely shorter queue.
    #[test]
    fn mixed_cost_queue_estimate_routes_to_cheapest_backlog() {
        let mut s = sim(
            vec![gpu_impl(0, 10.0, 1), gpu_impl(1, 10.0, 1)],
            Pool::heterogeneous(2, 0),
        );
        // Home for kernel 0 is device 0; it holds one expensive queued
        // stage (est 100 ms). Device 1 holds two cheap ones (1 ms each).
        for (dev, est) in [(0usize, 100.0), (1, 1.0), (1, 1.0)] {
            s.devices[dev].queue.push_back(WorkItem {
                req: 0,
                kernel: KernelId(1),
                ready_ms: 0.0,
                est_ns: ms_to_ns(est),
                alt: 0,
                hedge: false,
            });
        }
        let imp = gpu_impl(0, 10.0, 1);
        let (dev, score) = s
            .choose_device_for(&imp, None, true)
            .expect("healthy GPUs exist");
        // New pricing: dev0 = 100, dev1 = 2 + 10 (spill) = 12. The old
        // per-candidate formula gave dev0 = 1×10 = 10 vs dev1 = 2×10 +
        // 10 = 30 and picked the 100 ms backlog.
        assert_eq!(dev, 1, "must avoid the expensive backlog");
        assert!((score - 12.0).abs() < 1e-9, "score {score}");
    }

    /// A policy for the dynamic-layer tests: GPU front stage with an
    /// FPGA alternate, FPGA back stage with a second (faster, hungrier)
    /// FPGA implementation as its alternate.
    fn dyn_policy() -> Policy {
        let p0 = gpu_impl(0, 40.0, 8);
        let p1 = fpga_impl(1, 12.0);
        let alt0 = KernelImpl {
            impl_index: 1,
            ..fpga_impl(0, 30.0)
        };
        let alt1 = KernelImpl {
            impl_index: 1,
            latency_ms: 8.0,
            latency_single_ms: 8.0,
            service_ms: 7.2,
            active_power_w: 60.0,
            ..fpga_impl(1, 8.0)
        };
        Policy::from_impls(vec![p0, p1]).with_alternate_impls(vec![vec![p0, alt0], vec![p1, alt1]])
    }

    fn burst_arrivals() -> Vec<f64> {
        // Bursty: ramped clumps that backlog the GPU batch stage.
        (0..200).map(|i| f64::from(i / 8) * 20.0).collect()
    }

    fn sizes_for(n: usize) -> Vec<f64> {
        crate::workload::SizeDist::heavy_tail().sample(n, 7)
    }

    fn run_dyn(policy: Policy, dynamic: Option<DynamicDispatch>) -> (SimReport, RetryStats) {
        let mut s = Simulator::new(
            graph2(),
            &Pool::heterogeneous(1, 2),
            policy,
            SimConfig {
                dynamic,
                ..SimConfig::default()
            },
        );
        let arrivals = burst_arrivals();
        let sizes = sizes_for(arrivals.len());
        s.enqueue_arrivals_sized(&arrivals, &sizes);
        s.drain();
        s.audit().check().expect("audit invariants hold");
        (s.finish(60_000.0), s.retry_stats())
    }

    /// With the dynamic layer off, carrying alternates must change
    /// nothing, and turning the knob on without alternates must be
    /// equally inert — both reduce to the static plan bit-for-bit.
    #[test]
    fn dynamic_off_is_byte_identical_to_static() {
        let (baseline, _) = run_dyn(
            Policy::from_impls(vec![gpu_impl(0, 40.0, 8), fpga_impl(1, 12.0)]),
            None,
        );
        let (with_alts, _) = run_dyn(dyn_policy(), None);
        let (knob_only, _) = run_dyn(
            Policy::from_impls(vec![gpu_impl(0, 40.0, 8), fpga_impl(1, 12.0)]),
            Some(DynamicDispatch::default()),
        );
        for (name, r) in [("alternates-off", &with_alts), ("knob-no-alts", &knob_only)] {
            assert_eq!(r.completed, baseline.completed, "{name}");
            assert_eq!(r.energy_j.to_bits(), baseline.energy_j.to_bits(), "{name}");
            let (a, b) = (baseline.latency.samples(), r.latency.samples());
            assert_eq!(a.len(), b.len(), "{name}");
            assert!(
                a.iter().zip(b).all(|(x, y)| x.to_bits() == y.to_bits()),
                "{name}: latency stream diverged"
            );
        }
    }

    /// The dynamic chooser is deterministic: two identical runs produce
    /// bit-identical latency streams, energy, and steal counts.
    #[test]
    fn dynamic_chooser_is_deterministic() {
        let (a, a_retry) = run_dyn(dyn_policy(), Some(DynamicDispatch::default()));
        let (b, b_retry) = run_dyn(dyn_policy(), Some(DynamicDispatch::default()));
        assert_eq!(a.completed, b.completed);
        assert_eq!(a.energy_j.to_bits(), b.energy_j.to_bits());
        assert_eq!(a_retry.steals, b_retry.steals);
        assert!(a
            .latency
            .samples()
            .iter()
            .zip(b.latency.samples())
            .all(|(x, y)| x.to_bits() == y.to_bits()));
    }

    /// Work stealing is a pure same-implementation queue migration: an
    /// idle device with the right bitstream takes the tail of the
    /// deepest backlog, unchanged.
    #[test]
    fn steal_migrates_tail_to_idle_same_impl_device() {
        let mut s = Simulator::new(
            graph2(),
            &Pool::heterogeneous(0, 2),
            Policy::from_impls(vec![fpga_impl(0, 10.0), fpga_impl(1, 20.0)])
                .with_alternate_impls(vec![vec![fpga_impl(0, 10.0)], vec![fpga_impl(1, 20.0)]]),
            SimConfig {
                dynamic: Some(DynamicDispatch::default()),
                ..SimConfig::default()
            },
        );
        // A far-future arrival materializes request 0 in the arena so a
        // stolen stage can actually start on the thief.
        s.enqueue_arrivals(&[1e9]);
        // Both devices hold kernel 0's bitstream; device 1 has the
        // backlog, device 0 is idle.
        s.devices[0].loaded = Some((KernelId(0), 0));
        s.devices[1].loaded = Some((KernelId(0), 0));
        let item = WorkItem {
            req: 0,
            kernel: KernelId(0),
            ready_ms: 0.0,
            est_ns: ms_to_ns(9.0),
            alt: 0,
            hedge: false,
        };
        // One queued entry is below the two-entry floor: no steal.
        s.devices[1].queue.push_back(item);
        s.try_steal(0);
        assert_eq!(
            s.counters.retry.steals, 0,
            "single-entry queues are not farmed"
        );
        // Two entries: the thief takes the tail and starts it; the
        // victim keeps its front.
        s.devices[1].queue.push_back(item);
        s.try_steal(0);
        assert_eq!(s.counters.retry.steals, 1);
        assert_eq!(
            s.devices[0].queue.len() + s.devices[0].inflight.len(),
            1,
            "tail moved to the thief"
        );
        assert_eq!(s.devices[1].queue.len(), 1, "victim keeps its front");
    }

    /// Deadline cancellation interacts with per-request sizes through
    /// the DAG budget: an oversized request whose size-scaled stages
    /// overrun `deadline_factor × bound` is abandoned at its deadline,
    /// while a nominal one sharing the run completes — and the audit
    /// stays conserved with the refunded busy energy booked once.
    #[test]
    fn deadline_cancellation_respects_request_sizes() {
        let mut s = Simulator::new(
            graph2(),
            &Pool::heterogeneous(0, 2),
            Policy::from_impls(vec![fpga_impl(0, 40.0), fpga_impl(1, 40.0)]),
            SimConfig {
                lifecycle: LifecycleConfig {
                    deadline_factor: Some(2.0),
                    ..LifecycleConfig::default()
                },
                ..SimConfig::default()
            },
        );
        // size 8 ⇒ FPGA scale 0.1 + 0.9×8 = 7.3 ⇒ ≈292 ms per stage;
        // two stages blow through its 450 ms deadline mid-flight on the
        // second stage. size 1 finishes both stages in ~80 ms.
        s.enqueue_arrivals_sized(&[0.0, 50.0], &[1.0, 8.0]);
        s.drain();
        let r = s.finish(5_000.0);
        let a = s.audit();
        a.check().expect("audit invariants hold");
        assert_eq!(r.completed, 1, "nominal request completes");
        assert_eq!(a.timed_out, 1, "oversized request hits its deadline");
        assert_eq!(a.terminal(), 2, "both requests reach a terminal state");
        assert!(
            a.refunded_busy_mj > 0.0,
            "the cancelled stage's remaining busy energy is refunded"
        );
        assert!(
            r.latency.max() < 200.0,
            "the survivor is not delayed past the bound by the doomed one: {}",
            r.latency.max()
        );
    }
}
