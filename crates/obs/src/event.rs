//! Telemetry event schema: primitives only (indices, floats, `&'static
//! str` labels), so recording allocates nothing beyond the sample buffer
//! and exporters never need string escaping.

/// One telemetry event. Variants are grouped by the layer that emits
/// them: request lifecycle and device execution come from the DES,
/// `Interval` from the runtime's control loop, and the rest from the
/// cluster driver.
#[derive(Debug, Clone, PartialEq)]
pub enum Event {
    /// A request entered the system (all of its kernel stages enqueued).
    ReqEnqueue {
        /// Request index within the current segment.
        req: usize,
        /// Absolute deadline in sim-ms (`f64::INFINITY` when deadlines
        /// are disabled).
        deadline_ms: f64,
    },
    /// A kernel stage was placed on a device queue.
    StageDispatch {
        /// Request index.
        req: usize,
        /// Kernel index within the application graph.
        kernel: usize,
        /// Device index within the pool.
        device: usize,
        /// Attempt number (0 = first try, >0 = retry).
        attempt: u32,
        /// Whether this is a hedge duplicate.
        hedge: bool,
    },
    /// A kernel stage had no live device to run on and was stranded.
    StageStranded {
        /// Request index.
        req: usize,
        /// Kernel index.
        kernel: usize,
    },
    /// A device started executing a batch (one span on the device's
    /// timeline row; per-request detail rides on `StageStart`).
    ExecStart {
        /// Device index within the pool.
        device: usize,
        /// Device kind label ("gpu" / "fpga").
        device_kind: &'static str,
        /// Execution backend the span's timing came from ("analytical"
        /// = modeled, "cpu" = measured host execution).
        backend: &'static str,
        /// Kernel index the batch belongs to.
        kernel: usize,
        /// Implementation index chosen by the active policy.
        impl_index: usize,
        /// Number of requests in the batch.
        batch: usize,
        /// Reconfiguration stall charged before execution, ms.
        reconfig_ms: f64,
        /// Device occupancy for this batch (reconfig + occupancy), ms.
        busy_ms: f64,
        /// Latency-visible execution time for the batch, ms.
        exec_ms: f64,
    },
    /// One request's stage started executing within a batch.
    StageStart {
        /// Request index.
        req: usize,
        /// Kernel index.
        kernel: usize,
        /// Device index.
        device: usize,
        /// Attempt number.
        attempt: u32,
        /// Whether this copy is a hedge duplicate.
        hedge: bool,
        /// Time spent waiting in the device queue, ms.
        queue_wait_ms: f64,
        /// Service time until stage completion, ms.
        service_ms: f64,
    },
    /// One request's stage finished.
    StageComplete {
        /// Request index.
        req: usize,
        /// Kernel index.
        kernel: usize,
    },
    /// The hedging policy fired a duplicate stage onto another device.
    HedgeFired {
        /// Request index.
        req: usize,
        /// Kernel index.
        kernel: usize,
        /// Device the duplicate was sent to.
        device: usize,
    },
    /// The dynamic dispatch chooser overrode the interval plan's primary
    /// implementation for one request-stage.
    DynamicChoice {
        /// Request index.
        req: usize,
        /// Kernel index.
        kernel: usize,
        /// Device the stage was dispatched to.
        device: usize,
        /// Index into the policy's top-k alternate list (never 0 — the
        /// primary choice is not reported as an override).
        alt: u8,
        /// Frontier implementation index of the chosen alternate.
        impl_index: usize,
    },
    /// An idle device poached a queued stage from a backlogged peer
    /// (dynamic dispatch layer).
    WorkSteal {
        /// Request index.
        req: usize,
        /// Kernel index.
        kernel: usize,
        /// Device the entry was stolen from.
        from: usize,
        /// Idle device the entry now runs on.
        to: usize,
    },
    /// A request completed all stages.
    ReqComplete {
        /// Request index.
        req: usize,
        /// End-to-end latency, ms.
        latency_ms: f64,
    },
    /// A request was cancelled at its deadline.
    ReqTimedOut {
        /// Request index.
        req: usize,
    },
    /// A request failed permanently (retries exhausted).
    ReqFailed {
        /// Request index.
        req: usize,
    },
    /// A request was cancelled for another reason (device went down and
    /// lifecycle policy gave up, segment drain, ...).
    ReqCancelled {
        /// Request index.
        req: usize,
    },
    /// A fault-plan event was applied to a device.
    Fault {
        /// Device index.
        device: usize,
        /// Fault kind label ("fail-stop" / "slowdown" / "recover").
        kind: &'static str,
    },
    /// One control-loop interval summary from the runtime.
    Interval {
        /// Interval index within the trace.
        index: usize,
        /// Interval start, sim-ms.
        start_ms: f64,
        /// Interval length, ms.
        dur_ms: f64,
        /// Offered load for the interval, requests/s.
        offered_rps: f64,
        /// The monitor's load estimate the plan was chosen for, req/s.
        load_est_rps: f64,
        /// Whether the optimizer switched policy this interval.
        policy_changed: bool,
        /// Why the interval planned the way it did ("hold",
        /// "qos-pressure", "power-save", "degraded", "forced",
        /// "initial").
        reason: &'static str,
        /// Model-predicted p99 for the chosen policy, ms.
        predicted_p99_ms: f64,
        /// Observed p99 over the interval, ms.
        observed_p99_ms: f64,
        /// Mean power draw over the interval, W.
        power_w: f64,
        /// Requests completed in the interval.
        completed: usize,
        /// QoS violations in the interval.
        violations: usize,
    },
    /// The cluster router assigned arrivals to a node this interval.
    Route {
        /// Node index.
        node: usize,
        /// Requests routed to the node.
        assigned: usize,
    },
    /// The cluster router shed requests (every node saturated or down).
    Shed {
        /// Requests shed this interval.
        count: usize,
    },
    /// A per-node circuit breaker changed state.
    BreakerTransition {
        /// Node index.
        node: usize,
        /// Previous state label ("closed" / "open" / "half-open").
        from: &'static str,
        /// New state label.
        to: &'static str,
    },
    /// The power governor re-split the cluster budget.
    GovernorSplit {
        /// Node index.
        node: usize,
        /// New node power cap, W.
        cap_w: f64,
    },
    /// The autoscaler activated a node (it starts warming up).
    ScaleUp {
        /// Node index.
        node: usize,
        /// When the node finishes warming and becomes routable, sim-ms.
        ready_ms: f64,
    },
    /// The autoscaler drained a node out of service.
    ScaleDown {
        /// Node index.
        node: usize,
        /// Requests cancelled by the drain (redistributed by the router).
        drained: usize,
    },
    /// A spot node's revocation notice was acted on: the driver drained
    /// it ahead of the scripted fail-stop deadline.
    SpotRevoke {
        /// Node index.
        node: usize,
        /// When the capacity actually disappears, sim-ms.
        deadline_ms: f64,
        /// Requests cancelled by the proactive drain.
        drained: usize,
    },
    /// Per-class admission summary for one interval (multi-tenant
    /// routing only).
    ClassAdmission {
        /// QoS class index.
        class: usize,
        /// Requests admitted to some node.
        admitted: usize,
        /// Requests still deferred at interval end.
        deferred: usize,
        /// Requests shed.
        shed: usize,
    },
}

impl Event {
    /// Short stable label for the variant (used by exporters and CSV
    /// summaries).
    #[must_use]
    pub fn kind(&self) -> &'static str {
        match self {
            Event::ReqEnqueue { .. } => "req-enqueue",
            Event::StageDispatch { .. } => "stage-dispatch",
            Event::StageStranded { .. } => "stage-stranded",
            Event::ExecStart { .. } => "exec-start",
            Event::StageStart { .. } => "stage-start",
            Event::StageComplete { .. } => "stage-complete",
            Event::HedgeFired { .. } => "hedge-fired",
            Event::DynamicChoice { .. } => "dynamic-choice",
            Event::WorkSteal { .. } => "work-steal",
            Event::ReqComplete { .. } => "req-complete",
            Event::ReqTimedOut { .. } => "req-timed-out",
            Event::ReqFailed { .. } => "req-failed",
            Event::ReqCancelled { .. } => "req-cancelled",
            Event::Fault { .. } => "fault",
            Event::Interval { .. } => "interval",
            Event::Route { .. } => "route",
            Event::Shed { .. } => "shed",
            Event::BreakerTransition { .. } => "breaker",
            Event::GovernorSplit { .. } => "governor-split",
            Event::ScaleUp { .. } => "scale-up",
            Event::ScaleDown { .. } => "scale-down",
            Event::SpotRevoke { .. } => "spot-revoke",
            Event::ClassAdmission { .. } => "class-admission",
        }
    }
}

/// One recorded event: its sim time, a stable per-buffer sequence
/// number, and the track (cluster node) it came from. A
/// [`crate::MemRecorder`] buffer holds samples in emission order, which
/// is `seq` order; `t_ms` need not be sorted across it. A cluster run
/// records node j's whole interval before node j + 1's, so a later
/// sample can carry an earlier `t_ms`. Emission order is deterministic
/// (nodes step serially while recording), and exporters iterate it.
#[derive(Debug, Clone, PartialEq)]
pub struct Sample {
    /// Sim time the event was recorded at, ms.
    pub t_ms: f64,
    /// Stable sequence number within the owning buffer.
    pub seq: u64,
    /// Track (0 = single node / cluster driver, 1.. = cluster nodes).
    pub track: u32,
    /// The event.
    pub event: Event,
}
