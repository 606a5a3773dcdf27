//! The cluster driver: N leaf nodes behind a front-end [`Router`],
//! stepped interval-by-interval over a utilization trace on the shared
//! discrete-event clock, with a [`PowerGovernor`] re-splitting the
//! fleet power budget and node-level fault domains on top of the
//! device-level [`FaultPlan`] machinery.
//!
//! Determinism contract: given the same [`ClusterRunSpec`] inputs and
//! config, [`Cluster::run`] produces bit-identical reports *for every job
//! count*. Each node's event loop is sequential and private; interval
//! boundaries are conservative synchronization barriers, so with
//! [`set_jobs`](Cluster::set_jobs) the N node simulations of one
//! interval fan out across worker threads and their results merge in
//! node-index order — byte-identical to the serial schedule. Router and
//! governor state evolves only at barriers, in node-index order.
//! (Replays of *different* routing policies can additionally be fanned
//! out across threads without perturbing each other.)

use crate::{
    Autoscaler, BreakerConfig, BreakerState, ClassNodeView, ClusterNode, NodeShare, NodeTransition,
    NodeView, PowerGovernor, Router, RoutingPolicy, ScaleAction,
};
use poly_core::{validate_load, AppContext, NodeSetup, RunSpecError};
use poly_dse::KernelDesignSpace;
use poly_ir::KernelGraph;
use poly_obs::{Event as ObsEvent, Recorder};
use poly_par::par_map_mut;
use poly_sim::workload::{poisson, TracePoint};
use poly_sim::{
    quantile_of, AuditReport, FaultEvent, FaultKind, FaultPlan, FaultPlanError, LifecycleConfig,
    RetryStats,
};

/// Typed misconfiguration errors: a cluster that cannot run fails at
/// construction (or at the entry of a run), not somewhere mid-trace.
#[derive(Debug, Clone, PartialEq)]
pub enum ClusterError {
    /// The cluster was given no nodes.
    NoNodes,
    /// Multi-tenant nodes disagree on how many tenants they host.
    MismatchedTenancy {
        /// Offending node.
        node: usize,
        /// Its tenant count.
        classes: usize,
        /// The fleet-wide tenant count (node 0's).
        expected: usize,
    },
    /// A non-finite or non-positive re-planning interval.
    NonPositiveInterval {
        /// The offending interval, ms.
        interval_ms: f64,
    },
    /// An empty utilization trace.
    EmptyTrace,
    /// A non-finite or non-positive cluster power budget.
    InvalidBudget {
        /// The offending budget, W.
        budget_w: f64,
    },
    /// A non-finite or negative per-node power floor.
    InvalidFloor {
        /// The offending floor, W.
        floor_w: f64,
    },
    /// A non-finite or non-positive QoS bound.
    InvalidBound {
        /// The offending bound, ms.
        bound_ms: f64,
    },
    /// A traffic mix whose shares are not finite, non-negative, and
    /// sized one-per-class.
    InvalidTrafficMix,
    /// A non-finite or negative per-node static (idle) platform draw.
    InvalidStaticDraw {
        /// The offending draw, W.
        static_w: f64,
    },
    /// The node-level fault plan failed validation (out-of-range node
    /// index, overlapping revocations, …).
    FaultPlan(FaultPlanError),
    /// The load scaling or a trace utilization is not finite.
    InvalidLoad(RunSpecError),
}

impl std::fmt::Display for ClusterError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match *self {
            ClusterError::NoNodes => write!(f, "cluster needs at least one node"),
            ClusterError::MismatchedTenancy {
                node,
                classes,
                expected,
            } => write!(
                f,
                "node {node} hosts {classes} tenants but the fleet hosts {expected}"
            ),
            ClusterError::NonPositiveInterval { interval_ms } => {
                write!(
                    f,
                    "re-planning interval must be positive, got {interval_ms} ms"
                )
            }
            ClusterError::EmptyTrace => write!(f, "utilization trace is empty"),
            ClusterError::InvalidBudget { budget_w } => {
                write!(f, "cluster power budget must be positive, got {budget_w} W")
            }
            ClusterError::InvalidFloor { floor_w } => {
                write!(
                    f,
                    "per-node power floor must be non-negative, got {floor_w} W"
                )
            }
            ClusterError::InvalidBound { bound_ms } => {
                write!(f, "QoS bound must be positive, got {bound_ms} ms")
            }
            ClusterError::InvalidTrafficMix => {
                write!(
                    f,
                    "traffic mix must be one finite non-negative share per class"
                )
            }
            ClusterError::InvalidStaticDraw { static_w } => {
                write!(
                    f,
                    "per-node static draw must be non-negative, got {static_w} W"
                )
            }
            ClusterError::FaultPlan(ref e) => write!(f, "invalid node fault plan: {e}"),
            ClusterError::InvalidLoad(ref e) => write!(f, "invalid load: {e}"),
        }
    }
}

impl std::error::Error for ClusterError {}

impl From<FaultPlanError> for ClusterError {
    fn from(e: FaultPlanError) -> Self {
        ClusterError::FaultPlan(e)
    }
}

impl From<RunSpecError> for ClusterError {
    fn from(e: RunSpecError) -> Self {
        ClusterError::InvalidLoad(e)
    }
}

/// Cluster-level knobs.
#[derive(Debug, Clone)]
pub struct ClusterConfig {
    /// QoS latency bound, in milliseconds.
    pub bound_ms: f64,
    /// Front-end routing / admission policy.
    pub routing: RoutingPolicy,
    /// Cluster-wide power budget split across nodes by the governor, in
    /// watts.
    pub power_budget_w: f64,
    /// Per-node floor the governor never squeezes an up node below, in
    /// watts.
    pub node_floor_w: f64,
    /// Router deferral bound: beyond this many waiting requests excess
    /// traffic is shed instead of deferred to the next interval.
    pub max_backlog: usize,
    /// Request-lifecycle policy (deadlines, bounded retries, hedging)
    /// applied to every node's simulator. The default reproduces the
    /// legacy run-forever/retry-forever behavior bit-for-bit.
    pub lifecycle: LifecycleConfig,
    /// Per-node router circuit breakers; `None` disables them (legacy
    /// routing).
    pub breaker: Option<BreakerConfig>,
}

impl ClusterConfig {
    /// Check the config for values that cannot run: non-positive QoS
    /// bound or power budget, negative floor.
    ///
    /// # Errors
    /// The first offence, as a typed [`ClusterError`].
    pub fn validate(&self) -> Result<(), ClusterError> {
        if !self.bound_ms.is_finite() || self.bound_ms <= 0.0 {
            return Err(ClusterError::InvalidBound {
                bound_ms: self.bound_ms,
            });
        }
        if !self.power_budget_w.is_finite() || self.power_budget_w <= 0.0 {
            return Err(ClusterError::InvalidBudget {
                budget_w: self.power_budget_w,
            });
        }
        if !self.node_floor_w.is_finite() || self.node_floor_w < 0.0 {
            return Err(ClusterError::InvalidFloor {
                floor_w: self.node_floor_w,
            });
        }
        Ok(())
    }
}

/// Everything one cluster replay needs, as a builder mirroring the
/// single-node `RunSpec`: trace, pacing, and the optional layers (fault
/// plan, autoscaling, traffic mix, static node draw, telemetry, worker
/// threads).
///
/// Every spec runs through the one replay loop of [`Cluster::run`]; a
/// single-class fleet is its degenerate case, with one class and the
/// whole load on it.
///
/// ```no_run
/// # use poly_cluster::{Cluster, ClusterRunSpec};
/// # fn demo(cluster: &mut Cluster, trace: &[poly_sim::workload::TracePoint]) {
/// let report = cluster
///     .run(ClusterRunSpec::new(trace, 10_000.0, 64.0).seed(2011).jobs(4))
///     .expect("valid run");
/// # }
/// ```
pub struct ClusterRunSpec<'a> {
    trace: &'a [TracePoint],
    interval_ms: f64,
    max_rps: f64,
    seed: u64,
    faults: FaultPlan,
    autoscale: Option<crate::AutoscaleConfig>,
    traffic_mix: Option<Vec<f64>>,
    node_static_w: f64,
    jobs: Option<usize>,
    recorder: Option<Box<dyn Recorder>>,
}

impl<'a> ClusterRunSpec<'a> {
    /// A plain fault-free replay of `trace` at `max_rps` cluster-wide
    /// scaling, re-planning every `interval_ms`.
    #[must_use]
    pub fn new(trace: &'a [TracePoint], interval_ms: f64, max_rps: f64) -> Self {
        Self {
            trace,
            interval_ms,
            max_rps,
            seed: 0,
            faults: FaultPlan::new(),
            autoscale: None,
            traffic_mix: None,
            node_static_w: 0.0,
            jobs: None,
            recorder: None,
        }
    }

    /// Seed of the deterministic arrival (and revocation) streams.
    #[must_use]
    pub fn seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Node-level fault plan (`FaultEvent::device` indexes a node; each
    /// event expands to every device of that node).
    #[must_use]
    pub fn faults(mut self, faults: FaultPlan) -> Self {
        self.faults = faults;
        self
    }

    /// Elastic fleet sizing (default: the provisioned fleet stays fixed;
    /// spot revocations are still honored).
    #[must_use]
    pub fn autoscale(mut self, autoscale: crate::AutoscaleConfig) -> Self {
        self.autoscale = Some(autoscale);
        self
    }

    /// Per-class share of the offered load, one entry per tenant class
    /// (normalized over its sum). Defaults to an equal split.
    #[must_use]
    pub fn traffic_mix(mut self, mix: Vec<f64>) -> Self {
        self.traffic_mix = Some(mix);
        self
    }

    /// Static platform draw of a powered-on node in watts (fans, DRAM
    /// refresh, VRM losses — everything the kernel-level simulation's
    /// dynamic execution energy does not see). Charged per active node
    /// per interval into the reported power/energy, so scaling a node
    /// down to zero actually saves its idle draw; routing and plan
    /// selection still see dynamic power only. The default 0.0 reports
    /// the bare dynamic accounting.
    #[must_use]
    pub fn node_static_w(mut self, static_w: f64) -> Self {
        self.node_static_w = static_w;
        self
    }

    /// Worker-thread budget for stepping the node simulations (reports
    /// are byte-identical for every count). Leaves the cluster's current
    /// setting untouched when not given.
    #[must_use]
    pub fn jobs(mut self, jobs: usize) -> Self {
        self.jobs = Some(jobs);
        self
    }

    /// Attach a telemetry recorder for this run (track 0 = cluster
    /// events, track `j + 1` = node `j`). Stepping stays serial while an
    /// enabled recorder is attached.
    #[must_use]
    pub fn recorder(mut self, recorder: Box<dyn Recorder>) -> Self {
        self.recorder = Some(recorder);
        self
    }
}

/// One interval of a cluster trace run.
#[derive(Debug, Clone, PartialEq)]
pub struct ClusterIntervalRecord {
    /// Interval start in milliseconds since trace begin.
    pub start_ms: f64,
    /// Trace utilization level for the interval.
    pub utilization: f64,
    /// Offered load in RPS (before admission control).
    pub offered_rps: f64,
    /// Cluster-wide p99 over the interval, merged across nodes (0 when
    /// nothing completed).
    pub p99_ms: f64,
    /// Total cluster power over the interval, in watts.
    pub power_w: f64,
    /// Nodes with at least one healthy device at interval end.
    pub nodes_up: usize,
    /// Completions over the bound, summed across nodes.
    pub violations: usize,
    /// Completions summed across nodes.
    pub completed: usize,
    /// Requests shed by admission control this interval.
    pub shed: usize,
    /// Requests re-issued after a node drain this interval.
    pub redistributed: usize,
    /// Requests abandoned past their deadline this interval (0 unless
    /// the lifecycle config sets deadlines).
    pub timed_out: usize,
    /// Load-balance skew across up nodes: `(max - min) / mean` of
    /// per-node completions (0 with fewer than two up nodes).
    pub util_skew: f64,
    /// Nodes administratively in service (serving or warming) at the
    /// interval. Fixed fleets report the provisioned fleet size; elastic
    /// runs scale it with the autoscaler's decisions.
    pub nodes_active: usize,
}

/// Aggregate results of a cluster trace run.
#[derive(Debug, Clone, PartialEq)]
pub struct ClusterReport {
    /// Per-interval records.
    pub intervals: Vec<ClusterIntervalRecord>,
    /// Total cluster energy over the trace, in joules.
    pub energy_j: f64,
    /// Cluster-wide p99 over the whole trace, merged across all nodes
    /// and intervals.
    pub p99_ms: f64,
    /// Overall QoS violation ratio (violations / completed).
    pub violation_ratio: f64,
    /// Requests completed over the trace.
    pub completed: usize,
    /// Requests shed by admission control over the trace.
    pub shed: usize,
    /// Unified re-issue ledger: front-end redistribution after node
    /// drains (`redistributed`), device-level fail-stop retries, bounded
    /// retry exhaustion, and hedging, merged across all nodes.
    pub retry: RetryStats,
    /// Requests abandoned past their deadline over the trace.
    pub timed_out: usize,
    /// Mean per-interval load-balance skew across up nodes.
    pub mean_util_skew: f64,
    /// Active-node time integrated over the trace, in node-hours — the
    /// fleet-size cost an elastic run saves against a fixed one.
    pub node_hours: f64,
    /// Circuit-breaker trips (closed → open transitions) over the trace.
    pub breaker_trips: usize,
    /// Per-class (completed, violations, shed) totals, tenant-indexed
    /// (single-tenant runs have one entry).
    pub per_class: Vec<(usize, usize, usize)>,
}

/// Expand a *node-level* fault plan (device index = node index) into the
/// device-level plan for node `node`: an event against the node hits
/// every one of its `devices` at the same instant, so a node-level
/// fail-stop takes the whole node down and a node-level recover brings
/// all of it back.
#[must_use]
pub fn node_fault_plan(cluster_plan: &FaultPlan, node: usize, devices: usize) -> FaultPlan {
    let mut out = FaultPlan::new();
    for e in cluster_plan.events().iter().filter(|e| e.device == node) {
        for d in 0..devices {
            out = out.with(FaultEvent {
                at_ms: e.at_ms,
                device: d,
                kind: e.kind,
            });
        }
    }
    out
}

/// Stable telemetry label for a breaker state.
fn breaker_label(state: BreakerState) -> &'static str {
    match state {
        BreakerState::Closed => "closed",
        BreakerState::Open { .. } => "open",
        BreakerState::HalfOpen => "half-open",
    }
}

/// Load-balance skew across the serving nodes: `(max - min) / mean` of
/// per-node completions, 0 with fewer than two nodes or no completions.
fn completion_skew(per_node_completed: &[usize]) -> f64 {
    if per_node_completed.len() < 2 {
        return 0.0;
    }
    let (max, min, sum) = per_node_completed
        .iter()
        .fold((usize::MIN, usize::MAX, 0usize), |(mx, mn, s), &c| {
            (mx.max(c), mn.min(c), s + c)
        });
    let mean = sum as f64 / per_node_completed.len() as f64;
    if mean > 0.0 {
        (max as f64 - min as f64) / mean
    } else {
        0.0
    }
}

/// Add `node`'s last drain, per class, to the work re-entering routing.
fn add_drained(redistributed_class: &mut [usize], node: &ClusterNode) {
    for (r, &d) in redistributed_class
        .iter_mut()
        .zip(node.last_drained_per_class())
    {
        *r += d;
    }
}

/// N leaf nodes behind a front-end router with a shared power budget.
#[derive(Debug)]
pub struct Cluster {
    nodes: Vec<ClusterNode>,
    router: Router,
    governor: PowerGovernor,
    config: ClusterConfig,
    /// Driver-level telemetry sink (track 0); nodes get tagged clones.
    recorder: Option<Box<dyn Recorder>>,
    /// Worker threads for per-interval node stepping (default 1 =
    /// serial). See [`set_jobs`](Self::set_jobs).
    jobs: usize,
}

impl Cluster {
    /// Cluster of identical-application nodes, one per entry of `setups`.
    ///
    /// # Panics
    /// Panics if [`try_new`](Self::try_new) rejects the configuration.
    #[must_use]
    pub fn new(
        graph: &KernelGraph,
        spaces: &[KernelDesignSpace],
        setups: Vec<NodeSetup>,
        config: ClusterConfig,
    ) -> Self {
        Self::try_new(graph, spaces, setups, config)
            .unwrap_or_else(|e| panic!("invalid cluster configuration: {e}"))
    }

    /// [`new`](Self::new), but misconfiguration (no nodes, bad budget /
    /// floor / bound) fails with a typed error at construction instead
    /// of somewhere mid-run.
    ///
    /// # Errors
    /// The first offence, as a typed [`ClusterError`].
    pub fn try_new(
        graph: &KernelGraph,
        spaces: &[KernelDesignSpace],
        setups: Vec<NodeSetup>,
        config: ClusterConfig,
    ) -> Result<Self, ClusterError> {
        config.validate()?;
        if setups.is_empty() {
            return Err(ClusterError::NoNodes);
        }
        // One shared context for graph + design spaces; per-node setups
        // are swapped in without re-cloning the shared halves.
        let mut setups = setups;
        let first = {
            let mut s = setups.remove(0);
            s.sim_config.lifecycle = config.lifecycle.clone();
            s
        };
        let ctx = AppContext::new(graph.clone(), spaces.to_vec(), first, config.bound_ms);
        let mut nodes = vec![ClusterNode::new_multi(vec![ctx.clone()])];
        nodes.extend(setups.into_iter().map(|mut s| {
            s.sim_config.lifecycle = config.lifecycle.clone();
            ClusterNode::new_multi(vec![ctx.with_setup(s)])
        }));
        Self::from_nodes(nodes, config)
    }

    /// Cluster over pre-built nodes — the multi-tenant entry point: each
    /// node may host several [`AppContext`]s
    /// (see [`ClusterNode::new_multi`]), as long as every node hosts the
    /// same class list.
    ///
    /// # Errors
    /// The first offence, as a typed [`ClusterError`].
    pub fn from_nodes(
        nodes: Vec<ClusterNode>,
        config: ClusterConfig,
    ) -> Result<Self, ClusterError> {
        config.validate()?;
        if nodes.is_empty() {
            return Err(ClusterError::NoNodes);
        }
        let classes = nodes[0].tenant_count();
        for (j, node) in nodes.iter().enumerate() {
            if node.tenant_count() != classes {
                return Err(ClusterError::MismatchedTenancy {
                    node: j,
                    classes: node.tenant_count(),
                    expected: classes,
                });
            }
        }
        let n = nodes.len();
        let mut router = Router::new(config.routing);
        router.set_max_backlog(config.max_backlog);
        if let Some(breaker) = config.breaker {
            router.enable_breakers(breaker, n);
        }
        Ok(Self {
            nodes,
            router,
            governor: PowerGovernor::new(config.power_budget_w, config.node_floor_w, n),
            config,
            recorder: None,
            jobs: 1,
        })
    }

    /// Set the worker-thread budget for stepping the node simulations of
    /// each interval. Nodes simulate privately between the interval
    /// barriers and merge in node-index order, so the report is
    /// byte-identical for every job count. With an enabled recorder
    /// attached the stepping stays serial regardless (telemetry sequence
    /// numbers are allocated in emission order, which must not depend on
    /// thread interleaving).
    pub fn set_jobs(&mut self, jobs: usize) {
        self.jobs = jobs.max(1);
    }

    /// Attach (or detach) a telemetry recorder. The driver keeps track 0
    /// for cluster-level events (routing, shed, breaker transitions,
    /// governor re-splits); node `j` records on track `j + 1`.
    pub fn set_recorder(&mut self, recorder: Option<Box<dyn Recorder>>) {
        match recorder {
            Some(mut rec) => {
                for (j, node) in self.nodes.iter_mut().enumerate() {
                    let mut clone = rec.box_clone();
                    clone.set_track(j as u32 + 1);
                    node.set_recorder(Some(clone));
                }
                rec.set_track(0);
                self.recorder = Some(rec);
            }
            None => {
                for node in &mut self.nodes {
                    node.set_recorder(None);
                }
                self.recorder = None;
            }
        }
    }

    /// Whether an enabled recorder is attached to the driver.
    fn recording(&self) -> bool {
        self.recorder.as_ref().is_some_and(|r| r.enabled())
    }

    /// Record a driver-level (track 0) event.
    fn obs(&mut self, t_ms: f64, event: ObsEvent) {
        if let Some(r) = self.recorder.as_mut() {
            r.record(t_ms, event);
        }
    }

    /// Number of leaf nodes.
    #[must_use]
    pub fn len(&self) -> usize {
        self.nodes.len()
    }

    /// Whether the cluster has no nodes (never true after construction).
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.nodes.is_empty()
    }

    /// Run one replay described by a [`ClusterRunSpec`]: validates the
    /// parameters, applies the spec's `jobs`/`recorder` settings, and
    /// replays the trace. An invalid spec changes nothing.
    ///
    /// The replay is one loop for every fleet, with three robustness
    /// layers on top of routing, power governance and node fault
    /// domains:
    ///
    /// - **QoS classes** — the offered load is split across the nodes'
    ///   tenants by the spec's traffic mix, each class drawing its own
    ///   deterministic Poisson stream; the router admits per class
    ///   ([`Router::route_classes`]), so a lenient tenant cannot starve a
    ///   strict one. A single-class fleet is the case of one class that
    ///   takes the whole load.
    /// - **Elastic autoscaling** — with an autoscale config, a
    ///   deterministic [`Autoscaler`] activates nodes (which warm up
    ///   advertising zero capacity) and drains them through the same
    ///   cancel-and-redistribute path a node death uses. Inactive nodes
    ///   are modeled powered off: they contribute neither power/energy
    ///   nor node-hours, while powered-on nodes are charged the spec's
    ///   static node draw on top of their dynamic execution power — the
    ///   term a scale-down actually saves.
    /// - **Spot revocations** — [`FaultKind::Revoke`] events in the
    ///   node-level fault plan announce a fail-stop `notice_ms` ahead.
    ///   The driver drains the node at the first boundary inside the
    ///   notice window, so its in-flight work is redistributed *before*
    ///   the capacity disappears and the node's breaker never trips.
    ///   Revocations whose notice is shorter than an interval behave like
    ///   surprise fail-stops.
    ///
    /// The fault plan is node-level: `FaultEvent::device` indexes a
    /// **node**, and each event is expanded to every device of that node
    /// (see [`node_fault_plan`]). Deterministic in all spec inputs for
    /// every job count.
    ///
    /// # Errors
    /// The first invalid run parameter, as a typed [`ClusterError`].
    pub fn run(&mut self, mut spec: ClusterRunSpec<'_>) -> Result<ClusterReport, ClusterError> {
        if !spec.interval_ms.is_finite() || spec.interval_ms <= 0.0 {
            return Err(ClusterError::NonPositiveInterval {
                interval_ms: spec.interval_ms,
            });
        }
        if spec.trace.is_empty() {
            return Err(ClusterError::EmptyTrace);
        }
        validate_load(spec.trace, spec.max_rps)?;
        spec.faults.validate_for(self.nodes.len())?;
        let classes = self.nodes[0].tenant_count();
        let mix = spec
            .traffic_mix
            .take()
            .unwrap_or_else(|| vec![1.0; classes]);
        let mix_sum: f64 = mix.iter().sum();
        if mix.len() != classes
            || mix.iter().any(|m| !m.is_finite() || *m < 0.0)
            || !mix_sum.is_finite()
            || mix_sum <= 0.0
        {
            return Err(ClusterError::InvalidTrafficMix);
        }
        if !spec.node_static_w.is_finite() || spec.node_static_w < 0.0 {
            return Err(ClusterError::InvalidStaticDraw {
                static_w: spec.node_static_w,
            });
        }
        let mix: Vec<f64> = mix.iter().map(|m| m / mix_sum).collect();
        if let Some(jobs) = spec.jobs {
            self.set_jobs(jobs);
        }
        if let Some(rec) = spec.recorder.take() {
            self.set_recorder(Some(rec));
        }
        Ok(self.replay(&spec, &mix))
    }

    /// The replay loop of [`run`](Self::run), on validated parameters
    /// and the normalized traffic `mix`.
    #[allow(clippy::too_many_lines)]
    fn replay(&mut self, spec: &ClusterRunSpec<'_>, mix: &[f64]) -> ClusterReport {
        let ClusterRunSpec {
            trace,
            interval_ms,
            max_rps,
            seed,
            faults: ref node_faults,
            ref autoscale,
            node_static_w,
            ..
        } = *spec;
        let n = self.nodes.len();
        let classes = mix.len();
        let weights: Vec<f64> = (0..classes)
            .map(|c| self.nodes[0].tenant_weight(c))
            .collect();
        let recording = self.recording();
        self.router.reset();
        self.governor.reset();
        let mut autoscaler = autoscale.clone().map(Autoscaler::new);

        let first_rps = trace.first().map_or(0.0, |p| p.utilization * max_rps);
        for (j, node) in self.nodes.iter_mut().enumerate() {
            let plan = node_fault_plan(node_faults, j, node.setup().pool.len());
            let shares: Vec<f64> = mix.iter().map(|m| first_rps * m / n as f64).collect();
            node.begin_replay_multi(&shares, &plan);
        }

        // Spot revocations scripted against nodes: drained proactively at
        // the first boundary inside `[at_ms, deadline)`. The device-level
        // fail-stop at the deadline is already lowered into each node's
        // fault plan by the engine.
        struct Revocation {
            at_ms: f64,
            node: usize,
            deadline_ms: f64,
            consumed: bool,
        }
        let mut revocations: Vec<Revocation> = node_faults
            .events()
            .iter()
            .filter_map(|e| match e.kind {
                FaultKind::Revoke { notice_ms } => Some(Revocation {
                    at_ms: e.at_ms,
                    node: e.device,
                    deadline_ms: e.at_ms + notice_ms.max(0.0),
                    consumed: false,
                }),
                _ => None,
            })
            .collect();
        revocations.sort_by(|a, b| a.at_ms.total_cmp(&b.at_ms).then(a.node.cmp(&b.node)));
        // `Some(deadline)` while node j is drained ahead of a pending
        // revocation — its outage is *expected*, so breakers see it as a
        // quiet healthy node instead of tripping.
        let mut pending_revoke: Vec<Option<f64>> = vec![None; n];

        // Telemetry must stay serial: recorder sequence numbers are
        // allocated in emission order across the whole buffer.
        let step_jobs = if recording { 1 } else { self.jobs };
        let mut intervals = Vec::with_capacity(trace.len());
        let mut all_samples: Vec<f64> = Vec::new();
        // Fleet-percentile buffers, recycled across intervals.
        let mut interval_samples: Vec<f64> = Vec::new();
        let mut q_scratch: Vec<f64> = Vec::new();
        let mut energy_j = 0.0;
        let mut total_completed = 0usize;
        let mut total_violations = 0usize;
        let mut total_shed = 0usize;
        let mut total_redistributed = 0usize;
        let mut total_timed_out = 0usize;
        let mut total_breaker_trips = 0usize;
        let mut node_hours = 0.0;
        let mut skew_sum = 0.0;
        let mut class_completed = vec![0usize; classes];
        let mut class_violations = vec![0usize; classes];
        let mut class_shed = vec![0usize; classes];
        // Per-node power and assigned load from the previous interval —
        // the stale-snapshot signals the router and governor act on.
        let mut last_power_w = vec![0.0; n];
        let mut last_assigned_rps = vec![0.0; n];

        for (i, point) in trace.iter().enumerate() {
            let start = point.start_ms;
            let end = start + interval_ms;
            let offered_rps = point.utilization * max_rps;
            // Per-class drained work re-entering the router at this
            // boundary (node deaths, revocation drains, scale-downs).
            let mut redistributed_class = vec![0usize; classes];

            // 1. Boundary health check: drain nodes that died during the
            //    previous interval. A hardware recovery on a node that
            //    was administratively drained (revocation, scale down)
            //    does not resume serving by itself: the autoscaler
            //    re-adds it when load wants it, or — without an
            //    autoscaler — it rejoins with one interval of warm-up.
            for (j, pending) in pending_revoke.iter_mut().enumerate() {
                match self.nodes[j].maintain_at(start) {
                    NodeTransition::WentDown(d) => {
                        total_redistributed += d;
                        add_drained(&mut redistributed_class, &self.nodes[j]);
                    }
                    NodeTransition::CameBack => {
                        *pending = None;
                        if !self.nodes[j].is_active() && autoscaler.is_none() {
                            let ready = start + interval_ms;
                            self.nodes[j].activate(Some(ready));
                            self.obs(
                                start,
                                ObsEvent::ScaleUp {
                                    node: j,
                                    ready_ms: ready,
                                },
                            );
                        }
                    }
                    NodeTransition::Steady => {}
                }
            }

            // 2. Act on revocation notices whose window covers this
            //    boundary: drain the node now, redistribute its work, and
            //    flag the coming outage as expected.
            for r in &mut revocations {
                if r.consumed || r.at_ms > start {
                    continue;
                }
                r.consumed = true;
                if start >= r.deadline_ms || self.nodes[r.node].is_down() {
                    // Notice shorter than an interval (or the node is
                    // already dead): nothing to save — surprise path.
                    continue;
                }
                let drained = if self.nodes[r.node].is_active() {
                    let d = self.nodes[r.node].drain();
                    add_drained(&mut redistributed_class, &self.nodes[r.node]);
                    total_redistributed += d;
                    d
                } else {
                    0
                };
                pending_revoke[r.node] = Some(r.deadline_ms);
                if let Some(rec) = self.recorder.as_mut() {
                    rec.record(
                        start,
                        ObsEvent::SpotRevoke {
                            node: r.node,
                            deadline_ms: r.deadline_ms,
                            drained,
                        },
                    );
                }
            }

            // 3. Elastic fleet sizing off the governor's smoothed load
            //    estimates (no estimate yet at the first boundary).
            if i > 0 {
                if let Some(scaler) = autoscaler.as_mut() {
                    let eligible: Vec<bool> =
                        self.nodes.iter().map(ClusterNode::is_routable).collect();
                    let blocked: Vec<bool> = self
                        .nodes
                        .iter()
                        .enumerate()
                        .map(|(j, nd)| {
                            nd.is_down() || nd.is_warming() || pending_revoke[j].is_some()
                        })
                        .collect();
                    let load: f64 = (0..n)
                        .map(|j| self.governor.load_estimate(j).unwrap_or(0.0))
                        .sum();
                    match scaler.decide(load, &eligible, &blocked) {
                        ScaleAction::Up(j) => {
                            let ready = start + scaler.config().warmup_ms;
                            self.nodes[j].activate(Some(ready));
                            self.obs(
                                start,
                                ObsEvent::ScaleUp {
                                    node: j,
                                    ready_ms: ready,
                                },
                            );
                        }
                        ScaleAction::Down(j) => {
                            let drained = self.nodes[j].drain();
                            add_drained(&mut redistributed_class, &self.nodes[j]);
                            total_redistributed += drained;
                            self.obs(start, ObsEvent::ScaleDown { node: j, drained });
                        }
                        ScaleAction::Hold => {}
                    }
                }
            }

            // 4. Governor: re-split the fleet budget from the previous
            //    interval's observed per-node load (skip the first
            //    interval — nothing observed yet, caps stay provisioned).
            //    Off nodes draw nothing, warming nodes are pinned at the
            //    floor, serving nodes share by load.
            if i > 0 {
                let states: Vec<NodeShare> = self
                    .nodes
                    .iter()
                    .map(|nd| {
                        if nd.is_down() || !nd.is_active() {
                            NodeShare::Off
                        } else if nd.is_warming() {
                            NodeShare::Warming
                        } else {
                            NodeShare::Active { weight: 1.0 }
                        }
                    })
                    .collect();
                let caps = self
                    .governor
                    .observe_and_split_states(&last_assigned_rps, &states);
                for (node, cap) in self.nodes.iter_mut().zip(&caps) {
                    node.set_power_cap(*cap);
                }
                if recording {
                    for (j, cap) in caps.iter().enumerate() {
                        self.obs(
                            start,
                            ObsEvent::GovernorSplit {
                                node: j,
                                cap_w: *cap,
                            },
                        );
                    }
                }
            }

            // 5. Per-node re-planning from each node's own monitor (the
            //    first interval was planned by `begin_replay_multi`).
            if i > 0 {
                let n_rt = self.nodes.iter().filter(|nd| nd.is_routable()).count();
                let floor_est = if n_rt > 0 {
                    offered_rps / n_rt as f64 * 0.1
                } else {
                    0.0
                };
                for node in &mut self.nodes {
                    let est = node.load_estimate_rps().max(floor_est);
                    let _ = node.begin_interval(est);
                }
            }

            // 6. Per-class arrivals: redistributed work (re-timed to the
            //    boundary) ahead of each class's own Poisson stream.
            //    Class 0 keeps the single-class stream seed; further
            //    classes draw independent streams.
            let class_arrivals: Vec<Vec<f64>> = (0..classes)
                .map(|c| {
                    let class_seed = if c == 0 {
                        seed.wrapping_add(i as u64)
                    } else {
                        (seed ^ (c as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15))
                            .wrapping_add(i as u64)
                    };
                    let mut a: Vec<f64> = std::iter::repeat_n(start, redistributed_class[c])
                        .chain(
                            poisson(offered_rps * mix[c], interval_ms, class_seed)
                                .into_iter()
                                .map(|t| start + t),
                        )
                        .collect();
                    a.sort_by(f64::total_cmp);
                    a
                })
                .collect();
            let redistributed: usize = redistributed_class.iter().sum();

            // 7. Route: per-class admission against start-of-interval
            //    node and per-tenant views.
            let views: Vec<NodeView> = self
                .nodes
                .iter()
                .enumerate()
                .map(|(j, node)| NodeView {
                    up: node.is_routable(),
                    queued: node.queued(),
                    power_w: last_power_w[j],
                    power_cap_w: node.power_cap_w(),
                    capacity_rps: node.capacity_rps(),
                })
                .collect();
            let class_views: Vec<Vec<ClassNodeView>> = self
                .nodes
                .iter()
                .map(|nd| {
                    (0..classes)
                        .map(|c| ClassNodeView {
                            queued: nd.queued_of(c),
                            capacity_rps: nd.capacity_rps_of(c),
                        })
                        .collect()
                })
                .collect();
            let arr_slices: Vec<&[f64]> = class_arrivals.iter().map(Vec::as_slice).collect();
            let outcome = self.router.route_classes(
                &views,
                &class_views,
                &arr_slices,
                &weights,
                start,
                interval_ms,
            );
            total_shed += outcome.shed;
            if recording {
                for j in 0..n {
                    let assigned: usize = outcome.per_node[j].iter().map(Vec::len).sum();
                    self.obs(start, ObsEvent::Route { node: j, assigned });
                }
                if outcome.shed > 0 {
                    self.obs(
                        start,
                        ObsEvent::Shed {
                            count: outcome.shed,
                        },
                    );
                }
                if classes > 1 {
                    for (c, &(admitted, deferred, shed)) in outcome.per_class.iter().enumerate() {
                        self.obs(
                            start,
                            ObsEvent::ClassAdmission {
                                class: c,
                                admitted,
                                deferred,
                                shed,
                            },
                        );
                    }
                }
            }

            // 8. Advance every node's simulation to the interval end.
            //    The interval boundary is a conservative synchronization
            //    barrier: no event crosses nodes mid-interval, so the N
            //    private event loops fan out across `step_jobs` workers
            //    and their stats merge below in node-index order —
            //    byte-identical to the serial schedule.
            let per_node_stats = par_map_mut(step_jobs, &mut self.nodes, |j, node| {
                let slices: Vec<&[f64]> = outcome.per_node[j].iter().map(Vec::as_slice).collect();
                node.run_to_classes(&slices, end)
            });

            // 9. Aggregate. Inactive nodes are modeled powered off: their
            //    (idle) power and energy stay out of the report, and
            //    their expected outages are fed to the breakers as quiet
            //    healthy intervals.
            interval_samples.clear();
            let mut completed = 0usize;
            let mut violations = 0usize;
            let mut timed_out = 0usize;
            let mut power_w = 0.0;
            let mut nodes_up = 0usize;
            let mut per_node_completed: Vec<usize> = Vec::with_capacity(n);
            let mut health: Vec<(usize, usize, bool)> = Vec::with_capacity(n);
            for (j, stats) in per_node_stats.iter().enumerate() {
                let active = self.nodes[j].is_active();
                last_power_w[j] = if active { stats.avg_power_w } else { 0.0 };
                let assigned: usize = outcome.per_node[j].iter().map(Vec::len).sum();
                last_assigned_rps[j] = assigned as f64 * 1000.0 / interval_ms;
                completed += stats.completed;
                violations += stats.violations;
                timed_out += stats.timed_out;
                if active {
                    power_w += stats.avg_power_w + node_static_w;
                    energy_j += stats.energy_j + node_static_w * interval_ms / 1000.0;
                }
                if stats.healthy_devices > 0 {
                    nodes_up += 1;
                    if active {
                        per_node_completed.push(stats.completed);
                    }
                }
                let expected_down = pending_revoke[j].is_some() || !active;
                health.push(if expected_down {
                    (0, 0, true)
                } else {
                    (stats.completed, stats.violations, stats.healthy_devices > 0)
                });
                for (c, &(cc, cv)) in stats.per_class.iter().enumerate() {
                    class_completed[c] += cc;
                    class_violations[c] += cv;
                }
                interval_samples.extend_from_slice(self.nodes[j].segment_samples());
            }
            for (c, &(_, _, s)) in outcome.per_class.iter().enumerate() {
                class_shed[c] += s;
            }
            // Feed the router's circuit breakers (no-op when disabled).
            total_breaker_trips += self.observe_breakers(&health, end, recording);
            total_completed += completed;
            total_violations += violations;
            total_timed_out += timed_out;

            // Fleet p99 from merged samples, load-balance skew across the
            // serving nodes that are up at the interval end.
            let util_skew = completion_skew(&per_node_completed);
            skew_sum += util_skew;
            let nodes_active = self.nodes.iter().filter(|nd| nd.is_active()).count();
            node_hours += nodes_active as f64 * interval_ms / 3_600_000.0;
            all_samples.extend_from_slice(&interval_samples);
            // `None` means no interval completions; the record's
            // `completed == 0` keeps that distinguishable from a true 0.
            let p99 = quantile_of(&interval_samples, 0.99, &mut q_scratch).unwrap_or(0.0);

            intervals.push(ClusterIntervalRecord {
                start_ms: start,
                utilization: point.utilization,
                offered_rps,
                p99_ms: p99,
                power_w,
                nodes_up,
                violations,
                completed,
                shed: outcome.shed,
                redistributed,
                timed_out,
                util_skew,
                nodes_active,
            });
        }

        // A run with zero fleet-wide completions reports 0.0 alongside
        // `completed == 0`, which keeps "no samples" distinguishable.
        let p99_ms = quantile_of(&all_samples, 0.99, &mut q_scratch).unwrap_or(0.0);
        // Unified ledger: node-level retries/hedges merged across the
        // fleet, plus this run's front-end redistribution.
        let mut retry = RetryStats::default();
        for node in &self.nodes {
            retry.merge(&node.retry_stats());
        }
        retry.redistributed += total_redistributed;
        ClusterReport {
            energy_j,
            p99_ms,
            violation_ratio: if total_completed > 0 {
                total_violations as f64 / total_completed as f64
            } else {
                0.0
            },
            completed: total_completed,
            shed: total_shed,
            retry,
            timed_out: total_timed_out,
            mean_util_skew: if intervals.is_empty() {
                0.0
            } else {
                skew_sum / intervals.len() as f64
            },
            node_hours,
            breaker_trips: total_breaker_trips,
            per_class: (0..classes)
                .map(|c| (class_completed[c], class_violations[c], class_shed[c]))
                .collect(),
            intervals,
        }
    }

    /// Feed one interval's `(completed, violations, up)` health to the
    /// router's breakers, record any state transitions, and return the
    /// number of trips (transitions into open) this caused. No-op (0)
    /// while breakers are disabled.
    fn observe_breakers(
        &mut self,
        health: &[(usize, usize, bool)],
        end_ms: f64,
        recording: bool,
    ) -> usize {
        let before: Vec<&'static str> = self
            .router
            .breakers()
            .iter()
            .map(|b| breaker_label(b.state()))
            .collect();
        self.router.observe_health(health);
        let transitions: Vec<(usize, &'static str, &'static str)> = before
            .iter()
            .zip(self.router.breakers())
            .enumerate()
            .filter_map(|(j, (from, b))| {
                let to = breaker_label(b.state());
                (to != *from).then_some((j, *from, to))
            })
            .collect();
        let mut trips = 0;
        for (node, from, to) in transitions {
            if to == "open" {
                trips += 1;
            }
            if recording {
                self.obs(end_ms, ObsEvent::BreakerTransition { node, from, to });
            }
        }
        trips
    }

    /// The cluster configuration.
    #[must_use]
    pub fn config(&self) -> &ClusterConfig {
        &self.config
    }

    /// Merged lifecycle audit across every node's simulator, plus the
    /// per-node reports. `merged.check()` asserts the cluster-wide
    /// conservation invariants after a run.
    #[must_use]
    pub fn audits(&self) -> (AuditReport, Vec<AuditReport>) {
        let per_node: Vec<AuditReport> = self.nodes.iter().map(ClusterNode::audit).collect();
        let mut merged = AuditReport::default();
        for a in &per_node {
            merged.merge(a);
        }
        (merged, per_node)
    }

    /// The leaf nodes, in router index order.
    #[must_use]
    pub fn nodes(&self) -> &[ClusterNode] {
        &self.nodes
    }

    /// The router's per-node circuit breakers (empty when disabled).
    #[must_use]
    pub fn breakers(&self) -> &[crate::CircuitBreaker] {
        self.router.breakers()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use poly_sim::FaultKind;

    #[test]
    fn node_fault_plan_expands_to_every_device() {
        let plan = FaultPlan::new()
            .fail_stop(1000.0, 1)
            .recover(5000.0, 1)
            .fail_stop(2000.0, 0);
        let node1 = node_fault_plan(&plan, 1, 3);
        let events = node1.events();
        assert_eq!(events.len(), 6, "2 node events x 3 devices");
        assert!(events
            .iter()
            .filter(|e| e.kind == FaultKind::FailStop)
            .all(|e| e.at_ms == 1000.0));
        assert_eq!(
            events
                .iter()
                .map(|e| e.device)
                .collect::<std::collections::BTreeSet<_>>(),
            [0, 1, 2].into_iter().collect()
        );
        // Node 2 has no events scripted against it.
        assert!(node_fault_plan(&plan, 2, 3).events().is_empty());
    }
}
