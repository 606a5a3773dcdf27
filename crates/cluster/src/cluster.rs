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
//! [`ClusterRunSpec::jobs`] the N node simulations of one
//! interval fan out across worker threads and their results merge in
//! node-index order — byte-identical to the serial schedule. Router and
//! governor state evolves only at barriers, in node-index order.
//! (Replays of *different* routing policies can additionally be fanned
//! out across threads without perturbing each other.)

use crate::{
    Autoscaler, BreakerConfig, BreakerState, ClassNodeView, ClassRouteOutcome, ClusterNode,
    NodeIntervalStats, NodeShare, NodeTransition, NodeView, PowerGovernor, Router, RoutingPolicy,
    ScaleAction,
};
use poly_core::{validate_load, AppContext, NodeSetup, RunSpecError};
use poly_dse::KernelDesignSpace;
use poly_ir::KernelGraph;
use poly_obs::{Event as ObsEvent, Recorder};
use poly_par::par_map_mut;
use poly_sim::workload::{PoissonArrivals, TracePoint};
use poly_sim::{
    quantile_of, AuditReport, BoundedQuantile, FaultEvent, FaultKind, FaultPlan, FaultPlanError,
    LifecycleConfig, RetryStats, SimError,
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
    /// A lifecycle knob is out of range (see [`LifecycleConfig::validate`]).
    Lifecycle(SimError),
    /// A circuit-breaker knob is out of range (see
    /// [`BreakerConfig::validate`]).
    Breaker {
        /// The knob's field name.
        field: &'static str,
        /// Its value.
        value: f64,
        /// The range it must lie in.
        bound: &'static str,
    },
    /// An autoscaler knob is out of range (see
    /// [`AutoscaleConfig::validate`](crate::AutoscaleConfig::validate)).
    Autoscale {
        /// The knob's field name.
        field: &'static str,
        /// Its value.
        value: f64,
        /// The range it must lie in.
        bound: &'static str,
    },
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
            ClusterError::Lifecycle(ref e) => write!(f, "invalid node lifecycle: {e}"),
            ClusterError::Breaker {
                field,
                value,
                bound,
            } => write!(f, "breaker {field} must be {bound}, got {value}"),
            ClusterError::Autoscale {
                field,
                value,
                bound,
            } => write!(f, "autoscale {field} must be {bound}, got {value}"),
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
    /// bound or power budget, negative floor, lifecycle or breaker knobs
    /// out of range.
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
        self.lifecycle.validate().map_err(ClusterError::Lifecycle)?;
        self.breaker
            .as_ref()
            .map_or(Ok(()), BreakerConfig::validate)
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
    jobs: usize,
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
            jobs: 1,
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

    /// Worker-thread budget for stepping the node simulations (default
    /// 1, serial; reports are byte-identical for every count).
    #[must_use]
    pub fn jobs(mut self, jobs: usize) -> Self {
        self.jobs = jobs;
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

/// N leaf nodes behind a front-end router with a shared power budget.
/// The cluster keeps only what outlives a run: the nodes and the
/// validated config. Each [`run`](Self::run) builds its router,
/// governor, autoscaler and recorders afresh.
#[derive(Debug)]
pub struct Cluster {
    nodes: Vec<ClusterNode>,
    config: ClusterConfig,
}

impl Cluster {
    /// Cluster of identical-application nodes, one per entry of `setups`.
    /// Misconfiguration (no nodes, bad budget / floor / bound) fails with
    /// a typed error at construction instead of somewhere mid-run.
    ///
    /// # Errors
    /// The first offence, as a typed [`ClusterError`].
    pub fn try_new(
        graph: &KernelGraph,
        spaces: &[KernelDesignSpace],
        setups: Vec<NodeSetup>,
        config: ClusterConfig,
    ) -> Result<Self, ClusterError> {
        let mut setups = setups.into_iter();
        let nodes = match setups.next() {
            None => Vec::new(),
            Some(first) => {
                // One shared context for graph + design spaces; per-node
                // setups are swapped in without re-cloning the shared
                // halves.
                let ctx = AppContext::new(graph.clone(), spaces.to_vec(), first, config.bound_ms);
                let siblings: Vec<AppContext> = setups.map(|s| ctx.with_setup(s)).collect();
                std::iter::once(ctx)
                    .chain(siblings)
                    .map(|c| ClusterNode::new_multi(vec![c]))
                    .collect()
            }
        };
        Self::from_nodes(nodes, config)
    }

    /// Cluster over pre-built nodes — the multi-tenant entry point: each
    /// node may host several [`AppContext`]s
    /// (see [`ClusterNode::new_multi`]), as long as every node hosts the
    /// same class list. Every tenant of every node runs under the
    /// config's lifecycle.
    ///
    /// # Errors
    /// The first offence, as a typed [`ClusterError`].
    pub fn from_nodes(
        mut nodes: Vec<ClusterNode>,
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
        for node in &mut nodes {
            node.set_lifecycle(&config.lifecycle);
        }
        Ok(Self { nodes, config })
    }

    /// Run one replay described by a [`ClusterRunSpec`]: validates the
    /// parameters and replays the trace with the spec's workers and
    /// recorder, which last for this run only. An invalid spec changes
    /// nothing.
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
        if let Some(autoscale) = &spec.autoscale {
            autoscale.validate()?;
        }
        let mix: Vec<f64> = mix.iter().map(|m| m / mix_sum).collect();
        let recorder = spec.recorder.take();
        Ok(self.replay(&spec, &mix, recorder))
    }

    /// The replay loop of [`run`](Self::run), on validated parameters
    /// and the normalized traffic `mix`: one call per phase, in this
    /// order, at every interval boundary (DESIGN.md §27).
    fn replay(
        &mut self,
        spec: &ClusterRunSpec<'_>,
        mix: &[f64],
        recorder: Option<Box<dyn Recorder>>,
    ) -> ClusterReport {
        let mut run = Replay::begin(self, spec, mix, recorder);
        for i in 0..spec.trace.len() {
            let b = Boundary::of(spec, i);
            run.boundary_health(&b);
            run.revocations(&b);
            // Nothing is observed before the first boundary: no load
            // estimate to scale on, caps stay provisioned, and
            // `begin_replay_multi` already planned the first interval.
            if i > 0 {
                run.autoscale(&b);
                run.govern(&b);
                run.replan(&b);
            }
            let arrivals = run.arrivals(&b);
            let outcome = run.route(&b, &arrivals);
            let stats = run.advance(&b, &outcome);
            run.aggregate(&b, &outcome, &stats);
        }
        run.finish()
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
}

/// One interval boundary of a replay; `i` seeds its arrival streams.
#[derive(Clone, Copy)]
struct Boundary {
    i: usize,
    start: f64,
    end: f64,
    utilization: f64,
    offered_rps: f64,
}

impl Boundary {
    /// The boundary of `spec`'s trace interval `i`.
    fn of(spec: &ClusterRunSpec<'_>, i: usize) -> Self {
        let point = spec.trace[i];
        Self {
            i,
            start: point.start_ms,
            end: point.start_ms + spec.interval_ms,
            utilization: point.utilization,
            offered_rps: point.utilization * spec.max_rps,
        }
    }

    /// Class `class`'s fresh Poisson arrivals over this interval, as
    /// offsets from its start, at its `share` of the offered load. Class
    /// 0 keeps the single-class stream seed; further classes draw
    /// independent streams.
    fn fresh_arrivals(
        &self,
        spec: &ClusterRunSpec<'_>,
        class: usize,
        share: f64,
    ) -> PoissonArrivals {
        let seed = if class == 0 {
            spec.seed.wrapping_add(self.i as u64)
        } else {
            (spec.seed ^ (class as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15))
                .wrapping_add(self.i as u64)
        };
        PoissonArrivals::new(self.offered_rps * share, spec.interval_ms, seed)
    }
}

/// Fresh arrivals over the whole run, every class of every interval: a
/// pass that draws the same streams as [`Replay::arrivals`] but stores
/// none of them.
fn fresh_arrival_count(spec: &ClusterRunSpec<'_>, mix: &[f64]) -> usize {
    (0..spec.trace.len())
        .map(|i| {
            let b = Boundary::of(spec, i);
            mix.iter()
                .enumerate()
                .map(|(c, &share)| b.fresh_arrivals(spec, c, share).count())
                .sum::<usize>()
        })
        .sum()
}

/// The run-wide accumulators of one replay. Nodes fold in through
/// [`add_node`](Self::add_node), one interval through [`add`](Self::add),
/// and [`finish`](Self::finish) sums the interval records, in interval
/// order, into the report: its totals cannot drift from its intervals.
///
/// The run p99 is exact in bounded memory (DESIGN.md, "Bounded memory
/// under overload"). Each completion is one fresh arrival's: a shed
/// request never completes, and retries, hedges and redistribution
/// re-issue requests that already arrived. So the run's N finite
/// completion latencies number at most its fresh arrivals A, which a
/// pre-pass counts, and a [`BoundedQuantile`] over A samples keeps only
/// the ~1% of them that can still be the p99.
struct RunTotals {
    interval_ms: f64,
    /// Static draw of one powered-on node over one interval, J.
    static_j: f64,
    intervals: Vec<ClusterIntervalRecord>,
    /// The run-wide p99 over every completion latency so far, bounded
    /// by the run's fresh arrivals.
    run_p99: BoundedQuantile,
    /// The current interval's completion latencies, with the quantile
    /// scratch.
    interval_samples: Vec<f64>,
    q_scratch: Vec<f64>,
    energy_j: f64,
    breaker_trips: usize,
    per_class: Vec<(usize, usize, usize)>,
}

impl RunTotals {
    /// Totals of a run of `spec` over `classes` classes and `fresh`
    /// fresh arrivals.
    fn new(spec: &ClusterRunSpec<'_>, classes: usize, fresh: usize) -> Self {
        Self {
            interval_ms: spec.interval_ms,
            static_j: spec.node_static_w * spec.interval_ms / 1000.0,
            intervals: Vec::with_capacity(spec.trace.len()),
            run_p99: BoundedQuantile::new(0.99, fresh),
            interval_samples: Vec::new(),
            q_scratch: Vec::new(),
            energy_j: 0.0,
            breaker_trips: 0,
            per_class: vec![(0, 0, 0); classes],
        }
    }

    /// Fold one node's interval: its per-class counts, its completion
    /// latencies and, while it is powered on, its energy plus its static
    /// draw.
    fn add_node(&mut self, stats: &NodeIntervalStats, powered: bool, samples: &[f64]) {
        if powered {
            self.energy_j += stats.energy_j + self.static_j;
        }
        for (total, &(completed, violations)) in self.per_class.iter_mut().zip(&stats.per_class) {
            total.0 += completed;
            total.1 += violations;
        }
        self.interval_samples.extend_from_slice(samples);
    }

    /// The fleet p99 of the current interval's merged samples. `None`
    /// from the quantile means no completions; the record's
    /// `completed == 0` keeps that distinguishable from a true 0.
    fn interval_p99(&mut self) -> f64 {
        quantile_of(&self.interval_samples, 0.99, &mut self.q_scratch).unwrap_or(0.0)
    }

    /// Fold one interval: its record, the router's per-class outcome and
    /// its breaker trips.
    fn add(
        &mut self,
        record: ClusterIntervalRecord,
        class_outcome: &[(usize, usize, usize)],
        breaker_trips: usize,
    ) {
        for (total, &(_, _, shed)) in self.per_class.iter_mut().zip(class_outcome) {
            total.2 += shed;
        }
        self.breaker_trips += breaker_trips;
        self.run_p99.extend(&self.interval_samples);
        self.interval_samples.clear();
        self.intervals.push(record);
    }

    /// The run's report. The retry ledger merges every node's retries
    /// and hedges with this run's front-end redistribution.
    ///
    /// # Panics
    /// Panics if the run completed more requests than arrived fresh (a
    /// request completed twice, and the run p99 could be wrong).
    fn finish(self, nodes: &[ClusterNode]) -> ClusterReport {
        // A run with zero fleet-wide completions reports 0.0 alongside
        // `completed == 0`, which keeps "no samples" distinguishable.
        let p99_ms = self.run_p99.finish().unwrap_or(0.0);
        let iv = &self.intervals;
        let sum = |field: fn(&ClusterIntervalRecord) -> usize| iv.iter().map(field).sum::<usize>();
        let (completed, violations) = (sum(|r| r.completed), sum(|r| r.violations));
        let mut retry = RetryStats::default();
        for node in nodes {
            retry.merge(&node.retry_stats());
        }
        retry.redistributed += sum(|r| r.redistributed);
        let node_hours = iv.iter().fold(0.0, |h, r| {
            h + r.nodes_active as f64 * self.interval_ms / 3_600_000.0
        });
        ClusterReport {
            energy_j: self.energy_j,
            p99_ms,
            violation_ratio: if completed > 0 {
                violations as f64 / completed as f64
            } else {
                0.0
            },
            completed,
            shed: sum(|r| r.shed),
            retry,
            timed_out: sum(|r| r.timed_out),
            mean_util_skew: if iv.is_empty() {
                0.0
            } else {
                iv.iter().fold(0.0, |s, r| s + r.util_skew) / iv.len() as f64
            },
            node_hours,
            breaker_trips: self.breaker_trips,
            per_class: self.per_class,
            intervals: self.intervals,
        }
    }
}

/// The state of one replay: the cluster it steps, the run's spec, the
/// driver state built for this run from the cluster's config and the
/// spec, and what carries from one boundary to the next. Each method
/// from `boundary_health` on is one phase of [`Cluster::replay`]'s loop.
struct Replay<'a> {
    cl: &'a mut Cluster,
    spec: &'a ClusterRunSpec<'a>,
    mix: &'a [f64],
    weights: Vec<f64>,
    router: Router,
    governor: PowerGovernor,
    autoscaler: Option<Autoscaler>,
    /// Driver-level telemetry sink (track 0); nodes get tagged clones.
    recorder: Option<Box<dyn Recorder>>,
    /// Worker threads for per-interval node stepping.
    jobs: usize,
    /// The node-level fault plan in time order, walked up to
    /// `next_fault` for revocation notices.
    faults: Vec<&'a FaultEvent>,
    next_fault: usize,
    /// `Some(deadline)` while node j is drained ahead of a pending
    /// revocation — its outage is *expected*, so breakers see it as a
    /// quiet healthy node instead of tripping.
    pending_revoke: Vec<Option<f64>>,
    /// Per-node power and assigned load from the previous interval —
    /// the stale-snapshot signals the router and governor act on.
    last_power_w: Vec<f64>,
    last_assigned_rps: Vec<f64>,
    /// Per-class drained work re-entering the router at this boundary
    /// (node deaths, revocation drains, scale-downs).
    redistributed_class: Vec<usize>,
    totals: RunTotals,
}

impl<'a> Replay<'a> {
    /// Build the run's router, governor and autoscaler, give the driver
    /// track 0 of `recorder` and node `j` track `j + 1` (or no recorder),
    /// plan every node's first interval on its fault plan, and sort the
    /// fault plan by time.
    fn begin(
        cl: &'a mut Cluster,
        spec: &'a ClusterRunSpec<'a>,
        mix: &'a [f64],
        mut recorder: Option<Box<dyn Recorder>>,
    ) -> Self {
        let n = cl.nodes.len();
        let classes = mix.len();
        let weights = (0..classes).map(|c| cl.nodes[0].tenant_weight(c)).collect();
        let config = &cl.config;
        let mut router = Router::new(config.routing);
        router.set_max_backlog(config.max_backlog);
        if let Some(breaker) = config.breaker {
            router.enable_breakers(breaker, n);
        }
        let governor = PowerGovernor::new(config.power_budget_w, config.node_floor_w, n);
        if let Some(rec) = recorder.as_mut() {
            rec.set_track(0);
        }
        let first_rps = spec.trace[0].utilization * spec.max_rps;
        let shares: Vec<f64> = mix.iter().map(|m| first_rps * m / n as f64).collect();
        for (j, node) in cl.nodes.iter_mut().enumerate() {
            node.set_recorder(recorder.as_ref().map(|rec| {
                let mut tagged = rec.box_clone();
                tagged.set_track(j as u32 + 1);
                tagged
            }));
            let plan = node_fault_plan(&spec.faults, j, node.setup().pool.len());
            node.begin_replay_multi(&shares, &plan);
        }
        let mut faults: Vec<&FaultEvent> = spec.faults.events().iter().collect();
        faults.sort_by(|a, b| a.at_ms.total_cmp(&b.at_ms).then(a.device.cmp(&b.device)));
        Self {
            cl,
            spec,
            mix,
            weights,
            router,
            governor,
            autoscaler: spec.autoscale.clone().map(Autoscaler::new),
            recorder,
            jobs: spec.jobs.max(1),
            faults,
            next_fault: 0,
            pending_revoke: vec![None; n],
            last_power_w: vec![0.0; n],
            last_assigned_rps: vec![0.0; n],
            redistributed_class: vec![0; classes],
            totals: RunTotals::new(spec, classes, fresh_arrival_count(spec, mix)),
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

    /// Activate node `j` at `at_ms`, warming until `ready_ms`, and record
    /// the scale-up.
    fn activate(&mut self, j: usize, at_ms: f64, ready_ms: f64) {
        self.cl.nodes[j].activate(Some(ready_ms));
        self.obs(at_ms, ObsEvent::ScaleUp { node: j, ready_ms });
    }

    /// Feed one interval's `(completed, violations, up)` health to the
    /// router's breakers, record any state transitions, and return the
    /// number of trips (transitions into open) this caused. No-op (0)
    /// while breakers are disabled.
    fn observe_breakers(&mut self, health: &[(usize, usize, bool)], end_ms: f64) -> usize {
        let before: Vec<BreakerState> = self.router.breakers().iter().map(|b| b.state()).collect();
        self.router.observe_health(health);
        let mut trips = 0;
        for (node, from) in before.into_iter().enumerate() {
            let to = self.router.breakers()[node].state();
            if std::mem::discriminant(&from) == std::mem::discriminant(&to) {
                continue;
            }
            if matches!(to, BreakerState::Open { .. }) {
                trips += 1;
            }
            if self.recording() {
                let (from, to) = (from.label(), to.label());
                self.obs(end_ms, ObsEvent::BreakerTransition { node, from, to });
            }
        }
        trips
    }

    /// Add node `j`'s last drain, per class, to the work re-entering
    /// routing at this boundary.
    fn redistribute(&mut self, j: usize) {
        let drained = self.cl.nodes[j].last_drained_per_class();
        for (r, &d) in self.redistributed_class.iter_mut().zip(drained) {
            *r += d;
        }
    }

    /// 1. Drain nodes that died during the previous interval. A hardware
    ///    recovery on a node that was administratively drained
    ///    (revocation, scale down) does not resume serving by itself:
    ///    the autoscaler re-adds it when load wants it, or — without an
    ///    autoscaler — it rejoins with one interval of warm-up.
    fn boundary_health(&mut self, b: &Boundary) {
        self.redistributed_class.fill(0);
        for j in 0..self.cl.nodes.len() {
            match self.cl.nodes[j].maintain_at(b.start) {
                NodeTransition::WentDown(_) => self.redistribute(j),
                NodeTransition::CameBack => {
                    self.pending_revoke[j] = None;
                    if !self.cl.nodes[j].is_active() && self.autoscaler.is_none() {
                        self.activate(j, b.start, b.end);
                    }
                }
                NodeTransition::Steady => {}
            }
        }
    }

    /// 2. Act on revocation notices whose window covers this boundary:
    ///    drain the node now, redistribute its work, and flag the coming
    ///    outage as expected.
    fn revocations(&mut self, b: &Boundary) {
        while let Some(&e) = self
            .faults
            .get(self.next_fault)
            .filter(|e| e.at_ms <= b.start)
        {
            self.next_fault += 1;
            let FaultKind::Revoke { notice_ms } = e.kind else {
                continue;
            };
            let (node, deadline_ms) = (e.device, e.at_ms + notice_ms.max(0.0));
            if b.start >= deadline_ms || self.cl.nodes[node].is_down() {
                // Notice shorter than an interval (or the node is already
                // dead): nothing to save — surprise path.
                continue;
            }
            let drained = if self.cl.nodes[node].is_active() {
                let d = self.cl.nodes[node].drain();
                self.redistribute(node);
                d
            } else {
                0
            };
            self.pending_revoke[node] = Some(deadline_ms);
            let event = ObsEvent::SpotRevoke {
                node,
                deadline_ms,
                drained,
            };
            self.obs(b.start, event);
        }
    }

    /// 3. Elastic fleet sizing off the governor's smoothed load
    ///    estimates.
    fn autoscale(&mut self, b: &Boundary) {
        let Some(scaler) = self.autoscaler.as_mut() else {
            return;
        };
        let nodes = &self.cl.nodes;
        let eligible: Vec<bool> = nodes.iter().map(ClusterNode::is_routable).collect();
        let blocked: Vec<bool> = nodes
            .iter()
            .zip(&self.pending_revoke)
            .map(|(nd, pending)| nd.is_down() || nd.is_warming() || pending.is_some())
            .collect();
        let load: f64 = (0..nodes.len())
            .map(|j| self.governor.load_estimate(j).unwrap_or(0.0))
            .sum();
        match scaler.decide(load, &eligible, &blocked) {
            ScaleAction::Up(j) => {
                let ready = b.start + scaler.config().warmup_ms;
                self.activate(j, b.start, ready);
            }
            ScaleAction::Down(j) => {
                let drained = self.cl.nodes[j].drain();
                self.redistribute(j);
                self.obs(b.start, ObsEvent::ScaleDown { node: j, drained });
            }
            ScaleAction::Hold => {}
        }
    }

    /// 4. Re-split the fleet budget from the previous interval's
    ///    observed per-node load. Off nodes draw nothing, warming nodes
    ///    are pinned at the floor, serving nodes share by load.
    fn govern(&mut self, b: &Boundary) {
        let nodes = &self.cl.nodes;
        let states: Vec<NodeShare> = nodes
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
            .observe_and_split_states(&self.last_assigned_rps, &states);
        for (node, &cap_w) in self.cl.nodes.iter_mut().zip(&caps) {
            node.set_power_cap(cap_w);
        }
        if self.recording() {
            for (node, &cap_w) in caps.iter().enumerate() {
                self.obs(b.start, ObsEvent::GovernorSplit { node, cap_w });
            }
        }
    }

    /// 5. Re-plan every node from its own monitor.
    fn replan(&mut self, b: &Boundary) {
        let n_rt = self.cl.nodes.iter().filter(|nd| nd.is_routable()).count();
        let floor_est = if n_rt > 0 {
            b.offered_rps / n_rt as f64 * 0.1
        } else {
            0.0
        };
        for node in &mut self.cl.nodes {
            let est = node.load_estimate_rps().max(floor_est);
            let _ = node.begin_interval(est);
        }
    }

    /// 6. Per-class arrivals: redistributed work (re-timed to the
    ///    boundary) ahead of each class's own Poisson stream
    ///    ([`Boundary::fresh_arrivals`]).
    fn arrivals(&self, b: &Boundary) -> Vec<Vec<f64>> {
        self.mix
            .iter()
            .enumerate()
            .map(|(c, &share)| {
                let fresh = b.fresh_arrivals(self.spec, c, share);
                let mut a: Vec<f64> = std::iter::repeat_n(b.start, self.redistributed_class[c])
                    .chain(fresh.map(|t| b.start + t))
                    .collect();
                a.sort_by(f64::total_cmp);
                a
            })
            .collect()
    }

    /// 7. Per-class admission against start-of-interval node and
    ///    per-tenant views. Each node's assigned load becomes the
    ///    governor's signal for the next boundary.
    fn route(&mut self, b: &Boundary, arrivals: &[Vec<f64>]) -> ClassRouteOutcome {
        let recording = self.recording();
        let nodes = &self.cl.nodes;
        let views: Vec<NodeView> = nodes
            .iter()
            .zip(&self.last_power_w)
            .map(|(node, &power_w)| NodeView {
                up: node.is_routable(),
                queued: node.queued(),
                power_w,
                power_cap_w: node.power_cap_w(),
                capacity_rps: node.capacity_rps(),
            })
            .collect();
        let class_views: Vec<Vec<ClassNodeView>> = nodes
            .iter()
            .map(|nd| {
                (0..self.mix.len())
                    .map(|c| ClassNodeView {
                        queued: nd.queued_of(c),
                        capacity_rps: nd.capacity_rps_of(c),
                    })
                    .collect()
            })
            .collect();
        let arr_slices: Vec<&[f64]> = arrivals.iter().map(Vec::as_slice).collect();
        let interval_ms = self.spec.interval_ms;
        let outcome = self.router.route_classes(
            &views,
            &class_views,
            &arr_slices,
            &self.weights,
            b.start,
            interval_ms,
        );
        for (node, per_class) in outcome.per_node.iter().enumerate() {
            let assigned: usize = per_class.iter().map(Vec::len).sum();
            self.last_assigned_rps[node] = assigned as f64 * 1000.0 / interval_ms;
            if recording {
                self.obs(b.start, ObsEvent::Route { node, assigned });
            }
        }
        if recording && outcome.shed > 0 {
            let count = outcome.shed;
            self.obs(b.start, ObsEvent::Shed { count });
        }
        if recording && self.mix.len() > 1 {
            for (class, &(admitted, deferred, shed)) in outcome.per_class.iter().enumerate() {
                let event = ObsEvent::ClassAdmission {
                    class,
                    admitted,
                    deferred,
                    shed,
                };
                self.obs(b.start, event);
            }
        }
        outcome
    }

    /// 8. Advance every node's simulation to the interval end. The
    ///    boundary is a conservative synchronization barrier: no event
    ///    crosses nodes mid-interval, so the N private event loops fan
    ///    out across the cluster's workers and their stats come back in
    ///    node-index order — byte-identical to the serial schedule.
    ///    Stepping stays serial while recording: recorder sequence
    ///    numbers are allocated in emission order.
    fn advance(&mut self, b: &Boundary, outcome: &ClassRouteOutcome) -> Vec<NodeIntervalStats> {
        let jobs = if self.recording() { 1 } else { self.jobs };
        par_map_mut(jobs, &mut self.cl.nodes, |j, node| {
            let slices: Vec<&[f64]> = outcome.per_node[j].iter().map(Vec::as_slice).collect();
            node.run_to_classes(&slices, b.end)
        })
    }

    /// 9. Merge the node results in node-index order into the interval
    ///    record and the run totals. Inactive nodes are modeled powered
    ///    off: their (idle) power and energy stay out of the report, and
    ///    their expected outages are fed to the breakers as quiet healthy
    ///    intervals.
    fn aggregate(
        &mut self,
        b: &Boundary,
        outcome: &ClassRouteOutcome,
        stats: &[NodeIntervalStats],
    ) {
        let (mut completed, mut violations, mut timed_out) = (0, 0, 0);
        let (mut power_w, mut nodes_up) = (0.0, 0);
        let mut per_node_completed: Vec<usize> = Vec::with_capacity(stats.len());
        let mut health: Vec<(usize, usize, bool)> = Vec::with_capacity(stats.len());
        for (j, (node, st)) in self.cl.nodes.iter().zip(stats).enumerate() {
            let active = node.is_active();
            self.last_power_w[j] = if active { st.avg_power_w } else { 0.0 };
            completed += st.completed;
            violations += st.violations;
            timed_out += st.timed_out;
            if active {
                power_w += st.avg_power_w + self.spec.node_static_w;
            }
            self.totals.add_node(st, active, node.segment_samples());
            if st.healthy_devices > 0 {
                nodes_up += 1;
                if active {
                    per_node_completed.push(st.completed);
                }
            }
            let expected_down = self.pending_revoke[j].is_some() || !active;
            health.push(if expected_down {
                (0, 0, true)
            } else {
                (st.completed, st.violations, st.healthy_devices > 0)
            });
        }
        // Feed the router's circuit breakers (no-op when disabled).
        let trips = self.observe_breakers(&health, b.end);
        // Load-balance skew is across the serving nodes that are up at
        // the interval end.
        let record = ClusterIntervalRecord {
            start_ms: b.start,
            utilization: b.utilization,
            offered_rps: b.offered_rps,
            p99_ms: self.totals.interval_p99(),
            power_w,
            nodes_up,
            violations,
            completed,
            shed: outcome.shed,
            redistributed: self.redistributed_class.iter().sum(),
            timed_out,
            util_skew: completion_skew(&per_node_completed),
            nodes_active: self.cl.nodes.iter().filter(|nd| nd.is_active()).count(),
        };
        self.totals.add(record, &outcome.per_class, trips);
    }

    /// The run's report.
    fn finish(self) -> ClusterReport {
        self.totals.finish(&self.cl.nodes)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use poly_sim::{FaultKind, HedgeConfig};

    /// One interval's record; only its completion count is read back.
    fn record(completed: usize) -> ClusterIntervalRecord {
        ClusterIntervalRecord {
            start_ms: 0.0,
            utilization: 0.0,
            offered_rps: 0.0,
            p99_ms: 0.0,
            power_w: 0.0,
            nodes_up: 0,
            violations: 0,
            completed,
            shed: 0,
            redistributed: 0,
            timed_out: 0,
            util_skew: 0.0,
            nodes_active: 0,
        }
    }

    /// The totals of a one-class run of 1 s intervals with `fresh`
    /// fresh arrivals.
    fn run_totals(fresh: usize) -> RunTotals {
        let trace = [TracePoint {
            start_ms: 0.0,
            utilization: 1.0,
        }];
        RunTotals::new(&ClusterRunSpec::new(&trace, 1_000.0, 1.0), 1, fresh)
    }

    /// The run p99 keeps at most the top ~1% of the run's fresh
    /// arrivals, whatever the intervals bring, and still reads exactly
    /// what selecting over every sample reads.
    #[test]
    fn run_totals_hold_at_most_the_tail_of_the_fresh_arrivals() {
        let fresh = 10_000;
        let bound = fresh - ((0.99 * fresh as f64).ceil() as usize - 1);
        assert_eq!(bound, 101);
        let mut totals = run_totals(fresh);
        let mut all = Vec::new();
        let mut x: u64 = 0x9E37_79B9_7F4A_7C15;
        for i in 0..50 {
            // Interval i completes 3i + 7 requests: 4 025 in all.
            for _ in 0..3 * i + 7 {
                x ^= x << 13;
                x ^= x >> 7;
                x ^= x << 17;
                let latency = (x % 5_000) as f64 * 0.1;
                totals.interval_samples.push(latency);
                all.push(latency);
            }
            totals.add(record(3 * i + 7), &[(0, 0, 0)], 0);
            assert!(totals.run_p99.held() <= bound, "interval {i}");
        }
        let want = quantile_of(&all, 0.99, &mut Vec::new());
        let report = totals.finish(&[]);
        assert_eq!(report.completed, all.len());
        assert_eq!(Some(report.p99_ms.to_bits()), want.map(f64::to_bits));
    }

    #[test]
    fn a_run_without_completions_reports_a_zero_p99() {
        for fresh in [0, 40] {
            let mut totals = run_totals(fresh);
            totals.add(record(0), &[(0, 0, 0)], 0);
            let report = totals.finish(&[]);
            assert_eq!((report.completed, report.p99_ms), (0, 0.0), "{fresh} fresh");
        }
    }

    #[test]
    #[should_panic(expected = "3 finite samples exceed the declared bound of 2")]
    fn more_completions_than_fresh_arrivals_is_refused() {
        let mut totals = run_totals(2);
        totals.interval_samples.extend([1.0, 2.0, 3.0]);
        totals.add(record(3), &[(0, 0, 0)], 0);
        let _ = totals.finish(&[]);
    }

    /// Three Setting-I Heter-Poly ASR nodes at a 200 ms bound, under
    /// `lifecycle`.
    fn asr_fleet(lifecycle: LifecycleConfig) -> Cluster {
        use poly_core::provision::{table_iii, Architecture, Setting};
        let app = poly_apps::asr();
        let setup = table_iii(Setting::I, Architecture::HeterPoly);
        let ex = poly_dse::Explorer::new(setup.gpu.clone(), setup.fpga.clone());
        let spaces: Vec<KernelDesignSpace> = app.kernels().iter().map(|k| ex.explore(k)).collect();
        let config = ClusterConfig {
            bound_ms: 200.0,
            routing: RoutingPolicy::JoinShortestQueue,
            power_budget_w: 780.0,
            node_floor_w: 40.0,
            max_backlog: 200,
            lifecycle,
            breaker: Some(BreakerConfig::default()),
        };
        Cluster::try_new(&app, &spaces, vec![setup; 3], config).expect("valid fleet")
    }

    /// Drains, redistribution, retries and hedges re-issue requests but
    /// never add completions: on a chaos run (deadlines, backoff retries,
    /// hedges, fail-stops) and an elastic one (autoscaling, a noticed
    /// revocation), the completions stay within the fresh arrivals the
    /// pre-pass counts.
    #[test]
    fn chaos_and_elastic_runs_complete_at_most_their_fresh_arrivals() {
        let trace: Vec<TracePoint> = (0..12)
            .map(|i| TracePoint {
                start_ms: i as f64 * 10_000.0,
                utilization: 0.5 + 0.4 * (i % 4) as f64 / 3.0,
            })
            .collect();
        let chaos = LifecycleConfig {
            deadline_factor: Some(2.0),
            retry: poly_sim::RetryPolicy::Backoff(poly_sim::BackoffPolicy::default()),
            hedge: Some(HedgeConfig::default()),
        };
        let faults = FaultPlan::new()
            .fail_stop(25_000.0, 0)
            .recover(65_000.0, 0)
            .fail_stop(41_000.0, 2)
            .recover(52_000.0, 2);
        let spec = ClusterRunSpec::new(&trace, 10_000.0, 70.0)
            .seed(7)
            .faults(faults);
        let report = asr_fleet(chaos).replay(&spec, &[1.0], None);
        let fresh = fresh_arrival_count(&spec, &[1.0]);
        assert!(report.retry.redistributed > 0 && report.retry.hedges_fired > 0);
        assert!(report.completed <= fresh, "{} > {fresh}", report.completed);

        let revoke = FaultPlan::new()
            .revoke(30_000.0, 1, 30_000.0)
            .recover(80_000.0, 1);
        let spec = ClusterRunSpec::new(&trace, 10_000.0, 70.0)
            .seed(8)
            .faults(revoke)
            .autoscale(crate::AutoscaleConfig::default());
        let report = asr_fleet(LifecycleConfig::default()).replay(&spec, &[1.0], None);
        let fresh = fresh_arrival_count(&spec, &[1.0]);
        assert!(report.retry.redistributed > 0);
        assert!(report.completed <= fresh, "{} > {fresh}", report.completed);
    }

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

    #[test]
    fn bad_lifecycle_and_breaker_fail_validation_by_name() {
        let config = ClusterConfig {
            bound_ms: 200.0,
            routing: RoutingPolicy::RoundRobin,
            power_budget_w: 500.0,
            node_floor_w: 40.0,
            max_backlog: 64,
            lifecycle: LifecycleConfig {
                deadline_factor: Some(f64::NAN),
                ..LifecycleConfig::default()
            },
            breaker: None,
        };
        assert!(matches!(
            config.validate(),
            Err(ClusterError::Lifecycle(SimError::Lifecycle {
                field: "deadline_factor",
                ..
            }))
        ));
        let ok = ClusterConfig {
            lifecycle: LifecycleConfig::default(),
            ..config
        };
        assert_eq!(ok.validate(), Ok(()));
        let bad_breaker = ClusterConfig {
            breaker: Some(BreakerConfig {
                probe_quota: 0,
                ..BreakerConfig::default()
            }),
            ..ok
        };
        assert!(matches!(
            bad_breaker.validate(),
            Err(ClusterError::Breaker {
                field: "probe_quota",
                ..
            })
        ));
    }
}
