//! The two fleet workloads, `fleet-overload` and `tenant-elastic`: set-up,
//! the untraced replay through `Cluster::run`, and the traced replay that
//! drives the same loop from outside through the nodes', router's,
//! governor's and autoscaler's public calls.

use std::time::Instant;

use poly::apps::{asr, matrix_factorization, QOS_BOUND_MS};
use poly::cluster::{
    node_fault_plan, AutoscaleConfig, Autoscaler, BreakerConfig, BreakerState, ClassNodeView,
    Cluster, ClusterConfig, ClusterNode, ClusterReport, ClusterRunSpec, NodeShare, NodeTransition,
    NodeView, PowerGovernor, Router, RoutingPolicy, ScaleAction,
};
use poly::core::provision::{table_iii, Architecture, Setting};
use poly::core::AppContext;
use poly::dse::Explorer;
use poly::ir::KernelGraph;
use poly::sim::workload::{google_trace_24h, poisson, TracePoint};
use poly::sim::{quantile_of, AuditReport, FaultKind, FaultPlan, LifecycleConfig};

use crate::probe::{per, ColdExplore, LayerValues, OutcomeRecorder, Outcomes, Span};
use crate::stats::{depth_bucket, max_rps_without_backlog, IntervalLoad, DEPTH_BUCKETS};
use crate::{Score, Workload};

/// One tenant class hosted on every node.
struct Tenant {
    app: fn() -> KernelGraph,
    bound_ms: f64,
    /// QoS label and weight; `None` keeps the single-tenant defaults.
    class: Option<(&'static str, f64)>,
}

/// A fleet workload: the fleet, its control knobs, and its traffic.
pub struct Fleet {
    tenants: Vec<Tenant>,
    nodes: usize,
    config: ClusterConfig,
    trace: Vec<TracePoint>,
    interval_ms: f64,
    max_rps: f64,
    /// Per-class traffic shares; `Some` (with the other elastic knobs)
    /// selects the flex replay loop.
    mix: Option<Vec<f64>>,
    node_static_w: f64,
    autoscale: Option<AutoscaleConfig>,
    faults: FaultPlan,
}

/// The fixed diurnal utilization trace (the one the repository's figures
/// replay), one point per `interval_ms` of simulated time.
pub fn diurnal_trace(interval_ms: f64) -> Vec<TracePoint> {
    google_trace_24h(300_000.0, 2011)
        .into_iter()
        .enumerate()
        .map(|(i, p)| TracePoint {
            start_ms: i as f64 * interval_ms,
            utilization: p.utilization,
        })
        .collect()
}

/// Sustainable rate of one Setting-I Heter-Poly node serving ASR within
/// 200 ms, requests per second.
const NODE_CAPACITY_RPS: f64 = 78.0;

impl Fleet {
    /// 4 Setting-I Heter-Poly nodes serving ASR behind round-robin
    /// routing with unbounded queues, the diurnal peak offering 1.5x the
    /// fleet's capacity. Trace points are replayed 2.5 s apart, which
    /// keeps one replay near three host seconds while every node still
    /// queues more than 10 000 work items at the peak (at 2 s most seeds
    /// stayed just under 10 000).
    pub fn overload() -> Self {
        let nodes = 4;
        let interval_ms = 2_500.0;
        let trace = diurnal_trace(interval_ms);
        let peak = trace.iter().map(|p| p.utilization).fold(0.0, f64::max);
        Self {
            tenants: vec![Tenant {
                app: asr,
                bound_ms: QOS_BOUND_MS,
                class: None,
            }],
            nodes,
            config: ClusterConfig {
                bound_ms: QOS_BOUND_MS,
                routing: RoutingPolicy::RoundRobin,
                power_budget_w: 260.0 * nodes as f64,
                node_floor_w: 40.0,
                max_backlog: 512,
                lifecycle: LifecycleConfig::default(),
                breaker: None,
            },
            trace,
            interval_ms,
            max_rps: 1.5 * NODE_CAPACITY_RPS * nodes as f64 / peak,
            mix: None,
            node_static_w: 0.0,
            autoscale: None,
            faults: FaultPlan::new(),
        }
    }

    /// The `elastic` figure's spot-notice fleet: 4 nodes, each hosting
    /// asr-strict (200 ms, weight 3) and mf-lenient (600 ms, weight 1),
    /// QoS-aware routing with breakers, the autoscaler, two noticed spot
    /// revocations and 80 W of static draw per powered-on node.
    pub fn elastic() -> Self {
        let nodes = 4;
        let interval_ms = 10_000.0;
        let hour_ms = |h: f64| h * 12.0 * interval_ms;
        let notice_ms = 30_000.0;
        Self {
            tenants: vec![
                Tenant {
                    app: asr,
                    bound_ms: QOS_BOUND_MS,
                    class: Some(("asr-strict", 3.0)),
                },
                Tenant {
                    app: matrix_factorization,
                    bound_ms: 600.0,
                    class: Some(("mf-lenient", 1.0)),
                },
            ],
            nodes,
            config: ClusterConfig {
                bound_ms: QOS_BOUND_MS,
                routing: RoutingPolicy::QosAware,
                power_budget_w: 380.0 * nodes as f64,
                node_floor_w: 40.0,
                max_backlog: 512,
                lifecycle: LifecycleConfig::default(),
                breaker: Some(BreakerConfig::default()),
            },
            trace: diurnal_trace(interval_ms),
            interval_ms,
            max_rps: 180.0,
            mix: Some(vec![0.75, 0.25]),
            node_static_w: 80.0,
            autoscale: Some(AutoscaleConfig {
                min_nodes: 3,
                target_rps_per_node: 45.0,
                warmup_ms: notice_ms,
                cooldown_intervals: 3,
                ..AutoscaleConfig::default()
            }),
            faults: FaultPlan::new()
                .revoke(hour_ms(2.0), 3, notice_ms)
                .recover(hour_ms(8.0), 3)
                .revoke(hour_ms(20.0), 2, notice_ms)
                .recover(hour_ms(23.0), 2),
        }
    }

    fn classes(&self) -> usize {
        self.tenants.len()
    }

    /// Normalized per-class traffic shares, as the cluster normalizes them.
    fn shares(&self) -> Vec<f64> {
        let mix = self
            .mix
            .clone()
            .unwrap_or_else(|| vec![1.0; self.classes()]);
        let sum: f64 = mix.iter().sum();
        mix.iter().map(|m| m / sum).collect()
    }

    /// Seed of class `class`'s Poisson stream in interval `i`, as the
    /// cluster derives it.
    fn class_seed(seed: u64, class: usize, i: usize) -> u64 {
        if class == 0 {
            seed.wrapping_add(i as u64)
        } else {
            (seed ^ (class as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15)).wrapping_add(i as u64)
        }
    }

    /// Fresh requests offered per interval, summed over classes.
    fn offered_per_interval(&self, seed: u64) -> Vec<usize> {
        let shares = self.shares();
        self.trace
            .iter()
            .enumerate()
            .map(|(i, p)| {
                let rps = p.utilization * self.max_rps;
                (0..self.classes())
                    .map(|c| {
                        poisson(
                            rps * shares[c],
                            self.interval_ms,
                            Self::class_seed(seed, c, i),
                        )
                        .len()
                    })
                    .sum()
            })
            .collect()
    }

    fn build_nodes(&self, ctxs: &[AppContext]) -> Vec<ClusterNode> {
        (0..self.nodes)
            .map(|_| ClusterNode::new_multi(ctxs.to_vec()))
            .collect()
    }

    fn cluster(&self, ctxs: &[AppContext]) -> Result<Cluster, String> {
        Cluster::from_nodes(self.build_nodes(ctxs), self.config.clone())
            .map_err(|e| format!("cluster construction failed: {e}"))
    }
}

/// What set-up leaves ready to replay.
pub struct Ready {
    ctxs: Vec<AppContext>,
    explore: ColdExplore,
}

/// One untraced replay and the cluster it ran on (for its audits).
pub struct Replay {
    report: ClusterReport,
    cluster: Cluster,
}

/// Totals the traced replay must reproduce bit for bit.
#[derive(Debug, Default, PartialEq)]
struct Totals {
    completed: usize,
    violations: usize,
    energy_j: f64,
    shed: usize,
    timed_out: usize,
    redistributed: usize,
    breaker_trips: usize,
    p99_ms: f64,
}

impl Totals {
    fn of(r: &ClusterReport) -> Self {
        Self {
            completed: r.completed,
            violations: r.intervals.iter().map(|i| i.violations).sum(),
            energy_j: r.energy_j,
            shed: r.shed,
            timed_out: r.timed_out,
            redistributed: r.retry.redistributed,
            breaker_trips: r.breaker_trips,
            p99_ms: r.p99_ms,
        }
    }
}

impl Workload for Fleet {
    type Ready = Ready;
    type Out = Replay;

    fn setup(&self) -> Result<Ready, String> {
        let mut explore = ColdExplore::default();
        let mut ctxs = Vec::with_capacity(self.classes());
        for t in &self.tenants {
            let app = (t.app)();
            let mut setup = table_iii(Setting::I, Architecture::HeterPoly);
            setup.sim_config.lifecycle = self.config.lifecycle.clone();
            let explorer = Explorer::new(setup.gpu.clone(), setup.fpga.clone());
            let spaces = explore.app(&explorer, &app);
            let ctx = AppContext::new(app, spaces, setup, t.bound_ms);
            ctxs.push(match t.class {
                Some((label, weight)) => ctx.with_tenant(label, weight),
                None => ctx,
            });
        }
        // Constructing the cluster is part of getting ready to replay.
        drop(self.cluster(&ctxs)?);
        Ok(Ready { ctxs, explore })
    }

    fn replay(
        &self,
        ready: &Ready,
        seed: u64,
        recorder: Option<&OutcomeRecorder>,
    ) -> Result<(Replay, f64), String> {
        let mut cluster = self.cluster(&ready.ctxs)?;
        let mut spec = ClusterRunSpec::new(&self.trace, self.interval_ms, self.max_rps)
            .seed(seed)
            .faults(self.faults.clone())
            .jobs(1);
        if let Some(mix) = &self.mix {
            spec = spec
                .traffic_mix(mix.clone())
                .node_static_w(self.node_static_w);
        }
        if let Some(a) = &self.autoscale {
            spec = spec.autoscale(a.clone());
        }
        if let Some(r) = recorder {
            spec = spec.recorder(Box::new(r.clone()));
        }
        let t0 = Instant::now();
        let report = cluster.run(spec);
        let wall = t0.elapsed().as_secs_f64();
        let report = report.map_err(|e| format!("cluster run failed: {e}"))?;
        Ok((Replay { report, cluster }, wall))
    }

    fn render(out: &Replay) -> String {
        format!("{:?}", out.report)
    }

    fn completions(out: &Replay) -> usize {
        out.report.completed
    }

    fn score(&self, seed: u64, out: &Replay, outcomes: &Outcomes) -> Result<Score, String> {
        let r = &out.report;
        let (audit, per_node) = out.cluster.audits();
        for (j, a) in per_node.iter().enumerate() {
            a.check().map_err(|e| format!("node {j} audit: {e}"))?;
        }
        audit.check().map_err(|e| format!("fleet audit: {e}"))?;
        let offered_per = self.offered_per_interval(seed);
        let offered: usize = offered_per.iter().sum();
        if audit.completed != r.completed || audit.timed_out != r.timed_out {
            return Err(format!(
                "report and audit disagree: completed {} vs {}, timed out {} vs {}",
                r.completed, audit.completed, r.timed_out, audit.timed_out
            ));
        }
        if audit.cancelled != r.retry.redistributed {
            return Err(format!(
                "{} requests cancelled but {} re-issued",
                audit.cancelled, r.retry.redistributed
            ));
        }
        // Requests offered = completed + shed + timed out + failed +
        // cancelled (not re-issued) + unfinished, where unfinished is
        // what the nodes still hold plus what the router still defers.
        // The router's backlog is not visible from outside the cluster,
        // so here it is what remains, and it must fit the backlog bound;
        // the traced replay, which owns its router, checks it exactly.
        let accounted = r.completed + r.shed + audit.timed_out + audit.failed + audit.pending;
        let deferred = offered.checked_sub(accounted).ok_or_else(|| {
            format!("conservation: {offered} offered but {accounted} accounted for")
        })?;
        // Round-robin never defers; QoS-aware routing defers up to its
        // backlog bound.
        let max_deferred = if self.config.routing == RoutingPolicy::QosAware {
            self.config.max_backlog
        } else {
            0
        };
        if deferred > max_deferred {
            return Err(format!(
                "conservation: {deferred} of {offered} offered requests are unaccounted for"
            ));
        }
        let mut scratch = Vec::new();
        let lat = &outcomes.latencies_ms;
        if lat.len() != r.completed
            || quantile_of(lat, 0.99, &mut scratch)
                .unwrap_or(0.0)
                .to_bits()
                != r.p99_ms.to_bits()
        {
            return Err("telemetry latencies disagree with the report's completions or p99".into());
        }
        let violations: usize = r.intervals.iter().map(|i| i.violations).sum();
        let loads: Vec<IntervalLoad> = r
            .intervals
            .iter()
            .zip(&offered_per)
            .map(|(rec, &offered)| IntervalLoad {
                offered_rps: rec.offered_rps,
                offered,
                completed: rec.completed,
                violations: rec.violations,
                shed: rec.shed,
                timed_out: rec.timed_out,
            })
            .collect();
        Ok(Score {
            offered,
            completed: r.completed,
            violations,
            shed: r.shed,
            timed_out: audit.timed_out,
            failed: audit.failed,
            unfinished: audit.pending + deferred,
            latencies_ms: lat.clone(),
            energy_j: r.energy_j,
            max_rps: max_rps_without_backlog(&loads).unwrap_or(0.0),
        })
    }

    fn explored(ready: &Ready) -> &ColdExplore {
        &ready.explore
    }

    fn traced(
        &self,
        ready: &Ready,
        seed: u64,
        reference: &Replay,
    ) -> Result<(f64, LayerValues), String> {
        let nodes = self.build_nodes(&ready.ctxs);
        let t0 = Instant::now();
        let (totals, layers) = self.traced_replay(nodes, seed)?;
        let wall = t0.elapsed().as_secs_f64();
        let want = Totals::of(&reference.report);
        if totals != want {
            return Err(format!(
                "traced replay diverged from Cluster::run: {totals:?} vs {want:?}"
            ));
        }
        Ok((wall, layers))
    }
}

impl Fleet {
    /// The cluster's replay loop, driven from outside with a timer around
    /// each call into a layer. It uses the multi-class forms throughout
    /// (`begin_replay_multi`, `observe_and_split_states`,
    /// `route_classes`, `run_to_classes`); with one class they reproduce
    /// the single-class loop.
    /// Fails if a request is unaccounted for at the end: offered must
    /// equal completed + shed + timed out + failed + still queued on a
    /// node + still deferred by the router.
    #[allow(clippy::too_many_lines)]
    fn traced_replay(
        &self,
        mut nodes: Vec<ClusterNode>,
        seed: u64,
    ) -> Result<(Totals, LayerValues), String> {
        let n = self.nodes;
        let classes = self.classes();
        let interval_ms = self.interval_ms;
        let mix = self.shares();
        let weights: Vec<f64> = (0..classes).map(|c| nodes[0].tenant_weight(c)).collect();
        let mut router = Router::new(self.config.routing);
        router.set_max_backlog(self.config.max_backlog);
        if let Some(b) = self.config.breaker {
            router.enable_breakers(b, n);
        }
        let mut governor =
            PowerGovernor::new(self.config.power_budget_w, self.config.node_floor_w, n);
        let mut autoscaler = self.autoscale.clone().map(Autoscaler::new);

        let first_rps = self
            .trace
            .first()
            .map_or(0.0, |p| p.utilization * self.max_rps);
        for (j, node) in nodes.iter_mut().enumerate() {
            let plan = node_fault_plan(&self.faults, j, node.setup().pool.len());
            let shares: Vec<f64> = mix.iter().map(|m| first_rps * m / n as f64).collect();
            node.begin_replay_multi(&shares, &plan);
        }
        // Noticed revocations: (at, node, deadline, consumed).
        let mut revocations: Vec<(f64, usize, f64, bool)> = self
            .faults
            .events()
            .iter()
            .filter_map(|e| match e.kind {
                FaultKind::Revoke { notice_ms } => {
                    Some((e.at_ms, e.device, e.at_ms + notice_ms.max(0.0), false))
                }
                _ => None,
            })
            .collect();
        revocations.sort_by(|a, b| a.0.total_cmp(&b.0).then(a.1.cmp(&b.1)));
        let mut pending_revoke: Vec<Option<f64>> = vec![None; n];

        let (mut replan, mut route, mut split) =
            (Span::default(), Span::default(), Span::default());
        let mut advance = [Span::default(); 3];
        let mut advance_completed = [0usize; 3];
        let mut replan_changed = 0usize;
        let mut driver_self_ns = 0u128;
        let mut max_depth = 0usize;
        let mut offered = 0usize;

        let mut t = Totals::default();
        let mut all_samples: Vec<f64> = Vec::new();
        let mut last_power_w = vec![0.0; n];
        let mut last_assigned_rps = vec![0.0; n];

        for (i, point) in self.trace.iter().enumerate() {
            let t_interval = Instant::now();
            let children_before =
                replan.ns + route.ns + split.ns + advance.iter().map(|s| s.ns).sum::<u128>();
            let start = point.start_ms;
            let end = start + interval_ms;
            let offered_rps = point.utilization * self.max_rps;
            let mut redistributed_class = vec![0usize; classes];

            // Maintain: node health, warm-up, recovery.
            for (j, pending) in pending_revoke.iter_mut().enumerate() {
                match nodes[j].maintain_at(start) {
                    NodeTransition::WentDown(d) => {
                        t.redistributed += d;
                        add_drained(&mut redistributed_class, &nodes[j]);
                    }
                    NodeTransition::CameBack => {
                        *pending = None;
                        if !nodes[j].is_active() && autoscaler.is_none() {
                            nodes[j].activate(Some(start + interval_ms));
                        }
                    }
                    NodeTransition::Steady => {}
                }
            }
            // Noticed revocations inside their window: drain now.
            for r in &mut revocations {
                if r.3 || r.0 > start {
                    continue;
                }
                r.3 = true;
                if start >= r.2 || nodes[r.1].is_down() {
                    continue;
                }
                if nodes[r.1].is_active() {
                    t.redistributed += nodes[r.1].drain();
                    add_drained(&mut redistributed_class, &nodes[r.1]);
                }
                pending_revoke[r.1] = Some(r.2);
            }
            // Autoscaler.
            if i > 0 {
                if let Some(scaler) = autoscaler.as_mut() {
                    let eligible: Vec<bool> = nodes.iter().map(ClusterNode::is_routable).collect();
                    let blocked: Vec<bool> = nodes
                        .iter()
                        .enumerate()
                        .map(|(j, nd)| {
                            nd.is_down() || nd.is_warming() || pending_revoke[j].is_some()
                        })
                        .collect();
                    let load: f64 = (0..n)
                        .map(|j| governor.load_estimate(j).unwrap_or(0.0))
                        .sum();
                    match scaler.decide(load, &eligible, &blocked) {
                        ScaleAction::Up(j) => {
                            let ready_ms = start + scaler.config().warmup_ms;
                            nodes[j].activate(Some(ready_ms));
                        }
                        ScaleAction::Down(j) => {
                            t.redistributed += nodes[j].drain();
                            add_drained(&mut redistributed_class, &nodes[j]);
                        }
                        ScaleAction::Hold => {}
                    }
                }
            }
            // Governor: re-split the fleet budget, then each node's cap
            // across its tenants.
            if i > 0 {
                split.time(|| {
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
                    let caps = governor.observe_and_split_states(&last_assigned_rps, &states);
                    for (node, cap) in nodes.iter_mut().zip(&caps) {
                        node.set_power_cap(*cap);
                    }
                });
            }
            // Re-plan every node.
            if i > 0 {
                let routable = nodes.iter().filter(|nd| nd.is_routable()).count();
                let floor_est = if routable > 0 {
                    offered_rps / routable as f64 * 0.1
                } else {
                    0.0
                };
                for node in &mut nodes {
                    let est = node.load_estimate_rps().max(floor_est);
                    if replan.time(|| node.begin_interval(est)) {
                        replan_changed += 1;
                    }
                }
            }
            // Arrivals: re-issued work at the boundary ahead of each
            // class's Poisson stream.
            let class_arrivals: Vec<Vec<f64>> = (0..classes)
                .map(|c| {
                    let fresh = poisson(
                        offered_rps * mix[c],
                        interval_ms,
                        Self::class_seed(seed, c, i),
                    );
                    offered += fresh.len();
                    let mut a: Vec<f64> = std::iter::repeat_n(start, redistributed_class[c])
                        .chain(fresh.into_iter().map(|x| start + x))
                        .collect();
                    a.sort_by(f64::total_cmp);
                    a
                })
                .collect();
            // Route.
            let views: Vec<NodeView> = nodes
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
            let class_views: Vec<Vec<ClassNodeView>> = nodes
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
            let slices: Vec<&[f64]> = class_arrivals.iter().map(Vec::as_slice).collect();
            let outcome = route.time(|| {
                router.route_classes(&views, &class_views, &slices, &weights, start, interval_ms)
            });
            t.shed += outcome.shed;
            // Advance every node to the interval end, timed per node and
            // bucketed by the queue it carried into the interval.
            let mut interval_samples: Vec<f64> = Vec::new();
            let mut health: Vec<(usize, usize, bool)> = Vec::with_capacity(n);
            for (j, node) in nodes.iter_mut().enumerate() {
                let depth = node.queued();
                max_depth = max_depth.max(depth);
                let bucket = depth_bucket(depth);
                let arrivals: Vec<&[f64]> = outcome.per_node[j].iter().map(Vec::as_slice).collect();
                let stats = advance[bucket].time(|| node.run_to_classes(&arrivals, end));
                advance_completed[bucket] += stats.completed;
                let active = node.is_active();
                last_power_w[j] = if active { stats.avg_power_w } else { 0.0 };
                let assigned: usize = outcome.per_node[j].iter().map(Vec::len).sum();
                last_assigned_rps[j] = assigned as f64 * 1000.0 / interval_ms;
                t.completed += stats.completed;
                t.violations += stats.violations;
                t.timed_out += stats.timed_out;
                if active {
                    t.energy_j += stats.energy_j + self.node_static_w * interval_ms / 1000.0;
                }
                let expected_down = pending_revoke[j].is_some() || !active;
                health.push(if expected_down {
                    (0, 0, true)
                } else {
                    (stats.completed, stats.violations, stats.healthy_devices > 0)
                });
                interval_samples.extend_from_slice(node.segment_samples());
            }
            // Breakers: count closed/half-open -> open transitions.
            let was_open: Vec<bool> = router
                .breakers()
                .iter()
                .map(|b| matches!(b.state(), BreakerState::Open { .. }))
                .collect();
            router.observe_health(&health);
            t.breaker_trips += router
                .breakers()
                .iter()
                .zip(&was_open)
                .filter(|(b, &open)| !open && matches!(b.state(), BreakerState::Open { .. }))
                .count();
            all_samples.extend_from_slice(&interval_samples);

            let children =
                replan.ns + route.ns + split.ns + advance.iter().map(|s| s.ns).sum::<u128>()
                    - children_before;
            driver_self_ns += t_interval.elapsed().as_nanos().saturating_sub(children);
        }
        t.p99_ms = quantile_of(&all_samples, 0.99, &mut Vec::new()).unwrap_or(0.0);
        let mut audit = AuditReport::default();
        for node in &nodes {
            audit.merge(&node.audit());
        }
        let accounted = t.completed
            + t.shed
            + audit.timed_out
            + audit.failed
            + audit.pending
            + router.backlog_len();
        if accounted != offered {
            return Err(format!(
                "conservation: {offered} offered but {accounted} accounted for \
                 (router backlog {})",
                router.backlog_len()
            ));
        }

        let intervals = self.trace.len();
        let advance_ns: u128 = advance.iter().map(|s| s.ns).sum();
        let mut layers = LayerValues::new();
        layers.insert(
            "sim.advance.ns_per_completion",
            per(advance_ns as f64, advance_completed.iter().sum()),
        );
        for (b, name) in DEPTH_BUCKETS.iter().enumerate() {
            layers.insert(name, per(advance[b].ns as f64, advance_completed[b]));
        }
        layers.insert("sim.queue_depth.max", max_depth as f64);
        layers.insert("cluster.node.replan.calls", replan.calls as f64);
        layers.insert("cluster.node.replan.us_per_call", replan.us_per_call());
        layers.insert(
            "cluster.node.replan.changed_ratio",
            per(replan_changed as f64, replan.calls),
        );
        layers.insert(
            "cluster.router.route.us_per_interval",
            per(route.ns as f64 / 1e3, intervals),
        );
        layers.insert("cluster.router.shed_ratio", per(t.shed as f64, offered));
        layers.insert(
            "cluster.governor.split.us_per_interval",
            per(split.ns as f64 / 1e3, intervals),
        );
        layers.insert(
            "cluster.driver.self_us_per_interval",
            per(driver_self_ns as f64 / 1e3, intervals),
        );
        Ok((t, layers))
    }
}

/// Add a node's last drain, per class, to the work re-entering routing.
fn add_drained(redistributed_class: &mut [usize], node: &ClusterNode) {
    for (r, &d) in redistributed_class
        .iter_mut()
        .zip(node.last_drained_per_class())
    {
        *r += d;
    }
}
