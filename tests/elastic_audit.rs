//! Elastic fleet audit: seeded spot-revocation sweeps over a
//! multi-tenant cluster, with the lifecycle conservation invariants
//! checked after every run. The schedules are deterministic in the seed,
//! so CI failures replay exactly. The core claim under test is the spot
//! contract: a revocation announced at least one re-planning interval
//! ahead is drained proactively, so the revoked node's circuit breaker
//! never trips — while the same capacity loss as an unannounced
//! fail-stop does trip. The contract is checked on the multi-tenant
//! fleet and on a single-tenant one replayed without any elastic knob.

use poly::apps::{asr, matrix_factorization, QOS_BOUND_MS};
use poly::cluster::{
    AutoscaleConfig, BreakerConfig, Cluster, ClusterConfig, ClusterNode, ClusterReport,
    ClusterRunSpec, RoutingPolicy,
};
use poly::core::provision::{table_iii, Architecture, Setting};
use poly::core::AppContext;
use poly::dse::{DesignSpaceCache, Explorer};
use poly::sim::workload::TracePoint;
use poly::sim::{FaultPlan, LifecycleConfig};

const INTERVAL_MS: f64 = 10_000.0;
const NODES: usize = 3;
/// Comfortable for three nodes, tight for the two survivors of a
/// revocation — enough pressure to make the drain path do real work.
const MAX_RPS: f64 = 90.0;
/// The strict tenant's 70% share of `MAX_RPS`: the single-tenant fleet's
/// load.
const STRICT_ONLY_RPS: f64 = 63.0;
/// Notice spanning three re-planning intervals, like the elastic figure.
const NOTICE_MS: f64 = 3.0 * INTERVAL_MS;

/// Which tenants every node of the audited fleet hosts.
#[derive(Debug, Clone, Copy)]
enum Tenancy {
    /// A strict ASR tenant and a lenient matrix-factorization tenant,
    /// with a 70/30 traffic mix and static node draw.
    Mixed,
    /// The strict ASR tenant alone, with no elastic knob set.
    StrictOnly,
}

/// Three nodes, each hosting a strict ASR tenant (200 ms, weight 3) and
/// — in the mixed fleet — a lenient matrix-factorization tenant (600 ms,
/// weight 1), behind the QoS-aware router with breakers armed.
fn fleet(tenancy: Tenancy) -> Cluster {
    let setup = table_iii(Setting::I, Architecture::HeterPoly);
    let explorer = Explorer::new(setup.gpu.clone(), setup.fpga.clone());
    let cache = DesignSpaceCache::new();
    let strict_app = asr();
    let lenient_app = matrix_factorization();
    let strict_spaces = cache.explore_graph(&explorer, strict_app.kernels(), 1);
    let lenient_spaces = cache.explore_graph(&explorer, lenient_app.kernels(), 1);
    let strict = AppContext::new(strict_app, strict_spaces, setup.clone(), QOS_BOUND_MS)
        .with_tenant("asr-strict", 3.0);
    let lenient = AppContext::new(lenient_app, lenient_spaces, setup, 3.0 * QOS_BOUND_MS)
        .with_tenant("mf-lenient", 1.0);
    let tenants = match tenancy {
        Tenancy::Mixed => vec![strict, lenient],
        Tenancy::StrictOnly => vec![strict],
    };
    Cluster::from_nodes(
        (0..NODES)
            .map(|_| ClusterNode::new_multi(tenants.clone()))
            .collect(),
        ClusterConfig {
            bound_ms: QOS_BOUND_MS,
            routing: RoutingPolicy::QosAware,
            power_budget_w: 380.0 * NODES as f64,
            node_floor_w: 40.0,
            max_backlog: 256,
            lifecycle: LifecycleConfig::default(),
            breaker: Some(BreakerConfig::default()),
        },
    )
    .expect("valid fleet")
}

/// A small diurnal-shaped trace: 40 re-planning intervals between lull
/// and shoulder load, fully deterministic.
fn trace() -> Vec<TracePoint> {
    (0..40)
        .map(|i| TracePoint {
            start_ms: i as f64 * INTERVAL_MS,
            utilization: 0.45 + 0.25 * (i as f64 / 40.0 * std::f64::consts::TAU).sin(),
        })
        .collect()
}

/// The elastic knobs every run here shares: a 70/30 strict/lenient
/// traffic mix and 80 W of static platform draw per powered-on node.
fn flex_spec<'a>(
    spec: ClusterRunSpec<'a>,
    autoscale: Option<AutoscaleConfig>,
) -> ClusterRunSpec<'a> {
    let spec = spec.traffic_mix(vec![0.7, 0.3]).node_static_w(80.0);
    match autoscale {
        Some(a) => spec.autoscale(a),
        None => spec,
    }
}

/// The seed picks which node is the spot instance and when its
/// revocation lands; the same seed also drives the arrival streams.
fn noticed_plan(seed: u64) -> FaultPlan {
    let node = (seed as usize) % NODES;
    let at = (5 + (seed as usize % 7)) as f64 * INTERVAL_MS;
    FaultPlan::new()
        .revoke(at, node, NOTICE_MS)
        .recover(at + 15.0 * INTERVAL_MS, node)
}

/// The surprise control: the same capacity loss landing exactly where
/// the noticed revocation's deadline would, with no warning.
fn surprise_plan(seed: u64) -> FaultPlan {
    let node = (seed as usize) % NODES;
    let at = (5 + (seed as usize % 7)) as f64 * INTERVAL_MS;
    FaultPlan::new()
        .fail_stop(at + NOTICE_MS, node)
        .recover(at + 15.0 * INTERVAL_MS, node)
}

fn run(
    tenancy: Tenancy,
    seed: u64,
    faults: &FaultPlan,
    autoscale: Option<AutoscaleConfig>,
    jobs: usize,
) -> ClusterReport {
    let mut cl = fleet(tenancy);
    let trace = trace();
    let max_rps = match tenancy {
        Tenancy::Mixed => MAX_RPS,
        Tenancy::StrictOnly => STRICT_ONLY_RPS,
    };
    let spec = ClusterRunSpec::new(&trace, INTERVAL_MS, max_rps)
        .seed(seed)
        .faults(faults.clone())
        .jobs(jobs);
    let spec = match tenancy {
        Tenancy::Mixed => flex_spec(spec, autoscale),
        Tenancy::StrictOnly => spec,
    };
    let report = cl.run(spec).expect("valid elastic run");
    // Conservation must hold on every node even across drains and
    // revocations — zero audit errors, per node and merged.
    let (merged, per_node) = cl.audits();
    for (j, a) in per_node.iter().enumerate() {
        a.check()
            .unwrap_or_else(|e| panic!("seed {seed}: node {j} audit failed: {e}\n{a:?}"));
    }
    merged
        .check()
        .unwrap_or_else(|e| panic!("seed {seed}: merged audit failed: {e}\n{merged:?}"));
    report
}

#[test]
fn noticed_revocations_never_trip_breakers_across_seeds() {
    for tenancy in [Tenancy::Mixed, Tenancy::StrictOnly] {
        for seed in 0..8u64 {
            let report = run(tenancy, seed, &noticed_plan(seed), None, 1);
            assert_eq!(
                report.breaker_trips, 0,
                "{tenancy:?} seed {seed}: a noticed revocation tripped a breaker"
            );
            assert!(
                report.completed > 0,
                "{tenancy:?} seed {seed}: fleet served nothing"
            );
            assert!(
                report.retry.redistributed > 0 || report.shed == 0,
                "{tenancy:?} seed {seed}: drain path never engaged yet work was lost"
            );
        }
    }
}

#[test]
fn surprise_fail_stop_trips_where_notice_does_not() {
    let seed = 3u64;
    for tenancy in [Tenancy::Mixed, Tenancy::StrictOnly] {
        let noticed = run(tenancy, seed, &noticed_plan(seed), None, 1);
        let surprise = run(tenancy, seed, &surprise_plan(seed), None, 1);
        assert_eq!(
            noticed.breaker_trips, 0,
            "{tenancy:?}: notice must pre-drain the node"
        );
        assert!(
            surprise.breaker_trips >= 1,
            "{tenancy:?}: an unannounced fail-stop must trip the dead node's breaker"
        );
    }
}

#[test]
fn elastic_replay_is_jobs_invariant() {
    // Autoscaler + revocation together, replayed serially and on three
    // workers: byte-identical reports, interval by interval.
    let autoscale = AutoscaleConfig {
        min_nodes: 2,
        target_rps_per_node: 30.0,
        warmup_ms: NOTICE_MS,
        cooldown_intervals: 2,
        ..AutoscaleConfig::default()
    };
    let plan = noticed_plan(1);
    let serial = run(Tenancy::Mixed, 1, &plan, Some(autoscale.clone()), 1);
    let parallel = run(Tenancy::Mixed, 1, &plan, Some(autoscale), 3);
    assert_eq!(serial, parallel, "replay must not depend on worker count");
}
