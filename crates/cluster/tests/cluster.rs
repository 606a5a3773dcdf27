//! Integration tests for the cluster layer: deterministic replay,
//! node-level fault domains, QoS-aware admission under faults, and the
//! power governor's effect on per-node caps.

use poly_cluster::{
    Cluster, ClusterConfig, ClusterError, ClusterReport, ClusterRunSpec, RoutingPolicy,
};
use poly_core::provision::{table_iii, Architecture, Setting};
use poly_core::{NodeSetup, RunSpecError};
use poly_dse::{Explorer, KernelDesignSpace};
use poly_ir::KernelGraph;
use poly_obs::MemRecorder;
use poly_sim::workload::TracePoint;
use poly_sim::FaultPlan;

const BOUND_MS: f64 = 200.0;
const INTERVAL_MS: f64 = 10_000.0;

fn app_and_spaces() -> (KernelGraph, Vec<KernelDesignSpace>, NodeSetup) {
    let app = poly_apps::asr();
    let setup = table_iii(Setting::I, Architecture::HeterPoly);
    let ex = Explorer::new(setup.gpu.clone(), setup.fpga.clone());
    let spaces = app.kernels().iter().map(|k| ex.explore(k)).collect();
    (app, spaces, setup)
}

fn cluster(nodes: usize, routing: RoutingPolicy) -> Cluster {
    let (app, spaces, setup) = app_and_spaces();
    let setups: Vec<NodeSetup> = (0..nodes).map(|_| setup.clone()).collect();
    Cluster::try_new(
        &app,
        &spaces,
        setups,
        ClusterConfig {
            bound_ms: BOUND_MS,
            routing,
            power_budget_w: 260.0 * nodes as f64,
            node_floor_w: 40.0,
            max_backlog: 200,
            lifecycle: poly_sim::LifecycleConfig::default(),
            breaker: None,
        },
    )
    .expect("valid cluster configuration")
}

fn flat_trace(n: usize, util: f64) -> Vec<TracePoint> {
    (0..n)
        .map(|i| TracePoint {
            start_ms: i as f64 * INTERVAL_MS,
            utilization: util,
        })
        .collect()
}

fn run(routing: RoutingPolicy, faults: &FaultPlan) -> ClusterReport {
    let mut c = cluster(3, routing);
    // 18 RPS per node against ~20 RPS single-node capacity: healthy
    // nodes absorb it, but one node's traffic cannot just be piled onto
    // the survivors without blowing the bound.
    c.run(
        ClusterRunSpec::new(&flat_trace(12, 0.9), INTERVAL_MS, 60.0)
            .seed(42)
            .faults(faults.clone()),
    )
    .expect("valid run")
}

/// Node 0 fail-stops during interval 3 and recovers during interval 8.
fn one_node_outage() -> FaultPlan {
    FaultPlan::new()
        .fail_stop(3.5 * INTERVAL_MS, 0)
        .recover(8.5 * INTERVAL_MS, 0)
}

#[test]
fn replay_is_deterministic() {
    for policy in RoutingPolicy::ALL {
        let a = run(policy, &one_node_outage());
        let b = run(policy, &one_node_outage());
        assert_eq!(a, b, "replay diverged for {}", policy.name());
    }
}

#[test]
fn parallel_stepping_is_bitwise_identical_to_serial() {
    // Interval boundaries are conservative sync barriers and per-node
    // results merge in node-index order, so the job count must never
    // change a report — under faults and for every routing policy.
    for policy in RoutingPolicy::ALL {
        let at_jobs = |jobs: usize| -> ClusterReport {
            let mut c = cluster(3, policy);
            c.run(
                ClusterRunSpec::new(&flat_trace(12, 0.9), INTERVAL_MS, 60.0)
                    .seed(42)
                    .faults(one_node_outage())
                    .jobs(jobs),
            )
            .expect("valid run")
        };
        let serial = at_jobs(1);
        for jobs in [2, 4] {
            assert_eq!(
                serial,
                at_jobs(jobs),
                "jobs={jobs} diverged from serial for {}",
                policy.name()
            );
        }
    }
}

#[test]
fn healthy_cluster_spreads_load_and_meets_qos() {
    let mut c = cluster(3, RoutingPolicy::RoundRobin);
    let report = c
        .run(ClusterRunSpec::new(&flat_trace(8, 0.5), INTERVAL_MS, 45.0).seed(7))
        .expect("valid run");
    assert!(report.completed > 0);
    assert_eq!(report.shed, 0, "no admission pressure at half load");
    assert_eq!(report.retry.redistributed, 0);
    assert!(
        report.violation_ratio < 0.05,
        "violation ratio {}",
        report.violation_ratio
    );
    assert!(
        report.mean_util_skew < 0.5,
        "round-robin should balance: skew {}",
        report.mean_util_skew
    );
    assert!(report.intervals.iter().all(|r| r.nodes_up == 3));
}

#[test]
fn node_fail_stop_drains_and_redistributes() {
    let report = run(RoutingPolicy::RoundRobin, &one_node_outage());
    let down: Vec<usize> = report.intervals.iter().map(|r| r.nodes_up).collect();
    assert!(down.contains(&2), "node 0 outage must be visible: {down:?}");
    assert!(
        down.last() == Some(&3),
        "node 0 must be back by trace end: {down:?}"
    );
    assert!(
        report.retry.redistributed > 0,
        "drained requests must be re-issued to survivors"
    );
    // The recovered node rejoins routing: completions in the final
    // intervals come from 3 nodes again (skew finite, cluster completes).
    assert!(report.completed > 0);
}

#[test]
fn qos_aware_routing_beats_round_robin_under_node_failure() {
    // Acceptance criterion: with one of three nodes fail-stopped, the
    // QoS-aware admission policy keeps cluster-wide violations strictly
    // below round-robin under the *same* fault plan and seed. Round-robin
    // piles the dead node's share onto the survivors (27 RPS each vs ~20
    // capacity) and every request queues past the bound; QoS-aware sheds
    // the excess so admitted requests still meet it.
    let rr = run(RoutingPolicy::RoundRobin, &one_node_outage());
    let qos = run(RoutingPolicy::QosAware, &one_node_outage());
    assert!(
        qos.violation_ratio < rr.violation_ratio,
        "qos-aware {} !< round-robin {}",
        qos.violation_ratio,
        rr.violation_ratio
    );
    assert!(
        qos.violations() < rr.violations(),
        "qos-aware {} !< round-robin {} absolute violations",
        qos.violations(),
        rr.violations()
    );
    // The mechanism: the QoS budget counts standing queues, so traffic
    // is deferred/steered away from backlogged survivors and the fleet
    // actually drains — round-robin keeps dumping an equal share onto
    // nodes that are already past the bound, so its violations persist
    // through recovery. Compare the post-recovery tail (node 0 is back
    // from interval 9 on).
    let tail =
        |r: &ClusterReport| -> usize { r.intervals.iter().skip(8).map(|x| x.violations).sum() };
    assert!(
        tail(&qos) < tail(&rr),
        "qos-aware tail {} !< round-robin tail {}",
        tail(&qos),
        tail(&rr)
    );
}

#[test]
fn governor_keeps_cluster_power_near_budget() {
    let mut c = cluster(3, RoutingPolicy::JoinShortestQueue);
    let report = c
        .run(ClusterRunSpec::new(&flat_trace(10, 0.7), INTERVAL_MS, 45.0).seed(13))
        .expect("valid run");
    let budget = 260.0 * 3.0;
    // The cap is soft (QoS first), but at a comfortably feasible load the
    // capped plans should keep mean cluster power inside the budget.
    let mean_power: f64 =
        report.intervals.iter().map(|r| r.power_w).sum::<f64>() / report.intervals.len() as f64;
    assert!(
        mean_power <= budget,
        "mean cluster power {mean_power} exceeds budget {budget}"
    );
    assert!(mean_power > 0.0);
}

#[test]
fn invalid_run_specs_fail_typed_and_change_nothing() {
    let mut c = cluster(2, RoutingPolicy::RoundRobin);
    let trace = flat_trace(3, 0.5);
    let rec = MemRecorder::new();
    let spec = || ClusterRunSpec::new(&trace, INTERVAL_MS, 30.0).recorder(Box::new(rec.clone()));
    let cases = [
        (
            ClusterRunSpec::new(&trace, 0.0, 30.0).recorder(Box::new(rec.clone())),
            ClusterError::NonPositiveInterval { interval_ms: 0.0 },
        ),
        (
            ClusterRunSpec::new(&[], INTERVAL_MS, 30.0).recorder(Box::new(rec.clone())),
            ClusterError::EmptyTrace,
        ),
        (
            spec().traffic_mix(vec![1.0, 1.0]),
            ClusterError::InvalidTrafficMix,
        ),
        (
            spec().node_static_w(-1.0),
            ClusterError::InvalidStaticDraw { static_w: -1.0 },
        ),
        (
            ClusterRunSpec::new(&trace, INTERVAL_MS, f64::INFINITY).recorder(Box::new(rec.clone())),
            ClusterError::InvalidLoad(RunSpecError::InvalidMaxRps {
                max_rps: f64::INFINITY,
            }),
        ),
        (
            spec().traffic_mix(vec![f64::INFINITY]),
            ClusterError::InvalidTrafficMix,
        ),
    ];
    for (bad, expected) in cases {
        assert_eq!(c.run(bad).expect_err("invalid spec"), expected);
    }
    // A non-finite utilization anywhere in the trace is refused before
    // any load is generated (NaN never compares equal, so match).
    let mut nan_trace = trace.clone();
    nan_trace[1].utilization = f64::NAN;
    let err = c
        .run(ClusterRunSpec::new(&nan_trace, INTERVAL_MS, 30.0).recorder(Box::new(rec.clone())))
        .expect_err("NaN utilization");
    assert!(
        matches!(
            err,
            ClusterError::InvalidLoad(RunSpecError::InvalidUtilization { index: 1, .. })
        ),
        "{err:?}"
    );
    assert!(c
        .run(spec().faults(FaultPlan::new().fail_stop(0.0, 5)))
        .is_err());
    // None of the rejected specs attached its recorder: a later run
    // without one records nothing.
    c.run(ClusterRunSpec::new(&trace, INTERVAL_MS, 30.0))
        .expect("valid run");
    assert_eq!(rec.len(), 0);
    // The same recorder on a valid spec does record.
    c.run(spec()).expect("valid run");
    assert!(!rec.is_empty());
}

trait Violations {
    fn violations(&self) -> usize;
}
impl Violations for ClusterReport {
    fn violations(&self) -> usize {
        self.intervals.iter().map(|r| r.violations).sum()
    }
}
