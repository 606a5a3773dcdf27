//! The engine's exact behaviour, pinned in one place.
//!
//! Each scenario is a seeded single-node replay that leans on a group of
//! mechanisms — the dynamic chooser with work stealing; deadlines,
//! backoff retries and hedging; pipelined streaming; scripted faults; a
//! mid-run node drain — and the test asserts its report's p50, p99 and
//! energy to the bit, its lifetime [`Counters`](poly_sim::Counters), its
//! [`AuditReport`](poly_sim::AuditReport), and the telemetry it records:
//! the count of each event kind and the bits of the sum of their times.
//! The audits elsewhere check invariants only; this is the test that
//! notices when a refactor changes what the engine computes.
//!
//! The expected strings were recorded from the engine before it was
//! split into per-mechanism modules. A deliberate behaviour change
//! updates them: run the test, and copy each `actual` block it prints
//! into `EXPECTED`.

use std::collections::BTreeMap;

use poly_device::DeviceKind;
use poly_ir::{
    KernelBuilder, KernelGraph, KernelGraphBuilder, KernelId, OpFunc, PatternKind, Shape,
};
use poly_obs::MemRecorder;
use poly_sched::Pool;
use poly_sim::workload::{poisson, SizeDist};
use poly_sim::{
    BackoffPolicy, DynamicDispatch, FaultPlan, HedgeConfig, KernelImpl, LifecycleConfig,
    PipelineConfig, Policy, RetryPolicy, SimConfig, Simulator,
};

/// A three-stage chain `a → b → c`, 1 MiB per edge.
fn chain3() -> KernelGraph {
    let k = KernelBuilder::new("a")
        .pattern("m", PatternKind::Map, Shape::d1(1024), &[OpFunc::Mac])
        .build()
        .unwrap();
    KernelGraphBuilder::new("chain")
        .kernel(k.clone())
        .kernel(k.with_name("b"))
        .kernel(k.with_name("c"))
        .edge("a", "b", 1 << 20)
        .edge("b", "c", 1 << 20)
        .build()
        .unwrap()
}

fn gpu(kernel: usize, latency: f64, batch: u32) -> KernelImpl {
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

fn fpga(kernel: usize, impl_index: usize, latency: f64, power: f64) -> KernelImpl {
    KernelImpl {
        kernel: KernelId(kernel),
        kind: DeviceKind::Fpga,
        impl_index,
        latency_ms: latency,
        latency_single_ms: latency,
        service_ms: latency * 0.9,
        batch: 1,
        active_power_w: power,
        idle_power_w: 5.0,
    }
}

/// GPU front and back stages around an FPGA middle, each with FPGA
/// alternates the dynamic chooser may escape or shed to.
fn dynamic_policy() -> Policy {
    let (p0, p1, p2) = (gpu(0, 40.0, 8), fpga(1, 0, 12.0, 25.0), gpu(2, 24.0, 4));
    Policy::from_impls(vec![p0, p1, p2]).with_alternate_impls(vec![
        vec![p0, fpga(0, 1, 30.0, 20.0)],
        vec![p1, fpga(1, 1, 8.0, 60.0)],
        vec![p2, fpga(2, 1, 20.0, 15.0), fpga(2, 2, 14.0, 35.0)],
    ])
}

fn static_policy() -> Policy {
    Policy::from_impls(vec![
        gpu(0, 40.0, 8),
        fpga(1, 0, 12.0, 25.0),
        gpu(2, 24.0, 4),
    ])
}

/// A simulator of the chain on `pool` with a recorder attached.
fn node(pool: Pool, policy: Policy, config: SimConfig) -> (Simulator, MemRecorder) {
    let mut sim = Simulator::new(chain3(), &pool, policy, config);
    let rec = MemRecorder::new();
    sim.set_recorder(Some(Box::new(rec.clone())));
    (sim, rec)
}

/// The bit-exact summary of one run: report p50/p99/energy bits, the
/// lifetime counters, the audit, and the recorded events by kind.
fn fingerprint(sim: &mut Simulator, rec: &MemRecorder, end_ms: f64) -> String {
    let r = sim.finish(end_ms);
    let audit = sim.audit();
    audit.check().expect("audit invariants hold");
    let mut kinds = BTreeMap::<String, usize>::new();
    let mut t_sum = 0.0_f64;
    for smp in rec.samples() {
        let name: String = format!("{:?}", smp.event)
            .chars()
            .take_while(char::is_ascii_alphanumeric)
            .collect();
        *kinds.entry(name).or_default() += 1;
        t_sum += smp.t_ms;
    }
    assert_eq!(rec.dropped(), 0, "the recorder kept every event");
    format!(
        "arrived={} completed={} p50={:#018x} p99={:#018x} energy={:#018x}\n{:?}\n{:?}\nevents={kinds:?} t_sum={:#018x}",
        r.arrived,
        r.completed,
        r.latency.p50().to_bits(),
        r.latency.p99().to_bits(),
        r.energy_j.to_bits(),
        sim.counters(),
        audit,
        t_sum.to_bits(),
    )
}

/// Feed `arrivals` in 500 ms intervals, the way the runtime steps a node.
fn step(sim: &mut Simulator, arrivals: &[f64], sizes: &[f64], end_ms: f64) {
    let mut t = 0.0;
    let mut at = 0;
    while t < end_ms {
        t += 500.0;
        let hi = arrivals.partition_point(|&a| a < t);
        sim.enqueue_arrivals_sized(&arrivals[at..hi], &sizes[at..hi]);
        at = hi;
        sim.advance_to(t);
    }
}

/// The dynamic policy's FPGA-heavy predecessor: kernel `a` on an FPGA,
/// so its bitstream is resident when the dynamic plan takes over and
/// the chooser has an express lane to rescue or shed into.
fn fpga_policy() -> Policy {
    Policy::from_impls(vec![
        fpga(0, 1, 30.0, 20.0),
        fpga(1, 0, 12.0, 25.0),
        gpu(2, 24.0, 4),
    ])
}

/// Dynamic chooser (rescue and shed) plus work stealing, heavy-tailed
/// sizes, re-plans to the dynamic plan, to the static plan and back,
/// and an accounting reset.
fn dynamic_steal() -> String {
    let (mut sim, rec) = node(
        Pool::heterogeneous(2, 4),
        fpga_policy(),
        SimConfig {
            dynamic: Some(DynamicDispatch::default()),
            ..SimConfig::default()
        },
    );
    let arrivals = poisson(110.0, 6_000.0, 11);
    let sizes = SizeDist::heavy_tail().sample(arrivals.len(), 12);
    let cut = |t: f64| arrivals.partition_point(|&a| a < t);
    sim.enqueue_arrivals_sized(&arrivals[..cut(500.0)], &sizes[..cut(500.0)]);
    sim.advance_to(500.0);
    sim.set_policy(dynamic_policy());
    sim.enqueue_arrivals_sized(
        &arrivals[cut(500.0)..cut(3_000.0)],
        &sizes[cut(500.0)..cut(3_000.0)],
    );
    sim.advance_to(2_500.0);
    sim.set_policy(static_policy());
    sim.advance_to(3_000.0);
    sim.set_policy(dynamic_policy());
    sim.reset_accounting();
    sim.enqueue_arrivals_sized(&arrivals[cut(3_000.0)..], &sizes[cut(3_000.0)..]);
    fingerprint(&mut sim, &rec, 8_000.0)
}

/// Deadlines, jittered backoff retries (one stage exhausts its budget)
/// and hedging under fail-stops, an outage of every GPU and a slowdown.
fn lifecycle() -> String {
    let (mut sim, rec) = node(
        Pool::heterogeneous(2, 3),
        static_policy(),
        SimConfig {
            lifecycle: LifecycleConfig {
                deadline_factor: Some(0.8),
                retry: RetryPolicy::Backoff(BackoffPolicy {
                    max_retries: 1,
                    ..BackoffPolicy::default()
                }),
                hedge: Some(HedgeConfig {
                    min_samples: 8,
                    min_delay_ms: 2.0,
                    ..HedgeConfig::default()
                }),
            },
            ..SimConfig::default()
        },
    );
    sim.inject_faults(
        &FaultPlan::new()
            .slow_down(800.0, 2, 4.0)
            .fail_stop(1_500.0, 0)
            .fail_stop(1_510.0, 1)
            .recover(1_600.0, 0)
            .fail_stop(1_640.0, 0)
            .recover(1_700.0, 1)
            .recover(2_200.0, 0)
            .recover(3_000.0, 2),
    );
    let arrivals = poisson(100.0, 4_000.0, 21);
    let sizes = SizeDist::heavy_tail().sample(arrivals.len(), 22);
    step(&mut sim, &arrivals, &sizes, 4_000.0);
    fingerprint(&mut sim, &rec, 5_000.0)
}

/// Pipelined streaming over the chain (cross-platform edges on both
/// sides of the FPGA stage) with a shallow channel.
fn pipeline() -> String {
    let (mut sim, rec) = node(
        Pool::heterogeneous(1, 2),
        static_policy(),
        SimConfig {
            pipeline: PipelineConfig::with_depth(2),
            ..SimConfig::default()
        },
    );
    let arrivals = poisson(40.0, 4_000.0, 31);
    let sizes = SizeDist::heavy_tail().sample(arrivals.len(), 32);
    step(&mut sim, &arrivals, &sizes, 4_000.0);
    fingerprint(&mut sim, &rec, 5_000.0)
}

/// Scripted fail-stop, slowdown and recovery with immediate retries,
/// including an outage of the only GPU that strands work until its
/// recovery.
fn faults() -> String {
    let (mut sim, rec) = node(
        Pool::heterogeneous(1, 2),
        static_policy(),
        SimConfig::default(),
    );
    sim.inject_faults(
        &FaultPlan::new()
            .slow_down(300.0, 1, 3.0)
            .fail_stop(700.0, 0)
            .fail_stop(900.0, 2)
            .recover(1_400.0, 0)
            .recover(1_600.0, 2)
            .recover(2_000.0, 1),
    );
    let arrivals = poisson(70.0, 3_000.0, 41);
    let sizes = vec![1.0; arrivals.len()];
    step(&mut sim, &arrivals, &sizes, 3_000.0);
    fingerprint(&mut sim, &rec, 4_000.0)
}

/// A node drain in the middle of a loaded run, then fresh traffic.
fn cancel() -> String {
    let (mut sim, rec) = node(
        Pool::heterogeneous(1, 2),
        static_policy(),
        SimConfig::default(),
    );
    let arrivals = poisson(60.0, 3_000.0, 51);
    let sizes = SizeDist::heavy_tail().sample(arrivals.len(), 52);
    let mid = arrivals.partition_point(|&a| a < 1_500.0);
    sim.enqueue_arrivals_sized(&arrivals[..mid], &sizes[..mid]);
    sim.advance_to(1_234.5);
    let cancelled = sim.cancel_pending();
    assert_eq!(sim.cancel_pending(), 0, "a second drain cancels nothing");
    sim.enqueue_arrivals_sized(&arrivals[mid..], &sizes[mid..]);
    sim.advance_to(3_000.0);
    format!(
        "cancelled={cancelled}\n{}",
        fingerprint(&mut sim, &rec, 4_000.0)
    )
}

/// One seeded replay, returning its fingerprint.
type Scenario = fn() -> String;

const EXPECTED: [(&str, &str); 5] = [
    (
        "dynamic_steal",
        r#"arrived=330 completed=338 p50=0x4056c84ae1560e40 p99=0x4069b8c4e3ad38c0 energy=0x4096d45322809be7
Counters { admitted: 651, completed: 651, timed_out: 0, failed: 0, cancelled: 0, stale_completions: 0, double_terminal: 0, clock_regressions: 0, fault_events: 0, fail_stops: 0, retry: RetryStats { device_retries: 0, exhausted: 0, redistributed: 0, hedges_fired: 0, hedge_wins: 0, steals: 139 }, work: WorkCounters { dispatch: OpCount { events: 1953, entries: 139 }, batch: OpCount { events: 1549, entries: 1953 }, cancel: OpCount { events: 0, entries: 0 }, margin: OpCount { events: 1650, entries: 0 } } }
AuditReport { admitted: 651, completed: 651, timed_out: 0, failed: 0, cancelled: 0, pending: 0, stale_completions: 0, double_terminal: 0, clock_regressions: 0, booked_busy_mj: 1955412.7800105677, refunded_busy_mj: 0.0 }
events={"DynamicChoice": 32, "ExecStart": 1369, "ReqComplete": 651, "ReqEnqueue": 651, "StageComplete": 1953, "StageDispatch": 1953, "StageStart": 1953, "WorkSteal": 139} t_sum=0x4179364a43fd6b78"#,
    ),
    (
        "lifecycle",
        r#"arrived=373 completed=338 p50=0x405747e0536fc860 p99=0x40637f157ffc6770 energy=0x4094a3065197230c
Counters { admitted: 373, completed: 338, timed_out: 32, failed: 3, cancelled: 0, stale_completions: 61, double_terminal: 0, clock_regressions: 0, fault_events: 7, fail_stops: 3, retry: RetryStats { device_retries: 15, exhausted: 3, redistributed: 0, hedges_fired: 40, hedge_wins: 14, steals: 0 }, work: WorkCounters { dispatch: OpCount { events: 1196, entries: 5 }, batch: OpCount { events: 778, entries: 1126 }, cancel: OpCount { events: 74, entries: 20 }, margin: OpCount { events: 0, entries: 0 } } }
AuditReport { admitted: 373, completed: 338, timed_out: 32, failed: 3, cancelled: 0, pending: 0, stale_completions: 61, double_terminal: 0, clock_regressions: 0, booked_busy_mj: 1139167.5809451528, refunded_busy_mj: 39657.91155321846 }
events={"ExecStart": 710, "Fault": 7, "HedgeFired": 40, "ReqComplete": 338, "ReqEnqueue": 373, "ReqFailed": 3, "ReqTimedOut": 32, "StageComplete": 1065, "StageDispatch": 1109, "StageStart": 1126, "StageStranded": 26} t_sum=0x41638785fc9bde9a"#,
    ),
    (
        "pipeline",
        r#"arrived=166 completed=166 p50=0x4055833ef1e88060 p99=0x406898196fdb71c0 energy=0x4086fdb9e8109ce2
Counters { admitted: 166, completed: 166, timed_out: 0, failed: 0, cancelled: 0, stale_completions: 0, double_terminal: 0, clock_regressions: 0, fault_events: 0, fail_stops: 0, retry: RetryStats { device_retries: 0, exhausted: 0, redistributed: 0, hedges_fired: 0, hedge_wins: 0, steals: 0 }, work: WorkCounters { dispatch: OpCount { events: 498, entries: 0 }, batch: OpCount { events: 430, entries: 498 }, cancel: OpCount { events: 0, entries: 0 }, margin: OpCount { events: 0, entries: 0 } } }
AuditReport { admitted: 166, completed: 166, timed_out: 0, failed: 0, cancelled: 0, pending: 0, stale_completions: 0, double_terminal: 0, clock_regressions: 0, booked_busy_mj: 607138.9504781113, refunded_busy_mj: 0.0 }
events={"ExecStart": 348, "ReqComplete": 166, "ReqEnqueue": 166, "StageComplete": 498, "StageDispatch": 498, "StageStart": 498} t_sum=0x414f7f0f7ec6018a"#,
    ),
    (
        "faults",
        r#"arrived=196 completed=196 p50=0x407dd473c45828c0 p99=0x40926f73cadce19c energy=0x40823f5b63f8cf44
Counters { admitted: 196, completed: 196, timed_out: 0, failed: 0, cancelled: 0, stale_completions: 0, double_terminal: 0, clock_regressions: 0, fault_events: 5, fail_stops: 2, retry: RetryStats { device_retries: 5, exhausted: 0, redistributed: 0, hedges_fired: 0, hedge_wins: 0, steals: 0 }, work: WorkCounters { dispatch: OpCount { events: 653, entries: 0 }, batch: OpCount { events: 336, entries: 588 }, cancel: OpCount { events: 0, entries: 0 }, margin: OpCount { events: 0, entries: 0 } } }
AuditReport { admitted: 196, completed: 196, timed_out: 0, failed: 0, cancelled: 0, pending: 0, stale_completions: 0, double_terminal: 0, clock_regressions: 0, booked_busy_mj: 519260.0, refunded_busy_mj: 0.0 }
events={"ExecStart": 294, "Fault": 5, "ReqComplete": 196, "ReqEnqueue": 196, "StageComplete": 588, "StageDispatch": 593, "StageStart": 588, "StageStranded": 60} t_sum=0x4150a9d1843e55be"#,
    ),
    (
        "cancel",
        r#"cancelled=17
arrived=165 completed=158 p50=0x40582098aa2806a0 p99=0x406a3d7384e93740 energy=0x4082d2683d675a42
Counters { admitted: 175, completed: 158, timed_out: 0, failed: 0, cancelled: 17, stale_completions: 3, double_terminal: 0, clock_regressions: 0, fault_events: 0, fail_stops: 0, retry: RetryStats { device_retries: 0, exhausted: 0, redistributed: 0, hedges_fired: 0, hedge_wins: 0, steals: 0 }, work: WorkCounters { dispatch: OpCount { events: 487, entries: 0 }, batch: OpCount { events: 383, entries: 483 }, cancel: OpCount { events: 0, entries: 0 }, margin: OpCount { events: 0, entries: 0 } } }
AuditReport { admitted: 175, completed: 158, timed_out: 0, failed: 0, cancelled: 17, pending: 0, stale_completions: 3, double_terminal: 0, clock_regressions: 0, booked_busy_mj: 503316.63818519784, refunded_busy_mj: 489.7528590100592 }
events={"ExecStart": 316, "ReqCancelled": 17, "ReqComplete": 158, "ReqEnqueue": 175, "StageComplete": 480, "StageDispatch": 487, "StageStart": 483} t_sum=0x41489a84e858ace9"#,
    ),
];

#[test]
fn engine_fingerprint_is_unchanged() {
    let runs: [(&str, Scenario); 5] = [
        ("dynamic_steal", dynamic_steal),
        ("lifecycle", lifecycle),
        ("pipeline", pipeline),
        ("faults", faults),
        ("cancel", cancel),
    ];
    let mut diverged = Vec::new();
    for ((name, run), (expected_name, expected)) in runs.iter().zip(EXPECTED) {
        assert_eq!(*name, expected_name);
        let actual = run();
        if actual != expected {
            eprintln!("{name} actual:\n{actual}\n");
            diverged.push(*name);
        }
    }
    assert!(
        diverged.is_empty(),
        "engine behaviour moved in {diverged:?}"
    );
}
