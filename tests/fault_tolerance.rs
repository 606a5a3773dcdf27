//! Fault-injection regression tests: a GPU fail-stop mid-trace must make
//! the Poly runtime re-plan onto the surviving devices within one
//! interval, while a static baseline strands its GPU kernels until the
//! device recovers.

use poly::apps::{asr, QOS_BOUND_MS};
use poly::core::provision::{table_iii, Architecture, Setting};
use poly::core::{AppContext, PolyRuntime, RunSpec, RuntimeMode, TraceReport};
use poly::dse::Explorer;
use poly::sched::Scheduler;
use poly::sim::workload::TracePoint;
use poly::sim::{FaultPlan, Policy};

const INTERVAL_MS: f64 = 10_000.0;
/// GPU fail-stop mid-interval 1 (before Poly's power hysteresis has any
/// reason to move off the GPU); recovery mid-interval 6.
const FAIL_MS: f64 = 15_000.0;
const RECOVER_MS: f64 = 65_000.0;

fn heter() -> (
    poly::ir::KernelGraph,
    Vec<poly::dse::KernelDesignSpace>,
    poly::core::NodeSetup,
) {
    let app = asr();
    let setup = table_iii(Setting::I, Architecture::HeterPoly);
    let ex = Explorer::new(setup.gpu.clone(), setup.fpga.clone());
    let spaces = app.kernels().iter().map(|k| ex.explore(k)).collect();
    (app, spaces, setup)
}

fn flat_trace(n: usize) -> Vec<TracePoint> {
    (0..n)
        .map(|i| TracePoint {
            start_ms: i as f64 * INTERVAL_MS,
            utilization: 0.5,
        })
        .collect()
}

/// Device 0 is the GPU in `Pool::heterogeneous` order.
fn gpu_outage() -> FaultPlan {
    FaultPlan::new()
        .fail_stop(FAIL_MS, 0)
        .recover(RECOVER_MS, 0)
}

fn run(mode: &RuntimeMode) -> TraceReport {
    let (app, spaces, setup) = heter();
    let mut rt = PolyRuntime::new(AppContext::new(app, spaces, setup, QOS_BOUND_MS));
    rt.run(
        &RunSpec::new(&flat_trace(12), INTERVAL_MS, 20.0)
            .mode(mode.clone())
            .seed(2011)
            .faults(gpu_outage()),
    )
}

/// The static baseline: the latency-only plan, which places two ASR
/// kernels on the GPU (see `results/fig6_schedule.csv`), so a GPU
/// fail-stop hits it directly.
fn static_latency_policy() -> Policy {
    let (app, spaces, setup) = heter();
    let plan = Scheduler::default()
        .plan_latency(&app, &spaces, &setup.pool)
        .expect("latency plan");
    Policy::from_plan(&plan, &spaces, &setup.gpu)
}

#[test]
fn poly_replans_onto_survivors_and_beats_static() {
    let poly = run(&RuntimeMode::Poly);
    let stat = run(&RuntimeMode::Static(static_latency_policy()));

    // Both runs observed the same two fault events (fail-stop + recovery).
    assert_eq!(poly.fault_events, 2);
    assert_eq!(stat.fault_events, 2);

    // The monitor's view tracks the outage: 5 healthy devices while the
    // GPU is down, all 6 again at the end.
    let during: Vec<usize> = poly
        .intervals
        .iter()
        .filter(|r| r.start_ms >= FAIL_MS && r.start_ms < RECOVER_MS - INTERVAL_MS)
        .map(|r| r.healthy_devices)
        .collect();
    assert!(
        !during.is_empty() && during.iter().all(|&h| h == 5),
        "{during:?}"
    );
    assert_eq!(poly.intervals.last().unwrap().healthy_devices, 6);

    // Poly re-plans within one interval of the failure: the first interval
    // planned after the fault adopts a degraded-pool policy.
    let first_after = poly
        .intervals
        .iter()
        .find(|r| r.start_ms >= FAIL_MS)
        .expect("intervals after the fault");
    assert!(
        first_after.policy_changed,
        "no re-plan in the first interval after the fail-stop"
    );

    // Once re-planned (one interval of transition), service on the five
    // surviving FPGAs is back under the bound for the rest of the outage.
    let settled: Vec<&poly::core::IntervalRecord> = poly
        .intervals
        .iter()
        .filter(|r| {
            r.start_ms >= FAIL_MS + 2.0 * INTERVAL_MS && r.start_ms + INTERVAL_MS <= RECOVER_MS
        })
        .collect();
    assert!(!settled.is_empty());
    for r in settled {
        assert!(r.completed > 0, "no completions at {} ms", r.start_ms);
        assert!(
            r.p99_ms <= QOS_BOUND_MS,
            "degraded-pool p99 {} ms at {} ms",
            r.p99_ms,
            r.start_ms
        );
    }
    // After recovery (allowing one interval for the re-plan back), the
    // tail settles under the bound again.
    let tail = &poly.intervals[poly.intervals.len() - 2..];
    for r in tail {
        assert!(r.completed > 0);
        assert!(
            r.p99_ms <= QOS_BOUND_MS,
            "post-recovery p99 {} ms at {} ms",
            r.p99_ms,
            r.start_ms
        );
    }
    assert!(
        poly.mean_recovery_ms > 0.0 && poly.mean_recovery_ms <= 3.0 * INTERVAL_MS,
        "recovery took {} ms",
        poly.mean_recovery_ms
    );

    // The static baseline cannot move its GPU kernels: its requests strand
    // through the outage and complete hopelessly late, so it records
    // strictly more violations than Poly on the identical trace and seed.
    let violations = |r: &TraceReport| -> usize { r.intervals.iter().map(|i| i.violations).sum() };
    assert!(
        violations(&stat) > violations(&poly),
        "static {} vs poly {} violations",
        violations(&stat),
        violations(&poly)
    );
    // And during the outage the static node completes (almost) nothing.
    let stranded_window: usize = stat
        .intervals
        .iter()
        .filter(|r| r.start_ms >= FAIL_MS + INTERVAL_MS && r.start_ms + INTERVAL_MS <= RECOVER_MS)
        .map(|r| r.completed)
        .sum();
    assert_eq!(stranded_window, 0, "static served during a GPU outage");
}

#[test]
fn fault_free_plan_is_identical_to_default_run() {
    // An empty fault plan is the default: a spec without `.faults()` and
    // one carrying an explicitly empty plan must agree exactly.
    let (app, spaces, setup) = heter();
    let ctx = AppContext::new(app, spaces, setup, QOS_BOUND_MS);
    let trace = flat_trace(4);
    let mut a = PolyRuntime::new(ctx.clone());
    let ra = a.run(&RunSpec::new(&trace, INTERVAL_MS, 20.0).seed(7));
    let mut b = PolyRuntime::new(ctx);
    let rb = b.run(
        &RunSpec::new(&trace, INTERVAL_MS, 20.0)
            .seed(7)
            .faults(FaultPlan::new()),
    );
    assert_eq!(ra, rb);
    assert_eq!(ra.fault_events, 0);
    assert_eq!(ra.retry, poly_sim::RetryStats::default());
    assert_eq!(ra.timed_out, 0);
    assert_eq!(ra.mean_recovery_ms, 0.0);
}
