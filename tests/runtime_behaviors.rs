//! Behavioral tests of the full runtime loop: burst response, GPU
//! parking, hysteresis, and policy adaptation across load regimes.

use poly::apps::{asr, QOS_BOUND_MS};
use poly::core::provision::{table_iii, Architecture, Setting};
use poly::core::{AppContext, Optimizer, PolyRuntime, RunSpec, RunSpecError, RuntimeMode};
use poly::device::DeviceKind;
use poly::dse::Explorer;
use poly::sim::steady_state;
use poly::sim::workload::TracePoint;

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

#[test]
fn optimizer_policies_scale_power_with_load() {
    let (app, spaces, setup) = heter();
    let mut opt = Optimizer::new();
    let mut last_power = 0.0;
    for rps in [1.0, 20.0, 60.0] {
        let (policy, _) =
            opt.plan_for_load(&app, &spaces, &setup.pool, &setup.gpu, QOS_BOUND_MS, rps);
        let r = steady_state(
            &app,
            &setup.pool,
            &policy,
            &setup.sim_config,
            rps,
            3_000.0,
            12_000.0,
            17,
        );
        assert!(
            r.avg_power_w >= last_power - 10.0,
            "power should broadly rise with load: {} then {}",
            last_power,
            r.avg_power_w
        );
        last_power = r.avg_power_w;
    }
}

#[test]
fn low_load_heter_power_is_below_every_device_active() {
    // At trickle load the node should sit near idle: GPU parked or at
    // low-power configs, FPGAs on small bitstreams.
    let (app, spaces, setup) = heter();
    let mut opt = Optimizer::new();
    let (policy, _) = opt.plan_for_load(&app, &spaces, &setup.pool, &setup.gpu, QOS_BOUND_MS, 0.5);
    let r = steady_state(
        &app,
        &setup.pool,
        &policy,
        &setup.sim_config,
        0.5,
        2_000.0,
        20_000.0,
        23,
    );
    // 1 × W9100 active alone would be ≥ 96 W; the whole node should be
    // below that at 0.5 RPS.
    assert!(r.avg_power_w < 96.0, "{}", r.avg_power_w);
}

#[test]
fn burst_in_trace_recovers_within_a_few_intervals() {
    let (app, spaces, setup) = heter();
    let interval = 10_000.0;
    // Quiet, then a 4-interval burst at 95% of capacity, then quiet. The
    // runtime reacts with one interval of lag, so a backlog builds during
    // the burst and drains over the following intervals.
    let mut trace = Vec::new();
    for i in 0..20 {
        let util = if (4..8).contains(&i) { 0.95 } else { 0.15 };
        trace.push(TracePoint {
            start_ms: f64::from(i) * interval,
            utilization: util,
        });
    }
    let mut rt = PolyRuntime::new(AppContext::new(app, spaces, setup, QOS_BOUND_MS));
    let report = rt.run(&RunSpec::new(&trace, interval, 60.0).seed(99));
    // The tail must eventually come back under the bound.
    let tail: Vec<f64> = report.intervals[16..].iter().map(|r| r.p99_ms).collect();
    assert!(
        tail.iter().any(|&p| p > 0.0 && p < QOS_BOUND_MS),
        "no recovery: {tail:?}"
    );
    // And the burst must have triggered at least one re-plan.
    assert!(report.intervals.iter().any(|r| r.policy_changed));
}

#[test]
fn static_and_poly_modes_agree_on_offered_load() {
    let (app, spaces, setup) = heter();
    let trace: Vec<TracePoint> = (0..4)
        .map(|i| TracePoint {
            start_ms: f64::from(i) * 10_000.0,
            utilization: 0.4,
        })
        .collect();
    let fixed =
        Optimizer::new().max_capacity_policy(&app, &spaces, &setup.pool, &setup.gpu, QOS_BOUND_MS);
    let ctx = AppContext::new(app, spaces, setup, QOS_BOUND_MS);
    let mut rt1 = PolyRuntime::new(ctx.clone());
    let r1 = rt1.run(
        &RunSpec::new(&trace, 10_000.0, 30.0)
            .mode(RuntimeMode::Static(fixed))
            .seed(5),
    );
    let mut rt2 = PolyRuntime::new(ctx);
    let r2 = rt2.run(&RunSpec::new(&trace, 10_000.0, 30.0).seed(5));
    let arrived =
        |r: &poly::core::TraceReport| -> usize { r.intervals.iter().map(|i| i.completed).sum() };
    // Same seed, same offered load: completion counts within a few
    // requests of each other (different policies, same demand).
    let (a, b) = (arrived(&r1) as f64, arrived(&r2) as f64);
    assert!((a - b).abs() / a.max(1.0) < 0.1, "{a} vs {b}");
}

/// A run builds its own control loop and simulator: a runtime that has
/// already run reports what a fresh one does, so nothing its earlier
/// runs measured (load estimates, the model's learned correction) leaks
/// into the next. The static baseline's predicted p99 comes from the
/// same model, so it is checked after a Poly run too.
#[test]
fn a_second_run_repeats_a_fresh_run() {
    let (app, spaces, setup) = heter();
    let trace: Vec<TracePoint> = (0..8)
        .map(|i| TracePoint {
            start_ms: f64::from(i) * 10_000.0,
            utilization: if i < 4 { 0.3 } else { 0.8 },
        })
        .collect();
    let fixed =
        Optimizer::new().max_capacity_policy(&app, &spaces, &setup.pool, &setup.gpu, QOS_BOUND_MS);
    let ctx = AppContext::new(app, spaces, setup, QOS_BOUND_MS);
    let poly = RunSpec::new(&trace, 10_000.0, 40.0).seed(13);
    let pinned = poly.clone().mode(RuntimeMode::Static(fixed));
    let fresh = |spec: &RunSpec| PolyRuntime::new(ctx.clone()).run(spec);

    let mut rt = PolyRuntime::new(ctx.clone());
    let first = rt.run(&poly);
    assert!(
        first.prediction_error > 0.0,
        "the first run fed the model back"
    );
    assert_eq!(rt.run(&poly), first, "Poly mode, run again");
    assert_eq!(rt.run(&pinned), fresh(&pinned), "static mode, after Poly");
}

#[test]
fn capacity_policy_uses_both_platforms_on_heter() {
    let (app, spaces, setup) = heter();
    let policy =
        Optimizer::new().max_capacity_policy(&app, &spaces, &setup.pool, &setup.gpu, QOS_BOUND_MS);
    let kinds: std::collections::HashSet<DeviceKind> =
        policy.impls().iter().map(|i| i.kind).collect();
    assert_eq!(
        kinds.len(),
        2,
        "max-capacity policy should be heterogeneous"
    );
}

#[test]
fn mmpp_bursty_traffic_is_survivable() {
    // Markov-modulated arrivals alternating calm and burst states: the
    // optimizer's capacity policy must keep violations bounded even though
    // the burst state approaches the node's capacity.
    let (app, spaces, setup) = heter();
    let policy =
        Optimizer::new().max_capacity_policy(&app, &spaces, &setup.pool, &setup.gpu, QOS_BOUND_MS);
    let arrivals = poly::sim::workload::mmpp(5.0, 50.0, 3_000.0, 40_000.0, 31);
    let mut sim = poly::sim::Simulator::new(app, &setup.pool, policy, setup.sim_config.clone());
    sim.enqueue_arrivals(&arrivals);
    sim.drain();
    let report = sim.finish(80_000.0);
    assert_eq!(report.completed, arrivals.len());
    assert!(
        report.qos_violation_ratio < 0.10,
        "violations {:.1}% under MMPP",
        report.qos_violation_ratio * 100.0
    );
}

#[test]
fn non_finite_load_is_refused_with_a_typed_error() {
    let (app, spaces, setup) = heter();
    let mut rt = PolyRuntime::new(AppContext::new(app, spaces, setup, QOS_BOUND_MS));
    let flat = |util: f64| -> Vec<TracePoint> {
        (0..3)
            .map(|i| TracePoint {
                start_ms: f64::from(i) * 10_000.0,
                utilization: if i == 2 { util } else { 0.3 },
            })
            .collect()
    };
    let trace = flat(0.3);
    for max_rps in [f64::INFINITY, f64::NEG_INFINITY] {
        let spec = RunSpec::new(&trace, 10_000.0, max_rps);
        assert_eq!(
            rt.try_run(&spec).expect_err("non-finite scaling"),
            RunSpecError::InvalidMaxRps { max_rps }
        );
    }
    // `f64::MAX` is finite, but times the 30 RPS scaling it is not.
    for util in [f64::NAN, f64::INFINITY, f64::MAX] {
        let bad = flat(util);
        let err = rt
            .try_run(&RunSpec::new(&bad, 10_000.0, 30.0))
            .expect_err("non-finite utilization");
        assert!(
            matches!(err, RunSpecError::InvalidUtilization { index: 2, .. }),
            "{err:?}"
        );
        // The facade folds it into the workspace error.
        let e: poly::Error = err.into();
        assert!(e.to_string().starts_with("run: "), "{e}");
    }
    // The same runtime still runs a valid spec afterwards.
    let report = rt
        .try_run(&RunSpec::new(&trace, 10_000.0, 30.0).seed(3))
        .expect("valid spec");
    assert_eq!(report.intervals.len(), 3);
}
