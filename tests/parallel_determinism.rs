//! Determinism regression tests for the parallel experiment engine: every
//! parallel code path must produce byte-identical results to its serial
//! counterpart, for any job count. Parallelism is only allowed to change
//! wall-clock time, never a number.

use poly::apps::{asr, QOS_BOUND_MS};
use poly::core::provision::{table_iii, Architecture, Setting};
use poly::core::Optimizer;
use poly::dse::{DesignSpaceCache, Explorer};
use poly::sim::{max_rps_under_qos, max_rps_under_qos_par, steady_state, LoadSweep, SimReport};
use poly_bench::csvout::Csv;
use proptest::prelude::*;

/// A pure (load -> report) evaluator: fixed static policy, fixed seed —
/// the fig7-style measurement the experiments binary parallelizes.
fn static_eval() -> impl Fn(f64) -> SimReport + Sync {
    let app = asr();
    let setup = table_iii(Setting::I, Architecture::HomoGpu);
    let explorer = Explorer::new(setup.gpu.clone(), setup.fpga.clone());
    let spaces: Vec<_> = app.kernels().iter().map(|k| explorer.explore(k)).collect();
    let policy =
        Optimizer::new().max_capacity_policy(&app, &spaces, &setup.pool, &setup.gpu, QOS_BOUND_MS);
    move |rps: f64| {
        steady_state(
            &app,
            &setup.pool,
            &policy,
            &setup.sim_config,
            rps,
            1_000.0,
            5_000.0,
            42,
        )
    }
}

#[test]
fn sweep_is_identical_for_any_job_count() {
    let eval = static_eval();
    let loads: Vec<f64> = (1..=6).map(|i| f64::from(i) * 12.0).collect();
    let serial = LoadSweep::run(&loads, &eval);
    for jobs in [1, 2, 8] {
        let par = LoadSweep::run_par(jobs, &loads, &eval);
        assert_eq!(serial, par, "jobs={jobs} diverged from the serial sweep");
    }
}

#[test]
fn sweep_csv_bytes_are_identical_for_any_job_count() {
    let eval = static_eval();
    let loads: Vec<f64> = (1..=5).map(|i| f64::from(i) * 15.0).collect();
    let render = |sweep: &LoadSweep| {
        let mut csv = Csv::new("rps,p99_ms,power_w");
        for p in &sweep.points {
            csv.row().f(p.rps).f(p.p99_ms).f(p.avg_power_w);
        }
        csv.render()
    };
    let serial = render(&LoadSweep::run(&loads, &eval));
    let par = render(&LoadSweep::run_par(8, &loads, &eval));
    assert_eq!(serial.into_bytes(), par.into_bytes());
}

#[test]
fn capacity_search_is_bit_identical_for_any_job_count() {
    let eval = static_eval();
    let serial = max_rps_under_qos(&eval, QOS_BOUND_MS, 0.5, 400.0, 0.03);
    for jobs in [1, 2, 8] {
        let par = max_rps_under_qos_par(jobs, &eval, QOS_BOUND_MS, 0.5, 400.0, 0.03);
        assert_eq!(
            serial.to_bits(),
            par.to_bits(),
            "jobs={jobs}: {serial} vs {par}"
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 8, ..ProptestConfig::default() })]

    /// The memoized cache returns exactly what a fresh explorer computes,
    /// for every kernel of every suite application, and the second lookup
    /// is a hit (at-most-once exploration).
    #[test]
    fn cache_matches_fresh_exploration(app_idx in 0usize..6, kernel_sel in 0usize..16) {
        let apps = poly::apps::suite();
        let app = &apps[app_idx];
        let kernel = &app.kernels()[kernel_sel % app.kernels().len()];
        let explorer = Explorer::new(
            poly::device::catalog::amd_w9100(),
            poly::device::catalog::xilinx_7v3(),
        );
        let cache = DesignSpaceCache::new();
        let cached = cache.explore(&explorer, kernel);
        let fresh = explorer.explore(kernel);
        prop_assert_eq!(&*cached, &fresh);
        let (hits_before, misses) = cache.stats();
        prop_assert_eq!(hits_before, 0);
        prop_assert_eq!(misses, 1);
        let again = cache.explore(&explorer, kernel);
        prop_assert_eq!(&*again, &fresh);
        let (hits, misses) = cache.stats();
        prop_assert_eq!(hits, 1);
        prop_assert_eq!(misses, 1);
    }
}
