//! Load sweeps and maximum-throughput search under the QoS constraint.

use crate::{workload, Policy, SimConfig, SimReport, Simulator};
use poly_ir::KernelGraph;
use poly_sched::Pool;

/// Run one steady-state measurement: Poisson arrivals at `rps` over a
/// warmup window (discarded) plus a measurement window, returning the
/// report of the measurement window only.
///
/// This is the standard evaluation harness behind every load-dependent
/// figure: bitstreams are preloaded, queues warm up for `warmup_ms`, and
/// statistics cover `[warmup_ms, warmup_ms + window_ms]`.
#[allow(clippy::too_many_arguments)] // a measurement recipe, not an API to compose
#[must_use]
pub fn steady_state(
    graph: &KernelGraph,
    pool: &Pool,
    policy: &Policy,
    config: &SimConfig,
    rps: f64,
    warmup_ms: f64,
    window_ms: f64,
    seed: u64,
) -> SimReport {
    let mut sim = Simulator::new(graph.clone(), pool, policy.clone(), config.clone());
    let arrivals = workload::poisson(rps, warmup_ms + window_ms, seed);
    sim.enqueue_arrivals(&arrivals);
    sim.advance_to(warmup_ms);
    sim.reset_accounting();
    sim.drain();
    sim.finish(warmup_ms + window_ms)
}

/// One measured operating point of a load sweep.
#[derive(Debug, Clone, PartialEq)]
pub struct LoadPoint {
    /// Offered load in requests per second.
    pub rps: f64,
    /// Measured p99 latency in milliseconds.
    pub p99_ms: f64,
    /// Mean node power in watts.
    pub avg_power_w: f64,
    /// Achieved throughput in requests per second.
    pub throughput_rps: f64,
    /// Fraction of requests over the QoS bound.
    pub violation_ratio: f64,
}

impl LoadPoint {
    /// Condense a simulation report at offered load `rps`.
    #[must_use]
    pub fn from_report(rps: f64, report: &SimReport) -> Self {
        Self {
            rps,
            p99_ms: report.latency.p99(),
            avg_power_w: report.avg_power_w,
            throughput_rps: report.throughput_rps,
            violation_ratio: report.qos_violation_ratio,
        }
    }
}

/// A sequence of measured operating points, ascending offered load —
/// the data behind Figs. 1(a), 7, and 9.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct LoadSweep {
    /// The measured points.
    pub points: Vec<LoadPoint>,
}

impl LoadSweep {
    /// Run `eval` at each offered load and collect the points.
    #[must_use]
    pub fn run(loads_rps: &[f64], mut eval: impl FnMut(f64) -> SimReport) -> Self {
        let points = loads_rps
            .iter()
            .map(|&rps| LoadPoint::from_report(rps, &eval(rps)))
            .collect();
        Self { points }
    }

    /// Like [`LoadSweep::run`], but evaluating the load points on up to
    /// `jobs` worker threads.
    ///
    /// Each point is an independent simulation, so for any pure `eval`
    /// (same report for the same `rps`, regardless of call order — true of
    /// [`steady_state`] with a fixed policy and seed) the result is
    /// identical to the serial [`LoadSweep::run`] for every job count.
    #[must_use]
    pub fn run_par(jobs: usize, loads_rps: &[f64], eval: impl Fn(f64) -> SimReport + Sync) -> Self {
        let points = poly_par::par_map(jobs, loads_rps, |_, &rps| {
            LoadPoint::from_report(rps, &eval(rps))
        });
        Self { points }
    }

    /// The highest offered load whose measured p99 stays within
    /// `bound_ms`, if any point qualifies.
    #[must_use]
    pub fn max_load_within(&self, bound_ms: f64) -> Option<&LoadPoint> {
        self.points
            .iter()
            .filter(|p| p.p99_ms <= bound_ms)
            .max_by(|a, b| a.rps.total_cmp(&b.rps))
    }
}

/// Binary-search the maximum sustainable RPS whose p99 latency stays
/// within `bound_ms`.
///
/// `eval` runs one simulation at the offered load and returns its report.
/// The search brackets `[lo, hi]` and refines to a relative tolerance of
/// `tol` (e.g. `0.02` for 2%). p99 latency is assumed monotone in load,
/// which holds for every workload in this repository.
#[must_use]
pub fn max_rps_under_qos(
    mut eval: impl FnMut(f64) -> SimReport,
    bound_ms: f64,
    mut lo: f64,
    mut hi: f64,
    tol: f64,
) -> f64 {
    assert!(lo > 0.0 && hi > lo, "need a positive bracket");
    // If even `lo` violates, report zero capacity.
    if eval(lo).latency.p99() > bound_ms {
        return 0.0;
    }
    // If `hi` passes, the bracket was too small; return it (callers pick a
    // generous upper bound).
    if eval(hi).latency.p99() <= bound_ms {
        return hi;
    }
    while (hi - lo) / hi > tol {
        let mid = 0.5 * (lo + hi);
        if eval(mid).latency.p99() <= bound_ms {
            lo = mid;
        } else {
            hi = mid;
        }
    }
    lo
}

/// Parallel [`max_rps_under_qos`]: speculatively evaluates both bracket
/// endpoints at once, then per round the midpoint *and* both possible
/// next midpoints, so each round of three concurrent simulations advances
/// the bisection by exactly two serial steps.
///
/// `eval` must be pure (the same `rps` always yields the same report,
/// independent of call order or count) — true of [`steady_state`] with a
/// fixed policy and seed. Under that contract the returned value is
/// bit-identical to the serial search for every `jobs` count: the interval
/// updates replay the serial arithmetic exactly, speculation only changes
/// *when* each evaluation runs.
#[must_use]
pub fn max_rps_under_qos_par(
    jobs: usize,
    eval: impl Fn(f64) -> SimReport + Sync,
    bound_ms: f64,
    mut lo: f64,
    mut hi: f64,
    tol: f64,
) -> f64 {
    assert!(lo > 0.0 && hi > lo, "need a positive bracket");
    if jobs <= 1 {
        return max_rps_under_qos(eval, bound_ms, lo, hi, tol);
    }
    let p99_at = |rps: &[f64]| poly_par::par_map(jobs, rps, |_, &r| eval(r).latency.p99());
    let ends = p99_at(&[lo, hi]);
    if ends[0] > bound_ms {
        return 0.0;
    }
    if ends[1] <= bound_ms {
        return hi;
    }
    while (hi - lo) / hi > tol {
        let mid = 0.5 * (lo + hi);
        // The two candidate next midpoints; `0.5 * (lo + mid)` is exactly
        // what the serial loop would compute after `hi = mid`, and
        // `0.5 * (mid + hi)` after `lo = mid`.
        let lo_mid = 0.5 * (lo + mid);
        let hi_mid = 0.5 * (mid + hi);
        let p = p99_at(&[mid, lo_mid, hi_mid]);
        if p[0] <= bound_ms {
            lo = mid;
            if (hi - lo) / hi > tol {
                if p[2] <= bound_ms {
                    lo = hi_mid;
                } else {
                    hi = hi_mid;
                }
            }
        } else {
            hi = mid;
            if (hi - lo) / hi > tol {
                if p[1] <= bound_ms {
                    lo = lo_mid;
                } else {
                    hi = lo_mid;
                }
            }
        }
    }
    lo
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::LatencyStats;

    /// Synthetic M/D/1-flavoured report: p99 explodes as load → capacity.
    fn synthetic(rps: f64, capacity: f64) -> SimReport {
        let rho = (rps / capacity).min(0.999);
        let p99 = 10.0 + 100.0 * rho / (1.0 - rho);
        SimReport {
            duration_ms: 1000.0,
            arrived: rps as usize,
            completed: rps as usize,
            latency: LatencyStats::from_samples(vec![p99; 10]),
            qos_violation_ratio: 0.0,
            avg_power_w: 100.0 + rho * 200.0,
            energy_j: 1.0,
            throughput_rps: rps,
            devices: vec![],
            kernels: vec![],
        }
    }

    #[test]
    fn binary_search_finds_knee() {
        // p99 ≤ 200 ⇔ rho ≤ 0.655 ⇒ max ≈ 65.5 RPS at capacity 100.
        let max = max_rps_under_qos(|rps| synthetic(rps, 100.0), 200.0, 1.0, 1000.0, 0.01);
        assert!((60.0..70.0).contains(&max), "{max}");
    }

    #[test]
    fn zero_when_even_low_load_violates() {
        let max = max_rps_under_qos(|rps| synthetic(rps, 100.0), 5.0, 1.0, 1000.0, 0.01);
        assert_eq!(max, 0.0);
    }

    #[test]
    fn hi_returned_when_bracket_too_small() {
        let max = max_rps_under_qos(|rps| synthetic(rps, 1e9), 200.0, 1.0, 50.0, 0.01);
        assert_eq!(max, 50.0);
    }

    #[test]
    fn parallel_search_is_bit_identical_to_serial() {
        for (bound, capacity, tol) in [
            (200.0, 100.0, 0.01),
            (200.0, 100.0, 0.03),
            (50.0, 250.0, 0.02),
            (5.0, 100.0, 0.01),   // zero-capacity path
            (200.0, 1e9, 0.01),   // bracket-too-small path
            (200.0, 100.0, 0.25), // coarse tolerance: few rounds
        ] {
            let serial = max_rps_under_qos(|rps| synthetic(rps, capacity), bound, 1.0, 1000.0, tol);
            for jobs in [1, 2, 3, 8] {
                let par = max_rps_under_qos_par(
                    jobs,
                    |rps| synthetic(rps, capacity),
                    bound,
                    1.0,
                    1000.0,
                    tol,
                );
                assert_eq!(
                    serial.to_bits(),
                    par.to_bits(),
                    "bound={bound} capacity={capacity} tol={tol} jobs={jobs}"
                );
            }
        }
    }

    #[test]
    fn parallel_sweep_matches_serial() {
        let loads = [10.0, 30.0, 50.0, 70.0, 90.0];
        let serial = LoadSweep::run(&loads, |rps| synthetic(rps, 100.0));
        for jobs in [1, 2, 4, 8] {
            let par = LoadSweep::run_par(jobs, &loads, |rps| synthetic(rps, 100.0));
            assert_eq!(serial, par, "jobs={jobs}");
        }
    }

    #[test]
    fn sweep_collects_and_filters() {
        let sweep = LoadSweep::run(&[10.0, 50.0, 90.0], |rps| synthetic(rps, 100.0));
        assert_eq!(sweep.points.len(), 3);
        let best = sweep.max_load_within(200.0).unwrap();
        assert_eq!(best.rps, 50.0); // 90 RPS: rho=0.9 -> p99=910 > 200
        assert!(sweep.points[2].p99_ms > 200.0);
    }
}
