//! Request generators and the 24-hour datacenter utilization trace.
//!
//! All generators are deterministic given a seed, so every experiment in
//! EXPERIMENTS.md is reproducible bit-for-bit.

use rand::Rng;
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;

/// Arrival times (ms) at a constant inter-arrival interval — the paper's
/// motivation experiment sends ASR requests "in a constant interval which
/// is varied from 100ms to 1ms".
#[must_use]
pub fn constant(rate_rps: f64, duration_ms: f64) -> Vec<f64> {
    if rate_rps <= 0.0 {
        return Vec::new();
    }
    let interval = 1000.0 / rate_rps;
    let n = (duration_ms / interval).floor() as usize;
    (0..n).map(|i| i as f64 * interval).collect()
}

/// Poisson (open-loop) arrivals at `rate_rps`, seeded: the
/// [`collect`](Iterator::collect) of [`PoissonArrivals`]. A non-positive
/// rate yields no arrivals.
///
/// # Panics
/// As [`PoissonArrivals::new`], if `rate_rps` or `duration_ms` is not
/// finite.
#[must_use]
pub fn poisson(rate_rps: f64, duration_ms: f64, seed: u64) -> Vec<f64> {
    PoissonArrivals::new(rate_rps, duration_ms, seed).collect()
}

/// The arrival times of [`poisson`], one exponential gap at a time.
/// Counting them ([`Iterator::count`]) draws the same gaps without
/// storing a time, so a count and a [`poisson`] call with the same
/// arguments cannot disagree.
#[derive(Debug, Clone)]
pub struct PoissonArrivals {
    rng: ChaCha8Rng,
    /// Mean gap in ms; `None` for a non-positive rate (no arrivals).
    mean_interval: Option<f64>,
    duration_ms: f64,
    t: f64,
}

impl PoissonArrivals {
    /// Arrivals at `rate_rps` over `[0, duration_ms)`, seeded.
    ///
    /// # Panics
    /// Panics if `rate_rps` or `duration_ms` is not finite: the arrival
    /// clock would never pass the end of the window, and the stream
    /// would never end. Run specs reject such rates with a typed error
    /// before they reach this point.
    #[must_use]
    pub fn new(rate_rps: f64, duration_ms: f64, seed: u64) -> Self {
        assert!(
            rate_rps.is_finite() && duration_ms.is_finite(),
            "poisson needs a finite rate and window, got {rate_rps} RPS over {duration_ms} ms"
        );
        Self {
            rng: ChaCha8Rng::seed_from_u64(seed),
            mean_interval: (rate_rps > 0.0).then(|| 1000.0 / rate_rps),
            duration_ms,
            t: 0.0,
        }
    }
}

impl Iterator for PoissonArrivals {
    type Item = f64;

    fn next(&mut self) -> Option<f64> {
        let mean_interval = self.mean_interval?;
        let u: f64 = self.rng.gen_range(f64::EPSILON..1.0);
        self.t += -mean_interval * u.ln();
        if self.t >= self.duration_ms {
            // Stay ended: a later call must not draw a gap past the end.
            self.mean_interval = None;
            return None;
        }
        Some(self.t)
    }
}

impl std::iter::FusedIterator for PoissonArrivals {}

/// Markov-modulated Poisson arrivals: a two-state process that switches
/// between a `base_rps` state and a `burst_rps` state with exponentially
/// distributed sojourn times (`mean_state_ms`). Bursty open-loop traffic —
/// the stress case for the runtime's queue-length reaction (Section VI-C).
#[must_use]
pub fn mmpp(
    base_rps: f64,
    burst_rps: f64,
    mean_state_ms: f64,
    duration_ms: f64,
    seed: u64,
) -> Vec<f64> {
    if duration_ms <= 0.0 || (base_rps <= 0.0 && burst_rps <= 0.0) {
        return Vec::new();
    }
    let mut rng = ChaCha8Rng::seed_from_u64(seed);
    let mut out = Vec::new();
    let mut t = 0.0;
    let mut bursting = false;
    while t < duration_ms {
        let u: f64 = rng.gen_range(f64::EPSILON..1.0);
        let state_len = -mean_state_ms * u.ln();
        let end = (t + state_len).min(duration_ms);
        let rate = if bursting { burst_rps } else { base_rps };
        if rate > 0.0 {
            let mean_interval = 1000.0 / rate;
            loop {
                let u: f64 = rng.gen_range(f64::EPSILON..1.0);
                t += -mean_interval * u.ln();
                if t >= end {
                    break;
                }
                out.push(t);
            }
        }
        t = end;
        bursting = !bursting;
    }
    out
}

/// Per-request input-size distribution (relative to the nominal kernel
/// profile; 1.0 = nominal). Drives the irregular-workload scenario: the
/// interval plan is chosen for the aggregate load, while each request's
/// actual cost scales with its sampled size
/// (see [`poly_device::size_scale`]).
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum SizeDist {
    /// Every request at the nominal size (the classic Poly workload).
    Nominal,
    /// Uniform on `[lo, hi]`.
    Uniform {
        /// Smallest relative size.
        lo: f64,
        /// Largest relative size.
        hi: f64,
    },
    /// Heavy-tailed lognormal with the given `median` and log-space
    /// `sigma`, truncated at `cap` (a datacenter trace shape: most
    /// requests small, a fat tail of huge ones).
    Lognormal {
        /// Median relative size (the lognormal's `e^mu`).
        median: f64,
        /// Log-space standard deviation (tail heaviness).
        sigma: f64,
        /// Truncation bound on sampled sizes.
        cap: f64,
    },
}

impl SizeDist {
    /// A default heavy-tail shape for experiments: median 0.7, sigma 0.9,
    /// capped at 8x nominal (mean ≈ 1.0, p99 ≈ 5.7x).
    #[must_use]
    pub fn heavy_tail() -> Self {
        SizeDist::Lognormal {
            median: 0.7,
            sigma: 0.9,
            cap: 8.0,
        }
    }

    /// Approximate mean of the distribution (ignoring the lognormal
    /// truncation) — the admission-control size hint.
    #[must_use]
    pub fn mean(&self) -> f64 {
        match *self {
            SizeDist::Nominal => 1.0,
            SizeDist::Uniform { lo, hi } => 0.5 * (lo + hi),
            SizeDist::Lognormal { median, sigma, .. } => median * (0.5 * sigma * sigma).exp(),
        }
    }

    /// Sample `n` sizes, deterministic in `seed`. `Nominal` yields exact
    /// `1.0`s, so the sized request path reproduces the unsized
    /// simulation bit-for-bit.
    #[must_use]
    pub fn sample(&self, n: usize, seed: u64) -> Vec<f64> {
        if matches!(self, SizeDist::Nominal) {
            return vec![1.0; n];
        }
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        (0..n)
            .map(|_| match *self {
                SizeDist::Nominal => 1.0,
                SizeDist::Uniform { lo, hi } => {
                    if hi > lo {
                        rng.gen_range(lo..hi)
                    } else {
                        lo
                    }
                }
                SizeDist::Lognormal { median, sigma, cap } => {
                    // Box–Muller: two uniforms -> one standard normal.
                    let u1: f64 = rng.gen_range(f64::EPSILON..1.0);
                    let u2: f64 = rng.gen_range(0.0..1.0);
                    let z = (-2.0 * u1.ln()).sqrt() * (std::f64::consts::TAU * u2).cos();
                    (median * (sigma * z).exp()).min(cap)
                }
            })
            .collect()
    }
}

/// One point of a utilization trace: the interval starting at
/// `start_ms` runs at `utilization` (fraction of the node's max RPS).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TracePoint {
    /// Interval start in milliseconds since trace begin.
    pub start_ms: f64,
    /// Load level in `\[0, 1\]`.
    pub utilization: f64,
}

/// A synthesized 24-hour server utilization trace in the style of the
/// Google cluster trace the paper replays (Fig. 11): a diurnal baseline
/// (low at night, high in the evening), plus noise and occasional bursts.
///
/// `interval_ms` is the sampling period (the paper's re-planning interval);
/// deterministic in `seed`.
#[must_use]
pub fn google_trace_24h(interval_ms: f64, seed: u64) -> Vec<TracePoint> {
    let mut rng = ChaCha8Rng::seed_from_u64(seed);
    let day_ms = 24.0 * 3600.0 * 1000.0;
    let n = (day_ms / interval_ms).ceil() as usize;
    let mut points = Vec::with_capacity(n);
    let mut burst_left = 0usize;
    let mut burst_level = 0.0;
    for i in 0..n {
        let start_ms = i as f64 * interval_ms;
        let hour = start_ms / 3_600_000.0;
        // Diurnal: trough ~04:00 (≈0.18), peak ~20:00 (≈0.85).
        let phase = (hour - 14.0) / 24.0 * std::f64::consts::TAU;
        let diurnal = 0.50 + 0.33 * phase.cos();
        // Noise.
        let noise: f64 = rng.gen_range(-0.06..0.06);
        // Bursts: ~1% of intervals start a burst lasting a few intervals.
        if burst_left == 0 && rng.gen_bool(0.01) {
            burst_left = rng.gen_range(2..6);
            burst_level = rng.gen_range(0.15..0.30);
        }
        let burst = if burst_left > 0 {
            burst_left -= 1;
            burst_level
        } else {
            0.0
        };
        points.push(TracePoint {
            start_ms,
            utilization: (diurnal + noise + burst).clamp(0.02, 1.0),
        });
    }
    points
}

/// Arrival times over a trace: each interval produces Poisson arrivals at
/// `utilization × max_rps`.
#[must_use]
pub fn trace_arrivals(trace: &[TracePoint], interval_ms: f64, max_rps: f64, seed: u64) -> Vec<f64> {
    let mut out = Vec::new();
    for (i, p) in trace.iter().enumerate() {
        let rate = p.utilization * max_rps;
        for t in poisson(rate, interval_ms, seed.wrapping_add(i as u64)) {
            out.push(p.start_ms + t);
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn constant_spacing_is_exact() {
        let a = constant(100.0, 100.0); // 100 RPS for 100 ms -> 10 arrivals
        assert_eq!(a.len(), 10);
        assert!((a[1] - a[0] - 10.0).abs() < 1e-12);
    }

    #[test]
    fn zero_rate_yields_nothing() {
        assert!(constant(0.0, 1000.0).is_empty());
        assert!(poisson(0.0, 1000.0, 1).is_empty());
    }

    #[test]
    fn poisson_mean_rate_approximately_correct() {
        let a = poisson(50.0, 60_000.0, 42);
        // 50 RPS over 60 s ⇒ ~3000 arrivals; Poisson σ≈55.
        assert!((2700..=3300).contains(&a.len()), "{}", a.len());
        assert!(a.windows(2).all(|w| w[1] > w[0]), "sorted");
    }

    #[test]
    #[should_panic(expected = "finite rate")]
    fn poisson_refuses_a_nan_rate() {
        let _ = poisson(f64::NAN, 1_000.0, 1);
    }

    #[test]
    #[should_panic(expected = "finite rate")]
    fn poisson_refuses_an_infinite_rate() {
        let _ = poisson(f64::INFINITY, 1_000.0, 1);
    }

    #[test]
    #[should_panic(expected = "finite rate")]
    fn poisson_refuses_an_unbounded_window() {
        let _ = poisson(10.0, f64::INFINITY, 1);
    }

    #[test]
    fn poisson_is_deterministic_in_seed() {
        assert_eq!(poisson(10.0, 10_000.0, 7), poisson(10.0, 10_000.0, 7));
        assert_ne!(poisson(10.0, 10_000.0, 7), poisson(10.0, 10_000.0, 8));
    }

    #[test]
    fn counting_arrivals_matches_the_collected_stream() {
        for (rate, seed) in [(0.0, 1), (-3.0, 2), (0.5, 3), (37.5, 4), (400.0, 5)] {
            let times = poisson(rate, 2_000.0, seed);
            assert_eq!(
                PoissonArrivals::new(rate, 2_000.0, seed).count(),
                times.len(),
                "{rate} RPS"
            );
        }
        let mut ended = PoissonArrivals::new(5.0, 1_000.0, 9);
        ended.by_ref().for_each(drop);
        assert_eq!(ended.next(), None, "an ended stream stays ended");
    }

    #[test]
    fn mmpp_alternates_between_rates() {
        let a = mmpp(5.0, 120.0, 2_000.0, 60_000.0, 9);
        // Mean rate sits between the two states.
        let mean_rps = a.len() as f64 / 60.0;
        assert!(mean_rps > 10.0 && mean_rps < 110.0, "{mean_rps}");
        assert!(a.windows(2).all(|w| w[1] >= w[0]), "sorted");
        // Deterministic in the seed.
        assert_eq!(a, mmpp(5.0, 120.0, 2_000.0, 60_000.0, 9));
        // Degenerate cases.
        assert!(mmpp(0.0, 0.0, 1000.0, 1000.0, 1).is_empty());
        assert!(mmpp(1.0, 1.0, 1000.0, 0.0, 1).is_empty());
    }

    #[test]
    fn trace_has_diurnal_shape() {
        let trace = google_trace_24h(300_000.0, 1); // 5-minute intervals
        assert_eq!(trace.len(), 288);
        let at_hour = |h: f64| {
            trace
                .iter()
                .find(|p| p.start_ms >= h * 3_600_000.0)
                .unwrap()
                .utilization
        };
        // Early morning trough far below evening peak.
        assert!(at_hour(4.0) < at_hour(20.0) - 0.2);
        assert!(trace.iter().all(|p| (0.0..=1.0).contains(&p.utilization)));
    }

    #[test]
    fn trace_is_deterministic() {
        assert_eq!(
            google_trace_24h(300_000.0, 5),
            google_trace_24h(300_000.0, 5)
        );
    }

    #[test]
    fn nominal_sizes_are_exactly_one() {
        let s = SizeDist::Nominal.sample(100, 3);
        assert!(s.iter().all(|x| x.to_bits() == 1.0f64.to_bits()));
        assert_eq!(SizeDist::Nominal.mean(), 1.0);
    }

    #[test]
    fn size_samples_are_deterministic_and_bounded() {
        let d = SizeDist::Uniform { lo: 0.5, hi: 2.0 };
        let a = d.sample(1000, 7);
        assert_eq!(a, d.sample(1000, 7));
        assert_ne!(a, d.sample(1000, 8));
        assert!(a.iter().all(|&x| (0.5..2.0).contains(&x)));
        let mean = a.iter().sum::<f64>() / a.len() as f64;
        assert!((mean - d.mean()).abs() < 0.1, "{mean}");
    }

    #[test]
    fn heavy_tail_is_skewed_and_capped() {
        let d = SizeDist::heavy_tail();
        let a = d.sample(20_000, 11);
        assert!(a.iter().all(|&x| x > 0.0 && x <= 8.0));
        let mean = a.iter().sum::<f64>() / a.len() as f64;
        let mut sorted = a.clone();
        sorted.sort_by(f64::total_cmp);
        let median = sorted[a.len() / 2];
        // Right-skew: mean well above median; a real tail past 3x nominal.
        assert!(mean > median * 1.2, "mean {mean} median {median}");
        assert!(sorted[a.len() * 99 / 100] > 3.0);
        assert!((mean - d.mean()).abs() < 0.15, "{mean} vs {}", d.mean());
    }

    #[test]
    fn trace_arrivals_follow_utilization() {
        let trace = vec![
            TracePoint {
                start_ms: 0.0,
                utilization: 0.1,
            },
            TracePoint {
                start_ms: 10_000.0,
                utilization: 1.0,
            },
        ];
        let arrivals = trace_arrivals(&trace, 10_000.0, 100.0, 3);
        let low = arrivals.iter().filter(|&&t| t < 10_000.0).count();
        let high = arrivals.len() - low;
        assert!(high > low * 4, "high-load interval has ~10x the arrivals");
        assert!(arrivals.windows(2).all(|w| w[1] >= w[0]), "sorted");
    }
}
