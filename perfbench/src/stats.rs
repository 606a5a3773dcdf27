//! The benchmark's own arithmetic: order statistics over repetitions and
//! runs, the goodput and maximum-rate rules, queue-depth buckets, and the
//! digest that proves repetitions reproduce each other.

/// Median of `values` (mean of the two middle values for an even count).
///
/// # Panics
/// Panics on an empty slice or a NaN.
pub fn median(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "median of nothing");
    let mut v = values.to_vec();
    v.sort_by(|a, b| a.partial_cmp(b).expect("no NaN in measurements"));
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        0.5 * (v[n / 2 - 1] + v[n / 2])
    }
}

/// Host seconds `raw`, measured while the calibration loop took `cal`
/// seconds, scaled to the host speed at which it takes `cal_ref`.
pub fn at_reference_speed(raw: f64, cal: f64, cal_ref: f64) -> f64 {
    raw * cal_ref / cal
}

/// First and third quartile by the "exclusive" method, the default of
/// Python's `statistics.quantiles(values, n=4)`, so steadiness checked
/// here reads the same as anywhere else that uses it.
///
/// # Panics
/// Panics with fewer than two values or on a NaN.
pub fn quartiles(values: &[f64]) -> (f64, f64) {
    assert!(values.len() >= 2, "quartiles need two values");
    let mut v = values.to_vec();
    v.sort_by(|a, b| a.partial_cmp(b).expect("no NaN in measurements"));
    let ld = v.len();
    let m = ld + 1;
    let cut = |i: usize| {
        let j = (i * m / 4).clamp(1, ld - 1);
        let delta = (i * m) as f64 - (j * 4) as f64;
        (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0
    };
    (cut(1), cut(3))
}

/// Whether an interval's p99 is within its bound, given its completions
/// and how many of them exceeded their own class's bound. This is the
/// nearest-rank p99 rule of `poly_sim::quantile_of` restated as a count:
/// the p99 sample is within the bound exactly when at most
/// `n - ceil(0.99 n)` samples exceed it. Judging each completion against
/// its own class's bound extends the rule to several classes. An
/// interval without completions has no p99 and never passes.
pub fn p99_within_bound(completed: usize, violations: usize) -> bool {
    if completed == 0 {
        return false;
    }
    let rank = ((0.99 * completed as f64).ceil() as usize).clamp(1, completed);
    violations <= completed - rank
}

/// Goodput in percent: completions within their class's bound over
/// requests offered. Shed, timed-out, failed and unfinished requests
/// are in the denominator and never in the numerator, so each counts as
/// a miss.
pub fn goodput_pct(offered: usize, completed: usize, violations: usize) -> f64 {
    if offered == 0 {
        return 0.0;
    }
    (completed - violations) as f64 / offered as f64 * 100.0
}

/// One replay interval as the maximum-rate rule sees it.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct IntervalLoad {
    /// Scheduled offered rate of the interval, requests per second.
    pub offered_rps: f64,
    /// Fresh requests offered during the interval.
    pub offered: usize,
    /// Completions during the interval.
    pub completed: usize,
    /// Completions over their class's bound.
    pub violations: usize,
    /// Requests shed by admission control.
    pub shed: usize,
    /// Requests abandoned at their deadline.
    pub timed_out: usize,
}

impl IntervalLoad {
    /// Change in requests held by the system over the interval (router
    /// backlog plus node queues): fresh arrivals in, terminal outcomes
    /// out. Drained requests that are re-issued stay in the system and
    /// do not count. Failed requests are not reported per interval; the
    /// default lifecycle used by the fleet workloads never fails one.
    pub fn backlog_growth(&self) -> i64 {
        self.offered as i64 - (self.completed + self.shed + self.timed_out) as i64
    }
}

/// The highest offered rate of any interval that met the bound without a
/// growing backlog: p99 within bound ([`p99_within_bound`]), nothing
/// shed, and no more requests in the system at the interval's end than
/// at its start. `None` when no interval qualifies.
pub fn max_rps_without_backlog(intervals: &[IntervalLoad]) -> Option<f64> {
    intervals
        .iter()
        .filter(|r| {
            p99_within_bound(r.completed, r.violations) && r.shed == 0 && r.backlog_growth() <= 0
        })
        .map(|r| r.offered_rps)
        .max_by(f64::total_cmp)
}

/// Queue-depth bucket of a node-interval, by the node's queued work
/// items at the interval's start: 0 below 100, 1 from 100 below 10 000,
/// 2 from 10 000 up.
pub fn depth_bucket(queued: usize) -> usize {
    match queued {
        0..=99 => 0,
        100..=9_999 => 1,
        _ => 2,
    }
}

/// Per-layer metric of each [`depth_bucket`] bucket, in bucket order.
pub const DEPTH_BUCKETS: [&str; 3] = [
    "sim.advance.ns_per_completion.depth_lt_100",
    "sim.advance.ns_per_completion.depth_100_10k",
    "sim.advance.ns_per_completion.depth_ge_10k",
];

/// FNV-1a digest of a rendered simulation output. `Debug` output of
/// `f64` round-trips exactly, so equal digests of rendered reports mean
/// bit-equal reports (up to hash collisions).
pub fn digest(rendered: &str) -> u64 {
    rendered.bytes().fold(0xcbf2_9ce4_8422_2325, |h, b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(median(&[7.0]), 7.0);
        // One repetition caught in a slow host phase moves the median by
        // at most one rank, unlike the mean.
        assert_eq!(median(&[1.00, 1.02, 0.99, 1.01, 3.50]), 1.01);
    }

    #[test]
    fn host_time_scales_to_the_reference_speed() {
        // Measured while the calibration loop ran at half its reference
        // speed: the repetition counts as half as long.
        assert_eq!(at_reference_speed(3.0, 0.010, 0.005), 1.5);
        assert_eq!(at_reference_speed(3.0, 0.005, 0.005), 3.0);
    }

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), (2.75, 8.25));
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        assert_eq!(quartiles(&[2.0, 1.0]), (0.75, 2.25));
        // statistics.quantiles([5, 1, 4, 2, 3], n=4) == [1.5, 3.0, 4.5]
        assert_eq!(quartiles(&[5.0, 1.0, 4.0, 2.0, 3.0]), (1.5, 4.5));
    }

    #[test]
    fn p99_rule_matches_nearest_rank_quantile() {
        let mut scratch = Vec::new();
        for n in 1..=350usize {
            for over in 0..=n.min(6) {
                // `over` samples at 300 ms over a 200 ms bound.
                let samples: Vec<f64> = (0..n)
                    .map(|i| if i < over { 300.0 } else { 10.0 })
                    .collect();
                let p99 = poly::sim::quantile_of(&samples, 0.99, &mut scratch).unwrap();
                assert_eq!(p99_within_bound(n, over), p99 <= 200.0, "n={n} over={over}");
            }
        }
        assert!(!p99_within_bound(0, 0), "no completions, no p99");
    }

    #[test]
    fn goodput_counts_every_non_completion_as_a_miss() {
        // 100 offered: 80 completed (5 late), 10 shed, 6 timed out,
        // 4 unfinished. Only the 75 on-time completions count.
        assert_eq!(goodput_pct(100, 80, 5), 75.0);
        assert_eq!(goodput_pct(50, 50, 0), 100.0);
        assert_eq!(goodput_pct(0, 0, 0), 0.0);
    }

    fn interval(offered_rps: f64, offered: usize, completed: usize) -> IntervalLoad {
        IntervalLoad {
            offered_rps,
            offered,
            completed,
            violations: 0,
            shed: 0,
            timed_out: 0,
        }
    }

    #[test]
    fn max_rps_rejects_a_growing_backlog() {
        let intervals = [
            interval(100.0, 1000, 1000),
            // Backlog grows by one request: disqualified despite a fine p99.
            interval(150.0, 1500, 1499),
            // Drains the backlog it inherited: qualifies.
            interval(120.0, 1200, 1201),
        ];
        assert_eq!(max_rps_without_backlog(&intervals), Some(120.0));
    }

    #[test]
    fn max_rps_rejects_shedding_late_and_idle_intervals() {
        let mut shed = interval(300.0, 100, 100);
        shed.shed = 1;
        let mut late = interval(200.0, 100, 100);
        late.violations = 2;
        let mut timed_out = interval(250.0, 100, 95);
        timed_out.timed_out = 5;
        let idle = interval(500.0, 0, 0);
        let ok = interval(50.0, 100, 100);
        assert_eq!(
            max_rps_without_backlog(&[shed, late, timed_out, idle, ok]),
            Some(250.0),
            "timeouts leave the system; one late completion in 100 is the p99 allowance"
        );
        assert_eq!(max_rps_without_backlog(&[shed, late, idle]), None);
    }

    #[test]
    fn depth_buckets_split_at_100_and_10k() {
        assert_eq!(depth_bucket(0), 0);
        assert_eq!(depth_bucket(99), 0);
        assert_eq!(depth_bucket(100), 1);
        assert_eq!(depth_bucket(9_999), 1);
        assert_eq!(depth_bucket(10_000), 2);
        assert_eq!(depth_bucket(usize::MAX), 2);
    }

    #[test]
    fn digest_tells_bit_different_outputs_apart() {
        let a = format!("{:?}", (1.0_f64, 2usize));
        let b = format!("{:?}", (1.000_000_000_000_000_2_f64, 2usize));
        assert_ne!(digest(&a), digest(&b));
        assert_eq!(digest(&a), digest(&a.clone()));
    }
}
