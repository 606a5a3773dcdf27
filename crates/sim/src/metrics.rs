use std::sync::Arc;

/// Unified re-issue accounting, shared by the node and the cluster
/// layers. PR 2 counted node-level fail-stop retries and PR 3 counted
/// cluster-level redistribution in two unrelated scalars; this struct is
/// the single ledger both feed, so "how much work was re-issued, and
/// why" reads off one place.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct RetryStats {
    /// Work items re-dispatched onto surviving devices after a device
    /// fail-stop killed or orphaned them (node level; counted per
    /// kernel-stage item, so one request can contribute several).
    pub device_retries: usize,
    /// Requests failed after a kernel stage exhausted its bounded retry
    /// budget (only under `RetryPolicy::Backoff`; always 0 under the
    /// legacy immediate policy).
    pub exhausted: usize,
    /// Requests re-issued by the front-end after a whole-node drain
    /// (cluster level; always 0 in single-node reports).
    pub redistributed: usize,
    /// Hedge copies fired for slow stages (node level).
    pub hedges_fired: usize,
    /// Stages won by the hedge copy rather than the primary.
    pub hedge_wins: usize,
    /// Queued entries poached by an idle device under the dynamic
    /// dispatch layer (node level; 0 while the layer is off).
    pub steals: usize,
}

/// Quantiles precomputed by the digest. Every quantile the framework
/// queries (p50/p95/p99 plus the 1st/10th percentiles used by tests and
/// calibration) maps onto one of these grid points, so lookups are O(log
/// grid) with no per-query pass over the samples.
const GRID_QS: [f64; 10] = [0.01, 0.05, 0.10, 0.25, 0.50, 0.75, 0.90, 0.95, 0.99, 1.0];

/// Latency distribution summary of a set of completed requests.
///
/// The paper's QoS metric is the 99th-percentile ("tail") latency; the
/// summary also exposes p50/p95, mean, and max for the figures.
///
/// Internally the samples are kept **unsorted** behind an `Arc` and the
/// common quantiles are extracted with `select_nth_unstable` (expected
/// O(n) total, vs. O(n log n) for a full sort). This keeps report
/// generation off the simulator's hot path: producing a report shares the
/// sample buffer instead of cloning and sorting it.
#[derive(Debug, Clone)]
pub struct LatencyStats {
    /// Finite samples, in no particular order (shared, never mutated).
    samples: Arc<Vec<f64>>,
    mean_ms: f64,
    /// `(rank0, value)` pairs, sorted by rank: `value` is what the sorted
    /// sample array would hold at index `rank0`. Covers [`GRID_QS`] plus
    /// the minimum (rank 0).
    grid: Vec<(usize, f64)>,
}

impl PartialEq for LatencyStats {
    /// Equality is on the *distribution* (order-insensitive), matching
    /// the former sorted representation.
    fn eq(&self, other: &Self) -> bool {
        if self.samples.len() != other.samples.len()
            || self.mean_ms.to_bits() != other.mean_ms.to_bits()
            || self.grid != other.grid
        {
            return false;
        }
        if Arc::ptr_eq(&self.samples, &other.samples) {
            return true;
        }
        let sort = |v: &[f64]| {
            let mut s = v.to_vec();
            s.sort_by(f64::total_cmp);
            s
        };
        sort(&self.samples) == sort(&other.samples)
    }
}

/// Nearest-rank index of quantile `q` in a sorted array of length `n`:
/// the one nearest-rank rule of the crate (latency digests, raw-sample
/// quantiles and the hedge delay all select through it).
pub(crate) fn rank0(q: f64, n: usize) -> usize {
    ((q * n as f64).ceil() as usize).clamp(1, n) - 1
}

/// Extract the values at the given strictly-increasing absolute ranks
/// from `buf` (a sub-slice whose elements would occupy sorted positions
/// `base..base + buf.len()`), appending `(rank, value)` pairs to `out`.
/// Recursion on select partitions makes the whole extraction expected
/// O(n log ranks) without ever fully sorting the buffer.
fn select_ranks(buf: &mut [f64], base: usize, ranks: &[usize], out: &mut Vec<(usize, f64)>) {
    if ranks.is_empty() || buf.is_empty() {
        return;
    }
    let mid = ranks.len() / 2;
    let rank = ranks[mid];
    let local = rank - base;
    let (_, &mut value, _) = buf.select_nth_unstable_by(local, |a, b| a.total_cmp(b));
    out.push((rank, value));
    let (left, rest) = buf.split_at_mut(local);
    select_ranks(left, base, &ranks[..mid], out);
    select_ranks(&mut rest[1..], rank + 1, &ranks[mid + 1..], out);
}

fn digest(samples: &mut [f64]) -> (f64, Vec<(usize, f64)>) {
    if samples.is_empty() {
        return (0.0, Vec::new());
    }
    let mean = samples.iter().sum::<f64>() / samples.len() as f64;
    let mut ranks: Vec<usize> = std::iter::once(0)
        .chain(GRID_QS.iter().map(|&q| rank0(q, samples.len())))
        .collect();
    ranks.sort_unstable();
    ranks.dedup();
    let mut grid = Vec::with_capacity(ranks.len());
    select_ranks(samples, 0, &ranks, &mut grid);
    grid.sort_unstable_by_key(|&(r, _)| r);
    (mean, grid)
}

/// The `q`-quantile (nearest-rank) of a raw sample slice, without
/// building a [`LatencyStats`] digest.
///
/// Non-finite samples are filtered exactly as [`LatencyStats::from_samples`]
/// filters them, the rank is the same nearest-rank formula, and the value
/// is selected with the same `total_cmp` comparator — so for any slice
/// with at least one finite sample this returns bit-identical results to
/// `LatencyStats::from_samples(slice.to_vec()).quantile(q)`. `scratch` is
/// a caller-owned reusable buffer (cleared and refilled here); the slice
/// itself is never touched, and steady-state callers allocate nothing.
///
/// `q` outside `[0, 1]` (including NaN) is clamped to the nearest valid
/// quantile rather than panicking — an out-of-range request from noisy
/// config arithmetic must degrade to min/max, not crash a run. An empty
/// (or all-non-finite) input returns `None`: "no finite samples" is a
/// distinct condition from a true zero quantile, and every caller
/// decides its own fallback explicitly.
#[must_use]
pub fn quantile_of(samples: &[f64], q: f64, scratch: &mut Vec<f64>) -> Option<f64> {
    scratch.clear();
    scratch.extend(samples.iter().copied().filter(|x| x.is_finite()));
    if scratch.is_empty() {
        return None;
    }
    let rank = rank0(clamp_q(q), scratch.len());
    let (_, &mut v, _) = scratch.select_nth_unstable_by(rank, |a, b| a.total_cmp(b));
    Some(v)
}

/// Clamp a requested quantile into `[0, 1]`; NaN maps to 1.0 (the
/// conservative "report the worst" end).
fn clamp_q(q: f64) -> f64 {
    if q.is_nan() {
        1.0
    } else {
        q.clamp(0.0, 1.0)
    }
}

impl LatencyStats {
    /// Summarize a set of latency samples (milliseconds). Order of the
    /// input does not matter; an empty input yields all-zero statistics.
    #[must_use]
    pub fn from_samples(mut samples: Vec<f64>) -> Self {
        samples.retain(|x| x.is_finite());
        let (mean_ms, grid) = digest(&mut samples);
        Self {
            samples: Arc::new(samples),
            mean_ms,
            grid,
        }
    }

    /// Summarize a shared sample buffer without taking ownership of it.
    ///
    /// `scratch` is a caller-owned reusable buffer (cleared and refilled
    /// here) on which the rank selection permutes; `shared` itself is
    /// never mutated, and when every sample is finite — always true for
    /// simulator-produced latencies — the result shares `shared` instead
    /// of copying it, so repeated report generation allocates nothing.
    #[must_use]
    pub fn from_shared(shared: &Arc<Vec<f64>>, scratch: &mut Vec<f64>) -> Self {
        scratch.clear();
        scratch.extend(shared.iter().copied().filter(|x| x.is_finite()));
        let (mean_ms, grid) = digest(scratch);
        let samples = if scratch.len() == shared.len() {
            Arc::clone(shared)
        } else {
            Arc::new(scratch.clone())
        };
        Self {
            samples,
            mean_ms,
            grid,
        }
    }

    /// Number of samples.
    #[must_use]
    pub fn len(&self) -> usize {
        self.samples.len()
    }

    /// Whether there are no samples.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.samples.is_empty()
    }

    /// The `q`-quantile latency (nearest-rank). `q` outside `\[0, 1\]`
    /// (including NaN) clamps to the nearest valid quantile instead of
    /// panicking, mirroring [`quantile_of`].
    ///
    /// An empty digest returns `0.0` for figure convenience; callers that
    /// must distinguish "no samples" from a true zero check
    /// [`is_empty`](Self::is_empty) (or use
    /// [`try_quantile`](Self::try_quantile), the `Option` form).
    ///
    /// Grid quantiles (all the ones the framework uses) are answered from
    /// the precomputed digest; anything else pays one selection over a
    /// private copy of the samples.
    #[must_use]
    pub fn quantile(&self, q: f64) -> f64 {
        self.try_quantile(q).unwrap_or(0.0)
    }

    /// [`quantile`](Self::quantile) that reports "no finite samples" as
    /// `None` instead of folding it into `0.0`.
    #[must_use]
    pub fn try_quantile(&self, q: f64) -> Option<f64> {
        let q = clamp_q(q);
        if self.samples.is_empty() {
            return None;
        }
        let rank = rank0(q, self.samples.len());
        Some(match self.grid.binary_search_by_key(&rank, |&(r, _)| r) {
            Ok(i) => self.grid[i].1,
            Err(_) => {
                let mut scratch = self.samples.as_ref().clone();
                *scratch.select_nth_unstable_by(rank, f64::total_cmp).1
            }
        })
    }

    /// Median latency.
    #[must_use]
    pub fn p50(&self) -> f64 {
        self.quantile(0.50)
    }

    /// 95th-percentile latency.
    #[must_use]
    pub fn p95(&self) -> f64 {
        self.quantile(0.95)
    }

    /// 99th-percentile ("tail") latency — the paper's QoS metric.
    #[must_use]
    pub fn p99(&self) -> f64 {
        self.quantile(0.99)
    }

    /// Mean latency.
    #[must_use]
    pub fn mean(&self) -> f64 {
        self.mean_ms
    }

    /// Maximum latency.
    #[must_use]
    pub fn max(&self) -> f64 {
        self.grid.last().map_or(0.0, |&(_, v)| v)
    }

    /// The raw latency samples, in no particular order. A multi-node
    /// front-end merges per-node segment samples through this accessor to
    /// compute *cluster-wide* percentiles — per-node p99s cannot be
    /// averaged into a fleet p99.
    #[must_use]
    pub fn samples(&self) -> &[f64] {
        &self.samples
    }

    /// Number of samples strictly above `bound_ms` — the exact exceedance
    /// count, with no float round-trip through
    /// [`violation_ratio`](Self::violation_ratio).
    #[must_use]
    pub fn violations_over(&self, bound_ms: f64) -> usize {
        self.samples.iter().filter(|&&x| x > bound_ms).count()
    }

    /// Fraction of samples strictly above `bound_ms`.
    #[must_use]
    pub fn violation_ratio(&self, bound_ms: f64) -> f64 {
        if self.samples.is_empty() {
            return 0.0;
        }
        self.violations_over(bound_ms) as f64 / self.samples.len() as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantiles_on_known_distribution() {
        let s = LatencyStats::from_samples((1..=100).map(f64::from).collect());
        assert_eq!(s.p50(), 50.0);
        assert_eq!(s.p95(), 95.0);
        assert_eq!(s.p99(), 99.0);
        assert_eq!(s.max(), 100.0);
        assert!((s.mean() - 50.5).abs() < 1e-9);
    }

    #[test]
    fn empty_is_all_zero() {
        let s = LatencyStats::from_samples(vec![]);
        assert!(s.is_empty());
        assert_eq!(s.p99(), 0.0);
        assert_eq!(s.violation_ratio(100.0), 0.0);
        // The Option form keeps "no samples" distinguishable from a
        // distribution whose p99 is truly zero.
        assert_eq!(s.try_quantile(0.99), None);
        let zero = LatencyStats::from_samples(vec![0.0]);
        assert_eq!(zero.try_quantile(0.99), Some(0.0));
    }

    #[test]
    fn single_sample() {
        let s = LatencyStats::from_samples(vec![42.0]);
        assert_eq!(s.p50(), 42.0);
        assert_eq!(s.p99(), 42.0);
    }

    #[test]
    fn violation_ratio_counts_strict_exceedance() {
        let s = LatencyStats::from_samples(vec![10.0, 20.0, 30.0, 40.0]);
        assert!((s.violation_ratio(25.0) - 0.5).abs() < 1e-12);
        assert_eq!(s.violation_ratio(40.0), 0.0);
        assert_eq!(s.violation_ratio(5.0), 1.0);
    }

    #[test]
    fn non_finite_samples_dropped() {
        let s = LatencyStats::from_samples(vec![1.0, f64::NAN, 2.0, f64::INFINITY]);
        assert_eq!(s.len(), 2);
        assert_eq!(s.max(), 2.0);
    }

    #[test]
    fn out_of_range_quantile_clamps() {
        let s = LatencyStats::from_samples(vec![1.0, 2.0, 3.0]);
        // Out-of-range requests degrade to the nearest valid quantile
        // instead of panicking mid-run.
        assert_eq!(s.quantile(1.5), s.quantile(1.0));
        assert_eq!(s.quantile(-0.2), s.quantile(0.0));
        // NaN maps to the conservative worst-case end.
        assert_eq!(s.quantile(f64::NAN), s.quantile(1.0));
        let mut scratch = Vec::new();
        assert_eq!(quantile_of(&[1.0, 2.0, 3.0], 7.0, &mut scratch), Some(3.0));
        assert_eq!(
            quantile_of(&[1.0, 2.0, 3.0], f64::NAN, &mut scratch),
            Some(3.0)
        );
        assert_eq!(quantile_of(&[1.0, 2.0, 3.0], -1.0, &mut scratch), Some(1.0));
    }

    #[test]
    fn no_finite_samples_is_none_not_zero() {
        let mut scratch = Vec::new();
        assert_eq!(quantile_of(&[], 0.5, &mut scratch), None);
        assert_eq!(
            quantile_of(
                &[f64::NAN, f64::INFINITY, f64::NEG_INFINITY],
                0.5,
                &mut scratch
            ),
            None
        );
        // A genuine zero sample still reports as Some(0.0).
        assert_eq!(quantile_of(&[0.0], 0.5, &mut scratch), Some(0.0));
    }

    /// The digest must agree with a full sort at every quantile the
    /// framework queries, on awkward sizes and unsorted inputs.
    #[test]
    fn digest_matches_full_sort_reference() {
        for n in [1usize, 2, 3, 7, 19, 100, 101, 997] {
            // Deterministic shuffle-ish input: decimated multiples.
            let samples: Vec<f64> = (0..n).map(|i| ((i * 7919) % n) as f64 * 0.5).collect();
            let mut sorted = samples.clone();
            sorted.sort_by(f64::total_cmp);
            let s = LatencyStats::from_samples(samples);
            for q in [
                0.0, 0.01, 0.05, 0.1, 0.25, 0.5, 0.6, 0.75, 0.9, 0.95, 0.99, 1.0,
            ] {
                let rank = ((q * n as f64).ceil() as usize).clamp(1, n) - 1;
                assert_eq!(s.quantile(q), sorted[rank], "n={n} q={q}");
            }
            assert_eq!(s.max(), *sorted.last().unwrap());
        }
    }

    #[test]
    fn off_grid_quantile_falls_back_to_selection() {
        let s = LatencyStats::from_samples((1..=1000).map(f64::from).collect());
        // Neither 0.333 nor 0.666 is on the digest grid; a repeat query
        // selects again and agrees, and the digest is left as it was.
        assert_eq!(s.quantile(0.333), 333.0);
        assert_eq!(s.quantile(0.333), 333.0);
        assert_eq!(s.quantile(0.666), 666.0);
        let c = s.clone();
        assert_eq!(c.quantile(0.666), 666.0);
        assert_eq!(
            c,
            LatencyStats::from_samples((1..=1000).map(f64::from).collect())
        );
    }

    #[test]
    fn violations_over_counts_exactly() {
        let s = LatencyStats::from_samples(vec![10.0, 20.0, 30.0, 40.0]);
        assert_eq!(s.violations_over(25.0), 2);
        assert_eq!(
            s.violations_over(40.0),
            0,
            "bound itself is not a violation"
        );
        assert_eq!(s.violations_over(5.0), 4);
        assert_eq!(LatencyStats::from_samples(vec![]).violations_over(1.0), 0);
        // The ratio is derived from the same count.
        assert!((s.violation_ratio(25.0) - 0.5).abs() < 1e-12);
    }

    #[test]
    fn from_shared_shares_finite_buffers_and_matches_from_samples() {
        let shared = Arc::new((1..=100).map(f64::from).rev().collect::<Vec<_>>());
        let mut scratch = Vec::new();
        let a = LatencyStats::from_shared(&shared, &mut scratch);
        assert!(Arc::ptr_eq(&a.samples, &shared), "finite input is shared");
        let b = LatencyStats::from_samples(shared.as_ref().clone());
        assert_eq!(a, b);
        assert_eq!(a.p99(), 99.0);
        // Non-finite entries force a filtered private copy.
        let dirty = Arc::new(vec![1.0, f64::NAN, 3.0]);
        let c = LatencyStats::from_shared(&dirty, &mut scratch);
        assert_eq!(c.len(), 2);
        assert_eq!(c.max(), 3.0);
    }

    #[test]
    fn samples_exposes_raw_buffer_for_merging() {
        let a = LatencyStats::from_samples(vec![10.0, 200.0]);
        let b = LatencyStats::from_samples(vec![30.0, 40.0]);
        let merged: Vec<f64> = a.samples().iter().chain(b.samples()).copied().collect();
        let m = LatencyStats::from_samples(merged);
        assert_eq!(m.len(), 4);
        assert_eq!(m.max(), 200.0);
        // The fleet p99 is dominated by the one slow node, which averaging
        // per-node p99s would hide.
        assert!(m.p99() > (a.p99() + b.p99()) / 2.0);
    }

    #[test]
    fn slice_helpers_match_digest_path() {
        let mut scratch = Vec::new();
        for n in [1usize, 2, 7, 100, 997] {
            let samples: Vec<f64> = (0..n).map(|i| ((i * 7919) % n) as f64 * 0.5).collect();
            let s = LatencyStats::from_samples(samples.clone());
            for q in [0.0, 0.5, 0.95, 0.99, 1.0] {
                assert_eq!(
                    quantile_of(&samples, q, &mut scratch).unwrap().to_bits(),
                    s.quantile(q).to_bits(),
                    "n={n} q={q}"
                );
            }
        }
        // Non-finite entries are filtered identically on both paths.
        let dirty = vec![1.0, f64::NAN, 3.0, f64::INFINITY, 2.0];
        let s = LatencyStats::from_samples(dirty.clone());
        assert_eq!(quantile_of(&dirty, 0.99, &mut scratch), Some(s.p99()));
        assert_eq!(quantile_of(&[], 0.5, &mut scratch), None);
    }

    /// Property sweep: on hundreds of seeded pseudo-random slices mixing
    /// finite values with NaN/±∞ in varying proportions, the slice
    /// helpers must agree bit-for-bit with the `LatencyStats` digest
    /// path at every quantile — including out-of-range and NaN `q` —
    /// and `None` must appear exactly when no finite sample exists.
    #[test]
    fn slice_helpers_property_sweep_mixed_inputs() {
        // Deterministic xorshift: the sweep replays exactly on failure.
        let mut state = 0x9E37_79B9_7F4A_7C15_u64;
        let mut next = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state
        };
        let mut scratch = Vec::new();
        for case in 0..300 {
            let n = (next() % 50) as usize; // 0..=49, empties included
            let dirt = next() % 4; // 0: clean .. 3: mostly non-finite
            let samples: Vec<f64> = (0..n)
                .map(|_| match next() % 4 {
                    d if d < dirt => match next() % 3 {
                        0 => f64::NAN,
                        1 => f64::INFINITY,
                        _ => f64::NEG_INFINITY,
                    },
                    _ => (next() % 10_000) as f64 * 0.1,
                })
                .collect();
            let finite = samples.iter().filter(|x| x.is_finite()).count();
            let stats = LatencyStats::from_samples(samples.clone());
            assert_eq!(stats.len(), finite, "case {case}: finite filter");
            for q in [-1.0, 0.0, 0.01, 0.37, 0.5, 0.99, 1.0, 1.5, f64::NAN] {
                let slice = quantile_of(&samples, q, &mut scratch);
                let digest = stats.try_quantile(q);
                assert_eq!(
                    slice.map(f64::to_bits),
                    digest.map(f64::to_bits),
                    "case {case} q={q}: slice vs digest"
                );
                assert_eq!(
                    slice.is_none(),
                    finite == 0,
                    "case {case} q={q}: None iff no finite"
                );
            }
        }
    }

    #[test]
    fn equality_is_order_insensitive() {
        let a = LatencyStats::from_samples(vec![3.0, 1.0, 2.0]);
        let b = LatencyStats::from_samples(vec![1.0, 2.0, 3.0]);
        assert_eq!(a, b);
        let c = LatencyStats::from_samples(vec![1.0, 2.0, 4.0]);
        assert_ne!(a, c);
    }
}
