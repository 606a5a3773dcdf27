//! Per-request lifecycle policy: deadlines, bounded retries with
//! exponential backoff, and hedged dispatch.
//!
//! PR 2's fault machinery retried killed work *immediately and forever*
//! and let doomed requests run to completion; a production front-end does
//! neither. [`LifecycleConfig`] makes each dispatch decision defensive:
//!
//! - **Deadlines** — every enqueued request gets an absolute deadline
//!   derived from the QoS bound ([`LifecycleConfig::deadline_factor`]).
//!   Work past its deadline (queued *or* in flight) is cancelled through
//!   the attempt-tagged completion machinery so dead requests stop
//!   burning device time and energy.
//! - **Bounded retries** — a fail-stop victim is re-dispatched after a
//!   deterministic exponential backoff with seeded jitter
//!   ([`BackoffPolicy`]); a stage killed more than
//!   [`BackoffPolicy::max_retries`] times fails the whole request
//!   instead of retrying forever.
//! - **Hedged dispatch** — when a stage takes longer than a rolling
//!   p9x of recent stage latencies ([`HedgeConfig`]), a second copy is
//!   fired on another device; first completion wins and the loser is
//!   cancelled (with its pre-booked busy energy refunded).
//!
//! The default configuration disables all three, reproducing the PR 2
//! behavior bit-for-bit — every committed reference CSV is generated
//! under the default.

use crate::metrics::rank0;
use crate::SimError;
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;

/// Per-request lifecycle policy of one leaf node.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct LifecycleConfig {
    /// Deadline as a multiple of the QoS latency bound: a request
    /// enqueued at `t` is abandoned at `t + factor × bound` if still
    /// incomplete. `None` disables deadline cancellation (legacy
    /// behavior). Factors slightly above 1 make the deadline a hard
    /// super-SLO cutoff: completions between the bound and the deadline
    /// still count as QoS violations, but hopeless work is cut loose.
    pub deadline_factor: Option<f64>,
    /// What happens to work killed by a device fail-stop.
    pub retry: RetryPolicy,
    /// Hedged dispatch; `None` disables hedging (legacy behavior).
    pub hedge: Option<HedgeConfig>,
}

impl LifecycleConfig {
    /// Check every knob for a value the engine cannot run: a NaN
    /// deadline factor would silently disable deadlines and a negative
    /// one would schedule each deadline before its arrival, a non-finite
    /// jitter fraction panics in the first retry's jitter draw, and a
    /// hedge quantile outside `[0, 1]` panics in the first hedge delay.
    ///
    /// # Errors
    /// The first offence, as [`SimError::Lifecycle`] naming the knob,
    /// its value and its range.
    pub fn validate(&self) -> Result<(), SimError> {
        if let Some(f) = self.deadline_factor {
            in_range(
                "deadline_factor",
                f,
                f.is_finite() && f > 0.0,
                "finite and > 0",
            )?;
        }
        if let RetryPolicy::Backoff(b) = self.retry {
            non_negative("backoff.base_ms", b.base_ms)?;
            non_negative("backoff.cap_ms", b.cap_ms)?;
            non_negative("backoff.jitter_frac", b.jitter_frac)?;
        }
        if let Some(h) = self.hedge {
            let q = h.quantile;
            in_range("hedge.quantile", q, (0.0..=1.0).contains(&q), "in [0, 1]")?;
            non_negative("hedge.min_delay_ms", h.min_delay_ms)?;
        }
        Ok(())
    }
}

/// `Ok` when `ok`, else the error naming the knob, its value and `bound`.
fn in_range(
    field: &'static str,
    value: f64,
    ok: bool,
    bound: &'static str,
) -> Result<(), SimError> {
    if ok {
        Ok(())
    } else {
        Err(SimError::Lifecycle {
            field,
            value,
            bound,
        })
    }
}

/// `Ok` when `value` is finite and not negative.
fn non_negative(field: &'static str, value: f64) -> Result<(), SimError> {
    in_range(
        field,
        value,
        value.is_finite() && value >= 0.0,
        "finite and >= 0",
    )
}

/// Retry policy for work killed or orphaned by a device fail-stop.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub enum RetryPolicy {
    /// PR 2 behavior: re-dispatch immediately, without bound.
    #[default]
    Immediate,
    /// Bounded retries with deterministic exponential backoff and
    /// seeded jitter.
    Backoff(BackoffPolicy),
}

/// Deterministic exponential backoff with seeded jitter.
///
/// The `n`-th retry of a kernel stage waits
/// `min(base · 2^(n−1), cap) · (1 + jitter)` where `jitter` is drawn
/// uniformly from `[0, jitter_frac)` by a ChaCha8 stream seeded from
/// `(seed, request, kernel, n)` — order-independent, so replays are
/// bit-identical regardless of event interleaving or worker threads.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BackoffPolicy {
    /// Retries allowed per kernel stage before the whole request is
    /// failed (counted across that stage's fail-stop kills).
    pub max_retries: u32,
    /// Backoff before the first retry, in milliseconds.
    pub base_ms: f64,
    /// Upper bound on the exponential term, in milliseconds.
    pub cap_ms: f64,
    /// Jitter fraction: each delay is stretched by up to this fraction.
    pub jitter_frac: f64,
    /// Seed of the jitter stream.
    pub seed: u64,
}

impl Default for BackoffPolicy {
    fn default() -> Self {
        Self {
            max_retries: 3,
            base_ms: 5.0,
            cap_ms: 80.0,
            jitter_frac: 0.25,
            seed: 0xB0FF,
        }
    }
}

impl BackoffPolicy {
    /// Delay before retry number `retry` (1-based) of the stage
    /// identified by `key`, in milliseconds.
    #[must_use]
    pub fn delay_ms(&self, retry: u32, key: u64) -> f64 {
        let exp = retry.saturating_sub(1).min(20);
        let nominal = (self.base_ms * f64::from(1u32 << exp)).min(self.cap_ms.max(0.0));
        if self.jitter_frac <= 0.0 || nominal <= 0.0 {
            return nominal.max(0.0);
        }
        let mut rng = ChaCha8Rng::seed_from_u64(mix(self.seed, key, u64::from(retry)));
        nominal * (1.0 + rng.gen_range(0.0..self.jitter_frac))
    }
}

/// Hedged-dispatch policy: duplicate a stage on another device when its
/// first copy has been outstanding longer than a rolling latency
/// quantile of recent executions of the same kernel.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct HedgeConfig {
    /// Quantile of the rolling stage-latency window used as the hedge
    /// delay (e.g. 0.95 hedges the slowest ~5% of stages).
    pub quantile: f64,
    /// Floor on the hedge delay, in milliseconds — never hedge faster
    /// than this even when the window says so.
    pub min_delay_ms: f64,
    /// Rolling window size (recent stage latencies per kernel).
    pub window: usize,
    /// Minimum window fill before hedging activates; cold kernels are
    /// never hedged.
    pub min_samples: usize,
}

impl Default for HedgeConfig {
    fn default() -> Self {
        Self {
            quantile: 0.95,
            min_delay_ms: 5.0,
            window: 64,
            min_samples: 16,
        }
    }
}

/// Nearest-rank quantile of a latency window — the pure core of the
/// hedge-delay selection, exposed for direct testing. Returns 0 for an
/// empty window.
///
/// # Panics
/// Panics if `q` is outside `[0, 1]`.
#[must_use]
pub fn hedge_delay_from(samples: &[f64], q: f64) -> f64 {
    assert!((0.0..=1.0).contains(&q), "quantile must be in [0, 1]");
    if samples.is_empty() {
        return 0.0;
    }
    let mut sorted: Vec<f64> = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    sorted[rank0(q, sorted.len())]
}

/// Combine a seed with stream identifiers into an independent RNG seed
/// (splitmix64-style finalization, order-sensitive in its inputs).
#[must_use]
pub(crate) fn mix(seed: u64, a: u64, b: u64) -> u64 {
    let mut z = seed
        .wrapping_add(a.wrapping_mul(0x9E37_79B9_7F4A_7C15))
        .wrapping_add(b.wrapping_mul(0xD134_2543_DE82_EF95));
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_lifecycle_is_legacy() {
        let c = LifecycleConfig::default();
        assert_eq!(c.deadline_factor, None);
        assert_eq!(c.retry, RetryPolicy::Immediate);
        assert_eq!(c.hedge, None);
    }

    #[test]
    fn backoff_doubles_and_caps() {
        let p = BackoffPolicy {
            jitter_frac: 0.0,
            ..BackoffPolicy::default()
        };
        assert_eq!(p.delay_ms(1, 7), 5.0);
        assert_eq!(p.delay_ms(2, 7), 10.0);
        assert_eq!(p.delay_ms(3, 7), 20.0);
        assert_eq!(p.delay_ms(5, 7), 80.0, "capped at cap_ms");
        assert_eq!(p.delay_ms(30, 7), 80.0, "huge retry counts saturate");
    }

    #[test]
    fn backoff_jitter_is_deterministic_and_bounded() {
        let p = BackoffPolicy::default();
        let d1 = p.delay_ms(2, 42);
        let d2 = p.delay_ms(2, 42);
        assert_eq!(d1, d2, "same (seed, key, retry) gives the same delay");
        assert!((10.0..10.0 * 1.25).contains(&d1), "{d1}");
        // Different keys draw different jitter (with overwhelming
        // probability for this fixed seed — asserted concretely here).
        let d3 = p.delay_ms(2, 43);
        assert_ne!(d1, d3);
        // A different base seed moves the whole stream.
        let q = BackoffPolicy {
            seed: 1,
            ..BackoffPolicy::default()
        };
        assert_ne!(d1, q.delay_ms(2, 42));
    }

    #[test]
    fn hedge_delay_is_nearest_rank_quantile() {
        let w: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(hedge_delay_from(&w, 0.95), 95.0);
        assert_eq!(hedge_delay_from(&w, 0.99), 99.0);
        assert_eq!(hedge_delay_from(&w, 1.0), 100.0);
        assert_eq!(hedge_delay_from(&w, 0.0), 1.0);
        assert_eq!(hedge_delay_from(&[], 0.95), 0.0, "empty window is 0");
        // Order-insensitive.
        let mut rev = w.clone();
        rev.reverse();
        assert_eq!(hedge_delay_from(&rev, 0.95), 95.0);
    }

    #[test]
    #[should_panic(expected = "quantile")]
    fn hedge_delay_rejects_bad_quantile() {
        let _ = hedge_delay_from(&[1.0], 1.5);
    }

    /// The one knob `field` of a config set to `value` is rejected by
    /// name, with its value.
    fn rejects(config: &LifecycleConfig, field: &str, value: f64) {
        match config.validate() {
            Err(SimError::Lifecycle {
                field: f, value: v, ..
            }) => {
                assert_eq!(f, field);
                assert_eq!(v.to_bits(), value.to_bits(), "{f} reports its value");
            }
            other => panic!("{field} = {value}: expected a lifecycle error, got {other:?}"),
        }
    }

    fn backoff(b: BackoffPolicy) -> LifecycleConfig {
        LifecycleConfig {
            retry: RetryPolicy::Backoff(b),
            ..LifecycleConfig::default()
        }
    }

    fn hedge(h: HedgeConfig) -> LifecycleConfig {
        LifecycleConfig {
            hedge: Some(h),
            ..LifecycleConfig::default()
        }
    }

    #[test]
    fn validate_accepts_defaults_and_enabled_mechanisms() {
        assert_eq!(LifecycleConfig::default().validate(), Ok(()));
        let all_on = LifecycleConfig {
            deadline_factor: Some(2.0),
            retry: RetryPolicy::Backoff(BackoffPolicy::default()),
            hedge: Some(HedgeConfig::default()),
        };
        assert_eq!(all_on.validate(), Ok(()));
        assert_eq!(
            backoff(BackoffPolicy {
                jitter_frac: 0.0,
                ..BackoffPolicy::default()
            })
            .validate(),
            Ok(())
        );
        assert_eq!(
            hedge(HedgeConfig {
                quantile: 1.0,
                min_delay_ms: 0.0,
                ..HedgeConfig::default()
            })
            .validate(),
            Ok(())
        );
    }

    #[test]
    fn validate_rejects_bad_deadline_factor() {
        for f in [f64::NAN, f64::INFINITY, -0.5, 0.0] {
            let c = LifecycleConfig {
                deadline_factor: Some(f),
                ..LifecycleConfig::default()
            };
            rejects(&c, "deadline_factor", f);
        }
    }

    #[test]
    fn validate_rejects_bad_backoff_base() {
        for v in [f64::NAN, f64::NEG_INFINITY, -1.0] {
            let c = backoff(BackoffPolicy {
                base_ms: v,
                ..BackoffPolicy::default()
            });
            rejects(&c, "backoff.base_ms", v);
        }
    }

    #[test]
    fn validate_rejects_bad_backoff_cap() {
        for v in [f64::NAN, f64::INFINITY, -1.0] {
            let c = backoff(BackoffPolicy {
                cap_ms: v,
                ..BackoffPolicy::default()
            });
            rejects(&c, "backoff.cap_ms", v);
        }
    }

    #[test]
    fn validate_rejects_bad_backoff_jitter() {
        for v in [f64::NAN, f64::INFINITY, -0.25] {
            let c = backoff(BackoffPolicy {
                jitter_frac: v,
                ..BackoffPolicy::default()
            });
            rejects(&c, "backoff.jitter_frac", v);
        }
    }

    #[test]
    fn validate_rejects_bad_hedge_quantile() {
        for q in [f64::NAN, -0.01, 1.5] {
            let c = hedge(HedgeConfig {
                quantile: q,
                ..HedgeConfig::default()
            });
            rejects(&c, "hedge.quantile", q);
        }
    }

    #[test]
    fn validate_rejects_bad_hedge_min_delay() {
        for v in [f64::NAN, f64::INFINITY, -2.0] {
            let c = hedge(HedgeConfig {
                min_delay_ms: v,
                ..HedgeConfig::default()
            });
            rejects(&c, "hedge.min_delay_ms", v);
        }
    }

    #[test]
    fn mix_separates_streams() {
        assert_ne!(mix(0, 1, 2), mix(0, 2, 1));
        assert_ne!(mix(0, 1, 2), mix(1, 1, 2));
        assert_ne!(mix(7, 0, 0), mix(8, 0, 0));
    }
}
