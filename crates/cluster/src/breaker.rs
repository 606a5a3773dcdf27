//! Per-node circuit breakers for the front-end router.
//!
//! A node that keeps violating the QoS bound (or is outright down) should
//! stop receiving traffic *before* its queue becomes a latency bomb — the
//! router's capacity snapshot alone reacts one interval late. Each node
//! gets a three-state breaker, observed once per interval from that
//! node's completion/violation counts:
//!
//! ```text
//!         violation rate > threshold            open_intervals elapsed
//! Closed ───────────────────────────▶ Open ───────────────────────────▶ HalfOpen
//!    ▲                                 ▲                                   │
//!    │           probe interval healthy│  probe interval still violating   │
//!    └─────────────────────────────────┴───────────────────────────────────┘
//! ```
//!
//! While **open**, the breaker admits nothing. While **half-open**, it
//! admits a small probe quota per interval; a healthy probe interval
//! closes the breaker, a violating one re-opens it for another full
//! `open_intervals` penalty. Transitions are driven purely by observed
//! per-interval counts, so replays stay deterministic.

use crate::ClusterError;

/// Thresholds and timing of one node's circuit breaker.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BreakerConfig {
    /// Violation-rate threshold that trips (and re-trips) the breaker:
    /// an interval with `violations / completed` strictly above this
    /// opens it.
    pub violation_threshold: f64,
    /// Minimum completions in the interval before the rate is considered
    /// meaningful — starved intervals neither trip nor close a breaker.
    pub min_completed: usize,
    /// Intervals the breaker stays fully open before probing.
    pub open_intervals: u32,
    /// Requests the router may send a half-open node per interval. Must
    /// exceed `min_completed`, or a probe interval can never complete
    /// enough work to count as meaningful and the breaker never closes.
    pub probe_quota: usize,
}

impl Default for BreakerConfig {
    fn default() -> Self {
        Self {
            violation_threshold: 0.5,
            min_completed: 10,
            open_intervals: 2,
            probe_quota: 32,
        }
    }
}

impl BreakerConfig {
    /// Check the knobs a breaker needs to trip and close again:
    /// `violation_threshold` finite and in [0, 1], and `probe_quota`
    /// above `min_completed`.
    ///
    /// # Errors
    /// [`ClusterError::Breaker`] naming the first knob out of range.
    pub fn validate(&self) -> Result<(), ClusterError> {
        let err = |field, value, bound| {
            Err(ClusterError::Breaker {
                field,
                value,
                bound,
            })
        };
        let threshold = self.violation_threshold;
        if !(0.0..=1.0).contains(&threshold) {
            return err("violation_threshold", threshold, "finite and in [0, 1]");
        }
        if self.probe_quota <= self.min_completed {
            return err("probe_quota", self.probe_quota as f64, "> min_completed");
        }
        Ok(())
    }
}

/// Breaker position; see the module docs for the transition diagram.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BreakerState {
    /// Healthy: traffic flows normally.
    Closed,
    /// Tripped: no traffic for `remaining` more intervals.
    Open {
        /// Intervals left before the breaker moves to half-open.
        remaining: u32,
    },
    /// Probing: a bounded quota of traffic tests recovery.
    HalfOpen,
}

impl BreakerState {
    /// Stable telemetry label: "closed", "open" or "half-open".
    #[must_use]
    pub fn label(self) -> &'static str {
        match self {
            BreakerState::Closed => "closed",
            BreakerState::Open { .. } => "open",
            BreakerState::HalfOpen => "half-open",
        }
    }
}

/// One node's circuit breaker.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CircuitBreaker {
    config: BreakerConfig,
    state: BreakerState,
}

impl CircuitBreaker {
    /// A closed breaker with the given thresholds.
    #[must_use]
    pub fn new(config: BreakerConfig) -> Self {
        Self {
            config,
            state: BreakerState::Closed,
        }
    }

    /// Current position.
    #[must_use]
    pub fn state(&self) -> BreakerState {
        self.state
    }

    /// How many requests the router may assign this node in the coming
    /// interval given `assigned` already routed to it: unlimited when
    /// closed, the probe quota when half-open, none when open.
    #[must_use]
    pub fn admits(&self, assigned: usize) -> bool {
        match self.state {
            BreakerState::Closed => true,
            BreakerState::Open { .. } => false,
            BreakerState::HalfOpen => assigned < self.config.probe_quota,
        }
    }

    /// Feed one interval's observed counts. `up` is the node's health at
    /// the interval boundary; a down node opens the breaker immediately
    /// (the router already excludes it, but the breaker then forces the
    /// half-open probe ramp on recovery instead of full traffic).
    pub fn observe(&mut self, completed: usize, violations: usize, up: bool) {
        if !up {
            self.state = BreakerState::Open {
                remaining: self.config.open_intervals,
            };
            return;
        }
        let meaningful = completed >= self.config.min_completed;
        let rate = if completed > 0 {
            violations as f64 / completed as f64
        } else {
            0.0
        };
        let violating = meaningful && rate > self.config.violation_threshold;
        self.state = match self.state {
            BreakerState::Closed => {
                if violating {
                    BreakerState::Open {
                        remaining: self.config.open_intervals,
                    }
                } else {
                    BreakerState::Closed
                }
            }
            BreakerState::Open { remaining } => {
                if remaining > 1 {
                    BreakerState::Open {
                        remaining: remaining - 1,
                    }
                } else {
                    BreakerState::HalfOpen
                }
            }
            BreakerState::HalfOpen => {
                if violating {
                    // Failed probe: full penalty again.
                    BreakerState::Open {
                        remaining: self.config.open_intervals,
                    }
                } else if meaningful {
                    BreakerState::Closed
                } else {
                    // Starved probe (nothing completed): keep probing.
                    BreakerState::HalfOpen
                }
            }
        };
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn breaker() -> CircuitBreaker {
        CircuitBreaker::new(BreakerConfig::default())
    }

    #[test]
    fn closed_until_violation_rate_trips() {
        let mut b = breaker();
        assert!(b.admits(10_000), "closed admits unboundedly");
        b.observe(100, 40, true); // 40% ≤ 50% threshold
        assert_eq!(b.state(), BreakerState::Closed);
        b.observe(100, 60, true); // 60% > 50%
        assert_eq!(b.state(), BreakerState::Open { remaining: 2 });
        assert!(!b.admits(0), "open admits nothing");
    }

    #[test]
    fn starved_interval_never_trips() {
        let mut b = breaker();
        // 5 completions, all violating — below min_completed, so no trip.
        b.observe(5, 5, true);
        assert_eq!(b.state(), BreakerState::Closed);
    }

    #[test]
    fn open_counts_down_to_half_open_probe() {
        let mut b = breaker();
        b.observe(100, 100, true);
        assert_eq!(b.state(), BreakerState::Open { remaining: 2 });
        b.observe(0, 0, true);
        assert_eq!(b.state(), BreakerState::Open { remaining: 1 });
        b.observe(0, 0, true);
        assert_eq!(b.state(), BreakerState::HalfOpen);
        assert!(b.admits(0), "half-open admits the probe");
        assert!(b.admits(31), "probe quota is 32");
        assert!(!b.admits(32), "quota exhausted");
    }

    #[test]
    fn healthy_probe_closes_failed_probe_reopens() {
        let mut b = breaker();
        b.observe(100, 100, true);
        b.observe(0, 0, true);
        b.observe(0, 0, true);
        assert_eq!(b.state(), BreakerState::HalfOpen);
        // Probe interval comes back violating: full penalty again.
        b.observe(20, 20, true);
        assert_eq!(b.state(), BreakerState::Open { remaining: 2 });
        b.observe(0, 0, true);
        b.observe(0, 0, true);
        assert_eq!(b.state(), BreakerState::HalfOpen);
        // Starved probe keeps probing; healthy probe closes.
        b.observe(0, 0, true);
        assert_eq!(b.state(), BreakerState::HalfOpen);
        b.observe(50, 1, true);
        assert_eq!(b.state(), BreakerState::Closed);
    }

    #[test]
    fn violation_threshold_outside_the_unit_interval_is_rejected() {
        for bad in [-0.1, 1.5, f64::NAN, f64::INFINITY] {
            let config = BreakerConfig {
                violation_threshold: bad,
                ..BreakerConfig::default()
            };
            assert!(
                matches!(
                    config.validate(),
                    Err(ClusterError::Breaker {
                        field: "violation_threshold",
                        ..
                    })
                ),
                "{bad}"
            );
        }
        for ok in [0.0, 1.0] {
            let config = BreakerConfig {
                violation_threshold: ok,
                ..BreakerConfig::default()
            };
            assert_eq!(config.validate(), Ok(()), "{ok}");
        }
    }

    #[test]
    fn probe_quota_must_exceed_min_completed() {
        for quota in [0, 9, 10] {
            let config = BreakerConfig {
                min_completed: 10,
                probe_quota: quota,
                ..BreakerConfig::default()
            };
            assert_eq!(
                config.validate(),
                Err(ClusterError::Breaker {
                    field: "probe_quota",
                    value: quota as f64,
                    bound: "> min_completed",
                })
            );
        }
        assert_eq!(BreakerConfig::default().validate(), Ok(()));
    }

    #[test]
    fn down_node_opens_immediately() {
        let mut b = breaker();
        b.observe(100, 0, false);
        assert_eq!(b.state(), BreakerState::Open { remaining: 2 });
        // Recovery goes through the probe ramp, not straight to closed.
        b.observe(0, 0, true);
        b.observe(0, 0, true);
        assert_eq!(b.state(), BreakerState::HalfOpen);
    }
}
