//! Elastic fleet sizing off the governor's smoothed load estimate.
//!
//! The autoscaler decides, once per interval boundary, whether the
//! active fleet should grow or shrink. It is deliberately simple and
//! deterministic — thresholds on load per active node, a cooldown so
//! scale decisions don't flap, and index-ordered node selection — so a
//! cluster replay stays byte-identical for every worker-thread count.
//!
//! Scaling *up* activates the lowest-index inactive node, which then
//! warms up for a configured time advertising zero capacity (the
//! governor pins it at the floor, the router does not route to it).
//! Scaling *down* drains the highest-index active node through the same
//! cancel-and-redistribute path a node death uses, except the hardware
//! stays healthy and can be re-activated later. Nodes pending a spot
//! revocation are never chosen for either direction.

use crate::ClusterError;

/// Autoscaler knobs.
#[derive(Debug, Clone)]
pub struct AutoscaleConfig {
    /// Never drain below this many active nodes.
    pub min_nodes: usize,
    /// Load level one node handles comfortably, in RPS — the reference
    /// the thresholds below are fractions of.
    pub target_rps_per_node: f64,
    /// Scale up when smoothed load per active node exceeds this fraction
    /// of the target (default 0.80).
    pub up_frac: f64,
    /// Scale down when the load the *remaining* nodes would carry stays
    /// under this fraction of the target (default 0.50).
    pub down_frac: f64,
    /// Warm-up time a newly activated node needs before it serves, ms.
    pub warmup_ms: f64,
    /// Interval boundaries to wait between scale decisions.
    pub cooldown_intervals: usize,
}

impl Default for AutoscaleConfig {
    fn default() -> Self {
        Self {
            min_nodes: 1,
            target_rps_per_node: 60.0,
            up_frac: 0.80,
            down_frac: 0.50,
            warmup_ms: 30_000.0,
            cooldown_intervals: 3,
        }
    }
}

impl AutoscaleConfig {
    /// Check the knobs for values that cannot scale: the target and both
    /// fractions must be finite and > 0, the warm-up finite and >= 0 (a
    /// NaN warm-up would leave a node warming forever).
    ///
    /// # Errors
    /// [`ClusterError::Autoscale`] naming the first knob out of range.
    pub fn validate(&self) -> Result<(), ClusterError> {
        let err = |field, value, bound| {
            Err(ClusterError::Autoscale {
                field,
                value,
                bound,
            })
        };
        for (field, value) in [
            ("target_rps_per_node", self.target_rps_per_node),
            ("up_frac", self.up_frac),
            ("down_frac", self.down_frac),
        ] {
            if !(value.is_finite() && value > 0.0) {
                return err(field, value, "finite and > 0");
            }
        }
        if !(self.warmup_ms.is_finite() && self.warmup_ms >= 0.0) {
            return err("warmup_ms", self.warmup_ms, "finite and >= 0");
        }
        Ok(())
    }
}

/// What the autoscaler wants done at this boundary.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ScaleAction {
    /// Fleet size is fine (or a cooldown is pending).
    Hold,
    /// Activate node `.0` (it starts warming up).
    Up(usize),
    /// Drain node `.0` out of service.
    Down(usize),
}

/// Deterministic threshold autoscaler (see the module docs).
#[derive(Debug, Clone)]
pub struct Autoscaler {
    config: AutoscaleConfig,
    cooldown: usize,
}

impl Autoscaler {
    /// Autoscaler with `config`.
    #[must_use]
    pub fn new(config: AutoscaleConfig) -> Self {
        Self {
            config,
            cooldown: 0,
        }
    }

    /// The configuration.
    #[must_use]
    pub fn config(&self) -> &AutoscaleConfig {
        &self.config
    }

    /// Decide one boundary. `load_rps` is the fleet-wide smoothed load;
    /// `eligible[i]` says node `i` is serving (active, not warming);
    /// `blocked[i]` says node `i` must not be touched in either
    /// direction (down, warming, or pending a revocation — warming nodes
    /// count toward capacity that is *coming*, so they also suppress
    /// further scale-ups).
    pub fn decide(&mut self, load_rps: f64, eligible: &[bool], blocked: &[bool]) -> ScaleAction {
        let n = eligible.len();
        assert_eq!(blocked.len(), n, "one blocked flag per node");
        if self.cooldown > 0 {
            self.cooldown -= 1;
            return ScaleAction::Hold;
        }
        let serving = eligible.iter().filter(|&&e| e).count();
        if serving == 0 {
            return ScaleAction::Hold;
        }
        let per_node = load_rps / serving as f64;
        if per_node > self.config.up_frac * self.config.target_rps_per_node {
            // Lowest-index node that is neither serving nor blocked.
            if let Some(j) = (0..n).find(|&j| !eligible[j] && !blocked[j]) {
                self.cooldown = self.config.cooldown_intervals;
                return ScaleAction::Up(j);
            }
            return ScaleAction::Hold;
        }
        if serving > self.config.min_nodes {
            let per_remaining = load_rps / (serving - 1) as f64;
            if per_remaining < self.config.down_frac * self.config.target_rps_per_node {
                // Highest-index serving node that is not blocked.
                if let Some(j) = (0..n).rev().find(|&j| eligible[j] && !blocked[j]) {
                    self.cooldown = self.config.cooldown_intervals;
                    return ScaleAction::Down(j);
                }
            }
        }
        ScaleAction::Hold
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn scaler(min: usize, target: f64, cooldown: usize) -> Autoscaler {
        Autoscaler::new(AutoscaleConfig {
            min_nodes: min,
            target_rps_per_node: target,
            cooldown_intervals: cooldown,
            ..AutoscaleConfig::default()
        })
    }

    #[test]
    fn scales_up_under_pressure_lowest_index_first() {
        let mut a = scaler(1, 100.0, 0);
        // 2 serving nodes at 90 rps each > 0.8 × 100 → grow.
        let action = a.decide(
            180.0,
            &[true, true, false, false],
            &[false, false, false, false],
        );
        assert_eq!(action, ScaleAction::Up(2));
        // Blocked (e.g. revoking) nodes are skipped.
        let action = a.decide(
            180.0,
            &[true, true, false, false],
            &[false, false, true, false],
        );
        assert_eq!(action, ScaleAction::Up(3));
        // Nothing left to activate → hold.
        let action = a.decide(180.0, &[true, true], &[false, false]);
        assert_eq!(action, ScaleAction::Hold);
    }

    #[test]
    fn scales_down_when_remaining_nodes_cope() {
        let mut a = scaler(1, 100.0, 0);
        // 3 serving at 20 rps total: 2 remaining would carry 10 each,
        // well under 0.5 × 100 → drain the highest index.
        let action = a.decide(20.0, &[true, true, true], &[false; 3]);
        assert_eq!(action, ScaleAction::Down(2));
        // min_nodes is a hard floor.
        let mut a = scaler(3, 100.0, 0);
        let action = a.decide(20.0, &[true, true, true], &[false; 3]);
        assert_eq!(action, ScaleAction::Hold);
    }

    #[test]
    fn cooldown_suppresses_flapping() {
        let mut a = scaler(1, 100.0, 2);
        let up = a.decide(500.0, &[true, false], &[false, false]);
        assert_eq!(up, ScaleAction::Up(1));
        // Two boundaries of cooldown, then decisions resume.
        assert_eq!(
            a.decide(500.0, &[true, false], &[false; 2]),
            ScaleAction::Hold
        );
        assert_eq!(
            a.decide(500.0, &[true, false], &[false; 2]),
            ScaleAction::Hold
        );
        assert_eq!(
            a.decide(500.0, &[true, false], &[false; 2]),
            ScaleAction::Up(1)
        );
    }

    /// `field` set to each of `bad` fails validation by name; the
    /// default config passes.
    fn rejects(field: &str, bad: &[f64], set: fn(&mut AutoscaleConfig, f64)) {
        assert_eq!(AutoscaleConfig::default().validate(), Ok(()));
        for &value in bad {
            let mut config = AutoscaleConfig::default();
            set(&mut config, value);
            assert!(
                matches!(config.validate(), Err(ClusterError::Autoscale { field: f, .. }) if f == field),
                "{field} = {value}"
            );
        }
    }

    const NOT_POSITIVE: [f64; 4] = [0.0, -1.0, f64::NAN, f64::INFINITY];

    #[test]
    fn target_rps_per_node_must_be_positive() {
        rejects("target_rps_per_node", &NOT_POSITIVE, |c, v| {
            c.target_rps_per_node = v;
        });
    }

    #[test]
    fn up_frac_must_be_positive() {
        rejects("up_frac", &NOT_POSITIVE, |c, v| c.up_frac = v);
    }

    #[test]
    fn down_frac_must_be_positive() {
        rejects("down_frac", &NOT_POSITIVE, |c, v| c.down_frac = v);
    }

    #[test]
    fn warmup_ms_must_be_finite_and_non_negative() {
        rejects("warmup_ms", &[-1.0, f64::NAN, f64::INFINITY], |c, v| {
            c.warmup_ms = v;
        });
        let instant = AutoscaleConfig {
            warmup_ms: 0.0,
            ..AutoscaleConfig::default()
        };
        assert_eq!(instant.validate(), Ok(()));
    }

    #[test]
    fn holds_in_the_comfortable_band() {
        let mut a = scaler(1, 100.0, 0);
        // 60 rps per node: above down (50 for 1 remaining would be 120 —
        // no), below up (80) → hold.
        assert_eq!(
            a.decide(120.0, &[true, true], &[false; 2]),
            ScaleAction::Hold
        );
    }
}
