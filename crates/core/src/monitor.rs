//! The system monitor (the "Monitor" box of Fig. 2): per-interval
//! observations of load, latency, and backlog, with a smoothed load
//! estimate for the optimizer.

/// One re-planning interval's observations.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct IntervalObs {
    /// Interval length in milliseconds.
    pub duration_ms: f64,
    /// Requests that arrived during the interval.
    pub arrived: usize,
    /// Requests that completed during the interval.
    pub completed: usize,
    /// Measured p99 latency (0 when nothing completed).
    pub p99_ms: f64,
    /// Work items queued at interval end (burst signal).
    pub queued: usize,
}

impl IntervalObs {
    /// Offered load of the interval in RPS.
    #[must_use]
    pub fn arrival_rps(&self) -> f64 {
        if self.duration_ms <= 0.0 {
            0.0
        } else {
            self.arrived as f64 * 1000.0 / self.duration_ms
        }
    }
}

/// Load monitor with exponentially weighted smoothing and a backlog
/// signal from the last interval.
///
/// The queue-length signal makes the estimate react to bursts
/// *immediately* rather than one interval late: "a sudden change in load
/// makes Heter-Poly immediately shift to higher performance mode"
/// (Section VI-C).
#[derive(Debug, Clone, Default)]
pub struct SystemMonitor {
    /// EWMA of the offered load; `None` until the first observation, so
    /// the estimate is *seeded* from what is actually measured instead of
    /// cold-starting biased toward zero (which would make the first
    /// re-plan under-provision).
    smoothed_rps: Option<f64>,
    /// The last interval's end-of-interval queue as a rate: work that
    /// must be served *now* (0 before the first observation).
    backlog_rps: f64,
}

impl SystemMonitor {
    /// Monitor that has observed nothing yet.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Record one interval.
    pub fn observe(&mut self, obs: IntervalObs) {
        self.smoothed_rps = Some(match self.smoothed_rps {
            None => obs.arrival_rps(),
            Some(prev) => 0.5 * prev + 0.5 * obs.arrival_rps(),
        });
        self.backlog_rps = obs.queued as f64 * 1000.0 / obs.duration_ms.max(1.0);
    }

    /// Smoothed load estimate in RPS, inflated by the backlog: queued work
    /// is load that must be served *now*.
    #[must_use]
    pub fn load_estimate_rps(&self) -> f64 {
        self.smoothed_rps.unwrap_or(0.0) + self.backlog_rps
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn obs(arrived: usize, queued: usize) -> IntervalObs {
        IntervalObs {
            duration_ms: 1000.0,
            arrived,
            completed: arrived,
            p99_ms: 100.0,
            queued,
        }
    }

    #[test]
    fn smoothing_tracks_load_changes() {
        let mut m = SystemMonitor::new();
        m.observe(obs(10, 0));
        assert!((m.load_estimate_rps() - 10.0).abs() < 1e-9);
        m.observe(obs(30, 0));
        let est = m.load_estimate_rps();
        assert!(est > 10.0 && est < 30.0);
    }

    #[test]
    fn backlog_boosts_estimate_immediately() {
        let mut m = SystemMonitor::new();
        m.observe(obs(10, 0));
        let calm = m.load_estimate_rps();
        m.observe(obs(10, 25));
        assert!(m.load_estimate_rps() > calm + 20.0);
    }

    #[test]
    fn first_observation_seeds_estimate() {
        // The very first interval must not be averaged with a zero prior.
        let mut m = SystemMonitor::new();
        m.observe(obs(100, 0));
        assert!((m.load_estimate_rps() - 100.0).abs() < 1e-9);
    }
}
