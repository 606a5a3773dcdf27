//! The system monitor (the "Monitor" box of Fig. 2): per-interval
//! observations of load, latency, and power, with a smoothed load
//! estimate for the optimizer.

use std::collections::VecDeque;

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
    /// Mean node power over the interval, in watts.
    pub avg_power_w: f64,
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

/// Sliding-window monitor with exponentially weighted load smoothing.
///
/// The queue-length signal makes the estimate react to bursts
/// *immediately* rather than one interval late: "a sudden change in load
/// makes Heter-Poly immediately shift to higher performance mode"
/// (Section VI-C).
#[derive(Debug, Clone)]
pub struct SystemMonitor {
    window: VecDeque<IntervalObs>,
    capacity: usize,
    /// EWMA of the offered load; `None` until the first observation, so
    /// the estimate is *seeded* from what is actually measured instead of
    /// cold-starting biased toward zero (which would make the first
    /// re-plan under-provision).
    smoothed_rps: Option<f64>,
}

impl SystemMonitor {
    /// Monitor keeping the last `window` intervals.
    #[must_use]
    pub fn new(window: usize) -> Self {
        Self {
            window: VecDeque::with_capacity(window.max(1)),
            capacity: window.max(1),
            smoothed_rps: None,
        }
    }

    /// Record one interval.
    pub fn observe(&mut self, obs: IntervalObs) {
        self.smoothed_rps = Some(match self.smoothed_rps {
            None => obs.arrival_rps(),
            Some(prev) => 0.5 * prev + 0.5 * obs.arrival_rps(),
        });
        if self.window.len() == self.capacity {
            self.window.pop_front();
        }
        self.window.push_back(obs);
    }

    /// Smoothed load estimate in RPS, inflated by the backlog: queued work
    /// is load that must be served *now*.
    #[must_use]
    pub fn load_estimate_rps(&self) -> f64 {
        let backlog_boost = self
            .window
            .back()
            .map_or(0.0, |o| o.queued as f64 * 1000.0 / o.duration_ms.max(1.0));
        self.smoothed_rps.unwrap_or(0.0) + backlog_boost
    }

    /// Most recent measured p99, if any interval completed work.
    #[must_use]
    pub fn last_p99_ms(&self) -> Option<f64> {
        self.window
            .iter()
            .rev()
            .find(|o| o.completed > 0)
            .map(|o| o.p99_ms)
    }

    /// Mean power over the window, in watts.
    #[must_use]
    pub fn mean_power_w(&self) -> f64 {
        if self.window.is_empty() {
            return 0.0;
        }
        let (e, t) = self.window.iter().fold((0.0, 0.0), |(e, t), o| {
            (e + o.avg_power_w * o.duration_ms, t + o.duration_ms)
        });
        if t > 0.0 {
            e / t
        } else {
            0.0
        }
    }

    /// Observations currently in the window, oldest first.
    #[must_use]
    pub fn window(&self) -> &VecDeque<IntervalObs> {
        &self.window
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
            avg_power_w: 50.0,
            queued,
        }
    }

    #[test]
    fn smoothing_tracks_load_changes() {
        let mut m = SystemMonitor::new(8);
        m.observe(obs(10, 0));
        assert!((m.load_estimate_rps() - 10.0).abs() < 1e-9);
        m.observe(obs(30, 0));
        let est = m.load_estimate_rps();
        assert!(est > 10.0 && est < 30.0);
    }

    #[test]
    fn backlog_boosts_estimate_immediately() {
        let mut m = SystemMonitor::new(8);
        m.observe(obs(10, 0));
        let calm = m.load_estimate_rps();
        m.observe(obs(10, 25));
        assert!(m.load_estimate_rps() > calm + 20.0);
    }

    #[test]
    fn first_observation_seeds_estimate() {
        // The very first interval must not be averaged with a zero prior.
        let mut m = SystemMonitor::new(8);
        m.observe(obs(100, 0));
        assert!((m.load_estimate_rps() - 100.0).abs() < 1e-9);
    }

    #[test]
    fn window_is_bounded() {
        let mut m = SystemMonitor::new(3);
        for i in 0..10 {
            m.observe(obs(i, 0));
        }
        assert_eq!(m.window().len(), 3);
    }

    #[test]
    fn last_p99_skips_empty_intervals() {
        let mut m = SystemMonitor::new(4);
        m.observe(obs(5, 0));
        m.observe(IntervalObs {
            completed: 0,
            p99_ms: 0.0,
            ..obs(0, 0)
        });
        assert_eq!(m.last_p99_ms(), Some(100.0));
    }

    #[test]
    fn mean_power_weighted_by_duration() {
        let mut m = SystemMonitor::new(4);
        m.observe(IntervalObs {
            avg_power_w: 100.0,
            duration_ms: 1000.0,
            ..obs(1, 0)
        });
        m.observe(IntervalObs {
            avg_power_w: 200.0,
            duration_ms: 3000.0,
            ..obs(1, 0)
        });
        assert!((m.mean_power_w() - 175.0).abs() < 1e-9);
    }
}
