//! Accounting: the measurement window behind [`SimReport`], its reset,
//! the report itself, and the lifetime counters and audit.

use super::Simulator;
use crate::audit::AuditReport;
use crate::counters::Counters;
use crate::device::DeviceStats;
use crate::metrics::RetryStats;
use crate::LatencyStats;
use std::sync::Arc;

/// Per-kernel execution breakdown over a simulation window.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct KernelStats {
    /// Kernel executions started (batches, not requests).
    pub executions: usize,
    /// Requests served across those executions.
    pub requests: usize,
    /// Total queueing delay observed by requests before their kernel
    /// execution started, in milliseconds.
    pub queue_wait_ms: f64,
    /// Total device-occupancy time of this kernel's executions, in
    /// milliseconds.
    pub busy_ms: f64,
}

impl KernelStats {
    /// Mean batch size of the kernel's executions.
    #[must_use]
    pub fn mean_batch(&self) -> f64 {
        if self.executions == 0 {
            0.0
        } else {
            self.requests as f64 / self.executions as f64
        }
    }

    /// Mean per-request queueing delay in milliseconds.
    #[must_use]
    pub fn mean_wait_ms(&self) -> f64 {
        if self.requests == 0 {
            0.0
        } else {
            self.queue_wait_ms / self.requests as f64
        }
    }
}

/// Summary of one accounting window: the whole simulation, or the
/// segment since the last
/// [`reset_accounting`](Simulator::reset_accounting). Lifetime counts
/// live in [`Simulator::counters`].
#[derive(Debug, Clone, PartialEq)]
pub struct SimReport {
    /// Simulated duration in milliseconds.
    pub duration_ms: f64,
    /// Requests that arrived.
    pub arrived: usize,
    /// Requests that completed.
    pub completed: usize,
    /// Latency distribution of completed requests.
    pub latency: LatencyStats,
    /// Fraction of completed requests exceeding the QoS bound.
    pub qos_violation_ratio: f64,
    /// Mean node power over the duration (idle + active, all devices), W.
    pub avg_power_w: f64,
    /// Total energy over the duration, in joules.
    pub energy_j: f64,
    /// Completed requests per second.
    pub throughput_rps: f64,
    /// Per-device statistics.
    pub devices: Vec<DeviceStats>,
    /// Per-kernel execution breakdown, indexed by kernel id.
    pub kernels: Vec<KernelStats>,
}

impl std::fmt::Display for SimReport {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "{}/{} requests in {:.1} s: p50 {:.1} ms, p99 {:.1} ms, {:.1} RPS, {:.1} W ({:.2}% over bound)",
            self.completed,
            self.arrived,
            self.duration_ms / 1000.0,
            self.latency.p50(),
            self.latency.p99(),
            self.throughput_rps,
            self.avg_power_w,
            self.qos_violation_ratio * 100.0
        )
    }
}

impl Simulator {
    /// Discard all statistics gathered so far (latencies, counters, and
    /// energy books) and start a fresh measurement window at the current
    /// simulation time. Queue and device state is preserved — this is how
    /// warmup is excluded from steady-state measurements.
    pub fn reset_accounting(&mut self) {
        for d in &mut self.devices {
            d.account_idle_until(self.now);
            d.busy_energy_mj = 0.0;
            d.idle_energy_mj = 0.0;
            d.busy_ms = 0.0;
        }
        self.stats_since = self.now;
        self.arrived = 0;
        self.completed = 0;
        Arc::make_mut(&mut self.latencies).clear();
        for ks in &mut self.kernel_stats {
            *ks = KernelStats::default();
        }
        // Measurement boundaries are also when the settled request prefix
        // is reclaimed: over a long replay the arena stays bounded by the
        // in-flight population instead of growing with the trace.
        self.requests.compact();
    }

    /// Completion latencies of the current accounting window (since the
    /// last [`reset_accounting`](Self::reset_accounting)), in completion
    /// order: the raw samples behind [`finish`](Self::finish)'s
    /// latency digest, for callers that merge windows across simulators.
    #[must_use]
    pub fn window_latencies(&self) -> &[f64] {
        &self.latencies
    }

    /// Close the books at time `t` (≥ now) and produce the report.
    /// The simulator can continue afterwards, but energy accounting is
    /// simplest when `finish` is called once at the end.
    pub fn finish(&mut self, t: f64) -> SimReport {
        self.advance_to(t);
        let end = t.max(self.now);
        // Never zero (nor NaN: `max` drops a NaN operand), so the rates
        // below are always defined.
        let duration_ms = (end - self.stats_since).max(1e-9);
        let mut energy_mj = 0.0;
        let mut devices = Vec::with_capacity(self.devices.len());
        for d in &mut self.devices {
            let e = d.finish(end);
            energy_mj += e;
            devices.push(DeviceStats {
                kind: d.kind,
                utilization: d.utilization(duration_ms),
                energy_j: e / 1000.0,
                reconfigs: d.reconfigs,
            });
        }
        let latency = LatencyStats::from_shared(&self.latencies, &mut self.lat_scratch);
        let qos_violation_ratio = latency.violation_ratio(self.config.latency_bound_ms);
        SimReport {
            duration_ms,
            arrived: self.arrived,
            completed: self.completed,
            qos_violation_ratio,
            avg_power_w: energy_mj / duration_ms,
            energy_j: energy_mj / 1000.0,
            throughput_rps: self.completed as f64 * 1000.0 / duration_ms,
            latency,
            devices,
            kernels: self.kernel_stats.clone(),
        }
    }

    /// Snapshot of the lifetime counters (never reset: they survive
    /// [`reset_accounting`](Self::reset_accounting)). Take a
    /// [`delta`](Counters::delta) between two snapshots to count a window,
    /// e.g. one interval's fault events or timeouts; the queue work counts
    /// in [`work`](Counters::work) are deterministic and
    /// machine-independent, so a test can bound the work per event.
    #[must_use]
    pub fn counters(&self) -> Counters {
        self.counters
    }

    /// Cumulative re-issue ledger since construction.
    #[must_use]
    pub fn retry_stats(&self) -> RetryStats {
        self.counters.retry
    }

    /// Lifetime conservation accounting for invariant checking — see
    /// [`AuditReport`]: a view over [`counters`](Self::counters) plus the
    /// pending population and the busy-energy books, covering the whole
    /// life of the simulator.
    #[must_use]
    pub fn audit(&self) -> AuditReport {
        let c = &self.counters;
        AuditReport {
            admitted: c.admitted,
            completed: c.completed,
            timed_out: c.timed_out,
            failed: c.failed,
            cancelled: c.cancelled,
            pending: self.requests.pending(),
            stale_completions: c.stale_completions,
            double_terminal: c.double_terminal,
            clock_regressions: c.clock_regressions,
            booked_busy_mj: self.booked_busy_mj,
            refunded_busy_mj: self.refunded_busy_mj,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::super::testkit::*;
    use super::*;
    use poly_sched::Pool;

    #[test]
    fn power_integrates_idle_plus_active() {
        let mut s = sim(
            vec![fpga_impl(0, 10.0), fpga_impl(1, 10.0)],
            Pool::heterogeneous(0, 1),
        );
        // No arrivals at all: pure idle for 1 s at the preloaded
        // bitstream's idle power (5 W in the test implementation).
        let r = s.finish(1000.0);
        assert!((r.avg_power_w - 5.0).abs() < 1e-9);
        assert!((r.energy_j - 5.0).abs() < 1e-9);
    }

    #[test]
    fn violation_ratio_reflects_bound() {
        let mut s = sim(
            vec![fpga_impl(0, 150.0), fpga_impl(1, 150.0)],
            Pool::heterogeneous(0, 2),
        );
        s.enqueue_arrivals(&[0.0]);
        s.drain();
        let r = s.finish(10_000.0);
        // 150 + reconfig 220 + transfer... way over the 200 ms bound.
        assert_eq!(r.qos_violation_ratio, 1.0);
    }

    #[test]
    fn counter_deltas_count_a_window_then_nothing() {
        let mut s = sim(
            vec![fpga_impl(0, 5.0), fpga_impl(1, 5.0)],
            Pool::heterogeneous(0, 2),
        );
        let before = s.counters();
        s.enqueue_arrivals(&[0.0, 1.0]);
        s.advance_to(5_000.0);
        let r = s.finish(5_000.0);
        assert_eq!((r.arrived, r.completed), (2, 2));
        let d = s.counters().delta(&before);
        assert_eq!((d.admitted, d.completed), (2, 2));
        assert_eq!(s.window_latencies().len(), 2);
        drop(r);

        let before = s.counters();
        s.reset_accounting();
        let r = s.finish(6_000.0);
        assert_eq!((r.arrived, r.completed), (0, 0));
        assert!(r.latency.is_empty());
        assert!(s.window_latencies().is_empty());
        assert_eq!(s.counters().delta(&before), Counters::default());
    }

    #[test]
    fn kernel_breakdown_accounts_every_request() {
        let mut s = sim(
            vec![fpga_impl(0, 10.0), fpga_impl(1, 10.0)],
            Pool::heterogeneous(0, 2),
        );
        s.enqueue_arrivals(&[0.0, 1.0, 2.0]);
        s.drain();
        let r = s.finish(10_000.0);
        assert_eq!(r.kernels.len(), 2);
        for ks in &r.kernels {
            assert_eq!(ks.requests, 3, "{ks:?}");
            assert!(ks.executions >= 1);
            assert!(ks.busy_ms > 0.0);
            assert!(ks.mean_batch() >= 1.0);
            assert!(ks.mean_wait_ms() >= 0.0);
        }
    }
}
