//! Hedged dispatch: a stage still outstanding after a rolling latency
//! quantile of its kernel gets a second copy on another device; the
//! first completion wins and the loser is cancelled.

use super::{ix, EventKind, Simulator};
use crate::device::{ms_to_ns, WorkItem};
use crate::lifecycle::HedgeConfig;
use crate::metrics::rank0;
use poly_ir::KernelId;
use poly_obs::Event as ObsEvent;
use std::collections::VecDeque;

/// Rolling per-kernel stage-latency windows feeding the hedge-delay
/// quantile (filled only when hedging is enabled).
#[derive(Debug, Clone)]
pub(super) struct Hedging {
    window: Vec<VecDeque<f64>>,
    /// Window copy for quantile selection (reusable scratch).
    scratch: Vec<f64>,
}

impl Hedging {
    pub(super) fn new(kernels: usize) -> Self {
        Self {
            window: vec![VecDeque::new(); kernels],
            scratch: Vec::new(),
        }
    }

    /// Feed the stage latencies of a batch of `kernel` launched to
    /// complete at `completion_ms` into its window (dispatch to
    /// completion, queueing included — hedges race the whole stage, not
    /// just execution).
    pub(super) fn record(
        &mut self,
        h: &HedgeConfig,
        kernel: KernelId,
        completion_ms: f64,
        batch: &[WorkItem],
    ) {
        let w = &mut self.window[kernel.0];
        for item in batch {
            if w.len() >= h.window.max(1) {
                w.pop_front();
            }
            w.push_back(completion_ms - item.ready_ms);
        }
    }
}

impl Simulator {
    /// Schedule a hedge check for the stage just dispatched. The caller
    /// sampled `delay` from the latency window *before* the stage
    /// started, so the quantile reflects its peers, not itself.
    pub(super) fn maybe_schedule_hedge(&mut self, req: usize, kernel: KernelId, delay: f64) {
        if self.requests.hedged(req, kernel.0) {
            return; // one hedge per stage
        }
        let attempt = self.requests.attempt(req, kernel.0);
        let at = self.now + delay;
        // Never hedge past the deadline: the copy could not win in time.
        if at >= self.requests.deadline_ms(req) {
            return;
        }
        self.events.push(
            at,
            EventKind::HedgeFire {
                req: ix(req),
                kernel: ix(kernel.0),
                attempt,
            },
        );
    }

    /// The current hedge delay for `kernel`: the configured quantile over
    /// its rolling stage-latency window, floored at `min_delay_ms`.
    /// `None` while hedging is disabled or the window is cold.
    pub(super) fn hedge_delay_ms(&mut self, kernel: KernelId) -> Option<f64> {
        let h = self.config.lifecycle.hedge?;
        let Hedging { window, scratch } = &mut self.hedging;
        let w = &window[kernel.0];
        if w.len() < h.min_samples.max(1) {
            return None;
        }
        // Same nearest-rank selection as `hedge_delay_from`, but over the
        // reusable scratch buffer instead of a fresh sorted copy.
        scratch.clear();
        scratch.extend(w.iter().copied());
        scratch.sort_by(f64::total_cmp);
        Some(scratch[rank0(h.quantile, scratch.len())].max(h.min_delay_ms))
    }

    /// Fire the hedge for a stage that is still outstanding: queue a
    /// duplicate copy on a device other than the one holding the primary.
    /// First completion wins (the `done` flag makes the duplicate safe);
    /// the loser is cancelled and its booked busy energy refunded.
    pub(super) fn hedge_fire(&mut self, req: usize, kernel: KernelId, attempt: u32) {
        let now = self.now;
        let k = kernel.0;
        if self.requests.is_settled(req)
            || self.requests.done(req, k)
            || self.requests.attempt(req, k) != attempt
            || self.requests.hedged(req, k)
            || now >= self.requests.deadline_ms(req)
        {
            return;
        }
        // Locate the device holding the primary copy (queued or in
        // flight — the stage checks above make a live entry one of this
        // attempt); a stranded primary has nothing to race against.
        let holder = self.devices.iter_mut().position(|d| {
            let queued = d.queue.contains_stage(req, kernel);
            self.counters.work.dispatch.entries += d.queue.take_touched();
            queued
                || d.inflight
                    .iter()
                    .flat_map(|&id| self.launches.running(id, now))
                    .any(|it| {
                        it.req() == req && it.kernel() == kernel && it.is_live(&self.requests)
                    })
        });
        let Some(holder) = holder else { return };
        let Some((alt_dev, alt, est_ms)) = self.choose_dispatch(req, kernel, Some(holder)) else {
            return;
        };
        // A hedge only helps when the copy can start ahead of the queued
        // primary. Duplicating into a device that is itself backlogged
        // amplifies load exactly when the system can least afford it — a
        // synchronized burst would hedge every request at once, double
        // every queue, and starve both copies past the deadline.
        let alt_ready = {
            let d = &self.devices[alt_dev];
            d.queue.is_empty() && d.busy_until.max(now) < self.requests.deadline_ms(req)
        };
        if !alt_ready {
            return;
        }
        self.requests.set_hedged(req, k);
        self.counters.retry.hedges_fired += 1;
        let copy = WorkItem::new(req, kernel, now, ms_to_ns(est_ms), alt, true);
        self.devices[alt_dev].queue.push_back(copy);
        self.obs(|| ObsEvent::HedgeFired {
            req,
            kernel: k,
            device: alt_dev,
        });
        self.try_start(alt_dev);
    }
}

#[cfg(test)]
mod tests {
    use super::super::testkit::*;
    use super::*;
    use crate::lifecycle::LifecycleConfig;
    use crate::{FaultPlan, Policy, SimConfig};
    use poly_sched::Pool;

    fn hedged_sim() -> Simulator {
        Simulator::new(
            graph1(),
            &Pool::heterogeneous(0, 2),
            Policy::from_impls(vec![fpga_impl(0, 10.0)]),
            SimConfig {
                lifecycle: LifecycleConfig {
                    hedge: Some(HedgeConfig {
                        quantile: 0.95,
                        min_delay_ms: 1.0,
                        window: 16,
                        min_samples: 4,
                    }),
                    ..LifecycleConfig::default()
                },
                ..SimConfig::default()
            },
        )
    }

    #[test]
    fn hedge_fires_against_slow_primary_and_wins() {
        // Warm the latency window with 8 nominal requests (~10 ms each),
        // then derate device 0 by 5×. The next request's primary copy
        // takes 50 ms; the hedge fires at ~10 ms on device 1 and wins.
        let mut s = hedged_sim();
        let warmup: Vec<f64> = (0..8).map(|i| f64::from(i) * 50.0).collect();
        s.enqueue_arrivals(&warmup);
        s.advance_to(400.0);
        s.inject_faults(&FaultPlan::new().slow_down(400.0, 0, 5.0));
        s.enqueue_arrivals(&[450.0]);
        s.drain();
        let r = s.finish(1000.0);
        assert_eq!(r.completed, 9);
        assert_eq!(s.retry_stats().hedges_fired, 1);
        assert_eq!(s.retry_stats().hedge_wins, 1);
        // The hedged request finished well under the derated 50 ms.
        assert!(r.latency.max() < 40.0, "{}", r.latency.max());
        let a = s.audit();
        a.check().expect("audit invariants hold");
        assert_eq!(
            a.stale_completions, 1,
            "the losing copy's completion event arrives stale"
        );
        assert!(
            a.refunded_busy_mj > 0.0,
            "loser's booked busy time refunded"
        );
    }

    #[test]
    fn hedge_suppressed_when_every_alternate_is_backlogged() {
        // A synchronized burst puts queued work on both devices; every
        // stage out-waits the hedge delay, but duplicating into an
        // equally backlogged peer queue would only double the load. The
        // load guard must suppress all of them.
        let mut s = hedged_sim();
        let warmup: Vec<f64> = (0..8).map(|i| f64::from(i) * 50.0).collect();
        s.enqueue_arrivals(&warmup);
        s.advance_to(400.0);
        s.enqueue_arrivals(&[450.0; 10]);
        s.drain();
        let r = s.finish(1000.0);
        assert_eq!(r.completed, 18);
        assert_eq!(
            s.retry_stats().hedges_fired,
            0,
            "no hedge may fire into a backlogged queue"
        );
        s.audit().check().expect("audit invariants hold");
    }
}
