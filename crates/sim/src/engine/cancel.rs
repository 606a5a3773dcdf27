//! Terminal states and cancellation: stage completion, the exactly-once
//! terminal transition, and every path that takes work back — request
//! aborts (deadline, retry exhaustion), hedge losers, node drains — with
//! the busy-energy refund of an execution cut short.

use super::{ix, EventKind, Simulator};
use crate::arena::Outcome;
use poly_ir::KernelId;
use poly_obs::Event as ObsEvent;
use std::sync::Arc;

impl Simulator {
    pub(super) fn complete(&mut self, req: usize, kernel: KernelId, attempt: u32, hedge: bool) {
        let now = self.now;
        // The request reached a terminal state (deadline, retry
        // exhaustion, node drain) while this completion was in flight.
        if self.requests.is_settled(req) {
            self.counters.stale_completions += 1;
            return;
        }
        // A stale completion: the execution that scheduled this event
        // was killed by a fail-stop (or invalidated by a cancellation)
        // and the kernel was re-dispatched under a higher attempt
        // number — or the hedge twin already finished this stage.
        if self.requests.done(req, kernel.0) || self.requests.attempt(req, kernel.0) != attempt {
            self.counters.stale_completions += 1;
            return;
        }
        self.requests.set_done(req, kernel.0);
        let kernels_left = self.requests.dec_kernels_left(req);
        let was_hedged = self.requests.hedged(req, kernel.0);
        if was_hedged {
            if hedge {
                self.counters.retry.hedge_wins += 1;
            }
            // First completion wins: cancel the losing copy wherever it is
            // and refund whatever busy time it still held booked.
            self.cancel_copies(req, Some(kernel), None);
        }
        self.obs(|| ObsEvent::StageComplete {
            req,
            kernel: kernel.0,
        });
        let my_kind = self.policy.of(kernel).kind;
        let mut succs = std::mem::take(&mut self.succ_scratch);
        succs.clear();
        succs.extend(self.graph.successors(kernel).map(|e| (e.to, e.bytes)));
        for &(succ, bytes) in &succs {
            // A streamed successor was dispatched on our first tile and
            // its predecessor count consumed then — completing the last
            // tile must not double-count (or re-dispatch a copy).
            if self.requests.streamed(req, succ.0) {
                continue;
            }
            if self.requests.dec_remaining_preds(req, succ.0) == 0 {
                let succ_kind = self.policy.of(succ).kind;
                let transfer = if succ_kind == my_kind {
                    0.0
                } else {
                    self.config.pcie.transfer_ms(bytes)
                };
                self.push_dispatch(now + transfer, req, succ);
            }
        }
        succs.clear();
        self.succ_scratch = succs;
        if kernels_left == 0 {
            self.set_terminal(req, Outcome::Completed);
            let latency = now - self.requests.arrival_ms(req);
            Arc::make_mut(&mut self.latencies).push(latency);
            self.completed += 1;
            self.obs(|| ObsEvent::ReqComplete {
                req,
                latency_ms: latency,
            });
        }
    }

    /// Move `req` to a terminal outcome, exactly once. A second terminal
    /// transition is counted as an audit violation and ignored.
    fn set_terminal(&mut self, req: usize, outcome: Outcome) {
        if self.requests.is_settled(req) {
            self.counters.double_terminal += 1;
            return;
        }
        self.requests.set_outcome(req, outcome);
        // `Completed` is reported by the caller as `ReqComplete` (which
        // carries the latency); only the failure outcomes are recorded
        // here.
        let c = &mut self.counters;
        let (count, event) = match outcome {
            Outcome::InFlight => unreachable!("terminal transition to InFlight"),
            Outcome::Completed => (&mut c.completed, None),
            Outcome::TimedOut => (&mut c.timed_out, Some(ObsEvent::ReqTimedOut { req })),
            Outcome::Failed => (&mut c.failed, Some(ObsEvent::ReqFailed { req })),
            Outcome::Cancelled => (&mut c.cancelled, Some(ObsEvent::ReqCancelled { req })),
        };
        *count += 1;
        if let Some(event) = event {
            self.obs(|| event);
        }
    }

    /// Abandon every copy of `req`'s outstanding work — queued, stranded,
    /// or in flight — and settle the request with `outcome`. In-flight
    /// executions are invalidated through the attempt counters (their
    /// scheduled completions go stale) and the busy time a now-empty
    /// batch still held booked is refunded.
    pub(super) fn abort_request(&mut self, req: usize, outcome: Outcome) {
        self.cancel_copies(req, None, Some(outcome));
    }

    /// Take back copies of `req`'s work: every copy (`kernel` = `None`),
    /// or the copies of one stage — the losers of a hedged stage after
    /// its first completion, whose `done` flag already makes their
    /// completions stale. Queued copies are dropped, stranded ones
    /// forgotten, in-flight ones invalidated, and devices whose batch
    /// just emptied get their booked busy time refunded.
    ///
    /// A request sweep settles the request with `settle` and visits the
    /// devices in two passes — queue-touched first, then in-flight
    /// touched — cutting them only after the terminal transition; a stage
    /// sweep touches each device once. Those orders fix the order of the
    /// freed devices' `DeviceFree` events.
    fn cancel_copies(&mut self, req: usize, kernel: Option<KernelId>, settle: Option<Outcome>) {
        let now = self.now;
        let mut touched = std::mem::take(&mut self.touched_scratch);
        touched.clear();
        self.counters.work.cancel.events += 1;
        for (i, d) in self.devices.iter_mut().enumerate() {
            let removed = d.queue.remove_where(req, kernel);
            self.counters.work.cancel.entries += d.queue.take_touched();
            let dropped =
                kernel.is_some() && self.launches.drop_inflight(&d.inflight, req, kernel, now);
            if removed > 0 || dropped {
                touched.push(i);
            }
        }
        self.stranded
            .retain(|it| !(it.req() == req && kernel.is_none_or(|k| it.kernel() == k)));
        if let Some(outcome) = settle {
            // Bump every stage's attempt: any completion still scheduled
            // for this request is now stale (belt and braces — the
            // terminal outcome alone already makes them stale).
            self.requests.bump_all_attempts(req);
            for (i, d) in self.devices.iter_mut().enumerate() {
                if self.launches.drop_inflight(&d.inflight, req, None, now) {
                    touched.push(i);
                }
            }
            self.set_terminal(req, outcome);
        }
        for &dev in &touched {
            self.cut_if_idle(dev);
        }
        touched.clear();
        self.touched_scratch = touched;
    }

    /// If device `dev` is mid-execution but every work item of its
    /// current batch has been cancelled, cut the execution short: refund
    /// the remaining pre-booked busy energy and free the device now.
    fn cut_if_idle(&mut self, dev: usize) {
        let now = self.now;
        let d = &self.devices[dev];
        if !d.healthy || !d.executing || d.busy_until <= now {
            return;
        }
        let mut items = d
            .inflight
            .iter()
            .flat_map(|&id| self.launches.running(id, now));
        if items.any(|it| it.is_live(&self.requests)) {
            return;
        }
        self.refunded_busy_mj += self.devices[dev].stop_execution(now);
        self.events
            .push(now, EventKind::DeviceFree { dev: ix(dev) });
    }

    /// Abandon every request that has not completed yet: clear device
    /// queues and in-flight books, drop stranded work, and mark the
    /// victims finished so their already-scheduled completion events
    /// become stale. Returns how many requests were abandoned — the
    /// traffic a front-end router must redistribute to other nodes when
    /// it drains this one (e.g. after a whole-node fail-stop).
    ///
    /// Scripted fault events stay queued, so a later recovery still
    /// returns the devices to service.
    /// Calling it on an empty or already-drained simulator — including a
    /// second consecutive call — is a deterministic no-op: nothing is
    /// double-counted and no busy energy is refunded twice.
    pub fn cancel_pending(&mut self) -> usize {
        let now = self.now;
        for d in &mut self.devices {
            d.queue.clear();
            d.inflight.clear();
            // A healthy device cut off mid-execution gets its remaining
            // pre-booked busy energy refunded (the work will never
            // finish); a failed device was already refunded at the
            // fail-stop. `executing` guards double refunds: the first
            // call clears it, so a second call skips the block.
            if d.healthy && d.executing && d.busy_until > now {
                self.refunded_busy_mj += d.stop_execution(now);
            }
        }
        self.stranded.clear();
        let mut cancelled = 0;
        for req in self.requests.live_range() {
            if !self.requests.is_settled(req) {
                cancelled += 1;
                // Stale-ify every scheduled completion of the victim.
                self.requests.bump_all_attempts(req);
                self.set_terminal(req, Outcome::Cancelled);
            }
        }
        cancelled
    }
}

#[cfg(test)]
mod tests {
    use super::super::testkit::*;
    use super::*;
    use crate::lifecycle::{HedgeConfig, LifecycleConfig};
    use crate::{FaultPlan, Policy, SimConfig};
    use poly_sched::Pool;

    /// The single-kernel app on `fpgas` FPGAs (10 ms service) under
    /// `lifecycle`.
    fn fpga_sim(fpgas: usize, lifecycle: LifecycleConfig) -> Simulator {
        Simulator::new(
            graph1(),
            &Pool::heterogeneous(0, fpgas),
            Policy::from_impls(vec![fpga_impl(0, 10.0)]),
            SimConfig {
                lifecycle,
                ..SimConfig::default()
            },
        )
    }

    #[test]
    fn cancel_pending_abandons_incomplete_requests() {
        // Single FPGA, 10 ms service: at t = 25 the first two requests are
        // done and three are queued or in flight. Draining the node
        // abandons exactly those three; they never complete.
        let mut s = fpga_sim(1, LifecycleConfig::default());
        s.enqueue_arrivals(&[0.0, 1.0, 2.0, 3.0, 4.0]);
        s.advance_to(25.0);
        let cancelled = s.cancel_pending();
        assert_eq!(cancelled, 3);
        assert_eq!(s.queued(), 0, "queues drained");
        s.drain();
        let r = s.finish(1000.0);
        assert_eq!(r.completed, 2, "abandoned requests never complete");
        // A second drain has nothing left to cancel.
        assert_eq!(s.cancel_pending(), 0);
    }

    #[test]
    fn cancel_pending_preserves_scripted_recovery() {
        // The only device fails at t = 5 stranding the request; the router
        // drains the node, but the scripted recovery at t = 100 still
        // fires and the node serves fresh traffic afterwards.
        let mut s = fpga_sim(1, LifecycleConfig::default());
        s.inject_faults(&FaultPlan::new().fail_stop(5.0, 0).recover(100.0, 0));
        s.enqueue_arrivals(&[0.0]);
        s.advance_to(50.0);
        assert_eq!(s.healthy_devices(), 0);
        assert_eq!(s.cancel_pending(), 1);
        s.advance_to(150.0);
        assert_eq!(s.healthy_devices(), 1, "recovery survives the drain");
        s.enqueue_arrivals(&[150.0]);
        s.drain();
        let r = s.finish(1000.0);
        assert_eq!(r.completed, 1, "post-recovery traffic is served");
    }

    #[test]
    fn cancel_pending_is_idempotent_and_refunds_once() {
        // Empty simulator: nothing to cancel.
        let mut empty = fpga_sim(2, LifecycleConfig::default());
        assert_eq!(empty.cancel_pending(), 0);
        assert_eq!(empty.cancel_pending(), 0);
        empty.audit().check().expect("empty audit holds");

        // Mid-execution drain: the running request is cancelled, its
        // remaining busy energy refunded exactly once; the second call is
        // a no-op (no double count, no double refund).
        let mut s = fpga_sim(1, LifecycleConfig::default());
        s.enqueue_arrivals(&[0.0, 1.0]);
        s.advance_to(5.0);
        assert_eq!(s.cancel_pending(), 2);
        let refunded = s.audit().refunded_busy_mj;
        assert!(refunded > 0.0, "in-flight execution refunded");
        assert_eq!(s.cancel_pending(), 0, "second drain is a no-op");
        assert_eq!(
            s.audit().refunded_busy_mj,
            refunded,
            "no double busy-energy refund"
        );
        s.drain();
        let r = s.finish(1000.0);
        assert_eq!(r.completed, 0);
        let a = s.audit();
        a.check().expect("audit invariants hold");
        assert_eq!(a.cancelled, 2);
        assert_eq!(a.pending, 0);
        // Energy books: 5 ms of busy time at 25 W remain accounted, the
        // rest of the 10 ms execution was refunded.
        assert!(a.refunded_busy_mj <= a.booked_busy_mj);
    }

    /// A stage sweep marks the losing copy dropped rather than removing
    /// it: a later request sweep of the same request finds the copy but
    /// does not count its device as touched again, and the launch's
    /// `LaunchDone` still counts the copy as a stale completion.
    #[test]
    fn a_dropped_copy_touches_its_device_once() {
        let mut s = fpga_sim(
            2,
            LifecycleConfig {
                hedge: Some(HedgeConfig {
                    quantile: 0.95,
                    min_delay_ms: 1.0,
                    window: 16,
                    min_samples: 4,
                }),
                ..LifecycleConfig::default()
            },
        );
        // Eight nominal requests warm the hedge window (~10 ms stages);
        // request 8's primary then runs 5× slow on device 0 (450–500 ms),
        // its hedge copy wins on device 1 at ~470 ms, and the stage sweep
        // drops the primary and cuts device 0.
        let warmup: Vec<f64> = (0..8).map(|i| f64::from(i) * 50.0).collect();
        s.enqueue_arrivals(&warmup);
        s.advance_to(400.0);
        s.inject_faults(&FaultPlan::new().slow_down(400.0, 0, 5.0));
        s.enqueue_arrivals(&[450.0]);
        s.advance_to(480.0);
        assert_eq!(s.retry_stats().hedge_wins, 1);
        let (req, now) = (8, s.now);
        let d = &s.devices[0];
        assert_eq!(d.inflight.len(), 1, "the cut launch is still open");
        let copy = s.launches.running(d.inflight[0], now)[0];
        assert_eq!(copy.req(), req);
        assert!(!copy.is_live(&s.requests), "dropped copies are not live");
        assert!(
            !s.launches.drop_inflight(&d.inflight, req, None, now),
            "a request sweep must not touch device 0 again"
        );
        assert_eq!(s.counters().stale_completions, 0);
        s.advance_to(510.0);
        assert_eq!(
            s.counters().stale_completions,
            1,
            "the dropped copy's completion arrives stale"
        );
        assert!(s.devices[0].inflight.is_empty(), "its launch closed");
        s.audit().check().expect("audit invariants hold");
    }

    #[test]
    fn deadline_cancels_doomed_work() {
        // Single FPGA, 10 ms latency, deadline = arrival + 25 ms
        // (0.125 × 200 ms bound). Ten simultaneous arrivals: the first two
        // complete (10, 20 ms); everything else is past its deadline at
        // t = 25 and is cancelled — queued and in-flight alike.
        let mut s = fpga_sim(
            1,
            LifecycleConfig {
                deadline_factor: Some(0.125),
                ..LifecycleConfig::default()
            },
        );
        s.enqueue_arrivals(&[0.0; 10]);
        s.drain();
        let r = s.finish(1000.0);
        assert_eq!(r.completed, 2);
        let a = s.audit();
        a.check().expect("audit invariants hold");
        assert_eq!(a.completed, 2);
        assert_eq!(a.timed_out, 8);
        assert_eq!(a.pending, 0);
        assert!(
            a.refunded_busy_mj > 0.0,
            "the in-flight victim's booked busy energy is refunded"
        );
        assert!(a.refunded_busy_mj <= a.booked_busy_mj);
    }

    #[test]
    fn deadline_budget_propagates_across_stages() {
        // Two-stage DAG under a 200 ms bound with factor 1.0: the budget
        // shrinks monotonically as the request advances and is never
        // negative at any point the clock stops at.
        let mut s = Simulator::new(
            graph2(),
            &Pool::heterogeneous(0, 2),
            Policy::from_impls(vec![fpga_impl(0, 10.0), fpga_impl(1, 20.0)]),
            SimConfig {
                lifecycle: LifecycleConfig {
                    deadline_factor: Some(1.0),
                    ..LifecycleConfig::default()
                },
                ..SimConfig::default()
            },
        );
        s.enqueue_arrivals(&[0.0]);
        let mut last = s.remaining_budget_ms(0);
        assert!((last - 200.0).abs() < 1e-9, "{last}");
        for t in [5.0, 10.0, 15.0, 30.0, 250.0] {
            s.advance_to(t);
            let b = s.remaining_budget_ms(0);
            assert!(b >= 0.0, "budget never negative: {b}");
            assert!(b <= last + 1e-9, "budget monotone: {b} after {last}");
            last = b;
        }
        let r = s.finish(1000.0);
        assert_eq!(r.completed, 1, "in-budget request completes normally");
        assert_eq!(s.counters().timed_out, 0);
        assert_eq!(s.remaining_budget_ms(0), 0.0, "budget exhausted at 250+");
        s.audit().check().expect("audit invariants hold");
    }

    /// Deadline cancellation interacts with per-request sizes through
    /// the DAG budget: an oversized request whose size-scaled stages
    /// overrun `deadline_factor × bound` is abandoned at its deadline,
    /// while a nominal one sharing the run completes — and the audit
    /// stays conserved with the refunded busy energy booked once.
    #[test]
    fn deadline_cancellation_respects_request_sizes() {
        let mut s = Simulator::new(
            graph2(),
            &Pool::heterogeneous(0, 2),
            Policy::from_impls(vec![fpga_impl(0, 40.0), fpga_impl(1, 40.0)]),
            SimConfig {
                lifecycle: LifecycleConfig {
                    deadline_factor: Some(2.0),
                    ..LifecycleConfig::default()
                },
                ..SimConfig::default()
            },
        );
        // size 8 ⇒ FPGA scale 0.1 + 0.9×8 = 7.3 ⇒ ≈292 ms per stage;
        // two stages blow through its 450 ms deadline mid-flight on the
        // second stage. size 1 finishes both stages in ~80 ms.
        s.enqueue_arrivals_sized(&[0.0, 50.0], &[1.0, 8.0]);
        s.drain();
        let r = s.finish(5_000.0);
        let a = s.audit();
        a.check().expect("audit invariants hold");
        assert_eq!(r.completed, 1, "nominal request completes");
        assert_eq!(a.timed_out, 1, "oversized request hits its deadline");
        assert_eq!(a.terminal(), 2, "both requests reach a terminal state");
        assert!(
            a.refunded_busy_mj > 0.0,
            "the cancelled stage's remaining busy energy is refunded"
        );
        assert!(
            r.latency.max() < 200.0,
            "the survivor is not delayed past the bound by the doomed one: {}",
            r.latency.max()
        );
    }
}
