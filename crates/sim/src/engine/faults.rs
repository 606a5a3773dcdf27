//! Faults: scripted fail-stops, slowdowns and recoveries, the retry of
//! killed work, the stranded-work queue, and the health of the pool.

use super::{ix, EventKind, Simulator};
use crate::arena::Outcome;
use crate::fault::{FaultEvent, FaultKind, FaultPlan};
use crate::lifecycle::RetryPolicy;
use poly_device::DeviceKind;
use poly_ir::KernelId;
use poly_obs::Event as ObsEvent;
use poly_sched::Pool;

impl Simulator {
    /// Schedule the events of `plan` as discrete fault events. Events
    /// scripted before the current time fire immediately (at "now").
    ///
    /// A [`FaultKind::Revoke`] lowers to a [`FaultKind::FailStop`] at
    /// `at_ms + notice_ms`: the engine models only the capacity loss at
    /// the deadline; reacting to the *notice* (draining before the
    /// deadline) is the cluster layer's job.
    pub fn inject_faults(&mut self, plan: &FaultPlan) {
        for &event in plan.events() {
            assert!(
                event.device < self.devices.len(),
                "fault targets device {} but the pool has {}",
                event.device,
                self.devices.len()
            );
            let event = match event.kind {
                FaultKind::Revoke { .. } => FaultEvent {
                    at_ms: event.at_ms + event.kind.effect_delay_ms(),
                    device: event.device,
                    kind: FaultKind::FailStop,
                },
                _ => event,
            };
            let idx = ix(self.faults.len());
            self.faults.push(event);
            self.events
                .push(event.at_ms.max(self.now), EventKind::Fault { idx });
        }
    }

    /// The pool of currently healthy devices — what the runtime should
    /// re-plan against after a failure.
    #[must_use]
    pub fn available_pool(&self) -> Pool {
        let kinds: Vec<DeviceKind> = self
            .devices
            .iter()
            .filter(|d| d.healthy)
            .map(|d| d.kind)
            .collect();
        Pool::new(&kinds)
    }

    /// Number of currently healthy devices.
    #[must_use]
    pub fn healthy_devices(&self) -> usize {
        self.devices.iter().filter(|d| d.healthy).count()
    }

    /// Re-dispatch work stranded by failures (called when a recovery or a
    /// policy change may have made it dispatchable again).
    pub(super) fn redispatch_stranded(&mut self) {
        let stranded = std::mem::take(&mut self.stranded);
        let now = self.now;
        for item in stranded {
            self.push_dispatch(now, item.req(), item.kernel());
        }
    }

    /// Apply scripted fault `idx` at the current time.
    pub(super) fn apply_fault(&mut self, idx: usize) {
        let FaultEvent { device, kind, .. } = self.faults[idx];
        match kind {
            FaultKind::FailStop => self.fail_stop(device),
            FaultKind::Slowdown { factor } => {
                let d = &mut self.devices[device];
                if d.healthy {
                    d.derate = factor.max(1.0);
                    self.note_fault(device, "slowdown");
                }
            }
            FaultKind::Recover => self.recover(device),
            // Revocations are lowered to FailStop at injection time
            // (`inject_faults`); one can never reach the queue.
            FaultKind::Revoke { .. } => unreachable!("Revoke is lowered at injection"),
        }
    }

    /// Count a fault that took effect on `device` and record it.
    fn note_fault(&mut self, device: usize, kind: &'static str) {
        self.counters.fault_events += 1;
        self.obs(|| ObsEvent::Fault { device, kind });
    }

    /// Take `device` out of service: refund its cut-off busy energy, kill
    /// its in-flight batch and retry (or fail) every live victim, queued
    /// ones included.
    fn fail_stop(&mut self, device: usize) {
        let now = self.now;
        if !self.devices[device].healthy {
            return; // already down
        }
        self.counters.fail_stops += 1;
        self.note_fault(device, "fail-stop");
        let d = &mut self.devices[device];
        // The busy-energy account was pre-booked to the end of the
        // running execution; refund the part the failure cuts off — a
        // dead board draws nothing.
        if d.executing && d.busy_until > now {
            self.refunded_busy_mj += d.stop_execution(now);
        }
        d.account_idle_until(now);
        d.healthy = false;
        d.executing = false;
        d.busy_until = now;
        d.loaded = None;
        d.idle_power_w = 0.0;
        let queued_victims = d.queue.drain();
        let inflight = std::mem::take(&mut d.inflight);
        self.reroute();
        // Kill the in-flight batch: bump each live victim's attempt so
        // its scheduled completion becomes stale, then retry it. The
        // launch records stay open until their `LaunchDone` counts the
        // completions stale.
        let mut to_retry: Vec<(usize, KernelId)> = Vec::new();
        for it in inflight
            .iter()
            .flat_map(|&id| self.launches.running(id, now))
        {
            if it.is_live(&self.requests) {
                self.requests.bump_attempt(it.req(), it.kernel().0);
                to_retry.push((it.req(), it.kernel()));
            }
        }
        let queued = queued_victims
            .iter()
            .map(|item| (item.req(), item.kernel()));
        match self.config.lifecycle.retry {
            // Legacy: re-dispatch everything immediately, without bound;
            // queued victims keep their attempt counter.
            RetryPolicy::Immediate => {
                to_retry.extend(queued);
                self.counters.retry.device_retries += to_retry.len();
                for (req, kernel) in to_retry {
                    self.push_dispatch(now, req, kernel);
                }
            }
            RetryPolicy::Backoff(policy) => {
                // Queued (never-started) victims also count this kill
                // against their stage's retry budget, so the bound is
                // uniform across queue positions.
                for item in &queued_victims {
                    self.requests.bump_attempt(item.req(), item.kernel().0);
                }
                to_retry.extend(queued);
                for (req, kernel) in to_retry {
                    if self.requests.is_settled(req) {
                        continue; // settled while the kill ran
                    }
                    let n = self.requests.attempt(req, kernel.0);
                    if n > policy.max_retries {
                        self.counters.retry.exhausted += 1;
                        self.abort_request(req, Outcome::Failed);
                        continue;
                    }
                    self.counters.retry.device_retries += 1;
                    let key = ((req as u64) << 20) | kernel.0 as u64;
                    let delay = policy.delay_ms(n, key);
                    self.push_dispatch(now + delay, req, kernel);
                }
            }
        }
    }

    /// Return `device` to service: clear any slowdown, bring a failed
    /// board back cold, and give stranded work another chance.
    fn recover(&mut self, device: usize) {
        let now = self.now;
        let d = &mut self.devices[device];
        let was_down = !d.healthy;
        d.derate = 1.0;
        if was_down {
            d.healthy = true;
            d.executing = false;
            d.busy_until = now;
            // The board rejoins cold at its configured idle power;
            // energy accounting resumes from now.
            d.accounted_to_ms = d.accounted_to_ms.max(now);
            d.idle_power_w = self.config.idle_w(d.kind);
            self.reroute();
            self.note_fault(device, "recover");
            self.apply_idle_floors();
        }
        self.redispatch_stranded();
        self.events
            .push(now, EventKind::DeviceFree { dev: ix(device) });
    }
}

#[cfg(test)]
mod tests {
    use super::super::testkit::*;
    use super::*;
    use crate::lifecycle::{BackoffPolicy, LifecycleConfig};
    use crate::{Policy, SimConfig};

    /// The single-kernel app on `pool`, its one kernel on an FPGA
    /// (10 ms), under `lifecycle`.
    fn fpga_sim(pool: Pool, lifecycle: LifecycleConfig) -> Simulator {
        Simulator::new(
            graph1(),
            &pool,
            Policy::from_impls(vec![fpga_impl(0, 10.0)]),
            SimConfig {
                lifecycle,
                ..SimConfig::default()
            },
        )
    }

    #[test]
    fn fail_stop_retries_inflight_on_survivor() {
        // Two FPGAs, both preloaded with the kernel. The request starts on
        // its home device (0); device 0 dies mid-execution at t = 5 and the
        // work is retried on device 1, completing at 5 + 10 = 15.
        let mut s = fpga_sim(Pool::heterogeneous(0, 2), LifecycleConfig::default());
        s.inject_faults(&FaultPlan::new().fail_stop(5.0, 0));
        s.enqueue_arrivals(&[0.0]);
        s.drain();
        let r = s.finish(1000.0);
        assert_eq!(r.completed, 1);
        let c = s.counters();
        assert_eq!((c.fail_stops, c.retry.device_retries), (1, 1));
        assert!(
            (r.latency.max() - 15.0).abs() < 1e-6,
            "retried completion at 15, got {}",
            r.latency.max()
        );
    }

    #[test]
    fn fail_stop_strands_until_recovery() {
        // The only GPU dies before the request arrives: the work strands
        // (no healthy device of its kind) until the recovery at t = 100
        // re-dispatches it.
        let mut s = Simulator::new(
            graph1(),
            &Pool::heterogeneous(1, 0),
            Policy::from_impls(vec![gpu_impl(0, 20.0, 1)]),
            SimConfig::default(),
        );
        s.inject_faults(&FaultPlan::new().fail_stop(5.0, 0).recover(100.0, 0));
        s.enqueue_arrivals(&[10.0]);
        s.advance_to(50.0);
        assert_eq!(s.healthy_devices(), 0);
        assert!(s.available_pool().is_empty());
        assert_eq!(s.queued(), 1, "request parked while the pool is empty");
        s.drain();
        let r = s.finish(1000.0);
        assert_eq!(r.completed, 1);
        assert!(
            r.latency.max() >= 90.0,
            "latency includes the outage window: {}",
            r.latency.max()
        );
    }

    #[test]
    fn slowdown_derates_execution_until_recovery() {
        let mut s = fpga_sim(Pool::heterogeneous(0, 1), LifecycleConfig::default());
        s.inject_faults(&FaultPlan::new().slow_down(0.0, 0, 2.0).recover(100.0, 0));
        s.enqueue_arrivals(&[0.0, 200.0]);
        s.drain();
        let r = s.finish(1000.0);
        assert_eq!(r.completed, 2);
        // Throttled request takes 2 × 10 ms; post-recovery one is nominal.
        assert!((r.latency.max() - 20.0).abs() < 1e-6, "{}", r.latency.max());
        assert!(
            (r.latency.quantile(0.01) - 10.0).abs() < 1e-6,
            "{}",
            r.latency.quantile(0.01)
        );
        assert_eq!(s.counters().fail_stops, 0, "a slowdown is not a fail-stop");
    }

    #[test]
    fn failed_device_draws_no_power() {
        // Idle FPGA at 5 W dies at t = 400: only 400 ms of idle energy is
        // accounted over the 1 s window.
        let mut s = fpga_sim(Pool::heterogeneous(0, 1), LifecycleConfig::default());
        s.inject_faults(&FaultPlan::new().fail_stop(400.0, 0));
        let r = s.finish(1000.0);
        assert!((r.energy_j - 2.0).abs() < 1e-9, "{}", r.energy_j);
        assert!((r.avg_power_w - 2.0).abs() < 1e-9, "{}", r.avg_power_w);
    }

    #[test]
    fn available_pool_reflects_health() {
        let mut s = fpga_sim(Pool::heterogeneous(1, 2), LifecycleConfig::default());
        s.inject_faults(&FaultPlan::new().fail_stop(10.0, 0).recover(30.0, 0));
        s.advance_to(20.0);
        assert_eq!(s.available_pool(), Pool::heterogeneous(0, 2));
        assert_eq!(s.healthy_devices(), 2);
        s.advance_to(40.0);
        assert_eq!(s.available_pool(), Pool::heterogeneous(1, 2));
        assert_eq!(s.healthy_devices(), 3);
    }

    #[test]
    fn fault_counter_deltas_count_a_window_then_nothing() {
        let mut s = fpga_sim(Pool::heterogeneous(0, 2), LifecycleConfig::default());
        s.inject_faults(&FaultPlan::new().fail_stop(5.0, 0).recover(50.0, 0));
        let before = s.counters();
        s.enqueue_arrivals(&[0.0]);
        s.advance_to(100.0);
        let d = s.counters().delta(&before);
        assert_eq!(d.fault_events, 2, "fail-stop + recovery");
        assert_eq!(d.fail_stops, 1);
        assert_eq!(d.retry.device_retries, 1);
        let before = s.counters();
        s.advance_to(200.0);
        let d = s.counters().delta(&before);
        assert_eq!((d.fault_events, d.retry.device_retries), (0, 0));
    }

    #[test]
    fn backoff_delays_the_retry() {
        // Same scenario as `fail_stop_retries_inflight_on_survivor`, but
        // with jitter-free backoff: the retry waits base_ms = 5 ms, so the
        // victim completes at 5 (kill) + 5 (backoff) + 10 = 20 ms instead
        // of 15.
        let mut s = fpga_sim(
            Pool::heterogeneous(0, 2),
            LifecycleConfig {
                retry: RetryPolicy::Backoff(BackoffPolicy {
                    jitter_frac: 0.0,
                    ..BackoffPolicy::default()
                }),
                ..LifecycleConfig::default()
            },
        );
        s.inject_faults(&FaultPlan::new().fail_stop(5.0, 0));
        s.enqueue_arrivals(&[0.0]);
        s.drain();
        let r = s.finish(1000.0);
        assert_eq!(r.completed, 1);
        assert_eq!(s.retry_stats().device_retries, 1);
        assert_eq!(s.retry_stats().exhausted, 0);
        assert!(
            (r.latency.max() - 20.0).abs() < 1e-6,
            "retry delayed by 5 ms backoff, got {}",
            r.latency.max()
        );
        s.audit().check().expect("audit invariants hold");
    }

    #[test]
    fn exhausted_retry_budget_fails_the_request() {
        // One FPGA that keeps dying mid-execution. max_retries = 1: the
        // first kill retries (after 5 ms), the second kill exhausts the
        // budget and the request is failed — not retried forever.
        let mut s = fpga_sim(
            Pool::heterogeneous(0, 1),
            LifecycleConfig {
                retry: RetryPolicy::Backoff(BackoffPolicy {
                    max_retries: 1,
                    jitter_frac: 0.0,
                    ..BackoffPolicy::default()
                }),
                ..LifecycleConfig::default()
            },
        );
        // Kill at 5 (retry dispatches at 10), recover at 6, kill again at
        // 12 mid-retry: attempt 2 > max_retries 1 → failed.
        s.inject_faults(
            &FaultPlan::new()
                .fail_stop(5.0, 0)
                .recover(6.0, 0)
                .fail_stop(12.0, 0)
                .recover(13.0, 0),
        );
        s.enqueue_arrivals(&[0.0]);
        s.drain();
        let r = s.finish(1000.0);
        assert_eq!(r.completed, 0, "request failed, not completed");
        assert_eq!(s.retry_stats().device_retries, 1);
        assert_eq!(s.retry_stats().exhausted, 1);
        let a = s.audit();
        a.check().expect("audit invariants hold");
        assert_eq!(a.failed, 1);
        assert_eq!(a.pending, 0);
    }
}
