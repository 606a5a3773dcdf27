//! Batch start: forming and launching one device's next batch, the
//! slack-aware wait budgets that may hold a partial GPU batch open, the
//! time-zero bitstream preload, and the idle-power floors of unused
//! platforms.

use super::pipeline::Launch;
use super::{ix, EventKind, Simulator, GPU_PARKED_FRACTION};
use crate::arena::ReqArena;
use crate::device::WorkItem;
use crate::KernelImpl;
use poly_device::DeviceKind;
use poly_ir::KernelId;
use poly_obs::Event as ObsEvent;

/// Batch-formation state: what the hold gate reads, and the batch under
/// formation.
#[derive(Debug, Clone, Default)]
pub(super) struct Batching {
    /// Per-kernel batch-wait budget (ms after request arrival by which the
    /// kernel must start to keep the QoS bound reachable); 0 disables
    /// waiting. Recomputed on policy changes.
    wait_budget: Vec<f64>,
    /// EWMA arrival rate (requests per ms), for adaptive batching.
    arrival_rate: f64,
    /// Time of the latest arrival (`None` before the first).
    last_arrival_ms: Option<f64>,
    /// Batch under formation in `try_start` (reusable scratch).
    scratch: Vec<WorkItem>,
}

impl Batching {
    /// Fold an arrival at `now` into the arrival-rate estimate.
    pub(super) fn note_arrival(&mut self, now: f64) {
        if let Some(last) = self.last_arrival_ms {
            let interval = (now - last).max(0.01);
            self.arrival_rate = 0.9 * self.arrival_rate + 0.1 / interval;
        }
        self.last_arrival_ms = Some(now);
    }
}

/// One launched item: its stage, the attempt it started under, and two
/// flags — a hedge copy, and a copy a cancellation sweep has dropped.
/// Indices are `u32`-wide as in `EventKind`, so an item is 16 bytes.
#[derive(Debug, Clone, Copy)]
pub(super) struct Launched {
    req: u32,
    kernel: u32,
    attempt: u32,
    flags: u32,
}

const _: () = assert!(std::mem::size_of::<Launched>() == 16);

const HEDGE: u32 = 1;
const DROPPED: u32 = 2;

impl Launched {
    /// The request this item belongs to.
    pub(super) fn req(&self) -> usize {
        self.req as usize
    }

    /// The item's kernel.
    pub(super) fn kernel(&self) -> KernelId {
        KernelId(self.kernel as usize)
    }

    /// Whether this item of a still-running launch can produce a valid
    /// completion: no sweep dropped it, its request is unsettled, its
    /// stage is not done, and no kill or cancellation has bumped the
    /// stage's attempt since it started.
    pub(super) fn is_live(&self, requests: &ReqArena) -> bool {
        let (req, k) = (self.req(), self.kernel().0);
        // A settled request never holds a live future completion (the
        // settling path invalidated it), so the settled check
        // short-circuits before any per-kernel state is touched.
        self.flags & DROPPED == 0
            && !requests.is_settled(req)
            && !requests.done(req, k)
            && requests.attempt(req, k) == self.attempt
    }
}

/// One launch whose `LaunchDone` event is still queued: its completion
/// time and its items in launch order.
#[derive(Debug, Clone, Default)]
struct Slot {
    completion_ms: f64,
    items: Vec<Launched>,
}

/// The in-flight book: every launch whose `LaunchDone` event is still
/// queued, keyed by launch id — a slot reused once its event has popped.
/// Each device lists its open launch ids (`DeviceState::inflight`). A
/// record outlives every cancellation and fail-stop of its items (their
/// completions must still be counted, stale), and the id — not the
/// device — names it, so a device cut off and relaunched before the old
/// event pops keeps both launches apart.
///
/// One event per launch pops exactly where one event per item would:
/// pushed right after the launch's `DeviceFree`, those would share a
/// timestamp and hold consecutive sequence numbers, so nothing could
/// pop between them, and where the device frees at that same instant
/// (bit-equal times: every GPU launch) its `DeviceFree` would pop right
/// before them — which is why `LaunchDone` then does that step first.
#[derive(Debug, Clone, Default)]
pub(super) struct Launches {
    slots: Vec<Slot>,
    free: Vec<u32>,
}

impl Launches {
    /// A fresh, empty record's id, for a launch completing at
    /// `completion_ms`.
    fn open(&mut self, completion_ms: f64) -> u32 {
        let id = self.free.pop().unwrap_or_else(|| {
            self.slots.push(Slot::default());
            ix(self.slots.len() - 1)
        });
        self.slots[id as usize].completion_ms = completion_ms;
        id
    }

    /// Take launch `id`'s items out for replay; [`close`](Self::close)
    /// returns the buffer.
    fn take(&mut self, id: u32) -> Vec<Launched> {
        std::mem::take(&mut self.slots[id as usize].items)
    }

    /// Free slot `id`, keeping the replayed buffer for reuse.
    fn close(&mut self, id: u32, mut items: Vec<Launched>) {
        items.clear();
        self.slots[id as usize].items = items;
        self.free.push(id);
    }

    /// Launch `id`'s items while it is still running at `now`; none once
    /// its completion time has come.
    pub(super) fn running(&self, id: u32, now: f64) -> &[Launched] {
        let slot = &self.slots[id as usize];
        if slot.completion_ms > now + 1e-12 {
            &slot.items
        } else {
            &[]
        }
    }

    /// Drop the copies of `req` (of its `kernel` stage only, when given)
    /// in the launches `ids` still running at `now`: set their `dropped`
    /// bit rather than remove them. Returns whether any copy was not
    /// dropped already, so only the sweep that first drops a copy touches
    /// its device.
    pub(super) fn drop_inflight(
        &mut self,
        ids: &[u32],
        req: usize,
        kernel: Option<KernelId>,
        now: f64,
    ) -> bool {
        let mut fresh = false;
        for &id in ids {
            let n = self.running(id, now).len();
            for it in &mut self.slots[id as usize].items[..n] {
                if it.req() == req && kernel.is_none_or(|k| it.kernel() == k) {
                    fresh |= it.flags & DROPPED == 0;
                    it.flags |= DROPPED;
                }
            }
        }
        fresh
    }
}

impl Simulator {
    /// The device-free step: a healthy device whose busy time is over
    /// starts its next batch, or — still idle after draining its own
    /// queue — poaches from the deepest compatible backlog (dynamic mode
    /// only).
    pub(super) fn device_free(&mut self, dev: usize) {
        if self.devices[dev].healthy && self.devices[dev].busy_until <= self.now {
            self.devices[dev].executing = false;
            self.try_start(dev);
            if !self.devices[dev].executing {
                self.try_steal(dev);
            }
        }
    }

    /// Launch `launch` on `dev` completes: free the device first if the
    /// launch `frees` it now, then complete each item in launch order.
    pub(super) fn launch_done(&mut self, dev: usize, launch: u32, frees: bool) {
        // Off the device's open list before the device starts its next
        // launch (a fail-stop or drain may have taken the list already).
        self.devices[dev].inflight.retain(|&id| id != launch);
        let items = self.launches.take(launch);
        if frees {
            self.device_free(dev);
        }
        for it in &items {
            self.complete(it.req(), it.kernel(), it.attempt, it.flags & HEDGE != 0);
        }
        self.launches.close(launch, items);
    }

    /// Park platforms the current policy does not use: a GPU with no
    /// assigned kernel drops to its deep-idle (low-DVFS, memory parked)
    /// power — the paper's runtime "reduc[es] the GPU operating frequency"
    /// at low load (Section VI-C). [`GPU_PARKED_FRACTION`] of board idle.
    pub(super) fn apply_idle_floors(&mut self) {
        let uses_gpu = self
            .policy
            .impls()
            .iter()
            .any(|i| i.kind == DeviceKind::Gpu);
        for d in &mut self.devices {
            if d.kind == DeviceKind::Gpu && d.healthy {
                d.idle_power_w = if uses_gpu {
                    self.config.gpu_idle_w
                } else {
                    self.config.gpu_idle_w * GPU_PARKED_FRACTION
                };
            }
        }
    }

    /// Slack-aware batch budgets: a kernel's batch may be held open until
    /// `request arrival + budget`, where the budget is what remains of the
    /// QoS bound after the downstream critical path at full-batch
    /// latencies. FPGAs and unbatched implementations never wait.
    pub(super) fn recompute_wait_budgets(&mut self) {
        let order = self.graph.topological_order();
        let mut remaining = vec![0.0_f64; self.graph.len()];
        for &id in order.iter().rev() {
            let tail = self
                .graph
                .successors(id)
                .map(|e| {
                    let differs = self.policy.of(e.from).kind != self.policy.of(e.to).kind;
                    let t = if differs {
                        self.config.pcie.transfer_ms(e.bytes)
                    } else {
                        0.0
                    };
                    t + remaining[e.to.0]
                })
                .fold(0.0_f64, f64::max);
            remaining[id.0] = self.policy.of(id).latency_ms + tail;
        }
        self.batching.wait_budget = (0..self.graph.len())
            .map(|i| {
                let imp = self.policy.of(KernelId(i));
                if imp.kind == DeviceKind::Gpu && imp.batch > 1 {
                    (self.config.latency_bound_ms * 0.6 - remaining[i]).max(0.0)
                } else {
                    0.0
                }
            })
            .collect();
    }

    /// Configure FPGA devices with the policy's bitstreams at time zero,
    /// mirroring how a leaf node pre-provisions accelerators when it
    /// adopts a plan. Devices are split among the policy's FPGA kernels
    /// **proportionally to their service demand** (largest remainder, at
    /// least one each while devices last) — the same split the analytic
    /// capacity model assumes. Later policy changes pay reconfiguration.
    pub(super) fn preload_bitstreams(&mut self) {
        let fpga_kernels: Vec<KernelImpl> = self
            .policy
            .impls()
            .iter()
            .filter(|i| i.kind == DeviceKind::Fpga)
            .copied()
            .collect();
        if fpga_kernels.is_empty() {
            return;
        }
        let fpga_devs: Vec<usize> = self
            .devices
            .iter()
            .enumerate()
            .filter(|(_, d)| d.kind == DeviceKind::Fpga)
            .map(|(i, _)| i)
            .collect();
        let n = fpga_devs.len() as f64;
        let total: f64 = fpga_kernels.iter().map(|k| k.service_ms).sum();
        let mut shares: Vec<f64> = fpga_kernels
            .iter()
            .map(|k| {
                if total > 0.0 {
                    (k.service_ms / total * n).floor().max(1.0)
                } else {
                    1.0
                }
            })
            .collect();
        // Trim if minimums overshoot, then hand out spares to the most
        // loaded kernels.
        while shares.iter().sum::<f64>() > n && shares.iter().any(|&s| s > 1.0) {
            let (idx, _) = shares
                .iter()
                .enumerate()
                .filter(|(_, &s)| s > 1.0)
                .map(|(j, &s)| (j, fpga_kernels[j].service_ms / s))
                .min_by(|a, b| a.1.total_cmp(&b.1))
                .expect("some share above one");
            shares[idx] -= 1.0;
        }
        let mut spare = n - shares.iter().sum::<f64>();
        while spare >= 1.0 {
            let (idx, _) = fpga_kernels
                .iter()
                .enumerate()
                .map(|(j, k)| (j, k.service_ms / shares[j]))
                .max_by(|a, b| a.1.total_cmp(&b.1))
                .expect("non-empty");
            shares[idx] += 1.0;
            spare -= 1.0;
        }
        // The caller rebuilds the route table once the bitstreams are in.
        let mut cursor = fpga_devs.into_iter();
        for (k, &share) in fpga_kernels.iter().zip(&shares) {
            for _ in 0..(share as usize) {
                let Some(dev) = cursor.next() else { return };
                self.devices[dev].loaded = Some((k.kernel, k.impl_index));
                self.devices[dev].idle_power_w = k.idle_power_w;
            }
        }
    }

    /// Start the next batch on device `dev` if it is healthy, idle, and
    /// has work.
    pub(super) fn try_start(&mut self, dev: usize) {
        let now = self.now;
        if !self.devices[dev].healthy {
            return;
        }
        if self.devices[dev].executing && self.devices[dev].busy_until > now {
            return;
        }
        let Some(front) = self.devices[dev].queue.front() else {
            self.devices[dev].executing = false;
            return;
        };
        let kernel = front.kernel();
        let imp: KernelImpl = self.impl_of(kernel, front.alt);
        self.counters.work.batch.events += 1;

        // Deliberate batch formation (DjiNN-style): hold a partial GPU
        // batch open while (a) the oldest request's slack still allows it
        // and (b) the current arrival rate makes further same-kernel work
        // likely within that slack. At light load (b) fails and requests
        // start immediately, keeping the low-load tail flat.
        let b = &self.batching;
        let budget = b.wait_budget.get(kernel.0).copied().unwrap_or(0.0);
        if budget > 0.0 {
            let same = self.devices[dev].queue.kernel_count(kernel);
            let deadline = self.requests.arrival_ms(front.req()) + budget;
            // Queue gate: only hold the batch open when a partial batch is
            // already forming (the device is trending throughput-bound);
            // a lone request at moderate load starts immediately.
            if same >= 2 && same < imp.batch && deadline > now && b.arrival_rate > 0.0 {
                let kind = self.devices[dev].kind;
                let peers = self
                    .devices
                    .iter()
                    .filter(|x| x.kind == kind)
                    .count()
                    .max(1) as f64;
                // Wait only when the batch is expected to fill within the
                // remaining slack; otherwise launch the partial batch now.
                // The rate EWMA only updates on arrivals, so after a burst
                // it stays frozen at its peak and predicts imminent fill
                // forever; the gap since the last arrival is evidence too,
                // and once it exceeds the EWMA's own expected inter-arrival
                // the gap is the better estimate.
                let last = b.last_arrival_ms.expect("a positive rate follows arrivals");
                let gap = (now - last).max(0.01);
                let rate = b.arrival_rate.min(1.0 / gap);
                let fill_ms = f64::from(imp.batch - same) / (rate / peers);
                if now + fill_ms <= deadline {
                    let wake = (now + 1.2 * fill_ms).min(deadline);
                    self.devices[dev].executing = false;
                    self.events
                        .push(wake, EventKind::DeviceFree { dev: ix(dev) });
                    return;
                }
            }
        }
        // Gather up to `batch` queued items of the front's kernel and
        // alternate (GPU batching) in FIFO order: a prefix of the front's
        // lane. Batches are homogeneous in (kernel, alternate) — entries
        // dispatched under different implementations must not share a
        // launch — and everything else keeps its order. The buffer is
        // engine-owned scratch, so batch formation allocates nothing.
        let mut batch = std::mem::take(&mut self.batching.scratch);
        batch.clear();
        let d = &mut self.devices[dev];
        d.queue.take_front_batch(imp.batch as usize, &mut batch);
        self.counters.work.batch.entries += d.queue.take_touched();

        let mut start = now;
        if d.kind == DeviceKind::Fpga && d.loaded != Some((kernel, imp.impl_index)) {
            if d.loaded.is_some() {
                d.reconfigs += 1;
            }
            start += d.reconfig_ms;
            d.loaded = Some((kernel, imp.impl_index));
            self.reroute();
        }
        let derate = self.devices[dev].derate;

        let n = u32::try_from(batch.len()).unwrap_or(u32::MAX);
        {
            let ks = &mut self.kernel_stats[kernel.0];
            ks.executions += 1;
            ks.requests += batch.len();
            for item in &batch {
                ks.queue_wait_ms += (start - item.ready_ms).max(0.0);
            }
        }
        // Size scaling: the batch runs as long as its mean scale factor
        // (GPU lanes run the same launch; the widest input dominates the
        // mean it contributes to), and an FPGA pipeline streams each
        // request for its own scaled service time. At all-nominal sizes
        // every factor is exactly 1.0, the sum is exactly `n`, and both
        // expressions are bit-identical to the unscaled model.
        let scale_sum: f64 = batch
            .iter()
            .map(|it| poly_device::size_scale(imp.kind, self.requests.size(it.req())))
            .sum();
        let scale_mean = scale_sum / f64::from(n.max(1));
        let exec = imp.exec_ms(n) * scale_mean * derate;
        let occupancy = match imp.kind {
            DeviceKind::Gpu => imp.exec_ms(n) * scale_mean,
            DeviceKind::Fpga => imp.service_ms * scale_sum,
        };
        let mut launch = Launch {
            start,
            exec,
            completion: start + exec,
            busy_until: start + occupancy * derate,
        };
        // Pipelined streaming: floor this launch's completion on any
        // still-arriving producer tiles, charge producer-side stalls, and
        // dispatch DAG successors on the first tile instead of the last.
        // Behind `enabled()` so the barrier default stays bit-identical.
        if self.config.pipeline.enabled() {
            self.pipeline_stream(&batch, kernel, imp, &mut launch);
        }
        let (completion, busy_until) = (launch.completion, launch.busy_until);
        self.kernel_stats[kernel.0].busy_ms += busy_until - now;
        self.devices[dev].account_busy(now, busy_until, imp.active_power_w);
        self.booked_busy_mj += imp.active_power_w * (busy_until - now).max(0.0);
        let d = &mut self.devices[dev];
        d.idle_power_w = imp.idle_power_w;
        d.active_power_w = imp.active_power_w;
        d.executing = true;
        d.busy_until = busy_until;

        // One event completes the launch; it frees the device too when
        // both happen at the same instant.
        let frees = busy_until.to_bits() == completion.to_bits();
        if !frees {
            self.events
                .push(busy_until, EventKind::DeviceFree { dev: ix(dev) });
        }
        let launch = self.launches.open(completion);
        self.devices[dev].inflight.push(launch);
        let backend = self.config.backend_label;
        self.obs(|| ObsEvent::ExecStart {
            device: dev,
            device_kind: imp.kind.name(),
            backend,
            kernel: kernel.0,
            impl_index: imp.impl_index,
            batch: batch.len(),
            reconfig_ms: start - now,
            busy_ms: busy_until - now,
            exec_ms: exec,
        });
        if let Some(h) = self.config.lifecycle.hedge {
            self.hedging.record(&h, kernel, completion, &batch);
        }
        for &item in &batch {
            let attempt = self.requests.attempt(item.req(), item.kernel().0);
            self.obs(|| ObsEvent::StageStart {
                req: item.req(),
                kernel: item.kernel().0,
                device: dev,
                attempt,
                hedge: item.hedge,
                queue_wait_ms: (start - item.ready_ms).max(0.0),
                service_ms: completion - start,
            });
            self.launches.slots[launch as usize].items.push(Launched {
                req: ix(item.req()),
                kernel: ix(item.kernel().0),
                attempt,
                flags: if item.hedge { HEDGE } else { 0 },
            });
        }
        self.events.push(
            completion,
            EventKind::LaunchDone {
                dev: ix(dev),
                launch,
                frees,
            },
        );
        batch.clear();
        self.batching.scratch = batch;
    }
}

#[cfg(test)]
mod tests {
    use super::super::testkit::*;
    use super::*;
    use crate::device::ms_to_ns;
    use crate::lifecycle::{BackoffPolicy, HedgeConfig, LifecycleConfig, RetryPolicy};
    use crate::{Policy, SimConfig};
    use poly_sched::Pool;

    /// One GPU, one batch-8 kernel: full-batch latency 80 ms, 20 ms for
    /// a batch of one.
    fn batch8() -> KernelImpl {
        KernelImpl {
            kernel: KernelId(0),
            kind: DeviceKind::Gpu,
            impl_index: 0,
            latency_ms: 80.0,
            latency_single_ms: 20.0,
            service_ms: 10.0,
            batch: 8,
            active_power_w: 200.0,
            idle_power_w: 40.0,
        }
    }

    #[test]
    fn gpu_batches_under_load() {
        // One GPU, batchable kernel: 8 simultaneous arrivals should finish
        // far faster than 8 sequential batch-1 executions.
        let mut s = Simulator::new(
            graph1(),
            &Pool::heterogeneous(1, 0),
            Policy::from_impls(vec![batch8()]),
            SimConfig::default(),
        );
        s.enqueue_arrivals(&[0.0; 8]);
        s.drain();
        let r = s.finish(1000.0);
        assert_eq!(r.completed, 8);
        // First arrival starts a batch of 1 (20 ms); the other 7 form one
        // batch afterwards. Max latency ≈ 20 + exec(7) < 8 × 20.
        assert!(r.latency.max() < 8.0 * 20.0, "{}", r.latency.max());
    }

    #[test]
    fn reconfiguration_thrash_is_modelled() {
        // One FPGA alternating two kernels pays the bitstream swap each
        // time — a second FPGA eliminates the thrash entirely.
        let run = |fpgas: usize| {
            let mut s = sim(
                vec![fpga_impl(0, 10.0), fpga_impl(1, 10.0)],
                Pool::heterogeneous(0, fpgas),
            );
            s.enqueue_arrivals(&(0..20).map(|i| f64::from(i) * 1000.0).collect::<Vec<_>>());
            s.drain();
            s.finish(60_000.0)
        };
        let thrash = run(1);
        let clean = run(2);
        let thrash_reconfigs: usize = thrash.devices.iter().map(|d| d.reconfigs).sum();
        let clean_reconfigs: usize = clean.devices.iter().map(|d| d.reconfigs).sum();
        assert!(thrash_reconfigs >= 10, "{thrash_reconfigs}");
        assert_eq!(clean_reconfigs, 0);
        // Median: every thrashing request pays two swaps; the clean setup
        // only pays the initial bitstream loads on the first request.
        assert!(thrash.latency.p50() > clean.latency.p50() * 5.0);
    }

    // --- batch-hold deferral gate ------------------------------------------

    /// One GPU, one batch-8 kernel with a 40 ms wait budget
    /// (0.6 × 200 ms bound − 80 ms full-batch latency).
    fn hold_sim() -> Simulator {
        Simulator::new(
            graph1(),
            &Pool::heterogeneous(1, 0),
            Policy::from_impls(vec![batch8()]),
            SimConfig::default(),
        )
    }

    /// Queue two same-kernel requests directly (bypassing the arrival
    /// EWMA) so the `same >= 2` gate is reachable with a chosen
    /// `arrival_rate`. Marks the last arrival as "now" so the chosen
    /// rate reads as fresh, not stale.
    fn seed_two(s: &mut Simulator) {
        s.batching.last_arrival_ms = Some(s.now);
        for i in 0..2 {
            let req = s.requests.push_sized(s.now, f64::INFINITY, 1.0);
            assert_eq!(req, i);
            let est_ns = ms_to_ns(s.policy.of(KernelId(0)).service_ms);
            let item = WorkItem::new(req, KernelId(0), s.now, est_ns, 0, false);
            s.devices[0].queue.push_back(item);
        }
    }

    #[test]
    fn batch_hold_skipped_at_zero_arrival_rate() {
        let mut s = hold_sim();
        seed_two(&mut s);
        s.batching.arrival_rate = 0.0;
        s.try_start(0);
        assert!(
            s.devices[0].executing,
            "zero arrival rate must launch immediately, not divide by zero"
        );
    }

    #[test]
    fn batch_hold_skipped_at_near_zero_arrival_rate() {
        // A vanishing rate passes the `> 0` gate but predicts an absurd
        // fill time, so the fill-within-slack check launches immediately.
        let mut s = hold_sim();
        seed_two(&mut s);
        s.batching.arrival_rate = 1e-9;
        s.try_start(0);
        assert!(s.devices[0].executing);
    }

    #[test]
    fn batch_hold_skipped_when_rate_estimate_is_stale() {
        // The EWMA still reads one arrival per ms from an old burst, but
        // nothing has arrived for 12 ms. The gap refutes the estimate
        // (capped rate 1/12), the predicted fill blows the 40 ms budget,
        // and the partial batch launches instead of waiting it out.
        let mut s = hold_sim();
        seed_two(&mut s);
        s.now = 12.0;
        s.batching.arrival_rate = 1.0;
        s.batching.last_arrival_ms = Some(0.0);
        s.try_start(0);
        assert!(s.devices[0].executing, "stale rate must not hold the batch");
    }

    #[test]
    fn batch_hold_skipped_when_deadline_passed() {
        // Requests arrived at t = 0 with a 40 ms budget; at t = 50 the
        // deadline is in the past and the partial batch must launch now.
        let mut s = hold_sim();
        seed_two(&mut s);
        s.now = 50.0;
        s.batching.arrival_rate = 1.0;
        s.try_start(0);
        assert!(s.devices[0].executing);
    }

    #[test]
    fn batch_hold_defers_when_fill_lands_exactly_on_deadline() {
        // fill_ms = (8 − 2) / (0.25 / 1 peer) = 24; at t = 16 the batch
        // fills exactly at the 40 ms deadline (16 + 24 = 40), which the
        // `<=` comparison accepts: the device waits, capped at the
        // deadline, then launches.
        let mut s = hold_sim();
        seed_two(&mut s);
        s.now = 16.0;
        s.batching.last_arrival_ms = Some(s.now); // fresh estimate: an arrival just landed
        s.batching.arrival_rate = 0.25;
        s.try_start(0);
        assert!(!s.devices[0].executing, "batch held open");
        let wake = s.events.peek_time().expect("wake event queued");
        assert_eq!(wake, 40.0, "wake capped at the deadline");
        s.advance_to(40.0);
        assert!(s.devices[0].executing, "partial batch launched at deadline");
        s.drain();
        let r = s.finish(1000.0);
        assert_eq!(r.completed, 2);
    }

    #[test]
    fn burst_after_idle_launches_partial_batches_promptly() {
        // The arrival-rate EWMA only updates on arrivals, so after a
        // synchronized burst followed by silence it stays frozen at its
        // peak. A second burst must not be held the full wait budget on
        // the strength of that stale estimate: the gap since the last
        // arrival caps the rate, so partial batches launch promptly and
        // deadlined requests survive.
        let mut s = Simulator::new(
            graph2(),
            &Pool::heterogeneous(2, 2),
            Policy::from_impls(vec![gpu_impl(0, 40.0, 8), fpga_impl(1, 10.0)]),
            SimConfig {
                lifecycle: LifecycleConfig {
                    deadline_factor: Some(2.0),
                    retry: RetryPolicy::Backoff(BackoffPolicy::default()),
                    hedge: Some(HedgeConfig::default()),
                },
                ..SimConfig::default()
            },
        );
        let warm: Vec<f64> = (0..50).map(|i| i as f64 * 15.0).collect();
        s.enqueue_arrivals(&warm);
        s.advance_to(1000.0);
        let before = s.audit();
        // Quiet gap, then bursts of 32 simultaneous arrivals (the shape a
        // half-open breaker's probe quota or a drained backlog produces).
        for i in 0..5 {
            let t = 10_000.0 + i as f64 * 10_000.0;
            s.enqueue_arrivals(&vec![t; 32]);
            s.advance_to(t + 10_000.0);
        }
        let a = s.audit();
        a.check().expect("audit green");
        assert!(
            a.completed - before.completed > 100,
            "bursts must complete: {}",
            a.completed - before.completed
        );
    }

    /// A batch-8 GPU launch queues one event — its `LaunchDone`, which
    /// also frees the device — where one `DeviceFree` and eight
    /// `Complete` events used to queue, and every count, latency and
    /// joule comes out as before (the pinned values were recorded with
    /// the nine-event engine).
    #[test]
    fn a_batch_of_eight_completes_in_one_event() {
        let mut s = hold_sim();
        s.enqueue_arrivals(&[0.0]);
        s.enqueue_arrivals(&[1.0; 8]);
        // The lone first request runs 0–20 ms; the eight queued behind it
        // launch as one batch when it completes.
        s.advance_to(20.0);
        assert!(s.devices[0].executing);
        assert_eq!(s.events.len(), 1, "one event for the whole launch");
        let r = s.finish(1000.0);
        assert_eq!(
            format!("{:?}", s.counters()),
            "Counters { admitted: 9, completed: 9, timed_out: 0, failed: 0, cancelled: 0, \
             stale_completions: 0, double_terminal: 0, clock_regressions: 0, fault_events: 0, \
             fail_stops: 0, retry: RetryStats { device_retries: 0, exhausted: 0, \
             redistributed: 0, hedges_fired: 0, hedge_wins: 0, steals: 0 }, work: \
             WorkCounters { dispatch: OpCount { events: 9, entries: 0 }, batch: OpCount { \
             events: 2, entries: 9 }, cancel: OpCount { events: 0, entries: 0 }, margin: \
             OpCount { events: 0, entries: 0 } } }"
        );
        let mut want = vec![99.0; 9];
        want[0] = 20.0;
        assert_eq!(r.latency.samples(), want.as_slice());
        assert_eq!(r.energy_j.to_bits(), 4633078116657397760);
        s.audit().check().expect("audit invariants hold");
    }

    #[test]
    fn batch_hold_light_load_drains_without_deferral() {
        // Widely spaced arrivals never form a partial batch (`same >= 2`
        // fails), so every request starts immediately at single-request
        // latency.
        let mut s = hold_sim();
        let arrivals: Vec<f64> = (0..5).map(|i| f64::from(i) * 300.0).collect();
        s.enqueue_arrivals(&arrivals);
        s.drain();
        let r = s.finish(5000.0);
        assert_eq!(r.completed, 5);
        assert!(r.latency.max() < 30.0, "{}", r.latency.max());
    }
}
