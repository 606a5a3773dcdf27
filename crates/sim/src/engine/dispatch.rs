//! Dispatch: where a stage runs. Device selection for one
//! implementation (affinity with spill), the deadline-driven dynamic
//! chooser over the plan's top-k alternates with its downstream margin,
//! and work stealing by idle devices.

use super::Simulator;
use crate::arena::Outcome;
use crate::device::{ms_to_ns, ns_to_ms, DeviceState, WorkItem};
use crate::KernelImpl;
use poly_device::DeviceKind;
use poly_ir::{KernelGraph, KernelId};
use poly_obs::Event as ObsEvent;

/// The hybrid static/dynamic dispatch layer: at dispatch time each
/// request picks among the interval plan's top-k implementations by its
/// own input size and the current per-device queue estimates, and a
/// device going idle with an empty queue steals the newest item from the
/// most backlogged queue it can serve without a bitstream swap. It has
/// no knobs; `SimConfig::dynamic` switches it on.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct DynamicDispatch {}

/// The tables of [`Simulator::downstream_margin`]: what each kernel's
/// walk visits, fixed at construction, and reusable scratch (hot-path
/// allocation elimination).
#[derive(Debug, Clone)]
pub(super) struct Margin {
    /// Per kernel, the kernels reachable from it (itself excluded), in
    /// reverse topological order: every successor of a listed kernel is
    /// listed before it.
    below: Vec<Vec<KernelId>>,
    /// Per-kernel remainder of the downstream critical path.
    rem: Vec<f64>,
    /// Per-kernel price of the best usable implementation.
    price: Vec<f64>,
    /// Per-device backlog right now.
    load: Vec<f64>,
}

impl Margin {
    pub(super) fn new(graph: &KernelGraph) -> Self {
        let n = graph.len();
        let below = (0..n)
            .map(|k| {
                let mut reach = vec![false; n];
                let mut stack = vec![KernelId(k)];
                while let Some(id) = stack.pop() {
                    for e in graph.successors(id) {
                        if !std::mem::replace(&mut reach[e.to.0], true) {
                            stack.push(e.to);
                        }
                    }
                }
                let order = graph.topological_order().iter().rev();
                order.filter(|id| reach[id.0]).copied().collect()
            })
            .collect();
        Self {
            below,
            rem: vec![0.0; n],
            price: vec![0.0; n],
            load: Vec::new(),
        }
    }
}

/// Where work may run right now: the healthy devices of each kind, and
/// the healthy FPGAs holding each loaded bitstream `(kernel,
/// impl_index)`, every list in device-index order. The device chooser,
/// the residency test and the margin's congestion scan read it instead
/// of scanning every device. It is rebuilt wherever a device's `healthy`
/// or `loaded` changes — the time-zero preload, a reconfiguration at
/// batch start, a fail-stop and a recovery — and nowhere else.
#[derive(Debug, Clone, Default)]
pub(super) struct Routes {
    gpus: Vec<usize>,
    fpgas: Vec<usize>,
    /// One entry per bitstream ever loaded, sorted by bitstream. An
    /// entry whose boards all swapped or failed stays, empty, so a
    /// rebuild reuses every buffer: on `fleet-overload` about one launch
    /// in 25 reconfigures its board and rebuilds the table.
    loaded: Vec<((KernelId, usize), Vec<usize>)>,
}

impl Routes {
    /// Refill the table from `devices` as they stand.
    pub(super) fn rebuild(&mut self, devices: &[DeviceState]) {
        self.gpus.clear();
        self.fpgas.clear();
        for (_, devs) in &mut self.loaded {
            devs.clear();
        }
        for (i, d) in devices.iter().enumerate().filter(|(_, d)| d.healthy) {
            match d.kind {
                DeviceKind::Gpu => self.gpus.push(i),
                DeviceKind::Fpga => self.fpgas.push(i),
            }
            let Some(bitstream) = d.loaded.filter(|_| d.kind == DeviceKind::Fpga) else {
                continue;
            };
            match self.loaded.binary_search_by_key(&bitstream, |&(b, _)| b) {
                Ok(at) => self.loaded[at].1.push(i),
                Err(at) => self.loaded.insert(at, (bitstream, vec![i])),
            }
        }
    }

    /// The healthy devices of `kind`.
    fn of_kind(&self, kind: DeviceKind) -> &[usize] {
        match kind {
            DeviceKind::Gpu => &self.gpus,
            DeviceKind::Fpga => &self.fpgas,
        }
    }

    /// The healthy FPGAs holding the `(kernel, impl_index)` bitstream.
    fn holding(&self, kernel: KernelId, impl_index: usize) -> &[usize] {
        self.loaded
            .binary_search_by_key(&(kernel, impl_index), |&(b, _)| b)
            .map_or(&[], |at| &self.loaded[at].1)
    }

    /// Where `imp` of `kernel` may run without a reconfiguration: any
    /// healthy GPU, or the healthy FPGAs holding exactly its bitstream.
    fn runs(&self, kernel: KernelId, imp: &KernelImpl) -> &[usize] {
        match imp.kind {
            DeviceKind::Gpu => &self.gpus,
            DeviceKind::Fpga => self.holding(kernel, imp.impl_index),
        }
    }
}

impl Simulator {
    /// Rebuild the route table from the devices: the one step after any
    /// change to a device's `healthy` or `loaded`.
    pub(super) fn reroute(&mut self) {
        self.routes.rebuild(&self.devices);
    }

    /// Dispatch `req`'s `kernel` stage now: queue it where the chooser
    /// picks and try to start it, or strand it when no device of its
    /// kind is healthy.
    pub(super) fn dispatch(&mut self, req: usize, kernel: KernelId) {
        // The request is already settled (hedge twin finished the stage,
        // or a terminal transition happened while this dispatch was in
        // flight).
        if self.requests.is_settled(req) || self.requests.done(req, kernel.0) {
            return;
        }
        // Doomed work is cancelled at dispatch instead of queued: a stage
        // with no remaining budget cannot produce an in-bound completion.
        if self.now >= self.requests.deadline_ms(req) {
            self.abort_request(req, Outcome::TimedOut);
            return;
        }
        // Snapshot the hedge delay before try_start records this stage's
        // own projected latency into the window — a slow primary must not
        // inflate its own hedge delay.
        let hedge_delay = self.hedge_delay_ms(kernel);
        let pick = self.choose_dispatch(req, kernel, None);
        // Stranded work is priced at its primary implementation.
        let (alt, est_ms) = pick.map_or_else(
            || {
                let imp = self.policy.of(kernel);
                let size = self.requests.size(req);
                (0, imp.service_ms * poly_device::size_scale(imp.kind, size))
            },
            |(_, alt, est_ms)| (alt, est_ms),
        );
        let item = WorkItem::new(req, kernel, self.now, ms_to_ns(est_ms), alt, false);
        // Every device of the required kind is down: park the work until
        // a re-plan or a recovery.
        let Some((dev, ..)) = pick else {
            self.stranded.push(item);
            self.obs(|| ObsEvent::StageStranded {
                req,
                kernel: kernel.0,
            });
            return;
        };
        self.devices[dev].queue.push_back(item);
        if self.recording() {
            let attempt = self.requests.attempt(req, kernel.0);
            self.obs(|| ObsEvent::StageDispatch {
                req,
                kernel: kernel.0,
                device: dev,
                attempt,
                hedge: false,
            });
            if alt != 0 {
                let impl_index = self.impl_of(kernel, alt).impl_index;
                self.obs(|| ObsEvent::DynamicChoice {
                    req,
                    kernel: kernel.0,
                    device: dev,
                    alt,
                    impl_index,
                });
            }
        }
        self.try_start(dev);
        if let Some(delay) = hedge_delay {
            self.maybe_schedule_hedge(req, kernel, delay);
        }
    }

    /// Downstream margin for one request of relative input `size` about
    /// to dispatch `kernel`: the critical path from `kernel` (exclusive)
    /// to the sinks, each node priced at the best implementation the
    /// dispatcher could *actually* use there — the node's primary, or a
    /// top-k FPGA alternate whose bitstream is resident right now (an
    /// open express lane). Each candidate costs its size-scaled
    /// single-request latency plus the current backlog of the least
    /// loaded device it may run on. Pricing only reachable options is
    /// what keeps the margin honest: a nominally fast GPU alternate the
    /// dispatcher will never take (it would land on the plan's scarce
    /// bottleneck device) must not make an at-risk request look safe,
    /// and an unloaded lane costs infinity until someone opens it.
    ///
    /// The walk visits only the kernels reachable from `kernel`, bottom
    /// up, and prices each once; a sink's margin is 0.
    fn downstream_margin(&mut self, kernel: KernelId, size: f64) -> f64 {
        self.counters.work.margin.events += 1;
        let m = &mut self.margin;
        if m.below[kernel.0].is_empty() {
            return 0.0;
        }
        let sg = poly_device::size_scale(DeviceKind::Gpu, size);
        let sf = poly_device::size_scale(DeviceKind::Fpga, size);
        // Per-device backlog right now: busy tail plus queued work, derated.
        let now = self.now;
        m.load.clear();
        m.load.extend(
            self.devices
                .iter()
                .map(|d| (d.busy_until.max(now) - now) + ns_to_ms(d.queue.backlog_ns()) * d.derate),
        );
        // The longest priced path below `id`: successors are walked (and
        // priced) before `id` itself.
        let tail = |m: &Margin, id: KernelId| {
            self.graph
                .successors(id)
                .fold(0.0_f64, |best, e| best.max(m.price[e.to.0] + m.rem[e.to.0]))
        };
        for i in 0..m.below[kernel.0].len() {
            let id = m.below[kernel.0][i];
            m.rem[id.0] = tail(m, id);
            let prim = self.policy.of(id);
            let mut node = f64::INFINITY;
            for imp in self.policy.alts_of(id) {
                let is_primary = imp.kind == prim.kind && imp.impl_index == prim.impl_index;
                // Mirror the dispatch rule exactly: a downstream node
                // runs its primary or escapes through a resident FPGA
                // lane; it never escapes to the GPU.
                if !is_primary && imp.kind != DeviceKind::Fpga {
                    continue;
                }
                // Congestion of the devices this implementation may
                // actually run on: any healthy GPU, or the healthy FPGAs
                // holding exactly this bitstream (infinite if none — an
                // unloaded lane is not an option).
                let cong = self
                    .routes
                    .runs(id, imp)
                    .iter()
                    .fold(f64::INFINITY, |c, &i| c.min(m.load[i]));
                let scale = match imp.kind {
                    DeviceKind::Gpu => sg,
                    DeviceKind::Fpga => sf,
                };
                node = node.min(imp.latency_single_ms * scale + cong);
            }
            m.price[id.0] = node;
        }
        tail(m, kernel)
    }

    /// Device selection for one implementation: affinity-with-spill. Each
    /// kernel has a *home* device among the implementation's platform
    /// (stable hash), which keeps GPU batches of the same kernel together
    /// and avoids convoy effects from interleaving kernel types; heavily
    /// loaded homes spill to the least loaded peer. FPGA devices loaded
    /// with a different bitstream are additionally charged the
    /// reconfiguration time. Returns the winning device together with the
    /// load score it won on (the dynamic chooser compares these across
    /// alternates), or `None` when no device of the required kind is
    /// healthy — the caller strands a primary's work; an alternate's
    /// platform may also be absent from the pool outright (a primary's
    /// never is: construction and policy swaps check it). `exclude`
    /// removes one device from consideration (hedged dispatch must not
    /// double down on the device holding the primary copy).
    pub(super) fn choose_device_for(
        &self,
        imp: &KernelImpl,
        exclude: Option<usize>,
    ) -> Option<(usize, f64)> {
        let kernel = imp.kernel;
        let bitstream = Some((kernel, imp.impl_index));
        let kept = |i: &&usize| Some(**i) != exclude;
        // Pass 1: count the healthy non-excluded peers of the kind and —
        // for FPGAs — the peers already configured for this kernel and
        // whether all of those are backlogged (the route table lists
        // both sets, in index order).
        let peers = self.routes.of_kind(imp.kind);
        let n_peers = peers.iter().filter(kept).count();
        if n_peers == 0 {
            return None;
        }
        let matching = match imp.kind {
            DeviceKind::Gpu => &[],
            DeviceKind::Fpga => self.routes.holding(kernel, imp.impl_index),
        };
        let mut n_matching = 0usize;
        let mut all_backlogged = true;
        for &i in matching.iter().filter(kept) {
            n_matching += 1;
            if self.devices[i].queue.len() < 3 {
                all_backlogged = false;
            }
        }
        // FPGA dispatch is bitstream-sticky: transient queue pressure must
        // not trigger reconfiguration storms (each swap poisons another
        // kernel's home), so only devices already configured for this
        // kernel are eligible — unless none exists (fresh policy), in
        // which case any peer may be reconfigured once. Expansion
        // hysteresis: only consider reconfiguring an additional device
        // when every configured device already has a sustained backlog.
        let restrict = n_matching > 0 && !all_backlogged;
        let (eligible, n_eligible) = if restrict {
            (matching, n_matching)
        } else {
            (peers, n_peers)
        };
        // Pass 2: least-loaded eligible device (strict-less, first min).
        // The home device is the (kernel mod peers)-th eligible device in
        // index order.
        let home_pos = kernel.0 % n_eligible;
        let mut best: Option<(f64, usize)> = None;
        for (pos, &i) in eligible.iter().filter(kept).enumerate() {
            let d = &self.devices[i];
            let home = pos == home_pos;
            // Price the backlog at each queued entry's own expected
            // service time (mixed-cost queues would otherwise be priced
            // uniformly at *this* candidate's service time, under- or
            // over-stating the wait whenever the queue holds other
            // kernels or other sizes). A derated (throttled) device
            // works through its backlog `derate`× slower, so weight the
            // sum accordingly. The queue keeps that sum running in whole
            // nanoseconds, so it is exact and costs nothing to read.
            let mut score = d.busy_until.max(self.now) + ns_to_ms(d.queue.backlog_ns()) * d.derate;
            if !home && d.kind == DeviceKind::Gpu {
                // GPU spill only pays off when the home is congested by
                // more than one average execution (batch locality); FPGA
                // spill cost is the reconfiguration term below.
                score += imp.latency_ms;
            }
            if d.kind == DeviceKind::Fpga && d.loaded.is_some() && d.loaded != bitstream {
                score += d.reconfig_ms;
            }
            if best.is_none_or(|(bs, _)| score < bs) {
                best = Some((score, i));
            }
        }
        best.map(|(s, i)| (i, s))
    }

    /// Resolve the implementation a queued entry was dispatched under:
    /// alternate `alt` of the policy's top-k list for `kernel`, falling
    /// back to the primary when a re-plan shrank the list underneath an
    /// already-queued entry.
    pub(super) fn impl_of(&self, kernel: KernelId, alt: u8) -> KernelImpl {
        let alts = self.policy.alts_of(kernel);
        alts.get(alt as usize).copied().unwrap_or(alts[0])
    }

    /// Dispatch-time device/implementation choice for one request of
    /// relative input `size`: returns `(device, alternate, expected
    /// occupancy ms)`.
    ///
    /// With the dynamic layer off (no [`DynamicDispatch`] config or no
    /// alternates attached to the policy) this reduces exactly to the
    /// static plan: the primary implementation on the device
    /// `choose_device_for` picks.
    ///
    /// With it on, the chooser is *deadline-driven*: the primary is the
    /// interval plan's power-optimal pick, so it stays in force whenever
    /// this request's projected completion — queue score plus size-scaled
    /// execution plus the downstream critical path at this request's size
    /// — still meets the request's QoS target. Only a request the static
    /// plan is about to sink (an oversized input, or a burst victim
    /// behind a deep backlog) is repriced across the top-k alternates,
    /// and it escapes only to an alternate that (a) needs no FPGA
    /// reconfiguration — bitstream swaps poison a loaded kernel's home
    /// and storm under exactly the burst pressure that triggers escapes —
    /// and (b) is itself projected to *make* the target. Among saving
    /// alternates the cheapest by per-item active energy wins (ties keep
    /// the earliest alternate, for determinism): rescue is an exception
    /// path and should cost as little power as possible. A doomed request
    /// that no alternate can save stays on the power-optimal primary
    /// rather than burning a fast implementation's energy on a lost
    /// cause.
    pub(super) fn choose_dispatch(
        &mut self,
        req: usize,
        kernel: KernelId,
        exclude: Option<usize>,
    ) -> Option<(usize, u8, f64)> {
        self.counters.work.dispatch.events += 1;
        let size = self.requests.size(req);
        let dynamic = self.config.dynamic.is_some() && self.policy.has_alternates();
        let primary = *self.policy.of(kernel);
        let primary_scale = poly_device::size_scale(primary.kind, size);
        let primary_est = primary.service_ms * primary_scale;
        let primary_pick = self.choose_device_for(&primary, exclude);
        if !dynamic {
            return primary_pick.map(|(dev, _)| (dev, 0, primary_est));
        }
        // Absolute QoS target, and the downstream critical path (rescaled
        // to this request's size) that must still fit after this stage.
        let target = self.requests.arrival_ms(req) + self.config.latency_bound_ms;
        let margin = self.downstream_margin(kernel, size);
        if let Some((dev, score)) = primary_pick {
            let projected = score + primary.latency_single_ms * primary_scale;
            if projected + margin <= target {
                return Some((dev, 0, primary_est));
            }
        }
        // No feasible rescue leaves a *shed*: if the primary cannot make
        // the target either, the request is doomed — it will violate no
        // matter where it runs. A doomed request owes the system two
        // things: cost as little energy as possible, and get out of the
        // way of requests that can still be saved. Both point the same
        // direction: shed the stage to a resident FPGA alternate whenever
        // that is strictly cheaper per item than the primary — which in
        // practice moves a doomed request's GPU stages (hundreds of watts
        // on the plan's bottleneck device) onto an idle leftover bitstream
        // at tens of watts, freeing the GPU for requests with live
        // deadlines. Feasibility is deliberately not checked: the request
        // misses either way, and slower-but-cheaper is exactly the right
        // trade for a lost cause.
        let primary_energy = primary.latency_single_ms * primary_scale * primary.active_power_w;
        // (energy, projected completion, device, alternate, occupancy).
        let mut rescue: Option<(f64, f64, usize, u8, f64)> = None;
        // (energy, device, alternate, occupancy).
        let mut shed: Option<(f64, usize, u8, f64)> = None;
        for (alt, imp) in self.policy.alts_of(kernel).iter().enumerate().skip(1) {
            // Escapes are FPGA-lane-only. Every empirical variant of
            // GPU-targeted rescue lost: at high load the lone GPU *is*
            // the plan (k0/k3 of every request funnel through it), and
            // even at low load escapes fire during exactly the bursts
            // that precede plan escalation, so the "parked" GPU they
            // pile onto is about to become the bottleneck.
            if imp.kind != DeviceKind::Fpga || !self.fpga_loaded(kernel, imp.impl_index) {
                continue;
            }
            // Alternates on platforms absent from the pool are skipped.
            let Some((dev, score)) = self.choose_device_for(imp, exclude) else {
                continue;
            };
            // Strict residency: the escape runs only on a device already
            // holding this exact bitstream. `choose_device_for` may spill
            // to an unconfigured peer when the lane is backlogged; taking
            // that pick would reconfigure a device mid-burst (poisoning
            // whatever home it had) — the one storm the lane design
            // exists to avoid. A full lane means no escape this time.
            if self.devices[dev].loaded != Some((kernel, imp.impl_index)) {
                continue;
            }
            let scale = poly_device::size_scale(imp.kind, size);
            let alt = u8::try_from(alt).unwrap_or(u8::MAX);
            let energy = imp.latency_single_ms * scale * imp.active_power_w;
            let projected = score + imp.latency_single_ms * scale;
            if projected + margin <= target
                && rescue.is_none_or(|(e, p, ..)| (energy, projected) < (e, p))
            {
                rescue = Some((energy, projected, dev, alt, imp.service_ms * scale));
            }
            if energy < primary_energy && shed.is_none_or(|(e, ..)| energy < e) {
                shed = Some((energy, dev, alt, imp.service_ms * scale));
            }
        }
        if let Some((_, _, dev, alt, est_ms)) = rescue {
            return Some((dev, alt, est_ms));
        }
        let doomed = primary_pick.is_none_or(|(_, score)| {
            score + primary.latency_single_ms * primary_scale + margin > target
        });
        if let (true, Some((_, dev, alt, est_ms))) = (doomed, shed) {
            return Some((dev, alt, est_ms));
        }
        primary_pick.map(|(dev, _)| (dev, 0, primary_est))
    }

    /// Whether any healthy FPGA currently holds the `(kernel,
    /// impl_index)` bitstream. Dynamic escapes only target already-loaded
    /// bitstreams — an escape must never trigger a reconfiguration.
    fn fpga_loaded(&self, kernel: KernelId, impl_index: usize) -> bool {
        !self.routes.holding(kernel, impl_index).is_empty()
    }

    /// Work stealing (dynamic mode only): an idle device poaches the
    /// *youngest* entry from the deepest compatible backlog. Steals are
    /// *same-implementation only* — the thief must be able to run the
    /// entry exactly as priced (same platform; for FPGAs, the bitstream
    /// already loaded), so a steal is a pure queue migration: identical
    /// execution and energy, strictly less waiting. Cross-platform
    /// steals are deliberately excluded — re-pricing a queued entry onto
    /// the other platform's alternate either pays a reconfiguration or
    /// drags work onto the plan's scarce fast device, both of which
    /// showed up as net losses under burst pressure. Stealing the queue
    /// tail (not the head) preserves the victim's batch currently
    /// forming at the front.
    pub(super) fn try_steal(&mut self, dev: usize) {
        if self.config.dynamic.is_none() || !self.policy.has_alternates() {
            return;
        }
        let thief_kind = self.devices[dev].kind;
        let thief_loaded = self.devices[dev].loaded;
        if !self.devices[dev].healthy
            || self.devices[dev].executing
            || !self.devices[dev].queue.is_empty()
        {
            return;
        }
        // Deepest victim with at least two waiting entries whose tail can
        // run on the thief (strict-greater, first max: deterministic).
        let mut best: Option<(usize, usize)> = None;
        for (v, d) in self.devices.iter().enumerate() {
            if v == dev || d.queue.len() < 2 {
                continue;
            }
            let Some(item) = d.queue.back() else { continue };
            if item.hedge {
                continue; // hedge copies are placement-pinned by design
            }
            let imp = self.impl_of(item.kernel(), item.alt);
            let movable = imp.kind == thief_kind
                && (thief_kind != DeviceKind::Fpga
                    || thief_loaded == Some((item.kernel(), imp.impl_index)));
            if !movable {
                continue;
            }
            if best.is_none_or(|(bl, _)| d.queue.len() > bl) {
                best = Some((d.queue.len(), v));
            }
        }
        let Some((_, victim)) = best else {
            return;
        };
        let item = self.devices[victim]
            .queue
            .pop_back()
            .expect("victim queue checked non-empty");
        self.counters.work.dispatch.entries += self.devices[victim].queue.take_touched();
        self.devices[dev].queue.push_back(item);
        self.counters.retry.steals += 1;
        self.obs(|| ObsEvent::WorkSteal {
            req: item.req(),
            kernel: item.kernel().0,
            from: victim,
            to: dev,
        });
        self.try_start(dev);
    }
}

/// Two tables route alike when they list the same devices; the empty
/// entries a rebuild keeps do not count.
#[cfg(test)]
impl PartialEq for Routes {
    fn eq(&self, other: &Self) -> bool {
        let live = |r: &Self| {
            r.loaded
                .iter()
                .filter(|(_, devs)| !devs.is_empty())
                .cloned()
                .collect::<Vec<_>>()
        };
        self.gpus == other.gpus && self.fpgas == other.fpgas && live(self) == live(other)
    }
}

#[cfg(test)]
impl Simulator {
    /// The margin as it was first written, kept as the oracle of
    /// [`downstream_margin`](Self::downstream_margin): the whole graph
    /// walked bottom up, a node priced once per incoming edge, and every
    /// device scanned for each implementation's congestion.
    fn downstream_margin_full_graph(&self, kernel: KernelId, size: f64) -> f64 {
        let sg = poly_device::size_scale(DeviceKind::Gpu, size);
        let sf = poly_device::size_scale(DeviceKind::Fpga, size);
        let now = self.now;
        let load: Vec<f64> = self
            .devices
            .iter()
            .map(|d| (d.busy_until.max(now) - now) + ns_to_ms(d.queue.backlog_ns()) * d.derate)
            .collect();
        let mut rem = vec![0.0; self.graph.len()];
        for &id in self.graph.topological_order().iter().rev() {
            let mut best = 0.0_f64;
            for e in self.graph.successors(id) {
                let prim = self.policy.of(e.to);
                let mut node = f64::INFINITY;
                for imp in self.policy.alts_of(e.to) {
                    let is_primary = imp.kind == prim.kind && imp.impl_index == prim.impl_index;
                    if !is_primary && imp.kind != DeviceKind::Fpga {
                        continue;
                    }
                    let mut cong = f64::INFINITY;
                    for (i, d) in self.devices.iter().enumerate() {
                        if !d.healthy {
                            continue;
                        }
                        let ok = match imp.kind {
                            DeviceKind::Gpu => d.kind == DeviceKind::Gpu,
                            DeviceKind::Fpga => d.loaded == Some((e.to, imp.impl_index)),
                        };
                        if ok {
                            cong = cong.min(load[i]);
                        }
                    }
                    let scale = match imp.kind {
                        DeviceKind::Gpu => sg,
                        DeviceKind::Fpga => sf,
                    };
                    node = node.min(imp.latency_single_ms * scale + cong);
                }
                best = best.max(node + rem[e.to.0]);
            }
            rem[id.0] = best;
        }
        rem[kernel.0]
    }
}

#[cfg(test)]
mod tests {
    use super::super::testkit::*;
    use super::*;
    use crate::device::{ms_to_ns, WorkItem};
    use crate::fault::FaultPlan;
    use crate::metrics::RetryStats;
    use crate::{DynamicDispatch, Policy, SimConfig, SimReport};
    use poly_ir::{KernelBuilder, KernelGraphBuilder, OpFunc, PatternKind, Shape};
    use poly_sched::Pool;
    use rand::{Rng, SeedableRng};
    use rand_chacha::ChaCha8Rng;

    /// The route table matches a fresh scan of the devices after the
    /// time-zero preload, a reconfiguration, a fail-stop and a recovery,
    /// and each of those moves the devices it should.
    #[test]
    fn route_table_tracks_health_and_bitstreams() {
        let mut s = sim(
            vec![fpga_impl(0, 10.0), fpga_impl(1, 10.0)],
            Pool::heterogeneous(1, 2),
        );
        let fresh = |s: &Simulator| {
            let mut routes = Routes::default();
            routes.rebuild(&s.devices);
            routes
        };
        // Preload: one FPGA per kernel.
        assert_eq!(s.routes, fresh(&s));
        assert_eq!(
            (s.routes.gpus.as_slice(), s.routes.fpgas.as_slice()),
            (&[0][..], &[1, 2][..])
        );
        assert_eq!(s.routes.holding(KernelId(0), 0), &[1]);
        assert_eq!(s.routes.holding(KernelId(1), 0), &[2]);
        // A re-plan onto a second kernel-0 bitstream reconfigures a board
        // at its first batch.
        let swapped = KernelImpl {
            impl_index: 1,
            ..fpga_impl(0, 10.0)
        };
        s.set_policy(Policy::from_impls(vec![swapped, fpga_impl(1, 10.0)]));
        s.enqueue_arrivals(&[0.0]);
        s.advance_to(1.0);
        assert_eq!(s.routes, fresh(&s));
        assert_eq!(s.routes.holding(KernelId(0), 1), &[1], "reconfigured");
        assert!(s.routes.holding(KernelId(0), 0).is_empty());
        // Fail-stop, then recovery, of the reconfigured board.
        s.inject_faults(&FaultPlan::new().fail_stop(2.0, 1).recover(3.0, 1));
        s.advance_to(2.0);
        assert_eq!(s.routes, fresh(&s));
        assert_eq!(s.routes.fpgas, vec![2], "the failed board is out");
        // Its killed batch retried onto board 2, which reconfigured.
        assert_eq!(s.routes.holding(KernelId(0), 1), &[2]);
        s.advance_to(3.0);
        assert_eq!(s.routes, fresh(&s));
        assert_eq!(
            s.routes.fpgas,
            vec![1, 2],
            "the recovered board is back, cold"
        );
        s.drain();
        assert_eq!(s.routes, fresh(&s));
    }

    /// A five-kernel diamond with fan-in: `a → {b, c} → d`, plus `a → d`
    /// and `e → d`, so `d` has three producers and `a` reaches it by
    /// three paths.
    fn diamond() -> KernelGraph {
        let k = KernelBuilder::new("a")
            .pattern("m", PatternKind::Map, Shape::d1(1024), &[OpFunc::Mac])
            .build()
            .unwrap();
        let mut g = KernelGraphBuilder::new("diamond").kernel(k.clone());
        for name in ["b", "c", "d", "e"] {
            g = g.kernel(k.with_name(name));
        }
        for (from, to) in [
            ("a", "b"),
            ("a", "c"),
            ("b", "d"),
            ("c", "d"),
            ("a", "d"),
            ("e", "d"),
        ] {
            g = g.edge(from, to, 1 << 20);
        }
        g.build().unwrap()
    }

    /// The descendant-only margin equals the full-graph oracle bit for
    /// bit on ASR, image recognition and the diamond, over random
    /// policies with resident-lane alternates, random device backlogs,
    /// health, derates and loaded bitstreams, and random request sizes.
    #[test]
    fn margin_matches_the_full_graph_oracle() {
        let mut rng = ChaCha8Rng::seed_from_u64(24);
        for graph in [poly_apps::asr(), poly_apps::image_recognition(), diamond()] {
            let n = graph.len();
            for _ in 0..40 {
                let lat = |rng: &mut ChaCha8Rng| rng.gen_range(1.0..60.0);
                let primaries: Vec<KernelImpl> = (0..n)
                    .map(|k| {
                        if rng.gen_bool(0.5) {
                            gpu_impl(k, lat(&mut rng), 8)
                        } else {
                            fpga_impl(k, lat(&mut rng))
                        }
                    })
                    .collect();
                let alts = primaries
                    .iter()
                    .enumerate()
                    .map(|(k, &p)| {
                        let mut list = vec![p];
                        for impl_index in 1..4 {
                            let base = if impl_index == 3 {
                                gpu_impl(k, lat(&mut rng), 4)
                            } else {
                                fpga_impl(k, lat(&mut rng))
                            };
                            list.push(KernelImpl { impl_index, ..base });
                        }
                        list
                    })
                    .collect();
                let policy = Policy::from_impls(primaries).with_alternate_impls(alts);
                let mut s = Simulator::new(
                    graph.clone(),
                    &Pool::heterogeneous(2, 5),
                    policy,
                    SimConfig::default(),
                );
                s.now = rng.gen_range(0.0..50.0);
                for d in &mut s.devices {
                    d.healthy = rng.gen_bool(0.8);
                    d.busy_until = rng.gen_range(0.0..100.0);
                    d.derate = if rng.gen_bool(0.3) { 2.5 } else { 1.0 };
                    if d.kind == DeviceKind::Fpga {
                        let k = KernelId(rng.gen_range(0..n));
                        d.loaded = rng.gen_bool(0.9).then(|| (k, rng.gen_range(0..3)));
                    }
                    for _ in 0..rng.gen_range(0..6) {
                        let est = ms_to_ns(rng.gen_range(0.5..40.0));
                        d.queue
                            .push_back(WorkItem::new(0, KernelId(0), 0.0, est, 0, false));
                    }
                }
                s.reroute();
                for k in (0..n).map(KernelId) {
                    let size = rng.gen_range(0.2..6.0);
                    let want = s.downstream_margin_full_graph(k, size);
                    let got = s.downstream_margin(k, size);
                    assert_eq!(
                        got.to_bits(),
                        want.to_bits(),
                        "{} {k}: {got} vs {want}",
                        graph.name()
                    );
                }
            }
        }
    }

    /// Regression for the queue-delay estimate: pricing every queued
    /// entry at the *candidate's* `service_ms` (the old formula) sees a
    /// queue of one 100 ms entry as "one × 10 ms" and misroutes new work
    /// onto the device with the expensive backlog. Summing each entry's
    /// own estimate routes to the genuinely shorter queue.
    #[test]
    fn mixed_cost_queue_estimate_routes_to_cheapest_backlog() {
        let mut s = sim(
            vec![gpu_impl(0, 10.0, 1), gpu_impl(1, 10.0, 1)],
            Pool::heterogeneous(2, 0),
        );
        // Home for kernel 0 is device 0; it holds one expensive queued
        // stage (est 100 ms). Device 1 holds two cheap ones (1 ms each).
        for (dev, est) in [(0usize, 100.0), (1, 1.0), (1, 1.0)] {
            s.devices[dev].queue.push_back(WorkItem::new(
                0,
                KernelId(1),
                0.0,
                ms_to_ns(est),
                0,
                false,
            ));
        }
        let imp = gpu_impl(0, 10.0, 1);
        let (dev, score) = s.choose_device_for(&imp, None).expect("healthy GPUs exist");
        // New pricing: dev0 = 100, dev1 = 2 + 10 (spill) = 12. The old
        // per-candidate formula gave dev0 = 1×10 = 10 vs dev1 = 2×10 +
        // 10 = 30 and picked the 100 ms backlog.
        assert_eq!(dev, 1, "must avoid the expensive backlog");
        assert!((score - 12.0).abs() < 1e-9, "score {score}");
    }

    /// A policy for the dynamic-layer tests: GPU front stage with an
    /// FPGA alternate, FPGA back stage with a second (faster, hungrier)
    /// FPGA implementation as its alternate.
    fn dyn_policy() -> Policy {
        let p0 = gpu_impl(0, 40.0, 8);
        let p1 = fpga_impl(1, 12.0);
        let alt0 = KernelImpl {
            impl_index: 1,
            ..fpga_impl(0, 30.0)
        };
        let alt1 = KernelImpl {
            impl_index: 1,
            latency_ms: 8.0,
            latency_single_ms: 8.0,
            service_ms: 7.2,
            active_power_w: 60.0,
            ..fpga_impl(1, 8.0)
        };
        Policy::from_impls(vec![p0, p1]).with_alternate_impls(vec![vec![p0, alt0], vec![p1, alt1]])
    }

    fn burst_arrivals() -> Vec<f64> {
        // Bursty: ramped clumps that backlog the GPU batch stage.
        (0..200).map(|i| f64::from(i / 8) * 20.0).collect()
    }

    fn sizes_for(n: usize) -> Vec<f64> {
        crate::workload::SizeDist::heavy_tail().sample(n, 7)
    }

    fn run_dyn(policy: Policy, dynamic: Option<DynamicDispatch>) -> (SimReport, RetryStats) {
        let mut s = Simulator::new(
            graph2(),
            &Pool::heterogeneous(1, 2),
            policy,
            SimConfig {
                dynamic,
                ..SimConfig::default()
            },
        );
        let arrivals = burst_arrivals();
        let sizes = sizes_for(arrivals.len());
        s.enqueue_arrivals_sized(&arrivals, &sizes);
        s.drain();
        s.audit().check().expect("audit invariants hold");
        (s.finish(60_000.0), s.retry_stats())
    }

    /// With the dynamic layer off, carrying alternates must change
    /// nothing, and turning the knob on without alternates must be
    /// equally inert — both reduce to the static plan bit-for-bit.
    #[test]
    fn dynamic_off_is_byte_identical_to_static() {
        let (baseline, _) = run_dyn(
            Policy::from_impls(vec![gpu_impl(0, 40.0, 8), fpga_impl(1, 12.0)]),
            None,
        );
        let (with_alts, _) = run_dyn(dyn_policy(), None);
        let (knob_only, _) = run_dyn(
            Policy::from_impls(vec![gpu_impl(0, 40.0, 8), fpga_impl(1, 12.0)]),
            Some(DynamicDispatch::default()),
        );
        for (name, r) in [("alternates-off", &with_alts), ("knob-no-alts", &knob_only)] {
            assert_eq!(r.completed, baseline.completed, "{name}");
            assert_eq!(r.energy_j.to_bits(), baseline.energy_j.to_bits(), "{name}");
            let (a, b) = (baseline.latency.samples(), r.latency.samples());
            assert_eq!(a.len(), b.len(), "{name}");
            assert!(
                a.iter().zip(b).all(|(x, y)| x.to_bits() == y.to_bits()),
                "{name}: latency stream diverged"
            );
        }
    }

    /// The dynamic chooser is deterministic: two identical runs produce
    /// bit-identical latency streams, energy, and steal counts.
    #[test]
    fn dynamic_chooser_is_deterministic() {
        let (a, a_retry) = run_dyn(dyn_policy(), Some(DynamicDispatch::default()));
        let (b, b_retry) = run_dyn(dyn_policy(), Some(DynamicDispatch::default()));
        assert_eq!(a.completed, b.completed);
        assert_eq!(a.energy_j.to_bits(), b.energy_j.to_bits());
        assert_eq!(a_retry.steals, b_retry.steals);
        assert!(a
            .latency
            .samples()
            .iter()
            .zip(b.latency.samples())
            .all(|(x, y)| x.to_bits() == y.to_bits()));
    }

    /// Work stealing is a pure same-implementation queue migration: an
    /// idle device with the right bitstream takes the tail of the
    /// deepest backlog, unchanged.
    #[test]
    fn steal_migrates_tail_to_idle_same_impl_device() {
        let mut s = Simulator::new(
            graph2(),
            &Pool::heterogeneous(0, 2),
            Policy::from_impls(vec![fpga_impl(0, 10.0), fpga_impl(1, 20.0)])
                .with_alternate_impls(vec![vec![fpga_impl(0, 10.0)], vec![fpga_impl(1, 20.0)]]),
            SimConfig {
                dynamic: Some(DynamicDispatch::default()),
                ..SimConfig::default()
            },
        );
        // A far-future arrival materializes request 0 in the arena so a
        // stolen stage can actually start on the thief.
        s.enqueue_arrivals(&[1e9]);
        // Both devices hold kernel 0's bitstream; device 1 has the
        // backlog, device 0 is idle.
        s.devices[0].loaded = Some((KernelId(0), 0));
        s.devices[1].loaded = Some((KernelId(0), 0));
        s.reroute();
        let item = WorkItem::new(0, KernelId(0), 0.0, ms_to_ns(9.0), 0, false);
        // One queued entry is below the two-entry floor: no steal.
        s.devices[1].queue.push_back(item);
        s.try_steal(0);
        assert_eq!(
            s.counters.retry.steals, 0,
            "single-entry queues are not farmed"
        );
        // Two entries: the thief takes the tail and starts it; the
        // victim keeps its front.
        s.devices[1].queue.push_back(item);
        s.try_steal(0);
        assert_eq!(s.counters.retry.steals, 1);
        assert_eq!(
            s.devices[0].queue.len() + s.devices[0].inflight.len(),
            1,
            "tail moved to the thief"
        );
        assert_eq!(s.devices[1].queue.len(), 1, "victim keeps its front");
    }
}
