//! One leaf node of the cluster: per-tenant Poly stacks — each a
//! [`Tenant`] (application, control loop, discrete-event simulator) —
//! stepped interval by interval by the [`Cluster`](crate::Cluster)
//! driver instead of owning their own trace loop. The re-planning logic
//! (degraded-pool detection, change hysteresis, model feedback) and the
//! interval step are the same `Tenant` `poly_core::PolyRuntime` drives;
//! what the node adds is the externally imposed power cap from the
//! cluster governor (a capped loop), the fail-stop / drain / recover
//! lifecycle the front-end router observes, and multi-tenancy: a node may
//! host several [`AppContext`]s (distinct DAGs, distinct latency bounds,
//! distinct QoS weights) sharing its hardware.
//!
//! The node keeps its contexts; everything that lives for one replay —
//! the tenants, the imposed cap, health and serving state — is built by
//! [`ClusterNode::begin_replay_multi`], so a node replayed again starts
//! exactly where a new node would.
//!
//! ## Tenancy model
//!
//! Each tenant runs a private simulator over the node's full device
//! pool — a fractional time-multiplexing approximation: tenants share
//! the boards in time, and contention is modeled through the power
//! split (a tenant squeezed to a small share of the node cap plans a
//! slower, cooler policy). The node's cap is split across tenants every
//! interval by the same weighted water-fill the cluster governor uses
//! across nodes, with demand = the tenant monitor's load EWMA × its
//! QoS weight. Reported node power dedups the idle draw of the shared
//! hardware (each private simulator accounts the boards' idle power;
//! the physical node pays it once), so a single-tenant node reports
//! exactly what it always did.

use poly_core::{AppContext, NodeSetup, Tenant};
use poly_obs::Recorder;
use poly_sim::{FaultPlan, LifecycleConfig};

use crate::governor::{weighted_water_fill, NodeShare};

/// What happened to a node at an interval boundary.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum NodeTransition {
    /// Health unchanged since the last boundary.
    Steady,
    /// Every device fail-stopped: the node is down. Carries the number of
    /// in-flight/queued requests drained for the router to redistribute
    /// (summed across tenants — [`ClusterNode::last_drained_per_class`]
    /// has the per-class breakdown).
    WentDown(usize),
    /// A previously down node has at least one healthy device again.
    CameBack,
}

/// One interval's measurements from a node, as reported to the cluster.
/// Counts are summed across the node's tenants; power and energy are
/// idle-deduped to the physical node (see the module docs).
#[derive(Debug, Clone, PartialEq)]
pub struct NodeIntervalStats {
    /// Requests completed during the interval.
    pub completed: usize,
    /// Completions over the QoS bound (each tenant judged against its
    /// own bound).
    pub violations: usize,
    /// Mean node power over the interval, in watts.
    pub avg_power_w: f64,
    /// Node energy over the interval, in joules.
    pub energy_j: f64,
    /// Healthy devices at interval end.
    pub healthy_devices: usize,
    /// Requests abandoned during the interval because their deadline
    /// passed (zero unless the node's lifecycle config sets deadlines).
    pub timed_out: usize,
    /// Per-class (completed, violations) breakdown, tenant-indexed.
    pub per_class: Vec<(usize, usize)>,
}

/// A leaf node: provisioned hardware plus one private Poly control loop
/// per hosted tenant.
#[derive(Debug)]
pub struct ClusterNode {
    /// One application context per hosted tenant.
    ctxs: Vec<AppContext>,
    /// Telemetry sink of the next replay; a clone is attached to each
    /// tenant simulator at `begin_replay_multi`.
    recorder: Option<Box<dyn Recorder>>,
    /// The current replay's tenants (none before the first replay).
    tenants: Vec<Tenant>,
    /// Cap currently imposed by the cluster governor (starts at the
    /// node's provisioned cap).
    power_cap_w: f64,
    down: bool,
    /// Administrative serving flag: `false` while the node is scaled
    /// down, warming, or drained ahead of a revocation. Unlike `down`
    /// (hardware fail-stop), an inactive node is healthy — the router
    /// just must not send it traffic, and the governor gives it no
    /// load-proportional share.
    active: bool,
    /// When warming up, the absolute time serving starts.
    warming_until_ms: Option<f64>,
    /// Per-class drain counts of the last `WentDown` / `drain` call.
    last_drained: Vec<usize>,
    /// Intervals run since `begin_replay_multi` (telemetry).
    interval_idx: usize,
    /// Merged-sample scratch for multi-tenant percentiles, recycled.
    merged_samples: Vec<f64>,
}

impl ClusterNode {
    /// Node hosting one tenant per entry of `ctxs`, sharing its
    /// hardware. Every context must be provisioned on the same setup
    /// (the first entry's pool and cap define the node).
    ///
    /// # Panics
    /// Panics if `ctxs` is empty.
    #[must_use]
    pub fn new_multi(ctxs: Vec<AppContext>) -> Self {
        assert!(!ctxs.is_empty(), "node needs at least one tenant");
        Self::starting(ctxs, None, Vec::new())
    }

    /// The node over `ctxs` running `tenants`, in the state every replay
    /// starts from: serving, healthy, at its provisioned cap. The one
    /// place the per-replay fields are set.
    fn starting(
        ctxs: Vec<AppContext>,
        recorder: Option<Box<dyn Recorder>>,
        tenants: Vec<Tenant>,
    ) -> Self {
        Self {
            power_cap_w: ctxs[0].setup().power_cap_w,
            down: false,
            active: true,
            warming_until_ms: None,
            last_drained: vec![0; ctxs.len()],
            interval_idx: 0,
            merged_samples: Vec::new(),
            ctxs,
            recorder,
            tenants,
        }
    }

    /// Number of tenants hosted on this node.
    #[must_use]
    pub fn tenant_count(&self) -> usize {
        self.ctxs.len()
    }

    /// The node's provisioned setup (the first tenant's).
    #[must_use]
    pub fn setup(&self) -> &NodeSetup {
        self.ctxs[0].setup()
    }

    /// QoS-class label of tenant `class`.
    ///
    /// # Panics
    /// Panics if `class` is out of range.
    #[must_use]
    pub fn tenant_label(&self, class: usize) -> &'static str {
        self.ctxs[class].tenant()
    }

    /// QoS weight of tenant `class`.
    #[must_use]
    pub fn tenant_weight(&self, class: usize) -> f64 {
        self.ctxs[class].qos_weight()
    }

    /// Whether the node is currently fail-stopped.
    #[must_use]
    pub fn is_down(&self) -> bool {
        self.down
    }

    /// Whether the node is administratively serving (scaled in, warmed
    /// up, not draining for a revocation).
    #[must_use]
    pub fn is_active(&self) -> bool {
        self.active
    }

    /// Whether the node is routable: serving and not fail-stopped. A
    /// warming node is *not* routable until `maintain_at` passes its
    /// warm-up deadline.
    #[must_use]
    pub fn is_routable(&self) -> bool {
        self.active && !self.down && self.warming_until_ms.is_none()
    }

    /// Whether the node is warming up.
    #[must_use]
    pub fn is_warming(&self) -> bool {
        self.warming_until_ms.is_some()
    }

    /// Predicted sustainable capacity under the current policy, in RPS
    /// (0 before the first replay), summed across tenants.
    #[must_use]
    pub fn capacity_rps(&self) -> f64 {
        self.tenants
            .iter()
            .map(|t| t.control().predicted().capacity_rps)
            .sum()
    }

    /// Predicted sustainable capacity of tenant `class`, in RPS (panics
    /// before the first replay).
    #[must_use]
    pub fn capacity_rps_of(&self, class: usize) -> f64 {
        self.tenants[class].control().predicted().capacity_rps
    }

    /// The governor-imposed power cap, in watts.
    #[must_use]
    pub fn power_cap_w(&self) -> f64 {
        self.power_cap_w
    }

    /// Work items queued on the node right now, summed across tenants.
    #[must_use]
    pub fn queued(&self) -> usize {
        self.tenants.iter().map(|t| t.sim().queued()).sum()
    }

    /// Work items queued for tenant `class` right now (panics before the
    /// first replay).
    #[must_use]
    pub fn queued_of(&self, class: usize) -> usize {
        self.tenants[class].sim().queued()
    }

    /// The monitor's smoothed load estimate, in RPS, summed across
    /// tenants.
    #[must_use]
    pub fn load_estimate_rps(&self) -> f64 {
        self.tenants
            .iter()
            .map(|t| t.control().load_estimate_rps())
            .sum()
    }

    /// Attach (or detach) the telemetry recorder of the next replay. The
    /// cluster driver tags each node's handle with its own track before
    /// calling this; [`begin_replay_multi`](Self::begin_replay_multi)
    /// hands it to the node's simulators.
    pub fn set_recorder(&mut self, recorder: Option<Box<dyn Recorder>>) {
        self.recorder = recorder;
    }

    /// Run every tenant under `lifecycle` from the next replay on,
    /// written into each tenant's context.
    pub(crate) fn set_lifecycle(&mut self, lifecycle: &LifecycleConfig) {
        for ctx in &mut self.ctxs {
            let mut setup = ctx.setup().clone();
            setup.sim_config.lifecycle = lifecycle.clone();
            *ctx = ctx.with_setup(setup);
        }
    }

    /// Start a trace replay: build each tenant afresh from its context —
    /// a new control loop that plans its initial policy for its entry of
    /// `first_rps` under its share of the node cap, and a new simulator
    /// with `faults` scripted in (node faults hit the shared hardware, so
    /// every tenant sees them) — and put the node in its starting state.
    /// Nothing carries over from an earlier replay, so every replay of a
    /// node reports what a new node's first replay does.
    ///
    /// # Panics
    /// Panics unless `first_rps` has exactly one entry per tenant.
    pub fn begin_replay_multi(&mut self, first_rps: &[f64], faults: &FaultPlan) {
        assert_eq!(first_rps.len(), self.ctxs.len(), "one load per tenant");
        // The split new monitors give: they have seen no load yet.
        let caps = tenant_caps(
            &self.ctxs,
            self.setup().power_cap_w,
            self.ctxs.iter().map(|_| 0.0),
        );
        let recorder = self.recorder.as_ref().filter(|r| r.enabled());
        let tenants = self
            .ctxs
            .iter()
            .zip(first_rps)
            .zip(caps)
            .map(|((ctx, &rps), cap)| {
                // Each tenant runs its node's setup as provisioned: its own
                // backend (so a mixed fleet runs modeled and measured nodes
                // side by side), lifecycle and dispatch layer.
                let dynamic = ctx.setup().sim_config.dynamic;
                Tenant::begin(
                    ctx.clone(),
                    Some(cap),
                    rps,
                    None,
                    dynamic,
                    faults,
                    recorder.cloned(),
                )
            })
            .collect();
        let ctxs = std::mem::take(&mut self.ctxs);
        *self = Self::starting(ctxs, self.recorder.take(), tenants);
    }

    /// Impose a new power cap from the cluster governor, re-splitting it
    /// across tenants. A materially different tenant share (> 5%
    /// relative move) schedules an unconditional re-plan at the next
    /// interval so the tenant's policy tracks its budget; jitter below
    /// that threshold is absorbed to avoid reconfiguration churn. A
    /// multi-tenant node panics here before its first replay.
    pub fn set_power_cap(&mut self, cap_w: f64) {
        self.power_cap_w = cap_w;
        let demands = self.tenants.iter().map(|t| t.control().load_estimate_rps());
        let caps = tenant_caps(&self.ctxs, cap_w, demands);
        for (t, cap) in self.tenants.iter_mut().zip(caps) {
            t.control_mut().set_cap(cap);
        }
    }

    /// Administratively drain the node (scale-down or pre-revocation):
    /// cancel everything queued/in-flight across tenants for the router
    /// to redistribute, and stop advertising capacity. The hardware
    /// stays healthy; [`activate`](Self::activate) reverses it.
    /// Returns the number of cancelled requests (per-class breakdown via
    /// [`last_drained_per_class`](Self::last_drained_per_class)).
    pub fn drain(&mut self) -> usize {
        self.active = false;
        self.warming_until_ms = None;
        self.cancel_pending()
    }

    /// Cancel everything queued/in-flight across tenants, recording the
    /// per-class counts; returns the total.
    fn cancel_pending(&mut self) -> usize {
        let mut total = 0;
        for (c, t) in self.tenants.iter_mut().enumerate() {
            let cancelled = t.sim_mut().cancel_pending();
            self.last_drained[c] = cancelled;
            total += cancelled;
        }
        total
    }

    /// Bring an administratively drained node back into service. With
    /// `warm_until_ms` set the node warms up first: it draws floor power
    /// but is not routable until `maintain_at` is called at a boundary past
    /// that time. Re-plans are forced — the node returns cold.
    pub fn activate(&mut self, warm_until_ms: Option<f64>) {
        self.active = true;
        self.warming_until_ms = warm_until_ms;
        for t in &mut self.tenants {
            t.control_mut().force_replan();
        }
    }

    /// Interval-boundary health check at time `now_ms`. Detects
    /// fail-stop of the last device (drains the node, returning how many
    /// requests the router must redistribute), recovery (schedules a
    /// cold re-plan), and warm-up completion.
    ///
    /// # Panics
    /// Panics if called before
    /// [`begin_replay_multi`](Self::begin_replay_multi).
    pub fn maintain_at(&mut self, now_ms: f64) -> NodeTransition {
        if let Some(until) = self.warming_until_ms {
            if now_ms >= until {
                self.warming_until_ms = None;
            }
        }
        let healthy = self
            .tenants
            .first()
            .expect("begin_replay_multi first")
            .sim()
            .healthy_devices();
        if !self.down && healthy == 0 {
            self.down = true;
            // Drain: abandon everything the dead node holds so the
            // front-end can re-issue it elsewhere.
            NodeTransition::WentDown(self.cancel_pending())
        } else if self.down && healthy > 0 {
            self.down = false;
            // The node comes back cold: its last plan may target a pool
            // that no longer matches, and its monitor history is from
            // before the outage.
            for t in &mut self.tenants {
                t.control_mut().force_replan();
            }
            NodeTransition::CameBack
        } else {
            NodeTransition::Steady
        }
    }

    /// Per-class breakdown of the most recent drain (node death,
    /// [`drain`](Self::drain)), tenant-indexed.
    #[must_use]
    pub fn last_drained_per_class(&self) -> &[usize] {
        &self.last_drained
    }

    /// Re-plan every tenant for the coming interval from the node-level
    /// load estimate `est_rps`, split across tenants proportionally to
    /// their own monitors (even split before any history). Returns
    /// whether any tenant's policy changed.
    pub fn begin_interval(&mut self, est_rps: f64) -> bool {
        let n = self.tenants.len();
        let ests: Vec<f64> = if n == 1 {
            vec![est_rps]
        } else {
            let total: f64 = self
                .tenants
                .iter()
                .map(|t| t.control().load_estimate_rps())
                .sum();
            self.tenants
                .iter()
                .map(|t| {
                    if total > 0.0 {
                        est_rps * t.control().load_estimate_rps() / total
                    } else {
                        est_rps / n as f64
                    }
                })
                .collect()
        };
        let mut changed = false;
        for (t, est) in self.tenants.iter_mut().zip(ests) {
            if self.down {
                t.control_mut().hold(est, "down-hold");
            } else {
                changed |= t.replan(est);
            }
        }
        changed
    }

    /// Offer per-class `arrivals` (absolute times, one slice per tenant)
    /// and run every tenant's simulation to `end_ms`, returning the
    /// interval's merged measurements. Feeds each tenant's control loop
    /// (monitor, and the model for statistically sound, transition-free
    /// intervals).
    ///
    /// # Panics
    /// Panics if the class count differs from the tenant count or if
    /// called before [`begin_replay_multi`](Self::begin_replay_multi).
    pub fn run_to_classes(&mut self, arrivals: &[&[f64]], end_ms: f64) -> NodeIntervalStats {
        let n = self.tenants.len();
        assert_eq!(arrivals.len(), n, "one arrival stream per tenant");
        let mut out = NodeIntervalStats {
            completed: 0,
            violations: 0,
            avg_power_w: 0.0,
            energy_j: 0.0,
            healthy_devices: 0,
            timed_out: 0,
            per_class: Vec::with_capacity(n),
        };
        let mut duration_ms = 0.0;
        let mut outcomes = Vec::with_capacity(n);
        for (t, arrivals) in self.tenants.iter_mut().zip(arrivals) {
            let o = t.step(arrivals, None, end_ms, None);
            out.healthy_devices = o.healthy_devices;
            out.completed += o.completed;
            out.violations += o.violations;
            out.avg_power_w += o.avg_power_w;
            out.energy_j += o.energy_j;
            out.timed_out += o.timed_out;
            out.per_class.push((o.completed, o.violations));
            duration_ms = o.duration_ms;
            outcomes.push(o);
        }
        // Idle-power dedup: every private simulator accounts the shared
        // boards' idle draw, but the physical node pays it once. Each
        // extra tenant over-counts the healthy devices' idle power for
        // the full interval, minus whatever time its own work kept the
        // boards busy (busy time was billed at active power, not idle).
        // Single-tenant nodes take the exact legacy path (no
        // adjustment).
        if n > 1 && !self.down {
            let idle_w = self.shared_idle_w();
            let over_w = idle_w * (n - 1) as f64;
            if over_w > 0.0 {
                out.avg_power_w = (out.avg_power_w - over_w).max(0.0);
                out.energy_j = (out.energy_j - over_w * duration_ms / 1000.0).max(0.0);
            }
        }
        // Multi-tenant nodes merge the per-tenant windows for
        // `segment_samples`.
        if n > 1 {
            self.merged_samples.clear();
            for t in &self.tenants {
                self.merged_samples.extend_from_slice(t.window_latencies());
            }
        }
        // Tenants' interval events go out after every tenant stepped.
        if let Some(r) = self.recorder.as_mut().filter(|r| r.enabled()) {
            for ((t, o), arrivals) in self.tenants.iter().zip(&outcomes).zip(arrivals) {
                let offered_rps = if o.duration_ms > 0.0 {
                    arrivals.len() as f64 * 1000.0 / o.duration_ms
                } else {
                    0.0
                };
                let start_ms = end_ms - o.duration_ms;
                let event = t.interval_event(self.interval_idx, start_ms, offered_rps, o);
                r.record(end_ms, event);
            }
        }
        self.interval_idx += 1;
        out
    }

    /// Idle power of the node's currently healthy devices, in watts —
    /// what one extra tenant simulator over-counts per interval.
    fn shared_idle_w(&self) -> f64 {
        let setup = self.setup();
        let pool = self.tenants[0].sim().available_pool();
        pool.count(poly_device::DeviceKind::Gpu) as f64 * setup.sim_config.gpu_idle_w
            + pool.count(poly_device::DeviceKind::Fpga) as f64 * setup.sim_config.fpga_idle_w
    }

    /// Raw completion latencies of the last interval, all tenants (for
    /// single-tenant nodes this is exactly the tenant's buffer).
    #[must_use]
    pub fn segment_samples(&self) -> &[f64] {
        if self.tenants.len() == 1 {
            self.tenants[0].window_latencies()
        } else {
            &self.merged_samples
        }
    }

    /// Cumulative re-issue ledger of the node's simulators since
    /// `begin_replay_multi` (zeroed before the first replay), merged across
    /// tenants.
    #[must_use]
    pub fn retry_stats(&self) -> poly_sim::RetryStats {
        let mut out = poly_sim::RetryStats::default();
        for t in &self.tenants {
            out.merge(&t.sim().retry_stats());
        }
        out
    }

    /// The node simulators' lifecycle/energy audit counters (see
    /// [`poly_sim::AuditReport`]), merged across tenants; zeroed report
    /// before `begin_replay_multi`.
    #[must_use]
    pub fn audit(&self) -> poly_sim::AuditReport {
        let mut out = poly_sim::AuditReport::default();
        for t in &self.tenants {
            out.merge(&t.sim().audit());
        }
        out
    }
}

/// Split a node cap of `cap_w` across the tenants of `ctxs`: the same
/// weighted water-fill the governor runs across nodes, with demand =
/// tenant load estimate (`demands`, RPS, one per tenant) × QoS weight and
/// a floor of 10% of an even share. A single tenant always gets the full
/// node cap, exactly as before multi-tenancy.
fn tenant_caps(ctxs: &[AppContext], cap_w: f64, demands: impl Iterator<Item = f64>) -> Vec<f64> {
    let n = ctxs.len();
    if n == 1 {
        return vec![cap_w];
    }
    let demands: Vec<f64> = demands.collect();
    let states: Vec<NodeShare> = ctxs
        .iter()
        .map(|ctx| NodeShare::Active {
            weight: ctx.qos_weight(),
        })
        .collect();
    let floor = 0.1 * cap_w / n as f64;
    weighted_water_fill(cap_w, floor, &demands, &states)
}
