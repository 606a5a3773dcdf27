use crate::dqueue::DeviceQueue;
use poly_device::DeviceKind;
use poly_ir::KernelId;

/// A duration in milliseconds as whole nanoseconds: the unit queue
/// backlogs are summed in, so every sum is exact and independent of the
/// order of its terms.
pub(crate) fn ms_to_ns(ms: f64) -> u64 {
    (ms * 1e6).round() as u64
}

/// A whole-nanosecond backlog back in milliseconds.
pub(crate) fn ns_to_ms(ns: u64) -> f64 {
    ns as f64 / 1e6
}

/// One queued kernel execution: request `req` needs kernel `kernel`, ready
/// since `ready_ms`. The request and kernel indices are stored `u32`-wide
/// (requests fit by [`crate::arena::MAX_REQ_INDEX`], kernels by far), so
/// an item is 32 bytes; [`new`](Self::new) narrows them with a check and
/// [`req`](Self::req) and [`kernel`](Self::kernel) widen them back.
#[derive(Debug, Clone, Copy, PartialEq)]
pub(crate) struct WorkItem {
    req: u32,
    kernel: u32,
    pub ready_ms: f64,
    /// Expected per-request device occupancy of *this* entry under the
    /// implementation it was dispatched with (size-scaled), in whole
    /// nanoseconds. Queue delay estimates sum these, so mixed-cost queues
    /// price each entry at its own expected service time rather than the
    /// candidate's.
    pub est_ns: u64,
    /// Implementation alternate this entry was dispatched under: index
    /// into the policy's top-k list for its kernel (0 = the interval
    /// plan's primary choice — the only value while the dynamic chooser
    /// is off).
    pub alt: u8,
    /// This copy is a hedge duplicate (win attribution only; the `done`
    /// flag already makes duplicates safe).
    pub hedge: bool,
}

const _: () = assert!(std::mem::size_of::<WorkItem>() == 32);

impl WorkItem {
    /// Request `req`'s `kernel` stage, ready since `ready_ms`, expected to
    /// occupy its device `est_ns`, dispatched under alternate `alt`;
    /// `hedge` marks a hedge copy.
    pub fn new(
        req: usize,
        kernel: KernelId,
        ready_ms: f64,
        est_ns: u64,
        alt: u8,
        hedge: bool,
    ) -> Self {
        let narrow = |i: usize| u32::try_from(i).expect("work item indices fit u32");
        Self {
            req: narrow(req),
            kernel: narrow(kernel.0),
            ready_ms,
            est_ns,
            alt,
            hedge,
        }
    }

    /// The request this stage belongs to.
    pub fn req(&self) -> usize {
        self.req as usize
    }

    /// The stage's kernel.
    pub fn kernel(&self) -> KernelId {
        KernelId(self.kernel as usize)
    }
}

/// Simulation state of one accelerator.
#[derive(Debug, Clone)]
pub(crate) struct DeviceState {
    pub kind: DeviceKind,
    /// FIFO of ready work.
    pub queue: DeviceQueue,
    /// Device is executing until this time.
    pub busy_until: f64,
    /// Whether an execution is in flight (distinguishes "busy_until in the
    /// past" from "currently executing").
    pub executing: bool,
    /// Loaded FPGA bitstream: `(kernel, impl_index)`.
    pub loaded: Option<(KernelId, usize)>,
    /// Reconfiguration time of this device in ms (0 for GPUs).
    pub reconfig_ms: f64,
    /// Idle power of the currently configured state, in watts.
    pub idle_power_w: f64,
    /// Whether the device is in service (false after a fail-stop fault,
    /// until recovery).
    pub healthy: bool,
    /// Execution-time multiplier (1.0 nominal, > 1.0 while a slowdown
    /// fault is active).
    pub derate: f64,
    /// Active power of the execution currently occupying the device (for
    /// refunding pre-booked busy energy when the device fails mid-batch).
    pub active_power_w: f64,
    /// Ids of this device's open launches (`engine::batch::Launches`),
    /// in launch order: dropped as each `LaunchDone` pops, taken whole by
    /// a fail-stop (which retries the live items onto survivors) or a
    /// node drain.
    pub inflight: Vec<u32>,
    // --- accounting -------------------------------------------------------
    /// Active (busy) energy accumulated, in millijoules.
    pub busy_energy_mj: f64,
    /// Idle energy accumulated, in millijoules.
    pub idle_energy_mj: f64,
    /// Total busy time, in milliseconds.
    pub busy_ms: f64,
    /// End of the last accounted interval.
    pub accounted_to_ms: f64,
    /// Number of reconfigurations performed.
    pub reconfigs: usize,
}

impl DeviceState {
    pub fn new(kind: DeviceKind, reconfig_ms: f64, idle_power_w: f64) -> Self {
        Self {
            kind,
            queue: DeviceQueue::default(),
            busy_until: 0.0,
            executing: false,
            loaded: None,
            reconfig_ms,
            idle_power_w,
            healthy: true,
            derate: 1.0,
            active_power_w: 0.0,
            inflight: Vec::new(),
            busy_energy_mj: 0.0,
            idle_energy_mj: 0.0,
            busy_ms: 0.0,
            accounted_to_ms: 0.0,
            reconfigs: 0,
        }
    }

    /// Account an idle stretch from the last accounted instant to `t`.
    pub fn account_idle_until(&mut self, t: f64) {
        if t > self.accounted_to_ms {
            self.idle_energy_mj += self.idle_power_w * (t - self.accounted_to_ms);
            self.accounted_to_ms = t;
        }
    }

    /// Account a busy stretch `[start, end)` at `power_w` (idle up to
    /// `start` is accounted first).
    pub fn account_busy(&mut self, start: f64, end: f64, power_w: f64) {
        self.account_idle_until(start);
        let dur = (end - start).max(0.0);
        self.busy_energy_mj += power_w * dur;
        self.busy_ms += dur;
        self.accounted_to_ms = self.accounted_to_ms.max(end);
    }

    /// Cut the running execution off at `now`: the busy energy and time
    /// pre-booked past `now` are taken back, the account is rewound to
    /// `now`, and the device is idle from `now`. Returns the refunded
    /// millijoules (0 when nothing was booked past `now`).
    pub fn stop_execution(&mut self, now: f64) -> f64 {
        let cut = self.busy_until.min(self.accounted_to_ms) - now;
        let mut refund = 0.0;
        if cut > 0.0 {
            refund = self.active_power_w * cut;
            self.busy_energy_mj -= refund;
            self.busy_ms -= cut;
            self.accounted_to_ms = now;
        }
        self.executing = false;
        self.busy_until = now;
        refund
    }

    /// Total energy in millijoules after closing the books at `t`.
    pub fn finish(&mut self, t: f64) -> f64 {
        self.account_idle_until(t);
        self.busy_energy_mj + self.idle_energy_mj
    }

    /// Utilization over `[0, t]`.
    pub fn utilization(&self, t: f64) -> f64 {
        if t <= 0.0 {
            0.0
        } else {
            (self.busy_ms / t).min(1.0)
        }
    }
}

/// Per-device statistics reported after a simulation segment.
#[derive(Debug, Clone, PartialEq)]
pub struct DeviceStats {
    /// Device kind.
    pub kind: DeviceKind,
    /// Fraction of simulated time spent executing.
    pub utilization: f64,
    /// Total energy (busy + idle) in joules.
    pub energy_j: f64,
    /// Number of FPGA reconfigurations performed.
    pub reconfigs: usize,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn idle_then_busy_accounting() {
        let mut d = DeviceState::new(DeviceKind::Fpga, 200.0, 5.0);
        d.account_busy(100.0, 150.0, 25.0);
        // 100 ms idle at 5 W + 50 ms busy at 25 W.
        assert!((d.idle_energy_mj - 500.0).abs() < 1e-9);
        assert!((d.busy_energy_mj - 1250.0).abs() < 1e-9);
        let total = d.finish(200.0);
        // + 50 ms idle tail.
        assert!((total - (500.0 + 1250.0 + 250.0)).abs() < 1e-9);
        assert!((d.utilization(200.0) - 0.25).abs() < 1e-9);
    }

    #[test]
    fn double_finish_is_idempotent() {
        let mut d = DeviceState::new(DeviceKind::Gpu, 0.0, 40.0);
        let a = d.finish(100.0);
        let b = d.finish(100.0);
        assert_eq!(a, b);
    }

    #[test]
    fn busy_before_accounted_does_not_go_negative() {
        let mut d = DeviceState::new(DeviceKind::Gpu, 0.0, 40.0);
        d.account_idle_until(50.0);
        d.account_busy(40.0, 45.0, 100.0); // overlaps already-accounted idle
        assert!(d.busy_energy_mj >= 0.0);
        assert!(d.accounted_to_ms >= 50.0);
    }
}
