//! Measurement helpers that sit outside the program: a telemetry sink
//! that keeps only request outcomes, per-layer timers, a timed cold
//! design-space explore, the process's peak resident set, and the
//! host-speed calibration loop.

use std::cmp::Reverse;
use std::collections::{BTreeMap, BinaryHeap};
use std::sync::{Arc, Mutex};
use std::time::Instant;

use poly::dse::{DesignSpaceCache, Explorer, KernelDesignSpace};
use poly::ir::KernelGraph;
use poly::obs::{Event, Recorder};

/// Request outcomes seen through the program's telemetry.
#[derive(Debug, Default)]
pub struct Outcomes {
    /// End-to-end latency of every completion, in sim ms.
    pub latencies_ms: Vec<f64>,
    /// Requests that entered a simulator.
    pub enqueued: usize,
    /// Requests abandoned at their deadline.
    pub timed_out: usize,
    /// Requests failed after exhausting their retries.
    pub failed: usize,
    /// Requests cancelled (node drains).
    pub cancelled: usize,
}

/// A [`Recorder`] that keeps request outcomes only. Clones share one
/// buffer, so every node of a cluster reports into the same place.
#[derive(Debug, Clone, Default)]
pub struct OutcomeRecorder {
    state: Arc<Mutex<Outcomes>>,
}

impl OutcomeRecorder {
    /// Take the outcomes recorded so far.
    pub fn take(&self) -> Outcomes {
        std::mem::take(&mut *self.state.lock().expect("outcome buffer poisoned"))
    }
}

impl Recorder for OutcomeRecorder {
    fn record(&mut self, _t_ms: f64, event: Event) {
        let mut s = self.state.lock().expect("outcome buffer poisoned");
        match event {
            Event::ReqComplete { latency_ms, .. } => s.latencies_ms.push(latency_ms),
            Event::ReqEnqueue { .. } => s.enqueued += 1,
            Event::ReqTimedOut { .. } => s.timed_out += 1,
            Event::ReqFailed { .. } => s.failed += 1,
            Event::ReqCancelled { .. } => s.cancelled += 1,
            _ => {}
        }
    }

    fn box_clone(&self) -> Box<dyn Recorder> {
        Box::new(self.clone())
    }
}

/// Accumulated host time and call count of one layer.
#[derive(Debug, Default, Clone, Copy)]
pub struct Span {
    /// Calls timed.
    pub calls: usize,
    /// Host nanoseconds spent inside them.
    pub ns: u128,
}

impl Span {
    /// Time `f` as one call of this layer.
    pub fn time<T>(&mut self, f: impl FnOnce() -> T) -> T {
        let t0 = Instant::now();
        let out = f();
        self.ns += t0.elapsed().as_nanos();
        self.calls += 1;
        out
    }

    /// Mean microseconds per call (0 without calls).
    pub fn us_per_call(&self) -> f64 {
        per(self.ns as f64 / 1e3, self.calls)
    }
}

/// `total / count`, or 0 for an empty count (a layer the workload never
/// reaches reports zero).
pub fn per(total: f64, count: usize) -> f64 {
    if count == 0 {
        0.0
    } else {
        total / count as f64
    }
}

/// Per-layer metric values of one traced repetition, by metric name.
pub type LayerValues = BTreeMap<&'static str, f64>;

/// A cold design-space explore through one fresh cache (never the
/// global one), timed kernel by kernel.
#[derive(Default)]
pub struct ColdExplore {
    cache: DesignSpaceCache,
    span: Span,
    points: usize,
}

impl ColdExplore {
    /// Explore every kernel of `app` on `explorer`, in kernel order.
    pub fn app(&mut self, explorer: &Explorer, app: &KernelGraph) -> Vec<KernelDesignSpace> {
        app.kernels()
            .iter()
            .map(|k| {
                let space = self
                    .span
                    .time(|| (*self.cache.explore(explorer, k)).clone());
                self.points += space.len();
                space
            })
            .collect()
    }

    /// The `dse.explore.*` per-layer values.
    pub fn record(&self, layers: &mut LayerValues) {
        layers.insert("dse.explore.calls", self.span.calls as f64);
        layers.insert("dse.explore.us_per_call", self.span.us_per_call());
        layers.insert("dse.explore.points", self.points as f64);
    }
}

/// Peak resident set of this process in MiB (`VmHWM`).
pub fn peak_rss_mb() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("cannot read /proc/self/status: {e}"))?;
    let kb: f64 = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
        .ok_or("no VmHWM line in /proc/self/status")?;
    Ok(kb / 1024.0)
}

/// Host seconds [`Calibration::seconds`] takes at the reference host
/// speed: its median on the 2-vCPU Xeon VM (2.0 GHz) the benchmark was
/// tuned on.
pub const CALIBRATION_REF_S: f64 = 0.019;

/// Entries the calibration heap is kept at.
const CALIBRATION_HEAP: usize = 5_000;

/// A fixed, benchmark-owned loop that measures the host's current speed:
/// 150 000 pseudo-random pushes into a binary heap kept at 5 000 entries,
/// the kind of work the simulator's event queues do. It shares no code
/// with the program and allocates nothing while timed, so neither a
/// change to the program nor the allocator's state changes what it times.
pub struct Calibration {
    heap: BinaryHeap<Reverse<(u64, u64)>>,
}

impl Calibration {
    pub fn new() -> Self {
        Calibration {
            heap: BinaryHeap::with_capacity(CALIBRATION_HEAP + 1),
        }
    }

    /// Host seconds of one pass of the loop.
    pub fn seconds(&mut self) -> f64 {
        self.heap.clear();
        let t0 = Instant::now();
        let mut x: u64 = 99;
        let mut sum = 0u64;
        for i in 0..150_000 {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            self.heap.push(Reverse((x % 1_000_000, i)));
            if self.heap.len() > CALIBRATION_HEAP {
                sum = sum.wrapping_add(self.heap.pop().map_or(0, |Reverse((k, _))| k));
            }
        }
        std::hint::black_box(sum);
        t0.elapsed().as_secs_f64()
    }
}
