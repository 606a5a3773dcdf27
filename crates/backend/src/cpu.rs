//! The real CPU backend: kernels execute as representative micro-kernels
//! on a [`poly_par`] thread pool, with measured wall-clock latency and
//! modeled package power.
//!
//! Determinism contract: the *numeric* result (checksum) of every
//! execution is bit-identical for any thread count (fixed chunking,
//! index-order combine — see [`crate::kernels`]). Wall-clock samples
//! vary between processes, but each client caches the first measurement
//! per kernel, so within one process every execution of a kernel
//! reports the same latency — simulations driven by a shared client are
//! reproducible run to run.

use crate::kernels::MicroKernel;
use poly_ir::KernelProfile;
use std::collections::HashMap;
use std::sync::Mutex;

/// Assumed package power at full load, in watts (server-class part).
pub const CPU_PEAK_POWER_W: f64 = 95.0;

/// Assumed package idle power, in watts.
pub const CPU_IDLE_POWER_W: f64 = 25.0;

/// What one measured execution produced: timing, power, and the
/// numeric checksum of the computed result — the thread-count-independent
/// witness that real work happened. A node re-timed from it serves one
/// request per launch, occupied for the whole measured latency.
#[derive(Debug, Clone, PartialEq)]
pub struct ExecReport {
    /// Measured wall-clock latency of the kernel, in milliseconds
    /// (scaled up when the micro-kernel ran a capped share of the full
    /// op count).
    pub latency_ms: f64,
    /// Package power while executing, in watts.
    pub active_power_w: f64,
    /// Package power while idle, in watts.
    pub idle_power_w: f64,
    /// Checksum of the computed result, deterministic for any thread
    /// count.
    pub checksum: f64,
    /// Achieved arithmetic throughput in Gflop/s.
    pub gflops: f64,
}

/// Client that really executes kernels on the host CPU.
#[derive(Debug)]
pub struct CpuClient {
    threads: usize,
    /// First measurement per kernel name; later executions of the same
    /// kernel reuse it, making in-process replays reproducible.
    cache: Mutex<HashMap<String, ExecReport>>,
}

impl CpuClient {
    /// Client running workloads on up to `threads` workers.
    #[must_use]
    pub fn new(threads: usize) -> Self {
        Self {
            threads: threads.max(1),
            cache: Mutex::new(HashMap::new()),
        }
    }

    /// Worker threads the client executes with.
    #[must_use]
    pub fn threads(&self) -> usize {
        self.threads
    }

    /// Execute (or replay from the in-process cache) the micro-kernel
    /// sized for `name`/`profile` and return its report. This is the hot
    /// entry the runtime's policy re-timing uses.
    #[must_use]
    pub fn measure(&self, name: &str, profile: &KernelProfile) -> ExecReport {
        // Held across the run, so concurrent callers of one kernel all
        // get its first measurement and measurements never overlap.
        let mut cache = self.cache.lock().expect("cpu cache");
        if let Some(hit) = cache.get(name) {
            return hit.clone();
        }
        let run = MicroKernel::for_profile(profile).run(self.threads);
        let report = ExecReport {
            latency_ms: run.latency_ms,
            active_power_w: self.active_power_w(),
            idle_power_w: CPU_IDLE_POWER_W,
            checksum: run.checksum,
            gflops: run.gflops,
        };
        cache.insert(name.to_string(), report.clone());
        report
    }

    /// Package power while the client's workers execute: idle plus a
    /// utilization-proportional dynamic share.
    fn active_power_w(&self) -> f64 {
        let cores = std::thread::available_parallelism().map_or(8.0, |n| n.get() as f64);
        let util = (self.threads as f64 / cores).min(1.0);
        CPU_IDLE_POWER_W + (CPU_PEAK_POWER_W - CPU_IDLE_POWER_W) * util
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use poly_ir::{KernelBuilder, OpFunc, PatternKind, Shape};

    fn profile() -> KernelProfile {
        KernelBuilder::new("k")
            .pattern("m", PatternKind::Map, Shape::d2(256, 256), &[OpFunc::Mac])
            .iterations(50)
            .build()
            .unwrap()
            .profile()
    }

    #[test]
    fn execution_really_happens_and_is_cached() {
        let client = CpuClient::new(2);
        let p = profile();
        let first = client.measure("k", &p);
        assert!(first.latency_ms > 0.0);
        assert!(first.gflops > 0.0);
        assert!(first.checksum.abs() > 0.0);
        assert!(first.active_power_w > first.idle_power_w);
        // Second call replays the cache: identical bits, including the
        // wall-clock sample.
        let second = client.measure("k", &p);
        assert_eq!(first, second);
        let third = CpuClient::new(2).measure("k", &p);
        // A fresh client measures afresh: checksum identical
        // (deterministic math), latency a new sample.
        assert_eq!(first.checksum.to_bits(), third.checksum.to_bits());
    }

    #[test]
    fn checksums_are_identical_across_client_thread_counts() {
        let p = profile();
        let r1 = CpuClient::new(1).measure("k", &p);
        let r4 = CpuClient::new(4).measure("k", &p);
        assert_eq!(r1.checksum.to_bits(), r4.checksum.to_bits());
    }
}
