//! The analytic system model of the runtime (the "Model" box of Fig. 2):
//! predicts capacity, tail latency, and node power for a candidate policy
//! at a given request rate, and self-corrects from measurements.

use poly_device::DeviceKind;
use poly_ir::KernelGraph;
use poly_sched::Pool;
use poly_sim::Policy;

/// Prediction for one `(policy, load)` operating point.
#[derive(Debug, Clone, PartialEq)]
pub struct PolicyPrediction {
    /// Sustainable throughput of the bottleneck platform, in RPS.
    pub capacity_rps: f64,
    /// Predicted p99 latency at the queried load, in milliseconds
    /// (`f64::INFINITY` beyond capacity).
    pub p99_ms: f64,
    /// Predicted mean node power at the queried load, in watts.
    pub avg_power_w: f64,
    /// Utilization of the bottleneck platform at the queried load.
    pub bottleneck_util: f64,
}

/// Analytic queueing model with multiplicative feedback correction.
///
/// Capacity comes from per-platform service demand (GPUs pool their
/// kernels; each FPGA kernel needs dedicated devices with its bitstream,
/// and plans with more FPGA kernels than FPGAs are charged reconfiguration
/// thrash). Tail latency is the critical-path latency at the expected
/// batch fill plus an M/M/1-style tail waiting term. Power is the sum of
/// configured idle power plus load-proportional dynamic energy.
///
/// [`observe`](Self::observe) folds measured p99 back into a correction
/// factor, reproducing the feedback loop the paper uses to tolerate
/// prediction error (Section VI-C, error < 6%).
#[derive(Debug, Clone, PartialEq)]
pub struct SystemModel {
    correction: f64,
}

/// p99 of an M/M/1-ish wait is ≈ `-ln(0.01) ≈ 4.6` mean waits.
const TAIL_FACTOR: f64 = 4.6;

/// FPGA kernels whose device split [`SystemModel::predict`] computes on
/// the stack (more fall back to the heap).
const SPLIT_STACK: usize = 32;

/// Capacity of the FPGA platform when `policy`'s FPGA kernels pin
/// bitstreams: split the `n_fpga` devices proportionally to demand
/// (largest remainder, ≥1 per kernel when possible) and return the
/// slowest kernel's rate. `devs` is scratch, one slot per FPGA kernel.
fn fpga_split_capacity(policy: &Policy, n_fpga: f64, devs: &mut [f64]) -> f64 {
    let fpga_impls = || policy.impls().iter().filter(|i| i.kind == DeviceKind::Fpga);
    let total: f64 = fpga_impls().map(|i| i.service_ms).sum();
    for (d, i) in devs.iter_mut().zip(fpga_impls()) {
        *d = (i.service_ms / total * n_fpga).floor().max(1.0);
    }
    let mut spare = n_fpga - devs.iter().sum::<f64>();
    // Hand spare devices to the most loaded kernels.
    while spare >= 1.0 {
        let (worst, _) = fpga_impls()
            .enumerate()
            .map(|(j, i)| (j, i.service_ms / devs[j]))
            .max_by(|a, b| a.1.total_cmp(&b.1))
            .expect("non-empty");
        devs[worst] += 1.0;
        spare -= 1.0;
    }
    fpga_impls()
        .enumerate()
        .map(|(j, i)| devs[j] * 1000.0 / i.service_ms)
        .fold(f64::INFINITY, f64::min)
}

impl SystemModel {
    /// Fresh model with no correction (factor 1).
    #[must_use]
    pub fn new() -> Self {
        Self { correction: 1.0 }
    }

    /// Current multiplicative latency-correction factor.
    #[must_use]
    pub fn correction(&self) -> f64 {
        self.correction
    }

    /// Fold a measurement into the correction factor (EWMA, α = 0.3).
    /// Ratios are clamped to `[0.25, 4]` so one bad interval cannot wreck
    /// the model.
    pub fn observe(&mut self, predicted_p99_ms: f64, measured_p99_ms: f64) {
        if !(predicted_p99_ms.is_finite() && measured_p99_ms.is_finite())
            || predicted_p99_ms <= 0.0
            || measured_p99_ms <= 0.0
        {
            return;
        }
        let ratio = (measured_p99_ms / predicted_p99_ms).clamp(0.25, 4.0);
        self.correction = 0.7 * self.correction + 0.3 * self.correction * ratio;
        self.correction = self.correction.clamp(0.5, 2.5);
    }

    /// Predict the operating point of `policy` on `pool` at `rps`.
    #[must_use]
    pub fn predict(
        &self,
        graph: &KernelGraph,
        policy: &Policy,
        pool: &Pool,
        rps: f64,
    ) -> PolicyPrediction {
        let n_gpu = pool.count(DeviceKind::Gpu) as f64;
        let n_fpga = pool.count(DeviceKind::Fpga) as f64;

        // --- per-platform service demand -----------------------------------
        let gpu_demand: f64 = policy
            .impls()
            .iter()
            .filter(|i| i.kind == DeviceKind::Gpu)
            .map(|i| i.service_ms)
            .sum();
        let fpga_impls = || policy.impls().iter().filter(|i| i.kind == DeviceKind::Fpga);
        let n_fpga_kernels = fpga_impls().count();

        let gpu_capacity = if gpu_demand > 0.0 {
            if n_gpu == 0.0 {
                0.0
            } else {
                n_gpu * 1000.0 / gpu_demand
            }
        } else {
            f64::INFINITY
        };

        let fpga_capacity = if n_fpga_kernels == 0 {
            f64::INFINITY
        } else if n_fpga == 0.0 {
            0.0
        } else if n_fpga_kernels as f64 > n_fpga {
            // Thrash: every request pays bitstream swaps on top of service.
            let demand: f64 = fpga_impls().map(|i| i.service_ms).sum();
            let reconfig = 2.0 * 220.0; // pessimistic swap charge
            n_fpga * 1000.0 / (demand + reconfig)
        } else if n_fpga_kernels <= SPLIT_STACK {
            fpga_split_capacity(policy, n_fpga, &mut [0.0; SPLIT_STACK][..n_fpga_kernels])
        } else {
            fpga_split_capacity(policy, n_fpga, &mut vec![0.0; n_fpga_kernels])
        };

        let capacity_rps = gpu_capacity.min(fpga_capacity);
        let util = if capacity_rps.is_finite() && capacity_rps > 0.0 {
            rps / capacity_rps
        } else if capacity_rps == 0.0 {
            f64::INFINITY
        } else {
            0.0
        };

        // --- latency ---------------------------------------------------------
        let rho_gpu = if gpu_capacity.is_finite() && gpu_capacity > 0.0 {
            (rps / gpu_capacity).min(1.0)
        } else {
            0.0
        };
        let path = graph.critical_path(
            |k| {
                let i = policy.of(k);
                // Expected batch fill grows with GPU utilization.
                let fill = 1.0 + (f64::from(i.batch) - 1.0) * rho_gpu;
                i.exec_ms(fill.round() as u32)
            },
            |e| {
                let differs = policy.of(e.from).kind != policy.of(e.to).kind;
                if differs {
                    poly_device::PcieLink::gen3_x16().transfer_ms(e.bytes)
                } else {
                    0.0
                }
            },
        );
        let p99_ms = if util >= 1.0 {
            f64::INFINITY
        } else {
            let bottleneck_svc = policy
                .impls()
                .iter()
                .map(|i| i.service_ms)
                .fold(0.0_f64, f64::max);
            (path + TAIL_FACTOR * bottleneck_svc * util / (1.0 - util)) * self.correction
        };

        // --- power -----------------------------------------------------------
        let mut idle = 0.0;
        // GPUs idle at the policy's GPU idle power (or 0 contribution if
        // no GPU kernel: still the board idles — use min impl idle or a
        // floor of the first GPU impl; fall back to 42 W-class idles only
        // through the policy, keeping the model device-agnostic).
        let gpu_idle = policy
            .impls()
            .iter()
            .filter(|i| i.kind == DeviceKind::Gpu)
            .map(|i| i.idle_power_w)
            .fold(f64::NAN, f64::min);
        let fpga_idle = policy
            .impls()
            .iter()
            .filter(|i| i.kind == DeviceKind::Fpga)
            .map(|i| i.idle_power_w)
            .fold(f64::NAN, f64::min);
        if gpu_idle.is_finite() {
            idle += n_gpu * gpu_idle;
        } else {
            // Unused GPUs park at deep idle (typical W9100-class board:
            // 42 W idle × parked fraction).
            idle += n_gpu * 42.0 * poly_sim::GPU_PARKED_FRACTION;
        }
        if fpga_idle.is_finite() {
            idle += n_fpga * fpga_idle;
        } else {
            // Unconfigured FPGAs draw static power only (≈4.5 W class).
            idle += n_fpga * 4.5;
        }
        let dynamic_mj_per_req: f64 = policy
            .impls()
            .iter()
            .map(|i| (i.active_power_w - i.idle_power_w).max(0.0) * i.service_ms)
            .sum();
        let avg_power_w = idle + rps * dynamic_mj_per_req / 1000.0;

        PolicyPrediction {
            capacity_rps,
            p99_ms,
            avg_power_w,
            bottleneck_util: util,
        }
    }
}

impl Default for SystemModel {
    fn default() -> Self {
        Self::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use poly_ir::{KernelBuilder, KernelGraphBuilder, KernelId, OpFunc, PatternKind, Shape};
    use poly_sim::KernelImpl;

    fn graph2() -> KernelGraph {
        let k = KernelBuilder::new("a")
            .pattern("m", PatternKind::Map, Shape::d1(64), &[OpFunc::Add])
            .build()
            .unwrap();
        KernelGraphBuilder::new("app")
            .kernel(k.clone())
            .kernel(k.with_name("b"))
            .edge("a", "b", 1 << 20)
            .build()
            .unwrap()
    }

    fn imp(kernel: usize, kind: DeviceKind, svc: f64) -> KernelImpl {
        KernelImpl {
            kernel: KernelId(kernel),
            kind,
            impl_index: 0,
            latency_ms: svc * 1.2,
            latency_single_ms: svc * 1.2,
            service_ms: svc,
            batch: 1,
            active_power_w: if kind == DeviceKind::Gpu { 200.0 } else { 25.0 },
            idle_power_w: if kind == DeviceKind::Gpu { 40.0 } else { 5.0 },
        }
    }

    #[test]
    fn capacity_scales_with_devices() {
        let g = graph2();
        let policy = Policy::from_impls(vec![
            imp(0, DeviceKind::Fpga, 50.0),
            imp(1, DeviceKind::Fpga, 50.0),
        ]);
        let m = SystemModel::new();
        let two = m.predict(&g, &policy, &poly_sched::Pool::heterogeneous(0, 2), 1.0);
        let four = m.predict(&g, &policy, &poly_sched::Pool::heterogeneous(0, 4), 1.0);
        assert!((two.capacity_rps - 20.0).abs() < 1e-9); // 1 dev/kernel, 1000/50
        assert!((four.capacity_rps - 40.0).abs() < 1e-9);
    }

    #[test]
    fn p99_grows_toward_capacity_and_diverges() {
        let g = graph2();
        let policy = Policy::from_impls(vec![
            imp(0, DeviceKind::Gpu, 20.0),
            imp(1, DeviceKind::Gpu, 20.0),
        ]);
        let m = SystemModel::new();
        let pool = poly_sched::Pool::heterogeneous(2, 0);
        let low = m.predict(&g, &policy, &pool, 5.0);
        let high = m.predict(&g, &policy, &pool, 45.0);
        assert!(high.p99_ms > low.p99_ms);
        let over = m.predict(&g, &policy, &pool, 60.0); // capacity = 50
        assert!(over.p99_ms.is_infinite());
    }

    #[test]
    fn fpga_thrash_penalized_when_kernels_exceed_devices() {
        let g = graph2();
        let policy = Policy::from_impls(vec![
            imp(0, DeviceKind::Fpga, 50.0),
            imp(1, DeviceKind::Fpga, 50.0),
        ]);
        let m = SystemModel::new();
        let one = m.predict(&g, &policy, &poly_sched::Pool::heterogeneous(0, 1), 1.0);
        // Thrash charge collapses capacity far below 1000/100 = 10 RPS.
        assert!(one.capacity_rps < 5.0, "{}", one.capacity_rps);
    }

    #[test]
    fn power_is_idle_plus_linear_dynamic() {
        let g = graph2();
        let policy = Policy::from_impls(vec![
            imp(0, DeviceKind::Fpga, 50.0),
            imp(1, DeviceKind::Fpga, 50.0),
        ]);
        let m = SystemModel::new();
        let pool = poly_sched::Pool::heterogeneous(0, 2);
        let idle = m.predict(&g, &policy, &pool, 0.0);
        assert!((idle.avg_power_w - 10.0).abs() < 1e-9); // 2 × 5 W
        let loaded = m.predict(&g, &policy, &pool, 10.0);
        // + 10 rps × (20 W × 100 ms) = 20 W dynamic.
        assert!((loaded.avg_power_w - 30.0).abs() < 1e-9);
    }

    #[test]
    fn feedback_converges_in_closed_loop() {
        // The true system is 1.5× the uncorrected model. Predictions carry
        // the current correction, so the residual ratio shrinks to 1 as
        // the correction converges to 1.5.
        let mut m = SystemModel::new();
        for _ in 0..40 {
            let predicted = 100.0 * m.correction();
            m.observe(predicted, 150.0);
        }
        assert!((m.correction() - 1.5).abs() < 0.05, "{}", m.correction());
        // Garbage measurements are ignored.
        let before = m.correction();
        m.observe(f64::NAN, 100.0);
        m.observe(0.0, 100.0);
        assert_eq!(m.correction(), before);
    }

    #[test]
    fn cross_platform_edges_pay_pcie_in_path() {
        // Big payload (64 MiB ≈ 5.4 ms on PCIe) and two FPGAs so neither
        // policy is thrash-penalized.
        let k = KernelBuilder::new("a")
            .pattern("m", PatternKind::Map, Shape::d1(64), &[OpFunc::Add])
            .build()
            .unwrap();
        let g = KernelGraphBuilder::new("app")
            .kernel(k.clone())
            .kernel(k.with_name("b"))
            .edge("a", "b", 64 << 20)
            .build()
            .unwrap();
        let same = Policy::from_impls(vec![
            imp(0, DeviceKind::Fpga, 50.0),
            imp(1, DeviceKind::Fpga, 50.0),
        ]);
        let cross = Policy::from_impls(vec![
            imp(0, DeviceKind::Gpu, 50.0),
            imp(1, DeviceKind::Fpga, 50.0),
        ]);
        let m = SystemModel::new();
        let pool = poly_sched::Pool::heterogeneous(1, 2);
        let p_same = m.predict(&g, &same, &pool, 0.1);
        let p_cross = m.predict(&g, &cross, &pool, 0.1);
        assert!(p_cross.p99_ms > p_same.p99_ms, "{p_cross:?} vs {p_same:?}");
    }
}
