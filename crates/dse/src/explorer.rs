use crate::global::realizable_fractions;
use crate::local::{fpga_candidates_with_fractions, gpu_candidates_with_fractions};
use crate::{pareto_front, DesignPoint, KernelDesignSpace, Tuning};
use poly_device::{DeviceKind, FpgaModel, GpuModel};
use poly_ir::{Kernel, KernelProfile};

/// Exploration options.
#[derive(Debug, Clone, PartialEq)]
pub struct ExplorerConfig {
    /// Cap on Pareto points kept per platform (the frontier is evenly
    /// downsampled beyond this). Keeps the runtime scheduler's per-decision
    /// cost bounded.
    pub max_points: usize,
}

impl Default for ExplorerConfig {
    fn default() -> Self {
        Self { max_points: 24 }
    }
}

/// Model-guided design-space explorer (Section IV-C).
///
/// Where the paper spends "tens of hours" of placement-and-routing per
/// candidate and instead queries analytical models in seconds, we query the
/// same models in microseconds: every enumerated candidate implementation
/// is evaluated by [`GpuModel`]/[`FpgaModel`], infeasible FPGA designs are
/// pruned by the resource model, and the Pareto frontier over
/// (latency, power, service time) is retained.
#[derive(Debug, Clone)]
pub struct Explorer {
    gpu: GpuModel,
    fpga: FpgaModel,
    config: ExplorerConfig,
}

impl Explorer {
    /// Explorer over one GPU and one FPGA model with default options.
    #[must_use]
    pub fn new(gpu: GpuModel, fpga: FpgaModel) -> Self {
        Self::with_config(gpu, fpga, ExplorerConfig::default())
    }

    /// Explorer with explicit options.
    #[must_use]
    pub fn with_config(gpu: GpuModel, fpga: FpgaModel, config: ExplorerConfig) -> Self {
        Self { gpu, fpga, config }
    }

    /// The GPU model used for evaluation.
    #[must_use]
    pub fn gpu(&self) -> &GpuModel {
        &self.gpu
    }

    /// The FPGA model used for evaluation.
    #[must_use]
    pub fn fpga(&self) -> &FpgaModel {
        &self.fpga
    }

    /// On-chip scratchpad capacity assumed available for pattern fusion on
    /// GPUs (total LDS across compute units, GCN/Kepler class).
    pub const GPU_SCRATCH_BYTES: u64 = 2 << 20;

    /// Explore the design space of `kernel` on both platforms.
    ///
    /// Fusion fractions come from the global optimizer: the greedy fusion
    /// plan under each platform's on-chip capacity (GPU scratchpad; half
    /// of the FPGA's BRAM, the rest being staging buffers).
    #[must_use]
    pub fn explore(&self, kernel: &Kernel) -> KernelDesignSpace {
        let profile = kernel.profile();
        let (gpu_points, fpga_points) = self.candidates(kernel, &profile);
        let gpu_explored = gpu_points.len();
        let fpga_explored = fpga_points.len();
        KernelDesignSpace {
            kernel: kernel.name().to_string(),
            profile,
            gpu: self.prune(gpu_points),
            fpga: self.prune(fpga_points),
            gpu_explored,
            fpga_explored,
        }
    }

    /// Every enumerated candidate of `kernel` (whose profile is
    /// `profile`), evaluated: all GPU designs, and the FPGA designs that
    /// fit the device.
    fn candidates(
        &self,
        kernel: &Kernel,
        profile: &KernelProfile,
    ) -> (Vec<DesignPoint>, Vec<DesignPoint>) {
        let gpu_fracs = realizable_fractions(kernel, Self::GPU_SCRATCH_BYTES);
        let fpga_fracs = realizable_fractions(kernel, self.fpga.spec().bram_bytes / 2);

        let gpu = gpu_candidates_with_fractions(profile, &gpu_fracs)
            .into_iter()
            .map(|t| {
                let estimate = self.gpu.estimate(profile, &t);
                DesignPoint {
                    index: 0,
                    kind: DeviceKind::Gpu,
                    tuning: Tuning::Gpu(t),
                    estimate,
                }
            })
            .collect();
        let fpga = fpga_candidates_with_fractions(profile, &fpga_fracs)
            .into_iter()
            .filter_map(|t| {
                self.fpga
                    .estimate(profile, &t)
                    .ok()
                    .map(|estimate| DesignPoint {
                        index: 0,
                        kind: DeviceKind::Fpga,
                        tuning: Tuning::Fpga(t),
                        estimate,
                    })
            })
            .collect();
        (gpu, fpga)
    }

    /// Keep the Pareto frontier over (latency, power, service), evenly
    /// downsampled to the configured cap, and re-index.
    fn prune(&self, points: Vec<DesignPoint>) -> Vec<DesignPoint> {
        if points.is_empty() {
            return points;
        }
        let front = pareto_front(&points, objectives);
        let mut kept: Vec<DesignPoint> = front.into_iter().map(|i| points[i].clone()).collect();
        if kept.len() > self.config.max_points {
            let stride = kept.len() as f64 / self.config.max_points as f64;
            let mut sampled = Vec::with_capacity(self.config.max_points);
            for i in 0..self.config.max_points {
                sampled.push(kept[(i as f64 * stride) as usize].clone());
            }
            // Always keep the last (maximum-latency / minimum-power) point.
            if let Some(last) = kept.pop() {
                if sampled.last().map(|p| p.estimate.latency_ms) != Some(last.estimate.latency_ms) {
                    *sampled.last_mut().expect("non-empty") = last;
                }
            }
            kept = sampled;
        }
        for (i, p) in kept.iter_mut().enumerate() {
            p.index = i;
        }
        kept
    }
}

/// The pruning objectives, all minimized: (latency, power, service).
fn objectives(p: &DesignPoint) -> [f64; 3] {
    [
        p.estimate.latency_ms,
        p.estimate.active_power_w,
        p.estimate.service_ms,
    ]
}

#[cfg(test)]
mod tests {
    use super::*;
    use poly_device::catalog;
    use poly_ir::{KernelBuilder, OpFunc, PatternKind, Shape};

    fn lstm() -> Kernel {
        KernelBuilder::new("lstm")
            .pattern("m", PatternKind::Map, Shape::d2(2048, 512), &[OpFunc::Mac])
            .pattern(
                "r",
                PatternKind::Reduce,
                Shape::d2(2048, 512),
                &[OpFunc::Add],
            )
            .pattern(
                "act",
                PatternKind::pipeline(),
                Shape::d1(2048),
                &[OpFunc::Sigmoid, OpFunc::Tanh],
            )
            .chain()
            .iterations(800)
            .build()
            .unwrap()
    }

    #[test]
    fn explore_produces_nonempty_frontiers() {
        let space = Explorer::new(catalog::amd_w9100(), catalog::xilinx_7v3()).explore(&lstm());
        assert!(!space.gpu.is_empty());
        assert!(!space.fpga.is_empty());
        assert!(space.gpu_explored > space.gpu.len());
        assert!(space.fpga_explored >= space.fpga.len());
    }

    #[test]
    fn frontier_is_sorted_and_nondominated() {
        let space = Explorer::new(catalog::amd_w9100(), catalog::xilinx_7v3()).explore(&lstm());
        for pts in [&space.gpu, &space.fpga] {
            let lats: Vec<f64> = pts.iter().map(DesignPoint::latency_ms).collect();
            assert!(lats.windows(2).all(|w| w[0] <= w[1]), "sorted by latency");
            for a in pts.iter() {
                for b in pts.iter() {
                    let dominates = b.latency_ms() <= a.latency_ms()
                        && b.power_w() <= a.power_w()
                        && b.service_ms() <= a.service_ms()
                        && (b.latency_ms() < a.latency_ms()
                            || b.power_w() < a.power_w()
                            || b.service_ms() < a.service_ms());
                    assert!(
                        !dominates,
                        "{:?} dominates {:?}",
                        b.tuning.key(),
                        a.tuning.key()
                    );
                }
            }
        }
    }

    #[test]
    fn cap_is_respected_and_indices_contiguous() {
        let cfg = ExplorerConfig { max_points: 6 };
        let space = Explorer::with_config(catalog::amd_w9100(), catalog::xilinx_7v3(), cfg)
            .explore(&lstm());
        assert!(space.gpu.len() <= 6);
        assert!(space.fpga.len() <= 6);
        for (i, p) in space.gpu.iter().enumerate() {
            assert_eq!(p.index, i);
        }
    }

    #[test]
    fn frontier_spans_latency_energy_tradeoff() {
        let space = Explorer::new(catalog::amd_w9100(), catalog::xilinx_7v3()).explore(&lstm());
        // Fig. 1(c): the frontier must offer both a fast point and a
        // meaningfully more efficient slow point.
        for pts in [&space.gpu, &space.fpga] {
            if pts.len() < 2 {
                continue;
            }
            let first = &pts[0];
            let last = &pts[pts.len() - 1];
            assert!(last.latency_ms() > first.latency_ms());
            assert!(last.power_w() < first.power_w());
        }
    }

    /// The sweep keeps the scan's points in the scan's order on every
    /// kernel of the suite, on each Table III device pair (Settings
    /// I–III).
    #[test]
    fn suite_fronts_match_the_quadratic_scan() {
        let settings = [
            (catalog::amd_w9100(), catalog::xilinx_7v3()),
            (catalog::nvidia_k20(), catalog::xilinx_zcu102()),
            (catalog::nvidia_k20(), catalog::intel_arria10()),
        ];
        let mut spaces = 0;
        for (gpu, fpga) in settings {
            let explorer = Explorer::new(gpu, fpga);
            for app in poly_apps::suite() {
                for kernel in app.kernels() {
                    let (gpu_points, fpga_points) = explorer.candidates(kernel, &kernel.profile());
                    for points in [gpu_points, fpga_points] {
                        assert_eq!(
                            pareto_front(&points, objectives),
                            crate::pareto::quadratic_front(&points, objectives),
                            "{}::{}",
                            app.name(),
                            kernel.name()
                        );
                    }
                    spaces += 1;
                }
            }
        }
        assert_eq!(spaces, 51, "17 suite kernels x 3 settings");
    }

    #[test]
    fn infeasible_fpga_designs_are_pruned() {
        // A kernel with a huge per-element datapath: most unroll/CU combos
        // must overflow the DSP budget.
        let heavy = KernelBuilder::new("conv")
            .pattern(
                "c",
                PatternKind::Map,
                Shape::d2(256, 256),
                &[OpFunc::custom("conv7x7", 980)],
            )
            .build()
            .unwrap();
        let space = Explorer::new(catalog::nvidia_k20(), catalog::xilinx_zcu102()).explore(&heavy);
        let enumerated = crate::fpga_candidates(&heavy.profile()).len();
        assert!(
            space.fpga_explored < enumerated,
            "overflow pruning happened"
        );
        assert!(!space.fpga.is_empty(), "some design still fits");
    }
}
