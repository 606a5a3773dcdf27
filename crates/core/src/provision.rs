//! Leaf-node architecture assembly under a power cap (Table III).

use poly_backend::ExecBackend;
use poly_device::{catalog, FpgaModel, GpuModel, PcieLink};
use poly_sched::Pool;
use poly_sim::SimConfig;

/// The three leaf-node architectures the paper compares (Section II-A).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Architecture {
    /// GPUs only, Sirius-style static mapping.
    HomoGpu,
    /// FPGAs only, Sirius-style static mapping.
    HomoFpga,
    /// Both platforms, scheduled by Poly (power split 50%–50% per
    /// Table III, or custom for the scalability sweep of Fig. 13).
    HeterPoly,
}

impl Architecture {
    /// Display name as used in the paper's figures.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            Architecture::HomoGpu => "Homo-GPU",
            Architecture::HomoFpga => "Homo-FPGA",
            Architecture::HeterPoly => "Heter-Poly",
        }
    }
}

/// The three hardware settings of Table III.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Setting {
    /// AMD W9100 + Xilinx 7V3.
    I,
    /// NVIDIA K20 + Xilinx ZCU102.
    II,
    /// NVIDIA K20 + Intel Arria 10.
    III,
}

impl Setting {
    /// The GPU of this setting (Table IV).
    #[must_use]
    pub fn gpu(self) -> GpuModel {
        match self {
            Setting::I => catalog::amd_w9100(),
            Setting::II | Setting::III => catalog::nvidia_k20(),
        }
    }

    /// The FPGA of this setting (Table V).
    #[must_use]
    pub fn fpga(self) -> FpgaModel {
        match self {
            Setting::I => catalog::xilinx_7v3(),
            Setting::II => catalog::xilinx_zcu102(),
            Setting::III => catalog::intel_arria10(),
        }
    }

    /// All three settings.
    pub const ALL: [Setting; 3] = [Setting::I, Setting::II, Setting::III];

    /// Setting number as printed in Table III.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            Setting::I => "Setting-I",
            Setting::II => "Setting-II",
            Setting::III => "Setting-III",
        }
    }
}

/// A fully assembled leaf node: device pool, device models, and the
/// simulation parameters derived from them.
#[derive(Debug, Clone)]
pub struct NodeSetup {
    /// Architecture label.
    pub architecture: Architecture,
    /// Hardware setting.
    pub setting: Setting,
    /// The accelerator pool.
    pub pool: Pool,
    /// GPU model of the setting.
    pub gpu: GpuModel,
    /// FPGA model of the setting.
    pub fpga: FpgaModel,
    /// Simulator configuration (idle powers, reconfiguration time, PCIe).
    pub sim_config: SimConfig,
    /// The power cap the node was provisioned under, in watts.
    pub power_cap_w: f64,
    /// Execution backend the node runs kernels on (default analytical —
    /// the bit-identical modeled path). Cluster nodes each carry their
    /// own, so a fleet can mix modeled and measured nodes.
    pub backend: ExecBackend,
}

impl NodeSetup {
    /// Number of GPUs in the pool.
    #[must_use]
    pub fn gpus(&self) -> usize {
        self.pool.count(poly_device::DeviceKind::Gpu)
    }

    /// Number of FPGAs in the pool.
    #[must_use]
    pub fn fpgas(&self) -> usize {
        self.pool.count(poly_device::DeviceKind::Fpga)
    }

    /// Worst-case accelerator power of the node: every device at its board
    /// peak. Table III's Homo-GPU rows nominally exceed the 500 W cap
    /// (2 × 270 W), exactly as in the paper.
    #[must_use]
    pub fn provisioned_power_w(&self) -> f64 {
        self.gpus() as f64 * self.gpu.spec().peak_power_w
            + self.fpgas() as f64 * self.fpga.spec().peak_power_w
    }
}

fn sim_config(gpu: &GpuModel, fpga: &FpgaModel) -> SimConfig {
    SimConfig {
        pcie: PcieLink::gen3_x16(),
        latency_bound_ms: 200.0,
        gpu_idle_w: gpu.spec().idle_power_w,
        fpga_idle_w: fpga.spec().static_power_w,
        fpga_reconfig_ms: fpga.spec().reconfig_ms,
        lifecycle: poly_sim::LifecycleConfig::default(),
        dynamic: None,
        backend_label: ExecBackend::Analytical.label(),
        pipeline: poly_sim::PipelineConfig::default(),
    }
}

/// Assemble the node of Table III for `(setting, architecture)` under the
/// paper's 500 W leaf-node cap, using the table's exact device counts.
#[must_use]
pub fn table_iii(setting: Setting, architecture: Architecture) -> NodeSetup {
    let (gpus, fpgas) = match (setting, architecture) {
        (Setting::I, Architecture::HomoGpu) => (2, 0),
        (Setting::I, Architecture::HomoFpga) => (0, 10),
        (Setting::I, Architecture::HeterPoly) => (1, 5),
        (Setting::II, Architecture::HomoGpu) => (2, 0),
        (Setting::II, Architecture::HomoFpga) => (0, 16),
        (Setting::II, Architecture::HeterPoly) => (1, 8),
        (Setting::III, Architecture::HomoGpu) => (2, 0),
        (Setting::III, Architecture::HomoFpga) => (0, 8),
        (Setting::III, Architecture::HeterPoly) => (1, 4),
    };
    let gpu = setting.gpu();
    let fpga = setting.fpga();
    let sim_config = sim_config(&gpu, &fpga);
    let pool = Pool::heterogeneous(gpus, fpgas);
    NodeSetup {
        architecture,
        setting,
        pool,
        gpu,
        fpga,
        sim_config,
        power_cap_w: 500.0,
        backend: ExecBackend::Analytical,
    }
}

/// Provision a node by formula for the architecture-scalability sweep of
/// Fig. 13: split `power_cap_w` between the platforms at `gpu_share`
/// (`0.0` = Homo-FPGA, `1.0` = Homo-GPU) and fit as many devices as the
/// per-platform budget allows (nearest integer, at least one device in any
/// non-zero share).
///
/// # Panics
/// Panics if `gpu_share` is outside `\[0, 1\]` or the cap is non-positive.
#[must_use]
pub fn power_split(setting: Setting, power_cap_w: f64, gpu_share: f64) -> NodeSetup {
    assert!((0.0..=1.0).contains(&gpu_share), "share must be in [0,1]");
    assert!(power_cap_w > 0.0, "cap must be positive");
    let gpu = setting.gpu();
    let fpga = setting.fpga();
    let gpu_budget = power_cap_w * gpu_share;
    let fpga_budget = power_cap_w * (1.0 - gpu_share);
    let gpus = if gpu_share == 0.0 {
        0
    } else {
        ((gpu_budget / gpu.spec().peak_power_w).round() as usize).max(1)
    };
    let fpgas = if gpu_share == 1.0 {
        0
    } else {
        ((fpga_budget / fpga.spec().peak_power_w).round() as usize).max(1)
    };
    let architecture = if gpus == 0 {
        Architecture::HomoFpga
    } else if fpgas == 0 {
        Architecture::HomoGpu
    } else {
        Architecture::HeterPoly
    };
    let sim_config = sim_config(&gpu, &fpga);
    let pool = Pool::heterogeneous(gpus, fpgas);
    NodeSetup {
        architecture,
        setting,
        pool,
        gpu,
        fpga,
        sim_config,
        power_cap_w,
        backend: ExecBackend::Analytical,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table_iii_counts_match_paper() {
        let s1 = table_iii(Setting::I, Architecture::HeterPoly);
        assert_eq!((s1.gpus(), s1.fpgas()), (1, 5));
        let s2 = table_iii(Setting::II, Architecture::HomoFpga);
        assert_eq!((s2.gpus(), s2.fpgas()), (0, 16));
        let s3 = table_iii(Setting::III, Architecture::HeterPoly);
        assert_eq!((s3.gpus(), s3.fpgas()), (1, 4));
    }

    #[test]
    fn sim_config_follows_device_specs() {
        let n = table_iii(Setting::I, Architecture::HeterPoly);
        assert_eq!(n.sim_config.gpu_idle_w, n.gpu.spec().idle_power_w);
        assert_eq!(n.sim_config.fpga_idle_w, n.fpga.spec().static_power_w);
        assert_eq!(n.sim_config.fpga_reconfig_ms, n.fpga.spec().reconfig_ms);
    }

    #[test]
    fn provisioned_power_tracks_device_counts() {
        let het = table_iii(Setting::I, Architecture::HeterPoly);
        assert!((het.provisioned_power_w() - (270.0 + 5.0 * 45.0)).abs() < 1e-9);
        // The paper's own Homo-GPU rows nominally exceed the cap.
        let gpu = table_iii(Setting::I, Architecture::HomoGpu);
        assert!(gpu.provisioned_power_w() > gpu.power_cap_w);
    }

    #[test]
    fn power_split_endpoints_are_homogeneous() {
        let g = power_split(Setting::I, 1000.0, 1.0);
        assert_eq!(g.architecture, Architecture::HomoGpu);
        assert_eq!(g.fpgas(), 0);
        let f = power_split(Setting::I, 1000.0, 0.0);
        assert_eq!(f.architecture, Architecture::HomoFpga);
        assert_eq!(f.gpus(), 0);
    }

    #[test]
    fn fig13_example_point() {
        // Paper: "when the power split between GPUs and FPGAs is 80%-20%,
        // the Setting-I contains three GPUs and four FPGAs" (1000 W cap).
        let n = power_split(Setting::I, 1000.0, 0.8);
        assert_eq!((n.gpus(), n.fpgas()), (3, 4));
    }

    #[test]
    #[should_panic(expected = "share")]
    fn bad_share_panics() {
        let _ = power_split(Setting::I, 500.0, 1.5);
    }

    #[test]
    fn provisioned_pools_pin_table_iii() {
        // Table III's device counts, GPUs first then FPGAs in pool order,
        // for every (setting, architecture) pair.
        let table = [
            (Setting::I, Architecture::HomoGpu, (2, 0)),
            (Setting::I, Architecture::HomoFpga, (0, 10)),
            (Setting::I, Architecture::HeterPoly, (1, 5)),
            (Setting::II, Architecture::HomoGpu, (2, 0)),
            (Setting::II, Architecture::HomoFpga, (0, 16)),
            (Setting::II, Architecture::HeterPoly, (1, 8)),
            (Setting::III, Architecture::HomoGpu, (2, 0)),
            (Setting::III, Architecture::HomoFpga, (0, 8)),
            (Setting::III, Architecture::HeterPoly, (1, 4)),
        ];
        for (setting, arch, (gpus, fpgas)) in table {
            let n = table_iii(setting, arch);
            assert_eq!(
                n.pool,
                Pool::heterogeneous(gpus, fpgas),
                "{setting:?} {arch:?}"
            );
            assert!(n.backend.is_analytical());
            assert_eq!(n.sim_config.backend_label, "analytical");
        }
        // 500 W per platform: 500 / 225 W rounds to 2 K20s, 500 / 30 W
        // rounds to 17 ZCU102s.
        let split = power_split(Setting::II, 1000.0, 0.5);
        assert_eq!(split.pool, Pool::heterogeneous(2, 17));
        assert_eq!(split.architecture, Architecture::HeterPoly);
    }
}
