//! Property-based tests of the IR and the design-space explorer: profile
//! invariants under random patterns, Pareto-front laws, and fusion
//! monotonicity.

use poly::device::{catalog, DeviceKind, FpgaTuning, GpuTuning};
use poly::dse::{pareto_front, Explorer, ExplorerConfig, FusionPlan};
use poly::ir::{Kernel, KernelBuilder, OpFunc, PatternKind, Shape};
use proptest::prelude::*;

fn arb_funcs() -> impl Strategy<Value = Vec<OpFunc>> {
    prop_oneof![
        Just(vec![OpFunc::Add]),
        Just(vec![OpFunc::Mac]),
        Just(vec![OpFunc::Mac, OpFunc::Sigmoid]),
        Just(vec![OpFunc::GfMac, OpFunc::Lookup]),
        Just(vec![OpFunc::custom("ip", 24)]),
    ]
}

fn arb_kernel() -> impl Strategy<Value = Kernel> {
    (
        16u64..4096,
        1u64..512,
        1u64..2000,
        arb_funcs(),
        any::<bool>(),
    )
        .prop_map(|(x, y, iters, funcs, with_reduce)| {
            let mut b =
                KernelBuilder::new("k").pattern("m", PatternKind::Map, Shape::d2(x, y), &funcs);
            if with_reduce {
                b = b.pattern("r", PatternKind::Reduce, Shape::d2(x, y), &[OpFunc::Add]);
            }
            b.chain().iterations(iters).build().expect("valid kernel")
        })
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 48, ..ProptestConfig::default() })]

    /// Profile invariants hold for arbitrary kernels.
    #[test]
    fn profile_invariants(kernel in arb_kernel()) {
        let p = kernel.profile();
        prop_assert!(p.flops > 0);
        prop_assert!(p.elements > 0);
        prop_assert!(p.min_bytes <= p.unfused_bytes);
        prop_assert!(p.max_data_parallelism >= 1);
        prop_assert!(p.pipeline_depth >= 1);
        prop_assert!((0.5..=2.0).contains(&p.fpga_affinity));
        prop_assert!(p.total_flops() >= p.flops as f64);
        prop_assert!(p.ops_per_element() > 0.0);
    }

    /// GPU estimates respond sanely to arbitrary kernels: positive
    /// latency, service ≤ latency, power within board limits.
    #[test]
    fn gpu_estimates_are_physical(kernel in arb_kernel(), batch in 1u32..32) {
        let gpu = catalog::amd_w9100();
        let est = gpu.estimate(&kernel.profile(), &GpuTuning { batch, ..GpuTuning::default() });
        prop_assert!(est.latency_ms > 0.0);
        prop_assert!(est.service_ms <= est.latency_ms + 1e-9);
        prop_assert!(est.active_power_w >= est.idle_power_w);
        prop_assert!(est.active_power_w <= gpu.spec().peak_power_w * 1.5);
    }

    /// Feasible FPGA estimates never exceed the device's resources, and
    /// utilization is consistent with the capacity check.
    #[test]
    fn fpga_estimates_respect_resources(
        kernel in arb_kernel(),
        cu in 1u32..8,
        unroll in prop_oneof![Just(1u32), Just(4), Just(16), Just(64)],
        ports in prop_oneof![Just(1u32), Just(16), Just(64)],
    ) {
        let fpga = catalog::xilinx_7v3();
        let tuning = FpgaTuning { compute_units: cu, unroll, bram_ports: ports, ..FpgaTuning::default() };
        match fpga.estimate(&kernel.profile(), &tuning) {
            Ok(est) => {
                let r = est.resources.expect("fpga estimates carry resources");
                prop_assert!(r.dsp <= fpga.spec().dsp_slices);
                prop_assert!(r.luts <= fpga.spec().logic_cells);
                prop_assert!(r.bram_bytes <= fpga.spec().bram_bytes);
                prop_assert!((0.0..=1.0).contains(&r.utilization));
                prop_assert!(est.latency_ms > 0.0);
            }
            Err(overflow) => {
                prop_assert!(overflow.demanded > overflow.available);
            }
        }
    }

    /// The explorer's frontier is mutually non-dominated and sorted.
    #[test]
    fn frontier_is_nondominated(kernel in arb_kernel()) {
        let explorer = Explorer::with_config(
            catalog::amd_w9100(),
            catalog::xilinx_7v3(),
            ExplorerConfig { max_points: 12 },
        );
        let space = explorer.explore(&kernel);
        for kind in [DeviceKind::Gpu, DeviceKind::Fpga] {
            let pts = space.points(kind);
            prop_assert!(!pts.is_empty(), "{kind} frontier empty");
            for w in pts.windows(2) {
                prop_assert!(w[0].latency_ms() <= w[1].latency_ms() + 1e-12);
            }
            for a in pts {
                for b in pts {
                    let dominates = b.latency_ms() <= a.latency_ms()
                        && b.power_w() <= a.power_w()
                        && b.service_ms() <= a.service_ms()
                        && (b.latency_ms() < a.latency_ms()
                            || b.power_w() < a.power_w()
                            || b.service_ms() < a.service_ms());
                    prop_assert!(!dominates);
                }
            }
        }
    }

    /// pareto_front laws on random 2-D point sets: the front is
    /// non-dominated, and every excluded point is dominated by someone.
    #[test]
    fn pareto_front_laws(pts in proptest::collection::vec((0.0f64..100.0, 0.0f64..100.0), 1..60)) {
        let front = pareto_front(&pts, |p| [p.0, p.1]);
        prop_assert!(!front.is_empty());
        let dominated = |a: (f64, f64), b: (f64, f64)| {
            b.0 <= a.0 && b.1 <= a.1 && (b.0 < a.0 || b.1 < a.1)
        };
        for &i in &front {
            for &j in &front {
                prop_assert!(!dominated(pts[i], pts[j]));
            }
        }
        for (i, p) in pts.iter().enumerate() {
            if !front.contains(&i) {
                let covered = front.iter().any(|&j| dominated(*p, pts[j]))
                    || front.iter().any(|&j| pts[j] == *p); // duplicate
                prop_assert!(covered, "point {i} excluded but not dominated");
            }
        }
    }

    /// Fusion capacity monotonicity: more on-chip capacity never fuses
    /// less traffic.
    #[test]
    fn fusion_monotone_in_capacity(
        kernel in arb_kernel(),
        cap_a in 0u64..1 << 24,
        cap_b in 0u64..1 << 24,
    ) {
        let (lo, hi) = (cap_a.min(cap_b), cap_a.max(cap_b));
        let plan_lo = FusionPlan::greedy(&kernel, lo);
        let plan_hi = FusionPlan::greedy(&kernel, hi);
        prop_assert!(plan_hi.onchip_bytes() >= plan_lo.onchip_bytes());
        prop_assert!(plan_hi.fused_fraction() >= plan_lo.fused_fraction() - 1e-12);
        prop_assert!(plan_lo.onchip_bytes() <= lo);
    }
}
