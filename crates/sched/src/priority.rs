//! Priority lists: `W_L` (Eq. 2–3) and `W_E` (Eq. 5).

use poly_device::PcieLink;
use poly_dse::KernelDesignSpace;
use poly_ir::{KernelGraph, KernelId};

/// Latency priority `W_L(k_i)` for every kernel (Eqs. 2–3): the longest
/// remaining path from `k_i` to the sink, using each kernel's minimum
/// latency across all implementations and platforms and the PCIe transfer
/// time of each edge.
///
/// Computed bottom-up over the reversed topological order. Kernels with a
/// larger `W_L` are more latency-critical and scheduled first.
#[must_use]
pub fn latency_priorities(
    graph: &KernelGraph,
    spaces: &[KernelDesignSpace],
    pcie: &PcieLink,
) -> Vec<f64> {
    let order = graph.topological_order();
    let mut w = vec![0.0_f64; graph.len()];
    for &id in order.iter().rev() {
        let t_min = spaces[id.0]
            .min_latency_any()
            .map_or(f64::INFINITY, |p| p.latency_ms());
        let tail = graph
            .successors(id)
            .map(|e| pcie.transfer_ms(e.bytes) + w[e.to.0])
            .fold(0.0_f64, f64::max);
        w[id.0] = t_min + tail;
    }
    w
}

/// Energy priority `W_E(k_i)` for every kernel (Eq. 5): the maximum energy
/// reduction available by replacing the currently chosen implementation
/// with any other.
///
/// The paper's printed formula multiplies the power delta by the latency
/// delta, which is negative for exactly the beneficial trade (slower but
/// lower power); since the text defines `W_E` as "the maximum energy
/// reduction we could achieve", we implement the energy delta
/// `P(r0)·T(r0) − min_r P(r)·T(r)` directly.
///
/// `chosen` holds, per kernel, the platform points currently selected
/// (energy in millijoules).
#[must_use]
pub fn energy_priorities(spaces: &[KernelDesignSpace], chosen_energy_mj: &[f64]) -> Vec<f64> {
    spaces
        .iter()
        .zip(chosen_energy_mj)
        .map(|(space, &e0)| {
            let best = space
                .gpu
                .iter()
                .chain(space.fpga.iter())
                .map(|p| p.dynamic_energy_mj())
                .fold(f64::INFINITY, f64::min);
            (e0 - best).max(0.0)
        })
        .collect()
}

/// Kernel ids sorted by descending priority (stable: ties by ascending id).
#[must_use]
pub fn by_descending_priority(priorities: &[f64]) -> Vec<KernelId> {
    let mut ids: Vec<KernelId> = (0..priorities.len()).map(KernelId).collect();
    ids.sort_by(|a, b| {
        priorities[b.0]
            .partial_cmp(&priorities[a.0])
            .unwrap_or(std::cmp::Ordering::Equal)
            .then(a.0.cmp(&b.0))
    });
    ids
}

#[cfg(test)]
mod tests {
    use super::*;
    use poly_device::catalog;
    use poly_dse::Explorer;
    use poly_ir::{KernelBuilder, KernelGraphBuilder, OpFunc, PatternKind, Shape};

    /// Fig. 6 shape: k1→k4, k2→k3→k4; k2's path is longer.
    fn asr_like() -> (KernelGraph, Vec<KernelDesignSpace>) {
        let small = KernelBuilder::new("t")
            .pattern("m", PatternKind::Map, Shape::d2(512, 128), &[OpFunc::Mac])
            .iterations(100)
            .build()
            .unwrap();
        let big = small.with_iterations(400);
        let app = KernelGraphBuilder::new("asr")
            .kernel(big.with_name("k1"))
            .kernel(big.with_name("k2"))
            .kernel(small.with_name("k3"))
            .kernel(small.with_name("k4"))
            .edge("k1", "k4", 1 << 20)
            .edge("k2", "k3", 1 << 20)
            .edge("k3", "k4", 1 << 20)
            .build()
            .unwrap();
        let ex = Explorer::new(catalog::amd_w9100(), catalog::xilinx_7v3());
        let spaces = app.kernels().iter().map(|k| ex.explore(k)).collect();
        (app, spaces)
    }

    #[test]
    fn upstream_kernels_have_higher_priority() {
        let (app, spaces) = asr_like();
        let w = latency_priorities(&app, &spaces, &PcieLink::gen3_x16());
        let id = |n: &str| app.id_of(n).unwrap().0;
        assert!(w[id("k2")] > w[id("k3")]);
        assert!(w[id("k3")] > w[id("k4")]);
        assert!(w[id("k1")] > w[id("k4")]);
        // k2 heads the longer (3-kernel) path, so it outranks k1.
        assert!(w[id("k2")] > w[id("k1")]);
    }

    #[test]
    fn sink_priority_is_its_own_min_latency() {
        let (app, spaces) = asr_like();
        let w = latency_priorities(&app, &spaces, &PcieLink::gen3_x16());
        let k4 = app.id_of("k4").unwrap();
        let t_min = spaces[k4.0].min_latency_any().unwrap().latency_ms();
        assert!((w[k4.0] - t_min).abs() < 1e-9);
    }

    #[test]
    fn descending_order_is_stable() {
        let order = by_descending_priority(&[1.0, 3.0, 3.0, 0.5]);
        assert_eq!(
            order,
            vec![KernelId(1), KernelId(2), KernelId(0), KernelId(3)]
        );
    }

    #[test]
    fn energy_priority_zero_when_already_optimal() {
        let (_, spaces) = asr_like();
        let best: Vec<f64> = spaces
            .iter()
            .map(|s| {
                s.gpu
                    .iter()
                    .chain(s.fpga.iter())
                    .map(|p| p.dynamic_energy_mj())
                    .fold(f64::INFINITY, f64::min)
            })
            .collect();
        let w = energy_priorities(&spaces, &best);
        assert!(w.iter().all(|&x| x == 0.0));
    }

    #[test]
    fn energy_priority_positive_for_wasteful_choice() {
        let (_, spaces) = asr_like();
        // Choose the *fastest* implementation everywhere — typically not
        // the most efficient.
        let chosen: Vec<f64> = spaces
            .iter()
            .map(|s| s.min_latency_any().unwrap().dynamic_energy_mj())
            .collect();
        let w = energy_priorities(&spaces, &chosen);
        assert!(w.iter().any(|&x| x > 0.0));
    }
}
