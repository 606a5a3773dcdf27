//! Ablation baseline: a naive list scheduler without the latency-priority
//! list of Eqs. 2–3 — plain topological order, each kernel on its
//! minimum-latency implementation, earliest-start device.
//!
//! DESIGN.md §6 calls for quantifying the value of the `W_L` ordering;
//! [`naive_plan`] is the strawman the two-step scheduler is measured
//! against (see the `ablations` experiment and the scheduler property
//! suite).

use crate::timeline::{schedule, Choice};
use crate::{Pool, ScheduleError, SchedulePlan};
use poly_device::{DeviceKind, PcieLink};
use poly_dse::KernelDesignSpace;
use poly_ir::KernelGraph;

/// Plan with plain topological order and per-kernel minimum-latency
/// implementations (no priority list, no energy step).
///
/// # Errors
/// Same conditions as the main scheduler: mismatched spaces, empty pool,
/// or a kernel without a feasible implementation.
pub fn naive_plan(
    graph: &KernelGraph,
    spaces: &[KernelDesignSpace],
    pool: &Pool,
    pcie: &PcieLink,
) -> Result<SchedulePlan, ScheduleError> {
    let order = graph.topological_order();
    let mut pins = Vec::with_capacity(graph.len());
    for (kernel, space) in graph.kernels().iter().zip(spaces) {
        let point = [DeviceKind::Gpu, DeviceKind::Fpga]
            .into_iter()
            .filter(|&k| pool.has(k))
            .filter_map(|k| space.min_latency(k))
            .min_by(|a, b| a.latency_ms().total_cmp(&b.latency_ms()))
            .ok_or_else(|| ScheduleError::NoImplementation {
                kernel: kernel.name().to_string(),
            })?;
        pins.push((point.kind, point.index));
    }
    schedule(graph, spaces, pool, pcie, order, Choice::Pinned(&pins))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Scheduler;
    use poly_device::catalog;
    use poly_dse::Explorer;
    use poly_ir::{KernelBuilder, KernelGraphBuilder, OpFunc, PatternKind, Shape};

    fn setup() -> (KernelGraph, Vec<KernelDesignSpace>) {
        let heavy = KernelBuilder::new("t")
            .pattern("m", PatternKind::Map, Shape::d2(1024, 512), &[OpFunc::Mac])
            .iterations(2000)
            .build()
            .unwrap();
        let light = heavy.with_iterations(200);
        // Two parallel chains of unequal length: priority ordering matters.
        let app = KernelGraphBuilder::new("app")
            .kernel(heavy.with_name("a1"))
            .kernel(heavy.with_name("a2"))
            .kernel(light.with_name("b1"))
            .kernel(light.with_name("sink"))
            .edge("a1", "a2", 1 << 20)
            .edge("a2", "sink", 1 << 20)
            .edge("b1", "sink", 1 << 20)
            .build()
            .unwrap();
        let ex = Explorer::new(catalog::amd_w9100(), catalog::xilinx_7v3());
        let spaces = app.kernels().iter().map(|k| ex.explore(k)).collect();
        (app, spaces)
    }

    #[test]
    fn naive_plan_is_valid() {
        let (app, spaces) = setup();
        let plan = naive_plan(
            &app,
            &spaces,
            &Pool::heterogeneous(1, 2),
            &PcieLink::gen3_x16(),
        )
        .expect("schedulable");
        assert!(plan.makespan_ms > 0.0);
        for e in app.edges() {
            assert!(plan.assignment(e.to).start_ms >= plan.assignment(e.from).end_ms - 1e-9);
        }
    }

    #[test]
    fn heft_never_loses_to_naive() {
        let (app, spaces) = setup();
        let pool = Pool::heterogeneous(1, 2);
        let pcie = PcieLink::gen3_x16();
        let naive = naive_plan(&app, &spaces, &pool, &pcie).expect("schedulable");
        let heft = Scheduler::default()
            .plan_latency(&app, &spaces, &pool)
            .expect("schedulable");
        assert!(
            heft.makespan_ms <= naive.makespan_ms + 1e-9,
            "HEFT {} vs naive {}",
            heft.makespan_ms,
            naive.makespan_ms
        );
    }

    #[test]
    fn naive_rejects_empty_pool() {
        let (app, spaces) = setup();
        assert!(naive_plan(&app, &spaces, &Pool::new(&[]), &PcieLink::gen3_x16()).is_err());
    }
}
