//! The system optimizer (the "Optimizer" box of Fig. 2): generate
//! candidate policies and pick the most efficient one predicted to meet
//! the QoS bound at the monitored load; under overload, maximize capacity.

use crate::{PolicyPrediction, SystemModel};
use poly_device::{DeviceKind, GpuModel, GpuTuning};
use poly_dse::{KernelDesignSpace, Tuning};
use poly_ir::{KernelGraph, KernelId};
use poly_sched::{Pool, Scheduler};
use poly_sim::{KernelImpl, Policy};
use std::cmp::Ordering;

/// Build a simulator [`Policy`] from explicit per-kernel design-point
/// picks `(kind, impl_index)`.
///
/// # Panics
/// Panics if a pick indexes outside its kernel's frontier.
#[must_use]
pub fn policy_from_points(
    spaces: &[KernelDesignSpace],
    picks: &[(DeviceKind, usize)],
    gpu_model: &GpuModel,
) -> Policy {
    let impls = spaces
        .iter()
        .zip(picks)
        .enumerate()
        .map(|(i, (space, &(kind, index)))| {
            let point = &space.points(kind)[index];
            let latency_single_ms = match &point.tuning {
                Tuning::Gpu(t) => {
                    let single = GpuTuning {
                        batch: 1,
                        ..t.clone()
                    };
                    gpu_model.estimate(&space.profile, &single).latency_ms
                }
                Tuning::Fpga(_) => point.estimate.latency_ms,
            };
            KernelImpl {
                kernel: KernelId(i),
                kind,
                impl_index: index,
                latency_ms: point.estimate.latency_ms,
                latency_single_ms,
                service_ms: point.estimate.service_ms,
                batch: point.estimate.batch,
                active_power_w: point.estimate.active_power_w,
                idle_power_w: point.estimate.idle_power_w,
            }
        })
        .collect();
    Policy::from_impls(impls)
}

/// The candidate policies of one plan, built once by
/// [`Optimizer::candidates`] and re-selected by [`Optimizer::select`] at
/// every load on the same pool.
#[derive(Debug)]
pub struct Candidates {
    policies: Vec<Policy>,
}

impl Candidates {
    /// The candidate policies, in the order [`Optimizer::select`] indexes.
    #[must_use]
    pub fn policies(&self) -> &[Policy] {
        &self.policies
    }
}

/// The load-aware policy optimizer.
///
/// Candidates per decision:
/// 1. the two-step Poly plan (latency then energy within the bound),
/// 2. the latency-only plan (overload reaction),
/// 3. **capacity plans**: every assignment of kernels to platforms
///    (2^K for the ≤ 4-kernel apps of Table II), each kernel using the
///    minimum-service implementation whose full-batch latency fits its
///    proportional share of the bound.
///
/// Selection: among candidates whose predicted p99 at the load stays
/// within `headroom × bound` and whose capacity exceeds the load by the
/// same margin, pick the lowest predicted power; otherwise fall back to
/// the highest-capacity candidate (the "shift to higher performance mode"
/// reaction of Section VI-C).
#[derive(Debug, Clone)]
pub struct Optimizer {
    model: SystemModel,
    scheduler: Scheduler,
    /// Fraction of the bound the optimizer is willing to fill (default
    /// 0.85 — QoS-sensitive systems keep a safety margin).
    pub headroom: f64,
}

impl Optimizer {
    /// Optimizer with a fresh model and default headroom.
    #[must_use]
    pub fn new() -> Self {
        Self {
            model: SystemModel::new(),
            scheduler: Scheduler::default(),
            headroom: 0.85,
        }
    }

    /// Access the underlying system model (e.g. to apply feedback).
    pub fn model_mut(&mut self) -> &mut SystemModel {
        &mut self.model
    }

    /// The underlying system model.
    #[must_use]
    pub fn model(&self) -> &SystemModel {
        &self.model
    }

    /// Choose a policy for load `rps` under `bound_ms`. Returns the policy
    /// and its prediction at that load.
    ///
    /// # Panics
    /// Panics if the scheduler cannot produce any plan (mismatched spaces
    /// or empty pool) — configuration errors, not runtime conditions.
    #[must_use]
    pub fn plan_for_load(
        &mut self,
        graph: &KernelGraph,
        spaces: &[KernelDesignSpace],
        pool: &Pool,
        gpu_model: &GpuModel,
        bound_ms: f64,
        rps: f64,
    ) -> (Policy, PolicyPrediction) {
        self.plan_for_load_capped(graph, spaces, pool, gpu_model, bound_ms, rps, f64::INFINITY)
    }

    /// [`plan_for_load`](Self::plan_for_load) under a node power cap: among
    /// the QoS-feasible candidates, prefer those whose predicted mean power
    /// stays within `power_cap_w` — the hook a cluster-wide power governor
    /// uses when it re-splits the fleet budget across nodes.
    ///
    /// The cap is a *soft* constraint: when no QoS-feasible candidate fits
    /// under it, the lowest-power feasible candidate is chosen anyway (QoS
    /// is never sacrificed to the budget), and under overload the
    /// highest-capacity candidate wins regardless of power — the paper's
    /// "shift to higher performance mode" reaction. A cap of
    /// `f64::INFINITY` reduces exactly to
    /// [`plan_for_load`](Self::plan_for_load).
    ///
    /// The plan is built in two halves: the candidate set, which does not
    /// depend on the load, the cap or the model's correction, and the
    /// selection among them at `rps`. [`ControlLoop`](crate::ControlLoop)
    /// keeps the first half across re-plans on an unchanged pool.
    ///
    /// # Panics
    /// Panics if the scheduler cannot produce any plan (mismatched spaces
    /// or empty pool) — configuration errors, not runtime conditions.
    #[must_use]
    #[allow(clippy::too_many_arguments)]
    pub fn plan_for_load_capped(
        &mut self,
        graph: &KernelGraph,
        spaces: &[KernelDesignSpace],
        pool: &Pool,
        gpu_model: &GpuModel,
        bound_ms: f64,
        rps: f64,
        power_cap_w: f64,
    ) -> (Policy, PolicyPrediction) {
        let candidates = self.candidates(graph, spaces, pool, gpu_model, bound_ms);
        let (chosen, prediction) =
            self.select(&candidates, graph, pool, bound_ms, rps, power_cap_w);
        (candidates.policies()[chosen].clone(), prediction)
    }

    /// The load-independent half of a plan: every candidate policy for
    /// `pool` under `bound_ms` (the two-step plan, the latency-only plan
    /// and the capacity plans). It depends on the graph, the spaces, the
    /// pool, the GPU model, the bound and the headroom — not on the load,
    /// the power cap or the model's correction — so it stays valid for as
    /// long as those do.
    ///
    /// # Panics
    /// Panics if the scheduler cannot produce any plan (mismatched spaces
    /// or empty pool) — configuration errors, not runtime conditions.
    #[must_use]
    pub fn candidates(
        &self,
        graph: &KernelGraph,
        spaces: &[KernelDesignSpace],
        pool: &Pool,
        gpu_model: &GpuModel,
        bound_ms: f64,
    ) -> Candidates {
        let mut policies: Vec<Policy> = Vec::new();

        // 1–2: the two-step plan and the latency-only plan.
        if let Ok(plan) = self
            .scheduler
            .plan(graph, spaces, pool, bound_ms * self.headroom)
        {
            policies.push(Policy::from_plan(&plan, spaces, gpu_model));
        }
        if let Ok(plan) = self.scheduler.plan_latency(graph, spaces, pool) {
            policies.push(Policy::from_plan(&plan, spaces, gpu_model));
        }

        // 3: capacity plans over all platform assignments.
        policies.extend(self.capacity_plans(graph, spaces, pool, gpu_model, bound_ms));
        assert!(!policies.is_empty(), "no schedulable candidate policy");
        Candidates { policies }
    }

    /// The load-dependent half of a plan: predict every candidate on
    /// `pool` at `rps` with the model's current correction and pick one —
    /// the lowest-power candidate that keeps QoS within the cap, else the
    /// lowest-power one that keeps QoS, else the highest-capacity one.
    /// Returns the chosen index into
    /// [`Candidates::policies`] and its prediction. `candidates` must have
    /// been built for the same graph, pool and bound.
    #[must_use]
    pub fn select(
        &self,
        candidates: &Candidates,
        graph: &KernelGraph,
        pool: &Pool,
        bound_ms: f64,
        rps: f64,
        power_cap_w: f64,
    ) -> (usize, PolicyPrediction) {
        let ok = |p: &PolicyPrediction| {
            p.p99_ms <= bound_ms * self.headroom && p.bottleneck_util <= self.headroom
        };
        // One pass keeps three running picks. Ties resolve as
        // `Iterator::min_by` (first minimum) and `max_by` (last maximum).
        let lower_power = |p: &PolicyPrediction, best: &Option<(usize, PolicyPrediction)>| {
            best.as_ref()
                .is_none_or(|(_, b)| p.avg_power_w.total_cmp(&b.avg_power_w) == Ordering::Less)
        };
        let mut capped = None;
        let mut feasible = None;
        let mut fastest: Option<(usize, PolicyPrediction)> = None;
        for (i, policy) in candidates.policies.iter().enumerate() {
            let p = self.model.predict(graph, policy, pool, rps);
            if ok(&p) {
                if p.avg_power_w <= power_cap_w && lower_power(&p, &capped) {
                    capped = Some((i, p.clone()));
                }
                if lower_power(&p, &feasible) {
                    feasible = Some((i, p.clone()));
                }
            }
            if fastest
                .as_ref()
                .is_none_or(|(_, b)| p.capacity_rps.total_cmp(&b.capacity_rps) != Ordering::Less)
            {
                fastest = Some((i, p));
            }
        }
        // Nothing fits the budget: keep QoS and get as close to the cap
        // as the hardware allows. Nothing keeps QoS: shift to capacity.
        capped
            .or(feasible)
            .or(fastest)
            .expect("non-empty candidates")
    }

    /// The best *fixed* policy for maximum sustainable throughput under
    /// the bound — how the homogeneous baselines of Section VI-A are
    /// provisioned (a competent static choice, just never re-planned).
    ///
    /// # Panics
    /// Panics if no candidate policy exists for the pool.
    #[must_use]
    pub fn max_capacity_policy(
        &mut self,
        graph: &KernelGraph,
        spaces: &[KernelDesignSpace],
        pool: &Pool,
        gpu_model: &GpuModel,
        bound_ms: f64,
    ) -> Policy {
        let mut candidates = self.capacity_plans(graph, spaces, pool, gpu_model, bound_ms);
        if let Ok(plan) = self.scheduler.plan_latency(graph, spaces, pool) {
            candidates.push(Policy::from_plan(&plan, spaces, gpu_model));
        }
        assert!(!candidates.is_empty(), "no schedulable candidate policy");
        candidates
            .into_iter()
            .map(|c| {
                let pred = self.model.predict(graph, &c, pool, 0.0);
                (c, pred)
            })
            .max_by(|a, b| {
                let score = |p: &PolicyPrediction, ok: bool| {
                    if ok {
                        p.capacity_rps
                    } else {
                        p.capacity_rps * 1e-6
                    }
                };
                let ok_a = a.1.p99_ms <= bound_ms * self.headroom;
                let ok_b = b.1.p99_ms <= bound_ms * self.headroom;
                score(&a.1, ok_a).total_cmp(&score(&b.1, ok_b))
            })
            .map(|(c, _)| c)
            .expect("non-empty candidates")
    }

    /// Enumerate capacity-oriented policies: every platform assignment of
    /// kernels (bounded at 2^12), minimum-service implementations within a
    /// per-kernel latency share.
    fn capacity_plans(
        &self,
        graph: &KernelGraph,
        spaces: &[KernelDesignSpace],
        pool: &Pool,
        gpu_model: &GpuModel,
        bound_ms: f64,
    ) -> Vec<Policy> {
        let k = graph.len();
        if k > 12 {
            return Vec::new();
        }
        // Per-kernel latency budget: proportional share of the bound by
        // each kernel's fastest latency.
        let fast: Vec<f64> = spaces
            .iter()
            .map(|s| {
                s.min_latency_any()
                    .map_or(f64::INFINITY, |p| p.latency_ms())
            })
            .collect();
        let fast_path = graph.critical_path(|kid| fast[kid.0], |_| 0.0).max(1e-9);
        let caps: Vec<f64> = fast
            .iter()
            .map(|f| (f / fast_path * bound_ms * self.headroom).max(*f))
            .collect();

        let mut out = Vec::new();
        'combo: for mask in 0u32..(1 << k) {
            let mut picks = Vec::with_capacity(k);
            for i in 0..k {
                let kind = if mask & (1 << i) != 0 {
                    DeviceKind::Gpu
                } else {
                    DeviceKind::Fpga
                };
                if !pool.has(kind) {
                    continue 'combo;
                }
                // Min-service point whose full-batch latency fits the cap
                // (throughput variant) and min-dynamic-energy point within
                // the same cap (efficiency variant); fall back to the
                // platform's fastest point.
                let fitting = || {
                    spaces[i]
                        .points(kind)
                        .iter()
                        .filter(|p| p.latency_ms() <= caps[i])
                };
                let fast = fitting()
                    .min_by(|a, b| a.service_ms().total_cmp(&b.service_ms()))
                    .or_else(|| spaces[i].min_latency(kind));
                let eff = fitting()
                    .min_by(|a, b| a.dynamic_energy_mj().total_cmp(&b.dynamic_energy_mj()))
                    .or_else(|| spaces[i].min_latency(kind));
                let (Some(fast), Some(eff)) = (fast, eff) else {
                    continue 'combo;
                };
                picks.push(((kind, fast.index), (kind, eff.index)));
            }
            // Avoid FPGA bitstream thrash: never assign more FPGA kernels
            // than FPGA devices.
            let fpga_kernels = picks
                .iter()
                .filter(|((k, _), _)| *k == DeviceKind::Fpga)
                .count();
            if fpga_kernels > pool.count(DeviceKind::Fpga) && fpga_kernels > 0 {
                continue;
            }
            let fast: Vec<(DeviceKind, usize)> = picks.iter().map(|(f, _)| *f).collect();
            let eff: Vec<(DeviceKind, usize)> = picks.iter().map(|(_, e)| *e).collect();
            out.push(policy_from_points(spaces, &fast, gpu_model));
            if eff != fast {
                out.push(policy_from_points(spaces, &eff, gpu_model));
            }
        }
        out
    }
}

impl Default for Optimizer {
    fn default() -> Self {
        Self::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use poly_device::catalog;
    use poly_dse::Explorer;
    use poly_ir::{KernelBuilder, KernelGraphBuilder, OpFunc, PatternKind, Shape};

    fn setup() -> (KernelGraph, Vec<KernelDesignSpace>, GpuModel) {
        let k = KernelBuilder::new("t")
            .pattern("m", PatternKind::Map, Shape::d2(1024, 512), &[OpFunc::Mac])
            .iterations(800)
            .build()
            .unwrap();
        let app = KernelGraphBuilder::new("app")
            .kernel(k.with_name("a"))
            .kernel(k.with_name("b"))
            .edge("a", "b", 1 << 20)
            .build()
            .unwrap();
        let gpu = catalog::amd_w9100();
        let ex = Explorer::new(gpu.clone(), catalog::xilinx_7v3());
        let spaces = app.kernels().iter().map(|k| ex.explore(k)).collect();
        (app, spaces, gpu)
    }

    #[test]
    fn low_load_prefers_low_power() {
        let (app, spaces, gpu) = setup();
        let pool = Pool::heterogeneous(1, 4);
        let mut opt = Optimizer::new();
        let (_, low) = opt.plan_for_load(&app, &spaces, &pool, &gpu, 200.0, 1.0);
        let (_, high) = opt.plan_for_load(&app, &spaces, &pool, &gpu, 200.0, 30.0);
        assert!(low.avg_power_w <= high.avg_power_w + 1e-9);
    }

    #[test]
    fn high_load_prefers_capacity() {
        let (app, spaces, gpu) = setup();
        let pool = Pool::heterogeneous(1, 4);
        let mut opt = Optimizer::new();
        let (_, low) = opt.plan_for_load(&app, &spaces, &pool, &gpu, 200.0, 1.0);
        let (_, high) = opt.plan_for_load(&app, &spaces, &pool, &gpu, 200.0, 1000.0);
        assert!(high.capacity_rps >= low.capacity_rps);
    }

    #[test]
    fn capacity_plans_respect_fpga_device_limit() {
        let (app, spaces, gpu) = setup();
        // Single FPGA: plans with both kernels on FPGA must be excluded.
        let pool = Pool::heterogeneous(1, 1);
        let opt = Optimizer::new();
        let plans = opt.capacity_plans(&app, &spaces, &pool, &gpu, 200.0);
        for p in &plans {
            let fpga_kernels = p
                .impls()
                .iter()
                .filter(|i| i.kind == DeviceKind::Fpga)
                .count();
            assert!(fpga_kernels <= 1, "{fpga_kernels} FPGA kernels on 1 device");
        }
    }

    #[test]
    fn policy_from_points_roundtrips_indices() {
        let (_, spaces, gpu) = setup();
        let picks = vec![(DeviceKind::Gpu, 0), (DeviceKind::Fpga, 0)];
        let policy = policy_from_points(&spaces, &picks, &gpu);
        assert_eq!(policy.of(KernelId(0)).kind, DeviceKind::Gpu);
        assert_eq!(policy.of(KernelId(1)).kind, DeviceKind::Fpga);
        assert_eq!(policy.of(KernelId(1)).impl_index, 0);
    }

    #[test]
    fn uncapped_plan_matches_plan_for_load() {
        let (app, spaces, gpu) = setup();
        let pool = Pool::heterogeneous(1, 4);
        let mut a = Optimizer::new();
        let mut b = Optimizer::new();
        let (pa, ra) = a.plan_for_load(&app, &spaces, &pool, &gpu, 200.0, 5.0);
        let (pb, rb) =
            b.plan_for_load_capped(&app, &spaces, &pool, &gpu, 200.0, 5.0, f64::INFINITY);
        assert_eq!(pa, pb);
        assert_eq!(ra, rb);
    }

    #[test]
    fn power_cap_is_soft_and_never_breaks_qos() {
        let (app, spaces, gpu) = setup();
        let pool = Pool::heterogeneous(1, 4);
        let mut opt = Optimizer::new();
        let (_, loose) =
            opt.plan_for_load_capped(&app, &spaces, &pool, &gpu, 200.0, 5.0, f64::INFINITY);
        // A cap below every candidate's power: QoS still holds and the
        // lowest-power feasible plan is chosen (same as the loose pick,
        // which already minimizes power).
        let (_, tight) = opt.plan_for_load_capped(&app, &spaces, &pool, &gpu, 200.0, 5.0, 1.0);
        assert!(tight.p99_ms <= 200.0, "{tight:?}");
        assert!(tight.avg_power_w <= loose.avg_power_w + 1e-9);
        // A cap sitting exactly at the loose pick's power keeps it.
        let (_, at) =
            opt.plan_for_load_capped(&app, &spaces, &pool, &gpu, 200.0, 5.0, loose.avg_power_w);
        assert!((at.avg_power_w - loose.avg_power_w).abs() < 1e-9);
    }

    #[test]
    fn chosen_policy_meets_bound_when_feasible() {
        let (app, spaces, gpu) = setup();
        let pool = Pool::heterogeneous(1, 4);
        let mut opt = Optimizer::new();
        let (_, pred) = opt.plan_for_load(&app, &spaces, &pool, &gpu, 200.0, 2.0);
        assert!(pred.p99_ms <= 200.0, "{pred:?}");
    }
}
