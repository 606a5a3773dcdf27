//! Cluster-wide power budget governor.
//!
//! A datacenter rack has one provisioned power envelope, not one per
//! node. The governor owns that envelope and re-splits it across leaf
//! nodes every interval from *observed* load: busy nodes get a larger
//! cap (so their optimizer can pick faster, hungrier policies), idle
//! nodes are squeezed toward a floor, and fail-stopped nodes release
//! their share back to the survivors. Cap changes feed each node's
//! optimizer through [`crate::ClusterNode::set_power_cap`], which
//! triggers a re-plan when the split moves materially.
//!
//! With elastic fleets the split also has to understand *states*: a
//! scaled-down or revoked node draws nothing ([`NodeShare::Off`]), a
//! node still warming up draws the floor but earns no load-proportional
//! share ([`NodeShare::Warming`]), and an active node competes for the
//! budget at its QoS weight ([`NodeShare::Active`]). The same weighted
//! water-fill is reused inside a node to split its cap across tenants.

/// How one participant takes part in a [`weighted_water_fill`] split.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum NodeShare {
    /// Powered off (scaled down, failed, or revoked): zero cap, and its
    /// share flows to the survivors.
    Off,
    /// Warming up: pinned at the floor — enough to boot, no
    /// load-proportional share until it starts serving.
    Warming,
    /// Serving: competes for the budget at `weight × smoothed load`.
    Active {
        /// QoS weight multiplying the participant's demand signal.
        weight: f64,
    },
}

/// Split `budget_w` across participants by iterative weighted
/// water-filling. `demands` is the (smoothed) load signal per
/// participant; each [`NodeShare::Active`] participant competes at
/// `demand × weight`, [`NodeShare::Warming`] participants are pinned at
/// the floor, and [`NodeShare::Off`] participants get zero.
///
/// When the floors alone would exceed the budget (possible at runtime —
/// the eligible count changes as nodes scale), the floor degrades
/// proportionally to `budget / eligible` instead of over-subscribing,
/// so the split stays work-conserving. Caps of eligible participants
/// always sum to the full budget.
///
/// Deterministic: no iteration-order ambiguity, ties resolved by index.
///
/// # Panics
/// Panics if the slice lengths differ.
#[must_use]
pub fn weighted_water_fill(
    budget_w: f64,
    floor_w: f64,
    demands: &[f64],
    states: &[NodeShare],
) -> Vec<f64> {
    let n = states.len();
    assert_eq!(demands.len(), n, "one demand per participant");
    let mut caps = vec![0.0; n];
    let eligible = states
        .iter()
        .filter(|s| !matches!(s, NodeShare::Off))
        .count();
    if eligible == 0 {
        return caps;
    }
    // Graceful floor scaling: never let the floors over-subscribe the
    // budget — degrade them evenly instead.
    let floor_w = if floor_w * eligible as f64 > budget_w {
        budget_w / eligible as f64
    } else {
        floor_w
    };
    // Warming participants are pinned at the floor up front; the
    // water-fill then runs over the active set only.
    let mut pinned = vec![false; n];
    for i in 0..n {
        if matches!(states[i], NodeShare::Warming) {
            pinned[i] = true;
            caps[i] = floor_w;
        }
    }
    // Iterative water-filling: split proportionally to weighted demand,
    // pin any participant that would fall below the floor to the floor,
    // and re-split the remainder among the rest. Each pass pins at
    // least one participant, so this terminates.
    let weighted = |i: usize| match states[i] {
        NodeShare::Active { weight } => demands[i] * weight,
        _ => 0.0,
    };
    loop {
        let free: Vec<usize> = (0..n)
            .filter(|&i| !matches!(states[i], NodeShare::Off) && !pinned[i])
            .collect();
        if free.is_empty() {
            break;
        }
        let pinned_eligible = (0..n)
            .filter(|&i| !matches!(states[i], NodeShare::Off) && pinned[i])
            .count();
        let remaining = budget_w - floor_w * pinned_eligible as f64;
        let weight: f64 = free.iter().map(|&i| weighted(i)).sum();
        let mut changed = false;
        for &i in &free {
            let share = if weight > 0.0 {
                remaining * weighted(i) / weight
            } else {
                remaining / free.len() as f64
            };
            if share < floor_w {
                pinned[i] = true;
                caps[i] = floor_w;
                changed = true;
            } else {
                caps[i] = share;
            }
        }
        if !changed {
            break;
        }
    }
    caps
}

/// Splits a fixed cluster power budget across nodes proportionally to a
/// smoothed per-node load signal, with a per-node floor.
#[derive(Debug, Clone)]
pub struct PowerGovernor {
    budget_w: f64,
    floor_w: f64,
    /// EWMA of each node's assigned load, in RPS. `None` until the first
    /// observation so the split seeds from real traffic (same cold-start
    /// treatment as the node monitor's load estimate).
    load_ewma: Vec<Option<f64>>,
}

impl PowerGovernor {
    /// Governor over `nodes` nodes sharing `budget_w` watts, never
    /// squeezing an up node below `floor_w` (unless the floors alone
    /// would exceed the budget, in which case the floor degrades evenly
    /// — see [`weighted_water_fill`]).
    ///
    /// # Panics
    /// Panics if `nodes == 0`.
    #[must_use]
    pub fn new(budget_w: f64, floor_w: f64, nodes: usize) -> Self {
        assert!(nodes > 0, "governor needs at least one node");
        Self {
            budget_w,
            floor_w,
            load_ewma: vec![None; nodes],
        }
    }

    /// The smoothed load estimate for `node`, if one has been observed.
    /// The autoscaler reads this to decide when to grow or drain.
    #[must_use]
    pub fn load_estimate(&self, node: usize) -> Option<f64> {
        self.load_ewma[node]
    }

    /// Fold in one interval's observed per-node loads (RPS) and return
    /// the next per-node caps: off nodes get zero and their share flows
    /// to the others, warming nodes get the floor, active nodes a
    /// weighted load-proportional share, subject to the floor. The caps
    /// of the nodes that are not off always sum to the full budget
    /// (work-conserving split). The smoothed load keeps updating for
    /// every node regardless of state, so a node re-enters the split
    /// with its history intact.
    ///
    /// # Panics
    /// Panics if the slice lengths differ from the node count.
    pub fn observe_and_split_states(
        &mut self,
        loads_rps: &[f64],
        states: &[NodeShare],
    ) -> Vec<f64> {
        let n = self.load_ewma.len();
        assert_eq!(loads_rps.len(), n, "one load per node");
        assert_eq!(states.len(), n, "one state per node");
        for (e, &l) in self.load_ewma.iter_mut().zip(loads_rps) {
            *e = Some(match *e {
                None => l,
                Some(prev) => 0.5 * prev + 0.5 * l,
            });
        }
        let demands: Vec<f64> = self.load_ewma.iter().map(|e| e.unwrap_or(0.0)).collect();
        weighted_water_fill(self.budget_w, self.floor_w, &demands, states)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Split with every up node active at weight 1 and every down node
    /// off — the single-class fleet without autoscaling.
    fn split(g: &mut PowerGovernor, loads: &[f64], up: &[bool]) -> Vec<f64> {
        let states: Vec<NodeShare> = up
            .iter()
            .map(|&u| {
                if u {
                    NodeShare::Active { weight: 1.0 }
                } else {
                    NodeShare::Off
                }
            })
            .collect();
        g.observe_and_split_states(loads, &states)
    }

    fn total_up(caps: &[f64], up: &[bool]) -> f64 {
        caps.iter()
            .zip(up)
            .filter(|&(_, &u)| u)
            .map(|(c, _)| c)
            .sum()
    }

    #[test]
    fn idle_cluster_splits_evenly() {
        let mut g = PowerGovernor::new(1000.0, 100.0, 4);
        let caps = split(&mut g, &[0.0; 4], &[true; 4]);
        for c in &caps {
            assert!((c - 250.0).abs() < 1e-9);
        }
    }

    #[test]
    fn busy_nodes_take_the_larger_share() {
        let mut g = PowerGovernor::new(1000.0, 100.0, 2);
        let caps = split(&mut g, &[30.0, 10.0], &[true, true]);
        assert!((caps[0] - 750.0).abs() < 1e-9);
        assert!((caps[1] - 250.0).abs() < 1e-9);
        assert!((total_up(&caps, &[true, true]) - 1000.0).abs() < 1e-9);
    }

    #[test]
    fn floor_protects_idle_nodes_and_split_stays_work_conserving() {
        let mut g = PowerGovernor::new(1000.0, 150.0, 3);
        let caps = split(&mut g, &[100.0, 0.0, 0.0], &[true; 3]);
        assert!((caps[1] - 150.0).abs() < 1e-9, "idle node pinned to floor");
        assert!((caps[2] - 150.0).abs() < 1e-9);
        assert!(
            (caps[0] - 700.0).abs() < 1e-9,
            "remainder goes to the busy node"
        );
    }

    #[test]
    fn down_node_releases_its_share() {
        let mut g = PowerGovernor::new(900.0, 100.0, 3);
        let up = [true, false, true];
        let caps = split(&mut g, &[10.0, 10.0, 10.0], &up);
        assert_eq!(caps[1], 0.0);
        assert!((caps[0] - 450.0).abs() < 1e-9);
        assert!((caps[2] - 450.0).abs() < 1e-9);
    }

    #[test]
    fn load_signal_is_smoothed_not_instantaneous() {
        let mut g = PowerGovernor::new(1000.0, 0.0, 2);
        let _ = split(&mut g, &[40.0, 0.0], &[true, true]);
        // One quiet interval halves node 0's EWMA (20 vs 20): even split
        // would need equal smoothed loads, so node 0 still leads.
        let caps = split(&mut g, &[0.0, 20.0], &[true, true]);
        assert!(caps[0] > caps[1] - 1e-9);
    }

    #[test]
    fn all_nodes_down_yields_zero_caps() {
        let mut g = PowerGovernor::new(900.0, 100.0, 3);
        let caps = split(&mut g, &[10.0, 10.0, 10.0], &[false; 3]);
        assert_eq!(caps, vec![0.0; 3]);
        // The EWMA still updated: once a node comes back its history is
        // intact and it immediately earns a load-proportional share.
        let caps = split(&mut g, &[0.0, 0.0, 0.0], &[false, true, false]);
        assert_eq!(caps[0], 0.0);
        assert_eq!(caps[2], 0.0);
        assert!((caps[1] - 900.0).abs() < 1e-9, "sole survivor takes all");
    }

    #[test]
    fn floors_exceeding_budget_degrade_evenly() {
        // 4 × 300 W floors against a 1000 W budget: instead of
        // over-subscribing, everyone gets budget / eligible.
        let mut g = PowerGovernor::new(1000.0, 300.0, 4);
        let caps = split(&mut g, &[0.0; 4], &[true; 4]);
        for c in &caps {
            assert!((c - 250.0).abs() < 1e-9);
        }
        assert!((caps.iter().sum::<f64>() - 1000.0).abs() < 1e-9);
        // With one node down the floors fit again and apply unscaled.
        let caps = split(&mut g, &[50.0, 0.0, 0.0, 0.0], &[true, true, true, false]);
        assert!((caps[1] - 300.0).abs() < 1e-9);
        assert!((caps[2] - 300.0).abs() < 1e-9);
        assert!((caps[0] - 400.0).abs() < 1e-9);
    }

    #[test]
    fn warming_node_is_pinned_at_the_floor() {
        let mut g = PowerGovernor::new(1000.0, 100.0, 3);
        let states = [
            NodeShare::Active { weight: 1.0 },
            NodeShare::Active { weight: 1.0 },
            NodeShare::Warming,
        ];
        // The warm-up node gets exactly the floor even though it has no
        // load history; the actives split the rest by load.
        let caps = g.observe_and_split_states(&[30.0, 10.0, 0.0], &states);
        assert!((caps[2] - 100.0).abs() < 1e-9, "warming node at the floor");
        assert!((caps[0] - 675.0).abs() < 1e-9);
        assert!((caps[1] - 225.0).abs() < 1e-9);
        assert!((caps.iter().sum::<f64>() - 1000.0).abs() < 1e-9);
        // Mid-trace it activates: its EWMA picked up while warming, so
        // it joins the proportional split seamlessly.
        let all_active = [NodeShare::Active { weight: 1.0 }; 3];
        let caps = g.observe_and_split_states(&[30.0, 10.0, 20.0], &all_active);
        assert!(caps[2] > 100.0, "active node now earns a load share");
        assert!((caps.iter().sum::<f64>() - 1000.0).abs() < 1e-9);
    }

    #[test]
    fn class_weights_bias_the_fill() {
        // Equal demand, 3× weight: the weighted node takes 3× the share.
        let caps = weighted_water_fill(
            800.0,
            0.0,
            &[10.0, 10.0],
            &[
                NodeShare::Active { weight: 3.0 },
                NodeShare::Active { weight: 1.0 },
            ],
        );
        assert!((caps[0] - 600.0).abs() < 1e-9);
        assert!((caps[1] - 200.0).abs() < 1e-9);
    }
}
