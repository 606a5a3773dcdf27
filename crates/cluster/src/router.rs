//! Front-end request routing and admission control.
//!
//! The router dispatches each arriving request to one leaf node using a
//! pluggable [`RoutingPolicy`]. Decisions are made against a
//! *start-of-interval snapshot* of every node ([`NodeView`]) plus a
//! per-interval ledger of what the router itself has already assigned —
//! exactly the periodically refreshed view a real front-end holds: it
//! never observes a node's queue mid-flight, only the health/load reports
//! nodes push each re-planning interval. This also keeps every node's
//! discrete-event simulation independent, so a cluster replay is
//! deterministic regardless of worker-thread count.
//!
//! Optionally each node is guarded by a [`CircuitBreaker`]
//! ([`Router::enable_breakers`]): nodes whose intervals keep violating
//! the QoS bound are cut off and re-admitted through a bounded probe
//! ramp, on top of whatever the routing policy decides.

use crate::{BreakerConfig, CircuitBreaker};

/// The router's snapshot of one leaf node at the start of an interval.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct NodeView {
    /// Whether the node has any healthy device (fail-stopped nodes are
    /// excluded from routing until they recover).
    pub up: bool,
    /// Work items queued on the node at the snapshot.
    pub queued: usize,
    /// Mean node power over the previous interval, in watts.
    pub power_w: f64,
    /// The node's current power cap from the cluster governor, in watts.
    pub power_cap_w: f64,
    /// The node's predicted sustainable capacity under its current
    /// policy, in RPS.
    pub capacity_rps: f64,
}

/// How the front-end assigns requests to nodes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RoutingPolicy {
    /// Cycle through the up nodes in index order.
    RoundRobin,
    /// Send each request to the node with the fewest queued + already
    /// assigned requests (power-oblivious load balancing).
    JoinShortestQueue,
    /// Weight nodes by power headroom: prefer the node with the largest
    /// `(cap - recent power)` budget, discounted by what this interval
    /// has already assigned to it.
    PowerHeadroom,
    /// QoS-aware admission control: each node only accepts up to
    /// `headroom x capacity` requests per interval; excess traffic is
    /// *deferred* to the next interval while the backlog lasts and *shed*
    /// beyond that, so admitted requests keep meeting the latency bound
    /// instead of everyone queueing past it.
    QosAware,
}

impl RoutingPolicy {
    /// All policies, in the order the experiment figure compares them.
    pub const ALL: [RoutingPolicy; 4] = [
        RoutingPolicy::RoundRobin,
        RoutingPolicy::JoinShortestQueue,
        RoutingPolicy::PowerHeadroom,
        RoutingPolicy::QosAware,
    ];

    /// Display name as used in figures and CSVs.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            RoutingPolicy::RoundRobin => "round-robin",
            RoutingPolicy::JoinShortestQueue => "join-shortest-queue",
            RoutingPolicy::PowerHeadroom => "power-headroom",
            RoutingPolicy::QosAware => "qos-aware",
        }
    }
}

/// The router's per-class view of one node: what one QoS class can see
/// of its own tenant stack there.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ClassNodeView {
    /// Work items of this class queued on the node at the snapshot.
    pub queued: usize,
    /// The tenant's predicted sustainable capacity on this node, RPS.
    pub capacity_rps: f64,
}

/// What the router did with one interval's multi-class arrivals.
#[derive(Debug, Clone, PartialEq)]
pub struct ClassRouteOutcome {
    /// Arrival times assigned per node, per class (`per_node[node][class]`),
    /// each list in time order.
    pub per_node: Vec<Vec<Vec<f64>>>,
    /// Requests dropped this interval, summed across classes.
    pub shed: usize,
    /// Per-class (admitted, deferred, shed) breakdown.
    pub per_class: Vec<(usize, usize, usize)>,
}

/// The front-end router: one [`RoutingPolicy`] plus the cross-interval
/// state it needs (round-robin cursor, per-class deferral backlogs).
#[derive(Debug, Clone)]
pub struct Router {
    policy: RoutingPolicy,
    cursor: usize,
    /// Fraction of a node's predicted capacity the QoS-aware policy is
    /// willing to fill per interval (mirrors the optimizer's headroom).
    headroom: f64,
    /// Deferral bound: beyond this many waiting requests the QoS-aware
    /// policy sheds instead of deferring.
    max_backlog: usize,
    /// Per-node circuit breakers; empty while breakers are disabled.
    breakers: Vec<CircuitBreaker>,
    /// Per-class deferral backlogs.
    class_backlogs: Vec<Vec<f64>>,
}

impl Router {
    /// Router for `policy` with the default admission headroom (0.85) and
    /// backlog bound.
    #[must_use]
    pub fn new(policy: RoutingPolicy) -> Self {
        Self {
            policy,
            cursor: usize::MAX, // first round-robin pick is node 0
            headroom: 0.85,
            max_backlog: 1024,
            breakers: Vec::new(),
            class_backlogs: Vec::new(),
        }
    }

    /// Guard each of `n` nodes with a circuit breaker. Breakers start
    /// closed; feed them with [`observe_health`](Self::observe_health)
    /// once per interval.
    pub fn enable_breakers(&mut self, config: BreakerConfig, n: usize) {
        self.breakers = vec![CircuitBreaker::new(config); n];
    }

    /// Per-node breaker states (empty while breakers are disabled).
    #[must_use]
    pub fn breakers(&self) -> &[CircuitBreaker] {
        &self.breakers
    }

    /// Feed every breaker one interval's `(completed, violations, up)`
    /// observation, in node order. No-op while breakers are disabled.
    ///
    /// # Panics
    /// Panics if `stats` does not cover every breaker-guarded node.
    pub fn observe_health(&mut self, stats: &[(usize, usize, bool)]) {
        if self.breakers.is_empty() {
            return;
        }
        assert_eq!(stats.len(), self.breakers.len(), "one entry per node");
        for (b, &(completed, violations, up)) in self.breakers.iter_mut().zip(stats) {
            b.observe(completed, violations, up);
        }
    }

    /// Whether node `i` may take one more request this interval, given
    /// `assigned` already routed to it (breaker gate only; always true
    /// while breakers are disabled).
    fn admits(&self, i: usize, assigned: usize) -> bool {
        self.breakers.get(i).is_none_or(|b| b.admits(assigned))
    }

    /// Bound the deferral backlog: beyond `n` waiting requests the
    /// QoS-aware policy (or an all-nodes-down interval) sheds instead of
    /// deferring. Deferred requests are latency bombs — a request parked
    /// for a whole interval has already lost most of its budget — so the
    /// bound should reflect how much delayed work the SLO tolerates.
    pub fn set_max_backlog(&mut self, n: usize) {
        self.max_backlog = n;
    }

    /// Requests currently deferred (all classes).
    #[must_use]
    pub fn backlog_len(&self) -> usize {
        self.class_backlogs.iter().map(Vec::len).sum()
    }

    /// Route one interval's arrivals (absolute times within
    /// `[start_ms, start_ms + interval_ms)`) for one or more QoS classes
    /// across the nodes of `views`.
    ///
    /// `class_views[node][class]` is each tenant's own queue/capacity on
    /// each node; `arrivals[class]` the class's fresh arrival times;
    /// `weights[class]` its QoS weight. Classes are processed in
    /// descending weight order (ties broken by class index), each with
    /// its *own* admission budget per node — a lenient tenant's flood
    /// consumes only its own tenant stack's budget, so it can never
    /// starve a strict one — and its own deferral backlog, bounded by a
    /// weight-proportional share of the router's backlog bound (at least
    /// one slot per class unless the bound is 0, which sheds everything
    /// that finds no node). A class's previously deferred requests are
    /// re-offered ahead of its fresh arrivals, paced evenly across the
    /// interval.
    ///
    /// # Panics
    /// Panics if `views` is empty or the class dimensions disagree.
    pub fn route_classes(
        &mut self,
        views: &[NodeView],
        class_views: &[Vec<ClassNodeView>],
        arrivals: &[&[f64]],
        weights: &[f64],
        start_ms: f64,
        interval_ms: f64,
    ) -> ClassRouteOutcome {
        assert!(!views.is_empty(), "cluster has no nodes");
        let n = views.len();
        let classes = arrivals.len();
        assert_eq!(weights.len(), classes, "one weight per class");
        assert_eq!(class_views.len(), n, "one class-view row per node");
        for row in class_views {
            assert_eq!(row.len(), classes, "one class view per class");
        }
        if self.class_backlogs.len() != classes {
            self.class_backlogs = vec![Vec::new(); classes];
        }
        // Weight-proportional deferral bounds (at least one slot each
        // while deferral is enabled at all).
        let weight_sum: f64 = weights.iter().sum();
        let floor = usize::from(self.max_backlog > 0);
        let bounds: Vec<usize> = weights
            .iter()
            .map(|w| {
                if weight_sum > 0.0 {
                    ((self.max_backlog as f64 * w / weight_sum) as usize).max(floor)
                } else {
                    self.max_backlog / classes.max(1)
                }
            })
            .collect();
        // Strict-first processing order: descending weight, index ties.
        let mut order: Vec<usize> = (0..classes).collect();
        order.sort_by(|&a, &b| weights[b].total_cmp(&weights[a]).then(a.cmp(&b)));

        let mut per_node: Vec<Vec<Vec<f64>>> = vec![vec![Vec::new(); classes]; n];
        // Node-total assignment ledger (queue pressure, breaker gate)…
        let mut assigned = vec![0usize; n];
        // …and the per-class ledger the per-class budgets meter.
        let mut class_assigned: Vec<Vec<usize>> = vec![vec![0usize; n]; classes];
        let mut per_class_out = vec![(0usize, 0usize, 0usize); classes];
        let any_up = views.iter().any(|v| v.up);

        for &c in &order {
            // Per-class QoS budgets against the class's own tenant stack.
            let budgets: Vec<f64> = class_views
                .iter()
                .map(|row| {
                    let v = row[c];
                    (v.capacity_rps * self.headroom * interval_ms / 1000.0 - v.queued as f64)
                        .max(0.0)
                })
                .collect();
            // Oldest first: the class's deferred backlog re-enters ahead
            // of its fresh arrivals. Re-admissions are *paced* evenly
            // across the interval rather than re-timed to its start — a
            // synchronized re-entry herd lands on a node as one burst
            // that can blow every request's latency budget at once
            // (worst on a half-open node, whose probe quota would arrive
            // as a single spike, time out wholesale, and keep the breaker
            // from ever closing). Backlog still takes admission
            // priority; only the timestamps spread.
            let drained: Vec<f64> = std::mem::take(&mut self.class_backlogs[c]);
            let pace = interval_ms / drained.len().max(1) as f64;
            let waiting: Vec<f64> = drained
                .iter()
                .enumerate()
                .map(|(i, _)| start_ms + pace * i as f64)
                .chain(arrivals[c].iter().copied())
                .collect();
            let mut shed = 0usize;
            let mut admitted = 0usize;
            for &t in &waiting {
                let target = if !any_up {
                    None
                } else {
                    match self.policy {
                        RoutingPolicy::RoundRobin => self.next_round_robin(views, &assigned),
                        RoutingPolicy::JoinShortestQueue => (0..n)
                            .filter(|&i| views[i].up && self.admits(i, assigned[i]))
                            .min_by_key(|&i| views[i].queued + assigned[i]),
                        RoutingPolicy::PowerHeadroom => (0..n)
                            .filter(|&i| views[i].up && self.admits(i, assigned[i]))
                            .map(|i| {
                                let head = (views[i].power_cap_w - views[i].power_w).max(0.0);
                                (i, head / (1.0 + assigned[i] as f64))
                            })
                            .max_by(|a, b| a.1.total_cmp(&b.1).then(b.0.cmp(&a.0)))
                            .map(|(i, _)| i),
                        // Shortest class queue among the nodes with
                        // class budget left.
                        RoutingPolicy::QosAware => (0..n)
                            .filter(|&i| {
                                views[i].up
                                    && budgets[i] - class_assigned[c][i] as f64 >= 1.0
                                    && self.admits(i, assigned[i])
                            })
                            .min_by_key(|&i| class_views[i][c].queued + class_assigned[c][i]),
                    }
                };
                match target {
                    Some(i) => {
                        assigned[i] += 1;
                        class_assigned[c][i] += 1;
                        per_node[i][c].push(t);
                        admitted += 1;
                    }
                    None => {
                        if self.class_backlogs[c].len() < bounds[c] {
                            self.class_backlogs[c].push(t);
                        } else {
                            shed += 1;
                        }
                    }
                }
            }
            per_class_out[c] = (admitted, self.class_backlogs[c].len(), shed);
        }
        // Paced backlog re-admissions interleave with fresh arrivals, so
        // restore time order per node before handing the lists to the
        // node simulations.
        for node in &mut per_node {
            for class in node {
                class.sort_by(f64::total_cmp);
            }
        }
        let shed = per_class_out.iter().map(|&(_, _, s)| s).sum();
        ClassRouteOutcome {
            per_node,
            shed,
            per_class: per_class_out,
        }
    }

    /// Next up, breaker-admissible node after the cursor, wrapping;
    /// `None` when every node is down or cut off.
    fn next_round_robin(&mut self, views: &[NodeView], assigned: &[usize]) -> Option<usize> {
        let n = views.len();
        for k in 1..=n {
            let i = self.cursor.wrapping_add(k) % n;
            if views[i].up && self.admits(i, assigned[i]) {
                self.cursor = i;
                return Some(i);
            }
        }
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn view(up: bool, queued: usize, power_w: f64, capacity_rps: f64) -> NodeView {
        NodeView {
            up,
            queued,
            power_w,
            power_cap_w: 500.0,
            capacity_rps,
        }
    }

    fn class_view(queued: usize, capacity_rps: f64) -> ClassNodeView {
        ClassNodeView {
            queued,
            capacity_rps,
        }
    }

    /// Route one class of weight 1 whose tenant sees each node's own
    /// queue and capacity — the single-class fleet.
    fn route_one(
        r: &mut Router,
        views: &[NodeView],
        arrivals: &[f64],
        start_ms: f64,
    ) -> ClassRouteOutcome {
        let class_views: Vec<Vec<ClassNodeView>> = views
            .iter()
            .map(|v| vec![class_view(v.queued, v.capacity_rps)])
            .collect();
        r.route_classes(views, &class_views, &[arrivals], &[1.0], start_ms, 1000.0)
    }

    #[test]
    fn round_robin_cycles_up_nodes_only() {
        let mut r = Router::new(RoutingPolicy::RoundRobin);
        let views = [
            view(true, 0, 0.0, 100.0),
            view(false, 0, 0.0, 100.0),
            view(true, 0, 0.0, 100.0),
        ];
        let out = route_one(&mut r, &views, &[0.0, 1.0, 2.0, 3.0], 0.0);
        assert_eq!(out.per_node[0][0], vec![0.0, 2.0]);
        assert!(out.per_node[1][0].is_empty(), "down node receives nothing");
        assert_eq!(out.per_node[2][0], vec![1.0, 3.0]);
        assert_eq!((r.backlog_len(), out.shed), (0, 0));
    }

    #[test]
    fn jsq_prefers_emptier_nodes_counting_own_assignments() {
        let mut r = Router::new(RoutingPolicy::JoinShortestQueue);
        let views = [view(true, 5, 0.0, 100.0), view(true, 0, 0.0, 100.0)];
        let out = route_one(&mut r, &views, &[0.0, 1.0, 2.0], 0.0);
        // All three go to node 1 until its ledger catches up with node
        // 0's queue — 5 > 0, 5 > 1, 5 > 2.
        assert_eq!(out.per_node[1][0].len(), 3);
        assert!(out.per_node[0][0].is_empty());
    }

    #[test]
    fn power_headroom_prefers_the_coolest_node() {
        let mut r = Router::new(RoutingPolicy::PowerHeadroom);
        // Node 0 is near its cap, node 1 is cold.
        let views = [view(true, 0, 480.0, 100.0), view(true, 0, 100.0, 100.0)];
        let out = route_one(&mut r, &views, &[0.0, 1.0], 0.0);
        assert_eq!(out.per_node[1][0].len(), 2);
    }

    #[test]
    fn qos_aware_sheds_when_cluster_is_saturated() {
        let mut r = Router::new(RoutingPolicy::QosAware);
        r.max_backlog = 2;
        // Each node admits 0.85 x 2 rps x 1 s ≈ 1 request per interval.
        let views = [view(true, 0, 0.0, 2.0), view(true, 0, 0.0, 2.0)];
        let arrivals: Vec<f64> = (0..6).map(f64::from).collect();
        let out = route_one(&mut r, &views, &arrivals, 0.0);
        let admitted: usize = out.per_node.iter().map(|n| n[0].len()).sum();
        assert_eq!(admitted, 2, "one per node under the QoS budget");
        assert_eq!(r.backlog_len(), 2, "backlog bound respected");
        assert_eq!(out.shed, 2, "the rest is shed");
        // Deferred requests re-enter first next interval, paced across
        // it instead of re-timed to the boundary as one burst.
        let out2 = route_one(&mut r, &views, &[], 1000.0);
        let admitted2: usize = out2.per_node.iter().map(|n| n[0].len()).sum();
        assert_eq!(admitted2, 2, "the whole backlog is admitted");
        assert_eq!((r.backlog_len(), out2.shed), (0, 0));
        let times: Vec<f64> = out2.per_node.iter().flatten().flatten().copied().collect();
        assert!(
            times.contains(&1000.0) && times.contains(&1500.0),
            "{times:?}"
        );
    }

    #[test]
    fn queued_backlog_counts_against_qos_budget() {
        let mut r = Router::new(RoutingPolicy::QosAware);
        // Node 0's standing queue already exceeds its per-interval
        // budget, so everything goes to node 1.
        let views = [view(true, 50, 0.0, 10.0), view(true, 0, 0.0, 10.0)];
        let out = route_one(&mut r, &views, &[0.0, 1.0, 2.0], 0.0);
        assert!(out.per_node[0][0].is_empty());
        assert_eq!(out.per_node[1][0].len(), 3);
    }

    #[test]
    fn all_nodes_down_defers_everything() {
        let mut r = Router::new(RoutingPolicy::RoundRobin);
        let views = [view(false, 0, 0.0, 100.0)];
        let out = route_one(&mut r, &views, &[0.0, 1.0], 0.0);
        assert_eq!((r.backlog_len(), out.shed), (2, 0));
        // Recovery: the backlog drains to the node once it is back.
        let up = [view(true, 0, 0.0, 100.0)];
        let out2 = route_one(&mut r, &up, &[], 1000.0);
        assert_eq!(out2.per_node[0][0].len(), 2);
        assert_eq!((r.backlog_len(), out2.shed), (0, 0));
    }

    #[test]
    fn lenient_flood_cannot_starve_the_strict_class() {
        let mut r = Router::new(RoutingPolicy::QosAware);
        r.max_backlog = 100;
        // Two nodes, each hosting both tenants with capacity for ~8
        // requests per class per interval (10 rps × 0.85 × 1 s).
        let views = [view(true, 0, 0.0, 20.0), view(true, 0, 0.0, 20.0)];
        let class_views = vec![
            vec![class_view(0, 10.0), class_view(0, 10.0)],
            vec![class_view(0, 10.0), class_view(0, 10.0)],
        ];
        let strict: Vec<f64> = (0..10).map(f64::from).collect();
        let lenient: Vec<f64> = (0..200).map(|i| f64::from(i) * 5.0).collect();
        let out = r.route_classes(
            &views,
            &class_views,
            &[&strict, &lenient],
            &[3.0, 1.0],
            0.0,
            1000.0,
        );
        let (strict_admitted, _, strict_shed) = out.per_class[0];
        // The lenient flood consumed only its own per-class budgets: the
        // strict class admitted everything its budget allows and shed
        // nothing.
        assert_eq!(strict_admitted, 10);
        assert_eq!(strict_shed, 0);
        let (lenient_admitted, lenient_deferred, lenient_shed) = out.per_class[1];
        assert_eq!(lenient_admitted, 16, "2 nodes × 8-request class budget");
        assert!(lenient_shed > 0, "the flood is shed, not queued forever");
        assert!(lenient_deferred > 0);
        // Arrivals land in per-node, per-class lists, time ordered.
        for node in &out.per_node {
            for class in node {
                assert!(class.windows(2).all(|w| w[0] <= w[1]));
            }
        }
    }

    #[test]
    fn class_backlogs_are_weight_bounded_and_drain_separately() {
        // No capacity anywhere: everything defers up to the per-class
        // bound (bound 8, weight 3:1 → 6 and 2 slots; bound 0 defers
        // nothing and sheds it all).
        let views = [view(true, 0, 0.0, 0.0)];
        let class_views = vec![vec![class_view(0, 0.0), class_view(0, 0.0)]];
        let a: Vec<f64> = (0..10).map(f64::from).collect();
        for (max_backlog, strict, lenient) in
            [(8, (0, 6, 4), (0, 2, 8)), (0, (0, 0, 10), (0, 0, 10))]
        {
            let mut r = Router::new(RoutingPolicy::QosAware);
            r.max_backlog = max_backlog;
            let out = r.route_classes(&views, &class_views, &[&a, &a], &[3.0, 1.0], 0.0, 1000.0);
            assert_eq!(out.per_class[0], strict, "max_backlog {max_backlog}");
            assert_eq!(out.per_class[1], lenient, "max_backlog {max_backlog}");
            assert_eq!(r.backlog_len(), strict.1 + lenient.1);
            // Capacity restored: each class's backlog drains to its own
            // tenant stack, strict first.
            let roomy = vec![vec![class_view(0, 100.0), class_view(0, 100.0)]];
            let out2 = r.route_classes(&views, &roomy, &[&[], &[]], &[3.0, 1.0], 1000.0, 1000.0);
            assert_eq!(out2.shed, 0);
            assert_eq!(out2.per_node[0][0].len(), strict.1);
            assert_eq!(out2.per_node[0][1].len(), lenient.1);
            assert_eq!(r.backlog_len(), 0);
        }
    }
}
