use crate::{IrError, Kernel};
use std::collections::HashMap;
use std::fmt;

/// Index of a kernel inside a [`KernelGraph`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct KernelId(pub usize);

impl fmt::Display for KernelId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "k{}", self.0)
    }
}

/// A data dependency `e_ij` between two kernels: kernel `to` consumes
/// `bytes` produced by kernel `from`, transferred over PCIe when the two run
/// on different accelerators (the `T(e_ij)` term of Eq. 2).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct KernelEdge {
    /// Producing kernel.
    pub from: KernelId,
    /// Consuming kernel.
    pub to: KernelId,
    /// Payload size in bytes.
    pub bytes: u64,
}

/// The directed acyclic kernel graph `G = (K, E)` of one application
/// (Section V), e.g. the four-kernel ASR graph of Fig. 6.
///
/// One instance of this graph is executed per service request; the runtime
/// scheduler maps each kernel to a (implementation, device) pair.
#[derive(Debug, Clone, PartialEq)]
pub struct KernelGraph {
    name: String,
    kernels: Vec<Kernel>,
    edges: Vec<KernelEdge>,
    by_name: HashMap<String, KernelId>,
    /// Kahn topological order, computed once when the graph is built
    /// (which also proves it acyclic).
    order: Vec<KernelId>,
    /// Each kernel's outgoing edges, and its incoming ones.
    out: Adjacency,
    inc: Adjacency,
}

/// The edges grouped by one endpoint, each group in edge order (a
/// compressed adjacency list): kernel `i`'s edges are
/// `edges[at[i]..at[i + 1]]`. Built once with the graph, so a
/// neighbourhood query is a slice, not a filter over every edge.
#[derive(Debug, Clone, PartialEq)]
struct Adjacency {
    edges: Vec<KernelEdge>,
    at: Vec<usize>,
}

impl Adjacency {
    /// Group `edges` of an `n`-kernel graph by the endpoint `key` picks.
    fn new(n: usize, edges: &[KernelEdge], key: fn(&KernelEdge) -> KernelId) -> Self {
        let mut at = vec![0usize; n + 1];
        for e in edges {
            at[key(e).0 + 1] += 1;
        }
        for i in 0..n {
            at[i + 1] += at[i];
        }
        let mut grouped = edges.to_vec();
        // Stable: each group keeps edge order.
        grouped.sort_by_key(|e| key(e).0);
        Self { edges: grouped, at }
    }

    fn of(&self, id: KernelId) -> &[KernelEdge] {
        &self.edges[self.at[id.0]..self.at[id.0 + 1]]
    }
}

/// Kahn topological order of `n` kernels under the outgoing edges `out`,
/// lowest ready id first; `None` if the edges form a cycle.
fn kahn_order(n: usize, out: &Adjacency) -> Option<Vec<KernelId>> {
    let mut indegree = vec![0usize; n];
    for e in &out.edges {
        indegree[e.to.0] += 1;
    }
    let mut ready: Vec<usize> = (0..n).filter(|&i| indegree[i] == 0).collect();
    // Deterministic order: lowest id first.
    ready.sort_unstable_by(|a, b| b.cmp(a));
    let mut order = Vec::with_capacity(n);
    while let Some(i) = ready.pop() {
        order.push(KernelId(i));
        for e in out.of(KernelId(i)) {
            indegree[e.to.0] -= 1;
            if indegree[e.to.0] == 0 {
                ready.push(e.to.0);
            }
        }
        ready.sort_unstable_by(|a, b| b.cmp(a));
    }
    (order.len() == n).then_some(order)
}

impl KernelGraph {
    /// Build and validate an application graph.
    ///
    /// # Errors
    ///
    /// Returns an error if the graph is empty, contains duplicate kernel
    /// names, has edges referencing unknown kernels, or is cyclic.
    pub fn new(
        name: impl Into<String>,
        kernels: Vec<Kernel>,
        edges: Vec<KernelEdge>,
    ) -> Result<Self, IrError> {
        let name = name.into();
        if kernels.is_empty() {
            return Err(IrError::EmptyGraph { graph: name });
        }
        let mut by_name = HashMap::with_capacity(kernels.len());
        for (i, k) in kernels.iter().enumerate() {
            if by_name.insert(k.name().to_string(), KernelId(i)).is_some() {
                return Err(IrError::DuplicateName {
                    name: k.name().to_string(),
                });
            }
        }
        for e in &edges {
            for id in [e.from, e.to] {
                if id.0 >= kernels.len() {
                    return Err(IrError::UnknownNode {
                        name: id.to_string(),
                    });
                }
            }
            if e.from == e.to {
                return Err(IrError::Cycle { graph: name });
            }
        }
        let out = Adjacency::new(kernels.len(), &edges, |e| e.from);
        let Some(order) = kahn_order(kernels.len(), &out) else {
            return Err(IrError::Cycle { graph: name });
        };
        let inc = Adjacency::new(kernels.len(), &edges, |e| e.to);
        Ok(Self {
            name,
            kernels,
            edges,
            by_name,
            order,
            out,
            inc,
        })
    }

    /// Application name.
    #[must_use]
    pub fn name(&self) -> &str {
        &self.name
    }

    /// All kernels, indexed by [`KernelId`].
    #[must_use]
    pub fn kernels(&self) -> &[Kernel] {
        &self.kernels
    }

    /// All dependency edges.
    #[must_use]
    pub fn edges(&self) -> &[KernelEdge] {
        &self.edges
    }

    /// Number of kernels.
    #[must_use]
    pub fn len(&self) -> usize {
        self.kernels.len()
    }

    /// Whether the graph is empty (never true for a validated graph).
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.kernels.is_empty()
    }

    /// Kernel by id.
    ///
    /// # Panics
    /// Panics if `id` is out of range.
    #[must_use]
    pub fn kernel(&self, id: KernelId) -> &Kernel {
        &self.kernels[id.0]
    }

    /// Kernel id by name.
    #[must_use]
    pub fn id_of(&self, name: &str) -> Option<KernelId> {
        self.by_name.get(name).copied()
    }

    /// Immediate successors of `id`, with edge payloads, in edge order.
    pub fn successors(&self, id: KernelId) -> impl Iterator<Item = &KernelEdge> {
        self.out.of(id).iter()
    }

    /// Immediate predecessors of `id`, with edge payloads, in edge order.
    pub fn predecessors(&self, id: KernelId) -> impl Iterator<Item = &KernelEdge> {
        self.inc.of(id).iter()
    }

    /// Kernels with no predecessors (entry kernels fed by the host).
    #[must_use]
    pub fn sources(&self) -> Vec<KernelId> {
        (0..self.kernels.len())
            .map(KernelId)
            .filter(|&id| self.predecessors(id).next().is_none())
            .collect()
    }

    /// Kernels with no successors (result kernels).
    #[must_use]
    pub fn sinks(&self) -> Vec<KernelId> {
        (0..self.kernels.len())
            .map(KernelId)
            .filter(|&id| self.successors(id).next().is_none())
            .collect()
    }

    /// Kahn topological order (lowest ready id first), computed once at
    /// construction.
    #[must_use]
    pub fn topological_order(&self) -> &[KernelId] {
        &self.order
    }

    /// Length of the critical path through the graph under per-kernel
    /// weights `node_cost` and per-edge weights `edge_cost`.
    ///
    /// This is the latency lower bound the Step-1 scheduler approximates
    /// when both devices are always free. Allocation-free for graphs of
    /// up to 32 kernels (the per-kernel distances live on the stack).
    pub fn critical_path(
        &self,
        node_cost: impl FnMut(KernelId) -> f64,
        edge_cost: impl FnMut(&KernelEdge) -> f64,
    ) -> f64 {
        const STACK: usize = 32;
        let n = self.kernels.len();
        if n <= STACK {
            self.critical_path_in(&mut [0.0; STACK][..n], node_cost, edge_cost)
        } else {
            self.critical_path_in(&mut vec![0.0; n], node_cost, edge_cost)
        }
    }

    /// [`critical_path`](Self::critical_path) with `dist` (zeroed, one slot
    /// per kernel) as scratch.
    fn critical_path_in(
        &self,
        dist: &mut [f64],
        mut node_cost: impl FnMut(KernelId) -> f64,
        mut edge_cost: impl FnMut(&KernelEdge) -> f64,
    ) -> f64 {
        let mut best: f64 = 0.0;
        for &id in &self.order {
            let start = self
                .predecessors(id)
                .map(|e| dist[e.from.0] + edge_cost(e))
                .fold(0.0_f64, f64::max);
            dist[id.0] = start + node_cost(id);
            best = best.max(dist[id.0]);
        }
        best
    }
}

impl fmt::Display for KernelGraph {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "app {} ({} kernels, {} edges)",
            self.name,
            self.kernels.len(),
            self.edges.len()
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{DType, OpFunc, PatternId, PatternInstance, PatternKind, Ppg, Shape};

    fn kernel(name: &str) -> Kernel {
        let p = PatternInstance::new(
            PatternId(0),
            "m",
            PatternKind::Map,
            Shape::d1(64),
            DType::F32,
            vec![OpFunc::Add],
        )
        .unwrap();
        Kernel::new(name, Ppg::new(vec![p], vec![]).unwrap()).unwrap()
    }

    /// The ASR shape of Fig. 6: K1→K4 and K2→K3→K4.
    fn asr_like() -> KernelGraph {
        KernelGraph::new(
            "asr",
            vec![kernel("k1"), kernel("k2"), kernel("k3"), kernel("k4")],
            vec![
                KernelEdge {
                    from: KernelId(0),
                    to: KernelId(3),
                    bytes: 1 << 20,
                },
                KernelEdge {
                    from: KernelId(1),
                    to: KernelId(2),
                    bytes: 1 << 20,
                },
                KernelEdge {
                    from: KernelId(2),
                    to: KernelId(3),
                    bytes: 1 << 20,
                },
            ],
        )
        .unwrap()
    }

    #[test]
    fn sources_and_sinks() {
        let g = asr_like();
        assert_eq!(g.sources(), vec![KernelId(0), KernelId(1)]);
        assert_eq!(g.sinks(), vec![KernelId(3)]);
    }

    #[test]
    fn topo_order_is_deterministic_and_valid() {
        let g = asr_like();
        let order = g.topological_order();
        assert_eq!(order.len(), 4);
        let pos = |i: usize| order.iter().position(|k| k.0 == i).unwrap();
        assert!(pos(1) < pos(2));
        assert!(pos(2) < pos(3));
        assert!(pos(0) < pos(3));
        // Deterministic: a rebuilt graph agrees.
        assert_eq!(order, asr_like().topological_order());
    }

    #[test]
    fn duplicate_names_rejected() {
        let err = KernelGraph::new("g", vec![kernel("a"), kernel("a")], vec![]).unwrap_err();
        assert!(matches!(err, IrError::DuplicateName { .. }));
    }

    #[test]
    fn self_edge_rejected() {
        let err = KernelGraph::new(
            "g",
            vec![kernel("a")],
            vec![KernelEdge {
                from: KernelId(0),
                to: KernelId(0),
                bytes: 1,
            }],
        )
        .unwrap_err();
        assert!(matches!(err, IrError::Cycle { .. }));
    }

    #[test]
    fn cycle_rejected() {
        let err = KernelGraph::new(
            "g",
            vec![kernel("a"), kernel("b")],
            vec![
                KernelEdge {
                    from: KernelId(0),
                    to: KernelId(1),
                    bytes: 1,
                },
                KernelEdge {
                    from: KernelId(1),
                    to: KernelId(0),
                    bytes: 1,
                },
            ],
        )
        .unwrap_err();
        assert!(matches!(err, IrError::Cycle { .. }));
    }

    #[test]
    fn critical_path_takes_longest_route() {
        let g = asr_like();
        // K1 costs 102, K2 57, K3 52, K4 78 (Fig. 1(f) Homo-GPU numbers);
        // edges are free. Longest path: K2+K3+K4 = 187.
        let cost = [102.0, 57.0, 52.0, 78.0];
        let cp = g.critical_path(|k| cost[k.0], |_| 0.0);
        assert!((cp - 187.0).abs() < 1e-9);
        // With FPGA-like costs (109, 50, 45, 75) K1's path dominates: 184.
        let cost = [109.0, 50.0, 45.0, 75.0];
        let cp = g.critical_path(|k| cost[k.0], |_| 0.0);
        assert!((cp - 184.0).abs() < 1e-9);
    }

    #[test]
    fn critical_path_includes_edge_costs() {
        let g = asr_like();
        let cp = g.critical_path(|_| 10.0, |e| e.bytes as f64 * 1e-6);
        // K2→K3→K4 path: 3 nodes + 2 edges ≈ 30 + 2·1.048
        assert!((cp - (30.0 + 2.0 * (1u64 << 20) as f64 * 1e-6)).abs() < 1e-6);
    }

    #[test]
    fn lookup_by_name() {
        let g = asr_like();
        assert_eq!(g.id_of("k3"), Some(KernelId(2)));
        assert_eq!(g.id_of("nope"), None);
    }
}
