//! [`AppContext`]: the application-on-a-node bundle — kernel graph,
//! explored design spaces, node provisioning, and QoS bound — that every
//! runtime entry point used to take as a positional quadruple.
//!
//! `PolyRuntime::new` and `ClusterNode::new_multi` both consume them; cluster
//! fan-out shares the (immutable) graph and design spaces across nodes
//! through `Arc` instead of deep-cloning them per node.

use std::sync::Arc;

use crate::NodeSetup;
use poly_dse::KernelDesignSpace;
use poly_ir::KernelGraph;

/// One application bound to one provisioned node under a QoS bound.
///
/// The graph and design spaces are reference-counted: [`Clone`] and
/// [`AppContext::with_setup`] are cheap, so a cluster builds N per-node
/// contexts from one exploration without copying the spaces N times.
#[derive(Debug, Clone)]
pub struct AppContext {
    graph: Arc<KernelGraph>,
    spaces: Arc<Vec<KernelDesignSpace>>,
    setup: NodeSetup,
    bound_ms: f64,
    tenant: &'static str,
    qos_weight: f64,
}

impl AppContext {
    /// Bundle `graph` with its explored `spaces` on `setup` under
    /// `bound_ms` (p99 QoS bound, milliseconds).
    #[must_use]
    pub fn new(
        graph: KernelGraph,
        spaces: Vec<KernelDesignSpace>,
        setup: NodeSetup,
        bound_ms: f64,
    ) -> Self {
        Self {
            graph: Arc::new(graph),
            spaces: Arc::new(spaces),
            setup,
            bound_ms,
            tenant: "default",
            qos_weight: 1.0,
        }
    }

    /// Tag this context as QoS class `tenant` with admission/power weight
    /// `weight` (relative to its co-tenants; 1.0 is the single-tenant
    /// default). Multi-tenant cluster nodes use the weight both in the
    /// router's per-class admission and in the per-node power split.
    ///
    /// # Panics
    /// Panics if `weight` is not finite and positive.
    #[must_use]
    pub fn with_tenant(mut self, tenant: &'static str, weight: f64) -> Self {
        assert!(
            weight.is_finite() && weight > 0.0,
            "tenant weight must be finite and positive"
        );
        self.tenant = tenant;
        self.qos_weight = weight;
        self
    }

    /// The tenant / QoS-class label (`"default"` unless tagged).
    #[must_use]
    pub fn tenant(&self) -> &'static str {
        self.tenant
    }

    /// The tenant's QoS weight (1.0 unless tagged).
    #[must_use]
    pub fn qos_weight(&self) -> f64 {
        self.qos_weight
    }

    /// The application's kernel graph.
    #[must_use]
    pub fn graph(&self) -> &KernelGraph {
        &self.graph
    }

    /// An owned copy of the graph (the simulator takes it by value).
    #[must_use]
    pub fn graph_owned(&self) -> KernelGraph {
        (*self.graph).clone()
    }

    /// The explored per-kernel design spaces.
    #[must_use]
    pub fn spaces(&self) -> &[KernelDesignSpace] {
        &self.spaces
    }

    /// The node's provisioning (pool, device models, sim parameters).
    #[must_use]
    pub fn setup(&self) -> &NodeSetup {
        &self.setup
    }

    /// The p99 QoS bound, milliseconds.
    #[must_use]
    pub fn bound_ms(&self) -> f64 {
        self.bound_ms
    }

    /// A sibling context on a different node `setup`, sharing this
    /// context's graph and design spaces (cluster fan-out).
    #[must_use]
    pub fn with_setup(&self, setup: NodeSetup) -> Self {
        Self {
            graph: Arc::clone(&self.graph),
            spaces: Arc::clone(&self.spaces),
            setup,
            bound_ms: self.bound_ms,
            tenant: self.tenant,
            qos_weight: self.qos_weight,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::provision::{table_iii, Architecture, Setting};
    use poly_dse::Explorer;

    #[test]
    fn with_setup_shares_graph_and_spaces() {
        let app = poly_apps::asr();
        let setup = table_iii(Setting::I, Architecture::HeterPoly);
        let ex = Explorer::new(setup.gpu.clone(), setup.fpga.clone());
        let spaces: Vec<_> = app.kernels().iter().map(|k| ex.explore(k)).collect();
        let ctx = AppContext::new(app, spaces, setup.clone(), 200.0);
        let sibling = ctx.with_setup(setup.clone());
        assert!(Arc::ptr_eq(&ctx.graph, &sibling.graph));
        assert!(Arc::ptr_eq(&ctx.spaces, &sibling.spaces));
        assert_eq!(sibling.bound_ms(), 200.0);
        // Untagged contexts are the single-tenant default.
        assert_eq!(ctx.tenant(), "default");
        assert_eq!(ctx.qos_weight(), 1.0);
        // Tenant tags survive node fan-out.
        let tagged = ctx.with_tenant("interactive", 3.0).with_setup(setup);
        assert_eq!(tagged.tenant(), "interactive");
        assert_eq!(tagged.qos_weight(), 3.0);
    }
}
