//! # poly-dse — offline kernel analysis and design-space exploration
//!
//! Implements Section IV of the paper: for each kernel, enumerate the
//! implementation knobs of Table I on both platforms (**local
//! optimization**), add the cross-pattern fusion dimension (**global
//! optimization**), evaluate every candidate with the analytical device
//! models, and keep the Pareto-optimal designs with respect to latency,
//! power, and throughput — the per-kernel design space the runtime
//! scheduler selects from (Fig. 1(c)).
//!
//! ```rust
//! use poly_device::catalog;
//! use poly_dse::Explorer;
//! use poly_ir::{KernelBuilder, OpFunc, PatternKind, Shape};
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let kernel = KernelBuilder::new("dot")
//!     .pattern("m", PatternKind::Map, Shape::d2(2048, 512), &[OpFunc::Mac])
//!     .pattern("r", PatternKind::Reduce, Shape::d2(2048, 512), &[OpFunc::Add])
//!     .chain()
//!     .iterations(200)
//!     .build()?;
//! let explorer = Explorer::new(catalog::amd_w9100(), catalog::xilinx_7v3());
//! let space = explorer.explore(&kernel);
//! assert!(!space.gpu.is_empty() && !space.fpga.is_empty());
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod cache;
mod explorer;
mod global;
mod knobs;
mod local;
mod pareto;
mod space;
mod table;

pub use cache::{explorer_fingerprint, fnv1a, kernel_fingerprint, DesignSpaceCache};
pub use explorer::{Explorer, ExplorerConfig};
pub use global::{pipeline_candidates, realizable_fractions, FusionPlan, PipelineCandidate};
pub use knobs::{FpgaKnobs, GpuKnobs};
pub use local::{
    fpga_candidates, fpga_candidates_with_fractions, gpu_candidates, gpu_candidates_with_fractions,
};
pub use pareto::pareto_front;
pub use space::{DesignPoint, KernelDesignSpace, Tuning};
pub use table::{knob_row, knob_table, KnobRow};
