//! # poly-ir — parallel-pattern intermediate representation
//!
//! This crate is the front half of the Poly framework (HPCA'19): it models
//! OpenCL kernels as compositions of **parallel patterns** (Fig. 3 of the
//! paper), each pattern lowered to a **control-data flow graph** (CDFG) of
//! operators, patterns wired into a **parallel pattern graph** (PPG) per
//! kernel, and kernels wired into an application-level **kernel graph** (the
//! DAG `G = (K, E)` of Section V).
//!
//! The paper extracts this IR from annotated OpenCL C via an LLVM/Clang
//! frontend. Real OpenCL toolchains are unavailable here, so the IR is
//! constructed either programmatically (see [`KernelBuilder`] /
//! [`KernelGraphBuilder`]) or from the textual annotation DSL implemented in
//! [`annotation`], which plays the role of the frontend.
//!
//! ## Example
//!
//! ```rust
//! use poly_ir::{KernelBuilder, KernelGraphBuilder, OpFunc, PatternKind, Shape};
//!
//! # fn main() -> Result<(), poly_ir::IrError> {
//! let lstm = KernelBuilder::new("lstm")
//!     .pattern("gates", PatternKind::Map, Shape::d2(1024, 256), &[OpFunc::Mac])
//!     .pattern("sum", PatternKind::Reduce, Shape::d2(1024, 256), &[OpFunc::Add])
//!     .pattern("act", PatternKind::pipeline(), Shape::d1(1024), &[OpFunc::Sigmoid, OpFunc::Tanh])
//!     .chain()
//!     .build()?;
//!
//! let app = KernelGraphBuilder::new("asr")
//!     .kernel(lstm.clone())
//!     .kernel(lstm.with_name("lstm2"))
//!     .edge("lstm", "lstm2", 4 << 20)
//!     .build()?;
//! assert_eq!(app.topological_order().len(), 2);
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod annotation;
mod builder;
mod cdfg;
mod channel;
mod dtype;
mod error;
mod graph;
mod kernel;
mod op;
mod pattern;
mod ppg;
mod printer;
mod profile;
mod shape;

pub use builder::{KernelBuilder, KernelGraphBuilder};
pub use cdfg::{Cdfg, CdfgEdge, CdfgNode, CdfgNodeId, CdfgNodeKind};
pub use channel::{feasible_depths, ChannelSpec, DEFAULT_TILES};
pub use dtype::DType;
pub use error::IrError;
pub use graph::{KernelEdge, KernelGraph, KernelId};
pub use kernel::Kernel;
pub use op::OpFunc;
pub use pattern::{PatternId, PatternInstance, PatternKind};
pub use ppg::{FusionCandidate, PatternEdge, Ppg};
pub use printer::{print_app, print_kernel};
pub use profile::KernelProfile;
pub use shape::Shape;
