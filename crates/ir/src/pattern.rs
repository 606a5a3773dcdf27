use crate::{DType, IrError, OpFunc, Shape};
use std::fmt;

/// Index of a pattern instance inside its kernel's [`Ppg`](crate::Ppg).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct PatternId(pub usize);

impl fmt::Display for PatternId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "p{}", self.0)
    }
}

/// One of the nine parallel patterns of the Poly annotation interface
/// (Fig. 3 / Table I of the paper, plus the `Pack` pattern used throughout
/// Table II).
///
/// The kind determines how the pattern's operator function is replicated
/// over the input collection, and therefore its arithmetic intensity,
/// parallelism, and which optimization knobs apply on each platform.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
#[non_exhaustive]
pub enum PatternKind {
    /// `Map(inputs, func)` — replicate `func` over independent elements.
    Map,
    /// `Reduce(inputs, func)` — combine all elements of the innermost
    /// non-unit axis with an associative `func`.
    Reduce,
    /// `Scan(inputs, func)` — like `Reduce` but returns every intermediate
    /// accumulation value.
    Scan,
    /// `Stencil(inputs, func, list)` — `Map` whose function also reads
    /// `neighbors` neighboring elements.
    Stencil {
        /// Neighborhood size (number of neighbor accesses per element),
        /// e.g. 9 for a 3×3 convolution window.
        neighbors: u32,
    },
    /// `Pipeline(inputs, func0, func1, ...)` — producer-consumer chain;
    /// the stage count is the number of operator functions.
    Pipeline,
    /// `Gather(inputs, list)` — indexed random reads from a collection.
    Gather,
    /// `Scatter(inputs, list)` — indexed random writes (inverse of gather).
    Scatter,
    /// `Tiling(inputs, [x,y,z], [X,Y,Z])` — decompose a collection into
    /// sub-collections of extent `tile`.
    Tiling {
        /// Tile extents `[x, y, z]`.
        tile: [u32; 3],
    },
    /// `Pack(inputs, func)` — predicate-driven compaction / serialization of
    /// selected elements (prefix-sum based).
    Pack,
}

impl PatternKind {
    /// Convenience constructor for [`PatternKind::Pipeline`], emphasising
    /// that the stage count comes from the operator-function list.
    #[must_use]
    pub const fn pipeline() -> Self {
        PatternKind::Pipeline
    }

    /// Convenience constructor for a stencil with the given neighborhood.
    #[must_use]
    pub const fn stencil(neighbors: u32) -> Self {
        PatternKind::Stencil { neighbors }
    }

    /// Convenience constructor for a 2-D tiling.
    #[must_use]
    pub const fn tiling2(x: u32, y: u32) -> Self {
        PatternKind::Tiling { tile: [x, y, 1] }
    }

    /// Canonical lowercase name, as written in annotations.
    #[must_use]
    pub fn name(&self) -> &'static str {
        match self {
            PatternKind::Map => "map",
            PatternKind::Reduce => "reduce",
            PatternKind::Scan => "scan",
            PatternKind::Stencil { .. } => "stencil",
            PatternKind::Pipeline => "pipeline",
            PatternKind::Gather => "gather",
            PatternKind::Scatter => "scatter",
            PatternKind::Tiling { .. } => "tiling",
            PatternKind::Pack => "pack",
        }
    }

    /// Whether the pattern performs data-irregular (indexed) global-memory
    /// accesses, which enables the coalescing / burst-access knobs of
    /// Table I.
    #[must_use]
    pub fn is_irregular(&self) -> bool {
        matches!(self, PatternKind::Gather | PatternKind::Scatter)
    }

    /// Whether the pattern embodies explicit element-level data parallelism
    /// that maps onto SIMD lanes / parallel compute units (`Map`, `Stencil`,
    /// `Tiling` and the leaves of `Reduce`).
    #[must_use]
    pub fn is_data_parallel(&self) -> bool {
        matches!(
            self,
            PatternKind::Map
                | PatternKind::Reduce
                | PatternKind::Stencil { .. }
                | PatternKind::Tiling { .. }
        )
    }
}

impl fmt::Display for PatternKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// A concrete use of a parallel pattern inside a kernel: the pattern kind
/// applied to a typed, shaped input collection with a list of operator
/// functions.
///
/// Instances are created through [`KernelBuilder`](crate::KernelBuilder) or
/// the annotation DSL and are immutable afterwards.
#[derive(Debug, Clone, PartialEq)]
pub struct PatternInstance {
    id: PatternId,
    name: String,
    kind: PatternKind,
    shape: Shape,
    dtype: DType,
    funcs: Vec<OpFunc>,
}

impl PatternInstance {
    /// Create and validate a pattern instance.
    ///
    /// # Errors
    ///
    /// Returns [`IrError::InvalidPattern`] if:
    /// - the function list is empty (all kinds except `Gather`/`Scatter`/
    ///   `Tiling`, which are pure data movement),
    /// - a `Reduce`/`Scan` function is not associative,
    /// - a `Stencil` has a zero neighborhood,
    /// - a `Tiling` tile has a zero extent or exceeds the input shape.
    pub fn new(
        id: PatternId,
        name: impl Into<String>,
        kind: PatternKind,
        shape: Shape,
        dtype: DType,
        funcs: Vec<OpFunc>,
    ) -> Result<Self, IrError> {
        let name = name.into();
        let invalid = |reason: &str| IrError::InvalidPattern {
            pattern: name.clone(),
            reason: reason.to_string(),
        };
        let movement_only = matches!(
            kind,
            PatternKind::Gather | PatternKind::Scatter | PatternKind::Tiling { .. }
        );
        if funcs.is_empty() && !movement_only {
            return Err(invalid("requires at least one operator function"));
        }
        match kind {
            PatternKind::Reduce | PatternKind::Scan => {
                if let Some(bad) = funcs.iter().find(|f| !f.is_associative()) {
                    return Err(invalid(&format!("combiner `{bad}` is not associative")));
                }
            }
            PatternKind::Stencil { neighbors: 0 } => {
                return Err(invalid("stencil neighborhood must be non-zero"));
            }
            PatternKind::Tiling { tile } => {
                let dims = shape.dims();
                for (axis, (&t, &d)) in tile.iter().zip(dims.iter()).enumerate() {
                    if t == 0 {
                        return Err(invalid("tile extent must be non-zero"));
                    }
                    if u64::from(t) > d {
                        return Err(invalid(&format!(
                            "tile extent {t} exceeds shape extent {d} on axis {axis}"
                        )));
                    }
                }
            }
            _ => {}
        }
        Ok(Self {
            id,
            name,
            kind,
            shape,
            dtype,
            funcs,
        })
    }

    /// Identifier within the owning kernel's PPG.
    #[must_use]
    pub fn id(&self) -> PatternId {
        self.id
    }

    /// Instance name as written in the annotation.
    #[must_use]
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The parallel-pattern kind.
    #[must_use]
    pub fn kind(&self) -> PatternKind {
        self.kind
    }

    /// Shape of the input collection.
    #[must_use]
    pub fn shape(&self) -> Shape {
        self.shape
    }

    /// Element type of the input collection.
    #[must_use]
    pub fn dtype(&self) -> DType {
        self.dtype
    }

    /// Operator functions applied by the pattern (pipeline stages for
    /// `Pipeline`, the combiner for `Reduce`, ...).
    #[must_use]
    pub fn funcs(&self) -> &[OpFunc] {
        &self.funcs
    }

    /// Number of input elements.
    #[must_use]
    pub fn elements(&self) -> u64 {
        self.shape.elements()
    }

    /// Extent of the reduced axis for `Reduce`/`Scan` (the innermost
    /// non-unit dimension), `1` for other kinds.
    #[must_use]
    pub fn reduce_extent(&self) -> u64 {
        match self.kind {
            PatternKind::Reduce | PatternKind::Scan => {
                let [x, y, z] = self.shape.dims();
                if z > 1 {
                    z
                } else if y > 1 {
                    y
                } else {
                    x
                }
            }
            _ => 1,
        }
    }

    /// Number of output elements produced per invocation.
    #[must_use]
    pub fn output_elements(&self) -> u64 {
        match self.kind {
            PatternKind::Reduce => self.elements() / self.reduce_extent(),
            // Pack keeps on average half the elements; we model the
            // worst case (all kept) for buffer sizing but half for traffic.
            _ => self.elements(),
        }
    }

    /// Total equivalent scalar operations per invocation of the pattern.
    #[must_use]
    pub fn flops(&self) -> u64 {
        let per_elem: u64 = self.funcs.iter().map(OpFunc::ops).sum();
        match self.kind {
            PatternKind::Map | PatternKind::Pipeline | PatternKind::Pack => {
                self.elements() * per_elem
            }
            PatternKind::Reduce => (self.elements() - self.output_elements()).max(1) * per_elem,
            PatternKind::Scan => self.elements().saturating_sub(1).max(1) * per_elem,
            PatternKind::Stencil { neighbors } => self.elements() * u64::from(neighbors) * per_elem,
            // Pure data movement: address arithmetic only, which overlaps
            // with the memory system on every platform — costed at a
            // quarter scalar op per element.
            PatternKind::Gather | PatternKind::Scatter | PatternKind::Tiling { .. } => {
                (self.elements() * per_elem.max(1) / 4).max(1)
            }
        }
    }

    /// Bytes read from the producing buffer (global memory before fusion).
    #[must_use]
    pub fn input_bytes(&self) -> u64 {
        let base = self.elements() * self.dtype.bytes();
        match self.kind {
            // Index list is an extra 4-byte read per element.
            PatternKind::Gather | PatternKind::Scatter => base + self.elements() * 4,
            // With on-chip reuse a stencil reads each element about once,
            // plus halo overhead we fold into a 25% surcharge.
            PatternKind::Stencil { .. } => base + base / 4,
            _ => base,
        }
    }

    /// Bytes written to the consuming buffer (global memory before fusion).
    #[must_use]
    pub fn output_bytes(&self) -> u64 {
        match self.kind {
            // Pack compacts: on average half of the elements survive.
            PatternKind::Pack => (self.elements() / 2).max(1) * self.dtype.bytes(),
            _ => self.output_elements() * self.dtype.bytes(),
        }
    }

    /// Data parallelism: number of element operations that may proceed
    /// independently (Section IV-A "data-parallelism ... based on the
    /// capacity of the data buffer, data type, and access patterns").
    #[must_use]
    pub fn data_parallelism(&self) -> u64 {
        match self.kind {
            PatternKind::Map
            | PatternKind::Stencil { .. }
            | PatternKind::Gather
            | PatternKind::Scatter
            | PatternKind::Tiling { .. } => self.elements(),
            // Tree reduction: extent/2 combiners per group in the first level.
            PatternKind::Reduce => (self.reduce_extent() / 2).max(1) * self.output_elements(),
            // Work-efficient scan parallelism is n/2 at the widest level.
            PatternKind::Scan => (self.elements() / 2).max(1),
            // A pipeline processes one element per stage concurrently.
            PatternKind::Pipeline => self.funcs.len() as u64,
            // Pack is limited by its prefix-sum.
            PatternKind::Pack => (self.elements() / 2).max(1),
        }
    }

    /// Depth of the sequential dependency chain per element — the natural
    /// pipeline depth on FPGAs.
    #[must_use]
    pub fn dependency_depth(&self) -> u64 {
        match self.kind {
            PatternKind::Pipeline => self.funcs.len() as u64,
            PatternKind::Reduce | PatternKind::Scan => {
                // Tree lowering: ceil(log2) of the reduce extent.
                let e = self.reduce_extent().max(2);
                u64::from(e.ilog2()) + u64::from(!e.is_power_of_two())
            }
            _ => 1,
        }
    }

    /// Return a copy with a different instance name (used when the same
    /// pattern template appears in several kernels).
    #[must_use]
    pub fn with_name(&self, name: impl Into<String>) -> Self {
        let mut c = self.clone();
        c.name = name.into();
        c
    }
}

impl fmt::Display for PatternInstance {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} = {}({}{}, [{}])",
            self.name,
            self.kind.name(),
            self.dtype,
            self.shape,
            self.funcs
                .iter()
                .map(ToString::to_string)
                .collect::<Vec<_>>()
                .join(", ")
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn pat(kind: PatternKind, shape: Shape, funcs: &[OpFunc]) -> PatternInstance {
        PatternInstance::new(PatternId(0), "t", kind, shape, DType::F32, funcs.to_vec())
            .expect("valid pattern")
    }

    #[test]
    fn map_flops_scale_with_elements() {
        let p = pat(PatternKind::Map, Shape::d1(100), &[OpFunc::Mac]);
        assert_eq!(p.flops(), 200);
        assert_eq!(p.output_elements(), 100);
    }

    #[test]
    fn reduce_collapses_innermost_axis() {
        let p = pat(PatternKind::Reduce, Shape::d2(1024, 256), &[OpFunc::Add]);
        assert_eq!(p.reduce_extent(), 256);
        assert_eq!(p.output_elements(), 1024);
        assert_eq!(p.flops(), (1024 * 256 - 1024));
    }

    #[test]
    fn reduce_requires_associative_combiner() {
        let err = PatternInstance::new(
            PatternId(0),
            "r",
            PatternKind::Reduce,
            Shape::d1(8),
            DType::F32,
            vec![OpFunc::Sigmoid],
        )
        .unwrap_err();
        assert!(matches!(err, IrError::InvalidPattern { .. }));
    }

    #[test]
    fn stencil_flops_include_neighborhood() {
        let p = pat(PatternKind::stencil(9), Shape::d2(32, 32), &[OpFunc::Mac]);
        assert_eq!(p.flops(), 32 * 32 * 9 * 2);
    }

    #[test]
    fn stencil_zero_neighbors_rejected() {
        assert!(PatternInstance::new(
            PatternId(0),
            "s",
            PatternKind::stencil(0),
            Shape::d1(8),
            DType::F32,
            vec![OpFunc::Add],
        )
        .is_err());
    }

    #[test]
    fn pipeline_depth_equals_stage_count() {
        let p = pat(
            PatternKind::pipeline(),
            Shape::d1(64),
            &[OpFunc::Sigmoid, OpFunc::Tanh, OpFunc::Mul],
        );
        assert_eq!(p.dependency_depth(), 3);
        assert_eq!(p.data_parallelism(), 3);
    }

    #[test]
    fn tiling_validates_tile_extents() {
        assert!(PatternInstance::new(
            PatternId(0),
            "t",
            PatternKind::tiling2(64, 4),
            Shape::d2(32, 32),
            DType::F32,
            vec![],
        )
        .is_err());
        assert!(PatternInstance::new(
            PatternId(0),
            "t",
            PatternKind::tiling2(16, 16),
            Shape::d2(32, 32),
            DType::F32,
            vec![],
        )
        .is_ok());
    }

    #[test]
    fn movement_patterns_allow_empty_funcs() {
        let g = PatternInstance::new(
            PatternId(0),
            "g",
            PatternKind::Gather,
            Shape::d1(128),
            DType::F32,
            vec![],
        )
        .expect("gather without funcs");
        // index list adds 4 bytes/element on top of payload
        assert_eq!(g.input_bytes(), 128 * 4 + 128 * 4);
        // address arithmetic is costed at a quarter op per element
        assert_eq!(g.flops(), 128 / 4);
    }

    #[test]
    fn compute_patterns_reject_empty_funcs() {
        assert!(PatternInstance::new(
            PatternId(0),
            "m",
            PatternKind::Map,
            Shape::d1(8),
            DType::F32,
            vec![],
        )
        .is_err());
    }

    #[test]
    fn pack_halves_output_traffic() {
        let p = pat(PatternKind::Pack, Shape::d1(100), &[OpFunc::Cmp]);
        assert_eq!(p.output_bytes(), 50 * 4);
        assert_eq!(p.output_elements(), 100); // worst-case buffer sizing
    }

    #[test]
    fn display_reads_like_an_annotation() {
        let p = pat(PatternKind::Map, Shape::d2(4, 4), &[OpFunc::Add]);
        assert_eq!(p.to_string(), "t = map(f32[4][4], [add])");
    }

    #[test]
    fn reduce_tree_depth_is_logarithmic() {
        let p = pat(PatternKind::Reduce, Shape::d1(1024), &[OpFunc::Add]);
        assert_eq!(p.dependency_depth(), 10);
    }
}
