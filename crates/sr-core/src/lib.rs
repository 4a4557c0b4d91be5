//! The ML-aware spatial data re-partitioning framework — the paper's core
//! contribution (§III).
//!
//! Given an `m × n` grid dataset and an information-loss threshold
//! `θ ∈ (0, 1)`, the framework iteratively merges adjacent, similar cells
//! into rectangular *cell-groups*, stopping just before the information loss
//! (IFL, Eq. 3) would exceed `θ`. The output is a compact dataset of
//! cell-groups that preserves spatial adjacency (so spatial ML models keep
//! their autocorrelation signal) while being much smaller than the input.
//!
//! Pipeline (one iteration, Fig. 2):
//!
//! 1. [`heap::VariationHeap`] — pop the next *min-adjacent variation*
//!    (§III-A1): variations of all adjacent cell pairs on the
//!    attribute-normalized grid (Eq. 1, sr-grid's
//!    [`EdgeVariations`](sr_grid::EdgeVariations) scan), pre-computed once
//!    into a min-heap.
//! 2. [`extractor::extract_cell_groups`] — Algorithm 1: greedily grow
//!    rectangular groups of adjacent cells whose adjacent-pair variations
//!    all stay within the iteration's min-adjacent variation.
//! 3. [`allocator::allocate_features`] — Algorithm 2: give each group a
//!    representative feature vector (sum, or the better of mean/mode),
//!    held in one flat [`GroupFeatures`] table.
//! 4. [`ifl`] — Eq. 3 between input and re-partitioned data; accept the
//!    iteration if `IFL ≤ θ`, else stop and keep the previous partition.
//!
//! Each step has one implementation, the one the driver's threshold walk
//! ([`localized`]) runs; the public stage functions above call the same
//! kernels, so a stage run on its own reproduces the driver's bits. Eq. 1
//! and Eq. 3 live in sr-grid: the scan inputs' edge patch and the
//! [`quadtree`] read the [`EdgeVariations`](sr_grid::EdgeVariations) scan,
//! and [`partition_ifl`], the [`streaming`] tier and reconstruction use
//! [`sr_grid::loss`]'s term rule, per-cell subtotal, fold and
//! [`representative`](sr_grid::representative).
//!
//! The driver lives in [`repartition::Repartitioner`]; the accepted result
//! is a [`repartition::Repartitioned`], which offers the training-side
//! conveniences of §III-B/§III-C: group adjacency lists (Algorithm 3, in
//! [`group_adjacency()`]), feature-matrix/centroid/vertex preparation
//! ([`prepare`]), and reconstruction of per-cell values
//! ([`reconstruct`]). The naive homogeneous variant of §III-D is in
//! [`homogeneous`].
//!
//! A grid kept current under point updates is a [`LocalizedState`]: it
//! owns the grid, the driver's scan inputs over it and the cells changed
//! since the last run; [`LocalizedState::apply`] is its only write path,
//! and [`Repartitioner::run_localized`] re-partitions it at a cost
//! proportional to those cells, bit-identical to a batch run.

pub mod allocator;
pub mod extractor;
pub mod group_adjacency;
pub mod heap;
pub mod homogeneous;
pub mod ifl;
mod incremental;
pub mod localized;
pub mod partition;
pub mod prepare;
pub mod quadtree;
pub mod reconstruct;
pub mod repartition;
pub mod streaming;
pub mod temporal;

pub use allocator::{allocate_features, allocate_features_with, GroupFeatures};
pub use extractor::{extract_cell_groups, extract_cell_groups_with, extract_with_edges};
pub use group_adjacency::{group_adjacency, group_adjacency_with};
pub use heap::VariationHeap;
pub use homogeneous::{homogeneous_ifl, homogeneous_merge, run_homogeneous, HomogeneousOutcome};
pub use ifl::{partition_ifl, partition_ifl_with};
pub use incremental::ScanUpdate;
pub use localized::LocalizedState;
pub use partition::{GroupId, GroupRect, Partition};
pub use prepare::PreparedTrainingData;
pub use quadtree::quadtree_partition;
pub use reconstruct::reconstruct_grid;
pub use repartition::{
    repartition, IterationStats, IterationStrategy, RepartitionConfig, RepartitionOutcome,
    Repartitioned, Repartitioner,
};
pub use streaming::{CellUpdate, StreamingRepartitioner};
pub use temporal::{StepOutcome, TemporalRepartitioner};

/// Errors from the re-partitioning framework.
#[derive(Debug, Clone, PartialEq)]
pub enum CoreError {
    /// The loss threshold must lie in (0, 1] (paper §I: "a numerical loss
    /// threshold between 0 and 1").
    InvalidThreshold(f64),
    /// A grid-level operation failed.
    Grid(sr_grid::GridError),
    /// The homogeneous variant needs merge factors ≥ 1 that fit the grid.
    InvalidMergeFactor {
        /// Offending factor.
        factor: usize,
    },
    /// A [`LocalizedState`] was handed to a driver whose IFL options differ
    /// from the ones its scan inputs were built with (their Eq. 3 term
    /// cache would be silently wrong).
    ScanCacheMismatch,
    /// An [`IterationStrategy::Exponential`] walk needs an initial stride of
    /// at least 1 and a finite growth factor above 1.
    InvalidStrategy {
        /// The offending initial stride.
        initial_stride: usize,
        /// The offending growth factor.
        growth: f64,
    },
}

impl std::fmt::Display for CoreError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CoreError::InvalidThreshold(t) => {
                write!(f, "IFL threshold must be in (0, 1], got {t}")
            }
            CoreError::Grid(e) => write!(f, "grid error: {e}"),
            CoreError::InvalidMergeFactor { factor } => {
                write!(f, "merge factor {factor} is invalid for this grid")
            }
            CoreError::ScanCacheMismatch => {
                write!(f, "localized state was built with other IFL options than the driver's")
            }
            CoreError::InvalidStrategy { initial_stride, growth } => write!(
                f,
                "exponential strategy needs initial_stride >= 1 and a finite growth > 1, \
                 got initial_stride {initial_stride}, growth {growth}"
            ),
        }
    }
}

impl std::error::Error for CoreError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            CoreError::Grid(e) => Some(e),
            _ => None,
        }
    }
}

impl From<sr_grid::GridError> for CoreError {
    fn from(e: sr_grid::GridError) -> Self {
        CoreError::Grid(e)
    }
}

/// Result alias for core operations.
pub type Result<T> = std::result::Result<T, CoreError>;
