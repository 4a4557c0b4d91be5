//! The homogeneous re-partitioning variant — §III-D of the paper.
//!
//! This baseline merges every block of `row_factor × col_factor` adjacent
//! cells regardless of similarity, producing homogeneously sized cell-groups
//! at a fixed target resolution. Starting from the least granularity
//! (factor 2), the iterative runner increases the factor while the IFL stays
//! within the threshold. The paper's Table V shows this approach loses far
//! too much information even at factor 2 (IFL > 0.4 on all datasets), which
//! motivates the similarity-driven main framework.

use crate::allocator::{allocate_features, GroupFeatures};
use crate::ifl::partition_ifl;
use crate::partition::{GroupRect, Partition};
use crate::{CoreError, Result};
use sr_grid::{GridDataset, IflOptions};

/// Builds the block partition that merges every `row_factor × col_factor`
/// block (border blocks may be smaller when the factors do not divide the
/// grid shape).
pub fn block_partition(
    rows: usize,
    cols: usize,
    row_factor: usize,
    col_factor: usize,
) -> Result<Partition> {
    if row_factor == 0 || row_factor > rows {
        return Err(CoreError::InvalidMergeFactor { factor: row_factor });
    }
    if col_factor == 0 || col_factor > cols {
        return Err(CoreError::InvalidMergeFactor { factor: col_factor });
    }
    let block_rows = rows.div_ceil(row_factor);
    let block_cols = cols.div_ceil(col_factor);
    let mut groups = Vec::with_capacity(block_rows * block_cols);
    for br in 0..block_rows {
        for bc in 0..block_cols {
            let r0 = br * row_factor;
            let c0 = bc * col_factor;
            let r1 = (r0 + row_factor - 1).min(rows - 1);
            let c1 = (c0 + col_factor - 1).min(cols - 1);
            groups.push(GroupRect { r0: r0 as u32, r1: r1 as u32, c0: c0 as u32, c1: c1 as u32 });
        }
    }
    Ok(Partition::from_rects(rows, cols, groups))
}

/// A merged grid: the partition, the allocated group features, and the
/// resulting IFL.
pub type MergedGrid = (Partition, GroupFeatures, f64);

/// Merges `grid` homogeneously by the given factors and returns the
/// partition, the allocated group features, and the resulting IFL.
pub fn homogeneous_merge(
    grid: &GridDataset,
    row_factor: usize,
    col_factor: usize,
    opts: IflOptions,
) -> Result<MergedGrid> {
    let partition = block_partition(grid.rows(), grid.cols(), row_factor, col_factor)?;
    let features = allocate_features(grid, &partition);
    let ifl = partition_ifl(grid, &partition, &features, opts);
    Ok((partition, features, ifl))
}

/// IFL alone for a homogeneous merge — the quantity Table V reports for
/// (2 rows), (2 columns) and (2 rows & 2 columns).
pub fn homogeneous_ifl(grid: &GridDataset, row_factor: usize, col_factor: usize) -> Result<f64> {
    homogeneous_merge(grid, row_factor, col_factor, IflOptions::default()).map(|(_, _, ifl)| ifl)
}

/// Outcome of the iterative homogeneous runner.
#[derive(Debug, Clone)]
pub struct HomogeneousOutcome {
    /// The accepted partition (factor 1 = identity when even factor 2
    /// exceeds the threshold, mirroring the main driver's fallback).
    pub partition: Partition,
    /// Allocated group features of the accepted partition.
    pub features: GroupFeatures,
    /// IFL of the accepted partition.
    pub ifl: f64,
    /// The accepted merge factor (applied to both axes).
    pub factor: usize,
    /// IFL observed at each attempted factor, starting from 2.
    pub attempts: Vec<(usize, f64)>,
}

/// Iterative homogeneous re-partitioning (§III-D): merge `k × k` blocks for
/// `k = 2, 3, …` while the IFL stays within `threshold`; return the last
/// accepted state.
pub fn run_homogeneous(grid: &GridDataset, threshold: f64) -> Result<HomogeneousOutcome> {
    if !(threshold > 0.0 && threshold <= 1.0) {
        return Err(CoreError::InvalidThreshold(threshold));
    }
    let opts = IflOptions::default();
    type Accepted = (Partition, GroupFeatures, f64, usize);
    let mut accepted: Option<Accepted> = None;
    let mut attempts = Vec::new();
    let max_factor = grid.rows().min(grid.cols());
    for k in 2..=max_factor {
        let (p, f, ifl) = homogeneous_merge(grid, k, k, opts)?;
        attempts.push((k, ifl));
        if ifl <= threshold {
            accepted = Some((p, f, ifl, k));
        } else {
            break;
        }
    }
    let (partition, features, ifl, factor) = match accepted {
        Some(a) => a,
        None => {
            let p = Partition::identity(grid.rows(), grid.cols());
            let f = allocate_features(grid, &p);
            (p, f, 0.0, 1)
        }
    };
    Ok(HomogeneousOutcome { partition, features, ifl, factor, attempts })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn block_partition_shapes() {
        let p = block_partition(4, 6, 2, 3).unwrap();
        assert_eq!(p.num_groups(), 4);
        assert_eq!(p.rect(0), GroupRect { r0: 0, r1: 1, c0: 0, c1: 2 });
        // Every block has 6 cells.
        for g in 0..4u32 {
            assert_eq!(p.rect(g).len(), 6);
        }
    }

    #[test]
    fn ragged_blocks_at_borders() {
        let p = block_partition(5, 5, 2, 2).unwrap();
        // ceil(5/2) = 3 blocks per axis => 9 groups; border blocks smaller.
        assert_eq!(p.num_groups(), 9);
        let last = p.rect(8);
        assert_eq!(last.len(), 1); // bottom-right corner 1×1
    }

    #[test]
    fn invalid_factors_rejected() {
        assert!(block_partition(4, 4, 0, 2).is_err());
        assert!(block_partition(4, 4, 5, 2).is_err());
    }

    #[test]
    fn uniform_grid_merges_without_loss() {
        let g = GridDataset::univariate(4, 4, vec![7.0; 16]).unwrap();
        let ifl = homogeneous_ifl(&g, 2, 2).unwrap();
        assert_eq!(ifl, 0.0);
        let out = run_homogeneous(&g, 0.05).unwrap();
        assert_eq!(out.partition.num_groups(), 1); // grows to 4×4 blocks
        assert_eq!(out.factor, 4);
    }

    #[test]
    fn heterogeneous_grid_incurs_loss() {
        // Alternating extreme values: factor-2 merge averages dissimilar
        // cells — high IFL, as Table V demonstrates.
        let vals: Vec<f64> = (0..16).map(|i| if i % 2 == 0 { 1.0 } else { 100.0 }).collect();
        let g = GridDataset::univariate(4, 4, vals).unwrap();
        let ifl = homogeneous_ifl(&g, 1, 2).unwrap();
        assert!(ifl > 0.4, "expected Table-V-scale loss, got {ifl}");
        // The runner falls back to identity when factor 2 already exceeds θ.
        let out = run_homogeneous(&g, 0.15).unwrap();
        assert_eq!(out.factor, 1);
        assert_eq!(out.partition.num_groups(), 16);
    }

    #[test]
    fn row_vs_column_merges_differ() {
        // Columns identical, rows distinct: merging rows loses, merging
        // columns is free.
        #[rustfmt::skip]
        let vals = vec![
            1.0, 1.0,
            9.0, 9.0,
        ];
        let g = GridDataset::univariate(2, 2, vals).unwrap();
        let col_ifl = homogeneous_ifl(&g, 1, 2).unwrap();
        let row_ifl = homogeneous_ifl(&g, 2, 1).unwrap();
        assert_eq!(col_ifl, 0.0);
        assert!(row_ifl > 0.5);
    }

    #[test]
    fn threshold_validated() {
        let g = GridDataset::univariate(2, 2, vec![1.0; 4]).unwrap();
        assert!(run_homogeneous(&g, 0.0).is_err());
        assert!(run_homogeneous(&g, 2.0).is_err());
    }
}
