//! Information-loss calculation for a partition — §III-A4 of the paper.
//!
//! Eq. (3) compares every original cell's value with its *representative*
//! value in the re-partitioned dataset. Representatives are aggregation
//! aware (exactly as §III-A4 and §III-C describe): a `Sum`-typed group value
//! is divided back by the group's member count, while an `Avg`-typed group
//! value applies to each member directly.
//!
//! The term rule, the per-cell subtotal and the chunked fold are sr-grid's
//! ([`sr_grid::loss`]), shared with [`sr_grid::information_loss`] and the
//! streaming tier. This module holds what the driver adds on top: the
//! per-run cache of term rows and [`partition_ifl`] over it.

use crate::allocator::GroupFeatures;
use crate::partition::Partition;
use sr_grid::loss::{cell_subtotal, fold_cell_terms, term_inverse};
use sr_grid::{representative, AggType, CellId, GridDataset, IflOptions};

/// Computes the IFL (Eq. 3) between `original` and the re-partitioned
/// dataset described by (`partition`, `group_features`). Null groups
/// contain no valid cells and thus never contribute terms.
///
/// Representatives are pre-computed once per (group, attribute) instead of
/// per (cell, attribute), and the per-cell subtotals are computed and
/// folded on [`sr_par::Pool::global`] by [`fold_cell_terms`], in its
/// fixed-grain chunks — bit-identical at any thread count.
pub fn partition_ifl(
    original: &GridDataset,
    partition: &Partition,
    group_features: &GroupFeatures,
    opts: IflOptions,
) -> f64 {
    partition_ifl_with(original, partition, group_features, opts, sr_par::Pool::global())
}

/// [`partition_ifl`] on an explicit pool.
pub fn partition_ifl_with(
    original: &GridDataset,
    partition: &Partition,
    group_features: &GroupFeatures,
    opts: IflOptions,
    pool: &sr_par::Pool,
) -> f64 {
    debug_assert_eq!(group_features.num_groups(), partition.num_groups());
    let p = original.num_attrs();
    let aggs = original.agg_types();
    let has_mode = aggs.contains(&AggType::Mode);
    let n_groups = partition.num_groups();
    // Null groups keep 0.0 rows — they own no valid cell, so the cell walk
    // never reads them. A group with exactly one valid member represents
    // that cell by its own value — every aggregation reduces to the
    // identity on a single value, and Sum divides back by 1 — so all of its
    // Eq. 3 terms are exact zeros: its cells store a `+0.0` subtotal, which
    // the fold adds as a bitwise no-op.
    let mut reps = vec![0.0f64; n_groups * p];
    let mut exact = vec![false; n_groups];
    for g in 0..n_groups {
        if let Some(fv) = group_features.row(g) {
            let members = group_features.valid_count(g);
            exact[g] = members == 1;
            for k in 0..p {
                reps[g * p + k] = representative(fv[k], aggs[k], members);
            }
        }
    }
    let cells: Vec<CellId> = original.valid_cells().collect();
    let cache = IflCellCache::build(original, &cells, opts);
    fold_cell_terms(cells.len(), cache.terms, pool, |pos| {
        let g = partition.group_of(cells[pos]) as usize;
        if exact[g] {
            0.0
        } else {
            cache.cell_subtotal(pos, &reps[g * p..g * p + p], aggs, has_mode)
        }
    })
}

/// Per-run cache of the partition-independent parts of Eq. 3: every listed
/// cell's values and [`term_inverse`]s, and the count of terms the rule
/// keeps. The driver evaluates the IFL dozens of times per run; the
/// denominators and the averaging count never change between evaluations.
#[derive(Debug, Clone)]
pub(crate) struct IflCellCache {
    /// One `2p`-wide row per listed cell: the cell's `p` attribute values
    /// followed by their `p` inverse denominators (0.0 for skipped terms,
    /// unread for `Mode` attributes). Values and inverses of a cell share a
    /// row so the kernel touches one contiguous span per cell — at `p = 4`
    /// exactly one cache line — instead of two grid-sized buffers.
    data: Vec<f64>,
    /// Total contributing terms (Eq. 3's averaging denominator).
    terms: usize,
}

impl IflCellCache {
    pub(crate) fn build(original: &GridDataset, cells: &[CellId], opts: IflOptions) -> Self {
        let p = original.num_attrs();
        let aggs = original.agg_types();
        let stride = 2 * p;
        // Single cell-outer pass: each iteration reads one slot from every
        // plane (p near-sequential read streams over ascending cell ids)
        // and fills one contiguous `2p` row — values then inverse
        // denominators — so the arena is written exactly once, instead of
        // 2p strided sweeps.
        let mut data = vec![0.0f64; cells.len() * stride];
        let planes: Vec<&[f64]> = (0..p).map(|k| original.attr_plane(k)).collect();
        let mut terms = 0usize;
        for (i, &id) in cells.iter().enumerate() {
            let row = &mut data[i * stride..(i + 1) * stride];
            for k in 0..p {
                let v = planes[k][id as usize];
                row[k] = v;
                if let Some(inv) = term_inverse(v, aggs[k], opts) {
                    row[p + k] = inv;
                    terms += 1;
                }
            }
        }
        IflCellCache { data, terms }
    }

    /// Recomputes the row of the cell at position `pos` of the cell list
    /// this cache was built over (which must still map `pos` to `id`),
    /// after `id`'s attribute values changed in `original`. The term count
    /// moves by the rule applied to the old row and to the new values, so
    /// the result is bit-identical to a fresh [`IflCellCache::build`] over
    /// the updated grid.
    pub(crate) fn update_row(
        &mut self,
        original: &GridDataset,
        pos: usize,
        id: CellId,
        opts: IflOptions,
    ) {
        let p = original.num_attrs();
        let aggs = original.agg_types();
        let row = &mut self.data[pos * 2 * p..(pos + 1) * 2 * p];
        let (mut old_terms, mut new_terms) = (0usize, 0usize);
        for k in 0..p {
            old_terms += usize::from(term_inverse(row[k], aggs[k], opts).is_some());
            let v = original.value(id, k);
            let inv = term_inverse(v, aggs[k], opts);
            new_terms += usize::from(inv.is_some());
            row[k] = v;
            row[p + k] = inv.unwrap_or(0.0);
        }
        self.terms = self.terms + new_terms - old_terms;
    }

    /// Total contributing terms — Eq. 3's averaging denominator.
    pub(crate) fn terms(&self) -> usize {
        self.terms
    }

    /// The Eq. 3 subtotal ([`cell_subtotal`]) of the cell at list position
    /// `pos` against a representative row. [`partition_ifl`] folds exactly
    /// these subtotals, so a cached subtotal can replace a live evaluation
    /// bit for bit.
    #[inline]
    pub(crate) fn cell_subtotal(
        &self,
        pos: usize,
        rep: &[f64],
        aggs: &[AggType],
        has_mode: bool,
    ) -> f64 {
        let p = rep.len();
        let row = &self.data[pos * 2 * p..(pos + 1) * 2 * p];
        cell_subtotal(&row[..p], &row[p..], rep, aggs, has_mode)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::allocator::allocate_features;
    use crate::extractor::extract_cell_groups;
    use crate::partition::GroupRect;
    use sr_grid::{normalize_attributes, Bounds};

    #[test]
    fn identity_partition_has_zero_ifl() {
        let g = GridDataset::univariate(2, 2, vec![1.0, 2.0, 3.0, 4.0]).unwrap();
        let p = Partition::identity(2, 2);
        let feats = allocate_features(&g, &p);
        let ifl = partition_ifl(&g, &p, &feats, IflOptions::default());
        assert_eq!(ifl, 0.0);
    }

    #[test]
    fn avg_representative_is_group_value() {
        // Group {10, 20} with Avg: representative 15 for both cells.
        // IFL = (|10-15|/10 + |20-15|/20)/2 = (0.5 + 0.25)/2 = 0.375
        let g = GridDataset::univariate(1, 2, vec![10.0, 20.0]).unwrap();
        let p = Partition::new(1, 2, vec![GroupRect { r0: 0, r1: 0, c0: 0, c1: 1 }], vec![0, 0]);
        let feats = allocate_features(&g, &p);
        let ifl = partition_ifl(&g, &p, &feats, IflOptions::default());
        assert!((ifl - 0.375).abs() < 1e-12);
    }

    #[test]
    fn sum_representative_divides_by_member_count() {
        // Counts {10, 20} with Sum: group value 30, representative 15 each.
        let g = GridDataset::new(
            1,
            2,
            1,
            vec![10.0, 20.0],
            vec![true, true],
            vec!["count".into()],
            vec![sr_grid::AggType::Sum],
            vec![false],
            Bounds::unit(),
        )
        .unwrap();
        let p = Partition::new(1, 2, vec![GroupRect { r0: 0, r1: 0, c0: 0, c1: 1 }], vec![0, 0]);
        let feats = allocate_features(&g, &p);
        assert_eq!(feats.row(0), Some(&[30.0][..]));
        let ifl = partition_ifl(&g, &p, &feats, IflOptions::default());
        assert!((ifl - 0.375).abs() < 1e-12);
    }

    #[test]
    fn paper_example5_like_pipeline_keeps_small_ifl() {
        // A near-uniform grid merged at a generous threshold must incur a
        // small but nonzero IFL, and a fully uniform grid exactly zero.
        let uniform = GridDataset::univariate(3, 3, vec![5.0; 9]).unwrap();
        let norm = normalize_attributes(&uniform);
        let p = extract_cell_groups(&norm, 0.0);
        let feats = allocate_features(&uniform, &p);
        assert_eq!(partition_ifl(&uniform, &p, &feats, IflOptions::default()), 0.0);

        let near = GridDataset::univariate(1, 4, vec![100.0, 101.0, 99.0, 100.0]).unwrap();
        let nnorm = normalize_attributes(&near);
        let p2 = extract_cell_groups(&nnorm, 1.0);
        assert_eq!(p2.num_groups(), 1);
        let feats2 = allocate_features(&near, &p2);
        let ifl = partition_ifl(&near, &p2, &feats2, IflOptions::default());
        assert!(ifl > 0.0 && ifl < 0.01, "ifl = {ifl}");
    }

    #[test]
    fn null_cells_do_not_contribute() {
        let mut g = GridDataset::univariate(1, 3, vec![10.0, 10.0, 10.0]).unwrap();
        g.set_null(2);
        let norm = normalize_attributes(&g);
        let p = extract_cell_groups(&norm, 1.0);
        let feats = allocate_features(&g, &p);
        let ifl = partition_ifl(&g, &p, &feats, IflOptions::default());
        assert_eq!(ifl, 0.0);
    }
}
