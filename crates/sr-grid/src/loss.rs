//! Local loss of cell-groups — Eq. (2) — and information loss (IFL) between
//! an original grid and its re-partitioned form — Eq. (3).
//!
//! Eq. 3 has one implementation, in three pieces that every IFL number in
//! the workspace is computed with — the threshold walk, `partition_ifl`,
//! the streaming tier, [`information_loss`] and the baselines:
//!
//! - [`term_inverse`], the term rule: which (cell, attribute) terms count
//!   and their inverse denominators;
//! - [`cell_subtotal`], one cell's terms against its representative row;
//! - [`fold_cell_terms`], the chunked sum of per-cell subtotals and the
//!   average.
//!
//! [`representative`] is §III-C's aggregation-aware representative a
//! member cell is compared with.

use crate::dataset::{AggType, GridDataset};
use crate::{GridError, Result};

/// Local loss of a cell-group for one attribute (Eq. 2):
/// `Loss_cg(k) = (1/t) Σᵢ |dᵢ(k) − cg(k)|`
/// where `values` are the attribute values of the `t` constituent cells and
/// `representative` is the candidate group value `cg(k)`.
#[inline]
pub fn local_loss(values: &[f64], representative: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let sum: f64 = values.iter().map(|&v| (v - representative).abs()).sum();
    sum / values.len() as f64
}

/// Options for the IFL computation.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct IflOptions {
    /// Terms whose original value has absolute value ≤ `zero_eps` are
    /// skipped (and the averaging denominator reduced accordingly). Eq. (3)
    /// is a mean-absolute-*percentage* error, which is undefined at zero;
    /// count-valued grids routinely contain zeros, so this guard is
    /// unavoidable in practice (see DESIGN.md, substitution 6).
    pub zero_eps: f64,
}

impl Default for IflOptions {
    fn default() -> Self {
        IflOptions { zero_eps: 1e-12 }
    }
}

/// Representative value of a cell inside a group, given the group's
/// allocated value for one attribute and the group's valid-member count
/// (§III-C): `Sum`-typed values are divided back by the member count,
/// `Avg`/`Mode` values apply to each member directly.
#[inline]
pub fn representative(group_value: f64, agg: AggType, members: usize) -> f64 {
    match agg {
        AggType::Sum => group_value / members as f64,
        AggType::Avg | AggType::Mode => group_value,
    }
}

/// The Eq. 3 term rule for the (cell, attribute) term whose original value
/// is `d`: `Some(inverse denominator)` when the term counts towards the
/// average, `None` when it is skipped.
///
/// A `Mode` (categorical) term always counts, as a 0/1 mismatch; it never
/// reads an inverse, so its inverse is reported as 0.0. A numeric term is a
/// percentage error, undefined at zero: it counts iff `|d| > zero_eps`,
/// with inverse denominator `1/|d|`.
#[inline]
pub fn term_inverse(d: f64, agg: AggType, opts: IflOptions) -> Option<f64> {
    if agg == AggType::Mode {
        return Some(0.0);
    }
    let denom = d.abs();
    (denom > opts.zero_eps).then(|| 1.0 / denom)
}

/// The Eq. 3 subtotal of one cell: its terms against the representative
/// row `rep`, added in ascending attribute order. `d` holds the cell's
/// original values and `inv` their [`term_inverse`]s, 0.0 for skipped
/// terms: adding `|d − r| · 0.0 = 0.0` to a non-negative subtotal leaves
/// it unchanged, so no per-term branch is needed. `has_mode` says whether
/// `aggs` holds a `Mode` attribute; numeric schemas take the branch-free
/// loop.
#[inline]
pub fn cell_subtotal(d: &[f64], inv: &[f64], rep: &[f64], aggs: &[AggType], has_mode: bool) -> f64 {
    let p = d.len();
    let (inv, rep, aggs) = (&inv[..p], &rep[..p], &aggs[..p]);
    let mut t = 0.0f64;
    if has_mode {
        for k in 0..p {
            if aggs[k] == AggType::Mode {
                t += if d[k] == rep[k] { 0.0 } else { 1.0 };
            } else {
                t += (d[k] - rep[k]).abs() * inv[k];
            }
        }
    } else {
        for k in 0..p {
            t += (d[k] - rep[k]).abs() * inv[k];
        }
    }
    t
}

/// Eq. 3's average: folds the per-cell subtotals `subtotal(pos)` of the
/// `cells` listed valid cells (ascending) in fixed-grain chunks whose
/// partials add in chunk order, and divides by `term_count`, the number of
/// counted terms. Chunk boundaries depend on `cells` only, so the result
/// is bit-identical at any thread count. A `+0.0` subtotal is a bitwise
/// no-op on the non-negative partials, so callers may return it for cells
/// whose terms are exact zeros.
pub fn fold_cell_terms(
    cells: usize,
    term_count: usize,
    pool: &sr_par::Pool,
    subtotal: impl Fn(usize) -> f64 + Sync,
) -> f64 {
    let partials = pool.par_map_chunks(cells, sr_par::fixed_grain(cells, 64), |range| {
        let mut sum = 0.0f64;
        for pos in range {
            sum += subtotal(pos);
        }
        sum
    });
    if term_count == 0 {
        return 0.0;
    }
    partials.iter().sum::<f64>() / term_count as f64
}

/// Information loss (Eq. 3) between `original` and `reconstructed`, where
/// `reconstructed` is a grid of the *same shape* holding, for every original
/// cell, its [`representative`] value in the re-partitioned dataset (see
/// `sr-core::reconstruct`).
///
/// `IFL(d, d̄) = (1/(n·m)) Σᵢ Σⱼ |dᵢ(j) − d̄ᵢ(j)| / dᵢ(j)`
/// summed over valid cells `i` and attributes `j`; `n` counts cells with a
/// valid feature vector. The terms, subtotals and fold are the driver's
/// (module docs), so over `reconstruct_grid`'s output this equals
/// `partition_ifl` bit for bit.
pub fn information_loss(
    original: &GridDataset,
    reconstructed: &GridDataset,
    opts: IflOptions,
) -> Result<f64> {
    if original.rows() != reconstructed.rows()
        || original.cols() != reconstructed.cols()
        || original.num_attrs() != reconstructed.num_attrs()
    {
        return Err(GridError::IncompatibleGrids);
    }
    let p = original.num_attrs();
    let n = original.num_cells();
    let aggs = original.agg_types();
    let has_mode = aggs.contains(&AggType::Mode);
    let (planes, rplanes) = (original.planes(), reconstructed.planes());
    // One cell's values, inverse denominators and representatives.
    let (mut d, mut inv, mut rep) = (vec![0.0f64; p], vec![0.0f64; p], vec![0.0f64; p]);
    let mut subtotals = Vec::with_capacity(original.num_valid_cells());
    let mut terms = 0usize;
    for id in original.valid_cells() {
        let id = id as usize;
        for k in 0..p {
            d[k] = planes[k * n + id];
            rep[k] = rplanes[k * n + id];
            let w = term_inverse(d[k], aggs[k], opts);
            terms += usize::from(w.is_some());
            inv[k] = w.unwrap_or(0.0);
        }
        subtotals.push(cell_subtotal(&d, &inv, &rep, aggs, has_mode));
    }
    Ok(fold_cell_terms(subtotals.len(), terms, sr_par::Pool::global(), |i| subtotals[i]))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn local_loss_matches_eq2() {
        // Paper Example 4: group values avg 23.67 -> rounded 24, mode 23,
        // lossA == lossB == 4 for the 6-cell group. We verify the formula on
        // a simpler case: values {1, 3}, rep 2 -> (1+1)/2 = 1.
        assert_eq!(local_loss(&[1.0, 3.0], 2.0), 1.0);
        assert_eq!(local_loss(&[], 5.0), 0.0);
        assert_eq!(local_loss(&[7.0], 7.0), 0.0);
    }

    #[test]
    fn local_loss_mean_vs_mode_tradeoff() {
        // Values {10, 10, 10, 100}: mean 32.5, mode 10.
        let vals = [10.0, 10.0, 10.0, 100.0];
        let loss_mean = local_loss(&vals, 32.5);
        let loss_mode = local_loss(&vals, 10.0);
        // Mode wins here — exactly the situation Algorithm 2's best-of check
        // exists for.
        assert!(loss_mode < loss_mean);
    }

    #[test]
    fn ifl_zero_for_identical_grids() {
        let g = GridDataset::univariate(2, 2, vec![1.0, 2.0, 3.0, 4.0]).unwrap();
        let ifl = information_loss(&g, &g, IflOptions::default()).unwrap();
        assert_eq!(ifl, 0.0);
    }

    #[test]
    fn ifl_matches_hand_computation() {
        let g = GridDataset::univariate(1, 2, vec![10.0, 20.0]).unwrap();
        let r = GridDataset::univariate(1, 2, vec![11.0, 18.0]).unwrap();
        // (|10-11|/10 + |20-18|/20) / 2 = (0.1 + 0.1)/2 = 0.1
        let ifl = information_loss(&g, &r, IflOptions::default()).unwrap();
        assert!((ifl - 0.1).abs() < 1e-12);
    }

    #[test]
    fn ifl_skips_zero_denominators() {
        let g = GridDataset::univariate(1, 3, vec![0.0, 10.0, 10.0]).unwrap();
        let r = GridDataset::univariate(1, 3, vec![5.0, 11.0, 9.0]).unwrap();
        // Zero-valued term skipped; remaining: (0.1 + 0.1)/2 = 0.1
        let ifl = information_loss(&g, &r, IflOptions::default()).unwrap();
        assert!((ifl - 0.1).abs() < 1e-12);
    }

    #[test]
    fn ifl_ignores_null_cells() {
        let mut g = GridDataset::univariate(1, 2, vec![10.0, 20.0]).unwrap();
        let r = GridDataset::univariate(1, 2, vec![999.0, 22.0]).unwrap();
        g.set_null(0);
        let ifl = information_loss(&g, &r, IflOptions::default()).unwrap();
        assert!((ifl - 0.1).abs() < 1e-12);
    }

    #[test]
    fn ifl_rejects_incompatible_shapes() {
        let a = GridDataset::univariate(1, 2, vec![1.0, 2.0]).unwrap();
        let b = GridDataset::univariate(2, 1, vec![1.0, 2.0]).unwrap();
        assert_eq!(
            information_loss(&a, &b, IflOptions::default()).unwrap_err(),
            GridError::IncompatibleGrids
        );
    }

    #[test]
    fn term_rule_counts_mode_terms_and_numeric_terms_above_the_guard() {
        let opts = IflOptions::default();
        assert_eq!(term_inverse(0.0, AggType::Mode, opts), Some(0.0));
        assert_eq!(term_inverse(-4.0, AggType::Avg, opts), Some(0.25));
        assert_eq!(term_inverse(1e-13, AggType::Sum, opts), None);
    }

    #[test]
    fn all_zero_grid_has_zero_ifl() {
        let g = GridDataset::univariate(1, 2, vec![0.0, 0.0]).unwrap();
        let r = GridDataset::univariate(1, 2, vec![1.0, 1.0]).unwrap();
        assert_eq!(information_loss(&g, &r, IflOptions::default()).unwrap(), 0.0);
    }
}
