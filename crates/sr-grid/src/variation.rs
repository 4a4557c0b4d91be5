//! Attribute variation between cells — Eq. (1) of the paper — and the
//! per-edge variation scan that feeds both the min-adjacent variation heap
//! (§III-A1) and cell-group extraction (Algorithm 1).
//!
//! The scan ([`EdgeVariations`]) is plane-wise over the SoA attribute
//! planes: per grid row it accumulates the right/down difference sums for
//! all columns with flat autovectorization-friendly loops. Each edge's sum
//! receives its per-attribute terms in ascending-`k` order, so every edge
//! is bit-identical to [`variation_between_typed`] on the gathered feature
//! vectors. [`EdgeVariations::patch_cells`] keeps a scan current after cell
//! updates by re-evaluating the incident edges with that same function,
//! so the scan and the patch are one Eq. 1.

use crate::dataset::{AggType, CellId, GridDataset};

/// Variation between two feature vectors (Eq. 1): the mean absolute
/// per-attribute difference,
/// `Variationᵢⱼ = (1/p) Σₖ |dᵢ(k) − dⱼ(k)|`.
#[inline]
pub fn variation_between(a: &[f64], b: &[f64]) -> f64 {
    debug_assert_eq!(a.len(), b.len());
    let p = a.len() as f64;
    let sum: f64 = a.iter().zip(b).map(|(x, y)| (x - y).abs()).sum();
    sum / p
}

/// Eq. 1 extended to mixed numeric/categorical schemas (§VI future work):
/// numeric attributes contribute `|dᵢ(k) − dⱼ(k)|` as usual, `Mode`
/// (categorical) attributes contribute a 0/1 mismatch indicator.
#[inline]
pub fn variation_between_typed(a: &[f64], b: &[f64], agg_types: &[AggType]) -> f64 {
    debug_assert_eq!(a.len(), b.len());
    debug_assert_eq!(a.len(), agg_types.len());
    let p = a.len() as f64;
    let sum: f64 = a
        .iter()
        .zip(b)
        .zip(agg_types)
        .map(|((x, y), agg)| match agg {
            AggType::Mode => {
                if x == y {
                    0.0
                } else {
                    1.0
                }
            }
            _ => (x - y).abs(),
        })
        .sum();
    sum / p
}

/// Per-edge variations of a grid: Eq. 1 for every rook-adjacent cell pair,
/// computed once and reused by every threshold the driver evaluates.
///
/// Encoding: `h[r·cols + c]` is the variation between `(r,c)` and
/// `(r,c+1)`; `v[r·cols + c]` between `(r,c)` and `(r+1,c)`. Null–null
/// edges store `-∞` (always compatible — null cells merge only with null
/// cells, §III-A2), valid–null edges and out-of-grid edges store `+∞`
/// (never compatible), so compatibility at threshold `θ` is exactly
/// `edge ≤ θ + slack`, and the finite edges are exactly the valid–valid
/// adjacent pairs the min-adjacent variation heap is built from.
#[derive(Debug, Clone)]
pub struct EdgeVariations {
    rows: usize,
    cols: usize,
    h: Vec<f64>,
    v: Vec<f64>,
}

impl EdgeVariations {
    /// Computes the edge variations of `grid` on [`sr_par::Pool::global`].
    /// Callers following the paper's pipeline pass the *normalized* grid.
    pub fn build(grid: &GridDataset) -> Self {
        Self::build_with(grid, sr_par::Pool::global())
    }

    /// [`EdgeVariations::build`] on an explicit pool. Row bands are
    /// computed independently, so the result is identical at any thread
    /// count.
    ///
    /// The raw difference sums are accumulated attribute-plane by
    /// attribute-plane with flat loops over row slices (each edge's sum
    /// receives its terms in ascending-`k` order — the same floating-point
    /// order as a per-edge feature-vector walk), then a finalize pass
    /// divides by `p` and patches validity: null–null edges become `-∞`,
    /// mixed and out-of-grid edges `+∞`.
    pub fn build_with(grid: &GridDataset, pool: &sr_par::Pool) -> Self {
        let rows = grid.rows();
        let cols = grid.cols();
        let aggs = grid.agg_types();
        let pf = grid.num_attrs() as f64;
        let valid = grid.valid_mask();
        let fill_band = |band: std::ops::Range<usize>, h: &mut [f64], v: &mut [f64]| {
            let b0 = band.start;
            for r in band {
                let br = r - b0;
                let base = r * cols;
                let has_below = r + 1 < rows;
                let hrow = &mut h[br * cols..(br + 1) * cols];
                let vrow = &mut v[br * cols..(br + 1) * cols];
                hrow[..cols - 1].fill(0.0);
                if has_below {
                    vrow.fill(0.0);
                }
                for (k, agg) in aggs.iter().enumerate() {
                    let plane = grid.attr_plane(k);
                    let row = &plane[base..base + cols];
                    match agg {
                        AggType::Mode => {
                            for c in 0..cols - 1 {
                                hrow[c] += if row[c] == row[c + 1] { 0.0 } else { 1.0 };
                            }
                            if has_below {
                                let below = &plane[base + cols..base + 2 * cols];
                                for c in 0..cols {
                                    vrow[c] += if row[c] == below[c] { 0.0 } else { 1.0 };
                                }
                            }
                        }
                        _ => {
                            for c in 0..cols - 1 {
                                hrow[c] += (row[c] - row[c + 1]).abs();
                            }
                            if has_below {
                                let below = &plane[base + cols..base + 2 * cols];
                                for c in 0..cols {
                                    vrow[c] += (row[c] - below[c]).abs();
                                }
                            }
                        }
                    }
                }
                for c in 0..cols - 1 {
                    let (a, b) = (valid[base + c], valid[base + c + 1]);
                    hrow[c] = if a && b {
                        hrow[c] / pf
                    } else if !a && !b {
                        f64::NEG_INFINITY
                    } else {
                        f64::INFINITY
                    };
                }
                hrow[cols - 1] = f64::INFINITY;
                if has_below {
                    for c in 0..cols {
                        let (a, b) = (valid[base + c], valid[base + cols + c]);
                        vrow[c] = if a && b {
                            vrow[c] / pf
                        } else if !a && !b {
                            f64::NEG_INFINITY
                        } else {
                            f64::INFINITY
                        };
                    }
                } else {
                    vrow.fill(f64::INFINITY);
                }
            }
        };
        // Serial pools fill the full arrays in place; the banded path pays
        // for its parallelism with a concatenation copy.
        if pool.threads() <= 1 {
            let mut h = vec![0.0; rows * cols];
            let mut v = vec![0.0; rows * cols];
            fill_band(0..rows, &mut h, &mut v);
            return EdgeVariations { rows, cols, h, v };
        }
        // Fixed row-band grain: band boundaries never depend on the thread
        // count, so the concatenated arrays are always the serial ones.
        let bands = pool.par_map_chunks(rows, sr_par::fixed_grain(rows, 64), |band| {
            let mut h = vec![0.0; band.len() * cols];
            let mut v = vec![0.0; band.len() * cols];
            fill_band(band, &mut h, &mut v);
            (h, v)
        });
        let mut h = Vec::with_capacity(rows * cols);
        let mut v = Vec::with_capacity(rows * cols);
        for (bh, bv) in bands {
            h.extend(bh);
            v.extend(bv);
        }
        EdgeVariations { rows, cols, h, v }
    }

    /// Grid height this was built from.
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Grid width this was built from.
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// Right-neighbor edges, `h[r·cols + c]` (`+∞` in the last column).
    pub fn h(&self) -> &[f64] {
        &self.h
    }

    /// Down-neighbor edges, `v[r·cols + c]` (`+∞` in the last row).
    pub fn v(&self) -> &[f64] {
        &self.v
    }

    /// Re-evaluates every edge incident to the `dirty` cells after their
    /// values or validity changed in `grid`, and returns how many edges it
    /// evaluated. `dirty` may hold duplicates, in any order; each edge is
    /// evaluated once. `on_change(old, new)` is called for every edge whose
    /// bits changed.
    ///
    /// `grid` is the *raw* grid: values are normalized on the fly by
    /// `max_abs`, the per-attribute denominators these edges were built
    /// with (`grid.attr_max_abs()` of the grid that was normalized), the
    /// way [`crate::normalize_attributes`] divides every non-`Mode`
    /// attribute with a positive maximum. Each edge is
    /// [`variation_between_typed`] of its two cells — the scalar reference
    /// the scan equals bit for bit — or `∓∞` by the null conventions above,
    /// so a patched array equals [`EdgeVariations::build_with`] on the
    /// normalized updated grid.
    ///
    /// # Panics
    ///
    /// When `grid` has another shape than these edges, or a `dirty` id is
    /// not one of its cells.
    pub fn patch_cells(
        &mut self,
        grid: &GridDataset,
        max_abs: &[f64],
        dirty: &[CellId],
        mut on_change: impl FnMut(f64, f64),
    ) -> usize {
        let (rows, cols) = (self.rows, self.cols);
        assert_eq!((grid.rows(), grid.cols()), (rows, cols), "patch_cells: grid shape differs");
        // The right edge of flat index `i` is key `2i`, its down edge
        // `2i + 1`, so one sorted list covers both arrays.
        let mut keys: Vec<usize> = Vec::with_capacity(dirty.len() * 4);
        for &id in dirty {
            let i = id as usize;
            assert!(i < rows * cols, "patch_cells: cell {i} outside a {rows}×{cols} grid");
            let (r, c) = (i / cols, i % cols);
            if c > 0 {
                keys.push(2 * (i - 1));
            }
            if c + 1 < cols {
                keys.push(2 * i);
            }
            if r > 0 {
                keys.push(2 * (i - cols) + 1);
            }
            if r + 1 < rows {
                keys.push(2 * i + 1);
            }
        }
        keys.sort_unstable();
        keys.dedup();

        let aggs = grid.agg_types();
        let (mut fa, mut fb) = (vec![0.0; aggs.len()], vec![0.0; aggs.len()]);
        for &key in &keys {
            let a = key >> 1;
            let (slot, b) =
                if key & 1 == 0 { (&mut self.h[a], a + 1) } else { (&mut self.v[a], a + cols) };
            let new = match (grid.is_valid(a as CellId), grid.is_valid(b as CellId)) {
                (true, true) => {
                    for (k, &agg) in aggs.iter().enumerate() {
                        let plane = grid.attr_plane(k);
                        let (mut x, mut y) = (plane[a], plane[b]);
                        let m = max_abs[k];
                        if agg != AggType::Mode && m > 0.0 {
                            x /= m;
                            y /= m;
                        }
                        fa[k] = x;
                        fb[k] = y;
                    }
                    variation_between_typed(&fa, &fb, aggs)
                }
                (false, false) => f64::NEG_INFINITY,
                _ => f64::INFINITY,
            };
            let old = std::mem::replace(slot, new);
            if old.to_bits() != new.to_bits() {
                on_change(old, new);
            }
        }
        keys.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dataset::Bounds;

    #[test]
    fn variation_matches_eq1() {
        // p = 2, |1-3| + |5-1| = 6, /2 = 3
        assert_eq!(variation_between(&[1.0, 5.0], &[3.0, 1.0]), 3.0);
        // univariate reduces to absolute difference
        assert_eq!(variation_between(&[2.5], &[4.0]), 1.5);
    }

    #[test]
    fn variation_is_symmetric_and_zero_on_self() {
        let a = [1.0, -2.0, 3.0];
        let b = [0.5, 2.0, -1.0];
        assert_eq!(variation_between(&a, &b), variation_between(&b, &a));
        assert_eq!(variation_between(&a, &a), 0.0);
    }

    #[test]
    fn edges_follow_the_null_and_border_conventions() {
        // 2×3 grid, cells 0 and 1 null:
        //   [null, null, 3]
        //   [4,    5,    6]
        let mut g = GridDataset::univariate(2, 3, vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0]).unwrap();
        g.set_null(0);
        g.set_null(1);
        let e = EdgeVariations::build(&g);
        let inf = f64::INFINITY;
        // Null–null is always compatible, null–valid never, and the last
        // column has no right neighbor.
        assert_eq!(e.h(), &[f64::NEG_INFINITY, inf, inf, 1.0, 1.0, inf][..]);
        // The last row has no neighbor below.
        assert_eq!(e.v(), &[inf, inf, 3.0, inf, inf, inf][..]);
        // The finite edges are exactly the valid–valid pairs, each once:
        // (3,4), (4,5) and (2,5).
        let finite = e.h().iter().chain(e.v()).filter(|x| x.is_finite()).count();
        assert_eq!(finite, 3);
        assert_eq!((e.rows(), e.cols()), (2, 3));
    }

    #[test]
    fn multivariate_edge_is_the_attribute_mean() {
        let g = GridDataset::new(
            1,
            2,
            2,
            vec![0.0, 0.0, 1.0, 3.0],
            vec![true, true],
            vec!["a".into(), "b".into()],
            vec![AggType::Avg, AggType::Avg],
            vec![false, false],
            Bounds::unit(),
        )
        .unwrap();
        let e = EdgeVariations::build(&g);
        assert_eq!(e.h()[0], 2.0); // (1 + 3) / 2
        assert!(e.h()[1..].iter().chain(e.v()).all(|x| x.is_infinite()));
    }

    /// A 5×7 grid with an `Avg`, a `Sum` and a `Mode` attribute, negative
    /// values and null holes.
    fn mixed_grid() -> GridDataset {
        let (rows, cols, p) = (5, 7, 3);
        let n = rows * cols;
        let mut data = Vec::with_capacity(n * p);
        let mut valid = Vec::with_capacity(n);
        let mut x = 0.37f64;
        for i in 0..n {
            for k in 0..p {
                x = (x * 73.0 + (i * p + k) as f64 * 0.11).rem_euclid(7.3);
                data.push(if k == 2 { (x * 3.0).floor() } else { x - 3.0 });
            }
            valid.push(i % 6 != 4);
        }
        GridDataset::new(
            rows,
            cols,
            p,
            data,
            valid,
            vec!["a".into(), "b".into(), "cat".into()],
            vec![AggType::Avg, AggType::Sum, AggType::Mode],
            vec![false, false, false],
            Bounds::unit(),
        )
        .unwrap()
    }

    fn bits(v: &[f64]) -> Vec<u64> {
        v.iter().map(|x| x.to_bits()).collect()
    }

    #[test]
    fn plane_scan_matches_per_pair_gather() {
        // Mixed schema with a Mode attribute and null holes: the plane-wise
        // scan must reproduce variation_between_typed pair by pair, at any
        // thread count.
        let g = mixed_grid();
        let (rows, cols) = (g.rows(), g.cols());
        let expect = |a: usize, b: usize| match (g.features(a as u32), g.features(b as u32)) {
            (Some(fa), Some(fb)) => variation_between_typed(&fa, &fb, g.agg_types()),
            (None, None) => f64::NEG_INFINITY,
            _ => f64::INFINITY,
        };
        for threads in [1, 4] {
            let e = EdgeVariations::build_with(&g, &sr_par::Pool::new(threads));
            let mut finite = 0;
            for r in 0..rows {
                for c in 0..cols {
                    let i = r * cols + c;
                    let h = if c + 1 < cols { expect(i, i + 1) } else { f64::INFINITY };
                    let v = if r + 1 < rows { expect(i, i + cols) } else { f64::INFINITY };
                    assert_eq!(e.h()[i].to_bits(), h.to_bits(), "h edge of ({r},{c})");
                    assert_eq!(e.v()[i].to_bits(), v.to_bits(), "v edge of ({r},{c})");
                    finite += usize::from(h.is_finite()) + usize::from(v.is_finite());
                }
            }
            assert!(finite > 0);
        }
    }

    #[test]
    fn patching_every_cell_reproduces_the_scan() {
        let g = mixed_grid();
        let (rows, cols) = (g.rows(), g.cols());
        let max_abs = g.attr_max_abs();
        let built = EdgeVariations::build(&crate::normalize_attributes(&g));
        let mut e = built.clone();
        // Every cell, listed twice and out of order.
        let all: Vec<CellId> = (0..g.num_cells() as CellId).rev().chain(0..3).collect();
        let mut changed = 0;
        let evaluated = e.patch_cells(&g, &max_abs, &all, |_, _| changed += 1);
        assert_eq!(changed, 0, "an unchanged grid must patch to the same bits");
        assert_eq!(evaluated, rows * (cols - 1) + (rows - 1) * cols, "every interior edge once");
        assert_eq!(bits(e.h()), bits(built.h()));
        assert_eq!(bits(e.v()), bits(built.v()));

        // A nulled cell, a revived one and new values on all three
        // attribute kinds patch to a fresh scan of the updated grid.
        let mut u = g.clone();
        u.set_null(8);
        u.set_value(4, 0, 0.5);
        u.set_valid(4);
        u.set_value(9, 1, -0.25);
        u.set_value(10, 2, 5.0);
        assert_eq!(bits(&u.attr_max_abs()), bits(&max_abs), "denominators must not move");
        let mut changes = Vec::new();
        e.patch_cells(&u, &max_abs, &[8, 4, 9, 10], |old, new| changes.push((old, new)));
        let fresh = EdgeVariations::build(&crate::normalize_attributes(&u));
        assert_eq!(bits(e.h()), bits(fresh.h()));
        assert_eq!(bits(e.v()), bits(fresh.v()));
        assert!(changes.iter().all(|(old, new)| old.to_bits() != new.to_bits()));
        assert!(!changes.is_empty());
    }
}
