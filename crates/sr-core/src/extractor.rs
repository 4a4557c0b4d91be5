//! Cell-group extraction — Algorithm 1 of the paper (§III-A2).
//!
//! Given the attribute-normalized grid and the current iteration's
//! `minAdjacentVariation`, extraction greedily tiles the grid with
//! *rectangular* groups of adjacent cells such that **every adjacent pair of
//! cells inside a group** has variation ≤ `minAdjacentVariation` (pairs that
//! are in the same group but not adjacent are unconstrained, exactly as the
//! paper specifies). The scan starts at the top-left corner and proceeds
//! row-major; at each unvisited cell the algorithm compares the maximal
//! horizontal run (`hCount`), vertical run (`vCount`) and anchored rectangle
//! (`rCount`) and takes the largest.
//!
//! Null cells only ever group with adjacent null cells; a valid cell with no
//! compatible neighbor forms a singleton group.
//!
//! The edge variations come from sr-grid's [`EdgeVariations`] scan. The
//! row cursor (`scan_row`) and the anchored-rectangle probe are the ones
//! the threshold walk runs, so [`extract_with_edges`] and the driver emit
//! the same rectangles in the same order.

use crate::partition::{GroupRect, Partition};
use sr_grid::{EdgeVariations, GridDataset};

/// Slack added to the variation comparison so a threshold that was itself
/// produced from these variations (heap pops) re-accepts the generating pair
/// despite floating-point noise.
pub(crate) const VARIATION_SLACK: f64 = 1e-12;

/// Runs Algorithm 1: extracts all cell-groups of `normalized` under the
/// given `min_adjacent_variation` and returns the resulting [`Partition`]
/// (both the `gIndex` and `cIndex` mappings of the paper).
///
/// Edge variations are computed on [`sr_par::Pool::global`]; callers that
/// evaluate several thresholds on the same grid should build
/// [`EdgeVariations`] once and call [`extract_with_edges`] per threshold.
pub fn extract_cell_groups(normalized: &GridDataset, min_adjacent_variation: f64) -> Partition {
    extract_cell_groups_with(normalized, min_adjacent_variation, sr_par::Pool::global())
}

/// [`extract_cell_groups`] on an explicit pool.
pub fn extract_cell_groups_with(
    normalized: &GridDataset,
    min_adjacent_variation: f64,
    pool: &sr_par::Pool,
) -> Partition {
    let edges = EdgeVariations::build_with(normalized, pool);
    extract_with_edges(&edges, min_adjacent_variation)
}

/// Algorithm 1 on pre-computed [`EdgeVariations`]: one threshold pass
/// without recomputing any pair variation. The greedy row-major scan
/// itself is inherently sequential (each group consumes cells the next
/// anchor decision depends on) and cheap next to the variation math.
///
/// The scan is the threshold walk's row cursor run over every row, with
/// a per-column spill profile standing in for a visited map.
pub fn extract_with_edges(edges: &EdgeVariations, min_adjacent_variation: f64) -> Partition {
    let accept = min_adjacent_variation + VARIATION_SLACK;
    let mut bot = vec![0u32; edges.cols()];
    let mut groups = Vec::new();
    for r in 0..edges.rows() {
        scan_row(edges, accept, r, &mut bot, |rect, _| groups.push(rect));
    }
    Partition::from_rects(edges.rows(), edges.cols(), groups)
}

/// Result of one anchored-rectangle probe, including the extent of the
/// region the probe *read*: every edge it compared lies within rows
/// `[r, reach]` and columns `[c, c + run_width]` (cell coordinates, both
/// endpoints of every compared edge included). The localized replay keys
/// its dirty-region checks on exactly this box.
#[derive(Debug, Clone, Copy)]
pub(crate) struct RectProbe {
    /// Last row index the exploration visited (≥ the rect's bottom row).
    pub(crate) reach: usize,
    /// Width of the maximal anchor-row run (≥ the rect's width).
    pub(crate) run_width: usize,
}

/// Scans row `r`: skips cells an earlier rectangle spilled into, probes
/// the maximum-area rectangle at each remaining anchor, hands it to `emit`
/// with its probe footprint, and jumps past its width.
///
/// `bot` is the per-column spill profile of the tiling so far: `bot[c]` is
/// one past the deepest row covered by any emitted rectangle touching
/// column `c`. For the scan row `r`, cell `(rr, c)` with `rr ≥ r` is
/// assigned iff `rr < bot[c]` — every rectangle still covering rows `≥ r`
/// was anchored at a row `≤ r`, so its column coverage at rows `≥ r` is
/// contiguous from `r` down to its bottom row. The scan advances `bot`
/// over every rectangle it emits.
pub(crate) fn scan_row(
    edges: &EdgeVariations,
    accept: f64,
    r: usize,
    bot: &mut [u32],
    mut emit: impl FnMut(GroupRect, RectProbe),
) {
    let mut c = 0usize;
    while c < edges.cols() {
        if bot[c] as usize > r {
            c += 1;
            continue;
        }
        let (h, w, probe) = probe_anchored_rect(edges, accept, r, c, bot);
        emit(
            GroupRect {
                r0: r as u32,
                r1: (r + h - 1) as u32,
                c0: c as u32,
                c1: (c + w - 1) as u32,
            },
            probe,
        );
        bot[c..c + w].fill((r + h) as u32);
        c += w;
    }
}

/// Finds the maximum-area rectangle anchored at `(r, c)` (its top-left
/// corner) whose internal adjacent pairs are all compatible and whose cells
/// are all unassigned under the spill profile `bot` (see [`scan_row`]).
/// Returns `(height, width)`, both ≥ 1, and the probe footprint.
///
/// This subsumes the paper's separate `hCount` / `vCount` / `rCount`
/// comparison: height 1 yields the maximal horizontal run, width 1 survives
/// exactly as long as the maximal vertical run, and the scan maximizes the
/// area over every anchored height.
fn probe_anchored_rect(
    edges: &EdgeVariations,
    accept: f64,
    r: usize,
    c: usize,
    bot: &[u32],
) -> (usize, usize, RectProbe) {
    let rows = edges.rows();
    let cols = edges.cols();
    let (eh, ev) = (edges.h(), edges.v());
    let assigned = |rr: usize, cc: usize| rr < bot[cc] as usize;

    // Maximal horizontal run in the anchor row.
    let mut width = 1usize;
    while c + width < cols && !assigned(r, c + width) && eh[r * cols + c + width - 1] <= accept {
        width += 1;
    }

    let mut best = (1usize, width);
    let mut best_area = width;
    let mut reach = r;

    let mut h = 1usize;
    let mut w = width;
    while r + h < rows && w > 0 {
        let rr = r + h;
        reach = rr;
        // Shrink the window to the longest prefix of row `rr` that is
        // unvisited, vertically compatible with the row above, and
        // horizontally chained within row `rr`.
        let mut w2 = 0usize;
        while w2 < w {
            let cc = rr * cols + c + w2;
            if assigned(rr, c + w2) || ev[cc - cols] > accept {
                break;
            }
            if w2 > 0 && eh[cc - 1] > accept {
                break;
            }
            w2 += 1;
        }
        if w2 == 0 {
            break;
        }
        w = w2;
        h += 1;
        let area = h * w;
        if area > best_area {
            best_area = area;
            best = (h, w);
        }
    }

    (best.0, best.1, RectProbe { reach, run_width: width })
}

#[cfg(test)]
mod tests {
    use super::*;
    use sr_grid::normalize_attributes;

    fn partition_of(rows: usize, cols: usize, vals: Vec<f64>, theta: f64) -> Partition {
        let g = GridDataset::univariate(rows, cols, vals).unwrap();
        let norm = normalize_attributes(&g);
        extract_cell_groups(&norm, theta)
    }

    #[test]
    fn zero_threshold_groups_only_equal_neighbors() {
        // 1×4: [5, 5, 7, 7] => two groups of two.
        let p = partition_of(1, 4, vec![5.0, 5.0, 7.0, 7.0], 0.0);
        assert_eq!(p.num_groups(), 2);
        assert_eq!(p.group_of(0), p.group_of(1));
        assert_eq!(p.group_of(2), p.group_of(3));
        assert_ne!(p.group_of(1), p.group_of(2));
    }

    #[test]
    fn all_distinct_values_yield_identity() {
        let p = partition_of(2, 2, vec![1.0, 2.0, 3.0, 4.0], 0.0);
        assert_eq!(p.num_groups(), 4);
    }

    #[test]
    fn huge_threshold_merges_everything_into_one_rect() {
        let p = partition_of(3, 3, (1..=9).map(f64::from).collect(), 1.0);
        assert_eq!(p.num_groups(), 1);
        assert_eq!(p.rect(0), GroupRect { r0: 0, r1: 2, c0: 0, c1: 2 });
    }

    #[test]
    fn rectangle_beats_runs_paper_example3() {
        // Paper Example 3 geometry: a 2×3 block of compatible cells should
        // be extracted as one 6-cell rectangle rather than a 3-cell row.
        // Build a 3×4 grid where the top-left 2×3 block holds near-equal
        // values and everything else is far away.
        #[rustfmt::skip]
        let vals = vec![
            10.0, 10.0, 10.0, 99.0,
            10.0, 10.0, 10.0, 99.0,
            50.0, 50.0, 99.0, 99.0,
        ];
        let p = partition_of(3, 4, vals, 0.0);
        let g = p.group_of(0);
        assert_eq!(p.rect(g), GroupRect { r0: 0, r1: 1, c0: 0, c1: 2 });
        assert_eq!(p.rect(g).len(), 6);
    }

    #[test]
    fn vertical_run_chosen_when_taller_than_wide() {
        // Column of equal values, rows otherwise incompatible.
        #[rustfmt::skip]
        let vals = vec![
            5.0, 90.0,
            5.0, 80.0,
            5.0, 70.0,
        ];
        let p = partition_of(3, 2, vals, 0.0);
        let g = p.group_of(0);
        assert_eq!(p.rect(g), GroupRect { r0: 0, r1: 2, c0: 0, c1: 0 });
    }

    #[test]
    fn incompatible_cell_forms_singleton() {
        let p = partition_of(1, 3, vec![1.0, 100.0, 1.0], 0.0);
        assert_eq!(p.num_groups(), 3);
    }

    #[test]
    fn null_cells_group_together_but_not_with_valid() {
        let mut g = GridDataset::univariate(2, 2, vec![1.0, 1.0, 1.0, 1.0]).unwrap();
        g.set_null(2);
        g.set_null(3);
        let norm = normalize_attributes(&g);
        let p = extract_cell_groups(&norm, 1.0);
        // Top row: one valid group; bottom row: one null group.
        assert_eq!(p.num_groups(), 2);
        assert_eq!(p.group_of(0), p.group_of(1));
        assert_eq!(p.group_of(2), p.group_of(3));
        assert_ne!(p.group_of(0), p.group_of(2));
    }

    #[test]
    fn intra_group_adjacent_pairs_respect_threshold() {
        use sr_grid::variation_between;
        // Stress on a pseudo-random grid: verify the structural guarantee.
        use rand::{rngs::SmallRng, Rng, SeedableRng};
        let mut rng = SmallRng::seed_from_u64(3);
        let (rows, cols) = (12, 15);
        let vals: Vec<f64> = (0..rows * cols).map(|_| rng.gen_range(0.0..10.0)).collect();
        let g = GridDataset::univariate(rows, cols, vals).unwrap();
        let norm = normalize_attributes(&g);
        let theta = 0.08;
        let p = extract_cell_groups(&norm, theta);
        for gid in 0..p.num_groups() as u32 {
            let rect = p.rect(gid);
            for (r, c) in rect.cells() {
                let id = norm.cell_id(r as usize, c as usize);
                let fv = norm.features_unchecked(id);
                if c < rect.c1 {
                    let right = norm.cell_id(r as usize, c as usize + 1);
                    assert!(
                        variation_between(&fv, &norm.features_unchecked(right)) <= theta + 1e-9
                    );
                }
                if r < rect.r1 {
                    let down = norm.cell_id(r as usize + 1, c as usize);
                    assert!(variation_between(&fv, &norm.features_unchecked(down)) <= theta + 1e-9);
                }
            }
        }
    }

    #[test]
    fn larger_threshold_never_increases_group_count_on_smooth_data() {
        let vals: Vec<f64> = (0..100).map(|i| (i / 10) as f64).collect();
        let g = GridDataset::univariate(10, 10, vals).unwrap();
        let norm = normalize_attributes(&g);
        let mut last = usize::MAX;
        for theta in [0.0, 0.05, 0.1, 0.2, 0.5, 1.0] {
            let p = extract_cell_groups(&norm, theta);
            assert!(p.num_groups() <= last);
            last = p.num_groups();
        }
    }
}
