//! Quadtree re-partitioning: a top-down *splitting* alternative to the
//! paper's bottom-up greedy merging, used as an ablation comparator.
//!
//! Where Algorithm 1 grows rectangles from cells, the quadtree starts from
//! the whole grid and recursively splits any rectangle that violates the
//! homogeneity condition (some internal adjacent pair exceeds the
//! min-adjacent variation, or the rectangle mixes null and valid cells)
//! into quadrants until every leaf is homogeneous. Leaves are rectangles,
//! so the result is a drop-in [`Partition`] — the ablation binary compares
//! group counts at equal IFL against the paper's greedy extractor.

use crate::extractor::VARIATION_SLACK;
use crate::partition::{GroupRect, Partition};
use sr_grid::{variation_between_typed, GridDataset};

/// Builds a quadtree partition of `normalized` under the given
/// min-adjacent variation.
pub fn quadtree_partition(normalized: &GridDataset, min_adjacent_variation: f64) -> Partition {
    let rows = normalized.rows();
    let cols = normalized.cols();
    let mut groups: Vec<GroupRect> = Vec::new();
    let mut stack = vec![GroupRect { r0: 0, r1: (rows - 1) as u32, c0: 0, c1: (cols - 1) as u32 }];

    while let Some(rect) = stack.pop() {
        if is_homogeneous(normalized, rect, min_adjacent_variation) {
            groups.push(rect);
            continue;
        }
        // Split the longer axis in half; quarter when both axes split.
        let split_rows = rect.height() > 1;
        let split_cols = rect.width() > 1;
        let rm = rect.r0 + (rect.height() as u32 - 1) / 2;
        let cm = rect.c0 + (rect.width() as u32 - 1) / 2;
        match (split_rows, split_cols) {
            (true, true) => {
                stack.push(GroupRect { r0: rect.r0, r1: rm, c0: rect.c0, c1: cm });
                stack.push(GroupRect { r0: rect.r0, r1: rm, c0: cm + 1, c1: rect.c1 });
                stack.push(GroupRect { r0: rm + 1, r1: rect.r1, c0: rect.c0, c1: cm });
                stack.push(GroupRect { r0: rm + 1, r1: rect.r1, c0: cm + 1, c1: rect.c1 });
            }
            (true, false) => {
                stack.push(GroupRect { r0: rect.r0, r1: rm, ..rect });
                stack.push(GroupRect { r0: rm + 1, r1: rect.r1, ..rect });
            }
            (false, true) => {
                stack.push(GroupRect { c0: rect.c0, c1: cm, ..rect });
                stack.push(GroupRect { c0: cm + 1, c1: rect.c1, ..rect });
            }
            (false, false) => {
                // Single cell: homogeneous by definition; unreachable via
                // is_homogeneous, kept total.
                groups.push(rect);
            }
        }
    }

    // Deterministic group ids: sort rectangles row-major by origin.
    groups.sort_by_key(|r| (r.r0, r.c0));
    Partition::from_rects(rows, cols, groups)
}

/// A rectangle is homogeneous when all its cells agree on validity and all
/// internal adjacent pairs stay within the variation bound.
fn is_homogeneous(grid: &GridDataset, rect: GroupRect, threshold: f64) -> bool {
    if rect.len() == 1 {
        return true;
    }
    let aggs = grid.agg_types();
    let first_valid = grid.is_valid(grid.cell_id(rect.r0 as usize, rect.c0 as usize));
    for (r, c) in rect.cells() {
        let id = grid.cell_id(r as usize, c as usize);
        if grid.is_valid(id) != first_valid {
            return false;
        }
        if !first_valid {
            continue;
        }
        let fv = grid.features_unchecked(id);
        if c < rect.c1 {
            let right = grid.cell_id(r as usize, c as usize + 1);
            if grid.is_valid(right)
                && variation_between_typed(&fv, &grid.features_unchecked(right), aggs)
                    > threshold + VARIATION_SLACK
            {
                return false;
            }
        }
        if r < rect.r1 {
            let down = grid.cell_id(r as usize + 1, c as usize);
            if grid.is_valid(down)
                && variation_between_typed(&fv, &grid.features_unchecked(down), aggs)
                    > threshold + VARIATION_SLACK
            {
                return false;
            }
        }
    }
    true
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::allocator::allocate_features;
    use crate::extractor::extract_cell_groups;
    use crate::ifl::partition_ifl;
    use sr_grid::{normalize_attributes, IflOptions};

    #[test]
    fn uniform_grid_one_leaf() {
        let g = GridDataset::univariate(8, 8, vec![3.0; 64]).unwrap();
        let norm = normalize_attributes(&g);
        let p = quadtree_partition(&norm, 0.0);
        assert_eq!(p.num_groups(), 1);
    }

    #[test]
    fn checkerboard_fully_splits() {
        let vals: Vec<f64> =
            (0..16).map(|i| if (i / 4 + i % 4) % 2 == 0 { 1.0 } else { 9.0 }).collect();
        let g = GridDataset::univariate(4, 4, vals).unwrap();
        let norm = normalize_attributes(&g);
        let p = quadtree_partition(&norm, 0.0);
        assert_eq!(p.num_groups(), 16);
    }

    #[test]
    fn tiles_non_power_of_two_grids() {
        let vals: Vec<f64> = (0..5 * 7).map(|i| (i % 3) as f64).collect();
        let g = GridDataset::univariate(5, 7, vals).unwrap();
        let norm = normalize_attributes(&g);
        let p = quadtree_partition(&norm, 0.1);
        let total: usize = (0..p.num_groups() as u32).map(|g| p.rect(g).len()).sum();
        assert_eq!(total, 35);
    }

    #[test]
    fn leaves_respect_variation_bound() {
        use rand::{rngs::SmallRng, Rng, SeedableRng};
        let mut rng = SmallRng::seed_from_u64(13);
        let vals: Vec<f64> = (0..144).map(|_| rng.gen_range(0.0..10.0)).collect();
        let g = GridDataset::univariate(12, 12, vals).unwrap();
        let norm = normalize_attributes(&g);
        let theta = 0.12;
        let p = quadtree_partition(&norm, theta);
        for gid in 0..p.num_groups() as u32 {
            assert!(is_homogeneous(&norm, p.rect(gid), theta));
        }
    }

    #[test]
    fn greedy_never_produces_more_groups_than_quadtree_on_gradients() {
        // The bottom-up greedy can slide rectangles anywhere; the quadtree
        // is pinned to recursive halving, so on smooth gradients it
        // fragments at block boundaries the greedy can straddle.
        let vals: Vec<f64> =
            (0..256).map(|i| ((i / 16) as f64 * 0.4) + (i % 16) as f64 * 0.3).collect();
        let g = GridDataset::univariate(16, 16, vals).unwrap();
        let norm = normalize_attributes(&g);
        for theta in [0.02, 0.05, 0.1] {
            let greedy = extract_cell_groups(&norm, theta);
            let quad = quadtree_partition(&norm, theta);
            assert!(
                greedy.num_groups() <= quad.num_groups(),
                "theta {theta}: greedy {} vs quadtree {}",
                greedy.num_groups(),
                quad.num_groups()
            );
        }
    }

    #[test]
    fn quadtree_partition_feeds_the_standard_pipeline() {
        let vals: Vec<f64> = (0..100).map(|i| 50.0 + (i / 10) as f64).collect();
        let mut g = GridDataset::univariate(10, 10, vals).unwrap();
        g.set_null(99);
        let norm = normalize_attributes(&g);
        let p = quadtree_partition(&norm, 0.05);
        let feats = allocate_features(&g, &p);
        let ifl = partition_ifl(&g, &p, &feats, IflOptions::default());
        assert!(ifl.is_finite() && ifl >= 0.0);
        // Null cell isolated in a null leaf.
        let null_group = p.group_of(99);
        assert!(feats.row(null_group as usize).is_none());
    }
}
