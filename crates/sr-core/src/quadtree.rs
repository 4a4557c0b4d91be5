//! Quadtree re-partitioning: a top-down *splitting* alternative to the
//! paper's bottom-up greedy merging, used as an ablation comparator.
//!
//! Where Algorithm 1 grows rectangles from cells, the quadtree starts from
//! the whole grid and recursively splits any rectangle that violates the
//! homogeneity condition into quadrants until every leaf is homogeneous.
//! Homogeneity reads sr-grid's [`EdgeVariations`] scan, Eq. 1 as the
//! driver computes it: a rectangle is homogeneous when every internal edge
//! is within the min-adjacent variation. The scan stores null–valid edges
//! as `+∞` and null–null edges as `-∞`, so the same test keeps null and
//! valid cells apart. Leaves are rectangles, so the result is a drop-in
//! [`Partition`] — the ablation binary compares group counts at equal IFL
//! against the paper's greedy extractor.

use crate::extractor::VARIATION_SLACK;
use crate::partition::{GroupRect, Partition};
use sr_grid::{EdgeVariations, GridDataset};

/// Builds a quadtree partition of `normalized` under the given (finite)
/// min-adjacent variation.
pub fn quadtree_partition(normalized: &GridDataset, min_adjacent_variation: f64) -> Partition {
    let rows = normalized.rows();
    let cols = normalized.cols();
    let edges = EdgeVariations::build(normalized);
    let accept = min_adjacent_variation + VARIATION_SLACK;
    let mut groups: Vec<GroupRect> = Vec::new();
    let mut stack = vec![GroupRect { r0: 0, r1: (rows - 1) as u32, c0: 0, c1: (cols - 1) as u32 }];

    while let Some(rect) = stack.pop() {
        if is_homogeneous(&edges, rect, accept) {
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

/// A rectangle is homogeneous when every internal edge — right edges left
/// of its last column, down edges above its last row — is `≤ accept`.
fn is_homogeneous(edges: &EdgeVariations, rect: GroupRect, accept: f64) -> bool {
    let cols = edges.cols();
    let (c0, c1) = (rect.c0 as usize, rect.c1 as usize);
    (rect.r0..=rect.r1).all(|r| {
        let base = r as usize * cols;
        edges.h()[base + c0..base + c1].iter().all(|&e| e <= accept)
            && (r == rect.r1 || edges.v()[base + c0..=base + c1].iter().all(|&e| e <= accept))
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::allocator::allocate_features;
    use crate::extractor::extract_cell_groups;
    use crate::ifl::partition_ifl;
    use sr_grid::{normalize_attributes, variation_between, IflOptions};

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
        assert!(p.num_groups() > 1 && p.num_groups() < 144);
        // Every internal pair of every leaf, by Eq. 1 on gathered features.
        let bound = theta + VARIATION_SLACK;
        for gid in 0..p.num_groups() as u32 {
            let rect = p.rect(gid);
            for (r, c) in rect.cells() {
                let fv = norm.features(norm.cell_id(r as usize, c as usize)).unwrap();
                let mut neighbors = Vec::new();
                if c < rect.c1 {
                    neighbors.push((r, c + 1));
                }
                if r < rect.r1 {
                    neighbors.push((r + 1, c));
                }
                for (nr, nc) in neighbors {
                    let other = norm.features(norm.cell_id(nr as usize, nc as usize)).unwrap();
                    let var = variation_between(&fv, &other);
                    assert!(var <= bound, "leaf {gid}: ({r},{c})-({nr},{nc}) varies {var}");
                }
            }
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
