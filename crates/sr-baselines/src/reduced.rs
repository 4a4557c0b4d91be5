//! The common output shape of every reduction baseline.

use sr_grid::{
    information_loss, representative, AdjacencyList, AggType, CellId, GridDataset, IflOptions,
};

/// A reduced dataset: one row of training data per unit (sample, region, or
/// cluster), plus the structures the spatial models and the evaluation
/// harness need.
#[derive(Debug, Clone)]
pub struct ReducedDataset {
    /// One aggregated feature row per unit.
    pub features: Vec<Vec<f64>>,
    /// Geographic centroid of each unit.
    pub centroids: Vec<(f64, f64)>,
    /// Adjacency between units (empty neighbor lists where the method
    /// destroys contiguity, e.g. sampling).
    pub adjacency: AdjacencyList,
    /// For every grid cell: the unit that represents it (`None` for null
    /// cells). Sampling maps unselected cells to their nearest sample.
    pub cell_to_unit: Vec<Option<u32>>,
    /// Number of cells each unit covers / represents.
    pub unit_sizes: Vec<usize>,
    /// Number of cells *aggregated into* each unit's feature vector (1 for
    /// sampling, whose units keep raw single-cell features; the member
    /// count for regionalization/clustering). Sum-typed attributes divide
    /// by this to recover per-cell intensities.
    pub agg_counts: Vec<usize>,
}

impl ReducedDataset {
    /// Number of units.
    pub fn len(&self) -> usize {
        self.features.len()
    }

    /// Whether the reduction produced no units.
    pub fn is_empty(&self) -> bool {
        self.features.is_empty()
    }

    /// Splits the feature rows into target column `target_attr` and the
    /// remaining feature columns (mirrors
    /// `sr_core::PreparedTrainingData::split_target`).
    pub fn split_target(&self, target_attr: usize) -> (Vec<Vec<f64>>, Vec<f64>) {
        let mut xs = Vec::with_capacity(self.features.len());
        let mut ys = Vec::with_capacity(self.features.len());
        for row in &self.features {
            let mut x = Vec::with_capacity(row.len() - 1);
            for (k, &v) in row.iter().enumerate() {
                if k == target_attr {
                    ys.push(v);
                } else {
                    x.push(v);
                }
            }
            xs.push(x);
        }
        (xs, ys)
    }

    /// Information loss (Eq. 3) of this reduction w.r.t. the original grid:
    /// [`sr_grid::information_loss`] over a copy of the grid in which every
    /// valid cell carries its unit's [`representative`] by `agg_counts`
    /// (0.0 where no unit represents it), the core framework's convention.
    /// Lets experiments compare baseline loss against the re-partitioner's.
    pub fn information_loss(&self, grid: &GridDataset) -> f64 {
        let aggs = grid.agg_types();
        let mut reconstructed = grid.clone();
        for id in grid.valid_cells() {
            let unit = self.cell_to_unit[id as usize].map(|u| u as usize);
            for (k, &agg) in aggs.iter().enumerate() {
                let rep = unit
                    .map_or(0.0, |u| representative(self.features[u][k], agg, self.agg_counts[u]));
                reconstructed.set_value(id, k, rep);
            }
        }
        information_loss(grid, &reconstructed, IflOptions::default())
            .expect("a copy has the grid's shape")
    }
}

/// Aggregates the feature vectors of `member_cells` (valid cells only)
/// according to the grid's per-attribute aggregation types: `Sum` sums,
/// `Avg` averages. The plain mean — without the core framework's best-of
/// mean/mode refinement — matches how the baselines' own papers aggregate.
pub(crate) fn aggregate_members(grid: &GridDataset, member_cells: &[CellId]) -> Vec<f64> {
    let p = grid.num_attrs();
    let mut out = vec![0.0f64; p];
    let mut count = 0usize;
    for &c in member_cells {
        if !grid.is_valid(c) {
            continue;
        }
        count += 1;
        for (o, v) in out.iter_mut().zip(grid.features_unchecked(c)) {
            *o += v;
        }
    }
    if count == 0 {
        return out;
    }
    for (k, o) in out.iter_mut().enumerate() {
        match grid.agg_types()[k] {
            AggType::Sum => {}
            AggType::Avg => {
                *o /= count as f64;
                if grid.integer_attrs()[k] {
                    *o = o.round();
                }
            }
            AggType::Mode => {
                // Most frequent code among valid members.
                let mut counts: std::collections::HashMap<u64, usize> = Default::default();
                let mut best = (0usize, 0.0f64);
                for &c in member_cells {
                    if !grid.is_valid(c) {
                        continue;
                    }
                    let v = grid.value(c, k);
                    let e = counts.entry(v.to_bits()).or_insert(0);
                    *e += 1;
                    if *e > best.0 {
                        best = (*e, v);
                    }
                }
                *o = best.1;
            }
        }
    }
    out
}

/// Mean geographic centroid of a set of cells.
pub(crate) fn mean_centroid(grid: &GridDataset, member_cells: &[CellId]) -> (f64, f64) {
    let mut lat = 0.0;
    let mut lon = 0.0;
    for &c in member_cells {
        let (la, lo) = grid.cell_centroid(c);
        lat += la;
        lon += lo;
    }
    let n = member_cells.len().max(1) as f64;
    (lat / n, lon / n)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn aggregate_respects_agg_types() {
        use sr_grid::Bounds;
        let g = GridDataset::new(
            1,
            3,
            2,
            vec![1.0, 10.0, 2.0, 20.0, 3.0, 30.0],
            vec![true; 3],
            vec!["count".into(), "price".into()],
            vec![AggType::Sum, AggType::Avg],
            vec![false, false],
            Bounds::unit(),
        )
        .unwrap();
        let fv = aggregate_members(&g, &[0, 1, 2]);
        assert_eq!(fv, vec![6.0, 20.0]);
    }

    #[test]
    fn aggregate_skips_null_members() {
        let mut g = GridDataset::univariate(1, 3, vec![2.0, 4.0, 100.0]).unwrap();
        g.set_null(2);
        let fv = aggregate_members(&g, &[0, 1, 2]);
        assert_eq!(fv, vec![3.0]);
    }

    #[test]
    fn split_target_roundtrip() {
        let r = ReducedDataset {
            features: vec![vec![1.0, 2.0], vec![3.0, 4.0]],
            centroids: vec![(0.0, 0.0); 2],
            adjacency: AdjacencyList::from_neighbors(vec![vec![], vec![]]),
            cell_to_unit: vec![Some(0), Some(1)],
            unit_sizes: vec![1, 1],
            agg_counts: vec![1, 1],
        };
        let (xs, ys) = r.split_target(0);
        assert_eq!(ys, vec![1.0, 3.0]);
        assert_eq!(xs, vec![vec![2.0], vec![4.0]]);
    }

    #[test]
    fn information_loss_zero_for_identity_reduction() {
        let g = GridDataset::univariate(1, 2, vec![5.0, 9.0]).unwrap();
        let r = ReducedDataset {
            features: vec![vec![5.0], vec![9.0]],
            centroids: vec![g.cell_centroid(0), g.cell_centroid(1)],
            adjacency: AdjacencyList::from_neighbors(vec![vec![1], vec![0]]),
            cell_to_unit: vec![Some(0), Some(1)],
            unit_sizes: vec![1, 1],
            agg_counts: vec![1, 1],
        };
        assert_eq!(r.information_loss(&g), 0.0);
    }
}
