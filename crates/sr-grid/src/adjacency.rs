//! Adjacency lists with binary weights (paper §III-B).
//!
//! PySAL-style spatial weights reduce to "a neighbors list and a weight per
//! neighbor"; the paper uses binary weights throughout (Table I: weight =
//! `adjacency_list`, adjacency_type = `Binary`). [`AdjacencyList`] is the
//! shared representation used for raw grid cells, re-partitioned cell-groups
//! (built by `sr-core::group_adjacency`), and the spatial lag / error models.

use crate::dataset::{CellId, GridDataset};

/// Binary-weight adjacency over `n` units, stored as compressed sparse
/// rows (CSR).
///
/// Unit `i`'s neighbors are `ids[offsets[i]..offsets[i + 1]]`; the implied
/// weight of each listed neighbor is 1 (0 otherwise). Two flat arrays
/// instead of one vector per unit: building, cloning and dropping a list
/// costs two allocations whatever `n` is, and the layout is the one the
/// `sr-snap v2` adjacency section stores.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AdjacencyList {
    /// `n + 1` monotone offsets into `ids`, starting at 0.
    offsets: Vec<u32>,
    /// Every unit's neighbor ids, unit after unit.
    ids: Vec<u32>,
}

impl Default for AdjacencyList {
    fn default() -> Self {
        AdjacencyList { offsets: vec![0], ids: Vec::new() }
    }
}

impl AdjacencyList {
    /// Creates an adjacency list from pre-built neighbor vectors.
    pub fn from_neighbors(neighbors: Vec<Vec<u32>>) -> Self {
        let total: usize = neighbors.iter().map(Vec::len).sum();
        let mut offsets = Vec::with_capacity(neighbors.len() + 1);
        let mut ids = Vec::with_capacity(total);
        offsets.push(0);
        for ns in &neighbors {
            ids.extend_from_slice(ns);
            offsets.push(csr_offset(ids.len()));
        }
        AdjacencyList { offsets, ids }
    }

    /// Creates an adjacency list from its CSR arrays: unit `i`'s neighbors
    /// are `ids[offsets[i]..offsets[i + 1]]`.
    ///
    /// # Panics
    ///
    /// When `offsets` is empty, does not start at 0, decreases, or does
    /// not end at `ids.len()`.
    pub fn from_csr(offsets: Vec<u32>, ids: Vec<u32>) -> Self {
        assert!(offsets.first() == Some(&0), "CSR offsets must start at 0");
        assert!(offsets.windows(2).all(|w| w[0] <= w[1]), "CSR offsets must be monotone");
        assert!(
            offsets.last() == Some(&csr_offset(ids.len())),
            "CSR offsets must end at ids.len()"
        );
        AdjacencyList { offsets, ids }
    }

    /// Rook adjacency (shared edges) over the *valid* cells of a grid.
    /// Null cells get empty neighbor lists and never appear as neighbors.
    pub fn rook_from_grid(grid: &GridDataset) -> Self {
        let rows = grid.rows();
        let cols = grid.cols();
        let mut offsets = Vec::with_capacity(rows * cols + 1);
        let mut ids = Vec::with_capacity(4 * grid.num_valid_cells());
        offsets.push(0);
        for r in 0..rows {
            for c in 0..cols {
                let id = grid.cell_id(r, c);
                if grid.is_valid(id) {
                    let mut push = |nid: CellId| {
                        if grid.is_valid(nid) {
                            ids.push(nid);
                        }
                    };
                    if r > 0 {
                        push(grid.cell_id(r - 1, c));
                    }
                    if r + 1 < rows {
                        push(grid.cell_id(r + 1, c));
                    }
                    if c > 0 {
                        push(grid.cell_id(r, c - 1));
                    }
                    if c + 1 < cols {
                        push(grid.cell_id(r, c + 1));
                    }
                }
                offsets.push(csr_offset(ids.len()));
            }
        }
        AdjacencyList { offsets, ids }
    }

    /// Number of units.
    pub fn len(&self) -> usize {
        self.offsets.len() - 1
    }

    /// Whether there are no units at all.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Neighbors of unit `i`.
    #[inline]
    pub fn neighbors(&self, i: u32) -> &[u32] {
        let i = i as usize;
        &self.ids[self.offsets[i] as usize..self.offsets[i + 1] as usize]
    }

    /// Degree (neighbor count) of unit `i`.
    #[inline]
    pub fn degree(&self, i: u32) -> usize {
        let i = i as usize;
        (self.offsets[i + 1] - self.offsets[i]) as usize
    }

    /// The CSR offsets: `len() + 1` monotone values starting at 0.
    pub fn offsets(&self) -> &[u32] {
        &self.offsets
    }

    /// Every unit's neighbor ids, unit after unit (the CSR id array).
    pub fn neighbor_ids(&self) -> &[u32] {
        &self.ids
    }

    /// Iterates the neighbor lists in unit order.
    fn lists(&self) -> impl Iterator<Item = &[u32]> + '_ {
        self.offsets.windows(2).map(|w| &self.ids[w[0] as usize..w[1] as usize])
    }

    /// Total number of directed edges (Σ degrees). For a symmetric list this
    /// is twice the undirected edge count, and equals `Σᵢ Σⱼ wᵢⱼ` in Eq. (4).
    pub fn total_weight(&self) -> f64 {
        self.ids.len() as f64
    }

    /// Checks that the relation is symmetric (i ∈ N(j) ⇔ j ∈ N(i)).
    pub fn is_symmetric(&self) -> bool {
        for (i, ns) in self.lists().enumerate() {
            for &j in ns {
                if !self.neighbors(j).contains(&(i as u32)) {
                    return false;
                }
            }
        }
        true
    }

    /// Row-standardized spatial lag of `x`: `(W x)ᵢ = mean of x over N(i)`.
    /// Units with no neighbors get 0. `x` must have one entry per unit.
    ///
    /// Row standardization is the convention the lag/error estimators use;
    /// with binary weights it is the neighbor mean.
    pub fn spatial_lag(&self, x: &[f64]) -> Vec<f64> {
        assert_eq!(x.len(), self.len(), "spatial_lag: length mismatch");
        self.lists()
            .map(|ns| {
                if ns.is_empty() {
                    0.0
                } else {
                    ns.iter().map(|&j| x[j as usize]).sum::<f64>() / ns.len() as f64
                }
            })
            .collect()
    }

    /// Unstandardized binary lag: `(W x)ᵢ = Σ_{j ∈ N(i)} xⱼ`.
    pub fn binary_lag(&self, x: &[f64]) -> Vec<f64> {
        assert_eq!(x.len(), self.len(), "binary_lag: length mismatch");
        self.lists().map(|ns| ns.iter().map(|&j| x[j as usize]).sum::<f64>()).collect()
    }

    /// Restricts the adjacency to a subset of units given by `keep` (one
    /// flag per unit), remapping ids to the compacted index space. Used when
    /// training on the valid-cell subset of a grid.
    pub fn restrict(&self, keep: &[bool]) -> AdjacencyList {
        assert_eq!(keep.len(), self.len(), "restrict: mask length mismatch");
        let mut remap = vec![u32::MAX; keep.len()];
        let mut next = 0u32;
        for (i, &k) in keep.iter().enumerate() {
            if k {
                remap[i] = next;
                next += 1;
            }
        }
        let mut offsets = Vec::with_capacity(next as usize + 1);
        let mut ids = Vec::new();
        offsets.push(0);
        for (ns, &k) in self.lists().zip(keep) {
            if k {
                ids.extend(ns.iter().map(|&j| remap[j as usize]).filter(|&m| m != u32::MAX));
                offsets.push(csr_offset(ids.len()));
            }
        }
        AdjacencyList { offsets, ids }
    }
}

/// A neighbor-id count as a CSR offset. Offsets are `u32`, like the ids
/// and the v2 snapshot section they are stored in.
fn csr_offset(n: usize) -> u32 {
    u32::try_from(n).expect("adjacency exceeds u32::MAX neighbor ids")
}

#[cfg(test)]
mod tests {
    use super::*;

    fn grid_2x3() -> GridDataset {
        GridDataset::univariate(2, 3, vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0]).unwrap()
    }

    #[test]
    fn rook_adjacency_of_full_grid() {
        let g = grid_2x3();
        let adj = AdjacencyList::rook_from_grid(&g);
        // Corner (0,0)=id0: right id1, down id3.
        let mut n0 = adj.neighbors(0).to_vec();
        n0.sort_unstable();
        assert_eq!(n0, vec![1, 3]);
        // Middle (0,1)=id1: up none, down id4, left id0, right id2.
        let mut n1 = adj.neighbors(1).to_vec();
        n1.sort_unstable();
        assert_eq!(n1, vec![0, 2, 4]);
        assert!(adj.is_symmetric());
        // 2x3 grid: 7 undirected edges => total weight 14.
        assert_eq!(adj.total_weight(), 14.0);
    }

    #[test]
    fn null_cells_are_isolated() {
        let mut g = grid_2x3();
        g.set_null(1);
        let adj = AdjacencyList::rook_from_grid(&g);
        assert_eq!(adj.degree(1), 0);
        assert!(!adj.neighbors(0).contains(&1));
        assert!(!adj.neighbors(2).contains(&1));
        assert!(adj.is_symmetric());
    }

    #[test]
    fn spatial_lag_is_neighbor_mean() {
        let g = grid_2x3();
        let adj = AdjacencyList::rook_from_grid(&g);
        let x = vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0];
        let lag = adj.spatial_lag(&x);
        // Cell 0 neighbors {1,3}: mean 3.0
        assert_eq!(lag[0], 3.0);
        // Cell 4 neighbors {1,3,5}: mean 4.0
        assert_eq!(lag[4], 4.0);
    }

    #[test]
    fn binary_lag_sums_neighbors() {
        let g = grid_2x3();
        let adj = AdjacencyList::rook_from_grid(&g);
        let x = vec![1.0; 6];
        let lag = adj.binary_lag(&x);
        assert_eq!(lag[0], 2.0);
        assert_eq!(lag[4], 3.0);
    }

    #[test]
    fn lag_of_isolated_unit_is_zero() {
        let adj = AdjacencyList::from_neighbors(vec![vec![], vec![]]);
        assert_eq!(adj.spatial_lag(&[5.0, 7.0]), vec![0.0, 0.0]);
    }

    #[test]
    fn csr_and_nested_constructors_agree() {
        let nested = AdjacencyList::from_neighbors(vec![vec![1, 2], vec![], vec![0]]);
        let csr = AdjacencyList::from_csr(vec![0, 2, 2, 3], vec![1, 2, 0]);
        assert_eq!(nested, csr);
        assert_eq!((csr.offsets(), csr.neighbor_ids()), (&[0, 2, 2, 3][..], &[1, 2, 0][..]));
        assert_eq!((csr.len(), csr.degree(1), csr.neighbors(2)), (3, 0, &[0][..]));
        let empty = AdjacencyList::default();
        assert!(empty.is_empty());
        assert_eq!(empty, AdjacencyList::from_neighbors(Vec::new()));
    }

    #[test]
    #[should_panic(expected = "CSR offsets must end at ids.len()")]
    fn csr_offsets_must_cover_the_ids() {
        AdjacencyList::from_csr(vec![0, 1], vec![4, 5]);
    }

    #[test]
    fn restrict_remaps_ids() {
        let g = grid_2x3();
        let adj = AdjacencyList::rook_from_grid(&g);
        // Keep cells 0,1,2 (top row) only.
        let keep = vec![true, true, true, false, false, false];
        let r = adj.restrict(&keep);
        assert_eq!(r.len(), 3);
        assert_eq!(r.neighbors(0), &[1]);
        let mut n1 = r.neighbors(1).to_vec();
        n1.sort_unstable();
        assert_eq!(n1, vec![0, 2]);
        assert!(r.is_symmetric());
    }
}
