//! The min-adjacent-variation heap (§III-A1).
//!
//! The framework pre-computes the variations between all adjacent cell pairs
//! of the *attribute-normalized* input exactly once and consumes them in
//! ascending order to obtain each re-partitioning iteration's
//! `minAdjacentVariation`. Popping *distinct* values keeps each iteration's
//! partition strictly coarser-or-equal: equal keys would reproduce the same
//! partition and waste a full extraction pass (the paper's Example 2 steps
//! from the least to the "second-least" variation, i.e. it also advances by
//! distinct values).
//!
//! Internally this is no longer a binary heap: every consumer drains the
//! structure in ascending order, so it stores the raw values and sorts them
//! once, lazily, on first use. Finite f64 keys sort branch-free through the
//! sign-flip bijection into `u64` (the `total_cmp` order), which is
//! substantially faster than a comparison sort with an f64 comparator and
//! identical on the finite, non-negative variation keys.
//!
//! The keys come from sr-grid's [`EdgeVariations`] scan, the one Eq. 1
//! implementation the threshold walk also reads: its finite edges are
//! exactly the valid–valid adjacent pairs. The driver's `ScanCache`
//! collects the same finite edges (`finite_edges`) and dedups them with
//! the same loop (`push_distinct`) as [`VariationHeap::into_sorted_distinct`].

use sr_grid::{EdgeVariations, GridDataset};

/// Min-heap (API-wise) over adjacent-pair variations; physically a lazily
/// sorted vector with a consume cursor.
#[derive(Debug, Clone)]
pub struct VariationHeap {
    /// The variation keys; ascending once `sorted` is set.
    values: Vec<f64>,
    /// Next unconsumed index (everything before it has been popped).
    cursor: usize,
    sorted: bool,
    /// Two popped values closer than this are considered the same threshold.
    dedup_eps: f64,
    last_popped: Option<f64>,
}

/// Default tolerance for treating two variation keys as equal.
pub const DEFAULT_DEDUP_EPS: f64 = 1e-12;

/// Monotone bijection from finite f64 to u64: preserves `total_cmp` order,
/// which equals the numeric order for the finite keys stored here. Shared
/// with the incremental scan cache, whose sorted variation multiset must
/// use the exact same total order as [`VariationHeap::into_sorted_distinct`].
#[inline]
pub(crate) fn sort_key(v: f64) -> u64 {
    let bits = v.to_bits();
    if bits >> 63 == 0 {
        bits ^ (1u64 << 63)
    } else {
        !bits
    }
}

/// The finite edges of `edges` — one per valid–valid adjacent pair, the
/// heap's key multiset — in array order (right edges, then down edges).
pub(crate) fn finite_edges(edges: &EdgeVariations) -> Vec<f64> {
    edges.h().iter().chain(edges.v()).copied().filter(|v| v.is_finite()).collect()
}

/// The dedup chain of the threshold list: appends to `out` each value of
/// the ascending `sorted` that lies more than `eps` above the last value
/// kept, starting from `last` (`-∞` keeps the first value).
pub(crate) fn push_distinct(sorted: &[f64], mut last: f64, eps: f64, out: &mut Vec<f64>) {
    for &v in sorted {
        if (v - last).abs() <= eps {
            continue;
        }
        last = v;
        out.push(v);
    }
}

/// Inverse of [`sort_key`].
#[inline]
fn key_value(k: u64) -> f64 {
    let bits = if k >> 63 != 0 { k ^ (1u64 << 63) } else { !k };
    f64::from_bits(bits)
}

impl VariationHeap {
    /// Builds the heap from a grid: the finite edges of
    /// [`EdgeVariations::build`]. Callers following the paper's pipeline
    /// pass the *normalized* grid (see [`sr_grid::normalize_attributes`]).
    /// The variation scan runs on [`sr_par::Pool::global`].
    pub fn from_grid(normalized: &GridDataset) -> Self {
        Self::from_grid_with(normalized, sr_par::Pool::global())
    }

    /// [`VariationHeap::from_grid`] on an explicit pool.
    pub fn from_grid_with(normalized: &GridDataset, pool: &sr_par::Pool) -> Self {
        Self::from_values(finite_edges(&EdgeVariations::build_with(normalized, pool)))
    }

    /// Builds a heap directly from raw variation values (tests, ablations).
    pub fn from_values(values: impl IntoIterator<Item = f64>) -> Self {
        VariationHeap {
            values: values.into_iter().collect(),
            cursor: 0,
            sorted: false,
            dedup_eps: DEFAULT_DEDUP_EPS,
            last_popped: None,
        }
    }

    /// Overrides the dedup tolerance.
    pub fn with_dedup_eps(mut self, eps: f64) -> Self {
        self.dedup_eps = eps;
        self
    }

    /// Remaining entries (duplicates included).
    pub fn len(&self) -> usize {
        self.values.len() - self.cursor
    }

    /// Whether the heap is exhausted.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Sorts the key array ascending (once): map to order-preserving u64
    /// keys, integer-sort, map back.
    fn ensure_sorted(&mut self) {
        if self.sorted {
            return;
        }
        let mut keys: Vec<u64> = self.values.iter().map(|&v| sort_key(v)).collect();
        keys.sort_unstable();
        for (v, k) in self.values.iter_mut().zip(keys) {
            *v = key_value(k);
        }
        self.sorted = true;
    }

    /// Pops the next *distinct* min-adjacent variation: skips keys within
    /// `dedup_eps` of the previously returned value. Returns `None` when
    /// exhausted.
    pub fn pop_next_distinct(&mut self) -> Option<f64> {
        self.ensure_sorted();
        while self.cursor < self.values.len() {
            let v = self.values[self.cursor];
            self.cursor += 1;
            match self.last_popped {
                Some(prev) if (v - prev).abs() <= self.dedup_eps => continue,
                _ => {
                    self.last_popped = Some(v);
                    return Some(v);
                }
            }
        }
        None
    }

    /// Drains the heap into an ascending, deduplicated vector of thresholds —
    /// the list strided walks and binary-search backoff index into. The
    /// driver's `ScanCache` regenerates the same list with the same dedup
    /// loop from its maintained multiset.
    ///
    /// The dedup semantics match [`pop_next_distinct`] (each kept value is
    /// more than `dedup_eps` above the previous one, starting from the last
    /// value already popped, if any).
    ///
    /// [`pop_next_distinct`]: VariationHeap::pop_next_distinct
    pub fn into_sorted_distinct(mut self) -> Vec<f64> {
        self.ensure_sorted();
        let mut out = Vec::with_capacity(self.len());
        let last = self.last_popped.unwrap_or(f64::NEG_INFINITY);
        push_distinct(&self.values[self.cursor..], last, self.dedup_eps, &mut out);
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sr_grid::normalize_attributes;

    #[test]
    fn pops_in_ascending_distinct_order() {
        let mut h = VariationHeap::from_values([0.3, 0.1, 0.1, 0.2, 0.3, 0.0]);
        assert_eq!(h.pop_next_distinct(), Some(0.0));
        assert_eq!(h.pop_next_distinct(), Some(0.1));
        assert_eq!(h.pop_next_distinct(), Some(0.2));
        assert_eq!(h.pop_next_distinct(), Some(0.3));
        assert_eq!(h.pop_next_distinct(), None);
    }

    #[test]
    fn dedup_eps_merges_near_ties() {
        let mut h = VariationHeap::from_values([0.1, 0.1 + 1e-15, 0.2]).with_dedup_eps(1e-12);
        assert_eq!(h.pop_next_distinct(), Some(0.1));
        assert_eq!(h.pop_next_distinct(), Some(0.2));
    }

    #[test]
    fn from_grid_matches_paper_example2() {
        // Paper Example 2 (Fig. 1 input): the least variation is 0 and the
        // second-least is 0.02857143 = 1/35 (difference of 1 between
        // neighbors, normalized by the grid max of 35).
        // Reconstruct a compatible grid: max value 35, one pair of equal
        // neighbors, one pair differing by exactly 1.
        let g = sr_grid::GridDataset::univariate(1, 4, vec![22.0, 22.0, 23.0, 35.0]).unwrap();
        let norm = normalize_attributes(&g);
        let mut h = VariationHeap::from_grid(&norm);
        let first = h.pop_next_distinct().unwrap();
        let second = h.pop_next_distinct().unwrap();
        assert_eq!(first, 0.0);
        assert!((second - 1.0 / 35.0).abs() < 1e-9, "second = {second}");
    }

    #[test]
    fn into_sorted_distinct() {
        let h = VariationHeap::from_values([0.5, 0.25, 0.5, 0.75, 0.25]);
        assert_eq!(h.into_sorted_distinct(), vec![0.25, 0.5, 0.75]);
    }

    #[test]
    fn len_tracks_consumed_entries() {
        let mut h = VariationHeap::from_values([0.2, 0.1, 0.1]);
        assert_eq!(h.len(), 3);
        assert_eq!(h.pop_next_distinct(), Some(0.1));
        assert_eq!(h.len(), 2);
        // The duplicate 0.1 is consumed while skipping to 0.2.
        assert_eq!(h.pop_next_distinct(), Some(0.2));
        assert!(h.is_empty());
    }

    #[test]
    fn into_sorted_distinct_honors_last_popped() {
        let mut h = VariationHeap::from_values([0.1, 0.1, 0.2, 0.3]);
        assert_eq!(h.pop_next_distinct(), Some(0.1));
        // The remaining duplicate of the popped value is deduplicated away.
        assert_eq!(h.into_sorted_distinct(), vec![0.2, 0.3]);
    }

    #[test]
    fn sort_key_bijection_preserves_order() {
        let vals = [0.0, 1e-300, 1e-12, 0.5, 1.0, 1e300, -0.5, -1e-300];
        for &a in &vals {
            assert_eq!(key_value(sort_key(a)).to_bits(), a.to_bits());
            for &b in &vals {
                assert_eq!(sort_key(a) < sort_key(b), a < b, "{a} vs {b}");
            }
        }
    }

    #[test]
    fn empty_grid_pairs_yield_empty_heap() {
        let mut g = sr_grid::GridDataset::univariate(1, 2, vec![1.0, 2.0]).unwrap();
        g.set_null(0);
        g.set_null(1);
        let mut h = VariationHeap::from_grid(&g);
        assert!(h.is_empty());
        assert_eq!(h.pop_next_distinct(), None);
    }
}
