//! Incremental maintenance of the driver's scan inputs (dirty-region
//! re-partitioning, `docs/INGESTION.md`).
//!
//! The threshold walk reads four partition-independent inputs derived
//! from the grid: the normalized edge variations, the sorted distinct
//! variation thresholds, the valid-cell list (with its cell → position
//! index), and the Eq. 3 per-cell term cache. All four are *local*
//! functions of cell values (an edge depends on two cells; a term row on
//! one), so after a batch of cell updates they can be patched in place
//! instead of recomputed.
//!
//! `ScanCache` holds these inputs and keeps them **bit-identical** to what
//! a from-scratch build would compute on the updated grid:
//!
//! - Edges incident to dirty cells are re-evaluated by
//!   [`EdgeVariations::patch_cells`], which computes each with Eq. 1's
//!   scalar form — the function the scan equals bit for bit — on the two
//!   cells' values normalized on the fly; the cache keeps only the
//!   multiset delta.
//! - The variation heap's value multiset *is* the finite edge values:
//!   [`VariationHeap::from_grid_with`] collects its keys from the same
//!   [`EdgeVariations`] scan (a finite edge is a valid–valid adjacent
//!   pair). The sorted multiset is patched by removing each changed
//!   edge's old finite value and inserting its new one; thresholds are
//!   then regenerated with the dedup loop of
//!   [`VariationHeap::into_sorted_distinct`]. Equal multisets sort to
//!   bit-equal vectors, so the loop walks identical values and emits
//!   identical thresholds.
//! - Any change to a normalization denominator (`attr_max_abs`) or to the
//!   validity set falls back to rebuilding the affected structures
//!   outright: the former invalidates every edge (edges + threshold
//!   multiset are rebuilt; the cell list and term cache are kept — their
//!   rows depend on raw values and `zero_eps`, never on normalization),
//!   the latter shifts every cell position after the change (cell list,
//!   position index and term cache are rebuilt). Each fallback recomputes
//!   exactly what a fresh build computes for that structure, so
//!   correctness never depends on the guards being precise — only speed
//!   does.
//!
//! Every threshold walk reads its inputs from a `ScanCache`: a batch
//! [`Repartitioner::run`] builds one from scratch and walks it cold, and a
//! [`LocalizedState`] owns one next to its grid and patches it on every
//! [`LocalizedState::apply`] — equal inputs, equal partition bits.
//!
//! [`Repartitioner::run`]: crate::repartition::Repartitioner::run
//! [`LocalizedState`]: crate::localized::LocalizedState
//! [`LocalizedState::apply`]: crate::localized::LocalizedState::apply
//! [`VariationHeap::into_sorted_distinct`]: crate::heap::VariationHeap::into_sorted_distinct
//! [`VariationHeap::from_grid_with`]: crate::heap::VariationHeap::from_grid_with

use crate::heap::{finite_edges, push_distinct, sort_key, DEFAULT_DEDUP_EPS};
use crate::ifl::IflCellCache;
use sr_grid::{normalize_attributes, CellId, EdgeVariations, GridDataset, IflOptions};

/// Report of one [`LocalizedState::apply`] call — how much work the scan
/// patch actually did, for telemetry and for tests that pin the fast path.
///
/// [`LocalizedState::apply`]: crate::localized::LocalizedState::apply
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct ScanUpdate {
    /// Distinct dirty cells processed.
    pub dirty_cells: usize,
    /// Incident edges recomputed (0 when a rebuild path was taken).
    pub edges_recomputed: usize,
    /// Whether a normalization-denominator change forced the edge array and
    /// variation multiset to be rebuilt. The cell list and Eq. 3 term cache
    /// are *not* rebuilt for this alone — their rows depend on raw cell
    /// values, not on the normalization denominators.
    pub rebuilt_normalization: bool,
    /// Whether a validity change forced the cell list + term cache rebuild.
    pub rebuilt_cells: bool,
}

/// Incrementally maintained scan inputs of the re-partitioning driver (see
/// the module docs for the invariants).
#[derive(Debug, Clone)]
pub(crate) struct ScanCache {
    ifl_options: IflOptions,
    /// Per-attribute normalization denominators the cached edges were
    /// computed with; compared bit-for-bit on update.
    max_abs: Vec<f64>,
    edges: EdgeVariations,
    /// Multiset of all *finite* edge variations, ascending in the heap's
    /// total order (`sort_key`). Mirrors exactly what
    /// [`VariationHeap::from_grid_with`] would collect on the current grid.
    ///
    /// [`VariationHeap::from_grid_with`]: crate::heap::VariationHeap::from_grid_with
    raw: Vec<f64>,
    /// Valid cells, ascending (the order [`GridDataset::valid_cells`]
    /// yields).
    cells: Vec<CellId>,
    /// Flat cell index → position in `cells` (`u32::MAX` for invalid
    /// cells); rebuilt with `cells`.
    pos_of: Vec<u32>,
    ifl_cache: IflCellCache,
}

impl ScanCache {
    /// Builds the cache from scratch.
    pub(crate) fn build_with(grid: &GridDataset, opts: IflOptions, pool: &sr_par::Pool) -> Self {
        Self::from_normalized(grid, &normalize_attributes(grid), opts, pool)
    }

    /// [`ScanCache::build_with`] given `normalize_attributes(grid)`, which
    /// the batch driver computes under its own span.
    pub(crate) fn from_normalized(
        grid: &GridDataset,
        normalized: &GridDataset,
        opts: IflOptions,
        pool: &sr_par::Pool,
    ) -> Self {
        let (edges, raw) = rebuild_edges(normalized, pool);
        let cells: Vec<CellId> = grid.valid_cells().collect();
        let ifl_cache = IflCellCache::build(grid, &cells, opts);
        ScanCache {
            ifl_options: opts,
            max_abs: grid.attr_max_abs(),
            edges,
            raw,
            pos_of: position_index(grid.num_cells(), &cells),
            cells,
            ifl_cache,
        }
    }

    /// Patches the cache after `grid` changed in the `dirty` cells (values
    /// and/or validity). `grid` must already hold the new state, and
    /// `dirty` must be ascending and distinct, name only cells of `grid`,
    /// and cover every changed cell — which
    /// [`LocalizedState::apply`] guarantees, the only caller outside the
    /// tests. The in-place patch is serial; `pool` runs the rebuild
    /// fallbacks.
    ///
    /// [`LocalizedState::apply`]: crate::localized::LocalizedState::apply
    pub(crate) fn update(
        &mut self,
        grid: &GridDataset,
        dirty: &[CellId],
        pool: &sr_par::Pool,
    ) -> ScanUpdate {
        // Guard 2: validity changes shift every subsequent cell's position
        // in the valid-cell list, so the list and the position-indexed term
        // cache are rebuilt. (Edges still patch incrementally below — the
        // per-edge recompute reads validity itself.)
        let validity_changed =
            dirty.iter().any(|&id| (self.pos_of[id as usize] != u32::MAX) != grid.is_valid(id));

        // Guard 1: a normalization denominator moved — every edge value
        // changes, so patching the edge array is pointless and it is rebuilt
        // together with the finite-variation multiset. Bit comparison, not
        // epsilon: the cached edges are only valid for the exact denominators
        // they were computed with. The valid-cell list and the Eq. 3 term
        // cache are *kept*: term rows read raw cell values and `zero_eps`
        // only, never the normalization, so they fall through to the same
        // validity-gated patch as the incremental path below.
        let max_abs = grid.attr_max_abs();
        let denominators_moved =
            self.max_abs.iter().zip(&max_abs).any(|(a, b)| a.to_bits() != b.to_bits());
        let recomputed = if denominators_moved {
            self.max_abs = max_abs;
            let (edges, raw) = rebuild_edges(&normalize_attributes(grid), pool);
            self.edges = edges;
            self.raw = raw;
            0
        } else {
            let mut removals: Vec<f64> = Vec::new();
            let mut insertions: Vec<f64> = Vec::new();
            let recomputed = self.edges.patch_cells(grid, &self.max_abs, dirty, |old, new| {
                if old.is_finite() {
                    removals.push(old);
                }
                if new.is_finite() {
                    insertions.push(new);
                }
            });
            self.apply_multiset_delta(&mut removals, &mut insertions);
            recomputed
        };

        if validity_changed {
            self.cells.clear();
            self.cells.extend(grid.valid_cells());
            self.pos_of = position_index(grid.num_cells(), &self.cells);
            self.ifl_cache = IflCellCache::build(grid, &self.cells, self.ifl_options);
        } else {
            for &id in dirty {
                let pos = self.pos_of[id as usize];
                if pos != u32::MAX {
                    self.ifl_cache.update_row(grid, pos as usize, id, self.ifl_options);
                }
            }
        }

        ScanUpdate {
            dirty_cells: dirty.len(),
            edges_recomputed: recomputed,
            rebuilt_normalization: denominators_moved,
            rebuilt_cells: validity_changed,
        }
    }

    /// Single-pass rewrite of the sorted multiset: drop one occurrence per
    /// removal, splice every insertion at its ordered position. Equal keys
    /// hold identical bits, so which occurrence is dropped is immaterial.
    fn apply_multiset_delta(&mut self, removals: &mut [f64], insertions: &mut [f64]) {
        if removals.is_empty() && insertions.is_empty() {
            return;
        }
        removals.sort_unstable_by_key(|&v| sort_key(v));
        insertions.sort_unstable_by_key(|&v| sort_key(v));
        let mut out = Vec::with_capacity(self.raw.len() + insertions.len() - removals.len());
        let (mut ri, mut ii) = (0usize, 0usize);
        for &v in &self.raw {
            let k = sort_key(v);
            if ri < removals.len() && sort_key(removals[ri]) == k {
                ri += 1;
                continue;
            }
            while ii < insertions.len() && sort_key(insertions[ii]) < k {
                out.push(insertions[ii]);
                ii += 1;
            }
            out.push(v);
        }
        debug_assert_eq!(ri, removals.len(), "removed edge value missing from multiset");
        out.extend_from_slice(&insertions[ii..]);
        self.raw = out;
    }

    /// Regenerates the ascending distinct thresholds into `out` (cleared
    /// first) with the dedup loop of
    /// [`VariationHeap::into_sorted_distinct`], so an equal multiset
    /// yields bit-equal thresholds.
    ///
    /// `raw` is already maintained in the heap's total order, and the
    /// heap's lazy sort round-trips every finite value bitwise through the
    /// `sort_key` bijection — so the heap would walk exactly this
    /// sequence. Deduping directly skips re-sorting a couple hundred
    /// thousand values on every run (the `thresholds_match_variation_heap`
    /// test pins the bit equality against a from-scratch heap).
    ///
    /// [`VariationHeap::into_sorted_distinct`]: crate::heap::VariationHeap::into_sorted_distinct
    pub(crate) fn sorted_distinct_thresholds_into(&self, out: &mut Vec<f64>) {
        out.clear();
        out.reserve(self.raw.len());
        push_distinct(&self.raw, f64::NEG_INFINITY, DEFAULT_DEDUP_EPS, out);
    }

    /// The maintained edge variations.
    pub(crate) fn edges(&self) -> &EdgeVariations {
        &self.edges
    }

    /// The maintained valid-cell list (ascending).
    pub(crate) fn cells(&self) -> &[CellId] {
        &self.cells
    }

    /// Flat cell index → position in [`ScanCache::cells`] (`u32::MAX` for
    /// invalid cells).
    pub(crate) fn pos_of(&self) -> &[u32] {
        &self.pos_of
    }

    /// The maintained Eq. 3 term cache.
    pub(crate) fn ifl_cache(&self) -> &IflCellCache {
        &self.ifl_cache
    }

    /// The IFL options the term cache was built with.
    pub(crate) fn ifl_options(&self) -> IflOptions {
        self.ifl_options
    }
}

/// Recomputes the full edge array and the sorted finite-variation multiset
/// of a normalized grid from scratch — exactly what
/// [`ScanCache::build_with`] computes, shared with the denominator-move
/// path of [`ScanCache::update`].
fn rebuild_edges(normalized: &GridDataset, pool: &sr_par::Pool) -> (EdgeVariations, Vec<f64>) {
    let edges = EdgeVariations::build_with(normalized, pool);
    let mut raw = finite_edges(&edges);
    raw.sort_unstable_by_key(|&v| sort_key(v));
    (edges, raw)
}

/// The cell → position index of an ascending valid-cell list over an
/// `n`-cell grid.
fn position_index(n: usize, cells: &[CellId]) -> Vec<u32> {
    let mut pos_of = vec![u32::MAX; n];
    for (i, &id) in cells.iter().enumerate() {
        pos_of[id as usize] = i as u32;
    }
    pos_of
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use crate::heap::VariationHeap;
    use crate::localized::WalkCaches;
    use crate::repartition::{RepartitionOutcome, Repartitioner};
    use rand::{rngs::SmallRng, Rng, SeedableRng};

    fn random_grid(rows: usize, cols: usize, seed: u64) -> GridDataset {
        let mut rng = SmallRng::seed_from_u64(seed);
        let vals: Vec<f64> = (0..rows * cols)
            .map(|i| 100.0 + (i / cols) as f64 + rng.gen_range(-2.0..2.0))
            .collect();
        let mut g = GridDataset::univariate(rows, cols, vals).unwrap();
        // Pin the normalization denominator so value edits below stay under
        // it and exercise the incremental path, not the rebuild guard.
        g.set_value(0, 0, 200.0);
        g
    }

    fn build(grid: &GridDataset, opts: IflOptions) -> ScanCache {
        ScanCache::build_with(grid, opts, sr_par::Pool::global())
    }

    /// [`ScanCache::update`] over a dirty list in the form
    /// `LocalizedState::apply` hands it: ascending and distinct.
    fn update(cache: &mut ScanCache, grid: &GridDataset, dirty: &[CellId]) -> ScanUpdate {
        let mut sorted = dirty.to_vec();
        sorted.sort_unstable();
        sorted.dedup();
        cache.update(grid, &sorted, sr_par::Pool::global())
    }

    fn thresholds(cache: &ScanCache) -> Vec<f64> {
        let mut out = Vec::new();
        cache.sorted_distinct_thresholds_into(&mut out);
        out
    }

    /// A cold walk (fresh caches, no dirt) over `cache` — the batch
    /// driver's walk, over the given scan inputs instead of a fresh build.
    fn cold_walk(
        driver: &Repartitioner,
        grid: &GridDataset,
        cache: &ScanCache,
    ) -> RepartitionOutcome {
        let mut caches = WalkCaches::default();
        caches.begin_run(cache);
        let pool = sr_par::Pool::global();
        driver.walk_localized(grid, cache, &mut caches, &[], None, pool).0
    }

    /// Asserts that `cache` holds exactly what a fresh build on `grid`
    /// holds.
    pub(crate) fn assert_cache_fresh(cache: &ScanCache, grid: &GridDataset) {
        let fresh = build(grid, cache.ifl_options());
        assert_eq!(cache.cells, fresh.cells);
        assert_eq!(cache.pos_of, fresh.pos_of);
        let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        assert_eq!(bits(cache.edges.h()), bits(fresh.edges.h()), "h edges diverged");
        assert_eq!(bits(cache.edges.v()), bits(fresh.edges.v()), "v edges diverged");
        assert_eq!(bits(&cache.raw), bits(&fresh.raw), "variation multiset diverged");
        assert_eq!(bits(&thresholds(cache)), bits(&thresholds(&fresh)));
    }

    #[test]
    fn value_updates_patch_to_fresh_build() {
        let mut g = random_grid(10, 12, 1);
        let mut cache = build(&g, IflOptions::default());
        let mut rng = SmallRng::seed_from_u64(2);
        for round in 0..8 {
            let dirty: Vec<CellId> =
                (0..5).map(|_| rng.gen_range(0..g.num_cells()) as CellId).collect();
            for &id in &dirty {
                g.set_value(id, 0, 80.0 + rng.gen_range(0.0..40.0));
            }
            let report = update(&mut cache, &g, &dirty);
            assert!(!report.rebuilt_normalization, "round {round} hit the rebuild guard");
            assert!(report.edges_recomputed > 0);
            assert_cache_fresh(&cache, &g);
        }
    }

    #[test]
    fn validity_flips_rebuild_cells_but_patch_edges() {
        let mut g = random_grid(8, 8, 3);
        let mut cache = build(&g, IflOptions::default());
        g.set_null(27);
        let report = update(&mut cache, &g, &[27]);
        assert!(report.rebuilt_cells);
        assert!(!report.rebuilt_normalization);
        assert_cache_fresh(&cache, &g);
        g.set_value(27, 0, 105.0);
        g.set_valid(27);
        let report = update(&mut cache, &g, &[27]);
        assert!(report.rebuilt_cells);
        assert_cache_fresh(&cache, &g);
    }

    #[test]
    fn denominator_move_rebuilds_edges_but_keeps_cells() {
        let mut g = random_grid(6, 6, 4);
        let mut cache = build(&g, IflOptions::default());
        g.set_value(10, 0, 1e6);
        let report = update(&mut cache, &g, &[10]);
        assert!(report.rebuilt_normalization);
        // A magnitude bump alone must not rebuild the cell list or the term
        // cache: their rows read raw values, not normalized ones.
        assert!(!report.rebuilt_cells);
        assert_eq!(report.edges_recomputed, 0);
        assert_cache_fresh(&cache, &g);

        // The term cache must still be correct end to end — walk the
        // patched cache cold against a from-scratch batch run on the
        // bumped grid.
        let driver = Repartitioner::new(0.08).unwrap();
        let inc = cold_walk(&driver, &g, &cache);
        let full = driver.run_with_pool(&g, sr_par::Pool::global()).unwrap();
        assert_eq!(inc.repartitioned.ifl().to_bits(), full.repartitioned.ifl().to_bits());
        assert_eq!(
            inc.repartitioned.partition().cell_to_group(),
            full.repartitioned.partition().cell_to_group()
        );
    }

    #[test]
    fn denominator_move_with_validity_flip_rebuilds_both() {
        let mut g = random_grid(6, 6, 9);
        let mut cache = build(&g, IflOptions::default());
        g.set_value(10, 0, 1e6);
        g.set_null(20);
        let report = update(&mut cache, &g, &[10, 20]);
        assert!(report.rebuilt_normalization);
        assert!(report.rebuilt_cells);
        assert_cache_fresh(&cache, &g);
    }

    /// A cold walk (fresh caches) over the patched cache must reproduce a
    /// batch run, which builds its cache from scratch.
    #[test]
    fn cold_localized_walk_over_patched_cache_matches_batch_run() {
        let mut g = random_grid(12, 12, 5);
        let mut cache = build(&g, IflOptions::default());
        let mut rng = SmallRng::seed_from_u64(6);
        let driver = Repartitioner::new(0.08).unwrap();
        for _ in 0..4 {
            let dirty: Vec<CellId> =
                (0..7).map(|_| rng.gen_range(0..g.num_cells()) as CellId).collect();
            for &id in &dirty {
                g.set_value(id, 0, 90.0 + rng.gen_range(0.0..20.0));
            }
            update(&mut cache, &g, &dirty);
            let inc = cold_walk(&driver, &g, &cache);
            let full = driver.run_with_pool(&g, sr_par::Pool::global()).unwrap();
            assert_eq!(
                inc.repartitioned.partition().cell_to_group(),
                full.repartitioned.partition().cell_to_group()
            );
            assert_eq!(inc.repartitioned.ifl().to_bits(), full.repartitioned.ifl().to_bits());
        }
    }

    #[test]
    fn thresholds_match_variation_heap() {
        let mut g = random_grid(10, 14, 8);
        let mut cache = build(&g, IflOptions::default());
        let mut rng = SmallRng::seed_from_u64(11);
        for _ in 0..4 {
            let dirty: Vec<CellId> =
                (0..6).map(|_| rng.gen_range(0..g.num_cells()) as CellId).collect();
            for &id in &dirty {
                g.set_value(id, 0, 80.0 + rng.gen_range(0.0..40.0));
            }
            update(&mut cache, &g, &dirty);
            let direct = thresholds(&cache);
            // A from-scratch scan of the updated grid: a fresh edge scan,
            // the heap's own sort, and its dedup.
            let heap = VariationHeap::from_grid(&normalize_attributes(&g)).into_sorted_distinct();
            let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
            assert_eq!(bits(&direct), bits(&heap), "patched thresholds diverged from a fresh heap");
        }
    }
}
