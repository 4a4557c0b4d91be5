//! Incremental maintenance of the driver's scan inputs (dirty-region
//! re-partitioning, `docs/INGESTION.md`).
//!
//! The threshold walk reads four partition-independent inputs derived
//! from the grid: the normalized edge variations, the sorted distinct
//! variation thresholds, the valid-cell list, and the Eq. 3 per-cell term
//! cache. All four are *local* functions of cell values (an edge depends
//! on two cells; a term row on one), so after a batch of cell updates they
//! can be patched in place instead of recomputed.
//!
//! [`ScanCache`] holds these four inputs and keeps them **bit-identical**
//! to what a from-scratch run would compute on the updated grid:
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
//!   the latter shifts every cell position after the change (cell list +
//!   term cache are rebuilt). Each fallback recomputes exactly what
//!   [`ScanCache::build`] computes for that structure, so correctness never
//!   depends on the guards being precise — only speed does.
//!
//! Every threshold walk reads its inputs from a `ScanCache`: a batch
//! [`Repartitioner::run`] builds one from scratch and walks it cold, and
//! [`Repartitioner::run_localized`] walks a maintained one — equal inputs,
//! equal partition bits.
//!
//! [`Repartitioner::run`]: crate::repartition::Repartitioner::run
//! [`Repartitioner::run_localized`]: crate::repartition::Repartitioner::run_localized
//! [`VariationHeap::into_sorted_distinct`]: crate::heap::VariationHeap::into_sorted_distinct
//! [`VariationHeap::from_grid_with`]: crate::heap::VariationHeap::from_grid_with

use crate::heap::{finite_edges, push_distinct, sort_key, DEFAULT_DEDUP_EPS};
use crate::ifl::IflCellCache;
use crate::{CoreError, Result};
use sr_grid::{normalize_attributes, CellId, EdgeVariations, GridDataset, GridError, IflOptions};

/// Report of one [`ScanCache::update`] call — how much work the patch
/// actually did, for telemetry and for tests that pin the fast path.
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
pub struct ScanCache {
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
    /// Bumped whenever `cells` is rebuilt (validity changed); lets callers
    /// cache structures derived from the cell list across updates.
    cells_generation: u64,
    ifl_cache: IflCellCache,
}

impl ScanCache {
    /// Builds the cache from scratch on [`sr_par::Pool::global`].
    pub fn build(grid: &GridDataset, opts: IflOptions) -> Self {
        Self::build_with(grid, opts, sr_par::Pool::global())
    }

    /// [`ScanCache::build`] on an explicit pool.
    pub fn build_with(grid: &GridDataset, opts: IflOptions, pool: &sr_par::Pool) -> Self {
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
            cells,
            cells_generation: 0,
            ifl_cache,
        }
    }

    /// Patches the cache after `grid` changed in the listed cells (values
    /// and/or validity), on [`sr_par::Pool::global`]. `grid` must already
    /// hold the new state; `dirty` may contain duplicates and need not be
    /// sorted, but must cover every changed cell — a missed cell silently
    /// desynchronizes the cache. An id outside the grid is an error, and
    /// the cache is left untouched.
    pub fn update(&mut self, grid: &GridDataset, dirty: &[CellId]) -> Result<ScanUpdate> {
        self.update_with(grid, dirty, sr_par::Pool::global())
    }

    /// [`ScanCache::update`] on an explicit pool (used by the rebuild
    /// fallbacks; the in-place patch itself is serial).
    pub fn update_with(
        &mut self,
        grid: &GridDataset,
        dirty: &[CellId],
        pool: &sr_par::Pool,
    ) -> Result<ScanUpdate> {
        check_dirty(grid, dirty)?;
        if dirty.is_empty() {
            return Ok(ScanUpdate::default());
        }

        let mut dirty_sorted: Vec<CellId> = dirty.to_vec();
        dirty_sorted.sort_unstable();
        dirty_sorted.dedup();

        // Guard 2: validity changes shift every subsequent cell's position
        // in the valid-cell list, so the list and the position-indexed term
        // cache are rebuilt. (Edges still patch incrementally below — the
        // per-edge recompute reads validity itself.)
        let validity_changed = dirty_sorted
            .iter()
            .any(|&id| self.cells.binary_search(&id).is_ok() != grid.is_valid(id));

        // Guard 1: a normalization denominator moved — every edge value
        // changes, so patching the edge array is pointless and it is rebuilt
        // together with the finite-variation multiset. Bit comparison, not
        // epsilon: the cached edges are only valid for the exact denominators
        // they were computed with. The valid-cell list and the Eq. 3 term
        // cache are *kept*: term rows read raw cell values and `zero_eps`
        // only, never the normalization, so they fall through to the same
        // validity-gated patch as the incremental path below.
        let max_abs = grid.attr_max_abs();
        let denominators_moved = self.max_abs.len() != max_abs.len()
            || self.max_abs.iter().zip(&max_abs).any(|(a, b)| a.to_bits() != b.to_bits());
        let recomputed = if denominators_moved {
            self.max_abs = max_abs;
            let (edges, raw) = rebuild_edges(&normalize_attributes(grid), pool);
            self.edges = edges;
            self.raw = raw;
            0
        } else {
            let mut removals: Vec<f64> = Vec::new();
            let mut insertions: Vec<f64> = Vec::new();
            let recomputed =
                self.edges.patch_cells(grid, &self.max_abs, &dirty_sorted, |old, new| {
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
            self.cells_generation += 1;
            self.ifl_cache = IflCellCache::build(grid, &self.cells, self.ifl_options);
        } else {
            for &id in &dirty_sorted {
                if let Ok(pos) = self.cells.binary_search(&id) {
                    self.ifl_cache.update_row(grid, pos, id, self.ifl_options);
                }
            }
        }

        Ok(ScanUpdate {
            dirty_cells: dirty_sorted.len(),
            edges_recomputed: recomputed,
            rebuilt_normalization: denominators_moved,
            rebuilt_cells: validity_changed,
        })
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

    /// Regenerates the ascending distinct thresholds with the dedup loop
    /// of [`VariationHeap::into_sorted_distinct`], so an equal multiset
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
    pub fn sorted_distinct_thresholds(&self) -> Vec<f64> {
        let mut out = Vec::with_capacity(self.raw.len());
        self.sorted_distinct_thresholds_into(&mut out);
        out
    }

    /// [`ScanCache::sorted_distinct_thresholds`] into a caller-owned buffer
    /// (cleared first), so per-run callers can reuse the allocation.
    pub fn sorted_distinct_thresholds_into(&self, out: &mut Vec<f64>) {
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

    /// Generation counter of [`ScanCache::cells`]: bumped on every rebuild
    /// of the list, stable across pure value patches. Structures derived
    /// from the list (e.g. a cell → position index) stay valid while this
    /// and the list length are unchanged on the same cache object.
    pub(crate) fn cells_generation(&self) -> u64 {
        self.cells_generation
    }

    /// The maintained Eq. 3 term cache.
    pub(crate) fn ifl_cache(&self) -> &IflCellCache {
        &self.ifl_cache
    }

    /// The IFL options the term cache was built with.
    pub fn ifl_options(&self) -> IflOptions {
        self.ifl_options
    }

    /// Number of valid cells currently tracked.
    pub fn num_valid_cells(&self) -> usize {
        self.cells.len()
    }

    /// Size of the finite-variation multiset (= valid–valid adjacent pairs).
    pub fn num_variations(&self) -> usize {
        self.raw.len()
    }
}

/// Recomputes the full edge array and the sorted finite-variation multiset
/// of a normalized grid from scratch — exactly what
/// [`ScanCache::build_with`] computes, shared with the denominator-move
/// path of [`ScanCache::update_with`].
fn rebuild_edges(normalized: &GridDataset, pool: &sr_par::Pool) -> (EdgeVariations, Vec<f64>) {
    let edges = EdgeVariations::build_with(normalized, pool);
    let mut raw = finite_edges(&edges);
    raw.sort_unstable_by_key(|&v| sort_key(v));
    (edges, raw)
}

/// Rejects a dirty list naming a cell outside `grid` — caller input on
/// the public update and localized-run entry points, checked before any
/// state is touched.
pub(crate) fn check_dirty(grid: &GridDataset, dirty: &[CellId]) -> Result<()> {
    if dirty.iter().any(|&id| id as usize >= grid.num_cells()) {
        return Err(CoreError::Grid(GridError::DimensionMismatch {
            context: "dirty cell id out of range",
        }));
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::heap::VariationHeap;
    use crate::localized::LocalizedState;
    use crate::repartition::Repartitioner;
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

    fn assert_cache_fresh(cache: &ScanCache, grid: &GridDataset) {
        let fresh = ScanCache::build(grid, cache.ifl_options());
        assert_eq!(cache.cells, fresh.cells);
        let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        assert_eq!(bits(cache.edges.h()), bits(fresh.edges.h()), "h edges diverged");
        assert_eq!(bits(cache.edges.v()), bits(fresh.edges.v()), "v edges diverged");
        assert_eq!(bits(&cache.raw), bits(&fresh.raw), "variation multiset diverged");
        assert_eq!(
            bits(&cache.sorted_distinct_thresholds()),
            bits(&fresh.sorted_distinct_thresholds())
        );
    }

    #[test]
    fn value_updates_patch_to_fresh_build() {
        let mut g = random_grid(10, 12, 1);
        let mut cache = ScanCache::build(&g, IflOptions::default());
        let mut rng = SmallRng::seed_from_u64(2);
        for round in 0..8 {
            let dirty: Vec<CellId> =
                (0..5).map(|_| rng.gen_range(0..g.num_cells()) as CellId).collect();
            for &id in &dirty {
                g.set_value(id, 0, 80.0 + rng.gen_range(0.0..40.0));
            }
            let report = cache.update(&g, &dirty).unwrap();
            assert!(!report.rebuilt_normalization, "round {round} hit the rebuild guard");
            assert!(report.edges_recomputed > 0);
            assert_cache_fresh(&cache, &g);
        }
    }

    #[test]
    fn validity_flips_rebuild_cells_but_patch_edges() {
        let mut g = random_grid(8, 8, 3);
        let mut cache = ScanCache::build(&g, IflOptions::default());
        g.set_null(27);
        let report = cache.update(&g, &[27]).unwrap();
        assert!(report.rebuilt_cells);
        assert!(!report.rebuilt_normalization);
        assert_cache_fresh(&cache, &g);
        g.set_value(27, 0, 105.0);
        g.set_valid(27);
        let report = cache.update(&g, &[27]).unwrap();
        assert!(report.rebuilt_cells);
        assert_cache_fresh(&cache, &g);
    }

    #[test]
    fn denominator_move_rebuilds_edges_but_keeps_cells() {
        let mut g = random_grid(6, 6, 4);
        let mut cache = ScanCache::build(&g, IflOptions::default());
        g.set_value(10, 0, 1e6);
        let report = cache.update(&g, &[10]).unwrap();
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
        let pool = sr_par::Pool::global();
        let inc = driver.run_localized(&g, &cache, &mut LocalizedState::new(), &[], pool).unwrap();
        let full = driver.run_with_pool(&g, pool).unwrap();
        assert_eq!(inc.repartitioned.ifl().to_bits(), full.repartitioned.ifl().to_bits());
        assert_eq!(
            inc.repartitioned.partition().cell_to_group(),
            full.repartitioned.partition().cell_to_group()
        );
    }

    #[test]
    fn denominator_move_with_validity_flip_rebuilds_both() {
        let mut g = random_grid(6, 6, 9);
        let mut cache = ScanCache::build(&g, IflOptions::default());
        g.set_value(10, 0, 1e6);
        g.set_null(20);
        let report = cache.update(&g, &[10, 20]).unwrap();
        assert!(report.rebuilt_normalization);
        assert!(report.rebuilt_cells);
        assert_cache_fresh(&cache, &g);
    }

    /// A cold localized walk (fresh state) over the patched cache must
    /// reproduce a batch run, which builds its cache from scratch.
    #[test]
    fn cold_localized_walk_over_patched_cache_matches_batch_run() {
        let mut g = random_grid(12, 12, 5);
        let mut cache = ScanCache::build(&g, IflOptions::default());
        let mut rng = SmallRng::seed_from_u64(6);
        let driver = Repartitioner::new(0.08).unwrap();
        for _ in 0..4 {
            let dirty: Vec<CellId> =
                (0..7).map(|_| rng.gen_range(0..g.num_cells()) as CellId).collect();
            for &id in &dirty {
                g.set_value(id, 0, 90.0 + rng.gen_range(0.0..20.0));
            }
            cache.update(&g, &dirty).unwrap();
            let pool = sr_par::Pool::global();
            let inc =
                driver.run_localized(&g, &cache, &mut LocalizedState::new(), &[], pool).unwrap();
            let full = driver.run_with_pool(&g, pool).unwrap();
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
        let mut cache = ScanCache::build(&g, IflOptions::default());
        let mut rng = SmallRng::seed_from_u64(11);
        for _ in 0..4 {
            let dirty: Vec<CellId> =
                (0..6).map(|_| rng.gen_range(0..g.num_cells()) as CellId).collect();
            for &id in &dirty {
                g.set_value(id, 0, 80.0 + rng.gen_range(0.0..40.0));
            }
            cache.update(&g, &dirty).unwrap();
            let direct = cache.sorted_distinct_thresholds();
            // A from-scratch scan of the updated grid: a fresh edge scan,
            // the heap's own sort, and its dedup.
            let heap = VariationHeap::from_grid(&normalize_attributes(&g)).into_sorted_distinct();
            let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
            assert_eq!(bits(&direct), bits(&heap), "patched thresholds diverged from a fresh heap");
        }
    }

    #[test]
    fn mismatched_ifl_options_are_rejected() {
        let g = random_grid(4, 4, 7);
        let cache = ScanCache::build(&g, IflOptions { zero_eps: 0.5 });
        let driver = Repartitioner::new(0.1).unwrap();
        let err = driver.run_localized(
            &g,
            &cache,
            &mut LocalizedState::new(),
            &[],
            sr_par::Pool::global(),
        );
        assert!(matches!(err, Err(crate::CoreError::ScanCacheMismatch)));
    }

    /// A cache built for another grid shape, or for the same shape with a
    /// different valid-cell set size, is refused instead of being indexed
    /// with the grid's shape.
    #[test]
    fn cache_of_another_grid_is_rejected() {
        let driver = Repartitioner::new(0.1).unwrap();
        let run = |grid: &GridDataset, cache: &ScanCache| {
            driver.run_localized(
                grid,
                cache,
                &mut LocalizedState::new(),
                &[],
                sr_par::Pool::global(),
            )
        };
        // Same cell count, other shape: 10×10 cache on a 5×20 grid.
        let cache = ScanCache::build(&random_grid(10, 10, 1), IflOptions::default());
        let err = run(&random_grid(5, 20, 2), &cache);
        assert!(matches!(err, Err(crate::CoreError::ScanCacheMismatch)));
        // Fewer cells: a 6×6 cache on a 10×10 grid.
        let cache = ScanCache::build(&random_grid(6, 6, 3), IflOptions::default());
        let err = run(&random_grid(10, 10, 4), &cache);
        assert!(matches!(err, Err(crate::CoreError::ScanCacheMismatch)));
        // Same shape, a cell nulled after the cache was built (the update
        // that would have rebuilt the cell list never ran).
        let mut g = random_grid(8, 8, 5);
        let cache = ScanCache::build(&g, IflOptions::default());
        g.set_null(9);
        let err = run(&g, &cache);
        assert!(matches!(err, Err(crate::CoreError::ScanCacheMismatch)));
    }

    /// A dirty id outside the grid is refused where it enters, before any
    /// state is touched: by the cache update and by the localized run.
    #[test]
    fn out_of_range_dirty_ids_are_rejected() {
        let g = random_grid(4, 4, 12);
        let mut cache = ScanCache::build(&g, IflOptions::default());
        let out_of_range = crate::CoreError::Grid(GridError::DimensionMismatch {
            context: "dirty cell id out of range",
        });
        assert_eq!(cache.update(&g, &[3, 99]).unwrap_err(), out_of_range);
        assert_cache_fresh(&cache, &g);
        let driver = Repartitioner::new(0.1).unwrap();
        let err = driver
            .run_localized(&g, &cache, &mut LocalizedState::new(), &[99], sr_par::Pool::global())
            .unwrap_err();
        assert_eq!(err, out_of_range);
    }
}
