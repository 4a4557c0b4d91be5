//! The threshold walk — the one per-threshold evaluation in the crate —
//! and the maintained grid whose re-partition it keeps current at a cost
//! proportional to the *dirty region* instead of the grid.
//!
//! A [`LocalizedState`] owns one grid, the driver's scan inputs over it,
//! the cells written since the last run, and the walk's cross-run caches.
//! [`LocalizedState::apply`] is the only way a maintained cell changes: it
//! checks the write, applies it, patches the scan inputs and records the
//! cells, so the dirty set the walk reads is complete by construction.
//! A batch [`Repartitioner::run`] walks fresh caches over a freshly built
//! scan (cold: every extraction a full scan, every group built);
//! [`Repartitioner::run_localized`] walks the state's caches, carried over
//! from its previous run. Three cooperating mechanisms make the
//! carried-over walk cheap (docs/INGESTION.md, "The localized walk"):
//!
//! 1. **Extraction replay.** Every evaluated threshold records a
//!    `ThetaTrace`: the emitted rectangles plus, per rectangle, the probe
//!    footprint (`RectProbe::reach` / `RectProbe::run_width`) that
//!    bounds every edge the anchored scan compared. On the next run, a row
//!    whose traced footprints contain no dirty cell — and whose incoming
//!    spill profile matches the previous run's — is copied wholesale; only
//!    rows near dirt are re-scanned with the extractor's row cursor
//!    (`scan_row`). Identical probe reads force identical rectangles, so
//!    the replayed tiling equals a from-scratch extraction bit for bit.
//! 2. **Group-state reuse.** Per-group features, representatives, and the
//!    Eq. 3 per-member subtotals are cached keyed by the group's rectangle
//!    (the "content fingerprint": under a fixed grid, a rectangle *is* its
//!    member set). An entry stays valid while no dirty cell lies inside the
//!    rectangle; the IFL then re-folds the cached subtotals in canonical
//!    cell order with sr-grid's `fold_cell_terms`, the fold
//!    `partition_ifl` runs, so the result is bit-identical to a live
//!    evaluation.
//! 3. **Warm-started θ search.** The walk starts from the previously
//!    accepted variation and expands outward
//!    ([`Repartitioner::run_with_pool_warm`] runs the same hinted walk
//!    cold, making it the bit-exact reference). A hint below every current
//!    threshold misses and falls back to the full walk.
//!
//! Fallback conditions (all safe, never wrong — just slower): the first
//! run, a normalization rebuild since the last run, a dirty fraction above
//! `FULL_WALK_DIRTY_FRACTION`, and warm-window misses. A write that moves
//! a normalization denominator rescales every edge variation, so `apply`
//! drops the traces and the hint itself; the rectangle cache survives —
//! it is keyed on raw values and re-validated against the dirty region.

use crate::allocator::{allocate_features_with, allocate_rect_into, GroupFeatures, Scratch};
use crate::extractor::{scan_row, VARIATION_SLACK};
use crate::ifl::IflCellCache;
use crate::incremental::{ScanCache, ScanUpdate};
use crate::partition::{GroupRect, Partition};
use crate::repartition::{
    IterationStats, RepartitionOutcome, Repartitioned, Repartitioner, WalkKind,
};
use crate::{CoreError, Result};
use sr_grid::loss::fold_cell_terms;
use sr_grid::{
    representative, AggType, CellId, EdgeVariations, GridDataset, GridError, IflOptions,
};
use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hasher};

/// Above this dirty fraction the localized run walks cold (no warm hint):
/// with a quarter of the grid dirty the accepted θ can move arbitrarily and
/// the warm window would mostly miss anyway. Replay and group reuse stay
/// active — they are dirty-guarded and never wrong.
const FULL_WALK_DIRTY_FRACTION: f64 = 0.25;

/// Traces larger than this are not retained (a near-identity tiling costs
/// more to store than to re-extract).
const MAX_TRACE_RECTS: usize = 1 << 16;

/// At most this many per-θ traces are retained across runs; the largest is
/// evicted first.
const MAX_TRACES: usize = 24;

/// The extraction trace of one evaluated threshold: the emitted rectangles
/// in scan order, each with its probe footprint, plus per-row offsets.
#[derive(Debug, Clone)]
struct ThetaTrace {
    /// Run that recorded the trace (only traces exactly one run old are
    /// replayed — the dirty set describes exactly one generation of edits).
    epoch: u64,
    /// Emitted rectangles in the extractor's scan order.
    rects: Vec<GroupRect>,
    /// Per rectangle: deepest row its probe visited (`RectProbe::reach`).
    reach: Vec<u32>,
    /// Per rectangle: its probe's anchor-run width
    /// (`RectProbe::run_width`).
    run_width: Vec<u32>,
    /// `row_start[r]..row_start[r + 1]` indexes the rectangles anchored in
    /// row `r`; length `rows + 1`.
    row_start: Vec<u32>,
}

/// Cached per-group state: allocated features and the Eq. 3 per-member
/// subtotals, keyed by the group's rectangle.
#[derive(Debug, Clone)]
struct RectEntry {
    /// Last run that used (and thereby revalidated) the entry.
    epoch: u64,
    /// Valid members of the group (0 = null group).
    valid_count: u32,
    /// The allocated feature vector (`p` values; zeros for a null group),
    /// then one Eq. 3 subtotal per valid member, in row-major member
    /// order. The subtotals are all-zero when `valid_count == 1` (the
    /// batch kernel skips such groups — their terms are exact zeros).
    data: Box<[f64]>,
}

/// Fx-style multiplicative hasher for the walk's small fixed-size keys
/// (rectangle corners, threshold bits). Every evaluation probes the
/// rectangle cache once per changed group; SipHash would cost more than
/// the lookups it guards. Hashing only orders the maps' iteration, which
/// no output depends on.
#[derive(Debug, Default, Clone, Copy)]
struct KeyHasher(u64);

impl Hasher for KeyHasher {
    fn finish(&self) -> u64 {
        self.0
    }

    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.write_u64(u64::from(b));
        }
    }

    fn write_u32(&mut self, n: u32) {
        self.write_u64(u64::from(n));
    }

    fn write_u64(&mut self, n: u64) {
        self.0 = (self.0.rotate_left(5) ^ n).wrapping_mul(0x51_7c_c1_b7_27_22_0a_95);
    }
}

type KeyMap<K, V> = HashMap<K, V, BuildHasherDefault<KeyHasher>>;

/// One maintained grid and everything its localized re-partition reads:
/// the driver's scan inputs, the cells written since the last
/// [`Repartitioner::run_localized`], and the walk's cross-run caches
/// (extraction traces, the per-group cache and the warm-start hint).
#[derive(Debug)]
pub struct LocalizedState {
    grid: GridDataset,
    scan: ScanCache,
    /// Cells written since the last run, ascending and distinct.
    dirty: Vec<CellId>,
    caches: WalkCaches,
}

impl LocalizedState {
    /// Takes `grid` over and builds its scan inputs under `opts` on `pool`;
    /// the first run walks cold and seeds the caches.
    pub fn new(grid: GridDataset, opts: IflOptions, pool: &sr_par::Pool) -> Self {
        let scan = ScanCache::build_with(&grid, opts, pool);
        LocalizedState { grid, scan, dirty: Vec::new(), caches: WalkCaches::default() }
    }

    /// Writes `values` into the listed cells and patches the scan inputs.
    /// `values` is row-major, one row of `p` attribute values per listed
    /// cell; each cell takes its row (the last one, if listed twice) and
    /// becomes valid. The cells are recorded for the next
    /// [`Repartitioner::run_localized`], and a write that moves a
    /// normalization denominator drops the traces and the warm hint, so
    /// the next run walks cold.
    ///
    /// An id outside the grid, or a `values` length other than
    /// `cells.len() · p`, is an error, and nothing is written. The rebuild
    /// fallbacks run on [`sr_par::Pool::global`].
    pub fn apply(&mut self, cells: &[CellId], values: &[f64]) -> Result<ScanUpdate> {
        let p = self.grid.num_attrs();
        if cells.len().checked_mul(p) != Some(values.len()) {
            return Err(CoreError::Grid(GridError::DimensionMismatch {
                context: "values length is not cells × attributes",
            }));
        }
        if cells.iter().any(|&id| id as usize >= self.grid.num_cells()) {
            return Err(CoreError::Grid(GridError::DimensionMismatch {
                context: "dirty cell id out of range",
            }));
        }
        for (&id, row) in cells.iter().zip(values.chunks_exact(p)) {
            for (k, &v) in row.iter().enumerate() {
                self.grid.set_value(id, k, v);
            }
            self.grid.set_valid(id);
        }
        let mut sorted = cells.to_vec();
        sorted.sort_unstable();
        sorted.dedup();
        let update = self.scan.update(&self.grid, &sorted, sr_par::Pool::global());
        // Two ascending runs: the stable sort merges them in one pass.
        self.dirty.extend_from_slice(&sorted);
        self.dirty.sort();
        self.dirty.dedup();
        if update.rebuilt_normalization {
            // Recorded probe outcomes and the hinted θ describe the old
            // edge view; the rectangle cache is raw-value based and stays.
            self.caches.traces.clear();
            self.caches.hint = None;
            self.caches.ready = false;
        }
        Ok(update)
    }

    /// The maintained grid.
    pub fn grid(&self) -> &GridDataset {
        &self.grid
    }

    /// Distinct cells written since the last run.
    pub fn pending_dirty_cells(&self) -> usize {
        self.dirty.len()
    }

    /// The θ of the last run's accepted partition (`None` before the first
    /// run, after a normalization rebuild, or when nothing was accepted).
    pub fn warm_hint(&self) -> Option<f64> {
        self.caches.hint
    }

    /// Whether the most recent run fell back to the cold walk (first run,
    /// normalization rebuild, oversized dirty region, or warm-window miss).
    pub fn last_run_was_fallback(&self) -> bool {
        self.caches.last_fallback
    }

    /// Cache hits of the most recent run: groups whose features and Eq. 3
    /// subtotals were served from the rectangle cache.
    pub fn last_reused_groups(&self) -> u64 {
        self.caches.last_reused
    }

    /// The warm hint the next [`Repartitioner::run_localized`] call would
    /// hand the threshold walk over the pending dirty cells — `None` when
    /// that run would walk cold. Callers (and the convergence property
    /// tests) can reproduce the upcoming walk bit-for-bit by passing this
    /// to [`Repartitioner::run_with_pool_warm`] with [`LocalizedState::grid`].
    pub fn planned_hint(&self) -> Option<f64> {
        if self.walks_cold() {
            None
        } else {
            self.caches.hint
        }
    }

    /// Whether the next run would walk cold (no warm hint): unseeded state,
    /// a normalization rebuild since the last run, or a dirty fraction
    /// above `FULL_WALK_DIRTY_FRACTION`.
    fn walks_cold(&self) -> bool {
        !self.caches.ready
            || (self.dirty.len() as f64) > FULL_WALK_DIRTY_FRACTION * self.grid.num_cells() as f64
    }
}

/// The walk's cross-run caches and run-scoped buffers. A batch run walks a
/// fresh instance; a [`LocalizedState`] carries one between runs.
#[derive(Debug, Default)]
pub(crate) struct WalkCaches {
    /// Monotone run counter; epoch tags on traces / rect entries implement
    /// both end-of-run eviction and the "exactly one generation old"
    /// validity rule.
    epoch: u64,
    traces: KeyMap<u64, ThetaTrace>,
    rect_cache: KeyMap<GroupRect, RectEntry>,
    hint: Option<f64>,
    /// Whether a run has completed since the state was built or its
    /// normalization was rebuilt (traces and hint describe that run).
    ready: bool,
    last_fallback: bool,
    last_reused: u64,
    /// Run-scoped buffers reused across runs (allocation amortization; no
    /// cross-run meaning).
    thresholds_buf: Vec<f64>,
    prefix_buf: Vec<u32>,
    /// The per-cell subtotal plane; never zeroed between runs — the first
    /// evaluation of a run scores against an empty previous tiling, so it
    /// writes every valid position before the fold reads it.
    terms: Vec<f64>,
    replay: ReplayScratch,
}

impl WalkCaches {
    /// Starts a run: advances the epoch and loads the scan's distinct
    /// thresholds for the walk. Returns the threshold count.
    pub(crate) fn begin_run(&mut self, scan: &ScanCache) -> usize {
        self.epoch += 1;
        scan.sorted_distinct_thresholds_into(&mut self.thresholds_buf);
        self.thresholds_buf.len()
    }
}

/// Scratch buffers of the replay scan, reused across evaluations.
#[derive(Debug, Default)]
struct ReplayScratch {
    /// Per-column spill profile of the *new* tiling (`scan_row`'s `bot`):
    /// `bot[c]` is one past the deepest row covered by any emitted
    /// rectangle touching column `c`.
    bot_new: Vec<u32>,
    /// The same profile replayed from the previous run's trace.
    bot_old: Vec<u32>,
    /// Columns where the two profiles currently answer differently for
    /// some future row (the divergence set); rows scan instead of copying
    /// while it is non-empty.
    diff: Vec<u32>,
    /// Membership flags backing `diff`.
    in_diff: Vec<bool>,
}

/// Builds a `(rows + 1) × (cols + 1)` inclusive 2-D prefix-sum over the
/// dirty cell indicator, for O(1) "any dirty cell in this box?" queries.
fn build_dirty_prefix(rows: usize, cols: usize, dirty: &[CellId], prefix: &mut Vec<u32>) {
    let w = cols + 1;
    prefix.clear();
    prefix.resize((rows + 1) * w, 0);
    for &id in dirty {
        let id = id as usize;
        prefix[(id / cols + 1) * w + (id % cols + 1)] += 1;
    }
    for r in 1..=rows {
        let mut run = 0u32;
        for c in 1..=cols {
            run += prefix[r * w + c];
            prefix[r * w + c] = run + prefix[(r - 1) * w + c];
        }
    }
}

/// Any dirty cell inside the inclusive cell box `[r0, r1] × [c0, c1]`?
#[inline]
fn dirty_in_box(prefix: &[u32], cols: usize, r0: usize, r1: usize, c0: usize, c1: usize) -> bool {
    let w = cols + 1;
    let (r1, c1) = (r1 + 1, c1 + 1);
    prefix[r1 * w + c1] + prefix[r0 * w + c0] > prefix[r0 * w + c1] + prefix[r1 * w + c0]
}

/// From-scratch trace extraction: every row scanned, every probe recorded.
/// Emits the same rectangles in the same order as
/// [`crate::extract_with_edges`] (the cursor is the same code).
fn extract_full_trace(
    edges: &EdgeVariations,
    accept: f64,
    rows: usize,
    rs: &mut ReplayScratch,
    epoch: u64,
) -> ThetaTrace {
    rs.bot_new.fill(0);
    let mut rects = Vec::new();
    let mut reach = Vec::new();
    let mut run_width = Vec::new();
    let mut row_start = Vec::with_capacity(rows + 1);
    row_start.push(0u32);
    for r in 0..rows {
        scan_row(edges, accept, r, &mut rs.bot_new, |rect, probe| {
            rects.push(rect);
            reach.push(probe.reach as u32);
            run_width.push(probe.run_width as u32);
        });
        row_start.push(rects.len() as u32);
    }
    ThetaTrace { epoch, rects, reach, run_width, row_start }
}

/// Row-granular replay of a recorded trace against the current edge view.
/// A row is copied verbatim when (a) the divergence set is empty — the new
/// tiling's spill into this row matches the traced one at every column, so
/// every assignment query answers as before — and (b) no traced probe
/// footprint in the row contains a dirty cell: the footprint box bounds
/// every edge the probe compared (`RectProbe::reach`), so a dirt-free
/// box means every `edge ≤ accept` comparison still answers as recorded.
/// Otherwise the row is re-scanned live and the divergence set updated
/// from the columns either tiling touched.
#[allow(clippy::too_many_arguments)]
fn replay_trace(
    edges: &EdgeVariations,
    accept: f64,
    rows: usize,
    cols: usize,
    old: &ThetaTrace,
    prefix: &[u32],
    rs: &mut ReplayScratch,
    epoch: u64,
) -> ThetaTrace {
    let mut rects = Vec::with_capacity(old.rects.len());
    let mut reach = Vec::with_capacity(old.rects.len());
    let mut run_width = Vec::with_capacity(old.rects.len());
    let mut row_start = Vec::with_capacity(rows + 1);
    row_start.push(0u32);
    rs.bot_new.fill(0);
    rs.bot_old.fill(0);
    debug_assert!(rs.diff.is_empty());

    for r in 0..rows {
        // Retire divergence columns that healed (equal again) or expired
        // (neither profile covers any row ≥ r anymore — all future
        // queries answer "unassigned" on both sides).
        if !rs.diff.is_empty() {
            let (bot_new, bot_old, in_diff) = (&rs.bot_new, &rs.bot_old, &mut rs.in_diff);
            rs.diff.retain(|&cu| {
                let c = cu as usize;
                let keep = bot_new[c] != bot_old[c] && bot_new[c].max(bot_old[c]) as usize > r;
                if !keep {
                    in_diff[c] = false;
                }
                keep
            });
        }
        let og = old.row_start[r] as usize..old.row_start[r + 1] as usize;
        let mut clean = rs.diff.is_empty();
        if clean {
            for gi in og.clone() {
                let rect = old.rects[gi];
                let c0 = rect.c0 as usize;
                let c1 = (c0 + old.run_width[gi] as usize).min(cols - 1);
                if dirty_in_box(prefix, cols, r, old.reach[gi] as usize, c0, c1) {
                    clean = false;
                    break;
                }
            }
        }
        if clean {
            for gi in og {
                let rect = old.rects[gi];
                rects.push(rect);
                reach.push(old.reach[gi]);
                run_width.push(old.run_width[gi]);
                let b = rect.r1 + 1;
                for c in rect.c0 as usize..=rect.c1 as usize {
                    rs.bot_new[c] = b;
                    rs.bot_old[c] = b;
                }
            }
        } else {
            let start = rects.len();
            scan_row(edges, accept, r, &mut rs.bot_new, |rect, probe| {
                rects.push(rect);
                reach.push(probe.reach as u32);
                run_width.push(probe.run_width as u32);
            });
            for gi in og.clone() {
                let rect = old.rects[gi];
                for c in rect.c0 as usize..=rect.c1 as usize {
                    rs.bot_old[c] = rect.r1 + 1;
                }
            }
            // Refresh the divergence set over every column either tiling
            // wrote this row; untouched columns keep their prior verdict.
            let touched = rects[start..].iter().copied().chain(og.map(|gi| old.rects[gi]));
            for rect in touched {
                for c in rect.c0 as usize..=rect.c1 as usize {
                    if rs.bot_new[c] != rs.bot_old[c] && !rs.in_diff[c] {
                        rs.in_diff[c] = true;
                        rs.diff.push(c as u32);
                    }
                }
            }
        }
        row_start.push(rects.len() as u32);
    }
    for &c in &rs.diff {
        rs.in_diff[c as usize] = false;
    }
    rs.diff.clear();
    ThetaTrace { epoch, rects, reach, run_width, row_start }
}

/// Builds the cached state of one multi-cell group: allocated features,
/// representatives, and the Eq. 3 per-member subtotals — the same
/// `allocate_rect_into` / [`representative`] / [`IflCellCache::cell_subtotal`] pipeline
/// the batch evaluation runs, so every stored number matches its bits.
#[allow(clippy::too_many_arguments)]
fn build_rect_entry(
    grid: &GridDataset,
    cache: &IflCellCache,
    aggs: &[AggType],
    p: usize,
    has_mode: bool,
    pos_of: &[u32],
    cols: usize,
    rect: GroupRect,
    epoch: u64,
    scratch: &mut Scratch,
    feat_tmp: &mut Vec<f64>,
) -> RectEntry {
    feat_tmp.clear();
    let count = allocate_rect_into(grid, rect, scratch, feat_tmp);
    let mut data = Vec::with_capacity(p + count);
    data.extend_from_slice(feat_tmp);
    if count > 1 {
        // Stash the representative row behind the features in the scratch
        // buffer (indices p..2p).
        for k in 0..p {
            let rep = representative(feat_tmp[k], aggs[k], count);
            feat_tmp.push(rep);
        }
        for rr in rect.r0 as usize..=rect.r1 as usize {
            let base = rr * cols;
            for cc in rect.c0 as usize..=rect.c1 as usize {
                let pos = pos_of[base + cc];
                if pos != u32::MAX {
                    data.push(cache.cell_subtotal(
                        pos as usize,
                        &feat_tmp[p..2 * p],
                        aggs,
                        has_mode,
                    ));
                }
            }
        }
    } else {
        // 0 or 1 valid member: the batch kernel contributes nothing for
        // these groups (single-member terms are exact zeros).
        data.resize(p + count, 0.0);
    }
    RectEntry { epoch, valid_count: count as u32, data: data.into_boxed_slice() }
}

/// Scores one extracted tiling: per-group subtotals — cached where the
/// rectangle is untouched by dirt, rebuilt otherwise — scattered into the
/// per-cell subtotal plane and folded in canonical order.
///
/// The subtotal plane (`terms`) persists across the evaluations of one
/// run, and `prev_rects` is the tiling the previous evaluation scored into
/// it (empty on the first). A rectangle present in both tilings already
/// has its members' subtotals in the plane — the same grid and the same
/// member set produce the same numbers — so it is skipped outright, before
/// any cache probe. Nearby thresholds share almost their whole tiling,
/// which turns the scatter from O(cells) into O(changed groups).
#[allow(clippy::too_many_arguments)]
fn score_trace(
    grid: &GridDataset,
    cache: &IflCellCache,
    aggs: &[AggType],
    p: usize,
    has_mode: bool,
    pos_of: &[u32],
    cols: usize,
    trace_rects: &[GroupRect],
    prev_rects: &[GroupRect],
    rect_cache: &mut KeyMap<GroupRect, RectEntry>,
    prefix: &[u32],
    epoch: u64,
    scratch: &mut Scratch,
    feat_tmp: &mut Vec<f64>,
    terms: &mut [f64],
    reused: &mut u64,
    pool: &sr_par::Pool,
) -> f64 {
    // Merge cursor into `prev_rects`; both tilings are strictly ascending
    // by anchor (r0, c0), so one forward pass pairs them up.
    let anchor = |rect: GroupRect| ((rect.r0 as u64) << 32) | rect.c0 as u64;
    let mut pi = 0usize;
    let mut to_scatter: Vec<GroupRect> = Vec::new();
    let mut to_build: Vec<GroupRect> = Vec::new();
    for &rect in trace_rects {
        let key = anchor(rect);
        while pi < prev_rects.len() && anchor(prev_rects[pi]) < key {
            pi += 1;
        }
        if pi < prev_rects.len() && prev_rects[pi] == rect {
            // Unchanged group: its subtotals are already in the plane.
            pi += 1;
            if rect.r0 != rect.r1 || rect.c0 != rect.c1 {
                *reused += 1;
            }
            continue;
        }
        if rect.r0 == rect.r1 && rect.c0 == rect.c1 {
            // Singleton: a skipped (exact-zero) term; not worth an entry.
            let pos = pos_of[rect.r0 as usize * cols + rect.c0 as usize];
            if pos != u32::MAX {
                terms[pos as usize] = 0.0;
            }
            continue;
        }
        match rect_cache.get_mut(&rect) {
            // Within-run hits are always valid (the grid is fixed for the
            // whole walk); cross-run entries are valid while no dirty cell
            // lies inside the rectangle.
            Some(e)
                if e.epoch == epoch
                    || !dirty_in_box(
                        prefix,
                        cols,
                        rect.r0 as usize,
                        rect.r1 as usize,
                        rect.c0 as usize,
                        rect.c1 as usize,
                    ) =>
            {
                e.epoch = epoch;
                *reused += 1;
                to_scatter.push(rect);
            }
            _ => to_build.push(rect),
        }
    }
    // Rebuilds dominate the first evaluation after a dirty batch (every
    // group the dirt touched), and each one is self-contained — the feature
    // fold and term loop read only the grid and the cell cache — so fan
    // them out. Chunk results come back in submission order; insertion and
    // scatter stay serial, and the plane writes of a tiling are disjoint,
    // so the plane ends up bit-identical to a serial pass.
    if to_build.len() >= 16 && pool.threads() > 1 {
        let grain = sr_par::fixed_grain(to_build.len(), 4 * pool.threads());
        let built: Vec<Vec<RectEntry>> = pool.par_map_chunks(to_build.len(), grain, |range| {
            let mut scratch = Scratch::new(p);
            let mut feat = Vec::new();
            range
                .map(|i| {
                    build_rect_entry(
                        grid,
                        cache,
                        aggs,
                        p,
                        has_mode,
                        pos_of,
                        cols,
                        to_build[i],
                        epoch,
                        &mut scratch,
                        &mut feat,
                    )
                })
                .collect()
        });
        for (&rect, entry) in to_build.iter().zip(built.into_iter().flatten()) {
            scatter_entry(terms, pos_of, cols, rect, &entry);
            rect_cache.insert(rect, entry);
        }
    } else {
        for &rect in &to_build {
            let entry = build_rect_entry(
                grid, cache, aggs, p, has_mode, pos_of, cols, rect, epoch, scratch, feat_tmp,
            );
            scatter_entry(terms, pos_of, cols, rect, &entry);
            rect_cache.insert(rect, entry);
        }
    }
    for &rect in &to_scatter {
        scatter_entry(terms, pos_of, cols, rect, &rect_cache[&rect]);
    }
    fold_cell_terms(terms.len(), cache.terms(), pool, |i| terms[i])
}

/// Copies one group's cached per-member subtotals into the subtotal plane,
/// in member scan order (the order [`build_rect_entry`] recorded them).
fn scatter_entry(
    terms: &mut [f64],
    pos_of: &[u32],
    cols: usize,
    rect: GroupRect,
    entry: &RectEntry,
) {
    let member_terms = &entry.data[entry.data.len() - entry.valid_count as usize..];
    let mut j = 0usize;
    for rr in rect.r0 as usize..=rect.r1 as usize {
        let base = rr * cols;
        for cc in rect.c0 as usize..=rect.c1 as usize {
            let pos = pos_of[base + cc];
            if pos != u32::MAX {
                terms[pos as usize] = member_terms[j];
                j += 1;
            }
        }
    }
    debug_assert_eq!(j, member_terms.len());
}

/// Retains a freshly recorded trace, respecting the size caps: oversized
/// traces are dropped (re-extraction is cheaper than the memory), and when
/// the table is full the largest stored trace makes room — unless the new
/// one is itself the largest.
fn store_trace(traces: &mut KeyMap<u64, ThetaTrace>, key: u64, trace: ThetaTrace) {
    if trace.rects.len() > MAX_TRACE_RECTS {
        return;
    }
    if traces.len() >= MAX_TRACES {
        let victim = traces.iter().map(|(&k, t)| (k, t.rects.len())).max_by_key(|&(_, len)| len);
        match victim {
            Some((k, len)) if len >= trace.rects.len() => {
                traces.remove(&k);
            }
            _ => return,
        }
    }
    traces.insert(key, trace);
}

/// Materializes the winning tiling: the partition from the rectangles
/// (scan order = group-id order) and the feature arena from cached
/// entries, falling back to a live allocation on a cache miss.
fn materialize(
    grid: &GridDataset,
    winner: &[GroupRect],
    rect_cache: &KeyMap<GroupRect, RectEntry>,
    epoch: u64,
    scratch: &mut Scratch,
) -> (Partition, GroupFeatures) {
    let p = grid.num_attrs();
    let partition = Partition::from_rects(grid.rows(), grid.cols(), winner.to_vec());
    let mut values = Vec::with_capacity(winner.len() * p);
    let mut counts = Vec::with_capacity(winner.len());
    for &rect in winner {
        match rect_cache.get(&rect) {
            // Entries touched this run hold exactly what a live allocation
            // would produce for the current grid.
            Some(e) if e.epoch == epoch => {
                values.extend_from_slice(&e.data[..p]);
                counts.push(e.valid_count);
            }
            _ => {
                let c = allocate_rect_into(grid, rect, scratch, &mut values);
                counts.push(c as u32);
            }
        }
    }
    (partition, GroupFeatures::from_parts(p, values, counts))
}

impl Repartitioner {
    /// The localized incremental entry point: a threshold walk over the
    /// state's maintained grid whose cost is proportional to the cells
    /// [`LocalizedState::apply`] wrote since the previous run on this
    /// `state`; the state carries the traces, the per-group cache, and the
    /// warm-start hint between runs. The run consumes the recorded cells.
    ///
    /// Bit-identity contract: the outcome equals
    /// [`Repartitioner::run_with_pool_warm`] on [`LocalizedState::grid`]
    /// with [`LocalizedState::planned_hint`] taken on entry — which under a
    /// `None` hint or the [`crate::IterationStrategy::EveryDistinct`]
    /// strategy is exactly the batch driver. This holds at any
    /// `SR_THREADS`.
    ///
    /// A state built with other IFL options than this driver's is refused
    /// with [`CoreError::ScanCacheMismatch`].
    ///
    /// Emits the `repartition.run` span with `localized`, `dirty_cells`,
    /// `reused_groups`, and `thresholds_walked` fields on top of the batch
    /// fields.
    pub fn run_localized(
        &self,
        state: &mut LocalizedState,
        pool: &sr_par::Pool,
    ) -> Result<RepartitionOutcome> {
        if state.scan.ifl_options() != self.ifl_options() {
            return Err(CoreError::ScanCacheMismatch);
        }
        let n = state.grid.num_cells();
        sr_obs::Registry::global().counter("repartition.runs_total").inc();
        let mut run_span = sr_obs::span("repartition.run");
        run_span.record("cells", n);
        run_span.record("threshold", self.threshold());
        run_span.record("localized", 1usize);
        run_span.record("dirty_cells", state.dirty.len());

        {
            let mut scan_span = sr_obs::span("repartition.variation_scan");
            scan_span.record("distinct_variations", state.caches.begin_run(&state.scan));
        }
        let cold = state.walks_cold();
        let warm_hint = state.planned_hint();
        let LocalizedState { grid, scan, dirty, caches } = state;
        let (outcome, walk) = self.walk_localized(grid, scan, caches, dirty, warm_hint, pool);
        caches.last_fallback = cold || walk == WalkKind::WarmMiss;
        dirty.clear();

        run_span.record("groups", outcome.repartitioned.num_groups());
        run_span.record("ifl", outcome.repartitioned.ifl());
        run_span.record("reused_groups", caches.last_reused as usize);
        run_span.record("thresholds_walked", outcome.iterations.len());
        Ok(outcome)
    }

    /// The threshold walk — the crate's one per-threshold evaluation (Alg.
    /// 1 extraction, Alg. 2 allocation, Eq. 3 scoring), shared by the batch
    /// driver (fresh caches, no dirt) and [`Repartitioner::run_localized`].
    /// [`WalkCaches::begin_run`] must have loaded the scan's thresholds.
    pub(crate) fn walk_localized(
        &self,
        grid: &GridDataset,
        scan: &ScanCache,
        caches: &mut WalkCaches,
        dirty: &[CellId],
        warm_hint: Option<f64>,
        pool: &sr_par::Pool,
    ) -> (RepartitionOutcome, WalkKind) {
        let (rows, cols) = (grid.rows(), grid.cols());
        let n = grid.num_cells();
        let epoch = caches.epoch;
        let edges = scan.edges();
        let cells = scan.cells();
        let pos_of = scan.pos_of();
        let ifl_cache = scan.ifl_cache();

        // Run-scoped derived inputs and scratch, all held in `caches` so
        // steady-state runs allocate nothing grid-sized.
        build_dirty_prefix(rows, cols, dirty, &mut caches.prefix_buf);
        caches.terms.resize(cells.len(), 0.0);
        caches.replay.bot_new.resize(cols, 0);
        caches.replay.bot_old.resize(cols, 0);
        caches.replay.in_diff.resize(cols, false);
        let p = grid.num_attrs();
        let aggs = grid.agg_types().to_vec();
        let has_mode = aggs.contains(&AggType::Mode);
        let mut scratch = Scratch::new(p);
        let mut feat_tmp: Vec<f64> = Vec::new();

        let metrics = sr_obs::Registry::global();
        let iterations_total = metrics.counter("repartition.iterations_total");
        let rejections_total = metrics.counter("repartition.rejections_total");
        let mut iterations: Vec<IterationStats> = Vec::new();
        let mut best: Option<(f64, f64, usize)> = None; // (θ, ifl, groups)
        let mut winner_rects: Vec<GroupRect> = Vec::new();
        let mut reused: u64 = 0;
        let threshold = self.threshold();

        let walk = {
            let traces = &mut caches.traces;
            let rect_cache = &mut caches.rect_cache;
            let thresholds = &caches.thresholds_buf;
            let prefix = &caches.prefix_buf;
            let terms = &mut caches.terms;
            let rs = &mut caches.replay;
            // The tiling the subtotal plane currently holds (walk-scoped:
            // the plane persists across the evaluations of one run).
            let mut prev_rects: Vec<GroupRect> = Vec::new();
            let mut evaluate = |theta: f64| -> IterationStats {
                let key = theta.to_bits();
                let accept = theta + VARIATION_SLACK;
                let old = traces.remove(&key);
                let mut ex_span = sr_obs::span("repartition.extract");
                // 0 = same-run clone, 1 = cross-run replay, 2 = full scan.
                let mut path = 2usize;
                let trace = match &old {
                    // Same θ re-probed within one walk: the grid is fixed,
                    // so the recorded tiling is the tiling.
                    Some(t) if t.epoch == epoch => {
                        path = 0;
                        t.clone()
                    }
                    // Exactly one run old: replay, re-scanning only rows
                    // whose probe footprints contain dirt.
                    Some(t) if t.epoch + 1 == epoch => {
                        path = 1;
                        replay_trace(edges, accept, rows, cols, t, prefix, rs, epoch)
                    }
                    _ => extract_full_trace(edges, accept, rows, rs, epoch),
                };
                let num_groups = trace.rects.len();
                ex_span.record("path", path);
                ex_span.record("groups", num_groups);
                drop(ex_span);
                let sc_span = sr_obs::span("repartition.score");
                let ifl = score_trace(
                    grid,
                    ifl_cache,
                    &aggs,
                    p,
                    has_mode,
                    pos_of,
                    cols,
                    &trace.rects,
                    &prev_rects,
                    rect_cache,
                    prefix,
                    epoch,
                    &mut scratch,
                    &mut feat_tmp,
                    terms,
                    &mut reused,
                    pool,
                );
                drop(sc_span);
                prev_rects.clear();
                if trace.rects.len() <= MAX_TRACE_RECTS {
                    prev_rects.extend_from_slice(&trace.rects);
                }
                let accepted = ifl <= threshold;
                iterations_total.inc();
                if !accepted {
                    rejections_total.inc();
                }
                if accepted && best.is_none_or(|(_, _, groups)| num_groups <= groups) {
                    best = Some((theta, ifl, num_groups));
                    winner_rects.clear();
                    winner_rects.extend_from_slice(&trace.rects);
                }
                store_trace(traces, key, trace);
                IterationStats { min_adjacent_variation: theta, num_groups, ifl, accepted }
            };

            let mut merge_span = sr_obs::span("repartition.merge_loop");
            let walk = self.drive_walk(thresholds, warm_hint, &mut iterations, &mut evaluate);
            merge_span.record("iterations", iterations.len());
            merge_span.record("rejections", iterations.iter().filter(|it| !it.accepted).count());
            walk
        };

        let repartitioned = match best {
            Some((theta, ifl, _)) => {
                let (partition, features) =
                    materialize(grid, &winner_rects, &caches.rect_cache, epoch, &mut scratch);
                Repartitioned::from_parts(grid, partition, features, ifl, theta)
            }
            // Nothing accepted (or no adjacent pairs): the identity
            // partition, whose IFL is exactly zero.
            None => {
                let partition = Partition::identity(rows, cols);
                let features = allocate_features_with(grid, &partition, pool);
                Repartitioned::from_parts(grid, partition, features, 0.0, 0.0)
            }
        };
        metrics
            .counter("repartition.cells_merged_total")
            .add((n - repartitioned.num_groups()) as u64);

        // End-of-run bookkeeping: the hint moves to this run's winner, and
        // anything not touched this run is evicted — which both bounds
        // memory and keeps every retained item exactly one dirt-generation
        // old, the precondition of the cross-run validity checks above.
        caches.hint = best.map(|(theta, ..)| theta);
        caches.ready = true;
        caches.last_reused = reused;
        caches.traces.retain(|_, t| t.epoch == epoch);
        caches.rect_cache.retain(|_, e| e.epoch == epoch);

        (RepartitionOutcome { repartitioned, iterations, input_cells: n }, walk)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::repartition::{IterationStrategy, RepartitionConfig};
    use rand::{rngs::SmallRng, Rng, SeedableRng};

    fn smooth_grid(rows: usize, cols: usize, seed: u64) -> GridDataset {
        let mut rng = SmallRng::seed_from_u64(seed);
        let vals: Vec<f64> = (0..rows * cols)
            .map(|i| {
                let (r, c) = (i / cols, i % cols);
                100.0 + (r as f64 * 0.8) + (c as f64 * 0.5) + rng.gen_range(-0.5..0.5)
            })
            .collect();
        GridDataset::univariate(rows, cols, vals).unwrap()
    }

    fn driver(theta: f64, strategy: IterationStrategy) -> Repartitioner {
        Repartitioner::with_config(RepartitionConfig::new(theta).unwrap().with_strategy(strategy))
            .unwrap()
    }

    fn outcome_bits(out: &RepartitionOutcome) -> Vec<u64> {
        let mut bits = vec![
            out.repartitioned.ifl().to_bits(),
            out.repartitioned.min_adjacent_variation().to_bits(),
            out.repartitioned.num_groups() as u64,
            out.iterations.len() as u64,
        ];
        for it in &out.iterations {
            bits.push(it.min_adjacent_variation.to_bits());
            bits.push(it.ifl.to_bits());
            bits.push(it.num_groups as u64);
            bits.push(it.accepted as u64);
        }
        let features = out.repartitioned.features();
        for g in 0..features.num_groups() {
            bits.push(g as u64);
            if let Some(fv) = features.row(g) {
                bits.extend(fv.iter().map(|v| v.to_bits()));
            }
        }
        bits.extend(
            out.repartitioned
                .partition()
                .rects()
                .iter()
                .flat_map(|r| [r.r0 as u64, r.r1 as u64, r.c0 as u64, r.c1 as u64]),
        );
        bits
    }

    /// A sequence of dirty batches replayed through `run_localized` must
    /// match `run_with_pool_warm` on the same grid and hint, bit for bit,
    /// at 1 and 8 threads — including warm walks, a θ-jump miss, and a
    /// cold restart after a normalization rebuild.
    #[test]
    fn localized_matches_hinted_batch_driver() {
        for strategy in [
            IterationStrategy::EveryDistinct,
            IterationStrategy::Exponential { initial_stride: 2, growth: 1.7 },
        ] {
            let drv = driver(0.08, strategy);
            let mut reference: Vec<Vec<u64>> = Vec::new();
            for threads in [1usize, 8] {
                let pool = sr_par::Pool::new(threads);
                let grid = smooth_grid(14, 15, 42);
                let mut state = LocalizedState::new(grid, drv.ifl_options(), &pool);
                let mut rng = SmallRng::seed_from_u64(7);
                for round in 0..6 {
                    let dirty: Vec<CellId> = if round == 0 {
                        Vec::new()
                    } else {
                        (0..5)
                            .map(|_| rng.gen_range(0..state.grid().num_cells()) as CellId)
                            .collect()
                    };
                    let mut values: Vec<f64> = Vec::with_capacity(dirty.len());
                    for (i, &id) in dirty.iter().enumerate() {
                        // A repeated id bumps its own latest value.
                        let prev = dirty[..i]
                            .iter()
                            .rposition(|&d| d == id)
                            .map_or(state.grid().value(id, 0), |j| values[j]);
                        values.push(prev + rng.gen_range(-0.4..0.4));
                    }
                    state.apply(&dirty, &values).unwrap();
                    let hint = state.planned_hint();
                    let local = drv.run_localized(&mut state, &pool).unwrap();
                    let batch = drv.run_with_pool_warm(state.grid(), &pool, hint).unwrap();
                    assert_eq!(
                        outcome_bits(&local),
                        outcome_bits(&batch),
                        "strategy {strategy:?} threads {threads} round {round}"
                    );
                    assert_eq!(
                        local.repartitioned.partition().num_groups(),
                        batch.repartitioned.partition().num_groups()
                    );
                    let bits = outcome_bits(&local);
                    if threads == 1 {
                        reference.push(bits);
                    } else {
                        assert_eq!(reference[round], bits, "thread-count divergence");
                    }
                }
            }
        }
    }

    /// A warm hint below every threshold must fall back to the cold walk
    /// and still match the batch driver under the same (missing) hint.
    #[test]
    fn warm_miss_falls_back_to_cold_walk() {
        let strategy = IterationStrategy::Exponential { initial_stride: 2, growth: 1.7 };
        let drv = driver(0.05, strategy);
        let pool = sr_par::Pool::new(2);
        // One near-identical pair (cells 0 and 1) in an otherwise jagged
        // row: the first run's winner is that pair's tiny variation.
        let grid = GridDataset::univariate(2, 3, vec![100.0, 100.001, 220.0, 390.0, 560.0, 730.0])
            .unwrap();
        let mut state = LocalizedState::new(grid, drv.ifl_options(), &pool);
        let first = drv.run_localized(&mut state, &pool).unwrap();
        assert!(first.repartitioned.num_groups() < 6, "expected the pair to merge");
        let hint = state.warm_hint().expect("first run must set the hint");

        // Destroy the pair: the hinted variation vanishes from the
        // threshold list and every remaining variation exceeds it.
        let update = state.apply(&[1], &[155.0]).unwrap();
        assert!(!update.rebuilt_normalization);
        let mut thresholds = Vec::new();
        state.scan.sorted_distinct_thresholds_into(&mut thresholds);
        assert!(thresholds.iter().all(|&t| t > hint), "hint must sit below all thresholds");

        let local = drv.run_localized(&mut state, &pool).unwrap();
        assert!(state.last_run_was_fallback(), "warm miss must be reported as fallback");
        let batch = drv.run_with_pool_warm(state.grid(), &pool, Some(hint)).unwrap();
        assert_eq!(outcome_bits(&local), outcome_bits(&batch));
    }

    /// An all-cells-dirty batch exceeds the dirty-fraction cutover: the run
    /// must walk cold (no hint) and still match the unhinted batch driver.
    #[test]
    fn oversized_dirty_region_walks_cold() {
        let strategy = IterationStrategy::Exponential { initial_stride: 2, growth: 1.7 };
        let drv = driver(0.08, strategy);
        let pool = sr_par::Pool::new(2);
        let mut state = LocalizedState::new(smooth_grid(9, 9, 3), drv.ifl_options(), &pool);
        drv.run_localized(&mut state, &pool).unwrap();
        assert!(state.warm_hint().is_some());

        let dirty: Vec<CellId> = (0..state.grid().num_cells() as CellId).collect();
        let values: Vec<f64> =
            dirty.iter().map(|&id| state.grid().value(id, 0) * 1.001 + 0.05).collect();
        state.apply(&dirty, &values).unwrap();
        assert_eq!(state.planned_hint(), None);
        let local = drv.run_localized(&mut state, &pool).unwrap();
        assert!(state.last_run_was_fallback());
        let batch = drv.run_with_pool_warm(state.grid(), &pool, None).unwrap();
        assert_eq!(outcome_bits(&local), outcome_bits(&batch));
    }

    /// Group reuse must actually happen on a small-dirt warm run.
    #[test]
    fn unchanged_groups_are_reused() {
        let strategy = IterationStrategy::Exponential { initial_stride: 2, growth: 1.7 };
        // A tight budget keeps the winner at many small groups, so one
        // dirty cell invalidates one group and the rest hit the cache.
        let drv = driver(0.02, strategy);
        let pool = sr_par::Pool::new(1);
        let mut state = LocalizedState::new(smooth_grid(24, 24, 11), drv.ifl_options(), &pool);
        let first = drv.run_localized(&mut state, &pool).unwrap();
        assert!(first.repartitioned.num_groups() > 4, "need a multi-group winner");

        let v = state.grid().value(40, 0) + 0.2;
        state.apply(&[40], &[v]).unwrap();
        drv.run_localized(&mut state, &pool).unwrap();
        assert!(!state.last_run_was_fallback());
        assert!(state.last_reused_groups() > 0, "expected rect-cache hits");
    }

    #[test]
    fn mismatched_ifl_options_are_rejected() {
        let pool = sr_par::Pool::global();
        let grid = smooth_grid(4, 4, 7);
        let mut state = LocalizedState::new(grid, IflOptions { zero_eps: 0.5 }, pool);
        let err = driver(0.1, IterationStrategy::EveryDistinct).run_localized(&mut state, pool);
        assert!(matches!(err, Err(CoreError::ScanCacheMismatch)));
    }

    /// A write naming a cell outside the grid, or carrying a `values`
    /// slice of the wrong length, is refused before anything is written:
    /// the grid, the scan inputs and the dirty set stay as they were, and
    /// the next run still matches the batch driver.
    #[test]
    fn malformed_writes_are_rejected_untouched() {
        let pool = sr_par::Pool::global();
        let grid = smooth_grid(4, 4, 12);
        let mut state = LocalizedState::new(grid.clone(), IflOptions::default(), pool);
        let mismatch = |context| CoreError::Grid(GridError::DimensionMismatch { context });
        let out_of_range = mismatch("dirty cell id out of range");
        let bad_len = mismatch("values length is not cells × attributes");
        assert_eq!(state.apply(&[3, 99], &[150.0, 150.0]).unwrap_err(), out_of_range);
        assert_eq!(state.apply(&[3], &[150.0, 150.0]).unwrap_err(), bad_len);
        assert_eq!(state.apply(&[3, 4], &[150.0]).unwrap_err(), bad_len);
        let bits = |g: &GridDataset| (0..16).map(|id| g.value(id, 0).to_bits()).collect::<Vec<_>>();
        assert_eq!(bits(state.grid()), bits(&grid));
        assert_eq!(state.pending_dirty_cells(), 0);
        crate::incremental::tests::assert_cache_fresh(&state.scan, &state.grid);
        let drv = driver(0.1, IterationStrategy::EveryDistinct);
        let local = drv.run_localized(&mut state, pool).unwrap();
        let batch = drv.run_with_pool(&grid, pool).unwrap();
        assert_eq!(outcome_bits(&local), outcome_bits(&batch));
    }
}
