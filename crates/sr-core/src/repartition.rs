//! The iterative re-partitioning driver (§III-A, Fig. 2).
//!
//! Each iteration pops the next min-adjacent variation, extracts cell-groups
//! (Algorithm 1), allocates group features (Algorithm 2), and computes the
//! IFL (Eq. 3). Iterations continue while `IFL ≤ θ`; the *last accepted*
//! partition is returned — the driver never emits a partition above the
//! user's loss threshold.
//!
//! This module owns the walk order ([`IterationStrategy`], the warm
//! start); the per-threshold evaluation is the localized walk of
//! [`crate::localized`], which a batch run drives from a cold state.
//!
//! Two iteration strategies are provided (DESIGN.md, substitution 5):
//!
//! - [`IterationStrategy::EveryDistinct`] — the paper-faithful walk over
//!   every distinct heap value.
//! - [`IterationStrategy::Exponential`] — a strided walk with binary-search
//!   backoff on first rejection, for 100k-cell benchmark runs where the
//!   distinct-value count makes the faithful walk quadratic in practice.

use crate::allocator::GroupFeatures;
use crate::group_adjacency::group_adjacency;
use crate::incremental::ScanCache;
use crate::localized::WalkCaches;
use crate::partition::{GroupId, Partition};
use crate::reconstruct::reconstruct_grid;
use crate::{CoreError, Result};
use sr_grid::{normalize_attributes, AdjacencyList, GridDataset, IflOptions};

/// How the driver walks the ascending sequence of distinct min-adjacent
/// variations.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub enum IterationStrategy {
    /// One extraction per distinct variation value — the paper's loop.
    #[default]
    EveryDistinct,
    /// Start with `initial_stride`, multiply by `growth` after each accepted
    /// iteration, and binary-search the skipped range on first rejection.
    /// Reaches the same neighborhood of the loss budget in O(log #values)
    /// extractions instead of O(#values).
    Exponential {
        /// First stride through the sorted distinct variations (≥ 1).
        initial_stride: usize,
        /// Stride growth factor (finite, > 1.0).
        growth: f64,
    },
}

impl IterationStrategy {
    /// The strided walk used for large grids and by `srtool --strided`.
    pub const STRIDED: IterationStrategy =
        IterationStrategy::Exponential { initial_stride: 8, growth: 1.6 };

    /// The default walk for a grid of `num_cells` cells: the paper's
    /// every-distinct loop up to 2,000 cells, [`IterationStrategy::STRIDED`]
    /// above. Every size-based default in the workspace (the CLI, the
    /// ingestion engine, the streaming tier, the experiment binaries) goes
    /// through here, so they agree on the partition for the same data.
    pub fn for_cells(num_cells: usize) -> Self {
        if num_cells > 2_000 {
            IterationStrategy::STRIDED
        } else {
            IterationStrategy::EveryDistinct
        }
    }
}

/// Which walk order [`Repartitioner::drive_walk`] ended up running.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum WalkKind {
    /// Cold walk from the bottom of the threshold list.
    Full,
    /// Warm walk expanded outward from the hinted variation.
    Warm,
    /// A hint was supplied but sat below every current threshold; the full
    /// walk ran instead.
    WarmMiss,
}

/// Configuration of a re-partitioning run.
#[derive(Debug, Clone)]
pub struct RepartitionConfig {
    /// User-specified IFL threshold `θ ∈ (0, 1]` (§I: low values mean low
    /// dissimilarity and longer training; high values mean more reduction).
    pub threshold: f64,
    /// Iteration strategy (see above).
    pub strategy: IterationStrategy,
    /// IFL options (zero-denominator handling).
    pub ifl_options: IflOptions,
    /// Hard cap on extraction passes (safety valve; `usize::MAX` = none).
    pub max_iterations: usize,
}

impl RepartitionConfig {
    /// Paper-faithful defaults for a given threshold.
    pub fn new(threshold: f64) -> Result<Self> {
        if !(threshold > 0.0 && threshold <= 1.0) {
            return Err(CoreError::InvalidThreshold(threshold));
        }
        Ok(RepartitionConfig {
            threshold,
            strategy: IterationStrategy::EveryDistinct,
            ifl_options: IflOptions::default(),
            max_iterations: usize::MAX,
        })
    }

    /// Replaces the iteration strategy.
    pub fn with_strategy(mut self, strategy: IterationStrategy) -> Self {
        self.strategy = strategy;
        self
    }
}

/// Statistics of one driver iteration (one extraction pass).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct IterationStats {
    /// The min-adjacent variation used by this pass.
    pub min_adjacent_variation: f64,
    /// Number of cell-groups the pass produced.
    pub num_groups: usize,
    /// IFL of the pass's re-partitioned dataset.
    pub ifl: f64,
    /// Whether `ifl ≤ threshold` (the pass became the new best result).
    pub accepted: bool,
}

/// The accepted re-partitioned dataset: the partition, its allocated group
/// features, and the schema carried over from the input grid.
#[derive(Debug, Clone)]
pub struct Repartitioned {
    partition: Partition,
    /// The flat feature arena the walk materialized for its winner.
    features: GroupFeatures,
    ifl: f64,
    min_adjacent_variation: f64,
    attr_names: Vec<String>,
    agg_types: Vec<sr_grid::AggType>,
    integer_attrs: Vec<bool>,
    bounds: sr_grid::Bounds,
}

impl Repartitioned {
    pub(crate) fn from_parts(
        grid: &GridDataset,
        partition: Partition,
        features: GroupFeatures,
        ifl: f64,
        min_adjacent_variation: f64,
    ) -> Self {
        Repartitioned {
            partition,
            features,
            ifl,
            min_adjacent_variation,
            attr_names: grid.attr_names().to_vec(),
            agg_types: grid.agg_types().to_vec(),
            integer_attrs: grid.integer_attrs().to_vec(),
            bounds: grid.bounds(),
        }
    }

    /// The partition (`gIndex` + `cIndex`).
    pub fn partition(&self) -> &Partition {
        &self.partition
    }

    /// Allocated group features: one row per group, `None` rows for null
    /// groups ([`GroupFeatures::row`]).
    pub fn features(&self) -> &GroupFeatures {
        &self.features
    }

    /// Feature vector of one group.
    pub fn group_feature(&self, g: GroupId) -> Option<&[f64]> {
        self.features.row(g as usize)
    }

    /// IFL of this re-partitioned dataset w.r.t. the input grid.
    pub fn ifl(&self) -> f64 {
        self.ifl
    }

    /// The min-adjacent variation of the accepted iteration.
    pub fn min_adjacent_variation(&self) -> f64 {
        self.min_adjacent_variation
    }

    /// Total number of cell-groups.
    pub fn num_groups(&self) -> usize {
        self.partition.num_groups()
    }

    /// Number of non-null cell-groups (the training instances).
    pub fn num_valid_groups(&self) -> usize {
        self.features.num_valid_groups()
    }

    /// Attribute names carried from the input.
    pub fn attr_names(&self) -> &[String] {
        &self.attr_names
    }

    /// Aggregation types carried from the input.
    pub fn agg_types(&self) -> &[sr_grid::AggType] {
        &self.agg_types
    }

    /// Integer-typed flags carried from the input.
    pub fn integer_attrs(&self) -> &[bool] {
        &self.integer_attrs
    }

    /// Geographic bounds carried from the input.
    pub fn bounds(&self) -> sr_grid::Bounds {
        self.bounds
    }

    /// Cell-group adjacency list (Algorithm 3), over *all* groups.
    pub fn adjacency(&self) -> AdjacencyList {
        group_adjacency(&self.partition)
    }

    /// Reconstructs the full-resolution grid of representative cell values
    /// (§III-C). `original` must be the grid this result was computed from.
    pub fn reconstruct(&self, original: &GridDataset) -> Result<GridDataset> {
        Ok(reconstruct_grid(original, &self.partition, &self.features)?)
    }
}

/// Outcome of a full re-partitioning run.
#[derive(Debug, Clone)]
pub struct RepartitionOutcome {
    /// The accepted re-partitioned dataset.
    pub repartitioned: Repartitioned,
    /// Per-iteration statistics in execution order.
    pub iterations: Vec<IterationStats>,
    /// Number of cells in the input grid.
    pub input_cells: usize,
}

impl RepartitionOutcome {
    /// Fraction of spatial cells removed: `1 − t / (m·n)` (the paper's
    /// "spatial cell reduction" metric, §IV-A1).
    pub fn cell_reduction(&self) -> f64 {
        1.0 - self.repartitioned.num_groups() as f64 / self.input_cells as f64
    }
}

/// The re-partitioning driver.
#[derive(Debug, Clone)]
pub struct Repartitioner {
    config: RepartitionConfig,
}

impl Repartitioner {
    /// Driver with paper-faithful defaults for the given IFL threshold.
    pub fn new(threshold: f64) -> Result<Self> {
        Ok(Repartitioner { config: RepartitionConfig::new(threshold)? })
    }

    /// Driver with an explicit configuration.
    pub fn with_config(config: RepartitionConfig) -> Result<Self> {
        if !(config.threshold > 0.0 && config.threshold <= 1.0) {
            return Err(CoreError::InvalidThreshold(config.threshold));
        }
        if let IterationStrategy::Exponential { initial_stride, growth } = config.strategy {
            if initial_stride == 0 || !(growth.is_finite() && growth > 1.0) {
                return Err(CoreError::InvalidStrategy { initial_stride, growth });
            }
        }
        Ok(Repartitioner { config })
    }

    /// Runs the full pipeline of Fig. 2 on `grid`.
    ///
    /// Emits the documented telemetry (`docs/OBSERVABILITY.md`): a
    /// `repartition.run` span with `normalize` / `variation_scan` /
    /// `merge_loop` children, plus `repartition.*_total` counters in the
    /// global metrics registry.
    ///
    /// Parallel stages (variation scan, feature allocation, IFL) run on
    /// [`sr_par::Pool::global`]; the result is bit-identical at any thread
    /// count (see `docs/PERFORMANCE.md`).
    pub fn run(&self, grid: &GridDataset) -> Result<RepartitionOutcome> {
        self.run_with_pool(grid, sr_par::Pool::global())
    }

    /// [`Repartitioner::run`] on an explicit [`sr_par::Pool`] — used by the
    /// determinism property tests to compare thread counts side by side.
    pub fn run_with_pool(
        &self,
        grid: &GridDataset,
        pool: &sr_par::Pool,
    ) -> Result<RepartitionOutcome> {
        self.run_with_pool_warm(grid, pool, None)
    }

    /// [`Repartitioner::run_with_pool`] with a warm-start hint: under the
    /// [`IterationStrategy::Exponential`] strategy the threshold walk starts
    /// at the hinted variation and expands outward instead of striding up
    /// from the bottom (see `docs/INGESTION.md`'s "The localized walk").
    /// The hinted walk is a first-class walk order, not an approximation: a
    /// hinted run is the bit-exact reference for
    /// [`Repartitioner::run_localized`] under the same hint. With `None`
    /// (or the [`IterationStrategy::EveryDistinct`] strategy) this is
    /// exactly [`Repartitioner::run_with_pool`].
    ///
    /// A batch run is a *cold* localized walk — the same per-threshold
    /// evaluation [`Repartitioner::run_localized`] runs, over freshly built
    /// scan inputs of the borrowed `grid` and fresh walk caches, so every
    /// extraction is a full scan and every group is built.
    pub fn run_with_pool_warm(
        &self,
        grid: &GridDataset,
        pool: &sr_par::Pool,
        warm_hint: Option<f64>,
    ) -> Result<RepartitionOutcome> {
        sr_obs::Registry::global().counter("repartition.runs_total").inc();

        let mut run_span = sr_obs::span("repartition.run");
        run_span.record("cells", grid.num_cells());
        run_span.record("threshold", self.config.threshold);

        let normalized = {
            let _span = sr_obs::span("repartition.normalize");
            normalize_attributes(grid)
        };
        let mut caches = WalkCaches::default();
        let scan = {
            let mut scan_span = sr_obs::span("repartition.variation_scan");
            let scan = ScanCache::from_normalized(grid, &normalized, self.config.ifl_options, pool);
            scan_span.record("distinct_variations", caches.begin_run(&scan));
            scan
        };
        drop(normalized);

        let (outcome, _) = self.walk_localized(grid, &scan, &mut caches, &[], warm_hint, pool);
        run_span.record("groups", outcome.repartitioned.num_groups());
        run_span.record("ifl", outcome.repartitioned.ifl());
        Ok(outcome)
    }

    /// Walks the sorted distinct thresholds, dispatching one `evaluate`
    /// call per probed index. All walk-order decisions live here, so a
    /// shared `(thresholds, warm_hint)` pair forces a bit-identical probe
    /// sequence.
    ///
    /// With a hint under [`IterationStrategy::Exponential`], the warm walk
    /// is tried first and the full walk runs only when the warm window
    /// misses (hint below every current threshold). Any other combination
    /// goes straight to the full walk.
    pub(crate) fn drive_walk(
        &self,
        thresholds: &[f64],
        warm_hint: Option<f64>,
        iterations: &mut Vec<IterationStats>,
        evaluate: &mut dyn FnMut(f64) -> IterationStats,
    ) -> WalkKind {
        if let (Some(hint), IterationStrategy::Exponential { .. }) =
            (warm_hint, self.config.strategy)
        {
            if self.walk_warm(thresholds, hint, iterations, evaluate) {
                return WalkKind::Warm;
            }
            self.walk_full(thresholds, iterations, evaluate);
            return WalkKind::WarmMiss;
        }
        self.walk_full(thresholds, iterations, evaluate);
        WalkKind::Full
    }

    /// The cold walk: the paper's every-distinct loop, or the strided walk
    /// with binary-search backoff.
    fn walk_full(
        &self,
        thresholds: &[f64],
        iterations: &mut Vec<IterationStats>,
        evaluate: &mut dyn FnMut(f64) -> IterationStats,
    ) {
        match self.config.strategy {
            IterationStrategy::EveryDistinct => {
                for &theta in thresholds {
                    if iterations.len() >= self.config.max_iterations {
                        break;
                    }
                    let stats = evaluate(theta);
                    let stop = !stats.accepted || stats.num_groups <= 1;
                    iterations.push(stats);
                    if stop {
                        break;
                    }
                }
            }
            IterationStrategy::Exponential { initial_stride, growth } => {
                let mut idx = 0usize;
                let mut stride = initial_stride;
                let mut last_accepted: Option<usize> = None;
                let mut rejected: Option<usize> = None;
                while idx < thresholds.len() && iterations.len() < self.config.max_iterations {
                    let stats = evaluate(thresholds[idx]);
                    let accepted = stats.accepted;
                    let single = stats.num_groups <= 1;
                    iterations.push(stats);
                    if !accepted {
                        rejected = Some(idx);
                        break;
                    }
                    last_accepted = Some(idx);
                    if single || idx == thresholds.len() - 1 {
                        break;
                    }
                    // Clamp to the final threshold so the coarsest candidate
                    // is always evaluated before the walk ends; a stride
                    // near `usize::MAX` saturates onto it.
                    idx = idx.saturating_add(stride).min(thresholds.len() - 1);
                    stride = ((stride as f64 * growth) as usize).max(stride.saturating_add(1));
                }
                // Binary-search the skipped range for the coarsest accepted
                // threshold (IFL is near-monotone in the variation).
                if let Some(rej) = rejected {
                    let lo = last_accepted.map_or(0, |i| i + 1);
                    let hi = rej.saturating_sub(1);
                    self.bisect(thresholds, lo, hi, iterations, evaluate);
                }
            }
        }
    }

    /// The warm walk: probe the previously accepted variation, then expand
    /// outward with geometric steps — upward while the hint still holds,
    /// downward when it no longer does — and binary-search the final
    /// bracket. The first step is a single position (a hint that did not
    /// move at all costs two evaluations), after which the step grows ×8
    /// per probe: the bisect bracket is bounded by the last step either
    /// way, so aggressive growth trims the expansion leg from `log2(d)` to
    /// `log8(d)` probes for a drift of `d` positions without widening the
    /// bracket's `log2(d)` search. Returns `false` (without evaluating
    /// anything) when the hint sits below every current threshold, i.e.
    /// the warm window missed and the caller must run the full walk.
    fn walk_warm(
        &self,
        thresholds: &[f64],
        hint: f64,
        iterations: &mut Vec<IterationStats>,
        evaluate: &mut dyn FnMut(f64) -> IterationStats,
    ) -> bool {
        let hint_key = crate::heap::sort_key(hint);
        // Largest index whose threshold is ≤ the hint, by total order on
        // the raw bits (the thresholds are distinct and ascending).
        let above = thresholds.partition_point(|&t| crate::heap::sort_key(t) <= hint_key);
        if above == 0 {
            return false;
        }
        let i0 = above - 1;
        let cap = self.config.max_iterations;
        if iterations.len() >= cap {
            return true;
        }
        let first = evaluate(thresholds[i0]);
        let (accepted, single) = (first.accepted, first.num_groups <= 1);
        iterations.push(first);
        if accepted {
            if single {
                return true;
            }
            // Expand upward: the accepted θ rarely moves far between runs.
            let mut last_acc = i0;
            let mut step = 1usize;
            let mut first_rej: Option<usize> = None;
            while last_acc < thresholds.len() - 1 && iterations.len() < cap {
                let j = (last_acc + step).min(thresholds.len() - 1);
                let stats = evaluate(thresholds[j]);
                let accepted = stats.accepted;
                let single = stats.num_groups <= 1;
                iterations.push(stats);
                if !accepted {
                    first_rej = Some(j);
                    break;
                }
                last_acc = j;
                if single {
                    return true;
                }
                step = step.saturating_mul(8);
            }
            if let Some(rej) = first_rej {
                self.bisect(thresholds, last_acc + 1, rej.saturating_sub(1), iterations, evaluate);
            }
        } else {
            // Hint rejected: expand downward until something is accepted
            // (or the bottom of the threshold list rejects — identity).
            let mut first_rej = i0;
            let mut step = 1usize;
            while first_rej > 0 && iterations.len() < cap {
                let j = first_rej.saturating_sub(step);
                let stats = evaluate(thresholds[j]);
                let accepted = stats.accepted;
                let single = stats.num_groups <= 1;
                iterations.push(stats);
                if accepted {
                    if !single {
                        self.bisect(
                            thresholds,
                            j + 1,
                            first_rej.saturating_sub(1),
                            iterations,
                            evaluate,
                        );
                    }
                    return true;
                }
                if j == 0 {
                    break;
                }
                first_rej = j;
                step = step.saturating_mul(8);
            }
        }
        true
    }

    /// The shared binary-search backoff over an unevaluated `[lo, hi]`
    /// index bracket — identical accept/reject stepping to the inline
    /// search the Exponential walk has always used.
    fn bisect(
        &self,
        thresholds: &[f64],
        lo: usize,
        hi: usize,
        iterations: &mut Vec<IterationStats>,
        evaluate: &mut dyn FnMut(f64) -> IterationStats,
    ) {
        let mut lo = lo;
        let mut hi = hi;
        while lo <= hi && hi < thresholds.len() {
            if iterations.len() >= self.config.max_iterations {
                break;
            }
            let mid = lo + (hi - lo) / 2;
            let stats = evaluate(thresholds[mid]);
            let accepted = stats.accepted;
            iterations.push(stats);
            if accepted {
                lo = mid + 1;
            } else {
                if mid == 0 {
                    break;
                }
                hi = mid - 1;
            }
        }
    }

    /// The configured IFL options.
    pub fn ifl_options(&self) -> IflOptions {
        self.config.ifl_options
    }

    /// The configured loss threshold θ.
    pub fn threshold(&self) -> f64 {
        self.config.threshold
    }
}

/// One-call convenience: re-partition `grid` at `threshold` with defaults.
///
/// ```
/// use sr_core::repartition;
/// use sr_grid::GridDataset;
/// // A near-uniform surface merges heavily under a 5% loss budget.
/// let vals: Vec<f64> = (0..64).map(|i| 100.0 + (i / 8) as f64).collect();
/// let grid = GridDataset::univariate(8, 8, vals).unwrap();
/// let out = repartition(&grid, 0.05).unwrap();
/// assert!(out.repartitioned.ifl() <= 0.05);
/// assert!(out.repartitioned.num_groups() < 64);
/// ```
pub fn repartition(grid: &GridDataset, threshold: f64) -> Result<RepartitionOutcome> {
    Repartitioner::new(threshold)?.run(grid)
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::{rngs::SmallRng, Rng, SeedableRng};

    fn smooth_grid(rows: usize, cols: usize, seed: u64) -> GridDataset {
        // Smooth field + small noise: realistic autocorrelated input.
        let mut rng = SmallRng::seed_from_u64(seed);
        let vals: Vec<f64> = (0..rows * cols)
            .map(|i| {
                let (r, c) = (i / cols, i % cols);
                100.0 + (r as f64 * 0.8) + (c as f64 * 0.5) + rng.gen_range(-0.5..0.5)
            })
            .collect();
        GridDataset::univariate(rows, cols, vals).unwrap()
    }

    #[test]
    fn strided_cutover_sits_above_2000_cells() {
        assert_eq!(IterationStrategy::for_cells(0), IterationStrategy::EveryDistinct);
        assert_eq!(IterationStrategy::for_cells(2_000), IterationStrategy::EveryDistinct);
        assert_eq!(IterationStrategy::for_cells(2_001), IterationStrategy::STRIDED);
        assert_eq!(IterationStrategy::for_cells(102_400), IterationStrategy::STRIDED);
    }

    #[test]
    fn threshold_validation() {
        assert!(Repartitioner::new(0.0).is_err());
        assert!(Repartitioner::new(-0.1).is_err());
        assert!(Repartitioner::new(1.5).is_err());
        assert!(Repartitioner::new(0.05).is_ok());
        assert!(Repartitioner::new(1.0).is_ok());
    }

    #[test]
    fn result_respects_threshold() {
        let g = smooth_grid(12, 12, 1);
        for theta in [0.01, 0.05, 0.1, 0.15] {
            let out = repartition(&g, theta).unwrap();
            assert!(
                out.repartitioned.ifl() <= theta,
                "IFL {} exceeds threshold {theta}",
                out.repartitioned.ifl()
            );
        }
    }

    #[test]
    fn reduces_cells_on_smooth_data() {
        let g = smooth_grid(16, 16, 2);
        let out = repartition(&g, 0.05).unwrap();
        assert!(out.repartitioned.num_groups() < g.num_cells());
        assert!(out.cell_reduction() > 0.2, "reduction {}", out.cell_reduction());
    }

    #[test]
    fn higher_threshold_gives_no_more_groups() {
        let g = smooth_grid(14, 14, 3);
        let a = repartition(&g, 0.05).unwrap();
        let b = repartition(&g, 0.15).unwrap();
        assert!(b.repartitioned.num_groups() <= a.repartitioned.num_groups());
    }

    #[test]
    fn iteration_stats_are_coherent() {
        let g = smooth_grid(10, 10, 4);
        let out = repartition(&g, 0.08).unwrap();
        assert!(!out.iterations.is_empty());
        // Variations strictly ascend for EveryDistinct.
        for w in out.iterations.windows(2) {
            assert!(w[1].min_adjacent_variation > w[0].min_adjacent_variation);
        }
        // At most the final iteration is rejected.
        for it in &out.iterations[..out.iterations.len() - 1] {
            assert!(it.accepted);
        }
    }

    #[test]
    fn constant_grid_collapses_to_one_group() {
        let g = GridDataset::univariate(6, 6, vec![5.0; 36]).unwrap();
        let out = repartition(&g, 0.05).unwrap();
        assert_eq!(out.repartitioned.num_groups(), 1);
        assert_eq!(out.repartitioned.ifl(), 0.0);
    }

    #[test]
    fn hostile_grid_falls_back_to_identity() {
        // Checkerboard of wildly different values: no merge can stay under
        // a small threshold, so the identity partition comes back.
        let vals: Vec<f64> =
            (0..36).map(|i| if (i / 6 + i % 6) % 2 == 0 { 1.0 } else { 1000.0 }).collect();
        let g = GridDataset::univariate(6, 6, vals).unwrap();
        let out = repartition(&g, 0.01).unwrap();
        assert_eq!(out.repartitioned.num_groups(), 36);
        assert_eq!(out.repartitioned.ifl(), 0.0);
        assert_eq!(out.cell_reduction(), 0.0);
    }

    #[test]
    fn exponential_strategy_matches_threshold_guarantee() {
        let g = smooth_grid(16, 16, 5);
        let cfg = RepartitionConfig::new(0.1)
            .unwrap()
            .with_strategy(IterationStrategy::Exponential { initial_stride: 4, growth: 2.0 });
        let out = Repartitioner::with_config(cfg).unwrap().run(&g).unwrap();
        assert!(out.repartitioned.ifl() <= 0.1);
        assert!(out.repartitioned.num_groups() < g.num_cells());
    }

    #[test]
    fn exponential_close_to_faithful() {
        let g = smooth_grid(14, 14, 6);
        let faithful = repartition(&g, 0.1).unwrap();
        let cfg = RepartitionConfig::new(0.1)
            .unwrap()
            .with_strategy(IterationStrategy::Exponential { initial_stride: 2, growth: 1.5 });
        let fast = Repartitioner::with_config(cfg).unwrap().run(&g).unwrap();
        // The strided walk with backoff must land within a modest factor of
        // the faithful group count (usually identical).
        let f = faithful.repartitioned.num_groups() as f64;
        let s = fast.repartitioned.num_groups() as f64;
        assert!(s <= f * 1.5 + 2.0, "fast {s} vs faithful {f}");
        // And far fewer extraction passes.
        assert!(fast.iterations.len() <= faithful.iterations.len());
    }

    #[test]
    fn null_cells_survive_pipeline() {
        let mut g = smooth_grid(8, 8, 7);
        for id in [0u32, 1, 8, 9, 30] {
            g.set_null(id);
        }
        let out = repartition(&g, 0.1).unwrap();
        let rep = &out.repartitioned;
        // Null cells map to null groups.
        for id in [0u32, 1, 8, 9, 30] {
            let gid = rep.partition().group_of(id);
            assert!(rep.group_feature(gid).is_none());
        }
        // Valid cells map to featured groups.
        let gid = rep.partition().group_of(35);
        assert!(rep.group_feature(gid).is_some());
        assert!(rep.num_valid_groups() < rep.num_groups());
    }

    fn exponential(initial_stride: usize, growth: f64) -> RepartitionConfig {
        RepartitionConfig::new(0.1)
            .unwrap()
            .with_strategy(IterationStrategy::Exponential { initial_stride, growth })
    }

    #[test]
    fn zero_stride_is_an_invalid_strategy() {
        let err = Repartitioner::with_config(exponential(0, 2.0)).unwrap_err();
        assert_eq!(err, CoreError::InvalidStrategy { initial_stride: 0, growth: 2.0 });
    }

    #[test]
    fn growth_must_be_finite_and_above_one() {
        for growth in [f64::NAN, f64::INFINITY, 1.0, 0.5, -3.0] {
            let err = Repartitioner::with_config(exponential(4, growth)).unwrap_err();
            assert!(
                matches!(err, CoreError::InvalidStrategy { initial_stride: 4, .. }),
                "growth {growth}: {err:?}"
            );
        }
        assert!(Repartitioner::with_config(exponential(1, 1.0 + 1e-9)).is_ok());
    }

    #[test]
    fn huge_stride_jumps_to_the_last_threshold_and_bisects() {
        let g = smooth_grid(12, 12, 10);
        // θ = 0.01: the finest threshold is accepted, the coarsest (one
        // group over a ~15% value range) is not.
        let cfg =
            RepartitionConfig::new(0.01).unwrap().with_strategy(IterationStrategy::Exponential {
                initial_stride: usize::MAX,
                growth: 2.0,
            });
        let out = Repartitioner::with_config(cfg).unwrap().run(&g).unwrap();
        assert!(out.repartitioned.ifl() <= 0.01);
        // The first probe is the bottom threshold, the second the top one.
        assert!(out.iterations[0].accepted);
        let top = out.iterations[1].min_adjacent_variation;
        assert!(out.iterations.iter().all(|it| it.min_adjacent_variation <= top));
        // The top threshold is rejected, so the walk bisects the range in
        // between and keeps a partition coarser than the first probe's.
        assert!(!out.iterations[1].accepted);
        assert!(out.iterations.len() > 2);
        assert!(out.repartitioned.num_groups() < out.iterations[0].num_groups);
    }

    #[test]
    fn max_iterations_cap_respected() {
        let g = smooth_grid(10, 10, 8);
        let mut cfg = RepartitionConfig::new(0.5).unwrap();
        cfg.max_iterations = 3;
        let out = Repartitioner::with_config(cfg).unwrap().run(&g).unwrap();
        assert!(out.iterations.len() <= 3);
    }

    #[test]
    fn multivariate_pipeline_end_to_end() {
        use sr_grid::{AggType, Bounds};
        let mut rng = SmallRng::seed_from_u64(9);
        let (rows, cols, p) = (10, 10, 3);
        let mut data = Vec::with_capacity(rows * cols * p);
        for i in 0..rows * cols {
            let base = (i / cols) as f64;
            data.push(50.0 + base + rng.gen_range(-0.2..0.2)); // avg attr
            data.push((10 + i % 5) as f64); // count attr
            data.push(200.0 - base * 2.0 + rng.gen_range(-0.3..0.3));
        }
        let g = GridDataset::new(
            rows,
            cols,
            p,
            data,
            vec![true; rows * cols],
            vec!["a".into(), "b".into(), "c".into()],
            vec![AggType::Avg, AggType::Sum, AggType::Avg],
            vec![false, false, false],
            Bounds::unit(),
        )
        .unwrap();
        let out = repartition(&g, 0.1).unwrap();
        assert!(out.repartitioned.ifl() <= 0.1);
        assert!(out.repartitioned.num_groups() < 100);
        // Reconstruction round-trips to the same IFL bits.
        let rec = out.repartitioned.reconstruct(&g).unwrap();
        let ifl = sr_grid::information_loss(&g, &rec, IflOptions::default()).unwrap();
        assert_eq!(ifl.to_bits(), out.repartitioned.ifl().to_bits());
    }
}
