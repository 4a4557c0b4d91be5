//! Spatio-temporal re-partitioning — the paper's §VI future work
//! ("extending support for … spatio-temporal datasets"), realized as
//! partition reuse across a time series of grids.
//!
//! Spatial structure changes slowly relative to attribute values (the same
//! neighborhoods stay homogeneous month over month even as demand levels
//! drift), so the expensive step — finding the partition — can usually be
//! amortized: for each new time step, first re-allocate features for the
//! *previous* partition and check its IFL on the new grid (one O(n) pass);
//! only when the budget breaks does the full driver re-run. The
//! [`StepOutcome::reused`] flag and [`TemporalRepartitioner::reuse_rate`]
//! quantify the savings.

use crate::allocator::allocate_features;
use crate::ifl::partition_ifl;
use crate::partition::Partition;
use crate::repartition::{IterationStrategy, RepartitionConfig, Repartitioned, Repartitioner};
use crate::{CoreError, Result};
use sr_grid::{GridDataset, IflOptions};

/// Result of absorbing one time step.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct StepOutcome {
    /// Whether the previous step's partition was reused (features
    /// re-allocated, no extraction ran).
    pub reused: bool,
    /// Cell-groups after this step.
    pub num_groups: usize,
    /// IFL of this step's grid under the active partition.
    pub ifl: f64,
}

/// Re-partitions a time series of same-shaped grids with partition reuse.
#[derive(Debug, Clone)]
pub struct TemporalRepartitioner {
    threshold: f64,
    strategy: IterationStrategy,
    ifl_options: IflOptions,
    current: Option<Repartitioned>,
    steps: usize,
    reused_steps: usize,
}

impl TemporalRepartitioner {
    /// A temporal driver with the given IFL budget per step.
    pub fn new(threshold: f64) -> Result<Self> {
        // Validate eagerly via the config constructor.
        let config = RepartitionConfig::new(threshold)?;
        Ok(TemporalRepartitioner {
            threshold,
            strategy: config.strategy,
            ifl_options: config.ifl_options,
            current: None,
            steps: 0,
            reused_steps: 0,
        })
    }

    /// Overrides the extraction strategy used on cold steps.
    pub fn with_strategy(mut self, strategy: IterationStrategy) -> Self {
        self.strategy = strategy;
        self
    }

    /// Absorbs the next time step. `grid` must keep the shape and schema of
    /// the previous steps.
    ///
    /// Emits a `temporal.step` span (field `reused` says which path ran)
    /// and bumps `temporal.steps_total` / `temporal.reuses_total`
    /// (`docs/OBSERVABILITY.md`).
    pub fn step(&mut self, grid: &GridDataset) -> Result<StepOutcome> {
        let mut span = sr_obs::span("temporal.step");
        let metrics = sr_obs::Registry::global();
        metrics.counter("temporal.steps_total").inc();
        self.steps += 1;

        // Warm path: try the previous partition on the new values.
        if let Some(prev) = &self.current {
            let partition = prev.partition();
            if partition.rows() == grid.rows()
                && partition.cols() == grid.cols()
                && prev.attr_names().len() == grid.num_attrs()
            {
                if let Some(outcome) = self.try_reuse(grid, partition.clone())? {
                    self.reused_steps += 1;
                    metrics.counter("temporal.reuses_total").inc();
                    span.record("reused", true);
                    span.record("groups", outcome.num_groups);
                    span.record("ifl", outcome.ifl);
                    return Ok(outcome);
                }
            } else {
                return Err(CoreError::Grid(sr_grid::GridError::IncompatibleGrids));
            }
        }

        // Cold path: full extraction.
        let config = RepartitionConfig {
            threshold: self.threshold,
            strategy: self.strategy,
            ifl_options: self.ifl_options,
            max_iterations: usize::MAX,
        };
        let outcome = Repartitioner::with_config(config)?.run(grid)?;
        let rep = outcome.repartitioned;
        let result = StepOutcome { reused: false, num_groups: rep.num_groups(), ifl: rep.ifl() };
        self.current = Some(rep);
        span.record("reused", false);
        span.record("groups", result.num_groups);
        span.record("ifl", result.ifl);
        Ok(result)
    }

    /// Re-allocates features of `partition` for `grid`; adopts it when the
    /// IFL stays within budget. The null-structure must also agree (a group
    /// may not mix null and valid cells after the update).
    fn try_reuse(
        &mut self,
        grid: &GridDataset,
        partition: Partition,
    ) -> Result<Option<StepOutcome>> {
        // Reject reuse when validity changed inside any group (mixed
        // null/valid groups break the framework's invariants).
        for gid in 0..partition.num_groups() as u32 {
            let mut any_valid = false;
            let mut any_null = false;
            for cell in partition.cells_iter(gid) {
                if grid.is_valid(cell) {
                    any_valid = true;
                } else {
                    any_null = true;
                }
            }
            if any_valid && any_null {
                return Ok(None);
            }
        }
        let features = allocate_features(grid, &partition);
        let ifl = partition_ifl(grid, &partition, &features, self.ifl_options);
        if ifl > self.threshold {
            return Ok(None);
        }
        let num_groups = partition.num_groups();
        self.current = Some(Repartitioned::from_parts(
            grid,
            partition,
            features,
            ifl,
            self.current.as_ref().map_or(0.0, |r| r.min_adjacent_variation()),
        ));
        Ok(Some(StepOutcome { reused: true, num_groups, ifl }))
    }

    /// The re-partitioned state of the latest step.
    pub fn current(&self) -> Option<&Repartitioned> {
        self.current.as_ref()
    }

    /// Steps absorbed so far.
    pub fn steps(&self) -> usize {
        self.steps
    }

    /// Fraction of steps served by partition reuse.
    pub fn reuse_rate(&self) -> f64 {
        if self.steps == 0 {
            0.0
        } else {
            self.reused_steps as f64 / self.steps as f64
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A drifting series: step t = base field scaled by (1 + t·drift).
    fn series(steps: usize, drift: f64, n: usize) -> Vec<GridDataset> {
        let base: Vec<f64> =
            (0..n * n).map(|i| 100.0 + (i / n) as f64 * 0.5 + (i % n) as f64 * 0.3).collect();
        (0..steps)
            .map(|t| {
                let vals: Vec<f64> = base.iter().map(|v| v * (1.0 + drift * t as f64)).collect();
                GridDataset::univariate(n, n, vals).unwrap()
            })
            .collect()
    }

    #[test]
    fn smooth_drift_reuses_the_partition() {
        // Proportional scaling preserves *relative* errors exactly, so the
        // warm path should serve every step after the first.
        let grids = series(6, 0.02, 12);
        let mut t = TemporalRepartitioner::new(0.05).unwrap();
        for (i, g) in grids.iter().enumerate() {
            let out = t.step(g).unwrap();
            assert!(out.ifl <= 0.05);
            assert_eq!(out.reused, i > 0, "step {i}");
        }
        assert!((t.reuse_rate() - 5.0 / 6.0).abs() < 1e-12);
    }

    #[test]
    fn structural_break_forces_reextraction() {
        let n = 12;
        let grids = series(2, 0.0, n);
        let mut t = TemporalRepartitioner::new(0.05).unwrap();
        t.step(&grids[0]).unwrap();
        let groups_before = t.current().unwrap().num_groups();
        assert!(groups_before < n * n, "first step should merge");

        // A hostile step: checkerboard, nothing merges within budget.
        let vals: Vec<f64> =
            (0..n * n).map(|i| if (i / n + i % n) % 2 == 0 { 1.0 } else { 1000.0 }).collect();
        let hostile = GridDataset::univariate(n, n, vals).unwrap();
        let out = t.step(&hostile).unwrap();
        assert!(!out.reused, "break must trigger re-extraction");
        assert!(out.ifl <= 0.05);
        assert_eq!(out.num_groups, n * n, "checkerboard cannot merge");
    }

    #[test]
    fn validity_change_inside_group_blocks_reuse() {
        let grids = series(1, 0.0, 10);
        let mut t = TemporalRepartitioner::new(0.05).unwrap();
        t.step(&grids[0]).unwrap();
        // Find a multi-cell group and null one of its cells.
        let rep = t.current().unwrap();
        let gid = (0..rep.num_groups() as u32)
            .find(|&g| rep.partition().rect(g).len() > 1)
            .expect("some group merged");
        let cell = rep.partition().cells_of(gid)[0];
        let mut g2 = grids[0].clone();
        g2.set_null(cell);
        let out = t.step(&g2).unwrap();
        assert!(!out.reused, "mixed null/valid group must force re-extraction");
        assert!(out.ifl <= 0.05);
    }

    #[test]
    fn incompatible_shapes_rejected() {
        let grids = series(1, 0.0, 10);
        let mut t = TemporalRepartitioner::new(0.05).unwrap();
        t.step(&grids[0]).unwrap();
        let other = GridDataset::univariate(5, 5, vec![1.0; 25]).unwrap();
        assert!(matches!(
            t.step(&other),
            Err(CoreError::Grid(sr_grid::GridError::IncompatibleGrids))
        ));
    }

    #[test]
    fn reuse_rate_bookkeeping() {
        let grids = series(4, 0.01, 8);
        let mut t = TemporalRepartitioner::new(0.08).unwrap();
        for g in &grids {
            t.step(g).unwrap();
        }
        assert_eq!(t.steps(), 4);
        assert!(t.reuse_rate() >= 0.5);
    }
}
