//! Shared infrastructure for the experiment binaries (one binary per paper
//! table/figure — see DESIGN.md's per-experiment index).
//!
//! The pieces: [`Units`] normalizes "a training set" across the three data
//! sources the paper compares (original grid, re-partitioned grid, baseline
//! reductions); [`pipeline`] runs one model on one unit set with wall-time
//! and peak-memory instrumentation; [`cli`] parses the tiny
//! `--size/--seed/--quick` argument convention the binaries share; and
//! [`report`] prints aligned text tables.

pub mod cli;
pub mod pipeline;
pub mod report;
pub mod units;

pub use cli::ExpConfig;
pub use pipeline::{
    classification, clustering, kriging_run, regression, ClassModel, ClassResult, ClusterResult,
    KrigingResult, RegModel, RegResult,
};
pub use units::Units;

use sr_core::{IterationStrategy, RepartitionConfig, RepartitionOutcome, Repartitioner};
use sr_grid::GridDataset;

/// Re-partitions `grid` at `theta` with the strategy appropriate for the
/// grid's size ([`IterationStrategy::for_cells`]): the paper-faithful
/// every-distinct walk for small grids, the strided walk with
/// binary-search backoff for large ones (DESIGN.md, substitution 5).
pub fn repartition_auto(grid: &GridDataset, theta: f64) -> RepartitionOutcome {
    let cfg = RepartitionConfig::new(theta)
        .expect("thresholds are validated by callers")
        .with_strategy(IterationStrategy::for_cells(grid.num_cells()));
    Repartitioner::with_config(cfg)
        .expect("config is valid")
        .run(grid)
        .expect("re-partitioning is total for valid thresholds")
}

/// The IFL thresholds the paper evaluates throughout §IV.
pub const PAPER_THRESHOLDS: [f64; 3] = [0.05, 0.10, 0.15];

/// The four reduction methods compared in Tables II–IV, each reduced to the
/// *same* unit count: the paper sets the baselines' target
/// samples/regions/clusters to the cell-group count the re-partitioning
/// framework produced at the given threshold (§IV-A3).
pub fn all_reductions(grid: &GridDataset, theta: f64, seed: u64) -> Vec<(&'static str, Units)> {
    let out = repartition_auto(grid, theta);
    let prep = sr_core::PreparedTrainingData::from_repartitioned(&out.repartitioned);
    let rp_units = Units::from_prepared(&prep, &out.repartitioned);
    let t = rp_units.len().max(2);

    let sampling = sr_baselines::spatial_sampling(grid, t, seed).expect("valid target count");
    let regional = sr_baselines::regionalize(grid, t, seed).expect("valid target count");
    let cluster = sr_baselines::contiguous_clustering(grid, t).expect("valid target count");

    let aggs = grid.agg_types();
    vec![
        ("Re-partitioning", rp_units),
        ("Sampling", Units::from_reduced(&sampling, aggs)),
        ("Regionalization", Units::from_reduced(&regional, aggs)),
        ("Clustering", Units::from_reduced(&cluster, aggs)),
    ]
}

#[cfg(test)]
mod tests;
