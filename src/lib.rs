//! # spatial-repartition
//!
//! A from-scratch Rust reproduction of **"A Machine Learning-Aware Data
//! Re-partitioning Framework for Spatial Datasets"** (Chowdhury, Meduri,
//! Sarwat — ICDE 2022), including every substrate the paper's evaluation
//! depends on.
//!
//! The framework coarsens an `m × n` spatial grid by merging adjacent,
//! similar cells into rectangular *cell-groups* while the information loss
//! (a mean-absolute-percentage error, Eq. 3 of the paper) stays under a
//! user threshold `θ`. Training spatial ML models on the coarsened grid cuts
//! training time and memory substantially at a bounded accuracy cost.
//!
//! ## Quick start
//!
//! ```
//! use spatial_repartition::prelude::*;
//!
//! // A 64-cell grid with a smooth value surface.
//! let values: Vec<f64> = (0..64)
//!     .map(|i| 100.0 + (i / 8) as f64 + 0.5 * (i % 8) as f64)
//!     .collect();
//! let grid = GridDataset::univariate(8, 8, values).unwrap();
//!
//! // Re-partition with an IFL budget of 0.05.
//! let outcome = repartition(&grid, 0.05).unwrap();
//! let rep = &outcome.repartitioned;
//! assert!(rep.ifl() <= 0.05);
//! assert!(rep.num_groups() < 64);
//!
//! // Training-ready views: features, centroids, adjacency (Algorithm 3).
//! let prepared = PreparedTrainingData::from_repartitioned(rep);
//! assert_eq!(prepared.adjacency.len(), prepared.len());
//! ```
//!
//! ## Crate map
//!
//! | Re-export | Crate | Contents |
//! |---|---|---|
//! | [`core`] | `sr-core` | the re-partitioning framework (Algorithms 1–3, driver, homogeneous variant) |
//! | [`grid`] | `sr-grid` | grid substrate, Eqs. 1–4, adjacency, autocorrelation |
//! | [`datasets`] | `sr-datasets` | synthetic stand-ins for the paper's four datasets |
//! | [`ml`] | `sr-ml` | spatial lag/error, GWR, SVR, random forest, kriging, boosting, KNN, SCHC, metrics |
//! | [`baselines`] | `sr-baselines` | sampling / regionalization / clustering reducers |
//! | [`linalg`] | `sr-linalg` | dense matrices, LU, Cholesky, least squares |
//! | [`mem`] | `sr-mem` | peak-allocation tracking for the memory experiments |
//! | [`serve`] | `sr-serve` | partition snapshots (`sr-snap` v1 + zero-copy v2, spec in `docs/SNAPSHOT_FORMAT.md`), the online query engine, snapshot cache, HTTP server |
//! | [`ingest`] | `sr-ingest` | out-of-core point-stream ingestion, per-cell collapse binning, incremental dirty-region re-partitioning, live snapshot republishing (contract in `docs/INGESTION.md`) |
//! | [`shard`] | `sr-shard` | sharded serving: Hilbert-contiguous shard splitter, checksummed shard manifest, scatter-gather router with replicas and shard-level degradation |
//! | [`obs`] | `sr-obs` | tracing spans and the metrics registry behind `--trace` and `GET /metrics` |
//! | [`par`] | `sr-par` | deterministic worker-pool substrate (`SR_THREADS`, fixed-grain `par_map`/`par_for`) |
//! | [`fault`] | `sr-fault` | deterministic fault injection (`FaultPlan`) and seeded retry backoff behind the robustness tests |
//!
//! `docs/ARCHITECTURE.md` has the full dependency diagram and a
//! which-crate-do-I-touch table.
//!
//! ## Observability
//!
//! The pipeline (sr-core, sr-grid I/O) and the serving layer (sr-serve) are
//! instrumented with [`obs`]: hierarchical spans report phase timings to a
//! pluggable subscriber, and a process-wide registry accumulates counters
//! and latency histograms. Tracing is off by default and costs one atomic
//! load per span while disabled. `docs/OBSERVABILITY.md` is the contract:
//! span names, metric names/units, bucket layout, and the JSON-lines
//! schema.
//!
//! ```
//! use spatial_repartition::obs;
//! use std::sync::Arc;
//!
//! let collector = Arc::new(obs::MemoryCollector::new());
//! obs::set_subscriber(collector.clone());
//! {
//!     let mut span = obs::span("example.phase");
//!     span.record("items", 3u64);
//! }
//! obs::clear_subscriber();
//! assert_eq!(collector.records()[0].name, "example.phase");
//! ```

pub use sr_baselines as baselines;
pub use sr_core as core;
pub use sr_datasets as datasets;
pub use sr_fault as fault;
pub use sr_grid as grid;
pub use sr_ingest as ingest;
pub use sr_linalg as linalg;
pub use sr_mem as mem;
pub use sr_ml as ml;
pub use sr_obs as obs;
pub use sr_par as par;
pub use sr_serve as serve;
pub use sr_shard as shard;

/// The most common imports in one place.
pub mod prelude {
    pub use sr_baselines::{contiguous_clustering, regionalize, spatial_sampling, ReducedDataset};
    pub use sr_core::{
        quadtree_partition, repartition, CellUpdate, IterationStrategy, LocalizedState,
        PreparedTrainingData, RepartitionConfig, Repartitioned, Repartitioner,
        StreamingRepartitioner, TemporalRepartitioner,
    };
    pub use sr_datasets::{train_test_split, Dataset, GridSize};
    pub use sr_fault::{Backoff, FaultPlan};
    pub use sr_grid::{
        gearys_c, information_loss, join_counts, local_morans_i, morans_i, normalize_attributes,
        read_gal, read_grid, render_heatmap, render_partition, variation_between_typed, write_gal,
        write_grid, AdjacencyList, AggType, Bounds, GridBuilder, GridDataset, IflOptions,
        PointRecord,
    };
    pub use sr_ingest::{Collapse, IngestConfig, IngestEngine, IngestSchema, StreamReader};
    pub use sr_ml::{
        bin_into_quantiles, cluster_agreement, lm_diagnostics, mae, pseudo_r2, rmse, se_regression,
        weighted_f1, GradientBoostingClassifier, Gwr, KnnClassifier, KnnRegressor, OrdinaryKriging,
        RandomForest, SpatialError, SpatialLag, Svr, VariogramModel,
    };
    pub use sr_obs::{span, Registry};
    pub use sr_par::Pool;
    pub use sr_serve::{
        load_snapshot, save_snapshot, serve, serve_cached, QueryEngine, Served, ServerConfig,
        Snapshot, SnapshotCache,
    };
    pub use sr_shard::{
        load_manifest, write_shards, RouterConfig, ShardManifest, ShardRouter, SplitOptions,
    };
}
