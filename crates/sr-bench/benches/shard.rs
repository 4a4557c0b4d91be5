//! Sharded vs unsharded serving on a paper-scale (≈36k-cell) snapshot:
//! point/window/knn latency through a [`sr_shard::ShardRouter`] at
//! `K ∈ {1, 4, 8}` shards against the plain [`sr_serve::QueryEngine`],
//! plus the split/write cost itself. Results are exported to
//! `BENCH_shard.json` at the workspace root; `prior/`-prefixed rows are
//! an earlier round's numbers, compared against in `docs/PERFORMANCE.md`.
//!
//! The acceptance bar (`docs/SHARDING.md`): at `K = 4`, window and knn
//! p50 must be no worse than unsharded. The default (fused fast path)
//! serves all-healthy deployments through the merged engine — those are
//! the `k{K}` rows. The `k{K}_scatter` rows force the per-shard
//! scatter-gather path (`RouterConfig::scatter_only`), which is what a
//! request pays under degradation or in a distributed deployment.
//!
//! Run: `cargo bench -p sr-bench --bench shard`

use criterion::{black_box, Criterion};
use sr_core::{IterationStrategy, RepartitionConfig, Repartitioner};
use sr_datasets::{Dataset, GridSize};
use sr_serve::{QueryBackend, QueryEngine, Snapshot};
use sr_shard::{write_shards, RouterConfig, ShardRouter, SplitOptions};

fn main() {
    let theta = 0.05;
    let grid = Dataset::TaxiMultivariate.generate(GridSize::Cells36k, 1);
    println!(
        "preparing: {}x{} = {} cells, theta {theta}",
        grid.rows(),
        grid.cols(),
        grid.num_cells()
    );
    let cfg = RepartitionConfig::new(theta)
        .unwrap()
        .with_strategy(IterationStrategy::Exponential { initial_stride: 8, growth: 1.6 });
    let start = std::time::Instant::now();
    let outcome = Repartitioner::with_config(cfg).unwrap().run(&grid).unwrap();
    let rep = &outcome.repartitioned;
    println!(
        "repartitioned to {} groups (IFL {:.4}) in {:.1}s",
        rep.num_groups(),
        rep.ifl(),
        start.elapsed().as_secs_f64()
    );
    let snap = Snapshot::build(rep, &grid, theta).unwrap();
    let engine = QueryEngine::new(snap.clone());

    let b = grid.bounds();
    let (lat, lon) = grid.cell_centroid(grid.cell_id(grid.rows() / 2, grid.cols() / 2));
    let lat_span = b.lat_max - b.lat_min;
    let lon_span = b.lon_max - b.lon_min;
    // A window covering roughly 10% of the grid's area.
    let window = (
        b.lat_min + 0.45 * lat_span,
        b.lat_min + 0.65 * lat_span,
        b.lon_min + 0.45 * lon_span,
        b.lon_min + 0.65 * lon_span,
    );

    let mut c = Criterion::default();

    // Unsharded baselines the K-sharded numbers are judged against.
    c.bench_function("shard/point/unsharded", |bench| {
        bench.iter(|| engine.point(black_box(lat), black_box(lon)))
    });
    c.bench_function("shard/window/unsharded", |bench| {
        bench.iter(|| {
            engine.window(
                black_box(window.0),
                black_box(window.1),
                black_box(window.2),
                black_box(window.3),
            )
        })
    });
    c.bench_function("shard/knn/unsharded", |bench| {
        bench.iter(|| engine.knn(black_box(lat), black_box(lon), black_box(8)))
    });

    let base = std::env::temp_dir().join(format!("sr_bench_shard_{}", std::process::id()));
    for k in [1usize, 4, 8] {
        let dir = base.join(format!("k{k}"));
        std::fs::remove_dir_all(&dir).ok();
        let opts = SplitOptions { shards: k, replicas: 1 };
        c.bench_function(&format!("shard/split_write/k{k}"), |bench| {
            bench.iter(|| {
                write_shards(black_box(&snap), &dir, &opts, sr_par::Pool::global()).unwrap()
            })
        });
        let router = ShardRouter::open(dir.join("manifest.txt"), RouterConfig::default()).unwrap();
        c.bench_function(&format!("shard/point/k{k}"), |bench| {
            bench.iter(|| router.point(black_box(lat), black_box(lon)).unwrap())
        });
        c.bench_function(&format!("shard/window/k{k}"), |bench| {
            bench.iter(|| {
                router
                    .window(
                        black_box(window.0),
                        black_box(window.1),
                        black_box(window.2),
                        black_box(window.3),
                    )
                    .unwrap()
            })
        });
        c.bench_function(&format!("shard/knn/k{k}"), |bench| {
            bench.iter(|| router.knn(black_box(lat), black_box(lon), black_box(8)).unwrap())
        });

        // The degraded/distributed cost: same queries with the fused
        // fast path disabled.
        let scatter_config = RouterConfig { scatter_only: true, ..RouterConfig::default() };
        let scatter = ShardRouter::open(dir.join("manifest.txt"), scatter_config).unwrap();
        c.bench_function(&format!("shard/window/k{k}_scatter"), |bench| {
            bench.iter(|| {
                scatter
                    .window(
                        black_box(window.0),
                        black_box(window.1),
                        black_box(window.2),
                        black_box(window.3),
                    )
                    .unwrap()
            })
        });
        c.bench_function(&format!("shard/knn/k{k}_scatter"), |bench| {
            bench.iter(|| scatter.knn(black_box(lat), black_box(lon), black_box(8)).unwrap())
        });
    }
    std::fs::remove_dir_all(&base).ok();

    let out = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_shard.json");
    c.export_json(out).expect("write BENCH_shard.json");
}
