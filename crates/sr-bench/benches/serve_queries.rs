//! Serving-path benchmarks on a paper-scale (≈36k-cell) snapshot:
//! snapshot build from an accepted outcome, snapshot encode/decode for
//! both `sr-snap` formats, query-engine construction (`QueryEngine::new`
//! over an owned snapshot is an in-memory v2 encode plus validation;
//! loading v2 bytes is validation alone; cloning a validated engine
//! shares its buffer), and the three online query kinds. Results are
//! exported to `BENCH_serve.json` at the workspace root; `seed/`- and
//! `prior/`-prefixed rows are earlier rounds' numbers, compared against
//! in `docs/PERFORMANCE.md`.
//!
//! Run: `cargo bench -p sr-bench --bench serve_queries`

use criterion::{black_box, Criterion};
use sr_core::{IterationStrategy, RepartitionConfig, Repartitioner};
use sr_datasets::{Dataset, GridSize};
use sr_serve::{
    snapshot_from_bytes, snapshot_to_bytes, snapshot_to_bytes_v2, snapshot_v2_from_bytes,
    QueryEngine, Snapshot,
};

fn main() {
    let size = GridSize::Cells36k;
    let theta = 0.05;
    let grid = Dataset::TaxiMultivariate.generate(size, 1);
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
    let bytes = snapshot_to_bytes(&snap);
    let bytes_v2 = snapshot_to_bytes_v2(&snap);
    println!("snapshot: {} bytes v1, {} bytes v2\n", bytes.len(), bytes_v2.len());
    let engine = QueryEngine::new(snap.clone());
    let b = grid.bounds();
    let (lat, lon) = grid.cell_centroid(grid.cell_id(grid.rows() / 2, grid.cols() / 2));
    // A window covering roughly 10% of the grid's area.
    let lat_span = b.lat_max - b.lat_min;
    let lon_span = b.lon_max - b.lon_min;
    let window = (
        b.lat_min + 0.45 * lat_span,
        b.lat_min + 0.55 * lat_span + 0.2 * lat_span,
        b.lon_min + 0.45 * lon_span,
        b.lon_min + 0.55 * lon_span + 0.2 * lon_span,
    );

    let mut c = Criterion::default();
    // Freezing the accepted outcome: flat table copies plus the group
    // adjacency pass.
    c.bench_function("snapshot_build_36k", |bench| {
        bench.iter(|| Snapshot::build(black_box(rep), &grid, theta).unwrap())
    });
    c.bench_function("snapshot_encode_36k", |bench| {
        bench.iter(|| snapshot_to_bytes(black_box(&snap)))
    });
    c.bench_function("snapshot_decode_36k", |bench| {
        bench.iter(|| snapshot_from_bytes(black_box(&bytes)).unwrap())
    });
    c.bench_function("query_engine_build_36k", |bench| {
        bench.iter(|| QueryEngine::new(black_box(snap.clone())))
    });
    // v2 startup path: encode, validate (the whole load-time cost), and a
    // clone of a validated engine (it shares the buffer).
    c.bench_function("snapshot_encode_v2_36k", |bench| {
        bench.iter(|| snapshot_to_bytes_v2(black_box(&snap)))
    });
    c.bench_function("snapshot_validate_v2_36k", |bench| {
        bench.iter(|| snapshot_v2_from_bytes(black_box(&bytes_v2)).unwrap())
    });
    let v2 = snapshot_v2_from_bytes(&bytes_v2).unwrap();
    c.bench_function("engine_build_v2_36k", |bench| bench.iter(|| black_box(&v2).clone()));
    c.bench_function("point_query", |bench| {
        bench.iter(|| engine.point(black_box(lat), black_box(lon)))
    });
    c.bench_function("window_query_10pct_area", |bench| {
        bench.iter(|| {
            engine.window(
                black_box(window.0),
                black_box(window.1),
                black_box(window.2),
                black_box(window.3),
            )
        })
    });
    c.bench_function("knn_query_k8", |bench| {
        bench.iter(|| engine.knn(black_box(lat), black_box(lon), black_box(8)))
    });

    let out = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_serve.json");
    c.export_json(out).expect("write BENCH_serve.json");
}
