//! Ingestion-tier benchmarks on the paper-scale 100k-cell workload
//! (320×320 grid): raw binning throughput, the per-batch cost of keeping
//! the scan inputs current *incrementally* versus the full recompute a
//! batch pipeline pays, the exact-repartition cost with and without the
//! maintained scan inputs and the localized walk, and the in-memory half
//! of a publish (snapshot build + v2 encode). Results are exported to
//! `BENCH_ingest.json` at the workspace root.
//!
//! The acceptance bars (`docs/INGESTION.md` §7): at ≤10% dirty cells per
//! batch, incremental maintenance (`ingest/maintain/incremental_*`: bin,
//! collapse, patch the scan inputs) must be at least 3× faster than the
//! full recompute (`ingest/maintain/full_*`: bin, collapse, re-run the
//! driver from scratch); and a localized 1%-dirty re-partition
//! (`ingest/repartition/localized_1pct_dirty`) must be at least 8× faster
//! than a cold walk over the same inputs
//! (`ingest/repartition/scan_cached`).
//!
//! Delta values stay below the seeded per-attribute maximum on purpose:
//! a new maximum re-normalizes every cell and forces the documented
//! full scan rebuild (`docs/INGESTION.md` §4), which would benchmark the
//! rebuild guard instead of the incremental path. Cell 0 holds the
//! maximum, a lone 200.0 point that no delta touches, and the measured
//! bodies assert that no delta rebuilt the normalization.
//!
//! Run: `cargo bench -p sr-bench --bench ingest`

use criterion::{black_box, Criterion};
use sr_core::{IterationStrategy, LocalizedState, RepartitionConfig, Repartitioner};
use sr_datasets::{Dataset, GridSize};
use sr_grid::{Bounds, CellId, GridDataset, IflOptions};
use sr_ingest::{CellAccumulators, IngestConfig, IngestEngine, IngestSchema, PointChunk};
use std::time::{Duration, Instant};

const ROWS: usize = 320;
const COLS: usize = 320;
const THETA: f64 = 0.05;
/// Pre-generated distinct delta batches, cycled so consecutive
/// iterations never replay identical points.
const DELTAS: usize = 8;

/// Deterministic xorshift64* so runs are comparable across machines.
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        let mut x = self.0;
        x ^= x >> 12;
        x ^= x << 25;
        x ^= x >> 27;
        self.0 = x;
        x.wrapping_mul(0x2545_F491_4F6C_DD1D)
    }

    fn frac(&mut self) -> f64 {
        (self.next() >> 11) as f64 / (1u64 << 53) as f64
    }
}

/// One point per cell with a smooth surface in [50, 150), except cell 0,
/// which holds a lone pinned 200.0 sample: later deltas (all < 190, none
/// in cell 0) never move the per-attribute maximum — the incremental
/// path, not the rebuild guard, is what the deltas exercise.
fn seed_chunk(rng: &mut Rng) -> PointChunk {
    let mut chunk = PointChunk::with_capacity(ROWS * COLS, 1);
    chunk.push(0.5 / COLS as f64, 0.5 / ROWS as f64, &[200.0]);
    for r in 0..ROWS {
        for c in 0..COLS {
            let x = (c as f64 + 0.5) / COLS as f64;
            let y = (r as f64 + 0.5) / ROWS as f64;
            let v = 50.0 + 40.0 * x + 25.0 * y + 10.0 * rng.frac();
            if r > 0 || c > 0 {
                chunk.push(x, y, &[v]);
            }
        }
    }
    chunk
}

/// A cell other than cell 0, which holds the pinned maximum.
fn delta_cell(rng: &mut Rng) -> CellId {
    1 + (rng.next() % (ROWS * COLS - 1) as u64) as CellId
}

/// A delta batch touching roughly `dirty` distinct cells, values in
/// [50, 190) — below the pinned maximum, and never in its cell.
fn delta_chunk(rng: &mut Rng, dirty: usize) -> PointChunk {
    let mut chunk = PointChunk::with_capacity(dirty, 1);
    for _ in 0..dirty {
        let id = delta_cell(rng) as usize;
        let x = ((id % COLS) as f64 + 0.5) / COLS as f64;
        let y = ((id / COLS) as f64 + 0.5) / ROWS as f64;
        chunk.push(x, y, &[50.0 + 140.0 * rng.frac()]);
    }
    chunk
}

/// The driver configuration [`IngestEngine`] uses on this grid size, for
/// the from-scratch side of the comparison.
fn batch_driver() -> Repartitioner {
    let cfg = RepartitionConfig::new(THETA)
        .unwrap()
        .with_strategy(IterationStrategy::for_cells(ROWS * COLS));
    Repartitioner::with_config(cfg).unwrap()
}

/// Writes the collapsed values of the listed cells of a univariate
/// schema into `grid` and marks them valid — how a batch pipeline
/// materializes its grid.
fn write_cells(accum: &CellAccumulators, grid: &mut GridDataset, cells: &[CellId]) {
    let mut values = Vec::with_capacity(cells.len());
    accum.collapse_into(cells, &mut values);
    for (&id, &v) in cells.iter().zip(&values) {
        grid.set_value(id, 0, v);
        grid.set_valid(id);
    }
}

/// The batch pipeline's state: accumulators + grid, recomputed from
/// scratch by the driver after every delta.
struct BatchPipeline {
    accum: CellAccumulators,
    grid: GridDataset,
    driver: Repartitioner,
    dirty: Vec<CellId>,
}

impl BatchPipeline {
    fn new(schema: &IngestSchema, seed: &PointChunk) -> Self {
        let mut accum = CellAccumulators::new(ROWS, COLS, schema);
        let mut grid = schema.empty_grid(ROWS, COLS, Bounds::unit()).unwrap();
        let mut dirty = Vec::new();
        accum.bin_chunk(seed, &Bounds::unit(), &mut dirty);
        write_cells(&accum, &mut grid, &dirty);
        BatchPipeline { accum, grid, driver: batch_driver(), dirty }
    }

    /// Absorb one delta the only way a batch pipeline can: fold it in,
    /// then re-run the whole driver.
    fn absorb(&mut self, delta: &PointChunk) -> usize {
        self.dirty.clear();
        self.accum.bin_chunk(delta, &Bounds::unit(), &mut self.dirty);
        write_cells(&self.accum, &mut self.grid, &self.dirty);
        self.driver.run(&self.grid).unwrap().repartitioned.num_groups()
    }
}

fn main() {
    let mut rng = Rng(0x1745_90D1);
    let schema = IngestSchema::parse("v:mean").unwrap();
    let seed = seed_chunk(&mut rng);
    println!("preparing: {ROWS}x{COLS} = {} cells, theta {THETA}", ROWS * COLS);

    let mut c = Criterion::default();

    // Raw binning throughput: fold + collapse of a full-coverage
    // 100k-point batch (points/sec = iters_per_sec × points).
    {
        let mut accum = CellAccumulators::new(ROWS, COLS, &schema);
        let mut grid = schema.empty_grid(ROWS, COLS, Bounds::unit()).unwrap();
        let mut dirty = Vec::new();
        let mut g = c.benchmark_group("ingest");
        g.sample_size(10).measurement_time(Duration::from_secs(2));
        g.bench_function("bin/point_stream_102k", |bench| {
            bench.iter(|| {
                dirty.clear();
                let n = accum.bin_chunk(black_box(&seed), &Bounds::unit(), &mut dirty);
                write_cells(&accum, &mut grid, &dirty);
                n
            })
        });
        g.finish();
    }

    for pct in [1usize, 10] {
        let dirty = ROWS * COLS * pct / 100;
        let deltas: Vec<PointChunk> = (0..DELTAS).map(|_| delta_chunk(&mut rng, dirty)).collect();

        // Incremental side: a warmed engine (seed batch + one exact
        // re-partition) absorbs each delta by patching its scan inputs;
        // no delta may rebuild the normalization.
        let mut engine =
            IngestEngine::new(IngestConfig::new(ROWS, COLS, schema.clone(), THETA)).unwrap();
        engine.apply_batch(&seed).unwrap();
        engine.repartition().unwrap();
        let mut i = 0usize;
        let mut g = c.benchmark_group("ingest");
        g.sample_size(10).measurement_time(Duration::from_secs(2));
        g.bench_function(format!("maintain/incremental_{pct}pct_dirty"), |bench| {
            bench.iter(|| {
                let report = engine.apply_batch(&deltas[i % DELTAS]).unwrap();
                assert!(!report.scan.rebuilt_normalization, "a delta moved the pinned maximum");
                i += 1;
                report.dirty_cells
            })
        });
        g.finish();

        // Full-recompute side: the same deltas into a batch pipeline
        // that must re-run the driver from scratch each time.
        let mut pipeline = BatchPipeline::new(&schema, &seed);
        let mut i = 0usize;
        let mut g = c.benchmark_group("ingest");
        g.sample_size(10).measurement_time(Duration::from_secs(4));
        g.bench_function(format!("maintain/full_{pct}pct_dirty"), |bench| {
            bench.iter(|| {
                let groups = pipeline.absorb(&deltas[i % DELTAS]);
                i += 1;
                groups
            })
        });
        g.finish();
    }

    // Exact re-partition, with and without maintained scan inputs —
    // reported transparently: the threshold walk dominates both, so the
    // prebuilt variation scan is a modest (not 3×) win here. `scan_cached`
    // times a cold localized walk (a fresh `LocalizedState`, built outside
    // the timed window: every extraction a full scan, every group built)
    // over prebuilt scan inputs, so the localized rows below have a stable
    // baseline to be compared against.
    {
        let mut engine =
            IngestEngine::new(IngestConfig::new(ROWS, COLS, schema.clone(), THETA)).unwrap();
        engine.apply_batch(&seed).unwrap();
        let driver = batch_driver();
        let grid = engine.grid().clone();
        let pool = sr_par::Pool::global();
        let mut g = c.benchmark_group("ingest");
        g.sample_size(10).measurement_time(Duration::from_secs(4));
        g.bench_function("repartition/scan_cached", |bench| {
            bench.iter_custom(|iters| {
                let mut elapsed = Duration::ZERO;
                for _ in 0..iters {
                    let mut cold = LocalizedState::new(grid.clone(), IflOptions::default(), pool);
                    let start = Instant::now();
                    let out = driver.run_localized(&mut cold, pool).unwrap();
                    elapsed += start.elapsed();
                    black_box(out.repartitioned.num_groups());
                }
                elapsed
            })
        });
        g.bench_function("repartition/from_scratch", |bench| {
            bench.iter(|| driver.run(black_box(&grid)).unwrap().repartitioned.num_groups())
        });
        g.finish();
    }

    // Localized exact re-partition: a warmed LocalizedState absorbs a
    // delta's dirty cells instead of re-walking the whole grid. This is
    // the headline row: cost proportional to the dirty region,
    // bit-identical to a batch run on the same grid. Each iteration
    // writes the delta through `LocalizedState::apply` (grid writes + scan
    // patch) *outside* the timed window (`iter_custom`) — those costs are
    // the `maintain/incremental_*` rows — so the row times exactly what
    // `scan_cached` times: one walk over patched inputs. Values stay below
    // the pinned 200.0 maximum and off its cell, so the scan inputs patch
    // in place (see the module docs).
    {
        let mut engine =
            IngestEngine::new(IngestConfig::new(ROWS, COLS, schema.clone(), THETA)).unwrap();
        engine.apply_batch(&seed).unwrap();
        let driver = batch_driver();
        let pool = sr_par::Pool::global();
        let mut state = LocalizedState::new(engine.grid().clone(), IflOptions::default(), pool);
        driver.run_localized(&mut state, pool).unwrap();
        for pct in [1usize, 10] {
            let dirty = ROWS * COLS * pct / 100;
            let deltas: Vec<(Vec<CellId>, Vec<f64>)> = (0..DELTAS)
                .map(|_| {
                    (0..dirty).map(|_| (delta_cell(&mut rng), 50.0 + 140.0 * rng.frac())).unzip()
                })
                .collect();
            let mut i = 0usize;
            let mut g = c.benchmark_group("ingest");
            g.sample_size(10).measurement_time(Duration::from_secs(2));
            g.bench_function(format!("repartition/localized_{pct}pct_dirty"), |bench| {
                bench.iter_custom(|iters| {
                    let mut elapsed = Duration::ZERO;
                    for _ in 0..iters {
                        let (cells, values) = &deltas[i % DELTAS];
                        i += 1;
                        let update = state.apply(cells, values).unwrap();
                        assert!(!update.rebuilt_normalization, "a delta moved the pinned maximum");
                        let start = Instant::now();
                        let out = driver.run_localized(&mut state, pool).unwrap();
                        elapsed += start.elapsed();
                        black_box(out.repartitioned.num_groups());
                    }
                    elapsed
                })
            });
            g.finish();
        }
    }

    // Publish, in memory: what `IngestEngine::publish` encodes before its
    // temp write + fsync + rename — the snapshot build and the v2 encode
    // of a 320×320 outcome. The engine is seeded with one point per cell
    // of the taxi-pickups surface, which keeps tens of thousands of groups
    // at θ (the smooth surface above merges into a few hundred).
    {
        let surface = Dataset::TaxiUnivariate.generate(GridSize::Custom(ROWS, COLS), 1);
        let mut chunk = PointChunk::with_capacity(surface.num_valid_cells(), 1);
        for cell in surface.valid_cells() {
            let (r, c) = surface.cell_pos(cell);
            let (x, y) = ((c as f64 + 0.5) / COLS as f64, (r as f64 + 0.5) / ROWS as f64);
            chunk.push(x, y, &[surface.value(cell, 0)]);
        }
        let mut engine =
            IngestEngine::new(IngestConfig::new(ROWS, COLS, schema.clone(), THETA)).unwrap();
        engine.apply_batch(&chunk).unwrap();
        let groups = engine.repartition().unwrap().repartitioned.num_groups();
        println!("publish: taxi-pickups outcome with {groups} groups");
        let mut g = c.benchmark_group("ingest");
        g.sample_size(10).measurement_time(Duration::from_secs(2));
        g.bench_function("publish/snapshot_bytes", |bench| {
            bench.iter(|| engine.snapshot_bytes().unwrap().len())
        });
        g.finish();
    }

    let out = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_ingest.json");
    c.export_json(out).expect("write BENCH_ingest.json");
}
