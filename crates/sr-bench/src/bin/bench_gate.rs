//! CI bench-threshold gate for the 100k-cell driver.
//!
//! Runs the headline benchmark workload — the 320×320 taxi grid through
//! the strided driver at θ = 0.05 — a few times and enforces two
//! regressions gates:
//!
//! 1. **Absolute**: the best run on the process-global pool (so
//!    `SR_THREADS` applies, and CI exercises the gate at 1 and 4) must
//!    finish within `SR_GATE_MAX_DRIVER_MS` milliseconds.
//! 2. **Fan-out**: a 4-thread pool must never be slower than a 1-thread
//!    pool by more than `SR_GATE_MAX_T4_RATIO` — the regression the
//!    hardware-parallelism cap in `sr-par` exists to prevent.
//!
//! 3. **Incremental**: one localized re-partition round over a 1%-dirty
//!    320×320 grid ([`LocalizedState::apply`] — value writes + scan patch
//!    — then [`Repartitioner::run_localized`] on a warmed state) must
//!    finish within `SR_GATE_MAX_INCR_MS` milliseconds — the regression
//!    gate for the dirty-region walk (`docs/PERFORMANCE.md`). No round may
//!    rebuild the normalization: the gate times the patch path.
//!
//! All thresholds are env-overridable because wall-clock gates are
//! hardware statements: the defaults (250 ms, 1.25×, 40 ms) are sized for
//! the 1-vCPU shared reference container, whose best case for the driver
//! workload is ~135–160 ms with ±1.5× scheduler drift, and where a
//! 4-thread pool pays a real per-region worker-handoff cost (~5–10%,
//! measured 1.05–1.10×) that multicore hardware does not
//! (docs/PERFORMANCE.md). On a dedicated multi-core box, tighten with
//! `SR_GATE_MAX_DRIVER_MS=120 SR_GATE_MAX_T4_RATIO=1.10
//! SR_GATE_MAX_INCR_MS=15`.
//!
//! The timing loops double as determinism checks: the t1 and t4 runs
//! must produce bit-identical outcomes, and the last localized round must
//! match the batch driver's hinted walk — a cold walk over freshly built
//! scan inputs — on the same grid, or the timings compare different work
//! and the gate aborts.

use sr_core::{
    IterationStrategy, LocalizedState, RepartitionConfig, RepartitionOutcome, Repartitioner,
};
use sr_datasets::{Dataset, GridSize};
use sr_grid::{CellId, GridDataset, IflOptions};
use std::time::Instant;

/// Samples per timed configuration; the minimum is compared, because on a
/// shared box the minimum is the only statistic that measures the code.
const SAMPLES: usize = 5;

fn env_f64(name: &str, default: f64) -> f64 {
    std::env::var(name).ok().and_then(|v| v.parse().ok()).unwrap_or(default)
}

fn driver() -> Repartitioner {
    let cfg = RepartitionConfig::new(0.05)
        .unwrap()
        .with_strategy(IterationStrategy::Exponential { initial_stride: 8, growth: 1.6 });
    Repartitioner::with_config(cfg).unwrap()
}

/// Best-of-[`SAMPLES`] wall clock of one configuration, plus the outcome
/// of the last run for the determinism cross-check.
fn time_best(mut run: impl FnMut() -> RepartitionOutcome) -> (f64, RepartitionOutcome) {
    let mut best = f64::INFINITY;
    let mut last = None;
    for _ in 0..SAMPLES {
        let t = Instant::now();
        let out = run();
        best = best.min(t.elapsed().as_secs_f64() * 1e3);
        last = Some(out);
    }
    (best, last.unwrap())
}

/// Deterministic xorshift64* (same generator as the bench suite) so the
/// gate's dirty batches are identical on every machine.
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

fn main() {
    let max_driver_ms = env_f64("SR_GATE_MAX_DRIVER_MS", 250.0);
    let max_t4_ratio = env_f64("SR_GATE_MAX_T4_RATIO", 1.25);

    let grid = Dataset::TaxiMultivariate.generate(GridSize::Custom(320, 320), 1);
    let drv = driver();

    let (global_ms, _) = time_best(|| drv.run(&grid).unwrap());
    let pool1 = sr_par::Pool::new(1);
    let pool4 = sr_par::Pool::new(4);
    let (t1_ms, out1) = time_best(|| drv.run_with_pool(&grid, &pool1).unwrap());
    let (t4_ms, out4) = time_best(|| drv.run_with_pool(&grid, &pool4).unwrap());

    println!(
        "bench_gate: 320x320_100k driver best-of-{SAMPLES}: global {global_ms:.1} ms, \
         t1 {t1_ms:.1} ms, t4 {t4_ms:.1} ms (gates: ≤{max_driver_ms:.0} ms, t4 ≤ {max_t4_ratio:.2}×t1)"
    );

    // Determinism cross-check: the two pools must have done identical work.
    let (r1, r4) = (&out1.repartitioned, &out4.repartitioned);
    assert_eq!(r1.num_groups(), r4.num_groups(), "t1/t4 group counts differ");
    assert_eq!(r1.ifl().to_bits(), r4.ifl().to_bits(), "t1/t4 IFL bits differ");
    assert_eq!(out1.iterations.len(), out4.iterations.len(), "t1/t4 iteration counts differ");

    // Gate 3: localized incremental rounds on a warmed state — a smooth
    // 320×320 univariate surface with a pinned maximum (so scan updates
    // patch in place), 1% of the cells rewritten per round. Each timed
    // round is the full incremental unit of work: `apply` (value writes +
    // scan patch) + localized driver run.
    let max_incr_ms = env_f64("SR_GATE_MAX_INCR_MS", 40.0);
    let (rows, cols) = (320usize, 320usize);
    let n = rows * cols;
    let mut rng = Rng(0x1745_90D1);
    let mut vals = vec![0.0f64; n];
    for r in 0..rows {
        for c in 0..cols {
            let x = (c as f64 + 0.5) / cols as f64;
            let y = (r as f64 + 0.5) / rows as f64;
            vals[r * cols + c] = 50.0 + 40.0 * x + 25.0 * y + 10.0 * rng.frac();
        }
    }
    vals[0] = 200.0; // pinned maximum: deltas below never move normalization
    let igrid = GridDataset::univariate(rows, cols, vals).unwrap();
    let pool = sr_par::Pool::global();
    let mut state = LocalizedState::new(igrid, IflOptions::default(), pool);
    drv.run_localized(&mut state, pool).unwrap();
    let mut incr_ms = f64::INFINITY;
    let mut last: Option<(Option<f64>, RepartitionOutcome)> = None;
    for _ in 0..SAMPLES {
        let mut dirty: Vec<CellId> = Vec::with_capacity(n / 100);
        let mut values: Vec<f64> = Vec::with_capacity(n / 100);
        for _ in 0..n / 100 {
            // Never cell 0 — it holds the pinned maximum.
            dirty.push(1 + (rng.next() % (n - 1) as u64) as CellId);
            values.push(50.0 + 140.0 * rng.frac());
        }
        let t = Instant::now();
        let update = state.apply(&dirty, &values).unwrap();
        let hint = state.planned_hint();
        let out = drv.run_localized(&mut state, pool).unwrap();
        incr_ms = incr_ms.min(t.elapsed().as_secs_f64() * 1e3);
        assert!(!update.rebuilt_normalization, "a gate round moved the pinned maximum");
        last = Some((hint, out));
    }
    println!(
        "bench_gate: localized 1%-dirty round best-of-{SAMPLES}: {incr_ms:.1} ms \
         (gate: ≤{max_incr_ms:.0} ms)"
    );

    // Determinism cross-check: the last localized round must equal the
    // batch driver's hinted walk over the same patched grid.
    let (hint, out) = last.unwrap();
    let reference = drv.run_with_pool_warm(state.grid(), pool, hint).unwrap();
    let (rl, rr) = (&out.repartitioned, &reference.repartitioned);
    assert_eq!(rl.num_groups(), rr.num_groups(), "localized/batch group counts differ");
    assert_eq!(rl.ifl().to_bits(), rr.ifl().to_bits(), "localized/batch IFL bits differ");
    assert_eq!(
        out.iterations.len(),
        reference.iterations.len(),
        "localized/batch iteration counts differ"
    );

    let mut failed = false;
    if global_ms > max_driver_ms {
        eprintln!(
            "bench_gate: FAIL — driver {global_ms:.1} ms exceeds SR_GATE_MAX_DRIVER_MS={max_driver_ms:.0}"
        );
        failed = true;
    }
    if t4_ms > t1_ms * max_t4_ratio {
        eprintln!(
            "bench_gate: FAIL — t4 {t4_ms:.1} ms exceeds {max_t4_ratio:.2}× t1 ({t1_ms:.1} ms): \
             pool fan-out is costing wall-clock"
        );
        failed = true;
    }
    if incr_ms > max_incr_ms {
        eprintln!(
            "bench_gate: FAIL — localized round {incr_ms:.1} ms exceeds \
             SR_GATE_MAX_INCR_MS={max_incr_ms:.0}"
        );
        failed = true;
    }
    if failed {
        std::process::exit(1);
    }
    println!("bench_gate: ok");
}
