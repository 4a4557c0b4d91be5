//! Stage-level wall-clock breakdown of the 100k-cell driver run: prints
//! where a strided `theta = 0.05` walk spends its time. Companion to the
//! criterion benches when chasing pipeline regressions.

use sr_core::{allocate_features, extract_with_edges, partition_ifl, VariationHeap};
use sr_datasets::{Dataset, GridSize};
use sr_grid::{normalize_attributes, EdgeVariations, IflOptions};
use std::time::Instant;

fn main() {
    let grid = Dataset::TaxiMultivariate.generate(GridSize::Custom(320, 320), 1);
    let t0 = Instant::now();
    let norm = normalize_attributes(&grid);
    eprintln!("normalize: {:?}", t0.elapsed());

    let t = Instant::now();
    let heap = VariationHeap::from_grid(&norm);
    eprintln!("heap build: {:?}", t.elapsed());
    let t = Instant::now();
    let thresholds = heap.into_sorted_distinct();
    eprintln!("sorted distinct ({}): {:?}", thresholds.len(), t.elapsed());

    let t = Instant::now();
    let edges = EdgeVariations::build(&norm);
    eprintln!("edge variations: {:?}", t.elapsed());

    // Mimic the Exponential{8, 1.6} walk at theta = 0.05.
    let (mut te, mut ta, mut ti) = (0.0f64, 0.0f64, 0.0f64);
    let mut idx = 0usize;
    let mut stride = 8usize;
    let mut n_iter = 0usize;
    while idx < thresholds.len() {
        let t = Instant::now();
        let part = extract_with_edges(&edges, thresholds[idx]);
        te += t.elapsed().as_secs_f64();
        let t = Instant::now();
        let feats = allocate_features(&grid, &part);
        ta += t.elapsed().as_secs_f64();
        let t = Instant::now();
        let ifl = partition_ifl(&grid, &part, &feats, IflOptions::default());
        ti += t.elapsed().as_secs_f64();
        n_iter += 1;
        if ifl > 0.05 || idx == thresholds.len() - 1 {
            break;
        }
        idx = (idx + stride).min(thresholds.len() - 1);
        stride = ((stride as f64 * 1.6) as usize).max(stride + 1);
    }
    eprintln!("iters: {n_iter}  extract: {te:.3}s  allocate: {ta:.3}s  ifl: {ti:.3}s");
    eprintln!("total: {:?}", t0.elapsed());
}
