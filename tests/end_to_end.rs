//! End-to-end integration: generator → re-partitioner → training-data
//! preparation → model training, across every evaluation dataset.

use spatial_repartition::core::PreparedTrainingData;
use spatial_repartition::datasets::{train_test_split, Dataset, GridSize};
use spatial_repartition::ml::{mae, table1, RandomForest};
use spatial_repartition::prelude::*;

#[test]
fn repartitioning_respects_threshold_on_all_datasets() {
    for ds in Dataset::ALL {
        let grid = ds.generate(GridSize::Mini, 1);
        for theta in [0.05, 0.10, 0.15] {
            let out = repartition(&grid, theta).expect("valid threshold");
            assert!(
                out.repartitioned.ifl() <= theta + 1e-12,
                "{} theta {theta}: IFL {} exceeds budget",
                ds.name(),
                out.repartitioned.ifl()
            );
            assert!(
                out.repartitioned.num_groups() <= grid.num_cells(),
                "{}: more groups than cells",
                ds.name()
            );
        }
    }
}

#[test]
fn reduction_grows_with_threshold() {
    for ds in Dataset::ALL {
        let grid = ds.generate(GridSize::Mini, 2);
        let r05 = repartition(&grid, 0.05).unwrap().repartitioned.num_groups();
        let r15 = repartition(&grid, 0.15).unwrap().repartitioned.num_groups();
        assert!(
            r15 <= r05,
            "{}: groups at theta 0.15 ({r15}) exceed theta 0.05 ({r05})",
            ds.name()
        );
    }
}

#[test]
fn reconstruction_round_trips_every_dataset() {
    for ds in Dataset::ALL {
        let grid = ds.generate(GridSize::Mini, 3);
        let out = repartition(&grid, 0.10).unwrap();
        let rec = out.repartitioned.reconstruct(&grid).expect("same shape");
        let ifl = information_loss(&grid, &rec, IflOptions::default()).unwrap();
        assert_eq!(
            ifl.to_bits(),
            out.repartitioned.ifl().to_bits(),
            "{}: reconstruction IFL {ifl} != driver IFL {}",
            ds.name(),
            out.repartitioned.ifl()
        );
        // Null cells stay null.
        for id in 0..grid.num_cells() as u32 {
            assert_eq!(grid.is_valid(id), rec.is_valid(id));
        }
    }
}

#[test]
fn prepared_training_data_is_consistent() {
    for ds in Dataset::ALL {
        let grid = ds.generate(GridSize::Mini, 4);
        let out = repartition(&grid, 0.10).unwrap();
        let prep = PreparedTrainingData::from_repartitioned(&out.repartitioned);
        assert_eq!(prep.len(), out.repartitioned.num_valid_groups());
        assert!(prep.adjacency.is_symmetric());
        assert_eq!(prep.features.len(), prep.centroids.len());
        assert_eq!(prep.features.len(), prep.group_sizes.len());
        // Group sizes cover exactly the valid cells.
        let covered: usize = prep.group_sizes.iter().sum();
        assert_eq!(covered, {
            // Valid groups are all-valid rectangles, so their sizes sum to
            // the valid cell count.
            grid.num_valid_cells()
        });
    }
}

#[test]
fn model_trained_on_reduced_data_stays_accurate() {
    // The headline behavioral claim at test scale: a random forest trained
    // on the θ=0.05 re-partitioned home-sales data predicts held-out
    // *original-resolution* instances with error close to a forest trained
    // on the full grid.
    let ds = Dataset::HomeSalesMultivariate;
    let grid = ds.generate(GridSize::Mini, 5);

    // Original instance set.
    let mut xs = Vec::new();
    let mut ys = Vec::new();
    for id in grid.valid_cells() {
        let fv = grid.features_unchecked(id);
        let mut row = fv.to_vec();
        ys.push(row.remove(0)); // price target
        xs.push(row);
    }
    let (train_idx, test_idx) = train_test_split(xs.len(), 0.2, 9);
    let train_x: Vec<Vec<f64>> = train_idx.iter().map(|&i| xs[i].clone()).collect();
    let train_y: Vec<f64> = train_idx.iter().map(|&i| ys[i]).collect();
    let test_x: Vec<Vec<f64>> = test_idx.iter().map(|&i| xs[i].clone()).collect();
    let test_y: Vec<f64> = test_idx.iter().map(|&i| ys[i]).collect();

    let mut params = table1::random_forest();
    params.n_estimators = 60; // keep the test quick
    let full = RandomForest::fit(&train_x, &train_y, &params).unwrap();
    let full_mae = mae(&test_y, &full.predict(&test_x));

    // Reduced training set (groups as instances), same original test set.
    let out = repartition(&grid, 0.05).unwrap();
    let prep = PreparedTrainingData::from_repartitioned(&out.repartitioned);
    let (rx, ry) = prep.split_target(0);
    let reduced = RandomForest::fit(&rx, &ry, &params).unwrap();
    let reduced_mae = mae(&test_y, &reduced.predict(&test_x));

    // Paper claim at θ = 0.05: error within a few percent. Allow a loose
    // 25% band at this tiny scale.
    assert!(
        reduced_mae <= full_mae * 1.25,
        "reduced-model MAE {reduced_mae} too far above full-model MAE {full_mae}"
    );
}

#[test]
fn autocorrelation_survives_repartitioning() {
    // Moran's I of the reconstructed grid stays strongly positive: the
    // framework's raison d'être.
    let grid = Dataset::TaxiUnivariate.generate(GridSize::Mini, 6);
    let adj = AdjacencyList::rook_from_grid(&grid);
    let vals = |g: &GridDataset| -> Vec<f64> {
        (0..g.num_cells() as u32)
            .map(|id| if g.is_valid(id) { g.value(id, 0) } else { 0.0 })
            .collect()
    };
    let before = morans_i(&vals(&grid), &adj).unwrap();
    let out = repartition(&grid, 0.10).unwrap();
    let rec = out.repartitioned.reconstruct(&grid).unwrap();
    let after = morans_i(&vals(&rec), &adj).unwrap();
    assert!(before > 0.4, "generator autocorrelation too weak: {before}");
    assert!(after > before - 0.1, "re-partitioning destroyed autocorrelation: {before} -> {after}");
}
