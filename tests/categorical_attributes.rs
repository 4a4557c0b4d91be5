//! Integration of the categorical-attribute extension (`AggType::Mode`) —
//! the paper's §VI future work — across the full pipeline.

use spatial_repartition::core::repartition;
use spatial_repartition::prelude::*;

/// A 6×6 grid with two attributes: a smooth numeric surface (Avg) and a
/// categorical land-use code (Mode) forming two contiguous zones.
fn mixed_grid() -> GridDataset {
    let n = 6;
    let mut data = Vec::with_capacity(n * n * 2);
    for r in 0..n {
        for c in 0..n {
            let value = 100.0 + r as f64 * 0.4 + c as f64 * 0.2;
            let land_use = if c < 3 { 1.0 } else { 2.0 }; // residential | commercial
            data.push(value);
            data.push(land_use);
        }
    }
    GridDataset::new(
        n,
        n,
        2,
        data,
        vec![true; n * n],
        vec!["value".into(), "land_use".into()],
        vec![AggType::Avg, AggType::Mode],
        vec![false, true],
        Bounds::unit(),
    )
    .unwrap()
}

#[test]
fn typed_variation_counts_category_mismatch() {
    use spatial_repartition::grid::variation_between_typed;
    let aggs = [AggType::Avg, AggType::Mode];
    // Same category: only the numeric difference contributes.
    let v_same = variation_between_typed(&[1.0, 7.0], &[1.5, 7.0], &aggs);
    assert!((v_same - 0.25).abs() < 1e-12); // |0.5| / 2 attrs
                                            // Different category: +1 mismatch.
    let v_diff = variation_between_typed(&[1.0, 7.0], &[1.5, 8.0], &aggs);
    assert!((v_diff - 0.75).abs() < 1e-12); // (0.5 + 1.0) / 2
}

#[test]
fn categories_block_merging_across_zone_boundaries() {
    let g = mixed_grid();
    let out = repartition(&g, 0.05).unwrap();
    let rep = &out.repartitioned;
    // Merging happened within zones…
    assert!(rep.num_groups() < 36, "no merging at all");
    // …but never across the land-use boundary: every group's cells share
    // one land-use code.
    for gid in 0..rep.num_groups() as u32 {
        let cells = rep.partition().cells_of(gid);
        let first = g.value(cells[0], 1);
        for &cell in &cells {
            assert_eq!(g.value(cell, 1), first, "group {gid} mixes categories");
        }
        // And the allocated group code is exactly that category.
        assert_eq!(rep.group_feature(gid).unwrap()[1], first);
    }
}

#[test]
fn categorical_ifl_is_mismatch_rate() {
    // Force one mixed group by hand and check the IFL counts the minority
    // cells as mismatches.
    use spatial_repartition::core::GroupRect;
    use spatial_repartition::core::{allocate_features, partition_ifl, Partition};
    let g = GridDataset::new(
        1,
        4,
        1,
        vec![1.0, 1.0, 1.0, 2.0],
        vec![true; 4],
        vec!["class".into()],
        vec![AggType::Mode],
        vec![true],
        Bounds::unit(),
    )
    .unwrap();
    let p = Partition::new(1, 4, vec![GroupRect { r0: 0, r1: 0, c0: 0, c1: 3 }], vec![0, 0, 0, 0]);
    let feats = allocate_features(&g, &p);
    // Mode of {1,1,1,2} is 1.
    assert_eq!(feats.row(0), Some(&[1.0][..]));
    let ifl = partition_ifl(&g, &p, &feats, IflOptions::default());
    // One of four cells mismatches: 25%.
    assert!((ifl - 0.25).abs() < 1e-12);
}

#[test]
fn reconstruction_copies_category_codes() {
    let g = mixed_grid();
    let out = repartition(&g, 0.05).unwrap();
    let rec = out.repartitioned.reconstruct(&g).unwrap();
    for id in g.valid_cells() {
        assert_eq!(
            rec.value(id, 1),
            g.value(id, 1),
            "cell {id} category changed in reconstruction"
        );
    }
}

#[test]
fn categorical_grid_roundtrips_through_tsv() {
    use spatial_repartition::grid::{read_grid, write_grid};
    let g = mixed_grid();
    let mut buf = Vec::new();
    write_grid(&g, &mut buf).unwrap();
    let g2 = read_grid(&buf[..]).unwrap();
    assert_eq!(g2.agg_types(), g.agg_types());
    assert_eq!(g2, g);
}

#[test]
fn normalization_leaves_codes_untouched() {
    let g = mixed_grid();
    let norm = normalize_attributes(&g);
    for id in g.valid_cells() {
        // Numeric attribute scaled into [0, 1]…
        assert!(norm.value(id, 0) <= 1.0);
        // …categorical code intact.
        assert_eq!(norm.value(id, 1), g.value(id, 1));
    }
}
