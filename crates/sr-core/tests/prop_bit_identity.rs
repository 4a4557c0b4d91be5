//! Bit-identity property suite for the SoA scan substrate.
//!
//! Every hot kernel in the pipeline was rewritten from per-cell gathers
//! (AoS) to flat attribute-plane loops (SoA). The contract of that rewrite
//! is *bit* identity, not approximate equality: the driver's
//! accept/reject decisions compare IFL values against a threshold, so a
//! single flipped ulp can change the accepted partition.
//!
//! This suite pins the contract with self-contained **reference
//! implementations** written the pre-SoA way — per-cell feature-vector
//! gathers via the public scalar accessors (`features`, `value`,
//! `is_valid`), never the planes — and asserts that the production
//! kernels reproduce them bit for bit on randomized grids (mixed
//! aggregation schemas, integer flags, null patterns) and on the validity
//! bitmap edge cases the packed `u64` words make interesting: an
//! all-invalid row, a single valid cell, and grids whose cell count ends
//! in a trailing partial word.
//!
//! Thread counts are exercised with explicit pools (1, 2, 8) rather than
//! `SR_THREADS`, which is process-global and racy across parallel tests.

use sr_core::{
    allocate_features_with, extract_cell_groups_with, partition_ifl_with, GroupFeatures, GroupRect,
    IterationStrategy, Partition, RepartitionConfig, Repartitioner, VariationHeap,
};
use sr_grid::{
    local_loss, normalize_attributes, variation_between_typed, AggType, Bounds, CellId,
    EdgeVariations, GridDataset, IflOptions,
};
use sr_par::Pool;

// ---------------------------------------------------------------------------
// Deterministic generator
// ---------------------------------------------------------------------------

/// xorshift64* — deterministic across platforms, no dependencies.
struct Rng(u64);

impl Rng {
    fn new(seed: u64) -> Self {
        Rng(seed.max(1))
    }
    fn next_u64(&mut self) -> u64 {
        let mut x = self.0;
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        self.0 = x;
        x.wrapping_mul(0x2545_F491_4F6C_DD1D)
    }
    /// Uniform in `[0, n)`.
    fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }
    /// Uniform in `[0, 1)`.
    fn f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }
}

/// Validity pattern for a generated grid.
enum Validity {
    /// Every cell valid.
    Full,
    /// Each cell invalid with probability `1/den`.
    Random { den: usize },
    /// One entire row invalid (exercises the null–null `-∞` edges and
    /// whole runs of zero validity bits).
    InvalidRow(usize),
    /// Exactly one valid cell (every group but one is null).
    SingleValid(usize),
}

/// A random mixed-schema grid. Values are quantized to one decimal so
/// repeated values actually occur (exercising the mode paths), `Mode`
/// attributes carry small integer codes, and integer-flagged attributes
/// hold whole numbers.
fn make_grid(seed: u64, rows: usize, cols: usize, p: usize, validity: Validity) -> GridDataset {
    let mut rng = Rng::new(seed);
    let n = rows * cols;
    let aggs: Vec<AggType> = (0..p)
        .map(|k| match (k + seed as usize) % 4 {
            0 => AggType::Avg,
            1 => AggType::Sum,
            2 => AggType::Avg,
            _ => AggType::Mode,
        })
        .collect();
    let ints: Vec<bool> = (0..p).map(|k| aggs[k] == AggType::Mode || k % 3 == 1).collect();
    let mut data = Vec::with_capacity(n * p);
    for id in 0..n {
        let (r, c) = (id / cols, id % cols);
        for k in 0..p {
            let v = match aggs[k] {
                AggType::Mode => rng.below(4) as f64,
                _ => {
                    // Smooth ramp + coarse noise: adjacent variations span
                    // the whole accept/reject range at the test thetas.
                    let base = 50.0 + r as f64 * 0.7 + c as f64 * 0.4;
                    let noisy = base + (rng.f64() - 0.5) * 6.0;
                    let q = (noisy * 10.0).round() / 10.0;
                    if ints[k] {
                        q.round()
                    } else {
                        q
                    }
                }
            };
            data.push(v);
        }
    }
    let valid: Vec<bool> = match validity {
        Validity::Full => vec![true; n],
        Validity::Random { den } => (0..n).map(|_| rng.below(den) != 0).collect(),
        Validity::InvalidRow(row) => (0..n).map(|id| id / cols != row % rows).collect(),
        Validity::SingleValid(cell) => (0..n).map(|id| id == cell % n).collect(),
    };
    let names = (0..p).map(|k| format!("a{k}")).collect();
    GridDataset::new(rows, cols, p, data, valid, names, aggs, ints, Bounds::unit()).unwrap()
}

/// The grid/θ matrix every property runs over: varied shapes (including a
/// 117-cell grid whose bitmap ends in a trailing partial word and a
/// 128-cell grid that ends exactly on a word boundary), attribute counts
/// from 1 to 5, and all validity edge cases.
fn corpus() -> Vec<(GridDataset, f64)> {
    vec![
        (make_grid(1, 12, 17, 4, Validity::Full), 0.02),
        (make_grid(2, 9, 13, 3, Validity::Random { den: 5 }), 0.015),
        (make_grid(3, 16, 8, 1, Validity::Random { den: 7 }), 0.01),
        (make_grid(4, 11, 19, 5, Validity::InvalidRow(4)), 0.02),
        (make_grid(5, 10, 10, 2, Validity::SingleValid(37)), 0.05),
        (make_grid(6, 7, 11, 4, Validity::Random { den: 3 }), 0.03),
        (make_grid(7, 1, 64, 2, Validity::Random { den: 4 }), 0.02),
        (make_grid(8, 21, 6, 4, Validity::InvalidRow(0)), 0.025),
    ]
}

fn pools() -> Vec<Pool> {
    vec![Pool::new(1), Pool::new(2), Pool::new(8)]
}

// ---------------------------------------------------------------------------
// Reference implementations (pre-SoA style: scalar accessors only)
// ---------------------------------------------------------------------------

/// Reference Eq. 1 edge arrays: per-cell feature-vector gathers and Eq. 1
/// on the gathered vectors. `h[r·cols + c]` is the edge to the right
/// neighbor, `v[r·cols + c]` the edge below, with the null conventions of
/// the production `EdgeVariations` (`-∞` null–null, `+∞` mixed or out of
/// grid).
fn ref_edges(norm: &GridDataset) -> (Vec<f64>, Vec<f64>) {
    let (rows, cols) = (norm.rows(), norm.cols());
    let aggs = norm.agg_types();
    let pair = |a: CellId, b: CellId| -> f64 {
        match (norm.features(a), norm.features(b)) {
            (Some(fa), Some(fb)) => variation_between_typed(&fa, &fb, aggs),
            (None, None) => f64::NEG_INFINITY,
            _ => f64::INFINITY,
        }
    };
    let mut h = vec![f64::INFINITY; rows * cols];
    let mut v = vec![f64::INFINITY; rows * cols];
    for r in 0..rows {
        for c in 0..cols {
            let id = (r * cols + c) as CellId;
            if c + 1 < cols {
                h[r * cols + c] = pair(id, id + 1);
            }
            if r + 1 < rows {
                v[r * cols + c] = pair(id, id + cols as CellId);
            }
        }
    }
    (h, v)
}

/// Reference Algorithm 1: the greedy row-major scan over [`ref_edges`],
/// written directly from the paper's description (maximal anchored
/// rectangle per unvisited cell).
fn ref_extract(norm: &GridDataset, theta: f64) -> Partition {
    let (rows, cols) = (norm.rows(), norm.cols());
    let (h, v) = ref_edges(norm);
    let accept = theta + 1e-12;
    const UNASSIGNED: u32 = u32::MAX;
    let mut cell_to_group = vec![UNASSIGNED; rows * cols];
    let mut groups: Vec<GroupRect> = Vec::new();
    for r in 0..rows {
        let mut c = 0usize;
        while c < cols {
            if cell_to_group[r * cols + c] != UNASSIGNED {
                c += 1;
                continue;
            }
            // Maximal horizontal run in the anchor row.
            let mut width = 1usize;
            while c + width < cols
                && cell_to_group[r * cols + c + width] == UNASSIGNED
                && h[r * cols + c + width - 1] <= accept
            {
                width += 1;
            }
            // Grow downward, shrinking to the longest compatible prefix.
            let (mut best_h, mut best_w) = (1usize, width);
            let mut w = width;
            let mut height = 1usize;
            while r + height < rows && w > 0 {
                let rr = r + height;
                let mut w2 = 0usize;
                while w2 < w {
                    let cc = rr * cols + c + w2;
                    if cell_to_group[cc] != UNASSIGNED || v[cc - cols] > accept {
                        break;
                    }
                    if w2 > 0 && h[cc - 1] > accept {
                        break;
                    }
                    w2 += 1;
                }
                if w2 == 0 {
                    break;
                }
                w = w2;
                height += 1;
                if height * w > best_h * best_w {
                    best_h = height;
                    best_w = w;
                }
            }
            let gid = groups.len() as u32;
            for rr in r..r + best_h {
                for cc in c..c + best_w {
                    cell_to_group[rr * cols + cc] = gid;
                }
            }
            groups.push(GroupRect {
                r0: r as u32,
                r1: (r + best_h - 1) as u32,
                c0: c as u32,
                c1: (c + best_w - 1) as u32,
            });
            c += best_w;
        }
    }
    Partition::new(rows, cols, groups, cell_to_group)
}

/// Most frequent value, ties to the smallest first-occurrence index —
/// the selection rule of Algorithm 2's mode, as a quadratic scan.
fn ref_mode(values: &[f64]) -> f64 {
    let mut best_v = values[0];
    let mut best_c = 0usize;
    for (i, &v) in values.iter().enumerate() {
        let bits = v.to_bits();
        if values[..i].iter().any(|&w| w.to_bits() == bits) {
            continue;
        }
        let count = values[i..].iter().filter(|&&w| w.to_bits() == bits).count();
        if count > best_c {
            best_c = count;
            best_v = v;
        }
    }
    best_v
}

/// The `Avg` branch of Algorithm 2 (mean-vs-mode by local loss, ties to
/// the mean with the production's relative tolerance).
fn ref_avg(values: &[f64], integer_typed: bool) -> f64 {
    if let [v] = values {
        return *v;
    }
    let mean = values.iter().sum::<f64>() / values.len() as f64;
    let a = if integer_typed { mean.round() } else { mean };
    let b = ref_mode(values);
    let (loss_a, loss_b) = (local_loss(values, a), local_loss(values, b));
    let tol = 1e-9 * loss_a.abs().max(loss_b.abs());
    if loss_b < loss_a - tol {
        b
    } else {
        a
    }
}

/// Reference Algorithm 2: per-group column gathers through the scalar
/// accessors, aggregated in row-major member order.
fn ref_allocate(grid: &GridDataset, partition: &Partition) -> Vec<Option<Vec<f64>>> {
    let p = grid.num_attrs();
    let (aggs, ints) = (grid.agg_types(), grid.integer_attrs());
    let cols = grid.cols();
    (0..partition.num_groups() as u32)
        .map(|gid| {
            let rect = partition.rect(gid);
            let mut columns: Vec<Vec<f64>> = vec![Vec::new(); p];
            for r in rect.r0..=rect.r1 {
                for c in rect.c0..=rect.c1 {
                    let id = (r as usize * cols + c as usize) as CellId;
                    if !grid.is_valid(id) {
                        continue;
                    }
                    for (k, col) in columns.iter_mut().enumerate() {
                        col.push(grid.value(id, k));
                    }
                }
            }
            if columns[0].is_empty() {
                return None;
            }
            Some(
                (0..p)
                    .map(|k| match aggs[k] {
                        AggType::Sum => {
                            let mut s = 0.0f64;
                            for &v in &columns[k] {
                                s += v;
                            }
                            s
                        }
                        AggType::Avg => ref_avg(&columns[k], ints[k]),
                        AggType::Mode => ref_mode(&columns[k]),
                    })
                    .collect(),
            )
        })
        .collect()
}

/// The reference feature table as the arena Eq. 3 reads: `features` rows
/// (zeros for null groups) and valid-member counts recounted through the
/// scalar accessors.
fn ref_arena(
    grid: &GridDataset,
    partition: &Partition,
    features: &[Option<Vec<f64>>],
) -> GroupFeatures {
    let p = grid.num_attrs();
    let mut counts = vec![0u32; partition.num_groups()];
    for id in grid.valid_cells() {
        counts[partition.group_of(id) as usize] += 1;
    }
    let values = features.iter().flat_map(|f| f.clone().unwrap_or_else(|| vec![0.0; p])).collect();
    GroupFeatures::from_parts(p, values, counts)
}

/// Reference Eq. 3: per-cell percentage-error terms against
/// aggregation-aware representatives. Terms are formed exactly as the
/// production kernel forms them (`|d − r| · (1/|d|)`, not a division) and
/// summed with the same association — each cell's terms into a per-cell
/// subtotal, subtotals in fixed-grain chunk order — because the contract
/// is bit identity, not mathematical equality.
fn ref_ifl(
    grid: &GridDataset,
    partition: &Partition,
    features: &[Option<Vec<f64>>],
    opts: IflOptions,
) -> f64 {
    let p = grid.num_attrs();
    let aggs = grid.agg_types();
    let cells: Vec<CellId> = grid.valid_cells().collect();
    let mut counts = vec![0usize; partition.num_groups()];
    for &id in &cells {
        counts[partition.group_of(id) as usize] += 1;
    }
    let mut terms = 0usize;
    for &id in &cells {
        for (k, &agg) in aggs.iter().enumerate() {
            if agg == AggType::Mode || grid.value(id, k).abs() > opts.zero_eps {
                terms += 1;
            }
        }
    }
    if terms == 0 {
        return 0.0;
    }
    let grain = sr_par::fixed_grain(cells.len(), 64);
    let mut partials = Vec::new();
    for chunk in cells.chunks(grain) {
        let mut sum = 0.0f64;
        for &id in chunk {
            let g = partition.group_of(id) as usize;
            if counts[g] == 1 {
                continue; // every term is an exact zero
            }
            let fv = features[g].as_ref().expect("valid cell in null group");
            let mut cell = 0.0f64;
            for k in 0..p {
                let d = grid.value(id, k);
                let rep = match aggs[k] {
                    AggType::Sum => fv[k] / counts[g] as f64,
                    AggType::Avg | AggType::Mode => fv[k],
                };
                if aggs[k] == AggType::Mode {
                    cell += if d == rep { 0.0 } else { 1.0 };
                } else if d.abs() > opts.zero_eps {
                    cell += (d - rep).abs() * (1.0 / d.abs());
                }
            }
            sum += cell;
        }
        partials.push(sum);
    }
    partials.iter().sum::<f64>() / terms as f64
}

// ---------------------------------------------------------------------------
// Comparison helpers
// ---------------------------------------------------------------------------

fn bits(v: f64) -> u64 {
    v.to_bits()
}

fn assert_partitions_equal(a: &Partition, b: &Partition, ctx: &str) {
    assert_eq!(a.num_groups(), b.num_groups(), "{ctx}: group count");
    for g in 0..a.num_groups() as u32 {
        assert_eq!(a.rect(g), b.rect(g), "{ctx}: rect of group {g}");
    }
    for id in 0..(a.rows() * a.cols()) as CellId {
        assert_eq!(a.group_of(id), b.group_of(id), "{ctx}: cIndex of cell {id}");
    }
}

/// The feature rows of a flat arena, comparable with [`boxed_rows`].
fn arena_rows(features: &GroupFeatures) -> Vec<Option<&[f64]>> {
    (0..features.num_groups()).map(|g| features.row(g)).collect()
}

/// The feature rows of the reference's boxed per-group form.
fn boxed_rows(features: &[Option<Vec<f64>>]) -> Vec<Option<&[f64]>> {
    features.iter().map(Option::as_deref).collect()
}

fn assert_features_equal(a: &[Option<&[f64]>], b: &[Option<&[f64]>], ctx: &str) {
    assert_eq!(a.len(), b.len(), "{ctx}: feature table length");
    for (g, (fa, fb)) in a.iter().zip(b).enumerate() {
        match (fa, fb) {
            (None, None) => {}
            (Some(va), Some(vb)) => {
                let ba: Vec<u64> = va.iter().map(|&v| bits(v)).collect();
                let bb: Vec<u64> = vb.iter().map(|&v| bits(v)).collect();
                assert_eq!(ba, bb, "{ctx}: feature bits of group {g}");
            }
            _ => panic!("{ctx}: null-ness of group {g} differs"),
        }
    }
}

// ---------------------------------------------------------------------------
// Properties
// ---------------------------------------------------------------------------

#[test]
fn variation_scan_matches_feature_gather_reference() {
    for (i, (grid, _)) in corpus().iter().enumerate() {
        let norm = normalize_attributes(grid);
        let (want_h, want_v) = ref_edges(&norm);
        for pool in pools() {
            let got = EdgeVariations::build_with(&norm, &pool);
            assert_eq!((got.rows(), got.cols()), (norm.rows(), norm.cols()), "grid {i}: shape");
            for (axis, got, want) in [("h", got.h(), &want_h), ("v", got.v(), &want_v)] {
                assert_eq!(got.len(), want.len(), "grid {i}: {axis} edge count");
                for (j, (&g, &w)) in got.iter().zip(want).enumerate() {
                    assert_eq!(
                        bits(g),
                        bits(w),
                        "grid {i}, {} threads: {axis} edge {j} ({g} vs {w})",
                        pool.threads()
                    );
                }
            }
        }
    }
}

#[test]
fn extraction_matches_aos_reference_at_every_thread_count() {
    for (i, (grid, theta)) in corpus().iter().enumerate() {
        let norm = normalize_attributes(grid);
        // Exercise thresholds below, at, and above the configured one.
        for t in [0.0, *theta, theta * 4.0] {
            let want = ref_extract(&norm, t);
            for pool in pools() {
                let got = extract_cell_groups_with(&norm, t, &pool);
                assert_partitions_equal(
                    &got,
                    &want,
                    &format!("grid {i}, θ={t}, {} threads", pool.threads()),
                );
            }
        }
    }
}

#[test]
fn allocation_matches_scalar_gather_reference() {
    for (i, (grid, theta)) in corpus().iter().enumerate() {
        let norm = normalize_attributes(grid);
        let partition = ref_extract(&norm, *theta);
        let want = ref_allocate(grid, &partition);
        let want_counts = ref_arena(grid, &partition, &want);
        for pool in pools() {
            let got = allocate_features_with(grid, &partition, &pool);
            let ctx = format!("grid {i}, {} threads", pool.threads());
            assert_features_equal(&arena_rows(&got), &boxed_rows(&want), &ctx);
            assert_eq!(got.valid_counts(), want_counts.valid_counts(), "{ctx}: valid counts");
        }
    }
}

#[test]
fn ifl_matches_naive_eq3_reference() {
    let opts = IflOptions::default();
    for (i, (grid, theta)) in corpus().iter().enumerate() {
        let norm = normalize_attributes(grid);
        let partition = ref_extract(&norm, *theta);
        let features = ref_allocate(grid, &partition);
        let want = ref_ifl(grid, &partition, &features, opts);
        let arena = ref_arena(grid, &partition, &features);
        for pool in pools() {
            let got = partition_ifl_with(grid, &partition, &arena, opts, &pool);
            assert_eq!(
                bits(got),
                bits(want),
                "grid {i}, {} threads: IFL bits ({got} vs {want})",
                pool.threads()
            );
        }
    }
}

/// The full driver: identical outcome bits at 1, 2, and 8 threads, under
/// both iteration strategies; every evaluated iteration reproducible
/// through the reference pipeline at its threshold; and the accepted
/// iteration reproducible down to the partition and feature bits.
#[test]
fn driver_outcome_is_thread_invariant_and_reference_reproducible() {
    let strategies = [
        IterationStrategy::EveryDistinct,
        IterationStrategy::Exponential { initial_stride: 3, growth: 1.7 },
    ];
    for (i, (grid, theta)) in corpus().iter().enumerate() {
        for strategy in strategies {
            let run = |pool: &Pool| {
                let cfg = RepartitionConfig::new(*theta).unwrap().with_strategy(strategy);
                Repartitioner::with_config(cfg).unwrap().run_with_pool(grid, pool).unwrap()
            };
            let base = run(&Pool::new(1));
            for pool in [Pool::new(2), Pool::new(8)] {
                let other = run(&pool);
                let ctx = format!("grid {i}, {strategy:?}, {} threads", pool.threads());
                assert_partitions_equal(
                    base.repartitioned.partition(),
                    other.repartitioned.partition(),
                    &ctx,
                );
                assert_features_equal(
                    &arena_rows(base.repartitioned.features()),
                    &arena_rows(other.repartitioned.features()),
                    &ctx,
                );
                assert_eq!(
                    bits(base.repartitioned.ifl()),
                    bits(other.repartitioned.ifl()),
                    "{ctx}: ifl"
                );
                assert_eq!(
                    bits(base.repartitioned.min_adjacent_variation()),
                    bits(other.repartitioned.min_adjacent_variation()),
                    "{ctx}: accepted θ"
                );
                assert_eq!(base.iterations.len(), other.iterations.len(), "{ctx}: iterations");
                for (a, b) in base.iterations.iter().zip(&other.iterations) {
                    assert_eq!(
                        bits(a.min_adjacent_variation),
                        bits(b.min_adjacent_variation),
                        "{ctx}: iteration θ"
                    );
                    assert_eq!(bits(a.ifl), bits(b.ifl), "{ctx}: iteration ifl");
                    assert_eq!(a.num_groups, b.num_groups, "{ctx}: iteration groups");
                    assert_eq!(a.accepted, b.accepted, "{ctx}: iteration verdict");
                }
            }
            // Every probed threshold, accepted or not, is exactly what the
            // scalar reference pipeline computes at that threshold: this is
            // the independent reference for the driver's per-threshold
            // evaluation, whatever walk order probed it.
            let norm = normalize_attributes(grid);
            for (j, it) in base.iterations.iter().enumerate() {
                let t = it.min_adjacent_variation;
                let ctx = format!("grid {i}, {strategy:?}, iteration {j} (θ={t})");
                let partition = ref_extract(&norm, t);
                assert_eq!(it.num_groups, partition.num_groups(), "{ctx}: groups");
                let features = ref_allocate(grid, &partition);
                let ifl = ref_ifl(grid, &partition, &features, IflOptions::default());
                assert_eq!(bits(it.ifl), bits(ifl), "{ctx}: ifl bits");
                assert_eq!(it.accepted, it.ifl <= *theta, "{ctx}: verdict");
            }
            // The accepted result is exactly what the reference pipeline
            // produces at the accepted threshold (skipped when the driver
            // fell back to the identity partition, whose θ=0 extraction
            // legitimately differs on grids with equal-valued neighbors).
            if base.iterations.iter().any(|it| it.accepted) {
                let theta_star = base.repartitioned.min_adjacent_variation();
                let partition = ref_extract(&norm, theta_star);
                let ctx = format!("grid {i}, {strategy:?}, reference replay");
                assert_partitions_equal(base.repartitioned.partition(), &partition, &ctx);
                let features = ref_allocate(grid, &partition);
                let rows = arena_rows(base.repartitioned.features());
                assert_features_equal(&rows, &boxed_rows(&features), &ctx);
                let ifl = ref_ifl(grid, &partition, &features, IflOptions::default());
                assert_eq!(bits(base.repartitioned.ifl()), bits(ifl), "{ctx}: ifl bits");
            }
        }
    }
}

/// Packed validity-word edge cases, explicitly: a grid whose bitmap ends
/// mid-word must behave exactly like its `Vec<bool>` mask says, and the
/// degenerate all-null / one-valid grids must flow through every stage.
#[test]
fn validity_bitmap_edge_cases() {
    // 9×13 = 117 cells: one full word + a 53-bit trailing partial word.
    let grid = make_grid(42, 9, 13, 3, Validity::Random { den: 4 });
    let mask = grid.valid_mask();
    for (id, &m) in mask.iter().enumerate() {
        assert_eq!(grid.is_valid(id as CellId), m, "cell {id} validity");
    }
    assert_eq!(grid.num_valid_cells(), mask.iter().filter(|&&m| m).count());
    let from_words: Vec<CellId> = grid.valid_cells().collect();
    let from_mask: Vec<CellId> =
        mask.iter().enumerate().filter(|(_, &m)| m).map(|(id, _)| id as CellId).collect();
    assert_eq!(from_words, from_mask, "valid_cells vs mask walk");

    // All-null grid: no pairs, no featured groups, zero loss.
    let mut g = make_grid(43, 6, 11, 2, Validity::Full);
    for id in 0..g.num_cells() {
        g.set_null(id as CellId);
    }
    let norm = normalize_attributes(&g);
    assert!(VariationHeap::from_grid_with(&norm, &Pool::new(8)).is_empty());
    let part = ref_extract(&norm, 0.01);
    let feats = allocate_features_with(&g, &part, &Pool::new(2));
    assert_eq!(feats.num_valid_groups(), 0, "all groups null");
    assert_eq!(partition_ifl_with(&g, &part, &feats, IflOptions::default(), &Pool::new(1)), 0.0);

    // Single valid cell: exactly one featured singleton group that keeps
    // its exact values, and zero loss.
    let g = make_grid(44, 8, 9, 4, Validity::SingleValid(29));
    let norm = normalize_attributes(&g);
    assert!(VariationHeap::from_grid_with(&norm, &Pool::new(2)).is_empty());
    let out = Repartitioner::new(0.05).unwrap().run_with_pool(&g, &Pool::new(8)).unwrap();
    let rep = &out.repartitioned;
    assert_eq!(rep.num_valid_groups(), 1);
    let gid = rep.partition().group_of(29);
    let fv = rep.group_feature(gid).unwrap();
    for (k, &v) in fv.iter().enumerate() {
        assert_eq!(bits(v), bits(g.value(29, k)), "singleton keeps exact value of attr {k}");
    }
    assert_eq!(rep.ifl(), 0.0);
}
