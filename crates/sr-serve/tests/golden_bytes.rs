//! Golden digests of snapshot bytes.
//!
//! The other snapshot suites compare the encoders with themselves
//! (round trips, v1 ↔ v2 migration), so a change that altered the bytes
//! of every file the same way would pass them all. This file pins FNV-1a
//! digests of the v1 and v2 bytes of fixed-seed snapshots, plus one of
//! the group adjacency lists, so any change to the on-disk bytes fails
//! here. The inputs are generated in this file from a fixed integer
//! mixer: no dataset generator or random-number crate can move them.
//!
//! A digest mismatch means the bytes changed. That is a format change
//! (docs/SNAPSHOT_FORMAT.md), never a digest to refresh casually.
//!
//! `ci.sh` runs this file at `SR_THREADS=1` and `SR_THREADS=4`: the
//! driver and the encoders are thread-count invariant, so the digests are
//! the same at both.

use sr_core::{group_adjacency, IterationStrategy, Partition, RepartitionConfig, Repartitioner};
use sr_grid::{AdjacencyList, AggType, Bounds, GridDataset};
use sr_ingest::{IngestConfig, IngestEngine, IngestSchema, PointChunk};
use sr_serve::{
    engine_from_bytes, snapshot_from_bytes, snapshot_to_bytes, snapshot_to_bytes_v2,
    snapshot_v2_from_bytes, QueryEngine, Snapshot,
};

/// 64-bit FNV-1a over `bytes`.
fn fnv1a(bytes: &[u8]) -> u64 {
    bytes
        .iter()
        .fold(0xcbf2_9ce4_8422_2325u64, |h, &b| (h ^ b as u64).wrapping_mul(0x100_0000_01b3))
}

/// A splitmix64 stream: the only source of input values in this file.
struct Mix(u64);

impl Mix {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform in `[0, 1)`.
    fn unit(&mut self) -> f64 {
        (self.next() >> 11) as f64 / (1u64 << 53) as f64
    }
}

/// Digest of an adjacency list: each unit's degree, then its neighbour
/// ids, as little-endian `u32`s.
fn adjacency_digest(adj: &AdjacencyList) -> u64 {
    let mut bytes = Vec::new();
    for i in 0..adj.len() as u32 {
        bytes.extend_from_slice(&(adj.degree(i) as u32).to_le_bytes());
        for &nb in adj.neighbors(i) {
            bytes.extend_from_slice(&nb.to_le_bytes());
        }
    }
    fnv1a(&bytes)
}

/// The v1 and v2 digests of `snap`, after checking that both decode back
/// to it.
fn digests(snap: &Snapshot) -> (u64, u64) {
    let v1 = snapshot_to_bytes(snap);
    let v2 = snapshot_to_bytes_v2(snap);
    assert_eq!(&snapshot_from_bytes(&v1).unwrap(), snap, "v1 decodes to the snapshot");
    assert_eq!(&snapshot_v2_from_bytes(&v2).unwrap().to_snapshot().unwrap(), snap, "v2 decodes");
    (fnv1a(&v1), fnv1a(&v2))
}

/// A 96×80 multivariate grid: a smooth surface plus noise on three
/// attributes (an integer `Sum`, a real `Avg`, an integer `Avg`), with
/// about 3% null cells.
fn multivariate_grid() -> GridDataset {
    let (rows, cols, p) = (96, 80, 3);
    let mut mix = Mix(0x5eed_0001);
    let mut data = Vec::with_capacity(rows * cols * p);
    let mut valid = Vec::with_capacity(rows * cols);
    for r in 0..rows {
        for c in 0..cols {
            let base = 50.0 + 10.0 * (r as f64 / 9.0).sin() + 8.0 * (c as f64 / 7.0).cos();
            data.push((base / 5.0 + 3.0 * mix.unit()).round());
            data.push(base + 0.5 * mix.unit());
            data.push((base / 10.0 + mix.unit()).round());
            valid.push(mix.unit() >= 0.03);
        }
    }
    GridDataset::new(
        rows,
        cols,
        p,
        data,
        valid,
        vec!["count".into(), "price".into(), "rating".into()],
        vec![AggType::Sum, AggType::Avg, AggType::Avg],
        vec![true, false, true],
        Bounds { lat_min: 40.5, lat_max: 41.0, lon_min: -74.2, lon_max: -73.7 },
    )
    .unwrap()
}

/// A 30×28 univariate grid of quantized values with scattered null cells
/// and one fully null 3×4 block (a null group).
fn univariate_grid() -> GridDataset {
    let (rows, cols) = (30, 28);
    let mut mix = Mix(0x5eed_0002);
    let values: Vec<f64> = (0..rows * cols)
        .map(|i| (20.0 + 6.0 * ((i / cols) as f64 / 5.0).sin() + 2.0 * mix.unit()).round())
        .collect();
    let mut grid = GridDataset::univariate(rows, cols, values).unwrap();
    for id in 0..(rows * cols) as u32 {
        let (r, c) = (id as usize / cols, id as usize % cols);
        if mix.unit() < 0.06 || ((10..13).contains(&r) && (4..8).contains(&c)) {
            grid.set_null(id);
        }
    }
    grid
}

fn run(grid: &GridDataset, theta: f64, strategy: IterationStrategy) -> Snapshot {
    let cfg = RepartitionConfig::new(theta).unwrap().with_strategy(strategy);
    let out = Repartitioner::with_config(cfg).unwrap().run(grid).unwrap();
    Snapshot::build(&out.repartitioned, grid, theta).unwrap()
}

/// The batch pipeline's strided walk on the multivariate grid.
fn strided_snapshot() -> Snapshot {
    let strided = IterationStrategy::Exponential { initial_stride: 8, growth: 1.6 };
    run(&multivariate_grid(), 0.05, strided)
}

/// The every-distinct walk on the univariate grid.
fn every_distinct_snapshot() -> Snapshot {
    run(&univariate_grid(), 0.1, IterationStrategy::EveryDistinct)
}

/// What an ingestion engine publishes after four batches on a 32×32
/// grid, re-partitioning after each.
fn ingest_bytes() -> Vec<u8> {
    let schema = IngestSchema::parse("v:mean,n:count").unwrap();
    let mut engine = IngestEngine::new(IngestConfig::new(32, 32, schema, 0.1)).unwrap();
    let mut mix = Mix(0x5eed_0003);
    for batch in 0..4 {
        let mut chunk = PointChunk::with_capacity(300, 2);
        for _ in 0..300 {
            let (x, y) = (mix.unit(), mix.unit());
            let v = (10.0 + 4.0 * (6.0 * x).sin() + 3.0 * y + batch as f64 + mix.unit()).round();
            chunk.push(x, y, &[v, 1.0]);
        }
        engine.apply_batch(&chunk).unwrap();
        engine.repartition().unwrap();
    }
    engine.snapshot_bytes().unwrap()
}

/// A 2×3 snapshot assembled by hand: group 0 is the valid 2×2 block,
/// group 1 the all-null right column, which is nevertheless marked as
/// featured. The batch pipeline never produces such a group; the formats
/// must still carry its presence bit and row.
fn hand_built() -> Snapshot {
    let partition = Partition::new(
        2,
        3,
        vec![
            sr_core::GroupRect { r0: 0, r1: 1, c0: 0, c1: 1 },
            sr_core::GroupRect { r0: 0, r1: 1, c0: 2, c1: 2 },
        ],
        vec![0, 0, 1, 0, 0, 1],
    );
    Snapshot::from_parts(
        0.25,
        0.125,
        0.5,
        Bounds::unit(),
        vec!["v".into()],
        vec![AggType::Sum],
        vec![false],
        vec![0b011011],
        partition,
        vec![0b11],
        vec![7.5, 0.25],
        AdjacencyList::from_neighbors(vec![vec![1], vec![0]]),
    )
    .unwrap()
}

#[test]
fn strided_multivariate_build_bytes_are_pinned() {
    let (v1, v2) = digests(&strided_snapshot());
    assert_eq!(
        (v1, v2),
        (17264813554108567682, 15989676207929813667),
        "strided multivariate v1/v2 digests"
    );
}

#[test]
fn every_distinct_univariate_build_bytes_are_pinned() {
    let (v1, v2) = digests(&every_distinct_snapshot());
    assert_eq!(
        (v1, v2),
        (11977387595769977509, 10725901400596522892),
        "every-distinct univariate v1/v2 digests"
    );
}

#[test]
fn ingest_snapshot_bytes_are_pinned() {
    let v2 = ingest_bytes();
    let snap = snapshot_v2_from_bytes(&v2).unwrap().to_snapshot().unwrap();
    assert_eq!(snapshot_to_bytes_v2(&snap), v2, "ingest bytes re-encode identically");
    let v1 = snapshot_to_bytes(&snap);
    assert_eq!(
        (fnv1a(&v1), fnv1a(&v2)),
        (5653545597487345499, 17908004278975908461),
        "ingest v1/v2 digests"
    );
}

#[test]
fn hand_built_presence_round_trips_and_is_pinned() {
    let snap = hand_built();
    let (v1, v2) = digests(&snap);
    // The all-null group keeps its feature row through both formats.
    for bytes in [snapshot_to_bytes(&snap), snapshot_to_bytes_v2(&snap)] {
        let engine = engine_from_bytes(&bytes).unwrap();
        assert_eq!(engine.feature(1), Some(&[0.25][..]));
        assert_eq!(engine.valid_count(1), 0);
    }
    assert_eq!(QueryEngine::new(snap).feature(1), Some(&[0.25][..]));
    assert_eq!((v1, v2), (12917007539087336456, 1335558944338240774), "hand-built v1/v2 digests");
}

#[test]
fn group_adjacency_lists_are_pinned() {
    let strided = adjacency_digest(&group_adjacency(strided_snapshot().partition()));
    let distinct = adjacency_digest(&group_adjacency(every_distinct_snapshot().partition()));
    assert_eq!(
        (strided, distinct),
        (5357655606459640581, 12422788274157003198),
        "group adjacency digests"
    );
}
