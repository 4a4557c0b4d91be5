//! Property tests for the `sr-snap v2` zero-copy format and the
//! v1 ↔ v2 migration path, over *arbitrary* repartitioned grids:
//!
//! 1. Engines loaded from v1 bytes and from their migration to v2 answer
//!    point/window/knn queries bit-identically to a brute-force
//!    reference built from the decoded snapshot's primary tables alone
//!    (no index, no derived sections) — the cross-format serving
//!    contract.
//! 2. Migration is lossless both ways: v1 → v2 → v1 reproduces the
//!    original v1 bytes exactly, and v2 re-encoding is deterministic.
//! 3. Truncating a v2 file at any byte boundary is cleanly rejected
//!    (format or checksum error), never a panic, never a wrong engine.
//! 4. Flipping any single byte anywhere in a v2 file — header, section
//!    table, pad bytes, any section — is detected. Unlike v1's single
//!    trailer CRC, v2 seals each region separately, so the test also
//!    proves there are no coverage gaps between the seals.
//!
//! `ci.sh` runs this file under `SR_THREADS=1` and `SR_THREADS=4`; the
//! answers the engines produce are already thread-count invariant, so
//! the runs must be byte-for-byte identical too.

use proptest::prelude::*;
use sr_core::repartition;
use sr_grid::{representative, AggType, Bounds, GridDataset};
use sr_serve::{
    engine_from_bytes, migrate_snapshot_bytes, peek_version, snapshot_from_bytes,
    snapshot_to_bytes, snapshot_to_bytes_v2, snapshot_v2_from_bytes, NearestGroup, PointAnswer,
    ServeError, Snapshot, Stats, WindowAnswer, WindowGroupPart, WindowScatter,
};

/// Brute-force answers from a decoded snapshot's primary tables only —
/// validity bitmap, partition, presence bitmap and raw features. No
/// rectangle index and none of the derived sections: every answer is a
/// scan, with representatives recomputed per group from the bitmap.
struct Reference<'a> {
    snap: &'a Snapshot,
    /// Valid-member count per group, counted from the validity bitmap.
    counts: Vec<usize>,
}

impl<'a> Reference<'a> {
    fn new(snap: &'a Snapshot) -> Self {
        let part = snap.partition();
        let mut counts = vec![0usize; part.num_groups()];
        for cell in (0..snap.num_cells() as u32).filter(|&c| snap.cell_valid(c)) {
            counts[part.group_of(cell) as usize] += 1;
        }
        Reference { snap, counts }
    }

    fn rep(&self, g: u32) -> Option<Vec<f64>> {
        let fv = self.snap.feature(g)?;
        let aggs = self.snap.agg_types();
        Some(
            (0..fv.len())
                .map(|k| representative(fv[k], aggs[k], self.counts[g as usize]))
                .collect(),
        )
    }

    fn point(&self, row: usize, col: usize) -> PointAnswer {
        let cell = (row * self.snap.cols() + col) as u32;
        let group = self.snap.partition().group_of(cell);
        let values = if self.snap.cell_valid(cell) { self.rep(group) } else { None };
        PointAnswer { row, col, cell, group, values }
    }

    /// Every group whose rectangle meets the clamped window, in ascending
    /// group id, with its valid cells inside the window counted one by one.
    fn window_scatter(&self, lat0: f64, lat1: f64, lon0: f64, lon1: f64) -> WindowScatter {
        let (rows, cols) = (self.snap.rows(), self.snap.cols());
        let b = self.snap.bounds();
        let (r_lo, c_lo) = b.locate_clamped(lat0.min(lat1), lon0.min(lon1), rows, cols);
        let (r_hi, c_hi) = b.locate_clamped(lat0.max(lat1), lon0.max(lon1), rows, cols);
        let mut parts = Vec::new();
        for (g, rect) in self.snap.partition().rects().iter().enumerate() {
            let (r0, r1) = (rect.r0 as usize, rect.r1 as usize);
            let (c0, c1) = (rect.c0 as usize, rect.c1 as usize);
            if r1 < r_lo || r0 > r_hi || c1 < c_lo || c0 > c_hi {
                continue;
            }
            let mut count = 0;
            for r in r0.max(r_lo)..=r1.min(r_hi) {
                for c in c0.max(c_lo)..=c1.min(c_hi) {
                    count += self.snap.cell_valid((r * cols + c) as u32) as usize;
                }
            }
            parts.push(WindowGroupPart { group: g as u32, count, values: self.rep(g as u32) });
        }
        WindowScatter { cells: (r_hi - r_lo + 1) * (c_hi - c_lo + 1), parts }
    }

    fn window(&self, lat0: f64, lat1: f64, lon0: f64, lon1: f64) -> WindowAnswer {
        let scatter = self.window_scatter(lat0, lat1, lon0, lon1);
        WindowAnswer::merge(self.snap.num_attrs(), scatter.cells, &scatter.parts)
    }

    /// A full `(d², gid)` sort of every featured group's rectangle centroid.
    fn knn(&self, lat: f64, lon: f64, k: usize) -> Vec<NearestGroup> {
        let b = self.snap.bounds();
        let lat_step = (b.lat_max - b.lat_min) / self.snap.rows() as f64;
        let lon_step = (b.lon_max - b.lon_min) / self.snap.cols() as f64;
        let mut all: Vec<(f64, u32, f64, f64)> = Vec::new();
        for (g, rect) in self.snap.partition().rects().iter().enumerate() {
            if self.snap.featured(g as u32) {
                let clat = b.lat_min + (rect.r0 + rect.r1 + 1) as f64 / 2.0 * lat_step;
                let clon = b.lon_min + (rect.c0 + rect.c1 + 1) as f64 / 2.0 * lon_step;
                let d2 = (clat - lat) * (clat - lat) + (clon - lon) * (clon - lon);
                all.push((d2, g as u32, clat, clon));
            }
        }
        all.sort_by(|a, b| a.0.total_cmp(&b.0).then(a.1.cmp(&b.1)));
        all.truncate(k);
        all.into_iter()
            .map(|(d2, group, lat, lon)| NearestGroup {
                group,
                lat,
                lon,
                distance: d2.sqrt(),
                values: self.rep(group).expect("featured group"),
            })
            .collect()
    }

    fn stats(&self) -> Stats {
        let s = self.snap;
        let (cells, groups) = (s.num_cells(), s.partition().num_groups());
        Stats {
            rows: s.rows(),
            cols: s.cols(),
            cells,
            valid_cells: self.counts.iter().sum(),
            groups,
            valid_groups: (0..groups as u32).filter(|&g| s.featured(g)).count(),
            attrs: s.num_attrs(),
            theta: s.theta(),
            ifl: s.ifl(),
            cell_reduction: 1.0 - groups as f64 / cells as f64,
        }
    }
}

/// Builds a well-formed multivariate grid from strategy-drawn parts and
/// freezes a snapshot of its repartitioning (same generator as the v1
/// property suite, so the two files test the same input distribution).
fn random_snapshot(
    rows: usize,
    cols: usize,
    p: usize,
    raw: &[f64],
    nulls: &[u8],
    theta: f64,
) -> Snapshot {
    let valid: Vec<bool> = nulls.iter().map(|&n| n != 0).collect();
    let grid = GridDataset::new(
        rows,
        cols,
        p,
        raw.to_vec(),
        valid,
        (0..p).map(|k| format!("a{k}")).collect(),
        (0..p).map(|k| if k % 2 == 0 { AggType::Sum } else { AggType::Avg }).collect(),
        vec![false; p],
        Bounds { lat_min: 40.0, lat_max: 41.0, lon_min: -74.0, lon_max: -73.0 },
    )
    .expect("generated grid is well-formed");
    let out = repartition(&grid, theta).expect("repartition succeeds");
    Snapshot::build(&out.repartitioned, &grid, theta).expect("snapshot builds")
}

/// The shared strategy shape: grid dims, attribute count, raw values,
/// null mask.
fn grid_parts(
    max_side: usize,
    max_p: usize,
) -> impl Strategy<Value = (usize, usize, usize, Vec<f64>, Vec<u8>)> {
    (4usize..max_side, 4usize..max_side, 1usize..max_p).prop_flat_map(|(r, c, p)| {
        (
            Just(r),
            Just(c),
            Just(p),
            prop::collection::vec(1.0f64..500.0, r * c * p),
            prop::collection::vec(0u8..6, r * c),
        )
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Engines loaded from v1 bytes and from their v2 migration answer
    /// point, window, and knn queries bit-identically to the brute-force
    /// [`Reference`], across the whole grid (every cell center probed)
    /// and across window shapes and `k` values.
    #[test]
    fn migrated_v2_serves_bit_identically_to_v1(
        (rows, cols, p, raw, nulls) in grid_parts(11, 4),
        theta in 0.02f64..0.3,
        k in 1usize..12,
    ) {
        let snap = random_snapshot(rows, cols, p, &raw, &nulls, theta);
        let v1 = snapshot_to_bytes(&snap);
        let v2 = migrate_snapshot_bytes(&v1, 2).expect("v1 -> v2 migration");
        prop_assert_eq!(peek_version(&v2), Some(2));
        let decoded = snapshot_from_bytes(&v1).expect("v1 decode");
        let reference = Reference::new(&decoded);
        for bytes in [&v1, &v2] {
            let engine = engine_from_bytes(bytes).expect("engine loads");
            prop_assert_eq!(engine.stats(), reference.stats());

            let b = engine.bounds();
            let lat_step = (b.lat_max - b.lat_min) / rows as f64;
            let lon_step = (b.lon_max - b.lon_min) / cols as f64;
            // Every cell center: point answers must agree bit-for-bit.
            for r in 0..rows {
                for c in 0..cols {
                    let lat = b.lat_min + (r as f64 + 0.5) * lat_step;
                    let lon = b.lon_min + (c as f64 + 0.5) * lon_step;
                    prop_assert_eq!(engine.point(lat, lon), Some(reference.point(r, c)));
                }
            }
            // Windows: full grid, one quadrant, a thin band.
            let windows = [
                (b.lat_min, b.lat_max, b.lon_min, b.lon_max),
                (b.lat_min, (b.lat_min + b.lat_max) / 2.0, b.lon_min, (b.lon_min + b.lon_max) / 2.0),
                (b.lat_min + lat_step, b.lat_min + 2.0 * lat_step, b.lon_min, b.lon_max),
            ];
            for (lat0, lat1, lon0, lon1) in windows {
                prop_assert_eq!(
                    engine.window(lat0, lat1, lon0, lon1),
                    reference.window(lat0, lat1, lon0, lon1)
                );
                prop_assert_eq!(
                    engine.window_scatter(lat0, lat1, lon0, lon1),
                    reference.window_scatter(lat0, lat1, lon0, lon1)
                );
            }
            // knn from corners and center, including ties and k > groups.
            let probes = [
                (b.lat_min, b.lon_min),
                (b.lat_max, b.lon_max),
                ((b.lat_min + b.lat_max) / 2.0, (b.lon_min + b.lon_max) / 2.0),
            ];
            for (lat, lon) in probes {
                prop_assert_eq!(engine.knn(lat, lon, k), reference.knn(lat, lon, k));
            }
        }
    }

    /// v1 → v2 → v1 reproduces the original v1 bytes exactly (v2 stores
    /// the raw feature table, so nothing is lost to representative
    /// derivation), and the v2 encoding itself is deterministic.
    #[test]
    fn migration_roundtrip_is_byte_identical(
        (rows, cols, p, raw, nulls) in grid_parts(11, 4),
        theta in 0.02f64..0.3,
    ) {
        let snap = random_snapshot(rows, cols, p, &raw, &nulls, theta);
        let v1 = snapshot_to_bytes(&snap);
        let v2 = migrate_snapshot_bytes(&v1, 2).expect("v1 -> v2");
        prop_assert_eq!(&migrate_snapshot_bytes(&v2, 1).expect("v2 -> v1"), &v1);
        prop_assert_eq!(&migrate_snapshot_bytes(&v2, 2).expect("v2 -> v2"), &v2);
        prop_assert_eq!(&snapshot_to_bytes_v2(&snap), &v2);
        // The borrowed snapshot materializes back to the original, and
        // every encoder-produced file passes the deep derived-section
        // audit (bit-level recomputation of counts, representatives,
        // centroids, and the packed index).
        let borrowed = snapshot_v2_from_bytes(&v2).unwrap();
        borrowed.verify_derived().expect("encoder output passes the deep audit");
        prop_assert_eq!(borrowed.to_snapshot().unwrap(), snap);
    }

    /// A v2 file truncated at *any* byte boundary is cleanly rejected —
    /// format or checksum error, never a panic, never an engine. The
    /// file-length field in the CRC-sealed header makes every proper
    /// prefix detectable before any section is touched.
    #[test]
    fn v2_truncated_anywhere_is_cleanly_rejected(
        (rows, cols, p, raw, nulls) in grid_parts(9, 3),
        theta in 0.02f64..0.3,
        cut_frac in 0.0f64..1.0,
    ) {
        let snap = random_snapshot(rows, cols, p, &raw, &nulls, theta);
        let bytes = snapshot_to_bytes_v2(&snap);
        let cut = ((cut_frac * bytes.len() as f64) as usize).min(bytes.len() - 1);
        match snapshot_v2_from_bytes(&bytes[..cut]) {
            Err(ServeError::Format { .. }) | Err(ServeError::Checksum { .. }) => {}
            Ok(_) => {
                return Err(TestCaseError::Fail(format!(
                    "truncation to {cut}/{} bytes validated successfully",
                    bytes.len()
                )));
            }
            Err(other) => {
                return Err(TestCaseError::Fail(format!(
                    "truncation to {cut}/{} bytes gave unexpected error {other:?}",
                    bytes.len()
                )));
            }
        }
    }

    /// Flipping any single byte anywhere in a v2 file is rejected: the
    /// header CRC, table CRC, per-section CRCs, and the zero checks on
    /// the only uncovered bytes (table pad, section padding) leave no
    /// byte whose corruption goes unnoticed.
    #[test]
    fn v2_detects_any_single_byte_corruption(
        (rows, cols, p, raw, nulls) in grid_parts(9, 3),
        theta in 0.02f64..0.3,
        pos_frac in 0.0f64..1.0,
        bit in 0u8..8,
    ) {
        let snap = random_snapshot(rows, cols, p, &raw, &nulls, theta);
        let bytes = snapshot_to_bytes_v2(&snap);
        let idx = ((pos_frac * bytes.len() as f64) as usize).min(bytes.len() - 1);
        let mut bad = bytes.clone();
        bad[idx] ^= 1 << bit;
        match snapshot_v2_from_bytes(&bad) {
            Err(ServeError::Format { .. }) | Err(ServeError::Checksum { .. }) => {}
            Ok(_) => {
                return Err(TestCaseError::Fail(format!(
                    "bit {bit} of byte {idx}/{} flipped, yet validation passed",
                    bytes.len()
                )));
            }
            Err(other) => {
                return Err(TestCaseError::Fail(format!(
                    "bit {bit} of byte {idx}/{} flipped, unexpected error {other:?}",
                    bytes.len()
                )));
            }
        }
    }
}
