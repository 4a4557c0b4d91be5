//! The `sr-snap v2` zero-copy snapshot format, and the query engine that
//! serves it.
//!
//! v1 (see [`crate::snapshot`]) is a stream format: variable-length
//! fields packed back to back, decoded into owned vectors. v2 is a
//! *mapped* format: a fixed 40-byte header, a section table, and
//! alignment-padded little-endian sections laid out so that a validated
//! buffer can be **served borrowed** — a [`QueryEngine`] *is* a
//! validated v2 buffer: its accessors cast section byte ranges to
//! `&[u32]` / `&[f64]` / `&[GroupRect]` / index-node slices, and the
//! queries in [`crate::query`] answer from them with no decode
//! allocation. Startup cost is one checksum-and-validate pass over the
//! bytes. Every engine serves this one representation: a v1 file and an
//! owned [`Snapshot`] ([`QueryEngine::new`]) are encoded to v2 bytes in
//! memory and validated like a file.
//!
//! The byte-level layout, CRC coverage, alignment rules, and version
//! negotiation are specified normatively in `docs/SNAPSHOT_FORMAT.md`.
//! In short:
//!
//! - **Header** (40 bytes): magic `b"SRSNAP"`, version `2`, the total
//!   file length, the grid shape (`rows`, `cols`, `groups`, `attrs`),
//!   the section count, and a CRC-32 over the preceding header bytes.
//! - **Section table**: one 24-byte entry per section (`id`, `crc`,
//!   `offset`, `len`), sealed by its own CRC-32; sections are
//!   contiguous, ascending, 8-byte aligned, and cover the rest of the
//!   file exactly.
//! - **Sections** 1–10: run parameters + bounds, attribute schema,
//!   validity bitmap, partition (rectangles + cell→group), raw feature
//!   table, adjacency (CSR), valid-member counts, dense
//!   representatives, centroids, and the packed Hilbert rectangle
//!   index. The last four are *derived*: the encoder computes them
//!   (`Derived`) with the same [`sr_grid::representative`] arithmetic
//!   as [`sr_core::reconstruct_grid`], so served values are
//!   bit-identical to the reconstruction.
//!
//! Loading checks every checksum and every bound the accessors and
//! query traversals index by, then serves straight from the buffer; a
//! validated snapshot cannot read out of bounds or panic, whatever the
//! bytes said. The deeper bit-level audit of the derived sections
//! against recomputation — [`QueryEngine::verify_derived`] — is kept off
//! the load path (it costs more than the rest of startup combined) and
//! run by the property suites and `srtool info`. The only owned data
//! after validation is the decoded attribute schema (`O(attrs)`).

use crate::index::{self, Node, RectIndex, RectIndexView};
use crate::snapshot::{
    bit, crc32, read_file_aligned, set_bits, snapshot_from_bytes, write_bytes_atomic, Snapshot,
    MAGIC, MAX_ATTRS, MAX_CELLS,
};
use crate::{Result, ServeError};
use sr_core::{GroupId, GroupRect, Partition};
use sr_grid::{representative, AdjacencyList, AggType, Bounds, CellId};
use std::ops::Range;
use std::path::Path;
use std::sync::Arc;

// The serving path casts little-endian section bytes to typed slices in
// place; on a big-endian host those casts would misread every
// multi-byte value. This reproduction only targets little-endian hosts
// — fail loudly instead of corrupting silently.
#[cfg(target_endian = "big")]
compile_error!("sr-snap v2 serves snapshot bytes borrowed and requires a little-endian host");

/// The v2 format version tag stored after the magic.
pub const FORMAT_V2: u16 = 2;
/// The v1 format version tag.
pub const FORMAT_V1: u16 = 1;

const HEADER_LEN: usize = 40;
/// Bytes of the header covered by the header CRC (everything before the
/// CRC field itself).
const HEADER_CRC_COVER: usize = HEADER_LEN - 4;
const SECTION_COUNT: usize = 10;
const TABLE_ENTRY_LEN: usize = 24;
const TABLE_LEN: usize = SECTION_COUNT * TABLE_ENTRY_LEN;
/// Offset of the first section payload: header + table + table CRC +
/// zero pad (the pad keeps the data start 8-aligned).
const DATA_START: usize = HEADER_LEN + TABLE_LEN + 8;

const SEC_PARAMS: u32 = 1;
const SEC_SCHEMA: u32 = 2;
const SEC_VALIDITY: u32 = 3;
const SEC_PARTITION: u32 = 4;
const SEC_FEATURES: u32 = 5;
const SEC_ADJACENCY: u32 = 6;
const SEC_COUNTS: u32 = 7;
const SEC_REPS: u32 = 8;
const SEC_CENTROIDS: u32 = 9;
const SEC_INDEX: u32 = 10;

/// Human-readable name of a section id, for errors and `srtool info`.
fn section_name(id: u32) -> &'static str {
    match id {
        SEC_PARAMS => "params",
        SEC_SCHEMA => "schema",
        SEC_VALIDITY => "validity",
        SEC_PARTITION => "partition",
        SEC_FEATURES => "features",
        SEC_ADJACENCY => "adjacency",
        SEC_COUNTS => "counts",
        SEC_REPS => "reps",
        SEC_CENTROIDS => "centroids",
        SEC_INDEX => "index",
        _ => "unknown",
    }
}

fn align8(n: usize) -> usize {
    n.div_ceil(8) * 8
}

// ---------------------------------------------------------------------------
// Aligned buffer + typed slice casts
// ---------------------------------------------------------------------------

/// An owned byte buffer guaranteed to start on an 8-byte boundary.
///
/// `std::fs::read` returns a `Vec<u8>` with alignment 1; the v2 serving
/// path casts buffer ranges to `&[f64]` and 56-byte index nodes, which
/// need the buffer base 8-aligned. Backing the bytes with a `Vec<u64>`
/// guarantees that without any platform-specific allocation.
///
/// ```
/// use sr_serve::AlignedBytes;
/// let a = AlignedBytes::from_slice(&[1, 2, 3]);
/// assert_eq!(a.as_slice(), &[1, 2, 3]);
/// assert_eq!(a.as_slice().as_ptr() as usize % 8, 0);
/// ```
#[derive(Clone)]
pub struct AlignedBytes {
    words: Vec<u64>,
    len: usize,
}

impl AlignedBytes {
    /// A zero-filled aligned buffer of `len` bytes.
    pub fn zeroed(len: usize) -> AlignedBytes {
        AlignedBytes { words: vec![0u64; len.div_ceil(8)], len }
    }

    /// Copies `bytes` into a fresh aligned buffer.
    pub fn from_slice(bytes: &[u8]) -> AlignedBytes {
        let mut a = AlignedBytes::zeroed(bytes.len());
        a.as_mut_slice().copy_from_slice(bytes);
        a
    }

    /// Reads `r` to its end straight into an aligned buffer, so a file
    /// is copied once, by the kernel. `hint` (the expected length) sizes
    /// the buffer up front, one word larger so the read that reports the
    /// end needs no growth; a longer stream grows it by doubling.
    pub(crate) fn read_from(
        mut r: impl std::io::Read,
        hint: usize,
    ) -> std::io::Result<AlignedBytes> {
        let mut words = vec![0u64; hint / 8 + 1];
        let mut len = 0usize;
        loop {
            if len == 8 * words.len() {
                words.resize(2 * words.len(), 0);
            }
            // SAFETY: `words` owns `8 · words.len()` initialized bytes,
            // and `len` never exceeds that.
            let spare = unsafe {
                std::slice::from_raw_parts_mut(
                    words.as_mut_ptr().cast::<u8>().add(len),
                    8 * words.len() - len,
                )
            };
            match r.read(spare) {
                Ok(0) => return Ok(AlignedBytes { words, len }),
                Ok(n) => len += n,
                Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
                Err(e) => return Err(e),
            }
        }
    }

    /// Length in bytes.
    pub fn len(&self) -> usize {
        self.len
    }

    /// `true` when the buffer holds no bytes.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// The buffer as a byte slice (8-aligned base pointer).
    pub fn as_slice(&self) -> &[u8] {
        // SAFETY: `words` owns at least `len` initialized bytes (u64s are
        // fully initialized, including the zero tail), u8 has alignment 1,
        // and the borrow ties the slice to `self`.
        unsafe { std::slice::from_raw_parts(self.words.as_ptr().cast::<u8>(), self.len) }
    }

    /// The buffer as a mutable byte slice.
    pub fn as_mut_slice(&mut self) -> &mut [u8] {
        // SAFETY: as in `as_slice`, plus exclusive access through `&mut
        // self`.
        unsafe { std::slice::from_raw_parts_mut(self.words.as_mut_ptr().cast::<u8>(), self.len) }
    }
}

impl std::fmt::Debug for AlignedBytes {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "AlignedBytes({} bytes)", self.len)
    }
}

/// Marker for types a section byte range may be reinterpreted as: no
/// padding bytes, every bit pattern valid, alignment ≤ 8.
///
/// # Safety
///
/// Implementors must be `#[repr(C)]` (or primitive) compositions of
/// `u32`/`f64` with no padding.
unsafe trait SectionPod: Copy {}
unsafe impl SectionPod for u32 {}
unsafe impl SectionPod for u64 {}
unsafe impl SectionPod for f64 {}
unsafe impl SectionPod for [f64; 2] {}
unsafe impl SectionPod for GroupRect {}
unsafe impl SectionPod for Node {}

/// Reinterprets a little-endian byte slice as a slice of `T`.
/// Panics on misalignment or a length that is not a multiple of
/// `size_of::<T>()` — both are excluded by the layout checks the
/// validator runs before any cast.
fn cast_slice<T: SectionPod>(bytes: &[u8]) -> &[T] {
    let size = std::mem::size_of::<T>();
    assert_eq!(bytes.len() % size, 0, "cast length not a multiple of the element size");
    assert_eq!(bytes.as_ptr() as usize % std::mem::align_of::<T>(), 0, "cast misaligned");
    // SAFETY: length and alignment are checked above; `T: SectionPod`
    // guarantees every bit pattern is a valid `T` and the layout has no
    // padding; the lifetime is inherited from `bytes`.
    unsafe { std::slice::from_raw_parts(bytes.as_ptr().cast::<T>(), bytes.len() / size) }
}

/// The little-endian bytes of a `SectionPod` slice — the inverse of
/// [`cast_slice`], used by the encoder to emit whole typed arrays as one
/// copy instead of an element-at-a-time loop.
fn pod_bytes<T: SectionPod>(vals: &[T]) -> &[u8] {
    // SAFETY: `T: SectionPod` guarantees a padding-free layout, so every
    // byte is initialized; u8 has alignment 1; the lifetime is inherited
    // from `vals`. (Byte order is the host's, which the crate pins to
    // little-endian above.)
    unsafe { std::slice::from_raw_parts(vals.as_ptr().cast::<u8>(), std::mem::size_of_val(vals)) }
}

// ---------------------------------------------------------------------------
// Version negotiation
// ---------------------------------------------------------------------------

/// Reads the format version from the 8-byte magic prefix shared by v1
/// and v2. `None` when the bytes are too short or not an sr-snap file.
///
/// ```
/// assert_eq!(sr_serve::peek_version(b"SRSNAP\x02\x00..."), Some(2));
/// assert_eq!(sr_serve::peek_version(b"not a snapshot"), None);
/// ```
pub fn peek_version(bytes: &[u8]) -> Option<u16> {
    (bytes.len() >= 8 && &bytes[..6] == MAGIC).then(|| u16::from_le_bytes([bytes[6], bytes[7]]))
}

// ---------------------------------------------------------------------------
// Encoding
// ---------------------------------------------------------------------------

/// Copies `bytes` into `buf` at `off`; returns the offset one past the
/// copy.
fn put(buf: &mut [u8], off: usize, bytes: &[u8]) -> usize {
    buf[off..off + bytes.len()].copy_from_slice(bytes);
    off + bytes.len()
}

/// Serializes the index nodes exactly as stored in the INDEX section, so
/// the validator can recompute and `memcmp` them.
fn nodes_to_bytes(nodes: &[Node]) -> &[u8] {
    pod_bytes(nodes)
}

/// The four derived sections of a snapshot: valid-member counts, dense
/// per-(group, attribute) representatives, geographic centroids, and the
/// packed rectangle index.
struct Derived {
    /// Valid-member count per group (the §III-C divisor for `Sum`).
    valid_counts: Vec<u32>,
    /// Dense `t × p` representatives, row-major by group; rows of null
    /// groups are all-zero bits.
    reps: Vec<f64>,
    /// Geographic centroid per group rectangle.
    centroids: Vec<[f64; 2]>,
    /// Hilbert-sorted packed rectangle index over the group bounds.
    index: RectIndex,
}

impl Derived {
    /// Computes the derived sections of `snapshot`.
    fn compute(snapshot: &Snapshot) -> Derived {
        let partition = snapshot.partition();
        let t = partition.num_groups();
        let p = snapshot.num_attrs();
        let mut valid_counts = vec![0u32; t];
        let cell_to_group = partition.cell_to_group();
        for cell in set_bits(snapshot.valid_words()) {
            valid_counts[cell_to_group[cell] as usize] += 1;
        }
        let aggs = snapshot.agg_types();
        let mut reps = vec![0.0f64; t * p];
        for g in 0..t {
            if let Some(fv) = snapshot.feature(g as GroupId) {
                for (k, &v) in fv.iter().enumerate() {
                    reps[g * p + k] = representative(v, aggs[k], valid_counts[g] as usize);
                }
            }
        }
        let bounds = snapshot.bounds();
        let centroids: Vec<[f64; 2]> = partition
            .rects()
            .iter()
            .map(|rect| centroid_of(rect, bounds, snapshot.rows(), snapshot.cols()))
            .collect();
        let index =
            RectIndex::build(partition.rects(), &centroids, snapshot.rows(), snapshot.cols());
        Derived { valid_counts, reps, centroids, index }
    }
}

/// The geographic centroid of a group rectangle — the exact expression
/// both [`Derived::compute`] and [`QueryEngine::verify_derived`]
/// evaluate, so the stored and recomputed centroids compare bit-for-bit.
fn centroid_of(rect: &GroupRect, bounds: Bounds, rows: usize, cols: usize) -> [f64; 2] {
    let lat_step = (bounds.lat_max - bounds.lat_min) / rows as f64;
    let lon_step = (bounds.lon_max - bounds.lon_min) / cols as f64;
    [
        bounds.lat_min + (rect.r0 + rect.r1 + 1) as f64 / 2.0 * lat_step,
        bounds.lon_min + (rect.c0 + rect.c1 + 1) as f64 / 2.0 * lon_step,
    ]
}

/// Serializes a snapshot to its `sr-snap v2` byte representation.
/// Deterministic: equal snapshots produce equal bytes. The derived
/// sections (counts, representatives, centroids, index) are computed
/// here, once per encode, and served straight from the bytes afterwards.
///
/// The writer is single-pass over one exactly-sized buffer: every
/// section length is computable up front, so the payloads are copied —
/// typed arrays as whole-slice `memcpy`s — straight to their final
/// offsets (the zero initialization doubles as every pad byte), and the
/// section table is filled in afterwards with one CRC pass per section
/// over the finished ranges. No intermediate per-section buffers, no
/// reallocation, no second copy. The snapshot already stores the primary
/// tables in their section layouts (bitmap words, the dense feature
/// table, CSR adjacency), so every section is a copy of whole arrays.
pub fn snapshot_to_bytes_v2(s: &Snapshot) -> Vec<u8> {
    let derived = Derived::compute(s);
    let cells = s.num_cells();
    let p = s.num_attrs();
    let t = s.partition().num_groups();
    let idx = &derived.index;
    let num_levels = idx.level_offsets.len() - 1;

    // Exact section lengths (zero padding to 8 included).
    let schema_content: usize = (0..p).map(|k| 4 + s.attr_names()[k].len()).sum();
    let adj_total = s.adjacency().neighbor_ids().len();
    let presence_padded = align8(t.div_ceil(8));
    let adj_offsets_padded = align8(4 * (t + 1));
    let idx_lo_padded = align8(4 * (num_levels + 1));
    let sec_lens: [usize; SECTION_COUNT] = [
        56,                                                       // 1 params
        align8(schema_content),                                   // 2 schema
        align8(cells.div_ceil(8)),                                // 3 validity
        align8(16 * t + 4 * cells),                               // 4 partition
        presence_padded + 8 * t * p,                              // 5 features
        adj_offsets_padded + align8(4 * adj_total),               // 6 adjacency
        align8(4 * t),                                            // 7 counts
        8 * t * p,                                                // 8 reps
        16 * t,                                                   // 9 centroids
        8 + idx_lo_padded + align8(4 * t) + 56 * idx.nodes.len(), // 10 index
    ];
    let mut starts = [0usize; SECTION_COUNT];
    let mut off = DATA_START;
    for (start, len) in starts.iter_mut().zip(&sec_lens) {
        *start = off;
        off += len;
    }
    let file_len = off;
    let mut buf = vec![0u8; file_len];

    // Header (its CRC covers everything before the CRC field).
    put(&mut buf, 0, MAGIC);
    put(&mut buf, 6, &FORMAT_V2.to_le_bytes());
    put(&mut buf, 8, &(file_len as u64).to_le_bytes());
    for (i, v) in [s.rows() as u32, s.cols() as u32, t as u32, p as u32, SECTION_COUNT as u32]
        .into_iter()
        .enumerate()
    {
        put(&mut buf, 16 + 4 * i, &v.to_le_bytes());
    }
    let header_crc = crc32(&buf[..HEADER_CRC_COVER]);
    put(&mut buf, HEADER_CRC_COVER, &header_crc.to_le_bytes());

    // 1 params: theta, ifl, min_adjacent_variation, bounds (7 × f64).
    let b = s.bounds();
    let params = [
        s.theta(),
        s.ifl(),
        s.min_adjacent_variation(),
        b.lat_min,
        b.lat_max,
        b.lon_min,
        b.lon_max,
    ];
    put(&mut buf, starts[0], pod_bytes(&params));

    // 2 schema: per attribute name_len u16 + UTF-8 name + agg u8 +
    // integer u8, zero-padded to 8.
    let mut o = starts[1];
    for k in 0..p {
        let name = s.attr_names()[k].as_bytes();
        o = put(&mut buf, o, &(name.len() as u16).to_le_bytes());
        o = put(&mut buf, o, name);
        buf[o] = match s.agg_types()[k] {
            AggType::Sum => 0,
            AggType::Avg => 1,
            AggType::Mode => 2,
        };
        buf[o + 1] = s.integer_attrs()[k] as u8;
        o += 2;
    }

    // 3 validity: LSB-first cell bitmap, zero-padded to 8 — exactly the
    // little-endian bytes of the validity words.
    put(&mut buf, starts[2], pod_bytes(s.valid_words()));

    // 4 partition: t rectangles (4 × u32 each) then cells × u32
    // cell→group, zero-padded to 8.
    let o = put(&mut buf, starts[3], pod_bytes(s.partition().rects()));
    put(&mut buf, o, pod_bytes(s.partition().cell_to_group()));

    // 5 features: LSB-first group presence bitmap (the presence words,
    // padded to 8), then the dense t × p raw feature table; rows of null
    // groups are zero bits.
    let o = put(&mut buf, starts[4], pod_bytes(s.presence_words()));
    debug_assert_eq!(o, starts[4] + presence_padded);
    put(&mut buf, o, pod_bytes(s.feature_table()));

    // 6 adjacency: CSR — (t + 1) × u32 offsets (padded to 8), then
    // offsets[t] × u32 neighbor ids (padded to 8).
    put(&mut buf, starts[5], pod_bytes(s.adjacency().offsets()));
    put(&mut buf, starts[5] + adj_offsets_padded, pod_bytes(s.adjacency().neighbor_ids()));

    // 7 counts, 8 reps, 9 centroids: whole-array copies.
    put(&mut buf, starts[6], pod_bytes(&derived.valid_counts));
    put(&mut buf, starts[7], pod_bytes(&derived.reps));
    put(&mut buf, starts[8], pod_bytes(&derived.centroids));

    // 10 index: num_levels u32, num_nodes u32, (L + 1) × u32 level
    // offsets (padded to 8), t × u32 entries (padded to 8), then the
    // 56-byte nodes.
    {
        let o = put(&mut buf, starts[9], &(num_levels as u32).to_le_bytes());
        let o = put(&mut buf, o, &(idx.nodes.len() as u32).to_le_bytes());
        put(&mut buf, o, pod_bytes(&idx.level_offsets));
        let o = put(&mut buf, starts[9] + 8 + idx_lo_padded, pod_bytes(&idx.entries));
        put(&mut buf, align8(o), pod_bytes(&idx.nodes));
    }

    // Section table, then its CRC; the 4 trailing pad bytes stay zero.
    for i in 0..SECTION_COUNT {
        let entry = HEADER_LEN + i * TABLE_ENTRY_LEN;
        let crc = crc32(&buf[starts[i]..starts[i] + sec_lens[i]]);
        put(&mut buf, entry, &((i + 1) as u32).to_le_bytes());
        put(&mut buf, entry + 4, &crc.to_le_bytes());
        put(&mut buf, entry + 8, &(starts[i] as u64).to_le_bytes());
        put(&mut buf, entry + 16, &(sec_lens[i] as u64).to_le_bytes());
    }
    let table_crc = crc32(&buf[HEADER_LEN..HEADER_LEN + TABLE_LEN]);
    put(&mut buf, HEADER_LEN + TABLE_LEN, &table_crc.to_le_bytes());
    buf
}

// ---------------------------------------------------------------------------
// Section table introspection
// ---------------------------------------------------------------------------

/// One section table entry, as reported by [`section_table`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SectionInfo {
    /// Numeric section id (1–10).
    pub id: u32,
    /// Human-readable section name.
    pub name: &'static str,
    /// Absolute byte offset of the section payload.
    pub offset: u64,
    /// Payload length in bytes, padding included.
    pub len: u64,
    /// CRC-32 of the payload bytes.
    pub crc: u32,
}

/// Parses the v2 header and section table (verifying both CRCs) without
/// validating the section payloads — the cheap introspection pass
/// `srtool info` uses.
pub fn section_table(bytes: &[u8]) -> Result<Vec<SectionInfo>> {
    let header = Header::parse(bytes)?;
    Ok(header.sections)
}

/// The parsed, CRC-checked header and section table.
struct Header {
    rows: usize,
    cols: usize,
    groups: usize,
    attrs: usize,
    sections: Vec<SectionInfo>,
}

impl Header {
    fn parse(bytes: &[u8]) -> Result<Header> {
        let fmt = |offset: usize, message: String| ServeError::Format { offset, message };
        if bytes.len() < DATA_START {
            return Err(fmt(
                bytes.len(),
                format!("file too short ({} bytes) to hold a v2 header", bytes.len()),
            ));
        }
        if &bytes[..6] != MAGIC {
            return Err(fmt(0, "bad magic: not an sr-snap file".into()));
        }
        let version = u16::from_le_bytes([bytes[6], bytes[7]]);
        if version != FORMAT_V2 {
            return Err(fmt(6, format!("not a v2 snapshot (version {version})")));
        }
        let stored_crc =
            u32::from_le_bytes(bytes[HEADER_CRC_COVER..HEADER_LEN].try_into().unwrap());
        let computed = crc32(&bytes[..HEADER_CRC_COVER]);
        if stored_crc != computed {
            return Err(ServeError::Checksum { stored: stored_crc, computed });
        }
        let file_len = u64::from_le_bytes(bytes[8..16].try_into().unwrap());
        if file_len != bytes.len() as u64 {
            return Err(fmt(
                8,
                format!("file length mismatch: header says {file_len}, buffer has {}", bytes.len()),
            ));
        }
        let u32_at = |o: usize| u32::from_le_bytes(bytes[o..o + 4].try_into().unwrap());
        let rows = u32_at(16) as usize;
        let cols = u32_at(20) as usize;
        let groups = u32_at(24) as usize;
        let attrs = u32_at(28) as usize;
        let section_count = u32_at(32) as usize;
        if section_count != SECTION_COUNT {
            return Err(fmt(
                32,
                format!(
                    "v2 requires exactly {SECTION_COUNT} sections, header says {section_count}"
                ),
            ));
        }
        if rows == 0 || cols == 0 {
            return Err(fmt(16, "zero rows or columns".into()));
        }
        let cells = rows.checked_mul(cols).filter(|&n| n <= MAX_CELLS).ok_or_else(|| {
            ServeError::Format {
                offset: 16,
                message: format!("grid {rows}x{cols} exceeds the format's cell limit"),
            }
        })?;
        if groups == 0 || groups > cells {
            return Err(fmt(24, format!("group count {groups} out of range for {cells} cells")));
        }
        if attrs == 0 || attrs > MAX_ATTRS {
            return Err(fmt(28, format!("attribute count {attrs} out of range")));
        }

        let table = &bytes[HEADER_LEN..HEADER_LEN + TABLE_LEN];
        let stored_table_crc = u32::from_le_bytes(
            bytes[HEADER_LEN + TABLE_LEN..HEADER_LEN + TABLE_LEN + 4].try_into().unwrap(),
        );
        let computed_table_crc = crc32(table);
        if stored_table_crc != computed_table_crc {
            return Err(ServeError::Checksum {
                stored: stored_table_crc,
                computed: computed_table_crc,
            });
        }
        let pad =
            u32::from_le_bytes(bytes[HEADER_LEN + TABLE_LEN + 4..DATA_START].try_into().unwrap());
        if pad != 0 {
            return Err(fmt(HEADER_LEN + TABLE_LEN + 4, "nonzero table padding".into()));
        }

        let mut sections = Vec::with_capacity(SECTION_COUNT);
        let mut expect_offset = DATA_START as u64;
        for i in 0..SECTION_COUNT {
            let e = &table[i * TABLE_ENTRY_LEN..(i + 1) * TABLE_ENTRY_LEN];
            let id = u32::from_le_bytes(e[0..4].try_into().unwrap());
            let crc = u32::from_le_bytes(e[4..8].try_into().unwrap());
            let offset = u64::from_le_bytes(e[8..16].try_into().unwrap());
            let len = u64::from_le_bytes(e[16..24].try_into().unwrap());
            let at = HEADER_LEN + i * TABLE_ENTRY_LEN;
            if id != (i + 1) as u32 {
                return Err(fmt(at, format!("section {} out of order (id {id})", i + 1)));
            }
            if offset != expect_offset {
                return Err(fmt(
                    at,
                    format!(
                        "section {} ({}) at offset {offset}, expected {expect_offset} \
                         (sections must be contiguous)",
                        id,
                        section_name(id)
                    ),
                ));
            }
            if len % 8 != 0 {
                return Err(fmt(
                    at,
                    format!("section {} ({}) length {len} not 8-aligned", id, section_name(id)),
                ));
            }
            expect_offset = offset.checked_add(len).ok_or_else(|| ServeError::Format {
                offset: at,
                message: "section extent overflows".into(),
            })?;
            sections.push(SectionInfo { id, name: section_name(id), offset, len, crc });
        }
        if expect_offset != file_len {
            return Err(fmt(
                HEADER_LEN,
                format!("sections end at {expect_offset}, file length is {file_len}"),
            ));
        }
        Ok(Header { rows, cols, groups, attrs, sections })
    }
}

// ---------------------------------------------------------------------------
// The validated buffer: the query engine
// ---------------------------------------------------------------------------

/// Exact (padding-free) byte ranges of every typed array in the buffer,
/// computed once during validation so accessors are a slice + cast.
#[derive(Debug, Clone)]
struct Layout {
    validity: Range<usize>,
    rects: Range<usize>,
    cell_to_group: Range<usize>,
    presence: Range<usize>,
    features: Range<usize>,
    adj_offsets: Range<usize>,
    adj_neighbors: Range<usize>,
    counts: Range<usize>,
    reps: Range<usize>,
    centroids: Range<usize>,
    idx_level_offsets: Range<usize>,
    idx_entries: Range<usize>,
    idx_nodes: Range<usize>,
}

/// A query engine over one snapshot: a fully validated `sr-snap v2`
/// buffer, served borrowed.
///
/// Construction ([`snapshot_v2_from_bytes`] /
/// [`snapshot_v2_from_aligned`], the loaders [`load_engine`] /
/// [`engine_from_bytes`], or [`QueryEngine::new`] over an owned
/// snapshot) verifies every checksum and every bound the accessors and
/// query algorithms index by; afterwards each accessor is a bounds-known
/// slice into the buffer, the point/window/knn queries
/// ([`crate::query`]) answer from those slices, and
/// [`QueryEngine::verify_derived`] is available for the deep bit-level
/// audit of the derived sections. The buffer is shared behind an
/// [`std::sync::Arc`], so cloning an engine never copies the bytes; the
/// decoded attribute schema is the only owned data.
///
/// ```
/// use sr_serve::{snapshot_to_bytes_v2, snapshot_v2_from_bytes, QueryEngine, Snapshot};
/// let grid = sr_grid::GridDataset::univariate(
///     6, 6, (0..36).map(|i| 5.0 + (i % 6) as f64).collect(),
/// ).unwrap();
/// let out = sr_core::repartition(&grid, 0.1).unwrap();
/// let snap = Snapshot::build(&out.repartitioned, &grid, 0.1).unwrap();
/// let engine = snapshot_v2_from_bytes(&snapshot_to_bytes_v2(&snap)).unwrap();
/// assert_eq!((engine.rows(), engine.cols()), (6, 6));
/// assert_eq!(engine.stats().cells, 36);
/// assert_eq!(engine.stats(), QueryEngine::new(snap.clone()).stats());
/// assert_eq!(engine.to_snapshot().unwrap(), snap);
/// ```
#[derive(Debug, Clone)]
pub struct QueryEngine {
    bytes: Arc<AlignedBytes>,
    rows: usize,
    cols: usize,
    groups: usize,
    attrs: usize,
    theta: f64,
    ifl: f64,
    min_adjacent_variation: f64,
    bounds: Bounds,
    attr_names: Vec<String>,
    agg_types: Vec<AggType>,
    integer_attrs: Vec<bool>,
    layout: Layout,
}

/// Validates v2 `bytes` (copying them into an [`AlignedBytes`]) and
/// returns the engine serving them. See [`snapshot_v2_from_aligned`].
pub fn snapshot_v2_from_bytes(bytes: &[u8]) -> Result<QueryEngine> {
    snapshot_v2_from_aligned(AlignedBytes::from_slice(bytes))
}

/// Validates an aligned v2 buffer and returns the engine serving it.
///
/// The pass verifies, in order: header + table + per-section CRC-32s;
/// section layout (ids, contiguity, alignment, exact file coverage);
/// schema decode; and every invariant the borrowed accessors and query
/// algorithms index by — rectangle tiling and cell→group agreement,
/// CSR offset/neighbor ranges, index level/run bounds. After it
/// returns, no accessor or query on the snapshot can read out of
/// bounds or panic, whatever the bytes said. Nothing per-cell or
/// per-group is allocated.
///
/// Bit-level agreement of the four *derived* sections with
/// recomputation (counts, representatives, centroids, index packing /
/// curve order) is guaranteed by the encoder and is deliberately
/// **not** recomputed here: re-deriving on every load would cost more
/// than the rest of startup combined. [`QueryEngine::verify_derived`]
/// performs that deep check on demand; the property suites run it on
/// every generated file, and `srtool info` runs it on operator request.
pub fn snapshot_v2_from_aligned(bytes: AlignedBytes) -> Result<QueryEngine> {
    let buf = bytes.as_slice();
    let header = Header::parse(buf)?;
    let (rows, cols) = (header.rows, header.cols);
    let cells = rows * cols;
    let t = header.groups;
    let p = header.attrs;
    let fmt = |offset: usize, message: String| ServeError::Format { offset, message };

    // Per-section CRCs before any content is interpreted.
    for s in &header.sections {
        let payload = &buf[s.offset as usize..(s.offset + s.len) as usize];
        let computed = crc32(payload);
        if computed != s.crc {
            return Err(ServeError::Checksum { stored: s.crc, computed });
        }
    }
    let range = |id: u32| -> Range<usize> {
        let s = &header.sections[(id - 1) as usize];
        s.offset as usize..(s.offset + s.len) as usize
    };
    let expect_len = |id: u32, want: usize| -> Result<()> {
        let r = range(id);
        if r.len() != want {
            return Err(ServeError::Format {
                offset: r.start,
                message: format!(
                    "section {} ({}) length {} != expected {want}",
                    id,
                    section_name(id),
                    r.len()
                ),
            });
        }
        Ok(())
    };
    // Zero padding between `content` bytes and the end of the section.
    let check_pad = |id: u32, content: usize| -> Result<Range<usize>> {
        let r = range(id);
        if content > r.len() || r.len() - content >= 8 {
            return Err(ServeError::Format {
                offset: r.start,
                message: format!(
                    "section {} ({}) length {} cannot hold {content} content bytes",
                    id,
                    section_name(id),
                    r.len()
                ),
            });
        }
        if buf[r.start + content..r.end].iter().any(|&b| b != 0) {
            return Err(ServeError::Format {
                offset: r.start + content,
                message: format!("section {} ({}) has nonzero padding", id, section_name(id)),
            });
        }
        Ok(r.start..r.start + content)
    };

    // 1 params.
    expect_len(SEC_PARAMS, 56)?;
    let params = range(SEC_PARAMS);
    let pv: &[f64] = cast_slice(&buf[params.clone()]);
    let (theta, ifl, min_adjacent_variation) = (pv[0], pv[1], pv[2]);
    let bounds = Bounds { lat_min: pv[3], lat_max: pv[4], lon_min: pv[5], lon_max: pv[6] };

    // 2 schema.
    let schema = range(SEC_SCHEMA);
    let mut attr_names = Vec::with_capacity(p);
    let mut agg_types = Vec::with_capacity(p);
    let mut integer_attrs = Vec::with_capacity(p);
    {
        let sec = &buf[schema.clone()];
        let mut pos = 0usize;
        let need = |pos: usize, n: usize| -> Result<()> {
            if sec.len() - pos < n {
                return Err(ServeError::Format {
                    offset: schema.start + pos,
                    message: "schema section truncated".into(),
                });
            }
            Ok(())
        };
        for _ in 0..p {
            need(pos, 2)?;
            let len = u16::from_le_bytes([sec[pos], sec[pos + 1]]) as usize;
            pos += 2;
            need(pos, len + 2)?;
            let name = std::str::from_utf8(&sec[pos..pos + len])
                .map_err(|e| ServeError::Format {
                    offset: schema.start + pos,
                    message: format!("attribute name is not UTF-8: {e}"),
                })?
                .to_string();
            pos += len;
            let agg = match sec[pos] {
                0 => AggType::Sum,
                1 => AggType::Avg,
                2 => AggType::Mode,
                other => {
                    return Err(fmt(
                        schema.start + pos,
                        format!("unknown aggregation code {other}"),
                    ))
                }
            };
            let integer = match sec[pos + 1] {
                0 => false,
                1 => true,
                other => {
                    return Err(fmt(
                        schema.start + pos + 1,
                        format!("integer flag must be 0/1, got {other}"),
                    ))
                }
            };
            pos += 2;
            attr_names.push(name);
            agg_types.push(agg);
            integer_attrs.push(integer);
        }
        check_pad(SEC_SCHEMA, pos)?;
    }

    // 3 validity bitmap: trailing bits beyond `cells` must be zero.
    expect_len(SEC_VALIDITY, align8(cells.div_ceil(8)))?;
    let validity = check_pad(SEC_VALIDITY, cells.div_ceil(8))?;
    let vbits = &buf[validity.clone()];
    if cells % 8 != 0 && vbits[cells / 8] >> (cells % 8) != 0 {
        return Err(fmt(validity.start + cells / 8, "validity bits beyond the last cell".into()));
    }

    // 4 partition.
    expect_len(SEC_PARTITION, align8(16 * t + 4 * cells))?;
    let part_content = check_pad(SEC_PARTITION, 16 * t + 4 * cells)?;
    let rects_range = part_content.start..part_content.start + 16 * t;
    let c2g_range = rects_range.end..part_content.end;
    let rects: &[GroupRect] = cast_slice(&buf[rects_range.clone()]);
    let cell_to_group: &[u32] = cast_slice(&buf[c2g_range.clone()]);
    for (gid, rect) in rects.iter().enumerate() {
        if rect.r0 > rect.r1
            || rect.c0 > rect.c1
            || rect.r1 as usize >= rows
            || rect.c1 as usize >= cols
        {
            return Err(fmt(
                rects_range.start + 16 * gid,
                format!("group {gid} rectangle out of grid bounds"),
            ));
        }
    }
    // Tiling: every cell of rect(g) maps to g, checked row-run by
    // row-run so the scan is contiguous u32 compares. Combined with the
    // area sum this is complete: per-rect agreement forbids overlap (an
    // overlapped cell would have to map to two ids), and disjoint
    // rectangles whose areas sum to `cells` must cover the grid — which
    // also proves every `cell_to_group` value is a real group id.
    let mut counted = 0usize;
    for (gid, rect) in rects.iter().enumerate() {
        counted += rect.len();
        if counted > cells {
            return Err(fmt(
                rects_range.start,
                "group rectangles overlap or exceed the grid".into(),
            ));
        }
        let (c0, c1) = (rect.c0 as usize, rect.c1 as usize);
        for row in rect.r0 as usize..=rect.r1 as usize {
            let run = &cell_to_group[row * cols + c0..row * cols + c1 + 1];
            if run.iter().any(|&g| g as usize != gid) {
                return Err(fmt(
                    c2g_range.start + 4 * (row * cols + c0),
                    format!("row {row} of group {gid}'s rectangle is not mapped to it"),
                ));
            }
        }
    }
    if counted != cells {
        return Err(fmt(rects_range.start, "group rectangles do not tile the grid".into()));
    }

    // 5 features: presence bitmap + dense raw features.
    let presence_padded = align8(t.div_ceil(8));
    expect_len(SEC_FEATURES, presence_padded + 8 * t * p)?;
    let feats = range(SEC_FEATURES);
    let presence = feats.start..feats.start + t.div_ceil(8);
    if buf[presence.end..feats.start + presence_padded].iter().any(|&b| b != 0) {
        return Err(fmt(presence.end, "features section has nonzero presence padding".into()));
    }
    let pbits = &buf[presence.clone()];
    if t % 8 != 0 && pbits[t / 8] >> (t % 8) != 0 {
        return Err(fmt(presence.start + t / 8, "presence bits beyond the last group".into()));
    }
    let features_range = feats.start + presence_padded..feats.end;

    // 6 adjacency (CSR).
    let adj = range(SEC_ADJACENCY);
    let offsets_padded = align8(4 * (t + 1));
    if adj.len() < offsets_padded {
        return Err(fmt(adj.start, "adjacency section too short for its offsets".into()));
    }
    let adj_offsets_range = adj.start..adj.start + 4 * (t + 1);
    if buf[adj_offsets_range.end..adj.start + offsets_padded].iter().any(|&b| b != 0) {
        return Err(fmt(adj_offsets_range.end, "adjacency offsets have nonzero padding".into()));
    }
    let adj_offsets: &[u32] = cast_slice(&buf[adj_offsets_range.clone()]);
    if adj_offsets[0] != 0 {
        return Err(fmt(adj_offsets_range.start, "adjacency offsets must start at 0".into()));
    }
    if adj_offsets.windows(2).any(|w| w[0] > w[1]) {
        return Err(fmt(adj_offsets_range.start, "adjacency offsets must be monotonic".into()));
    }
    let total_neighbors = adj_offsets[t] as usize;
    if adj.len() != offsets_padded + align8(4 * total_neighbors) {
        return Err(fmt(
            adj.start,
            format!("adjacency section length does not match {total_neighbors} neighbors"),
        ));
    }
    let adj_neighbors_range =
        adj.start + offsets_padded..adj.start + offsets_padded + 4 * total_neighbors;
    if buf[adj_neighbors_range.end..adj.end].iter().any(|&b| b != 0) {
        return Err(fmt(
            adj_neighbors_range.end,
            "adjacency neighbors have nonzero padding".into(),
        ));
    }
    let adj_neighbors: &[u32] = cast_slice(&buf[adj_neighbors_range.clone()]);
    if let Some(&bad) = adj_neighbors.iter().find(|&&nb| nb as usize >= t) {
        return Err(fmt(adj_neighbors_range.start, format!("out-of-range neighbor {bad}")));
    }

    // 7 counts.
    expect_len(SEC_COUNTS, align8(4 * t))?;
    let counts_range = check_pad(SEC_COUNTS, 4 * t)?;

    // 8 reps.
    expect_len(SEC_REPS, 8 * t * p)?;
    let reps_range = range(SEC_REPS);

    // 9 centroids.
    expect_len(SEC_CENTROIDS, 16 * t)?;
    let centroids_range = range(SEC_CENTROIDS);

    // 10 index: layout, then every range the traversal will index —
    // level offsets into the node array, node runs into the child level
    // (entries at level 0), entry values into the group tables.
    let idx = range(SEC_INDEX);
    if idx.len() < 8 {
        return Err(fmt(idx.start, "index section too short for its header".into()));
    }
    let num_levels = u32::from_le_bytes(buf[idx.start..idx.start + 4].try_into().unwrap()) as usize;
    let num_nodes =
        u32::from_le_bytes(buf[idx.start + 4..idx.start + 8].try_into().unwrap()) as usize;
    let lo_padded = align8(4 * (num_levels + 1));
    let entries_padded = align8(4 * t);
    if num_levels == 0 || idx.len() != 8 + lo_padded + entries_padded + 56 * num_nodes {
        return Err(fmt(
            idx.start,
            format!("index section length does not match {num_levels} levels / {num_nodes} nodes"),
        ));
    }
    let idx_lo_range = idx.start + 8..idx.start + 8 + 4 * (num_levels + 1);
    if buf[idx_lo_range.end..idx.start + 8 + lo_padded].iter().any(|&b| b != 0) {
        return Err(fmt(idx_lo_range.end, "index level offsets have nonzero padding".into()));
    }
    let idx_entries_range = idx.start + 8 + lo_padded..idx.start + 8 + lo_padded + 4 * t;
    if buf[idx_entries_range.end..idx.start + 8 + lo_padded + entries_padded]
        .iter()
        .any(|&b| b != 0)
    {
        return Err(fmt(idx_entries_range.end, "index entries have nonzero padding".into()));
    }
    let idx_nodes_range = idx.start + 8 + lo_padded + entries_padded..idx.end;
    let level_offsets: &[u32] = cast_slice(&buf[idx_lo_range.clone()]);
    let entries: &[u32] = cast_slice(&buf[idx_entries_range.clone()]);
    let nodes: &[Node] = cast_slice(&buf[idx_nodes_range.clone()]);
    if level_offsets[0] != 0 || level_offsets[num_levels] as usize != num_nodes {
        return Err(fmt(idx_lo_range.start, "index level offsets do not span the nodes".into()));
    }
    if level_offsets.windows(2).any(|w| w[0] >= w[1]) {
        return Err(fmt(idx_lo_range.start, "index level offsets must be increasing".into()));
    }
    if (level_offsets[num_levels] - level_offsets[num_levels - 1]) != 1 {
        return Err(fmt(idx_lo_range.start, "index must have a single root node".into()));
    }
    if entries.iter().any(|&g| g as usize >= t) {
        return Err(fmt(idx_entries_range.start, "index entry out of group range".into()));
    }
    for lvl in 0..num_levels {
        let (lo, hi) = (level_offsets[lvl] as usize, level_offsets[lvl + 1] as usize);
        // A node's run indexes the child level (the entries at level 0).
        let child_len =
            if lvl == 0 { t } else { (level_offsets[lvl] - level_offsets[lvl - 1]) as usize };
        for node in &nodes[lo..hi] {
            if node.start > node.end || node.end as usize > child_len {
                return Err(fmt(
                    idx_nodes_range.start,
                    format!("index node run out of range at level {lvl}"),
                ));
            }
        }
    }

    let layout = Layout {
        validity,
        rects: rects_range,
        cell_to_group: c2g_range,
        presence,
        features: features_range,
        adj_offsets: adj_offsets_range,
        adj_neighbors: adj_neighbors_range,
        counts: counts_range,
        reps: reps_range,
        centroids: centroids_range,
        idx_level_offsets: idx_lo_range,
        idx_entries: idx_entries_range,
        idx_nodes: idx_nodes_range,
    };
    Ok(QueryEngine {
        bytes: Arc::new(bytes),
        rows,
        cols,
        groups: t,
        attrs: p,
        theta,
        ifl,
        min_adjacent_variation,
        bounds,
        attr_names,
        agg_types,
        integer_attrs,
        layout,
    })
}

impl QueryEngine {
    /// Builds an engine over an owned snapshot: encodes it to `sr-snap
    /// v2` bytes in memory and validates them exactly as a loaded file
    /// is validated, so every engine serves the same representation.
    ///
    /// ```
    /// use sr_serve::{QueryEngine, Snapshot};
    /// let grid = sr_grid::GridDataset::univariate(
    ///     8, 8, (0..64).map(|i| 10.0 + (i % 8) as f64).collect(),
    /// ).unwrap();
    /// let out = sr_core::repartition(&grid, 0.1).unwrap();
    /// let snap = Snapshot::build(&out.repartitioned, &grid, 0.1).unwrap();
    /// let engine = QueryEngine::new(snap);
    /// assert_eq!(engine.stats().cells, 64);
    /// ```
    pub fn new(snapshot: Snapshot) -> Self {
        // `Snapshot::build` and `from_parts` admit only snapshots whose
        // encoding validates (tiling, schema and format limits included).
        snapshot_v2_from_aligned(AlignedBytes::from_slice(&snapshot_to_bytes_v2(&snapshot)))
            .expect("the v2 encoding of a valid snapshot validates")
    }

    fn buf(&self) -> &[u8] {
        self.bytes.as_slice()
    }

    /// Grid rows.
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Grid columns.
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// Total cells, `rows · cols`.
    pub fn num_cells(&self) -> usize {
        self.rows * self.cols
    }

    /// Total cell-groups.
    pub fn num_groups(&self) -> usize {
        self.groups
    }

    /// Attributes per cell.
    pub fn num_attrs(&self) -> usize {
        self.attrs
    }

    /// The loss budget `θ` the run was given.
    pub fn theta(&self) -> f64 {
        self.theta
    }

    /// The achieved IFL of the frozen partition.
    pub fn ifl(&self) -> f64 {
        self.ifl
    }

    /// The accepted min-adjacent variation.
    pub fn min_adjacent_variation(&self) -> f64 {
        self.min_adjacent_variation
    }

    /// Geographic bounds of the grid.
    pub fn bounds(&self) -> Bounds {
        self.bounds
    }

    /// Attribute names.
    pub fn attr_names(&self) -> &[String] {
        &self.attr_names
    }

    /// Per-attribute aggregation types.
    pub fn agg_types(&self) -> &[AggType] {
        &self.agg_types
    }

    /// Per-attribute integer-typed flags.
    pub fn integer_attrs(&self) -> &[bool] {
        &self.integer_attrs
    }

    /// Whether `cell` is valid (non-null) in the original dataset.
    pub fn cell_valid(&self, cell: CellId) -> bool {
        let bits = &self.buf()[self.layout.validity.clone()];
        bits[cell as usize / 8] >> (cell as usize % 8) & 1 == 1
    }

    /// The group containing `cell`.
    pub fn group_of(&self, cell: CellId) -> GroupId {
        self.cell_to_group()[cell as usize]
    }

    /// The group rectangles, borrowed straight from the buffer.
    pub fn rects(&self) -> &[GroupRect] {
        cast_slice(&self.buf()[self.layout.rects.clone()])
    }

    /// The row-major cell → group mapping.
    pub fn cell_to_group(&self) -> &[u32] {
        cast_slice(&self.buf()[self.layout.cell_to_group.clone()])
    }

    /// Whether group `g` carries a feature vector.
    pub fn featured(&self, g: GroupId) -> bool {
        let bits = &self.buf()[self.layout.presence.clone()];
        bits[g as usize / 8] >> (g as usize % 8) & 1 == 1
    }

    /// The group's *raw* allocated feature vector (Algorithm 2 output,
    /// before the §III-C representative transform); `None` for null
    /// groups.
    pub fn feature(&self, g: GroupId) -> Option<&[f64]> {
        self.featured(g).then(|| {
            let all: &[f64] = cast_slice(&self.buf()[self.layout.features.clone()]);
            &all[g as usize * self.attrs..(g as usize + 1) * self.attrs]
        })
    }

    /// The group's representative vector (§III-C); `None` for null
    /// groups.
    pub fn rep(&self, g: GroupId) -> Option<&[f64]> {
        self.featured(g).then(|| {
            let all: &[f64] = cast_slice(&self.buf()[self.layout.reps.clone()]);
            &all[g as usize * self.attrs..(g as usize + 1) * self.attrs]
        })
    }

    /// Valid-member count per group.
    pub fn valid_counts(&self) -> &[u32] {
        cast_slice(&self.buf()[self.layout.counts.clone()])
    }

    /// Geographic centroids per group rectangle.
    pub fn centroids(&self) -> &[[f64; 2]] {
        cast_slice(&self.buf()[self.layout.centroids.clone()])
    }

    /// Neighbor ids of group `g` (CSR slice).
    pub fn neighbors(&self, g: GroupId) -> &[GroupId] {
        let offsets: &[u32] = cast_slice(&self.buf()[self.layout.adj_offsets.clone()]);
        let all: &[u32] = cast_slice(&self.buf()[self.layout.adj_neighbors.clone()]);
        &all[offsets[g as usize] as usize..offsets[g as usize + 1] as usize]
    }

    /// The packed rectangle index, borrowed.
    pub(crate) fn index_view(&self) -> RectIndexView<'_> {
        RectIndexView {
            entries: cast_slice(&self.buf()[self.layout.idx_entries.clone()]),
            nodes: cast_slice(&self.buf()[self.layout.idx_nodes.clone()]),
            level_offsets: cast_slice(&self.buf()[self.layout.idx_level_offsets.clone()]),
        }
    }

    /// Deep audit of the four derived sections: verifies, bit for bit,
    /// that counts, representatives, centroids, and the packed index
    /// (curve-ordered permutation, level packing, node boxes) equal a
    /// recomputation from the primary sections — i.e. that the encoder
    /// that produced this file ran this crate's derivation, which is
    /// what makes served values bit-identical to the §III-C
    /// reconstruction.
    ///
    /// Construction already guarantees memory safety and
    /// panic-freedom; this check guards against a buggy or foreign
    /// *encoder* whose output is internally consistent enough to pass
    /// the structural pass. It costs more than the rest of load
    /// combined (a Hilbert key per group, a representative per group ×
    /// attribute), so it is not part of the hot path: the property
    /// suites run it on every generated file, and `srtool info` runs it
    /// on demand.
    pub fn verify_derived(&self) -> Result<()> {
        let fmt = |message: String| ServeError::Format { offset: 0, message };
        let (t, p) = (self.groups, self.attrs);
        let rects = self.rects();
        let cell_to_group = self.cell_to_group();
        let counts = self.valid_counts();
        let centroids = self.centroids();

        // Counts recompute from the validity bitmap + partition.
        let mut expect_counts = vec![0u32; t];
        for cell in 0..self.num_cells() {
            if self.cell_valid(cell as CellId) {
                expect_counts[cell_to_group[cell] as usize] += 1;
            }
        }
        if counts != expect_counts.as_slice() {
            return Err(fmt("counts section disagrees with the validity bitmap".into()));
        }
        // Valid cell → featured group (the invariant that lets the
        // engine equate cell validity with answerability).
        for (cell, &g) in cell_to_group.iter().enumerate() {
            if self.cell_valid(cell as CellId) && !self.featured(g) {
                return Err(fmt(format!("valid cell {cell} belongs to a null group")));
            }
        }
        // Representatives bit-equal recomputation; null groups carry
        // all-zero feature and representative rows.
        let features: &[f64] = cast_slice(&self.buf()[self.layout.features.clone()]);
        let reps: &[f64] = cast_slice(&self.buf()[self.layout.reps.clone()]);
        for g in 0..t {
            for k in 0..p {
                let (f, r) = (features[g * p + k], reps[g * p + k]);
                if self.featured(g as u32) {
                    let want = representative(f, self.agg_types[k], counts[g] as usize);
                    if r.to_bits() != want.to_bits() {
                        return Err(fmt(format!(
                            "group {g} attr {k} representative disagrees with recomputation"
                        )));
                    }
                } else if f.to_bits() != 0 || r.to_bits() != 0 {
                    return Err(fmt(format!(
                        "null group {g} has nonzero feature/representative bits"
                    )));
                }
            }
        }
        // Centroids: the exact expression the encoder evaluates.
        for (g, rect) in rects.iter().enumerate() {
            let want = centroid_of(rect, self.bounds, self.rows, self.cols);
            if centroids[g][0].to_bits() != want[0].to_bits()
                || centroids[g][1].to_bits() != want[1].to_bits()
            {
                return Err(fmt(format!("group {g} centroid disagrees with recomputation")));
            }
        }
        // Index: entries are the (Hilbert key, gid)-sorted permutation
        // of group ids, and nodes + level offsets equal a recomputed
        // packing of that order.
        let view = self.index_view();
        let mut seen = vec![false; t];
        let mut prev: Option<(u64, u32)> = None;
        for &g in view.entries {
            if seen[g as usize] {
                return Err(fmt(format!("index entries are not a permutation (group {g})")));
            }
            seen[g as usize] = true;
            let key = (index::entry_sort_key(&rects[g as usize], self.rows, self.cols), g);
            if prev.is_some_and(|p| p >= key) {
                return Err(fmt("index entries are not in (hilbert key, gid) order".into()));
            }
            prev = Some(key);
        }
        let (expect_nodes, expect_level_offsets) =
            index::pack_levels(view.entries, rects, centroids);
        if view.level_offsets != expect_level_offsets.as_slice()
            || view.nodes.len() != expect_nodes.len()
            || self.buf()[self.layout.idx_nodes.clone()] != *nodes_to_bytes(&expect_nodes)
        {
            return Err(fmt("index nodes disagree with recomputation".into()));
        }
        Ok(())
    }

    /// Clones the partition into its owned form.
    pub fn clone_partition(&self) -> Partition {
        Partition::new(self.rows, self.cols, self.rects().to_vec(), self.cell_to_group().to_vec())
    }

    /// Clones the adjacency lists into their owned form.
    pub fn clone_adjacency(&self) -> AdjacencyList {
        AdjacencyList::from_csr(
            cast_slice(&self.buf()[self.layout.adj_offsets.clone()]).to_vec(),
            cast_slice(&self.buf()[self.layout.adj_neighbors.clone()]).to_vec(),
        )
    }

    /// A bitmap section as `u64` words: `⌈n_bits / 64⌉` words from
    /// `start`. Validation proved the pad bytes and the bits past
    /// `n_bits` zero.
    fn words(&self, start: usize, n_bits: usize) -> &[u64] {
        cast_slice(&self.buf()[start..start + 8 * n_bits.div_ceil(64)])
    }

    /// Materializes the buffer into an owned [`Snapshot`] — the bridge
    /// for code that genuinely needs owned data (shard splitting, engine
    /// fusing, v2 → v1 migration); the query path never calls it. A
    /// v1 → v2 → v1 round trip is byte-identical. Every table is one copy
    /// of its section; the rows of absent groups are zeroed, whatever the
    /// file held there. Fails when the buffer breaks a cross-section
    /// invariant that load validation leaves to
    /// [`QueryEngine::verify_derived`] (a valid cell in a null group).
    pub fn to_snapshot(&self) -> Result<Snapshot> {
        let presence = self.words(self.layout.presence.start, self.groups).to_vec();
        let mut features: Vec<f64> = cast_slice(&self.buf()[self.layout.features.clone()]).to_vec();
        for (g, row) in features.chunks_exact_mut(self.attrs).enumerate() {
            if !bit(&presence, g) {
                row.fill(0.0);
            }
        }
        Snapshot::from_parts(
            self.theta,
            self.ifl,
            self.min_adjacent_variation,
            self.bounds,
            self.attr_names.clone(),
            self.agg_types.clone(),
            self.integer_attrs.clone(),
            self.words(self.layout.validity.start, self.num_cells()).to_vec(),
            self.clone_partition(),
            presence,
            features,
            self.clone_adjacency(),
        )
    }
}

// ---------------------------------------------------------------------------
// Files, engines, migration
// ---------------------------------------------------------------------------

/// Saves a snapshot to `path` in v2 format, atomically (temp file +
/// fsync + rename, like [`crate::save_snapshot`]).
pub fn save_snapshot_v2(s: &Snapshot, path: impl AsRef<Path>) -> Result<()> {
    save_snapshot_v2_with(s, path, None)
}

/// [`save_snapshot_v2`] with the write path subject to a
/// [`sr_fault::FaultPlan`] (`write.*` faults).
pub fn save_snapshot_v2_with(
    s: &Snapshot,
    path: impl AsRef<Path>,
    plan: Option<&sr_fault::FaultPlan>,
) -> Result<()> {
    write_bytes_atomic(&snapshot_to_bytes_v2(s), path.as_ref(), plan)
}

/// Loads a snapshot file of **either** format version into a
/// [`QueryEngine`]: a v2 file is validated in place and served borrowed;
/// a v1 file is decoded and transcoded to v2 ([`QueryEngine::new`]).
/// This is the loader the serving tier ([`crate::SnapshotCache`], shard
/// routers, `srtool serve`) uses.
///
/// ```no_run
/// let engine = sr_serve::load_engine("current.snap").unwrap();
/// println!("serving {} groups", engine.num_groups());
/// ```
pub fn load_engine(path: impl AsRef<Path>) -> Result<QueryEngine> {
    load_engine_with(path, None)
}

/// [`load_engine`] with the read path subject to a
/// [`sr_fault::FaultPlan`] (`read.*` faults). Torn reads surface as
/// checksum/format errors for both formats, never as a garbage engine.
pub fn load_engine_with(
    path: impl AsRef<Path>,
    plan: Option<&sr_fault::FaultPlan>,
) -> Result<QueryEngine> {
    engine_from_aligned(read_file_aligned(path.as_ref(), plan)?)
}

/// Builds a [`QueryEngine`] from snapshot bytes of either format, like
/// [`load_engine`].
pub fn engine_from_bytes(bytes: &[u8]) -> Result<QueryEngine> {
    engine_from_aligned(AlignedBytes::from_slice(bytes))
}

/// The engine loaders' one version sniff: v2 bytes are validated in
/// place; anything else is decoded as v1 (which rejects non-snapshots)
/// and transcoded.
fn engine_from_aligned(buf: AlignedBytes) -> Result<QueryEngine> {
    match peek_version(buf.as_slice()) {
        Some(FORMAT_V2) => snapshot_v2_from_aligned(buf),
        _ => Ok(QueryEngine::new(snapshot_from_bytes(buf.as_slice())?)),
    }
}

/// Converts snapshot bytes between format versions. The source version
/// is sniffed from the bytes; `to_version` is `1` or `2`. Either
/// direction is lossless: v1 → v2 → v1 reproduces the v1 bytes exactly
/// (and vice versa), because v2 stores the raw feature table alongside
/// the derived representatives.
///
/// ```
/// use sr_serve::{migrate_snapshot_bytes, snapshot_to_bytes, Snapshot};
/// let grid = sr_grid::GridDataset::univariate(
///     6, 6, (0..36).map(|i| 5.0 + (i % 6) as f64).collect(),
/// ).unwrap();
/// let out = sr_core::repartition(&grid, 0.1).unwrap();
/// let snap = Snapshot::build(&out.repartitioned, &grid, 0.1).unwrap();
/// let v1 = snapshot_to_bytes(&snap);
/// let v2 = migrate_snapshot_bytes(&v1, 2).unwrap();
/// assert_eq!(migrate_snapshot_bytes(&v2, 1).unwrap(), v1);
/// ```
pub fn migrate_snapshot_bytes(bytes: &[u8], to_version: u16) -> Result<Vec<u8>> {
    let snap = match peek_version(bytes) {
        Some(FORMAT_V2) => snapshot_v2_from_bytes(bytes)?.to_snapshot()?,
        _ => snapshot_from_bytes(bytes)?,
    };
    match to_version {
        FORMAT_V1 => Ok(crate::snapshot::snapshot_to_bytes(&snap)),
        FORMAT_V2 => Ok(snapshot_to_bytes_v2(&snap)),
        other => Err(ServeError::Invalid(format!("unknown target format version {other}"))),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sr_core::repartition;
    use sr_grid::GridDataset;

    fn sample_snapshot() -> Snapshot {
        let vals: Vec<f64> =
            (0..64).map(|i| 100.0 + (i / 8) as f64 * 0.7 + (i % 8) as f64 * 0.4).collect();
        let mut grid = GridDataset::univariate(8, 8, vals).unwrap();
        grid.set_null(63);
        let out = repartition(&grid, 0.05).unwrap();
        Snapshot::build(&out.repartitioned, &grid, 0.05).unwrap()
    }

    #[test]
    fn v2_roundtrip_is_bit_exact() {
        let snap = sample_snapshot();
        let bytes = snapshot_to_bytes_v2(&snap);
        let v2 = snapshot_v2_from_bytes(&bytes).unwrap();
        // Encoder output passes the deep derived-section audit.
        v2.verify_derived().unwrap();
        assert_eq!(v2.to_snapshot().unwrap(), snap);
        // Re-encoding the materialized snapshot reproduces the bytes.
        assert_eq!(snapshot_to_bytes_v2(&v2.to_snapshot().unwrap()), bytes);
    }

    #[test]
    fn verify_derived_catches_a_consistent_reencode_of_wrong_derived_data() {
        // Build a file whose derived sections are *internally* wrapped
        // with correct CRCs but disagree with recomputation: swap two
        // counts entries and reseal the section + table. The structural
        // load must accept it (nothing indexes out of bounds); the deep
        // audit must reject it.
        let snap = sample_snapshot();
        let mut bytes = snapshot_to_bytes_v2(&snap);
        let sections = section_table(&bytes).unwrap();
        let counts = &sections[SEC_COUNTS as usize - 1];
        let (off, len) = (counts.offset as usize, counts.len as usize);
        let a = u32::from_le_bytes(bytes[off..off + 4].try_into().unwrap());
        let b = u32::from_le_bytes(bytes[off + 4..off + 8].try_into().unwrap());
        assert_ne!(a, b, "sample snapshot needs two distinct leading counts");
        bytes[off..off + 4].copy_from_slice(&b.to_le_bytes());
        bytes[off + 4..off + 8].copy_from_slice(&a.to_le_bytes());
        // Reseal: section CRC lives in its table entry, and the table
        // has its own CRC.
        let crc = crc32(&bytes[off..off + len]);
        let entry = HEADER_LEN + (SEC_COUNTS as usize - 1) * TABLE_ENTRY_LEN;
        bytes[entry + 4..entry + 8].copy_from_slice(&crc.to_le_bytes());
        let table_crc = crc32(&bytes[HEADER_LEN..HEADER_LEN + TABLE_LEN]);
        bytes[HEADER_LEN + TABLE_LEN..HEADER_LEN + TABLE_LEN + 4]
            .copy_from_slice(&table_crc.to_le_bytes());
        let v2 = snapshot_v2_from_bytes(&bytes).expect("structurally valid resealed file loads");
        assert!(
            matches!(v2.verify_derived(), Err(ServeError::Format { .. })),
            "deep audit must reject derived data that disagrees with recomputation"
        );
    }

    #[test]
    fn v2_layout_is_aligned_and_described() {
        let bytes = snapshot_to_bytes_v2(&sample_snapshot());
        assert_eq!(peek_version(&bytes), Some(2));
        let sections = section_table(&bytes).unwrap();
        assert_eq!(sections.len(), 10);
        assert_eq!(sections[0].offset as usize, DATA_START);
        for s in &sections {
            assert_eq!(s.offset % 8, 0, "section {} misaligned", s.name);
            assert_eq!(s.len % 8, 0, "section {} length unpadded", s.name);
        }
        assert_eq!(
            sections.last().map(|s| (s.offset + s.len) as usize),
            Some(bytes.len()),
            "sections must cover the file"
        );
    }

    #[test]
    fn migration_roundtrips_byte_identically() {
        let snap = sample_snapshot();
        let v1 = crate::snapshot::snapshot_to_bytes(&snap);
        let v2 = migrate_snapshot_bytes(&v1, 2).unwrap();
        assert_eq!(peek_version(&v2), Some(2));
        assert_eq!(migrate_snapshot_bytes(&v2, 1).unwrap(), v1);
        assert_eq!(migrate_snapshot_bytes(&v2, 2).unwrap(), v2);
        assert_eq!(migrate_snapshot_bytes(&v1, 1).unwrap(), v1);
        assert!(matches!(migrate_snapshot_bytes(&v1, 7), Err(ServeError::Invalid(_))));
    }

    #[test]
    fn every_corrupted_byte_is_rejected() {
        let bytes = snapshot_to_bytes_v2(&sample_snapshot());
        for i in (0..bytes.len()).step_by(7) {
            let mut bad = bytes.clone();
            bad[i] ^= 0x10;
            assert!(
                snapshot_v2_from_bytes(&bad).is_err(),
                "corruption at byte {i} went undetected"
            );
        }
    }

    #[test]
    fn truncation_is_rejected() {
        let bytes = snapshot_to_bytes_v2(&sample_snapshot());
        for cut in [0, 1, 7, 39, 40, 287, 288, bytes.len() / 2, bytes.len() - 1] {
            assert!(snapshot_v2_from_bytes(&bytes[..cut]).is_err(), "cut at {cut}");
        }
    }

    #[test]
    fn engine_from_either_format_answers_identically() {
        let snap = sample_snapshot();
        let v1 = crate::snapshot::snapshot_to_bytes(&snap);
        let v2 = snapshot_to_bytes_v2(&snap);
        let e1 = engine_from_bytes(&v1).unwrap();
        let e2 = engine_from_bytes(&v2).unwrap();
        assert_eq!(e1.stats(), e2.stats());
        let b = e1.bounds();
        assert_eq!(
            e1.window(b.lat_min, b.lat_max, b.lon_min, b.lon_max),
            e2.window(b.lat_min, b.lat_max, b.lon_min, b.lon_max)
        );
        assert_eq!(e1.knn(0.5, 0.5, 8), e2.knn(0.5, 0.5, 8));
    }

    #[test]
    fn v2_file_roundtrip_through_load_engine() {
        let snap = sample_snapshot();
        let path = std::env::temp_dir().join(format!("sr_v2_test_{}.snap", std::process::id()));
        save_snapshot_v2(&snap, &path).unwrap();
        let engine = load_engine(&path).unwrap();
        assert_eq!(engine.to_snapshot().unwrap(), snap);
        // The format-agnostic owned loader reads it too.
        let owned = crate::snapshot::load_snapshot(&path).unwrap();
        std::fs::remove_file(&path).ok();
        assert_eq!(owned, snap);
    }

    #[test]
    fn aligned_bytes_is_aligned() {
        for n in [0usize, 1, 7, 8, 9, 1023] {
            let a = AlignedBytes::zeroed(n);
            assert_eq!(a.len(), n);
            assert_eq!(a.is_empty(), n == 0);
            assert_eq!(a.as_slice().as_ptr() as usize % 8, 0);
        }
    }
}
