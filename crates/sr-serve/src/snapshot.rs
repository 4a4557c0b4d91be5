//! The `sr-snap v1` binary snapshot format.
//!
//! A snapshot freezes everything the online query path needs from one
//! accepted re-partitioning run: the partition (`gIndex` + `cIndex`), the
//! allocated group feature vectors (Algorithm 2 output), the group
//! adjacency lists (Algorithm 3 output), the input grid's validity bitmap
//! (needed to un-sum `Sum` attributes per §III-C), the attribute schema,
//! the geographic bounds, and the run parameters (`θ`, achieved IFL,
//! accepted min-adjacent variation).
//!
//! ## Layout (all integers little-endian, all `f64` as IEEE-754 bits)
//!
//! | section        | contents                                              |
//! |----------------|-------------------------------------------------------|
//! | magic          | `b"SRSNAP"` (6 bytes)                                 |
//! | version        | `u16` = 1                                             |
//! | shape          | `rows: u32`, `cols: u32`, `num_groups: u32`, `num_attrs: u32` |
//! | run params     | `theta: f64`, `ifl: f64`, `min_adjacent_variation: f64` |
//! | bounds         | `lat_min, lat_max, lon_min, lon_max: f64`             |
//! | attrs          | per attribute: `name_len: u16`, UTF-8 name, `agg: u8` (0=Sum, 1=Avg, 2=Mode), `integer: u8` (0/1) |
//! | valid bitmap   | `⌈rows·cols / 8⌉` bytes, cell `i` at bit `i % 8` (LSB-first) of byte `i / 8` |
//! | groups         | per group: `r0, r1, c0, c1: u32` (inclusive)          |
//! | cell_to_group  | `rows·cols × u32`, row-major                          |
//! | features       | per group: `present: u8` (0/1), then `num_attrs × f64` if present |
//! | adjacency      | per group: `degree: u32`, then `degree × u32` neighbor ids |
//! | trailer        | CRC-32 (IEEE 802.3) over every preceding byte, `u32`  |
//!
//! `f64` values travel as raw bit patterns, so write → read → write
//! reproduces the input byte-for-byte (including negative zeros and NaN
//! payloads). The trailer rejects any single-byte corruption.

use crate::{Result, ServeError};
use sr_core::{GroupRect, Partition, Repartitioned};
use sr_grid::{AdjacencyList, AggType, Bounds, CellId, GridDataset};
use std::io::{Read, Write};
use std::path::Path;

pub(crate) const MAGIC: &[u8; 6] = b"SRSNAP";
const VERSION: u16 = 1;
/// Upper bound on `rows · cols`, a guard against pathological headers
/// driving allocation (well above the paper's 100k-cell grids).
pub(crate) const MAX_CELLS: usize = 1 << 28;
/// Upper bound on attributes per cell.
pub(crate) const MAX_ATTRS: usize = 4096;
/// Upper bound on an attribute name's UTF-8 length: both formats store
/// it in a `u16` field.
const MAX_NAME_LEN: usize = u16::MAX as usize;

/// Bit `i` of a packed bitmap (bit `i % 64` of word `i / 64`).
#[inline]
pub(crate) fn bit(words: &[u64], i: usize) -> bool {
    words[i >> 6] >> (i & 63) & 1 == 1
}

/// Sets bit `i` of a packed bitmap.
#[inline]
pub(crate) fn set_bit(words: &mut [u64], i: usize) {
    words[i >> 6] |= 1u64 << (i & 63);
}

/// Packs little-endian bitmap bytes (bit `i % 8` of byte `i / 8`) into
/// `⌈n_bits / 64⌉` words; bits at and above `n_bits` are dropped.
pub(crate) fn words_from_le_bytes(bytes: &[u8], n_bits: usize) -> Vec<u64> {
    let mut words = vec![0u64; n_bits.div_ceil(64)];
    for (w, chunk) in words.iter_mut().zip(bytes.chunks(8)) {
        let mut b = [0u8; 8];
        b[..chunk.len()].copy_from_slice(chunk);
        *w = u64::from_le_bytes(b);
    }
    if !n_bits.is_multiple_of(64) {
        if let Some(last) = words.last_mut() {
            *last &= (1u64 << (n_bits % 64)) - 1;
        }
    }
    words
}

/// An immutable, serializable view of one accepted re-partitioning run.
///
/// Every per-cell and per-group table is stored flat, in the layout of the
/// `sr-snap v2` section it is written to: the validity and group-presence
/// bitmaps as `u64` words, the raw features as one dense `t × p` table,
/// and the adjacency lists as CSR arrays. Building a snapshot is a few
/// copies plus one adjacency pass, and encoding it copies whole tables.
#[derive(Debug, Clone, PartialEq)]
pub struct Snapshot {
    rows: usize,
    cols: usize,
    theta: f64,
    ifl: f64,
    min_adjacent_variation: f64,
    bounds: Bounds,
    attr_names: Vec<String>,
    agg_types: Vec<AggType>,
    integer_attrs: Vec<bool>,
    /// Cell validity: bit `i` is cell `i`; bits at and above `rows · cols`
    /// are zero.
    valid: Vec<u64>,
    partition: Partition,
    /// Group presence: bit `g` is set when group `g` carries a feature
    /// row; bits at and above the group count are zero.
    presence: Vec<u64>,
    /// The dense `t × p` raw feature table, row-major by group. Rows of
    /// absent groups are zero bits.
    features: Vec<f64>,
    adjacency: AdjacencyList,
}

impl Snapshot {
    /// Freezes an accepted run into a snapshot. `original` must be the grid
    /// `rep` was computed from (it supplies the validity bitmap); `theta` is
    /// the loss budget the run was given, kept for cache keying.
    pub fn build(rep: &Repartitioned, original: &GridDataset, theta: f64) -> Result<Snapshot> {
        if rep.partition().rows() != original.rows()
            || rep.partition().cols() != original.cols()
            || rep.attr_names().len() != original.num_attrs()
        {
            return Err(ServeError::Invalid(
                "repartitioned result does not match the original grid's shape".into(),
            ));
        }
        check_format_limits(original.num_cells(), rep.attr_names())?;
        // Presence is "has a valid member" (Algorithm 2 gives every such
        // group a feature vector); absent rows are forced to +0.0 bits.
        let arena = rep.features();
        let p = arena.num_attrs();
        let mut presence = vec![0u64; arena.num_groups().div_ceil(64)];
        let mut features = arena.values().to_vec();
        for (g, &count) in arena.valid_counts().iter().enumerate() {
            if count > 0 {
                set_bit(&mut presence, g);
            } else {
                features[g * p..(g + 1) * p].fill(0.0);
            }
        }
        let s = Snapshot {
            rows: original.rows(),
            cols: original.cols(),
            theta,
            ifl: rep.ifl(),
            min_adjacent_variation: rep.min_adjacent_variation(),
            bounds: original.bounds(),
            attr_names: rep.attr_names().to_vec(),
            agg_types: rep.agg_types().to_vec(),
            integer_attrs: rep.integer_attrs().to_vec(),
            valid: original.valid_words().to_vec(),
            partition: rep.partition().clone(),
            presence,
            features,
            adjacency: rep.adjacency(),
        };
        // Only the driver builds a `Repartitioned`, so its partition tiles
        // the grid and its tables agree in length; the one cross-check
        // left is that `original` is the grid the run saw.
        s.check_valid_cells_featured().map(|()| s)
    }

    /// Assembles a snapshot from raw parts, checking every cross-section
    /// invariant the binary readers also enforce.
    ///
    /// `valid` is the cell validity bitmap (bit `i % 64` of word `i / 64`
    /// is cell `i`, `⌈rows·cols / 64⌉` words); `presence` is the group
    /// presence bitmap in the same packing (`⌈t / 64⌉` words); `features`
    /// is the dense `t × p` raw feature table, row-major by group, whose
    /// rows of absent groups must be zero bits. Bits past the last cell or
    /// group must be zero.
    #[allow(clippy::too_many_arguments)]
    pub fn from_parts(
        theta: f64,
        ifl: f64,
        min_adjacent_variation: f64,
        bounds: Bounds,
        attr_names: Vec<String>,
        agg_types: Vec<AggType>,
        integer_attrs: Vec<bool>,
        valid: Vec<u64>,
        partition: Partition,
        presence: Vec<u64>,
        features: Vec<f64>,
        adjacency: AdjacencyList,
    ) -> Result<Snapshot> {
        let s = Snapshot {
            rows: partition.rows(),
            cols: partition.cols(),
            theta,
            ifl,
            min_adjacent_variation,
            bounds,
            attr_names,
            agg_types,
            integer_attrs,
            valid,
            partition,
            presence,
            features,
            adjacency,
        };
        s.validate()?;
        Ok(s)
    }

    fn validate(&self) -> Result<()> {
        let invalid = |msg: String| Err(ServeError::Invalid(msg));
        let cells = self.rows * self.cols;
        let p = self.attr_names.len();
        if self.rows == 0 || self.cols == 0 || p == 0 {
            return invalid("empty grid or schema".into());
        }
        check_format_limits(cells, &self.attr_names)?;
        if self.agg_types.len() != p || self.integer_attrs.len() != p {
            return invalid("attribute metadata lengths differ".into());
        }
        if !bitmap_fits(&self.valid, cells) {
            return invalid("validity bitmap does not hold exactly rows * cols bits".into());
        }
        let t = self.partition.num_groups();
        if t == 0 || t > cells {
            return invalid(format!("group count {t} out of range for {cells} cells"));
        }
        if !bitmap_fits(&self.presence, t) {
            return invalid("presence bitmap does not hold exactly one bit per group".into());
        }
        if self.features.len() != t * p {
            return invalid("feature table length != groups * attributes".into());
        }
        if self.adjacency.len() != t {
            return invalid("adjacency length != group count".into());
        }
        // The rectangles must tile the grid, and cIndex must agree with
        // gIndex exactly (the release-mode version of Partition::new's
        // debug assertions — snapshot bytes are untrusted input). Per-rect
        // agreement forbids overlap, so with the area sum it is complete.
        let cell_to_group = self.partition.cell_to_group();
        if cell_to_group.len() != cells {
            return invalid("cell-to-group index length != rows * cols".into());
        }
        let mut counted = 0usize;
        for (gid, rect) in self.partition.rects().iter().enumerate() {
            if rect.r0 > rect.r1
                || rect.c0 > rect.c1
                || rect.r1 as usize >= self.rows
                || rect.c1 as usize >= self.cols
            {
                return invalid(format!("group {gid} rectangle out of grid bounds"));
            }
            counted += rect.len();
            if counted > cells {
                return invalid("group rectangles overlap or exceed the grid".into());
            }
            let (c0, c1) = (rect.c0 as usize, rect.c1 as usize);
            for row in rect.r0 as usize..=rect.r1 as usize {
                let run = &cell_to_group[row * self.cols + c0..=row * self.cols + c1];
                if let Some(off) = run.iter().position(|&g| g as usize != gid) {
                    let cell = row * self.cols + c0 + off;
                    return invalid(format!(
                        "cell {cell} not mapped to its containing group {gid}"
                    ));
                }
            }
        }
        if counted != cells {
            return invalid("group rectangles do not tile the grid".into());
        }
        for (g, row) in self.features.chunks_exact(p).enumerate() {
            if !bit(&self.presence, g) && row.iter().any(|v| v.to_bits() != 0) {
                return invalid(format!("absent group {g} has a nonzero feature row"));
            }
        }
        if let Some(&nb) = self.adjacency.neighbor_ids().iter().find(|&&nb| nb as usize >= t) {
            return invalid(format!("out-of-range neighbor {nb}"));
        }
        self.check_valid_cells_featured()
    }

    /// A valid cell must belong to a featured group (Algorithm 2 gives
    /// features to every group with at least one valid member); the query
    /// engine relies on this to equate the validity bitmap with
    /// reconstruction validity.
    fn check_valid_cells_featured(&self) -> Result<()> {
        let cell_to_group = self.partition.cell_to_group();
        for cell in set_bits(&self.valid) {
            if !bit(&self.presence, cell_to_group[cell] as usize) {
                return Err(ServeError::Invalid(format!(
                    "valid cell {cell} belongs to a null group"
                )));
            }
        }
        Ok(())
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

    /// Attributes per cell.
    pub fn num_attrs(&self) -> usize {
        self.attr_names.len()
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

    /// The original grid's validity bitmap: bit `i % 64` of word `i / 64`
    /// is cell `i`.
    pub fn valid_words(&self) -> &[u64] {
        &self.valid
    }

    /// Whether `cell` is valid (non-null) in the original dataset.
    pub fn cell_valid(&self, cell: CellId) -> bool {
        bit(&self.valid, cell as usize)
    }

    /// The frozen partition.
    pub fn partition(&self) -> &Partition {
        &self.partition
    }

    /// The group-presence bitmap: bit `g % 64` of word `g / 64` is set
    /// when group `g` carries a feature row.
    pub fn presence_words(&self) -> &[u64] {
        &self.presence
    }

    /// Whether group `g` carries a feature row.
    pub fn featured(&self, g: u32) -> bool {
        bit(&self.presence, g as usize)
    }

    /// The allocated feature row of group `g`; `None` for a null group.
    pub fn feature(&self, g: u32) -> Option<&[f64]> {
        let p = self.num_attrs();
        self.featured(g).then(|| &self.features[g as usize * p..(g as usize + 1) * p])
    }

    /// The dense `t × p` raw feature table, row-major by group (rows of
    /// null groups are zero).
    pub fn feature_table(&self) -> &[f64] {
        &self.features
    }

    /// Group adjacency lists (Algorithm 3 output).
    pub fn adjacency(&self) -> &AdjacencyList {
        &self.adjacency
    }
}

/// The limits both binary formats can represent: the cell count, the
/// attribute count, and each attribute name's length. A snapshot past
/// them would encode to bytes that no load accepts.
fn check_format_limits(cells: usize, attr_names: &[String]) -> Result<()> {
    if cells > MAX_CELLS || attr_names.len() > MAX_ATTRS {
        return Err(ServeError::Invalid("grid or schema exceeds format limits".into()));
    }
    if let Some(name) = attr_names.iter().find(|name| name.len() > MAX_NAME_LEN) {
        return Err(ServeError::Invalid(format!(
            "attribute name of {} bytes exceeds the {MAX_NAME_LEN}-byte format limit",
            name.len()
        )));
    }
    Ok(())
}

/// Whether `words` holds exactly `n_bits` bits: the right word count and
/// no bit set at or above `n_bits`.
fn bitmap_fits(words: &[u64], n_bits: usize) -> bool {
    words.len() == n_bits.div_ceil(64)
        && (n_bits.is_multiple_of(64) || words.last().is_some_and(|w| w >> (n_bits % 64) == 0))
}

/// The indices of the set bits of a packed bitmap, ascending.
pub(crate) fn set_bits(words: &[u64]) -> impl Iterator<Item = usize> + '_ {
    words.iter().enumerate().flat_map(|(w, &word)| {
        let mut bits = word;
        std::iter::from_fn(move || {
            (bits != 0).then(|| {
                let i = w * 64 + bits.trailing_zeros() as usize;
                bits &= bits - 1;
                i
            })
        })
    })
}

// ---------------------------------------------------------------------------
// CRC-32 (IEEE 802.3, reflected, polynomial 0xEDB88320)
// ---------------------------------------------------------------------------

/// Eight shifted lookup tables for slicing-by-8: `CRC_TABLES[0]` is the
/// classic byte-at-a-time table, `CRC_TABLES[j][b]` is the CRC of byte
/// `b` followed by `j` zero bytes.
const CRC_TABLES: [[u32; 256]; 8] = crc_tables();

const fn crc_tables() -> [[u32; 256]; 8] {
    let mut tables = [[0u32; 256]; 8];
    let mut i = 0;
    while i < 256 {
        let mut c = i as u32;
        let mut k = 0;
        while k < 8 {
            c = if c & 1 != 0 { 0xEDB8_8320 ^ (c >> 1) } else { c >> 1 };
            k += 1;
        }
        tables[0][i] = c;
        i += 1;
    }
    let mut j = 1;
    while j < 8 {
        let mut i = 0;
        while i < 256 {
            let prev = tables[j - 1][i];
            tables[j][i] = (prev >> 8) ^ tables[0][(prev & 0xFF) as usize];
            i += 1;
        }
        j += 1;
    }
    tables
}

/// CRC-32 of `bytes` (the standard zlib/PNG checksum).
///
/// The v2 snapshot path checksums whole multi-megabyte sections on
/// every load, so throughput here is startup latency. Large inputs go
/// through a carry-less-multiplication kernel (`PCLMULQDQ` folding,
/// ~an order of magnitude faster than table lookup) when the CPU has
/// it; everything else — short inputs, tails, other architectures —
/// uses slicing-by-8 table lookups. Both produce the exact values of
/// the byte-at-a-time definition (reflected polynomial 0xEDB88320).
pub fn crc32(bytes: &[u8]) -> u32 {
    let mut state = 0xFFFF_FFFFu32;
    let mut rest = bytes;
    #[cfg(target_arch = "x86_64")]
    if rest.len() >= 64
        && std::arch::is_x86_feature_detected!("pclmulqdq")
        && std::arch::is_x86_feature_detected!("sse4.1")
    {
        let split = rest.len() & !15;
        // SAFETY: the required CPU features were just detected, and the
        // kernel's preconditions hold (len >= 64 and a multiple of 16).
        state = unsafe { crc32_pclmul(state, &rest[..split]) };
        rest = &rest[split..];
    }
    !crc32_table(state, rest)
}

/// Slicing-by-8 continuation: folds `bytes` into the running (inverted)
/// CRC `state`.
fn crc32_table(mut c: u32, bytes: &[u8]) -> u32 {
    let mut chunks = bytes.chunks_exact(8);
    for chunk in &mut chunks {
        let lo = u32::from_le_bytes(chunk[0..4].try_into().unwrap()) ^ c;
        let hi = u32::from_le_bytes(chunk[4..8].try_into().unwrap());
        c = CRC_TABLES[7][(lo & 0xFF) as usize]
            ^ CRC_TABLES[6][(lo >> 8 & 0xFF) as usize]
            ^ CRC_TABLES[5][(lo >> 16 & 0xFF) as usize]
            ^ CRC_TABLES[4][(lo >> 24) as usize]
            ^ CRC_TABLES[3][(hi & 0xFF) as usize]
            ^ CRC_TABLES[2][(hi >> 8 & 0xFF) as usize]
            ^ CRC_TABLES[1][(hi >> 16 & 0xFF) as usize]
            ^ CRC_TABLES[0][(hi >> 24) as usize];
    }
    for &b in chunks.remainder() {
        c = CRC_TABLES[0][((c ^ b as u32) & 0xFF) as usize] ^ (c >> 8);
    }
    c
}

/// CRC-32 folding with carry-less multiplication, after the classic
/// Intel recipe (also used by zlib): four 128-bit lanes fold 64 bytes
/// per step under the constants `x^(512+k) mod P`, the lanes are folded
/// into one, then Barrett reduction brings the 128-bit remainder down
/// to the 32-bit CRC. Takes and returns the *inverted* running state,
/// like [`crc32_table`].
///
/// # Safety
///
/// Caller must ensure the CPU supports `pclmulqdq` and `sse4.1`, and
/// that `buf.len() >= 64` and `buf.len() % 16 == 0`.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "pclmulqdq", enable = "sse2", enable = "sse4.1")]
unsafe fn crc32_pclmul(crc: u32, buf: &[u8]) -> u32 {
    use std::arch::x86_64::*;
    debug_assert!(buf.len() >= 64 && buf.len().is_multiple_of(16));
    // Folding constants for the reflected polynomial 0xEDB88320:
    // k1 = x^576 mod P, k2 = x^512 mod P (64-byte fold);
    // k3 = x^192 mod P, k4 = x^128 mod P (16-byte fold);
    // k5 = x^96 mod P; mu/P' for the Barrett step.
    let k1k2 = _mm_set_epi64x(0x1_c6e4_1596, 0x1_5444_2bd4);
    let k3k4 = _mm_set_epi64x(0xccaa_009e, 0x1_7519_97d0);
    let k5 = _mm_set_epi64x(0, 0x1_63cd_6124);
    let poly = _mm_set_epi64x(0x1_f701_1641, 0x1_db71_0641);
    // fold(x, k, y) = (x.lo · k.lo) ^ (x.hi · k.hi) ^ y
    let fold = |x: __m128i, k: __m128i, y: __m128i| -> __m128i {
        _mm_xor_si128(
            _mm_xor_si128(_mm_clmulepi64_si128(x, k, 0x00), _mm_clmulepi64_si128(x, k, 0x11)),
            y,
        )
    };

    let mut ptr = buf.as_ptr().cast::<__m128i>();
    let mut len = buf.len();
    let mut x1 = _mm_loadu_si128(ptr);
    let mut x2 = _mm_loadu_si128(ptr.add(1));
    let mut x3 = _mm_loadu_si128(ptr.add(2));
    let mut x4 = _mm_loadu_si128(ptr.add(3));
    x1 = _mm_xor_si128(x1, _mm_cvtsi32_si128(crc as i32));
    ptr = ptr.add(4);
    len -= 64;
    while len >= 64 {
        x1 = fold(x1, k1k2, _mm_loadu_si128(ptr));
        x2 = fold(x2, k1k2, _mm_loadu_si128(ptr.add(1)));
        x3 = fold(x3, k1k2, _mm_loadu_si128(ptr.add(2)));
        x4 = fold(x4, k1k2, _mm_loadu_si128(ptr.add(3)));
        ptr = ptr.add(4);
        len -= 64;
    }
    // Fold the four lanes into one, then any remaining 16-byte blocks.
    x1 = fold(x1, k3k4, x2);
    x1 = fold(x1, k3k4, x3);
    x1 = fold(x1, k3k4, x4);
    while len >= 16 {
        x1 = fold(x1, k3k4, _mm_loadu_si128(ptr));
        ptr = ptr.add(1);
        len -= 16;
    }
    // 128 -> 64 bits.
    let mask32 = _mm_set_epi32(0, -1, 0, -1);
    let folded = _mm_clmulepi64_si128(x1, k3k4, 0x10);
    x1 = _mm_xor_si128(_mm_srli_si128(x1, 8), folded);
    let hi = _mm_srli_si128(x1, 4);
    x1 = _mm_and_si128(x1, mask32);
    x1 = _mm_clmulepi64_si128(x1, k5, 0x00);
    x1 = _mm_xor_si128(x1, hi);
    // Barrett reduction 64 -> 32 bits.
    let mut t = _mm_and_si128(x1, mask32);
    t = _mm_clmulepi64_si128(t, poly, 0x10);
    t = _mm_and_si128(t, mask32);
    t = _mm_clmulepi64_si128(t, poly, 0x00);
    x1 = _mm_xor_si128(x1, t);
    _mm_extract_epi32(x1, 1) as u32
}

// ---------------------------------------------------------------------------
// Serialization
// ---------------------------------------------------------------------------

/// Serializes a snapshot to its `sr-snap v1` byte representation
/// (checksum trailer included). Deterministic: equal snapshots produce
/// equal bytes.
pub fn snapshot_to_bytes(s: &Snapshot) -> Vec<u8> {
    let cells = s.num_cells();
    let p = s.num_attrs();
    let t = s.partition.num_groups();
    let mut buf = Vec::with_capacity(64 + cells.div_ceil(8) + cells * 4 + t * (17 + p * 8));

    buf.extend_from_slice(MAGIC);
    buf.extend_from_slice(&VERSION.to_le_bytes());
    buf.extend_from_slice(&(s.rows as u32).to_le_bytes());
    buf.extend_from_slice(&(s.cols as u32).to_le_bytes());
    buf.extend_from_slice(&(t as u32).to_le_bytes());
    buf.extend_from_slice(&(p as u32).to_le_bytes());
    for v in [s.theta, s.ifl, s.min_adjacent_variation] {
        buf.extend_from_slice(&v.to_bits().to_le_bytes());
    }
    for v in [s.bounds.lat_min, s.bounds.lat_max, s.bounds.lon_min, s.bounds.lon_max] {
        buf.extend_from_slice(&v.to_bits().to_le_bytes());
    }
    for k in 0..p {
        let name = s.attr_names[k].as_bytes();
        buf.extend_from_slice(&(name.len() as u16).to_le_bytes());
        buf.extend_from_slice(name);
        buf.push(match s.agg_types[k] {
            AggType::Sum => 0,
            AggType::Avg => 1,
            AggType::Mode => 2,
        });
        buf.push(s.integer_attrs[k] as u8);
    }
    // The bitmap bytes are the validity words' little-endian bytes, cut
    // to ⌈cells / 8⌉.
    let bitmap_end = buf.len() + cells.div_ceil(8);
    for w in &s.valid {
        buf.extend_from_slice(&w.to_le_bytes());
    }
    buf.truncate(bitmap_end);
    for rect in s.partition.rects() {
        for v in [rect.r0, rect.r1, rect.c0, rect.c1] {
            buf.extend_from_slice(&v.to_le_bytes());
        }
    }
    for &g in s.partition.cell_to_group() {
        buf.extend_from_slice(&g.to_le_bytes());
    }
    for (g, row) in s.features.chunks_exact(p).enumerate() {
        if bit(&s.presence, g) {
            buf.push(1);
            for &v in row {
                buf.extend_from_slice(&v.to_bits().to_le_bytes());
            }
        } else {
            buf.push(0);
        }
    }
    for gid in 0..t as u32 {
        let nbs = s.adjacency.neighbors(gid);
        buf.extend_from_slice(&(nbs.len() as u32).to_le_bytes());
        for &nb in nbs {
            buf.extend_from_slice(&nb.to_le_bytes());
        }
    }
    let crc = crc32(&buf);
    buf.extend_from_slice(&crc.to_le_bytes());
    buf
}

/// A bounds-checked little-endian reader over the payload bytes.
struct Reader<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Reader<'a> {
    fn err<T>(&self, message: impl Into<String>) -> Result<T> {
        Err(ServeError::Format { offset: self.pos, message: message.into() })
    }

    fn bytes(&mut self, n: usize) -> Result<&'a [u8]> {
        if self.buf.len() - self.pos < n {
            return self
                .err(format!("truncated: need {n} bytes, {} remain", self.buf.len() - self.pos));
        }
        let out = &self.buf[self.pos..self.pos + n];
        self.pos += n;
        Ok(out)
    }

    fn u8(&mut self) -> Result<u8> {
        Ok(self.bytes(1)?[0])
    }

    fn u16(&mut self) -> Result<u16> {
        Ok(u16::from_le_bytes(self.bytes(2)?.try_into().unwrap()))
    }

    fn u32(&mut self) -> Result<u32> {
        Ok(u32::from_le_bytes(self.bytes(4)?.try_into().unwrap()))
    }

    fn f64(&mut self) -> Result<f64> {
        Ok(f64::from_bits(u64::from_le_bytes(self.bytes(8)?.try_into().unwrap())))
    }
}

/// Parses `sr-snap v1` bytes back into a [`Snapshot`], verifying the
/// checksum first and every structural invariant afterwards.
pub fn snapshot_from_bytes(buf: &[u8]) -> Result<Snapshot> {
    if buf.len() < MAGIC.len() + 2 + 4 {
        return Err(ServeError::Format {
            offset: usize::MAX,
            message: format!("file too short ({} bytes) to be a snapshot", buf.len()),
        });
    }
    let (payload, trailer) = buf.split_at(buf.len() - 4);
    let stored = u32::from_le_bytes(trailer.try_into().unwrap());
    let computed = crc32(payload);
    if stored != computed {
        return Err(ServeError::Checksum { stored, computed });
    }

    let mut r = Reader { buf: payload, pos: 0 };
    if r.bytes(MAGIC.len())? != MAGIC {
        return Err(ServeError::Format {
            offset: 0,
            message: "bad magic: not an sr-snap file".into(),
        });
    }
    let version = r.u16()?;
    if version != VERSION {
        return r.err(format!("unsupported snapshot version {version} (expected {VERSION})"));
    }
    let rows = r.u32()? as usize;
    let cols = r.u32()? as usize;
    let num_groups = r.u32()? as usize;
    let num_attrs = r.u32()? as usize;
    if rows == 0 || cols == 0 {
        return r.err("zero rows or columns");
    }
    let cells =
        rows.checked_mul(cols).filter(|&n| n <= MAX_CELLS).ok_or_else(|| ServeError::Format {
            offset: r.pos,
            message: format!("grid {rows}x{cols} exceeds the format's cell limit"),
        })?;
    if num_groups == 0 || num_groups > cells {
        return r.err(format!("group count {num_groups} out of range for {cells} cells"));
    }
    if num_attrs == 0 || num_attrs > MAX_ATTRS {
        return r.err(format!("attribute count {num_attrs} out of range"));
    }
    let theta = r.f64()?;
    let ifl = r.f64()?;
    let min_adjacent_variation = r.f64()?;
    let bounds =
        Bounds { lat_min: r.f64()?, lat_max: r.f64()?, lon_min: r.f64()?, lon_max: r.f64()? };

    let mut attr_names = Vec::with_capacity(num_attrs);
    let mut agg_types = Vec::with_capacity(num_attrs);
    let mut integer_attrs = Vec::with_capacity(num_attrs);
    for _ in 0..num_attrs {
        let len = r.u16()? as usize;
        let name_pos = r.pos;
        let name = std::str::from_utf8(r.bytes(len)?)
            .map_err(|e| ServeError::Format {
                offset: name_pos,
                message: format!("attribute name is not UTF-8: {e}"),
            })?
            .to_string();
        let agg = match r.u8()? {
            0 => AggType::Sum,
            1 => AggType::Avg,
            2 => AggType::Mode,
            other => return r.err(format!("unknown aggregation code {other}")),
        };
        let integer = match r.u8()? {
            0 => false,
            1 => true,
            other => return r.err(format!("integer flag must be 0/1, got {other}")),
        };
        attr_names.push(name);
        agg_types.push(agg);
        integer_attrs.push(integer);
    }

    let valid = words_from_le_bytes(r.bytes(cells.div_ceil(8))?, cells);

    let mut groups = Vec::with_capacity(num_groups);
    for _ in 0..num_groups {
        groups.push(GroupRect { r0: r.u32()?, r1: r.u32()?, c0: r.u32()?, c1: r.u32()? });
    }
    let mut cell_to_group = Vec::with_capacity(cells);
    for _ in 0..cells {
        let g = r.u32()?;
        if g as usize >= num_groups {
            return r.err(format!("cell mapped to out-of-range group {g}"));
        }
        cell_to_group.push(g);
    }
    // Rectangle sanity must hold before Partition::new (whose debug
    // assertions index cells by rectangle coordinates).
    for (gid, rect) in groups.iter().enumerate() {
        if rect.r0 > rect.r1
            || rect.c0 > rect.c1
            || rect.r1 as usize >= rows
            || rect.c1 as usize >= cols
        {
            return r.err(format!("group {gid} rectangle out of grid bounds"));
        }
    }
    let mut counted = 0usize;
    for (gid, rect) in groups.iter().enumerate() {
        counted += rect.len();
        if counted > cells {
            return r.err("group rectangles overlap or exceed the grid");
        }
        for (row, col) in rect.cells() {
            if cell_to_group[row as usize * cols + col as usize] as usize != gid {
                return r.err(format!("cell ({row},{col}) not mapped to its group {gid}"));
            }
        }
    }
    if counted != cells {
        return r.err("group rectangles do not tile the grid");
    }
    let partition = Partition::new(rows, cols, groups, cell_to_group);

    let mut presence = vec![0u64; num_groups.div_ceil(64)];
    let mut features = vec![0.0f64; num_groups * num_attrs];
    for (gid, row) in features.chunks_exact_mut(num_attrs).enumerate() {
        match r.u8()? {
            0 => {}
            1 => {
                set_bit(&mut presence, gid);
                for v in row {
                    *v = r.f64()?;
                }
            }
            other => return r.err(format!("group {gid} presence flag must be 0/1, got {other}")),
        }
    }

    // Every neighbor id takes four of the remaining bytes, which bounds
    // the id array without trusting any count in the file.
    let mut offsets = Vec::with_capacity(num_groups + 1);
    let mut ids = Vec::with_capacity((payload.len() - r.pos) / 4);
    offsets.push(0u32);
    for gid in 0..num_groups {
        let degree = r.u32()? as usize;
        if degree > num_groups {
            return r.err(format!("group {gid} degree {degree} exceeds group count"));
        }
        for _ in 0..degree {
            let nb = r.u32()?;
            if nb as usize >= num_groups {
                return r.err(format!("group {gid} has out-of-range neighbor {nb}"));
            }
            ids.push(nb);
        }
        offsets.push(ids.len() as u32);
    }
    if r.pos != payload.len() {
        return r.err(format!("{} trailing bytes after the last section", payload.len() - r.pos));
    }

    Snapshot::from_parts(
        theta,
        ifl,
        min_adjacent_variation,
        bounds,
        attr_names,
        agg_types,
        integer_attrs,
        valid,
        partition,
        presence,
        features,
        AdjacencyList::from_csr(offsets, ids),
    )
}

/// Writes a snapshot to `w` in `sr-snap v1` format.
pub fn write_snapshot<W: Write>(mut w: W, s: &Snapshot) -> Result<()> {
    w.write_all(&snapshot_to_bytes(s))?;
    Ok(())
}

/// Reads a snapshot from `r`, consuming it to EOF.
pub fn read_snapshot<R: Read>(mut r: R) -> Result<Snapshot> {
    let mut buf = Vec::new();
    r.read_to_end(&mut buf)?;
    snapshot_from_bytes(&buf)
}

/// Saves a snapshot to a file **atomically**: the bytes are written to a
/// sibling temp file, fsynced, and renamed over `path`. A crash (or an
/// injected fault) at any point leaves either the old file or the new one
/// — never a torn mixture — and the CRC-32 trailer rejects whatever a
/// non-atomic writer might have left behind (`docs/ROBUSTNESS.md`).
pub fn save_snapshot(s: &Snapshot, path: impl AsRef<Path>) -> Result<()> {
    save_snapshot_with(s, path, None)
}

/// [`save_snapshot`] with the write path subject to a
/// [`sr_fault::FaultPlan`] (`write.*` faults). On any failure the temp
/// file is removed and the previous file at `path` is left untouched.
pub fn save_snapshot_with(
    s: &Snapshot,
    path: impl AsRef<Path>,
    plan: Option<&sr_fault::FaultPlan>,
) -> Result<()> {
    write_bytes_atomic(&snapshot_to_bytes(s), path.as_ref(), plan)
}

/// Saves already-encoded snapshot bytes (either format) to `path`
/// atomically, exactly as [`save_snapshot`] writes: temp file, fsync,
/// rename. Lets a publisher time the encoding and the write apart.
pub fn save_snapshot_bytes(bytes: &[u8], path: impl AsRef<Path>) -> Result<()> {
    write_bytes_atomic(bytes, path.as_ref(), None)
}

/// The atomic temp-file + fsync + rename writer shared by the v1 and v2
/// save paths. On any failure the temp file is removed and the previous
/// file at `path` is left untouched.
pub(crate) fn write_bytes_atomic(
    bytes: &[u8],
    path: &Path,
    plan: Option<&sr_fault::FaultPlan>,
) -> Result<()> {
    let mut tmp = path.as_os_str().to_owned();
    tmp.push(format!(".tmp.{}", std::process::id()));
    let tmp = std::path::PathBuf::from(tmp);
    let result = (|| -> Result<()> {
        let file = std::fs::File::create(&tmp)?;
        let file = match plan {
            Some(plan) => {
                let mut w = plan.wrap_write(file);
                w.write_all(bytes)?;
                w.into_inner()
            }
            None => {
                let mut w = file;
                w.write_all(bytes)?;
                w
            }
        };
        // Flush to disk before the rename publishes the file: otherwise a
        // power loss could publish a name pointing at unwritten blocks.
        file.sync_all()?;
        std::fs::rename(&tmp, path)?;
        Ok(())
    })();
    if result.is_err() {
        std::fs::remove_file(&tmp).ok();
    }
    result
}

/// Loads a snapshot from a file, accepting **either** format version:
/// v1 decodes directly, v2 is validated and materialized into the owned
/// form. Use [`crate::load_engine`] when the goal is serving — it keeps
/// v2 bytes borrowed instead of materializing them.
pub fn load_snapshot(path: impl AsRef<Path>) -> Result<Snapshot> {
    load_snapshot_with(path, None)
}

/// [`load_snapshot`] with the read path subject to a
/// [`sr_fault::FaultPlan`] (`read.*` faults). An injected premature EOF
/// surfaces exactly like a torn write: the checksum/format checks reject
/// the truncated bytes, never returning garbage.
pub fn load_snapshot_with(
    path: impl AsRef<Path>,
    plan: Option<&sr_fault::FaultPlan>,
) -> Result<Snapshot> {
    let buf = read_file_aligned(path.as_ref(), plan)?;
    match crate::v2::peek_version(buf.as_slice()) {
        Some(2) => crate::v2::snapshot_v2_from_aligned(buf)?.to_snapshot(),
        _ => snapshot_from_bytes(buf.as_slice()),
    }
}

/// Reads a whole file straight into an 8-aligned buffer, optionally
/// through a [`sr_fault::FaultPlan`]'s `read.*` faults. Shared by the v1
/// and v2 load paths so both see the same injected failures; a v2 file
/// is then validated in place, with no second copy.
pub(crate) fn read_file_aligned(
    path: &Path,
    plan: Option<&sr_fault::FaultPlan>,
) -> Result<crate::AlignedBytes> {
    let file = std::fs::File::open(path)?;
    let hint = file.metadata().map_or(0, |m| m.len() as usize);
    Ok(match plan {
        Some(plan) => crate::AlignedBytes::read_from(plan.wrap_read(file), hint)?,
        None => crate::AlignedBytes::read_from(file, hint)?,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use sr_core::repartition;

    fn sample_snapshot() -> Snapshot {
        let vals: Vec<f64> =
            (0..64).map(|i| 100.0 + (i / 8) as f64 * 0.7 + (i % 8) as f64 * 0.4).collect();
        let mut grid = GridDataset::univariate(8, 8, vals).unwrap();
        grid.set_null(63);
        let out = repartition(&grid, 0.05).unwrap();
        Snapshot::build(&out.repartitioned, &grid, 0.05).unwrap()
    }

    #[test]
    fn crc32_known_vectors() {
        // Standard test vectors for CRC-32/IEEE.
        assert_eq!(crc32(b""), 0x0000_0000);
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b"The quick brown fox jumps over the lazy dog"), 0x414F_A339);
    }

    /// Bit-at-a-time reference CRC-32, straight from the polynomial
    /// definition — the oracle both fast paths must match.
    fn crc32_reference(bytes: &[u8]) -> u32 {
        let mut c = 0xFFFF_FFFFu32;
        for &b in bytes {
            c ^= b as u32;
            for _ in 0..8 {
                c = if c & 1 != 0 { 0xEDB8_8320 ^ (c >> 1) } else { c >> 1 };
            }
        }
        !c
    }

    #[test]
    fn crc32_matches_reference_at_every_length() {
        // Pseudo-random bytes; lengths sweep across every dispatch
        // boundary (empty, sub-word tails, the 64-byte kernel threshold,
        // non-multiple-of-16 tails after the kernel).
        let mut seed = 0x1234_5678_9ABC_DEF0u64;
        let data: Vec<u8> = (0..4096)
            .map(|_| {
                seed = seed.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
                (seed >> 33) as u8
            })
            .collect();
        for len in (0..=300).chain([511, 1024, 1025, 4000, 4096]) {
            assert_eq!(
                crc32(&data[..len]),
                crc32_reference(&data[..len]),
                "crc32 disagrees with the reference at length {len}"
            );
        }
    }

    #[test]
    fn roundtrip_is_bit_exact() {
        let snap = sample_snapshot();
        let bytes = snapshot_to_bytes(&snap);
        let back = snapshot_from_bytes(&bytes).unwrap();
        assert_eq!(back, snap);
        // Write → read → write must reproduce identical bytes.
        assert_eq!(snapshot_to_bytes(&back), bytes);
    }

    #[test]
    fn every_corrupted_byte_is_rejected() {
        let snap = sample_snapshot();
        let bytes = snapshot_to_bytes(&snap);
        // Flipping any single bit anywhere must fail (checksum for payload
        // bytes, checksum mismatch for trailer bytes). Exhaustive over a
        // stride to keep the test fast.
        for i in (0..bytes.len()).step_by(7) {
            let mut bad = bytes.clone();
            bad[i] ^= 0x10;
            assert!(snapshot_from_bytes(&bad).is_err(), "corruption at byte {i} went undetected");
        }
    }

    #[test]
    fn truncation_is_rejected() {
        let bytes = snapshot_to_bytes(&sample_snapshot());
        for cut in [0, 1, 5, 11, bytes.len() / 2, bytes.len() - 1] {
            assert!(snapshot_from_bytes(&bytes[..cut]).is_err(), "cut at {cut}");
        }
    }

    #[test]
    fn bad_magic_and_version() {
        let bytes = snapshot_to_bytes(&sample_snapshot());
        let mut wrong_magic = bytes.clone();
        wrong_magic[0] = b'X';
        // Re-seal the checksum so the magic check itself is exercised.
        let n = wrong_magic.len();
        let crc = crc32(&wrong_magic[..n - 4]).to_le_bytes();
        wrong_magic[n - 4..].copy_from_slice(&crc);
        assert!(matches!(
            snapshot_from_bytes(&wrong_magic),
            Err(ServeError::Format { offset: 0, .. })
        ));

        let mut wrong_version = bytes.clone();
        wrong_version[6] = 9;
        let crc = crc32(&wrong_version[..n - 4]).to_le_bytes();
        wrong_version[n - 4..].copy_from_slice(&crc);
        assert!(matches!(snapshot_from_bytes(&wrong_version), Err(ServeError::Format { .. })));
    }

    #[test]
    fn file_roundtrip() {
        let snap = sample_snapshot();
        let path = std::env::temp_dir().join(format!("sr_snap_test_{}.snap", std::process::id()));
        save_snapshot(&snap, &path).unwrap();
        let back = load_snapshot(&path).unwrap();
        std::fs::remove_file(&path).ok();
        assert_eq!(back, snap);
    }

    #[test]
    fn build_rejects_mismatched_grid() {
        let vals: Vec<f64> = (0..36).map(|i| i as f64).collect();
        let grid = GridDataset::univariate(6, 6, vals).unwrap();
        let out = repartition(&grid, 0.2).unwrap();
        let other = GridDataset::univariate(3, 3, vec![1.0; 9]).unwrap();
        assert!(matches!(
            Snapshot::build(&out.repartitioned, &other, 0.2),
            Err(ServeError::Invalid(_))
        ));
    }

    #[test]
    fn failed_atomic_save_leaves_previous_file_intact() {
        let registry = sr_obs::Registry::new();
        let plan = sr_fault::FaultPlan::parse("write.error_rate = 1.0\n", &registry).unwrap();
        let snap = sample_snapshot();
        let dir = std::env::temp_dir().join(format!("sr_snap_atomic_{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("current.snap");
        save_snapshot(&snap, &path).unwrap();
        let good_bytes = std::fs::read(&path).unwrap();
        // The faulty save fails...
        assert!(matches!(save_snapshot_with(&snap, &path, Some(&plan)), Err(ServeError::Io(_))));
        assert!(plan.injected_errors() >= 1);
        // ...but the previous file is byte-identical and no temp junk
        // remains next to it.
        assert_eq!(std::fs::read(&path).unwrap(), good_bytes);
        let leftovers: Vec<_> = std::fs::read_dir(&dir)
            .unwrap()
            .map(|e| e.unwrap().file_name().into_string().unwrap())
            .filter(|n| n != "current.snap")
            .collect();
        assert!(leftovers.is_empty(), "temp files left behind: {leftovers:?}");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn injected_premature_eof_is_rejected_cleanly() {
        let registry = sr_obs::Registry::new();
        let plan = sr_fault::FaultPlan::parse("read.eof_rate = 1.0\n", &registry).unwrap();
        let snap = sample_snapshot();
        let path = std::env::temp_dir().join(format!("sr_snap_eof_{}.snap", std::process::id()));
        save_snapshot(&snap, &path).unwrap();
        // The torn read must surface as a structured Format error (the
        // zero bytes that survive the injected EOF are "file too short"),
        // never as a garbage snapshot.
        let result = load_snapshot_with(&path, Some(&plan));
        std::fs::remove_file(&path).ok();
        assert!(
            matches!(result, Err(ServeError::Format { .. }) | Err(ServeError::Checksum { .. })),
            "torn read must be rejected: {result:?}"
        );
        assert_eq!(plan.injected_eofs(), 1);
    }

    /// Both formats store an attribute name's length in a `u16`: the
    /// longest representable name round-trips and serves, one byte more
    /// is refused when the snapshot is assembled, before any encoder
    /// could seal a truncated length.
    #[test]
    fn attribute_name_length_is_bounded_by_its_u16_field() {
        let snapshot_named = |len: usize| {
            let grid = GridDataset::new(
                3,
                3,
                1,
                (0..9).map(|i| 1.0 + i as f64).collect(),
                vec![true; 9],
                vec!["n".repeat(len)],
                vec![AggType::Sum],
                vec![false],
                Bounds { lat_min: 0.0, lat_max: 1.0, lon_min: 0.0, lon_max: 1.0 },
            )
            .unwrap();
            let out = repartition(&grid, 0.05).unwrap();
            Snapshot::build(&out.repartitioned, &grid, 0.05)
        };
        let longest = snapshot_named(MAX_NAME_LEN).unwrap();
        assert_eq!(snapshot_from_bytes(&snapshot_to_bytes(&longest)).unwrap(), longest);
        let v2 = crate::snapshot_to_bytes_v2(&longest);
        assert_eq!(crate::snapshot_v2_from_bytes(&v2).unwrap().to_snapshot().unwrap(), longest);
        let engine = crate::QueryEngine::new(longest.clone());
        assert_eq!(engine.attr_names()[0].len(), MAX_NAME_LEN);
        assert!(engine.point(0.5, 0.5).unwrap().values.is_some());

        assert!(matches!(snapshot_named(MAX_NAME_LEN + 1), Err(ServeError::Invalid(_))));
        let s = longest;
        let too_long = Snapshot::from_parts(
            s.theta,
            s.ifl,
            s.min_adjacent_variation,
            s.bounds,
            vec!["n".repeat(MAX_NAME_LEN + 1)],
            s.agg_types.clone(),
            s.integer_attrs.clone(),
            s.valid.clone(),
            s.partition.clone(),
            s.presence.clone(),
            s.features.clone(),
            s.adjacency.clone(),
        );
        assert!(matches!(too_long, Err(ServeError::Invalid(_))));
    }

    #[test]
    fn nan_and_negative_zero_survive() {
        // Bit-exactness must cover non-finite and signed-zero payloads in
        // the run-parameter fields.
        let vals = vec![1.0, 1.0, 1.0, 1.0];
        let grid = GridDataset::univariate(2, 2, vals).unwrap();
        let out = repartition(&grid, 0.05).unwrap();
        let mut snap = Snapshot::build(&out.repartitioned, &grid, 0.05).unwrap();
        snap.theta = -0.0;
        snap.min_adjacent_variation = f64::NAN;
        let bytes = snapshot_to_bytes(&snap);
        let back = snapshot_from_bytes(&bytes).unwrap();
        assert_eq!(back.theta.to_bits(), (-0.0f64).to_bits());
        assert!(back.min_adjacent_variation.is_nan());
        assert_eq!(snapshot_to_bytes(&back), bytes);
    }
}
