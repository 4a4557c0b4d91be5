//! Online serving layer for re-partitioned spatial datasets.
//!
//! The framework's offline side (sr-core) turns an `m × n` grid into a
//! compact set of rectangular cell-groups under an information-loss budget
//! `θ`. This crate is the online side: it freezes an accepted
//! [`sr_core::Repartitioned`] result into a versioned, checksummed binary
//! *snapshot* — either the stream-decoded `sr-snap v1` ([`snapshot`]) or
//! the zero-copy, section-mapped `sr-snap v2` ([`v2`]) — answers spatial
//! queries against it at cell-group granularity ([`query`]) with exactly
//! the §III-C reconstruction semantics, keeps recently used snapshots warm
//! in an LRU cache ([`cache`]), and exposes the whole thing over a
//! dependency-free HTTP/1.1 server ([`http`]). `docs/SNAPSHOT_FORMAT.md`
//! is the normative byte-level spec of both formats.
//!
//! Serving has one representation: a [`QueryEngine`] is a validated v2
//! buffer, served borrowed. A v1 file or an owned [`Snapshot`] is encoded
//! to v2 bytes in memory and validated like a file before it serves.
//!
//! The invariant tying the layers together: for any cell, the value served
//! by [`QueryEngine`] is bit-identical to the value
//! [`sr_core::reconstruct_grid`] would materialize for that cell — serving
//! never re-derives representatives with different arithmetic.
//!
//! Serving is instrumented with [`sr_obs`] (re-exported here as
//! [`Registry`]): per-endpoint spans, request/error counters, and latency
//! histograms, surfaced over `GET /metrics` and folded into `GET /stats`.
//! `docs/OBSERVABILITY.md` documents the exact names.
//!
//! The serving path is also hardened against overload and storage faults:
//! snapshot saves are atomic (temp file + fsync + rename), loads reject
//! torn or corrupted files before parsing, the cache retries failed
//! reloads with seeded jittered backoff and then serves the last good
//! snapshot *stale*, and the HTTP server supports per-request deadlines
//! and bounded admission with load shedding. Deterministic fault
//! injection for all of it comes from [`sr_fault`] (re-exported here as
//! [`FaultPlan`]); `docs/ROBUSTNESS.md` is the full degradation contract.
//! The summary below round-trips a snapshot and queries it directly:
//!
//! ```
//! use sr_serve::{snapshot_from_bytes, snapshot_to_bytes, QueryEngine, Snapshot};
//!
//! // Offline: partition a small grid and freeze it into snapshot bytes.
//! let vals: Vec<f64> = (0..36).map(|i| 10.0 + (i / 6) as f64 * 0.2).collect();
//! let grid = sr_grid::GridDataset::univariate(6, 6, vals).unwrap();
//! let out = sr_core::repartition(&grid, 0.05).unwrap();
//! let snap = Snapshot::build(&out.repartitioned, &grid, 0.05).unwrap();
//! let bytes = snapshot_to_bytes(&snap);
//!
//! // Online: decode and answer a point query at group granularity.
//! let engine = QueryEngine::new(snapshot_from_bytes(&bytes).unwrap());
//! let answer = engine.point(0.5, 0.5).expect("inside the grid bounds");
//! assert!(answer.values.is_some());
//! assert!(engine.stats().groups >= 1);
//! ```

#![deny(missing_docs)]

pub mod cache;
pub mod http;
mod index;
pub mod query;
pub mod snapshot;
pub mod v2;

pub use cache::{ReloadPolicy, Served, SnapshotCache};
pub use http::{
    serve, serve_backend, serve_cached, BackendAnswer, BackendResult, BackendUnavailable,
    EngineBackend, QueryBackend, ServerConfig, ServerHandle,
};
pub use query::{NearestGroup, PointAnswer, Stats, WindowAnswer, WindowGroupPart, WindowScatter};
pub use snapshot::{
    load_snapshot, load_snapshot_with, read_snapshot, save_snapshot, save_snapshot_bytes,
    save_snapshot_with, snapshot_from_bytes, snapshot_to_bytes, write_snapshot, Snapshot,
};
pub use sr_fault::{Backoff, FaultPlan};
pub use sr_obs::Registry;
pub use v2::{
    engine_from_bytes, load_engine, load_engine_with, migrate_snapshot_bytes, peek_version,
    save_snapshot_v2, save_snapshot_v2_with, section_table, snapshot_to_bytes_v2,
    snapshot_v2_from_aligned, snapshot_v2_from_bytes, AlignedBytes, QueryEngine, SectionInfo,
};

/// Errors from the serving layer.
#[derive(Debug)]
pub enum ServeError {
    /// An underlying I/O operation failed.
    Io(std::io::Error),
    /// The snapshot bytes are structurally malformed.
    Format {
        /// Byte offset at which parsing failed (`usize::MAX` when the
        /// failure is not tied to a position, e.g. a truncated file).
        offset: usize,
        /// What went wrong.
        message: String,
    },
    /// The CRC-32 trailer does not match the payload — the file was
    /// corrupted or truncated after writing.
    Checksum {
        /// Checksum stored in the trailer.
        stored: u32,
        /// Checksum computed over the payload.
        computed: u32,
    },
    /// A semantically invalid request or snapshot (consistent bytes, but
    /// the described partition breaks a framework invariant).
    Invalid(String),
}

impl std::fmt::Display for ServeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ServeError::Io(e) => write!(f, "i/o error: {e}"),
            ServeError::Format { offset, message } if *offset == usize::MAX => {
                write!(f, "snapshot format error: {message}")
            }
            ServeError::Format { offset, message } => {
                write!(f, "snapshot format error at byte {offset}: {message}")
            }
            ServeError::Checksum { stored, computed } => write!(
                f,
                "snapshot checksum mismatch: stored {stored:#010x}, computed {computed:#010x}"
            ),
            ServeError::Invalid(msg) => write!(f, "invalid snapshot: {msg}"),
        }
    }
}

impl std::error::Error for ServeError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            ServeError::Io(e) => Some(e),
            _ => None,
        }
    }
}

impl From<std::io::Error> for ServeError {
    fn from(e: std::io::Error) -> Self {
        ServeError::Io(e)
    }
}

/// Result alias for serving operations.
pub type Result<T> = std::result::Result<T, ServeError>;
