//! Out-of-core point-stream ingestion and incremental re-partitioning.
//!
//! This crate turns the framework from a batch pipeline into a living
//! service: raw point streams `(x, y, attrs…)` are consumed in
//! bounded-memory chunks ([`StreamReader`]), binned into grid cells with
//! per-cell mean/median/min/max/count collapse ([`CellAccumulators`]), and
//! maintained as a [`sr_grid::GridDataset`] whose re-partition is kept
//! current *incrementally*: the grid lives in a [`sr_core::LocalizedState`],
//! whose `apply` writes each batch's collapsed cells and patches the
//! driver's scan inputs over them, so an exact re-partition re-runs only
//! the threshold walk, localized to the dirty region — and is
//! **bit-identical** to a from-scratch run on the accumulated data.
//!
//! The normative contract — stream format, collapse semantics, NaN and
//! empty-cell rules, the dirty-region algorithm, the convergence
//! guarantee, snapshot republish semantics, and every `ingest.*` span and
//! metric — is `docs/INGESTION.md` at the repository root.
//!
//! ```
//! use sr_ingest::{IngestConfig, IngestEngine, IngestSchema, PointChunk, StreamReader};
//!
//! // Parse a tiny stream in one bounded chunk…
//! let text = "0.2 0.2 10.0\n0.22 0.2 14.0\n0.8 0.8 50.0\n";
//! let mut reader = StreamReader::new(std::io::Cursor::new(text), 1);
//! let mut chunk = PointChunk::with_capacity(16, 1);
//! reader.next_chunk(16, &mut chunk).unwrap();
//!
//! // …feed it to the engine, re-partition, and inspect the result.
//! let schema = IngestSchema::parse("temp:mean").unwrap();
//! let mut engine = IngestEngine::new(IngestConfig::new(4, 4, schema, 0.1)).unwrap();
//! engine.apply_batch(&chunk).unwrap();
//! let outcome = engine.repartition().unwrap();
//! assert!(outcome.repartitioned.ifl() <= 0.1);
//! assert_eq!(engine.grid().value(0, 0), 12.0); // mean(10, 14)
//! ```

#![deny(missing_docs)]

pub mod binning;
pub mod engine;
pub mod stream;

pub use binning::{AttrSpec, CellAccumulators, Collapse, IngestSchema};
pub use engine::{BatchReport, IngestConfig, IngestEngine};
pub use stream::{write_binary_point, PointChunk, StreamReader, FRAME_MAGIC};

/// Errors from the ingestion layer.
#[derive(Debug)]
pub enum IngestError {
    /// Reading the stream failed.
    Io(std::io::Error),
    /// The core driver rejected an operation.
    Core(sr_core::CoreError),
    /// A grid-level operation failed.
    Grid(sr_grid::GridError),
    /// Building or writing a snapshot failed.
    Serve(sr_serve::ServeError),
    /// The engine was configured or used inconsistently.
    Config(String),
}

impl std::fmt::Display for IngestError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            IngestError::Io(e) => write!(f, "stream i/o error: {e}"),
            IngestError::Core(e) => write!(f, "re-partitioning error: {e}"),
            IngestError::Grid(e) => write!(f, "grid error: {e}"),
            IngestError::Serve(e) => write!(f, "snapshot error: {e}"),
            IngestError::Config(msg) => write!(f, "ingest configuration error: {msg}"),
        }
    }
}

impl std::error::Error for IngestError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            IngestError::Io(e) => Some(e),
            IngestError::Core(e) => Some(e),
            IngestError::Grid(e) => Some(e),
            IngestError::Serve(e) => Some(e),
            IngestError::Config(_) => None,
        }
    }
}

/// Result alias for ingestion operations.
pub type Result<T> = std::result::Result<T, IngestError>;
