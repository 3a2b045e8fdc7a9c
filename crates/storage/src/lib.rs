//! Unified columnar storage layer with per-operator memory accounting.
//!
//! GenBase's central finding is that data *movement and restructuring*
//! between the storage layer and the analytics layer — not the analytics
//! kernels — dominates end-to-end cost. Before this crate, each engine
//! family owned an ad-hoc working-set representation (row/column triple
//! tables in the SQL engines, dense matrices in vanilla R, chunked arrays
//! in SciDB, record splits in Hadoop) and every cross-representation
//! conversion was bespoke, unmeasured code. This crate makes the paper's
//! core cost dimension first-class:
//!
//! - [`ColumnarTable`] / [`Column`] / [`TableView`]: the shared columnar
//!   working-set representation every engine's lowering materializes
//!   filtered/joined data into. It wraps the relational column store's own
//!   types rather than copying them: [`Column`] *is*
//!   [`genbase_relational::ColumnData`], and a [`ColumnarTable`] is a
//!   [`genbase_relational::ColumnTable`] (the one validating constructor)
//!   plus the [`Reservation`] that keeps its bytes charged against a
//!   [`MemTracker`] until it drops, so resident working-set size is
//!   observable at any instant. [`Reservation`] is the one charge guard
//!   under every tracked value ([`Morsel`] and [`DenseHandle`] too).
//! - [`convert`]: the conversion kernels — dense↔triples↔chunked and the
//!   row↔column pivot — implemented once, instrumented (bytes in, bytes
//!   out, rows materialized), and parallelized on the shared
//!   `genbase_util::runtime` pool; and the one statement of the
//!   microarray's triple layout ([`triple_schema`], [`triple_columns`]).
//! - [`MemTracker`]: the allocation tracker behind per-operator memory
//!   traces (`bytes_in` / `bytes_out` / `peak_alloc_bytes` /
//!   `rows_materialized`) and the per-cell `--mem-budget` enforcement.
//!   Exhausting the budget surfaces as [`genbase_util::Error::OutOfMemory`]
//!   — a traced "infinite" cell outcome, never an abort.
//!
//! The dense representation of this layer *is* [`genbase_linalg::Matrix`]
//! (held through the RAII [`DenseHandle`]) and the chunked representation
//! is [`genbase_array::Array2D`]; the conversion kernels bridge them so the
//! per-engine code paths they replaced stay bit-identical (pinned by the
//! storage property tests).

#![warn(missing_docs)]

pub mod cache;
pub mod convert;
pub mod pipeline;
pub mod stream;
pub mod table;
pub mod tracker;

pub use cache::{digest_ids, ArtifactCache, CachePin, CacheScope, CacheValue, Lookup};
pub use convert::{
    chunked_from_dense, columnar_from_column_table, columnar_from_relation, export_csv_tracked,
    gather_chunked, pivot_csv_tracked, pivot_dense, scatter_csv_triples, select_tracked,
    triple_columns, triple_schema, triples_from_dense,
};
pub use pipeline::{csv_selected, fused_scan, scatter_selected, SelVec, SlotLookup};
pub use stream::{batch_ranges, carve_view, BatchReel, Morsel, Spool, DEFAULT_BATCH_ROWS};
pub use table::{Column, ColumnarTable, TableView};
pub use tracker::{DenseHandle, MemDelta, MemTracker, OpScope, Reservation};
