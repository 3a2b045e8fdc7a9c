//! Relational storage engines for the GenBase benchmark.
//!
//! Two stores with deliberately different mechanics, mirroring the paper's
//! Postgres (row store) and commercial column store configurations:
//!
//! - [`RowTable`]: tuples serialized into fixed 8 KB heap pages; every scan
//!   deserializes tuple-at-a-time and evaluates predicates interpretively —
//!   the classic row-store execution profile.
//! - [`ColumnTable`]: typed contiguous columns with vectorized predicate
//!   evaluation producing selection vectors — the column-store profile.
//!
//! Both implement the same logical operations (filter, project, hash join,
//! semijoin probe + gather, group-by aggregate, sort) so the engine layer
//! can swap them freely, and
//! both export to CSV text via `genbase-util` to model the paper's
//! "copy & reformat into R" path.

pub mod column;
pub mod export;
mod join;
pub mod pred;
pub mod row;
pub mod value;

pub use column::{ColumnData, ColumnTable};
pub use export::{export_csv, import_matrix_csv, pivot_to_dense};
pub use pred::Pred;
pub use row::RowTable;
pub use value::{DataType, Schema, Value};

/// Common interface over both stores, used by exports, pivots and the
/// engine layer.
pub trait Relation {
    /// Table schema.
    fn schema(&self) -> &Schema;
    /// Number of rows.
    fn n_rows(&self) -> usize;
    /// Visit every row in storage order. The callback receives a transient
    /// buffer valid only for the call.
    fn for_each(&self, f: &mut dyn FnMut(&[Value]));
}
