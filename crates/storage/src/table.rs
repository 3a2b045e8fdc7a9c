//! The shared columnar working-set representation.
//!
//! A [`ColumnarTable`] is the storage layer's one table shape, and it is the
//! relational column store's own: a [`genbase_relational::ColumnTable`] (one
//! schema, typed [`Column`]s, one validating constructor) held together with
//! the [`Reservation`] that keeps its heap bytes charged against a
//! [`MemTracker`] until it drops. Every engine's physical lowering
//! materializes its filtered/joined working sets into this form, so "bytes
//! resident per operator" means the same thing in every engine family, and a
//! column-store operator's output enters the layer by a move.
//!
//! [`TableView`] is the zero-copy window the conversion kernels consume: a
//! borrowed row range over a table, no bytes moved until a kernel
//! materializes something new.

use crate::tracker::{MemTracker, Reservation};
use genbase_relational::{ColumnTable, Relation, Schema, Value};
use genbase_util::{Error, Result};

/// One typed column: the relational column store's, not a copy of it.
pub use genbase_relational::ColumnData as Column;

/// A [`ColumnTable`] registered with the storage layer's allocation tracker.
/// The read API (`schema`, `n_rows`, `heap_bytes`, `int_col`, `float_col`,
/// `group_sum`, ...) is the wrapped table's, through `Deref`.
#[derive(Debug)]
pub struct ColumnarTable {
    table: ColumnTable,
    _charge: Reservation,
}

impl ColumnarTable {
    /// Build from pre-assembled columns, charging the tracker for the
    /// table's heap bytes (released again when the table drops). A refused
    /// shape charges nothing.
    pub fn from_columns(
        tracker: &MemTracker,
        schema: Schema,
        cols: Vec<Column>,
    ) -> Result<ColumnarTable> {
        ColumnarTable::charged(tracker, ColumnTable::from_columns(schema, cols)?)
    }

    /// Take a relational table into the layer as it is, charging its bytes.
    pub(crate) fn charged(tracker: &MemTracker, table: ColumnTable) -> Result<ColumnarTable> {
        let _charge = tracker.reserve(table.heap_bytes())?;
        Ok(ColumnarTable { table, _charge })
    }

    /// Zero-copy view of the whole table.
    pub fn view(&self) -> TableView<'_> {
        TableView::new(&self.table)
    }
}

impl std::ops::Deref for ColumnarTable {
    type Target = ColumnTable;

    fn deref(&self) -> &ColumnTable {
        &self.table
    }
}

impl Relation for ColumnarTable {
    fn schema(&self) -> &Schema {
        self.table.schema()
    }

    fn n_rows(&self) -> usize {
        self.table.n_rows()
    }

    fn for_each(&self, f: &mut dyn FnMut(&[Value])) {
        self.table.for_each(f)
    }
}

/// Zero-copy row-range view over a [`ColumnarTable`], or over a borrowed
/// [`ColumnTable`] whose bytes someone else charges (a loaded base table).
#[derive(Debug, Clone, Copy)]
pub struct TableView<'a> {
    table: &'a ColumnTable,
    start: usize,
    end: usize,
}

impl<'a> TableView<'a> {
    /// Zero-copy view of the whole of `table`.
    pub fn new(table: &'a ColumnTable) -> TableView<'a> {
        TableView {
            table,
            start: 0,
            end: table.n_rows(),
        }
    }

    /// Rows in the view.
    pub fn n_rows(&self) -> usize {
        self.end - self.start
    }

    /// Schema of the underlying table.
    pub fn schema(&self) -> &Schema {
        self.table.schema()
    }

    /// Heap bytes the view spans (the bytes a kernel reads to consume it).
    pub fn span_bytes(&self) -> u64 {
        (self.n_rows() * self.table.schema().arity() * 8) as u64
    }

    /// Borrow the view's slice of an integer column.
    pub fn int_col(&self, i: usize) -> Result<&'a [i64]> {
        Ok(&self.table.int_col(i)?[self.start..self.end])
    }

    /// Borrow the view's slice of a float column.
    pub fn float_col(&self, i: usize) -> Result<&'a [f64]> {
        Ok(&self.table.float_col(i)?[self.start..self.end])
    }

    /// Owned copy of column `i` restricted to the view's row range (the
    /// materializing step of carving a morsel out of a view).
    pub fn column_copy(&self, i: usize) -> Column {
        self.table.columns()[i].slice_range(self.start, self.end)
    }

    /// A narrower view over rows `start..end` *of this view*.
    pub fn subview(&self, start: usize, end: usize) -> Result<TableView<'a>> {
        if start > end || end > self.n_rows() {
            return Err(Error::invalid(format!(
                "subview {start}..{end} out of range (rows = {})",
                self.n_rows()
            )));
        }
        Ok(TableView {
            table: self.table,
            start: self.start + start,
            end: self.start + end,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::convert::triple_schema;

    fn sample(tracker: &MemTracker) -> ColumnarTable {
        ColumnarTable::from_columns(
            tracker,
            triple_schema(),
            vec![
                Column::Ints(vec![0, 1, 0, 1]),
                Column::Ints(vec![0, 0, 1, 1]),
                Column::Floats(vec![1.0, 2.0, 3.0, 4.0]),
            ],
        )
        .unwrap()
    }

    #[test]
    fn construction_charges_and_drop_releases() {
        let t = MemTracker::unlimited();
        {
            let table = sample(&t);
            assert_eq!(table.n_rows(), 4);
            assert_eq!(t.current(), 3 * 4 * 8);
        }
        assert_eq!(t.current(), 0);
    }

    #[test]
    fn validation_matches_relational_rules() {
        let t = MemTracker::unlimited();
        let ragged = ColumnarTable::from_columns(
            &t,
            triple_schema(),
            vec![
                Column::Ints(vec![0]),
                Column::Ints(vec![0, 1]),
                Column::Floats(vec![1.0, 2.0]),
            ],
        );
        assert!(ragged.is_err());
        assert_eq!(t.current(), 0, "failed build charges nothing");
    }

    #[test]
    fn views_are_zero_copy_windows() {
        let t = MemTracker::unlimited();
        let table = sample(&t);
        let before = t.current();
        let v = table.view().subview(1, 3).unwrap();
        assert_eq!(v.n_rows(), 2);
        assert_eq!(v.int_col(0).unwrap(), &[1, 0]);
        assert_eq!(v.float_col(2).unwrap(), &[2.0, 3.0]);
        assert_eq!(t.current(), before, "views charge nothing");
        assert!(table.view().subview(3, 2).is_err());
        assert!(table.view().subview(0, 9).is_err());
    }

    #[test]
    fn group_sum_and_relation_iteration() {
        let t = MemTracker::unlimited();
        let table = sample(&t);
        assert_eq!(
            table.group_sum(0, 2).unwrap(),
            vec![(0, 4.0, 2), (1, 6.0, 2)]
        );
        let mut rows = Vec::new();
        table.for_each(&mut |r: &[Value]| rows.push(r.to_vec()));
        assert_eq!(rows.len(), 4);
        assert_eq!(
            rows[1],
            vec![Value::Int(1), Value::Int(0), Value::Float(2.0)]
        );
    }
}
