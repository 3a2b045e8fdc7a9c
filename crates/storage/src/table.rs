//! The shared columnar working-set representation.
//!
//! A [`ColumnarTable`] is the storage layer's one table shape: a
//! [`genbase_relational::Schema`] plus typed [`Column`]s, registered
//! against a [`MemTracker`] on construction and released on drop. Every
//! engine's physical lowering materializes its filtered/joined working sets
//! into this form, so "bytes resident per operator" means the same thing in
//! every engine family.
//!
//! [`TableView`] is the zero-copy window the conversion kernels consume: a
//! borrowed row range over a table, no bytes moved until a kernel
//! materializes something new.

use crate::tracker::MemTracker;
use genbase_relational::{ColumnData, DataType, Relation, Schema, Value};
use genbase_util::{idindex, Error, Result};

/// One typed column of a [`ColumnarTable`].
#[derive(Debug, Clone, PartialEq)]
pub enum Column {
    /// 64-bit integer column.
    Ints(Vec<i64>),
    /// 64-bit float column.
    Floats(Vec<f64>),
}

impl Column {
    /// Number of values.
    pub fn len(&self) -> usize {
        match self {
            Column::Ints(v) => v.len(),
            Column::Floats(v) => v.len(),
        }
    }

    /// True when empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Column data type.
    pub fn data_type(&self) -> DataType {
        match self {
            Column::Ints(_) => DataType::Int,
            Column::Floats(_) => DataType::Float,
        }
    }

    /// Heap bytes of the column's storage.
    pub fn heap_bytes(&self) -> u64 {
        (self.len() * 8) as u64
    }

    fn value_at(&self, i: usize) -> Value {
        match self {
            Column::Ints(v) => Value::Int(v[i]),
            Column::Floats(v) => Value::Float(v[i]),
        }
    }

    /// Copy of the `start..end` range of this column.
    pub fn slice_range(&self, start: usize, end: usize) -> Column {
        match self {
            Column::Ints(v) => Column::Ints(v[start..end].to_vec()),
            Column::Floats(v) => Column::Floats(v[start..end].to_vec()),
        }
    }

    /// Append another column's values; the types must match.
    pub fn append(&mut self, other: &Column) -> Result<()> {
        match (self, other) {
            (Column::Ints(a), Column::Ints(b)) => a.extend_from_slice(b),
            (Column::Floats(a), Column::Floats(b)) => a.extend_from_slice(b),
            _ => return Err(Error::invalid("column type mismatch on append")),
        }
        Ok(())
    }
}

impl From<ColumnData> for Column {
    fn from(data: ColumnData) -> Column {
        match data {
            ColumnData::Ints(v) => Column::Ints(v),
            ColumnData::Floats(v) => Column::Floats(v),
        }
    }
}

impl From<Column> for ColumnData {
    fn from(col: Column) -> ColumnData {
        match col {
            Column::Ints(v) => ColumnData::Ints(v),
            Column::Floats(v) => ColumnData::Floats(v),
        }
    }
}

/// A columnar table registered with the storage layer's allocation tracker.
#[derive(Debug)]
pub struct ColumnarTable {
    schema: Schema,
    cols: Vec<Column>,
    n_rows: usize,
    tracker: MemTracker,
}

impl ColumnarTable {
    /// Build from pre-assembled columns, charging the tracker for the
    /// table's heap bytes (released again when the table drops).
    pub fn from_columns(
        tracker: &MemTracker,
        schema: Schema,
        cols: Vec<Column>,
    ) -> Result<ColumnarTable> {
        if cols.len() != schema.arity() {
            return Err(Error::invalid("column count does not match schema"));
        }
        let n_rows = cols.first().map(Column::len).unwrap_or(0);
        for (i, c) in cols.iter().enumerate() {
            if c.len() != n_rows {
                return Err(Error::invalid(format!("column {i} has ragged length")));
            }
            if c.data_type() != schema.col_type(i) {
                return Err(Error::invalid(format!("column {i} type mismatch")));
            }
        }
        let bytes: u64 = cols.iter().map(Column::heap_bytes).sum();
        tracker.charge(bytes)?;
        Ok(ColumnarTable {
            schema,
            cols,
            n_rows,
            tracker: tracker.clone(),
        })
    }

    /// Build from columns whose heap bytes are *already* charged against
    /// `tracker` — the charge-transfer side of a conversion boundary.
    ///
    /// When a streaming operator reassembles tracker-charged morsels into a
    /// table, routing the buffers through [`ColumnarTable::from_columns`]
    /// would re-register bytes the tracker already counts, so the boundary
    /// would briefly hold a 2x charge and inflate `peak_alloc` (and could
    /// spuriously trip a `--mem-budget` that the real working set fits).
    /// This constructor adopts the existing charge instead; the table still
    /// releases it on drop.
    pub fn adopt_charged_columns(
        tracker: &MemTracker,
        schema: Schema,
        cols: Vec<Column>,
    ) -> Result<ColumnarTable> {
        if cols.len() != schema.arity() {
            return Err(Error::invalid("column count does not match schema"));
        }
        let n_rows = cols.first().map(Column::len).unwrap_or(0);
        for (i, c) in cols.iter().enumerate() {
            if c.len() != n_rows {
                return Err(Error::invalid(format!("column {i} has ragged length")));
            }
            if c.data_type() != schema.col_type(i) {
                return Err(Error::invalid(format!("column {i} type mismatch")));
            }
        }
        Ok(ColumnarTable {
            schema,
            cols,
            n_rows,
            tracker: tracker.clone(),
        })
    }

    /// Table schema.
    pub fn schema(&self) -> &Schema {
        &self.schema
    }

    /// Row count.
    pub fn n_rows(&self) -> usize {
        self.n_rows
    }

    /// True when the table holds no rows.
    pub fn is_empty(&self) -> bool {
        self.n_rows == 0
    }

    /// Heap bytes of column storage.
    pub fn heap_bytes(&self) -> u64 {
        self.cols.iter().map(Column::heap_bytes).sum()
    }

    /// The tracker this table is registered with.
    pub fn tracker(&self) -> &MemTracker {
        &self.tracker
    }

    /// Borrow an integer column.
    pub fn int_col(&self, i: usize) -> Result<&[i64]> {
        match &self.cols[i] {
            Column::Ints(v) => Ok(v),
            Column::Floats(_) => Err(Error::invalid(format!("column {i} is Float"))),
        }
    }

    /// Borrow a float column.
    pub fn float_col(&self, i: usize) -> Result<&[f64]> {
        match &self.cols[i] {
            Column::Floats(v) => Ok(v),
            Column::Ints(_) => Err(Error::invalid(format!("column {i} is Int"))),
        }
    }

    /// Zero-copy view of the whole table.
    pub fn view(&self) -> TableView<'_> {
        TableView {
            table: self,
            start: 0,
            end: self.n_rows,
        }
    }

    /// Zero-copy view of a row range.
    pub fn slice(&self, start: usize, end: usize) -> Result<TableView<'_>> {
        if start > end || end > self.n_rows {
            return Err(Error::invalid(format!(
                "slice {start}..{end} out of range (rows = {})",
                self.n_rows
            )));
        }
        Ok(TableView {
            table: self,
            start,
            end,
        })
    }

    /// Group by an integer key, summing a float column. Returns
    /// `(key, sum, count)` sorted by key — identical semantics to the
    /// per-store `group_sum` implementations this layer replaces.
    pub fn group_sum(&self, key_col: usize, val_col: usize) -> Result<Vec<(i64, f64, u64)>> {
        let keys = self.int_col(key_col)?;
        let vals = self.float_col(val_col)?;
        Ok(idindex::group_sum(keys, vals))
    }
}

impl Drop for ColumnarTable {
    fn drop(&mut self) {
        self.tracker.release(self.heap_bytes());
    }
}

impl Relation for ColumnarTable {
    fn schema(&self) -> &Schema {
        &self.schema
    }

    fn n_rows(&self) -> usize {
        self.n_rows
    }

    fn for_each(&self, f: &mut dyn FnMut(&[Value])) {
        let mut buf: Vec<Value> = Vec::with_capacity(self.schema.arity());
        for r in 0..self.n_rows {
            buf.clear();
            for c in &self.cols {
                buf.push(c.value_at(r));
            }
            f(&buf);
        }
    }
}

/// Zero-copy row-range view over a [`ColumnarTable`].
#[derive(Debug, Clone, Copy)]
pub struct TableView<'a> {
    table: &'a ColumnarTable,
    start: usize,
    end: usize,
}

impl<'a> TableView<'a> {
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
        self.table.cols[i].slice_range(self.start, self.end)
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

    fn triple_schema() -> Schema {
        Schema::new(&[
            ("gene_id", DataType::Int),
            ("patient_id", DataType::Int),
            ("value", DataType::Float),
        ])
        .unwrap()
    }

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
        let v = table.slice(1, 3).unwrap();
        assert_eq!(v.n_rows(), 2);
        assert_eq!(v.int_col(0).unwrap(), &[1, 0]);
        assert_eq!(v.float_col(2).unwrap(), &[2.0, 3.0]);
        assert_eq!(t.current(), before, "views charge nothing");
        assert!(table.slice(3, 2).is_err());
        assert!(table.slice(0, 9).is_err());
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

    #[test]
    fn adopting_charged_columns_does_not_double_charge() {
        // Regression: re-registering view-carved buffers across a
        // conversion boundary used to go through `from_columns`, charging
        // bytes the tracker already counted — a transient 2x that inflated
        // peaks and could trip budgets the real working set fit.
        let t = MemTracker::unlimited();
        let table = sample(&t);
        let bytes = table.heap_bytes();
        let view = table.view();
        let cols: Vec<Column> = (0..3).map(|i| view.column_copy(i)).collect();
        let copy_bytes: u64 = cols.iter().map(Column::heap_bytes).sum();
        t.charge(copy_bytes).unwrap();
        let rebuilt = ColumnarTable::adopt_charged_columns(&t, triple_schema(), cols).unwrap();
        assert_eq!(
            t.current(),
            bytes + copy_bytes,
            "adoption must not re-register already-charged buffers"
        );
        assert_eq!(t.peak(), bytes + copy_bytes, "no transient double charge");
        drop(table);
        drop(rebuilt);
        assert_eq!(t.current(), 0, "adopted charge released exactly once");
    }
}
