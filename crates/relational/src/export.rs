//! Export, import and restructuring helpers.
//!
//! These model the two expensive bridges the paper measures:
//!
//! - [`export_csv`] / [`import_matrix_csv`]: the "export data from the DBMS
//!   and reformat it for R" path — full text serialization and re-parsing,
//!   an O(N) conversion with a deliberately large constant.
//! - [`pivot_to_dense`] — the "restructure the information as a matrix"
//!   step — turning relational `(row_id, col_id, value)` triples into the
//!   dense array the analytics kernels need.

use crate::value::{DataType, Value};
use crate::Relation;
use genbase_util::csv::{self, CsvField};
use genbase_util::{Budget, Error, Result};
use std::collections::HashMap;

/// The relational crate stays independent of `genbase-linalg`; a dense pivot
/// target with the same layout is defined here and converted by the engine
/// layer (one `Vec` move, no copy).
mod genbase_linalg_shim {
    /// Minimal dense row-major buffer produced by pivoting.
    #[derive(Debug, Clone, PartialEq)]
    pub struct Matrix {
        /// Row count.
        pub rows: usize,
        /// Column count.
        pub cols: usize,
        /// Row-major data.
        pub data: Vec<f64>,
    }
}

pub use genbase_linalg_shim::Matrix as DenseBuffer;

/// Serialize a relation to CSV text (ints as integers, floats round-trip).
pub fn export_csv(rel: &dyn Relation, budget: &Budget) -> Result<String> {
    budget.check("csv export")?;
    let schema = rel.schema();
    let mut out = String::with_capacity(rel.n_rows() * schema.arity() * 12);
    rel.for_each(&mut |row: &[Value]| csv::write_row(&mut out, row.iter().copied()));
    Ok(out)
}

impl From<Value> for CsvField {
    fn from(v: Value) -> CsvField {
        match v {
            Value::Int(x) => CsvField::Int(x),
            Value::Float(x) => CsvField::Float(x),
        }
    }
}

/// Parse CSV text into a dense row-major float buffer (the "load into R"
/// step; every field is parsed as a double, as R's `read.csv` would for a
/// numeric matrix).
pub fn import_matrix_csv(text: &str, budget: &Budget) -> Result<DenseBuffer> {
    budget.check("csv import")?;
    let (data, rows, cols) = csv::parse_matrix(text)?;
    Ok(DenseBuffer { rows, cols, data })
}

/// Pivot `(row_id, col_id, value)` triples into a dense matrix.
///
/// `row_ids` and `col_ids` give the dense output ordering; ids absent from
/// the maps are ignored (they were filtered out upstream). Cells never
/// assigned stay 0.0; duplicate assignments keep the last value.
pub fn pivot_to_dense(
    rel: &dyn Relation,
    row_col: usize,
    col_col: usize,
    val_col: usize,
    row_ids: &[i64],
    col_ids: &[i64],
    budget: &Budget,
) -> Result<DenseBuffer> {
    let schema = rel.schema();
    let arity = schema.arity();
    if row_col >= arity || col_col >= arity || val_col >= arity {
        return Err(Error::invalid("pivot column out of range"));
    }
    if schema.col_type(row_col) != DataType::Int
        || schema.col_type(col_col) != DataType::Int
        || schema.col_type(val_col) != DataType::Float
    {
        return Err(Error::invalid(
            "pivot needs Int row/col ids and a Float value column",
        ));
    }
    budget.check("pivot")?;
    let rows = row_ids.len();
    let cols = col_ids.len();
    let row_index: HashMap<i64, usize> =
        row_ids.iter().enumerate().map(|(i, &id)| (id, i)).collect();
    let col_index: HashMap<i64, usize> =
        col_ids.iter().enumerate().map(|(i, &id)| (id, i)).collect();
    budget.alloc((rows * cols * 8) as u64, (rows * cols) as u64)?;
    let mut data = vec![0.0; rows * cols];
    rel.for_each(&mut |row: &[Value]| {
        if let (Value::Int(r), Value::Int(c), Value::Float(v)) =
            (row[row_col], row[col_col], row[val_col])
        {
            if let (Some(&ri), Some(&ci)) = (row_index.get(&r), col_index.get(&c)) {
                data[ri * cols + ci] = v;
            }
        }
    });
    budget.free((rows * cols * 8) as u64);
    Ok(DenseBuffer { rows, cols, data })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::column::ColumnTable;
    use crate::row::RowTable;
    use crate::value::Schema;

    fn triple_schema() -> Schema {
        Schema::new(&[
            ("patient_id", DataType::Int),
            ("gene_id", DataType::Int),
            ("value", DataType::Float),
        ])
        .unwrap()
    }

    fn triples() -> Vec<Vec<Value>> {
        // 3 patients x 2 genes.
        let mut rows = Vec::new();
        for p in 0..3i64 {
            for g in 0..2i64 {
                rows.push(vec![
                    Value::Int(p),
                    Value::Int(g),
                    Value::Float((p * 10 + g) as f64),
                ]);
            }
        }
        rows
    }

    #[test]
    fn csv_export_import_round_trip() {
        let t = RowTable::from_rows(triple_schema(), triples()).unwrap();
        let text = export_csv(&t, &Budget::unlimited()).unwrap();
        assert_eq!(text.lines().count(), 6);
        let dense = import_matrix_csv(&text, &Budget::unlimited()).unwrap();
        assert_eq!((dense.rows, dense.cols), (6, 3));
        // First row: p=0 g=0 v=0.
        assert_eq!(&dense.data[0..3], &[0.0, 0.0, 0.0]);
        // Last row: p=2 g=1 v=21.
        assert_eq!(&dense.data[15..18], &[2.0, 1.0, 21.0]);
    }

    #[test]
    fn pivot_produces_dense_matrix() {
        let t = ColumnTable::from_rows(triple_schema(), triples()).unwrap();
        let dense = pivot_to_dense(&t, 0, 1, 2, &[0, 1, 2], &[0, 1], &Budget::unlimited()).unwrap();
        assert_eq!((dense.rows, dense.cols), (3, 2));
        assert_eq!(dense.data, vec![0.0, 1.0, 10.0, 11.0, 20.0, 21.0]);
    }

    #[test]
    fn pivot_respects_id_ordering_and_filtering() {
        let t = RowTable::from_rows(triple_schema(), triples()).unwrap();
        // Reversed patient order, only gene 1.
        let dense = pivot_to_dense(&t, 0, 1, 2, &[2, 0], &[1], &Budget::unlimited()).unwrap();
        assert_eq!((dense.rows, dense.cols), (2, 1));
        assert_eq!(dense.data, vec![21.0, 1.0]);
    }

    #[test]
    fn pivot_validates_schema() {
        let t = RowTable::from_rows(triple_schema(), triples()).unwrap();
        assert!(pivot_to_dense(&t, 0, 1, 0, &[0], &[0], &Budget::unlimited()).is_err());
        assert!(pivot_to_dense(&t, 2, 1, 2, &[0], &[0], &Budget::unlimited()).is_err());
        assert!(pivot_to_dense(&t, 0, 1, 9, &[0], &[0], &Budget::unlimited()).is_err());
    }

    #[test]
    fn pivot_memory_budget_enforced() {
        let t = RowTable::from_rows(triple_schema(), triples()).unwrap();
        let tight = Budget::new(None, 16, u64::MAX);
        let err = pivot_to_dense(&t, 0, 1, 2, &[0, 1, 2], &[0, 1], &tight).unwrap_err();
        assert!(err.is_infinite_result());
    }

    #[test]
    fn export_matches_between_stores() {
        let rt = RowTable::from_rows(triple_schema(), triples()).unwrap();
        let ct = ColumnTable::from_rows(triple_schema(), triples()).unwrap();
        let a = export_csv(&rt, &Budget::unlimited()).unwrap();
        let b = export_csv(&ct, &Budget::unlimited()).unwrap();
        assert_eq!(a, b);
    }
}
