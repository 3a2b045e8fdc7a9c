//! The conversion kernels: dense ↔ triples ↔ chunked, row ↔ column.
//!
//! These are the restructuring paths GenBase measures — implemented once,
//! instrumented against the [`MemTracker`] (bytes read, bytes/rows
//! materialized), and parallelized on the shared `genbase_util::runtime`
//! pool where the operation admits a deterministic parallel schedule.
//! Each kernel is bit-identical to the representation-specific code it
//! replaced (pinned by `tests/storage_layer.rs`).
//!
//! Accounting convention: constructors ([`ColumnarTable::from_columns`],
//! [`crate::DenseHandle::new`]) *charge* live bytes; kernels *note* the bytes they
//! read and the bytes/rows they materialize. The plan tracer's operator
//! scopes turn those notes into per-op `bytes_in`/`bytes_out`/`rows`
//! columns. [`genbase_util::Budget`] stays what it always was — the
//! *simulated machine's* memory semantics (R's heap, the paper's 48 GB
//! boxes) — while the tracker observes the storage layer's actual working
//! sets and enforces the per-cell `--mem-budget`.

use crate::table::{Column, ColumnarTable, TableView};
use crate::tracker::MemTracker;
use genbase_array::Array2D;
use genbase_linalg::Matrix;
use genbase_relational::{ColumnTable, DataType, Relation, Schema, Value};
use genbase_util::{csv, runtime, Budget, Error, IdIndex, Result};

/// Triples per parallel index-computation task in [`pivot_dense`]. Fixed
/// (not derived from the thread count) so task boundaries — and with them
/// any duplicate-key resolution — are identical at every thread count.
const PIVOT_TASK: usize = 64 * 1024;

/// Row → column pivot: materialize any [`Relation`] (row store output,
/// column store output, a Hive split) as a [`ColumnarTable`], preserving
/// row order. This is the unified replacement for the per-engine
/// "TripleSet" representations.
pub fn columnar_from_relation(tracker: &MemTracker, rel: &dyn Relation) -> Result<ColumnarTable> {
    let schema = rel.schema().clone();
    let n_rows = rel.n_rows();
    tracker.note_input((n_rows * schema.arity() * 8) as u64);
    let mut cols: Vec<Column> = schema
        .fields()
        .iter()
        .map(|&(_, t)| Column::with_capacity(t, n_rows))
        .collect();
    rel.for_each(&mut |row: &[Value]| {
        for (c, &v) in cols.iter_mut().zip(row) {
            c.push(v);
        }
    });
    let table = ColumnarTable::from_columns(tracker, schema, cols)?;
    tracker.note_output(table.heap_bytes(), table.n_rows() as u64);
    Ok(table)
}

/// Column → column adoption: take a relational [`ColumnTable`]'s columns
/// into the storage layer without copying (column moves). The
/// materialization happened in whatever operator produced the table, so
/// the bytes are noted as that operator's output.
pub fn columnar_from_column_table(
    tracker: &MemTracker,
    table: ColumnTable,
) -> Result<ColumnarTable> {
    let out = ColumnarTable::charged(tracker, table)?;
    tracker.note_output(out.heap_bytes(), out.n_rows() as u64);
    Ok(out)
}

/// Schema of the microarray in its relational form, one row per matrix cell.
pub fn triple_schema() -> Schema {
    Schema::new(&[
        ("gene_id", DataType::Int),
        ("patient_id", DataType::Int),
        ("value", DataType::Float),
    ])
    .expect("static schema")
}

/// The [`triple_schema`] columns of a dense `patients x genes` matrix for a
/// range of its cells in row-major order — patient-major, gene-minor: the
/// one order every triple representation of the microarray is laid out in
/// (both SQL stores' base tables, the streaming spool's batches, a node's
/// columnar band). A band of patient rows `a..b` is the cells
/// `a * genes..b * genes`.
///
/// # Panics
/// If `cells` is inverted or runs past `expression`'s last cell.
pub fn triple_columns(expression: &Matrix, cells: std::ops::Range<usize>) -> Vec<Column> {
    let values = expression.data()[cells.clone()].to_vec();
    let n_genes = expression.cols();
    let mut genes = Vec::with_capacity(cells.len());
    let mut patients = Vec::with_capacity(cells.len());
    let mut at = cells.start;
    while at < cells.end {
        // The rest of patient `at / n_genes`'s row, or of the range.
        let first = at % n_genes;
        let last = (first + cells.end - at).min(n_genes);
        genes.extend(first as i64..last as i64);
        patients.resize(genes.len(), (at / n_genes) as i64);
        at += last - first;
    }
    vec![
        Column::Ints(genes),
        Column::Ints(patients),
        Column::Floats(values),
    ]
}

/// Dense → triples: explode a dense `patients x genes` matrix into a
/// `(gene_id, patient_id, value)` table (the relational engines' microarray
/// representation). `schema` may rename the [`triple_schema`] columns, not
/// retype them.
pub fn triples_from_dense(
    tracker: &MemTracker,
    dense: &Matrix,
    schema: Schema,
) -> Result<ColumnarTable> {
    tracker.note_input(dense.heap_bytes());
    let cols = triple_columns(dense, 0..dense.rows() * dense.cols());
    let table = ColumnarTable::from_columns(tracker, schema, cols)?;
    tracker.note_output(table.heap_bytes(), table.n_rows() as u64);
    Ok(table)
}

/// Triples → dense: pivot a `(row_id, col_id, value)` view into a dense
/// matrix with `row_ids`/`col_ids` giving the output ordering. Ids absent
/// from the maps are ignored; unassigned cells stay 0.0; duplicate
/// assignments keep the last value in view order — identical semantics to
/// the relational `pivot_to_dense` this replaces.
///
/// The expensive part — resolving every triple's ids to output coordinates —
/// runs in parallel over fixed-size triple ranges; the final scatter is a
/// single serial pass in view order, so results are bit-identical at every
/// thread count.
pub fn pivot_dense(
    view: &TableView<'_>,
    (row_col, col_col, val_col): (usize, usize, usize),
    row_ids: &[i64],
    col_ids: &[i64],
    threads: usize,
    tracker: &MemTracker,
    budget: &Budget,
) -> Result<Matrix> {
    budget.check("pivot")?;
    tracker.note_input(view.span_bytes());
    let rows = row_ids.len();
    let cols = col_ids.len();
    let (row_index, col_index) = (IdIndex::new(row_ids), IdIndex::new(col_ids));
    let rv = view.int_col(row_col)?;
    let cv = view.int_col(col_col)?;
    let vv = view.float_col(val_col)?;
    let n = rv.len();

    budget.alloc((rows * cols * 8) as u64, (rows * cols) as u64)?;
    let mut data = vec![0.0; rows * cols];
    let tasks = n.div_ceil(PIVOT_TASK).max(1);
    if threads <= 1 || tasks == 1 {
        // Serial path (the one-process DBMS pivots): scatter directly in
        // view order — duplicates keep the last value — with no
        // intermediate buffer, exactly like the relational pivot this
        // kernel replaced.
        for i in 0..n {
            if let (Some(ri), Some(ci)) = (row_index.get(rv[i]), col_index.get(cv[i])) {
                data[ri * cols + ci] = vv[i];
            }
        }
    } else {
        // Parallel path, two passes. Pass 1 computes per-triple output
        // offsets (u64::MAX = filtered out) over fixed-size ranges — the
        // id lookups are the expensive part. The transient index buffer
        // is charged against both accountants for its lifetime. Pass 2 is
        // a single serial scatter in view order, so duplicate resolution —
        // and therefore the result — is identical to the serial path at
        // every thread count.
        let index_bytes = (n * 8) as u64;
        budget.alloc(index_bytes, n as u64)?;
        tracker.charge(index_bytes)?;
        let mut targets = vec![u64::MAX; n];
        {
            let slots = runtime::SharedSlice::new(&mut targets);
            runtime::parallel_for(threads, tasks, |t| {
                let lo = t * PIVOT_TASK;
                let hi = (lo + PIVOT_TASK).min(n);
                // SAFETY: tasks cover disjoint `lo..hi` ranges.
                let out = unsafe { slots.slice_mut(lo, hi - lo) };
                for (k, slot) in out.iter_mut().enumerate() {
                    let i = lo + k;
                    if let (Some(ri), Some(ci)) = (row_index.get(rv[i]), col_index.get(cv[i])) {
                        *slot = (ri * cols + ci) as u64;
                    }
                }
            });
        }
        for (i, &t) in targets.iter().enumerate() {
            if t != u64::MAX {
                data[t as usize] = vv[i];
            }
        }
        drop(targets);
        budget.free(index_bytes);
        tracker.release(index_bytes);
    }
    budget.free((rows * cols * 8) as u64);
    let mat = Matrix::from_vec(rows, cols, data)?;
    tracker.note_output(mat.heap_bytes(), mat.rows() as u64);
    Ok(mat)
}

/// Dense → chunked: ingest a matrix into the chunked array representation,
/// charging the tracker for the resident chunk storage (released when the
/// run's tracker drops with the store).
pub fn chunked_from_dense(
    tracker: &MemTracker,
    dense: &Matrix,
    budget: &Budget,
) -> Result<Array2D> {
    tracker.note_input(dense.heap_bytes());
    let arr = Array2D::from_matrix(dense, budget)?;
    let bytes = (arr.rows() * arr.cols() * 8) as u64;
    tracker.charge(bytes)?;
    tracker.note_output(bytes, arr.rows() as u64);
    Ok(arr)
}

/// Chunked → dense: gather a coordinate-selected submatrix out of the
/// chunked store (the SciDB "restructure"), delegating to the chunk-walking
/// gather so results stay bit-identical to the pre-storage-layer path.
pub fn gather_chunked(
    arr: &Array2D,
    rows: &[usize],
    cols: &[usize],
    threads: usize,
    tracker: &MemTracker,
    budget: &Budget,
) -> Result<Matrix> {
    tracker.note_input((rows.len() * cols.len() * 8) as u64);
    let mat = arr.select_to_matrix_par(rows, cols, threads, budget)?;
    tracker.note_output(mat.heap_bytes(), mat.rows() as u64);
    Ok(mat)
}

/// Dense submatrix with accounting: R's `matrix[rows, cols]`, rows and
/// columns in the given order (pass the full axis for `matrix[rows, ]` or
/// `matrix[, cols]`).
///
/// # Panics
/// If an index is out of range.
pub fn select_tracked(
    tracker: &MemTracker,
    mat: &Matrix,
    rows: &[usize],
    cols: &[usize],
) -> Matrix {
    let mut data = Vec::with_capacity(rows.len() * cols.len());
    for &r in rows {
        let row = mat.row(r);
        data.extend(cols.iter().map(|&c| row[c]));
    }
    let sub = Matrix::from_vec(rows.len(), cols.len(), data).expect("rows x cols values");
    tracker.note_input(sub.heap_bytes());
    tracker.note_output(sub.heap_bytes(), sub.rows() as u64);
    sub
}

/// Columnar → CSV text: the "export data from the DBMS" half of the
/// paper's copy-and-reformat bridge, with the serialized bytes accounted.
pub fn export_csv_tracked(
    rel: &dyn Relation,
    tracker: &MemTracker,
    budget: &Budget,
) -> Result<String> {
    tracker.note_input((rel.n_rows() * rel.schema().arity() * 8) as u64);
    let text = genbase_relational::export_csv(rel, budget)?;
    tracker.note_output(text.len() as u64, rel.n_rows() as u64);
    Ok(text)
}

/// `read.csv` the export bridge's `(gene_id, patient_id, value)` rows, every
/// field parsed as a double, scattering each into `mat` as it parses: rows
/// by patient, columns by gene; ids outside the indexes are skipped,
/// duplicates keep the last value.
fn scatter_rows(text: &str, rows: &IdIndex, cols: &IdIndex, mat: &mut Matrix) -> Result<()> {
    let (n_rows, width) = csv::for_each_row(text, |row| {
        if let [g, p, v] = *row {
            if let (Some(ri), Some(ci)) = (rows.get(p as i64), cols.get(g as i64)) {
                mat.set(ri, ci, v);
            }
        }
    })?;
    if width != 3 && n_rows != 0 {
        return Err(Error::invalid("exported triples must have 3 columns"));
    }
    Ok(())
}

/// The R half of the export bridge on one chunk of CSV text: re-parse it
/// and scatter it into an already allocated `mat` (the streaming paths'
/// per-batch form of [`pivot_csv_tracked`]).
pub fn scatter_csv_triples(
    text: &str,
    row_index: &IdIndex,
    col_index: &IdIndex,
    r_budget: &Budget,
    mat: &mut Matrix,
) -> Result<()> {
    r_budget.check("csv import")?;
    scatter_rows(text, row_index, col_index, mat)
}

/// CSV text → dense: the "re-parse and pivot in R" half of the export
/// bridge (single-threaded, against the R memory budget — R is the
/// simulated machine here, so `r_budget` keeps its pre-storage-layer
/// accounting bit-for-bit).
pub fn pivot_csv_tracked(
    text: &str,
    row_ids: &[i64],
    col_ids: &[i64],
    tracker: &MemTracker,
    r_budget: &Budget,
) -> Result<Matrix> {
    tracker.note_input(text.len() as u64);
    r_budget.check("csv import")?;
    let (row_index, col_index) = (IdIndex::new(row_ids), IdIndex::new(col_ids));
    let mut mat = Matrix::zeros_budgeted(row_ids.len(), col_ids.len(), r_budget)?;
    scatter_rows(text, &row_index, &col_index, &mut mat)?;
    r_budget.free(mat.heap_bytes());
    tracker.note_output(mat.heap_bytes(), mat.rows() as u64);
    Ok(mat)
}

#[cfg(test)]
mod tests {
    use super::*;
    use genbase_relational::RowTable;

    fn dense() -> Matrix {
        Matrix::from_fn(5, 7, |r, c| (r * 7 + c) as f64 * 0.5)
    }

    #[test]
    fn dense_triples_round_trip() {
        let t = MemTracker::unlimited();
        let m = dense();
        let triples = triples_from_dense(&t, &m, triple_schema()).unwrap();
        assert_eq!(triples.n_rows(), 35);
        let patient_ids: Vec<i64> = (0..5).collect();
        let gene_ids: Vec<i64> = (0..7).collect();
        let back = pivot_dense(
            &triples.view(),
            (1, 0, 2),
            &patient_ids,
            &gene_ids,
            2,
            &t,
            &Budget::unlimited(),
        )
        .unwrap();
        assert_eq!(back, m, "dense -> triples -> dense is exact");
    }

    #[test]
    fn pivot_matches_relational_reference_any_thread_count() {
        let t = MemTracker::unlimited();
        let rows: Vec<Vec<Value>> = (0..200)
            .map(|i| {
                vec![
                    Value::Int((i * 7) % 13),
                    Value::Int((i * 3) % 11),
                    Value::Float(i as f64 * 0.25),
                ]
            })
            .collect();
        let rt = RowTable::from_rows(triple_schema(), rows).unwrap();
        let table = columnar_from_relation(&t, &rt).unwrap();
        let row_ids: Vec<i64> = (0..11).rev().collect();
        let col_ids: Vec<i64> = (0..13).collect();
        let reference = genbase_relational::pivot_to_dense(
            &rt,
            1,
            0,
            2,
            &row_ids,
            &col_ids,
            &Budget::unlimited(),
        )
        .unwrap();
        for threads in [1usize, 2, 8] {
            let got = pivot_dense(
                &table.view(),
                (1, 0, 2),
                &row_ids,
                &col_ids,
                threads,
                &t,
                &Budget::unlimited(),
            )
            .unwrap();
            assert_eq!(got.data(), &reference.data[..], "threads = {threads}");
        }
    }

    #[test]
    fn row_to_columnar_preserves_order_and_accounts() {
        let t = MemTracker::unlimited();
        let rows: Vec<Vec<Value>> = (0..16)
            .map(|i| vec![Value::Int(i % 3), Value::Int(i), Value::Float(i as f64)])
            .collect();
        let rt = RowTable::from_rows(triple_schema(), rows.clone()).unwrap();
        let table = columnar_from_relation(&t, &rt).unwrap();
        let mut got = Vec::new();
        table.for_each(&mut |r: &[Value]| got.push(r.to_vec()));
        assert_eq!(got, rows, "row order preserved");
        assert_eq!(t.current(), table.heap_bytes());
    }

    #[test]
    fn chunked_round_trip_and_export_bridge() {
        let t = MemTracker::unlimited();
        let m = dense();
        let arr = chunked_from_dense(&t, &m, &Budget::unlimited()).unwrap();
        let rows: Vec<usize> = (0..5).collect();
        let cols: Vec<usize> = vec![0, 2, 4];
        let got = gather_chunked(&arr, &rows, &cols, 2, &t, &Budget::unlimited()).unwrap();
        assert_eq!(got, m.select_cols(&cols));

        let triples = triples_from_dense(&t, &m, triple_schema()).unwrap();
        let text = export_csv_tracked(&triples, &t, &Budget::unlimited()).unwrap();
        let patient_ids: Vec<i64> = (0..5).collect();
        let gene_ids: Vec<i64> = (0..7).collect();
        let back =
            pivot_csv_tracked(&text, &patient_ids, &gene_ids, &t, &Budget::unlimited()).unwrap();
        assert_eq!(back, m, "CSV bridge round trip is exact");
    }
}
