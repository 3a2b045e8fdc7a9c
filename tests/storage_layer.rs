//! Storage-layer conformance tier: the unified conversion kernels must be
//! bit-identical to the representation-specific code they replaced, and
//! the allocation tracker's accounting must stay exact under concurrency
//! (many kernels charging one tracker; many concurrent cells each holding
//! their own).

use genbase_linalg::Matrix;
use genbase_relational::{
    pivot_to_dense, ColumnTable, DataType, Relation, RowTable, Schema, Value,
};
use genbase_storage::{
    batch_ranges, columnar_from_column_table, columnar_from_relation, export_csv_tracked,
    gather_chunked, pivot_csv_tracked, pivot_dense, select_tracked, triple_columns, triple_schema,
    triples_from_dense, BatchReel, Column, ColumnarTable, MemTracker, Morsel, Spool,
};
use genbase_util::Budget;
use proptest::prelude::*;
use std::sync::Arc;

/// Random triple tables: ids deliberately collide so duplicate-key
/// last-write-wins resolution is exercised.
fn triple_rows(max: usize) -> impl Strategy<Value = Vec<Vec<Value>>> {
    proptest::collection::vec(
        ((0i64..17), (0i64..13), (-1000.0f64..1000.0)),
        1..max.max(2),
    )
    .prop_map(|trips| {
        trips
            .into_iter()
            .map(|(g, p, v)| vec![Value::Int(g), Value::Int(p), Value::Float(v)])
            .collect()
    })
}

/// Triple tuples per 8 KB row-store page (three 8-byte fields).
const TRIPLES_PER_PAGE: usize = 8192 / 24;

/// The sparse id the semijoin cases mix into tables and id lists.
const FAR_ID: i64 = 1 << 40;

/// Random triple tables over 2-4 full row-store pages plus a ragged last
/// page, ids drawn from `0..width` with [`FAR_ID`] mixed in; and the width.
fn paged_triple_rows() -> impl Strategy<Value = (Vec<Vec<Value>>, i64)> {
    (2usize..5, 1usize..TRIPLES_PER_PAGE, 1i64..150).prop_flat_map(|(pages, ragged, width)| {
        let id = move |v: i64| Value::Int(if v == width { FAR_ID } else { v });
        proptest::collection::vec(
            ((0i64..width + 1), (0i64..width + 1), (-1000.0f64..1000.0)),
            pages * TRIPLES_PER_PAGE + ragged,
        )
        .prop_map(move |trips| {
            let rows = trips
                .into_iter()
                .map(|(g, p, v)| vec![id(g), id(p), Value::Float(v)]);
            (rows.collect(), width)
        })
    })
}

fn rows_of(rel: &dyn Relation) -> Vec<Vec<Value>> {
    let mut rows = Vec::new();
    rel.for_each(&mut |r: &[Value]| rows.push(r.to_vec()));
    rows
}

fn small_matrix(max_dim: usize) -> impl Strategy<Value = Matrix> {
    ((1..max_dim), (1..max_dim)).prop_flat_map(|(r, c)| {
        proptest::collection::vec(-100.0f64..100.0, r * c)
            .prop_map(move |data| Matrix::from_vec(r, c, data).unwrap())
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    // The one pivot kernel == the relational pivot it replaced, for both
    // source stores and at every thread count.
    #[test]
    fn pivot_kernel_matches_relational_pivot(rows in triple_rows(300)) {
        let tracker = MemTracker::unlimited();
        let budget = Budget::unlimited();
        let row_ids: Vec<i64> = (0..13).rev().collect();
        let col_ids: Vec<i64> = (0..17).collect();
        let rt = RowTable::from_rows(triple_schema(), rows.clone()).unwrap();
        let reference =
            pivot_to_dense(&rt, 1, 0, 2, &row_ids, &col_ids, &budget).unwrap();
        let from_rows = columnar_from_relation(&tracker, &rt).unwrap();
        let ct = ColumnTable::from_rows(triple_schema(), rows).unwrap();
        let from_cols = columnar_from_column_table(&tracker, ct).unwrap();
        for table in [&from_rows, &from_cols] {
            for threads in [1usize, 3, 8] {
                let got = pivot_dense(
                    &table.view(), (1, 0, 2), &row_ids, &col_ids, threads, &tracker, &budget,
                ).unwrap();
                prop_assert_eq!(got.data(), &reference.data[..]);
            }
        }
    }

    // Row→column materialization preserves row order and content exactly
    // (the Madlib SQL-simulation paths scan in this order, so order is
    // part of the bit-exactness contract).
    #[test]
    fn row_to_columnar_preserves_rows(rows in triple_rows(200)) {
        let tracker = MemTracker::unlimited();
        let rt = RowTable::from_rows(triple_schema(), rows.clone()).unwrap();
        let table = columnar_from_relation(&tracker, &rt).unwrap();
        let mut got = Vec::new();
        table.for_each(&mut |r: &[Value]| got.push(r.to_vec()));
        prop_assert_eq!(got, rows);
        prop_assert_eq!(tracker.current(), table.heap_bytes());
    }

    // The triple join is a semijoin probe + gather on each store: it equals
    // the general hash join against a one-column build table of the ids,
    // projected to the triple columns; the stores agree; an expired budget
    // stops either probe; and the engine's join refuses a repeated id —
    // the one input on which a semijoin and a join differ.
    #[test]
    fn semijoin_probe_and_gather_is_the_hash_join(
        (rows, width) in paged_triple_rows(),
        key in 0usize..2,
        list in 0usize..5,
        picks in proptest::collection::vec(0i64..150, 0..40),
    ) {
        use genbase::engines::sql_common::{Dim, SqlStore};
        use genbase_util::{Error, IdIndex};

        let rt = RowTable::from_rows(triple_schema(), rows.clone()).unwrap();
        let ct = ColumnTable::from_rows(triple_schema(), rows.clone()).unwrap();
        prop_assert!(!rt.n_rows().is_multiple_of(TRIPLES_PER_PAGE), "ragged last page");
        let mut ids: Vec<i64> = match list {
            0 => Vec::new(),
            1 => rows.iter().map(|r| r[key].as_int().unwrap()).collect(),
            2 => vec![-3, -1, width + 1, width + 7],
            3 => picks.into_iter().filter(|&p| p < width).collect(),
            _ => vec![0, FAR_ID],
        };
        ids.sort_unstable();
        ids.dedup();
        let index = IdIndex::new(&ids);
        let b = Budget::unlimited();

        let key_schema = Schema::new(&[("id", DataType::Int)]).unwrap();
        let keys = || ids.iter().map(|&id| vec![Value::Int(id)]);
        let row_build = RowTable::from_rows(key_schema.clone(), keys()).unwrap();
        let col_build = ColumnTable::from_rows(key_schema, keys()).unwrap();
        let row_join = rt.hash_join(key, &row_build, 0, &b).unwrap();
        let row_join = row_join.project(&[0, 1, 2], &b).unwrap();
        let col_join = ct.hash_join(key, &col_build, 0, &b).unwrap().project(&[0, 1, 2]).unwrap();

        let row_sel = rt.select_in(key, &index, &b).unwrap();
        let col_sel = ct.select_in(key, &index, &b).unwrap();
        prop_assert_eq!(&row_sel, &col_sel);
        let (row_out, col_out) = (rt.gather(&row_sel), ct.gather(&col_sel));
        prop_assert_eq!(rows_of(&row_out), row_join.scan());
        prop_assert_eq!(col_out.columns(), col_join.columns());
        prop_assert_eq!(col_out.schema(), col_join.schema());
        prop_assert_eq!(row_out.columns(), col_out.columns());
        prop_assert_eq!(row_out.schema(), col_out.schema());

        let expired = Budget::with_timeout(std::time::Duration::ZERO);
        let timed_out = |r: genbase_util::Result<Vec<u32>>| matches!(r, Err(Error::Timeout { .. }));
        prop_assert!(timed_out(rt.select_in(key, &index, &expired)));
        prop_assert!(timed_out(ct.select_in(key, &index, &expired)));

        // The engine's join over the same tables, as each store holds them.
        let meta = || Schema::new(&[("id", DataType::Int)]).unwrap();
        let stores = [
            SqlStore::Row {
                triples: rt,
                patients: RowTable::new(meta()),
                genes: RowTable::new(meta()),
                go: RowTable::new(meta()),
            },
            SqlStore::Column {
                triples: ct,
                patients: ColumnTable::from_rows(meta(), []).unwrap(),
                genes: ColumnTable::from_rows(meta(), []).unwrap(),
                go: ColumnTable::from_rows(meta(), []).unwrap(),
            },
        ];
        let dim = if key == 0 { Dim::Genes } else { Dim::Patients };
        let mut repeated = ids.clone();
        repeated.push(ids.first().copied().unwrap_or(7));
        repeated.push(7);
        for store in &stores {
            let tracker = MemTracker::unlimited();
            let (joined, _) = store.join_triples(dim, &ids, None, (0, 0), &b, &tracker).unwrap();
            prop_assert_eq!(joined.columns(), col_out.columns());
            prop_assert_eq!(tracker.current(), joined.heap_bytes());
            let tracker = MemTracker::unlimited();
            let refused = store.join_triples(dim, &repeated, None, (0, 0), &b, &tracker);
            let distinct = |e: &Error| matches!(e, Error::Invalid(m) if m.contains("distinct"));
            prop_assert!(refused.as_ref().err().is_some_and(distinct));
            prop_assert_eq!(tracker.peak(), 0, "a refused join charges nothing");
        }
    }

    // Dense → triples → dense round trip is exact, and the CSV export
    // bridge (triples → text → dense) reproduces the same matrix.
    #[test]
    fn dense_triples_and_csv_bridges_are_exact(m in small_matrix(12)) {
        let tracker = MemTracker::unlimited();
        let budget = Budget::unlimited();
        let triples = triples_from_dense(&tracker, &m, triple_schema()).unwrap();
        let patient_ids: Vec<i64> = (0..m.rows() as i64).collect();
        let gene_ids: Vec<i64> = (0..m.cols() as i64).collect();
        let back = pivot_dense(
            &triples.view(), (1, 0, 2), &patient_ids, &gene_ids, 2, &tracker, &budget,
        ).unwrap();
        prop_assert_eq!(&back, &m);
        let text = export_csv_tracked(&triples, &tracker, &budget).unwrap();
        let via_csv =
            pivot_csv_tracked(&text, &patient_ids, &gene_ids, &tracker, &budget).unwrap();
        prop_assert_eq!(&via_csv, &m);
    }

    // Chunked gather == direct dense subsetting == the tracked dense
    // select, which over a full axis is the plain `Matrix` row or column
    // select.
    #[test]
    fn chunked_gather_matches_dense_select(m in small_matrix(14)) {
        let tracker = MemTracker::unlimited();
        let budget = Budget::unlimited();
        let arr = genbase_storage::chunked_from_dense(&tracker, &m, &budget).unwrap();
        let rows: Vec<usize> = (0..m.rows()).step_by(2).collect();
        let cols: Vec<usize> = (0..m.cols()).step_by(3).collect();
        let gathered = gather_chunked(&arr, &rows, &cols, 4, &tracker, &budget).unwrap();
        let direct = m.select_rows(&rows).select_cols(&cols);
        prop_assert_eq!(&gathered, &direct);
        let all_rows: Vec<usize> = (0..m.rows()).collect();
        let all_cols: Vec<usize> = (0..m.cols()).collect();
        prop_assert_eq!(select_tracked(&tracker, &m, &rows, &cols), direct);
        prop_assert_eq!(
            select_tracked(&tracker, &m, &rows, &all_cols),
            m.select_rows(&rows)
        );
        prop_assert_eq!(
            select_tracked(&tracker, &m, &all_rows, &cols),
            m.select_cols(&cols)
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    // A cell's reel opened over the dataset's spool is the reel the cell
    // used to build for itself by carving and pushing: same batches in the
    // same order, the same ones resident, and a tracker left exactly where
    // the private build left it — at every (row count, batch size, cap),
    // including caps that let a ragged last batch back in after full ones
    // were turned away.
    #[test]
    fn a_reel_over_a_spool_is_the_reel_pushed_batch_by_batch(
        n_rows in 0usize..400,
        batch_rows in 1usize..97,
        cap in 0u64..10_000,
    ) {
        let table = ColumnarTable::from_columns(
            &MemTracker::unlimited(),
            triple_schema(),
            vec![
                Column::Ints((0..n_rows as i64).map(|i| i * 7 % 13).collect()),
                Column::Ints((0..n_rows as i64).map(|i| i * 3 % 11).collect()),
                Column::Floats((0..n_rows).map(|i| i as f64 * 0.5 - 3.0).collect()),
            ],
        ).unwrap();
        let ranges = batch_ranges(n_rows, batch_rows).unwrap();

        let pushed_tracker = MemTracker::unlimited();
        let mut pushed = BatchReel::new(&pushed_tracker, triple_schema(), cap, None);
        let mut spool = Spool::create(triple_schema(), None).unwrap();
        for &(start, end) in &ranges {
            let morsel = Morsel::carve(&pushed_tracker, &table.view(), start, end).unwrap();
            spool.append(morsel.columns()).unwrap();
            pushed.push(morsel).unwrap();
        }
        let opened_tracker = MemTracker::unlimited();
        let opened = BatchReel::open(&opened_tracker, Arc::new(spool), cap).unwrap();

        prop_assert_eq!(opened.n_batches(), pushed.n_batches());
        prop_assert_eq!(opened.total_rows(), pushed.total_rows());
        prop_assert_eq!(opened.resident_bytes(), pushed.resident_bytes());
        prop_assert_eq!(opened.spill_bytes(), pushed.spill_bytes());
        let state = |t: &MemTracker| (t.current(), t.peak(), t.batches(), t.spill_bytes());
        prop_assert_eq!(state(&opened_tracker), state(&pushed_tracker));

        let rows_of = |reel: &BatchReel| {
            let mut rows = Vec::new();
            reel.replay(|m| {
                let (g, p, v) = (m.int_col(0)?, m.int_col(1)?, m.float_col(2)?);
                rows.extend((0..m.n_rows()).map(|i| (g[i], p[i], v[i].to_bits())));
                Ok(())
            }).unwrap();
            rows
        };
        let replayed = rows_of(&opened);
        prop_assert_eq!(replayed.len(), n_rows);
        prop_assert_eq!(replayed, rows_of(&pushed));
        // Replaying charged and released the spilled batches alike.
        prop_assert_eq!(state(&opened_tracker), state(&pushed_tracker));

        drop(opened);
        drop(pushed);
        prop_assert_eq!(opened_tracker.current(), 0);
        prop_assert_eq!(pushed_tracker.current(), 0);
    }
}

/// A column of either type with `len` values that depend on `salt`.
fn column(is_int: bool, len: usize, salt: usize) -> Column {
    if is_int {
        Column::Ints((0..len).map(|i| (i * 7 + salt) as i64 % 23).collect())
    } else {
        Column::Floats((0..len).map(|i| (i + salt) as f64 * 0.25).collect())
    }
}

/// Extend each column of `head` with the matching column of `tail`.
fn concat(head: &mut [Column], tail: &[Column]) {
    for pair in head.iter_mut().zip(tail) {
        match pair {
            (Column::Ints(h), Column::Ints(t)) => h.extend_from_slice(t),
            (Column::Floats(h), Column::Floats(t)) => h.extend_from_slice(t),
            (h, t) => panic!("column types differ: {h:?} / {t:?}"),
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    // One constructor validates a columnar table. The tracked table's
    // constructor accepts and refuses what `ColumnTable::from_columns` does,
    // in the same words; a refusal charges nothing, and a table's drop
    // releases exactly its heap bytes.
    #[test]
    fn tracked_and_plain_columnar_constructors_agree(
        schema_types in proptest::collection::vec(proptest::bool::ANY, 0..4),
        cols in proptest::collection::vec((proptest::bool::ANY, 0usize..4), 0..5),
        // Mostly derive the columns from the schema, so that accepted
        // shapes are as common as refused ones.
        conform in 0usize..3,
    ) {
        // The storage layer's column type *is* the relational one.
        let _: Column = genbase_relational::ColumnData::Ints(vec![]);

        let names = ["c0", "c1", "c2", "c3"];
        let type_of = |is_int: bool| if is_int { DataType::Int } else { DataType::Float };
        let fields: Vec<(&str, DataType)> =
            names.iter().copied().zip(schema_types.iter().map(|&t| type_of(t))).collect();
        let schema = Schema::new(&fields).unwrap();
        let cols: Vec<Column> = if conform > 0 {
            let len = cols.first().map_or(3, |c| c.1);
            schema_types.iter().enumerate().map(|(i, &t)| column(t, len, i)).collect()
        } else {
            cols.iter().enumerate().map(|(i, &(t, len))| column(t, len, i)).collect()
        };
        let bytes: u64 = cols.iter().map(Column::heap_bytes).sum();

        let plain = ColumnTable::from_columns(schema.clone(), cols.clone());
        let charging = MemTracker::unlimited();
        let charged = ColumnarTable::from_columns(&charging, schema, cols.clone());

        match (plain, charged) {
            (Ok(plain), Ok(charged)) => {
                prop_assert_eq!(charging.current(), bytes);
                prop_assert_eq!(charged.columns(), &cols[..]);
                prop_assert_eq!(charged.n_rows(), plain.n_rows());
                prop_assert_eq!(charged.heap_bytes(), bytes);
                drop(charged);
                prop_assert_eq!(charging.current(), 0);
            }
            (Err(plain), Err(charged)) => {
                prop_assert_eq!(plain.to_string(), charged.to_string());
                prop_assert_eq!((charging.current(), charging.peak()), (0, 0));
            }
            (plain, charged) => prop_assert!(
                false,
                "the constructors disagree: {:?} / {:?}",
                plain.map(|_| ()), charged.map(|_| ())
            ),
        }
    }

    // `gather` and `slice_range` on the one column type against a plain
    // `Vec`.
    #[test]
    fn column_kernels_match_a_vec_model(
        values in proptest::collection::vec(-1000i64..1000, 0..60),
        picks in proptest::collection::vec(0usize..60, 0..40),
        cut in (0usize..61, 0usize..61),
        is_int in proptest::bool::ANY,
    ) {
        let n = values.len();
        let as_column = |model: &[i64]| if is_int {
            Column::Ints(model.to_vec())
        } else {
            Column::Floats(model.iter().map(|&v| v as f64 * 0.5).collect())
        };
        let col = as_column(&values);
        prop_assert_eq!(col.heap_bytes(), 8 * n as u64);

        let sel: Vec<u32> = picks.iter().filter(|&&i| i < n).map(|&i| i as u32).collect();
        let picked: Vec<i64> = sel.iter().map(|&i| values[i as usize]).collect();
        prop_assert_eq!(col.gather(&sel), as_column(&picked));

        let (start, end) = (cut.0.min(cut.1).min(n), cut.0.max(cut.1).min(n));
        prop_assert_eq!(col.slice_range(start, end), as_column(&values[start..end]));
    }

    // The triple layout is stated once: `triple_columns` over a band of
    // patient rows is `triples_from_dense` of that band (with the band's own
    // patient ids), and any split of a cell range concatenates to the whole.
    #[test]
    fn triple_columns_of_a_band_are_the_bands_triples(
        m in small_matrix(9),
        band in (0usize..9, 0usize..9),
        split in 0usize..81,
    ) {
        let (rows, genes) = m.shape();
        let (a, b) = (band.0.min(band.1).min(rows), band.0.max(band.1).min(rows));
        let cells = a * genes..b * genes;
        let cols = triple_columns(&m, cells.clone());

        let band_rows: Vec<usize> = (a..b).collect();
        let tracker = MemTracker::unlimited();
        let of_band = triples_from_dense(&tracker, &m.select_rows(&band_rows), triple_schema())
            .unwrap();
        prop_assert_eq!(cols[0].ints().unwrap(), of_band.int_col(0).unwrap());
        let local: Vec<i64> = cols[1].ints().unwrap().iter().map(|&p| p - a as i64).collect();
        prop_assert_eq!(&local[..], of_band.int_col(1).unwrap());
        prop_assert_eq!(cols[2].floats().unwrap(), of_band.float_col(2).unwrap());

        let mid = cells.start + split % (cells.len() + 1);
        let mut glued = triple_columns(&m, cells.start..mid);
        concat(&mut glued, &triple_columns(&m, mid..cells.end));
        prop_assert_eq!(glued, cols);
    }
}

/// On the generator's Small dataset the one layout is what every consumer
/// holds: the row store's insert order, the column store's base table, and
/// the streaming spool's batches, concatenated.
#[test]
fn every_triple_representation_is_triple_columns() {
    use genbase::engine::StreamConfig;
    use genbase::engines::{loaded::LoadedTables, sql_common::SqlStore, sql_common::StoreKind};
    use genbase_datagen::{generate, GeneratorConfig, SizeClass, SizeSpec};
    let data = generate(&GeneratorConfig::new(SizeSpec::scaled(
        SizeClass::Small,
        0.012,
    )))
    .unwrap();
    let cells = data.n_patients() * data.n_genes();
    let want = triple_columns(&data.expression, 0..cells);
    let want_rows = ColumnTable::from_columns(triple_schema(), want.clone()).unwrap();
    let mut want_scan = Vec::new();
    want_rows.for_each(&mut |row: &[Value]| want_scan.push(row.to_vec()));

    let SqlStore::Row { triples, .. } = SqlStore::ingest(StoreKind::Row, &data, true).unwrap()
    else {
        panic!("asked for the row store");
    };
    assert_eq!(triples.scan(), want_scan, "row-store insert order");
    let SqlStore::Column { triples, .. } =
        SqlStore::ingest(StoreKind::Column, &data, true).unwrap()
    else {
        panic!("asked for the column store");
    };
    assert_eq!(triples.columns(), &want[..], "column-store base table");

    let cfg = StreamConfig {
        batch_rows: 64,
        ..StreamConfig::default()
    };
    let spool = LoadedTables::default().spool(&cfg, &data).unwrap();
    let reel = BatchReel::open(&MemTracker::unlimited(), spool, 0).unwrap();
    assert_eq!(reel.n_batches(), cells.div_ceil(64));
    let mut spooled = triple_columns(&data.expression, 0..0);
    reel.replay(|m| {
        concat(&mut spooled, m.columns());
        Ok(())
    })
    .unwrap();
    assert_eq!(spooled, want, "spooled batches, concatenated");
}

/// The export bridge on the generator's own Small dataset: every field of
/// the exported triples — two dense integer ids (the parser's integer fast
/// path) and a full-precision value — re-parses to the bits the plain
/// `split`/`trim`/`str::parse::<f64>` loop gives, and the re-pivoted matrix
/// is the expression matrix.
#[test]
fn exported_small_triples_reparse_bit_for_bit() {
    use genbase_datagen::{generate, GeneratorConfig, SizeSpec};
    let data = generate(&GeneratorConfig::new(SizeSpec::scaled(
        genbase_datagen::SizeClass::Small,
        0.012,
    )))
    .unwrap();
    let (tracker, budget) = (MemTracker::unlimited(), Budget::unlimited());
    let triples = triples_from_dense(&tracker, &data.expression, triple_schema()).unwrap();
    let text = export_csv_tracked(&triples, &tracker, &budget).unwrap();
    let want: Vec<u64> = text
        .lines()
        .flat_map(|line| line.split(','))
        .map(|field| field.trim().parse::<f64>().unwrap().to_bits())
        .collect();
    let (got, rows, cols) = genbase_util::csv::parse_matrix(&text).unwrap();
    assert_eq!((rows, cols), (data.n_patients() * data.n_genes(), 3));
    assert_eq!(got.iter().map(|v| v.to_bits()).collect::<Vec<_>>(), want);
    let patient_ids: Vec<i64> = (0..data.n_patients() as i64).collect();
    let gene_ids: Vec<i64> = (0..data.n_genes() as i64).collect();
    let back = pivot_csv_tracked(&text, &patient_ids, &gene_ids, &tracker, &budget).unwrap();
    assert_eq!(back, data.expression);
}

/// Tracker counters are exact when hammered from many threads — the shape
/// of many kernels charging one cell's tracker concurrently.
#[test]
fn tracker_counts_exact_under_concurrency() {
    let tracker = MemTracker::unlimited();
    let threads = 8;
    let iters = 2_000u64;
    std::thread::scope(|scope| {
        for t in 0..threads {
            let tracker = tracker.clone();
            scope.spawn(move || {
                for i in 0..iters {
                    let bytes = (t * 131 + i % 97) + 1;
                    tracker.charge(bytes).unwrap();
                    tracker.note_input(bytes);
                    tracker.note_output(bytes * 2, 1);
                    tracker.release(bytes);
                }
            });
        }
    });
    let expected: u64 = (0..threads)
        .map(|t| (0..iters).map(|i| (t * 131 + i % 97) + 1).sum::<u64>())
        .sum();
    assert_eq!(tracker.current(), 0, "all charges released");
    let scope = tracker.op_begin();
    let delta = tracker.op_delta(scope);
    assert_eq!(delta.bytes_in, 0, "op scope excludes earlier notes");
    // Cumulative counters: re-derive via a fresh scope over the totals.
    let fresh = MemTracker::unlimited();
    let s = fresh.op_begin();
    fresh.note_input(expected);
    let d = fresh.op_delta(s);
    assert_eq!(d.bytes_in, expected);
    assert!(tracker.peak() > 0);
}

/// Concurrent *cells* — one tracker each, charged from parallel threads —
/// never bleed into each other, and a per-cell limit fails exactly the
/// cell that exceeds it.
#[test]
fn concurrent_cells_account_independently() {
    let cells: Vec<MemTracker> = (0..6).map(|_| MemTracker::new(Some(10_000))).collect();
    std::thread::scope(|scope| {
        for (i, cell) in cells.iter().enumerate() {
            let cell = cell.clone();
            scope.spawn(move || {
                let bytes = (i as u64 + 1) * 1_000;
                cell.charge(bytes).unwrap();
                assert!(cell.charge(10_000).is_err(), "cell {i} over budget");
                cell.note_output(bytes, i as u64);
            });
        }
    });
    for (i, cell) in cells.iter().enumerate() {
        assert_eq!(cell.current(), (i as u64 + 1) * 1_000, "cell {i} isolated");
    }
}

/// Pre-memory-dimension artifacts — trace ops without the `mem_*` columns,
/// grids without traces — must still load (the wire/file compatibility
/// contract).
#[test]
fn old_memoryless_artifacts_still_load() {
    use genbase::plan::OpTrace;
    use genbase::sched::ReportGrid;
    use genbase_util::Json;

    // A trace op exactly as PR 4 serialized it: no mem_in/mem_out/
    // mem_peak/rows keys.
    let old_op = Json::parse(
        r#"{"op":"restructure","phase":"dm","label":"pivot","wall":0.5,"sim_nanos":42,"model":0.0,"bytes":7}"#,
    )
    .unwrap();
    let op = OpTrace::from_json(&old_op).unwrap();
    assert_eq!(op.cost.sim_nanos, 42);
    assert_eq!(op.cost.bytes_in, 0);
    assert_eq!(op.cost.bytes_out, 0);
    assert_eq!(op.cost.peak_alloc_bytes, 0);
    assert_eq!(op.cost.rows_materialized, 0);

    // A PR 3-era grid cell: no trace at all.
    let old_grid = format!(
        "{{\"schema\":\"{}\",\"cells\":{{\
         \"fig1/covariance/small/n1/SciDB\":\
         {{\"status\":\"completed\",\"dm\":[0.5,0.25,10],\"an\":[1.0,0.0,0]}}}}}}",
        genbase::sched::GRID_SCHEMA
    );
    let grid = ReportGrid::from_json(&old_grid).unwrap();
    assert_eq!(grid.len(), 1);
}
