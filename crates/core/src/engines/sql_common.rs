//! Shared machinery for the SQL-engine configurations (Postgres-like row
//! store and the commercial-style column store, with their R/Madlib/UDF
//! analytics bridges).
//!
//! Each query's data-management pipeline follows the workflow in §3.2 of
//! the paper: filter metadata → join with the microarray triples → project →
//! restructure as a matrix. The *bridge* decides how the restructured data
//! reaches the analytics runtime:
//!
//! - [`Bridge::ExportToR`]: serialize the filtered triples to CSV text and
//!   re-parse them in "R" (the paper's copy-and-reformat path; counted as
//!   data management);
//! - [`Bridge::InProcess`]: direct in-database pivot handed to a UDF (the
//!   column store + UDFs configuration);
//! - [`Bridge::InDatabase`]: Madlib-style — regression as a streaming
//!   normal-equation aggregate, covariance/SVD *simulated in SQL* over the
//!   triple representation (slow by construction, as the paper observes).

use super::scidb::ArrayData;
use crate::analytics;
use crate::engine::{ExecContext, StreamConfig};
use crate::plan::{self, Kernel, LogicalOp, OpCost, OpKind, Phase, PhysicalBackend, Tracer};
use crate::query::{Query, QueryOutput, QueryParams};
use crate::report::QueryReport;
use genbase_datagen::Dataset;
use genbase_linalg::{lanczos_topk, ExecOpts, LinearOp, Matrix, RegressionMethod};
use genbase_relational::{
    ColumnData, ColumnTable, DataType, Pred, Relation, RowTable, Schema, Value,
};
use genbase_storage::{
    self as storage, BatchReel, CachePin, CacheScope, CacheValue, Column, ColumnarTable,
    DenseHandle, MemTracker, Morsel, Spool,
};
use genbase_util::{lock, Budget, Error, IdIndex, Result};
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, OnceLock};

/// Which store backs the engine.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StoreKind {
    /// Paged row store (Postgres).
    Row,
    /// Typed column store.
    Column,
}

/// How the analytics runtime receives the data.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Bridge {
    /// CSV export + re-parse into a single-threaded R runtime.
    ExportToR,
    /// In-process pivot handed to an R UDF (no reformat, small call
    /// overhead, still single-threaded R).
    InProcess,
    /// Madlib: in-database aggregates and SQL-simulated matrix math.
    InDatabase,
}

/// Patient-table column names, in schema order (predicate labels).
pub const PATIENT_COLS: [&str; 6] = [
    "patient_id",
    "age",
    "gender",
    "zipcode",
    "disease_id",
    "drug_response",
];

/// Gene-table column names, in schema order (predicate labels).
pub const GENE_COLS: [&str; 5] = ["gene_id", "target", "position", "length", "function"];

fn triple_schema() -> Schema {
    Schema::new(&[
        ("gene_id", DataType::Int),
        ("patient_id", DataType::Int),
        ("value", DataType::Float),
    ])
    .expect("static schema")
}

fn patient_schema() -> Schema {
    Schema::new(&[
        ("patient_id", DataType::Int),
        ("age", DataType::Int),
        ("gender", DataType::Int),
        ("zipcode", DataType::Int),
        ("disease_id", DataType::Int),
        ("drug_response", DataType::Float),
    ])
    .expect("static schema")
}

fn gene_schema() -> Schema {
    Schema::new(&[
        ("gene_id", DataType::Int),
        ("target", DataType::Int),
        ("position", DataType::Int),
        ("length", DataType::Int),
        ("function", DataType::Int),
    ])
    .expect("static schema")
}

fn go_schema() -> Schema {
    Schema::new(&[("gene_id", DataType::Int), ("go_id", DataType::Int)]).expect("static schema")
}

/// Either store behind one dispatching interface. Only the operations the
/// five queries need are exposed.
pub enum SqlStore {
    /// Row-store tables.
    Row {
        /// Microarray triples.
        triples: RowTable,
        /// Patient metadata.
        patients: RowTable,
        /// Gene metadata.
        genes: RowTable,
        /// GO membership pairs.
        go: RowTable,
    },
    /// Column-store tables.
    Column {
        /// Microarray triples.
        triples: ColumnTable,
        /// Patient metadata.
        patients: ColumnTable,
        /// Gene metadata.
        genes: ColumnTable,
        /// GO membership pairs.
        go: ColumnTable,
    },
}

/// A filtered/joined triple working set. Regardless of which store
/// produced it, it is held in the unified storage layer's columnar form —
/// the row-store path pays an instrumented row→column pivot to get there,
/// the column-store path adopts its columns without copying. Downstream
/// consumers (pivot, export, the Madlib SQL-simulation paths) are written
/// once against this one representation.
pub type TripleSet = ColumnarTable;

impl SqlStore {
    /// Load a dataset into the store. The paper times queries against
    /// loaded data, and so does the wall clock here: [`LoadedTables`] is
    /// the only caller, once per dataset and store kind, and every cell of
    /// that dataset borrows the result.
    pub fn ingest(kind: StoreKind, data: &Dataset) -> Result<SqlStore> {
        Self::ingest_inner(kind, data, true)
    }

    /// Load only the metadata tables (streaming ingest: the microarray
    /// triples live in a [`Spool`] instead of a base table; the store
    /// keeps empty triple tables so every metadata path is unchanged).
    /// Loaded once per dataset like [`SqlStore::ingest`].
    pub fn ingest_metadata(kind: StoreKind, data: &Dataset) -> Result<SqlStore> {
        Self::ingest_inner(kind, data, false)
    }

    fn ingest_inner(kind: StoreKind, data: &Dataset, with_triples: bool) -> Result<SqlStore> {
        match kind {
            StoreKind::Row => {
                let mut triples = RowTable::new(triple_schema());
                if with_triples {
                    for p in 0..data.n_patients() {
                        let row = data.expression.row(p);
                        for (g, &v) in row.iter().enumerate() {
                            triples.insert(&[
                                Value::Int(g as i64),
                                Value::Int(p as i64),
                                Value::Float(v),
                            ])?;
                        }
                    }
                }
                let patients = RowTable::from_rows(
                    patient_schema(),
                    data.patients.iter().map(|p| {
                        vec![
                            Value::Int(p.id as i64),
                            Value::Int(p.age),
                            Value::Int(p.gender),
                            Value::Int(p.zipcode),
                            Value::Int(p.disease_id),
                            Value::Float(p.drug_response),
                        ]
                    }),
                )?;
                let genes = RowTable::from_rows(
                    gene_schema(),
                    data.genes.iter().map(|g| {
                        vec![
                            Value::Int(g.id as i64),
                            Value::Int(g.target),
                            Value::Int(g.position),
                            Value::Int(g.length),
                            Value::Int(g.function),
                        ]
                    }),
                )?;
                let mut go_rows = Vec::new();
                for (term, members) in data.ontology.members.iter().enumerate() {
                    for &g in members {
                        go_rows.push(vec![Value::Int(g as i64), Value::Int(term as i64)]);
                    }
                }
                let go = RowTable::from_rows(go_schema(), go_rows)?;
                Ok(SqlStore::Row {
                    triples,
                    patients,
                    genes,
                    go,
                })
            }
            StoreKind::Column => {
                let n = if with_triples {
                    data.n_patients() * data.n_genes()
                } else {
                    0
                };
                let mut gene_col = Vec::with_capacity(n);
                let mut patient_col = Vec::with_capacity(n);
                let mut value_col = Vec::with_capacity(n);
                if with_triples {
                    for p in 0..data.n_patients() {
                        let row = data.expression.row(p);
                        for (g, &v) in row.iter().enumerate() {
                            gene_col.push(g as i64);
                            patient_col.push(p as i64);
                            value_col.push(v);
                        }
                    }
                }
                let triples = ColumnTable::from_columns(
                    triple_schema(),
                    vec![
                        ColumnData::Ints(gene_col),
                        ColumnData::Ints(patient_col),
                        ColumnData::Floats(value_col),
                    ],
                )?;
                let patients = ColumnTable::from_columns(
                    patient_schema(),
                    vec![
                        ColumnData::Ints(data.patients.iter().map(|p| p.id as i64).collect()),
                        ColumnData::Ints(data.patients.iter().map(|p| p.age).collect()),
                        ColumnData::Ints(data.patients.iter().map(|p| p.gender).collect()),
                        ColumnData::Ints(data.patients.iter().map(|p| p.zipcode).collect()),
                        ColumnData::Ints(data.patients.iter().map(|p| p.disease_id).collect()),
                        ColumnData::Floats(data.patients.iter().map(|p| p.drug_response).collect()),
                    ],
                )?;
                let genes = ColumnTable::from_columns(
                    gene_schema(),
                    vec![
                        ColumnData::Ints(data.genes.iter().map(|g| g.id as i64).collect()),
                        ColumnData::Ints(data.genes.iter().map(|g| g.target).collect()),
                        ColumnData::Ints(data.genes.iter().map(|g| g.position).collect()),
                        ColumnData::Ints(data.genes.iter().map(|g| g.length).collect()),
                        ColumnData::Ints(data.genes.iter().map(|g| g.function).collect()),
                    ],
                )?;
                let mut go_gene = Vec::new();
                let mut go_term = Vec::new();
                for (term, members) in data.ontology.members.iter().enumerate() {
                    for &g in members {
                        go_gene.push(g as i64);
                        go_term.push(term as i64);
                    }
                }
                let go = ColumnTable::from_columns(
                    go_schema(),
                    vec![ColumnData::Ints(go_gene), ColumnData::Ints(go_term)],
                )?;
                Ok(SqlStore::Column {
                    triples,
                    patients,
                    genes,
                    go,
                })
            }
        }
    }

    /// Gene ids with `function < threshold`, ascending.
    pub fn filter_gene_ids(&self, threshold: i64, budget: &Budget) -> Result<Vec<i64>> {
        let pred = Pred::IntLt(4, threshold);
        match self {
            SqlStore::Row { genes, .. } => {
                genes.filter_project(&pred, &[0], budget)?.distinct_ints(0)
            }
            SqlStore::Column { genes, .. } => {
                let sel = genes.select(&pred, budget)?;
                let mut ids: Vec<i64> = {
                    let col = genes.int_col(0)?;
                    sel.iter().map(|&i| col[i as usize]).collect()
                };
                ids.sort_unstable();
                Ok(ids)
            }
        }
    }

    /// Patient ids matching a metadata predicate, ascending.
    pub fn filter_patient_ids(&self, pred: &Pred, budget: &Budget) -> Result<Vec<i64>> {
        match self {
            SqlStore::Row { patients, .. } => patients
                .filter_project(pred, &[0], budget)?
                .distinct_ints(0),
            SqlStore::Column { patients, .. } => {
                let sel = patients.select(pred, budget)?;
                let mut ids: Vec<i64> = {
                    let col = patients.int_col(0)?;
                    sel.iter().map(|&i| col[i as usize]).collect()
                };
                ids.sort_unstable();
                Ok(ids)
            }
        }
    }

    /// Resident heap bytes of the ingested base tables (storage-layer
    /// residency, charged against the run's tracker at ingest).
    pub fn heap_bytes(&self) -> u64 {
        match self {
            SqlStore::Row {
                triples,
                patients,
                genes,
                go,
            } => {
                triples.heap_bytes() + patients.heap_bytes() + genes.heap_bytes() + go.heap_bytes()
            }
            SqlStore::Column {
                triples,
                patients,
                genes,
                go,
            } => {
                triples.heap_bytes() + patients.heap_bytes() + genes.heap_bytes() + go.heap_bytes()
            }
        }
    }

    /// Store-kind tag for cache keys: row- and column-store joins replay
    /// different accounting, so their artifacts never share an entry.
    fn kind_tag(&self) -> &'static str {
        match self {
            SqlStore::Row { .. } => "row",
            SqlStore::Column { .. } => "col",
        }
    }

    /// Rebuild a cached join's working set, replaying the cold path's
    /// accounting exactly (base-table read, conversion input, output note).
    fn replay_join(
        &self,
        schema: &Schema,
        columns: &[Column],
        mem: &MemTracker,
    ) -> Result<TripleSet> {
        let n_rows = columns.first().map_or(0, Column::len);
        match self {
            SqlStore::Row { triples, .. } => {
                mem.note_input(triples.heap_bytes());
                // The row store's join output leaves its pages through
                // `columnar_from_relation`; replay its input note.
                mem.note_input((n_rows * schema.arity() * 8) as u64);
            }
            SqlStore::Column { triples, .. } => {
                // `columnar_from_column_table` adopts the columns directly.
                mem.note_input(triples.heap_bytes());
            }
        }
        let table = ColumnarTable::from_columns(mem, schema.clone(), columns.to_vec())?;
        mem.note_output(table.heap_bytes(), table.n_rows() as u64);
        Ok(table)
    }

    /// Memoized triple join: a hit skips the hash join and the row→column
    /// conversion, rebuilding the working set from the cached columns with
    /// the cold path's accounting; a miss runs `cold` and publishes its
    /// columns. `dims` names the source dataset (`patients x genes`).
    fn join_cached(
        &self,
        cache: Option<&CacheScope>,
        dims: (usize, usize),
        conversion: &str,
        ids: &[i64],
        mem: &MemTracker,
        cold: impl FnOnce() -> Result<TripleSet>,
    ) -> Result<(TripleSet, Option<CachePin>)> {
        let Some(scope) = cache else {
            return Ok((cold()?, None));
        };
        let extra = format!("{}|{:016x}", self.kind_tag(), storage::digest_ids(ids));
        let key = scope.key(dims.0, dims.1, conversion, &extra);
        match scope.cache().begin(&key) {
            storage::Lookup::Hit(value, pin) => {
                let (schema, columns) = value
                    .as_columnar()
                    .ok_or_else(|| Error::invalid("cache type confusion on a join key"))?;
                let table = self.replay_join(schema, columns, mem)?;
                mem.note_cache_hit();
                Ok((table, Some(pin)))
            }
            storage::Lookup::Build(slot) => {
                let table = cold()?;
                let columns: Vec<Column> = (0..table.schema().arity())
                    .map(|i| table.view().column_copy(i))
                    .collect();
                let pin = slot
                    .fill(CacheValue::Columnar {
                        schema: table.schema().clone(),
                        columns,
                    })
                    .map(|(_, pin)| pin);
                Ok((table, pin))
            }
        }
    }

    /// Cache-aware [`SqlStore::join_triples_on_genes`].
    pub fn join_triples_on_genes_cached(
        &self,
        cache: Option<&CacheScope>,
        dims: (usize, usize),
        gene_ids: &[i64],
        budget: &Budget,
        mem: &MemTracker,
    ) -> Result<(TripleSet, Option<CachePin>)> {
        self.join_cached(cache, dims, "join-genes", gene_ids, mem, || {
            self.join_triples_on_genes(gene_ids, budget, mem)
        })
    }

    /// Cache-aware [`SqlStore::join_triples_on_patients`].
    pub fn join_triples_on_patients_cached(
        &self,
        cache: Option<&CacheScope>,
        dims: (usize, usize),
        patient_ids: &[i64],
        budget: &Budget,
        mem: &MemTracker,
    ) -> Result<(TripleSet, Option<CachePin>)> {
        self.join_cached(cache, dims, "join-patients", patient_ids, mem, || {
            self.join_triples_on_patients(patient_ids, budget, mem)
        })
    }

    /// Join the microarray triples against a set of gene ids, projecting
    /// `(gene_id, patient_id, value)` into the unified columnar working set.
    pub fn join_triples_on_genes(
        &self,
        gene_ids: &[i64],
        budget: &Budget,
        mem: &MemTracker,
    ) -> Result<TripleSet> {
        let key_schema = Schema::new(&[("gene_id", DataType::Int)]).expect("static schema");
        match self {
            SqlStore::Row { triples, .. } => {
                mem.note_input(triples.heap_bytes());
                let build =
                    RowTable::from_rows(key_schema, gene_ids.iter().map(|&g| vec![Value::Int(g)]))?;
                let joined = triples.hash_join(0, &build, 0, budget)?;
                let projected = joined.project(&[0, 1, 2], budget)?;
                drop(joined);
                // Row store output leaves the pages through a row→column
                // pivot (genuine reformatting work, and measured as such).
                storage::columnar_from_relation(mem, &projected)
            }
            SqlStore::Column { triples, .. } => {
                mem.note_input(triples.heap_bytes());
                let build = ColumnTable::from_columns(
                    key_schema,
                    vec![ColumnData::Ints(gene_ids.to_vec())],
                )?;
                let joined = triples.hash_join(0, &build, 0, budget)?;
                storage::columnar_from_column_table(mem, joined.into_projected(&[0, 1, 2])?)
            }
        }
    }

    /// Join the microarray triples against a set of patient ids.
    pub fn join_triples_on_patients(
        &self,
        patient_ids: &[i64],
        budget: &Budget,
        mem: &MemTracker,
    ) -> Result<TripleSet> {
        let key_schema = Schema::new(&[("patient_id", DataType::Int)]).expect("static schema");
        match self {
            SqlStore::Row { triples, .. } => {
                mem.note_input(triples.heap_bytes());
                let build = RowTable::from_rows(
                    key_schema,
                    patient_ids.iter().map(|&p| vec![Value::Int(p)]),
                )?;
                let joined = triples.hash_join(1, &build, 0, budget)?;
                let projected = joined.project(&[0, 1, 2], budget)?;
                drop(joined);
                storage::columnar_from_relation(mem, &projected)
            }
            SqlStore::Column { triples, .. } => {
                mem.note_input(triples.heap_bytes());
                let build = ColumnTable::from_columns(
                    key_schema,
                    vec![ColumnData::Ints(patient_ids.to_vec())],
                )?;
                let joined = triples.hash_join(1, &build, 0, budget)?;
                storage::columnar_from_column_table(mem, joined.into_projected(&[0, 1, 2])?)
            }
        }
    }

    /// Drug response for each patient id, in the ids' order.
    pub fn drug_responses(&self, patient_ids: &[i64]) -> Result<Vec<f64>> {
        let (mut row_ids, mut row_resp) = (Vec::new(), Vec::new());
        let (ids, resp): (&[i64], &[f64]) = match self {
            SqlStore::Row { patients, .. } => {
                patients.for_each_row(|row| {
                    if let (Value::Int(id), Value::Float(r)) = (row[0], row[5]) {
                        row_ids.push(id);
                        row_resp.push(r);
                    }
                });
                (&row_ids, &row_resp)
            }
            SqlStore::Column { patients, .. } => (patients.int_col(0)?, patients.float_col(5)?),
        };
        let by_id = IdIndex::new(ids);
        patient_ids
            .iter()
            .map(|&id| {
                by_id
                    .get(id)
                    .map(|at| resp[at])
                    .ok_or_else(|| Error::invalid(format!("unknown patient {id}")))
            })
            .collect()
    }

    /// `gene_id -> function` map (the Query 2 metadata join).
    pub fn gene_functions(&self) -> Result<HashMap<i64, i64>> {
        let mut out = HashMap::new();
        match self {
            SqlStore::Row { genes, .. } => {
                genes.for_each_row(|row| {
                    if let (Value::Int(id), Value::Int(f)) = (row[0], row[4]) {
                        out.insert(id, f);
                    }
                });
            }
            SqlStore::Column { genes, .. } => {
                let ids = genes.int_col(0)?;
                let funcs = genes.int_col(4)?;
                for (&id, &f) in ids.iter().zip(funcs) {
                    out.insert(id, f);
                }
            }
        }
        Ok(out)
    }

    /// GO memberships as per-term gene lists (the Query 5 GO join).
    pub fn go_memberships(&self, n_terms: usize) -> Result<Vec<Vec<u32>>> {
        let mut members: Vec<Vec<u32>> = vec![Vec::new(); n_terms];
        let mut push = |gene: i64, term: i64| {
            if let Some(m) = members.get_mut(term as usize) {
                m.push(gene as u32);
            }
        };
        match self {
            SqlStore::Row { go, .. } => {
                go.for_each_row(|row| {
                    if let (Value::Int(g), Value::Int(t)) = (row[0], row[1]) {
                        push(g, t);
                    }
                });
            }
            SqlStore::Column { go, .. } => {
                let genes = go.int_col(0)?;
                let terms = go.int_col(1)?;
                for (&g, &t) in genes.iter().zip(terms) {
                    push(g, t);
                }
            }
        }
        for m in &mut members {
            m.sort_unstable();
        }
        Ok(members)
    }

    /// Per-gene `(sum, count)` of expression values in a triple set (SQL
    /// GROUP BY gene_id).
    pub fn group_sum_by_gene(&self, set: &TripleSet) -> Result<Vec<(i64, f64, u64)>> {
        set.group_sum(0, 2)
    }
}

/// A load-once slot: built by the first cell that asks, while cells asking
/// meanwhile block on that build; a failed build is stored as the typed
/// error it is and every later cell gets the same one.
type Slot<T> = OnceLock<Result<Arc<T>>>;

/// What one dataset's cells share instead of loading per cell: an immutable
/// [`SqlStore`] per [`StoreKind`], with or without the triple table
/// (`--stream` cells share only the metadata tables); the triples as an
/// on-disk [`Spool`] per morsel size under every streaming cell's reel; and
/// SciDB's chunked [`ArrayData`].
///
/// Each is built exactly once, by the first cell that asks; cells asking
/// meanwhile block on that build and every later cell gets an `Arc` clone —
/// the [`genbase_datagen::DatasetPool`] slot pattern. The
/// [`crate::harness::Harness`] owns one set per generated size class and
/// puts it on the [`ExecContext`] of every cell it runs, so the tables (and
/// the spool file) live exactly as long as the dataset they were loaded
/// from; a context built without a harness carries an empty set of its own.
///
/// A set belongs to the first dataset it loads. Asking it for another
/// dataset's tables is an error, never a wrong answer.
#[derive(Default)]
pub struct LoadedTables {
    dataset: OnceLock<genbase_datagen::DatasetId>,
    /// `[kind][with_triples]`.
    stores: [[Slot<SqlStore>; 2]; 2],
    /// By `batch_rows`.
    spools: Mutex<HashMap<usize, Arc<Slot<Spool>>>>,
    arrays: Slot<ArrayData>,
    builds: AtomicU64,
}

impl LoadedTables {
    /// `slot`'s value, built from `data` by `build` on first use.
    fn load<T>(
        &self,
        slot: &Slot<T>,
        data: &Dataset,
        build: impl FnOnce() -> Result<T>,
    ) -> Result<Arc<T>> {
        let owner = *self.dataset.get_or_init(|| data.id());
        if owner != data.id() {
            return Err(Error::invalid(format!(
                "base tables loaded from dataset {owner} cannot serve dataset {}",
                data.id()
            )));
        }
        slot.get_or_init(|| {
            self.builds.fetch_add(1, Ordering::Relaxed);
            build().map(Arc::new)
        })
        .clone()
    }

    /// The `kind` store of `data`, loaded on first use. `with_triples`
    /// false is the metadata-only store of streaming cells.
    pub fn store(
        &self,
        kind: StoreKind,
        with_triples: bool,
        data: &Dataset,
    ) -> Result<Arc<SqlStore>> {
        let slot = &self.stores[kind as usize][usize::from(with_triples)];
        self.load(slot, data, || {
            if with_triples {
                SqlStore::ingest(kind, data)
            } else {
                SqlStore::ingest_metadata(kind, data)
            }
        })
    }

    /// `data`'s triples spooled as `cfg.batch_rows`-row morsels under
    /// `cfg.spill_dir`, written on first use.
    pub fn spool(&self, cfg: &StreamConfig, data: &Dataset) -> Result<Arc<Spool>> {
        let slot = Arc::clone(lock(&self.spools).entry(cfg.batch_rows).or_default());
        self.load(&slot, data, || spool_triples(data, cfg))
    }

    /// `data` as SciDB's chunked arrays, ingested on first use.
    pub fn arrays(&self, data: &Dataset) -> Result<Arc<ArrayData>> {
        self.load(&self.arrays, data, || ArrayData::ingest(data))
    }

    /// Loads run so far, stores, spools and arrays alike (each at most
    /// once: under one harness, which either streams at one morsel size or
    /// does not, at most 2 stores + 1 spool + 1 array set).
    pub fn builds(&self) -> u64 {
        self.builds.load(Ordering::Relaxed)
    }

    /// Heap bytes of the stores and arrays resident now.
    pub fn heap_bytes(&self) -> u64 {
        let stores = self.stores.iter().flatten();
        let stores = stores.filter_map(|slot| Some(slot.get()?.as_ref().ok()?.heap_bytes()));
        let arrays = self
            .arrays
            .get()
            .and_then(|a| Some(a.as_ref().ok()?.heap_bytes()));
        stores.chain(arrays).sum()
    }

    /// Bytes of the spool files on disk now.
    pub fn spool_bytes(&self) -> u64 {
        let spools = lock(&self.spools);
        let built = spools
            .values()
            .filter_map(|slot| Some(slot.get()?.as_ref().ok()?.bytes()));
        built.sum()
    }
}

impl std::fmt::Debug for LoadedTables {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("LoadedTables")
            .field("dataset", &self.dataset.get())
            .field("builds", &self.builds())
            .field("heap_bytes", &self.heap_bytes())
            .field("spool_bytes", &self.spool_bytes())
            .finish()
    }
}

/// Row-order scan of the filtered `(gene_id, patient_id, value)` triples:
/// the one interface the SQL-simulated analytics read, implemented by both
/// the materialized [`TripleSet`] and the streaming reel. Implementations
/// must yield triples in the base table's row order — that ordering is what
/// keeps floating-point accumulation bit-identical across execution modes.
pub trait TripleScan {
    /// Apply `f` to every triple in row order.
    fn scan(&self, f: &mut dyn FnMut(i64, i64, f64)) -> Result<()>;
}

impl TripleScan for TripleSet {
    fn scan(&self, f: &mut dyn FnMut(i64, i64, f64)) -> Result<()> {
        self.for_each(&mut |row: &[Value]| {
            if let (Value::Int(g), Value::Int(p), Value::Float(v)) = (row[0], row[1], row[2]) {
                f(g, p, v);
            }
        });
        Ok(())
    }
}

/// Streaming-mode state of one SQL-engine run: the triple reel plus the
/// semijoin filters staged by the executed join prefix. The materialized
/// `joined` set stays empty in this mode — joins stage their filters
/// without a reel pass and the consuming operator runs one probe+sink pass
/// per morsel, in push order.
struct StreamState {
    reel: BatchReel,
    batch_rows: usize,
    threads: usize,
    gene_filter: Option<IdIndex>,
    patient_filter: Option<IdIndex>,
    /// Triples passing the staged filters — the row count the materialized
    /// join would have produced (labels and byte accounting downstream).
    joined_rows: usize,
}

impl StreamState {
    fn passes(&self, g: i64, p: i64) -> bool {
        self.gene_filter.as_ref().is_none_or(|s| s.contains(g))
            && self.patient_filter.as_ref().is_none_or(|s| s.contains(p))
    }

    fn scan(&self) -> ReelScan<'_> {
        ReelScan { state: self }
    }

    /// Semijoin probe of the streaming pipeline: mark a batch's survivors
    /// of the staged filters as a selection vector. Pure per-batch function —
    /// safe to run in parallel at any thread count.
    fn probe(&self, m: &Morsel) -> storage::SelVec {
        let g = m.int_col(0).expect("reel gene column");
        let p = m.int_col(1).expect("reel patient column");
        storage::SelVec::from_predicate(m.n_rows(), |i| self.passes(g[i], p[i]))
    }

    /// Filter ids that actually occur in the reel's dense id domain `0..n`
    /// (the reel holds every `(gene, patient)` pair exactly once, so this
    /// is what a counting pass would tally per row of the other dimension).
    fn domain_count(filter: &IdIndex, n: usize) -> usize {
        (0..n as i64).filter(|&id| filter.contains(id)).count()
    }

    /// Rows of the reel passing *both* staged filters, computed without a
    /// pass; every probe+sink pass verifies its actual survivor count
    /// against this.
    fn expected_survivors(&self, n_genes: usize, n_patients: usize) -> usize {
        let g = match &self.gene_filter {
            Some(f) => Self::domain_count(f, n_genes),
            None => n_genes,
        };
        let p = match &self.patient_filter {
            Some(f) => Self::domain_count(f, n_patients),
            None => n_patients,
        };
        g * p
    }
}

/// [`TripleScan`] over the reel through the staged semijoin filters.
struct ReelScan<'a> {
    state: &'a StreamState,
}

impl TripleScan for ReelScan<'_> {
    fn scan(&self, f: &mut dyn FnMut(i64, i64, f64)) -> Result<()> {
        self.state.reel.replay(|m| {
            let g = m.int_col(0)?;
            let p = m.int_col(1)?;
            let v = m.float_col(2)?;
            for i in 0..m.n_rows() {
                if self.state.passes(g[i], p[i]) {
                    f(g[i], p[i], v[i]);
                }
            }
            Ok(())
        })
    }
}

/// Streaming accumulator of the Query 5 `GROUP BY gene_id` over the dense
/// gene domain `0..n_genes`: the score vector is indexed by gene id, so a
/// group outside the domain never reaches an output and is dropped on
/// arrival. Sums start at `0.0` and add in arrival order, like the
/// materialized `group_sum`, so every lowering yields the same bits.
struct GeneSums(Vec<(f64, u64)>);

impl GeneSums {
    fn new(n_genes: usize) -> GeneSums {
        GeneSums(vec![(0.0, 0); n_genes])
    }

    fn add(&mut self, gene: i64, value: f64) {
        if let Some(e) = usize::try_from(gene).ok().and_then(|g| self.0.get_mut(g)) {
            e.0 += value;
            e.1 += 1;
        }
    }

    /// Per-gene mean; genes with no rows score `0.0`.
    fn means(self) -> Vec<f64> {
        let mean = |(sum, count): (f64, u64)| if count > 0 { sum / count as f64 } else { 0.0 };
        self.0.into_iter().map(mean).collect()
    }
}

/// Streaming ingest, once per dataset: spool the microarray triples as
/// `batch_rows`-row morsels in base order (patient-major, gene-minor — the
/// exact order both stores ingest in, which is the expression matrix's own
/// row-major order).
fn spool_triples(data: &Dataset, cfg: &StreamConfig) -> Result<Spool> {
    let n_genes = data.n_genes();
    let values = data.expression.data();
    let ranges = storage::batch_ranges(values.len(), cfg.batch_rows)?;
    let mut spool = Spool::create(triple_schema(), cfg.spill_dir.as_deref())?;
    for (start, end) in ranges {
        spool.append(&[
            Column::Ints((start..end).map(|i| (i % n_genes) as i64).collect()),
            Column::Ints((start..end).map(|i| (i / n_genes) as i64).collect()),
            Column::Floats(values[start..end].to_vec()),
        ])?;
    }
    Ok(spool)
}

/// In-database restructure: pivot a triple set into a dense matrix through
/// the storage layer's one pivot kernel (single-threaded here — the pivot
/// runs inside one Postgres/column-store backend process).
pub fn pivot(
    set: &TripleSet,
    patient_ids: &[i64],
    gene_ids: &[i64],
    budget: &Budget,
    mem: &MemTracker,
) -> Result<Matrix> {
    storage::pivot_dense(
        &set.view(),
        (1, 0, 2),
        patient_ids,
        gene_ids,
        1,
        mem,
        budget,
    )
}

/// DBMS half of the export bridge: serialize the triple set to CSV text.
pub fn export_triples_csv(set: &TripleSet, db_budget: &Budget, mem: &MemTracker) -> Result<String> {
    storage::export_csv_tracked(set, mem, db_budget)
}

/// R half of the export bridge: `read.csv` the exported text and pivot it
/// into a dense matrix (single-threaded, against the R memory budget).
pub fn pivot_csv_in_r(
    text: &str,
    patient_ids: &[i64],
    gene_ids: &[i64],
    r_budget: &Budget,
    mem: &MemTracker,
) -> Result<Matrix> {
    storage::pivot_csv_tracked(text, patient_ids, gene_ids, mem, r_budget)
}

/// The export bridge end to end: CSV-serialize the triple set (DBMS side),
/// then parse and pivot it "in R". The plan executor traces the two halves
/// as separate `Export` and `Restructure` ops.
pub fn export_and_pivot_in_r(
    set: &TripleSet,
    patient_ids: &[i64],
    gene_ids: &[i64],
    db_budget: &Budget,
    r_budget: &Budget,
    mem: &MemTracker,
) -> Result<Matrix> {
    let text = export_triples_csv(set, db_budget, mem)?;
    pivot_csv_in_r(&text, patient_ids, gene_ids, r_budget, mem)
}

/// The UDF marshalling penalty observed by the paper on the biclustering
/// query: the column store's R-UDF interface hands the matrix over
/// row-at-a-time through boxed records rather than as one block. We
/// reproduce the mechanism: every row is converted to a `Vec<Value>` and
/// back (allocation + boxing per cell).
pub fn udf_row_marshal(mat: &Matrix, budget: &Budget, mem: &MemTracker) -> Result<Matrix> {
    mem.note_input(mat.heap_bytes());
    let mut out = Matrix::zeros(mat.rows(), mat.cols());
    for r in 0..mat.rows() {
        if r % 256 == 0 {
            budget.check("udf marshalling")?;
        }
        let boxed: Vec<Value> = mat.row(r).iter().map(|&v| Value::Float(v)).collect();
        for (c, v) in boxed.iter().enumerate() {
            out.set(r, c, v.as_float()?);
        }
    }
    mem.note_output(out.heap_bytes(), out.rows() as u64);
    Ok(out)
}

/// SQL-simulated covariance (the Madlib path): per-gene means via GROUP BY,
/// then a hash aggregate over all per-patient gene-pair products —
/// `O(m_sel · n²)` hash updates through interpreted plumbing, which is why
/// the paper sees Madlib exceed the cutoff on bigger datasets.
pub fn sql_sim_covariance(
    set: &dyn TripleScan,
    patient_ids: &[i64],
    gene_ids: &[i64],
    budget: &Budget,
) -> Result<Matrix> {
    let n = gene_ids.len();
    let m = patient_ids.len();
    if m < 2 {
        return Err(Error::invalid("covariance requires at least 2 patients"));
    }
    let gene_index = IdIndex::new(gene_ids);
    let patient_index = IdIndex::new(patient_ids);
    // Pass 1 (SQL GROUP BY gene): means.
    let mut means = vec![0.0; n];
    set.scan(&mut |g, _p, v| {
        if let Some(gi) = gene_index.get(g) {
            means[gi] += v;
        }
    })?;
    for mu in &mut means {
        *mu /= m as f64;
    }
    // Pass 2: assemble per-patient centered vectors (array_agg), then the
    // pair-product hash aggregate.
    let mut per_patient: Vec<Vec<f64>> = vec![vec![0.0; n]; m];
    set.scan(&mut |g, p, v| {
        if let (Some(gi), Some(pi)) = (gene_index.get(g), patient_index.get(p)) {
            per_patient[pi][gi] = v - means[gi];
        }
    })?;
    let mut acc: HashMap<(u32, u32), f64> = HashMap::new();
    for (pi, vec) in per_patient.iter().enumerate() {
        if pi % 4 == 0 {
            budget.check("sql-simulated covariance")?;
        }
        for i in 0..n {
            let vi = vec[i];
            if vi == 0.0 {
                continue;
            }
            for (j, &vj) in vec.iter().enumerate().skip(i) {
                *acc.entry((i as u32, j as u32)).or_insert(0.0) += vi * vj;
            }
        }
    }
    let mut cov = Matrix::zeros(n, n);
    let inv = 1.0 / (m - 1) as f64;
    for ((i, j), v) in acc {
        cov.set(i as usize, j as usize, v * inv);
        cov.set(j as usize, i as usize, v * inv);
    }
    Ok(cov)
}

/// SQL-simulated Lanczos matvec operator (the Madlib SVD path): each
/// operator application is two full passes over the triple table —
/// `u = A v` then `w = Aᵀ u` — executed row-at-a-time as a SQL join +
/// aggregate would be.
pub struct SqlSimGramOp<'a> {
    set: &'a dyn TripleScan,
    patient_index: IdIndex,
    gene_index: IdIndex,
    n_patients: usize,
}

impl<'a> SqlSimGramOp<'a> {
    /// Build from a filtered triple scan and its id universes.
    pub fn new(set: &'a dyn TripleScan, patient_ids: &[i64], gene_ids: &[i64]) -> Self {
        SqlSimGramOp {
            set,
            patient_index: IdIndex::new(patient_ids),
            gene_index: IdIndex::new(gene_ids),
            n_patients: patient_ids.len(),
        }
    }
}

impl LinearOp for SqlSimGramOp<'_> {
    fn dim(&self) -> usize {
        self.gene_index.len()
    }

    fn apply(&self, x: &[f64], y: &mut [f64]) -> Result<()> {
        let mut u = vec![0.0; self.n_patients];
        self.set.scan(&mut |g, p, v| {
            if let (Some(gi), Some(pi)) = (self.gene_index.get(g), self.patient_index.get(p)) {
                u[pi] += v * x[gi];
            }
        })?;
        y.iter_mut().for_each(|v| *v = 0.0);
        self.set.scan(&mut |g, p, v| {
            if let (Some(gi), Some(pi)) = (self.gene_index.get(g), self.patient_index.get(p)) {
                y[gi] += v * u[pi];
            }
        })?;
        Ok(())
    }
}

/// Full single-node SQL-engine runner shared by Postgres+R, column store
/// +R/UDFs, and Postgres+Madlib.
pub struct SqlEngineSpec {
    /// Display name.
    pub name: &'static str,
    /// Row or column storage.
    pub kind: StoreKind,
    /// Analytics bridge.
    pub bridge: Bridge,
    /// Pay the UDF row-marshalling penalty on Query 3 (column store + UDFs).
    pub udf_q3_penalty: bool,
}

impl SqlEngineSpec {
    /// Run one query by lowering its logical plan onto the configured
    /// store/bridge pair.
    pub fn run(
        &self,
        query: Query,
        data: &Dataset,
        params: &QueryParams,
        ctx: &ExecContext,
    ) -> Result<QueryReport> {
        let db_budget = ctx.db_budget();
        let r_budget = ctx.r_budget();
        let mem = ctx.mem_tracker();
        // Borrow the dataset's loaded base tables (built by whichever cell
        // of this dataset asked first) and charge them to this cell all the
        // same: every cell reads the whole store, so its working set, its
        // peak and a `--mem-budget` refusal are what a private copy would
        // give. Streaming mode keeps the triples on a morsel reel instead
        // of a base table, so residency is the metadata tables plus the
        // reel's bounded resident window — never the full triple relation.
        // The reel is this cell's (its resident morsels are charged to this
        // cell's tracker, under a cap of a quarter of this cell's budget,
        // leaving room for the pipeline's sinks; unlimited reels keep
        // everything resident); the spool it reads is the dataset's.
        let store = ctx.tables.store(self.kind, ctx.stream.is_none(), data)?;
        mem.charge(store.heap_bytes())?;
        let stream = match &ctx.stream {
            Some(cfg) => {
                let cap = ctx.mem_budget.map_or(u64::MAX, |b| b / 4);
                Some(StreamState {
                    reel: BatchReel::open(&mem, ctx.tables.spool(cfg, data)?, cap)?,
                    batch_rows: cfg.batch_rows,
                    threads: ctx.threads.max(1),
                    gene_filter: None,
                    patient_filter: None,
                    joined_rows: 0,
                })
            }
            None => None,
        };
        let backend = SqlBackend {
            spec: self,
            data,
            params,
            query,
            // Analytics run in R (single-threaded) for every bridge;
            // Madlib's C++ aggregate is also single-threaded inside one
            // Postgres backend.
            r_opts: ExecOpts::with_threads(1)
                .with_budget(r_budget.clone())
                .with_progress(ctx.progress.clone()),
            store,
            stream,
            db_budget,
            r_budget,
            mem: mem.clone(),
            cache: ctx.cache.clone(),
            pins: Vec::new(),
            gene_ids: Vec::new(),
            patient_ids: Vec::new(),
            joined: None,
            mat: None,
            y: Vec::new(),
            memberships: Vec::new(),
            scores: Vec::new(),
            cov: None,
            output: None,
        };
        plan::run_plan(backend, query, Tracer::new().with_mem(mem))
    }
}

/// Physical state of one SQL-engine run: the dataset's shared loaded store
/// plus whatever the executed prefix of the plan has produced so far.
struct SqlBackend<'a> {
    spec: &'a SqlEngineSpec,
    data: &'a Dataset,
    params: &'a QueryParams,
    query: Query,
    db_budget: Budget,
    r_budget: Budget,
    mem: MemTracker,
    /// Artifact-cache scope for this run (`None` = always cold).
    cache: Option<CacheScope>,
    /// Pins holding cached artifacts resident for the run's duration.
    pins: Vec<CachePin>,
    r_opts: ExecOpts,
    store: Arc<SqlStore>,
    stream: Option<StreamState>,
    gene_ids: Vec<i64>,
    patient_ids: Vec<i64>,
    joined: Option<TripleSet>,
    mat: Option<DenseHandle>,
    y: Vec<f64>,
    memberships: Vec<Vec<u32>>,
    scores: Vec<f64>,
    cov: Option<analytics::CovPairs>,
    output: Option<QueryOutput>,
}

impl SqlBackend<'_> {
    fn joined(&self) -> Result<&TripleSet> {
        self.joined
            .as_ref()
            .ok_or_else(|| Error::invalid("triple join did not run before this op"))
    }

    fn mat(&self) -> Result<&Matrix> {
        self.mat
            .as_ref()
            .map(DenseHandle::matrix)
            .ok_or_else(|| Error::invalid("restructure did not run before analytics"))
    }

    /// In-database paths that never materialize a matrix: Madlib simulates
    /// covariance and the SVD matvec directly over the triple table.
    fn analytics_on_triples(&self) -> bool {
        self.spec.bridge == Bridge::InDatabase
            && matches!(self.query, Query::Covariance | Query::Svd)
    }
}

impl PhysicalBackend for SqlBackend<'_> {
    fn prepare(&mut self, tracer: &mut Tracer) -> Result<()> {
        if let Some(st) = &self.stream {
            // Loading is not a plan operator in either mode (the base
            // tables and the spool are loaded once per dataset; the cell
            // opens its reel over the spool before the plan), but the
            // reel's shape is part of the run's record: surface it as a
            // zero-wall op so the ingest-side batch and spill tallies land
            // in the trace.
            tracer.record(
                OpKind::Restructure,
                Phase::DataManagement,
                format!(
                    "stream ingest: {} triples as {}-row morsels",
                    st.reel.total_rows(),
                    st.batch_rows
                ),
                OpCost {
                    bytes_in: st.reel.span_bytes(),
                    bytes_out: st.reel.resident_bytes(),
                    peak_alloc_bytes: self.mem.peak(),
                    rows_materialized: st.reel.total_rows() as u64,
                    batches: st.reel.n_batches() as u64,
                    spill_bytes: st.reel.spill_bytes(),
                    ..OpCost::default()
                },
            );
        }
        Ok(())
    }

    fn execute(&mut self, op: LogicalOp, tracer: &mut Tracer) -> Result<()> {
        let data = self.data;
        let params = self.params;
        match op {
            LogicalOp::FilterGenes => {
                let pred = Pred::IntLt(4, params.function_threshold);
                let store = &self.store;
                let db_budget = &self.db_budget;
                let gene_ids = tracer.exec(
                    OpKind::Filter,
                    Phase::DataManagement,
                    format!("SELECT gene_id WHERE {}", pred.describe(&GENE_COLS)),
                    || store.filter_gene_ids(params.function_threshold, db_budget),
                )?;
                if gene_ids.is_empty() {
                    return Err(Error::invalid("gene filter selected nothing"));
                }
                self.gene_ids = gene_ids;
            }
            LogicalOp::FilterPatients => {
                let pred = match self.query {
                    Query::Covariance => Pred::IntEq(4, params.disease_id),
                    _ => Pred::IntEq(2, params.gender).and(Pred::IntLt(1, params.max_age)),
                };
                let store = &self.store;
                let db_budget = &self.db_budget;
                let patient_ids = tracer.exec(
                    OpKind::Filter,
                    Phase::DataManagement,
                    format!("SELECT patient_id WHERE {}", pred.describe(&PATIENT_COLS)),
                    || store.filter_patient_ids(&pred, db_budget),
                )?;
                match self.query {
                    Query::Covariance if patient_ids.len() < 2 => {
                        return Err(Error::invalid("disease filter selected < 2 patients"))
                    }
                    Query::Biclustering if patient_ids.len() < params.bicluster.min_rows => {
                        return Err(Error::invalid(
                            "age/gender filter selected too few patients",
                        ))
                    }
                    _ => {}
                }
                self.patient_ids = patient_ids;
            }
            LogicalOp::SamplePatients => {
                let count = params.sample_count(data.n_patients());
                let sampled = tracer.exec(
                    OpKind::Filter,
                    Phase::DataManagement,
                    format!("TABLESAMPLE: {count} seeded patient ids"),
                    || {
                        Ok(
                            analytics::sample_patients(data.n_patients(), count, params.seed)
                                .into_iter()
                                .map(|p| p as i64)
                                .collect::<Vec<i64>>(),
                        )
                    },
                )?;
                self.patient_ids = sampled;
            }
            LogicalOp::JoinOnGenes => {
                let store = &self.store;
                let db_budget = &self.db_budget;
                let mem = &self.mem;
                let gene_ids = &self.gene_ids;
                let want_y = self.query == Query::Regression;
                let patient_ids: Vec<i64> = (0..data.n_patients() as i64).collect();
                if let Some(st) = self.stream.as_mut() {
                    // Streaming lowering: stage the join as a semijoin
                    // filter only — no reel pass at all. The matched-row
                    // count the materialized join would have output is
                    // known analytically (the reel is the dense patient x
                    // gene cross product) and verified by the consuming
                    // operator's probe+sink pass later.
                    let filter = IdIndex::new(gene_ids);
                    let matched =
                        StreamState::domain_count(&filter, data.n_genes()) * data.n_patients();
                    let y = tracer.exec(
                        OpKind::Join,
                        Phase::DataManagement,
                        format!("stage semijoin: {} filtered genes (fused)", gene_ids.len()),
                        || {
                            mem.note_selected(matched as u64);
                            if want_y {
                                store.drug_responses(&patient_ids)
                            } else {
                                Ok(Vec::new())
                            }
                        },
                    )?;
                    st.gene_filter = Some(filter);
                    st.joined_rows = matched;
                    self.patient_ids = patient_ids;
                    self.y = y;
                } else {
                    let label = format!("hash join: triples x {} filtered genes", gene_ids.len());
                    let cache = self.cache.clone();
                    let dims = (data.n_patients(), data.n_genes());
                    let (joined, pin, y) =
                        tracer.exec(OpKind::Join, Phase::DataManagement, label, || {
                            let (joined, pin) = store.join_triples_on_genes_cached(
                                cache.as_ref(),
                                dims,
                                gene_ids,
                                db_budget,
                                mem,
                            )?;
                            let y = if want_y {
                                store.drug_responses(&patient_ids)?
                            } else {
                                Vec::new()
                            };
                            Ok((joined, pin, y))
                        })?;
                    self.pins.extend(pin);
                    self.joined = Some(joined);
                    self.patient_ids = patient_ids;
                    self.y = y;
                }
            }
            LogicalOp::JoinOnPatients => {
                let store = &self.store;
                let db_budget = &self.db_budget;
                let mem = &self.mem;
                let patient_ids = &self.patient_ids;
                if let Some(st) = self.stream.as_mut() {
                    // Streaming lowering: stage the filter, defer the pass
                    // (see `JoinOnGenes`).
                    let filter = IdIndex::new(patient_ids);
                    let matched =
                        StreamState::domain_count(&filter, data.n_patients()) * data.n_genes();
                    tracer.exec(
                        OpKind::Join,
                        Phase::DataManagement,
                        format!(
                            "stage semijoin: {} selected patients (fused)",
                            patient_ids.len()
                        ),
                        || {
                            mem.note_selected(matched as u64);
                            Ok(())
                        },
                    )?;
                    st.patient_filter = Some(filter);
                    st.joined_rows = matched;
                } else {
                    let label = format!(
                        "hash join: triples x {} selected patients",
                        patient_ids.len()
                    );
                    let cache = self.cache.clone();
                    let dims = (data.n_patients(), data.n_genes());
                    let (joined, pin) =
                        tracer.exec(OpKind::Join, Phase::DataManagement, label, || {
                            store.join_triples_on_patients_cached(
                                cache.as_ref(),
                                dims,
                                patient_ids,
                                db_budget,
                                mem,
                            )
                        })?;
                    self.pins.extend(pin);
                    self.joined = Some(joined);
                }
                if self.gene_ids.is_empty() {
                    self.gene_ids = (0..data.n_genes() as i64).collect();
                }
            }
            LogicalOp::JoinGoTerms => {
                let store = &self.store;
                let memberships = tracer.exec(
                    OpKind::Join,
                    Phase::DataManagement,
                    "join GO membership pairs into per-term gene lists",
                    || store.go_memberships(data.ontology.n_terms()),
                )?;
                self.memberships = memberships;
            }
            LogicalOp::Restructure => {
                if self.analytics_on_triples() {
                    // Madlib covariance/SVD read the triple table directly:
                    // the restructure lowers away (and that is precisely why
                    // those paths are slow — no dense kernel ever runs).
                    return Ok(());
                }
                if self.stream.is_some() {
                    return self.stream_restructure(tracer);
                }
                let mem = &self.mem;
                let mat = match self.spec.bridge {
                    Bridge::ExportToR => {
                        let joined = self.joined()?;
                        let db_budget = &self.db_budget;
                        let text = tracer.exec(
                            OpKind::Export,
                            Phase::DataManagement,
                            format!("COPY TO: {} triples as CSV text", joined.n_rows()),
                            || export_triples_csv(joined, db_budget, mem),
                        )?;
                        let (patient_ids, gene_ids) = (&self.patient_ids, &self.gene_ids);
                        let r_budget = &self.r_budget;
                        tracer.exec(
                            OpKind::Restructure,
                            Phase::DataManagement,
                            "R read.csv + pivot to matrix",
                            || {
                                let mat =
                                    pivot_csv_in_r(&text, patient_ids, gene_ids, r_budget, mem)?;
                                DenseHandle::new(mem, mat)
                            },
                        )?
                    }
                    Bridge::InProcess | Bridge::InDatabase => {
                        let joined = self.joined()?;
                        let (patient_ids, gene_ids) = (&self.patient_ids, &self.gene_ids);
                        let db_budget = &self.db_budget;
                        tracer.exec(
                            OpKind::Restructure,
                            Phase::DataManagement,
                            format!(
                                "in-database pivot to {}x{} matrix",
                                patient_ids.len(),
                                gene_ids.len()
                            ),
                            || {
                                let mat = pivot(joined, patient_ids, gene_ids, db_budget, mem)?;
                                DenseHandle::new(mem, mat)
                            },
                        )?
                    }
                };
                self.mat = Some(self.udf_marshal(mat, tracer)?);
            }
            LogicalOp::GroupAgg => {
                let mem = &self.mem;
                let n_genes = data.n_genes();
                let label = "GROUP BY gene_id: per-gene mean of the sample";
                let scores = if let Some(st) = self.stream.as_ref() {
                    // Streaming lowering: the only reel pass of the
                    // Statistics pipeline — parallel semijoin probe, serial
                    // in-push-order accumulate over the survivors, so the
                    // f64 sums are bit-identical to the materialized hash
                    // aggregate.
                    let expected = st.expected_survivors(data.n_genes(), data.n_patients()) as u64;
                    tracer.exec(
                        OpKind::GroupAgg,
                        Phase::DataManagement,
                        format!("{label} (fused)"),
                        || {
                            mem.note_input(st.reel.span_bytes());
                            mem.note_output((n_genes * 8) as u64, n_genes as u64);
                            mem.note_batches(st.reel.n_batches() as u64);
                            let mut acc = GeneSums::new(n_genes);
                            let survivors = storage::fused_scan(
                                &st.reel,
                                st.threads,
                                |m| st.probe(m),
                                |m, sel| {
                                    let g = m.int_col(0)?;
                                    let v = m.float_col(2)?;
                                    for &i in sel.positions() {
                                        acc.add(g[i as usize], v[i as usize]);
                                    }
                                    Ok(())
                                },
                            )?;
                            if survivors != expected {
                                return Err(Error::invalid(format!(
                                    "fused group-by saw {survivors} survivors, expected {expected}"
                                )));
                            }
                            mem.note_selected(survivors);
                            Ok(acc.means())
                        },
                    )?
                } else {
                    let store = &self.store;
                    let joined = self.joined()?;
                    tracer.exec(OpKind::GroupAgg, Phase::DataManagement, label, || {
                        mem.note_input(joined.heap_bytes());
                        mem.note_output((n_genes * 8) as u64, n_genes as u64);
                        let mut scores = vec![0.0; n_genes];
                        for (g, s, c) in store.group_sum_by_gene(joined)? {
                            if (g as usize) < scores.len() && c > 0 {
                                scores[g as usize] = s / c as f64;
                            }
                        }
                        Ok(scores)
                    })?
                };
                self.scores = scores;
            }
            LogicalOp::Analytics(kernel) => self.run_kernel(kernel, tracer)?,
            LogicalOp::JoinGeneMetadata => {
                let (threshold, idx_pairs) = self.cov.take().ok_or_else(|| {
                    Error::invalid("covariance kernel did not run before metadata join")
                })?;
                let store = &self.store;
                let gene_ids = &self.gene_ids;
                let pairs = tracer.exec(
                    OpKind::Join,
                    Phase::DataManagement,
                    "join top pairs back to gene function codes",
                    || {
                        let functions = store.gene_functions()?;
                        attach_gene_metadata(&idx_pairs, gene_ids, &functions)
                    },
                )?;
                self.output = Some(QueryOutput::Covariance { threshold, pairs });
            }
        }
        Ok(())
    }

    fn finish(&mut self) -> Result<QueryOutput> {
        self.output
            .take()
            .ok_or_else(|| Error::invalid("plan produced no output"))
    }
}

impl SqlBackend<'_> {
    /// The UDF marshalling penalty of Query 3 on the column store's R-UDF
    /// interface, traced as its own `Marshal` op after the restructure (a
    /// no-op for every other engine/query pair).
    fn udf_marshal(&self, mat: DenseHandle, tracer: &mut Tracer) -> Result<DenseHandle> {
        if !(self.spec.udf_q3_penalty && self.query == Query::Biclustering) {
            return Ok(mat);
        }
        let (db_budget, mem) = (&self.db_budget, &self.mem);
        tracer.exec(
            OpKind::Marshal,
            Phase::DataManagement,
            "UDF interface: box every row as records",
            || {
                let boxed = udf_row_marshal(&mat, db_budget, mem)?;
                DenseHandle::new(mem, boxed)
            },
        )
    }

    /// Streaming lowering of [`LogicalOp::Restructure`]: the deferred
    /// semijoin and the pivot/export run as *one* probe+sink pass over the
    /// reel ([`genbase_storage::fused_scan`]), so no materialized triple set
    /// (and, on the export bridge, no whole-set CSV text) ever exists. The
    /// probe marks each batch's survivors in parallel; the serial
    /// in-push-order sink scatters (or serializes, re-parses, and scatters,
    /// on the export bridge) only the survivors, so last-write-wins
    /// duplicate resolution and f64 effects — and therefore the matrix —
    /// are bit-identical to the materializing pivot.
    fn stream_restructure(&mut self, tracer: &mut Tracer) -> Result<()> {
        let st = self.stream.as_ref().expect("streaming state");
        let mem = &self.mem;
        let (patient_ids, gene_ids) = (&self.patient_ids, &self.gene_ids);
        let rows = patient_ids.len();
        let cols = gene_ids.len();
        let (row_index, col_index) = (IdIndex::new(patient_ids), IdIndex::new(gene_ids));
        let expected = st.expected_survivors(self.data.n_genes(), self.data.n_patients()) as u64;
        let n_batches = st.reel.n_batches() as u64;
        let mat = match self.spec.bridge {
            Bridge::ExportToR => {
                // One pass drives both halves of the bridge: the sink
                // serializes each batch's survivors straight off the
                // selection vector, immediately re-parses the chunk (the
                // values still make the CSV format -> parse round trip the
                // bridge measures) and scatters it; the next batch's chunk
                // overwrites the text in the same buffer.
                // The R half's tallies are recorded as its own trace op
                // below, from the same pass.
                let db_budget = &self.db_budget;
                let r_budget = &self.r_budget;
                let mut text_total = 0u64;
                let mut text = String::new(); // one chunk at a time, reused
                let mut mat_stats = (0u64, 0u64); // (heap bytes, rows)
                let handle = tracer.exec(
                    OpKind::Export,
                    Phase::DataManagement,
                    format!("fused COPY TO: {} triples as CSV text", st.joined_rows),
                    || {
                        mem.note_input(st.reel.span_bytes());
                        db_budget.check("csv export")?;
                        let mut mat = Matrix::zeros_budgeted(rows, cols, r_budget)?;
                        let survivors = storage::fused_scan(
                            &st.reel,
                            st.threads,
                            |m| st.probe(m),
                            |m, sel| {
                                if sel.is_empty() {
                                    return Ok(());
                                }
                                text.clear();
                                storage::csv_selected(m, sel, &mut text);
                                text_total += text.len() as u64;
                                storage::scatter_csv_triples(
                                    &text, &row_index, &col_index, r_budget, &mut mat,
                                )
                            },
                        )?;
                        if survivors != expected {
                            return Err(Error::invalid(format!(
                                "fused export saw {survivors} survivors, expected {expected}"
                            )));
                        }
                        mem.note_output(text_total, st.joined_rows as u64);
                        mem.note_batches(n_batches);
                        mem.note_selected(survivors);
                        r_budget.free(mat.heap_bytes());
                        mat_stats = (mat.heap_bytes(), mat.rows() as u64);
                        DenseHandle::new(mem, mat)
                    },
                )?;
                tracer.record(
                    OpKind::Restructure,
                    Phase::DataManagement,
                    "R read.csv + pivot to matrix (fused pass)".to_string(),
                    OpCost {
                        bytes_in: text_total,
                        bytes_out: mat_stats.0,
                        peak_alloc_bytes: mem.peak(),
                        rows_materialized: mat_stats.1,
                        batches: n_batches,
                        rows_selected: expected,
                        ..OpCost::default()
                    },
                );
                handle
            }
            Bridge::InProcess | Bridge::InDatabase => {
                let db_budget = &self.db_budget;
                tracer.exec(
                    OpKind::Restructure,
                    Phase::DataManagement,
                    format!("fused pivot to {rows}x{cols} matrix"),
                    || {
                        db_budget.check("pivot")?;
                        mem.note_input(st.reel.span_bytes());
                        db_budget.alloc((rows * cols * 8) as u64, (rows * cols) as u64)?;
                        let mut data = vec![0.0; rows * cols];
                        let survivors = storage::fused_scan(
                            &st.reel,
                            st.threads,
                            |m| st.probe(m),
                            |m, sel| {
                                storage::scatter_selected(
                                    m, sel, 1, 0, 2, &row_index, &col_index, cols, &mut data,
                                )
                            },
                        )?;
                        if survivors != expected {
                            return Err(Error::invalid(format!(
                                "fused pivot saw {survivors} survivors, expected {expected}"
                            )));
                        }
                        db_budget.free((rows * cols * 8) as u64);
                        let mat = Matrix::from_vec(rows, cols, data)?;
                        mem.note_output(mat.heap_bytes(), mat.rows() as u64);
                        mem.note_batches(n_batches);
                        mem.note_selected(survivors);
                        DenseHandle::new(mem, mat)
                    },
                )?
            }
        };
        self.mat = Some(self.udf_marshal(mat, tracer)?);
        Ok(())
    }

    fn run_kernel(&mut self, kernel: Kernel, tracer: &mut Tracer) -> Result<()> {
        let params = self.params;
        let r_opts = self.r_opts.clone();
        match kernel {
            Kernel::Regression => {
                let (method, label) = if self.spec.bridge == Bridge::InDatabase {
                    // Madlib linregr: one streaming normal-equation pass.
                    (
                        RegressionMethod::NormalEquations,
                        "Madlib linregr: streaming normal equations",
                    )
                } else {
                    (RegressionMethod::Qr, "R lm(): QR least squares")
                };
                let mat = self.mat()?;
                let (y, gene_ids) = (&self.y, &self.gene_ids);
                let out = tracer.exec(OpKind::Analytics, Phase::Analytics, label, || {
                    analytics::fit_regression(mat, y, gene_ids, method, &r_opts)
                })?;
                self.output = Some(out);
            }
            Kernel::Covariance => {
                let cov = if self.spec.bridge == Bridge::InDatabase {
                    let (patient_ids, gene_ids) = (&self.patient_ids, &self.gene_ids);
                    let db_budget = &self.db_budget;
                    let stream_scan;
                    let scan: &dyn TripleScan = match self.stream.as_ref() {
                        Some(st) => {
                            stream_scan = st.scan();
                            &stream_scan
                        }
                        None => self.joined()?,
                    };
                    tracer.exec(
                        OpKind::Analytics,
                        Phase::Analytics,
                        "covariance simulated in SQL: pair-product hash aggregate",
                        || {
                            let cov = sql_sim_covariance(scan, patient_ids, gene_ids, db_budget)?;
                            Ok(analytics::pairs_from_cov(&cov, params.top_pair_fraction))
                        },
                    )?
                } else {
                    let mat = self.mat()?;
                    tracer.exec(
                        OpKind::Analytics,
                        Phase::Analytics,
                        "R cov() + top-fraction threshold",
                        || analytics::covariance_pairs(mat, params.top_pair_fraction, &r_opts),
                    )?
                };
                self.cov = Some(cov);
            }
            Kernel::Biclustering => {
                let mat = self.mat()?;
                let (patient_ids, gene_ids) = (&self.patient_ids, &self.gene_ids);
                let out = tracer.exec(
                    OpKind::Analytics,
                    Phase::Analytics,
                    "Cheng-Church delta-biclustering (R UDF)",
                    || {
                        analytics::bicluster_output(
                            mat,
                            patient_ids,
                            gene_ids,
                            &params.bicluster,
                            &r_opts,
                        )
                    },
                )?;
                self.output = Some(out);
            }
            Kernel::Svd => {
                let out = if self.spec.bridge == Bridge::InDatabase {
                    // Madlib SVD: Lanczos whose matvec is simulated in SQL.
                    let (patient_ids, gene_ids) = (&self.patient_ids, &self.gene_ids);
                    let stream_scan;
                    let scan: &dyn TripleScan = match self.stream.as_ref() {
                        Some(st) => {
                            stream_scan = st.scan();
                            &stream_scan
                        }
                        None => self.joined()?,
                    };
                    tracer.exec(
                        OpKind::Analytics,
                        Phase::Analytics,
                        "Lanczos with SQL-simulated matvec (two triple scans/iter)",
                        || {
                            let op = SqlSimGramOp::new(scan, patient_ids, gene_ids);
                            let k = params.svd_k.min(gene_ids.len()).max(1);
                            let res = lanczos_topk(&op, k, 0, params.seed, &r_opts)?;
                            Ok(QueryOutput::Svd {
                                eigenvalues: res.eigenvalues,
                            })
                        },
                    )?
                } else {
                    let mat = self.mat()?;
                    tracer.exec(
                        OpKind::Analytics,
                        Phase::Analytics,
                        "R svd(): Lanczos top-k eigenpairs",
                        || analytics::svd_output(mat, params.svd_k, params.seed, &r_opts),
                    )?
                };
                self.output = Some(out);
            }
            Kernel::Enrichment => {
                let (scores, memberships) = (&self.scores, &self.memberships);
                let out = tracer.exec(
                    OpKind::Analytics,
                    Phase::Analytics,
                    "per-GO-term wilcox.test",
                    || analytics::enrichment_output(scores, memberships, &r_opts),
                )?;
                self.output = Some(out);
            }
        }
        Ok(())
    }
}

/// One covariance output row: `(gene_a, gene_b, cov, function_a, function_b)`.
pub type CovRow = (i64, i64, f64, i64, i64);

/// Join covariance pairs back to gene metadata (function codes).
pub fn attach_gene_metadata(
    idx_pairs: &[(usize, usize, f64)],
    gene_ids: &[i64],
    functions: &HashMap<i64, i64>,
) -> Result<Vec<CovRow>> {
    idx_pairs
        .iter()
        .map(|&(a, b, v)| {
            let ga = gene_ids[a];
            let gb = gene_ids[b];
            let fa = *functions
                .get(&ga)
                .ok_or_else(|| Error::invalid(format!("no metadata for gene {ga}")))?;
            let fb = *functions
                .get(&gb)
                .ok_or_else(|| Error::invalid(format!("no metadata for gene {gb}")))?;
            Ok((ga, gb, v, fa, fb))
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use genbase_datagen::{generate, GeneratorConfig, SizeSpec};

    fn mem() -> MemTracker {
        MemTracker::unlimited()
    }

    fn tiny() -> Dataset {
        generate(&GeneratorConfig::new(SizeSpec::tiny())).unwrap()
    }

    #[test]
    fn stores_agree_on_filters() {
        let data = tiny();
        let row = SqlStore::ingest(StoreKind::Row, &data).unwrap();
        let col = SqlStore::ingest(StoreKind::Column, &data).unwrap();
        let b = Budget::unlimited();
        assert_eq!(
            row.filter_gene_ids(250, &b).unwrap(),
            col.filter_gene_ids(250, &b).unwrap()
        );
        let pred = Pred::IntEq(2, 1).and(Pred::IntLt(1, 40));
        assert_eq!(
            row.filter_patient_ids(&pred, &b).unwrap(),
            col.filter_patient_ids(&pred, &b).unwrap()
        );
    }

    #[test]
    fn join_and_pivot_reconstruct_submatrix() {
        let data = tiny();
        let store = SqlStore::ingest(StoreKind::Column, &data).unwrap();
        let b = Budget::unlimited();
        let gene_ids = store.filter_gene_ids(250, &b).unwrap();
        let joined = store.join_triples_on_genes(&gene_ids, &b, &mem()).unwrap();
        assert_eq!(joined.n_rows(), gene_ids.len() * data.n_patients());
        let patient_ids: Vec<i64> = (0..data.n_patients() as i64).collect();
        let mat = pivot(&joined, &patient_ids, &gene_ids, &b, &mem()).unwrap();
        assert_eq!(mat.shape(), (data.n_patients(), gene_ids.len()));
        for (ci, &g) in gene_ids.iter().enumerate() {
            for p in 0..data.n_patients() {
                assert_eq!(mat.get(p, ci), data.expression.get(p, g as usize));
            }
        }
    }

    #[test]
    fn export_bridge_matches_in_process_pivot() {
        let data = tiny();
        let store = SqlStore::ingest(StoreKind::Row, &data).unwrap();
        let b = Budget::unlimited();
        let gene_ids = store.filter_gene_ids(250, &b).unwrap();
        let joined = store.join_triples_on_genes(&gene_ids, &b, &mem()).unwrap();
        let patient_ids: Vec<i64> = (0..data.n_patients() as i64).collect();
        let direct = pivot(&joined, &patient_ids, &gene_ids, &b, &mem()).unwrap();
        let via_csv =
            export_and_pivot_in_r(&joined, &patient_ids, &gene_ids, &b, &b, &mem()).unwrap();
        assert!(direct.approx_eq(&via_csv, 0.0), "CSV round trip is exact");
    }

    #[test]
    fn udf_marshal_is_identity_on_values() {
        let mat = Matrix::from_fn(10, 7, |r, c| (r * 7 + c) as f64);
        let out = udf_row_marshal(&mat, &Budget::unlimited(), &mem()).unwrap();
        assert_eq!(mat, out);
    }

    #[test]
    fn sql_sim_covariance_matches_fast_path() {
        let data = tiny();
        let store = SqlStore::ingest(StoreKind::Row, &data).unwrap();
        let b = Budget::unlimited();
        let patient_ids: Vec<i64> = (0..20).collect();
        let joined = store
            .join_triples_on_patients(&patient_ids, &b, &mem())
            .unwrap();
        let gene_ids: Vec<i64> = (0..data.n_genes() as i64).collect();
        let slow = sql_sim_covariance(&joined, &patient_ids, &gene_ids, &b).unwrap();
        let mat = pivot(&joined, &patient_ids, &gene_ids, &b, &mem()).unwrap();
        let fast = genbase_linalg::covariance(&mat, &ExecOpts::serial()).unwrap();
        assert!(slow.approx_eq(&fast, 1e-9));
    }

    #[test]
    fn sql_sim_gram_op_matches_dense() {
        let data = tiny();
        let store = SqlStore::ingest(StoreKind::Column, &data).unwrap();
        let b = Budget::unlimited();
        let gene_ids = store.filter_gene_ids(250, &b).unwrap();
        let joined = store.join_triples_on_genes(&gene_ids, &b, &mem()).unwrap();
        let patient_ids: Vec<i64> = (0..data.n_patients() as i64).collect();
        let op = SqlSimGramOp::new(&joined, &patient_ids, &gene_ids);
        let mat = pivot(&joined, &patient_ids, &gene_ids, &b, &mem()).unwrap();
        let x: Vec<f64> = (0..gene_ids.len()).map(|i| (i % 5) as f64 - 2.0).collect();
        let mut y = vec![0.0; gene_ids.len()];
        op.apply(&x, &mut y).unwrap();
        let ax = genbase_linalg::matvec(&mat, &x);
        let expect = genbase_linalg::matvec_transposed(&mat, &ax);
        for (a, e) in y.iter().zip(&expect) {
            assert!((a - e).abs() < 1e-9);
        }
    }

    #[test]
    fn metadata_attachment() {
        let mut functions = HashMap::new();
        functions.insert(5i64, 100i64);
        functions.insert(9, 200);
        let pairs = attach_gene_metadata(&[(0, 1, 0.5)], &[5, 9], &functions).unwrap();
        assert_eq!(pairs, vec![(5, 9, 0.5, 100, 200)]);
        assert!(attach_gene_metadata(&[(0, 1, 0.5)], &[5, 7], &functions).is_err());
    }
}
