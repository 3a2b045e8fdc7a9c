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

use crate::analytics::{self, KernelInput};
use crate::engine::ExecContext;
use crate::plan::{
    self, Kernel, LogicalOp, OpCost, OpKind, Phase, PhysicalBackend, PlanSlot, Tracer,
};
use crate::query::{Query, QueryOutput, QueryParams};
use crate::report::QueryReport;
use genbase_datagen::Dataset;
use genbase_linalg::{lanczos_topk, ExecOpts, LinearOp, Matrix, RegressionMethod};
use genbase_relational::{ColumnTable, DataType, Pred, RowTable, Schema, Value};
use genbase_storage::{
    self as storage, BatchReel, CachePin, CacheScope, CacheValue, ColumnarTable, DenseHandle,
    MemTracker, Morsel,
};
use genbase_util::{Budget, Error, IdIndex, Result};
use std::collections::HashMap;
use std::sync::Arc;

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
const PATIENT_COLS: [&str; 6] = [
    "patient_id",
    "age",
    "gender",
    "zipcode",
    "disease_id",
    "drug_response",
];

/// Gene-table column names, in schema order (predicate labels).
const GENE_COLS: [&str; 5] = ["gene_id", "target", "position", "length", "function"];

/// The two dimensions of the microarray. A metadata filter scans one
/// dimension's table; a triple join probes that dimension's id column.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Dim {
    /// Genes: the gene table, triple column 0.
    Genes,
    /// Patients: the patient table, triple column 1.
    Patients,
}

impl Dim {
    /// The dimension a filter or join op works on.
    fn of(op: LogicalOp) -> Dim {
        match op {
            LogicalOp::FilterGenes | LogicalOp::JoinOnGenes => Dim::Genes,
            _ => Dim::Patients,
        }
    }

    /// The dimension's id column: its name, and its position in a triple.
    fn key(self) -> (&'static str, usize) {
        match self {
            Dim::Genes => ("gene_id", 0),
            Dim::Patients => ("patient_id", 1),
        }
    }

    /// Column names of the dimension's metadata table (predicate labels).
    fn cols(self) -> &'static [&'static str] {
        match self {
            Dim::Genes => &GENE_COLS,
            Dim::Patients => &PATIENT_COLS,
        }
    }

    /// What a join's label calls the ids it probes with.
    fn selection(self) -> &'static str {
        match self {
            Dim::Genes => "filtered genes",
            Dim::Patients => "selected patients",
        }
    }
}

/// `query`'s metadata filter as the stores' native predicate — over the gene
/// table for Queries 1/4, the patient table for Queries 2/3 — with its
/// constants from the shared parameters. The scan stays the store's own.
pub fn filter_pred(query: Query, params: &QueryParams) -> Pred {
    match query {
        Query::Covariance => Pred::IntEq(4, params.disease_id),
        Query::Biclustering => Pred::IntEq(2, params.gender).and(Pred::IntLt(1, params.max_age)),
        _ => Pred::IntLt(4, params.function_threshold),
    }
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
/// the row store decodes the joined tuples out of its pages into columns,
/// the column store gathers them from its own. Downstream
/// consumers (pivot, export, the Madlib SQL-simulation paths) are written
/// once against this one representation.
pub type TripleSet = ColumnarTable;

impl SqlStore {
    /// Load a dataset into the store. The paper times queries against
    /// loaded data, and so does the wall clock here:
    /// [`super::loaded::LoadedTables`] is the only caller, once per dataset
    /// and store kind, and every cell of that dataset borrows the result.
    /// Without `with_triples` only the metadata tables load (streaming: the
    /// microarray triples live in a [`genbase_storage::Spool`] instead of a
    /// base table; the store keeps empty triple tables so every metadata
    /// path is unchanged).
    pub fn ingest(kind: StoreKind, data: &Dataset, with_triples: bool) -> Result<SqlStore> {
        // The metadata tables' rows, stated once; each store lays them out
        // its own way.
        let patients = data.patients.iter().map(|p| {
            vec![
                Value::Int(p.id as i64),
                Value::Int(p.age),
                Value::Int(p.gender),
                Value::Int(p.zipcode),
                Value::Int(p.disease_id),
                Value::Float(p.drug_response),
            ]
        });
        let genes = data.genes.iter().map(|g| {
            vec![
                Value::Int(g.id as i64),
                Value::Int(g.target),
                Value::Int(g.position),
                Value::Int(g.length),
                Value::Int(g.function),
            ]
        });
        let go = data.ontology.members.iter().enumerate();
        let go = go.flat_map(|(term, members)| {
            let pair = move |&g| vec![Value::Int(i64::from(g)), Value::Int(term as i64)];
            members.iter().map(pair)
        });
        // The triples are each store's own ingest — row inserts against
        // three column vectors is the paper's row-vs-column contrast.
        match kind {
            StoreKind::Row => {
                let mut triples = RowTable::new(storage::triple_schema());
                if with_triples {
                    for p in 0..data.n_patients() {
                        for (g, &v) in data.expression.row(p).iter().enumerate() {
                            triples.insert(&[
                                Value::Int(g as i64),
                                Value::Int(p as i64),
                                Value::Float(v),
                            ])?;
                        }
                    }
                }
                Ok(SqlStore::Row {
                    triples,
                    patients: RowTable::from_rows(patient_schema(), patients)?,
                    genes: RowTable::from_rows(gene_schema(), genes)?,
                    go: RowTable::from_rows(go_schema(), go)?,
                })
            }
            StoreKind::Column => {
                let cells = if with_triples {
                    data.expression.data().len()
                } else {
                    0
                };
                Ok(SqlStore::Column {
                    triples: ColumnTable::from_columns(
                        storage::triple_schema(),
                        storage::triple_columns(&data.expression, 0..cells),
                    )?,
                    patients: ColumnTable::from_rows(patient_schema(), patients)?,
                    genes: ColumnTable::from_rows(gene_schema(), genes)?,
                    go: ColumnTable::from_rows(go_schema(), go)?,
                })
            }
        }
    }

    /// Distinct ids of the `dim` metadata rows matching `pred`, ascending —
    /// the same list from either store, whatever the table repeats.
    pub fn filter_ids(&self, dim: Dim, pred: &Pred, budget: &Budget) -> Result<Vec<i64>> {
        match self {
            SqlStore::Row {
                genes, patients, ..
            } => {
                let table = if dim == Dim::Genes { genes } else { patients };
                table.filter_project(pred, &[0], budget)?.distinct_ints(0)
            }
            SqlStore::Column {
                genes, patients, ..
            } => {
                let table = if dim == Dim::Genes { genes } else { patients };
                let sel = table.select(pred, budget)?;
                let mut ids: Vec<i64> = {
                    let col = table.int_col(0)?;
                    sel.iter().map(|&i| col[i as usize]).collect()
                };
                ids.sort_unstable();
                ids.dedup();
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

    /// The join's accounting, shared by the cold path and a cache hit: the
    /// base-table read; on the row store, the read of the selected tuples
    /// decoded out of their pages; then the working set's charge and output
    /// note.
    fn account_join(&self, joined: ColumnTable, mem: &MemTracker) -> Result<TripleSet> {
        match self {
            SqlStore::Row { triples, .. } => {
                mem.note_input(triples.heap_bytes());
                mem.note_input(joined.heap_bytes());
            }
            SqlStore::Column { triples, .. } => mem.note_input(triples.heap_bytes()),
        }
        storage::columnar_from_column_table(mem, joined)
    }

    /// Join the microarray triples against a set of distinct `dim` ids,
    /// projecting `(gene_id, patient_id, value)` into the unified columnar
    /// working set. Memoized under `cache`: a hit skips the probe and the
    /// gather, rebuilding the working set from the cached columns with the
    /// cold path's accounting; a miss publishes its columns. `shape` names
    /// the source dataset (`patients x genes`).
    pub fn join_triples(
        &self,
        dim: Dim,
        ids: &[i64],
        cache: Option<&CacheScope>,
        shape: (usize, usize),
        budget: &Budget,
        mem: &MemTracker,
    ) -> Result<(TripleSet, Option<CachePin>)> {
        let Some(scope) = cache else {
            return Ok((self.join_cold(dim, ids, budget, mem)?, None));
        };
        let conversion = match dim {
            Dim::Genes => "join-genes",
            Dim::Patients => "join-patients",
        };
        let extra = format!("{}|{:016x}", self.kind_tag(), storage::digest_ids(ids));
        let key = scope.key(shape.0, shape.1, conversion, &extra);
        match scope.cache().begin(&key) {
            storage::Lookup::Hit(value, pin) => {
                let cached = value
                    .as_columnar()
                    .ok_or_else(|| Error::invalid("cache type confusion on a join key"))?;
                let table = self.account_join(cached.clone(), mem)?;
                mem.note_cache_hit();
                Ok((table, Some(pin)))
            }
            storage::Lookup::Build(slot) => {
                let table = self.join_cold(dim, ids, budget, mem)?;
                let cached = CacheValue::Columnar(ColumnTable::clone(&table));
                let pin = slot.fill(cached).map(|(_, pin)| pin);
                Ok((table, pin))
            }
        }
    }

    /// The join behind [`SqlStore::join_triples`]: the ids are a set of
    /// primary keys, so joining on them is a semijoin — each store probes
    /// its own key column for positions, then gathers those rows.
    fn join_cold(
        &self,
        dim: Dim,
        ids: &[i64],
        budget: &Budget,
        mem: &MemTracker,
    ) -> Result<TripleSet> {
        let index = IdIndex::new(ids);
        // Only a repeated id would make the join emit a triple twice.
        if index.len() != ids.len() {
            return Err(Error::invalid(format!(
                "triple join needs distinct ids: {} listed, {} distinct",
                ids.len(),
                index.len()
            )));
        }
        let column = dim.key().1;
        let joined = match self {
            SqlStore::Row { triples, .. } => {
                triples.gather(&triples.select_in(column, &index, budget)?)
            }
            SqlStore::Column { triples, .. } => {
                triples.gather(&triples.select_in(column, &index, budget)?)
            }
        };
        self.account_join(joined, mem)
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
        let (genes, patients, values) = (self.int_col(0)?, self.int_col(1)?, self.float_col(2)?);
        for ((&g, &p), &v) in genes.iter().zip(patients).zip(values) {
            f(g, p, v);
        }
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

/// The UDF marshalling penalty observed by the paper on the biclustering
/// query: the column store's R-UDF interface hands the matrix over
/// row-at-a-time through boxed records rather than as one block. We
/// reproduce the mechanism: every row is converted to a `Vec<Value>` and
/// back (allocation + boxing per cell).
fn udf_row_marshal(mat: &Matrix, budget: &Budget, mem: &MemTracker) -> Result<Matrix> {
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
    /// Row or column storage.
    pub kind: StoreKind,
    /// Analytics bridge.
    pub bridge: Bridge,
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
}

impl SqlBackend<'_> {
    fn joined(&self) -> Result<&TripleSet> {
        self.joined
            .as_ref()
            .ok_or_else(|| Error::invalid("triple join did not run before this op"))
    }

    /// Query 1's targets — the join op fetches them with the triples —
    /// for `self.patient_ids`; empty for every other query.
    fn responses(&self) -> Result<Vec<f64>> {
        if self.query == Query::Regression {
            self.store.drug_responses(&self.patient_ids)
        } else {
            Ok(Vec::new())
        }
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

    fn execute(&mut self, op: LogicalOp, tracer: &mut Tracer, slot: &mut PlanSlot) -> Result<()> {
        let data = self.data;
        let params = self.params;
        match op {
            LogicalOp::FilterGenes | LogicalOp::FilterPatients => {
                let dim = Dim::of(op);
                let pred = filter_pred(self.query, params);
                let (store, db_budget) = (&self.store, &self.db_budget);
                let ids = tracer.exec(
                    OpKind::Filter,
                    Phase::DataManagement,
                    format!("SELECT {} WHERE {}", dim.key().0, pred.describe(dim.cols())),
                    || store.filter_ids(dim, &pred, db_budget),
                )?;
                params.check_selection(self.query, ids.len())?;
                match dim {
                    Dim::Genes => self.gene_ids = ids,
                    Dim::Patients => self.patient_ids = ids,
                }
            }
            LogicalOp::SamplePatients => {
                let count = params.sample_count(data.n_patients());
                let sampled = tracer.exec(
                    OpKind::Filter,
                    Phase::DataManagement,
                    format!("TABLESAMPLE: {count} seeded patient ids"),
                    || params.selected_patients(self.query, data),
                )?;
                self.patient_ids = sampled.iter().map(|&p| p as i64).collect();
            }
            LogicalOp::JoinOnGenes | LogicalOp::JoinOnPatients => {
                let dim = Dim::of(op);
                // The dimension the join does not probe is unfiltered.
                match dim {
                    Dim::Genes => self.patient_ids = (0..data.n_patients() as i64).collect(),
                    Dim::Patients => self.gene_ids = (0..data.n_genes() as i64).collect(),
                }
                if self.stream.is_some() {
                    self.stage_semijoin(dim, tracer)?;
                } else {
                    self.semijoin_triples(dim, tracer)?;
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
                            || storage::export_csv_tracked(joined, mem, db_budget),
                        )?;
                        let (patient_ids, gene_ids) = (&self.patient_ids, &self.gene_ids);
                        let r_budget = &self.r_budget;
                        tracer.exec(
                            OpKind::Restructure,
                            Phase::DataManagement,
                            "R read.csv + pivot to matrix",
                            || {
                                let mat = storage::pivot_csv_tracked(
                                    &text,
                                    patient_ids,
                                    gene_ids,
                                    mem,
                                    r_budget,
                                )?;
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
                                // One pivot kernel for every engine, run
                                // single-threaded: the pivot happens inside
                                // one Postgres/column-store backend process.
                                let mat = storage::pivot_dense(
                                    &joined.view(),
                                    (1, 0, 2),
                                    patient_ids,
                                    gene_ids,
                                    1,
                                    mem,
                                    db_budget,
                                )?;
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
                    let joined = self.joined()?;
                    tracer.exec(OpKind::GroupAgg, Phase::DataManagement, label, || {
                        mem.note_input(joined.heap_bytes());
                        mem.note_output((n_genes * 8) as u64, n_genes as u64);
                        let mut scores = vec![0.0; n_genes];
                        for (g, s, c) in joined.group_sum(0, 2)? {
                            if (g as usize) < scores.len() && c > 0 {
                                scores[g as usize] = s / c as f64;
                            }
                        }
                        Ok(scores)
                    })?
                };
                self.scores = scores;
            }
            LogicalOp::Analytics(kernel) => self.run_kernel(kernel, tracer, slot)?,
            LogicalOp::JoinGeneMetadata => {
                let cov = slot.take_cov()?;
                let (store, gene_ids) = (&self.store, &self.gene_ids);
                let out = tracer.exec(
                    OpKind::Join,
                    Phase::DataManagement,
                    "join top pairs back to gene function codes",
                    || analytics::covariance_output(cov, gene_ids, &store.gene_functions()?),
                )?;
                slot.output = Some(out);
            }
        }
        Ok(())
    }
}

impl SqlBackend<'_> {
    /// Materializing lowering of the triple joins: semijoin the base table
    /// against the ids selected on `dim` (see [`SqlStore::join_triples`]),
    /// traced under the paper's name for the operator, "hash join".
    fn semijoin_triples(&mut self, dim: Dim, tracer: &mut Tracer) -> Result<()> {
        let ids = match dim {
            Dim::Genes => &self.gene_ids,
            Dim::Patients => &self.patient_ids,
        };
        let label = format!("hash join: triples x {} {}", ids.len(), dim.selection());
        let shape = (self.data.n_patients(), self.data.n_genes());
        let (joined, pin, y) = tracer.exec(OpKind::Join, Phase::DataManagement, label, || {
            let (store, cache) = (&self.store, self.cache.as_ref());
            let (joined, pin) =
                store.join_triples(dim, ids, cache, shape, &self.db_budget, &self.mem)?;
            Ok((joined, pin, self.responses()?))
        })?;
        self.pins.extend(pin);
        self.joined = Some(joined);
        self.y = y;
        Ok(())
    }

    /// Streaming lowering of the triple joins: stage the join as a semijoin
    /// filter only — no reel pass at all. The matched-row count the
    /// materialized join would have output is known analytically (the reel
    /// is the dense patient x gene cross product) and verified by the
    /// consuming operator's probe+sink pass later.
    fn stage_semijoin(&mut self, dim: Dim, tracer: &mut Tracer) -> Result<()> {
        let (n_genes, n_patients) = (self.data.n_genes(), self.data.n_patients());
        let (ids, n_dim, n_other) = match dim {
            Dim::Genes => (&self.gene_ids, n_genes, n_patients),
            Dim::Patients => (&self.patient_ids, n_patients, n_genes),
        };
        let filter = IdIndex::new(ids);
        let matched = StreamState::domain_count(&filter, n_dim) * n_other;
        let label = format!("stage semijoin: {} {} (fused)", ids.len(), dim.selection());
        let y = tracer.exec(OpKind::Join, Phase::DataManagement, label, || {
            self.mem.note_selected(matched as u64);
            self.responses()
        })?;
        let st = self.stream.as_mut().expect("streaming state");
        match dim {
            Dim::Genes => st.gene_filter = Some(filter),
            Dim::Patients => st.patient_filter = Some(filter),
        }
        st.joined_rows = matched;
        self.y = y;
        Ok(())
    }

    /// The UDF marshalling penalty of Query 3 on the R-UDF interface
    /// ([`Bridge::InProcess`], column store + UDFs), traced as its own
    /// `Marshal` op after the restructure (a no-op for every other
    /// bridge/query pair).
    fn udf_marshal(&self, mat: DenseHandle, tracer: &mut Tracer) -> Result<DenseHandle> {
        if !(self.spec.bridge == Bridge::InProcess && self.query == Query::Biclustering) {
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

    fn run_kernel(&self, kernel: Kernel, tracer: &mut Tracer, slot: &mut PlanSlot) -> Result<()> {
        if self.analytics_on_triples() {
            return self.sql_sim_kernel(kernel, tracer, slot);
        }
        // Madlib linregr is one streaming normal-equation pass.
        let in_db = self.spec.bridge == Bridge::InDatabase;
        let label = match kernel {
            Kernel::Regression if in_db => "Madlib linregr: streaming normal equations",
            Kernel::Regression => "R lm(): QR least squares",
            Kernel::Covariance => "R cov() + top-fraction threshold",
            Kernel::Biclustering => "Cheng-Church delta-biclustering (R UDF)",
            Kernel::Svd => "R svd(): Lanczos top-k eigenpairs",
            Kernel::Enrichment => "per-GO-term wilcox.test",
        };
        let input = KernelInput {
            mat: self.mat.as_ref().map(DenseHandle::matrix),
            y: &self.y,
            method: if in_db {
                RegressionMethod::NormalEquations
            } else {
                RegressionMethod::Qr
            },
            patient_ids: &self.patient_ids,
            gene_ids: &self.gene_ids,
            scores: &self.scores,
            memberships: &self.memberships,
        };
        tracer.exec(OpKind::Analytics, Phase::Analytics, label, || {
            analytics::dense_kernel(kernel, &input, self.params, &self.r_opts, slot)
        })
    }

    /// Madlib covariance and SVD: no dense kernel ever runs — the matrix
    /// math is simulated in SQL over the triple table (the reel's survivors
    /// when streaming, the joined set otherwise).
    fn sql_sim_kernel(
        &self,
        kernel: Kernel,
        tracer: &mut Tracer,
        slot: &mut PlanSlot,
    ) -> Result<()> {
        let (params, r_opts, db_budget) = (self.params, &self.r_opts, &self.db_budget);
        let (patient_ids, gene_ids) = (&self.patient_ids, &self.gene_ids);
        let stream_scan;
        let scan: &dyn TripleScan = match self.stream.as_ref() {
            Some(st) => {
                stream_scan = st.scan();
                &stream_scan
            }
            None => self.joined()?,
        };
        if kernel == Kernel::Covariance {
            let cov = tracer.exec(
                OpKind::Analytics,
                Phase::Analytics,
                "covariance simulated in SQL: pair-product hash aggregate",
                || {
                    let cov = sql_sim_covariance(scan, patient_ids, gene_ids, db_budget)?;
                    analytics::pairs_from_cov(&cov, params.top_pair_fraction)
                },
            )?;
            slot.cov = Some(cov);
        } else {
            let out = tracer.exec(
                OpKind::Analytics,
                Phase::Analytics,
                "Lanczos with SQL-simulated matvec (two triple scans/iter)",
                || {
                    let op = SqlSimGramOp::new(scan, patient_ids, gene_ids);
                    let k = params.svd_k.min(gene_ids.len()).max(1);
                    let res = lanczos_topk(&op, k, 0, params.seed, r_opts)?;
                    Ok(QueryOutput::Svd {
                        eigenvalues: res.eigenvalues,
                    })
                },
            )?;
            slot.output = Some(out);
        }
        Ok(())
    }
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

    fn filtered_genes(store: &SqlStore) -> Vec<i64> {
        let (pred, b) = (Pred::IntLt(4, 250), Budget::unlimited());
        store.filter_ids(Dim::Genes, &pred, &b).unwrap()
    }

    fn join(store: &SqlStore, dim: Dim, ids: &[i64]) -> TripleSet {
        let joined = store.join_triples(dim, ids, None, (0, 0), &Budget::unlimited(), &mem());
        joined.unwrap().0
    }

    fn pivot_in_db(set: &TripleSet, patient_ids: &[i64], gene_ids: &[i64]) -> Matrix {
        let (view, b) = (set.view(), Budget::unlimited());
        storage::pivot_dense(&view, (1, 0, 2), patient_ids, gene_ids, 1, &mem(), &b).unwrap()
    }

    /// Both stores over a hand-built gene table whose ids repeat, with no
    /// triples and no patients or GO pairs.
    fn stores_with_gene_rows(genes: &[[i64; 5]]) -> [SqlStore; 2] {
        let rows = || {
            genes
                .iter()
                .map(|g| g.iter().map(|&v| Value::Int(v)).collect())
        };
        [
            SqlStore::Row {
                triples: RowTable::new(storage::triple_schema()),
                patients: RowTable::new(patient_schema()),
                genes: RowTable::from_rows(gene_schema(), rows()).unwrap(),
                go: RowTable::new(go_schema()),
            },
            SqlStore::Column {
                triples: ColumnTable::from_rows(storage::triple_schema(), []).unwrap(),
                patients: ColumnTable::from_rows(patient_schema(), []).unwrap(),
                genes: ColumnTable::from_rows(gene_schema(), rows()).unwrap(),
                go: ColumnTable::from_rows(go_schema(), []).unwrap(),
            },
        ]
    }

    #[test]
    fn stores_agree_on_filters() {
        let data = tiny();
        let row = SqlStore::ingest(StoreKind::Row, &data, true).unwrap();
        let col = SqlStore::ingest(StoreKind::Column, &data, true).unwrap();
        let b = Budget::unlimited();
        assert_eq!(filtered_genes(&row), filtered_genes(&col));
        let pred = Pred::IntEq(2, 1).and(Pred::IntLt(1, 40));
        assert_eq!(
            row.filter_ids(Dim::Patients, &pred, &b).unwrap(),
            col.filter_ids(Dim::Patients, &pred, &b).unwrap()
        );
        // A metadata table that repeats an id: both stores list it once, so
        // the join's distinct-ids check passes on both.
        let [row, col] = stores_with_gene_rows(&[
            [9, 0, 0, 0, 10],
            [3, 0, 0, 0, 20],
            [9, 1, 1, 1, 30],
            [5, 0, 0, 0, 900],
            [3, 2, 2, 2, 40],
        ]);
        for store in [&row, &col] {
            let ids = filtered_genes(store);
            assert_eq!(ids, [3, 9]);
            assert_eq!(join(store, Dim::Genes, &ids).n_rows(), 0);
        }
    }

    /// The join op's `(bytes_in, bytes_out, peak_alloc_bytes,
    /// rows_materialized)` on `kind`'s store over the tiny dataset, cold and
    /// then replayed from the artifact cache, with the base tables charged
    /// the way a cell charges them.
    fn join_op_accounting(kind: StoreKind, dim: Dim) -> Vec<(u64, u64, u64, u64)> {
        let data = tiny();
        let store = SqlStore::ingest(kind, &data, true).unwrap();
        let ids = match dim {
            Dim::Genes => filtered_genes(&store),
            Dim::Patients => (0..20).collect(),
        };
        let scope = CacheScope::new(storage::ArtifactCache::new(1 << 30), "accounting");
        let shape = (data.n_patients(), data.n_genes());
        (0..2)
            .map(|hits| {
                let mem = mem();
                mem.charge(store.heap_bytes()).unwrap();
                let op = mem.op_begin();
                let b = Budget::unlimited();
                let joined = store.join_triples(dim, &ids, Some(&scope), shape, &b, &mem);
                let d = mem.op_delta(op);
                assert_eq!(d.cache_hits, hits, "{kind:?} {dim:?}");
                drop(joined.unwrap());
                (
                    d.bytes_in,
                    d.bytes_out,
                    d.peak_alloc_bytes,
                    d.rows_materialized,
                )
            })
            .collect()
    }

    #[test]
    fn join_accounting_is_pinned_cold_and_cached() {
        // Read off the general hash join's build (PR 24) and held since.
        let pinned = [
            (StoreKind::Row, Dim::Genes, (92_856, 19_200, 117_368, 800)),
            (
                StoreKind::Row,
                Dim::Patients,
                (102_456, 28_800, 126_968, 1_200),
            ),
            (StoreKind::Column, Dim::Genes, (72_000, 19_200, 96_800, 800)),
            (
                StoreKind::Column,
                Dim::Patients,
                (72_000, 28_800, 106_400, 1_200),
            ),
        ];
        for (kind, dim, want) in pinned {
            assert_eq!(
                join_op_accounting(kind, dim),
                [want, want],
                "{kind:?} {dim:?}"
            );
        }
    }

    #[test]
    fn join_and_pivot_reconstruct_submatrix() {
        let data = tiny();
        let store = SqlStore::ingest(StoreKind::Column, &data, true).unwrap();
        let gene_ids = filtered_genes(&store);
        let joined = join(&store, Dim::Genes, &gene_ids);
        assert_eq!(joined.n_rows(), gene_ids.len() * data.n_patients());
        let patient_ids: Vec<i64> = (0..data.n_patients() as i64).collect();
        let mat = pivot_in_db(&joined, &patient_ids, &gene_ids);
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
        let store = SqlStore::ingest(StoreKind::Row, &data, true).unwrap();
        let b = Budget::unlimited();
        let gene_ids = filtered_genes(&store);
        let joined = join(&store, Dim::Genes, &gene_ids);
        let patient_ids: Vec<i64> = (0..data.n_patients() as i64).collect();
        let direct = pivot_in_db(&joined, &patient_ids, &gene_ids);
        let text = storage::export_csv_tracked(&joined, &mem(), &b).unwrap();
        let via_csv =
            storage::pivot_csv_tracked(&text, &patient_ids, &gene_ids, &mem(), &b).unwrap();
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
        let store = SqlStore::ingest(StoreKind::Row, &data, true).unwrap();
        let patient_ids: Vec<i64> = (0..20).collect();
        let joined = join(&store, Dim::Patients, &patient_ids);
        let gene_ids: Vec<i64> = (0..data.n_genes() as i64).collect();
        let b = Budget::unlimited();
        let slow = sql_sim_covariance(&joined, &patient_ids, &gene_ids, &b).unwrap();
        let mat = pivot_in_db(&joined, &patient_ids, &gene_ids);
        let fast = genbase_linalg::covariance(&mat, &ExecOpts::serial()).unwrap();
        assert!(slow.approx_eq(&fast, 1e-9));
    }

    #[test]
    fn sql_sim_gram_op_matches_dense() {
        let data = tiny();
        let store = SqlStore::ingest(StoreKind::Column, &data, true).unwrap();
        let gene_ids = filtered_genes(&store);
        let joined = join(&store, Dim::Genes, &gene_ids);
        let patient_ids: Vec<i64> = (0..data.n_patients() as i64).collect();
        let op = SqlSimGramOp::new(&joined, &patient_ids, &gene_ids);
        let mat = pivot_in_db(&joined, &patient_ids, &gene_ids);
        let x: Vec<f64> = (0..gene_ids.len()).map(|i| (i % 5) as f64 - 2.0).collect();
        let mut y = vec![0.0; gene_ids.len()];
        op.apply(&x, &mut y).unwrap();
        let ax = genbase_linalg::matvec(&mat, &x);
        let expect = genbase_linalg::matvec_transposed(&mat, &ax);
        for (a, e) in y.iter().zip(&expect) {
            assert!((a - e).abs() < 1e-9);
        }
    }
}
