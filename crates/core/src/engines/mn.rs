//! Generic multi-node query execution.
//!
//! The paper's multi-node configurations all follow the same macro-plan —
//! partition the microarray by patient rows, run data management locally on
//! each node, then run distributed analytics with rooted collectives — and
//! differ in the *local* mechanics: pbdR works on raw R matrices, SciDB on
//! chunked arrays, the column-store variants on columnar tables (with
//! Column store + pbdR additionally paying a per-node CSV export into the
//! analytics runtime).
//!
//! Every kernel is numerically identical to its single-node counterpart, so
//! integration tests can assert multi-node == single-node outputs while the
//! costs diverge.
//!
//! Trace granularity: a multi-node run reports the *critical path* — the
//! per-phase maximum across nodes — so its plan trace is two synthesized
//! ops (the per-node data-management pipeline and the distributed kernel)
//! whose model costs are exactly those maxima. Finer per-op tracing across
//! nodes would change the critical-path combination (a sum of per-op maxima
//! is not the maximum of per-node sums), so the coarse trace is the one
//! that keeps phase totals faithful.

use crate::analytics::{self, KernelInput};
use crate::engine::{ExecContext, PhaseClock};
use crate::plan::{Kernel, OpCost, OpKind, Phase, PlanSlot, PlanTrace, Tracer};
use crate::query::{Query, QueryOutput, QueryParams};
use crate::report::QueryReport;
use genbase_array::Array2D;
use genbase_cluster::{
    dist::{dist_column_sums_selected, row_bands},
    dist_covariance, dist_least_squares, gather_matrix, Cluster, DistGramOp, NodeCtx,
};
use genbase_datagen::Dataset;
use genbase_linalg::{lanczos_topk, ExecOpts, Matrix};
use genbase_storage::{self as storage, ColumnarTable, MemDelta, MemTracker};
use genbase_util::{csv, Budget, Error, Result};

/// Which multi-node configuration is running.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MnFlavor {
    /// SciDB: chunk-partitioned array engine.
    SciDb,
    /// Column store + UDFs: columnar DM, in-process distributed analytics.
    ColumnUdf,
    /// Column store + pbdR: columnar DM + CSV export into pbdR.
    ColumnPbdr,
    /// pbdR alone: pre-partitioned R matrices.
    Pbdr,
}

/// Per-node storage, held in the unified storage layer: a dense band
/// (pbdR), a chunked band (SciDB), or a columnar triple band (the column
/// stores). Every representation registers with the node's [`MemTracker`],
/// and the selects below go through the shared conversion kernels.
enum LocalStore {
    Pbdr { mat: Matrix },
    SciDb { arr: Array2D },
    Column { triples: ColumnarTable },
}

impl LocalStore {
    fn build(
        flavor: MnFlavor,
        data: &Dataset,
        band: std::ops::Range<usize>,
        budget: &Budget,
        mem: &MemTracker,
    ) -> Result<LocalStore> {
        let rows: Vec<usize> = band.clone().collect();
        match flavor {
            MnFlavor::Pbdr => {
                let mat = data.expression.select_rows(&rows);
                mem.charge(mat.heap_bytes())?;
                Ok(LocalStore::Pbdr { mat })
            }
            MnFlavor::SciDb => {
                let band_mat = data.expression.select_rows(&rows);
                Ok(LocalStore::SciDb {
                    arr: storage::chunked_from_dense(mem, &band_mat, budget)?,
                })
            }
            MnFlavor::ColumnUdf | MnFlavor::ColumnPbdr => {
                let cells = band.start * data.n_genes()..band.end * data.n_genes();
                Ok(LocalStore::Column {
                    triples: ColumnarTable::from_columns(
                        mem,
                        storage::triple_schema(),
                        storage::triple_columns(&data.expression, cells),
                    )?,
                })
            }
        }
    }

    /// Local band restricted to the given gene columns (Query 1/4 DM).
    /// The columnar flavor pivots its triple band straight through the
    /// storage layer's dense kernel: the id maps *are* the semijoin.
    fn select_cols(
        &self,
        cols: &[usize],
        band: &std::ops::Range<usize>,
        threads: usize,
        budget: &Budget,
        mem: &MemTracker,
    ) -> Result<Matrix> {
        let local = match self {
            LocalStore::Pbdr { mat } => storage::select_cols_tracked(mem, mat, cols),
            LocalStore::SciDb { arr } => {
                let rows: Vec<usize> = (0..arr.rows()).collect();
                storage::gather_chunked(arr, &rows, cols, threads, mem, budget)?
            }
            LocalStore::Column { triples } => {
                let gene_ids: Vec<i64> = cols.iter().map(|&c| c as i64).collect();
                let patient_ids: Vec<i64> = band.clone().map(|p| p as i64).collect();
                storage::pivot_dense(
                    &triples.view(),
                    (1, 0, 2),
                    &patient_ids,
                    &gene_ids,
                    threads,
                    mem,
                    budget,
                )?
            }
        };
        // The local working set stays resident through the distributed
        // kernel: charge it like the single-node engines' DenseHandles
        // (released with the node's tracker).
        mem.charge(local.heap_bytes())?;
        Ok(local)
    }

    /// Local band restricted to the given *local* row positions over all
    /// genes (Query 2/3/5 DM).
    fn select_rows(
        &self,
        local_rows: &[usize],
        band: &std::ops::Range<usize>,
        n_genes: usize,
        threads: usize,
        budget: &Budget,
        mem: &MemTracker,
    ) -> Result<Matrix> {
        let local = match self {
            LocalStore::Pbdr { mat } => storage::select_rows_tracked(mem, mat, local_rows),
            LocalStore::SciDb { arr } => {
                let cols: Vec<usize> = (0..n_genes).collect();
                storage::gather_chunked(arr, local_rows, &cols, threads, mem, budget)?
            }
            LocalStore::Column { triples } => {
                let patient_ids: Vec<i64> = local_rows
                    .iter()
                    .map(|&r| (band.start + r) as i64)
                    .collect();
                let gene_ids: Vec<i64> = (0..n_genes as i64).collect();
                storage::pivot_dense(
                    &triples.view(),
                    (1, 0, 2),
                    &patient_ids,
                    &gene_ids,
                    threads,
                    mem,
                    budget,
                )?
            }
        };
        // See select_cols: the local band selection is kernel-resident.
        mem.charge(local.heap_bytes())?;
        Ok(local)
    }
}

/// Column store + pbdR exports each node's filtered matrix as CSV text into
/// the R runtime; this is that round trip (bit-exact, but not free).
fn maybe_export_to_r(
    flavor: MnFlavor,
    mat: Matrix,
    budget: &Budget,
    mem: &MemTracker,
) -> Result<Matrix> {
    if flavor != MnFlavor::ColumnPbdr || mat.rows() == 0 {
        // Nothing to export on an empty local selection (and CSV text
        // cannot carry the column count of a zero-row matrix).
        return Ok(mat);
    }
    budget.check("pbdR export")?;
    mem.note_input(mat.heap_bytes());
    let text = csv::write_matrix(mat.data(), mat.rows(), mat.cols());
    mem.note_output(text.len() as u64, mat.rows() as u64);
    let (data, rows, cols) = csv::parse_matrix(&text)?;
    mem.note_input(text.len() as u64);
    let out = Matrix::from_vec(rows, cols, data)?;
    // The parsed copy replaces the exported matrix (same shape): swap the
    // residency charge rather than double-counting.
    mem.release(mat.heap_bytes());
    mem.charge(out.heap_bytes())?;
    mem.note_output(out.heap_bytes(), out.rows() as u64);
    Ok(out)
}

struct NodeOut {
    dm_wall: f64,
    dm_sim: f64,
    an_wall: f64,
    an_sim: f64,
    dm_mem: MemDelta,
    output: Option<QueryOutput>,
}

/// Run one query on a simulated cluster of `ctx.nodes` nodes.
pub fn run_multinode(
    flavor: MnFlavor,
    query: Query,
    data: &Dataset,
    params: &QueryParams,
    ctx: &ExecContext,
) -> Result<QueryReport> {
    let cluster = Cluster::new(ctx.nodes, ctx.net);
    let bands = row_bands(data.n_patients(), ctx.nodes);
    let threads = ctx.threads_per_node();
    let bands_ref = &bands;

    let (results, _) = cluster.run(|nctx: &mut NodeCtx| -> Result<NodeOut> {
        let band = bands_ref[nctx.rank()].clone();
        let budget = ctx.db_budget();
        // Each simulated node holds its working sets under its own
        // storage-layer tracker (per-node `--mem-budget`); the critical-path
        // trace reports the per-node maximum, matching the time combination.
        let mem = MemTracker::new(ctx.mem_budget);
        let opts = ExecOpts::with_threads(threads).with_budget(budget.clone());
        let store = LocalStore::build(flavor, data, band.clone(), &budget, &mem)?; // untimed
        let dm_scope = mem.op_begin();
        let root = nctx.rank() == 0;
        let mut out = NodeOut {
            dm_wall: 0.0,
            dm_sim: 0.0,
            an_wall: 0.0,
            an_sim: 0.0,
            dm_mem: MemDelta::default(),
            output: None,
        };
        let sim = nctx.sim.clone();
        // Every node knows the whole selection (metadata is replicated);
        // its share is the selected patients inside its row band.
        let local_rows = |selected: &[usize]| -> Vec<usize> {
            let mine = selected.iter().filter(|&&p| band.contains(&p));
            mine.map(|&p| p - band.start).collect()
        };
        // The node's share of a patient selection, as its analytics runtime
        // receives it.
        let select_rows = |local_rows: &[usize]| {
            let n_genes = data.n_genes();
            let sel = store.select_rows(local_rows, &band, n_genes, threads, &budget, &mem)?;
            maybe_export_to_r(flavor, sel, &budget, &mem)
        };
        // A kernel the root runs by itself, on what was gathered to it.
        let root_kernel = |kernel: Kernel, input: KernelInput| {
            let mut slot = PlanSlot::default();
            analytics::dense_kernel(kernel, &input, params, &opts, &mut slot)?;
            Ok::<_, Error>(slot.output)
        };
        match query {
            Query::Regression => {
                let clock = PhaseClock::start();
                let cols = params.selected_genes(query, data)?;
                let local_x = store.select_cols(&cols, &band, threads, &budget, &mem)?;
                let local_x = maybe_export_to_r(flavor, local_x, &budget, &mem)?;
                let local_y: Vec<f64> = band
                    .clone()
                    .map(|p| data.patients[p].drug_response)
                    .collect();
                out.dm_wall = clock.secs();
                out.dm_sim = sim.total_secs();

                let clock = PhaseClock::start();
                // Intercept column + TSQR least squares.
                let aug = Matrix::from_fn(local_x.rows(), local_x.cols() + 1, |r, c| {
                    if c == 0 {
                        1.0
                    } else {
                        local_x.get(r, c - 1)
                    }
                });
                let beta = dist_least_squares(nctx, &aug, &local_y, &opts)?;
                // Distributed R²: allreduce the fit's sufficient statistics.
                let mut stats = analytics::FitStats::default();
                for (r, &y) in local_y.iter().enumerate() {
                    analytics::accumulate_fit(&mut stats, &beta, local_x.row(r), y);
                }
                nctx.allreduce_sum(&mut stats)?;
                out.an_wall = clock.secs();
                out.an_sim = sim.total_secs() - out.dm_sim;
                if root {
                    let gene_ids: Vec<i64> = cols.iter().map(|&c| c as i64).collect();
                    out.output = Some(analytics::regression_output(&beta, &gene_ids, &stats));
                }
            }
            Query::Covariance => {
                let clock = PhaseClock::start();
                let local_rows = local_rows(&params.selected_patients(query, data)?);
                let local_sel = select_rows(&local_rows)?;
                out.dm_wall = clock.secs();
                out.dm_sim = sim.total_secs();

                let clock = PhaseClock::start();
                let mut count = [local_rows.len() as f64];
                nctx.allreduce_sum(&mut count)?;
                let cov = dist_covariance(nctx, &local_sel, count[0] as usize, &opts)?;
                out.an_wall = clock.secs();
                out.an_sim = sim.total_secs() - out.dm_sim;

                if root {
                    let clock = PhaseClock::start();
                    let pairs = analytics::pairs_from_cov(&cov, params.top_pair_fraction);
                    let gene_ids: Vec<i64> = (0..data.n_genes() as i64).collect();
                    let functions = analytics::gene_functions(data);
                    out.output = Some(analytics::covariance_output(pairs, &gene_ids, &functions)?);
                    out.dm_wall += clock.secs();
                }
            }
            Query::Biclustering => {
                let clock = PhaseClock::start();
                let local_rows = local_rows(&params.selected_patients(query, data)?);
                let local_sel = select_rows(&local_rows)?;
                // Gather the filtered submatrix to the root (with the ids).
                let ids_f64: Vec<f64> = local_rows
                    .iter()
                    .map(|&r| (band.start + r) as f64)
                    .collect();
                let gathered_ids = nctx.gather_f64s(0, &ids_f64)?;
                let gathered = gather_matrix(nctx, 0, &local_sel)?;
                out.dm_wall = clock.secs();
                out.dm_sim = sim.total_secs();

                if root {
                    let clock = PhaseClock::start();
                    let mat = gathered.expect("root gathers");
                    let patient_ids: Vec<i64> = gathered_ids
                        .expect("root gathers")
                        .into_iter()
                        .flatten()
                        .map(|f| f as i64)
                        .collect();
                    let gene_ids: Vec<i64> = (0..data.n_genes() as i64).collect();
                    let input = KernelInput {
                        mat: Some(&mat),
                        patient_ids: &patient_ids,
                        gene_ids: &gene_ids,
                        ..Default::default()
                    };
                    out.output = root_kernel(Kernel::Biclustering, input)?;
                    out.an_wall = clock.secs();
                    out.an_sim = sim.total_secs() - out.dm_sim;
                }
            }
            Query::Svd => {
                let clock = PhaseClock::start();
                let cols = params.selected_genes(query, data)?;
                let local_x = store.select_cols(&cols, &band, threads, &budget, &mem)?;
                let local_x = maybe_export_to_r(flavor, local_x, &budget, &mem)?;
                out.dm_wall = clock.secs();
                out.dm_sim = sim.total_secs();

                let clock = PhaseClock::start();
                let op = DistGramOp::new(nctx, &local_x);
                let k = params.svd_k.min(cols.len()).max(1);
                let res = lanczos_topk(&op, k, 0, params.seed, &opts)?;
                out.an_wall = clock.secs();
                out.an_sim = sim.total_secs() - out.dm_sim;
                if root {
                    out.output = Some(QueryOutput::Svd {
                        eigenvalues: res.eigenvalues,
                    });
                }
            }
            Query::Statistics => {
                let clock = PhaseClock::start();
                let sampled = params.selected_patients(query, data)?;
                let local_rows = local_rows(&sampled);
                let local_sel = select_rows(&local_rows)?;
                out.dm_wall = clock.secs();
                out.dm_sim = sim.total_secs();

                let clock = PhaseClock::start();
                let all_local: Vec<usize> = (0..local_sel.rows()).collect();
                let sums = dist_column_sums_selected(nctx, &local_sel, &all_local)?;
                if root {
                    let scores: Vec<f64> = sums
                        .iter()
                        .map(|s| s / sampled.len().max(1) as f64)
                        .collect();
                    let input = KernelInput {
                        scores: &scores,
                        memberships: &data.ontology.members,
                        ..Default::default()
                    };
                    out.output = root_kernel(Kernel::Enrichment, input)?;
                }
                out.an_wall = clock.secs();
                out.an_sim = sim.total_secs() - out.dm_sim;
            }
        }
        out.dm_mem = mem.op_delta(dm_scope);
        Ok(out)
    })?;

    // Critical-path combination: max across nodes per phase; output from
    // the root.
    let (mut dm_wall, mut dm_sim, mut an_wall, mut an_sim) = (0.0f64, 0.0f64, 0.0f64, 0.0f64);
    let mut dm_mem = MemDelta::default();
    let mut output = None;
    for node in results {
        dm_wall = dm_wall.max(node.dm_wall);
        dm_sim = dm_sim.max(node.dm_sim);
        an_wall = an_wall.max(node.an_wall);
        an_sim = an_sim.max(node.an_sim);
        dm_mem.bytes_in = dm_mem.bytes_in.max(node.dm_mem.bytes_in);
        dm_mem.bytes_out = dm_mem.bytes_out.max(node.dm_mem.bytes_out);
        dm_mem.peak_alloc_bytes = dm_mem.peak_alloc_bytes.max(node.dm_mem.peak_alloc_bytes);
        dm_mem.rows_materialized = dm_mem.rows_materialized.max(node.dm_mem.rows_materialized);
        dm_mem.batches = dm_mem.batches.max(node.dm_mem.batches);
        dm_mem.spill_bytes = dm_mem.spill_bytes.max(node.dm_mem.spill_bytes);
        if node.output.is_some() {
            output = node.output;
        }
    }
    let output = output.ok_or_else(|| Error::invalid("no node produced output"))?;
    Ok(QueryReport::from_trace(
        output,
        critical_path_trace(flavor, ctx.nodes, dm_wall, dm_sim, an_wall, an_sim, dm_mem),
    ))
}

/// The two-op critical-path trace of a multi-node run (see module docs).
/// The memory dimension follows the same combination: the data-management
/// op carries the per-node *maximum* of each storage-layer counter.
fn critical_path_trace(
    flavor: MnFlavor,
    nodes: usize,
    dm_wall: f64,
    dm_sim: f64,
    an_wall: f64,
    an_sim: f64,
    dm_mem: MemDelta,
) -> PlanTrace {
    let mut tracer = Tracer::new();
    tracer.record(
        OpKind::Restructure,
        Phase::DataManagement,
        format!("per-node filter/join/restructure ({flavor:?}, critical path over {nodes} nodes)"),
        OpCost {
            wall_secs: dm_wall,
            sim_nanos: 0,
            model_secs: dm_sim,
            sim_bytes: 0,
            ..OpCost::default()
        }
        .with_mem(dm_mem),
    );
    tracer.record(
        OpKind::Analytics,
        Phase::Analytics,
        format!("distributed kernel + collectives (critical path over {nodes} nodes)"),
        OpCost {
            wall_secs: an_wall,
            sim_nanos: 0,
            model_secs: an_sim,
            sim_bytes: 0,
            ..OpCost::default()
        },
    );
    tracer.finish()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::Engine;
    use genbase_datagen::{generate, GeneratorConfig, SizeSpec};

    #[test]
    fn all_flavors_run_all_queries_on_two_nodes() {
        let data = generate(&GeneratorConfig::new(SizeSpec::tiny())).unwrap();
        let params = QueryParams::for_dataset(&data);
        let ctx = ExecContext::multi_node(2);
        for flavor in [
            MnFlavor::Pbdr,
            MnFlavor::SciDb,
            MnFlavor::ColumnUdf,
            MnFlavor::ColumnPbdr,
        ] {
            for q in Query::ALL {
                let report = run_multinode(flavor, q, &data, &params, &ctx)
                    .unwrap_or_else(|e| panic!("{flavor:?}/{q:?}: {e}"));
                assert_eq!(report.output.query(), q);
            }
        }
    }

    #[test]
    fn multinode_matches_single_node_scidb() {
        let data = generate(&GeneratorConfig::new(SizeSpec::tiny())).unwrap();
        let params = QueryParams::for_dataset(&data);
        let single = ExecContext::single_node();
        let scidb = super::super::scidb::SciDb::new();
        for q in Query::ALL {
            let reference = scidb.run(q, &data, &params, &single).unwrap().output;
            for nodes in [2usize, 4] {
                let ctx = ExecContext::multi_node(nodes);
                let got = run_multinode(MnFlavor::Pbdr, q, &data, &params, &ctx)
                    .unwrap()
                    .output;
                assert!(
                    got.consistency_error(&reference, 1e-5).is_none(),
                    "{q:?} nodes={nodes}: {:?}",
                    got.consistency_error(&reference, 1e-5)
                );
            }
        }
    }
}
