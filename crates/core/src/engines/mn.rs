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
//! No node builds storage. The cell fetches the dataset's loaded base table
//! once ([`ExecContext::tables`]: the dense expression matrix for pbdR,
//! SciDB's chunked arrays, the column store's triple table for the column
//! flavors) and every node reads its own patient band of it in place. Each
//! node is still charged that band as if it held a private copy — 8 B a
//! cell dense or chunked, 24 B a cell as triples — before its
//! data-management scope opens, so traces and `--mem-budget` refusals are
//! what a per-node copy gave.
//!
//! Trace granularity: a multi-node run reports the *critical path* — the
//! per-phase maximum across nodes — so its plan trace is two synthesized
//! ops (the per-node data-management pipeline and the distributed kernel)
//! whose model costs are exactly those maxima. Finer per-op tracing across
//! nodes would change the critical-path combination (a sum of per-op maxima
//! is not the maximum of per-node sums), so the coarse trace is the one
//! that keeps phase totals faithful.

use super::scidb;
use super::sql_common::{SqlStore, StoreKind};
use crate::analytics::{self, KernelInput};
use crate::engine::{ExecContext, PhaseClock};
use crate::plan::{Kernel, OpCost, OpKind, Phase, PlanSlot, PlanTrace, Tracer};
use crate::query::{Query, QueryOutput, QueryParams};
use crate::report::QueryReport;
use genbase_array::Array2D;
use genbase_cluster::{
    dist::{dist_column_sums_selected, row_bands},
    dist_covariance, dist_least_squares, gather_matrix, Cluster, DistGramOp, NetModel, NodeCtx,
};
use genbase_datagen::Dataset;
use genbase_linalg::{lanczos_topk, ExecOpts, Matrix};
use genbase_storage::{self as storage, MemDelta, MemTracker, TableView};
use genbase_util::{csv, Budget, Error, Result};
use std::ops::Range;

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

/// The dataset's loaded base table in a flavor's representation, borrowed
/// by every node of the cell: the dense expression matrix (pbdR), SciDB's
/// chunked expression array, or a view of the column store's triple table
/// (the column flavors).
#[derive(Clone, Copy)]
enum Base<'a> {
    Dense(&'a Matrix),
    Chunked(&'a Array2D),
    Triples(TableView<'a>),
}

impl<'a> Base<'a> {
    /// A node's patient `band` of the table, charged as a private copy of
    /// it would be (see the module docs; SciDB's notes are
    /// [`scidb::charge_ingest`]'s). A triple band is the table's rows
    /// `band.start * genes..band.end * genes`.
    fn band(self, data: &Dataset, band: &Range<usize>, mem: &MemTracker) -> Result<Base<'a>> {
        let genes = data.n_genes();
        match self {
            Base::Dense(_) => mem.charge((band.len() * genes * 8) as u64)?,
            Base::Chunked(_) => scidb::charge_ingest(data, band.clone(), mem)?,
            Base::Triples(view) => {
                let view = view.subview(band.start * genes, band.end * genes)?;
                mem.charge(view.span_bytes())?;
                return Ok(Base::Triples(view));
            }
        }
        Ok(self)
    }

    /// The `rows` x `cols` submatrix, `rows` being global patient ids. The
    /// triple flavor pivots its band straight through the storage layer's
    /// dense kernel: the id maps *are* the semijoin. The result stays
    /// resident through the distributed kernel, so it is charged like the
    /// single-node engines' `DenseHandle`s (released with the node's
    /// tracker).
    fn select(
        self,
        rows: &[usize],
        cols: &[usize],
        threads: usize,
        budget: &Budget,
        mem: &MemTracker,
    ) -> Result<Matrix> {
        let local = match self {
            Base::Dense(mat) => storage::select_tracked(mem, mat, rows, cols),
            Base::Chunked(arr) => storage::gather_chunked(arr, rows, cols, threads, mem, budget)?,
            Base::Triples(view) => {
                let patient_ids: Vec<i64> = rows.iter().map(|&r| r as i64).collect();
                let gene_ids: Vec<i64> = cols.iter().map(|&c| c as i64).collect();
                storage::pivot_dense(
                    &view,
                    (1, 0, 2),
                    &patient_ids,
                    &gene_ids,
                    threads,
                    mem,
                    budget,
                )?
            }
        };
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
    let cluster = Cluster::new(ctx.nodes, NetModel::gigabit());
    let bands = row_bands(data.n_patients(), ctx.nodes);
    let threads = ctx.threads_per_node();
    let bands_ref = &bands;
    // The dataset's loaded table, fetched once for all nodes.
    let (arrays, store);
    let base = match flavor {
        MnFlavor::Pbdr => Base::Dense(&data.expression),
        MnFlavor::SciDb => {
            arrays = ctx.tables.arrays(data)?;
            Base::Chunked(&arrays.expression)
        }
        MnFlavor::ColumnUdf | MnFlavor::ColumnPbdr => {
            store = ctx.tables.store(StoreKind::Column, true, data)?;
            let SqlStore::Column { triples, .. } = &*store else {
                return Err(Error::invalid("the column store loaded as a row store"));
            };
            Base::Triples(TableView::new(triples))
        }
    };

    let (results, _) = cluster.run(|nctx: &mut NodeCtx| -> Result<NodeOut> {
        let band = bands_ref[nctx.rank()].clone();
        let budget = ctx.db_budget();
        // Each simulated node holds its working sets under its own
        // storage-layer tracker (per-node `--mem-budget`); the critical-path
        // trace reports the per-node maximum, matching the time combination.
        let mem = MemTracker::new(ctx.mem_budget);
        let opts = ExecOpts::with_threads(threads).with_budget(budget.clone());
        let base = base.band(data, &band, &mem)?;
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
            let mine = selected.iter().filter(|p| band.contains(p));
            mine.copied().collect()
        };
        // The node's `rows` x `cols` of the table, as its analytics runtime
        // receives it.
        let select = |rows: &[usize], cols: &[usize]| {
            let sel = base.select(rows, cols, threads, &budget, &mem)?;
            maybe_export_to_r(flavor, sel, &budget, &mem)
        };
        let band_rows: Vec<usize> = band.clone().collect();
        let all_genes: Vec<usize> = (0..data.n_genes()).collect();
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
                let local_x = select(&band_rows, &cols)?;
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
                let local_sel = select(&local_rows, &all_genes)?;
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
                    let pairs = analytics::pairs_from_cov(&cov, params.top_pair_fraction)?;
                    let gene_ids: Vec<i64> = (0..data.n_genes() as i64).collect();
                    let functions = analytics::gene_functions(data);
                    out.output = Some(analytics::covariance_output(pairs, &gene_ids, &functions)?);
                    out.dm_wall += clock.secs();
                }
            }
            Query::Biclustering => {
                let clock = PhaseClock::start();
                let local_rows = local_rows(&params.selected_patients(query, data)?);
                let local_sel = select(&local_rows, &all_genes)?;
                // Gather the filtered submatrix to the root (with the ids).
                let ids_f64: Vec<f64> = local_rows.iter().map(|&r| r as f64).collect();
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
                let local_x = select(&band_rows, &cols)?;
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
                let local_sel = select(&local_rows, &all_genes)?;
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
    Ok(QueryReport {
        output,
        trace: critical_path_trace(flavor, ctx.nodes, dm_wall, dm_sim, an_wall, an_sim, dm_mem),
    })
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
