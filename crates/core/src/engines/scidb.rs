//! SciDB: the native array DBMS, plus the Xeon Phi offload configuration.
//!
//! Data management is dimension arithmetic — metadata filters yield
//! coordinate lists that subset the chunked expression array directly, and
//! "restructuring" is a cheap chunk-to-row gather. Analytics run
//! multithreaded (SciDB drives ScaLAPACK/custom code across instance
//! processes). This is why the paper finds SciDB "very competitive on this
//! benchmark".
//!
//! Physical lowering: coordinates *are* the join — the triple joins of the
//! logical plan fold away because the filtered dimension lists index the
//! array directly. With a coprocessor attached, the analytics op's measured
//! host time is replaced by the roofline model's device estimate (recorded
//! as a model-cost trace op; see `genbase-accel`).

use super::mn::{run_multinode, MnFlavor};
use crate::analytics::{self, KernelInput};
use crate::engine::{Engine, ExecContext};
use crate::plan::{
    self, Kernel, LogicalOp, OpCost, OpKind, Phase, PhysicalBackend, PlanSlot, Tracer,
};
use crate::query::{Query, QueryParams};
use crate::report::QueryReport;
use genbase_accel::{Coprocessor, OpProfile};
use genbase_array::{Array2D, AttrArray1D};
use genbase_datagen::Dataset;
use genbase_linalg::ExecOpts;
use genbase_storage::{self as storage, DenseHandle, MemTracker};
use genbase_util::{Budget, Error, Result};
use std::collections::HashMap;
use std::sync::Arc;

/// The SciDB configuration (single and multi node).
#[derive(Debug, Default)]
pub struct SciDb;

impl SciDb {
    /// New engine.
    pub fn new() -> SciDb {
        SciDb
    }
}

/// Array-native dataset: chunked 2-D expression + 1-D attribute arrays.
/// Immutable once ingested; every SciDB cell of a dataset borrows the one
/// copy in the dataset's [`super::loaded::LoadedTables`].
pub struct ArrayData {
    pub(crate) expression: Array2D,
    pub(crate) patients: AttrArray1D,
    pub(crate) genes: AttrArray1D,
}

impl ArrayData {
    /// Array ingest: chunk the dense expression matrix and build the
    /// attribute arrays. No tracker and no cell budget — what a cell is
    /// charged for the arrays it reads is [`charge_ingest`].
    pub(crate) fn ingest(data: &Dataset) -> Result<ArrayData> {
        let expression = Array2D::from_matrix(&data.expression, &Budget::unlimited())?;
        let patients = AttrArray1D::new(data.n_patients())
            .with_int_attr("age", data.patients.iter().map(|p| p.age).collect())?
            .with_int_attr("gender", data.patients.iter().map(|p| p.gender).collect())?
            .with_int_attr(
                "disease_id",
                data.patients.iter().map(|p| p.disease_id).collect(),
            )?
            .with_float_attr(
                "drug_response",
                data.patients.iter().map(|p| p.drug_response).collect(),
            )?;
        let genes = AttrArray1D::new(data.n_genes())
            .with_int_attr("function", data.genes.iter().map(|g| g.function).collect())?
            .with_int_attr("target", data.genes.iter().map(|g| g.target).collect())?;
        Ok(ArrayData {
            expression,
            patients,
            genes,
        })
    }

    /// Heap bytes of the chunked expression array (the attribute arrays
    /// are a rounding error beside it and were never accounted).
    pub fn heap_bytes(&self) -> u64 {
        self.expression.heap_bytes()
    }

    /// Gene coordinates passing the Query 1/4 filter: a native scan of the
    /// `function` attribute against the shared threshold.
    pub fn filter_genes(&self, params: &QueryParams) -> Vec<usize> {
        let threshold = params.function_threshold;
        self.genes.filter_coords(|r| r.int("function") < threshold)
    }

    /// Patient coordinates passing `query`'s filter (disease for Query 2,
    /// gender and age for Query 3), scanned off the attribute arrays.
    pub fn filter_patients(&self, query: Query, params: &QueryParams) -> Vec<usize> {
        self.patients.filter_coords(|r| match query {
            Query::Covariance => r.int("disease_id") == params.disease_id,
            _ => r.int("gender") == params.gender && r.int("age") < params.max_age,
        })
    }
}

/// Charge a cell (or one multi-node node) for the patient `rows` of the
/// chunked array it reads, exactly as when it chunked a private copy of
/// them ([`storage::chunked_from_dense`]): the dense input noted, the
/// resident chunks charged to the tracker for the run (so a `--mem-budget`
/// below them refuses the cell) and noted as output.
pub(crate) fn charge_ingest(
    data: &Dataset,
    rows: std::ops::Range<usize>,
    mem: &MemTracker,
) -> Result<()> {
    let cells = (rows.len() * data.n_genes()) as u64;
    mem.note_input(cells * 8);
    mem.charge(cells * 8)?;
    mem.note_output(cells * 8, rows.len() as u64);
    Ok(())
}

impl Engine for SciDb {
    fn name(&self) -> &'static str {
        "SciDB"
    }

    fn max_nodes(&self) -> usize {
        64
    }

    fn run(
        &self,
        query: Query,
        data: &Dataset,
        params: &QueryParams,
        ctx: &ExecContext,
    ) -> Result<QueryReport> {
        if ctx.nodes > 1 {
            return run_multinode(MnFlavor::SciDb, query, data, params, ctx);
        }
        run_scidb_single(query, data, params, ctx, None)
    }
}

/// Single-node SciDB execution; when `phi` is set, analytics times are
/// replaced by the coprocessor model's estimate derived from the measured
/// host time (see `genbase-accel`).
pub(crate) fn run_scidb_single(
    query: Query,
    data: &Dataset,
    params: &QueryParams,
    ctx: &ExecContext,
    phi: Option<&Coprocessor>,
) -> Result<QueryReport> {
    if phi.is_some() && query == Query::Regression {
        // MKL automatic offload of the regression path was not supported in
        // the paper ("a work-in-progress"); same here.
        return Err(Error::unsupported("SciDB + Xeon Phi", "regression offload"));
    }
    let budget = ctx.db_budget();
    let mem = ctx.mem_tracker();
    // Loaded once per dataset; charged per cell.
    let arrays = ctx.tables.arrays(data)?;
    charge_ingest(data, 0..data.n_patients(), &mem)?;
    let backend = ArrayBackend {
        data,
        params,
        query,
        opts: ExecOpts::with_threads(ctx.threads)
            .with_budget(budget.clone())
            .with_progress(ctx.progress.clone()),
        arrays,
        budget,
        mem: mem.clone(),
        threads: ctx.threads,
        deterministic: ctx.deterministic,
        phi,
        rows: Vec::new(),
        cols: Vec::new(),
        patient_ids: Vec::new(),
        mat: None,
        scores: Vec::new(),
    };
    plan::run_plan(backend, query, Tracer::new().with_mem(mem))
}

/// Physical state of one SciDB run: the chunked arrays plus whatever the
/// executed prefix of the plan has produced so far.
struct ArrayBackend<'a> {
    data: &'a Dataset,
    params: &'a QueryParams,
    query: Query,
    opts: ExecOpts,
    budget: Budget,
    mem: MemTracker,
    threads: usize,
    deterministic: bool,
    phi: Option<&'a Coprocessor>,
    arrays: Arc<ArrayData>,
    rows: Vec<usize>,
    cols: Vec<usize>,
    patient_ids: Vec<i64>,
    mat: Option<DenseHandle>,
    scores: Vec<f64>,
}

impl ArrayBackend<'_> {
    /// Gene id per column of the gathered matrix.
    fn gene_ids(&self) -> Vec<i64> {
        self.cols.iter().map(|&c| c as i64).collect()
    }

    /// Run one analytics kernel, translating its measured time through the
    /// Phi model when a coprocessor is attached. In deterministic-timing
    /// mode the measured input is zeroed, so the modeled device time
    /// depends only on the workload profile.
    fn kernel_op<T>(
        &self,
        tracer: &mut Tracer,
        label: &str,
        profile: Option<OpProfile>,
        f: impl FnOnce() -> Result<T>,
    ) -> Result<T> {
        match (self.phi, profile) {
            (Some(co), Some(p)) => {
                let start = std::time::Instant::now();
                let out = f()?;
                let measured = if self.deterministic {
                    0.0
                } else {
                    start.elapsed().as_secs_f64()
                };
                tracer.record(
                    OpKind::Analytics,
                    Phase::Analytics,
                    format!("{label} [Xeon Phi offload model]"),
                    OpCost {
                        wall_secs: 0.0,
                        sim_nanos: 0,
                        model_secs: co.scale_measured(measured, &p),
                        sim_bytes: p.transfer_bytes,
                        // The profile's modeled PCIe round trip is the
                        // op's data movement, charged as bytes read from
                        // host storage; the peak is whatever the gathered
                        // working set holds resident while the kernel runs
                        // (a recorded op bypasses the tracer's scope, so
                        // it reports the tracker's live bytes directly).
                        bytes_in: p.transfer_bytes,
                        peak_alloc_bytes: self.mem.current(),
                        ..OpCost::default()
                    },
                );
                Ok(out)
            }
            _ => tracer.exec(OpKind::Analytics, Phase::Analytics, label, f),
        }
    }
}

impl PhysicalBackend for ArrayBackend<'_> {
    fn execute(&mut self, op: LogicalOp, tracer: &mut Tracer, slot: &mut PlanSlot) -> Result<()> {
        let data = self.data;
        let params = self.params;
        let query = self.query;
        match op {
            LogicalOp::FilterGenes => {
                let arrays = &self.arrays;
                let cols = tracer.exec(
                    OpKind::Filter,
                    Phase::DataManagement,
                    format!(
                        "dimension filter: gene coords with function < {}",
                        params.function_threshold
                    ),
                    || Ok(arrays.filter_genes(params)),
                )?;
                params.check_selection(query, cols.len())?;
                self.cols = cols;
            }
            LogicalOp::FilterPatients => {
                let arrays = &self.arrays;
                let label = match query {
                    Query::Covariance => format!(
                        "dimension filter: patient coords with disease_id = {}",
                        params.disease_id
                    ),
                    _ => format!(
                        "dimension filter: patient coords with gender = {}, age < {}",
                        params.gender, params.max_age
                    ),
                };
                let rows = tracer.exec(OpKind::Filter, Phase::DataManagement, label, || {
                    Ok(arrays.filter_patients(query, params))
                })?;
                params.check_selection(query, rows.len())?;
                self.patient_ids = rows.iter().map(|&r| r as i64).collect();
                self.rows = rows;
            }
            LogicalOp::SamplePatients => {
                let count = params.sample_count(data.n_patients());
                let sampled = tracer.exec(
                    OpKind::Filter,
                    Phase::DataManagement,
                    format!("sample {count} patient coords (seeded)"),
                    || params.selected_patients(query, data),
                )?;
                self.rows = sampled;
            }
            // Coordinates are the join: the filtered dimension lists index
            // the chunked array directly, so the triple joins fold away.
            LogicalOp::JoinOnGenes | LogicalOp::JoinOnPatients | LogicalOp::JoinGoTerms => {}
            LogicalOp::Restructure => {
                match self.query {
                    Query::Regression | Query::Svd => {
                        self.rows = (0..data.n_patients()).collect();
                    }
                    _ => {
                        self.cols = (0..data.n_genes()).collect();
                    }
                }
                let arrays = &self.arrays;
                let (rows, cols) = (&self.rows, &self.cols);
                let (threads, budget) = (self.threads, &self.budget);
                let mem = &self.mem;
                let mat = tracer.exec(
                    OpKind::Restructure,
                    Phase::DataManagement,
                    format!("chunk gather: {}x{} submatrix", rows.len(), cols.len()),
                    || {
                        let mat = storage::gather_chunked(
                            &arrays.expression,
                            rows,
                            cols,
                            threads,
                            mem,
                            budget,
                        )?;
                        DenseHandle::new(mem, mat)
                    },
                )?;
                self.mat = Some(mat);
            }
            LogicalOp::GroupAgg => {
                let arrays = &self.arrays;
                let rows = &self.rows;
                let (threads, budget) = (self.threads, &self.budget);
                let mem = &self.mem;
                let n_genes = data.n_genes();
                let scores = tracer.exec(
                    OpKind::GroupAgg,
                    Phase::DataManagement,
                    "per-chunk column sums over the sampled rows",
                    || {
                        mem.note_input((rows.len() * n_genes * 8) as u64);
                        let sums = arrays
                            .expression
                            .column_sums_over_rows_par(rows, threads, budget)?;
                        mem.note_output((sums.len() * 8) as u64, sums.len() as u64);
                        Ok(sums
                            .iter()
                            .map(|s| s / rows.len().max(1) as f64)
                            .collect::<Vec<f64>>())
                    },
                )?;
                self.scores = scores;
            }
            LogicalOp::Analytics(kernel) => {
                let (n_rows, n_cols, n_genes) = (self.rows.len(), self.cols.len(), data.n_genes());
                let (label, profile) = match kernel {
                    Kernel::Regression => ("ScaLAPACK QR least squares", None),
                    Kernel::Covariance => (
                        "blocked covariance + top-fraction threshold",
                        Some(OpProfile::covariance(n_rows, n_genes)),
                    ),
                    Kernel::Biclustering => (
                        "Cheng-Church delta-biclustering",
                        Some(OpProfile::biclustering(n_rows, n_genes, 40)),
                    ),
                    Kernel::Svd => (
                        "Lanczos top-k eigenpairs",
                        Some(OpProfile::svd_lanczos(
                            data.n_patients(),
                            n_cols,
                            params.svd_k.min(n_cols),
                        )),
                    ),
                    Kernel::Enrichment => (
                        "per-GO-term Wilcoxon rank-sum",
                        Some(OpProfile::statistics(
                            n_rows,
                            n_genes,
                            data.ontology.n_terms(),
                        )),
                    ),
                };
                let gene_ids = self.gene_ids();
                let input = KernelInput {
                    mat: self.mat.as_ref().map(DenseHandle::matrix),
                    y: self.arrays.patients.float_attr("drug_response")?,
                    patient_ids: &self.patient_ids,
                    gene_ids: &gene_ids,
                    scores: &self.scores,
                    memberships: &data.ontology.members,
                    ..Default::default()
                };
                self.kernel_op(tracer, label, profile, || {
                    analytics::dense_kernel(kernel, &input, params, &self.opts, slot)
                })?;
            }
            LogicalOp::JoinGeneMetadata => {
                let cov = slot.take_cov()?;
                let arrays = &self.arrays;
                let out = tracer.exec(
                    OpKind::Join,
                    Phase::DataManagement,
                    "attribute lookup: function codes for top pairs",
                    || {
                        let functions: HashMap<i64, i64> = arrays
                            .genes
                            .int_attr("function")?
                            .iter()
                            .enumerate()
                            .map(|(g, &f)| (g as i64, f))
                            .collect();
                        analytics::covariance_output(cov, &self.gene_ids(), &functions)
                    },
                )?;
                slot.output = Some(out);
            }
        }
        Ok(())
    }
}

/// SciDB with the analytics offloaded to the modeled Intel Xeon Phi 5110P.
/// Single-node only: Table 1 models multi-node Phi from SciDB's own cells.
#[derive(Debug)]
pub struct SciDbPhi {
    co: Coprocessor,
}

impl SciDbPhi {
    /// New engine with the paper's Phi-on-E5 configuration.
    pub fn new() -> SciDbPhi {
        SciDbPhi {
            co: Coprocessor::phi_on_e5(),
        }
    }
}

impl Default for SciDbPhi {
    fn default() -> Self {
        Self::new()
    }
}

impl Engine for SciDbPhi {
    fn name(&self) -> &'static str {
        "SciDB + Xeon Phi"
    }

    fn supports(&self, query: Query) -> bool {
        // Regression offload was unsupported in the paper's MKL release.
        query != Query::Regression
    }

    fn run(
        &self,
        query: Query,
        data: &Dataset,
        params: &QueryParams,
        ctx: &ExecContext,
    ) -> Result<QueryReport> {
        run_scidb_single(query, data, params, ctx, Some(&self.co))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use genbase_datagen::{generate, GeneratorConfig, SizeSpec};

    fn tiny() -> Dataset {
        generate(&GeneratorConfig::new(SizeSpec::tiny())).unwrap()
    }

    #[test]
    fn scidb_runs_all_queries() {
        let data = tiny();
        let params = QueryParams::for_dataset(&data);
        let ctx = ExecContext::single_node();
        let engine = SciDb::new();
        for q in Query::ALL {
            let report = engine.run(q, &data, &params, &ctx).unwrap();
            assert_eq!(report.output.query(), q);
        }
    }

    #[test]
    fn scidb_matches_vanilla_r_outputs() {
        let data = tiny();
        let params = QueryParams::for_dataset(&data);
        let ctx = ExecContext::single_node();
        let scidb = SciDb::new();
        let r = super::super::vanilla_r::VanillaR::new();
        for q in Query::ALL {
            let a = scidb.run(q, &data, &params, &ctx).unwrap().output;
            let b = r.run(q, &data, &params, &ctx).unwrap().output;
            assert!(
                a.consistency_error(&b, 1e-6).is_none(),
                "{q:?}: {:?}",
                a.consistency_error(&b, 1e-6)
            );
        }
    }

    #[test]
    fn phi_rejects_regression_and_charges_sim_time() {
        let data = tiny();
        let params = QueryParams::for_dataset(&data);
        let ctx = ExecContext::single_node();
        let phi = SciDbPhi::new();
        assert!(!phi.supports(Query::Regression));
        assert!(phi.run(Query::Regression, &data, &params, &ctx).is_err());
        let report = phi.run(Query::Covariance, &data, &params, &ctx).unwrap();
        assert!(
            report.phases().analytics.sim_secs > 0.0,
            "modeled device time"
        );
        assert_eq!(report.phases().analytics.wall_secs, 0.0);
        // The offload shows up as a model-cost analytics op in the trace.
        let offload = report
            .trace
            .ops
            .iter()
            .find(|op| op.label.contains("offload model"))
            .expect("offload op traced");
        assert!(offload.cost.model_secs > 0.0);
        assert!(offload.cost.sim_bytes > 0);
        // Output still verified against the plain SciDB run.
        let plain = SciDb::new()
            .run(Query::Covariance, &data, &params, &ctx)
            .unwrap();
        assert!(report
            .output
            .consistency_error(&plain.output, 1e-9)
            .is_none());
    }
}
