//! Hadoop: Hive-style data management + Mahout-style analytics, all as
//! MapReduce jobs over the `genbase-mapreduce` runtime.
//!
//! The paper: "Hadoop is good at neither data management nor analytics.
//! Data management is slow because Hive has only rudimentary query
//! optimization and analytics are slow because matrix operations are not
//! done through a high performance linear algebra package." Both properties
//! hold here by construction. Hadoop runs only the queries Mahout-era
//! tooling could express: regression, covariance and statistics (no
//! biclustering, no SVD).
//!
//! Physical lowering: every logical op becomes one or more MapReduce jobs
//! (each paying the simulated launch latency), except the tiny driver-side
//! steps (metadata filters, the sample draw). The tracer is attached to the
//! job runtime's [`genbase_util::SimClock`], so each traced op carries the
//! exact simulated nanoseconds its jobs charged.

use crate::analytics::{self, KernelInput};
use crate::engine::{Engine, ExecContext};
use crate::plan::{self, Kernel, LogicalOp, OpKind, Phase, PhysicalBackend, PlanSlot, Tracer};
use crate::query::{Query, QueryParams};
use crate::report::QueryReport;
use genbase_cluster::NetModel;
use genbase_datagen::Dataset;
use genbase_linalg::{cholesky::Cholesky, ExecOpts, Matrix};
use genbase_mapreduce::hive::{Cell, HiveTable};
use genbase_mapreduce::job::JobConfig;
use genbase_mapreduce::mahout;
use genbase_storage::MemTracker;
use genbase_util::{Error, Result};
use std::collections::HashSet;
use std::sync::Mutex;

/// The process's one simulated Hadoop cluster. A run owns every task slot
/// (the cost model sizes each job from `sim_threads` as if it did), so
/// concurrent runs — server connections, `--jobs` sweep cells — queue for
/// it the way jobs queued behind Hadoop 1.x's FIFO JobTracker. Modelling
/// that queue is the mutex's one job. It is no footprint guard: the triple
/// table is flat and loaded once per dataset (2.8 MB at Small, 240x240), and
/// a run's own heap peaks 10.7 MB above it for regression's repartition
/// join, 3.1 MB for covariance and 0.35 MB for statistics (counting
/// allocator, 2-core host), against 4.2 / 2.9 / 2.9 MB tracked. Nothing is
/// timed or charged before the first op, so the wait is in no reported
/// cost.
static CLUSTER: Mutex<()> = Mutex::new(());

/// Simulated per-job launch latency (JVM spin-up + scheduling), charged to
/// the sim clock. The paper-era figure was 10–30 s; scaled by the same
/// ~1/100 factor as the default dataset scale-down.
pub const JOB_LAUNCH_SECS: f64 = 0.2;

/// The Hadoop configuration.
#[derive(Debug, Default)]
pub struct Hadoop;

impl Hadoop {
    /// New engine.
    pub fn new() -> Hadoop {
        Hadoop
    }

    fn job_config(&self, ctx: &ExecContext) -> JobConfig {
        // Task slots model the simulated machine (sim_threads), not the
        // scheduler's per-cell execution budget: slot count feeds the
        // shuffle cost model, so sizing it from `ctx.threads` would make
        // simulated costs depend on how many sweep cells run concurrently.
        let mut cfg = JobConfig::local(ctx.sim_threads.max(1));
        cfg.job_launch_secs = JOB_LAUNCH_SECS;
        cfg.budget = ctx.db_budget();
        if ctx.nodes > 1 {
            // A (nodes-1)/nodes fraction of every shuffled partition crosses
            // the network; model it by scaling the link bandwidth.
            let frac = (ctx.nodes - 1) as f64 / ctx.nodes as f64;
            let net = NetModel::gigabit();
            cfg.shuffle_net = Some((net.latency_s, net.bandwidth_bps / frac.max(1e-9)));
        }
        cfg
    }
}

/// Modeled bytes of a Hive split: every field is a 16-byte [`Cell`] (tag +
/// payload), which is exactly the storage profile the tracker accounts
/// MapReduce working sets at — and, since tables are flat, their heap.
pub(crate) fn hive_bytes(t: &HiveTable) -> u64 {
    (t.len() * t.width() * 16) as u64
}

/// `data`'s `(gene, patient, value)` triples as the Hive table every Hadoop
/// cell scans, in the expression matrix's row-major order. Loaded once per
/// dataset ([`super::loaded::LoadedTables::hive_triples`]).
pub(crate) fn triples_table(data: &Dataset) -> Result<HiveTable> {
    let mut cells = Vec::with_capacity(3 * data.expression.len());
    for p in 0..data.n_patients() {
        let row = data.expression.row(p);
        for (g, &v) in row.iter().enumerate() {
            cells.extend([Cell::I(g as i64), Cell::I(p as i64), Cell::F(v)]);
        }
    }
    HiveTable::from_cells(3, cells)
}

fn genes_table(data: &Dataset) -> HiveTable {
    HiveTable::new(
        data.genes
            .iter()
            .map(|g| vec![Cell::I(g.id as i64), Cell::I(g.function)])
            .collect(),
    )
}

/// Group joined `(gene, patient, value, ...)` rows into per-patient dense
/// vectors in `gene_ids` order — the Hive idiom feeding Mahout's
/// `(row, vector)` records.
fn rows_by_patient(
    joined: &HiveTable,
    gene_ids: &[i64],
    cfg: &JobConfig,
) -> Result<mahout::RowMatrix> {
    let gene_index: std::collections::HashMap<i64, usize> =
        gene_ids.iter().enumerate().map(|(i, &g)| (g, i)).collect();
    let n = gene_ids.len();
    let out = genbase_mapreduce::job::run_job::<i64, (i64, f64)>(
        joined.len(),
        &|i, e| {
            if let [Cell::I(g), Cell::I(p), Cell::F(v), ..] = *joined.row(i) {
                if gene_index.contains_key(&g) {
                    e.emit(&p, &(g, v));
                }
            }
        },
        None,
        &|p, gene_vals, e| {
            let mut vec = vec![0.0; n];
            for (g, v) in gene_vals.iter() {
                if let Some(&gi) = gene_index.get(g) {
                    vec[gi] = *v;
                }
            }
            e.emit(p, &vec)
        },
        cfg,
    )?;
    let mut out = out.records::<i64, Vec<f64>>()?;
    out.sort_by_key(|&(p, _)| p);
    Ok(out)
}

impl Engine for Hadoop {
    fn name(&self) -> &'static str {
        "Hadoop"
    }

    fn supports(&self, query: Query) -> bool {
        matches!(
            query,
            Query::Regression | Query::Covariance | Query::Statistics
        )
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
        if !self.supports(query) {
            return Err(Error::unsupported(self.name(), query.name()));
        }
        // The guard protects no data, so a run that panicked leaves nothing
        // to distrust: recover it rather than fail every later request.
        let _cluster = genbase_util::lock(&CLUSTER);
        let cfg = self.job_config(ctx);
        let sim = cfg.sim.clone();
        let mem = ctx.mem_tracker();
        // Loaded once per dataset (untimed HDFS residency); the split each
        // cell reads is still charged to its own tracker.
        let triples = ctx.tables.hive_triples(data)?;
        mem.charge(hive_bytes(&triples))?;
        let backend = MrBackend {
            data,
            params,
            query,
            db_budget: ctx.db_budget(),
            mem: mem.clone(),
            triples: &triples,
            cfg,
            gene_ids: Vec::new(),
            filtered_genes: None,
            joined: None,
            rows: Vec::new(),
            scores: Vec::new(),
        };
        plan::run_plan(backend, query, Tracer::with_sim(sim).with_mem(mem))
    }
}

/// Physical state of one Hadoop run: the dataset's HDFS-resident triple
/// table plus whatever the executed prefix of the plan has produced so far.
struct MrBackend<'a> {
    data: &'a Dataset,
    params: &'a QueryParams,
    query: Query,
    cfg: JobConfig,
    db_budget: genbase_util::Budget,
    mem: MemTracker,
    triples: &'a HiveTable,
    gene_ids: Vec<i64>,
    filtered_genes: Option<HiveTable>,
    joined: Option<HiveTable>,
    rows: mahout::RowMatrix,
    scores: Vec<f64>,
}

impl MrBackend<'_> {
    fn joined(&self) -> Result<&HiveTable> {
        self.joined
            .as_ref()
            .ok_or_else(|| Error::invalid("triple join did not run before this op"))
    }
}

impl PhysicalBackend for MrBackend<'_> {
    fn execute(&mut self, op: LogicalOp, tracer: &mut Tracer, slot: &mut PlanSlot) -> Result<()> {
        let data = self.data;
        let params = self.params;
        let query = self.query;
        match op {
            LogicalOp::FilterGenes => {
                let cfg = &self.cfg;
                let mem = &self.mem;
                let thr = params.function_threshold;
                let (filtered, gene_ids) = tracer.exec(
                    OpKind::Filter,
                    Phase::DataManagement,
                    format!("MR job: filter genes table on function < {thr}"),
                    || {
                        let genes = genes_table(data);
                        mem.note_input(hive_bytes(&genes));
                        let filtered =
                            genes.filter(move |r| matches!(r[1], Cell::I(f) if f < thr), cfg)?;
                        // Intermediate splits stay resident for the run:
                        // charge them like any other working set (released
                        // with the run's tracker).
                        mem.charge(hive_bytes(&filtered))?;
                        mem.note_output(hive_bytes(&filtered), filtered.len() as u64);
                        let mut gene_ids: Vec<i64> =
                            filtered.rows().filter_map(|r| r[0].as_int().ok()).collect();
                        gene_ids.sort_unstable();
                        Ok((filtered, gene_ids))
                    },
                )?;
                params.check_selection(query, gene_ids.len())?;
                self.filtered_genes = Some(filtered);
                self.gene_ids = gene_ids;
            }
            // Patient metadata is driver-resident (tiny): the filter and the
            // sample draw are driver-side scans feeding the semijoin below.
            LogicalOp::FilterPatients | LogicalOp::SamplePatients => {
                let label = match query {
                    Query::Statistics => format!(
                        "driver-side sample: {} seeded patient ids",
                        params.sample_count(data.n_patients())
                    ),
                    _ => format!("driver-side filter: disease_id = {}", params.disease_id),
                };
                let sel = tracer.exec(OpKind::Filter, Phase::DataManagement, label, || {
                    params.selected_patients(query, data)
                })?;
                self.rows = sel.into_iter().map(|p| (p as i64, Vec::new())).collect();
            }
            LogicalOp::JoinOnGenes => {
                let cfg = &self.cfg;
                let mem = &self.mem;
                let triples = self.triples;
                let filtered = self
                    .filtered_genes
                    .as_ref()
                    .ok_or_else(|| Error::invalid("gene filter did not run before join"))?;
                let joined = tracer.exec(
                    OpKind::Join,
                    Phase::DataManagement,
                    "MR job: repartition join triples x filtered genes",
                    || {
                        mem.note_input(hive_bytes(triples) + hive_bytes(filtered));
                        let joined = triples.join(0, filtered, 0, cfg)?;
                        mem.charge(hive_bytes(&joined))?;
                        mem.note_output(hive_bytes(&joined), joined.len() as u64);
                        Ok(joined)
                    },
                )?;
                self.joined = Some(joined);
            }
            LogicalOp::JoinOnPatients => {
                let cfg = &self.cfg;
                let mem = &self.mem;
                let triples = self.triples;
                let sel_set: HashSet<i64> = self.rows.iter().map(|&(p, _)| p).collect();
                let joined = tracer.exec(
                    OpKind::Join,
                    Phase::DataManagement,
                    format!(
                        "MR job: semijoin triples x {} selected patients",
                        sel_set.len()
                    ),
                    || {
                        mem.note_input(hive_bytes(triples));
                        let joined = triples.filter(
                            move |r| matches!(r[1], Cell::I(p) if sel_set.contains(&p)),
                            cfg,
                        )?;
                        mem.charge(hive_bytes(&joined))?;
                        mem.note_output(hive_bytes(&joined), joined.len() as u64);
                        Ok(joined)
                    },
                )?;
                self.joined = Some(joined);
            }
            // GO memberships live on the driver (distributed cache idiom).
            LogicalOp::JoinGoTerms => {}
            LogicalOp::Restructure => {
                let cfg = &self.cfg;
                let mem = &self.mem;
                let joined = self.joined()?;
                let gene_ids: Vec<i64> = if self.gene_ids.is_empty() {
                    (0..data.n_genes() as i64).collect()
                } else {
                    self.gene_ids.clone()
                };
                let attach_y = query == Query::Regression;
                let mut rows = tracer.exec(
                    OpKind::Restructure,
                    Phase::DataManagement,
                    "MR job: group triples into per-patient dense vectors",
                    || {
                        mem.note_input(hive_bytes(joined));
                        let mut rows = rows_by_patient(joined, &gene_ids, cfg)?;
                        if attach_y {
                            // Attach the target (driver-side small join with
                            // patients).
                            for (p, vec) in rows.iter_mut() {
                                vec.push(data.patients[*p as usize].drug_response);
                            }
                        }
                        let out_bytes: u64 =
                            rows.iter().map(|(_, v)| (v.len() * 8 + 8) as u64).sum();
                        mem.charge(out_bytes)?;
                        mem.note_output(out_bytes, rows.len() as u64);
                        Ok(rows)
                    },
                )?;
                std::mem::swap(&mut self.rows, &mut rows);
                self.gene_ids = gene_ids;
            }
            LogicalOp::GroupAgg => {
                let cfg = &self.cfg;
                let mem = &self.mem;
                let joined = self.joined()?;
                let n_genes = data.n_genes();
                let scores = tracer.exec(
                    OpKind::GroupAgg,
                    Phase::DataManagement,
                    "MR job: group-sum by gene over the sample",
                    || {
                        mem.note_input(hive_bytes(joined));
                        mem.note_output((n_genes * 8) as u64, n_genes as u64);
                        let groups = joined.group_sum(0, 2, cfg)?;
                        let mut scores = vec![0.0; n_genes];
                        for (g, s, c) in groups {
                            if (g as usize) < scores.len() && c > 0 {
                                scores[g as usize] = s / c as f64;
                            }
                        }
                        Ok(scores)
                    },
                )?;
                self.scores = scores;
            }
            LogicalOp::Analytics(kernel) => match kernel {
                Kernel::Regression => {
                    let cfg = &self.cfg;
                    let rows = &self.rows;
                    let gene_ids = &self.gene_ids;
                    let out = tracer.exec(
                        OpKind::Analytics,
                        Phase::Analytics,
                        "Mahout X'X/X'y jobs + driver Cholesky solve",
                        || {
                            let (xtx, xty) = mahout::xtx_xty(rows, cfg)?;
                            // The driver solves the small normal-equation
                            // system.
                            let d = xty.len();
                            let xtx_mat = Matrix::from_fn(d, d, |i, j| xtx[i][j]);
                            let beta = Cholesky::factor(&xtx_mat)?.solve(&xty)?;
                            // Driver-side R².
                            let mut stats = analytics::FitStats::default();
                            for (_, vec) in rows {
                                let (features, target) = vec.split_at(vec.len() - 1);
                                analytics::accumulate_fit(&mut stats, &beta, features, target[0]);
                            }
                            Ok(analytics::regression_output(&beta, gene_ids, &stats))
                        },
                    )?;
                    slot.output = Some(out);
                }
                Kernel::Covariance => {
                    let cfg = &self.cfg;
                    let rows = &self.rows;
                    let n = self.gene_ids.len();
                    let cov = tracer.exec(
                        OpKind::Analytics,
                        Phase::Analytics,
                        "Mahout covariance jobs + top-fraction threshold",
                        || {
                            let cov_rows = mahout::covariance_rows(rows, cfg)?;
                            let mut cov = Matrix::zeros(n, n);
                            for (j, row) in &cov_rows {
                                cov.row_mut(*j as usize).copy_from_slice(row);
                            }
                            analytics::pairs_from_cov(&cov, params.top_pair_fraction)
                        },
                    )?;
                    slot.cov = Some(cov);
                }
                Kernel::Enrichment => {
                    let opts = ExecOpts::with_threads(1).with_budget(self.db_budget.clone());
                    let input = KernelInput {
                        scores: &self.scores,
                        memberships: &data.ontology.members,
                        ..Default::default()
                    };
                    tracer.exec(
                        OpKind::Analytics,
                        Phase::Analytics,
                        "driver-side per-GO-term Wilcoxon rank-sum",
                        || analytics::dense_kernel(kernel, &input, params, &opts, slot),
                    )?;
                }
                Kernel::Biclustering | Kernel::Svd => {
                    unreachable!("filtered by supports()")
                }
            },
            LogicalOp::JoinGeneMetadata => {
                let cov = slot.take_cov()?;
                let gene_ids = &self.gene_ids;
                let out = tracer.exec(
                    OpKind::Join,
                    Phase::DataManagement,
                    "driver-side join: top pairs x gene function codes",
                    || {
                        analytics::covariance_output(
                            cov,
                            gene_ids,
                            &analytics::gene_functions(data),
                        )
                    },
                )?;
                slot.output = Some(out);
            }
        }
        Ok(())
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
    fn unsupported_queries_rejected() {
        let h = Hadoop::new();
        assert!(!h.supports(Query::Biclustering));
        assert!(!h.supports(Query::Svd));
        let data = tiny();
        let params = QueryParams::for_dataset(&data);
        let ctx = ExecContext::single_node();
        assert!(h.run(Query::Svd, &data, &params, &ctx).is_err());
    }

    #[test]
    fn hadoop_matches_scidb_on_supported_queries() {
        let data = tiny();
        let params = QueryParams::for_dataset(&data);
        let ctx = ExecContext::single_node();
        let hadoop = Hadoop::new();
        let scidb = super::super::scidb::SciDb::new();
        for q in [Query::Regression, Query::Covariance, Query::Statistics] {
            let a = hadoop.run(q, &data, &params, &ctx).unwrap().output;
            let b = scidb.run(q, &data, &params, &ctx).unwrap().output;
            assert!(
                a.consistency_error(&b, 1e-5).is_none(),
                "{q:?}: {:?}",
                a.consistency_error(&b, 1e-5)
            );
        }
    }

    #[test]
    fn runs_queue_for_the_one_cluster() {
        use std::sync::atomic::{AtomicBool, Ordering};
        let data = tiny();
        let params = QueryParams::for_dataset(&data);
        let ctx = ExecContext::single_node();
        let alone = Hadoop::new()
            .run(Query::Statistics, &data, &params, &ctx)
            .unwrap();
        let finished = AtomicBool::new(false);
        std::thread::scope(|scope| {
            let cluster = genbase_util::lock(&CLUSTER);
            let run = scope.spawn(|| {
                let report = Hadoop::new().run(Query::Statistics, &data, &params, &ctx);
                finished.store(true, Ordering::SeqCst);
                report
            });
            // However long this sleeps, the run cannot finish before the
            // cluster is released.
            std::thread::sleep(std::time::Duration::from_millis(50));
            assert!(
                !finished.load(Ordering::SeqCst),
                "run overlapped a held cluster"
            );
            drop(cluster);
            let queued = run.join().expect("queued run").unwrap();
            assert_eq!(alone.output, queued.output);
        });
    }

    #[test]
    fn job_launch_latency_lands_in_sim_time() {
        let data = tiny();
        let params = QueryParams::for_dataset(&data);
        let ctx = ExecContext::single_node();
        let report = Hadoop::new()
            .run(Query::Statistics, &data, &params, &ctx)
            .unwrap();
        let phases = report.phases();
        let sim_total = phases.data_management.sim_secs + phases.analytics.sim_secs;
        assert!(
            sim_total >= JOB_LAUNCH_SECS,
            "at least one job launch charged: {sim_total}"
        );
        // Per-op accounting: the MR join op carries its own simulated cost.
        let join = report
            .trace
            .ops
            .iter()
            .find(|op| op.label.contains("semijoin"))
            .expect("join op traced");
        assert!(join.cost.sim_nanos > 0, "join charges launch latency");
    }

    #[test]
    fn multi_node_charges_shuffle_network() {
        let data = tiny();
        let params = QueryParams::for_dataset(&data);
        let single = ExecContext::single_node();
        let multi = ExecContext::multi_node(4);
        let h = Hadoop::new();
        let a = h.run(Query::Covariance, &data, &params, &single).unwrap();
        let b = h.run(Query::Covariance, &data, &params, &multi).unwrap();
        let sim =
            |r: &QueryReport| r.phases().data_management.sim_secs + r.phases().analytics.sim_secs;
        let (sim_a, sim_b) = (sim(&a), sim(&b));
        assert!(sim_b > sim_a, "shuffle traffic must cost more on 4 nodes");
        // Same answer regardless of node count.
        assert!(a.output.consistency_error(&b.output, 1e-9).is_none());
    }
}
