//! Logical query-plan IR with per-engine physical lowering and per-operator
//! cost traces.
//!
//! GenBase's thesis (§3–4) is that the engines differ in *data-management
//! plumbing* — filters, joins, restructuring, export — while the analytics
//! kernels are shared. This module makes that structure explicit:
//!
//! - [`logical_plan`] compiles each of the five queries into a declarative
//!   sequence of [`LogicalOp`]s — the engine-independent statement of what
//!   every system must answer. "Every engine answers the identical question"
//!   is true by construction: there is exactly one plan per query.
//! - A [`PhysicalBackend`] *lowers* each logical op onto its store's
//!   primitives (SQL tables, chunked arrays, MapReduce jobs, R vectors).
//!   Lowering is free to realize one logical op as several physical steps
//!   (the export bridge turns `Restructure` into CSV export + re-parse),
//!   to fold an op away entirely (vanilla R holds a matrix, so triple joins
//!   are no-ops), or to push analytics into the store (Madlib).
//! - [`run_plan`] drives the backend through the plan with a [`Tracer`],
//!   producing a [`PlanTrace`]: one [`OpTrace`] per *physical* operator
//!   with its measured and simulated cost. The trace rolls up into the
//!   paper's [`PhaseTimes`] split — Figures 2/4 are literally a sum over
//!   trace entries — and powers the `paper_harness explain` breakdown.
//!
//! ## Exact cost accounting
//!
//! A trace is not a parallel bookkeeping device that merely approximates
//! the old phase totals: [`PlanTrace::phase_times`] **is** the phase split.
//! Simulated time is captured as integer [`SimClock`] nanosecond deltas per
//! op (integer sums are exact, so the per-phase rollup reproduces the
//! pre-IR cumulative totals bit-for-bit), while model-derived costs (the
//! Xeon Phi roofline, the multi-node critical-path combination) pass
//! through as `f64` seconds unchanged. The SimOnly conformance tier pins
//! this: sweep output is byte-identical to the pre-IR engines.

use crate::analytics::CovPairs;
use crate::query::{Query, QueryOutput};
use crate::report::{PhaseTimes, QueryReport};
use genbase_storage::{MemDelta, MemTracker};
use genbase_util::{table::Align, table::TextTable, CostReport, Error, Json, Result, SimClock};

/// Which side of the paper's Figure 2/4 split an operator's cost lands on.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Phase {
    /// Data management: filters, joins, restructuring, export/reformat.
    DataManagement,
    /// Analytics: the linear algebra / statistics kernel.
    Analytics,
}

impl Phase {
    /// Stable short name (trace serialization, explain tables).
    pub fn name(self) -> &'static str {
        match self {
            Phase::DataManagement => "dm",
            Phase::Analytics => "analytics",
        }
    }

    /// Inverse of [`Phase::name`].
    pub fn from_name(name: &str) -> Option<Phase> {
        match name {
            "dm" => Some(Phase::DataManagement),
            "analytics" => Some(Phase::Analytics),
            _ => None,
        }
    }
}

/// The physical operator classes a backend may emit while lowering.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum OpKind {
    /// Metadata predicate evaluation / sampling: selects gene or patient ids.
    Filter,
    /// Join (or semijoin) against the microarray triples or metadata.
    Join,
    /// Reshaping data into the analytics-ready form (pivot, gather, load).
    Restructure,
    /// Serialization across a system boundary (CSV export into R).
    Export,
    /// Grouped aggregation (SQL GROUP BY, MapReduce group-sum).
    GroupAgg,
    /// Value-at-a-time marshalling across a UDF interface.
    Marshal,
    /// An analytics kernel invocation.
    Analytics,
}

impl OpKind {
    /// Stable short name (trace serialization, explain tables).
    pub fn name(self) -> &'static str {
        match self {
            OpKind::Filter => "filter",
            OpKind::Join => "join",
            OpKind::Restructure => "restructure",
            OpKind::Export => "export",
            OpKind::GroupAgg => "group-agg",
            OpKind::Marshal => "marshal",
            OpKind::Analytics => "analytics",
        }
    }

    /// Inverse of [`OpKind::name`].
    pub fn from_name(name: &str) -> Option<OpKind> {
        [
            OpKind::Filter,
            OpKind::Join,
            OpKind::Restructure,
            OpKind::Export,
            OpKind::GroupAgg,
            OpKind::Marshal,
            OpKind::Analytics,
        ]
        .into_iter()
        .find(|k| k.name() == name)
    }
}

/// The analytics kernel a query's terminal op runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Kernel {
    /// Query 1: linear regression of drug response on expression.
    Regression,
    /// Query 2: gene×gene covariance with top-pair thresholding.
    Covariance,
    /// Query 3: Cheng–Church biclustering.
    Biclustering,
    /// Query 4: Lanczos top-k eigenpairs of the Gram matrix.
    Svd,
    /// Query 5: per-GO-term Wilcoxon rank-sum enrichment.
    Enrichment,
}

/// One engine-independent operator in a query's logical plan.
///
/// These are *semantic roles*, not physical steps: a backend decides how —
/// and whether — each one becomes physical work. The two distinct joins in
/// the covariance query (triples⋈patients up front, results⋈gene metadata
/// at the end) are distinct roles so lowering can realize them differently.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum LogicalOp {
    /// Select genes with `function < threshold` (Queries 1 and 4).
    FilterGenes,
    /// Select patients by the query's metadata predicate (Queries 2 and 3).
    FilterPatients,
    /// Draw the deterministic patient sample (Query 5).
    SamplePatients,
    /// Join the microarray triples against the selected genes.
    JoinOnGenes,
    /// Join the microarray triples against the selected patients.
    JoinOnPatients,
    /// Join the GO-term membership table (Query 5).
    JoinGoTerms,
    /// Restructure the joined data into the kernel's native form.
    Restructure,
    /// Per-gene aggregation of the sampled expression (Query 5).
    GroupAgg,
    /// Run the analytics kernel.
    Analytics(Kernel),
    /// Join analytics results back to gene metadata (Query 2).
    JoinGeneMetadata,
}

/// The logical plan of one query: the ops every engine must answer, in
/// dataflow order.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LogicalPlan {
    /// The query this plan answers.
    pub query: Query,
    /// Operators in dataflow order.
    pub ops: Vec<LogicalOp>,
}

/// Compile a query to its logical plan (§3.2 workflow; engine-independent).
pub fn logical_plan(query: Query) -> LogicalPlan {
    use LogicalOp::*;
    let ops = match query {
        Query::Regression => vec![
            FilterGenes,
            JoinOnGenes,
            Restructure,
            Analytics(Kernel::Regression),
        ],
        Query::Covariance => vec![
            FilterPatients,
            JoinOnPatients,
            Restructure,
            Analytics(Kernel::Covariance),
            JoinGeneMetadata,
        ],
        Query::Biclustering => vec![
            FilterPatients,
            JoinOnPatients,
            Restructure,
            Analytics(Kernel::Biclustering),
        ],
        Query::Svd => vec![
            FilterGenes,
            JoinOnGenes,
            Restructure,
            Analytics(Kernel::Svd),
        ],
        Query::Statistics => vec![
            SamplePatients,
            JoinOnPatients,
            JoinGoTerms,
            GroupAgg,
            Analytics(Kernel::Enrichment),
        ],
    };
    LogicalPlan { query, ops }
}

/// Cost of one executed physical operator.
///
/// Simulated time is split by *source* so rollups stay exact: clock-sourced
/// nanoseconds sum as integers; model-sourced seconds sum as the same `f64`
/// terms, in the same order, as the pre-IR phase accumulation.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct OpCost {
    /// Measured wall-clock seconds (zeroed under SimOnly timing).
    pub wall_secs: f64,
    /// Simulated nanoseconds charged to a [`SimClock`] during the op.
    pub sim_nanos: u64,
    /// Model-derived simulated seconds (coprocessor roofline, critical-path
    /// combination) that never passed through a clock.
    pub model_secs: f64,
    /// Bytes moved over simulated links during the op.
    pub sim_bytes: u64,
    /// Storage-layer bytes the op read (the memory dimension; see
    /// [`genbase_storage::MemTracker`]).
    pub bytes_in: u64,
    /// Storage-layer bytes the op materialized as output.
    pub bytes_out: u64,
    /// Peak live storage-layer bytes while the op ran.
    pub peak_alloc_bytes: u64,
    /// Rows the op materialized.
    pub rows_materialized: u64,
    /// Morsel batches the op streamed (zero for materializing ops).
    pub batches: u64,
    /// Bytes the op spilled to disk to stay under `--mem-budget`.
    pub spill_bytes: u64,
    /// Artifact-cache hits the op's conversion kernels took. Display-only
    /// (the `cache` column of `paper_harness explain`): hits never enter
    /// the serialized trace, because a warm cell must stay byte-identical
    /// to its cold run on the wire and in grid files.
    pub cache_hits: u64,
    /// Rows the op passed downstream as selection-vector survivors instead
    /// of materialized copies (streaming only). Display-only (the
    /// `sel rows` explain column), same contract as `cache_hits`: never
    /// serialized.
    pub rows_selected: u64,
    /// Thread budget the op's analytics kernel ran under (zero for ops that
    /// ran none through [`crate::analytics::dense_kernel`]). In memory only:
    /// never serialized and in no table, so it cannot move a grid, golden
    /// or wire byte — [`crate::sched::CellOutcome`] drops it.
    pub kernel_threads: u64,
}

impl OpCost {
    /// A purely measured cost.
    pub fn wall(secs: f64) -> OpCost {
        OpCost {
            wall_secs: secs,
            ..OpCost::default()
        }
    }

    /// Simulated seconds (clock- plus model-sourced).
    pub fn sim_secs(&self) -> f64 {
        self.sim_nanos as f64 / 1e9 + self.model_secs
    }

    /// Attach storage-layer memory deltas.
    pub fn with_mem(mut self, mem: MemDelta) -> OpCost {
        self.bytes_in = mem.bytes_in;
        self.bytes_out = mem.bytes_out;
        self.peak_alloc_bytes = mem.peak_alloc_bytes;
        self.rows_materialized = mem.rows_materialized;
        self.batches = mem.batches;
        self.spill_bytes = mem.spill_bytes;
        self.cache_hits = mem.cache_hits;
        self.rows_selected = mem.rows_selected;
        self
    }

    /// Total storage-layer bytes the op moved (read + materialized) — the
    /// paper's headline cost dimension.
    pub fn bytes_moved(&self) -> u64 {
        self.bytes_in + self.bytes_out
    }

    /// Total reported seconds for this op.
    pub fn total_secs(&self) -> f64 {
        self.wall_secs + self.sim_secs()
    }
}

/// One executed physical operator in a trace.
#[derive(Debug, Clone, PartialEq)]
pub struct OpTrace {
    /// Physical operator class.
    pub kind: OpKind,
    /// Phase the cost is attributed to (each engine attributes exactly as
    /// its pre-IR implementation did; the paper's scripts differ per system
    /// and those differences are part of what the benchmark measures).
    pub phase: Phase,
    /// Human-readable description of the physical step.
    pub label: String,
    /// What it cost.
    pub cost: OpCost,
}

impl OpTrace {
    /// Serialize for grid files and the coordinator wire protocol.
    pub fn to_json(&self) -> Json {
        let mut obj = Json::obj();
        obj.set("op", Json::from(self.kind.name()));
        obj.set("phase", Json::from(self.phase.name()));
        obj.set("label", Json::from(self.label.as_str()));
        obj.set("wall", Json::Num(self.cost.wall_secs));
        obj.set("sim_nanos", Json::from(self.cost.sim_nanos));
        obj.set("model", Json::Num(self.cost.model_secs));
        obj.set("bytes", Json::from(self.cost.sim_bytes));
        obj.set("mem_in", Json::from(self.cost.bytes_in));
        obj.set("mem_out", Json::from(self.cost.bytes_out));
        obj.set("mem_peak", Json::from(self.cost.peak_alloc_bytes));
        obj.set("rows", Json::from(self.cost.rows_materialized));
        obj.set("batches", Json::from(self.cost.batches));
        obj.set("spill", Json::from(self.cost.spill_bytes));
        obj
    }

    /// Inverse of [`OpTrace::to_json`].
    pub fn from_json(value: &Json) -> Result<OpTrace> {
        let field = |name: &str| {
            value
                .get(name)
                .and_then(Json::as_str)
                .ok_or_else(|| Error::invalid(format!("trace op missing {name}")))
        };
        let num = |name: &str| {
            value
                .get(name)
                .and_then(Json::as_f64)
                .ok_or_else(|| Error::invalid(format!("trace op missing numeric {name}")))
        };
        let int = |name: &str| {
            value
                .get(name)
                .and_then(Json::as_u64)
                .ok_or_else(|| Error::invalid(format!("trace op missing integer {name}")))
        };
        // Memory columns are absent in pre-storage-layer artifacts; those
        // load as zero-memory ops (figures only need the time split).
        let mem = |name: &str| value.get(name).and_then(Json::as_u64).unwrap_or(0);
        Ok(OpTrace {
            kind: OpKind::from_name(field("op")?)
                .ok_or_else(|| Error::invalid("trace op: unknown kind"))?,
            phase: Phase::from_name(field("phase")?)
                .ok_or_else(|| Error::invalid("trace op: unknown phase"))?,
            label: field("label")?.to_string(),
            cost: OpCost {
                wall_secs: num("wall")?,
                sim_nanos: int("sim_nanos")?,
                model_secs: num("model")?,
                sim_bytes: int("bytes")?,
                bytes_in: mem("mem_in"),
                bytes_out: mem("mem_out"),
                peak_alloc_bytes: mem("mem_peak"),
                rows_materialized: mem("rows"),
                batches: mem("batches"),
                spill_bytes: mem("spill"),
                // Display-only columns never round-trip (see `OpCost`).
                cache_hits: 0,
                rows_selected: 0,
                kernel_threads: 0,
            },
        })
    }
}

/// Per-operator execution trace of one query run.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct PlanTrace {
    /// Executed physical ops, in execution order.
    pub ops: Vec<OpTrace>,
}

impl PlanTrace {
    /// Roll the trace up into the paper's phase split. This *defines*
    /// [`QueryReport::phases`]: per phase, wall seconds sum in op order,
    /// clock-sourced nanoseconds sum as integers before one conversion, and
    /// model-sourced seconds sum in op order — reproducing the pre-IR
    /// accumulation bit-for-bit.
    pub fn phase_times(&self) -> PhaseTimes {
        let mut wall = [0.0f64; 2];
        let mut nanos = [0u64; 2];
        let mut model = [0.0f64; 2];
        let mut bytes = [0u64; 2];
        for op in &self.ops {
            let i = match op.phase {
                Phase::DataManagement => 0,
                Phase::Analytics => 1,
            };
            wall[i] += op.cost.wall_secs;
            nanos[i] += op.cost.sim_nanos;
            model[i] += op.cost.model_secs;
            bytes[i] += op.cost.sim_bytes;
        }
        let cost = |i: usize| CostReport {
            wall_secs: wall[i],
            sim_secs: nanos[i] as f64 / 1e9 + model[i],
            sim_bytes: bytes[i],
        };
        PhaseTimes {
            data_management: cost(0),
            analytics: cost(1),
        }
    }

    /// Zero every op's measured wall seconds (SimOnly timing: the harness
    /// zeroes the phase split and the trace together, keeping the
    /// sums-exactly invariant).
    pub fn zero_wall(&mut self) {
        for op in &mut self.ops {
            op.cost.wall_secs = 0.0;
        }
    }

    /// Roll the memory dimension up over the whole trace: bytes/rows sum,
    /// peaks take the maximum (an op's peak already includes working sets
    /// carried from earlier ops, so the max is the run's resident peak).
    pub fn memory(&self) -> MemRollup {
        let mut roll = MemRollup::default();
        for op in &self.ops {
            roll.bytes_in += op.cost.bytes_in;
            roll.bytes_out += op.cost.bytes_out;
            roll.peak_alloc_bytes = roll.peak_alloc_bytes.max(op.cost.peak_alloc_bytes);
            roll.rows_materialized += op.cost.rows_materialized;
            roll.batches += op.cost.batches;
            roll.spill_bytes += op.cost.spill_bytes;
        }
        roll
    }

    /// Render the per-operator cost table behind `paper_harness explain`.
    pub fn table(&self) -> TextTable {
        let mut table = TextTable::new(&[
            ("op", Align::Left),
            ("phase", Align::Left),
            ("physical step", Align::Left),
            ("wall", Align::Right),
            ("sim", Align::Right),
            ("total", Align::Right),
            ("bytes", Align::Right),
            ("mem in", Align::Right),
            ("mem out", Align::Right),
            ("mem peak", Align::Right),
            ("rows", Align::Right),
            ("batches", Align::Right),
            ("spill", Align::Right),
            ("cache", Align::Right),
            ("sel rows", Align::Right),
        ]);
        for op in &self.ops {
            table.row(vec![
                op.kind.name().to_string(),
                op.phase.name().to_string(),
                op.label.clone(),
                genbase_util::fmt_secs(op.cost.wall_secs),
                genbase_util::fmt_secs(op.cost.sim_secs()),
                genbase_util::fmt_secs(op.cost.total_secs()),
                genbase_util::fmt_bytes(op.cost.sim_bytes),
                genbase_util::fmt_bytes(op.cost.bytes_in),
                genbase_util::fmt_bytes(op.cost.bytes_out),
                genbase_util::fmt_bytes(op.cost.peak_alloc_bytes),
                op.cost.rows_materialized.to_string(),
                op.cost.batches.to_string(),
                genbase_util::fmt_bytes(op.cost.spill_bytes),
                op.cost.cache_hits.to_string(),
                op.cost.rows_selected.to_string(),
            ]);
        }
        table
    }
}

/// Whole-run rollup of the trace's memory dimension (see
/// [`PlanTrace::memory`]); surfaced through `QueryReport::memory`.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct MemRollup {
    /// Total storage-layer bytes read across all ops.
    pub bytes_in: u64,
    /// Total storage-layer bytes materialized across all ops.
    pub bytes_out: u64,
    /// Peak live storage-layer bytes across the run.
    pub peak_alloc_bytes: u64,
    /// Total rows materialized across all ops.
    pub rows_materialized: u64,
    /// Total morsel batches streamed across all ops.
    pub batches: u64,
    /// Total bytes spilled to disk across all ops.
    pub spill_bytes: u64,
}

/// Records physical operators as a backend lowers and executes the plan.
///
/// When a [`SimClock`] is attached (MapReduce engines), each traced op
/// captures the integer nanosecond/byte delta charged during its closure;
/// model-derived costs are recorded explicitly via [`Tracer::record`].
#[derive(Debug, Default)]
pub struct Tracer {
    ops: Vec<OpTrace>,
    sim: Option<SimClock>,
    mem: Option<MemTracker>,
}

impl Tracer {
    /// Tracer with no simulated-cost source (wall-only engines).
    pub fn new() -> Tracer {
        Tracer::default()
    }

    /// Tracer capturing per-op deltas from `sim` alongside wall time.
    pub fn with_sim(sim: SimClock) -> Tracer {
        Tracer {
            ops: Vec::new(),
            sim: Some(sim),
            mem: None,
        }
    }

    /// Attach the storage layer's allocation tracker: every traced op then
    /// carries the `bytes_in`/`bytes_out`/`peak_alloc_bytes`/`rows` deltas
    /// its closure charged or noted.
    pub fn with_mem(mut self, mem: MemTracker) -> Tracer {
        self.mem = Some(mem);
        self
    }

    /// Execute `f` as one traced physical operator: wall seconds plus (when
    /// a clock is attached) the simulated nanosecond/byte delta it charged,
    /// plus (when a tracker is attached) the memory deltas it accounted.
    pub fn exec<T>(
        &mut self,
        kind: OpKind,
        phase: Phase,
        label: impl Into<String>,
        f: impl FnOnce() -> Result<T>,
    ) -> Result<T> {
        let snap = self.sim.as_ref().map(|s| (s.nanos(), s.bytes()));
        let scope = self.mem.as_ref().map(|m| m.op_begin());
        let start = std::time::Instant::now();
        let out = f()?;
        let wall_secs = start.elapsed().as_secs_f64();
        let (sim_nanos, sim_bytes) = match (&self.sim, snap) {
            (Some(s), Some((n0, b0))) => (s.nanos() - n0, s.bytes() - b0),
            _ => (0, 0),
        };
        let mem = match (&self.mem, scope) {
            (Some(m), Some(scope)) => m.op_delta(scope),
            _ => MemDelta::default(),
        };
        self.ops.push(OpTrace {
            kind,
            phase,
            label: label.into(),
            cost: OpCost {
                wall_secs,
                sim_nanos,
                model_secs: 0.0,
                sim_bytes,
                ..OpCost::default()
            }
            .with_mem(mem),
        });
        Ok(out)
    }

    /// Record an operator whose cost was produced outside the tracer (the
    /// Phi roofline model, the multi-node critical-path combination).
    pub fn record(&mut self, kind: OpKind, phase: Phase, label: impl Into<String>, cost: OpCost) {
        self.ops.push(OpTrace {
            kind,
            phase,
            label: label.into(),
            cost,
        });
    }

    /// Note the thread budget the most recent op's kernel ran under.
    fn note_kernel_threads(&mut self, threads: usize) {
        if let Some(op) = self.ops.last_mut() {
            op.cost.kernel_threads = threads as u64;
        }
    }

    /// Finish tracing.
    pub fn finish(self) -> PlanTrace {
        PlanTrace { ops: self.ops }
    }
}

/// What a plan's operators hand on outside any backend's own state. The
/// driver owns it, so "nothing was produced" and "the kernel has not run
/// yet" are each checked in one place for every lowering.
#[derive(Debug, Default)]
pub struct PlanSlot {
    /// Query 2's thresholded pairs, between the covariance kernel and the
    /// gene-metadata join ([`PlanSlot::take_cov`]).
    pub cov: Option<CovPairs>,
    /// The finished output.
    pub output: Option<QueryOutput>,
    /// Thread budget of the kernel the current op ran, set by
    /// [`crate::analytics::dense_kernel`]; [`run_plan`] moves it onto the
    /// op's [`OpCost::kernel_threads`].
    pub kernel_threads: Option<usize>,
}

impl PlanSlot {
    /// The covariance pairs awaiting their metadata join.
    pub fn take_cov(&mut self) -> Result<CovPairs> {
        self.cov
            .take()
            .ok_or_else(|| Error::invalid("covariance kernel did not run before metadata join"))
    }
}

/// An engine's physical lowering: executes each [`LogicalOp`] against its
/// native store, recording the physical steps into the tracer. State flows
/// between ops through the backend itself (the selected ids, the joined
/// triples, the restructured matrix); results leave through the
/// [`PlanSlot`].
///
/// A backend owns its scans, joins, restructuring, op labels, `ExecOpts`
/// and cost model. What every lowering must do identically — the selection
/// rules ([`crate::query::QueryParams`]), the dense kernels and the output
/// hand-offs ([`crate::analytics`]) — it calls, never re-implements.
pub trait PhysicalBackend {
    /// One-time setup before the plan runs. Untimed ingest (loading the
    /// dataset into native storage is not timed, per the paper) records
    /// nothing; engines whose load *is* part of the measured query (vanilla
    /// R's `read.csv` + pivot) trace it here.
    fn prepare(&mut self, tracer: &mut Tracer) -> Result<()> {
        let _ = tracer;
        Ok(())
    }

    /// Lower and execute one logical operator. A backend may record zero
    /// (op folded away by the storage model), one, or several physical ops.
    fn execute(&mut self, op: LogicalOp, tracer: &mut Tracer, slot: &mut PlanSlot) -> Result<()>;
}

/// Drive `backend` through `query`'s logical plan and assemble the report:
/// output from the slot, phases as the rollup of the trace.
pub fn run_plan<B: PhysicalBackend>(
    mut backend: B,
    query: Query,
    mut tracer: Tracer,
) -> Result<QueryReport> {
    backend.prepare(&mut tracer)?;
    let mut slot = PlanSlot::default();
    for op in logical_plan(query).ops {
        backend.execute(op, &mut tracer, &mut slot)?;
        if let Some(threads) = slot.kernel_threads.take() {
            tracer.note_kernel_threads(threads);
        }
    }
    let output = slot
        .output
        .ok_or_else(|| Error::invalid("plan produced no output"))?;
    Ok(QueryReport::from_trace(output, tracer.finish()))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn plans_cover_all_queries_and_end_in_analytics() {
        for query in Query::ALL {
            let plan = logical_plan(query);
            assert_eq!(plan.query, query);
            assert!(!plan.ops.is_empty());
            let kernels = plan
                .ops
                .iter()
                .filter(|op| matches!(op, LogicalOp::Analytics(_)))
                .count();
            assert_eq!(kernels, 1, "{query:?}: exactly one kernel per plan");
        }
        // The two covariance joins are distinct roles.
        let cov = logical_plan(Query::Covariance);
        assert!(cov.ops.contains(&LogicalOp::JoinOnPatients));
        assert!(cov.ops.contains(&LogicalOp::JoinGeneMetadata));
    }

    #[test]
    fn names_round_trip() {
        for kind in [
            OpKind::Filter,
            OpKind::Join,
            OpKind::Restructure,
            OpKind::Export,
            OpKind::GroupAgg,
            OpKind::Marshal,
            OpKind::Analytics,
        ] {
            assert_eq!(OpKind::from_name(kind.name()), Some(kind));
        }
        assert_eq!(OpKind::from_name("shuffle"), None);
        for phase in [Phase::DataManagement, Phase::Analytics] {
            assert_eq!(Phase::from_name(phase.name()), Some(phase));
        }
    }

    #[test]
    fn rollup_is_exact_over_integer_nanos() {
        // Two ops whose f64 sim_secs would not sum exactly; the integer
        // rollup must equal one conversion of the summed nanos.
        let mut trace = PlanTrace::default();
        let nanos = [3_333_333_333u64, 1_111_111_111];
        for (i, &n) in nanos.iter().enumerate() {
            trace.ops.push(OpTrace {
                kind: OpKind::Join,
                phase: Phase::DataManagement,
                label: format!("op {i}"),
                cost: OpCost {
                    wall_secs: 0.0,
                    sim_nanos: n,
                    model_secs: 0.0,
                    sim_bytes: 7,
                    ..OpCost::default()
                },
            });
        }
        let phases = trace.phase_times();
        let expect = (nanos[0] + nanos[1]) as f64 / 1e9;
        assert_eq!(phases.data_management.sim_secs.to_bits(), expect.to_bits());
        assert_eq!(phases.data_management.sim_bytes, 14);
        assert_eq!(phases.analytics.sim_secs, 0.0);
    }

    #[test]
    fn tracer_captures_sim_deltas() {
        let sim = SimClock::new();
        let mut tracer = Tracer::with_sim(sim.clone());
        tracer
            .exec(OpKind::Join, Phase::DataManagement, "shuffle", || {
                sim.charge_transfer(1000, 0.0, 1e9);
                Ok(())
            })
            .unwrap();
        tracer
            .exec(OpKind::Analytics, Phase::Analytics, "kernel", || Ok(()))
            .unwrap();
        let trace = tracer.finish();
        assert_eq!(trace.ops[0].cost.sim_nanos, 1000);
        assert_eq!(trace.ops[0].cost.sim_bytes, 1000);
        assert_eq!(trace.ops[1].cost.sim_nanos, 0);
        assert!(trace.ops[1].cost.wall_secs >= 0.0);
    }

    #[test]
    fn trace_json_round_trips() {
        let op = OpTrace {
            kind: OpKind::Export,
            phase: Phase::DataManagement,
            label: "export triples as CSV".into(),
            cost: OpCost {
                wall_secs: 0.125,
                sim_nanos: 42,
                model_secs: 0.5,
                sim_bytes: 1024,
                ..OpCost::default()
            },
        };
        let back = OpTrace::from_json(&op.to_json()).unwrap();
        assert_eq!(back, op);
        assert!(OpTrace::from_json(&Json::obj()).is_err());
    }

    #[test]
    fn zero_wall_keeps_sim_costs() {
        let mut trace = PlanTrace {
            ops: vec![OpTrace {
                kind: OpKind::Analytics,
                phase: Phase::Analytics,
                label: "kernel".into(),
                cost: OpCost {
                    wall_secs: 3.0,
                    sim_nanos: 500,
                    model_secs: 0.25,
                    sim_bytes: 9,
                    ..OpCost::default()
                },
            }],
        };
        trace.zero_wall();
        assert_eq!(trace.ops[0].cost.wall_secs, 0.0);
        assert_eq!(trace.ops[0].cost.sim_nanos, 500);
        let phases = trace.phase_times();
        assert_eq!(phases.analytics.wall_secs, 0.0);
        assert!(phases.analytics.sim_secs > 0.25);
    }

    #[test]
    fn table_renders_every_op() {
        let trace = PlanTrace {
            ops: vec![
                OpTrace {
                    kind: OpKind::Filter,
                    phase: Phase::DataManagement,
                    label: "function < 250".into(),
                    cost: OpCost::wall(0.5),
                },
                OpTrace {
                    kind: OpKind::Analytics,
                    phase: Phase::Analytics,
                    label: "QR regression".into(),
                    cost: OpCost::wall(1.0),
                },
            ],
        };
        let text = trace.table().render();
        assert!(text.contains("function < 250"));
        assert!(text.contains("QR regression"));
        assert!(text.contains("analytics"));
    }
}
