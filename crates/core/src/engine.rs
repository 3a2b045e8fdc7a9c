//! The engine abstraction and execution context.

use crate::engines::loaded::LoadedTables;
use crate::query::{Query, QueryParams};
use crate::report::QueryReport;
use genbase_cluster::NetModel;
use genbase_datagen::Dataset;
use genbase_util::{Budget, Result};
use std::sync::Arc;

/// Morsel-driven streaming configuration (`--stream`): engines whose
/// lowerings support it pull fixed-row batches through their plan pipeline
/// instead of materializing intermediates. Output is bit-identical to the
/// materializing path at every batch size and thread count; only the trace's
/// memory dimension (`peak_alloc`, `batches`, `spill_bytes`) changes.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct StreamConfig {
    /// Rows per morsel (`--batch-rows`).
    pub batch_rows: usize,
    /// Directory for spill files (`--spill-dir`); system temp when `None`.
    pub spill_dir: Option<std::path::PathBuf>,
    /// Inert: nothing reads it. It used to pick between a staged and a
    /// fused streaming lowering; the staged one is deleted and a set
    /// `ExecContext.stream` always runs the one probe+sink pipeline. The
    /// field remains only because `benchmark/src/cells.rs` names it in a
    /// struct literal and `benchmark/` cannot change in the same PR as the
    /// code it measures; it goes in the benchmark-hygiene change ROADMAP
    /// lists. Build configs with `..StreamConfig::default()`.
    pub fused: bool,
}

impl Default for StreamConfig {
    fn default() -> Self {
        StreamConfig {
            batch_rows: genbase_storage::DEFAULT_BATCH_ROWS,
            spill_dir: None,
            fused: true,
        }
    }
}

/// Execution context shared by all engines for one run.
#[derive(Debug, Clone)]
pub struct ExecContext {
    /// Execution thread budget for this run's kernels. The sweep scheduler
    /// shrinks this per cell (`config.threads / cells_in_flight`) so
    /// concurrent cells share the pool fairly.
    pub threads: usize,
    /// Hardware threads of the *simulated machine*. Engine cost models
    /// (e.g. Hadoop's map/reduce task slots) must size from this, never
    /// from `threads`: the scheduler's per-cell budget is a scheduling
    /// artifact, and letting it leak into simulated costs would make sweep
    /// results depend on `--jobs`.
    pub sim_threads: usize,
    /// Number of cluster nodes (1 = single-node run).
    pub nodes: usize,
    /// Wall-clock cutoff (the paper's two-hour window, scaled).
    pub cutoff: Option<std::time::Duration>,
    /// Simulated memory available to *in-memory* runtimes (vanilla R and
    /// the R side of export bridges). `None` = unlimited. Disk-backed
    /// engines ignore it. Scaled from the paper's 48 GB machines.
    pub r_mem_bytes: Option<u64>,
    /// Storage-layer working-set budget per cell (`--mem-budget`), enforced
    /// by the [`genbase_storage::MemTracker`] every engine registers its
    /// working sets with. `None` = unlimited. Exhaustion is a traced
    /// "infinite" cell outcome, not an abort. Distinct from `r_mem_bytes`,
    /// which models the *simulated machine's* R heap.
    pub mem_budget: Option<u64>,
    /// Morsel-driven streaming mode (`--stream`). `None` = materializing
    /// lowerings everywhere. Engines without a streaming lowering ignore it.
    pub stream: Option<StreamConfig>,
    /// Inter-node network model.
    pub net: NetModel,
    /// Deterministic-timing mode (the harness's `TimingMode::SimOnly`):
    /// model components normally derived from *measured* wall time must
    /// use zero measured time instead, so simulated costs depend only on
    /// the workload, never the host.
    pub deterministic: bool,
    /// Intra-cell checkpoint sink for long iterative kernels. Single-node
    /// in-memory engines and SciDB thread it into their kernel `ExecOpts`;
    /// engines that run the same kernel concurrently per node (MadlibNest,
    /// Hadoop) leave it unused — interleaved same-key saves would corrupt
    /// the snapshot stream.
    pub progress: Option<genbase_util::ProgressHandle>,
    /// Artifact cache scope for this run (`--cache-budget`): the SQL
    /// engines' materializing triple joins memoize their output columns
    /// here, keyed under the config fingerprint the scope was derived from;
    /// nothing else is cached. `None` = cold every run. A hit replays the
    /// cold join's accounting exactly, so attaching a scope never changes a
    /// cell's output or trace bytes.
    pub cache: Option<genbase_storage::CacheScope>,
    /// What the engines load from the dataset this run reads — the SQL base
    /// tables, the streaming triple spool, SciDB's chunked arrays, Hadoop's
    /// Hive triple table — shared by every cell of that dataset, and by
    /// every node of a multi-node cell: the harness sets its own
    /// per-size-class set here; a context built without one carries an
    /// empty private set that loads on first use. Not a cache — no budget,
    /// no eviction, no key: the engines always borrow from it and charge
    /// what they read (a node: its band) to the run's tracker as if the
    /// copy were their own.
    pub tables: Arc<LoadedTables>,
}

/// R's per-object allocation limit: 2^31 - 1 cells.
pub const R_CELL_LIMIT: u64 = (1 << 31) - 1;

impl ExecContext {
    /// Single-node context using all cores, unlimited budget.
    pub fn single_node() -> ExecContext {
        let threads = std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(4);
        ExecContext {
            threads,
            sim_threads: threads,
            nodes: 1,
            cutoff: None,
            r_mem_bytes: None,
            mem_budget: None,
            stream: None,
            net: NetModel::gigabit(),
            deterministic: false,
            progress: None,
            cache: None,
            tables: Default::default(),
        }
    }

    /// The storage-layer allocation tracker for one run under this context
    /// (fresh per run; carries the `--mem-budget` limit when set).
    pub fn mem_tracker(&self) -> genbase_storage::MemTracker {
        genbase_storage::MemTracker::new(self.mem_budget)
    }

    /// Multi-node context over `nodes` simulated machines.
    pub fn multi_node(nodes: usize) -> ExecContext {
        ExecContext {
            nodes: nodes.max(1),
            ..Self::single_node()
        }
    }

    /// Budget for disk-backed engine work: cutoff only.
    pub fn db_budget(&self) -> Budget {
        Budget::new(self.cutoff, u64::MAX, u64::MAX)
    }

    /// Budget for in-memory R-style runtimes: cutoff, the scaled machine
    /// memory, and R's 2^31-1 cells-per-object limit.
    pub fn r_budget(&self) -> Budget {
        Budget::new(
            self.cutoff,
            self.r_mem_bytes.unwrap_or(u64::MAX),
            R_CELL_LIMIT,
        )
    }

    /// Threads available to each node (nodes share the physical machine in
    /// this reproduction, so per-node compute shrinks as nodes grow — see
    /// DESIGN.md substitution 2).
    pub fn threads_per_node(&self) -> usize {
        (self.threads / self.nodes).max(1)
    }
}

impl Default for ExecContext {
    fn default() -> Self {
        Self::single_node()
    }
}

/// A benchmark system configuration.
pub trait Engine: Sync {
    /// Display name (matches the paper's chart legends).
    fn name(&self) -> &'static str;

    /// Whether the engine has the functionality for `query` (the paper
    /// omits bars for missing functionality, e.g. biclustering on Hadoop).
    fn supports(&self, query: Query) -> bool {
        let _ = query;
        true
    }

    /// Maximum cluster size the engine can use (1 = single-node only).
    fn max_nodes(&self) -> usize {
        1
    }

    /// Execute one query end to end, returning the output and the
    /// data-management/analytics phase split. Ingest (loading the dataset
    /// into the engine's native storage) is *not* in the report's phases,
    /// matching the paper's methodology of timing queries against loaded
    /// data; no engine that loads pays it per run in wall-clock either
    /// (`ExecContext::tables`).
    fn run(
        &self,
        query: Query,
        data: &Dataset,
        params: &QueryParams,
        ctx: &ExecContext,
    ) -> Result<QueryReport>;
}

/// Stopwatch helper measuring one phase's wall seconds.
pub(crate) struct PhaseClock {
    start: std::time::Instant,
}

impl PhaseClock {
    pub(crate) fn start() -> PhaseClock {
        PhaseClock {
            start: std::time::Instant::now(),
        }
    }

    /// Elapsed seconds since start (does not reset).
    pub(crate) fn secs(&self) -> f64 {
        self.start.elapsed().as_secs_f64()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn context_defaults() {
        let ctx = ExecContext::default();
        assert_eq!(ctx.nodes, 1);
        assert!(ctx.threads >= 1);
        assert_eq!(ctx.threads_per_node(), ctx.threads);
        assert!(ctx.db_budget().check("x").is_ok());
    }

    #[test]
    fn r_budget_enforces_machine_memory() {
        let mut ctx = ExecContext::single_node();
        ctx.r_mem_bytes = Some(1000);
        let b = ctx.r_budget();
        assert!(b.alloc(2000, 10).is_err());
        assert!(b.alloc(500, 10).is_ok());
        // Cell limit applies even with memory to spare.
        assert!(ctx.r_budget().alloc(8, 1 << 31).is_err());
    }

    #[test]
    fn threads_split_across_nodes() {
        let mut ctx = ExecContext::multi_node(4);
        ctx.threads = 12;
        assert_eq!(ctx.threads_per_node(), 3);
        ctx.threads = 2;
        assert_eq!(ctx.threads_per_node(), 1);
    }

    #[test]
    fn phase_clock_monotone() {
        let c = PhaseClock::start();
        let a = c.secs();
        let b = c.secs();
        assert!(b >= a);
    }
}
