//! Benchmark harness: runs the (engine × query × size × nodes) matrix with
//! the paper's cutoff and failure semantics.
//!
//! Datasets come from a shared, lazily-built [`DatasetPool`]: a size class
//! is generated the first time any cell asks for it (exactly once, no
//! matter how many cells ask concurrently), shared by reference count
//! across every in-flight cell, and cached for the harness's lifetime —
//! the substrate the sharded scheduler in [`crate::sched`] dispatches
//! onto. What the engines load from a dataset ([`LoadedTables`]: the SQL
//! base tables, the streaming spool, SciDB's chunked arrays, Hadoop's Hive
//! triples) follows the dataset: one set per generated size class, each member loaded by the
//! first cell of that class that reads it and borrowed by every later one.

use crate::engine::{Engine, ExecContext};
use crate::engines::loaded::LoadedTables;
use crate::query::{Query, QueryParams};
use crate::report::RunOutcome;
use genbase_datagen::{Dataset, DatasetPool, SizeClass};
use genbase_util::{lock, Error, Result};
use std::collections::HashMap;
use std::sync::{Arc, Mutex};
use std::time::Duration;

/// How completed cells report time.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum TimingMode {
    /// Measured wall seconds plus simulated costs (the paper's numbers).
    #[default]
    Measured,
    /// Simulated costs only: measured wall seconds are zeroed and the
    /// (machine-dependent) wall-clock cutoff is disabled, making every
    /// cell outcome deterministic. This is the conformance-tier mode —
    /// sweep output becomes byte-identical across runs, machines, and
    /// serial-vs-sharded execution. Memory budgets still apply (byte
    /// accounting is deterministic).
    SimOnly,
}

/// Harness configuration.
#[derive(Debug, Clone)]
pub struct HarnessConfig {
    /// Per-side scale factor relative to paper sizes (default 0.048 ⇒
    /// Small 240x240 … Large 1440x1920; 1.0 = paper scale).
    pub scale: f64,
    /// Size classes to run.
    pub sizes: Vec<SizeClass>,
    /// Per-run cutoff (the paper's two-hour window, scaled with the data).
    pub cutoff: Duration,
    /// Simulated machine memory for in-memory runtimes (paper: 48 GB,
    /// scaled by `scale²` by [`HarnessConfig::default`]).
    pub r_mem_bytes: u64,
    /// Hardware threads to use.
    pub threads: usize,
    /// Dataset seed.
    pub seed: u64,
    /// Node counts for multi-node experiments.
    pub node_counts: Vec<usize>,
    /// Timing mode for completed cells.
    pub timing: TimingMode,
    /// Storage-layer working-set budget in bytes (`--mem-budget`),
    /// enforced by each run's [`genbase_storage::MemTracker`]. `None` =
    /// unlimited. A cell that exhausts it renders as the paper's
    /// "infinite" bar, exactly like a cutoff. On multi-node cells the
    /// budget applies per *simulated node* (each node is its own machine
    /// with its own tracker; the critical-path trace reports the per-node
    /// maximum).
    pub mem_budget: Option<u64>,
    /// Morsel-driven streaming mode (`--stream` / `--batch-rows` /
    /// `--spill-dir`). `None` = materializing lowerings everywhere.
    pub stream: Option<crate::engine::StreamConfig>,
}

impl Default for HarnessConfig {
    fn default() -> Self {
        let scale: f64 = 0.048;
        HarnessConfig {
            scale,
            sizes: SizeClass::REPORTED.to_vec(),
            // Two hours scaled by the cell-count ratio (~scale²) would be
            // ~16 s; leave headroom for slow CI machines.
            cutoff: Duration::from_secs(60),
            r_mem_bytes: (48e9 * scale * scale) as u64,
            threads: std::thread::available_parallelism()
                .map(|n| n.get())
                .unwrap_or(4),
            seed: 0x9e6b,
            node_counts: vec![1, 2, 4],
            timing: TimingMode::Measured,
            mem_budget: None,
            stream: None,
        }
    }
}

impl HarnessConfig {
    /// Quick configuration for tests and examples: tiny datasets only.
    pub fn quick() -> HarnessConfig {
        HarnessConfig {
            scale: 0.012,
            sizes: vec![SizeClass::Small],
            cutoff: Duration::from_secs(30),
            r_mem_bytes: u64::MAX,
            ..Default::default()
        }
    }

    /// Same configuration in deterministic sim-only timing mode.
    pub fn sim_only(mut self) -> HarnessConfig {
        self.timing = TimingMode::SimOnly;
        self
    }
}

/// One cell of the benchmark result matrix.
#[derive(Debug, Clone)]
pub struct RunRecord {
    /// Engine name.
    pub engine: String,
    /// Query executed.
    pub query: Query,
    /// Dataset size class.
    pub size: SizeClass,
    /// Cluster size.
    pub nodes: usize,
    /// What happened.
    pub outcome: RunOutcome,
}

/// Dataset pool + run driver.
pub struct Harness {
    config: HarnessConfig,
    pool: DatasetPool,
    /// What the cells of each size class share instead of loading per cell.
    tables: Mutex<HashMap<SizeClass, Arc<LoadedTables>>>,
    cache: Option<Arc<genbase_storage::ArtifactCache>>,
}

impl Harness {
    /// Build a harness over a lazily-populated dataset pool (seeded,
    /// reproducible; nothing is generated until a cell needs it).
    pub fn new(config: HarnessConfig) -> Result<Harness> {
        let pool = DatasetPool::new(config.scale, config.seed);
        Ok(Harness {
            config,
            pool,
            tables: Mutex::new(HashMap::new()),
            cache: None,
        })
    }

    /// Attach a shared artifact cache (`--cache-budget`): every run context
    /// this harness hands out gets a [`genbase_storage::CacheScope`] keyed
    /// under this configuration's fingerprint, so join artifacts are shared
    /// across cells of the same configuration and can never leak between
    /// different fingerprints.
    pub fn set_artifact_cache(&mut self, cache: Arc<genbase_storage::ArtifactCache>) {
        self.cache = Some(cache);
    }

    /// The active configuration.
    pub fn config(&self) -> &HarnessConfig {
        &self.config
    }

    /// The shared dataset pool.
    pub fn pool(&self) -> &DatasetPool {
        &self.pool
    }

    /// Fetch a dataset handle (generated on first use, then shared).
    /// Classes outside the configured `sizes` are rejected.
    pub fn dataset(&self, class: SizeClass) -> Result<Arc<Dataset>> {
        if !self.config.sizes.contains(&class) {
            return Err(Error::invalid(format!("size {class:?} not configured")));
        }
        self.pool.get(class)
    }

    /// The loaded tables of `class`'s dataset (an empty set until a SQL,
    /// SciDB or Hadoop cell of that class runs).
    pub fn loaded_tables(&self, class: SizeClass) -> Arc<LoadedTables> {
        Arc::clone(lock(&self.tables).entry(class).or_default())
    }

    /// `(resident heap bytes, loads run)` over every size class's loaded
    /// tables.
    pub fn loaded_tables_stats(&self) -> (u64, u64) {
        lock(&self.tables)
            .values()
            .fold((0, 0), |(bytes, builds), t| {
                (bytes + t.heap_bytes(), builds + t.builds())
            })
    }

    /// Bytes of spool files the streaming cells' reels read, over every
    /// size class: temp-file footprint, held until the harness drops.
    pub fn loaded_spool_bytes(&self) -> u64 {
        lock(&self.tables).values().map(|t| t.spool_bytes()).sum()
    }

    /// Query parameters for a dataset (derived deterministically; cheap).
    pub fn params(&self, class: SizeClass) -> Result<QueryParams> {
        Ok(QueryParams::for_dataset(self.dataset(class)?.as_ref()))
    }

    /// Execution context for a run under an explicit thread budget — the
    /// scheduler splits `config.threads` between concurrent cells through
    /// this.
    pub fn context_with_threads(&self, nodes: usize, threads: usize) -> ExecContext {
        let mut ctx = ExecContext::multi_node(nodes);
        ctx.threads = threads.max(1);
        // The simulated machine's size is part of the benchmark
        // configuration; only the execution budget varies per cell.
        ctx.sim_threads = self.config.threads.max(1);
        // The wall-clock cutoff is inherently machine-dependent: in
        // deterministic SimOnly mode it is disabled, or a slow runner
        // could turn a Completed cell into Infinite and break the
        // byte-identical guarantee. Memory budgets stay on — byte
        // accounting is deterministic.
        ctx.cutoff = match self.config.timing {
            TimingMode::Measured => Some(self.config.cutoff),
            TimingMode::SimOnly => None,
        };
        ctx.r_mem_bytes = Some(self.config.r_mem_bytes);
        ctx.mem_budget = self.config.mem_budget;
        ctx.stream = self.config.stream.clone();
        ctx.deterministic = self.config.timing == TimingMode::SimOnly;
        ctx.cache = self.cache.as_ref().map(|cache| {
            genbase_storage::CacheScope::new(
                cache.clone(),
                crate::sched::config_fingerprint(&self.config),
            )
        });
        ctx
    }

    /// Run one cell, mapping cutoff/OOM to [`RunOutcome::Infinite`] and
    /// missing functionality to [`RunOutcome::Unsupported`]. Genuine engine
    /// errors propagate.
    pub fn run_cell(
        &self,
        engine: &dyn Engine,
        query: Query,
        size: SizeClass,
        nodes: usize,
    ) -> Result<RunRecord> {
        self.run_cell_with_progress(engine, query, size, nodes, self.config.threads, None)
    }

    /// [`Harness::run_cell`] under an explicit per-cell thread budget, with
    /// an optional intra-cell progress sink threaded into the engine's
    /// kernels, so long iterative cells (Lanczos SVD, Cheng–Church)
    /// checkpoint mid-run and a re-issued cell resumes bit-identically.
    pub fn run_cell_with_progress(
        &self,
        engine: &dyn Engine,
        query: Query,
        size: SizeClass,
        nodes: usize,
        threads: usize,
        progress: Option<genbase_util::ProgressHandle>,
    ) -> Result<RunRecord> {
        let mut ctx = self.context_with_threads(nodes, threads);
        ctx.progress = progress;
        let outcome = if !engine.supports(query) || nodes > engine.max_nodes() {
            RunOutcome::Unsupported
        } else {
            let data = self.dataset(size)?;
            let params = self.params(size)?;
            ctx.tables = self.loaded_tables(size);
            match engine.run(query, &data, &params, &ctx) {
                Ok(mut report) => {
                    if self.config.timing == TimingMode::SimOnly {
                        // Zero the trace and the phase split together so
                        // per-op costs still sum exactly to the phases.
                        report.trace.zero_wall();
                        report.phases.data_management.wall_secs = 0.0;
                        report.phases.analytics.wall_secs = 0.0;
                    }
                    RunOutcome::Completed(report)
                }
                Err(e) if e.is_infinite_result() => RunOutcome::Infinite {
                    reason: e.to_string(),
                },
                Err(Error::Unsupported { .. }) => RunOutcome::Unsupported,
                Err(e) => return Err(e),
            }
        };
        Ok(RunRecord {
            engine: engine.name().to_string(),
            query,
            size,
            nodes,
            outcome,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engines;

    fn quick_harness() -> Harness {
        let cfg = HarnessConfig {
            scale: 0.012, // 60x60 small
            sizes: vec![SizeClass::Small],
            ..HarnessConfig::quick()
        };
        Harness::new(cfg).unwrap()
    }

    #[test]
    fn datasets_generated_per_size() {
        let h = quick_harness();
        let d = h.dataset(SizeClass::Small).unwrap();
        assert_eq!(d.n_genes(), 60);
        assert_eq!(d.n_patients(), 60);
        assert!(h.dataset(SizeClass::Large).is_err());
        // Lazy pool: only the touched class was generated.
        assert_eq!(h.pool().generated(), vec![SizeClass::Small]);
    }

    #[test]
    fn dataset_handles_are_shared_not_regenerated() {
        let h = quick_harness();
        let a = h.dataset(SizeClass::Small).unwrap();
        let b = h.dataset(SizeClass::Small).unwrap();
        assert!(Arc::ptr_eq(&a, &b));
        assert_eq!(h.pool().handle_count(SizeClass::Small), 2);
    }

    #[test]
    fn run_cell_outcomes() {
        let h = quick_harness();
        let scidb = engines::SciDb::new();
        let rec = h
            .run_cell(&scidb, Query::Regression, SizeClass::Small, 1)
            .unwrap();
        assert!(matches!(rec.outcome, RunOutcome::Completed(_)));
        // Unsupported path.
        let hadoop = engines::Hadoop::new();
        let rec = h
            .run_cell(&hadoop, Query::Biclustering, SizeClass::Small, 1)
            .unwrap();
        assert!(matches!(rec.outcome, RunOutcome::Unsupported));
        // Multi-node beyond capability.
        let r = engines::VanillaR::new();
        let rec = h
            .run_cell(&r, Query::Regression, SizeClass::Small, 4)
            .unwrap();
        assert!(matches!(rec.outcome, RunOutcome::Unsupported));
    }

    #[test]
    fn cutoff_renders_infinite() {
        let mut cfg = HarnessConfig::quick();
        cfg.scale = 0.012;
        cfg.sizes = vec![SizeClass::Small];
        cfg.cutoff = Duration::from_nanos(1);
        let h = Harness::new(cfg).unwrap();
        let scidb = engines::SciDb::new();
        let rec = h
            .run_cell(&scidb, Query::Covariance, SizeClass::Small, 1)
            .unwrap();
        assert!(matches!(rec.outcome, RunOutcome::Infinite { .. }));
    }

    #[test]
    fn sim_only_mode_zeroes_measured_wall_time() {
        let cfg = HarnessConfig {
            scale: 0.012,
            sizes: vec![SizeClass::Small],
            ..HarnessConfig::quick()
        }
        .sim_only();
        let h = Harness::new(cfg).unwrap();
        let scidb = engines::SciDb::new();
        let rec = h
            .run_cell(&scidb, Query::Covariance, SizeClass::Small, 1)
            .unwrap();
        let report = rec.outcome.report().expect("completed");
        assert_eq!(report.phases.data_management.wall_secs, 0.0);
        assert_eq!(report.phases.analytics.wall_secs, 0.0);
        // Deterministic: a second identical run reports identical totals.
        let rec2 = h
            .run_cell(&scidb, Query::Covariance, SizeClass::Small, 1)
            .unwrap();
        let report2 = rec2.outcome.report().unwrap();
        assert_eq!(
            report.phases.total_secs().to_bits(),
            report2.phases.total_secs().to_bits()
        );
    }
}
