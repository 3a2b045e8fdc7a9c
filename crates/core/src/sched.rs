//! Sharded benchmark scheduler.
//!
//! The paper's evaluation is a sweep over (engine × dataset-scale × query ×
//! nodes) cells. This module decomposes every figure into independent
//! [`CellKey`] work units and dispatches them onto the shared
//! `genbase_util::runtime` pool, so inter-cell and intra-kernel parallelism
//! compose under one thread budget (`HarnessConfig.threads` split across
//! `cells_in_flight` concurrent cells, remainder to each cell's kernels — no
//! oversubscription). [`Scheduler::run_sweep`] and the coordinator in
//! [`crate::coord`] are the only ways to drain a plan.
//!
//! Determinism: cells report into a fixed-order [`ReportGrid`] keyed by
//! cell id; figure rendering is a pure function of the grid, so fig1–fig5 /
//! table1 output is **byte-identical** between one cell in flight and any
//! sharded/parallel execution (pinned by `tests/sched_determinism.rs`).
//! Under [`TimingMode::SimOnly`](crate::harness::TimingMode) the grid
//! itself is deterministic, so independent runs — including CI shard
//! fan-out via `--shards N --shard-id I` — agree byte for byte.
//!
//! Resumability: every sweep — in-process jobs here, coordinator leases in
//! [`crate::coord`] — keeps its books in a [`Ledger`]. With a checkpoint
//! path it persists the grid as JSON after every completed cell
//! (write-to-temp + rename, one writer at a time); an interrupted sweep
//! resumes by loading the checkpoint and running only missing cells.

use crate::engine::Engine;
use crate::engines;
use crate::figures;
use crate::harness::{Harness, HarnessConfig};
use crate::plan::OpTrace;
use crate::query::Query;
use crate::report::{PhaseTimes, RunOutcome};
use genbase_datagen::SizeClass;
use genbase_util::{lock, parallel_for, CostReport, Error, Json, Result};
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::sync::Mutex;

/// The six paper exhibits the scheduler can sweep.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum FigureId {
    /// Figure 1: single-node overall performance.
    Fig1,
    /// Figure 2: single-node regression phase breakdown.
    Fig2,
    /// Figure 3: multi-node overall performance.
    Fig3,
    /// Figure 4: multi-node regression phase breakdown.
    Fig4,
    /// Figure 5: SciDB vs SciDB + Xeon Phi.
    Fig5,
    /// Table 1: Phi analytics speedup per node count.
    Table1,
}

impl FigureId {
    /// All exhibits in paper order.
    pub const ALL: [FigureId; 6] = [
        FigureId::Fig1,
        FigureId::Fig2,
        FigureId::Fig3,
        FigureId::Fig4,
        FigureId::Fig5,
        FigureId::Table1,
    ];

    /// Stable identifier (cell keys, CLI).
    pub fn name(self) -> &'static str {
        match self {
            FigureId::Fig1 => "fig1",
            FigureId::Fig2 => "fig2",
            FigureId::Fig3 => "fig3",
            FigureId::Fig4 => "fig4",
            FigureId::Fig5 => "fig5",
            FigureId::Table1 => "table1",
        }
    }

    /// Inverse of [`FigureId::name`].
    pub fn from_name(name: &str) -> Option<FigureId> {
        FigureId::ALL.into_iter().find(|f| f.name() == name)
    }
}

/// One independent unit of sweep work: run `query` on `engine` against the
/// `size` dataset over `nodes` simulated nodes, for exhibit `figure`.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct CellKey {
    /// Exhibit this cell belongs to (fig2's regression cells are distinct
    /// work from fig1's, exactly as in the serial harness).
    pub figure: FigureId,
    /// Query to execute.
    pub query: Query,
    /// Dataset size class.
    pub size: SizeClass,
    /// Simulated cluster size.
    pub nodes: usize,
    /// Engine display name (resolved through the engine registry).
    pub engine: String,
}

impl CellKey {
    /// Stable string id, e.g. `fig1/covariance/small/n1/SciDB`.
    pub fn id(&self) -> String {
        format!(
            "{}/{}/{}/n{}/{}",
            self.figure.name(),
            self.query.name(),
            self.size.slug(),
            self.nodes,
            self.engine
        )
    }

    /// Serialize for the coordinator wire protocol (explicit fields, not
    /// the display id, so no parsing of engine names containing `/`).
    pub fn to_json(&self) -> Json {
        let mut obj = Json::obj();
        obj.set("figure", Json::from(self.figure.name()));
        obj.set("query", Json::from(self.query.name()));
        obj.set("size", Json::from(self.size.slug()));
        obj.set("nodes", Json::from(self.nodes));
        obj.set("engine", Json::from(self.engine.as_str()));
        obj
    }

    /// Inverse of [`CellKey::to_json`].
    pub fn from_json(value: &Json) -> Result<CellKey> {
        let field = |name: &str| {
            value
                .get(name)
                .and_then(Json::as_str)
                .ok_or_else(|| Error::invalid(format!("cell key missing {name}")))
        };
        Ok(CellKey {
            figure: FigureId::from_name(field("figure")?)
                .ok_or_else(|| Error::invalid("cell key: unknown figure"))?,
            query: Query::from_name(field("query")?)
                .ok_or_else(|| Error::invalid("cell key: unknown query"))?,
            size: SizeClass::from_slug(field("size")?)
                .ok_or_else(|| Error::invalid("cell key: unknown size"))?,
            nodes: value
                .get("nodes")
                .and_then(Json::as_u64)
                .ok_or_else(|| Error::invalid("cell key missing nodes"))?
                as usize,
            engine: field("engine")?.to_string(),
        })
    }
}

/// The slimmed, serializable outcome of one cell — exactly what figure
/// rendering needs (phase costs or failure class), without the full typed
/// query output.
#[derive(Debug, Clone, PartialEq)]
pub enum CellOutcome {
    /// Finished within budget, with the paper's phase split.
    Completed {
        /// Data-management phase costs.
        dm: CostReport,
        /// Analytics phase costs.
        an: CostReport,
        /// Per-operator plan trace the phases roll up from — carried
        /// through grid files and the coordinator wire protocol so
        /// per-op breakdowns survive sharded and distributed sweeps.
        trace: Vec<OpTrace>,
    },
    /// Cutoff or memory failure (the paper's "infinite" bars).
    Infinite {
        /// What gave out.
        reason: String,
    },
    /// The engine lacks the functionality (no bar in the paper).
    Unsupported,
}

impl CellOutcome {
    /// Convert a harness outcome, dropping the typed query output.
    pub fn from_run(outcome: &RunOutcome) -> CellOutcome {
        match outcome {
            RunOutcome::Completed(r) => CellOutcome::Completed {
                dm: r.phases.data_management,
                an: r.phases.analytics,
                // What a cell serializes is all it carries: the kernel
                // thread budget stays on the run's own report.
                trace: r
                    .trace
                    .ops
                    .iter()
                    .map(|op| {
                        let mut op = op.clone();
                        op.cost.kernel_threads = 0;
                        op
                    })
                    .collect(),
            },
            RunOutcome::Infinite { reason } => CellOutcome::Infinite {
                reason: reason.clone(),
            },
            RunOutcome::Unsupported => CellOutcome::Unsupported,
        }
    }

    /// The phase split for completed cells.
    pub fn phases(&self) -> Option<PhaseTimes> {
        match self {
            CellOutcome::Completed { dm, an, .. } => Some(PhaseTimes {
                data_management: *dm,
                analytics: *an,
            }),
            _ => None,
        }
    }

    /// The per-operator trace for completed cells.
    pub fn trace(&self) -> Option<&[OpTrace]> {
        match self {
            CellOutcome::Completed { trace, .. } => Some(trace),
            _ => None,
        }
    }

    /// Table-cell text, identical to [`RunOutcome::cell`].
    pub fn cell(&self) -> String {
        match self {
            CellOutcome::Completed { .. } => {
                genbase_util::fmt_secs(self.phases().expect("completed").total_secs())
            }
            CellOutcome::Infinite { .. } => "inf".to_string(),
            CellOutcome::Unsupported => "-".to_string(),
        }
    }

    /// Serialize (grid files, wire protocol).
    pub fn to_json(&self) -> Json {
        let mut obj = Json::obj();
        match self {
            CellOutcome::Completed { dm, an, trace } => {
                obj.set("status", Json::from("completed"));
                for (name, cost) in [("dm", dm), ("an", an)] {
                    obj.set(
                        name,
                        Json::Arr(vec![
                            Json::Num(cost.wall_secs),
                            Json::Num(cost.sim_secs),
                            Json::from(cost.sim_bytes),
                        ]),
                    );
                }
                obj.set(
                    "trace",
                    Json::Arr(trace.iter().map(OpTrace::to_json).collect()),
                );
            }
            CellOutcome::Infinite { reason } => {
                obj.set("status", Json::from("infinite"));
                obj.set("reason", Json::from(reason.as_str()));
            }
            CellOutcome::Unsupported => {
                obj.set("status", Json::from("unsupported"));
            }
        }
        obj
    }

    /// Inverse of [`CellOutcome::to_json`].
    pub fn from_json(value: &Json) -> Result<CellOutcome> {
        let status = value
            .get("status")
            .and_then(Json::as_str)
            .ok_or_else(|| Error::invalid("cell outcome missing status"))?;
        match status {
            "completed" => {
                let cost = |name: &str| -> Result<CostReport> {
                    let arr = value
                        .get(name)
                        .and_then(Json::as_arr)
                        .filter(|a| a.len() == 3)
                        .ok_or_else(|| Error::invalid(format!("bad {name} cost")))?;
                    // Strict: a malformed entry must fail the load, not
                    // silently render as a zero-cost cell.
                    let bad = || Error::invalid(format!("non-numeric {name} cost"));
                    Ok(CostReport {
                        wall_secs: arr[0].as_f64().ok_or_else(bad)?,
                        sim_secs: arr[1].as_f64().ok_or_else(bad)?,
                        sim_bytes: arr[2].as_u64().ok_or_else(bad)?,
                    })
                };
                // Absent in pre-trace grid files: those load as traceless
                // cells (figures only need the phase split).
                let trace = match value.get("trace").and_then(Json::as_arr) {
                    Some(items) => items
                        .iter()
                        .map(OpTrace::from_json)
                        .collect::<Result<Vec<OpTrace>>>()?,
                    None => Vec::new(),
                };
                Ok(CellOutcome::Completed {
                    dm: cost("dm")?,
                    an: cost("an")?,
                    trace,
                })
            }
            "infinite" => Ok(CellOutcome::Infinite {
                reason: value
                    .get("reason")
                    .and_then(Json::as_str)
                    .unwrap_or_default()
                    .to_string(),
            }),
            "unsupported" => Ok(CellOutcome::Unsupported),
            other => Err(Error::invalid(format!("unknown cell status {other:?}"))),
        }
    }
}

/// Fixed-order collection of cell outcomes; the single source every figure
/// renders from. Keys sort lexicographically by cell id, so serialization
/// is deterministic regardless of completion order. A grid optionally
/// carries a configuration fingerprint (scale/seed/timing) so checkpoints
/// and shard files from mismatched runs are rejected instead of silently
/// mixing outcomes.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct ReportGrid {
    cells: BTreeMap<String, CellOutcome>,
    fingerprint: Option<String>,
    /// Intra-cell progress snapshots (cell id → {kernel → state}), carried
    /// by coordinator checkpoints so a re-issued cell resumes mid-iteration.
    /// Cleared per cell on [`ReportGrid::insert`]; never serialized once
    /// empty, so finished grids are byte-identical to pre-progress ones.
    progress: BTreeMap<String, Json>,
}

/// The configuration facets that change cell outcomes: anything differing
/// here makes grids incomparable. The cutoff only matters in Measured mode
/// (SimOnly disables it), so two SimOnly runs with different `--cutoff`
/// flags still compare equal.
///
/// `threads` is included because it is the *simulated machine size*:
/// `ExecContext.sim_threads` feeds Hadoop's task-slot count (and with it
/// the simulated shuffle costs), so hosts with different core counts
/// produce different grids even under SimOnly. Cross-machine runs — file
/// shards or coordinator workers — must pin `--threads` explicitly; the
/// per-cell `--jobs` *budget* deliberately stays out of the fingerprint
/// (kernels are bit-identical across thread budgets).
pub fn config_fingerprint(config: &HarnessConfig) -> String {
    let cutoff = match config.timing {
        crate::harness::TimingMode::Measured => format!("{}", config.cutoff.as_secs_f64()),
        crate::harness::TimingMode::SimOnly => "off".to_string(),
    };
    // `--mem-budget` changes cell outcomes, so a set budget is part of the
    // fingerprint — but only when set: the unlimited default keeps the
    // pre-memory-accounting fingerprint string, so existing checkpoint and
    // grid files still load.
    let mem_budget = match config.mem_budget {
        Some(bytes) => format!(";membudget={bytes}"),
        None => String::new(),
    };
    // Streaming mode changes the trace's memory dimension (batches, spill,
    // peak), so cells from streaming and materializing runs must not merge.
    // `batch_rows` is semantic; the spill directory is not. Same
    // append-only-when-set pattern as `membudget` for file compatibility.
    // The `+fused` suffix is constant: it named the surviving pipeline when
    // a staged one existed beside it, so files that pipeline wrote still
    // load, and files written by the deleted staged path (no suffix,
    // different memory columns) are refused instead of merged.
    let stream = match &config.stream {
        Some(s) => format!(";stream=batch{}+fused", s.batch_rows),
        None => String::new(),
    };
    format!(
        "scale={};seed={};timing={:?};rmem={};cutoff={cutoff};simthreads={}{mem_budget}{stream}",
        config.scale,
        config.seed,
        config.timing,
        config.r_mem_bytes,
        config.threads.max(1)
    )
}

/// Grid / checkpoint file schema tag.
pub const GRID_SCHEMA: &str = "genbase-grid-v1";

impl ReportGrid {
    /// Number of recorded cells.
    pub fn len(&self) -> usize {
        self.cells.len()
    }

    /// Whether the grid is empty.
    pub fn is_empty(&self) -> bool {
        self.cells.is_empty()
    }

    /// Record a cell outcome (and drop any intra-cell progress for it —
    /// a completed cell needs no resume state).
    pub fn insert(&mut self, key: &CellKey, outcome: CellOutcome) {
        let id = key.id();
        self.progress.remove(&id);
        self.cells.insert(id, outcome);
    }

    /// Record an intra-cell progress snapshot for one kernel of `cell_id`
    /// (ignored once the cell has an outcome: a completed cell needs none).
    pub fn set_progress(&mut self, cell_id: &str, kernel: &str, state: Json) {
        if self.cells.contains_key(cell_id) {
            return;
        }
        self.progress
            .entry(cell_id.to_string())
            .or_insert_with(Json::obj)
            .set(kernel, state);
    }

    /// The saved progress object ({kernel → state}) for a cell, if any.
    pub fn progress_for(&self, cell_id: &str) -> Option<&Json> {
        self.progress.get(cell_id)
    }

    /// Look up a cell.
    pub fn get(&self, key: &CellKey) -> Option<&CellOutcome> {
        self.cells.get(&key.id())
    }

    /// Whether a cell is recorded.
    pub fn contains(&self, key: &CellKey) -> bool {
        self.cells.contains_key(&key.id())
    }

    /// Recorded cell ids in sorted order.
    pub fn ids(&self) -> impl Iterator<Item = &str> {
        self.cells.keys().map(String::as_str)
    }

    /// The configuration fingerprint, if stamped.
    pub fn fingerprint(&self) -> Option<&str> {
        self.fingerprint.as_deref()
    }

    /// Stamp the grid with its producing configuration.
    pub fn set_fingerprint(&mut self, fingerprint: String) {
        self.fingerprint = Some(fingerprint);
    }

    /// Fold `other` in. Fingerprints (when both stamped) and overlapping
    /// ids must agree (shards are disjoint by construction; a conflict
    /// means mismatched runs were mixed).
    pub fn merge(&mut self, other: ReportGrid) -> Result<()> {
        match (&self.fingerprint, &other.fingerprint) {
            (Some(a), Some(b)) if a != b => {
                return Err(Error::invalid(format!(
                    "grid merge refused: config fingerprints differ ({a} vs {b})"
                )))
            }
            (None, Some(b)) => self.fingerprint = Some(b.clone()),
            _ => {}
        }
        for (id, outcome) in other.cells {
            if let Some(have) = self.cells.get(&id) {
                if *have != outcome {
                    return Err(Error::invalid(format!(
                        "grid merge conflict on cell {id}: differing outcomes"
                    )));
                }
            }
            self.cells.insert(id, outcome);
        }
        Ok(())
    }

    /// Serialize deterministically.
    pub fn to_json(&self) -> String {
        let mut cells = Json::obj();
        for (id, outcome) in &self.cells {
            cells.set(id, outcome.to_json());
        }
        let mut doc = Json::obj();
        doc.set("schema", Json::from(GRID_SCHEMA));
        if let Some(fp) = &self.fingerprint {
            doc.set("config", Json::from(fp.as_str()));
        }
        doc.set("cells", cells);
        if !self.progress.is_empty() {
            let mut progress = Json::obj();
            for (id, state) in &self.progress {
                progress.set(id, state.clone());
            }
            doc.set("progress", progress);
        }
        doc.render()
    }

    /// Parse a serialized grid.
    pub fn from_json(text: &str) -> Result<ReportGrid> {
        let doc = Json::parse(text)?;
        match doc.get("schema").and_then(Json::as_str) {
            Some(GRID_SCHEMA) => {}
            other => {
                return Err(Error::invalid(format!(
                    "unexpected grid schema {other:?} (want {GRID_SCHEMA})"
                )))
            }
        }
        let mut grid = ReportGrid {
            fingerprint: doc.get("config").and_then(Json::as_str).map(str::to_string),
            ..ReportGrid::default()
        };
        let pairs = doc
            .get("cells")
            .and_then(Json::as_obj)
            .ok_or_else(|| Error::invalid("grid missing cells object"))?;
        for (id, value) in pairs {
            grid.cells
                .insert(id.clone(), CellOutcome::from_json(value)?);
        }
        if let Some(pairs) = doc.get("progress").and_then(Json::as_obj) {
            for (id, state) in pairs {
                // A lease ships this value and the next snapshot sets a
                // kernel key on it: anything but {kernel → state} is torn.
                if state.as_obj().is_none() {
                    return Err(Error::invalid(format!(
                        "grid progress for cell {id} is not an object"
                    )));
                }
                grid.progress.insert(id.clone(), state.clone());
            }
        }
        Ok(grid)
    }

    /// Load a grid file.
    pub fn load(path: &Path) -> Result<ReportGrid> {
        ReportGrid::load_if_present(path)?
            .ok_or_else(|| Error::invalid(format!("read {}: no such file", path.display())))
    }

    /// [`ReportGrid::load`], with `None` for a file that does not exist.
    fn load_if_present(path: &Path) -> Result<Option<ReportGrid>> {
        let unreadable =
            |e: &dyn std::fmt::Display| Error::invalid(format!("read {}: {e}", path.display()));
        genbase_util::faults::hit("checkpoint.load").map_err(|e| unreadable(&e))?;
        match std::fs::read_to_string(path) {
            Ok(text) => ReportGrid::from_json(&text).map(Some),
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => Ok(None),
            Err(e) => Err(unreadable(&e)),
        }
    }

    /// Load the checkpoint of a sweep under `fingerprint`, falling back to
    /// the last-good `.bak` rotated by `save_text` when the primary is torn
    /// (a writer died mid-write) or missing (it died between the two
    /// renames). Returns the grid — empty when neither file exists: the
    /// sweep has not checkpointed yet — plus a human-readable note when
    /// recovery happened.
    fn load_with_recovery(path: &Path, fingerprint: &str) -> Result<(ReportGrid, Option<String>)> {
        let (grid, note) = match ReportGrid::load_if_present(path) {
            Ok(Some(grid)) => (grid, None),
            lost => {
                let bak = path.with_extension("bak");
                let Some(grid) = ReportGrid::load_if_present(&bak)? else {
                    return lost.map(|_| Default::default());
                };
                let why = lost
                    .err()
                    .map_or("is missing".into(), |e| format!("was torn ({e})"));
                let (path, bak, cells) = (path.display(), bak.display(), grid.len());
                let note = format!("checkpoint {path} {why}; recovered {cells} cells from {bak}");
                (grid, Some(note))
            }
        };
        grid.check_config(&format!("checkpoint {}", path.display()), fingerprint)?;
        Ok((grid, note))
    }

    /// Refuse a grid stamped by another configuration (`what` names the
    /// file for the error); unstamped legacy grids pass.
    pub fn check_config(&self, what: &str, fingerprint: &str) -> Result<()> {
        match self.fingerprint() {
            Some(have) if have != fingerprint => Err(Error::invalid(format!(
                "{what} is from a different configuration ({have} vs {fingerprint}); \
                 repeat its --scale/--sim-only/... flags, or delete it"
            ))),
            _ => Ok(()),
        }
    }

    /// Persist atomically (write temp file, then rename), so a sweep killed
    /// mid-write never corrupts its checkpoint.
    pub fn save(&self, path: &Path) -> Result<()> {
        save_text(path, &self.to_json())
    }
}

/// Atomic file write: temp file, then rename over the target, rotating the
/// previous file to `.bak` first so a reader always has one last-good
/// generation to fall back on. One writer per target at a time (a sweep's
/// [`Ledger`] serialises its own).
fn save_text(path: &Path, text: &str) -> Result<()> {
    // Fault site: a `torn:<n>` rule here clobbers the target with a prefix
    // of the new content and fails, exactly like a writer crashing mid-way
    // through a non-atomic write. Recovery must come from the `.bak`.
    match genbase_util::faults::write_action("checkpoint.write") {
        Ok(None) => {}
        Ok(Some(n)) => {
            let torn = &text[..n.min(text.len())];
            let _ = std::fs::write(path, torn);
            return Err(Error::invalid(format!(
                "write {}: injected torn write after {n} bytes",
                path.display()
            )));
        }
        Err(e) => {
            return Err(Error::invalid(format!("write {}: {e}", path.display())));
        }
    }
    let tmp = path.with_extension("tmp");
    std::fs::write(&tmp, text)
        .map_err(|e| Error::invalid(format!("write {}: {e}", tmp.display())))?;
    // Best-effort: with no previous generation there is nothing to rotate,
    // and a missing backup only weakens recovery.
    let _ = std::fs::rename(path, path.with_extension("bak"));
    std::fs::rename(&tmp, path)
        .map_err(|e| Error::invalid(format!("rename {}: {e}", path.display())))?;
    Ok(())
}

/// Where one planned cell stands in a sweep's [`Ledger`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CellState {
    /// Not handed out, or handed out and given back.
    Pending,
    /// Handed out by [`Ledger::take`], not reported on yet.
    Out,
    /// Its outcome is in the grid (this run's, or the checkpoint's).
    Settled,
    /// Ended in a hard error the sweep will report.
    Failed,
}

/// The mutable half of a [`Ledger`].
#[derive(Default)]
struct Book {
    grid: ReportGrid,
    /// One state per planned cell, in plan order.
    states: Vec<CellState>,
    /// Hard errors by plan index: the first in plan order comes first.
    errors: BTreeMap<usize, Error>,
    write_error: Option<Error>,
}

/// What a sweep *is* between its plan and its grid, whoever runs the cells
/// (in-process jobs, a shard of them, a coordinator's workers): which
/// planned cells are still to run, the outcomes of those that have, the
/// hard failures, and the checkpoint file.
///
/// The checkpoint has one writer: every change renders and renames under
/// one lock, so the file on disk only ever gains cells, always parses, and
/// its `.bak` is the generation before it; [`Ledger::open`] recovers from
/// whichever of the two survives. A failed write halts the sweep: nothing
/// more is handed out or written, and [`Ledger::finish`] reports it.
pub struct Ledger {
    plan: Vec<CellKey>,
    checkpoint: Option<PathBuf>,
    /// Planned cells the checkpoint already held at [`Ledger::open`].
    restored: usize,
    recovered: Option<String>,
    opened: std::time::Instant,
    book: Mutex<Book>,
    /// Held from rendering the grid until its file is in place.
    writer: Mutex<()>,
}

impl Ledger {
    /// Open the books on `plan`: load `checkpoint` if it (or its `.bak`)
    /// exists, refuse one written under another `fingerprint`, and count the
    /// planned cells it already holds as settled.
    pub fn open(
        plan: Vec<CellKey>,
        fingerprint: String,
        checkpoint: Option<PathBuf>,
    ) -> Result<Ledger> {
        let opened = std::time::Instant::now();
        let (mut grid, recovered) = match &checkpoint {
            Some(path) => ReportGrid::load_with_recovery(path, &fingerprint)?,
            None => Default::default(),
        };
        grid.set_fingerprint(fingerprint);
        let held = |cell| match grid.contains(cell) {
            true => CellState::Settled,
            false => CellState::Pending,
        };
        let states: Vec<CellState> = plan.iter().map(held).collect();
        let restored = states.iter().filter(|s| **s == CellState::Settled).count();
        let book = Book {
            grid,
            states,
            ..Book::default()
        };
        Ok(Ledger {
            plan,
            checkpoint,
            restored,
            recovered,
            opened,
            book: Mutex::new(book),
            writer: Mutex::default(),
        })
    }

    /// Run `change` on the book and on `cell`'s index in the plan.
    fn at<T>(&self, cell: &CellKey, change: impl FnOnce(&mut Book, usize) -> T) -> Option<T> {
        let i = self.plan.iter().position(|c| c == cell)?;
        Some(change(&mut lock(&self.book), i))
    }

    /// Hand out the first pending cell in plan order, with whatever
    /// progress ({kernel → state}) an earlier holder saved for it.
    pub fn take(&self) -> Option<(CellKey, Option<Json>)> {
        let mut book = lock(&self.book);
        if book.write_error.is_some() {
            return None;
        }
        let i = book.states.iter().position(|s| *s == CellState::Pending)?;
        book.states[i] = CellState::Out;
        let progress = book.grid.progress_for(&self.plan[i].id()).cloned();
        Some((self.plan[i].clone(), progress))
    }

    /// Return a cell that was handed out and not run; whether it was still
    /// out (and so is pending again) rather than settled or failed meanwhile.
    pub fn give_back(&self, cell: &CellKey) -> bool {
        self.at(cell, |book, i| {
            let out = book.states[i] == CellState::Out;
            if out {
                book.states[i] = CellState::Pending;
            }
            out
        }) == Some(true)
    }

    /// Record a planned cell's outcome and checkpoint it. (The same outcome
    /// may arrive twice: a re-issued lease whose first holder also finished.)
    pub fn settle(&self, cell: &CellKey, outcome: CellOutcome) {
        self.at(cell, |book, i| {
            book.grid.insert(cell, outcome);
            book.states[i] = CellState::Settled;
        });
        self.persist();
    }

    /// Record that an unsettled cell ended in a hard error. The rest of the
    /// sweep goes on; [`Ledger::finish`] reports the first failure in plan
    /// order.
    pub fn fail(&self, cell: &CellKey, error: Error) {
        self.at(cell, |book, i| {
            if book.states[i] != CellState::Settled {
                book.states[i] = CellState::Failed;
                book.errors.entry(i).or_insert(error);
            }
        });
    }

    /// Save an intra-cell progress snapshot of one kernel of an unsettled
    /// cell and checkpoint it, so a later holder resumes mid-iteration.
    pub fn note_progress(&self, cell: &CellKey, kernel: &str, state: Json) {
        let id = cell.id();
        lock(&self.book).grid.set_progress(&id, kernel, state);
        self.persist();
    }

    /// Where `cell` stands; `None` for a cell outside the plan.
    pub fn state_of(&self, cell: &CellKey) -> Option<CellState> {
        self.at(cell, |book, i| book.states[i])
    }

    /// How many planned cells are in `state` right now.
    pub fn count(&self, state: CellState) -> usize {
        let book = lock(&self.book);
        book.states.iter().filter(|s| **s == state).count()
    }

    /// Whether a checkpoint write failed: nothing more is handed out.
    pub fn halted(&self) -> bool {
        lock(&self.book).write_error.is_some()
    }

    /// Render the grid and put it in place, one writer at a time: a
    /// snapshot rendered earlier can never rename over one rendered later.
    fn persist(&self) {
        let Some(path) = &self.checkpoint else { return };
        let _writer = lock(&self.writer);
        if self.halted() {
            return;
        }
        let text = lock(&self.book).grid.to_json();
        if let Err(e) = save_text(path, &text) {
            lock(&self.book).write_error = Some(e);
        }
    }

    /// Close the books: leave the checkpoint holding exactly the returned
    /// grid (also when nothing was left to run, e.g. after a recovery), then
    /// report the failed checkpoint write, or the first failed cell in plan
    /// order, if there was one. The checkpoint keeps what did complete; the
    /// ledger is spent.
    pub fn finish(&self) -> Result<SweepOutcome> {
        let executed = self.count(CellState::Settled) - self.restored;
        let mut book = lock(&self.book);
        if let Some(e) = book.write_error.take() {
            return Err(e);
        }
        if let Some(path) = &self.checkpoint {
            book.grid.save(path)?;
        }
        if let Some((_, e)) = book.errors.pop_first() {
            return Err(e);
        }
        Ok(SweepOutcome {
            grid: std::mem::take(&mut book.grid),
            planned: self.plan.len(),
            executed,
            skipped: self.restored,
            wall_secs: self.opened.elapsed().as_secs_f64(),
            recovered: self.recovered.clone(),
        })
    }
}

/// How a sweep is split and dispatched.
#[derive(Debug, Clone)]
pub struct SweepOptions {
    /// Total shards the cell list is split across (round-robin by index).
    pub shards: usize,
    /// This run's shard (0-based).
    pub shard_id: usize,
    /// Cells executing concurrently; `HarnessConfig.threads` is divided
    /// between them so kernels and scheduler never oversubscribe.
    pub cells_in_flight: usize,
    /// Checkpoint file: loaded (if present) to skip completed cells,
    /// rewritten after every completion.
    pub checkpoint: Option<PathBuf>,
}

impl Default for SweepOptions {
    fn default() -> Self {
        SweepOptions {
            shards: 1,
            shard_id: 0,
            cells_in_flight: std::thread::available_parallelism()
                .map(|n| n.get())
                .unwrap_or(1),
            checkpoint: None,
        }
    }
}

impl SweepOptions {
    /// Serial execution (one cell at a time, full thread budget per cell).
    pub fn serial() -> SweepOptions {
        SweepOptions {
            cells_in_flight: 1,
            ..Default::default()
        }
    }

    /// With `n` cells in flight.
    pub fn with_cells_in_flight(mut self, n: usize) -> SweepOptions {
        self.cells_in_flight = n.max(1);
        self
    }

    /// Run shard `id` of `n`.
    pub fn with_shard(mut self, n: usize, id: usize) -> SweepOptions {
        self.shards = n.max(1);
        self.shard_id = id;
        self
    }

    /// Checkpoint to (and resume from) `path`.
    pub fn with_checkpoint(mut self, path: impl Into<PathBuf>) -> SweepOptions {
        self.checkpoint = Some(path.into());
        self
    }
}

/// What a sweep did, plus the grid to render from.
#[derive(Debug)]
pub struct SweepOutcome {
    /// All outcomes for this shard (including checkpoint-restored cells).
    pub grid: ReportGrid,
    /// Cells planned for this shard.
    pub planned: usize,
    /// Cells actually executed this run.
    pub executed: usize,
    /// Cells skipped because the checkpoint already had them.
    pub skipped: usize,
    /// Sweep wall-clock seconds from opening its ledger to closing it
    /// (dataset generation + all cells).
    pub wall_secs: f64,
    /// Human-readable note when the checkpoint was recovered from its
    /// `.bak` (torn primary file).
    pub recovered: Option<String>,
}

/// Observer/failure hook invoked before each cell executes. Returning an
/// error marks the cell failed without running it — the mechanism
/// `tests/failure_injection.rs` uses to simulate a killed sweep.
pub type CellHook = dyn Fn(&CellKey) -> Result<()> + Send + Sync;

/// The sweep driver: a pool-backed [`Harness`] plus the engine registry.
pub struct Scheduler {
    harness: Harness,
    engines: Vec<Box<dyn Engine>>,
    hook: Option<Box<CellHook>>,
}

impl Scheduler {
    /// Scheduler over a fresh pool-backed harness.
    pub fn new(config: HarnessConfig) -> Result<Scheduler> {
        Ok(Scheduler {
            harness: Harness::new(config)?,
            engines: engines::all_engines(),
            hook: None,
        })
    }

    /// The underlying harness (datasets, config, rendering context).
    pub fn harness(&self) -> &Harness {
        &self.harness
    }

    /// Mutable harness access, for pre-serve wiring (artifact cache
    /// attachment) before any cells run.
    pub fn harness_mut(&mut self) -> &mut Harness {
        &mut self.harness
    }

    /// Install a pre-execution hook (observation / failure injection).
    pub fn set_cell_hook(&mut self, hook: Box<CellHook>) {
        self.hook = Some(hook);
    }

    /// Plan the full cell list for `figures` in deterministic order.
    pub fn plan(&self, figs: &[FigureId], mn_size: SizeClass) -> Vec<CellKey> {
        figs.iter()
            .flat_map(|&f| figures::plan(f, self.harness.config(), mn_size))
            .collect()
    }

    fn engine(&self, name: &str) -> Result<&dyn Engine> {
        self.engines
            .iter()
            .find(|e| e.name() == name)
            .map(|e| e.as_ref())
            .ok_or_else(|| Error::invalid(format!("unknown engine {name:?}")))
    }

    /// Execute one cell under an explicit thread budget.
    pub fn run_cell(&self, key: &CellKey, threads: usize) -> Result<CellOutcome> {
        self.run_cell_with_progress(key, threads, None)
    }

    /// Execute one cell with an optional intra-cell progress sink (resume
    /// state flows kernel ← sink ← coordinator lease).
    pub fn run_cell_with_progress(
        &self,
        key: &CellKey,
        threads: usize,
        progress: Option<genbase_util::ProgressHandle>,
    ) -> Result<CellOutcome> {
        let engine = self.engine(&key.engine)?;
        let rec = self
            .harness
            .run_cell_with_progress(engine, key.query, key.size, key.nodes, threads, progress)?;
        Ok(CellOutcome::from_run(&rec.outcome))
    }

    /// Run the sweep for `figures`: shard-filter the planned cells, open a
    /// [`Ledger`] on them (skipping checkpointed ones), and drain it with
    /// `cells_in_flight` concurrent tasks into a deterministic grid.
    ///
    /// On a cell failure every other cell still runs and checkpoints; the
    /// first failure (in plan order) is then returned, so a resumed sweep
    /// re-attempts only what is missing.
    pub fn run_sweep(
        &self,
        figs: &[FigureId],
        mn_size: SizeClass,
        sweep: &SweepOptions,
    ) -> Result<SweepOutcome> {
        let shards = sweep.shards.max(1);
        if sweep.shard_id >= shards {
            return Err(Error::invalid(format!(
                "shard id {} out of range (shards = {shards})",
                sweep.shard_id
            )));
        }
        // Shard `id` of `n` runs the cells at plan index `id`, `id + n`, …
        let cells = self.plan(figs, mn_size).into_iter();
        let cells: Vec<CellKey> = cells.skip(sweep.shard_id).step_by(shards).collect();
        let fingerprint = config_fingerprint(self.harness.config());
        let ledger = Ledger::open(cells, fingerprint, sweep.checkpoint.clone())?;

        let in_flight = sweep.cells_in_flight.max(1);
        let per_cell_threads = (self.harness.config().threads / in_flight).max(1);
        parallel_for(in_flight, in_flight, |_| {
            while let Some((cell, _)) = ledger.take() {
                let hooked = self.hook.as_ref().map_or(Ok(()), |hook| hook(&cell));
                match hooked.and_then(|()| self.run_cell(&cell, per_cell_threads)) {
                    Ok(outcome) => ledger.settle(&cell, outcome),
                    Err(e) => ledger.fail(&cell, e),
                }
            }
        });
        ledger.finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn key(figure: FigureId, nodes: usize, engine: &str) -> CellKey {
        CellKey {
            figure,
            query: Query::Covariance,
            size: SizeClass::Small,
            nodes,
            engine: engine.to_string(),
        }
    }

    #[test]
    fn cell_ids_are_stable() {
        let k = key(FigureId::Fig1, 1, "SciDB");
        assert_eq!(k.id(), "fig1/covariance/small/n1/SciDB");
        let k = key(FigureId::Table1, 4, "SciDB + Xeon Phi");
        assert_eq!(k.id(), "table1/covariance/small/n4/SciDB + Xeon Phi");
    }

    #[test]
    fn figure_names_round_trip() {
        for f in FigureId::ALL {
            assert_eq!(FigureId::from_name(f.name()), Some(f));
        }
        assert_eq!(FigureId::from_name("fig9"), None);
    }

    #[test]
    fn grid_json_round_trips() {
        let mut grid = ReportGrid::default();
        grid.insert(
            &key(FigureId::Fig1, 1, "SciDB"),
            CellOutcome::Completed {
                dm: CostReport {
                    wall_secs: 0.125,
                    sim_secs: 0.5,
                    sim_bytes: 1024,
                },
                an: CostReport::default(),
                trace: vec![crate::plan::OpTrace {
                    kind: crate::plan::OpKind::Restructure,
                    phase: crate::plan::Phase::DataManagement,
                    label: "chunk gather".into(),
                    cost: crate::plan::OpCost {
                        wall_secs: 0.125,
                        sim_nanos: 500_000_000,
                        model_secs: 0.0,
                        sim_bytes: 1024,
                        ..crate::plan::OpCost::default()
                    },
                }],
            },
        );
        grid.insert(
            &key(FigureId::Fig1, 1, "Hadoop"),
            CellOutcome::Infinite {
                reason: "cutoff after \"2h\"".into(),
            },
        );
        grid.insert(
            &key(FigureId::Fig1, 1, "Vanilla R"),
            CellOutcome::Unsupported,
        );
        let text = grid.to_json();
        let back = ReportGrid::from_json(&text).unwrap();
        assert_eq!(back, grid);
        assert_eq!(back.to_json(), text, "serialization must be deterministic");
    }

    #[test]
    fn grid_merge_detects_conflicts() {
        let k = key(FigureId::Fig1, 1, "SciDB");
        let mut a = ReportGrid::default();
        a.insert(&k, CellOutcome::Unsupported);
        let mut b = ReportGrid::default();
        b.insert(&k, CellOutcome::Unsupported);
        assert!(a.clone().merge(b).is_ok());
        let mut c = ReportGrid::default();
        c.insert(&k, CellOutcome::Infinite { reason: "x".into() });
        assert!(a.merge(c).is_err());
    }

    #[test]
    fn mismatched_fingerprints_refuse_to_merge() {
        let mut a = ReportGrid::default();
        a.set_fingerprint("scale=0.012;seed=1;timing=SimOnly".into());
        let mut b = ReportGrid::default();
        b.set_fingerprint("scale=0.048;seed=1;timing=SimOnly".into());
        b.insert(&key(FigureId::Fig1, 1, "SciDB"), CellOutcome::Unsupported);
        assert!(a.clone().merge(b.clone()).is_err());
        // Unstamped grids (legacy files) adopt the stamped side's config.
        let mut unstamped = ReportGrid::default();
        unstamped.merge(b.clone()).unwrap();
        assert_eq!(unstamped.fingerprint(), b.fingerprint());
        // Fingerprints survive serialization.
        let back = ReportGrid::from_json(&b.to_json()).unwrap();
        assert_eq!(back.fingerprint(), b.fingerprint());
    }

    #[test]
    fn checkpoint_from_other_config_is_rejected() {
        let path = std::env::temp_dir().join(format!(
            "genbase-ckpt-fingerprint-{}.json",
            std::process::id()
        ));
        let sched = Scheduler::new(HarnessConfig::quick()).unwrap();
        let mut stale = ReportGrid::default();
        stale.set_fingerprint("scale=1;seed=2;timing=Measured".into());
        stale.save(&path).unwrap();
        let sweep = SweepOptions::serial().with_checkpoint(&path);
        let err = sched
            .run_sweep(&[FigureId::Fig1], SizeClass::Small, &sweep)
            .unwrap_err();
        let _ = std::fs::remove_file(&path);
        assert!(err.to_string().contains("different configuration"), "{err}");
    }

    /// Files the surviving pipeline wrote at 64-row morsels while a staged
    /// one existed beside it carry `;stream=batch64+fused` and still merge
    /// and resume under `--stream --batch-rows 64`; files written by the
    /// deleted staged path carry `;stream=batch64` (different memory
    /// columns) and are refused.
    #[test]
    fn streaming_files_load_only_with_the_fused_suffix() {
        let mut config = HarnessConfig::quick().sim_only();
        let plain = config_fingerprint(&config);
        config.stream = Some(crate::engine::StreamConfig {
            batch_rows: 64,
            ..Default::default()
        });
        assert_eq!(
            config_fingerprint(&config),
            format!("{plain};stream=batch64+fused")
        );
        let sched = Scheduler::new(config).unwrap();
        let cells = sched.plan(&[FigureId::Fig1], SizeClass::Small);
        let written_by = |suffix: &str| {
            let mut grid = ReportGrid::default();
            grid.set_fingerprint(format!("{plain}{suffix}"));
            for cell in &cells {
                grid.insert(cell, CellOutcome::Unsupported);
            }
            grid
        };
        let (fused, staged) = (
            written_by(";stream=batch64+fused"),
            written_by(";stream=batch64"),
        );

        let mut ours = ReportGrid::default();
        ours.set_fingerprint(config_fingerprint(sched.harness().config()));
        ours.merge(fused.clone()).unwrap();
        let err = ours.merge(staged.clone()).unwrap_err();
        assert!(
            err.to_string().contains("config fingerprints differ"),
            "{err}"
        );

        let path = std::env::temp_dir().join(format!(
            "genbase-ckpt-stream-suffix-{}.json",
            std::process::id()
        ));
        let sweep = SweepOptions::serial().with_checkpoint(&path);
        fused.save(&path).unwrap();
        let resumed = sched.run_sweep(&[FigureId::Fig1], SizeClass::Small, &sweep);
        staged.save(&path).unwrap();
        let refused = sched.run_sweep(&[FigureId::Fig1], SizeClass::Small, &sweep);
        let _ = std::fs::remove_file(&path);
        let _ = std::fs::remove_file(path.with_extension("bak"));
        let resumed = resumed.unwrap();
        assert_eq!((resumed.executed, resumed.skipped), (0, cells.len()));
        let err = refused.unwrap_err();
        assert!(err.to_string().contains("different configuration"), "{err}");
    }

    #[test]
    fn malformed_checkpoint_costs_are_rejected() {
        let text = format!(
            "{{\"schema\":\"{GRID_SCHEMA}\",\"cells\":{{\
             \"fig1/covariance/small/n1/SciDB\":\
             {{\"status\":\"completed\",\"dm\":[null,null,null],\"an\":[0,0,0]}}}}}}"
        );
        let err = ReportGrid::from_json(&text).unwrap_err();
        assert!(err.to_string().contains("non-numeric"), "{err}");
    }

    /// A `progress` entry is shipped in the cell's next lease and the next
    /// snapshot sets a kernel key on it, so one that is not an object is a
    /// torn file: refused on load, and the sweep resumes from the `.bak`.
    #[test]
    fn a_non_object_progress_entry_is_torn_and_the_bak_resumes() {
        let cell = key(FigureId::Fig1, 1, "SciDB");
        let id = cell.id();
        let torn =
            format!("{{\"schema\":\"{GRID_SCHEMA}\",\"cells\":{{}},\"progress\":{{\"{id}\":5}}}}");
        let err = ReportGrid::from_json(&torn).unwrap_err();
        assert!(err.to_string().contains(&id), "{err}");

        let path =
            std::env::temp_dir().join(format!("genbase-ckpt-progress-{}.json", std::process::id()));
        let mut good = ReportGrid::default();
        good.set_progress(&id, "lanczos", Json::from(1u64));
        good.save(&path).unwrap();
        save_text(&path, &torn).unwrap();
        let ledger = Ledger::open(vec![cell.clone()], "fp".into(), Some(path.clone())).unwrap();
        ledger.note_progress(&cell, "lanczos", Json::from(2u64));
        let (_, progress) = ledger.take().unwrap();
        let outcome = ledger.finish().unwrap();
        for file in [path.clone(), path.with_extension("bak")] {
            let _ = std::fs::remove_file(file);
        }
        let lanczos = progress.as_ref().and_then(|p| p.get("lanczos"));
        assert_eq!(lanczos.and_then(Json::as_u64), Some(2));
        let note = outcome.recovered.unwrap();
        assert!(note.contains("was torn") && note.contains(&id), "{note}");
    }

    #[test]
    fn sweep_rejects_bad_shard_id() {
        let sched = Scheduler::new(HarnessConfig::quick()).unwrap();
        let sweep = SweepOptions::serial().with_shard(2, 2);
        assert!(sched
            .run_sweep(&[FigureId::Fig1], SizeClass::Small, &sweep)
            .is_err());
    }

    #[test]
    fn unknown_engine_is_an_error() {
        let sched = Scheduler::new(HarnessConfig::quick()).unwrap();
        let k = key(FigureId::Fig1, 1, "No Such Engine");
        assert!(sched.run_cell(&k, 1).is_err());
    }
}
