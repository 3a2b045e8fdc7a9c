//! Benchmark cell scheduler.
//!
//! The paper's evaluation is a sweep over (engine × dataset-scale × query ×
//! nodes) cells. This module plans the requested exhibits as independent
//! [`CellKey`] work units, each cell once, and dispatches them onto the shared
//! `genbase_util::runtime` pool, so inter-cell and intra-kernel parallelism
//! compose under one thread budget (`HarnessConfig.threads` split across
//! `cells_in_flight` concurrent cells, remainder to each cell's kernels — no
//! oversubscription). [`Scheduler::run_sweep`] and the coordinator in
//! [`crate::coord`] are the only ways to drain a plan.
//!
//! Determinism: cells report into a fixed-order [`ReportGrid`] keyed by
//! cell id; figure rendering is a pure function of the grid, so fig1–fig5 /
//! table1 output is **byte-identical** between one cell in flight and any
//! number of them (pinned by `tests/sched_determinism.rs`). Under
//! [`TimingMode::SimOnly`](crate::harness::TimingMode) the grid itself is
//! deterministic, so independent runs — a local sweep and a coordinator's
//! workers on other machines — agree byte for byte.
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
use crate::plan::{OpTrace, PlanTrace};
use crate::query::Query;
use crate::report::{PhaseTimes, RunOutcome};
use genbase_datagen::SizeClass;
use genbase_util::{lock, parallel_for, Error, Json, Result};
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
/// `size` dataset over `nodes` simulated nodes. A cell is what it computes,
/// not which exhibit shows it: Figure 2 reads Figure 1's regression cells,
/// Figure 4 and Table 1 read Figure 3's, so a sweep runs each cell once.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct CellKey {
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
    /// Stable string id, e.g. `covariance/small/n1/SciDB`.
    pub fn id(&self) -> String {
        format!(
            "{}/{}/n{}/{}",
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
/// rendering needs (the operator trace or the failure class), without the
/// full typed query output.
#[derive(Debug, Clone, PartialEq)]
pub enum CellOutcome {
    /// Finished within budget.
    Completed {
        /// Per-operator plan trace: the cell's whole cost, carried through
        /// grid files and the coordinator wire protocol. The paper's phase
        /// split is derived from it ([`CellOutcome::phases`]).
        trace: PlanTrace,
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
            RunOutcome::Completed(r) => {
                // What a cell serializes is all it carries: the display-only
                // columns (see `OpCost`) stay on the run's own report.
                let mut trace = r.trace.clone();
                for op in &mut trace.ops {
                    let cost = &mut op.cost;
                    (cost.cache_hits, cost.rows_selected, cost.kernel_threads) = (0, 0, 0);
                }
                CellOutcome::Completed { trace }
            }
            RunOutcome::Infinite { reason } => CellOutcome::Infinite {
                reason: reason.clone(),
            },
            RunOutcome::Unsupported => CellOutcome::Unsupported,
        }
    }

    /// The phase split for completed cells: the trace's per-phase rollup.
    pub fn phases(&self) -> Option<PhaseTimes> {
        match self {
            CellOutcome::Completed { trace } => Some(trace.phase_times()),
            _ => None,
        }
    }

    /// The per-operator trace for completed cells.
    pub fn trace(&self) -> Option<&[OpTrace]> {
        match self {
            CellOutcome::Completed { trace } => Some(&trace.ops),
            _ => None,
        }
    }

    /// Table-cell text: total seconds, `inf` or `-`.
    pub fn cell(&self) -> String {
        match self {
            CellOutcome::Completed { trace } => {
                genbase_util::fmt_secs(trace.phase_times().total_secs())
            }
            CellOutcome::Infinite { .. } => "inf".to_string(),
            CellOutcome::Unsupported => "-".to_string(),
        }
    }

    /// Serialize (grid files, wire protocol).
    pub fn to_json(&self) -> Json {
        let mut obj = Json::obj();
        match self {
            CellOutcome::Completed { trace } => {
                obj.set("status", Json::from("completed"));
                let ops = trace.ops.iter().map(OpTrace::to_json).collect();
                obj.set("trace", Json::Arr(ops));
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

    /// Inverse of [`CellOutcome::to_json`]. A completed cell without its
    /// trace is malformed: it would render as a zero-cost bar.
    pub fn from_json(value: &Json) -> Result<CellOutcome> {
        let status = value
            .get("status")
            .and_then(Json::as_str)
            .ok_or_else(|| Error::invalid("cell outcome missing status"))?;
        match status {
            "completed" => {
                let items = value
                    .get("trace")
                    .and_then(Json::as_arr)
                    .ok_or_else(|| Error::invalid("completed cell missing trace"))?;
                let ops = items
                    .iter()
                    .map(OpTrace::from_json)
                    .collect::<Result<_>>()?;
                Ok(CellOutcome::Completed {
                    trace: PlanTrace { ops },
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
/// from mismatched runs are rejected instead of silently mixing outcomes.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct ReportGrid {
    cells: BTreeMap<String, CellOutcome>,
    fingerprint: Option<String>,
}

/// The configuration facets that change cell outcomes: anything differing
/// here makes grids incomparable. The cutoff only matters in Measured mode
/// (SimOnly disables it), so two SimOnly runs with different `--cutoff`
/// flags still compare equal.
///
/// `threads` is included because it is the *simulated machine size*:
/// `ExecContext.sim_threads` feeds Hadoop's task-slot count (and with it
/// the simulated shuffle costs), so hosts with different core counts
/// produce different grids even under SimOnly. Cross-machine runs — a
/// coordinator's workers — must pin `--threads` explicitly; the
/// per-cell `--jobs` *budget* deliberately stays out of the fingerprint
/// (kernels are bit-identical across thread budgets).
pub fn config_fingerprint(config: &HarnessConfig) -> String {
    let cutoff = match config.timing {
        crate::harness::TimingMode::Measured => format!("{}", config.cutoff.as_secs_f64()),
        crate::harness::TimingMode::SimOnly => "off".to_string(),
    };
    // `--mem-budget` changes cell outcomes, so a set budget is part of the
    // fingerprint (appended only when set).
    let mem_budget = match config.mem_budget {
        Some(bytes) => format!(";membudget={bytes}"),
        None => String::new(),
    };
    // Streaming mode changes the trace's memory dimension (batches, spill,
    // peak), so cells from streaming and materializing runs must not mix.
    // `batch_rows` is semantic; the spill directory is not.
    let stream = match &config.stream {
        Some(s) => format!(";stream=batch{}", s.batch_rows),
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

/// Grid / checkpoint file schema tag; bump on any change to the file's
/// shape, so a file from another version is refused by name.
pub const GRID_SCHEMA: &str = "genbase-grid-v4";

impl ReportGrid {
    /// Number of recorded cells.
    pub fn len(&self) -> usize {
        self.cells.len()
    }

    /// Whether the grid is empty.
    pub fn is_empty(&self) -> bool {
        self.cells.is_empty()
    }

    /// Record a cell outcome.
    pub fn insert(&mut self, key: &CellKey, outcome: CellOutcome) {
        self.cells.insert(key.id(), outcome);
    }

    /// Look up a cell.
    pub fn get(&self, key: &CellKey) -> Option<&CellOutcome> {
        self.cells.get(&key.id())
    }

    /// Whether a cell is recorded.
    pub fn contains(&self, key: &CellKey) -> bool {
        self.cells.contains_key(&key.id())
    }

    /// The configuration fingerprint, if stamped.
    pub fn fingerprint(&self) -> Option<&str> {
        self.fingerprint.as_deref()
    }

    /// Stamp the grid with its producing configuration.
    pub fn set_fingerprint(&mut self, fingerprint: String) {
        self.fingerprint = Some(fingerprint);
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
        doc.render()
    }

    /// Parse a serialized grid.
    pub fn from_json(text: &str) -> Result<ReportGrid> {
        let doc = Json::parse(text)?;
        let schema = doc.get("schema").and_then(Json::as_str);
        if schema != Some(GRID_SCHEMA) {
            let schema = schema.unwrap_or("<none>");
            return Err(Error::invalid(format!(
                "grid schema {schema} is not {GRID_SCHEMA}: this version reads only its own grids"
            )));
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
        // Refuse a grid stamped by another configuration, or by none: every
        // grid a sweep writes carries its fingerprint.
        match grid.fingerprint() {
            Some(have) if have == fingerprint => Ok((grid, note)),
            have => Err(Error::invalid(format!(
                "checkpoint {} is from a different configuration ({} vs {fingerprint}); \
                 repeat its --scale/--sim-only/... flags, or delete it",
                path.display(),
                have.unwrap_or("<unstamped>")
            ))),
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
/// (in-process jobs or a coordinator's workers): which
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
    /// Open the books on `plan`: refuse a plan that lists a cell twice (its
    /// second copy could never settle), load `checkpoint` if it (or its
    /// `.bak`) exists, refuse one written under another `fingerprint`, and
    /// count the planned cells it already holds as settled.
    pub fn open(
        plan: Vec<CellKey>,
        fingerprint: String,
        checkpoint: Option<PathBuf>,
    ) -> Result<Ledger> {
        let opened = std::time::Instant::now();
        let mut seen = std::collections::HashSet::new();
        if let Some(twice) = plan.iter().find(|cell| !seen.insert(*cell)) {
            let msg = format!("the sweep plan lists cell {} twice", twice.id());
            return Err(Error::invalid(msg));
        }
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

    /// Hand out the first pending cell in plan order.
    pub fn take(&self) -> Option<CellKey> {
        let mut book = lock(&self.book);
        if book.write_error.is_some() {
            return None;
        }
        let i = book.states.iter().position(|s| *s == CellState::Pending)?;
        book.states[i] = CellState::Out;
        Some(self.plan[i].clone())
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

/// How a sweep is dispatched.
#[derive(Debug, Clone)]
pub struct SweepOptions {
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

    /// Checkpoint to (and resume from) `path`.
    pub fn with_checkpoint(mut self, path: impl Into<PathBuf>) -> SweepOptions {
        self.checkpoint = Some(path.into());
        self
    }
}

/// What a sweep did, plus the grid to render from.
#[derive(Debug)]
pub struct SweepOutcome {
    /// All outcomes of the sweep (including checkpoint-restored cells).
    pub grid: ReportGrid,
    /// Cells planned for the sweep.
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

    /// Plan the cells `figs` need, each once, in deterministic order
    /// ([`figures::plan_sweep`]).
    pub fn plan(&self, figs: &[FigureId], mn_size: SizeClass) -> Vec<CellKey> {
        figures::plan_sweep(figs, self.harness.config(), mn_size)
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
        let engine = self.engine(&key.engine)?;
        let rec = self
            .harness
            .run_cell_with_threads(engine, key.query, key.size, key.nodes, threads)?;
        Ok(CellOutcome::from_run(&rec.outcome))
    }

    /// Run the sweep for `figures`: open a [`Ledger`] on the planned cells
    /// (skipping checkpointed ones), and drain it with `cells_in_flight`
    /// concurrent tasks into a deterministic grid.
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
        let cells = self.plan(figs, mn_size);
        let fingerprint = config_fingerprint(self.harness.config());
        let ledger = Ledger::open(cells, fingerprint, sweep.checkpoint.clone())?;

        let in_flight = sweep.cells_in_flight.max(1);
        let per_cell_threads = (self.harness.config().threads / in_flight).max(1);
        parallel_for(in_flight, in_flight, |_| {
            while let Some(cell) = ledger.take() {
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

    fn key(nodes: usize, engine: &str) -> CellKey {
        CellKey {
            query: Query::Covariance,
            size: SizeClass::Small,
            nodes,
            engine: engine.to_string(),
        }
    }

    /// A one-op completed cell: 0.125 s wall plus 0.5 s simulated.
    fn completed() -> CellOutcome {
        CellOutcome::Completed {
            trace: PlanTrace {
                ops: vec![OpTrace {
                    kind: crate::plan::OpKind::Restructure,
                    phase: crate::plan::Phase::DataManagement,
                    label: "chunk gather".into(),
                    cost: crate::plan::OpCost {
                        wall_secs: 0.125,
                        sim_nanos: 500_000_000,
                        sim_bytes: 1024,
                        ..crate::plan::OpCost::default()
                    },
                }],
            },
        }
    }

    #[test]
    fn cell_ids_are_stable() {
        let k = key(1, "SciDB");
        assert_eq!(k.id(), "covariance/small/n1/SciDB");
        let k = key(4, "SciDB + Xeon Phi");
        assert_eq!(k.id(), "covariance/small/n4/SciDB + Xeon Phi");
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
        grid.insert(&key(1, "SciDB"), completed());
        grid.insert(
            &key(1, "Hadoop"),
            CellOutcome::Infinite {
                reason: "cutoff after \"2h\"".into(),
            },
        );
        grid.insert(&key(1, "Vanilla R"), CellOutcome::Unsupported);
        grid.set_fingerprint("scale=0.012;seed=1;timing=SimOnly".into());
        let text = grid.to_json();
        let back = ReportGrid::from_json(&text).unwrap();
        assert_eq!(back, grid);
        assert_eq!(back.to_json(), text, "serialization must be deterministic");
        // Fingerprints survive serialization.
        assert_eq!(
            back.fingerprint(),
            Some("scale=0.012;seed=1;timing=SimOnly")
        );
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

    #[test]
    fn streaming_fingerprints_end_with_the_batch_size() {
        let mut config = HarnessConfig::quick().sim_only();
        let plain = config_fingerprint(&config);
        config.stream = Some(crate::engine::StreamConfig {
            batch_rows: 64,
            ..Default::default()
        });
        assert_eq!(
            config_fingerprint(&config),
            format!("{plain};stream=batch64")
        );
    }

    /// A completed cell is its trace: the phase split is not stored, on
    /// the wire or in a grid.
    #[test]
    fn a_completed_cell_serializes_its_trace_alone() {
        let json = completed().to_json();
        assert!(
            json.get("dm").is_none() && json.get("an").is_none(),
            "{json:?}"
        );
        let phases = completed().phases().unwrap();
        assert_eq!(phases.data_management.wall_secs, 0.125);
        assert_eq!(phases.data_management.sim_secs, 0.5);
        assert_eq!(phases.data_management.sim_bytes, 1024);
        assert_eq!(completed().cell(), genbase_util::fmt_secs(0.625));
    }

    /// The formats this version does not write are refused by name, each
    /// with a typed error: a grid of another schema, and a completed cell
    /// without its trace.
    #[test]
    fn old_grid_formats_are_refused() {
        let mut grid = ReportGrid::default();
        grid.insert(&key(1, "SciDB"), completed());
        // v1 stored each cell's phase split; v2 keyed cells by exhibit too.
        for old in ["genbase-grid-v1", "genbase-grid-v2"] {
            let text = grid.to_json().replace(GRID_SCHEMA, old);
            let err = ReportGrid::from_json(&text).unwrap_err();
            assert!(matches!(err, Error::Invalid(_)), "{err:?}");
            let msg = err.to_string();
            assert!(msg.contains(old) && msg.contains(GRID_SCHEMA), "{msg}");
        }

        // A completed cell as the v1 schema wrote it before traces existed.
        let traceless = format!(
            "{{\"schema\":\"{GRID_SCHEMA}\",\"cells\":{{\"covariance/small/n1/SciDB\":\
             {{\"status\":\"completed\",\"dm\":[0.5,0.25,10],\"an\":[1.0,0.0,0]}}}}}}"
        );
        let err = ReportGrid::from_json(&traceless).unwrap_err();
        assert!(matches!(err, Error::Invalid(_)), "{err:?}");
        assert!(err.to_string().contains("missing trace"), "{err}");
    }

    /// Every grid a sweep writes is stamped with its configuration, so an
    /// unstamped checkpoint is refused rather than resumed.
    #[test]
    fn an_unstamped_checkpoint_is_refused() {
        let path = std::env::temp_dir().join(format!(
            "genbase-ckpt-unstamped-{}.json",
            std::process::id()
        ));
        ReportGrid::default().save(&path).unwrap();
        let opened = Ledger::open(vec![key(1, "SciDB")], "fp".into(), Some(path.clone()));
        let _ = std::fs::remove_file(&path);
        let err = opened
            .err()
            .expect("an unstamped checkpoint must be refused");
        assert!(matches!(err, Error::Invalid(_)), "{err:?}");
        assert!(err.to_string().contains("<unstamped>"), "{err}");
    }

    /// `Ledger::at` finds a cell's first copy, so a second copy could
    /// never settle and its sweep would never finish: refused at open.
    #[test]
    fn a_plan_listing_a_cell_twice_is_refused() {
        let plan = vec![key(1, "SciDB"), key(2, "SciDB"), key(1, "SciDB")];
        let err = Ledger::open(plan, "fp".into(), None)
            .err()
            .expect("a repeated cell must be refused");
        assert!(matches!(err, Error::Invalid(_)), "{err:?}");
        let msg = err.to_string();
        assert!(msg.contains("covariance/small/n1/SciDB twice"), "{msg}");
    }

    #[test]
    fn malformed_checkpoint_costs_are_rejected() {
        let mut grid = ReportGrid::default();
        grid.insert(&key(1, "SciDB"), completed());
        let text = grid.to_json().replace("\"wall\":0.125", "\"wall\":null");
        let err = ReportGrid::from_json(&text).unwrap_err();
        assert!(err.to_string().contains("missing numeric wall"), "{err}");
    }

    #[test]
    fn unknown_engine_is_an_error() {
        let sched = Scheduler::new(HarnessConfig::quick()).unwrap();
        let k = key(1, "No Such Engine");
        assert!(sched.run_cell(&k, 1).is_err());
    }
}
