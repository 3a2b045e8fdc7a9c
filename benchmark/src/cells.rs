//! The three cell workloads: `sql_mat`, `sql_stream`, `array_kernels`.
//!
//! A *cell* is one `(engine, query)` executed by `Harness::run_cell`; a
//! *pass* runs every cell of the workload once in a seeded shuffled order.
//! Set-up builds the harness, generates the dataset and runs one warm-up
//! pass whose outputs become the reference every timed cell must equal.

use crate::report::{self, Metric, Params, WorkloadReport};
use crate::spans::Recorder;
use crate::stats::{geomean, median};
use crate::{host, sample, spec};
use genbase::engine::StreamConfig;
use genbase::harness::{Harness, HarnessConfig};
use genbase::{engines, Engine, Query, QueryOutput, QueryReport, RunOutcome};
use genbase_datagen::SizeClass;
use genbase_storage::ArtifactCache;
use std::sync::Arc;
use std::time::Instant;

/// The SQL-bridge engines of `sql_mat` / `sql_stream`.
pub const SQL_ENGINES: [&str; 3] = ["Postgres + R", "Column store + R", "Column store + UDFs"];

/// Storage budget of `sql_stream`: the reel keeps a quarter resident and
/// spills the rest of the 16.6 MB of Medium triples.
pub const STREAM_MEM_BUDGET: u64 = 16 << 20;

/// Rows per morsel in `sql_stream`.
pub const STREAM_BATCH_ROWS: usize = 4096;

/// Passes of a traced run.
const TRACED_PASSES: usize = 3;

/// A cell workload's fixed shape.
pub struct CellWorkload {
    /// Workload name.
    pub name: &'static str,
    /// Engine display names.
    pub engines: &'static [&'static str],
    /// Dataset size class (Small in quick mode).
    pub size: SizeClass,
    /// Fused morsel streaming under [`STREAM_MEM_BUDGET`].
    pub stream: bool,
}

/// Look up a cell workload by name.
pub fn workload(name: &str) -> Option<CellWorkload> {
    match name {
        "sql_mat" => Some(CellWorkload {
            name: "sql_mat",
            engines: &SQL_ENGINES,
            size: SizeClass::Medium,
            stream: false,
        }),
        "sql_stream" => Some(CellWorkload {
            name: "sql_stream",
            engines: &SQL_ENGINES,
            size: SizeClass::Medium,
            stream: true,
        }),
        "array_kernels" => Some(CellWorkload {
            name: "array_kernels",
            engines: &["SciDB"],
            size: SizeClass::Large,
            stream: false,
        }),
        _ => None,
    }
}

/// The harness configuration of a cell workload. `fused` picks the
/// streaming path when the workload streams (the staged path exists only
/// for the ladder's go/no-go row).
pub fn harness_config(w: &CellWorkload, p: &Params, fused: bool) -> HarnessConfig {
    let size = if p.quick { SizeClass::Small } else { w.size };
    HarnessConfig {
        sizes: vec![size],
        seed: spec::DATA_SEED,
        threads: p.host_threads,
        mem_budget: w.stream.then_some(STREAM_MEM_BUDGET),
        stream: w.stream.then(|| StreamConfig {
            batch_rows: STREAM_BATCH_ROWS,
            spill_dir: Some(p.out_dir.join("spill")),
            fused,
        }),
        ..HarnessConfig::default()
    }
}

/// A built harness with its engines and cell list.
pub struct Rig {
    harness: Harness,
    engines: Vec<Box<dyn Engine>>,
    size: SizeClass,
    /// `(engine index, query)` in canonical order.
    pub cells: Vec<(usize, Query)>,
}

/// What one timed `run_cell` call returned.
pub struct CellRun {
    /// Outside wall seconds of the call.
    pub secs: f64,
    /// The outcome; anything but `Completed` is a failed op.
    pub outcome: RunOutcome,
}

impl Rig {
    /// Build the harness and generate its dataset.
    pub fn new(config: HarnessConfig, engine_names: &[&str]) -> Result<Rig, String> {
        Rig::with_cache(config, engine_names, None)
    }

    /// [`Rig::new`] with an artifact cache attached to the harness.
    pub fn with_cache(
        config: HarnessConfig,
        engine_names: &[&str],
        cache: Option<Arc<ArtifactCache>>,
    ) -> Result<Rig, String> {
        let size = config.sizes[0];
        let all = engines::single_node_engines();
        let mut engines = Vec::new();
        for engine in all {
            if engine_names.contains(&engine.name()) {
                engines.push(engine);
            }
        }
        if engines.len() != engine_names.len() {
            return Err(format!(
                "not every engine of {engine_names:?} is registered"
            ));
        }
        let cells = (0..engines.len())
            .flat_map(|e| Query::ALL.into_iter().map(move |q| (e, q)))
            .collect();
        let mut harness = Harness::new(config).map_err(|e| e.to_string())?;
        if let Some(cache) = cache {
            harness.set_artifact_cache(cache);
        }
        harness.dataset(size).map_err(|e| e.to_string())?;
        Ok(Rig {
            harness,
            engines,
            size,
            cells,
        })
    }

    /// `engine/query` label of a cell.
    pub fn label(&self, cell: usize) -> String {
        let (e, q) = self.cells[cell];
        format!("{}/{}", self.engines[e].name(), q.name())
    }

    /// Time one cell from outside.
    pub fn run(&self, cell: usize) -> Result<CellRun, String> {
        let (e, q) = self.cells[cell];
        let start = Instant::now();
        let record = self
            .harness
            .run_cell(self.engines[e].as_ref(), q, self.size, 1)
            .map_err(|err| format!("{}: {err}", self.label(cell)))?;
        Ok(CellRun {
            secs: start.elapsed().as_secs_f64(),
            outcome: record.outcome,
        })
    }

    /// One pass in canonical order: each cell's outside wall seconds.
    pub fn pass_secs(&self) -> Result<Vec<f64>, String> {
        (0..self.cells.len())
            .map(|cell| {
                let run = self.run(cell)?;
                match run.outcome {
                    RunOutcome::Completed(_) => Ok(run.secs),
                    other => Err(format!("{} did not complete: {other:?}", self.label(cell))),
                }
            })
            .collect()
    }

    /// One untimed pass in canonical order, returning every cell's output.
    pub fn outputs(&self) -> Result<Vec<QueryOutput>, String> {
        (0..self.cells.len())
            .map(|c| match self.run(c)?.outcome {
                RunOutcome::Completed(report) => Ok(report.output),
                other => Err(format!("{} did not complete: {other:?}", self.label(c))),
            })
            .collect()
    }
}

/// Per-cell samples of the measured passes.
struct Samples {
    /// Outside wall seconds per cell, one entry per pass.
    secs: Vec<Vec<f64>>,
    /// `peak_alloc_bytes` per cell (the same on every pass).
    peak: Vec<u64>,
}

impl Samples {
    fn new(cells: usize) -> Samples {
        Samples {
            secs: vec![Vec::new(); cells],
            peak: vec![0; cells],
        }
    }

    /// Each cell's fastest run. The work of a cell is fixed, so whatever a
    /// run takes beyond its fastest is the host (on the shared sandbox the
    /// per-cell median over a 16 s window moved 11-17 % between runs with
    /// neighbour load, the minimum 4 %).
    fn best(&self) -> Vec<f64> {
        self.secs
            .iter()
            .map(|s| s.iter().copied().fold(f64::NAN, f64::min))
            .collect()
    }

    fn pass_s(&self) -> f64 {
        self.best().iter().sum()
    }
}

/// Sums of one traced pass, from the `PlanTrace`s the cells returned.
#[derive(Default, Clone)]
struct PassTrace {
    /// Σ `wall_secs` by op kind, indexed like [`spec::OP_KINDS`]; the last
    /// slot is outside wall − Σ ops.
    op_secs: [f64; 8],
    spill_bytes: u64,
    bytes_moved: u64,
}

/// A timed cell that completed with the reference output.
struct TimedCell {
    started: Instant,
    secs: f64,
    report: QueryReport,
}

/// Run one cell inside the measured loop: time it, verify it, sample it.
/// `None` when the op failed (counted in `report`).
fn timed_cell(
    rig: &Rig,
    cell: usize,
    reference: &[QueryOutput],
    samples: &mut Samples,
    report: &mut WorkloadReport,
) -> Result<Option<TimedCell>, String> {
    report.attempted += 1;
    let started = Instant::now();
    let run = rig.run(cell)?;
    let done = match run.outcome {
        RunOutcome::Completed(done) => done,
        other => {
            report.fail(|| format!("{} did not complete: {other:?}", rig.label(cell)));
            return Ok(None);
        }
    };
    if done.output != reference[cell] {
        report.fail(|| {
            format!(
                "{}: output differs from the warm-up reference",
                rig.label(cell)
            )
        });
        return Ok(None);
    }
    // A count, not a measurement: it must repeat exactly from pass to pass.
    let peak = done.memory().peak_alloc_bytes;
    if !samples.secs[cell].is_empty() && samples.peak[cell] != peak {
        report.fail(|| {
            format!(
                "{}: peak_alloc_bytes differs between passes",
                rig.label(cell)
            )
        });
        return Ok(None);
    }
    samples.secs[cell].push(run.secs);
    samples.peak[cell] = peak;
    Ok(Some(TimedCell {
        started,
        secs: run.secs,
        report: done,
    }))
}

/// Run a cell workload, untraced (end-to-end metrics) or traced (spans and
/// the workload's own per-layer metrics).
pub fn run(w: &CellWorkload, p: &Params, process_start: Instant) -> Result<WorkloadReport, String> {
    let mut report = WorkloadReport::new(w.name);
    std::fs::create_dir_all(p.out_dir.join("spill")).map_err(|e| e.to_string())?;

    // Set-up, several times over; the last rig is the one measured.
    let lead_in = process_start.elapsed().as_secs_f64();
    let mut setups = Vec::new();
    let mut built: Option<(Rig, Vec<QueryOutput>)> = None;
    for _ in 0..if p.traced { 1 } else { report::SETUPS } {
        drop(built.take());
        let start = Instant::now();
        let rig = Rig::new(harness_config(w, p, true), w.engines)?;
        let reference = rig.outputs()?;
        setups.push(lead_in + start.elapsed().as_secs_f64());
        built = Some((rig, reference));
    }
    let (rig, reference) = built.expect("at least one set-up");

    if p.traced {
        traced_passes(w, p, &rig, &reference, &mut report)?;
    } else {
        measured_passes(w, p, &rig, &reference, &setups, &mut report)?;
        // `VmHWM` is a high-water mark of the process: read it before the
        // materializing reference below is built, or `sql_stream` would
        // report that path's footprint instead of its own.
        report
            .metrics
            .push(Metric::end_to_end("rss_peak_mb", host::rss_peak_mb()?, 1));
    }

    // The byte-identity contract: streaming outputs equal a materializing
    // run of the same cells. Checked after the window, outside every timing.
    if w.stream {
        let materializing = CellWorkload {
            stream: false,
            ..*w
        };
        let mat = Rig::new(harness_config(&materializing, p, true), w.engines)?.outputs()?;
        for (cell, (streamed, materialized)) in reference.iter().zip(&mat).enumerate() {
            report.attempted += 1;
            if streamed != materialized {
                report.fail(|| {
                    format!(
                        "{} differs between streaming and materializing",
                        rig.label(cell)
                    )
                });
            }
        }
    }
    if !p.traced {
        let share = report.failed as f64 / report.attempted as f64;
        report.metrics.push(Metric::end_to_end(
            "failed_share",
            share,
            report.attempted as usize,
        ));
    }
    Ok(report)
}

/// The measured window of an untraced run: passes in seeded shuffled order
/// until the window is over and the sample floor is met, then the
/// end-to-end metrics.
fn measured_passes(
    w: &CellWorkload,
    p: &Params,
    rig: &Rig,
    reference: &[QueryOutput],
    setups: &[f64],
    report: &mut WorkloadReport,
) -> Result<(), String> {
    let n_cells = rig.cells.len();
    let mut samples = Samples::new(n_cells);
    let window = Instant::now();
    let mut passes = 0usize;
    while window.elapsed() < p.window || passes < p.min_passes() {
        if window.elapsed() > p.hard_cap() {
            return Err(format!(
                "{}: only {passes} passes in {:?}; the protocol needs {}",
                w.name,
                window.elapsed(),
                p.min_passes()
            ));
        }
        for cell in sample::pass_order(p.seed, passes as u64, n_cells) {
            timed_cell(rig, cell, reference, &mut samples, report)?;
        }
        passes += 1;
    }
    let elapsed = window.elapsed().as_secs_f64();
    report.samples = passes;
    let best = samples.best();
    if best.iter().any(|b| b.is_nan()) {
        return Err(format!("{}: a cell never completed correctly", w.name));
    }
    let ms: Vec<f64> = best.iter().map(|s| s * 1e3).collect();
    let peak = *samples.peak.iter().max().expect("cells") as f64 / 1e6;
    let correct = report.attempted - report.failed;
    report.metrics = vec![
        Metric::end_to_end("setup_s", median(setups), setups.len()),
        Metric::end_to_end("pass_s", samples.pass_s(), passes),
        Metric::end_to_end("cell_geomean_ms", geomean(&ms), passes),
        Metric::end_to_end("peak_alloc_mb", peak, passes),
        Metric::end_to_end("req_per_s", correct as f64 / elapsed, correct as usize),
    ];
    Ok(())
}

/// The traced part of a traced run: record `workload > pass > cell > op`
/// spans and sum the returned `PlanTrace`s per pass. The program runs the
/// same code traced or not (it always returns its `PlanTrace`), so what
/// tracing adds is the span recording between cells; that is timed directly
/// and reported against the rest of the pass as `trace_overhead_pct`.
fn traced_passes(
    w: &CellWorkload,
    p: &Params,
    rig: &Rig,
    reference: &[QueryOutput],
    report: &mut WorkloadReport,
) -> Result<(), String> {
    let n_cells = rig.cells.len();
    let origin = Instant::now();
    let mut rec = Recorder::new(origin);
    let root = rec.add(w.name, None, 0, 0.0, 0.0);
    let mut samples = Samples::new(n_cells);
    let mut sums: Vec<PassTrace> = Vec::new();
    let mut trace_id = 0u64;
    let mut recording_secs = 0.0;
    for pass in 0..TRACED_PASSES {
        let pass_start = rec.us(Instant::now());
        let pass_span = rec.add("pass", Some(root), 0, pass_start, pass_start);
        let mut sum = PassTrace::default();
        for cell in sample::pass_order(p.seed, pass as u64, n_cells) {
            let Some(timed) = timed_cell(rig, cell, reference, &mut samples, report)? else {
                continue;
            };
            let recording = Instant::now();
            let ops = &timed.report.trace.ops;
            trace_id += 1;
            let start_us = rec.us(timed.started);
            let end_us = start_us + timed.secs * 1e6;
            let cell_span = rec.add(
                &rig.label(cell),
                Some(pass_span),
                trace_id,
                start_us,
                end_us,
            );
            // Ingest precedes the plan and is not in the PlanTrace, so the
            // ops are laid end to end against the cell's end; what is left
            // at the front is the cell span's self time (ingest + glue).
            let ops_secs: f64 = ops.iter().map(|op| op.cost.wall_secs).sum();
            let mut at = (end_us - ops_secs * 1e6).max(start_us);
            for op in ops {
                let op_end = (at + op.cost.wall_secs * 1e6).min(end_us);
                rec.add(
                    &format!("{}:{}", op.kind.name(), op.label),
                    Some(cell_span),
                    trace_id,
                    at,
                    op_end,
                );
                at = op_end;
                sum.op_secs[spec::op_kind_index(op.kind)] += op.cost.wall_secs;
                sum.spill_bytes += op.cost.spill_bytes;
                sum.bytes_moved += op.cost.bytes_moved();
            }
            // Untraced = the cell span's self time: what the ops leave
            // uncovered.
            sum.op_secs[spec::UNTRACED] += rec.self_time_us(cell_span) / 1e6;
            recording_secs += recording.elapsed().as_secs_f64();
        }
        rec.close(pass_span, rec.us(Instant::now()));
        sums.push(sum);
    }
    rec.close(root, rec.us(Instant::now()));
    let traced_secs = origin.elapsed().as_secs_f64();
    report.samples = TRACED_PASSES;

    for (k, kind) in spec::OP_KINDS.iter().enumerate() {
        let per_pass: Vec<f64> = sums.iter().map(|s| s.op_secs[k] * 1e3).collect();
        report.metrics.push(Metric::per_layer(
            &format!("core.op.{kind}_ms"),
            median(&per_pass),
            per_pass.len(),
        ));
    }
    // Counts: every pass must move and spill exactly the same bytes.
    let mut count = |name: &str, per_pass: Vec<u64>| {
        report.attempted += 1;
        if per_pass.iter().any(|&bytes| bytes != per_pass[0]) {
            report.fail(|| format!("{name} differs between passes: {per_pass:?}"));
        }
        let mb = per_pass[0] as f64 / 1e6;
        report
            .metrics
            .push(Metric::per_layer(name, mb, per_pass.len()));
    };
    count(
        "storage.spill_mb",
        sums.iter().map(|s| s.spill_bytes).collect(),
    );
    count(
        "storage.bytes_moved_mb",
        sums.iter().map(|s| s.bytes_moved).collect(),
    );
    report.trace_overhead_pct = Some(recording_secs / (traced_secs - recording_secs) * 100.0);
    report.spans = Some(rec);
    Ok(())
}
