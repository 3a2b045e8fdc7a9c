//! Failure injection: the paper's two failure modes — computation cutoff
//! and memory-allocation failure — must surface as clean "infinite"
//! outcomes from every engine family, never as panics or wrong answers.
//! Plus scheduler-level failures: a sweep killed mid-run must resume from
//! its checkpoint without re-running completed cells.
//!
//! The chaos tier at the bottom drives the *coordinated* sweep through
//! `genbase_util::faults` plans — worker death mid-cell, torn checkpoint
//! writes, connection resets — and asserts the final grid is byte-identical
//! to an undisturbed serial run every time.

use genbase::prelude::*;
use genbase_datagen::{generate, GeneratorConfig, SizeSpec};
use std::time::Duration;

fn dataset() -> genbase_datagen::Dataset {
    generate(&GeneratorConfig::new(SizeSpec::custom(200, 200, 16))).unwrap()
}

#[test]
fn expired_cutoff_yields_infinite_for_every_engine_family() {
    let data = dataset();
    let params = QueryParams::for_dataset(&data);
    let mut ctx = ExecContext::single_node();
    // A cutoff that is already over when the engine starts.
    ctx.cutoff = Some(Duration::from_nanos(1));
    std::thread::sleep(Duration::from_millis(2));
    for engine in engines::single_node_engines() {
        for query in Query::ALL {
            if !engine.supports(query) {
                continue;
            }
            match engine.run(query, &data, &params, &ctx) {
                Err(e) => assert!(
                    e.is_infinite_result(),
                    "{} / {query:?}: expected cutoff, got {e}",
                    engine.name()
                ),
                Ok(_) => {
                    // Engines whose first budget checkpoint comes after the
                    // (tiny) work finishes may legitimately complete; that
                    // is acceptable only on the smallest phases.
                }
            }
        }
    }
}

#[test]
fn multi_node_cutoff_propagates_from_worker_threads() {
    let data = dataset();
    let params = QueryParams::for_dataset(&data);
    let mut ctx = ExecContext::multi_node(4);
    ctx.cutoff = Some(Duration::from_nanos(1));
    std::thread::sleep(Duration::from_millis(2));
    let engine = engines::SciDb::new();
    let err = engine
        .run(Query::Covariance, &data, &params, &ctx)
        .unwrap_err();
    assert!(
        err.is_infinite_result(),
        "worker timeout must surface: {err}"
    );
}

#[test]
fn oom_during_r_load_is_clean_and_repeatable() {
    let data = dataset();
    let params = QueryParams::for_dataset(&data);
    let mut ctx = ExecContext::single_node();
    ctx.r_mem_bytes = Some(100_000); // far below the ~2.2 MB load peak
    let engine = engines::VanillaR::new();
    for _ in 0..3 {
        let err = engine.run(Query::Svd, &data, &params, &ctx).unwrap_err();
        assert!(err.is_infinite_result());
    }
    // Recovery: a sane budget succeeds afterwards (no leaked accounting).
    ctx.r_mem_bytes = None;
    assert!(engine.run(Query::Svd, &data, &params, &ctx).is_ok());
}

#[test]
fn oom_in_export_bridge_r_side() {
    let data = dataset();
    let params = QueryParams::for_dataset(&data);
    let mut ctx = ExecContext::single_node();
    // Enough for the DBMS work (unlimited — it is disk-backed) but not for
    // the R-side matrix after export: covariance exports sel_patients x all
    // genes (~10 x 200 cells) plus parse buffers; 1 KB cannot hold it.
    ctx.r_mem_bytes = Some(1024);
    let err = engines::PostgresR::new()
        .run(Query::Covariance, &data, &params, &ctx)
        .unwrap_err();
    assert!(
        err.is_infinite_result(),
        "R-side OOM must be infinite: {err}"
    );
}

#[test]
fn killed_sweep_resumes_from_checkpoint_without_rerunning_cells() {
    use genbase::figures;
    use genbase_datagen::SizeClass;
    use std::collections::HashMap;
    use std::sync::{Arc, Mutex};

    // This test's checkpoint writes pass through the `checkpoint.write`
    // fault site; hold the lock so a chaos test's plan cannot fire on them.
    let _guard = fault_lock();
    let config = || {
        HarnessConfig {
            scale: 0.012,
            sizes: vec![SizeClass::Small],
            cutoff: Duration::from_secs(120),
            r_mem_bytes: u64::MAX,
            node_counts: vec![1, 2],
            ..HarnessConfig::quick()
        }
        .sim_only()
    };
    let ckpt =
        std::env::temp_dir().join(format!("genbase-sweep-resume-{}.json", std::process::id()));
    // A `.bak` left by an earlier process with this pid would be recovered
    // as this sweep's checkpoint (and refused if another build wrote it).
    let _ = std::fs::remove_file(&ckpt);
    let _ = std::fs::remove_file(ckpt.with_extension("bak"));
    let sweep = SweepOptions::default()
        .with_cells_in_flight(2)
        .with_checkpoint(&ckpt);
    let executions: Arc<Mutex<HashMap<String, usize>>> = Arc::default();

    // Run 1: "kill" the sweep by failing every SVD cell before it executes.
    let mut sched = Scheduler::new(config()).unwrap();
    let counts = Arc::clone(&executions);
    sched.set_cell_hook(Box::new(move |key: &CellKey| {
        if key.query == Query::Svd {
            return Err(genbase_util::Error::invalid("injected kill"));
        }
        *counts.lock().unwrap().entry(key.id()).or_insert(0) += 1;
        Ok(())
    }));
    let err = sched
        .run_sweep(&[FigureId::Fig1], SizeClass::Small, &sweep)
        .unwrap_err();
    assert!(err.to_string().contains("injected kill"), "got: {err}");
    let partial = ReportGrid::load(&ckpt).expect("checkpoint written before the kill");
    assert!(partial.len() < 35, "killed cells must be missing");
    assert!(!partial.is_empty(), "completed cells must be checkpointed");

    // Run 2: resume without the failure. Only the missing cells execute.
    let mut sched = Scheduler::new(config()).unwrap();
    let counts = Arc::clone(&executions);
    sched.set_cell_hook(Box::new(move |key: &CellKey| {
        *counts.lock().unwrap().entry(key.id()).or_insert(0) += 1;
        Ok(())
    }));
    let resumed = sched
        .run_sweep(&[FigureId::Fig1], SizeClass::Small, &sweep)
        .unwrap();
    assert_eq!(resumed.planned, 35);
    assert_eq!(
        resumed.skipped,
        partial.len(),
        "checkpointed cells must not rerun"
    );
    assert_eq!(resumed.executed, 35 - partial.len());

    // Across both runs, no cell executed twice and every cell executed once.
    let counts = executions.lock().unwrap();
    assert_eq!(counts.len(), 35, "every planned cell must eventually run");
    for (id, n) in counts.iter() {
        assert_eq!(*n, 1, "cell {id} executed {n} times");
    }
    drop(counts);

    // The resumed grid matches an uninterrupted sweep, byte for byte.
    let clean_sched = Scheduler::new(config()).unwrap();
    let clean = clean_sched
        .run_sweep(&[FigureId::Fig1], SizeClass::Small, &SweepOptions::serial())
        .unwrap();
    assert_eq!(resumed.grid.to_json(), clean.grid.to_json());
    let rendered_resumed = figures::render(
        FigureId::Fig1,
        sched.harness(),
        SizeClass::Small,
        &resumed.grid,
    )
    .unwrap()
    .render();
    let rendered_clean = figures::render(
        FigureId::Fig1,
        clean_sched.harness(),
        SizeClass::Small,
        &clean.grid,
    )
    .unwrap()
    .render();
    assert_eq!(rendered_resumed, rendered_clean);
    let _ = std::fs::remove_file(&ckpt);
    let _ = std::fs::remove_file(ckpt.with_extension("bak"));
}

// ---------------------------------------------------------------------------
// Chaos tier: deterministic fault plans against the coordinated sweep.
//
// Fault plans are process-global and the test harness runs tests on
// parallel threads, so every test that installs a plan — or performs I/O
// through a named injection site another test's plan could fire on —
// serializes on `fault_lock` and clears the plan before releasing it.

/// Serialize tests that interact with the process-global fault plan.
fn fault_lock() -> std::sync::MutexGuard<'static, ()> {
    static LOCK: std::sync::Mutex<()> = std::sync::Mutex::new(());
    // A poisoned lock only means an earlier chaos test failed; its plan
    // state is still well-defined (we install/clear ourselves), so proceed.
    LOCK.lock().unwrap_or_else(|e| e.into_inner())
}

fn chaos_config() -> HarnessConfig {
    HarnessConfig {
        scale: 0.012,
        sizes: vec![genbase_datagen::SizeClass::Small],
        r_mem_bytes: u64::MAX,
        ..HarnessConfig::quick()
    }
    .sim_only()
}

/// The undisturbed serial run every chaos outcome must match byte for
/// byte: the grid JSON and the rendered Fig. 1. Computed once (it is
/// pure — `--sim-only` — and touches no fault sites).
fn chaos_golden() -> &'static (String, String) {
    use genbase_datagen::SizeClass;
    static GOLDEN: std::sync::OnceLock<(String, String)> = std::sync::OnceLock::new();
    GOLDEN.get_or_init(|| {
        let sched = Scheduler::new(chaos_config()).unwrap();
        let out = sched
            .run_sweep(&[FigureId::Fig1], SizeClass::Small, &SweepOptions::serial())
            .unwrap();
        let rendered =
            genbase::figures::render(FigureId::Fig1, sched.harness(), SizeClass::Small, &out.grid)
                .unwrap()
                .render();
        (out.grid.to_json(), rendered)
    })
}

fn chaos_render(grid: &ReportGrid) -> String {
    use genbase_datagen::SizeClass;
    let harness = Harness::new(chaos_config()).unwrap();
    genbase::figures::render(FigureId::Fig1, &harness, SizeClass::Small, grid)
        .unwrap()
        .render()
}

/// A worker killed while it holds the lease of Query 4's cell (the Lanczos
/// SVD) dies like a crashed process: no result, no failure report, no
/// reconnect. The coordinator sees EOF and re-issues the lease, and the
/// healthy worker recomputes the cell from the start, byte-identically.
#[test]
fn chaos_worker_killed_holding_a_lease_recomputes_the_cell() {
    use genbase::coord::{run_worker, CoordOptions, Coordinator};
    use genbase_datagen::SizeClass;
    use genbase_util::faults::{self, FaultPlan};

    let _guard = fault_lock();

    // A lone worker leases cells in plan order, so the `worker.cell` site
    // fires for the K-th cell on its K-th hit: K is the first SVD cell.
    let sched = Scheduler::new(chaos_config()).unwrap();
    let plan = sched.plan(&[FigureId::Fig1], SizeClass::Small);
    let k = 1 + plan
        .iter()
        .position(|cell| cell.query == Query::Svd)
        .expect("Fig. 1 plans a Query 4 cell");
    faults::install(FaultPlan::parse(&format!("worker.cell@{k}=err:other")).unwrap());

    let coordinator = Coordinator::bind(
        "127.0.0.1:0",
        chaos_config(),
        &[FigureId::Fig1],
        SizeClass::Small,
        CoordOptions::default(),
    )
    .unwrap();
    let addr = coordinator.local_addr().unwrap();
    let serve = std::thread::spawn(move || coordinator.serve());

    let doomed =
        std::thread::spawn(move || run_worker(addr, chaos_config(), Duration::from_secs(10)));
    let err = doomed.join().unwrap().unwrap_err();
    assert!(
        err.to_string().contains("worker crash"),
        "doomed worker must die the injected death, got: {err}"
    );

    // A healthy worker drains the rest, the killed cell included.
    let report = run_worker(addr, chaos_config(), Duration::from_secs(10)).unwrap();
    let outcome = serve.join().unwrap().unwrap();
    faults::clear();

    assert!(
        outcome.reissued >= 1,
        "the killed worker's lease must be re-issued"
    );
    assert_eq!(outcome.executed, outcome.planned);
    assert!(report.completed >= 1);
    let (grid_json, rendered) = chaos_golden();
    assert_eq!(&outcome.grid.to_json(), grid_json);
    assert_eq!(&chaos_render(&outcome.grid), rendered);
}

/// A checkpoint write torn mid-file kills the coordinator; a restarted
/// coordinator on the same path recovers the last-good `.bak` generation,
/// reports the recovery, and finishes the sweep byte-identically.
#[test]
fn chaos_torn_coordinator_checkpoint_recovers_from_bak_after_restart() {
    use genbase::coord::{run_worker, CoordOptions, Coordinator};
    use genbase_datagen::SizeClass;
    use genbase_util::faults::{self, FaultPlan};

    let _guard = fault_lock();
    let ckpt = std::env::temp_dir().join(format!("genbase-chaos-torn-{}.json", std::process::id()));
    let _ = std::fs::remove_file(&ckpt);
    let _ = std::fs::remove_file(ckpt.with_extension("bak"));

    // The third checkpoint write tears after 64 bytes, like a writer
    // crashing mid-write. Writes one and two succeeded, so the `.bak`
    // rotation holds a complete earlier generation.
    faults::install(FaultPlan::parse("checkpoint.write@3=torn:64").unwrap());
    let coordinator = Coordinator::bind(
        "127.0.0.1:0",
        chaos_config(),
        &[FigureId::Fig1],
        SizeClass::Small,
        CoordOptions::default().with_checkpoint(&ckpt),
    )
    .unwrap();
    let addr = coordinator.local_addr().unwrap();
    let serve = std::thread::spawn(move || coordinator.serve());
    // The worker is drained cleanly (`done`): a checkpoint failure is the
    // coordinator's fault, never blamed on the worker.
    let first = run_worker(addr, chaos_config(), Duration::from_secs(10)).unwrap();
    let err = serve.join().unwrap().unwrap_err();
    assert!(
        err.to_string().contains("torn write"),
        "coordinator must die on the torn checkpoint, got: {err}"
    );
    assert!(first.completed >= 1);
    assert!(
        ReportGrid::load(&ckpt).is_err(),
        "the primary checkpoint must be unreadable after the tear"
    );

    // Restart on the same path: load falls back to the `.bak`, says so,
    // and the sweep completes from where the backup left off.
    let coordinator = Coordinator::bind(
        "127.0.0.1:0",
        chaos_config(),
        &[FigureId::Fig1],
        SizeClass::Small,
        CoordOptions::default().with_checkpoint(&ckpt),
    )
    .unwrap();
    let addr = coordinator.local_addr().unwrap();
    let serve = std::thread::spawn(move || coordinator.serve());
    run_worker(addr, chaos_config(), Duration::from_secs(10)).unwrap();
    let outcome = serve.join().unwrap().unwrap();
    faults::clear();

    let note = outcome
        .recovered
        .expect("restart must report the .bak recovery");
    assert!(note.contains("recovered"), "unexpected note: {note}");
    let (grid_json, rendered) = chaos_golden();
    assert_eq!(&outcome.grid.to_json(), grid_json);
    assert_eq!(&chaos_render(&outcome.grid), rendered);
    let _ = std::fs::remove_file(&ckpt);
    let _ = std::fs::remove_file(ckpt.with_extension("bak"));
}

/// A connection reset while sending a result must not cost the computed
/// cell: the worker reconnects with backoff and re-submits the in-flight
/// report with `resume: true`, which the coordinator reconciles.
#[test]
fn chaos_worker_reconnects_after_reset_and_resumes_its_result() {
    use genbase::coord::{run_worker, CoordOptions, Coordinator};
    use genbase_datagen::SizeClass;
    use genbase_util::faults::{self, FaultPlan};

    let _guard = fault_lock();
    faults::install(FaultPlan::parse("worker.result@2=err:reset; seed=7").unwrap());
    let coordinator = Coordinator::bind(
        "127.0.0.1:0",
        chaos_config(),
        &[FigureId::Fig1],
        SizeClass::Small,
        CoordOptions::default(),
    )
    .unwrap();
    let addr = coordinator.local_addr().unwrap();
    let serve = std::thread::spawn(move || coordinator.serve());

    // One worker drains the sweep despite the reset on its second report.
    let report = run_worker(addr, chaos_config(), Duration::from_secs(10)).unwrap();
    let outcome = serve.join().unwrap().unwrap();
    faults::clear();

    assert_eq!(
        outcome.resumed, 1,
        "the in-flight result must land through the resume path"
    );
    assert_eq!(outcome.executed, outcome.planned);
    // The reconnected session is a second logical worker connection.
    assert!(outcome.workers >= 2);
    // The interrupted cell was computed once up front; only if the EOF
    // re-queue raced ahead of the resume does it run a second time.
    assert!(report.completed >= outcome.planned);
    let (grid_json, rendered) = chaos_golden();
    assert_eq!(&outcome.grid.to_json(), grid_json);
    assert_eq!(&chaos_render(&outcome.grid), rendered);
}

/// A truncated (torn) local checkpoint falls back to its `.bak` on the
/// next run: the resumed sweep reports the recovery, re-runs only what the
/// backup was missing, and matches the clean run byte for byte.
#[test]
fn torn_local_checkpoint_recovers_from_bak() {
    use genbase_datagen::SizeClass;

    let _guard = fault_lock();
    let ckpt = std::env::temp_dir().join(format!("genbase-local-torn-{}.json", std::process::id()));
    let _ = std::fs::remove_file(&ckpt);
    let _ = std::fs::remove_file(ckpt.with_extension("bak"));
    let sweep = SweepOptions::default().with_checkpoint(&ckpt);

    // Run 1: a clean sweep leaves the final grid in the primary and the
    // previous generation in `.bak`.
    let sched = Scheduler::new(chaos_config()).unwrap();
    let clean = sched
        .run_sweep(&[FigureId::Fig1], SizeClass::Small, &sweep)
        .unwrap();
    assert!(
        ckpt.with_extension("bak").exists(),
        "rotation must leave a .bak"
    );

    // Tear the primary the way a crashed writer would: truncate mid-JSON.
    let text = std::fs::read_to_string(&ckpt).unwrap();
    std::fs::write(&ckpt, &text[..text.len() / 2]).unwrap();
    assert!(ReportGrid::load(&ckpt).is_err());

    // Run 2: recovery from `.bak`, re-running only the missing tail.
    let resumed = sched
        .run_sweep(&[FigureId::Fig1], SizeClass::Small, &sweep)
        .unwrap();
    let note = resumed.recovered.expect("resume must report the recovery");
    assert!(note.contains(".bak") || note.contains("recovered"));
    assert!(
        resumed.skipped > 0,
        "the recovered generation must spare most of the sweep"
    );
    assert!(resumed.executed < resumed.planned);
    assert_eq!(resumed.grid.to_json(), clean.grid.to_json());
    assert_eq!(chaos_render(&resumed.grid), chaos_render(&clean.grid));
    let _ = std::fs::remove_file(&ckpt);
    let _ = std::fs::remove_file(ckpt.with_extension("bak"));
}

/// Half a Figure 1 sweep on disk, with the primary checkpoint gone and only
/// its `.bak` left — what a kill between `save_text`'s two renames
/// (`ckpt → .bak`, then `tmp → ckpt`) leaves behind. Returns the checkpoint
/// path and how many cells the `.bak` holds.
fn half_swept_with_only_the_bak(tag: &str) -> (std::path::PathBuf, usize) {
    use genbase_datagen::SizeClass;

    let ckpt = std::env::temp_dir().join(format!(
        "genbase-lone-bak-{tag}-{}.json",
        std::process::id()
    ));
    let bak = ckpt.with_extension("bak");
    let _ = std::fs::remove_file(&ckpt);
    let _ = std::fs::remove_file(&bak);
    let mut sched = Scheduler::new(chaos_config()).unwrap();
    sched.set_cell_hook(Box::new(|key: &CellKey| match key.query {
        Query::Regression | Query::Covariance => Ok(()),
        _ => Err(genbase_util::Error::invalid("injected kill")),
    }));
    let sweep = SweepOptions::serial().with_checkpoint(&ckpt);
    sched
        .run_sweep(&[FigureId::Fig1], SizeClass::Small, &sweep)
        .unwrap_err();
    std::fs::remove_file(&ckpt).expect("the half sweep wrote its checkpoint");
    let held = ReportGrid::load(&bak).expect("rotation left a .bak").len();
    assert!(held > 0 && held < 35, "the .bak holds part of the sweep");
    (ckpt, held)
}

/// A local resume that finds only the `.bak` recovers from it instead of
/// starting over.
#[test]
fn a_lone_bak_resumes_the_local_sweep() {
    use genbase_datagen::SizeClass;

    let _guard = fault_lock();
    let (ckpt, held) = half_swept_with_only_the_bak("local");
    let sched = Scheduler::new(chaos_config()).unwrap();
    let sweep = SweepOptions::serial().with_checkpoint(&ckpt);
    let resumed = sched
        .run_sweep(&[FigureId::Fig1], SizeClass::Small, &sweep)
        .unwrap();
    assert_eq!(resumed.skipped, held, "every cell in the .bak is spared");
    assert_eq!(resumed.executed, 35 - held);
    let note = resumed.recovered.expect("the resume reports the recovery");
    assert!(note.contains(".bak"), "the note names the backup: {note}");
    let (grid_json, rendered) = chaos_golden();
    assert_eq!(&resumed.grid.to_json(), grid_json);
    assert_eq!(&chaos_render(&resumed.grid), rendered);
    assert_eq!(&ReportGrid::load(&ckpt).unwrap().to_json(), grid_json);
    let _ = std::fs::remove_file(&ckpt);
    let _ = std::fs::remove_file(ckpt.with_extension("bak"));
}

/// The same for a restarted coordinator.
#[test]
fn a_lone_bak_resumes_the_coordinated_sweep() {
    use genbase::coord::{run_worker, CoordOptions, Coordinator};
    use genbase_datagen::SizeClass;

    let _guard = fault_lock();
    let (ckpt, held) = half_swept_with_only_the_bak("coord");
    let coordinator = Coordinator::bind(
        "127.0.0.1:0",
        chaos_config(),
        &[FigureId::Fig1],
        SizeClass::Small,
        CoordOptions::default().with_checkpoint(&ckpt),
    )
    .unwrap();
    let addr = coordinator.local_addr().unwrap();
    let serve = std::thread::spawn(move || coordinator.serve());
    let report = run_worker(addr, chaos_config(), Duration::from_secs(10)).unwrap();
    let outcome = serve.join().unwrap().unwrap();
    assert_eq!(outcome.restored, held, "every cell in the .bak is spared");
    assert_eq!(report.completed, 35 - held);
    let note = outcome.recovered.expect("the restart reports the recovery");
    assert!(note.contains(".bak"), "the note names the backup: {note}");
    let (grid_json, rendered) = chaos_golden();
    assert_eq!(&outcome.grid.to_json(), grid_json);
    assert_eq!(&chaos_render(&outcome.grid), rendered);
    let _ = std::fs::remove_file(&ckpt);
    let _ = std::fs::remove_file(ckpt.with_extension("bak"));
}

/// Under `cells_in_flight = 8` the checkpoint on disk only ever gains cells:
/// whenever a task looks (before each of its cells, i.e. right after its
/// previous one settled) the file parses and holds at least as many cells
/// as any earlier look found.
#[test]
fn a_parallel_sweep_never_shrinks_its_checkpoint() {
    use genbase_datagen::SizeClass;
    use std::sync::{Arc, Mutex};

    let _guard = fault_lock();
    let ckpt = std::env::temp_dir().join(format!("genbase-monotone-{}.json", std::process::id()));
    let bak = ckpt.with_extension("bak");
    let _ = std::fs::remove_file(&ckpt);
    let _ = std::fs::remove_file(&bak);
    // Readers take turns, so "earlier look" is well defined.
    let most_seen = Arc::new(Mutex::new(0usize));
    let look = {
        let (ckpt, bak, most_seen) = (ckpt.clone(), bak, Arc::clone(&most_seen));
        move || {
            let mut most = most_seen.lock().unwrap();
            // Between the writer's two renames the newest complete
            // generation is the `.bak`.
            let text = std::fs::read_to_string(&ckpt).or_else(|_| std::fs::read_to_string(&bak));
            let Ok(text) = text else { return };
            let cells = ReportGrid::from_json(&text)
                .expect("the checkpoint parses whenever it is read")
                .len();
            assert!(
                cells >= *most,
                "checkpoint shrank from {most} to {cells} cells"
            );
            *most = cells;
        }
    };
    let mut sched = Scheduler::new(chaos_config()).unwrap();
    let hooked = look.clone();
    sched.set_cell_hook(Box::new(move |_: &CellKey| {
        hooked();
        Ok(())
    }));
    let sweep = SweepOptions::default()
        .with_cells_in_flight(8)
        .with_checkpoint(&ckpt);
    let outcome = sched
        .run_sweep(&[FigureId::Fig1], SizeClass::Small, &sweep)
        .unwrap();
    look();
    assert_eq!(
        *most_seen.lock().unwrap(),
        35,
        "the finished file is complete"
    );
    assert_eq!(&outcome.grid.to_json(), &chaos_golden().0);
    let _ = std::fs::remove_file(&ckpt);
    let _ = std::fs::remove_file(ckpt.with_extension("bak"));
}

#[test]
fn harness_converts_failures_without_crashing() {
    use genbase::harness::{Harness, HarnessConfig};
    use genbase_datagen::SizeClass;
    let cfg = HarnessConfig {
        scale: 0.014,
        sizes: vec![SizeClass::Small],
        cutoff: Duration::from_nanos(1),
        r_mem_bytes: 1,
        node_counts: vec![1],
        ..HarnessConfig::quick()
    };
    let h = Harness::new(cfg).unwrap();
    for engine in engines::single_node_engines() {
        for query in Query::ALL {
            let rec = h
                .run_cell(engine.as_ref(), query, SizeClass::Small, 1)
                .unwrap();
            // Every cell must be a well-formed outcome (infinite or
            // unsupported under these hostile budgets — or completed, for
            // phases too short to hit a checkpoint).
            let _ = genbase::sched::CellOutcome::from_run(&rec.outcome).cell();
        }
    }
}

/// A streaming spool that cannot be written — no such directory, a file
/// where the directory should be, a disk that fills part way through — is a
/// typed error, the same one for the cell that tried and for every cell
/// after it, and leaves no file behind.
#[test]
fn a_failed_spool_build_is_one_typed_error_for_every_cell_and_leaves_no_file() {
    use genbase::engine::StreamConfig;
    use genbase_datagen::SizeClass;
    use genbase_util::faults::{self, FaultPlan};

    let _guard = fault_lock();
    let scratch = std::env::temp_dir().join(format!("genbase-spool-faults-{}", std::process::id()));
    std::fs::create_dir_all(&scratch).unwrap();
    let not_a_dir = scratch.join("file");
    std::fs::write(&not_a_dir, b"x").unwrap();
    let spill_files = || {
        let names = std::fs::read_dir(&scratch).unwrap();
        names
            .map(|entry| entry.unwrap().file_name().into_string().unwrap())
            .filter(|name| name.starts_with("genbase-spill-"))
            .count()
    };
    let harness_over = |spill_dir: &std::path::Path| {
        let mut config = chaos_config();
        config.stream = Some(StreamConfig {
            batch_rows: 64,
            spill_dir: Some(spill_dir.to_path_buf()),
            ..StreamConfig::default()
        });
        Harness::new(config).unwrap()
    };
    let (row, column) = (engines::PostgresR::new(), engines::ColumnR::new());
    let refusals = |harness: &Harness| -> Vec<String> {
        let cells: [(&dyn Engine, Query); 3] = [
            (&row, Query::Regression),
            (&row, Query::Statistics),
            (&column, Query::Covariance),
        ];
        cells
            .iter()
            .map(
                |(engine, query)| match harness.run_cell(*engine, *query, SizeClass::Small, 1) {
                    Err(e @ genbase_util::Error::Invalid(_)) => e.to_string(),
                    other => panic!("expected a typed spool error, got {other:?}"),
                },
            )
            .collect()
    };

    for bad in [scratch.join("missing"), not_a_dir] {
        let harness = harness_over(&bad);
        let reasons = refusals(&harness);
        assert!(reasons[0].contains("spill create"), "{}", reasons[0]);
        assert!(reasons.iter().all(|r| *r == reasons[0]), "{reasons:?}");
        // Two metadata stores and one spool attempt, however many cells.
        assert_eq!(harness.loaded_tables_stats().1, 3);
        assert_eq!(harness.loaded_spool_bytes(), 0);
    }

    // Disk full on the fifth column image: the second batch is torn.
    faults::install(FaultPlan::parse("spool.write@5=torn:100").unwrap());
    let harness = harness_over(&scratch);
    let reasons = refusals(&harness);
    faults::clear();
    assert!(reasons[0].contains("spill write"), "{}", reasons[0]);
    assert!(reasons.iter().all(|r| *r == reasons[0]), "{reasons:?}");
    assert_eq!(spill_files(), 0, "a failed build left its file behind");
    // The slot keeps the error (the fault is gone; a retry would succeed).
    assert_eq!(refusals(&harness), reasons);
    drop(harness);

    // The directory itself is fine: a fresh harness streams through it, and
    // takes its spool with it when it goes.
    let harness = harness_over(&scratch);
    let record = harness
        .run_cell(&column, Query::Covariance, SizeClass::Small, 1)
        .unwrap();
    assert!(record.outcome.report().is_some());
    assert_eq!(spill_files(), 1);
    drop(harness);
    assert_eq!(spill_files(), 0);
    std::fs::remove_dir_all(&scratch).unwrap();
}
