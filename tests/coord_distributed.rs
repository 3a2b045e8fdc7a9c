//! Distributed sweep conformance: a coordinator plus N workers over real
//! TCP sockets must produce exactly the single-process serial sweep —
//! byte-identical rendered figures under `--sim-only` — and must survive
//! worker death by re-issuing the dead worker's lease.

use genbase::coord::{run_worker, CoordOptions, Coordinator, PROTOCOL};
use genbase::figures;
use genbase::prelude::*;
use genbase::sched::config_fingerprint;
use genbase_datagen::SizeClass;
use genbase_util::frame::{read_frame_opt, write_frame};
use genbase_util::Json;
use std::net::TcpStream;
use std::time::Duration;

fn sim_config() -> HarnessConfig {
    HarnessConfig {
        scale: 0.012,
        sizes: vec![SizeClass::Small],
        r_mem_bytes: u64::MAX,
        ..HarnessConfig::quick()
    }
    .sim_only()
}

const FIGS: [FigureId; 2] = [FigureId::Fig1, FigureId::Table1];

/// Render every exhibit from a grid (the pure function both paths share).
fn render_all(grid: &genbase::ReportGrid) -> String {
    let harness = Harness::new(sim_config()).unwrap();
    FIGS.iter()
        .map(|&f| {
            figures::render(f, &harness, SizeClass::Small, grid)
                .unwrap()
                .render()
        })
        .collect::<Vec<_>>()
        .join("\n")
}

#[test]
fn two_worker_coordinated_sweep_is_byte_identical_to_serial() {
    let coordinator = Coordinator::bind(
        "127.0.0.1:0",
        sim_config(),
        &FIGS,
        SizeClass::Small,
        CoordOptions::default(),
    )
    .unwrap();
    let addr = coordinator.local_addr().unwrap();
    let serve = std::thread::spawn(move || coordinator.serve());
    let workers: Vec<_> = (0..2)
        .map(|_| {
            std::thread::spawn(move || run_worker(addr, sim_config(), Duration::from_secs(10)))
        })
        .collect();
    let reports: Vec<_> = workers
        .into_iter()
        .map(|w| w.join().unwrap().unwrap())
        .collect();
    let outcome = serve.join().unwrap().unwrap();

    assert_eq!(outcome.executed, outcome.planned);
    assert_eq!(outcome.workers, 2);
    assert_eq!(
        reports.iter().map(|r| r.completed).sum::<usize>(),
        outcome.planned,
        "workers must partition the plan exactly"
    );
    // (No per-worker minimum: on a loaded machine one worker may
    // legitimately drain the whole small plan before the other is
    // scheduled. The partition-sum above is the real invariant.)

    // The serial single-process run, rendered from its own grid.
    let scheduler = Scheduler::new(sim_config()).unwrap();
    let serial = scheduler
        .run_sweep(&FIGS, SizeClass::Small, &SweepOptions::serial())
        .unwrap();
    assert_eq!(serial.grid.to_json(), outcome.grid.to_json());
    assert_eq!(render_all(&serial.grid), render_all(&outcome.grid));
}

#[test]
fn killed_worker_leases_are_reissued_and_the_sweep_completes() {
    let ckpt =
        std::env::temp_dir().join(format!("genbase-coord-relase-{}.json", std::process::id()));
    // A `.bak` left by an earlier process with this pid would be recovered
    // as this sweep's checkpoint.
    let _ = std::fs::remove_file(&ckpt);
    let _ = std::fs::remove_file(ckpt.with_extension("bak"));
    let coordinator = Coordinator::bind(
        "127.0.0.1:0",
        sim_config(),
        &FIGS,
        SizeClass::Small,
        CoordOptions::default().with_checkpoint(&ckpt),
    )
    .unwrap();
    let addr = coordinator.local_addr().unwrap();
    let fingerprint = config_fingerprint(coordinator.config());
    let serve = std::thread::spawn(move || coordinator.serve());

    // A worker that takes a lease and dies: raw handshake, one request,
    // read the lease, then drop the connection without answering.
    let mut doomed = TcpStream::connect(addr).unwrap();
    let mut hello = Json::obj();
    hello.set("type", Json::from("hello"));
    hello.set("protocol", Json::from(PROTOCOL));
    hello.set("config", Json::from(fingerprint.as_str()));
    write_frame(&mut doomed, &hello).unwrap();
    let welcome = read_frame_opt(&mut doomed).unwrap().unwrap();
    assert_eq!(welcome.get("type").and_then(Json::as_str), Some("welcome"));
    let mut request = Json::obj();
    request.set("type", Json::from("request"));
    write_frame(&mut doomed, &request).unwrap();
    let lease = read_frame_opt(&mut doomed).unwrap().unwrap();
    assert_eq!(lease.get("type").and_then(Json::as_str), Some("lease"));
    let abandoned = CellKey::from_json(lease.get("cell").unwrap()).unwrap();
    drop(doomed); // worker dies holding the lease

    // A healthy worker drains the whole sweep, including the re-issued cell.
    let report = run_worker(addr, sim_config(), Duration::from_secs(10)).unwrap();
    let outcome = serve.join().unwrap().unwrap();

    assert!(
        outcome.reissued >= 1,
        "dead worker's lease must be re-issued"
    );
    assert_eq!(outcome.executed, outcome.planned);
    assert_eq!(report.completed, outcome.planned);
    assert!(
        outcome.grid.contains(&abandoned),
        "abandoned cell {} must still be executed",
        abandoned.id()
    );

    // The checkpoint path doubles as the coordinator's resume file: a
    // fresh coordinator restores everything and needs no workers at all.
    let resumed = Coordinator::bind(
        "127.0.0.1:0",
        sim_config(),
        &FIGS,
        SizeClass::Small,
        CoordOptions::default().with_checkpoint(&ckpt),
    )
    .unwrap();
    let resumed_outcome = resumed.serve().unwrap();
    assert_eq!(resumed_outcome.restored, resumed_outcome.planned);
    assert_eq!(resumed_outcome.executed, 0);
    assert_eq!(resumed_outcome.grid.to_json(), outcome.grid.to_json());

    // And the result is still the serial run, byte for byte.
    let serial = Scheduler::new(sim_config())
        .unwrap()
        .run_sweep(&FIGS, SizeClass::Small, &SweepOptions::serial())
        .unwrap();
    assert_eq!(render_all(&serial.grid), render_all(&outcome.grid));
    let _ = std::fs::remove_file(&ckpt);
    let _ = std::fs::remove_file(ckpt.with_extension("bak"));
}
