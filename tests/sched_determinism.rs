//! Paper-conformance tier: the concurrent scheduler must be a pure
//! reorganization of the serial sweep (one cell in flight) — same cells,
//! same grid, byte-for-byte the same rendered figures — for every
//! concurrency configuration.
//!
//! All sweeps here run in `TimingMode::SimOnly`, which zeroes measured wall
//! seconds so completed cells are deterministic and whole-output equality
//! is meaningful.

use genbase::figures;
use genbase::prelude::*;
use genbase_datagen::SizeClass;
use std::time::Duration;

fn micro_config() -> HarnessConfig {
    HarnessConfig {
        scale: 0.012, // 60x60 small
        sizes: vec![SizeClass::Small],
        cutoff: Duration::from_secs(120),
        r_mem_bytes: u64::MAX,
        node_counts: vec![1, 2],
        ..HarnessConfig::quick()
    }
    .sim_only()
}

fn render_all(sched: &Scheduler, grid: &ReportGrid, figs: &[FigureId]) -> String {
    figs.iter()
        .map(|&f| {
            figures::render(f, sched.harness(), SizeClass::Small, grid)
                .unwrap_or_else(|e| panic!("render {}: {e}", f.name()))
                .render()
        })
        .collect::<Vec<_>>()
        .join("\n")
}

/// A fresh scheduler and its sweep of `figs` with one cell in flight: the
/// serial reference every other configuration must reproduce.
fn serial_sweep(figs: &[FigureId]) -> (Scheduler, ReportGrid) {
    let sched = Scheduler::new(micro_config()).unwrap();
    let outcome = sched
        .run_sweep(figs, SizeClass::Small, &SweepOptions::serial())
        .unwrap();
    (sched, outcome.grid)
}

#[test]
fn fig1_sweep_is_byte_identical_serial_vs_concurrent() {
    let (serial_sched, serial_grid) = serial_sweep(&[FigureId::Fig1]);
    let serial_text = render_all(&serial_sched, &serial_grid, &[FigureId::Fig1]);

    for cells_in_flight in [2usize, 8] {
        let sched = Scheduler::new(micro_config()).unwrap();
        let sweep = SweepOptions::default().with_cells_in_flight(cells_in_flight);
        let outcome = sched
            .run_sweep(&[FigureId::Fig1], SizeClass::Small, &sweep)
            .unwrap();
        // 5 queries x 1 size x 7 engines.
        assert_eq!(outcome.planned, 35, "jobs={cells_in_flight}");
        assert_eq!(outcome.executed, 35);
        let text = render_all(&sched, &outcome.grid, &[FigureId::Fig1]);
        assert_eq!(
            text, serial_text,
            "jobs={cells_in_flight}: concurrent rendering must be byte-identical to serial"
        );
        // The grids themselves (not just the rendering) must agree bytewise.
        assert_eq!(outcome.grid.to_json(), serial_grid.to_json());
    }
}

#[test]
fn every_figure_renders_identically_from_one_shared_sweep() {
    // One sweep over all six exhibits at once (cells interleaved across
    // figures, 4 in flight) must reproduce each exhibit's own serial sweep.
    let sched = Scheduler::new(micro_config()).unwrap();
    let sweep = SweepOptions::default().with_cells_in_flight(4);
    let outcome = sched
        .run_sweep(&FigureId::ALL, SizeClass::Small, &sweep)
        .unwrap();

    for fig in FigureId::ALL {
        let (serial_sched, serial_grid) = serial_sweep(&[fig]);
        let got = render_all(&sched, &outcome.grid, &[fig]);
        assert_eq!(
            got,
            render_all(&serial_sched, &serial_grid, &[fig]),
            "{} drifted from the serial path",
            fig.name()
        );
    }
}

#[test]
fn grid_json_survives_disk_round_trip() {
    let sched = Scheduler::new(micro_config()).unwrap();
    let outcome = sched
        .run_sweep(&[FigureId::Fig5], SizeClass::Small, &SweepOptions::serial())
        .unwrap();
    let path = std::env::temp_dir().join(format!(
        "genbase-grid-roundtrip-{}.json",
        std::process::id()
    ));
    outcome.grid.save(&path).unwrap();
    let back = ReportGrid::load(&path).unwrap();
    let _ = std::fs::remove_file(&path);
    assert_eq!(back, outcome.grid);
    assert_eq!(back.to_json(), outcome.grid.to_json());
}

#[test]
fn per_cell_thread_budget_divides_the_pool() {
    // 8 configured threads split across 4 in-flight cells = 2 per cell; the
    // outcome must still be byte-identical to the 1-in-flight (8 threads
    // per cell) run — thread budgets never leak into results. Fig3 is the
    // sharp edge: Hadoop's multi-node shuffle cost model sizes its task
    // slots from the *simulated machine* (ExecContext.sim_threads); sizing
    // from the per-cell execution budget would make simulated costs vary
    // with cells_in_flight.
    let mut config = micro_config();
    config.threads = 8;
    let figs = [FigureId::Fig1, FigureId::Fig3];
    let wide = Scheduler::new(config.clone()).unwrap();
    let wide_out = wide
        .run_sweep(
            &figs,
            SizeClass::Small,
            &SweepOptions::default().with_cells_in_flight(4),
        )
        .unwrap();
    let narrow = Scheduler::new(config).unwrap();
    let narrow_out = narrow
        .run_sweep(&figs, SizeClass::Small, &SweepOptions::serial())
        .unwrap();
    assert_eq!(wide_out.grid.to_json(), narrow_out.grid.to_json());
}
