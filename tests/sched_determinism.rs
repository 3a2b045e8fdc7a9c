//! Paper-conformance tier: the sharded scheduler must be a pure
//! reorganization of the serial sweep (one cell in flight) — same cells,
//! same grid, byte-for-byte the same rendered figures — for every
//! sharding/concurrency configuration.
//!
//! All sweeps here run in `TimingMode::SimOnly`, which zeroes measured wall
//! seconds so completed cells are deterministic and whole-output equality
//! is meaningful.

use genbase::figures;
use genbase::prelude::*;
use genbase_datagen::SizeClass;
use std::collections::BTreeSet;
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
fn fig1_sweep_is_byte_identical_serial_vs_sharded() {
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
            "jobs={cells_in_flight}: sharded rendering must be byte-identical to serial"
        );
        // The grids themselves (not just the rendering) must agree bytewise.
        assert_eq!(outcome.grid.to_json(), serial_grid.to_json());
    }
}

#[test]
fn shard_partitions_cover_every_cell_exactly_once() {
    let sched = Scheduler::new(micro_config()).unwrap();
    let all_cells: Vec<String> = sched
        .plan(&[FigureId::Fig1], SizeClass::Small)
        .iter()
        .map(|c| c.id())
        .collect();
    assert_eq!(all_cells.len(), 35);

    let mut merged = ReportGrid::default();
    let mut seen = Vec::new();
    for shard_id in 0..3 {
        let shard_sched = Scheduler::new(micro_config()).unwrap();
        let sweep = SweepOptions::default()
            .with_cells_in_flight(4)
            .with_shard(3, shard_id);
        let outcome = shard_sched
            .run_sweep(&[FigureId::Fig1], SizeClass::Small, &sweep)
            .unwrap();
        for id in outcome.grid.ids() {
            seen.push(id.to_string());
        }
        merged.merge(outcome.grid).unwrap();
    }
    // Exactly once: no shard overlap, nothing missing.
    assert_eq!(seen.len(), all_cells.len(), "no cell may run twice");
    let seen_set: BTreeSet<&String> = seen.iter().collect();
    let all_set: BTreeSet<&String> = all_cells.iter().collect();
    assert_eq!(seen_set, all_set, "shards must cover the full plan");

    // The merged sharded sweep renders byte-identically to the serial path.
    let (serial_sched, serial_grid) = serial_sweep(&[FigureId::Fig1]);
    assert_eq!(
        render_all(&sched, &merged, &[FigureId::Fig1]),
        render_all(&serial_sched, &serial_grid, &[FigureId::Fig1])
    );
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
