//! Streaming-execution conformance tier: morsel-driven streaming must be a
//! pure *memory* optimization — byte-identical `QueryReport` output and
//! rendered figures at every batch size and thread count, with only the
//! trace's memory dimension (`peak_alloc`, `batches`, `spill_bytes`)
//! allowed to differ from the materializing lowerings.
//!
//! All runs use `TimingMode::SimOnly`, which zeroes measured wall seconds
//! so whole-report equality is meaningful.

use genbase::engine::StreamConfig;
use genbase::figures;
use genbase::prelude::*;
use genbase_datagen::SizeClass;
use genbase_relational::{DataType, Schema};
use genbase_storage::{batch_ranges, carve_view, Column, ColumnarTable, MemTracker, SelVec};
use genbase_util::CostReport;
use proptest::prelude::*;
use std::time::Duration;

/// The engines whose SQL-family lowerings stream (vanilla R, SciDB, Hadoop
/// and the pbdR configurations keep their materializing lowerings).
const STREAMING_ENGINES: [&str; 4] = [
    "Postgres + Madlib",
    "Postgres + R",
    "Column store + R",
    "Column store + UDFs",
];

const QUERIES: [Query; 5] = [
    Query::Regression,
    Query::Covariance,
    Query::Biclustering,
    Query::Svd,
    Query::Statistics,
];

fn base_config() -> HarnessConfig {
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

fn streaming_config(batch_rows: usize) -> HarnessConfig {
    let mut config = base_config();
    config.stream = Some(StreamConfig {
        batch_rows,
        ..StreamConfig::default()
    });
    config
}

/// Storage-layer bytes moved (`bytes_in + bytes_out` over the whole trace)
/// of four streaming cells at this suite's 60x60 config, pinned to the
/// values the pipeline produced while a staged lowering still existed
/// beside it: the in-tree proof that deleting the staged path did not move
/// the surviving path's accounting.
const PINNED_BYTES_MOVED: [(&str, Query, u64); 4] = [
    ("Postgres + Madlib", Query::Covariance, 172_800),
    ("Column store + UDFs", Query::Regression, 266_880),
    ("Postgres + R", Query::Regression, 312_646),
    ("Column store + R", Query::Statistics, 259_680),
];

fn engines_by_name(names: &[&str]) -> Vec<Box<dyn Engine>> {
    engines::single_node_engines()
        .into_iter()
        .filter(|e| names.contains(&e.name()))
        .collect()
}

fn completed(record: &genbase::harness::RunRecord, what: &str) -> QueryReport {
    match &record.outcome {
        RunOutcome::Completed(report) => report.clone(),
        other => panic!("{what}: expected completion, got {other:?}"),
    }
}

fn assert_cost_bits(base: CostReport, got: CostReport, what: &str) {
    assert_eq!(
        got.wall_secs.to_bits(),
        base.wall_secs.to_bits(),
        "{what}: wall seconds drifted"
    );
    assert_eq!(
        got.sim_secs.to_bits(),
        base.sim_secs.to_bits(),
        "{what}: simulated seconds drifted"
    );
    assert_eq!(
        got.sim_bytes, base.sim_bytes,
        "{what}: simulated bytes drifted"
    );
}

/// The streaming identity contract: same typed output, bitwise-identical
/// phase split. (The memory columns of the trace are *expected* to differ —
/// that is the point of streaming.)
fn assert_reports_identical(base: &QueryReport, got: &QueryReport, what: &str) {
    assert_eq!(got.output, base.output, "{what}: query output drifted");
    assert_cost_bits(
        base.phases.data_management,
        got.phases.data_management,
        &format!("{what} (data management)"),
    );
    assert_cost_bits(
        base.phases.analytics,
        got.phases.analytics,
        &format!("{what} (analytics)"),
    );
}

/// The ISSUE's core matrix: batch sizes {1, 7, 64, 4096, exact table size,
/// table size + 1} x threads {1, 3, 8}, every streaming engine, every
/// supported query — each cell must reproduce the materializing report.
#[test]
fn streaming_is_byte_identical_across_batch_sizes_and_threads() {
    let baseline_harness = Harness::new(base_config()).unwrap();
    let data = baseline_harness.dataset(SizeClass::Small).unwrap();
    let table_rows = data.expression.rows() * data.expression.cols();
    drop(data);

    let engines = engines_by_name(&STREAMING_ENGINES);
    assert_eq!(engines.len(), STREAMING_ENGINES.len());

    // Materializing baselines, one per (engine, query).
    let mut baselines = Vec::new();
    for engine in &engines {
        for query in QUERIES {
            if !engine.supports(query) {
                continue;
            }
            let record = baseline_harness
                .run_cell(engine.as_ref(), query, SizeClass::Small, 1)
                .unwrap();
            let report = completed(
                &record,
                &format!("{} {query:?} materializing", engine.name()),
            );
            baselines.push((engine.name(), query, report));
        }
    }
    assert!(
        baselines.len() >= 15,
        "expected a substantial baseline matrix, got {}",
        baselines.len()
    );

    // Bytes moved per (engine, query), as first seen: a pure function of
    // the data, never of the batch size or the thread count.
    let mut moved_by_cell: Vec<Option<u64>> = vec![None; baselines.len()];
    let batch_sizes = [1usize, 7, 64, 4096, table_rows, table_rows + 1];
    for batch_rows in batch_sizes {
        let harness = Harness::new(streaming_config(batch_rows)).unwrap();
        for (cell, (name, query, baseline)) in baselines.iter().enumerate() {
            let engine = engines
                .iter()
                .find(|e| e.name() == *name)
                .expect("engine present");
            for threads in [1usize, 3, 8] {
                let what = format!("{name} {query:?} batch_rows={batch_rows} threads={threads}");
                let record = harness
                    .run_cell_with_progress(
                        engine.as_ref(),
                        *query,
                        SizeClass::Small,
                        1,
                        threads,
                        None,
                    )
                    .unwrap();
                let report = completed(&record, &what);
                assert_reports_identical(baseline, &report, &what);
                let mem = report.memory();
                // The streaming run must actually have streamed: the trace
                // records the morsel batches the reel replayed.
                assert!(
                    mem.batches > 0,
                    "{what}: no batches recorded — did the lowering stream?"
                );
                // Streaming exists to bound memory: no cell's peak may
                // exceed the materializing lowering's.
                let mat_peak = baseline.memory().peak_alloc_bytes;
                assert!(
                    mem.peak_alloc_bytes <= mat_peak,
                    "{what}: streaming peak {} exceeds the materializing {mat_peak}",
                    mem.peak_alloc_bytes
                );
                let moved = mem.bytes_in + mem.bytes_out;
                let first = *moved_by_cell[cell].get_or_insert(moved);
                assert_eq!(
                    moved, first,
                    "{what}: bytes moved depend on the batch size or thread count"
                );
            }
        }
    }
    for (name, query, want) in PINNED_BYTES_MOVED {
        let cell = baselines
            .iter()
            .position(|(n, q, _)| *n == name && *q == query)
            .expect("pinned cell is in the matrix");
        assert_eq!(
            moved_by_cell[cell],
            Some(want),
            "{name} {query:?}: streaming bytes moved drifted from the pinned value"
        );
    }
}

/// Materializing traces must not grow batch/spill columns: streaming
/// counters stay zero when `stream` is off.
#[test]
fn materializing_traces_have_no_streaming_counters() {
    let harness = Harness::new(base_config()).unwrap();
    let engines = engines_by_name(&STREAMING_ENGINES);
    for engine in &engines {
        let record = harness
            .run_cell(engine.as_ref(), Query::Covariance, SizeClass::Small, 1)
            .unwrap();
        let report = completed(&record, &format!("{} covariance", engine.name()));
        let mem = report.memory();
        assert_eq!(mem.batches, 0, "{}: phantom batches", engine.name());
        assert_eq!(mem.spill_bytes, 0, "{}: phantom spill", engine.name());
    }
}

/// Figure-level identity: a whole Figure 1 sweep with streaming enabled
/// renders byte-for-byte the same text as the materializing sweep, and the
/// streaming sweep itself is invariant under the sharded scheduler.
#[test]
fn fig1_streaming_sweep_renders_byte_identically() {
    let mat_sched = Scheduler::new(base_config()).unwrap();
    let mat_out = mat_sched
        .run_sweep(&[FigureId::Fig1], SizeClass::Small, &SweepOptions::serial())
        .unwrap();
    let mat_text = figures::render(
        FigureId::Fig1,
        mat_sched.harness(),
        SizeClass::Small,
        &mat_out.grid,
    )
    .unwrap()
    .render();

    let stream_sched = Scheduler::new(streaming_config(64)).unwrap();
    let stream_out = stream_sched
        .run_sweep(&[FigureId::Fig1], SizeClass::Small, &SweepOptions::serial())
        .unwrap();
    assert_eq!(stream_out.planned, mat_out.planned);
    let stream_text = figures::render(
        FigureId::Fig1,
        stream_sched.harness(),
        SizeClass::Small,
        &stream_out.grid,
    )
    .unwrap()
    .render();
    assert_eq!(
        stream_text, mat_text,
        "streaming Fig1 must render byte-identically to the materializing sweep"
    );

    // Sharded streaming sweep: identical grid bytes (fingerprints match —
    // both carry the same `;stream=batch64+fused` suffix).
    let sharded = Scheduler::new(streaming_config(64)).unwrap();
    let sharded_out = sharded
        .run_sweep(
            &[FigureId::Fig1],
            SizeClass::Small,
            &SweepOptions::default().with_cells_in_flight(4),
        )
        .unwrap();
    assert_eq!(sharded_out.grid.to_json(), stream_out.grid.to_json());
}

/// The spill contract: a streaming cell whose working set exceeds
/// `--mem-budget` completes (spilling reel batches to disk) with output
/// identical to the unbudgeted run, while the materializing lowering on the
/// same cell reports an infinite (out-of-memory) outcome.
#[test]
fn over_budget_streaming_cell_spills_and_completes() {
    let engines = engines_by_name(&["Postgres + Madlib"]);
    let engine = engines.first().expect("Postgres + Madlib");
    let query = Query::Statistics;

    // Reference: unbudgeted materializing run, for the output and the peak.
    let free = Harness::new(base_config()).unwrap();
    let reference = completed(
        &free
            .run_cell(engine.as_ref(), query, SizeClass::Small, 1)
            .unwrap(),
        "unbudgeted materializing",
    );
    let peak = reference.memory().peak_alloc_bytes;
    let data = free.dataset(SizeClass::Small).unwrap();
    let reel_span = (data.expression.rows() * data.expression.cols() * 3 * 8) as u64;
    drop(data);
    // A budget the materializing path cannot fit but the streaming path can:
    // under the peak (so materializing OOMs), and small enough that the
    // reel's resident cap (budget / 4) cannot hold the whole triple span
    // (so the streaming run must spill).
    let budget = (peak * 3 / 4).min(2 * reel_span);
    assert!(
        budget > 0 && budget < peak,
        "budget {budget} vs peak {peak}"
    );

    let mut mat_config = base_config();
    mat_config.mem_budget = Some(budget);
    let mat = Harness::new(mat_config).unwrap();
    let mat_record = mat
        .run_cell(engine.as_ref(), query, SizeClass::Small, 1)
        .unwrap();
    match &mat_record.outcome {
        RunOutcome::Infinite { reason } => {
            assert!(
                reason.contains("memory") || reason.contains("budget"),
                "materializing over-budget cell failed for the wrong reason: {reason}"
            );
        }
        other => panic!("materializing over-budget cell should be infinite, got {other:?}"),
    }

    let mut stream_cfg = streaming_config(64);
    stream_cfg.mem_budget = Some(budget);
    let streaming = Harness::new(stream_cfg).unwrap();
    let stream_report = completed(
        &streaming
            .run_cell(engine.as_ref(), query, SizeClass::Small, 1)
            .unwrap(),
        "budgeted streaming",
    );
    assert_eq!(
        stream_report.output, reference.output,
        "spilling run drifted from the unbudgeted output"
    );
    let mem = stream_report.memory();
    assert!(
        mem.spill_bytes > 0,
        "over-budget streaming run never spilled"
    );
    assert!(mem.batches > 0, "over-budget streaming run never streamed");
    assert!(
        mem.peak_alloc_bytes <= budget,
        "streaming peak {} exceeded the budget {budget}",
        mem.peak_alloc_bytes
    );
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    // Carving a table into morsels covers it exactly, in order, for every
    // (row count, batch size) — including ragged tails, batches larger than
    // the table, and the empty table.
    #[test]
    fn morsel_carve_round_trip(n_rows in 0usize..400, batch_rows in 1usize..97) {
        let tracker = MemTracker::unlimited();
        let schema = Schema::new(&[
            ("gene_id", DataType::Int),
            ("patient_id", DataType::Int),
            ("expr_value", DataType::Float),
        ]).unwrap();
        let genes: Vec<i64> = (0..n_rows as i64).map(|i| i * 7 % 13).collect();
        let patients: Vec<i64> = (0..n_rows as i64).map(|i| i * 3 % 11).collect();
        let values: Vec<f64> = (0..n_rows).map(|i| i as f64 * 0.5 - 3.0).collect();
        let table = ColumnarTable::from_columns(
            &tracker,
            schema,
            vec![
                Column::Ints(genes.clone()),
                Column::Ints(patients.clone()),
                Column::Floats(values.clone()),
            ],
        ).unwrap();

        // The carve plan covers every row exactly once, in order, with only
        // the final range ragged.
        let ranges = batch_ranges(n_rows, batch_rows).unwrap();
        let mut covered = 0;
        for (i, (start, end)) in ranges.iter().enumerate() {
            prop_assert_eq!(*start, covered);
            prop_assert!(end > start);
            if i + 1 < ranges.len() {
                prop_assert_eq!(end - start, batch_rows);
            }
            covered = *end;
        }
        prop_assert_eq!(covered, n_rows);

        let morsels = carve_view(&tracker, &table.view(), batch_rows).unwrap();
        prop_assert_eq!(morsels.iter().map(|m| m.n_rows()).sum::<usize>(), n_rows);
        let mut back = (Vec::new(), Vec::new(), Vec::new());
        for m in &morsels {
            back.0.extend_from_slice(m.int_col(0).unwrap());
            back.1.extend_from_slice(m.int_col(1).unwrap());
            back.2.extend_from_slice(m.float_col(2).unwrap());
        }
        prop_assert_eq!(back, (genes, patients, values));

        // Memory accounting balances: each morsel is charged its own bytes
        // while it lives, and everything is released once all drop.
        prop_assert_eq!(tracker.current(), 2 * table.heap_bytes());
        drop(table);
        drop(morsels);
        prop_assert_eq!(tracker.current(), 0);
    }

    // Selection-vector filtering is the identity against the copying
    // filter: carve into morsels, mark survivors with a SelVec, gather —
    // exactly the rows a plain row-copying filter keeps, in the same order,
    // with all charged bytes released on drop.
    #[test]
    fn selvec_filter_matches_copying_filter(
        n_rows in 0usize..400,
        batch_rows in 1usize..97,
        modulus in 1i64..7,
    ) {
        let tracker = MemTracker::unlimited();
        let schema = Schema::new(&[
            ("gene_id", DataType::Int),
            ("patient_id", DataType::Int),
            ("expr_value", DataType::Float),
        ]).unwrap();
        let genes: Vec<i64> = (0..n_rows as i64).map(|i| i * 7 % 13).collect();
        let patients: Vec<i64> = (0..n_rows as i64).map(|i| i * 3 % 11).collect();
        let values: Vec<f64> = (0..n_rows).map(|i| i as f64 * 0.5 - 3.0).collect();
        let table = ColumnarTable::from_columns(
            &tracker,
            schema,
            vec![
                Column::Ints(genes.clone()),
                Column::Ints(patients.clone()),
                Column::Floats(values.clone()),
            ],
        ).unwrap();
        let keep = |g: i64, p: i64| (g + p) % modulus == 0;

        // Reference: the copying filter over the whole table.
        let mut expect_g = Vec::new();
        let mut expect_p = Vec::new();
        let mut expect_v = Vec::new();
        for i in 0..n_rows {
            if keep(genes[i], patients[i]) {
                expect_g.push(genes[i]);
                expect_p.push(patients[i]);
                expect_v.push(values[i]);
            }
        }

        let morsels = carve_view(&tracker, &table.view(), batch_rows).unwrap();
        let mut back = (Vec::new(), Vec::new(), Vec::new());
        for m in &morsels {
            let g = m.int_col(0).unwrap();
            let p = m.int_col(1).unwrap();
            let sel = SelVec::from_predicate(m.n_rows(), |i| keep(g[i], p[i]));
            prop_assert!(sel.len() <= m.n_rows());
            let survivors: Vec<Column> =
                m.columns().iter().map(|c| c.gather(sel.positions())).collect();
            back.0.extend_from_slice(survivors[0].ints().unwrap());
            back.1.extend_from_slice(survivors[1].ints().unwrap());
            back.2.extend_from_slice(survivors[2].floats().unwrap());
        }
        prop_assert_eq!(back, (expect_g, expect_p, expect_v));

        drop(morsels);
        drop(table);
        prop_assert_eq!(tracker.current(), 0);
    }
}
