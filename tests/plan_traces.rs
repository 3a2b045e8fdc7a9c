//! Trace-accounting conformance tier: for every engine × query (and node
//! count), the per-operator plan trace is the run's whole cost, and the
//! phase split derived from it must be a *faithful decomposition* — every
//! op cost finite and non-negative, analytics kernels attributed to the
//! analytics phase, and each phase's total the exact in-order sum of its
//! ops (integer nanoseconds summed before one conversion).

use genbase::plan::OpKind;
use genbase::prelude::*;
use genbase_datagen::SizeClass;
use std::time::Duration;

fn config() -> HarnessConfig {
    HarnessConfig {
        scale: 0.012, // 60x60 small
        sizes: vec![SizeClass::Small],
        cutoff: Duration::from_secs(120),
        r_mem_bytes: u64::MAX,
        node_counts: vec![1, 2],
        ..HarnessConfig::quick()
    }
}

fn completed_cells(h: &Harness) -> Vec<(String, Query, usize, QueryReport)> {
    let mut out = Vec::new();
    for engine in engines::all_engines() {
        for query in Query::ALL {
            for nodes in [1usize, 2] {
                let rec = h
                    .run_cell(engine.as_ref(), query, SizeClass::Small, nodes)
                    .unwrap_or_else(|e| panic!("{} / {query:?} / n{nodes}: {e}", engine.name()));
                if let RunOutcome::Completed(report) = rec.outcome {
                    out.push((engine.name().to_string(), query, nodes, report));
                }
            }
        }
    }
    out
}

/// Measured mode: walls are real, so exact rollup equality is the strong
/// form of the invariant.
#[test]
fn per_op_costs_sum_exactly_to_phase_times() {
    let h = Harness::new(config()).unwrap();
    let cells = completed_cells(&h);
    // All 12 engines contribute at least their single-node cells.
    assert!(cells.len() > 50, "got {} completed cells", cells.len());
    for (engine, query, nodes, report) in &cells {
        let tag = format!("{engine} / {query:?} / n{nodes}");
        assert!(!report.trace.ops.is_empty(), "{tag}: empty trace");
        for op in &report.trace.ops {
            let c = &op.cost;
            assert!(
                c.wall_secs.is_finite() && c.wall_secs >= 0.0,
                "{tag} op {:?}: bad wall {}",
                op.label,
                c.wall_secs
            );
            assert!(
                c.model_secs.is_finite() && c.model_secs >= 0.0,
                "{tag} op {:?}: bad model cost {}",
                op.label,
                c.model_secs
            );
            assert!(
                c.sim_secs().is_finite() && c.sim_secs() >= 0.0,
                "{tag} op {:?}: bad sim cost",
                op.label
            );
            // Kernel invocations are analytics; the datamgmt/analytics
            // attribution of everything else is each engine's own (that
            // difference is what the paper measures), but a kernel in the
            // DM phase would corrupt the Figure 2/4 split.
            if op.kind == OpKind::Analytics {
                assert_eq!(
                    op.phase,
                    genbase::plan::Phase::Analytics,
                    "{tag}: kernel op {:?} attributed to data management",
                    op.label
                );
            }
        }
        // The split is the trace's rollup: per phase, walls and model
        // seconds sum in op order, clock nanoseconds as integers.
        let roll = report.phases();
        for (phase, got) in [
            (genbase::plan::Phase::DataManagement, roll.data_management),
            (genbase::plan::Phase::Analytics, roll.analytics),
        ] {
            let ops = report.trace.ops.iter().filter(|op| op.phase == phase);
            let (mut wall, mut nanos, mut model, mut bytes) = (0.0f64, 0u64, 0.0f64, 0u64);
            for op in ops {
                wall += op.cost.wall_secs;
                nanos += op.cost.sim_nanos;
                model += op.cost.model_secs;
                bytes += op.cost.sim_bytes;
            }
            let sim = nanos as f64 / 1e9 + model;
            assert_eq!(
                got.wall_secs.to_bits(),
                wall.to_bits(),
                "{tag}: {phase:?} wall"
            );
            assert_eq!(
                got.sim_secs.to_bits(),
                sim.to_bits(),
                "{tag}: {phase:?} sim"
            );
            assert_eq!(got.sim_bytes, bytes, "{tag}: {phase:?} bytes");
        }
    }
}

/// SimOnly mode: the harness zeroes every wall entry of the trace, so the
/// phase split derived from it carries simulated seconds only.
#[test]
fn sim_only_zeroes_trace_walls_and_keeps_rollup_exact() {
    let h = Harness::new(config().sim_only()).unwrap();
    for (engine, query, nodes, report) in completed_cells(&h) {
        let tag = format!("{engine} / {query:?} / n{nodes}");
        for op in &report.trace.ops {
            assert_eq!(op.cost.wall_secs, 0.0, "{tag} op {:?}", op.label);
        }
        let phases = report.phases();
        assert_eq!(phases.data_management.wall_secs, 0.0, "{tag}: dm wall");
        assert_eq!(phases.analytics.wall_secs, 0.0, "{tag}: an wall");
        assert_eq!(
            phases.total_secs().to_bits(),
            (phases.data_management.sim_secs + phases.analytics.sim_secs).to_bits(),
            "{tag}: total"
        );
    }
}

/// The datamgmt vs analytics attribution of the physical lowering is pinned
/// for one representative of each engine family: these sequences *are* the
/// paper's per-system workflows, so a refactor that reshuffles them should
/// fail loudly.
#[test]
fn physical_lowering_sequences_are_pinned() {
    use genbase::plan::Phase::{Analytics as An, DataManagement as Dm};
    use OpKind::*;
    type Lowering = &'static [(OpKind, genbase::plan::Phase)];
    let h = Harness::new(config().sim_only()).unwrap();
    let expect: [(&str, Query, Lowering); 6] = [
        (
            // Export bridge: the paper's copy-and-reformat path.
            "Postgres + R",
            Query::Svd,
            &[
                (Filter, Dm),
                (Join, Dm),
                (Export, Dm),
                (Restructure, Dm),
                (Analytics, An),
            ],
        ),
        (
            // UDF bridge: marshalling penalty on the biclustering query.
            "Column store + UDFs",
            Query::Biclustering,
            &[
                (Filter, Dm),
                (Join, Dm),
                (Restructure, Dm),
                (Marshal, Dm),
                (Analytics, An),
            ],
        ),
        (
            // Madlib: covariance simulated in SQL — no restructure at all.
            "Postgres + Madlib",
            Query::Covariance,
            &[(Filter, Dm), (Join, Dm), (Analytics, An), (Join, Dm)],
        ),
        (
            // R: load + in-memory subsets; joins fold away.
            "Vanilla R",
            Query::Regression,
            &[
                (Restructure, Dm),
                (Filter, Dm),
                (Restructure, Dm),
                (Analytics, An),
            ],
        ),
        (
            // SciDB: dimension arithmetic; Query 5 group-agg is DM.
            "SciDB",
            Query::Statistics,
            &[(Filter, Dm), (GroupAgg, Dm), (Analytics, An)],
        ),
        (
            // Hadoop: one MR job pipeline per logical op.
            "Hadoop",
            Query::Regression,
            &[(Filter, Dm), (Join, Dm), (Restructure, Dm), (Analytics, An)],
        ),
    ];
    for (engine_name, query, want) in expect {
        let engine = engines::all_engines()
            .into_iter()
            .find(|e| e.name() == engine_name)
            .unwrap();
        let rec = h
            .run_cell(engine.as_ref(), query, SizeClass::Small, 1)
            .unwrap();
        let report = rec.outcome.report().expect("completed").clone();
        let got: Vec<(OpKind, genbase::plan::Phase)> = report
            .trace
            .ops
            .iter()
            .map(|op| (op.kind, op.phase))
            .collect();
        assert_eq!(got, want, "{engine_name} / {query:?} lowering changed");
    }
}

/// The memory dimension: every engine × query × nodes cell reports sane
/// storage-layer counters, and the ops that *are* the paper's headline
/// cost — restructure, export, marshal — always show bytes moved.
#[test]
fn memory_columns_cover_every_cell_and_restructure_ops_move_bytes() {
    use genbase::plan::Phase;
    let h = Harness::new(config().sim_only()).unwrap();
    let cells = completed_cells(&h);
    assert!(cells.len() > 50, "got {} completed cells", cells.len());
    for (engine, query, nodes, report) in &cells {
        let tag = format!("{engine} / {query:?} / n{nodes}");
        let mut peak_max = 0u64;
        for op in &report.trace.ops {
            let c = &op.cost;
            // u64 counters are non-negative by type; pin the structural
            // relations instead: a peak can never be below the bytes the
            // op held... nothing resident can exceed the run peak.
            peak_max = peak_max.max(c.peak_alloc_bytes);
            if matches!(
                op.kind,
                OpKind::Restructure | OpKind::Export | OpKind::Marshal
            ) && op.phase == Phase::DataManagement
            {
                assert!(
                    c.bytes_moved() > 0,
                    "{tag} op {:?}: restructure-class op moved no bytes",
                    op.label
                );
                assert!(c.bytes_in > 0 || c.bytes_out > 0, "{tag} op {:?}", op.label);
            }
        }
        let roll = report.memory();
        assert_eq!(
            roll.peak_alloc_bytes, peak_max,
            "{tag}: rollup peak is the max over op peaks"
        );
        assert!(
            roll.bytes_in > 0 && roll.bytes_out > 0,
            "{tag}: every cell moves storage-layer bytes somewhere"
        );
        assert!(
            roll.peak_alloc_bytes > 0,
            "{tag}: resident working sets must register"
        );
    }
}

/// A cell that exhausts `--mem-budget` renders as the paper's "infinite"
/// bar — a surfaced failure, never a hard error or abort — and the budget
/// value is part of the config fingerprint only when set.
#[test]
fn mem_budget_exhaustion_renders_infinite() {
    let mut cfg = config().sim_only();
    cfg.mem_budget = Some(10_000); // chunked store alone needs ~28.8 KB
    let with_budget = genbase::sched::config_fingerprint(&cfg);
    assert!(with_budget.contains("membudget=10000"));
    let mut unlimited = cfg.clone();
    unlimited.mem_budget = None;
    assert!(
        !genbase::sched::config_fingerprint(&unlimited).contains("membudget"),
        "unlimited default keeps the pre-memory fingerprint (old checkpoints load)"
    );

    let h = Harness::new(cfg).unwrap();
    let scidb = engines::SciDb::new();
    let rec = h
        .run_cell(&scidb, Query::Covariance, SizeClass::Small, 1)
        .unwrap();
    match rec.outcome {
        RunOutcome::Infinite { reason } => {
            assert!(
                reason.contains("memory"),
                "reason names the failure: {reason}"
            )
        }
        other => panic!("expected Infinite, got {other:?}"),
    }
    // Same engine, same data, unlimited budget: completes.
    let h = Harness::new(unlimited).unwrap();
    let rec = h
        .run_cell(&scidb, Query::Covariance, SizeClass::Small, 1)
        .unwrap();
    assert!(matches!(rec.outcome, RunOutcome::Completed(_)));
}

/// Traces survive the grid/wire serialization round trip bit-for-bit
/// (SimOnly costs are deterministic, so equality is meaningful).
#[test]
fn traces_round_trip_through_cell_outcomes() {
    let h = Harness::new(config().sim_only()).unwrap();
    let hadoop = engines::Hadoop::new();
    let rec = h
        .run_cell(&hadoop, Query::Covariance, SizeClass::Small, 1)
        .unwrap();
    let outcome = CellOutcome::from_run(&rec.outcome);
    let trace = outcome.trace().expect("completed cell carries trace");
    assert!(trace.iter().any(|op| op.cost.sim_nanos > 0));
    let back = CellOutcome::from_json(&outcome.to_json()).unwrap();
    assert_eq!(back, outcome, "trace must survive the wire format");
}
