//! End-to-end: the harness regenerates every figure/table at micro scale.

use genbase::figures::{self, Figure};
use genbase::harness::{Harness, HarnessConfig};
use genbase::sched::{FigureId, ReportGrid, Scheduler, SweepOptions};
use genbase_datagen::SizeClass;
use std::time::Duration;

fn micro_config() -> HarnessConfig {
    HarnessConfig {
        scale: 0.014, // 70x70 "small"
        sizes: vec![SizeClass::Small],
        cutoff: Duration::from_secs(120),
        r_mem_bytes: u64::MAX,
        node_counts: vec![1, 2],
        ..HarnessConfig::quick()
    }
}

/// A scheduler over `config` and the grid of one serial sweep of `figs`
/// (multi-node exhibits on the Small dataset).
fn swept(config: HarnessConfig, figs: &[FigureId]) -> (Scheduler, ReportGrid) {
    let sched = Scheduler::new(config).unwrap();
    let sweep = SweepOptions::serial();
    let grid = sched
        .run_sweep(figs, SizeClass::Small, &sweep)
        .unwrap()
        .grid;
    (sched, grid)
}

fn render(sched: &Scheduler, grid: &ReportGrid, fig: FigureId) -> Figure {
    figures::render(fig, sched.harness(), SizeClass::Small, grid).unwrap()
}

#[test]
fn all_figures_and_tables_render() {
    let (sched, grid) = swept(micro_config(), &FigureId::ALL);
    let [f1, f2, f3, f4, f5, t1] = FigureId::ALL.map(|fig| render(&sched, &grid, fig));
    assert_eq!(f1.tables.len(), 5, "one table per query");
    let rendered = f1.render();
    for engine in [
        "Vanilla R",
        "Postgres + Madlib",
        "Postgres + R",
        "Column store + R",
        "Column store + UDFs",
        "SciDB",
        "Hadoop",
    ] {
        assert!(rendered.contains(engine), "figure 1 must list {engine}");
    }
    // Hadoop shows no bar for biclustering/SVD (missing functionality).
    assert!(rendered.contains('-'));

    assert_eq!(f2.tables.len(), 2);

    assert_eq!(f3.tables.len(), 5);
    let rendered = f3.render();
    for engine in ["Column store + pbdR", "pbdR", "SciDB"] {
        assert!(rendered.contains(engine), "figure 3 must list {engine}");
    }

    assert_eq!(f4.tables.len(), 2);

    assert_eq!(f5.tables.len(), 4, "the four offloadable queries");

    let rendered = t1.render();
    for bench in ["Covariance", "SVD", "Statistics", "Biclustering"] {
        assert!(rendered.contains(bench), "table 1 must list {bench}");
    }
}

#[test]
fn run_matrix_covers_all_cells() {
    // Figure 1's cells are the single-node matrix: every query on every
    // single-node engine at every configured size.
    let (sched, grid) = swept(micro_config(), &[FigureId::Fig1]);
    let cells = sched.plan(&[FigureId::Fig1], SizeClass::Small);
    // 5 queries x 1 size x 7 engines.
    assert_eq!((cells.len(), grid.len()), (35, 35));
    let outcomes = cells.iter().map(|cell| grid.get(cell).unwrap());
    let completed = outcomes.clone().filter(|o| o.phases().is_some()).count();
    let unsupported = outcomes
        .filter(|o| matches!(o, genbase::CellOutcome::Unsupported))
        .count();
    // Hadoop misses 2 queries, Madlib misses 1.
    assert_eq!(unsupported, 3);
    assert_eq!(completed, 32);
}

/// The order `Scheduler::plan` lists cells in is an on-disk contract: shard
/// `i` of `n` runs the cells at plan index `i`, `i + n`, …, so shard grid
/// files and checkpoints written under one order do not line up with
/// another. Pinned from the commit before the exhibit table existed.
#[test]
fn plan_order_matches_golden() {
    let sched = Scheduler::new(HarnessConfig::quick()).unwrap();
    let cells = sched.plan(&FigureId::ALL, SizeClass::Small);
    let got: String = cells.iter().map(|cell| cell.id() + "\n").collect();
    let want = std::fs::read_to_string("tests/golden/plan_quick.txt").unwrap();
    assert_eq!(
        got, want,
        "the plan's cell order drifted from the golden list"
    );
}

/// Configuration identical to the CI golden-snapshot runs
/// (`--scale 0.012 --sizes small --sim-only --threads 4`): output must be
/// deterministic across machines, so the committed goldens pin it.
fn golden_config() -> HarnessConfig {
    let scale = 0.012f64;
    HarnessConfig {
        scale,
        sizes: vec![SizeClass::Small],
        r_mem_bytes: (48e9 * scale * scale) as u64,
        threads: 4,
        ..HarnessConfig::default()
    }
    .sim_only()
}

fn golden_harness() -> Harness {
    Harness::new(golden_config()).unwrap()
}

/// Every exhibit renders byte-identically to the committed golden
/// (regenerate with `paper_harness all --scale 0.012 --sizes small
/// --mn-size small --sim-only --threads 4 > tests/golden/all_small.txt`).
#[test]
fn all_small_matches_golden() {
    let (sched, grid) = swept(golden_config(), &FigureId::ALL);
    let got: String = FigureId::ALL
        .into_iter()
        .map(|fig| format!("{}\n", render(&sched, &grid, fig).render()))
        .collect();
    let want = std::fs::read_to_string("tests/golden/all_small.txt").unwrap();
    assert_eq!(got, want, "`all` drifted from the golden snapshot");
}

/// The per-op Figure 2 variant renders byte-identically to the committed
/// golden (regenerate with
/// `paper_harness fig2 --scale 0.012 --sizes small --sim-only --threads 4
/// --per-op > tests/golden/fig2_per_op.txt`).
#[test]
fn fig2_per_op_matches_golden() {
    let (sched, grid) = swept(golden_config(), &[FigureId::Fig2]);
    let h = sched.harness();
    let fig = figures::render_per_op(FigureId::Fig2, h, SizeClass::Small, &grid).unwrap();
    let got = format!("{}\n", fig.render());
    let want = std::fs::read_to_string("tests/golden/fig2_per_op.txt").unwrap();
    assert_eq!(got, want, "fig2 --per-op drifted from the golden snapshot");
    // The breakdown carries the memory dimension: some operator class
    // moves storage-layer bytes for every completing engine.
    assert!(got.contains("bytes moved per operator class"));
    assert!(got.contains("KiB"));
}

/// `explain --json` (the machine-readable trace surface) matches its
/// committed golden, parses as JSON, and carries the memory columns.
#[test]
fn explain_json_matches_golden() {
    let h = golden_harness();
    let got = format!(
        "{}\n",
        figures::explain_json(&h, SizeClass::Small, 1, None, None).unwrap()
    );
    let want = std::fs::read_to_string("tests/golden/explain_small.json").unwrap();
    assert_eq!(got, want, "explain --json drifted from the golden snapshot");
    let doc = genbase_util::Json::parse(want.trim()).unwrap();
    assert_eq!(
        doc.get("schema").and_then(genbase_util::Json::as_str),
        Some("genbase-explain-v1")
    );
    let pairs = doc
        .get("pairs")
        .and_then(genbase_util::Json::as_arr)
        .unwrap();
    assert_eq!(pairs.len(), genbase::engines::all_engines().len() * 5);
    // Every completed pair reports the memory rollup and per-op columns.
    for pair in pairs {
        if pair.get("status").and_then(genbase_util::Json::as_str) == Some("completed") {
            let mem = pair.get("memory").expect("memory rollup");
            assert!(
                mem.get("peak_alloc")
                    .and_then(genbase_util::Json::as_u64)
                    .unwrap()
                    > 0
            );
            let ops = pair
                .get("ops")
                .and_then(genbase_util::Json::as_arr)
                .unwrap();
            assert!(ops.iter().all(|op| op.get("mem_peak").is_some()));
        }
    }
}

/// `explain --json --nodes 2` matches its committed golden: each
/// multi-node cell's data-management op pins what a node is charged and
/// reads (`mem_in` / `mem_out` / `mem_peak` / `rows`).
#[test]
fn explain_json_two_nodes_matches_golden() {
    let h = golden_harness();
    let got = format!(
        "{}\n",
        figures::explain_json(&h, SizeClass::Small, 2, None, None).unwrap()
    );
    let want = std::fs::read_to_string("tests/golden/explain_small_n2.json").unwrap();
    assert_eq!(
        got, want,
        "explain --json --nodes 2 drifted from the golden snapshot"
    );
}
