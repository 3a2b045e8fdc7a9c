//! Regeneration of every table and figure in the paper's evaluation.
//!
//! Each exhibit is described once, as an `Exhibit`: which systems are its
//! columns, which queries it covers, whether its rows walk the dataset sizes
//! or the node counts, and what a cell shows. Both directions derive from
//! that one description:
//! - [`plan`] decomposes it into independent [`CellKey`] work units in a
//!   fixed order, and [`plan_sweep`] merges several exhibits' plans into
//!   what the scheduler or a coordinator hands out, each cell once;
//! - [`render`] / [`render_per_op`] turn a [`ReportGrid`] of cell outcomes
//!   back into the paper's rows/series as a **pure function of the grid**.
//!
//! Because rendering never looks at how or where cells ran, a figure is
//! byte-identical whether its grid came from one cell in flight, many, a
//! resumed checkpoint or a coordinator's workers — or from a sweep of a
//! sibling exhibit that holds its cells (a Figure 1 grid renders Figure 2).
//!
//! Figures 1–4 come out as text tables (rows = x-axis, columns = systems);
//! Figure 5 and Table 1 compare SciDB against the modeled Xeon Phi
//! configuration.

use crate::engine::Engine;
use crate::engines::{self, SciDb, SciDbPhi};
use crate::harness::{Harness, HarnessConfig};
use crate::plan::{OpKind, Phase};
use crate::query::Query;
use crate::sched::{CellKey, CellOutcome, FigureId, ReportGrid};
use genbase_accel::{Coprocessor, OpProfile};
use genbase_datagen::SizeClass;
use genbase_util::table::{Align, TextTable};
use genbase_util::{fmt_bytes, fmt_secs, Error, Result};

/// A rendered figure: a title plus one or more captioned tables.
#[derive(Debug)]
pub struct Figure {
    /// Figure title (matches the paper).
    pub title: String,
    /// `(caption, table)` pairs.
    pub tables: Vec<(String, TextTable)>,
}

impl Figure {
    /// Render to plain text.
    pub fn render(&self) -> String {
        let mut out = format!("=== {} ===\n", self.title);
        for (caption, table) in &self.tables {
            out.push_str(&format!("\n--- {caption} ---\n"));
            out.push_str(&table.render());
        }
        out
    }
}

/// The four queries Figure 5 / Table 1 cover (regression offload was
/// unsupported in the paper's MKL release).
pub const PHI_QUERIES: [Query; 4] = [
    Query::Biclustering,
    Query::Svd,
    Query::Covariance,
    Query::Statistics,
];

/// Table 1's row order.
const TABLE1_QUERIES: [Query; 4] = [
    Query::Covariance,
    Query::Svd,
    Query::Statistics,
    Query::Biclustering,
];

/// What an exhibit's rows walk.
enum Rows {
    /// The configured dataset sizes, on one node.
    Sizes,
    /// The configured node counts, on the multi-node dataset.
    Nodes,
}

/// What an exhibit shows for each of its cells. Caption and title templates
/// take `{query}` (the query's title) and `{size}` (the multi-node
/// dataset's label).
enum Body {
    /// One table per query of total times, under this caption.
    Total(&'static str),
    /// The query's data-management and analytics tables; `--per-op`
    /// renders the same cells under `per_op_title`.
    PhaseSplit { per_op_title: &'static str },
    /// Table 1's modeled Phi speed-up: queries down, node counts across.
    PhiSpeedup,
}

/// One exhibit of the evaluation: the single description [`plan`],
/// [`render`] and [`render_per_op`] all derive from. Cells run (and tables
/// fill) query by query, row by row, system by system.
struct Exhibit {
    title: &'static str,
    /// The systems compared, in column order.
    engines: fn() -> Vec<Box<dyn Engine>>,
    queries: &'static [Query],
    rows: Rows,
    body: Body,
}

fn exhibit(figure: FigureId) -> Exhibit {
    match figure {
        FigureId::Fig1 => Exhibit {
            title: "Figure 1: Overall performance of the various systems",
            engines: engines::single_node_engines,
            queries: &Query::ALL,
            rows: Rows::Sizes,
            body: Body::Total("{query} Query Performance"),
        },
        FigureId::Fig2 => Exhibit {
            title: "Figure 2: Data management and analytics performance (regression)",
            engines: engines::single_node_engines,
            queries: &[Query::Regression],
            rows: Rows::Sizes,
            body: Body::PhaseSplit {
                per_op_title: "Figure 2 (per-op): regression cost by physical operator",
            },
        },
        FigureId::Fig3 => Exhibit {
            title: "Figure 3: Overall performance, varying number of nodes",
            engines: engines::multi_node_engines,
            queries: &Query::ALL,
            rows: Rows::Nodes,
            body: Body::Total("{query} Query Performance, {size} Dataset"),
        },
        FigureId::Fig4 => Exhibit {
            title: "Figure 4: Multi-node regression breakdown, {size} dataset",
            engines: engines::multi_node_engines,
            queries: &[Query::Regression],
            rows: Rows::Nodes,
            body: Body::PhaseSplit {
                per_op_title: "Figure 4 (per-op): multi-node regression cost by physical \
                               operator, {size} dataset",
            },
        },
        FigureId::Fig5 => Exhibit {
            title: "Figure 5: SciDB and SciDB + Intel Xeon Phi coprocessor",
            engines: || vec![Box::new(SciDb::new()), Box::new(SciDbPhi::new())],
            queries: &PHI_QUERIES,
            rows: Rows::Sizes,
            body: Body::Total("{query} Query Performance, SciDB v. SciDB + Xeon Phi"),
        },
        FigureId::Table1 => Exhibit {
            title: "Table 1: Analytics speedup of the Xeon Phi system vs the Xeon system ({size})",
            engines: || vec![Box::new(SciDb::new())],
            queries: &TABLE1_QUERIES,
            rows: Rows::Nodes,
            body: Body::PhiSpeedup,
        },
    }
}

impl Exhibit {
    /// `((dataset, nodes), label)` of every row, top to bottom.
    fn rows(&self, cfg: &HarnessConfig, mn_size: SizeClass) -> Vec<((SizeClass, usize), String)> {
        let (sizes, nodes) = (cfg.sizes.iter(), cfg.node_counts.iter());
        match self.rows {
            Rows::Sizes => sizes.map(|&s| ((s, 1), s.label().to_string())).collect(),
            Rows::Nodes => nodes.map(|&n| ((mn_size, n), n.to_string())).collect(),
        }
    }
}

/// "1 node" / "4 nodes".
fn node_count(nodes: usize) -> String {
    format!("{nodes} node{}", if nodes == 1 { "" } else { "s" })
}

/// Decompose one exhibit into its cell list: query by query, row by row,
/// system by system. `mn_size` selects the dataset for the multi-node
/// exhibits (fig3/fig4/table1). Exhibits share cells (Figure 2's are all
/// Figure 1's); [`plan_sweep`] lists each once.
pub fn plan(figure: FigureId, cfg: &HarnessConfig, mn_size: SizeClass) -> Vec<CellKey> {
    let exhibit = exhibit(figure);
    let (engines, rows) = ((exhibit.engines)(), exhibit.rows(cfg, mn_size));
    let mut cells = Vec::new();
    for &query in exhibit.queries {
        for (row, _) in &rows {
            for engine in &engines {
                cells.push(cell(query, *row, engine.as_ref()));
            }
        }
    }
    cells
}

/// The cells a sweep of `figs` runs: their [`plan`]s in order, each cell
/// at its first occurrence. This is the order a sweep hands cells out in
/// (locally and to a coordinator's workers) and reports the first failure
/// by.
pub fn plan_sweep(figs: &[FigureId], cfg: &HarnessConfig, mn_size: SizeClass) -> Vec<CellKey> {
    let mut seen = std::collections::HashSet::new();
    let cells = figs.iter().flat_map(|&f| plan(f, cfg, mn_size));
    cells.filter(|cell| seen.insert(cell.clone())).collect()
}

fn cell(query: Query, row: (SizeClass, usize), engine: &dyn Engine) -> CellKey {
    CellKey {
        query,
        size: row.0,
        nodes: row.1,
        engine: engine.name().to_string(),
    }
}

fn lookup(grid: &ReportGrid, key: CellKey) -> Result<&CellOutcome> {
    grid.get(&key)
        .ok_or_else(|| Error::invalid(format!("grid missing cell {}", key.id())))
}

/// An empty table with a `first` label column and one right-aligned column
/// per system.
fn system_table(first: &str, engines: &[Box<dyn Engine>]) -> TextTable {
    let mut cols = vec![(first, Align::Left)];
    cols.extend(engines.iter().map(|e| (e.name(), Align::Right)));
    TextTable::new(&cols)
}

/// Render one exhibit from a grid of cell outcomes. Every cell the exhibit
/// plans must be present, whichever sweep put it there (a missing cell —
/// e.g. rendering Figure 3 from a Figure 1 grid — is an error naming the
/// gap).
pub fn render(
    figure: FigureId,
    harness: &Harness,
    mn_size: SizeClass,
    grid: &ReportGrid,
) -> Result<Figure> {
    let exhibit = exhibit(figure);
    // One table per query and part: its caption, and which phase's seconds
    // a completed cell shows in it (`None`: their total).
    let parts = match exhibit.body {
        Body::Total(caption) => vec![(caption, None)],
        Body::PhaseSplit { .. } => vec![
            (
                "{query} Data Management Performance",
                Some(Phase::DataManagement),
            ),
            ("{query} Analytics Performance", Some(Phase::Analytics)),
        ],
        Body::PhiSpeedup => return render_phi_speedup(&exhibit, harness, mn_size, grid),
    };
    let engines = (exhibit.engines)();
    let row_header = match exhibit.rows {
        Rows::Sizes => "dataset",
        Rows::Nodes => "nodes",
    };
    let rows = exhibit.rows(harness.config(), mn_size);
    let mut tables = Vec::new();
    for &query in exhibit.queries {
        for (caption, phase) in &parts {
            let mut table = system_table(row_header, &engines);
            for (row, label) in &rows {
                let mut texts = vec![label.clone()];
                for engine in &engines {
                    let outcome = lookup(grid, cell(query, *row, engine.as_ref()))?;
                    texts.push(match (outcome.phases(), phase) {
                        (None, _) => outcome.cell(),
                        (Some(p), None) => fmt_secs(p.total_secs()),
                        (Some(p), Some(Phase::DataManagement)) => {
                            fmt_secs(p.data_management.total_secs())
                        }
                        (Some(p), Some(Phase::Analytics)) => fmt_secs(p.analytics.total_secs()),
                    });
                }
                table.row(texts);
            }
            let caption = caption
                .replace("{size}", mn_size.label())
                .replace("{query}", query.title());
            tables.push((caption, table));
        }
    }
    Ok(Figure {
        title: exhibit.title.replace("{size}", mn_size.label()),
        tables,
    })
}

/// Table 1: analytics speedup of the Phi-based system versus the Xeon
/// system, per benchmark and node count, on the large dataset — the one
/// exhibit whose cells are not outcomes.
///
/// Multi-node speedups are derived the same way the single-node engine
/// derives them: each node's measured analytics time is scaled through the
/// roofline model for its share of the data (per-node transfer overhead and
/// the unchanged network time shrink the speedup as nodes grow — the
/// paper's observed pattern).
fn render_phi_speedup(
    exhibit: &Exhibit,
    harness: &Harness,
    size: SizeClass,
    grid: &ReportGrid,
) -> Result<Figure> {
    let co = Coprocessor::phi_on_e5();
    let scidb = &(exhibit.engines)()[0];
    let columns = exhibit.rows(harness.config(), size);
    let data = harness.dataset(size)?;
    let params = harness.params(size)?;
    let heads: Vec<String> = columns.iter().map(|(c, _)| node_count(c.1)).collect();
    let mut cols = vec![("benchmark", Align::Left)];
    cols.extend(heads.iter().map(|h| (h.as_str(), Align::Right)));
    let mut table = TextTable::new(&cols);
    for &query in exhibit.queries {
        let mut row = vec![query.title().to_string()];
        for &(column, _) in &columns {
            let nodes = column.1;
            let outcome = lookup(grid, cell(query, column, scidb.as_ref()))?;
            let Some(phases) = outcome.phases() else {
                row.push("-".into());
                continue;
            };
            let an = &phases.analytics;
            // Per-node share of the analytics workload.
            let m = data.n_patients() / nodes;
            let selected_patients = || {
                let patients = data.patients.iter();
                patients
                    .filter(|p| params.selects_patient(query, p))
                    .count()
            };
            let profile = match query {
                Query::Covariance => {
                    OpProfile::covariance((selected_patients() / nodes).max(2), data.n_genes())
                }
                Query::Svd => {
                    let sel = data.genes.iter().filter(|g| params.selects_gene(g)).count();
                    OpProfile::svd_lanczos(m.max(2), sel.max(2), params.svd_k.min(sel.max(2)))
                }
                Query::Statistics => OpProfile::statistics(
                    params.sample_count(data.n_patients()) / nodes.max(1) + 1,
                    data.n_genes(),
                    data.ontology.n_terms(),
                ),
                Query::Biclustering => OpProfile::biclustering(
                    (selected_patients() / nodes).max(2),
                    data.n_genes(),
                    40,
                ),
                Query::Regression => unreachable!("not in PHI set"),
            };
            let host_total = an.total_secs();
            // Device time: compute scaled through the model; the network
            // component of multi-node analytics is unchanged by the Phi.
            let phi_total = co.scale_measured(an.wall_secs, &profile) + an.sim_secs;
            let speedup = if phi_total > 0.0 {
                host_total / phi_total
            } else {
                1.0
            };
            row.push(format!("{speedup:.2}"));
        }
        table.row(row);
    }
    Ok(Figure {
        title: exhibit.title.replace("{size}", size.label()),
        tables: vec![("SciDB + ScaLAPACK".into(), table)],
    })
}

/// Per-operator cost breakdown ("explain") for engine × query pairs: each
/// pair runs once on the `size` dataset over `nodes` simulated nodes, and
/// its plan trace renders as a table of physical operators with per-op
/// costs — the finer-grained decomposition of the Figure 2/4 bars, since
/// each phase is exactly the sum of its trace entries.
///
/// `engine_filter` / `query_filter` narrow the matrix (case-insensitive
/// engine-name match); `None` runs every pair. Unsupported pairs render as
/// a note instead of a table, mirroring the paper's missing bars.
pub fn explain(
    harness: &Harness,
    size: SizeClass,
    nodes: usize,
    engine_filter: Option<&str>,
    query_filter: Option<Query>,
) -> Result<Figure> {
    let mut tables = Vec::new();
    for (engine, query, rec) in explain_matrix(harness, size, nodes, engine_filter, query_filter)? {
        let caption = format!("{engine} / {}", query.title());
        let table = match &rec.outcome {
            crate::report::RunOutcome::Completed(report) => report.trace.table(),
            crate::report::RunOutcome::Infinite { reason } => {
                let mut t = TextTable::new(&[("outcome", Align::Left)]);
                t.row(vec![format!("infinite: {reason}")]);
                t
            }
            crate::report::RunOutcome::Unsupported => {
                let mut t = TextTable::new(&[("outcome", Align::Left)]);
                t.row(vec!["unsupported (no bar in the paper)".to_string()]);
                t
            }
        };
        tables.push((caption, table));
    }
    Ok(Figure {
        title: format!(
            "Explain: per-operator plan cost, {} dataset, {}",
            size.label(),
            node_count(nodes)
        ),
        tables,
    })
}

/// Machine-readable `explain` (the CLI's `explain --json`): the same
/// engine × query matrix as [`explain`], serialized through the shared
/// [`genbase_util::Json`] writer with the per-op memory columns and the
/// whole-run memory rollup. Deterministic under `--sim-only --threads N`
/// (pinned by the committed `tests/golden/explain_small.json`).
pub fn explain_json(
    harness: &Harness,
    size: SizeClass,
    nodes: usize,
    engine_filter: Option<&str>,
    query_filter: Option<Query>,
) -> Result<String> {
    use genbase_util::Json;
    let mut pairs = Vec::new();
    for (engine, query, rec) in explain_matrix(harness, size, nodes, engine_filter, query_filter)? {
        let mut pair = Json::obj();
        pair.set("engine", Json::from(engine.as_str()));
        pair.set("query", Json::from(query.name()));
        match &rec.outcome {
            crate::report::RunOutcome::Completed(report) => {
                pair.set("status", Json::from("completed"));
                let mem = report.memory();
                let mut rollup = Json::obj();
                rollup.set("bytes_in", Json::from(mem.bytes_in));
                rollup.set("bytes_out", Json::from(mem.bytes_out));
                rollup.set("peak_alloc", Json::from(mem.peak_alloc_bytes));
                rollup.set("rows", Json::from(mem.rows_materialized));
                pair.set("memory", rollup);
                pair.set(
                    "ops",
                    Json::Arr(
                        report
                            .trace
                            .ops
                            .iter()
                            .map(crate::plan::OpTrace::to_json)
                            .collect(),
                    ),
                );
            }
            crate::report::RunOutcome::Infinite { reason } => {
                pair.set("status", Json::from("infinite"));
                pair.set("reason", Json::from(reason.as_str()));
            }
            crate::report::RunOutcome::Unsupported => {
                pair.set("status", Json::from("unsupported"));
            }
        }
        pairs.push(pair);
    }
    let mut doc = Json::obj();
    doc.set("schema", Json::from("genbase-explain-v1"));
    doc.set("size", Json::from(size.slug()));
    doc.set("nodes", Json::from(nodes));
    doc.set("pairs", Json::Arr(pairs));
    Ok(doc.render())
}

/// Shared engine×query matrix runner behind [`explain`] / [`explain_json`].
fn explain_matrix(
    harness: &Harness,
    size: SizeClass,
    nodes: usize,
    engine_filter: Option<&str>,
    query_filter: Option<Query>,
) -> Result<Vec<(String, Query, crate::harness::RunRecord)>> {
    let engines: Vec<Box<dyn Engine>> = engines::all_engines()
        .into_iter()
        .filter(|e| match engine_filter {
            Some(name) => e.name().eq_ignore_ascii_case(name),
            None => true,
        })
        .collect();
    if engines.is_empty() {
        return Err(Error::invalid(format!(
            "no engine matches {engine_filter:?} (names: {})",
            engines::all_engines()
                .iter()
                .map(|e| format!("{:?}", e.name()))
                .collect::<Vec<_>>()
                .join(", ")
        )));
    }
    let queries: Vec<Query> = match query_filter {
        Some(q) => vec![q],
        None => Query::ALL.to_vec(),
    };
    let mut out = Vec::new();
    for engine in &engines {
        for &query in &queries {
            let rec = harness.run_cell(engine.as_ref(), query, size, nodes)?;
            out.push((engine.name().to_string(), query, rec));
        }
    }
    Ok(out)
}

/// Stacked per-operator breakdown of Figure 2 or Figure 4: the same grid
/// cells, but each engine's data-management/analytics bar decomposed by
/// physical operator class (filter/join/restructure/export/group-agg/
/// marshal/analytics), with a second table showing storage-layer bytes
/// moved per class — the paper's headline cost, rendered from the traces
/// the grid already carries.
pub fn render_per_op(
    figure: FigureId,
    harness: &Harness,
    mn_size: SizeClass,
    grid: &ReportGrid,
) -> Result<Figure> {
    const KINDS: [OpKind; 7] = [
        OpKind::Filter,
        OpKind::Join,
        OpKind::Restructure,
        OpKind::Export,
        OpKind::GroupAgg,
        OpKind::Marshal,
        OpKind::Analytics,
    ];
    let exhibit = exhibit(figure);
    let Body::PhaseSplit { per_op_title } = exhibit.body else {
        return Err(Error::invalid(format!(
            "--per-op renders fig2 or fig4, not {}",
            figure.name()
        )));
    };
    let engines = (exhibit.engines)();
    let query = exhibit.queries[0];
    let mut tables = Vec::new();
    for (row, label) in exhibit.rows(harness.config(), mn_size) {
        let caption = match exhibit.rows {
            Rows::Sizes => format!("{label} dataset"),
            Rows::Nodes => node_count(row.1),
        };
        for (in_seconds, what) in [
            (true, "seconds per operator class"),
            (false, "storage-layer bytes moved per operator class"),
        ] {
            let mut table = system_table("op", &engines);
            for kind in KINDS {
                let mut texts = vec![kind.name().to_string()];
                for engine in &engines {
                    let outcome = lookup(grid, cell(query, row, engine.as_ref()))?;
                    texts.push(match outcome.trace() {
                        None => outcome.cell(),
                        Some(trace) => {
                            let ops = trace.iter().filter(|op| op.kind == kind);
                            match in_seconds {
                                true => fmt_secs(ops.fold(0.0, |s, op| s + op.cost.total_secs())),
                                false => fmt_bytes(ops.map(|op| op.cost.bytes_moved()).sum()),
                            }
                        }
                    });
                }
                table.row(texts);
            }
            tables.push((format!("{caption}: {what}"), table));
        }
    }
    Ok(Figure {
        title: per_op_title.replace("{size}", mn_size.label()),
        tables,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::harness::HarnessConfig;
    use std::time::Duration;

    fn micro_config() -> HarnessConfig {
        HarnessConfig {
            scale: 0.012,
            sizes: vec![SizeClass::Small],
            cutoff: Duration::from_secs(60),
            r_mem_bytes: u64::MAX,
            node_counts: vec![1, 2],
            ..HarnessConfig::quick()
        }
    }

    fn micro_harness() -> Harness {
        Harness::new(micro_config()).unwrap()
    }

    /// Sweep one exhibit with one cell in flight and render it.
    fn swept(figure: FigureId) -> Figure {
        use crate::sched::{Scheduler, SweepOptions};
        let sched = Scheduler::new(micro_config()).unwrap();
        let sweep = SweepOptions::serial();
        let out = sched
            .run_sweep(&[figure], SizeClass::Small, &sweep)
            .unwrap();
        render(figure, sched.harness(), SizeClass::Small, &out.grid).unwrap()
    }

    #[test]
    fn figure5_and_table1_render() {
        let f5 = swept(FigureId::Fig5);
        assert_eq!(f5.tables.len(), 4);
        let rendered = f5.render();
        assert!(rendered.contains("SciDB + Xeon Phi"));
        let t1 = swept(FigureId::Table1);
        let rendered = t1.render();
        assert!(rendered.contains("Covariance"));
        assert!(rendered.contains("Biclustering"));
    }

    #[test]
    fn figure2_renders_both_phases() {
        let f2 = swept(FigureId::Fig2);
        assert_eq!(f2.tables.len(), 2);
        let rendered = f2.render();
        assert!(rendered.contains("Data Management"));
        assert!(rendered.contains("Analytics"));
    }

    #[test]
    fn plans_have_expected_shapes() {
        let cfg = HarnessConfig {
            sizes: vec![SizeClass::Small, SizeClass::Medium],
            node_counts: vec![1, 2],
            ..HarnessConfig::quick()
        };
        // 5 queries x 2 sizes x 7 engines.
        assert_eq!(plan(FigureId::Fig1, &cfg, SizeClass::Small).len(), 70);
        // 2 sizes x 7 engines.
        assert_eq!(plan(FigureId::Fig2, &cfg, SizeClass::Small).len(), 14);
        // 5 queries x 2 node counts x 5 engines.
        assert_eq!(plan(FigureId::Fig3, &cfg, SizeClass::Small).len(), 50);
        // 2 node counts x 5 engines.
        assert_eq!(plan(FigureId::Fig4, &cfg, SizeClass::Small).len(), 10);
        // 4 queries x 2 sizes x 2 engines.
        assert_eq!(plan(FigureId::Fig5, &cfg, SizeClass::Small).len(), 16);
        // 4 queries x 2 node counts.
        assert_eq!(plan(FigureId::Table1, &cfg, SizeClass::Small).len(), 8);
        // Plans are deterministic and duplicate-free.
        let cells = plan(FigureId::Fig1, &cfg, SizeClass::Small);
        assert_eq!(cells, plan(FigureId::Fig1, &cfg, SizeClass::Small));
        let mut ids: Vec<String> = cells.iter().map(CellKey::id).collect();
        ids.sort();
        ids.dedup();
        assert_eq!(ids.len(), cells.len());
    }

    /// A sweep of any set of exhibits plans every cell each of them needs,
    /// and no cell twice.
    #[test]
    fn sweep_plans_hold_each_exhibit_once() {
        let cfg = HarnessConfig {
            sizes: vec![SizeClass::Small, SizeClass::Medium],
            node_counts: vec![1, 2],
            ..HarnessConfig::quick()
        };
        for mask in 1..1usize << FigureId::ALL.len() {
            let figs: Vec<FigureId> = (FigureId::ALL.into_iter().enumerate())
                .filter(|(i, _)| mask >> i & 1 == 1)
                .map(|(_, f)| f)
                .collect();
            let cells = plan_sweep(&figs, &cfg, SizeClass::Small);
            let distinct: std::collections::HashSet<&CellKey> = cells.iter().collect();
            assert_eq!(distinct.len(), cells.len(), "{figs:?} plans a cell twice");
            for &f in &figs {
                let missing = plan(f, &cfg, SizeClass::Small)
                    .into_iter()
                    .find(|cell| !distinct.contains(cell));
                assert_eq!(missing, None, "{figs:?} lacks a cell of {}", f.name());
            }
        }
    }

    #[test]
    fn explain_renders_per_op_tables() {
        let h = micro_harness();
        let fig = explain(&h, SizeClass::Small, 1, None, None).unwrap();
        assert_eq!(fig.tables.len(), engines::all_engines().len() * 5);
        let text = fig.render();
        assert!(text.contains("physical step"));
        assert!(text.contains("unsupported"), "Hadoop SVD renders as a note");
        // Filters narrow the matrix; engine match is case-insensitive.
        let one = explain(&h, SizeClass::Small, 1, Some("scidb"), Some(Query::Svd)).unwrap();
        assert_eq!(one.tables.len(), 1);
        assert!(one.tables[0].0.contains("SciDB"));
        assert!(explain(&h, SizeClass::Small, 1, Some("no such engine"), None).is_err());
    }

    #[test]
    fn render_fails_cleanly_on_missing_cells() {
        let h = micro_harness();
        let empty = ReportGrid::default();
        let err = render(FigureId::Fig1, &h, SizeClass::Small, &empty).unwrap_err();
        assert!(err.to_string().contains("missing cell"));
    }
}
