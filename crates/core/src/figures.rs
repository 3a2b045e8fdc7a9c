//! Regeneration of every table and figure in the paper's evaluation.
//!
//! Each exhibit is described twice, deliberately:
//! - [`plan`] decomposes it into independent [`CellKey`] work units in a
//!   fixed order (what the scheduler executes, serially or sharded);
//! - [`render`] turns a [`ReportGrid`] of cell outcomes back into the
//!   paper's rows/series as a **pure function of the grid**.
//!
//! Because rendering never looks at how or where cells ran, the sharded
//! scheduler's output is byte-identical to the serial path's. The classic
//! `figure1(&harness)`-style wrappers below run their own plan serially
//! and render it — same code path, one cell in flight.
//!
//! Figures 1–4 come out as text tables (rows = x-axis, columns = systems);
//! Figure 5 and Table 1 compare SciDB against the modeled Xeon Phi
//! configuration.

use crate::engine::Engine;
use crate::engines;
use crate::harness::Harness;
use crate::query::Query;
use crate::sched::{run_cells_serial, CellKey, CellOutcome, FigureId, ReportGrid};
use genbase_accel::{Coprocessor, OpProfile};
use genbase_datagen::SizeClass;
use genbase_util::table::{Align, TextTable};
use genbase_util::{fmt_secs, Error, Result};

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

fn cell(
    figure: FigureId,
    query: Query,
    size: SizeClass,
    nodes: usize,
    engine: &dyn Engine,
) -> CellKey {
    CellKey {
        figure,
        query,
        size,
        nodes,
        engine: engine.name().to_string(),
    }
}

/// Decompose one exhibit into its cell list, in the serial harness's
/// historical execution order. `mn_size` selects the dataset for the
/// multi-node exhibits (fig3/fig4/table1).
pub fn plan(
    figure: FigureId,
    cfg: &crate::harness::HarnessConfig,
    mn_size: SizeClass,
) -> Vec<CellKey> {
    let mut cells = Vec::new();
    match figure {
        FigureId::Fig1 => {
            let engines = engines::single_node_engines();
            for query in Query::ALL {
                for &size in &cfg.sizes {
                    for engine in &engines {
                        cells.push(cell(figure, query, size, 1, engine.as_ref()));
                    }
                }
            }
        }
        FigureId::Fig2 => {
            let engines = engines::single_node_engines();
            for &size in &cfg.sizes {
                for engine in &engines {
                    cells.push(cell(figure, Query::Regression, size, 1, engine.as_ref()));
                }
            }
        }
        FigureId::Fig3 => {
            let engines = engines::multi_node_engines();
            for query in Query::ALL {
                for &nodes in &cfg.node_counts {
                    for engine in &engines {
                        cells.push(cell(figure, query, mn_size, nodes, engine.as_ref()));
                    }
                }
            }
        }
        FigureId::Fig4 => {
            let engines = engines::multi_node_engines();
            for &nodes in &cfg.node_counts {
                for engine in &engines {
                    cells.push(cell(
                        figure,
                        Query::Regression,
                        mn_size,
                        nodes,
                        engine.as_ref(),
                    ));
                }
            }
        }
        FigureId::Fig5 => {
            let scidb = engines::SciDb::new();
            let phi = engines::SciDbPhi::new();
            for query in PHI_QUERIES {
                for &size in &cfg.sizes {
                    cells.push(cell(figure, query, size, 1, &scidb));
                    cells.push(cell(figure, query, size, 1, &phi));
                }
            }
        }
        FigureId::Table1 => {
            let scidb = engines::SciDb::new();
            for query in TABLE1_QUERIES {
                for &nodes in &cfg.node_counts {
                    cells.push(cell(figure, query, mn_size, nodes, &scidb));
                }
            }
        }
    }
    cells
}

/// Render one exhibit from a grid of cell outcomes. Every cell the exhibit
/// plans must be present (a missing cell — e.g. rendering a partial shard —
/// is an error naming the gap).
pub fn render(
    figure: FigureId,
    harness: &Harness,
    mn_size: SizeClass,
    grid: &ReportGrid,
) -> Result<Figure> {
    match figure {
        FigureId::Fig1 => render_fig1(harness, grid),
        FigureId::Fig2 => render_fig2(harness, grid),
        FigureId::Fig3 => render_fig3(harness, mn_size, grid),
        FigureId::Fig4 => render_fig4(harness, mn_size, grid),
        FigureId::Fig5 => render_fig5(harness, grid),
        FigureId::Table1 => render_table1(harness, mn_size, grid),
    }
}

fn lookup<'g>(grid: &'g ReportGrid, key: &CellKey) -> Result<&'g CellOutcome> {
    grid.get(key)
        .ok_or_else(|| Error::invalid(format!("grid missing cell {}", key.id())))
}

fn outcome_columns(engines: &[Box<dyn Engine>]) -> Vec<(String, Align)> {
    let mut cols = vec![("dataset".to_string(), Align::Left)];
    cols.extend(engines.iter().map(|e| (e.name().to_string(), Align::Right)));
    cols
}

fn table_with_columns(cols: &[(String, Align)]) -> TextTable {
    let refs: Vec<(&str, Align)> = cols.iter().map(|(n, a)| (n.as_str(), *a)).collect();
    TextTable::new(&refs)
}

fn node_columns(engines: &[Box<dyn Engine>]) -> Vec<(String, Align)> {
    let mut cols = vec![("nodes".to_string(), Align::Left)];
    cols.extend(engines.iter().map(|e| (e.name().to_string(), Align::Right)));
    cols
}

/// Phase-split cell text pair (dm, an) — "inf"/"-" for failures.
fn phase_cells(outcome: &CellOutcome) -> (String, String) {
    match outcome {
        CellOutcome::Completed { dm, an, .. } => {
            (fmt_secs(dm.total_secs()), fmt_secs(an.total_secs()))
        }
        CellOutcome::Infinite { .. } => ("inf".into(), "inf".into()),
        CellOutcome::Unsupported => ("-".into(), "-".into()),
    }
}

/// Figure 1: overall performance of the single-node systems — one table per
/// query, rows = dataset sizes, columns = systems.
fn render_fig1(harness: &Harness, grid: &ReportGrid) -> Result<Figure> {
    let engines = engines::single_node_engines();
    let cols = outcome_columns(&engines);
    let mut tables = Vec::new();
    for query in Query::ALL {
        let mut table = table_with_columns(&cols);
        for &size in &harness.config().sizes {
            let mut row = vec![size.label().to_string()];
            for engine in &engines {
                let key = cell(FigureId::Fig1, query, size, 1, engine.as_ref());
                row.push(lookup(grid, &key)?.cell());
            }
            table.row(row);
        }
        tables.push((format!("{} Query Performance", query.title()), table));
    }
    Ok(Figure {
        title: "Figure 1: Overall performance of the various systems".into(),
        tables,
    })
}

/// Figure 2: data-management and analytics breakdown for the regression
/// query across the single-node systems.
fn render_fig2(harness: &Harness, grid: &ReportGrid) -> Result<Figure> {
    let engines = engines::single_node_engines();
    let cols = outcome_columns(&engines);
    let mut dm_table = table_with_columns(&cols);
    let mut an_table = table_with_columns(&cols);
    for &size in &harness.config().sizes {
        let mut dm_row = vec![size.label().to_string()];
        let mut an_row = vec![size.label().to_string()];
        for engine in &engines {
            let key = cell(FigureId::Fig2, Query::Regression, size, 1, engine.as_ref());
            let (dm, an) = phase_cells(lookup(grid, &key)?);
            dm_row.push(dm);
            an_row.push(an);
        }
        dm_table.row(dm_row);
        an_table.row(an_row);
    }
    Ok(Figure {
        title: "Figure 2: Data management and analytics performance (regression)".into(),
        tables: vec![
            (
                "Linear Regression Data Management Performance".into(),
                dm_table,
            ),
            ("Linear Regression Analytics Performance".into(), an_table),
        ],
    })
}

/// Figure 3: multi-node overall performance on the large dataset — one
/// table per query, rows = node counts, columns = systems.
fn render_fig3(harness: &Harness, size: SizeClass, grid: &ReportGrid) -> Result<Figure> {
    let engines = engines::multi_node_engines();
    let cols = node_columns(&engines);
    let mut tables = Vec::new();
    for query in Query::ALL {
        let mut table = table_with_columns(&cols);
        for &nodes in &harness.config().node_counts {
            let mut row = vec![nodes.to_string()];
            for engine in &engines {
                let key = cell(FigureId::Fig3, query, size, nodes, engine.as_ref());
                row.push(lookup(grid, &key)?.cell());
            }
            table.row(row);
        }
        tables.push((
            format!(
                "{} Query Performance, {} Dataset",
                query.title(),
                size.label()
            ),
            table,
        ));
    }
    Ok(Figure {
        title: "Figure 3: Overall performance, varying number of nodes".into(),
        tables,
    })
}

/// Figure 4: multi-node regression breakdown on the large dataset.
fn render_fig4(harness: &Harness, size: SizeClass, grid: &ReportGrid) -> Result<Figure> {
    let engines = engines::multi_node_engines();
    let cols = node_columns(&engines);
    let mut dm_table = table_with_columns(&cols);
    let mut an_table = table_with_columns(&cols);
    for &nodes in &harness.config().node_counts {
        let mut dm_row = vec![nodes.to_string()];
        let mut an_row = vec![nodes.to_string()];
        for engine in &engines {
            let key = cell(
                FigureId::Fig4,
                Query::Regression,
                size,
                nodes,
                engine.as_ref(),
            );
            let (dm, an) = phase_cells(lookup(grid, &key)?);
            dm_row.push(dm);
            an_row.push(an);
        }
        dm_table.row(dm_row);
        an_table.row(an_row);
    }
    Ok(Figure {
        title: format!(
            "Figure 4: Multi-node regression breakdown, {} dataset",
            size.label()
        ),
        tables: vec![
            (
                "Linear Regression Data Management Performance".into(),
                dm_table,
            ),
            ("Linear Regression Analytics Performance".into(), an_table),
        ],
    })
}

/// Figure 5: SciDB vs SciDB + Xeon Phi across dataset sizes, one table per
/// accelerable query.
fn render_fig5(harness: &Harness, grid: &ReportGrid) -> Result<Figure> {
    let scidb = engines::SciDb::new();
    let phi = engines::SciDbPhi::new();
    let mut tables = Vec::new();
    for query in PHI_QUERIES {
        let mut table = TextTable::new(&[
            ("dataset", Align::Left),
            ("SciDB", Align::Right),
            ("SciDB + Xeon Phi", Align::Right),
        ]);
        for &size in &harness.config().sizes {
            let base = lookup(grid, &cell(FigureId::Fig5, query, size, 1, &scidb))?;
            let accel = lookup(grid, &cell(FigureId::Fig5, query, size, 1, &phi))?;
            table.row(vec![size.label().to_string(), base.cell(), accel.cell()]);
        }
        tables.push((
            format!(
                "{} Query Performance, SciDB v. SciDB + Xeon Phi",
                query.title()
            ),
            table,
        ));
    }
    Ok(Figure {
        title: "Figure 5: SciDB and SciDB + Intel Xeon Phi coprocessor".into(),
        tables,
    })
}

/// Table 1: analytics speedup of the Phi-based system versus the Xeon
/// system, per benchmark and node count, on the large dataset.
///
/// Multi-node speedups are derived the same way the single-node engine
/// derives them: each node's measured analytics time is scaled through the
/// roofline model for its share of the data (per-node transfer overhead and
/// the unchanged network time shrink the speedup as nodes grow — the
/// paper's observed pattern).
fn render_table1(harness: &Harness, size: SizeClass, grid: &ReportGrid) -> Result<Figure> {
    let co = Coprocessor::phi_on_e5();
    let scidb = engines::SciDb::new();
    let data = harness.dataset(size)?;
    let params = harness.params(size)?;
    let mut cols = vec![("benchmark".to_string(), Align::Left)];
    for &nodes in &harness.config().node_counts {
        cols.push((
            format!("{nodes} node{}", if nodes == 1 { "" } else { "s" }),
            Align::Right,
        ));
    }
    let mut table = table_with_columns(&cols);
    for query in TABLE1_QUERIES {
        let mut row = vec![query.title().to_string()];
        for &nodes in &harness.config().node_counts {
            let key = cell(FigureId::Table1, query, size, nodes, &scidb);
            let Some(phases) = lookup(grid, &key)?.phases() else {
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
        title: format!(
            "Table 1: Analytics speedup of the Xeon Phi system vs the Xeon system ({})",
            size.label()
        ),
        tables: vec![("SciDB + ScaLAPACK".into(), table)],
    })
}

/// Plan one exhibit, run it serially (one cell at a time, full thread
/// budget each — the classic path), and render.
fn run_serial_and_render(
    harness: &Harness,
    figure: FigureId,
    mn_size: SizeClass,
) -> Result<Figure> {
    let cells = plan(figure, harness.config(), mn_size);
    let grid = run_cells_serial(harness, &engines::all_engines(), &cells)?;
    render(figure, harness, mn_size, &grid)
}

/// Figure 1 via the serial path (see [`render`] for the grid-based form).
pub fn figure1(harness: &Harness) -> Result<Figure> {
    run_serial_and_render(harness, FigureId::Fig1, SizeClass::Small)
}

/// Figure 2 via the serial path.
pub fn figure2(harness: &Harness) -> Result<Figure> {
    run_serial_and_render(harness, FigureId::Fig2, SizeClass::Small)
}

/// Figure 3 via the serial path, on the `size` dataset.
pub fn figure3(harness: &Harness, size: SizeClass) -> Result<Figure> {
    run_serial_and_render(harness, FigureId::Fig3, size)
}

/// Figure 4 via the serial path, on the `size` dataset.
pub fn figure4(harness: &Harness, size: SizeClass) -> Result<Figure> {
    run_serial_and_render(harness, FigureId::Fig4, size)
}

/// Figure 5 via the serial path.
pub fn figure5(harness: &Harness) -> Result<Figure> {
    run_serial_and_render(harness, FigureId::Fig5, SizeClass::Small)
}

/// Table 1 via the serial path, on the `size` dataset.
pub fn table1(harness: &Harness, size: SizeClass) -> Result<Figure> {
    run_serial_and_render(harness, FigureId::Table1, size)
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
            "Explain: per-operator plan cost, {} dataset, {nodes} node{}",
            size.label(),
            if nodes == 1 { "" } else { "s" }
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
    use crate::plan::OpKind;
    const KINDS: [OpKind; 7] = [
        OpKind::Filter,
        OpKind::Join,
        OpKind::Restructure,
        OpKind::Export,
        OpKind::GroupAgg,
        OpKind::Marshal,
        OpKind::Analytics,
    ];
    let (engines, title) = match figure {
        FigureId::Fig2 => (
            engines::single_node_engines(),
            "Figure 2 (per-op): regression cost by physical operator".to_string(),
        ),
        FigureId::Fig4 => (
            engines::multi_node_engines(),
            format!(
                "Figure 4 (per-op): multi-node regression cost by physical operator, {} dataset",
                mn_size.label()
            ),
        ),
        other => {
            return Err(Error::invalid(format!(
                "--per-op renders fig2 or fig4, not {}",
                other.name()
            )))
        }
    };
    let mut cols = vec![("op".to_string(), Align::Left)];
    cols.extend(engines.iter().map(|e| (e.name().to_string(), Align::Right)));
    let mut tables = Vec::new();
    let row_keys: Vec<(SizeClass, usize, String)> = match figure {
        FigureId::Fig2 => harness
            .config()
            .sizes
            .iter()
            .map(|&s| (s, 1, format!("{} dataset", s.label())))
            .collect(),
        _ => harness
            .config()
            .node_counts
            .iter()
            .map(|&n| {
                (
                    mn_size,
                    n,
                    format!("{n} node{}", if n == 1 { "" } else { "s" }),
                )
            })
            .collect(),
    };
    for (size, nodes, caption) in row_keys {
        let mut time_table = table_with_columns(&cols);
        let mut bytes_table = table_with_columns(&cols);
        for kind in KINDS {
            let mut time_row = vec![kind.name().to_string()];
            let mut bytes_row = vec![kind.name().to_string()];
            for engine in &engines {
                let key = cell(figure, Query::Regression, size, nodes, engine.as_ref());
                match lookup(grid, &key)? {
                    CellOutcome::Completed { trace, .. } => {
                        let ops = trace.iter().filter(|op| op.kind == kind);
                        let (mut secs, mut bytes) = (0.0f64, 0u64);
                        for op in ops {
                            secs += op.cost.total_secs();
                            bytes += op.cost.bytes_moved();
                        }
                        time_row.push(fmt_secs(secs));
                        bytes_row.push(genbase_util::fmt_bytes(bytes));
                    }
                    CellOutcome::Infinite { .. } => {
                        time_row.push("inf".into());
                        bytes_row.push("inf".into());
                    }
                    CellOutcome::Unsupported => {
                        time_row.push("-".into());
                        bytes_row.push("-".into());
                    }
                }
            }
            time_table.row(time_row);
            bytes_table.row(bytes_row);
        }
        tables.push((format!("{caption}: seconds per operator class"), time_table));
        tables.push((
            format!("{caption}: storage-layer bytes moved per operator class"),
            bytes_table,
        ));
    }
    Ok(Figure { title, tables })
}

/// Weak-scaling experiment — the paper's stated future work ("in reality,
/// the genomics data should scale in size with the number of nodes in the
/// cluster (weak scaling). We intend to run our benchmarks on larger scale
/// clusters using weak scaling"). Each node count runs against a dataset
/// whose patient dimension grows proportionally, so per-node data stays
/// constant; an ideal system would hold total time flat.
pub fn weak_scaling(
    base_genes: usize,
    base_patients: usize,
    node_counts: &[usize],
    query: Query,
) -> Result<Figure> {
    use genbase_datagen::{generate, GeneratorConfig, SizeSpec};
    let engines = engines::multi_node_engines();
    let cols = node_columns(&engines);
    let mut table = table_with_columns(&cols);
    for &nodes in node_counts {
        let spec = SizeSpec::custom(base_genes, base_patients * nodes, (base_genes / 12).max(8));
        let data = generate(&GeneratorConfig::new(spec))?;
        let params = crate::query::QueryParams::for_dataset(&data);
        let ctx = crate::engine::ExecContext::multi_node(nodes);
        let mut row = vec![format!(
            "{nodes} ({}x{} total)",
            base_genes,
            base_patients * nodes
        )];
        for engine in &engines {
            if !engine.supports(query) {
                row.push("-".into());
                continue;
            }
            match engine.run(query, &data, &params, &ctx) {
                Ok(report) => row.push(fmt_secs(report.phases.total_secs())),
                Err(e) if e.is_infinite_result() => row.push("inf".into()),
                Err(e) => return Err(e),
            }
        }
        table.row(row);
    }
    Ok(Figure {
        title: format!(
            "Weak scaling (paper future work): {} query, {base_patients} patients/node",
            query.title()
        ),
        tables: vec![("constant per-node data".into(), table)],
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::harness::HarnessConfig;
    use std::time::Duration;

    fn micro_harness() -> Harness {
        let cfg = HarnessConfig {
            scale: 0.012,
            sizes: vec![SizeClass::Small],
            cutoff: Duration::from_secs(60),
            r_mem_bytes: u64::MAX,
            node_counts: vec![1, 2],
            ..HarnessConfig::quick()
        };
        Harness::new(cfg).unwrap()
    }

    #[test]
    fn figure5_and_table1_render() {
        let h = micro_harness();
        let f5 = figure5(&h).unwrap();
        assert_eq!(f5.tables.len(), 4);
        let rendered = f5.render();
        assert!(rendered.contains("SciDB + Xeon Phi"));
        let t1 = table1(&h, SizeClass::Small).unwrap();
        let rendered = t1.render();
        assert!(rendered.contains("Covariance"));
        assert!(rendered.contains("Biclustering"));
    }

    #[test]
    fn weak_scaling_renders() {
        let fig = weak_scaling(48, 40, &[1, 2], Query::Regression).unwrap();
        let rendered = fig.render();
        assert!(rendered.contains("Weak scaling"));
        assert!(rendered.contains("pbdR"));
    }

    #[test]
    fn figure2_renders_both_phases() {
        let h = micro_harness();
        let f2 = figure2(&h).unwrap();
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
