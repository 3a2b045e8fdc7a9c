//! The layer ladder of the traced run: each layer's public functions are
//! called directly on the workloads' own data and timed from outside.
//!
//! Inputs are what the cell workloads feed those layers: the Medium
//! dataset's 691 200 triples and its regression join, the Large dataset's
//! regression and covariance matrices. Every row is the median of at least
//! five repetitions, each sized to at least 10 ms (three repetitions when
//! one call already takes a quarter of a second, two when it takes one).

use crate::cells::{self, Rig};
use crate::report::{Metric, Params};
use crate::serve::{self, FramedClient, Server};
use crate::spec;
use crate::stats::median;
use genbase::coord::{run_worker, CoordOptions, Coordinator};
use genbase::harness::{Harness, HarnessConfig};
use genbase::{engines, figures, Engine, FigureId, Query, QueryParams, ReportGrid, RunOutcome};
use genbase::{Scheduler, SweepOptions};
use genbase_array::Array2D;
use genbase_datagen::{generate, Dataset, GeneratorConfig, SizeClass, SizeSpec};
use genbase_linalg::{covariance, gram, lanczos_topk, matmul, ExecOpts, GramOp};
use genbase_linalg::{LinearRegression, Matrix, RegressionMethod};
use genbase_mapreduce::hive::{Cell, HiveTable};
use genbase_mapreduce::job::JobConfig;
use genbase_relational::{export_csv, import_matrix_csv, ColumnData, ColumnTable};
use genbase_relational::{DataType, RowTable, Schema, Value};
use genbase_storage::{self as storage, ArtifactCache, BatchReel, CacheValue, Lookup};
use genbase_storage::{MemTracker, SelVec};
use genbase_util::{Budget, Json};
use std::collections::{HashMap, HashSet};
use std::fmt::Display;
use std::hint::black_box;
use std::time::{Duration, Instant};

/// Shorthand: library errors become the benchmark's `String` errors.
trait OrString<T> {
    fn s(self) -> Result<T, String>;
}

impl<T, E: Display> OrString<T> for Result<T, E> {
    fn s(self) -> Result<T, String> {
        self.map_err(|e| e.to_string())
    }
}

/// Collects the ladder's metrics.
struct Ladder<'a> {
    p: &'a Params,
    out: Vec<Metric>,
}

impl Ladder<'_> {
    /// Time `f` under the protocol's repetition rule and record the median
    /// per call in the metric's own unit. Returns the last call's result,
    /// which feeds the next rung.
    fn time<T>(
        &mut self,
        name: &str,
        mut f: impl FnMut() -> Result<T, String>,
    ) -> Result<T, String> {
        let start = Instant::now();
        let mut last = f()?;
        let first = start.elapsed().as_secs_f64();
        let inner = if first >= 0.010 {
            1
        } else {
            ((0.010 / first.max(1e-9)).ceil() as usize).min(1_000_000)
        };
        let reps = match first {
            _ if self.p.quick => 1,
            t if t >= 1.0 => 2,
            t if t >= 0.25 => 3,
            _ => 5,
        };
        // A call that fills a repetition on its own is a sample already.
        let mut per_call = if inner == 1 { vec![first] } else { Vec::new() };
        while per_call.len() < reps {
            let start = Instant::now();
            for _ in 0..inner {
                last = black_box(f()?);
            }
            per_call.push(start.elapsed().as_secs_f64() / inner as f64);
        }
        self.record_secs(name, &per_call);
        Ok(last)
    }

    /// Record already-measured seconds under `name`, in its unit.
    fn record_secs(&mut self, name: &str, secs: &[f64]) {
        let scale = match spec::per_layer_unit(name) {
            "s" => 1.0,
            "ms" => 1e3,
            "us" => 1e6,
            unit => panic!("{name}: {unit} is not a time unit"),
        };
        self.out
            .push(Metric::per_layer(name, median(secs) * scale, secs.len()));
    }
}

fn triple_schema() -> Schema {
    Schema::new(&[
        ("gene_id", DataType::Int),
        ("patient_id", DataType::Int),
        ("value", DataType::Float),
    ])
    .expect("static schema")
}

fn key_schema() -> Schema {
    Schema::new(&[("gene_id", DataType::Int)]).expect("static schema")
}

/// The microarray as column vectors in base order (patient-major), the
/// order both SQL stores ingest in.
fn triple_columns(data: &Dataset) -> Vec<ColumnData> {
    let n = data.n_patients() * data.n_genes();
    let (mut genes, mut patients, mut values) = (
        Vec::with_capacity(n),
        Vec::with_capacity(n),
        Vec::with_capacity(n),
    );
    for p in 0..data.n_patients() {
        for (g, &v) in data.expression.row(p).iter().enumerate() {
            genes.push(g as i64);
            patients.push(p as i64);
            values.push(v);
        }
    }
    vec![
        ColumnData::Ints(genes),
        ColumnData::Ints(patients),
        ColumnData::Floats(values),
    ]
}

/// Indices of the genes the regression / SVD filter keeps.
fn filtered_genes(data: &Dataset, params: &QueryParams) -> Vec<usize> {
    (0..data.n_genes())
        .filter(|&g| data.genes[g].function < params.function_threshold)
        .collect()
}

/// The regression cell's selection at Medium, as the ids the SQL engines
/// join and pivot on.
struct Ids {
    genes: Vec<i64>,
    patients: Vec<i64>,
}

/// Run the ladder: every per-layer metric that is not the traced
/// workload's own. Nothing here depends on the workload.
pub fn run(p: &Params) -> Result<Vec<Metric>, String> {
    let mut l = Ladder { p, out: Vec::new() };
    let (medium, large) = if p.quick {
        (SizeClass::Small, SizeClass::Small)
    } else {
        (SizeClass::Medium, SizeClass::Large)
    };
    let gen = |class| {
        let size = SizeSpec::scaled(class, HarnessConfig::default().scale);
        generate(&GeneratorConfig::new(size).with_seed(spec::DATA_SEED)).s()
    };
    let dm = l.time("datagen.generate_medium_ms", || gen(medium))?;
    let dl = l.time("datagen.generate_large_ms", || gen(large))?;
    let ids = Ids {
        genes: filtered_genes(&dm, &QueryParams::for_dataset(&dm))
            .iter()
            .map(|&g| g as i64)
            .collect(),
        patients: (0..dm.n_patients() as i64).collect(),
    };

    let (row_joined, cols) = relational_rungs(&mut l, &dm, &ids)?;
    let dense = convert_rungs(&mut l, row_joined, &ids)?;
    stream_rungs(&mut l, cols, &ids)?;
    dense_artifact_rungs(&mut l, &dense)?;
    mapreduce_rungs(&mut l, &dm)?;
    drop((dm, dense));
    let cov_input = array_rungs(&mut l, &dl)?;
    kernel_rungs(&mut l, &dl, &cov_input)?;
    drop((dl, cov_input));
    core_rungs(&mut l, medium)?;
    sweep_rungs(&mut l)?;
    serve_rungs(&mut l)?;
    Ok(l.out)
}

/// `relational`: ingest, join, aggregate and the CSV bridge on the Medium
/// triples. Returns the row store's projected regression join and the
/// column store's base table for the rungs above.
fn relational_rungs(
    l: &mut Ladder<'_>,
    dm: &Dataset,
    ids: &Ids,
) -> Result<(RowTable, ColumnTable), String> {
    let budget = Budget::unlimited();
    let rows = l.time("relational.row_ingest_ms", || {
        RowTable::from_rows(
            triple_schema(),
            (0..dm.n_patients()).flat_map(|pt| {
                dm.expression
                    .row(pt)
                    .iter()
                    .enumerate()
                    .map(move |(g, &v)| {
                        vec![Value::Int(g as i64), Value::Int(pt as i64), Value::Float(v)]
                    })
            }),
        )
        .s()
    })?;
    let cols = l.time("relational.col_ingest_ms", || {
        ColumnTable::from_columns(triple_schema(), triple_columns(dm)).s()
    })?;
    let row_build =
        RowTable::from_rows(key_schema(), ids.genes.iter().map(|&g| vec![Value::Int(g)])).s()?;
    let col_build =
        ColumnTable::from_columns(key_schema(), vec![ColumnData::Ints(ids.genes.clone())]).s()?;
    let row_joined = l
        .time("relational.row_hash_join_ms", || {
            rows.hash_join(0, &row_build, 0, &budget).s()
        })?
        .project(&[0, 1, 2], &budget)
        .s()?;
    let col_joined = l
        .time("relational.col_hash_join_ms", || {
            cols.hash_join(0, &col_build, 0, &budget).s()
        })?
        .project(&[0, 1, 2])
        .s()?;
    l.time("relational.group_sum_ms", || cols.group_sum(0, 2).s())?;
    let csv = l.time("relational.export_csv_ms", || {
        export_csv(&col_joined, &budget).s()
    })?;
    l.time("relational.import_csv_ms", || {
        import_matrix_csv(&csv, &budget).s()
    })?;
    Ok((row_joined, cols))
}

/// `storage::convert` on the regression join: row→column, pivot, back to
/// triples, and the export bridge. Returns the pivoted 960×204 matrix.
fn convert_rungs(l: &mut Ladder<'_>, row_joined: RowTable, ids: &Ids) -> Result<Matrix, String> {
    let (budget, mem) = (Budget::unlimited(), MemTracker::new(None));
    let set = l.time("storage.convert.columnar_from_relation_ms", || {
        storage::columnar_from_relation(&mem, &row_joined).s()
    })?;
    let dense = l.time("storage.convert.pivot_dense_ms", || {
        let (rows, cols) = (&ids.patients, &ids.genes);
        storage::pivot_dense(&set.view(), (1, 0, 2), rows, cols, 1, &mem, &budget).s()
    })?;
    l.time("storage.convert.triples_from_dense_ms", || {
        storage::triples_from_dense(&mem, &dense, triple_schema()).s()
    })?;
    let text = l.time("storage.convert.export_csv_ms", || {
        storage::export_csv_tracked(&set, &mem, &budget).s()
    })?;
    l.time("storage.convert.pivot_csv_ms", || {
        storage::pivot_csv_tracked(&text, &ids.patients, &ids.genes, &mem, &budget).s()
    })?;
    Ok(dense)
}

/// `storage::stream` and `storage::pipeline` on the Medium triples: reels
/// without and with `sql_stream`'s 4 MiB resident cap, and the fused scan
/// over the spilled one.
fn stream_rungs(l: &mut Ladder<'_>, cols: ColumnTable, ids: &Ids) -> Result<(), String> {
    let threads = l.p.host_threads;
    let mem = MemTracker::new(None);
    let table = storage::columnar_from_column_table(&mem, cols).s()?;
    let spill_dir = l.p.out_dir.join("spill");
    std::fs::create_dir_all(&spill_dir).s()?;
    let reel_with_cap = |cap: u64| -> Result<BatchReel, String> {
        let mut reel = BatchReel::new(&mem, triple_schema(), cap, Some(&spill_dir));
        for morsel in storage::carve_view(&mem, &table.view(), cells::STREAM_BATCH_ROWS).s()? {
            reel.push(morsel).s()?;
        }
        Ok(reel)
    };
    let resident = l.time("storage.stream.reel_ingest_ms", || reel_with_cap(u64::MAX))?;
    let spilled = l.time("storage.stream.reel_spill_ms", || {
        reel_with_cap(cells::STREAM_MEM_BUDGET / 4)
    })?;
    for (name, reel) in [
        ("storage.stream.replay_ms", &resident),
        ("storage.stream.replay_spilled_ms", &spilled),
    ] {
        l.time(name, || {
            let mut rows = 0usize;
            reel.replay(|m| {
                rows += m.n_rows();
                Ok(())
            })
            .s()?;
            Ok(rows)
        })?;
    }
    drop(resident);
    let wanted: HashSet<i64> = ids.genes.iter().copied().collect();
    let probe = |m: &storage::Morsel| {
        let genes = m.int_col(0).expect("gene column");
        SelVec::from_predicate(m.n_rows(), |i| wanted.contains(&genes[i]))
    };
    let index = |ids: &[i64]| -> HashMap<i64, usize> {
        ids.iter().enumerate().map(|(i, &id)| (id, i)).collect()
    };
    let (row_of, col_of) = (index(&ids.patients), index(&ids.genes));
    let width = ids.genes.len();
    l.time("storage.pipeline.fused_scan_ms", || {
        let mut data = vec![0.0; ids.patients.len() * width];
        storage::fused_scan(&spilled, threads, probe, |m, sel| {
            storage::scatter_selected(m, sel, 1, 0, 2, &row_of, &col_of, width, &mut data)
        })
        .s()?;
        Ok(data)
    })?;
    l.time("storage.pipeline.csv_selected_ms", || {
        let mut out = String::new();
        storage::fused_scan(&spilled, threads, probe, |m, sel| {
            storage::csv_selected(m, sel, &mut out);
            Ok(())
        })
        .s()?;
        Ok(out)
    })?;
    Ok(())
}

/// What the pivoted matrix goes through next: the artifact cache
/// (`storage::cache`) and the CSV codec (`util::csv`).
fn dense_artifact_rungs(l: &mut Ladder<'_>, dense: &Matrix) -> Result<(), String> {
    // Room for eight artifacts, so fills also evict.
    let cache = ArtifactCache::new(dense.heap_bytes() * 8);
    let mut key = 0u64;
    l.time("storage.cache.fill_ms", || {
        key += 1;
        match cache.begin(&format!("pivot|{key}")) {
            Lookup::Build(slot) => Ok(slot.fill(CacheValue::Dense(dense.clone())).is_some()),
            Lookup::Hit(..) => Err("fresh key hit the cache".to_string()),
        }
    })?;
    let hot = format!("pivot|{key}");
    l.time("storage.cache.hit_us", || match cache.begin(&hot) {
        Lookup::Hit(value, _pin) => Ok(value.heap_bytes()),
        Lookup::Build(_) => Err("resident key missed the cache".to_string()),
    })?;
    let csv = l.time("util.csv.write_matrix_ms", || {
        let (rows, cols) = dense.shape();
        Ok(genbase_util::csv::write_matrix(dense.data(), rows, cols))
    })?;
    l.time("util.csv.parse_matrix_ms", || {
        genbase_util::csv::parse_matrix(&csv).s()
    })?;
    Ok(())
}

/// `mapreduce`: load the Medium triples as a Hive table, run one MR job.
fn mapreduce_rungs(l: &mut Ladder<'_>, dm: &Dataset) -> Result<(), String> {
    let hive = l.time("mapreduce.hive_load_ms", || {
        let mut rows = Vec::with_capacity(dm.n_patients() * dm.n_genes());
        for pt in 0..dm.n_patients() {
            for (g, &v) in dm.expression.row(pt).iter().enumerate() {
                rows.push(vec![Cell::I(g as i64), Cell::I(pt as i64), Cell::F(v)]);
            }
        }
        Ok(HiveTable::new(rows))
    })?;
    let job = JobConfig::local(l.p.host_threads);
    l.time("mapreduce.run_job_ms", || hive.group_sum(0, 2, &job).s())?;
    Ok(())
}

/// `storage::convert`'s chunked kernels and `array` on the Large matrix,
/// with the covariance cell's selection (patients with the focus disease,
/// every gene). Returns that 602×1440 selection.
fn array_rungs(l: &mut Ladder<'_>, dl: &Dataset) -> Result<Matrix, String> {
    let threads = l.p.host_threads;
    let (budget, mem) = (Budget::unlimited(), MemTracker::new(None));
    let disease = QueryParams::for_dataset(dl).disease_id;
    let sick: Vec<usize> = (0..dl.n_patients())
        .filter(|&pt| dl.patients[pt].disease_id == disease)
        .collect();
    let all_genes: Vec<usize> = (0..dl.n_genes()).collect();
    let chunked = l.time("storage.convert.chunked_from_dense_ms", || {
        storage::chunked_from_dense(&mem, &dl.expression, &budget).s()
    })?;
    let cov_input = l.time("storage.convert.gather_chunked_ms", || {
        storage::gather_chunked(&chunked, &sick, &all_genes, threads, &mem, &budget).s()
    })?;
    let array = l.time("array.from_matrix_ms", || {
        Array2D::from_matrix(&dl.expression, &budget).s()
    })?;
    l.time("array.select_to_matrix_ms", || {
        array
            .select_to_matrix_par(&sick, &all_genes, threads, &budget)
            .s()
    })?;
    l.time("array.column_sums_ms", || {
        array.column_sums_over_rows_par(&sick, threads, &budget).s()
    })?;
    Ok(cov_input)
}

/// The analytics kernels on `array_kernels`' inputs: `linalg` on the Large
/// regression (1920×385) and covariance matrices, `stats`, `bicluster`.
fn kernel_rungs(l: &mut Ladder<'_>, dl: &Dataset, cov_input: &Matrix) -> Result<(), String> {
    let threads = l.p.host_threads;
    let params = QueryParams::for_dataset(dl);
    let x = dl.expression.select_cols(&filtered_genes(dl, &params));
    let y: Vec<f64> = dl.patients.iter().map(|pt| pt.drug_response).collect();
    let xt = x.transpose();
    let (par, serial) = (ExecOpts::with_threads(threads), ExecOpts::with_threads(1));
    l.time("linalg.matmul_ms", || matmul(&xt, &x, &par).s())?;
    l.time("linalg.matmul_1t_ms", || matmul(&xt, &x, &serial).s())?;
    l.time("linalg.gram_ms", || gram(&x, &par).s())?;
    l.time("linalg.covariance_ms", || covariance(cov_input, &par).s())?;
    l.time("linalg.covariance_1t_ms", || {
        covariance(cov_input, &serial).s()
    })?;
    l.time("linalg.qr_fit_ms", || {
        LinearRegression::fit(&x, &y, RegressionMethod::Qr, &par).s()
    })?;
    l.time("linalg.lanczos_topk_ms", || {
        let op = GramOp::new(&x).with_threads(threads);
        lanczos_topk(&op, params.svd_k.min(x.cols()), 0, params.seed, &par).s()
    })?;

    let values = &dl.expression.data()[..(dl.n_genes() * 128).min(dl.expression.len())];
    l.time("stats.average_ranks_ms", || {
        Ok(genbase_stats::average_ranks_par(values, threads))
    })?;
    l.time("stats.average_ranks_1t_ms", || {
        Ok(genbase_stats::average_ranks_par(values, 1))
    })?;
    // One enrichment test: gene scores split by the first GO term.
    let scores = dl.expression.row(0);
    let mask = dl.ontology.term_mask(0);
    let group = |inside: bool| -> Vec<f64> {
        scores
            .iter()
            .zip(&mask)
            .filter(|(_, &member)| member == inside)
            .map(|(&score, _)| score)
            .collect()
    };
    let (inside, outside) = (group(true), group(false));
    l.time("stats.wilcoxon_ms", || {
        genbase_stats::wilcoxon_rank_sum_par(&inside, &outside, threads).s()
    })?;
    let young_men: Vec<usize> = (0..dl.n_patients())
        .filter(|&pt| {
            dl.patients[pt].gender == params.gender && dl.patients[pt].age < params.max_age
        })
        .collect();
    let bicluster_input = dl.expression.select_rows(&young_men);
    l.time("bicluster.find_biclusters_ms", || {
        genbase_bicluster::find_biclusters(&bicluster_input, &params.bicluster, &par).s()
    })?;
    Ok(())
}

/// `core` through `Harness::run_cell`: the artifact cache cold vs warm,
/// the staged streaming path, every Figure 1 engine at Medium, and one
/// two-node cell (`cluster`).
fn core_rungs(l: &mut Ladder<'_>, medium: SizeClass) -> Result<(), String> {
    let p = l.p;
    let sql_mat = cells::workload("sql_mat").expect("sql_mat");
    let cached = Rig::with_cache(
        cells::harness_config(&sql_mat, p, true),
        sql_mat.engines,
        Some(ArtifactCache::new(1 << 30)),
    )?;
    let pass_sum = |rig: &Rig| rig.pass_secs().map(|secs| secs.iter().sum::<f64>());
    let cold = pass_sum(&cached)?;
    l.record_secs("core.cache.cold_pass_s", &[cold]);
    let warm = (0..if p.quick { 1 } else { 3 })
        .map(|_| pass_sum(&cached))
        .collect::<Result<Vec<f64>, String>>()?;
    l.record_secs("core.cache.warm_pass_s", &warm);
    drop(cached);
    let (staged, passes) = staged_pass_s(p)?;
    l.out.push(Metric::per_layer(
        "core.stream.staged_pass_s",
        staged,
        passes,
    ));

    let harness = Harness::new(HarnessConfig {
        sizes: vec![medium],
        seed: spec::DATA_SEED,
        threads: p.host_threads,
        ..HarnessConfig::default()
    })
    .s()?;
    let cell_secs = |engine: &dyn Engine, query: Query, nodes: usize| -> Result<f64, String> {
        let start = Instant::now();
        let record = harness.run_cell(engine, query, medium, nodes).s()?;
        match record.outcome {
            RunOutcome::Completed(_) => Ok(start.elapsed().as_secs_f64()),
            other => Err(format!(
                "{} {query:?} did not complete: {other:?}",
                engine.name()
            )),
        }
    };
    let registry = engines::single_node_engines();
    let engine_reps = if p.quick { 1 } else { 2 };
    for (name, metric) in spec::ENGINES {
        let engine = registry
            .iter()
            .find(|e| e.name() == name)
            .ok_or_else(|| format!("engine {name} is not registered"))?;
        let mut total = 0.0;
        for query in Query::ALL.into_iter().filter(|&q| engine.supports(q)) {
            let reps = (0..engine_reps)
                .map(|_| cell_secs(engine.as_ref(), query, 1))
                .collect::<Result<Vec<f64>, String>>()?;
            total += median(&reps);
        }
        l.out
            .push(Metric::per_layer(metric, total * 1e3, engine_reps));
    }
    let scidb = engines::SciDb::new();
    l.time("cluster.regression_2node_ms", || {
        cell_secs(&scidb, Query::Regression, 2)
    })?;
    Ok(())
}

/// The datagen → figure path at Small (`core::sched`, `figures`, `coord`)
/// and the codecs its artifacts pass through (`util::json`, `frame`,
/// `http`), plus the runtime's dispatch cost.
fn sweep_rungs(l: &mut Ladder<'_>) -> Result<(), String> {
    let threads = l.p.host_threads;
    let small = serve::config(l.p);
    let scheduler = Scheduler::new(small.clone()).s()?;
    let figs = [FigureId::Fig1];
    let sweep = l.time("core.sched.sweep_fig1_ms", || {
        scheduler
            .run_sweep(&figs, SizeClass::Small, &SweepOptions::serial())
            .s()
    })?;
    l.time("core.sched.sweep_fig1_jobs_ms", || {
        let jobs = SweepOptions::serial().with_cells_in_flight(threads);
        scheduler.run_sweep(&figs, SizeClass::Small, &jobs).s()
    })?;
    let grid_text = l.time("core.sched.grid_to_json_ms", || Ok(sweep.grid.to_json()))?;
    l.time("core.sched.grid_from_json_ms", || {
        ReportGrid::from_json(&grid_text).s()
    })?;
    l.time("core.figures.render_ms", || {
        let (harness, grid) = (scheduler.harness(), &sweep.grid);
        figures::render(FigureId::Fig1, harness, SizeClass::Small, grid)
            .map(|fig| fig.render())
            .s()
    })?;
    l.time("core.coord.sweep_fig1_ms", || {
        let coordinator = Coordinator::bind(
            "127.0.0.1:0",
            small.clone(),
            &figs,
            SizeClass::Small,
            CoordOptions::default(),
        )
        .s()?;
        let addr = coordinator.local_addr().s()?;
        let worker_config = small.clone();
        let worker =
            std::thread::spawn(move || run_worker(addr, worker_config, Duration::from_secs(10)));
        let outcome = coordinator.serve();
        let report = worker.join().map_err(|_| "worker panicked".to_string())?;
        report.s()?;
        let outcome = outcome.s()?;
        if outcome.grid != sweep.grid {
            return Err("coordinated sweep differs from the serial sweep".to_string());
        }
        Ok(outcome.executed)
    })?;

    let grid_json = l.time("util.json.parse_ms", || Json::parse(&grid_text).s())?;
    l.time("util.json.render_ms", || Ok(grid_json.render()))?;
    // A `result` frame as the server sends it: the first completed cell.
    let (cell, outcome) = scheduler
        .plan(&figs, SizeClass::Small)
        .iter()
        .find_map(|cell| {
            let outcome = sweep.grid.get(cell).filter(|o| o.trace().is_some())?;
            Some((cell.id(), outcome.to_json()))
        })
        .ok_or("the sweep completed no cell")?;
    let mut reply = Json::obj();
    reply.set("type", Json::from("result"));
    reply.set("cell", Json::from(cell));
    reply.set("outcome", outcome);
    l.time("util.frame.roundtrip_us", || {
        let bytes = genbase_util::encode_frame(&reply).s()?;
        genbase_util::read_frame(&mut &bytes[..]).s()
    })?;
    let body = r#"{"engine": "SciDB", "query": "covariance", "size": "small"}"#;
    let request = format!(
        "POST /query HTTP/1.1\r\nHost: benchmark\r\nContent-Type: application/json\r\nContent-Length: {}\r\n\r\n{body}",
        body.len()
    );
    l.time("util.http.read_request_us", || {
        genbase_util::http::read_request(&mut request.as_bytes())
            .s()?
            .ok_or_else(|| "no request parsed".to_string())
    })?;
    l.time("util.runtime.dispatch_us", || {
        genbase_util::parallel_for(threads, threads, |i| {
            black_box(i);
        });
        Ok(())
    })?;
    Ok(())
}

/// `core::serve`: bind, connection and round-trip costs against a live
/// server, then a short `serve_mix` window for the counter rows (cache hit
/// rate and evictions from `GET /metrics` around it, the drained server's
/// `ServeReport`).
fn serve_rungs(l: &mut Ladder<'_>) -> Result<(), String> {
    let mut binds = Vec::new();
    let mut live = None;
    for _ in 0..if l.p.quick { 1 } else { 3 } {
        drop(live.take());
        let server = Server::start(serve::config(l.p), serve::options())?;
        binds.push(server.bind_ms / 1e3);
        live = Some(server);
    }
    l.record_secs("core.serve.bind_ms", &binds);
    let server = live.expect("at least one bind");
    let mut status = Json::obj();
    status.set("type", Json::from("status"));
    let status = genbase_util::encode_frame(&status).s()?;
    let mut client = l.time("core.serve.framed_connect_us", || {
        FramedClient::connect(server.frame)
    })?;
    l.time("core.serve.framed_rtt_us", || {
        client.exchange(&status).map(|(reply, _)| reply)
    })?;
    drop(client);
    l.time("core.serve.http_status_ms", || match serve::http_exchange(
        server.http,
        "GET",
        "/status",
        "",
    )? {
        (200, body, _) => Ok(body),
        (status, ..) => Err(format!("GET /status answered {status}")),
    })?;
    server.stop()?;

    let window = Duration::from_millis(if l.p.quick { 300 } else { 1500 });
    let probe = serve::probe(l.p, window, None)?;
    if let Some(error) = probe.errors.first() {
        return Err(format!("serve probe: {error}"));
    }
    l.out.extend([
        Metric::per_layer("storage.cache.hit_rate", probe.hit_rate, 1),
        Metric::per_layer("storage.cache.evictions", probe.evictions, 1),
        Metric::per_layer("core.serve.served", probe.served as f64, 1),
        Metric::per_layer("core.serve.rejected", probe.rejected as f64, 1),
    ]);
    Ok(())
}

/// `core.stream.staged_pass_s`: the `sql_stream` cell list through the
/// *staged* streaming path (`fused: false`), as `sql_stream` reports its
/// own `pass_s`: Σ over cells of the cell's fastest run (of three passes
/// here). Isolated because the staged path exists only until ROADMAP item 3
/// decides whether to delete it; this row against `sql_stream`'s `pass_s`
/// is that decision's input.
fn staged_pass_s(p: &Params) -> Result<(f64, usize), String> {
    let sql_stream = cells::workload("sql_stream").expect("sql_stream");
    let staged = Rig::new(
        cells::harness_config(&sql_stream, p, false),
        sql_stream.engines,
    )?;
    let passes = if p.quick { 1 } else { 3 };
    let mut best = vec![f64::INFINITY; staged.cells.len()];
    for _ in 0..passes {
        for (fastest, secs) in best.iter_mut().zip(staged.pass_secs()?) {
            *fastest = fastest.min(secs);
        }
    }
    Ok((best.iter().sum(), passes))
}
