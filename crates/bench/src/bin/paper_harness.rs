//! The full benchmark driver: regenerates every table and figure from the
//! GenBase paper's evaluation section through the cell scheduler.
//!
//! ```text
//! paper_harness [fig1|fig2|fig3|fig4|fig5|table1|weak|all]
//!               [explain [ENGINE] [QUERY]]  per-operator plan cost tables
//!               [coordinate|work|status]  distributed sweep roles (see below)
//!               [serve]          resident benchmark server: framed + HTTP
//!                                listeners, /status /metrics /query
//!               [query ENGINE QUERY]  submit one query to a running server
//!                                over the framed protocol
//!               [--scale F]      per-side scale vs paper sizes (default 0.048)
//!               [--sizes LIST]   size classes, e.g. small,medium (default all)
//!               [--cutoff SECS]  per-run cutoff (default 60)
//!               [--mn-size S]    multi-node dataset: small|medium|large (default medium)
//!               [--threads N]    simulated machine size / kernel budget
//!                                (default: host threads; pin it for
//!                                cross-machine coordinate/work runs)
//!               [--jobs K]       benchmark cells in flight (default: host
//!                                threads); for `work`: leased cells the
//!                                worker multiplexes (default 1)
//!               [--nodes N]      explain/query: simulated cluster size
//!                                (default 1; must be at least 1)
//!               [--json]         explain: machine-readable per-op output
//!                                (genbase-explain-v1, includes the memory
//!                                columns)
//!               [--per-op]       fig2/fig4: stacked per-operator breakdown
//!                                (seconds + storage-layer bytes moved per
//!                                operator class) instead of the phase split
//!               [--mem-budget BYTES]  per-cell storage-layer working-set
//!                                budget; exhaustion renders as an
//!                                "infinite" cell, like a cutoff
//!               [--stream]       morsel-driven streaming execution: SQL
//!                                engines pull fixed-row batches through
//!                                one probe+sink pass per morsel (selection
//!                                vectors, deferred joins) instead of
//!                                materializing intermediates (output is
//!                                byte-identical; peak_alloc/batches/spill
//!                                in the trace change); over-budget
//!                                streaming cells spill to disk and
//!                                complete instead of going infinite
//!               [--batch-rows N] rows per streaming morsel (default 1024;
//!                                must be at least 1)
//!               [--spill-dir P]  directory for streaming spill files
//!                                (default: system temp)
//!               [--auth-token T] coordinate/work: shared handshake token
//!                                (falls back to GENBASE_COORD_TOKEN)
//!               [--lease-timeout SECS]  coordinate: revoke and re-issue a
//!                                cell leased longer than this (default:
//!                                off, EOF-only death detection)
//!               [--rebalance-after SECS]  coordinate: once idle workers
//!                                outnumber pending cells, steal the
//!                                longest lease older than this and hand
//!                                it to an idle worker (default: off)
//!               [--faults SPEC]  install a fault-injection plan (same
//!                                grammar as GENBASE_FAULTS, overrides it):
//!                                site@N=action[;...], actions err:<kind>/
//!                                delay:<ms>/torn:<bytes>/abort
//!               [--checkpoint P] resume file: completed cells skip on rerun
//!                                (a complete one renders without running)
//!               [--grid-out P]   write the result grid as JSON
//!               [--sim-only]     deterministic timing (simulated costs only)
//!               [--listen ADDR]  coordinate/serve: framed bind address
//!                                (default 127.0.0.1:7717)
//!               [--listen-http ADDR]  serve: HTTP bind address
//!                                (default 127.0.0.1:7718)
//!               [--queue-depth N]  serve: bounded admission queue — how
//!                                many over-budget requests may wait for
//!                                memory before rejection (default 16)
//!               [--connect ADDR] work/query/status: server address
//!                                (default 127.0.0.1:7717)
//!               [--connect-window SECS]  work: retry window while the
//!                                coordinator starts (default 30)
//!               [--figures LIST] coordinate: exhibits to sweep, e.g.
//!                                fig1,table1 (default all)
//!               [--cache-budget BYTES]  serve: artifact-cache budget —
//!                                the SQL stores' materializing triple
//!                                joins memoize their output columns
//!                                under LRU eviction, charged against a
//!                                dedicated tracker (never a run's
//!                                --mem-budget)
//! ```
//!
//! A flag is accepted only by the subcommands that read it (the
//! `FLAG_READERS` table below — the `coordinate:` / `serve:` / `work:`
//! prefixes above, as data); given to any other it is a usage error, exit 2.
//!
//! `coordinate` runs the sweep across worker *processes* instead of
//! in-process jobs: it listens on `--listen`, leases one cell at a time to
//! every `work` process that connects (handshake-checked against this
//! process's config fingerprint), streams outcomes back over the socket,
//! re-leases cells whose worker died, and renders the figures when the
//! grid is complete — no shared filesystem required. `work --connect HOST:PORT`
//! must be started with the same configuration flags as the coordinator.
//! Workers are elastic: SIGTERM makes a worker finish in-flight sends,
//! hand back any lease with `leave` (uncharged against the re-issue cap),
//! and exit; a worker that loses its connection reconnects with backoff
//! and re-submits its finished result instead of recomputing. `status
//! --connect HOST:PORT` polls a serving coordinator for a live snapshot
//! (pending/leased/done cells, per-worker throughput, re-issue counts) as
//! a table, or as JSON with `--json`; it authenticates like a worker but
//! needs no configuration flags.
//!
//! At the default scale the size ladder is Small 240x240, Medium 720x960,
//! Large 1440x1920 (paper ÷ ~20.8 per side), and the cutoff plays the role
//! of the paper's two-hour window. Pass `--scale 1.0` for paper-size runs
//! (hours of compute and ~10 GB matrices).
//!
//! Sweeps run cell-by-cell on the shared runtime pool: `--jobs` cells in
//! flight, each under `threads / jobs` kernel threads. Output is
//! byte-identical to the serial path for any `--jobs`; with `--sim-only`
//! it is byte-identical across runs and machines too — that is what the CI
//! `goldens` and `coord-sweep` jobs diff. To spread one sweep across
//! machines, run `coordinate` and `work`; to re-render a finished sweep,
//! pass its grid as `--checkpoint` (a complete checkpoint runs no cells).
//!
//! `explain` runs engine × query pairs once each and prints one table per
//! pair with a row per executed physical operator (filter, join,
//! restructure, export, group-agg, marshal, analytics) and its cost — the
//! plan-IR decomposition behind the Figure 2/4 phase split, which is
//! exactly the sum of each pair's trace rows. Positional arguments narrow
//! the matrix: `explain "SciDB" svd` (quote engine names containing
//! spaces). With `--sim-only --threads N` the output is deterministic
//! across machines — the CI `explain-golden` step diffs it against a
//! committed snapshot.
//!
//! `serve` keeps the dataset pool, compiled plans and engine registry
//! resident and answers query/explain/status requests from concurrent
//! clients: the framed `genbase-coord-v1` protocol on `--listen` and HTTP
//! (`GET /status`, `GET /metrics`, `POST /query`) on `--listen-http`. In
//! serve mode `--mem-budget` is the *admission* budget: a request whose
//! working-set estimate does not fit waits in a `--queue-depth`-bounded
//! queue and overflow is rejected cleanly (HTTP 429 / a `busy` frame)
//! instead of OOMing. SIGTERM drains in-flight queries before exit.
//! `query ENGINE QUERY --connect HOST:PORT` submits one request over the
//! framed protocol and prints the reply JSON — byte-identical under
//! `--sim-only` to the same cell of a batch sweep grid.

use genbase::figures;
use genbase::harness::{Harness, HarnessConfig, TimingMode};
use genbase::sched::{FigureId, ReportGrid, Scheduler, SweepOptions};
use genbase_datagen::SizeClass;
use genbase_util::{Error, Result};
use std::time::Duration;

struct Args {
    what: String,
    scale: f64,
    sizes: Option<Vec<SizeClass>>,
    cutoff_secs: u64,
    mn_size: SizeClass,
    threads: usize,
    jobs: usize,
    checkpoint: Option<String>,
    grid_out: Option<String>,
    sim_only: bool,
    listen: String,
    listen_http: String,
    queue_depth: usize,
    connect: String,
    connect_window_secs: u64,
    figures: Option<Vec<FigureId>>,
    cache_budget: Option<u64>,
    nodes: usize,
    lease_timeout_secs: u64,
    rebalance_after_secs: u64,
    faults: Option<String>,
    mem_budget: Option<u64>,
    stream: bool,
    batch_rows: usize,
    spill_dir: Option<String>,
    auth_token: Option<String>,
    json: bool,
    per_op: bool,
    positionals: Vec<String>,
    /// Every flag given, in order, for [`check_flags`].
    flags: Vec<String>,
}

/// A malformed command line: printed to stderr, exit code 2. The message
/// always names the offending flag.
struct UsageError(String);

impl std::fmt::Display for UsageError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}", self.0)
    }
}

fn parse_args(argv: &[String]) -> std::result::Result<Args, UsageError> {
    let mut args = Args {
        what: "all".to_string(),
        scale: 0.048,
        sizes: None,
        cutoff_secs: 60,
        mn_size: SizeClass::Medium,
        threads: 0,
        jobs: 0,
        checkpoint: None,
        grid_out: None,
        sim_only: false,
        listen: "127.0.0.1:7717".to_string(),
        listen_http: "127.0.0.1:7718".to_string(),
        queue_depth: 16,
        connect: "127.0.0.1:7717".to_string(),
        connect_window_secs: 30,
        figures: None,
        cache_budget: None,
        nodes: 1,
        lease_timeout_secs: 0,
        rebalance_after_secs: 0,
        faults: None,
        mem_budget: None,
        stream: false,
        batch_rows: 0,
        spill_dir: None,
        auth_token: std::env::var("GENBASE_COORD_TOKEN").ok(),
        json: false,
        per_op: false,
        positionals: Vec::new(),
        flags: Vec::new(),
    };
    // The raw string value following a flag; a flag at the end of the
    // command line is a usage error naming that flag.
    let value = |i: &mut usize, flag: &str| -> std::result::Result<String, UsageError> {
        *i += 1;
        argv.get(*i)
            .cloned()
            .ok_or_else(|| UsageError(format!("{flag} needs a value")))
    };
    // A parsed value; a malformed one is a usage error naming the flag and
    // what it wanted (`--scale takes a float, got "abc"`).
    macro_rules! parsed {
        ($i:expr, $flag:expr, $wants:expr) => {{
            let raw = value($i, $flag)?;
            raw.parse()
                .map_err(|_| UsageError(format!("{} takes {}, got {raw:?}", $flag, $wants)))?
        }};
    }
    let mut i = 0;
    while i < argv.len() {
        if argv[i].starts_with("--") {
            args.flags.push(argv[i].clone());
        }
        match argv[i].as_str() {
            "--scale" => args.scale = parsed!(&mut i, "--scale", "a float"),
            "--sizes" => {
                let raw = value(&mut i, "--sizes")?;
                let mut sizes = Vec::new();
                for s in raw.split(',') {
                    sizes.push(SizeClass::from_slug(s.trim()).ok_or_else(|| {
                        UsageError(format!(
                            "--sizes: unknown size {:?} (want small/medium/large)",
                            s.trim()
                        ))
                    })?);
                }
                args.sizes = Some(sizes);
            }
            "--cutoff" => args.cutoff_secs = parsed!(&mut i, "--cutoff", "seconds"),
            "--mn-size" => {
                let raw = value(&mut i, "--mn-size")?;
                args.mn_size = SizeClass::from_slug(&raw).ok_or_else(|| {
                    UsageError(format!(
                        "--mn-size: unknown size {raw:?} (want small/medium/large)"
                    ))
                })?;
            }
            "--threads" => args.threads = parsed!(&mut i, "--threads", "an integer"),
            "--jobs" => args.jobs = parsed!(&mut i, "--jobs", "an integer"),
            "--checkpoint" => args.checkpoint = Some(value(&mut i, "--checkpoint")?),
            "--grid-out" => args.grid_out = Some(value(&mut i, "--grid-out")?),
            "--sim-only" => args.sim_only = true,
            "--listen" => args.listen = value(&mut i, "--listen")?,
            "--listen-http" => args.listen_http = value(&mut i, "--listen-http")?,
            "--queue-depth" => args.queue_depth = parsed!(&mut i, "--queue-depth", "an integer"),
            "--connect" => args.connect = value(&mut i, "--connect")?,
            "--connect-window" => {
                args.connect_window_secs = parsed!(&mut i, "--connect-window", "seconds")
            }
            "--figures" => {
                let raw = value(&mut i, "--figures")?;
                let mut figures = Vec::new();
                for s in raw.split(',') {
                    figures.push(FigureId::from_name(s.trim()).ok_or_else(|| {
                        UsageError(format!("--figures: unknown figure {:?}", s.trim()))
                    })?);
                }
                args.figures = Some(figures);
            }
            "--cache-budget" => {
                args.cache_budget = Some(parsed!(&mut i, "--cache-budget", "bytes"))
            }
            "--nodes" => {
                args.nodes = parsed!(&mut i, "--nodes", "an integer");
                if args.nodes == 0 {
                    return Err(UsageError("--nodes must be at least 1".into()));
                }
            }
            "--lease-timeout" => {
                args.lease_timeout_secs = parsed!(&mut i, "--lease-timeout", "seconds")
            }
            "--rebalance-after" => {
                args.rebalance_after_secs = parsed!(&mut i, "--rebalance-after", "seconds")
            }
            "--faults" => {
                let raw = value(&mut i, "--faults")?;
                // Validate the plan grammar here so a typo exits 2 with
                // the flag named, before any side effects.
                genbase_util::faults::FaultPlan::parse(&raw)
                    .map_err(|e| UsageError(format!("--faults: {e}")))?;
                args.faults = Some(raw);
            }
            "--mem-budget" => args.mem_budget = Some(parsed!(&mut i, "--mem-budget", "bytes")),
            "--stream" => args.stream = true,
            "--batch-rows" => {
                args.batch_rows = parsed!(&mut i, "--batch-rows", "rows");
                // 0 used to silently degrade to 1-row batches; reject it
                // loudly at parse time instead.
                if args.batch_rows == 0 {
                    return Err(UsageError("--batch-rows must be at least 1".into()));
                }
            }
            "--spill-dir" => args.spill_dir = Some(value(&mut i, "--spill-dir")?),
            "--auth-token" => args.auth_token = Some(value(&mut i, "--auth-token")?),
            "--json" => args.json = true,
            "--per-op" => args.per_op = true,
            what => {
                // A mistyped flag must not be silently swallowed as a
                // subcommand argument (or the run proceeds with defaults).
                if what.starts_with("--") {
                    return Err(UsageError(format!("unknown flag {what:?}")));
                }
                if args.what == "all" {
                    args.what = what.to_string();
                } else if args.what == "explain" || args.what == "query" {
                    // Subcommand arguments: `explain|query <engine> <query>`.
                    args.positionals.push(what.to_string());
                } else {
                    return Err(UsageError(format!(
                        "unexpected argument {what:?} after {:?}",
                        args.what
                    )));
                }
            }
        }
        i += 1;
    }
    Ok(args)
}

/// The figure subcommands: `fig1` … `fig5`, `table1` and `all`.
const FIGS: &str = "figN";

/// Every subcommand that builds a `HarnessConfig` from the dataset, timing
/// and memory flags.
const CONFIGURED: &str = "figN explain coordinate work serve";

/// Which subcommands read each flag (space-separated lists). A flag given
/// to any other subcommand is a usage error, not silently ignored.
const FLAG_READERS: &[(&str, &[&str])] = &[
    ("--scale", &[CONFIGURED, "weak"]),
    ("--sizes", &[CONFIGURED, "query"]),
    ("--cutoff", &[CONFIGURED]),
    ("--threads", &[CONFIGURED]),
    ("--sim-only", &[CONFIGURED]),
    ("--mem-budget", &[CONFIGURED]),
    ("--stream", &[CONFIGURED]),
    ("--batch-rows", &[CONFIGURED]),
    ("--spill-dir", &[CONFIGURED]),
    ("--mn-size", &[FIGS, "coordinate"]),
    ("--per-op", &[FIGS, "coordinate"]),
    ("--checkpoint", &[FIGS, "coordinate"]),
    ("--grid-out", &[FIGS, "coordinate"]),
    ("--jobs", &[FIGS, "work"]),
    ("--nodes", &["explain query"]),
    ("--json", &["explain status"]),
    ("--figures", &["coordinate"]),
    ("--lease-timeout", &["coordinate"]),
    ("--rebalance-after", &["coordinate"]),
    ("--listen", &["coordinate serve"]),
    ("--listen-http", &["serve"]),
    ("--queue-depth", &["serve"]),
    ("--cache-budget", &["serve"]),
    ("--connect", &["work query status"]),
    ("--connect-window", &["work status"]),
    ("--auth-token", &["coordinate work status serve query"]),
    // `weak` and `explain` pass no fault site.
    ("--faults", &[FIGS, "coordinate work status serve query"]),
];

/// The subcommands reading `flag`, per [`FLAG_READERS`].
fn readers(flag: &str) -> impl Iterator<Item = &'static str> {
    let row = FLAG_READERS.iter().find(|(name, _)| *name == flag);
    row.into_iter()
        .flat_map(|(_, lists)| lists.iter().flat_map(|list| list.split(' ')))
}

/// Refuse flags the chosen subcommand does not read. (An unknown subcommand
/// is `run`'s error to report.)
fn check_flags(args: &Args) -> std::result::Result<(), UsageError> {
    let family = match args.what.as_str() {
        "all" => FIGS,
        what if FigureId::from_name(what).is_some() => FIGS,
        what => what,
    };
    let reads = |flag: &str| readers(flag).any(|r| r == family);
    if !FLAG_READERS.iter().any(|(flag, _)| reads(flag)) {
        return Ok(());
    }
    match args.flags.iter().find(|flag| !reads(flag)) {
        Some(flag) => Err(UsageError(format!(
            "{flag} is not read by {} (read by: {})",
            args.what,
            readers(flag).collect::<Vec<_>>().join(", ")
        ))),
        None => Ok(()),
    }
}

fn requested_figures(what: &str) -> Result<Vec<FigureId>> {
    if what == "all" {
        Ok(FigureId::ALL.to_vec())
    } else {
        Ok(vec![FigureId::from_name(what).ok_or_else(|| {
            Error::invalid(format!(
                "unknown command {what:?} (want figN/table1/weak/explain/\
                 coordinate/work/status/serve/query/all)"
            ))
        })?])
    }
}

fn harness_config(args: &Args) -> HarnessConfig {
    let mut config = HarnessConfig {
        scale: args.scale,
        cutoff: Duration::from_secs(args.cutoff_secs),
        r_mem_bytes: (48e9 * args.scale * args.scale) as u64,
        ..Default::default()
    };
    if let Some(sizes) = &args.sizes {
        config.sizes = sizes.clone();
    }
    if args.threads > 0 {
        config.threads = args.threads;
    }
    if args.sim_only {
        config.timing = TimingMode::SimOnly;
    }
    config.mem_budget = args.mem_budget;
    if args.stream || args.batch_rows > 0 || args.spill_dir.is_some() {
        let mut stream = genbase::engine::StreamConfig::default();
        if args.batch_rows > 0 {
            stream.batch_rows = args.batch_rows;
        }
        stream.spill_dir = args.spill_dir.as_ref().map(std::path::PathBuf::from);
        config.stream = Some(stream);
    }
    config
}

fn main() {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&argv).and_then(|args| check_flags(&args).map(|()| args)) {
        Ok(args) => args,
        Err(usage) => {
            // Usage errors get their own exit code (2) so scripts can tell
            // a mistyped command line from a failed run.
            eprintln!("paper_harness: {usage}");
            std::process::exit(2);
        }
    };
    if let Err(e) = run(&args) {
        eprintln!("paper_harness: {e}");
        std::process::exit(1);
    }
}

fn run(args: &Args) -> Result<()> {
    if let Some(spec) = &args.faults {
        // An explicit --faults overrides any GENBASE_FAULTS in the
        // environment (install replaces the plan either way). The spec was
        // validated during argument parsing.
        let plan = genbase_util::faults::FaultPlan::parse(spec)
            .map_err(|e| Error::invalid(format!("--faults: {e}")))?;
        genbase_util::faults::install(plan);
        eprintln!("fault plan installed: {spec}");
    }
    if args.what == "coordinate" {
        return coordinate(args);
    }
    if args.what == "serve" {
        return serve(args);
    }
    if args.what == "query" {
        return query_server(args);
    }
    if args.what == "work" {
        // SIGTERM departs cleanly: the worker hands back its lease with
        // `leave` (uncharged against the re-issue cap) and exits.
        genbase_util::shutdown::install_sigterm_handler();
        let config = harness_config(args);
        let report = genbase::coord::run_worker_with(
            args.connect.as_str(),
            config,
            Duration::from_secs(args.connect_window_secs),
            genbase::coord::WorkerOptions {
                jobs: args.jobs.max(1),
                auth_token: args.auth_token.clone(),
                stop: None,
            },
        )?;
        eprintln!(
            "worker done: {} cells completed, {} failed{}",
            report.completed,
            report.failed,
            if genbase_util::shutdown::requested() {
                " (departed on SIGTERM)"
            } else {
                ""
            }
        );
        return Ok(());
    }
    if args.what == "status" {
        return status(args);
    }
    if args.what == "explain" {
        return explain(args);
    }
    if args.what == "weak" {
        // Paper future work (§5.2): weak scaling — per-node data constant.
        let genes = (5_000.0 * args.scale * 3.0).round() as usize;
        let patients = (5_000.0 * args.scale * 2.0).round() as usize;
        println!(
            "{}",
            figures::weak_scaling(
                genes.max(48),
                patients.max(40),
                &[1, 2, 4],
                genbase::Query::Regression,
            )?
            .render()
        );
        return Ok(());
    }

    let figs = requested_figures(&args.what)?;
    let config = harness_config(args);
    eprintln!(
        "sweeping {} at scale {} (cutoff {}s, simulated R memory {})...",
        figs.iter().map(|f| f.name()).collect::<Vec<_>>().join("+"),
        args.scale,
        args.cutoff_secs,
        genbase_util::fmt_bytes(config.r_mem_bytes),
    );
    let scheduler = Scheduler::new(config)?;
    let mut sweep = SweepOptions::default();
    if args.jobs > 0 {
        sweep = sweep.with_cells_in_flight(args.jobs);
    }
    if let Some(path) = &args.checkpoint {
        sweep = sweep.with_checkpoint(path);
    }
    let outcome = scheduler.run_sweep(&figs, args.mn_size, &sweep)?;
    let summary = format!(
        "sweep: {} cells ({} executed, {} from checkpoint) in {:.2}s",
        outcome.planned, outcome.executed, outcome.skipped, outcome.wall_secs
    );
    let (grid, recovered) = (&outcome.grid, outcome.recovered.as_deref());
    finish_sweep(args, &figs, scheduler.harness(), grid, recovered, &summary)
}

/// The tail every sweep shares, local or coordinated: the checkpoint
/// recovery note and `summary` on stderr, the grid to `--grid-out`, then
/// every exhibit rendered from the grid on stdout.
fn finish_sweep(
    args: &Args,
    figs: &[FigureId],
    harness: &Harness,
    grid: &ReportGrid,
    recovered: Option<&str>,
    summary: &str,
) -> Result<()> {
    if let Some(note) = recovered {
        eprintln!("checkpoint recovery: {note}");
    }
    eprintln!("{summary}");
    if let Some(path) = &args.grid_out {
        grid.save(std::path::Path::new(path))
            .map_err(|e| Error::invalid(format!("write grid {path}: {e}")))?;
        eprintln!("wrote {path}");
    }
    for &fig in figs {
        println!("{}", render_figure(fig, harness, args, grid)?.render());
    }
    Ok(())
}

/// Render one exhibit from a grid, honoring `--per-op` for fig2/fig4.
fn render_figure(
    fig: FigureId,
    harness: &Harness,
    args: &Args,
    grid: &ReportGrid,
) -> Result<figures::Figure> {
    if args.per_op && matches!(fig, FigureId::Fig2 | FigureId::Fig4) {
        figures::render_per_op(fig, harness, args.mn_size, grid)
            .map_err(|e| Error::invalid(format!("render {} --per-op: {e}", fig.name())))
    } else {
        figures::render(fig, harness, args.mn_size, grid)
            .map_err(|e| Error::invalid(format!("render {}: {e}", fig.name())))
    }
}

/// The `serve` subcommand: the resident benchmark server. `--mem-budget`
/// here is the *admission* budget (per-request working-set reservations),
/// not the per-cell tracker budget, so served outcomes stay byte-identical
/// to a batch sweep run without `--mem-budget`.
fn serve(args: &Args) -> Result<()> {
    genbase_util::shutdown::install_sigterm_handler();
    let mut config = harness_config(args);
    config.mem_budget = None;
    let mut options = genbase::ServeOptions {
        auth_token: args.auth_token.clone(),
        queue_depth: args.queue_depth,
        ..Default::default()
    };
    if let Some(budget) = args.mem_budget {
        options = options.with_mem_budget(budget);
    }
    if let Some(budget) = args.cache_budget {
        options = options.with_cache_budget(budget);
    }
    let server = genbase::BenchServer::bind(
        args.listen.as_str(),
        args.listen_http.as_str(),
        config.clone(),
        options,
    )?;
    eprintln!(
        "serving on {} (framed) and {} (http); fingerprint {}",
        server.frame_addr()?,
        server.http_addr()?,
        genbase::sched::config_fingerprint(&config),
    );
    let report = server.serve()?;
    eprintln!(
        "serve drained: {} served, {} failed, {} rejected",
        report.served, report.failed, report.rejected
    );
    Ok(())
}

/// The `query` subcommand: submit one query to a running server over the
/// framed protocol and print the reply JSON.
fn query_server(args: &Args) -> Result<()> {
    use genbase_util::Json;
    let engine = args
        .positionals
        .first()
        .ok_or_else(|| Error::invalid("query needs ENGINE and QUERY, e.g. query SciDB svd"))?;
    let query = args
        .positionals
        .get(1)
        .ok_or_else(|| Error::invalid("query needs ENGINE and QUERY, e.g. query SciDB svd"))?;
    let mut request = Json::obj();
    request.set("type", Json::from("query"));
    request.set("engine", Json::from(engine.as_str()));
    request.set("query", Json::from(query.as_str()));
    if let Some(sizes) = &args.sizes {
        if let Some(size) = sizes.first() {
            request.set("size", Json::from(size.slug()));
        }
    }
    if args.nodes > 1 {
        request.set("nodes", Json::from(args.nodes));
    }
    let reply = genbase::serve::client_request(
        args.connect.as_str(),
        args.auth_token.as_deref(),
        &request,
    )?;
    match reply.get("type").and_then(Json::as_str) {
        Some("result") => {
            println!("{}", reply.render());
            Ok(())
        }
        Some("busy") => Err(Error::invalid(format!(
            "server busy: {}",
            reply
                .get("reason")
                .and_then(Json::as_str)
                .unwrap_or("unspecified")
        ))),
        Some("failed") => Err(Error::invalid(format!(
            "query failed: {}",
            reply
                .get("error")
                .and_then(Json::as_str)
                .unwrap_or("unspecified")
        ))),
        other => Err(Error::invalid(format!("unexpected reply type {other:?}"))),
    }
}

/// The `explain` subcommand: per-operator plan cost tables for engine ×
/// query pairs (all pairs by default; positionals narrow the matrix).
fn explain(args: &Args) -> Result<()> {
    let config = harness_config(args);
    let size = *config
        .sizes
        .first()
        .ok_or_else(|| Error::invalid("--sizes must name at least one size"))?;
    let engine_filter = args.positionals.first().map(String::as_str);
    let query_filter = match args.positionals.get(1) {
        Some(name) => Some(genbase::Query::from_name(name).ok_or_else(|| {
            Error::invalid(format!(
                "unknown query {name:?} (want one of \
                 regression/covariance/biclustering/svd/statistics)"
            ))
        })?),
        None => None,
    };
    let harness = Harness::new(config)?;
    if args.json {
        let json = figures::explain_json(&harness, size, args.nodes, engine_filter, query_filter)?;
        println!("{json}");
        return Ok(());
    }
    let figure = figures::explain(&harness, size, args.nodes, engine_filter, query_filter)?;
    println!("{}", figure.render());
    Ok(())
}

/// The `status` role: poll a serving coordinator or resident server for a
/// live snapshot and print it as a table (or raw JSON with `--json`),
/// headed by the `service` the snapshot names.
fn status(args: &Args) -> Result<()> {
    use genbase_util::Json;
    let snap = genbase::coord::fetch_status(
        args.connect.as_str(),
        args.auth_token.as_deref(),
        Duration::from_secs(args.connect_window_secs),
    )
    .map_err(|e| Error::invalid(format!("status poll @ {}: {e}", args.connect)))?;
    if args.json {
        println!("{}", snap.render());
        return Ok(());
    }
    let count = |key: &str| snap.get(key).and_then(Json::as_u64).unwrap_or(0);
    let service = snap.get("service").and_then(Json::as_str);
    println!("{} @ {}", service.unwrap_or("coordinate"), args.connect);
    println!(
        "  cells    {:>5} planned  {:>5} done  {:>5} pending  {:>5} leased  {:>5} failed",
        count("planned"),
        count("done"),
        count("pending"),
        count("leased"),
        count("failed"),
    );
    if snap.get("rejected").is_some() {
        println!("  rejected {:>5} requests", count("rejected"));
    }
    println!(
        "  history  {:>5} executed  {:>5} restored  {:>5} reissued  {:>5} resumed  \
         {:>5} rebalanced  {:>5} departed",
        count("executed"),
        count("restored"),
        count("reissued"),
        count("resumed"),
        count("rebalanced"),
        count("departed"),
    );
    println!("  workers  {:>5} connections", count("workers"));
    if let Some(leases) = snap.get("leases").and_then(Json::as_arr) {
        if !leases.is_empty() {
            println!("  leases:");
            println!("    {:>8}  {:>10}  cell", "worker", "held");
            for lease in leases {
                println!(
                    "    {:>8}  {:>9.1}s  {}",
                    lease.get("worker").and_then(Json::as_u64).unwrap_or(0),
                    lease.get("held_secs").and_then(Json::as_f64).unwrap_or(0.0),
                    lease.get("cell").and_then(Json::as_str).unwrap_or("?"),
                );
            }
        }
    }
    if let Some(throughput) = snap.get("throughput").and_then(Json::as_arr) {
        if !throughput.is_empty() {
            println!("  throughput:");
            println!(
                "    {:>8}  {:>9}  {:>6}  {:>10}",
                "worker", "completed", "failed", "cells/s"
            );
            for t in throughput {
                println!(
                    "    {:>8}  {:>9}  {:>6}  {:>10.3}",
                    t.get("worker").and_then(Json::as_u64).unwrap_or(0),
                    t.get("completed").and_then(Json::as_u64).unwrap_or(0),
                    t.get("failed").and_then(Json::as_u64).unwrap_or(0),
                    t.get("cells_per_sec").and_then(Json::as_f64).unwrap_or(0.0),
                );
            }
        }
    }
    Ok(())
}

/// The `coordinate` role: serve leases over TCP until the grid is
/// complete, then render the figures exactly as a local sweep would.
fn coordinate(args: &Args) -> Result<()> {
    let config = harness_config(args);
    let figs = args
        .figures
        .clone()
        .unwrap_or_else(|| FigureId::ALL.to_vec());
    let mut options = genbase::coord::CoordOptions::default();
    if let Some(path) = &args.checkpoint {
        options = options.with_checkpoint(path);
    }
    if args.lease_timeout_secs > 0 {
        options = options.with_lease_timeout(Duration::from_secs(args.lease_timeout_secs));
    }
    if args.rebalance_after_secs > 0 {
        options = options.with_rebalance_after(Duration::from_secs(args.rebalance_after_secs));
    }
    if let Some(token) = &args.auth_token {
        options = options.with_auth_token(token.clone());
    }
    let coordinator = genbase::coord::Coordinator::bind(
        args.listen.as_str(),
        config.clone(),
        &figs,
        args.mn_size,
        options,
    )?;
    eprintln!(
        "coordinator listening on {} for {} (fingerprint {})",
        coordinator.local_addr()?,
        figs.iter().map(|f| f.name()).collect::<Vec<_>>().join("+"),
        genbase::sched::config_fingerprint(&config),
    );
    let outcome = coordinator
        .serve()
        .map_err(|e| Error::invalid(format!("coordinated sweep: {e}")))?;
    let summary = format!(
        "coordinated sweep: {} cells ({} executed by {} workers, {} from \
         checkpoint, {} leases re-issued, {} resumed, {} rebalanced, \
         {} clean departures)",
        outcome.planned,
        outcome.executed,
        outcome.workers,
        outcome.restored,
        outcome.reissued,
        outcome.resumed,
        outcome.rebalanced,
        outcome.departed,
    );
    let harness = Harness::new(config)?;
    let (grid, recovered) = (&outcome.grid, outcome.recovered.as_deref());
    finish_sweep(args, &figs, &harness, grid, recovered, &summary)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Retired subcommands and flags get no tombstone branch: `bench` and
    /// the file-shard flags are rejected by the same errors as any other
    /// unknown command or flag.
    #[test]
    fn unknown_commands_and_flags_hit_the_generic_errors() {
        for what in ["bench", "fig9"] {
            let err = requested_figures(what).unwrap_err().to_string();
            assert!(err.contains(&format!("unknown command {what:?}")), "{err}");
        }
        for flag in [
            "--no-such-flag",
            "--fused",
            "--shards",
            "--shard-id",
            "--grid-in",
        ] {
            let argv = ["fig1".to_string(), flag.to_string()];
            let err = parse_args(&argv).err().expect("usage error");
            assert_eq!(err.0, format!("unknown flag {flag:?}"));
        }
    }

    /// `parse_args` + `check_flags`, as `main` runs them.
    fn usage(line: &str) -> std::result::Result<(), String> {
        let argv: Vec<String> = line.split_whitespace().map(str::to_string).collect();
        let checked = parse_args(&argv).and_then(|args| check_flags(&args));
        checked.map_err(|e| e.0)
    }

    /// Every flag is read by some subcommand and refused — by name, with
    /// the subcommand named too — by some other. (A flag `parse_args` knows
    /// and `FLAG_READERS` does not is refused everywhere.)
    #[test]
    fn every_flag_is_read_somewhere_and_refused_elsewhere() {
        let commands = [
            "fig1",
            "table1",
            "all",
            "weak",
            "explain",
            "coordinate",
            "work",
            "status",
            "serve",
            "query",
        ];
        // A value each flag's parser takes (ignored by the three switches'
        // neighbours: a stray positional is only legal after explain/query).
        let value = |flag: &str| match flag {
            "--sim-only" | "--stream" | "--json" | "--per-op" => "",
            "--sizes" | "--mn-size" => "small",
            "--figures" => "fig1",
            "--faults" => "worker.cell@2=abort",
            _ => "1",
        };
        for (flag, _) in FLAG_READERS {
            let (mut read, mut refused) = (0, 0);
            for command in commands {
                match usage(&format!("{command} {flag} {}", value(flag))) {
                    Ok(()) => read += 1,
                    Err(e) => {
                        assert_eq!(
                            e.split(" (").next(),
                            Some(&*format!("{flag} is not read by {command}"))
                        );
                        refused += 1;
                    }
                }
            }
            assert!(
                read > 0 && refused > 0,
                "{flag}: read by {read}, refused by {refused}"
            );
        }
        // The three the issue names.
        assert!(usage("fig1 --lease-timeout 5").is_err());
        assert!(usage("work --grid-out x").is_err());
        assert!(usage("serve --grid-out x").is_err());
    }

    /// A zero `--nodes` or `--batch-rows` is refused at parse time, naming
    /// the flag, instead of silently running as 1.
    #[test]
    fn zero_counts_are_usage_errors() {
        for (line, flag) in [
            ("explain --nodes 0", "--nodes"),
            ("fig1 --batch-rows 0", "--batch-rows"),
        ] {
            assert_eq!(usage(line), Err(format!("{flag} must be at least 1")));
        }
    }

    /// Every `paper_harness` invocation in the CI workflow still parses.
    #[test]
    fn ci_invocations_parse() {
        let ci = include_str!("../../../../.github/workflows/ci.yml");
        let (mut flags, mut checked) = (String::new(), 0);
        let mut lines = ci.lines().map(str::trim).filter(|l| !l.starts_with('#'));
        while let Some(first) = lines.next() {
            // Join shell continuation lines.
            let mut line = first.to_string();
            while line.ends_with('\\') {
                line.pop();
                line.push_str(lines.next().unwrap_or_default());
            }
            if let Some(rest) = line.strip_prefix("FLAGS=\"") {
                flags = rest.trim_end_matches('"').to_string();
            }
            let Some((_, command)) = line.split_once("paper_harness ") else {
                continue;
            };
            // `${{ matrix.x }}` stands for a number; the command ends at the
            // first redirection, pipe or `&`.
            let mut command = command.replace("$FLAGS", &flags);
            while let Some((before, after)) = command.split_once("${{") {
                let (_, after) = after.split_once("}}").expect("closed expression");
                command = format!("{before}1{after}");
            }
            let words = command.split_whitespace();
            let argv: Vec<&str> = words
                .take_while(|w| !w.starts_with(['>', '|', '&', '2']) || w.parse::<f64>().is_ok())
                .collect();
            usage(&argv.join(" ")).unwrap_or_else(|e| panic!("ci.yml: {argv:?}: {e}"));
            checked += 1;
        }
        assert!(checked >= 20, "only {checked} invocations found");
    }
}
