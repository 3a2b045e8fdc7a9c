//! The full benchmark driver: regenerates every table and figure from the
//! GenBase paper's evaluation section through the cell scheduler.
//!
//! ```text
//! paper_harness [fig1|fig2|fig3|fig4|fig5|table1|all ...]  sweep and render
//!                                the named exhibits (default all)
//!               [explain [ENGINE] [QUERY]]  per-operator plan cost tables
//!               [coordinate [EXHIBIT ...]|work|status]  distributed sweep
//!                                roles (see below; no exhibits means all)
//!               [serve]          resident benchmark server: framed + HTTP
//!                                listeners, /status /metrics /query
//!               [query ENGINE QUERY]  submit one query to a running server
//!                                over the framed protocol
//!               [--FLAG [VALUE] ...]  one row each in the `flags!` table
//! ```
//!
//! Every flag is declared once, in the `flags!` table below: its name, the
//! value it takes, the subcommands that read it, any default only the CLI
//! has, and its help. A flag given to any other subcommand is a usage
//! error, exit 2. So is a malformed fault plan in `GENBASE_FAULTS` (the
//! grammar is in `genbase_util::faults`), the one way to install a plan.
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
//! clients: the framed `genbase-coord-v4` protocol on `--listen` and HTTP
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

/// What a flag takes after it on the command line.
#[derive(Clone, Copy)]
enum Kind {
    /// Nothing: the flag is present or absent.
    Switch,
    Float,
    /// A whole number ≥ 1, called this in the parse error.
    Count(&'static str),
    Secs,
    Bytes,
    /// One size class.
    Size,
    /// Comma-separated size classes.
    Sizes,
    Text,
}

/// One row of [`FLAGS`].
struct Row {
    flag: Flag,
    name: &'static str,
    kind: Kind,
    /// Space-separated lists of the subcommands that read the flag.
    readers: &'static [&'static str],
    /// A default only the CLI has. Defaults the library owns come from
    /// `HarnessConfig`, `StreamConfig`, `SweepOptions` and `WorkerOptions`.
    default: Option<&'static str>,
}

/// Declares [`Flag`], the handle code reads a value through, and
/// [`FLAGS`], from one row per flag: its help, handle, name, kind, readers
/// and any CLI-only default.
macro_rules! flags {
    (@default) => { None };
    (@default $default:literal) => { Some($default) };
    ($($(#[doc = $help:literal])+ $flag:ident $name:literal $kind:expr,
       [$($readers:expr),+] $(= $default:literal)?;)+) => {
        #[derive(Clone, Copy, PartialEq)]
        enum Flag { $($(#[doc = $help])+ $flag),+ }

        /// Every flag, in [`Flag`] order.
        const FLAGS: &[Row] = &[$(Row {
            flag: Flag::$flag,
            name: $name,
            kind: $kind,
            readers: &[$($readers),+],
            default: flags!(@default $($default)?),
        }),+];
    };
}

/// The figure subcommands: `fig1` … `fig5`, `table1` and `all`.
const FIGS: &str = "figN";

/// Every subcommand that builds a `HarnessConfig` from the dataset, timing
/// and memory flags.
const CONFIGURED: &str = "figN explain coordinate work serve";

flags! {
    /// Per-side scale vs paper sizes (default 0.048; 1.0 = paper size).
    Scale "--scale" Kind::Float, [CONFIGURED];
    /// Size classes to run, e.g. `small,medium` (default all); `query`
    /// sends the first.
    Sizes "--sizes" Kind::Sizes, [CONFIGURED, "query"];
    /// Per-cell cutoff (default 60 s); ignored under `--sim-only`.
    Cutoff "--cutoff" Kind::Secs, [CONFIGURED];
    /// Simulated machine size and kernel budget (default: host threads);
    /// pin it for cross-machine coordinate/work runs.
    Threads "--threads" Kind::Count("an integer"), [CONFIGURED];
    /// Deterministic timing: simulated costs only.
    SimOnly "--sim-only" Kind::Switch, [CONFIGURED];
    /// Per-cell storage-layer working-set budget (exhaustion renders as an
    /// "infinite" cell); for `serve`, the admission budget.
    MemBudget "--mem-budget" Kind::Bytes, [CONFIGURED];
    /// Morsel-driven streaming execution: byte-identical output, and an
    /// over-budget cell spills instead of going infinite.
    Stream "--stream" Kind::Switch, [CONFIGURED];
    /// Rows per streaming morsel (default 1024); implies `--stream`.
    BatchRows "--batch-rows" Kind::Count("rows"), [CONFIGURED];
    /// Directory for streaming spill files (default: system temp); implies
    /// `--stream`.
    SpillDir "--spill-dir" Kind::Text, [CONFIGURED];
    /// Dataset class of the multi-node exhibits.
    MnSize "--mn-size" Kind::Size, [FIGS, "coordinate"] = "medium";
    /// fig2/fig4: stacked per-operator breakdown (seconds and bytes moved
    /// per operator class) instead of the phase split.
    PerOp "--per-op" Kind::Switch, [FIGS, "coordinate"];
    /// Resume file: completed cells skip on rerun (a complete one renders
    /// without running).
    Checkpoint "--checkpoint" Kind::Text, [FIGS, "coordinate"];
    /// Write the result grid as JSON.
    GridOut "--grid-out" Kind::Text, [FIGS, "coordinate"];
    /// Cells in flight (default: host threads); for `work`, leased cells
    /// the worker multiplexes (default 1).
    Jobs "--jobs" Kind::Count("an integer"), [FIGS, "work"];
    /// Simulated cluster size of the explained or queried cells.
    Nodes "--nodes" Kind::Count("an integer"), ["explain query"] = "1";
    /// Machine-readable output: explain's `genbase-explain-v1`, or the raw
    /// status snapshot.
    Json "--json" Kind::Switch, ["explain status"];
    /// Revoke and re-issue a cell leased longer than this (default: off).
    LeaseTimeout "--lease-timeout" Kind::Secs, ["coordinate"];
    /// Framed-protocol bind address.
    Listen "--listen" Kind::Text, ["coordinate serve"] = "127.0.0.1:7717";
    /// HTTP bind address.
    ListenHttp "--listen-http" Kind::Text, ["serve"] = "127.0.0.1:7718";
    /// How many over-budget requests may wait for memory before rejection.
    QueueDepth "--queue-depth" Kind::Count("an integer"), ["serve"] = "16";
    /// Artifact-cache budget for the SQL stores' materializing triple
    /// joins (default: off).
    CacheBudget "--cache-budget" Kind::Bytes, ["serve"];
    /// Coordinator or server address.
    Connect "--connect" Kind::Text, ["work query status"] = "127.0.0.1:7717";
    /// Shared handshake token (falls back to `GENBASE_COORD_TOKEN`).
    AuthToken "--auth-token" Kind::Text, ["coordinate work status serve query"];
}

/// How long `work` and `status` retry their first connect, so they may
/// start before the coordinator does.
const CONNECT_WINDOW: Duration = Duration::from_secs(30);

impl Row {
    /// The subcommands that read this flag.
    fn readers(&self) -> impl Iterator<Item = &'static str> {
        self.readers.iter().flat_map(|list| list.split(' '))
    }

    /// Refuse a malformed value, naming the flag and what it wanted
    /// (`--scale takes a float, got "abc"`).
    fn check(&self, raw: &str) -> std::result::Result<(), UsageError> {
        let name = self.name;
        let takes = |wants: &str, ok: bool| match ok {
            true => Ok(()),
            false => Err(UsageError(format!("{name} takes {wants}, got {raw:?}"))),
        };
        let size = |s: &str| match SizeClass::from_slug(s) {
            Some(_) => Ok(()),
            None => Err(UsageError(format!(
                "{name}: unknown size {s:?} (want small/medium/large)"
            ))),
        };
        match self.kind {
            Kind::Switch | Kind::Text => Ok(()),
            Kind::Float => takes("a float", raw.parse::<f64>().is_ok()),
            Kind::Secs => takes("seconds", raw.parse::<u64>().is_ok()),
            Kind::Bytes => takes("bytes", raw.parse::<u64>().is_ok()),
            Kind::Count(wants) => match raw.parse::<usize>() {
                Ok(0) => Err(UsageError(format!("{name} must be at least 1"))),
                n => takes(wants, n.is_ok()),
            },
            Kind::Size => size(raw),
            Kind::Sizes => raw.split(',').try_for_each(|s| size(s.trim())),
        }
    }
}

struct Args {
    /// The subcommand and its arguments, in order.
    words: Vec<String>,
    /// Every flag given, in order, with its checked value (empty for a
    /// switch).
    given: Vec<(Flag, String)>,
}

impl Args {
    /// The subcommand (`all` when none is given).
    fn what(&self) -> &str {
        self.words.first().map_or("all", String::as_str)
    }

    /// Whether a switch was given.
    fn on(&self, flag: Flag) -> bool {
        self.given.iter().any(|(f, _)| *f == flag)
    }

    /// The value of `flag` — the last one given, else its row's default —
    /// as `T`.
    fn get<T: std::str::FromStr<Err: std::fmt::Debug>>(&self, flag: Flag) -> Option<T> {
        let given = self.given.iter().rev().find(|(f, _)| *f == flag);
        let raw = given.map(|(_, raw)| raw.as_str());
        let raw = raw.or(FLAGS[flag as usize].default)?;
        Some(raw.parse().expect("parse_args checked every value"))
    }

    /// A size-class flag's value.
    fn sizes(&self, flag: Flag) -> Option<Vec<SizeClass>> {
        let raw: String = self.get(flag)?;
        let slugs = raw.split(',').map(|s| SizeClass::from_slug(s.trim()));
        Some(slugs.map(|s| s.expect("parse_args checked")).collect())
    }

    fn mn_size(&self) -> SizeClass {
        self.sizes(Flag::MnSize).expect("--mn-size has a default")[0]
    }

    /// The value of a flag whose row has a default.
    fn value<T: std::str::FromStr<Err: std::fmt::Debug>>(&self, flag: Flag) -> T {
        self.get(flag).expect("the row has a default")
    }

    fn auth_token(&self) -> Option<String> {
        let token = self.get(Flag::AuthToken);
        token.or_else(|| std::env::var("GENBASE_COORD_TOKEN").ok())
    }
}

/// A malformed command line: printed to stderr, exit code 2. The message
/// always names the offending flag, argument or variable.
struct UsageError(String);

/// The subcommand family `what` belongs to: [`FIGS`] for an exhibit.
fn family(what: &str) -> &str {
    match what {
        "all" => FIGS,
        what if FigureId::from_name(what).is_some() => FIGS,
        what => what,
    }
}

fn parse_args(argv: &[String]) -> std::result::Result<Args, UsageError> {
    let (mut words, mut given) = (Vec::<String>::new(), Vec::new());
    let mut argv = argv.iter();
    while let Some(word) = argv.next() {
        if !word.starts_with("--") {
            // Exhibits, `coordinate`'s exhibits, `explain|query <engine>
            // <query>`: only these take more than the subcommand.
            let takes =
                |what: &str| matches!(family(what), FIGS | "coordinate" | "explain" | "query");
            if let Some(what) = words.first().filter(|what| !takes(what)) {
                return Err(UsageError(format!(
                    "unexpected argument {word:?} after {what:?}"
                )));
            }
            words.push(word.clone());
            continue;
        }
        // A mistyped flag must not be silently swallowed as a subcommand
        // argument (or the run proceeds with defaults).
        let Some(row) = FLAGS.iter().find(|row| row.name == word) else {
            return Err(UsageError(format!("unknown flag {word:?}")));
        };
        let raw = match row.kind {
            Kind::Switch => "",
            _ => argv
                .next()
                .ok_or_else(|| UsageError(format!("{word} needs a value")))?,
        };
        row.check(raw)?;
        given.push((row.flag, raw.to_string()));
    }
    Ok(Args { words, given })
}

/// Refuse flags the chosen subcommand does not read. (An unknown subcommand
/// is `run`'s error to report.)
fn check_flags(args: &Args) -> std::result::Result<(), UsageError> {
    let family = family(args.what());
    let reads = |row: &Row| row.readers().any(|r| r == family);
    if !FLAGS.iter().any(reads) {
        return Ok(());
    }
    let mut rows = args.given.iter().map(|(flag, _)| &FLAGS[*flag as usize]);
    match rows.find(|row| !reads(row)) {
        Some(row) => Err(UsageError(format!(
            "{} is not read by {} (read by: {})",
            row.name,
            args.what(),
            row.readers().collect::<Vec<_>>().join(", ")
        ))),
        None => Ok(()),
    }
}

/// A malformed `GENBASE_FAULTS` is a usage error before dispatch, not a
/// warning at the first fault site. A valid plan installs itself there.
fn check_fault_plan() -> std::result::Result<(), UsageError> {
    let Ok(spec) = std::env::var("GENBASE_FAULTS") else {
        return Ok(());
    };
    let plan = genbase_util::faults::FaultPlan::parse(&spec);
    plan.map(drop)
        .map_err(|e| UsageError(format!("GENBASE_FAULTS: {e}")))
}

/// The multi-node exhibits (fig3, fig4, table1) run on the `--mn-size`
/// dataset, and the harness builds only the `--sizes` datasets: refuse a
/// sweep that plans a cell on any other before it runs a cell, not after
/// the single-node exhibits have swept.
fn check_mn_size(args: &Args) -> std::result::Result<(), UsageError> {
    let names = match family(args.what()) {
        FIGS => &args.words[..],
        "coordinate" => &args.words[1..],
        _ => return Ok(()),
    };
    // An unknown exhibit is `run`'s error to report.
    let Ok(figs) = requested_figures(names) else {
        return Ok(());
    };
    let (config, mn_size) = (harness_config(args), args.mn_size());
    let planned = figures::plan_sweep(&figs, &config, mn_size);
    if planned.iter().all(|cell| config.sizes.contains(&cell.size)) {
        return Ok(());
    }
    let sizes: Vec<&str> = config.sizes.iter().map(|s| s.slug()).collect();
    Err(UsageError(format!(
        "--mn-size {} is not among --sizes {}: fig3, fig4 and table1 run on the \
         --mn-size dataset (add it to --sizes, or give --mn-size one of them)",
        mn_size.slug(),
        sizes.join(",")
    )))
}

/// The exhibits `names` ask for (`all` is every one; none means all).
fn requested_figures(names: &[String]) -> Result<Vec<FigureId>> {
    if names.is_empty() {
        return Ok(FigureId::ALL.to_vec());
    }
    let mut figs = Vec::new();
    for what in names {
        let named = match what.as_str() {
            "all" => FigureId::ALL.to_vec(),
            what => vec![FigureId::from_name(what).ok_or_else(|| {
                Error::invalid(format!(
                    "unknown command {what:?} (want figN/table1/explain/\
                     coordinate/work/status/serve/query/all)"
                ))
            })?],
        };
        for fig in named {
            if !figs.contains(&fig) {
                figs.push(fig);
            }
        }
    }
    Ok(figs)
}

fn harness_config(args: &Args) -> HarnessConfig {
    let mut config = HarnessConfig::default();
    if let Some(scale) = args.get(Flag::Scale) {
        config.scale = scale;
        config.r_mem_bytes = genbase::harness::r_mem_bytes(scale);
    }
    config.sizes = args.sizes(Flag::Sizes).unwrap_or(config.sizes);
    config.cutoff = args
        .get(Flag::Cutoff)
        .map_or(config.cutoff, Duration::from_secs);
    config.threads = args.get(Flag::Threads).unwrap_or(config.threads);
    if args.on(Flag::SimOnly) {
        config.timing = TimingMode::SimOnly;
    }
    config.mem_budget = args.get(Flag::MemBudget);
    let spill_dir: Option<String> = args.get(Flag::SpillDir);
    let batch_rows = args.get(Flag::BatchRows);
    if args.on(Flag::Stream) || batch_rows.is_some() || spill_dir.is_some() {
        let mut stream = genbase::engine::StreamConfig::default();
        stream.batch_rows = batch_rows.unwrap_or(stream.batch_rows);
        stream.spill_dir = spill_dir.map(std::path::PathBuf::from);
        config.stream = Some(stream);
    }
    config
}

fn main() {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = parse_args(&argv)
        .and_then(|args| check_flags(&args).map(|()| args))
        .and_then(|args| check_fault_plan().map(|()| args))
        .and_then(|args| check_mn_size(&args).map(|()| args));
    let args = match args {
        Ok(args) => args,
        Err(UsageError(usage)) => {
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
    match args.what() {
        "coordinate" => coordinate(args),
        "serve" => serve(args),
        "query" => query_server(args),
        "work" => work(args),
        "status" => status(args),
        "explain" => explain(args),
        _ => sweep(args),
    }
}

/// A local sweep of the exhibits named on the command line.
fn sweep(args: &Args) -> Result<()> {
    let figs = requested_figures(&args.words)?;
    let config = harness_config(args);
    eprintln!(
        "sweeping {} at scale {} (cutoff {}s, simulated R memory {})...",
        figs.iter().map(|f| f.name()).collect::<Vec<_>>().join("+"),
        config.scale,
        config.cutoff.as_secs(),
        genbase_util::fmt_bytes(config.r_mem_bytes),
    );
    let scheduler = Scheduler::new(config)?;
    let mut sweep = SweepOptions::default();
    if let Some(jobs) = args.get(Flag::Jobs) {
        sweep = sweep.with_cells_in_flight(jobs);
    }
    if let Some(path) = args.get::<String>(Flag::Checkpoint) {
        sweep = sweep.with_checkpoint(path);
    }
    let outcome = scheduler.run_sweep(&figs, args.mn_size(), &sweep)?;
    let summary = format!(
        "sweep: {} cells ({} executed, {} from checkpoint) in {:.2}s",
        outcome.planned, outcome.executed, outcome.skipped, outcome.wall_secs
    );
    let (grid, recovered) = (&outcome.grid, outcome.recovered.as_deref());
    finish_sweep(args, &figs, scheduler.harness(), grid, recovered, &summary)
}

/// The `work` role. SIGTERM departs cleanly: the worker hands back its
/// lease with `leave` (uncharged against the re-issue cap) and exits.
fn work(args: &Args) -> Result<()> {
    genbase_util::shutdown::install_sigterm_handler();
    let options = genbase::coord::WorkerOptions {
        jobs: args.get(Flag::Jobs).unwrap_or_default(),
        auth_token: args.auth_token(),
        stop: None,
    };
    let (connect, config) = (args.value::<String>(Flag::Connect), harness_config(args));
    let report =
        genbase::coord::run_worker_with(connect.as_str(), config, CONNECT_WINDOW, options)?;
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
    Ok(())
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
    if let Some(path) = args.get::<String>(Flag::GridOut) {
        grid.save(std::path::Path::new(&path))
            .map_err(|e| Error::invalid(format!("write grid {path}: {e}")))?;
        eprintln!("wrote {path}");
    }
    for &fig in figs {
        // `--per-op` replaces fig2/fig4's phase split.
        let per_op = args.on(Flag::PerOp) && matches!(fig, FigureId::Fig2 | FigureId::Fig4);
        let figure = match per_op {
            true => figures::render_per_op(fig, harness, args.mn_size(), grid),
            false => figures::render(fig, harness, args.mn_size(), grid),
        };
        let how = if per_op { " --per-op" } else { "" };
        let figure =
            figure.map_err(|e| Error::invalid(format!("render {}{how}: {e}", fig.name())))?;
        println!("{}", figure.render());
    }
    Ok(())
}

/// The `serve` subcommand: the resident benchmark server. `--mem-budget`
/// here is the *admission* budget (per-request working-set reservations),
/// not the per-cell tracker budget, so served outcomes stay byte-identical
/// to a batch sweep run without `--mem-budget`.
fn serve(args: &Args) -> Result<()> {
    genbase_util::shutdown::install_sigterm_handler();
    let mut config = harness_config(args);
    config.mem_budget = None;
    let options = genbase::ServeOptions {
        auth_token: args.auth_token(),
        queue_depth: args.value(Flag::QueueDepth),
        mem_budget: args.get(Flag::MemBudget),
        cache_budget: args.get(Flag::CacheBudget),
        ..Default::default()
    };
    let listen: String = args.value(Flag::Listen);
    let listen_http: String = args.value(Flag::ListenHttp);
    let server = genbase::BenchServer::bind(
        listen.as_str(),
        listen_http.as_str(),
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
    let [_, engine, query, ..] = &args.words[..] else {
        return Err(Error::invalid(
            "query needs ENGINE and QUERY, e.g. query SciDB svd",
        ));
    };
    let mut request = Json::obj();
    request.set("type", Json::from("query"));
    request.set("engine", Json::from(engine.as_str()));
    request.set("query", Json::from(query.as_str()));
    if let Some(sizes) = args.sizes(Flag::Sizes) {
        request.set("size", Json::from(sizes[0].slug()));
    }
    let nodes: usize = args.value(Flag::Nodes);
    if nodes > 1 {
        request.set("nodes", Json::from(nodes));
    }
    let (connect, token) = (args.value::<String>(Flag::Connect), args.auth_token());
    let reply = genbase::serve::client_request(connect.as_str(), token.as_deref(), &request)?;
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
    let engine_filter = args.words.get(1).map(String::as_str);
    let query_filter = match args.words.get(2) {
        Some(name) => Some(genbase::Query::from_name(name).ok_or_else(|| {
            Error::invalid(format!(
                "unknown query {name:?} (want one of \
                 regression/covariance/biclustering/svd/statistics)"
            ))
        })?),
        None => None,
    };
    let harness = Harness::new(config)?;
    let nodes = args.value(Flag::Nodes);
    if args.on(Flag::Json) {
        let json = figures::explain_json(&harness, size, nodes, engine_filter, query_filter)?;
        println!("{json}");
        return Ok(());
    }
    let figure = figures::explain(&harness, size, nodes, engine_filter, query_filter)?;
    println!("{}", figure.render());
    Ok(())
}

/// The `status` role: poll a serving coordinator or resident server for a
/// live snapshot and print it as a table (or raw JSON with `--json`).
fn status(args: &Args) -> Result<()> {
    let (connect, token) = (args.value::<String>(Flag::Connect), args.auth_token());
    let snap = genbase::coord::fetch_status(connect.as_str(), token.as_deref(), CONNECT_WINDOW)
        .map_err(|e| Error::invalid(format!("status poll @ {connect}: {e}")))?;
    if args.on(Flag::Json) {
        println!("{}", snap.render());
    } else {
        print!("{}", status_table(&snap, &connect));
    }
    Ok(())
}

/// The counter rows of the `status` table: a label, then each snapshot key
/// with the word printed after its value. A coordinator's snapshot carries
/// every key but `rejected`; a server's carries the `cells` keys but
/// `planned`, and `rejected` and `workers`.
#[rustfmt::skip]
const STATUS_ROWS: [(&str, &[(&str, &str)]); 4] = [
    ("cells", &[("planned", "planned"), ("done", "done"), ("pending", "pending"),
        ("leased", "leased"), ("failed", "failed")]),
    ("rejected", &[("rejected", "requests")]),
    ("history", &[("executed", "executed"), ("restored", "restored"),
        ("reissued", "reissued"), ("resumed", "resumed"), ("departed", "departed")]),
    ("workers", &[("workers", "connections")]),
];

/// Render a `status` snapshot, headed by the `service` it names: only the
/// counters it carries (a row with none of its keys is left out, never
/// shown as zeros), then any leases and per-worker throughput.
fn status_table(snap: &genbase_util::Json, connect: &str) -> String {
    use genbase_util::Json;
    use std::fmt::Write;
    let mut out = String::new();
    let service = snap.get("service").and_then(Json::as_str);
    let _ = writeln!(out, "{} @ {connect}", service.unwrap_or("coordinate"));
    for (label, keys) in STATUS_ROWS {
        let counts: Vec<String> = (keys.iter())
            .filter_map(|(key, word)| {
                let n = snap.get(key).and_then(Json::as_u64)?;
                Some(format!("{n:>5} {word}"))
            })
            .collect();
        if !counts.is_empty() {
            let _ = writeln!(out, "  {label:<8} {}", counts.join("  "));
        }
    }
    let int = |item: &Json, key: &str| item.get(key).and_then(Json::as_u64).unwrap_or(0);
    let real = |item: &Json, key: &str| item.get(key).and_then(Json::as_f64).unwrap_or(0.0);
    let items = |key: &str| {
        snap.get(key)
            .and_then(Json::as_arr)
            .filter(|a| !a.is_empty())
    };
    if let Some(leases) = items("leases") {
        let _ = writeln!(out, "  leases:\n    {:>8}  {:>10}  cell", "worker", "held");
        for lease in leases {
            let cell = lease.get("cell").and_then(Json::as_str).unwrap_or("?");
            let (worker, held) = (int(lease, "worker"), real(lease, "held_secs"));
            let _ = writeln!(out, "    {worker:>8}  {held:>9.1}s  {cell}");
        }
    }
    if let Some(throughput) = items("throughput") {
        let _ = writeln!(
            out,
            "  throughput:\n    {:>8}  {:>9}  {:>6}  {:>10}",
            "worker", "completed", "failed", "cells/s"
        );
        for t in throughput {
            let _ = writeln!(
                out,
                "    {:>8}  {:>9}  {:>6}  {:>10.3}",
                int(t, "worker"),
                int(t, "completed"),
                int(t, "failed"),
                real(t, "cells_per_sec"),
            );
        }
    }
    out
}

/// The `coordinate` role: serve leases over TCP until the grid is
/// complete, then render the figures exactly as a local sweep would.
fn coordinate(args: &Args) -> Result<()> {
    let config = harness_config(args);
    let figs = requested_figures(&args.words[1..])?;
    let mut options = genbase::coord::CoordOptions::default();
    if let Some(path) = args.get::<String>(Flag::Checkpoint) {
        options = options.with_checkpoint(path);
    }
    // Zero seconds is off, as when the flag is absent.
    let timeout = args.get(Flag::LeaseTimeout).filter(|&s| s > 0);
    if let Some(timeout) = timeout.map(Duration::from_secs) {
        options = options.with_lease_timeout(timeout);
    }
    if let Some(token) = args.auth_token() {
        options = options.with_auth_token(token);
    }
    let listen: String = args.value(Flag::Listen);
    let coordinator = genbase::coord::Coordinator::bind(
        listen.as_str(),
        config.clone(),
        &figs,
        args.mn_size(),
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
         checkpoint, {} leases re-issued, {} resumed, {} clean departures)",
        outcome.planned,
        outcome.executed,
        outcome.workers,
        outcome.restored,
        outcome.reissued,
        outcome.resumed,
        outcome.departed,
    );
    let harness = Harness::new(config)?;
    let (grid, recovered) = (&outcome.grid, outcome.recovered.as_deref());
    finish_sweep(args, &figs, &harness, grid, recovered, &summary)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Retired subcommands and flags get no tombstone branch: `bench`,
    /// `weak`, the file-shard flags, `--faults`, `--figures`,
    /// `--connect-window` and `--rebalance-after` are rejected by the same
    /// errors as any other unknown command or flag.
    #[test]
    fn unknown_commands_and_flags_hit_the_generic_errors() {
        for what in ["bench", "weak", "fig9"] {
            let args = parse_args(&[what.to_string()]).ok().expect("parses");
            let err = run(&args).unwrap_err().to_string();
            assert!(err.contains(&format!("unknown command {what:?}")), "{err}");
        }
        for flag in [
            "--no-such-flag",
            "--fused",
            "--shards",
            "--shard-id",
            "--grid-in",
            "--faults",
            "--figures",
            "--connect-window",
            "--rebalance-after",
        ] {
            let argv = ["fig1".to_string(), flag.to_string()];
            let err = parse_args(&argv).err().expect("usage error");
            assert_eq!(err.0, format!("unknown flag {flag:?}"));
        }
    }

    /// A server's snapshot carries no `planned` and no sweep history: the
    /// table prints what it has, not zeros for what it lacks.
    #[test]
    fn status_table_of_a_server_prints_only_its_counters() {
        let snap = genbase_util::Json::parse(
            r#"{"type":"status","service":"serve","state":"serving","done":4,"failed":0,
                "rejected":1,"pending":0,"leased":2,"workers":3,"mem_budget":null}"#,
        )
        .unwrap();
        assert_eq!(
            status_table(&snap, "127.0.0.1:7761"),
            "serve @ 127.0.0.1:7761\n\
             \x20 cells        4 done      0 pending      2 leased      0 failed\n\
             \x20 rejected     1 requests\n\
             \x20 workers      3 connections\n"
        );
    }

    /// A coordinator's snapshot fills every row but `rejected`, plus its
    /// leases and per-worker throughput.
    #[test]
    fn status_table_of_a_coordinator_prints_every_row() {
        let snap = genbase_util::Json::parse(
            r#"{"type":"status","service":"coordinate","planned":35,"restored":5,
                "pending":3,"leased":1,"done":31,"failed":0,"executed":26,"reissued":2,
                "departed":1,"resumed":1,"workers":2,
                "leases":[{"worker":3,"cell":"svd/small/n1/SciDB","held_secs":1.25}],
                "throughput":[{"worker":3,"completed":10,"failed":0,"cells_per_sec":2.5}]}"#,
        )
        .unwrap();
        assert_eq!(
            status_table(&snap, "127.0.0.1:7751"),
            "coordinate @ 127.0.0.1:7751\n\
             \x20 cells       35 planned     31 done      3 pending      1 leased      0 failed\n\
             \x20 history     26 executed      5 restored      2 reissued      1 resumed  \
             \x20   1 departed\n\
             \x20 workers      2 connections\n\
             \x20 leases:\n\
             \x20     worker        held  cell\n\
             \x20          3        1.2s  svd/small/n1/SciDB\n\
             \x20 throughput:\n\
             \x20     worker  completed  failed     cells/s\n\
             \x20          3         10       0       2.500\n"
        );
    }

    /// `parse_args` + `check_flags`, as `main` runs them.
    fn usage(line: &str) -> std::result::Result<(), String> {
        let argv: Vec<String> = line.split_whitespace().map(str::to_string).collect();
        let checked = parse_args(&argv).and_then(|args| check_flags(&args));
        checked.map_err(|e| e.0)
    }

    /// Every flag is read by some subcommand and refused — by name, with
    /// the subcommand named too — by some other.
    #[test]
    fn every_flag_is_read_somewhere_and_refused_elsewhere() {
        let commands = [
            "fig1",
            "table1",
            "all",
            "explain",
            "coordinate",
            "work",
            "status",
            "serve",
            "query",
        ];
        // A value each flag's kind takes (none for a switch: a stray
        // positional would be refused after most subcommands).
        let value = |row: &Row| match row.kind {
            Kind::Switch => "",
            Kind::Size | Kind::Sizes => "small",
            _ => "1",
        };
        for row in FLAGS {
            let (flag, mut read, mut refused) = (row.name, 0, 0);
            assert!(row.default.is_none_or(|raw| row.check(raw).is_ok()));
            for command in commands {
                match usage(&format!("{command} {flag} {}", value(row))) {
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

    /// A zero count (`--nodes`, `--batch-rows`, `--threads`, `--jobs`,
    /// `--queue-depth`) is refused at parse time, naming the flag, instead
    /// of silently running as something else.
    #[test]
    fn zero_counts_are_usage_errors() {
        let counts = FLAGS
            .iter()
            .filter(|row| matches!(row.kind, Kind::Count(_)));
        for row in counts {
            let command = row
                .readers()
                .next()
                .expect("a reader")
                .replace("figN", "fig1");
            let line = format!("{command} {} 0", row.name);
            assert_eq!(
                usage(&line),
                Err(format!("{} must be at least 1", row.name))
            );
        }
    }

    /// A malformed value or a stray argument is refused with a message
    /// naming the flag (or the subcommand) and what it wanted.
    #[test]
    fn malformed_values_name_the_flag_and_what_it_wanted() {
        let unknown =
            |flag, size| format!("{flag}: unknown size {size:?} (want small/medium/large)");
        for (line, want) in [
            (
                "fig1 --scale abc",
                r#"--scale takes a float, got "abc""#.to_string(),
            ),
            (
                "fig1 --cutoff 1.5",
                r#"--cutoff takes seconds, got "1.5""#.into(),
            ),
            (
                "fig1 --threads x",
                r#"--threads takes an integer, got "x""#.into(),
            ),
            (
                "fig1 --batch-rows -1",
                r#"--batch-rows takes rows, got "-1""#.into(),
            ),
            (
                "fig1 --mem-budget 1k",
                r#"--mem-budget takes bytes, got "1k""#.into(),
            ),
            ("fig1 --sizes small,huge", unknown("--sizes", "huge")),
            ("fig1 --mn-size huge", unknown("--mn-size", "huge")),
            ("fig1 --scale", "--scale needs a value".into()),
            (
                "work fig1",
                r#"unexpected argument "fig1" after "work""#.into(),
            ),
        ] {
            assert_eq!(usage(line), Err(want), "{line}");
        }
    }

    /// A local sweep and `coordinate` take their exhibits as positionals,
    /// parsed by the one function (none means all; `all` means all).
    #[test]
    fn exhibits_are_positionals() {
        for line in ["fig1 table1", "coordinate fig1 table1", "coordinate", "all"] {
            assert_eq!(usage(line), Ok(()), "{line}");
        }
        let words = |line: &str| {
            let argv: Vec<String> = line.split(' ').map(str::to_string).collect();
            parse_args(&argv).ok().expect("parses").words
        };
        let local = requested_figures(&words("fig1 table1 fig1")).unwrap();
        assert_eq!(local, [FigureId::Fig1, FigureId::Table1]);
        assert_eq!(requested_figures(&words("all")).unwrap(), FigureId::ALL);
        let coordinated = requested_figures(&words("coordinate table1 fig1")[1..]).unwrap();
        assert_eq!(coordinated, [FigureId::Table1, FigureId::Fig1]);
        assert_eq!(requested_figures(&[]).unwrap(), FigureId::ALL);
    }

    /// README's flag reference has one row per flag, naming the flag and
    /// exactly the subcommands its table row says read it.
    #[test]
    fn readme_flag_reference_matches_the_table() {
        let readme = include_str!("../../../../README.md");
        let sorted = |mut readers: Vec<String>| {
            readers.sort();
            readers
        };
        let mut documented: Vec<(String, Vec<String>)> = Vec::new();
        for line in readme.lines().filter(|line| line.starts_with("| `--")) {
            let cells: Vec<&str> = line.split(" | ").collect();
            let flag = cells[0].trim_start_matches("| `").split([' ', '`']).next();
            let readers = cells[1].split(", ").map(str::to_string).collect();
            documented.push((flag.expect("a flag").to_string(), sorted(readers)));
        }
        let mut declared: Vec<(String, Vec<String>)> = FLAGS
            .iter()
            .map(|row| {
                (
                    row.name.to_string(),
                    sorted(row.readers().map(str::to_string).collect()),
                )
            })
            .collect();
        documented.sort();
        declared.sort();
        assert_eq!(documented, declared);
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
