//! The resident benchmark server behind `paper_harness serve`.
//!
//! A batch sweep pays dataset generation and plan compilation on every
//! invocation. This module keeps that state resident — the pool-backed
//! [`Scheduler`] (datasets, engine registry) and the compiled
//! [`LogicalPlan`]s — inside one long-running process that answers many
//! concurrent clients on two fronts: a **framed** listener behind the
//! session layer's `hello` gate (`session.rs`, shared with the sweep
//! coordinator), and a minimal **HTTP/1.1** listener (`GET /status`,
//! `GET /metrics` in Prometheus text format, `POST /query`).
//!
//! **One request path.** Each front decodes what it reads into one private
//! `Request` (query, explain, status, metrics or leave) through one parser,
//! `Shared::decode`, so a request is valid on one front exactly when it is
//! on the other. `Shared::answer` admits, executes and counts it and returns
//! one `Reply`, which the front renders: the framed front owns only the
//! `hello` gate and the idle-drain poll, the HTTP front only the bearer check
//! and its status codes. Every exported number is one row of `STATS`, which
//! renders `/metrics` and `/status` both.
//!
//! Under `TimingMode::SimOnly` a served query's outcome JSON is byte-identical
//! to the same cell's entry in a batch sweep grid: both sides are
//! [`CellOutcome::to_json`] over the same deterministic execution.
//!
//! **Admission control.** Each request carries a working-set estimate
//! ([`working_set_estimate`]) that is reserved against a [`MemTracker`]
//! budget (`--mem-budget`) before the query runs. A request that cannot
//! reserve queues behind a bounded backpressure queue (`--queue-depth`) and
//! is admitted when memory frees; queue overflow — and an estimate larger
//! than the whole budget — returns a clean 429-style rejection (a `busy`
//! frame, HTTP 429) that shows up in `/metrics` instead of an OOM.
//!
//! **Shutdown.** SIGTERM (via [`genbase_util::shutdown`]) or the options'
//! stop flag drains the server: in-flight queries run to completion, queued
//! admissions are rejected as draining, idle connections get a `bye`, and
//! [`BenchServer::serve`] returns a final [`ServeReport`].

use crate::figures;
use crate::harness::HarnessConfig;
use crate::plan::{logical_plan, LogicalPlan, Phase};
use crate::query::Query;
use crate::sched::{config_fingerprint, CellKey, CellOutcome, Scheduler};
use crate::session::{self, msg, msg_type, Gate};
use genbase_datagen::{SizeClass, SizeSpec};
use genbase_storage::{ArtifactCache, CacheScope, MemTracker, Reservation};
use genbase_util::frame::write_frame;
use genbase_util::http::{self, HttpRequest};
use genbase_util::{lock, shutdown, Error, Json, Result};
use std::collections::BTreeMap;
use std::net::{SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Duration;

/// Multiplier from raw microarray bytes to a conservative working-set
/// estimate: source columns + pivoted dense copy + one materialized
/// intermediate + kernel output headroom.
const WORKING_SET_FACTOR: u64 = 4;

/// Floor on the working-set estimate, so admission stays meaningful at the
/// tiny CI scales where a dataset is a few hundred kilobytes.
const MIN_ESTIMATE_BYTES: u64 = 1 << 20;

/// Read timeout for an idle connection; doubles as the drain poll interval
/// (every idle connection notices a drain within one tick).
const IDLE_POLL: Duration = Duration::from_millis(200);

/// How long a queued request waits between admission retries.
const ADMIT_POLL: Duration = Duration::from_millis(20);

/// Conservative bytes a query against `size` will hold live at peak, the
/// quantity the admission controller reserves against the `--mem-budget`
/// tracker before the query may run.
pub fn working_set_estimate(config: &HarnessConfig, size: SizeClass) -> u64 {
    SizeSpec::scaled(size, config.scale)
        .bytes()
        .saturating_mul(WORKING_SET_FACTOR)
        .max(MIN_ESTIMATE_BYTES)
}

/// Server tuning knobs.
#[derive(Debug, Clone, Default)]
pub struct ServeOptions {
    /// Shared-secret token; when set, framed clients must present it in
    /// `hello` (same mutual-agreement rule as the coordinator) and HTTP
    /// `POST /query` must carry it (`Authorization: Bearer <token>`).
    pub auth_token: Option<String>,
    /// Admission budget in bytes; `None` admits everything immediately.
    pub mem_budget: Option<u64>,
    /// Bounded backpressure queue: how many over-budget requests may wait
    /// for memory before further ones are rejected outright. 0 = no queue.
    pub queue_depth: usize,
    /// Artifact-cache budget in bytes (`--cache-budget`); `None` disables
    /// the cache and every join runs cold. The cache charges its own
    /// [`MemTracker`], never a run's `--mem-budget` tracker.
    pub cache_budget: Option<u64>,
    /// External stop flag (tests); SIGTERM via [`shutdown`] always works.
    pub stop: Option<Arc<AtomicBool>>,
}

impl ServeOptions {
    /// Require `token` from framed clients and HTTP query submitters.
    pub fn with_auth_token(mut self, token: impl Into<String>) -> ServeOptions {
        self.auth_token = Some(token.into());
        self
    }

    /// Set the admission budget in bytes.
    pub fn with_mem_budget(mut self, bytes: u64) -> ServeOptions {
        self.mem_budget = Some(bytes);
        self
    }

    /// Set the backpressure queue bound.
    pub fn with_queue_depth(mut self, depth: usize) -> ServeOptions {
        self.queue_depth = depth;
        self
    }

    /// Set the artifact-cache budget in bytes.
    pub fn with_cache_budget(mut self, bytes: u64) -> ServeOptions {
        self.cache_budget = Some(bytes);
        self
    }

    /// Attach an external stop flag (set it to drain the server).
    pub fn with_stop(mut self, stop: Arc<AtomicBool>) -> ServeOptions {
        self.stop = Some(stop);
        self
    }
}

/// Final tallies returned by [`BenchServer::serve`] after a drain.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ServeReport {
    /// Query requests answered (including "infinite" outcomes); explain
    /// requests are not counted.
    pub served: u64,
    /// Requests that failed with a hard error.
    pub failed: u64,
    /// Requests rejected by admission control (all reasons).
    pub rejected: u64,
}

/// Why admission control turned a request away.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Rejection {
    /// The estimate exceeds the whole budget — it can never be admitted.
    OverBudget {
        /// The request's working-set estimate.
        estimate: u64,
        /// The configured budget.
        budget: u64,
    },
    /// The backpressure queue is full.
    QueueFull {
        /// The configured queue bound.
        depth: usize,
    },
    /// The server is draining and admits nothing new.
    Draining,
}

impl Rejection {
    /// The `reason` label values of the rejected-requests family in
    /// [`STATS`], indexed by [`Rejection::slot`].
    const LABELS: [&'static str; 3] = ["over_budget", "queue_full", "draining"];

    /// Human-readable rejection reason (busy frames, HTTP bodies).
    pub fn reason(&self) -> String {
        match self {
            Rejection::OverBudget { estimate, budget } => format!(
                "working-set estimate of {estimate} bytes exceeds the \
                 {budget}-byte memory budget"
            ),
            Rejection::QueueFull { depth } => {
                format!("admission queue full ({depth} waiting); retry later")
            }
            Rejection::Draining => "server is draining; not accepting new work".to_string(),
        }
    }

    /// This rejection's counter in `Metrics::rejected` (and label in
    /// [`Rejection::LABELS`]).
    fn slot(&self) -> usize {
        match self {
            Rejection::OverBudget { .. } => 0,
            Rejection::QueueFull { .. } => 1,
            Rejection::Draining => 2,
        }
    }

    /// The HTTP status for this rejection.
    fn http_status(&self) -> u16 {
        match self {
            Rejection::Draining => 503,
            _ => 429,
        }
    }
}

/// The admission controller: a [`MemTracker`] holding the budget plus the
/// bounded wait queue in front of it.
struct Admission {
    tracker: MemTracker,
    queue_depth: usize,
    queued: AtomicUsize,
}

impl Admission {
    fn new(budget: Option<u64>, queue_depth: usize) -> Admission {
        Admission {
            tracker: MemTracker::new(budget),
            queue_depth,
            queued: AtomicUsize::new(0),
        }
    }

    fn queued(&self) -> usize {
        self.queued.load(Ordering::Relaxed)
    }

    /// Reserve `estimate` bytes, waiting in the bounded queue if the budget
    /// is currently exhausted. `draining` is polled while waiting.
    fn admit(
        &self,
        estimate: u64,
        draining: &dyn Fn() -> bool,
    ) -> std::result::Result<Reservation, Rejection> {
        if draining() {
            return Err(Rejection::Draining);
        }
        if estimate > self.tracker.limit() {
            return Err(Rejection::OverBudget {
                estimate,
                budget: self.tracker.limit(),
            });
        }
        if let Ok(r) = self.tracker.reserve(estimate) {
            return Ok(r);
        }
        let (queued, join) = (&self.queued, |q: usize| {
            (q < self.queue_depth).then_some(q + 1)
        });
        if queued
            .fetch_update(Ordering::Relaxed, Ordering::Relaxed, join)
            .is_err()
        {
            return Err(Rejection::QueueFull {
                depth: self.queue_depth,
            });
        }
        // Reservations release through RAII drops that signal nothing, so
        // waiting for memory is a bounded poll.
        let admitted = loop {
            if draining() {
                break Err(Rejection::Draining);
            }
            if let Ok(r) = self.tracker.reserve(estimate) {
                break Ok(r);
            }
            std::thread::sleep(ADMIT_POLL);
        };
        self.queued.fetch_sub(1, Ordering::Relaxed);
        admitted
    }
}

/// The counters the server keeps itself; [`STATS`] says how each one (and
/// every number read from elsewhere) is exported.
#[derive(Default)]
struct Metrics {
    /// Answered queries per engine (completed + infinite + unsupported).
    queries: Mutex<BTreeMap<String, u64>>,
    served: AtomicU64,
    failed: AtomicU64,
    /// Simulated nanoseconds per plan phase: data management, analytics.
    phase_sim_nanos: [AtomicU64; 2],
    bytes_moved: AtomicU64,
    peak_alloc: AtomicU64,
    stream_batches: AtomicU64,
    spill_bytes: AtomicU64,
    /// Admission rejections, indexed by [`Rejection::slot`].
    rejected: [AtomicU64; 3],
    inflight: AtomicU64,
    connections: AtomicU64,
    /// The most recent query's admission reservation estimate, after any
    /// artifact-cache shrink — the observable that warm admission is
    /// cheaper than cold.
    last_estimate: AtomicU64,
}

impl Metrics {
    fn record_outcome(&self, engine: &str, outcome: &CellOutcome) {
        self.served.fetch_add(1, Ordering::Relaxed);
        *lock(&self.queries).entry(engine.to_string()).or_insert(0) += 1;
        if let Some(trace) = outcome.trace() {
            for op in trace {
                let phase = usize::from(matches!(op.phase, Phase::Analytics));
                self.phase_sim_nanos[phase].fetch_add(op.cost.sim_nanos, Ordering::Relaxed);
                self.bytes_moved
                    .fetch_add(op.cost.bytes_moved(), Ordering::Relaxed);
                self.peak_alloc
                    .fetch_max(op.cost.peak_alloc_bytes, Ordering::Relaxed);
                self.stream_batches
                    .fetch_add(op.cost.batches, Ordering::Relaxed);
                self.spill_bytes
                    .fetch_add(op.cost.spill_bytes, Ordering::Relaxed);
            }
        }
    }
}

/// How a [`STATS`] row reads its value off the server.
enum Reading {
    /// One value; `None` leaves the family out of `/metrics` and is `null`
    /// in `/status`.
    One(fn(&Shared) -> Option<u64>),
    /// One line per value of the named label; `/status` carries their sum.
    By(&'static str, fn(&Shared) -> Vec<(String, u64)>),
}

use Reading::{By, One};

fn load(counter: &AtomicU64) -> Option<u64> {
    Some(counter.load(Ordering::Relaxed))
}

/// `labels` paired with the current values of `counters`.
fn labelled(labels: &[&str], counters: &[AtomicU64]) -> Vec<(String, u64)> {
    let values = counters.iter().map(|c| c.load(Ordering::Relaxed));
    labels.iter().map(|l| l.to_string()).zip(values).collect()
}

/// Every number `/metrics` and `/status` export, one row each, in `/metrics`
/// order: the Prometheus name (by Prometheus convention a `_total` name is a
/// counter and any other a gauge), the `/status` key when `/status` carries
/// the number too, the help text, and the reading. `done`, `failed`,
/// `pending`, `leased`, `rejected` and `workers` mirror the coordinator
/// snapshot's progress keys, so `paper_harness status` reads either service.
/// The cache rows read 0 when caching is off, so dashboards and the CI
/// identity check can grep them unconditionally.
#[rustfmt::skip]
const STATS: &[(&str, Option<&str>, &str, Reading)] = &[
    ("genbase_queries_total", None, "Answered query requests per engine.",
        By("engine", Shared::queries)),
    ("genbase_served_total", Some("done"), "Answered query requests, all engines.",
        One(|s| load(&s.metrics.served))),
    ("genbase_query_failures_total", Some("failed"),
        "Query requests that failed with a hard error.",
        One(|s| load(&s.metrics.failed))),
    ("genbase_phase_sim_nanos_total", None, "Simulated nanoseconds per plan phase.",
        By("phase", |s| labelled(&["dm", "analytics"], &s.metrics.phase_sim_nanos))),
    ("genbase_bytes_moved_total", None,
        "Storage-layer bytes read plus materialized across served queries.",
        One(|s| load(&s.metrics.bytes_moved))),
    ("genbase_peak_alloc_bytes", None, "Largest per-operator peak allocation observed.",
        One(|s| load(&s.metrics.peak_alloc))),
    ("genbase_stream_batches_total", None,
        "Morsel batches streamed across served queries (zero unless serving with --stream).",
        One(|s| load(&s.metrics.stream_batches))),
    ("genbase_spill_bytes_total", None,
        "Bytes spilled to disk by streaming reels across served queries.",
        One(|s| load(&s.metrics.spill_bytes))),
    ("genbase_rejected_total", Some("rejected"), "Requests turned away by admission control.",
        By("reason", |s| labelled(&Rejection::LABELS, &s.metrics.rejected))),
    ("genbase_queue_depth", Some("pending"), "Requests currently waiting for admission.",
        One(|s| Some(s.admission.queued() as u64))),
    ("genbase_inflight", Some("leased"), "Queries currently executing.",
        One(|s| load(&s.metrics.inflight))),
    ("genbase_mem_reserved_bytes", Some("mem_reserved"),
        "Bytes currently reserved by admitted requests.",
        One(|s| Some(s.admission.tracker.current()))),
    ("genbase_mem_budget_bytes", Some("mem_budget"), "Configured admission budget.",
        One(|s| s.options.mem_budget)),
    ("genbase_connections", Some("workers"), "Open client connections (framed + HTTP).",
        One(|s| load(&s.metrics.connections))),
    ("genbase_cache_hits_total", Some("cache_hits"),
        "Artifact-cache hits (joins replayed from the cache).",
        One(|s| s.cache_stat(ArtifactCache::hit_count))),
    ("genbase_cache_misses_total", Some("cache_misses"),
        "Artifact-cache misses (cold joins that filled or bypassed the cache).",
        One(|s| s.cache_stat(ArtifactCache::miss_count))),
    ("genbase_cache_evictions_total", Some("cache_evictions"),
        "Artifact-cache entries evicted under the --cache-budget LRU.",
        One(|s| s.cache_stat(ArtifactCache::eviction_count))),
    ("genbase_cache_bytes", Some("cache_bytes"),
        "Bytes currently charged to the artifact cache's tracker.",
        One(|s| s.cache_stat(ArtifactCache::bytes))),
    ("genbase_loaded_tables_bytes", Some("loaded_tables_bytes"),
        "Heap bytes of the SQL base tables, SciDB arrays and Hive triple tables resident for the configured datasets.",
        One(|s| Some(s.scheduler.harness().loaded_tables_stats().0))),
    ("genbase_loaded_tables_builds_total", Some("loaded_tables_builds"),
        "Loads of a dataset's base tables, streaming spool, arrays or Hive triples (each at most once; queries borrow them).",
        One(|s| Some(s.scheduler.harness().loaded_tables_stats().1))),
    ("genbase_loaded_spool_bytes", Some("loaded_spool_bytes"),
        "Bytes of streaming spool files held on disk for the configured datasets.",
        One(|s| Some(s.scheduler.harness().loaded_spool_bytes()))),
    ("genbase_admission_estimate_bytes", None,
        "Most recent admission reservation estimate (shrinks on warm artifacts).",
        One(|s| load(&s.metrics.last_estimate))),
];

/// A request either front decoded ([`Shared::decode`]): the one vocabulary
/// [`Shared::answer`] serves.
enum Request {
    Query(CellKey),
    Explain {
        engine: Option<String>,
        query: Option<Query>,
        size: SizeClass,
        nodes: usize,
        json: bool,
    },
    Status,
    Metrics,
    Leave,
}

/// What [`Shared::answer`] made of a request; each front renders it.
enum Reply {
    /// A JSON document: a `result`, the `status` snapshot or `bye`.
    Doc(Json),
    /// The Prometheus text exposition.
    Text(String),
    /// Admission control turned the request away.
    Busy(Rejection),
    /// The named cell ran and failed with a hard error.
    Failed(String, Error),
    /// A decoded request this server could still not answer.
    Invalid(Error),
}

/// State shared by the accept loop and every connection handler.
struct Shared {
    scheduler: Scheduler,
    fingerprint: String,
    /// Compiled logical plans, one per query, kept resident for the life
    /// of the server (request validation + the `plans` status field).
    plans: Vec<LogicalPlan>,
    engine_names: Vec<String>,
    options: ServeOptions,
    admission: Admission,
    metrics: Metrics,
    draining: AtomicBool,
    /// The artifact cache (when `--cache-budget` is set), scoped under this
    /// server's config fingerprint — the same scope the harness injects
    /// into every run's [`crate::engine::ExecContext`].
    cache: Option<CacheScope>,
}

impl Shared {
    fn draining(&self) -> bool {
        self.draining.load(Ordering::Relaxed) || self.stop_requested()
    }

    fn stop_requested(&self) -> bool {
        let stop = self.options.stop.as_ref();
        shutdown::requested() || stop.is_some_and(|s| s.load(Ordering::Relaxed))
    }

    fn config(&self) -> &HarnessConfig {
        self.scheduler.harness().config()
    }

    /// One artifact-cache counter, 0 when caching is off.
    fn cache_stat(&self, stat: fn(&ArtifactCache) -> u64) -> Option<u64> {
        Some(self.cache.as_ref().map_or(0, |scope| stat(scope.cache())))
    }

    /// Answered queries per engine.
    fn queries(&self) -> Vec<(String, u64)> {
        let queries = lock(&self.metrics.queries);
        queries.iter().map(|(e, n)| (e.clone(), *n)).collect()
    }

    /// Decode one request of kind `kind` — a post-handshake frame, or
    /// `POST /query`'s body as a `query` — for [`Shared::answer`]. A `query`
    /// needs `engine` (any case) and `query`; both kinds default `size` to
    /// the first configured size class and `nodes` to 1, and refuse a size
    /// this server does not hold and a `nodes` that is not a whole number of
    /// at least 1. Unlike other unknown
    /// keys, a `query`'s `stream` key is refused: its sender expects to pick a
    /// streaming lowering per request, and must not silently get a
    /// differently-traced cell.
    fn decode(&self, kind: &str, req: &Json) -> Result<Request> {
        match kind {
            "query" | "explain" => {}
            "status" => return Ok(Request::Status),
            "leave" => return Ok(Request::Leave),
            other => return Err(Error::invalid(format!("unexpected frame type {other:?}"))),
        }
        if kind == "query" && req.get("stream").is_some() {
            return Err(Error::invalid(
                "the per-request \"stream\" key is retired: the server's --stream \
                 configuration is the only streaming control",
            ));
        }
        let text = |key| req.get(key).and_then(Json::as_str);
        let unknown = |what, name: &str| Error::invalid(format!("unknown {what} {name:?}"));
        let query = match text("query") {
            Some(name) => Some(Query::from_name(name).ok_or_else(|| unknown("query", name))?),
            None => None,
        };
        let sizes = &self.config().sizes;
        let size = match text("size") {
            Some(slug) => SizeClass::from_slug(slug).ok_or_else(|| unknown("size", slug))?,
            None => *sizes
                .first()
                .ok_or_else(|| Error::invalid("server has no configured sizes"))?,
        };
        if !sizes.contains(&size) {
            return Err(Error::invalid(format!(
                "size {:?} is not resident on this server (configured: {:?})",
                size.slug(),
                sizes.iter().map(|s| s.slug()).collect::<Vec<_>>()
            )));
        }
        let nodes = match req.get("nodes") {
            None => 1,
            Some(nodes) => (nodes.as_u64().filter(|&n| n >= 1))
                .and_then(|n| usize::try_from(n).ok())
                .ok_or_else(|| Error::invalid("nodes must be a whole number of at least 1"))?,
        };
        if kind == "explain" {
            let engine = text("engine").map(str::to_string);
            let json = matches!(req.get("json"), Some(Json::Bool(true)));
            return Ok(Request::Explain {
                engine,
                query,
                size,
                nodes,
                json,
            });
        }
        let engine =
            text("engine").ok_or_else(|| Error::invalid("query request missing engine"))?;
        Ok(Request::Query(CellKey {
            query: query.ok_or_else(|| Error::invalid("query request missing query"))?,
            size,
            nodes,
            engine: (self.engine_names.iter())
                .find(|e| e.eq_ignore_ascii_case(engine))
                .ok_or_else(|| unknown("engine", engine))?
                .clone(),
        }))
    }

    /// The working-set bytes the admission controller reserves for a query
    /// against `size`: the cold estimate minus whatever join artifacts
    /// for that dataset are already resident in the cache
    /// (still floored at [`MIN_ESTIMATE_BYTES`] — a warm query is cheaper,
    /// never free).
    fn admission_estimate(&self, size: SizeClass) -> u64 {
        let base = working_set_estimate(self.config(), size);
        let Some(scope) = &self.cache else {
            return base;
        };
        let spec = SizeSpec::scaled(size, self.config().scale);
        let resident = scope
            .cache()
            .bytes_under_prefix(&scope.size_prefix(spec.patients, spec.genes));
        base.saturating_sub(resident).max(MIN_ESTIMATE_BYTES)
    }

    /// Run `work` holding a reservation of `estimate` bytes of the admission
    /// budget, queueing behind requests already in flight; a rejection is
    /// counted and answered as `busy`.
    fn reserved(&self, estimate: u64, work: impl FnOnce() -> Reply) -> Reply {
        match self.admission.admit(estimate, &|| self.draining()) {
            Ok(_reservation) => work(),
            Err(rejection) => {
                self.metrics.rejected[rejection.slot()].fetch_add(1, Ordering::Relaxed);
                Reply::Busy(rejection)
            }
        }
    }

    /// Answer one decoded request: the one place either front's requests
    /// are admitted, executed and counted. A query or an explain holds its
    /// working-set reservation for exactly the duration of its run.
    fn answer(&self, request: Request) -> Reply {
        match request {
            Request::Query(key) => {
                let (m, estimate) = (&self.metrics, self.admission_estimate(key.size));
                m.last_estimate.store(estimate, Ordering::Relaxed);
                self.reserved(estimate, || {
                    m.inflight.fetch_add(1, Ordering::Relaxed);
                    let run = self.scheduler.run_cell(&key, self.config().threads.max(1));
                    m.inflight.fetch_sub(1, Ordering::Relaxed);
                    match run {
                        Ok(outcome) => {
                            m.record_outcome(&key.engine, &outcome);
                            let mut reply = msg("result");
                            reply.set("cell", Json::from(key.id()));
                            reply.set("outcome", outcome.to_json());
                            Reply::Doc(reply)
                        }
                        Err(e) => {
                            m.failed.fetch_add(1, Ordering::Relaxed);
                            Reply::Failed(key.id(), e)
                        }
                    }
                })
            }
            Request::Explain {
                engine,
                query,
                size,
                nodes,
                json,
            } => self.reserved(self.admission_estimate(size), || {
                let (harness, engine) = (self.scheduler.harness(), engine.as_deref());
                let explained = if json {
                    let text = figures::explain_json(harness, size, nodes, engine, query);
                    text.map(|text| ("explain_json", text))
                } else {
                    let fig = figures::explain(harness, size, nodes, engine, query);
                    fig.map(|fig| ("explain", fig.render()))
                };
                match explained {
                    Ok((field, text)) => {
                        let mut reply = msg("result");
                        reply.set(field, Json::from(text));
                        Reply::Doc(reply)
                    }
                    Err(e) => Reply::Invalid(e),
                }
            }),
            Request::Status => Reply::Doc(self.status_json()),
            Request::Metrics => Reply::Text(self.metrics_text()),
            Request::Leave => Reply::Doc(msg("bye")),
        }
    }

    /// The `/status` document (also the framed `status` reply): who this
    /// server is, then every [`STATS`] row that has a `/status` key.
    fn status_json(&self) -> Json {
        let mut m = msg("status");
        m.set("service", Json::from("serve"));
        let state = if self.draining() {
            "draining"
        } else {
            "serving"
        };
        m.set("state", Json::from(state));
        m.set("fingerprint", Json::from(self.fingerprint.as_str()));
        m.set("plans", Json::from(self.plans.len()));
        let engines = self.engine_names.iter().map(|e| Json::from(e.as_str()));
        m.set("engines", Json::Arr(engines.collect()));
        let sizes = self.config().sizes.iter().map(|s| Json::from(s.slug()));
        m.set("sizes", Json::Arr(sizes.collect()));
        m.set("queue_depth", Json::from(self.admission.queue_depth));
        let (budget, entries) = match &self.cache {
            Some(scope) => (Json::from(scope.cache().budget()), scope.cache().entries()),
            None => (Json::Null, 0),
        };
        m.set("cache_budget", budget);
        m.set("cache_entries", Json::from(entries));
        for (_, status, _, reading) in STATS {
            let Some(key) = status else { continue };
            let value = match reading {
                One(read) => read(self),
                By(_, read) => Some(read(self).iter().map(|(_, n)| n).sum()),
            };
            m.set(key, value.map_or(Json::Null, Json::from));
        }
        m
    }

    /// Render the Prometheus text exposition for `GET /metrics`.
    fn metrics_text(&self) -> String {
        let mut out = String::new();
        for (name, _, help, reading) in STATS {
            let lines: String = match reading {
                One(read) => match read(self) {
                    Some(value) => format!("{name} {value}\n"),
                    None => continue,
                },
                By(label, read) => (read(self).iter())
                    .map(|(key, value)| format!("{name}{{{label}=\"{key}\"}} {value}\n"))
                    .collect(),
            };
            let kind = if name.ends_with("_total") {
                "counter"
            } else {
                "gauge"
            };
            out.push_str(&format!(
                "# HELP {name} {help}\n# TYPE {name} {kind}\n{lines}"
            ));
        }
        out
    }
}

/// The resident benchmark server: bind with [`BenchServer::bind`], run with
/// [`BenchServer::serve`].
pub struct BenchServer {
    frame_listener: TcpListener,
    http_listener: TcpListener,
    shared: Shared,
}

impl BenchServer {
    /// Bind the framed and HTTP listeners (use port 0 for ephemeral), build
    /// the resident scheduler, pre-generate every configured dataset and
    /// compile all five logical plans. Nothing is served until
    /// [`BenchServer::serve`].
    pub fn bind(
        frame_addr: impl ToSocketAddrs,
        http_addr: impl ToSocketAddrs,
        config: HarnessConfig,
        options: ServeOptions,
    ) -> Result<BenchServer> {
        let frame_listener = TcpListener::bind(frame_addr)
            .map_err(|e| Error::invalid(format!("serve bind (framed): {e}")))?;
        let http_listener = TcpListener::bind(http_addr)
            .map_err(|e| Error::invalid(format!("serve bind (http): {e}")))?;
        let fingerprint = config_fingerprint(&config);
        let mut scheduler = Scheduler::new(config)?;
        let cache = options.cache_budget.map(|budget| {
            let cache = ArtifactCache::new(budget);
            scheduler.harness_mut().set_artifact_cache(cache.clone());
            CacheScope::new(cache, fingerprint.clone())
        });
        // Warm the pool: every configured size is generated now, so the
        // first query pays no generation latency and concurrent first
        // requests cannot race dataset construction.
        for &size in &scheduler.harness().config().sizes.clone() {
            scheduler.harness().dataset(size)?;
        }
        let plans = Query::ALL.into_iter().map(logical_plan).collect();
        let engine_names = crate::engines::all_engines()
            .iter()
            .map(|e| e.name().to_string())
            .collect();
        let admission = Admission::new(options.mem_budget, options.queue_depth);
        Ok(BenchServer {
            frame_listener,
            http_listener,
            shared: Shared {
                scheduler,
                fingerprint,
                plans,
                engine_names,
                options,
                admission,
                metrics: Metrics::default(),
                draining: AtomicBool::new(false),
                cache,
            },
        })
    }

    /// The framed listener's bound address.
    pub fn frame_addr(&self) -> Result<SocketAddr> {
        self.frame_listener
            .local_addr()
            .map_err(|e| Error::invalid(format!("serve addr: {e}")))
    }

    /// The HTTP listener's bound address.
    pub fn http_addr(&self) -> Result<SocketAddr> {
        self.http_listener
            .local_addr()
            .map_err(|e| Error::invalid(format!("serve addr: {e}")))
    }

    /// Accept and answer requests until SIGTERM or the stop flag, then
    /// drain: stop accepting, let in-flight queries finish, turn queued
    /// admissions away as draining, and join every connection handler.
    pub fn serve(&self) -> Result<ServeReport> {
        let shared = &self.shared;
        // Handlers borrow the scheduler (its `dyn Engine` registry is
        // `Sync` but not `Send`) from this thread for the life of the call.
        let counted = |handle: fn(TcpStream, &Shared)| {
            move |stream: TcpStream| {
                shared.metrics.connections.fetch_add(1, Ordering::Relaxed);
                handle(stream, shared);
                shared.metrics.connections.fetch_sub(1, Ordering::Relaxed);
            }
        };
        let (framed, http) = (counted(handle_frame_conn), counted(handle_http_conn));
        // Drain: no new admissions; every idle connection notices within
        // one IDLE_POLL tick and gets a `bye`; in-flight queries complete
        // and deliver their result before their handler exits.
        session::run_listeners(
            "serve",
            &[
                (&self.frame_listener, &framed),
                (&self.http_listener, &http),
            ],
            || !shared.stop_requested(),
            || shared.draining.store(true, Ordering::Relaxed),
        )?;
        let m = &shared.metrics;
        Ok(ServeReport {
            served: m.served.load(Ordering::Relaxed),
            failed: m.failed.load(Ordering::Relaxed),
            rejected: m.rejected.iter().map(|r| r.load(Ordering::Relaxed)).sum(),
        })
    }
}

/// One framed connection: the `hello` gate (a `config` fingerprint is
/// optional for clients, checked when present), `welcome`, then
/// request/reply until the client leaves, errors, or the server drains.
fn handle_frame_conn(mut stream: TcpStream, shared: &Shared) {
    let gate = Gate {
        token: shared.options.auth_token.as_deref(),
        fingerprint: &shared.fingerprint,
        roles: &[("client", false), ("status", false)],
    };
    if session::admit(&mut stream, &gate).is_err() {
        return;
    }
    let mut welcome = msg("welcome");
    welcome.set("service", Json::from("serve"));
    welcome.set("fingerprint", Json::from(shared.fingerprint.as_str()));
    if write_frame(&mut stream, &welcome).is_err() {
        return;
    }
    let _ = stream.set_read_timeout(Some(IDLE_POLL));
    session::frame_loop(
        &mut stream,
        // Poll for readability so a drain is noticed between requests;
        // peek honors the read timeout without consuming bytes.
        |stream| loop {
            match stream.peek(&mut [0u8; 1]) {
                Ok(_) => return true,
                Err(e)
                    if e.kind() == std::io::ErrorKind::WouldBlock
                        || e.kind() == std::io::ErrorKind::TimedOut =>
                {
                    if shared.draining() {
                        let mut bye = msg("bye");
                        bye.set("reason", Json::from("draining"));
                        let _ = write_frame(stream, &bye);
                        return false;
                    }
                }
                Err(_) => return false,
            }
        },
        |frame| {
            let request = shared.decode(msg_type(frame)?, frame)?;
            frame_reply(shared.answer(request)).map(Some)
        },
    );
}

/// A [`Reply`] as a frame. An admission rejection is a `busy` frame on a
/// connection that stays open (`retry` is false only for a request that can
/// never fit the budget); an invalid request is `Err`, which the frame loop
/// sends as a `reject` before it closes the connection.
fn frame_reply(reply: Reply) -> Result<Json> {
    Ok(match reply {
        Reply::Doc(doc) => doc,
        Reply::Busy(rejection) => {
            let mut busy = msg("busy");
            busy.set("reason", Json::from(rejection.reason()));
            let retry = !matches!(rejection, Rejection::OverBudget { .. });
            busy.set("retry", Json::Bool(retry));
            busy
        }
        Reply::Failed(cell, e) => {
            let mut failed = msg("failed");
            failed.set("cell", Json::from(cell));
            failed.set("error", Json::from(e.to_string()));
            failed
        }
        Reply::Invalid(e) => return Err(e),
        Reply::Text(_) => unreachable!("no frame decodes to a metrics request"),
    })
}

/// One HTTP connection: a single request, a single response, close.
fn handle_http_conn(stream: TcpStream, shared: &Shared) {
    let answered = match session::read_http(&stream) {
        Ok(Some(request)) => decode_http(&request, shared).map(|r| shared.answer(r)),
        Ok(None) => return,
        Err(e) => Err((400, format!("bad request: {e}\n"))),
    };
    let text = "text/plain";
    let (status, content_type, body) = match answered {
        Ok(Reply::Doc(doc)) => (200, "application/json", doc.render()),
        Ok(Reply::Text(metrics)) => (200, "text/plain; version=0.0.4; charset=utf-8", metrics),
        Ok(Reply::Busy(r)) => (r.http_status(), text, format!("{}\n", r.reason())),
        Ok(Reply::Failed(_, e)) => (500, text, format!("query failed: {e}\n")),
        Ok(Reply::Invalid(e)) => (400, text, format!("{e}\n")),
        Err((status, body)) => (status, text, body),
    };
    let _ = http::write_response(&mut &stream, status, content_type, body.as_bytes());
}

/// Decode one HTTP request, or give the status and body this front answers
/// it with itself: 401 without the bearer token, 400 for a body that does
/// not decode, 405 and 404 for anything but the three endpoints.
fn decode_http(
    request: &HttpRequest,
    shared: &Shared,
) -> std::result::Result<Request, (u16, String)> {
    match (request.method.as_str(), request.path.as_str()) {
        ("GET", "/status") => Ok(Request::Status),
        ("GET", "/metrics") => Ok(Request::Metrics),
        ("POST", "/query") => {
            if let Some(token) = shared.options.auth_token.as_deref() {
                let authorized = request.header("authorization")
                    == Some(format!("Bearer {token}").as_str())
                    || request.header("x-genbase-token") == Some(token);
                if !authorized {
                    return Err((401, "missing or wrong auth token\n".to_string()));
                }
            }
            let body = std::str::from_utf8(&request.body)
                .map_err(|_| (400, "body is not UTF-8\n".to_string()))?;
            let req = Json::parse(body).map_err(|e| (400, format!("bad request body: {e}\n")))?;
            shared
                .decode("query", &req)
                .map_err(|e| (400, format!("{e}\n")))
        }
        ("GET", "/query") => Err((405, "use POST /query\n".to_string())),
        _ => Err((
            404,
            "not found; endpoints: GET /status, GET /metrics, POST /query\n".to_string(),
        )),
    }
}

/// Connect to a server's framed listener, handshake, send one request
/// frame and return the reply — the client side the `paper_harness query`
/// subcommand and the integration tests share.
pub fn client_request(
    addr: impl ToSocketAddrs,
    auth_token: Option<&str>,
    request: &Json,
) -> Result<Json> {
    session::request(addr, Duration::ZERO, "client", auth_token, request)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn working_set_estimate_is_floored_at_tiny_scales() {
        let mut config = HarnessConfig::quick().sim_only();
        assert_eq!(
            working_set_estimate(&config, SizeClass::Small),
            MIN_ESTIMATE_BYTES,
            "CI-scale datasets floor at the minimum estimate"
        );
        config.scale = 1.0;
        assert!(working_set_estimate(&config, SizeClass::Large) > MIN_ESTIMATE_BYTES);
    }

    #[test]
    fn admission_rejects_estimates_larger_than_the_whole_budget() {
        let a = Admission::new(Some(100), 4);
        match a.admit(101, &|| false) {
            Err(Rejection::OverBudget { estimate, budget }) => {
                assert_eq!((estimate, budget), (101, 100));
            }
            Err(other) => panic!("expected OverBudget, got {other:?}"),
            Ok(_) => panic!("expected OverBudget, got an admission"),
        }
        assert_eq!(a.queued(), 0, "a hopeless request never queues");
    }

    #[test]
    fn unlimited_budget_admits_everything_immediately() {
        let a = Admission::new(None, 0);
        let r = a.admit(u64::MAX / 2, &|| false).expect("unlimited admits");
        assert_eq!(r.bytes(), u64::MAX / 2);
    }

    #[test]
    fn admission_queues_until_memory_frees_and_bounds_the_queue() {
        let a = Arc::new(Admission::new(Some(100), 1));
        let held = a.admit(80, &|| false).expect("first request fits");
        // A second request queues behind the exhausted budget...
        let waiter = {
            let a = Arc::clone(&a);
            std::thread::spawn(move || a.admit(80, &|| false).map(|r| r.bytes()))
        };
        while a.queued() == 0 {
            std::thread::sleep(Duration::from_millis(1));
        }
        // ...a third overflows the bounded queue and is turned away...
        match a.admit(80, &|| false) {
            Err(Rejection::QueueFull { depth }) => assert_eq!(depth, 1),
            Err(other) => panic!("expected QueueFull, got {other:?}"),
            Ok(_) => panic!("expected QueueFull, got an admission"),
        }
        // ...and dropping the held reservation admits the queued one.
        drop(held);
        assert_eq!(waiter.join().unwrap(), Ok(80));
        assert_eq!(a.queued(), 0);
        // The waiter's reservation was RAII-released when it went out of
        // scope, so the budget is whole again.
        assert_eq!(a.tracker.current(), 0);
    }

    #[test]
    fn queued_admissions_exit_when_the_server_drains() {
        let a = Arc::new(Admission::new(Some(100), 2));
        let _held = a.admit(100, &|| false).expect("fits exactly");
        let draining = Arc::new(AtomicBool::new(false));
        let waiter = {
            let (a, draining) = (Arc::clone(&a), Arc::clone(&draining));
            std::thread::spawn(move || a.admit(50, &|| draining.load(Ordering::Relaxed)))
        };
        while a.queued() == 0 {
            std::thread::sleep(Duration::from_millis(1));
        }
        draining.store(true, Ordering::Relaxed);
        assert_eq!(waiter.join().unwrap().err(), Some(Rejection::Draining));
        assert_eq!(a.queued(), 0);
    }

    #[test]
    fn metrics_still_render_after_a_holder_of_the_metrics_lock_panicked() {
        let server = BenchServer::bind(
            "127.0.0.1:0",
            "127.0.0.1:0",
            HarnessConfig::quick().sim_only(),
            ServeOptions::default(),
        )
        .expect("bind");
        let shared = &server.shared;
        let holder = std::thread::scope(|s| {
            s.spawn(|| {
                let _guard = shared.metrics.queries.lock().unwrap();
                panic!("handler died holding the metrics lock");
            })
            .join()
        });
        assert!(holder.is_err() && shared.metrics.queries.is_poisoned());
        assert!(shared.metrics_text().contains("genbase_served_total 0\n"));

        // Likewise the dataset pool every served cell goes through: a
        // poisoned slot lock must not turn later queries into panics.
        shared.scheduler.harness().pool().poison_for_test();
        let key = CellKey {
            query: Query::Covariance,
            size: SizeClass::Small,
            nodes: 1,
            engine: "SciDB".to_string(),
        };
        let Reply::Doc(reply) = shared.answer(Request::Query(key.clone())) else {
            panic!("expected a result");
        };
        let expected = Scheduler::new(HarnessConfig::quick().sim_only())
            .unwrap()
            .run_cell(&key, shared.config().threads.max(1))
            .unwrap();
        assert_eq!(reply.get("outcome"), Some(&expected.to_json()));
        assert!(shared.metrics_text().contains("genbase_served_total 1\n"));
    }
}
