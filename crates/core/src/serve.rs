//! The resident benchmark server behind `paper_harness serve`.
//!
//! A batch sweep pays dataset generation and plan compilation on every
//! invocation. This module keeps that state resident — the pool-backed
//! [`Scheduler`] (datasets, engine registry) and the compiled
//! [`LogicalPlan`]s — inside one long-running process that answers query /
//! explain / status requests from many concurrent clients, on two listeners:
//!
//! - a **framed** listener behind the session layer's `hello` gate
//!   (`session.rs`, shared with the sweep coordinator), then `query` /
//!   `explain` / `status` request frames (a `query` or `explain` naming a
//!   size outside the server's configured, resident ones is a `reject`);
//! - a minimal **HTTP/1.1** listener (`GET /status`, `GET /metrics` in
//!   Prometheus text format, `POST /query`).
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
use crate::harness::{HarnessConfig, TimingMode};
use crate::plan::{logical_plan, LogicalPlan, Phase};
use crate::query::Query;
use crate::sched::{config_fingerprint, CellKey, CellOutcome, FigureId, Scheduler};
use crate::session::{self, msg, msg_type, Gate};
use genbase_datagen::{SizeClass, SizeSpec};
use genbase_storage::{ArtifactCache, CacheScope, MemTracker, Reservation};
use genbase_util::frame::write_frame;
use genbase_util::{http, lock, shutdown, Error, Json, Result};
use std::collections::{BTreeMap, HashMap};
use std::net::{SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex, PoisonError};
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
    /// Enable the served-result cache (`--result-cache`): a completed
    /// SimOnly outcome is replayed byte-identically for repeat queries on
    /// the same cell. Ignored (always cold) under measured timing, where
    /// wall-clock fields make replays non-identical by construction.
    pub result_cache: bool,
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

    /// Enable the served-result cache.
    pub fn with_result_cache(mut self) -> ServeOptions {
        self.result_cache = true;
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
    /// Query/explain requests answered (including "infinite" outcomes).
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

    /// The `/metrics` label and HTTP status for this rejection.
    fn label_and_status(&self) -> (&'static str, u16) {
        match self {
            Rejection::OverBudget { .. } => ("over_budget", 429),
            Rejection::QueueFull { .. } => ("queue_full", 429),
            Rejection::Draining => ("draining", 503),
        }
    }
}

/// The admission controller: a [`MemTracker`] holding the budget plus the
/// bounded wait queue in front of it.
struct Admission {
    tracker: MemTracker,
    queue_depth: usize,
    queued: Mutex<usize>,
    freed: Condvar,
}

impl Admission {
    fn new(budget: Option<u64>, queue_depth: usize) -> Admission {
        Admission {
            tracker: MemTracker::new(budget),
            queue_depth,
            queued: Mutex::new(0),
            freed: Condvar::new(),
        }
    }

    fn queued(&self) -> usize {
        *lock(&self.queued)
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
        let mut queued = lock(&self.queued);
        if *queued >= self.queue_depth {
            return Err(Rejection::QueueFull {
                depth: self.queue_depth,
            });
        }
        *queued += 1;
        loop {
            if draining() {
                *queued -= 1;
                return Err(Rejection::Draining);
            }
            match self.tracker.reserve(estimate) {
                Ok(r) => {
                    *queued -= 1;
                    return Ok(r);
                }
                Err(_) => {
                    // Reservations release through RAII drops that cannot
                    // signal the condvar, so the wait is a bounded poll.
                    let (guard, _) = self
                        .freed
                        .wait_timeout(queued, ADMIT_POLL)
                        .unwrap_or_else(PoisonError::into_inner);
                    queued = guard;
                }
            }
        }
    }
}

/// Monotonic counters and gauges behind `GET /metrics`.
#[derive(Default)]
struct Metrics {
    /// Answered queries per engine (completed + infinite + unsupported).
    queries: Mutex<BTreeMap<String, u64>>,
    served: AtomicU64,
    failed: AtomicU64,
    dm_sim_nanos: AtomicU64,
    an_sim_nanos: AtomicU64,
    bytes_moved: AtomicU64,
    peak_alloc: AtomicU64,
    stream_batches: AtomicU64,
    spill_bytes: AtomicU64,
    rejected_over_budget: AtomicU64,
    rejected_queue_full: AtomicU64,
    rejected_draining: AtomicU64,
    inflight: AtomicU64,
    connections: AtomicU64,
    /// Result-cache replays (a subset of `served`).
    result_hits: AtomicU64,
    /// The most recent admission reservation estimate, after any
    /// artifact-cache shrink — the observable that warm admission is
    /// cheaper than cold.
    last_estimate: AtomicU64,
}

impl Metrics {
    fn record_outcome(&self, engine: &str, outcome: &CellOutcome) {
        self.served.fetch_add(1, Ordering::Relaxed);
        *lock(&self.queries).entry(engine.to_string()).or_insert(0) += 1;
        if let CellOutcome::Completed { trace, .. } = outcome {
            for op in trace {
                let nanos = op.cost.sim_nanos;
                match op.phase {
                    Phase::DataManagement => &self.dm_sim_nanos,
                    Phase::Analytics => &self.an_sim_nanos,
                }
                .fetch_add(nanos, Ordering::Relaxed);
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

    fn record_rejection(&self, rejection: &Rejection) {
        match rejection.label_and_status().0 {
            "over_budget" => &self.rejected_over_budget,
            "queue_full" => &self.rejected_queue_full,
            _ => &self.rejected_draining,
        }
        .fetch_add(1, Ordering::Relaxed);
    }

    fn rejected_total(&self) -> u64 {
        self.rejected_over_budget.load(Ordering::Relaxed)
            + self.rejected_queue_full.load(Ordering::Relaxed)
            + self.rejected_draining.load(Ordering::Relaxed)
    }
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
    /// Completed SimOnly replies by cell id, replayed byte-identically for
    /// repeat queries. `None` when `--result-cache` is off or timing is
    /// measured.
    results: Option<Mutex<HashMap<String, Json>>>,
}

impl Shared {
    fn draining(&self) -> bool {
        self.draining.load(Ordering::Relaxed) || self.stop_requested()
    }

    fn stop_requested(&self) -> bool {
        shutdown::requested()
            || self
                .options
                .stop
                .as_ref()
                .is_some_and(|s| s.load(Ordering::Relaxed))
    }

    fn config(&self) -> &HarnessConfig {
        self.scheduler.harness().config()
    }

    /// Resolve an engine name case-insensitively to its canonical form.
    fn canonical_engine(&self, name: &str) -> Result<String> {
        self.engine_names
            .iter()
            .find(|e| e.eq_ignore_ascii_case(name))
            .cloned()
            .ok_or_else(|| Error::invalid(format!("unknown engine {name:?}")))
    }

    /// The query a request names, if it names one.
    fn query_from_request(req: &Json) -> Result<Option<Query>> {
        let name = req.get("query").and_then(Json::as_str);
        let parse = |name| {
            Query::from_name(name).ok_or_else(|| Error::invalid(format!("unknown query {name:?}")))
        };
        name.map(parse).transpose()
    }

    /// The size class a request names — the first configured one when it
    /// names none — which must be resident on this server.
    fn size_from_request(&self, req: &Json) -> Result<SizeClass> {
        let sizes = &self.config().sizes;
        let size = match req.get("size").and_then(Json::as_str) {
            Some(slug) => SizeClass::from_slug(slug)
                .ok_or_else(|| Error::invalid(format!("unknown size {slug:?}")))?,
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
        Ok(size)
    }

    /// Build the cell key a query request names. `engine` and `query` are
    /// required; `size` defaults to the first configured size class,
    /// `nodes` to 1 and `figure` to fig1. Unlike other unknown keys, a
    /// `stream` key is rejected: clients that send it expect to pick a
    /// streaming lowering per request, and must not silently get a
    /// differently-traced cell.
    fn cell_from_request(&self, req: &Json) -> Result<CellKey> {
        if req.get("stream").is_some() {
            return Err(Error::invalid(
                "the per-request \"stream\" key is retired: the server's --stream \
                 configuration is the only streaming control",
            ));
        }
        let engine = req
            .get("engine")
            .and_then(Json::as_str)
            .ok_or_else(|| Error::invalid("query request missing engine"))?;
        let query = Self::query_from_request(req)?
            .ok_or_else(|| Error::invalid("query request missing query"))?;
        let size = self.size_from_request(req)?;
        let figure = match req.get("figure").and_then(Json::as_str) {
            Some(name) => FigureId::from_name(name)
                .ok_or_else(|| Error::invalid(format!("unknown figure {name:?}")))?,
            None => FigureId::Fig1,
        };
        Ok(CellKey {
            figure,
            query,
            size,
            nodes: req.get("nodes").and_then(Json::as_u64).unwrap_or(1) as usize,
            engine: self.canonical_engine(engine)?,
        })
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

    /// Reserve `estimate` bytes of the admission budget, queueing behind
    /// requests already in flight; a rejection is counted before it is
    /// returned.
    fn admit(&self, estimate: u64) -> std::result::Result<Reservation, Rejection> {
        let admitted = self.admission.admit(estimate, &|| self.draining());
        admitted.inspect_err(|r| self.metrics.record_rejection(r))
    }

    /// Admit and execute one query request; the reservation is held for
    /// exactly the duration of the run. A result-cache hit replays the
    /// stored reply without admission: no storage is touched, so there is
    /// nothing to reserve.
    fn execute(&self, key: &CellKey) -> std::result::Result<Json, ServeError> {
        let id = key.id();
        if let Some(results) = &self.results {
            if let Some(reply) = lock(results).get(&id) {
                self.metrics.result_hits.fetch_add(1, Ordering::Relaxed);
                self.metrics.served.fetch_add(1, Ordering::Relaxed);
                *lock(&self.metrics.queries)
                    .entry(key.engine.clone())
                    .or_insert(0) += 1;
                return Ok(reply.clone());
            }
        }
        let estimate = self.admission_estimate(key.size);
        self.metrics
            .last_estimate
            .store(estimate, Ordering::Relaxed);
        let _reservation = self.admit(estimate).map_err(ServeError::Rejected)?;
        self.metrics.inflight.fetch_add(1, Ordering::Relaxed);
        let threads = self.config().threads.max(1);
        let run = self.scheduler.run_cell(key, threads);
        self.metrics.inflight.fetch_sub(1, Ordering::Relaxed);
        match run {
            Ok(outcome) => {
                self.metrics.record_outcome(&key.engine, &outcome);
                let mut reply = Json::obj();
                reply.set("type", Json::from("result"));
                reply.set("cell", Json::from(id.as_str()));
                reply.set("outcome", outcome.to_json());
                if let (Some(results), CellOutcome::Completed { .. }) = (&self.results, &outcome) {
                    lock(results).insert(id, reply.clone());
                }
                Ok(reply)
            }
            Err(e) => {
                self.metrics.failed.fetch_add(1, Ordering::Relaxed);
                Err(ServeError::Failed(e))
            }
        }
    }

    /// The `/status` document (also the framed `status` reply).
    fn status_json(&self) -> Json {
        let mut m = Json::obj();
        m.set("type", Json::from("status"));
        m.set("service", Json::from("serve"));
        m.set(
            "state",
            Json::from(if self.draining() {
                "draining"
            } else {
                "serving"
            }),
        );
        m.set("fingerprint", Json::from(self.fingerprint.as_str()));
        m.set("plans", Json::from(self.plans.len()));
        m.set(
            "engines",
            Json::Arr(
                self.engine_names
                    .iter()
                    .map(|e| Json::from(e.as_str()))
                    .collect(),
            ),
        );
        m.set(
            "sizes",
            Json::Arr(
                self.config()
                    .sizes
                    .iter()
                    .map(|s| Json::from(s.slug()))
                    .collect(),
            ),
        );
        // Mirrors of the coordinator snapshot's progress keys.
        m.set(
            "done",
            Json::from(self.metrics.served.load(Ordering::Relaxed)),
        );
        m.set(
            "failed",
            Json::from(self.metrics.failed.load(Ordering::Relaxed)),
        );
        m.set("pending", Json::from(self.admission.queued()));
        m.set(
            "leased",
            Json::from(self.metrics.inflight.load(Ordering::Relaxed)),
        );
        m.set("rejected", Json::from(self.metrics.rejected_total()));
        m.set(
            "workers",
            Json::from(self.metrics.connections.load(Ordering::Relaxed)),
        );
        m.set(
            "mem_budget",
            match self.options.mem_budget {
                Some(bytes) => Json::from(bytes),
                None => Json::Null,
            },
        );
        m.set("mem_reserved", Json::from(self.admission.tracker.current()));
        m.set("queue_depth", Json::from(self.admission.queue_depth));
        match &self.cache {
            Some(scope) => {
                let cache = scope.cache();
                m.set("cache_budget", Json::from(cache.budget()));
                m.set("cache_bytes", Json::from(cache.bytes()));
                m.set("cache_entries", Json::from(cache.entries()));
                m.set("cache_hits", Json::from(cache.hit_count()));
                m.set("cache_misses", Json::from(cache.miss_count()));
                m.set("cache_evictions", Json::from(cache.eviction_count()));
            }
            None => m.set("cache_budget", Json::Null),
        }
        let (tables_bytes, tables_builds) = self.scheduler.harness().loaded_tables_stats();
        m.set("loaded_tables_bytes", Json::from(tables_bytes));
        m.set("loaded_tables_builds", Json::from(tables_builds));
        m.set(
            "loaded_spool_bytes",
            Json::from(self.scheduler.harness().loaded_spool_bytes()),
        );
        m.set("result_cache", Json::Bool(self.results.is_some()));
        m.set(
            "result_cache_hits",
            Json::from(self.metrics.result_hits.load(Ordering::Relaxed)),
        );
        if let Some(results) = &self.results {
            m.set("result_cache_entries", Json::from(lock(results).len()));
        }
        m
    }

    /// Render the Prometheus text exposition for `GET /metrics`.
    fn metrics_text(&self) -> String {
        let m = &self.metrics;
        let mut out = String::new();
        let counter = |out: &mut String, name: &str, help: &str, value: u64| {
            out.push_str(&format!(
                "# HELP {name} {help}\n# TYPE {name} counter\n{name} {value}\n"
            ));
        };
        let gauge = |out: &mut String, name: &str, help: &str, value: u64| {
            out.push_str(&format!(
                "# HELP {name} {help}\n# TYPE {name} gauge\n{name} {value}\n"
            ));
        };
        out.push_str(
            "# HELP genbase_queries_total Answered query requests per engine.\n\
             # TYPE genbase_queries_total counter\n",
        );
        for (engine, count) in lock(&m.queries).iter() {
            out.push_str(&format!(
                "genbase_queries_total{{engine=\"{engine}\"}} {count}\n"
            ));
        }
        counter(
            &mut out,
            "genbase_served_total",
            "Answered query requests, all engines.",
            m.served.load(Ordering::Relaxed),
        );
        counter(
            &mut out,
            "genbase_query_failures_total",
            "Query requests that failed with a hard error.",
            m.failed.load(Ordering::Relaxed),
        );
        out.push_str(
            "# HELP genbase_phase_sim_nanos_total Simulated nanoseconds per plan phase.\n\
             # TYPE genbase_phase_sim_nanos_total counter\n",
        );
        for (phase, counter_ref) in [("dm", &m.dm_sim_nanos), ("analytics", &m.an_sim_nanos)] {
            out.push_str(&format!(
                "genbase_phase_sim_nanos_total{{phase=\"{phase}\"}} {}\n",
                counter_ref.load(Ordering::Relaxed)
            ));
        }
        counter(
            &mut out,
            "genbase_bytes_moved_total",
            "Storage-layer bytes read plus materialized across served queries.",
            m.bytes_moved.load(Ordering::Relaxed),
        );
        gauge(
            &mut out,
            "genbase_peak_alloc_bytes",
            "Largest per-operator peak allocation observed.",
            m.peak_alloc.load(Ordering::Relaxed),
        );
        counter(
            &mut out,
            "genbase_stream_batches_total",
            "Morsel batches streamed across served queries (zero unless serving with --stream).",
            m.stream_batches.load(Ordering::Relaxed),
        );
        counter(
            &mut out,
            "genbase_spill_bytes_total",
            "Bytes spilled to disk by streaming reels across served queries.",
            m.spill_bytes.load(Ordering::Relaxed),
        );
        out.push_str(
            "# HELP genbase_rejected_total Requests turned away by admission control.\n\
             # TYPE genbase_rejected_total counter\n",
        );
        for (reason, counter_ref) in [
            ("over_budget", &m.rejected_over_budget),
            ("queue_full", &m.rejected_queue_full),
            ("draining", &m.rejected_draining),
        ] {
            out.push_str(&format!(
                "genbase_rejected_total{{reason=\"{reason}\"}} {}\n",
                counter_ref.load(Ordering::Relaxed)
            ));
        }
        gauge(
            &mut out,
            "genbase_queue_depth",
            "Requests currently waiting for admission.",
            self.admission.queued() as u64,
        );
        gauge(
            &mut out,
            "genbase_inflight",
            "Queries currently executing.",
            m.inflight.load(Ordering::Relaxed),
        );
        gauge(
            &mut out,
            "genbase_mem_reserved_bytes",
            "Bytes currently reserved by admitted requests.",
            self.admission.tracker.current(),
        );
        if let Some(budget) = self.options.mem_budget {
            gauge(
                &mut out,
                "genbase_mem_budget_bytes",
                "Configured admission budget.",
                budget,
            );
        }
        gauge(
            &mut out,
            "genbase_connections",
            "Open client connections (framed + HTTP).",
            m.connections.load(Ordering::Relaxed),
        );
        // Cache counters are always exposed (zero when caching is off), so
        // dashboards and the CI identity check can grep unconditionally.
        let (artifact_hits, artifact_misses, evictions, cache_bytes) = match &self.cache {
            Some(scope) => {
                let c = scope.cache();
                (c.hit_count(), c.miss_count(), c.eviction_count(), c.bytes())
            }
            None => (0, 0, 0, 0),
        };
        let result_hits = m.result_hits.load(Ordering::Relaxed);
        counter(
            &mut out,
            "genbase_cache_hits_total",
            "Cache hits: artifact-cache join replays plus result-cache reply replays.",
            artifact_hits + result_hits,
        );
        counter(
            &mut out,
            "genbase_cache_misses_total",
            "Artifact-cache misses (cold joins that filled or bypassed the cache).",
            artifact_misses,
        );
        counter(
            &mut out,
            "genbase_cache_evictions_total",
            "Artifact-cache entries evicted under the --cache-budget LRU.",
            evictions,
        );
        gauge(
            &mut out,
            "genbase_cache_bytes",
            "Bytes currently charged to the artifact cache's tracker.",
            cache_bytes,
        );
        counter(
            &mut out,
            "genbase_result_cache_hits_total",
            "Served queries answered by replaying a completed SimOnly result.",
            result_hits,
        );
        let (tables_bytes, tables_builds) = self.scheduler.harness().loaded_tables_stats();
        gauge(
            &mut out,
            "genbase_loaded_tables_bytes",
            "Heap bytes of the SQL base tables and SciDB arrays resident for the configured datasets.",
            tables_bytes,
        );
        counter(
            &mut out,
            "genbase_loaded_tables_builds_total",
            "Loads of a dataset's base tables, streaming spool or arrays (each at most once; queries borrow them).",
            tables_builds,
        );
        gauge(
            &mut out,
            "genbase_loaded_spool_bytes",
            "Bytes of streaming spool files held on disk for the configured datasets.",
            self.scheduler.harness().loaded_spool_bytes(),
        );
        gauge(
            &mut out,
            "genbase_admission_estimate_bytes",
            "Most recent admission reservation estimate (shrinks on warm artifacts).",
            m.last_estimate.load(Ordering::Relaxed),
        );
        out
    }
}

/// How a request ended without an answer.
enum ServeError {
    Rejected(Rejection),
    Failed(Error),
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
        // Result replays are only byte-identical under deterministic
        // timing; measured runs carry wall-clock fields, so the flag is
        // inert there and every query runs cold.
        let results = (options.result_cache
            && scheduler.harness().config().timing == TimingMode::SimOnly)
            .then(|| Mutex::new(HashMap::new()));
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
                results,
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
        Ok(ServeReport {
            served: shared.metrics.served.load(Ordering::Relaxed),
            failed: shared.metrics.failed.load(Ordering::Relaxed),
            rejected: shared.metrics.rejected_total(),
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
        |frame| dispatch_frame(frame, shared).map(Some),
    );
}

/// The `busy` reply to a request the admission controller turned away.
/// `retry` is false only for a request that can never fit the budget.
fn busy_reply(rejection: &Rejection) -> Json {
    let mut busy = msg("busy");
    busy.set("reason", Json::from(rejection.reason().as_str()));
    let retry = !matches!(rejection, Rejection::OverBudget { .. });
    busy.set("retry", Json::Bool(retry));
    busy
}

/// Route one post-handshake frame to its reply. Admission rejections, of a
/// `query` or an `explain` alike, are `busy` replies (the connection stays
/// open so the client can retry); protocol errors — an `explain`, like a
/// `query`, naming a size that is not resident here is one — bubble up as
/// `Err` and close the connection.
fn dispatch_frame(frame: &Json, shared: &Shared) -> Result<Json> {
    match msg_type(frame)? {
        "query" => {
            let key = shared.cell_from_request(frame)?;
            match shared.execute(&key) {
                Ok(reply) => Ok(reply),
                Err(ServeError::Rejected(r)) => Ok(busy_reply(&r)),
                Err(ServeError::Failed(e)) => {
                    let mut failed = msg("failed");
                    failed.set("cell", Json::from(key.id().as_str()));
                    failed.set("error", Json::from(e.to_string().as_str()));
                    Ok(failed)
                }
            }
        }
        "explain" => {
            let engine = frame.get("engine").and_then(Json::as_str);
            let query = Shared::query_from_request(frame)?;
            let size = shared.size_from_request(frame)?;
            let nodes = frame.get("nodes").and_then(Json::as_u64).unwrap_or(1) as usize;
            let _reservation = match shared.admit(shared.admission_estimate(size)) {
                Ok(reservation) => reservation,
                Err(r) => return Ok(busy_reply(&r)),
            };
            let harness = shared.scheduler.harness();
            let mut reply = msg("result");
            if matches!(frame.get("json"), Some(Json::Bool(true))) {
                let text = figures::explain_json(harness, size, nodes, engine, query)?;
                reply.set("explain_json", Json::from(text.as_str()));
            } else {
                let fig = figures::explain(harness, size, nodes, engine, query)?;
                reply.set("explain", Json::from(fig.render().as_str()));
            }
            Ok(reply)
        }
        "status" => Ok(shared.status_json()),
        "leave" => Ok(msg("bye")),
        other => Err(Error::invalid(format!("unexpected frame type {other:?}"))),
    }
}

/// One HTTP connection: a single request, a single response, close.
fn handle_http_conn(stream: TcpStream, shared: &Shared) {
    let (status, content_type, body) = match session::read_http(&stream) {
        Ok(Some(request)) => route_http(&request, shared),
        Ok(None) => return,
        Err(e) => (400, "text/plain", format!("bad request: {e}\n")),
    };
    let _ = http::write_response(&mut &stream, status, content_type, body.as_bytes());
}

/// Route one HTTP request to `(status, content-type, body)`.
fn route_http(request: &http::HttpRequest, shared: &Shared) -> (u16, &'static str, String) {
    match (request.method.as_str(), request.path.as_str()) {
        ("GET", "/status") => (200, "application/json", shared.status_json().render()),
        ("GET", "/metrics") => (
            200,
            "text/plain; version=0.0.4; charset=utf-8",
            shared.metrics_text(),
        ),
        ("POST", "/query") => {
            if let Some(token) = shared.options.auth_token.as_deref() {
                let authorized = request.header("authorization")
                    == Some(format!("Bearer {token}").as_str())
                    || request.header("x-genbase-token") == Some(token);
                if !authorized {
                    return (
                        401,
                        "text/plain",
                        "missing or wrong auth token\n".to_string(),
                    );
                }
            }
            let body = match std::str::from_utf8(&request.body) {
                Ok(text) => text,
                Err(_) => return (400, "text/plain", "body is not UTF-8\n".to_string()),
            };
            let req = match Json::parse(body) {
                Ok(req) => req,
                Err(e) => return (400, "text/plain", format!("bad request body: {e}\n")),
            };
            let key = match shared.cell_from_request(&req) {
                Ok(key) => key,
                Err(e) => return (400, "text/plain", format!("{e}\n")),
            };
            match shared.execute(&key) {
                Ok(reply) => (200, "application/json", reply.render()),
                Err(ServeError::Rejected(r)) => {
                    let (_, status) = r.label_and_status();
                    (status, "text/plain", format!("{}\n", r.reason()))
                }
                Err(ServeError::Failed(e)) => (500, "text/plain", format!("query failed: {e}\n")),
            }
        }
        ("GET", "/query") => (405, "text/plain", "use POST /query\n".to_string()),
        _ => (
            404,
            "text/plain",
            "not found; endpoints: GET /status, GET /metrics, POST /query\n".to_string(),
        ),
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
            figure: FigureId::Fig1,
            query: Query::Covariance,
            size: SizeClass::Small,
            nodes: 1,
            engine: "SciDB".to_string(),
        };
        let reply = shared.execute(&key).ok().expect("a result");
        let expected = Scheduler::new(HarnessConfig::quick().sim_only())
            .unwrap()
            .run_cell(&key, shared.config().threads.max(1))
            .unwrap();
        assert_eq!(reply.get("outcome"), Some(&expected.to_json()));
        assert!(shared.metrics_text().contains("genbase_served_total 1\n"));
    }
}
