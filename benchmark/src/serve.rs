//! The `serve_mix` workload: an in-process `BenchServer` driven by exactly
//! two closed-loop clients — client F on one persistent framed connection,
//! client H over HTTP `POST /query` with one connection per request. Each
//! request draws a cell from a Zipf(1) distribution over Figure 1's 32
//! supported single-node cells.
//!
//! Closed loop with two callers because the sandbox has two cores and a
//! benchmark client waits for its reply before sending the next request.

use crate::report::{self, Metric, Params, WorkloadReport};
use crate::sample::Zipf;
use crate::spans::Recorder;
use crate::stats::{geomean, median, percentile};
use crate::{host, spec};
use genbase::coord::PROTOCOL;
use genbase::harness::HarnessConfig;
use genbase::{engines, figures, BenchServer, CellKey, FigureId, Scheduler, ServeOptions};
use genbase::{ServeReport, TimingMode};
use genbase_datagen::SizeClass;
use genbase_util::{encode_frame, Json, Pcg64};
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Artifact-cache budget: half of the ≈3.0 MiB (13 artifacts) the 32 cells
/// convert at Small, so hits, misses and evictions all occur.
pub const CACHE_BUDGET: u64 = 3 << 19;

/// Admission queue bound (never reached by two closed-loop clients; a
/// refusal would count as a failed request).
pub const QUEUE_DEPTH: usize = 16;

/// Samples every `(cell, front)` needs before its fastest is taken; rare
/// pairs the window missed are topped up after it.
const MIN_CELL_SAMPLES: usize = 5;

const IO_TIMEOUT: Duration = Duration::from_secs(120);

/// The resident server's harness configuration: Small only, SimOnly (served
/// outcomes are then byte-identical to `Scheduler::run_cell`'s).
pub fn config(p: &Params) -> HarnessConfig {
    HarnessConfig {
        sizes: vec![SizeClass::Small],
        seed: spec::DATA_SEED,
        threads: p.host_threads,
        ..HarnessConfig::default()
    }
    .sim_only()
}

/// Server options of the workload: artifact cache on, result cache off.
pub fn options() -> ServeOptions {
    ServeOptions::default()
        .with_cache_budget(CACHE_BUDGET)
        .with_queue_depth(QUEUE_DEPTH)
}

/// Figure 1's cells every engine actually supports (32 of 35).
pub fn supported_cells(config: &HarnessConfig) -> Vec<CellKey> {
    let engines = engines::single_node_engines();
    figures::plan(FigureId::Fig1, config, SizeClass::Small)
        .into_iter()
        .filter(|cell| {
            engines
                .iter()
                .any(|e| e.name() == cell.engine && e.supports(cell.query))
        })
        .collect()
}

/// A `BenchServer` serving on its own thread (the scheduler's engine
/// registry is `Sync` but not `Send`, so the server is built there).
pub struct Server {
    /// Framed listener address.
    pub frame: SocketAddr,
    /// HTTP listener address.
    pub http: SocketAddr,
    /// `BenchServer::bind` wall milliseconds.
    pub bind_ms: f64,
    stop: Arc<AtomicBool>,
    handle: Option<std::thread::JoinHandle<Result<ServeReport, String>>>,
}

impl Server {
    /// Bind on ephemeral loopback ports and start serving.
    pub fn start(config: HarnessConfig, options: ServeOptions) -> Result<Server, String> {
        let stop = Arc::new(AtomicBool::new(false));
        let options = options.with_stop(Arc::clone(&stop));
        let (tx, rx) = std::sync::mpsc::channel();
        let handle = std::thread::spawn(move || {
            let start = Instant::now();
            let server = match BenchServer::bind("127.0.0.1:0", "127.0.0.1:0", config, options) {
                Ok(server) => server,
                Err(e) => {
                    let _ = tx.send(Err(e.to_string()));
                    return Err(e.to_string());
                }
            };
            let bind_ms = start.elapsed().as_secs_f64() * 1e3;
            let addrs = server
                .frame_addr()
                .and_then(|f| Ok((f, server.http_addr()?, bind_ms)))
                .map_err(|e| e.to_string());
            let failed = addrs.is_err();
            let _ = tx.send(addrs);
            if failed {
                return Err("server address lookup failed".to_string());
            }
            server.serve().map_err(|e| e.to_string())
        });
        let (frame, http, bind_ms) = rx
            .recv_timeout(IO_TIMEOUT)
            .map_err(|e| format!("server did not bind: {e}"))??;
        Ok(Server {
            frame,
            http,
            bind_ms,
            stop,
            handle: Some(handle),
        })
    }

    /// Drain and join the server, returning its final tallies.
    pub fn stop(mut self) -> Result<ServeReport, String> {
        self.stop.store(true, Ordering::Relaxed);
        self.handle
            .take()
            .expect("server joined once")
            .join()
            .map_err(|_| "server thread panicked".to_string())?
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        // An error path dropped us without `stop`: still drain and join, so
        // no thread outlives the run.
        self.stop.store(true, Ordering::Relaxed);
        if let Some(handle) = self.handle.take() {
            let _ = handle.join();
        }
    }
}

/// When each phase of one request ended.
pub struct Phases {
    start: Instant,
    /// Connection established (HTTP only; equals `start` when framed).
    connected: Instant,
    sent: Instant,
    /// Reply bytes fully read.
    received: Instant,
    /// Reply parsed.
    parsed: Instant,
}

/// Client F: one persistent framed connection.
pub struct FramedClient {
    stream: TcpStream,
}

impl FramedClient {
    /// Connect and complete the `hello` / `welcome` handshake.
    pub fn connect(addr: SocketAddr) -> Result<FramedClient, String> {
        let stream = TcpStream::connect(addr).map_err(|e| format!("framed connect: {e}"))?;
        stream.set_nodelay(true).map_err(|e| e.to_string())?;
        stream
            .set_read_timeout(Some(IO_TIMEOUT))
            .map_err(|e| e.to_string())?;
        let mut client = FramedClient { stream };
        let mut hello = Json::obj();
        hello.set("type", Json::from("hello"));
        hello.set("protocol", Json::from(PROTOCOL));
        hello.set("role", Json::from("client"));
        let frame = encode_frame(&hello).map_err(|e| e.to_string())?;
        let (welcome, _) = client.exchange(&frame)?;
        match welcome.get("type").and_then(Json::as_str) {
            Some("welcome") => Ok(client),
            other => Err(format!("handshake answered {other:?}, not welcome")),
        }
    }

    /// Send one pre-encoded frame and read the reply frame.
    pub fn exchange(&mut self, frame: &[u8]) -> Result<(Json, Phases), String> {
        let start = Instant::now();
        self.stream
            .write_all(frame)
            .map_err(|e| format!("framed send: {e}"))?;
        let sent = Instant::now();
        let mut prefix = [0u8; 4];
        self.stream
            .read_exact(&mut prefix)
            .map_err(|e| format!("framed read: {e}"))?;
        let len = u32::from_be_bytes(prefix) as usize;
        if len > genbase_util::MAX_FRAME_BYTES {
            return Err(format!("reply frame of {len} bytes exceeds the frame cap"));
        }
        let mut payload = vec![0u8; len];
        self.stream
            .read_exact(&mut payload)
            .map_err(|e| format!("framed read: {e}"))?;
        let received = Instant::now();
        let text = std::str::from_utf8(&payload).map_err(|e| e.to_string())?;
        let reply = Json::parse(text).map_err(|e| e.to_string())?;
        Ok((
            reply,
            Phases {
                start,
                connected: start,
                sent,
                received,
                parsed: Instant::now(),
            },
        ))
    }
}

/// One-shot HTTP exchange (the server answers `Connection: close`):
/// status, body and phase times.
pub fn http_exchange(
    addr: SocketAddr,
    method: &str,
    path: &str,
    body: &str,
) -> Result<(u16, String, Phases), String> {
    let start = Instant::now();
    let mut stream = TcpStream::connect(addr).map_err(|e| format!("http connect: {e}"))?;
    stream.set_nodelay(true).map_err(|e| e.to_string())?;
    stream
        .set_read_timeout(Some(IO_TIMEOUT))
        .map_err(|e| e.to_string())?;
    let connected = Instant::now();
    let request = format!(
        "{method} {path} HTTP/1.1\r\nHost: benchmark\r\nContent-Length: {}\r\n\r\n{body}",
        body.len()
    );
    stream
        .write_all(request.as_bytes())
        .map_err(|e| format!("http send: {e}"))?;
    let sent = Instant::now();
    let mut raw = String::new();
    stream
        .read_to_string(&mut raw)
        .map_err(|e| format!("http read: {e}"))?;
    let received = Instant::now();
    let status = raw
        .split_whitespace()
        .nth(1)
        .and_then(|code| code.parse().ok())
        .ok_or_else(|| "http reply has no status code".to_string())?;
    let body = raw
        .split_once("\r\n\r\n")
        .map(|(_, body)| body.to_string())
        .ok_or_else(|| "http reply has no header break".to_string())?;
    Ok((
        status,
        body,
        Phases {
            start,
            connected,
            sent,
            received,
            parsed: received,
        },
    ))
}

/// The two fronts; the index is the client number.
const FRONTS: [&str; 2] = ["framed", "http"];

/// One closed-loop client and what it holds between requests.
enum Client {
    /// Client F: the persistent framed connection.
    Framed(FramedClient),
    /// Client H: nothing; every request opens its own connection.
    Http,
}

impl Client {
    /// The client of `front` (an index into [`FRONTS`]), connected.
    fn connect(front: usize, server: &Server) -> Result<Client, String> {
        match front {
            0 => Ok(Client::Framed(FramedClient::connect(server.frame)?)),
            _ => Ok(Client::Http),
        }
    }
}

/// Everything both clients share for a window.
struct Mix<'a> {
    server: &'a Server,
    cells: &'a [CellKey],
    /// `Scheduler::run_cell(..).to_json()` per cell, computed in set-up.
    expected: &'a [Json],
    /// Pre-encoded `query` frames per cell (client F).
    frames: Vec<Vec<u8>>,
    /// Pre-rendered request bodies per cell (client H).
    bodies: Vec<String>,
}

impl<'a> Mix<'a> {
    fn new(server: &'a Server, cells: &'a [CellKey], expected: &'a [Json]) -> Result<Self, String> {
        let mut frames = Vec::new();
        let mut bodies = Vec::new();
        for cell in cells {
            let mut request = Json::obj();
            request.set("type", Json::from("query"));
            request.set("engine", Json::from(cell.engine.as_str()));
            request.set("query", Json::from(cell.query.name()));
            request.set("size", Json::from(cell.size.slug()));
            frames.push(encode_frame(&request).map_err(|e| e.to_string())?);
            bodies.push(request.render());
        }
        Ok(Mix {
            server,
            cells,
            expected,
            frames,
            bodies,
        })
    }

    /// Issue one request for `cell` and check the reply: only a `result`
    /// (framed) / 200 (HTTP) whose `outcome` equals the expected JSON
    /// counts; `busy`, `failed`, 429 and the rest are failures, never
    /// latencies.
    fn request(&self, client: &mut Client, cell: usize) -> Result<Phases, String> {
        let (reply, phases) = match client {
            Client::Framed(framed) => framed.exchange(&self.frames[cell])?,
            Client::Http => {
                let (status, body, mut phases) =
                    http_exchange(self.server.http, "POST", "/query", &self.bodies[cell])?;
                if status != 200 {
                    return Err(format!("HTTP {status}: {}", body.trim()));
                }
                let reply = Json::parse(&body).map_err(|e| e.to_string())?;
                phases.parsed = Instant::now();
                (reply, phases)
            }
        };
        match reply.get("type").and_then(Json::as_str) {
            Some("result") => {}
            other => return Err(format!("{} answered {other:?}", self.cells[cell].id())),
        }
        if reply.get("outcome") != Some(&self.expected[cell]) {
            return Err(format!(
                "{} outcome differs from Scheduler::run_cell",
                self.cells[cell].id()
            ));
        }
        Ok(phases)
    }
}

/// What one client measured in a window.
struct ClientLog {
    /// Latency (ms) of every correct reply, in order.
    lat_ms: Vec<f64>,
    /// The same latencies by cell.
    by_cell: Vec<Vec<f64>>,
    attempted: u64,
    errors: Vec<String>,
    spans: Option<Recorder>,
    /// Seconds spent recording spans between requests.
    recording_secs: f64,
    /// When the client's last request finished.
    finished: Instant,
}

/// Latency of a request as the protocol defines it per front: framed is
/// send → reply parsed, HTTP is connect → body read.
fn latency_ms(front: usize, phases: &Phases) -> f64 {
    let end = if front == 0 {
        phases.parsed
    } else {
        phases.received
    };
    (end - phases.start).as_secs_f64() * 1e3
}

/// Result of one measured window.
struct Window {
    logs: [ClientLog; 2],
    elapsed: f64,
}

/// Run both closed-loop clients for `duration` (stretched until each front
/// has `min_requests` correct replies, up to `cap`).
fn run_window(
    mix: &Mix<'_>,
    zipf: &Zipf,
    seed: u64,
    duration: Duration,
    min_requests: usize,
    cap: Duration,
    origin: Option<Instant>,
) -> Result<Window, String> {
    let correct = [AtomicUsize::new(0), AtomicUsize::new(0)];
    let start = Instant::now();
    let client = |front: usize| -> Result<ClientLog, String> {
        let mut client = Client::connect(front, mix.server)?;
        let mut rng = Pcg64::with_stream(seed, 0xc11e + front as u64);
        let mut log = ClientLog {
            lat_ms: Vec::new(),
            by_cell: vec![Vec::new(); mix.cells.len()],
            attempted: 0,
            errors: Vec::new(),
            spans: origin.map(Recorder::new),
            recording_secs: 0.0,
            finished: start,
        };
        loop {
            let elapsed = start.elapsed();
            let enough = correct
                .iter()
                .all(|c| c.load(Ordering::Relaxed) >= min_requests);
            if (elapsed >= duration && enough) || elapsed >= cap {
                break;
            }
            let cell = zipf.sample(&mut rng);
            log.attempted += 1;
            match mix.request(&mut client, cell) {
                Ok(phases) => {
                    let ms = latency_ms(front, &phases);
                    log.lat_ms.push(ms);
                    log.by_cell[cell].push(ms);
                    correct[front].fetch_add(1, Ordering::Relaxed);
                    if let Some(rec) = &mut log.spans {
                        let recording = Instant::now();
                        // request > connect | send | wait | parse; the id
                        // is unique across both clients.
                        let id = log.attempted * 2 + front as u64;
                        let at = |t: Instant| rec.us(t);
                        let (t0, t1, t2, t3, t4) = (
                            at(phases.start),
                            at(phases.connected),
                            at(phases.sent),
                            at(phases.received),
                            at(phases.parsed),
                        );
                        let name = format!("request:{}:{}", FRONTS[front], mix.cells[cell].id());
                        let request = rec.add(&name, None, id, t0, t4);
                        if front == 1 {
                            rec.add("connect", Some(request), id, t0, t1);
                        }
                        rec.add("send", Some(request), id, t1, t2);
                        rec.add("wait", Some(request), id, t2, t3);
                        rec.add("parse", Some(request), id, t3, t4);
                        log.recording_secs += recording.elapsed().as_secs_f64();
                    }
                }
                Err(e) => {
                    if log.errors.len() < 5 {
                        log.errors.push(format!("{}: {e}", FRONTS[front]));
                    }
                    // A broken framed connection cannot carry the next
                    // request; reconnect rather than fail all that follow.
                    client = Client::connect(front, mix.server)?;
                }
            }
        }
        log.finished = Instant::now();
        Ok(log)
    };
    let (f, h) = std::thread::scope(|scope| {
        let f = scope.spawn(|| client(0));
        let h = scope.spawn(|| client(1));
        (f.join(), h.join())
    });
    let f = f.map_err(|_| "client F panicked".to_string())??;
    let h = h.map_err(|_| "client H panicked".to_string())??;
    let elapsed = (f.finished.max(h.finished) - start).as_secs_f64();
    for (front, log) in [&f, &h].into_iter().enumerate() {
        if log.lat_ms.len() < min_requests {
            return Err(format!(
                "serve_mix: only {} correct {} replies in {elapsed:.1} s; the protocol needs {min_requests}",
                log.lat_ms.len(),
                FRONTS[front]
            ));
        }
    }
    Ok(Window {
        logs: [f, h],
        elapsed,
    })
}

/// Cache and request counters scraped from `GET /metrics`.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct Counters {
    hits: f64,
    misses: f64,
    evictions: f64,
}

fn parse_counters(text: &str) -> Counters {
    let value = |name: &str| {
        text.lines()
            .find_map(|line| {
                line.strip_prefix(name)?
                    .strip_prefix(' ')?
                    .trim()
                    .parse()
                    .ok()
            })
            .unwrap_or(0.0)
    };
    Counters {
        hits: value("genbase_cache_hits_total"),
        misses: value("genbase_cache_misses_total"),
        evictions: value("genbase_cache_evictions_total"),
    }
}

fn scrape(server: &Server) -> Result<Counters, String> {
    let (status, body, _) = http_exchange(server.http, "GET", "/metrics", "")?;
    if status != 200 {
        return Err(format!("GET /metrics answered {status}"));
    }
    Ok(parse_counters(&body))
}

/// One full set-up: the server, the expected outcomes and a warm-up pass
/// (every cell once over the framed front, verified).
struct Setup {
    server: Server,
    cells: Vec<CellKey>,
    expected: Vec<Json>,
}

fn set_up(p: &Params) -> Result<Setup, String> {
    let config = config(p);
    debug_assert_eq!(config.timing, TimingMode::SimOnly);
    let server = Server::start(config.clone(), options())?;
    let cells = supported_cells(&config);
    let scheduler = Scheduler::new(config).map_err(|e| e.to_string())?;
    let expected = cells
        .iter()
        .map(|cell| {
            scheduler
                .run_cell(cell, p.host_threads)
                .map(|outcome| outcome.to_json())
                .map_err(|e| format!("{}: {e}", cell.id()))
        })
        .collect::<Result<Vec<Json>, String>>()?;
    let setup = Setup {
        server,
        cells,
        expected,
    };
    let mix = Mix::new(&setup.server, &setup.cells, &setup.expected)?;
    let mut client = Client::connect(0, &setup.server)?;
    for cell in 0..setup.cells.len() {
        mix.request(&mut client, cell)
            .map_err(|e| format!("warm-up: {e}"))?;
    }
    Ok(setup)
}

/// Fold one numeric field over every op of every cell's expected trace.
/// These are counts: SimOnly outcomes repeat exactly, and every reply was
/// checked equal to them.
fn fold_trace_field(expected: &[Json], field: &str, fold: fn(f64, f64) -> f64) -> f64 {
    expected
        .iter()
        .filter_map(|outcome| outcome.get("trace").and_then(Json::as_arr))
        .flatten()
        .filter_map(|op| op.get(field).and_then(Json::as_f64))
        .fold(0.0, fold)
}

/// A `serve_mix` window against a fresh server, with the server's own
/// counters around it: the traced run's window, and the ladder's rung for
/// the cache and admission rows.
pub struct Probe {
    /// Artifact-cache hits ÷ (hits + misses) across the window.
    pub hit_rate: f64,
    /// Artifact-cache evictions across the window.
    pub evictions: f64,
    /// `ServeReport::served` after the drain.
    pub served: u64,
    /// `ServeReport::rejected` after the drain.
    pub rejected: u64,
    /// The first few requests that did not return the expected outcome.
    pub errors: Vec<String>,
    window: Window,
    /// The cells' expected outcomes (every correct reply equalled one).
    expected: Vec<Json>,
}

/// Run a `serve_mix` window of `duration` against a fresh server and report
/// the layer counters around it. `origin` turns span recording on.
pub fn probe(p: &Params, duration: Duration, origin: Option<Instant>) -> Result<Probe, String> {
    let setup = set_up(p)?;
    let mix = Mix::new(&setup.server, &setup.cells, &setup.expected)?;
    let zipf = Zipf::new(setup.cells.len(), spec::DATA_SEED);
    let before = scrape(&setup.server)?;
    let window = run_window(&mix, &zipf, p.seed, duration, 1, p.hard_cap(), origin)?;
    let after = scrape(&setup.server)?;
    let (hits, misses) = (after.hits - before.hits, after.misses - before.misses);
    let report = setup.server.stop()?;
    Ok(Probe {
        hit_rate: hits / (hits + misses),
        evictions: after.evictions - before.evictions,
        served: report.served,
        rejected: report.rejected,
        errors: window.logs.iter().flat_map(|l| l.errors.clone()).collect(),
        window,
        expected: setup.expected,
    })
}

/// Run `serve_mix` untraced and report its end-to-end metrics.
pub fn run(p: &Params, process_start: Instant) -> Result<WorkloadReport, String> {
    let mut report = WorkloadReport::new("serve_mix");
    let lead_in = process_start.elapsed().as_secs_f64();
    let mut setups = Vec::new();
    let mut built: Option<Setup> = None;
    for _ in 0..report::SETUPS {
        if let Some(previous) = built.take() {
            previous.server.stop()?;
        }
        let start = Instant::now();
        built = Some(set_up(p)?);
        setups.push(lead_in + start.elapsed().as_secs_f64());
    }
    let setup = built.expect("at least one set-up");
    let mix = Mix::new(&setup.server, &setup.cells, &setup.expected)?;
    let zipf = Zipf::new(setup.cells.len(), spec::DATA_SEED);

    let window = run_window(
        &mix,
        &zipf,
        p.seed,
        p.window,
        p.min_requests(),
        p.hard_cap(),
        None,
    )?;
    let [mut f, mut h] = window.logs;
    let correct = f.lat_ms.len() + h.lat_ms.len();
    report.attempted = f.attempted + h.attempted;
    report.failed = report.attempted - correct as u64;
    report.errors = [f.errors.clone(), h.errors.clone()].concat();
    report.samples = f.lat_ms.len().min(h.lat_ms.len());

    // Rare (cell, front) pairs the window drew fewer than five times are
    // topped up one request at a time.
    let floor = if p.quick { 1 } else { MIN_CELL_SAMPLES };
    for (front, log) in [&mut f, &mut h].into_iter().enumerate() {
        let mut client = Client::connect(front, &setup.server)?;
        for cell in 0..setup.cells.len() {
            while log.by_cell[cell].len() < floor {
                report.attempted += 1;
                match mix.request(&mut client, cell) {
                    Ok(phases) => log.by_cell[cell].push(latency_ms(front, &phases)),
                    Err(e) => {
                        report.fail(|| format!("top-up {}: {e}", FRONTS[front]));
                        if report.failed > 64 {
                            return Err(format!("serve_mix: top-up keeps failing: {e}"));
                        }
                    }
                }
            }
        }
    }
    let served = setup.server.stop()?;
    if served.rejected > 0 && report.failed == 0 {
        return Err(format!(
            "server counted {} rejections the clients never saw",
            served.rejected
        ));
    }

    // As on the cell workloads, a `(cell, front)` pair counts with its
    // fastest reply: over ten seeds the sum of the pairs' medians spread
    // 9.4 % (24 % when the host changed pace mid-set), of their minima
    // 5.9 %. What the misses, the evictions and the other client add is in
    // `req_per_s` and the front percentiles.
    let cell_ms: Vec<f64> = [&f, &h]
        .into_iter()
        .flat_map(|log| log.by_cell.iter())
        .map(|samples| samples.iter().copied().fold(f64::NAN, f64::min))
        .collect();
    let tail = |values: &[f64]| {
        if p.quick {
            // Too few samples for a real p99 in smoke mode.
            Ok(values.iter().copied().fold(f64::NAN, f64::max))
        } else {
            percentile(values, 0.99)
        }
    };
    let share = report.failed as f64 / report.attempted as f64;
    let peak_alloc = fold_trace_field(&setup.expected, "mem_peak", f64::max);
    report.metrics = vec![
        Metric::end_to_end("setup_s", median(&setups), setups.len()),
        Metric::end_to_end("pass_s", cell_ms.iter().sum::<f64>() / 1e3, correct),
        Metric::end_to_end("cell_geomean_ms", geomean(&cell_ms), correct),
        Metric::end_to_end("peak_alloc_mb", peak_alloc / 1e6, correct),
        Metric::end_to_end("req_per_s", correct as f64 / window.elapsed, correct),
        Metric::end_to_end("failed_share", share, report.attempted as usize),
        Metric::end_to_end("framed_p50_ms", median(&f.lat_ms), f.lat_ms.len()),
        Metric::end_to_end("framed_p99_ms", tail(&f.lat_ms)?, f.lat_ms.len()),
        Metric::end_to_end("http_p50_ms", median(&h.lat_ms), h.lat_ms.len()),
        Metric::end_to_end("http_p99_ms", tail(&h.lat_ms)?, h.lat_ms.len()),
        Metric::end_to_end("rss_peak_mb", host::rss_peak_mb()?, 1),
    ];
    Ok(report)
}

/// Traced `serve_mix`: one window with a span recorder in each client. The
/// server runs the same code either way, so what tracing adds is the span
/// recording between a client's requests; it is timed directly and reported
/// against the rest of the clients' time as `trace_overhead_pct`.
pub fn run_traced(p: &Params) -> Result<WorkloadReport, String> {
    let duration = Duration::from_secs(if p.quick { 1 } else { 5 });
    let Probe {
        errors,
        window,
        expected,
        ..
    } = probe(p, duration, Some(Instant::now()))?;
    let [f, h] = window.logs;
    let correct = (f.lat_ms.len() + h.lat_ms.len()) as u64;
    let recording_secs = f.recording_secs + h.recording_secs;
    let mut spans = f.spans.expect("recording was on");
    spans.absorb(h.spans.expect("recording was on"));
    let mut report = WorkloadReport::new("serve_mix");
    report.attempted = f.attempted + h.attempted;
    report.failed = report.attempted - correct;
    report.samples = correct as usize;
    report.trace_overhead_pct =
        Some(recording_secs / (2.0 * window.elapsed - recording_secs) * 100.0);
    report.metrics = op_breakdown(p)?;
    // One request per cell, from the expected outcomes (counts).
    let sum = |field| fold_trace_field(&expected, field, |a, b| a + b);
    report.metrics.extend([
        Metric::per_layer("storage.spill_mb", sum("spill") / 1e6, 1),
        Metric::per_layer(
            "storage.bytes_moved_mb",
            (sum("mem_in") + sum("mem_out")) / 1e6,
            1,
        ),
    ]);
    report.errors = errors;
    report.spans = Some(spans);
    Ok(report)
}

/// `core.op.*` for `serve_mix`: the server runs SimOnly, so its replies
/// carry no measured op times; the same 32 cells run once through a
/// Measured harness give the breakdown of what the mix executes. (The
/// contract wants every per-layer metric from every workload's traced run.)
fn op_breakdown(p: &Params) -> Result<Vec<Metric>, String> {
    let mut config = config(p);
    config.timing = TimingMode::Measured;
    let cells = supported_cells(&config);
    let scheduler = Scheduler::new(config).map_err(|e| e.to_string())?;
    let mut secs = [0.0f64; 8];
    for cell in &cells {
        let start = Instant::now();
        let outcome = scheduler
            .run_cell(cell, p.host_threads)
            .map_err(|e| format!("{}: {e}", cell.id()))?;
        let wall = start.elapsed().as_secs_f64();
        let ops = outcome.trace().unwrap_or(&[]);
        for op in ops {
            secs[spec::op_kind_index(op.kind)] += op.cost.wall_secs;
        }
        secs[spec::UNTRACED] += wall - ops.iter().map(|op| op.cost.wall_secs).sum::<f64>();
    }
    Ok(spec::OP_KINDS
        .iter()
        .zip(secs)
        .map(|(kind, s)| Metric::per_layer(&format!("core.op.{kind}_ms"), s * 1e3, 1))
        .collect())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn metrics_text_is_scraped_by_exact_counter_name() {
        let text = "# HELP genbase_cache_hits_total Cache hits\n\
                    # TYPE genbase_cache_hits_total counter\n\
                    genbase_cache_hits_total 41\n\
                    genbase_cache_misses_total 13\n\
                    genbase_cache_evictions_total 7\n\
                    genbase_cache_bytes 1500000\n";
        assert_eq!(
            parse_counters(text),
            Counters {
                hits: 41.0,
                misses: 13.0,
                evictions: 7.0
            }
        );
    }

    #[test]
    fn figure_one_has_thirty_two_supported_cells() {
        let p = crate::test_params("serve_cells");
        assert_eq!(supported_cells(&config(&p)).len(), 32);
    }
}
