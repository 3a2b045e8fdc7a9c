//! Resident benchmark server conformance: `paper_harness serve` answers
//! concurrent framed and HTTP clients with outcomes byte-identical to the
//! batch scheduler path under `--sim-only`, exposes Prometheus metrics,
//! rejects over-budget work cleanly instead of OOMing, and drains on stop.

use genbase::coord::PROTOCOL;
use genbase::figures;
use genbase::prelude::*;
use genbase::sched::config_fingerprint;
use genbase::serve::{
    client_request, working_set_estimate, BenchServer, ServeOptions, ServeReport,
};
use genbase_datagen::SizeClass;
use genbase_util::frame::{encode_frame, read_frame_opt, write_frame};
use genbase_util::Json;
use std::io::{Read, Write};
use std::net::{Shutdown, SocketAddr, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

fn sim_config() -> HarnessConfig {
    HarnessConfig {
        threads: 2,
        ..HarnessConfig::quick()
    }
    .sim_only()
}

/// A server running on its own thread, stoppable via the external flag.
struct Running {
    frame: SocketAddr,
    http: SocketAddr,
    stop: Arc<AtomicBool>,
    handle: std::thread::JoinHandle<genbase_util::Result<ServeReport>>,
}

impl Running {
    fn shutdown(self) -> ServeReport {
        self.stop.store(true, Ordering::Relaxed);
        self.handle.join().unwrap().unwrap()
    }
}

/// Bind on ephemeral ports and serve on a fresh thread. The server is built
/// inside the thread because the scheduler's engine registry is `Sync` but
/// not `Send`; the bound addresses come back over a channel.
fn start_server(options: ServeOptions) -> Running {
    start_server_with(sim_config(), options)
}

fn start_server_with(config: HarnessConfig, options: ServeOptions) -> Running {
    let stop = Arc::new(AtomicBool::new(false));
    let options = options.with_stop(Arc::clone(&stop));
    let (tx, rx) = std::sync::mpsc::channel();
    let handle = std::thread::spawn(move || {
        let server = BenchServer::bind("127.0.0.1:0", "127.0.0.1:0", config, options).unwrap();
        tx.send((server.frame_addr().unwrap(), server.http_addr().unwrap()))
            .unwrap();
        server.serve()
    });
    let (frame, http) = rx
        .recv_timeout(Duration::from_secs(120))
        .expect("server failed to bind");
    Running {
        frame,
        http,
        stop,
        handle,
    }
}

/// One-shot HTTP exchange (the server is `Connection: close`); returns the
/// status code and body.
fn http_request(
    addr: SocketAddr,
    method: &str,
    path: &str,
    body: &str,
    headers: &[(&str, &str)],
) -> (u16, String) {
    let mut stream = TcpStream::connect(addr).unwrap();
    stream
        .set_read_timeout(Some(Duration::from_secs(120)))
        .unwrap();
    let extra: String = headers
        .iter()
        .map(|(n, v)| format!("{n}: {v}\r\n"))
        .collect();
    write!(
        stream,
        "{method} {path} HTTP/1.1\r\nHost: test\r\n{extra}Content-Length: {}\r\n\r\n{body}",
        body.len()
    )
    .unwrap();
    let mut raw = String::new();
    stream.read_to_string(&mut raw).unwrap();
    let status: u16 = raw
        .split_whitespace()
        .nth(1)
        .expect("status line")
        .parse()
        .expect("status code");
    let body = raw.split_once("\r\n\r\n").expect("header break").1;
    (status, body.to_string())
}

fn query_frame(engine: &str, query: &str) -> Json {
    let mut req = Json::obj();
    req.set("type", Json::from("query"));
    req.set("engine", Json::from(engine));
    req.set("query", Json::from(query));
    req
}

/// The retired per-request `"stream"` key is rejected on both fronts —
/// HTTP 400, framed `reject` — with a reason naming `--stream`, instead of
/// being ignored like an unknown key.
fn assert_stream_key_is_rejected(server: &Running) {
    for mode in ["staged", "fused"] {
        let mut frame = query_frame("Column store + R", "covariance");
        frame.set("stream", Json::from(mode));
        let (status, body) = http_request(server.http, "POST", "/query", &frame.render(), &[]);
        assert_eq!(status, 400, "{body}");
        assert!(body.contains("--stream"), "{body}");
        let reply = client_request(server.frame, None, &frame).unwrap();
        assert_eq!(reply.get("type").and_then(Json::as_str), Some("reject"));
        let reason = reply.get("reason").and_then(Json::as_str).unwrap();
        assert!(reason.contains("--stream"), "{reason}");
    }
}

#[test]
fn concurrent_served_queries_are_byte_identical_to_the_batch_path() {
    let cases = [
        ("SciDB", "covariance"),
        ("Vanilla R", "regression"),
        ("Column store + UDFs", "statistics"),
    ];
    let server = start_server(ServeOptions::default());

    // The batch side of the identity: the same cells through the plain
    // scheduler, rendered with the same deterministic JSON.
    let config = sim_config();
    let threads = config.threads.max(1);
    let scheduler = Scheduler::new(config).unwrap();
    let expected: Vec<(CellKey, String)> = cases
        .iter()
        .map(|&(engine, query)| {
            let key = CellKey {
                query: Query::from_name(query).unwrap(),
                size: SizeClass::Small,
                nodes: 1,
                engine: engine.to_string(),
            };
            let outcome = scheduler
                .run_cell(&key, threads)
                .unwrap()
                .to_json()
                .render();
            (key, outcome)
        })
        .collect();

    // Concurrent framed clients; one spells its engine in the wrong case
    // to exercise canonicalization.
    let frame = server.frame;
    let handles: Vec<_> = expected
        .iter()
        .map(|(key, _)| {
            let engine = if key.engine == "SciDB" {
                "scidb".to_string()
            } else {
                key.engine.clone()
            };
            let query = key.query.name().to_string();
            std::thread::spawn(move || client_request(frame, None, &query_frame(&engine, &query)))
        })
        .collect();
    for (handle, (key, outcome)) in handles.into_iter().zip(&expected) {
        let reply = handle.join().unwrap().unwrap();
        assert_eq!(reply.get("type").and_then(Json::as_str), Some("result"));
        assert_eq!(
            reply.get("cell").and_then(Json::as_str),
            Some(key.id().as_str()),
            "served cell ids use the canonical engine spelling"
        );
        assert_eq!(
            reply.get("outcome").expect("outcome").render(),
            *outcome,
            "served outcome for {} must be byte-identical to batch",
            key.id()
        );
    }

    // The HTTP front returns the very same bytes. A `figure` key is
    // ignored like any other unknown key: a cell names no exhibit.
    let (key, outcome) = &expected[0];
    let body = format!(
        "{{\"engine\": \"{}\", \"query\": \"{}\", \"size\": \"small\", \"figure\": \"fig2\"}}",
        key.engine,
        key.query.name()
    );
    let (status, reply) = http_request(server.http, "POST", "/query", &body, &[]);
    assert_eq!(status, 200, "{reply}");
    let reply = Json::parse(&reply).unwrap();
    assert_eq!(
        reply.get("cell").and_then(Json::as_str),
        Some(key.id().as_str())
    );
    assert_eq!(reply.get("outcome").expect("outcome").render(), *outcome);

    let report = server.shutdown();
    assert_eq!(
        report,
        ServeReport {
            served: cases.len() as u64 + 1,
            failed: 0,
            rejected: 0
        }
    );
}

/// The served path honors the harness's streaming configuration: a server
/// built with `--stream` answers with bytes identical to the streaming
/// batch path, and the Prometheus surface counts the morsel batches.
#[test]
fn streaming_server_matches_the_streaming_batch_path() {
    let mut config = sim_config();
    config.stream = Some(genbase::engine::StreamConfig {
        batch_rows: 64,
        ..Default::default()
    });
    let threads = config.threads.max(1);
    let server = start_server_with(config.clone(), ServeOptions::default());

    let key = CellKey {
        query: Query::Covariance,
        size: SizeClass::Small,
        nodes: 1,
        engine: "Column store + R".to_string(),
    };
    let scheduler = Scheduler::new(config).unwrap();
    let expected = scheduler
        .run_cell(&key, threads)
        .unwrap()
        .to_json()
        .render();

    let reply = client_request(
        server.frame,
        None,
        &query_frame(&key.engine, key.query.name()),
    )
    .unwrap();
    assert_eq!(reply.get("type").and_then(Json::as_str), Some("result"));
    assert_eq!(
        reply.get("outcome").expect("outcome").render(),
        expected,
        "served streaming outcome must be byte-identical to the streaming batch path"
    );

    let (_, metrics) = http_request(server.http, "GET", "/metrics", "", &[]);
    let batches: u64 = metrics
        .lines()
        .find_map(|l| l.strip_prefix("genbase_stream_batches_total "))
        .expect("stream batches metric")
        .parse()
        .unwrap();
    assert!(batches > 0, "streaming server served without streaming");
    // The reel was opened over the dataset's spool: the whole 60x60 triple
    // relation sits in one temp file for as long as the server runs, and
    // an operator can see how big it is.
    let spooled = 60 * 60 * 3 * 8;
    assert_eq!(metric(&metrics, "genbase_loaded_spool_bytes"), spooled);
    let (_, body) = http_request(server.http, "GET", "/status", "", &[]);
    let doc = Json::parse(&body).unwrap();
    assert_eq!(
        doc.get("loaded_spool_bytes").and_then(Json::as_u64),
        Some(spooled)
    );

    // The server's `--stream` configuration is the only streaming
    // control: the retired per-request key is an error, even here.
    assert_stream_key_is_rejected(&server);
    server.shutdown();
}

#[test]
fn explain_frames_match_the_direct_render() {
    let server = start_server(ServeOptions::default());
    let mut req = Json::obj();
    req.set("type", Json::from("explain"));
    req.set("engine", Json::from("SciDB"));
    req.set("query", Json::from("covariance"));
    req.set("json", Json::Bool(true));
    let reply = client_request(server.frame, None, &req).unwrap();
    assert_eq!(reply.get("type").and_then(Json::as_str), Some("result"));

    let harness = Harness::new(sim_config()).unwrap();
    let expected = figures::explain_json(
        &harness,
        SizeClass::Small,
        1,
        Some("SciDB"),
        Some(Query::from_name("covariance").unwrap()),
    )
    .unwrap();
    assert_eq!(
        reply.get("explain_json").and_then(Json::as_str),
        Some(expected.as_str())
    );

    // Like a `query`, an `explain` names a size this server holds: any
    // other is a protocol error (`reject`), not a plan of absent data.
    req.set("size", Json::from("large"));
    let reply = client_request(server.frame, None, &req).unwrap();
    assert_eq!(reply.get("type").and_then(Json::as_str), Some("reject"));
    let reason = reply.get("reason").and_then(Json::as_str).unwrap();
    assert!(reason.contains("not resident"), "{reason}");
    server.shutdown();
}

#[test]
fn http_status_metrics_and_error_paths() {
    let server = start_server(ServeOptions::default().with_queue_depth(16));

    let (status, body) = http_request(server.http, "GET", "/status", "", &[]);
    assert_eq!(status, 200);
    let doc = Json::parse(&body).unwrap();
    assert_eq!(doc.get("service").and_then(Json::as_str), Some("serve"));
    assert_eq!(doc.get("state").and_then(Json::as_str), Some("serving"));
    assert_eq!(
        doc.get("fingerprint").and_then(Json::as_str),
        Some(config_fingerprint(&sim_config()).as_str())
    );
    assert_eq!(doc.get("plans").and_then(Json::as_u64), Some(5));
    assert_eq!(doc.get("queue_depth").and_then(Json::as_u64), Some(16));

    // One served query populates every counter family.
    let (status, reply) = http_request(
        server.http,
        "POST",
        "/query",
        r#"{"engine": "SciDB", "query": "covariance"}"#,
        &[],
    );
    assert_eq!(status, 200, "{reply}");
    let (status, metrics) = http_request(server.http, "GET", "/metrics", "", &[]);
    assert_eq!(status, 200);
    assert!(metrics.contains("genbase_queries_total{engine=\"SciDB\"} 1"));
    assert!(metrics.contains("genbase_served_total 1"));
    assert!(metrics.contains("genbase_query_failures_total 0"));
    assert!(metrics.contains("genbase_phase_sim_nanos_total{phase=\"dm\"}"));
    assert!(metrics.contains("genbase_phase_sim_nanos_total{phase=\"analytics\"}"));
    assert!(metrics.contains("genbase_rejected_total{reason=\"over_budget\"} 0"));
    assert!(metrics.contains("genbase_rejected_total{reason=\"queue_full\"} 0"));
    assert!(metrics.contains("genbase_queue_depth 0"));
    assert!(metrics.contains("genbase_mem_reserved_bytes 0"));
    // A materializing server streams nothing: the counters exist but stay 0.
    assert!(metrics.contains("genbase_stream_batches_total 0"));
    assert!(metrics.contains("genbase_spill_bytes_total 0"));
    let moved: u64 = metrics
        .lines()
        .find_map(|l| l.strip_prefix("genbase_bytes_moved_total "))
        .expect("bytes-moved counter")
        .parse()
        .unwrap();
    assert!(moved > 0, "a completed query must move storage-layer bytes");

    // Error paths answer with named statuses, never a closed socket.
    assert_stream_key_is_rejected(&server);
    assert_eq!(http_request(server.http, "GET", "/nope", "", &[]).0, 404);
    assert_eq!(http_request(server.http, "GET", "/query", "", &[]).0, 405);
    assert_eq!(
        http_request(server.http, "POST", "/query", "not json", &[]).0,
        400
    );
    assert_eq!(
        http_request(server.http, "POST", "/query", r#"{"engine": "SciDB"}"#, &[]).0,
        400
    );
    assert_eq!(
        http_request(
            server.http,
            "POST",
            "/query",
            r#"{"engine": "NoDB", "query": "covariance"}"#,
            &[]
        )
        .0,
        400
    );
    server.shutdown();
}

#[test]
fn over_budget_requests_get_clean_rejections_not_ooms() {
    let estimate = working_set_estimate(&sim_config(), SizeClass::Small);
    let server = start_server(
        ServeOptions::default()
            .with_mem_budget(estimate - 1)
            .with_queue_depth(4),
    );

    // Framed: a `busy` frame with retry=false — this estimate can never fit.
    let reply = client_request(server.frame, None, &query_frame("SciDB", "covariance")).unwrap();
    assert_eq!(reply.get("type").and_then(Json::as_str), Some("busy"));
    assert!(
        matches!(reply.get("retry"), Some(Json::Bool(false))),
        "an estimate over the whole budget is not retryable"
    );
    assert!(reply
        .get("reason")
        .and_then(Json::as_str)
        .unwrap()
        .contains("memory budget"));

    // HTTP: a clean 429 with the same reason.
    let (status, body) = http_request(
        server.http,
        "POST",
        "/query",
        r#"{"engine": "SciDB", "query": "covariance"}"#,
        &[],
    );
    assert_eq!(status, 429, "{body}");
    assert!(body.contains("memory budget"));

    let (_, metrics) = http_request(server.http, "GET", "/metrics", "", &[]);
    assert!(metrics.contains("genbase_rejected_total{reason=\"over_budget\"} 2"));
    assert!(metrics.contains(&format!("genbase_mem_budget_bytes {}", estimate - 1)));

    let report = server.shutdown();
    assert_eq!(
        report,
        ServeReport {
            served: 0,
            failed: 0,
            rejected: 2
        }
    );
}

/// An `explain` the admission controller turns away is answered like a
/// `query` is: a `busy` frame on a connection that stays open.
#[test]
fn a_rejected_explain_is_busy_and_keeps_the_connection() {
    let server = start_server(ServeOptions::default().with_mem_budget(1024));
    let mut conn = TcpStream::connect(server.frame).unwrap();
    conn.set_read_timeout(Some(Duration::from_secs(30)))
        .unwrap();
    let mut exchange = |frame: &Json| {
        write_frame(&mut conn, frame).unwrap();
        let reply = read_frame_opt(&mut conn).unwrap();
        reply.expect("a reply, not EOF")
    };
    let type_of = |reply: &Json| reply.get("type").and_then(Json::as_str).map(str::to_owned);
    let mut hello = Json::obj();
    hello.set("type", Json::from("hello"));
    hello.set("protocol", Json::from(PROTOCOL));
    hello.set("role", Json::from("client"));
    assert_eq!(type_of(&exchange(&hello)).as_deref(), Some("welcome"));

    let mut explain = query_frame("SciDB", "covariance");
    explain.set("type", Json::from("explain"));
    let busy = exchange(&explain);
    assert_eq!(type_of(&busy).as_deref(), Some("busy"), "{}", busy.render());
    assert!(
        matches!(busy.get("retry"), Some(Json::Bool(false))),
        "an estimate over the whole budget is not retryable"
    );
    let reason = busy.get("reason").and_then(Json::as_str).unwrap();
    assert!(reason.contains("memory budget"), "{reason}");

    let mut status = Json::obj();
    status.set("type", Json::from("status"));
    let status = exchange(&status);
    assert_eq!(
        status.get("service").and_then(Json::as_str),
        Some("serve"),
        "the connection outlived the rejection: {}",
        status.render()
    );
    drop(conn);
    assert_eq!(server.shutdown().rejected, 1);
}

#[test]
fn a_budget_for_one_admits_contending_clients_in_turn() {
    let estimate = working_set_estimate(&sim_config(), SizeClass::Small);
    let server = start_server(
        ServeOptions::default()
            .with_mem_budget(estimate)
            .with_queue_depth(8),
    );

    // Four clients contend for a budget that fits exactly one working set:
    // whoever collides queues, is admitted when the reservation frees, and
    // everyone gets a real answer.
    let frame = server.frame;
    let handles: Vec<_> = (0..4)
        .map(|_| {
            std::thread::spawn(move || {
                client_request(frame, None, &query_frame("SciDB", "covariance"))
            })
        })
        .collect();
    for handle in handles {
        let reply = handle.join().unwrap().unwrap();
        assert_eq!(
            reply.get("type").and_then(Json::as_str),
            Some("result"),
            "{}",
            reply.render()
        );
    }

    let (_, body) = http_request(server.http, "GET", "/status", "", &[]);
    let doc = Json::parse(&body).unwrap();
    assert_eq!(
        doc.get("mem_reserved").and_then(Json::as_u64),
        Some(0),
        "all reservations released after the runs"
    );
    let report = server.shutdown();
    assert_eq!(report.served, 4);
    assert_eq!((report.failed, report.rejected), (0, 0));
}

#[test]
fn auth_token_gates_query_submission() {
    let server = start_server(ServeOptions::default().with_auth_token("sesame"));

    // Framed: no token → rejected at the handshake, token never echoed.
    let err = client_request(server.frame, None, &query_frame("SciDB", "covariance")).unwrap_err();
    assert!(err.to_string().contains("auth token"), "{err}");
    assert!(!err.to_string().contains("sesame"));
    let mut status_req = Json::obj();
    status_req.set("type", Json::from("status"));
    let reply = client_request(server.frame, Some("sesame"), &status_req).unwrap();
    assert_eq!(reply.get("type").and_then(Json::as_str), Some("status"));
    assert!(!reply.render().contains("sesame"));

    // HTTP: /query needs the bearer token; observability stays open.
    let body = r#"{"engine": "SciDB", "query": "covariance"}"#;
    assert_eq!(
        http_request(server.http, "POST", "/query", body, &[]).0,
        401
    );
    assert_eq!(
        http_request(
            server.http,
            "POST",
            "/query",
            body,
            &[("Authorization", "Bearer wrong")]
        )
        .0,
        401
    );
    assert_eq!(
        http_request(
            server.http,
            "POST",
            "/query",
            body,
            &[("Authorization", "Bearer sesame")]
        )
        .0,
        200
    );
    assert_eq!(http_request(server.http, "GET", "/status", "", &[]).0, 200);
    assert_eq!(http_request(server.http, "GET", "/metrics", "", &[]).0, 200);
    server.shutdown();
}

/// Extract one metric's value from a Prometheus text exposition.
fn metric(metrics: &str, name: &str) -> u64 {
    metrics
        .lines()
        .find_map(|l| l.strip_prefix(&format!("{name} ")))
        .unwrap_or_else(|| panic!("metric {name} missing"))
        .parse()
        .unwrap_or_else(|_| panic!("metric {name} not an integer"))
}

#[test]
fn repeat_queries_replay_byte_identically_from_the_caches() {
    let server = start_server(ServeOptions::default().with_cache_budget(256 << 20));

    // The batch side of the identity: the cold scheduler's rendering of
    // the same cell, which every served answer — cold and artifact-warm —
    // must match byte for byte.
    let config = sim_config();
    let key = CellKey {
        query: Query::Covariance,
        size: SizeClass::Small,
        nodes: 1,
        engine: "Postgres + R".to_string(),
    };
    let expected = Scheduler::new(config)
        .unwrap()
        .run_cell(&key, 2)
        .unwrap()
        .to_json()
        .render();

    // Framed: cold, then warm — the full reply frames must be equal.
    let request = query_frame(&key.engine, key.query.name());
    let cold = client_request(server.frame, None, &request).unwrap();
    let warm = client_request(server.frame, None, &request).unwrap();
    assert_eq!(cold.get("outcome").expect("outcome").render(), expected);
    assert_eq!(
        cold.render(),
        warm.render(),
        "an artifact-warm reply must be byte-identical to the cold reply"
    );

    // HTTP: the same two requests, the same byte-identity on raw bodies.
    let body = format!(
        "{{\"engine\": \"{}\", \"query\": \"{}\"}}",
        key.engine,
        key.query.name()
    );
    let (status_a, first) = http_request(server.http, "POST", "/query", &body, &[]);
    let (status_b, second) = http_request(server.http, "POST", "/query", &body, &[]);
    assert_eq!((status_a, status_b), (200, 200));
    assert_eq!(first, second, "HTTP repeats must be byte-identical");
    assert_eq!(
        Json::parse(&first)
            .unwrap()
            .get("outcome")
            .expect("outcome")
            .render(),
        expected
    );

    // The cache actually did the work: the join artifact filled on the
    // cold run and the three repeats replayed it.
    let (_, metrics) = http_request(server.http, "GET", "/metrics", "", &[]);
    assert_eq!(metric(&metrics, "genbase_cache_hits_total"), 3);
    assert_eq!(metric(&metrics, "genbase_cache_misses_total"), 1);
    assert!(metric(&metrics, "genbase_cache_bytes") > 0);
    let (_, body) = http_request(server.http, "GET", "/status", "", &[]);
    let doc = Json::parse(&body).unwrap();
    assert_eq!(
        doc.get("cache_hits").and_then(Json::as_u64),
        Some(metric(&metrics, "genbase_cache_hits_total"))
    );

    let report = server.shutdown();
    assert_eq!(report.served, 4);
    assert_eq!((report.failed, report.rejected), (0, 0));
}

#[test]
fn warm_artifacts_shrink_the_admission_estimate() {
    // The quick scale floors the working-set estimate, which would mask
    // the shrink; 0.048 puts Small at 240x240 (1.8 MB estimated), with a
    // 386 KB gene-filtered join artifact to subtract once it is resident.
    let mut config = sim_config();
    config.scale = 0.048;
    let cold_estimate = working_set_estimate(&config, SizeClass::Small);
    let server = start_server_with(config, ServeOptions::default().with_cache_budget(256 << 20));

    let request = query_frame("Postgres + R", "regression");
    client_request(server.frame, None, &request).unwrap();
    let (_, metrics) = http_request(server.http, "GET", "/metrics", "", &[]);
    assert_eq!(
        metric(&metrics, "genbase_admission_estimate_bytes"),
        cold_estimate,
        "the first query reserves the full cold estimate"
    );

    client_request(server.frame, None, &request).unwrap();
    let (_, metrics) = http_request(server.http, "GET", "/metrics", "", &[]);
    let warm_estimate = metric(&metrics, "genbase_admission_estimate_bytes");
    assert!(
        warm_estimate < cold_estimate,
        "resident artifacts must shrink the reservation \
         (warm {warm_estimate} vs cold {cold_estimate})"
    );
    assert!(
        warm_estimate >= 1 << 20,
        "the estimate never shrinks below the admission floor"
    );
    server.shutdown();
}

#[test]
fn a_tiny_cache_budget_degrades_to_correct_cold_runs() {
    // A budget too small for any artifact forces every fill to fail or
    // evict; the server must still answer, byte-identical to batch.
    let server = start_server(ServeOptions::default().with_cache_budget(4096));
    let key = CellKey {
        query: Query::Svd,
        size: SizeClass::Small,
        nodes: 1,
        engine: "Column store + UDFs".to_string(),
    };
    let expected = Scheduler::new(sim_config())
        .unwrap()
        .run_cell(&key, 2)
        .unwrap()
        .to_json()
        .render();
    for _ in 0..2 {
        let reply = client_request(
            server.frame,
            None,
            &query_frame(&key.engine, key.query.name()),
        )
        .unwrap();
        assert_eq!(reply.get("outcome").expect("outcome").render(), expected);
    }
    server.shutdown();
}

/// Load once, query many: a resident server loads each store kind's base
/// tables on the first SQL query that needs them and every later query, on
/// either front, borrows them — with replies byte-equal to the batch cells.
#[test]
fn served_sql_queries_share_one_load_of_the_base_tables() {
    let server = start_server(ServeOptions::default());
    let (_, metrics) = http_request(server.http, "GET", "/metrics", "", &[]);
    assert_eq!(metric(&metrics, "genbase_loaded_tables_builds_total"), 0);
    assert_eq!(metric(&metrics, "genbase_loaded_tables_bytes"), 0);

    let scheduler = Scheduler::new(sim_config()).unwrap();
    let engines = ["Postgres + R", "Column store + R", "Column store + UDFs"];
    let mut served = 0;
    for round in 0..2 {
        for engine in engines {
            for query in Query::ALL {
                let key = CellKey {
                    query,
                    size: SizeClass::Small,
                    nodes: 1,
                    engine: engine.to_string(),
                };
                let expected = scheduler.run_cell(&key, 2).unwrap().to_json().render();
                // Alternate the fronts; fifteen cells a round, so each cell
                // is asked once over frames and once over HTTP.
                let outcome = if served % 2 == 0 {
                    client_request(server.frame, None, &query_frame(engine, query.name())).unwrap()
                } else {
                    let body = query_frame(engine, query.name()).render();
                    let (status, reply) = http_request(server.http, "POST", "/query", &body, &[]);
                    assert_eq!(status, 200, "{reply}");
                    Json::parse(&reply).unwrap()
                };
                assert_eq!(
                    outcome.get("outcome").expect("outcome").render(),
                    expected,
                    "{} round {round}",
                    key.id()
                );
                served += 1;
            }
        }
    }
    assert_eq!(served, 30);

    // One size class, two store kinds: two loads for thirty queries.
    let (_, metrics) = http_request(server.http, "GET", "/metrics", "", &[]);
    assert_eq!(metric(&metrics, "genbase_loaded_tables_builds_total"), 2);
    let resident = metric(&metrics, "genbase_loaded_tables_bytes");
    assert!(resident > 0);
    let (_, body) = http_request(server.http, "GET", "/status", "", &[]);
    let doc = Json::parse(&body).unwrap();
    assert_eq!(
        doc.get("loaded_tables_builds").and_then(Json::as_u64),
        Some(2)
    );
    assert_eq!(
        doc.get("loaded_tables_bytes").and_then(Json::as_u64),
        Some(resident)
    );
    assert_eq!(metric(&metrics, "genbase_loaded_spool_bytes"), 0);

    // SciDB's chunked arrays are loaded the same way and counted with the
    // tables: one more load and 60x60 doubles more, however often asked.
    for query in ["covariance", "svd"] {
        client_request(server.frame, None, &query_frame("SciDB", query)).unwrap();
    }
    let (_, metrics) = http_request(server.http, "GET", "/metrics", "", &[]);
    assert_eq!(metric(&metrics, "genbase_loaded_tables_builds_total"), 3);
    assert_eq!(
        metric(&metrics, "genbase_loaded_tables_bytes"),
        resident + 60 * 60 * 8
    );
    assert_eq!(server.shutdown().served, 32);
}

#[test]
fn drain_says_bye_to_idle_connections_and_reports_final_tallies() {
    let server = start_server(ServeOptions::default());

    // One answered query so the final report has something to count.
    let reply = client_request(server.frame, None, &query_frame("SciDB", "covariance")).unwrap();
    assert_eq!(reply.get("type").and_then(Json::as_str), Some("result"));

    // An idle framed connection sits in the server's poll loop...
    let mut idle = TcpStream::connect(server.frame).unwrap();
    let mut hello = Json::obj();
    hello.set("type", Json::from("hello"));
    hello.set("protocol", Json::from(PROTOCOL));
    hello.set("role", Json::from("client"));
    write_frame(&mut idle, &hello).unwrap();
    let welcome = read_frame_opt(&mut idle).unwrap().unwrap();
    assert_eq!(welcome.get("type").and_then(Json::as_str), Some("welcome"));
    assert_eq!(
        welcome.get("fingerprint").and_then(Json::as_str),
        Some(config_fingerprint(&sim_config()).as_str())
    );

    // ...and is told goodbye when the server drains.
    server.stop.store(true, Ordering::Relaxed);
    idle.set_read_timeout(Some(Duration::from_secs(30)))
        .unwrap();
    let bye = read_frame_opt(&mut idle)
        .unwrap()
        .expect("bye before close");
    assert_eq!(bye.get("type").and_then(Json::as_str), Some("bye"));
    assert_eq!(bye.get("reason").and_then(Json::as_str), Some("draining"));

    let report = server.handle.join().unwrap().unwrap();
    assert_eq!(
        report,
        ServeReport {
            served: 1,
            failed: 0,
            rejected: 0
        }
    );
}

/// `nodes` below 1, or not a whole number, is refused by the one request
/// parser on both fronts, for `query` and `explain` alike — not answered
/// as a one-node cell labelled `n0`.
#[test]
fn nodes_below_one_is_refused_on_both_fronts() {
    let server = start_server(ServeOptions::default());
    for nodes in [Json::from(0u64), Json::Num(1.5), Json::from("two")] {
        for kind in ["query", "explain"] {
            let mut frame = query_frame("SciDB", "covariance");
            frame.set("type", Json::from(kind));
            frame.set("nodes", nodes.clone());
            let reply = client_request(server.frame, None, &frame).unwrap();
            assert_eq!(reply.get("type").and_then(Json::as_str), Some("reject"));
            let reason = reply.get("reason").and_then(Json::as_str).unwrap();
            assert!(reason.contains("nodes"), "{reason}");
        }
        let mut body = query_frame("SciDB", "covariance");
        body.set("nodes", nodes);
        let (status, reply) = http_request(server.http, "POST", "/query", &body.render(), &[]);
        assert_eq!(status, 400, "{reply}");
        assert!(reply.contains("nodes"), "{reply}");
    }
    assert_eq!(server.shutdown(), ServeReport::default());
}

/// One small frame of nothing but `[` — sent before any handshake — and
/// the same bytes as a `POST /query` body each get a typed refusal, not a
/// stack overflow that takes the whole server down.
#[test]
fn a_deeply_nested_frame_or_body_is_refused_and_the_server_keeps_serving() {
    let server = start_server(ServeOptions::default());
    let brackets = "[".repeat(20_000);

    let mut conn = TcpStream::connect(server.frame).unwrap();
    conn.set_read_timeout(Some(Duration::from_secs(30)))
        .unwrap();
    conn.write_all(&(brackets.len() as u32).to_be_bytes())
        .unwrap();
    conn.write_all(brackets.as_bytes()).unwrap();
    let reply = read_frame_opt(&mut conn)
        .unwrap()
        .expect("a reject, not EOF");
    assert_eq!(reply.get("type").and_then(Json::as_str), Some("reject"));
    let reason = reply.get("reason").and_then(Json::as_str).unwrap();
    assert!(reason.contains("nested deeper"), "{reason}");

    let (status, body) = http_request(server.http, "POST", "/query", &brackets, &[]);
    assert_eq!(status, 400, "{body}");
    assert!(body.contains("nested deeper"), "{body}");

    let (status, body) = http_request(server.http, "GET", "/status", "", &[]);
    assert_eq!(status, 200, "{body}");
    let reply = client_request(server.frame, None, &query_frame("SciDB", "covariance")).unwrap();
    assert_eq!(reply.get("type").and_then(Json::as_str), Some("result"));
    server.shutdown();
}

/// A frame or HTTP request cut short by the peer's half-close, and one the
/// peer never finishes, each get a typed refusal — a `reject` frame, a 400 —
/// within the handshake deadline plus slack, and the server goes on
/// answering. The six connections run at once, so the test waits out one
/// deadline, not six.
#[test]
fn cut_short_and_unfinished_input_is_refused_within_the_handshake_deadline() {
    // `session::HANDSHAKE_TIMEOUT`: the whole first message must arrive by then.
    const DEADLINE: Duration = Duration::from_secs(10);
    let server = start_server(ServeOptions::default());
    let (frame, http) = (server.frame, server.http);
    let mut hello = Json::obj();
    hello.set("type", Json::from("hello"));
    hello.set("protocol", Json::from(PROTOCOL));
    let hello = encode_frame(&hello).unwrap();
    let cut = hello[..hello.len() - 3].to_vec();
    let head = b"GET /status HTTP/1.1\r\nHost: test\r\n".to_vec();
    let short_body = b"POST /query HTTP/1.1\r\nContent-Length: 100\r\n\r\n{\"engine\"".to_vec();
    // (front, the bytes the peer sends, whether it then half-closes, what
    // the refusal must say)
    let cases = [
        (
            frame,
            hello[..2].to_vec(),
            true,
            "truncated frame length prefix",
        ),
        (frame, cut.clone(), true, "truncated frame"),
        (frame, cut, false, "read frame payload"),
        (http, head.clone(), true, "EOF before end of headers"),
        (http, short_body, true, "EOF mid-body"),
        (http, head, false, "bad request"),
    ];
    let started = Instant::now();
    std::thread::scope(|scope| {
        for (addr, bytes, half_close, needle) in cases {
            scope.spawn(move || {
                let mut conn = TcpStream::connect(addr).unwrap();
                conn.set_read_timeout(Some(DEADLINE * 3)).unwrap();
                conn.write_all(&bytes).unwrap();
                if half_close {
                    conn.shutdown(Shutdown::Write).unwrap();
                }
                let refusal = if addr == frame {
                    let reply = read_frame_opt(&mut conn)
                        .unwrap()
                        .expect("a reject, not EOF");
                    assert_eq!(reply.get("type").and_then(Json::as_str), Some("reject"));
                    reply
                        .get("reason")
                        .and_then(Json::as_str)
                        .unwrap()
                        .to_string()
                } else {
                    let mut raw = String::new();
                    conn.read_to_string(&mut raw).unwrap();
                    assert!(raw.starts_with("HTTP/1.1 400 "), "{raw}");
                    raw
                };
                assert!(refusal.contains(needle), "{needle}: {refusal}");
                let waited = started.elapsed();
                assert!(
                    waited < DEADLINE + Duration::from_secs(5),
                    "{needle}: {waited:?}"
                );
                if !half_close {
                    // The deadline, not an early close, ended the wait.
                    assert!(waited >= DEADLINE - Duration::from_secs(1), "{waited:?}");
                }
            });
        }
    });
    let (status, body) = http_request(http, "GET", "/status", "", &[]);
    assert_eq!(status, 200, "{body}");
    let mut status = Json::obj();
    status.set("type", Json::from("status"));
    let reply = client_request(frame, None, &status).unwrap();
    assert_eq!(reply.get("service").and_then(Json::as_str), Some("serve"));
    server.shutdown();
}
