//! The session layer under both network services — the distributed sweep's
//! coordinator ([`crate::coord`]) and the resident server ([`crate::serve`]).
//!
//! Everything either service does on a socket that is not its own role logic
//! lives here exactly once:
//!
//! - the **wire vocabulary and dial side**: [`PROTOCOL`], [`msg`] /
//!   [`msg_type`], the client [`hello`], the retry-within-a-window [`dial`]
//!   and the one-shot [`request`];
//! - the **gate**: [`admit`] reads `hello` under the one handshake deadline
//!   and checks, in this order, frame type, protocol id, auth token, role and
//!   config fingerprint, writing the `reject` frame itself;
//! - the **frame loop**: [`frame_loop`], the strict read-one / reply-one
//!   alternation after the handshake;
//! - the **accept loop**: [`run_listeners`], one blocking acceptor thread per
//!   listener, one handler thread per connection, the calling thread ticking
//!   on the service's own `keep_going`, and a self-connect wake at drain.
//!
//! The handshake deadline is a deadline, not a per-`read()` timeout: `hello`
//! (and the HTTP front's request, [`read_http`]) is read through a reader
//! that re-arms the socket timeout with the time *remaining*, so a peer that
//! dribbles one byte at a time cannot hold a handler thread past it.
//!
//! Connection handlers are dedicated OS threads, never shared-pool tasks:
//! they block on socket reads for the lifetime of a peer, and a capped task
//! pool must never have its slots parked on I/O (the same rule as
//! `genbase_cluster::Cluster::run`). Cell compute still goes through the pool.

use genbase_util::frame::{read_frame_opt, write_frame};
use genbase_util::http::{self, HttpRequest};
use genbase_util::retry::{transient_connect_error, Backoff};
use genbase_util::{faults, Error, Json, Result};
use std::io::{self, BufReader, Read};
use std::net::{Ipv4Addr, Ipv6Addr, SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::sync::atomic::{AtomicBool, Ordering};
use std::time::{Duration, Instant};

/// Protocol identifier sent in every handshake; bump on wire changes.
pub const PROTOCOL: &str = "genbase-coord-v1";

/// How long a fresh connection gets to deliver its whole `hello` (or HTTP
/// request): a peer that takes longer is wedged or hostile, not slow.
const HANDSHAKE_TIMEOUT: Duration = Duration::from_secs(10);

/// How long a one-shot [`request`] waits for its reply.
const REPLY_TIMEOUT: Duration = Duration::from_secs(120);

/// How often [`run_listeners`] asks the service whether to keep going.
const TICK: Duration = Duration::from_millis(5);

/// A frame of the given `type`.
pub(crate) fn msg(kind: &str) -> Json {
    let mut m = Json::obj();
    m.set("type", Json::from(kind));
    m
}

/// A frame's `type`.
pub(crate) fn msg_type(m: &Json) -> Result<&str> {
    let kind = m.get("type").and_then(Json::as_str);
    kind.ok_or_else(|| Error::invalid("frame missing type"))
}

fn reject(reason: &str) -> Json {
    let mut m = msg("reject");
    m.set("reason", Json::from(reason));
    m
}

/// The connecting side of the handshake, shared by every role that dials in
/// (sweep worker, `status` poller, `serve` client): send `hello`, read the
/// reply, and turn EOF, `reject` or anything unexpected into an error.
/// Returns the `welcome` frame.
pub(crate) fn hello(
    stream: &mut TcpStream,
    role: Option<&str>,
    config: Option<&str>,
    token: Option<&str>,
) -> Result<Json> {
    let mut hello = msg("hello");
    hello.set("protocol", Json::from(PROTOCOL));
    for (key, value) in [("role", role), ("config", config), ("token", token)] {
        if let Some(value) = value {
            hello.set(key, Json::from(value));
        }
    }
    write_frame(stream, &hello)?;
    let welcome =
        read_frame_opt(stream)?.ok_or_else(|| Error::invalid("peer closed during handshake"))?;
    match msg_type(&welcome)? {
        "welcome" => Ok(welcome),
        "reject" => {
            let reason = welcome.get("reason").and_then(Json::as_str);
            Err(Error::invalid(format!(
                "handshake rejected: {}",
                reason.unwrap_or("unspecified")
            )))
        }
        other => Err(Error::invalid(format!(
            "unexpected handshake reply {other:?}"
        ))),
    }
}

/// Dial `addr`, retrying transient connect errors (refused — the service has
/// not bound yet — reset, timed out, interrupted) until `window` elapses.
/// Anything else (DNS failure, unroutable address) is permanent: fail fast.
pub(crate) fn dial(
    addr: impl ToSocketAddrs,
    window: Duration,
    backoff: &mut Backoff,
) -> Result<TcpStream> {
    let failed = |e: io::Error| Error::invalid(format!("connect: {e}"));
    let addrs: Vec<SocketAddr> = addr.to_socket_addrs().map_err(failed)?.collect();
    let deadline = Instant::now() + window;
    let mut attempt: u32 = 0;
    loop {
        match faults::hit("worker.connect").and_then(|_| TcpStream::connect(&addrs[..])) {
            Ok(stream) => {
                let _ = stream.set_nodelay(true);
                return Ok(stream);
            }
            Err(e) if transient_connect_error(&e) && Instant::now() < deadline => {
                std::thread::sleep(backoff.delay(attempt));
                attempt += 1;
            }
            Err(e) => return Err(failed(e)),
        }
    }
}

/// One-shot client: dial within `window`, `hello` as `role`, send `frame`,
/// return the single reply.
pub(crate) fn request(
    addr: impl ToSocketAddrs,
    window: Duration,
    role: &str,
    token: Option<&str>,
    frame: &Json,
) -> Result<Json> {
    let mut backoff = Backoff::new(100, 5_000, faults::plan_seed().unwrap_or(0x57a7));
    let mut stream = dial(addr, window, &mut backoff)?;
    let _ = stream.set_read_timeout(Some(REPLY_TIMEOUT));
    hello(&mut stream, Some(role), None, token)?;
    write_frame(&mut stream, frame)?;
    read_frame_opt(&mut stream)?.ok_or_else(|| Error::invalid("peer closed before reply"))
}

/// Reads from a socket until a fixed instant: each `read` gets only the time
/// still remaining, so the deadline bounds the whole message however slowly
/// its bytes arrive.
struct DeadlineReader<'a> {
    stream: &'a TcpStream,
    deadline: Instant,
}

impl Read for DeadlineReader<'_> {
    fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
        let left = self.deadline.saturating_duration_since(Instant::now());
        if left.is_zero() {
            return Err(io::ErrorKind::TimedOut.into());
        }
        self.stream.set_read_timeout(Some(left))?;
        self.stream.read(buf)
    }
}

/// What a service admits at `hello`.
pub(crate) struct Gate<'a> {
    /// The shared auth token; both sides must agree, including on its absence.
    pub token: Option<&'a str>,
    /// The service's config fingerprint.
    pub fingerprint: &'a str,
    /// Admitted roles and whether each must present the fingerprint (one
    /// that is presented is always checked). A `hello` naming no role gets
    /// the first.
    pub roles: &'a [(&'a str, bool)],
}

/// The listening side of the handshake: read `hello` within
/// [`HANDSHAKE_TIMEOUT`] and check it against `gate`. A refusal — a first
/// frame that is malformed, late or wrong — is written to the peer as a
/// `reject` frame; admission returns the role, and the service answers with
/// its own `welcome`.
pub(crate) fn admit<'a>(stream: &mut TcpStream, gate: &Gate<'a>) -> Result<&'a str> {
    admit_by(stream, gate, Instant::now() + HANDSHAKE_TIMEOUT)
}

fn admit_by<'a>(stream: &mut TcpStream, gate: &Gate<'a>, deadline: Instant) -> Result<&'a str> {
    let checked = match read_frame_opt(&mut DeadlineReader { stream, deadline }) {
        Ok(Some(hello)) => check_hello(&hello, gate),
        Ok(None) => return Err(Error::invalid("closed before hello")),
        Err(e) => Err(e.to_string()),
    };
    checked.map_err(|reason| {
        let _ = write_frame(stream, &reject(&reason));
        Error::invalid(reason)
    })
}

fn check_hello<'a>(hello: &Json, gate: &Gate<'a>) -> std::result::Result<&'a str, String> {
    let text = |key: &str| hello.get(key).and_then(Json::as_str);
    if !matches!(msg_type(hello), Ok("hello")) {
        return Err("expected hello".to_string());
    }
    let speaks = text("protocol");
    if speaks != Some(PROTOCOL) {
        return Err(format!(
            "protocol mismatch: peer speaks {speaks:?}, want {PROTOCOL:?}"
        ));
    }
    // Auth runs before anything that echoes configuration: an
    // unauthenticated peer must learn nothing about the service (the
    // fingerprint reject below spells out scale/seed/budget details). The
    // token itself never echoes back in the reason.
    if text("token") != gate.token {
        let reason = "auth token mismatch: --auth-token / GENBASE_COORD_TOKEN must equal \
                      the service's, and be unset when the service has none";
        return Err(reason.to_string());
    }
    let role = text("role").unwrap_or(gate.roles[0].0);
    let &(role, needs_config) = (gate.roles.iter())
        .find(|(admitted, _)| *admitted == role)
        .ok_or_else(|| format!("unknown hello role {role:?}"))?;
    let have = text("config");
    if have.map_or(needs_config, |have| have != gate.fingerprint) {
        return Err(format!(
            "config fingerprint mismatch ({} vs {}); connect with the service's flags",
            have.unwrap_or("<missing>"),
            gate.fingerprint
        ));
    }
    Ok(role)
}

/// The post-handshake loop of one connection. `ready` runs before each read
/// (idle polling, read timeouts) and closes the connection by returning
/// false; `apply` turns one frame into its one reply — `Ok(None)` closes
/// silently, `Err` is sent as a `reject` and closes, and a `bye` reply
/// closes after it is written. EOF or an I/O error also ends the loop.
pub(crate) fn frame_loop(
    stream: &mut TcpStream,
    mut ready: impl FnMut(&mut TcpStream) -> bool,
    mut apply: impl FnMut(&Json) -> Result<Option<Json>>,
) {
    while ready(stream) {
        let Ok(Some(frame)) = read_frame_opt(stream) else {
            return;
        };
        let reply = match apply(&frame) {
            Ok(Some(reply)) => reply,
            Ok(None) => return,
            Err(e) => {
                let _ = write_frame(stream, &reject(&e.to_string()));
                return;
            }
        };
        if write_frame(stream, &reply).is_err() || matches!(msg_type(&reply), Ok("bye")) {
            return;
        }
    }
}

/// Read the HTTP front's one request under the handshake deadline.
pub(crate) fn read_http(stream: &TcpStream) -> io::Result<Option<HttpRequest>> {
    read_http_by(stream, Instant::now() + HANDSHAKE_TIMEOUT)
}

fn read_http_by(stream: &TcpStream, deadline: Instant) -> io::Result<Option<HttpRequest>> {
    http::read_request(&mut BufReader::new(DeadlineReader { stream, deadline }))
}

/// Serve `listeners` until `keep_going` (asked every [`TICK`] on the calling
/// thread) says stop, then drain; `what` names the service in the error.
///
/// Each listener gets a blocking acceptor thread that hands every connection
/// to its handler on a thread of its own. At drain `on_drain` runs, then
/// each acceptor is woken by a connection from here (one more peer that
/// closes before `hello`), switches its listener to non-blocking and hands
/// over whatever is still queued in the backlog before it exits — so a peer
/// that connected just before the drain is answered, not reset. All threads
/// are scoped: returning means every handler has finished.
pub(crate) fn run_listeners(
    what: &str,
    listeners: &[(&TcpListener, &(dyn Fn(TcpStream) + Sync))],
    mut keep_going: impl FnMut() -> bool,
    on_drain: impl FnOnce(),
) -> Result<()> {
    let draining = AtomicBool::new(false);
    let accepted = std::thread::scope(|scope| {
        let acceptors: Vec<_> = listeners
            .iter()
            .map(|&(listener, handler)| {
                let draining = &draining;
                scope.spawn(move || -> io::Result<()> {
                    listener.set_nonblocking(false)?;
                    loop {
                        match listener.accept() {
                            Ok((stream, _)) => {
                                // Not inherited from a draining listener.
                                let _ = stream.set_nonblocking(false);
                                let _ = stream.set_nodelay(true);
                                scope.spawn(move || handler(stream));
                            }
                            // Only a draining listener is non-blocking:
                            // the backlog is empty.
                            Err(e) if e.kind() == io::ErrorKind::WouldBlock => return Ok(()),
                            Err(e) => return Err(e),
                        }
                        if draining.load(Ordering::SeqCst) {
                            listener.set_nonblocking(true)?;
                        }
                    }
                })
            })
            .collect();
        // Before the drain an acceptor only exits on an accept error.
        while !acceptors.iter().any(|a| a.is_finished()) && keep_going() {
            std::thread::sleep(TICK);
        }
        on_drain();
        draining.store(true, Ordering::SeqCst);
        for (&(listener, _), acceptor) in listeners.iter().zip(&acceptors) {
            while !acceptor.is_finished() {
                let _ = wake(listener);
                std::thread::sleep(Duration::from_millis(1));
            }
        }
        let mut joined = acceptors.into_iter().map(|a| a.join().expect("acceptor"));
        joined.try_for_each(|exit| exit)
    });
    accepted.map_err(|e| Error::invalid(format!("{what} accept: {e}")))
}

/// Connect to `listener` and hang up, so an acceptor blocked in `accept`
/// returns. A listener bound to an unspecified address is reached on
/// loopback.
fn wake(listener: &TcpListener) -> io::Result<()> {
    let mut addr = listener.local_addr()?;
    if addr.ip().is_unspecified() {
        addr.set_ip(match addr {
            SocketAddr::V4(_) => Ipv4Addr::LOCALHOST.into(),
            SocketAddr::V6(_) => Ipv6Addr::LOCALHOST.into(),
        });
    }
    TcpStream::connect_timeout(&addr, Duration::from_secs(1)).map(drop)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::coord::{run_worker_with, CoordOptions, Coordinator, WorkerOptions};
    use crate::harness::HarnessConfig;
    use crate::sched::{config_fingerprint, CellOutcome, FigureId, ReportGrid};
    use crate::serve::{BenchServer, ServeOptions, ServeReport};
    use genbase_datagen::SizeClass;
    use genbase_util::encode_frame;
    use std::io::Write;
    use std::sync::atomic::AtomicUsize;
    use std::sync::Arc;
    use std::thread::JoinHandle;

    const TOKEN: &str = "sweep-secret";

    fn quick_config() -> HarnessConfig {
        HarnessConfig {
            scale: 0.012,
            sizes: vec![SizeClass::Small],
            r_mem_bytes: u64::MAX,
            ..HarnessConfig::quick()
        }
        .sim_only()
    }

    fn coordinator(addr: &str, options: CoordOptions) -> Coordinator {
        Coordinator::bind(
            addr,
            quick_config(),
            &[FigureId::Fig1],
            SizeClass::Small,
            options,
        )
        .unwrap()
    }

    /// A coordinator whose checkpoint already holds every planned cell.
    fn finished_coordinator(addr: &str, tag: &str) -> (Coordinator, std::path::PathBuf) {
        let path =
            std::env::temp_dir().join(format!("genbase-session-{tag}-{}.json", std::process::id()));
        let mut grid = ReportGrid::default();
        grid.set_fingerprint(config_fingerprint(&quick_config()));
        let config = quick_config();
        for cell in crate::figures::plan(FigureId::Fig1, &config, SizeClass::Small) {
            grid.insert(&cell, CellOutcome::Unsupported);
        }
        grid.save(&path).unwrap();
        let coord = coordinator(addr, CoordOptions::default().with_checkpoint(&path));
        (coord, path)
    }

    /// A `BenchServer` serving on its own thread (it is not `Send`): its
    /// framed address, its stop flag and the thread to join.
    fn live_server(
        token: Option<&str>,
    ) -> (SocketAddr, Arc<AtomicBool>, JoinHandle<Result<ServeReport>>) {
        let stop = Arc::new(AtomicBool::new(false));
        let mut options = ServeOptions::default().with_stop(Arc::clone(&stop));
        options.auth_token = token.map(str::to_string);
        let (tx, rx) = std::sync::mpsc::channel();
        let handle = std::thread::spawn(move || {
            let server =
                BenchServer::bind("127.0.0.1:0", "127.0.0.1:0", quick_config(), options).unwrap();
            tx.send(server.frame_addr().unwrap()).unwrap();
            server.serve()
        });
        (rx.recv().unwrap(), stop, handle)
    }

    fn send(stream: &mut TcpStream, frame: &Json) {
        write_frame(stream, frame).unwrap();
    }

    fn recv(stream: &mut TcpStream) -> Json {
        read_frame_opt(stream).unwrap().expect("a frame, not EOF")
    }

    /// What one `hello` variant must get back.
    #[derive(Clone, Copy)]
    enum Want {
        Welcome,
        /// A `reject` whose reason contains this.
        Reject(&'static str),
    }

    /// One row of the handshake table: the first frame a peer sends, to a
    /// service with or without an auth token.
    #[derive(Clone, Copy)]
    struct Row {
        name: &'static str,
        service_has_token: bool,
        kind: &'static str,
        protocol: &'static str,
        token: Option<&'static str>,
        role: Option<&'static str>,
        /// `Some(true)`: the service's fingerprint; `Some(false)`: another.
        config: Option<bool>,
        /// What the coordinator and the server, in that order, must answer.
        want: [Want; 2],
    }

    #[test]
    fn one_handshake_table_holds_for_both_services() {
        use Want::{Reject, Welcome};
        let row = Row {
            name: "",
            service_has_token: false,
            kind: "hello",
            protocol: PROTOCOL,
            token: None,
            role: None,
            config: Some(true),
            want: [Welcome; 2],
        };
        let rows = [
            Row {
                name: "first frame is not hello",
                kind: "request",
                want: [Reject("expected hello"); 2],
                ..row
            },
            Row {
                name: "stale protocol id",
                protocol: "genbase-coord-v0",
                want: [Reject("protocol mismatch"); 2],
                ..row
            },
            Row {
                name: "wrong token",
                service_has_token: true,
                token: Some("wrong"),
                want: [Reject("auth token mismatch"); 2],
                ..row
            },
            Row {
                name: "token presented to a token-less service",
                token: Some("unexpected"),
                want: [Reject("auth token mismatch"); 2],
                ..row
            },
            Row {
                name: "missing token",
                service_has_token: true,
                want: [Reject("auth token mismatch"); 2],
                ..row
            },
            Row {
                name: "right token",
                service_has_token: true,
                token: Some(TOKEN),
                want: [Welcome; 2],
                ..row
            },
            Row {
                name: "unknown role",
                role: Some("admin"),
                want: [Reject("unknown hello role"); 2],
                ..row
            },
            Row {
                name: "fingerprint mismatch (default role: worker / client)",
                config: Some(false),
                want: [Reject("fingerprint mismatch"); 2],
                ..row
            },
            Row {
                name: "no fingerprint (default role): workers need one, clients do not",
                config: None,
                want: [Reject("fingerprint mismatch"), Welcome],
                ..row
            },
            Row {
                name: "status role with no fingerprint",
                role: Some("status"),
                config: None,
                want: [Welcome; 2],
                ..row
            },
            // The auth-before-config rule: a peer wrong in both learns about
            // the token only (`check` also asserts that no reject to a peer
            // without the right token spells out the fingerprint).
            Row {
                name: "wrong token and wrong fingerprint",
                service_has_token: true,
                token: Some("wrong"),
                config: Some(false),
                want: [Reject("auth token"); 2],
                ..row
            },
        ];

        let fingerprint = config_fingerprint(&quick_config());
        let mut coordinators = Vec::new();
        let mut servers = Vec::new();
        for token in [None, Some(TOKEN)] {
            let options = CoordOptions {
                auth_token: token.map(str::to_string),
                ..CoordOptions::default()
            };
            let coord = coordinator("127.0.0.1:0", options);
            let addr = coord.local_addr().unwrap();
            coordinators.push((addr, std::thread::spawn(move || coord.serve())));
            servers.push(live_server(token));
        }

        let check = |service: &str, addr: SocketAddr, row: &Row, want: Want| {
            let mut frame = msg(row.kind);
            frame.set("protocol", Json::from(row.protocol));
            let config = row.config.map(|right| match right {
                true => fingerprint.clone(),
                false => "some-other-fingerprint".to_string(),
            });
            for (key, value) in [
                ("token", row.token),
                ("role", row.role),
                ("config", config.as_deref()),
            ] {
                if let Some(value) = value {
                    frame.set(key, Json::from(value));
                }
            }
            let mut stream = TcpStream::connect(addr).unwrap();
            send(&mut stream, &frame);
            let reply = recv(&mut stream);
            let kind = msg_type(&reply).unwrap();
            let reason = reply.get("reason").and_then(Json::as_str).unwrap_or("");
            match want {
                Want::Welcome => assert_eq!(kind, "welcome", "{service}: {}: {reason}", row.name),
                Want::Reject(needle) => {
                    assert_eq!(kind, "reject", "{service}: {}", row.name);
                    assert!(reason.contains(needle), "{service}: {}: {reason}", row.name);
                }
            }
            let authenticated = row.token == row.service_has_token.then_some(TOKEN);
            assert!(
                authenticated || !reason.contains(&fingerprint),
                "{service}: {}: an unauthenticated peer was shown the fingerprint: {reason}",
                row.name
            );
            assert!(
                !reason.contains(TOKEN),
                "{service}: {}: token echoed",
                row.name
            );
        };
        for row in &rows {
            let which = row.service_has_token as usize;
            check("coordinator", coordinators[which].0, row, row.want[0]);
            check("server", servers[which].0, row, row.want[1]);
        }

        // Every refusal left both services serving: a matching worker still
        // drains each sweep, and each server still drains on its stop flag.
        for ((addr, serving), token) in coordinators.into_iter().zip([None, Some(TOKEN)]) {
            let options = WorkerOptions {
                auth_token: token.map(str::to_string),
                ..WorkerOptions::default()
            };
            let report =
                run_worker_with(addr, quick_config(), Duration::from_secs(5), options).unwrap();
            let outcome = serving.join().unwrap().unwrap();
            assert_eq!(report.completed, outcome.planned);
            assert_eq!(outcome.executed, outcome.planned);
        }
        for (_, stop, serving) in servers {
            stop.store(true, Ordering::Relaxed);
            serving.join().unwrap().unwrap();
        }
    }

    #[test]
    fn connections_queued_before_a_drain_are_answered_not_reset() {
        let fingerprint = config_fingerprint(&quick_config());
        let queue = |addr: SocketAddr, first: &str| -> Vec<TcpStream> {
            (0..3)
                .map(|_| {
                    let mut stream = TcpStream::connect(addr).unwrap();
                    let mut hello = msg("hello");
                    hello.set("protocol", Json::from(PROTOCOL));
                    hello.set("config", Json::from(fingerprint.as_str()));
                    send(&mut stream, &hello);
                    send(&mut stream, &msg(first));
                    stream
                })
                .collect()
        };

        // The server: three peers are in the backlog, `hello` and a status
        // poll already written, before `serve` is first called — with the
        // stop flag already set. Each is handshaken, answered and told `bye`.
        let stop = Arc::new(AtomicBool::new(true));
        let options = ServeOptions::default().with_stop(stop);
        let server =
            BenchServer::bind("127.0.0.1:0", "127.0.0.1:0", quick_config(), options).unwrap();
        let mut queued = queue(server.frame_addr().unwrap(), "status");
        server.serve().unwrap();
        for stream in &mut queued {
            assert_eq!(msg_type(&recv(stream)).unwrap(), "welcome");
            let status = recv(stream);
            assert_eq!(status.get("state").and_then(Json::as_str), Some("draining"));
            let bye = recv(stream);
            assert_eq!(msg_type(&bye).unwrap(), "bye");
            assert_eq!(bye.get("reason").and_then(Json::as_str), Some("draining"));
        }

        // The coordinator: its plan is already complete from its checkpoint,
        // so `serve` drains at once; each queued worker still gets `done`.
        let (coord, checkpoint) = finished_coordinator("127.0.0.1:0", "backlog");
        let mut queued = queue(coord.local_addr().unwrap(), "request");
        for stream in &queued {
            // A worker is done writing once it has asked; its handler must
            // see EOF to finish, as it does after a real worker reads `done`.
            stream.shutdown(std::net::Shutdown::Write).unwrap();
        }
        let outcome = coord.serve().unwrap();
        assert_eq!((outcome.executed, outcome.restored), (0, outcome.planned));
        assert_eq!(outcome.workers, 3);
        for stream in &mut queued {
            assert_eq!(msg_type(&recv(stream)).unwrap(), "welcome");
            assert_eq!(msg_type(&recv(stream)).unwrap(), "done");
        }
        let _ = std::fs::remove_file(&checkpoint);
        let _ = std::fs::remove_file(checkpoint.with_extension("bak"));
    }

    #[test]
    fn idle_listeners_bound_to_any_address_are_woken_at_drain() {
        // No client ever connects: only the wake connection (on loopback,
        // because the listeners are bound to 0.0.0.0) lets `serve` return.
        let stop = Arc::new(AtomicBool::new(true));
        let options = ServeOptions::default().with_stop(stop);
        let server = BenchServer::bind("0.0.0.0:0", "0.0.0.0:0", quick_config(), options).unwrap();
        assert_eq!(server.serve().unwrap(), ServeReport::default());

        let (coord, checkpoint) = finished_coordinator("0.0.0.0:0", "idle");
        assert_eq!(coord.serve().unwrap().workers, 0);
        let _ = std::fs::remove_file(&checkpoint);
        let _ = std::fs::remove_file(checkpoint.with_extension("bak"));
    }

    /// Accept one loopback peer that writes `bytes` one at a time, 50 ms
    /// apart (so 40 bytes take 2 s), until it is done or cut off. Returns
    /// the accepted stream, how many bytes the peer has written, and the
    /// peer's thread.
    fn dribbler(bytes: Vec<u8>) -> (TcpStream, Arc<AtomicUsize>, JoinHandle<()>) {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let written = Arc::new(AtomicUsize::new(0));
        let peer = {
            let written = Arc::clone(&written);
            std::thread::spawn(move || {
                let mut stream = TcpStream::connect(addr).unwrap();
                let _ = stream.set_nodelay(true);
                for byte in bytes {
                    if stream.write_all(&[byte]).is_err() {
                        return;
                    }
                    written.fetch_add(1, Ordering::SeqCst);
                    std::thread::sleep(Duration::from_millis(50));
                }
            })
        };
        let (stream, _) = listener.accept().unwrap();
        (stream, written, peer)
    }

    #[test]
    fn a_dribbled_hello_cannot_outlast_the_handshake_deadline() {
        let mut hello = msg("hello");
        hello.set("protocol", Json::from(PROTOCOL));
        let frame = encode_frame(&hello).unwrap();
        let total = frame.len();
        assert!(total >= 40, "the dribble must outlast the deadline");
        let (mut stream, written, peer) = dribbler(frame);
        let gate = Gate {
            token: None,
            fingerprint: "fp",
            roles: &[("client", false)],
        };
        let deadline = Instant::now() + Duration::from_millis(300);
        let refused = admit_by(&mut stream, &gate, deadline);
        // A per-`read()` timeout would have been re-armed by every byte and
        // admitted this peer after the whole frame arrived.
        assert!(refused.is_err(), "admitted a peer past the deadline");
        assert!(written.load(Ordering::SeqCst) < total, "saw a whole frame");
        drop(stream);
        peer.join().unwrap();
    }

    #[test]
    fn a_dribbled_http_request_cannot_outlast_the_handshake_deadline() {
        let request = b"GET /status HTTP/1.1\r\nHost: a-dribbling-peer\r\n\r\n".to_vec();
        let total = request.len();
        assert!(total >= 40, "the dribble must outlast the deadline");
        let (stream, written, peer) = dribbler(request);
        let deadline = Instant::now() + Duration::from_millis(300);
        assert!(read_http_by(&stream, deadline).is_err());
        assert!(
            written.load(Ordering::SeqCst) < total,
            "saw a whole request"
        );
        drop(stream);
        peer.join().unwrap();
    }
}
