//! Distributed sweep coordinator: lease cells to workers over TCP.
//!
//! A sweep's books — which cells are left, the grid, the first failure, the
//! checkpoint — are a [`Ledger`], the same one a local sweep drains with
//! in-process jobs. Here a **coordinator** process drains it over TCP: it
//! hands out [`CellKey`] work **leases** to connecting **workers** (other
//! machines, or N local processes) and settles each outcome they stream
//! back as a length-prefixed `genbase_util::json` message
//! ([`genbase_util::frame`]). This module is about the *workers*: who holds
//! which lease since when, and what happens when one dies, leaves or idles.
//! Each connected worker is one record under one lock — its connection
//! handle, its lease, whether it idles, what it has done — and the service
//! tick runs one pass over those records for leases held too long.
//!
//! ## Wire protocol (`genbase-coord-v1`)
//!
//! Every message is one frame: a 4-byte big-endian length prefix followed
//! by compact JSON (see `ARCHITECTURE.md` for the full schema). After a
//! `hello`/`welcome` handshake, the worker strictly alternates: it sends
//! `request`, `result`, `failed`, `progress`, or `leave`, and reads exactly
//! one reply (`lease`, `idle`, `done`, `ack`, or `bye`). A `hello` carrying
//! `role: "status"` opens a read-only monitoring connection instead, which
//! exchanges `status` snapshots (see [`fetch_status`]).
//!
//! - The handshake carries the worker's **config fingerprint**
//!   ([`config_fingerprint`]); a worker built from mismatched flags is
//!   rejected at connect, the same guard a local sweep applies to its
//!   checkpoint file.
//! - **Worker death is a first-class event:** each connection is served by
//!   a dedicated blocking thread, so a dying worker — process kill, crash,
//!   connection reset — surfaces as an I/O error/EOF, and its outstanding
//!   lease is given back to the ledger for the next requester. Settled
//!   cells are already in the ledger's grid (and checkpoint), so no work is
//!   lost and none repeats. (A machine that vanishes *without* a TCP reset
//!   — power loss, hard partition — is not detected until its connection
//!   errors unless a `--lease-timeout` deadline is configured.)
//! - **Workers are elastic.** A worker told to stop (SIGTERM, or a
//!   [`WorkerOptions::stop`] flag) departs cleanly: it sends `leave`, the
//!   coordinator re-queues any held cell *without* charging the re-issue
//!   cap, and replies `bye`. A worker that loses its connection mid-cell
//!   (link flap, coordinator restart) reconnects with capped exponential
//!   backoff and re-submits its finished result flagged `resume: true`
//!   rather than recomputing it. When idle workers outnumber pending cells
//!   the coordinator may *rebalance*: the longest-held lease past
//!   [`CoordOptions::rebalance_after`] is revoked and handed to an idle
//!   worker; the original holder's eventual result still lands through the
//!   resume path, and whichever copy arrives first wins (they are
//!   identical under `SimOnly`). A lease whose cell settled meanwhile is
//!   no loss: its holder's death is neither charged nor counted.
//! - **Intra-cell checkpoints:** long iterative kernels (Lanczos SVD,
//!   Cheng–Church) periodically stream a `progress` snapshot through the
//!   worker's connection; the coordinator notes it in the ledger (it rides
//!   the checkpoint file) and delivers it with the next lease of the same
//!   cell, so a re-issued cell resumes mid-iteration bit-identically
//!   instead of starting over.
//!
//! Under [`TimingMode::SimOnly`](crate::harness::TimingMode) a coordinated
//! sweep renders **byte-identical** output to the serial single-process run
//! whichever worker ran which cell (`tests/coord_distributed.rs` pins this).
//!
//! Listening, the `hello` gate, the frame loop and the accept/drain model
//! are the session layer's (`session.rs`, shared with [`crate::serve`]);
//! this module is the lease scheduler behind them and the worker in front.

use crate::figures;
use crate::harness::HarnessConfig;
use crate::sched::{
    config_fingerprint, CellKey, CellOutcome, CellState, FigureId, Ledger, ReportGrid, Scheduler,
};
pub use crate::session::PROTOCOL;
use crate::session::{self, hello, msg, msg_type, Gate};
use genbase_datagen::SizeClass;
use genbase_util::frame::{read_frame_opt, write_frame};
use genbase_util::retry::Backoff;
use genbase_util::{faults, lock, shutdown, CellProgress, Error, Json, ProgressHandle, Result};
use std::collections::{BTreeMap, HashMap};
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

/// Milliseconds a worker waits before re-requesting when the coordinator
/// has no pending cells but other workers still hold leases.
const IDLE_BACKOFF_MS: u64 = 50;

/// How many times one cell may be re-issued after worker deaths before it
/// is abandoned as a hard failure. Bounds the livelock where a cell
/// reliably kills (OOMs, segfaults) every worker that leases it: after
/// this many dead workers the cell is written off as failed and the rest of
/// the sweep completes, mirroring how the local scheduler surfaces an
/// in-process crash instead of retrying forever.
const MAX_REISSUES_PER_CELL: usize = 3;

/// Coordinator tuning knobs.
#[derive(Debug, Clone, Default)]
pub struct CoordOptions {
    /// Checkpoint file: loaded (if present) to skip completed cells,
    /// rewritten after every streamed result — the same file format and
    /// fingerprint guard as a local `--checkpoint` sweep.
    pub checkpoint: Option<PathBuf>,
    /// Per-lease deadline. A cell held longer than this is revoked: the
    /// holder's connection is shut down (unblocking a handler wedged on a
    /// half-open link) and the cell re-queued under the usual
    /// `MAX_REISSUES_PER_CELL` cap. `None` (default) keeps the EOF-only
    /// behavior: a wedged-but-open connection holds its lease until TCP
    /// gives up. Size it well above the slowest expected cell — a slow but
    /// healthy worker past the deadline loses its lease and its connection,
    /// and the cell runs again elsewhere.
    pub lease_timeout: Option<Duration>,
    /// Shared auth token (`--auth-token` / `GENBASE_COORD_TOKEN`). When
    /// set, every worker must present the same token in its `hello`;
    /// a missing or different token is a clean protocol reject during the
    /// config-fingerprint handshake. `None` disables the check (workers
    /// presenting a token are then rejected too, so a mismatch is always
    /// loud rather than silently ignored).
    pub auth_token: Option<String>,
    /// Work-stealing deadline. When idle workers outnumber pending cells
    /// and the longest-held lease is older than this, that lease is
    /// revoked (without charging the re-issue cap — the holder did nothing
    /// wrong) and handed to an idle worker; the original holder's
    /// connection is cut, and its eventual result arrives through the
    /// reconnect/resume path. `None` (default) disables rebalancing.
    pub rebalance_after: Option<Duration>,
}

impl CoordOptions {
    /// Checkpoint to (and resume from) `path`.
    pub fn with_checkpoint(mut self, path: impl Into<PathBuf>) -> CoordOptions {
        self.checkpoint = Some(path.into());
        self
    }

    /// Revoke and re-issue leases held longer than `timeout`.
    pub fn with_lease_timeout(mut self, timeout: Duration) -> CoordOptions {
        self.lease_timeout = Some(timeout);
        self
    }

    /// Require workers to present `token` at the handshake.
    pub fn with_auth_token(mut self, token: impl Into<String>) -> CoordOptions {
        self.auth_token = Some(token.into());
        self
    }

    /// Steal the longest-held lease once idle workers outnumber pending
    /// cells and the lease is older than `after`.
    pub fn with_rebalance_after(mut self, after: Duration) -> CoordOptions {
        self.rebalance_after = Some(after);
        self
    }
}

/// What a coordinated sweep did, plus the grid to render from.
#[derive(Debug)]
pub struct CoordOutcome {
    /// All outcomes (including checkpoint-restored cells).
    pub grid: ReportGrid,
    /// Cells in the plan.
    pub planned: usize,
    /// Cells executed by workers this run.
    pub executed: usize,
    /// Cells restored from the checkpoint.
    pub restored: usize,
    /// Leases re-issued after a worker died mid-cell.
    pub reissued: usize,
    /// Distinct worker connections that completed the handshake.
    pub workers: usize,
    /// Workers that departed cleanly via `leave` (their handed-back cells
    /// are not charged against the re-issue cap).
    pub departed: usize,
    /// Leases revoked by work-stealing rebalance.
    pub rebalanced: usize,
    /// Results accepted through the reconnect/resume path.
    pub resumed: usize,
    /// Human-readable note when the checkpoint was recovered from its
    /// `.bak` after a torn primary, `None` for a clean load.
    pub recovered: Option<String>,
}

/// One outstanding lease: the cell and when it was handed out.
struct Lease {
    cell: CellKey,
    since: Instant,
}

/// One admitted worker connection, from its `hello` to its end.
struct Worker {
    /// A clone of the connection, so the service tick can shut it down —
    /// unblocking the handler thread even on a half-open link.
    handle: TcpStream,
    lease: Option<Lease>,
    /// Parked on an `idle` reply: spare capacity the rebalancer weighs
    /// against the pending cells.
    idle: bool,
    completed: usize,
    failed: usize,
    connected: Instant,
}

/// What the coordinator knows about its *workers*; what it knows about the
/// sweep's cells is the [`Ledger`]'s. Everything per worker is its one
/// [`Worker`] record; the rest are sweep-wide tallies.
#[derive(Default)]
struct State {
    /// One record per connected worker, in id order (status monitors have
    /// none: nothing leases to them or cuts them).
    workers: BTreeMap<u64, Worker>,
    /// Worker connections admitted so far.
    admitted: usize,
    reissued: usize,
    /// Per-cell re-issue counts (lost leases), for the
    /// [`MAX_REISSUES_PER_CELL`] cap.
    reissue_counts: HashMap<String, usize>,
    /// Clean `leave` departures.
    departed: usize,
    /// Leases revoked by the rebalancer.
    rebalanced: usize,
    /// Results accepted through the resume path.
    resumed: usize,
}

impl State {
    /// Every outstanding lease with its holder, in worker order.
    fn leases(&self) -> impl Iterator<Item = (u64, &Lease)> {
        let held = self.workers.iter();
        held.filter_map(|(&worker, w)| Some((worker, w.lease.as_ref()?)))
    }

    /// `worker`'s record, if it holds `cell`'s lease.
    fn holder(&mut self, worker: u64, cell: &CellKey) -> Option<&mut Worker> {
        let holds = |w: &&mut Worker| w.lease.as_ref().is_some_and(|l| l.cell == *cell);
        self.workers.get_mut(&worker).filter(holds)
    }

    /// Give a revoked lease's cell back to the ledger. A `loss` — why its
    /// holder lost it — is charged to the cell when the cell was still out
    /// (one that settled meanwhile cost nothing): past
    /// [`MAX_REISSUES_PER_CELL`] losses it is abandoned as a hard failure,
    /// so a worker-killing cell cannot livelock the sweep. `None`: the
    /// holder did nothing wrong (a clean `leave`, a rebalance).
    fn give_back(&mut self, ledger: &Ledger, lease: Lease, loss: Option<&str>) {
        let requeued = ledger.give_back(&lease.cell);
        let Some(why) = loss.filter(|_| requeued) else {
            return;
        };
        let id = lease.cell.id();
        let losses = self.reissue_counts.entry(id.clone()).or_insert(0);
        *losses += 1;
        if *losses > MAX_REISSUES_PER_CELL {
            let err = format!("cell {id}: abandoned after {losses} lost leases (last: {why})");
            ledger.fail(&lease.cell, Error::invalid(err));
        } else {
            self.reissued += 1;
        }
    }
}

/// The coordinator half: plans the sweep, listens, leases, collects.
pub struct Coordinator {
    listener: TcpListener,
    config: HarnessConfig,
    fingerprint: String,
    plan: Vec<CellKey>,
    options: CoordOptions,
    /// Lock order: `state`, then the ledger's own locks; the ledger's
    /// checkpoint writes (`settle`, `note_progress`) run with `state`
    /// released.
    state: Mutex<State>,
    ledger: Ledger,
    /// Cells restored from the checkpoint at startup.
    restored: usize,
}

impl Coordinator {
    /// Bind to `addr` (e.g. `127.0.0.1:0` for an ephemeral port), plan the
    /// sweep for `figs` and open its ledger (loading the checkpoint, if
    /// any). Nothing is leased until [`Coordinator::serve`].
    pub fn bind(
        addr: impl ToSocketAddrs,
        config: HarnessConfig,
        figs: &[FigureId],
        mn_size: SizeClass,
        options: CoordOptions,
    ) -> Result<Coordinator> {
        let listener = TcpListener::bind(addr)
            .map_err(|e| Error::invalid(format!("coordinator bind: {e}")))?;
        let plan: Vec<CellKey> = figs
            .iter()
            .flat_map(|&f| figures::plan(f, &config, mn_size))
            .collect();
        let fingerprint = config_fingerprint(&config);
        let ledger = Ledger::open(
            plan.clone(),
            fingerprint.clone(),
            options.checkpoint.clone(),
        )?;
        Ok(Coordinator {
            listener,
            config,
            fingerprint,
            plan,
            options,
            state: Mutex::default(),
            restored: ledger.count(CellState::Settled),
            ledger,
        })
    }

    /// The bound address (resolves `:0` to the actual port).
    pub fn local_addr(&self) -> Result<SocketAddr> {
        self.listener
            .local_addr()
            .map_err(|e| Error::invalid(format!("coordinator addr: {e}")))
    }

    /// The planning configuration.
    pub fn config(&self) -> &HarnessConfig {
        &self.config
    }

    /// Serve until every planned cell has an outcome (or was abandoned by
    /// a hard failure): accept workers, lease cells, settle streamed
    /// results in the ledger, re-lease on worker death.
    ///
    /// Like [`Scheduler::run_sweep`](crate::sched::Scheduler::run_sweep),
    /// a hard cell failure does not stop other cells; the first failure in
    /// plan order is returned once no work remains, and the checkpoint
    /// keeps everything that did complete.
    pub fn serve(&self) -> Result<CoordOutcome> {
        let next_worker = AtomicU64::new(0);
        let handler = |stream: TcpStream| {
            if faults::hit("coord.accept").is_err() {
                // Injected accept failure: the connection is dropped before
                // it is handled; the worker sees EOF and reconnects.
                return;
            }
            let worker = next_worker.fetch_add(1, Ordering::Relaxed) + 1;
            handle_worker(stream, worker, self);
        };
        // Drain: once the plan is complete every connection — parked on an
        // idle poll, or still queued in the listen backlog — gets `done` on
        // its next request, closes, and its handler exits on the EOF.
        session::run_listeners(
            "coordinator",
            &[(&self.listener, &handler)],
            || {
                revoke_stale_leases(self);
                !self.complete()
            },
            || (),
        )?;

        // Every handler has exited: what they settled is in the ledger.
        let done = self.ledger.finish()?;
        let state = lock(&self.state);
        Ok(CoordOutcome {
            grid: done.grid,
            planned: done.planned,
            executed: done.executed,
            restored: done.skipped,
            reissued: state.reissued,
            workers: state.admitted,
            departed: state.departed,
            rebalanced: state.rebalanced,
            resumed: state.resumed,
            recovered: done.recovered,
        })
    }

    /// No work left and none in flight (hard-failed cells count as
    /// drained — they are reported at the end, not retried forever), or the
    /// ledger halted on a checkpoint write: the sweep cannot meaningfully
    /// continue, so workers are drained with `done`.
    fn complete(&self) -> bool {
        let s = lock(&self.state);
        self.ledger.halted() || (self.pending() == 0 && s.leases().next().is_none())
    }

    /// Planned cells nobody holds or has settled.
    fn pending(&self) -> usize {
        self.ledger.count(CellState::Pending)
    }
}

/// The service tick's one pass over the leases. First every lease held past
/// [`CoordOptions::lease_timeout`] is revoked and charged to its cell — the
/// gap EOF detection cannot close. Then, when idle workers outnumber pending
/// cells, the oldest lease past [`CoordOptions::rebalance_after`] is revoked
/// for that spare capacity, uncharged: its holder is healthy, just slow, and
/// its finished result can still land through the resume path (first copy
/// wins). Each holder's connection is shut down from its record; its
/// handler then exits and finds no lease left to give back.
fn revoke_stale_leases(coord: &Coordinator) {
    let now = Instant::now();
    let policies = [
        (coord.options.lease_timeout, Some("lease deadline exceeded")),
        (coord.options.rebalance_after, None),
    ];
    let mut s = lock(&coord.state);
    for (limit, loss) in policies {
        let held = s.leases().map(|(worker, lease)| (lease.since, worker));
        let past = |&(since, _): &(Instant, u64)| limit.is_some_and(|limit| now - since > limit);
        let mut stale: Vec<(Instant, u64)> = held.filter(past).collect();
        if loss.is_none() {
            // Rebalancing takes the oldest, and only for spare capacity.
            let idle = s.workers.values().filter(|w| w.idle).count();
            let spare = !coord.ledger.halted() && idle > coord.pending();
            stale.sort();
            stale.truncate(usize::from(spare));
        }
        for (_, worker) in stale {
            let w = s.workers.get_mut(&worker);
            let w = w.expect("a stale lease has a holder");
            let _ = w.handle.shutdown(Shutdown::Both);
            if let Some(lease) = w.lease.take() {
                s.rebalanced += usize::from(loss.is_none());
                s.give_back(&coord.ledger, lease, loss);
            }
        }
    }
}

/// Read timeout while a worker holds *no* lease. An idle worker polls
/// every [`IDLE_BACKOFF_MS`], so silence this long means the connection
/// is wedged (half-open link, stopped process); closing it keeps the
/// post-completion handler join — and with it `serve()` — bounded. A
/// worker that *does* hold a lease is legitimately silent for the whole
/// cell, so its reads stay unbounded (its death still surfaces as
/// EOF/reset, and re-leasing is the recovery path).
const IDLE_READ_TIMEOUT: Duration = Duration::from_secs(60);

/// One connection: the `hello` gate, `welcome`, then the lease/result loop
/// (a `status` monitor may only poll snapshots). An admitted worker's
/// record lives from `welcome` to the connection's end, which removes it
/// and re-queues whatever lease it still holds — nothing, after an idle
/// timeout or a clean `leave`.
fn handle_worker(mut stream: TcpStream, worker: u64, coord: &Coordinator) {
    // Monitors authenticate but need no fingerprint: a status poll must
    // work from hosts that never built a matching config. They are not
    // counted as workers either.
    let gate = Gate {
        token: coord.options.auth_token.as_deref(),
        fingerprint: &coord.fingerprint,
        roles: &[("worker", true), ("status", false)],
    };
    let Ok(role) = session::admit(&mut stream, &gate) else {
        return;
    };
    // A worker without a clone handle could lose its lease to the stale
    // pass but never be cut off: refuse it (it sees EOF and can restart).
    let handle = match role {
        "worker" => match stream.try_clone() {
            Ok(handle) => Some(handle),
            Err(_) => return,
        },
        _ => None,
    };
    let remaining = {
        let mut s = lock(&coord.state);
        if let Some(handle) = handle {
            s.admitted += 1;
            let record = Worker {
                handle,
                lease: None,
                idle: false,
                completed: 0,
                failed: 0,
                connected: Instant::now(),
            };
            s.workers.insert(worker, record);
        }
        coord.pending() + s.leases().count()
    };
    let mut welcome = msg("welcome");
    welcome.set("worker", Json::from(worker));
    welcome.set("remaining", Json::from(remaining));
    if write_frame(&mut stream, &welcome).is_ok() {
        session::frame_loop(
            &mut stream,
            |stream| {
                let leased = lock(&coord.state).leases().any(|(w, _)| w == worker);
                let _ = stream.set_read_timeout((!leased).then_some(IDLE_READ_TIMEOUT));
                faults::hit("coord.read").is_ok()
            },
            |frame| {
                let reply = match role {
                    "worker" => apply_frame(frame, worker, coord)?,
                    // Monitors never touch lease state.
                    _ if matches!(msg_type(frame), Ok("status")) => status_snapshot(coord),
                    _ => return Err(Error::invalid("status connections may only poll status")),
                };
                // An injected write failure drops the reply on the floor.
                Ok(faults::hit("coord.write").is_ok().then_some(reply))
            },
        );
    }
    let mut s = lock(&coord.state);
    if let Some(lease) = s.workers.remove(&worker).and_then(|w| w.lease) {
        s.give_back(&coord.ledger, lease, Some("worker connection ended"));
    }
}

/// Process one post-handshake worker frame and produce the single reply.
fn apply_frame(frame: &Json, worker: u64, coord: &Coordinator) -> Result<Json> {
    let kind = msg_type(frame)?;
    let field = |name: &str| {
        let missing = || Error::invalid(format!("{kind} missing {name}"));
        frame.get(name).ok_or_else(missing)
    };
    // Results and failures settle the worker's outstanding lease first.
    if kind == "result" || kind == "failed" {
        let cell = CellKey::from_json(field("cell")?)?;
        // Parsed before any lease changes hands: a malformed report must
        // leave its cell where the connection's end can give it back.
        let outcome = match kind {
            "result" => Some(CellOutcome::from_json(field("outcome")?)?),
            _ => None,
        };
        let resume = matches!(frame.get("resume"), Some(&Json::Bool(true)));
        let mut s = lock(&coord.state);
        if let Some(w) = s.holder(worker, &cell) {
            w.lease = None;
        } else {
            // Without a `resume` flag, an unleased report is a forged (or
            // hopelessly confused) message and stays a protocol error.
            if !resume {
                return Err(Error::invalid(format!(
                    "worker {worker} reported cell {} it does not hold",
                    cell.id()
                )));
            }
            // A resumed report: the worker finished a cell whose lease it
            // lost to a reconnect, rebalance, or deadline. Reconcile
            // against where the cell is now.
            match (coord.ledger.state_of(&cell), &outcome) {
                // Someone already settled it (identical under SimOnly): drop
                // the duplicate. Or it is leased to another worker: a
                // finished result beats an in-flight recompute, so accept
                // that (the other copy dedups when it lands), but a resumed
                // *failure* must not pre-empt a run that may yet succeed.
                (Some(CellState::Settled), _) | (Some(CellState::Out), None) => {
                    drop(s);
                    return next_assignment(worker, coord);
                }
                (Some(CellState::Pending | CellState::Out), _) => {}
                (Some(CellState::Failed) | None, _) => {
                    return Err(Error::invalid(format!(
                        "worker {worker} resumed cell {} unknown to this sweep",
                        cell.id()
                    )))
                }
            }
            s.resumed += 1;
        }
        let w = s.workers.get_mut(&worker);
        match outcome {
            Some(outcome) => {
                w.into_iter().for_each(|w| w.completed += 1);
                // The checkpoint write runs with the state lock released.
                drop(s);
                coord.ledger.settle(&cell, outcome);
            }
            None => {
                w.into_iter().for_each(|w| w.failed += 1);
                let reason = frame
                    .get("reason")
                    .and_then(Json::as_str)
                    .unwrap_or("unknown worker error");
                let err = Error::invalid(format!("cell {}: {reason}", cell.id()));
                coord.ledger.fail(&cell, err);
                drop(s);
            }
        }
        return next_assignment(worker, coord);
    }
    if kind == "progress" {
        // An intra-cell snapshot from the lease holder: note it in the
        // ledger (riding the checkpoint), so a re-issue of this cell
        // resumes mid-iteration.
        let cell = CellKey::from_json(field("cell")?)?;
        let kernel = field("kernel")?.as_str();
        let kernel = kernel.ok_or_else(|| Error::invalid("progress kernel is not a string"))?;
        let state = field("state")?.clone();
        if lock(&coord.state).holder(worker, &cell).is_none() {
            return Err(Error::invalid(format!(
                "worker {worker} sent progress for cell {} it does not hold",
                cell.id()
            )));
        }
        coord.ledger.note_progress(&cell, kernel, state);
        return Ok(msg("ack"));
    }
    if kind == "leave" {
        // Clean departure: hand back any held cell without charging the
        // re-issue cap — the worker is healthy, it was *asked* to stop.
        let mut s = lock(&coord.state);
        s.departed += 1;
        let lease = s.workers.get_mut(&worker).and_then(|w| {
            w.idle = false;
            w.lease.take()
        });
        if let Some(lease) = lease {
            s.give_back(&coord.ledger, lease, None);
        }
        return Ok(msg("bye"));
    }
    if kind == "status" {
        return Ok(status_snapshot(coord));
    }
    if kind != "request" {
        return Err(Error::invalid(format!("unexpected frame type {kind:?}")));
    }
    next_assignment(worker, coord)
}

/// Render the live sweep state as a `status` frame.
fn status_snapshot(coord: &Coordinator) -> Json {
    let s = lock(&coord.state);
    let done = coord.ledger.count(CellState::Settled);
    let mut m = msg("status");
    m.set("service", Json::from("coordinate"));
    m.set("planned", Json::from(coord.plan.len()));
    m.set("restored", Json::from(coord.restored));
    m.set("pending", Json::from(coord.pending()));
    m.set("leased", Json::from(s.leases().count()));
    m.set("done", Json::from(done));
    m.set("failed", Json::from(coord.ledger.count(CellState::Failed)));
    m.set("executed", Json::from(done - coord.restored));
    m.set("reissued", Json::from(s.reissued));
    m.set("departed", Json::from(s.departed));
    m.set("rebalanced", Json::from(s.rebalanced));
    m.set("resumed", Json::from(s.resumed));
    m.set("workers", Json::from(s.admitted));
    let now = Instant::now();
    let leases = s.leases().map(|(worker, lease)| {
        let mut l = Json::obj();
        l.set("worker", Json::from(worker));
        l.set("cell", Json::from(lease.cell.id().as_str()));
        let held = now.duration_since(lease.since);
        l.set("held_secs", Json::from(held.as_secs_f64()));
        l
    });
    m.set("leases", Json::Arr(leases.collect()));
    let throughput = s.workers.iter().map(|(&worker, w)| {
        let mut t = Json::obj();
        t.set("worker", Json::from(worker));
        t.set("completed", Json::from(w.completed));
        t.set("failed", Json::from(w.failed));
        let secs = now.duration_since(w.connected).as_secs_f64();
        let rate = if secs > 0.0 {
            w.completed as f64 / secs
        } else {
            0.0
        };
        t.set("cells_per_sec", Json::from(rate));
        t
    });
    m.set("throughput", Json::Arr(throughput.collect()));
    m
}

/// Lease the next pending cell, or tell the worker to wait / stop.
fn next_assignment(worker: u64, coord: &Coordinator) -> Result<Json> {
    let mut s = lock(&coord.state);
    if coord.ledger.halted() {
        // The coordinator is going down; drain workers cleanly.
        return Ok(msg("done"));
    }
    let outstanding = s.leases().next().is_some();
    let w = s.workers.get_mut(&worker);
    let w = w.expect("a worker's record lives as long as its connection");
    if let Some(held) = &w.lease {
        // A `request` while already holding a lease would silently orphan
        // the held cell if we just overwrote it. Protocol error: the
        // handler rejects the connection and its end re-queues the cell.
        return Err(Error::invalid(format!(
            "worker {worker} requested work while still holding cell {}",
            held.cell.id()
        )));
    }
    let next = coord.ledger.take();
    // With nothing pending but another worker's lease outstanding (it may
    // yet fail and re-queue), the worker polls back — and counts as spare
    // capacity to the rebalancer while it does.
    w.idle = next.is_none() && outstanding;
    let Some((cell, progress)) = next else {
        if !w.idle {
            return Ok(msg("done"));
        }
        let mut idle = msg("idle");
        idle.set("backoff_ms", Json::from(IDLE_BACKOFF_MS));
        return Ok(idle);
    };
    let mut lease = msg("lease");
    lease.set("cell", cell.to_json());
    // Ship any intra-cell snapshot a previous holder streamed, so the new
    // holder resumes mid-iteration instead of starting over.
    if let Some(progress) = progress {
        lease.set("progress", progress);
    }
    let since = Instant::now();
    w.lease = Some(Lease { cell, since });
    Ok(lease)
}

/// What one worker process contributed.
#[derive(Debug, Default)]
pub struct WorkerReport {
    /// Cells this worker completed (including `Infinite`/`Unsupported`
    /// outcomes, which are results, not failures).
    pub completed: usize,
    /// Cells whose hard errors were reported to the coordinator.
    pub failed: usize,
}

/// How a worker behaves beyond the config it computes under.
#[derive(Debug, Clone, Default)]
pub struct WorkerOptions {
    /// Cells in flight within this process; `0` is treated as `1`. A worker
    /// with `jobs` > 1 opens that many coordinator connections, each leasing
    /// and executing cells concurrently under a `config.threads / jobs`
    /// kernel budget (the same split the local scheduler's `--jobs`
    /// applies), all sharing one dataset pool. The coordinator sees `jobs`
    /// logical workers; per-connection leases, deadlines and death recovery
    /// apply unchanged. Kernel results are bit-identical across thread
    /// budgets, so `jobs` never changes sweep output.
    pub jobs: usize,
    /// Auth token presented in the handshake.
    pub auth_token: Option<String>,
    /// Cooperative stop flag. When it (or the process-wide SIGTERM flag,
    /// [`genbase_util::shutdown::requested`]) turns true, the worker leases
    /// nothing new: it hands back any fresh lease with `leave` — which the
    /// coordinator re-queues without charging the re-issue cap — and
    /// returns cleanly after `bye`.
    pub stop: Option<Arc<AtomicBool>>,
}

/// How many times one connection may be rebuilt after a mid-session I/O
/// failure before the worker gives up. Each reconnect re-presents the
/// handshake and re-submits any computed-but-unacknowledged result with
/// `resume: true`, so no compute is wasted on a link flap or coordinator
/// restart.
const RECONNECT_ATTEMPTS: u32 = 5;

/// Connect to `addr` (retrying transient connect errors — refused, reset,
/// timed out, interrupted — until `connect_window` elapses, so workers may
/// start before the coordinator) and execute leases until the coordinator
/// says `done`.
///
/// The worker runs one cell at a time under the full `config.threads`
/// kernel budget. `config` must match the coordinator's flags: the
/// handshake enforces the [`config_fingerprint`] and rejects mismatches at
/// connect. To multiplex several cells inside one process, see
/// [`run_worker_with`] and [`WorkerOptions::jobs`].
pub fn run_worker(
    addr: impl ToSocketAddrs + Clone + Send,
    config: HarnessConfig,
    connect_window: Duration,
) -> Result<WorkerReport> {
    run_worker_with(addr, config, connect_window, WorkerOptions::default())
}

/// [`run_worker`] with full [`WorkerOptions`] (job multiplexing, auth,
/// cooperative stop).
pub fn run_worker_with(
    addr: impl ToSocketAddrs + Clone + Send,
    config: HarnessConfig,
    connect_window: Duration,
    options: WorkerOptions,
) -> Result<WorkerReport> {
    let jobs = options.jobs.max(1);
    let threads = (config.threads / jobs).max(1);
    let scheduler = &Scheduler::new(config)?;
    let auth = options.auth_token.as_deref();
    let stop = options.stop.as_ref();
    std::thread::scope(|scope| {
        let handles: Vec<_> = (0..jobs)
            .map(|_| {
                let addr = addr.clone();
                scope.spawn(move || {
                    worker_connection(addr, scheduler, threads, connect_window, auth, stop)
                })
            })
            .collect();
        let mut report = WorkerReport::default();
        let mut first_err = None;
        for handle in handles {
            match handle.join().expect("worker job thread") {
                Ok(part) => {
                    report.completed += part.completed;
                    report.failed += part.failed;
                }
                Err(e) => {
                    first_err.get_or_insert(e);
                }
            }
        }
        first_err.map_or(Ok(report), Err)
    })
}

/// Whether the worker was asked to wind down (explicit flag or SIGTERM).
fn stop_requested(stop: Option<&Arc<AtomicBool>>) -> bool {
    shutdown::requested() || stop.is_some_and(|flag| flag.load(Ordering::Relaxed))
}

/// How one session (connection lifetime) ended, when not cleanly.
enum SessionEnd {
    /// Protocol-level failure (reject, malformed reply) or simulated
    /// worker death: give up, do not reconnect.
    Fatal(Error),
    /// Transport failure: reconnect and resume.
    Io(Error),
}

/// One logical worker: a reconnecting session loop around
/// [`worker_session`]. A session that dies on transport I/O is rebuilt
/// (capped attempts, exponential backoff with jitter) and the in-flight
/// result — compute already paid for — is re-submitted with
/// `resume: true` instead of recomputed.
fn worker_connection(
    addr: impl ToSocketAddrs + Clone,
    scheduler: &Scheduler,
    threads: usize,
    connect_window: Duration,
    auth_token: Option<&str>,
    stop: Option<&Arc<AtomicBool>>,
) -> Result<WorkerReport> {
    let mut report = WorkerReport::default();
    let mut backoff = Backoff::new(100, 5_000, faults::plan_seed().unwrap_or(0x57ee1));
    let mut reconnects: u32 = 0;
    // A computed `result`/`failed` whose acknowledgement never arrived.
    let mut pending_send: Option<Json> = None;
    loop {
        let mut stream = session::dial(addr.clone(), connect_window, &mut backoff)?;
        match worker_session(
            &mut stream,
            scheduler,
            threads,
            auth_token,
            stop,
            &mut report,
            &mut pending_send,
        ) {
            Ok(()) => return Ok(report),
            Err(SessionEnd::Fatal(e)) => return Err(e),
            Err(SessionEnd::Io(_)) if reconnects < RECONNECT_ATTEMPTS => {
                reconnects += 1;
                std::thread::sleep(backoff.delay(reconnects - 1));
            }
            Err(SessionEnd::Io(e)) => return Err(e),
        }
    }
}

/// Handshake on a fresh connection, then the strict request/reply
/// alternation until `done` (Ok), a clean `bye`, or a session-ending
/// error. `pending_send` carries an unacknowledged report across
/// reconnects.
fn worker_session(
    stream: &mut TcpStream,
    scheduler: &Scheduler,
    threads: usize,
    auth_token: Option<&str>,
    stop: Option<&Arc<AtomicBool>>,
    report: &mut WorkerReport,
    pending_send: &mut Option<Json>,
) -> std::result::Result<(), SessionEnd> {
    // Handshake failures are fatal: a rejecting coordinator will reject
    // the retry too, and a coordinator that dies this early has nothing
    // of ours worth resuming.
    let fingerprint = config_fingerprint(scheduler.harness().config());
    hello(stream, None, Some(&fingerprint), auth_token).map_err(SessionEnd::Fatal)?;

    let fault =
        |site, op| faults::hit(site).map_err(|e| Error::invalid(format!("{op} frame: {e}")));
    let fatal = |why: String| SessionEnd::Fatal(Error::invalid(why));
    let mut outbound = match pending_send.take() {
        // Re-submit the report that was in flight when the last session
        // died. The flag tells the coordinator this settles compute from
        // a lease the reconnect invalidated.
        Some(mut report) => {
            report.set("resume", Json::Bool(true));
            report
        }
        None => msg("request"),
    };
    loop {
        let is_report = matches!(msg_type(&outbound), Ok("result") | Ok("failed"));
        if stop_requested(stop) && !is_report {
            outbound = msg("leave");
        }
        let mut exchange = || -> Result<Json> {
            fault("worker.write", "write")?;
            if is_report {
                fault("worker.result", "write")?;
            }
            write_frame(stream, &outbound)?;
            fault("worker.read", "read")?;
            read_frame_opt(stream)?.ok_or_else(|| Error::invalid("coordinator hung up mid-sweep"))
        };
        let reply = match exchange() {
            Ok(reply) => reply,
            Err(e) => {
                // Unacknowledged: the next session re-submits it.
                if is_report {
                    *pending_send = Some(outbound);
                }
                return Err(SessionEnd::Io(e));
            }
        };
        match msg_type(&reply).map_err(SessionEnd::Fatal)? {
            "done" | "bye" => return Ok(()),
            "idle" => {
                let ms = reply
                    .get("backoff_ms")
                    .and_then(Json::as_u64)
                    .unwrap_or(IDLE_BACKOFF_MS);
                std::thread::sleep(Duration::from_millis(ms));
                outbound = msg("request");
            }
            "lease" => {
                let cell = reply
                    .get("cell")
                    .ok_or_else(|| Error::invalid("lease missing cell"));
                let cell = cell
                    .and_then(CellKey::from_json)
                    .map_err(SessionEnd::Fatal)?;
                if stop_requested(stop) {
                    // Wind down: hand the fresh lease straight back.
                    outbound = msg("leave");
                    continue;
                }
                if let Err(e) = faults::hit("worker.cell") {
                    // Simulated crash between lease and compute; the
                    // coordinator re-issues through the EOF path.
                    return Err(fatal(format!("worker crash: {e}")));
                }
                let clone = stream
                    .try_clone()
                    .map_err(|e| fatal(format!("clone: {e}")))?;
                let saved = reply.get("progress").cloned();
                let progress = Arc::new(CoordProgress::new(clone, cell.to_json(), saved));
                let handle = ProgressHandle::new(progress.clone());
                match scheduler.run_cell_with_progress(&cell, threads, Some(handle)) {
                    Ok(outcome) => {
                        report.completed += 1;
                        outbound = msg("result");
                        outbound.set("cell", cell.to_json());
                        outbound.set("outcome", outcome.to_json());
                    }
                    Err(_) if progress.killed() => {
                        // An injected `worker.progress` fault killed this
                        // logical worker mid-cell: die like one — no
                        // failure report, no reconnect. The coordinator
                        // sees EOF and re-issues the cell.
                        return Err(fatal("worker killed by injected fault mid-cell".into()));
                    }
                    Err(e) => {
                        report.failed += 1;
                        outbound = msg("failed");
                        outbound.set("cell", cell.to_json());
                        outbound.set("reason", Json::from(e.to_string().as_str()));
                    }
                }
            }
            "reject" => {
                let reason = reply.get("reason").and_then(Json::as_str);
                let reason = reason.unwrap_or("unspecified");
                return Err(fatal(format!("coordinator rejected worker: {reason}")));
            }
            other => return Err(fatal(format!("unexpected reply {other:?}"))),
        }
    }
}

/// Worker-side [`CellProgress`] sink: streams kernel snapshots to the
/// coordinator as `progress` frames over the session's socket (safe
/// because the kernel runs on the session thread — saves happen strictly
/// between the lease reply and the result send). Serving `restore` replays
/// the snapshot the coordinator shipped with the lease.
struct CoordProgress {
    stream: Mutex<TcpStream>,
    cell: Json,
    /// The `{kernel → state}` object delivered with the lease, if any.
    restored: Option<Json>,
    /// The link died mid-save; further saves are skipped (best-effort) and
    /// the result send will trigger the reconnect/resume path.
    dead: AtomicBool,
    /// An injected `worker.progress` fault fired: this logical worker is
    /// simulating death, and the session must not report or reconnect.
    killed: AtomicBool,
}

impl CoordProgress {
    fn new(stream: TcpStream, cell: Json, restored: Option<Json>) -> CoordProgress {
        CoordProgress {
            stream: Mutex::new(stream),
            cell,
            restored,
            dead: AtomicBool::new(false),
            killed: AtomicBool::new(false),
        }
    }

    fn killed(&self) -> bool {
        self.killed.load(Ordering::Relaxed)
    }
}

impl CellProgress for CoordProgress {
    fn restore(&self, kernel: &str) -> Option<Json> {
        self.restored.as_ref().and_then(|r| r.get(kernel)).cloned()
    }

    fn save(&self, kernel: &str, state: &Json) -> Result<()> {
        if self.dead.load(Ordering::Relaxed) {
            return Ok(());
        }
        if let Err(e) = faults::hit("worker.progress") {
            // Simulated worker death mid-cell: abort the kernel (the save
            // error propagates) and cut the socket so the coordinator
            // sees EOF and re-issues the cell with this very snapshot.
            self.killed.store(true, Ordering::Relaxed);
            let _ = lock(&self.stream).shutdown(std::net::Shutdown::Both);
            return Err(Error::invalid(format!("progress: {e}")));
        }
        let mut frame = msg("progress");
        frame.set("cell", self.cell.clone());
        frame.set("kernel", Json::from(kernel));
        frame.set("state", state.clone());
        let mut stream = lock(&self.stream);
        let acked = write_frame(&mut *stream, &frame)
            .and_then(|_| read_frame_opt(&mut *stream))
            .map(|reply| matches!(reply.as_ref().map(msg_type), Some(Ok("ack"))));
        if !matches!(acked, Ok(true)) {
            // Best-effort: checkpointing must never fail a healthy cell.
            // Remember the link is gone so later saves stop trying.
            self.dead.store(true, Ordering::Relaxed);
        }
        Ok(())
    }
}

/// Fetch a live status snapshot from a serving coordinator (or resident
/// server): connect (retrying transient errors until `connect_window`
/// elapses), handshake with `role: "status"`, poll once, and return the
/// snapshot object.
pub fn fetch_status(
    addr: impl ToSocketAddrs + Clone,
    auth_token: Option<&str>,
    connect_window: Duration,
) -> Result<Json> {
    let reply = session::request(addr, connect_window, "status", auth_token, &msg("status"))?;
    match msg_type(&reply)? {
        "status" => Ok(reply),
        other => Err(Error::invalid(format!("unexpected status reply {other:?}"))),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn quick_config() -> HarnessConfig {
        HarnessConfig {
            scale: 0.012,
            sizes: vec![SizeClass::Small],
            r_mem_bytes: u64::MAX,
            ..HarnessConfig::quick()
        }
        .sim_only()
    }

    fn connect_handshake(addr: SocketAddr, fingerprint: &str) -> TcpStream {
        let mut stream = TcpStream::connect(addr).unwrap();
        hello(&mut stream, None, Some(fingerprint), None).unwrap();
        stream
    }

    /// Send `request` and return the leased cell.
    fn lease_one(stream: &mut TcpStream) -> CellKey {
        write_frame(stream, &msg("request")).unwrap();
        let reply = read_frame_opt(stream).unwrap().unwrap();
        assert_eq!(msg_type(&reply).unwrap(), "lease");
        CellKey::from_json(reply.get("cell").unwrap()).unwrap()
    }

    /// Poll `status` until `ready` holds for the snapshot.
    fn await_status(addr: SocketAddr, ready: impl Fn(&Json) -> bool) -> Json {
        loop {
            let snap = fetch_status(addr, None, Duration::from_secs(5)).unwrap();
            if ready(&snap) {
                return snap;
            }
            std::thread::sleep(Duration::from_millis(10));
        }
    }

    fn count(snap: &Json, key: &str) -> u64 {
        snap.get(key).and_then(Json::as_u64).unwrap()
    }

    #[test]
    fn cell_keys_round_trip_through_json() {
        let coord = Coordinator::bind(
            "127.0.0.1:0",
            quick_config(),
            &[FigureId::Fig1],
            SizeClass::Small,
            CoordOptions::default(),
        )
        .unwrap();
        assert!(!coord.plan.is_empty());
        for cell in &coord.plan {
            let back = CellKey::from_json(&cell.to_json()).unwrap();
            assert_eq!(&back, cell);
        }
    }

    #[test]
    fn unwritable_checkpoint_fails_the_sweep_not_the_worker() {
        let bogus = std::env::temp_dir()
            .join(format!("genbase-coord-noexist-{}", std::process::id()))
            .join("deep")
            .join("ckpt.json"); // parent directories never created
        let coord = Coordinator::bind(
            "127.0.0.1:0",
            quick_config(),
            &[FigureId::Fig1],
            SizeClass::Small,
            CoordOptions::default().with_checkpoint(&bogus),
        )
        .unwrap();
        let addr = coord.local_addr().unwrap();
        let serve = std::thread::spawn(move || coord.serve());
        // The worker must terminate cleanly (drained with `done`), not be
        // blamed with a protocol reject; the coordinator reports the
        // checkpoint I/O error.
        let report = run_worker(addr, quick_config(), Duration::from_secs(5)).unwrap();
        assert!(report.completed >= 1, "first result triggers the failure");
        let err = serve.join().unwrap().unwrap_err();
        assert!(err.to_string().contains("write"), "{err}");
    }

    #[test]
    fn worker_jobs_multiplexes_leases_in_one_process() {
        let coord = Coordinator::bind(
            "127.0.0.1:0",
            quick_config(),
            &[FigureId::Fig1],
            SizeClass::Small,
            CoordOptions::default(),
        )
        .unwrap();
        let addr = coord.local_addr().unwrap();
        let serve = std::thread::spawn(move || coord.serve());
        // One process, two connections, split thread budgets.
        let options = WorkerOptions {
            jobs: 2,
            ..WorkerOptions::default()
        };
        let report =
            run_worker_with(addr, quick_config(), Duration::from_secs(5), options).unwrap();
        let outcome = serve.join().unwrap().unwrap();
        assert_eq!(report.completed, outcome.planned);
        assert_eq!(report.failed, 0);
        assert_eq!(outcome.executed, outcome.planned);
        // The coordinator sees each connection as a logical worker.
        assert_eq!(outcome.workers, 2);
    }

    #[test]
    fn expired_lease_is_reissued_and_the_holder_disconnected() {
        let coord = Coordinator::bind(
            "127.0.0.1:0",
            quick_config(),
            &[FigureId::Fig1],
            SizeClass::Small,
            CoordOptions::default().with_lease_timeout(Duration::from_millis(300)),
        )
        .unwrap();
        let addr = coord.local_addr().unwrap();
        let fingerprint = config_fingerprint(coord.config());
        let serve = std::thread::spawn(move || coord.serve());

        // A "wedged" worker: takes a lease, then goes silent while keeping
        // the connection open — the half-open-link shape EOF detection
        // cannot see. The deadline reaper must revoke its lease and shut
        // its socket down.
        let wedged = std::thread::spawn(move || {
            let mut stream = connect_handshake(addr, &fingerprint);
            write_frame(&mut stream, &msg("request")).unwrap();
            let reply = read_frame_opt(&mut stream).unwrap().unwrap();
            assert_eq!(msg_type(&reply).unwrap(), "lease");
            // Never report the result; block until the coordinator cuts us
            // off (shutdown surfaces as EOF or an I/O error).
            assert!(matches!(read_frame_opt(&mut stream), Ok(None) | Err(_)));
        });

        // A healthy worker drains the sweep, including the revoked cell.
        let report = run_worker(addr, quick_config(), Duration::from_secs(5)).unwrap();
        let outcome = serve.join().unwrap().unwrap();
        wedged.join().unwrap();
        assert_eq!(outcome.executed, outcome.planned, "every cell ran");
        assert_eq!(report.completed, outcome.planned);
        assert!(outcome.reissued >= 1, "the wedged lease was re-issued");
    }

    #[test]
    fn clean_leave_hands_back_lease_without_charging_the_cap() {
        let coord = Coordinator::bind(
            "127.0.0.1:0",
            quick_config(),
            &[FigureId::Fig1],
            SizeClass::Small,
            CoordOptions::default(),
        )
        .unwrap();
        let addr = coord.local_addr().unwrap();
        let fingerprint = config_fingerprint(coord.config());
        let serve = std::thread::spawn(move || coord.serve());

        // A worker that takes a lease, is asked to stop, and departs via
        // `leave`: the cell goes back to the queue uncharged.
        let mut stream = connect_handshake(addr, &fingerprint);
        write_frame(&mut stream, &msg("request")).unwrap();
        let reply = read_frame_opt(&mut stream).unwrap().unwrap();
        assert_eq!(msg_type(&reply).unwrap(), "lease");
        write_frame(&mut stream, &msg("leave")).unwrap();
        let reply = read_frame_opt(&mut stream).unwrap().unwrap();
        assert_eq!(msg_type(&reply).unwrap(), "bye");
        drop(stream);

        // A worker whose stop flag is already set departs before leasing.
        let stopped = Arc::new(AtomicBool::new(true));
        let report = run_worker_with(
            addr,
            quick_config(),
            Duration::from_secs(5),
            WorkerOptions {
                jobs: 1,
                auth_token: None,
                stop: Some(Arc::clone(&stopped)),
            },
        )
        .unwrap();
        assert_eq!(report.completed, 0);

        let healthy = run_worker(addr, quick_config(), Duration::from_secs(5)).unwrap();
        let outcome = serve.join().unwrap().unwrap();
        assert_eq!(outcome.departed, 2, "both wind-downs were clean");
        assert_eq!(outcome.reissued, 0, "leave never charges the cap");
        assert_eq!(outcome.executed, outcome.planned);
        assert_eq!(healthy.completed, outcome.planned);
    }

    #[test]
    fn rebalance_steals_longest_held_lease_for_idle_workers() {
        let coord = Coordinator::bind(
            "127.0.0.1:0",
            quick_config(),
            &[FigureId::Fig1],
            SizeClass::Small,
            CoordOptions::default().with_rebalance_after(Duration::from_millis(300)),
        )
        .unwrap();
        let addr = coord.local_addr().unwrap();
        let fingerprint = config_fingerprint(coord.config());
        let serve = std::thread::spawn(move || coord.serve());

        // A slow worker: takes a lease and sits on it. Once the healthy
        // worker has drained the rest of the queue and idles, the
        // rebalancer must steal this lease (cutting the connection) so the
        // sweep finishes without waiting on the straggler.
        let slow = std::thread::spawn(move || {
            let mut stream = connect_handshake(addr, &fingerprint);
            write_frame(&mut stream, &msg("request")).unwrap();
            let reply = read_frame_opt(&mut stream).unwrap().unwrap();
            assert_eq!(msg_type(&reply).unwrap(), "lease");
            assert!(matches!(read_frame_opt(&mut stream), Ok(None) | Err(_)));
        });

        let report = run_worker(addr, quick_config(), Duration::from_secs(10)).unwrap();
        let outcome = serve.join().unwrap().unwrap();
        slow.join().unwrap();
        assert_eq!(outcome.executed, outcome.planned, "every cell ran");
        assert_eq!(report.completed, outcome.planned);
        assert!(outcome.rebalanced >= 1, "the straggler's lease was stolen");
        assert_eq!(outcome.reissued, 0, "rebalance never charges the cap");
    }

    #[test]
    fn resumed_result_lands_after_reconnect() {
        let coord = Coordinator::bind(
            "127.0.0.1:0",
            quick_config(),
            &[FigureId::Fig1],
            SizeClass::Small,
            CoordOptions::default(),
        )
        .unwrap();
        let addr = coord.local_addr().unwrap();
        let fingerprint = config_fingerprint(coord.config());
        let serve = std::thread::spawn(move || coord.serve());

        // Session one: lease a cell, then lose the connection mid-cell.
        let mut stream = connect_handshake(addr, &fingerprint);
        write_frame(&mut stream, &msg("request")).unwrap();
        let reply = read_frame_opt(&mut stream).unwrap().unwrap();
        assert_eq!(msg_type(&reply).unwrap(), "lease");
        let cell = CellKey::from_json(reply.get("cell").unwrap()).unwrap();
        drop(stream);

        // Session two: the same logical worker reconnects and re-submits
        // the result it computed under the lost lease, flagged `resume`.
        // It must be accepted, not rejected as a forgery.
        let mut stream = connect_handshake(addr, &fingerprint);
        let mut result = msg("result");
        result.set("cell", cell.to_json());
        result.set("outcome", CellOutcome::Unsupported.to_json());
        result.set("resume", Json::Bool(true));
        write_frame(&mut stream, &result).unwrap();
        let reply = read_frame_opt(&mut stream).unwrap().unwrap();
        assert_ne!(
            msg_type(&reply).unwrap(),
            "reject",
            "resume-flagged result must settle: {reply:?}"
        );
        // Hand back whatever the reply leased so nothing is charged.
        if msg_type(&reply).unwrap() == "lease" {
            write_frame(&mut stream, &msg("leave")).unwrap();
            let bye = read_frame_opt(&mut stream).unwrap().unwrap();
            assert_eq!(msg_type(&bye).unwrap(), "bye");
        }
        drop(stream);

        run_worker(addr, quick_config(), Duration::from_secs(5)).unwrap();
        let outcome = serve.join().unwrap().unwrap();
        assert_eq!(outcome.resumed, 1, "the reconnect resume was counted");
        assert_eq!(outcome.executed, outcome.planned, "no double counting");
    }

    #[test]
    fn status_snapshot_reports_sweep_state() {
        let coord = Coordinator::bind(
            "127.0.0.1:0",
            quick_config(),
            &[FigureId::Fig1],
            SizeClass::Small,
            CoordOptions::default().with_auth_token("sweep-secret"),
        )
        .unwrap();
        let addr = coord.local_addr().unwrap();
        let planned = coord.plan.len();
        let serve = std::thread::spawn(move || coord.serve());

        // Status polls authenticate like workers...
        let err = fetch_status(addr, None, Duration::from_secs(5)).unwrap_err();
        assert!(err.to_string().contains("auth token mismatch"), "{err}");
        // ...but skip the config fingerprint: monitoring needs no flags.
        let snap = fetch_status(addr, Some("sweep-secret"), Duration::from_secs(5)).unwrap();
        assert_eq!(
            snap.get("service").and_then(Json::as_str),
            Some("coordinate")
        );
        assert_eq!(
            snap.get("planned").and_then(Json::as_u64),
            Some(planned as u64)
        );
        assert_eq!(
            snap.get("pending").and_then(Json::as_u64),
            Some(planned as u64)
        );
        assert_eq!(snap.get("done").and_then(Json::as_u64), Some(0));
        assert_eq!(snap.get("workers").and_then(Json::as_u64), Some(0));
        assert!(snap.get("leases").and_then(Json::as_arr).is_some());
        assert!(snap.get("throughput").and_then(Json::as_arr).is_some());

        let options = WorkerOptions {
            auth_token: Some("sweep-secret".into()),
            ..WorkerOptions::default()
        };
        let report =
            run_worker_with(addr, quick_config(), Duration::from_secs(5), options).unwrap();
        let outcome = serve.join().unwrap().unwrap();
        assert_eq!(report.completed, outcome.planned);
        assert_eq!(outcome.workers, 1, "the status poll is not a worker");
    }

    #[test]
    fn status_and_sweep_survive_a_holder_of_the_state_lock_panicking() {
        let coord = Coordinator::bind(
            "127.0.0.1:0",
            quick_config(),
            &[FigureId::Fig1],
            SizeClass::Small,
            CoordOptions::default(),
        )
        .unwrap();
        let addr = coord.local_addr().unwrap();
        let planned = coord.plan.len();
        let holder = std::thread::scope(|s| {
            s.spawn(|| {
                let _guard = coord.state.lock().unwrap();
                panic!("handler died holding the coordinator state lock");
            })
            .join()
        });
        assert!(holder.is_err() && coord.state.is_poisoned());
        let serve = std::thread::spawn(move || coord.serve());

        let snap = fetch_status(addr, None, Duration::from_secs(5)).unwrap();
        assert_eq!(
            snap.get("pending").and_then(Json::as_u64),
            Some(planned as u64)
        );
        let report = run_worker(addr, quick_config(), Duration::from_secs(5)).unwrap();
        let outcome = serve.join().unwrap().unwrap();
        assert_eq!(report.completed, planned);
        assert_eq!(outcome.executed, planned);
    }

    #[test]
    fn result_for_unleased_cell_is_a_protocol_error() {
        let coord = Coordinator::bind(
            "127.0.0.1:0",
            quick_config(),
            &[FigureId::Fig1],
            SizeClass::Small,
            CoordOptions::default(),
        )
        .unwrap();
        let addr = coord.local_addr().unwrap();
        let fingerprint = config_fingerprint(coord.config());
        let forged = coord.plan[0].clone();
        let serve = std::thread::spawn(move || coord.serve());

        let mut stream = connect_handshake(addr, &fingerprint);
        let mut result = msg("result");
        result.set("cell", forged.to_json());
        result.set("outcome", CellOutcome::Unsupported.to_json());
        write_frame(&mut stream, &result).unwrap();
        let reply = read_frame_opt(&mut stream).unwrap().unwrap();
        assert_eq!(msg_type(&reply).unwrap(), "reject");
        drop(stream);

        // The forged outcome must not have entered the grid: a real worker
        // still executes every cell.
        let report = run_worker(addr, quick_config(), Duration::from_secs(5)).unwrap();
        let outcome = serve.join().unwrap().unwrap();
        assert_eq!(report.completed, outcome.planned);
    }
    #[test]
    fn a_lost_lease_on_a_settled_cell_is_neither_charged_nor_counted() {
        let coord = Coordinator::bind(
            "127.0.0.1:0",
            quick_config(),
            &[FigureId::Fig1],
            SizeClass::Small,
            CoordOptions::default(),
        )
        .unwrap();
        let addr = coord.local_addr().unwrap();
        let fingerprint = config_fingerprint(coord.config());
        let serve = std::thread::spawn(move || coord.serve());

        // A leases X and its link drops: X is re-queued (one re-issue).
        let mut a = connect_handshake(addr, &fingerprint);
        let cell = lease_one(&mut a);
        drop(a);
        await_status(addr, |snap| count(snap, "leased") == 0);
        // B leases X: `take` goes in plan order.
        let mut b = connect_handshake(addr, &fingerprint);
        assert_eq!(lease_one(&mut b), cell);
        // A reconnects and resumes X's result, which settles X.
        let mut a = connect_handshake(addr, &fingerprint);
        let mut result = msg("result");
        result.set("cell", cell.to_json());
        result.set("outcome", CellOutcome::Unsupported.to_json());
        result.set("resume", Json::Bool(true));
        write_frame(&mut a, &result).unwrap();
        let reply = read_frame_opt(&mut a).unwrap().unwrap();
        assert_eq!(msg_type(&reply).unwrap(), "lease", "{reply:?}");
        write_frame(&mut a, &msg("leave")).unwrap();
        let bye = read_frame_opt(&mut a).unwrap().unwrap();
        assert_eq!(msg_type(&bye).unwrap(), "bye");
        drop(a);
        // B dies holding the lease on a cell that is already settled.
        drop(b);

        run_worker(addr, quick_config(), Duration::from_secs(5)).unwrap();
        let outcome = serve.join().unwrap().unwrap();
        assert_eq!(outcome.reissued, 1, "only A's drop re-queued X");
        assert_eq!(outcome.resumed, 1);
        assert_eq!(outcome.executed, outcome.planned);
    }

    #[test]
    fn a_lease_past_both_limits_is_revoked_and_charged_once() {
        let limit = Duration::from_secs(1);
        let options = CoordOptions::default()
            .with_lease_timeout(limit)
            .with_rebalance_after(limit);
        let coord = Coordinator::bind(
            "127.0.0.1:0",
            quick_config(),
            &[FigureId::Fig1],
            SizeClass::Small,
            options,
        )
        .unwrap();
        let addr = coord.local_addr().unwrap();
        let fingerprint = config_fingerprint(coord.config());
        let serve = std::thread::spawn(move || coord.serve());

        // A wedged holder: both the deadline and the rebalancer match its
        // lease on the same tick.
        let mut wedged = connect_handshake(addr, &fingerprint);
        lease_one(&mut wedged);
        let healthy =
            std::thread::spawn(move || run_worker(addr, quick_config(), Duration::from_secs(5)));
        // The healthy worker drains the rest and idles before the limit.
        let snap = await_status(addr, |snap| {
            count(snap, "pending") == 0 && count(snap, "done") + 1 == count(snap, "planned")
        });
        let lease = &snap.get("leases").and_then(Json::as_arr).unwrap()[0];
        let held = lease.get("held_secs").and_then(Json::as_f64).unwrap();
        assert!(
            held < limit.as_secs_f64(),
            "drained within the limit: {held}"
        );
        assert!(matches!(read_frame_opt(&mut wedged), Ok(None) | Err(_)));

        let report = healthy.join().unwrap().unwrap();
        let outcome = serve.join().unwrap().unwrap();
        assert_eq!(report.completed, outcome.planned);
        assert_eq!(outcome.reissued, 1, "revoked once, charged once");
        assert_eq!(outcome.rebalanced, 0, "nothing left to steal");
        assert_eq!(outcome.executed, outcome.planned);
    }
}
