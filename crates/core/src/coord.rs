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
//!
//! The coordinator is two parts. `Core`, the lease scheduler, holds the
//! plan, the ledger and one record per connected worker under one lock; its
//! steps — admit, apply a frame, end a connection, tick, status — take the
//! time as an argument and touch no socket, thread or clock. [`Coordinator`]
//! is the socket adapter around it: the listener, the `hello` gate, the
//! frame loop, the clock reads, and the `shutdown` of a revoked holder's
//! connection. The tests drive `Core` with a seeded fleet simulator —
//! virtual workers on a virtual clock that die, wedge, leave and resume in
//! random order — and check the protocol's promises on every seed.
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
//! - **Worker death is a first-class event:** a dying worker surfaces as
//!   EOF on its connection's thread, and its lease goes back to the ledger
//!   for the next requester, charged to the cell. A worker that vanishes
//!   *without* a TCP reset holds its lease until a `--lease-timeout`
//!   deadline revokes it.
//! - **Workers are elastic.** A worker told to stop (SIGTERM, or a
//!   [`WorkerOptions::stop`] flag) sends `leave`: its cell is re-queued
//!   uncharged and it gets `bye`. A worker that loses its connection
//!   mid-cell reconnects with backoff and re-submits its finished result
//!   flagged `resume: true`. When idle workers outnumber pending cells the
//!   coordinator may *rebalance*: the longest-held lease past
//!   [`CoordOptions::rebalance_after`] is revoked, uncharged, for an idle
//!   worker; whichever copy of the result arrives first wins (they are
//!   identical under `SimOnly`). A lease whose cell settled meanwhile is
//!   no loss: losing it is neither charged nor counted.
//! - **Intra-cell checkpoints:** long iterative kernels (Lanczos SVD,
//!   Cheng–Church) stream `progress` snapshots; the ledger keeps them (they
//!   ride the checkpoint) and the next lease of the cell carries them, so a
//!   re-issued cell resumes mid-iteration bit-identically.
//!
//! Under [`TimingMode::SimOnly`](crate::harness::TimingMode) a coordinated
//! sweep renders **byte-identical** output to the serial single-process run
//! whichever worker ran which cell (`tests/coord_distributed.rs` pins this).
//! Listening, the `hello` gate, the frame loop and the accept/drain model
//! are the session layer's (`session.rs`, shared with [`crate::serve`]).

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

/// How many charged lease losses one cell is re-issued after; the next
/// abandons it as a hard failure, so a cell that kills (OOMs, segfaults)
/// every worker leasing it cannot livelock the sweep: the rest completes,
/// as the local scheduler surfaces an in-process crash.
const MAX_REISSUES_PER_CELL: usize = 3;

/// Coordinator tuning knobs.
#[derive(Debug, Clone, Default)]
pub struct CoordOptions {
    /// Checkpoint file: loaded (if present) to skip completed cells,
    /// rewritten after every streamed result — the same file format and
    /// fingerprint guard as a local `--checkpoint` sweep.
    pub checkpoint: Option<PathBuf>,
    /// Per-lease deadline. A cell held longer is revoked, charged to the
    /// cell, and its holder's connection shut down (unblocking a handler
    /// wedged on a half-open link). `None` (default): a wedged-but-open
    /// connection holds its lease until TCP gives up. Size it well above
    /// the slowest cell: a healthy worker past it loses its lease too.
    pub lease_timeout: Option<Duration>,
    /// Shared auth token (`--auth-token` / `GENBASE_COORD_TOKEN`): every
    /// worker's `hello` must carry the same token, or none when this is
    /// `None`; a mismatch either way is a protocol reject at the handshake.
    pub auth_token: Option<String>,
    /// Work-stealing deadline. When idle workers outnumber pending cells,
    /// the longest-held lease older than this is revoked, uncharged, for
    /// an idle worker; its holder is cut off and its eventual result lands
    /// through the resume path. `None` (default) disables rebalancing.
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

/// Cuts a worker's connection (in the adapter, a socket `shutdown` that
/// unblocks even a half-open link): done to the holder of a revoked lease.
type Cut = Box<dyn Fn() + Send>;

/// One admitted worker connection, from its `hello` to its end.
struct Worker {
    cut: Cut,
    lease: Option<Lease>,
    /// Parked on an `idle` reply: spare capacity for the rebalancer.
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

    /// Give a revoked lease's cell back to the ledger, charging `loss` (why
    /// its holder lost it) to a cell still out — one settled meanwhile cost
    /// nothing — and abandoning it past [`MAX_REISSUES_PER_CELL`] losses.
    /// `None`: the holder did nothing wrong (a clean `leave`, a rebalance).
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

/// The lease scheduler: everything that decides the sweep, and nothing
/// that waits. Each method takes the time it runs at and touches no
/// socket, thread or clock, so the adapter ([`Coordinator`]) and the
/// fleet simulator in this module's tests drive the same code.
struct Core {
    plan: Vec<CellKey>,
    fingerprint: String,
    options: CoordOptions,
    /// Lock order: `state`, then the ledger's own locks; the ledger's
    /// checkpoint writes (`settle`, `note_progress`) run with `state`
    /// released.
    state: Mutex<State>,
    ledger: Ledger,
    /// Cells restored from the checkpoint at startup.
    restored: usize,
}

impl Core {
    /// Open the sweep's ledger on `plan` (loading the checkpoint, if any).
    fn open(plan: Vec<CellKey>, fingerprint: String, options: CoordOptions) -> Result<Core> {
        let checkpoint = options.checkpoint.clone();
        let ledger = Ledger::open(plan.clone(), fingerprint.clone(), checkpoint)?;
        Ok(Core {
            plan,
            fingerprint,
            options,
            state: Mutex::default(),
            restored: ledger.count(CellState::Settled),
            ledger,
        })
    }

    /// Admit connection `worker` and return its `welcome`. A worker brings
    /// the `cut` that disconnects it and gets a record; a status monitor
    /// brings none and gets none.
    fn admit(&self, now: Instant, worker: u64, cut: Option<Cut>) -> Json {
        let mut s = lock(&self.state);
        if let Some(cut) = cut {
            s.admitted += 1;
            let record = Worker {
                cut,
                lease: None,
                idle: false,
                completed: 0,
                failed: 0,
                connected: now,
            };
            s.workers.insert(worker, record);
        }
        let mut welcome = msg("welcome");
        welcome.set("worker", Json::from(worker));
        welcome.set("remaining", Json::from(self.pending() + s.leases().count()));
        welcome
    }

    /// Whether `worker` holds a lease.
    fn holds_lease(&self, worker: u64) -> bool {
        lock(&self.state).leases().any(|(w, _)| w == worker)
    }

    /// Process one post-handshake worker frame and produce the single reply.
    fn apply(&self, now: Instant, worker: u64, frame: &Json) -> Result<Json> {
        let kind = msg_type(frame)?;
        let refuse = |what: String| Err(Error::invalid(format!("worker {worker} {what}")));
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
            let mut s = lock(&self.state);
            if let Some(w) = s.holder(worker, &cell) {
                w.lease = None;
            } else {
                // Without a `resume` flag, an unleased report is a forged (or
                // hopelessly confused) message and stays a protocol error.
                if !resume {
                    return refuse(format!("reported cell {} it does not hold", cell.id()));
                }
                // A resumed report: the worker finished a cell whose lease it
                // lost to a reconnect, rebalance, or deadline. Reconcile
                // against where the cell is now.
                match (self.ledger.state_of(&cell), &outcome) {
                    // Someone already settled it (identical under SimOnly):
                    // drop the duplicate. Or it is leased to another worker:
                    // a finished result beats an in-flight recompute, so
                    // accept that (the other copy dedups when it lands), but
                    // a resumed *failure* must not pre-empt a run that may
                    // yet succeed.
                    (Some(CellState::Settled), _) | (Some(CellState::Out), None) => {
                        drop(s);
                        return self.next_assignment(now, worker);
                    }
                    (Some(CellState::Pending | CellState::Out), _) => {}
                    (Some(CellState::Failed) | None, _) => {
                        return refuse(format!("resumed cell {} unknown to this sweep", cell.id()))
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
                    self.ledger.settle(&cell, outcome);
                }
                None => {
                    w.into_iter().for_each(|w| w.failed += 1);
                    let reason = frame
                        .get("reason")
                        .and_then(Json::as_str)
                        .unwrap_or("unknown worker error");
                    let err = Error::invalid(format!("cell {}: {reason}", cell.id()));
                    self.ledger.fail(&cell, err);
                    drop(s);
                }
            }
            return self.next_assignment(now, worker);
        }
        if kind == "progress" {
            // An intra-cell snapshot from the lease holder: note it in the
            // ledger (riding the checkpoint), so a re-issue of this cell
            // resumes mid-iteration.
            let cell = CellKey::from_json(field("cell")?)?;
            let kernel = field("kernel")?.as_str();
            let kernel = kernel.ok_or_else(|| Error::invalid("progress kernel is not a string"))?;
            let state = field("state")?.clone();
            if lock(&self.state).holder(worker, &cell).is_none() {
                return refuse(format!(
                    "sent progress for cell {} it does not hold",
                    cell.id()
                ));
            }
            self.ledger.note_progress(&cell, kernel, state);
            return Ok(msg("ack"));
        }
        if kind == "leave" {
            // Clean departure: hand back any held cell without charging the
            // re-issue cap — the worker is healthy, it was *asked* to stop.
            let mut s = lock(&self.state);
            s.departed += 1;
            let lease = s.workers.get_mut(&worker).and_then(|w| {
                w.idle = false;
                w.lease.take()
            });
            if let Some(lease) = lease {
                s.give_back(&self.ledger, lease, None);
            }
            return Ok(msg("bye"));
        }
        if kind == "status" {
            return Ok(self.status(now));
        }
        if kind != "request" {
            return Err(Error::invalid(format!("unexpected frame type {kind:?}")));
        }
        self.next_assignment(now, worker)
    }

    /// Lease the next pending cell, or tell the worker to wait / stop.
    fn next_assignment(&self, now: Instant, worker: u64) -> Result<Json> {
        let mut s = lock(&self.state);
        if self.ledger.halted() {
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
        let next = self.ledger.take();
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
        w.lease = Some(Lease { cell, since: now });
        Ok(lease)
    }

    /// Connection `worker` ended: drop its record and give back whatever
    /// lease it still holds — nothing, after an idle timeout, a revocation
    /// or a clean `leave`.
    fn end(&self, worker: u64) {
        let mut s = lock(&self.state);
        if let Some(lease) = s.workers.remove(&worker).and_then(|w| w.lease) {
            s.give_back(&self.ledger, lease, Some("worker connection ended"));
        }
    }

    /// The service tick's one pass over the leases. First every lease held
    /// past [`CoordOptions::lease_timeout`] is revoked and charged to its
    /// cell — the gap EOF detection cannot close. Then, when idle workers
    /// outnumber pending cells, the oldest lease past
    /// [`CoordOptions::rebalance_after`] is revoked for that spare capacity,
    /// uncharged: its holder is healthy, just slow, and its finished result
    /// can still land through the resume path (first copy wins). Each
    /// holder's connection is cut from its record; its handler then ends
    /// the connection and finds no lease left to give back.
    fn tick(&self, now: Instant) {
        let policies = [
            (self.options.lease_timeout, Some("lease deadline exceeded")),
            (self.options.rebalance_after, None),
        ];
        let mut s = lock(&self.state);
        for (limit, loss) in policies {
            let held = s.leases().map(|(worker, lease)| (lease.since, worker));
            let past =
                |&(since, _): &(Instant, u64)| limit.is_some_and(|limit| now - since > limit);
            let mut stale: Vec<(Instant, u64)> = held.filter(past).collect();
            if loss.is_none() {
                // Rebalancing takes the oldest, and only for spare capacity.
                let idle = s.workers.values().filter(|w| w.idle).count();
                let spare = !self.ledger.halted() && idle > self.pending();
                stale.sort();
                stale.truncate(usize::from(spare));
            }
            for (_, worker) in stale {
                let w = s.workers.get_mut(&worker);
                let w = w.expect("a stale lease has a holder");
                (w.cut)();
                if let Some(lease) = w.lease.take() {
                    s.rebalanced += usize::from(loss.is_none());
                    s.give_back(&self.ledger, lease, loss);
                }
            }
        }
    }

    /// Render the live sweep state as a `status` frame. `leased` counts the
    /// cells out with a worker: a lease on a cell that settled meanwhile
    /// (a resumed copy landed first) is listed in `leases` but not counted,
    /// so `planned = done + failed + pending + leased` always holds.
    fn status(&self, now: Instant) -> Json {
        let s = lock(&self.state);
        let done = self.ledger.count(CellState::Settled);
        let mut m = msg("status");
        m.set("service", Json::from("coordinate"));
        m.set("planned", Json::from(self.plan.len()));
        m.set("restored", Json::from(self.restored));
        m.set("pending", Json::from(self.pending()));
        m.set("leased", Json::from(self.ledger.count(CellState::Out)));
        m.set("done", Json::from(done));
        m.set("failed", Json::from(self.ledger.count(CellState::Failed)));
        m.set("executed", Json::from(done - self.restored));
        m.set("reissued", Json::from(s.reissued));
        m.set("departed", Json::from(s.departed));
        m.set("rebalanced", Json::from(s.rebalanced));
        m.set("resumed", Json::from(s.resumed));
        m.set("workers", Json::from(s.admitted));
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
            // No time connected yet is no rate yet (0/0, n/0).
            let rate = w.completed as f64 / now.duration_since(w.connected).as_secs_f64();
            t.set(
                "cells_per_sec",
                Json::from(if rate.is_finite() { rate } else { 0.0 }),
            );
            t
        });
        m.set("throughput", Json::Arr(throughput.collect()));
        m
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

    /// Close the books once every connection has ended.
    fn finish(&self) -> Result<CoordOutcome> {
        let done = self.ledger.finish()?;
        let s = lock(&self.state);
        Ok(CoordOutcome {
            grid: done.grid,
            planned: done.planned,
            executed: done.executed,
            restored: done.skipped,
            reissued: s.reissued,
            workers: s.admitted,
            departed: s.departed,
            rebalanced: s.rebalanced,
            resumed: s.resumed,
            recovered: done.recovered,
        })
    }
}

/// The coordinator half: plans the sweep, listens, and runs each worker
/// connection against the lease scheduler (the socket side of it).
pub struct Coordinator {
    listener: TcpListener,
    config: HarnessConfig,
    core: Core,
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
        let plan = figs.iter();
        let plan = plan.flat_map(|&f| figures::plan(f, &config, mn_size));
        let core = Core::open(plan.collect(), config_fingerprint(&config), options)?;
        Ok(Coordinator {
            listener,
            config,
            core,
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
            handle_worker(stream, worker, &self.core);
        };
        // Drain: once the plan is complete every connection — parked on an
        // idle poll, or still queued in the listen backlog — gets `done` on
        // its next request, closes, and its handler exits on the EOF.
        session::run_listeners(
            "coordinator",
            &[(&self.listener, &handler)],
            || {
                self.core.tick(Instant::now());
                !self.core.complete()
            },
            || (),
        )?;
        // Every handler has exited: what they settled is in the ledger.
        self.core.finish()
    }
}

/// Read timeout while a worker holds *no* lease: an idle worker polls
/// every [`IDLE_BACKOFF_MS`], so silence this long is a wedged connection,
/// and closing it keeps `serve()`'s final handler join bounded. A lease
/// holder is silent for the whole cell, so its reads stay unbounded.
const IDLE_READ_TIMEOUT: Duration = Duration::from_secs(60);

/// One connection: the `hello` gate, `welcome`, then the lease/result loop
/// (a `status` monitor may only poll snapshots), each frame applied to
/// `core` at the time it arrives. An admitted worker's record lives from
/// `welcome` to the connection's end.
fn handle_worker(mut stream: TcpStream, worker: u64, core: &Core) {
    // Monitors authenticate but need no fingerprint: a status poll must
    // work from hosts that never built a matching config. They are not
    // counted as workers either.
    let gate = Gate {
        token: core.options.auth_token.as_deref(),
        fingerprint: &core.fingerprint,
        roles: &[("worker", true), ("status", false)],
    };
    let Ok(role) = session::admit(&mut stream, &gate) else {
        return;
    };
    // A worker without a clone handle could lose its lease to the stale
    // pass but never be cut off: refuse it (it sees EOF and can restart).
    let cut: Option<Cut> = match (role, stream.try_clone()) {
        ("worker", Ok(handle)) => Some(Box::new(move || drop(handle.shutdown(Shutdown::Both)))),
        ("worker", Err(_)) => return,
        _ => None,
    };
    let welcome = core.admit(Instant::now(), worker, cut);
    if write_frame(&mut stream, &welcome).is_ok() {
        session::frame_loop(
            &mut stream,
            |stream| {
                let leased = core.holds_lease(worker);
                let _ = stream.set_read_timeout((!leased).then_some(IDLE_READ_TIMEOUT));
                faults::hit("coord.read").is_ok()
            },
            |frame| {
                let now = Instant::now();
                let reply = match role {
                    "worker" => core.apply(now, worker, frame)?,
                    // Monitors never touch lease state.
                    _ if matches!(msg_type(frame), Ok("status")) => core.status(now),
                    _ => return Err(Error::invalid("status connections may only poll status")),
                };
                // An injected write failure drops the reply on the floor.
                Ok(faults::hit("coord.write").is_ok().then_some(reply))
            },
        );
    }
    core.end(worker);
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
        // The first error in job order; the scope joins the rest.
        handles
            .into_iter()
            .try_fold(WorkerReport::default(), |mut report, job| {
                let part = job.join().expect("worker job thread")?;
                report.completed += part.completed;
                report.failed += part.failed;
                Ok(report)
            })
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
                let ms = reply.get("backoff_ms").and_then(Json::as_u64);
                std::thread::sleep(Duration::from_millis(ms.unwrap_or(IDLE_BACKOFF_MS)));
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
                let progress = Arc::new(CoordProgress {
                    stream: Mutex::new(clone),
                    cell: cell.to_json(),
                    restored: reply.get("progress").cloned(),
                    dead: AtomicBool::new(false),
                    killed: AtomicBool::new(false),
                });
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
mod fleet {
    //! A seeded fleet simulator for `Core`: virtual workers on a virtual
    //! clock connect, lease, report, stream progress, leave, die, wedge and
    //! reconnect with `resume` in whatever order a `Pcg64` draws, while the
    //! service tick runs at random virtual times. The fleet keeps its own
    //! books of what the protocol promises — which losses are charged,
    //! which tick revokes what, which report settles or fails a cell — and
    //! checks `Core` against them after every step and at the end.

    use super::*;
    use crate::Query;
    use genbase_util::{CostReport, Pcg64};

    /// The `i`-th planned cell; the engine name carries `i` back out.
    fn cell(i: usize) -> CellKey {
        CellKey {
            figure: FigureId::Fig1,
            query: Query::ALL[i % Query::ALL.len()],
            size: SizeClass::Small,
            nodes: 1 + i / Query::ALL.len(),
            engine: format!("E{i}"),
        }
    }

    fn number(cell: &CellKey) -> usize {
        cell.engine[1..].parse().unwrap()
    }

    fn index(cell: &Json) -> usize {
        number(&CellKey::from_json(cell).unwrap())
    }

    /// The fabricated outcome every run of cell `i` reports.
    fn outcome(i: usize) -> CellOutcome {
        match i % 3 {
            0 => CellOutcome::Unsupported,
            1 => CellOutcome::Infinite {
                reason: format!("cutoff in cell {i}"),
            },
            _ => CellOutcome::Completed {
                dm: CostReport {
                    wall_secs: 0.0,
                    sim_secs: i as f64 * 0.5,
                    sim_bytes: i as u64,
                },
                an: CostReport::default(),
                trace: Vec::new(),
            },
        }
    }

    /// A `result` (with cell `i`'s outcome) or `failed` report for cell `i`.
    fn report(kind: &str, i: usize) -> Json {
        let mut m = msg(kind);
        m.set("cell", cell(i).to_json());
        match kind {
            "result" => m.set("outcome", outcome(i).to_json()),
            _ => m.set("reason", Json::from("injected failure")),
        }
        m
    }

    /// One connection, as its worker sees it.
    struct Conn {
        id: u64,
        /// Set when the coordinator cuts the connection.
        cut: Arc<AtomicBool>,
        /// The cell it was last leased, and when.
        lease: Option<(usize, Instant)>,
        /// Parked on an `idle` reply.
        idle: bool,
        /// Holds its lease and stays silent.
        wedged: bool,
    }

    /// One virtual worker process.
    #[derive(Default)]
    struct VirtualWorker {
        conn: Option<Conn>,
        /// A report whose reply never arrived: the next connection re-sends
        /// it with `resume: true`.
        unacked: Option<Json>,
        /// Told `done`: the process exited.
        exited: bool,
    }

    struct Fleet {
        core: Core,
        rng: Pcg64,
        now: Instant,
        workers: Vec<VirtualWorker>,
        last_id: u64,
        /// Per cell: losses that must be charged, and whether a failure
        /// report the ledger must keep was sent.
        charged: Vec<usize>,
        failed: Vec<bool>,
        /// The last progress state streamed per cell.
        progress: Vec<Option<u64>>,
        departed: usize,
        rebalanced: usize,
        resumed: usize,
    }

    impl Fleet {
        fn new(seed: u64) -> Fleet {
            let mut rng = Pcg64::new(seed);
            let cells = 1 + rng.next_below(10) as usize;
            let workers = 1 + rng.next_below(4) as usize;
            let mut limit = || Duration::from_millis(20 + rng.next_below(300));
            let (timeout, rebalance) = (limit(), limit());
            let options = CoordOptions {
                lease_timeout: (seed & 1 == 1).then_some(timeout),
                rebalance_after: (seed & 2 == 2).then_some(rebalance),
                ..CoordOptions::default()
            };
            let plan = (0..cells).map(cell).collect();
            Fleet {
                core: Core::open(plan, "fleet".into(), options).unwrap(),
                rng,
                now: Instant::now(),
                workers: (0..workers).map(|_| VirtualWorker::default()).collect(),
                last_id: 0,
                charged: vec![0; cells],
                failed: vec![false; cells],
                progress: vec![None; cells],
                departed: 0,
                rebalanced: 0,
                resumed: 0,
            }
        }

        fn state(&self, i: usize) -> CellState {
            self.core.ledger.state_of(&cell(i)).unwrap()
        }

        fn conn(&mut self, w: usize) -> &mut Conn {
            self.workers[w].conn.as_mut().unwrap()
        }

        fn chance(&mut self, percent: u64) -> bool {
            self.rng.next_below(100) < percent
        }

        /// A lease on cell `i` is lost to a dead connection or a deadline:
        /// charged only while the cell is still out.
        fn lose(&mut self, i: usize) {
            if self.state(i) == CellState::Out {
                self.charged[i] += 1;
            }
        }

        fn connect(&mut self, w: usize) {
            self.last_id += 1;
            let cut = Arc::new(AtomicBool::new(false));
            let flag = Arc::clone(&cut);
            let cut_fn: Cut = Box::new(move || flag.store(true, Ordering::Relaxed));
            let welcome = self.core.admit(self.now, self.last_id, Some(cut_fn));
            assert_eq!(
                welcome.get("worker").and_then(Json::as_u64),
                Some(self.last_id)
            );
            self.workers[w].conn = Some(Conn {
                id: self.last_id,
                cut,
                lease: None,
                idle: false,
                wedged: false,
            });
            let Some(mut frame) = self.workers[w].unacked.take() else {
                return;
            };
            // The report from a lost connection, resumed: it settles a cell
            // still pending, a result also one out to another worker, and
            // a duplicate of a settled cell is dropped.
            frame.set("resume", Json::Bool(true));
            let i = index(frame.get("cell").unwrap());
            let result = matches!(msg_type(&frame), Ok("result"));
            let state = self.state(i);
            let accepted = state == CellState::Pending || (state == CellState::Out && result);
            self.resumed += usize::from(accepted);
            self.failed[i] |= accepted && !result;
            let ok = self.send(w, &frame);
            assert_eq!(ok, state != CellState::Failed, "resume of a {state:?} cell");
        }

        /// The connection ends (EOF): the adapter calls `end`.
        fn hang_up(&mut self, w: usize) {
            let conn = self.workers[w].conn.take().unwrap();
            if let Some((i, _)) = conn.lease {
                self.lose(i);
            }
            self.core.end(conn.id);
        }

        /// Send `frame` and act on the reply as the worker does; whether it
        /// was accepted. A protocol error is a `reject` that closes the
        /// connection, and the worker restarts with nothing to resume.
        fn send(&mut self, w: usize, frame: &Json) -> bool {
            let id = self.conn(w).id;
            let reply = match self.core.apply(self.now, id, frame) {
                Ok(reply) => reply,
                Err(_) => {
                    self.hang_up(w);
                    self.workers[w].unacked = None;
                    return false;
                }
            };
            let kind = msg_type(&reply).unwrap();
            self.conn(w).idle = kind == "idle";
            match kind {
                "lease" => {
                    let i = index(reply.get("cell").unwrap());
                    let saved = reply.get("progress").and_then(|p| p.get("lanczos"));
                    assert_eq!(saved.and_then(Json::as_u64), self.progress[i], "cell {i}");
                    let now = self.now;
                    self.conn(w).lease = Some((i, now));
                }
                "idle" | "ack" => {}
                "done" => {
                    assert!(self.core.complete(), "done before the sweep completed");
                    self.hang_up(w);
                    self.workers[w].exited = true;
                }
                "bye" => self.hang_up(w),
                other => panic!("unexpected reply {other:?}"),
            }
            true
        }

        /// The holder of cell `i` reports it.
        fn report(&mut self, w: usize, kind: &str) {
            let (i, _) = self.conn(w).lease.take().unwrap();
            self.failed[i] |= kind == "failed" && self.state(i) == CellState::Out;
            assert!(self.send(w, &report(kind, i)), "the holder's report");
        }

        /// The service tick, checked against what the lease policy says it
        /// must revoke: every lease past the deadline (charged), then — if
        /// idle workers outnumber pending cells — the oldest lease past the
        /// rebalance limit (uncharged).
        fn tick(&mut self) {
            let now = self.now;
            let options = self.core.options.clone();
            let mut held: Vec<(Instant, u64, usize, usize)> = (self.workers.iter())
                .enumerate()
                .filter_map(|(w, v)| {
                    let c = v.conn.as_ref()?;
                    c.lease.map(|(i, since)| (since, c.id, w, i))
                })
                .collect();
            held.sort();
            let past = |since: Instant, limit: Option<Duration>| {
                limit.is_some_and(|limit| now - since > limit)
            };
            let mut revoked = Vec::new();
            let mut pending = self.core.pending();
            for &(since, _, w, i) in &held {
                if past(since, options.lease_timeout) {
                    revoked.push(w);
                    self.lose(i);
                    let requeued = self.state(i) == CellState::Out;
                    pending += usize::from(requeued && self.charged[i] <= MAX_REISSUES_PER_CELL);
                }
            }
            let idle = self.workers.iter().flat_map(|v| &v.conn).filter(|c| c.idle);
            if idle.count() > pending {
                let mut stale = held.iter().filter(|(since, _, w, _)| {
                    past(*since, options.rebalance_after) && !revoked.contains(w)
                });
                if let Some(&(_, _, w, _)) = stale.next() {
                    revoked.push(w);
                    self.rebalanced += 1;
                }
            }
            self.core.tick(now);
            let mut cut: Vec<usize> = (0..self.workers.len())
                .filter(|&w| {
                    (self.workers[w].conn.as_ref()).is_some_and(|c| c.cut.load(Ordering::Relaxed))
                })
                .collect();
            cut.sort_unstable();
            revoked.sort_unstable();
            assert_eq!(cut, revoked, "the tick's revocations");
            for w in cut {
                let conn = self.conn(w);
                let (i, _) = conn.lease.take().unwrap();
                if conn.wedged {
                    self.hang_up(w);
                    continue;
                }
                // A live holder finishes its cell on a cut connection: the
                // report in flight is refused (it holds no lease and does not
                // say `resume`), and the next connection resumes it.
                let kind = if self.chance(10) { "failed" } else { "result" };
                let frame = report(kind, i);
                if self.chance(50) {
                    assert!(!self.send(w, &frame), "a report without its lease");
                } else {
                    self.hang_up(w);
                }
                self.workers[w].unacked = Some(frame);
            }
        }

        /// One chaotic step by worker `w`.
        fn chaos(&mut self, w: usize) {
            if self.workers[w].exited {
                return;
            }
            let Some(conn) = &self.workers[w].conn else {
                if self.chance(60) {
                    self.connect(w);
                }
                return;
            };
            let roll = self.rng.next_below(100);
            match (conn.lease, conn.wedged) {
                (_, true) => {
                    if roll < 10 {
                        // Killed: EOF, and the process's work is gone.
                        self.hang_up(w);
                    }
                }
                (None, false) => match roll {
                    0..=69 => {
                        self.send(w, &msg("request"));
                    }
                    70..=79 => {
                        self.departed += 1;
                        self.send(w, &msg("leave"));
                    }
                    80..=89 => self.hang_up(w),
                    _ => {
                        // A forged report: no lease, no `resume`.
                        let i = self.rng.next_below(self.charged.len() as u64) as usize;
                        let mut forged = report("result", i);
                        let lie = CellOutcome::Infinite {
                            reason: "forged".into(),
                        };
                        forged.set("outcome", lie.to_json());
                        assert!(!self.send(w, &forged), "a forged report");
                    }
                },
                (Some((i, _)), false) => match roll {
                    0..=34 => self.report(w, "result"),
                    35..=39 => self.report(w, "failed"),
                    40..=54 => {
                        let step = self.rng.next_below(1000);
                        let mut frame = msg("progress");
                        frame.set("cell", cell(i).to_json());
                        frame.set("kernel", Json::from("lanczos"));
                        frame.set("state", Json::from(step));
                        if self.state(i) != CellState::Settled {
                            self.progress[i] = Some(step);
                        }
                        assert!(self.send(w, &frame), "the holder's progress");
                    }
                    55..=59 => {
                        // Leave with a lease: given back uncharged.
                        self.departed += 1;
                        self.conn(w).lease = None;
                        self.send(w, &msg("leave"));
                    }
                    60..=67 => self.hang_up(w),
                    68..=77 => self.conn(w).wedged = true,
                    78..=81 => {
                        // Asking for more while holding: a protocol error.
                        assert!(!self.send(w, &msg("request")), "a second lease");
                    }
                    _ => {
                        // The link dies around a finished report — before it
                        // is sent, or after it landed but before its reply —
                        // and the worker reconnects to resume it.
                        let frame = report(if roll < 85 { "failed" } else { "result" }, i);
                        if roll.is_multiple_of(2) {
                            self.conn(w).lease = None;
                            self.failed[i] |= roll < 85 && self.state(i) == CellState::Out;
                            let (now, id) = (self.now, self.conn(w).id);
                            let reply = self.core.apply(now, id, &frame).unwrap();
                            if matches!(msg_type(&reply), Ok("lease")) {
                                self.conn(w).lease = Some((index(reply.get("cell").unwrap()), now));
                            }
                        }
                        self.hang_up(w);
                        self.workers[w].unacked = Some(frame);
                        if self.chance(50) {
                            self.connect(w);
                        }
                    }
                },
            }
        }

        /// One well-behaved step by worker `w`: the fleet settles down.
        fn calm(&mut self, w: usize) {
            match &self.workers[w].conn {
                _ if self.workers[w].exited => {}
                None => self.connect(w),
                Some(c) if c.wedged => self.conn(w).wedged = false,
                Some(c) if c.lease.is_some() => self.report(w, "result"),
                Some(_) => {
                    self.send(w, &msg("request"));
                }
            }
        }

        /// What must hold after every step.
        fn check(&self) {
            let snap = self.core.status(self.now);
            let n = |key| snap.get(key).and_then(Json::as_u64).unwrap();
            let sum = n("done") + n("failed") + n("pending") + n("leased");
            assert_eq!(n("planned"), sum, "status adds up: {}", snap.render());
            let s = lock(&self.core.state);
            let mut out = vec![false; self.charged.len()];
            for (_, lease) in s.leases() {
                if self.core.ledger.state_of(&lease.cell) == Some(CellState::Out) {
                    let twice = std::mem::replace(&mut out[number(&lease.cell)], true);
                    assert!(!twice, "{} leased twice", lease.cell.id());
                }
            }
            let live: Vec<&Conn> = self.workers.iter().flat_map(|v| &v.conn).collect();
            assert_eq!(s.workers.len(), live.len());
            for conn in live {
                let lease = s.workers[&conn.id].lease.as_ref();
                let lease = lease.map(|l| number(&l.cell));
                assert_eq!(lease, conn.lease.map(|(i, _)| i), "worker {}", conn.id);
            }
        }

        /// Run the fleet to completion and check the books.
        fn run(mut self) {
            let chaos_steps = self.rng.next_below(120);
            let bound = chaos_steps + 40 * (self.charged.len() + self.workers.len()) as u64;
            let mut step = 0;
            while !self.core.complete() {
                assert!(step < bound, "no completion within {bound} steps");
                self.now += Duration::from_millis(self.rng.next_below(40));
                if self.chance(25) {
                    self.tick();
                } else {
                    let w = self.rng.next_below(self.workers.len() as u64) as usize;
                    match step < chaos_steps {
                        true => self.chaos(w),
                        false => self.calm(w),
                    }
                }
                self.check();
                step += 1;
            }
            let abandoned = |i: usize| self.charged[i] > MAX_REISSUES_PER_CELL;
            let cells = self.charged.len();
            let failed: Vec<usize> = (0..cells)
                .filter(|&i| self.failed[i] || abandoned(i))
                .collect();
            for i in 0..cells {
                let expect = match failed.contains(&i) {
                    true => CellState::Failed,
                    false => CellState::Settled,
                };
                assert_eq!(self.state(i), expect, "cell {i}");
            }
            let reissued = self
                .charged
                .iter()
                .map(|&c| c.min(MAX_REISSUES_PER_CELL))
                .sum();
            {
                let s = lock(&self.core.state);
                assert_eq!(s.reissued, reissued, "charged losses {:?}", self.charged);
                assert_eq!(s.departed, self.departed);
                assert_eq!(s.rebalanced, self.rebalanced);
                assert_eq!(s.resumed, self.resumed);
            }
            match (self.core.finish(), failed.first()) {
                (Ok(done), None) => {
                    let mut grid = ReportGrid::default();
                    grid.set_fingerprint("fleet".into());
                    (0..cells).for_each(|i| grid.insert(&cell(i), outcome(i)));
                    assert_eq!(done.grid.to_json(), grid.to_json());
                    assert_eq!(done.executed, cells);
                }
                (Err(e), Some(&first)) => {
                    let id = cell(first).id();
                    assert!(e.to_string().contains(&format!("cell {id}: ")), "{e}");
                }
                (done, first) => panic!("finish {:?} with failed cell {first:?}", done.err()),
            }
        }
    }

    fn run_seeds(seeds: std::ops::Range<u64>) {
        for seed in seeds {
            let fleet = Fleet::new(seed);
            if let Err(panic) =
                std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| fleet.run()))
            {
                eprintln!("fleet seed {seed} failed");
                std::panic::resume_unwind(panic);
            }
        }
    }

    #[test]
    fn seeded_fleets_drain_the_sweep_and_keep_the_books() {
        run_seeds(0..2_000);
    }

    /// The same simulator over 100 000 seeds; run it in release:
    /// `cargo test --release -p genbase --lib coord::fleet -- --ignored`.
    #[test]
    #[ignore = "100 000 seeds: run in release"]
    fn seeded_fleets_drain_the_sweep_and_keep_the_books_100k() {
        run_seeds(2_000..102_000);
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
        assert!(!coord.core.plan.is_empty());
        for cell in &coord.core.plan {
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
        let planned = coord.core.plan.len();
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
        let planned = coord.core.plan.len();
        let holder = std::thread::scope(|s| {
            s.spawn(|| {
                let _guard = coord.core.state.lock().unwrap();
                panic!("handler died holding the coordinator state lock");
            })
            .join()
        });
        assert!(holder.is_err() && coord.core.state.is_poisoned());
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
}
