//! Deterministic fault injection.
//!
//! Production code threads *named injection sites* through its I/O paths
//! (`faults::hit("worker.read")?`); a test or an operator installs a
//! [`FaultPlan`] describing which sites fire which [`FaultAction`] on which
//! hit. With no plan installed every site is a no-op guarded by a single
//! relaxed atomic load, so the hooks cost nothing in normal operation.
//!
//! Plans are written in a compact spec grammar, read from the
//! `GENBASE_FAULTS` environment variable at the first fault site (or
//! installed directly with [`install`]). `paper_harness` parses the
//! variable before it runs anything and refuses a malformed plan:
//!
//! ```text
//! site@N=action[;site@N=action...]
//! ```
//!
//! where `N` is the 1-based hit count at which the site fires (exactly the
//! `N`th visit — so one rule models one transient fault, and a retry of the
//! same site succeeds; `@N` defaults to `@1`) and `action` is one of:
//!
//! * `err:<kind>` — return a typed [`std::io::Error`] (`reset`, `refused`,
//!   `timedout`, `interrupted`, `brokenpipe`, `aborted`, `wouldblock`,
//!   `notfound`, `unexpectedeof`, `other`)
//! * `delay:<ms>` — sleep for the given number of milliseconds, then proceed
//! * `torn:<bytes>` — for write sites: truncate the write after `bytes`
//!   bytes (simulating a crash mid-write)
//! * `abort` — `std::process::abort()` (real process death; subprocess
//!   tests only)
//!
//! An optional `seed=N` entry sets [`plan_seed`], consumed by the retry
//! jitter so chaos runs stay reproducible.

use std::collections::HashMap;
use std::io;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Mutex, Once};

/// What an injection site does when its hit threshold is reached.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultAction {
    /// Fail with an [`io::Error`] of this kind.
    Error(io::ErrorKind),
    /// Sleep this many milliseconds, then continue normally.
    Delay(u64),
    /// Truncate a write after this many bytes (write sites only).
    Torn(usize),
    /// Abort the process (`std::process::abort`).
    Abort,
}

/// One `site@N=action` rule.
#[derive(Debug, Clone, PartialEq, Eq)]
struct Rule {
    site: String,
    at_hit: u64,
    action: FaultAction,
}

/// A parsed fault plan: a set of site rules plus an optional jitter seed.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct FaultPlan {
    rules: Vec<Rule>,
    seed: Option<u64>,
}

impl FaultPlan {
    /// Parse a plan from the spec grammar described at module level.
    pub fn parse(spec: &str) -> Result<FaultPlan, String> {
        let mut plan = FaultPlan::default();
        for entry in spec.split(';') {
            let entry = entry.trim();
            if entry.is_empty() {
                continue;
            }
            if let Some(seed) = entry.strip_prefix("seed=") {
                plan.seed = Some(
                    seed.parse::<u64>()
                        .map_err(|_| format!("bad fault seed {seed:?}"))?,
                );
                continue;
            }
            let (target, action) = entry
                .split_once('=')
                .ok_or_else(|| format!("fault entry {entry:?} missing '='"))?;
            let (site, hit) = match target.split_once('@') {
                Some((site, n)) => (
                    site,
                    n.parse::<u64>()
                        .ok()
                        .filter(|&n| n >= 1)
                        .ok_or_else(|| format!("bad hit count in {entry:?}"))?,
                ),
                None => (target, 1),
            };
            if site.is_empty() {
                return Err(format!("fault entry {entry:?} has an empty site"));
            }
            let action = parse_action(action)?;
            plan.rules.push(Rule {
                site: site.to_string(),
                at_hit: hit,
                action,
            });
        }
        Ok(plan)
    }

    /// The jitter seed from a `seed=N` entry, if any.
    pub fn seed(&self) -> Option<u64> {
        self.seed
    }

    fn action_for(&self, site: &str, hit: u64) -> Option<FaultAction> {
        self.rules
            .iter()
            .find(|r| r.site == site && hit == r.at_hit)
            .map(|r| r.action)
    }
}

fn parse_action(action: &str) -> Result<FaultAction, String> {
    if action == "abort" {
        return Ok(FaultAction::Abort);
    }
    if let Some(kind) = action.strip_prefix("err:") {
        return Ok(FaultAction::Error(error_kind(kind)?));
    }
    if let Some(ms) = action.strip_prefix("delay:") {
        return ms
            .parse::<u64>()
            .map(FaultAction::Delay)
            .map_err(|_| format!("bad delay {ms:?}"));
    }
    if let Some(bytes) = action.strip_prefix("torn:") {
        return bytes
            .parse::<usize>()
            .map(FaultAction::Torn)
            .map_err(|_| format!("bad torn byte count {bytes:?}"));
    }
    Err(format!("unknown fault action {action:?}"))
}

fn error_kind(name: &str) -> Result<io::ErrorKind, String> {
    use io::ErrorKind::*;
    Ok(match name {
        "refused" => ConnectionRefused,
        "reset" => ConnectionReset,
        "aborted" => ConnectionAborted,
        "timedout" => TimedOut,
        "interrupted" => Interrupted,
        "brokenpipe" => BrokenPipe,
        "wouldblock" => WouldBlock,
        "notfound" => NotFound,
        "unexpectedeof" => UnexpectedEof,
        "other" => Other,
        _ => return Err(format!("unknown error kind {name:?}")),
    })
}

struct Active {
    plan: FaultPlan,
    hits: HashMap<String, u64>,
}

static ENABLED: AtomicBool = AtomicBool::new(false);
static ACTIVE: Mutex<Option<Active>> = Mutex::new(None);
static ENV_INIT: Once = Once::new();

/// Install a fault plan process-wide, replacing any previous plan and
/// resetting all hit counters.
pub fn install(plan: FaultPlan) {
    let mut active = ACTIVE.lock().unwrap();
    ENABLED.store(true, Ordering::SeqCst);
    *active = Some(Active {
        plan,
        hits: HashMap::new(),
    });
}

/// Remove any installed fault plan; all sites become no-ops again.
pub fn clear() {
    let mut active = ACTIVE.lock().unwrap();
    ENABLED.store(false, Ordering::SeqCst);
    *active = None;
}

/// Whether a fault plan is currently installed (after lazily reading
/// `GENBASE_FAULTS` on first call).
pub fn active() -> bool {
    init_from_env();
    ENABLED.load(Ordering::Relaxed)
}

/// The installed plan's `seed=N` value, if a plan with a seed is active.
pub fn plan_seed() -> Option<u64> {
    if !active() {
        return None;
    }
    ACTIVE.lock().unwrap().as_ref().and_then(|a| a.plan.seed())
}

fn init_from_env() {
    ENV_INIT.call_once(|| {
        if let Ok(spec) = std::env::var("GENBASE_FAULTS") {
            if spec.trim().is_empty() {
                return;
            }
            match FaultPlan::parse(&spec) {
                Ok(plan) => install(plan),
                Err(e) => eprintln!("warning: ignoring GENBASE_FAULTS: {e}"),
            }
        }
    });
}

fn fire(site: &str) -> Option<FaultAction> {
    if !active() {
        return None;
    }
    let mut guard = ACTIVE.lock().unwrap();
    let active = guard.as_mut()?;
    let hit = active.hits.entry(site.to_string()).or_insert(0);
    *hit += 1;
    active.plan.action_for(site, *hit)
}

/// Visit a named injection site. Returns `Ok(())` when no plan is installed
/// or the site's rule has not reached its hit threshold; otherwise performs
/// the configured action (delays sleep then return `Ok`; errors return the
/// typed [`io::Error`]; `abort` never returns; a `torn` rule at a non-write
/// site degrades to a `WriteZero` error).
pub fn hit(site: &str) -> io::Result<()> {
    match fire(site) {
        None => Ok(()),
        Some(FaultAction::Delay(ms)) => {
            std::thread::sleep(std::time::Duration::from_millis(ms));
            Ok(())
        }
        Some(FaultAction::Error(kind)) => {
            Err(io::Error::new(kind, format!("injected fault at {site}")))
        }
        Some(FaultAction::Abort) => std::process::abort(),
        Some(FaultAction::Torn(_)) => Err(io::Error::new(
            io::ErrorKind::WriteZero,
            format!("injected torn write at {site}"),
        )),
    }
}

/// Visit a write-capable injection site. `Ok(Some(n))` means the caller must
/// tear the write after `n` bytes (and then fail as a crashed writer would);
/// `Ok(None)` means write normally. Non-torn actions behave as in [`hit`].
pub fn write_action(site: &str) -> io::Result<Option<usize>> {
    match fire(site) {
        None => Ok(None),
        Some(FaultAction::Torn(n)) => Ok(Some(n)),
        Some(FaultAction::Delay(ms)) => {
            std::thread::sleep(std::time::Duration::from_millis(ms));
            Ok(None)
        }
        Some(FaultAction::Error(kind)) => {
            Err(io::Error::new(kind, format!("injected fault at {site}")))
        }
        Some(FaultAction::Abort) => std::process::abort(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parse_full_grammar() {
        let plan =
            FaultPlan::parse("a.b@3=err:reset; c@1=delay:5 ;d=torn:10;e@2=abort;seed=42").unwrap();
        assert_eq!(plan.seed(), Some(42));
        assert_eq!(plan.rules.len(), 4);
        assert_eq!(
            plan.action_for("a.b", 3),
            Some(FaultAction::Error(io::ErrorKind::ConnectionReset))
        );
        assert_eq!(plan.action_for("a.b", 2), None);
        assert_eq!(plan.action_for("a.b", 9), None, "fires exactly at N");
        assert_eq!(plan.action_for("c", 1), Some(FaultAction::Delay(5)));
        assert_eq!(plan.action_for("d", 1), Some(FaultAction::Torn(10)));
        assert_eq!(plan.action_for("e", 2), Some(FaultAction::Abort));
        assert_eq!(plan.action_for("nope", 100), None);
    }

    #[test]
    fn parse_rejects_garbage() {
        assert!(FaultPlan::parse("x@0=abort").is_err());
        assert!(FaultPlan::parse("x=err:bogus").is_err());
        assert!(FaultPlan::parse("x=explode").is_err());
        assert!(FaultPlan::parse("=abort").is_err());
        assert!(FaultPlan::parse("seed=zz").is_err());
        assert!(FaultPlan::parse("noequals").is_err());
    }

    #[test]
    fn sites_count_hits_and_fire_typed_errors() {
        install(FaultPlan::parse("t.site@2=err:timedout").unwrap());
        assert!(hit("t.site").is_ok());
        let err = hit("t.site").unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::TimedOut);
        // One rule is one fault: the retry (3rd hit) succeeds.
        assert!(hit("t.site").is_ok());
        assert!(hit("t.other").is_ok());
        clear();
        assert!(hit("t.site").is_ok());
    }

    #[test]
    fn write_sites_report_tear_points() {
        install(FaultPlan::parse("t.w@1=torn:7").unwrap());
        assert_eq!(write_action("t.w").unwrap(), Some(7));
        // The same rule at a read-style site degrades to an error.
        install(FaultPlan::parse("t.r@1=torn:7").unwrap());
        let err = hit("t.r").unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::WriteZero);
        clear();
        assert_eq!(write_action("t.w").unwrap(), None);
    }
}
