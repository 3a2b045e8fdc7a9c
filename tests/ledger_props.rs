//! Property tests for the sweep ledger (`genbase::sched::Ledger`): for
//! random plans, pre-filled checkpoints and whatever interleaving of
//! `take` / `settle` / `fail` / `give_back` N free-running threads produce,
//!
//! 1. no cell is handed out twice unless it was given back in between;
//! 2. `finish()` yields the same grid bytes, counters and plan-order first
//!    error as draining the same plan serially, and leaves the same
//!    checkpoint file;
//! 3. after every `settle` the checkpoint on disk parses, holds the cell
//!    just settled, and never holds fewer cells than an earlier read found.

use genbase::sched::{CellKey, CellOutcome, FigureId, Ledger, ReportGrid, SweepOutcome};
use genbase::Query;
use genbase_datagen::SizeClass;
use genbase_util::{CostReport, Error, Json, Result};
use proptest::prelude::*;
use std::collections::HashMap;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Barrier, Mutex};

const FINGERPRINT: &str = "scale=0.012;seed=1;timing=SimOnly";

/// What the test does with one planned cell.
#[derive(Debug, Clone, Copy, PartialEq)]
enum Fate {
    /// Already in the checkpoint when the ledger opens.
    Restored,
    Settle,
    /// Given back the first time it is handed out, settled the second.
    GiveBackThenSettle,
    Fail,
}

fn fate(kind: usize) -> Fate {
    [
        Fate::Restored,
        Fate::Settle,
        Fate::GiveBackThenSettle,
        Fate::Fail,
    ][kind]
}

/// The `i`-th planned cell; the engine name carries `i` back out of `take`.
fn cell(i: usize) -> CellKey {
    CellKey {
        figure: FigureId::Fig1,
        query: Query::ALL[i % Query::ALL.len()],
        size: SizeClass::Small,
        nodes: 1 + i / Query::ALL.len(),
        engine: format!("E{i}"),
    }
}

fn index(cell: &CellKey) -> usize {
    cell.engine[1..].parse().unwrap()
}

/// A deterministic outcome per cell, one of each shape.
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

fn failure(i: usize) -> Error {
    Error::invalid(format!("cell {i} failed"))
}

/// A fresh checkpoint path holding the restored cells (plus one cell from
/// outside the plan, which a resume must carry along) — as the primary, or
/// as a lone `.bak`. No file at all when nothing is restored.
fn prefilled(fates: &[Fate], lone_bak: bool) -> PathBuf {
    static NEXT: AtomicUsize = AtomicUsize::new(0);
    let path = std::env::temp_dir().join(format!(
        "genbase-ledger-props-{}-{}.json",
        std::process::id(),
        NEXT.fetch_add(1, Ordering::Relaxed)
    ));
    scrub(&path);
    let mut grid = ReportGrid::default();
    grid.set_fingerprint(FINGERPRINT.to_string());
    for (i, fate) in fates.iter().enumerate() {
        if *fate == Fate::Restored {
            grid.insert(&cell(i), outcome(i));
        }
    }
    if !grid.is_empty() {
        let mut foreign = cell(0);
        foreign.figure = FigureId::Fig5;
        grid.insert(&foreign, CellOutcome::Unsupported);
        grid.save(&path).unwrap();
        if lone_bak {
            std::fs::rename(&path, path.with_extension("bak")).unwrap();
        }
    }
    path
}

fn scrub(path: &Path) {
    for ext in ["json", "bak", "tmp"] {
        let _ = std::fs::remove_file(path.with_extension(ext));
    }
}

/// Report on `cell` the way its fate says, noting progress first for every
/// other cell (a settle drops it again; a failure keeps it for the retry).
fn report(ledger: &Ledger, cell: &CellKey, fates: &[Fate]) {
    let i = index(cell);
    if i.is_multiple_of(2) {
        ledger.note_progress(cell, "lanczos", Json::from(i));
    }
    match fates[i] {
        Fate::Fail => ledger.fail(cell, failure(i)),
        _ => ledger.settle(cell, outcome(i)),
    }
}

/// What a finished sweep is compared by.
fn summary(finished: Result<SweepOutcome>) -> Result<(String, usize, usize, usize)> {
    finished.map(|o| (o.grid.to_json(), o.planned, o.executed, o.skipped))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn any_interleaving_finishes_like_the_serial_drain(
        kinds in collection::vec(0..4usize, 1..24),
        threads in 1..6usize,
        lone_bak in proptest::bool::ANY,
    ) {
        let fates: Vec<Fate> = kinds.into_iter().map(fate).collect();
        let plan: Vec<CellKey> = (0..fates.len()).map(cell).collect();
        let restored = fates.iter().filter(|f| **f == Fate::Restored).count();

        // The serial drain: plan order, one cell at a time.
        let serial_path = prefilled(&fates, lone_bak);
        let serial =
            Ledger::open(plan.clone(), FINGERPRINT.into(), Some(serial_path.clone())).unwrap();
        while let Some((cell, _)) = serial.take() {
            report(&serial, &cell, &fates);
        }
        let serial = summary(serial.finish());

        // The same plan under `threads` free-running threads.
        let path = prefilled(&fates, lone_bak);
        let ledger = Ledger::open(plan, FINGERPRINT.into(), Some(path.clone())).unwrap();
        // (handed out, given back) per cell id.
        let traffic: Mutex<HashMap<String, (usize, usize)>> = Mutex::default();
        let most_seen = Mutex::new(0usize);
        let start = Barrier::new(threads);
        std::thread::scope(|scope| {
            for _ in 0..threads {
                scope.spawn(|| {
                    start.wait();
                    while let Some((cell, _)) = ledger.take() {
                        let (i, id) = (index(&cell), cell.id());
                        prop_assert!(fates[i] != Fate::Restored, "{id} was already settled");
                        let first_time = {
                            let mut traffic = traffic.lock().unwrap();
                            let (out, back) = traffic.entry(id.clone()).or_default();
                            *out += 1;
                            // (1): every hand-out after the first follows a give-back.
                            prop_assert_eq!(*out, *back + 1, "{} handed out twice", id);
                            *out == 1
                        };
                        if fates[i] == Fate::GiveBackThenSettle && first_time {
                            traffic.lock().unwrap().get_mut(&id).unwrap().1 += 1;
                            ledger.give_back(&cell);
                            std::thread::yield_now();
                            continue;
                        }
                        report(&ledger, &cell, &fates);
                        if fates[i] == Fate::Fail {
                            continue;
                        }
                        // (3): readers take turns, so "earlier" is well defined;
                        // between the writer's two renames the newest complete
                        // generation is the `.bak`.
                        let mut most = most_seen.lock().unwrap();
                        let text = std::fs::read_to_string(&path)
                            .or_else(|_| std::fs::read_to_string(path.with_extension("bak")))
                            .expect("a settle leaves a checkpoint");
                        let on_disk = ReportGrid::from_json(&text).expect("the checkpoint parses");
                        prop_assert!(on_disk.contains(&cell), "{id} settled but not on disk");
                        prop_assert!(on_disk.len() >= *most, "checkpoint shrank");
                        *most = on_disk.len();
                    }
                });
            }
        });
        let concurrent = summary(ledger.finish());

        // (2): same grid bytes, counters and first error; same file.
        if let Ok((_, planned, executed, skipped)) = &concurrent {
            prop_assert_eq!((*planned, *skipped), (fates.len(), restored));
            prop_assert_eq!(*executed, fates.len() - restored);
        } else {
            let first_failed = fates.iter().position(|f| *f == Fate::Fail).unwrap();
            prop_assert_eq!(concurrent.clone().unwrap_err(), failure(first_failed));
        }
        prop_assert_eq!(&concurrent, &serial);
        prop_assert_eq!(
            std::fs::read_to_string(&path).unwrap(),
            std::fs::read_to_string(&serial_path).unwrap()
        );
        prop_assert!(!path.with_extension("tmp").exists(), "a temp file was left behind");
        scrub(&path);
        scrub(&serial_path);
    }
}

/// A checkpoint stamped by another configuration is refused whichever of
/// the two files carries it, and an unreadable pair is an error, not a
/// silent fresh start.
#[test]
fn open_refuses_what_it_cannot_trust() {
    let path = prefilled(&[Fate::Restored, Fate::Settle], false);
    let plan = vec![cell(0), cell(1)];
    let open =
        |fingerprint: &str| Ledger::open(plan.clone(), fingerprint.into(), Some(path.clone()));
    for lone_bak in [false, true] {
        if lone_bak {
            std::fs::rename(&path, path.with_extension("bak")).unwrap();
        }
        let err = open("scale=1;seed=2;timing=Measured")
            .err()
            .expect("refused");
        assert!(err.to_string().contains("different configuration"), "{err}");
        assert!(open(FINGERPRINT).is_ok());
    }
    // A torn primary beside a torn backup: nothing to recover from.
    std::fs::write(&path, "{\"schema\":").unwrap();
    std::fs::write(path.with_extension("bak"), "{\"schema\":").unwrap();
    assert!(open(FINGERPRINT).is_err());
    // A torn primary with no backup at all is the primary's own error.
    std::fs::remove_file(path.with_extension("bak")).unwrap();
    assert!(open(FINGERPRINT).is_err());
    scrub(&path);
}
