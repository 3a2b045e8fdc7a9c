//! Shared utilities for the GenBase benchmark workspace.
//!
//! This crate deliberately has no external dependencies: everything downstream
//! (data generators, engines, the cluster simulator) relies on the
//! deterministic RNG, the cooperative [`Budget`] cancellation token, the
//! [`SimClock`] used to account simulated costs (network transfers, PCIe
//! copies, MapReduce job launches), the CSV codec that models the
//! "export to R" reformatting path from the paper, the [`Json`]
//! reader/writer behind every harness artifact, the length-prefixed
//! [`frame`] codec the distributed coordinator speaks over TCP, and the
//! [`IdIndex`] behind every per-triple gene/patient id lookup.

#![warn(missing_docs)]

pub mod budget;
pub mod csv;
mod dtoa;
pub mod error;
pub mod faults;
pub mod frame;
pub mod http;
pub mod idindex;
pub mod json;
pub mod retry;
pub mod rng;
pub mod runtime;
pub mod shutdown;
pub mod sim;
pub mod table;

pub use budget::Budget;
pub use error::{Error, Result};
pub use frame::{encode_frame, read_frame, read_frame_opt, write_frame, MAX_FRAME_BYTES};
pub use http::HttpRequest;
pub use idindex::IdIndex;
pub use json::Json;
pub use rng::Pcg64;
pub use runtime::{parallel_for, parallel_map, try_parallel_for, SharedSlice};
pub use sim::{CostReport, SimClock};

/// Lock `mutex`, recovering the guard when an earlier holder panicked. For
/// state that is valid after every single update (counters, queues, maps
/// touched one entry at a time), so one crashed thread must not take every
/// later user of the lock down with a second panic.
pub fn lock<T>(mutex: &std::sync::Mutex<T>) -> std::sync::MutexGuard<'_, T> {
    mutex
        .lock()
        .unwrap_or_else(std::sync::PoisonError::into_inner)
}

/// Format a byte count with a binary-prefix unit, e.g. `1.50 MiB`.
pub fn fmt_bytes(bytes: u64) -> String {
    const UNITS: [&str; 6] = ["B", "KiB", "MiB", "GiB", "TiB", "PiB"];
    let mut v = bytes as f64;
    let mut unit = 0;
    while v >= 1024.0 && unit < UNITS.len() - 1 {
        v /= 1024.0;
        unit += 1;
    }
    if unit == 0 {
        format!("{bytes} B")
    } else {
        format!("{v:.2} {}", UNITS[unit])
    }
}

/// Format a duration in seconds with adaptive precision, e.g. `1.23 s`,
/// `45.1 ms`, `890 us`.
pub fn fmt_secs(secs: f64) -> String {
    if secs.is_infinite() {
        "inf".to_string()
    } else if secs >= 1.0 {
        format!("{secs:.2} s")
    } else if secs >= 1e-3 {
        format!("{:.1} ms", secs * 1e3)
    } else if secs >= 1e-6 {
        format!("{:.0} us", secs * 1e6)
    } else {
        format!("{:.0} ns", secs * 1e9)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lock_recovers_a_poisoned_mutex() {
        let counter = std::sync::Arc::new(std::sync::Mutex::new(7));
        let holder = std::sync::Arc::clone(&counter);
        let panicked = std::thread::spawn(move || {
            let _guard = holder.lock().unwrap();
            panic!("die holding the lock");
        })
        .join();
        assert!(panicked.is_err() && counter.is_poisoned());
        *lock(&counter) += 1;
        assert_eq!(*lock(&counter), 8);
    }

    #[test]
    fn bytes_formatting() {
        assert_eq!(fmt_bytes(0), "0 B");
        assert_eq!(fmt_bytes(512), "512 B");
        assert_eq!(fmt_bytes(1536), "1.50 KiB");
        assert_eq!(fmt_bytes(3 * 1024 * 1024), "3.00 MiB");
    }

    #[test]
    fn secs_formatting() {
        assert_eq!(fmt_secs(2.5), "2.50 s");
        assert_eq!(fmt_secs(0.0451), "45.1 ms");
        assert_eq!(fmt_secs(0.00089), "890 us");
        assert_eq!(fmt_secs(f64::INFINITY), "inf");
    }
}
