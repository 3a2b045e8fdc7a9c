//! Intra-cell progress checkpointing.
//!
//! A long iterative kernel periodically hands a JSON snapshot of its
//! iteration state to a [`CellProgress`] sink and asks it for a prior
//! snapshot on startup. Lanczos (Query 4's SVD) is the one kernel that
//! does; Cheng–Church computes a single bicluster and saves nothing. In a
//! coordinated sweep the sink relays snapshots to the coordinator, which
//! persists them in the sweep checkpoint; a re-issued cell then resumes
//! mid-iteration bit-identically instead of recomputing from scratch.
//!
//! All numeric state is round-tripped through lossless hex codecs
//! ([`f64s_to_hex`], [`u128_to_hex`]) rather than JSON numbers, because
//! bit-exact resume demands every bit and JSON numbers cannot carry all of
//! them: finite `f64`s would round-trip (the JSON layer renders the
//! shortest string that parses back to the same value), but JSON has no NaN
//! or ±inf, and an integer such as the `u128` RNG state is exact as a JSON
//! number only below 2^53. Only coordinated sweeps install a sink; a local
//! sweep's cells run without one.

use crate::error::{Error, Result};
use crate::json::Json;
use std::fmt;
use std::sync::{Arc, Mutex};

/// A sink for kernel iteration state, keyed by kernel name.
///
/// Implementations must tolerate `save` being called from whichever thread
/// runs the kernel and must return from `restore` exactly what the latest
/// successful `save` stored (or `None` for a fresh start).
pub trait CellProgress: Send + Sync {
    /// The most recent snapshot for `kernel`, if any.
    fn restore(&self, kernel: &str) -> Option<Json>;
    /// Persist a snapshot for `kernel`. An `Err` tells the kernel its host
    /// is gone and it should abandon the cell.
    fn save(&self, kernel: &str, state: &Json) -> Result<()>;
}

/// A cloneable handle to a shared [`CellProgress`] sink.
#[derive(Clone)]
pub struct ProgressHandle(Arc<dyn CellProgress>);

impl ProgressHandle {
    /// Wrap a sink in a handle.
    pub fn new(sink: Arc<dyn CellProgress>) -> ProgressHandle {
        ProgressHandle(sink)
    }

    /// The most recent snapshot for `kernel`, if any.
    pub fn restore(&self, kernel: &str) -> Option<Json> {
        self.0.restore(kernel)
    }

    /// Persist a snapshot for `kernel`.
    pub fn save(&self, kernel: &str, state: &Json) -> Result<()> {
        self.0.save(kernel, state)
    }
}

impl fmt::Debug for ProgressHandle {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str("ProgressHandle(..)")
    }
}

/// An in-memory [`CellProgress`] for tests: keeps the latest snapshot per
/// kernel and counts saves.
#[derive(Default)]
pub struct MemoryProgress {
    inner: Mutex<MemoryInner>,
}

#[derive(Default)]
struct MemoryInner {
    latest: std::collections::BTreeMap<String, Json>,
    saves: usize,
}

impl MemoryProgress {
    /// A fresh, empty sink.
    pub fn new() -> MemoryProgress {
        MemoryProgress::default()
    }

    /// A sink pre-seeded with one kernel snapshot (simulating a re-issued
    /// cell arriving with saved progress).
    pub fn with_state(kernel: &str, state: Json) -> MemoryProgress {
        let sink = MemoryProgress::default();
        sink.inner
            .lock()
            .unwrap()
            .latest
            .insert(kernel.to_string(), state);
        sink
    }

    /// How many times `save` has been called.
    pub fn saves(&self) -> usize {
        self.inner.lock().unwrap().saves
    }

    /// The latest snapshot for `kernel`, if any.
    pub fn latest(&self, kernel: &str) -> Option<Json> {
        self.inner.lock().unwrap().latest.get(kernel).cloned()
    }
}

impl CellProgress for MemoryProgress {
    fn restore(&self, kernel: &str) -> Option<Json> {
        self.inner.lock().unwrap().latest.get(kernel).cloned()
    }

    fn save(&self, kernel: &str, state: &Json) -> Result<()> {
        let mut inner = self.inner.lock().unwrap();
        inner.saves += 1;
        inner.latest.insert(kernel.to_string(), state.clone());
        Ok(())
    }
}

/// Encode a slice of `f64` as concatenated 16-hex-digit bit patterns.
pub fn f64s_to_hex(values: &[f64]) -> String {
    let mut out = String::with_capacity(values.len() * 16);
    for v in values {
        out.push_str(&format!("{:016x}", v.to_bits()));
    }
    out
}

/// Decode a string produced by [`f64s_to_hex`].
pub fn f64s_from_hex(hex: &str) -> Result<Vec<f64>> {
    if !hex.len().is_multiple_of(16) {
        return Err(Error::invalid("f64 hex length not a multiple of 16"));
    }
    hex.as_bytes()
        .chunks(16)
        .map(|chunk| {
            let s = std::str::from_utf8(chunk).map_err(|_| Error::invalid("bad f64 hex"))?;
            u64::from_str_radix(s, 16)
                .map(f64::from_bits)
                .map_err(|_| Error::invalid("bad f64 hex"))
        })
        .collect()
}

/// Encode a `u128` as a 32-hex-digit string.
pub fn u128_to_hex(v: u128) -> String {
    format!("{v:032x}")
}

/// Decode a string produced by [`u128_to_hex`].
pub fn u128_from_hex(hex: &str) -> Result<u128> {
    if hex.len() != 32 {
        return Err(Error::invalid("u128 hex must be 32 digits"));
    }
    u128::from_str_radix(hex, 16).map_err(|_| Error::invalid("bad u128 hex"))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn f64_hex_round_trips_exactly() {
        let values = [
            0.0,
            -0.0,
            1.5,
            -3.25e-300,
            f64::MIN_POSITIVE,
            f64::MAX,
            f64::INFINITY,
            std::f64::consts::PI,
        ];
        let hex = f64s_to_hex(&values);
        let back = f64s_from_hex(&hex).unwrap();
        assert_eq!(values.len(), back.len());
        for (a, b) in values.iter().zip(&back) {
            assert_eq!(a.to_bits(), b.to_bits());
        }
        assert!(f64s_from_hex("abc").is_err());
        assert!(f64s_from_hex("zzzzzzzzzzzzzzzz").is_err());
    }

    #[test]
    fn u128_hex_round_trips() {
        for v in [0u128, 1, u128::MAX, 0xdead_beef_cafe] {
            assert_eq!(u128_from_hex(&u128_to_hex(v)).unwrap(), v);
        }
        assert!(u128_from_hex("12").is_err());
    }

    #[test]
    fn memory_progress_stores_latest() {
        let sink = MemoryProgress::new();
        assert!(sink.restore("k").is_none());
        sink.save("k", &Json::from(1.0)).unwrap();
        sink.save("k", &Json::from(2.0)).unwrap();
        assert_eq!(sink.saves(), 2);
        assert_eq!(sink.restore("k"), Some(Json::from(2.0)));
        let handle = ProgressHandle::new(Arc::new(sink));
        assert_eq!(handle.restore("k"), Some(Json::from(2.0)));
        assert_eq!(format!("{handle:?}"), "ProgressHandle(..)");
    }
}
