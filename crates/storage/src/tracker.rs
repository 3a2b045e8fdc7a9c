//! Allocation tracker: the memory-accounting contract of the storage layer.
//!
//! One [`MemTracker`] lives for the duration of one query run (one sweep
//! cell). Storage-layer objects charge their heap bytes on construction and
//! release them on drop; conversion kernels additionally *note* the bytes
//! they read ([`MemTracker::note_input`]) and the bytes/rows they
//! materialize ([`MemTracker::note_output`]). The plan tracer snapshots the
//! cumulative counters around each physical operator ([`MemTracker::op_begin`]
//! / [`MemTracker::op_delta`]), which is where the `bytes_in` / `bytes_out`
//! / `peak_alloc_bytes` / `rows_materialized` columns of a trace come from.
//!
//! A tracker may carry a byte limit (the harness's `--mem-budget`):
//! [`MemTracker::charge`] fails with [`Error::OutOfMemory`] when live bytes
//! would exceed it, which the harness renders as the paper's "infinite"
//! cell — a traced, surfaced failure, never an abort.
//!
//! All counters are atomics, so accounting stays exact when kernels charge
//! from the shared runtime's worker threads and when many concurrent sweep
//! cells each hold their own tracker (pinned by the storage property tests).

use genbase_linalg::Matrix;
use genbase_util::{Error, Result};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// Shared, thread-safe storage-layer allocation tracker.
#[derive(Debug, Clone, Default)]
pub struct MemTracker {
    inner: Arc<Inner>,
}

#[derive(Debug)]
struct Inner {
    /// Live-byte limit; `u64::MAX` means unlimited.
    limit: u64,
    /// Currently live (charged, not yet released) bytes.
    current: AtomicU64,
    /// All-time peak of `current`.
    peak: AtomicU64,
    /// Peak of `current` since the last [`MemTracker::op_begin`].
    op_peak: AtomicU64,
    /// Cumulative bytes read by conversion/scan kernels.
    bytes_in: AtomicU64,
    /// Cumulative bytes materialized as operator output.
    bytes_out: AtomicU64,
    /// Cumulative rows materialized as operator output.
    rows_out: AtomicU64,
    /// Cumulative morsel batches processed by streaming operators.
    batches: AtomicU64,
    /// Cumulative bytes written to spill storage by streaming operators.
    spill_bytes: AtomicU64,
    /// Cumulative artifact-cache hits taken by conversion kernels.
    cache_hits: AtomicU64,
    /// Cumulative rows marked as selection-vector survivors by
    /// streaming operators (rows *not* copied between pipeline stages).
    rows_selected: AtomicU64,
}

impl Default for Inner {
    fn default() -> Self {
        Inner {
            limit: u64::MAX,
            current: AtomicU64::new(0),
            peak: AtomicU64::new(0),
            op_peak: AtomicU64::new(0),
            bytes_in: AtomicU64::new(0),
            bytes_out: AtomicU64::new(0),
            rows_out: AtomicU64::new(0),
            batches: AtomicU64::new(0),
            spill_bytes: AtomicU64::new(0),
            cache_hits: AtomicU64::new(0),
            rows_selected: AtomicU64::new(0),
        }
    }
}

/// Snapshot of the cumulative counters at an operator boundary.
#[derive(Debug, Clone, Copy)]
pub struct OpScope {
    bytes_in: u64,
    bytes_out: u64,
    rows_out: u64,
    batches: u64,
    spill_bytes: u64,
    cache_hits: u64,
    rows_selected: u64,
}

/// Per-operator memory deltas, as they appear in a plan trace.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct MemDelta {
    /// Bytes the operator read from resident storage.
    pub bytes_in: u64,
    /// Bytes the operator materialized as output.
    pub bytes_out: u64,
    /// Peak live storage-layer bytes while the operator ran.
    pub peak_alloc_bytes: u64,
    /// Rows the operator materialized.
    pub rows_materialized: u64,
    /// Morsel batches the operator streamed (zero for materializing ops).
    pub batches: u64,
    /// Bytes the operator spilled to disk to stay under budget.
    pub spill_bytes: u64,
    /// Artifact-cache hits the operator's conversion kernels took.
    pub cache_hits: u64,
    /// Rows the operator passed downstream as selection-vector survivors
    /// instead of materialized copies (streaming only).
    pub rows_selected: u64,
}

impl MemTracker {
    /// Tracker with no byte limit.
    pub fn unlimited() -> MemTracker {
        MemTracker::default()
    }

    /// Tracker enforcing `limit` live bytes when `Some` (`--mem-budget`).
    pub fn new(limit: Option<u64>) -> MemTracker {
        MemTracker {
            inner: Arc::new(Inner {
                limit: limit.unwrap_or(u64::MAX),
                ..Inner::default()
            }),
        }
    }

    /// Record `bytes` of live storage-layer allocation. Fails (without
    /// recording) when the tracker's limit would be exceeded.
    pub fn charge(&self, bytes: u64) -> Result<()> {
        let mut cur = self.inner.current.load(Ordering::Relaxed);
        loop {
            let next = cur.saturating_add(bytes);
            if next > self.inner.limit {
                return Err(Error::OutOfMemory {
                    requested: bytes,
                    budget: self.inner.limit,
                });
            }
            match self.inner.current.compare_exchange_weak(
                cur,
                next,
                Ordering::Relaxed,
                Ordering::Relaxed,
            ) {
                Ok(_) => {
                    self.inner.peak.fetch_max(next, Ordering::Relaxed);
                    self.inner.op_peak.fetch_max(next, Ordering::Relaxed);
                    return Ok(());
                }
                Err(actual) => cur = actual,
            }
        }
    }

    /// Release a previously charged allocation. An unmatched release is a
    /// caller bug; it clamps to zero (never wraps) so one bad call site
    /// cannot poison the peak counters or fail every later charge.
    pub fn release(&self, bytes: u64) {
        let mut cur = self.inner.current.load(Ordering::Relaxed);
        loop {
            debug_assert!(cur >= bytes, "release of {bytes} bytes exceeds live {cur}");
            let next = cur.saturating_sub(bytes);
            match self.inner.current.compare_exchange_weak(
                cur,
                next,
                Ordering::Relaxed,
                Ordering::Relaxed,
            ) {
                Ok(_) => return,
                Err(actual) => cur = actual,
            }
        }
    }

    /// Note `bytes` read from resident storage by a kernel.
    pub fn note_input(&self, bytes: u64) {
        self.inner.bytes_in.fetch_add(bytes, Ordering::Relaxed);
    }

    /// Note `bytes` / `rows` materialized as operator output.
    pub fn note_output(&self, bytes: u64, rows: u64) {
        self.inner.bytes_out.fetch_add(bytes, Ordering::Relaxed);
        self.inner.rows_out.fetch_add(rows, Ordering::Relaxed);
    }

    /// Note one morsel batch streamed through an operator.
    pub fn note_batch(&self) {
        self.inner.batches.fetch_add(1, Ordering::Relaxed);
    }

    /// Note `n` streamed batches at once (one operator's whole pass,
    /// counted at a serial point so the tally stays thread-independent).
    pub fn note_batches(&self, n: u64) {
        self.inner.batches.fetch_add(n, Ordering::Relaxed);
    }

    /// Note `bytes` written to spill storage by a streaming operator.
    pub fn note_spill(&self, bytes: u64) {
        self.inner.spill_bytes.fetch_add(bytes, Ordering::Relaxed);
    }

    /// Note one artifact-cache hit taken by a memoized join.
    pub fn note_cache_hit(&self) {
        self.inner.cache_hits.fetch_add(1, Ordering::Relaxed);
    }

    /// Note `rows` passed downstream as selection-vector survivors by a
    /// streaming operator (counted at a serial point, like
    /// [`MemTracker::note_batches`], so the tally is thread-independent).
    pub fn note_selected(&self, rows: u64) {
        self.inner.rows_selected.fetch_add(rows, Ordering::Relaxed);
    }

    /// Cumulative selection-vector survivor rows across the tracker's
    /// lifetime.
    pub fn rows_selected(&self) -> u64 {
        self.inner.rows_selected.load(Ordering::Relaxed)
    }

    /// Cumulative artifact-cache hits across the tracker's lifetime.
    pub fn cache_hits(&self) -> u64 {
        self.inner.cache_hits.load(Ordering::Relaxed)
    }

    /// Cumulative spill bytes across the tracker's lifetime.
    pub fn spill_bytes(&self) -> u64 {
        self.inner.spill_bytes.load(Ordering::Relaxed)
    }

    /// Cumulative morsel batches across the tracker's lifetime.
    pub fn batches(&self) -> u64 {
        self.inner.batches.load(Ordering::Relaxed)
    }

    /// Currently live bytes.
    pub fn current(&self) -> u64 {
        self.inner.current.load(Ordering::Relaxed)
    }

    /// All-time peak live bytes.
    pub fn peak(&self) -> u64 {
        self.inner.peak.load(Ordering::Relaxed)
    }

    /// The live-byte limit (`u64::MAX` = unlimited).
    pub fn limit(&self) -> u64 {
        self.inner.limit
    }

    /// Bytes still available under the limit (`u64::MAX` when unlimited).
    /// Advisory: concurrent charges can race it — use [`MemTracker::reserve`]
    /// to claim budget atomically.
    pub fn remaining(&self) -> u64 {
        if self.inner.limit == u64::MAX {
            return u64::MAX;
        }
        self.inner.limit.saturating_sub(self.current())
    }

    /// Atomically claim `bytes` of the budget and hold the claim until the
    /// returned [`Reservation`] drops. The admission controller reserves a
    /// request's working-set estimate up front, so concurrent admissions
    /// cannot collectively overshoot the budget.
    pub fn reserve(&self, bytes: u64) -> Result<Reservation> {
        self.charge(bytes)?;
        Ok(Reservation {
            bytes,
            tracker: self.clone(),
        })
    }

    /// Open an operator scope: snapshot the cumulative counters and reset
    /// the per-op peak to the bytes currently live (so a later
    /// [`MemTracker::op_delta`] reports the peak *during* the op, carried
    /// working sets included).
    pub fn op_begin(&self) -> OpScope {
        self.inner.op_peak.store(self.current(), Ordering::Relaxed);
        OpScope {
            bytes_in: self.inner.bytes_in.load(Ordering::Relaxed),
            bytes_out: self.inner.bytes_out.load(Ordering::Relaxed),
            rows_out: self.inner.rows_out.load(Ordering::Relaxed),
            batches: self.inner.batches.load(Ordering::Relaxed),
            spill_bytes: self.inner.spill_bytes.load(Ordering::Relaxed),
            cache_hits: self.inner.cache_hits.load(Ordering::Relaxed),
            rows_selected: self.inner.rows_selected.load(Ordering::Relaxed),
        }
    }

    /// Close an operator scope: the deltas since its [`MemTracker::op_begin`].
    pub fn op_delta(&self, scope: OpScope) -> MemDelta {
        MemDelta {
            bytes_in: self.inner.bytes_in.load(Ordering::Relaxed) - scope.bytes_in,
            bytes_out: self.inner.bytes_out.load(Ordering::Relaxed) - scope.bytes_out,
            peak_alloc_bytes: self.inner.op_peak.load(Ordering::Relaxed),
            rows_materialized: self.inner.rows_out.load(Ordering::Relaxed) - scope.rows_out,
            batches: self.inner.batches.load(Ordering::Relaxed) - scope.batches,
            spill_bytes: self.inner.spill_bytes.load(Ordering::Relaxed) - scope.spill_bytes,
            cache_hits: self.inner.cache_hits.load(Ordering::Relaxed) - scope.cache_hits,
            rows_selected: self.inner.rows_selected.load(Ordering::Relaxed) - scope.rows_selected,
        }
    }
}

/// An RAII claim on a slice of a tracker's budget, made with
/// [`MemTracker::reserve`]; the bytes are released when it drops. This is
/// the layer's one charge guard: an admission's working-set estimate is a
/// bare reservation, and every tracker-charged value
/// ([`crate::ColumnarTable`], [`crate::Morsel`], [`DenseHandle`]) is its
/// payload plus the reservation for the payload's heap bytes.
#[derive(Debug)]
pub struct Reservation {
    bytes: u64,
    tracker: MemTracker,
}

impl Reservation {
    /// Bytes this reservation holds.
    pub fn bytes(&self) -> u64 {
        self.bytes
    }
}

impl Drop for Reservation {
    fn drop(&mut self) {
        self.tracker.release(self.bytes);
    }
}

/// A dense working set (a [`Matrix`]) held under tracker accounting: its
/// heap bytes are charged on construction and released on drop. Engines
/// hold their pivoted/gathered matrices through this handle so resident
/// bytes stay observable; `Deref` keeps the analytics call sites unchanged.
#[derive(Debug)]
pub struct DenseHandle {
    mat: Matrix,
    _charge: Reservation,
}

impl DenseHandle {
    /// Charge `mat`'s heap bytes against `tracker` and wrap it.
    pub fn new(tracker: &MemTracker, mat: Matrix) -> Result<DenseHandle> {
        let _charge = tracker.reserve(mat.heap_bytes())?;
        Ok(DenseHandle { mat, _charge })
    }

    /// The wrapped matrix.
    pub fn matrix(&self) -> &Matrix {
        &self.mat
    }
}

impl std::ops::Deref for DenseHandle {
    type Target = Matrix;

    fn deref(&self) -> &Matrix {
        &self.mat
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn charge_release_and_peaks() {
        let t = MemTracker::unlimited();
        t.charge(1000).unwrap();
        t.charge(500).unwrap();
        assert_eq!(t.current(), 1500);
        assert_eq!(t.peak(), 1500);
        t.release(1200);
        t.charge(100).unwrap();
        assert_eq!(t.current(), 400);
        assert_eq!(t.peak(), 1500);
    }

    #[test]
    fn limit_enforced_without_recording() {
        let t = MemTracker::new(Some(1000));
        t.charge(800).unwrap();
        let err = t.charge(300).unwrap_err();
        assert!(err.is_infinite_result(), "budget exhaustion is infinite");
        assert_eq!(t.current(), 800, "failed charge not recorded");
        t.release(500);
        t.charge(300).unwrap();
    }

    #[test]
    fn op_scope_deltas() {
        let t = MemTracker::unlimited();
        t.charge(100).unwrap();
        t.note_input(7);
        let scope = t.op_begin();
        t.note_input(50);
        t.charge(200).unwrap();
        t.release(200);
        t.note_output(64, 8);
        let d = t.op_delta(scope);
        assert_eq!(d.bytes_in, 50, "pre-op inputs excluded");
        assert_eq!(d.bytes_out, 64);
        assert_eq!(d.rows_materialized, 8);
        assert_eq!(d.peak_alloc_bytes, 300, "carried 100 + transient 200");
    }

    #[test]
    fn dense_handle_is_raii() {
        let t = MemTracker::unlimited();
        {
            let h = DenseHandle::new(&t, Matrix::zeros(4, 8)).unwrap();
            assert_eq!(t.current(), 4 * 8 * 8);
            assert_eq!(h.rows(), 4);
        }
        assert_eq!(t.current(), 0);
    }

    #[test]
    fn reservation_is_raii_and_atomic() {
        let t = MemTracker::new(Some(1000));
        assert_eq!(t.remaining(), 1000);
        let r = t.reserve(700).unwrap();
        assert_eq!(r.bytes(), 700);
        assert_eq!(t.remaining(), 300);
        assert!(t.reserve(400).is_err(), "over-budget reserve fails");
        drop(r);
        assert_eq!(t.remaining(), 1000);
        let _r2 = t.reserve(400).unwrap();
        assert_eq!(MemTracker::unlimited().remaining(), u64::MAX);
    }

    #[test]
    fn tracker_shared_across_clones() {
        let t = MemTracker::new(Some(100));
        let t2 = t.clone();
        t.charge(80).unwrap();
        assert!(t2.charge(80).is_err());
        assert_eq!(t2.current(), 80);
    }
}
