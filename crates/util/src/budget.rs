//! Cooperative computation budget: wall-clock cutoff plus a simulated memory
//! allowance.
//!
//! The paper cuts every run off after two hours and treats temporary-space
//! allocation failures as infinite results. Engines here receive a [`Budget`]
//! and are expected to call [`Budget::check`] inside long loops (outer loops
//! of matmul, per-chunk scans, MapReduce task boundaries) and
//! [`Budget::alloc`]/[`Budget::free`] around large simulated allocations.

use crate::error::{Error, Result};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Shared, thread-safe computation budget.
#[derive(Debug, Clone)]
pub struct Budget {
    inner: Arc<Inner>,
}

#[derive(Debug)]
struct Inner {
    start: Instant,
    /// Cutoff; `None` means unlimited.
    limit: Option<Duration>,
    /// Simulated memory budget in bytes; `u64::MAX` means unlimited.
    mem_limit: u64,
    mem_used: AtomicU64,
    /// Maximum number of cells a single dense allocation may hold
    /// (vanilla R's 2^31 - 1 limit); `u64::MAX` means unlimited.
    cell_limit: u64,
}

impl Budget {
    /// Unlimited budget (tests, examples).
    pub fn unlimited() -> Self {
        Self::new(None, u64::MAX, u64::MAX)
    }

    /// Budget with only a wall-clock cutoff.
    pub fn with_timeout(limit: Duration) -> Self {
        Self::new(Some(limit), u64::MAX, u64::MAX)
    }

    /// Fully specified budget.
    pub fn new(limit: Option<Duration>, mem_limit: u64, cell_limit: u64) -> Self {
        Budget {
            inner: Arc::new(Inner {
                start: Instant::now(),
                limit,
                mem_limit,
                mem_used: AtomicU64::new(0),
                cell_limit,
            }),
        }
    }

    /// Elapsed wall time since the budget was created.
    pub fn elapsed(&self) -> Duration {
        self.inner.start.elapsed()
    }

    /// Return `Err(Timeout)` if the cutoff has passed. `phase` names the
    /// current stage for reporting.
    #[inline]
    pub fn check(&self, phase: &str) -> Result<()> {
        if let Some(limit) = self.inner.limit {
            if self.inner.start.elapsed() >= limit {
                return Err(Error::Timeout {
                    phase: phase.to_string(),
                });
            }
        }
        Ok(())
    }

    /// Record a simulated allocation of `bytes` holding `cells` scalar cells.
    /// Fails if the engine's memory budget or per-array cell limit would be
    /// exceeded (the allocation is *not* recorded on failure).
    pub fn alloc(&self, bytes: u64, cells: u64) -> Result<()> {
        if cells > self.inner.cell_limit {
            return Err(Error::OutOfMemory {
                requested: bytes,
                budget: self.inner.cell_limit.saturating_mul(8),
            });
        }
        let mut cur = self.inner.mem_used.load(Ordering::Relaxed);
        loop {
            let next = cur.saturating_add(bytes);
            if next > self.inner.mem_limit {
                return Err(Error::OutOfMemory {
                    requested: bytes,
                    budget: self.inner.mem_limit,
                });
            }
            match self.inner.mem_used.compare_exchange_weak(
                cur,
                next,
                Ordering::Relaxed,
                Ordering::Relaxed,
            ) {
                Ok(_) => return Ok(()),
                Err(actual) => cur = actual,
            }
        }
    }

    /// Release a previously recorded simulated allocation.
    pub fn free(&self, bytes: u64) {
        self.inner.mem_used.fetch_sub(bytes, Ordering::Relaxed);
    }

    /// Currently recorded simulated memory use.
    pub fn mem_used(&self) -> u64 {
        self.inner.mem_used.load(Ordering::Relaxed)
    }
}

impl Default for Budget {
    fn default() -> Self {
        Self::unlimited()
    }
}

/// RAII guard for a simulated allocation: frees on drop.
pub struct AllocGuard {
    budget: Budget,
    bytes: u64,
}

impl AllocGuard {
    /// Claim `bytes`/`cells` against `budget`, returning a guard that frees
    /// the claim when dropped.
    pub fn claim(budget: &Budget, bytes: u64, cells: u64) -> Result<AllocGuard> {
        budget.alloc(bytes, cells)?;
        Ok(AllocGuard {
            budget: budget.clone(),
            bytes,
        })
    }
}

impl Drop for AllocGuard {
    fn drop(&mut self) {
        self.budget.free(self.bytes);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn unlimited_never_fails() {
        let b = Budget::unlimited();
        assert!(b.check("x").is_ok());
        assert!(b.alloc(u64::MAX / 4, 1 << 40).is_ok());
    }

    #[test]
    fn timeout_fires() {
        let b = Budget::with_timeout(Duration::from_millis(5));
        std::thread::sleep(Duration::from_millis(10));
        let err = b.check("analytics").unwrap_err();
        assert!(matches!(err, Error::Timeout { .. }));
    }

    #[test]
    fn memory_budget_enforced() {
        let b = Budget::new(None, 1000, u64::MAX);
        assert!(b.alloc(600, 10).is_ok());
        let err = b.alloc(600, 10).unwrap_err();
        assert!(matches!(err, Error::OutOfMemory { .. }));
        b.free(600);
        assert!(b.alloc(600, 10).is_ok());
    }

    #[test]
    fn cell_limit_enforced() {
        let b = Budget::new(None, u64::MAX, (1 << 31) - 1);
        assert!(b.alloc(8, 1 << 30).is_ok());
        assert!(b.alloc(8, 1 << 31).is_err());
    }

    #[test]
    fn mem_used_tracks_allocs_and_frees() {
        let b = Budget::new(None, 10_000, u64::MAX);
        b.alloc(4000, 1).unwrap();
        b.alloc(3000, 1).unwrap();
        b.free(5000);
        b.alloc(1000, 1).unwrap();
        assert_eq!(b.mem_used(), 3000);
    }

    #[test]
    fn alloc_guard_frees_on_drop() {
        let b = Budget::new(None, 1000, u64::MAX);
        {
            let _g = AllocGuard::claim(&b, 900, 1).unwrap();
            assert_eq!(b.mem_used(), 900);
            assert!(AllocGuard::claim(&b, 900, 1).is_err());
        }
        assert_eq!(b.mem_used(), 0);
        assert!(AllocGuard::claim(&b, 900, 1).is_ok());
    }

    #[test]
    fn budget_shared_across_clones() {
        let b = Budget::new(None, 100, u64::MAX);
        let b2 = b.clone();
        b.alloc(80, 1).unwrap();
        assert!(b2.alloc(80, 1).is_err());
    }
}
