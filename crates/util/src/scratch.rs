//! Pooled scratch buffers for transient kernel workspace.
//!
//! Kernels like `at_mul` need a large temporary (`Aᵀ` packed for the
//! multiply) on every call; allocating and zeroing it each time showed up in
//! the perf trajectory (ROADMAP: "the per-call `at_mul` transpose could
//! reuse a pooled buffer"). [`take`] leases a buffer from a process-wide
//! pool and the [`Scratch`] guard returns it on drop, so steady-state
//! harness sweeps reuse the same handful of allocations no matter how many
//! cells run.
//!
//! **Contents are unspecified** on lease: callers must overwrite every
//! element they read (all current users fully overwrite the buffer).

use std::sync::{Mutex, OnceLock};

/// Maximum buffers retained in the pool; excess simply deallocates.
const POOL_CAP: usize = 8;

/// Maximum total `f64`s retained across pooled buffers (32 M ⇒ 256 MiB).
/// Returning a buffer that would push the pool past this cap deallocates
/// it instead, so one paper-scale sweep cannot pin gigabytes of dead
/// workspace for the rest of the process.
const POOL_ELEM_CAP: usize = 32 << 20;

fn pool() -> &'static Mutex<Vec<Vec<f64>>> {
    static POOL: OnceLock<Mutex<Vec<Vec<f64>>>> = OnceLock::new();
    POOL.get_or_init(|| Mutex::new(Vec::new()))
}

/// A leased `f64` buffer; dereferences to `[f64]` and returns itself to the
/// pool when dropped.
pub struct Scratch {
    buf: Vec<f64>,
}

impl std::ops::Deref for Scratch {
    type Target = [f64];
    fn deref(&self) -> &[f64] {
        &self.buf
    }
}

impl std::ops::DerefMut for Scratch {
    fn deref_mut(&mut self) -> &mut [f64] {
        &mut self.buf
    }
}

impl Drop for Scratch {
    fn drop(&mut self) {
        let mut buffers = crate::lock(pool());
        let pooled: usize = buffers.iter().map(Vec::capacity).sum();
        if buffers.len() < POOL_CAP && pooled + self.buf.capacity() <= POOL_ELEM_CAP {
            buffers.push(std::mem::take(&mut self.buf));
        }
    }
}

/// Lease a buffer of exactly `len` elements with **unspecified contents**.
/// Prefers the smallest pooled buffer whose capacity already fits `len`.
pub fn take(len: usize) -> Scratch {
    let reused = {
        let mut buffers = crate::lock(pool());
        let best = buffers
            .iter()
            .enumerate()
            .filter(|(_, b)| b.capacity() >= len)
            .min_by_key(|(_, b)| b.capacity())
            .map(|(i, _)| i);
        match best {
            Some(i) => Some(buffers.swap_remove(i)),
            // No fitting buffer: reclaim one slot anyway so repeated
            // monotonically-growing leases don't strand POOL_CAP small
            // buffers forever.
            None => {
                if buffers.len() >= POOL_CAP {
                    buffers.pop();
                }
                None
            }
        }
    };
    let mut buf = reused.unwrap_or_default();
    // Within capacity this is O(1): previous contents (initialized f64s)
    // stay in place and only the length changes.
    if buf.capacity() >= len {
        buf.resize(len, 0.0);
    } else {
        buf = vec![0.0; len];
    }
    Scratch { buf }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sequential_leases_reuse_the_allocation() {
        // Warm the pool with a distinctive capacity.
        let ptr = {
            let mut s = take(4096);
            s[0] = 1.0;
            s.as_ptr()
        };
        let s2 = take(4096);
        assert_eq!(s2.len(), 4096);
        assert_eq!(s2.as_ptr(), ptr, "buffer must be recycled");
    }

    #[test]
    fn smaller_lease_fits_in_recycled_buffer() {
        drop(take(1 << 16));
        let s = take(100);
        assert_eq!(s.len(), 100);
        assert!(s.capacity() >= 100);
    }

    #[test]
    fn zero_len_lease_is_fine() {
        let s = take(0);
        assert!(s.is_empty());
    }

    #[test]
    fn oversized_buffers_are_not_retained() {
        // A buffer past the byte cap must deallocate on drop, not pool.
        drop(take(POOL_ELEM_CAP + 1));
        // Drain the pool: if the huge buffer had been pooled, one of these
        // leases would reuse it (smallest-fitting still finds it once the
        // smaller pooled buffers are taken).
        let drained: Vec<Scratch> = (0..POOL_CAP).map(|_| take(100)).collect();
        for s in &drained {
            assert!(
                s.capacity() <= POOL_ELEM_CAP,
                "oversized buffer was retained in the pool"
            );
        }
    }

    #[test]
    fn concurrent_leases_are_distinct() {
        let bufs: Vec<Scratch> = (0..4).map(|_| take(128)).collect();
        let mut ptrs: Vec<*const f64> = bufs.iter().map(|b| b.as_ptr()).collect();
        ptrs.sort();
        ptrs.dedup();
        assert_eq!(ptrs.len(), 4, "live leases must never alias");
    }

    impl Scratch {
        fn capacity(&self) -> usize {
            self.buf.capacity()
        }
    }
}
