//! Shared, lazily-built dataset pool.
//!
//! The harness's cell scheduler runs many benchmark cells concurrently,
//! and several cells typically want the same dataset (same size class,
//! scale, seed). [`DatasetPool`] guarantees each configured size class is
//! generated **exactly once** no matter which cell asks first or how many
//! ask at the same time, and hands out reference-counted immutable handles
//! (`Arc<Dataset>`), so memory for a class is shared across every in-flight
//! cell. The pool itself keeps one reference per generated class, so a
//! class stays cached for the pool's lifetime (a sweep touches each class
//! repeatedly; regeneration would cost far more than the residency) and is
//! freed when the pool — in practice the `Harness`/`Scheduler` — drops.
//!
//! Generation is deterministic in `(scale, seed, class)`: the handle any
//! caller receives is bit-identical regardless of request order or thread
//! interleaving (pinned by `tests/property_tests.rs`).

use crate::generate::{generate, GeneratorConfig};
use crate::spec::{SizeClass, SizeSpec};
use crate::types::Dataset;
use genbase_util::{lock, Error, Result};
use std::collections::HashMap;
use std::sync::{Arc, Mutex, OnceLock};

/// Per-class slot: a `OnceLock` so the first requester generates while
/// concurrent requesters block on the same initialization, never
/// regenerating.
type Slot = Arc<OnceLock<std::result::Result<Arc<Dataset>, Error>>>;

/// Lazily-built, reference-counted cache of generated datasets keyed by
/// size class (for one `(scale, seed)` configuration).
pub struct DatasetPool {
    scale: f64,
    seed: u64,
    slots: Mutex<HashMap<SizeClass, Slot>>,
}

impl DatasetPool {
    /// Pool for datasets at `scale` (per-side factor vs paper sizes)
    /// generated from `seed`.
    pub fn new(scale: f64, seed: u64) -> DatasetPool {
        DatasetPool {
            scale,
            seed,
            slots: Mutex::new(HashMap::new()),
        }
    }

    /// The pool's per-side scale factor.
    pub fn scale(&self) -> f64 {
        self.scale
    }

    /// The pool's generator seed.
    pub fn seed(&self) -> u64 {
        self.seed
    }

    /// Fetch (generating on first use) the dataset for `class`. Concurrent
    /// callers for the same class share one generation; the returned handle
    /// is immutable and reference-counted.
    pub fn get(&self, class: SizeClass) -> Result<Arc<Dataset>> {
        let slot = {
            let mut slots = lock(&self.slots);
            Arc::clone(slots.entry(class).or_default())
        };
        // Outside the map lock: generating one class must not serialize
        // requests for other classes.
        let result = slot.get_or_init(|| {
            let spec = SizeSpec::scaled(class, self.scale);
            generate(&GeneratorConfig::new(spec).with_seed(self.seed)).map(Arc::new)
        });
        result.clone().map_err(|e| e.clone())
    }

    /// Size classes generated so far (sorted by paper order), without
    /// triggering generation.
    pub fn generated(&self) -> Vec<SizeClass> {
        let slots = lock(&self.slots);
        let mut out: Vec<SizeClass> = slots
            .iter()
            .filter(|(_, slot)| matches!(slot.get(), Some(Ok(_))))
            .map(|(&class, _)| class)
            .collect();
        out.sort_by_key(|c| c.paper_dims());
        out
    }

    /// Live external handles to `class` (0 if not generated). `Arc` strong
    /// count minus the pool's own reference — the "reference-counted"
    /// visibility the scheduler reports.
    pub fn handle_count(&self, class: SizeClass) -> usize {
        let slots = lock(&self.slots);
        slots
            .get(&class)
            .and_then(|slot| slot.get())
            .and_then(|r| r.as_ref().ok())
            .map(|arc| Arc::strong_count(arc).saturating_sub(1))
            .unwrap_or(0)
    }

    /// Test support: leave the slot-map lock poisoned, the way a thread that
    /// panicked while holding it would.
    #[doc(hidden)]
    pub fn poison_for_test(&self) {
        let holder = std::thread::scope(|s| {
            s.spawn(|| {
                let _guard = self.slots.lock();
                panic!("a thread died holding the dataset pool lock");
            })
            .join()
        });
        assert!(holder.is_err() && self.slots.is_poisoned());
    }
}

impl std::fmt::Debug for DatasetPool {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("DatasetPool")
            .field("scale", &self.scale)
            .field("seed", &self.seed)
            .field("generated", &self.generated())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn generates_once_and_shares_handles() {
        let pool = DatasetPool::new(0.004, 7);
        assert_eq!(pool.handle_count(SizeClass::Small), 0);
        let a = pool.get(SizeClass::Small).unwrap();
        let b = pool.get(SizeClass::Small).unwrap();
        assert!(Arc::ptr_eq(&a, &b), "same class must share one dataset");
        assert_eq!(pool.handle_count(SizeClass::Small), 2);
        drop(b);
        assert_eq!(pool.handle_count(SizeClass::Small), 1);
        assert_eq!(pool.generated(), vec![SizeClass::Small]);
    }

    #[test]
    fn concurrent_first_requests_share_one_generation() {
        let pool = DatasetPool::new(0.004, 9);
        let handles = genbase_util::parallel_map(8, 8, |_| pool.get(SizeClass::Small).unwrap());
        for h in &handles[1..] {
            assert!(Arc::ptr_eq(&handles[0], h));
        }
    }

    #[test]
    fn classes_are_independent() {
        let pool = DatasetPool::new(0.004, 7);
        let s = pool.get(SizeClass::Small).unwrap();
        let m = pool.get(SizeClass::Medium).unwrap();
        assert!(s.n_genes() < m.n_genes());
        assert_eq!(pool.generated(), vec![SizeClass::Small, SizeClass::Medium]);
    }

    #[test]
    fn matches_direct_generation_bitwise() {
        let pool = DatasetPool::new(0.004, 1234);
        let pooled = pool.get(SizeClass::Small).unwrap();
        let direct = generate(
            &GeneratorConfig::new(SizeSpec::scaled(SizeClass::Small, 0.004)).with_seed(1234),
        )
        .unwrap();
        assert_eq!(pooled.expression, direct.expression);
        assert_eq!(pooled.patients, direct.patients);
        assert_eq!(pooled.genes, direct.genes);
    }
}
