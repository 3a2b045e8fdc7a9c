//! Budget-charged artifact cache.
//!
//! GenBase's resident server answers the same cells over and over, and
//! several of a dataset's cells share one expensive intermediate: the hash
//! join of the microarray triples against a filtered id list, landed as
//! columns. This module memoizes such *results* across queries. Only an
//! artifact whose hit beats its recompute belongs here: a dense pivot or a
//! chunked ingest is one O(cells) scatter, which cloning the same bytes out
//! of a cache cannot beat, so neither is cached.
//!
//! - Entries are immutable [`CacheValue`]s shared as `Arc`s; a hit clones
//!   the payload out, so cached state is never mutated by a query.
//! - Every entry's heap bytes are charged against the cache's own
//!   [`MemTracker`] (the server's `--cache-budget`); inserting past the
//!   budget evicts least-recently-used entries, and an entry that cannot
//!   fit even after evicting everything unpinned is simply not cached.
//! - A [`CachePin`] (RAII) marks an entry as in use by a live query;
//!   pinned entries are skipped by eviction.
//! - Lookups are single-flight: concurrent queries missing on the same key
//!   block until the first builder fills (or abandons) the slot, so a cold
//!   artifact is computed exactly once.
//!
//! The identity contract: a cache hit must leave every accounting surface —
//! `bytes_in`/`bytes_out`/`rows`/`peak_alloc` notes on the run's tracker,
//! simulated-machine [`genbase_util::Budget`] charges — exactly as a cold
//! run would, so served responses stay byte-identical warm vs cold. The one
//! production user (the SQL engines' memoized triple join) replays that
//! accounting on the hit path and skips only the compute.

use crate::tracker::MemTracker;
use genbase_linalg::Matrix;
use genbase_relational::ColumnTable;
use std::collections::{HashMap, HashSet};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard};

/// One memoized result. Payloads are the storage layer's own
/// representations so a hit can clone straight into the shapes the cold
/// kernels produce.
#[derive(Debug, Clone)]
pub enum CacheValue {
    /// A columnar table. A hit clones it into the run through
    /// [`crate::columnar_from_column_table`], which charges the run's
    /// tracker and notes the output exactly as the cold path does.
    Columnar(ColumnTable),
    /// A dense matrix. No engine caches one (see the module docs); the
    /// repo benchmark's `storage.cache.*` rungs fill and hit this variant.
    Dense(Matrix),
}

impl CacheValue {
    /// Heap bytes this value holds resident — what its slot charges
    /// against the cache budget.
    pub fn heap_bytes(&self) -> u64 {
        match self {
            CacheValue::Columnar(table) => table.heap_bytes(),
            CacheValue::Dense(mat) => mat.heap_bytes(),
        }
    }

    /// The columnar payload, if this is a [`CacheValue::Columnar`].
    pub fn as_columnar(&self) -> Option<&ColumnTable> {
        match self {
            CacheValue::Columnar(table) => Some(table),
            CacheValue::Dense(_) => None,
        }
    }
}

/// One resident entry.
#[derive(Debug)]
struct Slot {
    value: Arc<CacheValue>,
    bytes: u64,
    /// Live [`CachePin`]s; eviction skips pinned slots.
    pins: u64,
    /// LRU clock value at last use.
    last_used: u64,
}

#[derive(Debug, Default)]
struct CacheState {
    slots: HashMap<String, Slot>,
    /// Keys currently being computed by some query (single-flight).
    building: HashSet<String>,
    /// Monotonic LRU clock.
    tick: u64,
}

/// The shared, budget-charged conversion-artifact cache.
#[derive(Debug)]
pub struct ArtifactCache {
    state: Mutex<CacheState>,
    built: Condvar,
    /// Dedicated tracker: entry bytes charge here, never against a query's
    /// own run tracker (hits must not perturb per-cell accounting).
    tracker: MemTracker,
    hits: AtomicU64,
    misses: AtomicU64,
    evictions: AtomicU64,
}

/// Outcome of [`ArtifactCache::begin`].
pub enum Lookup {
    /// The artifact is resident: the shared value plus a pin that protects
    /// it from eviction while the query uses it.
    Hit(Arc<CacheValue>, CachePin),
    /// The artifact must be computed; fill (or drop) the slot when done.
    Build(BuildSlot),
}

impl ArtifactCache {
    /// A cache charging entries against `budget` bytes.
    pub fn new(budget: u64) -> Arc<ArtifactCache> {
        Arc::new(ArtifactCache {
            state: Mutex::new(CacheState::default()),
            built: Condvar::new(),
            tracker: MemTracker::new(Some(budget)),
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            evictions: AtomicU64::new(0),
        })
    }

    fn lock(&self) -> MutexGuard<'_, CacheState> {
        genbase_util::lock(&self.state)
    }

    /// Look up `key`, blocking while another query is computing it. A miss
    /// returns a [`BuildSlot`] the caller must fill with the computed value
    /// (dropping it unfilled wakes the waiters to compute for themselves).
    pub fn begin(self: &Arc<Self>, key: &str) -> Lookup {
        let mut state = self.lock();
        loop {
            if state.slots.contains_key(key) {
                state.tick += 1;
                let tick = state.tick;
                let slot = state.slots.get_mut(key).expect("checked");
                slot.last_used = tick;
                slot.pins += 1;
                self.hits.fetch_add(1, Ordering::Relaxed);
                return Lookup::Hit(
                    Arc::clone(&slot.value),
                    CachePin {
                        cache: Arc::clone(self),
                        key: key.to_string(),
                    },
                );
            }
            if state.building.contains(key) {
                state = self.built.wait(state).unwrap_or_else(|e| e.into_inner());
                continue;
            }
            state.building.insert(key.to_string());
            self.misses.fetch_add(1, Ordering::Relaxed);
            return Lookup::Build(BuildSlot {
                cache: Arc::clone(self),
                key: key.to_string(),
                open: true,
            });
        }
    }

    /// Cache hits since construction.
    pub fn hit_count(&self) -> u64 {
        self.hits.load(Ordering::Relaxed)
    }

    /// Cache misses since construction.
    pub fn miss_count(&self) -> u64 {
        self.misses.load(Ordering::Relaxed)
    }

    /// Entries evicted under budget pressure since construction.
    pub fn eviction_count(&self) -> u64 {
        self.evictions.load(Ordering::Relaxed)
    }

    /// Bytes currently resident across all entries.
    pub fn bytes(&self) -> u64 {
        self.tracker.current()
    }

    /// The configured `--cache-budget` in bytes.
    pub fn budget(&self) -> u64 {
        self.tracker.limit()
    }

    /// Number of resident entries.
    pub fn entries(&self) -> usize {
        self.lock().slots.len()
    }

    /// Bytes resident under keys starting with `prefix` — the admission
    /// controller subtracts this from a request's working-set estimate,
    /// since cached artifacts will not be rebuilt by the run.
    pub fn bytes_under_prefix(&self, prefix: &str) -> u64 {
        self.lock()
            .slots
            .iter()
            .filter(|(k, _)| k.starts_with(prefix))
            .map(|(_, s)| s.bytes)
            .sum()
    }
}

/// RAII in-use mark on a cache entry: eviction skips the entry while any
/// pin is live. Dropping the pin releases it.
#[derive(Debug)]
pub struct CachePin {
    cache: Arc<ArtifactCache>,
    key: String,
}

impl Drop for CachePin {
    fn drop(&mut self) {
        let mut state = self.cache.lock();
        if let Some(slot) = state.slots.get_mut(&self.key) {
            slot.pins = slot.pins.saturating_sub(1);
        }
    }
}

/// The single-flight build claim handed to the one query computing a cold
/// key. [`BuildSlot::fill`] publishes the value; dropping the slot unfilled
/// (builder failed) releases the claim so waiters retry.
pub struct BuildSlot {
    cache: Arc<ArtifactCache>,
    key: String,
    open: bool,
}

impl BuildSlot {
    /// Publish the computed value, charging its bytes against the cache
    /// budget and evicting least-recently-used unpinned entries to make
    /// room. Returns the shared value and a pin, or `None` when the value
    /// cannot fit even after evicting everything unpinned (the artifact is
    /// then simply not cached — never an error).
    pub fn fill(mut self, value: CacheValue) -> Option<(Arc<CacheValue>, CachePin)> {
        self.open = false;
        let bytes = value.heap_bytes();
        let mut state = self.cache.lock();
        while self.cache.tracker.charge(bytes).is_err() {
            let victim = state
                .slots
                .iter()
                .filter(|(_, s)| s.pins == 0)
                .min_by_key(|(_, s)| s.last_used)
                .map(|(k, _)| k.clone());
            match victim {
                Some(k) => {
                    let evicted = state.slots.remove(&k).expect("victim resident");
                    self.cache.tracker.release(evicted.bytes);
                    self.cache.evictions.fetch_add(1, Ordering::Relaxed);
                }
                None => {
                    state.building.remove(&self.key);
                    self.cache.built.notify_all();
                    return None;
                }
            }
        }
        state.tick += 1;
        let tick = state.tick;
        let value = Arc::new(value);
        state.slots.insert(
            self.key.clone(),
            Slot {
                value: Arc::clone(&value),
                bytes,
                pins: 1,
                last_used: tick,
            },
        );
        state.building.remove(&self.key);
        self.cache.built.notify_all();
        Some((
            value,
            CachePin {
                cache: Arc::clone(&self.cache),
                key: self.key.clone(),
            },
        ))
    }
}

impl Drop for BuildSlot {
    fn drop(&mut self) {
        if self.open {
            let mut state = self.cache.lock();
            state.building.remove(&self.key);
            self.cache.built.notify_all();
        }
    }
}

/// A query's handle on the shared cache: the cache plus the key prefix
/// pinning the configuration fingerprint. Two servers (or two harness
/// configurations) with different fingerprints sharing one cache can never
/// observe each other's artifacts — the prefix makes their keyspaces
/// disjoint, which is the fingerprint-mismatch bypass.
#[derive(Debug, Clone)]
pub struct CacheScope {
    cache: Arc<ArtifactCache>,
    prefix: String,
}

impl CacheScope {
    /// Scope `cache` under `prefix` (the config fingerprint).
    pub fn new(cache: Arc<ArtifactCache>, prefix: impl Into<String>) -> CacheScope {
        CacheScope {
            cache,
            prefix: prefix.into(),
        }
    }

    /// The underlying shared cache.
    pub fn cache(&self) -> &Arc<ArtifactCache> {
        &self.cache
    }

    /// The scope's key prefix.
    pub fn prefix(&self) -> &str {
        &self.prefix
    }

    /// Full cache key for a conversion artifact: fingerprint, dataset dims
    /// (`patients x genes`), the conversion kernel's name, and a
    /// kernel-specific argument digest.
    pub fn key(&self, patients: usize, genes: usize, conversion: &str, extra: &str) -> String {
        format!("{}|{patients}x{genes}|{conversion}|{extra}", self.prefix)
    }

    /// Prefix matching every artifact of one dataset size under this
    /// scope; see [`ArtifactCache::bytes_under_prefix`].
    pub fn size_prefix(&self, patients: usize, genes: usize) -> String {
        format!("{}|{patients}x{genes}|", self.prefix)
    }
}

/// FNV-1a digest of an id list — the cheap, deterministic argument
/// fingerprint conversion keys carry so two different filter selections
/// can never alias to one artifact.
pub fn digest_ids(ids: &[i64]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    h = h.wrapping_mul(0x100_0000_01b3) ^ (ids.len() as u64);
    for &id in ids {
        h ^= id as u64;
        h = h.wrapping_mul(0x100_0000_01b3);
    }
    h
}

#[cfg(test)]
mod tests {
    use super::*;

    fn dense_value(edge: usize, fill: f64) -> CacheValue {
        CacheValue::Dense(Matrix::from_fn(edge, edge, |_, _| fill))
    }

    fn first_cell(value: &CacheValue) -> f64 {
        match value {
            CacheValue::Dense(mat) => mat.get(0, 0),
            CacheValue::Columnar(_) => panic!("expected a dense value"),
        }
    }

    fn fill_key(cache: &Arc<ArtifactCache>, key: &str, value: CacheValue) -> Option<CachePin> {
        match cache.begin(key) {
            Lookup::Build(slot) => slot.fill(value).map(|(_, pin)| pin),
            Lookup::Hit(..) => panic!("{key} unexpectedly resident"),
        }
    }

    #[test]
    fn hit_returns_the_cached_value() {
        let cache = ArtifactCache::new(1 << 20);
        let pin = fill_key(&cache, "k", dense_value(4, 7.0)).expect("fits");
        drop(pin);
        match cache.begin("k") {
            Lookup::Hit(value, _pin) => {
                assert_eq!(first_cell(&value), 7.0);
            }
            Lookup::Build(_) => panic!("expected hit"),
        }
        assert_eq!(cache.hit_count(), 1);
        assert_eq!(cache.miss_count(), 1);
        assert_eq!(cache.bytes(), 4 * 4 * 8);
    }

    #[test]
    fn lru_eviction_under_a_tiny_budget() {
        // Budget fits exactly two 4x4 matrices (128 bytes each).
        let cache = ArtifactCache::new(256);
        drop(fill_key(&cache, "a", dense_value(4, 1.0)));
        drop(fill_key(&cache, "b", dense_value(4, 2.0)));
        // Touch "a" so "b" is the LRU victim.
        assert!(matches!(cache.begin("a"), Lookup::Hit(..)));
        drop(fill_key(&cache, "c", dense_value(4, 3.0)));
        assert_eq!(cache.eviction_count(), 1);
        assert!(matches!(cache.begin("a"), Lookup::Hit(..)), "a survives");
        assert!(matches!(cache.begin("c"), Lookup::Hit(..)), "c resident");
        match cache.begin("b") {
            Lookup::Build(_slot) => {} // evicted; dropped unfilled
            Lookup::Hit(..) => panic!("b should have been the LRU victim"),
        }
        assert!(cache.bytes() <= 256);
    }

    #[test]
    fn pinned_entries_survive_eviction_pressure() {
        let cache = ArtifactCache::new(256);
        let pin_a = fill_key(&cache, "a", dense_value(4, 1.0)).expect("fits");
        drop(fill_key(&cache, "b", dense_value(4, 2.0)));
        // "a" is older than "b" but pinned; pressure must evict "b".
        drop(fill_key(&cache, "c", dense_value(4, 3.0)));
        assert!(
            matches!(cache.begin("a"), Lookup::Hit(..)),
            "pinned survives"
        );
        match cache.begin("b") {
            Lookup::Build(_slot) => {}
            Lookup::Hit(..) => panic!("unpinned b should have been evicted"),
        }
        drop(pin_a);
        // A value bigger than everything unpinned can free is not cached.
        let pin_all: Vec<CachePin> = ["a", "c"]
            .iter()
            .filter_map(|k| match cache.begin(k) {
                Lookup::Hit(_, pin) => Some(pin),
                Lookup::Build(_) => None,
            })
            .collect();
        match cache.begin("huge") {
            Lookup::Build(slot) => assert!(
                slot.fill(dense_value(8, 4.0)).is_none(),
                "512B entry cannot fit a 256B budget with everything pinned"
            ),
            Lookup::Hit(..) => panic!("huge cannot be resident"),
        }
        drop(pin_all);
    }

    #[test]
    fn racing_builders_compute_a_cold_key_exactly_once() {
        let cache = ArtifactCache::new(1 << 20);
        let computes = Arc::new(AtomicU64::new(0));
        let mut handles = Vec::new();
        for _ in 0..8 {
            let cache = Arc::clone(&cache);
            let computes = Arc::clone(&computes);
            handles.push(std::thread::spawn(move || match cache.begin("shared") {
                Lookup::Hit(value, _pin) => first_cell(&value),
                Lookup::Build(slot) => {
                    computes.fetch_add(1, Ordering::Relaxed);
                    std::thread::sleep(std::time::Duration::from_millis(20));
                    let (value, _pin) = slot.fill(dense_value(4, 9.0)).expect("fits");
                    first_cell(&value)
                }
            }));
        }
        for h in handles {
            assert_eq!(h.join().unwrap(), 9.0);
        }
        assert_eq!(computes.load(Ordering::Relaxed), 1, "single-flight");
        assert_eq!(cache.miss_count(), 1);
        assert_eq!(cache.hit_count(), 7);
    }

    #[test]
    fn an_abandoned_build_wakes_waiters() {
        let cache = ArtifactCache::new(1 << 20);
        let slot = match cache.begin("k") {
            Lookup::Build(slot) => slot,
            Lookup::Hit(..) => panic!("cold"),
        };
        let waiter = {
            let cache = Arc::clone(&cache);
            std::thread::spawn(move || match cache.begin("k") {
                Lookup::Hit(..) => panic!("nothing was filled"),
                Lookup::Build(slot) => {
                    slot.fill(dense_value(4, 1.0)).expect("fits");
                }
            })
        };
        std::thread::sleep(std::time::Duration::from_millis(20));
        drop(slot); // builder failed; waiter takes over
        waiter.join().unwrap();
        assert!(matches!(cache.begin("k"), Lookup::Hit(..)));
    }

    #[test]
    fn prefix_accounting_and_scope_keys() {
        let cache = ArtifactCache::new(1 << 20);
        let scope = CacheScope::new(Arc::clone(&cache), "fp-a");
        let key = scope.key(240, 240, "join-genes", "x");
        assert_eq!(key, "fp-a|240x240|join-genes|x");
        drop(fill_key(&cache, &key, dense_value(4, 1.0)));
        drop(fill_key(
            &cache,
            &scope.key(720, 960, "join-genes", "x"),
            dense_value(4, 2.0),
        ));
        assert_eq!(cache.bytes_under_prefix(&scope.size_prefix(240, 240)), 128);
        assert_eq!(cache.bytes_under_prefix(&scope.size_prefix(720, 960)), 128);
        // A different fingerprint sees a disjoint keyspace (the
        // fingerprint-mismatch bypass).
        let other = CacheScope::new(Arc::clone(&cache), "fp-b");
        assert!(matches!(
            cache.begin(&other.key(240, 240, "join-genes", "x")),
            Lookup::Build(_)
        ));
        assert_eq!(cache.bytes_under_prefix(&other.size_prefix(240, 240)), 0);
    }

    #[test]
    fn id_digest_separates_selections() {
        assert_ne!(digest_ids(&[1, 2, 3]), digest_ids(&[1, 2, 4]));
        assert_ne!(digest_ids(&[1, 2, 3]), digest_ids(&[1, 2]));
        assert_eq!(digest_ids(&[1, 2, 3]), digest_ids(&[1, 2, 3]));
    }
}
