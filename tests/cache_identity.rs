//! Artifact-cache identity: attaching a `--cache-budget` cache to a
//! harness must never change a cell's outcome bytes. The cache holds one
//! kind of artifact — the SQL stores' materializing triple joins — and a
//! hit on one replays the cold join's accounting (inputs, outputs, budget
//! charges) and skips only the compute, so the warm run's
//! [`CellOutcome::to_json`] is byte-equal to the cold run's while the
//! cache's hit counter proves the replays actually happened. Everything
//! else — SciDB, vanilla R, Hadoop, every streaming cell — must not look
//! the cache up at all. Eviction, pinning and single-flight mechanics are
//! covered by the unit tests in `genbase_storage::cache`; this file covers
//! the end-to-end identity contract those mechanics must preserve.

use genbase::engine::StreamConfig;
use genbase::harness::HarnessConfig;
use genbase::sched::{CellKey, Scheduler};
use genbase::Query;
use genbase_datagen::SizeClass;
use genbase_storage::ArtifactCache;
use std::sync::Arc;

/// The engines lowered through `SqlStore`, i.e. the ones with a join to
/// memoize (two on the row store, two on the column store).
const SQL_ENGINES: [&str; 4] = [
    "Postgres + R",
    "Postgres + Madlib",
    "Column store + R",
    "Column store + UDFs",
];

/// Quick-scale SimOnly configuration, materializing or streaming.
fn sim_config(stream: bool) -> HarnessConfig {
    let mut config = HarnessConfig {
        threads: 2,
        ..HarnessConfig::quick()
    }
    .sim_only();
    config.stream = stream.then(|| StreamConfig {
        batch_rows: 64,
        ..StreamConfig::default()
    });
    config
}

fn scheduler(config: HarnessConfig, cache: Option<&Arc<ArtifactCache>>) -> Scheduler {
    let mut scheduler = Scheduler::new(config).expect("scheduler");
    if let Some(cache) = cache {
        scheduler
            .harness_mut()
            .set_artifact_cache(Arc::clone(cache));
    }
    scheduler
}

fn cell(engine: &str, query: Query) -> CellKey {
    CellKey {
        query,
        size: SizeClass::Small,
        nodes: 1,
        engine: engine.to_string(),
    }
}

/// Every single-node engine × query cell at the quick scale.
fn all_cells() -> Vec<CellKey> {
    let mut cells = Vec::new();
    for engine in genbase::engines::single_node_engines() {
        for query in Query::ALL {
            cells.push(cell(engine.name(), query));
        }
    }
    cells
}

/// Run every cell and render each outcome to its wire/grid JSON.
fn outcome_bytes(scheduler: &Scheduler, cells: &[CellKey]) -> Vec<String> {
    cells
        .iter()
        .map(|key| {
            scheduler
                .run_cell(key, 2)
                .unwrap_or_else(|e| panic!("cell {} failed: {e}", key.id()))
                .to_json()
                .render()
        })
        .collect()
}

fn assert_same_bytes(cells: &[CellKey], cold: &[String], got: &[String], pass: &str) {
    for ((key, cold), got) in cells.iter().zip(cold).zip(got) {
        assert_eq!(cold, got, "{pass} pass diverged on {}", key.id());
    }
}

fn lookups(cache: &ArtifactCache) -> u64 {
    cache.hit_count() + cache.miss_count()
}

#[test]
fn warm_cells_are_byte_identical_to_cold_cells_materializing() {
    let cells = all_cells();
    let cold_bytes = outcome_bytes(&scheduler(sim_config(false), None), &cells);

    let cache = ArtifactCache::new(256 << 20);
    let warm = scheduler(sim_config(false), Some(&cache));
    // First pass fills the cache, second pass replays from it; both must
    // be byte-identical to the cache-less run, cell by cell.
    let fill_bytes = outcome_bytes(&warm, &cells);
    let fills = cache.miss_count();
    let replay_bytes = outcome_bytes(&warm, &cells);
    assert_same_bytes(&cells, &cold_bytes, &fill_bytes, "fill");
    assert_same_bytes(&cells, &cold_bytes, &replay_bytes, "replay");
    assert!(
        fills > 0,
        "the fill pass should have run cold joins through the cache"
    );
    assert!(
        cache.hit_count() > 0,
        "the replay pass should have hit cached joins"
    );
    assert_eq!(
        cache.miss_count(),
        fills,
        "the replay pass must not re-fill entries the fill pass created"
    );
}

#[test]
fn engines_without_a_join_and_streaming_cells_perform_zero_lookups() {
    // Materializing: only the SQL stores have a join to memoize.
    // Streaming: joins are staged as filters, so nobody does.
    let no_join: Vec<CellKey> = all_cells()
        .into_iter()
        .filter(|key| !SQL_ENGINES.contains(&key.engine.as_str()))
        .collect();
    assert!(no_join.iter().any(|key| key.engine == "SciDB"));
    assert!(no_join.iter().any(|key| key.engine == "Vanilla R"));
    for (stream, cells) in [(false, no_join), (true, all_cells())] {
        let cold_bytes = outcome_bytes(&scheduler(sim_config(stream), None), &cells);
        let cache = ArtifactCache::new(256 << 20);
        let cached = scheduler(sim_config(stream), Some(&cache));
        for pass in ["first", "second"] {
            let bytes = outcome_bytes(&cached, &cells);
            assert_same_bytes(&cells, &cold_bytes, &bytes, pass);
        }
        assert_eq!(
            (lookups(&cache), cache.entries()),
            (0, 0),
            "stream = {stream}: these cells must never touch the cache"
        );
    }
}

#[test]
fn a_config_fingerprint_mismatch_bypasses_cached_artifacts() {
    // One shared cache, two configurations (a set `--mem-budget` changes
    // the fingerprint): the second scheduler must not replay the first's
    // artifacts — its keys live under a different prefix.
    let cache = ArtifactCache::new(256 << 20);
    let a = scheduler(sim_config(false), Some(&cache));
    let cell = cell("Postgres + R", Query::Covariance);
    a.run_cell(&cell, 2).expect("cold fill run");
    let hits_before = cache.hit_count();
    let misses_before = cache.miss_count();
    assert!(
        misses_before > 0,
        "run under config A should fill the cache"
    );

    let config_b = HarnessConfig {
        mem_budget: Some(1 << 30),
        ..sim_config(false)
    };
    let b = scheduler(config_b.clone(), Some(&cache));
    let b_cold = scheduler(config_b, None);
    let from_shared_cache = b.run_cell(&cell, 2).expect("mismatched-config run");
    let cold = b_cold.run_cell(&cell, 2).expect("cache-less run");
    assert_eq!(
        from_shared_cache.to_json().render(),
        cold.to_json().render(),
        "a bypassed cache must leave the outcome untouched"
    );
    assert_eq!(
        cache.hit_count(),
        hits_before,
        "config B must not hit config A's artifacts"
    );
    assert!(
        cache.miss_count() > misses_before,
        "config B's joins are cold under its own fingerprint"
    );
}

#[test]
fn regression_and_svd_share_the_gene_filtered_join_on_every_sql_store() {
    let cold = scheduler(sim_config(false), None);
    for engine in SQL_ENGINES {
        let cells = [cell(engine, Query::Regression), cell(engine, Query::Svd)];
        let cold_bytes = outcome_bytes(&cold, &cells);

        let cache = ArtifactCache::new(256 << 20);
        let s = scheduler(sim_config(false), Some(&cache));
        let regression = outcome_bytes(&s, &cells[..1]);
        assert_eq!((cache.hit_count(), cache.miss_count()), (0, 1), "{engine}");
        let svd = outcome_bytes(&s, &cells[1..]);
        assert_eq!(
            (cache.hit_count(), cache.miss_count()),
            (1, 1),
            "{engine}: svd should reuse regression's join"
        );
        assert_eq!(cold_bytes, [regression, svd].concat(), "{engine}");
    }
}

#[test]
fn half_the_join_working_set_evicts_and_stays_byte_identical() {
    let cells: Vec<CellKey> = all_cells()
        .into_iter()
        .filter(|key| SQL_ENGINES.contains(&key.engine.as_str()))
        .collect();
    let cold_bytes = outcome_bytes(&scheduler(sim_config(false), None), &cells);

    // Size the working set: everything the cells cache, nothing evicted.
    let roomy = ArtifactCache::new(256 << 20);
    outcome_bytes(&scheduler(sim_config(false), Some(&roomy)), &cells);
    assert_eq!(roomy.eviction_count(), 0);
    let working_set = roomy.bytes();
    assert!(working_set > 0);

    let tight = ArtifactCache::new(working_set / 2);
    let s = scheduler(sim_config(false), Some(&tight));
    for pass in ["first", "second"] {
        let bytes = outcome_bytes(&s, &cells);
        assert_same_bytes(&cells, &cold_bytes, &bytes, pass);
    }
    assert!(
        tight.eviction_count() > 0,
        "half the working set must evict"
    );
    assert!(tight.bytes() <= working_set / 2);
}
