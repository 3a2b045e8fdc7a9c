//! Loaded tables: a harness loads each dataset's SQL base tables once per
//! store kind, spools its triples once for the streaming cells' reels,
//! chunks it once for SciDB and lays out Hadoop's Hive triple table once,
//! and every cell of that dataset borrows them — a multi-node cell's nodes
//! each reading their own patient band.
//! Sharing must be invisible in a cell's bytes — every cell is still
//! charged what it reads — and visible only in how often the loader runs:
//! once, however many cells ask, from however many threads. The tables (and
//! the spool file) live and die with the harness, and a set loaded from one
//! dataset refuses to serve another.

use genbase::engine::StreamConfig;
use genbase::engines::{loaded::LoadedTables, sql_common::StoreKind};
use genbase::prelude::*;
use genbase_datagen::{generate, GeneratorConfig, SizeClass, SizeSpec};
use std::sync::{Arc, Barrier};

/// The engines lowered through `SqlStore`, with the store each loads.
const SQL_ENGINES: [(&str, StoreKind); 4] = [
    ("Postgres + R", StoreKind::Row),
    ("Postgres + Madlib", StoreKind::Row),
    ("Column store + R", StoreKind::Column),
    ("Column store + UDFs", StoreKind::Column),
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

fn sql_engines() -> Vec<Box<dyn Engine>> {
    engines::single_node_engines()
        .into_iter()
        .filter(|e| SQL_ENGINES.iter().any(|(name, _)| *name == e.name()))
        .collect()
}

/// The engines lowered onto the shared chunked arrays.
fn array_engines() -> [Box<dyn Engine>; 2] {
    [
        Box::new(engines::SciDb::new()),
        Box::new(engines::SciDbPhi::new()),
    ]
}

/// The engines whose multi-node nodes each read a patient band of a loaded
/// table, with the bytes a node is charged per band cell.
fn band_engines() -> [(Box<dyn Engine>, u64); 4] {
    [
        (Box::new(engines::Pbdr::new()), 8),
        (Box::new(engines::ColumnPbdr::new()), 24),
        (Box::new(engines::ColumnUdf::new()), 24),
        (Box::new(engines::SciDb::new()), 8),
    ]
}

/// The 60x60 Small dataset's triples, spooled.
const SPOOL_BYTES: u64 = 60 * 60 * 3 * 8;

/// The 60x60 Small dataset's triples as a Hive table: 16 bytes a field.
const HIVE_BYTES: u64 = 60 * 60 * 3 * 16;

/// A cell's grid bytes and its tracker peak (`None` unless it completed).
fn cell_bytes(harness: &Harness, engine: &dyn Engine, query: Query) -> (String, Option<u64>) {
    cell_bytes_at(harness, engine, query, 1)
}

/// [`cell_bytes`] on `nodes` simulated nodes.
fn cell_bytes_at(
    harness: &Harness,
    engine: &dyn Engine,
    query: Query,
    nodes: usize,
) -> (String, Option<u64>) {
    let record = harness
        .run_cell(engine, query, SizeClass::Small, nodes)
        .unwrap_or_else(|e| panic!("{}/{query:?}: {e}", engine.name()));
    let peak = record.outcome.report().map(|r| r.memory().peak_alloc_bytes);
    (
        CellOutcome::from_run(&record.outcome).to_json().render(),
        peak,
    )
}

#[test]
fn warm_tables_change_no_byte_of_any_sql_cell() {
    for stream in [false, true] {
        let shared = Harness::new(sim_config(stream)).unwrap();
        let engines = sql_engines();
        assert_eq!(engines.len(), SQL_ENGINES.len());
        for engine in &engines {
            for query in Query::ALL {
                let first = cell_bytes(&shared, engine.as_ref(), query);
                // Second run of the cell: whatever it reads is loaded by now.
                let warm = cell_bytes(&shared, engine.as_ref(), query);
                let fresh = Harness::new(sim_config(stream)).unwrap();
                let cold = cell_bytes(&fresh, engine.as_ref(), query);
                let cell = format!("{}/{query:?} stream={stream}", engine.name());
                assert_eq!(cold, first, "{cell}: first run on the shared harness");
                assert_eq!(cold, warm, "{cell}: warm run on the shared harness");
                if engine.supports(query) {
                    assert!(cold.1.is_some(), "{cell} did not complete");
                }
            }
        }
        // Twenty cells, twice each, loaded each store kind once — and,
        // streaming, spooled the triples once.
        let loads = if stream { 3 } else { 2 };
        assert_eq!(shared.loaded_tables_stats().1, loads, "stream={stream}");
        let spooled = if stream { SPOOL_BYTES } else { 0 };
        assert_eq!(shared.loaded_spool_bytes(), spooled, "stream={stream}");
    }
}

#[test]
fn warm_arrays_change_no_byte_of_any_scidb_cell() {
    let shared = Harness::new(sim_config(false)).unwrap();
    for engine in array_engines() {
        for query in Query::ALL {
            let first = cell_bytes(&shared, engine.as_ref(), query);
            let warm = cell_bytes(&shared, engine.as_ref(), query);
            let fresh = Harness::new(sim_config(false)).unwrap();
            let cold = cell_bytes(&fresh, engine.as_ref(), query);
            let cell = format!("{}/{query:?}", engine.name());
            assert_eq!(cold, first, "{cell}: first run on the shared harness");
            assert_eq!(cold, warm, "{cell}: warm run on the shared harness");
            assert_eq!(cold.1.is_some(), engine.supports(query), "{cell}");
        }
    }
    // Ten cells (nine supported), twice each, chunked the dataset once.
    assert_eq!(shared.loaded_tables_stats(), (60 * 60 * 8, 1));
}

#[test]
fn warm_hive_triples_change_no_byte_of_any_hadoop_cell() {
    let shared = Harness::new(sim_config(false)).unwrap();
    let engine = engines::Hadoop::new();
    for nodes in [1, 4] {
        for query in Query::ALL {
            let first = cell_bytes_at(&shared, &engine, query, nodes);
            let warm = cell_bytes_at(&shared, &engine, query, nodes);
            let fresh = Harness::new(sim_config(false)).unwrap();
            let cold = cell_bytes_at(&fresh, &engine, query, nodes);
            let cell = format!("Hadoop/{query:?} n{nodes}");
            assert_eq!(cold, first, "{cell}: first run on the shared harness");
            assert_eq!(cold, warm, "{cell}: warm run on the shared harness");
            assert_eq!(cold.1.is_some(), engine.supports(query), "{cell}");
        }
    }
    // Twenty cells (twelve supported), twice each, at two node counts: one
    // Hive table, resident at its modelled size.
    assert_eq!(shared.loaded_tables_stats(), (HIVE_BYTES, 1));
}

#[test]
fn warm_tables_change_no_byte_of_any_multi_node_cell() {
    let shared = Harness::new(sim_config(false)).unwrap();
    for (engine, _) in band_engines() {
        for nodes in [2, 4] {
            for query in Query::ALL {
                let first = cell_bytes_at(&shared, engine.as_ref(), query, nodes);
                let warm = cell_bytes_at(&shared, engine.as_ref(), query, nodes);
                let fresh = Harness::new(sim_config(false)).unwrap();
                let cold = cell_bytes_at(&fresh, engine.as_ref(), query, nodes);
                let cell = format!("{}/{query:?} n{nodes}", engine.name());
                assert_eq!(cold, first, "{cell}: first run on the shared harness");
                assert_eq!(cold, warm, "{cell}: warm run on the shared harness");
                assert!(cold.1.is_some(), "{cell} did not complete");
            }
        }
    }
    // Forty cells, twice each: the column flavors' nodes read one column
    // store (with its triples), SciDB's one array set, pbdR's the dataset.
    assert_eq!(shared.loaded_tables_stats().1, 2);
}

#[test]
fn a_budget_below_a_node_band_refuses_every_attempt_alike() {
    let mut config = sim_config(false);
    config.mem_budget = Some(1024);
    let harness = Harness::new(config).unwrap();
    for (engine, per_cell) in band_engines() {
        // The refusal is the charge of a node's 30-patient band against the
        // node's own tracker, exactly as when each node built a private copy.
        let expected = genbase_util::Error::OutOfMemory {
            requested: 30 * 60 * per_cell,
            budget: 1024,
        }
        .to_string();
        for query in Query::ALL {
            for attempt in ["cold", "warm"] {
                let outcome = harness
                    .run_cell(engine.as_ref(), query, SizeClass::Small, 2)
                    .unwrap()
                    .outcome;
                match outcome {
                    RunOutcome::Infinite { reason } => {
                        assert_eq!(reason, expected, "{}/{query:?} {attempt}", engine.name())
                    }
                    other => panic!("expected an infinite outcome, got {other:?}"),
                }
            }
        }
    }
    // The refused cells still loaded the column store and the arrays, once.
    assert_eq!(harness.loaded_tables_stats().1, 2);
}

/// A budget that admits a node's band but refuses one node's later step is
/// that node's refusal, not its peers' hang-up on it: every multi-node cell
/// completes or renders infinite, at every node count.
#[test]
fn a_refusal_on_one_node_is_the_cells_outcome_not_its_peers_hang_up() {
    let mut config = sim_config(false);
    config.mem_budget = Some(15_000);
    let harness = Harness::new(config).unwrap();
    let mut refused_on_two_nodes = 0;
    for engine in engines::multi_node_engines() {
        for nodes in [1, 2, 4] {
            for query in Query::ALL {
                let cell = format!("{}/{query:?} n{nodes}", engine.name());
                let record = harness
                    .run_cell(engine.as_ref(), query, SizeClass::Small, nodes)
                    .unwrap_or_else(|e| panic!("{cell}: {e}"));
                if let RunOutcome::Infinite { reason } = record.outcome {
                    assert!(
                        reason.starts_with("memory allocation failure"),
                        "{cell}: {reason}"
                    );
                    refused_on_two_nodes += usize::from(nodes == 2);
                }
            }
        }
    }
    assert!(refused_on_two_nodes > 0);
}

#[test]
fn concurrent_hadoop_cells_lay_out_the_hive_triples_once() {
    let harness = Harness::new(sim_config(false)).unwrap();
    let data = harness.dataset(SizeClass::Small).unwrap();
    let queries = [Query::Regression, Query::Covariance, Query::Statistics];
    let start = Barrier::new(6);
    let tables: Vec<Arc<_>> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..6)
            .map(|i| {
                let (harness, data, start) = (&harness, &data, &start);
                s.spawn(move || {
                    start.wait();
                    let record = harness
                        .run_cell(&engines::Hadoop::new(), queries[i % 3], SizeClass::Small, 1)
                        .unwrap();
                    assert!(record.outcome.report().is_some());
                    harness
                        .loaded_tables(SizeClass::Small)
                        .hive_triples(data)
                        .unwrap()
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().unwrap()).collect()
    });
    for table in &tables {
        assert!(Arc::ptr_eq(table, &tables[0]), "Hive triples copied");
    }
    assert_eq!((tables[0].len(), tables[0].width()), (60 * 60, 3));
    assert_eq!(
        harness.loaded_tables_stats(),
        (HIVE_BYTES, 1),
        "one Hive table for six cells"
    );
    let weak = Arc::downgrade(&tables[0]);
    drop(tables);
    assert!(weak.upgrade().is_some(), "the harness keeps its Hive table");
    drop(harness);
    assert!(
        weak.upgrade().is_none(),
        "the Hive table outlived its harness"
    );
}

#[test]
fn a_budget_below_the_hive_split_refuses_every_attempt_alike() {
    let mut config = sim_config(false);
    config.mem_budget = Some(1024);
    let harness = Harness::new(config).unwrap();
    // The refusal is the charge of the resident split against the cell's
    // own tracker, exactly as when each cell built a private table.
    let expected = genbase_util::Error::OutOfMemory {
        requested: HIVE_BYTES,
        budget: 1024,
    }
    .to_string();
    for query in [Query::Regression, Query::Covariance, Query::Statistics] {
        for attempt in ["cold", "warm"] {
            let outcome = harness
                .run_cell(&engines::Hadoop::new(), query, SizeClass::Small, 1)
                .unwrap()
                .outcome;
            match outcome {
                RunOutcome::Infinite { reason } => {
                    assert_eq!(reason, expected, "{query:?} {attempt}")
                }
                other => panic!("expected an infinite outcome, got {other:?}"),
            }
        }
    }
    // The refused cells still laid the table out, once.
    assert_eq!(harness.loaded_tables_stats().1, 1);
}

#[test]
fn concurrent_cells_of_one_dataset_load_each_kind_once() {
    let harness = Harness::new(sim_config(false)).unwrap();
    let data = harness.dataset(SizeClass::Small).unwrap();
    let engines = sql_engines();
    // All eight cells reach the unloaded tables together.
    let start = Barrier::new(8);
    let stores: Vec<(StoreKind, Arc<_>)> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..8)
            .map(|i| {
                let (harness, data, engines, start) = (&harness, &data, &engines, &start);
                s.spawn(move || {
                    let engine = &engines[i % engines.len()];
                    let kind = SQL_ENGINES
                        .iter()
                        .find(|(name, _)| *name == engine.name())
                        .unwrap()
                        .1;
                    start.wait();
                    let record = harness
                        .run_cell(engine.as_ref(), Query::Regression, SizeClass::Small, 1)
                        .unwrap();
                    assert!(record.outcome.report().is_some());
                    let tables = harness.loaded_tables(SizeClass::Small);
                    (kind, tables.store(kind, true, data).unwrap())
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().unwrap()).collect()
    });
    let tables = harness.loaded_tables(SizeClass::Small);
    assert_eq!(tables.builds(), 2, "one load per store kind");
    for kind in [StoreKind::Row, StoreKind::Column] {
        let of_kind: Vec<_> = stores.iter().filter(|(k, _)| *k == kind).collect();
        assert_eq!(of_kind.len(), 4);
        for (_, store) in &of_kind {
            assert!(Arc::ptr_eq(store, &of_kind[0].1), "{kind:?} store copied");
        }
    }
    let resident: u64 = [StoreKind::Row, StoreKind::Column]
        .iter()
        .map(|&k| tables.store(k, true, &data).unwrap().heap_bytes())
        .sum();
    assert_eq!(harness.loaded_tables_stats(), (resident, 2));
}

#[test]
fn concurrent_streaming_cells_spool_the_triples_once() {
    let harness = Harness::new(sim_config(true)).unwrap();
    let data = harness.dataset(SizeClass::Small).unwrap();
    let cfg = harness.config().stream.clone().unwrap();
    let engines = sql_engines();
    let start = Barrier::new(8);
    let spools: Vec<Arc<_>> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..8)
            .map(|i| {
                let (harness, data, cfg, engines, start) =
                    (&harness, &data, &cfg, &engines, &start);
                s.spawn(move || {
                    start.wait();
                    let record = harness
                        .run_cell(
                            engines[i % engines.len()].as_ref(),
                            Query::Regression,
                            SizeClass::Small,
                            1,
                        )
                        .unwrap();
                    assert!(record.outcome.report().is_some());
                    let tables = harness.loaded_tables(SizeClass::Small);
                    tables.spool(cfg, data).unwrap()
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().unwrap()).collect()
    });
    for spool in &spools {
        assert!(Arc::ptr_eq(spool, &spools[0]), "spool written twice");
    }
    // Two metadata-only stores and one spool for eight cells.
    assert_eq!(harness.loaded_tables_stats().1, 3);
    assert_eq!(harness.loaded_spool_bytes(), SPOOL_BYTES);
    assert_eq!(spools[0].bytes(), SPOOL_BYTES);

    // The file outlives every cell that read it and goes with the harness.
    let path = spools[0].path().to_path_buf();
    drop(spools);
    assert!(path.exists(), "a finished cell removed the shared spool");
    assert_eq!(std::fs::metadata(&path).unwrap().len(), SPOOL_BYTES);
    drop(harness);
    assert!(!path.exists(), "the spool file outlived its harness");
}

#[test]
fn concurrent_scidb_cells_chunk_the_dataset_once() {
    let harness = Harness::new(sim_config(false)).unwrap();
    let data = harness.dataset(SizeClass::Small).unwrap();
    let engines = array_engines();
    let start = Barrier::new(8);
    let arrays: Vec<Arc<_>> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..8)
            .map(|i| {
                let (harness, data, engines, start) = (&harness, &data, &engines, &start);
                s.spawn(move || {
                    start.wait();
                    let record = harness
                        .run_cell(engines[i % 2].as_ref(), Query::Svd, SizeClass::Small, 1)
                        .unwrap();
                    assert!(record.outcome.report().is_some());
                    harness
                        .loaded_tables(SizeClass::Small)
                        .arrays(data)
                        .unwrap()
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().unwrap()).collect()
    });
    for set in &arrays {
        assert!(Arc::ptr_eq(set, &arrays[0]), "arrays copied");
    }
    assert_eq!(
        harness.loaded_tables_stats(),
        (arrays[0].heap_bytes(), 1),
        "one chunked copy for eight cells"
    );
    let weak = Arc::downgrade(&arrays[0]);
    drop(arrays);
    assert!(weak.upgrade().is_some(), "the harness keeps its arrays");
    drop(harness);
    assert!(weak.upgrade().is_none(), "arrays outlived their harness");
}

#[test]
fn a_budget_below_the_chunked_array_refuses_every_attempt_alike() {
    let mut config = sim_config(false);
    config.mem_budget = Some(1024);
    let harness = Harness::new(config).unwrap();
    // The refusal is the charge of the resident chunks against the cell's
    // own tracker, exactly as when each cell chunked a private copy.
    let expected = genbase_util::Error::OutOfMemory {
        requested: 60 * 60 * 8,
        budget: 1024,
    }
    .to_string();
    for engine in array_engines() {
        for attempt in ["cold", "warm"] {
            let outcome = harness
                .run_cell(engine.as_ref(), Query::Covariance, SizeClass::Small, 1)
                .unwrap()
                .outcome;
            match outcome {
                RunOutcome::Infinite { reason } => {
                    assert_eq!(reason, expected, "{} {attempt}", engine.name())
                }
                other => panic!("expected an infinite outcome, got {other:?}"),
            }
        }
    }
    // The refused cells still chunked the dataset, once.
    assert_eq!(harness.loaded_tables_stats().1, 1);
}

#[test]
fn a_budget_below_the_store_refuses_every_attempt_alike() {
    let mut config = sim_config(false);
    config.mem_budget = Some(1024);
    let harness = Harness::new(config.clone()).unwrap();
    let engine = engines::PostgresR::new();
    let attempts: Vec<RunOutcome> = (0..2)
        .map(|_| {
            harness
                .run_cell(&engine, Query::Regression, SizeClass::Small, 1)
                .unwrap()
                .outcome
        })
        .collect();
    let data = harness.dataset(SizeClass::Small).unwrap();
    let store = harness
        .loaded_tables(SizeClass::Small)
        .store(StoreKind::Row, true, &data)
        .unwrap();
    // The refusal is the charge of the whole store against the cell's own
    // tracker, exactly as when each cell loaded a private copy.
    let expected = genbase_util::Error::OutOfMemory {
        requested: store.heap_bytes(),
        budget: 1024,
    }
    .to_string();
    for outcome in &attempts {
        match outcome {
            RunOutcome::Infinite { reason } => assert_eq!(*reason, expected),
            other => panic!("expected an infinite outcome, got {other:?}"),
        }
    }
    // The refused cells still loaded the table, once.
    assert_eq!(harness.loaded_tables_stats().1, 1);
}

#[test]
fn tables_of_one_dataset_refuse_another() {
    let small = generate(&GeneratorConfig::new(SizeSpec::tiny())).unwrap();
    // Same shape, other values: nothing but the identity check stands
    // between these tables and an answer about the wrong dataset.
    let twin = generate(&GeneratorConfig::new(SizeSpec::tiny()).with_seed(7)).unwrap();
    let params = QueryParams::for_dataset(&small);
    let ctx = ExecContext::single_node();
    let engine = engines::ColumnR::new();
    engine
        .run(Query::Regression, &small, &params, &ctx)
        .expect("the context's own table set loads on first use");
    let err = engine
        .run(Query::Regression, &twin, &params, &ctx)
        .expect_err("tables loaded from one dataset served another");
    assert!(
        matches!(err, genbase_util::Error::Invalid(_)) && !err.is_infinite_result(),
        "{err}"
    );
    // A clone is the same dataset; a fresh context takes either.
    assert!(engine
        .run(Query::Regression, &small.clone(), &params, &ctx)
        .is_ok());
    assert!(engine
        .run(
            Query::Regression,
            &twin,
            &params,
            &ExecContext::single_node()
        )
        .is_ok());

    // The same gate stands before the spool, the arrays and the Hive table.
    let mut streaming = ExecContext::single_node();
    streaming.stream = Some(StreamConfig::default());
    for (engine, ctx) in [
        (&engine as &dyn Engine, &streaming),
        (&engines::SciDb::new(), &ctx),
        (&engines::SciDbPhi::new(), &ctx),
        (&engines::Hadoop::new(), &ctx),
    ] {
        engine
            .run(Query::Covariance, &small, &params, ctx)
            .unwrap_or_else(|e| panic!("{}: {e}", engine.name()));
        let err = engine
            .run(Query::Covariance, &twin, &params, ctx)
            .expect_err("tables loaded from one dataset served another");
        assert!(
            matches!(err, genbase_util::Error::Invalid(_)),
            "{}: {err}",
            engine.name()
        );
    }

    let tables = LoadedTables::default();
    tables.store(StoreKind::Row, false, &small).unwrap();
    assert!(tables.store(StoreKind::Row, false, &twin).is_err());
    assert!(tables.store(StoreKind::Column, true, &twin).is_err());
    assert!(tables.spool(&StreamConfig::default(), &twin).is_err());
    assert!(tables.arrays(&twin).is_err());
    assert!(matches!(
        tables.hive_triples(&twin),
        Err(genbase_util::Error::Invalid(_))
    ));
    assert_eq!(tables.builds(), 1, "a refused dataset loads nothing");
    assert_eq!(tables.spool_bytes(), 0, "a refused dataset spools nothing");
}

#[test]
fn dropping_the_harness_frees_the_tables() {
    let harness = Harness::new(sim_config(false)).unwrap();
    harness
        .run_cell(
            &engines::ColumnUdf::new(),
            Query::Statistics,
            SizeClass::Small,
            1,
        )
        .unwrap();
    let data = harness.dataset(SizeClass::Small).unwrap();
    let store = harness
        .loaded_tables(SizeClass::Small)
        .store(StoreKind::Column, true, &data)
        .unwrap();
    assert!(harness.loaded_tables_stats().0 >= store.heap_bytes());
    let weak = Arc::downgrade(&store);
    drop(store);
    assert!(weak.upgrade().is_some(), "the harness keeps its tables");
    drop(harness);
    assert!(weak.upgrade().is_none(), "tables outlived their harness");
}
