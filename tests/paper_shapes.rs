//! Shape assertions against the paper's qualitative findings. Absolute
//! numbers differ (our substrate is a simulator, not the authors' 2013
//! testbed), but who-beats-whom must hold. Timing margins are deliberately
//! generous (2x) to stay robust on noisy CI machines; the two data-management
//! shapes, the R-vs-SciDB threading shape and the Madlib SVD shape assert on
//! the deterministic per-op trace instead (storage-layer bytes moved; the
//! kernel's thread budget), with their wall-clock forms kept as `#[ignore]`d
//! tests.

use genbase::prelude::*;
use genbase_datagen::{generate, GeneratorConfig, SizeSpec};

fn mid_dataset() -> genbase_datagen::Dataset {
    // Big enough for architectural differences to dominate noise.
    generate(&GeneratorConfig::new(SizeSpec::custom(360, 360, 30))).unwrap()
}

fn total(engine: &dyn Engine, query: Query, data: &genbase_datagen::Dataset) -> f64 {
    let params = QueryParams::for_dataset(data);
    let ctx = ExecContext::single_node();
    engine
        .run(query, data, &params, &ctx)
        .unwrap_or_else(|e| panic!("{}/{query:?}: {e}", engine.name()))
        .phases
        .total_secs()
}

#[test]
fn hadoop_is_an_order_of_magnitude_behind_scidb() {
    // Paper: "Hadoop ... offers between one and two orders of magnitude
    // worse performance than the best system."
    let data = mid_dataset();
    let scidb = engines::SciDb::new();
    let hadoop = engines::Hadoop::new();
    for query in [Query::Regression, Query::Covariance, Query::Statistics] {
        let fast = total(&scidb, query, &data);
        let slow = total(&hadoop, query, &data);
        assert!(
            slow > 5.0 * fast,
            "{query:?}: Hadoop {slow:.4}s should be >> SciDB {fast:.4}s"
        );
    }
}

/// One run's data-management cost, both ways: measured wall seconds, and
/// the storage-layer bytes its `Phase::DataManagement` ops moved (read +
/// materialized, `OpCost::bytes_moved`). The bytes are a pure function of
/// the dataset and the plan, so tier-1 asserts on them.
#[derive(Clone, Copy)]
struct DmCost {
    secs: f64,
    bytes: u64,
}

/// Data-management cost of `a` and of `b` on each query.
fn dm_costs(a: &dyn Engine, b: &dyn Engine, queries: &[Query]) -> Vec<(Query, DmCost, DmCost)> {
    let data = mid_dataset();
    let params = QueryParams::for_dataset(&data);
    let cost = |engine: &dyn Engine, query: Query| {
        let report = engine
            .run(query, &data, &params, &ExecContext::single_node())
            .unwrap_or_else(|e| panic!("{}/{query:?}: {e}", engine.name()));
        let dm_ops = report
            .trace
            .ops
            .iter()
            .filter(|op| op.phase == Phase::DataManagement);
        DmCost {
            secs: report.phases.data_management.total_secs(),
            bytes: dm_ops.map(|op| op.cost.bytes_moved()).sum(),
        }
    };
    queries
        .iter()
        .map(|&q| (q, cost(a, q), cost(b, q)))
        .collect()
}

/// Column store, export bridge against UDF bridge.
fn bridge_costs() -> Vec<(Query, DmCost, DmCost)> {
    dm_costs(
        &engines::ColumnR::new(),
        &engines::ColumnUdf::new(),
        &[Query::Regression, Query::Covariance, Query::Svd],
    )
}

#[test]
fn export_bridge_costs_more_than_udf_bridge() {
    // Paper: "Moving the analytics inside the DBMS as user-defined
    // functions should always improve performance" (except biclustering).
    // The export bridge writes the joined triples as CSV text and re-reads
    // it; the UDF bridge pivots them in place.
    for (query, export, udf) in bridge_costs() {
        assert!(
            export.bytes > udf.bytes,
            "{query:?}: CSV export DM moved {} B, UDF DM {} B",
            export.bytes,
            udf.bytes
        );
    }
}

/// Wall-clock form of [`export_bridge_costs_more_than_udf_bridge`]: depends
/// on the host, so not tier-1. Run serially in release:
/// `cargo test --release --test paper_shapes -- --ignored --test-threads=1 --nocapture`.
#[test]
#[ignore = "asserts on measured wall-clock"]
fn export_bridge_costs_more_than_udf_bridge_wall_clock() {
    for (query, export, udf) in bridge_costs() {
        println!("margin export/udf {query:?} {:.3}", export.secs / udf.secs);
        assert!(
            export.secs > udf.secs,
            "{query:?}: CSV export DM ({:.4}s) must exceed UDF DM ({:.4}s)",
            export.secs,
            udf.secs
        );
    }
}

#[test]
fn udf_marshalling_hurts_biclustering() {
    // Paper: "there seem to be some issues with this interface ... such as
    // the biclustering query, in which the column store + UDFs
    // configuration performs significantly worse."
    let data = mid_dataset();
    let params = QueryParams::for_dataset(&data);
    let ctx = ExecContext::single_node();
    let with_penalty = engines::ColumnUdf::new()
        .run(Query::Biclustering, &data, &params, &ctx)
        .unwrap()
        .phases
        .data_management
        .total_secs();
    let without = engines::ColumnR::new()
        .run(Query::Biclustering, &data, &params, &ctx)
        .unwrap();
    // ColumnR pays the CSV export instead; compare against SciDB (no
    // penalty at all) for the clean contrast.
    let clean = engines::SciDb::new()
        .run(Query::Biclustering, &data, &params, &ctx)
        .unwrap()
        .phases
        .data_management
        .total_secs();
    assert!(
        with_penalty > clean,
        "UDF marshalling must cost more than the array path: {with_penalty:.4} vs {clean:.4}"
    );
    drop(without);
}

/// Postgres + R against SciDB.
fn row_store_vs_array() -> Vec<(Query, DmCost, DmCost)> {
    dm_costs(
        &engines::PostgresR::new(),
        &engines::SciDb::new(),
        &[Query::Regression, Query::Covariance],
    )
}

#[test]
fn scidb_wins_data_management_against_row_store() {
    // Paper: the array DBMS avoids recasting tables to arrays entirely. The
    // row store reads its pages, pivots row -> column, exports and re-parses;
    // SciDB gathers the selected chunks once.
    for (query, pg, scidb) in row_store_vs_array() {
        assert!(
            pg.bytes > 2 * scidb.bytes,
            "{query:?}: Postgres+R DM moved {} B vs SciDB DM {} B",
            pg.bytes,
            scidb.bytes
        );
    }
}

/// Wall-clock form of [`scidb_wins_data_management_against_row_store`]; see
/// [`export_bridge_costs_more_than_udf_bridge_wall_clock`] for how to run it.
#[test]
#[ignore = "asserts on measured wall-clock"]
fn scidb_wins_data_management_against_row_store_wall_clock() {
    for (query, pg, scidb) in row_store_vs_array() {
        println!(
            "margin postgres/scidb {query:?} {:.3}",
            pg.secs / scidb.secs
        );
        assert!(
            pg.secs > 2.0 * scidb.secs,
            "{query:?}: Postgres+R DM {:.4}s vs SciDB DM {:.4}s",
            pg.secs,
            scidb.secs
        );
    }
}

#[test]
fn vanilla_r_dies_on_large_but_db_backed_r_survives() {
    // Paper: "as data sets get larger ... it is sometimes beneficial to
    // have a data management backend as R by itself cannot load the data
    // into memory."
    let data = mid_dataset();
    let params = QueryParams::for_dataset(&data);
    let mut ctx = ExecContext::single_node();
    // Budget that fits the filtered export but not R's full load
    // (~56 B/cell * 129,600 cells ≈ 7.3 MB peak at load).
    ctx.r_mem_bytes = Some(4_000_000);
    let r_err = engines::VanillaR::new()
        .run(Query::Regression, &data, &params, &ctx)
        .unwrap_err();
    assert!(r_err.is_infinite_result(), "vanilla R must OOM: {r_err}");
    // Postgres + R exports only the filtered quarter of the columns.
    let ok = engines::PostgresR::new().run(Query::Regression, &data, &params, &ctx);
    assert!(ok.is_ok(), "DB-backed R must survive: {:?}", ok.err());
}

/// `query`'s analytics op on `engine`: the thread budget its dense kernel
/// ran under (0 = it ran none), and its total seconds.
fn analytics_kernel(
    engine: &dyn Engine,
    query: Query,
    data: &genbase_datagen::Dataset,
    ctx: &ExecContext,
) -> (u64, f64) {
    let params = QueryParams::for_dataset(data);
    let report = engine
        .run(query, data, &params, ctx)
        .unwrap_or_else(|e| panic!("{}/{query:?}: {e}", engine.name()));
    let kernel = report
        .trace
        .ops
        .iter()
        .find(|op| op.kind == OpKind::Analytics)
        .expect("the query runs an analytics op");
    (
        kernel.cost.kernel_threads,
        report.phases.analytics.total_secs(),
    )
}

#[test]
fn madlib_simulated_sql_analytics_are_slow() {
    // Paper: Madlib's C++ regression is fast, but SVD "in effect simulates
    // matrix computations in SQL" and is much slower than native kernels.
    // The trace records why: Madlib's regression and SciDB's SVD each ran a
    // dense kernel, Madlib's SVD ran none — every Lanczos step is two
    // row-at-a-time scans of the joined triples.
    let mut ctx = ExecContext::single_node();
    ctx.threads = 4;
    let (data, madlib) = (mid_dataset(), engines::PostgresMadlib::new());
    let (regression, _) = analytics_kernel(&madlib, Query::Regression, &data, &ctx);
    assert!(regression >= 1, "Madlib's regression is a native kernel");
    let (madlib_svd, _) = analytics_kernel(&madlib, Query::Svd, &data, &ctx);
    assert_eq!(madlib_svd, 0, "Madlib's SVD runs no dense kernel");
    let (scidb_svd, _) = analytics_kernel(&engines::SciDb::new(), Query::Svd, &data, &ctx);
    assert_eq!(scidb_svd, 4, "SciDB's SVD kernel takes the whole budget");
}

/// Wall-clock form of [`madlib_simulated_sql_analytics_are_slow`]. See
/// [`export_bridge_costs_more_than_udf_bridge_wall_clock`] for how to run it.
#[test]
#[ignore = "asserts on measured wall-clock"]
fn madlib_simulated_sql_analytics_are_slow_wall_clock() {
    let mut ctx = ExecContext::single_node();
    ctx.threads = 4;
    let (data, madlib) = (mid_dataset(), engines::PostgresMadlib::new());
    let scidb = engines::SciDb::new();
    // Best of three a side keeps a neighbour's burst on a shared host out
    // of the ordering.
    let best = |engine: &dyn Engine| {
        (0..3)
            .map(|_| analytics_kernel(engine, Query::Svd, &data, &ctx).1)
            .fold(f64::INFINITY, f64::min)
    };
    let (madlib_svd, scidb_svd) = (best(&madlib), best(&scidb));
    println!("margin madlib/scidb svd {:.3}", madlib_svd / scidb_svd);
    assert!(
        madlib_svd > 1.5 * scidb_svd,
        "SQL-simulated SVD {madlib_svd:.4}s vs native {scidb_svd:.4}s"
    );
}

#[test]
fn phi_accelerates_compute_heavy_queries_not_biclustering() {
    // Paper Table 1: covariance/SVD gain 2.6-2.9x, biclustering ~1.2x.
    let data = mid_dataset();
    let params = QueryParams::for_dataset(&data);
    let ctx = ExecContext::single_node();
    let scidb = engines::SciDb::new();
    let phi = engines::SciDbPhi::new();
    let analytics = |engine: &dyn Engine, q: Query| {
        engine
            .run(q, &data, &params, &ctx)
            .unwrap()
            .phases
            .analytics
            .total_secs()
    };
    let cov_speedup = analytics(&scidb, Query::Covariance) / analytics(&phi, Query::Covariance);
    let bic_speedup = analytics(&scidb, Query::Biclustering) / analytics(&phi, Query::Biclustering);
    assert!(
        cov_speedup > bic_speedup,
        "covariance must benefit more than biclustering: {cov_speedup:.2} vs {bic_speedup:.2}"
    );
}

/// The covariance query's analytics op on `engine`: the thread budget its
/// kernel ran under, and its total seconds.
fn covariance_kernel(engine: &dyn Engine, ctx: &ExecContext) -> (u64, f64) {
    analytics_kernel(engine, Query::Covariance, &mid_dataset(), ctx)
}

#[test]
fn r_single_thread_loses_analytics_at_scale() {
    // Paper: SciDB performs analytics "much faster than R" on bigger data
    // because its kernels are multithreaded and R's are not. Whatever the
    // host, on a 4-thread budget R's covariance kernel runs under 1 thread
    // and SciDB's under all 4.
    let mut ctx = ExecContext::single_node();
    ctx.threads = 4;
    let (r_threads, _) = covariance_kernel(&engines::VanillaR::new(), &ctx);
    let (scidb_threads, _) = covariance_kernel(&engines::SciDb::new(), &ctx);
    assert_eq!(r_threads, 1, "vanilla R is single-threaded");
    assert_eq!(scidb_threads, 4, "SciDB's kernels take the whole budget");
}

/// Wall-clock form of [`r_single_thread_loses_analytics_at_scale`]; needs
/// at least two cores to show. See
/// [`export_bridge_costs_more_than_udf_bridge_wall_clock`] for how to run it.
#[test]
#[ignore = "asserts on measured wall-clock"]
fn r_single_thread_loses_analytics_at_scale_wall_clock() {
    let ctx = ExecContext::single_node();
    let (_, r_an) = covariance_kernel(&engines::VanillaR::new(), &ctx);
    let (_, scidb_an) = covariance_kernel(&engines::SciDb::new(), &ctx);
    println!("margin r/scidb covariance {:.3}", r_an / scidb_an);
    assert!(
        r_an > scidb_an,
        "single-threaded R analytics {r_an:.4}s vs parallel SciDB {scidb_an:.4}s"
    );
}
