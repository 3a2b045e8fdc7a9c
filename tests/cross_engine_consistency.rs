//! Every engine must return the same answer to every query it supports —
//! the defining correctness property of a benchmark suite. Performance may
//! differ by orders of magnitude; results may not.

use genbase::engine::StreamConfig;
use genbase::engines::loaded::LoadedTables;
use genbase::engines::sql_common::{filter_pred, Dim, StoreKind};
use genbase::prelude::*;
use genbase_datagen::{generate, GeneratorConfig, SizeClass, SizeSpec};
use genbase_util::{Budget, Error};

fn dataset() -> genbase_datagen::Dataset {
    generate(&GeneratorConfig::new(SizeSpec::custom(80, 70, 10))).unwrap()
}

#[test]
fn all_single_node_engines_agree_on_every_query() {
    let data = dataset();
    let params = QueryParams::for_dataset(&data);
    let ctx = ExecContext::single_node();
    let reference_engine = engines::SciDb::new();
    for query in Query::ALL {
        let reference = reference_engine
            .run(query, &data, &params, &ctx)
            .unwrap()
            .output;
        for engine in engines::single_node_engines() {
            if !engine.supports(query) {
                continue;
            }
            let output = engine
                .run(query, &data, &params, &ctx)
                .unwrap_or_else(|e| panic!("{} / {query:?}: {e}", engine.name()))
                .output;
            assert!(
                output.consistency_error(&reference, 1e-5).is_none(),
                "{} / {query:?} disagrees with SciDB: {:?}",
                engine.name(),
                output.consistency_error(&reference, 1e-5)
            );
        }
    }
}

#[test]
fn phi_configuration_matches_plain_scidb() {
    let data = dataset();
    let params = QueryParams::for_dataset(&data);
    let ctx = ExecContext::single_node();
    let scidb = engines::SciDb::new();
    let phi = engines::SciDbPhi::new();
    for query in genbase::figures::PHI_QUERIES {
        let a = scidb.run(query, &data, &params, &ctx).unwrap().output;
        let b = phi.run(query, &data, &params, &ctx).unwrap().output;
        assert!(
            a.consistency_error(&b, 1e-9).is_none(),
            "offload must not change results: {query:?}"
        );
    }
}

#[test]
fn outputs_are_deterministic_across_runs() {
    let data = dataset();
    let params = QueryParams::for_dataset(&data);
    let ctx = ExecContext::single_node();
    let engine = engines::SciDb::new();
    for query in Query::ALL {
        let a = engine.run(query, &data, &params, &ctx).unwrap().output;
        let b = engine.run(query, &data, &params, &ctx).unwrap().output;
        assert_eq!(a, b, "{query:?} must be bit-identical across runs");
    }
}

#[test]
fn regression_recovers_planted_signal() {
    let data = dataset();
    let params = QueryParams::for_dataset(&data);
    let ctx = ExecContext::single_node();
    let out = engines::SciDb::new()
        .run(Query::Regression, &data, &params, &ctx)
        .unwrap()
        .output;
    let QueryOutput::Regression {
        r_squared,
        coefficients,
        ..
    } = out
    else {
        panic!("wrong output kind")
    };
    // The generator plants a strong linear model over causal genes that all
    // pass the function filter.
    assert!(r_squared > 0.8, "R^2 = {r_squared}");
    // Causal genes should carry the largest |coefficients|.
    let mut ranked = coefficients.clone();
    ranked.sort_by(|a, b| b.1.abs().partial_cmp(&a.1.abs()).unwrap());
    let causal: Vec<i64> = data
        .truth
        .causal_genes
        .iter()
        .map(|&(g, _)| g as i64)
        .collect();
    let top_hits = ranked
        .iter()
        .take(causal.len())
        .filter(|(g, _)| causal.contains(g))
        .count();
    assert!(
        top_hits * 2 >= causal.len(),
        "at least half the planted causal genes in the top set: {top_hits}/{}",
        causal.len()
    );
}

#[test]
fn enrichment_finds_planted_terms() {
    let data = dataset();
    let params = QueryParams::for_dataset(&data);
    let ctx = ExecContext::single_node();
    let out = engines::SciDb::new()
        .run(Query::Statistics, &data, &params, &ctx)
        .unwrap()
        .output;
    let QueryOutput::Enrichment { per_term } = out else {
        panic!("wrong output kind")
    };
    // Module-aligned GO terms must test significant (module genes carry a
    // planted mean shift, so they rank high).
    for &term in &data.truth.aligned_terms {
        let (_, z, p) = per_term
            .iter()
            .find(|(t, _, _)| *t == term)
            .expect("aligned term tested");
        assert!(
            *z > 1.5 && *p < 0.15,
            "planted term {term} should enrich: z = {z}, p = {p}"
        );
    }
}

/// Quick-scale SimOnly harness over the 60x60 Small dataset, materializing
/// or streaming in 64-row morsels.
fn small_harness(stream: bool) -> Harness {
    let mut config = HarnessConfig {
        threads: 4,
        ..HarnessConfig::quick()
    }
    .sim_only();
    config.stream = stream.then(|| StreamConfig {
        batch_rows: 64,
        ..StreamConfig::default()
    });
    Harness::new(config).unwrap()
}

/// Parameters that trip one selection rule, the queries it guards, and the
/// refusal every lowering must answer with.
type Trip = (fn(&mut QueryParams), &'static [Query], &'static str);

const TRIPS: [Trip; 3] = [
    (
        |p| p.function_threshold = i64::MIN,
        &[Query::Regression, Query::Svd],
        "gene filter selected nothing",
    ),
    (
        |p| p.disease_id = -1,
        &[Query::Covariance],
        "disease filter selected < 2 patients",
    ),
    (
        |p| p.max_age = 0,
        &[Query::Biclustering],
        "age/gender filter selected too few patients",
    ),
];

#[test]
fn every_lowering_refuses_an_unusable_selection_with_the_same_error() {
    for stream in [false, true] {
        let harness = small_harness(stream);
        let data = harness.dataset(SizeClass::Small).unwrap();
        for (trip, queries, message) in &TRIPS {
            let mut params = QueryParams::for_dataset(&data);
            trip(&mut params);
            for engine in engines::all_engines() {
                for &query in queries.iter().filter(|&&q| engine.supports(q)) {
                    for nodes in (1..=2).filter(|&n| n <= engine.max_nodes()) {
                        let threads = harness.config().threads;
                        let mut ctx = harness.context_with_threads(nodes, threads);
                        ctx.tables = harness.loaded_tables(SizeClass::Small);
                        let got = engine.run(query, &data, &params, &ctx).map(|r| r.output);
                        assert!(
                            matches!(&got, Err(Error::Invalid(m)) if m == message),
                            "{} / {query:?} / {nodes} node(s) / stream={stream}: {got:?}",
                            engine.name()
                        );
                    }
                }
            }
        }
    }
}

#[test]
fn every_native_filter_selects_what_the_record_predicates_select() {
    let data = dataset();
    let params = QueryParams::for_dataset(&data);
    let budget = Budget::unlimited();
    let as_ids = |ids: Vec<usize>| ids.into_iter().map(|i| i as i64).collect::<Vec<i64>>();
    let arrays = LoadedTables::default().arrays(&data).unwrap();
    let stores = [StoreKind::Row, StoreKind::Column]
        .map(|kind| LoadedTables::default().store(kind, false, &data).unwrap());

    let genes = params.selected_genes(Query::Regression, &data).unwrap();
    assert!(!genes.is_empty() && genes.len() < data.n_genes());
    assert_eq!(arrays.filter_genes(&params), genes);
    let genes = as_ids(genes);
    for store in &stores {
        let pred = filter_pred(Query::Regression, &params);
        assert_eq!(store.filter_ids(Dim::Genes, &pred, &budget).unwrap(), genes);
    }

    for query in [Query::Covariance, Query::Biclustering] {
        let patients = params.selected_patients(query, &data).unwrap();
        assert!(!patients.is_empty() && patients.len() < data.n_patients());
        assert_eq!(
            arrays.filter_patients(query, &params),
            patients,
            "{query:?}"
        );
        let patients = as_ids(patients);
        for store in &stores {
            let pred = filter_pred(query, &params);
            let ids = store.filter_ids(Dim::Patients, &pred, &budget).unwrap();
            assert_eq!(ids, patients, "{query:?}");
        }
    }
}
