//! Multi-node runs must return the same answers as single-node runs: the
//! distributed kernels (TSQR, allreduce Gram, distributed Lanczos) are
//! algebraically identical to their serial counterparts.

use genbase::prelude::*;
use genbase_datagen::{generate, GeneratorConfig, SizeSpec};

fn dataset() -> genbase_datagen::Dataset {
    generate(&GeneratorConfig::new(SizeSpec::custom(72, 66, 9))).unwrap()
}

#[test]
fn every_multi_node_engine_matches_single_node_reference() {
    let data = dataset();
    let params = QueryParams::for_dataset(&data);
    let single = ExecContext::single_node();
    let reference_engine = engines::SciDb::new();
    for query in Query::ALL {
        let reference = reference_engine
            .run(query, &data, &params, &single)
            .unwrap()
            .output;
        for engine in engines::multi_node_engines() {
            if !engine.supports(query) {
                continue;
            }
            for nodes in [2usize, 4] {
                let ctx = ExecContext::multi_node(nodes);
                let output = engine
                    .run(query, &data, &params, &ctx)
                    .unwrap_or_else(|e| panic!("{}/{query:?}/{nodes}: {e}", engine.name()))
                    .output;
                assert!(
                    output.consistency_error(&reference, 1e-5).is_none(),
                    "{} / {query:?} @ {nodes} nodes: {:?}",
                    engine.name(),
                    output.consistency_error(&reference, 1e-5)
                );
            }
        }
    }
}

/// The Phi engine runs single-node SciDB with an offload model, so a
/// multi-node cell of it is unsupported, not a single-node trace labelled
/// with the node count.
#[test]
fn phi_is_single_node_only() {
    let harness = Harness::new(HarnessConfig::quick().sim_only()).unwrap();
    let phi = engines::SciDbPhi::new();
    let run = |nodes| {
        harness
            .run_cell(
                &phi,
                Query::Covariance,
                genbase_datagen::SizeClass::Small,
                nodes,
            )
            .unwrap()
            .outcome
    };
    assert!(matches!(run(1), RunOutcome::Completed(_)));
    assert!(matches!(run(2), RunOutcome::Unsupported));
}

#[test]
fn network_time_appears_only_on_multi_node_runs() {
    let data = dataset();
    let params = QueryParams::for_dataset(&data);
    let engine = engines::SciDb::new();
    let single = engine
        .run(
            Query::Covariance,
            &data,
            &params,
            &ExecContext::single_node(),
        )
        .unwrap();
    let sim1 = single.phases.data_management.sim_secs + single.phases.analytics.sim_secs;
    assert_eq!(sim1, 0.0, "single node must not charge network time");
    let multi = engine
        .run(
            Query::Covariance,
            &data,
            &params,
            &ExecContext::multi_node(4),
        )
        .unwrap();
    let sim4 = multi.phases.data_management.sim_secs + multi.phases.analytics.sim_secs;
    assert!(sim4 > 0.0, "4 nodes must charge allreduce traffic");
}

#[test]
fn more_nodes_more_network_for_rooted_collectives() {
    let data = dataset();
    let params = QueryParams::for_dataset(&data);
    let engine = engines::Pbdr::new();
    let sim_for = |nodes: usize| {
        let report = engine
            .run(Query::Svd, &data, &params, &ExecContext::multi_node(nodes))
            .unwrap();
        report.phases.data_management.sim_secs + report.phases.analytics.sim_secs
    };
    let two = sim_for(2);
    let four = sim_for(4);
    assert!(
        four > two,
        "gather/broadcast cost grows with node count: {four} vs {two}"
    );
}
