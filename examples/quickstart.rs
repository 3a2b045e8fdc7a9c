//! Quickstart: generate a small dataset and run all five GenBase queries on
//! the array engine (the paper's best single-node configuration).
//!
//! ```sh
//! cargo run --release --example quickstart
//! ```

use genbase::prelude::*;
use genbase_datagen::{generate, GeneratorConfig, SizeSpec};

fn main() {
    // 1. Generate the four benchmark datasets (microarray, patient
    //    metadata, gene metadata, GO ontology) with planted signal.
    let spec = SizeSpec::custom(300, 250, 25);
    let data = generate(&GeneratorConfig::new(spec)).expect("generate dataset");
    println!(
        "dataset: {} patients x {} genes, {} GO terms, microarray {}",
        data.n_patients(),
        data.n_genes(),
        data.ontology.n_terms(),
        genbase_util::fmt_bytes(data.microarray_bytes()),
    );

    // 2. Pick paper-faithful query parameters and an engine.
    let params = QueryParams::for_dataset(&data);
    let engine = engines::SciDb::new();
    let ctx = ExecContext::single_node();

    // 3. Run the five queries and print the paper's phase split.
    println!(
        "\n{:<14} {:>12} {:>12}  result",
        "query", "data mgmt", "analytics"
    );
    for query in Query::ALL {
        let report = engine
            .run(query, &data, &params, &ctx)
            .expect("query execution");
        println!(
            "{:<14} {:>12} {:>12}  {}",
            query.name(),
            genbase_util::fmt_secs(report.phases().data_management.total_secs()),
            genbase_util::fmt_secs(report.phases().analytics.total_secs()),
            report.output.summary(),
        );
    }
}
