//! Mini reproduction of Figure 1: run one query across all seven
//! single-node system configurations and print the ranking with the
//! data-management / analytics split.
//!
//! ```sh
//! cargo run --release --example system_shootout [regression|covariance|biclustering|svd|statistics]
//! ```

use genbase::prelude::*;
use genbase_datagen::{generate, GeneratorConfig, SizeSpec};

fn main() {
    let query = match std::env::args().nth(1).as_deref() {
        Some("covariance") => Query::Covariance,
        Some("biclustering") => Query::Biclustering,
        Some("svd") => Query::Svd,
        Some("statistics") => Query::Statistics,
        _ => Query::Regression,
    };
    let data =
        generate(&GeneratorConfig::new(SizeSpec::custom(360, 360, 30))).expect("generate dataset");
    let params = QueryParams::for_dataset(&data);
    let ctx = ExecContext::single_node();

    println!(
        "query: {} on {} patients x {} genes\n",
        query.name(),
        data.n_patients(),
        data.n_genes()
    );
    let mut results: Vec<(String, f64, f64, String)> = Vec::new();
    for engine in engines::single_node_engines() {
        if !engine.supports(query) {
            println!(
                "{:<22} (functionality missing — no bar, as in the paper)",
                engine.name()
            );
            continue;
        }
        let report = engine
            .run(query, &data, &params, &ctx)
            .expect("bench-scale runs complete");
        results.push((
            engine.name().to_string(),
            report.phases().data_management.total_secs(),
            report.phases().analytics.total_secs(),
            report.output.summary(),
        ));
    }
    results.sort_by(|a, b| (a.1 + a.2).partial_cmp(&(b.1 + b.2)).expect("finite"));
    println!(
        "\n{:<22} {:>11} {:>11} {:>11}",
        "system", "total", "data mgmt", "analytics"
    );
    println!("{}", "-".repeat(60));
    for (name, dm, an, _) in &results {
        println!(
            "{name:<22} {:>11} {:>11} {:>11}",
            genbase_util::fmt_secs(dm + an),
            genbase_util::fmt_secs(*dm),
            genbase_util::fmt_secs(*an),
        );
    }
    println!("\nanswer ({}): {}", results[0].0, results[0].3);
}
