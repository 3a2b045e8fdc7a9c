//! Mini reproduction of Figure 3: scale the multi-node configurations from
//! 1 to 4 nodes on one query and watch the (lack of) speedup the paper
//! reports — rooted collectives charge more network time as nodes grow
//! while the nodes share the same physical cores.
//!
//! ```sh
//! cargo run --release --example cluster_scaling
//! ```

use genbase::prelude::*;
use genbase_datagen::{generate, GeneratorConfig, SizeSpec};

fn main() {
    let data =
        generate(&GeneratorConfig::new(SizeSpec::custom(480, 480, 40))).expect("generate dataset");
    let params = QueryParams::for_dataset(&data);
    let query = Query::Regression; // the one task all systems finished

    println!(
        "query: {} on {} patients x {} genes, gigabit network model\n",
        query.name(),
        data.n_patients(),
        data.n_genes()
    );
    println!(
        "{:<22} {:>8} {:>12} {:>12} {:>12}",
        "system", "nodes", "total", "measured", "network(sim)"
    );
    println!("{}", "-".repeat(70));
    for engine in engines::multi_node_engines() {
        if !engine.supports(query) {
            continue;
        }
        for nodes in [1usize, 2, 4] {
            let ctx = ExecContext::multi_node(nodes);
            let report = engine
                .run(query, &data, &params, &ctx)
                .expect("bench-scale runs complete");
            let (dm, an) = (report.phases().data_management, report.phases().analytics);
            let (wall, sim) = (dm.wall_secs + an.wall_secs, dm.sim_secs + an.sim_secs);
            println!(
                "{:<22} {:>8} {:>12} {:>12} {:>12}",
                engine.name(),
                nodes,
                genbase_util::fmt_secs(wall + sim),
                genbase_util::fmt_secs(wall),
                genbase_util::fmt_secs(sim),
            );
        }
    }
    println!(
        "\nNote: nodes are simulated on one machine (threads + byte-counting\n\
         network model), so compute does not speed up with node count; the\n\
         paper likewise found sub-linear or absent speedups (Figure 3)."
    );
}
