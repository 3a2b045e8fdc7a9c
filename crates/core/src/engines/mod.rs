//! The benchmark system configurations.
//!
//! Single-node (paper §4.1): [`VanillaR`], [`PostgresMadlib`], [`PostgresR`],
//! [`ColumnR`], [`ColumnUdf`], [`SciDb`], [`Hadoop`].
//! Multi-node (paper §4.2): [`SciDb`], [`ColumnUdf`], [`Hadoop`] (same
//! engines at `ctx.nodes > 1`), plus [`Pbdr`] and [`ColumnPbdr`].
//! Hardware acceleration (paper §5): [`SciDbPhi`].

pub mod hadoop;
pub mod loaded;
pub mod mn;
pub mod scidb;
pub mod sql_common;
pub mod sql_engines;
pub mod vanilla_r;

pub use hadoop::Hadoop;
pub use scidb::{SciDb, SciDbPhi};
pub use sql_engines::{ColumnPbdr, ColumnR, ColumnUdf, Pbdr, PostgresMadlib, PostgresR};
pub use vanilla_r::VanillaR;

use crate::engine::Engine;

/// The seven single-node configurations of Figure 1, in legend order.
pub fn single_node_engines() -> Vec<Box<dyn Engine>> {
    vec![
        Box::new(ColumnR::new()),
        Box::new(ColumnUdf::new()),
        Box::new(Hadoop::new()),
        Box::new(PostgresMadlib::new()),
        Box::new(PostgresR::new()),
        Box::new(SciDb::new()),
        Box::new(VanillaR::new()),
    ]
}

/// The five multi-node configurations of Figure 3, in legend order.
pub fn multi_node_engines() -> Vec<Box<dyn Engine>> {
    vec![
        Box::new(ColumnPbdr::new()),
        Box::new(ColumnUdf::new()),
        Box::new(Hadoop::new()),
        Box::new(Pbdr::new()),
        Box::new(SciDb::new()),
    ]
}

/// Every distinct engine configuration in the suite, one instance each
/// (the scheduler's registry: cells reference engines by display name).
pub fn all_engines() -> Vec<Box<dyn Engine>> {
    let mut engines = single_node_engines();
    for e in multi_node_engines() {
        if !engines.iter().any(|have| have.name() == e.name()) {
            engines.push(e);
        }
    }
    engines.push(Box::new(SciDbPhi::new()));
    engines
}
