//! The SQL-store engine configurations, thin wrappers over
//! [`super::sql_common`] plus the pbdR multi-node variants from
//! [`super::mn`].

use super::mn::{run_multinode, MnFlavor};
use super::sql_common::{Bridge, SqlEngineSpec, StoreKind};
use crate::engine::{Engine, ExecContext};
use crate::query::{Query, QueryParams};
use crate::report::QueryReport;
use genbase_datagen::Dataset;
use genbase_util::Result;

/// Postgres + Madlib: row store with in-database analytics. Regression runs
/// as a fast streaming aggregate; covariance and SVD are simulated in
/// SQL/plpython (slow); biclustering is missing (paper: Madlib "executes
/// four of the five tasks").
#[derive(Debug, Default)]
pub struct PostgresMadlib;

impl PostgresMadlib {
    /// New engine.
    pub fn new() -> Self {
        PostgresMadlib
    }
}

impl Engine for PostgresMadlib {
    fn name(&self) -> &'static str {
        "Postgres + Madlib"
    }

    fn supports(&self, query: Query) -> bool {
        query != Query::Biclustering
    }

    fn run(
        &self,
        query: Query,
        data: &Dataset,
        params: &QueryParams,
        ctx: &ExecContext,
    ) -> Result<QueryReport> {
        if !self.supports(query) {
            return Err(genbase_util::Error::unsupported(self.name(), query.name()));
        }
        SqlEngineSpec {
            kind: StoreKind::Row,
            bridge: Bridge::InDatabase,
        }
        .run(query, data, params, ctx)
    }
}

/// Postgres + R: row store for data management, CSV export into a
/// single-threaded R runtime for analytics.
#[derive(Debug, Default)]
pub struct PostgresR;

impl PostgresR {
    /// New engine.
    pub fn new() -> Self {
        PostgresR
    }
}

impl Engine for PostgresR {
    fn name(&self) -> &'static str {
        "Postgres + R"
    }

    fn run(
        &self,
        query: Query,
        data: &Dataset,
        params: &QueryParams,
        ctx: &ExecContext,
    ) -> Result<QueryReport> {
        SqlEngineSpec {
            kind: StoreKind::Row,
            bridge: Bridge::ExportToR,
        }
        .run(query, data, params, ctx)
    }
}

/// Column store + R: vectorized data management, CSV export to R.
#[derive(Debug, Default)]
pub struct ColumnR;

impl ColumnR {
    /// New engine.
    pub fn new() -> Self {
        ColumnR
    }
}

impl Engine for ColumnR {
    fn name(&self) -> &'static str {
        "Column store + R"
    }

    fn run(
        &self,
        query: Query,
        data: &Dataset,
        params: &QueryParams,
        ctx: &ExecContext,
    ) -> Result<QueryReport> {
        SqlEngineSpec {
            kind: StoreKind::Column,
            bridge: Bridge::ExportToR,
        }
        .run(query, data, params, ctx)
    }
}

/// Column store + UDFs: in-process handoff to R UDFs (no export), with the
/// row-marshalling penalty the paper observes on the biclustering query.
/// Runs multi-node (hash-partitioned) when `ctx.nodes > 1`.
#[derive(Debug, Default)]
pub struct ColumnUdf;

impl ColumnUdf {
    /// New engine.
    pub fn new() -> Self {
        ColumnUdf
    }
}

impl Engine for ColumnUdf {
    fn name(&self) -> &'static str {
        "Column store + UDFs"
    }

    fn max_nodes(&self) -> usize {
        64
    }

    fn run(
        &self,
        query: Query,
        data: &Dataset,
        params: &QueryParams,
        ctx: &ExecContext,
    ) -> Result<QueryReport> {
        if ctx.nodes > 1 {
            return run_multinode(MnFlavor::ColumnUdf, query, data, params, ctx);
        }
        SqlEngineSpec {
            kind: StoreKind::Column,
            bridge: Bridge::InProcess,
        }
        .run(query, data, params, ctx)
    }
}

/// pbdR: data evenly pre-partitioned across nodes, local filters/joins in
/// R, ScaLAPACK-style distributed analytics. Single-node it degenerates to
/// an R runtime without the DBMS (but also without vanilla R's full-table
/// load, since data arrives pre-partitioned in native form).
#[derive(Debug, Default)]
pub struct Pbdr;

impl Pbdr {
    /// New engine.
    pub fn new() -> Self {
        Pbdr
    }
}

impl Engine for Pbdr {
    fn name(&self) -> &'static str {
        "pbdR"
    }

    fn max_nodes(&self) -> usize {
        64
    }

    fn run(
        &self,
        query: Query,
        data: &Dataset,
        params: &QueryParams,
        ctx: &ExecContext,
    ) -> Result<QueryReport> {
        run_multinode(MnFlavor::Pbdr, query, data, params, ctx)
    }
}

/// Column store + pbdR: per-node column-store data management, CSV export
/// into the distributed pbdR/ScaLAPACK analytics.
#[derive(Debug, Default)]
pub struct ColumnPbdr;

impl ColumnPbdr {
    /// New engine.
    pub fn new() -> Self {
        ColumnPbdr
    }
}

impl Engine for ColumnPbdr {
    fn name(&self) -> &'static str {
        "Column store + pbdR"
    }

    fn max_nodes(&self) -> usize {
        64
    }

    fn run(
        &self,
        query: Query,
        data: &Dataset,
        params: &QueryParams,
        ctx: &ExecContext,
    ) -> Result<QueryReport> {
        run_multinode(MnFlavor::ColumnPbdr, query, data, params, ctx)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use genbase_datagen::{generate, GeneratorConfig, SizeSpec};

    #[test]
    fn madlib_rejects_biclustering() {
        let data = generate(&GeneratorConfig::new(SizeSpec::tiny())).unwrap();
        let params = QueryParams::for_dataset(&data);
        let ctx = ExecContext::single_node();
        let err = PostgresMadlib::new()
            .run(Query::Biclustering, &data, &params, &ctx)
            .unwrap_err();
        assert!(matches!(err, genbase_util::Error::Unsupported { .. }));
        assert!(!PostgresMadlib::new().supports(Query::Biclustering));
    }

    #[test]
    fn single_node_sql_engines_complete_regression() {
        let data = generate(&GeneratorConfig::new(SizeSpec::tiny())).unwrap();
        let params = QueryParams::for_dataset(&data);
        let ctx = ExecContext::single_node();
        let engines: Vec<Box<dyn Engine>> = vec![
            Box::new(PostgresMadlib::new()),
            Box::new(PostgresR::new()),
            Box::new(ColumnR::new()),
            Box::new(ColumnUdf::new()),
        ];
        let mut outputs = Vec::new();
        for e in &engines {
            let r = e.run(Query::Regression, &data, &params, &ctx).unwrap();
            outputs.push(r.output);
        }
        // All four agree (QR vs normal equations within tolerance).
        for o in &outputs[1..] {
            assert!(
                outputs[0].consistency_error(o, 1e-6).is_none(),
                "{:?}",
                outputs[0].consistency_error(o, 1e-6)
            );
        }
    }
}
