//! Typed column store (the commercial-column-store stand-in).
//!
//! Columns live in contiguous typed vectors; filters evaluate one column at
//! a time into a boolean mask (vectorized, branch-light), then qualifying
//! row positions are gathered. Joins and aggregates operate directly on the
//! key column without touching the rest of the row — the access-pattern
//! advantage the paper's column store enjoys on wide scans, and the
//! disadvantage (re-assembling several columns) it suffers on narrow tables.

use crate::join::BuildSide;
use crate::pred::Pred;
use crate::value::{DataType, Schema, Value};
use crate::Relation;
use genbase_util::{idindex, Budget, Error, IdIndex, Result};

/// One column's data.
#[derive(Debug, Clone, PartialEq)]
pub enum ColumnData {
    /// Integer column.
    Ints(Vec<i64>),
    /// Float column.
    Floats(Vec<f64>),
}

impl ColumnData {
    /// Empty column of type `ty` with room for `n` values.
    pub fn with_capacity(ty: DataType, n: usize) -> ColumnData {
        match ty {
            DataType::Int => ColumnData::Ints(Vec::with_capacity(n)),
            DataType::Float => ColumnData::Floats(Vec::with_capacity(n)),
        }
    }

    /// Append one value. Panics on a value of the other type: callers push
    /// schema-checked rows.
    pub fn push(&mut self, v: Value) {
        match (self, v) {
            (ColumnData::Ints(vec), Value::Int(x)) => vec.push(x),
            (ColumnData::Floats(vec), Value::Float(x)) => vec.push(x),
            _ => panic!("value type does not match the column"),
        }
    }

    /// Number of values.
    pub fn len(&self) -> usize {
        match self {
            ColumnData::Ints(v) => v.len(),
            ColumnData::Floats(v) => v.len(),
        }
    }

    /// True when empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Data type.
    pub fn data_type(&self) -> DataType {
        match self {
            ColumnData::Ints(_) => DataType::Int,
            ColumnData::Floats(_) => DataType::Float,
        }
    }

    /// Heap bytes of the column's storage.
    pub fn heap_bytes(&self) -> u64 {
        (self.len() * 8) as u64
    }

    /// The values of an integer column.
    pub fn ints(&self) -> Result<&[i64]> {
        match self {
            ColumnData::Ints(v) => Ok(v),
            ColumnData::Floats(_) => Err(Error::invalid("column is Float, not Int")),
        }
    }

    /// The values of a float column.
    pub fn floats(&self) -> Result<&[f64]> {
        match self {
            ColumnData::Floats(v) => Ok(v),
            ColumnData::Ints(_) => Err(Error::invalid("column is Int, not Float")),
        }
    }

    fn value_at(&self, i: usize) -> Value {
        match self {
            ColumnData::Ints(v) => Value::Int(v[i]),
            ColumnData::Floats(v) => Value::Float(v[i]),
        }
    }

    /// Copy of the values at the given positions, in `sel` order. Panics on
    /// a position past the end.
    pub fn gather(&self, sel: &[u32]) -> ColumnData {
        match self {
            ColumnData::Ints(v) => ColumnData::Ints(sel.iter().map(|&i| v[i as usize]).collect()),
            ColumnData::Floats(v) => {
                ColumnData::Floats(sel.iter().map(|&i| v[i as usize]).collect())
            }
        }
    }

    /// Copy of the `start..end` range of this column.
    pub fn slice_range(&self, start: usize, end: usize) -> ColumnData {
        match self {
            ColumnData::Ints(v) => ColumnData::Ints(v[start..end].to_vec()),
            ColumnData::Floats(v) => ColumnData::Floats(v[start..end].to_vec()),
        }
    }
}

/// A column-oriented table.
#[derive(Debug, Clone)]
pub struct ColumnTable {
    schema: Schema,
    cols: Vec<ColumnData>,
    n_rows: usize,
}

impl ColumnTable {
    /// Build from pre-assembled columns (the fast path).
    pub fn from_columns(schema: Schema, cols: Vec<ColumnData>) -> Result<ColumnTable> {
        if cols.len() != schema.arity() {
            return Err(Error::invalid("column count does not match schema"));
        }
        let n_rows = cols.first().map(ColumnData::len).unwrap_or(0);
        for (i, c) in cols.iter().enumerate() {
            if c.len() != n_rows {
                return Err(Error::invalid(format!("column {i} has ragged length")));
            }
            if c.data_type() != schema.col_type(i) {
                return Err(Error::invalid(format!("column {i} type mismatch")));
            }
        }
        Ok(ColumnTable {
            schema,
            cols,
            n_rows,
        })
    }

    /// Build row-by-row (slow path; exists for symmetry and tests).
    pub fn from_rows<I>(schema: Schema, rows: I) -> Result<ColumnTable>
    where
        I: IntoIterator<Item = Vec<Value>>,
    {
        let mut cols: Vec<ColumnData> = schema
            .fields()
            .iter()
            .map(|&(_, t)| ColumnData::with_capacity(t, 0))
            .collect();
        let mut n_rows = 0;
        for row in rows {
            schema.check_row(&row)?;
            for (c, &v) in cols.iter_mut().zip(&row) {
                c.push(v);
            }
            n_rows += 1;
        }
        Ok(ColumnTable {
            schema,
            cols,
            n_rows,
        })
    }

    /// Table schema.
    pub fn schema(&self) -> &Schema {
        &self.schema
    }

    /// Row count.
    pub fn n_rows(&self) -> usize {
        self.n_rows
    }

    /// Heap bytes of column storage.
    pub fn heap_bytes(&self) -> u64 {
        self.cols.iter().map(ColumnData::heap_bytes).sum()
    }

    /// Borrow all columns (schema order).
    pub fn columns(&self) -> &[ColumnData] {
        &self.cols
    }

    /// Borrow an integer column.
    pub fn int_col(&self, i: usize) -> Result<&[i64]> {
        self.cols[i].ints()
    }

    /// Borrow a float column.
    pub fn float_col(&self, i: usize) -> Result<&[f64]> {
        self.cols[i].floats()
    }

    /// Vectorized predicate evaluation into a selection mask.
    pub fn eval_mask(&self, pred: &Pred) -> Result<Vec<bool>> {
        let n = self.n_rows;
        Ok(match pred {
            Pred::True => vec![true; n],
            Pred::IntLt(c, v) => self.int_col(*c)?.iter().map(|x| x < v).collect(),
            Pred::IntLe(c, v) => self.int_col(*c)?.iter().map(|x| x <= v).collect(),
            Pred::IntEq(c, v) => self.int_col(*c)?.iter().map(|x| x == v).collect(),
            Pred::IntGe(c, v) => self.int_col(*c)?.iter().map(|x| x >= v).collect(),
            Pred::IntGt(c, v) => self.int_col(*c)?.iter().map(|x| x > v).collect(),
            Pred::FloatLt(c, v) => self.float_col(*c)?.iter().map(|x| x < v).collect(),
            Pred::FloatGt(c, v) => self.float_col(*c)?.iter().map(|x| x > v).collect(),
            Pred::And(a, b) => {
                let ma = self.eval_mask(a)?;
                let mb = self.eval_mask(b)?;
                ma.into_iter().zip(mb).map(|(x, y)| x && y).collect()
            }
            Pred::Or(a, b) => {
                let ma = self.eval_mask(a)?;
                let mb = self.eval_mask(b)?;
                ma.into_iter().zip(mb).map(|(x, y)| x || y).collect()
            }
            Pred::Not(a) => self.eval_mask(a)?.into_iter().map(|x| !x).collect(),
        })
    }

    /// Row positions matching `pred`.
    pub fn select(&self, pred: &Pred, budget: &Budget) -> Result<Vec<u32>> {
        budget.check("column-store filter")?;
        let mask = self.eval_mask(pred)?;
        Ok(mask
            .iter()
            .enumerate()
            .filter_map(|(i, &m)| m.then_some(i as u32))
            .collect())
    }

    /// Gather the given row positions into a new table.
    pub fn gather(&self, sel: &[u32]) -> ColumnTable {
        ColumnTable {
            schema: self.schema.clone(),
            cols: self.cols.iter().map(|c| c.gather(sel)).collect(),
            n_rows: sel.len(),
        }
    }

    /// Filter into a new table.
    pub fn filter(&self, pred: &Pred, budget: &Budget) -> Result<ColumnTable> {
        Ok(self.gather(&self.select(pred, budget)?))
    }

    /// Keep only the given columns.
    pub fn project(&self, cols: &[usize]) -> Result<ColumnTable> {
        for &c in cols {
            if c >= self.schema.arity() {
                return Err(Error::invalid(format!(
                    "projection column {c} out of range"
                )));
            }
        }
        Ok(ColumnTable {
            schema: self.schema.project(cols),
            cols: cols.iter().map(|&c| self.cols[c].clone()).collect(),
            n_rows: self.n_rows,
        })
    }

    /// Semijoin probe: positions, ascending, of the rows whose Int column
    /// `key` holds an id of `ids`. Reads the key slice alone.
    pub fn select_in(&self, key: usize, ids: &IdIndex, budget: &Budget) -> Result<Vec<u32>> {
        let keys = self
            .cols
            .get(key)
            .ok_or_else(|| Error::invalid(format!("semijoin key {key} out of range")))?
            .ints()?;
        budget.check("column-store semijoin probe")?;
        let mut sel = Vec::new();
        for (i, &k) in keys.iter().enumerate() {
            if i % 65_536 == 65_535 {
                budget.check("column-store semijoin probe")?;
            }
            if ids.contains(k) {
                sel.push(i as u32);
            }
        }
        Ok(sel)
    }

    /// Hash join on integer key columns; builds on `build`, probes `self`.
    /// Output rows are `self_row ++ build_row`, assembled column-wise.
    pub fn hash_join(
        &self,
        self_key: usize,
        build: &ColumnTable,
        build_key: usize,
        budget: &Budget,
    ) -> Result<ColumnTable> {
        let build_keys = build.int_col(build_key)?;
        let probe_keys = self.int_col(self_key)?;
        let build_side = BuildSide::new(build_keys);
        budget.check("column-store hash join build")?;
        // Matching position pairs.
        let mut left_sel: Vec<u32> = Vec::new();
        let mut right_sel: Vec<u32> = Vec::new();
        for (i, &k) in probe_keys.iter().enumerate() {
            if i % 65_536 == 0 {
                budget.check("column-store hash join probe")?;
            }
            for b in build_side.matches(k) {
                left_sel.push(i as u32);
                right_sel.push(b as u32);
            }
        }
        let mut cols: Vec<ColumnData> = Vec::with_capacity(self.cols.len() + build.cols.len());
        for c in &self.cols {
            cols.push(c.gather(&left_sel));
        }
        for c in &build.cols {
            cols.push(c.gather(&right_sel));
        }
        Ok(ColumnTable {
            schema: self.schema.concat(build.schema()),
            cols,
            n_rows: left_sel.len(),
        })
    }

    /// Group by an integer key, summing a float column. Returns
    /// `(key, sum, count)` sorted by key.
    pub fn group_sum(&self, key_col: usize, val_col: usize) -> Result<Vec<(i64, f64, u64)>> {
        let keys = self.int_col(key_col)?;
        let vals = self.float_col(val_col)?;
        Ok(idindex::group_sum(keys, vals))
    }

    /// Distinct values of an integer column, ascending.
    pub fn distinct_ints(&self, col: usize) -> Result<Vec<i64>> {
        let mut vals = self.int_col(col)?.to_vec();
        vals.sort_unstable();
        vals.dedup();
        Ok(vals)
    }
}

impl Relation for ColumnTable {
    fn schema(&self) -> &Schema {
        &self.schema
    }

    fn n_rows(&self) -> usize {
        self.n_rows
    }

    fn for_each(&self, f: &mut dyn FnMut(&[Value])) {
        let arity = self.schema.arity();
        let mut buf: Vec<Value> = Vec::with_capacity(arity);
        for r in 0..self.n_rows {
            buf.clear();
            for c in &self.cols {
                buf.push(c.value_at(r));
            }
            f(&buf);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::row::RowTable;

    fn schema() -> Schema {
        Schema::new(&[
            ("id", DataType::Int),
            ("age", DataType::Int),
            ("gender", DataType::Int),
            ("resp", DataType::Float),
        ])
        .unwrap()
    }

    fn sample_rows(n: usize) -> Vec<Vec<Value>> {
        (0..n)
            .map(|i| {
                vec![
                    Value::Int(i as i64),
                    Value::Int(20 + (i as i64 * 7) % 60),
                    Value::Int((i % 2) as i64),
                    Value::Float(i as f64 * 0.5),
                ]
            })
            .collect()
    }

    fn sample_table(n: usize) -> ColumnTable {
        ColumnTable::from_rows(schema(), sample_rows(n)).unwrap()
    }

    #[test]
    fn from_columns_validates() {
        let s = Schema::new(&[("a", DataType::Int), ("b", DataType::Float)]).unwrap();
        let ok = ColumnTable::from_columns(
            s.clone(),
            vec![
                ColumnData::Ints(vec![1, 2]),
                ColumnData::Floats(vec![1.0, 2.0]),
            ],
        );
        assert!(ok.is_ok());
        let ragged = ColumnTable::from_columns(
            s.clone(),
            vec![
                ColumnData::Ints(vec![1]),
                ColumnData::Floats(vec![1.0, 2.0]),
            ],
        );
        assert!(ragged.is_err());
        let wrong_type = ColumnTable::from_columns(
            s,
            vec![
                ColumnData::Floats(vec![1.0, 2.0]),
                ColumnData::Floats(vec![1.0, 2.0]),
            ],
        );
        assert!(wrong_type.is_err());
    }

    #[test]
    fn filter_matches_row_store() {
        let n = 500;
        let ct = sample_table(n);
        let rt = RowTable::from_rows(schema(), sample_rows(n)).unwrap();
        let pred = Pred::IntEq(2, 1).and(Pred::IntLt(1, 40));
        let cf = ct.filter(&pred, &Budget::unlimited()).unwrap();
        let rf = rt.filter(&pred, &Budget::unlimited()).unwrap();
        assert_eq!(cf.n_rows(), rf.n_rows());
        // Same content row-by-row.
        let mut c_rows = Vec::new();
        cf.for_each(&mut |r: &[Value]| c_rows.push(r.to_vec()));
        assert_eq!(c_rows, rf.scan());
    }

    #[test]
    fn join_matches_row_store() {
        let n = 60;
        let probe_rows = sample_rows(n);
        let build_schema = Schema::new(&[("pid", DataType::Int), ("w", DataType::Float)]).unwrap();
        let build_rows: Vec<Vec<Value>> = (0..30)
            .map(|i| vec![Value::Int((i * 2) as i64), Value::Float(i as f64)])
            .collect();
        let ct = ColumnTable::from_rows(schema(), probe_rows.clone()).unwrap();
        let cb = ColumnTable::from_rows(build_schema.clone(), build_rows.clone()).unwrap();
        let rt = RowTable::from_rows(schema(), probe_rows).unwrap();
        let rb = RowTable::from_rows(build_schema, build_rows).unwrap();
        let cj = ct.hash_join(0, &cb, 0, &Budget::unlimited()).unwrap();
        let rj = rt.hash_join(0, &rb, 0, &Budget::unlimited()).unwrap();
        assert_eq!(cj.n_rows(), rj.n_rows());
        let mut c_rows = Vec::new();
        cj.for_each(&mut |r: &[Value]| c_rows.push(r.to_vec()));
        assert_eq!(c_rows, rj.scan());
    }

    #[test]
    fn hash_join_pins_order() {
        let schema = Schema::new(&[("k", DataType::Int), ("tag", DataType::Int)]).unwrap();
        let table = |keys: &[i64], base: i64| {
            ColumnTable::from_columns(
                schema.clone(),
                vec![
                    ColumnData::Ints(keys.to_vec()),
                    ColumnData::Ints((0..keys.len() as i64).map(|i| base + i).collect()),
                ],
            )
            .unwrap()
        };
        // Duplicate build keys, probe keys absent from the build side, and
        // a sparse key set (see `row::tests::hash_join_pins_order_and_page_bytes`).
        let probe = table(&[7, 1, 4, 1 << 40, 7, -3, 2], 0);
        let build = table(&[7, 2, 1 << 40, 7, 9, 7, -3], 100);
        let joined = probe.hash_join(0, &build, 0, &Budget::unlimited()).unwrap();
        // Probe order, then ascending build position.
        assert_eq!(
            joined.int_col(1).unwrap(),
            &[0, 0, 0, 3, 4, 4, 4, 5, 6],
            "probe positions"
        );
        assert_eq!(
            joined.int_col(3).unwrap(),
            &[100, 103, 105, 102, 100, 103, 105, 106, 101],
            "build positions"
        );
        assert_eq!(joined.int_col(0).unwrap(), joined.int_col(2).unwrap());
        // The column store rejects a Float-typed key on either side.
        let floats = ColumnTable::from_columns(
            Schema::new(&[("k", DataType::Float)]).unwrap(),
            vec![ColumnData::Floats(vec![7.0])],
        )
        .unwrap();
        assert!(probe
            .hash_join(0, &floats, 0, &Budget::unlimited())
            .is_err());
        assert!(floats
            .hash_join(0, &build, 0, &Budget::unlimited())
            .is_err());
    }

    #[test]
    fn group_sum_matches_row_store() {
        let n = 200;
        let ct = sample_table(n);
        let rt = RowTable::from_rows(schema(), sample_rows(n)).unwrap();
        assert_eq!(ct.group_sum(2, 3).unwrap(), rt.group_sum(2, 3).unwrap());
    }

    #[test]
    fn project_and_accessors() {
        let t = sample_table(10);
        let p = t.project(&[3, 1]).unwrap();
        assert_eq!(p.schema().col_name(0), "resp");
        assert_eq!(p.float_col(0).unwrap()[4], 2.0);
        assert!(p.int_col(0).is_err());
        assert!(t.project(&[11]).is_err());
    }

    #[test]
    fn eval_mask_compound() {
        let t = sample_table(100);
        let mask = t
            .eval_mask(&Pred::IntEq(2, 0).or(Pred::FloatGt(3, 45.0)))
            .unwrap();
        for (i, &m) in mask.iter().enumerate() {
            let expect = i % 2 == 0 || i as f64 * 0.5 > 45.0;
            assert_eq!(m, expect, "row {i}");
        }
    }

    #[test]
    fn distinct_and_heap_bytes() {
        let t = sample_table(100);
        assert_eq!(t.distinct_ints(2).unwrap(), vec![0, 1]);
        assert_eq!(t.heap_bytes(), 4 * 100 * 8);
    }

    #[test]
    fn type_errors_surface() {
        let t = sample_table(10);
        assert!(t.eval_mask(&Pred::IntEq(3, 1)).is_err());
        assert!(t.eval_mask(&Pred::FloatGt(0, 1.0)).is_err());
        assert!(t.group_sum(3, 3).is_err());
        assert!(t.group_sum(0, 0).is_err());
    }

    #[test]
    fn empty_table() {
        let t = ColumnTable::from_rows(schema(), Vec::new()).unwrap();
        assert_eq!(t.n_rows(), 0);
        let f = t.filter(&Pred::True, &Budget::unlimited()).unwrap();
        assert_eq!(f.n_rows(), 0);
    }
}
