//! Paged row store (the Postgres stand-in).
//!
//! Tuples are fixed-width (8 bytes per field, schema-typed) and serialized
//! into 8 KB heap pages. Every logical operation — scan, filter, project,
//! join, aggregate — goes through tuple deserialization and interpreted
//! predicate evaluation, which is exactly the per-tuple overhead profile the
//! paper attributes to row stores.

use crate::column::{ColumnData, ColumnTable};
use crate::join::BuildSide;
use crate::pred::Pred;
use crate::value::{DataType, Schema, Value};
use crate::Relation;
use genbase_util::idindex::{self, GroupSums};
use genbase_util::{Budget, Error, IdIndex, Result};

/// Heap page size in bytes (Postgres default).
pub const PAGE_SIZE: usize = 8192;

/// A row-oriented table backed by heap pages.
#[derive(Debug, Clone)]
pub struct RowTable {
    schema: Schema,
    pages: Vec<Vec<u8>>,
    tuple_bytes: usize,
    tuples_per_page: usize,
    n_rows: usize,
}

impl RowTable {
    /// Empty table with the given schema.
    pub fn new(schema: Schema) -> RowTable {
        let tuple_bytes = schema.arity() * 8;
        assert!(
            tuple_bytes > 0 && tuple_bytes <= PAGE_SIZE,
            "tuple too wide"
        );
        RowTable {
            schema,
            pages: Vec::new(),
            tuple_bytes,
            tuples_per_page: PAGE_SIZE / tuple_bytes,
            n_rows: 0,
        }
    }

    /// Build from an iterator of rows.
    pub fn from_rows<I>(schema: Schema, rows: I) -> Result<RowTable>
    where
        I: IntoIterator<Item = Vec<Value>>,
    {
        let mut t = RowTable::new(schema);
        for row in rows {
            t.insert(&row)?;
        }
        Ok(t)
    }

    /// Append one row.
    pub fn insert(&mut self, row: &[Value]) -> Result<()> {
        self.schema.check_row(row)?;
        let slot = self.n_rows % self.tuples_per_page;
        if slot == 0 {
            self.pages
                .push(Vec::with_capacity(self.tuples_per_page * self.tuple_bytes));
        }
        let page = self.pages.last_mut().expect("page just ensured");
        for v in row {
            page.extend_from_slice(&v.encode());
        }
        self.n_rows += 1;
        Ok(())
    }

    /// Table schema.
    pub fn schema(&self) -> &Schema {
        &self.schema
    }

    /// Row count.
    pub fn n_rows(&self) -> usize {
        self.n_rows
    }

    /// Heap bytes held by pages.
    pub fn heap_bytes(&self) -> u64 {
        self.pages.iter().map(|p| p.capacity() as u64).sum()
    }

    /// Deserialize the row at `idx` onto the end of `buf`.
    fn append_row(&self, idx: usize, buf: &mut Vec<Value>) {
        assert!(idx < self.n_rows, "row index out of range");
        let page = &self.pages[idx / self.tuples_per_page];
        self.decode_into(page, (idx % self.tuples_per_page) * self.tuple_bytes, buf);
    }

    /// Decode field `col` of a serialized tuple.
    fn field(&self, tuple: &[u8], col: usize) -> Value {
        let bytes = tuple[col * 8..][..8].try_into().expect("8-byte field");
        Value::decode(bytes, self.schema.col_type(col))
    }

    fn decode_into(&self, page: &[u8], off: usize, buf: &mut Vec<Value>) {
        buf.extend((0..self.schema.arity()).map(|i| self.field(&page[off..], i)));
    }

    /// Visit each row with a reused buffer (avoids per-row allocation while
    /// still paying deserialization).
    pub fn for_each_row(&self, mut f: impl FnMut(&[Value])) {
        let mut buf: Vec<Value> = Vec::with_capacity(self.schema.arity());
        for page in &self.pages {
            for t in 0..page.len() / self.tuple_bytes {
                buf.clear();
                self.decode_into(page, t * self.tuple_bytes, &mut buf);
                f(&buf);
            }
        }
    }

    /// The values of Int column `col` in row order, reading that one field
    /// of each tuple (nothing for a Float column).
    fn int_col(&self, col: usize) -> impl Iterator<Item = i64> + '_ {
        let tuples = self
            .pages
            .iter()
            .flat_map(|p| p.chunks_exact(self.tuple_bytes));
        tuples.filter_map(move |t| match self.field(t, col) {
            Value::Int(k) => Some(k),
            Value::Float(_) => None,
        })
    }

    /// Materialize all rows (tests / small tables).
    pub fn scan(&self) -> Vec<Vec<Value>> {
        let mut out = Vec::with_capacity(self.n_rows);
        self.for_each_row(|r| out.push(r.to_vec()));
        out
    }

    /// Select rows matching `pred` into a new table.
    pub fn filter(&self, pred: &Pred, budget: &Budget) -> Result<RowTable> {
        self.filter_project(pred, &(0..self.schema.arity()).collect::<Vec<_>>(), budget)
    }

    /// Keep only the given columns.
    pub fn project(&self, cols: &[usize], budget: &Budget) -> Result<RowTable> {
        self.filter_project(&Pred::True, cols, budget)
    }

    /// Combined filter + projection in one pass.
    pub fn filter_project(&self, pred: &Pred, cols: &[usize], budget: &Budget) -> Result<RowTable> {
        for &c in cols {
            if c >= self.schema.arity() {
                return Err(Error::invalid(format!(
                    "projection column {c} out of range"
                )));
            }
        }
        let mut out = RowTable::new(self.schema.project(cols));
        let mut proj: Vec<Value> = Vec::with_capacity(cols.len());
        let mut counter = 0usize;
        let mut err = None;
        self.for_each_row(|row| {
            if err.is_some() {
                return;
            }
            counter += 1;
            if counter.is_multiple_of(8192) {
                if let Err(e) = budget.check("row-store scan") {
                    err = Some(e);
                    return;
                }
            }
            if pred.eval(row) {
                proj.clear();
                proj.extend(cols.iter().map(|&c| row[c]));
                // insert cannot fail: projection preserved the schema types.
                out.insert(&proj).expect("projected row matches schema");
            }
        });
        match err {
            Some(e) => Err(e),
            None => Ok(out),
        }
    }

    /// Hash join: indexes `build`'s integer key column and probes with
    /// `self`. Output rows are `self_row ++ build_row`, in probe order and,
    /// per probe row, ascending build position.
    pub fn hash_join(
        &self,
        self_key: usize,
        build: &RowTable,
        build_key: usize,
        budget: &Budget,
    ) -> Result<RowTable> {
        // A column has one type, so either every build row has an Int key
        // (and a key's index is its row position) or none joins.
        let build_side = BuildSide::new(&build.int_col(build_key).collect::<Vec<_>>());
        let mut out = RowTable::new(self.schema.concat(build.schema()));
        let mut joined: Vec<Value> = Vec::new();
        let mut counter = 0usize;
        let mut err = None;
        self.for_each_row(|row| {
            if err.is_some() {
                return;
            }
            counter += 1;
            if counter.is_multiple_of(8192) {
                if let Err(e) = budget.check("row-store hash join") {
                    err = Some(e);
                    return;
                }
            }
            if let Value::Int(k) = row[self_key] {
                for b in build_side.matches(k) {
                    joined.clear();
                    joined.extend_from_slice(row);
                    build.append_row(b, &mut joined);
                    out.insert(&joined).expect("join row matches schema");
                }
            }
        });
        match err {
            Some(e) => Err(e),
            None => Ok(out),
        }
    }

    /// Semijoin probe: positions, ascending, of the rows whose Int column
    /// `key` holds an id of `ids`. Walks every tuple of every page but
    /// decodes only the key field, the way a heap scan deforms a tuple only
    /// up to the attribute its qual reads.
    pub fn select_in(&self, key: usize, ids: &IdIndex, budget: &Budget) -> Result<Vec<u32>> {
        if key >= self.schema.arity() || self.schema.col_type(key) != DataType::Int {
            return Err(Error::invalid(format!(
                "semijoin key {key} is not an Int column"
            )));
        }
        budget.check("row-store semijoin probe")?;
        let mut sel = Vec::new();
        for (row, k) in self.int_col(key).enumerate() {
            if row % 8192 == 8191 {
                budget.check("row-store semijoin probe")?;
            }
            if ids.contains(k) {
                sel.push(row as u32);
            }
        }
        Ok(sel)
    }

    /// Decode the rows at `sel`, in `sel` order, straight into exact-size
    /// columns. Panics on a position past the end.
    pub fn gather(&self, sel: &[u32]) -> ColumnTable {
        let mut cols: Vec<ColumnData> = self
            .schema
            .fields()
            .iter()
            .map(|&(_, t)| ColumnData::with_capacity(t, sel.len()))
            .collect();
        let mut row: Vec<Value> = Vec::with_capacity(self.schema.arity());
        for &at in sel {
            row.clear();
            self.append_row(at as usize, &mut row);
            for (col, &v) in cols.iter_mut().zip(&row) {
                col.push(v);
            }
        }
        ColumnTable::from_columns(self.schema.clone(), cols).expect("columns follow the schema")
    }

    /// Group by an integer key, summing a float column. Returns
    /// `(key, sum, count)` sorted by key.
    pub fn group_sum(&self, key_col: usize, val_col: usize) -> Result<Vec<(i64, f64, u64)>> {
        let mut acc = GroupSums::new(idindex::id_range(self.int_col(key_col)), self.n_rows);
        let mut bad = false;
        self.for_each_row(|row| match (row[key_col], row[val_col]) {
            (Value::Int(k), Value::Float(v)) => acc.add(k, v),
            _ => bad = true,
        });
        if bad {
            return Err(Error::invalid("group_sum needs Int key and Float value"));
        }
        Ok(acc.finish())
    }

    /// Distinct values of an integer column, ascending.
    pub fn distinct_ints(&self, col: usize) -> Result<Vec<i64>> {
        let mut vals: Vec<i64> = self.int_col(col).collect();
        if vals.len() != self.n_rows {
            return Err(Error::invalid("distinct_ints needs an Int column"));
        }
        vals.sort_unstable();
        vals.dedup();
        Ok(vals)
    }
}

impl Relation for RowTable {
    fn schema(&self) -> &Schema {
        &self.schema
    }

    fn n_rows(&self) -> usize {
        self.n_rows
    }

    fn for_each(&self, f: &mut dyn FnMut(&[Value])) {
        self.for_each_row(|r| f(r));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::value::DataType;

    /// Deserialize the row at `idx`.
    fn get_row(table: &RowTable, idx: usize) -> Vec<Value> {
        let mut row = Vec::new();
        table.append_row(idx, &mut row);
        row
    }

    fn patient_schema() -> Schema {
        Schema::new(&[
            ("id", DataType::Int),
            ("age", DataType::Int),
            ("gender", DataType::Int),
            ("resp", DataType::Float),
        ])
        .unwrap()
    }

    fn sample_table(n: usize) -> RowTable {
        RowTable::from_rows(
            patient_schema(),
            (0..n).map(|i| {
                vec![
                    Value::Int(i as i64),
                    Value::Int(20 + (i as i64 * 7) % 60),
                    Value::Int((i % 2) as i64),
                    Value::Float(i as f64 * 0.5),
                ]
            }),
        )
        .unwrap()
    }

    #[test]
    fn insert_and_get_round_trip() {
        let t = sample_table(1000);
        assert_eq!(t.n_rows(), 1000);
        let row = get_row(&t, 123);
        assert_eq!(row[0], Value::Int(123));
        assert_eq!(row[3], Value::Float(61.5));
    }

    #[test]
    fn pages_fill_at_8kb() {
        let t = sample_table(1000);
        // 4 fields * 8B = 32B per tuple; 8192/32 = 256 tuples per page.
        assert_eq!(t.tuples_per_page, 256);
        assert_eq!(t.pages.len(), 1000_usize.div_ceil(256));
    }

    #[test]
    fn scan_preserves_order() {
        let t = sample_table(600);
        let rows = t.scan();
        assert_eq!(rows.len(), 600);
        for (i, r) in rows.iter().enumerate() {
            assert_eq!(r[0], Value::Int(i as i64));
        }
    }

    #[test]
    fn filter_matches_manual() {
        let t = sample_table(500);
        let pred = Pred::IntEq(2, 1).and(Pred::IntLt(1, 40));
        let filtered = t.filter(&pred, &Budget::unlimited()).unwrap();
        let expected = t.scan().into_iter().filter(|r| pred.eval(r)).count();
        assert_eq!(filtered.n_rows(), expected);
        assert!(expected > 0);
        filtered.for_each_row(|r| assert!(pred.eval(r)));
    }

    #[test]
    fn project_reorders_columns() {
        let t = sample_table(10);
        let p = t.project(&[3, 0], &Budget::unlimited()).unwrap();
        assert_eq!(p.schema().col_name(0), "resp");
        let row = get_row(&p, 4);
        assert_eq!(row, vec![Value::Float(2.0), Value::Int(4)]);
        assert!(t.project(&[9], &Budget::unlimited()).is_err());
    }

    #[test]
    fn hash_join_inner_semantics() {
        let left = sample_table(20);
        // Build table: only even ids, with a bonus column.
        let build_schema =
            Schema::new(&[("pid", DataType::Int), ("bonus", DataType::Float)]).unwrap();
        let build = RowTable::from_rows(
            build_schema,
            (0..10).map(|i| vec![Value::Int(i as i64 * 2), Value::Float(i as f64)]),
        )
        .unwrap();
        let joined = left.hash_join(0, &build, 0, &Budget::unlimited()).unwrap();
        assert_eq!(joined.n_rows(), 10, "only even ids match");
        joined.for_each_row(|r| {
            let id = r[0].as_int().unwrap();
            assert_eq!(id % 2, 0);
            assert_eq!(r[4].as_int().unwrap(), id, "join key equality");
        });
        assert_eq!(joined.schema().arity(), 6);
    }

    #[test]
    fn hash_join_duplicate_build_keys() {
        let probe = RowTable::from_rows(
            Schema::new(&[("k", DataType::Int)]).unwrap(),
            vec![vec![Value::Int(1)], vec![Value::Int(2)]],
        )
        .unwrap();
        let build = RowTable::from_rows(
            Schema::new(&[("k", DataType::Int), ("v", DataType::Int)]).unwrap(),
            vec![
                vec![Value::Int(1), Value::Int(10)],
                vec![Value::Int(1), Value::Int(11)],
                vec![Value::Int(3), Value::Int(30)],
            ],
        )
        .unwrap();
        let joined = probe.hash_join(0, &build, 0, &Budget::unlimited()).unwrap();
        assert_eq!(joined.n_rows(), 2, "key 1 matches twice, key 2 never");
    }

    /// The join as it was before the `IdIndex` build side (a `HashMap` of
    /// per-key position lists, two allocations per output row): the
    /// reference for output order and page bytes.
    fn reference_hash_join(
        probe: &RowTable,
        self_key: usize,
        build: &RowTable,
        build_key: usize,
    ) -> RowTable {
        let mut table: std::collections::HashMap<i64, Vec<usize>> = Default::default();
        let mut idx = 0usize;
        build.for_each_row(|row| {
            if let Value::Int(k) = row[build_key] {
                table.entry(k).or_default().push(idx);
            }
            idx += 1;
        });
        let mut out = RowTable::new(probe.schema.concat(build.schema()));
        probe.for_each_row(|row| {
            if let Value::Int(k) = row[self_key] {
                for &b in table.get(&k).into_iter().flatten() {
                    let mut joined = row.to_vec();
                    joined.extend(get_row(build, b));
                    out.insert(&joined).unwrap();
                }
            }
        });
        out
    }

    #[test]
    fn hash_join_pins_order_and_page_bytes() {
        let int = |v: i64| Value::Int(v);
        let probe_schema = Schema::new(&[("k", DataType::Int), ("x", DataType::Float)]).unwrap();
        // Probe keys: duplicates of a matching key, keys absent from the
        // build side, and a sparse outlier.
        let probe_keys = [7, 1, 4, 1 << 40, 7, -3, 2];
        let probe = RowTable::from_rows(
            probe_schema.clone(),
            probe_keys
                .iter()
                .enumerate()
                .map(|(i, &k)| vec![int(k), Value::Float(i as f64 + 0.5)]),
        )
        .unwrap();
        let build_schema = Schema::new(&[("k", DataType::Int), ("tag", DataType::Int)]).unwrap();
        // Build keys: 7 three times (positions 0, 3, 5), a sparse key set.
        let build_keys = [7, 2, 1 << 40, 7, 9, 7, -3];
        let build = RowTable::from_rows(
            build_schema,
            build_keys
                .iter()
                .enumerate()
                .map(|(i, &k)| vec![int(k), int(100 + i as i64)]),
        )
        .unwrap();
        let joined = probe.hash_join(0, &build, 0, &Budget::unlimited()).unwrap();
        // Probe order, then ascending build position.
        let tags: Vec<(i64, i64)> = joined
            .scan()
            .iter()
            .map(|r| (r[0].as_int().unwrap(), r[3].as_int().unwrap()))
            .collect();
        assert_eq!(
            tags,
            vec![
                (7, 100),
                (7, 103),
                (7, 105),
                (1 << 40, 102),
                (7, 100),
                (7, 103),
                (7, 105),
                (-3, 106),
                (2, 101),
            ]
        );
        let reference = reference_hash_join(&probe, 0, &build, 0);
        assert_eq!(joined.pages, reference.pages, "output pages byte-equal");
        assert_eq!(joined.n_rows(), reference.n_rows());

        // Dense keys spilling over several output pages.
        let wide = sample_table(2000);
        let dims = RowTable::from_rows(
            Schema::new(&[("age", DataType::Int), ("w", DataType::Float)]).unwrap(),
            (0..90).map(|i| vec![int(20 + i % 45), Value::Float(i as f64)]),
        )
        .unwrap();
        let joined = wide.hash_join(1, &dims, 0, &Budget::unlimited()).unwrap();
        let reference = reference_hash_join(&wide, 1, &dims, 0);
        assert!(joined.pages.len() > 1);
        assert_eq!(joined.pages, reference.pages);

        // A Float-typed build key never matches: the row store skips it.
        let float_keyed =
            RowTable::from_rows(probe_schema, vec![vec![int(7), Value::Float(7.0)]]).unwrap();
        let none = probe
            .hash_join(0, &float_keyed, 1, &Budget::unlimited())
            .unwrap();
        assert_eq!(none.n_rows(), 0);
        assert_eq!(
            none.pages,
            reference_hash_join(&probe, 0, &float_keyed, 1).pages
        );
        // ...and a Float-typed probe key joins nothing either.
        let none = probe.hash_join(1, &build, 0, &Budget::unlimited()).unwrap();
        assert_eq!(none.n_rows(), 0);
    }

    #[test]
    fn group_sum_aggregates() {
        let t = sample_table(100);
        // Group by gender, sum resp.
        let groups = t.group_sum(2, 3).unwrap();
        assert_eq!(groups.len(), 2);
        let total: f64 = groups.iter().map(|&(_, s, _)| s).sum();
        let expect: f64 = (0..100).map(|i| i as f64 * 0.5).sum();
        assert!((total - expect).abs() < 1e-9);
        let count: u64 = groups.iter().map(|&(_, _, c)| c).sum();
        assert_eq!(count, 100);
        assert!(t.group_sum(3, 3).is_err());
    }

    #[test]
    fn distinct_ints_sorted() {
        let t = sample_table(100);
        let d = t.distinct_ints(2).unwrap();
        assert_eq!(d, vec![0, 1]);
        assert!(t.distinct_ints(3).is_err());
    }

    #[test]
    fn budget_timeout_propagates() {
        use std::time::Duration;
        let t = sample_table(20_000);
        let budget = Budget::with_timeout(Duration::from_nanos(1));
        std::thread::sleep(Duration::from_millis(2));
        assert!(t.filter(&Pred::True, &budget).is_err());
    }

    #[test]
    fn schema_mismatch_rejected() {
        let mut t = RowTable::new(patient_schema());
        assert!(t.insert(&[Value::Int(1)]).is_err());
        assert!(t
            .insert(&[
                Value::Float(1.0),
                Value::Int(1),
                Value::Int(1),
                Value::Float(1.0)
            ])
            .is_err());
    }
}
