//! Hive-style relational operations as MapReduce jobs.
//!
//! Hive compiles SQL to MR jobs with full materialization between stages and
//! (in the paper's era) only rudimentary optimization. The operations here do
//! the same: a filter is a map-only pass over serialized rows, a join is a
//! repartition join (tag, shuffle on key, cross-product in the reducer), an
//! aggregate is a full map-shuffle-reduce.

use crate::job::{run_job, run_map_only, JobConfig, Output};
use crate::record::{Encode, Writable};
use genbase_util::{Error, Result};

/// One field of a Hive row.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Cell {
    /// Integer field.
    I(i64),
    /// Float field.
    F(f64),
}

impl Cell {
    /// Integer content, or an error.
    pub fn as_int(&self) -> Result<i64> {
        match self {
            Cell::I(v) => Ok(*v),
            Cell::F(_) => Err(Error::invalid("expected int cell")),
        }
    }

    /// Float content, or an error.
    pub fn as_float(&self) -> Result<f64> {
        match self {
            Cell::F(v) => Ok(*v),
            Cell::I(_) => Err(Error::invalid("expected float cell")),
        }
    }
}

impl Encode for Cell {
    fn write(&self, out: &mut Vec<u8>) {
        match self {
            Cell::I(v) => {
                out.push(0);
                v.write(out);
            }
            Cell::F(v) => {
                out.push(1);
                v.write(out);
            }
        }
    }
}

impl Writable for Cell {
    fn read(input: &mut &[u8]) -> Result<Self> {
        let tag = u8::read(input)?;
        match tag {
            0 => Ok(Cell::I(i64::read(input)?)),
            1 => Ok(Cell::F(f64::read(input)?)),
            _ => Err(Error::invalid("bad cell tag")),
        }
    }
}

/// An "HDFS file" of rows, stored flat: `width` cells per row, row after
/// row. Row ids exist only as MR input keys. Every job reads its rows in
/// place as `&[Cell]` slices, so the map side copies no row; what crosses
/// a job boundary is still serialized (a forwarded row encodes exactly as
/// a `Vec<Cell>` of the same cells).
#[derive(Debug, Clone, Default, PartialEq)]
pub struct HiveTable {
    cells: Vec<Cell>,
    width: usize,
}

impl HiveTable {
    /// Build from rows of one width. A table from no rows has width 0.
    ///
    /// # Panics
    ///
    /// If the rows differ in width or are empty: a table's rows share one
    /// width of at least one field.
    pub fn new(rows: Vec<Vec<Cell>>) -> HiveTable {
        let width = rows.first().map_or(0, Vec::len);
        assert!(
            rows.iter().all(|r| r.len() == width) && (width > 0 || rows.is_empty()),
            "Hive rows must share one width of at least one field"
        );
        HiveTable {
            cells: rows.concat(),
            width,
        }
    }

    /// `cells.len() / width` rows of `width` cells, row after row.
    pub fn from_cells(width: usize, cells: Vec<Cell>) -> Result<HiveTable> {
        if width == 0 || !cells.len().is_multiple_of(width) {
            return Err(Error::invalid(format!(
                "{} cells are not rows of width {width}",
                cells.len()
            )));
        }
        Ok(HiveTable { cells, width })
    }

    /// Row count.
    pub fn len(&self) -> usize {
        self.cells.len().checked_div(self.width).unwrap_or(0)
    }

    /// True when empty.
    pub fn is_empty(&self) -> bool {
        self.cells.is_empty()
    }

    /// Cells per row.
    pub fn width(&self) -> usize {
        self.width
    }

    /// Row `i`.
    pub fn row(&self, i: usize) -> &[Cell] {
        &self.cells[i * self.width..(i + 1) * self.width]
    }

    /// The rows in order.
    pub fn rows(&self) -> impl Iterator<Item = &[Cell]> {
        self.cells.chunks_exact(self.width.max(1))
    }

    /// `Error::Invalid` naming the first of `cols` past the row width. A
    /// table of width 0 has no row to miss any column.
    fn check_columns(&self, cols: &[usize], what: &str) -> Result<()> {
        match cols.iter().find(|&&c| self.width > 0 && c >= self.width) {
            Some(c) => Err(Error::invalid(format!(
                "{what} column {c} out of range for rows of width {}",
                self.width
            ))),
            None => Ok(()),
        }
    }

    /// Read a job's `(row id, row)` output back as a table of `width`.
    fn from_output(out: &Output, width: usize) -> Result<HiveTable> {
        // Every record is an 8-byte id, an 8-byte length and 9 bytes a cell.
        let bytes: usize = out.files().iter().map(Vec::len).sum();
        let mut cells = Vec::with_capacity(bytes / (16 + 9 * width) * width);
        for file in out.files() {
            let mut input = file.as_slice();
            while !input.is_empty() {
                i64::read(&mut input)?;
                if u64::read(&mut input)? != width as u64 {
                    return Err(Error::invalid("job output row of the wrong width"));
                }
                for _ in 0..width {
                    cells.push(Cell::read(&mut input)?);
                }
            }
        }
        Ok(HiveTable { cells, width })
    }

    /// Map-only filter job.
    pub fn filter(
        &self,
        pred: impl Fn(&[Cell]) -> bool + Sync,
        cfg: &JobConfig,
    ) -> Result<HiveTable> {
        let out = run_map_only(
            self.len(),
            &|i, e| {
                let row = self.row(i);
                if pred(row) {
                    e.emit(&(i as i64), row)
                }
            },
            cfg,
        )?;
        HiveTable::from_output(&out, self.width)
    }

    /// Repartition (reduce-side) equi-join on integer key columns. Output
    /// rows are `self_row ++ other_row`.
    pub fn join(
        &self,
        self_key: usize,
        other: &HiveTable,
        other_key: usize,
        cfg: &JobConfig,
    ) -> Result<HiveTable> {
        self.check_columns(&[self_key], "join key")?;
        other.check_columns(&[other_key], "join key")?;
        let width = self.width + other.width;
        // Tag each side, shuffle on the join key, cross the groups. The
        // input is `self`'s rows, then `other`'s.
        let n_self = self.len();
        let out = run_job::<i64, (u8, Vec<Cell>)>(
            n_self + other.len(),
            &|i, e| {
                let (side, row, key_col) = match i.checked_sub(n_self) {
                    None => (0u8, self.row(i), self_key),
                    Some(j) => (1u8, other.row(j), other_key),
                };
                if let Cell::I(k) = row[key_col] {
                    e.emit(&k, &(side, row));
                }
            },
            None,
            &|_, tagged, e| {
                let (left, right): (Vec<_>, Vec<_>) =
                    tagged.iter().partition(|(side, _)| *side == 0);
                let mut joined = Vec::with_capacity(width);
                for (_, l) in &left {
                    for (_, r) in &right {
                        joined.clear();
                        joined.extend_from_slice(l);
                        joined.extend_from_slice(r);
                        e.emit(&0i64, &joined);
                    }
                }
            },
            cfg,
        )?;
        HiveTable::from_output(&out, width)
    }

    /// Group by an integer key column, summing a float column. Returns
    /// `(key, sum, count)` sorted by key.
    pub fn group_sum(
        &self,
        key_col: usize,
        val_col: usize,
        cfg: &JobConfig,
    ) -> Result<Vec<(i64, f64, u64)>> {
        self.check_columns(&[key_col, val_col], "group-sum")?;
        let fold = |vs: &[(f64, u64)]| {
            let mut s = 0.0;
            let mut c = 0u64;
            for (v, n) in vs {
                s += v;
                c += n;
            }
            (s, c)
        };
        let out = run_job::<i64, (f64, u64)>(
            self.len(),
            &|i, e| {
                let row = self.row(i);
                if let (Cell::I(k), Cell::F(v)) = (row[key_col], row[val_col]) {
                    e.emit(&k, &(v, 1u64));
                }
            },
            Some(&|_, vs| fold(&vs)),
            &|k, vs, e| e.emit(k, &fold(vs)),
            cfg,
        )?;
        let mut rows: Vec<(i64, f64, u64)> = out
            .records::<i64, (f64, u64)>()?
            .into_iter()
            .map(|(k, (s, c))| (k, s, c))
            .collect();
        rows.sort_unstable_by_key(|&(k, _, _)| k);
        Ok(rows)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn triples() -> HiveTable {
        // (gene_id, patient_id, value)
        let mut rows = Vec::new();
        for g in 0..4i64 {
            for p in 0..3i64 {
                rows.push(vec![Cell::I(g), Cell::I(p), Cell::F((g * 10 + p) as f64)]);
            }
        }
        HiveTable::new(rows)
    }

    fn gene_meta() -> HiveTable {
        // (gene_id, function)
        HiveTable::new(
            (0..4i64)
                .map(|g| vec![Cell::I(g), Cell::I(if g % 2 == 0 { 100 } else { 700 })])
                .collect(),
        )
    }

    #[test]
    fn cell_round_trip() {
        let cells = vec![Cell::I(-5), Cell::F(1.25)];
        let mut buf = Vec::new();
        cells.write(&mut buf);
        let decoded = crate::record::decode::<Vec<Cell>>(&buf).unwrap();
        assert_eq!(decoded, cells);
    }

    #[test]
    fn filter_keeps_matching_rows() {
        let t = triples();
        let cfg = JobConfig::local(2);
        let f = t
            .filter(|r| matches!(r[0], Cell::I(g) if g < 2), &cfg)
            .unwrap();
        assert_eq!(f.len(), 6);
        for r in f.rows() {
            assert!(matches!(r[0], Cell::I(g) if g < 2));
        }
    }

    #[test]
    fn repartition_join_matches_nested_loop() {
        let t = triples();
        let m = gene_meta();
        let cfg = JobConfig::local(3);
        let joined = t.join(0, &m, 0, &cfg).unwrap();
        assert_eq!(joined.width(), 5);
        // Reference nested loop join.
        let mut expect: Vec<Vec<Cell>> = Vec::new();
        for l in t.rows() {
            for r in m.rows() {
                if l[0] == r[0] {
                    expect.push([l, r].concat());
                }
            }
        }
        let mut joined: Vec<Vec<Cell>> = joined.rows().map(<[Cell]>::to_vec).collect();
        let key = |r: &Vec<Cell>| {
            (
                r[0].as_int().unwrap(),
                r[1].as_int().unwrap(),
                r[4].as_int().unwrap(),
            )
        };
        joined.sort_by_key(key);
        expect.sort_by_key(key);
        assert_eq!(joined, expect);
        assert_eq!(joined.len(), 12, "every triple matches exactly one gene");
    }

    #[test]
    fn join_with_duplicates_crosses() {
        let left = HiveTable::new(vec![
            vec![Cell::I(1), Cell::F(0.1)],
            vec![Cell::I(1), Cell::F(0.2)],
        ]);
        let right = HiveTable::new(vec![
            vec![Cell::I(1), Cell::F(9.0)],
            vec![Cell::I(1), Cell::F(8.0)],
            vec![Cell::I(2), Cell::F(7.0)],
        ]);
        let cfg = JobConfig::local(2);
        let j = left.join(0, &right, 0, &cfg).unwrap();
        assert_eq!(j.len(), 4, "2 x 2 cross product on key 1");
    }

    #[test]
    fn group_sum_aggregates() {
        let t = triples();
        let cfg = JobConfig::local(2);
        let groups = t.group_sum(0, 2, &cfg).unwrap();
        assert_eq!(groups.len(), 4);
        for &(g, s, c) in &groups {
            assert_eq!(c, 3);
            let expect = (0..3).map(|p| (g * 10 + p) as f64).sum::<f64>();
            assert!((s - expect).abs() < 1e-12);
        }
    }

    #[test]
    fn empty_table_operations() {
        let t = HiveTable::default();
        let cfg = JobConfig::local(2);
        assert!(t.filter(|_| true, &cfg).unwrap().is_empty());
        assert!(t.join(0, &triples(), 0, &cfg).unwrap().is_empty());
        assert!(t.group_sum(0, 1, &cfg).unwrap().is_empty());
    }

    #[test]
    fn flat_rows_are_the_rows_given() {
        let rows = vec![
            vec![Cell::I(1), Cell::F(0.5)],
            vec![Cell::I(2), Cell::F(1.5)],
        ];
        let t = HiveTable::new(rows.clone());
        assert_eq!((t.len(), t.width()), (2, 2));
        assert!(t.rows().eq(rows.iter().map(Vec::as_slice)));
        let flat = HiveTable::from_cells(2, rows.concat()).unwrap();
        assert_eq!(flat, t);
        assert!(HiveTable::from_cells(2, vec![Cell::I(1)]).is_err());
        assert!(HiveTable::from_cells(0, vec![]).is_err());
        assert_eq!(HiveTable::new(vec![]).len(), 0);
    }

    #[test]
    #[should_panic(expected = "share one width")]
    fn ragged_rows_are_refused_at_construction() {
        HiveTable::new(vec![vec![Cell::I(1), Cell::I(2)], vec![Cell::I(3)]]);
    }

    /// An out-of-range column is `Error::Invalid`, never a panic in a task
    /// or a silently empty result.
    fn assert_out_of_range<T: std::fmt::Debug>(result: Result<T>) {
        let err = result.expect_err("column past the row width");
        assert!(matches!(err, Error::Invalid(_)), "{err}");
        assert!(err.to_string().contains("out of range"), "{err}");
    }

    #[test]
    fn join_refuses_a_key_past_either_width() {
        let cfg = JobConfig::local(2);
        assert_out_of_range(triples().join(3, &gene_meta(), 0, &cfg));
        assert_out_of_range(triples().join(0, &gene_meta(), 2, &cfg));
    }

    #[test]
    fn group_sum_refuses_a_key_or_value_past_the_width() {
        let cfg = JobConfig::local(2);
        assert_out_of_range(triples().group_sum(3, 2, &cfg));
        assert_out_of_range(triples().group_sum(0, 9, &cfg));
    }

    #[test]
    fn a_filtered_out_table_keeps_its_width() {
        let cfg = JobConfig::local(2);
        let none = triples().filter(|_| false, &cfg).unwrap();
        assert_eq!((none.len(), none.width()), (0, 3));
        assert_out_of_range(none.group_sum(0, 3, &cfg));
    }
}
