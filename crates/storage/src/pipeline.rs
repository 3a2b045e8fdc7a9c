//! Fused morsel pipeline: selection vectors and one-pass stage fusion.
//!
//! The streaming lowering of the SQL engines (`--stream`) composes
//! Filter→Join(semijoin probe)→Restructure/GroupAgg/export over a
//! [`BatchReel`] into **one pass per morsel**: a parallel *probe* stage
//! marks each batch's survivors in a [`SelVec`] (positions, not copies), and
//! a serial in-push-order *sink* stage consumes the survivors directly —
//! scattering into the dense pivot target, serializing CSV text, or folding
//! a group aggregate — without an intermediate survivor table ever existing.
//!
//! Determinism argument (the PR 8 contract): probes are pure per-batch
//! functions, so their results are independent of the thread count; every
//! stateful effect (scatter last-write-wins, CSV append order, f64 group
//! accumulation) happens in the sink, which [`BatchReel::window_scan`] runs
//! serially in exact push order. The fused pipeline therefore touches sink
//! state in precisely the sequence the materialized table would have stored
//! the rows — at every batch size and thread count — which is what keeps
//! streaming output bit-identical to the materializing path.
//!
//! Accounting contract: a selection is positions only ([`SelVec::heap_bytes`]
//! is its `u32` footprint, never charged per batch on the hot path), so
//! `bytes_out`/`peak_alloc` on a fused cell reflect only what the pipeline
//! actually materializes (the pivot target, the CSV text, the aggregate) —
//! survivor rows are *noted* via [`crate::MemTracker::note_selected`] and
//! surface as the `sel rows` explain column instead of as copied bytes.

use crate::stream::{BatchReel, Morsel};
use crate::table::Column;
use genbase_util::csv::{self, CsvField};
use genbase_util::{Error, IdIndex, Result};
use std::collections::HashMap;

/// A selection vector: the ascending batch-local positions of the rows
/// that survive a filter/semijoin probe. Marking survivors instead of
/// copying them is what lets fused stages share one pass over a morsel.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct SelVec {
    pos: Vec<u32>,
}

impl SelVec {
    /// Empty selection.
    pub fn new() -> SelVec {
        SelVec::default()
    }

    /// Empty selection with room for `n` survivors.
    pub fn with_capacity(n: usize) -> SelVec {
        SelVec {
            pos: Vec::with_capacity(n),
        }
    }

    /// Selection of every row of an `n_rows` batch.
    pub fn all(n_rows: usize) -> SelVec {
        SelVec {
            pos: (0..n_rows as u32).collect(),
        }
    }

    /// Evaluate `pred` over the batch-local positions `0..n_rows` and keep
    /// the survivors (ascending by construction).
    pub fn from_predicate(n_rows: usize, mut pred: impl FnMut(usize) -> bool) -> SelVec {
        SelVec {
            pos: (0..n_rows as u32).filter(|&i| pred(i as usize)).collect(),
        }
    }

    /// Append a survivor position. Positions must be pushed in ascending
    /// order; out-of-order pushes are a caller bug surfaced as an error.
    pub fn push(&mut self, i: u32) -> Result<()> {
        if let Some(&last) = self.pos.last() {
            if i <= last {
                return Err(Error::invalid(format!(
                    "selection position {i} not above previous {last}"
                )));
            }
        }
        self.pos.push(i);
        Ok(())
    }

    /// Number of survivors.
    pub fn len(&self) -> usize {
        self.pos.len()
    }

    /// True when no row survived.
    pub fn is_empty(&self) -> bool {
        self.pos.is_empty()
    }

    /// The survivor positions, ascending.
    pub fn positions(&self) -> &[u32] {
        &self.pos
    }

    /// Heap footprint of the selection itself (the `u32` positions).
    pub fn heap_bytes(&self) -> u64 {
        (self.pos.capacity() * std::mem::size_of::<u32>()) as u64
    }
}

/// One fused Filter→Join(semijoin)→sink pass over a reel: `probe` marks
/// each batch's survivors in parallel (it must be a pure per-batch
/// function), `sink` consumes each batch with its selection serially in
/// exact push order. Returns the total survivor count across the pass.
pub fn fused_scan(
    reel: &BatchReel,
    threads: usize,
    probe: impl Fn(&Morsel) -> SelVec + Sync,
    mut sink: impl FnMut(&Morsel, &SelVec) -> Result<()>,
) -> Result<u64> {
    let mut survivors: u64 = 0;
    reel.window_scan(threads, probe, |m, sel| {
        survivors += sel.len() as u64;
        sink(m, &sel)
    })?;
    Ok(survivors)
}

/// Id → dense output coordinate, as [`scatter_selected`] resolves it: the
/// engines pass an [`IdIndex`]; a plain `HashMap` (what the repo benchmark
/// builds) answers the same question.
pub trait SlotLookup {
    /// Output slot of `id`, if it is selected.
    fn slot(&self, id: i64) -> Option<usize>;
}

impl SlotLookup for IdIndex {
    #[inline]
    fn slot(&self, id: i64) -> Option<usize> {
        self.get(id)
    }
}

impl SlotLookup for HashMap<i64, usize> {
    #[inline]
    fn slot(&self, id: i64) -> Option<usize> {
        self.get(&id).copied()
    }
}

/// Scatter a batch's selected `(row_id, col_id, value)` triples into a
/// dense row-major buffer, exactly as [`genbase_relational::pivot_to_dense`]
/// would for the survivor rows: ids absent from the index maps are skipped,
/// duplicate assignments keep the last value (guaranteed by the serial
/// in-push-order sink).
// Nine positional arguments: the repo benchmark calls this signature, so
// it is allowed rather than regrouped.
#[allow(clippy::too_many_arguments)]
pub fn scatter_selected<R: SlotLookup, C: SlotLookup>(
    m: &Morsel,
    sel: &SelVec,
    row_col: usize,
    col_col: usize,
    val_col: usize,
    row_of: &R,
    col_of: &C,
    n_cols: usize,
    data: &mut [f64],
) -> Result<()> {
    let rows = m.int_col(row_col)?;
    let cols = m.int_col(col_col)?;
    let vals = m.float_col(val_col)?;
    for &i in sel.positions() {
        let i = i as usize;
        if let (Some(ri), Some(ci)) = (row_of.slot(rows[i]), col_of.slot(cols[i])) {
            data[ri * n_cols + ci] = vals[i];
        }
    }
    Ok(())
}

/// Serialize a batch's selected rows as CSV, appending to `out`. Built on
/// the same [`genbase_util::csv`] row writer as
/// [`genbase_relational::export_csv`], so the concatenated chunks are
/// byte-identical to exporting a materialized survivor table (the format
/// has no header row).
pub fn csv_selected(m: &Morsel, sel: &SelVec, out: &mut String) {
    for &i in sel.positions() {
        let i = i as usize;
        csv::write_row(
            out,
            m.columns().iter().map(|c| match c {
                Column::Ints(v) => CsvField::Int(v[i]),
                Column::Floats(v) => CsvField::Float(v[i]),
            }),
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::convert::triple_schema;
    use crate::stream::batch_ranges;
    use crate::table::ColumnarTable;
    use crate::tracker::MemTracker;

    fn sample_table(tracker: &MemTracker, n: usize) -> ColumnarTable {
        ColumnarTable::from_columns(
            tracker,
            triple_schema(),
            vec![
                Column::Ints((0..n as i64).map(|i| i % 11).collect()),
                Column::Ints((0..n as i64).map(|i| i * 7 % 13).collect()),
                Column::Floats((0..n).map(|i| i as f64 * 0.5 - 3.0).collect()),
            ],
        )
        .unwrap()
    }

    fn reel_of(tracker: &MemTracker, table: &ColumnarTable, batch_rows: usize) -> BatchReel {
        let mut reel = BatchReel::new(tracker, triple_schema(), u64::MAX, None);
        for (s, e) in batch_ranges(table.n_rows(), batch_rows).unwrap() {
            reel.push(Morsel::carve(tracker, &table.view(), s, e).unwrap())
                .unwrap();
        }
        reel
    }

    #[test]
    fn selvec_basics() {
        let sel = SelVec::from_predicate(6, |i| i % 2 == 0);
        assert_eq!(sel.positions(), &[0, 2, 4]);
        assert_eq!(sel.len(), 3);
        assert!(!sel.is_empty());
        assert_eq!(SelVec::all(3).positions(), &[0, 1, 2]);
        assert!(SelVec::new().is_empty());
        let mut s = SelVec::new();
        s.push(2).unwrap();
        s.push(5).unwrap();
        assert!(s.push(5).is_err(), "non-ascending push rejected");
        assert_eq!(s.positions(), &[2, 5]);
    }

    #[test]
    fn fused_scan_matches_replayed_filter_at_every_thread_count() {
        let t = MemTracker::unlimited();
        let table = sample_table(&t, 100);
        let reel = reel_of(&t, &table, 7);
        // Reference: serial replay + copying filter.
        let mut want = Vec::new();
        reel.replay(|m| {
            let g = m.int_col(0)?;
            let v = m.float_col(2)?;
            for i in 0..m.n_rows() {
                if g[i] % 3 == 0 {
                    want.push(v[i].to_bits());
                }
            }
            Ok(())
        })
        .unwrap();
        for threads in [1usize, 3, 8] {
            let mut got = Vec::new();
            let survivors = fused_scan(
                &reel,
                threads,
                |m| {
                    let g = m.int_col(0).unwrap();
                    SelVec::from_predicate(m.n_rows(), |i| g[i] % 3 == 0)
                },
                |m, sel| {
                    let v = m.float_col(2)?;
                    got.extend(sel.positions().iter().map(|&i| v[i as usize].to_bits()));
                    Ok(())
                },
            )
            .unwrap();
            assert_eq!(got, want, "threads = {threads}");
            assert_eq!(survivors as usize, want.len());
        }
    }

    #[test]
    fn csv_selected_matches_export_of_gathered_survivors() {
        let t = MemTracker::unlimited();
        let table = sample_table(&t, 50);
        let reel = reel_of(&t, &table, 9);
        let mut fused = String::new();
        fused_scan(
            &reel,
            3,
            |m| {
                let p = m.int_col(1).unwrap();
                SelVec::from_predicate(m.n_rows(), |i| p[i] % 2 == 1)
            },
            |m, sel| {
                csv_selected(m, sel, &mut fused);
                Ok(())
            },
        )
        .unwrap();
        // Reference: gather the survivors, export via the relational path.
        let mut want = String::new();
        reel.replay(|m| {
            let p = m.int_col(1)?;
            let sel = SelVec::from_predicate(m.n_rows(), |i| p[i] % 2 == 1);
            let picked = m.columns().iter().map(|c| c.gather(sel.positions()));
            let chunk =
                genbase_relational::ColumnTable::from_columns(triple_schema(), picked.collect())?;
            want.push_str(&genbase_relational::export_csv(
                &chunk,
                &genbase_util::Budget::unlimited(),
            )?);
            Ok(())
        })
        .unwrap();
        assert_eq!(fused, want);
    }

    #[test]
    fn scatter_selected_matches_pivot_semantics() {
        let t = MemTracker::unlimited();
        let table = sample_table(&t, 80);
        let reel = reel_of(&t, &table, 11);
        let row_ids: Vec<i64> = (0..13).collect(); // patients
        let col_ids: Vec<i64> = (0..11).rev().collect(); // genes, reversed order
        let row_of: HashMap<i64, usize> =
            row_ids.iter().enumerate().map(|(i, &id)| (id, i)).collect();
        let col_of: HashMap<i64, usize> =
            col_ids.iter().enumerate().map(|(i, &id)| (id, i)).collect();
        let mut data = vec![0.0; row_ids.len() * col_ids.len()];
        fused_scan(
            &reel,
            8,
            |m| SelVec::all(m.n_rows()),
            |m, sel| scatter_selected(m, sel, 1, 0, 2, &row_of, &col_of, col_ids.len(), &mut data),
        )
        .unwrap();
        // The engines' lookup type scatters identically.
        let (row_ix, col_ix) = (IdIndex::new(&row_ids), IdIndex::new(&col_ids));
        let mut indexed = vec![0.0; data.len()];
        fused_scan(
            &reel,
            8,
            |m| SelVec::all(m.n_rows()),
            |m, sel| {
                scatter_selected(
                    m,
                    sel,
                    1,
                    0,
                    2,
                    &row_ix,
                    &col_ix,
                    col_ids.len(),
                    &mut indexed,
                )
            },
        )
        .unwrap();
        assert_eq!(indexed, data);
        // Reference: the relational pivot over the materialized table.
        let rel = genbase_relational::ColumnTable::from_columns(
            triple_schema(),
            vec![
                genbase_relational::ColumnData::Ints(table.int_col(0).unwrap().to_vec()),
                genbase_relational::ColumnData::Ints(table.int_col(1).unwrap().to_vec()),
                genbase_relational::ColumnData::Floats(table.float_col(2).unwrap().to_vec()),
            ],
        )
        .unwrap();
        let dense = genbase_relational::pivot_to_dense(
            &rel,
            1,
            0,
            2,
            &row_ids,
            &col_ids,
            &genbase_util::Budget::unlimited(),
        )
        .unwrap();
        assert_eq!(data, dense.data);
    }
}
