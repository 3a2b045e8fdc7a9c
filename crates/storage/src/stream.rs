//! Morsel-driven streaming: fixed-row column batches and the spill reel.
//!
//! A [`Morsel`] is an owned, fixed-row batch of [`Column`]s carved out of a
//! [`TableView`], charged against the [`MemTracker`] for exactly its heap
//! bytes while it is resident. Streaming operators pull morsels from their
//! upstream instead of materializing whole intermediate tables, so the peak
//! working set of a pipeline is the sum of a bounded batch window plus its
//! sinks — not the full table between every operator.
//!
//! A [`BatchReel`] is the streaming base-table representation: morsels
//! pushed in a fixed order, kept resident up to a deterministic byte cap
//! and spilled to disk past it (raw little-endian column images, one
//! contiguous record per batch, in the reel's own temp file). Replay yields
//! batches in exactly push order regardless of how many were spilled or how
//! many threads consume them, which is what keeps streaming results
//! bit-identical to the materializing path: every downstream kernel sees
//! rows in the same order the materialized table would have stored them.
//!
//! Determinism contract (pinned by `tests/streaming_exec.rs`):
//! - replay order == push order, at every batch size and thread count;
//! - tracker charges happen only at serial points (push, window load),
//!   with a fixed-size replay window, so `peak_alloc` / `batches` /
//!   `spill_bytes` are pure functions of (data, batch_rows, budget) and
//!   never of the thread count.

use crate::table::{Column, ColumnarTable, TableView};
use crate::tracker::MemTracker;
use genbase_relational::{DataType, Schema};
use genbase_util::{runtime, Error, Result};
use std::fs::File;
use std::io::{BufReader, BufWriter, Read as _, Write as _};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};

/// Default rows per morsel when a streaming run does not set `--batch-rows`.
pub const DEFAULT_BATCH_ROWS: usize = 1024;

/// Morsels loaded per replay window. Fixed (not thread-derived) so the
/// transient charge for spilled batches — and therefore `peak_alloc` — is
/// identical at every thread count.
const REPLAY_WINDOW: usize = 8;

/// One owned, tracker-charged batch of column data.
#[derive(Debug)]
pub struct Morsel {
    cols: Vec<Column>,
    n_rows: usize,
    tracker: MemTracker,
}

impl Morsel {
    /// Build a morsel from owned columns, charging the tracker.
    pub fn from_columns(tracker: &MemTracker, cols: Vec<Column>) -> Result<Morsel> {
        let n_rows = cols.first().map(Column::len).unwrap_or(0);
        for (i, c) in cols.iter().enumerate() {
            if c.len() != n_rows {
                return Err(Error::invalid(format!("morsel column {i} ragged")));
            }
        }
        let bytes: u64 = cols.iter().map(Column::heap_bytes).sum();
        tracker.charge(bytes)?;
        Ok(Morsel {
            cols,
            n_rows,
            tracker: tracker.clone(),
        })
    }

    /// Carve the `start..end` row range of a view into an owned morsel.
    pub fn carve(
        tracker: &MemTracker,
        view: &TableView<'_>,
        start: usize,
        end: usize,
    ) -> Result<Morsel> {
        if start > end || end > view.n_rows() {
            return Err(Error::invalid(format!(
                "morsel {start}..{end} out of range (rows = {})",
                view.n_rows()
            )));
        }
        let sub = view.subview(start, end)?;
        let cols: Vec<Column> = (0..view.schema().arity())
            .map(|i| sub.column_copy(i))
            .collect();
        Morsel::from_columns(tracker, cols)
    }

    /// Rows in the batch.
    pub fn n_rows(&self) -> usize {
        self.n_rows
    }

    /// Borrow all columns (schema order).
    pub fn columns(&self) -> &[Column] {
        &self.cols
    }

    /// Heap bytes of the batch's column storage.
    pub fn heap_bytes(&self) -> u64 {
        self.cols.iter().map(Column::heap_bytes).sum()
    }

    /// Borrow an integer column.
    pub fn int_col(&self, i: usize) -> Result<&[i64]> {
        match &self.cols[i] {
            Column::Ints(v) => Ok(v),
            Column::Floats(_) => Err(Error::invalid(format!("morsel column {i} is Float"))),
        }
    }

    /// Borrow a float column.
    pub fn float_col(&self, i: usize) -> Result<&[f64]> {
        match &self.cols[i] {
            Column::Floats(v) => Ok(v),
            Column::Ints(_) => Err(Error::invalid(format!("morsel column {i} is Int"))),
        }
    }

    /// Copy only the rows named by `sel` (ascending batch-local positions,
    /// e.g. [`crate::pipeline::SelVec::positions`]) into a new morsel,
    /// charging the tracker for survivor bytes only.
    pub fn gather(&self, sel: &[u32]) -> Result<Morsel> {
        if let Some(&last) = sel.last() {
            if last as usize >= self.n_rows {
                return Err(Error::invalid(format!(
                    "selection position {last} out of range (rows = {})",
                    self.n_rows
                )));
            }
        }
        let cols: Vec<Column> = self
            .cols
            .iter()
            .map(|c| match c {
                Column::Ints(v) => Column::Ints(sel.iter().map(|&i| v[i as usize]).collect()),
                Column::Floats(v) => Column::Floats(sel.iter().map(|&i| v[i as usize]).collect()),
            })
            .collect();
        Morsel::from_columns(&self.tracker, cols)
    }
}

impl Drop for Morsel {
    fn drop(&mut self) {
        self.tracker.release(self.heap_bytes());
    }
}

/// The `(start, end)` row ranges that carve `n_rows` into `batch_rows`-row
/// morsels (the final range is ragged when `batch_rows` does not divide).
/// `batch_rows == 0` is a usage error, not a silent 1-row fallback.
pub fn batch_ranges(n_rows: usize, batch_rows: usize) -> Result<Vec<(usize, usize)>> {
    if batch_rows == 0 {
        return Err(Error::invalid("batch_rows must be at least 1"));
    }
    let mut out = Vec::with_capacity(n_rows.div_ceil(batch_rows).max(1));
    let mut start = 0;
    while start < n_rows {
        let end = (start + batch_rows).min(n_rows);
        out.push((start, end));
        start = end;
    }
    Ok(out)
}

/// Carve a whole view into morsels of `batch_rows` rows each.
pub fn carve_view(
    tracker: &MemTracker,
    view: &TableView<'_>,
    batch_rows: usize,
) -> Result<Vec<Morsel>> {
    batch_ranges(view.n_rows(), batch_rows)?
        .into_iter()
        .map(|(s, e)| Morsel::carve(tracker, view, s, e))
        .collect()
}

/// Reassemble morsels into a [`ColumnarTable`], transferring their tracker
/// charges instead of re-registering the bytes (see
/// [`ColumnarTable::adopt_charged_columns`] for the double-charge this
/// boundary used to hit). Peak while reassembling is the table plus one
/// in-flight batch, never 2x.
pub fn reassemble(
    tracker: &MemTracker,
    schema: Schema,
    morsels: Vec<Morsel>,
) -> Result<ColumnarTable> {
    let arity = schema.arity();
    let mut acc: Vec<Column> = (0..arity)
        .map(|i| match schema.col_type(i) {
            DataType::Int => Column::Ints(Vec::new()),
            DataType::Float => Column::Floats(Vec::new()),
        })
        .collect();
    for m in morsels {
        if m.cols.len() != arity {
            return Err(Error::invalid("morsel arity does not match schema"));
        }
        // Charge the appended copy, then drop the morsel (releasing its
        // charge): the accumulated buffers stay exactly-once accounted.
        tracker.charge(m.heap_bytes())?;
        for (i, c) in m.cols.iter().enumerate() {
            acc[i].append(c)?;
        }
    }
    ColumnarTable::adopt_charged_columns(tracker, schema, acc)
}

static SPILL_SEQ: AtomicU64 = AtomicU64::new(0);

/// Where a pushed batch lives.
enum Slot {
    Resident(Morsel),
    Spilled { offset: u64, n_rows: usize },
}

/// A streaming base table: batches in push order, resident up to a byte
/// cap, spilled to disk past it.
pub struct BatchReel {
    tracker: MemTracker,
    schema: Schema,
    slots: Vec<Slot>,
    resident_bytes: u64,
    resident_cap: u64,
    spill_dir: Option<PathBuf>,
    spill_path: Option<PathBuf>,
    writer: Option<BufWriter<File>>,
    spill_offset: u64,
    total_rows: usize,
}

/// Seek-aware buffered reader over the spill file: tracks its own byte
/// position and issues [`BufReader::seek_relative`] only when a requested
/// offset is not the next sequential byte, so the in-push-order replay and
/// window scans (monotonically increasing, contiguous offsets) never drop
/// the read buffer.
struct SpillReader {
    inner: BufReader<File>,
    pos: u64,
}

impl SpillReader {
    fn open(path: &Path) -> Result<SpillReader> {
        let file = File::open(path)
            .map_err(|e| Error::invalid(format!("spill open {}: {e}", path.display())))?;
        Ok(SpillReader {
            inner: BufReader::new(file),
            pos: 0,
        })
    }

    fn read_at(&mut self, offset: u64, buf: &mut [u8]) -> Result<()> {
        let delta = offset as i64 - self.pos as i64;
        if delta != 0 {
            self.inner
                .seek_relative(delta)
                .map_err(|e| Error::invalid(format!("spill seek: {e}")))?;
            self.pos = offset;
        }
        self.inner
            .read_exact(buf)
            .map_err(|e| Error::invalid(format!("spill read: {e}")))?;
        self.pos += buf.len() as u64;
        Ok(())
    }
}

impl BatchReel {
    /// New reel. Batches stay resident while their summed bytes fit
    /// `resident_cap`; later batches spill to a temp file under
    /// `spill_dir` (or the system temp directory).
    pub fn new(
        tracker: &MemTracker,
        schema: Schema,
        resident_cap: u64,
        spill_dir: Option<&Path>,
    ) -> BatchReel {
        BatchReel {
            tracker: tracker.clone(),
            schema,
            slots: Vec::new(),
            resident_bytes: 0,
            resident_cap,
            spill_dir: spill_dir.map(Path::to_path_buf),
            spill_path: None,
            writer: None,
            spill_offset: 0,
            total_rows: 0,
        }
    }

    /// The reel's schema.
    pub fn schema(&self) -> &Schema {
        &self.schema
    }

    /// Total rows pushed.
    pub fn total_rows(&self) -> usize {
        self.total_rows
    }

    /// Batches pushed.
    pub fn n_batches(&self) -> usize {
        self.slots.len()
    }

    /// Bytes currently resident (charged against the tracker).
    pub fn resident_bytes(&self) -> u64 {
        self.resident_bytes
    }

    /// Cumulative bytes written to the spill file.
    pub fn spill_bytes(&self) -> u64 {
        self.spill_offset
    }

    /// Logical bytes of the whole reel, resident and spilled.
    pub fn span_bytes(&self) -> u64 {
        (self.total_rows * self.schema.arity() * 8) as u64
    }

    /// Push the next batch. Deterministic policy: a batch stays resident
    /// iff it fits under the cap at push time, so the resident/spilled
    /// split depends only on the data and the cap.
    pub fn push(&mut self, morsel: Morsel) -> Result<()> {
        if morsel.cols.len() != self.schema.arity() {
            return Err(Error::invalid("batch arity does not match reel schema"));
        }
        self.total_rows += morsel.n_rows();
        self.tracker.note_batch();
        let bytes = morsel.heap_bytes();
        if self.resident_bytes + bytes <= self.resident_cap {
            self.resident_bytes += bytes;
            self.slots.push(Slot::Resident(morsel));
            return Ok(());
        }
        let offset = self.write_spilled(&morsel)?;
        self.tracker.note_spill(bytes);
        self.slots.push(Slot::Spilled {
            offset,
            n_rows: morsel.n_rows(),
        });
        Ok(())
    }

    fn write_spilled(&mut self, morsel: &Morsel) -> Result<u64> {
        if self.writer.is_none() {
            let dir = self.spill_dir.clone().unwrap_or_else(std::env::temp_dir);
            let name = format!(
                "genbase-spill-{}-{}.bin",
                std::process::id(),
                SPILL_SEQ.fetch_add(1, Ordering::Relaxed)
            );
            let path = dir.join(name);
            let file = File::create(&path)
                .map_err(|e| Error::invalid(format!("spill create {}: {e}", path.display())))?;
            self.spill_path = Some(path);
            self.writer = Some(BufWriter::new(file));
        }
        let offset = self.spill_offset;
        let writer = self.writer.as_mut().expect("spill writer open");
        let write_err = |e: std::io::Error| Error::invalid(format!("spill write: {e}"));
        for col in &morsel.cols {
            match col {
                Column::Ints(v) => {
                    for x in v {
                        writer.write_all(&x.to_le_bytes()).map_err(write_err)?;
                    }
                }
                Column::Floats(v) => {
                    for x in v {
                        writer.write_all(&x.to_le_bytes()).map_err(write_err)?;
                    }
                }
            }
            self.spill_offset += (col.len() * 8) as u64;
        }
        // Flush per spilled batch: the reel stays replayable (readers open
        // the file by path) while later pushes are still spilling.
        writer
            .flush()
            .map_err(|e| Error::invalid(format!("spill flush: {e}")))?;
        Ok(offset)
    }

    fn read_spilled(&self, reader: &mut SpillReader, offset: u64, n_rows: usize) -> Result<Morsel> {
        let mut cols = Vec::with_capacity(self.schema.arity());
        let mut buf = vec![0u8; n_rows * 8];
        for i in 0..self.schema.arity() {
            reader.read_at(offset + (i * n_rows * 8) as u64, &mut buf)?;
            let col = match self.schema.col_type(i) {
                DataType::Int => Column::Ints(
                    buf.chunks_exact(8)
                        .map(|c| i64::from_le_bytes(c.try_into().expect("8-byte chunk")))
                        .collect(),
                ),
                DataType::Float => Column::Floats(
                    buf.chunks_exact(8)
                        .map(|c| f64::from_le_bytes(c.try_into().expect("8-byte chunk")))
                        .collect(),
                ),
            };
            cols.push(col);
        }
        Morsel::from_columns(&self.tracker, cols)
    }

    /// Replay every batch in push order, applying `f` serially.
    pub fn replay(&self, mut f: impl FnMut(&Morsel) -> Result<()>) -> Result<()> {
        let mut reader = self.open_reader()?;
        for slot in &self.slots {
            match slot {
                Slot::Resident(m) => f(m)?,
                Slot::Spilled { offset, n_rows } => {
                    let reader = reader.as_mut().ok_or_else(|| {
                        Error::invalid("reel has spilled batches but no spill file")
                    })?;
                    let m = self.read_spilled(reader, *offset, *n_rows)?;
                    f(&m)?;
                }
            }
        }
        Ok(())
    }

    /// One fused pass over the reel, in fixed-size windows: each window's
    /// spilled batches are loaded at a serial point (bounding the transient
    /// charge independently of `threads`), `probe` runs over the window on
    /// the shared runtime pool (it must not touch the tracker), then `merge`
    /// consumes each batch together with its probe result serially, in
    /// exact push order. This is the primitive the streaming pipeline
    /// builds on — a parallel filter/semijoin probe whose
    /// survivors are folded into a sink (scatter, CSV text, group
    /// accumulator) at a serial point, so sink state mutates in the same
    /// order the materialized table would have stored the rows.
    pub fn window_scan<T: Send>(
        &self,
        threads: usize,
        probe: impl Fn(&Morsel) -> T + Sync,
        mut merge: impl FnMut(&Morsel, T) -> Result<()>,
    ) -> Result<()> {
        let mut reader = self.open_reader()?;
        for window in self.slots.chunks(REPLAY_WINDOW) {
            // Serial point: materialize the window's spilled batches.
            let mut loaded: Vec<Option<Morsel>> = Vec::with_capacity(window.len());
            for slot in window {
                match slot {
                    Slot::Resident(_) => loaded.push(None),
                    Slot::Spilled { offset, n_rows } => {
                        let reader = reader.as_mut().ok_or_else(|| {
                            Error::invalid("reel has spilled batches but no spill file")
                        })?;
                        loaded.push(Some(self.read_spilled(reader, *offset, *n_rows)?));
                    }
                }
            }
            let batch_of = |i: usize| -> &Morsel {
                match (&window[i], &loaded[i]) {
                    (Slot::Resident(m), _) => m,
                    (_, Some(m)) => m,
                    _ => unreachable!("spilled slot loaded above"),
                }
            };
            let probed = runtime::parallel_map(threads, window.len(), |i| probe(batch_of(i)));
            // Serial point: in-push-order merge of batch + probe result.
            for (i, t) in probed.into_iter().enumerate() {
                merge(batch_of(i), t)?;
            }
        }
        Ok(())
    }

    fn open_reader(&self) -> Result<Option<SpillReader>> {
        match &self.spill_path {
            None => Ok(None),
            Some(p) => SpillReader::open(p).map(Some),
        }
    }
}

impl Drop for BatchReel {
    fn drop(&mut self) {
        self.writer = None;
        if let Some(p) = &self.spill_path {
            let _ = std::fs::remove_file(p);
        }
    }
}

impl std::fmt::Debug for BatchReel {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("BatchReel")
            .field("batches", &self.slots.len())
            .field("total_rows", &self.total_rows)
            .field("resident_bytes", &self.resident_bytes)
            .field("spill_bytes", &self.spill_offset)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::table::ColumnarTable;

    fn triple_schema() -> Schema {
        Schema::new(&[
            ("gene_id", DataType::Int),
            ("patient_id", DataType::Int),
            ("value", DataType::Float),
        ])
        .unwrap()
    }

    fn sample_table(tracker: &MemTracker, n: usize) -> ColumnarTable {
        ColumnarTable::from_columns(
            tracker,
            triple_schema(),
            vec![
                Column::Ints((0..n as i64).collect()),
                Column::Ints((0..n as i64).map(|i| i * 7 % 13).collect()),
                Column::Floats((0..n).map(|i| i as f64 * 0.5 - 3.0).collect()),
            ],
        )
        .unwrap()
    }

    #[test]
    fn ranges_cover_exactly_with_ragged_tail() {
        assert_eq!(batch_ranges(10, 4).unwrap(), vec![(0, 4), (4, 8), (8, 10)]);
        assert_eq!(batch_ranges(4, 4).unwrap(), vec![(0, 4)]);
        assert_eq!(batch_ranges(3, 5).unwrap(), vec![(0, 3)]);
        assert_eq!(batch_ranges(0, 5).unwrap(), Vec::<(usize, usize)>::new());
        // batch_rows = 0 is a usage error, not a silent 1-row fallback.
        assert!(batch_ranges(3, 0).is_err());
        assert!(batch_ranges(0, 0).is_err());
    }

    #[test]
    fn carve_reassemble_round_trip_transfers_charges() {
        let t = MemTracker::unlimited();
        let table = sample_table(&t, 23);
        let bytes = table.heap_bytes();
        let morsels = carve_view(&t, &table.view(), 7).unwrap();
        assert_eq!(morsels.len(), 4);
        assert_eq!(t.current(), 2 * bytes, "table + carved copies");
        let rebuilt = reassemble(&t, triple_schema(), morsels).unwrap();
        assert_eq!(rebuilt.n_rows(), 23);
        assert_eq!(rebuilt.int_col(0).unwrap(), table.int_col(0).unwrap());
        assert_eq!(rebuilt.float_col(2).unwrap(), table.float_col(2).unwrap());
        assert_eq!(t.current(), 2 * bytes, "reassembly holds exactly one copy");
        assert!(
            t.peak() <= 2 * bytes + 7 * 3 * 8,
            "peak bounded by one in-flight batch, not 2x ({})",
            t.peak()
        );
        drop(rebuilt);
        drop(table);
        assert_eq!(t.current(), 0);
    }

    #[test]
    fn reel_spills_past_cap_and_replays_in_push_order() {
        let t = MemTracker::unlimited();
        let table = sample_table(&t, 40);
        // Cap fits two 5-row batches (5 rows x 3 cols x 8 B = 120 B each).
        let mut reel = BatchReel::new(&t, triple_schema(), 240, None);
        for (s, e) in batch_ranges(40, 5).unwrap() {
            reel.push(Morsel::carve(&t, &table.view(), s, e).unwrap())
                .unwrap();
        }
        assert_eq!(reel.n_batches(), 8);
        assert_eq!(reel.total_rows(), 40);
        assert_eq!(reel.resident_bytes(), 240);
        assert_eq!(reel.spill_bytes(), 6 * 120, "six batches spilled");
        assert_eq!(t.spill_bytes(), 6 * 120);
        assert_eq!(t.batches(), 8);
        let mut ids = Vec::new();
        reel.replay(|m| {
            ids.extend_from_slice(m.int_col(0)?);
            Ok(())
        })
        .unwrap();
        assert_eq!(ids, (0..40).collect::<Vec<i64>>());
        let path = reel.spill_path.clone().unwrap();
        assert!(path.exists());
        drop(reel);
        assert!(!path.exists(), "spill file removed on drop");
    }

    /// The buffered writer/reader must not change the on-disk format: the
    /// spill file is still raw little-endian column images, one contiguous
    /// record per batch, in push order.
    #[test]
    fn spill_file_bytes_are_raw_le_column_images() {
        let t = MemTracker::unlimited();
        let table = sample_table(&t, 40);
        let mut reel = BatchReel::new(&t, triple_schema(), 240, None);
        for (s, e) in batch_ranges(40, 5).unwrap() {
            reel.push(Morsel::carve(&t, &table.view(), s, e).unwrap())
                .unwrap();
        }
        // Batches 2..8 (rows 10..40) spilled; expected image is each
        // batch's columns back to back, values little-endian.
        let mut want: Vec<u8> = Vec::new();
        for (s, e) in batch_ranges(40, 5).unwrap().into_iter().skip(2) {
            for v in &table.int_col(0).unwrap()[s..e] {
                want.extend_from_slice(&v.to_le_bytes());
            }
            for v in &table.int_col(1).unwrap()[s..e] {
                want.extend_from_slice(&v.to_le_bytes());
            }
            for v in &table.float_col(2).unwrap()[s..e] {
                want.extend_from_slice(&v.to_le_bytes());
            }
        }
        let path = reel.spill_path.clone().unwrap();
        let got = std::fs::read(&path).unwrap();
        assert_eq!(got, want, "spill bytes on disk changed");
    }

    /// `window_scan` merges batch + probe result in exact push order at
    /// every thread count, and the probe sees the same batches `replay`
    /// would.
    #[test]
    fn window_scan_merges_in_push_order_at_every_thread_count() {
        let t = MemTracker::unlimited();
        let table = sample_table(&t, 40);
        let mut reel = BatchReel::new(&t, triple_schema(), 240, None);
        for (s, e) in batch_ranges(40, 3).unwrap() {
            reel.push(Morsel::carve(&t, &table.view(), s, e).unwrap())
                .unwrap();
        }
        let mut serial_ids = Vec::new();
        reel.replay(|m| {
            serial_ids.extend_from_slice(m.int_col(0)?);
            Ok(())
        })
        .unwrap();
        for threads in [1usize, 3, 8] {
            let mut ids = Vec::new();
            reel.window_scan(
                threads,
                |m| {
                    // Even-id survivors, as batch-local positions.
                    m.int_col(0)
                        .unwrap()
                        .iter()
                        .enumerate()
                        .filter(|(_, g)| *g % 2 == 0)
                        .map(|(i, _)| i as u32)
                        .collect::<Vec<u32>>()
                },
                |m, sel| {
                    let col = m.int_col(0)?;
                    ids.extend(sel.iter().map(|&i| col[i as usize]));
                    Ok(())
                },
            )
            .unwrap();
            let want: Vec<i64> = serial_ids.iter().copied().filter(|g| g % 2 == 0).collect();
            assert_eq!(ids, want, "threads = {threads}");
        }
    }

    #[test]
    fn gather_charges_only_survivor_bytes() {
        let t = MemTracker::unlimited();
        let table = sample_table(&t, 10);
        let m = Morsel::carve(&t, &table.view(), 0, 10).unwrap();
        let before = t.current();
        let picked = m.gather(&[1, 4, 7]).unwrap();
        assert_eq!(picked.n_rows(), 3);
        assert_eq!(picked.int_col(0).unwrap(), &[1, 4, 7]);
        assert_eq!(t.current() - before, 3 * 3 * 8);
        assert!(m.gather(&[3, 10]).is_err(), "out-of-range position");
        drop(picked);
        assert_eq!(t.current(), before);
    }

    #[test]
    fn unlimited_cap_never_spills() {
        let t = MemTracker::unlimited();
        let table = sample_table(&t, 16);
        let mut reel = BatchReel::new(&t, triple_schema(), u64::MAX, None);
        for (s, e) in batch_ranges(16, 6).unwrap() {
            reel.push(Morsel::carve(&t, &table.view(), s, e).unwrap())
                .unwrap();
        }
        assert_eq!(reel.spill_bytes(), 0);
        assert_eq!(t.spill_bytes(), 0);
        assert_eq!(reel.resident_bytes(), 16 * 24);
    }
}
