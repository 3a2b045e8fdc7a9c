//! Morsel-driven streaming: fixed-row column batches and the spill reel.
//!
//! A [`Morsel`] is an owned, fixed-row batch of [`Column`]s carved out of a
//! [`TableView`], charged against the [`MemTracker`] for exactly its heap
//! bytes while it is resident. Streaming operators pull morsels from their
//! upstream instead of materializing whole intermediate tables, so the peak
//! working set of a pipeline is the sum of a bounded batch window plus its
//! sinks — not the full table between every operator.
//!
//! A [`Spool`] is the streaming base table on disk: every batch as one
//! contiguous record of raw little-endian column images, written once,
//! sequentially, plus the `(offset, n_rows)` directory over them. It is
//! immutable once built and shared: a dataset's triples are spooled once
//! and every cell of that dataset reads the same file, which is removed
//! when the spool drops. It is never held in memory — the resident part of
//! a streaming table is each cell's own, under the cell's own budget.
//!
//! A [`BatchReel`] is one cell's view of such a table: batches in a fixed
//! order, the ones that fit a deterministic byte cap resident and charged
//! to the cell's [`MemTracker`], the rest read back from the spool through
//! a bounded window. [`BatchReel::open`] builds it over a shared spool;
//! [`BatchReel::new`] + [`BatchReel::push`] build the same thing batch by
//! batch, spilling past the cap into a private spool. Replay yields batches
//! in exactly push order regardless of how many live on disk or how many
//! threads consume them, which is what keeps streaming results bit-identical
//! to the materializing path: every downstream kernel sees rows in the same
//! order the materialized table would have stored them.
//!
//! Determinism contract (pinned by `tests/streaming_exec.rs`):
//! - replay order == push order, at every batch size and thread count;
//! - tracker charges happen only at serial points (open or push, window
//!   load), with a fixed-size replay window, so `peak_alloc` / `batches` /
//!   `spill_bytes` are pure functions of (data, batch_rows, budget) and
//!   never of the thread count — nor of whether the reel was opened over a
//!   shared spool or pushed; a cell's `spill_bytes` are the bytes of its
//!   reel that live only on disk.

use crate::table::{Column, TableView};
use crate::tracker::{MemTracker, Reservation};
use genbase_relational::{DataType, Schema};
use genbase_util::{faults, runtime, Error, Result};
use std::fs::File;
use std::io::{BufReader, Read as _, Seek as _, SeekFrom, Write as _};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

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
    charge: Reservation,
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
        let charge = tracker.reserve(cols.iter().map(Column::heap_bytes).sum())?;
        Ok(Morsel {
            cols,
            n_rows,
            charge,
        })
    }

    /// Carve the `start..end` row range of a view into an owned morsel.
    pub fn carve(
        tracker: &MemTracker,
        view: &TableView<'_>,
        start: usize,
        end: usize,
    ) -> Result<Morsel> {
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
        self.charge.bytes()
    }

    /// Borrow an integer column.
    pub fn int_col(&self, i: usize) -> Result<&[i64]> {
        self.cols[i].ints()
    }

    /// Borrow a float column.
    pub fn float_col(&self, i: usize) -> Result<&[f64]> {
        self.cols[i].floats()
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

static SPILL_SEQ: AtomicU64 = AtomicU64::new(0);

/// Batches on disk: raw little-endian column images, one contiguous record
/// per batch in append order, plus the `(offset, n_rows)` directory that
/// finds them again. Appended to sequentially while it is being built and
/// immutable once shared (`Arc<Spool>`); the file is removed when the spool
/// drops, so a build that fails half way leaves nothing behind.
///
/// A dataset's whole triple relation is spooled once and every streaming
/// cell of that dataset opens its own [`BatchReel`] over it
/// ([`BatchReel::open`]); a reel filled by [`BatchReel::push`] keeps the
/// batches it spills in a private spool written by the same code.
pub struct Spool {
    schema: Schema,
    path: PathBuf,
    /// Append handle, unbuffered: a column image is one `write_all`, so a
    /// record is readable (by path) as soon as `append` returns.
    file: File,
    /// `(offset, n_rows)` of each record, in append order.
    dir: Vec<(u64, usize)>,
    bytes: u64,
}

impl Spool {
    /// Create an empty spool file under `spill_dir` (or the system temp
    /// directory).
    pub fn create(schema: Schema, spill_dir: Option<&Path>) -> Result<Spool> {
        let name = format!(
            "genbase-spill-{}-{}.bin",
            std::process::id(),
            SPILL_SEQ.fetch_add(1, Ordering::Relaxed)
        );
        let path = spill_dir
            .map_or_else(std::env::temp_dir, Path::to_path_buf)
            .join(name);
        let file = File::create(&path)
            .map_err(|e| Error::invalid(format!("spill create {}: {e}", path.display())))?;
        Ok(Spool {
            schema,
            path,
            file,
            dir: Vec::new(),
            bytes: 0,
        })
    }

    /// Append one batch as a contiguous record and return its offset. A
    /// failed write (disk full; the `spool.write` fault site) is a typed
    /// error and the record is not listed: the next append overwrites
    /// whatever part of it reached the file.
    pub fn append(&mut self, cols: &[Column]) -> Result<u64> {
        let n_rows = cols.first().map_or(0, Column::len);
        if cols.len() != self.schema.arity() || cols.iter().any(|c| c.len() != n_rows) {
            return Err(Error::invalid("batch shape does not match spool schema"));
        }
        let write_err = |e: std::io::Error| Error::invalid(format!("spill write: {e}"));
        let offset = self.bytes;
        self.file.seek(SeekFrom::Start(offset)).map_err(write_err)?;
        let mut image = vec![0u8; n_rows * 8];
        for col in cols {
            let cells = image.chunks_exact_mut(8);
            match col {
                Column::Ints(v) => {
                    cells
                        .zip(v)
                        .for_each(|(b, x)| b.copy_from_slice(&x.to_le_bytes()));
                }
                Column::Floats(v) => {
                    cells
                        .zip(v)
                        .for_each(|(b, x)| b.copy_from_slice(&x.to_le_bytes()));
                }
            }
            if let Some(torn) = faults::write_action("spool.write").map_err(write_err)? {
                // The disk filled part way through the image.
                let _ = self.file.write_all(&image[..torn.min(image.len())]);
                return Err(write_err(std::io::ErrorKind::WriteZero.into()));
            }
            self.file.write_all(&image).map_err(write_err)?;
        }
        self.bytes += (n_rows * cols.len() * 8) as u64;
        self.dir.push((offset, n_rows));
        Ok(offset)
    }

    /// Where the spool file lives.
    pub fn path(&self) -> &Path {
        &self.path
    }

    /// Bytes on disk.
    pub fn bytes(&self) -> u64 {
        self.bytes
    }
}

impl Drop for Spool {
    fn drop(&mut self) {
        let _ = std::fs::remove_file(&self.path);
    }
}

impl std::fmt::Debug for Spool {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Spool")
            .field("path", &self.path)
            .field("batches", &self.dir.len())
            .field("bytes", &self.bytes)
            .finish()
    }
}

/// Where a batch of the reel lives.
enum Slot {
    Resident(Morsel),
    Spilled { offset: u64, n_rows: usize },
}

/// A streaming base table as one cell sees it: batches in push order,
/// resident (charged to the cell's tracker) up to the cell's byte cap, read
/// back from a [`Spool`] past it.
pub struct BatchReel {
    tracker: MemTracker,
    schema: Schema,
    slots: Vec<Slot>,
    resident_bytes: u64,
    resident_cap: u64,
    spill_bytes: u64,
    spill_dir: Option<PathBuf>,
    /// The on-disk batches: the dataset's shared spool under an opened
    /// reel, a private one (created by the first spilling `push`) under a
    /// pushed reel.
    spool: Option<Arc<Spool>>,
    total_rows: usize,
}

/// Seek-aware buffered reader over a spool file: tracks its own byte
/// position and issues [`BufReader::seek_relative`] only when a requested
/// offset is not the next sequential byte, so the in-push-order replay and
/// window scans (monotonically increasing, contiguous offsets) never drop
/// the read buffer. One record buffer is reused across the scan.
struct SpillReader {
    inner: BufReader<File>,
    pos: u64,
    record: Vec<u8>,
}

impl SpillReader {
    fn open(path: &Path) -> Result<SpillReader> {
        let file = File::open(path)
            .map_err(|e| Error::invalid(format!("spill open {}: {e}", path.display())))?;
        Ok(SpillReader {
            inner: BufReader::new(file),
            pos: 0,
            record: Vec::new(),
        })
    }

    /// Read the `n_rows`-row record at `offset` (one `read_exact`) and
    /// decode its column images. A record the file is too short to hold is
    /// an error, never a zero-filled batch.
    fn read_batch(&mut self, schema: &Schema, offset: u64, n_rows: usize) -> Result<Vec<Column>> {
        let delta = offset as i64 - self.pos as i64;
        if delta != 0 {
            self.inner
                .seek_relative(delta)
                .map_err(|e| Error::invalid(format!("spill seek: {e}")))?;
            self.pos = offset;
        }
        self.record.resize(n_rows * schema.arity() * 8, 0);
        self.inner
            .read_exact(&mut self.record)
            .map_err(|e| Error::invalid(format!("spill read: {e}")))?;
        self.pos += self.record.len() as u64;
        let cell = |c: &[u8]| -> [u8; 8] { c.try_into().expect("8-byte chunk") };
        let cols = (0..schema.arity())
            .map(|i| {
                let image = self.record[i * n_rows * 8..(i + 1) * n_rows * 8].chunks_exact(8);
                match schema.col_type(i) {
                    DataType::Int => {
                        Column::Ints(image.map(|c| i64::from_le_bytes(cell(c))).collect())
                    }
                    DataType::Float => {
                        Column::Floats(image.map(|c| f64::from_le_bytes(cell(c))).collect())
                    }
                }
            })
            .collect();
        Ok(cols)
    }
}

impl BatchReel {
    /// New, empty reel to [`BatchReel::push`] onto. Batches stay resident
    /// while their summed bytes fit `resident_cap`; later batches spill to
    /// a private spool under `spill_dir` (or the system temp directory).
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
            spill_bytes: 0,
            spill_dir: spill_dir.map(Path::to_path_buf),
            spool: None,
            total_rows: 0,
        }
    }

    /// A reel over every batch of a shared spool, in spool order, under
    /// this cell's cap and tracker: the batches that fit the cap are loaded
    /// and stay resident, the rest are read on replay. Leaves the tracker
    /// exactly where pushing the same batches onto a [`BatchReel::new`]
    /// reel does — each batch is charged once (a spilled one only for as
    /// long as a push holds it in flight, so `peak` is the resident set
    /// plus one batch and an over-budget batch is refused alike), counted
    /// as a batch, and noted as spill when it stays on disk.
    pub fn open(tracker: &MemTracker, spool: Arc<Spool>, resident_cap: u64) -> Result<BatchReel> {
        let mut reel = BatchReel::new(tracker, spool.schema.clone(), resident_cap, None);
        let mut reader = SpillReader::open(&spool.path)?;
        for &(offset, n_rows) in &spool.dir {
            let bytes = (n_rows * reel.schema.arity() * 8) as u64;
            let slot = if reel.resident_bytes + bytes <= resident_cap {
                let cols = reader.read_batch(&reel.schema, offset, n_rows)?;
                reel.resident_bytes += bytes;
                Slot::Resident(Morsel::from_columns(tracker, cols)?)
            } else {
                tracker.charge(bytes)?;
                tracker.release(bytes);
                tracker.note_spill(bytes);
                reel.spill_bytes += bytes;
                Slot::Spilled { offset, n_rows }
            };
            tracker.note_batch();
            reel.total_rows += n_rows;
            reel.slots.push(slot);
        }
        reel.spool = Some(spool);
        Ok(reel)
    }

    /// The reel's schema.
    pub fn schema(&self) -> &Schema {
        &self.schema
    }

    /// Total rows on the reel.
    pub fn total_rows(&self) -> usize {
        self.total_rows
    }

    /// Batches on the reel.
    pub fn n_batches(&self) -> usize {
        self.slots.len()
    }

    /// Bytes currently resident (charged against the tracker).
    pub fn resident_bytes(&self) -> u64 {
        self.resident_bytes
    }

    /// Bytes of this reel that live only on disk.
    pub fn spill_bytes(&self) -> u64 {
        self.spill_bytes
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
        let spool = match &mut self.spool {
            Some(spool) => spool,
            None => self.spool.insert(Arc::new(Spool::create(
                self.schema.clone(),
                self.spill_dir.as_deref(),
            )?)),
        };
        let offset = Arc::get_mut(spool)
            .ok_or_else(|| Error::invalid("cannot spill onto a shared spool"))?
            .append(&morsel.cols)?;
        self.tracker.note_spill(bytes);
        self.spill_bytes += bytes;
        self.slots.push(Slot::Spilled {
            offset,
            n_rows: morsel.n_rows(),
        });
        Ok(())
    }

    fn read_spilled(&self, reader: &mut SpillReader, offset: u64, n_rows: usize) -> Result<Morsel> {
        let cols = reader.read_batch(&self.schema, offset, n_rows)?;
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

    /// A reader over the spool, when any batch of this reel lives there.
    fn open_reader(&self) -> Result<Option<SpillReader>> {
        match &self.spool {
            Some(spool) if self.spill_bytes > 0 => SpillReader::open(&spool.path).map(Some),
            _ => Ok(None),
        }
    }
}

impl std::fmt::Debug for BatchReel {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("BatchReel")
            .field("batches", &self.slots.len())
            .field("total_rows", &self.total_rows)
            .field("resident_bytes", &self.resident_bytes)
            .field("spill_bytes", &self.spill_bytes)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::convert::triple_schema;
    use crate::table::ColumnarTable;

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
        let path = reel.spool.as_ref().unwrap().path().to_path_buf();
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
        let path = reel.spool.as_ref().unwrap().path().to_path_buf();
        let got = std::fs::read(&path).unwrap();
        assert_eq!(got, want, "spill bytes on disk changed");
    }

    /// Spool every `batch_rows`-row batch of `table`.
    fn spool_of(table: &ColumnarTable, batch_rows: usize) -> Spool {
        let mut spool = Spool::create(triple_schema(), None).unwrap();
        for (s, e) in batch_ranges(table.n_rows(), batch_rows).unwrap() {
            let sub = table.view().subview(s, e).unwrap();
            let cols: Vec<Column> = (0..3).map(|i| sub.column_copy(i)).collect();
            spool.append(&cols).unwrap();
        }
        spool
    }

    /// (That an opened reel leaves its tracker where a pushed one does, at
    /// every size and cap, is `tests/storage_layer.rs`'s property.)
    #[test]
    fn reels_over_one_spool_share_the_file_and_charge_their_own_trackers() {
        let table = sample_table(&MemTracker::unlimited(), 40);
        let spool = Arc::new(spool_of(&table, 5));
        assert_eq!(spool.bytes(), 40 * 24);
        let path = spool.path().to_path_buf();
        let (small, large) = (MemTracker::unlimited(), MemTracker::unlimited());
        let two = BatchReel::open(&small, spool.clone(), 240).unwrap();
        let all = BatchReel::open(&large, spool.clone(), u64::MAX).unwrap();
        assert_eq!((two.n_batches(), two.total_rows()), (8, 40));
        assert_eq!((two.resident_bytes(), two.spill_bytes()), (240, 6 * 120));
        assert_eq!((all.resident_bytes(), all.spill_bytes()), (8 * 120, 0));
        assert_eq!((small.current(), small.peak()), (240, 360));
        assert_eq!((large.current(), large.spill_bytes()), (8 * 120, 0));
        for reel in [&two, &all] {
            let mut ids = Vec::new();
            reel.replay(|m| {
                ids.extend_from_slice(m.int_col(0)?);
                Ok(())
            })
            .unwrap();
            assert_eq!(ids, (0..40).collect::<Vec<i64>>());
        }
        // A shared spool is immutable: a reel over it cannot spill onto it.
        let mut two = two;
        let extra = Morsel::carve(&small, &table.view(), 0, 5).unwrap();
        assert!(two.push(extra).is_err());
        drop((two, all));
        assert_eq!((small.current(), large.current()), (0, 0));
        assert!(path.exists(), "a cell's reel removed the shared spool");
        drop(spool);
        assert!(!path.exists(), "spool file removed with its last owner");
    }

    #[test]
    fn a_truncated_spool_is_an_error_not_a_zero_filled_batch() {
        let table = sample_table(&MemTracker::unlimited(), 40);
        let spool = Arc::new(spool_of(&table, 5));
        let file = std::fs::OpenOptions::new()
            .write(true)
            .open(spool.path())
            .unwrap();
        file.set_len(spool.bytes() - 8).unwrap();
        let t = MemTracker::unlimited();
        // Everything resident: the short read is hit while opening.
        let err = BatchReel::open(&t, spool.clone(), u64::MAX).unwrap_err();
        assert!(matches!(err, Error::Invalid(_)), "{err}");
        assert_eq!(t.current(), 0, "the loaded prefix was released");
        // Nothing resident: it is hit by the scan that reaches the last batch.
        let reel = BatchReel::open(&t, spool, 0).unwrap();
        let mut rows = 0;
        let err = reel
            .replay(|m| {
                rows += m.n_rows();
                Ok(())
            })
            .unwrap_err();
        assert!(matches!(err, Error::Invalid(_)), "{err}");
        assert_eq!(
            rows, 35,
            "every whole batch before the short one was served"
        );
    }

    #[test]
    fn an_unusable_spill_dir_is_a_typed_error() {
        let missing = std::env::temp_dir().join("genbase-no-such-dir/nested");
        assert!(matches!(
            Spool::create(triple_schema(), Some(&missing)),
            Err(Error::Invalid(_))
        ));
        // A regular file where the directory should be.
        let file = std::env::temp_dir().join(format!("genbase-not-a-dir-{}", std::process::id()));
        std::fs::write(&file, b"x").unwrap();
        let t = MemTracker::unlimited();
        let table = sample_table(&t, 10);
        let mut reel = BatchReel::new(&t, triple_schema(), 0, Some(&file));
        let err = reel
            .push(Morsel::carve(&t, &table.view(), 0, 5).unwrap())
            .unwrap_err();
        assert!(matches!(err, Error::Invalid(_)), "{err}");
        std::fs::remove_file(&file).unwrap();
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
