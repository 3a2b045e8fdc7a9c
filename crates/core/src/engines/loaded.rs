//! What one dataset's cells share instead of loading per cell.
//!
//! [`LoadedTables`] serves every engine family that loads: the SQL stores'
//! base tables, the streaming reels' on-disk triple spool, SciDB's chunked
//! arrays and Hadoop's Hive triple table. It belongs to none of them, so it
//! lives beside them.

use super::hadoop;
use super::scidb::ArrayData;
use super::sql_common::{SqlStore, StoreKind};
use crate::engine::StreamConfig;
use genbase_datagen::Dataset;
use genbase_mapreduce::HiveTable;
use genbase_storage::{self as storage, Spool};
use genbase_util::{lock, Error, Result};
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, OnceLock};

/// A load-once slot: built by the first cell that asks, while cells asking
/// meanwhile block on that build; a failed build is stored as the typed
/// error it is and every later cell gets the same one.
type Slot<T> = OnceLock<Result<Arc<T>>>;

/// What one dataset's cells share instead of loading per cell: an immutable
/// [`SqlStore`] per [`StoreKind`], with or without the triple table
/// (`--stream` cells share only the metadata tables); the triples as an
/// on-disk [`Spool`] per morsel size under every streaming cell's reel;
/// SciDB's chunked [`ArrayData`]; and Hadoop's flat Hive triple table. A
/// multi-node cell's nodes read their patient bands of the column store's
/// triple table (the column flavors) or of the arrays (SciDB) in place.
///
/// Each is built exactly once, by the first cell that asks; cells asking
/// meanwhile block on that build and every later cell gets an `Arc` clone —
/// the [`genbase_datagen::DatasetPool`] slot pattern. The
/// [`crate::harness::Harness`] owns one set per generated size class and
/// puts it on the [`crate::engine::ExecContext`] of every cell it runs, so
/// the tables (and the spool file) live exactly as long as the dataset they
/// were loaded from; a context built without a harness carries an empty set
/// of its own.
///
/// A set belongs to the first dataset it loads. Asking it for another
/// dataset's tables is an error, never a wrong answer.
#[derive(Default)]
pub struct LoadedTables {
    dataset: OnceLock<genbase_datagen::DatasetId>,
    /// `[kind][with_triples]`.
    stores: [[Slot<SqlStore>; 2]; 2],
    /// By `batch_rows`.
    spools: Mutex<HashMap<usize, Arc<Slot<Spool>>>>,
    arrays: Slot<ArrayData>,
    hive: Slot<HiveTable>,
    builds: AtomicU64,
}

impl LoadedTables {
    /// `slot`'s value, built from `data` by `build` on first use.
    fn load<T>(
        &self,
        slot: &Slot<T>,
        data: &Dataset,
        build: impl FnOnce() -> Result<T>,
    ) -> Result<Arc<T>> {
        let owner = *self.dataset.get_or_init(|| data.id());
        if owner != data.id() {
            return Err(Error::invalid(format!(
                "base tables loaded from dataset {owner} cannot serve dataset {}",
                data.id()
            )));
        }
        slot.get_or_init(|| {
            self.builds.fetch_add(1, Ordering::Relaxed);
            build().map(Arc::new)
        })
        .clone()
    }

    /// The `kind` store of `data`, loaded on first use. `with_triples`
    /// false is the metadata-only store of streaming cells.
    pub fn store(
        &self,
        kind: StoreKind,
        with_triples: bool,
        data: &Dataset,
    ) -> Result<Arc<SqlStore>> {
        let slot = &self.stores[kind as usize][usize::from(with_triples)];
        self.load(slot, data, || SqlStore::ingest(kind, data, with_triples))
    }

    /// `data`'s triples spooled as `cfg.batch_rows`-row morsels under
    /// `cfg.spill_dir`, written on first use.
    pub fn spool(&self, cfg: &StreamConfig, data: &Dataset) -> Result<Arc<Spool>> {
        let slot = Arc::clone(lock(&self.spools).entry(cfg.batch_rows).or_default());
        self.load(&slot, data, || spool_triples(data, cfg))
    }

    /// `data` as SciDB's chunked arrays, ingested on first use.
    pub fn arrays(&self, data: &Dataset) -> Result<Arc<ArrayData>> {
        self.load(&self.arrays, data, || ArrayData::ingest(data))
    }

    /// `data`'s `(gene, patient, value)` triples as Hadoop's Hive table,
    /// built on first use.
    pub fn hive_triples(&self, data: &Dataset) -> Result<Arc<HiveTable>> {
        self.load(&self.hive, data, || hadoop::triples_table(data))
    }

    /// Loads run so far, of every kind (each at most once: under one
    /// harness, which either streams at one morsel size or does not, at
    /// most 2 stores + 1 spool + 1 array set + 1 Hive table, and a third
    /// store when a streaming harness runs multi-node column cells).
    pub fn builds(&self) -> u64 {
        self.builds.load(Ordering::Relaxed)
    }

    /// Heap bytes of the stores, arrays and Hive table resident now.
    pub fn heap_bytes(&self) -> u64 {
        fn built<T>(slot: &Slot<T>, bytes: impl Fn(&T) -> u64) -> Option<u64> {
            Some(bytes(slot.get()?.as_ref().ok()?))
        }
        let stores = self.stores.iter().flatten();
        let stores = stores.filter_map(|slot| built(slot, SqlStore::heap_bytes));
        let arrays = built(&self.arrays, ArrayData::heap_bytes);
        let hive = built(&self.hive, hadoop::hive_bytes);
        stores.chain(arrays).chain(hive).sum()
    }

    /// Bytes of the spool files on disk now.
    pub fn spool_bytes(&self) -> u64 {
        let spools = lock(&self.spools);
        let built = spools
            .values()
            .filter_map(|slot| Some(slot.get()?.as_ref().ok()?.bytes()));
        built.sum()
    }
}

impl std::fmt::Debug for LoadedTables {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("LoadedTables")
            .field("dataset", &self.dataset.get())
            .field("builds", &self.builds())
            .field("heap_bytes", &self.heap_bytes())
            .field("spool_bytes", &self.spool_bytes())
            .finish()
    }
}

/// Streaming ingest, once per dataset: spool the microarray triples as
/// `batch_rows`-row morsels in base order (patient-major, gene-minor — the
/// exact order both stores ingest in, which is the expression matrix's own
/// row-major order).
fn spool_triples(data: &Dataset, cfg: &StreamConfig) -> Result<Spool> {
    let cells = data.expression.data().len();
    let mut spool = Spool::create(storage::triple_schema(), cfg.spill_dir.as_deref())?;
    for (start, end) in storage::batch_ranges(cells, cfg.batch_rows)? {
        spool.append(&storage::triple_columns(&data.expression, start..end))?;
    }
    Ok(spool)
}
