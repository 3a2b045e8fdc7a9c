//! The MapReduce job runner.
//!
//! A job executes in the classic three stages, with real byte traffic at
//! every boundary:
//!
//! 1. **Map**: input splits (index ranges of the job's records) run in
//!    parallel; a mapper reads its record in place, and every `(K, V)` it
//!    emits is serialized immediately into the per-partition buffer chosen
//!    by a hash of the key bytes (optionally combined map-side).
//! 2. **Shuffle**: each reduce task fetches its partition's buffer from
//!    every map task (and, when a network model is configured, each buffer
//!    is charged to the sim clock — the multi-node engines use this).
//! 3. **Reduce**: each partition is parsed, sorted by key, grouped, and fed
//!    to the reducer; reducer output is serialized once more into the job's
//!    [`Output`] (HDFS write), which its reader parses back.

use crate::record::{Encode, Writable};
use genbase_util::{Budget, Result, SimClock};
use std::ops::Range;

/// Emission sink of a map or reduce task: serializes each record into the
/// file its key hashes to (a map task's shuffle partitions, or a task's one
/// output file).
///
/// The reading side decodes the bytes as the job's declared types, so a
/// task may emit any forms that encode as those do — a borrowed `&[Cell]`
/// row where the reducer reads a `Vec<Cell>` (see [`crate::record`]).
pub struct Emitter<'a> {
    files: &'a mut [Vec<u8>],
    key_buf: Vec<u8>,
}

impl<'a> Emitter<'a> {
    fn new(files: &'a mut [Vec<u8>]) -> Emitter<'a> {
        Emitter {
            files,
            key_buf: Vec::with_capacity(16),
        }
    }

    /// Emit one key/value pair.
    pub fn emit<K: Encode + ?Sized, V: Encode + ?Sized>(&mut self, key: &K, value: &V) {
        self.key_buf.clear();
        key.write(&mut self.key_buf);
        let p = (fnv1a(&self.key_buf) as usize) % self.files.len();
        let buf = &mut self.files[p];
        buf.extend_from_slice(&self.key_buf);
        value.write(buf);
    }
}

/// A mapper: called once per input record with the record's index, which
/// it reads in place from whatever the job runs over.
pub type Mapper<'a> = dyn Fn(usize, &mut Emitter<'_>) + Sync + 'a;

/// A reducer: one key with all its shuffled values, emitting into the
/// task's output file.
pub type Reducer<'a, K, V> = dyn Fn(&K, &mut [V], &mut Emitter<'_>) + Sync + 'a;

/// A map-side combiner: folds one map task's values for a key into one.
pub type Combiner<'a, K, V> = dyn Fn(&K, Vec<V>) -> V + Sync + 'a;

/// What a job wrote: one file per task, in task order, as HDFS holds it
/// for the submitting program or the next job to read back.
#[derive(Debug, Default)]
pub struct Output {
    files: Vec<Vec<u8>>,
}

impl Output {
    /// The raw files, in task order.
    pub(crate) fn files(&self) -> &[Vec<u8>] {
        &self.files
    }

    /// Every record parsed back as `(K, V)`, in file order.
    pub fn records<K: Writable, V: Writable>(&self) -> Result<Vec<(K, V)>> {
        let mut out = Vec::new();
        for file in &self.files {
            read_records(file, &mut out)?;
        }
        Ok(out)
    }
}

/// Job execution parameters.
#[derive(Debug, Clone)]
pub struct JobConfig {
    /// Parallel map tasks (Hadoop map slots).
    pub map_tasks: usize,
    /// Parallel reduce tasks / shuffle partitions.
    pub reduce_tasks: usize,
    /// Startup latency charged to the sim clock per job (JVM spin-up,
    /// scheduling). Zero keeps all numbers purely measured.
    pub job_launch_secs: f64,
    /// Optional `(latency_s, bytes_per_s)` network model applied to every
    /// shuffled partition buffer (used by the multi-node Hadoop engine).
    pub shuffle_net: Option<(f64, f64)>,
    /// Simulated-cost clock.
    pub sim: SimClock,
    /// Cooperative cutoff.
    pub budget: Budget,
}

impl JobConfig {
    /// Single-node defaults: given task slots, no simulated costs.
    pub fn local(slots: usize) -> JobConfig {
        JobConfig {
            map_tasks: slots.max(1),
            reduce_tasks: slots.max(1),
            job_launch_secs: 0.0,
            shuffle_net: None,
            sim: SimClock::new(),
            budget: Budget::unlimited(),
        }
    }
}

/// Run a full map-shuffle-reduce job over `records` input records, shuffled
/// and reduced as `(K, V)`.
///
/// `combiner`, when provided, merges each map task's local output per key
/// before the shuffle.
pub fn run_job<K, V>(
    records: usize,
    mapper: &Mapper<'_>,
    combiner: Option<&Combiner<'_, K, V>>,
    reducer: &Reducer<'_, K, V>,
    config: &JobConfig,
) -> Result<Output>
where
    K: Writable + Ord + Clone + Send,
    V: Writable + Send,
{
    config.sim.charge_secs(config.job_launch_secs);
    let n_red = config.reduce_tasks.max(1);

    // ---- map phase -------------------------------------------------------
    let map_outputs = map_phase(
        records,
        n_red,
        mapper,
        |partitions| {
            if let Some(comb) = combiner {
                for buf in partitions.iter_mut() {
                    *buf = combine_buffer::<K, V>(buf, comb)?;
                }
            }
            Ok(())
        },
        config,
        "mapreduce map",
    )?;

    // ---- shuffle ----------------------------------------------------------
    // Reduce task `p` fetches partition `p` of every map task's output, in
    // task order.
    let mut reduce_inputs: Vec<Vec<Vec<u8>>> = vec![Vec::new(); n_red];
    for task_out in map_outputs {
        for (p, buf) in task_out.into_iter().enumerate() {
            if let Some((lat, bw)) = config.shuffle_net {
                if !buf.is_empty() {
                    config.sim.charge_transfer(buf.len() as u64, lat, bw);
                }
            }
            reduce_inputs[p].push(buf);
        }
    }

    // ---- reduce phase ------------------------------------------------------
    let reduce_outputs: Vec<Result<Vec<u8>>> =
        genbase_util::parallel_map(n_red, reduce_inputs.len(), |t| -> Result<Vec<u8>> {
            let mut records = Vec::new();
            for buf in &reduce_inputs[t] {
                read_records::<K, V>(buf, &mut records)?;
            }
            config.budget.check("mapreduce sort")?;
            records.sort_by(|a, b| a.0.cmp(&b.0));
            let mut file = [Vec::new()];
            let mut emitter = Emitter::new(&mut file);
            let mut iter = records.into_iter().peekable();
            let mut groups = 0usize;
            while let Some((key, first)) = iter.next() {
                groups += 1;
                if groups.is_multiple_of(1024) {
                    config.budget.check("mapreduce reduce")?;
                }
                let mut values = vec![first];
                while iter.peek().is_some_and(|(k, _)| *k == key) {
                    values.push(iter.next().expect("peeked").1);
                }
                reducer(&key, &mut values, &mut emitter);
            }
            let [file] = file;
            Ok(file)
        });
    let files = reduce_outputs.into_iter().collect::<Result<_>>()?;
    Ok(Output { files })
}

/// Map-only job (Hadoop with zero reducers): no shuffle, no sort; each map
/// task writes one output file.
pub fn run_map_only(records: usize, mapper: &Mapper<'_>, config: &JobConfig) -> Result<Output> {
    config.sim.charge_secs(config.job_launch_secs);
    let tasks = map_phase(records, 1, mapper, |_| Ok(()), config, "mapreduce map-only")?;
    Ok(Output {
        files: tasks.into_iter().flatten().collect(),
    })
}

/// The map tasks on the shared runtime pool (`map_tasks` caps the
/// concurrent slots, Hadoop's map-slot count): each runs `mapper` over its
/// split into `files` partition files, then `finish` on those files.
/// Returns each task's files in task order.
fn map_phase(
    records: usize,
    files: usize,
    mapper: &Mapper<'_>,
    finish: impl Fn(&mut [Vec<u8>]) -> Result<()> + Sync,
    config: &JobConfig,
    phase: &str,
) -> Result<Vec<Vec<Vec<u8>>>> {
    let splits = split_ranges(records, config.map_tasks);
    let outputs = genbase_util::parallel_map(splits.len(), splits.len(), |t| -> Result<_> {
        let mut partitions: Vec<Vec<u8>> = vec![Vec::new(); files];
        let mut emitter = Emitter::new(&mut partitions);
        for (i, record) in splits[t].clone().enumerate() {
            if i % 4096 == 0 {
                config.budget.check(phase)?;
            }
            mapper(record, &mut emitter);
        }
        finish(&mut partitions)?;
        Ok(partitions)
    });
    outputs.into_iter().collect()
}

/// `0..n` cut into `parts` (at least 1, at most `n`) contiguous ranges
/// whose lengths differ by at most one, the longer ones first.
fn split_ranges(n: usize, parts: usize) -> Vec<Range<usize>> {
    let parts = parts.clamp(1, n.max(1));
    let base = n / parts;
    let extra = n % parts;
    let mut start = 0;
    (0..parts)
        .map(|i| {
            let len = base + usize::from(i < extra);
            start += len;
            start - len..start
        })
        .collect()
}

/// Parse every `(K, V)` record of `buf` onto `out`.
fn read_records<K: Writable, V: Writable>(mut buf: &[u8], out: &mut Vec<(K, V)>) -> Result<()> {
    while !buf.is_empty() {
        let k = K::read(&mut buf)?;
        let v = V::read(&mut buf)?;
        out.push((k, v));
    }
    Ok(())
}

fn combine_buffer<K, V>(buf: &[u8], combiner: &Combiner<'_, K, V>) -> Result<Vec<u8>>
where
    K: Writable + Ord + Clone,
    V: Writable,
{
    let mut records = Vec::new();
    read_records::<K, V>(buf, &mut records)?;
    records.sort_by(|a, b| a.0.cmp(&b.0));
    let mut out = Vec::with_capacity(buf.len() / 2);
    let mut iter = records.into_iter().peekable();
    while let Some((key, first)) = iter.next() {
        let mut values = vec![first];
        while iter.peek().is_some_and(|(k, _)| *k == key) {
            values.push(iter.next().expect("peeked").1);
        }
        let folded = combiner(&key, values);
        key.write(&mut out);
        folded.write(&mut out);
    }
    Ok(out)
}

/// FNV-1a over the serialized key bytes (stable partitioner).
fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(0x1000_0000_01b3);
    }
    h
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Sum each key's `i64` values.
    fn sum_reducer(k: &i64, vs: &mut [i64], e: &mut Emitter<'_>) {
        e.emit(k, &vs.iter().sum::<i64>())
    }

    /// Word-count, the canonical MR correctness check (words as i64 ids).
    #[test]
    fn word_count() {
        let words: Vec<i64> = (0..1000).map(|i| i % 7).collect();
        let cfg = JobConfig::local(4);
        let out = run_job::<i64, i64>(
            words.len(),
            &|i, e| e.emit(&words[i], &1i64),
            None,
            &sum_reducer,
            &cfg,
        )
        .unwrap();
        let mut result = out.records::<i64, i64>().unwrap();
        result.sort_unstable();
        assert_eq!(result.len(), 7);
        for (w, c) in result {
            let expect = (0..1000).filter(|i| i % 7 == w).count() as i64;
            assert_eq!(c, expect);
        }
    }

    #[test]
    fn combiner_preserves_result() {
        let words: Vec<i64> = (0..5000).map(|i| i % 11).collect();
        let cfg = JobConfig::local(4);
        let mapper = |i: usize, e: &mut Emitter<'_>| e.emit(&words[i], &1i64);
        let plain = run_job::<i64, i64>(words.len(), &mapper, None, &sum_reducer, &cfg).unwrap();
        let combiner = |_: &i64, vs: Vec<i64>| vs.iter().sum::<i64>();
        let combined =
            run_job::<i64, i64>(words.len(), &mapper, Some(&combiner), &sum_reducer, &cfg).unwrap();
        let mut plain = plain.records::<i64, i64>().unwrap();
        let mut combined = combined.records::<i64, i64>().unwrap();
        plain.sort_unstable();
        combined.sort_unstable();
        assert_eq!(plain, combined);
    }

    #[test]
    fn reduce_sees_sorted_groups_once() {
        // Each key must reach the reducer exactly once with all its values.
        let cfg = JobConfig::local(3);
        let out = run_job::<i64, f64>(
            300,
            &|i, e| e.emit(&(i as i64 % 10), &(i as f64)),
            None,
            &|k, vs, e| {
                assert_eq!(vs.len(), 30, "key {k} should group 30 values");
                e.emit(k, &vs.iter().sum::<f64>())
            },
            &cfg,
        )
        .unwrap();
        assert_eq!(out.records::<i64, f64>().unwrap().len(), 10);
    }

    #[test]
    fn map_only_round_trips() {
        let cfg = JobConfig::local(4);
        let out = run_map_only(
            100,
            &|i, e| {
                if i % 2 == 0 {
                    e.emit(&(i as i64), &(i as f64 * 5.0))
                }
            },
            &cfg,
        )
        .unwrap();
        assert_eq!(out.files().len(), 4, "one output file per map task");
        let out = out.records::<i64, f64>().unwrap();
        assert_eq!(out.len(), 50);
        assert_eq!(out[1], (2, 10.0), "map-only output keeps input order");
    }

    #[test]
    fn borrowed_emits_shuffle_as_owned_values() {
        // Mahout-style (index, row) records, emitted as borrowed slices and
        // read back as vectors.
        let rows: Vec<Vec<f64>> = (0..20).map(|i| vec![i as f64, 1.0]).collect();
        let cfg = JobConfig::local(2);
        let out = run_job::<i64, Vec<f64>>(
            rows.len(),
            &|i, e| e.emit(&(i as i64 % 4), rows[i].as_slice()),
            None,
            &|k, vs, e| {
                let mut acc = vec![0.0; 2];
                for v in vs.iter() {
                    acc[0] += v[0];
                    acc[1] += v[1];
                }
                e.emit(k, &acc)
            },
            &cfg,
        )
        .unwrap();
        let result = out.records::<i64, Vec<f64>>().unwrap();
        assert_eq!(result.len(), 4);
        for (k, acc) in result {
            assert_eq!(acc[1], 5.0, "5 records per key");
            let expect: f64 = (0..20).filter(|i| i % 4 == k).map(|i| i as f64).sum();
            assert_eq!(acc[0], expect);
        }
    }

    #[test]
    fn splits_are_balanced_contiguous_ranges() {
        assert_eq!(split_ranges(10, 3), vec![0..4, 4..7, 7..10]);
        assert_eq!(split_ranges(2, 5), vec![0..1, 1..2]);
        assert_eq!(split_ranges(0, 4), vec![0..0]);
    }

    #[test]
    fn job_launch_latency_charged() {
        let cfg = JobConfig {
            job_launch_secs: 2.5,
            ..JobConfig::local(2)
        };
        run_job::<i64, i64>(1, &|_, e| e.emit(&1i64, &1i64), None, &sum_reducer, &cfg).unwrap();
        assert!((cfg.sim.total_secs() - 2.5).abs() < 1e-9);
    }

    #[test]
    fn shuffle_network_model_charged() {
        let cfg = JobConfig {
            shuffle_net: Some((0.001, 1e6)),
            ..JobConfig::local(2)
        };
        let mapper = |i: usize, e: &mut Emitter<'_>| e.emit(&(i as i64), &(i as i64));
        run_job::<i64, i64>(1000, &mapper, None, &sum_reducer, &cfg).unwrap();
        assert!(cfg.sim.bytes() >= 16_000, "16 bytes per shuffled record");
        assert!(cfg.sim.total_secs() > 0.0);
    }

    #[test]
    fn budget_timeout_propagates() {
        use std::time::Duration;
        let budget = Budget::with_timeout(Duration::from_nanos(1));
        std::thread::sleep(Duration::from_millis(2));
        let cfg = JobConfig {
            budget,
            ..JobConfig::local(2)
        };
        let mapper = |i: usize, e: &mut Emitter<'_>| e.emit(&(i as i64), &(i as i64));
        let err = run_job::<i64, i64>(100_000, &mapper, None, &sum_reducer, &cfg).unwrap_err();
        assert!(err.is_infinite_result());
    }

    #[test]
    fn empty_input_is_fine() {
        let cfg = JobConfig::local(4);
        let mapper = |i: usize, e: &mut Emitter<'_>| e.emit(&(i as i64), &(i as i64));
        let out = run_job::<i64, i64>(0, &mapper, None, &sum_reducer, &cfg).unwrap();
        assert!(out.records::<i64, i64>().unwrap().is_empty());
    }
}
