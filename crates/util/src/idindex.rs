//! Id → slot lookups for ids the program generated itself.
//!
//! Every gene and patient id in the workspace is a dense `0..n` integer (or
//! a filtered subset of one), yet the joins, pivots and group-bys used to
//! resolve each triple's ids through a SipHash `HashMap`. [`IdIndex`] and
//! [`GroupSums`] direct-address a `Vec` offset by the minimum id whenever the
//! ids span few enough slots, and fall back to the hash structures they
//! replace otherwise. The choice is made from the id list alone, and both
//! sides answer every lookup identically (last duplicate wins; sums
//! accumulate in arrival order), so callers' outputs do not depend on it.

use std::collections::HashMap;

/// Ids are direct-addressed when they span fewer than this many slots per
/// listed id: a filtered id list (the gene filter keeps ~1 in 4) stays dense,
/// and the slot table never exceeds a small multiple of the hash table it
/// replaces.
const DENSE_SPAN_FACTOR: usize = 8;

/// An [`IdIndex`] over fewer ids than this is laid out as if it had this
/// many (up to 65 536 `u32` slots, 256 KiB): an index is built once and
/// probed once per triple, and Query 5 probes every triple against a dozen
/// sampled patient ids drawn from the whole population.
const SHORT_LIST_IDS: usize = 1 << 13;

const VACANT: u32 = u32::MAX;

/// `(min, max)` of `ids`, `None` when there are none.
pub fn id_range(ids: impl IntoIterator<Item = i64>) -> Option<(i64, i64)> {
    let fold = |range: Option<(i64, i64)>, id: i64| match range {
        None => Some((id, id)),
        Some((lo, hi)) => Some((lo.min(id), hi.max(id))),
    };
    ids.into_iter().fold(None, fold)
}

/// `(min, slot count)` of the direct-addressed table for `len` ids within
/// `range`, `None` when there are none or they span too many slots and
/// must be hashed.
fn dense_layout(range: Option<(i64, i64)>, len: usize) -> Option<(i64, usize)> {
    let (min, max) = range?;
    // `max >= min`, so the true difference is in `0..2^64` and the wrapping
    // subtraction reinterpreted as `u64` is exact — no overflow even for
    // `{i64::MIN, i64::MAX}`.
    let width = max.wrapping_sub(min) as u64;
    let limit = len.saturating_mul(DENSE_SPAN_FACTOR) as u64;
    (width < limit).then(|| (min, width as usize + 1))
}

/// Offset of `id` in a dense table starting at `min` (out of range — far
/// above any table length — when `id < min`).
#[inline]
fn offset(id: i64, min: i64) -> u64 {
    // For `id < min` the wrapped difference is `2^64 - (min - id)`, which is
    // at least `2^63 - min`; a dense table's length is `max - min + 1 <=
    // 2^63 - min`, so the offset can never alias a live slot, in release as
    // in debug.
    id.wrapping_sub(min) as u64
}

#[derive(Debug, Clone)]
enum Repr {
    Dense { min: i64, slots: Vec<u32> },
    Sparse(HashMap<i64, usize>),
}

/// Position of each id in an id list: `get(id)` is the index of the id's
/// *last* occurrence, exactly what
/// `ids.iter().enumerate().map(|(i, &id)| (id, i)).collect::<HashMap<_, _>>()`
/// would answer.
#[derive(Debug, Clone)]
pub struct IdIndex {
    repr: Repr,
    len: usize,
}

impl IdIndex {
    /// Index `ids` by position.
    pub fn new(ids: &[i64]) -> IdIndex {
        // Slots hold `u32` positions, with one value reserved for "vacant".
        let dense = dense_layout(id_range(ids.iter().copied()), ids.len().max(SHORT_LIST_IDS))
            .filter(|_| ids.len() < VACANT as usize);
        let Some((min, span)) = dense else {
            let map: HashMap<i64, usize> = ids.iter().enumerate().map(|(i, &id)| (id, i)).collect();
            return IdIndex {
                len: map.len(),
                repr: Repr::Sparse(map),
            };
        };
        let mut slots = vec![VACANT; span];
        let mut len = 0;
        for (i, &id) in ids.iter().enumerate() {
            let slot = &mut slots[offset(id, min) as usize];
            len += usize::from(*slot == VACANT);
            *slot = i as u32;
        }
        IdIndex {
            repr: Repr::Dense { min, slots },
            len,
        }
    }

    /// Position of `id`'s last occurrence in the list, if it occurs.
    #[inline]
    pub fn get(&self, id: i64) -> Option<usize> {
        match &self.repr {
            Repr::Dense { min, slots } => {
                let off = offset(id, *min);
                if off >= slots.len() as u64 {
                    return None;
                }
                let slot = slots[off as usize];
                (slot != VACANT).then_some(slot as usize)
            }
            Repr::Sparse(map) => map.get(&id).copied(),
        }
    }

    /// True when `id` occurs in the list.
    #[inline]
    pub fn contains(&self, id: i64) -> bool {
        self.get(id).is_some()
    }

    /// Number of distinct ids.
    pub fn len(&self) -> usize {
        self.len
    }

    /// True when the list was empty.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }
}

#[derive(Debug)]
enum SumsRepr {
    Dense { min: i64, acc: Vec<(f64, u64)> },
    Sparse(HashMap<i64, (f64, u64)>),
}

/// `GROUP BY key` accumulator of per-key `(sum, count)` that rows stream
/// into. Each sum starts at `0.0` and adds its values in arrival order, so
/// the result is bit-identical whether the accumulator is the
/// direct-addressed table or the hash map.
#[derive(Debug)]
pub struct GroupSums(SumsRepr);

impl GroupSums {
    /// Accumulator for `rows` rows whose keys all lie within `key_range`
    /// (`(min, max)`, see [`id_range`]; `None` for no rows).
    pub fn new(key_range: Option<(i64, i64)>, rows: usize) -> GroupSums {
        GroupSums(match dense_layout(key_range, rows) {
            Some((min, span)) => SumsRepr::Dense {
                min,
                acc: vec![(0.0, 0); span],
            },
            None => SumsRepr::Sparse(HashMap::new()),
        })
    }

    /// Add one row. Panics on a key outside the declared range.
    #[inline]
    pub fn add(&mut self, key: i64, val: f64) {
        let e = match &mut self.0 {
            SumsRepr::Dense { min, acc } => &mut acc[offset(key, *min) as usize],
            SumsRepr::Sparse(map) => map.entry(key).or_insert((0.0, 0)),
        };
        e.0 += val;
        e.1 += 1;
    }

    /// `(key, sum, count)` of every key that received a row, ascending by
    /// key.
    pub fn finish(self) -> Vec<(i64, f64, u64)> {
        match self.0 {
            SumsRepr::Dense { min, acc } => {
                let groups = acc.into_iter().enumerate().filter(|(_, e)| e.1 > 0);
                groups
                    .map(|(i, (sum, count))| (min + i as i64, sum, count))
                    .collect()
            }
            SumsRepr::Sparse(map) => {
                let mut out: Vec<(i64, f64, u64)> =
                    map.into_iter().map(|(k, (s, c))| (k, s, c)).collect();
                out.sort_unstable_by_key(|&(k, _, _)| k);
                out
            }
        }
    }
}

/// Group `vals` by `keys`, returning `(key, sum, count)` ascending by key:
/// [`GroupSums`] over two slices.
pub fn group_sum(keys: &[i64], vals: &[f64]) -> Vec<(i64, f64, u64)> {
    let mut acc = GroupSums::new(id_range(keys.iter().copied()), keys.len());
    for (&k, &v) in keys.iter().zip(vals) {
        acc.add(k, v);
    }
    acc.finish()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Pcg64;

    fn model(ids: &[i64]) -> HashMap<i64, usize> {
        ids.iter().enumerate().map(|(i, &id)| (id, i)).collect()
    }

    fn is_dense(index: &IdIndex) -> bool {
        matches!(index.repr, Repr::Dense { .. })
    }

    /// `index` answers like the `HashMap` model on every listed id, on the
    /// ids around them, and on the extremes.
    fn assert_matches_model(ids: &[i64]) -> IdIndex {
        let want = model(ids);
        let index = IdIndex::new(ids);
        assert_eq!(index.len(), want.len(), "{ids:?}");
        assert_eq!(index.is_empty(), want.is_empty());
        let probes = ids
            .iter()
            .flat_map(|&id| [id.wrapping_sub(1), id, id.wrapping_add(1)])
            .chain([i64::MIN, i64::MIN + 1, -1, 0, 1, i64::MAX - 1, i64::MAX]);
        for id in probes {
            assert_eq!(index.get(id), want.get(&id).copied(), "id {id} of {ids:?}");
            assert_eq!(index.contains(id), want.contains_key(&id));
        }
        index
    }

    #[test]
    fn dense_lists_match_the_hash_model() {
        let dense: Vec<i64> = (0..500).collect();
        assert!(is_dense(&assert_matches_model(&dense)));
        let reversed: Vec<i64> = (0..500).rev().collect();
        assert!(is_dense(&assert_matches_model(&reversed)));
        let negative: Vec<i64> = (-300..-100).collect();
        assert!(is_dense(&assert_matches_model(&negative)));
        // A dozen sampled ids out of a few thousand: laid out as a short list.
        let sampled = [911, 4, 3007, 1500, 77, 2048];
        assert!(is_dense(&assert_matches_model(&sampled)));
        assert!(!is_dense(&assert_matches_model(&[])));
    }

    #[test]
    fn last_duplicate_wins() {
        let ids = [5, 3, 5, 9, 3, 5];
        let index = assert_matches_model(&ids);
        assert_eq!(index.get(5), Some(5));
        assert_eq!(index.get(3), Some(4));
        assert_eq!(index.len(), 3);
    }

    #[test]
    fn sparse_and_extreme_lists_fall_back_without_overflow() {
        assert!(!is_dense(&assert_matches_model(&[0, 1 << 40])));
        assert!(!is_dense(&assert_matches_model(&[i64::MIN, i64::MAX])));
        assert!(!is_dense(&assert_matches_model(&[i64::MAX, i64::MIN, 0])));
        // Dense tables at both ends of the domain: ids below `min` wrap to
        // offsets that must still miss.
        let top: Vec<i64> = (0..40).map(|i| i64::MAX - i).collect();
        assert!(is_dense(&assert_matches_model(&top)));
        let bottom: Vec<i64> = (0..40).map(|i| i64::MIN + i * 3).collect();
        assert!(is_dense(&assert_matches_model(&bottom)));
        assert!(is_dense(&assert_matches_model(&[i64::MAX])));
    }

    #[test]
    fn seeded_lists_on_both_sides_of_the_span_rule() {
        let mut rng = Pcg64::new(0x1d1d);
        for case in 0..200 {
            let len = 1 + rng.next_below(300) as usize;
            // Widths from "all duplicates" to far beyond any dense layout.
            let width = 1 + rng.next_below(1 << (1 + case % 30));
            let base = rng.next_below(1 << 20) as i64 - (1 << 19);
            let ids: Vec<i64> = (0..len)
                .map(|_| base + rng.next_below(width) as i64)
                .collect();
            assert_matches_model(&ids);
        }
    }

    fn hash_group_sum(keys: &[i64], vals: &[f64]) -> Vec<(i64, f64, u64)> {
        let mut acc: HashMap<i64, (f64, u64)> = HashMap::new();
        for (&k, &v) in keys.iter().zip(vals) {
            let e = acc.entry(k).or_insert((0.0, 0));
            e.0 += v;
            e.1 += 1;
        }
        let mut out: Vec<(i64, f64, u64)> = acc.into_iter().map(|(k, (s, c))| (k, s, c)).collect();
        out.sort_unstable_by_key(|&(k, _, _)| k);
        out
    }

    #[test]
    fn group_sum_is_bit_identical_to_the_hash_aggregate() {
        let mut rng = Pcg64::new(0x6a6a);
        let bits = |groups: Vec<(i64, f64, u64)>| -> Vec<(i64, u64, u64)> {
            groups
                .into_iter()
                .map(|(k, s, c)| (k, s.to_bits(), c))
                .collect()
        };
        // (key width, dense?) on both sides of the span rule.
        for (width, dense) in [
            (7u64, true),
            (12_000, true),
            (60_000, false),
            (1 << 40, false),
        ] {
            let keys: Vec<i64> = (0..2000)
                .map(|_| rng.next_below(width) as i64 - 3)
                .collect();
            // Values whose sum depends on the order of addition.
            let vals: Vec<f64> = (0..2000).map(|_| rng.normal() * 1e6 + 0.1).collect();
            let layout = dense_layout(id_range(keys.iter().copied()), keys.len());
            assert_eq!(layout.is_some(), dense);
            assert_eq!(
                bits(group_sum(&keys, &vals)),
                bits(hash_group_sum(&keys, &vals))
            );
        }
        let extremes = [i64::MIN, i64::MAX, i64::MIN];
        assert_eq!(
            group_sum(&extremes, &[1.0, 2.0, -0.0]),
            hash_group_sum(&extremes, &[1.0, 2.0, -0.0])
        );
        assert!(group_sum(&[], &[]).is_empty());
    }
}
