//! Build side of the stores' hash joins on an integer key.
//!
//! Join keys are gene and patient ids, so the key → build-row lookup is a
//! [`IdIndex`] (direct-addressed for dense ids, hashed otherwise); rows
//! sharing a key are threaded on a chain in ascending build position, the
//! order a per-key `Vec` of positions would have listed them.

use genbase_util::IdIndex;

const END: usize = usize::MAX;

pub(crate) struct BuildSide {
    /// Key → position of its last build row.
    index: IdIndex,
    /// At a key's last position: the key's first position.
    head: Vec<usize>,
    /// At each position: the next position with the same key, or [`END`].
    next: Vec<usize>,
}

impl BuildSide {
    /// Index build rows by `keys`, one key per row in build order.
    pub(crate) fn new(keys: &[i64]) -> BuildSide {
        let index = IdIndex::new(keys);
        let mut head = vec![END; keys.len()];
        let mut next = vec![END; keys.len()];
        for (pos, &key) in keys.iter().enumerate().rev() {
            let last = index.get(key).expect("every build key is indexed");
            next[pos] = head[last];
            head[last] = pos;
        }
        BuildSide { index, head, next }
    }

    /// Build positions whose key equals `key`, ascending.
    #[inline]
    pub(crate) fn matches(&self, key: i64) -> impl Iterator<Item = usize> + '_ {
        let link = |pos: usize| (pos != END).then_some(pos);
        let first = self.index.get(key).and_then(|last| link(self.head[last]));
        std::iter::successors(first, move |&pos| link(self.next[pos]))
    }
}
