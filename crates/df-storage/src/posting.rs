//! [`PostingIndex`] — one association index of the span store: attribute
//! value → the rows carrying it, in insertion order.
//!
//! Most values are shared by a handful of rows (a systrace id by the two
//! spans of one thread hop, a TCP sequence by the capture ladder of one
//! exchange), so a key's first [`INLINE`] rows live inside the map entry:
//! no allocation per new key and no pointer to chase on a probe. Longer
//! lists spill to a `Vec` once. Keys are integers off the wire, hashed by
//! the seeded [`df_types::hash`] hasher.

use df_types::IntMap;
use std::collections::hash_map::Entry;
use std::hash::Hash;

/// Rows a key holds inline. With the `u8` length this makes a posting 32
/// bytes beside the 24 of the `Vec` it replaces; on the benchmark corpus
/// 94 % of keys never outgrow it.
const INLINE: usize = 6;

#[derive(Debug)]
enum Postings {
    Inline { len: u8, rows: [u32; INLINE] },
    Heap(Vec<u32>),
}

impl Postings {
    fn of(rows: &[u32]) -> Postings {
        if rows.len() > INLINE {
            return Postings::Heap(rows.to_vec());
        }
        let mut inline = [0; INLINE];
        inline[..rows.len()].copy_from_slice(rows);
        Postings::Inline {
            len: rows.len() as u8,
            rows: inline,
        }
    }

    fn as_slice(&self) -> &[u32] {
        match self {
            Postings::Inline { len, rows } => &rows[..usize::from(*len)],
            Postings::Heap(rows) => rows,
        }
    }

    fn push(&mut self, row: u32) {
        match self {
            Postings::Heap(rows) => rows.push(row),
            Postings::Inline { len, rows } => match rows.get_mut(usize::from(*len)) {
                Some(slot) => {
                    *slot = row;
                    *len += 1;
                }
                None => {
                    let mut heap = Vec::with_capacity(2 * INLINE);
                    heap.extend_from_slice(rows);
                    heap.push(row);
                    *self = Postings::Heap(heap);
                }
            },
        }
    }
}

/// See the module docs. A key with no rows is never kept, so `get` on it
/// and on a key never seen are the same empty slice.
#[derive(Debug)]
pub(crate) struct PostingIndex<K> {
    map: IntMap<K, Postings>,
}

impl<K> Default for PostingIndex<K> {
    fn default() -> Self {
        PostingIndex {
            map: IntMap::default(),
        }
    }
}

impl<K: Hash + Eq> PostingIndex<K> {
    /// Append `row` to `key`'s list (no dedup: the store decides what a
    /// duplicate is).
    #[inline]
    pub(crate) fn push(&mut self, key: K, row: u32) {
        match self.map.entry(key) {
            Entry::Occupied(e) => e.into_mut().push(row),
            Entry::Vacant(e) => {
                e.insert(Postings::of(&[row]));
            }
        }
    }

    /// Remove every occurrence of `row` under `key`, dropping the key when
    /// its list empties. Returns how many entries went. Off the ingest and
    /// probe paths (tombstone compaction), so it rebuilds the list.
    pub(crate) fn remove_row(&mut self, key: K, row: u32) -> usize {
        let Entry::Occupied(mut e) = self.map.entry(key) else {
            return 0;
        };
        let old = e.get().as_slice();
        let kept: Vec<u32> = old.iter().copied().filter(|&r| r != row).collect();
        let removed = old.len() - kept.len();
        if kept.is_empty() {
            e.remove();
        } else if removed > 0 {
            e.insert(Postings::of(&kept));
        }
        removed
    }

    /// The rows under `key`, in insertion order, borrowed from the index.
    #[inline]
    pub(crate) fn get(&self, key: &K) -> &[u32] {
        self.map.get(key).map_or(&[], Postings::as_slice)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use std::collections::HashMap;

    proptest! {
        /// Differential against the `HashMap<K, Vec<u32>>` the index
        /// replaced. Four keys and four rows over up to 200 steps, two
        /// pushes per removal: lists cross the inline→heap boundary both
        /// ways, hold duplicate rows, and shrink through removals to a
        /// dropped key many times a case.
        #[test]
        fn matches_the_hashmap_of_vecs_it_replaced(
            ops in proptest::collection::vec((0u8..3, 0u64..4, 0u32..4), 1..200),
        ) {
            let mut index = PostingIndex::<u64>::default();
            let mut model: HashMap<u64, Vec<u32>> = HashMap::new();
            for (op, key, row) in ops {
                if op < 2 {
                    index.push(key, row);
                    model.entry(key).or_default().push(row);
                } else {
                    let rows = model.entry(key).or_default();
                    let before = rows.len();
                    rows.retain(|&r| r != row);
                    prop_assert_eq!(index.remove_row(key, row), before - rows.len());
                }
                model.retain(|_, rows| !rows.is_empty());
                for k in 0..4 {
                    let want = model.get(&k).map_or(&[][..], Vec::as_slice);
                    prop_assert_eq!(index.get(&k), want);
                    let heap = matches!(index.map.get(&k), Some(Postings::Heap(_)));
                    prop_assert!(!heap || want.len() > INLINE, "heap only past {INLINE} rows");
                }
                prop_assert_eq!(index.map.len(), model.len(), "empty keys are dropped");
            }
        }
    }
}
