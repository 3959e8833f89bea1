//! Hash-bucketed lists for the match path: a multiplicative hasher, a
//! key → list map that recycles its lists, and the slot cursor of the
//! arenas that are reset between tasks.
//!
//! Every map on the match path ([`crate::rete`]'s token and WME indexes) is
//! probed by key and never iterated to produce
//! a result, so neither the hash function nor the table layout can reach an
//! event order, a work counter or a firing sequence — only how long a probe
//! takes. That is what makes it safe to trade SipHash for one multiply: the
//! keys are [`crate::Value::hash_key`]s, WME ids and symbols the engine
//! made itself, not strings an adversary chose.

use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hash, Hasher};

/// Fibonacci hashing: one multiply per word. A multiply only carries
/// information upwards, and the keys come both ways round — small integers
/// in the low bits, `f64`s of whole numbers in the top sixteen — so each
/// word is folded onto its low half before the multiply and
/// [`Hasher::finish`] folds the product's well-mixed high half back down
/// onto the bits the table takes its bucket index from.
#[derive(Clone, Copy, Debug, Default)]
pub(crate) struct MulHasher(u64);

const GOLDEN: u64 = 0x9e37_79b9_7f4a_7c15;

impl Hasher for MulHasher {
    #[inline]
    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.write_u64(u64::from(b));
        }
    }

    #[inline]
    fn write_u32(&mut self, x: u32) {
        self.write_u64(u64::from(x));
    }

    #[inline]
    fn write_u64(&mut self, x: u64) {
        self.0 = (self.0 ^ x ^ (x >> 32)).wrapping_mul(GOLDEN);
    }

    #[inline]
    fn finish(&self) -> u64 {
        self.0 ^ (self.0 >> 32)
    }
}

/// A `HashMap` on [`MulHasher`].
pub(crate) type FastMap<K, V> = HashMap<K, V, BuildHasherDefault<MulHasher>>;

/// Spare lists shared by the [`Buckets`] of one owner (and its scratch
/// snapshots): a list that empties goes back here with its capacity, and
/// the next key that needs one takes it.
pub(crate) type Pool<T> = Vec<Vec<T>>;

/// Takes a spare list, or a new empty one.
#[inline]
pub(crate) fn take_list<T>(pool: &mut Pool<T>) -> Vec<T> {
    pool.pop().unwrap_or_default()
}

/// Returns `list` to the pool, emptied (one that never allocated is just
/// dropped: the pool holds capacity, not place-holders).
#[inline]
pub(crate) fn give_list<T>(pool: &mut Pool<T>, mut list: Vec<T>) {
    if list.capacity() > 0 {
        list.clear();
        pool.push(list);
    }
}

/// Slot numbers for an arena that is emptied and refilled many times (token
/// slots, conflict-set slots, the names a matcher gives its instantiations:
/// see [`crate::matcher`]): the last slot given back is handed out
/// first, else the next never-used one. A new arena allocates slot `len`
/// when nothing is free; the `fresh` cursor plays that length, so after
/// [`restart`](Self::restart) the numbers come exactly as from a new arena
/// — 0, 1, 2, … with given-back slots reused last-in first-out — while the
/// arena keeps every slot it ever grew, and nothing is re-listed: a restart
/// costs nothing, and only slots below [`high_water`](Self::high_water) can
/// hold anything.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct SlotCursor {
    free: Vec<u32>,
    fresh: u32,
}

impl SlotCursor {
    /// The next slot. When it equals the arena's length the caller grows
    /// the arena by one.
    #[inline]
    pub fn take(&mut self) -> u32 {
        self.free.pop().unwrap_or_else(|| {
            self.fresh += 1;
            self.fresh - 1
        })
    }

    /// Gives `slot` back.
    #[inline]
    pub fn give(&mut self, slot: u32) {
        self.free.push(slot);
    }

    /// One past the highest slot handed out since the last restart.
    #[inline]
    pub fn high_water(&self) -> usize {
        self.fresh as usize
    }

    /// Starts over as for a new arena.
    pub fn restart(&mut self) {
        self.free.clear();
        self.fresh = 0;
    }
}

/// Key → list of items in arrival order. A key exists exactly while its
/// list is non-empty. There is deliberately no way to iterate the keys.
#[derive(Clone, Debug)]
pub(crate) struct Buckets<K, T> {
    map: FastMap<K, Vec<T>>,
}

impl<K, T> Default for Buckets<K, T> {
    fn default() -> Self {
        Buckets {
            map: FastMap::default(),
        }
    }
}

impl<K: Hash + Eq + Copy, T: Copy + PartialEq> Buckets<K, T> {
    /// The items under `key`, oldest first (empty when absent).
    #[inline]
    pub(crate) fn get(&self, key: K) -> &[T] {
        self.map.get(&key).map_or(&[], Vec::as_slice)
    }

    /// True when no key holds an item.
    #[cfg(test)]
    pub(crate) fn is_empty(&self) -> bool {
        self.map.is_empty()
    }

    /// Appends `item` under `key`.
    #[inline]
    pub(crate) fn push(&mut self, key: K, item: T, pool: &mut Pool<T>) {
        self.map
            .entry(key)
            .or_insert_with(|| take_list(pool))
            .push(item);
    }

    /// Removes the first `item` under `key`, keeping the others in arrival
    /// order: `truncate_into` rolls back to a mark by popping
    /// what came later off the end, and scans over what is left visit it in
    /// the order the match counts pinned in `spam/tests/work_pins.rs` were
    /// taken in.
    pub(crate) fn remove_item(&mut self, key: K, item: T, pool: &mut Pool<T>) {
        let Some(list) = self.map.get_mut(&key) else {
            return;
        };
        if let Some(pos) = list.iter().position(|x| *x == item) {
            list.remove(pos);
        }
        if list.is_empty() {
            if let Some(list) = self.map.remove(&key) {
                give_list(pool, list);
            }
        }
    }

    /// Removes `key` and hands its list to the caller (who gives it back
    /// to the pool when done).
    pub(crate) fn take(&mut self, key: K) -> Option<Vec<T>> {
        self.map.remove(&key)
    }

    /// Empties the map into `pool`. The one place the table is walked: the
    /// walk order decides only which spare list the pool hands out next.
    /// A map with no key costs nothing — draining one walks its whole
    /// capacity, which a reset would pay per memory per task.
    pub(crate) fn clear_into(&mut self, pool: &mut Pool<T>) {
        if self.map.is_empty() {
            return;
        }
        for (_, list) in self.map.drain() {
            give_list(pool, list);
        }
    }

    /// Cuts every list back to its longest prefix of items `keep` accepts,
    /// given the key; a list cut to nothing goes to `pool` and its key with
    /// it. For owners whose lists are a kept prefix followed by what a
    /// rollback drops ([`crate::rete`]'s mark). Walks the table like
    /// [`clear_into`](Self::clear_into), and like it costs nothing on a map
    /// with no key.
    pub(crate) fn truncate_into(&mut self, mut keep: impl FnMut(K, T) -> bool, pool: &mut Pool<T>) {
        if self.map.is_empty() {
            return;
        }
        self.map.retain(|&key, list| {
            while list.last().is_some_and(|&item| !keep(key, item)) {
                list.pop();
            }
            if list.is_empty() {
                give_list(pool, std::mem::take(list));
            }
            !list.is_empty()
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeSet;

    #[test]
    fn every_kind_of_key_spreads_over_both_ends_of_the_hash() {
        // The table indexes with the low bits and tags with the top seven.
        // `3.0f64.to_bits()` has 51 trailing zeros: a bare multiply would
        // leave every whole-number float in bucket 0.
        let floats = (1..=64u64).map(|i| (i as f64).to_bits());
        let ints = 1..=64u64;
        let symbols = (1..=64u64).map(|i| 0x8000_0000_0000_0000 | i);
        for (kind, keys) in [
            ("float", floats.collect::<Vec<_>>()),
            ("int", ints.collect()),
            ("symbol", symbols.collect()),
        ] {
            let hashes = keys.iter().map(|&k| {
                let mut h = MulHasher::default();
                h.write_u64(k);
                h.finish()
            });
            let (low, high): (BTreeSet<u64>, BTreeSet<u64>) =
                hashes.map(|h| (h & 0x3f, h >> 57)).unzip();
            assert!(low.len() > 32, "{kind}: {} of 64 low patterns", low.len());
            assert!(high.len() > 32, "{kind}: {} high patterns", high.len());
        }
    }

    #[test]
    fn slot_cursor_restarts_like_a_new_arena() {
        let mut c = SlotCursor::default();
        assert_eq!([c.take(), c.take(), c.take()], [0, 1, 2]);
        c.give(0);
        c.give(2);
        assert_eq!(
            [c.take(), c.take(), c.take()],
            [2, 0, 3],
            "last given back first"
        );
        assert_eq!(c.high_water(), 4);
        c.give(1);
        c.restart();
        assert_eq!(c, SlotCursor::default());
        assert_eq!([c.take(), c.take()], [0, 1]);
    }

    #[test]
    fn buckets_keep_arrival_order_and_recycle_lists() {
        let mut pool: Pool<u32> = Vec::new();
        let mut b: Buckets<u64, u32> = Buckets::default();
        for t in [5, 6, 7] {
            b.push(1, t, &mut pool);
        }
        b.push(2, 9, &mut pool);
        b.remove_item(1, 6, &mut pool);
        assert_eq!(b.get(1), &[5, 7]);
        b.remove_item(1, 8, &mut pool); // absent item: no-op
        b.remove_item(3, 8, &mut pool); // absent key: no-op
        b.remove_item(2, 9, &mut pool);
        assert_eq!(b.get(2), &[] as &[u32]);
        assert_eq!(pool.len(), 1, "the emptied list was recycled");
        let cap = pool[0].capacity();
        b.push(4, 1, &mut pool);
        assert!(pool.is_empty() && cap > 0, "and reused by the next key");
        assert_eq!(b.take(4), Some(vec![1]));
        b.clear_into(&mut pool);
        assert!(b.is_empty());
        assert_eq!(pool.len(), 1, "key 1's list");
    }

    #[test]
    fn truncation_keeps_each_lists_accepted_prefix() {
        let mut pool: Pool<u32> = Vec::new();
        let mut b: Buckets<u64, u32> = Buckets::default();
        for (key, item) in [(1, 1), (1, 2), (1, 9), (2, 8), (2, 3), (3, 1)] {
            b.push(key, item, &mut pool);
        }
        // Key 3 goes whole; elsewhere what follows the last small item.
        b.truncate_into(|key, item| key != 3 && item < 5, &mut pool);
        assert_eq!(b.get(1), &[1, 2]);
        assert_eq!(b.get(2), &[8, 3], "a prefix, not a filter");
        assert_eq!(b.get(3), &[] as &[u32]);
        assert_eq!(pool.len(), 1, "the emptied list was recycled");
        b.truncate_into(|_, _| false, &mut pool);
        assert!(b.is_empty());
    }
}
