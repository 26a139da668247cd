//! The fleet's one key index: an open-addressed table from a series'
//! [`crate::SeriesKey::stable_hash`] to an id in a caller-owned arena —
//! the shard registry's slots and the cold store's record entries. The
//! table stores no key: the caller's closure confirms a hash hit (the
//! registry compares the arena entry's key, the cold store reads the key
//! back from its file), and a mismatch continues the probe. The ingest
//! path probes with the hash the router already computed, so a known key
//! costs no re-hash.

/// Vacant-bucket marker (an arena can never reach 2³² − 1 ids before
/// exhausting memory).
const EMPTY: u32 = u32::MAX;

/// One `(stable_hash, id)` bucket; an id of [`EMPTY`] marks it vacant.
type Bucket = (u64, u32);

/// Stable hash → arena id: linear probing over a power-of-two table at
/// ≤ 75% load, with backward-shift deletion (no tombstones, so probe
/// chains never rot).
#[derive(Default)]
pub(crate) struct KeyIndex {
    /// Length is always zero or a power of two.
    buckets: Vec<Bucket>,
    /// Occupied bucket count.
    len: usize,
}

impl KeyIndex {
    /// Number of registered ids.
    pub(crate) fn len(&self) -> usize {
        self.len
    }

    /// The first id registered under `hash` that `confirm` accepts
    /// (distinct keys can share a 64-bit hash, so only the caller, who
    /// owns the keys, can tell them apart).
    pub(crate) fn find(&self, hash: u64, mut confirm: impl FnMut(u32) -> bool) -> Option<u32> {
        if self.len == 0 {
            return None;
        }
        let mask = self.buckets.len() - 1;
        let mut i = (hash as usize) & mask;
        loop {
            let (h, id) = self.buckets[i];
            if id == EMPTY {
                return None;
            }
            if h == hash && confirm(id) {
                return Some(id);
            }
            i = (i + 1) & mask;
        }
    }

    /// Registers `hash → id` (the caller guarantees the key is absent).
    pub(crate) fn insert(&mut self, hash: u64, id: u32) {
        debug_assert_ne!(id, EMPTY);
        self.reserve(1);
        self.insert_raw(hash, id);
        self.len += 1;
    }

    /// Grows the table until `extra` more entries fit under the 75% load
    /// bound.
    pub(crate) fn reserve(&mut self, extra: usize) {
        while (self.len + extra) * 4 > self.buckets.len() * 3 {
            self.grow();
        }
    }

    /// Places an entry in the first vacant bucket of its probe chain
    /// (capacity is guaranteed by the caller).
    fn insert_raw(&mut self, hash: u64, id: u32) {
        let mask = self.buckets.len() - 1;
        let mut i = (hash as usize) & mask;
        while self.buckets[i].1 != EMPTY {
            i = (i + 1) & mask;
        }
        self.buckets[i] = (hash, id);
    }

    /// Doubles the table and re-seats every entry (hashes are stored, so
    /// no key access is needed).
    fn grow(&mut self) {
        let new_cap = (self.buckets.len() * 2).max(16);
        let old = std::mem::replace(&mut self.buckets, vec![(0, EMPTY); new_cap]);
        for (h, id) in old {
            if id != EMPTY {
                self.insert_raw(h, id);
            }
        }
    }

    /// Unregisters the bucket holding `id` (probed from `hash`), then
    /// backward-shifts the rest of the cluster so every survivor stays
    /// reachable from its home bucket without tombstones.
    pub(crate) fn remove(&mut self, hash: u64, id: u32) {
        if self.len == 0 {
            return;
        }
        let mask = self.buckets.len() - 1;
        let mut hole = (hash as usize) & mask;
        loop {
            let (_, s) = self.buckets[hole];
            if s == EMPTY {
                return; // not present: tolerated inconsistency, not a panic
            }
            if s == id {
                break;
            }
            hole = (hole + 1) & mask;
        }
        self.len -= 1;
        let mut j = hole;
        loop {
            j = (j + 1) & mask;
            let (h, s) = self.buckets[j];
            if s == EMPTY {
                break;
            }
            // an entry may fill the hole iff the hole lies on its probe
            // path: dist(home → hole) < dist(home → j), cyclically
            let home = (h as usize) & mask;
            if (hole.wrapping_sub(home) & mask) < (j.wrapping_sub(home) & mask) {
                self.buckets[hole] = self.buckets[j];
                hole = j;
            }
        }
        self.buckets[hole] = (0, EMPTY);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::types::SeriesKey;

    /// The id of `key` in `keys` (the arena), confirmed by key equality.
    fn find(index: &KeyIndex, keys: &[SeriesKey], hash: u64, key: &SeriesKey) -> Option<u32> {
        index.find(hash, |id| keys[id as usize] == *key)
    }

    #[test]
    fn a_bucket_is_at_most_16_bytes() {
        assert!(std::mem::size_of::<Bucket>() <= 16);
    }

    #[test]
    fn ids_sharing_a_hash_are_told_apart_by_their_confirm() {
        let keys: Vec<SeriesKey> = ["a", "b", "c"].map(SeriesKey::new).to_vec();
        // a, b forced under one 64-bit hash; c homes in the next bucket,
        // so it sits behind them in the same cluster
        let (forced, next) = (7u64, 8u64);
        let mut index = KeyIndex::default();
        index.insert(forced, 0);
        index.insert(forced, 1);
        index.insert(next, 2);
        assert_eq!(find(&index, &keys, forced, &keys[0]), Some(0));
        assert_eq!(find(&index, &keys, forced, &keys[1]), Some(1));
        assert_eq!(find(&index, &keys, next, &keys[2]), Some(2));
        assert_eq!(find(&index, &keys, forced, &keys[2]), None, "c is not under the hash");
        for (gone, kept) in [(0, 1), (1, 0)] {
            let mut index = KeyIndex::default();
            index.insert(forced, 0);
            index.insert(forced, 1);
            index.insert(next, 2);
            index.remove(forced, gone);
            assert_eq!(index.len(), 2);
            assert_eq!(find(&index, &keys, forced, &keys[gone as usize]), None);
            assert_eq!(find(&index, &keys, forced, &keys[kept as usize]), Some(kept));
            // backward shift pulled the cluster in: c is still reachable
            assert_eq!(find(&index, &keys, next, &keys[2]), Some(2));
            index.remove(forced, kept);
            assert_eq!(find(&index, &keys, forced, &keys[kept as usize]), None);
            assert_eq!(find(&index, &keys, next, &keys[2]), Some(2));
        }
    }

    #[test]
    fn index_survives_churn() {
        // enough keys to force several table growths plus long probe
        // chains, then heavy deletion: backward-shift removal must keep
        // every survivor reachable from its home bucket
        let keys: Vec<SeriesKey> =
            (0..500).map(|i| SeriesKey::new(format!("churn/{i}"))).collect();
        let mut index = KeyIndex::default();
        for (id, k) in keys.iter().enumerate() {
            index.insert(k.stable_hash(), id as u32);
        }
        for (id, k) in keys.iter().enumerate() {
            assert_eq!(find(&index, &keys, k.stable_hash(), k), Some(id as u32));
            assert_eq!(
                find(&index, &keys, k.stable_hash() ^ 1, k),
                None,
                "a wrong hash must not resolve"
            );
        }
        for (id, k) in keys.iter().enumerate().step_by(3) {
            index.remove(k.stable_hash(), id as u32);
        }
        for (id, k) in keys.iter().enumerate() {
            let expect = (id % 3 != 0).then_some(id as u32);
            assert_eq!(find(&index, &keys, k.stable_hash(), k), expect, "key {id} after churn");
        }
        assert_eq!(index.len(), 500 - 167);
        // re-registration keeps the index consistent
        for (id, k) in keys.iter().enumerate().step_by(3) {
            index.insert(k.stable_hash(), id as u32);
        }
        assert_eq!(index.len(), 500);
        for (id, k) in keys.iter().enumerate() {
            assert_eq!(find(&index, &keys, k.stable_hash(), k), Some(id as u32));
        }
    }
}
