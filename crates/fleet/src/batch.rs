//! Columnar per-shard sub-batch buffers for the ingest pipeline.
//!
//! The engine routes each submitted batch into one [`ShardBatch`] per
//! target shard: structure-of-arrays columns instead of per-point
//! `(idx, Record, clock)` tuples. The batch travels to the shard worker by
//! move, comes back on the reply with its `outputs` column filled, and its
//! buffers are recycled into the engine's spare pool — once the pipeline
//! is primed, a steady ingest loop reuses the same allocations batch after
//! batch. Keys are moved (not cloned) in both directions, values sit in a
//! contiguous `f64` slice for the worker's update sweep, and each key's
//! FNV-1a hash is computed once at routing time and reused by the worker's
//! registry resolution pass.

use crate::types::{PointOutput, Record, SeriesKey};

/// One shard's columnar slice of a submitted batch (see the module docs).
///
/// All columns are row-aligned: row `j` of every column describes the same
/// record. `outputs` is the exception — empty on the way in, one verdict
/// per row on the way back.
#[derive(Debug, Default)]
pub struct ShardBatch {
    /// Each row's position in the caller's original batch (the engine
    /// reassembles outputs by this index).
    pub idx: Vec<u32>,
    /// Each row's key, moved from the submitted record on the way in and
    /// moved back out into the reassembled [`crate::ScoredPoint`] — no
    /// refcount churn on the hot path.
    pub keys: Vec<SeriesKey>,
    /// Each row's [`SeriesKey::stable_hash`], computed once by the router
    /// (it already needs the hash to pick the shard) and reused by the
    /// worker's registry resolution instead of re-hashing the key bytes.
    pub hash: Vec<u64>,
    /// Each row's raw event time (what the output reports).
    pub ts: Vec<u64>,
    /// Each row's engine-clamped liveness clock (see
    /// [`crate::config::FleetConfig::max_clock_step`]).
    pub live: Vec<u64>,
    /// Each row's observed value, contiguous for the worker's sweep.
    pub values: Vec<f64>,
    /// Each row's verdict, filled by the worker (empty until then).
    pub outputs: Vec<PointOutput>,
}

impl ShardBatch {
    /// Number of rows.
    pub fn len(&self) -> usize {
        self.idx.len()
    }

    /// True when the batch holds no rows.
    pub fn is_empty(&self) -> bool {
        self.idx.is_empty()
    }

    /// Appends one routed record: `idx` is its position in the caller's
    /// batch, `hash` its precomputed stable hash, `live` its clamped
    /// liveness clock. The record's key is moved in.
    pub fn push(&mut self, idx: u32, record: Record, hash: u64, live: u64) {
        self.idx.push(idx);
        self.keys.push(record.key);
        self.hash.push(hash);
        self.ts.push(record.t);
        self.live.push(live);
        self.values.push(record.value);
    }

    /// Empties every column, keeping the capacity (pool recycling).
    pub fn clear(&mut self) {
        self.idx.clear();
        self.keys.clear();
        self.hash.clear();
        self.ts.clear();
        self.live.clear();
        self.values.clear();
        self.outputs.clear();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn push_and_clear_keep_columns_aligned() {
        let mut b = ShardBatch::default();
        assert!(b.is_empty());
        let rec = Record::new("host-1/cpu", 42, 1.5);
        let hash = rec.key.stable_hash();
        b.push(7, rec, hash, 40);
        assert_eq!(b.len(), 1);
        assert_eq!(b.idx[0], 7);
        assert_eq!(b.keys[0].as_str(), "host-1/cpu");
        assert_eq!(b.hash[0], hash);
        assert_eq!((b.ts[0], b.live[0]), (42, 40));
        assert_eq!(b.values[0], 1.5);
        assert!(b.outputs.is_empty(), "outputs belong to the worker");
        let cap = b.keys.capacity();
        b.clear();
        assert!(b.is_empty());
        assert_eq!(b.keys.capacity(), cap, "clear keeps the allocation");
    }
}
