//! Shard worker: owns a slice of the series registry and processes the
//! messages the engine routes to it. One OS thread per shard, plain
//! `std::sync::mpsc` channels — no external runtime. Workers never see
//! the write-ahead log: with durability on, the engine thread logs each
//! whole batch before it routes a sub-batch here ([`crate::wal`]).
//!
//! Each worker has two inboxes: the FIFO ingest/control queue
//! ([`ShardMsg`]) and an unbounded read lane ([`ReadMsg`]). The worker
//! drains the lane before it handles each dequeued message, so a read is
//! answered at the next sub-batch boundary instead of waiting behind every
//! queued batch.
//!
//! The ingest sweep decomposes live series in groups of
//! [`oneshotstl::LANES`] ([`ShardState::ingest_batch`]), stepped in
//! lockstep when the width is above one; every record still gets its own
//! `catch_unwind`, so a panicking or faulting series quarantines itself
//! alone.

use crate::batch::ShardBatch;
use crate::cold_tier::ColdStore;
use crate::config::{AdmitOptions, FleetConfig};
use crate::error::FleetError;
use crate::fault::{self, FaultOp};
use crate::series::{PhaseSnapshot, QuarantineCause, SeriesState, StepOutcome};
use crate::types::{PointOutput, SeriesKey, ShardStats};
use oneshotstl::{IncrementalSolver, OneShotStl, UpdateScratch, LANES};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::mpsc::{Receiver, Sender};
use std::sync::Arc;

/// One registry entry: the series state machine plus its liveness clock.
#[derive(Debug)]
pub struct SeriesEntry {
    /// The series key (also indexed in the registry's key map).
    pub key: SeriesKey,
    /// Warm-up / live / tombstone state.
    pub state: SeriesState,
    /// Largest record `t` seen for this series (TTL clock).
    pub last_seen: u64,
    /// Engine batch seq of the last mutation (incremental-snapshot dirty
    /// marker; 0 = untouched since restore).
    pub dirty_seq: u64,
}

/// Vacant-bucket marker in [`KeyIndex`] (a real arena can never reach
/// 2³² − 1 slots before exhausting memory).
const EMPTY_BUCKET: u32 = u32::MAX;

/// Open-addressed index from a series' stable hash to its arena slot:
/// linear probing over a power-of-two table at ≤ 75% load, with
/// backward-shift deletion (no tombstones, so probe chains never rot).
///
/// The point is **hash reuse** on the hot path: the engine's router
/// already computes each record's FNV-1a [`SeriesKey::stable_hash`] once
/// per batch to pick its shard, and that value rides along in the
/// [`ShardBatch`] columns — so the worker's resolution pass indexes
/// straight off it instead of re-hashing the key bytes through the std
/// `HashMap`'s SipHash. Equality is confirmed against the arena entry,
/// which is an `Arc` pointer check when the caller's key aliases the
/// admitted one (the common case for a stable producer set).
#[derive(Default)]
struct KeyIndex {
    /// `(stable_hash, slot)` buckets; a slot of [`EMPTY_BUCKET`] marks a
    /// vacant bucket. Length is always zero or a power of two.
    buckets: Vec<(u64, u32)>,
    /// Occupied bucket count.
    len: usize,
}

impl KeyIndex {
    /// The slot registered under `hash`, confirmed by key equality against
    /// the arena (distinct keys can share a 64-bit hash).
    fn find(&self, hash: u64, key: &SeriesKey, slots: &[Option<SeriesEntry>]) -> Option<u32> {
        if self.len == 0 {
            return None;
        }
        let mask = self.buckets.len() - 1;
        let mut i = (hash as usize) & mask;
        loop {
            let (h, s) = self.buckets[i];
            if s == EMPTY_BUCKET {
                return None;
            }
            if h == hash {
                if let Some(e) = slots.get(s as usize).and_then(|e| e.as_ref()) {
                    if e.key == *key {
                        return Some(s);
                    }
                }
            }
            i = (i + 1) & mask;
        }
    }

    /// Registers `hash → slot` (the caller guarantees the key is absent).
    fn insert(&mut self, hash: u64, slot: u32) {
        debug_assert_ne!(slot, EMPTY_BUCKET);
        if (self.len + 1) * 4 > self.buckets.len() * 3 {
            self.grow();
        }
        self.insert_raw(hash, slot);
        self.len += 1;
    }

    /// Places an entry in the first vacant bucket of its probe chain
    /// (capacity is guaranteed by the caller).
    fn insert_raw(&mut self, hash: u64, slot: u32) {
        let mask = self.buckets.len() - 1;
        let mut i = (hash as usize) & mask;
        while self.buckets[i].1 != EMPTY_BUCKET {
            i = (i + 1) & mask;
        }
        self.buckets[i] = (hash, slot);
    }

    /// Doubles the table and re-seats every entry (hashes are stored, so
    /// no key access is needed).
    fn grow(&mut self) {
        let new_cap = (self.buckets.len() * 2).max(16);
        let old = std::mem::replace(&mut self.buckets, vec![(0, EMPTY_BUCKET); new_cap]);
        for (h, s) in old {
            if s != EMPTY_BUCKET {
                self.insert_raw(h, s);
            }
        }
    }

    /// Unregisters the bucket holding `slot` (probed from `hash`), then
    /// backward-shifts the rest of the cluster so every survivor stays
    /// reachable from its home bucket without tombstones.
    fn remove(&mut self, hash: u64, slot: u32) {
        if self.len == 0 {
            return;
        }
        let mask = self.buckets.len() - 1;
        let mut hole = (hash as usize) & mask;
        loop {
            let (_, s) = self.buckets[hole];
            if s == EMPTY_BUCKET {
                return; // not present: tolerated inconsistency, not a panic
            }
            if s == slot {
                break;
            }
            hole = (hole + 1) & mask;
        }
        self.len -= 1;
        let mut j = hole;
        loop {
            j = (j + 1) & mask;
            let (h, s) = self.buckets[j];
            if s == EMPTY_BUCKET {
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
        self.buckets[hole] = (0, EMPTY_BUCKET);
    }
}

/// Slot-arena series registry: entries live in a contiguous `slots` arena
/// in admission order, with a compact `KeyIndex` from stable hash to
/// slot.
///
/// The layout is the fleet's main cache lever. At 100k+ series the
/// per-series state (a few KiB each) dwarfs every cache level, so what
/// matters is the *order* the hot path walks it: processing a batch in
/// ascending slot order makes the state walk the heap monotonically
/// (slots are admission-ordered, and each entry's buffers were allocated
/// at admission), which turns TLB-miss-bound random access into
/// prefetch-friendly streaming — measured ~20× cheaper per point at the
/// 100k tier. The index itself stays a few MiB (12 bytes per bucket),
/// i.e. cache-resident, and looking up a known series hashes nothing and
/// clones no key when the caller supplies the precomputed hash.
#[derive(Default)]
pub struct Registry {
    /// Stable hash → slot in `slots`.
    index: KeyIndex,
    /// Admission-ordered entry arena; `None` marks an evicted slot
    /// awaiting reuse.
    slots: Vec<Option<SeriesEntry>>,
    /// Evicted slots available for reuse.
    free: Vec<u32>,
}

impl Registry {
    /// Number of registered series.
    pub fn len(&self) -> usize {
        self.index.len
    }

    /// True when no series is registered.
    pub fn is_empty(&self) -> bool {
        self.index.len == 0
    }

    /// The slot of `key`, if registered (cold paths; hashes the key).
    pub fn slot_of(&self, key: &SeriesKey) -> Option<u32> {
        self.slot_of_hashed(key.stable_hash(), key)
    }

    /// [`Registry::slot_of`] with the key's [`SeriesKey::stable_hash`]
    /// already computed — the ingest path, where the router's hash rides
    /// along in the batch columns.
    pub fn slot_of_hashed(&self, hash: u64, key: &SeriesKey) -> Option<u32> {
        self.index.find(hash, key, &self.slots)
    }

    /// Shared access by key (cold paths: forecast).
    pub fn get(&self, key: &SeriesKey) -> Option<&SeriesEntry> {
        self.slot_of(key).and_then(|s| self.entry(s))
    }

    /// The entry at `slot` (`None` when the slot is out of range or
    /// vacant — callers treat that as a recoverable inconsistency, not a
    /// panic; the slot arena is reachable from decoded snapshots).
    pub fn entry(&self, slot: u32) -> Option<&SeriesEntry> {
        self.slots.get(slot as usize).and_then(|e| e.as_ref())
    }

    /// Mutable access to the entry at `slot`, if occupied.
    pub fn entry_mut(&mut self, slot: u32) -> Option<&mut SeriesEntry> {
        self.slots.get_mut(slot as usize).and_then(|e| e.as_mut())
    }

    /// Registers a new entry (the key must not be present), reusing an
    /// evicted slot if one is free.
    pub fn insert(&mut self, entry: SeriesEntry) -> u32 {
        let hash = entry.key.stable_hash();
        self.insert_hashed(hash, entry)
    }

    /// [`Registry::insert`] with the entry key's stable hash already
    /// computed (the ingest path's admission branch).
    pub fn insert_hashed(&mut self, hash: u64, entry: SeriesEntry) -> u32 {
        let slot = match self.free.pop() {
            Some(slot) => {
                self.slots[slot as usize] = Some(entry);
                slot
            }
            None => {
                self.slots.push(Some(entry));
                (self.slots.len() - 1) as u32
            }
        };
        self.index.insert(hash, slot);
        slot
    }

    /// Removes the entry at `slot`, returning it (`None` when the slot
    /// was already vacant).
    pub fn remove_slot(&mut self, slot: u32) -> Option<SeriesEntry> {
        let entry = self.slots.get_mut(slot as usize).and_then(Option::take)?;
        self.index.remove(entry.key.stable_hash(), slot);
        self.free.push(slot);
        Some(entry)
    }

    /// Occupied slot indices, ascending.
    pub fn occupied(&self) -> impl Iterator<Item = u32> + '_ {
        self.slots.iter().enumerate().filter(|(_, e)| e.is_some()).map(|(i, _)| i as u32)
    }

    /// All entries, slot (admission) order.
    pub fn iter(&self) -> impl Iterator<Item = &SeriesEntry> {
        self.slots.iter().flatten()
    }
}

/// Snapshot of one registry entry, keyed.
#[derive(Debug, Clone, PartialEq)]
pub struct SeriesSnapshot {
    /// The series key.
    pub key: SeriesKey,
    /// TTL clock at snapshot time.
    pub last_seen: u64,
    /// Phase state.
    pub phase: PhaseSnapshot,
}

/// One shard's answer to a [`ShardMsg::Ingest`]: its shard index plus the
/// same columnar batch with its `outputs` column filled. Returning the
/// batch itself is what closes the buffer-recycling loop: the engine moves
/// keys and outputs out and pushes the emptied buffers back into its spare
/// pool.
pub type BatchReply = (usize, ShardBatch);

/// Messages the engine sends to a shard worker.
pub enum ShardMsg {
    /// Process a columnar sub-batch; reply with this shard's index plus
    /// the batch (outputs filled).
    Ingest {
        /// The routed columns, batch order. The `live` column is each
        /// record's `t` clamped by the engine's bounded clock (see
        /// `FleetConfig::max_clock_step`) — a future-dated record must not
        /// make its series immune to TTL eviction.
        batch: ShardBatch,
        /// Engine batch sequence number (dirty-marker for incremental
        /// snapshots).
        seq: u64,
        /// Reply channel (`shard index`, batch) — the index lets the
        /// engine tell which shards answered when another one dies.
        reply: Sender<BatchReply>,
    },
    /// Register or replace per-series admission overrides (see
    /// [`crate::FleetEngine::set_admit_options`]). Creates the series
    /// (warming, empty buffer) when the key is unknown; fails on a series
    /// already past admission.
    Admit {
        /// The targeted series.
        key: SeriesKey,
        /// The overrides to attach.
        opts: AdmitOptions,
        /// Liveness clock for a newly created entry (engine clock).
        now: u64,
        /// Dirty-marker batch seq for incremental snapshots.
        seq: u64,
        /// Reply channel.
        reply: Sender<Result<(), FleetError>>,
    },
    /// Test support: hold the worker until the channel paired with
    /// `release` is dropped or signalled. Used to fill bounded queues
    /// deterministically in backpressure tests.
    #[doc(hidden)]
    Stall {
        /// Blocks the worker until readable (or disconnected).
        release: Receiver<()>,
    },
    /// Serialize registry entries (sorted by key for stable output),
    /// together with the shard's counters — one round-trip serves both.
    /// Every collection (full or delta) advances the shard's dirty
    /// tracking: entries touched after `upto` belong to the *next* delta.
    Snapshot {
        /// Collect only series dirty since the last collection (plus the
        /// tombstones of series removed since then), instead of the full
        /// registry.
        delta: bool,
        /// Engine batch seq of this collection (the new dirty baseline).
        upto: u64,
        /// Reply channel: `(series, tombstones, stats)`; tombstones are
        /// empty for a full collection.
        reply: Sender<(Vec<SeriesSnapshot>, Vec<SeriesKey>, ShardStats)>,
    },
    /// Run the idle sweep at clock `now`: evict series idle beyond `ttl`
    /// (hot and cold-resident) and spill series idle beyond `spill_after`
    /// to the cold tier. Reply with the evicted count.
    EvictIdle {
        /// Current engine clock.
        now: u64,
        /// Eviction threshold (`None`: nothing is forgotten).
        ttl: Option<u64>,
        /// Spill threshold (`None`, or no cold store attached: nothing
        /// leaves memory).
        spill_after: Option<u64>,
        /// Reply channel.
        reply: Sender<usize>,
    },
    /// Open (or reopen) this shard's cold store under `dir`; reply with
    /// the outcome. See [`crate::FleetEngine::attach_cold_dir`].
    ColdCtl {
        /// Directory holding the per-shard cold files.
        dir: PathBuf,
        /// Reply channel.
        reply: Sender<Result<(), String>>,
    },
    /// Wake-up nudge for the read lane: carries nothing, and handling it
    /// is a no-op — dequeuing it is what makes an idle worker drain its
    /// [`ReadMsg`] lane.
    Poll,
    /// Test support: panic the worker on dequeue — the deterministic
    /// stand-in for "a shard worker died" that the dead-shard tests (and
    /// chaos drills) use to exercise respawn and recovery.
    #[doc(hidden)]
    Crash,
    /// Terminate the worker.
    Shutdown,
}

/// One shard's answer to a [`ReadMsg::Forecast`]: its shard index, the
/// seq of the last ingest sub-batch it had applied when it answered, and
/// one `(position in the caller's key list, forecast)` entry per item
/// (`None` for a series that is unknown or not live).
pub type ForecastReply = (usize, u64, Vec<(usize, Option<Vec<f64>>)>);

/// Read-only requests. They travel on the worker's read lane, never on its
/// ingest/control queue: the worker drains the lane before it handles each
/// dequeued [`ShardMsg`], so a read waits for at most the sub-batch in
/// progress, not for the whole backlog. The engine follows each read with
/// a [`ShardMsg::Poll`] so an idle worker wakes up to answer it.
pub enum ReadMsg {
    /// Forecast `1..=horizon` steps ahead for a batch of series on this
    /// shard (see [`crate::FleetEngine::forecast_as_of`]).
    Forecast {
        /// `(position in the caller's key list, series)` pairs.
        items: Vec<(usize, SeriesKey)>,
        /// Steps ahead (`1..=horizon`).
        horizon: usize,
        /// Reply channel.
        reply: Sender<ForecastReply>,
    },
    /// Report registry/queue statistics; `queue_depth` is the backlog
    /// still queued when the read was answered.
    Stats {
        /// Reply channel.
        reply: Sender<ShardStats>,
    },
}

/// A shard's registry plus lifetime counters. Owned by the worker thread;
/// also constructed engine-side during restore.
pub struct ShardState {
    /// Shard index (stats labelling).
    pub index: usize,
    /// The series registry (slot arena + key index).
    pub registry: Registry,
    /// Engine configuration (shared, immutable).
    pub config: Arc<FleetConfig>,
    /// One trial scratch shared by every series on this shard: the hot
    /// buffers stay in cache across series and per-series scratch memory
    /// is zero (see `oneshotstl::UpdateScratch`).
    pub scratch: UpdateScratch<IncrementalSolver>,
    /// Reusable `(slot, position)` buffer for slot-sorted batch
    /// processing.
    order: Vec<(u32, u32)>,
    /// Batch seq of the last snapshot collection (dirty baseline).
    pub snapshot_seq: u64,
    /// Seq of the last ingest sub-batch applied (or of the image a
    /// restore loaded). Forecast replies carry it; the engine turns it
    /// into their "as of" stamp.
    pub applied_seq: u64,
    /// Keys evicted since the last snapshot collection (delta tombstones).
    /// Only tracked once a first collection happened, so an engine that
    /// never snapshots never accumulates them.
    pub removed: Vec<SeriesKey>,
    /// Whether a snapshot collection has happened (tombstone tracking on).
    track_deltas: bool,
    /// The shard's cold tier (`None` until
    /// [`crate::FleetEngine::attach_cold_dir`] installs one).
    pub cold: Option<ColdStore>,
    /// Lifetime counters.
    pub evicted: u64,
    /// Series promoted to live.
    pub admitted: u64,
    /// Records processed.
    pub points: u64,
    /// Anomalies flagged.
    pub anomalies: u64,
    /// Series spilled to the cold tier.
    pub spills: u64,
    /// Cold series rehydrated on their next point.
    pub rehydrations: u64,
    /// Cold-tier I/O or decode failures survived (the shard degrades —
    /// spill skipped or series re-warmed — instead of panicking).
    pub cold_errors: u64,
}

impl ShardState {
    /// An empty shard.
    pub fn new(index: usize, config: Arc<FleetConfig>) -> Self {
        ShardState {
            index,
            registry: Registry::default(),
            config,
            scratch: UpdateScratch::default(),
            order: Vec::new(),
            snapshot_seq: 0,
            applied_seq: 0,
            removed: Vec::new(),
            track_deltas: false,
            cold: None,
            evicted: 0,
            admitted: 0,
            points: 0,
            anomalies: 0,
            spills: 0,
            rehydrations: 0,
            cold_errors: 0,
        }
    }

    /// Restore support: pretend a collection at `seq` already happened, so
    /// the first delta after a restore covers exactly what changed since
    /// the restored image. The registry then holds the image at `seq`, so
    /// reads answer as of `seq` until the next sub-batch lands.
    pub fn set_snapshot_baseline(&mut self, seq: u64) {
        self.snapshot_seq = seq;
        self.applied_seq = seq;
        self.track_deltas = true;
    }

    /// Resolves a record's registry slot from the key's stable hash (the
    /// router's hash column), admitting an unknown key (the only point
    /// where a key is cloned on the ingest path).
    fn resolve_slot_hashed(
        &mut self,
        hash: u64,
        key: &SeriesKey,
        liveness_t: u64,
        seq: u64,
    ) -> u32 {
        if let Some(slot) = self.registry.slot_of_hashed(hash, key) {
            return slot;
        }
        if let Some(slot) = self.rehydrate_hashed(hash, key, seq) {
            return slot;
        }
        self.registry.insert_hashed(
            hash,
            SeriesEntry {
                key: key.clone(),
                state: SeriesState::new(&self.config),
                last_seen: liveness_t,
                dirty_seq: seq,
            },
        )
    }

    /// Pulls a cold-resident series back into the registry: decodes its
    /// blob, rebuilds the state, and inserts it with its stored liveness
    /// clock — bit-identical to a series that never spilled. `None` when
    /// the key is not cold (the normal admission path takes over) or the
    /// blob is unreadable (counted in `cold_errors`; the series re-warms).
    fn rehydrate_hashed(&mut self, hash: u64, key: &SeriesKey, seq: u64) -> Option<u32> {
        if !self.cold.as_ref().is_some_and(|c| c.is_fresh(key)) {
            return None;
        }
        let restored =
            self.cold.as_mut().expect("cold store checked above").take_blob(key).ok().and_then(
                |(_, blob)| {
                    let snap = crate::codec::decode_series_blob(&blob).ok()?;
                    // a blob recorded under the wrong key is corruption
                    if snap.key != *key {
                        return None;
                    }
                    let state = SeriesState::from_snapshot(snap.phase, &self.config).ok()?;
                    Some((snap.last_seen, state))
                },
            );
        let Some((last_seen, state)) = restored else {
            self.cold_errors += 1;
            return None;
        };
        self.rehydrations += 1;
        Some(self.registry.insert_hashed(
            hash,
            SeriesEntry { key: key.clone(), state, last_seen, dirty_seq: seq },
        ))
    }

    /// Liveness bookkeeping for one record against its resolved slot:
    /// counts the point and stamps the entry's TTL clock and dirty seq.
    /// `None` when the slot vanished — an internal inconsistency; dropping
    /// the point (counted as quarantined) beats panicking the worker.
    fn touch(&mut self, slot: u32, liveness_t: u64, seq: u64) -> Option<&mut SeriesEntry> {
        self.points += 1;
        let entry = self.registry.entry_mut(slot)?;
        entry.last_seen = entry.last_seen.max(liveness_t);
        entry.dirty_seq = seq;
        Some(entry)
    }

    /// Steps the series in `slot` on the scalar path. `check_fault`
    /// consults the [`FaultOp::SeriesStep`] seam first; a grouped record
    /// replayed here already passed it at collection.
    fn step_entry(&mut self, slot: u32, value: f64, check_fault: bool) -> PointOutput {
        let Some(entry) = self.registry.entry_mut(slot) else {
            return PointOutput::Quarantined;
        };
        // per-series blast radius: a panicking update quarantines this
        // series instead of unwinding the worker and sinking the shard
        let SeriesEntry { key, state, .. } = entry;
        let config = &self.config;
        let scratch = &mut self.scratch;
        let stepped = catch_unwind(AssertUnwindSafe(|| {
            if check_fault {
                series_fault(key)?;
            }
            Ok(state.step(value, config, scratch))
        }));
        self.settle(slot, stepped)
    }

    /// Turns one guarded series step into the record's output: a fault or
    /// a panic quarantines the series, anything else is tallied
    /// (promotions, anomalies).
    fn settle(
        &mut self,
        slot: u32,
        stepped: std::thread::Result<Result<StepOutcome, QuarantineCause>>,
    ) -> PointOutput {
        let outcome = match stepped {
            Ok(Ok(outcome)) => outcome,
            Ok(Err(cause)) => return self.quarantine(slot, cause),
            Err(_) => return self.quarantine_panicked(slot),
        };
        let output = match outcome {
            StepOutcome::Promoted(out) => {
                self.admitted += 1;
                out
            }
            StepOutcome::Output(out) => out,
        };
        if matches!(output, PointOutput::Scored { is_anomaly: true, .. }) {
            self.anomalies += 1;
        }
        output
    }

    /// Quarantines the series in `slot`.
    fn quarantine(&mut self, slot: u32, cause: QuarantineCause) -> PointOutput {
        if let Some(entry) = self.registry.entry_mut(slot) {
            entry.state = SeriesState::Quarantined { cause, dropped: 1 };
        }
        PointOutput::Quarantined
    }

    /// Quarantines a series whose step panicked, and resets the shared
    /// trial scratch, which may be torn mid-update.
    fn quarantine_panicked(&mut self, slot: u32) -> PointOutput {
        self.scratch = UpdateScratch::default();
        self.quarantine(slot, QuarantineCause::Panic)
    }

    /// Steps a group of distinct live series that passed the fault seam.
    /// A full group runs its Δt = 0 base trials in lockstep
    /// ([`OneShotStl::begin_lanes`]), then finishes each record — commit,
    /// non-finite quarantine, backend, forecast head — under its own
    /// `catch_unwind`. The lockstep phase only reads committed state and
    /// writes the scratch, so when it panics no series has moved: the
    /// scratch is reset and the records replay one by one, as does a
    /// partial group.
    fn step_group(&mut self, group: &[(u32, usize)], batch: &mut ShardBatch) {
        let Ok(group) = <&[(u32, usize); LANES]>::try_from(group) else {
            for &(slot, i) in group {
                batch.outputs[i] = self.step_entry(slot, batch.values[i], false);
            }
            return;
        };
        let values = group.map(|(_, i)| batch.values[i]);
        let (registry, scratch) = (&self.registry, &mut self.scratch);
        let begun = catch_unwind(AssertUnwindSafe(|| {
            let models = group.map(|(slot, _)| match registry.entry(slot).map(|e| &e.state) {
                Some(SeriesState::Live(live)) => &live.detector.decomposer,
                _ => panic!("grouped series {slot} is not live"),
            });
            OneShotStl::begin_lanes(models, values, scratch)
        }));
        let Ok(trials) = begun else {
            self.scratch = UpdateScratch::default();
            for &(slot, i) in group {
                batch.outputs[i] = self.step_entry(slot, batch.values[i], false);
            }
            return;
        };
        for (lane, &(slot, i)) in group.iter().enumerate() {
            let Some(entry) = self.registry.entry_mut(slot) else {
                batch.outputs[i] = PointOutput::Quarantined;
                continue;
            };
            let state = &mut entry.state;
            let scratch = &mut self.scratch;
            let stepped = catch_unwind(AssertUnwindSafe(|| {
                Ok(state.finish_lane(values[lane], &trials, lane, scratch))
            }));
            let panicked = stepped.is_err();
            batch.outputs[i] = self.settle(slot, stepped);
            if panicked {
                // the reset scratch lost the later lanes' base trials
                for &(slot, i) in &group[lane + 1..] {
                    batch.outputs[i] = self.step_entry(slot, batch.values[i], false);
                }
                return;
            }
        }
    }

    /// Processes one routed sub-batch in place: a single registry
    /// resolution pass over the key/hash columns (consecutive rows of the
    /// same series reuse the previous resolution — a run of points for one
    /// series costs one lookup), then an update sweep **in ascending slot
    /// order** writing each verdict into `batch.outputs` at its row.
    /// Per-series order within the batch is preserved (the `(slot, row)`
    /// sort breaks ties by row); the engine reassembles outputs by the
    /// `idx` column, so reply order is free. Slot order is admission
    /// order, so the per-series state is walked monotonically through the
    /// heap — the cache/TLB win described on [`Registry`].
    ///
    /// The sweep gathers consecutive records of distinct live series into
    /// groups of [`LANES`] whose decompositions step in lockstep
    /// ([`OneShotStl::begin_lanes`]); every other record takes the scalar
    /// path. Both are bit-identical.
    pub fn ingest_batch(&mut self, batch: &mut ShardBatch, seq: u64) {
        let n = batch.len();
        let mut order = std::mem::take(&mut self.order);
        order.clear();
        let mut prev: Option<u32> = None;
        for i in 0..n {
            let slot = match prev {
                Some(s)
                    if batch.hash[i] == batch.hash[i - 1]
                        && batch.keys[i] == batch.keys[i - 1] =>
                {
                    s
                }
                _ => {
                    self.resolve_slot_hashed(batch.hash[i], &batch.keys[i], batch.live[i], seq)
                }
            };
            prev = Some(slot);
            order.push((slot, i as u32));
        }
        // (slot, row): stable per-series order at equal slots. A batch
        // whose rows already arrive in admission order (a producer cycling
        // a fixed key set) skips the sort entirely.
        if !order.is_sorted() {
            order.sort_unstable();
        }
        batch.outputs.clear();
        // placeholder verdict; the sweep below writes every row exactly once
        batch.outputs.resize(n, PointOutput::Rejected);
        let mut group = [(0u32, 0usize); LANES];
        let mut grouped = 0;
        for &(slot, i) in &order {
            let i = i as usize;
            // a series' next record waits for its grouped one (rows of one
            // series are adjacent in slot order)
            if grouped > 0 && group[grouped - 1].0 == slot {
                self.step_group(&group[..grouped], batch);
                grouped = 0;
            }
            let Some(entry) = self.touch(slot, batch.live[i], seq) else {
                batch.outputs[i] = PointOutput::Quarantined;
                continue;
            };
            if !matches!(entry.state, SeriesState::Live(_)) {
                batch.outputs[i] = self.step_entry(slot, batch.values[i], true);
                continue;
            }
            // the fault seam is consulted here, in record order, so a
            // failing or panicking hook quarantines only its own series
            let key = &entry.key;
            match catch_unwind(AssertUnwindSafe(|| series_fault(key))) {
                Ok(Ok(())) => {
                    group[grouped] = (slot, i);
                    grouped += 1;
                    if grouped == LANES {
                        self.step_group(&group, batch);
                        grouped = 0;
                    }
                }
                Ok(Err(cause)) => batch.outputs[i] = self.quarantine(slot, cause),
                Err(_) => batch.outputs[i] = self.quarantine_panicked(slot),
            }
        }
        self.step_group(&group[..grouped], batch);
        self.order = order;
        self.applied_seq = seq;
    }

    /// Registers or replaces per-series admission overrides. An unknown
    /// key is created (warming, empty buffer) so the overrides are in
    /// place before its first point; a warming series has its pending
    /// override set **replaced** — a new set without a period reverts to
    /// the engine's declared period (under
    /// [`crate::PeriodPolicy::Detect`] a previously known period is
    /// kept; see [`crate::series::Warmup::replace_overrides`]); a live or
    /// rejected series fails — the tuning window has passed.
    pub fn set_admit_options(
        &mut self,
        key: &SeriesKey,
        opts: AdmitOptions,
        now: u64,
        seq: u64,
    ) -> Result<(), FleetError> {
        match self.registry.slot_of(key) {
            Some(slot) => {
                let config = Arc::clone(&self.config);
                let Some(entry) = self.registry.entry_mut(slot) else {
                    return Err(FleetError::Internal("registry slot vanished"));
                };
                match &mut entry.state {
                    SeriesState::Warming(w) => {
                        w.replace_overrides(&config, opts);
                        // registration is a liveness signal, same as on
                        // the create branch: a just-re-tuned series must
                        // not be swept by the next TTL pass
                        entry.last_seen = entry.last_seen.max(now);
                        entry.dirty_seq = seq;
                        Ok(())
                    }
                    SeriesState::Quarantined { .. } => {
                        // quarantine is re-admittable by design: register
                        // the series again from an empty warm-up buffer
                        entry.state = SeriesState::with_overrides(&config, opts);
                        entry.last_seen = entry.last_seen.max(now);
                        entry.dirty_seq = seq;
                        Ok(())
                    }
                    _ => Err(FleetError::AlreadyAdmitted { key: key.clone() }),
                }
            }
            None => {
                self.registry.insert(SeriesEntry {
                    key: key.clone(),
                    state: SeriesState::with_overrides(&self.config, opts),
                    last_seen: now,
                    dirty_seq: seq,
                });
                Ok(())
            }
        }
    }

    /// The idle sweep: evicts entries idle beyond `ttl` (hot ones, and —
    /// with a cold store attached — cold-resident ones, whose records are
    /// tombstoned so a reopen cannot resurrect them), and spills hot
    /// entries idle beyond `spill_after` to the cold tier. Returns how
    /// many series were evicted; spilled keys become tombstones of the
    /// next delta snapshot (their state lives in the cold file now), and
    /// a spill failure leaves the series hot for the next sweep.
    pub fn evict_idle(
        &mut self,
        now: u64,
        ttl: Option<u64>,
        spill_after: Option<u64>,
    ) -> usize {
        let mut evicted = 0usize;
        let mut cold_io = false;
        for slot in 0..self.registry.slots.len() as u32 {
            let Some(e) = &self.registry.slots[slot as usize] else { continue };
            let idle = now.saturating_sub(e.last_seen);
            if ttl.is_some_and(|ttl| idle > ttl) {
                let Some(entry) = self.registry.remove_slot(slot) else { continue };
                if self.track_deltas {
                    self.removed.push(entry.key.clone());
                }
                // the file may still hold this key (a stale record from a
                // past spill); a reopen would resurrect ancient state
                if let Some(cold) = &mut self.cold {
                    match cold.tombstone(&entry.key) {
                        Ok(wrote) => cold_io |= wrote,
                        Err(_) => self.cold_errors += 1,
                    }
                }
                evicted += 1;
                continue;
            }
            if spill_after.is_none_or(|after| idle <= after) || self.cold.is_none() {
                continue;
            }
            let snap = SeriesSnapshot {
                key: e.key.clone(),
                last_seen: e.last_seen,
                phase: e.state.to_snapshot(),
            };
            let blob = crate::codec::encode_series_blob(&snap);
            let cold = self.cold.as_mut().expect("cold store checked above");
            match cold.put(&snap.key, snap.last_seen, &blob) {
                Ok(()) => {
                    cold_io = true;
                    self.registry.remove_slot(slot);
                    if self.track_deltas {
                        self.removed.push(snap.key);
                    }
                    self.spills += 1;
                }
                // degraded: the series stays hot; retried next sweep
                Err(_) => self.cold_errors += 1,
            }
        }
        // the cold half of TTL eviction: entries that aged out on disk
        if let (Some(ttl), Some(cold)) = (ttl, self.cold.as_mut()) {
            match cold.expire_idle(now, ttl) {
                Ok(n) => {
                    cold_io |= n > 0;
                    evicted += n;
                }
                Err(_) => self.cold_errors += 1,
            }
        }
        if cold_io {
            // one fsync (and at most one compaction) per sweep that wrote
            let cold = self.cold.as_mut().expect("cold_io implies a store");
            if cold.sync().is_err() {
                self.cold_errors += 1;
            }
            if cold.maybe_compact().is_err() {
                self.cold_errors += 1;
            }
        }
        self.evicted += evicted as u64;
        evicted
    }

    /// Serializes the registry (`delta`: only entries dirty since the last
    /// collection), sorted by key (stable snapshot bytes), plus the
    /// tombstones of the interval. Advances the dirty baseline to `upto`.
    pub fn snapshot(
        &mut self,
        delta: bool,
        upto: u64,
    ) -> (Vec<SeriesSnapshot>, Vec<SeriesKey>) {
        let since = self.snapshot_seq;
        let mut out: Vec<SeriesSnapshot> = self
            .registry
            .iter()
            .filter(|e| !delta || e.dirty_seq > since)
            .map(|e| SeriesSnapshot {
                key: e.key.clone(),
                last_seen: e.last_seen,
                phase: e.state.to_snapshot(),
            })
            .collect();
        out.sort_by(|a, b| a.key.cmp(&b.key));
        let mut tombstones = std::mem::take(&mut self.removed);
        if delta {
            tombstones.sort();
            tombstones.dedup();
        } else {
            tombstones.clear();
        }
        self.snapshot_seq = upto;
        self.track_deltas = true;
        (out, tombstones)
    }

    /// Multi-horizon forecast for one series: `ŷ(t+1) .. ŷ(t+horizon)`.
    /// `None` when the series is unknown, warming, or rejected. A series
    /// with a forecast head uses its damped-trend rule
    /// (`forecast_into` — the zero-allocation fill); one without (head
    /// disabled) keeps the plain seasonal carry-forward.
    pub fn forecast_series(&self, key: &SeriesKey, horizon: usize) -> Option<Vec<f64>> {
        let entry = self.registry.get(key)?;
        match &entry.state {
            SeriesState::Live(live) if live.detector.decomposer.is_initialized() => {
                let mut out = vec![0.0; horizon];
                match &live.forecast {
                    Some(f) => {
                        live.detector.decomposer.forecast_into(f.options().damping, &mut out)
                    }
                    None => {
                        for (i, o) in out.iter_mut().enumerate() {
                            *o = live.detector.decomposer.predict(i + 1);
                        }
                    }
                }
                Some(out)
            }
            _ => None,
        }
    }

    /// Registry/queue statistics (queue depth filled in by the worker).
    /// The diagnostic counters (shift searches, scorer alarms, forecast
    /// alarms) are summed over live series on demand — they live inside
    /// the per-series state and reset on snapshot restore.
    pub fn stats(&self) -> ShardStats {
        let mut s = ShardStats {
            shard: self.index,
            evicted: self.evicted,
            admitted: self.admitted,
            points: self.points,
            anomalies: self.anomalies,
            cold_resident: self.cold.as_ref().map_or(0, ColdStore::resident),
            spills: self.spills,
            rehydrations: self.rehydrations,
            cold_errors: self.cold_errors,
            ..Default::default()
        };
        for e in self.registry.iter() {
            match &e.state {
                SeriesState::Live(live) => {
                    s.live += 1;
                    let (searches, trials) = live.detector.decomposer.shift_search_stats();
                    s.shift_searches += searches;
                    s.shift_trials += trials;
                    let (z, cusum) = live.detector.scorer().alarm_counts();
                    s.z_alarms += z;
                    s.cusum_alarms += cusum;
                    if let Some(f) = &live.forecast {
                        s.forecast_alarms += f.alarms();
                    }
                    if let Some(b) = &live.backend {
                        s.trend_alarms += b.trend_alarms();
                    }
                }
                SeriesState::Warming(_) => s.warming += 1,
                SeriesState::Rejected => s.rejected += 1,
                SeriesState::Quarantined { .. } => s.quarantined += 1,
            }
        }
        s
    }
}

/// The injectable stand-in for "this series' update went bad" (its
/// sibling failure mode — a panic — is injected by a hook that panics
/// instead of returning an error).
fn series_fault(key: &SeriesKey) -> Result<(), QuarantineCause> {
    fault::check(FaultOp::SeriesStep, Path::new(key.as_str()))
        .map_err(|_| QuarantineCause::NonFinite)
}

/// Answers one read-lane request against the current registry.
fn serve_read(state: &ShardState, read: ReadMsg, queue_depth: &AtomicUsize) {
    match read {
        ReadMsg::Forecast { items, horizon, reply } => {
            let out = items
                .into_iter()
                .map(|(idx, key)| (idx, state.forecast_series(&key, horizon)))
                .collect();
            let _ = reply.send((state.index, state.applied_seq, out));
        }
        ReadMsg::Stats { reply } => {
            let mut s = state.stats();
            // the backlog still queued behind the message being handled
            s.queue_depth = queue_depth.load(Ordering::Relaxed);
            let _ = reply.send(s);
        }
    }
}

/// The worker loop: drains messages until `Shutdown` or channel close,
/// answering every pending read-lane request before it handles each
/// dequeued message — reads land between sub-batches, never inside one.
///
/// `queue_depth` counts requests the engine has sent on `rx` that this
/// worker has not dequeued yet — i.e. channel occupancy, the same quantity
/// a bounded queue caps. It is decremented on dequeue (not on completion)
/// so that a synchronous caller who has already received a reply never
/// observes a stale nonzero depth; the engine samples it for
/// [`ShardStats::queue_depth`] and for the [`crate::QueuePolicy::Reject`]
/// admission check.
pub fn run_worker(
    mut state: ShardState,
    rx: Receiver<ShardMsg>,
    lane: Receiver<ReadMsg>,
    queue_depth: Arc<AtomicUsize>,
    buf_return: Sender<ShardBatch>,
) {
    while let Ok(msg) = rx.recv() {
        queue_depth.fetch_sub(1, Ordering::Relaxed);
        while let Ok(read) = lane.try_recv() {
            serve_read(&state, read, &queue_depth);
        }
        match msg {
            ShardMsg::Ingest { mut batch, seq, reply } => {
                state.ingest_batch(&mut batch, seq);
                // the filled batch rides back on the reply; the engine
                // moves keys and outputs out and recycles the buffers. An
                // abandoned batch (dropped receiver) is handed back
                // through the return channel instead, so its buffers
                // rejoin the pool rather than being dropped.
                if let Err(std::sync::mpsc::SendError((_, mut b))) =
                    reply.send((state.index, batch))
                {
                    b.clear();
                    let _ = buf_return.send(b);
                }
            }
            ShardMsg::Admit { key, opts, now, seq, reply } => {
                let _ = reply.send(state.set_admit_options(&key, opts, now, seq));
            }
            ShardMsg::Stall { release } => {
                let _ = release.recv();
            }
            ShardMsg::Snapshot { delta, upto, reply } => {
                let (series, tombstones) = state.snapshot(delta, upto);
                let _ = reply.send((series, tombstones, state.stats()));
            }
            ShardMsg::EvictIdle { now, ttl, spill_after, reply } => {
                let _ = reply.send(state.evict_idle(now, ttl, spill_after));
            }
            ShardMsg::ColdCtl { dir, reply } => {
                let outcome = match ColdStore::open(&dir, state.index) {
                    Ok(store) => {
                        state.cold = Some(store);
                        Ok(())
                    }
                    Err(e) => Err(format!("cold store on shard {}: {e}", state.index)),
                };
                let _ = reply.send(outcome);
            }
            ShardMsg::Poll => {}
            ShardMsg::Crash => panic!("injected worker crash (test)"),
            ShardMsg::Shutdown => break,
        }
    }
}

#[cfg(test)]
mod lane_tests {
    use super::*;
    use crate::types::Record;
    use std::sync::Arc as StdArc;

    /// Three lane groups' worth of series.
    const KEYS: usize = 3 * LANES;

    /// The faulting series: the second of the sweep (the second lane of
    /// the first group when groups are wider than one).
    const VICTIM: usize = 1;

    /// Key prefix of the fault test.
    const BLAST: &str = "lane-blast";

    /// Series `k` of a test; each test uses its own `prefix`, because
    /// fault hooks are process-wide and scoped by key.
    fn key(prefix: &str, k: usize) -> SeriesKey {
        SeriesKey::new(format!("{prefix}/{k}"))
    }

    /// Feeds one point per series and returns the outputs by key.
    fn ingest(shard: &mut ShardState, prefix: &str, step: u64) -> Vec<PointOutput> {
        let mut batch = ShardBatch::default();
        for k in 0..KEYS {
            let phase = (step as usize + 3 * k) as f64 / 24.0;
            let wobble = ((step * 7 + k as u64 * 13) % 11) as f64 / 50.0;
            let value = 2.0 + (2.0 * std::f64::consts::PI * phase).sin() + wobble;
            let key = key(prefix, k);
            let hash = key.stable_hash();
            batch.push(k as u32, Record { key, t: step, value }, hash, step);
        }
        shard.ingest_batch(&mut batch, step + 1);
        batch.outputs
    }

    fn bits(out: &PointOutput) -> [u64; 4] {
        let PointOutput::Scored { point, score, .. } = out else {
            panic!("expected a scored point, got {out:?}");
        };
        [point.trend, point.seasonal, point.residual, *score].map(f64::to_bits)
    }

    /// A `SeriesStep` fault — an error or a panic — for one series inside
    /// a lane group quarantines that series alone: the series grouped with
    /// it, and every later group, keep scoring bit-identically to a shard
    /// that saw no fault.
    #[test]
    fn a_faulting_lane_quarantines_only_its_series() {
        let config = Arc::new(FleetConfig::fixed_period(24));
        // past admission and the solvers' 4-point warm-up
        let warm = config.init_len(24) as u64 + 8;
        let fail: fault::FaultHook = StdArc::new(|op, _| {
            (op == FaultOp::SeriesStep).then(|| std::io::Error::other("injected series fault"))
        });
        let panic: fault::FaultHook = StdArc::new(|op, _| {
            assert!(op != FaultOp::SeriesStep, "injected series panic");
            None
        });
        for (hook, cause) in
            [(fail, QuarantineCause::NonFinite), (panic, QuarantineCause::Panic)]
        {
            let mut faulty = ShardState::new(0, Arc::clone(&config));
            let mut clean = ShardState::new(0, Arc::clone(&config));
            for step in 0..warm {
                ingest(&mut faulty, BLAST, step);
                ingest(&mut clean, BLAST, step);
            }
            assert_eq!(faulty.stats().live, KEYS);
            let _guard = fault::inject(key(BLAST, VICTIM).as_str(), hook);
            for step in warm..warm + 40 {
                let got = ingest(&mut faulty, BLAST, step);
                let want = ingest(&mut clean, BLAST, step);
                for k in 0..KEYS {
                    if k == VICTIM {
                        assert_eq!(got[k], PointOutput::Quarantined, "step {step}");
                    } else {
                        assert_eq!(bits(&got[k]), bits(&want[k]), "series {k} step {step}");
                    }
                }
            }
            let stats = faulty.stats();
            assert_eq!((stats.live, stats.quarantined), (KEYS - 1, 1));
            let entry =
                faulty.registry.get(&key(BLAST, VICTIM)).expect("the series stays registered");
            assert!(
                matches!(entry.state, SeriesState::Quarantined { cause: c, .. } if c == cause)
            );
        }
    }

    /// A panic in the lockstep phase moves no series: the scratch is reset
    /// and the group replays record by record, bit-identically to a shard
    /// that never grouped them. (A group holding a series that is not live
    /// panics inside the lockstep phase.)
    #[test]
    fn a_lockstep_panic_replays_the_group_one_by_one() {
        let config = Arc::new(FleetConfig::fixed_period(24));
        let warm = config.init_len(24) as u64 + 8;
        let mut shard = ShardState::new(0, Arc::clone(&config));
        let mut clean = ShardState::new(0, Arc::clone(&config));
        const REPLAY: &str = "lane-replay";
        for step in 0..warm {
            ingest(&mut shard, REPLAY, step);
            ingest(&mut clean, REPLAY, step);
        }
        let newcomer = shard.registry.insert(SeriesEntry {
            key: SeriesKey::new("lane-replay/new"),
            state: SeriesState::new(&config),
            last_seen: 0,
            dirty_seq: 0,
        });
        // live lanes 0 .. LANES-1, and the warming newcomer in the last
        let mut group = [(0u32, 0usize); LANES];
        let mut batch = ShardBatch::default();
        for (lane, g) in group.iter_mut().enumerate() {
            let slot = if lane + 1 == LANES { newcomer } else { lane as u32 };
            let record =
                Record { key: key(REPLAY, lane), t: warm, value: 2.0 + 0.1 * lane as f64 };
            batch.push(lane as u32, record, 0, warm);
            *g = (slot, lane);
        }
        batch.outputs.resize(LANES, PointOutput::Rejected);
        shard.step_group(&group, &mut batch);
        for (lane, &(slot, _)) in group.iter().enumerate().filter(|(_, g)| g.0 != newcomer) {
            let want = clean.step_entry(slot, batch.values[lane], false);
            assert_eq!(bits(&batch.outputs[lane]), bits(&want), "lane {lane}");
        }
        assert!(matches!(batch.outputs[LANES - 1], PointOutput::Warming { .. }));
        // and the replayed series go on in step with the clean shard
        for step in warm + 1..warm + 20 {
            let got = ingest(&mut shard, REPLAY, step);
            let want = ingest(&mut clean, REPLAY, step);
            for k in 0..KEYS {
                assert_eq!(bits(&got[k]), bits(&want[k]), "series {k} step {step}");
            }
        }
    }
}

#[cfg(test)]
mod registry_tests {
    use super::*;

    fn entry(key: &str) -> SeriesEntry {
        SeriesEntry {
            key: SeriesKey::new(key),
            state: SeriesState::Rejected,
            last_seen: 0,
            dirty_seq: 0,
        }
    }

    #[test]
    fn slots_are_reused_after_removal() {
        let mut r = Registry::default();
        let a = r.insert(entry("a"));
        let b = r.insert(entry("b"));
        assert_eq!((a, b), (0, 1));
        assert_eq!(r.slot_of(&SeriesKey::new("a")), Some(0));
        let removed = r.remove_slot(a).expect("slot a is occupied");
        assert_eq!(removed.key.as_str(), "a");
        assert!(r.remove_slot(a).is_none(), "double-remove is a no-op, not a panic");
        assert!(r.entry(a).is_none());
        assert!(r.entry(99).is_none(), "out-of-range slot is not a panic");
        assert_eq!(r.len(), 1);
        assert_eq!(r.slot_of(&SeriesKey::new("a")), None);
        // the freed slot is recycled for the next admission
        let c = r.insert(entry("c"));
        assert_eq!(c, 0);
        assert_eq!(r.len(), 2);
        assert_eq!(r.occupied().collect::<Vec<_>>(), vec![0, 1]);
        assert!(!r.is_empty());
    }

    #[test]
    fn index_survives_churn() {
        // enough keys to force several table growths plus long probe
        // chains, then heavy deletion: backward-shift removal must keep
        // every survivor reachable from its home bucket
        let mut r = Registry::default();
        let keys: Vec<SeriesKey> =
            (0..500).map(|i| SeriesKey::new(format!("churn/{i}"))).collect();
        let slots: Vec<u32> = keys.iter().map(|k| r.insert(entry(k.as_str()))).collect();
        for (k, &s) in keys.iter().zip(&slots) {
            assert_eq!(r.slot_of(k), Some(s));
            assert_eq!(r.slot_of_hashed(k.stable_hash(), k), Some(s));
            assert_eq!(
                r.slot_of_hashed(k.stable_hash() ^ 1, k),
                None,
                "a wrong hash must not resolve"
            );
        }
        for (i, &s) in slots.iter().enumerate() {
            if i % 3 == 0 {
                assert!(r.remove_slot(s).is_some());
            }
        }
        for (i, (k, &s)) in keys.iter().zip(&slots).enumerate() {
            let expect = if i % 3 == 0 { None } else { Some(s) };
            assert_eq!(r.slot_of(k), expect, "key {i} after churn");
        }
        assert_eq!(r.len(), 500 - 167);
        // re-admission reuses freed slots and the index stays consistent
        for i in (0..500).step_by(3) {
            r.insert(entry(keys[i].as_str()));
        }
        assert_eq!(r.len(), 500);
        for k in &keys {
            assert!(r.slot_of(k).is_some());
        }
    }
}
