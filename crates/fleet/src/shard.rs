//! Shard worker: owns a slice of the series registry and processes the
//! messages the engine routes to it. One OS thread per shard, plain
//! `std::sync::mpsc` channels — no external runtime. Workers never see
//! the write-ahead log: with durability on, the engine thread logs each
//! whole batch before it routes a sub-batch here ([`crate::wal`]).
//!
//! Each worker has two inboxes: the FIFO ingest/control queue
//! ([`ShardMsg`]) and an unbounded read lane ([`ReadMsg`]). The worker
//! drains the lane before it handles each dequeued message, and the ingest
//! sweep polls it again every [`POLL_ROWS`] rows, so a read waits for a few
//! hundred records at most, not for the sub-batch in progress or the
//! backlog queued behind it.
//!
//! The ingest sweep ([`ShardState::ingest_batch`]) steps one record at a
//! time on the single scalar update path, each under its own
//! `catch_unwind`, so a panicking or faulting series quarantines itself
//! alone. It polls only at a slot boundary, so a read answered mid-sweep
//! sees every series either with all of its rows in the sub-batch stepped
//! or with none, and stamps each key with the seq its series reflects.

use crate::batch::ShardBatch;
use crate::cold_tier::ColdStore;
use crate::config::{AdmitOptions, FleetConfig};
use crate::error::FleetError;
use crate::fault::{self, FaultOp};
use crate::key_index::KeyIndex;
use crate::series::{PhaseSnapshot, QuarantineCause, SeriesState, StepOutcome};
use crate::types::{PointOutput, SeriesKey, ShardStats};
use oneshotstl::{IncrementalSolver, UpdateScratch};
use std::io::ErrorKind;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::Path;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::mpsc::{Receiver, Sender};
use std::sync::Arc;

/// Rows the ingest sweep steps between two polls of the read lane: after
/// this many, [`ShardState::ingest_batch`] polls at the next slot boundary.
pub const POLL_ROWS: usize = 256;

/// One registry entry: the series state machine plus its liveness clock.
#[derive(Debug)]
pub struct SeriesEntry {
    /// The series key (also indexed in the registry's key map).
    pub key: SeriesKey,
    /// Warm-up / live / tombstone state.
    pub state: SeriesState,
    /// Largest record `t` seen for this series (TTL clock).
    pub last_seen: u64,
}

/// Slot-arena series registry: entries live in a contiguous `slots` arena
/// in admission order, with the fleet's open-addressed `KeyIndex` from
/// stable hash to slot.
///
/// The layout is the fleet's main cache lever. At 100k+ series the
/// per-series state (a few KiB each) dwarfs every cache level, so what
/// matters is the *order* the hot path walks it: processing a batch in
/// ascending slot order makes the state walk the heap monotonically
/// (slots are admission-ordered, and each entry's buffers were allocated
/// at admission), which turns TLB-miss-bound random access into
/// prefetch-friendly streaming — measured ~20× cheaper per point at the
/// 100k tier. The index itself stays a few MiB (16 bytes per bucket),
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
        self.index.len()
    }

    /// True when no series is registered.
    pub fn is_empty(&self) -> bool {
        self.index.len() == 0
    }

    /// The slot of `key`, if registered (cold paths; hashes the key).
    pub fn slot_of(&self, key: &SeriesKey) -> Option<u32> {
        self.slot_of_hashed(key.stable_hash(), key)
    }

    /// [`Registry::slot_of`] with the key's [`SeriesKey::stable_hash`]
    /// already computed — the ingest path, where the router's hash rides
    /// along in the batch columns.
    pub fn slot_of_hashed(&self, hash: u64, key: &SeriesKey) -> Option<u32> {
        // equality is an `Arc` pointer check when the caller's key aliases
        // the admitted one (the common case for a stable producer set)
        self.index.find(hash, |s| self.entry(s).is_some_and(|e| e.key == *key))
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

    /// Reserves room for `n` more entries in the arena and the index, so
    /// a bulk load (snapshot restore) allocates each once instead of
    /// growing them by doubling.
    pub(crate) fn reserve(&mut self, n: usize) {
        self.slots.reserve(n);
        self.index.reserve(n);
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
        /// Engine batch sequence number (stamps the read lane's "as of"
        /// answers).
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
    Snapshot {
        /// Reply channel: `(series, stats)`.
        reply: Sender<(Vec<SeriesSnapshot>, ShardStats)>,
    },
    /// Run the idle sweep ([`ShardState::evict_idle`]) at clock `now`.
    /// Reply with the evicted count.
    EvictIdle {
        /// Current engine clock.
        now: u64,
        /// Reply channel.
        reply: Sender<usize>,
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

/// One shard's answer to a [`ReadMsg::Forecast`]: its shard index and one
/// `(position in the caller's key list, applied seq, forecast)` entry per
/// item. The applied seq is that of the last ingest sub-batch whose rows
/// for the item's series were all stepped when the shard answered (see
/// [`ShardState::seq_of`]); the forecast is `None` for a series that is
/// unknown or not live.
pub type ForecastReply = (usize, Vec<(usize, u64, Option<Vec<f64>>)>);

/// Read-only requests. They travel on the worker's read lane, never on its
/// ingest/control queue: the worker drains the lane before it handles each
/// dequeued [`ShardMsg`] and at every poll of an ingest sweep (every
/// [`POLL_ROWS`] rows, at a slot boundary), so a read waits for at most a
/// few hundred records, not for the whole backlog. The engine follows
/// each read with a [`ShardMsg::Poll`] so an idle worker wakes up to
/// answer it.
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
    /// still queued when the read was answered. Answered mid-sweep, the
    /// counters include the rows stepped so far.
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
    /// Seq of the last ingest sub-batch applied (or of the image a
    /// restore loaded). Forecast replies carry it, or the seq of the sweep
    /// in progress ([`ShardState::seq_of`]); the engine turns it into
    /// their "as of" stamp.
    pub applied_seq: u64,
    /// The sweep in progress at a read-lane poll: its seq and the first
    /// slot it has not stepped yet. `None` between sub-batches.
    cursor: Option<(u64, u32)>,
    /// The shard's cold tier: opened before the worker starts on a durable
    /// engine with [`FleetConfig::spill_after`] set (under `<dir>/cold`),
    /// `None` on every other engine.
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
            applied_seq: 0,
            cursor: None,
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

    /// Resolves a record's registry slot from the key's stable hash (the
    /// router's hash column), admitting an unknown key (the only point
    /// where a key is cloned on the ingest path).
    fn resolve_slot_hashed(&mut self, hash: u64, key: &SeriesKey, liveness_t: u64) -> u32 {
        if let Some(slot) = self.registry.slot_of_hashed(hash, key) {
            return slot;
        }
        if let Some(slot) = self.rehydrate_hashed(hash, key) {
            return slot;
        }
        self.registry.insert_hashed(
            hash,
            SeriesEntry {
                key: key.clone(),
                state: SeriesState::new(&self.config),
                last_seen: liveness_t,
            },
        )
    }

    /// Pulls a cold-resident series back into the registry: decodes its
    /// blob, rebuilds the state, and inserts it with its stored liveness
    /// clock — bit-identical to a series that never spilled. `None` when
    /// the key is not cold (the normal admission path takes over) or the
    /// blob is unreadable (counted in `cold_errors`; the series re-warms).
    fn rehydrate_hashed(&mut self, hash: u64, key: &SeriesKey) -> Option<u32> {
        let restored = match self.cold.as_mut()?.take_blob(key) {
            Err(e) if e.kind() == ErrorKind::NotFound => return None,
            taken => taken.ok().and_then(|(_, blob)| {
                let snap = crate::codec::decode_series_blob(&blob).ok()?;
                // a blob recorded under the wrong key is corruption
                if snap.key != *key {
                    return None;
                }
                let state = SeriesState::from_snapshot(snap.phase, &self.config).ok()?;
                Some((snap.last_seen, state))
            }),
        };
        let Some((last_seen, state)) = restored else {
            self.cold_errors += 1;
            return None;
        };
        self.rehydrations += 1;
        let entry = SeriesEntry { key: key.clone(), state, last_seen };
        Some(self.registry.insert_hashed(hash, entry))
    }

    /// Processes one record against an already-resolved slot.
    fn step_entry(&mut self, slot: u32, value: f64, liveness_t: u64) -> PointOutput {
        self.points += 1;
        let Some(entry) = self.registry.entry_mut(slot) else {
            // a vanished slot is an internal inconsistency; dropping the
            // point (counted as quarantined) beats panicking the worker
            return PointOutput::Quarantined;
        };
        entry.last_seen = entry.last_seen.max(liveness_t);
        // per-series blast radius: a panicking update quarantines this
        // series instead of unwinding the worker and sinking the shard
        let SeriesEntry { key, state, .. } = entry;
        let config = &self.config;
        let scratch = &mut self.scratch;
        let stepped = catch_unwind(AssertUnwindSafe(|| {
            // the injectable stand-in for "this series' update went bad"
            // (its sibling failure mode — a panic — is injected by a hook
            // that panics instead of returning an error)
            fault::check(FaultOp::SeriesStep, Path::new(key.as_str()))
                .map_err(|_| QuarantineCause::NonFinite)?;
            Ok(state.step(value, config, scratch))
        }));
        let outcome = match stepped {
            Ok(Ok(outcome)) => outcome,
            Ok(Err(cause)) => {
                *state = SeriesState::Quarantined { cause, dropped: 1 };
                return PointOutput::Quarantined;
            }
            Err(_) => {
                *state = SeriesState::Quarantined { cause: QuarantineCause::Panic, dropped: 1 };
                // the shared trial scratch may be torn mid-update
                self.scratch = UpdateScratch::default();
                return PointOutput::Quarantined;
            }
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
    /// Once [`POLL_ROWS`] rows have been stepped since the last poll, the
    /// sweep calls `poll` at the next slot boundary, with the cursor set so
    /// that [`ShardState::seq_of`] stamps each series by whether its rows
    /// are done. The worker's `poll` answers the read lane; other callers
    /// pass a no-op. Outputs do not depend on it.
    pub fn ingest_batch(
        &mut self,
        batch: &mut ShardBatch,
        seq: u64,
        mut poll: impl FnMut(&ShardState),
    ) {
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
                _ => self.resolve_slot_hashed(batch.hash[i], &batch.keys[i], batch.live[i]),
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
        let mut since_poll = 0;
        for (j, &(slot, i)) in order.iter().enumerate() {
            // a slot boundary: every slot below `slot` has all its rows in
            // this sub-batch stepped, and no slot from `slot` on has any
            if since_poll >= POLL_ROWS && slot != order[j - 1].0 {
                self.cursor = Some((seq, slot));
                poll(self);
                since_poll = 0;
            }
            let i = i as usize;
            batch.outputs[i] = self.step_entry(slot, batch.values[i], batch.live[i]);
            since_poll += 1;
        }
        self.cursor = None;
        self.order = order;
        self.applied_seq = seq;
    }

    /// The seq of the last ingest sub-batch whose rows for the series at
    /// `slot` are all stepped: [`ShardState::applied_seq`] between
    /// sub-batches, and at a poll inside a sweep the sweep's seq for a slot
    /// below its cursor (done, or absent from the sub-batch) and
    /// `applied_seq` for the rest (not started). An unknown series
    /// (`None`) gets `applied_seq`.
    pub fn seq_of(&self, slot: Option<u32>) -> u64 {
        match (self.cursor, slot) {
            (Some((seq, cursor)), Some(slot)) if slot < cursor => seq,
            _ => self.applied_seq,
        }
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
                        Ok(())
                    }
                    SeriesState::Quarantined { .. } => {
                        // quarantine is re-admittable by design: register
                        // the series again from an empty warm-up buffer
                        entry.state = SeriesState::with_overrides(&config, opts);
                        entry.last_seen = entry.last_seen.max(now);
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
                });
                Ok(())
            }
        }
    }

    /// The idle sweep at clock `now`: evicts entries idle beyond the
    /// configured `ttl` (hot ones, and — with a cold store — cold-resident
    /// ones, whose records are tombstoned so a reopen cannot resurrect
    /// them), and, with a cold store, spills hot entries idle beyond
    /// `spill_after` to it. Returns how many series were evicted (a
    /// spilled series' state lives in the cold file, so it leaves the next
    /// snapshot); a spill failure leaves the series hot for the next sweep.
    pub fn evict_idle(&mut self, now: u64) -> usize {
        let (ttl, spill_after) = (self.config.ttl, self.config.spill_after);
        let mut evicted = 0usize;
        let mut cold_io = false;
        for slot in 0..self.registry.slots.len() as u32 {
            let Some(e) = &self.registry.slots[slot as usize] else { continue };
            let idle = now.saturating_sub(e.last_seen);
            if ttl.is_some_and(|ttl| idle > ttl) {
                let Some(entry) = self.registry.remove_slot(slot) else { continue };
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
            let spill = spill_after.is_some_and(|after| idle > after);
            let Some(cold) = self.cold.as_mut().filter(|_| spill) else { continue };
            let snap = SeriesSnapshot {
                key: e.key.clone(),
                last_seen: e.last_seen,
                phase: e.state.to_snapshot(),
            };
            let blob = crate::codec::encode_series_blob(&snap);
            match cold.put(&snap.key, snap.last_seen, &blob) {
                Ok(()) => {
                    cold_io = true;
                    self.registry.remove_slot(slot);
                    self.spills += 1;
                }
                // degraded: the series stays hot; retried next sweep
                Err(_) => self.cold_errors += 1,
            }
        }
        if let Some(cold) = self.cold.as_mut() {
            // the cold half of TTL eviction: entries that aged out on disk
            match ttl.map(|ttl| cold.expire_idle(now, ttl)) {
                Some(Ok(n)) => {
                    cold_io |= n > 0;
                    evicted += n;
                }
                Some(Err(_)) => self.cold_errors += 1,
                None => {}
            }
            // one fsync (and at most one compaction) per sweep that wrote
            if cold_io && cold.sync().is_err() {
                self.cold_errors += 1;
            }
            if cold_io && cold.maybe_compact().is_err() {
                self.cold_errors += 1;
            }
        }
        self.evicted += evicted as u64;
        evicted
    }

    /// Serializes the registry, sorted by key (stable snapshot bytes).
    pub fn snapshot(&self) -> Vec<SeriesSnapshot> {
        let mut out: Vec<SeriesSnapshot> = self
            .registry
            .iter()
            .map(|e| SeriesSnapshot {
                key: e.key.clone(),
                last_seen: e.last_seen,
                phase: e.state.to_snapshot(),
            })
            .collect();
        out.sort_by(|a, b| a.key.cmp(&b.key));
        out
    }

    /// Multi-horizon forecast for the series at `slot`:
    /// `ŷ(t+1) .. ŷ(t+horizon)`. `None` when the slot is vacant or the
    /// series is warming or rejected. A series with a forecast head uses
    /// its damped-trend rule (`forecast_into` — the zero-allocation fill);
    /// one without (head disabled) keeps the plain seasonal carry-forward.
    pub fn forecast_slot(&self, slot: u32, horizon: usize) -> Option<Vec<f64>> {
        let entry = self.registry.entry(slot)?;
        match &entry.state {
            SeriesState::Live(live) if live.detector.decomposer.is_initialized() => {
                let mut out = vec![0.0; horizon];
                match live.forecast {
                    Some(phi) => live.detector.decomposer.forecast_into(phi, &mut out),
                    // not `forecast_into(0.0)`: its `+ slope·0` can turn a
                    // -0.0 answer into +0.0
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
    /// The diagnostic counters (shift searches, scorer alarms) are summed
    /// over live series on demand — they live inside the per-series state
    /// and reset on snapshot restore.
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

/// Answers one read-lane request against the current registry — between
/// sub-batches, or at a poll inside a sweep.
fn serve_read(state: &ShardState, read: ReadMsg, queue_depth: &AtomicUsize) {
    match read {
        ReadMsg::Forecast { items, horizon, reply } => {
            let out = items
                .into_iter()
                .map(|(idx, key)| {
                    let slot = state.registry.slot_of(&key);
                    let fc = slot.and_then(|s| state.forecast_slot(s, horizon));
                    (idx, state.seq_of(slot), fc)
                })
                .collect();
            let _ = reply.send((state.index, out));
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
/// dequeued message and at every poll of an ingest sweep (see
/// [`ShardState::ingest_batch`]). A read answered inside a sweep stamps
/// each key with the seq its series reflects ([`ShardState::seq_of`]).
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
) {
    while let Ok(msg) = rx.recv() {
        queue_depth.fetch_sub(1, Ordering::Relaxed);
        while let Ok(read) = lane.try_recv() {
            serve_read(&state, read, &queue_depth);
        }
        match msg {
            ShardMsg::Ingest { mut batch, seq, reply } => {
                state.ingest_batch(&mut batch, seq, |state| {
                    while let Ok(read) = lane.try_recv() {
                        serve_read(state, read, &queue_depth);
                    }
                });
                // the filled batch rides back on the reply; the engine
                // moves keys and outputs out and recycles the buffers (an
                // abandoned batch, whose receiver is gone, is dropped)
                let _ = reply.send((state.index, batch));
            }
            ShardMsg::Admit { key, opts, now, reply } => {
                let _ = reply.send(state.set_admit_options(&key, opts, now));
            }
            ShardMsg::Stall { release } => {
                let _ = release.recv();
            }
            ShardMsg::Snapshot { reply } => {
                let _ = reply.send((state.snapshot(), state.stats()));
            }
            ShardMsg::EvictIdle { now, reply } => {
                let _ = reply.send(state.evict_idle(now));
            }
            ShardMsg::Poll => {}
            ShardMsg::Crash => panic!("injected worker crash (test)"),
            ShardMsg::Shutdown => break,
        }
    }
}

#[cfg(test)]
mod sweep_tests {
    use super::*;
    use crate::types::Record;
    use std::sync::Arc as StdArc;

    /// Series in the test's batches.
    const KEYS: usize = 4;

    /// The faulting series: the second of the sweep, so series before and
    /// after it share its batch.
    const VICTIM: usize = 1;

    /// Series `k` of the test. Fault hooks are process-wide and scoped by
    /// key, so the keys carry a prefix no other test uses.
    fn key(k: usize) -> SeriesKey {
        SeriesKey::new(format!("sweep-blast/{k}"))
    }

    /// Feeds one point per series and returns the outputs by key.
    fn ingest(shard: &mut ShardState, step: u64) -> Vec<PointOutput> {
        let mut batch = ShardBatch::default();
        for k in 0..KEYS {
            let phase = (step as usize + 3 * k) as f64 / 24.0;
            let wobble = ((step * 7 + k as u64 * 13) % 11) as f64 / 50.0;
            let value = 2.0 + (2.0 * std::f64::consts::PI * phase).sin() + wobble;
            let key = key(k);
            let hash = key.stable_hash();
            batch.push(k as u32, Record { key, t: step, value }, hash, step);
        }
        shard.ingest_batch(&mut batch, step + 1, |_| {});
        batch.outputs
    }

    fn bits(out: &PointOutput) -> [u64; 4] {
        let PointOutput::Scored { point, score, .. } = out else {
            panic!("expected a scored point, got {out:?}");
        };
        [point.trend, point.seasonal, point.residual, *score].map(f64::to_bits)
    }

    /// The registry's record of a series stays small: a live series'
    /// forecast head is an `Option<f64>` (16 B) inline, not a tracker.
    #[test]
    fn a_series_entry_fits_its_budget() {
        let size = std::mem::size_of::<SeriesEntry>();
        assert!(size <= 672, "SeriesEntry is {size} B");
    }

    /// A `SeriesStep` fault — an error or a panic — for one series
    /// quarantines that series alone: the other series in the same batch
    /// keep scoring bit-identically to a shard that saw no fault.
    #[test]
    fn a_faulting_series_quarantines_only_itself() {
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
                ingest(&mut faulty, step);
                ingest(&mut clean, step);
            }
            assert_eq!(faulty.stats().live, KEYS);
            let _guard = fault::inject(key(VICTIM).as_str(), hook);
            for step in warm..warm + 40 {
                let got = ingest(&mut faulty, step);
                let want = ingest(&mut clean, step);
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
            let slot =
                faulty.registry.slot_of(&key(VICTIM)).expect("the series stays registered");
            let entry = faulty.registry.entry(slot).expect("its slot is occupied");
            assert!(
                matches!(entry.state, SeriesState::Quarantined { cause: c, .. } if c == cause)
            );
        }
    }

    /// A forecast queued on the lane before a sweep of 3 × `POLL_ROWS`
    /// rows is answered at the sweep's first poll. Each key is stamped
    /// with the sweep's seq when its slot lies below the cursor and with
    /// the prior `applied_seq` otherwise, and each forecast is
    /// bit-identical to a twin shard stepped up to that seq. The polls
    /// change no output.
    #[test]
    fn a_read_is_answered_mid_sweep_and_stamped_per_key() {
        const SERIES: usize = 48;
        /// Rows per series in one sub-batch: 48 × 16 = 3 × `POLL_ROWS`.
        const ROWS: usize = 16;
        const H: usize = 24;
        let key = |k: usize| SeriesKey::new(format!("sweep-poll/{k}"));
        // sub-batch `b`: `ROWS` ticks, every series once per tick
        let batch = |b: u64| {
            let mut batch = ShardBatch::default();
            for r in 0..ROWS {
                let t = b * ROWS as u64 + r as u64;
                for k in 0..SERIES {
                    let phase = (t as usize + 5 * k) as f64 / 24.0;
                    let wobble = ((t * 7 + k as u64 * 13) % 11) as f64 / 50.0;
                    let value = 2.0 + (2.0 * std::f64::consts::PI * phase).sin() + wobble;
                    let key = key(k);
                    let hash = key.stable_hash();
                    batch.push((r * SERIES + k) as u32, Record { key, t, value }, hash, t);
                }
            }
            batch
        };
        let forecasts = |s: &ShardState| -> Vec<Vec<u64>> {
            (0..SERIES)
                .map(|k| {
                    let slot = s.registry.slot_of(&key(k)).expect("registered");
                    let fc = s.forecast_slot(slot, H).expect("a live series forecasts");
                    fc.into_iter().map(f64::to_bits).collect()
                })
                .collect()
        };
        let config = Arc::new(FleetConfig::fixed_period(24));
        // past admission and the solvers' 4-point warm-up
        let warm = (config.init_len(24) + 8).div_ceil(ROWS) as u64;
        let mut shard = ShardState::new(0, Arc::clone(&config));
        let mut twin = ShardState::new(0, Arc::clone(&config));
        for b in 1..=warm {
            shard.ingest_batch(&mut batch(b), b, |_| {});
            twin.ingest_batch(&mut batch(b), b, |_| {});
        }
        let before = forecasts(&twin);
        let seq = warm + 1;
        let mut want = batch(seq);
        twin.ingest_batch(&mut want, seq, |_| {});
        let after = forecasts(&twin);

        let (lane, lane_rx) = std::sync::mpsc::channel();
        let (reply, replies) = std::sync::mpsc::channel();
        let items = (0..SERIES).map(|k| (k, key(k))).collect();
        lane.send(ReadMsg::Forecast { items, horizon: H, reply }).unwrap();
        let depth = AtomicUsize::new(0);
        // (cursor, reads answered) at each poll
        let mut polls = Vec::new();
        let mut got = batch(seq);
        shard.ingest_batch(&mut got, seq, |s| {
            let mut answered = 0;
            while let Ok(read) = lane_rx.try_recv() {
                serve_read(s, read, &depth);
                answered += 1;
            }
            polls.push((s.cursor, answered));
        });
        assert_eq!(got.outputs, want.outputs, "polling changes no output");
        assert_eq!(shard.cursor, None, "no cursor between sub-batches");
        assert_eq!(shard.seq_of(Some(0)), seq);

        // 256 rows are 16 whole series: the first poll lands on slot 16
        let cursor = POLL_ROWS.div_ceil(ROWS) as u32;
        assert_eq!(polls.first(), Some(&(Some((seq, cursor)), 1)), "polls {polls:?}");
        assert!(polls.len() >= 2 && polls[1..].iter().all(|&(_, n)| n == 0), "{polls:?}");

        let (index, slots) = replies.try_recv().expect("answered during the sweep");
        assert_eq!((index, slots.len()), (0, SERIES));
        let (mut done, mut pending) = (0, 0);
        for (k, applied, fc) in slots {
            let slot = shard.registry.slot_of(&key(k)).expect("registered");
            let fc: Vec<u64> =
                fc.expect("a live series forecasts").into_iter().map(f64::to_bits).collect();
            if slot < cursor {
                assert_eq!(applied, seq, "series {k} in slot {slot} is stepped");
                assert_eq!(fc, after[k], "series {k} as of seq {seq}");
                done += 1;
            } else {
                assert_eq!(applied, warm, "series {k} in slot {slot} is not stepped yet");
                assert_eq!(fc, before[k], "series {k} as of seq {warm}");
                pending += 1;
            }
        }
        assert_eq!((done, pending), (cursor as usize, SERIES - cursor as usize));
        assert!((0..SERIES).all(|k| before[k] != after[k]), "the sweep moves every forecast");
    }
}

#[cfg(test)]
mod registry_tests {
    use super::*;

    fn entry(key: &str) -> SeriesEntry {
        SeriesEntry { key: SeriesKey::new(key), state: SeriesState::Rejected, last_seen: 0 }
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
        let keys: Vec<&str> = r.iter().map(|e| e.key.as_str()).collect();
        assert_eq!(keys, ["c", "b"], "iteration walks occupied slots in slot order");
        assert!(!r.is_empty());
    }
}
