//! Shard worker: owns a slice of the series registry and processes the
//! messages the engine routes to it. One OS thread per shard, plain
//! `std::sync::mpsc` channels — no external runtime. Workers never see
//! the write-ahead log: with durability on, the engine thread logs each
//! whole batch before it routes a sub-batch here ([`crate::wal`]).
//!
//! Each worker has two inboxes: the FIFO ingest/control queue
//! ([`ShardMsg`]) and an unbounded read lane ([`ReadLane`]). The engine
//! raises the lane's flag after each read it sends. The worker drains the
//! lane before it handles each dequeued message, and the ingest sweep
//! drains it at the next series boundary after the flag is raised, so a
//! read waits for the rest of one series' rows (of two when it lands in a
//! pair that straddles a boundary), not for the sub-batch in progress or
//! the backlog queued behind it.
//!
//! The ingest sweep ([`ShardState::ingest_batch`]) steps two consecutive
//! rows of two distinct live series as one pair (one paired IRLS kernel
//! call for both; see `oneshotstl::OneShotStl::update_pair_with_scratch`)
//! and every other row on its own. The fault seam runs per series before
//! the kernel, and each step runs under a `catch_unwind`, so a faulting or
//! panicking series quarantines itself alone (a panic inside a pair's
//! shared kernel quarantines both of its series). The sweep answers reads
//! only at a slot boundary, so a read answered mid-sweep sees every series
//! either with all of its rows in the sub-batch stepped or with none, and
//! stamps each key with the seq its series reflects.

use crate::batch::ShardBatch;
use crate::cold_tier::ColdStore;
use crate::config::{AdmitOptions, FleetConfig};
use crate::error::FleetError;
use crate::fault::{self, FaultOp};
use crate::key_index::KeyIndex;
use crate::series::{PhaseSnapshot, QuarantineCause, SeriesState, Shared, StepOutcome};
use crate::types::{PointOutput, SeriesKey, ShardStats};
use oneshotstl::UpdateScratch;
use std::io::ErrorKind;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::Path;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
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
}

/// Slot-arena series registry: entries live in a contiguous `slots` arena
/// in admission order, with the fleet's open-addressed `KeyIndex` from
/// stable hash to slot.
///
/// The layout is the fleet's main cache lever. At 100k+ series the
/// per-series state (~1.8 KiB each at `T = 24`: a 312 B entry whose live
/// detector keeps one set of running residual sums for the shift trigger
/// and the score, 1248 B of IRLS iteration states and the `T`-slot
/// seasonal buffer) dwarfs every
/// cache level, so what matters is the *order* the hot path walks it:
/// processing a batch in ascending slot order walks the arena forward,
/// and with it the heap blocks, which turns TLB-miss-bound random access
/// into prefetch-friendly streaming — measured ~20× cheaper per point at
/// the 100k tier. The arena is admission-ordered, and a series' seasonal
/// buffer stays where admission (or restore, in key order) put it. Its
/// iteration-state block does not stay: `OnlineJointStl::commit` swaps
/// the series' `Vec` with one of the shard scratch's baseline buffers.
/// A series stepped alone swaps with the first; the two series of a
/// paired step swap lane by lane, the first with the first buffer and the
/// second with the second (a series whose shift search adopted an offset
/// takes the scratch's `best` block instead). So after a sweep each
/// stepped series holds the block that the last series before it on the
/// same buffer held, and the blocks rotate forward along the sweep, which
/// keeps the walk monotonic but for a wrap per buffer. The index itself
/// stays a few MiB (16 bytes per bucket),
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

    /// Mutable access to the entries at two distinct slots, if both are
    /// occupied (the paired sweep).
    pub fn pair_mut(&mut self, a: u32, b: u32) -> Option<[&mut SeriesEntry; 2]> {
        let [ea, eb] = self.slots.get_disjoint_mut([a as usize, b as usize]).ok()?;
        Some([ea.as_mut()?, eb.as_mut()?])
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

/// One shard's answer to a [`ReadMsg::Forecast`]: its shard index, one
/// `(position in the caller's key list, applied seq, live)` entry per
/// item, and one flat buffer holding `horizon` forecast values per item,
/// in item order. The applied seq is that of the last ingest sub-batch
/// whose rows for the item's series were all stepped when the shard
/// answered (see [`ShardState::seq_of`]); `live` is false for a series
/// that is unknown or not live, whose values are zeros.
pub type ForecastReply = (usize, Vec<(usize, u64, bool)>, Vec<f64>);

/// Read-only requests. They travel on the worker's read lane, never on its
/// ingest/control queue: the worker drains the lane before it handles each
/// dequeued [`ShardMsg`], and an ingest sweep drains it at the next slot
/// boundary after the engine raises the lane's flag (see
/// [`ShardState::ingest_batch`]), so a read waits for the rest of one or
/// two series' rows, not for the whole backlog. The engine follows each read with a [`ShardMsg::Poll`] so an
/// idle worker wakes up to answer it.
pub enum ReadMsg {
    /// Forecast `1..=horizon` steps ahead for a batch of series on this
    /// shard (see [`crate::FleetEngine::forecast_as_of`]).
    Forecast {
        /// `(position in the caller's key list, the key's
        /// [`SeriesKey::stable_hash`], series)` triples: the router's hash
        /// rides along, so the shard does not hash the key again.
        items: Vec<(usize, u64, SeriesKey)>,
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

/// A worker's end of its read lane: the [`ReadMsg`] receiver, the flag
/// the engine raises after each read it sends, and the worker's queue
/// depth gauge (for [`ShardStats::queue_depth`]).
///
/// The engine sends a read, then stores `true` with `Release`. An ingest
/// sweep does one `Relaxed` load of the flag per row, and only at a slot
/// start where it reads `true` clears the flag (`swap` with `Acquire`,
/// which makes the sent read visible) and drains the lane. The worker's
/// dequeue path clears it the same way before its drain. Clearing before
/// draining loses no wake-up: a read that lands during the drain either
/// is drained with it or raises the flag again for the next slot start.
pub struct ReadLane {
    rx: Receiver<ReadMsg>,
    raised: Arc<AtomicBool>,
    queue_depth: Arc<AtomicUsize>,
}

impl ReadLane {
    /// The lane over `rx`, raised through `raised`, reporting
    /// `queue_depth` in its stats answers.
    pub(crate) fn new(
        rx: Receiver<ReadMsg>,
        raised: Arc<AtomicBool>,
        queue_depth: Arc<AtomicUsize>,
    ) -> Self {
        ReadLane { rx, raised, queue_depth }
    }

    /// Whether a read was sent since the last drain (one `Relaxed` load:
    /// the sweep's per-row check).
    fn is_raised(&self) -> bool {
        self.raised.load(Ordering::Relaxed)
    }

    /// Clears the flag, then answers every read queued on the lane. Each
    /// reader blocks on its reply, and on a host whose cores the shards
    /// keep busy, a woken reader would wait for a shard's scheduler slice
    /// to end before it runs: after answering, the worker yields its CPU
    /// once, so the reader runs at once.
    fn drain(&self, state: &ShardState) {
        self.raised.swap(false, Ordering::Acquire);
        let mut served = false;
        while let Ok(read) = self.rx.try_recv() {
            serve_read(state, read, &self.queue_depth);
            served = true;
        }
        if served {
            std::thread::yield_now();
        }
    }
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
    /// What every series on this shard shares: one trial scratch, whose
    /// hot buffers stay in cache across series (see
    /// `oneshotstl::UpdateScratch`), and one detector config.
    pub shared: Shared,
    /// Reusable `(slot, position)` buffer for slot-sorted batch
    /// processing.
    order: Vec<(u32, u32)>,
    /// Seq of the last ingest sub-batch applied (or of the image a
    /// restore loaded). Forecast replies carry it, or the seq of the sweep
    /// in progress ([`ShardState::seq_of`]); the engine turns it into
    /// their "as of" stamp.
    pub applied_seq: u64,
    /// The sweep in progress at a read-lane drain: its seq and the first
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
            shared: Shared::new(&config),
            config,
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
                let state =
                    SeriesState::from_snapshot(snap.phase, &self.config, &self.shared).ok()?;
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
        let stepped = series_seam(&entry.key)
            .and_then(|()| step_one(&mut entry.state, value, &self.config, &mut self.shared));
        let outcome = settle(&mut entry.state, stepped, &mut self.shared);
        self.tally(outcome)
    }

    /// Processes one record for each of two distinct series in one paired
    /// decomposition ([`SeriesState::step_pair`]), with outputs, states and
    /// counters bit-identical to two [`ShardState::step_entry`] calls in
    /// row order. The fault seam runs per series before the kernel: a
    /// series that faults quarantines alone, and its partner steps on the
    /// single-row path. `None`, with nothing touched, unless both slots
    /// hold live series.
    fn step_pair(&mut self, rows: [(u32, f64, u64); 2]) -> Option<[PointOutput; 2]> {
        let [(sa, va, ta), (sb, vb, tb)] = rows;
        let [a, b] = self.registry.pair_mut(sa, sb)?;
        if !matches!((&a.state, &b.state), (SeriesState::Live(_), SeriesState::Live(_))) {
            return None;
        }
        self.points += 2;
        a.last_seen = a.last_seen.max(ta);
        b.last_seen = b.last_seen.max(tb);
        let (config, shared) = (&self.config, &mut self.shared);
        let stepped = match [series_seam(&a.key), series_seam(&b.key)] {
            [Ok(()), Ok(())] => {
                let pair = [&mut a.state, &mut b.state];
                match catch_unwind(AssertUnwindSafe(|| {
                    SeriesState::step_pair(pair, [va, vb], shared)
                })) {
                    Ok(Some([oa, ob])) => [Ok(oa), Ok(ob)],
                    Ok(None) => unreachable!("both series are live"),
                    // the pair's kernel is shared, so a panic inside it
                    // cannot be pinned on one of the two
                    Err(_) => [Err(QuarantineCause::Panic), Err(QuarantineCause::Panic)],
                }
            }
            [ca, cb] => [
                ca.and_then(|()| step_one(&mut a.state, va, config, shared)),
                cb.and_then(|()| step_one(&mut b.state, vb, config, shared)),
            ],
        };
        let [oa, ob] = stepped;
        let oa = settle(&mut a.state, oa, &mut self.shared);
        let ob = settle(&mut b.state, ob, &mut self.shared);
        Some([self.tally(oa), self.tally(ob)])
    }

    /// Counts a stepped record's promotion and anomaly, and returns its
    /// output.
    fn tally(&mut self, outcome: StepOutcome) -> PointOutput {
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
    /// heap — the cache/TLB win described on [`Registry`]. A row and the
    /// next one step together (`ShardState::step_pair`) when they belong
    /// to two distinct live series: one IRLS chain alone leaves the core
    /// waiting on its divides, two independent ones overlap. Outputs are
    /// those of stepping every row alone.
    ///
    /// Each row checks `lane`'s flag ([`ReadLane`]). While it is raised,
    /// the sweep pairs no row with the next slot's first row, and at the
    /// next slot start it sets the cursor, so that [`ShardState::seq_of`]
    /// stamps each series by whether its rows are done, and drains the
    /// lane. A read therefore waits for the rest of one series' rows, and
    /// for the rest of the next one's when it lands inside a pair that
    /// straddles a slot start. The worker passes its lane; other callers
    /// pass `None`. Outputs do not depend on it.
    pub fn ingest_batch(&mut self, batch: &mut ShardBatch, seq: u64, lane: Option<&ReadLane>) {
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
        let mut j = 0;
        while j < n {
            let (slot, i) = order[j];
            let mut raised = lane.is_some_and(ReadLane::is_raised);
            // at a slot start every slot below `slot` has all its rows in
            // this sub-batch stepped, and no slot from `slot` on has any
            if let Some(lane) = lane.filter(|_| raised && (j == 0 || slot != order[j - 1].0)) {
                self.cursor = Some((seq, slot));
                lane.drain(self);
                raised = false;
            }
            let i = i as usize;
            // pair this row with the next one when that one is another
            // series' (so it starts a slot), unless a read is waiting: the
            // pair would straddle the slot start the read waits for
            if let Some(&(next, k)) = order.get(j + 1).filter(|&&(s, _)| s != slot && !raised) {
                let k = k as usize;
                let rows = [
                    (slot, batch.values[i], batch.live[i]),
                    (next, batch.values[k], batch.live[k]),
                ];
                if let Some([a, b]) = self.step_pair(rows) {
                    (batch.outputs[i], batch.outputs[k]) = (a, b);
                    j += 2;
                    continue;
                }
            }
            batch.outputs[i] = self.step_entry(slot, batch.values[i], batch.live[i]);
            j += 1;
        }
        self.cursor = None;
        self.order = order;
        self.applied_seq = seq;
    }

    /// The seq of the last ingest sub-batch whose rows for the series at
    /// `slot` are all stepped: [`ShardState::applied_seq`] between
    /// sub-batches, and at a drain inside a sweep the sweep's seq for a slot
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

    /// Fills `out` with the multi-horizon forecast of the series at
    /// `slot`, `ŷ(t+1) .. ŷ(t+out.len())`, and returns true; returns false,
    /// with `out` untouched, when the slot is vacant or the series is
    /// warming or rejected. A series with a forecast head uses its
    /// damped-trend rule (`forecast_into`); one without (head disabled)
    /// keeps the plain seasonal carry-forward (`predict_into`, not
    /// `forecast_into(0.0)`, whose `+ slope·0` can turn a -0.0 answer into
    /// +0.0). Neither fill allocates.
    pub fn forecast_slot(&self, slot: u32, out: &mut [f64]) -> bool {
        let Some(entry) = self.registry.entry(slot) else { return false };
        match &entry.state {
            SeriesState::Live(live) if live.detector.decomposer.is_initialized() => {
                let decomposer = &live.detector.decomposer;
                match live.forecast {
                    Some(phi) => decomposer.forecast_into(phi, out),
                    None => decomposer.predict_into(out),
                }
                true
            }
            _ => false,
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

/// The [`FaultOp::SeriesStep`] seam for one series, under its own
/// `catch_unwind`: an injected error or panic is the series' quarantine
/// cause.
fn series_seam(key: &SeriesKey) -> Result<(), QuarantineCause> {
    match catch_unwind(|| fault::check(FaultOp::SeriesStep, Path::new(key.as_str()))) {
        Ok(Ok(())) => Ok(()),
        Ok(Err(_)) => Err(QuarantineCause::NonFinite),
        Err(_) => Err(QuarantineCause::Panic),
    }
}

/// [`SeriesState::step`] under its own `catch_unwind`, so a panicking
/// update quarantines its series instead of unwinding the worker and
/// sinking the shard.
fn step_one(
    state: &mut SeriesState,
    value: f64,
    config: &FleetConfig,
    shared: &mut Shared,
) -> Result<StepOutcome, QuarantineCause> {
    catch_unwind(AssertUnwindSafe(|| state.step(value, config, shared)))
        .map_err(|_| QuarantineCause::Panic)
}

/// A stepped record's outcome, or its series' quarantine: the state
/// becomes `Quarantined`, and after a panic the shared trial scratch,
/// which may be torn mid-update, is reset.
fn settle(
    state: &mut SeriesState,
    stepped: Result<StepOutcome, QuarantineCause>,
    shared: &mut Shared,
) -> StepOutcome {
    stepped.unwrap_or_else(|cause| {
        *state = SeriesState::Quarantined { cause, dropped: 1 };
        if cause == QuarantineCause::Panic {
            shared.scratch = UpdateScratch::default();
        }
        StepOutcome::Output(PointOutput::Quarantined)
    })
}

/// Answers one read-lane request against the current registry — between
/// sub-batches, or at a drain inside a sweep. A forecast allocates its two
/// reply buffers and nothing per key.
fn serve_read(state: &ShardState, read: ReadMsg, queue_depth: &AtomicUsize) {
    match read {
        ReadMsg::Forecast { items, horizon, reply } => {
            let mut values = vec![0.0; items.len() * horizon];
            let slots = items
                .into_iter()
                .zip(values.chunks_exact_mut(horizon))
                .map(|((idx, hash, key), out)| {
                    let slot = state.registry.slot_of_hashed(hash, &key);
                    let live = slot.is_some_and(|s| state.forecast_slot(s, out));
                    (idx, state.seq_of(slot), live)
                })
                .collect();
            let _ = reply.send((state.index, slots, values));
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
/// dequeued message and, inside an ingest sweep, at the next slot start
/// after a read is sent (see [`ShardState::ingest_batch`]). A read
/// answered inside a sweep stamps each key with the seq its series
/// reflects ([`ShardState::seq_of`]).
///
/// The lane's queue depth gauge counts requests the engine has sent on
/// `rx` that this worker has not dequeued yet — i.e. channel occupancy,
/// the same quantity a bounded queue caps. It is decremented on dequeue
/// (not on completion) so that a synchronous caller who has already
/// received a reply never observes a stale nonzero depth; the engine
/// samples it for [`ShardStats::queue_depth`] and for the
/// [`crate::QueuePolicy::Reject`] admission check.
pub fn run_worker(mut state: ShardState, rx: Receiver<ShardMsg>, lane: ReadLane) {
    while let Ok(msg) = rx.recv() {
        lane.queue_depth.fetch_sub(1, Ordering::Relaxed);
        lane.drain(&state);
        match msg {
            ShardMsg::Ingest { mut batch, seq, reply } => {
                state.ingest_batch(&mut batch, seq, Some(&lane));
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
        shard.ingest_batch(&mut batch, step + 1, None);
        batch.outputs
    }

    fn bits(out: &PointOutput) -> [u64; 4] {
        let PointOutput::Scored { point, score, .. } = out else {
            panic!("expected a scored point, got {out:?}");
        };
        [point.trend, point.seasonal, point.residual, *score].map(f64::to_bits)
    }

    /// The registry's record of a series stays small: a live series holds
    /// no trial scratch and points at its detector config, and its
    /// forecast head (`Option<f64>`) and backend (`Option<Box<…>>`) are
    /// 16 and 8 B inline.
    #[test]
    fn a_series_entry_fits_its_budget() {
        let size = std::mem::size_of::<SeriesEntry>();
        assert!(size <= 312, "SeriesEntry is {size} B");
    }

    /// Counts the heap blocks allocated and freed on each thread, for the
    /// footprint tests below. Per thread, because libtest runs the other
    /// tests of this binary on threads of their own.
    struct CountingAlloc;

    thread_local! {
        static ALLOCS: std::cell::Cell<u64> = const { std::cell::Cell::new(0) };
        static FREES: std::cell::Cell<u64> = const { std::cell::Cell::new(0) };
    }

    unsafe impl std::alloc::GlobalAlloc for CountingAlloc {
        unsafe fn alloc(&self, layout: std::alloc::Layout) -> *mut u8 {
            ALLOCS.with(|c| c.set(c.get() + 1));
            std::alloc::System.alloc(layout)
        }
        unsafe fn dealloc(&self, ptr: *mut u8, layout: std::alloc::Layout) {
            FREES.with(|c| c.set(c.get() + 1));
            std::alloc::System.dealloc(ptr, layout)
        }
    }

    #[global_allocator]
    static GLOBAL: CountingAlloc = CountingAlloc;

    /// Heap blocks `state` owns: the blocks freed when it is dropped.
    fn heap_blocks(state: SeriesState) -> u64 {
        let before = FREES.with(|c| c.get());
        drop(state);
        FREES.with(|c| c.get()) - before
    }

    /// A live series on the default detector config owns exactly two heap
    /// blocks, its IRLS iteration states and its seasonal buffer, and
    /// points at the shard's shared config instead of a copy: after
    /// admission and after a restore, right at promotion and after each
    /// of its first 4 online points. A series whose override changes the
    /// detector config owns that config, a third block; one whose override
    /// resolves to the shared config shares it.
    #[test]
    fn a_live_series_owns_two_heap_blocks_and_the_shared_config() {
        let config = Arc::new(FleetConfig::fixed_period(24));
        let key = |k: usize| SeriesKey::new(format!("footprint/{k}"));
        let same = AdmitOptions { nsigma: Some(config.detector.nsigma), ..Default::default() };
        let tuned = AdmitOptions { lambda: Some(7.0), ..Default::default() };
        for online in 0..=4 {
            let mut shard = ShardState::new(0, Arc::clone(&config));
            shard.set_admit_options(&key(1), same, 0).unwrap();
            shard.set_admit_options(&key(2), tuned, 0).unwrap();
            for t in 0..(config.init_len(24) + online) as u64 {
                let mut batch = ShardBatch::default();
                for k in 0..3 {
                    let value =
                        2.0 + (2.0 * std::f64::consts::PI * (t as f64 + k as f64) / 24.0).sin();
                    let key = key(k);
                    let hash = key.stable_hash();
                    batch.push(k as u32, Record { key, t, value }, hash, t);
                }
                shard.ingest_batch(&mut batch, t + 1, None);
            }
            assert_eq!(shard.stats().live, 3);
            let shared = Arc::clone(&shard.shared.detector);
            let check = |k: usize, state: SeriesState, how: &str| {
                let SeriesState::Live(live) = &state else {
                    panic!("series {k} {how} is not live")
                };
                let own = k == 2;
                assert_eq!(
                    Arc::ptr_eq(&live.detector.decomposer.config, &shared),
                    !own,
                    "series {k} {how}: config pointer"
                );
                let blocks = heap_blocks(state);
                assert_eq!(
                    blocks,
                    2 + own as u64,
                    "series {k} {how}, {online} points: heap blocks"
                );
            };
            for snap in shard.snapshot() {
                let k: usize = snap.key.as_str()["footprint/".len()..].parse().unwrap();
                let PhaseSnapshot::Live { decomposer, .. } = &snap.phase else {
                    panic!("series {k} is not live")
                };
                assert_eq!(decomposer.m, online as u64, "series {k}: online points");
                let restored = SeriesState::from_snapshot(snap.phase, &config, &shard.shared);
                check(k, restored.unwrap(), "restored");
                let slot = shard.registry.slot_of(&snap.key).unwrap();
                let entry = shard.registry.remove_slot(slot).unwrap();
                check(k, entry.state, "admitted");
            }
        }
    }

    /// Restoring a live series on the shard's detector config allocates
    /// its two owned blocks (the IRLS iteration states and the seasonal
    /// buffer arrive inside the snapshot, so only the iteration-state
    /// `Vec` is new) and nothing for the config: the restore points at
    /// the shard's shared config instead of allocating a copy and
    /// dropping it.
    #[test]
    fn restoring_a_live_series_allocates_nothing_for_a_shared_config() {
        let config = Arc::new(FleetConfig::fixed_period(24));
        let mut shard = ShardState::new(0, Arc::clone(&config));
        let key = SeriesKey::new("restore-allocs/0");
        for t in 0..config.init_len(24) as u64 + 8 {
            let mut batch = ShardBatch::default();
            let value = 2.0 + (2.0 * std::f64::consts::PI * t as f64 / 24.0).sin();
            let hash = key.stable_hash();
            batch.push(0, Record { key: key.clone(), t, value }, hash, t);
            shard.ingest_batch(&mut batch, t + 1, None);
        }
        let [snap] = <[SeriesSnapshot; 1]>::try_from(shard.snapshot()).expect("one series");
        let before = ALLOCS.with(|c| c.get());
        let restored = SeriesState::from_snapshot(snap.phase, &config, &shard.shared).unwrap();
        let allocs = ALLOCS.with(|c| c.get()) - before;
        let SeriesState::Live(live) = &restored else { panic!("the series restores live") };
        assert!(Arc::ptr_eq(&live.detector.decomposer.config, &shard.shared.detector));
        assert_eq!(allocs, 1, "blocks allocated by one restore");
    }

    /// One faulting series in each pair of the paired sweep: with four
    /// series stepped once per batch, slots (0, 1) and (2, 3) pair up, the
    /// series in slot 1 has a `SeriesStep` hook that errors and the one
    /// in slot 2 a hook that panics. Each quarantines alone, with its own
    /// cause, and its healthy partner keeps scoring bit-identically to a
    /// shard that saw no fault.
    #[test]
    fn a_faulting_series_in_a_pair_quarantines_only_itself() {
        let key = |k: usize| SeriesKey::new(format!("pair-blast/{k}"));
        let ingest = |shard: &mut ShardState, step: u64| -> Vec<PointOutput> {
            let mut batch = ShardBatch::default();
            for k in 0..KEYS {
                let phase = (step as usize + 5 * k) as f64 / 24.0;
                let wobble = ((step * 3 + k as u64 * 17) % 13) as f64 / 40.0;
                let value = 2.0 + (2.0 * std::f64::consts::PI * phase).sin() + wobble;
                let key = key(k);
                let hash = key.stable_hash();
                batch.push(k as u32, Record { key, t: step, value }, hash, step);
            }
            shard.ingest_batch(&mut batch, step + 1, None);
            batch.outputs
        };
        let config = Arc::new(FleetConfig::fixed_period(24));
        // 8 points past admission
        let warm = config.init_len(24) as u64 + 8;
        let mut faulty = ShardState::new(0, Arc::clone(&config));
        let mut clean = ShardState::new(0, Arc::clone(&config));
        for step in 0..warm {
            ingest(&mut faulty, step);
            ingest(&mut clean, step);
        }
        assert_eq!(faulty.stats().live, KEYS);
        let (fails, panics) = (1, 2);
        let fail: fault::FaultHook = StdArc::new(|op, _| {
            (op == FaultOp::SeriesStep).then(|| std::io::Error::other("injected series fault"))
        });
        let panic: fault::FaultHook = StdArc::new(|op, _| {
            assert!(op != FaultOp::SeriesStep, "injected series panic");
            None
        });
        let _fail = fault::inject(key(fails).as_str(), fail);
        let _panic = fault::inject(key(panics).as_str(), panic);
        for step in warm..warm + 40 {
            let got = ingest(&mut faulty, step);
            let want = ingest(&mut clean, step);
            for k in 0..KEYS {
                if k == fails || k == panics {
                    assert_eq!(got[k], PointOutput::Quarantined, "series {k} step {step}");
                } else {
                    assert_eq!(bits(&got[k]), bits(&want[k]), "series {k} step {step}");
                }
            }
        }
        let stats = faulty.stats();
        assert_eq!((stats.live, stats.quarantined), (KEYS - 2, 2));
        assert_eq!(stats.points, clean.stats().points);
        for (k, cause) in
            [(fails, QuarantineCause::NonFinite), (panics, QuarantineCause::Panic)]
        {
            let slot = faulty.registry.slot_of(&key(k)).expect("the series stays registered");
            let entry = faulty.registry.entry(slot).expect("its slot is occupied");
            assert!(
                matches!(entry.state, SeriesState::Quarantined { cause: c, .. } if c == cause),
                "series {k}: {:?}",
                entry.state
            );
        }
    }

    /// The paired sweep is the one-row sweep, bit for bit: a sub-batch
    /// holding repeated keys (runs of one series' rows, and one series'
    /// rows split by another's), live series, warming series (one of
    /// which is admitted inside the sub-batch) and an odd number of live
    /// rows yields the outputs and counters of a twin shard fed every row
    /// as a batch of its own, where nothing can pair.
    #[test]
    fn a_mixed_sub_batch_matches_stepping_every_row_alone() {
        let key = |k: usize| SeriesKey::new(format!("pair-mix/{k}"));
        let value = |k: usize, t: u64| {
            let phase = (t as usize + 7 * k) as f64 / 24.0;
            let spike = if (t + k as u64).is_multiple_of(37) { 30.0 } else { 0.0 };
            2.0 + (2.0 * std::f64::consts::PI * phase).sin()
                + ((t * 5 + k as u64) % 9) as f64 / 30.0
                + spike
        };
        let config = Arc::new(FleetConfig::fixed_period(24));
        let init = config.init_len(24) as u64;
        let mut paired = ShardState::new(0, Arc::clone(&config));
        let mut alone = ShardState::new(0, Arc::clone(&config));
        // (series, rows per tick): series 0–4 go live first; 5 joins late
        // and admits inside a sub-batch below; 6 is still warming
        let mut clock = [0u64; 8];
        let mut rows = |keys: &[usize]| -> Vec<(usize, u64, f64)> {
            keys.iter()
                .map(|&k| {
                    let t = clock[k];
                    clock[k] += 1;
                    (k, t, value(k, t))
                })
                .collect()
        };
        let feed = |paired: &mut ShardState,
                    alone: &mut ShardState,
                    seq: u64,
                    rows: &[(usize, u64, f64)]| {
            let mut batch = ShardBatch::default();
            for (i, &(k, t, v)) in rows.iter().enumerate() {
                let key = key(k);
                let hash = key.stable_hash();
                batch.push(i as u32, Record { key, t, value: v }, hash, t);
            }
            paired.ingest_batch(&mut batch, seq, None);
            let mut want = Vec::new();
            for &(k, t, v) in rows {
                let mut one = ShardBatch::default();
                let key = key(k);
                let hash = key.stable_hash();
                one.push(0, Record { key, t, value: v }, hash, t);
                alone.ingest_batch(&mut one, seq, None);
                want.push(one.outputs.pop().expect("one output"));
            }
            for (i, (got, want)) in batch.outputs.iter().zip(&want).enumerate() {
                match (got, want) {
                    (PointOutput::Scored { .. }, PointOutput::Scored { .. }) => {
                        assert_eq!(bits(got), bits(want), "seq {seq} row {i}")
                    }
                    _ => assert_eq!(got, want, "seq {seq} row {i}"),
                }
            }
        };
        let mut seq = 0;
        for _ in 0..init + 8 {
            seq += 1;
            let tick = rows(&[0, 1, 2, 3, 4]);
            feed(&mut paired, &mut alone, seq, &tick);
        }
        for _ in 0..init - 3 {
            seq += 1;
            let tick = rows(&[5]);
            feed(&mut paired, &mut alone, seq, &tick);
        }
        assert_eq!(paired.stats().live, 5);
        for _ in 0..12 {
            seq += 1;
            // series 5 admits at its third row here and then goes live; 6
            // warms; 2 has a run of three rows and 0's rows sit apart
            let tick = rows(&[0, 2, 2, 5, 1, 5, 6, 2, 3, 5, 4, 0, 6]);
            feed(&mut paired, &mut alone, seq, &tick);
        }
        let (p, a) = (paired.stats(), alone.stats());
        assert_eq!((p.live, p.warming), (6, 1));
        assert_eq!(
            (p.points, p.admitted, p.anomalies, p.shift_searches, p.shift_trials),
            (a.points, a.admitted, a.anomalies, a.shift_searches, a.shift_trials)
        );
        assert!(p.shift_searches > 0, "the spikes must drive the shift search");
    }

    /// A `SeriesStep` fault — an error or a panic — for one series
    /// quarantines that series alone: the other series in the same batch
    /// keep scoring bit-identically to a shard that saw no fault.
    #[test]
    fn a_faulting_series_quarantines_only_itself() {
        let config = Arc::new(FleetConfig::fixed_period(24));
        // 8 points past admission
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

    /// A read raised while the sweep steps a known row is answered at the
    /// next slot start: the next slot, or the slot after it when that row
    /// is paired with the first row of the next slot. The read is sent and
    /// its lane flag raised from a `SeriesStep` hook on the raising series
    /// at its `n`-th row, i.e. from inside the sweep. Each key is stamped with the sweep's seq when its slot lies
    /// below the cursor and with the prior `applied_seq` otherwise, and
    /// each forecast is bit-identical to a twin shard stepped up to that
    /// seq. The drain changes no output.
    #[test]
    fn a_read_is_answered_mid_sweep_and_stamped_per_key() {
        const SERIES: usize = 48;
        const H: usize = 24;
        // (rows per series in the sub-batch, raising series, its raising
        // row, cursor). One row per series: rows pair as (0, 1), (2, 3), …,
        // so a read raised in series 21, lane 1 of its pair, is answered
        // at the next slot, and one raised in series 20 waits for its
        // partner, 21. Sixteen rows per series: a series' last row pairs
        // with the next series' first while no read waits, so a read
        // raised at series 20's first row is answered at slot 21, and one
        // raised at its last row waits for the rest of series 21.
        for (case, (rows, raiser, nth, cursor)) in
            [(1, 21, 1, 22), (1, 20, 1, 22), (16, 20, 1, 21), (16, 20, 16, 22)]
                .into_iter()
                .enumerate()
        {
            let key = |k: usize| SeriesKey::new(format!("sweep-read/{case}/{k}"));
            // sub-batch `b`: `rows` ticks, every series once per tick
            let batch = |b: u64| {
                let mut batch = ShardBatch::default();
                for r in 0..rows {
                    let t = b * rows as u64 + r as u64;
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
                        let mut fc = vec![0.0; H];
                        assert!(s.forecast_slot(slot, &mut fc), "a live series forecasts");
                        fc.into_iter().map(f64::to_bits).collect()
                    })
                    .collect()
            };
            let config = Arc::new(FleetConfig::fixed_period(24));
            // 8 points past admission
            let warm = (config.init_len(24) + 8).div_ceil(rows) as u64;
            let mut shard = ShardState::new(0, Arc::clone(&config));
            let mut twin = ShardState::new(0, Arc::clone(&config));
            for b in 1..=warm {
                shard.ingest_batch(&mut batch(b), b, None);
                twin.ingest_batch(&mut batch(b), b, None);
            }
            let before = forecasts(&twin);
            let seq = warm + 1;
            let mut want = batch(seq);
            twin.ingest_batch(&mut want, seq, None);
            let after = forecasts(&twin);

            let (lane_tx, lane_rx) = std::sync::mpsc::channel();
            let (reply, replies) = std::sync::mpsc::channel();
            let raised = StdArc::new(AtomicBool::new(false));
            let lane = ReadLane::new(lane_rx, StdArc::clone(&raised), Default::default());
            let items = (0..SERIES).map(|k| (k, key(k).stable_hash(), key(k))).collect();
            let read = ReadMsg::Forecast { items, horizon: H, reply };
            let pending = std::sync::Mutex::new((0, Some((lane_tx, read))));
            let raise: fault::FaultHook = StdArc::new(move |op, _| {
                let mut pending = pending.lock().unwrap();
                pending.0 += (op == FaultOp::SeriesStep) as usize;
                if pending.0 == nth {
                    if let Some((lane_tx, read)) = pending.1.take() {
                        lane_tx.send(read).unwrap();
                        raised.store(true, Ordering::Release);
                    }
                }
                None
            });
            let guard = fault::inject(key(raiser).as_str(), raise);
            let mut got = batch(seq);
            shard.ingest_batch(&mut got, seq, Some(&lane));
            drop(guard);
            assert_eq!(got.outputs, want.outputs, "case {case}: the drain changes no output");
            assert_eq!(shard.cursor, None, "no cursor between sub-batches");
            assert_eq!(shard.seq_of(Some(0)), seq);

            let (index, slots, values) = replies.try_recv().expect("answered during the sweep");
            assert!(replies.try_recv().is_err(), "one reply");
            assert_eq!((index, slots.len(), values.len()), (0, SERIES, SERIES * H));
            let mut done = 0;
            for ((k, applied, live), fc) in slots.into_iter().zip(values.chunks_exact(H)) {
                let slot = shard.registry.slot_of(&key(k)).expect("registered");
                assert!(live, "series {k} is live");
                let fc: Vec<u64> = fc.iter().map(|v| v.to_bits()).collect();
                if slot < cursor {
                    assert_eq!(
                        applied, seq,
                        "case {case}: series {k} in slot {slot} is stepped"
                    );
                    assert_eq!(fc, after[k], "case {case}: series {k} as of seq {seq}");
                    done += 1;
                } else {
                    assert_eq!(applied, warm, "case {case}: series {k} in slot {slot} is not");
                    assert_eq!(fc, before[k], "case {case}: series {k} as of seq {warm}");
                }
            }
            assert_eq!(done, cursor as usize, "case {case}: answered at slot {cursor}");
            assert!(
                (0..SERIES).all(|k| before[k] != after[k]),
                "the sweep moves every forecast"
            );
        }
    }

    /// Serving a forecast allocates its reply buffers and nothing per key:
    /// the blocks a shard allocates to answer k ∈ {1, 64, 512} keys (live
    /// series and unknown keys alike) are the same number for every k, and
    /// the flat reply holds each live series' forecast.
    #[test]
    fn serving_a_forecast_allocates_no_block_per_key() {
        const SERIES: usize = 256;
        const H: usize = 24;
        let key = |k: usize| SeriesKey::new(format!("serve-allocs/{k}"));
        let config = Arc::new(FleetConfig::fixed_period(H));
        let mut shard = ShardState::new(0, Arc::clone(&config));
        // 8 points past admission
        for t in 0..config.init_len(H) as u64 + 8 {
            let mut batch = ShardBatch::default();
            for k in 0..SERIES {
                let value =
                    2.0 + (2.0 * std::f64::consts::PI * (t + k as u64) as f64 / 24.0).sin();
                let key = key(k);
                let hash = key.stable_hash();
                batch.push(k as u32, Record { key, t, value }, hash, t);
            }
            shard.ingest_batch(&mut batch, t + 1, None);
        }
        assert_eq!(shard.stats().live, SERIES);
        let depth = AtomicUsize::new(0);
        let mut blocks = Vec::new();
        for k in [1, 64, 512] {
            // keys `SERIES..` are unknown to the shard
            let items: Vec<_> = (0..k).map(|i| (i, key(i).stable_hash(), key(i))).collect();
            let (reply, replies) = std::sync::mpsc::channel();
            let read = ReadMsg::Forecast { items, horizon: H, reply };
            let before = ALLOCS.with(|c| c.get());
            serve_read(&shard, read, &depth);
            blocks.push(ALLOCS.with(|c| c.get()) - before);
            let (_, slots, values) = replies.recv().unwrap();
            assert_eq!((slots.len(), values.len()), (k, k * H));
            for ((i, _, live), fc) in slots.into_iter().zip(values.chunks_exact(H)) {
                assert_eq!(live, i < SERIES, "key {i}");
                let mut want = vec![0.0; H];
                if let Some(slot) = shard.registry.slot_of(&key(i)) {
                    assert!(shard.forecast_slot(slot, &mut want));
                }
                let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
                assert_eq!(bits(fc), bits(&want), "key {i}");
            }
        }
        assert!(blocks.iter().all(|&b| b == blocks[0]), "blocks per serve: {blocks:?}");
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
