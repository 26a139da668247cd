//! The multi-tenant engine: routes batches to shard workers, admits new
//! series, applies backpressure, snapshots and restores the whole fleet.
//!
//! Two ingest styles share one submission path:
//!
//! - [`FleetEngine::ingest`] — synchronous: submit one batch, wait for its
//!   outputs. At most one batch is ever in flight.
//! - [`FleetEngine::submit`] + [`FleetEngine::next_batch`] — pipelined:
//!   keep several batches in flight so shard workers never idle between
//!   batches. This is where bounded queues matter: with
//!   [`FleetConfig::queue_capacity`] set, a full shard either blocks the
//!   submitter or rejects the batch ([`crate::QueuePolicy`]).

use crate::batch::ShardBatch;
use crate::cold_tier::ColdStore;
use crate::config::{AdmitOptions, FleetConfig, QueuePolicy};
use crate::error::FleetError;
use crate::net::MAX_FRAME;
use crate::persist::Durability;
use crate::series::SeriesState;
use crate::shard::{
    run_worker, BatchReply, ReadLane, ReadMsg, SeriesEntry, SeriesSnapshot, ShardMsg,
    ShardState,
};
use crate::types::{FleetStats, Record, ScoredPoint, SeriesKey, ShardStats};
use std::collections::VecDeque;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::mpsc::{channel, sync_channel, Receiver, Sender, SyncSender, TrySendError};
use std::sync::Arc;
use std::thread::JoinHandle;

/// How often (in ingest batches) the engine sweeps for TTL-expired series
/// when a TTL is configured.
const TTL_SWEEP_EVERY: u64 = 64;

/// Lifetime counters carried across snapshot/restore (shard counters reset
/// on restore because the shard count may change).
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct CarriedTotals {
    /// Series evicted by TTL before the snapshot.
    pub evicted: u64,
    /// Series admitted before the snapshot.
    pub admitted: u64,
    /// Records processed before the snapshot.
    pub points: u64,
    /// Anomalies flagged before the snapshot.
    pub anomalies: u64,
    /// WAL re-arm attempts before the snapshot.
    pub wal_retries: u64,
    /// Shard workers respawned before the snapshot.
    pub shard_restarts: u64,
    /// Batches accepted un-durably before the snapshot.
    pub undurable_batches: u64,
}

/// A complete, self-contained image of an engine: configuration, clocks,
/// and every series' state. Produced by [`FleetEngine::snapshot`]; turned
/// into bytes by [`crate::codec`].
#[derive(Debug, Clone, PartialEq)]
pub struct FleetSnapshot {
    /// Engine configuration at snapshot time.
    pub config: FleetConfig,
    /// Engine clock (max record `t` seen).
    pub clock: u64,
    /// Ingest batches processed (TTL sweep cadence).
    pub batches: u64,
    /// Lifetime counters.
    pub totals: CarriedTotals,
    /// Every series, sorted by key.
    pub series: Vec<SeriesSnapshot>,
}

impl FleetSnapshot {
    /// The image of an engine that has ingested nothing.
    pub(crate) fn empty(config: FleetConfig) -> Self {
        let totals = CarriedTotals::default();
        FleetSnapshot { config, clock: 0, batches: 0, totals, series: Vec::new() }
    }
}

/// A shard request channel: unbounded, or bounded when
/// [`FleetConfig::queue_capacity`] is set (the blocking half of the
/// backpressure story — the rejecting half is the engine-side depth check
/// in [`FleetEngine::submit`]).
enum ShardSender {
    Unbounded(Sender<ShardMsg>),
    Bounded(SyncSender<ShardMsg>),
}

impl ShardSender {
    /// Sends, blocking on a full bounded queue. Errors only when the
    /// worker is gone — the message is handed back (by value, hence the
    /// large `Err`) so a plain engine can retry it against a respawned
    /// worker without re-building the sub-batch.
    #[allow(clippy::result_large_err)]
    fn send(&self, msg: ShardMsg) -> Result<(), ShardMsg> {
        match self {
            ShardSender::Unbounded(tx) => tx.send(msg).map_err(|e| e.0),
            ShardSender::Bounded(tx) => tx.send(msg).map_err(|e| e.0),
        }
    }

    /// Sends without waiting for queue room (an unbounded queue always has
    /// room, so only a bounded one can answer `Full`).
    #[allow(clippy::result_large_err)]
    fn try_send(&self, msg: ShardMsg) -> Result<(), TrySendError<ShardMsg>> {
        match self {
            ShardSender::Unbounded(tx) => {
                tx.send(msg).map_err(|e| TrySendError::Disconnected(e.0))
            }
            ShardSender::Bounded(tx) => tx.try_send(msg),
        }
    }
}

/// One shard worker as the engine sees it: its two inboxes, the depth
/// gauge of the FIFO one, and the thread.
struct Worker {
    /// Ingest/control queue, handled in order.
    queue: ShardSender,
    /// Read lane: forecasts and stats, answered between sub-batches and,
    /// inside one, at the first slot boundary after `reads_raised` is set.
    lane: Sender<ReadMsg>,
    /// Raised after each read sent on `lane` ([`ReadLane`]).
    reads_raised: Arc<AtomicBool>,
    /// Messages sent on `queue` that the worker has not dequeued yet.
    depth: Arc<AtomicUsize>,
    /// The worker thread (`None` once joined by
    /// [`FleetEngine::stop_workers`]).
    handle: Option<JoinHandle<()>>,
}

/// One submitted batch whose outputs have not been collected yet.
struct PendingBatch {
    /// The batch's engine seq.
    seq: u64,
    /// Records in the batch (output slots to fill).
    n: usize,
    /// Shards this batch was sent to; replies are matched off this list
    /// so a worker that died mid-batch can be identified and respawned.
    targets: Vec<usize>,
    /// Where those replies arrive.
    reply_rx: Receiver<BatchReply>,
}

/// One [`FleetEngine::forecast_as_of`] slot: the batch seq the answer is
/// "as of", and the forecast (`None` for a series that is not live).
pub type SeqForecast = (u64, Option<Vec<f64>>);

/// Keeps a stalled shard worker parked until dropped. Test support — see
/// [`FleetEngine::stall_shard`].
#[doc(hidden)]
pub struct StallGuard {
    _release: Sender<()>,
}

/// Sharded multi-series streaming engine. See the crate docs for a tour.
pub struct FleetEngine {
    config: Arc<FleetConfig>,
    workers: Vec<Worker>,
    clock: u64,
    batches: u64,
    /// Lifetime totals kept engine-side; durability bumps its own.
    pub(crate) carried: CarriedTotals,
    pending: VecDeque<PendingBatch>,
    /// The WAL, snapshot writer and degrade policy of an engine built by
    /// [`FleetEngine::create`]/[`FleetEngine::open`]; `None` on a plain
    /// one. [`FleetEngine::submit`] appends every batch to its WAL.
    pub(crate) durability: Option<Box<Durability>>,
    /// Recycled columnar routing batches, reused across
    /// [`FleetEngine::submit`] calls instead of reallocating per batch.
    /// Batches come back on the ingest reply itself
    /// ([`FleetEngine::next_batch`] empties them into here); one whose
    /// reply nobody collects is dropped.
    spare_bufs: Vec<ShardBatch>,
    /// Reassembly buffer reused across [`FleetEngine::next_batch`] calls.
    assembly: Vec<Option<ScoredPoint>>,
}

impl FleetEngine {
    /// Starts an empty engine: spawns `config.shards` worker threads.
    pub fn new(config: FleetConfig) -> Result<Self, FleetError> {
        Self::restore(FleetSnapshot::empty(config))
    }

    /// Rebuilds an engine from a snapshot. The restored engine's scoring
    /// stream is bit-identical to the snapshotted engine's continuation.
    /// The shard count comes from the snapshot's config; keys re-route
    /// deterministically, so a different count would also be correct —
    /// use [`FleetEngine::restore_with_shards`] to override.
    pub fn restore(snapshot: FleetSnapshot) -> Result<Self, FleetError> {
        Self::restore_with_cold(snapshot, None)
    }

    /// [`FleetEngine::restore`] with an explicit shard count (scale a
    /// snapshot up or down on the way back in).
    pub fn restore_with_shards(
        mut snapshot: FleetSnapshot,
        shards: usize,
    ) -> Result<Self, FleetError> {
        snapshot.config.shards = shards;
        Self::restore_with_cold(snapshot, None)
    }

    /// [`FleetEngine::restore`] whose shards open their cold stores under
    /// `cold` before their workers start (a durable engine's `<dir>/cold`).
    pub(crate) fn restore_with_cold(
        snapshot: FleetSnapshot,
        cold: Option<&std::path::Path>,
    ) -> Result<Self, FleetError> {
        let shards = snapshot.config.shards;
        snapshot.config.validate().map_err(FleetError::Config)?;
        let config = Arc::new(snapshot.config);
        let mut states: Vec<ShardState> =
            (0..shards).map(|i| ShardState::new(i, Arc::clone(&config))).collect();
        // size each shard's arena and index once, instead of growing them
        // by doubling while thousands of series load
        let mut counts = vec![0; shards];
        for s in &snapshot.series {
            counts[s.key.shard_of(shards)] += 1;
        }
        for (state, n) in states.iter_mut().zip(counts) {
            state.registry.reserve(n);
        }
        for s in snapshot.series {
            let shard = s.key.shard_of(shards);
            let state = SeriesState::from_snapshot(s.phase, &config, &states[shard].shared)?;
            // series arrive sorted by key, so each shard's arena is
            // admitted — and its buffers allocated — in key order
            states[shard].registry.insert(SeriesEntry {
                key: s.key,
                state,
                last_seen: s.last_seen,
            });
        }
        for state in &mut states {
            // reads answer as of the restored image until the next
            // sub-batch lands
            state.applied_seq = snapshot.batches;
            let store = cold.map(|dir| ColdStore::open(dir, state.index)).transpose();
            state.cold = store.map_err(|e| {
                FleetError::Io(format!("cold store on shard {}: {e}", state.index))
            })?;
        }
        Self::spawn(config, states, snapshot.clock, snapshot.batches, snapshot.totals)
    }

    /// Spawns the worker threads. A thread the OS refuses to create is a
    /// typed [`FleetError::Internal`], not a panic — the partially built
    /// engine drops cleanly (workers already spawned see their senders
    /// close and exit).
    fn spawn(
        config: Arc<FleetConfig>,
        states: Vec<ShardState>,
        clock: u64,
        batches: u64,
        carried: CarriedTotals,
    ) -> Result<Self, FleetError> {
        let workers = states
            .into_iter()
            .map(|state| Self::start_worker(&config, state))
            .collect::<Result<_, _>>()?;
        Ok(FleetEngine {
            config,
            workers,
            clock,
            batches,
            carried,
            pending: VecDeque::new(),
            durability: None,
            spare_bufs: Vec::new(),
            assembly: Vec::new(),
        })
    }

    /// Starts one worker thread on `state`, with a request queue of the
    /// configured flavor and an unbounded read lane.
    fn start_worker(config: &FleetConfig, state: ShardState) -> Result<Worker, FleetError> {
        let (queue, rx) = match config.queue_capacity {
            None => {
                let (tx, rx) = channel::<ShardMsg>();
                (ShardSender::Unbounded(tx), rx)
            }
            Some(cap) => {
                let (tx, rx) = sync_channel::<ShardMsg>(cap);
                (ShardSender::Bounded(tx), rx)
            }
        };
        let (lane, lane_rx) = channel::<ReadMsg>();
        let depth = Arc::new(AtomicUsize::new(0));
        let reads_raised = Arc::new(AtomicBool::new(false));
        let worker_lane = ReadLane::new(lane_rx, Arc::clone(&reads_raised), Arc::clone(&depth));
        let handle = std::thread::Builder::new()
            .name(format!("fleet-shard-{}", state.index))
            .spawn(move || run_worker(state, rx, worker_lane))
            .map_err(|_| FleetError::Internal("spawning a shard worker thread"))?;
        Ok(Worker { queue, lane, reads_raised, depth, handle: Some(handle) })
    }

    /// The engine configuration.
    pub fn config(&self) -> &FleetConfig {
        &self.config
    }

    /// Number of worker shards.
    pub fn shard_count(&self) -> usize {
        self.workers.len()
    }

    /// Engine clock: the largest record `t` ingested so far.
    pub fn clock(&self) -> u64 {
        self.clock
    }

    /// Ingest batches processed so far. This is the sequence number WAL
    /// frames and snapshots are stamped with, so it is also the durable
    /// recovery point ([`FleetEngine::open`]).
    pub fn batches(&self) -> u64 {
        self.batches
    }

    /// Batches submitted via [`FleetEngine::submit`] whose outputs have
    /// not been collected yet.
    pub fn in_flight(&self) -> usize {
        self.pending.len()
    }

    fn send(&self, shard: usize, msg: ShardMsg) -> Result<(), FleetError> {
        let w = &self.workers[shard];
        w.depth.fetch_add(1, Ordering::Relaxed);
        w.queue.send(msg).map_err(|_| FleetError::ShardDown)
    }

    /// Puts a read on shard `shard`'s lane and raises the lane's flag, so
    /// a sweep in progress answers it at its next slot boundary, then
    /// nudges the worker with a [`ShardMsg::Poll`] so an idle one wakes up
    /// to answer it. The nudge never waits for queue room: a full bounded
    /// queue means the worker still has messages to dequeue, and it drains
    /// the lane before it handles the next one.
    fn send_read(&self, shard: usize, read: ReadMsg) -> Result<(), FleetError> {
        let w = &self.workers[shard];
        w.lane.send(read).map_err(|_| FleetError::ShardDown)?;
        // after the send: the worker's Acquire swap that reads `true`
        // then sees the read in the lane
        w.reads_raised.store(true, Ordering::Release);
        // counted before the send: the worker decrements on dequeue.
        // Release pairs with the Acquire load in `queue_depth_probe`: a
        // probe that sees this count also sees the read in the lane.
        w.depth.fetch_add(1, Ordering::Release);
        let nudged = w.queue.try_send(ShardMsg::Poll);
        if nudged.is_err() {
            w.depth.fetch_sub(1, Ordering::Relaxed);
        }
        match nudged {
            Err(TrySendError::Disconnected(_)) => Err(FleetError::ShardDown),
            _ => Ok(()),
        }
    }

    /// [`FleetEngine::send`] that, on a plain engine, respawns a dead
    /// worker and retries the message once. On a durable engine a dead
    /// worker stays down ([`FleetError::ShardDown`]): the repair is
    /// recovery from disk ([`crate::persist`]). `&self` paths
    /// ([`FleetEngine::stats`], [`FleetEngine::forecast`]) return
    /// `ShardDown` until the next `&mut` call heals the shard.
    fn send_or_respawn(&mut self, shard: usize, msg: ShardMsg) -> Result<(), FleetError> {
        let w = &self.workers[shard];
        w.depth.fetch_add(1, Ordering::Relaxed);
        let msg = match w.queue.send(msg) {
            Ok(()) => return Ok(()),
            Err(msg) => msg,
        };
        if self.durability.is_some() {
            return Err(FleetError::ShardDown);
        }
        self.respawn_shard(shard)?;
        self.send(shard, msg)
    }

    /// Replaces a dead shard worker of a plain engine with a fresh one
    /// holding an empty registry: its series re-warm. (A plain engine has
    /// no cold tier; a durable one recovers from disk instead.)
    fn respawn_shard(&mut self, shard: usize) -> Result<(), FleetError> {
        let mut state = ShardState::new(shard, Arc::clone(&self.config));
        // the empty registry is the shard's state as of every batch so far
        state.applied_seq = self.batches;
        let worker = Self::start_worker(&self.config, state)?;
        let Worker { queue, lane, handle, .. } =
            std::mem::replace(&mut self.workers[shard], worker);
        // drop the old inboxes before joining: if the old worker is somehow
        // still alive (a spurious respawn), its closed queue lets it drain
        // and exit instead of deadlocking the join
        drop((queue, lane));
        if let Some(h) = handle {
            let _ = h.join();
        }
        self.carried.shard_restarts += 1;
        Ok(())
    }

    /// Stops every worker after what is already queued and waits for it
    /// to exit, so none is still writing when this returns. Then every
    /// call that reaches a shard of a durable engine fails with
    /// [`FleetError::ShardDown`].
    pub(crate) fn stop_workers(&mut self) {
        for w in &self.workers {
            let _ = w.queue.send(ShardMsg::Shutdown);
        }
        for w in &mut self.workers {
            if let Some(h) = w.handle.take() {
                let _ = h.join();
            }
        }
    }

    /// Test support: makes shard `shard`'s worker panic on its next
    /// dequeue — the deterministic "worker died" injection the
    /// dead-shard tests use.
    #[doc(hidden)]
    pub fn crash_shard(&mut self, shard: usize) -> Result<(), FleetError> {
        self.send(shard, ShardMsg::Crash)
    }

    /// Whether shard `shard`'s worker thread has exited (or was stopped).
    fn worker_dead(&self, shard: usize) -> bool {
        self.workers[shard].handle.as_ref().is_none_or(|h| h.is_finished())
    }

    /// Whether every shard worker is running: false once a dead worker was
    /// neither respawned (plain engine) nor recovered from disk (durable
    /// engine), i.e. the engine is poisoned until [`FleetEngine::open`].
    pub(crate) fn shards_alive(&self) -> bool {
        (0..self.shard_count()).all(|s| !self.worker_dead(s))
    }

    /// Empties routed batches back into the spare pool.
    fn reclaim(&mut self, routed: Vec<ShardBatch>) {
        for mut buf in routed {
            buf.clear();
            self.spare_bufs.push(buf);
        }
    }

    /// Submits a batch without waiting for its outputs (pipelined ingest):
    /// shard workers start on this batch while the caller prepares the
    /// next one. Collect outputs in submission order with
    /// [`FleetEngine::next_batch`].
    ///
    /// With a bounded queue ([`FleetConfig::queue_capacity`]) and
    /// [`QueuePolicy::Reject`], a full target shard fails the whole
    /// submission with [`FleetError::Backpressure`] *before* anything is
    /// sent, logged, or clocked — the batch can be retried verbatim. With
    /// [`QueuePolicy::Block`] the call blocks until every target shard has
    /// queue room. One caveat under either policy: when a TTL or spill
    /// threshold is configured, every 64th submission runs the idle sweep
    /// synchronously (its control messages use blocking sends and the
    /// call waits for every shard's reply), so that submission can stall
    /// briefly even under `Reject` — the sweep must stay at a
    /// deterministic batch boundary for WAL replay to reproduce it.
    ///
    /// On a durable engine ([`FleetEngine::create`]/[`FleetEngine::open`])
    /// the whole batch is appended to the WAL as one record before any
    /// shard sees it, and the call also runs the snapshot cadence and the
    /// degrade policy ([`crate::persist`]). A failed append under
    /// [`crate::DurabilityPolicy::CrashStop`] fails the call with
    /// [`FleetError::Io`], nothing dispatched, and the log stays poisoned;
    /// under [`crate::DurabilityPolicy::Degrade`] the batch is applied
    /// un-durably. A target shard whose worker is dead fails the call with
    /// [`FleetError::ShardDown`] before anything is logged.
    pub fn submit(&mut self, batch: Vec<Record>) -> Result<(), FleetError> {
        if self.durability.is_some() {
            return self.submit_durably(batch);
        }
        self.dispatch(batch)
    }

    /// Routes, logs (on a durable engine) and sends one batch: the part of
    /// [`FleetEngine::submit`] a plain and a durable engine share.
    pub(crate) fn dispatch(&mut self, batch: Vec<Record>) -> Result<(), FleetError> {
        let n = batch.len();
        let shards = self.shard_count();
        let seq = self.batches + 1;
        if let Some(d) = &mut self.durability {
            // encoded before routing moves the records, written once the
            // batch is past the backpressure check
            d.wal.encode(seq, &batch);
        }
        // route on a scratch clock: a rejected batch must leave no trace
        let mut clock = self.clock;
        // from the spare pool: allocation-free once the pipeline is primed
        let mut routed: Vec<ShardBatch> =
            (0..shards).map(|_| self.spare_bufs.pop().unwrap_or_default()).collect();
        for (idx, rec) in batch.into_iter().enumerate() {
            // a bounded clock step contains timestamp poisoning (see
            // `FleetConfig::max_clock_step`); the record keeps its raw `t`
            // in the output, but liveness tracking uses the clamped value
            // so a future-dated record is neither eviction-immune nor able
            // to age out the rest of the fleet
            let t = match self.config.max_clock_step {
                Some(step) => rec.t.min(clock.saturating_add(step)),
                None => rec.t,
            };
            clock = clock.max(t);
            // one hash per record, total: it picks the shard here and the
            // registry bucket on the worker (`SeriesKey::shard_of` is
            // exactly this reduction of `stable_hash`)
            let hash = rec.key.stable_hash();
            let shard = (hash % shards.max(1) as u64) as usize;
            routed[shard].push(idx as u32, rec, hash, t);
        }
        if let (Some(cap), QueuePolicy::Reject) =
            (self.config.queue_capacity, self.config.queue_policy)
        {
            // depth can only shrink concurrently (workers drain, and this
            // `&mut self` method is the sole submitter), so a passing
            // check here guarantees the sends below never overflow
            let full =
                (0..shards).find(|&s| !routed[s].is_empty() && self.queue_depth(s) >= cap);
            if let Some(shard) = full {
                // the submission can be retried verbatim
                self.reclaim(routed);
                return Err(FleetError::Backpressure { shard });
            }
        }
        if self.durability.is_some() {
            // a dead target fails the call before anything is logged, so a
            // retry cannot log a batch no shard will apply
            let logged = if (0..shards).any(|s| !routed[s].is_empty() && self.worker_dead(s)) {
                Err(FleetError::ShardDown)
            } else {
                self.durability.as_deref_mut().map_or(Ok(()), Durability::append)
            };
            if let Err(e) = logged {
                self.reclaim(routed);
                return Err(e);
            }
        }
        let (reply_tx, reply_rx) = channel();
        let mut targets = Vec::new();
        for (shard, b) in routed.into_iter().enumerate() {
            if b.is_empty() {
                self.spare_bufs.push(b); // stays empty, reuse next batch
                continue;
            }
            let sent = self.send_or_respawn(
                shard,
                ShardMsg::Ingest { batch: b, seq, reply: reply_tx.clone() },
            );
            if let Err(e) = sent {
                if let Some(d) = &mut self.durability {
                    // the batch is logged but not applied: log nothing
                    // more, or a retry would log its seq twice
                    d.wal.poison("a shard worker died after its batch was logged");
                }
                return Err(e);
            }
            targets.push(shard);
        }
        self.clock = clock;
        self.batches = seq;
        self.pending.push_back(PendingBatch { seq, n, targets, reply_rx });
        if (self.config.ttl.is_some() || self.config.spill_after.is_some())
            && self.batches.is_multiple_of(TTL_SWEEP_EVERY)
        {
            // never a checkpoint here: replay reproduces the sweep
            self.sweep_idle(self.clock)?;
        }
        Ok(())
    }

    /// Collects the outputs of the oldest in-flight batch (submission
    /// order), blocking until its shards reply; `Ok(None)` when nothing is
    /// in flight. Returns one [`ScoredPoint`] per record, in batch order.
    pub fn next_batch(&mut self) -> Result<Option<Vec<ScoredPoint>>, FleetError> {
        let out = self.collect_next();
        if self.durability.is_some() {
            return self.collected_durably(out);
        }
        out
    }

    fn collect_next(&mut self) -> Result<Option<Vec<ScoredPoint>>, FleetError> {
        let Some(p) = self.pending.pop_front() else {
            return Ok(None);
        };
        // the reassembly buffer is reused across batches (an error path may
        // leave stale entries behind; the clear handles that too)
        self.assembly.clear();
        self.assembly.resize_with(p.n, || None);
        let mut waiting = p.targets;
        while !waiting.is_empty() {
            match p.reply_rx.recv() {
                // every sender gone with replies still owed: the shards
                // left in `waiting` died mid-batch
                Err(_) => break,
                Ok((shard, mut b)) => {
                    waiting.retain(|&s| s != shard);
                    // keys and outputs move straight from the columns into
                    // the assembled points (no clones); the emptied batch
                    // then rejoins the spare pool
                    for (j, (key, output)) in
                        b.keys.drain(..).zip(b.outputs.drain(..)).enumerate()
                    {
                        self.assembly[b.idx[j] as usize] =
                            Some(ScoredPoint { key, t: b.ts[j], value: b.values[j], output });
                    }
                    b.clear();
                    self.spare_bufs.push(b);
                }
            }
        }
        if !waiting.is_empty() {
            // this batch's outputs are gone with the dead worker(s); a
            // plain engine heals for the batches that follow
            if self.durability.is_none() {
                for shard in waiting {
                    self.respawn_shard(shard)?;
                }
            }
            return Err(FleetError::ShardDown);
        }
        let mut out = Vec::with_capacity(p.n);
        for slot in self.assembly.drain(..) {
            // a hole here means a shard answered with the wrong index set
            out.push(slot.ok_or(FleetError::Internal(
                "every batch index answered by exactly one shard",
            ))?);
        }
        Ok(Some(out))
    }

    /// Ingests a batch of records and returns one [`ScoredPoint`] per
    /// record, in batch order. Records are routed to shards by stable key
    /// hash and processed in parallel across shards; per-series order
    /// within the batch is preserved.
    ///
    /// Synchronous: fails with [`FleetError::InFlight`] if pipelined
    /// batches from [`FleetEngine::submit`] are still uncollected.
    pub fn ingest(&mut self, batch: Vec<Record>) -> Result<Vec<ScoredPoint>, FleetError> {
        if !self.pending.is_empty() {
            return Err(FleetError::InFlight);
        }
        self.submit(batch)?;
        self.next_batch()?.ok_or(FleetError::Internal("the batch just submitted is in flight"))
    }

    /// Convenience single-record ingest.
    pub fn ingest_one(
        &mut self,
        key: impl Into<SeriesKey>,
        t: u64,
        value: f64,
    ) -> Result<ScoredPoint, FleetError> {
        let mut out = self.ingest(vec![Record::new(key, t, value)])?;
        out.pop().ok_or(FleetError::Internal("one record in, one point out"))
    }

    /// Registers (or replaces) per-series admission overrides for `key`:
    /// λ, NSigma threshold, declared period, and/or shift-search policy
    /// (see [`AdmitOptions`]). An unknown key is created in the warming
    /// phase so the tuning is in place before its first point; a
    /// still-warming series has its pending overrides replaced; a series
    /// already past admission fails with
    /// [`FleetError::AlreadyAdmitted`] — overrides are an admission-time
    /// contract, not a live-reconfiguration path.
    ///
    /// The overrides are baked into the series' detector at promotion and
    /// persist through snapshot/restore (the codec stores pending
    /// overrides with the warm-up state; a live detector's config already
    /// embeds them). They are not WAL-logged, so a durable engine
    /// checkpoints (a synchronous full base) after registering them; on
    /// `Err` it may hold the registration un-durably: recover from disk.
    pub fn set_admit_options(
        &mut self,
        key: impl Into<SeriesKey>,
        opts: AdmitOptions,
    ) -> Result<(), FleetError> {
        opts.validate().map_err(FleetError::Config)?;
        let key = key.into();
        let shard = key.shard_of(self.shard_count());
        let (tx, rx) = channel();
        let msg = ShardMsg::Admit { key, opts, now: self.clock, reply: tx };
        let admitted = self.send_or_respawn(shard, msg).and_then(|()| {
            rx.recv().unwrap_or(Err(FleetError::ShardDown))?;
            self.write_checkpoint()
        });
        self.recover_on_shard_down(admitted)
    }

    /// Runs the idle sweep at clock `now`: evicts series whose `last_seen`
    /// is more than the configured TTL behind it (hot and cold-resident
    /// alike), and — on a durable engine with [`FleetConfig::spill_after`]
    /// set, the only kind with a cold tier — spills series idle beyond
    /// that threshold to disk. Returns how many series were
    /// evicted (spills preserve state and are counted in
    /// [`crate::FleetStats::spills`] instead). No-op with neither a TTL
    /// nor a spill threshold configured. A durable engine that evicted
    /// something checkpoints, as [`FleetEngine::set_admit_options`] does.
    ///
    /// Liveness clocks live in the engine's (possibly step-bounded) clock
    /// domain, so `now` is clamped the same way records are: with
    /// `max_clock_step` configured, a wall-clock `now` far ahead of the
    /// engine clock cannot evict the whole fleet in one call.
    pub fn evict_idle(&mut self, now: u64) -> Result<usize, FleetError> {
        let evicted = self.sweep_idle(now).and_then(|evicted| {
            if evicted > 0 {
                self.write_checkpoint()?;
            }
            Ok(evicted)
        });
        self.recover_on_shard_down(evicted)
    }

    /// [`FleetEngine::evict_idle`] without the checkpoint: the TTL sweep
    /// inside [`FleetEngine::submit`], which WAL replay reproduces.
    fn sweep_idle(&mut self, now: u64) -> Result<usize, FleetError> {
        if self.config.ttl.is_none() && self.config.spill_after.is_none() {
            return Ok(0);
        }
        let now = match self.config.max_clock_step {
            Some(step) => now.min(self.clock.saturating_add(step)),
            None => now,
        };
        let (tx, rx) = channel();
        for shard in 0..self.shard_count() {
            self.send_or_respawn(shard, ShardMsg::EvictIdle { now, reply: tx.clone() })?;
        }
        drop(tx);
        let mut total = 0;
        for _ in 0..self.shard_count() {
            total += rx.recv().map_err(|_| FleetError::ShardDown)?;
        }
        Ok(total)
    }

    /// Forecasts `1..=horizon` steps ahead for a batch of series, fanning
    /// the keys out to their shards in parallel. Returns one slot per
    /// requested key, in request order: `Some(forecasts)` for a live
    /// series (`forecasts[h-1]` is the `h`-step-ahead prediction), `None`
    /// for an unknown, warming, or rejected one.
    ///
    /// A series whose [`crate::ForecastOptions`] enabled a forecast head
    /// answers with the damped-trend recurrence (§5); any other live
    /// series answers with the plain carry-forward `predict`, so the call
    /// works fleet-wide regardless of per-series configuration.
    ///
    /// Reads do not queue behind ingest: each shard answers at its next
    /// sub-batch boundary or, inside the sweep in progress, as soon as the
    /// series it is stepping (or the pair) is done. A forecast therefore
    /// reflects every batch whose [`FleetEngine::next_batch`] has
    /// returned, and possibly some later submitted ones — for a read
    /// answered mid-sweep, only for the series the sweep has passed;
    /// [`FleetEngine::forecast_as_of`] says exactly which, key by key.
    /// A zero `horizon`, or a request whose answer could not fit one wire
    /// frame (`keys × horizon × 8` bytes over [`MAX_FRAME`]), fails with
    /// [`FleetError::InvalidForecast`] before any shard is asked.
    pub fn forecast(
        &self,
        keys: &[SeriesKey],
        horizon: usize,
    ) -> Result<Vec<Option<Vec<f64>>>, FleetError> {
        Ok(self.forecast_as_of(keys, horizon)?.into_iter().map(|(_, fc)| fc).collect())
    }

    /// [`FleetEngine::forecast`] with each slot stamped by the batch seq
    /// `S` it is "as of": the series' state is exactly the state it would
    /// hold had the engine run batches `1..=S` one at a time and no later
    /// one. `S` lies between the last collected batch and
    /// [`FleetEngine::batches`]. A shard answering inside a sweep stamps
    /// the series it has stepped for that sub-batch with the sub-batch's
    /// seq and the rest with the seq before it, so one shard's keys can
    /// carry two stamps.
    pub fn forecast_as_of(
        &self,
        keys: &[SeriesKey],
        horizon: usize,
    ) -> Result<Vec<SeqForecast>, FleetError> {
        let reply_bytes = keys.len().checked_mul(horizon).and_then(|n| n.checked_mul(8));
        if horizon == 0 || reply_bytes.is_none_or(|b| b > MAX_FRAME) {
            return Err(FleetError::InvalidForecast { keys: keys.len(), horizon });
        }
        let shards = self.shard_count();
        // each shard's list is allocated once, for its even share of the
        // keys plus a quarter, which a uniform hash almost never exceeds (a
        // skewed read still grows it). Counting the keys per shard first
        // would size it exactly, but the second pass cost more than the
        // regrowth it saves
        let share = keys.len() / shards;
        let cap = keys.len().min(share + share / 4 + 8);
        let mut routed: Vec<Vec<(usize, u64, SeriesKey)>> =
            (0..shards).map(|_| Vec::with_capacity(cap)).collect();
        for (idx, key) in keys.iter().enumerate() {
            // one hash per key: it picks the shard here and the registry
            // bucket on the worker (the reduction of `SeriesKey::shard_of`)
            let hash = key.stable_hash();
            routed[(hash % shards as u64) as usize].push((idx, hash, key.clone()));
        }
        let (tx, rx) = channel();
        let mut in_flight = 0usize;
        for (shard, items) in routed.into_iter().enumerate() {
            if items.is_empty() {
                continue;
            }
            self.send_read(shard, ReadMsg::Forecast { items, horizon, reply: tx.clone() })?;
            in_flight += 1;
        }
        drop(tx);
        let mut out = vec![(0, None); keys.len()];
        for _ in 0..in_flight {
            let (shard, slots, values) = rx.recv().map_err(|_| FleetError::ShardDown)?;
            // a reply carries at most two distinct applied seqs (one
            // mid-sweep, one otherwise): map each through `as_of` once
            let mut stamps: Vec<(u64, u64)> = Vec::with_capacity(2);
            for ((idx, applied, live), fc) in
                slots.into_iter().zip(values.chunks_exact(horizon))
            {
                let seq = match stamps.iter().find(|&&(a, _)| a == applied) {
                    Some(&(_, seq)) => seq,
                    None => {
                        let seq = self.as_of(shard, applied);
                        stamps.push((applied, seq));
                        seq
                    }
                };
                out[idx] = (seq, live.then(|| fc.to_vec()));
            }
        }
        Ok(out)
    }

    /// The latest batch seq whose state shard `shard` holds, given that
    /// it has applied its sub-batches through seq `applied`. Batches that
    /// routed it no rows leave its state unchanged, so the stamp runs up
    /// to — not including — the first uncollected batch it still owes.
    fn as_of(&self, shard: usize, applied: u64) -> u64 {
        self.pending
            .iter()
            .find(|p| p.seq > applied && p.targets.contains(&shard))
            .map_or(self.batches, |p| p.seq - 1)
    }

    /// Single-series [`FleetEngine::forecast`].
    pub fn forecast_one(
        &self,
        key: &SeriesKey,
        horizon: usize,
    ) -> Result<Option<Vec<f64>>, FleetError> {
        let mut out = self.forecast(std::slice::from_ref(key), horizon)?;
        out.pop().ok_or(FleetError::Internal("one key in, one slot out"))
    }

    /// Aggregate + per-shard statistics. Like [`FleetEngine::forecast`],
    /// this read is answered at each shard's next sub-batch boundary or,
    /// inside a sweep, at its next slot boundary: the counters reflect
    /// every collected batch and possibly later submitted ones — answered
    /// mid-sweep, they count the rows stepped so far — and
    /// [`ShardStats::queue_depth`] is the backlog still queued when the
    /// shard answered.
    pub fn stats(&self) -> Result<FleetStats, FleetError> {
        let (tx, rx) = channel();
        for shard in 0..self.shard_count() {
            self.send_read(shard, ReadMsg::Stats { reply: tx.clone() })?;
        }
        drop(tx);
        let mut per_shard: Vec<ShardStats> = Vec::with_capacity(self.shard_count());
        for _ in 0..self.shard_count() {
            per_shard.push(rx.recv().map_err(|_| FleetError::ShardDown)?);
        }
        per_shard.sort_by_key(|s| s.shard);
        let mut stats = FleetStats {
            evicted: self.carried.evicted,
            admitted: self.carried.admitted,
            points: self.carried.points,
            anomalies: self.carried.anomalies,
            wal_retries: self.carried.wal_retries,
            shard_restarts: self.carried.shard_restarts,
            undurable_batches: self.carried.undurable_batches,
            ..Default::default()
        };
        for s in &per_shard {
            stats.live += s.live;
            stats.warming += s.warming;
            stats.rejected += s.rejected;
            stats.quarantined += s.quarantined;
            stats.evicted += s.evicted;
            stats.admitted += s.admitted;
            stats.points += s.points;
            stats.anomalies += s.anomalies;
            stats.shift_searches += s.shift_searches;
            stats.shift_trials += s.shift_trials;
            stats.z_alarms += s.z_alarms;
            stats.cusum_alarms += s.cusum_alarms;
            stats.trend_alarms += s.trend_alarms;
            stats.cold_resident += s.cold_resident;
            stats.spills += s.spills;
            stats.rehydrations += s.rehydrations;
            stats.cold_errors += s.cold_errors;
        }
        stats.shards = per_shard;
        Ok(stats)
    }

    /// Serializes the complete engine state. The engine stays usable; the
    /// snapshot is a consistent point-in-time image because the engine's
    /// `&mut` API means no ingest can be interleaved with the collection.
    pub fn snapshot(&mut self) -> Result<FleetSnapshot, FleetError> {
        let (tx, rx) = channel();
        for shard in 0..self.shard_count() {
            self.send_or_respawn(shard, ShardMsg::Snapshot { reply: tx.clone() })?;
        }
        drop(tx);
        let mut series: Vec<SeriesSnapshot> = Vec::new();
        let mut totals = self.carried;
        for _ in 0..self.shard_count() {
            let (part, stats) = rx.recv().map_err(|_| FleetError::ShardDown)?;
            series.extend(part);
            totals.evicted += stats.evicted;
            totals.admitted += stats.admitted;
            totals.points += stats.points;
            totals.anomalies += stats.anomalies;
        }
        series.sort_by(|a, b| a.key.cmp(&b.key));
        Ok(FleetSnapshot {
            config: (*self.config).clone(),
            clock: self.clock,
            batches: self.batches,
            totals,
            series,
        })
    }

    /// [`FleetEngine::snapshot`] straight to the versioned binary format.
    pub fn snapshot_bytes(&mut self) -> Result<Vec<u8>, FleetError> {
        Ok(crate::codec::encode(&self.snapshot()?))
    }

    /// Restores an engine from [`FleetEngine::snapshot_bytes`] output.
    pub fn restore_bytes(bytes: &[u8]) -> Result<Self, FleetError> {
        Self::restore(crate::codec::decode(bytes)?)
    }

    /// Test support: parks shard `shard`'s worker until the returned guard
    /// drops, so tests can fill a bounded queue deterministically. The
    /// worker dequeues the stall message *before* parking (freeing its
    /// queue slot), so the full configured capacity remains fillable; spin
    /// on [`FleetEngine::queue_depth`] reaching 0 to know the worker is
    /// parked.
    #[doc(hidden)]
    pub fn stall_shard(&self, shard: usize) -> Result<StallGuard, FleetError> {
        let (tx, rx) = channel();
        self.send(shard, ShardMsg::Stall { release: rx })?;
        Ok(StallGuard { _release: tx })
    }

    /// Test support: current sampled queue depth of one shard (the same
    /// gauge [`ShardStats::queue_depth`] reports, without a stats
    /// round-trip — usable while the worker is stalled).
    #[doc(hidden)]
    pub fn queue_depth(&self, shard: usize) -> usize {
        self.workers[shard].depth.load(Ordering::Relaxed)
    }

    /// Test support: [`FleetEngine::queue_depth`] of one shard as a
    /// closure that outlives the borrow, so a test can watch a worker's
    /// queue while another thread owns the engine and blocks in a read. A
    /// read's wake-up nudge raises the count only after the read is on
    /// the lane. The probe keeps reading the old gauge after the shard is
    /// respawned.
    #[doc(hidden)]
    pub fn queue_depth_probe(&self, shard: usize) -> impl Fn() -> usize + Send + 'static {
        let depth = Arc::clone(&self.workers[shard].depth);
        move || depth.load(Ordering::Acquire)
    }
}

impl Drop for FleetEngine {
    fn drop(&mut self) {
        self.stop_workers();
    }
}
