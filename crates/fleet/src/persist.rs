//! Durable persistence: snapshot-to-disk (full bases + incremental
//! deltas), WAL lifecycle, crash recovery.
//!
//! Durability is a setting of the engine, not a wrapper around it: an
//! engine built by [`FleetEngine::create`] or [`FleetEngine::open`] owns a
//! directory, and every surface that drives it — `ingest`, `submit`,
//! [`crate::NetServer`] — gets the WAL, the snapshots and the degraded
//! mode below. [`FleetEngine::new`] and `restore*` build a plain engine.
//!
//! ```text
//! dir/
//!   snap-00000000000000000000.fsnap    full engine image at batch seq 0
//!   delta-00000000000000004096.fdelta  dirty series since seq 0
//!   delta-00000000000000008192.fdelta  dirty series since seq 4096
//!   snap-00000000000000065536.fsnap    periodic full-base rewrite
//!   wal-00000000000000065536.flog      log of batches 65537…
//!   cold/cold-0000.fcold               per-shard cold tier (spill_after)
//! ```
//!
//! Every ingested batch is appended to the WAL as one record by the engine
//! thread *before* any shard applies it ([`crate::wal`]). Every
//! [`DurabilityConfig::snapshot_every`] batches the engine state is
//! collected (fast, in-memory) and handed to a background writer thread
//! that encodes it, writes a temp file, fsyncs, and atomically renames it
//! into place — ingest never waits on snapshot I/O. The cadence normally
//! collects an **incremental delta** — only the series dirty since the
//! previous image, plus tombstones of evicted ones — so a mostly idle
//! fleet writes a small fraction of its state per interval; every
//! [`DurabilityConfig::max_delta_chain`] deltas (and on every forced
//! [`FleetEngine::checkpoint`]) a full base is rewritten, bounding both
//! chain length and recovery fan-in. When an image is confirmed durable,
//! WAL segments it covers and bases/deltas beyond
//! [`DurabilityConfig::keep_snapshots`] are deleted — and a kept segment
//! whose whole batch range is already re-derivable from the
//! snapshot/delta chain of every surviving base below it is compacted
//! away, so the WAL footprint tracks the un-imaged tail instead of the
//! retention window.
//!
//! ## Recovery
//!
//! [`FleetEngine::open`] walks the directory newest-base-first, skipping
//! bases that fail CRC/decode (torn writes, version mismatches), then
//! folds the chain of deltas anchored at the chosen base (each delta
//! names the image it chains onto; the walk stops at the first gap or
//! corrupt link — the WAL covers whatever the chain cannot). The folded
//! image restores an engine, then the WAL records after it are replayed
//! in seq order through the normal ingest path, up to the first missing
//! seq (a torn or corrupt record ends what its segment holds); the
//! on-disk logs are truncated to that point so the durable state is
//! always a *prefix* of the ingest history. Because folding is exact and
//! replay reuses the ingest path byte-for-byte, the recovered engine is
//! **bit-identical** to an uninterrupted engine fed the same prefix — the
//! disk-level extension of the in-memory guarantee pinned by
//! `tests/fleet_snapshot.rs`.
//!
//! ## What survives a crash
//!
//! - Process crash (panic, `kill -9`): every batch whose `ingest`/
//!   [`FleetEngine::next_batch`] call returned, minus nothing — appends
//!   hit the file before the reply, and the page cache survives the
//!   process.
//! - OS/power crash: everything up to the last `fsync` boundary — at most
//!   [`DurabilityConfig::fsync_every`] − 1 un-fsynced batches (plus a
//!   possibly torn final record). The default `fsync_every = 1` makes
//!   every acknowledged batch durable.
//! - Explicit [`FleetEngine::evict_idle`] and
//!   [`FleetEngine::set_admit_options`] calls are *not* logged; on a
//!   durable engine each checkpoints (a synchronous full base) instead.
//!   The TTL sweep never checkpoints: replay reproduces it
//!   deterministically.
//!
//! ## Degraded mode
//!
//! Under the default [`DurabilityPolicy::CrashStop`], the first WAL or
//! snapshot I/O error poisons the fleet: the failing call returns
//! [`FleetError::Io`] (a failed WAL append dispatches nothing, and the
//! log stays poisoned) and the contract is "recover from disk". Under
//! [`DurabilityPolicy::Degrade`] the fleet keeps **serving** instead:
//! batches are applied un-durably (counted in
//! [`crate::FleetStats::undurable_batches`]), snapshot cadence pauses,
//! and every ingest first checks whether the capped-exponential retry
//! clock ([`DurabilityConfig::wal_retry_backoff`] doubling up to
//! [`DurabilityConfig::wal_retry_cap`]) has expired — if so it re-arms:
//! a fresh WAL generation at the current batch seq, then an immediate
//! full base snapshot that makes the un-durable window recoverable
//! again. Until the re-arm succeeds, a crash loses the window — that is
//! the availability-over-durability trade the policy opts into.
//!
//! ## A dead shard worker
//!
//! Disk is the only recovery path. Under `CrashStop` a dead worker stays
//! down ([`FleetError::ShardDown`]) until the operator runs
//! [`FleetEngine::open`]. Under `Degrade` the first `&mut` call that sees
//! `ShardDown` runs that `open` in place, then returns `ShardDown`; the
//! caller resumes bit-identically from the recovered
//! [`FleetEngine::batches`], and [`crate::FleetStats::shard_restarts`]
//! counts the recovery. If `open` fails, the fleet stays poisoned.
//!
//! ## One process at a time
//!
//! A durability directory must be owned by exactly one live durable
//! engine: there is no lock file (a stale lock would block the
//! crash recovery this module exists for), so a second concurrent
//! `open`/`create` on the same directory would truncate the first one's
//! live WAL segments. Orchestrate exclusivity externally.

use crate::codec;
use crate::config::FleetConfig;
use crate::engine::{FleetDelta, FleetEngine, FleetSnapshot};
use crate::error::FleetError;
use crate::fault;
use crate::types::{Record, ScoredPoint};
use crate::wal::{self, crc32, Wal, WalSegment};
use std::collections::BTreeMap;
use std::fs::{self, File, OpenOptions};
use std::io::{ErrorKind, Read as _};
use std::path::{Path, PathBuf};
use std::sync::mpsc::{channel, Receiver, Sender};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// What a WAL or snapshot I/O failure does to a durable engine.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub enum DurabilityPolicy {
    /// Fail fast (the default): the first I/O error poisons the fleet,
    /// the failing call returns [`FleetError::Io`], and the operator
    /// recovers from disk. Every acknowledged batch is durable.
    #[default]
    CrashStop,
    /// Keep serving: batches apply un-durably while the WAL is retried
    /// with capped exponential backoff; on success durability re-arms
    /// (fresh WAL generation + immediate full snapshot). The un-durable
    /// window is surfaced via [`crate::FleetStats::undurable_batches`]
    /// and [`FleetEngine::degraded`].
    Degrade,
}

/// Configuration of the durability layer (directory + cadences).
#[derive(Debug, Clone, PartialEq)]
pub struct DurabilityConfig {
    /// Directory holding the snapshots and WAL segments of one fleet.
    pub dir: PathBuf,
    /// Fsync the WAL every this many batches (1 = every batch, the safest
    /// and the default; one flush covers the whole batch no matter how
    /// many shards it touched). Larger intervals trade fewer disk flushes
    /// for an OS-crash window of up to `fsync_every − 1` un-fsynced
    /// batches.
    pub fsync_every: u64,
    /// Trigger a background snapshot every this many batches. Snapshots
    /// bound WAL growth and recovery time; between them, recovery cost is
    /// one WAL replay of at most this many batches.
    pub snapshot_every: u64,
    /// How many durable **full** snapshots to retain (≥ 1). Older bases —
    /// the deltas chained below them, and the WAL segments only they
    /// need — are deleted once a newer image is confirmed on disk.
    pub keep_snapshots: usize,
    /// How many consecutive incremental deltas may chain onto a base
    /// before the cadence rewrites a full base (0 disables deltas: every
    /// cadence snapshot is full). Bounds both recovery fan-in and the
    /// disk an unprunable chain pins.
    pub max_delta_chain: usize,
    /// What a WAL or snapshot I/O failure does: fail fast
    /// ([`DurabilityPolicy::CrashStop`], the default) or keep serving
    /// un-durably while retrying ([`DurabilityPolicy::Degrade`]).
    pub policy: DurabilityPolicy,
    /// First retry delay after durability degrades; doubles per failed
    /// re-arm attempt (capped at [`DurabilityConfig::wal_retry_cap`]).
    /// Only meaningful under [`DurabilityPolicy::Degrade`].
    pub wal_retry_backoff: Duration,
    /// Ceiling on the exponential re-arm backoff.
    pub wal_retry_cap: Duration,
}

impl DurabilityConfig {
    /// Defaults: fsync every batch, snapshot every 4096 batches, keep the
    /// last 2 full snapshots, rewrite a full base every 16 deltas,
    /// crash-stop on I/O errors (retry backoff 50 ms doubling to 5 s when
    /// switched to [`DurabilityPolicy::Degrade`]).
    pub fn new(dir: impl Into<PathBuf>) -> Self {
        DurabilityConfig {
            dir: dir.into(),
            fsync_every: 1,
            snapshot_every: 4096,
            keep_snapshots: 2,
            max_delta_chain: 16,
            policy: DurabilityPolicy::CrashStop,
            wal_retry_backoff: Duration::from_millis(50),
            wal_retry_cap: Duration::from_secs(5),
        }
    }

    fn validate(&self) -> Result<(), FleetError> {
        if self.fsync_every == 0 {
            return Err(FleetError::Config("fsync_every must be >= 1".into()));
        }
        if self.snapshot_every == 0 {
            return Err(FleetError::Config("snapshot_every must be >= 1".into()));
        }
        if self.keep_snapshots == 0 {
            return Err(FleetError::Config("keep_snapshots must be >= 1".into()));
        }
        if self.wal_retry_cap < self.wal_retry_backoff {
            return Err(FleetError::Config(
                "wal_retry_cap must be >= wal_retry_backoff".into(),
            ));
        }
        Ok(())
    }
}

/// What a snapshot job writes: a full base or an incremental delta.
enum SnapshotPayload {
    Full(FleetSnapshot),
    Delta(FleetDelta),
}

/// A snapshot handed to the background writer thread. `id` is a
/// monotonically increasing job counter — distinct from `seq`, because a
/// forced checkpoint can legitimately re-write the snapshot of a seq that
/// was already written (state mutated without a batch, e.g. an explicit
/// eviction), and waiting on `seq` alone would not wait for the re-write.
struct SnapshotJob {
    id: u64,
    seq: u64,
    payload: SnapshotPayload,
}

/// The durability of an engine built by [`FleetEngine::create`] or
/// [`FleetEngine::open`]: the WAL, the background snapshot writer, the
/// snapshot cadence and chain bookkeeping, and the degrade state. The
/// engine holds it as `FleetEngine::durability`; see the module docs for
/// the lifecycle.
pub(crate) struct Durability {
    dcfg: DurabilityConfig,
    /// Every submitted batch is encoded and appended here (by
    /// [`FleetEngine::submit`]) before any shard sees it.
    pub(crate) wal: Wal,
    job_tx: Option<Sender<SnapshotJob>>,
    done_rx: Receiver<(u64, u64, Result<(), String>)>,
    writer: Option<JoinHandle<()>>,
    /// Batch seq of the newest *triggered* snapshot (cadence anchor; also
    /// the image the next delta chains onto).
    last_snapshot: u64,
    /// Batch seq of the newest snapshot *confirmed* on disk.
    durable_snapshot: u64,
    /// Consecutive deltas since the last full base was triggered.
    chain_len: usize,
    /// Id handed to the next snapshot job.
    next_job: u64,
    /// Highest job id acknowledged by the writer.
    acked_job: u64,
    /// `Some` while durability is degraded ([`DurabilityPolicy::Degrade`]
    /// only): the engine serves un-durably and re-arms on the retry clock.
    degraded: Option<Degraded>,
}

/// Retry bookkeeping while durability is degraded.
struct Degraded {
    /// Failed re-arm attempts so far (drives the exponential backoff).
    attempts: u32,
    /// Earliest instant the next re-arm may run.
    next_retry: Instant,
}

impl Durability {
    /// A fresh WAL generation at `wal_start` and the snapshot writer
    /// thread, with `snapshot_seq` the newest image on disk.
    fn start(
        dcfg: DurabilityConfig,
        wal_start: u64,
        snapshot_seq: u64,
        chain_len: usize,
    ) -> Result<Box<Self>, FleetError> {
        let wal = Wal::create(&dcfg.dir, wal_start, dcfg.fsync_every).map_err(io_err)?;
        let (job_tx, job_rx) = channel::<SnapshotJob>();
        let (done_tx, done_rx) = channel();
        let dir = dcfg.dir.clone();
        let writer = std::thread::Builder::new()
            .name("fleet-snapshot-writer".into())
            .spawn(move || run_writer(dir, job_rx, done_tx))
            .map_err(|_| FleetError::Internal("spawning the snapshot writer thread"))?;
        Ok(Box::new(Durability {
            dcfg,
            wal,
            job_tx: Some(job_tx),
            done_rx,
            writer: Some(writer),
            last_snapshot: snapshot_seq,
            durable_snapshot: snapshot_seq,
            chain_len,
            next_job: 1,
            acked_job: 0,
            degraded: None,
        }))
    }

    /// Appends the encoded batch. A failure fails the call under
    /// [`DurabilityPolicy::CrashStop`] (the log stays poisoned); under
    /// [`DurabilityPolicy::Degrade`] the batch applies un-durably and the
    /// engine notices the poisoned log after the call.
    pub(crate) fn append(&mut self) -> Result<(), FleetError> {
        match self.wal.append() {
            Err(e) if self.dcfg.policy == DurabilityPolicy::CrashStop => Err(io_err(e)),
            _ => Ok(()),
        }
    }

    /// Under [`DurabilityPolicy::Degrade`], flips into degraded mode when
    /// the WAL has poisoned — appends fail, so batches apply un-durably.
    fn detect_degraded(&mut self) {
        if self.dcfg.policy == DurabilityPolicy::Degrade && self.wal.poison_reason().is_some() {
            self.enter_degraded();
        }
    }

    fn enter_degraded(&mut self) {
        // next_retry = now: the very next submission attempts a re-arm
        self.degraded
            .get_or_insert_with(|| Degraded { attempts: 0, next_retry: Instant::now() });
    }

    fn schedule_retry(&mut self, prior_attempts: u32) {
        let delay = self
            .dcfg
            .wal_retry_backoff
            .saturating_mul(1u32 << prior_attempts.min(16))
            .min(self.dcfg.wal_retry_cap);
        self.degraded = Some(Degraded {
            attempts: prior_attempts.saturating_add(1),
            next_retry: Instant::now() + delay,
        });
    }

    /// Drains writer acknowledgements without blocking.
    fn poll_writer(&mut self) -> Result<(), FleetError> {
        while let Ok(ack) = self.done_rx.try_recv() {
            self.handle_ack(ack)?;
        }
        Ok(())
    }

    fn handle_ack(
        &mut self,
        (id, seq, result): (u64, u64, Result<(), String>),
    ) -> Result<(), FleetError> {
        self.acked_job = self.acked_job.max(id);
        if let Err(e) = result {
            if self.dcfg.policy == DurabilityPolicy::Degrade {
                // a failed snapshot write degrades durability instead of
                // poisoning the engine; the re-arm path re-snapshots
                self.enter_degraded();
                return Ok(());
            }
            return Err(FleetError::Io(e));
        }
        self.durable_snapshot = self.durable_snapshot.max(seq);
        self.prune()
    }

    /// Ends the writer loop once the jobs already queued are written;
    /// `false` when no writer was running.
    fn stop_writer(&mut self) -> bool {
        self.job_tx = None;
        self.writer.take().map(JoinHandle::join).is_some()
    }

    /// Deletes full bases beyond `keep_snapshots`, the deltas chained at
    /// or below the oldest base kept, and WAL segments older than it —
    /// then compacts the survivors: a kept segment whose whole batch
    /// range is durable *and* re-derivable from the snapshot/delta chain
    /// of every kept base at or below it can serve no recovery, so its
    /// files are dropped too. Only runs after a durable ack, so the
    /// newest image always survives.
    fn prune(&self) -> Result<(), FleetError> {
        let listing = scan_dir(&self.dcfg.dir)?;
        let keep_from = {
            let seqs: Vec<u64> = listing.snapshots.iter().map(|(s, _)| *s).collect();
            let kept = seqs.len().saturating_sub(self.dcfg.keep_snapshots);
            seqs.get(kept).copied().unwrap_or(0)
        };
        for (seq, path) in &listing.snapshots {
            if *seq < keep_from {
                let _ = fs::remove_file(path);
            }
        }
        for (seq, path) in &listing.deltas {
            // a delta at the kept base's seq (or below) is superseded by
            // that base; newer ones may chain from any kept base
            if *seq <= keep_from {
                let _ = fs::remove_file(path);
            }
        }
        let mut kept_segments: Vec<(u64, &Vec<PathBuf>)> = Vec::new();
        for (start, files) in &listing.segments {
            if *start < keep_from {
                for path in files {
                    let _ = fs::remove_file(path);
                }
            } else {
                kept_segments.push((*start, files));
            }
        }

        // Segment compaction. A segment starting at `s` holds the batches
        // in `(s, s_next]`, where `s_next` is the next rotation. Recovery
        // anchors at some kept base `b` and folds its delta chain to
        // `reach(b)` before touching the WAL, so the segment is dead iff
        // for *every* kept base `b ≤ s` (any of them is a fallback anchor
        // if newer images turn out corrupt) the chain already reaches
        // `s_next` — and the range is confirmed durable. The newest
        // segment is the live one and never a candidate.
        let bases: Vec<u64> =
            listing.snapshots.iter().map(|(s, _)| *s).filter(|s| *s >= keep_from).collect();
        if bases.is_empty() || kept_segments.len() < 2 {
            return Ok(());
        }
        // delta links of the kept chain: image seq → the image chained on
        // it (header-only decode; a corrupt delta just contributes no
        // link, which conservatively keeps segments)
        let mut links: BTreeMap<u64, u64> = BTreeMap::new();
        for (seq, path) in &listing.deltas {
            if *seq <= keep_from {
                continue;
            }
            let Ok(raw) = load_blob_file(path) else { continue };
            if let Ok((prev, batches)) = codec::decode_delta_chain(&raw[12..]) {
                if batches == *seq && prev < batches {
                    links.insert(prev, batches);
                }
            }
        }
        // `prev < batches` above makes every link strictly increasing, so
        // this walk terminates
        let reach = |b: u64| {
            let mut r = b;
            while let Some(next) = links.get(&r) {
                r = *next;
            }
            r
        };
        for w in kept_segments.windows(2) {
            let (start, files) = (w[0].0, w[0].1);
            let next_start = w[1].0;
            if next_start > self.durable_snapshot {
                continue;
            }
            let mut anchors = bases.iter().copied().filter(|b| *b <= start).peekable();
            if anchors.peek().is_none() {
                continue;
            }
            if anchors.any(|b| reach(b) < next_start) {
                continue; // some fallback anchor still needs this tail
            }
            for path in files {
                let _ = fs::remove_file(path);
            }
        }
        Ok(())
    }
}

impl Drop for Durability {
    fn drop(&mut self) {
        // no checkpoint and no fsync here on purpose: dropping an engine
        // without close() is the crash path (tests rely on it), and
        // already-queued snapshot jobs still complete
        self.stop_writer();
    }
}

impl FleetEngine {
    /// Starts a fresh durable engine in `dcfg.dir` (created if missing,
    /// must not already contain fleet files). Writes a base snapshot at
    /// seq 0 synchronously, so the directory is recoverable from the very
    /// first batch. See the [`crate::persist`] docs for what the engine
    /// then does on every call.
    pub fn create(config: FleetConfig, dcfg: DurabilityConfig) -> Result<Self, FleetError> {
        dcfg.validate()?;
        fs::create_dir_all(&dcfg.dir).map_err(io_err)?;
        remove_stale_tmp(&dcfg.dir)?;
        let existing = scan_dir(&dcfg.dir)?;
        if !existing.snapshots.is_empty()
            || !existing.deltas.is_empty()
            || !existing.segments.is_empty()
        {
            // deltas count too: a stale delta from a previous fleet life
            // could chain onto the new fleet's base (prev_batches can
            // collide across lives) and corrupt a later recovery silently
            return Err(FleetError::Recovery(format!(
                "{} already contains fleet files; use FleetEngine::open",
                dcfg.dir.display()
            )));
        }
        let mut engine = FleetEngine::new(config)?;
        attach_cold_tier(&mut engine, &dcfg)?;
        let base = engine.snapshot()?;
        write_snapshot_file(&dcfg.dir, 0, &base).map_err(io_err)?;
        engine.durability = Some(Durability::start(dcfg, 0, 0, 0)?);
        Ok(engine)
    }

    /// Recovers a durable engine from `dcfg.dir`: newest valid base
    /// snapshot + delta-chain folding + WAL tail replay + torn-tail
    /// truncation. The recovered engine's [`FleetEngine::batches`] is the
    /// number of batches that survived.
    pub fn open(dcfg: DurabilityConfig) -> Result<Self, FleetError> {
        dcfg.validate()?;
        // writes a previous life's crash interrupted before their rename
        remove_stale_tmp(&dcfg.dir)?;
        let listing = scan_dir(&dcfg.dir)?;
        // newest base that actually decodes wins; torn writes and version
        // mismatches are skipped, falling back to an older image
        let mut base: Option<FleetSnapshot> = None;
        for (seq, path) in listing.snapshots.iter().rev() {
            match load_snapshot_file(path) {
                Ok(snap) if snap.batches == *seq => {
                    base = Some(snap);
                    break;
                }
                _ => continue,
            }
        }
        let Some(mut base) = base else {
            return Err(FleetError::Recovery(format!(
                "no valid snapshot in {}",
                dcfg.dir.display()
            )));
        };
        // the chosen base anchors garbage collection: segments before it
        // serve no possible recovery, but segments *between* it and the
        // folded chain tip stay — they are the fallback if a delta file
        // ever goes bad
        let anchor_seq = base.batches;
        // fold the delta chain anchored at the chosen base: each delta
        // names its predecessor image; walk forward until the chain gaps
        // (a missing/corrupt/unchained delta — the WAL replay below covers
        // whatever the chain cannot)
        let mut by_prev: BTreeMap<u64, FleetDelta> = BTreeMap::new();
        for (seq, path) in &listing.deltas {
            if *seq <= base.batches {
                continue; // superseded by the base itself
            }
            if let Ok(delta) = load_delta_file(path) {
                if delta.batches == *seq && delta.prev_batches < delta.batches {
                    // on a (corruption-induced) prev collision the higher
                    // seq wins: ascending iteration makes that the last
                    // insert, and a wrong pick only shortens the chain —
                    // WAL replay restores the difference
                    by_prev.insert(delta.prev_batches, delta);
                }
            }
        }
        let mut chain_len = 0usize;
        while let Some(delta) = by_prev.remove(&base.batches) {
            delta.fold_into(&mut base)?;
            chain_len += 1;
        }
        let base_seq = base.batches;
        let mut engine = FleetEngine::restore(base)?;
        // re-attach the cold tier *before* WAL replay: replayed batches
        // must spill and rehydrate through the same on-disk store the
        // uninterrupted engine used, or recovery would diverge from the
        // prefix rule for series that crossed the hot/cold boundary
        attach_cold_tier(&mut engine, &dcfg)?;

        // read every segment at or after the anchor base; stale pre-base
        // segments are garbage a crash kept alive
        let mut read_segments: Vec<(PathBuf, WalSegment)> = Vec::new();
        for (start, files) in &listing.segments {
            for path in files {
                if *start < anchor_seq {
                    let _ = fs::remove_file(path);
                    continue;
                }
                match wal::read_segment(path) {
                    Ok(Some(seg)) => read_segments.push((path.clone(), seg)),
                    // a header-only v1 segment: what a clean close of the
                    // previous format leaves
                    Ok(None) => {
                        let _ = fs::remove_file(path);
                    }
                    // a v1 segment with records: refusing beats dropping
                    // acknowledged batches silently
                    Err(e) if e.kind() == ErrorKind::Unsupported => {
                        return Err(FleetError::Recovery(format!("{}: {e}", path.display())));
                    }
                    // a torn or short header contributes nothing; replay
                    // stops at the first batch it should have covered
                    Err(_) => {}
                }
            }
        }

        // replay records in seq order up to the first missing seq, through
        // the normal ingest path (durability not started yet, so nothing
        // is re-logged)
        let mut next = base_seq + 1;
        'replay: for (_, seg) in &mut read_segments {
            for frame in &mut seg.frames {
                if frame.seq < next {
                    continue; // covered by the folded image
                }
                if frame.seq > next {
                    break 'replay;
                }
                // move, don't clone: the truncation pass below only needs
                // each frame's seq and end offset
                engine.ingest(std::mem::take(&mut frame.records))?;
                next += 1;
            }
        }
        let recovered = engine.batches();
        debug_assert_eq!(recovered, next - 1);

        // truncate every surviving segment to its last frame ≤ recovered
        // and drop segments wholly beyond it, so a future recovery can
        // never resurrect (or double-apply) the discarded tail
        for (path, seg) in &read_segments {
            if seg.start_seq > recovered {
                let _ = fs::remove_file(path);
                continue;
            }
            let keep = seg
                .frames
                .iter()
                .zip(&seg.frame_ends)
                .filter(|(f, _)| f.seq <= recovered)
                .map(|(_, end)| *end)
                .next_back()
                .unwrap_or(wal::HEADER_LEN);
            let file = OpenOptions::new().write(true).open(path).map_err(io_err)?;
            let len = file.metadata().map_err(io_err)?.len();
            if len > keep {
                file.set_len(keep).map_err(io_err)?;
                fault::sync_data(&file, path).map_err(io_err)?;
            }
        }

        engine.durability = Some(Durability::start(dcfg, recovered, base_seq, chain_len)?);
        Ok(engine)
    }

    /// `true` while durability is degraded: batches apply un-durably and
    /// the engine is waiting out the re-arm backoff. Always `false` under
    /// [`DurabilityPolicy::CrashStop`] and on a plain engine.
    pub fn degraded(&self) -> bool {
        self.durability.as_ref().is_some_and(|d| d.degraded.is_some())
    }

    /// Batch seq of the newest snapshot confirmed durable on disk (0 on a
    /// plain engine).
    pub fn durable_snapshot(&self) -> u64 {
        self.durability.as_ref().map_or(0, |d| d.durable_snapshot)
    }

    /// Lifetime count of `fsync`s issued on the WAL: at most one per
    /// acked batch (0 on a plain engine).
    pub fn wal_fsync_count(&self) -> u64 {
        self.durability.as_ref().map_or(0, |d| d.wal.fsync_count())
    }

    /// Takes a snapshot now and blocks until it is durable on disk, then
    /// prunes superseded WAL segments and old snapshots. Forced: even a
    /// state change without a new batch (an explicit eviction) is
    /// re-snapshotted under the same seq. Fails with
    /// [`FleetError::Config`] on a plain engine.
    pub fn checkpoint(&mut self) -> Result<(), FleetError> {
        self.durable()?;
        let done = self.write_checkpoint();
        self.recover_on_shard_down(done)
    }

    /// Clean shutdown: collect any in-flight batches (their outputs are
    /// discarded — collect them with [`FleetEngine::next_batch`] first if
    /// they matter), then, on a durable engine, checkpoint and stop the
    /// writer thread. After `close` returns, recovery needs zero WAL
    /// replay. Dropping the engine instead is the crash path.
    pub fn close(mut self) -> Result<(), FleetError> {
        while self.next_batch()?.is_some() {}
        if self.durability.is_none() {
            return Ok(());
        }
        // degraded: the checkpoint and sync would only fail again — close
        // what we can; the un-durable window is lost, as documented
        if !self.degraded() {
            self.checkpoint()?;
            self.durable()?.wal.sync().map_err(io_err)?;
        }
        // an engine whose in-place recovery failed has no writer left and
        // stays poisoned
        if self.durable()?.stop_writer() {
            Ok(())
        } else {
            Err(FleetError::ShardDown)
        }
    }

    /// The durable half of [`FleetEngine::submit`]: drain writer acks,
    /// re-arm when the retry clock allows, dispatch (which logs the
    /// batch), notice a poisoned log, run the snapshot cadence, and
    /// recover in place on [`FleetError::ShardDown`].
    pub(crate) fn submit_durably(&mut self, batch: Vec<Record>) -> Result<(), FleetError> {
        let submitted = self.heal().and_then(|()| self.dispatch(batch)).and_then(|()| {
            self.durable()?.detect_degraded();
            self.maybe_snapshot()
        });
        self.recover_on_shard_down(submitted)
    }

    /// The durable half of [`FleetEngine::next_batch`]. Batches collected
    /// while durability is degraded count as un-durable (conservatively: a
    /// batch applied just before the WAL poisoned may land in the unsynced
    /// tail).
    pub(crate) fn collected_durably(
        &mut self,
        out: Result<Option<Vec<ScoredPoint>>, FleetError>,
    ) -> Result<Option<Vec<ScoredPoint>>, FleetError> {
        let out = self.recover_on_shard_down(out)?;
        if let Some(d) = self.durability.as_deref_mut() {
            d.detect_degraded();
            if out.is_some() && d.degraded.is_some() {
                self.carried.undurable_batches += 1;
            }
        }
        Ok(out)
    }

    /// Under [`DurabilityPolicy::Degrade`], recovers the engine in place
    /// when `outcome` is [`FleetError::ShardDown`] (see the module docs).
    /// Public `&mut` methods route their outcome through here once; a
    /// no-op on a plain engine.
    pub(crate) fn recover_on_shard_down<T>(
        &mut self,
        outcome: Result<T, FleetError>,
    ) -> Result<T, FleetError> {
        // no writer: an earlier in-place recovery failed, and the engine
        // stays poisoned like a crash-stopped one
        let recovers = self
            .durability
            .as_ref()
            .is_some_and(|d| d.dcfg.policy == DurabilityPolicy::Degrade && d.writer.is_some());
        if recovers && matches!(outcome, Err(FleetError::ShardDown)) {
            self.recover_in_place();
        }
        outcome
    }

    /// Stops the workers and drains the snapshot writer, so nothing else
    /// writes to the directory, then replaces this engine whole with
    /// [`FleetEngine::open`]'s — or, if that fails, swaps nothing.
    fn recover_in_place(&mut self) {
        self.stop_workers();
        let Some(d) = self.durability.as_deref_mut() else { return };
        d.stop_writer();
        if let Ok(mut recovered) = Self::open(d.dcfg.clone()) {
            // the old count may be ahead of the recovered image's
            recovered.carried.shard_restarts = self.carried.shard_restarts + 1;
            *self = recovered;
        }
    }

    /// Drains writer acks, then attempts a re-arm when degraded and the
    /// backoff clock has expired. A dead shard fails the attempt with
    /// [`FleetError::ShardDown`], which is passed up for recovery instead
    /// of retried.
    fn heal(&mut self) -> Result<(), FleetError> {
        let Some(d) = self.durability.as_deref_mut() else { return Ok(()) };
        d.poll_writer()?;
        let Some(retry) = &d.degraded else { return Ok(()) };
        if Instant::now() < retry.next_retry {
            return Ok(());
        }
        let attempts = retry.attempts;
        self.carried.wal_retries += 1;
        match self.rearm_once() {
            Ok(()) if !self.degraded() => Ok(()),
            Err(FleetError::ShardDown) => Err(FleetError::ShardDown),
            // the attempt failed (or the checkpoint inside it re-degraded):
            // stay degraded and back off exponentially, capped
            _ => {
                self.durable()?.schedule_retry(attempts);
                Ok(())
            }
        }
    }

    /// One re-arm attempt: a fresh WAL generation at the current batch
    /// seq, then an immediate full base snapshot so the un-durable window
    /// becomes recoverable again.
    fn rearm_once(&mut self) -> Result<(), FleetError> {
        let seq = self.batches();
        let d = self.durable()?;
        d.wal = Wal::create(&d.dcfg.dir, seq, d.dcfg.fsync_every).map_err(io_err)?;
        // appends work again; clear the flag before checkpointing (the
        // checkpoint guard refuses while degraded) — a failed write below
        // re-enters via handle_ack
        d.degraded = None;
        self.write_checkpoint()
    }

    /// [`FleetEngine::checkpoint`] without the dead-shard recovery, for
    /// callers that route their own outcome through it; a no-op on a
    /// plain engine.
    pub(crate) fn write_checkpoint(&mut self) -> Result<(), FleetError> {
        if self.durability.is_none() {
            return Ok(());
        }
        if self.degraded() {
            return Err(FleetError::Io(
                "durability degraded: WAL re-arm pending, checkpoint unavailable".into(),
            ));
        }
        let job = self.trigger_snapshot(true)?;
        let d = self.durable()?;
        while d.acked_job < job {
            let ack = d
                .done_rx
                .recv()
                .map_err(|_| FleetError::Io("snapshot writer thread died".into()))?;
            d.handle_ack(ack)?;
        }
        Ok(())
    }

    /// Services the snapshot cadence (paused while degraded).
    fn maybe_snapshot(&mut self) -> Result<(), FleetError> {
        let due = self.durability.as_ref().is_some_and(|d| {
            d.degraded.is_none() && self.batches() - d.last_snapshot >= d.dcfg.snapshot_every
        });
        if due {
            self.trigger_snapshot(false)?;
        }
        Ok(())
    }

    /// Collects the engine state (in-memory, fast), rotates the WAL, and
    /// queues the disk write on the background thread. Returns the id of
    /// the job that will write it (or of the last job, when not `force`
    /// and no batch arrived since the previous trigger).
    ///
    /// The cadence normally collects an incremental delta (dirty series
    /// only, chained onto the previous image); a forced checkpoint, or a
    /// chain reaching [`DurabilityConfig::max_delta_chain`], collects a
    /// full base instead.
    fn trigger_snapshot(&mut self, force: bool) -> Result<u64, FleetError> {
        let seq = self.batches();
        let d = self.durable()?;
        if seq == d.last_snapshot && !force {
            return Ok(d.next_job - 1); // nothing new since the last trigger
        }
        let (max_chain, anchor) = (d.dcfg.max_delta_chain, d.last_snapshot);
        let full = force || max_chain == 0 || d.chain_len >= max_chain;
        let payload = if full {
            SnapshotPayload::Full(self.snapshot()?)
        } else {
            let delta = self.snapshot_delta()?;
            debug_assert_eq!(delta.prev_batches, anchor, "delta chain anchor");
            SnapshotPayload::Delta(delta)
        };
        let d = self.durable()?;
        d.chain_len = if full { 0 } else { d.chain_len + 1 };
        // rotate after collecting: batches ingested while the image is
        // being written land in segments the image does not cover (a no-op
        // re-rotation when forced at an unchanged seq)
        d.wal.rotate(seq).map_err(io_err)?;
        d.last_snapshot = seq;
        let id = d.next_job;
        d.next_job += 1;
        let job = SnapshotJob { id, seq, payload };
        if d.job_tx.as_ref().is_none_or(|tx| tx.send(job).is_err()) {
            return Err(FleetError::Io("snapshot writer thread stopped".into()));
        }
        Ok(id)
    }

    /// The durable state; [`FleetError::Config`] on a plain engine.
    fn durable(&mut self) -> Result<&mut Durability, FleetError> {
        self.durability.as_deref_mut().ok_or_else(|| {
            FleetError::Config("not a durable engine: use FleetEngine::create or open".into())
        })
    }
}

/// The durable engine under its earlier name, kept for the benchmark
/// harness: each method forwards to [`FleetEngine`].
#[doc(hidden)]
pub struct DurableFleet(FleetEngine);

#[doc(hidden)]
impl DurableFleet {
    pub fn create(config: FleetConfig, dcfg: DurabilityConfig) -> Result<Self, FleetError> {
        FleetEngine::create(config, dcfg).map(DurableFleet)
    }
    pub fn open(dcfg: DurabilityConfig) -> Result<Self, FleetError> {
        FleetEngine::open(dcfg).map(DurableFleet)
    }
    pub fn submit(&mut self, batch: Vec<Record>) -> Result<(), FleetError> {
        self.0.submit(batch)
    }
    pub fn next_batch(&mut self) -> Result<Option<Vec<ScoredPoint>>, FleetError> {
        self.0.next_batch()
    }
    pub fn engine(&self) -> &FleetEngine {
        &self.0
    }
    pub fn wal_fsync_count(&self) -> u64 {
        self.0.wal_fsync_count()
    }
    pub fn durable_snapshot(&self) -> u64 {
        self.0.durable_snapshot()
    }
    pub fn close(self) -> Result<(), FleetError> {
        self.0.close()
    }
}

/// The background writer loop: encode → temp file → fsync → rename →
/// directory fsync → ack.
fn run_writer(
    dir: PathBuf,
    jobs: Receiver<SnapshotJob>,
    done: Sender<(u64, u64, Result<(), String>)>,
) {
    while let Ok(SnapshotJob { id, seq, payload }) = jobs.recv() {
        let result = match &payload {
            SnapshotPayload::Full(snapshot) => write_snapshot_file(&dir, seq, snapshot),
            SnapshotPayload::Delta(delta) => write_delta_file(&dir, seq, delta),
        }
        .map_err(|e| e.to_string());
        if done.send((id, seq, result)).is_err() {
            break;
        }
    }
}

/// Snapshot file name for batch seq — zero-padded so lexical order equals
/// numeric order.
pub fn snapshot_file_name(seq: u64) -> String {
    format!("snap-{seq:020}.fsnap")
}

/// Parses a [`snapshot_file_name`] back into its seq; `None` for other
/// files.
pub fn parse_snapshot_name(name: &str) -> Option<u64> {
    name.strip_prefix("snap-")?.strip_suffix(".fsnap")?.parse().ok()
}

/// Delta file name for batch seq — zero-padded like snapshots.
pub fn delta_file_name(seq: u64) -> String {
    format!("delta-{seq:020}.fdelta")
}

/// Parses a [`delta_file_name`] back into its seq; `None` for other files.
pub fn parse_delta_name(name: &str) -> Option<u64> {
    name.strip_prefix("delta-")?.strip_suffix(".fdelta")?.parse().ok()
}

/// Writes `bytes` durably under `name`: `[u64 len · u32 crc32 · bytes]`
/// to a temp file, fsync, atomic rename, directory fsync.
fn write_blob_file(
    dir: &Path,
    tmp_name: &str,
    name: &str,
    bytes: &[u8],
) -> std::io::Result<()> {
    let tmp = dir.join(tmp_name);
    let path = dir.join(name);
    let mut f = fault::create_file(&tmp)?;
    fault::write_all(&mut f, &tmp, &(bytes.len() as u64).to_le_bytes())?;
    fault::write_all(&mut f, &tmp, &crc32(bytes).to_le_bytes())?;
    fault::write_all(&mut f, &tmp, bytes)?;
    fault::sync_all(&f, &tmp)?;
    drop(f);
    fault::rename(&tmp, &path)?;
    // make the rename itself durable
    fault::sync_dir(dir)?;
    Ok(())
}

/// Writes a full base snapshot durably (see [`write_blob_file`]).
fn write_snapshot_file(dir: &Path, seq: u64, snapshot: &FleetSnapshot) -> std::io::Result<()> {
    let name = snapshot_file_name(seq);
    write_blob_file(dir, &format!(".snap-{seq:020}.tmp"), &name, &codec::encode(snapshot))
}

/// Writes an incremental delta durably (see [`write_blob_file`]).
fn write_delta_file(dir: &Path, seq: u64, delta: &FleetDelta) -> std::io::Result<()> {
    let name = delta_file_name(seq);
    write_blob_file(dir, &format!(".snap-{seq:020}d.tmp"), &name, &codec::encode_delta(delta))
}

/// Reads and CRC-verifies a `[u64 len · u32 crc32 · bytes]` blob file,
/// returning the whole buffer (payload starts at offset 12 — no copy).
fn load_blob_file(path: &Path) -> Result<Vec<u8>, String> {
    let mut raw = Vec::new();
    File::open(path).and_then(|mut f| f.read_to_end(&mut raw)).map_err(|e| e.to_string())?;
    if raw.len() < 12 {
        return Err("snapshot file shorter than its header".into());
    }
    let len = u64::from_le_bytes(raw[..8].try_into().unwrap()) as usize;
    let crc = u32::from_le_bytes(raw[8..12].try_into().unwrap());
    let bytes = &raw[12..];
    if bytes.len() != len {
        return Err("snapshot file length mismatch (torn write)".into());
    }
    if crc32(bytes) != crc {
        return Err("snapshot file CRC mismatch".into());
    }
    Ok(raw)
}

/// Reads and verifies a snapshot file written by [`write_snapshot_file`].
fn load_snapshot_file(path: &Path) -> Result<FleetSnapshot, String> {
    codec::decode(&load_blob_file(path)?[12..]).map_err(|e| e.to_string())
}

/// Reads and verifies a delta file written by [`write_delta_file`].
fn load_delta_file(path: &Path) -> Result<FleetDelta, String> {
    codec::decode_delta(&load_blob_file(path)?[12..]).map_err(|e| e.to_string())
}

/// What a durability directory currently holds, numerically sorted.
struct DirListing {
    /// `(seq, path)` per full snapshot file, ascending.
    snapshots: Vec<(u64, PathBuf)>,
    /// `(seq, path)` per delta file, ascending.
    deltas: Vec<(u64, PathBuf)>,
    /// `start_seq → paths` of the WAL segments, ascending (a v1 segment
    /// and the current one may share a `start_seq`).
    segments: BTreeMap<u64, Vec<PathBuf>>,
}

fn scan_dir(dir: &Path) -> Result<DirListing, FleetError> {
    let mut snapshots = Vec::new();
    let mut deltas = Vec::new();
    let mut segments: BTreeMap<u64, Vec<PathBuf>> = BTreeMap::new();
    for entry in fs::read_dir(dir).map_err(io_err)? {
        let entry = entry.map_err(io_err)?;
        let name = entry.file_name();
        let Some(name) = name.to_str() else { continue };
        let path = entry.path();
        if let Some(seq) = parse_snapshot_name(name) {
            snapshots.push((seq, path));
        } else if let Some(seq) = parse_delta_name(name) {
            deltas.push((seq, path));
        } else if let Some(start) = wal::parse_segment_name(name) {
            segments.entry(start).or_default().push(path);
        }
    }
    snapshots.sort();
    deltas.sort();
    Ok(DirListing { snapshots, deltas, segments })
}

/// Deletes snapshot temp files a crash left behind. Only safe while no
/// writer thread is running — once one is, a `.tmp` may be mid-write, and
/// unlinking it would fail the writer's rename (so [`scan_dir`], which
/// also serves [`Durability::prune`], must never do this).
fn remove_stale_tmp(dir: &Path) -> Result<(), FleetError> {
    for entry in fs::read_dir(dir).map_err(io_err)? {
        let entry = entry.map_err(io_err)?;
        if let Some(name) = entry.file_name().to_str() {
            if name.starts_with(".snap-") && name.ends_with(".tmp") {
                let _ = fs::remove_file(entry.path());
            }
        }
    }
    Ok(())
}

/// Attaches the on-disk cold tier under `dir/cold` when the fleet config
/// opts into spilling. No-op otherwise: a fleet without
/// [`crate::FleetConfig::spill_after`] keeps every series hot and writes
/// no cold files.
fn attach_cold_tier(
    engine: &mut FleetEngine,
    dcfg: &DurabilityConfig,
) -> Result<(), FleetError> {
    if engine.config().spill_after.is_some() {
        engine.attach_cold_dir(dcfg.dir.join("cold"))?;
    }
    Ok(())
}

fn io_err(e: std::io::Error) -> FleetError {
    FleetError::Io(e.to_string())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn snapshot_names_roundtrip_and_sort() {
        assert_eq!(parse_snapshot_name(&snapshot_file_name(77)), Some(77));
        assert_eq!(parse_snapshot_name("wal-00-0.flog"), None);
        assert!(snapshot_file_name(9) < snapshot_file_name(10));
    }

    #[test]
    fn durability_config_is_validated() {
        let ok = DurabilityConfig::new("/tmp/x");
        assert!(ok.validate().is_ok());
        assert!(DurabilityConfig { fsync_every: 0, ..ok.clone() }.validate().is_err());
        assert!(DurabilityConfig { snapshot_every: 0, ..ok.clone() }.validate().is_err());
        assert!(DurabilityConfig { keep_snapshots: 0, ..ok.clone() }.validate().is_err());
        assert!(
            DurabilityConfig { wal_retry_cap: Duration::ZERO, ..ok }.validate().is_err(),
            "cap below the base backoff is rejected"
        );
    }
}
