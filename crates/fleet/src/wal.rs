//! Append-only write-ahead log of raw ingested batches.
//!
//! Durability in the fleet is two-tier: periodic snapshots capture the
//! whole engine state ([`crate::codec`]), and between snapshots every
//! ingested batch is first appended to the WAL. Crash recovery
//! ([`crate::persist`]) loads the newest valid snapshot and replays the WAL tail through the normal ingest path,
//! which makes the recovered state **bit-identical** to an uninterrupted
//! run over the same durable prefix.
//!
//! ## One writer
//!
//! The engine thread is the log's only writer: [`crate::FleetEngine::submit`]
//! encodes the whole caller batch as one record and appends it before any
//! shard worker sees the batch, so shard workers never touch the log. The
//! log `fsync`s every [`crate::DurabilityConfig::fsync_every`] batches, and
//! a synced batch therefore costs exactly **one** `fsync` however many
//! shards it routes to (pinned by a flush-counter test in
//! `tests/fleet_persist`). A failed write or `fsync` poisons the log:
//! every later operation fails with the first error.
//!
//! ## On-disk format
//!
//! One file per generation, named `wal-<start_seq>.flog` where `start_seq`
//! is the engine batch sequence the segment starts *after* (segments
//! rotate when a snapshot is triggered, so segment `start_seq = S` holds
//! batches `S+1, S+2, …`). Each record is one [`crate::frame`], and the
//! fields follow the snapshot codec conventions — little-endian integers,
//! bit-pattern `f64`s, `u32`-length-prefixed strings:
//!
//! ```text
//! header   magic b"OSTLWLOG" · u16 version · u64 start_seq
//! record*  u32 payload_len · u32 crc32(payload) · payload   (crate::frame)
//! payload  u64 seq · u32 count · count × { u64 t · f64 value · string key }
//! ```
//!
//! The record list after `seq` is the body of a wire `IngestBatch` too
//! ([`crate::net`]), read and written by the same code.
//!
//! `seq` is the engine-wide batch sequence number and the records are the
//! caller's batch in order, each with its raw (unclamped) `t`: replay
//! re-derives the engine clock exactly as the original run did. An empty
//! batch is logged too, because it advances the sweep cadence.
//!
//! Version 1 segments (one frame per shard, a shard slot in the header and
//! the name) are not decoded: [`read_segment`] reports a header-only one
//! as empty and one holding records as [`std::io::ErrorKind::Unsupported`].
//!
//! ## Torn tails
//!
//! Appends are crash-atomic at record granularity: a record interrupted
//! mid-write fails its length or CRC check, and [`read_segment`] stops at
//! the first bad byte, reporting everything before it. An OS crash can
//! lose at most the `fsync_every − 1` un-fsynced recent batches (plus a
//! torn final record); recovery replays records in seq order up to the
//! first missing seq. A process crash loses nothing that `append`
//! returned `Ok` for.

use crate::codec::{Reader, Writer};
use crate::error::CodecError;
use crate::fault;
use crate::frame;
use crate::types::Record;
use std::fs::File;
use std::io::{ErrorKind, Read as _};
use std::path::{Path, PathBuf};

const WAL_MAGIC: &[u8; 8] = b"OSTLWLOG";
const WAL_VERSION: u16 = 2;
/// Header size in bytes: magic + version + start_seq. Shared with
/// [`crate::persist`]'s torn-tail truncation, which must never cut into a
/// header.
pub(crate) const HEADER_LEN: u64 = 8 + 2 + 8;
/// Header size of a version 1 segment (magic + version + shard +
/// start_seq).
const V1_HEADER_LEN: usize = 8 + 2 + 4 + 8;
/// Upper bound on a single record payload — anything larger is treated as
/// corruption rather than an allocation request.
const MAX_PAYLOAD: usize = 1 << 30;

/// One logged batch as read back from disk.
#[derive(Debug, Clone, PartialEq)]
pub struct WalFrame {
    /// Engine-wide batch sequence number (1-based, monotonically
    /// increasing across the engine's lifetime).
    pub seq: u64,
    /// The caller's batch, in order, with raw event times.
    pub records: Vec<Record>,
}

impl WalFrame {
    fn decode_payload(bytes: &[u8]) -> Result<WalFrame, CodecError> {
        let mut r = Reader { data: bytes, pos: 0 };
        let frame = WalFrame { seq: r.u64()?, records: r.records()? };
        if r.pos != bytes.len() {
            return Err(CodecError::Invalid("WAL record payload length"));
        }
        Ok(frame)
    }
}

/// The open, append-only WAL segment of the current generation, with its
/// fsync cadence. Owned by the engine thread.
#[derive(Debug)]
pub struct Wal {
    file: File,
    dir: PathBuf,
    path: PathBuf,
    /// Fsync every this many appended batches.
    fsync_every: u64,
    /// Batches appended since the last fsync.
    unsynced: u64,
    /// Lifetime fsyncs on the log (appends, rotations, explicit syncs).
    fsyncs: u64,
    /// First I/O error; once set, every operation fails with it (a
    /// half-durable log must not accept more appends).
    poisoned: Option<String>,
    /// The frame [`Wal::append`] writes, as laid out by [`Wal::encode`];
    /// its capacity is reused across batches.
    record: Vec<u8>,
}

impl Wal {
    /// Creates (or truncates) the segment starting after batch
    /// `start_seq`, writing the header, and fsyncs every `fsync_every`
    /// appended batches from then on. All file operations go through the
    /// [`crate::fault`] seam (passthrough in production).
    pub fn create(
        dir: impl Into<PathBuf>,
        start_seq: u64,
        fsync_every: u64,
    ) -> std::io::Result<Self> {
        let dir = dir.into();
        let (file, path) = create_segment(&dir, start_seq)?;
        Ok(Wal {
            file,
            dir,
            path,
            fsync_every: fsync_every.max(1),
            unsynced: 0,
            fsyncs: 0,
            poisoned: None,
            record: Vec::new(),
        })
    }

    /// Lays out batch `seq` as one record (a [`crate::frame`]) for the
    /// next [`Wal::append`]. Separate from the write so the caller can
    /// encode a batch before it gives the records away.
    pub fn encode(&mut self, seq: u64, records: &[Record]) {
        frame::write(&mut self.record, |w| {
            w.u64(seq);
            w.records(records);
        });
    }

    /// Appends the record last laid out by [`Wal::encode`], fsyncing when
    /// the cadence is due.
    pub fn append(&mut self) -> std::io::Result<()> {
        self.check()?;
        let res = fault::write_all(&mut self.file, &self.path, &self.record);
        self.poison_on(res)?;
        self.unsynced += 1;
        if self.unsynced >= self.fsync_every {
            self.sync()?;
        }
        Ok(())
    }

    /// Forces everything appended so far to stable storage.
    pub fn sync(&mut self) -> std::io::Result<()> {
        self.check()?;
        self.fsyncs += 1;
        let res = fault::sync_data(&self.file, &self.path);
        self.poison_on(res)?;
        self.unsynced = 0;
        Ok(())
    }

    /// Rotates to a fresh segment starting after batch `start_seq`. The
    /// previous segment is synced and closed; deleting it once a covering
    /// snapshot is durable is the caller's job ([`crate::persist`]).
    pub fn rotate(&mut self, start_seq: u64) -> std::io::Result<()> {
        self.sync()?;
        let res = create_segment(&self.dir, start_seq);
        let (file, path) = self.poison_on(res)?;
        (self.file, self.path) = (file, path);
        Ok(())
    }

    /// Lifetime count of `fsync`s issued on the log (appends, rotations,
    /// explicit syncs). The basis of the flush-counter test: an acked
    /// batch costs at most one.
    pub fn fsync_count(&self) -> u64 {
        self.fsyncs
    }

    /// The first error that poisoned this log, if any. A poisoned log
    /// rejects every further operation; the durability layer uses this
    /// probe to notice the outage and (under
    /// [`crate::DurabilityPolicy::Degrade`]) re-arm a fresh generation.
    pub fn poison_reason(&self) -> Option<&str> {
        self.poisoned.as_deref()
    }

    /// Poisons the log from outside the append path (the first reason
    /// sticks).
    pub(crate) fn poison(&mut self, why: &str) {
        self.poisoned.get_or_insert_with(|| why.to_string());
    }

    fn check(&self) -> std::io::Result<()> {
        match &self.poisoned {
            None => Ok(()),
            Some(e) => Err(std::io::Error::other(e.clone())),
        }
    }

    fn poison_on<T>(&mut self, res: std::io::Result<T>) -> std::io::Result<T> {
        if let Err(e) = &res {
            self.poison(&e.to_string());
        }
        res
    }
}

/// Creates (or truncates) the segment file starting after batch
/// `start_seq` and writes its header.
fn create_segment(dir: &Path, start_seq: u64) -> std::io::Result<(File, PathBuf)> {
    let path = dir.join(segment_file_name(start_seq));
    let mut file = fault::create_file(&path)?;
    let mut w = Writer::default();
    w.bytes(WAL_MAGIC);
    w.u16(WAL_VERSION);
    w.u64(start_seq);
    fault::write_all(&mut file, &path, &w.buf)?;
    // make the new directory entry durable too: per-append fsyncs protect
    // the file's *contents*, but an OS crash could still drop the whole
    // segment if its name never reached the disk
    fault::sync_dir(dir)?;
    Ok((file, path))
}

/// Segment file name for `start_seq` — zero-padded so lexical order
/// equals numeric order.
pub fn segment_file_name(start_seq: u64) -> String {
    format!("wal-{start_seq:020}.flog")
}

/// Parses a [`segment_file_name`] back into its `start_seq`; `None` for
/// non-WAL files. Version 1 names, which carry a trailing `-<shard>` slot,
/// parse too, so recovery can find and judge them.
pub fn parse_segment_name(name: &str) -> Option<u64> {
    let rest = name.strip_prefix("wal-")?.strip_suffix(".flog")?;
    rest.split_once('-').map_or(rest, |(seq, _shard)| seq).parse().ok()
}

/// One segment as read back from disk, torn-tail tolerant.
#[derive(Debug)]
pub struct WalSegment {
    /// The batch sequence the segment starts after (from the header).
    pub start_seq: u64,
    /// Every frame up to the first corruption, in append order.
    pub frames: Vec<WalFrame>,
    /// Byte offset just past each frame in `frames` — the truncation
    /// points recovery uses to drop a torn or unreplayable tail.
    pub frame_ends: Vec<u64>,
    /// True when the file ends in a torn or corrupt record (which the
    /// reader stopped at and excluded).
    pub torn: bool,
}

/// Reads a segment file, stopping cleanly at the first torn or corrupt
/// record. A valid header with garbage after it is a `torn` segment with
/// zero frames. `Ok(None)` is a header-only version 1 segment (what a
/// clean close of the previous format leaves). Errors for I/O failures,
/// an unreadable header, and — with [`ErrorKind::Unsupported`] — a
/// version 1 segment that holds records.
pub fn read_segment(path: &Path) -> std::io::Result<Option<WalSegment>> {
    let mut bytes = Vec::new();
    File::open(path)?.read_to_end(&mut bytes)?;
    let bad_header = || std::io::Error::new(ErrorKind::InvalidData, "not a fleet WAL segment");
    let mut r = Reader { data: &bytes, pos: 0 };
    if bytes.len() < HEADER_LEN as usize || r.take(8).ok() != Some(WAL_MAGIC.as_slice()) {
        return Err(bad_header());
    }
    match r.u16() {
        Ok(WAL_VERSION) => {}
        Ok(1) if bytes.len() == V1_HEADER_LEN => return Ok(None),
        Ok(1) if bytes.len() > V1_HEADER_LEN => {
            return Err(std::io::Error::new(
                ErrorKind::Unsupported,
                "version 1 WAL segment holds records this build does not replay",
            ))
        }
        _ => return Err(bad_header()),
    }
    let start_seq = r.u64().map_err(|_| bad_header())?;
    let mut frames = Vec::new();
    let mut frame_ends = Vec::new();
    let mut pos = r.pos;
    // an incomplete, corrupt or unparseable record ends the segment
    while let Ok(Some((payload, used))) = frame::cut(&bytes[pos..], MAX_PAYLOAD) {
        let Ok(frame) = WalFrame::decode_payload(payload) else { break };
        pos += used;
        frames.push(frame);
        frame_ends.push(pos as u64);
    }
    let torn = pos < bytes.len();
    Ok(Some(WalSegment { start_seq, frames, frame_ends, torn }))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::frame::crc32;
    use std::fs;

    fn tmp_dir(name: &str) -> PathBuf {
        let d = std::env::temp_dir().join(format!("fleet-wal-{}-{name}", std::process::id()));
        let _ = fs::remove_dir_all(&d);
        fs::create_dir_all(&d).unwrap();
        d
    }

    fn frame(seq: u64, n: u32) -> WalFrame {
        WalFrame {
            seq,
            records: (0..n)
                .map(|i| {
                    let value = std::f64::consts::PI * f64::from(i + 1) * 1e-9;
                    Record::new(format!("host-{i}/cpu"), 100 + u64::from(i), value)
                })
                .collect(),
        }
    }

    fn append(wal: &mut Wal, f: &WalFrame) -> std::io::Result<()> {
        wal.encode(f.seq, &f.records);
        wal.append()
    }

    fn read(path: &Path) -> WalSegment {
        read_segment(path).unwrap().expect("a current-version segment")
    }

    #[test]
    fn crc32_matches_known_vectors() {
        // standard check value for "123456789" under CRC-32/IEEE
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b""), 0);
    }

    #[test]
    fn segment_names_roundtrip_and_sort() {
        let name = segment_file_name(42);
        assert_eq!(parse_segment_name(&name), Some(42));
        assert_eq!(parse_segment_name("wal-00000000000000000042-0003.flog"), Some(42), "v1");
        assert_eq!(parse_segment_name("snap-0000.fsnap"), None);
        assert!(segment_file_name(9) < segment_file_name(10), "lexical == numeric");
    }

    #[test]
    fn append_read_roundtrip_bit_identical() {
        let dir = tmp_dir("roundtrip");
        let mut wal = Wal::create(&dir, 7, 3).unwrap();
        let frames = vec![frame(8, 3), frame(9, 0), frame(10, 5)];
        for f in &frames {
            append(&mut wal, f).unwrap();
        }
        let seg = read(&dir.join(segment_file_name(7)));
        assert_eq!(seg.start_seq, 7);
        assert!(!seg.torn);
        assert_eq!(seg.frames.len(), 3);
        for (a, b) in seg.frames.iter().zip(&frames) {
            assert_eq!(a.seq, b.seq);
            assert_eq!(a.records.len(), b.records.len());
            for (x, y) in a.records.iter().zip(&b.records) {
                assert_eq!((&x.key, x.t), (&y.key, y.t));
                assert_eq!(x.value.to_bits(), y.value.to_bits(), "bit-identical floats");
            }
        }
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn torn_tail_is_detected_at_every_cut() {
        let dir = tmp_dir("torn");
        let path = dir.join(segment_file_name(0));
        let mut wal = Wal::create(&dir, 0, 1).unwrap();
        append(&mut wal, &frame(1, 2)).unwrap();
        append(&mut wal, &frame(2, 2)).unwrap();
        drop(wal);
        let full = fs::read(&path).unwrap();
        let seg = read(&path);
        assert_eq!((seg.frames.len(), seg.torn), (2, false));
        let first_end = seg.frame_ends[0] as usize;
        // cut anywhere inside the second record: exactly the first survives
        for cut in (first_end + 1)..full.len() {
            fs::write(&path, &full[..cut]).unwrap();
            let seg = read(&path);
            assert!(seg.torn, "cut at {cut} must read as torn");
            assert_eq!(seg.frames.len(), 1, "cut at {cut}");
            assert_eq!(seg.frames[0].seq, 1);
        }
        // corrupt one payload byte of the final record: CRC catches it
        let mut flipped = full.clone();
        let last = flipped.len() - 1;
        flipped[last] ^= 0x40;
        fs::write(&path, &flipped).unwrap();
        let seg = read(&path);
        assert!(seg.torn);
        assert_eq!(seg.frames.len(), 1);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn empty_and_invalid_segments() {
        let dir = tmp_dir("empty");
        let path = dir.join(segment_file_name(5));
        drop(Wal::create(&dir, 5, 1).unwrap());
        let seg = read(&path);
        assert!(seg.frames.is_empty() && !seg.torn, "header-only segment is valid and empty");
        fs::write(&path, b"not a wal at all").unwrap();
        assert!(read_segment(&path).is_err(), "bad magic is an error, not a torn tail");
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn fsync_every_paces_the_fsyncs() {
        let dir = tmp_dir("cadence");
        let mut wal = Wal::create(&dir, 0, 3).unwrap();
        for seq in 1..=7 {
            append(&mut wal, &frame(seq, 2)).unwrap();
        }
        assert_eq!(wal.fsync_count(), 2, "one fsync per 3 batches");
        wal.sync().unwrap();
        assert_eq!(wal.fsync_count(), 3, "an explicit sync counts");
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn failed_append_poisons_the_log() {
        let dir = tmp_dir("poison");
        let mut wal = Wal::create(&dir, 0, 1).unwrap();
        append(&mut wal, &frame(1, 1)).unwrap();
        {
            let _g = fault::inject(&dir, fault::fail_nth(fault::FaultOp::Fsync, 0));
            let err = append(&mut wal, &frame(2, 1)).unwrap_err();
            assert!(err.to_string().contains("injected fault"), "{err}");
        }
        // the fault is gone, but the log stays unusable
        assert!(wal.poison_reason().is_some_and(|r| r.contains("injected fault")));
        assert!(append(&mut wal, &frame(3, 1)).is_err());
        assert!(wal.sync().is_err() && wal.rotate(3).is_err());
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn rotation_starts_a_fresh_segment() {
        let dir = tmp_dir("rotate");
        let mut wal = Wal::create(&dir, 0, 1).unwrap();
        append(&mut wal, &frame(1, 1)).unwrap();
        wal.rotate(1).unwrap();
        assert_eq!(wal.fsync_count(), 2, "rotation syncs the outgoing segment");
        append(&mut wal, &frame(2, 1)).unwrap();
        let old = read(&dir.join(segment_file_name(0)));
        let new = read(&dir.join(segment_file_name(1)));
        assert_eq!(old.frames.len(), 1);
        assert_eq!(old.frames[0].seq, 1);
        assert_eq!(new.frames.len(), 1);
        assert_eq!(new.frames[0].seq, 2);
        let _ = fs::remove_dir_all(&dir);
    }
}
