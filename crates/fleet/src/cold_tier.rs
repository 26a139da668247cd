//! On-disk cold tier: per-shard append stores for idle series.
//!
//! A series that has seen no point for [`crate::FleetConfig::spill_after`]
//! ticks is *spilled*: its state is serialized (exact-layout series blob,
//! [`crate::codec`]) and appended to this shard's cold file, and the hot
//! entry leaves the registry arena. The next point for that key
//! *rehydrates* it through the normal shard admission path, bit-identical
//! to a series that never left memory. A spilled series' state leaves
//! memory, but its entry in the in-memory index does not: ~115 B per cold
//! series, measured on a snapshot-free spill run. Resident memory
//! therefore tracks the active set *plus* total cold cardinality:
//! `BENCH_fleet.json` grows from 106.9 MiB with no series cold to
//! 396.8 MiB with 975k cold (~310 B per cold series, the index included),
//! at a constant 25k active series. ROADMAP item 13 shrinks the index.
//!
//! ## File format
//!
//! One file per shard, `cold-{shard:04}.fcold`:
//!
//! ```text
//! header   magic b"OSTLCOLD" · u16 version · u32 shard
//! record*  u32 payload_len · u32 crc32(payload) · payload   (crate::frame)
//! payload  u8 kind · u64 last_seen · string key · blob
//! ```
//!
//! Each record is one [`crate::frame`], and the fields follow the snapshot
//! codec conventions (little-endian integers, `u32`-length strings).
//! `kind` 0 is a *put* (the blob fills the rest of the payload), 1 a
//! *tombstone* (no blob). The in-memory index replays the file on open
//! with last-record-wins semantics and truncates a torn tail at the first
//! record that fails its length or CRC check — the same prefix rule the
//! WAL uses.
//!
//! ## Index semantics
//!
//! The index mirrors the **file's** logical content exactly (every key
//! whose last record is a put), because crash recovery re-scans the file
//! and must reconstruct the same mapping. A rehydrated key's record
//! therefore stays in the index, flagged *stale*, until a later spill
//! overwrites it or a TTL eviction tombstones it — deleting it eagerly
//! would make a post-crash WAL replay (which re-reads the record at the
//! original rehydration point) diverge. [`ColdStore::resident`] excludes
//! stale entries, so the gauge counts series that are genuinely cold.
//!
//! ## Compaction
//!
//! When dead bytes (superseded puts, tombstones) outgrow live bytes the
//! store rewrites itself: live records — including stale ones, see
//! above — stream into a temp file which is fsynced and atomically
//! renamed over the original. Compaction never changes the logical
//! key→blob mapping, so it may run at different moments in an original
//! run and its replay without breaking bit-identity.
//!
//! All I/O goes through [`crate::fault`], so injected failures surface as
//! `Err` (the shard degrades: the series stays hot, or re-warms) instead
//! of panicking a worker.

use crate::codec::{Reader, Writer};
use crate::error::CodecError;
use crate::fault;
use crate::frame;
use crate::types::SeriesKey;
use std::collections::HashMap;
use std::fs::{File, OpenOptions};
use std::io::{self, Read as _, Seek as _, SeekFrom};
use std::path::{Path, PathBuf};

/// Cold-file magic bytes.
const MAGIC: &[u8; 8] = b"OSTLCOLD";
/// Cold-file format version.
const FORMAT_VERSION: u16 = 1;
/// Header bytes: magic + version + shard index.
const HEADER_LEN: u64 = 8 + 2 + 4;
/// Record kind: key → blob mapping.
const KIND_PUT: u8 = 0;
/// Record kind: key removed.
const KIND_TOMBSTONE: u8 = 1;
/// Dead bytes below this never trigger a compaction (a rewrite has fixed
/// costs; tiny files are not worth it).
const COMPACT_MIN_DEAD: u64 = 4096;

/// One indexed record: where the key's current put frame lives.
#[derive(Debug, Clone, Copy)]
struct ColdEntry {
    /// Frame start offset (the `u32 len` field).
    offset: u64,
    /// Whole frame length (overhead + payload).
    frame_len: u64,
    /// `last_seen` stored in the record (TTL expiry without decoding the
    /// blob).
    last_seen: u64,
    /// The key was rehydrated and is hot again; the record is kept only
    /// for crash-replay determinism (see the module docs).
    stale: bool,
}

/// The cold-file name for one shard.
pub fn cold_file_name(shard: usize) -> String {
    format!("cold-{shard:04}.fcold")
}

/// One shard's cold store: an append file plus the in-memory key index.
pub struct ColdStore {
    dir: PathBuf,
    path: PathBuf,
    shard: usize,
    file: File,
    /// Append position (logical end of the file).
    end: u64,
    index: HashMap<SeriesKey, ColdEntry>,
    /// Indexed entries currently flagged stale.
    stale: usize,
    /// Frame bytes reachable from the index.
    live_bytes: u64,
    /// Frame bytes superseded (old puts, every tombstone).
    dead_bytes: u64,
    /// Unsynced appends since the last [`ColdStore::sync`].
    dirty: bool,
}

impl ColdStore {
    /// Opens (or creates) the cold store for `shard` under `dir`,
    /// rebuilding the index by scanning the file. A torn tail is truncated
    /// at the first incomplete or CRC-failing record.
    pub fn open(dir: &Path, shard: usize) -> io::Result<Self> {
        let path = dir.join(cold_file_name(shard));
        let exists = path.exists();
        if !exists {
            // route creation through the fault seam like every other
            // durability file; the handle is reopened below in append mode
            drop(fault::create_file(&path)?);
        }
        let mut file = OpenOptions::new().read(true).append(true).open(&path)?;
        // a crash between create and the header write leaves a short stub;
        // re-initialize it instead of rejecting the store
        let fresh = file.metadata()?.len() < HEADER_LEN;
        if fresh && exists {
            file.set_len(0)?;
        }
        let mut store = ColdStore {
            dir: dir.to_path_buf(),
            path,
            shard,
            file,
            end: HEADER_LEN,
            index: HashMap::new(),
            stale: 0,
            live_bytes: 0,
            dead_bytes: 0,
            dirty: false,
        };
        if fresh {
            fault::write_all(&mut store.file, &store.path, &header(shard))?;
            store.dirty = true;
            return Ok(store);
        }
        file = store.file.try_clone()?;
        store.scan(&mut file)?;
        Ok(store)
    }

    /// Replays the file into the index; truncates a torn tail.
    fn scan(&mut self, file: &mut File) -> io::Result<()> {
        file.seek(SeekFrom::Start(0))?;
        let file_len = file.metadata()?.len();
        let mut header = [0u8; HEADER_LEN as usize];
        if file_len < HEADER_LEN {
            return Err(io::Error::new(
                io::ErrorKind::InvalidData,
                "cold file shorter than its header",
            ));
        }
        file.read_exact(&mut header)?;
        let Ok((version, shard)) = parse_header(&header) else {
            return Err(io::Error::new(io::ErrorKind::InvalidData, "cold file magic mismatch"));
        };
        if version != FORMAT_VERSION {
            return Err(io::Error::new(
                io::ErrorKind::InvalidData,
                format!("cold file version {version} (expected {FORMAT_VERSION})"),
            ));
        }
        if shard as usize != self.shard {
            return Err(io::Error::new(
                io::ErrorKind::InvalidData,
                format!("cold file belongs to shard {shard}, not {}", self.shard),
            ));
        }
        let mut pos = HEADER_LEN;
        let mut frame = Vec::new();
        loop {
            frame.resize(frame::HEADER, 0);
            if pos + frame::HEADER as u64 > file_len || file.read_exact(&mut frame).is_err() {
                break;
            }
            let frame_len = (frame::HEADER + frame::payload_len(&frame)) as u64;
            if pos + frame_len > file_len {
                break; // torn final record
            }
            frame.resize(frame_len as usize, 0);
            if file.read_exact(&mut frame[frame::HEADER..]).is_err() {
                break;
            }
            let Ok((kind, last_seen, key, _)) = parse_frame(&frame) else { break };
            let key = SeriesKey::new(key);
            match kind {
                KIND_PUT => {
                    self.supersede(&key);
                    self.index.insert(
                        key,
                        ColdEntry { offset: pos, frame_len, last_seen, stale: false },
                    );
                    self.live_bytes += frame_len;
                }
                _ => {
                    self.supersede(&key);
                    self.dead_bytes += frame_len; // the tombstone itself
                }
            }
            pos += frame_len;
        }
        self.end = pos;
        if file_len > pos {
            // torn tail: drop it so a future append never splices into a
            // half-written record
            self.file.set_len(pos)?;
        }
        Ok(())
    }

    /// Moves `key`'s current entry (if any) to the dead set.
    fn supersede(&mut self, key: &SeriesKey) {
        if let Some(old) = self.index.remove(key) {
            self.live_bytes -= old.frame_len;
            self.dead_bytes += old.frame_len;
            if old.stale {
                self.stale -= 1;
            }
        }
    }

    /// Series resident in the cold tier (indexed and not stale).
    pub fn resident(&self) -> usize {
        self.index.len() - self.stale
    }

    /// True when the file holds a record for `key` (fresh **or** stale) —
    /// the eviction path must tombstone either kind, or a reopen would
    /// resurrect it.
    pub fn has_entry(&self, key: &SeriesKey) -> bool {
        self.index.contains_key(key)
    }

    /// True when `key` is genuinely cold (indexed and not stale) — the
    /// rehydration trigger.
    pub fn is_fresh(&self, key: &SeriesKey) -> bool {
        self.index.get(key).is_some_and(|e| !e.stale)
    }

    /// Appends a put record for `key`. On success the key is fresh in the
    /// index; on error the file may hold a torn record (the open-scan
    /// prefix rule discards it) and the index is unchanged.
    pub fn put(&mut self, key: &SeriesKey, last_seen: u64, blob: &[u8]) -> io::Result<()> {
        let frame = encode_frame(KIND_PUT, last_seen, key, blob);
        fault::write_all(&mut self.file, &self.path, &frame)?;
        self.supersede(key);
        self.index.insert(
            key.clone(),
            ColdEntry {
                offset: self.end,
                frame_len: frame.len() as u64,
                last_seen,
                stale: false,
            },
        );
        self.live_bytes += frame.len() as u64;
        self.end += frame.len() as u64;
        self.dirty = true;
        Ok(())
    }

    /// Appends a tombstone for `key` if the file holds a record for it
    /// (fresh or stale). Returns whether a tombstone was written.
    pub fn tombstone(&mut self, key: &SeriesKey) -> io::Result<bool> {
        if !self.index.contains_key(key) {
            return Ok(false);
        }
        let frame = encode_frame(KIND_TOMBSTONE, 0, key, &[]);
        fault::write_all(&mut self.file, &self.path, &frame)?;
        self.supersede(key);
        self.dead_bytes += frame.len() as u64;
        self.end += frame.len() as u64;
        self.dirty = true;
        Ok(true)
    }

    /// Reads the blob of a fresh `key` and flags the entry stale (the
    /// caller is rehydrating it into the registry). On a corrupt record
    /// the entry is dropped from the index and the error returned — the
    /// caller re-warms the series.
    pub fn take_blob(&mut self, key: &SeriesKey) -> io::Result<(u64, Vec<u8>)> {
        let entry = *self.index.get(key).filter(|e| !e.stale).ok_or_else(|| {
            io::Error::new(io::ErrorKind::NotFound, "key is not cold-resident")
        })?;
        match self.read_put_frame(entry.offset, entry.frame_len, key) {
            Ok(blob) => {
                let e = self.index.get_mut(key).expect("entry checked above");
                e.stale = true;
                self.stale += 1;
                Ok((entry.last_seen, blob))
            }
            Err(e) => {
                // unreadable: keeping it would fail every future attempt
                self.supersede(key);
                Err(e)
            }
        }
    }

    /// Reads and CRC-verifies one put frame, returning its blob bytes.
    fn read_put_frame(
        &mut self,
        offset: u64,
        frame_len: u64,
        key: &SeriesKey,
    ) -> io::Result<Vec<u8>> {
        self.file.seek(SeekFrom::Start(offset))?;
        let mut frame = vec![0u8; frame_len as usize];
        self.file.read_exact(&mut frame)?;
        let corrupt =
            |e| io::Error::new(io::ErrorKind::InvalidData, format!("cold record: {e}"));
        let (kind, _, recorded_key, blob) = parse_frame(&frame).map_err(corrupt)?;
        if kind != KIND_PUT || recorded_key != key.as_str() {
            return Err(corrupt(CodecError::Invalid("does not match its index entry")));
        }
        Ok(blob.to_vec())
    }

    /// Flushes appended records to stable storage (no-op when clean).
    pub fn sync(&mut self) -> io::Result<()> {
        if self.dirty {
            fault::sync_data(&self.file, &self.path)?;
            self.dirty = false;
        }
        Ok(())
    }

    /// Tombstones fresh entries idle beyond `ttl` at clock `now` — the
    /// cold half of TTL eviction. Returns how many expired.
    pub fn expire_idle(&mut self, now: u64, ttl: u64) -> io::Result<usize> {
        let mut expired: Vec<SeriesKey> = self
            .index
            .iter()
            .filter(|(_, e)| !e.stale && now.saturating_sub(e.last_seen) > ttl)
            .map(|(k, _)| k.clone())
            .collect();
        expired.sort();
        let n = expired.len();
        for key in expired {
            self.tombstone(&key)?;
        }
        Ok(n)
    }

    /// Rewrites the file without dead bytes when they outgrow the live
    /// set. Logical content (including stale flags) is preserved exactly;
    /// the swap is temp-file → fsync → atomic rename → directory fsync.
    /// Returns whether a rewrite ran. On error the original file and
    /// index are untouched.
    pub fn maybe_compact(&mut self) -> io::Result<bool> {
        if self.dead_bytes < self.live_bytes.max(COMPACT_MIN_DEAD) {
            return Ok(false);
        }
        // stream entries in file order (sequential reads of the old file)
        let mut entries: Vec<(SeriesKey, ColdEntry)> =
            self.index.iter().map(|(k, e)| (k.clone(), *e)).collect();
        entries.sort_by_key(|(_, e)| e.offset);
        let tmp = self.dir.join(format!(".{}.tmp", cold_file_name(self.shard)));
        let result = self.compact_into(&tmp, &entries);
        if result.is_err() {
            let _ = std::fs::remove_file(&tmp);
        }
        result.map(|()| true)
    }

    /// The fallible body of [`ColdStore::maybe_compact`]: state is only
    /// mutated after the rename landed.
    fn compact_into(
        &mut self,
        tmp: &Path,
        entries: &[(SeriesKey, ColdEntry)],
    ) -> io::Result<()> {
        let mut out = fault::create_file(tmp)?;
        fault::write_all(&mut out, tmp, &header(self.shard))?;
        let mut new_index: HashMap<SeriesKey, ColdEntry> = HashMap::new();
        let mut pos = HEADER_LEN;
        let mut frame = Vec::new();
        for (key, entry) in entries {
            self.file.seek(SeekFrom::Start(entry.offset))?;
            frame.resize(entry.frame_len as usize, 0);
            self.file.read_exact(&mut frame)?;
            fault::write_all(&mut out, tmp, &frame)?;
            new_index.insert(key.clone(), ColdEntry { offset: pos, ..*entry });
            pos += entry.frame_len;
        }
        fault::sync_all(&out, tmp)?;
        drop(out);
        fault::rename(tmp, &self.path)?;
        fault::sync_dir(&self.dir)?;
        self.file = OpenOptions::new().read(true).append(true).open(&self.path)?;
        self.index = new_index;
        self.live_bytes = pos - HEADER_LEN;
        self.dead_bytes = 0;
        self.end = pos;
        self.dirty = false;
        Ok(())
    }
}

/// The cold-file header of `shard`.
fn header(shard: usize) -> Vec<u8> {
    let mut w = Writer::default();
    w.bytes(MAGIC);
    w.u16(FORMAT_VERSION);
    w.u32(shard as u32);
    w.buf
}

/// Reads a [`header`] back as `(version, shard)`.
fn parse_header(bytes: &[u8]) -> Result<(u16, u32), CodecError> {
    let mut r = Reader { data: bytes, pos: 0 };
    if r.take(8)? != MAGIC {
        return Err(CodecError::BadMagic);
    }
    Ok((r.u16()?, r.u32()?))
}

/// Builds one framed record.
fn encode_frame(kind: u8, last_seen: u64, key: &SeriesKey, blob: &[u8]) -> Vec<u8> {
    // kind + last_seen + key length, then the key and the blob
    let mut frame = Vec::with_capacity(frame::HEADER + 13 + key.as_str().len() + blob.len());
    frame::write(&mut frame, |w| {
        w.u8(kind);
        w.u64(last_seen);
        w.string(key.as_str());
        w.bytes(blob);
    });
    frame
}

/// Checks one whole frame and parses its payload into `(kind, last_seen,
/// key, blob)`; an error on any structural violation (corruption).
fn parse_frame(frame: &[u8]) -> Result<(u8, u64, &str, &[u8]), CodecError> {
    let payload = match frame::cut(frame, usize::MAX)? {
        Some((payload, used)) if used == frame.len() => payload,
        _ => return Err(CodecError::Invalid("frame length")),
    };
    let mut r = Reader { data: payload, pos: 0 };
    let (kind, last_seen, key) = (r.u8()?, r.u64()?, r.string()?);
    let blob = &payload[r.pos..];
    match kind {
        KIND_PUT => Ok((kind, last_seen, key, blob)),
        KIND_TOMBSTONE if blob.is_empty() => Ok((kind, last_seen, key, blob)),
        _ => Err(CodecError::Invalid("cold record kind")),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fault::FaultOp;

    fn test_dir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("cold-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    fn key(i: usize) -> SeriesKey {
        SeriesKey::new(format!("series/{i}"))
    }

    #[test]
    fn puts_tombstones_and_reopen_agree() {
        let dir = test_dir("roundtrip");
        let mut store = ColdStore::open(&dir, 3).unwrap();
        for i in 0..5 {
            store.put(&key(i), 100 + i as u64, format!("blob-{i}").as_bytes()).unwrap();
        }
        store.put(&key(2), 900, b"blob-2-v2").unwrap(); // overwrite
        assert!(store.tombstone(&key(4)).unwrap());
        assert!(!store.tombstone(&key(99)).unwrap(), "absent key: no record written");
        store.sync().unwrap();
        assert_eq!(store.resident(), 4);
        let (seen, blob) = store.take_blob(&key(2)).unwrap();
        assert_eq!((seen, blob.as_slice()), (900, b"blob-2-v2".as_slice()));
        assert_eq!(store.resident(), 3, "a taken key is stale, not resident");
        assert!(store.has_entry(&key(2)) && !store.is_fresh(&key(2)));
        assert!(
            store.take_blob(&key(2)).is_err(),
            "a stale key cannot be taken again (it is hot)"
        );
        drop(store);
        // reopen: the index mirrors the file, so the taken key is fresh
        // again (crash replay re-reads it at the original rehydration)
        let mut reopened = ColdStore::open(&dir, 3).unwrap();
        assert_eq!(reopened.resident(), 4);
        assert!(!reopened.has_entry(&key(4)), "tombstone survived reopen");
        let (seen, blob) = reopened.take_blob(&key(2)).unwrap();
        assert_eq!((seen, blob.as_slice()), (900, b"blob-2-v2".as_slice()));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn torn_tail_is_truncated_on_open() {
        let dir = test_dir("torn");
        let mut store = ColdStore::open(&dir, 0).unwrap();
        store.put(&key(0), 1, b"good").unwrap();
        store.put(&key(1), 2, b"going").unwrap();
        store.sync().unwrap();
        let intact_end = store.end;
        drop(store);
        let path = dir.join(cold_file_name(0));
        // append half a record: a frame header promising more than exists
        let mut f = OpenOptions::new().append(true).open(&path).unwrap();
        std::io::Write::write_all(&mut f, &[200, 0, 0, 0, 9, 9, 9, 9, 1, 2]).unwrap();
        drop(f);
        let store = ColdStore::open(&dir, 0).unwrap();
        assert_eq!(store.resident(), 2, "intact prefix survives");
        assert_eq!(store.end, intact_end);
        assert_eq!(
            std::fs::metadata(&path).unwrap().len(),
            intact_end,
            "torn bytes are physically dropped"
        );
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn expire_tombstones_idle_entries() {
        let dir = test_dir("expire");
        let mut store = ColdStore::open(&dir, 0).unwrap();
        store.put(&key(0), 10, b"old").unwrap();
        store.put(&key(1), 90, b"recent").unwrap();
        assert_eq!(store.expire_idle(100, 50).unwrap(), 1);
        assert!(!store.has_entry(&key(0)) && store.is_fresh(&key(1)));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn compaction_drops_dead_bytes_and_preserves_content() {
        let dir = test_dir("compact");
        let mut store = ColdStore::open(&dir, 7).unwrap();
        let big = vec![0xAB; 2048];
        for round in 0..4 {
            for i in 0..4 {
                store.put(&key(i), round, &big).unwrap();
            }
        }
        store.take_blob(&key(3)).unwrap(); // stale entries must survive
        let before = std::fs::metadata(dir.join(cold_file_name(7))).unwrap().len();
        assert!(store.maybe_compact().unwrap(), "3/4 of the file is dead");
        let after = std::fs::metadata(dir.join(cold_file_name(7))).unwrap().len();
        assert!(after < before / 2, "rewrite shed the dead bytes ({before} -> {after})");
        assert_eq!(store.resident(), 3);
        assert!(store.has_entry(&key(3)) && !store.is_fresh(&key(3)));
        let (seen, blob) = store.take_blob(&key(0)).unwrap();
        assert_eq!((seen, blob), (3, big.clone()));
        assert!(!store.maybe_compact().unwrap(), "nothing dead after a rewrite");
        // appends keep working against the swapped file handle
        store.put(&key(9), 5, b"fresh").unwrap();
        drop(store);
        let reopened = ColdStore::open(&dir, 7).unwrap();
        assert_eq!(reopened.resident(), 5, "stale flags reset on reopen (file truth)");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn injected_write_failure_leaves_the_index_unchanged() {
        let dir = test_dir("fault");
        let mut store = ColdStore::open(&dir, 0).unwrap();
        store.put(&key(0), 1, b"ok").unwrap();
        {
            let _g = fault::inject(&dir, fault::enospc(FaultOp::Write));
            assert_eq!(store.put(&key(1), 2, b"fails").unwrap_err().raw_os_error(), Some(28));
        }
        assert!(!store.has_entry(&key(1)));
        assert_eq!(store.resident(), 1);
        // the seam healed: subsequent puts land
        store.put(&key(1), 3, b"lands").unwrap();
        assert_eq!(store.resident(), 2);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn failed_compaction_keeps_the_original_file() {
        let dir = test_dir("compact-fault");
        let mut store = ColdStore::open(&dir, 0).unwrap();
        let big = vec![7u8; 2048];
        for round in 0..4 {
            for i in 0..3 {
                store.put(&key(i), round, &big).unwrap();
            }
        }
        {
            let _g = fault::inject(&dir, fault::enospc(FaultOp::Rename));
            assert!(store.maybe_compact().is_err());
        }
        assert_eq!(store.resident(), 3, "index untouched by the failed rewrite");
        let (_, blob) = store.take_blob(&key(1)).unwrap();
        assert_eq!(blob, big);
        assert!(
            !dir.join(format!(".{}.tmp", cold_file_name(0))).exists(),
            "aborted temp file is removed"
        );
        let _ = std::fs::remove_dir_all(&dir);
    }
}
