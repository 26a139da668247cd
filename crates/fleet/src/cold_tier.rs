//! On-disk cold tier: per-shard append stores for idle series.
//!
//! A series that has seen no point for [`crate::FleetConfig::spill_after`]
//! ticks is *spilled*: its state is serialized (exact-layout series blob,
//! [`crate::codec`]) and appended to this shard's cold file, and the hot
//! entry leaves the registry arena. The next point for that key
//! *rehydrates* it through the normal shard admission path, bit-identical
//! to a series that never left memory. The cold tier exists on a durable
//! engine only ([`crate::FleetEngine::create`]/[`crate::FleetEngine::open`]
//! with `spill_after` set), which opens each shard's store under
//! `<dir>/cold` before that shard's worker starts.
//!
//! A spilled series keeps only its index entry in memory: 24 B in the
//! arena plus 21–43 B of table (16 B buckets at 37.5–75% load). Between
//! snapshot-free waves `BENCH_fleet.json` (1M series, 25k hot) measures
//! 27.5 B of RSS per cold series (the run's table doublings fell elsewhere).
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
//! The index holds no key: the fleet's one open-addressed key index (the
//! shard registry's too) maps a key's stable hash to an id in a flat
//! arena of `{offset, last_seen, frame_len, stale}` entries. Only a hash
//! hit reads the file, to confirm the key from the frame at `offset`; on
//! a mismatch (two keys under one 64-bit hash) the probe continues. TTL
//! expiry reads each expired key from the file to write its tombstone.
//! Ids are stable: compaction rewrites the offsets in place.
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
use crate::key_index::KeyIndex;
use crate::types::SeriesKey;
use std::fmt::Display;
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

/// One indexed record: where a key's current put frame lives. The key
/// itself stays in the file ([`ColdStore::key_at`]).
#[derive(Debug, Clone, Copy)]
struct ColdEntry {
    /// Frame start offset (the `u32 len` field).
    offset: u64,
    /// `last_seen` stored in the record (TTL expiry without decoding the
    /// blob).
    last_seen: u64,
    /// Whole frame length (overhead + payload).
    frame_len: u32,
    /// The key was rehydrated and is hot again; the record is kept only
    /// for crash-replay determinism (see the module docs).
    stale: bool,
}

/// The cold-file name for one shard.
pub fn cold_file_name(shard: usize) -> String {
    format!("cold-{shard:04}.fcold")
}

/// One shard's cold store: an append file plus the in-memory index.
pub struct ColdStore {
    dir: PathBuf,
    path: PathBuf,
    shard: usize,
    file: File,
    /// Append position (logical end of the file).
    end: u64,
    /// Stable hash → id in `entries`; each hit is confirmed against the
    /// key in the file.
    index: KeyIndex,
    /// Indexed records by id; `None` marks a freed id awaiting reuse.
    entries: Vec<Option<ColdEntry>>,
    /// Freed ids available for reuse.
    free: Vec<u32>,
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
    /// Opens (or creates) the cold store for `shard` under `dir` (created
    /// if missing), rebuilding the index by scanning the file. A torn tail
    /// is truncated at the first incomplete or CRC-failing record.
    pub fn open(dir: &Path, shard: usize) -> io::Result<Self> {
        std::fs::create_dir_all(dir)?;
        let path = dir.join(cold_file_name(shard));
        let exists = path.exists();
        if !exists {
            // route creation through the fault seam like every other
            // durability file; the handle is reopened below in append mode
            drop(fault::create_file(&path)?);
        }
        let file = OpenOptions::new().read(true).append(true).open(&path)?;
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
            index: KeyIndex::default(),
            entries: Vec::new(),
            free: Vec::new(),
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
        store.scan()?;
        Ok(store)
    }

    /// Replays the file into the index; truncates a torn tail.
    fn scan(&mut self) -> io::Result<()> {
        // an own handle: confirming a key seeks `self.file`, and a cloned
        // handle would share that cursor
        let mut file = File::open(&self.path)?;
        let file_len = file.metadata()?.len();
        let mut header = [0u8; HEADER_LEN as usize];
        if file_len < HEADER_LEN {
            return Err(invalid("shorter than its header"));
        }
        file.read_exact(&mut header)?;
        let Ok((version, shard)) = parse_header(&header) else {
            return Err(invalid("magic mismatch"));
        };
        if version != FORMAT_VERSION {
            return Err(invalid(format!("version {version} (expected {FORMAT_VERSION})")));
        }
        if shard as usize != self.shard {
            return Err(invalid(format!("belongs to shard {shard}, not {}", self.shard)));
        }
        let mut pos = HEADER_LEN;
        let mut frame = Vec::new();
        loop {
            frame.resize(frame::HEADER, 0);
            if pos + frame::HEADER as u64 > file_len || file.read_exact(&mut frame).is_err() {
                break;
            }
            let len = frame::HEADER + frame::payload_len(&frame);
            let Ok(frame_len) = u32::try_from(len) else { break };
            if pos + len as u64 > file_len {
                break; // torn final record
            }
            frame.resize(len, 0);
            if file.read_exact(&mut frame[frame::HEADER..]).is_err() {
                break;
            }
            let Ok((kind, last_seen, key, _)) = parse_frame(&frame) else { break };
            let key = SeriesKey::new(key);
            let hash = key.stable_hash();
            let id = self.lookup(hash, &key)?;
            let entry = ColdEntry { offset: pos, last_seen, frame_len, stale: false };
            if kind == KIND_PUT {
                self.set(hash, id, entry);
            } else {
                if let Some(id) = id {
                    self.remove(hash, id);
                }
                self.dead_bytes += u64::from(frame_len); // the tombstone itself
            }
            pos += u64::from(frame_len);
        }
        self.end = pos;
        if file_len > pos {
            // torn tail: drop it so a future append never splices into a
            // half-written record
            self.file.set_len(pos)?;
        }
        Ok(())
    }

    /// The id of `key`'s entry (fresh or stale), if indexed. Each hash hit
    /// is confirmed by reading the key back from the file; a failed read
    /// fails the lookup, since it can rule the entry neither in nor out.
    fn lookup(&self, hash: u64, key: &SeriesKey) -> io::Result<Option<u32>> {
        let mut failed = None;
        let id = self.index.find(hash, |id| {
            match self.entries.get(id as usize).copied().flatten().map(|e| self.key_at(&e)) {
                Some(Ok(recorded)) => recorded == key.as_str(),
                Some(Err(e)) => {
                    failed.get_or_insert(e);
                    false
                }
                None => false,
            }
        });
        match (id, failed) {
            (None, Some(e)) => Err(e),
            (id, _) => Ok(id),
        }
    }

    /// Reads `entry`'s whole frame back from the file.
    fn frame_at(&self, entry: &ColdEntry) -> io::Result<Vec<u8>> {
        let mut file = &self.file;
        file.seek(SeekFrom::Start(entry.offset))?;
        let mut frame = vec![0u8; entry.frame_len as usize];
        file.read_exact(&mut frame)?;
        Ok(frame)
    }

    /// The key recorded in `entry`'s frame (CRC-checked).
    fn key_at(&self, entry: &ColdEntry) -> io::Result<String> {
        let frame = self.frame_at(entry)?;
        Ok(parse_frame(&frame).map_err(invalid)?.2.to_owned())
    }

    /// Points the key hashing to `hash` at the put frame `entry`: replaces
    /// its entry `id` ([`ColdStore::lookup`]; the old frame turns dead) or
    /// registers a new id.
    fn set(&mut self, hash: u64, id: Option<u32>, entry: ColdEntry) {
        self.live_bytes += u64::from(entry.frame_len);
        if let Some(id) = id {
            self.retire(id);
            self.entries[id as usize] = Some(entry);
            return;
        }
        let id = match self.free.pop() {
            Some(id) => {
                self.entries[id as usize] = Some(entry);
                id
            }
            None => {
                self.entries.push(Some(entry));
                (self.entries.len() - 1) as u32
            }
        };
        self.index.insert(hash, id);
    }

    /// Empties entry `id`, moving its frame to the dead set.
    fn retire(&mut self, id: u32) -> Option<ColdEntry> {
        let old = self.entries.get_mut(id as usize)?.take()?;
        self.live_bytes -= u64::from(old.frame_len);
        self.dead_bytes += u64::from(old.frame_len);
        if old.stale {
            self.stale -= 1;
        }
        Some(old)
    }

    /// Retires entry `id` (registered under `hash`) and frees the id.
    fn remove(&mut self, hash: u64, id: u32) {
        if self.retire(id).is_some() {
            self.index.remove(hash, id);
            self.free.push(id);
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
        self.lookup(key.stable_hash(), key).is_ok_and(|id| id.is_some())
    }

    /// Appends a put record for `key`. On success the key is fresh in the
    /// index; on error the file may hold a torn record (the open-scan
    /// prefix rule discards it) and the index is unchanged.
    pub fn put(&mut self, key: &SeriesKey, last_seen: u64, blob: &[u8]) -> io::Result<()> {
        let hash = key.stable_hash();
        let id = self.lookup(hash, key)?;
        let frame = encode_frame(KIND_PUT, last_seen, key.as_str(), blob);
        let frame_len = u32::try_from(frame.len()).map_err(|_| invalid("record too long"))?;
        fault::write_all(&mut self.file, &self.path, &frame)?;
        self.set(hash, id, ColdEntry { offset: self.end, last_seen, frame_len, stale: false });
        self.end += frame.len() as u64;
        self.dirty = true;
        Ok(())
    }

    /// Appends a tombstone for `key` if the file holds a record for it
    /// (fresh or stale). Returns whether a tombstone was written.
    pub fn tombstone(&mut self, key: &SeriesKey) -> io::Result<bool> {
        let hash = key.stable_hash();
        let Some(id) = self.lookup(hash, key)? else {
            return Ok(false);
        };
        let frame = encode_frame(KIND_TOMBSTONE, 0, key.as_str(), &[]);
        fault::write_all(&mut self.file, &self.path, &frame)?;
        self.remove(hash, id);
        self.dead_bytes += frame.len() as u64;
        self.end += frame.len() as u64;
        self.dirty = true;
        Ok(true)
    }

    /// Reads the blob of a fresh `key` and flags the entry stale (the
    /// caller is rehydrating it into the registry): one index probe. The
    /// error is [`io::ErrorKind::NotFound`] when the key is not cold (absent,
    /// or stale — it is hot). On a corrupt record the entry is dropped
    /// from the index and the error returned — the caller re-warms the
    /// series.
    pub fn take_blob(&mut self, key: &SeriesKey) -> io::Result<(u64, Vec<u8>)> {
        let hash = key.stable_hash();
        let found = self.lookup(hash, key)?;
        let Some((id, entry)) =
            found.and_then(|id| Some((id, self.entries[id as usize].filter(|e| !e.stale)?)))
        else {
            return Err(io::Error::new(io::ErrorKind::NotFound, "key is not cold-resident"));
        };
        let blob = self.frame_at(&entry).and_then(|frame| match parse_frame(&frame) {
            Ok((KIND_PUT, _, recorded, blob)) if recorded == key.as_str() => Ok(blob.to_vec()),
            Ok(_) => Err(invalid("cold record does not match its index entry")),
            Err(e) => Err(invalid(e)),
        });
        match blob {
            Ok(blob) => {
                self.entries[id as usize] = Some(ColdEntry { stale: true, ..entry });
                self.stale += 1;
                Ok((entry.last_seen, blob))
            }
            Err(e) => {
                // unreadable: keeping it would fail every future attempt
                self.remove(hash, id);
                Err(e)
            }
        }
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
    /// cold half of TTL eviction — in key order, reading each key from the
    /// file. Returns how many expired.
    pub fn expire_idle(&mut self, now: u64, ttl: u64) -> io::Result<usize> {
        let mut expired = Vec::new();
        for e in self.entries.iter().flatten() {
            if !e.stale && now.saturating_sub(e.last_seen) > ttl {
                expired.push(SeriesKey::new(self.key_at(e)?));
            }
        }
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
        let mut moves: Vec<(u64, u32)> = (self.entries.iter().enumerate())
            .filter_map(|(id, e)| Some((e.as_ref()?.offset, id as u32)))
            .collect();
        moves.sort_unstable();
        let tmp = self.dir.join(format!(".{}.tmp", cold_file_name(self.shard)));
        let result = self.compact_into(&tmp, &mut moves);
        if result.is_err() {
            let _ = std::fs::remove_file(&tmp);
        }
        result.map(|()| true)
    }

    /// The fallible body of [`ColdStore::maybe_compact`]: `moves` holds
    /// each live `(offset, id)` in file order, and each offset becomes the
    /// frame's offset in the new file. The index is only touched after the
    /// rename landed, and then only its offsets: ids are stable.
    fn compact_into(&mut self, tmp: &Path, moves: &mut [(u64, u32)]) -> io::Result<()> {
        let mut out = fault::create_file(tmp)?;
        fault::write_all(&mut out, tmp, &header(self.shard))?;
        let mut pos = HEADER_LEN;
        for (offset, id) in moves.iter_mut() {
            let Some(entry) = self.entries[*id as usize] else { continue };
            fault::write_all(&mut out, tmp, &self.frame_at(&entry)?)?;
            *offset = pos;
            pos += u64::from(entry.frame_len);
        }
        fault::sync_all(&out, tmp)?;
        drop(out);
        fault::rename(tmp, &self.path)?;
        fault::sync_dir(&self.dir)?;
        self.file = OpenOptions::new().read(true).append(true).open(&self.path)?;
        for &(offset, id) in moves.iter() {
            if let Some(entry) = &mut self.entries[id as usize] {
                entry.offset = offset;
            }
        }
        self.live_bytes = pos - HEADER_LEN;
        self.dead_bytes = 0;
        self.end = pos;
        self.dirty = false;
        Ok(())
    }
}

/// An [`io::ErrorKind::InvalidData`] error: the file is not what the
/// format promises.
fn invalid(what: impl Display) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, format!("cold file: {what}"))
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
fn encode_frame(kind: u8, last_seen: u64, key: &str, blob: &[u8]) -> Vec<u8> {
    // kind + last_seen + key length, then the key and the blob
    let mut frame = Vec::with_capacity(frame::HEADER + 13 + key.len() + blob.len());
    frame::write(&mut frame, |w| {
        w.u8(kind);
        w.u64(last_seen);
        w.string(key);
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
        assert!(store.has_entry(&key(2)), "a stale key keeps its record");
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
    fn an_entry_is_at_most_24_bytes() {
        // a cold series costs one arena entry plus one index bucket
        assert!(std::mem::size_of::<Option<ColdEntry>>() <= 24);
    }

    #[test]
    fn a_hash_hit_is_confirmed_from_the_file() {
        let dir = test_dir("confirm");
        let mut store = ColdStore::open(&dir, 0).unwrap();
        let (a, b) = (key(0), key(1));
        // ids 0 and 1
        store.put(&b, 1, b"blob-b").unwrap();
        store.put(&a, 2, b"blob-a").unwrap();
        // force a collision: b's id moves under a's hash, ahead of a's own
        // id in the probe chain, so a lookup of `a` meets `b` first
        let (ha, hb) = (a.stable_hash(), b.stable_hash());
        store.index.remove(hb, 0);
        store.index.remove(ha, 1);
        store.index.insert(ha, 0);
        store.index.insert(ha, 1);
        assert_eq!(store.lookup(ha, &a).unwrap(), Some(1), "the mismatch continues the probe");
        assert_eq!(store.lookup(ha, &b).unwrap(), Some(0));
        assert_eq!(store.take_blob(&a).unwrap(), (2, b"blob-a".to_vec()));
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
        assert!(!store.has_entry(&key(0)) && store.has_entry(&key(1)));
        assert_eq!(store.resident(), 1);
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
        assert!(store.has_entry(&key(3)), "the stale entry survives");
        assert!(store.take_blob(&key(3)).is_err_and(|e| e.kind() == io::ErrorKind::NotFound));
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
