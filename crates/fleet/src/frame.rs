//! The one frame every byte boundary of the fleet shares: WAL records
//! ([`crate::wal`]), cold-tier records ([`crate::cold_tier`]) and wire
//! messages ([`crate::net`]).
//!
//! ```text
//! frame = u32 payload_len · u32 crc32(payload) · payload
//! ```
//!
//! Both header fields are little-endian, like every payload field
//! ([`crate::codec`]'s conventions). `write` is the only code that lays
//! out a header and `cut` the only code that checks one: a length of 0 or
//! above the caller's cap, or a CRC mismatch, is a typed [`CodecError`]
//! before any payload byte is parsed. The snapshot file keeps its own
//! `u64 len · u32 crc32` header ([`crate::persist`]) and takes only
//! [`crc32`] from here.

use crate::codec::Writer;
use crate::error::CodecError;

/// Header bytes in front of every payload: length + CRC.
pub(crate) const HEADER: usize = 8;

/// Lays out one frame in `buf` (cleared first; its capacity is reused):
/// `payload` writes the payload, then the header is backfilled over it.
pub(crate) fn write(buf: &mut Vec<u8>, payload: impl FnOnce(&mut Writer)) {
    let mut w = Writer { buf: std::mem::take(buf) };
    w.buf.clear();
    w.buf.extend_from_slice(&[0; HEADER]);
    payload(&mut w);
    let len = (w.buf.len() - HEADER) as u32;
    let crc = crc32(&w.buf[HEADER..]);
    w.buf[..4].copy_from_slice(&len.to_le_bytes());
    w.buf[4..HEADER].copy_from_slice(&crc.to_le_bytes());
    *buf = w.buf;
}

/// Cuts the first frame off `buf`: `Ok(Some((payload, used)))` with `used`
/// the whole frame's length, `Ok(None)` while `buf` holds only a prefix of
/// one, [`CodecError::Invalid`]`("frame length")` for a length of 0 or
/// above `max` (checked before the payload need be present, so a hostile
/// length never waits for or allocates its bytes), and
/// [`CodecError::Invalid`]`("frame checksum")` for a CRC mismatch.
pub(crate) fn cut(buf: &[u8], max: usize) -> Result<Option<(&[u8], usize)>, CodecError> {
    let Some(header) = buf.get(..HEADER) else { return Ok(None) };
    let len = payload_len(header);
    if len == 0 || len > max {
        return Err(CodecError::Invalid("frame length"));
    }
    let Some(payload) = buf.get(HEADER..HEADER + len) else { return Ok(None) };
    if crc32(payload) != u32::from_le_bytes(header[4..HEADER].try_into().unwrap()) {
        return Err(CodecError::Invalid("frame checksum"));
    }
    Ok(Some((payload, HEADER + len)))
}

/// The payload length a frame header declares, unchecked — for a reader
/// that pulls one frame at a time off a file and must know how many bytes
/// to read before it can [`cut`] them.
pub(crate) fn payload_len(header: &[u8]) -> usize {
    u32::from_le_bytes(header[..4].try_into().unwrap()) as usize
}

/// CRC-32 (IEEE 802.3, the zlib polynomial) over `bytes`.
pub fn crc32(bytes: &[u8]) -> u32 {
    static TABLE: [u32; 256] = crc32_table();
    let mut crc = 0xFFFF_FFFFu32;
    for &b in bytes {
        crc = (crc >> 8) ^ TABLE[((crc ^ u32::from(b)) & 0xFF) as usize];
    }
    !crc
}

const fn crc32_table() -> [u32; 256] {
    let mut table = [0u32; 256];
    let mut i = 0;
    while i < 256 {
        let mut c = i as u32;
        let mut k = 0;
        while k < 8 {
            c = if c & 1 != 0 { 0xEDB8_8320 ^ (c >> 1) } else { c >> 1 };
            k += 1;
        }
        table[i] = c;
        i += 1;
    }
    table
}
