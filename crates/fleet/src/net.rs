//! Binary TCP ingest frontend.
//!
//! Exposes a running [`FleetEngine`] over a socket so producers in other
//! processes (or other hosts) can feed it without linking the crate. Every
//! message is one [`crate::frame`], the length-prefixed CRC32-checked frame
//! the WAL and the cold tier write too, so the untrusted byte boundaries of
//! the crate (disk and network) share one frame writer, one frame reader
//! and one checksum. An `IngestBatch` body is the WAL's record list,
//! written and read by the same code.
//!
//! ## Protocol
//!
//! A connection opens with a 10-byte hello in each direction — the
//! [`NET_MAGIC`] followed by the little-endian [`NET_VERSION`] — client
//! first, server echoing after validation. Every subsequent message, in
//! either direction, is one frame:
//!
//! ```text
//! u32 payload_len · u32 crc32(payload) · payload   (crate::frame)
//! payload = u8 message type · body (see NetMessage)
//! ```
//!
//! Requests are [`NetMessage::IngestBatch`], [`NetMessage::Forecast`],
//! [`NetMessage::Stats`], and [`NetMessage::SetAdmitOptions`]; each gets
//! exactly one reply frame, in request order. Ingest replies are
//! pipelined: the server answers a batch with [`NetMessage::Scored`]
//! *lazily* — while more request bytes are already buffered on the
//! socket it keeps submitting (up to a bounded in-flight window) and
//! flushes replies when the socket goes quiet, when a non-ingest request
//! needs the line, or when the window fills. A full shard queue under
//! [`crate::QueuePolicy::Reject`] surfaces as a typed
//! [`NetMessage::Backpressure`] reply rather than a torn connection.
//!
//! A dead shard worker answers the batches it took down with
//! [`NetMessage::Error`] frames, one per batch, and the server keeps
//! serving once the engine is usable again: a plain engine respawns the
//! worker, and a durable one under [`crate::DurabilityPolicy::Degrade`]
//! recovers from disk in place. Its recovered `points` count in
//! [`NetMessage::Stats`] tells the client where to resume. Only a
//! poisoned engine (`CrashStop`, or a failed recovery) stops the server.
//!
//! Frame decoding never trusts the peer: length caps before allocation,
//! CRC before parsing, and typed [`CodecError`]s for truncated, corrupt,
//! or trailing bytes (property-tested alongside the snapshot codec).
//!
//! ## Quick start
//!
//! ```
//! use fleet::{FleetConfig, FleetEngine, NetClient, NetServer, Record};
//!
//! let engine = FleetEngine::new(FleetConfig::fixed_period(24)).unwrap();
//! let server = NetServer::serve("127.0.0.1:0", engine).unwrap();
//! let mut client = NetClient::connect(server.local_addr()).unwrap();
//! let scored = client
//!     .ingest(vec![Record::new("host-1/cpu", 0, 1.0)])
//!     .unwrap();
//! assert_eq!(scored.len(), 1);
//! server.shutdown();
//! ```

use std::collections::VecDeque;
use std::fmt;
use std::io::{self, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread;
use std::time::{Duration, Instant};

use crate::codec::{decode_admit_options, encode_admit_options, Reader, Writer};
use crate::config::AdmitOptions;
use crate::engine::FleetEngine;
use crate::error::{CodecError, FleetError};
use crate::frame;
use crate::types::{FleetStats, PointOutput, Record, ScoredPoint, SeriesKey, ShardStats};
use tskit::series::DecompPoint;

/// Magic bytes opening the connection hello (and nothing else — frames
/// themselves are unmarked, the hello authenticates the stream).
pub const NET_MAGIC: [u8; 8] = *b"OSTLFNET";

/// Wire protocol version, bumped on any frame-format change. v3: the
/// [`NetMessage::SetAdmitOptions`] body carries [`crate::ForecastOptions`]
/// without the retired error-tracker fields (the layout of snapshot codec
/// v13, unchanged in v14, whose changes are to live series state only; a
/// v12-layout override is refused).
pub const NET_VERSION: u16 = 3;

/// Upper bound on a frame's payload length (64 MiB). A length prefix
/// beyond this is rejected before any allocation happens — the first
/// line of defense against a corrupt or hostile peer.
pub const MAX_FRAME: usize = 1 << 26;

/// How many ingest batches the server keeps in flight per connection
/// before it stops reading and flushes replies.
const SERVER_WINDOW: usize = 8;

/// How long [`NetClient`] waits for a reply before it gives up on the
/// server with [`NetError::Io`]: generous, since a reply can wait behind
/// a shard recovering from disk, but finite, so a silent server fails the
/// call instead of hanging it. Unit tests wait a fraction of a second.
const REPLY_TIMEOUT: Duration =
    if cfg!(test) { Duration::from_millis(300) } else { Duration::from_secs(60) };

/// How many ingest batches [`NetClient::submit`] pipelines before it
/// blocks on a reply. Kept below the server's window so the two sides
/// never deadlock with both waiting to write.
const CLIENT_WINDOW: usize = 4;

// -------------------------------------------------------------------------
// messages
// -------------------------------------------------------------------------

/// One frame of the network protocol — requests (client → server) and
/// replies (server → client) share the message space; their type tags are
/// disjoint (requests < 128, replies ≥ 128).
#[derive(Debug, Clone, PartialEq)]
pub enum NetMessage {
    /// Ingest a batch of records (reply: [`NetMessage::Scored`], or
    /// [`NetMessage::Backpressure`] / [`NetMessage::Error`]).
    IngestBatch(Vec<Record>),
    /// Forecast `1..=horizon` steps ahead for each key (reply:
    /// [`NetMessage::ForecastReply`]).
    Forecast {
        /// The series to forecast.
        keys: Vec<SeriesKey>,
        /// Steps ahead.
        horizon: u32,
    },
    /// Fetch engine statistics (reply: [`NetMessage::StatsReply`]).
    Stats,
    /// Register per-series admission overrides (reply:
    /// [`NetMessage::Done`] or [`NetMessage::Error`]).
    SetAdmitOptions {
        /// The series to tune.
        key: SeriesKey,
        /// The overrides (see [`AdmitOptions`]); encoded with the same
        /// codec the snapshot format uses.
        opts: AdmitOptions,
    },
    /// Reply: one [`ScoredPoint`] per record of the answered batch, in
    /// batch order.
    Scored(Vec<ScoredPoint>),
    /// Reply: one slot per requested key, in request order.
    ForecastReply(Vec<Option<Vec<f64>>>),
    /// Reply: aggregate + per-shard statistics.
    StatsReply(FleetStats),
    /// Reply: acknowledged, nothing to return.
    Done,
    /// Reply: the batch was rejected whole — a shard queue was full under
    /// [`crate::QueuePolicy::Reject`]. Nothing was applied or logged;
    /// resubmit after backing off.
    Backpressure {
        /// The shard whose queue was full.
        shard: u32,
    },
    /// Reply: the request failed (message carries the engine error text).
    /// The connection stays open unless the failure poisoned the engine.
    Error(String),
}

const T_INGEST: u8 = 1;
const T_FORECAST: u8 = 2;
const T_STATS: u8 = 3;
const T_ADMIT: u8 = 4;
const T_SCORED: u8 = 128;
const T_FORECAST_R: u8 = 129;
const T_STATS_R: u8 = 130;
const T_DONE: u8 = 131;
const T_BACKPRESSURE: u8 = 133;
const T_ERROR: u8 = 134;

// -------------------------------------------------------------------------
// frame codec
// -------------------------------------------------------------------------

/// The 10-byte connection hello: [`NET_MAGIC`] then [`NET_VERSION`].
pub fn hello_bytes() -> [u8; 10] {
    let mut w = Writer::default();
    w.bytes(&NET_MAGIC);
    w.u16(NET_VERSION);
    w.buf.try_into().expect("magic + version is 10 bytes")
}

/// Validates a peer's hello: wrong magic is [`CodecError::BadMagic`], a
/// version this build does not speak is
/// [`CodecError::UnsupportedVersion`].
pub fn check_hello(bytes: &[u8; 10]) -> Result<(), CodecError> {
    let mut r = Reader { data: bytes, pos: 0 };
    if r.take(8)? != NET_MAGIC {
        return Err(CodecError::BadMagic);
    }
    let v = r.u16()?;
    if v != NET_VERSION {
        return Err(CodecError::UnsupportedVersion(v));
    }
    Ok(())
}

/// Encodes one message as a complete frame in `buf` (which is cleared
/// first — the out-param shape lets a connection reuse one allocation
/// across frames, like the WAL's record encoder).
pub fn encode_frame_into(buf: &mut Vec<u8>, msg: &NetMessage) {
    frame::write(buf, |w| encode_body(w, msg));
}

/// Encodes one message as a complete frame.
pub fn encode_frame(msg: &NetMessage) -> Vec<u8> {
    let mut buf = Vec::new();
    encode_frame_into(&mut buf, msg);
    buf
}

/// Decodes the first frame of `buf`, if one is complete.
///
/// Returns `Ok(None)` when `buf` holds only a prefix of a frame (read
/// more bytes and retry — the streaming contract), `Ok(Some((msg,
/// consumed)))` on success, and a typed [`CodecError`] when the bytes can
/// never become a valid frame: an oversized or zero length prefix, a CRC
/// mismatch, an unknown message type, or a payload whose body does not
/// exactly fill its declared length.
pub fn decode_frame(buf: &[u8]) -> Result<Option<(NetMessage, usize)>, CodecError> {
    let Some((payload, used)) = frame::cut(buf, MAX_FRAME)? else { return Ok(None) };
    let mut r = Reader { data: payload, pos: 0 };
    let msg = decode_body(&mut r)?;
    if r.pos != payload.len() {
        return Err(CodecError::Invalid("frame payload length"));
    }
    Ok(Some((msg, used)))
}

/// Strict single-frame decode: `buf` must hold exactly one complete
/// frame. A prefix is [`CodecError::Truncated`]; bytes past the frame are
/// rejected. This is the property-test surface — the streaming decoder
/// ([`decode_frame`]) answers "wait for more" where this answers with the
/// typed error.
pub fn decode_frame_exact(buf: &[u8]) -> Result<NetMessage, CodecError> {
    match decode_frame(buf)? {
        None => Err(CodecError::Truncated),
        Some((_, used)) if used != buf.len() => {
            Err(CodecError::Invalid("bytes after the frame"))
        }
        Some((msg, _)) => Ok(msg),
    }
}

fn encode_body(w: &mut Writer, msg: &NetMessage) {
    match msg {
        NetMessage::IngestBatch(records) => {
            w.u8(T_INGEST);
            w.records(records);
        }
        NetMessage::Forecast { keys, horizon } => {
            w.u8(T_FORECAST);
            w.u32(*horizon);
            w.u32(keys.len() as u32);
            for key in keys {
                w.string(key.as_str());
            }
        }
        NetMessage::Stats => w.u8(T_STATS),
        NetMessage::SetAdmitOptions { key, opts } => {
            w.u8(T_ADMIT);
            w.string(key.as_str());
            encode_admit_options(w, opts);
        }
        NetMessage::Scored(points) => {
            w.u8(T_SCORED);
            w.u32(points.len() as u32);
            for p in points {
                w.u64(p.t);
                w.f64(p.value);
                w.string(p.key.as_str());
                encode_output(w, &p.output);
            }
        }
        NetMessage::ForecastReply(slots) => {
            w.u8(T_FORECAST_R);
            w.u32(slots.len() as u32);
            for slot in slots {
                match slot {
                    None => w.u8(0),
                    Some(fc) => {
                        w.u8(1);
                        w.u32(fc.len() as u32);
                        for &v in fc {
                            w.f64(v);
                        }
                    }
                }
            }
        }
        NetMessage::StatsReply(stats) => {
            w.u8(T_STATS_R);
            encode_stats(w, stats);
        }
        NetMessage::Done => w.u8(T_DONE),
        NetMessage::Backpressure { shard } => {
            w.u8(T_BACKPRESSURE);
            w.u32(*shard);
        }
        NetMessage::Error(msg) => {
            w.u8(T_ERROR);
            w.string(msg);
        }
    }
}

fn decode_body(r: &mut Reader<'_>) -> Result<NetMessage, CodecError> {
    match r.u8()? {
        T_INGEST => Ok(NetMessage::IngestBatch(r.records()?)),
        T_FORECAST => {
            let horizon = r.u32()?;
            let n = r.count(4)?;
            let mut keys = Vec::with_capacity(n);
            for _ in 0..n {
                keys.push(SeriesKey::new(r.string()?));
            }
            Ok(NetMessage::Forecast { keys, horizon })
        }
        T_STATS => Ok(NetMessage::Stats),
        T_ADMIT => {
            let key = SeriesKey::new(r.string()?);
            let opts = decode_admit_options(r)?;
            Ok(NetMessage::SetAdmitOptions { key, opts })
        }
        T_SCORED => {
            // u64 t + f64 value + u32 key length + u8 output tag
            let n = r.count(21)?;
            let mut points = Vec::with_capacity(n);
            for _ in 0..n {
                let t = r.u64()?;
                let value = r.f64()?;
                let key = SeriesKey::new(r.string()?);
                let output = decode_output(r)?;
                points.push(ScoredPoint { key, t, value, output });
            }
            Ok(NetMessage::Scored(points))
        }
        T_FORECAST_R => {
            let n = r.count(1)?;
            let mut slots = Vec::with_capacity(n);
            for _ in 0..n {
                slots.push(match r.u8()? {
                    0 => None,
                    1 => {
                        let m = r.count(8)?;
                        let mut fc = Vec::with_capacity(m);
                        for _ in 0..m {
                            fc.push(r.f64()?);
                        }
                        Some(fc)
                    }
                    _ => return Err(CodecError::Invalid("option tag")),
                });
            }
            Ok(NetMessage::ForecastReply(slots))
        }
        T_STATS_R => Ok(NetMessage::StatsReply(decode_stats(r)?)),
        T_DONE => Ok(NetMessage::Done),
        T_BACKPRESSURE => Ok(NetMessage::Backpressure { shard: r.u32()? }),
        T_ERROR => Ok(NetMessage::Error(r.string()?.to_string())),
        _ => Err(CodecError::Invalid("message type")),
    }
}

fn encode_output(w: &mut Writer, output: &PointOutput) {
    match output {
        PointOutput::Warming { buffered, needed } => {
            w.u8(0);
            w.u64(*buffered as u64);
            match needed {
                None => w.u8(0),
                Some(n) => {
                    w.u8(1);
                    w.u64(*n as u64);
                }
            }
        }
        PointOutput::Scored { point, score, is_anomaly } => {
            w.u8(1);
            w.f64(point.trend);
            w.f64(point.seasonal);
            w.f64(point.residual);
            w.f64(*score);
            w.u8(u8::from(*is_anomaly));
        }
        PointOutput::Rejected => w.u8(2),
        PointOutput::Quarantined => w.u8(3),
    }
}

fn decode_output(r: &mut Reader<'_>) -> Result<PointOutput, CodecError> {
    match r.u8()? {
        0 => {
            let buffered = r.u64()? as usize;
            let needed = match r.u8()? {
                0 => None,
                1 => Some(r.u64()? as usize),
                _ => return Err(CodecError::Invalid("option tag")),
            };
            Ok(PointOutput::Warming { buffered, needed })
        }
        1 => {
            let point = DecompPoint { trend: r.f64()?, seasonal: r.f64()?, residual: r.f64()? };
            let score = r.f64()?;
            let is_anomaly = match r.u8()? {
                0 => false,
                1 => true,
                _ => return Err(CodecError::Invalid("bool tag")),
            };
            Ok(PointOutput::Scored { point, score, is_anomaly })
        }
        2 => Ok(PointOutput::Rejected),
        3 => Ok(PointOutput::Quarantined),
        _ => Err(CodecError::Invalid("output tag")),
    }
}

fn encode_stats(w: &mut Writer, s: &FleetStats) {
    w.u64(s.live as u64);
    w.u64(s.warming as u64);
    w.u64(s.rejected as u64);
    w.u64(s.quarantined as u64);
    w.u64(s.evicted);
    w.u64(s.admitted);
    w.u64(s.points);
    w.u64(s.anomalies);
    w.u64(s.shift_searches);
    w.u64(s.shift_trials);
    w.u64(s.z_alarms);
    w.u64(s.cusum_alarms);
    w.u64(s.forecast_alarms);
    w.u64(s.trend_alarms);
    w.u64(s.wal_retries);
    w.u64(s.shard_restarts);
    w.u64(s.undurable_batches);
    w.u64(s.cold_resident as u64);
    w.u64(s.spills);
    w.u64(s.rehydrations);
    w.u64(s.cold_errors);
    w.u32(s.shards.len() as u32);
    for sh in &s.shards {
        w.u32(sh.shard as u32);
        w.u64(sh.live as u64);
        w.u64(sh.warming as u64);
        w.u64(sh.rejected as u64);
        w.u64(sh.quarantined as u64);
        w.u64(sh.queue_depth as u64);
        w.u64(sh.evicted);
        w.u64(sh.admitted);
        w.u64(sh.points);
        w.u64(sh.anomalies);
        w.u64(sh.shift_searches);
        w.u64(sh.shift_trials);
        w.u64(sh.z_alarms);
        w.u64(sh.cusum_alarms);
        w.u64(sh.forecast_alarms);
        w.u64(sh.trend_alarms);
        w.u64(sh.cold_resident as u64);
        w.u64(sh.spills);
        w.u64(sh.rehydrations);
        w.u64(sh.cold_errors);
    }
}

fn decode_stats(r: &mut Reader<'_>) -> Result<FleetStats, CodecError> {
    let mut s = FleetStats {
        live: r.u64()? as usize,
        warming: r.u64()? as usize,
        rejected: r.u64()? as usize,
        quarantined: r.u64()? as usize,
        evicted: r.u64()?,
        admitted: r.u64()?,
        points: r.u64()?,
        anomalies: r.u64()?,
        shift_searches: r.u64()?,
        shift_trials: r.u64()?,
        z_alarms: r.u64()?,
        cusum_alarms: r.u64()?,
        forecast_alarms: r.u64()?,
        trend_alarms: r.u64()?,
        wal_retries: r.u64()?,
        shard_restarts: r.u64()?,
        undurable_batches: r.u64()?,
        cold_resident: r.u64()? as usize,
        spills: r.u64()?,
        rehydrations: r.u64()?,
        cold_errors: r.u64()?,
        shards: Vec::new(),
    };
    // u32 shard + 19 × u64
    let n = r.count(156)?;
    s.shards.reserve(n);
    for _ in 0..n {
        s.shards.push(ShardStats {
            shard: r.u32()? as usize,
            live: r.u64()? as usize,
            warming: r.u64()? as usize,
            rejected: r.u64()? as usize,
            quarantined: r.u64()? as usize,
            queue_depth: r.u64()? as usize,
            evicted: r.u64()?,
            admitted: r.u64()?,
            points: r.u64()?,
            anomalies: r.u64()?,
            shift_searches: r.u64()?,
            shift_trials: r.u64()?,
            z_alarms: r.u64()?,
            cusum_alarms: r.u64()?,
            forecast_alarms: r.u64()?,
            trend_alarms: r.u64()?,
            cold_resident: r.u64()? as usize,
            spills: r.u64()?,
            rehydrations: r.u64()?,
            cold_errors: r.u64()?,
        });
    }
    Ok(s)
}

// -------------------------------------------------------------------------
// client / server errors
// -------------------------------------------------------------------------

/// Errors of the client side of the protocol.
#[derive(Debug, Clone, PartialEq)]
pub enum NetError {
    /// Socket I/O failed (connection refused, reset, timed out, …).
    Io(String),
    /// The server's bytes did not form a valid frame (or its hello was
    /// wrong).
    Codec(CodecError),
    /// The server answered with an out-of-protocol frame (e.g. a request
    /// type as a reply).
    Protocol(&'static str),
    /// The server reported the request failed; carries its error text.
    Remote(String),
    /// The server rejected the batch whole — a shard queue was full.
    /// Nothing was applied; resubmit after draining or backing off.
    Backpressure {
        /// The shard whose queue was full.
        shard: usize,
    },
    /// A synchronous call was made while pipelined batches are still in
    /// flight; collect them with [`NetClient::drain`] first.
    InFlight,
}

impl fmt::Display for NetError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            NetError::Io(msg) => write!(f, "network i/o: {msg}"),
            NetError::Codec(e) => write!(f, "network frame: {e}"),
            NetError::Protocol(what) => write!(f, "protocol violation: {what}"),
            NetError::Remote(msg) => write!(f, "server error: {msg}"),
            NetError::Backpressure { shard } => {
                write!(f, "server backpressure: shard {shard} queue is full")
            }
            NetError::InFlight => {
                write!(f, "pipelined batches in flight; drain them first")
            }
        }
    }
}

impl std::error::Error for NetError {}

impl From<io::Error> for NetError {
    fn from(e: io::Error) -> Self {
        NetError::Io(e.to_string())
    }
}

impl From<CodecError> for NetError {
    fn from(e: CodecError) -> Self {
        NetError::Codec(e)
    }
}

// -------------------------------------------------------------------------
// framed connection (shared by client and server)
// -------------------------------------------------------------------------

/// A TCP stream plus reassembly and write scratch buffers. Reads
/// accumulate into `rbuf` until [`decode_frame`] can cut a full frame;
/// writes reuse `wbuf` across frames.
struct FrameIo {
    stream: TcpStream,
    rbuf: Vec<u8>,
    /// Consumed prefix of `rbuf` (compacted lazily).
    start: usize,
    wbuf: Vec<u8>,
}

enum Fill {
    Data,
    WouldBlock,
    Eof,
}

impl FrameIo {
    fn new(stream: TcpStream) -> Self {
        FrameIo { stream, rbuf: Vec::new(), start: 0, wbuf: Vec::new() }
    }

    /// Cuts the next complete frame out of the reassembly buffer, if one
    /// is there.
    fn try_parse(&mut self) -> Result<Option<NetMessage>, CodecError> {
        match decode_frame(&self.rbuf[self.start..])? {
            None => Ok(None),
            Some((msg, used)) => {
                self.start += used;
                if self.start == self.rbuf.len() {
                    self.rbuf.clear();
                    self.start = 0;
                } else if self.start >= 64 * 1024 {
                    self.rbuf.drain(..self.start);
                    self.start = 0;
                }
                Ok(Some(msg))
            }
        }
    }

    /// One `read` into the reassembly buffer. In blocking mode a read
    /// timeout surfaces as [`Fill::WouldBlock`] so callers can check
    /// their shutdown flag and retry.
    fn fill(&mut self) -> io::Result<Fill> {
        let mut chunk = [0u8; 16 * 1024];
        match self.stream.read(&mut chunk) {
            Ok(0) => Ok(Fill::Eof),
            Ok(n) => {
                self.rbuf.extend_from_slice(&chunk[..n]);
                Ok(Fill::Data)
            }
            Err(e)
                if e.kind() == io::ErrorKind::WouldBlock
                    || e.kind() == io::ErrorKind::TimedOut =>
            {
                Ok(Fill::WouldBlock)
            }
            Err(e) if e.kind() == io::ErrorKind::Interrupted => Ok(Fill::WouldBlock),
            Err(e) => Err(e),
        }
    }

    /// One non-blocking `read` — used by the server to decide whether
    /// more requests are already on the wire before it flushes replies.
    fn fill_nonblocking(&mut self) -> io::Result<Fill> {
        self.stream.set_nonblocking(true)?;
        let out = self.fill();
        self.stream.set_nonblocking(false)?;
        out
    }

    fn send(&mut self, msg: &NetMessage) -> io::Result<()> {
        let mut wbuf = std::mem::take(&mut self.wbuf);
        encode_frame_into(&mut wbuf, msg);
        let out = self.stream.write_all(&wbuf);
        self.wbuf = wbuf;
        out
    }
}

// -------------------------------------------------------------------------
// server
// -------------------------------------------------------------------------

/// A background thread serving a [`FleetEngine`] over TCP.
///
/// The engine moves into the server thread; connections are served one
/// at a time (the engine itself fans work out across its shard threads —
/// a second listener thread would only contend on it). Dropping the
/// handle (or calling [`NetServer::shutdown`]) stops the listener,
/// drains in-flight batches, [closes](FleetEngine::close) the engine —
/// a durable one checkpoints — and joins the thread. A durable engine
/// ([`FleetEngine::create`]/[`FleetEngine::open`]) logs every batch it
/// serves, like any other caller's.
pub struct NetServer {
    addr: SocketAddr,
    stop: Arc<AtomicBool>,
    handle: Option<thread::JoinHandle<()>>,
}

impl NetServer {
    /// Binds `addr` (e.g. `"127.0.0.1:0"` for an ephemeral port) and
    /// serves `engine` on a background thread until shutdown.
    pub fn serve(addr: impl ToSocketAddrs, engine: FleetEngine) -> Result<Self, FleetError> {
        let listener =
            TcpListener::bind(addr).map_err(|e| FleetError::Io(format!("bind: {e}")))?;
        let addr =
            listener.local_addr().map_err(|e| FleetError::Io(format!("local addr: {e}")))?;
        listener
            .set_nonblocking(true)
            .map_err(|e| FleetError::Io(format!("listener nonblocking: {e}")))?;
        let stop = Arc::new(AtomicBool::new(false));
        let flag = Arc::clone(&stop);
        let handle = thread::Builder::new()
            .name("fleet-net".into())
            .spawn(move || accept_loop(listener, engine, &flag))
            .map_err(|_| FleetError::Internal("spawning the network accept thread"))?;
        Ok(NetServer { addr, stop, handle: Some(handle) })
    }

    /// The bound address — the port to hand to [`NetClient::connect`]
    /// when the server was bound to port 0.
    pub fn local_addr(&self) -> SocketAddr {
        self.addr
    }

    /// Stops the listener and joins the server thread. In-flight batches
    /// of a live connection are drained first so the engine's shard
    /// workers shut down cleanly.
    pub fn shutdown(mut self) {
        self.stop_and_join();
    }

    fn stop_and_join(&mut self) {
        self.stop.store(true, Ordering::Release);
        if let Some(h) = self.handle.take() {
            let _ = h.join();
        }
    }
}

impl Drop for NetServer {
    fn drop(&mut self) {
        self.stop_and_join();
    }
}

fn accept_loop(listener: TcpListener, mut engine: FleetEngine, stop: &AtomicBool) {
    while !stop.load(Ordering::Acquire) {
        match listener.accept() {
            Ok((stream, _)) => {
                if serve_conn(&mut engine, stream, stop).is_err() {
                    // the engine is poisoned (a dead shard was neither
                    // respawned nor recovered from disk): stop serving
                    // rather than answer every future request with errors
                    break;
                }
            }
            Err(e)
                if e.kind() == io::ErrorKind::WouldBlock
                    || e.kind() == io::ErrorKind::Interrupted =>
            {
                thread::sleep(Duration::from_millis(2));
            }
            Err(_) => thread::sleep(Duration::from_millis(20)),
        }
    }
    let _ = engine.close();
}

/// Serves one connection. `Err` means the *engine* is unusable (fatal);
/// connection-level problems (bad hello, socket errors, codec errors)
/// just close the connection and return `Ok`.
fn serve_conn(
    engine: &mut FleetEngine,
    stream: TcpStream,
    stop: &AtomicBool,
) -> Result<(), FleetError> {
    let _ = stream.set_nodelay(true);
    if stream.set_read_timeout(Some(Duration::from_millis(100))).is_err()
        || stream.set_write_timeout(Some(Duration::from_secs(10))).is_err()
    {
        return Ok(());
    }
    let mut io = FrameIo::new(stream);

    // hello: read the client's 10 bytes (tolerating short reads), verify,
    // echo ours back
    let mut hello = [0u8; 10];
    let mut got = 0;
    while got < hello.len() {
        if stop.load(Ordering::Acquire) {
            return Ok(());
        }
        match io.stream.read(&mut hello[got..]) {
            Ok(0) => return Ok(()),
            Ok(n) => got += n,
            Err(e)
                if e.kind() == io::ErrorKind::WouldBlock
                    || e.kind() == io::ErrorKind::TimedOut
                    || e.kind() == io::ErrorKind::Interrupted => {}
            Err(_) => return Ok(()),
        }
    }
    if check_hello(&hello).is_err() || io.stream.write_all(&hello_bytes()).is_err() {
        return Ok(());
    }

    let result = conn_loop(engine, &mut io, stop);
    // whatever ended the connection, leave no batch in flight: the next
    // connection (and engine shutdown) needs a clean pipeline
    while engine.in_flight() > 0 {
        let _ = engine.next_batch();
    }
    result
}

fn conn_loop(
    engine: &mut FleetEngine,
    io: &mut FrameIo,
    stop: &AtomicBool,
) -> Result<(), FleetError> {
    // ingest replies the client is still owed, one per accepted batch; an
    // engine that recovers in place drops its in-flight batches, so its
    // own count can fall below this one
    let mut owed = 0;
    loop {
        if stop.load(Ordering::Acquire) {
            return Ok(());
        }
        let msg = match io.try_parse() {
            Err(_) => {
                // the stream can never resync after a framing error
                let _ = io.send(&NetMessage::Error("malformed frame".into()));
                return Ok(());
            }
            Ok(Some(msg)) => msg,
            Ok(None) => {
                if owed > 0 {
                    // replies are owed: only read more if bytes are
                    // already on the wire, otherwise flush
                    match io.fill_nonblocking() {
                        Ok(Fill::Data) => {}
                        Ok(Fill::WouldBlock) => flush_replies(engine, io, &mut owed),
                        Ok(Fill::Eof) | Err(_) => return Ok(()),
                    }
                } else {
                    match io.fill() {
                        Ok(Fill::Data) => {}
                        Ok(Fill::WouldBlock) => {} // timeout: re-check stop
                        Ok(Fill::Eof) | Err(_) => return Ok(()),
                    }
                }
                continue;
            }
        };
        match msg {
            NetMessage::IngestBatch(records) => {
                if owed >= SERVER_WINDOW {
                    send_one_reply(engine, io, &mut owed);
                }
                match engine.submit(records) {
                    Ok(()) => owed += 1,
                    Err(FleetError::Backpressure { shard }) => {
                        // nothing was applied or logged; free the queues
                        // so the client's resubmit has room, then surface
                        // the typed rejection as this batch's reply
                        flush_replies(engine, io, &mut owed);
                        if io.send(&NetMessage::Backpressure { shard: shard as u32 }).is_err() {
                            return Ok(());
                        }
                    }
                    Err(e) => {
                        // the batches before this one are answered first,
                        // so every reply stays in submission order
                        flush_replies(engine, io, &mut owed);
                        if io.send(&NetMessage::Error(e.to_string())).is_err() {
                            return Ok(());
                        }
                        // a dead shard that was neither respawned nor
                        // recovered from disk (`DurabilityPolicy::Degrade`)
                        // poisons the engine; otherwise keep serving
                        if !engine.shards_alive() {
                            return Err(e);
                        }
                    }
                }
            }
            NetMessage::Forecast { keys, horizon } => {
                flush_replies(engine, io, &mut owed);
                let reply = match engine.forecast(&keys, horizon as usize) {
                    Ok(slots) => NetMessage::ForecastReply(slots),
                    Err(e) => NetMessage::Error(e.to_string()),
                };
                if io.send(&reply).is_err() {
                    return Ok(());
                }
            }
            NetMessage::Stats => {
                flush_replies(engine, io, &mut owed);
                let reply = match engine.stats() {
                    Ok(stats) => NetMessage::StatsReply(stats),
                    Err(e) => NetMessage::Error(e.to_string()),
                };
                if io.send(&reply).is_err() {
                    return Ok(());
                }
            }
            NetMessage::SetAdmitOptions { key, opts } => {
                flush_replies(engine, io, &mut owed);
                let reply = match engine.set_admit_options(key, opts) {
                    Ok(()) => NetMessage::Done,
                    Err(e) => NetMessage::Error(e.to_string()),
                };
                if io.send(&reply).is_err() {
                    return Ok(());
                }
            }
            // a reply type arriving as a request is a protocol violation
            _ => {
                let _ = io.send(&NetMessage::Error("unexpected frame type".into()));
                return Ok(());
            }
        }
    }
}

/// Answers the oldest batch the client is owed with its `Scored` frame,
/// or with a per-batch `Error` if its shards failed. A plain engine
/// respawns a dead shard, whose series re-warm; a durable one under
/// `DurabilityPolicy::Degrade` recovers from disk in place and drops the
/// rest of its in-flight batches, which get an `Error` each. Either way
/// the connection stays up, and a truly poisoned engine surfaces on the
/// next submit.
fn send_one_reply(engine: &mut FleetEngine, io: &mut FrameIo, owed: &mut usize) {
    let reply = match engine.next_batch() {
        Ok(Some(points)) => NetMessage::Scored(points),
        Ok(None) => NetMessage::Error(FleetError::ShardDown.to_string()),
        Err(e) => NetMessage::Error(e.to_string()),
    };
    *owed -= 1;
    let _ = io.send(&reply);
}

fn flush_replies(engine: &mut FleetEngine, io: &mut FrameIo, owed: &mut usize) {
    while *owed > 0 {
        send_one_reply(engine, io, owed);
    }
}

// -------------------------------------------------------------------------
// client
// -------------------------------------------------------------------------

/// Blocking client of a [`NetServer`].
///
/// [`NetClient::ingest`] is the synchronous one-batch round trip;
/// [`NetClient::submit`] / [`NetClient::drain`] pipeline up to a small
/// window of batches to hide the per-frame latency, mirroring
/// [`FleetEngine::submit`] / [`FleetEngine::next_batch`] in-process.
pub struct NetClient {
    io: FrameIo,
    in_flight: VecDeque<()>,
}

impl NetClient {
    /// Connects and performs the protocol hello. Every read from the
    /// server, the hello's included, gives up after a fixed bound.
    pub fn connect(addr: impl ToSocketAddrs) -> Result<Self, NetError> {
        let stream = TcpStream::connect(addr)?;
        let _ = stream.set_nodelay(true);
        stream.set_write_timeout(Some(Duration::from_secs(10)))?;
        stream.set_read_timeout(Some(REPLY_TIMEOUT))?;
        let mut io = FrameIo::new(stream);
        io.stream.write_all(&hello_bytes())?;
        let mut hello = [0u8; 10];
        io.stream.read_exact(&mut hello)?;
        check_hello(&hello)?;
        Ok(NetClient { io, in_flight: VecDeque::new() })
    }

    /// Ingests one batch synchronously: one request frame, one reply
    /// frame. Fails with [`NetError::InFlight`] when pipelined batches
    /// are uncollected.
    pub fn ingest(&mut self, batch: Vec<Record>) -> Result<Vec<ScoredPoint>, NetError> {
        if !self.in_flight.is_empty() {
            return Err(NetError::InFlight);
        }
        self.io.send(&NetMessage::IngestBatch(batch))?;
        self.recv_scored()
    }

    /// Pipelines one batch. When the window (a handful of batches, kept
    /// below the server's) is full, first collects the oldest reply and
    /// returns it — so the call doubles as the drain and no scored
    /// points are ever dropped. A returned [`NetError::Backpressure`] or
    /// [`NetError::Remote`] belongs to that *oldest* batch; the one just
    /// passed was still sent.
    pub fn submit(&mut self, batch: Vec<Record>) -> Result<Option<Vec<ScoredPoint>>, NetError> {
        let drained = if self.in_flight.len() >= CLIENT_WINDOW {
            self.in_flight.pop_front();
            let scored = self.recv_scored()?;
            Some(scored)
        } else {
            None
        };
        self.io.send(&NetMessage::IngestBatch(batch))?;
        self.in_flight.push_back(());
        Ok(drained)
    }

    /// Collects the oldest in-flight reply, or `Ok(None)` when nothing
    /// is in flight.
    pub fn drain(&mut self) -> Result<Option<Vec<ScoredPoint>>, NetError> {
        if self.in_flight.pop_front().is_none() {
            return Ok(None);
        }
        self.recv_scored().map(Some)
    }

    /// Forecasts `1..=horizon` steps ahead for each key (see
    /// [`FleetEngine::forecast`]). Requires an empty pipeline.
    pub fn forecast(
        &mut self,
        keys: &[SeriesKey],
        horizon: u32,
    ) -> Result<Vec<Option<Vec<f64>>>, NetError> {
        if !self.in_flight.is_empty() {
            return Err(NetError::InFlight);
        }
        self.io.send(&NetMessage::Forecast { keys: keys.to_vec(), horizon })?;
        match self.recv_reply()? {
            NetMessage::ForecastReply(slots) => Ok(slots),
            NetMessage::Error(msg) => Err(NetError::Remote(msg)),
            _ => Err(NetError::Protocol("expected a forecast reply")),
        }
    }

    /// Fetches engine statistics. Requires an empty pipeline.
    pub fn stats(&mut self) -> Result<FleetStats, NetError> {
        if !self.in_flight.is_empty() {
            return Err(NetError::InFlight);
        }
        self.io.send(&NetMessage::Stats)?;
        match self.recv_reply()? {
            NetMessage::StatsReply(stats) => Ok(stats),
            NetMessage::Error(msg) => Err(NetError::Remote(msg)),
            _ => Err(NetError::Protocol("expected a stats reply")),
        }
    }

    /// Registers per-series admission overrides (see
    /// [`FleetEngine::set_admit_options`]). Requires an empty pipeline.
    pub fn set_admit_options(
        &mut self,
        key: impl Into<SeriesKey>,
        opts: AdmitOptions,
    ) -> Result<(), NetError> {
        if !self.in_flight.is_empty() {
            return Err(NetError::InFlight);
        }
        self.io.send(&NetMessage::SetAdmitOptions { key: key.into(), opts })?;
        match self.recv_reply()? {
            NetMessage::Done => Ok(()),
            NetMessage::Error(msg) => Err(NetError::Remote(msg)),
            _ => Err(NetError::Protocol("expected an acknowledgement")),
        }
    }

    /// Batches currently pipelined and awaiting [`NetClient::drain`].
    pub fn in_flight(&self) -> usize {
        self.in_flight.len()
    }

    fn recv_scored(&mut self) -> Result<Vec<ScoredPoint>, NetError> {
        match self.recv_reply()? {
            NetMessage::Scored(points) => Ok(points),
            NetMessage::Backpressure { shard } => {
                Err(NetError::Backpressure { shard: shard as usize })
            }
            NetMessage::Error(msg) => Err(NetError::Remote(msg)),
            _ => Err(NetError::Protocol("expected a scored-batch reply")),
        }
    }

    /// The next reply frame, or [`NetError::Io`] once it is
    /// [`REPLY_TIMEOUT`] overdue. A timed-out read blocks for the whole
    /// bound, so only an interrupted read retries before the deadline.
    fn recv_reply(&mut self) -> Result<NetMessage, NetError> {
        let deadline = Instant::now() + REPLY_TIMEOUT;
        loop {
            if let Some(msg) = self.io.try_parse()? {
                return Ok(msg);
            }
            match self.io.fill()? {
                Fill::Data => {}
                Fill::WouldBlock if Instant::now() < deadline => {}
                Fill::WouldBlock => {
                    return Err(NetError::Io(format!("no reply within {REPLY_TIMEOUT:?}")))
                }
                Fill::Eof => return Err(NetError::Io("server closed the connection".into())),
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::frame::crc32;

    fn roundtrip(msg: NetMessage) {
        let frame = encode_frame(&msg);
        assert_eq!(decode_frame_exact(&frame).unwrap(), msg);
        // the streaming decoder agrees and reports the exact length
        let (m2, used) = decode_frame(&frame).unwrap().unwrap();
        assert_eq!(m2, msg);
        assert_eq!(used, frame.len());
    }

    #[test]
    fn every_message_roundtrips() {
        roundtrip(NetMessage::IngestBatch(vec![
            Record::new("host-1/cpu", 7, 1.5),
            Record::new("host-2/mem", 8, -2.25),
        ]));
        roundtrip(NetMessage::IngestBatch(Vec::new()));
        roundtrip(NetMessage::Forecast {
            keys: vec![SeriesKey::new("a"), SeriesKey::new("b")],
            horizon: 12,
        });
        roundtrip(NetMessage::Stats);
        roundtrip(NetMessage::SetAdmitOptions {
            key: SeriesKey::new("tenant/series"),
            opts: AdmitOptions { lambda: Some(2.0), period: Some(48), ..Default::default() },
        });
        roundtrip(NetMessage::Scored(vec![
            ScoredPoint {
                key: SeriesKey::new("k"),
                t: 9,
                value: 3.5,
                output: PointOutput::Warming { buffered: 3, needed: Some(144) },
            },
            ScoredPoint {
                key: SeriesKey::new("k"),
                t: 10,
                value: -1.0,
                output: PointOutput::Scored {
                    point: DecompPoint { trend: 1.0, seasonal: -0.5, residual: 0.25 },
                    score: 4.5,
                    is_anomaly: true,
                },
            },
            ScoredPoint {
                key: SeriesKey::new("r"),
                t: 11,
                value: 0.0,
                output: PointOutput::Rejected,
            },
            ScoredPoint {
                key: SeriesKey::new("q"),
                t: 12,
                value: 0.0,
                output: PointOutput::Quarantined,
            },
        ]));
        roundtrip(NetMessage::ForecastReply(vec![
            None,
            Some(vec![1.0, 2.0, 3.0]),
            Some(Vec::new()),
        ]));
        roundtrip(NetMessage::StatsReply(FleetStats {
            live: 2,
            points: 77,
            shards: vec![
                ShardStats { shard: 0, live: 1, points: 40, ..Default::default() },
                ShardStats { shard: 1, live: 1, points: 37, ..Default::default() },
            ],
            ..Default::default()
        }));
        roundtrip(NetMessage::Done);
        roundtrip(NetMessage::Backpressure { shard: 3 });
        roundtrip(NetMessage::Error("shard 2 queue is full".into()));
    }

    #[test]
    fn nan_values_roundtrip_by_bit_pattern() {
        let msg = NetMessage::IngestBatch(vec![Record::new("k", 0, f64::NAN)]);
        let frame = encode_frame(&msg);
        match decode_frame_exact(&frame).unwrap() {
            NetMessage::IngestBatch(recs) => {
                assert_eq!(recs[0].value.to_bits(), f64::NAN.to_bits());
            }
            other => panic!("wrong message: {other:?}"),
        }
    }

    #[test]
    fn hello_is_validated() {
        assert_eq!(check_hello(&hello_bytes()), Ok(()));
        let mut bad_magic = hello_bytes();
        bad_magic[0] ^= 0xFF;
        assert_eq!(check_hello(&bad_magic), Err(CodecError::BadMagic));
        // right magic, garbage after it: a future (or corrupt) version is
        // rejected as unsupported, not misparsed
        let mut bad_version = hello_bytes();
        bad_version[8] = 0xEE;
        bad_version[9] = 0xBE;
        assert_eq!(check_hello(&bad_version), Err(CodecError::UnsupportedVersion(0xBEEE)));
    }

    /// A v2 peer is refused: its `SetAdmitOptions` body is a layout this
    /// build no longer writes. The server closes the connection without
    /// echoing its hello.
    #[test]
    fn a_v2_hello_is_refused() {
        let mut v2 = hello_bytes();
        v2[8..].copy_from_slice(&2u16.to_le_bytes());
        assert_eq!(check_hello(&v2), Err(CodecError::UnsupportedVersion(2)));

        let engine = FleetEngine::new(crate::FleetConfig::fixed_period(24)).unwrap();
        let server = NetServer::serve("127.0.0.1:0", engine).unwrap();
        let mut stream = TcpStream::connect(server.local_addr()).unwrap();
        stream.set_read_timeout(Some(Duration::from_secs(10))).unwrap();
        stream.write_all(&v2).unwrap();
        let mut reply = Vec::new();
        stream.read_to_end(&mut reply).expect("the server closes the connection");
        assert!(reply.is_empty(), "a refused hello gets no echo: {reply:?}");
        server.shutdown();
    }

    /// A client whose server echoes the hello and then never answers
    /// fails the call with [`NetError::Io`] once the reply is
    /// [`REPLY_TIMEOUT`] overdue, instead of blocking forever.
    #[test]
    fn a_silent_server_times_the_reply_out() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let peer = thread::spawn(move || {
            let (mut conn, _) = listener.accept().unwrap();
            let mut hello = [0u8; 10];
            conn.read_exact(&mut hello).unwrap();
            conn.write_all(&hello).unwrap();
            // read the request, answer nothing, hold the socket open
            // until the client hangs up
            let mut sink = Vec::new();
            let _ = conn.read_to_end(&mut sink);
        });
        let mut client = NetClient::connect(addr).unwrap();
        let started = Instant::now();
        match client.stats() {
            Err(NetError::Io(msg)) => assert!(msg.contains("no reply"), "{msg}"),
            other => panic!("a silent server must time the call out, got {other:?}"),
        }
        let waited = started.elapsed();
        assert!(waited >= REPLY_TIMEOUT, "gave up early: {waited:?}");
        assert!(waited < REPLY_TIMEOUT * 10, "waited {waited:?}");
        drop(client);
        peer.join().unwrap();
    }

    /// An admit-options body whose forecast override is in the v12 layout
    /// (with or without the drift alarm's error fusion) is refused with a
    /// typed error, never applied without its alarm: no v3 writer emits
    /// that layout. The v3 layout, the tag and φ, decodes.
    #[test]
    fn an_admit_options_frame_asking_for_the_drift_alarm_is_refused() {
        let body = |forecast: &[u8]| {
            let mut frame = Vec::new();
            crate::frame::write(&mut frame, |w| {
                w.u8(T_ADMIT);
                w.string("tenant/series");
                // λ, nsigma, period, shift search, score: all inherited
                for _ in 0..5 {
                    w.u8(0);
                }
                w.u8(1);
                w.bytes(forecast);
                w.u8(0); // backend inherited
            });
            frame
        };
        // the v12 layout: enabled, φ, error window, fusion flag, sMAPE bar
        for fusion in [1, 0] {
            let mut v12 = vec![1];
            v12.extend(0.9f64.to_le_bytes());
            v12.extend(64u32.to_le_bytes());
            v12.push(fusion);
            v12.extend(1.5f64.to_le_bytes());
            assert_eq!(
                decode_frame(&body(&v12)),
                Err(CodecError::Invalid("forecast options tag")),
                "fusion {fusion}"
            );
        }
        let mut v3 = vec![3];
        v3.extend(0.9f64.to_le_bytes());
        match decode_frame_exact(&body(&v3)).unwrap() {
            NetMessage::SetAdmitOptions { opts, .. } => assert_eq!(
                opts.forecast,
                Some(crate::ForecastOptions { enabled: true, damping: 0.9 })
            ),
            other => panic!("wrong message: {other:?}"),
        }
    }

    #[test]
    fn streaming_decoder_waits_for_partial_frames() {
        let frame = encode_frame(&NetMessage::Backpressure { shard: 1 });
        for cut in 0..frame.len() {
            assert_eq!(decode_frame(&frame[..cut]).unwrap(), None, "prefix of {cut} bytes");
        }
        // two frames back to back: the first cut consumes exactly one
        let mut two = frame.clone();
        two.extend_from_slice(&frame);
        let (msg, used) = decode_frame(&two).unwrap().unwrap();
        assert_eq!(msg, NetMessage::Backpressure { shard: 1 });
        assert_eq!(used, frame.len());
        let (msg2, _) = decode_frame(&two[used..]).unwrap().unwrap();
        assert_eq!(msg2, msg);
    }

    #[test]
    fn corrupt_frames_are_typed_errors() {
        let frame = encode_frame(&NetMessage::Error("x".into()));
        // flipping any single byte must never produce the original
        // message silently: either the CRC catches it, or (in the length
        // prefix) the decoder waits for more / rejects the length
        for i in 0..frame.len() {
            let mut bad = frame.clone();
            bad[i] ^= 0x01;
            if let Ok(Some((msg, _))) = decode_frame(&bad) {
                assert_ne!(msg, NetMessage::Error("x".into()));
            }
        }
        // oversized length prefix: rejected before allocation
        let mut huge = frame.clone();
        huge[..4].copy_from_slice(&(MAX_FRAME as u32 + 1).to_le_bytes());
        assert_eq!(decode_frame(&huge), Err(CodecError::Invalid("frame length")));
        // zero-length payload can't even hold a type tag
        let mut empty = frame;
        empty[..4].copy_from_slice(&0u32.to_le_bytes());
        assert_eq!(decode_frame(&empty), Err(CodecError::Invalid("frame length")));
    }

    #[test]
    fn hostile_counts_do_not_allocate() {
        // a Scored frame claiming u32::MAX points in a 16-byte payload:
        // the count check fires before any Vec::with_capacity
        let mut w = Writer::default();
        w.u8(T_SCORED);
        w.u32(u32::MAX);
        let mut frame = Vec::new();
        frame.extend_from_slice(&(w.buf.len() as u32).to_le_bytes());
        frame.extend_from_slice(&crc32(&w.buf).to_le_bytes());
        frame.extend_from_slice(&w.buf);
        assert_eq!(decode_frame(&frame), Err(CodecError::Invalid("element count")));
    }

    #[test]
    fn trailing_garbage_after_payload_is_rejected() {
        // a frame whose declared length covers more bytes than the body
        // parses: the strict payload-length check fires
        let mut w = Writer::default();
        w.u8(T_DONE);
        w.u8(0xAB); // extra byte the Done body never reads
        let mut frame = Vec::new();
        frame.extend_from_slice(&(w.buf.len() as u32).to_le_bytes());
        frame.extend_from_slice(&crc32(&w.buf).to_le_bytes());
        frame.extend_from_slice(&w.buf);
        assert_eq!(decode_frame(&frame), Err(CodecError::Invalid("frame payload length")));
    }
}
