//! Property tests for the network frame codec (`fleet::net`), mirroring
//! the snapshot-codec properties in `fleet_codec_prop.rs`, plus TCP
//! loopback integration tests pinning wire ingest **bit-identical** to
//! in-process ingest.
//!
//! Codec properties:
//!
//! 1. **Round-trip identity.** Arbitrary ingest batches (and a canonical
//!    instance of every other message type) encode to frames that decode
//!    back to the same message, `f64`s compared by bit pattern.
//! 2. **Truncation fails closed.** Every proper prefix of a valid frame is
//!    either "wait for more bytes" (streaming) or a typed
//!    [`CodecError::Truncated`] (strict) — never a panic.
//! 3. **Corruption never panics.** A single-byte XOR anywhere decodes to a
//!    typed error or (only if the CRC colludes) some valid message;
//!    arbitrary garbage and garbage after a valid hello magic are
//!    rejected with typed errors.

use std::io::{BufRead, BufReader, Read};
use std::process::{Child, Command, Stdio};
use std::sync::OnceLock;

use oneshotstl_suite::fleet::net::{
    check_hello, decode_frame, decode_frame_exact, encode_frame, hello_bytes, MAX_FRAME,
};
use oneshotstl_suite::fleet::{
    AdmitOptions, CodecError, DurabilityConfig, FleetConfig, FleetEngine, NetClient, NetError,
    NetMessage, NetServer, PeriodPolicy, Record, ScoredPoint, SeriesKey,
};
use oneshotstl_suite::tskit::DecompPoint;
use proptest::prelude::*;

use oneshotstl_suite::fleet::{FleetStats, PointOutput, ShardStats};

/// A frame that exercises every output tag — the corruption target.
fn canonical_frame() -> &'static [u8] {
    static BYTES: OnceLock<Vec<u8>> = OnceLock::new();
    BYTES.get_or_init(|| {
        encode_frame(&NetMessage::Scored(vec![
            ScoredPoint {
                key: SeriesKey::new("tenant-0/cpu"),
                t: 41,
                value: 0.25,
                output: PointOutput::Warming { buffered: 12, needed: Some(36) },
            },
            ScoredPoint {
                key: SeriesKey::new("tenant-1/mem"),
                t: 42,
                value: -3.5,
                output: PointOutput::Scored {
                    point: DecompPoint { trend: 1.5, seasonal: -0.25, residual: 0.125 },
                    score: 6.5,
                    is_anomaly: true,
                },
            },
            ScoredPoint {
                key: SeriesKey::new("t"),
                t: 43,
                value: 0.0,
                output: PointOutput::Rejected,
            },
        ]))
    })
}

/// One canonical instance of every message type (the batch-roundtrip
/// property covers `IngestBatch` exhaustively; these pin the rest).
fn message_menu() -> Vec<NetMessage> {
    vec![
        NetMessage::IngestBatch(vec![Record::new("k", 0, 1.0)]),
        NetMessage::Forecast {
            keys: vec![SeriesKey::new("a"), SeriesKey::new("b")],
            horizon: 7,
        },
        NetMessage::Stats,
        NetMessage::SetAdmitOptions {
            key: SeriesKey::new("tuned"),
            opts: AdmitOptions { period: Some(48), nsigma: Some(4.0), ..Default::default() },
        },
        NetMessage::Scored(Vec::new()),
        NetMessage::ForecastReply(vec![None, Some(vec![1.0, -2.0]), Some(Vec::new())]),
        NetMessage::StatsReply(FleetStats {
            live: 3,
            points: 1234,
            anomalies: 5,
            shards: vec![ShardStats { shard: 1, live: 3, points: 1234, ..Default::default() }],
            ..Default::default()
        }),
        NetMessage::Done,
        NetMessage::Backpressure { shard: 2 },
        NetMessage::Error("a message".into()),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn arbitrary_ingest_batches_roundtrip(
        seeds in prop::collection::vec(0u64..u64::MAX, 0usize..40),
        scale in 0.001f64..1000.0,
    ) {
        let records: Vec<Record> = seeds
            .iter()
            .map(|&seed| {
                // spread one seed over time, value, and key id
                let t = seed % 1_000_000;
                let v = ((seed >> 20) % 2001) as f64 - 1000.0;
                let k = (seed >> 40) % 20;
                Record::new(format!("series-{k}"), t, v * scale)
            })
            .collect();
        let msg = NetMessage::IngestBatch(records);
        let frame = encode_frame(&msg);
        prop_assert_eq!(decode_frame_exact(&frame).expect("own frame decodes"), msg);
    }

    #[test]
    fn every_message_type_roundtrips(pick in 0usize..10) {
        let msg = message_menu().swap_remove(pick % 10);
        let frame = encode_frame(&msg);
        let (decoded, used) = decode_frame(&frame).expect("valid frame").expect("complete");
        prop_assert_eq!(decoded, msg);
        prop_assert_eq!(used, frame.len());
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(300))]

    #[test]
    fn truncation_yields_typed_errors_never_panics(cut in 0usize..1_000_000) {
        let bytes = canonical_frame();
        let cut = cut % bytes.len(); // always a *proper* prefix
        // streaming contract: a prefix is "wait", never an error or panic
        prop_assert_eq!(decode_frame(&bytes[..cut]).expect("prefix never errors"), None);
        // strict contract: a prefix is the typed truncation error
        prop_assert_eq!(decode_frame_exact(&bytes[..cut]), Err(CodecError::Truncated));
    }

    #[test]
    fn single_byte_corruption_never_panics(pos in 0usize..1_000_000, flip in 1u32..256) {
        let mut bytes = canonical_frame().to_vec();
        let pos = pos % bytes.len();
        bytes[pos] ^= flip as u8;
        match decode_frame_exact(&bytes) {
            // only a CRC collusion could get here; the message must then
            // re-encode without panicking
            Ok(msg) => {
                let _ = encode_frame(&msg);
            }
            Err(
                CodecError::BadMagic
                | CodecError::UnsupportedVersion(_)
                | CodecError::Truncated
                | CodecError::Invalid(_),
            ) => {}
        }
    }

    #[test]
    fn garbage_frames_are_rejected(raw in prop::collection::vec(0u32..256, 8usize..96)) {
        let garbage: Vec<u8> = raw.into_iter().map(|x| x as u8).collect();
        // a random length prefix either overflows the cap (typed error),
        // declares more bytes than present (wait/truncated), or the CRC
        // check fires; the property is "typed result, no panic"
        match decode_frame(&garbage) {
            Ok(None) | Err(_) => {}
            Ok(Some(_)) => prop_assert!(false, "random bytes decoded to a frame"),
        }
    }

    #[test]
    fn garbage_after_valid_hello_magic_is_rejected(a in 0u32..256, b in 0u32..256) {
        let mut hello = hello_bytes();
        hello[8] = a as u8;
        hello[9] = b as u8;
        let v = u16::from_le_bytes([hello[8], hello[9]]);
        if v == 1 {
            prop_assert_eq!(check_hello(&hello), Ok(()));
        } else {
            prop_assert_eq!(check_hello(&hello), Err(CodecError::UnsupportedVersion(v)));
        }
    }
}

#[test]
fn oversized_length_prefix_is_rejected_before_allocation() {
    let mut frame = canonical_frame().to_vec();
    frame[..4].copy_from_slice(&(MAX_FRAME as u32 + 1).to_le_bytes());
    assert_eq!(decode_frame(&frame), Err(CodecError::Invalid("frame length")));
}

// -------------------------------------------------------------------------
// TCP loopback integration
// -------------------------------------------------------------------------

const PERIOD: usize = 12;

fn test_config(shards: usize) -> FleetConfig {
    FleetConfig { shards, period: PeriodPolicy::Fixed(PERIOD), ..Default::default() }
}

/// The same deterministic multi-series stream used in-process and over
/// the wire: seasonal waves with a spike injected late, so outputs cover
/// warming, scored, and anomalous points.
fn stream_batch(t: u64, n_series: usize) -> Vec<Record> {
    (0..n_series)
        .map(|s| {
            let w = 2.0 * std::f64::consts::PI * t as f64 / PERIOD as f64;
            let mut v =
                2.0 * (w + s as f64 * 0.37).sin() + 0.05 * (t as f64 * 13.7 + s as f64).sin();
            if t == 70 && s % 3 == 0 {
                v += 25.0; // spike: force anomalous verdicts
            }
            Record::new(format!("series-{s}"), t, v)
        })
        .collect()
}

/// Wire ingest must be **bit-identical** to in-process ingest: same
/// scored points (f64s compared by bit pattern via `PartialEq` on the
/// output enum), same stats, same forecasts — whether batches go one at
/// a time or pipelined through the client window.
#[test]
fn loopback_ingest_is_bit_identical_to_in_process() {
    let n_series = 6;
    let mut local = FleetEngine::new(test_config(2)).unwrap();
    let server = NetServer::serve("127.0.0.1:0", FleetEngine::new(test_config(2)).unwrap())
        .expect("serve");
    let mut client = NetClient::connect(server.local_addr()).expect("connect");

    // phase 1: synchronous round trips
    for t in 0..48u64 {
        let batch = stream_batch(t, n_series);
        let want = local.ingest(batch.clone()).unwrap();
        let got = client.ingest(batch).unwrap();
        assert_eq!(got, want, "batch {t} diverged over the wire");
    }

    // phase 2: pipelined submits; replies must come back in order
    let mut want_all: Vec<Vec<ScoredPoint>> = Vec::new();
    let mut got_all: Vec<Vec<ScoredPoint>> = Vec::new();
    for t in 48..90u64 {
        let batch = stream_batch(t, n_series);
        want_all.push(local.ingest(batch.clone()).unwrap());
        if let Some(scored) = client.submit(batch).unwrap() {
            got_all.push(scored);
        }
    }
    while let Some(scored) = client.drain().unwrap() {
        got_all.push(scored);
    }
    assert_eq!(got_all, want_all, "pipelined replies diverged or reordered");

    // the spike must actually have produced anomalies (the test would be
    // vacuous otherwise)
    assert!(want_all.iter().flatten().any(|p| p.is_anomaly()));

    // stats agree
    let want_stats = local.stats().unwrap();
    let got_stats = client.stats().unwrap();
    assert_eq!(got_stats, want_stats);
    assert_eq!(got_stats.points, 90 * n_series as u64);

    // forecasts agree, slot for slot
    let keys: Vec<SeriesKey> =
        (0..n_series).map(|s| SeriesKey::new(format!("series-{s}"))).collect();
    let want_fc = local.forecast(&keys, 8).unwrap();
    let got_fc = client.forecast(&keys, 8).unwrap();
    assert_eq!(got_fc, want_fc);
    assert!(got_fc.iter().any(|slot| slot.is_some()));

    server.shutdown();
}

/// Admission overrides registered over the wire behave exactly like
/// in-process ones: the tuned series admits with the overridden period
/// on both sides; re-tuning a live series fails remotely too.
#[test]
fn loopback_admit_options_match_in_process() {
    let opts = AdmitOptions { period: Some(6), ..Default::default() };
    let mut local = FleetEngine::new(test_config(1)).unwrap();
    let server = NetServer::serve("127.0.0.1:0", FleetEngine::new(test_config(1)).unwrap())
        .expect("serve");
    let mut client = NetClient::connect(server.local_addr()).expect("connect");

    local.set_admit_options("tuned", opts).unwrap();
    client.set_admit_options("tuned", opts).unwrap();
    for t in 0..30u64 {
        let v = (2.0 * std::f64::consts::PI * t as f64 / 6.0).sin();
        let batch = vec![Record::new("tuned", t, v)];
        let want = local.ingest(batch.clone()).unwrap();
        let got = client.ingest(batch).unwrap();
        assert_eq!(got, want);
    }
    // period 6 × 3 init cycles = 18 points: live well before t=30
    assert_eq!(client.stats().unwrap().live, 1);

    // tuning a live series is AlreadyAdmitted — as a typed remote error
    let err = client.set_admit_options("tuned", opts).unwrap_err();
    match err {
        NetError::Remote(msg) => assert!(msg.contains("already past admission"), "{msg}"),
        other => panic!("expected a remote error, got {other:?}"),
    }
    assert!(local.set_admit_options("tuned", opts).is_err());

    server.shutdown();
}

/// A second connection is served after the first disconnects, and the
/// engine state persists across connections.
#[test]
fn loopback_serves_sequential_connections() {
    let server = NetServer::serve("127.0.0.1:0", FleetEngine::new(test_config(1)).unwrap())
        .expect("serve");
    let addr = server.local_addr();
    {
        let mut c1 = NetClient::connect(addr).expect("first connect");
        for t in 0..10u64 {
            c1.ingest(vec![Record::new("k", t, t as f64)]).unwrap();
        }
    } // disconnect
    let mut c2 = NetClient::connect(addr).expect("second connect");
    let stats = c2.stats().unwrap();
    assert_eq!(stats.points, 10, "state must survive across connections");
    server.shutdown();
}

/// A forecast request whose answer could never fit one frame — here
/// `horizon = u32::MAX`, which would otherwise make the shard allocate
/// 32 GiB per live key — is refused with a remote error before any shard
/// sees it, and the connection keeps serving. A zero horizon is refused
/// the same way.
#[test]
fn loopback_refuses_an_unanswerable_forecast_and_keeps_serving() {
    let server = NetServer::serve("127.0.0.1:0", FleetEngine::new(test_config(2)).unwrap())
        .expect("serve");
    let mut client = NetClient::connect(server.local_addr()).expect("connect");
    for t in 0..48u64 {
        client.ingest(stream_batch(t, 4)).unwrap();
    }
    let keys: Vec<SeriesKey> = (0..4).map(|s| SeriesKey::new(format!("series-{s}"))).collect();
    for horizon in [u32::MAX, 0] {
        match client.forecast(&keys, horizon) {
            Err(NetError::Remote(msg)) => assert!(msg.contains("refused"), "{msg}"),
            other => panic!("horizon {horizon}: expected a remote error, got {other:?}"),
        }
    }
    // the same connection still answers a sane forecast and stats
    let fc = client.forecast(&keys, PERIOD as u32).unwrap();
    assert!(fc.iter().all(|slot| slot.as_ref().is_some_and(|f| f.len() == PERIOD)));
    assert_eq!(client.stats().unwrap().live, 4);
    server.shutdown();
}

/// Set in the child process of [`wire_sigkill_recovers_a_bit_identical_score_stream`]:
/// the durability directory the child serves from.
const CRASH_CHILD_DIR: &str = "FLEET_NET_CRASH_CHILD_DIR";

fn crash_dcfg(dir: &std::path::Path) -> DurabilityConfig {
    // a short cadence, so the kill lands with deltas and a WAL tail on disk
    DurabilityConfig { snapshot_every: 16, max_delta_chain: 2, ..DurabilityConfig::new(dir) }
}

/// Kills and reaps the child on every exit path of the parent.
struct KillOnDrop(Child);

impl Drop for KillOnDrop {
    fn drop(&mut self) {
        let _ = self.0.kill();
        let _ = self.0.wait();
    }
}

/// A durable engine served over TCP survives a real `SIGKILL`. The test
/// binary re-runs itself as one child process that serves
/// `FleetEngine::create` through a `NetServer`; the parent streams
/// pipelined batches, kills the child with batches still in flight,
/// reopens the directory with `FleetEngine::open`, serves it again, and
/// resumes from the recovered `batches()`. Every acked score before the
/// kill and every score after the reopen is bit-identical to an
/// uninterrupted in-process engine.
#[test]
fn wire_sigkill_recovers_a_bit_identical_score_stream() {
    if let Some(dir) = std::env::var_os(CRASH_CHILD_DIR) {
        let engine = FleetEngine::create(test_config(2), crash_dcfg(dir.as_ref())).unwrap();
        let server = NetServer::serve("127.0.0.1:0", engine).expect("serve");
        println!("crash-child-port {}", server.local_addr().port());
        // serve until killed; a closed stdin means the parent is gone
        let _ = std::io::stdin().read_to_end(&mut Vec::new());
        std::process::exit(0);
    }
    let (n_series, total, kill_after) = (6, 120u64, 50);
    let dir = std::env::temp_dir().join(format!("fleet-net-crash-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let mut local = FleetEngine::new(test_config(2)).unwrap();
    let want: Vec<Vec<ScoredPoint>> =
        (0..total).map(|t| local.ingest(stream_batch(t, n_series)).unwrap()).collect();

    let exe = std::env::current_exe().unwrap();
    let mut child = KillOnDrop(
        Command::new(exe)
            .args(["--exact", "wire_sigkill_recovers_a_bit_identical_score_stream"])
            .arg("--nocapture")
            .env(CRASH_CHILD_DIR, &dir)
            .stdin(Stdio::piped())
            .stdout(Stdio::piped())
            .stderr(Stdio::null())
            .spawn()
            .expect("spawn the serving child"),
    );
    let stdout = BufReader::new(child.0.stdout.take().unwrap());
    let port: u16 = stdout
        .lines()
        .map_while(Result::ok)
        .find_map(|l| l.strip_prefix("crash-child-port ").map(|p| p.parse().unwrap()))
        .expect("the child prints its port");

    let mut client = NetClient::connect(("127.0.0.1", port)).expect("connect");
    let mut acked: Vec<Vec<ScoredPoint>> = Vec::new();
    let mut sent = 0u64;
    while acked.len() < kill_after {
        acked.extend(client.submit(stream_batch(sent, n_series)).unwrap());
        sent += 1;
    }
    // SIGKILL with the client window's batches submitted but unacked
    child.0.kill().unwrap();
    child.0.wait().unwrap();
    drop(client);
    for (t, got) in acked.iter().enumerate() {
        assert_eq!(got, &want[t], "acked batch {t} diverged before the kill");
    }

    let engine = FleetEngine::open(crash_dcfg(&dir)).expect("recover");
    let resume = engine.batches();
    assert!((kill_after as u64..=sent).contains(&resume), "resume {resume}, sent {sent}");
    let server = NetServer::serve("127.0.0.1:0", engine).expect("serve the recovered engine");
    let mut client = NetClient::connect(server.local_addr()).expect("reconnect");
    for t in resume..total {
        let got = client.ingest(stream_batch(t, n_series)).unwrap();
        assert_eq!(got, want[t as usize], "batch {t} diverged after recovery");
    }
    assert!(want[resume as usize..].iter().flatten().any(ScoredPoint::is_anomaly));
    drop(client);
    // shutting the server down closes the engine: nothing left to replay
    server.shutdown();
    let reopened = FleetEngine::open(crash_dcfg(&dir)).unwrap();
    assert_eq!((reopened.batches(), reopened.durable_snapshot()), (total, total));
    drop(reopened);
    let _ = std::fs::remove_dir_all(&dir);
}
