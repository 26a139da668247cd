//! Property tests for the fleet snapshot codec (`fleet::codec`, format v7),
//! driven by the vendored `proptest` stand-in.
//!
//! Three properties:
//!
//! 1. **Round-trip bit-identity.** Arbitrary fleet states — varying shard
//!    counts, series mixes, stream lengths (warming and live phases), and
//!    per-series detection backends (fused / trend-CUSUM / ensemble)
//!    — encode to bytes that decode and re-encode to the *same* bytes, and
//!    a restored engine re-snapshots to those bytes too.
//! 2. **Truncation fails closed.** Every proper prefix of a valid snapshot
//!    decodes to a typed [`CodecError`], never a panic.
//! 3. **Corruption never panics.** A single-byte XOR anywhere either still
//!    decodes (bit-flips inside an f64 payload can be benign) or yields a
//!    typed error; arbitrary garbage byte strings are rejected outright.

use std::sync::OnceLock;

use oneshotstl_suite::core::ScoreConfig;
use oneshotstl_suite::fleet::{
    codec, AdmitOptions, BackendSelect, CodecError, FleetConfig, FleetEngine, PeriodPolicy,
    Record,
};
use proptest::prelude::*;

/// Declared period for every generated series (init_len = 3 periods = 36,
/// so streams past ~36 points mix live series in with warming ones).
const PERIOD: usize = 12;

/// The per-series backend selections a generated series can be admitted
/// with; `None` leaves the engine-wide default (fused) in place.
fn backend_menu() -> Vec<Option<BackendSelect>> {
    vec![
        None,
        Some(BackendSelect::Fused),
        Some(BackendSelect::TrendCusum(ScoreConfig::default())),
        Some(BackendSelect::Ensemble(ScoreConfig::default())),
        Some(BackendSelect::Ensemble(ScoreConfig::off())),
    ]
}

/// Builds an engine with `n_series` deterministic seasonal streams, one
/// backend selection per series rotated through [`backend_menu`], runs it
/// for `len` points, and returns its snapshot bytes.
fn snapshot_of(shards: usize, n_series: usize, len: u64, phase: f64, amp: f64) -> Vec<u8> {
    let mut engine = FleetEngine::new(FleetConfig {
        shards,
        period: PeriodPolicy::Fixed(PERIOD),
        ..Default::default()
    })
    .unwrap();
    let menu = backend_menu();
    for s in 0..n_series {
        if let Some(backend) = menu[s % menu.len()] {
            engine
                .set_admit_options(
                    format!("series-{s}"),
                    AdmitOptions { backend: Some(backend), ..Default::default() },
                )
                .unwrap();
        }
    }
    for t in 0..len {
        let batch = (0..n_series)
            .map(|s| {
                let w = 2.0 * std::f64::consts::PI * t as f64 / PERIOD as f64;
                // Seasonal wave plus a small deterministic "noise" term so
                // residuals are non-trivial without pulling in an RNG.
                let v = amp * (w + phase).sin() + 0.05 * (t as f64 * 13.7 + s as f64).sin();
                Record::new(format!("series-{s}"), t, v)
            })
            .collect();
        engine.ingest(batch).unwrap();
    }
    engine.snapshot_bytes().unwrap()
}

/// One fixed snapshot covering every backend kind, shared by the
/// truncation/corruption properties (building a fleet per case would
/// dominate their runtime for no extra coverage).
fn canonical_bytes() -> &'static [u8] {
    static BYTES: OnceLock<Vec<u8>> = OnceLock::new();
    BYTES.get_or_init(|| snapshot_of(2, 6, 90, 0.3, 2.0))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    #[test]
    fn arbitrary_fleet_states_roundtrip_bit_identically(
        shards in 1usize..4,
        n_series in 1usize..7,
        len in 5u64..110,
        phase in 0.0f64..6.25,
        amp in 0.5f64..3.0,
    ) {
        let bytes = snapshot_of(shards, n_series, len, phase, amp);

        // Codec-level bit identity: decode then re-encode reproduces the
        // exact byte string, and the decoded snapshot is a fixed point.
        let snap = codec::decode(&bytes).expect("own snapshot decodes");
        let re = codec::encode(&snap);
        prop_assert_eq!(&re, &bytes);
        prop_assert_eq!(codec::decode(&re).expect("re-encoded decodes"), snap);

        // Engine-level: a restored engine re-snapshots to the same bytes.
        let mut restored = FleetEngine::restore_bytes(&bytes).unwrap();
        prop_assert_eq!(restored.snapshot_bytes().unwrap(), bytes);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(300))]

    #[test]
    fn truncation_yields_typed_errors_never_panics(cut in 0usize..1_000_000) {
        let bytes = canonical_bytes();
        let cut = cut % bytes.len(); // always a *proper* prefix
        let err = codec::decode(&bytes[..cut]).expect_err("proper prefix must not decode");
        // Exercise Display; any CodecError variant is acceptable, a panic
        // is not (the `decode` call above would have unwound).
        prop_assert!(!err.to_string().is_empty());
    }

    #[test]
    fn single_byte_corruption_never_panics(pos in 0usize..1_000_000, flip in 1u32..256) {
        let mut bytes = canonical_bytes().to_vec();
        let pos = pos % bytes.len();
        bytes[pos] ^= flip as u8;
        match codec::decode(&bytes) {
            // A flip inside an f64 payload can decode to a different but
            // still-valid state; re-encoding it must not panic either.
            Ok(snap) => {
                let _ = codec::encode(&snap);
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
    fn garbage_bytes_are_rejected(raw in prop::collection::vec(0u32..256, 0usize..96)) {
        let garbage: Vec<u8> = raw.into_iter().map(|x| x as u8).collect();
        prop_assert!(codec::decode(&garbage).is_err());
    }

    #[test]
    fn garbage_after_valid_magic_never_panics(raw in prop::collection::vec(0u32..256, 0usize..64)) {
        let mut bytes = b"OSSTLFLT".to_vec();
        bytes.extend(raw.into_iter().map(|x| x as u8));
        // Random tails overwhelmingly fail (bad version, truncated body,
        // range-checked fields); the property is simply "no panic".
        let _ = codec::decode(&bytes);
    }
}

/// Lowercase hex of `bytes`, so a pin mismatch prints a readable diff.
fn hex(bytes: &[u8]) -> String {
    bytes.iter().map(|b| format!("{b:02x}")).collect()
}

/// The records every frame pin carries: a non-ASCII key, a NaN with a
/// non-default payload, `-0.0`, `+inf` and the extreme event times.
fn pin_records() -> Vec<Record> {
    vec![
        Record::new("héllo/ключ", 7, f64::from_bits(0x7FF8_0000_DEAD_BEEF)),
        Record::new("a", u64::MAX, -0.0),
        Record::new("∞/b", 0, f64::INFINITY),
    ]
}

/// The same records' bits, for comparisons that NaN would defeat.
fn record_bits(records: &[Record]) -> Vec<(String, u64, u64)> {
    records.iter().map(|r| (r.key.as_str().to_string(), r.t, r.value.to_bits())).collect()
}

/// A WAL segment (a 3-record batch and an empty one), a cold file (two
/// puts and a tombstone) and two wire frames (`IngestBatch`, and `Scored`
/// with every `PointOutput` variant) must keep the exact bytes recorded
/// from the build before the frame codec was shared. Each fixture must also
/// read back to its inputs, so the readers are pinned as well as the
/// writers.
#[test]
fn wal_cold_and_wire_frames_match_the_previous_build_byte_for_byte() {
    use oneshotstl_suite::fleet::cold_tier::cold_file_name;
    use oneshotstl_suite::fleet::net::{decode_frame_exact, encode_frame, NetMessage};
    use oneshotstl_suite::fleet::wal::{read_segment, segment_file_name, Wal};
    use oneshotstl_suite::fleet::{ColdStore, PointOutput, ScoredPoint, SeriesKey};
    use oneshotstl_suite::tskit::DecompPoint;

    let dir = std::env::temp_dir().join(format!("fleet-frame-pins-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    let records = pin_records();

    // WAL: segment after batch 41, holding batch 42 (3 records) and 43
    // (empty)
    let mut wal = Wal::create(&dir, 41, 1).unwrap();
    wal.encode(42, &records);
    wal.append().unwrap();
    wal.encode(43, &[]);
    wal.append().unwrap();
    drop(wal);
    let wal_path = dir.join(segment_file_name(41));
    assert_eq!(hex(&std::fs::read(&wal_path).unwrap()), WAL_PIN, "WAL segment bytes");
    let seg = read_segment(&wal_path).unwrap().expect("a current-version segment");
    assert_eq!((seg.start_seq, seg.torn, seg.frames.len()), (41, false, 2));
    assert_eq!((seg.frames[0].seq, seg.frames[1].seq), (42, 43));
    assert_eq!(record_bits(&seg.frames[0].records), record_bits(&records));
    assert!(seg.frames[1].records.is_empty());

    // cold tier: shard 3, two puts and a tombstone for the first key
    let (gone, kept) = (SeriesKey::new("héllo/ключ"), SeriesKey::new("∞/b"));
    let mut store = ColdStore::open(&dir, 3).unwrap();
    store.put(&gone, 99, &[1, 2, 3, 0xFF]).unwrap();
    store.put(&kept, u64::MAX, &[0xAB; 5]).unwrap();
    assert!(store.tombstone(&gone).unwrap());
    store.sync().unwrap();
    drop(store);
    let cold_path = dir.join(cold_file_name(3));
    assert_eq!(hex(&std::fs::read(&cold_path).unwrap()), COLD_PIN, "cold file bytes");
    let mut store = ColdStore::open(&dir, 3).unwrap();
    assert_eq!(store.resident(), 1);
    assert!(!store.has_entry(&gone));
    assert_eq!(store.take_blob(&kept).unwrap(), (u64::MAX, vec![0xAB; 5]));
    drop(store);

    // wire: an ingest request and a reply with every output variant
    let point = DecompPoint { trend: f64::NEG_INFINITY, seasonal: -0.0, residual: f64::NAN };
    let outputs = [
        PointOutput::Warming { buffered: 3, needed: Some(72) },
        PointOutput::Scored {
            point,
            score: f64::from_bits(0xFFF0_0000_0000_0001),
            is_anomaly: true,
        },
        PointOutput::Rejected,
        PointOutput::Quarantined,
    ];
    let scored = records
        .iter()
        .cycle()
        .zip(outputs)
        .map(|(r, output)| ScoredPoint { key: r.key.clone(), t: r.t, value: r.value, output })
        .collect();
    for (msg, pin) in [
        (NetMessage::IngestBatch(records.clone()), INGEST_PIN),
        (NetMessage::Scored(scored), SCORED_PIN),
    ] {
        let frame = encode_frame(&msg);
        assert_eq!(hex(&frame), pin, "wire frame bytes");
        // NaN defeats `PartialEq`: the decoded message must re-encode to
        // the same bytes instead
        let decoded = decode_frame_exact(&frame).unwrap();
        assert_eq!(hex(&encode_frame(&decoded)), pin, "wire frame read back");
    }
    let _ = std::fs::remove_dir_all(&dir);
}

const WAL_PIN: &str = concat!(
    "4f53544c574c4f47020029000000000000005d0000000eb582d12a00000000000000030000000700",
    "000000000000efbeadde0000f87f0f00000068c3a96c6c6f2fd0bad0bbd18ed187ffffffffffffff",
    "ff000000000000008001000000610000000000000000000000000000f07f05000000e2889e2f620c",
    "00000099b976122b0000000000000000000000",
);
const COLD_PIN: &str = concat!(
    "4f53544c434f4c4401000300000020000000d5bc18cb0063000000000000000f00000068c3a96c6c",
    "6f2fd0bad0bbd18ed187010203ff1700000038972fd500ffffffffffffffff05000000e2889e2f62",
    "ababababab1c00000016b278060100000000000000000f00000068c3a96c6c6f2fd0bad0bbd18ed1",
    "87",
);
const INGEST_PIN: &str = concat!(
    "56000000a693e9a601030000000700000000000000efbeadde0000f87f0f00000068c3a96c6c6f2f",
    "d0bad0bbd18ed187ffffffffffffffff000000000000008001000000610000000000000000000000",
    "000000f07f05000000e2889e2f62",
);
const SCORED_PIN: &str = concat!(
    "af000000f2ada86880040000000700000000000000efbeadde0000f87f0f00000068c3a96c6c6f2f",
    "d0bad0bbd18ed187000300000000000000014800000000000000ffffffffffffffff000000000000",
    "0080010000006101000000000000f0ff0000000000000080000000000000f87f010000000000f0ff",
    "010000000000000000000000000000f07f05000000e2889e2f62020700000000000000efbeadde00",
    "00f87f0f00000068c3a96c6c6f2fd0bad0bbd18ed18703",
);
