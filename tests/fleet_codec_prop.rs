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
