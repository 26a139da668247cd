//! Fleet engine integration: multi-series ingest through warm-up admission,
//! snapshot mid-stream, restore, and bit-identical continuation.

use oneshotstl_suite::core::ScoreConfig;
use oneshotstl_suite::fleet::series::{LiveSeries, SeriesState};
use oneshotstl_suite::fleet::{
    codec, BackendSelect, FleetConfig, FleetEngine, PeriodPolicy, PointOutput, Record,
    SeriesBackend, SeriesKey,
};
use oneshotstl_suite::tskit::synth::{gaussian_noise, inject, AnomalyKind, SeasonTemplate};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Length of every pre-generated per-series stream.
const STREAM_LEN: usize = 420;

/// Synthetic multi-series workload built from `tskit::synth` pieces:
/// a random seasonal template (period 24) + Gaussian noise per series,
/// with spikes injected into every 4th series' live region. Deterministic
/// per series index.
fn build_streams(n_series: usize) -> Vec<Vec<f64>> {
    (0..n_series)
        .map(|s| {
            let mut rng = StdRng::seed_from_u64(1000 + s as u64);
            let template = SeasonTemplate::random(24, 3, &mut rng);
            let mut y = template.render(STREAM_LEN, 2.0 + (s % 3) as f64);
            for (v, e) in y.iter_mut().zip(gaussian_noise(STREAM_LEN, 0.05, &mut rng)) {
                *v += e;
            }
            if s % 4 == 0 {
                let mut labels = vec![false; STREAM_LEN];
                let at = 150 + 11 * (s % 7);
                inject(&mut y, &mut labels, AnomalyKind::Spike, at, 1, 1.0, &mut rng);
            }
            y
        })
        .collect()
}

fn batch(streams: &[Vec<f64>], t: u64) -> Vec<Record> {
    streams
        .iter()
        .enumerate()
        .map(|(s, y)| Record::new(format!("series-{s}"), t, y[t as usize]))
        .collect()
}

fn config() -> FleetConfig {
    FleetConfig { shards: 3, period: PeriodPolicy::Fixed(24), ..Default::default() }
}

/// The headline guarantee: snapshot → restore → continue produces scores
/// bit-identical to the uninterrupted engine, point for point.
#[test]
fn snapshot_restore_is_bit_identical() {
    let n_series = 20;
    let warm = 100u64; // past init_len(24) = 72: every series is live
    let tail = 120u64;
    let streams = build_streams(n_series);

    // uninterrupted run
    let mut full = FleetEngine::new(config()).unwrap();
    for t in 0..warm {
        full.ingest(batch(&streams, t)).unwrap();
    }
    let mut full_outputs = Vec::new();
    for t in warm..warm + tail {
        full_outputs.push(full.ingest(batch(&streams, t)).unwrap());
    }

    // interrupted run: same prefix, snapshot, restore, same tail
    let mut first = FleetEngine::new(config()).unwrap();
    for t in 0..warm {
        first.ingest(batch(&streams, t)).unwrap();
    }
    let bytes = first.snapshot_bytes().unwrap();
    drop(first); // "crash"
    let mut restored = FleetEngine::restore_bytes(&bytes).unwrap();
    for (i, t) in (warm..warm + tail).enumerate() {
        let out = restored.ingest(batch(&streams, t)).unwrap();
        let reference = &full_outputs[i];
        assert_eq!(out.len(), reference.len());
        for (a, b) in out.iter().zip(reference) {
            assert_eq!(a.key, b.key);
            match (&a.output, &b.output) {
                (
                    PointOutput::Scored { point: pa, score: sa, is_anomaly: fa },
                    PointOutput::Scored { point: pb, score: sb, is_anomaly: fb },
                ) => {
                    // bit-identical, not approximately equal
                    assert_eq!(pa.trend.to_bits(), pb.trend.to_bits(), "{} t={t}", a.key);
                    assert_eq!(pa.seasonal.to_bits(), pb.seasonal.to_bits());
                    assert_eq!(pa.residual.to_bits(), pb.residual.to_bits());
                    assert_eq!(sa.to_bits(), sb.to_bits());
                    assert_eq!(fa, fb);
                }
                (oa, ob) => assert_eq!(oa, ob, "{} t={t}", a.key),
            }
        }
    }

    // counters carried across the restore
    let stats = restored.stats().unwrap();
    assert_eq!(stats.live, n_series);
    assert_eq!(stats.points, (warm + tail) * n_series as u64);
    assert_eq!(stats.admitted, n_series as u64);
}

/// Codec v5 carries the fused residual scorer's dynamic state (CUSUM
/// accumulators + peak-hold), not just the NSigma sums: a snapshot taken
/// *mid-excursion* — right after a level shift started, while the CUSUM
/// is charged and the peak-hold is decaying — must continue
/// bit-identically. (If restore zeroed any scorer field, the held score
/// of every following point would differ.)
#[test]
fn mid_excursion_scorer_state_survives_snapshot() {
    let period = 24usize;
    let warm = 100u64; // past init_len(24) = 72: the series is live
    let shift_at = 110u64; // the excursion is in flight at the snapshot…
    let snap_at = 115u64; // …and the accumulators are mid-charge here
    let tail = 150u64;
    let y: Vec<f64> = (0..(warm + tail) as usize)
        .map(|i| {
            let base = (2.0 * std::f64::consts::PI * i as f64 / period as f64).sin();
            // a sustained level shift: the adaptive trend absorbs it, so
            // only the CUSUM/hold state distinguishes the points after it
            base + if i as u64 >= shift_at { 2.5 } else { 0.0 }
        })
        .collect();
    let one = |t: u64| vec![Record::new("s", t, y[t as usize])];

    let mut full = FleetEngine::new(config()).unwrap();
    for t in 0..snap_at {
        full.ingest(one(t)).unwrap();
    }
    let bytes = full.snapshot_bytes().unwrap();
    let mut restored = FleetEngine::restore_bytes(&bytes).unwrap();
    let mut held_score_seen = false;
    for t in snap_at..warm + tail {
        let (a, b) = (full.ingest(one(t)).unwrap(), restored.ingest(one(t)).unwrap());
        match (&a[0].output, &b[0].output) {
            (
                PointOutput::Scored { score: sa, is_anomaly: fa, .. },
                PointOutput::Scored { score: sb, is_anomaly: fb, .. },
            ) => {
                assert_eq!(sa.to_bits(), sb.to_bits(), "held score diverged at t={t}");
                assert_eq!(fa, fb);
                if *sa > 1.0 {
                    held_score_seen = true;
                }
            }
            (oa, ob) => assert_eq!(oa, ob, "t={t}"),
        }
    }
    assert!(held_score_seen, "the excursion must actually exercise the fused path");
}

/// A snapshot can be restored onto a different shard count without
/// changing a single output bit (per-series state is shard-agnostic).
#[test]
fn restore_reshards_without_changing_scores() {
    let n_series = 12;
    let streams = build_streams(n_series);
    let mut a = FleetEngine::new(config()).unwrap();
    for t in 0..90 {
        a.ingest(batch(&streams, t)).unwrap();
    }
    let snap = a.snapshot().unwrap();
    let mut one = FleetEngine::restore_with_shards(snap.clone(), 1).unwrap();
    let mut eight = FleetEngine::restore_with_shards(snap, 8).unwrap();
    assert_eq!(one.shard_count(), 1);
    assert_eq!(eight.shard_count(), 8);
    for t in 90..160 {
        let oa = one.ingest(batch(&streams, t)).unwrap();
        let ob = eight.ingest(batch(&streams, t)).unwrap();
        for (x, y) in oa.iter().zip(&ob) {
            assert_eq!(x, y, "t={t}");
        }
    }
}

/// TTL eviction drops idle series and the engine readmits them on return.
#[test]
fn ttl_evicts_idle_series() {
    let mut engine = FleetEngine::new(FleetConfig {
        shards: 2,
        period: PeriodPolicy::Fixed(8),
        ttl: Some(50),
        ..Default::default()
    })
    .unwrap();
    let streams = build_streams(2);
    // two live series
    for t in 0..40 {
        engine.ingest(batch(&streams, t)).unwrap();
    }
    assert_eq!(engine.stats().unwrap().live, 2);
    // only series-0 keeps reporting
    for t in 40..400 {
        engine.ingest(vec![Record::new("series-0", t, streams[0][t as usize])]).unwrap();
    }
    let stats = engine.stats().unwrap();
    assert_eq!(stats.live, 1, "idle series should be TTL-evicted");
    assert_eq!(stats.evicted, 1);
    // the evicted series re-enters through warm-up
    let p = engine.ingest_one("series-1", 400, streams[1][400]).unwrap();
    assert!(matches!(p.output, PointOutput::Warming { buffered: 1, .. }));
}

/// A bounded clock step contains timestamp poisoning: one absurd `t` must
/// not let the next TTL sweep evict the whole fleet.
#[test]
fn bounded_clock_step_contains_timestamp_poisoning() {
    let streams = build_streams(3);
    let mut engine = FleetEngine::new(FleetConfig {
        shards: 2,
        period: PeriodPolicy::Fixed(8),
        ttl: Some(100),
        max_clock_step: Some(10),
        ..Default::default()
    })
    .unwrap();
    for t in 0..64 {
        engine.ingest(batch(&streams, t)).unwrap();
    }
    assert_eq!(engine.stats().unwrap().live, 3);
    // a poisoned record claims t ~ milliseconds-epoch; the clock may only
    // advance by 10 per record, so the healthy series stay inside the TTL
    engine.ingest(vec![Record::new("poison", 1_700_000_000_000, 1.0)]).unwrap();
    assert!(engine.clock() <= 64 + 10, "clock jump must be bounded, got {}", engine.clock());
    for t in 64..200 {
        engine.ingest(batch(&streams, t)).unwrap();
    }
    let stats = engine.stats().unwrap();
    assert_eq!(stats.live, 3, "healthy series must survive the poisoned timestamp");
    // the poisoned series itself ages out normally (its liveness clock is
    // clamped too), so exactly one eviction: the poison, never the fleet
    assert_eq!(stats.evicted, 1);
}

/// A future-dated record must not make its own series immune to TTL
/// eviction: liveness tracking uses the clamped clock, not the raw `t`.
#[test]
fn poisoned_series_itself_is_still_evictable() {
    let streams = build_streams(1);
    let mut engine = FleetEngine::new(FleetConfig {
        shards: 2,
        period: PeriodPolicy::Fixed(8),
        ttl: Some(100),
        max_clock_step: Some(10),
        ..Default::default()
    })
    .unwrap();
    engine.ingest(vec![Record::new("poison", u64::MAX, 1.0)]).unwrap();
    // keep the healthy series reporting long enough for sweeps to run
    for t in 0..400 {
        engine.ingest(vec![Record::new("series-0", t, streams[0][t as usize])]).unwrap();
    }
    let stats = engine.stats().unwrap();
    assert_eq!(stats.live + stats.warming, 1, "poisoned series must be evicted");
    assert_eq!(stats.evicted, 1);
}

/// A well-formed snapshot with a corrupted step counter must fail at
/// restore, not panic a shard worker on the next update.
#[test]
fn corrupted_step_counter_fails_at_restore() {
    let streams = build_streams(1);
    let mut engine = FleetEngine::new(config()).unwrap();
    for t in 0..100 {
        engine.ingest(vec![Record::new("series-0", t, streams[0][t as usize])]).unwrap();
    }
    let mut snap = engine.snapshot().unwrap();
    match &mut snap.series[0].state {
        oneshotstl_suite::fleet::series::SeriesState::Live(live) => {
            live.detector.decomposer.m += 1; // bit-flip-style corruption
        }
        other => panic!("expected a live series, got {other:?}"),
    }
    assert!(FleetEngine::restore(snap).is_err());
}

/// A snapshot edited in memory is held to the value checks its bytes
/// would be: a trend CUSUM whose `prev` is NaN, or a residual CUSUM
/// accumulator past its `2h` clamp, is refused by `restore` exactly as
/// `restore_bytes` refuses the same state encoded.
#[test]
fn restore_refuses_the_values_the_codec_refuses() {
    let streams = build_streams(1);
    let mut engine = FleetEngine::new(FleetConfig {
        backend: BackendSelect::TrendCusum(ScoreConfig::default()),
        ..config()
    })
    .unwrap();
    for t in 0..100 {
        engine.ingest(vec![Record::new("series-0", t, streams[0][t as usize])]).unwrap();
    }
    let intact = engine.snapshot().unwrap();
    assert!(FleetEngine::restore_bytes(&codec::encode(&intact)).is_ok());
    let edits: [&dyn Fn(&mut LiveSeries); 2] = [
        &|live| {
            let Some(SeriesBackend::TrendCusum(t)) = live.backend.as_deref_mut() else {
                panic!("expected a trend-CUSUM backend");
            };
            assert!(t.has_prev, "the trend CUSUM has seen the stream");
            t.prev = f64::NAN;
        },
        &|live| {
            let cusum = &mut live.detector.scorer;
            cusum.s_pos = 2.0 * cusum.config.cusum_h + 1.0;
        },
    ];
    for (i, edit) in edits.iter().enumerate() {
        let mut snap = intact.clone();
        let SeriesState::Live(live) = &mut snap.series[0].state else {
            panic!("expected a live series");
        };
        edit(live);
        let bytes = codec::encode(&snap);
        assert!(FleetEngine::restore_bytes(&bytes).is_err(), "edit {i}: bytes restored");
        assert!(FleetEngine::restore(snap).is_err(), "edit {i}: snapshot restored");
    }
}

/// Period detection admits an undeclared-period series; white noise hits
/// the warm-up cap and is rejected when no fallback is configured.
#[test]
fn detect_admission_and_noise_rejection() {
    let mut engine = FleetEngine::new(FleetConfig {
        shards: 2,
        period: PeriodPolicy::Detect {
            min_period: 4,
            max_period: 64,
            // a high bar: white noise ACF is ~N(0, n^{-1/2}), so 0.6 keeps
            // spurious small-buffer detections out
            min_acf: 0.6,
            fallback: None,
        },
        ..Default::default()
    })
    .unwrap();
    let mut rng = StdRng::seed_from_u64(17);
    let mut seasonal_live = false;
    let mut noise_rejected = false;
    for t in 0..300u64 {
        let seasonal = (2.0 * std::f64::consts::PI * t as f64 / 16.0).sin();
        let noise: f64 = rng.gen_range(-1.0..1.0);
        let out = engine
            .ingest(vec![Record::new("seasonal", t, seasonal), Record::new("noise", t, noise)])
            .unwrap();
        if matches!(out[0].output, PointOutput::Scored { .. }) {
            seasonal_live = true;
        }
        if matches!(out[1].output, PointOutput::Rejected) {
            noise_rejected = true;
        }
    }
    assert!(seasonal_live, "seasonal series should be detected and admitted");
    assert!(noise_rejected, "noise series should overflow warm-up and be rejected");
    let stats = engine.stats().unwrap();
    assert_eq!(stats.live, 1);
    assert_eq!(stats.rejected, 1);
    // period detection found T=16: the forecast is periodic
    let f =
        engine.forecast_one(&"seasonal".into(), 32).unwrap().expect("live series forecasts");
    for i in 0..16 {
        assert!((f[i] - f[i + 16]).abs() < 1e-9, "forecast repeats with T=16");
    }
    // the batch API returns one slot per key, in request order: the
    // rejected series and an unknown key answer None
    let keys = [SeriesKey::new("noise"), SeriesKey::new("seasonal"), SeriesKey::new("ghost")];
    let batch = engine.forecast(&keys, 4).unwrap();
    assert_eq!(batch.len(), 3);
    assert!(batch[0].is_none(), "rejected series does not forecast");
    assert_eq!(batch[1].as_deref(), Some(&f[..4]), "batch agrees with forecast_one");
    assert!(batch[2].is_none(), "unknown key does not forecast");
}

/// Per-series `AdmitOptions` shape admission (declared period, tighter
/// NSigma, exhaustive shift search) and survive snapshot v4 → restore
/// bit-identically — including overrides still pending on a warming
/// series at snapshot time.
#[test]
fn admit_options_survive_snapshot_and_shape_admission() {
    use oneshotstl_suite::core::{Fusion, ScoreConfig, ShiftPrune};
    use oneshotstl_suite::fleet::{AdmitOptions, BackendSelect, ForecastOptions};

    let n_ticks = 160u64;
    // two streams: "std" follows the engine's fixed period 24, "vip" is a
    // period-12 signal the engine would mis-model without the override
    let value = |key: &str, t: u64| -> f64 {
        let period = if key == "vip" { 12.0 } else { 24.0 };
        (2.0 * std::f64::consts::PI * t as f64 / period).sin() + 0.001 * t as f64
    };
    let tick = |t: u64| -> Vec<Record> {
        vec![Record::new("std", t, value("std", t)), Record::new("vip", t, value("vip", t))]
    };
    let opts = AdmitOptions {
        lambda: Some(0.5),
        nsigma: Some(3.5),
        period: Some(12),
        shift_search: Some(ShiftPrune::Off),
        score: Some(ScoreConfig {
            cusum_k: 0.4,
            cusum_h: 5.0,
            hold_decay: 0.95,
            fusion: Fusion::Cusum,
        }),
        // a forecast-head override rides the same snapshot path
        forecast: Some(ForecastOptions { damping: 0.8, ..ForecastOptions::on() }),
        // and so does a detection-backend override (codec v7)
        backend: Some(BackendSelect::Ensemble(ScoreConfig::default())),
    };

    // uninterrupted reference
    let mut reference = FleetEngine::new(config()).unwrap();
    reference.set_admit_options("vip", opts).unwrap();
    let mut ref_outputs = Vec::new();
    let mut vip_admitted_at = None;
    for t in 0..n_ticks {
        let out = reference.ingest(tick(t)).unwrap();
        if vip_admitted_at.is_none() && matches!(out[1].output, PointOutput::Scored { .. }) {
            vip_admitted_at = Some(t);
        }
        ref_outputs.push(out);
    }
    // the declared period 12 admits at init_len(12) = 36 — half the
    // engine-default warm-up (init_len(24) = 72), proving the override
    // reached the admission path (scoring starts one tick after promote)
    assert_eq!(vip_admitted_at, Some(36), "override period must set the warm-up length");

    // interrupted run: snapshot while "vip"'s overrides are still pending
    // (t = 20 < 36), restore, continue — bit-identical to the reference
    let mut first = FleetEngine::new(config()).unwrap();
    first.set_admit_options("vip", opts).unwrap();
    for t in 0..20 {
        first.ingest(tick(t)).unwrap();
    }
    let bytes = first.snapshot_bytes().unwrap();
    drop(first);
    let mut restored = FleetEngine::restore_bytes(&bytes).unwrap();
    for t in 20..n_ticks {
        let out = restored.ingest(tick(t)).unwrap();
        assert_eq!(out, ref_outputs[t as usize], "restored stream diverged at t={t}");
    }

    // the tuning window closes at admission: both the live "vip" and the
    // live "std" series reject further overrides with a typed error
    for key in ["vip", "std"] {
        match restored.set_admit_options(key, AdmitOptions::default()) {
            Err(oneshotstl_suite::fleet::FleetError::AlreadyAdmitted { key: k }) => {
                assert_eq!(k.as_str(), key)
            }
            other => panic!("expected AlreadyAdmitted for {key}, got {other:?}"),
        }
    }

    // registering options for an unseen key pre-creates the series, and
    // invalid overrides are rejected up front
    restored
        .set_admit_options("future", AdmitOptions { period: Some(12), ..Default::default() })
        .unwrap();
    assert_eq!(restored.stats().unwrap().warming, 1);
    assert!(restored
        .set_admit_options("bad", AdmitOptions { period: Some(1), ..Default::default() })
        .is_err());
    assert!(restored
        .set_admit_options("bad", AdmitOptions { nsigma: Some(-1.0), ..Default::default() })
        .is_err());
}

/// Replacing a pending override set mid-warm-up must leave the live
/// warm-up and its restored twin in the same state: a period override
/// replaced by a nsigma-only set reverts to the engine's declared period
/// on *both* sides (any other rule lets them admit under different
/// periods and diverge).
#[test]
fn replacing_overrides_keeps_live_and_restored_warmups_in_lockstep() {
    use oneshotstl_suite::fleet::AdmitOptions;

    let mut live = FleetEngine::new(config()).unwrap(); // Fixed(24)
    live.set_admit_options("vip", AdmitOptions { period: Some(12), ..Default::default() })
        .unwrap();
    // replace with a nsigma-only set: the period override is withdrawn
    live.set_admit_options("vip", AdmitOptions { nsigma: Some(3.5), ..Default::default() })
        .unwrap();
    let mut restored = FleetEngine::restore_bytes(&live.snapshot_bytes().unwrap()).unwrap();
    let mut admitted_at = None;
    for t in 0..120u64 {
        let v = (2.0 * std::f64::consts::PI * t as f64 / 24.0).sin();
        let a = live.ingest_one("vip", t, v).unwrap();
        let b = restored.ingest_one("vip", t, v).unwrap();
        assert_eq!(a, b, "live and restored warm-ups diverged at t={t}");
        if admitted_at.is_none() && matches!(a.output, PointOutput::Scored { .. }) {
            admitted_at = Some(t);
        }
    }
    assert_eq!(
        admitted_at,
        Some(72),
        "withdrawing the override reverts to the declared period"
    );
}

/// A warming series takes its period from the config it is restored
/// under, as a live warm-up does: an image taken under a declared period
/// of 24 and restored under one of 12 admits its warm-up at `init_len(12)`,
/// both from bytes and in memory.
#[test]
fn a_restored_warmup_takes_the_declared_period_it_is_restored_under() {
    use oneshotstl_suite::fleet::codec;

    let mut engine = FleetEngine::new(config()).unwrap(); // Fixed(24)
    let wave = |t: u64| (2.0 * std::f64::consts::PI * t as f64 / 12.0).sin();
    for t in 0..10u64 {
        engine.ingest_one("warm", t, wave(t)).unwrap();
    }
    let mut snap = engine.snapshot().unwrap();
    snap.config.period = PeriodPolicy::Fixed(12);
    let from_bytes = FleetEngine::restore_bytes(&codec::encode(&snap)).unwrap();
    for mut restored in [from_bytes, FleetEngine::restore(snap).unwrap()] {
        let admitted_at = (10..80u64).find(|&t| {
            let out = restored.ingest_one("warm", t, wave(t)).unwrap();
            matches!(out.output, PointOutput::Scored { .. })
        });
        assert_eq!(admitted_at, Some(36), "the restore's declared period wins");
    }
}

/// The codec carries each live series' forecast head, its damping `φ`. A
/// snapshot of a forecasting fleet must continue bit-identically on both
/// channels — the scoring stream and the forecasts themselves — and a
/// later snapshot of the restored engine must be byte-identical to the
/// uninterrupted one's.
#[test]
fn forecast_state_survives_snapshot_bit_identically() {
    use oneshotstl_suite::fleet::ForecastOptions;

    let n_series = 12;
    let warm = 100u64; // past init_len(24) = 72: every series is live
    let tail = 80u64;
    let streams = build_streams(n_series);
    let cfg = || FleetConfig {
        forecast: ForecastOptions { enabled: true, damping: 0.9 },
        ..config()
    };
    let keys: Vec<SeriesKey> =
        (0..n_series).map(|s| SeriesKey::new(format!("series-{s}"))).collect();

    // uninterrupted run
    let mut full = FleetEngine::new(cfg()).unwrap();
    for t in 0..warm {
        full.ingest(batch(&streams, t)).unwrap();
    }
    // interrupted run: same prefix, snapshot, restore
    let mut first = FleetEngine::new(cfg()).unwrap();
    for t in 0..warm {
        first.ingest(batch(&streams, t)).unwrap();
    }
    let bytes = first.snapshot_bytes().unwrap();
    drop(first); // "crash"
    let mut restored = FleetEngine::restore_bytes(&bytes).unwrap();

    // the heads survived: forecasts agree before any new point
    let fa = full.forecast(&keys, 48).unwrap();
    let fb = restored.forecast(&keys, 48).unwrap();
    for (s, (a, b)) in fa.iter().zip(&fb).enumerate() {
        let (a, b) = (a.as_ref().unwrap(), b.as_ref().unwrap());
        for (x, y) in a.iter().zip(b) {
            assert_eq!(x.to_bits(), y.to_bits(), "series-{s}: restored forecast differs");
        }
    }

    // …and the continuation agrees point for point, forecast for forecast
    for t in warm..warm + tail {
        let oa = full.ingest(batch(&streams, t)).unwrap();
        let ob = restored.ingest(batch(&streams, t)).unwrap();
        for (a, b) in oa.iter().zip(&ob) {
            assert_eq!(a.output, b.output, "{} t={t}", a.key);
        }
        if t % 16 == 0 {
            let fa = full.forecast(&keys, 24).unwrap();
            let fb = restored.forecast(&keys, 24).unwrap();
            assert_eq!(fa, fb, "forecast streams diverged at t={t}");
        }
    }

    // the strongest form: a later snapshot of the restored engine is
    // byte-identical to the uninterrupted engine's
    assert_eq!(full.snapshot_bytes().unwrap(), restored.snapshot_bytes().unwrap());
}

/// The stats-counter snapshot contract. Lifetime counters (`points`,
/// `anomalies`, `admitted`, `evicted`) carry across a snapshot/restore;
/// the diagnostic counters (`shift_searches`, `shift_trials`, `z_alarms`,
/// `cusum_alarms`, and the backend's `trend_alarms`)
/// are documented as *not serialized* — they reset on a restore from
/// bytes and then accumulate in lockstep with the reference: because
/// the continuation is bit-identical, the restored engine's diagnostic
/// counts at the end must equal exactly the alarms the reference fired
/// *after* the snapshot point. An in-memory restore of a snapshot keeps
/// them.
#[test]
fn stats_counters_obey_the_snapshot_contract() {
    use oneshotstl_suite::fleet::{AdmitOptions, BackendSelect, FleetStats, ForecastOptions};

    let n_series = 6;
    let mid = 170u64;
    let total = 340u64;
    let mut streams = build_streams(n_series);
    // spikes on both sides of the snapshot so every alarm channel has
    // counts to lose at restore and counts to re-accumulate afterwards,
    // at irregular spacing/sign/size
    for y in streams.iter_mut() {
        for (at, delta) in
            [(141usize, 3.5), (157, -4.5), (216, 5.0), (233, -6.0), (262, 4.0), (301, 7.0)]
        {
            y[at] += delta;
        }
    }

    let opts: [AdmitOptions; 4] = [
        // series-0: ensemble under a low bar — the test needs alarms on
        // both sides of the snapshot, not a tuned detector
        AdmitOptions {
            nsigma: Some(0.9),
            backend: Some(BackendSelect::Ensemble(Default::default())),
            ..Default::default()
        },
        // series-1: ensemble at the default bar
        AdmitOptions {
            backend: Some(BackendSelect::Ensemble(Default::default())),
            ..Default::default()
        },
        // series-2: trend-innovation CUSUM (trend_alarms)
        AdmitOptions {
            backend: Some(BackendSelect::TrendCusum(Default::default())),
            ..Default::default()
        },
        // series-3: forecast head
        AdmitOptions { forecast: Some(ForecastOptions::on()), ..Default::default() },
    ];

    // uninterrupted reference, with its counters read at the snapshot point
    let mut reference = FleetEngine::new(config()).unwrap();
    for (s, o) in opts.iter().enumerate() {
        reference.set_admit_options(format!("series-{s}"), *o).unwrap();
    }
    let mut ref_outputs = Vec::new();
    let mut ref_mid = None;
    for t in 0..total {
        ref_outputs.push(reference.ingest(batch(&streams, t)).unwrap());
        if t + 1 == mid {
            ref_mid = Some(reference.stats().unwrap());
        }
    }
    let ref_mid = ref_mid.unwrap();
    let ref_end = reference.stats().unwrap();

    // the channels under test actually fired on both sides of `mid`
    assert!(ref_mid.z_alarms > 0, "pre-snapshot z alarms: {ref_mid:?}");
    assert!(ref_end.trend_alarms > 0, "trend backend never alarmed: {ref_end:?}");

    // interrupted run: snapshot at `mid`, restore, continue bit-identically
    let mut first = FleetEngine::new(config()).unwrap();
    for (s, o) in opts.iter().enumerate() {
        first.set_admit_options(format!("series-{s}"), *o).unwrap();
    }
    for t in 0..mid {
        first.ingest(batch(&streams, t)).unwrap();
    }
    // an in-memory snapshot is a clone of every series, and a restore
    // moves them in as they are: the diagnostic counters come along
    let kept = FleetEngine::restore(first.snapshot().unwrap()).unwrap().stats().unwrap();
    let diag = |s: &FleetStats| (s.shift_searches, s.shift_trials, s.z_alarms, s.cusum_alarms);
    assert_eq!(diag(&kept), diag(&ref_mid), "an in-memory restore keeps the counters");
    assert_eq!(kept.trend_alarms, ref_mid.trend_alarms);
    let bytes = first.snapshot_bytes().unwrap();
    drop(first);
    let mut restored = FleetEngine::restore_bytes(&bytes).unwrap();
    for t in mid..total {
        let out = restored.ingest(batch(&streams, t)).unwrap();
        assert_eq!(out, ref_outputs[t as usize], "restored stream diverged at t={t}");
    }
    let got = restored.stats().unwrap();

    // lifetime counters carried across the snapshot
    assert_eq!(got.points, ref_end.points);
    assert_eq!(got.anomalies, ref_end.anomalies);
    assert_eq!(got.admitted, ref_end.admitted);
    assert_eq!(got.evicted, ref_end.evicted);

    // diagnostic counters reset at restore, then tracked the reference's
    // post-snapshot increments exactly
    assert_eq!(got.shift_searches, ref_end.shift_searches - ref_mid.shift_searches);
    assert_eq!(got.shift_trials, ref_end.shift_trials - ref_mid.shift_trials);
    assert_eq!(got.z_alarms, ref_end.z_alarms - ref_mid.z_alarms);
    assert_eq!(got.cusum_alarms, ref_end.cusum_alarms - ref_mid.cusum_alarms);
    assert_eq!(got.trend_alarms, ref_end.trend_alarms - ref_mid.trend_alarms);
    assert!(got.trend_alarms > 0, "no post-snapshot trend alarms to track: {got:?}");
    assert_eq!((got.forecast_alarms, ref_end.forecast_alarms), (0, 0), "heads raise no alarms");

    // the health counters are lifetime counters: carried across the
    // snapshot (zero on a healthy run; nonzero carry is pinned by
    // tests/fleet_faults.rs)
    assert_eq!(got.wal_retries, ref_end.wal_retries);
    assert_eq!(got.shard_restarts, ref_end.shard_restarts);
    assert_eq!(got.undurable_batches, ref_end.undurable_batches);
    assert_eq!(got.quarantined, 0, "healthy restore quarantines nothing");

    // and the backend-bearing fleet's later snapshot is byte-identical to
    // the uninterrupted engine's — counters aside, no state was dropped
    assert_eq!(reference.snapshot_bytes().unwrap(), restored.snapshot_bytes().unwrap());
}

/// A huge but finite value, whose square overflows `f64`, must not poison
/// a live series' running statistics: the decoder refuses non-finite
/// NSigma sums, so the scorers skip such a value instead of absorbing
/// it, and the engine still snapshots to an image that restores and
/// continues bit-identically.
#[test]
fn huge_finite_values_keep_the_snapshot_restorable() {
    use oneshotstl_suite::fleet::BackendSelect;

    let cfg = FleetConfig { backend: BackendSelect::Ensemble(Default::default()), ..config() };
    let mut engine = FleetEngine::new(cfg).unwrap();
    let streams = build_streams(2);
    for t in 0..200u64 {
        let mut recs = batch(&streams, t);
        if t == 150 {
            recs[0].value = 1e200;
        }
        engine.ingest(recs).unwrap();
    }
    let mut restored = FleetEngine::restore_bytes(&engine.snapshot_bytes().unwrap())
        .expect("the spiked engine restores");
    for t in 200..260u64 {
        let (a, b) = (engine.ingest(batch(&streams, t)), restored.ingest(batch(&streams, t)));
        assert_eq!(a.unwrap(), b.unwrap(), "restored stream diverged at t={t}");
    }
}

/// A fleet image written by the v15 writer (the previous codec version),
/// not re-encoded by this build's writer: `FleetConfig { shards: 2,
/// forecast: φ 0.9, ..fixed_period(12) }` (the fleet's I = 6 IRLS
/// iterations), "warm" registered with a forecast override (φ 0.5) and
/// fed 20 points, "live" fed the 120 points `1.5 + sin(2πi/12)`, `i = t`
/// — admitted at the 36th, its forecast head φ 0.9 — and "young",
/// registered with a λ override (7) and fed the first 38 points of
/// `0.5·(1.5 + sin(2π(i + 3)/12)) − 1`, so its detector config is not the
/// engine's. The codec's unit tests read the same file.
fn v15_image() -> Vec<u8> {
    let hex: Vec<u8> = include_str!("../crates/fleet/testdata/v15_image.hex")
        .bytes()
        .filter(|b| !b.is_ascii_whitespace())
        .collect();
    let bytes: Vec<u8> = hex
        .chunks(2)
        .map(|d| u8::from_str_radix(std::str::from_utf8(d).unwrap(), 16).unwrap())
        .collect();
    assert_eq!(u16::from_le_bytes([bytes[8], bytes[9]]), 15);
    bytes
}

/// Codec read-compatibility with the previous version, pinned at the
/// *integration* level with [`v15_image`]: the image must restore through
/// the public API, answer forecasts from its heads' dampings, and
/// continue scoring bit-identically to a detector rebuilt from the same
/// stream — the series under its own λ included; it re-snapshots as the
/// current version, without the kind byte and the retired config values.
/// An image two versions old or older is refused. If the decoder's
/// previous-version reads drift, this image is the tripwire no unit-level
/// round-trip can replace.
#[test]
fn pinned_v15_snapshot_blob_restores_and_continues_bit_identically() {
    use oneshotstl_suite::core::system::Lambdas;
    use oneshotstl_suite::core::{OneShotStl, ScoreConfig, ScoreVerdict, StdAnomalyDetector};
    use oneshotstl_suite::fleet::{CodecError, ForecastOptions};
    use oneshotstl_suite::tskit::series::DecompPoint;

    let bytes = v15_image();
    let mut restored = FleetEngine::restore_bytes(&bytes).expect("the v15 image must decode");
    // upgrade-on-rewrite: re-snapshotted at once, the image is this
    // build's encoding of the decoded state, shorter by the image's kind
    // byte, warm-up cycles and cap (6 B) and by the 25 retired bytes of
    // each detector config: the engine's and each live series'
    let rewritten = restored.snapshot_bytes().unwrap();
    assert_eq!(u16::from_le_bytes([rewritten[8], rewritten[9]]), 16, "rewritten as v16");
    let decoded = codec::decode(&bytes).unwrap();
    assert_eq!(rewritten, codec::encode(&decoded));
    assert_eq!(decoded.config.forecast, ForecastOptions { enabled: true, damping: 0.9 });
    let stats = restored.stats().unwrap();
    assert_eq!((stats.live, stats.warming), (2, 1));
    assert_eq!((stats.admitted, stats.points), (2, 178), "v15 lifetime counters carried");
    assert_eq!(bytes.len() - rewritten.len(), 6 + 25 * (1 + stats.live));

    // rebuild the live series' detectors through the public API
    let t = 12usize;
    let y = |i: usize| 1.5 + (2.0 * std::f64::consts::PI * i as f64 / t as f64).sin();
    let twin_at = |lambda: f64, values: &[f64]| {
        let mut detector = FleetConfig::default().detector;
        detector.lambdas = Lambdas { lambda1: lambda, lambda2: lambda };
        let mut twin = StdAnomalyDetector::with_score(
            OneShotStl::new(detector),
            5.0,
            ScoreConfig::default(),
        );
        twin.init(&values[..3 * t], t).unwrap();
        for &v in &values[3 * t..] {
            twin.update_scored(v);
        }
        twin
    };
    let twin_of =
        |values: &[f64]| twin_at(FleetConfig::default().detector.lambdas.lambda1, values);
    let forecast_bits = |twin: &StdAnomalyDetector<OneShotStl>, phi: f64| {
        let mut out = vec![0.0; 2 * t];
        twin.decomposer.forecast_into(phi, &mut out);
        out.into_iter().map(f64::to_bits).collect::<Vec<_>>()
    };
    let answer_bits = |engine: &FleetEngine, key: &str| {
        let fc = engine.forecast_one(&SeriesKey::new(key), 2 * t).unwrap();
        fc.expect("a live series forecasts").into_iter().map(f64::to_bits).collect::<Vec<_>>()
    };
    let mut live: Vec<f64> = (0..120).map(y).collect();
    let mut twin = twin_of(&live);
    // the restored head is φ = 0.9: the answer is `forecast_into(0.9)`
    assert_eq!(answer_bits(&restored, "live"), forecast_bits(&twin, 0.9));
    // the young series runs its own λ
    let young_at = |i: usize| 0.5 * y(i + 3) - 1.0;
    let mut young = twin_at(7.0, &(0..38).map(young_at).collect::<Vec<_>>());
    assert_eq!(answer_bits(&restored, "young"), forecast_bits(&young, 0.9));

    // continue the twin streams: the v15-restored engine tracks the twins
    // bit for bit, forecasts included
    let check = |out: &PointOutput, pt: &DecompPoint, vt: &ScoreVerdict, i: usize| {
        let PointOutput::Scored { point, score, is_anomaly } = out else {
            panic!("a live series must score, got {out:?} at i={i}")
        };
        let got = [point.residual, point.trend, point.seasonal, *score].map(f64::to_bits);
        let want = [pt.residual, pt.trend, pt.seasonal, vt.score].map(f64::to_bits);
        assert_eq!(got, want, "i={i}");
        assert_eq!(*is_anomaly, vt.is_anomaly, "i={i}");
    };
    for i in 120..156 {
        let x = y(i) + if i == 132 { 4.0 } else { 0.0 };
        live.push(x);
        let (pt, vt) = twin.update_scored(x);
        let out = restored.ingest_one("live", i as u64, x).unwrap();
        check(&out.output, &pt, &vt, i);
        assert_eq!(answer_bits(&restored, "live"), forecast_bits(&twin, 0.9), "i={i}");
    }
    for i in 38..38 + 2 * t {
        let (pt, vt) = young.update_scored(young_at(i));
        let out = restored.ingest_one("young", i as u64, young_at(i)).unwrap();
        check(&out.output, &pt, &vt, i);
        assert_eq!(answer_bits(&restored, "young"), forecast_bits(&young, 0.9), "i={i}");
    }

    // the warming series admits with its override's head, φ = 0.5
    let warm: Vec<f64> = (0..3 * t).map(|i| y(i) + 0.25).collect();
    for (i, &v) in warm.iter().enumerate().skip(20) {
        restored.ingest_one("warm", i as u64, v).unwrap();
    }
    assert_eq!(answer_bits(&restored, "warm"), forecast_bits(&twin_of(&warm), 0.5));

    // the v15-restored engine re-snapshots as v16 and the copy continues
    // in lockstep with the original
    let mut upgraded = FleetEngine::restore_bytes(&restored.snapshot_bytes().unwrap()).unwrap();
    for i in 156..156 + t {
        for key in ["live", "young"] {
            let a = restored.ingest_one(key, i as u64, y(i)).unwrap();
            let b = upgraded.ingest_one(key, i as u64, y(i)).unwrap();
            assert_eq!(a.output, b.output, "v16 rewrite of {key} diverged at i={i}");
        }
    }
    assert_eq!(answer_bits(&restored, "live"), answer_bits(&upgraded, "live"));

    // an image two versions old or older is refused outright with a typed
    // error, whatever its body holds
    let mut old = bytes;
    for version in [14u16, 13] {
        old[8..10].copy_from_slice(&version.to_le_bytes());
        assert_eq!(codec::decode(&old).err(), Some(CodecError::UnsupportedVersion(version)));
        assert!(FleetEngine::restore_bytes(&old).is_err());
    }
}

/// An image written by an engine running the paper's 8 IRLS iterations
/// — every image recorded before the fleet default moved to 6 — restores
/// at 8. Its config and every series carry their detector config, so its
/// series continue bit-identically to an 8-iteration twin, and a key
/// first seen after the restore is admitted at 8 as well. Only engines
/// built by `new`/`create` take the fleet default.
#[test]
fn an_image_written_at_eight_irls_iterations_restores_and_admits_at_eight() {
    use oneshotstl_suite::core::{
        OneShotStl, OneShotStlConfig, ScoreConfig, StdAnomalyDetector,
    };

    let t = 12usize;
    let init_len = 3 * t;
    let paper = OneShotStlConfig::default();
    assert_eq!(paper.iters, 8);
    let y = |k: usize, i: usize| {
        let noise = ((i * 7919 + k * 104_729) % 97) as f64 / 97.0 - 0.5;
        let spike = if i % 29 == 17 { 3.0 } else { 0.0 };
        1.0 + 0.5 * k as f64
            + 0.01 * i as f64
            + (2.0 * std::f64::consts::PI * i as f64 / t as f64).sin()
            + 0.3 * noise
            + spike
    };
    let twin_at = |iters: usize, values: &[f64]| {
        let mut twin = StdAnomalyDetector::with_score(
            OneShotStl::new(OneShotStlConfig { iters, ..OneShotStlConfig::default() }),
            5.0,
            ScoreConfig::default(),
        );
        twin.init(&values[..init_len], t).unwrap();
        for &v in &values[init_len..] {
            twin.update_scored(v);
        }
        twin
    };
    // (residual, trend, seasonal, score) bits of one scored point
    let bits = |out: &PointOutput| match out {
        PointOutput::Scored { point, score, .. } => [
            point.residual.to_bits(),
            point.trend.to_bits(),
            point.seasonal.to_bits(),
            score.to_bits(),
        ],
        other => panic!("a live series must score, got {other:?}"),
    };

    let config = FleetConfig {
        shards: 2,
        period: PeriodPolicy::Fixed(t),
        detector: paper.clone(),
        ..Default::default()
    };
    let keys = ["a", "b", "c"];
    let warm = 60usize;
    let mut engine = FleetEngine::new(config).unwrap();
    for i in 0..warm {
        for (k, key) in keys.iter().enumerate() {
            engine.ingest_one(*key, i as u64, y(k, i)).unwrap();
        }
    }
    let bytes = engine.snapshot_bytes().unwrap();
    drop(engine);
    let mut restored = FleetEngine::restore_bytes(&bytes).unwrap();
    assert_eq!(restored.config().detector, paper, "the image's detector config is kept");

    // the restored series continue in lockstep with 8-iteration twins; a
    // 6-iteration twin departs from them, so the check tells 8 from 6
    let mut twins: Vec<_> = (0..keys.len())
        .map(|k| twin_at(8, &(0..warm).map(|i| y(k, i)).collect::<Vec<_>>()))
        .collect();
    let mut six: Vec<_> = (0..keys.len())
        .map(|k| twin_at(6, &(0..warm).map(|i| y(k, i)).collect::<Vec<_>>()))
        .collect();
    let mut departed = false;
    for i in warm..warm + 2 * t {
        for (k, key) in keys.iter().enumerate() {
            let out = restored.ingest_one(*key, i as u64, y(k, i)).unwrap();
            let (pt, v) = twins[k].update_scored(y(k, i));
            let want = [pt.residual, pt.trend, pt.seasonal, v.score].map(f64::to_bits);
            assert_eq!(bits(&out.output), want, "restored {key} diverged at i={i}");
            let (p6, v6) = six[k].update_scored(y(k, i));
            departed |=
                [p6.residual, p6.trend, p6.seasonal, v6.score].map(f64::to_bits) != want;
        }
    }
    assert!(departed, "6 and 8 iterations must be told apart");

    // a key first seen after the restore is admitted at the image's 8
    let late: Vec<f64> = (0..init_len + 2 * t).map(|i| y(7, i)).collect();
    let mut twin = twin_at(8, &late[..init_len]);
    for (i, &v) in late.iter().enumerate() {
        let out = restored.ingest_one("late", (warm + 2 * t + i) as u64, v).unwrap();
        if i < init_len {
            assert!(!matches!(out.output, PointOutput::Scored { .. }), "warming at i={i}");
            continue;
        }
        let (pt, vt) = twin.update_scored(v);
        let want = [pt.residual, pt.trend, pt.seasonal, vt.score].map(f64::to_bits);
        assert_eq!(bits(&out.output), want, "late key diverged at i={i}");
    }
}
