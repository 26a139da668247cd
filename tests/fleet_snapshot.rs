//! Fleet engine integration: multi-series ingest through warm-up admission,
//! snapshot mid-stream, restore, and bit-identical continuation.

use oneshotstl_suite::fleet::{
    FleetConfig, FleetEngine, PeriodPolicy, PointOutput, Record, SeriesKey,
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
    match &mut snap.series[0].phase {
        oneshotstl_suite::fleet::series::PhaseSnapshot::Live { decomposer, .. } => {
            decomposer.m += 1; // bit-flip-style corruption
        }
        other => panic!("expected a live series, got {other:?}"),
    }
    assert!(FleetEngine::restore(snap).is_err());
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
/// are documented as *not serialized* — they reset on
/// restore and then accumulate in lockstep with the reference: because
/// the continuation is bit-identical, the restored engine's diagnostic
/// counts at the end must equal exactly the alarms the reference fired
/// *after* the snapshot point.
#[test]
fn stats_counters_obey_the_snapshot_contract() {
    use oneshotstl_suite::fleet::{AdmitOptions, BackendSelect, ForecastOptions};

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

/// A fleet image written by the v14 writer (the previous codec version),
/// not re-encoded by this build's writer: `FleetConfig { shards: 2,
/// forecast: φ 0.9, ..fixed_period(12) }` (the fleet's I = 6 IRLS
/// iterations), "warm" registered with a forecast override (φ 0.5) and
/// fed 20 points, "live" fed the 120 points `1.5 + sin(2πi/12)`, `i = t`
/// — admitted at the 36th, its forecast head φ 0.9 — and "young" and
/// "young3", each registered with a λ override (7) and fed the first 38
/// and 39 points of `0.5·(1.5 + sin(2π(i + 3)/12)) − 1`, so their six
/// solvers are 2 and 3 points past admission, in v14's warm-up layout
/// (tag 0). Only the 3-point solvers hold real unknowns in their window
/// (a window after `m` points reaches column `2m − 5`), so "young3" is
/// the series whose replay reads its histories and its λ.
const V14_BLOB_HEX: &str = concat!(
    "4f5353544c464c540e00000200000003000000000c0000000000000000000014400000000000",
    "000000000059400000000000005940000000000000f03f060000001400000000000000000014",
    "4000000000000000e03f00bbbdd7d9df7cdb3d010400000002000000000000e03f0000000000",
    "001840ae47e17a14aeef3f03cdccccccccccec3f00007700000000000000d900000000000000",
    "00000000000000000300000000000000d9000000000000000900000000000000000000000000",
    "0000000000000000000000000000000000000400000000000000040000006c69766577000000",
    "000000000400000000000059400000000000005940000000000000f03f060000001400000000",
    "0000000000144000000000000000e03f00bbbdd7d9df7cdb3d01040000000c00000000000000",
    "7800000000000000540000000000000000000000000000000c00000000000000d96dcf857025",
    "103fa7fa75fa8000e03fb0817c9cfbb6eb3f3b788a2f4200f03f7b388ca6feb6eb3f44ab5f8e",
    "8300e03f501c315f3e65103f49b02d36fafedfbff8cf1923f8b5ebbfe5f3167479ffefbf15a0",
    "8dc7f4b5ebbf6997f239f4fedfbf50b3a7178549e43fd6ffffffffffef3f64a60009f9b5ebbf",
    "de360a1bfdfedfbf06000000025400000000000000d32ebe79b0c8d63fb2e3520c17d3c6bf3b",
    "80636d3afef4bfe9763eb7cf07e53f0000000000000000000000000000000000000000000000",
    "00a5460729b0c8d63fd13952bb16d3c6bf00000000000000004158a5af648e7140ecf62c146b",
    "f1ff3fd733d7ed648e71402f9f60146bf1ff3fd969e161cea4314072d88dd500ded2bf9afbaa",
    "c585823140b0e2ab3a23fee1bf000000000000f03f000000000000f03f000000000000f03f00",
    "0000000000f03f9489b14dbffff73fb21a304dbffff73f0254000000000000002b08cc8eed6e",
    "de3ff68ddb8eed6ecebf78e13a738e41f7bf97b341738e41e73f000000000000000000000000",
    "000000000000000000000000ebcf71da3906dd3f22537ada3906cdbf000000000000000011cb",
    "0d67865eef41a4adefffffffff3fcb46a36cd446fb415d9df6ffffffff3fe9496e0103fc6340",
    "1397a870cbb1cdbf81c45e01752a61404dba06fafafedfbf4c2420608f257c41d8454f7c4ba5",
    "af41caf531d6e81773416d7e1c22e0aa7f4192ee21ef70fff73fb113544071fff73f02540000",
    "0000000000c8135ce80cb1e93f707c9be80cb1d9bff75a05d027bcf4bfefb2a8d027bce43f00",
    "000000000000000000000000000000000000000000000041552086a1f0d23f3b89b586a1f0c2",
    "bf00000000000000004e2b04585feec9418805b1ffffffff3f7e4f933b993fb04105ea03ffff",
    "ffff3fbcc775b4a7cd68408573d808cdb1cdbf1d913b49b4946b404047fb4afefedfbf7eb5cd",
    "d3838b2041feca239413393941262cb96804a65a412c191dab9c9e2841ad81e190c6fff73f5f",
    "857e7ac6fff73f025400000000000000cb83af012939d63f8fb1c6012939c6bf50dfbc652d74",
    "f6bf4eafcd652d74e63f00000000000000000000000000000000000000000000000028ac1ab5",
    "b5d0d93f7b002eb5b5d0c9bf00000000000000004a39209d4daede41c99fdeffffffff3fed5a",
    "a422655ee5412d0ae8ffffffff3f9fe69b86181165403ad7e4cecbb1cdbf840826b0d0f35d40",
    "5efbbd12fbfedfbff2c6c618a7bc67418a6fff2deade5641fb235b8eef455b41fd5ff222ca10",
    "664171905ec3dafff73f6f0af070dafff73f025400000000000000f39ae0204167e93f72fc0b",
    "214167d9bf41b1cb82a1f7fbbfdf65f782a1f7eb3f0000000000000000000000000000000000",
    "00000000000000c821df2843efe73f1489042943efd7bf00000000000000001b0764c724bdd2",
    "41a95ac9ffffffff3f752d93ac167ad44111fecdffffffff3fcb6ccbfb34065740d4cd62bccb",
    "b1cdbf6bbcad8f6ace60401e79f14efbfedfbf388305dd7e723541b307e8e344d838411000fa",
    "d3890a6341f5686813b29a6341285a0e41c2fff73f0f0a543cc2fff73f025400000000000000",
    "f642e63dc438d33f58beee3dc438c3bf3c9776b98f8bf5bf394588b98f8be53f000000000000",
    "00000000000000000000000000000000000045fb75043f2ed63fc12e88043f2ec6bf00000000",
    "000000001ae271982921f24120e1f1ffffffff3fe0f4b0f78e7fe341c4bde5ffffffff3f7df2",
    "12370ba664404d960168cbb1cdbfb39000394eb95b40d1336313fbfedfbf9fd4dd48b0385a41",
    "edf02712f1127b411ad4c92ce6e06b41d0db83e8a34c61418b26e1cebafff73fe8bd36d6baff",
    "f73f000000000000144078000000000000000ec38373a6a7483ff8d0b79381ad6b3e01020000",
    "00000000e03f0000000000001840ae47e17a14aeef3f00000000000014400000000000000000",
    "0000000000000000c5a7e440a3e6314002cdccccccccccec3f00040000007761726d13000000",
    "00000000001400000000000000000000000000fc3f00000000000002402a1316ba9eed044000",
    "000000000006402b1316ba9eed04400000000000000240010000000000fc3f010000000000f4",
    "3f58b3a7178549ec3f000000000000e83f56b3a7178549ec3ffefffffffffff33fffffffffff",
    "fffb3f00000000000002402a1316ba9eed044000000000000006402c1316ba9eed0440000000",
    "0000000240020000000000fc3f040000000000f43f010c000000000000000000000000000000",
    "000103000000000000e03f0005000000796f756e677700000000000000040000000000001c40",
    "0000000000001c40000000000000f03f06000000140000000000000000001440000000000000",
    "00e03f00bbbdd7d9df7cdb3d01040000000c0000000000000026000000000000000200000000",
    "00000000000000000000000c0000000000000048ffffffffffdf3fe75057e87ab6db3fd8ffff",
    "ffffffcf3fc060a60dac25f03c20ffffffffffcfbf234c58e87ab6dbbf7cffffffffffdfbf3f",
    "4c58e87ab6dbbf9cffffffffffcfbf00a6c9dbd726d8bc38ffffffffffcf3ff24b58e87ab6db",
    "3f000000000000d03f5099b0d0f56cc73f48ffffffffffdf3f4f4c58e87ab6db3f0600000000",
    "0200000000000000000000000000d03f5099b0d0f56cc73f020000000000000048ffffffffff",
    "df3f4f4c58e87ab6db3f0200000000000000000000000000f03f000000000000f03f02000000",
    "00000000000000000000f03f000000000000f03f000000000000f03f000000000000f03f0000",
    "00000000f03f000000000000f03f90feffffffffcfbff3feffffffffcfbf0002000000000000",
    "00000000000000d03f5099b0d0f56cc73f020000000000000048ffffffffffdf3f4f4c58e87a",
    "b6db3f0200000000000000000000205fa0f241000000205fa0f2410200000000000000000000",
    "205fa0f241000000205fa0f241000000205fa0f241000000205fa0f241000000205fa0f24100",
    "0000205fa0f24190feffffffffcfbfab11fcffffffcfbf000200000000000000000000000000",
    "d03f5099b0d0f56cc73f020000000000000048ffffffffffdf3f4f4c58e87ab6db3f02000000",
    "00000000000000205fa0f241000000205fa0f2410200000000000000000000205fa0f2410000",
    "00205fa0f241000000205fa0f241000000205fa0f241000000205fa0f241000000205fa0f241",
    "90feffffffffcfbfab11fcffffffcfbf000200000000000000000000000000d03f5099b0d0f5",
    "6cc73f020000000000000048ffffffffffdf3f4f4c58e87ab6db3f0200000000000000000000",
    "205fa0f241000000205fa0f2410200000000000000000000205fa0f241000000205fa0f24100",
    "0000205fa0f241000000205fa0f241000000205fa0f241000000205fa0f24190feffffffffcf",
    "bfab11fcffffffcfbf000200000000000000000000000000d03f5099b0d0f56cc73f02000000",
    "0000000048ffffffffffdf3f4f4c58e87ab6db3f0200000000000000000000205fa0f2410000",
    "00205fa0f2410200000000000000000000205fa0f241000000205fa0f241000000205fa0f241",
    "000000205fa0f241000000205fa0f241000000205fa0f24190feffffffffcfbfab11fcffffff",
    "cfbf000200000000000000000000000000d03f5099b0d0f56cc73f020000000000000048ffff",
    "ffffffdf3f4f4c58e87ab6db3f0200000000000000000000205fa0f241000000205fa0f24102",
    "00000000000000000000205fa0f241000000205fa0f241000000205fa0f241000000205fa0f2",
    "41000000205fa0f241000000205fa0f24190feffffffffcfbfab11fcffffffcfbf0000000000",
    "0014402600000000000000fc0691f8b4b694bdf46e8adc09f72e3b0102000000000000e03f00",
    "00000000001840ae47e17a14aeef3f0000000000001440000000000000000000000000000000",
    "00000000000000444002cdccccccccccec3f0006000000796f756e6733770000000000000004",
    "0000000000001c400000000000001c40000000000000f03f0600000014000000000000000000",
    "144000000000000000e03f00bbbdd7d9df7cdb3d01040000000c000000000000002700000000",
    "000000030000000000000000000000000000000c0000000000000048ffffffffffdf3fe75057",
    "e87ab6db3f9b29fdffffffcf3fc060a60dac25f03c20ffffffffffcfbf234c58e87ab6dbbf7c",
    "ffffffffffdfbf3f4c58e87ab6dbbf9cffffffffffcfbf00a6c9dbd726d8bc38ffffffffffcf",
    "3ff24b58e87ab6db3f5099b0d0f56cc73f000000000000e03c4f4c58e87ab6db3fd8ffffffff",
    "ffcf3f06000000000300000000000000000000000000d03f5099b0d0f56cc73f000000000000",
    "e03c030000000000000048ffffffffffdf3f4f4c58e87ab6db3fd8ffffffffffcf3f03000000",
    "00000000000000000000f03f000000000000f03f000000000000f03f03000000000000000000",
    "00000000f03f000000000000f03f000000000000f03f000000000000f03f000000000000f03f",
    "000000000000f03f000000000000f03ff3feffffffffcfbf24ffffffffffcfbf000300000000",
    "000000000000000000d03f5099b0d0f56cc73f000000000000e03c030000000000000048ffff",
    "ffffffdf3f4f4c58e87ab6db3fd8ffffffffffcf3f0300000000000000000000205fa0f24100",
    "0000205fa0f241000000205fa0f2410300000000000000000000205fa0f241000000205fa0f2",
    "41000000205fa0f241000000205fa0f241000000205fa0f241000000205fa0f241000000205f",
    "a0f241ab11fcffffffcfbf1c53faffffffcfbf000300000000000000000000000000d03f5099",
    "b0d0f56cc73f000000000000e03c030000000000000048ffffffffffdf3f4f4c58e87ab6db3f",
    "d8ffffffffffcf3f0300000000000000000000205fa0f241000000205fa0f241000000205fa0",
    "f2410300000000000000000000205fa0f241000000205fa0f241000000205fa0f24100000020",
    "5fa0f241000000205fa0f241000000205fa0f241000000205fa0f241ab11fcffffffcfbf1c53",
    "faffffffcfbf000300000000000000000000000000d03f5099b0d0f56cc73f000000000000e0",
    "3c030000000000000048ffffffffffdf3f4f4c58e87ab6db3fd8ffffffffffcf3f0300000000",
    "000000000000205fa0f241000000205fa0f241000000205fa0f2410300000000000000000000",
    "205fa0f241000000205fa0f241000000205fa0f241000000205fa0f241000000205fa0f24100",
    "0000205fa0f241000000205fa0f241ab11fcffffffcfbf1c53faffffffcfbf00030000000000",
    "0000000000000000d03f5099b0d0f56cc73f000000000000e03c030000000000000048ffffff",
    "ffffdf3f4f4c58e87ab6db3fd8ffffffffffcf3f0300000000000000000000205fa0f2410000",
    "00205fa0f241000000205fa0f2410300000000000000000000205fa0f241000000205fa0f241",
    "000000205fa0f241000000205fa0f241000000205fa0f241000000205fa0f241000000205fa0",
    "f241ab11fcffffffcfbf1c53faffffffcfbf000300000000000000000000000000d03f5099b0",
    "d0f56cc73f000000000000e03c030000000000000048ffffffffffdf3f4f4c58e87ab6db3fd8",
    "ffffffffffcf3f0300000000000000000000205fa0f241000000205fa0f241000000205fa0f2",
    "410300000000000000000000205fa0f241000000205fa0f241000000205fa0f241000000205f",
    "a0f241000000205fa0f241000000205fa0f241000000205fa0f241ab11fcffffffcfbf1c53fa",
    "ffffffcfbf000000000000144027000000000000007e83487c56b4a5bdbd9b243e55d6473b01",
    "02000000000000e03f0000000000001840ae47e17a14aeef3f00000000000014400000000000",
    "0000000000000000000000000000000000444002cdccccccccccec3f00",
);

fn v14_blob() -> Vec<u8> {
    let bytes: Vec<u8> = (0..V14_BLOB_HEX.len())
        .step_by(2)
        .map(|i| u8::from_str_radix(&V14_BLOB_HEX[i..i + 2], 16).unwrap())
        .collect();
    assert_eq!(u16::from_le_bytes([bytes[8], bytes[9]]), 14);
    bytes
}

/// Codec read-compatibility with the previous version, pinned at the
/// *integration* level with [`V14_BLOB_HEX`]: the image must restore
/// through the public API, answer forecasts from its heads' dampings, and
/// continue scoring bit-identically to a detector rebuilt from the same
/// stream — the series imaged 2 points into its online phase included,
/// whose v14 solver histories are replayed through the step kernel; it
/// re-snapshots as the current version, every solver as its window. If
/// the decoder's previous-version reads drift, this blob is the tripwire
/// no unit-level round-trip can replace.
#[test]
fn pinned_v14_snapshot_blob_restores_and_continues_bit_identically() {
    use oneshotstl_suite::core::system::Lambdas;
    use oneshotstl_suite::core::{OneShotStl, ScoreConfig, ScoreVerdict, StdAnomalyDetector};
    use oneshotstl_suite::fleet::{codec, ForecastOptions};
    use oneshotstl_suite::tskit::series::DecompPoint;

    let bytes = v14_blob();
    let mut restored = FleetEngine::restore_bytes(&bytes).expect("v14 blob must decode");
    // upgrade-on-rewrite: re-snapshotted at once, the image is this
    // build's encoding of the decoded state. Each of the young series'
    // six solvers is a 153-byte window instead of four histories of 2 or
    // 3 values (97 or 129 bytes); nothing else moves.
    let rewritten = restored.snapshot_bytes().unwrap();
    assert_eq!(u16::from_le_bytes([rewritten[8], rewritten[9]]), 15, "rewritten as v15");
    let decoded = codec::decode(&bytes).unwrap();
    assert_eq!(rewritten, codec::encode(&decoded));
    assert_eq!(decoded.config.forecast, ForecastOptions { enabled: true, damping: 0.9 });
    assert_eq!(rewritten.len() - bytes.len(), 6 * (153 - 97) + 6 * (153 - 129));
    let stats = restored.stats().unwrap();
    assert_eq!((stats.live, stats.warming), (3, 1));
    assert_eq!((stats.admitted, stats.points), (3, 217), "v14 lifetime counters carried");

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
    // the young series' replayed solvers run their own λ
    let young_at = |i: usize| 0.5 * y(i + 3) - 1.0;
    let mut young: Vec<_> = [("young", 2), ("young3", 3)]
        .map(|(key, online)| {
            let seen: Vec<f64> = (0..3 * t + online).map(young_at).collect();
            (key, seen.len(), twin_at(7.0, &seen))
        })
        .into();
    for (key, _, twin) in &young {
        assert_eq!(answer_bits(&restored, key), forecast_bits(twin, 0.9), "{key}");
    }

    // continue the twin streams: the v14-restored engine tracks the twins
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
    for (key, seen, twin) in &mut young {
        for i in *seen..*seen + 2 * t {
            let (pt, vt) = twin.update_scored(young_at(i));
            let out = restored.ingest_one(*key, i as u64, young_at(i)).unwrap();
            check(&out.output, &pt, &vt, i);
            assert_eq!(answer_bits(&restored, key), forecast_bits(twin, 0.9), "{key} i={i}");
        }
    }

    // the warming series admits with its override's head, φ = 0.5
    let warm: Vec<f64> = (0..3 * t).map(|i| y(i) + 0.25).collect();
    for (i, &v) in warm.iter().enumerate().skip(20) {
        restored.ingest_one("warm", i as u64, v).unwrap();
    }
    assert_eq!(answer_bits(&restored, "warm"), forecast_bits(&twin_of(&warm), 0.5));

    // the v14-restored engine re-snapshots as v15 and the copy continues
    // in lockstep with the original
    let mut upgraded = FleetEngine::restore_bytes(&restored.snapshot_bytes().unwrap()).unwrap();
    for i in 156..156 + t {
        for key in ["live", "young", "young3"] {
            let a = restored.ingest_one(key, i as u64, y(i)).unwrap();
            let b = upgraded.ingest_one(key, i as u64, y(i)).unwrap();
            assert_eq!(a.output, b.output, "v15 rewrite of {key} diverged at i={i}");
        }
    }
    assert_eq!(answer_bits(&restored, "live"), answer_bits(&upgraded, "live"));
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

/// An image two versions old or older is refused outright with a typed
/// error, whatever its body holds.
#[test]
fn images_older_than_v14_are_refused() {
    use oneshotstl_suite::fleet::{codec, CodecError};

    let mut old = v14_blob();
    for version in [13u16, 12] {
        old[8..10].copy_from_slice(&version.to_le_bytes());
        assert_eq!(codec::decode(&old), Err(CodecError::UnsupportedVersion(version)));
        assert!(FleetEngine::restore_bytes(&old).is_err());
    }
}
