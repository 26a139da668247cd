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
        max_warmup: Some(150),
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
    use oneshotstl_suite::core::{Fusion, ScoreConfig, ShiftSearchConfig};
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
        shift_search: Some(ShiftSearchConfig::exhaustive()),
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

/// A fleet image written by the v12 writer (the previous codec version),
/// not re-encoded by this build's writer: `FleetConfig { shards: 2,
/// forecast: φ 0.9, ..fixed_period(12) }`, "warm" registered with a
/// forecast override (φ 0.5) and fed 20 points, and "live" fed the 120
/// points `1.5 + sin(2πi/12)`, `i = t` — admitted at the 36th, its
/// forecast head carrying a full 64-pair error ring.
const V12_BLOB_HEX: &str = concat!(
    "4f5353544c464c540c00000200000003000000000c0000000000000000000014400000000000",
    "000000000059400000000000005940000000000000f03f080000001400000000000000000014",
    "4000000000000000e03f00bbbdd7d9df7cdb3d010400000002000000000000e03f0000000000",
    "001840ae47e17a14aeef3f01cdccccccccccec3f4000000000000000000000f83f0000770000",
    "00000000008c00000000000000000000000000000001000000000000008c0000000000000006",
    "0000000000000000000000000000000000000000000000000000000000000002000000000000",
    "00040000006c6976657700000000000000010000000000005940000000000000594000000000",
    "0000f03f0800000014000000000000000000144000000000000000e03f00bbbdd7d9df7cdb3d",
    "01040000000c000000000000007800000000000000540000000000000000000000000000000c",
    "00000000000000cd2641a48082083f012b32be6100e03fcc2b072bdfb6eb3fac9c88f43200f0",
    "3f4fb738e4dfb6eb3f132f15bd6400e03fae1abfec261b093f3ab9a97537ffdfbf08c6f7c116",
    "b6ebbf1c94dd419dffefbfe00f77fa18b6ebbf0a241f773cffdfbf50b3a7178549e43fd6ffff",
    "ffffffef3fe004961318b6ebbfd0ad32fb3affdfbf080000000154000000000000000a000000",
    "00000000d32ebe79b0c8d63fb2e3520c17d3c6bf3b80636d3afef4bfe9763eb7cf07e53f0000",
    "00000000000000000000000000000000000000000000a5460729b0c8d63fd13952bb16d3c6bf",
    "000000000000000004000000000000004158a5af648e7140ecf62c146bf1ff3fd733d7ed648e",
    "71402f9f60146bf1ff3f0400000000000000808a2bb6d9a4314078510eca42ded2bff6b34618",
    "918231404f22790f44fee1bf000000000000f03f000000000000f03f000000000000f03f0000",
    "00000000f03fa01a8f3bcffff73f730d0133cffff73f0154000000000000000a000000000000",
    "009e416927cd33e73fd5347027cd33d7bfc13a9693127bf9bfc10b9f93127be93f0000000000",
    "00000000000000000000000000000000000000efd52f3225f6e23f7b65363225f6d2bf000000",
    "0000000000040000000000000059547c8a20b5fa41296af6ffffffff3f03c80656081ff7418c",
    "edf4ffffffff3f0400000000000000c3943ec6e92c664089fda7134ab2cdbf1de5da0bd0be67",
    "403c2af01b3affdfbf45146f42dcf9644176563531a6ec6d4188b14b157fc98841ed6259c359",
    "8981413db902407ffff73f850d221580fff73f0154000000000000000a00000000000000fb63",
    "6aeb332ee73f26c1c2eb332ed7bfd6fbefa3502cf8bf08a690a4502ce83f0000000000000000",
    "0000000000000000000000000000000009faeb1ea258e03fe79e581fa258d0bf000000000000",
    "00000400000000000000487a4c4802cac0411d0486ffffffff3f922063972a42b34174502bff",
    "ffffff3f04000000000000004e49469a26be66402b7214944cb2cdbf79f7f4980824684044a4",
    "df7c3cffdfbf3c72ccd86fd21b41a10db0af103823413546f08664224f41b21d60102b2f3941",
    "8b0dd9f1d2fff73fe8ec75e4d2fff73f0154000000000000000a00000000000000cae1196876",
    "cfdb3f32c42a6876cfcbbfde331e722172f5bf066627722172e53f0000000000000000000000",
    "0000000000000000000000000040e832d985c8d53f743f3cd985c8c5bf000000000000000004",
    "00000000000000f413e7568c5aea416e92ecffffffff3f1037542723a8f2414947f2ffffffff",
    "3f040000000000000095e2fd013f7c5f40818ffa2a4ab2cdbf59f9f97998015d40d331f3133a",
    "ffdfbfcd2e0a226c37774177912b976a1f6341836745e2f7506d417e920b8e994170411ddf3e",
    "48e8fff73fd7941230e8fff73f0154000000000000000a0000000000000077935b25260fe63f",
    "71f67b25260fd6bf7acac3d3e568f4bf0d8f0bd4e568e43f0000000000000000000000000000",
    "0000000000000000000003cd091f98a3d13f6dd3471f98a3c1bf000000000000000004000000",
    "0000000059bf3e42bccbd541c004d1ffffffff3f4914071e6033c2410d7a8fffffffff3f0400",
    "000000000000dc1c3f1649df6440fb0dabd34ab2cdbfd4598311de0d6640c36f46313bffdfbf",
    "0e03aa1571b53341d04a21003f2e55411d49c7e25f3b6341b5ef90e9f3ae39412169931fcfff",
    "f73fdc397e22cffff73f0154000000000000000a00000000000000b2200cf74538e23f7dfe1f",
    "f74538d2bfde77165d5acff5bfd2f6245d5acfe53f0000000000000000000000000000000000",
    "00000000000000274bd28d693dd73f69bde18d693dc7bf000000000000000004000000000000",
    "004de50aee0659dd41ab1bddffffffff3fad47ee72ac12e84137bbeaffffffff3f0400000000",
    "000000324bc83fc41d57408a8756434ab2cdbff4cf9dba837d5c40323ff2203affdfbfb388fe",
    "c5c1096e41445a55c740f0854199cf7a76706365416907dd74cb60664107231f37c9fff73f1a",
    "da033ec9fff73f0154000000000000000a00000000000000cf961a920a09ef3f1f811c920a09",
    "dfbf38c4ff9b382bf7bfab720e9c382be73f0000000000000000000000000000000000000000",
    "00000000b1a21e90e2acdc3f67ce3090e2acccbf00000000000000000400000000000000fb6e",
    "ff92423420427306feffffffff3fd2fb9840ea3fe941f6b8ebffffffff3f0400000000000000",
    "e95eddd04d2057406eac39e449b2cdbf9a4c0e5974e2624006dbf02a3affdfbfcb240af39845",
    "60419eb9620585917241d3ffafe5b31db44109e8a24832f66c41a84dccd7cafff73f193e4538",
    "cafff73f0154000000000000000a000000000000005235da09acf2c33f8b05e609acf2b3bff4",
    "49f795be38f1bf6b362196be38e13f0000000000000000000000000000000000000000000000",
    "0028f9f987ea8bb33f7c8e2988ea8ba3bf000000000000000004000000000000004d2f82a877",
    "04eb419e0cedffffffff3f49d579fa504aca41bd19b2ffffffff3f0400000000000000faf61e",
    "e85a546740c9570b4d4ab2cdbfd7f32ace89965640c6900c693affdfbfc718a137a6c44941d6",
    "38b3f001ad2941da41fb39c58e5541c1c7c1892d8e244117e77f7ccffff73f7ce6c27ccffff7",
    "3f000000000000144078000000000000004ea6481bd6ab423f6a54ed76b0835f3e0102000000",
    "000000e03f0000000000001840ae47e17a14aeef3f000000000000144078000000000000004e",
    "a6481bd6ab423f6a54ed76b0835f3e00000000000000000000000000000000c5a7e440a3e631",
    "400101cdccccccccccec3f4000000000000000000000f83f3f7b00820000f83f014000000000",
    "0000000000c0ff990c913e0000a05d8df4b13e000048188979b73e0000004e39b1be3e0000fc",
    "d8b409c33e0000b82c31b8c43e00000cea13d3c83e00008061c781cb3e0000a0125792cc3e00",
    "00002208d7b03e0000409ca068a13e000000c062da503e000080652f4b943e0000002e576692",
    "3e000000bca211a43e0000206bb55aa93e000058b86d20b03e000048859cabb43e0000901900",
    "49b63e00002153b00ee83e00805c295807ef3e008022ac6a16f23e00809f699211f43e0000f0",
    "41b4baf53e0000a3ca07c1f63e000000cbf55af73e0000b2f6df02f93e000064309c01ed3e00",
    "008802aabae03e00009029c82acf3e000000e20bb2913e000050dc3b52c43e00009493da3dd3",
    "3e000006309291da3e0000d323f176e03e0000ee60e339e33e00002c76dea6e53e00007c3a30",
    "b9e73e0000d4204cf2e83e0000a865446ddf3e0000106f60deda3e000000900d61b53e0000c0",
    "349b42ae3e0000c074b02ea43e0000cc4fded2be3e00008408e9bcc73e00000cf758f2cf3e00",
    "0038a9cc32d03e00008077a57bd43e00002075962fd73e0000c09af9efd93e0000c02b01b4ce",
    "3e000060fcd495c83e000040cc0955c13e000050aad35dbe3e000060ce8cdda63e0000007873",
    "7f8c3e0000803ac1689a3e0000a0f3d9b2b33e0000d0f35866bf3e000060accbb1be3e000020",
    "51af00c53e000020951baada3e0000e0c4cb87c33e40000000000000003dd1ea119a0c813eaf",
    "681e0cbdf0a73e3337d02b8a79b73ef9950657ce34c83ea9d8deadb709d33ea7dd1be54a57d0",
    "3e99014e5216d3c83e80b1f23b8656c23e9e70cbaa5892bc3e806e962a3a789c3e83251c639a",
    "da8b3e98597957e57d3c3e53a8c24b2f4b843ee83df3627488883e26abb020a311a43e2116dd",
    "4610ffb33e0ae369bc6e20c03e02578db85b4dc03e32a03f21ff48b63eaf6cbfa63ff9f23e36",
    "2cb63f7607ff3ecdb1976ce387fc3ee70ea8ff9e11f43edd318b75fdf8ec3ea26ea1e10fc1e6",
    "3e1765e81a09bee33e5e17ed834602e43e1afbe28bd884d83e8a91cdd2a7bad03e40f8fa6b2e",
    "c7c43e3cd3dbba0bb2913e3521ae5be106d03e744c8b5ce03de33e49caecba41f4e43e95b529",
    "60f576e03e007788a389a2d93ef427c71fe2a6d53e7960add6ac0dd43e7550499706f5d33e4d",
    "1ae234a690ca3ece89239d5ddeca3e09ae869f6681ac3e8499d44f9a42ae3edb998abeaed5af",
    "3e963ee605e2d2ce3e5b5ef6feb7b8d23e7077a3f35cf2cf3e957118b41299c53ea7b40d1ba7",
    "7bc43ecde544df5a99c33e6e2aa433f9bfc43e503a5a700df4b93e073e28ced395b83e85ab4e",
    "050c1cb73e951b40ddd15dbe3e39f6ccff8b08b23ea9ea7b12737f9c3e7e8e87750ad4a43e6a",
    "aea4b5dab2b33e8f78f9d2e6eeb43e12d5e997ccb1ae3e66894844e9c0b13e28b7bca4e454c5",
    "3e5f4db4a05282b03e130000004000000000c02bab4e4c363f1c0629bed92c323f0004000000",
    "7761726d1300000000000000001400000000000000000000000000fc3f00000000000002402a",
    "1316ba9eed044000000000000006402b1316ba9eed04400000000000000240010000000000fc",
    "3f010000000000f43f58b3a7178549ec3f000000000000e83f56b3a7178549ec3ffeffffffff",
    "fff33ffffffffffffffb3f00000000000002402a1316ba9eed044000000000000006402c1316",
    "ba9eed04400000000000000240020000000000fc3f040000000000f43f010c00000000000000",
    "0000000000000000000101000000000000e03f1000000000000000000000e83f00",
);

fn v12_blob() -> Vec<u8> {
    let bytes: Vec<u8> = (0..V12_BLOB_HEX.len())
        .step_by(2)
        .map(|i| u8::from_str_radix(&V12_BLOB_HEX[i..i + 2], 16).unwrap())
        .collect();
    assert_eq!(u16::from_le_bytes([bytes[8], bytes[9]]), 12);
    bytes
}

/// The v12 layout of a `ForecastOptions` block: enabled tag `1`, damping,
/// error window, fusion flag, sMAPE alarm bar. Returns where the blocks
/// with these values sit in `bytes`.
fn v12_forecast_options_at(bytes: &[u8], damping: f64, window: u32, alarm: f64) -> Vec<usize> {
    let mut block = vec![1u8];
    block.extend(damping.to_le_bytes());
    block.extend(window.to_le_bytes());
    block.push(0);
    block.extend(alarm.to_le_bytes());
    (0..bytes.len()).filter(|&at| bytes[at..].starts_with(&block)).collect()
}

/// Codec read-compatibility with the previous version, pinned at the
/// *integration* level with [`V12_BLOB_HEX`]: the image must restore
/// through the public API, answer forecasts from its heads' dampings, and
/// continue scoring bit-identically to a detector rebuilt from the same
/// stream; it re-snapshots as the current version without the error
/// tracker. If the decoder's previous-version reads drift, this blob is
/// the tripwire no unit-level round-trip can replace.
#[test]
fn pinned_v12_snapshot_blob_restores_and_continues_bit_identically() {
    use oneshotstl_suite::core::{
        OneShotStl, OneShotStlConfig, ScoreConfig, StdAnomalyDetector,
    };
    use oneshotstl_suite::fleet::{codec, ForecastOptions};

    let bytes = v12_blob();
    let mut restored = FleetEngine::restore_bytes(&bytes).expect("v12 blob must decode");
    // upgrade-on-rewrite: re-snapshotted at once, the image is this
    // build's encoding of the decoded state. The engine's and the warming
    // override's options shrink from 22 bytes to 9, and the live head
    // from its options, pending forecast and two 64-pair rings to a tag
    // and φ.
    let rewritten = restored.snapshot_bytes().unwrap();
    assert_eq!(u16::from_le_bytes([rewritten[8], rewritten[9]]), 13, "rewritten as v13");
    let decoded = codec::decode(&bytes).unwrap();
    assert_eq!(rewritten, codec::encode(&decoded));
    assert_eq!(decoded.config.forecast, ForecastOptions { enabled: true, damping: 0.9 });
    let v12_head = 1 + 22 + 9 + 2 * (8 + 64 * 8) + 24;
    assert_eq!(bytes.len() - rewritten.len(), 2 * (22 - 9) + v12_head - 9);
    let stats = restored.stats().unwrap();
    assert_eq!((stats.live, stats.warming), (1, 1));
    assert_eq!((stats.admitted, stats.points), (1, 140), "v12 lifetime counters carried");

    // rebuild the live series' detector through the public API
    let t = 12usize;
    let y = |i: usize| 1.5 + (2.0 * std::f64::consts::PI * i as f64 / t as f64).sin();
    let twin_of = |values: &[f64]| {
        let mut twin = StdAnomalyDetector::with_score(
            OneShotStl::new(OneShotStlConfig::default()),
            5.0,
            ScoreConfig::default(),
        );
        twin.init(&values[..3 * t], t).unwrap();
        for &v in &values[3 * t..] {
            twin.update_scored(v);
        }
        twin
    };
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

    // continue the twin streams: the v12-restored engine tracks the twin
    // bit for bit, forecasts included
    for i in 120..156 {
        let x = y(i) + if i == 132 { 4.0 } else { 0.0 };
        live.push(x);
        let (pt, vt) = twin.update_scored(x);
        let out = restored.ingest_one("live", i as u64, x).unwrap();
        match &out.output {
            PointOutput::Scored { point, score, is_anomaly } => {
                assert_eq!(point.residual.to_bits(), pt.residual.to_bits(), "i={i}");
                assert_eq!(point.trend.to_bits(), pt.trend.to_bits(), "i={i}");
                assert_eq!(point.seasonal.to_bits(), pt.seasonal.to_bits(), "i={i}");
                assert_eq!(score.to_bits(), vt.score.to_bits(), "i={i}");
                assert_eq!(*is_anomaly, vt.is_anomaly, "i={i}");
            }
            other => panic!("live series must score, got {other:?} at i={i}"),
        }
        assert_eq!(answer_bits(&restored, "live"), forecast_bits(&twin, 0.9), "i={i}");
    }

    // the warming series admits with its override's head, φ = 0.5
    let warm: Vec<f64> = (0..3 * t).map(|i| y(i) + 0.25).collect();
    for (i, &v) in warm.iter().enumerate().skip(20) {
        restored.ingest_one("warm", i as u64, v).unwrap();
    }
    assert_eq!(answer_bits(&restored, "warm"), forecast_bits(&twin_of(&warm), 0.5));

    // the v12-restored engine re-snapshots as v13 and the copy continues
    // in lockstep with the original
    let mut upgraded = FleetEngine::restore_bytes(&restored.snapshot_bytes().unwrap()).unwrap();
    for i in 156..156 + t {
        let a = restored.ingest_one("live", i as u64, y(i)).unwrap();
        let b = upgraded.ingest_one("live", i as u64, y(i)).unwrap();
        assert_eq!(a.output, b.output, "v13 rewrite diverged at i={i}");
    }
    assert_eq!(answer_bits(&restored, "live"), answer_bits(&upgraded, "live"));
}

/// A v12 image whose error fusion is on — engine-wide, in a warming
/// series' override, or in a live series' head — is refused with a typed
/// error: this build cannot raise the drift alarm it asked for, and
/// restoring it without one would silently change its verdicts. An image
/// two versions old is refused outright.
#[test]
fn v12_images_asking_for_the_drift_alarm_and_v11_images_are_refused() {
    use oneshotstl_suite::fleet::{codec, CodecError};

    let bytes = v12_blob();
    let engine_and_live = v12_forecast_options_at(&bytes, 0.9, 64, 1.5);
    let warm_override = v12_forecast_options_at(&bytes, 0.5, 16, 0.75);
    assert_eq!((engine_and_live.len(), warm_override.len()), (2, 1));
    for at in engine_and_live.into_iter().chain(warm_override) {
        let mut fused = bytes.clone();
        // tag, damping and error window, then the fusion flag
        fused[at + 1 + 8 + 4] = 1;
        assert_eq!(
            codec::decode(&fused),
            Err(CodecError::Invalid("forecast error fusion (retired in v13)")),
            "fusion flag at byte {at}"
        );
        assert!(FleetEngine::restore_bytes(&fused).is_err());
    }
    let mut v11 = bytes;
    v11[8..10].copy_from_slice(&11u16.to_le_bytes());
    assert_eq!(codec::decode(&v11), Err(CodecError::UnsupportedVersion(11)));
}
