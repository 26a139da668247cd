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
        // a forecast-head override rides the same snapshot path (codec v6)
        forecast: Some(ForecastOptions { error_window: 32, ..ForecastOptions::on() }),
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

/// Codec v6 carries each live series' forecast head: the pending one-step
/// prediction awaiting its truth and the rolling error tracker rings. A
/// snapshot taken while trackers are charged must continue bit-identically
/// on both channels — the scoring stream (error fusion folds tracker state
/// into verdicts) and the forecasts themselves — and a later snapshot of
/// the restored engine must be byte-identical to the uninterrupted one's.
#[test]
fn forecast_state_survives_snapshot_bit_identically() {
    use oneshotstl_suite::fleet::ForecastOptions;

    let n_series = 12;
    let warm = 100u64; // past init_len(24) = 72: every series is live
    let tail = 80u64;
    let streams = build_streams(n_series);
    let cfg = || FleetConfig {
        forecast: ForecastOptions {
            enabled: true,
            damping: 0.9,
            error_window: 24,
            error_fusion: true,
            smape_alarm: 1.5,
        },
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

    // the pending prediction survived: forecasts agree before any new point
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
    // byte-identical to the uninterrupted engine's (tracker rings, ring
    // cursors, alarm-independent state — everything)
    assert_eq!(full.snapshot_bytes().unwrap(), restored.snapshot_bytes().unwrap());
}

/// The stats-counter snapshot contract. Lifetime counters (`points`,
/// `anomalies`, `admitted`, `evicted`) carry across a snapshot/restore;
/// the diagnostic counters (`shift_searches`, `shift_trials`, `z_alarms`,
/// `cusum_alarms`, `forecast_alarms`, and the backend's `trend_alarms`)
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
        // series-3: forecast head (forecast_alarms)
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
    assert_eq!(got.forecast_alarms, ref_end.forecast_alarms - ref_mid.forecast_alarms);
    assert_eq!(got.trend_alarms, ref_end.trend_alarms - ref_mid.trend_alarms);
    assert!(got.trend_alarms > 0, "no post-snapshot trend alarms to track: {got:?}");

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

/// Codec read-compatibility with the previous version, pinned at the
/// *integration* level with a byte blob written by the v11 writer (not
/// re-encoded by this build's writer): a v11 fleet snapshot — a live
/// series, a quarantined tombstone, the seven lifetime counters — must
/// restore through the public API and continue scoring bit-identically
/// to an uninterrupted detector fed the same stream. If the decoder's
/// previous-version reads drift, this blob is the tripwire no unit-level
/// round-trip can replace.
#[test]
fn pinned_v11_snapshot_blob_restores_and_continues_bit_identically() {
    use oneshotstl_suite::core::{
        OneShotStl, OneShotStlConfig, ScoreConfig, StdAnomalyDetector,
    };

    // generated by the v11 writer: config fixed_period(12), clock 95,
    // batches 96, totals {1,2,300,4,5,6,7}, series "live" (t=12 sine, 96
    // points through init+update) and "q" (quarantined, cause Panic, 11
    // dropped)
    const V11_BLOB_HEX: &str = concat!(
        "4f5353544c464c540b00000400000003000000000c0000000000000000000014400000000000",
        "000000000059400000000000005940000000000000f03f080000001400000000000000000014",
        "4000000000000000e03f00bbbdd7d9df7cdb3d010400000002000000000000e03f0000000000",
        "001840ae47e17a14aeef3f00000000000000f03f4000000000000000000000f83f00005f0000",
        "00000000006000000000000000010000000000000002000000000000002c0100000000000004",
        "0000000000000005000000000000000600000000000000070000000000000002000000000000",
        "00040000006c6976655f00000000000000010000000000005940000000000000594000000000",
        "0000f03f0800000014000000000000000000144000000000000000e03f00bbbdd7d9df7cdb3d",
        "01040000000c000000000000006000000000000000300000000000000000000000000000000c",
        "00000000000000a975fb3e06eef53e41479d892a00e03f0909deaea4b6eb3f067ee5fa1c00f0",
        "3f41770e65b0b6eb3f88c9ce213400e03f24df0c193890f93e8c2dad719bffdfbf65b7d66349",
        "b6ebbfdde4cc58d0ffefbf47dee14c4cb6ebbf773bc8b7a4ffdfbf52b3a7178549e43f080000",
        "000000f03ff50758ed4cb6ebbf2d85ce27a7ffdfbf0800000001300000000000000020000000",
        "00000000000000000000f03f00000000000000000000000000000000000000000000000063d5",
        "5714ca2b6d3f000000000000f03f00000000000000000000000000000000cb2b1abd38fff4bf",
        "b2ff491fcf08e53f000000000000f03f00000000000000000000000000000000000000000000",
        "00001c5704e7872b6d3f000000000000f03fb59ee4df35cad63f831f5ad69dd4c6bf6cf63800",
        "17fff4bfcb52373dad08e53f0000000000000000000000000000000000000000000000000000",
        "000000000000000000000000000000000000000000000e647b2c02cad63f0377aff369d4c6bf",
        "0000000000000000000000000000000000000000000000000000000000000000040000000000",
        "00005ded42b6388d714015d4f51a6af1ff3f4441e087608d7140d47d0c3c6af1ff3f04000000",
        "000000004c870b8190933140f6fb642df6dad2bf117a4eff91733140c0a80840dffce1bf0000",
        "00000000f03f000000000000f03f000000000000f03f000000000000f03fdc4aa68fe8fff73f",
        "ea9d15a5e8fff73f0130000000000000002000000000000000000000000000f03f0000000000",
        "00000000000000000000000000000000000000cd0b2ae93398fd3d000000000000f03f000000",
        "00000000000000000000000000177144c68518f5bfa7f357c68518e53f000000000000f03f00",
        "00000000000000000000000000000000000000000000001bcbbaf99adcf53d000000000000f0",
        "3f016d4c2e1762d43fd9465f2e1762c4bf6b3b682f2533f5bf22b7762f2533e53f0000000000",
        "0000000000000000000000000000000000000000000000000000000000000000000000000000",
        "0000000000f6d698ca94ccd43f9b0ca7ca94ccc4bf0000000000000000000000000000000000",
        "0000000000000000000000000000000400000000000000d9d984bcec4ce141cc67e2ffffffff",
        "3f382a544a7f6be7416523eaffffffff3f0400000000000000af41e01a4bff50405788c47a08",
        "b3cdbf043504c554f84b409b6be624a0ffdfbfd646486b77db6e410766ce04e6e257412ed876",
        "6e0a365c41e487167a0c7c6341737a3c5f3dfff73fa7dae70541fff73f013000000000000000",
        "2000000000000000000000000000f03f00000000000000000000000000000000000000000000",
        "0000a75c5bd49a3b2b3e000000000000f03f0000000000000000000000000000000064425440",
        "715bfcbf2f521541715bec3f000000000000f03f000000000000000000000000000000000000",
        "000000000000f9b341c0073e133e000000000000f03fd2be225de3b6e83f9701cb5de3b6d8bf",
        "31ef1262cbc0febf88e75c62cbc0ee3f00000000000000000000000000000000000000000000",
        "00000000000000000000000000000000000000000000000000000b71340e9781ed3f9a697b0e",
        "9781ddbf00000000000000000000000000000000000000000000000000000000000000000400",
        "000000000000d607089a03cdb241292326ffffffff3f3b621b5ea89bca41e107b3ffffffff3f",
        "0400000000000000f3cc58f1ed2d68402e53d6600db3cdbfd90224556ff766406492c1eea0ff",
        "dfbf8bcc0c118a3a01413ba9442079870141e905b310089642411900acca72675f41c7a5bbe2",
        "e6fff73fc7fb5ef5e6fff73f0130000000000000002000000000000000000000000000f03f00",
        "00000000000000000000000000000000000000000000005c576efb4ead023e000000000000f0",
        "3f000000000000000000000000000000009936f30f0ca5f7bf64d00e100ca5e73f0000000000",
        "00f03f0000000000000000000000000000000000000000000000007f4a78c0f58ff43d000000",
        "000000f03f92823e503094de3f833462503094cebfb4ee0a9ae7b2f6bfa384199ae7b2e63f00",
        "0000000000000000000000000000000000000000000000000000000000000000000000000000",
        "000000000000000000a51bf8739ecbda3f745309749ecbcabf00000000000000000000000000",
        "000000000000000000000000000000000000000400000000000000bfa6f4a2d569db4162a5da",
        "ffffffff3f6effdee35ee6e8410a70ebffffffff3f0400000000000000ed8aa81296b2444027",
        "eb356c08b3cdbf3f9162fdac0a4b40bef42a23a0ffdfbfed9aec36f64c6c4120b117a580785b",
        "41e58e2ca9f2c36041c3cb6b2726b06a41cc7af0c30100f83f9f04572c0100f83f0130000000",
        "000000002000000000000000000000000000f03f000000000000000000000000000000000000",
        "00000000000037ab238bba2e313e000000000000f03f00000000000000000000000000000000",
        "135a90fb7d1df7bfd4f056fc7d1de73f000000000000f03f0000000000000000000000000000",
        "00000000000000000000434e8ce206ff223e000000000000f03fa3036099f875dc3f5d87549a",
        "f875ccbf9e7c10bdda03f9bfd84887bdda03e93f000000000000000000000000000000000000",
        "0000000000000000000000000000000000000000000000000000000000005005ccaab507e23f",
        "8ca521abb507d2bf000000000000000000000000000000000000000000000000000000000000",
        "000004000000000000002d39c41936ccad415714edfeffffff3f5f2b811fe8f3ba41c90768ff",
        "ffffff3f040000000000000011113087af714d405741d0350ab3cdbf03131494863e4e40ea44",
        "6ca1a0ffdfbfb30b66df19b4344126cca7bdc0042b41a0be658b1af6304103ccc7a33e704341",
        "aa567b010e00f83fc609bc440d00f83f01300000000000000020000000000000000000000000",
        "00f03f000000000000000000000000000000000000000000000000a9e3c148abd7133e000000",
        "000000f03f00000000000000000000000000000000b0063e91cab2fcbffc348591cab2ec3f00",
        "0000000000f03f0000000000000000000000000000000000000000000000003f479b50ab4d0c",
        "3e000000000000f03ff19ba74f9565e93fdd99e64f9565d9bf87c3e3e77f41fdbf2b8417e87f",
        "41ed3f0000000000000000000000000000000000000000000000000000000000000000000000",
        "00000000000000000000000000136d90f3ff82ea3f0653bff3ff82dabf000000000000000000",
        "00000000000000000000000000000000000000000000000400000000000000fa5e002aa2cdc9",
        "4153a1b0ffffffff3f369eb6bdf616d241a964c7ffffffff3f04000000000000001b7b0c72c6",
        "195b403ef8c24809b3cdbff57958f600185e4016d0427ca0ffdfbfc6dd98469b4424412b54a3",
        "3173b325411b3b22087b365a411caaaa06fe2e63414c833690f9fff73f7bfd3142f9fff73f01",
        "30000000000000002000000000000000000000000000f03f0000000000000000000000000000",
        "00000000000000000000fdd42a03f202ef3d000000000000f03f000000000000000000000000",
        "000000008b4dcb2fd270febf970dda2fd270ee3f000000000000f03f00000000000000000000",
        "0000000000000000000000000000ea98a1116787103e000000000000f03f02bc366aa4e1ec3f",
        "a2ba446aa4e1dcbf6db006a74f02f8bf674b38a74f02e83f0000000000000000000000000000",
        "000000000000000000000000000000000000000000000000000000000000000000004845d982",
        "9f04e03fa35dfa829f04d0bf0000000000000000000000000000000000000000000000000000",
        "0000000000000400000000000000871cb7758f82f041877ef0ffffffff3f61fcee42dcf9ce41",
        "64e2bdffffffff3f0400000000000000ccbcd4f97a5660409dd7387b08b3cdbfe4142fa1340a",
        "63405d4c25afa0ffdfbf1baadf1737ba3341d98d27721e403a4154a9a304c31283419c15ebbe",
        "d6d85341729b8736eafff73f9cf8eb27eafff73f013000000000000000200000000000000000",
        "0000000000f03f0000000000000000000000000000000000000000000000006cc4e19d977ffe",
        "3d000000000000f03f00000000000000000000000000000000ebd0b69ced95fbbf781bd19ced",
        "95eb3f000000000000f03f000000000000000000000000000000000000000000000000a437e4",
        "d73ea3f23d000000000000f03f65da2a42db2be73fe7ef4042db2bd7bfdc4d9413c51cfbbf5b",
        "18a413c51ceb3f00000000000000000000000000000000000000000000000000000000000000",
        "00000000000000000000000000000000006c0f652e8a39e63f2b01722e8a39d6bf0000000000",
        "0000000000000000000000000000000000000000000000000000000400000000000000197615",
        "c4aac9e0416880e1ffffffff3f9737bcc6a278eb41c15cedffffffff3f04000000000000009d",
        "eb8e9228134b40ed8b7f6f08b3cdbfa13dbf70c9625240785a3527a0ffdfbf3b0fceac63cb59",
        "41d4a08ebb52866141b64f61889b1e6f41b2170774f26b7841f5b30962e8fff73f787cf091e8",
        "fff73f00000000000014406000000000000000c96f060a9b34323f50914fcd8172443e010200",
        "0000000000e03f0000000000001840ae47e17a14aeef3f000000000000144060000000000000",
        "00c96f060a9b34323f50914fcd8172443e00000000000000000000000000000000785c17c257",
        "b4394000000100000071050000000000000003010b00000000000000",
    );
    let bytes: Vec<u8> = (0..V11_BLOB_HEX.len())
        .step_by(2)
        .map(|i| u8::from_str_radix(&V11_BLOB_HEX[i..i + 2], 16).unwrap())
        .collect();
    assert_eq!(u16::from_le_bytes([bytes[8], bytes[9]]), 11);

    let mut restored = FleetEngine::restore_bytes(&bytes).expect("v11 blob must decode");
    // upgrade-on-rewrite: re-snapshotted at once, the image is this
    // build's encoding of the decoded state, 22 L-window cells smaller in
    // each of the live series' 8 steady solvers
    let rewritten = restored.snapshot_bytes().unwrap();
    let decoded = oneshotstl_suite::fleet::codec::decode(&bytes).unwrap();
    assert_eq!(rewritten, oneshotstl_suite::fleet::codec::encode(&decoded));
    assert_eq!(bytes.len() - rewritten.len(), 8 * 22 * 8);
    let stats = restored.stats().unwrap();
    assert_eq!(stats.live, 1);
    assert_eq!(stats.quarantined, 1);
    assert_eq!((stats.evicted, stats.admitted), (1, 2), "v11 lifetime counters carried");
    assert_eq!((stats.points, stats.anomalies), (300, 4));
    assert_eq!(stats.wal_retries, 5, "v11 health counters carried");
    assert_eq!(stats.shard_restarts, 6);
    assert_eq!(stats.undurable_batches, 7);
    assert_eq!(stats.cold_resident, 0, "the pinned image carries no cold state");
    assert_eq!((stats.spills, stats.rehydrations, stats.cold_errors), (0, 0, 0));

    // rebuild the blob's detector through the public API and continue the
    // twin streams: the v11-restored engine must track it bit for bit
    let t = 12usize;
    let y: Vec<f64> = (0..8 * t)
        .map(|i| 1.5 + (2.0 * std::f64::consts::PI * i as f64 / t as f64).sin())
        .collect();
    let mut twin = StdAnomalyDetector::with_score(
        OneShotStl::new(OneShotStlConfig::default()),
        5.0,
        ScoreConfig::default(),
    );
    twin.init(&y[..4 * t], t).unwrap();
    for &v in &y[4 * t..] {
        twin.update_scored(v);
    }
    for i in 0..3 * t {
        let x = 1.5
            + (2.0 * std::f64::consts::PI * i as f64 / t as f64).sin()
            + if i == t { 4.0 } else { 0.0 };
        let (pt, vt) = twin.update_scored(x);
        let out = restored.ingest_one("live", 96 + i as u64, x).unwrap();
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
    }

    // the v11-restored engine re-snapshots as v12 and the copy continues
    // in lockstep with the original
    let v12_bytes = restored.snapshot_bytes().unwrap();
    assert_eq!(u16::from_le_bytes([v12_bytes[8], v12_bytes[9]]), 12, "rewritten as v12");
    let mut upgraded = FleetEngine::restore_bytes(&v12_bytes).unwrap();
    for i in 0..t {
        let x = 1.5 + (2.0 * std::f64::consts::PI * i as f64 / t as f64).sin();
        let a = restored.ingest_one("live", 200 + i as u64, x).unwrap();
        let b = upgraded.ingest_one("live", 200 + i as u64, x).unwrap();
        assert_eq!(a.output, b.output, "v12 rewrite diverged at i={i}");
    }
}
