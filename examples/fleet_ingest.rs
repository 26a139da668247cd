//! Fleet engine walkthrough: a small fleet of metrics streams through
//! warm-up admission into live scoring — one series with per-series
//! tuning via `AdmitOptions` — serves multi-horizon forecasts, gets
//! snapshotted, and a restored engine picks up the stream where the
//! original left off.
//!
//! Run with: `cargo run --release --example fleet_ingest`

use oneshotstl_suite::core::{Fusion, ScoreConfig};
use oneshotstl_suite::fleet::{
    AdmitOptions, FleetConfig, FleetEngine, ForecastOptions, PeriodPolicy, PointOutput, Record,
    SeriesKey,
};

fn value_period(series: usize, t: u64, period: f64) -> f64 {
    let amp = 1.0 + (series % 3) as f64;
    amp * (2.0 * std::f64::consts::PI * t as f64 / period).sin()
        + 0.01 * (series as f64) * (t as f64 / 100.0)
}

fn value(series: usize, t: u64) -> f64 {
    value_period(series, t, 24.0)
}

fn main() {
    let n_series = 50usize;
    let mut engine = FleetEngine::new(FleetConfig {
        shards: 4,
        period: PeriodPolicy::Fixed(24),
        ttl: Some(10_000),
        // every series gets a slightly damped forecast head
        forecast: ForecastOptions { damping: 0.95, ..ForecastOptions::on() },
        ..Default::default()
    })
    .expect("valid config");

    // Per-series tuning: admission is config-global by default, but any
    // series can override λ, the NSigma threshold, its declared period,
    // the shift-search policy, or the residual scoring (CUSUM fusion)
    // *before* it admits. This high-priority metric beats at period 12
    // (the fleet default is 24), gets a tighter anomaly threshold, and a
    // more sensitive CUSUM bar — registered up front, so the overrides
    // are in place when its first point arrives.
    let vip = "tenant-0/metric-0";
    engine
        .set_admit_options(
            vip,
            AdmitOptions {
                period: Some(12),
                nsigma: Some(3.5),
                score: Some(ScoreConfig {
                    cusum_h: 4.0,
                    fusion: Fusion::Max,
                    ..Default::default()
                }),
                ..Default::default()
            },
        )
        .expect("series not admitted yet");

    // Stream batches: one point per series per tick. Unknown keys buffer
    // through warm-up (init_len = 3·24 = 72 points; the overridden series
    // needs only 3·12 = 36) and are then admitted.
    let mut admitted_at = None;
    let mut vip_admitted_at = None;
    for t in 0..200u64 {
        let batch: Vec<Record> = (0..n_series)
            .map(|s| {
                let v = if s == 0 { value_period(s, t, 12.0) } else { value(s, t) };
                Record::new(format!("tenant-{}/metric-{}", s % 5, s), t, v)
            })
            .collect();
        let out = engine.ingest(batch).expect("ingest");
        for p in &out {
            if matches!(p.output, PointOutput::Scored { .. }) {
                if p.key.as_str() == vip {
                    vip_admitted_at.get_or_insert(t);
                } else {
                    admitted_at.get_or_insert(t);
                }
            }
        }
    }
    println!(
        "per-series tuning: {vip} (declared period 12) admitted at tick {:?}, \
         the config-global fleet at {:?}",
        vip_admitted_at, admitted_at
    );
    let stats = engine.stats().expect("stats");
    println!(
        "after 200 ticks: {} live series (admitted at tick {:?}), {} points, {} anomalies",
        stats.live, admitted_at, stats.points, stats.anomalies
    );
    for s in &stats.shards {
        println!(
            "  shard {}: {} live, {} points, queue depth {}",
            s.shard, s.live, s.points, s.queue_depth
        );
    }
    println!(
        "diagnostics: {} shift searches ({} candidates tried), {} z alarms, {} CUSUM alarms",
        stats.shift_searches, stats.shift_trials, stats.z_alarms, stats.cusum_alarms
    );

    // Inject an anomaly into one series and watch its score spike.
    let spiky = "tenant-1/metric-11";
    let normal = engine.ingest_one(spiky, 200, value(11, 200)).expect("ingest");
    let spiked = engine.ingest_one(spiky, 201, value(11, 201) + 8.0).expect("ingest");
    println!(
        "normal score {:.2} → spiked score {:.2} (anomaly: {})",
        normal.score().unwrap_or(0.0),
        spiked.score().unwrap_or(0.0),
        spiked.is_anomaly()
    );

    // Forecast the next day for one series straight from the engine…
    let forecast =
        engine.forecast_one(&spiky.into(), 24).expect("shard up").expect("series is live");
    println!("24-step forecast head: {:?}", &forecast[..4]);
    // …or for many at once: the batch call fans out to the shards in
    // parallel and answers in request order (None = not live).
    let keys: Vec<SeriesKey> = (0..n_series)
        .map(|s| SeriesKey::new(format!("tenant-{}/metric-{}", s % 5, s)))
        .collect();
    let horizons = engine.forecast(&keys, 24).expect("shard up");
    let served = horizons.iter().filter(|f| f.is_some()).count();
    println!("batch forecast: {served}/{} series answered 24 horizons", keys.len());

    // Snapshot the whole fleet, "crash", restore, and keep scoring.
    let bytes = engine.snapshot_bytes().expect("snapshot");
    println!("snapshot: {} series in {} KiB", stats.live, bytes.len() / 1024);
    drop(engine);
    let mut restored = FleetEngine::restore_bytes(&bytes).expect("restore");
    let p = restored.ingest_one(spiky, 202, value(11, 202)).expect("ingest");
    println!("restored engine continues scoring: t=202 score {:.2}", p.score().unwrap_or(0.0));
}
