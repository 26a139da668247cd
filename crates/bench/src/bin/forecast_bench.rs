//! Multi-horizon forecast quality + fleet forecast-call latency.
//!
//! Two questions, one binary:
//!
//! 1. **Quality** — does the §5 forecast recurrence
//!    `ŷ(t+h) = τ(t) + slope·Σφⁱ + v[(t+Δ+h) mod T]` beat the seasonal-naive
//!    baseline per horizon? Evaluated streaming: every model sees the same
//!    train split, then walks the test region one point at a time —
//!    forecast `1..=T/2` ahead, score each horizon against the realized
//!    future, observe the truth, repeat. Per-horizon MAE/sMAPE come from
//!    the same [`forecast::ErrorAcc`] accumulator the fleet's rolling
//!    tracker is built on. Two synthetic families:
//!
//!    - **seasonal** — random seasonal template (T = 24) + noise; the
//!      regime where seasonal-naive is hardest to beat (it repeats the
//!      last cycle, noise and all, while the STL seasonal averages it).
//!    - **trended** — seasonality + 0.05/step drift + noise, decomposed
//!      with the TSF protocol λ (`λ₁ = 1, λ₂ = 100`): the elastic trend
//!      tracks the drift, so `slope·h` extrapolates it while
//!      seasonal-naive flatlines.
//!
//! 2. **Latency** — what does a forecast call cost against a large live
//!    fleet? A fleet (100k series full mode, 2k under `--quick`/`--smoke`)
//!    is warmed to fully-live with forecast heads enabled, then timed on
//!    batched `forecast(keys, 24)` calls and single-key `forecast_one`.
//!
//! Emits `BENCH_forecast.json` in the working directory (under
//! `target/experiments/` with `--quick`/`--smoke`) and a markdown report under
//! `target/experiments/`. `--smoke` is the CI quality gate: it **fails
//! the process** when the undamped STL forecast loses to seasonal-naive
//! on h = 1 sMAPE over the seasonal family.

use benchkit::{write_bench_json, Cli, Experiment};
use fleet::{FleetConfig, FleetEngine, ForecastOptions, PeriodPolicy, Record, SeriesKey};
use forecast::heads::StlForecaster;
use forecast::naive::{Naive, SeasonalNaive};
use forecast::traits::{Forecaster, OnlineForecaster};
use forecast::ErrorAcc;
use oneshotstl::system::Lambdas;
use oneshotstl::{OneShotStl, OneShotStlConfig};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::fmt::Write as _;
use std::time::Instant;
use tskit::synth::{gaussian_noise, SeasonTemplate};

const PERIOD: usize = 24;
const HORIZONS: [usize; 4] = [1, 2, 6, 12]; // 1..T/2

/// A model the streaming evaluator can walk: forecast from the current
/// clock, then advance by one observed truth. Unifies the online STL
/// wrapper with the batch baselines (whose `observe` is a cheap ring/level
/// update after one initial fit).
trait StreamModel {
    fn label(&self) -> String;
    fn start(&mut self, train: &[f64], period: usize);
    fn forecast(&self, horizon: usize) -> Vec<f64>;
    fn observe(&mut self, y: f64);
}

struct OnlineModel<F: OnlineForecaster>(F, &'static str);

impl<F: OnlineForecaster> StreamModel for OnlineModel<F> {
    fn label(&self) -> String {
        self.1.to_string()
    }
    fn start(&mut self, train: &[f64], period: usize) {
        self.0.init(train, period).expect("init on synthetic train");
    }
    fn forecast(&self, horizon: usize) -> Vec<f64> {
        self.0.forecast(horizon)
    }
    fn observe(&mut self, y: f64) {
        self.0.observe(y);
    }
}

struct BatchModel<F: Forecaster>(F);

impl<F: Forecaster> StreamModel for BatchModel<F> {
    fn label(&self) -> String {
        self.0.name()
    }
    fn start(&mut self, train: &[f64], period: usize) {
        self.0.fit(train, period).expect("fit on synthetic train");
    }
    fn forecast(&self, horizon: usize) -> Vec<f64> {
        self.0.forecast(horizon)
    }
    fn observe(&mut self, y: f64) {
        self.0.observe(y);
    }
}

/// One model's per-horizon errors over one family (pooled across series).
struct ModelRow {
    label: String,
    /// `(mae, smape)` per entry of [`HORIZONS`].
    errors: Vec<(f64, f64)>,
}

/// Walks `model` through every series of the family: init on the train
/// split, then at each test step forecast `max(HORIZONS)` ahead, fold
/// each horizon's error into its accumulator, and observe the truth.
fn evaluate<M: StreamModel>(mut model: M, family: &[Vec<f64>], train_len: usize) -> ModelRow {
    let h_max = *HORIZONS.iter().max().unwrap();
    let mut accs = vec![ErrorAcc::new(); HORIZONS.len()];
    for series in family {
        model.start(&series[..train_len], PERIOD);
        for t in train_len..series.len() - h_max {
            let pred = model.forecast(h_max);
            for (acc, &h) in accs.iter_mut().zip(&HORIZONS) {
                acc.record(series[t + h - 1], pred[h - 1]);
            }
            model.observe(series[t]);
        }
    }
    ModelRow {
        label: model.label(),
        errors: accs.iter().map(|a| (a.mae(), a.smape())).collect(),
    }
}

/// `n` seasonal-template series (+ optional drift) with noise; one fixed
/// construction per seed so every run compares identical streams.
fn family(n: usize, len: usize, drift: f64, seed: u64) -> Vec<Vec<f64>> {
    (0..n)
        .map(|s| {
            let mut rng = StdRng::seed_from_u64(seed + s as u64);
            let template = SeasonTemplate::random(PERIOD, 3, &mut rng);
            let mut y = template.render(len, 2.0 + (s % 3) as f64);
            for (i, (v, e)) in y.iter_mut().zip(gaussian_noise(len, 0.05, &mut rng)).enumerate()
            {
                *v += e + drift * i as f64;
            }
            y
        })
        .collect()
}

/// The §5 forecaster under a given λ protocol and damping.
fn stl(lambdas: Lambdas, phi: f64) -> StlForecaster {
    StlForecaster::new(OneShotStl::new(OneShotStlConfig { lambdas, ..Default::default() }), phi)
}

fn run_family(
    name: &str,
    streams: &[Vec<f64>],
    train_len: usize,
    lambdas: Lambdas,
) -> Vec<ModelRow> {
    let rows = vec![
        evaluate(OnlineModel(stl(lambdas, 1.0), "STL+trend"), streams, train_len),
        evaluate(OnlineModel(stl(lambdas, 0.9), "STL+trend(phi=0.9)"), streams, train_len),
        evaluate(BatchModel(SeasonalNaive::default()), streams, train_len),
        evaluate(BatchModel(Naive::default()), streams, train_len),
    ];
    for r in &rows {
        let mut line = format!("[forecast_bench] {name:<9} {:<19}", r.label);
        for (&h, (mae, smape)) in HORIZONS.iter().zip(&r.errors) {
            let _ = write!(line, "  h={h} mae {mae:.4} smape {smape:.4}");
        }
        eprintln!("{line}");
    }
    rows
}

struct LatencyStats {
    fleet_size: usize,
    batch_keys: usize,
    batch_call_us: f64,
    per_key_us: f64,
    single_call_us: f64,
}

/// Warms a fully-live fleet with forecast heads on, then times forecast
/// calls against it (median of `iters` wall-clock samples).
fn fleet_latency(n_series: usize, shards: usize) -> LatencyStats {
    let horizon = PERIOD;
    let keys: Vec<SeriesKey> =
        (0..n_series).map(|s| SeriesKey::new(format!("fleet/metric-{s}"))).collect();
    let mut engine = FleetEngine::new(FleetConfig {
        shards,
        period: PeriodPolicy::Fixed(PERIOD),
        forecast: ForecastOptions { damping: 0.95, ..ForecastOptions::on() },
        ..Default::default()
    })
    .expect("valid config");
    // init_len = 3·24 = 72: one extra tick promotes every series to live
    for t in 0..73u64 {
        for chunk in keys.chunks(8192) {
            let batch: Vec<Record> = chunk
                .iter()
                .enumerate()
                .map(|(i, k)| {
                    let phase = (i % 17) as f64 * 0.37;
                    let v =
                        (2.0 * std::f64::consts::PI * (t as f64 / PERIOD as f64 + phase)).sin();
                    Record::new(k.clone(), t, v)
                })
                .collect();
            engine.ingest(batch).expect("warm ingest");
        }
    }
    assert_eq!(engine.stats().expect("stats").live, n_series, "fleet fully live");

    let batch_keys = keys.len().min(1024);
    let sample = &keys[..batch_keys];
    let median = |mut xs: Vec<f64>| -> f64 {
        xs.sort_by(|a, b| a.total_cmp(b));
        xs[xs.len() / 2]
    };
    let iters = 30;
    let mut batch_us = Vec::with_capacity(iters);
    for _ in 0..iters {
        let start = Instant::now();
        let out = engine.forecast(sample, horizon).expect("forecast");
        assert_eq!(out.len(), batch_keys);
        batch_us.push(start.elapsed().as_secs_f64() * 1e6);
    }
    let mut single_us = Vec::with_capacity(iters);
    for i in 0..iters {
        let key = &keys[(i * 7919) % keys.len()];
        let start = Instant::now();
        engine.forecast_one(key, horizon).expect("forecast").expect("live");
        single_us.push(start.elapsed().as_secs_f64() * 1e6);
    }
    let batch_call_us = median(batch_us);
    LatencyStats {
        fleet_size: n_series,
        batch_keys,
        batch_call_us,
        per_key_us: batch_call_us / batch_keys as f64,
        single_call_us: median(single_us),
    }
}

fn main() {
    let cli = Cli::parse();
    let quick = cli.quick;

    let (n_series, len) = if quick { (4, 12 * PERIOD) } else { (12, 24 * PERIOD) };
    let train_len = 6 * PERIOD;
    let tsf_lambdas = Lambdas { lambda1: 1.0, lambda2: 100.0, anchor: 1.0 };

    eprintln!("[forecast_bench] streaming multi-horizon evaluation (T = {PERIOD})...");
    let seasonal = family(n_series, len, 0.0, 42);
    let trended = family(n_series, len, 0.05, 1042);
    let seasonal_rows = run_family("seasonal", &seasonal, train_len, Lambdas::default());
    let trended_rows = run_family("trended", &trended, train_len, tsf_lambdas);

    eprintln!("[forecast_bench] fleet forecast-call latency...");
    let latency = if quick { fleet_latency(2_000, 4) } else { fleet_latency(100_000, 8) };
    eprintln!(
        "[forecast_bench] {} live series: batch({} keys) {:.1} µs/call \
         ({:.3} µs/key), single {:.1} µs/call",
        latency.fleet_size,
        latency.batch_keys,
        latency.batch_call_us,
        latency.per_key_us,
        latency.single_call_us
    );

    // ── the CI gate: STL must beat seasonal-naive where it counts ───────
    let find = |rows: &[ModelRow], label: &str| -> Vec<(f64, f64)> {
        rows.iter().find(|r| r.label == label).expect("model evaluated").errors.clone()
    };
    let stl_seasonal = find(&seasonal_rows, "STL+trend");
    let snaive_seasonal = find(&seasonal_rows, "SeasonalNaive");
    let (stl_h1, snaive_h1) = (stl_seasonal[0].1, snaive_seasonal[0].1);
    let mut failures: Vec<String> = Vec::new();
    // NaN-safe: a NaN metric must fail, not pass
    if !matches!(
        stl_h1.partial_cmp(&snaive_h1),
        Some(std::cmp::Ordering::Less | std::cmp::Ordering::Equal)
    ) {
        failures.push(format!(
            "STL forecast loses to seasonal-naive at h=1 on the seasonal family \
             (sMAPE {stl_h1:.4} vs {snaive_h1:.4})"
        ));
    }

    // ── reports ─────────────────────────────────────────────────────────
    let mut json = String::new();
    let _ = writeln!(json, "{{");
    let _ = writeln!(json, "  \"bench\": \"forecast_bench\",");
    let _ = writeln!(json, "  \"quick\": {quick},");
    let _ = writeln!(json, "  \"period\": {PERIOD},");
    let _ = writeln!(
        json,
        "  \"horizons\": [{}],",
        HORIZONS.iter().map(|h| h.to_string()).collect::<Vec<_>>().join(", ")
    );
    let _ = writeln!(json, "  \"families\": [");
    for (fi, (fname, rows)) in
        [("seasonal", &seasonal_rows), ("trended", &trended_rows)].iter().enumerate()
    {
        let _ = writeln!(json, "    {{\"family\": \"{fname}\", \"models\": [");
        for (i, r) in rows.iter().enumerate() {
            let comma = if i + 1 == rows.len() { "" } else { "," };
            let per_h = HORIZONS
                .iter()
                .zip(&r.errors)
                .map(|(h, (mae, smape))| {
                    format!("{{\"h\": {h}, \"mae\": {mae:.4}, \"smape\": {smape:.4}}}")
                })
                .collect::<Vec<_>>()
                .join(", ");
            let _ = writeln!(
                json,
                "      {{\"model\": \"{}\", \"errors\": [{per_h}]}}{comma}",
                r.label
            );
        }
        let comma = if fi == 1 { "" } else { "," };
        let _ = writeln!(json, "    ]}}{comma}");
    }
    let _ = writeln!(json, "  ],");
    let _ = writeln!(
        json,
        "  \"fleet_latency\": {{\"live_series\": {}, \"batch_keys\": {}, \
         \"batch_call_us\": {:.1}, \"per_key_us\": {:.3}, \"single_call_us\": {:.1}}}",
        latency.fleet_size,
        latency.batch_keys,
        latency.batch_call_us,
        latency.per_key_us,
        latency.single_call_us
    );
    let _ = writeln!(json, "}}");
    let path = write_bench_json("BENCH_forecast.json", &json, quick);
    eprintln!("[forecast_bench] wrote {}", path.display());

    let mut report =
        Experiment::new("forecast_bench", "Multi-horizon forecast quality + fleet latency");
    let header: Vec<String> = std::iter::once("model".to_string())
        .chain(HORIZONS.iter().flat_map(|h| [format!("h={h} MAE"), format!("h={h} sMAPE")]))
        .collect();
    for (fname, rows) in [("seasonal", &seasonal_rows), ("trended", &trended_rows)] {
        report.table(
            &format!("{fname} family: per-horizon forecast error"),
            &header.iter().map(|s| s.as_str()).collect::<Vec<_>>(),
            &rows
                .iter()
                .map(|r| {
                    std::iter::once(r.label.clone())
                        .chain(
                            r.errors
                                .iter()
                                .flat_map(|(m, s)| [format!("{m:.4}"), format!("{s:.4}")]),
                        )
                        .collect::<Vec<_>>()
                })
                .collect::<Vec<_>>(),
        );
    }
    report.para(&format!(
        "Streaming protocol: init on {train_len} points, then walk the test region \
         one point at a time (forecast 1..=T/2, score, observe). Trended family \
         decomposed with the TSF protocol lambdas (1, 100). Fleet latency: \
         {} live series with forecast heads, median of 30 calls.",
        latency.fleet_size
    ));
    report.finish();

    if failures.is_empty() {
        eprintln!(
            "[forecast_bench] OK: STL beats seasonal-naive at h=1 on the seasonal \
             family (sMAPE {stl_h1:.4} <= {snaive_h1:.4})"
        );
    } else {
        for f in &failures {
            eprintln!("[forecast_bench] FAIL: {f}");
        }
        std::process::exit(1);
    }
}
