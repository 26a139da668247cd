//! Cross-crate integration tests: the full pipelines the paper's
//! evaluation depends on, exercised end to end on the synthetic workloads.

use oneshotstl_suite::core::ScoreConfig;
use oneshotstl_suite::metrics::kdd21_score;
use oneshotstl_suite::prelude::*;
use oneshotstl_suite::tskit::period::find_length;
use oneshotstl_suite::tskit::stats::mae;
use oneshotstl_suite::tskit::synth::{kdd21_like, syn1, syn2, tsad_family, tsf_dataset};

/// Table 2's headline: on Syn1 (abrupt trend change), OneShotSTL's trend
/// error is far below OnlineSTL's.
#[test]
fn oneshotstl_beats_onlinestl_on_abrupt_trend() {
    let ds = syn1(42);
    let truth = ds.truth.as_ref().unwrap();
    let t = ds.period;
    let split = 4 * t;
    let cfg = OneShotStlConfig {
        lambdas: Lambdas { lambda1: 1.0, lambda2: 1.0 },
        ..Default::default()
    };
    let mut oneshot = OneShotStl::new(cfg);
    let d_fast = oneshot.run_series(&ds.values, t, split).unwrap();
    let mut online = OnlineStl::new();
    let d_base = online.run_series(&ds.values, t, split).unwrap();
    let e_fast = mae(&d_fast.trend[split..], &truth.trend[split..]);
    let e_base = mae(&d_base.trend[split..], &truth.trend[split..]);
    assert!(
        e_fast < 0.5 * e_base,
        "OneShotSTL trend MAE {e_fast} should be well below OnlineSTL {e_base}"
    );
}

/// Table 2's second headline: OneShotSTL absorbs Syn2's seasonality shift.
#[test]
fn oneshotstl_handles_seasonality_shift() {
    let ds = syn2(42);
    let truth = ds.truth.as_ref().unwrap();
    let t = ds.period;
    let split = 4 * t;
    let with = {
        let cfg = OneShotStlConfig { shift_window: 20, ..Default::default() };
        OneShotStl::new(cfg).run_series(&ds.values, t, split).unwrap()
    };
    let without = {
        let cfg = OneShotStlConfig { shift_window: 0, ..Default::default() };
        OneShotStl::new(cfg).run_series(&ds.values, t, split).unwrap()
    };
    let e_with = mae(&with.seasonal[split..], &truth.seasonal[split..]);
    let e_without = mae(&without.seasonal[split..], &truth.seasonal[split..]);
    assert!(
        e_with < e_without,
        "shift handling must reduce seasonal MAE: {e_with} vs {e_without}"
    );
}

/// The TSAD evaluation protocol (kept in lockstep with the
/// `tsad_ablation` bench): tied λ = 10 (the paper's per-dataset tuning
/// for these families) and the §3.4 shift search disabled — on anomaly
/// workloads the search absorbs anomalous excursions into seasonal-phase
/// shifts, destroying the residual evidence (measured in
/// `BENCH_tsad.json`'s protocol table).
fn tsad_family_vus(name: &str, n_series: usize, seed: u64, score: ScoreConfig) -> f64 {
    let fam = tsad_family(name, n_series, seed);
    let mut total = 0.0;
    for s in &fam.series {
        let period = find_length(s.train());
        let cfg = OneShotStlConfig {
            lambdas: Lambdas { lambda1: 10.0, lambda2: 10.0 },
            shift_window: 0,
            ..Default::default()
        };
        let mut m =
            StdNSigma::with_score("OneShotSTL", 5.0, score, || OneShotStl::new(cfg.clone()));
        let scores = m.score(s.train(), s.test(), period);
        total += vus_roc(&scores, s.test_labels(), period.max(10), 8);
    }
    total / fam.series.len() as f64
}

/// §4 TSAD: the fused residual scorer finds injected anomalies on a
/// strongly seasonal family by a wide margin (measured 0.8754 with the
/// default fused config; the pre-CUSUM z-only pipeline scored 0.7091).
#[test]
fn tsad_pipeline_scores_well_on_seasonal_family() {
    let avg = tsad_family_vus("ECG", 2, 7, ScoreConfig::default());
    assert!(avg > 0.8, "ECG-family VUS-ROC {avg}");
}

/// The hard regime: IOPS (wandering trend + level shifts) — the adaptive
/// trend absorbs level shifts within a few points, so the instantaneous
/// z-score sees only the shift edges and scored near chance (~0.54).
/// The persistence-aware CUSUM + peak-hold scorer bridges the paired
/// edge spikes and lifts the family to ≥ 0.75 VUS-ROC (measured 0.7776
/// with the default fused config — the ROADMAP "TSAD quality target").
/// The same workload is gated can't-skip in CI by `tsad_ablation
/// --smoke`.
#[test]
fn tsad_pipeline_beats_chance_on_wandering_trend_family() {
    let fused = (tsad_family_vus("IOPS", 2, 7, ScoreConfig::default())
        + tsad_family_vus("IOPS", 2, 11, ScoreConfig::default()))
        / 2.0;
    assert!(fused >= 0.75, "IOPS-family fused VUS-ROC {fused}");
}

/// Table 4's protocol end to end: KDD21-style scoring with the detector's
/// top-1 point.
#[test]
fn kdd21_protocol_end_to_end() {
    let series = kdd21_like(6, 11);
    let results: Vec<(Vec<f64>, Vec<bool>)> = series
        .iter()
        .map(|s| {
            let period = s.period.unwrap();
            let mut m = StdNSigma::new("OneShotSTL", 5.0, || {
                OneShotStl::new(OneShotStlConfig::default())
            });
            let scores = m.score(s.train(), s.test(), period);
            (scores, s.test_labels().to_vec())
        })
        .collect();
    let score = kdd21_score(&results, 100);
    assert!(score >= 0.5, "KDD21-style accuracy {score}");
}

/// §4 TSF: the STD forecaster beats seasonal-naive on the strongly
/// seasonal ETTm2-like dataset at horizon 96.
#[test]
fn tsf_pipeline_beats_seasonal_naive_on_ettm2() {
    let ds = tsf_dataset("ETTm2", 5);
    let t = ds.period;
    let h = 96;
    let mut f = StdForecaster::new(OneShotStl::new(OneShotStlConfig::default()));
    f.init(&ds.values[..4 * t], t).unwrap();
    for &v in &ds.values[4 * t..ds.val_end] {
        f.observe(v);
    }
    let pred = f.forecast(h);
    let truth = &ds.values[ds.val_end..ds.val_end + h];
    let std_mae = mae(&pred, truth);
    let naive_mae: f64 =
        (0..h).map(|i| (ds.values[ds.val_end - t + (i % t)] - truth[i]).abs()).sum::<f64>()
            / h as f64;
    assert!(
        std_mae < 1.2 * naive_mae,
        "OneShotSTL ({std_mae}) should be competitive with seasonal naive ({naive_mae})"
    );
}

/// The whole online stack stays exact: O(1) path == exact Algorithm-2
/// reference on a real synthetic workload (not just random streams).
#[test]
fn equivalence_on_syn1_prefix() {
    let ds = syn1(3);
    let t = ds.period;
    // shorten for test speed: use the first 6 periods
    let y = &ds.values[..6 * t];
    let cfg = OneShotStlConfig { shift_window: 5, ..Default::default() };
    let mut fast = OneShotStl::new(cfg.clone());
    let mut exact = ModifiedJointStlRef::new_reference(cfg);
    fast.init(&y[..4 * t], t).unwrap();
    exact.init(&y[..4 * t], t).unwrap();
    for &v in &y[4 * t..] {
        let a = fast.update(v);
        let b = exact.update(v);
        assert!((a.trend - b.trend).abs() < 1e-7);
        assert!((a.seasonal - b.seasonal).abs() < 1e-7);
    }
}

/// Period detection feeds the pipeline correctly on generated data.
#[test]
fn period_detection_matches_generators() {
    let fam = tsad_family("ECG", 1, 1);
    let s = &fam.series[0];
    let detected = find_length(s.train());
    let true_t = s.period.unwrap();
    assert!(
        (detected as i64 - true_t as i64).abs() <= (true_t / 10).max(2) as i64,
        "detected {detected} vs true {true_t}"
    );
}
