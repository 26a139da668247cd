//! Online anomaly detection on an AIOps-style request-rate stream
//! (the paper's §4 TSAD extension): OneShotSTL decomposes each arriving
//! point and the residual is scored two ways — the paper's plain
//! streaming NSigma z-score (`ScoreConfig::off()`) and the default
//! persistence-aware fused scorer (z + two-sided CUSUM + peak-hold).
//! The spike is caught by both; the level shift — whose body the
//! adaptive trend absorbs within a few points — is where the fused
//! scorer pulls ahead.
//!
//! ```sh
//! cargo run --release --example anomaly_pipeline
//! ```

use oneshotstl_suite::prelude::*;
use oneshotstl_suite::tskit::synth::{gaussian_noise, inject, AnomalyKind};
use rand::rngs::StdRng;
use rand::SeedableRng;

fn main() {
    // Request-rate-like stream with a daily pattern and measurement
    // noise (a noise-free stream would collapse the residual σ and make
    // every point look infinitely surprising — see the anomaly-rate note
    // under "Performance" in docs/ARCHITECTURE.md).
    let period = 144;
    let n = 10 * period;
    let mut rng = StdRng::seed_from_u64(7);
    let noise = gaussian_noise(n, 0.8, &mut rng);
    let mut y: Vec<f64> = (0..n)
        .map(|i| {
            let phase = 2.0 * std::f64::consts::PI * i as f64 / period as f64;
            40.0 + 15.0 * phase.sin() + 5.0 * (2.0 * phase).cos() + noise[i]
        })
        .collect();
    let mut labels = vec![false; n];
    // inject a spike and a level shift in the streaming region
    inject(&mut y, &mut labels, AnomalyKind::Spike, 7 * period, 1, 10.0, &mut rng);
    inject(&mut y, &mut labels, AnomalyKind::LevelShift, 8 * period + 50, 60, 10.0, &mut rng);

    let split = 4 * period;
    let score_stream = |score_cfg: ScoreConfig| -> Vec<f64> {
        let mut detector = StdAnomalyDetector::with_score(
            OneShotStl::new(OneShotStlConfig::default()),
            5.0,
            score_cfg,
        );
        detector.init(&y[..split], period).expect("init window ok");
        y[split..].iter().map(|&v| detector.update(v).1).collect()
    };

    println!("streamed {} points; scoring the residual two ways:\n", n - split);
    let mut fused_scores = Vec::new();
    for (label, cfg) in [
        ("plain NSigma z (paper §4)", ScoreConfig::off()),
        ("fused CUSUM", ScoreConfig::default()),
    ] {
        let scores = score_stream(cfg);
        let auc = roc_auc(&scores, &labels[split..]);
        let vus = vus_roc(&scores, &labels[split..], period / 2, 8);
        println!("{label:<26}  ROC-AUC = {auc:.3}   VUS-ROC = {vus:.3}");
        fused_scores = scores;
    }

    // show the fused scorer's top 5 alerts
    let mut ranked: Vec<(usize, f64)> = fused_scores.iter().copied().enumerate().collect();
    ranked.sort_by(|a, b| b.1.partial_cmp(&a.1).unwrap());
    println!("\ntop fused alerts (t, score, labelled?):");
    for (idx, score) in ranked.into_iter().take(5) {
        println!(
            "  t={:>5}  score={:>7.2}  anomaly={}",
            split + idx,
            score,
            labels[split + idx]
        );
    }
}
