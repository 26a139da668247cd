//! TSAD quality ablation of the persistence-aware residual scorer
//! (`oneshotstl::score`): CUSUM reference `k`, decision bar `h`,
//! peak-hold decay `γ`, and fusion rule, swept over the synthetic
//! TSB-UAD stand-in families.
//!
//! The fused scorer is behavior-changing on the *hard* regime — wandering
//! trend + level shifts (IOPS-style), where the adaptive trend absorbs a
//! level shift within a few points and the instantaneous z-score sees only
//! the shift edges (~0.55 VUS-ROC, near chance). Its defaults must
//! therefore be chosen by data: this binary scores every candidate on
//!
//! - the **wandering-trend** target (IOPS seeds 7 & 11 — the exact
//!   workload `tsad_pipeline_beats_chance_on_wandering_trend_family`
//!   pins), plus further wandering families (SMD, GHL) in full mode, and
//! - the **strongly seasonal** regression guard (ECG — the workload
//!   `tsad_pipeline_scores_well_on_seasonal_family` pins),
//!
//! reporting VUS-ROC per family. Series are decomposed with the IRLS
//! iteration count the fleet ships (`FleetConfig::default().detector`),
//! so the gates below cover what the fleet runs. The decomposition is
//! score-config independent, so each series is decomposed once and its
//! residual stream is re-scored per candidate — the sweep costs one
//! decomposition pass.
//!
//! **TSAD protocol note.** The sweep also compares the decomposer's §3.4
//! seasonality-shift search on vs off (full mode): on these anomaly
//! workloads the search *hurts* — an anomalous excursion trips the
//! NSigma trigger and the search partially absorbs it into a
//! seasonal-phase shift, destroying the residual evidence the scorer
//! needs (IOPS z-only drops ~0.05 VUS-ROC, ECG similar). The TSAD
//! evaluation protocol therefore runs `shift_window: 0` (the paper's
//! shift handling targets genuine seasonality drift, not anomaly
//! scoring); the protocol numbers below and the integration tests pin
//! that configuration.
//!
//! Modes: the default run emits `BENCH_tsad.json` plus a markdown report
//! under `target/experiments/`; `--quick`/`--smoke` writes its JSON there
//! too and is the CI quality gate — it **fails the process** when the shipped
//! [`ScoreConfig::default`] scores below 0.70 VUS-ROC on the
//! wandering-trend family or regresses the ECG family by more than 1%
//! against the pre-CUSUM (`Fusion::Off`) baseline under the same
//! protocol, and when the ensemble backend (`max(fused, trend)`) scores
//! below 0.75 on the wandering-trend family or loses more than 1% to the
//! fused scorer on IOPS or ECG.

use benchkit::{write_bench_json, Cli, Experiment};
use decomp::traits::OnlineDecomposer;
use fleet::{BackendSelect, FleetConfig, SeriesBackend};
use oneshotstl::system::Lambdas;
use oneshotstl::{Fusion, OneShotStl, OneShotStlConfig, ResidualScorer, ScoreConfig};
use std::fmt::Write as _;
use tskit::period::find_length;
use tskit::series::DecompPoint;
use tskit::synth::tsad_family;
use tsmetrics::vus::vus_roc;

/// One decomposed series, ready for O(n) re-scoring per score config.
struct PreparedSeries {
    /// Residuals of the initialization window (seed the scorer).
    init_residuals: Vec<f64>,
    /// Residuals of the test stream, in order.
    test_residuals: Vec<f64>,
    /// Trends of the test stream (the trend-CUSUM / ensemble backends
    /// score trend innovations; 0.0 on the init-failure fallback).
    test_trends: Vec<f64>,
    /// Test labels.
    labels: Vec<bool>,
    /// Detected period (VUS buffer length).
    period: usize,
}

/// A family evaluation set: every member series of every seed, decomposed.
struct PreparedFamily {
    name: String,
    series: Vec<PreparedSeries>,
}

/// Decomposes one family with the TSAD-protocol detector: tied λ = 10
/// (the paper's per-dataset tuning for these families), the fleet's IRLS
/// iteration count, and the §3.4 shift search disabled unless
/// `shift_window` says otherwise (see the protocol note in the module
/// docs).
fn prepare_family(
    name: &str,
    seeds: &[u64],
    n_series: usize,
    shift_window: usize,
) -> PreparedFamily {
    let mut series = Vec::new();
    for &seed in seeds {
        let fam = tsad_family(name, n_series, seed);
        for s in &fam.series {
            let period = find_length(s.train());
            let cfg = OneShotStlConfig {
                lambdas: Lambdas { lambda1: 10.0, lambda2: 10.0 },
                iters: FleetConfig::default().detector.iters,
                shift_window,
                ..Default::default()
            };
            let mut dec = OneShotStl::new(cfg);
            let (init_residuals, test_residuals, test_trends) = match dec
                .init(s.train(), period)
            {
                Ok(d) => {
                    let mut residuals = Vec::with_capacity(s.test().len());
                    let mut trends = Vec::with_capacity(s.test().len());
                    for &y in s.test() {
                        let p = dec.update(y);
                        residuals.push(p.residual);
                        trends.push(p.trend);
                    }
                    (d.residual, residuals, trends)
                }
                // init failure (flat/short train): score the raw values
                // and never touch the uninitialized decomposer — the
                // same degradation StdNSigma applies (trend 0.0 keeps
                // the trend-innovation backends quiet)
                Err(_) => (s.train().to_vec(), s.test().to_vec(), vec![0.0; s.test().len()]),
            };
            series.push(PreparedSeries {
                init_residuals,
                test_residuals,
                test_trends,
                labels: s.test_labels().to_vec(),
                period,
            });
        }
    }
    PreparedFamily { name: name.to_string(), series }
}

/// Family-average VUS-ROC of one score config over prepared residuals.
fn family_vus(fam: &PreparedFamily, config: ScoreConfig) -> f64 {
    let mut total = 0.0;
    for s in &fam.series {
        let mut scorer = ResidualScorer::new(5.0, config);
        scorer.seed(&s.init_residuals);
        let scores: Vec<f64> =
            s.test_residuals.iter().map(|&r| scorer.update(r).score).collect();
        total += vus_roc(&scores, &s.labels, s.period.max(10), 8);
    }
    total / fam.series.len() as f64
}

/// Family-average VUS-ROC of one detection-backend selection, mirroring
/// the fleet's dispatch: the fused scorer (shipped default, seeded on the
/// init residuals) produces its verdict, the backend observes the
/// decomposed point plus that verdict, and the backend's score replaces
/// the fused one. Backends start cold — exactly the state a fleet series
/// is in at promotion.
fn backend_family_vus(fam: &PreparedFamily, select: BackendSelect) -> f64 {
    let mut total = 0.0;
    for s in &fam.series {
        let mut scorer = ResidualScorer::new(5.0, ScoreConfig::default());
        scorer.seed(&s.init_residuals);
        let mut backend = SeriesBackend::build(select, 5.0).expect("non-fused backend arm");
        let scores: Vec<f64> = s
            .test_residuals
            .iter()
            .zip(&s.test_trends)
            .map(|(&r, &trend)| {
                let fused = scorer.update(r);
                let point = DecompPoint { trend, seasonal: 0.0, residual: r };
                backend.observe(&point, &fused).0
            })
            .collect();
        total += vus_roc(&scores, &s.labels, s.period.max(10), 8);
    }
    total / fam.series.len() as f64
}

fn fusion_name(f: Fusion) -> &'static str {
    match f {
        Fusion::Off => "Off",
        Fusion::Cusum => "Cusum",
        Fusion::Max => "Max",
    }
}

fn config_label(c: &ScoreConfig) -> String {
    if c.fusion == Fusion::Off {
        "Off (z only)".to_string()
    } else {
        format!("{} k={} h={} g={}", fusion_name(c.fusion), c.cusum_k, c.cusum_h, c.hold_decay)
    }
}

struct Row {
    config: ScoreConfig,
    /// Per-family VUS, in `families` order.
    vus: Vec<f64>,
}

fn main() {
    let cli = Cli::parse();
    let quick = cli.quick;

    // the wandering-trend target family is ALWAYS (IOPS, seeds 7 & 11):
    // the CI gate pins that average, and the integration test pins the
    // same streams at the core's 8 IRLS iterations
    eprintln!("[tsad_ablation] decomposing families (one pass per series)...");
    let mut families =
        vec![prepare_family("IOPS", &[7, 11], 2, 0), prepare_family("ECG", &[7], 2, 0)];
    if !quick {
        families.push(prepare_family("SMD", &[7], 2, 0));
        families.push(prepare_family("GHL", &[7], 2, 0));
    }

    // candidate grid: the smoke gate only needs the shipped default and
    // the Off baseline; the full sweep maps the response surface
    let candidates: Vec<ScoreConfig> = if quick {
        vec![ScoreConfig::off(), ScoreConfig::default()]
    } else {
        let mut v = vec![ScoreConfig::off()];
        for &fusion in &[Fusion::Cusum, Fusion::Max] {
            for &cusum_k in &[0.25, 0.5, 1.0] {
                for &cusum_h in &[4.0, 6.0, 8.0] {
                    for &hold_decay in &[0.0, 0.98, 0.99] {
                        v.push(ScoreConfig { cusum_k, cusum_h, hold_decay, fusion });
                    }
                }
            }
        }
        v
    };

    let mut rows: Vec<Row> = Vec::new();
    for &config in &candidates {
        let vus: Vec<f64> = families.iter().map(|f| family_vus(f, config)).collect();
        let mut line = format!("[tsad_ablation] {:<22}", config_label(&config));
        for (f, v) in families.iter().zip(&vus) {
            let _ = write!(line, "  {} {v:.4}", f.name);
        }
        eprintln!("{line}");
        rows.push(Row { config, vus });
    }

    // ── detection-backend arms (fleet dispatch semantics) ───────────────
    // evaluated on every run (the smoke gate pins the ensemble arm); the
    // fused default above is the "Fused" backend, so the arms are the two
    // non-trivial selections
    let backend_arms: Vec<(&str, BackendSelect)> = vec![
        ("trend_cusum", BackendSelect::TrendCusum(ScoreConfig::default())),
        ("ensemble", BackendSelect::Ensemble(ScoreConfig::default())),
    ];
    let mut backend_rows: Vec<(&str, Vec<f64>)> = Vec::new();
    for (name, select) in &backend_arms {
        let vus: Vec<f64> = families.iter().map(|f| backend_family_vus(f, *select)).collect();
        let mut line = format!("[tsad_ablation] backend {name:<15}");
        for (f, v) in families.iter().zip(&vus) {
            let _ = write!(line, "  {} {v:.4}", f.name);
        }
        eprintln!("{line}");
        backend_rows.push((name, vus));
    }

    // full mode: document the shift-search protocol choice with data
    let mut protocol_rows: Vec<(String, f64, f64)> = Vec::new();
    if !quick {
        for (fname, seeds) in [("IOPS", vec![7u64, 11]), ("ECG", vec![7u64])] {
            let with_search = prepare_family(fname, &seeds, 2, 20);
            let z_on = family_vus(&with_search, ScoreConfig::off());
            let fused_on = family_vus(&with_search, ScoreConfig::default());
            protocol_rows.push((format!("{fname} shift_window=20"), z_on, fused_on));
            let off_fam = families.iter().find(|f| f.name == fname).unwrap();
            protocol_rows.push((
                format!("{fname} shift_window=0"),
                family_vus(off_fam, ScoreConfig::off()),
                family_vus(off_fam, ScoreConfig::default()),
            ));
        }
        for (label, z, fused) in &protocol_rows {
            eprintln!("[tsad_ablation] protocol {label}: z-only {z:.4}, fused {fused:.4}");
        }
    }

    let fam_idx = |name: &str| families.iter().position(|f| f.name == name).unwrap();
    let (iops, ecg) = (fam_idx("IOPS"), fam_idx("ECG"));
    let off_row = rows.iter().find(|r| r.config.fusion == Fusion::Off).unwrap();
    let (off_iops, off_ecg) = (off_row.vus[iops], off_row.vus[ecg]);
    let default_row = rows
        .iter()
        .find(|r| r.config == ScoreConfig::default())
        .expect("sweep covers the shipped default");
    let (def_iops, def_ecg) = (default_row.vus[iops], default_row.vus[ecg]);

    // ── the CI gate: the shipped default must hold its quality bar ──────
    let mut failures: Vec<String> = Vec::new();
    // NaN-safe gates: a NaN metric must fail, not pass
    if def_iops.is_nan() || def_iops < 0.70 {
        failures.push(format!(
            "default {:?} scores {def_iops:.4} VUS-ROC on the wandering-trend family \
             (bar: >= 0.70; Off baseline {off_iops:.4})",
            ScoreConfig::default()
        ));
    }
    let ecg_regress_pct = 100.0 * (off_ecg - def_ecg) / off_ecg;
    if ecg_regress_pct.is_nan() || ecg_regress_pct > 1.0 {
        failures.push(format!(
            "default config regresses the ECG family by {ecg_regress_pct:.2}% \
             ({off_ecg:.4} -> {def_ecg:.4}; bar: <= 1%)"
        ));
    }

    // ── the ensemble gate: max(fused, trend) must not trade away the
    //    fused scorer's quality ──────────────────────────────────────────
    let ens = &backend_rows.iter().find(|(n, _)| *n == "ensemble").unwrap().1;
    let (ens_iops, ens_ecg) = (ens[iops], ens[ecg]);
    if ens_iops.is_nan() || ens_iops < 0.75 {
        failures.push(format!(
            "ensemble backend scores {ens_iops:.4} VUS-ROC on the wandering-trend \
             family (bar: >= 0.75; fused default {def_iops:.4})"
        ));
    }
    for (fam_name, ens_v, def_v) in [("IOPS", ens_iops, def_iops), ("ECG", ens_ecg, def_ecg)] {
        let loss_pct = 100.0 * (def_v - ens_v) / def_v;
        if loss_pct.is_nan() || loss_pct > 1.0 {
            failures.push(format!(
                "ensemble backend loses {loss_pct:.2}% VUS-ROC to the fused scorer \
                 on {fam_name} ({def_v:.4} -> {ens_v:.4}; bar: <= 1%)"
            ));
        }
    }

    // ── reports ─────────────────────────────────────────────────────────
    let mut json = String::new();
    let _ = writeln!(json, "{{");
    let _ = writeln!(json, "  \"bench\": \"tsad_ablation\",");
    let _ = writeln!(json, "  \"quick\": {quick},");
    let _ = writeln!(
        json,
        "  \"families\": [{}],",
        families.iter().map(|f| format!("\"{}\"", f.name)).collect::<Vec<_>>().join(", ")
    );
    let d = ScoreConfig::default();
    let _ = writeln!(
        json,
        "  \"default\": {{\"fusion\": \"{}\", \"cusum_k\": {}, \"cusum_h\": {}, \
         \"hold_decay\": {}}},",
        fusion_name(d.fusion),
        d.cusum_k,
        d.cusum_h,
        d.hold_decay
    );
    let _ = writeln!(
        json,
        "  \"wandering_trend_vus\": {{\"off\": {off_iops:.4}, \"default\": {def_iops:.4}}},"
    );
    let _ =
        writeln!(json, "  \"ecg_vus\": {{\"off\": {off_ecg:.4}, \"default\": {def_ecg:.4}}},");
    let _ = writeln!(json, "  \"backends\": {{");
    for (i, (name, vus)) in backend_rows.iter().enumerate() {
        let comma = if i + 1 == backend_rows.len() { "" } else { "," };
        let per_family = families
            .iter()
            .zip(vus)
            .map(|(f, v)| format!("\"{}\": {v:.4}", f.name))
            .collect::<Vec<_>>()
            .join(", ");
        let _ = writeln!(json, "    \"{name}\": {{{per_family}}}{comma}");
    }
    let _ = writeln!(json, "  }},");
    let _ = writeln!(json, "  \"rows\": [");
    for (i, r) in rows.iter().enumerate() {
        let comma = if i + 1 == rows.len() { "" } else { "," };
        let per_family = families
            .iter()
            .zip(&r.vus)
            .map(|(f, v)| format!("\"{}\": {v:.4}", f.name))
            .collect::<Vec<_>>()
            .join(", ");
        let _ = writeln!(
            json,
            "    {{\"fusion\": \"{}\", \"cusum_k\": {}, \"cusum_h\": {}, \
             \"hold_decay\": {}, {per_family}}}{comma}",
            fusion_name(r.config.fusion),
            r.config.cusum_k,
            r.config.cusum_h,
            r.config.hold_decay,
        );
    }
    let _ = writeln!(json, "  ]");
    let _ = writeln!(json, "}}");
    let path = write_bench_json("BENCH_tsad.json", &json, quick);
    eprintln!("[tsad_ablation] wrote {}", path.display());

    let mut report =
        Experiment::new("tsad_ablation", "Persistence-aware residual scoring ablation");
    let header: Vec<String> = std::iter::once("config".to_string())
        .chain(families.iter().map(|f| f.name.clone()))
        .collect();
    report.table(
        "Score config vs family VUS-ROC",
        &header.iter().map(|s| s.as_str()).collect::<Vec<_>>(),
        &rows
            .iter()
            .map(|r| {
                std::iter::once(config_label(&r.config))
                    .chain(r.vus.iter().map(|v| format!("{v:.4}")))
                    .collect::<Vec<_>>()
            })
            .collect::<Vec<_>>(),
    );
    report.table(
        "Detection backend vs family VUS-ROC (fleet dispatch semantics)",
        &header.iter().map(|s| s.as_str()).collect::<Vec<_>>(),
        &backend_rows
            .iter()
            .map(|(name, vus)| {
                std::iter::once(name.to_string())
                    .chain(vus.iter().map(|v| format!("{v:.4}")))
                    .collect::<Vec<_>>()
            })
            .collect::<Vec<_>>(),
    );
    if !protocol_rows.is_empty() {
        report.table(
            "Decomposer protocol: §3.4 shift search on vs off",
            &["protocol", "z-only", "fused default"],
            &protocol_rows
                .iter()
                .map(|(l, z, f)| vec![l.clone(), format!("{z:.4}"), format!("{f:.4}")])
                .collect::<Vec<_>>(),
        );
    }
    report.para(&format!(
        "VUS-ROC per family (higher is better); IOPS = wandering trend + level \
         shifts over seeds 7 & 11 (the integration-test workload), ECG = strongly \
         seasonal regression guard. Off is the pre-CUSUM instantaneous z-score. \
         TSAD protocol: tied λ = 10, shift_window = 0 (see module docs). \
         Default: {:?}.",
        ScoreConfig::default()
    ));
    report.finish();

    if failures.is_empty() {
        eprintln!(
            "[tsad_ablation] OK: default fused scoring holds the quality bar \
             (wandering-trend {def_iops:.4} >= 0.70, was {off_iops:.4}; \
             ECG {def_ecg:.4} vs {off_ecg:.4}, regression {ecg_regress_pct:.2}% <= 1%; \
             ensemble {ens_iops:.4} >= 0.75 on IOPS, {ens_ecg:.4} on ECG, \
             within 1% of fused)"
        );
    } else {
        for f in &failures {
            eprintln!("[tsad_ablation] FAIL: {f}");
        }
        std::process::exit(1);
    }
}
