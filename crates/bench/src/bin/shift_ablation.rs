//! Quality/cost ablation of the two-stage §3.4 shift search, plus the
//! `iters` accuracy/footprint ablation.
//!
//! The pruned search is behavior-changing, so its default `k` must be
//! chosen by data: this binary sweeps `k` on the paper's
//! shifted-seasonality workloads (Syn2-style streams whose phase
//! permanently drifts mid-stream, at several noise levels) and records,
//! per policy:
//!
//! - decomposition MAE against the known clean signal, and the MAE gap
//!   vs the exhaustive (`prune: Off`) search,
//! - full IRLS trials per flagged point (the cost the pruning bounds),
//! - wall time per update.
//!
//! A second sweep compares `iters: 4` vs `iters: 8` (accuracy vs
//! per-series state footprint — ROADMAP's "shrink per-series state" open
//! question).
//!
//! Modes: the default run emits `BENCH_shift_ablation.json` plus a
//! markdown report under `target/experiments/`; `--quick`/`--smoke` writes
//! its JSON there too and is the CI gate — a reduced sweep that **fails the
//! process** when the default pruned policy regresses (MAE gap vs full
//! search > 1%, or more than `k + 1` trials per flagged point).

use benchkit::{write_bench_json, Cli, Experiment};
use decomp::traits::OnlineDecomposer;
use oneshotstl::{OneShotStl, OneShotStlConfig, ShiftSearchConfig, DEFAULT_SHIFT_TOP_K};
use std::fmt::Write as _;
use std::time::Instant;

const PERIOD: usize = 50;
const INIT_CYCLES: usize = 4;

/// Deterministic noise in [-1, 1): splitmix-style hash of (seed, i), so
/// every policy sees the identical stream.
fn noise_unit(seed: u64, i: usize) -> f64 {
    let mut s = seed.wrapping_mul(0x9e37_79b9_7f4a_7c15)
        ^ (i as u64).wrapping_mul(0x2545_f491_4f6c_dd1d);
    s ^= s >> 30;
    s = s.wrapping_mul(0xbf58_476d_1ce4_e5b9);
    s ^= s >> 27;
    (s >> 11) as f64 / (1u64 << 53) as f64 * 2.0 - 1.0
}

/// One shifted-seasonality fixture: `(values, clean)` where `clean` is
/// the noise-free seasonal + trend signal the decomposition should
/// recover. The phase permanently shifts by +6 a third of the way in and
/// by a further −4 at two thirds — the paper's Syn2 scenario, twice.
fn fixture(seed: u64, noise_amp: f64, n: usize) -> (Vec<f64>, Vec<f64>) {
    let (s1, s2) = (n / 3, 2 * n / 3);
    let mut values = Vec::with_capacity(n);
    let mut clean = Vec::with_capacity(n);
    for i in 0..n {
        let delta = if i >= s2 {
            2usize // +6 then −4, cumulative
        } else if i >= s1 {
            6
        } else {
            0
        };
        let phase = (i + PERIOD - delta) % PERIOD;
        let c = 3.0 * (2.0 * std::f64::consts::PI * phase as f64 / PERIOD as f64).sin()
            + 0.002 * i as f64;
        clean.push(c);
        values.push(c + noise_amp * noise_unit(seed, i));
    }
    (values, clean)
}

struct RunOut {
    /// MAE of `τ̂ + ŝ` against the clean signal, post-first-shift region.
    mae: f64,
    /// Flagged points (shift searches run).
    searches: u64,
    /// Full IRLS trials those searches ran (incl. the Δt = 0 baseline).
    trials: u64,
    /// Nanoseconds per online update.
    ns_per_update: f64,
    /// Per-series state footprint: the encoded snapshot size
    /// ([`OneShotStl::state_bytes`]).
    state_bytes: usize,
}

/// Streams one fixture through a model and scores it.
fn run(values: &[f64], clean: &[f64], cfg: OneShotStlConfig) -> RunOut {
    let init = INIT_CYCLES * PERIOD;
    let mut m = OneShotStl::new(cfg);
    m.init(&values[..init], PERIOD).unwrap();
    let t0 = Instant::now();
    let mut abs_err = 0.0;
    let mut scored = 0usize;
    let first_shift = values.len() / 3;
    for (i, &v) in values[init..].iter().enumerate() {
        let p = m.update(v);
        // score where it is hard: from the first phase shift onward
        if init + i >= first_shift {
            abs_err += (p.trend + p.seasonal - clean[init + i]).abs();
            scored += 1;
        }
    }
    let elapsed = t0.elapsed().as_nanos() as f64;
    let (searches, trials) = m.shift_search_stats();
    RunOut {
        mae: abs_err / scored as f64,
        searches,
        trials,
        ns_per_update: elapsed / (values.len() - init) as f64,
        state_bytes: m.state_bytes(),
    }
}

struct PolicyRow {
    label: String,
    k: Option<usize>,
    mae: f64,
    mae_gap_pct: f64,
    trials_per_search: f64,
    ns_per_update: f64,
}

fn main() {
    let cli = Cli::parse();
    let quick = cli.quick;
    let n: usize = if quick { 1_800 } else { 6_000 };
    let fixtures: Vec<(u64, f64)> = if quick {
        vec![(1, 0.02), (2, 0.1)]
    } else {
        vec![(1, 0.02), (2, 0.05), (3, 0.1), (4, 0.2), (5, 0.05), (6, 0.1)]
    };
    let streams: Vec<(Vec<f64>, Vec<f64>)> =
        fixtures.iter().map(|&(seed, amp)| fixture(seed, amp, n)).collect();

    let h = OneShotStlConfig::default().shift_window; // 20 → 41-offset search
    let ks: Vec<usize> =
        if quick { vec![1, DEFAULT_SHIFT_TOP_K, 16] } else { vec![1, 2, 4, 8, 16] };

    // ── sweep 1: pruning policy ─────────────────────────────────────────
    let policies: Vec<(String, Option<usize>, ShiftSearchConfig)> =
        std::iter::once(("full (Off)".to_string(), None, ShiftSearchConfig::exhaustive()))
            .chain(
                ks.iter()
                    .map(|&k| (format!("TopK({k})"), Some(k), ShiftSearchConfig::top_k(k))),
            )
            .collect();
    let mut rows: Vec<PolicyRow> = Vec::new();
    let mut full_mae = 0.0;
    for (label, k, search) in &policies {
        let mut mae = 0.0;
        let mut searches = 0u64;
        let mut trials = 0u64;
        let mut ns = 0.0;
        for (values, clean) in &streams {
            let out = run(
                values,
                clean,
                OneShotStlConfig { shift_search: *search, ..Default::default() },
            );
            mae += out.mae;
            searches += out.searches;
            trials += out.trials;
            ns += out.ns_per_update;
        }
        mae /= streams.len() as f64;
        ns /= streams.len() as f64;
        if k.is_none() {
            full_mae = mae;
        }
        let row = PolicyRow {
            label: label.clone(),
            k: *k,
            mae,
            mae_gap_pct: 100.0 * (mae - full_mae) / full_mae,
            trials_per_search: if searches > 0 { trials as f64 / searches as f64 } else { 0.0 },
            ns_per_update: ns,
        };
        eprintln!(
            "[shift_ablation] {:<12} mae {:.5} (gap {:+.2}%), {:.1} trials/flagged, {:.0} ns/update",
            row.label, row.mae, row.mae_gap_pct, row.trials_per_search, row.ns_per_update
        );
        rows.push(row);
    }

    // ── sweep 2: iters 4 vs 8 (accuracy vs footprint) ───────────────────
    struct ItersRow {
        iters: usize,
        mae: f64,
        state_bytes: usize,
        ns_per_update: f64,
    }
    let mut iters_rows: Vec<ItersRow> = Vec::new();
    for iters in [4usize, 8] {
        let mut mae = 0.0;
        let mut ns = 0.0;
        let mut bytes = 0usize;
        for (values, clean) in &streams {
            let out = run(values, clean, OneShotStlConfig { iters, ..Default::default() });
            mae += out.mae;
            ns += out.ns_per_update;
            bytes = out.state_bytes;
        }
        mae /= streams.len() as f64;
        ns /= streams.len() as f64;
        eprintln!(
            "[shift_ablation] iters={iters}: mae {mae:.5}, {bytes} B/series state, \
             {ns:.0} ns/update"
        );
        iters_rows.push(ItersRow { iters, mae, state_bytes: bytes, ns_per_update: ns });
    }

    // ── the CI gate: the shipped default must hold its quality bar ──────
    let default_row = rows
        .iter()
        .find(|r| r.k == Some(DEFAULT_SHIFT_TOP_K))
        .expect("sweep covers the default k");
    let mut failures: Vec<String> = Vec::new();
    // NaN-safe gates: a NaN metric must fail, not pass
    if default_row.mae_gap_pct.is_nan() || default_row.mae_gap_pct > 1.0 {
        failures.push(format!(
            "default TopK({DEFAULT_SHIFT_TOP_K}) MAE gap vs full search is \
             {:+.2}% (> +1%)",
            default_row.mae_gap_pct
        ));
    }
    let bound = (DEFAULT_SHIFT_TOP_K + 1) as f64;
    if default_row.trials_per_search.is_nan() || default_row.trials_per_search > bound + 1e-9 {
        failures.push(format!(
            "default TopK({DEFAULT_SHIFT_TOP_K}) ran {:.2} full trials per flagged point \
             (bound: {bound})",
            default_row.trials_per_search
        ));
    }

    // ── reports ─────────────────────────────────────────────────────────
    let mut json = String::new();
    let _ = writeln!(json, "{{");
    let _ = writeln!(json, "  \"bench\": \"shift_ablation\",");
    let _ = writeln!(json, "  \"quick\": {quick},");
    let _ = writeln!(json, "  \"shift_window\": {h},");
    let _ = writeln!(json, "  \"default_top_k\": {DEFAULT_SHIFT_TOP_K},");
    let _ = writeln!(json, "  \"policies\": [");
    for (i, r) in rows.iter().enumerate() {
        let comma = if i + 1 == rows.len() { "" } else { "," };
        let _ = writeln!(
            json,
            "    {{\"policy\": \"{}\", \"k\": {}, \"mae\": {:.6}, \"mae_gap_pct\": {:.3}, \
             \"trials_per_flagged\": {:.2}, \"ns_per_update\": {:.0}}}{comma}",
            r.label,
            r.k.map_or("null".to_string(), |k| k.to_string()),
            r.mae,
            r.mae_gap_pct,
            r.trials_per_search,
            r.ns_per_update
        );
    }
    let _ = writeln!(json, "  ],");
    let _ = writeln!(json, "  \"iters_ablation\": [");
    for (i, r) in iters_rows.iter().enumerate() {
        let comma = if i + 1 == iters_rows.len() { "" } else { "," };
        let _ = writeln!(
            json,
            "    {{\"iters\": {}, \"mae\": {:.6}, \"state_bytes\": {}, \
             \"ns_per_update\": {:.0}}}{comma}",
            r.iters, r.mae, r.state_bytes, r.ns_per_update
        );
    }
    let _ = writeln!(json, "  ]");
    let _ = writeln!(json, "}}");
    let path = write_bench_json("BENCH_shift_ablation.json", &json, quick);
    eprintln!("[shift_ablation] wrote {}", path.display());

    let mut report = Experiment::new("shift_ablation", "Two-stage shift search ablation");
    report.table(
        "Pruning policy vs quality/cost",
        &["policy", "MAE", "gap vs full %", "trials/flagged", "ns/update"],
        &rows
            .iter()
            .map(|r| {
                vec![
                    r.label.clone(),
                    format!("{:.5}", r.mae),
                    format!("{:+.2}", r.mae_gap_pct),
                    format!("{:.1}", r.trials_per_search),
                    format!("{:.0}", r.ns_per_update),
                ]
            })
            .collect::<Vec<_>>(),
    );
    report.table(
        "IRLS iterations vs accuracy/footprint",
        &["iters", "MAE", "state bytes/series", "ns/update"],
        &iters_rows
            .iter()
            .map(|r| {
                vec![
                    r.iters.to_string(),
                    format!("{:.5}", r.mae),
                    r.state_bytes.to_string(),
                    format!("{:.0}", r.ns_per_update),
                ]
            })
            .collect::<Vec<_>>(),
    );
    report.para(&format!(
        "{} fixtures × {n} points, period {PERIOD}, shift window H = {h} \
         (full search = {} trials/flagged). MAE is |τ̂+ŝ − clean| from the \
         first phase shift onward.",
        streams.len(),
        2 * h + 1
    ));
    report.finish();

    if failures.is_empty() {
        eprintln!(
            "[shift_ablation] OK: default TopK({DEFAULT_SHIFT_TOP_K}) holds the quality bar \
             (gap {:+.2}% ≤ +1%, {:.1} ≤ {bound} trials/flagged)",
            default_row.mae_gap_pct, default_row.trials_per_search
        );
    } else {
        for f in &failures {
            eprintln!("[shift_ablation] FAIL: {f}");
        }
        std::process::exit(1);
    }
}
