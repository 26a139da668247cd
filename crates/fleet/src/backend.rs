//! Pluggable detection backends: alternative (and ensemble) verdicts on
//! top of the always-on decomposition + fused residual scorer.
//!
//! Every live series decomposes its stream and scores the residual with
//! the fused [`oneshotstl::ResidualScorer`] — that pipeline is the
//! baseline and never goes away. A **backend** is an additional streaming
//! detector consuming the same [`DecompPoint`]s, selected per fleet
//! ([`crate::FleetConfig::backend`]) or per series
//! ([`crate::AdmitOptions::backend`]) and baked in at promotion like
//! every other admission-time override:
//!
//! - [`BackendSelect::Fused`] (default): no extra detector — the fused
//!   scorer's verdict is the series verdict, bit-identical to every
//!   pre-v7 fleet.
//! - [`BackendSelect::Damp`]: a windowed streaming DAMP
//!   ([`anomaly::StreamingDamp`], Lu et al. KDD 2022) over the
//!   *residual* channel; its raw discord distances are standardized by
//!   a dedicated [`NSigma`] normalizer so its scores live in the same z
//!   units as every other detector.
//! - [`BackendSelect::TrendCusum`]: the trend-innovation CUSUM
//!   ([`oneshotstl::TrendCusum`]) over the *trend* channel — catches
//!   level shifts the adaptive trend absorbs before the residual ever
//!   sees them.
//! - [`BackendSelect::Ensemble`]: DAMP + trend CUSUM + the fused scorer
//!   fused into one verdict, by [`EnsembleFusion::Max`] (most-alarmed
//!   member wins; verdicts OR) or [`EnsembleFusion::WeightedRank`]
//!   (weight-averaged z-comparable scores; weighted majority vote).
//!
//! The streaming contract is the [`DetectorBackend`] trait:
//! `observe(&DecompPoint) -> BackendScore`, zero heap allocations in
//! steady state (pinned by `crates/fleet/tests/zero_alloc.rs`), and
//! plain-data snapshots that restore **bit-identically** (including WAL
//! crash recovery). [`SeriesBackend`] is the closed enum
//! the fleet actually dispatches and serializes; the ensemble lives
//! there rather than behind the trait because its fusion needs the
//! fused scorer's verdict for the same point, which only the series
//! step has.

use anomaly::{StreamingDamp, StreamingDampState};
use oneshotstl::{NSigma, NSigmaState, ScoreConfig, ScoreVerdict, TrendCusum, TrendCusumState};
use tskit::series::DecompPoint;

/// How many real (post-DAMP-warm-up) discord distances a
/// [`DampBackend`]'s normalizer absorbs silently before scoring: raw
/// distances have an arbitrary scale, and standardizing against one or
/// two observations would emit sentinel alarms on normal data.
const DAMP_NORM_WARMUP: u32 = 16;

/// One backend's verdict for one decomposed point: a z-comparable score
/// (higher = more anomalous) and an instantaneous anomaly flag.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BackendScore {
    /// Anomaly score in z units (comparable across backends).
    pub score: f64,
    /// Instantaneous verdict (never held/smeared).
    pub is_anomaly: bool,
}

impl BackendScore {
    /// The all-quiet verdict (warm-up, guarded input).
    fn quiet() -> Self {
        BackendScore { score: 0.0, is_anomaly: false }
    }
}

/// The streaming contract of a detection backend: score one decomposed
/// point, `O(1)` amortized and **allocation-free** in steady state.
///
/// Implementations must also provide plain-data state extraction and
/// validated restoration so their stream continues bit-identically
/// across snapshot/restore (see [`DampBackend::to_state`] /
/// [`DampBackend::from_state`] for the shape) — the trait itself stays
/// object-safe and minimal. The ensemble is deliberately *not* a leaf
/// backend: it composes leaf backends with the always-on fused scorer
/// verdict, which only the series step has, so it lives in
/// [`SeriesBackend::observe`].
pub trait DetectorBackend {
    /// Scores one decomposed point and absorbs it into the running
    /// state.
    fn observe(&mut self, point: &DecompPoint) -> BackendScore;
}

// ───────────────────────── configuration ──────────────────────────────

/// Which detection backend a series runs (see the [module docs](self)).
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub enum BackendSelect {
    /// No extra detector: the fused residual scorer's verdict is the
    /// series verdict (the pre-v7 pipeline, bit-identical).
    #[default]
    Fused,
    /// Windowed streaming DAMP over the residual channel.
    Damp(DampOptions),
    /// Trend-innovation CUSUM over the trend channel, with its own
    /// [`ScoreConfig`] (CUSUM k/h, hold, fusion — same vocabulary as
    /// the residual scorer).
    TrendCusum(ScoreConfig),
    /// DAMP + trend CUSUM + fused scorer, fused into one verdict.
    Ensemble(EnsembleOptions),
}

impl BackendSelect {
    /// Validates the selection, returning a message for the first
    /// problem found.
    pub fn validate(&self) -> Result<(), String> {
        match self {
            BackendSelect::Fused => Ok(()),
            BackendSelect::Damp(d) => d.validate(),
            BackendSelect::TrendCusum(s) => s.validate(),
            BackendSelect::Ensemble(e) => e.validate(),
        }
    }
}

/// Options of the streaming DAMP backend.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DampOptions {
    /// History bound: discord search reads at most the last `window`
    /// residuals.
    pub window: u32,
    /// Subsequence length `m`; `0` derives it from the series' detected
    /// period at promotion (`period.clamp(8, 64)`), which is the
    /// recommended setting.
    pub subseq: u32,
}

impl Default for DampOptions {
    fn default() -> Self {
        DampOptions { window: 256, subseq: 0 }
    }
}

impl DampOptions {
    /// Validates the options (the derived `subseq = 0` form is always
    /// resolvable; an explicit `m` must fit its window).
    pub fn validate(&self) -> Result<(), String> {
        if !(16..=1 << 20).contains(&self.window) {
            return Err(format!("DAMP window must be in [16, 2^20], got {}", self.window));
        }
        if self.subseq != 0 {
            if self.subseq < 4 {
                return Err(format!(
                    "DAMP subseq must be 0 (derive) or >= 4, got {}",
                    self.subseq
                ));
            }
            if self.window < 2 * self.subseq + 1 {
                return Err(format!(
                    "DAMP window {} too small for subseq {} (needs >= 2m + 1)",
                    self.window, self.subseq
                ));
            }
        }
        Ok(())
    }

    /// The subsequence length a series with this detected `period`
    /// runs: the explicit override, or the derived-and-clamped period —
    /// always small enough for the window, so construction cannot fail.
    fn resolve_subseq(&self, period: usize) -> usize {
        let m = if self.subseq > 0 { self.subseq as usize } else { period.clamp(8, 64) };
        m.clamp(4, (self.window as usize - 1) / 2)
    }
}

/// How an ensemble combines its members' z-comparable scores.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum EnsembleFusion {
    /// The most-alarmed member wins: `score = max(members)`, verdict =
    /// OR of member verdicts. Preserves each member's sensitivity in
    /// full; the shipped default.
    #[default]
    Max,
    /// Weight-averaged score (`Σ wᵢ sᵢ / Σ wᵢ` over z-comparable member
    /// scores) and a weighted majority vote on the verdict (alarm when
    /// the alarming members hold at least half the total weight).
    /// Trades single-member sensitivity for robustness to one noisy
    /// member.
    WeightedRank,
}

/// Options of the ensemble backend: member configs, fusion rule, and
/// member weights `[fused, damp, trend]` (used by
/// [`EnsembleFusion::WeightedRank`]; [`EnsembleFusion::Max`] ignores
/// them).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct EnsembleOptions {
    /// DAMP member options.
    pub damp: DampOptions,
    /// Trend-CUSUM member scoring config.
    pub trend: ScoreConfig,
    /// Fusion rule.
    pub fusion: EnsembleFusion,
    /// Member weights `[fused, damp, trend]`.
    pub weights: [f64; 3],
}

impl Default for EnsembleOptions {
    /// The shipped ensemble: max fusion over the fused scorer, a
    /// derived-subsequence DAMP, and the default trend CUSUM — the
    /// configuration the `tsad_ablation` CI gate pins (within 1%
    /// VUS-ROC of the fused scorer on IOPS and ECG).
    fn default() -> Self {
        EnsembleOptions {
            damp: DampOptions::default(),
            trend: ScoreConfig::default(),
            fusion: EnsembleFusion::Max,
            weights: [1.0, 1.0, 1.0],
        }
    }
}

impl EnsembleOptions {
    /// Validates member configs, fusion rule, and weights.
    pub fn validate(&self) -> Result<(), String> {
        self.damp.validate()?;
        self.trend.validate()?;
        if self.weights.iter().any(|w| !(w.is_finite() && *w >= 0.0)) {
            return Err(format!(
                "ensemble weights must be finite and >= 0, got {:?}",
                self.weights
            ));
        }
        if self.weights.iter().sum::<f64>() <= 0.0 {
            return Err("ensemble weights must not all be zero".into());
        }
        Ok(())
    }
}

// ─────────────────────────── leaf backends ────────────────────────────

/// Streaming DAMP over the residual channel, standardized into z units.
///
/// Raw discord distances depend on the subsequence length and the
/// stream's shape, so thresholding them directly is meaningless. This
/// backend feeds each distance through its own [`NSigma`] normalizer
/// (running mean/σ of the distance stream) and scores the point by the
/// *positive* standardized deviation — an unusually **large** discord
/// distance is anomalous; an unusually small one is just a very normal
/// pattern and clamps to zero rather than alarming.
#[derive(Debug, Clone)]
pub struct DampBackend {
    damp: StreamingDamp,
    /// Normalizer over the raw distance stream (threshold = task
    /// NSigma bar).
    norm: NSigma,
    /// Real distances still to absorb silently (see
    /// [`DAMP_NORM_WARMUP`]).
    warmup_left: u32,
    /// Lifetime alarms (diagnostics, not serialized — resets on
    /// restore).
    alarms: u64,
}

impl DampBackend {
    /// Builds the backend for a series with detected `period`,
    /// alarming above the z bar `n`. `opts` must have passed
    /// [`DampOptions::validate`]; construction is then infallible.
    pub fn new(opts: DampOptions, n: f64, period: usize) -> Self {
        let m = opts.resolve_subseq(period);
        let damp = StreamingDamp::new(opts.window as usize, m)
            .expect("validated DampOptions always construct");
        DampBackend { damp, norm: NSigma::new(n), warmup_left: DAMP_NORM_WARMUP, alarms: 0 }
    }

    /// Lifetime alarm count (resets on snapshot restore).
    pub fn alarms(&self) -> u64 {
        self.alarms
    }

    /// Read-only view of the wrapped streaming DAMP.
    pub fn damp(&self) -> &StreamingDamp {
        &self.damp
    }

    /// Extracts a plain-data snapshot.
    pub fn to_state(&self) -> DampBackendState {
        DampBackendState {
            damp: self.damp.to_state(),
            norm: self.norm.to_state(),
            warmup_left: self.warmup_left,
        }
    }

    /// Rebuilds from [`DampBackend::to_state`] output, validating every
    /// field; the stream continues bit-identically (alarm counter
    /// resets).
    pub fn from_state(state: DampBackendState) -> Result<Self, String> {
        let damp = StreamingDamp::from_state(state.damp)?;
        if !(state.norm.n.is_finite() && state.norm.n > 0.0) {
            return Err(format!("DAMP normalizer bar must be positive, got {}", state.norm.n));
        }
        if !(state.norm.sum.is_finite() && state.norm.sum_sq.is_finite()) {
            return Err("DAMP normalizer sums must be finite".into());
        }
        Ok(DampBackend {
            damp,
            norm: NSigma::from_state(state.norm),
            warmup_left: state.warmup_left,
            alarms: 0,
        })
    }
}

impl DetectorBackend for DampBackend {
    fn observe(&mut self, point: &DecompPoint) -> BackendScore {
        if !point.residual.is_finite() {
            return BackendScore::quiet();
        }
        let d = self.damp.observe(point.residual);
        if d == 0.0 {
            // DAMP's own warm-up (or a hard-pruned zero): nothing to
            // standardize yet
            return BackendScore::quiet();
        }
        if self.warmup_left > 0 {
            self.warmup_left -= 1;
            self.norm.absorb(d);
            return BackendScore::quiet();
        }
        let z = self.norm.zscore(d);
        self.norm.absorb(d);
        let is_anomaly = z > self.norm.n;
        self.alarms += is_anomaly as u64;
        BackendScore { score: z.max(0.0), is_anomaly }
    }
}

impl DetectorBackend for TrendCusum {
    fn observe(&mut self, point: &DecompPoint) -> BackendScore {
        let v = self.update(point.trend);
        BackendScore { score: v.score, is_anomaly: v.is_anomaly }
    }
}

/// Plain-data snapshot of a [`DampBackend`].
#[derive(Debug, Clone, PartialEq)]
pub struct DampBackendState {
    /// Streaming DAMP state (window, subseq, retained values, bsf).
    pub damp: StreamingDampState,
    /// Distance normalizer statistics.
    pub norm: NSigmaState,
    /// Remaining silent-absorption budget.
    pub warmup_left: u32,
}

// ───────────────────────── series dispatch ────────────────────────────

/// The concrete backend a live series runs: the closed set the shard
/// dispatches (statically) and the codec serializes. `None` at the
/// [`crate::series`] layer means [`BackendSelect::Fused`] — no extra
/// state, no extra work.
#[derive(Debug, Clone)]
pub enum SeriesBackend {
    /// Windowed streaming DAMP over the residual channel.
    Damp(DampBackend),
    /// Trend-innovation CUSUM over the trend channel.
    TrendCusum(TrendCusum),
    /// DAMP + trend CUSUM members fused with the residual scorer's
    /// verdict.
    Ensemble {
        /// DAMP member.
        damp: DampBackend,
        /// Trend-CUSUM member.
        trend: TrendCusum,
        /// Fusion rule.
        fusion: EnsembleFusion,
        /// Member weights `[fused, damp, trend]`.
        weights: [f64; 3],
    },
}

impl SeriesBackend {
    /// Builds the backend a promoting series selected, or `None` for
    /// [`BackendSelect::Fused`]. `n` is the task NSigma bar (already
    /// per-series resolved), `period` the detected period.
    pub fn build(select: BackendSelect, n: f64, period: usize) -> Option<Self> {
        match select {
            BackendSelect::Fused => None,
            BackendSelect::Damp(opts) => {
                Some(SeriesBackend::Damp(DampBackend::new(opts, n, period)))
            }
            BackendSelect::TrendCusum(score) => {
                Some(SeriesBackend::TrendCusum(TrendCusum::new(n, score)))
            }
            BackendSelect::Ensemble(e) => Some(SeriesBackend::Ensemble {
                damp: DampBackend::new(e.damp, n, period),
                trend: TrendCusum::new(n, e.trend),
                fusion: e.fusion,
                weights: e.weights,
            }),
        }
    }

    /// Scores one decomposed point. `fused` is the residual scorer's
    /// verdict for the same point — the ensemble's third member; leaf
    /// backends ignore it. The returned verdict *replaces* the fused
    /// one as the series verdict (the ensemble folds the fused member
    /// back in; leaf backends stand alone by selection).
    pub fn observe(&mut self, point: &DecompPoint, fused: &ScoreVerdict) -> BackendScore {
        match self {
            SeriesBackend::Damp(d) => d.observe(point),
            SeriesBackend::TrendCusum(t) => DetectorBackend::observe(t, point),
            SeriesBackend::Ensemble { damp, trend, fusion, weights } => {
                let d = damp.observe(point);
                let t = DetectorBackend::observe(trend, point);
                let f = BackendScore { score: fused.score, is_anomaly: fused.is_anomaly };
                match fusion {
                    EnsembleFusion::Max => BackendScore {
                        score: f.score.max(d.score).max(t.score),
                        is_anomaly: f.is_anomaly || d.is_anomaly || t.is_anomaly,
                    },
                    EnsembleFusion::WeightedRank => {
                        let [wf, wd, wt] = *weights;
                        let total = wf + wd + wt;
                        let score = (wf * f.score + wd * d.score + wt * t.score) / total;
                        let alarmed = wf * (f.is_anomaly as u8 as f64)
                            + wd * (d.is_anomaly as u8 as f64)
                            + wt * (t.is_anomaly as u8 as f64);
                        BackendScore { score, is_anomaly: alarmed >= 0.5 * total }
                    }
                }
            }
        }
    }

    /// Lifetime `(damp alarms, trend alarms)` of this backend's members
    /// (diagnostics — reset on snapshot restore, like every other
    /// diagnostic counter). Trend alarms count both the z and the CUSUM
    /// channel of the innovation scorer.
    pub fn alarm_counts(&self) -> (u64, u64) {
        match self {
            SeriesBackend::Damp(d) => (d.alarms(), 0),
            SeriesBackend::TrendCusum(t) => {
                let (z, c) = t.alarm_counts();
                (0, z + c)
            }
            SeriesBackend::Ensemble { damp, trend, .. } => {
                let (z, c) = trend.alarm_counts();
                (damp.alarms(), z + c)
            }
        }
    }

    /// Extracts a plain-data snapshot for serialization.
    pub fn to_snapshot(&self) -> BackendSnapshot {
        match self {
            SeriesBackend::Damp(d) => BackendSnapshot::Damp(d.to_state()),
            SeriesBackend::TrendCusum(t) => BackendSnapshot::TrendCusum(t.to_state()),
            SeriesBackend::Ensemble { damp, trend, fusion, weights } => {
                BackendSnapshot::Ensemble {
                    damp: damp.to_state(),
                    trend: trend.to_state(),
                    fusion: *fusion,
                    weights: *weights,
                }
            }
        }
    }

    /// Rebuilds from [`SeriesBackend::to_snapshot`] output, validating
    /// every field (snapshots cross a serialization boundary); the
    /// stream continues bit-identically.
    pub fn from_snapshot(snap: BackendSnapshot) -> Result<Self, String> {
        match snap {
            BackendSnapshot::Damp(s) => Ok(SeriesBackend::Damp(DampBackend::from_state(s)?)),
            BackendSnapshot::TrendCusum(s) => {
                validate_trend_state(&s)?;
                Ok(SeriesBackend::TrendCusum(TrendCusum::from_state(s)))
            }
            BackendSnapshot::Ensemble { damp, trend, fusion, weights } => {
                validate_trend_state(&trend)?;
                if weights.iter().any(|w| !(w.is_finite() && *w >= 0.0))
                    || weights.iter().sum::<f64>() <= 0.0
                {
                    return Err(format!("degenerate ensemble weights {weights:?}"));
                }
                Ok(SeriesBackend::Ensemble {
                    damp: DampBackend::from_state(damp)?,
                    trend: TrendCusum::from_state(trend),
                    fusion,
                    weights,
                })
            }
        }
    }
}

/// Range checks on a decoded [`TrendCusumState`] (its inner scorer
/// state is range-checked by the codec's shared scorer decoder; this
/// covers the wrapper's own fields).
fn validate_trend_state(s: &TrendCusumState) -> Result<(), String> {
    if s.has_prev && !s.prev.is_finite() {
        return Err(format!("trend CUSUM prev must be finite, got {}", s.prev));
    }
    Ok(())
}

/// Plain-data snapshot of a [`SeriesBackend`].
#[derive(Debug, Clone, PartialEq)]
pub enum BackendSnapshot {
    /// DAMP backend state.
    Damp(DampBackendState),
    /// Trend-CUSUM backend state.
    TrendCusum(TrendCusumState),
    /// Ensemble state: both members plus the fusion rule.
    Ensemble {
        /// DAMP member state.
        damp: DampBackendState,
        /// Trend-CUSUM member state.
        trend: TrendCusumState,
        /// Fusion rule.
        fusion: EnsembleFusion,
        /// Member weights `[fused, damp, trend]`.
        weights: [f64; 3],
    },
}

#[cfg(test)]
mod tests {
    use super::*;

    fn point(trend: f64, residual: f64) -> DecompPoint {
        DecompPoint { trend, seasonal: 0.0, residual }
    }

    fn residual_stream(n: usize) -> Vec<f64> {
        (0..n)
            .map(|i| {
                (2.0 * std::f64::consts::PI * i as f64 / 16.0).sin() * 0.2
                    + 0.05 * (((i * 37) % 100) as f64 / 50.0 - 1.0)
            })
            .collect()
    }

    #[test]
    fn config_validation() {
        assert!(BackendSelect::default().validate().is_ok());
        assert!(BackendSelect::Damp(DampOptions::default()).validate().is_ok());
        assert!(BackendSelect::TrendCusum(ScoreConfig::default()).validate().is_ok());
        assert!(BackendSelect::Ensemble(EnsembleOptions::default()).validate().is_ok());

        let tiny = DampOptions { window: 8, subseq: 0 };
        assert!(BackendSelect::Damp(tiny).validate().is_err());
        let mismatched = DampOptions { window: 16, subseq: 12 };
        assert!(BackendSelect::Damp(mismatched).validate().is_err());
        let bad_trend = ScoreConfig { cusum_h: 0.0, ..Default::default() };
        assert!(BackendSelect::TrendCusum(bad_trend).validate().is_err());
        let bad_weights = EnsembleOptions { weights: [0.0, 0.0, 0.0], ..Default::default() };
        assert!(BackendSelect::Ensemble(bad_weights).validate().is_err());
        let nan_weights =
            EnsembleOptions { weights: [1.0, f64::NAN, 1.0], ..Default::default() };
        assert!(BackendSelect::Ensemble(nan_weights).validate().is_err());
    }

    /// Derived subsequence lengths always fit their window, whatever
    /// the detected period.
    #[test]
    fn derived_subseq_always_constructs() {
        for period in [0usize, 1, 7, 24, 100, 10_000] {
            for window in [16u32, 64, 256] {
                let opts = DampOptions { window, subseq: 0 };
                opts.validate().unwrap();
                let b = DampBackend::new(opts, 5.0, period);
                assert!(b.damp().subseq_len() >= 4);
                assert!(window as usize > 2 * b.damp().subseq_len());
            }
        }
    }

    /// A residual discord alarms the DAMP backend after warm-up; a
    /// clean periodic residual does not.
    #[test]
    fn damp_backend_flags_a_residual_discord() {
        let mut b = DampBackend::new(DampOptions { window: 128, subseq: 16 }, 5.0, 16);
        let xs = residual_stream(400);
        let mut alarmed_before = 0u64;
        for &r in &xs[..300] {
            b.observe(&point(0.0, r));
        }
        alarmed_before += b.alarms();
        // a flat run unlike anything the window has seen
        let mut max_score = 0.0f64;
        for _ in 0..16 {
            let v = b.observe(&point(0.0, 1.8));
            max_score = max_score.max(v.score);
        }
        assert!(b.alarms() > alarmed_before, "the discord must alarm (max score {max_score})");
    }

    /// Backend snapshots restore bit-identically, for every variant.
    #[test]
    fn snapshot_roundtrip_is_bit_identical() {
        let selects = [
            BackendSelect::Damp(DampOptions { window: 64, subseq: 8 }),
            BackendSelect::TrendCusum(ScoreConfig::default()),
            BackendSelect::Ensemble(EnsembleOptions::default()),
            BackendSelect::Ensemble(EnsembleOptions {
                fusion: EnsembleFusion::WeightedRank,
                weights: [2.0, 1.0, 0.5],
                ..Default::default()
            }),
        ];
        let xs = residual_stream(300);
        let fused = ScoreVerdict { score: 0.3, z: 0.3, cusum: 0.1, is_anomaly: false };
        for select in selects {
            let mut a = SeriesBackend::build(select, 5.0, 16).unwrap();
            for (i, &r) in xs[..200].iter().enumerate() {
                a.observe(&point(1.0 + 0.01 * i as f64, r), &fused);
            }
            let mut b = SeriesBackend::from_snapshot(a.to_snapshot()).unwrap();
            assert_eq!(a.to_snapshot(), b.to_snapshot());
            for (i, &r) in xs[200..].iter().enumerate() {
                let p = point(3.0 + 0.02 * i as f64, r);
                let (va, vb) = (a.observe(&p, &fused), b.observe(&p, &fused));
                assert_eq!(va.score.to_bits(), vb.score.to_bits(), "{select:?} at {i}");
                assert_eq!(va.is_anomaly, vb.is_anomaly);
            }
        }
    }

    /// Degenerate snapshots are rejected with a message, never panic.
    #[test]
    fn degenerate_snapshots_are_rejected() {
        let mut b =
            SeriesBackend::build(BackendSelect::Ensemble(EnsembleOptions::default()), 5.0, 16)
                .unwrap();
        let fused = ScoreVerdict { score: 0.0, z: 0.0, cusum: 0.0, is_anomaly: false };
        for &r in &residual_stream(100) {
            b.observe(&point(0.0, r), &fused);
        }
        let good = b.to_snapshot();
        let BackendSnapshot::Ensemble { damp, trend, fusion, weights } = good else {
            unreachable!()
        };
        let mut bad_damp = damp.clone();
        bad_damp.damp.bsf = f64::NAN;
        assert!(SeriesBackend::from_snapshot(BackendSnapshot::Damp(bad_damp)).is_err());
        let mut bad_trend = trend.clone();
        bad_trend.prev = f64::INFINITY;
        assert!(SeriesBackend::from_snapshot(BackendSnapshot::TrendCusum(bad_trend)).is_err());
        let bad = BackendSnapshot::Ensemble { damp, trend, fusion, weights: [f64::NAN; 3] };
        assert!(SeriesBackend::from_snapshot(bad).is_err());
        let _ = weights;
    }

    /// Max fusion takes the most-alarmed member; weighted-rank takes
    /// the weighted vote.
    #[test]
    fn ensemble_fusion_rules() {
        let fused_hot = ScoreVerdict { score: 9.0, z: 9.0, cusum: 0.0, is_anomaly: true };
        let mk = |fusion, weights| {
            SeriesBackend::build(
                BackendSelect::Ensemble(EnsembleOptions {
                    fusion,
                    weights,
                    ..Default::default()
                }),
                5.0,
                16,
            )
            .unwrap()
        };
        // members still warming (quiet): Max passes the fused alarm
        // through at full strength
        let mut e = mk(EnsembleFusion::Max, [1.0, 1.0, 1.0]);
        let v = e.observe(&point(0.0, 0.1), &fused_hot);
        assert_eq!(v.score, 9.0);
        assert!(v.is_anomaly);
        // weighted vote: the fused member alone holds 1/3 of the weight
        // — below the majority bar, so no alarm, and the score averages
        let mut e = mk(EnsembleFusion::WeightedRank, [1.0, 1.0, 1.0]);
        let v = e.observe(&point(0.0, 0.1), &fused_hot);
        assert!((v.score - 3.0).abs() < 1e-12);
        assert!(!v.is_anomaly);
        // with dominant fused weight the vote carries
        let mut e = mk(EnsembleFusion::WeightedRank, [3.0, 1.0, 1.0]);
        let v = e.observe(&point(0.0, 0.1), &fused_hot);
        assert!(v.is_anomaly);
    }
}
