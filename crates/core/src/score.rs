//! Persistence-aware residual scoring: streaming two-sided CUSUM fused
//! with the instantaneous NSigma z-score.
//!
//! The paper's §5 TSAD pipeline scores each point by its instantaneous
//! residual z-score (Algorithm 6). That is blind to *collective* anomalies
//! in a wandering-trend regime: OneShotSTL's adaptive trend absorbs a
//! level shift within a few points, so only the shift edges score high and
//! the body of the anomalous segment looks normal. The classic remedy
//! (Page's CUSUM; see also Zhang/Pein/Eckley's collective-anomaly
//! decomposition and eBay's robust-decomposition AD system) is a
//! *persistence-aware* statistic over the residual stream: small but
//! sustained standardized deviations accumulate until they cross a
//! decision bar that a single noisy point cannot reach.
//!
//! [`ResidualScorer`] layers three O(1) mechanisms on the decomposed
//! residual:
//!
//! 1. the existing streaming [`NSigma`] z-score `z_t = (r_t − μ) / σ`
//!    against the running residual statistics (score-then-absorb, exactly
//!    Algorithm 6);
//! 2. a two-sided CUSUM over the same standardized residual:
//!    `S⁺_t = clamp(S⁺_{t−1} + z_t − k, 0, 2h)`,
//!    `S⁻_t = clamp(S⁻_{t−1} − z_t − k, 0, 2h)`,
//!    with reference value `k` (drift allowance, in σ units) and decision
//!    bar `h`. The statistic is `C_t = max(S⁺_t, S⁻_t)`; `C_t > h` raises
//!    an alarm and resets both accumulators (classic reset-on-alarm, so
//!    the next collective anomaly is detected from a clean slate — the
//!    `2h` clamp bounds the statistic a single extreme point can report);
//! 3. an exponentially decaying **peak-hold** over the fused statistic:
//!    `P_t = max(γ · P_{t−1}, fused_t)`. A level-shift anomaly leaves
//!    only two narrow residual spikes (entry and exit edges — the
//!    adaptive trend flattens everything in between), and the hold
//!    bridges them: every point of the anomalous span ranks near the edge
//!    evidence instead of falling back to noise level. `γ = 0` disables
//!    the hold (pure instantaneous scoring).
//!
//! The emitted score is the held fusion of `z` and the rescaled CUSUM
//! statistic (see [`Fusion`]); the *verdict* stays instantaneous
//! (`z > n ∨ C > h`), so alarm counts do not smear across the hold tail.
//!
//! With [`Fusion::Off`] the scorer is **bit-identical** to the plain
//! NSigma path (the CUSUM accumulators and the hold are never touched).
//!
//! Everything is `O(1)` state and allocation-free in steady state: three
//! `f64` accumulators on top of NSigma's three running sums. Defaults
//! were chosen by the `tsad_ablation` sweep (see `BENCH_tsad.json`).

use crate::nsigma::{NSigma, NSigmaState};

/// The peak-hold latches at most this many multiples of the z bar `n`
/// (see the clamp note in [`CusumScorer::update`]): deep enough that
/// held anomalies keep out-ranking everything normal, bounded so a
/// degenerate zero-variance sentinel decays in `ln(8)/(1−γ)` ≈ 200
/// points at the default γ instead of ~35 000.
const HOLD_INPUT_CAP: f64 = 8.0;

/// How the instantaneous z-score and the CUSUM statistic combine into the
/// emitted score (higher = more anomalous).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Fusion {
    /// Instantaneous z-score only, bit-identical to plain [`NSigma`]
    /// scoring (CUSUM and peak-hold state never move).
    Off,
    /// CUSUM statistic only (rescaled to z units by `n / h` so thresholds
    /// stay comparable), peak-held. Mostly useful in ablations.
    Cusum,
    /// `max(z, C · n/h)`, peak-held: a point is as anomalous as the *more
    /// alarmed* of the two detectors, in common z units. The anomaly
    /// verdict is the union `z > n  ∨  C > h`. This is the shipped
    /// default — it preserves point-anomaly (spike) sensitivity exactly
    /// while adding collective-anomaly sensitivity.
    #[default]
    Max,
}

/// Configuration of a [`ResidualScorer`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ScoreConfig {
    /// CUSUM reference value `k` (drift allowance per point, in σ units):
    /// deviations below `k` drain the accumulators, deviations above grow
    /// them. Classic choice: half the smallest shift worth detecting.
    pub cusum_k: f64,
    /// CUSUM decision bar `h` (in accumulated σ units): the alarm
    /// threshold for `max(S⁺, S⁻)`, with reset-on-alarm. Accumulators are
    /// clamped to `2h`.
    pub cusum_h: f64,
    /// Peak-hold decay `γ ∈ [0, 1)` per point: the emitted score is
    /// `max(γ · previous, instantaneous)`. `0` disables the hold.
    pub hold_decay: f64,
    /// Fusion rule for the emitted score.
    pub fusion: Fusion,
}

impl Default for ScoreConfig {
    /// The defaults chosen by the `tsad_ablation` sweep (see
    /// `BENCH_tsad.json`): `k = 0.5`, `h = 6`, `γ = 0.99`,
    /// [`Fusion::Max`] lifts the wandering-trend + level-shift family
    /// from ~0.55 to ~0.78 VUS-ROC while *improving* the strongly
    /// seasonal families.
    fn default() -> Self {
        ScoreConfig { cusum_k: 0.5, cusum_h: 6.0, hold_decay: 0.99, fusion: Fusion::Max }
    }
}

impl ScoreConfig {
    /// Instantaneous z-score only: the paper's plain-NSigma scoring.
    pub fn off() -> Self {
        ScoreConfig { fusion: Fusion::Off, ..Default::default() }
    }

    /// Validates the parameters, returning a message for the first
    /// problem found. (`k = 0` is legal — a pure random-walk CUSUM — but
    /// `h` must be a positive finite bar, and the hold decay must stay
    /// below 1 or the score would never come back down.)
    pub fn validate(&self) -> Result<(), String> {
        if !(self.cusum_k.is_finite() && self.cusum_k >= 0.0) {
            return Err(format!("cusum_k must be finite and >= 0, got {}", self.cusum_k));
        }
        if !(self.cusum_h.is_finite() && self.cusum_h > 0.0) {
            return Err(format!("cusum_h must be finite and > 0, got {}", self.cusum_h));
        }
        if !(self.hold_decay.is_finite() && (0.0..1.0).contains(&self.hold_decay)) {
            return Err(format!(
                "hold_decay must be finite and in [0, 1), got {}",
                self.hold_decay
            ));
        }
        Ok(())
    }
}

/// One scoring step's outcome: the fused score plus both raw components,
/// so callers (and tests) can attribute an alarm.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ScoreVerdict {
    /// The fused, peak-held score (what stream consumers rank by).
    pub score: f64,
    /// Instantaneous |z| against the residual history.
    pub z: f64,
    /// CUSUM statistic `max(S⁺, S⁻)` *before* any reset-on-alarm (so the
    /// alarm-raising value is observable).
    pub cusum: f64,
    /// Instantaneous verdict: `z > n` or (fusion permitting) `C > h` —
    /// deliberately *not* held, so alarms don't smear across the hold
    /// tail.
    pub is_anomaly: bool,
}

/// The CUSUM, peak-hold, bar and alarm counters of a
/// [`ResidualScorer`], fed a residual and its z-score computed elsewhere.
/// [`crate::StdAnomalyDetector`] runs one on the z its decomposer's
/// shift-trigger NSigma already computes, so a live detector keeps one
/// set of running residual sums.
#[derive(Debug, Clone)]
pub struct CusumScorer {
    config: ScoreConfig,
    /// Threshold `n` of the z bar.
    n: f64,
    /// Upper CUSUM accumulator `S⁺`.
    s_pos: f64,
    /// Lower CUSUM accumulator `S⁻`.
    s_neg: f64,
    /// Peak-hold `P` of the fused statistic.
    hold: f64,
    /// Lifetime count of points whose `z` exceeded the bar (diagnostics,
    /// not serialized).
    z_alarms: u64,
    /// Lifetime count of CUSUM bar crossings (diagnostics, not
    /// serialized).
    cusum_alarms: u64,
}

impl CusumScorer {
    /// Creates a scorer with z bar `n` and CUSUM config.
    pub fn new(n: f64, config: ScoreConfig) -> Self {
        CusumScorer {
            config,
            n,
            s_pos: 0.0,
            s_neg: 0.0,
            hold: 0.0,
            z_alarms: 0,
            cusum_alarms: 0,
        }
    }

    /// Lifetime `(z alarms, CUSUM alarms)`: how many updates crossed the
    /// instantaneous z bar and how many crossed the CUSUM decision bar
    /// (one point can count in both; under [`Fusion::Off`] only the z
    /// count moves). Diagnostics only — like
    /// [`crate::OneShotStl::shift_search_stats`], the counters reset on
    /// snapshot restore.
    pub fn alarm_counts(&self) -> (u64, u64) {
        (self.z_alarms, self.cusum_alarms)
    }

    /// Scores residual `r` whose signed z-score against the residual
    /// history is `zs` ([`NSigma::zscore`]).
    ///
    /// [`Fusion::Off`] takes the legacy path: `|zs|` against the bar,
    /// untouched CUSUM/hold state — bit-identical scores to plain
    /// [`NSigma::update`]. The fused modes guard non-finite residuals
    /// (state unchanged, non-anomalous verdict carrying the current held
    /// score); the caller must not absorb such a residual into its
    /// sums either ([`NSigma::absorb`] already skips it).
    pub fn update(&mut self, r: f64, zs: f64) -> ScoreVerdict {
        let n = self.n;
        let z = zs.abs();
        let z_alarm = z > n;
        if self.config.fusion == Fusion::Off {
            self.z_alarms += z_alarm as u64;
            return ScoreVerdict { score: z, z, cusum: 0.0, is_anomaly: z_alarm };
        }
        if !r.is_finite() {
            return ScoreVerdict {
                score: self.hold,
                z: 0.0,
                cusum: self.s_pos.max(self.s_neg),
                is_anomaly: false,
            };
        }
        let ScoreConfig { cusum_k: k, cusum_h: h, hold_decay, fusion } = self.config;
        // the 2h clamp bounds both the reported statistic and the state a
        // single extreme point can park in the accumulators
        self.s_pos = (self.s_pos + zs - k).clamp(0.0, 2.0 * h);
        self.s_neg = (self.s_neg - zs - k).clamp(0.0, 2.0 * h);
        let cusum = self.s_pos.max(self.s_neg);
        let cusum_alarm = cusum > h;
        if cusum_alarm {
            // reset-on-alarm: the next collective anomaly is detected
            // from a clean accumulator, not a saturated one
            self.s_pos = 0.0;
            self.s_neg = 0.0;
        }
        self.z_alarms += z_alarm as u64;
        self.cusum_alarms += cusum_alarm as u64;
        // rescale the CUSUM statistic into z units (its bar h maps onto
        // the z bar n) so one fused stream ranks both detectors fairly
        let c_scaled = cusum * (n / h);
        let (instant, is_anomaly) = match fusion {
            Fusion::Off => unreachable!("handled above"),
            Fusion::Cusum => (c_scaled, cusum_alarm),
            Fusion::Max => (z.max(c_scaled), z_alarm || cusum_alarm),
        };
        // the hold's *input* is bounded (the CUSUM term already is, via
        // the 2h clamp): a zero-variance history standardizes one
        // deviating point to the ~1.3e154 sentinel, and latching that
        // into a γ-decaying memory would keep the stream pinned above
        // the alarm bar for tens of thousands of points. The emitted
        // score still reports the unbounded statistic at the point
        // itself (same as the legacy z path); only the memory is capped.
        self.hold = (self.hold * hold_decay).max(instant.min(HOLD_INPUT_CAP * n));
        ScoreVerdict { score: self.hold.max(instant), z, cusum, is_anomaly }
    }

    /// Extracts a plain-data snapshot (everything but the diagnostic
    /// alarm counters).
    pub fn to_state(&self) -> CusumState {
        let CusumScorer { config, n, s_pos, s_neg, hold, .. } = *self;
        CusumState { config, n, s_pos, s_neg, hold }
    }

    /// Rebuilds a scorer from [`CusumScorer::to_state`] output; the
    /// stream continues bit-identically.
    pub fn from_state(state: CusumState) -> Self {
        let CusumState { config, n, s_pos, s_neg, hold } = state;
        CusumScorer { config, n, s_pos, s_neg, hold, z_alarms: 0, cusum_alarms: 0 }
    }
}

/// Plain-data snapshot of a [`CusumScorer`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CusumState {
    /// Scoring configuration.
    pub config: ScoreConfig,
    /// Threshold `n` of the z bar.
    pub n: f64,
    /// Upper CUSUM accumulator.
    pub s_pos: f64,
    /// Lower CUSUM accumulator.
    pub s_neg: f64,
    /// Peak-hold of the fused statistic.
    pub hold: f64,
}

/// Streaming persistence-aware residual scorer: running residual
/// statistics plus a [`CusumScorer`] fed their z-scores. See the [module
/// docs](self).
#[derive(Debug, Clone)]
pub struct ResidualScorer {
    nsigma: NSigma,
    cusum: CusumScorer,
}

impl ResidualScorer {
    /// Creates a scorer with NSigma threshold `n` and CUSUM config.
    pub fn new(n: f64, config: ScoreConfig) -> Self {
        ResidualScorer { nsigma: NSigma::new(n), cusum: CusumScorer::new(n, config) }
    }

    /// Lifetime `(z alarms, CUSUM alarms)`; see
    /// [`CusumScorer::alarm_counts`].
    pub fn alarm_counts(&self) -> (u64, u64) {
        self.cusum.alarm_counts()
    }

    /// Read-only view of the underlying residual statistics.
    pub fn nsigma(&self) -> &NSigma {
        &self.nsigma
    }

    /// Current CUSUM accumulators `(S⁺, S⁻)`.
    pub fn cusum_state(&self) -> (f64, f64) {
        (self.cusum.s_pos, self.cusum.s_neg)
    }

    /// Seeds the residual statistics from an initialization window
    /// (mirrors [`NSigma::seed`]; the CUSUM accumulators and peak-hold
    /// stay at zero — the initialization window is presumed clean).
    pub fn seed(&mut self, residuals: &[f64]) {
        self.nsigma.seed(residuals);
    }

    /// Scores one residual against the running statistics, then absorbs
    /// it (score-then-absorb, Algorithm 6); see [`CusumScorer::update`].
    pub fn update(&mut self, r: f64) -> ScoreVerdict {
        let v = self.cusum.update(r, self.nsigma.zscore(r));
        self.nsigma.absorb(r);
        v
    }

    /// Absorbs one value into the running statistics **without scoring
    /// it** (and without touching the CUSUM accumulators or the hold).
    /// Warm-up absorption for wrappers like [`TrendCusum`], whose first
    /// observations calibrate the statistics but must not alarm.
    /// Non-finite input is ignored.
    pub fn absorb(&mut self, r: f64) {
        if r.is_finite() {
            self.nsigma.absorb(r);
        }
    }

    /// Extracts a plain-data snapshot for serialization (see
    /// `fleet::codec`).
    pub fn to_state(&self) -> ResidualScorerState {
        ResidualScorerState { nsigma: self.nsigma.to_state(), cusum: self.cusum.to_state() }
    }

    /// Rebuilds a scorer from [`ResidualScorer::to_state`] output; the
    /// stream continues bit-identically.
    pub fn from_state(state: ResidualScorerState) -> Self {
        ResidualScorer {
            nsigma: NSigma::from_state(state.nsigma),
            cusum: CusumScorer::from_state(state.cusum),
        }
    }
}

/// Plain-data snapshot of a [`ResidualScorer`]: its running residual
/// statistics and its CUSUM part, under one bar `n`.
#[derive(Debug, Clone, PartialEq)]
pub struct ResidualScorerState {
    /// Running residual statistics.
    pub nsigma: NSigmaState,
    /// Configuration, bar, accumulators and peak-hold.
    pub cusum: CusumState,
}

/// How many first innovations a [`TrendCusum`] absorbs silently before
/// emitting verdicts: enough observations that the running σ is
/// calibrated (an unseeded NSigma standardizes early points against a
/// near-zero variance and would emit sentinel alarms on perfectly normal
/// trend motion).
const TREND_WARMUP: u32 = 16;

/// Streaming CUSUM over the **trend component's own innovations**
/// `d_t = τ_t − τ_{t−1}`.
///
/// The residual scorer is blind to whatever the adaptive trend absorbs:
/// a level shift moves the trend itself within a few points and leaves
/// only two narrow residual edge spikes. This detector watches the other
/// channel — the trend's first differences. In steady state those
/// innovations are small and zero-mean; a level shift (or a trend-slope
/// break) produces a *run* of same-signed innovations that a two-sided
/// CUSUM accumulates past its bar even when no single step is extreme.
///
/// Internally this wraps a [`ResidualScorer`] applied to the innovation
/// stream, inheriting its CUSUM + peak-hold mechanics, its non-finite
/// guard, and its `O(1)`/zero-allocation steady state. The first
/// `TREND_WARMUP` (16) innovations are absorbed without scoring (see
/// [`ResidualScorer::absorb`]) unless the statistics were seeded from an
/// initialization window via [`TrendCusum::seed`].
#[derive(Debug, Clone)]
pub struct TrendCusum {
    scorer: ResidualScorer,
    /// Previous trend value (innovation = current − previous).
    prev: f64,
    /// Whether `prev` holds a real observation yet.
    has_prev: bool,
    /// Silent-absorption budget remaining (see [`TREND_WARMUP`]).
    warmup_left: u32,
}

impl TrendCusum {
    /// Creates a trend-innovation CUSUM with z bar `n` and CUSUM config
    /// (the same [`ScoreConfig`] vocabulary as the residual scorer).
    pub fn new(n: f64, config: ScoreConfig) -> Self {
        TrendCusum {
            scorer: ResidualScorer::new(n, config),
            prev: 0.0,
            has_prev: false,
            warmup_left: TREND_WARMUP,
        }
    }

    /// Read-only view of the wrapped innovation scorer (statistics,
    /// config, alarm counters).
    pub fn scorer(&self) -> &ResidualScorer {
        &self.scorer
    }

    /// Lifetime `(z alarms, CUSUM alarms)` over the innovation stream.
    /// Diagnostics only — resets on snapshot restore, like
    /// [`ResidualScorer::alarm_counts`].
    pub fn alarm_counts(&self) -> (u64, u64) {
        self.scorer.alarm_counts()
    }

    /// Seeds the innovation statistics from an initialization window of
    /// *trend values* (consecutive; their first differences are
    /// absorbed). Skips the warm-up: the next [`TrendCusum::update`]
    /// scores for real. Allocation-free.
    pub fn seed(&mut self, trends: &[f64]) {
        for w in trends.windows(2) {
            self.scorer.absorb(w[1] - w[0]);
        }
        if let Some(&last) = trends.last() {
            if last.is_finite() {
                self.prev = last;
                self.has_prev = true;
            }
        }
        self.warmup_left = 0;
    }

    /// Scores one trend observation. The first point (nothing to
    /// difference against) and warm-up innovations return a zero,
    /// non-anomalous verdict; non-finite input leaves all state
    /// untouched (including `prev` — the next finite point differences
    /// against the last *trusted* trend value).
    pub fn update(&mut self, trend: f64) -> ScoreVerdict {
        if !trend.is_finite() {
            // delegate to the inner guard: state unchanged, held score
            return self.scorer.update(f64::NAN);
        }
        if !self.has_prev {
            self.prev = trend;
            self.has_prev = true;
            return ScoreVerdict { score: 0.0, z: 0.0, cusum: 0.0, is_anomaly: false };
        }
        let d = trend - self.prev;
        self.prev = trend;
        if self.warmup_left > 0 {
            self.warmup_left -= 1;
            self.scorer.absorb(d);
            return ScoreVerdict { score: 0.0, z: 0.0, cusum: 0.0, is_anomaly: false };
        }
        self.scorer.update(d)
    }

    /// Extracts a plain-data snapshot for serialization (see
    /// `fleet::codec`).
    pub fn to_state(&self) -> TrendCusumState {
        TrendCusumState {
            scorer: self.scorer.to_state(),
            prev: self.prev,
            has_prev: self.has_prev,
            warmup_left: self.warmup_left,
        }
    }

    /// Rebuilds from [`TrendCusum::to_state`] output; the stream
    /// continues bit-identically (alarm counters reset, as always).
    pub fn from_state(state: TrendCusumState) -> Self {
        TrendCusum {
            scorer: ResidualScorer::from_state(state.scorer),
            prev: state.prev,
            has_prev: state.has_prev,
            warmup_left: state.warmup_left,
        }
    }
}

/// Plain-data snapshot of a [`TrendCusum`].
#[derive(Debug, Clone, PartialEq)]
pub struct TrendCusumState {
    /// Wrapped innovation scorer state.
    pub scorer: ResidualScorerState,
    /// Previous trend value.
    pub prev: f64,
    /// Whether `prev` holds a real observation.
    pub has_prev: bool,
    /// Remaining silent-absorption budget.
    pub warmup_left: u32,
}

#[cfg(test)]
mod tests {
    use super::*;

    fn fused(k: f64, h: f64) -> ResidualScorer {
        ResidualScorer::new(
            5.0,
            ScoreConfig { cusum_k: k, cusum_h: h, hold_decay: 0.0, fusion: Fusion::Max },
        )
    }

    /// A sustained small drift (far below the 5σ point bar) accumulates
    /// past the CUSUM bar and raises an alarm the z-score never would.
    #[test]
    fn drift_accumulates_to_an_alarm() {
        let mut s = fused(0.25, 6.0);
        // calibrate on zero-mean noise
        let noise: Vec<f64> = (0..200).map(|i| ((i * 37 % 100) as f64 / 50.0) - 1.0).collect();
        s.seed(&noise);
        let sigma = s.nsigma().std();
        let mut alarmed = false;
        let mut max_z = 0.0f64;
        for _ in 0..40 {
            let v = s.update(1.5 * sigma); // persistent +1.5σ drift
            max_z = max_z.max(v.z);
            if v.is_anomaly {
                alarmed = true;
                assert!(v.cusum > 6.0, "alarm must come from the CUSUM bar, got {v:?}");
                break;
            }
        }
        assert!(alarmed, "a persistent 1.5σ drift must trip the CUSUM");
        assert!(max_z < 5.0, "the instantaneous z-score alone must NOT alarm (z {max_z})");
    }

    /// The accumulators reset to zero after an alarm and re-arm for the
    /// next drift.
    #[test]
    fn reset_on_alarm() {
        let mut s = fused(0.25, 6.0);
        s.seed(&[0.0, 1.0, -1.0, 0.5, -0.5, 0.25, -0.25, 0.75, -0.75, 0.0]);
        let sigma = s.nsigma().std();
        let mut alarm_verdict = None;
        for _ in 0..200 {
            let v = s.update(2.0 * sigma);
            if v.cusum > 6.0 {
                alarm_verdict = Some(v);
                break;
            }
        }
        let v = alarm_verdict.expect("drift must trip the bar");
        assert!(v.is_anomaly);
        // the verdict carries the pre-reset statistic; the state is clean
        assert!(v.cusum > 6.0);
        assert_eq!(s.cusum_state(), (0.0, 0.0), "accumulators must reset after the alarm");
        // and the re-armed detector trips again on continued drift
        let mut re_alarmed = false;
        for _ in 0..200 {
            if s.update(2.0 * s.nsigma().std()).is_anomaly {
                re_alarmed = true;
                break;
            }
        }
        assert!(re_alarmed, "a reset detector must re-alarm on continued drift");
    }

    /// Negative drifts trip the lower accumulator symmetrically.
    #[test]
    fn two_sided() {
        let mut s = fused(0.25, 4.0);
        s.seed(&[0.0, 1.0, -1.0, 0.5, -0.5, 0.25, -0.25, 0.75, -0.75, 0.0]);
        let sigma = s.nsigma().std();
        let mut alarmed = false;
        for _ in 0..100 {
            let v = s.update(-1.5 * sigma);
            if v.is_anomaly {
                alarmed = true;
                break;
            }
        }
        assert!(alarmed, "a negative drift must trip the lower CUSUM");
    }

    /// The accumulators never leave `[0, 2h]`, even for absurd inputs.
    #[test]
    fn accumulators_are_clamped() {
        let mut s = fused(0.5, 6.0);
        s.seed(&[0.0, 1.0, -1.0, 0.5, -0.5]);
        for _ in 0..10 {
            s.update(1e12);
            let (sp, sn) = s.cusum_state();
            assert!((0.0..=12.0).contains(&sp), "S+ out of range: {sp}");
            assert!((0.0..=12.0).contains(&sn), "S- out of range: {sn}");
        }
    }

    /// The peak-hold bridges the gap between two isolated spikes: scores
    /// in between decay geometrically instead of dropping to noise level.
    #[test]
    fn peak_hold_decays_geometrically() {
        let cfg = ScoreConfig { hold_decay: 0.9, ..Default::default() };
        let mut s = ResidualScorer::new(5.0, cfg);
        let noise: Vec<f64> = (0..200).map(|i| ((i * 37 % 100) as f64 / 50.0) - 1.0).collect();
        s.seed(&noise);
        let sigma = s.nsigma().std();
        let spike = s.update(20.0 * sigma);
        assert!(spike.score > 5.0);
        let next = s.update(0.0);
        // z ≈ 0 after the spike: the emitted score is the held peak
        assert!(next.score >= 0.9 * spike.score * 0.999, "hold must carry the peak");
        assert!(next.score < spike.score, "hold must decay");
        assert!(!next.is_anomaly, "the verdict must not be held");
    }

    /// A zero-variance history standardizes one deviating point to the
    /// ~1.3e154 sentinel. The point itself must still report it (legacy
    /// z semantics), but the peak-hold must NOT latch it — the held
    /// score is capped at `8n` and decays back below the alarm bar in
    /// a few hundred points, not tens of thousands.
    #[test]
    fn hold_does_not_latch_the_zero_variance_sentinel() {
        let cfg = ScoreConfig { hold_decay: 0.99, ..Default::default() };
        let mut s = ResidualScorer::new(5.0, cfg);
        s.seed(&[2.0; 50]); // zero-variance history
        let spike = s.update(3.0);
        assert!(spike.z > 1e100, "sentinel z expected, got {}", spike.z);
        assert!(spike.score > 1e100, "the deviating point itself reports the sentinel");
        // from the next point on, the held score is bounded by 8n = 40
        let next = s.update(2.0);
        assert!(next.score <= 40.0, "held score must be capped, got {}", next.score);
        let mut below_bar_at = None;
        for i in 0..1_000 {
            if s.update(2.0).score < 5.0 {
                below_bar_at = Some(i);
                break;
            }
        }
        let at = below_bar_at.expect("held score must decay below the alarm bar");
        assert!(at < 400, "decay should take ~200 points at γ=0.99, took {at}");
    }

    /// State round-trip: the restored scorer continues bit-identically.
    #[test]
    fn state_roundtrip_continues_bit_identically() {
        for fusion in [Fusion::Off, Fusion::Cusum, Fusion::Max] {
            let cfg = ScoreConfig { cusum_k: 0.3, cusum_h: 5.0, hold_decay: 0.97, fusion };
            let mut a = ResidualScorer::new(4.0, cfg);
            a.seed(&[0.1, -0.2, 0.3, -0.1, 0.05]);
            for i in 0..50 {
                a.update(0.4 * ((i % 7) as f64 - 3.0));
            }
            let mut b = ResidualScorer::from_state(a.to_state());
            assert_eq!(a.to_state(), b.to_state());
            for i in 0..50 {
                let x = if i == 20 { 9.0 } else { 0.3 * ((i % 5) as f64 - 2.0) };
                let (va, vb) = (a.update(x), b.update(x));
                assert_eq!(va, vb, "fusion {fusion:?} diverged at {i}");
                assert_eq!(va.score.to_bits(), vb.score.to_bits());
            }
        }
    }

    /// NaN input under a fused mode: non-anomalous verdict, state
    /// untouched (the running sums must not be poisoned).
    #[test]
    fn nan_input_is_guarded() {
        let mut s = fused(0.25, 6.0);
        s.seed(&[1.0, 2.0, 3.0, 2.0, 1.0]);
        for _ in 0..5 {
            s.update(2.5);
        }
        let before = s.to_state();
        for bad in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY] {
            let v = s.update(bad);
            assert!(v.score.is_finite());
            assert!(!v.is_anomaly);
        }
        assert_eq!(s.to_state(), before, "non-finite input must not change state");
        // and the stream continues normally afterwards
        let v = s.update(2.5);
        assert!(v.score.is_finite());
    }

    /// `Fusion::Off` is bit-identical to plain NSigma and never touches
    /// the CUSUM accumulators or the hold.
    #[test]
    fn fusion_off_matches_plain_nsigma_bitwise() {
        let mut s = ResidualScorer::new(5.0, ScoreConfig::off());
        let mut plain = NSigma::new(5.0);
        let xs: Vec<f64> = (0..300).map(|i| ((i * 31 % 17) as f64) * 0.37 - 3.0).collect();
        s.seed(&xs[..50]);
        plain.seed(&xs[..50]);
        for &x in &xs[50..] {
            let v = s.update(x);
            let p = plain.update(x);
            assert_eq!(v.score.to_bits(), p.score.to_bits());
            assert_eq!(v.is_anomaly, p.is_anomaly);
        }
        assert_eq!(s.cusum_state(), (0.0, 0.0));
        assert_eq!(s.to_state().cusum.hold, 0.0);
    }

    /// The spike path survives fusion: a single extreme point still ranks
    /// top via the z term of `Fusion::Max`.
    #[test]
    fn max_fusion_preserves_spike_sensitivity() {
        let mut s = fused(0.25, 6.0);
        let noise: Vec<f64> = (0..200).map(|i| ((i * 53 % 41) as f64 / 20.0) - 1.0).collect();
        s.seed(&noise);
        let sigma = s.nsigma().std();
        let v = s.update(8.0 * sigma);
        assert!(v.is_anomaly);
        assert!(v.score >= v.z, "fused score can only exceed the z-score");
        assert!(v.z > 5.0, "the alarm must be attributable to the spike z");
    }

    /// The lifetime alarm counters attribute alarms to the detector that
    /// raised them — and reset on state restore (diagnostics contract).
    #[test]
    fn alarm_counts_attribute_and_reset_on_restore() {
        let mut s = fused(0.25, 6.0);
        let noise: Vec<f64> = (0..200).map(|i| ((i * 37 % 100) as f64 / 50.0) - 1.0).collect();
        s.seed(&noise);
        let sigma = s.nsigma().std();
        assert_eq!(s.alarm_counts(), (0, 0));
        s.update(20.0 * sigma); // spike: z alarm (and the CUSUM may charge)
        let (z, _) = s.alarm_counts();
        assert_eq!(z, 1, "the spike must count as a z alarm");
        for _ in 0..60 {
            s.update(1.5 * sigma); // drift: CUSUM alarms, z never crosses
        }
        let (_, c) = s.alarm_counts();
        assert!(c >= 1, "the drift must count CUSUM alarms");
        let restored = ResidualScorer::from_state(s.to_state());
        assert_eq!(restored.alarm_counts(), (0, 0), "counters reset on restore");

        // Fusion::Off moves only the z counter
        let mut off = ResidualScorer::new(5.0, ScoreConfig::off());
        off.seed(&noise);
        let sigma = off.nsigma().std();
        off.update(20.0 * sigma);
        assert_eq!(off.alarm_counts(), (1, 0));
    }

    /// A level shift the residual scorer never sees: the trend absorbs
    /// the step, and the trend-innovation CUSUM catches the run of
    /// same-signed innovations.
    #[test]
    fn trend_cusum_catches_a_level_shift_in_the_trend() {
        let mut t = TrendCusum::new(5.0, ScoreConfig::default());
        // steady trend drifting by small noisy innovations
        let drift = |i: usize| 10.0 + 0.01 * (((i * 37) % 100) as f64 / 50.0 - 1.0);
        let trends: Vec<f64> = (0..120).map(drift).collect();
        t.seed(&trends[..60]);
        let mut alarmed = false;
        for (i, &v) in trends[60..].iter().enumerate() {
            // after 20 normal points, the trend walks up a level shift
            // of +0.05/point for the rest of the stream (an adaptive
            // trend chasing a +step in the raw series)
            let shifted = if i >= 20 { v + 0.05 * (i - 19) as f64 } else { v };
            if t.update(shifted).is_anomaly {
                alarmed = true;
                assert!(i >= 20, "must not alarm before the shift (alarmed at {i})");
                break;
            }
        }
        assert!(alarmed, "a sustained trend walk must trip the innovation CUSUM");
    }

    /// Unseeded warm-up: the first innovations calibrate silently — zero
    /// scores, no alarms, no sentinel z values.
    #[test]
    fn trend_cusum_warmup_is_silent() {
        let mut t = TrendCusum::new(5.0, ScoreConfig::default());
        for i in 0..=16 {
            let v = t.update(5.0 + 0.3 * ((i % 5) as f64 - 2.0));
            assert_eq!(v.score, 0.0, "warm-up point {i} must score zero");
            assert!(!v.is_anomaly);
        }
        assert_eq!(t.alarm_counts(), (0, 0));
        // post-warm-up, a normal innovation scores finitely and calmly
        let v = t.update(5.0);
        assert!(v.score.is_finite());
    }

    /// Non-finite trend input: state untouched, and the next finite
    /// point differences against the last trusted value.
    #[test]
    fn trend_cusum_guards_non_finite_input() {
        let mut t = TrendCusum::new(5.0, ScoreConfig::default());
        let trends: Vec<f64> = (0..40).map(|i| 2.0 + 0.1 * ((i % 7) as f64 - 3.0)).collect();
        t.seed(&trends);
        for _ in 0..10 {
            t.update(2.0);
        }
        let before = t.to_state();
        for bad in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY] {
            let v = t.update(bad);
            assert!(!v.is_anomaly);
            assert!(v.score.is_finite());
        }
        assert_eq!(t.to_state(), before, "non-finite input must not change state");
        let v = t.update(2.05);
        assert!(v.score.is_finite());
    }

    /// State round-trip: the restored trend CUSUM continues
    /// bit-identically, mid-warm-up and post-warm-up alike.
    #[test]
    fn trend_cusum_state_roundtrip_continues_bit_identically() {
        for snap_at in [5usize, 40] {
            let mut a = TrendCusum::new(4.0, ScoreConfig::default());
            let stream = |i: usize| {
                let base = 1.0 + 0.2 * ((i * 13 % 11) as f64 - 5.0) / 5.0;
                if (30..45).contains(&i) {
                    base + 0.8 * (i - 29) as f64
                } else {
                    base
                }
            };
            for i in 0..snap_at {
                a.update(stream(i));
            }
            let mut b = TrendCusum::from_state(a.to_state());
            assert_eq!(a.to_state(), b.to_state());
            for i in snap_at..80 {
                let (va, vb) = (a.update(stream(i)), b.update(stream(i)));
                assert_eq!(va, vb, "diverged at {i} (snap at {snap_at})");
                assert_eq!(va.score.to_bits(), vb.score.to_bits());
            }
            let restored = TrendCusum::from_state(a.to_state());
            assert_eq!(restored.alarm_counts(), (0, 0), "counters reset on restore");
        }
    }

    #[test]
    fn config_validation() {
        assert!(ScoreConfig::default().validate().is_ok());
        assert!(ScoreConfig::off().validate().is_ok());
        let bad_h = ScoreConfig { cusum_h: 0.0, ..Default::default() };
        assert!(bad_h.validate().is_err());
        let nan_h = ScoreConfig { cusum_h: f64::NAN, ..Default::default() };
        assert!(nan_h.validate().is_err());
        let neg_k = ScoreConfig { cusum_k: -0.1, ..Default::default() };
        assert!(neg_k.validate().is_err());
        let zero_k = ScoreConfig { cusum_k: 0.0, ..Default::default() };
        assert!(zero_k.validate().is_ok());
        let hold_one = ScoreConfig { hold_decay: 1.0, ..Default::default() };
        assert!(hold_one.validate().is_err());
        let hold_nan = ScoreConfig { hold_decay: f64::NAN, ..Default::default() };
        assert!(hold_nan.validate().is_err());
    }
}
