//! Engine configuration, including per-series admission-time overrides.

use crate::backend::BackendSelect;
use oneshotstl::{OneShotStlConfig, ScoreConfig, ShiftPrune};

/// How the seasonal period of an incoming series is determined.
#[derive(Debug, Clone, PartialEq)]
pub enum PeriodPolicy {
    /// Every series uses this period (no detection).
    Fixed(usize),
    /// Detect the period from the warm-up buffer with the ACF detector
    /// (`tskit::period::detect_period`).
    Detect {
        /// Smallest admissible period (≥ 2).
        min_period: usize,
        /// Largest admissible period.
        max_period: usize,
        /// Minimum ACF peak for a detection to count.
        min_acf: f64,
        /// Period to assume when the warm-up cap is reached without a
        /// detection; `None` rejects the series instead.
        fallback: Option<usize>,
    },
}

impl PeriodPolicy {
    /// The default detector: periods in `[4, 512]`, modest ACF bar, and a
    /// `find_length`-style fallback of 125.
    pub fn detect_default() -> Self {
        PeriodPolicy::Detect {
            min_period: 4,
            max_period: 512,
            min_acf: 0.1,
            fallback: Some(125),
        }
    }
}

/// Per-series multi-horizon forecasting (paper §5): the damped-trend
/// STD→TSF rule `ŷ(t+h) = τ(t) + slope·Σφ^j + v[(t+Δ+h) mod T]` evaluated
/// on each live detector's decomposition.
///
/// Disabled by default. With `enabled`, every series admitted from then on
/// carries a forecast head, and the head is its damping `φ`: `τ`, the
/// seasonal buffer and the trend slope already live in (and snapshot with)
/// the decomposer, so the head adds no per-point work and one `f64` of
/// state. A series without a head answers forecasts with the plain
/// seasonal carry-forward.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ForecastOptions {
    /// Attach a forecast head to series at admission.
    pub enabled: bool,
    /// Damping factor `φ ∈ [0, 1]` of the trend extrapolation: `1.0` is
    /// the paper's linear `slope·h`, `0.0` pure carry-forward.
    pub damping: f64,
}

impl Default for ForecastOptions {
    fn default() -> Self {
        ForecastOptions { enabled: false, damping: 1.0 }
    }
}

impl ForecastOptions {
    /// Forecasting on with the default damping.
    pub fn on() -> Self {
        ForecastOptions { enabled: true, ..Default::default() }
    }

    /// Validates the options, returning a message for the first problem.
    pub fn validate(&self) -> Result<(), String> {
        if !((0.0..=1.0).contains(&self.damping) && self.damping.is_finite()) {
            return Err(format!("forecast damping must be in [0, 1], got {}", self.damping));
        }
        Ok(())
    }
}

/// Per-series overrides of the engine-wide [`FleetConfig`], applied on
/// the warm-up/admission path (see
/// [`crate::FleetEngine::set_admit_options`]).
///
/// Every field is optional; `None` inherits the engine config. Overrides
/// are registered while a series is unknown or still warming and are
/// **baked into the detector at promotion** — a live series' tuning
/// travels inside its detector state from then on (and through snapshots,
/// which encode per-series detector configs). Overrides registered on a
/// still-warming series are themselves persisted by snapshots, so a
/// restore mid-warm-up admits with the same tuning. TTL eviction
/// removes the series entirely, overrides included.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct AdmitOptions {
    /// Trend penalty λ: overrides *both* λ1 and λ2 (the paper ties and
    /// tunes them together).
    pub lambda: Option<f64>,
    /// NSigma threshold `n`, applied to both the detector's §3.4
    /// shift-search trigger and the task-level anomaly verdict.
    pub nsigma: Option<f64>,
    /// Declared seasonal period for this series, overriding the engine's
    /// [`PeriodPolicy`] (skips ACF detection entirely).
    pub period: Option<usize>,
    /// §3.4 shift-search override (stage-1 candidate pruning).
    pub shift_search: Option<ShiftPrune>,
    /// Residual scoring override (CUSUM fusion; see
    /// [`oneshotstl::score`]) for the task-level verdict.
    pub score: Option<ScoreConfig>,
    /// Forecasting override: enable/disable or re-tune the forecast head
    /// for this series (see [`ForecastOptions`]).
    pub forecast: Option<ForecastOptions>,
    /// Detection-backend override: run the trend-innovation CUSUM alone
    /// or as an ensemble with the fused residual scorer for this series
    /// (see [`BackendSelect`]).
    pub backend: Option<BackendSelect>,
}

impl AdmitOptions {
    /// True when every field inherits the engine config.
    pub fn is_default(&self) -> bool {
        *self == AdmitOptions::default()
    }

    /// The detector configuration a series admitted under these options
    /// uses.
    pub fn detector_config(&self, base: &FleetConfig) -> OneShotStlConfig {
        let mut cfg = base.detector.clone();
        if let Some(l) = self.lambda {
            cfg.lambdas.lambda1 = l;
            cfg.lambdas.lambda2 = l;
        }
        if let Some(n) = self.nsigma {
            cfg.nsigma = n;
        }
        if let Some(ss) = self.shift_search {
            cfg.shift_search = ss;
        }
        cfg
    }

    /// The task-level NSigma threshold for the anomaly verdict.
    pub fn task_nsigma(&self, base: &FleetConfig) -> f64 {
        self.nsigma.unwrap_or(base.nsigma)
    }

    /// The residual scoring configuration for the task-level verdict.
    pub fn task_score(&self, base: &FleetConfig) -> ScoreConfig {
        self.score.unwrap_or(base.score)
    }

    /// The forecasting configuration for a series admitted under these
    /// options.
    pub fn task_forecast(&self, base: &FleetConfig) -> ForecastOptions {
        self.forecast.unwrap_or(base.forecast)
    }

    /// The detection backend a series admitted under these options runs.
    pub fn task_backend(&self, base: &FleetConfig) -> BackendSelect {
        self.backend.unwrap_or(base.backend)
    }

    /// Validates the overrides (mirrors [`FleetConfig::validate`]).
    pub fn validate(&self) -> Result<(), String> {
        if let Some(t) = self.period {
            if t < 2 {
                return Err(format!("override period must be >= 2, got {t}"));
            }
        }
        if let Some(l) = self.lambda {
            if !(l.is_finite() && l > 0.0) {
                return Err(format!("override lambda must be finite and > 0, got {l}"));
            }
        }
        if let Some(n) = self.nsigma {
            if !(n.is_finite() && n > 0.0) {
                return Err(format!("override nsigma must be finite and > 0, got {n}"));
            }
        }
        if let Some(ss) = self.shift_search {
            validate_shift_search(ss)?;
        }
        if let Some(sc) = self.score {
            sc.validate()?;
        }
        if let Some(f) = self.forecast {
            f.validate()?;
        }
        if let Some(b) = self.backend {
            b.validate()?;
        }
        Ok(())
    }
}

/// `TopK(0)` would run the shift search with zero candidates — every
/// flagged point silently keeps Δt = 0, which reads like a tuned search
/// but never adopts a genuine shift. Reject it at the fleet boundary; a
/// caller who wants the search off should set the detector's
/// `shift_window` to 0 and skip it wholesale.
fn validate_shift_search(ss: ShiftPrune) -> Result<(), String> {
    if ss == ShiftPrune::TopK(0) {
        return Err(
            "shift_search TopK(0) never adopts a shift; use shift_window: 0 to disable \
             the search instead"
                .into(),
        );
    }
    Ok(())
}

/// What a full bounded shard queue does to a new batch submission.
///
/// Only meaningful with [`FleetConfig::queue_capacity`] set; with
/// unbounded queues the policy is never consulted. See the crate docs'
/// backpressure section for how capacity is accounted.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum QueuePolicy {
    /// The submitting thread blocks until the shard drains a slot. Ingest
    /// never fails from load, but a slow shard stalls the caller — the
    /// natural choice when the caller *is* the load source and slowing it
    /// down is the point of backpressure.
    #[default]
    Block,
    /// Submission fails fast with [`crate::FleetError::Backpressure`] and
    /// the batch is not applied (not even partially) — the choice when the
    /// caller would rather shed load (drop, spill, or retry elsewhere)
    /// than stall.
    Reject,
}

/// Configuration of a [`crate::FleetEngine`].
#[derive(Debug, Clone, PartialEq)]
pub struct FleetConfig {
    /// Worker shards (threads). Keys are routed by stable hash.
    pub shards: usize,
    /// Period determination policy. It also bounds warm-up buffering:
    /// see [`FleetConfig::warmup_cap`].
    pub period: PeriodPolicy,
    /// NSigma threshold for the per-series anomaly verdict.
    pub nsigma: f64,
    /// Evict series idle for more than this many clock ticks (record `t`
    /// units). `None` disables TTL eviction.
    pub ttl: Option<u64>,
    /// Upper bound on how far one record may advance the engine clock
    /// (record `t` units). With untrusted producers, a single absurd
    /// timestamp would otherwise jump the clock and the next TTL sweep
    /// would evict the entire fleet; a bound keeps the clock moving at
    /// most `max_clock_step` per record. `None` trusts timestamps fully.
    pub max_clock_step: Option<u64>,
    /// Bound on each shard's request queue, in messages (one ingested
    /// batch, stats poll, or eviction sweep = one message). `None` leaves
    /// the queues unbounded — fine for the synchronous [`ingest`] loop,
    /// which never keeps more than one batch in flight, but the pipelined
    /// [`submit`] path can outrun a slow shard without a bound.
    ///
    /// [`ingest`]: crate::FleetEngine::ingest
    /// [`submit`]: crate::FleetEngine::submit
    pub queue_capacity: Option<usize>,
    /// What happens when a bounded queue is full (see [`QueuePolicy`]).
    pub queue_policy: QueuePolicy,
    /// Decomposer configuration for admitted series. The default is the
    /// paper's §5.1.4 configuration with `iters: 6` IRLS iterations
    /// instead of its 8: per-point decomposition cost and per-series state
    /// scale with `iters`, and 6 costs at most 0.5% VUS-ROC on the TSAD
    /// families and at most 2% forecast MAE at any horizon against 8
    /// (`tsad_ablation`, `forecast_bench`; 5 misses the MAE bar). The
    /// single-stream [`OneShotStlConfig::default`] keeps 8. Each series
    /// carries its own detector config through snapshots, the WAL and the
    /// cold tier, so a series admitted under another `iters` keeps it.
    pub detector: OneShotStlConfig,
    /// Residual scoring configuration for the task-level verdict
    /// (persistence-aware CUSUM fusion; [`ScoreConfig::off`] is the
    /// paper's plain instantaneous z-score, bit-identically).
    pub score: ScoreConfig,
    /// Per-series forecasting (the §5 damped-trend rule). Disabled by
    /// default; series admitted while enabled carry their head's damping
    /// through snapshots and crash recovery.
    pub forecast: ForecastOptions,
    /// Detection backend for admitted series ([`BackendSelect::Fused`]
    /// by default — the plain fused-scorer pipeline with no extra
    /// state). Series admitted under another selection carry their
    /// backend state through snapshots and crash recovery.
    pub backend: BackendSelect,
    /// Spill series idle for more than this many clock ticks to the
    /// on-disk cold tier. The cold tier exists on a durable engine only
    /// ([`crate::FleetEngine::create`]/[`crate::FleetEngine::open`], under
    /// `<dir>/cold`); a plain engine spills nothing. Distinct from [`ttl`]:
    /// a spilled series is *not* gone — its next point rehydrates it
    /// bit-identically through the normal shard path — whereas TTL
    /// eviction forgets it entirely. When both are set, `spill_after`
    /// must be strictly smaller than `ttl`. `None` disables spilling.
    ///
    /// [`ttl`]: FleetConfig::ttl
    pub spill_after: Option<u64>,
}

impl Default for FleetConfig {
    fn default() -> Self {
        FleetConfig {
            shards: 4,
            period: PeriodPolicy::detect_default(),
            nsigma: 5.0,
            ttl: None,
            max_clock_step: None,
            queue_capacity: None,
            queue_policy: QueuePolicy::default(),
            detector: OneShotStlConfig { iters: 6, ..OneShotStlConfig::default() },
            score: ScoreConfig::default(),
            forecast: ForecastOptions::default(),
            backend: BackendSelect::default(),
            spill_after: None,
        }
    }
}

impl FleetConfig {
    /// A fixed-period config — the common case when the tenant declares
    /// its metric resolution up front.
    pub fn fixed_period(period: usize) -> Self {
        FleetConfig { period: PeriodPolicy::Fixed(period), ..Default::default() }
    }

    /// Admission length for a known period `T`: three cycles, `3·T`,
    /// which clears OneShotSTL's `≥ 2T + 1` initialization window.
    pub fn init_len(&self, period: usize) -> usize {
        3 * period
    }

    /// The warm-up cap: [`Self::init_len`] of the longest period the
    /// policy can admit. Reaching it without a usable period rejects the
    /// series (or admits it under the policy's fallback period).
    pub fn warmup_cap(&self) -> usize {
        match &self.period {
            PeriodPolicy::Fixed(t) => self.init_len(*t),
            PeriodPolicy::Detect { max_period, .. } => self.init_len(*max_period),
        }
    }

    /// Validates the configuration, returning a message for the first
    /// problem found.
    pub fn validate(&self) -> Result<(), String> {
        if self.shards == 0 {
            return Err("shards must be >= 1".into());
        }
        match &self.period {
            PeriodPolicy::Fixed(t) if *t < 2 => {
                return Err(format!("fixed period must be >= 2, got {t}"));
            }
            PeriodPolicy::Detect { min_period, max_period, fallback, .. } => {
                if *min_period < 2 || max_period <= min_period {
                    return Err(format!(
                        "detect range must satisfy 2 <= min < max, got [{min_period}, {max_period}]"
                    ));
                }
                if let Some(f) = fallback {
                    if *f < 2 {
                        return Err(format!("fallback period must be >= 2, got {f}"));
                    }
                }
            }
            PeriodPolicy::Fixed(_) => {}
        }
        if self.max_clock_step == Some(0) {
            return Err("max_clock_step must be >= 1 (or None)".into());
        }
        if self.queue_capacity == Some(0) {
            return Err("queue_capacity must be >= 1 (or None for unbounded)".into());
        }
        if self.spill_after == Some(0) {
            return Err("spill_after must be >= 1 (or None to disable spilling)".into());
        }
        if let (Some(spill), Some(ttl)) = (self.spill_after, self.ttl) {
            if spill >= ttl {
                return Err(format!(
                    "spill_after ({spill}) must be < ttl ({ttl}): a series must go cold \
                     before it is forgotten"
                ));
            }
        }
        validate_shift_search(self.detector.shift_search)?;
        self.score.validate()?;
        self.forecast.validate()?;
        self.backend.validate()?;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_config_is_valid() {
        assert_eq!(FleetConfig::default().validate(), Ok(()));
        assert_eq!(FleetConfig::fixed_period(24).validate(), Ok(()));
    }

    /// The fleet runs 6 IRLS iterations, the single-stream decomposer the
    /// paper's 8 (§5.1.4). Per-point decomposition cost and per-series
    /// state scale with the count; against 8, 6 costs at most 0.5%
    /// VUS-ROC on the TSAD families and 2% forecast MAE at any horizon,
    /// while 5 misses the MAE bar on the full `forecast_bench` run. The
    /// paper binaries and the golden fixtures stay at 8.
    #[test]
    fn the_fleet_runs_six_irls_iterations_and_the_core_keeps_eight() {
        assert_eq!(FleetConfig::default().detector.iters, 6);
        assert_eq!(FleetConfig::fixed_period(24).detector.iters, 6);
        assert_eq!(OneShotStlConfig::default().iters, 8);
        let paper = OneShotStlConfig::default();
        assert_eq!(FleetConfig::default().detector, OneShotStlConfig { iters: 6, ..paper });
    }

    #[test]
    fn init_len_honours_oneshotstl_minimum() {
        let cfg = FleetConfig::default();
        assert_eq!(cfg.init_len(24), 72);
        // three cycles clear the 2T+1 window even at the smallest period
        assert!((2..64).all(|t| cfg.init_len(t) > 2 * t));
        assert_eq!(cfg.init_len(2), 6);
    }

    #[test]
    fn invalid_configs_are_caught() {
        assert!(FleetConfig { shards: 0, ..Default::default() }.validate().is_err());
        assert!(FleetConfig::fixed_period(1).validate().is_err());
        let bad_detect = FleetConfig {
            period: PeriodPolicy::Detect {
                min_period: 10,
                max_period: 10,
                min_acf: 0.1,
                fallback: None,
            },
            ..Default::default()
        };
        assert!(bad_detect.validate().is_err());
        let zero_queue = FleetConfig { queue_capacity: Some(0), ..Default::default() };
        assert!(zero_queue.validate().is_err());
        let bounded = FleetConfig {
            queue_capacity: Some(8),
            queue_policy: QueuePolicy::Reject,
            ..Default::default()
        };
        assert_eq!(bounded.validate(), Ok(()));
    }

    #[test]
    fn degenerate_spill_configs_are_rejected() {
        let zero = FleetConfig { spill_after: Some(0), ..Default::default() };
        assert!(zero.validate().is_err());
        let inverted =
            FleetConfig { spill_after: Some(500), ttl: Some(500), ..Default::default() };
        assert!(inverted.validate().is_err());
        let ok = FleetConfig { spill_after: Some(200), ttl: Some(500), ..Default::default() };
        assert_eq!(ok.validate(), Ok(()));
        let no_ttl = FleetConfig { spill_after: Some(200), ..Default::default() };
        assert_eq!(no_ttl.validate(), Ok(()));
    }

    #[test]
    fn degenerate_score_config_is_rejected() {
        // engine-wide scoring config…
        let mut cfg = FleetConfig::default();
        cfg.score.cusum_h = 0.0;
        assert!(cfg.validate().is_err());
        // …and per-series overrides
        let opts = AdmitOptions {
            score: Some(ScoreConfig { hold_decay: 1.5, ..Default::default() }),
            ..Default::default()
        };
        assert!(opts.validate().is_err());
        let ok = AdmitOptions { score: Some(ScoreConfig::off()), ..Default::default() };
        assert_eq!(ok.validate(), Ok(()));
    }

    #[test]
    fn degenerate_forecast_options_are_rejected() {
        // engine-wide forecast config…
        let mut cfg = FleetConfig::default();
        cfg.forecast.damping = 1.5;
        assert!(cfg.validate().is_err());
        cfg.forecast.damping = f64::NAN;
        assert!(cfg.validate().is_err());
        // …and per-series overrides
        for damping in [-0.1, 1.5, f64::INFINITY] {
            let bad = ForecastOptions { damping, ..ForecastOptions::on() };
            let opts = AdmitOptions { forecast: Some(bad), ..Default::default() };
            assert!(opts.validate().is_err(), "{bad:?} must be rejected");
        }
        let ok = AdmitOptions { forecast: Some(ForecastOptions::on()), ..Default::default() };
        assert_eq!(ok.validate(), Ok(()));
    }

    #[test]
    fn degenerate_backend_selections_are_rejected() {
        let bad = ScoreConfig { cusum_h: f64::NAN, ..Default::default() };
        // engine-wide backend config…
        let mut cfg =
            FleetConfig { backend: BackendSelect::TrendCusum(bad), ..Default::default() };
        assert!(cfg.validate().is_err());
        cfg.backend = BackendSelect::Ensemble(bad);
        assert!(cfg.validate().is_err());
        cfg.backend = BackendSelect::Ensemble(ScoreConfig::default());
        assert_eq!(cfg.validate(), Ok(()));
        // …and per-series overrides
        let opts =
            AdmitOptions { backend: Some(BackendSelect::Ensemble(bad)), ..Default::default() };
        assert!(opts.validate().is_err());
        let ok = AdmitOptions {
            backend: Some(BackendSelect::TrendCusum(ScoreConfig::default())),
            ..Default::default()
        };
        assert_eq!(ok.validate(), Ok(()));
    }

    #[test]
    fn degenerate_top_k_zero_is_rejected() {
        // engine-wide detector config…
        let mut cfg = FleetConfig::default();
        cfg.detector.shift_search = ShiftPrune::TopK(0);
        assert!(cfg.validate().is_err());
        // …and per-series overrides
        let opts =
            AdmitOptions { shift_search: Some(ShiftPrune::TopK(0)), ..Default::default() };
        assert!(opts.validate().is_err());
        let ok = AdmitOptions { shift_search: Some(ShiftPrune::TopK(1)), ..Default::default() };
        assert_eq!(ok.validate(), Ok(()));
    }
}
