//! Per-series state machine: warm-up buffering → admission → live scoring.
//!
//! Every transition here is a deterministic function of the value stream
//! and the config — no clocks, no randomness. That property is what the
//! durability layer leans on: [`crate::persist`] replays raw WAL points
//! through this same state machine and reaches the identical phase
//! (including detection back-off bookkeeping and admission points), and
//! [`crate::codec`] writes any mid-phase state as it is, bit-exactly:
//! a [`SeriesState`] is its own snapshot.

use crate::backend::SeriesBackend;
use crate::config::{AdmitOptions, FleetConfig, PeriodPolicy};
use crate::types::PointOutput;
use decomp::StlPlans;
use oneshotstl::{
    IncrementalSolver, OneShotStl, OneShotStlConfig, ScoreVerdict, StdAnomalyDetector,
    UpdateScratch,
};
use std::sync::Arc;
use tskit::error::TsError;
use tskit::period::detect_period;
use tskit::series::DecompPoint;

/// What the series of one shard share instead of each holding a copy.
#[derive(Debug)]
pub struct Shared {
    /// The trial scratch of every live update (see
    /// [`oneshotstl::UpdateScratch`]): one hot buffer per worker thread,
    /// none in any series.
    pub scratch: UpdateScratch<IncrementalSolver>,
    /// The engine's [`FleetConfig::detector`]. Every series whose
    /// detector config equals it holds this `Arc`, not a copy.
    pub detector: Arc<OneShotStlConfig>,
    /// The LOESS plans of every admission's STL initialization, built at
    /// the first admission and kept while the window length and period
    /// stay the same.
    pub plans: StlPlans,
}

impl Shared {
    /// An empty scratch and `config`'s detector config.
    pub fn new(config: &FleetConfig) -> Self {
        Shared {
            scratch: UpdateScratch::default(),
            detector: Arc::new(config.detector.clone()),
            plans: StlPlans::default(),
        }
    }
}

/// `own` behind an `Arc`: `shared` itself when the two are equal bit for
/// bit ([`OneShotStlConfig::bit_eq`]), so a series tuned like the engine
/// allocates nothing for its config, else a new `Arc` of its own.
pub(crate) fn share_or_own(
    shared: &Arc<OneShotStlConfig>,
    own: OneShotStlConfig,
) -> Arc<OneShotStlConfig> {
    if own.bit_eq(shared) {
        Arc::clone(shared)
    } else {
        Arc::new(own)
    }
}

/// One registered series: either buffering toward admission or live.
// the Live variant (288 B) sets the size on purpose: almost every registry
// entry is live at steady state, so boxing it would only add a pointer
// chase to the hot scoring path
#[derive(Debug, Clone)]
pub enum SeriesState {
    /// Accumulating raw points until `init_len = 3·T` arrive.
    Warming(Warmup),
    /// Admitted: a live detector scores every point.
    Live(LiveSeries),
    /// Warm-up overflowed without a usable period; points are dropped
    /// until TTL eviction clears the tombstone.
    Rejected,
    /// The series' update panicked or produced non-finite state: its
    /// detector state is gone (it was unrecoverable garbage) and points
    /// are dropped and counted until the key is re-admitted (via
    /// [`crate::FleetEngine::set_admit_options`]) or TTL-evicted.
    Quarantined {
        /// What put the series here.
        cause: QuarantineCause,
        /// Points dropped since quarantine.
        dropped: u64,
    },
}

/// Why a series was quarantined (see [`SeriesState::Quarantined`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum QuarantineCause {
    /// The update produced a non-finite trend/seasonal/residual split —
    /// the decomposer state is numerically wrecked and every further
    /// update would compound it.
    NonFinite,
    /// The update panicked (caught at the per-series `catch_unwind`
    /// boundary in the shard worker); the state may be torn mid-update.
    Panic,
}

/// Warm-up buffer of a not-yet-admitted series.
#[derive(Debug, Clone)]
pub struct Warmup {
    /// Raw values in arrival order.
    pub values: Vec<f64>,
    /// Detected or declared period (`None` until known).
    pub period: Option<usize>,
    /// Buffer length at the last detection attempt (restored with the
    /// buffer, so a decoded series attempts detection at the same buffer
    /// lengths the uninterrupted one would have).
    pub last_attempt: usize,
    /// Pending per-series overrides, baked into the detector at
    /// promotion.
    pub overrides: AdmitOptions,
}

/// A live (admitted) series.
#[derive(Debug, Clone)]
pub struct LiveSeries {
    /// The scoring pipeline: OneShotSTL + persistence-aware residual
    /// scorer (NSigma z-score fused with CUSUM; see `oneshotstl::score`).
    pub detector: StdAnomalyDetector<OneShotStl>,
    /// The forecast head, which is its damping `φ` (`None` when the
    /// series admitted with forecasting disabled — the common case). The
    /// head reads the decomposer's state when asked and does no per-point
    /// work.
    pub forecast: Option<f64>,
    /// The detection backend running on top of (or instead of) the fused
    /// scorer's verdict (`None` under [`crate::BackendSelect::Fused`] —
    /// the common case, costing nothing on the scoring path and 8 bytes
    /// in the entry).
    pub backend: Option<Box<SeriesBackend>>,
}

/// What processing one point did to a series.
pub enum StepOutcome {
    /// Output for the ingested point.
    Output(PointOutput),
    /// The point completed warm-up: the series was promoted (the point is
    /// part of the initialization window). Carries the admission output.
    Promoted(PointOutput),
}

impl Warmup {
    /// An empty warm-up buffer under `config`'s period policy.
    pub fn new(config: &FleetConfig) -> Self {
        Warmup::with_overrides(config, AdmitOptions::default())
    }

    /// An empty warm-up buffer with per-series overrides attached. An
    /// override period takes precedence over the engine period policy
    /// (declared or detecting). With the period known up front, the buffer
    /// is sized for admission at once (one allocation, no growth).
    pub fn with_overrides(config: &FleetConfig, overrides: AdmitOptions) -> Self {
        let period = declared_period(config, overrides);
        let values = period.map_or_else(Vec::new, |t| Vec::with_capacity(config.init_len(t)));
        Warmup { values, period, last_attempt: 0, overrides }
    }

    /// Replaces the pending override set, recomputing the period
    /// preference: the new override period, else the engine's declared
    /// period; under [`PeriodPolicy::Detect`] a previously known
    /// (detected or overridden) period is kept. `declared_period` is the
    /// **single** home of the rule — the codec's warm-up decoder and a
    /// restore (`SeriesState::rehome`) derive the same order, so a live
    /// warm-up and its restored twin can never admit under different
    /// periods.
    pub fn replace_overrides(&mut self, config: &FleetConfig, opts: AdmitOptions) {
        self.overrides = opts;
        self.period = declared_period(config, opts).or(self.period);
    }

    /// Points needed for admission, when the period is known.
    pub fn needed(&self, config: &FleetConfig) -> Option<usize> {
        self.period.map(|t| config.init_len(t))
    }

    /// Attempts ACF period detection on the buffer. Detection is
    /// `O(n·max_period)`, so attempts back off geometrically (the buffer
    /// must grow by ~25% between attempts) — total warm-up detection cost
    /// stays `O(n·max_period)` instead of quadratic.
    fn try_detect(&mut self, config: &FleetConfig) {
        let PeriodPolicy::Detect { min_period, .. } = &config.period else {
            return;
        };
        let n = self.values.len();
        let step = (self.last_attempt / 4).max(*min_period);
        if n < 3 * *min_period || n < self.last_attempt + step {
            return;
        }
        self.force_detect(config);
    }

    /// One detection attempt right now, ignoring the back-off schedule
    /// (used as the last chance when the warm-up cap is reached).
    fn force_detect(&mut self, config: &FleetConfig) {
        let PeriodPolicy::Detect { min_period, max_period, min_acf, .. } = &config.period
        else {
            return;
        };
        let n = self.values.len();
        if n < 3 * *min_period {
            return;
        }
        self.last_attempt = n;
        self.period = detect_period(&self.values, *min_period, *max_period, *min_acf);
    }
}

/// The period a warm-up starts from: the override period, else the
/// engine's declared ([`PeriodPolicy::Fixed`]) one; `None` under
/// [`PeriodPolicy::Detect`] without an override. Both override kinds win
/// over a detected (or decoded) period.
pub(crate) fn declared_period(config: &FleetConfig, overrides: AdmitOptions) -> Option<usize> {
    overrides.period.or(match &config.period {
        PeriodPolicy::Fixed(t) => Some(*t),
        PeriodPolicy::Detect { .. } => None,
    })
}

impl SeriesState {
    /// A fresh series in the warming phase.
    pub fn new(config: &FleetConfig) -> Self {
        SeriesState::Warming(Warmup::new(config))
    }

    /// A fresh series in the warming phase with per-series overrides.
    pub fn with_overrides(config: &FleetConfig, overrides: AdmitOptions) -> Self {
        SeriesState::Warming(Warmup::with_overrides(config, overrides))
    }

    /// Processes one arriving value. `shared` is the caller's (typically
    /// per-shard) trial scratch and shared detector config.
    pub fn step(
        &mut self,
        value: f64,
        config: &FleetConfig,
        shared: &mut Shared,
    ) -> StepOutcome {
        match self {
            SeriesState::Rejected => StepOutcome::Output(PointOutput::Rejected),
            SeriesState::Quarantined { dropped, .. } => {
                *dropped += 1;
                StepOutcome::Output(PointOutput::Quarantined)
            }
            SeriesState::Live(live) => {
                // the detector's own NSigma owns the threshold rule
                let (point, verdict) =
                    live.detector.update_scored_with(value, &mut shared.scratch);
                self.finish_live(point, verdict)
            }
            SeriesState::Warming(w) => {
                // impute non-finite values with the last buffered one (or
                // drop a leading one): a single NaN must not poison the
                // initialization window — post-admission updates impute
                // the same way
                if value.is_finite() {
                    w.values.push(value);
                } else if let Some(&last) = w.values.last() {
                    w.values.push(last);
                } else {
                    return StepOutcome::Output(PointOutput::Warming {
                        buffered: 0,
                        needed: w.needed(config),
                    });
                }
                if w.period.is_none() {
                    w.try_detect(config);
                }
                let buffered = w.values.len();
                if let Some(t) = w.period {
                    if buffered >= config.init_len(t) {
                        return self.promote(t, config, shared);
                    }
                    // period known: keep buffering toward init_len even
                    // past the cap (growth stays bounded by
                    // init_len(max_period))
                } else if buffered >= config.warmup_cap() {
                    // cap reached without a period: one forced (back-off
                    // bypassing) detection attempt before deciding; a
                    // detected T is at most max_period, whose init_len is
                    // the cap, so it admits at once
                    if buffered == config.warmup_cap() {
                        w.force_detect(config);
                    }
                    if let Some(t) = w.period {
                        return self.promote(t, config, shared);
                    }
                    let fallback = match &config.period {
                        PeriodPolicy::Detect { fallback, .. } => *fallback,
                        PeriodPolicy::Fixed(t) => Some(*t),
                    };
                    match fallback {
                        // admit under the fallback period only once enough
                        // points for it are buffered (a fallback above
                        // max_period needs more than the cap)
                        Some(t) if buffered >= config.init_len(t) => {
                            return self.promote(t, config, shared);
                        }
                        Some(_) => {}
                        None => {
                            *self = SeriesState::Rejected;
                            return StepOutcome::Output(PointOutput::Rejected);
                        }
                    }
                }
                StepOutcome::Output(PointOutput::Warming { buffered, needed: w.needed(config) })
            }
        }
    }

    /// Processes one arriving value for each of two live series as one
    /// pair: their decomposers step through one paired kernel call
    /// ([`StdAnomalyDetector::update_scored_pair_with`]), then each series
    /// finishes on its own (non-finite quarantine, backend dispatch).
    /// Outcomes are those of [`SeriesState::step`] on each series in turn,
    /// bit for bit. `None`, with nothing stepped, when either series is
    /// not live.
    pub fn step_pair(
        [a, b]: [&mut SeriesState; 2],
        values: [f64; 2],
        shared: &mut Shared,
    ) -> Option<[StepOutcome; 2]> {
        let (SeriesState::Live(la), SeriesState::Live(lb)) = (&mut *a, &mut *b) else {
            return None;
        };
        let [(pa, va), (pb, vb)] = StdAnomalyDetector::update_scored_pair_with(
            [&mut la.detector, &mut lb.detector],
            values,
            &mut shared.scratch,
        );
        Some([a.finish_live(pa, va), b.finish_live(pb, vb)])
    }

    /// The tail of a live update once the detector has stepped.
    fn finish_live(&mut self, point: DecompPoint, verdict: ScoreVerdict) -> StepOutcome {
        // a non-finite decomposition means the detector state is
        // numerically wrecked (warm-up imputes non-finite inputs, so this
        // is state corruption, not a bad input): quarantine the series
        // instead of letting every later score be NaN
        if !point.trend.is_finite()
            || !point.seasonal.is_finite()
            || !point.residual.is_finite()
        {
            *self = SeriesState::Quarantined { cause: QuarantineCause::NonFinite, dropped: 1 };
            return StepOutcome::Output(PointOutput::Quarantined);
        }
        // backend dispatch: the selected backend's verdict *replaces* the
        // fused scorer's (an Ensemble backend folds the fused verdict back
        // in as one of its channels)
        let backend = match self {
            SeriesState::Live(live) => live.backend.as_deref_mut(),
            _ => None,
        };
        let (score, is_anomaly) = match backend {
            Some(b) => b.observe(&point, &verdict),
            None => (verdict.score, verdict.is_anomaly),
        };
        StepOutcome::Output(PointOutput::Scored { point, score, is_anomaly })
    }

    /// Promotes a warming series: initializes a detector on the whole
    /// buffer. On a (rare) init failure the series is tomb-stoned.
    fn promote(
        &mut self,
        period: usize,
        config: &FleetConfig,
        shared: &mut Shared,
    ) -> StepOutcome {
        let SeriesState::Warming(w) = self else {
            unreachable!("promote called on a non-warming series");
        };
        let buffered = w.values.len();
        // per-series overrides are baked into the detector here: from this
        // point on the tuning lives inside the live state (and its
        // snapshots), not in the fleet config; without a detector override
        // that tuning is the shared config itself
        let tuning = share_or_own(&shared.detector, w.overrides.detector_config(config));
        let mut detector = StdAnomalyDetector::with_score(
            OneShotStl::new(tuning),
            w.overrides.task_nsigma(config),
            w.overrides.task_score(config),
        );
        match detector.init_with(&w.values, period, &mut shared.plans) {
            Ok(()) => {
                let fopts = w.overrides.task_forecast(config);
                let forecast = fopts.enabled.then_some(fopts.damping);
                let backend = SeriesBackend::build(
                    w.overrides.task_backend(config),
                    w.overrides.task_nsigma(config),
                )
                .map(Box::new);
                *self = SeriesState::Live(LiveSeries { detector, forecast, backend });
                StepOutcome::Promoted(PointOutput::Warming { buffered, needed: Some(buffered) })
            }
            Err(_) => {
                *self = SeriesState::Rejected;
                StepOutcome::Output(PointOutput::Rejected)
            }
        }
    }
}

impl SeriesState {
    /// Checks what a series must satisfy before a shard steps it, whether
    /// decoded, rehydrated or restored from an in-memory snapshot: a live
    /// series is initialized (an uninitialized decomposer would panic the
    /// shard worker on the first update), its decomposer passes
    /// [`OneShotStl::check`], its scorer [`oneshotstl::CusumScorer::check`]
    /// and its backend [`SeriesBackend::check`]. The codec runs the same
    /// value checks as it reads each part.
    pub fn check(&self) -> Result<(), TsError> {
        let SeriesState::Live(live) = self else { return Ok(()) };
        if !live.detector.decomposer.is_initialized() {
            return Err(TsError::InvalidParam {
                name: "SeriesState::Live",
                msg: "live series with uninitialized decomposer".into(),
            });
        }
        live.detector.decomposer.check()?;
        live.detector.scorer.check()?;
        live.backend.as_deref().map_or(Ok(()), SeriesBackend::check)
    }

    /// Fits a series moved in by a restore to the shard under `config`
    /// that takes it, whichever engine it was decoded or cloned from: a
    /// warm-up re-derives its period by the rule a live one follows (an
    /// override, then a declared period, wins over the snapshotted one),
    /// and a live series whose detector config equals `shared` bit for bit
    /// points at `shared`, dropping its own reference.
    pub(crate) fn rehome(&mut self, config: &FleetConfig, shared: &Arc<OneShotStlConfig>) {
        match self {
            SeriesState::Warming(w) => {
                w.period = declared_period(config, w.overrides).or(w.period)
            }
            SeriesState::Live(live) => {
                let own = &mut live.detector.decomposer.config;
                if own.bit_eq(shared) {
                    *own = Arc::clone(shared);
                }
            }
            SeriesState::Rejected | SeriesState::Quarantined { .. } => {}
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::codec::{decode_series_blob, encode_series_blob};
    use crate::config::ForecastOptions;
    use crate::shard::SeriesEntry;
    use crate::types::SeriesKey;

    fn seasonal(n: usize, t: usize) -> Vec<f64> {
        (0..n).map(|i| 2.0 + (2.0 * std::f64::consts::PI * i as f64 / t as f64).sin()).collect()
    }

    /// `state` through the codec and back, as a shard spills and
    /// rehydrates it (unchecked).
    fn decoded(state: &SeriesState, cfg: &FleetConfig, shared: &Shared) -> SeriesState {
        let key = SeriesKey::new("series");
        let blob = encode_series_blob(&SeriesEntry { key, state: state.clone(), last_seen: 0 });
        decode_series_blob(&blob, cfg, &shared.detector).unwrap().state
    }

    fn roundtrip(state: &SeriesState, cfg: &FleetConfig, shared: &Shared) -> SeriesState {
        let back = decoded(state, cfg, shared);
        back.check().unwrap();
        back
    }

    #[test]
    fn non_finite_warmup_values_do_not_poison_admission() {
        // a NaN mid-warm-up is imputed (last value carried forward), so the
        // series still admits and scores — mirroring the live impute path
        let cfg = FleetConfig::fixed_period(24);
        let need = cfg.init_len(24);
        let y = seasonal(need + 10, 24);
        let mut scr = Shared::new(&cfg);
        let mut s = SeriesState::new(&cfg);
        // a leading NaN (nothing to impute from) is dropped, not buffered
        match s.step(f64::NAN, &cfg, &mut scr) {
            StepOutcome::Output(PointOutput::Warming { buffered, .. }) => {
                assert_eq!(buffered, 0)
            }
            _ => panic!("leading NaN should leave the series warming"),
        }
        for (i, &v) in y.iter().enumerate() {
            let v = if i == 30 { f64::INFINITY } else { v };
            s.step(v, &cfg, &mut scr);
        }
        assert!(matches!(s, SeriesState::Live(_)), "NaN must not tombstone the series");
    }

    #[test]
    fn detected_period_beyond_cap_keeps_buffering_to_admission() {
        // the cap only rejects series with *no* usable period: a known T
        // above max_period (only an override period can be one) buffers
        // past the cap until init_len(T)
        let cfg = FleetConfig {
            period: PeriodPolicy::Detect {
                min_period: 4,
                max_period: 16,
                min_acf: 0.3,
                fallback: None,
            },
            ..Default::default()
        };
        assert!(cfg.warmup_cap() < cfg.init_len(48), "cap 48 < init_len(48) = 144");
        let y = seasonal(400, 48);
        let mut scr = Shared::new(&cfg);
        let mut s = SeriesState::with_overrides(
            &cfg,
            AdmitOptions { period: Some(48), ..Default::default() },
        );
        let mut promoted = None;
        for (i, &v) in y.iter().enumerate() {
            match s.step(v, &cfg, &mut scr) {
                StepOutcome::Promoted(_) => {
                    promoted = Some(i + 1);
                    break;
                }
                StepOutcome::Output(PointOutput::Rejected) => {
                    panic!("series with a known period must not be rejected at the cap")
                }
                _ => {}
            }
        }
        assert_eq!(promoted, Some(cfg.init_len(48)));
    }

    #[test]
    fn live_snapshot_with_uninitialized_decomposer_is_rejected() {
        // a crafted/corrupted snapshot must fail at restore, not panic a
        // shard worker on the first update
        let cfg = FleetConfig::fixed_period(8);
        let never_inited = SeriesState::Live(LiveSeries {
            detector: StdAnomalyDetector::new(
                OneShotStl::new(cfg.detector.clone()),
                cfg.nsigma,
            ),
            forecast: None,
            backend: None,
        });
        assert!(never_inited.check().is_err());
        assert!(decoded(&never_inited, &cfg, &Shared::new(&cfg)).check().is_err());
    }

    #[test]
    fn fixed_period_series_admits_at_init_len() {
        let cfg = FleetConfig::fixed_period(24);
        let need = cfg.init_len(24);
        let mut scr = Shared::new(&cfg);
        let mut s = SeriesState::new(&cfg);
        let y = seasonal(need + 10, 24);
        for (i, &v) in y.iter().enumerate() {
            match s.step(v, &cfg, &mut scr) {
                StepOutcome::Output(PointOutput::Warming { buffered, needed }) => {
                    assert_eq!(buffered, i + 1);
                    assert_eq!(needed, Some(need));
                    assert!(i + 1 < need);
                    // sized for admission up front: the buffer never grows
                    let SeriesState::Warming(w) = &s else { unreachable!() };
                    assert_eq!(w.values.capacity(), need);
                }
                StepOutcome::Promoted(_) => assert_eq!(i + 1, need),
                StepOutcome::Output(PointOutput::Scored { .. }) => assert!(i + 1 > need),
                other => panic!("unexpected outcome at {i}: {:?}", discr(&other)),
            }
        }
        assert!(matches!(s, SeriesState::Live(_)));
    }

    #[test]
    fn detected_period_series_admits() {
        let cfg = FleetConfig {
            period: PeriodPolicy::Detect {
                min_period: 4,
                max_period: 64,
                min_acf: 0.1,
                fallback: None,
            },
            ..Default::default()
        };
        let mut scr = Shared::new(&cfg);
        let mut s = SeriesState::new(&cfg);
        let y = seasonal(400, 24);
        let mut promoted_at = None;
        for (i, &v) in y.iter().enumerate() {
            if let StepOutcome::Promoted(_) = s.step(v, &cfg, &mut scr) {
                promoted_at = Some(i + 1);
                break;
            }
        }
        let at = promoted_at.expect("seasonal series should be admitted");
        // detection needs 3 periods; admission needs init_len(T)
        assert!(at >= cfg.init_len(24), "admitted after {at}");
        assert!(at <= 200, "admitted too late: {at}");
    }

    #[test]
    fn white_noise_without_fallback_is_rejected() {
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};
        let cfg = FleetConfig {
            period: PeriodPolicy::Detect {
                min_period: 4,
                max_period: 32,
                min_acf: 0.6,
                fallback: None,
            },
            ..Default::default()
        };
        let mut rng = StdRng::seed_from_u64(9);
        let mut scr = Shared::new(&cfg);
        let mut s = SeriesState::new(&cfg);
        let mut rejected = false;
        for _ in 0..200 {
            let v: f64 = rng.gen_range(-1.0..1.0);
            if let StepOutcome::Output(PointOutput::Rejected) = s.step(v, &cfg, &mut scr) {
                rejected = true;
                break;
            }
        }
        assert!(rejected, "noise should overflow warm-up and be rejected");
        assert!(matches!(s, SeriesState::Rejected));
    }

    /// The head attached at promotion is the damping `φ` the series
    /// admitted under; a per-series override can switch it off.
    #[test]
    fn forecast_enabled_series_carries_its_damping() {
        let mut cfg = FleetConfig::fixed_period(24);
        cfg.forecast = ForecastOptions { damping: 0.9, ..ForecastOptions::on() };
        let off =
            AdmitOptions { forecast: Some(ForecastOptions::default()), ..Default::default() };
        let mut scr = Shared::new(&cfg);
        let mut headed = SeriesState::new(&cfg);
        let mut plain = SeriesState::with_overrides(&cfg, off);
        for &v in &seasonal(100, 24) {
            headed.step(v, &cfg, &mut scr);
            plain.step(v, &cfg, &mut scr);
        }
        let head = |s: &SeriesState| match s {
            SeriesState::Live(live) => live.forecast,
            _ => panic!("series must be live"),
        };
        assert_eq!(head(&headed), Some(0.9));
        assert_eq!(head(&plain), None, "the override disables the head");
    }

    #[test]
    fn forecast_state_snapshot_roundtrip_continues_bit_identically() {
        let mut cfg = FleetConfig::fixed_period(16);
        cfg.forecast = ForecastOptions { damping: 0.9, ..ForecastOptions::on() };
        let y = seasonal(400, 16);
        let mut scr = Shared::new(&cfg);
        let mut a = SeriesState::new(&cfg);
        for &v in &y[..200] {
            a.step(v, &cfg, &mut scr);
        }
        let mut b = roundtrip(&a, &cfg, &scr);
        for &v in &y[200..] {
            match (a.step(v, &cfg, &mut scr), b.step(v, &cfg, &mut scr)) {
                (StepOutcome::Output(oa), StepOutcome::Output(ob)) => assert_eq!(oa, ob),
                _ => panic!("phases diverged"),
            }
            let (SeriesState::Live(la), SeriesState::Live(lb)) = (&a, &b) else {
                panic!("both series must be live")
            };
            assert_eq!(lb.forecast, Some(0.9), "the head survives the snapshot");
            let (mut fa, mut fb) = ([0.0; 16], [0.0; 16]);
            la.detector.decomposer.forecast_into(0.9, &mut fa);
            lb.detector.decomposer.forecast_into(0.9, &mut fb);
            assert_eq!(fa.map(f64::to_bits), fb.map(f64::to_bits), "forecasts bit-identical");
        }
    }

    #[test]
    fn snapshot_roundtrip_continues_bit_identically() {
        let cfg = FleetConfig::fixed_period(16);
        let y = seasonal(400, 16);
        let mut scr = Shared::new(&cfg);
        let mut a = SeriesState::new(&cfg);
        for &v in &y[..200] {
            a.step(v, &cfg, &mut scr);
        }
        let mut b = roundtrip(&a, &cfg, &scr);
        for &v in &y[200..] {
            let (ra, rb) = (a.step(v, &cfg, &mut scr), b.step(v, &cfg, &mut scr));
            match (ra, rb) {
                (StepOutcome::Output(oa), StepOutcome::Output(ob)) => assert_eq!(oa, ob),
                _ => panic!("phases diverged"),
            }
        }
    }

    #[test]
    fn warming_snapshot_roundtrip_admits_at_the_same_point() {
        // Detect policy, snapshot taken mid-warm-up: the restored series
        // must attempt detection at the same buffer lengths and admit at
        // the same point as the uninterrupted one.
        let cfg = FleetConfig {
            period: PeriodPolicy::Detect {
                min_period: 4,
                max_period: 64,
                min_acf: 0.3,
                fallback: None,
            },
            ..Default::default()
        };
        let y = seasonal(400, 24);
        let mut scr = Shared::new(&cfg);
        let mut a = SeriesState::new(&cfg);
        for &v in &y[..40] {
            a.step(v, &cfg, &mut scr);
        }
        let mut b = roundtrip(&a, &cfg, &scr);
        let mut admitted = (None, None);
        for (i, &v) in y[40..].iter().enumerate() {
            if let StepOutcome::Promoted(_) = a.step(v, &cfg, &mut scr) {
                admitted.0 = Some(i);
            }
            if let StepOutcome::Promoted(_) = b.step(v, &cfg, &mut scr) {
                admitted.1 = Some(i);
            }
        }
        assert!(admitted.0.is_some(), "seasonal series should be admitted");
        assert_eq!(admitted.0, admitted.1, "restored warm-up must admit in lockstep");
    }

    #[test]
    fn quarantined_series_drops_counts_and_roundtrips() {
        let cfg = FleetConfig::fixed_period(8);
        let mut scr = Shared::new(&cfg);
        let mut s = SeriesState::Quarantined { cause: QuarantineCause::Panic, dropped: 0 };
        for i in 1..=5u64 {
            match s.step(1.0, &cfg, &mut scr) {
                StepOutcome::Output(PointOutput::Quarantined) => {}
                other => panic!("unexpected outcome: {}", discr(&other)),
            }
            assert!(matches!(s, SeriesState::Quarantined { dropped, .. } if dropped == i));
        }
        let mut r = roundtrip(&s, &cfg, &scr);
        assert!(matches!(
            r,
            SeriesState::Quarantined { cause: QuarantineCause::Panic, dropped: 5 }
        ));
        r.step(2.0, &cfg, &mut scr);
        assert!(matches!(r, SeriesState::Quarantined { dropped: 6, .. }));
    }

    #[test]
    fn non_finite_live_state_quarantines_the_series() {
        // wreck a live detector's internal state directly (warm-up imputes
        // non-finite *inputs*, so corruption is the only way here), then
        // step: the series must move to Quarantined, not emit NaN forever
        let cfg = FleetConfig::fixed_period(16);
        let y = seasonal(200, 16);
        let mut scr = Shared::new(&cfg);
        let mut s = SeriesState::new(&cfg);
        for &v in &y {
            s.step(v, &cfg, &mut scr);
        }
        let SeriesState::Live(live) = &mut s else { panic!("series must be live") };
        live.detector.decomposer.v.fill(f64::NAN);
        match s.step(1.0, &cfg, &mut scr) {
            StepOutcome::Output(PointOutput::Quarantined) => {}
            other => panic!("unexpected outcome: {}", discr(&other)),
        }
        assert!(matches!(
            s,
            SeriesState::Quarantined { cause: QuarantineCause::NonFinite, dropped: 1 }
        ));
    }

    fn discr(o: &StepOutcome) -> &'static str {
        match o {
            StepOutcome::Output(PointOutput::Warming { .. }) => "warming",
            StepOutcome::Output(PointOutput::Scored { .. }) => "scored",
            StepOutcome::Output(PointOutput::Rejected) => "rejected",
            StepOutcome::Output(PointOutput::Quarantined) => "quarantined",
            StepOutcome::Promoted(_) => "promoted",
        }
    }
}
