//! Detection backends: a second verdict channel on top of the always-on
//! decomposition + fused residual scorer.
//!
//! Every live series decomposes its stream and scores the residual with
//! the fused [`oneshotstl::ResidualScorer`] — that pipeline is the
//! baseline and never goes away. A **backend** additionally scores the
//! decomposition's *trend* channel, selected per fleet
//! ([`crate::FleetConfig::backend`]) or per series
//! ([`crate::AdmitOptions::backend`]) and baked in at promotion like
//! every other admission-time override:
//!
//! - [`BackendSelect::Fused`] (default): no extra detector — the fused
//!   scorer's verdict is the series verdict.
//! - [`BackendSelect::TrendCusum`]: the trend-innovation CUSUM
//!   ([`oneshotstl::TrendCusum`]) over the trend channel — catches level
//!   shifts the adaptive trend absorbs before the residual ever sees
//!   them. Its verdict replaces the fused one.
//! - [`BackendSelect::Ensemble`]: both channels, `score = max(fused,
//!   trend)` and verdict = OR — the most-alarmed channel wins, so each
//!   keeps its full sensitivity.
//!
//! [`SeriesBackend`] is the closed enum the shard dispatches and the
//! codec serializes as it is: `observe` is allocation-free in steady
//! state (pinned by `crates/fleet/tests/zero_alloc.rs`), and a decoded
//! backend continues **bit-identically** (including WAL crash recovery).

use oneshotstl::{ScoreConfig, ScoreVerdict, TrendCusum};
use tskit::error::TsError;
use tskit::series::DecompPoint;

/// Which detection backend a series runs (see the [module docs](self)).
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub enum BackendSelect {
    /// No extra detector: the fused residual scorer's verdict is the
    /// series verdict.
    #[default]
    Fused,
    /// Trend-innovation CUSUM over the trend channel, with its own
    /// [`ScoreConfig`] (CUSUM k/h, hold, fusion — same vocabulary as
    /// the residual scorer).
    TrendCusum(ScoreConfig),
    /// The fused residual scorer and a trend CUSUM with this
    /// [`ScoreConfig`]: `max` of the two scores, OR of the verdicts.
    Ensemble(ScoreConfig),
}

impl BackendSelect {
    /// Validates the selection, returning a message for the first
    /// problem found.
    pub fn validate(&self) -> Result<(), String> {
        match self {
            BackendSelect::Fused => Ok(()),
            BackendSelect::TrendCusum(s) | BackendSelect::Ensemble(s) => s.validate(),
        }
    }
}

/// The concrete backend a live series runs. `None` at the
/// [`crate::series`] layer means [`BackendSelect::Fused`] — no extra
/// state, no extra work.
#[derive(Debug, Clone)]
pub enum SeriesBackend {
    /// Trend-innovation CUSUM over the trend channel.
    TrendCusum(TrendCusum),
    /// The trend CUSUM fused with the residual scorer's verdict.
    Ensemble(TrendCusum),
}

impl SeriesBackend {
    /// Checks a restored backend: its trend CUSUM's [`TrendCusum::check`].
    pub fn check(&self) -> Result<(), TsError> {
        let (SeriesBackend::TrendCusum(t) | SeriesBackend::Ensemble(t)) = self;
        t.check()
    }

    /// Builds the backend a promoting series selected, or `None` for
    /// [`BackendSelect::Fused`]. `n` is the task NSigma bar (already
    /// per-series resolved).
    pub fn build(select: BackendSelect, n: f64) -> Option<Self> {
        match select {
            BackendSelect::Fused => None,
            BackendSelect::TrendCusum(score) => {
                Some(SeriesBackend::TrendCusum(TrendCusum::new(n, score)))
            }
            BackendSelect::Ensemble(score) => {
                Some(SeriesBackend::Ensemble(TrendCusum::new(n, score)))
            }
        }
    }

    /// Scores one decomposed point, returning `(score, is_anomaly)`.
    /// `fused` is the residual scorer's verdict for the same point. The
    /// returned verdict *replaces* the fused one as the series verdict
    /// (the ensemble folds the fused channel back in).
    pub fn observe(&mut self, point: &DecompPoint, fused: &ScoreVerdict) -> (f64, bool) {
        match self {
            SeriesBackend::TrendCusum(t) => {
                let v = t.update(point.trend);
                (v.score, v.is_anomaly)
            }
            SeriesBackend::Ensemble(t) => {
                let v = t.update(point.trend);
                (fused.score.max(v.score), fused.is_anomaly || v.is_anomaly)
            }
        }
    }

    /// Lifetime trend-channel alarms, z and CUSUM side together
    /// (diagnostics, never serialized, like every other diagnostic
    /// counter).
    pub fn trend_alarms(&self) -> u64 {
        let (SeriesBackend::TrendCusum(t) | SeriesBackend::Ensemble(t)) = self;
        let (z, c) = t.alarm_counts();
        z + c
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn point(trend: f64) -> DecompPoint {
        DecompPoint { trend, seasonal: 0.0, residual: 0.0 }
    }

    #[test]
    fn config_validation() {
        assert!(BackendSelect::default().validate().is_ok());
        assert!(BackendSelect::TrendCusum(ScoreConfig::default()).validate().is_ok());
        assert!(BackendSelect::Ensemble(ScoreConfig::default()).validate().is_ok());
        let bad = ScoreConfig { cusum_h: 0.0, ..Default::default() };
        assert!(BackendSelect::TrendCusum(bad).validate().is_err());
        assert!(BackendSelect::Ensemble(bad).validate().is_err());
    }

    /// A backend through the codec continues bit-identically, for every
    /// variant.
    #[test]
    fn snapshot_roundtrip_is_bit_identical() {
        use crate::codec::{decode_backend_state, encode_backend_state, Reader, Writer};
        let selects = [
            BackendSelect::TrendCusum(ScoreConfig::default()),
            BackendSelect::Ensemble(ScoreConfig::default()),
        ];
        let fused = ScoreVerdict { score: 0.3, z: 0.3, cusum: 0.1, is_anomaly: false };
        let trend = |i: usize| 1.0 + 0.01 * i as f64 + 0.05 * ((i * 37 % 100) as f64 / 50.0);
        for select in selects {
            let mut a = SeriesBackend::build(select, 5.0).unwrap();
            for i in 0..200 {
                a.observe(&point(trend(i)), &fused);
            }
            let mut w = Writer::default();
            encode_backend_state(&mut w, &a);
            let mut b = decode_backend_state(&mut Reader { data: &w.buf, pos: 0 }).unwrap();
            let mut again = Writer::default();
            encode_backend_state(&mut again, &b);
            assert_eq!(w.buf, again.buf);
            for i in 200..300 {
                let p = point(trend(i) + if i == 250 { 3.0 } else { 0.0 });
                let (va, vb) = (a.observe(&p, &fused), b.observe(&p, &fused));
                assert_eq!(va.0.to_bits(), vb.0.to_bits(), "{select:?} at {i}");
                assert_eq!(va.1, vb.1);
            }
        }
    }

    /// Degenerate decoded state is rejected with a typed error, never
    /// restored.
    #[test]
    fn degenerate_snapshots_are_rejected() {
        use crate::codec::{decode_backend_state, encode_backend_state, Reader, Writer};
        for select in [BackendSelect::TrendCusum, BackendSelect::Ensemble] {
            let mut b = SeriesBackend::build(select(ScoreConfig::default()), 5.0).unwrap();
            let (SeriesBackend::TrendCusum(t) | SeriesBackend::Ensemble(t)) = &mut b;
            (t.has_prev, t.prev) = (true, f64::INFINITY);
            let mut w = Writer::default();
            encode_backend_state(&mut w, &b);
            assert!(decode_backend_state(&mut Reader { data: &w.buf, pos: 0 }).is_err());
        }
    }

    /// The ensemble takes the larger score and ORs the verdicts; the
    /// trend CUSUM alone ignores the fused channel.
    #[test]
    fn ensemble_fusion_rules() {
        let fused_hot = ScoreVerdict { score: 9.0, z: 9.0, cusum: 0.0, is_anomaly: true };
        // trend channel still warming (quiet): the fused alarm passes
        // through at full strength
        let mut e = SeriesBackend::build(BackendSelect::Ensemble(ScoreConfig::default()), 5.0);
        assert_eq!(e.as_mut().unwrap().observe(&point(0.0), &fused_hot), (9.0, true));
        let mut t =
            SeriesBackend::build(BackendSelect::TrendCusum(ScoreConfig::default()), 5.0);
        assert_eq!(t.as_mut().unwrap().observe(&point(0.0), &fused_hot), (0.0, false));
        // a trend level shift alarms both, whatever the fused channel says
        let quiet = ScoreVerdict { score: 0.0, z: 0.0, cusum: 0.0, is_anomaly: false };
        let (mut e, mut t) = (e.unwrap(), t.unwrap());
        let mut alarmed = (false, false);
        for i in 1..200 {
            let level = 0.01 * ((i * 37 % 100) as f64 / 50.0) + if i > 150 { 5.0 } else { 0.0 };
            let (ve, vt) = (e.observe(&point(level), &quiet), t.observe(&point(level), &quiet));
            assert_eq!(ve, vt, "a quiet fused channel leaves the trend verdict as is");
            alarmed = (alarmed.0 || ve.1, alarmed.1 || vt.1);
        }
        assert_eq!(alarmed, (true, true));
        assert!(e.trend_alarms() > 0);
    }
}
