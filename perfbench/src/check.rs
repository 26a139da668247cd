//! Output checks: every output record against its input, detection
//! labels, and a bit-exact reference replay of sampled series.

use crate::gen::{Expect, Gen, RECALL, WARM};
use fleet::{FleetConfig, PointOutput, ScoredPoint, SeriesKey};
use oneshotstl::{OneShotStl, StdAnomalyDetector};
use std::collections::{HashMap, HashSet};

/// How many sampled series the reference replay covers.
pub const SAMPLES: usize = 64;

/// One captured output of a sampled series.
#[derive(Clone, Copy, Debug, PartialEq)]
enum Out {
    Warming,
    Scored { score: u64, flag: bool },
}

/// The captured stream of one sampled series.
#[derive(Default)]
struct Sample {
    values: Vec<f64>,
    outs: Vec<Out>,
}

/// Per-event detection state: (detected, recall window fully observed).
type EventState = (bool, bool);

/// Counts operations and failures, labels detections, and captures the
/// sampled series for the reference replay.
pub struct Checker {
    gen: Gen,
    /// Operations attempted (records, forecast calls, frames, recoveries).
    pub attempted: u64,
    /// Operations that failed (see `fail`).
    pub failed: u64,
    /// Sampled slots, sorted.
    sample_slots: Vec<u64>,
    samples: HashMap<u64, Sample>,
    events: HashMap<(u64, u64), EventState>,
    /// Scored points outside every event window.
    outside: u64,
    /// …of which flagged.
    flagged_outside: u64,
    /// Scored points.
    pub scored: u64,
}

impl Checker {
    /// A checker for `gen`'s signal sampling `SAMPLES` of `population`
    /// series slots (seeded; churn ids share a slot across generations).
    pub fn new(gen: Gen, population: u64) -> Self {
        let mut slots = HashSet::new();
        let mut i = 0;
        while slots.len() < SAMPLES.min(population as usize) {
            slots.insert((crate::gen::unit(gen.seed(), i, 0, 99) * population as f64) as u64);
            i += 1;
        }
        let mut slots: Vec<u64> = slots.into_iter().collect();
        slots.sort_unstable();
        Checker {
            gen,
            attempted: 0,
            failed: 0,
            sample_slots: slots,
            samples: HashMap::new(),
            events: HashMap::new(),
            outside: 0,
            flagged_outside: 0,
            scored: 0,
        }
    }

    /// Records one failed operation, loudly for the first few.
    pub fn fail(&mut self, what: impl FnOnce() -> String) {
        self.failed += 1;
        if self.failed <= 10 {
            eprintln!("perfbench: FAILED: {}", what());
        }
    }

    /// Whether `id` belongs to a sampled slot.
    pub fn sampled(&self, id: u64) -> bool {
        self.sample_slots.binary_search(&(id & 0xffff_ffff)).is_ok()
    }

    /// Checks one batch's outputs record by record: same length, then for
    /// each record the same key, t and value bits, and the phase the
    /// record expects — scored points must carry a finite score.
    pub fn batch(
        &mut self,
        exp: &[Expect],
        out: &[ScoredPoint],
        key_ok: impl Fn(u64, &SeriesKey) -> bool,
    ) {
        self.attempted += exp.len() as u64;
        if exp.len() != out.len() {
            // every unanswered record fails; an over-long answer fails once
            let (e, o) = (exp.len(), out.len());
            self.failed += e.saturating_sub(o).max(1) as u64 - 1;
            self.fail(|| format!("batch of {e} records answered with {o} points"));
        }
        for (e, p) in exp.iter().zip(out) {
            if !key_ok(e.id, &p.key) || p.t != e.t || p.value.to_bits() != e.value.to_bits() {
                self.fail(|| {
                    format!("output {}@{} does not match record {}@{}", p.key, p.t, e.id, e.t)
                });
                continue;
            }
            let got = match &p.output {
                PointOutput::Warming { .. } => Out::Warming,
                PointOutput::Scored { score, is_anomaly, .. } if score.is_finite() => {
                    Out::Scored { score: score.to_bits(), flag: *is_anomaly }
                }
                other => {
                    let o = format!("{other:?}");
                    self.fail(|| format!("series {} t {}: unexpected output {o}", e.id, e.t));
                    continue;
                }
            };
            if e.warming != (got == Out::Warming) {
                let w = if e.warming { "warming" } else { "scored" };
                self.fail(|| format!("series {} t {}: wanted {w}, got {got:?}", e.id, e.t));
            }
            if let Out::Scored { flag, .. } = got {
                self.label(e.id, e.t, flag);
            }
            if self.sampled(e.id) {
                let s = self.samples.entry(e.id).or_default();
                s.values.push(e.value);
                s.outs.push(got);
            }
        }
    }

    /// Labels one scored point against the injected events.
    fn label(&mut self, id: u64, t: u64, flag: bool) {
        self.scored += 1;
        match self.gen.window_of(id, t) {
            Some(onset) => {
                // only events whose onset was scored count
                let entry = if t == onset {
                    Some(self.events.entry((id, onset)).or_insert((false, false)))
                } else {
                    self.events.get_mut(&(id, onset))
                };
                if let Some(ev) = entry {
                    ev.0 |= flag && t < onset + RECALL;
                    ev.1 |= t + 1 >= onset + RECALL;
                }
            }
            None => {
                self.outside += 1;
                self.flagged_outside += flag as u64;
            }
        }
    }

    /// `(detected, counted)` events: those whose recall window was fully
    /// observed, and how many of them had a flag within one period.
    pub fn events(&self) -> (u64, u64) {
        let done = self.events.values().filter(|e| e.1);
        let n = done.clone().count() as u64;
        (done.filter(|e| e.0).count() as u64, n)
    }

    /// Share of events detected within one period of onset.
    pub fn event_recall(&self) -> f64 {
        let (hit, n) = self.events();
        if n == 0 {
            f64::NAN
        } else {
            hit as f64 / n as f64
        }
    }

    /// Percentage of points outside every event window that were flagged.
    pub fn false_alarm_pct(&self) -> f64 {
        100.0 * self.flagged_outside as f64 / self.outside.max(1) as f64
    }

    /// The input values of every sampled series, in series order.
    pub fn sample_streams(&self) -> Vec<&[f64]> {
        let mut ids: Vec<&u64> = self.samples.keys().collect();
        ids.sort_unstable();
        ids.into_iter().map(|id| self.samples[id].values.as_slice()).collect()
    }

    /// Replays every sampled series through a standalone
    /// `StdAnomalyDetector<OneShotStl>` built from the engine's config and
    /// requires bit-identical scores and verdicts. Mismatches count as
    /// failures; returns the reference detectors (for forecast checks).
    pub fn replay(&mut self, cfg: &FleetConfig) -> Vec<(u64, StdAnomalyDetector<OneShotStl>)> {
        let warm = WARM as usize;
        let mut ids: Vec<u64> = self.samples.keys().copied().collect();
        ids.sort_unstable();
        let mut refs = Vec::new();
        let mut mismatches = Vec::new();
        for id in ids {
            let s = &self.samples[&id];
            if s.values.len() < warm {
                continue; // still warming when the run ended
            }
            self.attempted += 1;
            if s.outs[..warm].iter().any(|o| *o != Out::Warming) {
                mismatches.push(format!("series {id}: scored before {warm} warm-up points"));
                continue;
            }
            let mut det = StdAnomalyDetector::with_score(
                OneShotStl::new(cfg.detector.clone()),
                cfg.nsigma,
                cfg.score,
            );
            if det.init(&s.values[..warm], crate::gen::PERIOD as usize).is_err() {
                mismatches.push(format!("series {id}: reference init failed"));
                continue;
            }
            for (i, (&v, out)) in s.values.iter().zip(&s.outs).enumerate().skip(warm) {
                let (_, verdict) = det.update_scored(v);
                let want =
                    Out::Scored { score: verdict.score.to_bits(), flag: verdict.is_anomaly };
                if *out != want {
                    mismatches.push(format!(
                        "series {id} point {i}: engine {out:?}, reference {want:?}"
                    ));
                    break;
                }
            }
            refs.push((id, det));
        }
        for m in mismatches {
            self.fail(|| format!("reference replay: {m}"));
        }
        refs
    }

    /// Checks forecasts the engine returned for sampled series against the
    /// reference detectors, bit for bit.
    pub fn check_forecasts(
        &mut self,
        refs: &[(u64, StdAnomalyDetector<OneShotStl>)],
        got: &[Option<Vec<f64>>],
        damping: Option<f64>,
    ) {
        for ((id, det), fc) in refs.iter().zip(got) {
            self.attempted += 1;
            let Some(fc) = fc else {
                self.fail(|| format!("no forecast for live sampled series {id}"));
                continue;
            };
            let mut want = vec![0.0; fc.len()];
            match damping {
                Some(phi) => det.decomposer.forecast_into(phi, &mut want),
                None => {
                    for (i, w) in want.iter_mut().enumerate() {
                        *w = det.decomposer.predict(i + 1);
                    }
                }
            }
            if want.iter().zip(fc).any(|(a, b)| a.to_bits() != b.to_bits()) {
                self.fail(|| {
                    format!("forecast of sampled series {id} differs from the reference")
                });
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gen::{EventKind, WINDOW};
    use fleet::Record;

    fn scored(key: &SeriesKey, e: &Expect, flag: bool) -> ScoredPoint {
        let rec = Record { key: key.clone(), t: e.t, value: e.value };
        let point = Default::default();
        ScoredPoint {
            key: rec.key,
            t: rec.t,
            value: rec.value,
            output: PointOutput::Scored { point, score: 1.0, is_anomaly: flag },
        }
    }

    #[test]
    fn detections_and_false_alarms_are_labelled_by_window() {
        let gen = Gen::new(11, 1.0);
        let key = SeriesKey::new("x");
        let mut c = Checker::new(gen.clone(), 1);
        let e1 = gen.event(0, 1).unwrap();
        let e2 = gen.event(0, 2).unwrap();
        let mut exp = Vec::new();
        let mut out = Vec::new();
        for t in crate::gen::EPOCH..3 * crate::gen::EPOCH {
            let e = Expect { id: 0, t, value: gen.value(0, t), warming: false };
            // flag event 1 two ticks after onset, event 2 only after its
            // recall window, and one point outside every window
            let flag = t == e1.onset + 2 || t == e2.onset + RECALL || t == e1.onset + WINDOW;
            out.push(scored(&key, &e, flag));
            exp.push(e);
        }
        c.batch(&exp, &out, |_, k| *k == key);
        assert_eq!(c.failed, 0);
        assert_eq!(c.events(), (1, 2), "event 1 detected, event 2 missed");
        assert_eq!(c.event_recall(), 0.5);
        let outside = 2 * crate::gen::EPOCH - 2 * WINDOW;
        assert!((c.false_alarm_pct() - 100.0 / outside as f64).abs() < 1e-12);
        assert!(matches!(
            e1.kind,
            EventKind::Spike | EventKind::LevelShift | EventKind::PhaseShift
        ));
    }

    #[test]
    fn mismatching_outputs_are_failures() {
        let gen = Gen::new(1, 0.0);
        let key = SeriesKey::new("x");
        let mut c = Checker::new(gen.clone(), 1);
        let e = Expect { id: 0, t: 500, value: gen.value(0, 500), warming: false };
        let mut wrong_value = scored(&key, &e, false);
        wrong_value.value += 1.0;
        let warming = ScoredPoint {
            output: PointOutput::Warming { buffered: 3, needed: Some(72) },
            ..scored(&key, &e, false)
        };
        c.batch(&[e, e, e], &[wrong_value, warming, scored(&key, &e, false)], |_, k| *k == key);
        assert_eq!((c.attempted, c.failed), (3, 2));
        c.batch(&[e], &[], |_, _| true);
        assert_eq!(c.failed, 3, "the unanswered record fails");
    }
}
