//! Deterministic workload generator.
//!
//! Every value is a pure function of `(seed, series, t)`: a seasonal
//! (T = 24) plus trend signal with per-(series, t) noise and injected
//! events. The benchmark's checks regenerate labels from the same
//! functions, so nothing about the inputs has to be stored.

use fleet::{Record, SeriesKey};

/// Seasonal period of every generated series.
pub const PERIOD: u64 = 24;
/// Warm-up length: the engine's default `init_len` at T = 24 (3 cycles).
pub const WARM: u64 = 72;
/// Each series draws at most one event per epoch of this many ticks.
pub const EPOCH: u64 = 8 * PERIOD;
/// Points after an onset that count as the event window (false alarms are
/// counted outside it).
pub const WINDOW: u64 = 2 * PERIOD;
/// Points after an onset within which a flag counts as detecting the event.
pub const RECALL: u64 = PERIOD;

/// What an injected event does to its series from the onset on.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum EventKind {
    /// One point jumps by 4 amplitudes.
    Spike,
    /// The level steps up by one amplitude and stays there.
    LevelShift,
    /// The seasonal phase jumps by a quarter period and stays there.
    PhaseShift,
}

/// One injected event.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Event {
    /// First affected tick.
    pub onset: u64,
    /// What happens there.
    pub kind: EventKind,
}

/// splitmix64 finaliser.
fn mix(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// A uniform draw in `[0, 1)` keyed by `(seed, a, b, salt)`.
pub fn unit(seed: u64, a: u64, b: u64, salt: u64) -> f64 {
    let h = mix(seed ^ mix(a ^ mix(b ^ mix(salt))));
    (h >> 11) as f64 / (1u64 << 53) as f64
}

/// The signal of one workload: which seed, and how often events strike.
#[derive(Clone, Debug)]
pub struct Gen {
    seed: u64,
    /// Chance that a series has an event in a given epoch.
    event_rate: f64,
}

impl Gen {
    /// A generator for `seed` with events in `event_rate` of the
    /// (series, epoch) pairs.
    pub fn new(seed: u64, event_rate: f64) -> Self {
        Gen { seed, event_rate }
    }

    /// The seed.
    pub fn seed(&self) -> u64 {
        self.seed
    }

    /// The event of `series` in `epoch`, if any. Epoch 0 holds none, so
    /// warm-up windows stay clean; an event's window never leaves its
    /// epoch, so windows of one series never overlap.
    pub fn event(&self, series: u64, epoch: u64) -> Option<Event> {
        if epoch == 0 || unit(self.seed, series, epoch, 1) >= self.event_rate {
            return None;
        }
        let offset = (unit(self.seed, series, epoch, 2) * (EPOCH - WINDOW) as f64) as u64;
        let kind = match (unit(self.seed, series, epoch, 3) * 3.0) as u32 {
            0 => EventKind::Spike,
            1 => EventKind::LevelShift,
            _ => EventKind::PhaseShift,
        };
        Some(Event { onset: epoch * EPOCH + offset, kind })
    }

    /// The onset of the event whose window `[onset, onset + WINDOW)` holds
    /// tick `t` of `series`, if one does.
    pub fn window_of(&self, series: u64, t: u64) -> Option<u64> {
        self.event(series, t / EPOCH).map(|e| e.onset).filter(|&o| o <= t && t < o + WINDOW)
    }

    /// The fixed shape of `series`: amplitude, phase, level and slope.
    pub fn shape(&self, series: u64) -> Shape {
        let s = self.seed;
        Shape {
            amp: 0.5 + 1.5 * unit(s, series, 0, 10),
            phase: unit(s, series, 0, 11),
            level: 10.0 * unit(s, series, 0, 12) - 5.0,
            slope: (unit(s, series, 0, 13) - 0.5) * 2e-3,
        }
    }

    /// The value of `series` at tick `t`.
    #[cfg(test)]
    pub fn value(&self, series: u64, t: u64) -> f64 {
        self.value_of(&self.shape(series), series, t)
    }

    /// [`Gen::value`] with the series' shape already at hand.
    pub fn value_of(&self, shape: &Shape, series: u64, t: u64) -> f64 {
        let s = self.seed;
        let amp = shape.amp;
        let (mut shift, mut lag, mut spike) = (0.0, 0u64, 0.0);
        for epoch in 1..=t / EPOCH {
            let Some(e) = self.event(series, epoch) else { continue };
            if e.onset > t {
                break;
            }
            match e.kind {
                EventKind::Spike if e.onset == t => spike = 4.0 * amp,
                EventKind::Spike => {}
                EventKind::LevelShift => shift += amp,
                EventKind::PhaseShift => lag += PERIOD / 4,
            }
        }
        // sum of three uniforms: bell-shaped, sd = 0.05·amp
        let noise =
            unit(s, series, t, 20) + unit(s, series, t, 21) + unit(s, series, t, 22) - 1.5;
        let angle =
            2.0 * std::f64::consts::PI * ((t + lag) as f64 / PERIOD as f64 + shape.phase);
        shape.level
            + shift
            + shape.slope * t as f64
            + amp * angle.sin()
            + spike
            + 0.1 * amp * noise
    }
}

/// The fixed part of one series' signal.
#[derive(Clone, Copy, Debug)]
pub struct Shape {
    amp: f64,
    phase: f64,
    level: f64,
    slope: f64,
}

/// The key of generated series `id` (stable across seeds).
pub fn key(id: u64) -> SeriesKey {
    SeriesKey::new(format!("host-{:06}/g{}/cpu", id & 0xffff_ffff, id >> 32))
}

/// One generated record plus what the checks need to know about it.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Expect {
    /// Series id (index into the workload's key table, or a churn id).
    pub id: u64,
    /// Tick.
    pub t: u64,
    /// Value sent.
    pub value: f64,
    /// Whether the engine should still be buffering the series' warm-up.
    pub warming: bool,
}

/// Round-robin source over a fixed population: every series gets tick `t`,
/// then every series gets `t + 1`, and so on.
pub struct RoundRobin {
    keys: Vec<SeriesKey>,
    shapes: Vec<Shape>,
    next: usize,
    t: u64,
    /// Where the next forecast call's keys start.
    forecast_at: usize,
}

impl RoundRobin {
    /// Series `0..n` of `gen`'s signal, starting at tick `t`.
    pub fn new(gen: &Gen, n: usize, t: u64) -> Self {
        let shapes = (0..n as u64).map(|id| gen.shape(id)).collect();
        RoundRobin {
            keys: (0..n as u64).map(key).collect(),
            shapes,
            next: 0,
            t,
            forecast_at: 0,
        }
    }

    /// The key table.
    pub fn keys(&self) -> &[SeriesKey] {
        &self.keys
    }

    /// The tick the next record will carry.
    pub fn tick(&self) -> u64 {
        self.t
    }

    /// The next `n` keys of a rotation over the population (every series
    /// is live once set-up is done).
    pub fn forecast_keys(&mut self, n: usize) -> Vec<SeriesKey> {
        let len = self.keys.len();
        let from = self.forecast_at;
        self.forecast_at = (from + n) % len;
        (0..n.min(len)).map(|j| self.keys[(from + j) % len].clone()).collect()
    }

    /// Rewinds to series 0 at tick `t`.
    pub fn rewind(&mut self, t: u64) {
        self.next = 0;
        self.t = t;
    }

    /// The next `size` records, stopping early at the end of tick `until`
    /// (exclusive) when given.
    pub fn batch(
        &mut self,
        gen: &Gen,
        size: usize,
        until: Option<u64>,
    ) -> (Vec<Record>, Vec<Expect>) {
        let mut recs = Vec::with_capacity(size);
        let mut exp = Vec::with_capacity(size);
        while recs.len() < size && until.is_none_or(|u| self.t < u) {
            let id = self.next as u64;
            let value = gen.value_of(&self.shapes[self.next], id, self.t);
            recs.push(Record { key: self.keys[self.next].clone(), t: self.t, value });
            exp.push(Expect { id, t: self.t, value, warming: self.t < WARM });
            self.next += 1;
            if self.next == self.keys.len() {
                self.next = 0;
                self.t += 1;
            }
        }
        (recs, exp)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fleet::net::{encode_frame, NetMessage};

    fn frames(seed: u64) -> Vec<Vec<u8>> {
        let gen = Gen::new(seed, 0.04);
        let mut src = RoundRobin::new(&gen, 300, 0);
        (0..40)
            .map(|_| encode_frame(&NetMessage::IngestBatch(src.batch(&gen, 512, None).0)))
            .collect()
    }

    #[test]
    fn same_seed_gives_byte_identical_batches() {
        assert_eq!(frames(7), frames(7));
        let (a, b) = (frames(7), frames(8));
        assert_eq!(a.len(), b.len());
        assert!(a.iter().zip(&b).all(|(x, y)| x != y), "every batch differs across seeds");
    }

    #[test]
    fn events_are_labelled_with_their_windows() {
        let gen = Gen::new(3, 1.0); // every epoch after the first has an event
        let mut seen = [false; 3];
        for series in 0..40 {
            for epoch in 1..4 {
                let e = gen.event(series, epoch).expect("event_rate 1 always strikes");
                assert!(e.onset >= epoch * EPOCH && e.onset + WINDOW <= (epoch + 1) * EPOCH);
                assert_eq!(gen.window_of(series, e.onset), Some(e.onset));
                assert_eq!(gen.window_of(series, e.onset + WINDOW - 1), Some(e.onset));
                assert_eq!(gen.window_of(series, e.onset + WINDOW), None);
                assert_eq!(gen.window_of(series, e.onset - 1), None);
                seen[e.kind as usize] = true;
                if epoch > 1 {
                    continue;
                }
                // a series' first event moves its value at the onset against
                // a generator whose events never strike
                let clean = Gen::new(3, 0.0);
                let diff = |t| gen.value(series, t) - clean.value(series, t);
                assert_eq!(diff(e.onset - 1), 0.0, "nothing before the first onset");
                match e.kind {
                    EventKind::Spike | EventKind::LevelShift => assert!(diff(e.onset) >= 0.5),
                    EventKind::PhaseShift => {
                        assert!((0..4).any(|k| diff(e.onset + k).abs() > 0.1))
                    }
                }
            }
        }
        assert_eq!(seen, [true; 3], "all three kinds occur");
        // warm-up is clean: no window touches the first epoch
        let g = Gen::new(9, 1.0);
        assert!((0..EPOCH).all(|t| g.window_of(5, t).is_none()));
    }
}
