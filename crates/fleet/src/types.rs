//! Core vocabulary of the fleet engine: keys, records, outputs, stats.

use std::fmt;
use std::sync::Arc;
use tskit::series::DecompPoint;

/// Identifier of one time series in the fleet (metric name, tenant id, …).
///
/// Internally an `Arc<str>`: cloning is a refcount bump, so keys travel
/// cheaply through batches, shard channels, and outputs.
#[derive(Debug, Clone, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct SeriesKey(Arc<str>);

impl SeriesKey {
    /// Creates a key from any string-like value.
    pub fn new(key: impl AsRef<str>) -> Self {
        SeriesKey(Arc::from(key.as_ref()))
    }

    /// The key text.
    pub fn as_str(&self) -> &str {
        &self.0
    }

    /// Stable 64-bit hash (FNV-1a) — the shard router. Deliberately *not*
    /// the std `Hasher`, whose output may change across processes: a
    /// snapshot restored in a new process must route every key to the same
    /// shard arithmetic.
    pub fn stable_hash(&self) -> u64 {
        let mut h: u64 = 0xcbf2_9ce4_8422_2325;
        for b in self.0.as_bytes() {
            h ^= u64::from(*b);
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
        h
    }

    /// The shard this key routes to in an engine with `shards` shards.
    pub fn shard_of(&self, shards: usize) -> usize {
        (self.stable_hash() % shards.max(1) as u64) as usize
    }
}

impl fmt::Display for SeriesKey {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.0)
    }
}

impl From<&str> for SeriesKey {
    fn from(s: &str) -> Self {
        SeriesKey::new(s)
    }
}

impl From<String> for SeriesKey {
    fn from(s: String) -> Self {
        SeriesKey(Arc::from(s.into_boxed_str()))
    }
}

/// One ingested observation.
#[derive(Debug, Clone, PartialEq)]
pub struct Record {
    /// Which series the observation belongs to.
    pub key: SeriesKey,
    /// Event time (engine-wide logical clock; drives TTL eviction).
    pub t: u64,
    /// Observed value.
    pub value: f64,
}

impl Record {
    /// Convenience constructor.
    pub fn new(key: impl Into<SeriesKey>, t: u64, value: f64) -> Self {
        Record { key: key.into(), t, value }
    }
}

/// Per-record engine output, in the order of the ingested batch.
#[derive(Debug, Clone, PartialEq)]
pub struct ScoredPoint {
    /// The record's series.
    pub key: SeriesKey,
    /// The record's event time.
    pub t: u64,
    /// The record's value.
    pub value: f64,
    /// What the engine did with the record.
    pub output: PointOutput,
}

impl ScoredPoint {
    /// The anomaly score, if the point was scored by a live detector.
    pub fn score(&self) -> Option<f64> {
        match &self.output {
            PointOutput::Scored { score, .. } => Some(*score),
            _ => None,
        }
    }

    /// True when the point was scored and flagged anomalous.
    pub fn is_anomaly(&self) -> bool {
        matches!(&self.output, PointOutput::Scored { is_anomaly: true, .. })
    }
}

/// The engine's verdict for one record.
#[derive(Debug, Clone, PartialEq)]
pub enum PointOutput {
    /// The series is still warming up; the raw value was buffered.
    Warming {
        /// Points buffered so far (including this one).
        buffered: usize,
        /// Points needed for admission, once the period is known.
        needed: Option<usize>,
    },
    /// The series is live; the point was decomposed and scored.
    Scored {
        /// Trend/seasonal/residual split of the value.
        point: DecompPoint,
        /// NSigma score of the residual.
        score: f64,
        /// `score > n` (the configured threshold).
        is_anomaly: bool,
    },
    /// The series was rejected (warm-up overflowed with no detectable
    /// period and no fallback); the value was dropped.
    Rejected,
    /// The series is quarantined (its update panicked or produced
    /// non-finite state); the value was dropped and counted. The key can
    /// be re-admitted via
    /// [`crate::FleetEngine::set_admit_options`] or after TTL eviction.
    Quarantined,
}

/// Aggregate engine statistics (see [`ShardStats`] for the per-shard view).
#[derive(Debug, Clone, Default, PartialEq)]
pub struct FleetStats {
    /// Series currently live (admitted, scoring).
    pub live: usize,
    /// Series currently buffering warm-up points.
    pub warming: usize,
    /// Series currently tomb-stoned as rejected.
    pub rejected: usize,
    /// Series currently quarantined (update panicked or produced
    /// non-finite state; points dropped until re-admission).
    pub quarantined: usize,
    /// Series evicted by TTL so far (lifetime count).
    pub evicted: u64,
    /// Series promoted from warm-up to live so far (lifetime count).
    pub admitted: u64,
    /// Records processed so far (lifetime count).
    pub points: u64,
    /// Scored points flagged anomalous so far (lifetime count).
    pub anomalies: u64,
    /// §3.4 shift searches run by live detectors. Diagnostic: summed over
    /// the *current* live series, whose counters reset on snapshot
    /// restore — unlike the lifetime counters above, which carry across.
    pub shift_searches: u64,
    /// Candidate shifts tried across those searches (same caveat).
    pub shift_trials: u64,
    /// Points over the live scorers' z bar (same caveat). With fusion off
    /// this equals the anomaly verdicts those series raised.
    pub z_alarms: u64,
    /// CUSUM-side alarms across live scorers (same caveat; 0 with fusion
    /// off).
    pub cusum_alarms: u64,
    /// Always 0: forecast heads raise no alarms. The field stays so the
    /// stats wire layout keeps its shape; it goes with the benchmark probe
    /// that still reads it.
    pub forecast_alarms: u64,
    /// Trend-innovation-CUSUM-backend alarms (z + CUSUM channels) across
    /// live series (same caveat; 0 without a trend or ensemble backend).
    pub trend_alarms: u64,
    /// WAL re-arm attempts made while durability was degraded (lifetime
    /// count; 0 under [`crate::DurabilityPolicy::CrashStop`]).
    pub wal_retries: u64,
    /// Dead shard workers healed (lifetime count): respawns on a plain
    /// engine (the shard's series re-warm), plus in-place recoveries from
    /// disk under [`crate::DurabilityPolicy::Degrade`]. Always 0 under
    /// [`crate::DurabilityPolicy::CrashStop`], where a dead worker stays
    /// down until [`crate::FleetEngine::open`].
    pub shard_restarts: u64,
    /// Batches accepted while the WAL was down under
    /// [`crate::DurabilityPolicy::Degrade`] — the un-durable window
    /// (lifetime count). These batches are served but will not survive a
    /// crash until durability re-arms with a fresh full snapshot.
    pub undurable_batches: u64,
    /// Series currently resident in the cold tier (spilled to disk,
    /// rehydrated on their next point; 0 without a cold store).
    pub cold_resident: usize,
    /// Series spilled to the cold tier (resets on restore, like the
    /// diagnostic counters).
    pub spills: u64,
    /// Cold series rehydrated on their next point (same caveat).
    pub rehydrations: u64,
    /// Cold-tier I/O or decode failures survived in degraded fashion —
    /// spill skipped or series re-warmed (same caveat).
    pub cold_errors: u64,
    /// Per-shard breakdown.
    pub shards: Vec<ShardStats>,
}

/// One shard's registry and queue statistics.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct ShardStats {
    /// Shard index.
    pub shard: usize,
    /// Live series on this shard.
    pub live: usize,
    /// Warming series on this shard.
    pub warming: usize,
    /// Rejected tombstones on this shard.
    pub rejected: usize,
    /// Quarantined series on this shard.
    pub quarantined: usize,
    /// Messages still queued on the shard's ingest/control channel when
    /// this read was answered — the backlog behind the sub-batch boundary
    /// or sweep poll the read landed on (a sub-batch in progress is
    /// dequeued, so it does not count). It can include wake-up nudges of
    /// reads in flight, this one's among them.
    pub queue_depth: usize,
    /// Series evicted by TTL (lifetime).
    pub evicted: u64,
    /// Series admitted (lifetime).
    pub admitted: u64,
    /// Records processed (lifetime).
    pub points: u64,
    /// Anomalies flagged (lifetime).
    pub anomalies: u64,
    /// Shift searches across this shard's live detectors (resets on
    /// restore; see [`FleetStats::shift_searches`]).
    pub shift_searches: u64,
    /// Candidate shifts tried across those searches.
    pub shift_trials: u64,
    /// z-bar alarms across this shard's live scorers.
    pub z_alarms: u64,
    /// CUSUM alarms across this shard's live scorers.
    pub cusum_alarms: u64,
    /// Always 0 (see [`FleetStats::forecast_alarms`]).
    pub forecast_alarms: u64,
    /// Trend-CUSUM-backend alarms across this shard's live series.
    pub trend_alarms: u64,
    /// Series resident in this shard's cold tier.
    pub cold_resident: usize,
    /// Series this shard spilled to its cold tier (resets on restore).
    pub spills: u64,
    /// Cold series this shard rehydrated (resets on restore).
    pub rehydrations: u64,
    /// Cold-tier failures this shard survived (resets on restore).
    pub cold_errors: u64,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stable_hash_is_stable() {
        // pinned: the router must never change across versions, or restored
        // snapshots would re-route keys mid-stream
        assert_eq!(SeriesKey::new("").stable_hash(), 0xcbf2_9ce4_8422_2325);
        assert_eq!(SeriesKey::new("a").stable_hash(), 0xaf63_dc4c_8601_ec8c);
        let k = SeriesKey::new("metric-42");
        assert_eq!(k.shard_of(8), (k.stable_hash() % 8) as usize);
        assert_eq!(k.shard_of(0), 0);
    }

    #[test]
    fn keys_compare_by_text() {
        assert_eq!(SeriesKey::new("x"), SeriesKey::from("x".to_string()));
        assert!(SeriesKey::new("a") < SeriesKey::new("b"));
        assert_eq!(SeriesKey::new("host-1/cpu").to_string(), "host-1/cpu");
    }
}
