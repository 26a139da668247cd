//! Error type of the fleet engine.

use std::fmt;
use tskit::error::TsError;

/// Errors produced by the engine, the snapshot codec, and the durability
/// layer.
#[derive(Debug, Clone, PartialEq)]
pub enum FleetError {
    /// Invalid [`crate::FleetConfig`].
    Config(String),
    /// Snapshot bytes could not be decoded.
    Codec(CodecError),
    /// A per-series state failed validation during restore.
    State(TsError),
    /// A shard worker is gone (channel closed). A plain engine respawns it
    /// on the next `&mut` call; a durable one stays down until recovery
    /// from disk (see [`crate::persist`]).
    ShardDown,
    /// A bounded shard queue was full and the configured policy is
    /// [`crate::QueuePolicy::Reject`]. The batch was **not** applied (not
    /// even partially) and not logged; retry after draining in-flight
    /// batches with [`crate::FleetEngine::next_batch`].
    Backpressure {
        /// The shard whose queue was full.
        shard: usize,
    },
    /// [`crate::FleetEngine::ingest`] was called while pipelined batches
    /// from [`crate::FleetEngine::submit`] are still in flight; collect
    /// them with [`crate::FleetEngine::next_batch`] first.
    InFlight,
    /// [`crate::FleetEngine::set_admit_options`] targeted a series that
    /// is already past admission (live or rejected): per-series overrides
    /// only apply on the warm-up/admission path, and silently ignoring
    /// them would leave the caller believing the series is re-tuned.
    AlreadyAdmitted {
        /// The targeted series.
        key: crate::types::SeriesKey,
    },
    /// A durability I/O operation (WAL append/fsync, snapshot write)
    /// failed. Durable state on disk is still a consistent prefix. Under
    /// [`crate::DurabilityPolicy::CrashStop`] (the default) the failing
    /// call returns this error: a failed WAL append dispatches nothing to
    /// the shard workers, which stay up, and the log stays poisoned, so
    /// every later submission fails the same way — treat the engine as
    /// poisoned and recover from disk. Under
    /// [`crate::DurabilityPolicy::Degrade`] the engine keeps serving
    /// instead: batches are applied un-durably, the WAL is retried with
    /// capped backoff, and [`crate::FleetStats::undurable_batches`]
    /// surfaces the window.
    Io(String),
    /// Crash recovery could not produce an engine (no valid snapshot, or
    /// an unreadable durability directory).
    Recovery(String),
    /// A forecast request was refused before any shard saw it: the
    /// horizon was zero, or the answer (`keys × horizon` values of 8
    /// bytes) could not fit one [`crate::net::MAX_FRAME`] wire frame.
    InvalidForecast {
        /// Keys requested.
        keys: usize,
        /// Steps ahead requested.
        horizon: usize,
    },
    /// An internal invariant was violated (a registry slot vanished, a
    /// shard returned the wrong number of outputs). The engine state
    /// should be treated as suspect: snapshot what can be snapshotted and
    /// recover from disk.
    Internal(&'static str),
}

impl fmt::Display for FleetError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FleetError::Config(msg) => write!(f, "invalid fleet config: {msg}"),
            FleetError::Codec(e) => write!(f, "snapshot codec: {e}"),
            FleetError::State(e) => write!(f, "series state: {e}"),
            FleetError::ShardDown => write!(f, "a shard worker terminated unexpectedly"),
            FleetError::Backpressure { shard } => {
                write!(f, "shard {shard} queue is full (policy: reject)")
            }
            FleetError::InFlight => {
                write!(f, "pipelined batches in flight; collect them with next_batch first")
            }
            FleetError::AlreadyAdmitted { key } => {
                write!(
                    f,
                    "series {key} is already past admission; overrides only apply \
                           to unknown or still-warming series"
                )
            }
            FleetError::Io(msg) => write!(f, "durability i/o: {msg}"),
            FleetError::Recovery(msg) => write!(f, "crash recovery: {msg}"),
            FleetError::InvalidForecast { keys, horizon } => write!(
                f,
                "forecast of {keys} keys at horizon {horizon} refused: the horizon must be \
                 at least 1 and keys × horizon × 8 bytes at most {}",
                crate::net::MAX_FRAME
            ),
            FleetError::Internal(what) => {
                write!(f, "internal invariant violated: {what}")
            }
        }
    }
}

impl std::error::Error for FleetError {}

impl From<CodecError> for FleetError {
    fn from(e: CodecError) -> Self {
        FleetError::Codec(e)
    }
}

impl From<TsError> for FleetError {
    fn from(e: TsError) -> Self {
        FleetError::State(e)
    }
}

/// Decoding failures of the versioned snapshot format.
#[derive(Debug, Clone, PartialEq)]
pub enum CodecError {
    /// Input ended before the structure was complete.
    Truncated,
    /// The input does not start with the snapshot magic.
    BadMagic,
    /// The format version is neither the current one nor the previous
    /// one — the only two this build reads.
    UnsupportedVersion(u16),
    /// A field held a value outside its domain.
    Invalid(&'static str),
}

impl fmt::Display for CodecError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CodecError::Truncated => write!(f, "truncated input"),
            CodecError::BadMagic => write!(f, "not a fleet snapshot (bad magic)"),
            CodecError::UnsupportedVersion(v) => write!(f, "unsupported snapshot version {v}"),
            CodecError::Invalid(what) => write!(f, "invalid field: {what}"),
        }
    }
}

impl std::error::Error for CodecError {}
