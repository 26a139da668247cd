//! Versioned binary codec for [`FleetSnapshot`] and [`FleetDelta`].
//!
//! Layout: magic `b"OSSTLFLT"`, `u16` version, `u8` kind (0 = full image,
//! 1 = incremental delta), then the fields in a fixed order. All integers
//! are little-endian; `f64` round-trips via [`f64::to_bits`], so restored
//! values are **bit-identical** — the basis of the snapshot determinism
//! guarantee. The format is self-contained: per-series detector configs
//! are encoded with each series, so a snapshot survives engine-level
//! config changes between writer and reader.
//!
//! A delta additionally carries the batch seq of the image it chains
//! onto (`prev_batches`) and a tombstone list of keys removed since then;
//! folding it onto that image ([`FleetDelta::fold_into`]) reproduces the
//! full snapshot bit-exactly.
//!
//! Version policy: writers emit the current version, readers accept the
//! current and the previous one, and anything else is
//! [`CodecError::UnsupportedVersion`]. A previous-version image is
//! rewritten as the current version by its next snapshot. One decoder
//! reads both: a new version never reuses a tag, so the only
//! version-dependent code is the version-window check. v11 retired the
//! DAMP and three-channel ensemble backends: their tags (backend select
//! `1`/`3`, backend state `0`/`2`) are refused as invalid, and the
//! two-channel ensemble took the fresh tags select `4` / state `3`.

use crate::backend::{BackendSelect, BackendSnapshot, SeriesBackend};
use crate::config::{AdmitOptions, ForecastOptions, QueuePolicy};
use crate::engine::{CarriedTotals, FleetDelta, FleetSnapshot};
use crate::error::CodecError;
use crate::series::{ForecastSnapshot, PhaseSnapshot, QuarantineCause};
use crate::shard::SeriesSnapshot;
use crate::types::SeriesKey;
use crate::{FleetConfig, PeriodPolicy};
use oneshotstl::oneshot::InitMethod;
use oneshotstl::system::Lambdas;
use oneshotstl::{
    Fusion, IterSnapshot, NSigmaState, OneShotStlConfig, OneShotStlState, ResidualScorerState,
    ScoreConfig, ShiftPolicy, ShiftPrune, ShiftSearchConfig, SolverState,
};

const MAGIC: &[u8; 8] = b"OSSTLFLT";
// v11: v10 minus the DAMP and three-channel ensemble backend tags, plus
//      the two-channel ensemble under fresh tags.
pub(crate) const VERSION: u16 = 11;
const KIND_FULL: u8 = 0;
const KIND_DELTA: u8 = 1;

/// Serializes a snapshot to the versioned binary format.
pub fn encode(snapshot: &FleetSnapshot) -> Vec<u8> {
    let mut w = Writer::default();
    w.bytes(MAGIC);
    w.u16(VERSION);
    w.u8(KIND_FULL);
    encode_config(&mut w, &snapshot.config);
    w.u64(snapshot.clock);
    w.u64(snapshot.batches);
    encode_totals(&mut w, &snapshot.totals);
    w.u64(snapshot.series.len() as u64);
    for s in &snapshot.series {
        encode_series(&mut w, s);
    }
    w.buf
}

/// Serializes an incremental delta to the versioned binary format.
pub fn encode_delta(delta: &FleetDelta) -> Vec<u8> {
    let mut w = Writer::default();
    w.bytes(MAGIC);
    w.u16(VERSION);
    w.u8(KIND_DELTA);
    encode_config(&mut w, &delta.config);
    w.u64(delta.prev_batches);
    w.u64(delta.clock);
    w.u64(delta.batches);
    encode_totals(&mut w, &delta.totals);
    w.u64(delta.series.len() as u64);
    for s in &delta.series {
        encode_series(&mut w, s);
    }
    w.u64(delta.tombstones.len() as u64);
    for key in &delta.tombstones {
        w.string(key.as_str());
    }
    w.buf
}

/// Reads the `u16` version and accepts only the current and the previous
/// one.
fn decode_version(r: &mut Reader<'_>) -> Result<(), CodecError> {
    let version = r.u16()?;
    if !(VERSION - 1..=VERSION).contains(&version) {
        return Err(CodecError::UnsupportedVersion(version));
    }
    Ok(())
}

/// Checks magic, version, and kind; leaves the reader after the kind byte.
fn decode_header(r: &mut Reader<'_>, want_kind: u8) -> Result<(), CodecError> {
    if r.take(8)? != MAGIC {
        return Err(CodecError::BadMagic);
    }
    decode_version(r)?;
    let kind = r.u8()?;
    if kind != want_kind {
        return Err(CodecError::Invalid("snapshot kind (full vs delta)"));
    }
    Ok(())
}

/// Deserializes [`encode`] output (current or previous version).
pub fn decode(bytes: &[u8]) -> Result<FleetSnapshot, CodecError> {
    let mut r = Reader { data: bytes, pos: 0 };
    decode_header(&mut r, KIND_FULL)?;
    let config = decode_config(&mut r)?;
    let clock = r.u64()?;
    let batches = r.u64()?;
    let totals = decode_totals(&mut r)?;
    let n = r.u64()? as usize;
    let mut series = Vec::with_capacity(n.min(1 << 20));
    for _ in 0..n {
        series.push(decode_series(&mut r)?);
    }
    if r.pos != r.data.len() {
        return Err(CodecError::Invalid("trailing bytes after snapshot"));
    }
    Ok(FleetSnapshot { config, clock, batches, totals, series })
}

/// Deserializes [`encode_delta`] output (current or previous version).
pub fn decode_delta(bytes: &[u8]) -> Result<FleetDelta, CodecError> {
    let mut r = Reader { data: bytes, pos: 0 };
    decode_header(&mut r, KIND_DELTA)?;
    let config = decode_config(&mut r)?;
    let prev_batches = r.u64()?;
    let clock = r.u64()?;
    let batches = r.u64()?;
    let totals = decode_totals(&mut r)?;
    let n = r.u64()? as usize;
    let mut series = Vec::with_capacity(n.min(1 << 20));
    for _ in 0..n {
        series.push(decode_series(&mut r)?);
    }
    let n_dead = r.u64()? as usize;
    let mut tombstones = Vec::with_capacity(n_dead.min(1 << 20));
    for _ in 0..n_dead {
        tombstones.push(SeriesKey::new(r.string()?));
    }
    if r.pos != r.data.len() {
        return Err(CodecError::Invalid("trailing bytes after delta"));
    }
    Ok(FleetDelta { config, prev_batches, clock, batches, totals, series, tombstones })
}

/// Serializes one series for the cold tier: `u16` codec version, then the
/// standard series encoding.
pub(crate) fn encode_series_blob(s: &SeriesSnapshot) -> Vec<u8> {
    let mut w = Writer::default();
    w.u16(VERSION);
    encode_series(&mut w, s);
    w.buf
}

/// Deserializes [`encode_series_blob`] output (current or previous
/// version, so a cold store written by the previous build stays readable).
pub(crate) fn decode_series_blob(bytes: &[u8]) -> Result<SeriesSnapshot, CodecError> {
    let mut r = Reader { data: bytes, pos: 0 };
    decode_version(&mut r)?;
    let s = decode_series(&mut r)?;
    if r.pos != r.data.len() {
        return Err(CodecError::Invalid("trailing bytes after series blob"));
    }
    Ok(s)
}

/// Reads just the chain header of a delta image — `(prev_batches,
/// batches)` — without decoding the series body. WAL-segment compaction
/// uses this to decide which on-disk deltas keep a recovery path alive
/// for each retained base snapshot.
pub(crate) fn decode_delta_chain(bytes: &[u8]) -> Result<(u64, u64), CodecError> {
    let mut r = Reader { data: bytes, pos: 0 };
    decode_header(&mut r, KIND_DELTA)?;
    let _config = decode_config(&mut r)?;
    let prev_batches = r.u64()?;
    let _clock = r.u64()?;
    let batches = r.u64()?;
    Ok((prev_batches, batches))
}

fn encode_totals(w: &mut Writer, t: &CarriedTotals) {
    w.u64(t.evicted);
    w.u64(t.admitted);
    w.u64(t.points);
    w.u64(t.anomalies);
    w.u64(t.wal_retries);
    w.u64(t.shard_restarts);
    w.u64(t.undurable_batches);
}

fn decode_totals(r: &mut Reader<'_>) -> Result<CarriedTotals, CodecError> {
    Ok(CarriedTotals {
        evicted: r.u64()?,
        admitted: r.u64()?,
        points: r.u64()?,
        anomalies: r.u64()?,
        wal_retries: r.u64()?,
        shard_restarts: r.u64()?,
        undurable_batches: r.u64()?,
    })
}

fn encode_config(w: &mut Writer, c: &FleetConfig) {
    w.u32(c.shards as u32);
    w.u32(c.init_cycles as u32);
    match &c.period {
        PeriodPolicy::Fixed(t) => {
            w.u8(0);
            w.u32(*t as u32);
        }
        PeriodPolicy::Detect { min_period, max_period, min_acf, fallback } => {
            w.u8(1);
            w.u32(*min_period as u32);
            w.u32(*max_period as u32);
            w.f64(*min_acf);
            w.opt_u32(fallback.map(|v| v as u32));
        }
    }
    w.opt_u32(c.max_warmup.map(|v| v as u32));
    w.f64(c.nsigma);
    w.opt_u64(c.ttl);
    w.opt_u64(c.max_clock_step);
    w.opt_u64(c.queue_capacity.map(|v| v as u64));
    w.u8(match c.queue_policy {
        QueuePolicy::Block => 0,
        QueuePolicy::Reject => 1,
    });
    encode_detector_config(w, &c.detector);
    encode_score_config(w, &c.score);
    encode_forecast_options(w, &c.forecast);
    encode_backend_select(w, &c.backend);
    w.opt_u64(c.spill_after);
}

fn decode_config(r: &mut Reader<'_>) -> Result<FleetConfig, CodecError> {
    let shards = r.u32()? as usize;
    let init_cycles = r.u32()? as usize;
    let period = match r.u8()? {
        0 => PeriodPolicy::Fixed(r.u32()? as usize),
        1 => PeriodPolicy::Detect {
            min_period: r.u32()? as usize,
            max_period: r.u32()? as usize,
            min_acf: r.f64()?,
            fallback: r.opt_u32()?.map(|v| v as usize),
        },
        _ => return Err(CodecError::Invalid("period policy tag")),
    };
    let max_warmup = r.opt_u32()?.map(|v| v as usize);
    let nsigma = r.f64()?;
    let ttl = r.opt_u64()?;
    let max_clock_step = r.opt_u64()?;
    let queue_capacity = r.opt_u64()?.map(|v| v as usize);
    let queue_policy = match r.u8()? {
        0 => QueuePolicy::Block,
        1 => QueuePolicy::Reject,
        _ => return Err(CodecError::Invalid("queue policy tag")),
    };
    let detector = decode_detector_config(r)?;
    let score = decode_score_config(r)?;
    let forecast = decode_forecast_options(r)?;
    let backend = decode_backend_select(r)?;
    let spill_after = r.opt_u64()?;
    // same smuggling stance as every other config field: no writer can
    // produce the degenerate thresholds the API boundary rejects
    if spill_after == Some(0) {
        return Err(CodecError::Invalid("spill_after"));
    }
    if let (Some(spill), Some(t)) = (spill_after, ttl) {
        if spill >= t {
            return Err(CodecError::Invalid("spill_after >= ttl"));
        }
    }
    Ok(FleetConfig {
        shards,
        init_cycles,
        period,
        max_warmup,
        nsigma,
        ttl,
        max_clock_step,
        queue_capacity,
        queue_policy,
        detector,
        score,
        forecast,
        backend,
        spill_after,
    })
}

/// `u8` variant tag, then the variant's score config. Tags `1` and `3`
/// (the DAMP and three-channel ensemble selections before v11) are
/// retired, never reused.
fn encode_backend_select(w: &mut Writer, b: &BackendSelect) {
    match b {
        BackendSelect::Fused => w.u8(0),
        BackendSelect::TrendCusum(s) => {
            w.u8(2);
            encode_score_config(w, s);
        }
        BackendSelect::Ensemble(s) => {
            w.u8(4);
            encode_score_config(w, s);
        }
    }
}

fn decode_backend_select(r: &mut Reader<'_>) -> Result<BackendSelect, CodecError> {
    // the score config decoder refuses what the API boundary rejects, so
    // a decoded selection is always valid
    Ok(match r.u8()? {
        0 => BackendSelect::Fused,
        2 => BackendSelect::TrendCusum(decode_score_config(r)?),
        4 => BackendSelect::Ensemble(decode_score_config(r)?),
        _ => return Err(CodecError::Invalid("backend select tag")),
    })
}

/// `u8` fusion tag, then `f64` k / h / hold-decay.
fn encode_score_config(w: &mut Writer, s: &ScoreConfig) {
    w.u8(match s.fusion {
        Fusion::Off => 0,
        Fusion::Cusum => 1,
        Fusion::Max => 2,
    });
    w.f64(s.cusum_k);
    w.f64(s.cusum_h);
    w.f64(s.hold_decay);
}

fn decode_score_config(r: &mut Reader<'_>) -> Result<ScoreConfig, CodecError> {
    let fusion = match r.u8()? {
        0 => Fusion::Off,
        1 => Fusion::Cusum,
        2 => Fusion::Max,
        _ => return Err(CodecError::Invalid("fusion tag")),
    };
    let config =
        ScoreConfig { cusum_k: r.f64()?, cusum_h: r.f64()?, hold_decay: r.f64()?, fusion };
    // a corrupted or externally-produced image must not smuggle in
    // degenerate values the API boundary rejects (non-finite k/h,
    // hold_decay >= 1, ...)
    if config.validate().is_err() {
        return Err(CodecError::Invalid("score config"));
    }
    Ok(config)
}

/// `u8` enabled, `f64` damping, `u32` error window, `u8` fusion flag,
/// `f64` sMAPE alarm bar.
fn encode_forecast_options(w: &mut Writer, f: &ForecastOptions) {
    w.u8(f.enabled as u8);
    w.f64(f.damping);
    w.u32(f.error_window);
    w.u8(f.error_fusion as u8);
    w.f64(f.smape_alarm);
}

fn decode_forecast_options(r: &mut Reader<'_>) -> Result<ForecastOptions, CodecError> {
    let enabled = match r.u8()? {
        0 => false,
        1 => true,
        _ => return Err(CodecError::Invalid("forecast enabled flag")),
    };
    let damping = r.f64()?;
    let error_window = r.u32()?;
    let error_fusion = match r.u8()? {
        0 => false,
        1 => true,
        _ => return Err(CodecError::Invalid("forecast fusion flag")),
    };
    let options =
        ForecastOptions { enabled, damping, error_window, error_fusion, smape_alarm: r.f64()? };
    // same smuggling stance as the score config: a crafted image must not
    // restore values the API boundary rejects (φ outside [0, 1], a
    // zero-capacity error window, a non-positive alarm bar)
    if options.validate().is_err() {
        return Err(CodecError::Invalid("forecast options"));
    }
    Ok(options)
}

/// The forecast-head state of a live series — its options, the
/// pending one-step prediction awaiting its truth, and the rolling error
/// tracker rings.
fn encode_forecast_state(w: &mut Writer, f: &ForecastSnapshot) {
    encode_forecast_options(w, &f.options);
    w.f64(f.pending);
    w.u8(f.has_pending as u8);
    w.vec_f64(&f.tracker.abs);
    w.vec_f64(&f.tracker.sm);
    w.u32(f.tracker.head);
    w.u32(f.tracker.len);
    w.f64(f.tracker.sum_abs);
    w.f64(f.tracker.sum_sm);
}

fn decode_forecast_state(r: &mut Reader<'_>) -> Result<ForecastSnapshot, CodecError> {
    let options = decode_forecast_options(r)?;
    let pending = r.f64()?;
    let has_pending = match r.u8()? {
        0 => false,
        1 => true,
        _ => return Err(CodecError::Invalid("forecast pending flag")),
    };
    // a NaN pending prediction would poison the tracker at the next point
    if has_pending && !pending.is_finite() {
        return Err(CodecError::Invalid("forecast pending prediction"));
    }
    let tracker = forecast::RollingErrorState {
        abs: r.vec_f64()?,
        sm: r.vec_f64()?,
        head: r.u32()?,
        len: r.u32()?,
        sum_abs: r.f64()?,
        sum_sm: r.f64()?,
    };
    // the tracker's own validation rejects ragged rings, out-of-range
    // cursors, negative error terms, and non-finite sums — a NaN sum
    // would poison every sMAPE read after restore
    if forecast::RollingError::from_state(tracker.clone()).is_err() {
        return Err(CodecError::Invalid("forecast tracker state"));
    }
    Ok(ForecastSnapshot { options, pending, has_pending, tracker })
}

/// The backend state of a live series — `u8` variant tag, then the
/// trend-CUSUM state. Tags `0` and `2` (the DAMP and three-channel
/// ensemble states before v11) are retired, never reused.
fn encode_backend_state(w: &mut Writer, s: &BackendSnapshot) {
    let (tag, trend) = match s {
        BackendSnapshot::TrendCusum(t) => (1, t),
        BackendSnapshot::Ensemble(t) => (3, t),
    };
    w.u8(tag);
    encode_trend_cusum_state(w, trend);
}

fn decode_backend_state(r: &mut Reader<'_>) -> Result<BackendSnapshot, CodecError> {
    let snap = match r.u8()? {
        1 => BackendSnapshot::TrendCusum(decode_trend_cusum_state(r)?),
        3 => BackendSnapshot::Ensemble(decode_trend_cusum_state(r)?),
        _ => return Err(CodecError::Invalid("backend state tag")),
    };
    // the restore path's own validation is the single home of the range
    // checks — running it here keeps a crafted image from smuggling state
    // the API boundary rejects, without duplicating the rules
    if SeriesBackend::from_snapshot(snap.clone()).is_err() {
        return Err(CodecError::Invalid("backend state"));
    }
    Ok(snap)
}

fn encode_trend_cusum_state(w: &mut Writer, s: &oneshotstl::TrendCusumState) {
    encode_scorer(w, &s.scorer);
    w.f64(s.prev);
    w.u8(s.has_prev as u8);
    w.u32(s.warmup_left);
}

fn decode_trend_cusum_state(
    r: &mut Reader<'_>,
) -> Result<oneshotstl::TrendCusumState, CodecError> {
    let scorer = decode_scorer(r)?;
    let prev = r.f64()?;
    let has_prev = match r.u8()? {
        0 => false,
        1 => true,
        _ => return Err(CodecError::Invalid("trend CUSUM prev flag")),
    };
    Ok(oneshotstl::TrendCusumState { scorer, prev, has_prev, warmup_left: r.u32()? })
}

fn encode_detector_config(w: &mut Writer, c: &OneShotStlConfig) {
    w.f64(c.lambdas.lambda1);
    w.f64(c.lambdas.lambda2);
    w.f64(c.lambdas.anchor);
    w.u32(c.iters as u32);
    w.u32(c.shift_window as u32);
    w.f64(c.nsigma);
    w.u8(match c.shift_policy {
        ShiftPolicy::Cumulative => 0,
        ShiftPolicy::Transient => 1,
    });
    w.f64(c.shift_accept_ratio);
    w.u8(match c.init {
        InitMethod::Stl => 0,
        InitMethod::JointStl => 1,
    });
    w.f64(c.eps);
    encode_shift_search(w, &c.shift_search);
}

/// `u8` tag (0 = Off, 1 = TopK) then the `u32` k for TopK.
fn encode_shift_search(w: &mut Writer, s: &ShiftSearchConfig) {
    match s.prune {
        ShiftPrune::Off => w.u8(0),
        ShiftPrune::TopK(k) => {
            w.u8(1);
            w.u32(k as u32);
        }
    }
}

fn decode_shift_search(r: &mut Reader<'_>) -> Result<ShiftSearchConfig, CodecError> {
    Ok(match r.u8()? {
        0 => ShiftSearchConfig::exhaustive(),
        1 => {
            let k = r.u32()? as usize;
            // no fleet writer can produce TopK(0) (both the engine config
            // and per-series overrides reject it), so a decoded one is a
            // crafted/corrupted image smuggling in the degenerate
            // baseline-only search — refuse it on every path, including
            // live series' embedded detector configs
            if k == 0 {
                return Err(CodecError::Invalid("shift search TopK(0)"));
            }
            ShiftSearchConfig::top_k(k)
        }
        _ => return Err(CodecError::Invalid("shift search prune tag")),
    })
}

fn decode_detector_config(r: &mut Reader<'_>) -> Result<OneShotStlConfig, CodecError> {
    let lambdas = Lambdas { lambda1: r.f64()?, lambda2: r.f64()?, anchor: r.f64()? };
    let iters = r.u32()? as usize;
    let shift_window = r.u32()? as usize;
    let nsigma = r.f64()?;
    let shift_policy = match r.u8()? {
        0 => ShiftPolicy::Cumulative,
        1 => ShiftPolicy::Transient,
        _ => return Err(CodecError::Invalid("shift policy tag")),
    };
    let shift_accept_ratio = r.f64()?;
    let init = match r.u8()? {
        0 => InitMethod::Stl,
        1 => InitMethod::JointStl,
        _ => return Err(CodecError::Invalid("init method tag")),
    };
    let eps = r.f64()?;
    let shift_search = decode_shift_search(r)?;
    Ok(OneShotStlConfig {
        lambdas,
        iters,
        shift_window,
        nsigma,
        shift_policy,
        shift_search,
        shift_accept_ratio,
        init,
        eps,
    })
}

/// Pending per-series admission overrides of a warming series — also the
/// payload of the network protocol's admit-options request.
pub(crate) fn encode_admit_options(w: &mut Writer, o: &AdmitOptions) {
    w.opt_f64(o.lambda);
    w.opt_f64(o.nsigma);
    w.opt_u32(o.period.map(|v| v as u32));
    match &o.shift_search {
        None => w.u8(0),
        Some(ss) => {
            w.u8(1);
            encode_shift_search(w, ss);
        }
    }
    match &o.score {
        None => w.u8(0),
        Some(sc) => {
            w.u8(1);
            encode_score_config(w, sc);
        }
    }
    match &o.forecast {
        None => w.u8(0),
        Some(f) => {
            w.u8(1);
            encode_forecast_options(w, f);
        }
    }
    match &o.backend {
        None => w.u8(0),
        Some(b) => {
            w.u8(1);
            encode_backend_select(w, b);
        }
    }
}

pub(crate) fn decode_admit_options(r: &mut Reader<'_>) -> Result<AdmitOptions, CodecError> {
    let lambda = r.opt_f64()?;
    let nsigma = r.opt_f64()?;
    let period = r.opt_u32()?.map(|v| v as usize);
    let shift_search = match r.u8()? {
        0 => None,
        1 => Some(decode_shift_search(r)?),
        _ => return Err(CodecError::Invalid("option tag")),
    };
    let score = match r.u8()? {
        0 => None,
        1 => Some(decode_score_config(r)?),
        _ => return Err(CodecError::Invalid("option tag")),
    };
    let forecast = match r.u8()? {
        0 => None,
        1 => Some(decode_forecast_options(r)?),
        _ => return Err(CodecError::Invalid("option tag")),
    };
    let backend = match r.u8()? {
        0 => None,
        1 => Some(decode_backend_select(r)?),
        _ => return Err(CodecError::Invalid("option tag")),
    };
    let opts = AdmitOptions { lambda, nsigma, period, shift_search, score, forecast, backend };
    // a corrupted or externally-produced image must not smuggle in the
    // degenerate values the API boundary rejects (TopK(0), non-finite or
    // non-positive λ/nsigma, period < 2)
    if opts.validate().is_err() {
        return Err(CodecError::Invalid("admit options"));
    }
    Ok(opts)
}

fn encode_series(w: &mut Writer, s: &SeriesSnapshot) {
    w.string(s.key.as_str());
    w.u64(s.last_seen);
    match &s.phase {
        PhaseSnapshot::Warming { values, period, last_attempt, overrides } => {
            w.u8(0);
            w.vec_f64(values);
            w.opt_u32(period.map(|v| v as u32));
            w.u64(*last_attempt as u64);
            encode_admit_options(w, overrides);
        }
        PhaseSnapshot::Live { decomposer, scorer, forecast, backend } => {
            w.u8(1);
            encode_decomposer(w, decomposer);
            encode_scorer(w, scorer);
            match forecast {
                None => w.u8(0),
                Some(f) => {
                    w.u8(1);
                    encode_forecast_state(w, f);
                }
            }
            match backend {
                None => w.u8(0),
                Some(b) => {
                    w.u8(1);
                    encode_backend_state(w, b);
                }
            }
        }
        PhaseSnapshot::Rejected => w.u8(2),
        PhaseSnapshot::Quarantined { cause, dropped } => {
            w.u8(3);
            w.u8(match cause {
                QuarantineCause::NonFinite => 0,
                QuarantineCause::Panic => 1,
            });
            w.u64(*dropped);
        }
    }
}

fn decode_series(r: &mut Reader<'_>) -> Result<SeriesSnapshot, CodecError> {
    let key = SeriesKey::new(r.string()?);
    let last_seen = r.u64()?;
    let phase = match r.u8()? {
        0 => PhaseSnapshot::Warming {
            values: r.vec_f64()?,
            period: r.opt_u32()?.map(|v| v as usize),
            last_attempt: r.u64()? as usize,
            overrides: decode_admit_options(r)?,
        },
        1 => PhaseSnapshot::Live {
            decomposer: decode_decomposer(r)?,
            scorer: decode_scorer(r)?,
            forecast: match r.u8()? {
                0 => None,
                1 => Some(decode_forecast_state(r)?),
                _ => return Err(CodecError::Invalid("forecast state tag")),
            },
            backend: match r.u8()? {
                0 => None,
                1 => Some(decode_backend_state(r)?),
                _ => return Err(CodecError::Invalid("backend presence tag")),
            },
        },
        2 => PhaseSnapshot::Rejected,
        3 => PhaseSnapshot::Quarantined {
            cause: match r.u8()? {
                0 => QuarantineCause::NonFinite,
                1 => QuarantineCause::Panic,
                _ => return Err(CodecError::Invalid("quarantine cause")),
            },
            dropped: r.u64()?,
        },
        _ => return Err(CodecError::Invalid("series phase tag")),
    };
    Ok(SeriesSnapshot { key, last_seen, phase })
}

fn encode_decomposer(w: &mut Writer, s: &OneShotStlState) {
    encode_detector_config(w, &s.config);
    w.u64(s.period);
    w.u64(s.t);
    w.u64(s.m);
    w.i64(s.shift);
    w.vec_f64(&s.v);
    w.f64_pair(s.y_hist);
    w.f64_pair(s.u_hist);
    w.u32(s.iters.len() as u32);
    for it in &s.iters {
        encode_solver(w, &it.solver);
        w.f64_pair(it.pw_hist);
        w.f64_pair(it.qw_hist);
        w.f64_pair(it.tau_hist);
    }
    encode_nsigma(w, &s.nsigma);
    w.u8(s.initialized as u8);
}

fn decode_decomposer(r: &mut Reader<'_>) -> Result<OneShotStlState, CodecError> {
    let config = decode_detector_config(r)?;
    let period = r.u64()?;
    let t = r.u64()?;
    let m = r.u64()?;
    let shift = r.i64()?;
    let v = r.vec_f64()?;
    let y_hist = r.f64_pair()?;
    let u_hist = r.f64_pair()?;
    let n_iters = r.u32()? as usize;
    let mut iters = Vec::with_capacity(n_iters.min(1 << 10));
    for _ in 0..n_iters {
        let solver = decode_solver(r)?;
        iters.push(IterSnapshot {
            solver,
            pw_hist: r.f64_pair()?,
            qw_hist: r.f64_pair()?,
            tau_hist: r.f64_pair()?,
        });
    }
    let nsigma = decode_nsigma(r)?;
    let initialized = match r.u8()? {
        0 => false,
        1 => true,
        _ => return Err(CodecError::Invalid("initialized flag")),
    };
    Ok(OneShotStlState {
        config,
        period,
        t,
        m,
        shift,
        v,
        y_hist,
        u_hist,
        iters,
        nsigma,
        initialized,
    })
}

fn encode_solver(w: &mut Writer, s: &SolverState) {
    match s {
        SolverState::Warmup { y, u, pw, qw } => {
            w.u8(0);
            w.vec_f64(y);
            w.vec_f64(u);
            w.vec_f64(pw);
            w.vec_f64(qw);
        }
        SolverState::Steady { m, lo, dd, zo } => {
            w.u8(1);
            w.u64(*m);
            w.vec_f64(lo);
            w.vec_f64(dd);
            w.vec_f64(zo);
        }
    }
}

fn decode_solver(r: &mut Reader<'_>) -> Result<SolverState, CodecError> {
    match r.u8()? {
        0 => Ok(SolverState::Warmup {
            y: r.vec_f64()?,
            u: r.vec_f64()?,
            pw: r.vec_f64()?,
            qw: r.vec_f64()?,
        }),
        1 => Ok(SolverState::Steady {
            m: r.u64()?,
            lo: r.vec_f64()?,
            dd: r.vec_f64()?,
            zo: r.vec_f64()?,
        }),
        _ => Err(CodecError::Invalid("solver state tag")),
    }
}

fn encode_nsigma(w: &mut Writer, s: &NSigmaState) {
    w.f64(s.n);
    w.u64(s.count);
    w.f64(s.sum);
    w.f64(s.sum_sq);
}

/// Shared by the decomposer, the residual scorer, and the trend CUSUM.
fn decode_nsigma(r: &mut Reader<'_>) -> Result<NSigmaState, CodecError> {
    let s = NSigmaState { n: r.f64()?, count: r.u64()?, sum: r.f64()?, sum_sq: r.f64()? };
    // a NaN bar never alarms (`z > NaN` is false), and a non-finite sum
    // poisons every later z-score: the series would silently go quiet
    if !(s.n.is_finite() && s.n > 0.0) {
        return Err(CodecError::Invalid("nsigma bar"));
    }
    if !(s.sum.is_finite() && s.sum_sq.is_finite()) {
        return Err(CodecError::Invalid("nsigma sums"));
    }
    Ok(s)
}

/// The full task-level residual scorer of a live series.
fn encode_scorer(w: &mut Writer, s: &ResidualScorerState) {
    encode_score_config(w, &s.config);
    encode_nsigma(w, &s.nsigma);
    w.f64(s.s_pos);
    w.f64(s.s_neg);
    w.f64(s.hold);
}

fn decode_scorer(r: &mut Reader<'_>) -> Result<ResidualScorerState, CodecError> {
    let config = decode_score_config(r)?;
    let nsigma = decode_nsigma(r)?;
    let s_pos = r.f64()?;
    let s_neg = r.f64()?;
    let hold = r.f64()?;
    // mirror the config-level smuggling checks for the dynamic state:
    // a NaN accumulator would silently disable one CUSUM side forever
    // (f64::max(NaN, x) returns x), and no writer can produce values
    // outside the update loop's clamp ranges
    let bar = 2.0 * config.cusum_h;
    for s in [s_pos, s_neg] {
        if !(s.is_finite() && (0.0..=bar).contains(&s)) {
            return Err(CodecError::Invalid("scorer accumulator"));
        }
    }
    if !(hold.is_finite() && hold >= 0.0) {
        return Err(CodecError::Invalid("scorer hold"));
    }
    Ok(ResidualScorerState { config, nsigma, s_pos, s_neg, hold })
}

/// Little-endian byte sink. Shared with the WAL record format
/// ([`crate::wal`]), so both on-disk layouts follow one set of
/// conventions: LE integers, bit-pattern `f64`s, `u32`-length strings.
#[derive(Default)]
pub(crate) struct Writer {
    pub(crate) buf: Vec<u8>,
}

impl Writer {
    fn bytes(&mut self, b: &[u8]) {
        self.buf.extend_from_slice(b);
    }
    pub(crate) fn u8(&mut self, v: u8) {
        self.buf.push(v);
    }
    pub(crate) fn u16(&mut self, v: u16) {
        self.bytes(&v.to_le_bytes());
    }
    pub(crate) fn u32(&mut self, v: u32) {
        self.bytes(&v.to_le_bytes());
    }
    pub(crate) fn u64(&mut self, v: u64) {
        self.bytes(&v.to_le_bytes());
    }
    fn i64(&mut self, v: i64) {
        self.bytes(&v.to_le_bytes());
    }
    pub(crate) fn f64(&mut self, v: f64) {
        self.u64(v.to_bits());
    }
    fn f64_pair(&mut self, v: [f64; 2]) {
        self.f64(v[0]);
        self.f64(v[1]);
    }
    pub(crate) fn string(&mut self, s: &str) {
        self.u32(s.len() as u32);
        self.bytes(s.as_bytes());
    }
    fn opt_u32(&mut self, v: Option<u32>) {
        match v {
            None => self.u8(0),
            Some(x) => {
                self.u8(1);
                self.u32(x);
            }
        }
    }
    fn opt_u64(&mut self, v: Option<u64>) {
        match v {
            None => self.u8(0),
            Some(x) => {
                self.u8(1);
                self.u64(x);
            }
        }
    }
    fn opt_f64(&mut self, v: Option<f64>) {
        match v {
            None => self.u8(0),
            Some(x) => {
                self.u8(1);
                self.f64(x);
            }
        }
    }
    fn vec_f64(&mut self, v: &[f64]) {
        self.u64(v.len() as u64);
        for &x in v {
            self.f64(x);
        }
    }
}

/// Little-endian byte source with bounds checking (the [`Writer`]'s dual;
/// also shared with [`crate::wal`]).
pub(crate) struct Reader<'a> {
    pub(crate) data: &'a [u8],
    pub(crate) pos: usize,
}

impl<'a> Reader<'a> {
    /// Bytes left to read — lets a decoder sanity-check a declared element
    /// count against the space it would need before allocating for it.
    pub(crate) fn remaining(&self) -> usize {
        self.data.len().saturating_sub(self.pos)
    }
    fn take(&mut self, n: usize) -> Result<&'a [u8], CodecError> {
        // a crafted length can push `pos + n` past usize::MAX
        let end = self.pos.checked_add(n).ok_or(CodecError::Truncated)?;
        let out = self.data.get(self.pos..end).ok_or(CodecError::Truncated)?;
        self.pos = end;
        Ok(out)
    }
    pub(crate) fn u8(&mut self) -> Result<u8, CodecError> {
        Ok(self.take(1)?[0])
    }
    pub(crate) fn u16(&mut self) -> Result<u16, CodecError> {
        Ok(u16::from_le_bytes(self.take(2)?.try_into().unwrap()))
    }
    pub(crate) fn u32(&mut self) -> Result<u32, CodecError> {
        Ok(u32::from_le_bytes(self.take(4)?.try_into().unwrap()))
    }
    pub(crate) fn u64(&mut self) -> Result<u64, CodecError> {
        Ok(u64::from_le_bytes(self.take(8)?.try_into().unwrap()))
    }
    fn i64(&mut self) -> Result<i64, CodecError> {
        Ok(i64::from_le_bytes(self.take(8)?.try_into().unwrap()))
    }
    pub(crate) fn f64(&mut self) -> Result<f64, CodecError> {
        Ok(f64::from_bits(self.u64()?))
    }
    fn f64_pair(&mut self) -> Result<[f64; 2], CodecError> {
        Ok([self.f64()?, self.f64()?])
    }
    fn opt_u32(&mut self) -> Result<Option<u32>, CodecError> {
        match self.u8()? {
            0 => Ok(None),
            1 => Ok(Some(self.u32()?)),
            _ => Err(CodecError::Invalid("option tag")),
        }
    }
    fn opt_u64(&mut self) -> Result<Option<u64>, CodecError> {
        match self.u8()? {
            0 => Ok(None),
            1 => Ok(Some(self.u64()?)),
            _ => Err(CodecError::Invalid("option tag")),
        }
    }
    fn opt_f64(&mut self) -> Result<Option<f64>, CodecError> {
        match self.u8()? {
            0 => Ok(None),
            1 => Ok(Some(self.f64()?)),
            _ => Err(CodecError::Invalid("option tag")),
        }
    }
    pub(crate) fn string(&mut self) -> Result<&'a str, CodecError> {
        let n = self.u32()? as usize;
        std::str::from_utf8(self.take(n)?).map_err(|_| CodecError::Invalid("utf-8 string"))
    }
    fn vec_f64(&mut self) -> Result<Vec<f64>, CodecError> {
        let n = self.u64()? as usize;
        let raw = self.take(n.checked_mul(8).ok_or(CodecError::Truncated)?)?;
        Ok(raw
            .chunks_exact(8)
            .map(|c| f64::from_bits(u64::from_le_bytes(c.try_into().unwrap())))
            .collect())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_snapshot() -> FleetSnapshot {
        // a value with a messy bit pattern to catch any lossy encode
        let messy = std::f64::consts::PI * 1e-17;
        FleetSnapshot {
            config: FleetConfig {
                queue_capacity: Some(16),
                queue_policy: QueuePolicy::Reject,
                forecast: ForecastOptions {
                    enabled: true,
                    damping: 0.9,
                    error_window: 32,
                    error_fusion: true,
                    smape_alarm: 1.25,
                },
                backend: BackendSelect::TrendCusum(ScoreConfig {
                    cusum_k: 0.5,
                    cusum_h: 6.0,
                    hold_decay: 0.25,
                    fusion: Fusion::Max,
                }),
                ..FleetConfig::fixed_period(24)
            },
            clock: 99,
            batches: 7,
            totals: CarriedTotals {
                evicted: 1,
                admitted: 2,
                points: 300,
                anomalies: 4,
                wal_retries: 6,
                shard_restarts: 1,
                undurable_batches: 2,
            },
            series: vec![
                SeriesSnapshot {
                    key: SeriesKey::new("warm"),
                    last_seen: 42,
                    phase: PhaseSnapshot::Warming {
                        values: vec![1.0, -2.5, messy],
                        period: Some(24),
                        last_attempt: 3,
                        overrides: AdmitOptions {
                            lambda: Some(0.25),
                            nsigma: Some(4.0),
                            period: Some(24),
                            shift_search: Some(ShiftSearchConfig::top_k(7)),
                            score: Some(ScoreConfig {
                                cusum_k: 0.75,
                                cusum_h: 9.0,
                                hold_decay: 0.5,
                                fusion: Fusion::Cusum,
                            }),
                            forecast: Some(ForecastOptions {
                                enabled: true,
                                damping: 0.5,
                                error_window: 16,
                                error_fusion: false,
                                smape_alarm: 0.8,
                            }),
                            backend: Some(BackendSelect::TrendCusum(ScoreConfig::default())),
                        },
                    },
                },
                SeriesSnapshot {
                    key: SeriesKey::new("dead"),
                    last_seen: 7,
                    phase: PhaseSnapshot::Rejected,
                },
            ],
        }
    }

    #[test]
    fn delta_roundtrip_and_fold_reproduce_the_full_image() {
        let base = sample_snapshot();
        // the delta updates "warm", removes "dead", and adds "new"
        let updated = SeriesSnapshot {
            key: SeriesKey::new("warm"),
            last_seen: 90,
            phase: PhaseSnapshot::Warming {
                values: vec![4.0, 5.0],
                period: Some(24),
                last_attempt: 5,
                overrides: AdmitOptions::default(),
            },
        };
        let added = SeriesSnapshot {
            key: SeriesKey::new("new"),
            last_seen: 91,
            phase: PhaseSnapshot::Rejected,
        };
        let delta = FleetDelta {
            config: base.config.clone(),
            prev_batches: base.batches,
            clock: 120,
            batches: 9,
            totals: CarriedTotals {
                evicted: 2,
                admitted: 3,
                points: 400,
                anomalies: 5,
                ..CarriedTotals::default()
            },
            series: vec![added.clone(), updated.clone()],
            tombstones: vec![SeriesKey::new("dead")],
        };
        let bytes = encode_delta(&delta);
        let back = decode_delta(&bytes).unwrap();
        assert_eq!(back, delta);
        // a delta must never decode as a full snapshot (and vice versa)
        assert!(decode(&bytes).is_err());
        assert!(decode_delta(&encode(&base)).is_err());
        // folding reproduces the expected full image
        let mut folded = base.clone();
        back.fold_into(&mut folded).unwrap();
        assert_eq!(folded.batches, 9);
        assert_eq!(folded.clock, 120);
        assert_eq!(folded.totals.points, 400);
        let keys: Vec<&str> = folded.series.iter().map(|s| s.key.as_str()).collect();
        assert_eq!(keys, ["new", "warm"], "tombstone removed, upserts sorted by key");
        assert_eq!(folded.series[1], updated);
        // a delta that does not chain onto the base is rejected
        let mut wrong = sample_snapshot();
        wrong.batches = 42;
        assert!(decode_delta(&bytes).unwrap().fold_into(&mut wrong).is_err());
    }

    #[test]
    fn roundtrip_preserves_everything() {
        let snap = sample_snapshot();
        let bytes = encode(&snap);
        let back = decode(&bytes).unwrap();
        assert_eq!(back.config, snap.config);
        assert_eq!(back.clock, snap.clock);
        assert_eq!(back.batches, snap.batches);
        assert_eq!(back.totals, snap.totals);
        assert_eq!(back.series.len(), 2);
        assert_eq!(back.series[0].key, snap.series[0].key);
        match (&back.series[0].phase, &snap.series[0].phase) {
            (
                PhaseSnapshot::Warming {
                    values: a,
                    period: pa,
                    last_attempt: la,
                    overrides: oa,
                },
                PhaseSnapshot::Warming {
                    values: b,
                    period: pb,
                    last_attempt: lb,
                    overrides: ob,
                },
            ) => {
                assert_eq!((pa, la), (pb, lb));
                assert_eq!(oa, ob, "per-series overrides must round-trip");
                assert_eq!(a.len(), b.len());
                for (x, y) in a.iter().zip(b) {
                    assert_eq!(x.to_bits(), y.to_bits(), "bit-identical floats");
                }
            }
            _ => panic!("phase mismatch"),
        }
    }

    /// A crafted image smuggling degenerate scorer *dynamic state* must
    /// fail to decode: NaN accumulators would silently disable one CUSUM
    /// side forever (`f64::max(NaN, x)` returns `x`), and a NaN bar or
    /// non-finite statistics would stop the series from ever alarming.
    #[test]
    fn degenerate_decoded_scorer_state_is_rejected() {
        let t = 12usize;
        let y: Vec<f64> = (0..6 * t)
            .map(|i| 1.0 + (2.0 * std::f64::consts::PI * i as f64 / t as f64).sin())
            .collect();
        let mut det = oneshotstl::StdAnomalyDetector::new(
            oneshotstl::OneShotStl::new(OneShotStlConfig::default()),
            5.0,
        );
        det.init(&y[..4 * t], t).unwrap();
        let make = |mutate: &dyn Fn(&mut ResidualScorerState)| {
            let mut snap = sample_snapshot();
            let mut scorer = det.scorer().to_state();
            mutate(&mut scorer);
            snap.series.push(SeriesSnapshot {
                key: SeriesKey::new("live"),
                last_seen: 50,
                phase: PhaseSnapshot::Live {
                    decomposer: det.decomposer.to_state(),
                    scorer,
                    forecast: None,
                    backend: None,
                },
            });
            encode(&snap)
        };
        // in-range state decodes…
        decode(&make(&|s| {
            s.s_pos = 1.0;
            s.hold = 3.0;
        }))
        .expect("valid scorer state decodes");
        // …NaN, negative, or beyond-clamp accumulators and NaN hold do not
        for (sp, sn, hold) in [
            (f64::NAN, 0.0, 0.0),
            (0.0, f64::NAN, 0.0),
            (-1.0, 0.0, 0.0),
            (1e9, 0.0, 0.0), // > 2h for the default h
            (0.0, 0.0, f64::NAN),
            (0.0, 0.0, -2.0),
        ] {
            let bad = make(&|s| {
                (s.s_pos, s.s_neg, s.hold) = (sp, sn, hold);
            });
            assert!(
                decode(&bad).is_err(),
                "scorer state ({sp}, {sn}, {hold}) must be rejected"
            );
        }
        // …nor do a NaN or negative bar and non-finite statistics
        for n in [f64::NAN, -1.0] {
            let bad = make(&|s| s.nsigma.n = n);
            assert_eq!(decode(&bad), Err(CodecError::Invalid("nsigma bar")), "n = {n}");
        }
        let bad = make(&|s| s.nsigma.sum = f64::NAN);
        assert_eq!(decode(&bad), Err(CodecError::Invalid("nsigma sums")), "NaN sum");
        let bad = make(&|s| s.nsigma.sum_sq = f64::INFINITY);
        assert_eq!(decode(&bad), Err(CodecError::Invalid("nsigma sums")), "infinite sum_sq");
    }

    /// A crafted image carrying override values the API boundary rejects
    /// (here: `TopK(0)`) must fail to decode, not restore a degenerate
    /// series.
    #[test]
    fn degenerate_decoded_admit_options_are_rejected() {
        let mut snap = sample_snapshot();
        let PhaseSnapshot::Warming { overrides, .. } = &mut snap.series[0].phase else {
            unreachable!("sample series 0 is warming");
        };
        overrides.shift_search = Some(ShiftSearchConfig::top_k(0));
        assert_eq!(decode(&encode(&snap)), Err(CodecError::Invalid("shift search TopK(0)")));
        // a non-finite λ is caught by the options-level validation
        let mut snap = sample_snapshot();
        let PhaseSnapshot::Warming { overrides, .. } = &mut snap.series[0].phase else {
            unreachable!("sample series 0 is warming");
        };
        overrides.lambda = Some(f64::NAN);
        assert_eq!(decode(&encode(&snap)), Err(CodecError::Invalid("admit options")));
    }

    /// A live series with real state in every optional layer: a period-12
    /// sine through initialization and four periods of scored updates, a
    /// forecast head, and a trend-CUSUM backend.
    fn sample_live_series() -> SeriesSnapshot {
        let t = 12usize;
        let y: Vec<f64> = (0..8 * t)
            .map(|i| 1.5 + (2.0 * std::f64::consts::PI * i as f64 / t as f64).sin())
            .collect();
        let mut det = oneshotstl::StdAnomalyDetector::new(
            oneshotstl::OneShotStl::new(OneShotStlConfig::default()),
            5.0,
        );
        det.init(&y[..4 * t], t).unwrap();
        for &v in &y[4 * t..] {
            det.update_scored(v);
        }
        let mut tracker = forecast::RollingError::new(4);
        tracker.record(1.5, 1.4);
        tracker.record(1.6, 1.7);
        let backend =
            SeriesBackend::build(BackendSelect::TrendCusum(ScoreConfig::default()), 5.0)
                .unwrap();
        SeriesSnapshot {
            key: SeriesKey::new("live"),
            last_seen: 60,
            phase: PhaseSnapshot::Live {
                decomposer: det.decomposer.to_state(),
                scorer: det.scorer().to_state(),
                forecast: Some(ForecastSnapshot {
                    options: ForecastOptions::on(),
                    pending: 1.55,
                    has_pending: true,
                    tracker: tracker.to_state(),
                }),
                backend: Some(backend.to_snapshot()),
            },
        }
    }

    fn unhex(hex: &str) -> Vec<u8> {
        (0..hex.len())
            .step_by(2)
            .map(|i| u8::from_str_radix(&hex[i..i + 2], 16).unwrap())
            .collect()
    }

    /// [`encode`] of [`sample_snapshot`] by the v10 writer.
    const V10_SAMPLE_HEX: &str = concat!(
        "4f5353544c464c540a0000040000000300000000180000000000000000000014400000011000",
        "0000000000000100000000000059400000000000005940000000000000f03f08000000140000",
        "00000000000000144000000000000000e03f00bbbdd7d9df7cdb3d0104000000020000000000",
        "00e03f0000000000001840ae47e17a14aeef3f01cdccccccccccec3f20000000010000000000",
        "00f43f0202000000000000e03f0000000000001840000000000000d03f006300000000000000",
        "0700000000000000010000000000000002000000000000002c01000000000000040000000000",
        "0000060000000000000001000000000000000200000000000000020000000000000004000000",
        "7761726d2a00000000000000000300000000000000000000000000f03f00000000000004c07d",
        "12e4252c1c823c0118000000030000000000000001000000000000d03f010000000000001040",
        "01180000000101070000000101000000000000e83f0000000000002240000000000000e03f01",
        "01000000000000e03f10000000009a9999999999e93f010202000000000000e03f0000000000",
        "001840ae47e17a14aeef3f0400000064656164070000000000000002",
    );

    /// [`encode_series_blob`] of [`sample_live_series`] by the v10 writer:
    /// what a v10 build left in its cold tier.
    const V10_LIVE_BLOB_HEX: &str = concat!(
        "0a00040000006c6976653c000000000000000100000000000059400000000000005940000000",
        "000000f03f0800000014000000000000000000144000000000000000e03f00bbbdd7d9df7cdb",
        "3d01040000000c00000000000000600000000000000030000000000000000000000000000000",
        "0c00000000000000a975fb3e06eef53e41479d892a00e03f0909deaea4b6eb3f067ee5fa1c00",
        "f03f41770e65b0b6eb3f88c9ce213400e03f24df0c193890f93e8c2dad719bffdfbf65b7d663",
        "49b6ebbfdde4cc58d0ffefbf47dee14c4cb6ebbf773bc8b7a4ffdfbf52b3a7178549e43f0800",
        "00000000f03ff50758ed4cb6ebbf2d85ce27a7ffdfbf08000000013000000000000000200000",
        "0000000000000000000000f03f00000000000000000000000000000000000000000000000063",
        "d55714ca2b6d3f000000000000f03f00000000000000000000000000000000cb2b1abd38fff4",
        "bfb2ff491fcf08e53f000000000000f03f000000000000000000000000000000000000000000",
        "0000001c5704e7872b6d3f000000000000f03fb59ee4df35cad63f831f5ad69dd4c6bf6cf638",
        "0017fff4bfcb52373dad08e53f00000000000000000000000000000000000000000000000000",
        "00000000000000000000000000000000000000000000000e647b2c02cad63f0377aff369d4c6",
        "bf00000000000000000000000000000000000000000000000000000000000000000400000000",
        "0000005ded42b6388d714015d4f51a6af1ff3f4441e087608d7140d47d0c3c6af1ff3f040000",
        "00000000004c870b8190933140f6fb642df6dad2bf117a4eff91733140c0a80840dffce1bf00",
        "0000000000f03f000000000000f03f000000000000f03f000000000000f03fdc4aa68fe8fff7",
        "3fea9d15a5e8fff73f0130000000000000002000000000000000000000000000f03f00000000",
        "0000000000000000000000000000000000000000cd0b2ae93398fd3d000000000000f03f0000",
        "0000000000000000000000000000177144c68518f5bfa7f357c68518e53f000000000000f03f",
        "0000000000000000000000000000000000000000000000001bcbbaf99adcf53d000000000000",
        "f03f016d4c2e1762d43fd9465f2e1762c4bf6b3b682f2533f5bf22b7762f2533e53f00000000",
        "0000000000000000000000000000000000000000000000000000000000000000000000000000",
        "000000000000f6d698ca94ccd43f9b0ca7ca94ccc4bf00000000000000000000000000000000",
        "000000000000000000000000000000000400000000000000d9d984bcec4ce141cc67e2ffffff",
        "ff3f382a544a7f6be7416523eaffffffff3f0400000000000000af41e01a4bff50405788c47a",
        "08b3cdbf043504c554f84b409b6be624a0ffdfbfd646486b77db6e410766ce04e6e257412ed8",
        "766e0a365c41e487167a0c7c6341737a3c5f3dfff73fa7dae70541fff73f0130000000000000",
        "002000000000000000000000000000f03f000000000000000000000000000000000000000000",
        "000000a75c5bd49a3b2b3e000000000000f03f00000000000000000000000000000000644254",
        "40715bfcbf2f521541715bec3f000000000000f03f0000000000000000000000000000000000",
        "00000000000000f9b341c0073e133e000000000000f03fd2be225de3b6e83f9701cb5de3b6d8",
        "bf31ef1262cbc0febf88e75c62cbc0ee3f000000000000000000000000000000000000000000",
        "0000000000000000000000000000000000000000000000000000000b71340e9781ed3f9a697b",
        "0e9781ddbf000000000000000000000000000000000000000000000000000000000000000004",
        "00000000000000d607089a03cdb241292326ffffffff3f3b621b5ea89bca41e107b3ffffffff",
        "3f0400000000000000f3cc58f1ed2d68402e53d6600db3cdbfd90224556ff766406492c1eea0",
        "ffdfbf8bcc0c118a3a01413ba9442079870141e905b310089642411900acca72675f41c7a5bb",
        "e2e6fff73fc7fb5ef5e6fff73f0130000000000000002000000000000000000000000000f03f",
        "0000000000000000000000000000000000000000000000005c576efb4ead023e000000000000",
        "f03f000000000000000000000000000000009936f30f0ca5f7bf64d00e100ca5e73f00000000",
        "0000f03f0000000000000000000000000000000000000000000000007f4a78c0f58ff43d0000",
        "00000000f03f92823e503094de3f833462503094cebfb4ee0a9ae7b2f6bfa384199ae7b2e63f",
        "0000000000000000000000000000000000000000000000000000000000000000000000000000",
        "00000000000000000000a51bf8739ecbda3f745309749ecbcabf000000000000000000000000",
        "00000000000000000000000000000000000000000400000000000000bfa6f4a2d569db4162a5",
        "daffffffff3f6effdee35ee6e8410a70ebffffffff3f0400000000000000ed8aa81296b24440",
        "27eb356c08b3cdbf3f9162fdac0a4b40bef42a23a0ffdfbfed9aec36f64c6c4120b117a58078",
        "5b41e58e2ca9f2c36041c3cb6b2726b06a41cc7af0c30100f83f9f04572c0100f83f01300000",
        "00000000002000000000000000000000000000f03f0000000000000000000000000000000000",
        "0000000000000037ab238bba2e313e000000000000f03f000000000000000000000000000000",
        "00135a90fb7d1df7bfd4f056fc7d1de73f000000000000f03f00000000000000000000000000",
        "0000000000000000000000434e8ce206ff223e000000000000f03fa3036099f875dc3f5d8754",
        "9af875ccbf9e7c10bdda03f9bfd84887bdda03e93f0000000000000000000000000000000000",
        "000000000000000000000000000000000000000000000000000000000000005005ccaab507e2",
        "3f8ca521abb507d2bf0000000000000000000000000000000000000000000000000000000000",
        "00000004000000000000002d39c41936ccad415714edfeffffff3f5f2b811fe8f3ba41c90768",
        "ffffffff3f040000000000000011113087af714d405741d0350ab3cdbf03131494863e4e40ea",
        "446ca1a0ffdfbfb30b66df19b4344126cca7bdc0042b41a0be658b1af6304103ccc7a33e7043",
        "41aa567b010e00f83fc609bc440d00f83f013000000000000000200000000000000000000000",
        "0000f03f000000000000000000000000000000000000000000000000a9e3c148abd7133e0000",
        "00000000f03f00000000000000000000000000000000b0063e91cab2fcbffc348591cab2ec3f",
        "000000000000f03f0000000000000000000000000000000000000000000000003f479b50ab4d",
        "0c3e000000000000f03ff19ba74f9565e93fdd99e64f9565d9bf87c3e3e77f41fdbf2b8417e8",
        "7f41ed3f00000000000000000000000000000000000000000000000000000000000000000000",
        "0000000000000000000000000000136d90f3ff82ea3f0653bff3ff82dabf0000000000000000",
        "0000000000000000000000000000000000000000000000000400000000000000fa5e002aa2cd",
        "c94153a1b0ffffffff3f369eb6bdf616d241a964c7ffffffff3f04000000000000001b7b0c72",
        "c6195b403ef8c24809b3cdbff57958f600185e4016d0427ca0ffdfbfc6dd98469b4424412b54",
        "a33173b325411b3b22087b365a411caaaa06fe2e63414c833690f9fff73f7bfd3142f9fff73f",
        "0130000000000000002000000000000000000000000000f03f00000000000000000000000000",
        "0000000000000000000000fdd42a03f202ef3d000000000000f03f0000000000000000000000",
        "00000000008b4dcb2fd270febf970dda2fd270ee3f000000000000f03f000000000000000000",
        "000000000000000000000000000000ea98a1116787103e000000000000f03f02bc366aa4e1ec",
        "3fa2ba446aa4e1dcbf6db006a74f02f8bf674b38a74f02e83f00000000000000000000000000",
        "00000000000000000000000000000000000000000000000000000000000000000000004845d9",
        "829f04e03fa35dfa829f04d0bf00000000000000000000000000000000000000000000000000",
        "000000000000000400000000000000871cb7758f82f041877ef0ffffffff3f61fcee42dcf9ce",
        "4164e2bdffffffff3f0400000000000000ccbcd4f97a5660409dd7387b08b3cdbfe4142fa134",
        "0a63405d4c25afa0ffdfbf1baadf1737ba3341d98d27721e403a4154a9a304c31283419c15eb",
        "bed6d85341729b8736eafff73f9cf8eb27eafff73f0130000000000000002000000000000000",
        "000000000000f03f0000000000000000000000000000000000000000000000006cc4e19d977f",
        "fe3d000000000000f03f00000000000000000000000000000000ebd0b69ced95fbbf781bd19c",
        "ed95eb3f000000000000f03f000000000000000000000000000000000000000000000000a437",
        "e4d73ea3f23d000000000000f03f65da2a42db2be73fe7ef4042db2bd7bfdc4d9413c51cfbbf",
        "5b18a413c51ceb3f000000000000000000000000000000000000000000000000000000000000",
        "0000000000000000000000000000000000006c0f652e8a39e63f2b01722e8a39d6bf00000000",
        "0000000000000000000000000000000000000000000000000000000004000000000000001976",
        "15c4aac9e0416880e1ffffffff3f9737bcc6a278eb41c15cedffffffff3f0400000000000000",
        "9deb8e9228134b40ed8b7f6f08b3cdbfa13dbf70c9625240785a3527a0ffdfbf3b0fceac63cb",
        "5941d4a08ebb52866141b64f61889b1e6f41b2170774f26b7841f5b30962e8fff73f787cf091",
        "e8fff73f00000000000014406000000000000000c96f060a9b34323f50914fcd8172443e0102",
        "000000000000e03f0000000000001840ae47e17a14aeef3f0000000000001440600000000000",
        "0000c96f060a9b34323f50914fcd8172443e00000000000000000000000000000000785c17c2",
        "57b439400101000000000000f03f4000000000000000000000f83fcdccccccccccf83f010400",
        "000000000000a09999999999b93f909999999999b93f00000000000000000000000000000000",
        "04000000000000009b7b1a61b9a7b13ffd1e7cf0c107af3f0000000000000000000000000000",
        "00000200000002000000989999999999c93f8d45ac2ccd95c03f010102000000000000e03f00",
        "00000000001840ae47e17a14aeef3f0000000000001440000000000000000000000000000000",
        "0000000000000000000000000000000000000000000000000000000000000000000000000000",
        "0000000010000000",
    );

    /// A series blob whose decomposer carries the wrong number of IRLS
    /// iteration states still decodes (the codec reads any count), but the
    /// restore refuses it: with no states every point would decompose as
    /// trend 0, seasonal 0, residual = y, and with 3 of 8 the model would
    /// silently run fewer reweightings than its config says.
    #[test]
    fn wrong_irls_iteration_count_fails_the_restore() {
        let config = FleetConfig::fixed_period(12);
        let live = sample_live_series();
        let intact = decode_series_blob(&encode_series_blob(&live)).unwrap();
        assert!(crate::series::SeriesState::from_snapshot(intact.phase, &config).is_ok());
        for keep in [0, 3] {
            let mut doctored = live.clone();
            let PhaseSnapshot::Live { decomposer, .. } = &mut doctored.phase else {
                unreachable!("the sample series is live");
            };
            decomposer.iters.truncate(keep);
            let back = decode_series_blob(&encode_series_blob(&doctored))
                .expect("the codec reads any iteration count");
            assert!(
                crate::series::SeriesState::from_snapshot(back.phase, &config).is_err(),
                "{keep} iteration states restored"
            );
        }
    }

    /// Cold-tier series blobs round-trip bit-identically, a blob spilled
    /// by the previous (v10) build rehydrates to the same series, and
    /// corrupted blobs are rejected with typed errors.
    #[test]
    fn series_blob_roundtrips_exactly() {
        let mut snap = sample_snapshot();
        snap.series.push(sample_live_series());
        for s in &snap.series {
            let blob = encode_series_blob(s);
            assert_eq!(&decode_series_blob(&blob).unwrap(), s);
            assert!(decode_series_blob(&blob[..blob.len() - 1]).is_err(), "truncated blob");
            let mut trailing = blob.clone();
            trailing.push(0);
            assert!(decode_series_blob(&trailing).is_err(), "trailing bytes");
        }
        let mut bad_version = encode_series_blob(&snap.series[0]);
        bad_version[0] = 0xEE;
        assert!(matches!(
            decode_series_blob(&bad_version),
            Err(CodecError::UnsupportedVersion(_))
        ));

        let v10 = unhex(V10_LIVE_BLOB_HEX);
        assert_eq!(u16::from_le_bytes([v10[0], v10[1]]), 10);
        assert_eq!(decode_series_blob(&v10).unwrap(), sample_live_series());
    }

    /// A v10 image decodes to what its writer held and rewrites as v11
    /// byte for byte apart from the version: the sample's trend-CUSUM
    /// selections kept their v10 tags.
    #[test]
    fn v10_snapshots_decode_and_rewrite_as_v11() {
        let v10 = unhex(V10_SAMPLE_HEX);
        assert_eq!(u16::from_le_bytes([v10[8], v10[9]]), 10);
        let back = decode(&v10).expect("the previous version stays readable");
        assert_eq!(back, sample_snapshot());
        let v11 = encode(&back);
        assert_eq!(u16::from_le_bytes([v11[8], v11[9]]), VERSION);
        assert_eq!((&v11[..8], &v11[10..]), (&v10[..8], &v10[10..]));
        assert_eq!(decode(&v11).unwrap(), back);
    }

    /// The delta chain-header parser reads `(prev_batches, batches)`
    /// without touching the series body, and refuses full images.
    #[test]
    fn delta_chain_header_parses_without_the_body() {
        let delta = FleetDelta {
            config: FleetConfig::fixed_period(24),
            prev_batches: 90,
            clock: 300,
            batches: 130,
            totals: CarriedTotals::default(),
            series: vec![],
            tombstones: vec![SeriesKey::new("gone")],
        };
        assert_eq!(decode_delta_chain(&encode_delta(&delta)).unwrap(), (90, 130));
        assert!(decode_delta_chain(&encode(&sample_snapshot())).is_err());
    }

    /// Live backend state — every variant — round-trips bit-identically,
    /// and a crafted image smuggling degenerate backend state (a
    /// non-finite trend prev, a retired state tag) fails to decode with a
    /// typed error.
    #[test]
    fn backend_state_roundtrips_and_degenerate_state_is_rejected() {
        let t = 12usize;
        let y: Vec<f64> = (0..8 * t)
            .map(|i| 1.0 + (2.0 * std::f64::consts::PI * i as f64 / t as f64).sin())
            .collect();
        let mut det = oneshotstl::StdAnomalyDetector::new(
            oneshotstl::OneShotStl::new(OneShotStlConfig::default()),
            5.0,
        );
        det.init(&y[..4 * t], t).unwrap();
        let make = |bs: BackendSnapshot| {
            let mut snap = sample_snapshot();
            snap.series.push(SeriesSnapshot {
                key: SeriesKey::new("live"),
                last_seen: 60,
                phase: PhaseSnapshot::Live {
                    decomposer: det.decomposer.to_state(),
                    scorer: det.scorer().to_state(),
                    forecast: None,
                    backend: Some(bs),
                },
            });
            (snap.clone(), encode(&snap))
        };
        // run real state into each backend variant
        let fused =
            oneshotstl::ScoreVerdict { score: 0.1, z: 0.1, cusum: 0.0, is_anomaly: false };
        for select in [
            BackendSelect::TrendCusum(ScoreConfig::default()),
            BackendSelect::Ensemble(ScoreConfig::default()),
        ] {
            let mut b = SeriesBackend::build(select, 5.0).unwrap();
            for i in 0..150 {
                let p = tskit::series::DecompPoint {
                    trend: 1.0 + 0.01 * i as f64 + 0.1 * (i as f64 / 3.0).sin(),
                    seasonal: 0.0,
                    residual: 0.0,
                };
                b.observe(&p, &fused);
            }
            let good = b.to_snapshot();
            let (snap, bytes) = make(good.clone());
            assert_eq!(decode(&bytes).expect("backend-bearing image decodes"), snap);

            // degenerate state must be rejected, never restored
            let (BackendSnapshot::TrendCusum(trend) | BackendSnapshot::Ensemble(trend)) = &good;
            let mut bad = trend.clone();
            bad.prev = f64::NAN;
            let bad = match good {
                BackendSnapshot::TrendCusum(_) => BackendSnapshot::TrendCusum(bad),
                BackendSnapshot::Ensemble(_) => BackendSnapshot::Ensemble(bad),
            };
            assert_eq!(decode(&make(bad).1), Err(CodecError::Invalid("backend state")));

            // the state tag sits just before the trend state, which closes
            // the image; the retired DAMP (0) and three-channel ensemble
            // (2) tags are refused
            let mut w = Writer::default();
            encode_trend_cusum_state(&mut w, trend);
            let at = bytes.len() - w.buf.len() - 1;
            for retired in [0, 2] {
                let mut old = bytes.clone();
                old[at] = retired;
                assert_eq!(decode(&old), Err(CodecError::Invalid("backend state tag")));
            }
        }
    }

    /// A crafted v6 image smuggling degenerate forecast state — a NaN
    /// pending prediction, NaN tracker sums, ragged rings — must fail to
    /// decode, not poison every sMAPE read after restore.
    #[test]
    fn degenerate_decoded_forecast_state_is_rejected() {
        let t = 12usize;
        let y: Vec<f64> = (0..6 * t)
            .map(|i| 1.0 + (2.0 * std::f64::consts::PI * i as f64 / t as f64).sin())
            .collect();
        let mut det = oneshotstl::StdAnomalyDetector::new(
            oneshotstl::OneShotStl::new(OneShotStlConfig::default()),
            5.0,
        );
        det.init(&y[..4 * t], t).unwrap();
        let make = |mutate: &dyn Fn(&mut ForecastSnapshot)| {
            let mut tracker = forecast::RollingError::new(8);
            tracker.record(1.0, 1.1);
            tracker.record(2.0, 1.9);
            let mut fc = ForecastSnapshot {
                options: ForecastOptions::on(),
                pending: 1.5,
                has_pending: true,
                tracker: tracker.to_state(),
            };
            mutate(&mut fc);
            let mut snap = sample_snapshot();
            snap.series.push(SeriesSnapshot {
                key: SeriesKey::new("live"),
                last_seen: 50,
                phase: PhaseSnapshot::Live {
                    decomposer: det.decomposer.to_state(),
                    scorer: det.scorer().to_state(),
                    forecast: Some(fc),
                    backend: None,
                },
            });
            encode(&snap)
        };
        // intact state decodes…
        decode(&make(&|_| {})).expect("valid forecast state decodes");
        // …corrupted state does not
        assert!(decode(&make(&|f| f.pending = f64::NAN)).is_err(), "NaN pending");
        assert!(decode(&make(&|f| f.tracker.sum_abs = f64::NAN)).is_err(), "NaN sum");
        assert!(decode(&make(&|f| f.tracker.abs[0] = -1.0)).is_err(), "negative term");
        assert!(
            decode(&make(&|f| {
                f.tracker.sm.pop();
            }))
            .is_err(),
            "ragged rings"
        );
        assert!(decode(&make(&|f| f.tracker.head = 99)).is_err(), "cursor out of range");
        assert!(decode(&make(&|f| f.options.damping = 1.5)).is_err(), "bad damping");
    }

    #[test]
    fn bad_inputs_are_rejected_not_panicked() {
        let snap = sample_snapshot();
        let bytes = encode(&snap);
        assert_eq!(decode(b"short"), Err(CodecError::Truncated));
        let mut wrong_magic = bytes.clone();
        wrong_magic[0] ^= 0xFF;
        assert_eq!(decode(&wrong_magic), Err(CodecError::BadMagic));
        let mut wrong_version = bytes.clone();
        wrong_version[8] = 0xEE;
        assert!(matches!(decode(&wrong_version), Err(CodecError::UnsupportedVersion(_))));
        // only the current and the previous version are read
        for old in [8u16, 9] {
            let mut image = bytes.clone();
            image[8..10].copy_from_slice(&old.to_le_bytes());
            assert_eq!(decode(&image), Err(CodecError::UnsupportedVersion(old)));
        }
        // the engine's backend selection closes the config, before its
        // score config and the one-byte `spill_after: None`; the retired
        // DAMP (1) and three-channel ensemble (3) tags are refused
        let mut config = Writer::default();
        encode_config(&mut config, &snap.config);
        let at = 8 + 2 + 1 + config.buf.len() - 1 - (1 + 3 * 8) - 1;
        assert_eq!(bytes[at], 2, "trend-CUSUM select tag");
        for retired in [1, 3] {
            let mut old = bytes.clone();
            old[at] = retired;
            assert_eq!(decode(&old), Err(CodecError::Invalid("backend select tag")));
        }
        // a crafted vector length whose byte count fits in usize but whose
        // end offset overflows it: the warming series' `values` length
        // follows its key, last_seen, and phase tag
        let mut huge = bytes.clone();
        let at = huge.windows(4).position(|w| w == b"warm").unwrap() + 4 + 8 + 1;
        huge[at..at + 8].copy_from_slice(&0x1FFF_FFFF_FFFF_FFFFu64.to_le_bytes());
        assert_eq!(decode(&huge), Err(CodecError::Truncated));
        // every truncation point fails cleanly
        for cut in 0..bytes.len() {
            assert!(decode(&bytes[..cut]).is_err(), "cut at {cut} should not decode");
        }
        let mut trailing = bytes.clone();
        trailing.push(0);
        assert_eq!(
            decode(&trailing),
            Err(CodecError::Invalid("trailing bytes after snapshot"))
        );
    }
}
