//! Versioned binary codec for [`FleetSnapshot`].
//!
//! Layout: magic `b"OSSTLFLT"`, `u16` version, `u8` kind (always 0, the
//! full engine image), then the fields in a fixed order. All integers
//! are little-endian; `f64` round-trips via [`f64::to_bits`], so restored
//! values are **bit-identical** — the basis of the snapshot determinism
//! guarantee. The format is self-contained: per-series detector configs
//! are encoded with each series, so a snapshot survives engine-level
//! config changes between writer and reader. The kind byte is what
//! earlier builds used to tell full images from incremental deltas (kind
//! 1); deltas are no longer written, and a kind-1 image is refused.
//!
//! Version policy: writers emit the current version, readers accept the
//! current and the previous one, and anything else is
//! [`CodecError::UnsupportedVersion`]. A previous-version image is
//! rewritten as the current version by its next snapshot. One decoder
//! reads both: a new version never reuses a tag or a length, so the only
//! version-dependent code is the version-window check. v13 retired the
//! forecast error tracker: [`ForecastOptions`] took the fresh tags `2|3`
//! (disabled | enabled) followed by the damping alone, and a live series'
//! forecast head the presence tag `2` followed by its damping `φ`. The
//! v12 layouts (options tags `0|1`, head tag `1` with its pending
//! forecast and error rings) are still parsed, keeping only the damping;
//! a v12 input whose error fusion was on is refused, since this build
//! cannot honour the alarm it asked for. Each steady solver's `L` window
//! is its 10 band cells ([`oneshotstl::online_doolittle::BAND`]). The
//! backend tags retired before v12 (select `1`/`3`, state `0`/`2`) stay
//! refused as invalid.

use crate::backend::{BackendSelect, BackendSnapshot, SeriesBackend};
use crate::config::{AdmitOptions, ForecastOptions, QueuePolicy};
use crate::engine::{CarriedTotals, FleetSnapshot};
use crate::error::CodecError;
use crate::series::{PhaseSnapshot, QuarantineCause};
use crate::shard::SeriesSnapshot;
use crate::types::{Record, SeriesKey};
use crate::{FleetConfig, PeriodPolicy};
use oneshotstl::oneshot::InitMethod;
use oneshotstl::system::Lambdas;
use oneshotstl::{
    Fusion, IterSnapshot, NSigmaState, OneShotStlConfig, OneShotStlState, ResidualScorerState,
    ScoreConfig, ShiftPolicy, ShiftPrune, ShiftSearchConfig, SolverState,
};

const MAGIC: &[u8; 8] = b"OSSTLFLT";
// v13: v12 without the forecast error tracker: options and a live head
// carry the damping alone, under fresh tags.
pub(crate) const VERSION: u16 = 13;
const KIND_FULL: u8 = 0;

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

/// Reads the `u16` version and accepts only the current and the previous
/// one.
fn decode_version(r: &mut Reader<'_>) -> Result<(), CodecError> {
    let version = r.u16()?;
    if !(VERSION - 1..=VERSION).contains(&version) {
        return Err(CodecError::UnsupportedVersion(version));
    }
    Ok(())
}

/// Deserializes [`encode`] output (current or previous version).
pub fn decode(bytes: &[u8]) -> Result<FleetSnapshot, CodecError> {
    let mut r = Reader { data: bytes, pos: 0 };
    if r.take(8)? != MAGIC {
        return Err(CodecError::BadMagic);
    }
    decode_version(&mut r)?;
    if r.u8()? != KIND_FULL {
        return Err(CodecError::Invalid("snapshot kind (only full images are read)"));
    }
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

/// `u8` tag `2|3` (disabled | enabled), then `f64` damping.
fn encode_forecast_options(w: &mut Writer, f: &ForecastOptions) {
    w.u8(2 + f.enabled as u8);
    w.f64(f.damping);
}

fn decode_forecast_options(r: &mut Reader<'_>) -> Result<ForecastOptions, CodecError> {
    let tag = r.u8()?;
    let options = match tag {
        2 | 3 => ForecastOptions { enabled: tag == 3, damping: r.f64()? },
        // v12: enabled flag, damping, then the retired tracker fields
        0 | 1 => {
            let damping = r.f64()?;
            r.take(4)?; // error window
            match r.u8()? {
                0 => {}
                1 => return Err(CodecError::Invalid("forecast error fusion (retired in v13)")),
                _ => return Err(CodecError::Invalid("forecast fusion flag")),
            }
            r.take(8)?; // sMAPE alarm bar
            ForecastOptions { enabled: tag == 1, damping }
        }
        _ => return Err(CodecError::Invalid("forecast options tag")),
    };
    // same smuggling stance as the score config: a crafted image must not
    // restore a damping the API boundary rejects (φ outside [0, 1])
    if options.validate().is_err() {
        return Err(CodecError::Invalid("forecast options"));
    }
    Ok(options)
}

/// The forecast head of a live series: `None` as tag `0`, `Some(φ)` as tag
/// `2` then `f64 φ`.
fn encode_forecast_head(w: &mut Writer, head: Option<f64>) {
    match head {
        None => w.u8(0),
        Some(phi) => {
            w.u8(2);
            w.f64(phi);
        }
    }
}

fn decode_forecast_head(r: &mut Reader<'_>) -> Result<Option<f64>, CodecError> {
    let phi = match r.u8()? {
        0 => return Ok(None),
        2 => r.f64()?,
        // v12: the head's options, then the retired tracker state — the
        // pending one-step forecast and its flag, the two error rings, the
        // ring cursor and length, the two running sums; only the damping
        // is kept
        1 => {
            let options = decode_forecast_options(r)?;
            r.take(8 + 1)?;
            r.vec_f64()?;
            r.vec_f64()?;
            r.take(4 + 4 + 8 + 8)?;
            options.damping
        }
        _ => return Err(CodecError::Invalid("forecast head tag")),
    };
    if !(0.0..=1.0).contains(&phi) {
        return Err(CodecError::Invalid("forecast head damping"));
    }
    Ok(Some(phi))
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
            encode_forecast_head(w, *forecast);
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
            forecast: decode_forecast_head(r)?,
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
        1 => {
            let m = r.u64()?;
            if r.u64()? != 10 {
                return Err(CodecError::Invalid("solver L window length"));
            }
            let lo = r.f64_array()?;
            Ok(SolverState::Steady { m, lo, dd: solver_window(r)?, zo: solver_window(r)? })
        }
        _ => Err(CodecError::Invalid("solver state tag")),
    }
}

/// A length-prefixed `D` or `z` window of a steady solver: exactly 4 values.
fn solver_window(r: &mut Reader<'_>) -> Result<[f64; 4], CodecError> {
    if r.u64()? != 4 {
        return Err(CodecError::Invalid("solver window length"));
    }
    r.f64_array()
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

/// Little-endian byte sink. Shared with every framed payload
/// ([`crate::frame`]: WAL records, cold records, wire messages), so all
/// the crate's byte layouts follow one set of conventions: LE integers,
/// bit-pattern `f64`s, `u32`-length strings.
#[derive(Default)]
pub(crate) struct Writer {
    pub(crate) buf: Vec<u8>,
}

impl Writer {
    pub(crate) fn bytes(&mut self, b: &[u8]) {
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
    /// A record list, the body of a WAL record and of a wire
    /// `IngestBatch`: `u32 count · count × { u64 t · f64 value · string
    /// key }`.
    pub(crate) fn records(&mut self, records: &[Record]) {
        self.u32(records.len() as u32);
        for r in records {
            self.u64(r.t);
            self.f64(r.value);
            self.string(r.key.as_str());
        }
    }
}

/// Little-endian byte source with bounds checking (the [`Writer`]'s dual,
/// shared the same way).
pub(crate) struct Reader<'a> {
    pub(crate) data: &'a [u8],
    pub(crate) pos: usize,
}

impl<'a> Reader<'a> {
    pub(crate) fn take(&mut self, n: usize) -> Result<&'a [u8], CodecError> {
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
    /// `N` bare `f64`s (the caller has read and checked any length).
    fn f64_array<const N: usize>(&mut self) -> Result<[f64; N], CodecError> {
        let mut out = [0.0; N];
        for v in &mut out {
            *v = self.f64()?;
        }
        Ok(out)
    }
    fn vec_f64(&mut self) -> Result<Vec<f64>, CodecError> {
        let n = self.u64()? as usize;
        let raw = self.take(n.checked_mul(8).ok_or(CodecError::Truncated)?)?;
        Ok(raw
            .chunks_exact(8)
            .map(|c| f64::from_bits(u64::from_le_bytes(c.try_into().unwrap())))
            .collect())
    }
    /// Reads a `u32` element count and rejects it up front when the bytes
    /// left could not hold that many elements of at least `min_size` bytes
    /// each, so a hostile count cannot drive a huge allocation before the
    /// parse fails.
    pub(crate) fn count(&mut self, min_size: usize) -> Result<usize, CodecError> {
        let n = self.u32()? as usize;
        if n > self.data.len().saturating_sub(self.pos) / min_size.max(1) {
            return Err(CodecError::Invalid("element count"));
        }
        Ok(n)
    }
    /// A [`Writer::records`] list.
    pub(crate) fn records(&mut self) -> Result<Vec<Record>, CodecError> {
        // u64 t + f64 value + u32 key length
        let n = self.count(20)?;
        let mut records = Vec::with_capacity(n);
        for _ in 0..n {
            let t = self.u64()?;
            let value = self.f64()?;
            records.push(Record { key: SeriesKey::new(self.string()?), t, value });
        }
        Ok(records)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use decomp::traits::OnlineDecomposer;

    fn sample_snapshot() -> FleetSnapshot {
        // a value with a messy bit pattern to catch any lossy encode
        let messy = std::f64::consts::PI * 1e-17;
        FleetSnapshot {
            config: FleetConfig {
                queue_capacity: Some(16),
                queue_policy: QueuePolicy::Reject,
                forecast: ForecastOptions { enabled: true, damping: 0.9 },
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
                            forecast: Some(ForecastOptions { enabled: true, damping: 0.5 }),
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
        let backend =
            SeriesBackend::build(BackendSelect::TrendCusum(ScoreConfig::default()), 5.0)
                .unwrap();
        SeriesSnapshot {
            key: SeriesKey::new("live"),
            last_seen: 60,
            phase: PhaseSnapshot::Live {
                decomposer: det.decomposer.to_state(),
                scorer: det.scorer().to_state(),
                forecast: Some(1.0),
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

    /// [`encode_series_blob`] of [`sample_live_series`] by the v12 writer:
    /// what a v12 build left in its cold tier. Its forecast head is the
    /// v12 layout — `ForecastOptions::on()` with a 4-pair error tracker
    /// holding two pairs — of which this build keeps the damping `1.0`.
    const V12_LIVE_BLOB_HEX: &str = concat!(
        "0c00040000006c6976653c000000000000000100000000000059400000000000005940000000",
        "000000f03f0800000014000000000000000000144000000000000000e03f00bbbdd7d9df7cdb",
        "3d01040000000c00000000000000600000000000000030000000000000000000000000000000",
        "0c00000000000000a975fb3e06eef53e41479d892a00e03f0909deaea4b6eb3f067ee5fa1c00",
        "f03f41770e65b0b6eb3f88c9ce213400e03f24df0c193890f93e8c2dad719bffdfbf65b7d663",
        "49b6ebbfdde4cc58d0ffefbf47dee14c4cb6ebbf773bc8b7a4ffdfbf52b3a7178549e43f0800",
        "00000000f03ff50758ed4cb6ebbf2d85ce27a7ffdfbf080000000130000000000000000a0000",
        "0000000000b59ee4df35cad63f831f5ad69dd4c6bf6cf6380017fff4bfcb52373dad08e53f00",
        "00000000000000000000000000000000000000000000000e647b2c02cad63f0377aff369d4c6",
        "bf000000000000000004000000000000005ded42b6388d714015d4f51a6af1ff3f4441e08760",
        "8d7140d47d0c3c6af1ff3f04000000000000004c870b8190933140f6fb642df6dad2bf117a4e",
        "ff91733140c0a80840dffce1bf000000000000f03f000000000000f03f000000000000f03f00",
        "0000000000f03fdc4aa68fe8fff73fea9d15a5e8fff73f0130000000000000000a0000000000",
        "0000016d4c2e1762d43fd9465f2e1762c4bf6b3b682f2533f5bf22b7762f2533e53f00000000",
        "0000000000000000000000000000000000000000f6d698ca94ccd43f9b0ca7ca94ccc4bf0000",
        "0000000000000400000000000000d9d984bcec4ce141cc67e2ffffffff3f382a544a7f6be741",
        "6523eaffffffff3f0400000000000000af41e01a4bff50405788c47a08b3cdbf043504c554f8",
        "4b409b6be624a0ffdfbfd646486b77db6e410766ce04e6e257412ed8766e0a365c41e487167a",
        "0c7c6341737a3c5f3dfff73fa7dae70541fff73f0130000000000000000a00000000000000d2",
        "be225de3b6e83f9701cb5de3b6d8bf31ef1262cbc0febf88e75c62cbc0ee3f00000000000000",
        "00000000000000000000000000000000000b71340e9781ed3f9a697b0e9781ddbf0000000000",
        "0000000400000000000000d607089a03cdb241292326ffffffff3f3b621b5ea89bca41e107b3",
        "ffffffff3f0400000000000000f3cc58f1ed2d68402e53d6600db3cdbfd90224556ff7664064",
        "92c1eea0ffdfbf8bcc0c118a3a01413ba9442079870141e905b310089642411900acca72675f",
        "41c7a5bbe2e6fff73fc7fb5ef5e6fff73f0130000000000000000a0000000000000092823e50",
        "3094de3f833462503094cebfb4ee0a9ae7b2f6bfa384199ae7b2e63f00000000000000000000",
        "0000000000000000000000000000a51bf8739ecbda3f745309749ecbcabf0000000000000000",
        "0400000000000000bfa6f4a2d569db4162a5daffffffff3f6effdee35ee6e8410a70ebffffff",
        "ff3f0400000000000000ed8aa81296b2444027eb356c08b3cdbf3f9162fdac0a4b40bef42a23",
        "a0ffdfbfed9aec36f64c6c4120b117a580785b41e58e2ca9f2c36041c3cb6b2726b06a41cc7a",
        "f0c30100f83f9f04572c0100f83f0130000000000000000a00000000000000a3036099f875dc",
        "3f5d87549af875ccbf9e7c10bdda03f9bfd84887bdda03e93f00000000000000000000000000",
        "00000000000000000000005005ccaab507e23f8ca521abb507d2bf0000000000000000040000",
        "00000000002d39c41936ccad415714edfeffffff3f5f2b811fe8f3ba41c90768ffffffff3f04",
        "0000000000000011113087af714d405741d0350ab3cdbf03131494863e4e40ea446ca1a0ffdf",
        "bfb30b66df19b4344126cca7bdc0042b41a0be658b1af6304103ccc7a33e704341aa567b010e",
        "00f83fc609bc440d00f83f0130000000000000000a00000000000000f19ba74f9565e93fdd99",
        "e64f9565d9bf87c3e3e77f41fdbf2b8417e87f41ed3f00000000000000000000000000000000",
        "0000000000000000136d90f3ff82ea3f0653bff3ff82dabf0000000000000000040000000000",
        "0000fa5e002aa2cdc94153a1b0ffffffff3f369eb6bdf616d241a964c7ffffffff3f04000000",
        "000000001b7b0c72c6195b403ef8c24809b3cdbff57958f600185e4016d0427ca0ffdfbfc6dd",
        "98469b4424412b54a33173b325411b3b22087b365a411caaaa06fe2e63414c833690f9fff73f",
        "7bfd3142f9fff73f0130000000000000000a0000000000000002bc366aa4e1ec3fa2ba446aa4",
        "e1dcbf6db006a74f02f8bf674b38a74f02e83f00000000000000000000000000000000000000",
        "00000000004845d9829f04e03fa35dfa829f04d0bf0000000000000000040000000000000087",
        "1cb7758f82f041877ef0ffffffff3f61fcee42dcf9ce4164e2bdffffffff3f04000000000000",
        "00ccbcd4f97a5660409dd7387b08b3cdbfe4142fa1340a63405d4c25afa0ffdfbf1baadf1737",
        "ba3341d98d27721e403a4154a9a304c31283419c15ebbed6d85341729b8736eafff73f9cf8eb",
        "27eafff73f0130000000000000000a0000000000000065da2a42db2be73fe7ef4042db2bd7bf",
        "dc4d9413c51cfbbf5b18a413c51ceb3f00000000000000000000000000000000000000000000",
        "00006c0f652e8a39e63f2b01722e8a39d6bf00000000000000000400000000000000197615c4",
        "aac9e0416880e1ffffffff3f9737bcc6a278eb41c15cedffffffff3f04000000000000009deb",
        "8e9228134b40ed8b7f6f08b3cdbfa13dbf70c9625240785a3527a0ffdfbf3b0fceac63cb5941",
        "d4a08ebb52866141b64f61889b1e6f41b2170774f26b7841f5b30962e8fff73f787cf091e8ff",
        "f73f00000000000014406000000000000000c96f060a9b34323f50914fcd8172443e01020000",
        "00000000e03f0000000000001840ae47e17a14aeef3f00000000000014406000000000000000",
        "c96f060a9b34323f50914fcd8172443e00000000000000000000000000000000785c17c257b4",
        "39400101000000000000f03f4000000000000000000000f83fcdccccccccccf83f0104000000",
        "00000000a09999999999b93f909999999999b93f000000000000000000000000000000000400",
        "0000000000009b7b1a61b9a7b13ffd1e7cf0c107af3f00000000000000000000000000000000",
        "0200000002000000989999999999c93f8d45ac2ccd95c03f010102000000000000e03f000000",
        "0000001840ae47e17a14aeef3f00000000000014400000000000000000000000000000000000",
        "0000000000000000000000000000000000000000000000000000000000000000000000000000",
        "000010000000",
    );

    /// The v12 encoding of `ForecastOptions::on()`: tag `1` (enabled),
    /// damping `1.0`, error window 64, fusion `0`, sMAPE alarm bar 1.5.
    fn v12_options_on() -> Vec<u8> {
        let mut w = Writer::default();
        w.u8(1);
        w.f64(1.0);
        w.u32(64);
        w.u8(0);
        w.f64(1.5);
        w.buf
    }

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
    /// by the previous (v12) build rehydrates to the same series and
    /// rewrites as this build's encoding of it, and corrupted blobs are
    /// rejected with typed errors.
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

        let v12 = unhex(V12_LIVE_BLOB_HEX);
        assert_eq!(u16::from_le_bytes([v12[0], v12[1]]), 12);
        let back = decode_series_blob(&v12).unwrap();
        assert_eq!(back, sample_live_series());
        let v13 = encode_series_blob(&back);
        assert_eq!(v13, encode_series_blob(&sample_live_series()));
        // the v12 head (tag, 22-byte options, pending forecast and flag,
        // two 4-pair rings, cursors and sums) becomes a tag and φ
        assert_eq!(v12.len() - v13.len(), (1 + 22 + 9 + 2 * 40 + 24) - (1 + 8));
    }

    /// A v12 cold blob whose forecast head has error fusion on is refused:
    /// this build cannot raise the drift alarm it asked for.
    #[test]
    fn v12_blob_asking_for_the_drift_alarm_is_refused() {
        let v12 = unhex(V12_LIVE_BLOB_HEX);
        let options = v12_options_on();
        let at = v12.windows(options.len()).position(|w| w == options).unwrap();
        // tag, damping and error window, then the fusion flag
        let mut fused = v12.clone();
        fused[at + 1 + 8 + 4] = 1;
        assert_eq!(
            decode_series_blob(&fused),
            Err(CodecError::Invalid("forecast error fusion (retired in v13)"))
        );
        let mut v11 = v12;
        v11[..2].copy_from_slice(&11u16.to_le_bytes());
        assert_eq!(decode_series_blob(&v11), Err(CodecError::UnsupportedVersion(11)));
    }

    /// A steady solver's `L` window is 10 cells, and its `D` and `z`
    /// windows 4 each; any other length (the 32-cell window v11 wrote
    /// among them) is invalid.
    #[test]
    fn malformed_solver_windows_are_rejected() {
        let image = |lo: usize, dd: usize| {
            let mut w = Writer::default();
            w.u8(1);
            w.u64(9);
            w.vec_f64(&vec![0.5; lo]);
            w.vec_f64(&vec![1.0; dd]);
            w.vec_f64(&[0.25; 4]);
            w.buf
        };
        let read = |bytes: &[u8]| decode_solver(&mut Reader { data: bytes, pos: 0 });
        assert!(matches!(read(&image(10, 4)), Ok(SolverState::Steady { m: 9, .. })));
        for lo in [0, 9, 11, 31, 32, 33] {
            assert_eq!(read(&image(lo, 4)), Err(CodecError::Invalid("solver L window length")));
        }
        for dd in [3, 5] {
            assert_eq!(read(&image(10, dd)), Err(CodecError::Invalid("solver window length")));
        }
    }

    /// [`OneShotStl::state_bytes`] is the exact encoded size of the
    /// decomposer state: in warm-up, and in the steady phase under either
    /// shift-search policy.
    #[test]
    fn state_bytes_matches_the_encoded_decomposer() {
        let t = 24usize;
        let y: Vec<f64> = (0..8 * t)
            .map(|i| 1.5 + (2.0 * std::f64::consts::PI * i as f64 / t as f64).sin())
            .collect();
        let encoded = |m: &oneshotstl::OneShotStl| {
            let mut w = Writer::default();
            encode_decomposer(&mut w, &m.to_state());
            w.buf.len()
        };
        for (search, points) in [
            (ShiftSearchConfig::default(), 2),
            (ShiftSearchConfig::default(), 4 * t),
            (ShiftSearchConfig::exhaustive(), 4 * t),
        ] {
            let cfg = OneShotStlConfig { shift_search: search, ..OneShotStlConfig::default() };
            let mut m = oneshotstl::OneShotStl::new(cfg);
            m.init(&y[..4 * t], t).unwrap();
            for &v in &y[4 * t..4 * t + points] {
                m.update(v);
            }
            let steady = matches!(m.to_state().iters[0].solver, SolverState::Steady { .. });
            assert_eq!(steady, points > 3, "{search:?} after {points} points");
            assert_eq!(m.state_bytes(), encoded(&m), "{search:?} after {points} points");
        }
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

    /// A forecast head decodes from the v13 tag `2` and from the v12 tag
    /// `1` alike; a crafted image carrying a damping outside `[0, 1]`, or an
    /// unknown head or options tag, fails to decode with a typed error.
    #[test]
    fn degenerate_decoded_forecast_state_is_rejected() {
        let read = |bytes: &[u8]| decode_forecast_head(&mut Reader { data: bytes, pos: 0 });
        let head = |phi: f64| {
            let mut w = Writer::default();
            encode_forecast_head(&mut w, Some(phi));
            w.buf
        };
        assert_eq!(read(&head(0.9)), Ok(Some(0.9)));
        assert_eq!(read(&[0]), Ok(None));
        let mut v12 = vec![1];
        v12.extend(v12_options_on());
        let mut w = Writer::default();
        w.f64(1.25); // pending forecast
        w.u8(1);
        w.vec_f64(&[0.1, 0.2]);
        w.vec_f64(&[0.01, 0.02]);
        w.u32(0);
        w.u32(2);
        w.f64(0.3);
        w.f64(0.03);
        v12.extend(w.buf);
        assert_eq!(read(&v12), Ok(Some(1.0)));
        // a hostile ring length fails before any allocation
        let ring = 1 + 22 + 9;
        v12[ring..ring + 8].copy_from_slice(&u64::MAX.to_le_bytes());
        assert_eq!(read(&v12), Err(CodecError::Truncated));

        for phi in [f64::NAN, -0.1, 1.5] {
            assert_eq!(read(&head(phi)), Err(CodecError::Invalid("forecast head damping")));
        }
        assert_eq!(read(&[3]), Err(CodecError::Invalid("forecast head tag")));
        let options =
            |bytes: &[u8]| decode_forecast_options(&mut Reader { data: bytes, pos: 0 });
        let mut bad = vec![4];
        bad.extend(1.0f64.to_le_bytes());
        assert_eq!(options(&bad), Err(CodecError::Invalid("forecast options tag")));
        bad[0] = 3;
        bad[1..].copy_from_slice(&1.5f64.to_le_bytes());
        assert_eq!(options(&bad), Err(CodecError::Invalid("forecast options")));
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
        for old in [10u16, 11] {
            let mut image = bytes.clone();
            image[8..10].copy_from_slice(&old.to_le_bytes());
            assert_eq!(decode(&image), Err(CodecError::UnsupportedVersion(old)));
        }
        // the kind byte follows the version; a kind-1 image (an
        // incremental delta an earlier build wrote) is refused
        let mut delta = bytes.clone();
        delta[10] = 1;
        assert_eq!(
            decode(&delta),
            Err(CodecError::Invalid("snapshot kind (only full images are read)"))
        );
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
