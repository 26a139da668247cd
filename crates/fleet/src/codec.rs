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
//! version-dependent code is the version-window check. A live series
//! (phase tag `4`) carries its scorer's CUSUM part alone (config, bar,
//! accumulators, hold), since the running residual sums are its
//! decomposer's. Every IRLS solver is one window (tag `2`): its step
//! count and the fixed-length cells (the 10 `L` band cells of
//! [`oneshotstl::online_doolittle::BAND`], `D[4]`, `z[4]`) without length
//! prefixes. v15 writes that window from a solver's first point; v14
//! wrote the ≤ 3 points a solver had seen as four short histories
//! instead (tag `0`), which the reader replays through the step kernel
//! under the decomposer's λ into the same window, bit for bit. The v13
//! tags (live `1`, solver `1`) are refused as invalid, as are the v12
//! forecast tags and the backend tags retired before v12 (select `1`/`3`,
//! state `0`/`2`).
//!
//! Six config values are retired but keep their bytes, so no layout
//! moves: the engine config's warm-up length in periods (always 3) and
//! explicit warm-up cap (always `None`), and each detector config's
//! seasonal anchor weight (1), shift policy (tag 0, cumulative), shift
//! accept ratio (0.5) and IRLS clamp ε (1e-10). The writer emits those
//! constants and the reader refuses any other value as invalid: a
//! restored series must run the config it was imaged with.

use crate::backend::{BackendSelect, BackendSnapshot, SeriesBackend};
use crate::config::{AdmitOptions, ForecastOptions, QueuePolicy};
use crate::engine::{CarriedTotals, FleetSnapshot};
use crate::error::CodecError;
use crate::series::{PhaseSnapshot, QuarantineCause};
use crate::shard::SeriesSnapshot;
use crate::types::{Record, SeriesKey};
use crate::{FleetConfig, PeriodPolicy};
use oneshotstl::oneshot::InitMethod;
use oneshotstl::system::{Lambdas, TailData};
use oneshotstl::{
    CusumState, Fusion, IncrementalSolver, IterSnapshot, NSigmaState, OneShotStlConfig,
    OneShotStlState, ResidualScorerState, ScoreConfig, ShiftPrune,
};

const MAGIC: &[u8; 8] = b"OSSTLFLT";
// v15: v14 with every solver written as its window, from the first point.
pub(crate) const VERSION: u16 = 15;
const KIND_FULL: u8 = 0;

// The retired config values' pinned bytes (see the module docs): the
// constants `FleetConfig` and `OneShotStl` run with, so changing one there
// changes the format and needs a codec version bump.
const INIT_CYCLES: u32 = 3;
const ANCHOR: f64 = 1.0;
const SHIFT_ACCEPT_RATIO: f64 = 0.5;
const IRLS_EPS: f64 = 1e-10;

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
    w.u32(INIT_CYCLES);
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
    w.opt_u32(None); // the warm-up cap
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
    if r.u32()? != INIT_CYCLES {
        return Err(CodecError::Invalid("warm-up cycles != 3"));
    }
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
    if r.opt_u32()?.is_some() {
        return Err(CodecError::Invalid("warm-up cap is Some"));
    }
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
        period,
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
    let enabled = match r.u8()? {
        2 => false,
        3 => true,
        _ => return Err(CodecError::Invalid("forecast options tag")),
    };
    let options = ForecastOptions { enabled, damping: r.f64()? };
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
    w.f64(ANCHOR);
    w.u32(c.iters as u32);
    w.u32(c.shift_window as u32);
    w.f64(c.nsigma);
    w.u8(0); // cumulative shift policy
    w.f64(SHIFT_ACCEPT_RATIO);
    w.u8(match c.init {
        InitMethod::Stl => 0,
        InitMethod::JointStl => 1,
    });
    w.f64(IRLS_EPS);
    encode_shift_search(w, c.shift_search);
}

/// `u8` tag (0 = Off, 1 = TopK) then the `u32` k for TopK.
fn encode_shift_search(w: &mut Writer, s: ShiftPrune) {
    match s {
        ShiftPrune::Off => w.u8(0),
        ShiftPrune::TopK(k) => {
            w.u8(1);
            w.u32(k as u32);
        }
    }
}

fn decode_shift_search(r: &mut Reader<'_>) -> Result<ShiftPrune, CodecError> {
    Ok(match r.u8()? {
        0 => ShiftPrune::Off,
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
            ShiftPrune::TopK(k)
        }
        _ => return Err(CodecError::Invalid("shift search prune tag")),
    })
}

/// Reads a retired `f64` config value, refusing all but its pinned bits.
fn pinned_f64(r: &mut Reader<'_>, want: f64, what: &'static str) -> Result<(), CodecError> {
    if r.f64()?.to_bits() != want.to_bits() {
        return Err(CodecError::Invalid(what));
    }
    Ok(())
}

fn decode_detector_config(r: &mut Reader<'_>) -> Result<OneShotStlConfig, CodecError> {
    let lambdas = Lambdas { lambda1: r.f64()?, lambda2: r.f64()? };
    pinned_f64(r, ANCHOR, "seasonal anchor weight != 1")?;
    let iters = r.u32()? as usize;
    let shift_window = r.u32()? as usize;
    let nsigma = r.f64()?;
    if r.u8()? != 0 {
        return Err(CodecError::Invalid("shift policy tag (only cumulative, 0, is read)"));
    }
    pinned_f64(r, SHIFT_ACCEPT_RATIO, "shift accept ratio != 0.5")?;
    let init = match r.u8()? {
        0 => InitMethod::Stl,
        1 => InitMethod::JointStl,
        _ => return Err(CodecError::Invalid("init method tag")),
    };
    pinned_f64(r, IRLS_EPS, "IRLS eps != 1e-10")?;
    let shift_search = decode_shift_search(r)?;
    Ok(OneShotStlConfig { lambdas, iters, shift_window, nsigma, shift_search, init })
}

/// Pending per-series admission overrides of a warming series — also the
/// payload of the network protocol's admit-options request.
pub(crate) fn encode_admit_options(w: &mut Writer, o: &AdmitOptions) {
    w.opt_f64(o.lambda);
    w.opt_f64(o.nsigma);
    w.opt_u32(o.period.map(|v| v as u32));
    match o.shift_search {
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
            w.u8(4);
            encode_decomposer(w, decomposer);
            encode_cusum(w, scorer);
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
        4 => PhaseSnapshot::Live {
            decomposer: decode_decomposer(r)?,
            scorer: decode_cusum(r)?,
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
        let solver = decode_solver(r, config.lambdas)?;
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

fn encode_solver(w: &mut Writer, s: &IncrementalSolver) {
    w.u8(2);
    w.u64(s.m as u64);
    for &v in s.lo.iter().chain(&s.dd).chain(&s.zo) {
        w.f64(v);
    }
}

/// A solver window (tag `2`), or a v14 solver's first points (tag `0`)
/// replayed under the decomposer's λ (see the module docs).
fn decode_solver(
    r: &mut Reader<'_>,
    lambdas: Lambdas,
) -> Result<IncrementalSolver, CodecError> {
    match r.u8()? {
        0 => replay_first_points(r, lambdas),
        2 => Ok(IncrementalSolver {
            m: r.u64()? as usize,
            lo: r.window()?,
            dd: r.window()?,
            zo: r.window()?,
        }),
        _ => Err(CodecError::Invalid("solver state tag")),
    }
}

/// A v14 solver in its first points: the `y`, `u`, `pw` and `qw` of the
/// ≤ 3 points it had seen, each the value its last step read. Stepped
/// from a fresh solver, point by point, they give the window this build
/// holds after the same points: up to step 3 a step's block covers every
/// real unknown, so each window depends on its own step's tail alone.
fn replay_first_points(
    r: &mut Reader<'_>,
    lambdas: Lambdas,
) -> Result<IncrementalSolver, CodecError> {
    let [y, u, pw, qw] = [r.vec_f64()?, r.vec_f64()?, r.vec_f64()?, r.vec_f64()?];
    let m = y.len();
    if m > 3 || [&u, &pw, &qw].iter().any(|h| h.len() != m) {
        return Err(CodecError::Invalid("v14 warm-up solver histories"));
    }
    let mut solver = IncrementalSolver::new();
    for step in 1..=m {
        // slot s holds time s + step − 3, newest last
        let tail = |h: &[f64]| {
            std::array::from_fn(|s| (s + step).checked_sub(3).map_or(0.0, |j| h[j]))
        };
        let (y3, u3, p3, q3) = (tail(&y), tail(&u), tail(&pw), tail(&qw));
        solver.step(&TailData { m: step, y3, u3, p3, q3, lambdas });
    }
    Ok(solver)
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

/// The scorer of a live series: its CUSUM part alone, since the running
/// residual sums are its decomposer's.
fn encode_cusum(w: &mut Writer, s: &CusumState) {
    encode_score_config(w, &s.config);
    w.f64(s.n);
    w.f64(s.s_pos);
    w.f64(s.s_neg);
    w.f64(s.hold);
}

fn decode_cusum(r: &mut Reader<'_>) -> Result<CusumState, CodecError> {
    let config = decode_score_config(r)?;
    let n = r.f64()?;
    checked_cusum(CusumState { config, n, s_pos: r.f64()?, s_neg: r.f64()?, hold: r.f64()? })
}

/// A residual scorer with sums of its own: the trend CUSUM's.
fn encode_scorer(w: &mut Writer, s: &ResidualScorerState) {
    encode_score_config(w, &s.cusum.config);
    encode_nsigma(w, &s.nsigma);
    w.f64(s.cusum.s_pos);
    w.f64(s.cusum.s_neg);
    w.f64(s.cusum.hold);
}

fn decode_scorer(r: &mut Reader<'_>) -> Result<ResidualScorerState, CodecError> {
    let config = decode_score_config(r)?;
    let nsigma = decode_nsigma(r)?;
    let n = nsigma.n;
    let cusum = CusumState { config, n, s_pos: r.f64()?, s_neg: r.f64()?, hold: r.f64()? };
    Ok(ResidualScorerState { nsigma, cusum: checked_cusum(cusum)? })
}

/// Mirrors the config-level smuggling checks for the dynamic state: a
/// NaN bar never alarms (`z > NaN` is false), a NaN accumulator would
/// silently disable one CUSUM side forever (`f64::max(NaN, x)` returns
/// `x`), and no writer can produce values outside the update loop's
/// clamp ranges.
fn checked_cusum(s: CusumState) -> Result<CusumState, CodecError> {
    if !(s.n.is_finite() && s.n > 0.0) {
        return Err(CodecError::Invalid("nsigma bar"));
    }
    let bar = 2.0 * s.config.cusum_h;
    for acc in [s.s_pos, s.s_neg] {
        if !(acc.is_finite() && (0.0..=bar).contains(&acc)) {
            return Err(CodecError::Invalid("scorer accumulator"));
        }
    }
    if !(s.hold.is_finite() && s.hold >= 0.0) {
        return Err(CodecError::Invalid("scorer hold"));
    }
    Ok(s)
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
    /// A solver window: `N` bare `f64`s.
    fn window<const N: usize>(&mut self) -> Result<[f64; N], CodecError> {
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
                            shift_search: Some(ShiftPrune::TopK(7)),
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
    /// non-finite running sums would stop the series from ever alarming.
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
        let make = |mutate: &dyn Fn(&mut CusumState, &mut NSigmaState)| {
            let mut snap = sample_snapshot();
            let mut scorer = det.scorer().to_state();
            let mut decomposer = det.decomposer.to_state();
            mutate(&mut scorer, &mut decomposer.nsigma);
            snap.series.push(SeriesSnapshot {
                key: SeriesKey::new("live"),
                last_seen: 50,
                phase: PhaseSnapshot::Live {
                    decomposer,
                    scorer,
                    forecast: None,
                    backend: None,
                },
            });
            encode(&snap)
        };
        // in-range state decodes…
        decode(&make(&|s, _| {
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
            let bad = make(&|s, _| {
                (s.s_pos, s.s_neg, s.hold) = (sp, sn, hold);
            });
            assert!(
                decode(&bad).is_err(),
                "scorer state ({sp}, {sn}, {hold}) must be rejected"
            );
        }
        // …nor do a NaN or negative bar and non-finite sums
        for n in [f64::NAN, -1.0] {
            let bad = make(&|s, _| s.n = n);
            assert_eq!(decode(&bad), Err(CodecError::Invalid("nsigma bar")), "n = {n}");
        }
        let bad = make(&|_, sums| sums.sum = f64::NAN);
        assert_eq!(decode(&bad), Err(CodecError::Invalid("nsigma sums")), "NaN sum");
        let bad = make(&|_, sums| sums.sum_sq = f64::INFINITY);
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
        overrides.shift_search = Some(ShiftPrune::TopK(0));
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
    /// sine through initialization and four periods of scored updates at
    /// the fleet's I = 6 IRLS iterations, a forecast head, and a
    /// trend-CUSUM backend.
    fn sample_live_series() -> SeriesSnapshot {
        let t = 12usize;
        let y: Vec<f64> = (0..8 * t)
            .map(|i| 1.5 + (2.0 * std::f64::consts::PI * i as f64 / t as f64).sin())
            .collect();
        let mut det = oneshotstl::StdAnomalyDetector::new(
            oneshotstl::OneShotStl::new(FleetConfig::default().detector),
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

    /// [`encode_series_blob`] of [`sample_live_series`] by the v14 writer:
    /// what a v14 build left in its cold tier.
    const V14_LIVE_BLOB_HEX: &str = concat!(
        "0e00040000006c6976653c000000000000000400000000000059400000000000005940000000",
        "000000f03f0600000014000000000000000000144000000000000000e03f00bbbdd7d9df7cdb",
        "3d01040000000c00000000000000600000000000000030000000000000000000000000000000",
        "0c0000000000000005472d54c5e3ffbe84ee526b82ffdf3f95afb7d73cb6eb3f459ba1edb2ff",
        "ef3f9234caff2db6eb3f50ac3b306affdf3fed401fb1495602bf3d2d04014800e0bf535da6c1",
        "c1b6ebbf23843fed2200f0bf68330edbbfb6ebbff3af94264400e0bf52b3a7178549e43f0800",
        "00000000f03f0633b794bdb6ebbff006f1314100e0bf06000000023000000000000000b59ee4",
        "df35cad63f831f5ad69dd4c6bf6cf6380017fff4bfcb52373dad08e53f000000000000000000",
        "0000000000000000000000000000000e647b2c02cad63f0377aff369d4c6bf00000000000000",
        "005ded42b6388d714015d4f51a6af1ff3f4441e087608d7140d47d0c3c6af1ff3f385fb56ab6",
        "93314091a2f7baf2dbd2bfc37cb04eb8733140d22784ea57fde1bf000000000000f03f000000",
        "000000f03f000000000000f03f000000000000f03f2c3571521f00f83fc10df0681f00f83f02",
        "30000000000000001cbcda9cb59ee33f7860fe9cb59ed3bfb064d7e87337f9bfdfaffbe87337",
        "e93f000000000000000000000000000000000000000000000000f32f42e7e76ee23fc2b75ce7",
        "e76ed2bf00000000000000008e20d415799dd1413fdec5ffffffff3f808b8c16c03bd64173f1",
        "d1ffffffff3fba1acc4cbe445640e0b207b1f0b4cdbf01029de3d63b56404f2adf754400e0bf",
        "f8969b7953de4a419f2e0eec96c25641689177cc0da65b41822d6c5db16460412e2016d166ff",
        "f73fa2a62ba86afff73f023000000000000000caaec82fe9eaeb3fbce15730e9eadbbf08c334",
        "edc5aafcbf4a630ceec5aaec3f000000000000000000000000000000000000000000000000be",
        "39dcb08c55e93f49c89ab18c55d9bf0000000000000000ea9d750358f4b8416edc5bffffffff",
        "3f52155e1d7204b141014e0fffffffff3fd51b7ee6ec7163405635232df3b4cdbfd8eb23870f",
        "426540dd6faa954500e0bfec247529e76eff4059061cb079aa0041d9225df4e4dd4b4119dc3d",
        "ccad3e414107a3326f1000f83ff28677bf1000f83f02300000000000000055812edd10cbe83f",
        "e3d549dd10cbd8bfd6f6e2cb5bf4f9bf96090fcc5bf4e93f0000000000000000000000000000",
        "00000000000000000000bac671beb7e8e33f6f9593beb7e8d3bf0000000000000000d32e32e8",
        "8807dd41b7b9dcffffffff3f559d7b4d3bd8d24136a9c9ffffffff3f8a9b112a00586040a188",
        "589ff0b4cdbfa253ec2d9af460405f8a748f4400e0bf97560045d60a35417dbfae06a1833941",
        "2484a5a211ca6c4183a74ac4ab035e413eabca1e2b00f83f101ee0cc2a00f83f023000000000",
        "0000000469dd73a641d13f29e4fa73a641c1bff21b4ca62e58fcbfd74a6ca62e58ec3f000000",
        "000000000000000000000000000000000000000000f2d38a575db0e83f49dca6575db0d8bf00",
        "00000000000000245122061dbbd241bd54c9ffffffff3faa99d7e3e02edc418caadbffffffff",
        "3fdf9dc04ba2ed5440c0683b9ef0b4cdbf706f50f23a6d4c40676f02664400e0bf4cdb6316d9",
        "293c4143453bab4b003941023ad5afbadb4941e0416e811ad56b416ce4c8fb3800f83f036e83",
        "5c3800f83f0230000000000000009b99fc3c3917d43fff16483d3917c4bfb3a88ad971c7f9bf",
        "8132e7d971c7e93f0000000000000000000000000000000000000000000000001f3f9fd4e38e",
        "e33f3074e5d4e38ed3bf0000000000000000a03971686808c141ffc287ffffffff3f3d69795b",
        "36d4c14174218dffffffff3fff1e1164358b5040f8a2dd07f1b4cdbf1c7f9e23b2874b40d179",
        "48874400e0bf9fefb327adb5304163f9392195b729413d8d94324c603b416fccb3b668e54b41",
        "8d73869c2300f83f842c9c8d2300f83f00000000000014406000000000000000d1041c8f6445",
        "3abf03dc6fb195244e3e0102000000000000e03f0000000000001840ae47e17a14aeef3f0000",
        "00000000144000000000000000000000000000000000785c17c257b4394002000000000000f0",
        "3f010102000000000000e03f0000000000001840ae47e17a14aeef3f00000000000014400000",
        "0000000000000000000000000000000000000000000000000000000000000000000000000000",
        "000000000000000000000000000000000010000000",
    );

    /// A series blob whose decomposer carries the wrong number of IRLS
    /// iteration states still decodes (the codec reads any count), but the
    /// restore refuses it: with no states every point would decompose as
    /// trend 0, seasonal 0, residual = y, and with 3 of 6 the model would
    /// silently run fewer reweightings than its config says.
    #[test]
    fn wrong_irls_iteration_count_fails_the_restore() {
        let config = FleetConfig::fixed_period(12);
        let shared = crate::series::Shared::new(&config);
        let live = sample_live_series();
        let intact = decode_series_blob(&encode_series_blob(&live)).unwrap();
        let restore =
            |phase| crate::series::SeriesState::from_snapshot(phase, &config, &shared);
        assert!(restore(intact.phase).is_ok());
        for keep in [0, 3] {
            let mut doctored = live.clone();
            let PhaseSnapshot::Live { decomposer, .. } = &mut doctored.phase else {
                unreachable!("the sample series is live");
            };
            decomposer.iters.truncate(keep);
            let back = decode_series_blob(&encode_series_blob(&doctored))
                .expect("the codec reads any iteration count");
            assert!(restore(back.phase).is_err(), "{keep} iteration states restored");
        }
    }

    /// Cold-tier series blobs round-trip bit-identically, a blob spilled
    /// by the previous (v14) build rehydrates to the same series and
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

        let v14 = unhex(V14_LIVE_BLOB_HEX);
        assert_eq!(u16::from_le_bytes([v14[0], v14[1]]), 14);
        let back = decode_series_blob(&v14).unwrap();
        assert_eq!(back, sample_live_series());
        // a steady series' bytes did not move: only the version differs
        let v15 = encode_series_blob(&back);
        assert_eq!(u16::from_le_bytes([v15[0], v15[1]]), 15);
        assert_eq!(v14[2..], v15[2..]);
    }

    /// A blob two versions old or older is refused outright, whatever its
    /// body holds.
    #[test]
    fn blobs_older_than_v14_are_refused() {
        let mut old = unhex(V14_LIVE_BLOB_HEX);
        for version in [13u16, 12] {
            old[..2].copy_from_slice(&version.to_le_bytes());
            assert_eq!(decode_series_blob(&old), Err(CodecError::UnsupportedVersion(version)));
        }
    }

    /// A solver is one window (tag `2`, any step count): its step count,
    /// then 10 `L` cells, 4 `D` and 4 `z` values, bare. A v14 solver in
    /// its first points (tag `0`) holds four histories of one length,
    /// at most 3, and reads as the window its points step a fresh solver
    /// into; other lengths, and the v13 length-prefixed layout (tag `1`),
    /// are invalid.
    #[test]
    fn malformed_solver_windows_are_rejected() {
        let lambdas = Lambdas { lambda1: 3.0, lambda2: 0.5 };
        let read = |bytes: &[u8]| decode_solver(&mut Reader { data: bytes, pos: 0 }, lambdas);
        let mut solver = IncrementalSolver::new();
        for m in 0..6u64 {
            let mut w = Writer::default();
            encode_solver(&mut w, &solver);
            assert_eq!(w.buf.len(), 9 + 8 * (10 + 4 + 4), "windows carry no lengths");
            assert_eq!(read(&w.buf), Ok(solver), "a window after {m} points");
            let tail = TailData {
                m: m as usize + 1,
                y3: [0.5, -1.0, 2.0],
                u3: [0.25; 3],
                p3: [1.5; 3],
                q3: [0.75; 3],
                lambdas,
            };
            solver.step(&tail);
        }
        let histories = |lens: [usize; 4]| {
            let mut w = Writer::default();
            w.u8(0);
            for n in lens {
                w.vec_f64(&vec![0.5; n]);
            }
            w.buf
        };
        for n in 0..=3 {
            assert_eq!(read(&histories([n; 4])).unwrap().m, n, "{n} points");
        }
        for lens in [[4; 4], [2, 2, 1, 2], [1, 0, 1, 1], [3, 3, 3, 4]] {
            let want = Err(CodecError::Invalid("v14 warm-up solver histories"));
            assert_eq!(read(&histories(lens)), want, "{lens:?}");
        }
        let mut v13 = Writer::default();
        v13.u8(1);
        v13.u64(9);
        for n in [10, 4, 4] {
            v13.vec_f64(&vec![0.5; n]);
        }
        assert_eq!(read(&v13.buf), Err(CodecError::Invalid("solver state tag")));
    }

    /// [`OneShotStl::state_bytes`] is the exact encoded size of the
    /// decomposer state: after its first 2 points, when each solver is
    /// already the window it stays, and later under either shift-search
    /// policy.
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
            (ShiftPrune::default(), 2),
            (ShiftPrune::default(), 4 * t),
            (ShiftPrune::Off, 4 * t),
        ] {
            let cfg = OneShotStlConfig { shift_search: search, ..OneShotStlConfig::default() };
            let mut m = oneshotstl::OneShotStl::new(cfg);
            m.init(&y[..4 * t], t).unwrap();
            for &v in &y[4 * t..4 * t + points] {
                m.update(v);
            }
            for it in &m.to_state().iters {
                let mut w = Writer::default();
                encode_solver(&mut w, &it.solver);
                assert_eq!((w.buf[0], it.solver.m), (2, points), "a window");
            }
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

    /// A forecast head decodes from its tag `2`; a crafted image carrying
    /// a damping outside `[0, 1]`, an unknown head or options tag, or the
    /// v12 layouts (head tag `1`, options tags `0|1`), fails to decode
    /// with a typed error.
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
        for phi in [f64::NAN, -0.1, 1.5] {
            assert_eq!(read(&head(phi)), Err(CodecError::Invalid("forecast head damping")));
        }
        for tag in [1, 3] {
            let mut bad = head(0.9);
            bad[0] = tag;
            assert_eq!(read(&bad), Err(CodecError::Invalid("forecast head tag")));
        }
        let options =
            |bytes: &[u8]| decode_forecast_options(&mut Reader { data: bytes, pos: 0 });
        let mut bad = vec![4];
        bad.extend(1.0f64.to_le_bytes());
        for tag in [0, 1, 4] {
            bad[0] = tag;
            assert_eq!(options(&bad), Err(CodecError::Invalid("forecast options tag")));
        }
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
        for old in [11u16, 12, 13] {
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
        // every truncation point fails cleanly: of the image, of a live
        // series and of a solver window
        for cut in 0..bytes.len() {
            assert!(decode(&bytes[..cut]).is_err(), "cut at {cut} should not decode");
        }
        let live = encode_series_blob(&sample_live_series());
        for cut in 0..live.len() {
            assert!(decode_series_blob(&live[..cut]).is_err(), "live series cut at {cut}");
        }
        let PhaseSnapshot::Live { decomposer, .. } = sample_live_series().phase else {
            unreachable!("the sample series is live");
        };
        let mut solver = Writer::default();
        encode_solver(&mut solver, &decomposer.iters[0].solver);
        assert_eq!(solver.buf[0], 2, "a solver window");
        for cut in 0..solver.buf.len() {
            let data = &solver.buf[..cut];
            let read = decode_solver(&mut Reader { data, pos: 0 }, Lambdas::default());
            assert_eq!(read, Err(CodecError::Truncated), "solver cut at {cut}");
        }
        let mut trailing = bytes.clone();
        trailing.push(0);
        assert_eq!(
            decode(&trailing),
            Err(CodecError::Invalid("trailing bytes after snapshot"))
        );
        // the retired config values keep their bytes and are pinned: the
        // engine config's warm-up cycles (a u32 after `shards`) and cap
        // (an option after the 5-byte fixed period) ...
        assert_eq!((&bytes[15..19], bytes[24]), (&3u32.to_le_bytes()[..], 0));
        let mut cycles = bytes.clone();
        cycles[15] = 4;
        assert_eq!(decode(&cycles), Err(CodecError::Invalid("warm-up cycles != 3")));
        let capped = [&bytes[..24], &[1, 150, 0, 0, 0], &bytes[25..]].concat();
        assert_eq!(decode(&capped), Err(CodecError::Invalid("warm-up cap is Some")));
        // ... and each detector config's anchor weight, shift policy tag,
        // accept ratio and IRLS clamp, in the image's engine config and in
        // a cold blob's live decomposer
        let mut detector = Writer::default();
        encode_detector_config(&mut detector, &FleetConfig::default().detector);
        let retired: [(usize, &[u8], &str); 4] = [
            (16, &2.0f64.to_le_bytes(), "seasonal anchor weight != 1"),
            (40, &[1], "shift policy tag (only cumulative, 0, is read)"),
            (41, &0.25f64.to_le_bytes(), "shift accept ratio != 0.5"),
            (50, &1e-6f64.to_le_bytes(), "IRLS eps != 1e-10"),
        ];
        let at = |bytes: &[u8]| {
            let found = bytes.windows(detector.buf.len()).position(|w| w == detector.buf);
            found.expect("the default detector config is encoded")
        };
        let (in_image, in_blob) = (at(&bytes), at(&live));
        for (offset, value, what) in retired {
            let mut image = bytes.clone();
            image[in_image + offset..][..value.len()].copy_from_slice(value);
            assert_eq!(decode(&image), Err(CodecError::Invalid(what)), "image: {what}");
            let mut blob = live.clone();
            blob[in_blob + offset..][..value.len()].copy_from_slice(value);
            assert_eq!(
                decode_series_blob(&blob),
                Err(CodecError::Invalid(what)),
                "blob: {what}"
            );
        }
    }
}
