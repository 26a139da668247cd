//! OneShotSTL (paper Algorithm 5) with seasonality-shift handling (§3.4).
//!
//! ## Structure
//!
//! [`OnlineJointStl`] is the IRLS shell shared by the `O(1)` algorithm and
//! the exact Algorithm-2 reference: it owns the seasonal buffer `v`, the
//! per-iteration weight histories, the NSigma trigger and the shift search.
//! The per-iteration linear-system solving is delegated to a [`TailSolver`]:
//!
//! - [`crate::online_doolittle::IncrementalSolver`] → [`OneShotStl`]
//!   (the paper's `O(1)` algorithm), and
//! - [`crate::reference::GrowingSolver`] → [`crate::ModifiedJointStlRef`]
//!   (Algorithm 2 solved exactly at every step, `O(M)` per update).
//!
//! Equivalence of the two (property-tested below) is the paper's central
//! correctness claim: OnlineDoolittle computes the *exact* newest solution
//! entries of the growing system.
//!
//! ## Per-update flow (one arriving point `y_t`)
//!
//! 1. For each IRLS iteration `i = 0..I`: build the trailing system block
//!    from the last three observations, seasonal anchors
//!    `u_j = v[(t_j + Δ) mod T]`, and iteration-`i` weights; solve for
//!    `(τ_t, s_t)`; derive the iteration-`i+1` weights from Eq. 4–5
//!    (append-only, as in Algorithm 2).
//! 2. Feed `r_t = y_t − τ_t − s_t` to NSigma. On an anomaly verdict, run
//!    the §3.4 shift search as a **two-stage candidate pipeline**:
//!    - *stage 1* scores every phase offset `Δt ∈ [−H, H] \ {0}` with the
//!      zero-cost seasonal-buffer proxy residual
//!      `r̂(Δt) = y − τ_{t−1} − v[(t + Δ + Δt) mod T]` (two reads and a
//!      subtraction per offset — no linear algebra), and
//!    - *stage 2* re-runs step 1 (a full IRLS trial, ~40× a plain update)
//!      only for the offsets [`OneShotStlConfig::shift_search`] lets
//!      through: all of them under [`ShiftPrune::Off`], the `k` best proxy
//!      scores under [`ShiftPrune::TopK`]. `Δt = 0` is the mandatory
//!      baseline either way, and the result with the smallest `|r_t|` wins
//!      (when it clears the fixed acceptance ratio, `SHIFT_ACCEPT_RATIO`).
//!
//!    An accepted offset persists: it becomes the model's cumulative
//!    phase offset `Δ`, so the buffer index follows the drifted phase
//!    (the lasting shift of paper Fig. 3).
//! 3. Write the seasonal buffer: `v[(t + Δ) mod T] = s_t`.
//!
//! A host stepping many independent models can update two at once
//! ([`OnlineJointStl::update_pair_with_scratch`]): step 1's Δt = 0 trials
//! of both models run in lock step through the two-lane step kernel (one
//! model per lane), so their serial IRLS chains overlap, and steps 2–3
//! then run per model. The outputs are bit-identical to two one-model
//! updates.

use crate::nsigma::NSigma;
use crate::online_doolittle::IncrementalSolver;
use crate::system::{Lambdas, TailData};
use decomp::traits::{BatchDecomposer, OnlineDecomposer};
use decomp::{Stl, StlConfig, StlPlans};
use std::sync::Arc;
use tskit::error::{Result, TsError};
use tskit::series::{DecompPoint, Decomposition};

/// Per-iteration linear-system solver: consumes one trailing block per
/// online point and returns the exact `(τ_t, s_t)` of its growing system.
pub trait TailSolver: Clone + Default {
    /// Short name for diagnostics.
    const NAME: &'static str;

    /// Processes the next point (`tail.m` must advance by one each call).
    fn step(&mut self, tail: &TailData) -> (f64, f64);

    /// [`TailSolver::step`] for `L` independent solvers, without mutating
    /// them: lane `q` steps from `src[q]` on `tails[q]` into `dst[q]`
    /// (stale scratch), so a rejected trial costs nothing to roll back.
    /// The default clones and steps the lanes one at a time; a solver with
    /// a plain-old-data, multi-lane kernel overrides it, bit-identically.
    #[inline(always)]
    fn step_lanes<const L: usize>(
        src: [&Self; L],
        tails: &[TailData; L],
        mut dst: [&mut Self; L],
    ) -> [(f64, f64); L] {
        std::array::from_fn(|q| {
            dst[q].clone_from(src[q]);
            dst[q].step(&tails[q])
        })
    }
}

impl TailSolver for IncrementalSolver {
    const NAME: &'static str = "OneShotSTL";

    fn step(&mut self, tail: &TailData) -> (f64, f64) {
        IncrementalSolver::step(self, tail)
    }

    #[inline(always)]
    fn step_lanes<const L: usize>(
        src: [&Self; L],
        tails: &[TailData; L],
        dst: [&mut Self; L],
    ) -> [(f64, f64); L] {
        IncrementalSolver::step_lanes(src, tails, dst)
    }
}

/// A non-zero Δt is accepted only when its |r_t| is below this fraction
/// of the Δt = 0 residual: a genuine phase shift shrinks the residual by
/// an order of magnitude, a trend jump (which no offset can fix) does not.
const SHIFT_ACCEPT_RATIO: f64 = 0.5;

/// The IRLS clamp ε of the Eq. 4–5 weights `1 / (2·max(|x|, ε))`.
const EPS: f64 = 1e-10;

/// Stage-1 candidate pruning of the §3.4 shift search (see the module
/// docs for the two-stage pipeline).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ShiftPrune {
    /// Exhaustive search: every offset in `[−H, H]` runs a full IRLS
    /// trial. Bit-identical to the pre-pruning implementation (pinned by
    /// the golden fixture in `tests/golden_update.rs`).
    Off,
    /// Run full IRLS trials only on the `k` offsets with the smallest
    /// proxy residual `|r̂(Δt)|` (plus the mandatory `Δt = 0` baseline):
    /// at most `k + 1` trials per flagged point instead of `2H + 1`.
    /// Proxy ties break toward the smaller `|Δt|` (then the negative one)
    /// so the selection is deterministic. `TopK(0)` degenerates to
    /// baseline-only — the search runs but can never adopt an offset;
    /// prefer `shift_window: 0`, which skips it wholesale (the fleet
    /// config layer rejects `TopK(0)` for exactly this reason).
    TopK(usize),
}

/// The `k` of the default [`ShiftPrune::TopK`] policy. Chosen by the
/// `shift_ablation` benchmark on the shifted-seasonality workloads:
/// `k = 4` keeps decomposition MAE within 1% of the exhaustive search
/// while cutting full IRLS trials per flagged point from `2H + 1 = 41`
/// to at most 5 (see `docs/ARCHITECTURE.md`, "Shift search").
pub const DEFAULT_SHIFT_TOP_K: usize = 4;

impl Default for ShiftPrune {
    fn default() -> Self {
        ShiftPrune::TopK(DEFAULT_SHIFT_TOP_K)
    }
}

/// Initialization method for the offline phase (Algorithm 5, line 1:
/// "obtain τ, s, r by STL or JointSTL").
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum InitMethod {
    /// Classic STL with periodic seasonal smoothing and one robustness
    /// pass (the default): 8 LOESS passes of `N` allocation-free local
    /// fits over T to 1.5·T points each. A 72-point window (`T = 24`) costs
    /// 0.1–0.2 ms on a 2.1 GHz Xeon core, about a hundred online updates.
    #[default]
    Stl,
    /// Batch JointSTL (Algorithm 1) — the model-consistent choice: 8 IRLS
    /// solves of the `2N`-unknown Eq. 6 system, banded `O(N·T²)` for
    /// `2T ≤ 128`, conjugate gradients beyond. Dearer for long periods.
    JointStl,
}

/// OneShotSTL configuration (paper defaults per §5.1.4).
#[derive(Debug, Clone, PartialEq)]
pub struct OneShotStlConfig {
    /// Trend penalties λ1, λ2 (the paper ties and tunes them).
    pub lambdas: Lambdas,
    /// IRLS iterations `I` (paper default 8).
    pub iters: usize,
    /// Maximum seasonality-shift `H` (paper default 20; 0 disables the
    /// shift search).
    pub shift_window: usize,
    /// NSigma threshold `n` for the shift trigger (paper default 5).
    pub nsigma: f64,
    /// §3.4 shift-search stage-1 candidate pruning.
    pub shift_search: ShiftPrune,
    /// Offline initialization method.
    pub init: InitMethod,
}

impl Default for OneShotStlConfig {
    fn default() -> Self {
        OneShotStlConfig {
            lambdas: Lambdas::default(),
            iters: 8,
            shift_window: 20,
            nsigma: 5.0,
            shift_search: ShiftPrune::default(),
            init: InitMethod::Stl,
        }
    }
}

impl OneShotStlConfig {
    /// Whether two configs are equal bit for bit. `==` would also match
    /// `0.0` with `-0.0`, and a model must keep the exact config it was
    /// built or imaged with.
    pub fn bit_eq(&self, other: &Self) -> bool {
        // exhaustive, so a new config field cannot be left out of the check
        let fields = |c: &Self| {
            let OneShotStlConfig {
                lambdas: Lambdas { lambda1, lambda2 },
                iters,
                shift_window,
                nsigma,
                shift_search,
                init,
            } = *c;
            let floats = [lambda1, lambda2, nsigma];
            (floats.map(f64::to_bits), iters, shift_window, shift_search, init)
        };
        fields(self) == fields(other)
    }
}

/// Per-IRLS-iteration state (Algorithm 5 keeps one weight vector per
/// iteration; only the trailing two entries are ever read again).
#[derive(Debug, Clone)]
pub struct IterState<S> {
    /// The iteration's solver (for [`OneShotStl`], the `O(1)` window).
    pub solver: S,
    /// `pw` at times `m−2, m−1` (weight of the diff `(j−1, j)`).
    pub pw_hist: [f64; 2],
    /// `qw` at times `m−2, m−1`.
    pub qw_hist: [f64; 2],
    /// This iteration's trend output at times `m−2, m−1` (Eq. 4–5 inputs).
    pub tau_hist: [f64; 2],
}

/// The outcome of running all IRLS iterations for one candidate shift.
/// The successor iteration states live in the scratch buffer the trial ran
/// in, not here — committing a trial is a buffer swap, not a move.
#[derive(Debug, Clone, Copy)]
struct TrialOut {
    point: DecompPoint,
    /// The anchor used for the newest point (frozen into `u_hist`).
    u_new: f64,
}

/// Reusable trial buffers: `base[q]` holds lane `q`'s Δt = 0 baseline
/// trial's successor iteration states (kept intact through the whole
/// search, so a rejected shift needs no recompute; a one-model update uses
/// lane 0, a paired update both), `best` the winning candidate's,
/// and `trial` is the scratch a candidate runs in before it is (maybe)
/// swapped into `best`. `proxy` and `cand` are the stage-1 scoring and
/// candidate-offset scratch of the pruned search. Allocated once; the
/// steady-state `update` path — including every §3.4 shift search, pruned
/// or exhaustive — performs **zero heap allocations** (pinned by
/// `tests/zero_alloc.rs`). A model holds none inline: it borrows an
/// [`UpdateScratch`], or boxes its own on its first plain `update`.
#[derive(Debug, Clone, Default)]
struct TrialBufs<S: TailSolver> {
    base: [Vec<IterState<S>>; 2],
    best: Vec<IterState<S>>,
    trial: Vec<IterState<S>>,
    /// `(|r̂(Δt)|, Δt)` proxy scores, one per non-zero offset.
    proxy: Vec<(f64, i64)>,
    /// Flat `|r̂|` scores in ascending-offset order (`Δt = 0` included):
    /// the stage-1 proxy loop fills this with stride-1 sweeps over the
    /// seasonal buffer so the autovectorizer can fire, then zips it with
    /// the offsets into `proxy`.
    proxy_r: Vec<f64>,
    /// Offsets surviving stage 1, in evaluation order.
    cand: Vec<i64>,
}

/// Shareable trial scratch for [`OnlineJointStl::update_with_scratch`].
///
/// A model's plain [`OnlineDecomposer::update`] boxes a scratch of its own
/// on first use, which is ideal for a single hot stream. A host
/// multiplexing *many* models on one thread (the `fleet` shard worker)
/// should instead own one `UpdateScratch` per thread and pass it to every
/// model's `update_with_scratch` (or to two models' paired
/// [`OnlineJointStl::update_pair_with_scratch`], which uses a second
/// baseline buffer): the scratch stays hot in cache across series, and a
/// model that never runs a plain `update` holds no scratch at all (an
/// 8-byte empty `Option<Box<…>>`). Buffers are sized lazily on first use
/// and resized automatically if models disagree on `iters`.
#[derive(Debug, Clone, Default)]
pub struct UpdateScratch<S: TailSolver>(TrialBufs<S>);

/// The shared online-JointSTL shell (see module docs). Use the
/// [`OneShotStl`] alias for the paper's `O(1)` algorithm.
///
/// The `pub` fields are the model's whole state: the fleet codec writes
/// them as they are and builds a decoded model with
/// [`OneShotStl::new`] plus field assignments, then [`OneShotStl::check`]
/// tells a consistent state from a corrupted one. The trial scratch and
/// the diagnostic counters stay private and are never serialized.
#[derive(Debug, Clone)]
pub struct OnlineJointStl<S: TailSolver> {
    /// Configuration (λ, I, H, n, policies), behind an `Arc` so that many
    /// models tuned alike (a fleet shard's series) point at one copy.
    pub config: Arc<OneShotStlConfig>,
    /// Seasonal period `T` (0 before init).
    pub period: usize,
    /// Global time index of the next arriving point.
    pub t: u64,
    /// Number of online points processed.
    pub m: usize,
    /// Cumulative phase offset Δ.
    pub shift: i64,
    /// Seasonal buffer `v ∈ R^T`.
    pub v: Vec<f64>,
    /// Last two observed values (times `m−2`, `m−1`).
    pub y_hist: [f64; 2],
    /// Seasonal anchors of the last two points, **frozen at arrival**:
    /// `u_j = v[(t_j + Δ) mod T]` read before `v` is overwritten at that
    /// phase. Re-reading them later would return the point's own seasonal
    /// estimate (written at its step), silently un-anchoring the tail from
    /// the previous cycle and letting the trend/seasonal split drift.
    pub u_hist: [f64; 2],
    /// One state per IRLS iteration (`max(I, 1)` once initialized).
    pub iters: Vec<IterState<S>>,
    /// The plain `update`'s trial buffers, boxed on its first call (never
    /// serialized; `None` for a model stepped only through
    /// [`Self::update_with_scratch`]).
    scratch: Option<Box<TrialBufs<S>>>,
    /// Residual NSigma statistics (the §3.4 shift-search trigger).
    pub nsigma: NSigma,
    /// Whether `init` has run.
    pub initialized: bool,
    /// Lifetime count of §3.4 shift searches run (flagged points).
    searches: u64,
    /// Lifetime count of full IRLS trials run *by those searches*,
    /// including each search's Δt = 0 baseline. Diagnostics only (never
    /// serialized): `trials / searches` is the per-flagged-point cost the
    /// pruning policy bounds.
    search_trials: u64,
}

/// The paper's OneShotSTL: `O(1)` per-point online decomposition.
pub type OneShotStl = OnlineJointStl<IncrementalSolver>;

impl OneShotStl {
    /// Creates a OneShotSTL instance (call [`OnlineDecomposer::init`]
    /// before updating). Pass an `Arc` to share one config among models.
    pub fn new(config: impl Into<Arc<OneShotStlConfig>>) -> Self {
        OnlineJointStl::with_solver(config)
    }

    /// OneShotSTL with all paper defaults.
    pub fn default_paper() -> Self {
        Self::new(OneShotStlConfig::default())
    }

    /// Checks what a decoded model must satisfy before it is stepped: an
    /// initialized model holds a seasonal buffer of one period and one
    /// state per IRLS iteration, and every solver has taken one step per
    /// online point. A model that fails would decompose every point with
    /// the wrong number of reweightings (none at all: trend 0, seasonal 0,
    /// residual = y) or panic (`steps must be consecutive`) on its next
    /// update. Its residual statistics pass [`NSigma::check`].
    pub fn check(&self) -> Result<()> {
        self.nsigma.check()?;
        let (period, buffer) = (self.period, self.v.len());
        if self.initialized && (period < 2 || buffer != period) {
            return Err(TsError::InvalidParam {
                name: "OneShotStl",
                msg: format!(
                    "initialized state needs a seasonal buffer of one period \
                     (period {period}, buffer {buffer})"
                ),
            });
        }
        let want_iters = self.config.iters.max(1);
        if self.initialized && self.iters.len() != want_iters {
            return Err(TsError::InvalidParam {
                name: "OneShotStl.iters",
                msg: format!(
                    "initialized state has {} IRLS iteration states, its config needs {want_iters}",
                    self.iters.len()
                ),
            });
        }
        if let Some(st) = self.iters.iter().find(|st| st.solver.len() != self.m) {
            return Err(TsError::InvalidParam {
                name: "OneShotStl.iters",
                msg: format!(
                    "solver has {} steps but the model processed {} points",
                    st.solver.len(),
                    self.m
                ),
            });
        }
        Ok(())
    }

    /// Encoded size in bytes of the model under the fleet snapshot codec
    /// (`fleet::codec` pins the two equal). Computed from
    /// the seasonal-buffer length and shift-search policy without
    /// materialising the state, so the cost is constant per call (the IRLS
    /// iteration count is a small config constant). Capacity planning for
    /// per-node fleets keys off this number.
    pub fn state_bytes(&self) -> usize {
        // shift search: tag, plus a u32 k for TopK
        let search = match self.config.shift_search {
            ShiftPrune::Off => 1,
            ShiftPrune::TopK(_) => 5,
        };
        // config block: 3 × f64 + 2 × u32 + init tag + shift search
        let config = 3 * 8 + 2 * 4 + 1 + search;
        // period, t, m, shift
        let scalars = 4 * 8;
        // u64-length-prefixed f64 vector
        let vec_f64 = |n: usize| 8 + 8 * n;
        let seasonal = vec_f64(self.v.len());
        let hists = 2 * 16;
        // per iteration: the solver's tag, step count, 10 L band cells,
        // D[4] and z[4] (fixed-length windows written bare), then the
        // pw, qw and tau histories
        let iters = self.iters.len() * (9 + 8 * (10 + 4 + 4) + 3 * 16);
        let nsigma = 4 * 8;
        config + scalars + seasonal + hists + 4 + iters + nsigma + 1
    }
}

impl<S: TailSolver> Default for OnlineJointStl<S> {
    fn default() -> Self {
        Self::with_solver(OneShotStlConfig::default())
    }
}

impl<S: TailSolver> OnlineJointStl<S> {
    /// Generic constructor used by both the `O(1)` and the reference
    /// instantiation.
    pub fn with_solver(config: impl Into<Arc<OneShotStlConfig>>) -> Self {
        OnlineJointStl {
            config: config.into(),
            period: 0,
            t: 0,
            m: 0,
            shift: 0,
            v: Vec::new(),
            y_hist: [0.0; 2],
            u_hist: [0.0; 2],
            iters: Vec::new(),
            scratch: None,
            nsigma: NSigma::new(5.0),
            initialized: false,
            searches: 0,
            search_trials: 0,
        }
    }

    /// Seasonal period `T` (0 before init).
    pub fn period(&self) -> usize {
        self.period
    }

    /// Current cumulative phase offset Δ.
    pub fn shift(&self) -> i64 {
        self.shift
    }

    /// Lifetime `(searches, full IRLS trials)` of the §3.4 shift search:
    /// how many updates were flagged and how many full trials (including
    /// each search's Δt = 0 baseline) those searches ran. With
    /// [`ShiftPrune::TopK`]`(k)`, `trials ≤ searches · (k + 1)` — the
    /// bound the pruning exists to enforce. Diagnostics only: never
    /// serialized, so a model decoded from bytes starts them at zero (a
    /// clone copies them).
    pub fn shift_search_stats(&self) -> (u64, u64) {
        (self.searches, self.search_trials)
    }

    /// Whether [`OnlineDecomposer::init`] has run.
    pub fn is_initialized(&self) -> bool {
        self.initialized
    }

    /// Latest trend estimate τ_{t−1} (0 before any update).
    pub fn last_trend(&self) -> f64 {
        self.iters.last().map_or(0.0, |st| st.tau_hist[1])
    }

    /// The model's `i`-step-ahead prediction (`i ≥ 1`):
    /// `τ_{t−1} + v[(t−1+i+Δ) mod T]` — trend carry-forward plus the
    /// seasonal buffer, the same rule the paper's STD→TSF adapter uses.
    pub fn predict(&self, i: usize) -> f64 {
        assert!(self.initialized, "OneShotSTL::predict called before init");
        assert!(i >= 1, "OneShotSTL::predict horizon starts at 1");
        self.last_trend() + self.v[self.slot(self.t + i as u64 - 1, self.shift)]
    }

    /// Latest one-step trend slope `τ_{t−1} − τ_{t−2}` (0 before any
    /// update). The IRLS iteration states already carry the trend at the
    /// last two time steps, so the slope costs no extra state.
    pub fn trend_slope(&self) -> f64 {
        self.iters.last().map_or(0.0, |st| st.tau_hist[1] - st.tau_hist[0])
    }

    /// The paper's multi-horizon forecast (`h ≥ 1`):
    /// `ŷ(t+h) = τ(t) + slope·h + v[(t+Δ+h) mod T]` — [`Self::predict`]'s
    /// seasonal carry-forward plus a linear extrapolation of the trend.
    pub fn forecast(&self, h: usize) -> f64 {
        self.forecast_damped(h, 1.0)
    }

    /// [`Self::forecast`] with a damped trend: the slope term becomes
    /// `slope · Σ_{j=1..h} φ^j`. `φ = 1` is the paper's linear rule,
    /// `φ = 0` reduces to the carry-forward [`Self::predict`], values in
    /// between bound how far a noisy local slope may extrapolate.
    pub fn forecast_damped(&self, h: usize, phi: f64) -> f64 {
        self.predict(h) + self.trend_slope() * crate::forecast::damp_sum(phi, h)
    }

    /// Fills `out[i]` with the damped forecast at horizon `i + 1` —
    /// the whole multi-horizon forecast in one pass with **no heap
    /// allocation** (the fleet's steady-state forecast path).
    pub fn forecast_into(&self, phi: f64, out: &mut [f64]) {
        assert!(self.initialized, "OneShotSTL::forecast_into called before init");
        let tau = self.last_trend();
        let slope = self.trend_slope();
        let mut weight = 0.0;
        let mut pow = 1.0;
        // same association as `predict(h) + slope * damp_sum(phi, h)`, so
        // the fill is bit-identical to the single-horizon calls
        for (o, v) in out.iter_mut().zip(self.seasonal_ahead()) {
            pow *= phi;
            weight += pow;
            *o = (tau + v) + slope * weight;
        }
    }

    /// Fills `out[i]` with [`Self::predict`]`(i + 1)`, the plain
    /// carry-forward, in one pass with no heap allocation. Not
    /// `forecast_into(0.0, out)`: its `+ slope·0` turns a `-0.0` answer
    /// into `+0.0`.
    pub fn predict_into(&self, out: &mut [f64]) {
        assert!(self.initialized, "OneShotSTL::predict_into called before init");
        let tau = self.last_trend();
        for (o, v) in out.iter_mut().zip(self.seasonal_ahead()) {
            *o = tau + v;
        }
    }

    /// The seasonal buffer from horizon 1 on, `v[(t + Δ + i) mod T]` for
    /// `i = 0, 1, …`: one index that wraps at the period, not a
    /// `rem_euclid` per horizon.
    fn seasonal_ahead(&self) -> impl Iterator<Item = f64> + '_ {
        let (before, from) = self.v.split_at(self.slot(self.t, self.shift));
        from.iter().chain(before).copied().cycle()
    }

    #[inline]
    fn slot(&self, t: u64, shift: i64) -> usize {
        let period = self.period as i64;
        ((t as i64 + shift).rem_euclid(period)) as usize
    }

    /// Sizes a trial buffer to this model's iteration count: a no-op
    /// except on the first trial after init/restore (or a poisoned buffer
    /// after a panic); every later trial reuses it.
    fn size_trial_buf(&self, out: &mut Vec<IterState<S>>) {
        if out.len() != self.iters.len() {
            out.clear();
            out.extend(self.iters.iter().cloned());
        }
    }

    /// Runs all IRLS iterations for the arriving value under a candidate
    /// shift, without committing any state. The committed `self.iters` are
    /// only read; the successor iteration states are written into `out`
    /// (resized on first use, then reused — no allocation in steady state).
    #[inline(always)]
    fn run_trial_into(&self, y_new: f64, shift: i64, out: &mut Vec<IterState<S>>) -> TrialOut {
        let [trial] = Self::run_trials([self], [y_new], [shift], [out]);
        trial
    }

    /// [`Self::run_trial_into`] for `L` models in lock step, which must run
    /// the same number of IRLS iterations: lane `q` is model `q`'s trial of
    /// `ys[q]` under `shifts[q]` into `outs[q]`. Each iteration steps every
    /// lane's solver through one [`TailSolver::step_lanes`] call, so the
    /// lanes' serial chains (six Doolittle columns, then the Eq. 4–5
    /// weights the next iteration reads) overlap; every lane computes
    /// exactly the one-lane operations with its own λ. The scalar
    /// trial is `L = 1`.
    #[inline(always)]
    fn run_trials<const L: usize>(
        models: [&Self; L],
        ys: [f64; L],
        shifts: [i64; L],
        mut outs: [&mut Vec<IterState<S>>; L],
    ) -> [TrialOut; L] {
        let mut y3 = [[0.0; 3]; L];
        let mut u3 = [[0.0; 3]; L];
        let mut u_new = [0.0; L];
        for q in 0..L {
            let model = models[q];
            let m_new = model.m + 1;
            let k = m_new.min(3);
            // the newest point reads the (pre-write) seasonal buffer — one
            // cycle ago at its phase; previous points keep their frozen
            // anchors
            u_new[q] = model.v[model.slot(model.t, shifts[q])];
            // times covered: m_new-k .. m_new-1; newest last (slot 2)
            for j in m_new - k..m_new {
                let s = 3 - (m_new - j);
                if j + 1 == m_new {
                    y3[q][s] = ys[q];
                    u3[q][s] = u_new[q];
                } else {
                    // histories hold times m-2 (index 0) and m-1 (index 1)
                    y3[q][s] = model.y_hist[2 - (m_new - 1 - j)];
                    u3[q][s] = model.u_hist[2 - (m_new - 1 - j)];
                }
            }
        }
        let n = models[0].iters.len();
        for (model, out) in models.iter().zip(outs.iter_mut()) {
            model.size_trial_buf(out);
        }
        let srcs = models.map(|model| &model.iters[..n]);
        let mut outs = outs.map(|out| &mut out[..n]);
        let mut p_fresh = [1.0; L];
        let mut q_fresh = [1.0; L];
        let mut tau = [0.0; L];
        let mut s_out = [0.0; L];
        // the iterations differ only in their trend weights
        let mut tails: [TailData; L] = std::array::from_fn(|q| TailData {
            m: models[q].m + 1,
            y3: y3[q],
            u3: u3[q],
            p3: [0.0; 3],
            q3: [0.0; 3],
            lambdas: models[q].config.lambdas,
        });
        for i in 0..n {
            for q in 0..L {
                let src = &srcs[q][i];
                tails[q].p3 = [src.pw_hist[0], src.pw_hist[1], p_fresh[q]];
                tails[q].q3 = [src.qw_hist[0], src.qw_hist[1], q_fresh[q]];
            }
            let mut dsts = outs.each_mut().map(|out| &mut out[i]);
            let solved = S::step_lanes(
                std::array::from_fn(|q| &srcs[q][i].solver),
                &tails,
                dsts.each_mut().map(|dst| &mut dst.solver),
            );
            for q in 0..L {
                let dst = &mut *dsts[q];
                let (src, (t_i, s_i)) = (&srcs[q][i], solved[q]);
                let next_p = 1.0 / (2.0 * (t_i - src.tau_hist[1]).abs().max(EPS));
                let next_q = 1.0
                    / (2.0 * (t_i - 2.0 * src.tau_hist[1] + src.tau_hist[0]).abs().max(EPS));
                dst.pw_hist = [src.pw_hist[1], p_fresh[q]];
                dst.qw_hist = [src.qw_hist[1], q_fresh[q]];
                dst.tau_hist = [src.tau_hist[1], t_i];
                p_fresh[q] = next_p;
                q_fresh[q] = next_q;
                tau[q] = t_i;
                s_out[q] = s_i;
            }
        }
        std::array::from_fn(|q| TrialOut {
            point: DecompPoint {
                trend: tau[q],
                seasonal: s_out[q],
                residual: ys[q] - tau[q] - s_out[q],
            },
            u_new: u_new[q],
        })
    }

    /// Commits a trial whose successor iteration states live in `accepted`:
    /// an `O(1)` buffer swap, after which `accepted` holds the stale
    /// pre-update states (to be overwritten by the next trial).
    fn commit(
        &mut self,
        y_new: f64,
        shift_used: i64,
        trial: TrialOut,
        accepted: &mut Vec<IterState<S>>,
    ) -> DecompPoint {
        std::mem::swap(&mut self.iters, accepted);
        self.shift = shift_used;
        let slot = self.slot(self.t, shift_used);
        self.v[slot] = trial.point.seasonal;
        self.y_hist = [self.y_hist[1], y_new];
        self.u_hist = [self.u_hist[1], trial.u_new];
        self.t += 1;
        self.m += 1;
        self.nsigma.absorb(trial.point.residual);
        trial.point
    }

    /// Missing/corrupt data policy: impute a non-finite value with the
    /// model's one-step-ahead prediction (trend carry-forward + seasonal
    /// buffer).
    fn impute(&self, y: f64) -> f64 {
        if y.is_finite() {
            y
        } else {
            self.iters.last().map_or(0.0, |st| st.tau_hist[1])
                + self.v[self.slot(self.t, self.shift)]
        }
    }

    /// [`OnlineDecomposer::update`] that also returns the committed
    /// residual's signed z-score `(r − μ) / σ` ([`NSigma::zscore`]) against
    /// the shift trigger's running statistics as they stood before the
    /// update absorbed it: the z the §3.4 trigger tested (recomputed only
    /// when the search adopted an offset), and the z that
    /// [`crate::StdAnomalyDetector`] scores.
    pub fn update_z(&mut self, y: f64) -> (DecompPoint, f64) {
        assert!(self.initialized, "OneShotSTL::update called before init");
        let y = self.impute(y);
        // move the trial buffers out so trials can borrow committed state
        // (a pointer move; only the first call allocates the box)
        let mut bufs = self.scratch.take().unwrap_or_default();
        let out = self.update_with(y, &mut bufs);
        self.scratch = Some(bufs);
        out
    }

    /// [`Self::update_z`] with caller-provided trial scratch (see
    /// [`UpdateScratch`] for when that wins). Output is bit-identical to
    /// the plain `update`.
    pub fn update_with_scratch(
        &mut self,
        y: f64,
        scratch: &mut UpdateScratch<S>,
    ) -> (DecompPoint, f64) {
        assert!(self.initialized, "OneShotSTL::update called before init");
        let y = self.impute(y);
        self.update_with(y, &mut scratch.0)
    }

    /// Stage 1 of the §3.4 search: fills `cand` with the offsets that get
    /// a full IRLS trial, in evaluation order. Under [`ShiftPrune::Off`]
    /// that is every non-zero `Δt ∈ [−H, H]` in ascending order — the
    /// exact iteration order of the pre-pruning implementation, so stage 2
    /// stays bit-identical to it. Under [`ShiftPrune::TopK`]`(k)` each
    /// offset is scored with the seasonal-buffer proxy residual
    /// `r̂(Δt) = y − τ_{t−1} − v[(t + Δ + Δt) mod T]` — the residual a
    /// trial *would* see if the trend carried forward unchanged — and only
    /// the `k` smallest `|r̂|` survive (ties: smaller `|Δt|`, then the
    /// negative one; a deterministic selection).
    fn select_candidates(
        &self,
        y: f64,
        h: i64,
        proxy: &mut Vec<(f64, i64)>,
        proxy_r: &mut Vec<f64>,
        cand: &mut Vec<i64>,
    ) {
        cand.clear();
        match self.config.shift_search {
            ShiftPrune::Off => cand.extend((-h..=h).filter(|&dt| dt != 0)),
            ShiftPrune::TopK(k) => {
                proxy.clear();
                proxy_r.clear();
                let tau = self.last_trend();
                let base = y - tau;
                // the offsets Δt ∈ [−H, H] index the seasonal buffer
                // cyclically from `(t + Δ − H) mod T`, so the scoring walk
                // decomposes into contiguous runs (several full laps when
                // 2H + 1 > T): flat stride-1 fills the autovectorizer can
                // chew through, one subtraction and |·| per offset, with
                // the per-offset `rem_euclid` gone. Values and order are
                // identical to the scalar `slot()` loop.
                let total = (2 * h + 1) as usize;
                let mut idx = self.slot(self.t, self.shift - h);
                let mut filled = 0usize;
                while filled < total {
                    let run = (self.period - idx).min(total - filled);
                    proxy_r.extend(self.v[idx..idx + run].iter().map(|&v| (base - v).abs()));
                    filled += run;
                    idx = 0;
                }
                proxy.extend(
                    proxy_r
                        .iter()
                        .enumerate()
                        .map(|(j, &r)| (r, j as i64 - h))
                        .filter(|&(_, dt)| dt != 0),
                );
                // in-place sort: no allocation (zero-alloc invariant)
                proxy.sort_unstable_by(|a, b| {
                    a.0.total_cmp(&b.0)
                        .then_with(|| a.1.abs().cmp(&b.1.abs()))
                        .then_with(|| a.1.cmp(&b.1))
                });
                cand.extend(proxy.iter().take(k).map(|&(_, dt)| dt));
            }
        }
    }

    /// The body of [`OnlineDecomposer::update`], with the trial buffers
    /// moved out of `self` so trials can borrow the committed state: the
    /// Δt = 0 baseline trial into lane 0's base buffer, then
    /// [`Self::finish_update`].
    fn update_with(&mut self, y: f64, bufs: &mut TrialBufs<S>) -> (DecompPoint, f64) {
        self.size_search_bufs(bufs);
        let base = self.run_trial_into(y, self.shift, &mut bufs.base[0]);
        self.finish_update(y, base, 0, bufs)
    }

    /// Pre-sizes every search buffer before an update's baseline trial,
    /// so a flagged point allocates nothing no matter how late it comes:
    /// the stage-1 scratch by capacity, and the candidate trial buffers by
    /// cloning the iteration states once up front (the best/trial swap in
    /// [`Self::finish_update`] leaves the loser empty otherwise, and
    /// `run_trial_into`'s lazy sizing would then allocate *inside* the
    /// search). A no-op without a shift search, and after the first call.
    fn size_search_bufs(&self, bufs: &mut TrialBufs<S>) {
        let h = self.config.shift_window;
        if h == 0 {
            return;
        }
        let want = 2 * h;
        if bufs.proxy.capacity() < want {
            bufs.proxy.reserve(want);
        }
        if bufs.proxy_r.capacity() < want + 1 {
            bufs.proxy_r.reserve(want + 1);
        }
        if bufs.cand.capacity() < want {
            bufs.cand.reserve(want);
        }
        self.size_trial_buf(&mut bufs.best);
        self.size_trial_buf(&mut bufs.trial);
    }

    /// The rest of an update once its Δt = 0 baseline trial `base` has run
    /// into `bufs.base[lane]`: the NSigma verdict, the §3.4 shift search
    /// on a flagged point (scalar trials from this model's own baseline),
    /// and the commit. Returns the committed point and its z-score (see
    /// [`Self::update_z`]).
    fn finish_update(
        &mut self,
        y: f64,
        base: TrialOut,
        lane: usize,
        bufs: &mut TrialBufs<S>,
    ) -> (DecompPoint, f64) {
        let h = self.config.shift_window as i64;
        let z = self.nsigma.zscore(base.point.residual);
        let flagged = z.abs() > self.nsigma.n;
        if !flagged || h == 0 {
            return (self.commit(y, self.shift, base, &mut bufs.base[lane]), z);
        }
        // §3.4, two stages: pick candidate offsets Δt from E = [−H, H]
        // (all of them, or the top-k by proxy residual), run a full trial
        // per candidate, keep the smallest |r_t| — but only adopt a
        // non-zero offset when it actually explains the anomaly (see
        // `SHIFT_ACCEPT_RATIO`)
        self.select_candidates(y, h, &mut bufs.proxy, &mut bufs.proxy_r, &mut bufs.cand);
        self.searches += 1;
        self.search_trials += 1 + bufs.cand.len() as u64;
        let base_resid = base.point.residual.abs();
        let mut best_shift = self.shift;
        let mut best = base;
        let mut best_is_base = true;
        for i in 0..bufs.cand.len() {
            let cand_shift = self.shift + bufs.cand[i];
            let cand = self.run_trial_into(y, cand_shift, &mut bufs.trial);
            if cand.point.residual.abs() < best.point.residual.abs() {
                best = cand;
                best_shift = cand_shift;
                std::mem::swap(&mut bufs.best, &mut bufs.trial);
                best_is_base = false;
            }
        }
        if best_shift != self.shift
            && best.point.residual.abs() > SHIFT_ACCEPT_RATIO * base_resid
        {
            // not convincingly better than staying in phase: reject (the
            // baseline's successor states are still intact in `base`)
            best = base;
            best_shift = self.shift;
            best_is_base = true;
        }
        if best_is_base {
            (self.commit(y, best_shift, best, &mut bufs.base[lane]), z)
        } else {
            let z = self.nsigma.zscore(best.point.residual);
            (self.commit(y, best_shift, best, &mut bufs.best), z)
        }
    }

    /// [`Self::update_with_scratch`] for two independent models at once:
    /// `pair[q]` takes `ys[q]`, and the outputs are bit-identical to
    /// updating `pair[0]` and then `pair[1]` one at a time.
    ///
    /// The two Δt = 0 baseline trials run in lock step through the
    /// two-lane kernel ([`TailSolver::step_lanes`]), so the two serial
    /// IRLS chains are in flight together; then each model finishes on its
    /// own (verdict, a §3.4 search from its own lane's baseline when
    /// flagged, commit). The pair falls back to two one-model updates when
    /// the two run different IRLS iteration counts. λ and H may differ
    /// between the lanes.
    pub fn update_pair_with_scratch(
        pair: [&mut Self; 2],
        ys: [f64; 2],
        scratch: &mut UpdateScratch<S>,
    ) -> [(DecompPoint, f64); 2] {
        let [a, b] = pair;
        assert!(a.initialized && b.initialized, "OneShotSTL::update called before init");
        let ys = [a.impute(ys[0]), b.impute(ys[1])];
        let bufs = &mut scratch.0;
        if a.iters.len() != b.iters.len() {
            return [a.update_with(ys[0], bufs), b.update_with(ys[1], bufs)];
        }
        a.size_search_bufs(bufs);
        b.size_search_bufs(bufs);
        let [base_a, base_b] = &mut bufs.base;
        let [trial_a, trial_b] =
            Self::run_trials([&*a, &*b], ys, [a.shift, b.shift], [base_a, base_b]);
        [a.finish_update(ys[0], trial_a, 0, bufs), b.finish_update(ys[1], trial_b, 1, bufs)]
    }
}

impl<S: TailSolver> OnlineDecomposer for OnlineJointStl<S> {
    fn name(&self) -> &'static str {
        S::NAME
    }

    fn init(&mut self, y: &[f64], period: usize) -> Result<Decomposition> {
        self.init_with(y, period, &mut StlPlans::default())
    }

    fn update(&mut self, y: f64) -> DecompPoint {
        self.update_z(y).0
    }
}

impl<S: TailSolver> OnlineJointStl<S> {
    /// [`OnlineDecomposer::init`] with the STL initialization's LOESS plans
    /// kept in `plans` ([`Stl::decompose_with`]), so a host admitting many
    /// series of one period builds them once; bit-identical to `init`.
    pub fn init_with(
        &mut self,
        y: &[f64],
        period: usize,
        plans: &mut StlPlans,
    ) -> Result<Decomposition> {
        if period < 2 {
            return Err(TsError::InvalidParam {
                name: "period",
                msg: format!("OneShotSTL needs period >= 2, got {period}"),
            });
        }
        if y.len() < 2 * period + 1 {
            return Err(TsError::TooShort {
                what: "OneShotSTL initialization window",
                need: 2 * period + 1,
                got: y.len(),
            });
        }
        let d = match self.config.init {
            InitMethod::Stl => {
                // "Periodic" seasonal smoothing: with the short 2–4 cycle
                // initialization windows of the online protocol, per-phase
                // LOESS has large edge error in the final cycle — exactly
                // the part that seeds the seasonal buffer v. The periodic
                // variant (per-phase robust mean) is far more accurate
                // there.
                let cfg = StlConfig {
                    seasonal: decomp::SeasonalSpan::Periodic,
                    outer_iters: 1,
                    jump: if period > 400 { 10 } else { 1 },
                    ..Default::default()
                };
                Stl::with_config(cfg).decompose_with(y, period, plans)?
            }
            InitMethod::JointStl => crate::jointstl::JointStl {
                config: crate::jointstl::JointStlConfig {
                    lambdas: self.config.lambdas,
                    ..Default::default()
                },
            }
            .decompose(y, period)?,
        };
        self.period = period;
        let n = y.len();
        self.t = n as u64;
        self.m = 0;
        self.shift = 0;
        // v[t mod T] = s_t for the last T initialization points
        self.v = vec![0.0; period];
        for idx in n - period..n {
            self.v[idx % period] = d.seasonal[idx];
        }
        self.y_hist = [y[n - 2], y[n - 1]];
        // the last two init points never re-enter a tail block as
        // "previous" times with online anchors, but seed them consistently
        // with the buffer anyway
        self.u_hist = [self.v[(n - 2) % period], self.v[(n - 1) % period]];
        let tau_hist = [d.trend[n - 2], d.trend[n - 1]];
        self.iters = (0..self.config.iters.max(1))
            .map(|_| IterState {
                solver: S::default(),
                pw_hist: [1.0, 1.0],
                qw_hist: [1.0, 1.0],
                tau_hist,
            })
            .collect();
        self.nsigma = NSigma::new(self.config.nsigma);
        self.nsigma.seed(&d.residual);
        self.initialized = true;
        Ok(d)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn seasonal(n: usize, t: usize, noise: f64, seed: u64) -> Vec<f64> {
        let mut rng = StdRng::seed_from_u64(seed);
        (0..n)
            .map(|i| {
                2.0 + (2.0 * std::f64::consts::PI * i as f64 / t as f64).sin()
                    + noise * rng.gen_range(-1.0..1.0)
            })
            .collect()
    }

    #[test]
    fn additive_identity_every_update() {
        let t = 24;
        let y = seasonal(600, t, 0.05, 1);
        let mut m = OneShotStl::default_paper();
        m.init(&y[..4 * t], t).unwrap();
        for &v in &y[4 * t..] {
            let p = m.update(v);
            assert!((p.value() - v).abs() < 1e-9);
            assert!(p.trend.is_finite() && p.seasonal.is_finite());
        }
    }

    #[test]
    fn state_bytes_is_stable_in_steady_state_and_scales_with_period() {
        let build = |t: usize| {
            let y = seasonal(600, t, 0.05, 7);
            let mut m = OneShotStl::default_paper();
            m.init(&y[..4 * t], t).unwrap();
            for &v in &y[4 * t..] {
                m.update(v);
            }
            m
        };
        let m24 = build(24);
        let b24 = m24.state_bytes();
        // steady-phase footprint is flat: more points never grow the state
        let mut later = m24.clone();
        for &v in &seasonal(200, 24, 0.05, 8) {
            later.update(v);
        }
        assert_eq!(later.state_bytes(), b24);
        // only the seasonal buffer scales with the period: 8 bytes per slot
        let b48 = build(48).state_bytes();
        assert_eq!(b48 - b24, 8 * 24);
        // an uninitialized model (no iteration states, no buffer) is smaller
        let fresh = OneShotStl::default_paper();
        assert!(fresh.state_bytes() < b24);
    }

    #[test]
    fn residuals_small_on_clean_seasonal_stream() {
        let t = 24;
        let y = seasonal(1000, t, 0.02, 2);
        let mut m = OneShotStl::default_paper();
        let d = m.run_series(&y, t, 4 * t).unwrap();
        let tail: f64 = d.residual[500..].iter().map(|r| r.abs()).sum::<f64>() / 500.0;
        assert!(tail < 0.1, "tail residual {tail}");
    }

    #[test]
    fn follows_abrupt_trend_change() {
        let t = 24;
        let mut y = seasonal(1000, t, 0.03, 3);
        for v in y.iter_mut().skip(600) {
            *v += 4.0;
        }
        let cfg = OneShotStlConfig {
            lambdas: Lambdas { lambda1: 1.0, lambda2: 1.0 },
            ..Default::default()
        };
        let mut m = OneShotStl::new(cfg);
        let d = m.run_series(&y, t, 4 * t).unwrap();
        // within half a period the trend should capture most of the jump
        assert!(
            d.trend[612] - d.trend[599] > 2.0,
            "trend jump not tracked: {} -> {}",
            d.trend[599],
            d.trend[612]
        );
        // and the residual should settle again
        let settled: f64 = d.residual[700..900].iter().map(|r| r.abs()).sum::<f64>() / 200.0;
        assert!(settled < 0.2, "residual after jump {settled}");
    }

    #[test]
    fn recovers_from_seasonality_shift() {
        // the Syn2 scenario: the pattern permanently shifts by 6 points
        let t = 50;
        let n = 1400;
        let shift_at = 800;
        let delta = 6usize;
        let mut rng = StdRng::seed_from_u64(4);
        let y: Vec<f64> = (0..n)
            .map(|i| {
                let phase = if i >= shift_at { (i + t - delta) % t } else { i % t };
                3.0 * (2.0 * std::f64::consts::PI * phase as f64 / t as f64).sin()
                    + 0.02 * rng.gen_range(-1.0..1.0)
            })
            .collect();
        let with_shift = {
            let cfg = OneShotStlConfig { shift_window: 20, ..Default::default() };
            let mut m = OneShotStl::new(cfg);
            m.run_series(&y, t, 8 * t).unwrap()
        };
        let without_shift = {
            let cfg = OneShotStlConfig { shift_window: 0, ..Default::default() };
            let mut m = OneShotStl::new(cfg);
            m.run_series(&y, t, 8 * t).unwrap()
        };
        let err = |d: &tskit::Decomposition| -> f64 {
            d.residual[shift_at + 2 * t..shift_at + 6 * t].iter().map(|r| r.abs()).sum::<f64>()
                / (4 * t) as f64
        };
        let e_with = err(&with_shift);
        let e_without = err(&without_shift);
        assert!(
            e_with < e_without,
            "shift handling should reduce post-shift residual: {e_with} vs {e_without}"
        );
        assert!(e_with < 0.5, "post-shift residual too large: {e_with}");
    }

    #[test]
    fn nonfinite_input_is_imputed() {
        let t = 20;
        let y = seasonal(400, t, 0.05, 5);
        let mut m = OneShotStl::default_paper();
        m.init(&y[..4 * t], t).unwrap();
        for &v in &y[4 * t..200] {
            m.update(v);
        }
        let p = m.update(f64::NAN);
        assert!(p.trend.is_finite() && p.seasonal.is_finite() && p.residual.is_finite());
        // stream continues normally
        let p2 = m.update(y[201]);
        assert!(p2.value().is_finite());
    }

    #[test]
    fn init_validation() {
        let mut m = OneShotStl::default_paper();
        assert!(m.init(&[1.0; 10], 24).is_err());
        assert!(m.init(&[1.0; 10], 1).is_err());
    }

    #[test]
    #[should_panic(expected = "before init")]
    fn update_before_init_panics() {
        OneShotStl::default_paper().update(1.0);
    }

    /// An initialized model must carry exactly one IRLS iteration state
    /// per configured iteration: with none, every point would decompose
    /// as trend 0, seasonal 0, residual = y; with too few, the model would
    /// silently run fewer reweightings than its config says.
    #[test]
    fn check_rejects_a_wrong_iteration_count() {
        let t = 12;
        let y = seasonal(8 * t, t, 0.05, 9);
        let mut m = OneShotStl::default_paper();
        m.init(&y[..4 * t], t).unwrap();
        for &v in &y[4 * t..] {
            m.update(v);
        }
        assert_eq!(m.iters.len(), 8);
        assert!(m.check().is_ok());
        for keep in [0, 3] {
            let mut bad = m.clone();
            bad.iters.truncate(keep);
            let err = bad.check().expect_err("wrong iteration count passed");
            assert!(
                matches!(err, TsError::InvalidParam { name: "OneShotStl.iters", .. }),
                "{keep} states: {err:?}"
            );
        }
        // an uninitialized model holds no iteration states and passes
        let fresh = OneShotStl::default_paper();
        assert!(fresh.iters.is_empty());
        assert!(fresh.check().is_ok());
    }

    /// Every field the fleet codec serializes, bit for bit.
    fn state_bits(m: &OneShotStl) -> Vec<u64> {
        let mut out = vec![m.period as u64, m.t, m.m as u64, m.shift as u64];
        let mut floats = [&m.v[..], &m.y_hist, &m.u_hist].concat();
        for it in &m.iters {
            out.push(it.solver.m as u64);
            floats.extend(it.solver.lo.iter().chain(&it.solver.dd).chain(&it.solver.zo));
            floats.extend(it.pw_hist.iter().chain(&it.qw_hist).chain(&it.tau_hist));
        }
        floats.extend([m.nsigma.n, m.nsigma.sum, m.nsigma.sum_sq]);
        out.extend([m.nsigma.count, m.initialized as u64]);
        out.extend(floats.iter().map(|x| x.to_bits()));
        out
    }

    /// One model and its stream for the shared-scratch property. `rng`
    /// picks the model's config from the menu a shard's series may mix:
    /// λ, the IRLS iteration count, pruned or exhaustive search, and a
    /// disabled search (only where `may_disable` allows it).
    fn series_case(rng: &mut StdRng, may_disable: bool) -> (OneShotStlConfig, usize, Vec<f64>) {
        let t = [7usize, 12, 24][rng.gen_range(0..3)];
        let lambda = [1.0, 10.0, 100.0, 1000.0][rng.gen_range(0..4)];
        let cfg = OneShotStlConfig {
            lambdas: Lambdas { lambda1: lambda, lambda2: lambda },
            iters: [4, 8][rng.gen_range(0..2)],
            shift_window: if may_disable && rng.gen_range(0..2) == 0 { 0 } else { 20 },
            shift_search: if rng.gen_range(0..2) == 0 {
                ShiftPrune::default()
            } else {
                ShiftPrune::Off
            },
            ..Default::default()
        };
        let n = 4 * t + 160;
        let shift_at = 4 * t + rng.gen_range(40..120);
        let y = (0..n)
            .map(|i| {
                // a lasting phase shift (accepted offsets), spikes (flagged
                // points) and NaNs (imputation)
                let phase = if i >= shift_at { i + 3 } else { i };
                let v = 2.0
                    + (2.0 * std::f64::consts::PI * phase as f64 / t as f64).sin()
                    + 0.05 * rng.gen_range(-1.0..1.0);
                match rng.gen_range(0..100) {
                    // the init window stays clean (`init` rejects NaN)
                    _ if i < 4 * t => v,
                    0..=2 => v + 40.0,
                    3..=4 => f64::NAN,
                    _ => v,
                }
            })
            .collect();
        (cfg, t, y)
    }

    /// Models sharing one scratch in the shared-scratch property.
    const MODELS: usize = 4;

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(32))]
        /// A group of models stepped round-robin through **one**
        /// [`UpdateScratch`] (the fleet shard's path) is the plain
        /// update, bit for bit:
        /// [`MODELS`] random models on `update_with_scratch` match twins
        /// stepped with plain `update` in every output bit, in their full
        /// state and in their search stats after every step. The models
        /// differ in IRLS iteration count, so the shared trial buffers are
        /// resized between them, and they start their shared stream at
        /// different points, so models in their first 4 online points
        /// (masked solver steps) mix with later ones.
        #[test]
        fn prop_grouped_update_matches_scalar_bit_for_bit(seed in 0u64..100_000) {
            let mut rng = StdRng::seed_from_u64(seed);
            // model 0 always searches, so every case exercises the search
            let cases: Vec<_> = (0..MODELS).map(|q| series_case(&mut rng, q > 0)).collect();
            let mut shared: Vec<OneShotStl> = Vec::new();
            let mut plain: Vec<OneShotStl> = Vec::new();
            let mut cursor = [0usize; MODELS];
            for (q, (cfg, t, y)) in cases.iter().enumerate() {
                let mut m = OneShotStl::new(cfg.clone());
                m.init(&y[..4 * t], *t).unwrap();
                let mut twin = m.clone();
                // model q enters the round-robin q points after init
                cursor[q] = 4 * t + q;
                for &v in &y[4 * t..cursor[q]] {
                    m.update(v);
                    twin.update(v);
                }
                shared.push(m);
                plain.push(twin);
            }
            let steps = cases.iter().zip(&cursor).map(|((_, _, y), c)| y.len() - c).min().unwrap();
            let mut scratch = UpdateScratch::default();
            for step in 0..steps {
                for q in 0..MODELS {
                    let y = cases[q].2[cursor[q] + step];
                    let (got, got_z) = shared[q].update_with_scratch(y, &mut scratch);
                    let (want, want_z) = plain[q].update_z(y);
                    for (g, w) in [
                        (got.trend, want.trend),
                        (got.seasonal, want.seasonal),
                        (got.residual, want.residual),
                        (got_z, want_z),
                    ] {
                        proptest::prop_assert_eq!(g.to_bits(), w.to_bits(), "model {} step {}", q, step);
                    }
                    proptest::prop_assert!(shared[q].config.bit_eq(&plain[q].config));
                    proptest::prop_assert_eq!(state_bits(&shared[q]), state_bits(&plain[q]));
                    proptest::prop_assert_eq!(
                        shared[q].shift_search_stats(),
                        plain[q].shift_search_stats()
                    );
                }
            }
            // the spikes must have driven the §3.4 search on some model
            proptest::prop_assert!(shared.iter().any(|m| m.shift_search_stats().0 > 0));
        }

        /// Two models stepped as one pair through
        /// [`OnlineJointStl::update_pair_with_scratch`] are their scalar
        /// twins on plain `update`, bit for bit: every output bit and the
        /// search stats after every step, and the full state at the end.
        /// The lanes differ in period, λ and pruning, and
        /// in some cases lane 1 runs no shift search (`H = 0`); most cases
        /// share the IRLS count (the paired kernel) and the rest do not
        /// (two scalar updates). Lane 1 enters the pair up to 5 points
        /// after its init, so lanes in their first 4 points (masked solver
        /// steps) meet later ones.
        /// The streams carry spikes that flag one lane, NaNs, ±∞ and a
        /// lasting phase shift, and one step spikes both lanes, so both
        /// lanes of one pair run a shift search.
        #[test]
        fn paired_updates_match_scalar_twins_bit_for_bit(seed in 0u64..100_000) {
            let mut rng = StdRng::seed_from_u64(seed);
            let mut cases = [series_case(&mut rng, false), series_case(&mut rng, false)];
            if rng.gen_range(0..4) > 0 {
                cases[1].0.iters = cases[0].0.iters;
            }
            if rng.gen_range(0..4) == 0 {
                cases[1].0.shift_window = 0;
            }
            for (cfg, t, y) in &mut cases {
                // a small λ lets the trend swallow a spike unflagged
                let lambda = [100.0, 1000.0][rng.gen_range(0..2)];
                cfg.lambdas = Lambdas { lambda1: lambda, lambda2: lambda };
                for v in &mut y[4 * *t..] {
                    if rng.gen_range(0..50) == 0 {
                        *v = [f64::INFINITY, f64::NEG_INFINITY][rng.gen_range(0..2)];
                    }
                }
            }
            let lag = rng.gen_range(0..6);
            let mut paired = Vec::new();
            let mut twins = Vec::new();
            let mut cursor = [0usize; 2];
            for (q, (cfg, t, y)) in cases.iter().enumerate() {
                let mut m = OneShotStl::new(cfg.clone());
                m.init(&y[..4 * t], *t).unwrap();
                let mut twin = m.clone();
                cursor[q] = 4 * t + if q == 1 { lag } else { 0 };
                for &v in &y[4 * t..cursor[q]] {
                    m.update(v);
                    twin.update(v);
                }
                paired.push(m);
                twins.push(twin);
            }
            let steps = (0..2).map(|q| cases[q].2.len() - cursor[q]).min().unwrap();
            let both_at = rng.gen_range(10..steps);
            let mut scratch = UpdateScratch::default();
            let mut both_searched = false;
            for step in 0..steps {
                let ys: [f64; 2] = std::array::from_fn(|q| {
                    let y = cases[q].2[cursor[q] + step];
                    match step == both_at {
                        // far above the ±40 spikes, which inflate σ
                        true if y.is_finite() => y + 1e3,
                        true => 1e3,
                        false => y,
                    }
                });
                let searches = |m: &OneShotStl| m.shift_search_stats().0;
                let before = [searches(&paired[0]), searches(&paired[1])];
                let [a, b] = &mut paired[..] else { unreachable!("two lanes") };
                let got = OneShotStl::update_pair_with_scratch([a, b], ys, &mut scratch);
                for q in 0..2 {
                    let ((got, got_z), (want, want_z)) = (got[q], twins[q].update_z(ys[q]));
                    for (g, w) in [
                        (got.trend, want.trend),
                        (got.seasonal, want.seasonal),
                        (got.residual, want.residual),
                        (got_z, want_z),
                    ] {
                        proptest::prop_assert_eq!(g.to_bits(), w.to_bits(), "lane {} step {}", q, step);
                    }
                    proptest::prop_assert_eq!(
                        paired[q].shift_search_stats(),
                        twins[q].shift_search_stats()
                    );
                }
                both_searched |= (0..2).all(|q| searches(&paired[q]) > before[q]);
            }
            for q in 0..2 {
                proptest::prop_assert_eq!(state_bits(&paired[q]), state_bits(&twins[q]), "lane {}", q);
            }
            if cases.iter().all(|(cfg, _, _)| cfg.shift_window > 0) {
                proptest::prop_assert!(both_searched, "one pair must search on both lanes");
            }
        }
    }
}
