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
//!      only for the offsets [`ShiftSearchConfig`] lets through: all of
//!      them under [`ShiftPrune::Off`], the `k` best proxy scores under
//!      [`ShiftPrune::TopK`]. `Δt = 0` is the mandatory baseline either
//!      way, and the result with the smallest `|r_t|` wins (subject to
//!      [`OneShotStlConfig::shift_accept_ratio`]).
//!
//!    How an accepted offset persists is governed by [`ShiftPolicy`].
//! 3. Write the seasonal buffer: `v[(t + Δ) mod T] = s_t`.
//!
//! ## Grouped updates
//!
//! One update is a serial chain: each IRLS iteration's solve waits on the
//! previous iteration's weights, and each solve on its own divides. A host
//! holding many independent series can instead step `L` of them together
//! with [`OneShotStl::update_lanes`] (the fleet shard groups [`LANES`]):
//! step 1's Δt = 0 base trials run in lockstep through the lane kernel of
//! [`crate::online_doolittle`] ([`OneShotStl::begin_lanes`]), then each
//! lane takes its NSigma verdict, runs any §3.4 search on the scalar
//! path, and commits ([`OnlineJointStl::finish_lane`]). Every lane is
//! bit-identical to a plain update of its series (property-tested below);
//! only the instruction schedule changes.

use crate::nsigma::NSigma;
use crate::online_doolittle::IncrementalSolver;
use crate::system::{Lambdas, TailData};
use decomp::traits::{BatchDecomposer, OnlineDecomposer};
use decomp::{Stl, StlConfig};
use tskit::error::{Result, TsError};
use tskit::series::{DecompPoint, Decomposition};

/// Per-iteration linear-system solver: consumes one trailing block per
/// online point and returns the exact `(τ_t, s_t)` of its growing system.
pub trait TailSolver: Clone + Default {
    /// Short name for diagnostics.
    const NAME: &'static str;

    /// Processes the next point (`tail.m` must advance by one each call).
    fn step(&mut self, tail: &TailData) -> (f64, f64);

    /// Runs one step *from* `self`'s state without mutating it, writing the
    /// successor state into `dst` (whose prior contents are arbitrary stale
    /// scratch). This is the hot-path variant of [`TailSolver::step`]: the
    /// update loop keeps the committed state immutable while a trial runs,
    /// so a rejected trial costs nothing to roll back. Implementations
    /// whose steady state is plain-old-data should override this to avoid
    /// heap allocation entirely.
    fn step_from(&self, tail: &TailData, dst: &mut Self) -> (f64, f64) {
        dst.clone_from(self);
        dst.step(tail)
    }
}

impl TailSolver for IncrementalSolver {
    const NAME: &'static str = "OneShotSTL";

    fn step(&mut self, tail: &TailData) -> (f64, f64) {
        IncrementalSolver::step(self, tail)
    }

    fn step_from(&self, tail: &TailData, dst: &mut Self) -> (f64, f64) {
        IncrementalSolver::step_from(self, tail, dst)
    }
}

/// How an accepted seasonality-shift offset affects subsequent points.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum ShiftPolicy {
    /// The accepted `Δt` is added to a persistent cumulative offset — the
    /// buffer index permanently follows the drifted phase (default; models
    /// the lasting shift of paper Fig. 3).
    #[default]
    Cumulative,
    /// The accepted `Δt` applies to the current point only.
    Transient,
}

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

/// Configuration of the §3.4 seasonality-shift search pipeline.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ShiftSearchConfig {
    /// Stage-1 pruning policy.
    pub prune: ShiftPrune,
}

impl Default for ShiftSearchConfig {
    fn default() -> Self {
        ShiftSearchConfig { prune: ShiftPrune::TopK(DEFAULT_SHIFT_TOP_K) }
    }
}

impl ShiftSearchConfig {
    /// The exhaustive (pre-pruning, bit-identical) search.
    pub fn exhaustive() -> Self {
        ShiftSearchConfig { prune: ShiftPrune::Off }
    }

    /// Prune to the `k` best proxy candidates.
    pub fn top_k(k: usize) -> Self {
        ShiftSearchConfig { prune: ShiftPrune::TopK(k) }
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
    /// Shift persistence policy.
    pub shift_policy: ShiftPolicy,
    /// §3.4 shift-search pipeline configuration (candidate pruning).
    pub shift_search: ShiftSearchConfig,
    /// A non-zero Δt is accepted only when its |r_t| is below this fraction
    /// of the Δt = 0 residual. A genuine phase shift shrinks the residual
    /// by an order of magnitude, easily clearing the bar; a trend jump
    /// (which no phase offset can fix) does not — without this guard the
    /// shift search would latch onto spurious offsets at trend changes.
    pub shift_accept_ratio: f64,
    /// Offline initialization method.
    pub init: InitMethod,
    /// IRLS clamp ε.
    pub eps: f64,
}

impl Default for OneShotStlConfig {
    fn default() -> Self {
        OneShotStlConfig {
            lambdas: Lambdas::default(),
            iters: 8,
            shift_window: 20,
            nsigma: 5.0,
            shift_policy: ShiftPolicy::Cumulative,
            shift_search: ShiftSearchConfig::default(),
            shift_accept_ratio: 0.5,
            init: InitMethod::Stl,
            eps: 1e-10,
        }
    }
}

/// Per-IRLS-iteration state (Algorithm 5 keeps one weight vector per
/// iteration; only the trailing two entries are ever read again).
#[derive(Debug, Clone)]
struct IterState<S> {
    solver: S,
    /// `pw` at times `m−2, m−1` (weight of the diff `(j−1, j)`).
    pw_hist: [f64; 2],
    /// `qw` at times `m−2, m−1`.
    qw_hist: [f64; 2],
    /// This iteration's trend output at times `m−2, m−1` (Eq. 4–5 inputs).
    tau_hist: [f64; 2],
}

impl<S> IterState<S> {
    /// Fills this iteration's weights into `tail`: its two history entries
    /// plus the weights the previous iteration derived for the new point.
    fn weights_into(&self, tail: &mut TailData, p_fresh: f64, q_fresh: f64) {
        tail.p3 = [self.pw_hist[0], self.pw_hist[1], p_fresh];
        tail.q3 = [self.qw_hist[0], self.qw_hist[1], q_fresh];
    }

    /// After this iteration solved trend `t_i` for the new point: writes
    /// the successor's histories into `dst` and returns the next
    /// iteration's fresh weights (Eq. 4–5, clamped at `eps`).
    fn advance(
        &self,
        dst: &mut Self,
        t_i: f64,
        p_fresh: f64,
        q_fresh: f64,
        eps: f64,
    ) -> (f64, f64) {
        let next_p = 1.0 / (2.0 * (t_i - self.tau_hist[1]).abs().max(eps));
        let next_q =
            1.0 / (2.0 * (t_i - 2.0 * self.tau_hist[1] + self.tau_hist[0]).abs().max(eps));
        dst.pw_hist = [self.pw_hist[1], p_fresh];
        dst.qw_hist = [self.qw_hist[1], q_fresh];
        dst.tau_hist = [self.tau_hist[1], t_i];
        (next_p, next_q)
    }
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

impl TrialOut {
    /// The last IRLS iteration's `(τ, s)` for `y_new`.
    fn new(y_new: f64, tau: f64, s: f64, u_new: f64) -> Self {
        TrialOut {
            point: DecompPoint { trend: tau, seasonal: s, residual: y_new - tau - s },
            u_new,
        }
    }
}

/// Reusable trial buffers: `base` holds the Δt = 0 baseline trial's
/// successor iteration states (kept intact through the whole search, so a
/// rejected shift needs no recompute) and `search` the §3.4 search's
/// buffers. Allocated once; the steady-state `update` path — including
/// every §3.4 shift search, pruned or exhaustive — performs **zero heap
/// allocations** (pinned by `tests/zero_alloc.rs`).
#[derive(Debug, Clone, Default)]
struct TrialBufs<S: TailSolver> {
    base: Vec<IterState<S>>,
    search: SearchBufs<S>,
}

/// The §3.4 search's buffers: `best` holds the winning candidate's
/// successor states, and `trial` is the scratch a candidate runs in before
/// it is (maybe) swapped into `best`. `proxy` and `cand` are the stage-1
/// scoring and candidate-offset scratch of the pruned search.
#[derive(Debug, Clone, Default)]
struct SearchBufs<S: TailSolver> {
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

/// Lane count of the fleet shard's grouped sweep: how many series it
/// steps through [`OneShotStl::begin_lanes`] at once. One, by
/// measurement: two lanes overlap two divide-terminated dependency chains
/// and ran faster on average, but only while the host core had issue
/// slots to spare, so their throughput swung over three times as much
/// from run to run as one lane's; four or eight lanes spill the kernel's
/// working set out of the sixteen vector registers and measured slower
/// than one (the sweep is in `docs/ARCHITECTURE.md`, "Performance"). The
/// grouped entry points take any lane count.
pub const LANES: usize = 1;

/// Shareable trial scratch for [`OnlineJointStl::update_with_scratch`]
/// and the grouped [`OneShotStl::update_lanes`].
///
/// A model's plain [`OnlineDecomposer::update`] uses an internal scratch,
/// which is ideal for a single hot stream. A host multiplexing *many*
/// models on one thread (the `fleet` shard worker) should instead own one
/// `UpdateScratch` per thread and pass it to every model's
/// `update_with_scratch`: the scratch stays hot in cache across series and
/// per-model scratch memory drops to zero. Buffers are sized lazily on
/// first use and resized automatically if models disagree on `iters`.
#[derive(Debug, Clone, Default)]
pub struct UpdateScratch<S: TailSolver> {
    bufs: TrialBufs<S>,
    /// Each lane's Δt = 0 base-trial successor states (grouped update),
    /// grown to the widest group on first use.
    lane_base: Vec<Vec<IterState<S>>>,
}

/// The lockstep phase's result ([`OneShotStl::begin_lanes`]): each lane's
/// imputed value and Δt = 0 base trial. The trials' successor states wait
/// in the [`UpdateScratch`] the phase ran in; each lane is committed by
/// [`OnlineJointStl::finish_lane`].
#[derive(Debug, Clone, Copy)]
pub struct LaneTrials<const L: usize = LANES> {
    lanes: [(f64, TrialOut); L],
}

/// The shared online-JointSTL shell (see module docs). Use the
/// [`OneShotStl`] alias for the paper's `O(1)` algorithm.
#[derive(Debug, Clone)]
pub struct OnlineJointStl<S: TailSolver> {
    /// Configuration (λ, I, H, n, policies).
    pub config: OneShotStlConfig,
    period: usize,
    /// Global time index of the next arriving point.
    t: u64,
    /// Number of online points processed.
    m: usize,
    /// Cumulative phase offset Δ.
    shift: i64,
    /// Seasonal buffer `v ∈ R^T`.
    v: Vec<f64>,
    /// Last two observed values (times `m−2`, `m−1`).
    y_hist: [f64; 2],
    /// Seasonal anchors of the last two points, **frozen at arrival**:
    /// `u_j = v[(t_j + Δ) mod T]` read before `v` is overwritten at that
    /// phase. Re-reading them later would return the point's own seasonal
    /// estimate (written at its step), silently un-anchoring the tail from
    /// the previous cycle and letting the trend/seasonal split drift.
    u_hist: [f64; 2],
    iters: Vec<IterState<S>>,
    /// Reusable trial buffers (never serialized; rebuilt lazily).
    scratch: TrialBufs<S>,
    nsigma: NSigma,
    initialized: bool,
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
    /// before updating).
    pub fn new(config: OneShotStlConfig) -> Self {
        OnlineJointStl::with_solver(config)
    }

    /// OneShotSTL with all paper defaults.
    pub fn default_paper() -> Self {
        Self::new(OneShotStlConfig::default())
    }

    /// Extracts a plain-data snapshot of the full online state (see
    /// `fleet::codec`). Restoring it with [`OneShotStl::from_state`] yields
    /// a model whose subsequent [`OnlineDecomposer::update`] stream is
    /// bit-identical to continuing the original.
    pub fn to_state(&self) -> OneShotStlState {
        OneShotStlState {
            config: self.config.clone(),
            period: self.period as u64,
            t: self.t,
            m: self.m as u64,
            shift: self.shift,
            v: self.v.clone(),
            y_hist: self.y_hist,
            u_hist: self.u_hist,
            iters: self
                .iters
                .iter()
                .map(|st| IterSnapshot {
                    solver: st.solver.to_state(),
                    pw_hist: st.pw_hist,
                    qw_hist: st.qw_hist,
                    tau_hist: st.tau_hist,
                })
                .collect(),
            nsigma: self.nsigma.to_state(),
            initialized: self.initialized,
        }
    }

    /// Rebuilds a model from [`OneShotStl::to_state`] output.
    pub fn from_state(state: OneShotStlState) -> Result<Self> {
        let period = state.period as usize;
        if state.initialized && (period < 2 || state.v.len() != period) {
            return Err(TsError::InvalidParam {
                name: "OneShotStlState",
                msg: format!(
                    "initialized state needs a seasonal buffer of one period \
                     (period {period}, buffer {})",
                    state.v.len()
                ),
            });
        }
        // `init` builds one state per IRLS iteration; any other count would
        // decompose every point with the wrong number of reweightings (none
        // at all: trend 0, seasonal 0, residual = y)
        let want_iters = state.config.iters.max(1);
        if state.initialized && state.iters.len() != want_iters {
            return Err(TsError::InvalidParam {
                name: "OneShotStlState.iters",
                msg: format!(
                    "initialized state has {} IRLS iteration states, its config needs {want_iters}",
                    state.iters.len()
                ),
            });
        }
        let mut iters = Vec::with_capacity(state.iters.len());
        for snap in state.iters {
            let solver = IncrementalSolver::from_state(snap.solver)?;
            // each IRLS iteration steps its solver exactly once per online
            // point; a mismatch means a corrupted snapshot that would
            // panic (`steps must be consecutive`) on the next update
            if solver.len() as u64 != state.m {
                return Err(TsError::InvalidParam {
                    name: "OneShotStlState.iters",
                    msg: format!(
                        "solver has {} steps but the model processed {} points",
                        solver.len(),
                        state.m
                    ),
                });
            }
            iters.push(IterState {
                solver,
                pw_hist: snap.pw_hist,
                qw_hist: snap.qw_hist,
                tau_hist: snap.tau_hist,
            });
        }
        Ok(OnlineJointStl {
            config: state.config,
            period,
            t: state.t,
            m: state.m as usize,
            shift: state.shift,
            v: state.v,
            y_hist: state.y_hist,
            u_hist: state.u_hist,
            iters,
            scratch: TrialBufs::default(),
            nsigma: NSigma::from_state(state.nsigma),
            initialized: state.initialized,
            searches: 0,
            search_trials: 0,
        })
    }

    /// Estimated serialized footprint of [`OneShotStl::to_state`] in bytes
    /// under the exact-precision (plain `f64`) snapshot layout. Computed
    /// from the seasonal-buffer length and solver phase without
    /// materialising the state, so the cost is constant per call (the
    /// IRLS iteration count is a small config constant). Capacity planning
    /// for per-node fleets keys off this number; compressed codecs shrink
    /// the vector payloads but keep the same structure.
    pub fn state_bytes(&self) -> usize {
        // config block: 6 × f64 + 2 × u32 + policy/init tags + shift search
        let config = 6 * 8 + 2 * 4 + 2 + 5;
        // period, t, m, shift
        let scalars = 4 * 8;
        // length-prefixed (tag + u32) f64 vector
        let vec_f64 = |n: usize| 5 + 8 * n;
        let seasonal = vec_f64(self.v.len());
        let hists = 2 * 16;
        let iters: usize = self
            .iters
            .iter()
            .map(|st| {
                let solver = match &st.solver {
                    // steady: tag + step count + 8×4 L window + D + z
                    IncrementalSolver::Steady(_) => 9 + vec_f64(32) + 2 * vec_f64(4),
                    // warmup: tag + four vectors of one value per step
                    IncrementalSolver::Warmup { .. } => 1 + 4 * vec_f64(st.solver.len()),
                };
                solver + 3 * 16
            })
            .sum();
        let nsigma = 4 * 8;
        config + scalars + seasonal + hists + 4 + iters + nsigma + 1
    }
}

/// Plain-data snapshot of a [`OneShotStl`] (see [`OneShotStl::to_state`]).
#[derive(Debug, Clone, PartialEq)]
pub struct OneShotStlState {
    /// Model configuration.
    pub config: OneShotStlConfig,
    /// Seasonal period `T`.
    pub period: u64,
    /// Global time index of the next arriving point.
    pub t: u64,
    /// Number of online points processed.
    pub m: u64,
    /// Cumulative phase offset Δ.
    pub shift: i64,
    /// Seasonal buffer `v`.
    pub v: Vec<f64>,
    /// Last two observed values.
    pub y_hist: [f64; 2],
    /// Frozen seasonal anchors of the last two points.
    pub u_hist: [f64; 2],
    /// Per-IRLS-iteration solver and weight state.
    pub iters: Vec<IterSnapshot>,
    /// Residual NSigma statistics (shift-search trigger).
    pub nsigma: crate::nsigma::NSigmaState,
    /// Whether `init` has run.
    pub initialized: bool,
}

/// Plain-data snapshot of one IRLS iteration's state.
#[derive(Debug, Clone, PartialEq)]
pub struct IterSnapshot {
    /// The `O(1)` solver window.
    pub solver: crate::online_doolittle::SolverState,
    /// First-difference weights at times `m−2, m−1`.
    pub pw_hist: [f64; 2],
    /// Second-difference weights at times `m−2, m−1`.
    pub qw_hist: [f64; 2],
    /// Trend outputs at times `m−2, m−1`.
    pub tau_hist: [f64; 2],
}

impl<S: TailSolver> Default for OnlineJointStl<S> {
    fn default() -> Self {
        Self::with_solver(OneShotStlConfig::default())
    }
}

impl<S: TailSolver> OnlineJointStl<S> {
    /// Generic constructor used by both the `O(1)` and the reference
    /// instantiation.
    pub fn with_solver(config: OneShotStlConfig) -> Self {
        OnlineJointStl {
            config,
            period: 0,
            t: 0,
            m: 0,
            shift: 0,
            v: Vec::new(),
            y_hist: [0.0; 2],
            u_hist: [0.0; 2],
            iters: Vec::new(),
            scratch: TrialBufs::default(),
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
    /// bound the pruning exists to enforce. Diagnostics only; resets on
    /// snapshot restore.
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
        for (i, o) in out.iter_mut().enumerate() {
            pow *= phi;
            weight += pow;
            *o = (tau + self.v[self.slot(self.t + i as u64, self.shift)]) + slope * weight;
        }
    }

    /// Read-only view of the seasonal buffer `v` (indexed by
    /// `(t + Δ) mod T`).
    pub fn seasonal_buffer(&self) -> &[f64] {
        &self.v
    }

    /// The NSigma score of the most recent residual *without* updating
    /// state; useful for monitoring.
    pub fn score_residual(&self, r: f64) -> f64 {
        self.nsigma.score_only(r).score
    }

    #[inline]
    fn slot(&self, t: u64, shift: i64) -> usize {
        let period = self.period as i64;
        ((t as i64 + shift).rem_euclid(period)) as usize
    }

    /// The new point's tail block inputs under a candidate shift — the
    /// last three observations and seasonal anchors, this model's λ, and
    /// weights still to be filled per iteration
    /// ([`IterState::weights_into`]) — plus the newest anchor `u_new`.
    fn trial_tail(&self, y_new: f64, shift: i64) -> (TailData, f64) {
        let m_new = self.m + 1;
        let k = m_new.min(3);
        let mut y3 = [0.0; 3];
        let mut u3 = [0.0; 3];
        // the newest point reads the (pre-write) seasonal buffer — one
        // cycle ago at its phase; previous points keep their frozen anchors
        let u_new = self.v[self.slot(self.t, shift)];
        // times covered: m_new-k .. m_new-1; newest last (slot 2)
        for j in m_new - k..m_new {
            let s = 3 - (m_new - j);
            if j + 1 == m_new {
                y3[s] = y_new;
                u3[s] = u_new;
            } else {
                // histories hold times m-2 (index 0) and m-1 (index 1)
                y3[s] = self.y_hist[2 - (m_new - 1 - j)];
                u3[s] = self.u_hist[2 - (m_new - 1 - j)];
            }
        }
        let tail = TailData {
            m: m_new,
            y3,
            u3,
            p3: [0.0; 3],
            q3: [0.0; 3],
            lambdas: self.config.lambdas,
        };
        (tail, u_new)
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
    fn run_trial_into(&self, y_new: f64, shift: i64, out: &mut Vec<IterState<S>>) -> TrialOut {
        let (mut tail, u_new) = self.trial_tail(y_new, shift);
        self.size_trial_buf(out);
        let eps = self.config.eps;
        let (mut p_fresh, mut q_fresh) = (1.0, 1.0);
        let (mut tau, mut s_out) = (0.0, 0.0);
        for (src, dst) in self.iters.iter().zip(out.iter_mut()) {
            src.weights_into(&mut tail, p_fresh, q_fresh);
            let (t_i, s_i) = src.solver.step_from(&tail, &mut dst.solver);
            (p_fresh, q_fresh) = src.advance(dst, t_i, p_fresh, q_fresh, eps);
            tau = t_i;
            s_out = s_i;
        }
        TrialOut::new(y_new, tau, s_out, u_new)
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
        match self.config.shift_policy {
            ShiftPolicy::Cumulative => self.shift = shift_used,
            ShiftPolicy::Transient => {}
        }
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

    /// [`OnlineDecomposer::update`] with caller-provided trial scratch
    /// (see [`UpdateScratch`] for when that wins). Output is bit-identical
    /// to the plain `update`.
    pub fn update_with_scratch(
        &mut self,
        y: f64,
        scratch: &mut UpdateScratch<S>,
    ) -> DecompPoint {
        assert!(self.initialized, "OneShotSTL::update called before init");
        let y = self.impute(y);
        self.update_with(y, &mut scratch.bufs)
    }

    /// Commits lane `lane` of a grouped update begun by
    /// [`OneShotStl::begin_lanes`]: the NSigma verdict on its base trial,
    /// the §3.4 search on the scalar path when flagged, then the commit.
    /// `self` must be the model passed as that lane, unchanged since, and
    /// `scratch` the scratch the lockstep phase ran in; each lane is
    /// finished once. The result is bit-identical to
    /// [`Self::update_with_scratch`] on the lane's value.
    pub fn finish_lane<const L: usize>(
        &mut self,
        trials: &LaneTrials<L>,
        lane: usize,
        scratch: &mut UpdateScratch<S>,
    ) -> DecompPoint {
        let (y, base) = trials.lanes[lane];
        self.finish_update(y, base, &mut scratch.lane_base[lane], &mut scratch.bufs.search)
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
        match self.config.shift_search.prune {
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
    /// moved out of `self` so trials can borrow the committed state.
    fn update_with(&mut self, y: f64, bufs: &mut TrialBufs<S>) -> DecompPoint {
        let base = self.run_trial_into(y, self.shift, &mut bufs.base);
        self.finish_update(y, base, &mut bufs.base, &mut bufs.search)
    }

    /// Everything after the Δt = 0 base trial (whose successor states are
    /// in `base_buf`): the NSigma verdict, the §3.4 search when flagged,
    /// and the commit.
    fn finish_update(
        &mut self,
        y: f64,
        base: TrialOut,
        base_buf: &mut Vec<IterState<S>>,
        bufs: &mut SearchBufs<S>,
    ) -> DecompPoint {
        let h = self.config.shift_window as i64;
        if h > 0 {
            // pre-size every search buffer during plain updates, so a
            // flagged point allocates nothing no matter how late it comes:
            // the stage-1 scratch by capacity, and the candidate trial
            // buffers by cloning the iteration states once up front (the
            // best/trial swap below leaves the loser empty otherwise, and
            // `run_trial_into`'s lazy sizing would then allocate *inside*
            // the search)
            let want = 2 * h as usize;
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
        let verdict = self.nsigma.score_only(base.point.residual);
        if !verdict.is_anomaly || h == 0 {
            return self.commit(y, self.shift, base, base_buf);
        }
        // §3.4, two stages: pick candidate offsets Δt from E = [−H, H]
        // (all of them, or the top-k by proxy residual), run a full trial
        // per candidate, keep the smallest |r_t| — but only adopt a
        // non-zero offset when it actually explains the anomaly (see
        // `shift_accept_ratio`)
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
            && best.point.residual.abs() > self.config.shift_accept_ratio * base_resid
        {
            // not convincingly better than staying in phase: reject (the
            // baseline's successor states are still intact in `base_buf`)
            best = base;
            best_shift = self.shift;
            best_is_base = true;
        }
        let accepted = if best_is_base { base_buf } else { &mut bufs.best };
        self.commit(y, best_shift, best, accepted)
    }
}

impl OneShotStl {
    /// [`Self::update_with_scratch`] for `L` models at once: lane `q`
    /// decomposes `ys[q]` on `models[q]`, bit-identical to
    /// `models[q].update_with_scratch(ys[q], scratch)`. The Δt = 0 base
    /// trials run in lockstep ([`Self::begin_lanes`]); each lane is then
    /// finished on its own ([`OnlineJointStl::finish_lane`]). Zero heap
    /// allocations in steady state, like the scalar path.
    pub fn update_lanes<const L: usize>(
        mut models: [&mut Self; L],
        ys: [f64; L],
        scratch: &mut UpdateScratch<IncrementalSolver>,
    ) -> [DecompPoint; L] {
        let trials = Self::begin_lanes(models.each_ref().map(|m| &**m), ys, scratch);
        std::array::from_fn(|lane| models[lane].finish_lane(&trials, lane, scratch))
    }

    /// The lockstep phase of [`Self::update_lanes`]: imputes each value
    /// and runs the Δt = 0 base trials of all lanes, reading only the
    /// models' committed state and writing only `scratch`. So a panic here
    /// leaves every model as it was (reset the scratch and update the
    /// lanes one by one). When a lane's solvers are still in their 4-point
    /// warm-up, or the lanes' iteration counts differ, every lane runs the
    /// scalar trial instead.
    pub fn begin_lanes<const L: usize>(
        models: [&Self; L],
        ys: [f64; L],
        scratch: &mut UpdateScratch<IncrementalSolver>,
    ) -> LaneTrials<L> {
        let ys: [f64; L] = std::array::from_fn(|q| {
            assert!(models[q].initialized, "OneShotSTL::update called before init");
            models[q].impute(ys[q])
        });
        let iters = models[0].iters.len();
        let lockstep = models
            .iter()
            .all(|m| m.iters.len() == iters && m.iters.iter().all(|st| st.solver.is_steady()));
        if scratch.lane_base.len() < L {
            scratch.lane_base.resize_with(L, Vec::new);
        }
        let lane_base: &mut [_; L] =
            (&mut scratch.lane_base[..L]).try_into().expect("sized to L lanes above");
        let base = if lockstep {
            Self::run_trials_lockstep(models, ys, lane_base)
        } else {
            std::array::from_fn(|q| {
                models[q].run_trial_into(ys[q], models[q].shift, &mut lane_base[q])
            })
        };
        LaneTrials { lanes: std::array::from_fn(|q| (ys[q], base[q])) }
    }

    /// [`Self::run_trial_into`] at Δt = 0 for every lane, with each IRLS
    /// iteration's solves stepped in lockstep
    /// ([`IncrementalSolver::step_lanes`]). Per lane, every operation is
    /// the scalar trial's, in its order, with the lane's own λ and ε.
    fn run_trials_lockstep<const L: usize>(
        models: [&Self; L],
        ys: [f64; L],
        outs: &mut [Vec<IterState<IncrementalSolver>>; L],
    ) -> [TrialOut; L] {
        let mut u_new = [0.0; L];
        let mut tails: [TailData; L] = std::array::from_fn(|q| {
            let (tail, u) = models[q].trial_tail(ys[q], models[q].shift);
            u_new[q] = u;
            tail
        });
        for (m, out) in models.iter().zip(outs.iter_mut()) {
            m.size_trial_buf(out);
        }
        let mut p_fresh = [1.0; L];
        let mut q_fresh = [1.0; L];
        let mut tau = [0.0; L];
        let mut s_out = [0.0; L];
        for i in 0..models[0].iters.len() {
            for q in 0..L {
                models[q].iters[i].weights_into(&mut tails[q], p_fresh[q], q_fresh[q]);
            }
            let solved = IncrementalSolver::step_lanes(
                models.map(|m| &m.iters[i].solver),
                &tails,
                outs.each_mut().map(|out| &mut out[i].solver),
            );
            for q in 0..L {
                let (t_i, s_i) = solved[q];
                let src = &models[q].iters[i];
                (p_fresh[q], q_fresh[q]) = src.advance(
                    &mut outs[q][i],
                    t_i,
                    p_fresh[q],
                    q_fresh[q],
                    models[q].config.eps,
                );
                tau[q] = t_i;
                s_out[q] = s_i;
            }
        }
        std::array::from_fn(|q| TrialOut::new(ys[q], tau[q], s_out[q], u_new[q]))
    }
}

impl<S: TailSolver> OnlineDecomposer for OnlineJointStl<S> {
    fn name(&self) -> &'static str {
        S::NAME
    }

    fn init(&mut self, y: &[f64], period: usize) -> Result<Decomposition> {
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
                Stl::with_config(cfg).decompose(y, period)?
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

    fn update(&mut self, y: f64) -> DecompPoint {
        assert!(self.initialized, "OneShotSTL::update called before init");
        let y = self.impute(y);
        // move the trial buffers out so trials can borrow committed state;
        // `mem::take` leaves empty Vecs behind (no allocation)
        let mut bufs = std::mem::take(&mut self.scratch);
        let point = self.update_with(y, &mut bufs);
        self.scratch = bufs;
        point
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
        // warmup states (tiny per-iteration histories) are strictly smaller
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
            lambdas: Lambdas { lambda1: 1.0, lambda2: 1.0, anchor: 1.0 },
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

    /// An initialized state must carry exactly one IRLS iteration state
    /// per configured iteration: with none, every point would decompose
    /// as trend 0, seasonal 0, residual = y; with too few, the model would
    /// silently run fewer reweightings than its config says.
    #[test]
    fn from_state_rejects_a_wrong_iteration_count() {
        let t = 12;
        let y = seasonal(8 * t, t, 0.05, 9);
        let mut m = OneShotStl::default_paper();
        m.init(&y[..4 * t], t).unwrap();
        for &v in &y[4 * t..] {
            m.update(v);
        }
        let state = m.to_state();
        assert_eq!(state.iters.len(), 8);
        assert!(OneShotStl::from_state(state.clone()).is_ok());
        for keep in [0, 3] {
            let mut bad = state.clone();
            bad.iters.truncate(keep);
            let err = OneShotStl::from_state(bad).expect_err("wrong iteration count restored");
            assert!(
                matches!(err, TsError::InvalidParam { name: "OneShotStlState.iters", .. }),
                "{keep} states: {err:?}"
            );
        }
        // an uninitialized model holds no iteration states and restores
        let fresh = OneShotStl::default_paper().to_state();
        assert!(fresh.iters.is_empty());
        assert!(OneShotStl::from_state(fresh).is_ok());
    }

    /// One lane's model and stream for the lane-equivalence property.
    /// `rng` picks the lane's config from the menu the grouped path must
    /// honour per lane: λ, pruned or exhaustive search, shift policy,
    /// and a disabled search (only where `may_disable` allows it).
    fn lane_case(rng: &mut StdRng, may_disable: bool) -> (OneShotStlConfig, usize, Vec<f64>) {
        let t = [7usize, 12, 24][rng.gen_range(0..3)];
        let lambda = [1.0, 10.0, 100.0, 1000.0][rng.gen_range(0..4)];
        let cfg = OneShotStlConfig {
            lambdas: Lambdas { lambda1: lambda, lambda2: lambda, anchor: 1.0 },
            shift_window: if may_disable && rng.gen_range(0..2) == 0 { 0 } else { 20 },
            shift_policy: if rng.gen_range(0..2) == 0 {
                ShiftPolicy::Cumulative
            } else {
                ShiftPolicy::Transient
            },
            shift_search: if rng.gen_range(0..2) == 0 {
                ShiftSearchConfig::default()
            } else {
                ShiftSearchConfig::exhaustive()
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

    /// Lanes of the lane-equivalence property: wider than [`LANES`], so
    /// the lockstep kernel runs with several lanes whatever width the
    /// fleet uses.
    const GROUP: usize = 4;

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(32))]
        /// The grouped update is the scalar update, bit for bit: over
        /// random lanes, [`GROUP`] models stepped with
        /// [`OneShotStl::update_lanes`] match twins stepped with
        /// plain `update` in every output bit and in their full state
        /// after every step. Lanes start their grouped stream at
        /// different points, so lanes in solver warm-up mix with steady
        /// ones.
        #[test]
        fn prop_grouped_update_matches_scalar_bit_for_bit(seed in 0u64..100_000) {
            let mut rng = StdRng::seed_from_u64(seed);
            // lane 0 always searches, so every case exercises the search
            let cases: Vec<_> = (0..GROUP).map(|q| lane_case(&mut rng, q > 0)).collect();
            let mut grouped: Vec<OneShotStl> = Vec::new();
            let mut scalar: Vec<OneShotStl> = Vec::new();
            let mut cursor = [0usize; GROUP];
            for (q, (cfg, t, y)) in cases.iter().enumerate() {
                let mut m = OneShotStl::new(cfg.clone());
                m.init(&y[..4 * t], *t).unwrap();
                let mut twin = m.clone();
                // lane q enters the groups q points after init
                cursor[q] = 4 * t + q;
                for &v in &y[4 * t..cursor[q]] {
                    m.update(v);
                    twin.update(v);
                }
                grouped.push(m);
                scalar.push(twin);
            }
            let steps = cases.iter().zip(&cursor).map(|((_, _, y), c)| y.len() - c).min().unwrap();
            let mut scratch = UpdateScratch::default();
            for step in 0..steps {
                let ys: [f64; GROUP] = std::array::from_fn(|q| cases[q].2[cursor[q] + step]);
                let lanes: &mut [OneShotStl; GROUP] =
                    grouped.as_mut_slice().try_into().unwrap();
                let got = OneShotStl::update_lanes(lanes.each_mut(), ys, &mut scratch);
                for q in 0..GROUP {
                    let want = scalar[q].update(ys[q]);
                    for (g, w) in [
                        (got[q].trend, want.trend),
                        (got[q].seasonal, want.seasonal),
                        (got[q].residual, want.residual),
                    ] {
                        proptest::prop_assert_eq!(g.to_bits(), w.to_bits(), "lane {} step {}", q, step);
                    }
                    proptest::prop_assert!(grouped[q].to_state() == scalar[q].to_state());
                    proptest::prop_assert_eq!(
                        grouped[q].shift_search_stats(),
                        scalar[q].shift_search_stats()
                    );
                }
            }
            // the spikes must have driven the §3.4 search on some lane
            proptest::prop_assert!(grouped.iter().any(|m| m.shift_search_stats().0 > 0));
        }
    }
}
