//! # oneshotstl — One-Shot Seasonal-Trend decomposition
//!
//! Rust implementation of **OneShotSTL** (He, Li, Tan, Wu, Li — VLDB 2023):
//! online seasonal-trend decomposition with an `O(1)` per-point update,
//! together with every building block the paper describes:
//!
//! | Paper artifact | Module |
//! |---|---|
//! | Batch JointSTL model + IRLS (Eq. 2–6, Algorithm 1) | [`jointstl`] |
//! | Modified JointSTL online system (Eq. 7–8, Algorithm 2) | [`system`], [`reference`](mod@reference) |
//! | Symmetric Doolittle factorization (Algorithm 3) | [`doolittle`] |
//! | OnlineDoolittle `O(1)` incremental solve (Algorithm 4) | [`online_doolittle`] |
//! | OneShotSTL (Algorithm 5) + seasonality-shift handling (§3.4) | [`oneshot`] |
//! | Streaming NSigma (Algorithm 6) | [`nsigma`] |
//! | Persistence-aware residual scoring (CUSUM fusion) | [`score`] |
//! | Multi-horizon STD→TSF forecast rule (§5) + forecast heads | [`forecast`](mod@forecast) |
//! | TSAD / TSF task adapters (§4) | [`tasks`] |
//!
//! ## Quick start
//!
//! ```
//! use oneshotstl::{OneShotStl, OneShotStlConfig};
//! use decomp::OnlineDecomposer;
//!
//! // a seasonal stream with period 24
//! let period = 24;
//! let y: Vec<f64> = (0..600)
//!     .map(|i| 1.0 + (2.0 * std::f64::consts::PI * i as f64 / period as f64).sin())
//!     .collect();
//!
//! let mut m = OneShotStl::new(OneShotStlConfig::default());
//! // one-time initialization on a prefix (paper: t0 >= 2 periods)
//! m.init(&y[..4 * period], period).unwrap();
//! // O(1) updates from then on
//! for &v in &y[4 * period..] {
//!     let p = m.update(v);
//!     assert!((p.trend + p.seasonal + p.residual - v).abs() < 1e-9);
//! }
//! ```
//!
//! The key invariant — verified by property tests in [`oneshot`] — is that
//! OneShotSTL's output **equals the exact solution of the growing
//! Algorithm-2 linear system** for the newest point: the `O(1)` algorithm
//! is an incremental solver, not an approximation of it.

pub mod doolittle;
pub mod forecast;
pub mod jointstl;
pub mod nsigma;
pub mod oneshot;
pub mod online_doolittle;
pub mod reference;
pub mod score;
pub mod system;
pub mod tasks;

pub use forecast::{damp_sum, ForecastHead, TrendHead};
pub use jointstl::{JointStl, JointStlConfig};
pub use nsigma::{NSigma, NSigmaState};
pub use oneshot::{
    IterSnapshot, LaneTrials, OneShotStl, OneShotStlConfig, OneShotStlState, ShiftPolicy,
    ShiftPrune, ShiftSearchConfig, UpdateScratch, DEFAULT_SHIFT_TOP_K, LANES,
};
pub use online_doolittle::{IncrementalSolver, SolverState};
pub use reference::ModifiedJointStlRef;
pub use score::{
    Fusion, ResidualScorer, ResidualScorerState, ScoreConfig, ScoreVerdict, TrendCusum,
    TrendCusumState,
};
pub use tasks::{StdAnomalyDetector, StdForecaster};
