//! # decomp — seasonal-trend decomposition baselines
//!
//! Implementations of the STD methods OneShotSTL is compared against
//! (paper Table 1 / §5.2–5.3):
//!
//! - [`stl`]: classic STL (Cleveland et al. 1990) with LOESS smoothing,
//!   inner/outer loops and robustness weights.
//! - [`l1trend`]: ℓ1 trend filtering (Kim et al. 2009) solved by IRLS over
//!   a pentadiagonal system — shared building block of RobustSTL and
//!   JointSTL.
//! - [`robuststl`]: RobustSTL (Wen et al. 2018): bilateral denoising,
//!   doubly-regularized robust trend extraction, non-local seasonal
//!   filtering.
//! - [`onlinestl`]: OnlineSTL (Mishra et al. 2022): tri-cube trend filter +
//!   per-phase exponential seasonal smoothing, `O(T)` per update.
//! - [`window`]: Window-STL / Window-RobustSTL — any batch decomposer run on
//!   a sliding window, emitting the last point (the paper's baseline recipe
//!   for using batch methods online).
//! - [`online_robust`]: OnlineRobustSTL — the `O(T)` online variant of
//!   RobustSTL used in the paper's comparisons.
//!
//! The [`BatchDecomposer`] / [`OnlineDecomposer`] traits are shared with the
//! `oneshotstl` crate, which implements them for the paper's algorithm.

pub mod l1trend;
pub mod online_robust;
pub mod onlinestl;
pub mod robuststl;
pub mod stl;
pub mod traits;
pub mod window;

pub use l1trend::{l1_trend_filter, L1TrendConfig};
pub use online_robust::OnlineRobustStl;
pub use onlinestl::OnlineStl;
pub use robuststl::{RobustStl, RobustStlConfig};
pub use stl::{SeasonalSpan, Stl, StlConfig, StlPlans};
pub use traits::{BatchDecomposer, OnlineDecomposer};
pub use window::Windowed;
