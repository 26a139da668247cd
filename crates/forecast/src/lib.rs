//! # forecast — univariate time-series forecasting
//!
//! The TSF side of the paper's evaluation (§5.5, Table 5):
//!
//! - [`traits`]: the [`Forecaster`] (fit once, predict a horizon) and
//!   [`OnlineForecaster`] (observe stream, predict ahead) interfaces.
//! - [`naive`]: naive / seasonal-naive / drift baselines.
//! - [`ets`]: simple, Holt, and Holt-Winters exponential smoothing with
//!   grid-tuned parameters.
//! - [`theta`]: the Theta method (deseasonalized SES + drift).
//! - [`arima`]: AutoARIMA-lite — differencing-order selection, seasonal
//!   differencing, Hannan–Rissanen ARMA fitting, AICc order search.
//! - [`std_forecast`]: the STD adapters — the §4 carry-forward over any
//!   online decomposer (OneShotSTL / OnlineSTL + seasonal buffer), and
//!   the §5 damped-trend rule on OneShotSTL ([`StlForecaster`]).
//! - [`eval`]: rolling-origin evaluation over the Informer-style splits,
//!   plus the streaming [`ErrorAcc`] accumulator.

pub mod arima;
pub mod ets;
pub mod eval;
pub mod naive;
pub mod std_forecast;
pub mod theta;
pub mod traits;

pub use arima::AutoArima;
pub use ets::{HoltWinters, Ses};
pub use eval::{evaluate_forecaster, evaluate_online, ErrorAcc, EvalReport};
pub use naive::{Drift, Naive, SeasonalNaive};
pub use std_forecast::StlForecaster;
pub use theta::Theta;
pub use traits::{Forecaster, OnlineForecaster};
