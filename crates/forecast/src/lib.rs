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
//! - [`std_forecast`]: the paper's §4 STD forecasters (OneShotSTL /
//!   OnlineSTL + seasonal buffer extrapolation).
//! - [`heads`]: the §5 damped-trend STD→TSF rule and residual heads —
//!   batch models fitted on decomposition residuals, plugged into
//!   `oneshotstl::ForecastHead`.
//! - [`eval`]: rolling-origin evaluation over the Informer-style splits,
//!   plus the streaming [`ErrorAcc`] accumulator.

pub mod arima;
pub mod ets;
pub mod eval;
pub mod heads;
pub mod naive;
pub mod std_forecast;
pub mod theta;
pub mod traits;

pub use arima::AutoArima;
pub use ets::{HoltWinters, Ses};
pub use eval::{evaluate_forecaster, evaluate_online, ErrorAcc, EvalReport};
pub use heads::{HeadedStl, ResidualHead, StlForecaster};
pub use naive::{Drift, Naive, SeasonalNaive};
pub use std_forecast::StdOnlineForecaster;
pub use theta::Theta;
pub use traits::{Forecaster, OnlineForecaster};
