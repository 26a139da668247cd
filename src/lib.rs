//! # oneshotstl-suite — umbrella crate
//!
//! Re-exports the whole OneShotSTL reproduction workspace behind one
//! dependency, and hosts the runnable examples and the cross-crate
//! integration tests.
//!
//! ```
//! use oneshotstl_suite::prelude::*;
//!
//! let period = 24;
//! let y: Vec<f64> = (0..480)
//!     .map(|i| (2.0 * std::f64::consts::PI * i as f64 / period as f64).sin())
//!     .collect();
//! let mut m = OneShotStl::new(OneShotStlConfig::default());
//! m.init(&y[..4 * period], period).unwrap();
//! let p = m.update(1.0);
//! assert!((p.trend + p.seasonal + p.residual - 1.0).abs() < 1e-9);
//! ```

pub use anomaly;
pub use decomp;
pub use fleet;
pub use forecast;
pub use neural;
pub use oneshotstl as core;
pub use tskit;
pub use tsmetrics as metrics;

/// The most common imports in one place.
pub mod prelude {
    pub use anomaly::{Damp, NormA, Sand, StdNSigma, Stompi, TsadMethod};
    pub use decomp::{
        BatchDecomposer, OnlineDecomposer, OnlineRobustStl, OnlineStl, RobustStl, Stl, Windowed,
    };
    pub use fleet::{FleetConfig, FleetEngine, PeriodPolicy, Record, ScoredPoint, SeriesKey};
    pub use forecast::{Forecaster, OnlineForecaster};
    pub use oneshotstl::oneshot::OneShotStlConfig;
    pub use oneshotstl::system::Lambdas;
    pub use oneshotstl::{
        Fusion, JointStl, ModifiedJointStlRef, NSigma, OneShotStl, ResidualScorer, ScoreConfig,
        StdAnomalyDetector, StdForecaster,
    };
    pub use tskit::{DecompPoint, Decomposition, LabeledSeries};
    pub use tsmetrics::{kdd21_score, roc_auc, vus_roc, DecompErrors};
}

#[cfg(test)]
mod tests {
    use super::prelude::*;

    #[test]
    fn prelude_types_are_usable() {
        let _cfg = OneShotStlConfig::default();
        let _n = NSigma::new(5.0);
        let d = Decomposition::zeros(3);
        assert_eq!(d.len(), 3);
    }
}
