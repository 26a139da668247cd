//! # anomaly — univariate time-series anomaly detection
//!
//! The TSAD baselines of the paper's §5.4 (Tables 3–4), implemented from
//! their original papers:
//!
//! - [`znorm`] / [`mass`]: rolling z-normalization statistics and the MASS
//!   FFT distance profile — the substrate of every matrix-profile method.
//! - [`stomp`]: STOMP (batch z-normalized matrix profile) and STOMPI (its
//!   incremental, online variant).
//! - [`damp`]: DAMP (Lu et al., KDD 2022) — online left-discord discovery
//!   with backward doubling search and forward pruning.
//! - [`cluster`]: k-means with k-means++ seeding (shared by NormA/SAND).
//! - [`norma`]: NormA (Boniol et al.) — batch scoring against a weighted
//!   set of recurrent "normal" patterns.
//! - [`sand`]: SAND (Boniol et al., VLDB 2021) — streaming NormA with
//!   batch-wise cluster updates.
//! - [`pipeline`]: the paper's STD→NSigma detectors and the
//!   "STD prefilter + DAMP" hybrid of Table 4.
//!
//! All detectors implement [`TsadMethod`]: initialize on a training prefix,
//! then emit one anomaly score per test point.

pub mod cluster;
pub mod damp;
pub mod mass;
pub mod norma;
pub mod pipeline;
pub mod sand;
pub mod stomp;
pub mod traits;
pub mod znorm;

pub use damp::Damp;
pub use norma::NormA;
pub use pipeline::{NSigmaDetector, PrefilterDamp, StdNSigma};
pub use sand::Sand;
pub use stomp::{matrix_profile, Stompi};
pub use traits::TsadMethod;
