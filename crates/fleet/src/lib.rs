//! # fleet — sharded multi-series streaming engine
//!
//! OneShotSTL's `O(1)` per-point update (see the `oneshotstl` crate) only
//! pays off in production when one process hosts *many* concurrent series —
//! the cloud-monitoring setting of the paper's deployment. This crate is
//! that hosting layer: a multi-tenant engine owning a registry of
//! per-series detector state, sharded across worker threads, with warm-up
//! admission for unknown series, TTL lifecycle, and versioned binary
//! snapshot/restore.
//!
//! ## Architecture
//!
//! ```text
//!            ingest(Vec<Record>)                ┌────────────────────────┐
//!  caller ──────────────────────▶ FleetEngine ──▶ shard 0 (OS thread)    │
//!            Vec<ScoredPoint>          │        │  SeriesKey → SeriesState│
//!            (batch order)             ├────────▶ shard 1 …              │
//!                                      │        │  Warming → Live        │
//!            stable FNV-1a router ─────┘        └────────────────────────┘
//! ```
//!
//! - **Registry + sharding.** Records route to `shards` worker threads by a
//!   stable 64-bit key hash ([`SeriesKey::stable_hash`]); plain
//!   `std::thread` + `mpsc`, no external dependencies. A batch fans out to
//!   all shards in parallel and reassembles in input order.
//! - **Warm-up admission.** An unknown key buffers raw points until
//!   `init_len = 3·T` arrive, where the period `T` is either
//!   declared ([`PeriodPolicy::Fixed`]) or ACF-detected from the buffer
//!   ([`PeriodPolicy::Detect`]). The series is then promoted to a live
//!   `StdAnomalyDetector<OneShotStl>` scoring residuals with the
//!   persistence-aware fused scorer (`oneshotstl::score`: NSigma z-score
//!   fused with a two-sided CUSUM and a peak-hold; [`FleetConfig::score`]
//!   configures it engine-wide, `ScoreConfig::off()` restores the plain
//!   z-score).
//! - **Per-series tuning.** [`FleetEngine::set_admit_options`] overrides
//!   λ, the NSigma threshold, the declared period, the §3.4
//!   shift-search policy, the residual scoring config, and the forecast
//!   head for one series before it admits ([`AdmitOptions`]); the
//!   overrides bake into the detector at promotion and survive
//!   snapshot/restore and crash recovery.
//! - **Detection backends.** Beyond the default fused scorer, a series
//!   can run a trend-innovation CUSUM over its decomposed trend, alone or
//!   as an ensemble with the fused scorer (`max` score, OR verdict)
//!   ([`BackendSelect`]; engine-wide via [`FleetConfig::backend`] or per
//!   series via [`AdmitOptions::backend`]). The backend's allocation-free
//!   state snapshots with the series and restores bit-identically.
//! - **Forecasting.** With [`ForecastOptions`] enabled (engine-wide via
//!   [`FleetConfig::forecast`] or per series), a live series answers
//!   [`FleetEngine::forecast`] with the paper's §5 damped-trend
//!   recurrence `ŷ(t+h) = τ(t) + slope·Σφⁱ + v[(t+Δ+h) mod T]`. Every
//!   term of it is decomposer state, so the head is one number, its
//!   damping `φ`, and costs nothing per point. Series without a head
//!   still answer forecasts via the carry-forward `predict`.
//! - **Snapshot/restore.** [`FleetEngine::snapshot_bytes`] serializes every
//!   series with a versioned codec ([`codec`]) that reads and writes the
//!   live state types themselves (`OneShotStl`, its scorer, the backend:
//!   each series is its own snapshot) and round-trips `f64`s by bit
//!   pattern: a restored engine continues the scoring stream
//!   **bit-identically**.
//! - **Lifecycle.** Per-series last-seen clocks; series idle beyond
//!   `config.ttl` are evicted (amortized sweep during ingest, or explicit
//!   [`FleetEngine::evict_idle`]). On a durable engine
//!   ([`FleetEngine::create`]) with [`FleetConfig::spill_after`] set, idle
//!   series instead *spill* to an on-disk cold store ([`cold_tier`]) and
//!   drop out of the hot registry — their next point rehydrates them
//!   through the normal shard path, bit-identically. [`FleetEngine::stats`]
//!   reports live/warming/rejected/cold counts, lifetime counters, and
//!   per-shard queue depth.
//! - **Backpressure.** [`FleetEngine::submit`]/[`FleetEngine::next_batch`]
//!   pipeline batches; with [`FleetConfig::queue_capacity`] set, shard
//!   queues are bounded and a full shard either blocks the submitter or
//!   rejects the batch with a typed error ([`QueuePolicy`]).
//! - **Durability.** An engine built by [`FleetEngine::create`] keeps a
//!   write-ahead log of raw batches ([`wal`]), written by the engine
//!   thread, and periodic background snapshots to disk, each a full
//!   engine image ([`persist`]); after a crash, [`FleetEngine::open`]
//!   restores the latest valid snapshot and replays the WAL tail — including torn-tail truncation —
//!   back to a bit-identical engine. Durability is a setting of the one
//!   engine type, so every surface gets it, [`NetServer`] included. WAL
//!   records, cold-tier records and wire messages are one length + CRC32
//!   frame, written and checked by one module ([`frame`]).
//!
//! ## Quick start
//!
//! ```
//! use fleet::{FleetConfig, FleetEngine, Record};
//!
//! let mut engine = FleetEngine::new(FleetConfig::fixed_period(24)).unwrap();
//! // warm up one series: 3 cycles of a daily pattern
//! for t in 0..72 {
//!     let v = (2.0 * std::f64::consts::PI * t as f64 / 24.0).sin();
//!     engine.ingest_one("host-1/cpu", t, v).unwrap();
//! }
//! // the series is now live: points come back scored
//! let p = engine.ingest_one("host-1/cpu", 72, 0.0).unwrap();
//! assert!(p.score().is_some());
//! let snapshot = engine.snapshot_bytes().unwrap();
//! let restored = FleetEngine::restore_bytes(&snapshot).unwrap();
//! assert_eq!(restored.stats().unwrap().live, 1);
//! ```
//!
//! ## Durability
//!
//! Build the same configuration with [`FleetEngine::create`] and the
//! engine survives crashes:
//!
//! ```
//! use fleet::{DurabilityConfig, FleetConfig, FleetEngine};
//!
//! let dir = std::env::temp_dir().join(format!("fleet-doc-{}", std::process::id()));
//! let _ = std::fs::remove_dir_all(&dir);
//! let mut durable =
//!     FleetEngine::create(FleetConfig::fixed_period(24), DurabilityConfig::new(&dir))
//!         .unwrap();
//! for t in 0..80 {
//!     durable.ingest_one("host-1/cpu", t, (t as f64 / 3.8).sin()).unwrap();
//! }
//! drop(durable); // crash: no clean shutdown, no explicit snapshot
//! let recovered = FleetEngine::open(DurabilityConfig::new(&dir)).unwrap();
//! assert_eq!(recovered.batches(), 80); // WAL replay caught up
//! # let _ = std::fs::remove_dir_all(&dir);
//! ```

#![warn(missing_docs)]

pub mod backend;
pub mod batch;
pub mod codec;
pub mod cold_tier;
pub mod config;
pub mod engine;
pub mod error;
pub mod fault;
pub mod frame;
mod key_index;
pub mod net;
pub mod persist;
pub mod series;
pub mod shard;
pub mod types;
pub mod wal;

pub use backend::{BackendSelect, SeriesBackend};
pub use batch::ShardBatch;
pub use cold_tier::ColdStore;
pub use config::{AdmitOptions, FleetConfig, ForecastOptions, PeriodPolicy, QueuePolicy};
pub use engine::{CarriedTotals, FleetEngine, FleetSnapshot, SeqForecast};
pub use error::{CodecError, FleetError};
pub use net::{NetClient, NetError, NetMessage, NetServer};
pub use persist::{DurabilityConfig, DurabilityPolicy, DurableFleet};
pub use series::QuarantineCause;
pub use shard::SeriesSnapshot;
pub use types::{FleetStats, PointOutput, Record, ScoredPoint, SeriesKey, ShardStats};
