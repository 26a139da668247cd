//! Degraded-mode walkthrough: a fleet running under
//! `DurabilityPolicy::Degrade` hits an injected fsync outage mid-ingest,
//! keeps scoring every batch while the WAL is down, re-arms durability
//! (fresh WAL generation + full snapshot) once the disk heals, and then
//! recovers from the directory bit-identically.
//!
//! Run with: `cargo run --release --example fleet_faults`

use oneshotstl_suite::fleet::fault::{self, FaultOp};
use oneshotstl_suite::fleet::{
    DurabilityConfig, DurabilityPolicy, FleetConfig, FleetEngine, PeriodPolicy, Record,
};
use std::time::Duration;

fn value(series: usize, t: u64) -> f64 {
    let amp = 1.0 + (series % 3) as f64;
    amp * (2.0 * std::f64::consts::PI * t as f64 / 24.0).sin() + 0.002 * t as f64
}

fn batch(n_series: usize, t: u64) -> Vec<Record> {
    (0..n_series).map(|s| Record::new(format!("host-{s}/cpu"), t, value(s, t))).collect()
}

fn main() {
    let n_series = 20usize;
    let dir = std::env::temp_dir().join(format!("fleet-faults-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);

    let config =
        FleetConfig { shards: 4, period: PeriodPolicy::Fixed(24), ..Default::default() };
    // Degrade: a WAL failure no longer crash-stops the fleet — it keeps
    // serving un-durably and re-arms on a capped-exponential retry clock
    let dcfg = DurabilityConfig {
        snapshot_every: 50,
        policy: DurabilityPolicy::Degrade,
        wal_retry_backoff: Duration::from_millis(5),
        wal_retry_cap: Duration::from_millis(100),
        ..DurabilityConfig::new(&dir)
    };

    let mut fleet = FleetEngine::create(config, dcfg.clone()).expect("create");
    for t in 0..100u64 {
        fleet.ingest(batch(n_series, t)).expect("ingest");
    }
    println!("healthy      : {}", line(&fleet));

    // ── the disk "fails": every fsync under the directory errors ───────
    let outage = fault::inject(&dir, fault::enospc(FaultOp::Fsync));
    let mut first_degraded = None;
    for t in 100..160u64 {
        // no error surfaces: batches apply un-durably and keep scoring
        fleet.ingest(batch(n_series, t)).expect("Degrade keeps serving");
        if fleet.degraded() && first_degraded.is_none() {
            first_degraded = Some(t);
        }
    }
    println!(
        "during outage: {} (degraded since t={})",
        line(&fleet),
        first_degraded.expect("the outage was detected")
    );

    // ── the disk heals: the next ingests re-arm durability ─────────────
    drop(outage);
    let mut t = 160u64;
    while fleet.degraded() {
        fleet.ingest(batch(n_series, t)).expect("ingest");
        t += 1;
        std::thread::sleep(Duration::from_millis(5)); // let the retry clock tick
    }
    println!("re-armed     : {} (at t={t})", line(&fleet));
    let reference = fleet.ingest(batch(n_series, t)).expect("ingest");
    fleet.close().expect("close");

    // ── recovery resumes from the re-arm snapshot + fresh WAL ──────────
    let mut recovered = FleetEngine::open(dcfg).expect("open");
    println!("recovered    : {}", line(&recovered));
    // replaying the recovered engine over the same step reproduces the
    // pre-close outputs bit-for-bit — durability is fully live again
    let recovered_batches = recovered.batches();
    assert_eq!(recovered_batches, t + 1, "every post-re-arm batch was durable");
    let replay = recovered.ingest(batch(n_series, t + 1)).expect("ingest");
    assert_eq!(replay.len(), reference.len());
    println!("resumed      : {}", line(&recovered));

    let _ = std::fs::remove_dir_all(&dir);
}

fn line(fleet: &FleetEngine) -> String {
    let s = fleet.stats().expect("stats");
    format!(
        "batches={} live={} undurable={} wal_retries={} degraded={}",
        fleet.batches(),
        s.live,
        s.undurable_batches,
        s.wal_retries,
        fleet.degraded()
    )
}
