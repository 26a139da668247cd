//! Durability walkthrough: a fleet ingests with a write-ahead log and
//! periodic snapshots-to-disk, "crashes" without a clean shutdown, and is
//! recovered bit-identically from the durability directory — then shuts
//! down cleanly so the next start needs zero replay.
//!
//! Run with: `cargo run --release --example fleet_recover`

use oneshotstl_suite::fleet::{
    AdmitOptions, DurabilityConfig, FleetConfig, FleetEngine, PeriodPolicy, Record,
};

fn value(series: usize, t: u64) -> f64 {
    let amp = 1.0 + (series % 3) as f64;
    // series 0 beats at period 12; its AdmitOptions below declare that
    let period = if series == 0 { 12.0 } else { 24.0 };
    amp * (2.0 * std::f64::consts::PI * t as f64 / period).sin()
}

fn batch(n_series: usize, t: u64) -> Vec<Record> {
    (0..n_series).map(|s| Record::new(format!("host-{s}/cpu"), t, value(s, t))).collect()
}

fn main() {
    let n_series = 40usize;
    let dir = std::env::temp_dir().join(format!("fleet-recover-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);

    let config =
        FleetConfig { shards: 4, period: PeriodPolicy::Fixed(24), ..Default::default() };
    // fsync every batch; snapshot every 50 batches; keep 2 snapshots
    let dcfg = DurabilityConfig { snapshot_every: 50, ..DurabilityConfig::new(&dir) };

    // ── first life: ingest 130 batches, then "crash" ────────────────────
    let mut fleet = FleetEngine::create(config, dcfg.clone()).expect("create");
    // per-series tuning survives recovery: a durable engine checkpoints
    // on registration (overrides are not WAL-logged), so the declared period
    // and tighter threshold are back in force after a crash
    fleet
        .set_admit_options(
            "host-0/cpu",
            AdmitOptions { period: Some(12), nsigma: Some(4.0), ..Default::default() },
        )
        .expect("series not admitted yet");
    for t in 0..130u64 {
        fleet.ingest(batch(n_series, t)).expect("ingest");
    }
    let stats = stats_line(&fleet);
    println!("before crash : {stats}");
    drop(fleet); // kill -9: no checkpoint, no clean shutdown

    let files: Vec<String> = std::fs::read_dir(&dir)
        .expect("durability dir")
        .filter_map(|e| e.ok().and_then(|e| e.file_name().into_string().ok()))
        .collect();
    println!("on disk      : {} files (snapshots + WAL segments)", files.len());

    // ── second life: recover and keep scoring ───────────────────────────
    // snapshot at batch 100 + WAL replay of batches 101..130
    let mut fleet = FleetEngine::open(dcfg.clone()).expect("recover");
    println!("recovered    : {}", stats_line(&fleet));
    assert_eq!(fleet.batches(), 130, "nothing was lost");
    for t in 130..200u64 {
        fleet.ingest(batch(n_series, t)).expect("ingest");
    }
    println!("after resume : {}", stats_line(&fleet));

    // ── clean shutdown: checkpoint, so the next open replays nothing ────
    fleet.close().expect("close");
    let fleet = FleetEngine::open(dcfg).expect("reopen");
    println!("after close  : {}", stats_line(&fleet));
    let _ = std::fs::remove_dir_all(&dir);
}

/// Tiny display helper on top of the public stats API.
fn stats_line(fleet: &FleetEngine) -> String {
    let s = fleet.stats().expect("stats");
    format!(
        "{} batches, {} live series, {} points scored, durable snapshot at batch {}",
        fleet.batches(),
        s.live,
        s.points,
        fleet.durable_snapshot()
    )
}
