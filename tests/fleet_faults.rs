//! Fault-injected durability: every instrumented WAL/snapshot I/O
//! failure must leave the fleet panic-free and the on-disk state a
//! recoverable prefix; [`DurabilityPolicy::Degrade`] must keep serving
//! through a WAL outage and re-arm, and recover a killed shard worker
//! from disk bit-identically; a plain engine must respawn one with its
//! series re-warming; a poisoned series update must quarantine the
//! series, not the shard.

use oneshotstl_suite::fleet::fault::{self, FaultOp};
use oneshotstl_suite::fleet::{
    AdmitOptions, BackendSelect, DurabilityConfig, DurabilityPolicy, FleetConfig, FleetEngine,
    FleetError, ForecastOptions, PeriodPolicy, PointOutput, Record, ScoredPoint,
};
use std::fs;
use std::path::PathBuf;
use std::sync::Arc;
use std::time::Duration;

const PERIOD: usize = 12;

/// Deterministic seasonal value for series `s` at time `t` — no RNG
/// dependency, varied enough that scores are nontrivial.
fn val(s: usize, t: u64) -> f64 {
    let phase = 2.0 * std::f64::consts::PI * t as f64 / PERIOD as f64;
    let noise =
        ((t.wrapping_mul(2654435761).wrapping_add(s as u64 * 97)) % 1000) as f64 / 5000.0;
    phase.sin() * (1.0 + s as f64 * 0.3) + 0.01 * t as f64 + noise
}

fn batch(n_series: usize, t: u64) -> Vec<Record> {
    (0..n_series).map(|s| Record::new(format!("series-{s}"), t, val(s, t))).collect()
}

fn config(shards: usize) -> FleetConfig {
    FleetConfig { shards, period: PeriodPolicy::Fixed(PERIOD), ..Default::default() }
}

/// Fresh per-test scratch directory under the system temp dir.
fn test_dir(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("fleet-faults-{}-{name}", std::process::id()));
    let _ = fs::remove_dir_all(&dir);
    dir
}

fn assert_bit_identical(a: &[ScoredPoint], b: &[ScoredPoint], ctx: &str) {
    assert_eq!(a.len(), b.len(), "{ctx}: batch sizes");
    for (x, y) in a.iter().zip(b) {
        assert_eq!(x.key, y.key, "{ctx}");
        match (&x.output, &y.output) {
            (
                PointOutput::Scored { point: pa, score: sa, is_anomaly: fa },
                PointOutput::Scored { point: pb, score: sb, is_anomaly: fb },
            ) => {
                assert_eq!(pa.trend.to_bits(), pb.trend.to_bits(), "{ctx}: {} trend", x.key);
                assert_eq!(pa.seasonal.to_bits(), pb.seasonal.to_bits(), "{ctx}: seasonal");
                assert_eq!(pa.residual.to_bits(), pb.residual.to_bits(), "{ctx}: residual");
                assert_eq!(sa.to_bits(), sb.to_bits(), "{ctx}: score");
                assert_eq!(fa, fb, "{ctx}: verdict");
            }
            (oa, ob) => assert_eq!(oa, ob, "{ctx}: {}", x.key),
        }
    }
}

/// The fault matrix: fail the Nth occurrence of every instrumented file
/// operation, at several positions, under the default crash-stop policy.
/// Whatever the failure hits — WAL segment creation, a record write, an
/// append or rotation fsync, a snapshot temp write, its rename, the
/// directory fsync — the process must not panic, and recovery from the
/// surviving files must restore a prefix of the acked history that then
/// continues bit-identically to an uninterrupted engine. Each case runs
/// twice: synchronous `ingest`, and `submit`/`next_batch` with 4 batches
/// in flight, where a failure surfaces from `submit` and every batch
/// already dispatched still collects bit-identically.
#[test]
fn fault_matrix_recovers_a_bit_identical_prefix() {
    let n_series = 2;
    let total = 60u64;

    // uninterrupted reference outputs per batch
    let mut reference = FleetEngine::new(config(2)).unwrap();
    let ref_outputs: Vec<Vec<ScoredPoint>> =
        (0..total).map(|t| reference.ingest(batch(n_series, t)).unwrap()).collect();

    let cases = [
        (FaultOp::Create, 0),
        (FaultOp::Create, 2),
        (FaultOp::Write, 0),
        (FaultOp::Write, 4),
        (FaultOp::Fsync, 0),
        (FaultOp::Fsync, 3),
        // the base at seq 0 and batches 1..=8 take fsyncs 0..=8; the
        // rotation at the first snapshot (seq 8) takes #9
        (FaultOp::Fsync, 9),
        (FaultOp::Rename, 0),
        (FaultOp::Rename, 1),
        (FaultOp::DirSync, 0),
        (FaultOp::DirSync, 2),
    ];
    for ((op, nth), pipelined) in cases.into_iter().flat_map(|c| [(c, false), (c, true)]) {
        let ctx = format!("{op:?} #{nth} pipelined={pipelined}");
        let dir = test_dir(&format!("matrix-{op:?}-{nth}-{pipelined}").to_lowercase());
        // a short snapshot cadence with full-base rewrites every 2 deltas
        // routes the fault through the snapshot path as well as the WAL
        let dcfg = DurabilityConfig {
            snapshot_every: 8,
            max_delta_chain: 2,
            ..DurabilityConfig::new(&dir)
        };
        let guard = fault::inject(&dir, fault::fail_nth(op, nth));
        let fed = match FleetEngine::create(config(2), dcfg.clone()) {
            // the fault killed bootstrap before anything durable existed:
            // no panic is the whole contract for this case
            Err(_) => {
                drop(guard);
                let _ = fs::remove_dir_all(&dir);
                continue;
            }
            Ok(mut durable) if pipelined => {
                let mut acked = 0u64;
                let mut collect = |durable: &mut FleetEngine| {
                    let out = durable.next_batch().expect(&ctx)?;
                    assert_bit_identical(&out, &ref_outputs[acked as usize], &ctx);
                    acked += 1;
                    Some(())
                };
                for t in 0..total {
                    // crash-stop: the fleet is poisoned, stop submitting
                    if durable.submit(batch(n_series, t)).is_err() {
                        break;
                    }
                    if durable.in_flight() == 4 {
                        collect(&mut durable);
                    }
                }
                while collect(&mut durable).is_some() {}
                drop(durable); // crash, no clean shutdown
                acked
            }
            Ok(mut durable) => {
                let mut fed = 0u64;
                for t in 0..total {
                    match durable.ingest(batch(n_series, t)) {
                        Ok(out) => {
                            assert_bit_identical(&out, &ref_outputs[t as usize], &ctx);
                            fed = t + 1;
                        }
                        // crash-stop: the fleet is poisoned, stop feeding
                        Err(_) => break,
                    }
                }
                drop(durable); // crash, no clean shutdown
                fed
            }
        };
        drop(guard);

        // bootstrap succeeded, so a valid seq-0 base exists: recovery must
        // succeed and restore a prefix of the acked history (an un-acked
        // final batch may survive: its record can hit the page cache even
        // when the covering fsync failed)
        let mut recovered = FleetEngine::open(dcfg).expect(&ctx);
        let resume = recovered.batches();
        assert!(
            resume >= fed && resume <= fed + 1,
            "{ctx}: acked {fed} batches, recovered {resume}"
        );
        for t in resume..total {
            let out = recovered.ingest(batch(n_series, t)).expect(&ctx);
            assert_bit_identical(&out, &ref_outputs[t as usize], &ctx);
        }
        let _ = fs::remove_dir_all(&dir);
    }
}

/// Under [`DurabilityPolicy::Degrade`] a transient fsync outage must not
/// surface a single error: batches keep scoring bit-identically, the
/// un-durable window is counted, the WAL re-arms on the backoff clock,
/// and both counters survive crash recovery.
#[test]
fn degrade_mode_serves_through_a_wal_outage_and_rearms() {
    let n_series = 3;
    let dir = test_dir("degrade-outage");
    let dcfg = DurabilityConfig {
        snapshot_every: 1_000_000, // cadence off: fsync counting stays deterministic
        policy: DurabilityPolicy::Degrade,
        wal_retry_backoff: Duration::from_millis(1),
        wal_retry_cap: Duration::from_millis(20),
        ..DurabilityConfig::new(&dir)
    };

    let mut reference = FleetEngine::new(config(2)).unwrap();
    let mut durable = FleetEngine::create(config(2), dcfg.clone()).unwrap();

    // fail fsyncs 2..5 (counted after create): a transient outage that
    // poisons the WAL mid-stream, then fails the first re-arm attempts
    let guard = fault::inject(&dir, fault::fail_range(FaultOp::Fsync, 2, 3));
    let mut was_degraded = false;
    for t in 0..120u64 {
        let expect = reference.ingest(batch(n_series, t)).unwrap();
        let out =
            durable.ingest(batch(n_series, t)).expect("Degrade never surfaces the outage");
        assert_bit_identical(&out, &expect, "during outage");
        was_degraded |= durable.degraded();
        if durable.degraded() {
            // the re-arm clock, not the ingest rate, paces recovery
            std::thread::sleep(Duration::from_millis(2));
        }
    }
    drop(guard);
    assert!(was_degraded, "the outage never degraded durability");
    assert!(!durable.degraded(), "the fleet never re-armed");

    let stats = durable.stats().unwrap();
    assert!(stats.undurable_batches >= 1, "un-durable window not counted: {stats:?}");
    assert!(stats.wal_retries >= 1, "re-arm attempts not counted: {stats:?}");

    // after re-arming, durability is fully live again: clean close, then
    // recovery resumes at the end of the stream with the counters carried
    durable.close().unwrap();
    let mut recovered = FleetEngine::open(dcfg).unwrap();
    assert_eq!(recovered.batches(), 120, "post-re-arm batches all durable");
    let got = recovered.stats().unwrap();
    assert_eq!(got.undurable_batches, stats.undurable_batches, "carried across recovery");
    assert_eq!(got.wal_retries, stats.wal_retries, "carried across recovery");
    for t in 120..140u64 {
        let expect = reference.ingest(batch(n_series, t)).unwrap();
        let out = recovered.ingest(batch(n_series, t)).unwrap();
        assert_bit_identical(&out, &expect, "post-recovery");
    }
    let _ = fs::remove_dir_all(&dir);
}

/// A permanent outage (ENOSPC on every fsync) keeps the fleet serving
/// under Degrade — degraded the whole time, every batch counted — and
/// [`FleetEngine::checkpoint`] refuses rather than pretending.
#[test]
fn degrade_mode_survives_a_permanent_outage() {
    let n_series = 2;
    let dir = test_dir("degrade-enospc");
    let dcfg = DurabilityConfig {
        snapshot_every: 1_000_000,
        policy: DurabilityPolicy::Degrade,
        wal_retry_backoff: Duration::from_millis(1),
        wal_retry_cap: Duration::from_millis(5),
        ..DurabilityConfig::new(&dir)
    };
    let mut durable = FleetEngine::create(config(2), dcfg).unwrap();
    for t in 0..3u64 {
        durable.ingest(batch(n_series, t)).unwrap();
    }
    let _guard = fault::inject(&dir, fault::enospc(FaultOp::Fsync));
    let mut undurable_seen = 0u64;
    for t in 3..40u64 {
        durable.ingest(batch(n_series, t)).expect("disk-full must not stop serving");
        if durable.degraded() {
            std::thread::sleep(Duration::from_millis(1));
        }
        undurable_seen = durable.stats().unwrap().undurable_batches;
    }
    assert!(durable.degraded(), "ENOSPC on every fsync cannot re-arm");
    assert!(undurable_seen >= 30, "most batches were un-durable: {undurable_seen}");
    assert!(
        matches!(durable.checkpoint(), Err(FleetError::Io(_))),
        "checkpoint while degraded must refuse"
    );
    drop(durable);
    let _ = fs::remove_dir_all(&dir);
}

/// Under [`DurabilityPolicy::Degrade`] a killed shard worker is recovered
/// from disk in place: the call that sees `ShardDown` returns it,
/// `engine().batches()` is where feeding resumes, and every batch served
/// after that — and a later `FleetEngine::open`'s continuation — is
/// bit-identical to an uninterrupted twin. No shard is rebuilt from an
/// older in-memory image.
#[test]
fn degrade_recovers_a_killed_shard_from_disk_bit_identically() {
    let (n_series, killed_at, reopened_at, total) = (6, 65u64, 80u64, 95u64);
    let dir = test_dir("degrade-kill");
    let dcfg = DurabilityConfig {
        // the kill lands mid-interval: the newest image (seq 60) is stale
        snapshot_every: 10,
        policy: DurabilityPolicy::Degrade,
        ..DurabilityConfig::new(&dir)
    };
    let mut twin = FleetEngine::new(config(3)).unwrap();
    let expected: Vec<Vec<ScoredPoint>> =
        (0..total).map(|t| twin.ingest(batch(n_series, t)).unwrap()).collect();

    let mut durable = FleetEngine::create(config(3), dcfg.clone()).unwrap();
    for t in 0..killed_at {
        durable.ingest(batch(n_series, t)).unwrap();
    }
    durable.crash_shard(0).unwrap();
    let mut t = killed_at;
    let mut resumes = Vec::new();
    while t < reopened_at {
        match durable.ingest(batch(n_series, t)) {
            Ok(out) => {
                assert_bit_identical(&out, &expected[t as usize], &format!("served batch {t}"));
                t += 1;
            }
            Err(FleetError::ShardDown) => {
                t = durable.batches();
                resumes.push(t);
            }
            Err(e) => panic!("unexpected error at batch {t}: {e}"),
        }
    }
    // one ShardDown, then a healthy recovered fleet; every acked batch
    // was fsynced, so the resume point is the kill (or one batch past it
    // when that batch did not touch the dead shard)
    assert_eq!(resumes.len(), 1, "resume points {resumes:?}");
    assert!((killed_at..=killed_at + 1).contains(&resumes[0]), "{resumes:?}");
    assert!(!durable.degraded());
    let stats = durable.stats().unwrap();
    assert_eq!(stats.shard_restarts, 1, "the recovery is counted: {stats:?}");
    assert_eq!(stats.live, n_series);

    // crash the recovered fleet too: its directory must continue the
    // same stream, restart count included
    drop(durable);
    let mut reopened = FleetEngine::open(dcfg).unwrap();
    assert_eq!(reopened.batches(), reopened_at);
    assert_eq!(reopened.stats().unwrap().shard_restarts, 1);
    for t in reopened_at..total {
        let out = reopened.ingest(batch(n_series, t)).unwrap();
        assert_bit_identical(&out, &expected[t as usize], &format!("reopened batch {t}"));
    }
    let _ = fs::remove_dir_all(&dir);
}

/// A `Degrade` recovery whose `open` fails swaps nothing: the fleet stays
/// poisoned, as a crash-stopped one would — every later call, `close`
/// included, answers `ShardDown`.
#[test]
fn degrade_recovery_that_cannot_open_leaves_the_fleet_poisoned() {
    let n_series = 4;
    let dir = test_dir("degrade-kill-unrecoverable");
    let dcfg =
        DurabilityConfig { policy: DurabilityPolicy::Degrade, ..DurabilityConfig::new(&dir) };
    let mut durable = FleetEngine::create(config(2), dcfg).unwrap();
    for t in 0..20u64 {
        durable.ingest(batch(n_series, t)).unwrap();
    }
    durable.crash_shard(0).unwrap();
    // with every base snapshot gone, `open` fails
    for entry in fs::read_dir(&dir).unwrap() {
        let path = entry.unwrap().path();
        if path.extension().is_some_and(|e| e == "fsnap") {
            fs::remove_file(path).unwrap();
        }
    }
    for t in 20..23u64 {
        let out = durable.ingest(batch(n_series, t)).map(|_| ());
        assert_eq!(out, Err(FleetError::ShardDown), "batch {t}");
    }
    assert!(matches!(durable.stats(), Err(FleetError::ShardDown)));
    assert_eq!(durable.close(), Err(FleetError::ShardDown));
    let _ = fs::remove_dir_all(&dir);
}

/// A worker killed on a plain engine (no WAL) respawns with an empty
/// registry, so its series re-warm instead of resuming — even when a
/// snapshot was collected before the kill. The respawn breaks the delta
/// chain: `snapshot_delta` refuses until a full snapshot starts a new one.
#[test]
fn respawn_rewarms_series_even_after_a_snapshot() {
    let n_series = 4;
    let mut engine = FleetEngine::new(config(2)).unwrap();
    for t in 0..40u64 {
        engine.ingest(batch(n_series, t)).unwrap();
    }
    engine.snapshot().unwrap();
    engine.crash_shard(0).unwrap();
    std::thread::sleep(Duration::from_millis(300));
    let mut outputs = None;
    for _ in 0..10 {
        match engine.ingest(batch(n_series, 40)) {
            Ok(out) => {
                outputs = Some(out);
                break;
            }
            Err(FleetError::ShardDown) => std::thread::sleep(Duration::from_millis(10)),
            Err(e) => panic!("unexpected error while healing: {e}"),
        }
    }
    let outputs = outputs.expect("the shard never healed");
    assert!(
        outputs.iter().any(|p| matches!(p.output, PointOutput::Warming { .. })),
        "shard-0 series re-warm from scratch, snapshot or not"
    );
    assert!(
        outputs.iter().any(|p| matches!(p.output, PointOutput::Scored { .. })),
        "the surviving shard's series continue scoring"
    );
    let stats = engine.stats().unwrap();
    assert_eq!(stats.shard_restarts, 1, "{stats:?}");
    assert!(
        matches!(engine.snapshot_delta(), Err(FleetError::Recovery(_))),
        "no delta can chain across a respawn"
    );
    // the restart counter rides snapshots like any lifetime total
    let restored = FleetEngine::restore_bytes(&engine.snapshot_bytes().unwrap()).unwrap();
    assert_eq!(restored.stats().unwrap().shard_restarts, 1);
    assert!(engine.snapshot_delta().is_ok(), "a full snapshot starts a new chain");
}

/// Under the default crash-stop policy a dead worker stays dead: the
/// engine keeps failing with `ShardDown` until the operator recovers
/// from disk with `FleetEngine::open`.
#[test]
fn crash_stop_keeps_a_killed_worker_down() {
    let n_series = 4;
    let dir = test_dir("crash-stop-down");
    let mut durable = FleetEngine::create(config(2), DurabilityConfig::new(&dir)).unwrap();
    for t in 0..20u64 {
        durable.ingest(batch(n_series, t)).unwrap();
    }
    durable.crash_shard(0).unwrap();
    std::thread::sleep(Duration::from_millis(300));
    for _ in 0..3 {
        assert!(
            durable.ingest(batch(n_series, 20)).is_err(),
            "crash-stop must not heal a dead shard"
        );
    }
    // recovery from disk is the crash-stop repair path
    drop(durable);
    let recovered = FleetEngine::open(DurabilityConfig::new(&dir)).unwrap();
    assert_eq!(recovered.batches(), 20);
    assert_eq!(recovered.stats().unwrap().shard_restarts, 0);
    let _ = fs::remove_dir_all(&dir);
}

/// A series whose update fails or panics is quarantined — points dropped
/// and counted, the shard and every other series unharmed — and the key
/// can be re-admitted. The quarantined phase rides snapshots (codec v8).
#[test]
fn poisoned_series_updates_quarantine_and_readmit() {
    let mut engine = FleetEngine::new(config(1)).unwrap();
    let keys = ["q-err", "q-panic", "q-fine"];
    let warm = 3 * PERIOD as u64; // default init_cycles * fixed period
    for t in 0..warm + 5 {
        let recs = keys.iter().map(|k| Record::new(*k, t, val(0, t))).collect();
        for p in engine.ingest(recs).unwrap() {
            if t >= warm {
                assert!(
                    matches!(p.output, PointOutput::Scored { .. }),
                    "{}: {:?}",
                    p.key,
                    p.output
                );
            }
        }
    }

    // an injected step error quarantines q-err (cause: non-finite state)
    let t0 = warm + 5;
    {
        let _g = fault::inject("q-err", fault::enospc(FaultOp::SeriesStep));
        let p = engine.ingest_one("q-err", t0, val(0, t0)).unwrap();
        assert_eq!(p.output, PointOutput::Quarantined);
    }
    // an injected step panic quarantines q-panic without killing the shard
    {
        let _g = fault::inject(
            "q-panic",
            Arc::new(|op, _path: &std::path::Path| {
                if op == FaultOp::SeriesStep {
                    panic!("injected step panic (test)");
                }
                None
            }),
        );
        let p = engine.ingest_one("q-panic", t0, val(1, t0)).unwrap();
        assert_eq!(p.output, PointOutput::Quarantined);
    }

    // hooks gone: the quarantine is sticky, the healthy series unharmed
    let p = engine.ingest_one("q-err", t0 + 1, val(0, t0 + 1)).unwrap();
    assert_eq!(p.output, PointOutput::Quarantined, "points keep dropping");
    let p = engine.ingest_one("q-fine", t0 + 1, val(2, t0 + 1)).unwrap();
    assert!(matches!(p.output, PointOutput::Scored { .. }), "shard survived the panic");
    assert_eq!(engine.stats().unwrap().quarantined, 2);

    // the quarantined phase snapshots and restores (codec v8)
    let mut restored = FleetEngine::restore_bytes(&engine.snapshot_bytes().unwrap()).unwrap();
    assert_eq!(restored.stats().unwrap().quarantined, 2);
    let p = restored.ingest_one("q-panic", t0 + 2, val(1, t0 + 2)).unwrap();
    assert_eq!(p.output, PointOutput::Quarantined, "quarantine survives restore");

    // re-admission: a fresh warm-up under (possibly new) overrides
    engine.set_admit_options("q-err", AdmitOptions::default()).unwrap();
    assert_eq!(engine.stats().unwrap().quarantined, 1, "re-admitted key left quarantine");
    for t in 0..warm + 1 {
        let p = engine.ingest_one("q-err", t0 + 2 + t, val(0, t0 + 2 + t)).unwrap();
        if t == warm {
            assert!(
                matches!(p.output, PointOutput::Scored { .. }),
                "re-admitted series went live again: {:?}",
                p.output
            );
        }
    }
}

/// NaN/±inf storms — through warm-up, live scoring, and every detection
/// backend, with a forecast head attached — never panic, never stick a
/// series in quarantine (non-finite *inputs* are imputed; quarantine is
/// for corrupted *state*), and the engine still snapshot-roundtrips
/// bit-identically afterwards.
#[test]
fn non_finite_storms_never_panic_across_backends() {
    let opts: [AdmitOptions; 4] = [
        AdmitOptions::default(), // fused scorer
        AdmitOptions {
            backend: Some(BackendSelect::TrendCusum(Default::default())),
            ..Default::default()
        },
        AdmitOptions {
            backend: Some(BackendSelect::Ensemble(Default::default())),
            ..Default::default()
        },
        AdmitOptions {
            backend: Some(BackendSelect::Ensemble(Default::default())),
            forecast: Some(ForecastOptions::on()),
            ..Default::default()
        },
    ];
    let mut engine = FleetEngine::new(config(2)).unwrap();
    for (s, o) in opts.iter().enumerate() {
        engine.set_admit_options(format!("series-{s}"), *o).unwrap();
    }

    let storm = |s: usize, t: u64| -> f64 {
        match t % 5 {
            0 => f64::NAN,
            3 => {
                if s.is_multiple_of(2) {
                    f64::INFINITY
                } else {
                    f64::NEG_INFINITY
                }
            }
            _ => val(s, t),
        }
    };
    // t = 0 leads with NaN on every series: the drop-a-leading-NaN path
    for t in 0..200u64 {
        let recs = (0..4).map(|s| Record::new(format!("series-{s}"), t, storm(s, t))).collect();
        for p in engine.ingest(recs).unwrap() {
            assert!(
                !matches!(p.output, PointOutput::Quarantined | PointOutput::Rejected),
                "t={t} {}: imputed storms must not quarantine: {:?}",
                p.key,
                p.output
            );
            if let PointOutput::Scored { score, .. } = p.output {
                assert!(score.is_finite(), "t={t} {}: non-finite score", p.key);
            }
        }
    }
    assert_eq!(engine.stats().unwrap().live, 4, "every backend survived the storm");

    // the stormed engine still roundtrips bit-identically
    let bytes = engine.snapshot_bytes().unwrap();
    let mut restored = FleetEngine::restore_bytes(&bytes).unwrap();
    for t in 200..230u64 {
        let recs: Vec<Record> =
            (0..4).map(|s| Record::new(format!("series-{s}"), t, storm(s, t))).collect();
        let a = engine.ingest(recs.clone()).unwrap();
        let b = restored.ingest(recs).unwrap();
        assert_bit_identical(&a, &b, "post-storm roundtrip");
    }
    assert_eq!(
        engine.snapshot_bytes().unwrap(),
        restored.snapshot_bytes().unwrap(),
        "storm-fed snapshots stay byte-identical"
    );
}

/// Orphaned snapshot temp files — a crash between temp write and rename —
/// are cleaned up by both `open` and `create`, and never shadow a real
/// image.
#[test]
fn stale_tmp_snapshot_files_are_cleaned_on_open() {
    let n_series = 2;
    let dir = test_dir("tmp-cleanup");
    let mut durable = FleetEngine::create(config(2), DurabilityConfig::new(&dir)).unwrap();
    for t in 0..15u64 {
        durable.ingest(batch(n_series, t)).unwrap();
    }
    durable.close().unwrap();

    // a crash mid-write leaves temp files behind; plant a few
    for junk in [".snap-00000000000000000099.tmp", ".snap-00000000000000000007d.tmp"] {
        fs::write(dir.join(junk), b"half-written garbage").unwrap();
    }
    let recovered = FleetEngine::open(DurabilityConfig::new(&dir)).unwrap();
    assert_eq!(recovered.batches(), 15, "junk did not shadow the real image");
    let leftovers: Vec<String> = fs::read_dir(&dir)
        .unwrap()
        .filter_map(|e| e.ok())
        .map(|e| e.file_name().to_string_lossy().into_owned())
        .filter(|n| n.ends_with(".tmp"))
        .collect();
    assert!(leftovers.is_empty(), "stale temp files survived open: {leftovers:?}");
    drop(recovered);

    // create() cleans a pre-existing (otherwise empty) directory too
    let dir2 = test_dir("tmp-cleanup-create");
    fs::create_dir_all(&dir2).unwrap();
    fs::write(dir2.join(".snap-00000000000000000001.tmp"), b"junk").unwrap();
    let fresh = FleetEngine::create(config(2), DurabilityConfig::new(&dir2)).unwrap();
    drop(fresh);
    let leftovers = fs::read_dir(&dir2)
        .unwrap()
        .filter_map(|e| e.ok())
        .filter(|e| e.file_name().to_string_lossy().ends_with(".tmp"))
        .count();
    assert_eq!(leftovers, 0, "stale temp files survived create");
    for d in [&dir, &dir2] {
        let _ = fs::remove_dir_all(d);
    }
}
