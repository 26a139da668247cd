//! Durable fleet persistence: crash recovery from snapshot + WAL replay
//! must reproduce an uninterrupted engine **bit-identically** — including
//! a torn WAL tail, TTL evictions, corrupt snapshots, and version
//! mismatches — and bounded shard queues must apply the configured
//! backpressure policy.

use oneshotstl_suite::fleet::{
    DurabilityConfig, FleetConfig, FleetEngine, FleetError, PeriodPolicy, PointOutput,
    QueuePolicy, Record, ScoredPoint, SeriesKey,
};
use oneshotstl_suite::tskit::synth::{gaussian_noise, SeasonTemplate};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::fs;
use std::path::PathBuf;

const STREAM_LEN: usize = 420;

/// Deterministic multi-series workload (same construction as
/// `fleet_snapshot.rs`): seasonal template + noise per series.
fn build_streams(n_series: usize) -> Vec<Vec<f64>> {
    (0..n_series)
        .map(|s| {
            let mut rng = StdRng::seed_from_u64(2000 + s as u64);
            let template = SeasonTemplate::random(24, 3, &mut rng);
            let mut y = template.render(STREAM_LEN, 2.0 + (s % 3) as f64);
            for (v, e) in y.iter_mut().zip(gaussian_noise(STREAM_LEN, 0.05, &mut rng)) {
                *v += e;
            }
            y
        })
        .collect()
}

fn batch(streams: &[Vec<f64>], t: u64) -> Vec<Record> {
    streams
        .iter()
        .enumerate()
        .map(|(s, y)| Record::new(format!("series-{s}"), t, y[t as usize]))
        .collect()
}

fn config() -> FleetConfig {
    FleetConfig { shards: 3, period: PeriodPolicy::Fixed(24), ..Default::default() }
}

/// Fresh per-test scratch directory under the system temp dir.
fn test_dir(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("fleet-persist-{}-{name}", std::process::id()));
    let _ = fs::remove_dir_all(&dir);
    dir
}

fn assert_outputs_bit_identical(a: &[ScoredPoint], b: &[ScoredPoint], ctx: &str) {
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

/// The headline acceptance test: ingest N batches with durability on,
/// "kill" the process (drop, no clean shutdown), tear the tail of one WAL
/// segment, recover, and continue — outputs must be bit-identical to an
/// uninterrupted engine fed the same stream.
#[test]
fn crash_recovery_with_torn_wal_tail_is_bit_identical() {
    let n_series = 20;
    let crash_at = 100u64; // batches ingested before the "crash"
    let total = 220u64;
    let streams = build_streams(n_series);
    let dir = test_dir("torn-tail");

    // reference: uninterrupted, no durability
    let mut reference = FleetEngine::new(config()).unwrap();
    let mut ref_outputs = Vec::new();
    for t in 0..total {
        ref_outputs.push(reference.ingest(batch(&streams, t)).unwrap());
    }

    // durable run: snapshots every 40 batches, WAL fsync every batch
    let dcfg = DurabilityConfig { snapshot_every: 40, ..DurabilityConfig::new(&dir) };
    let mut durable = FleetEngine::create(config(), dcfg.clone()).unwrap();
    for t in 0..crash_at {
        let out = durable.ingest(batch(&streams, t)).unwrap();
        assert_outputs_bit_identical(&out, &ref_outputs[t as usize], "pre-crash");
    }
    drop(durable); // crash: no checkpoint, no clean shutdown

    // tear the newest generation's largest WAL segment mid-record: its
    // final frame belongs to the last batch, which recovery must discard
    let torn = fs::read_dir(&dir)
        .unwrap()
        .filter_map(|e| e.ok().map(|e| e.path()))
        .filter(|p| p.extension().is_some_and(|x| x == "flog"))
        // > 100 bytes: past the 18-byte header, i.e. the segment has
        // records — and its final record is the final batch
        .filter(|p| fs::metadata(p).unwrap().len() > 100)
        .max()
        .expect("a non-empty WAL segment exists");
    let bytes = fs::read(&torn).unwrap();
    assert!(bytes.len() > 30, "segment has frames to tear");
    fs::write(&torn, &bytes[..bytes.len() - 3]).unwrap();

    // recover: latest snapshot + WAL replay, minus the torn final batch
    let mut recovered = FleetEngine::open(dcfg.clone()).unwrap();
    let resume = recovered.batches();
    assert_eq!(resume, crash_at - 1, "exactly the torn final batch is lost");

    // re-feed from the recovery point; every output matches the reference
    for t in resume..total {
        let out = recovered.ingest(batch(&streams, t)).unwrap();
        assert_outputs_bit_identical(&out, &ref_outputs[t as usize], "post-recovery");
    }
    let stats = recovered.stats().unwrap();
    let ref_stats = reference.stats().unwrap();
    assert_eq!(stats.live, n_series);
    assert_eq!(stats.points, ref_stats.points);
    assert_eq!(stats.anomalies, ref_stats.anomalies);

    // clean shutdown → reopen needs zero WAL replay and keeps scoring
    recovered.close().unwrap();
    let mut reopened = FleetEngine::open(dcfg).unwrap();
    assert_eq!(reopened.batches(), total);
    let out = reopened.ingest(batch(&streams, total)).unwrap();
    let expected = reference.ingest(batch(&streams, total)).unwrap();
    assert_outputs_bit_identical(&out, &expected, "after reopen");
    let _ = fs::remove_dir_all(&dir);
}

/// TTL evictions happen inside the deterministic per-batch sweep, so WAL
/// replay must reproduce them: a recovered engine has the same evicted
/// count and the same registry as the uninterrupted one.
#[test]
fn recovery_replays_ttl_evictions() {
    let streams = build_streams(2);
    let cfg = FleetConfig {
        shards: 2,
        period: PeriodPolicy::Fixed(8),
        ttl: Some(50),
        ..Default::default()
    };
    let dir = test_dir("ttl-replay");
    // snapshot_every beyond the run: recovery is pure WAL replay
    let dcfg = DurabilityConfig { snapshot_every: 10_000, ..DurabilityConfig::new(&dir) };

    let mut reference = FleetEngine::new(cfg.clone()).unwrap();
    let mut durable = FleetEngine::create(cfg, dcfg.clone()).unwrap();
    // both series live, then series-1 goes silent long enough for the
    // amortized sweep (every 64 batches) to evict it
    for t in 0..40u64 {
        let b = batch(&streams, t);
        reference.ingest(b.clone()).unwrap();
        durable.ingest(b).unwrap();
    }
    for t in 40..300u64 {
        let b = vec![Record::new("series-0", t, streams[0][t as usize])];
        reference.ingest(b.clone()).unwrap();
        durable.ingest(b).unwrap();
    }
    assert_eq!(reference.stats().unwrap().evicted, 1, "sweep evicted the idle series");
    drop(durable); // crash

    let mut recovered = FleetEngine::open(dcfg).unwrap();
    let stats = recovered.stats().unwrap();
    let ref_stats = reference.stats().unwrap();
    assert_eq!(stats.evicted, ref_stats.evicted, "replay reproduces the eviction");
    assert_eq!(stats.live, ref_stats.live);
    assert_eq!(stats.warming, ref_stats.warming);
    assert_eq!(stats.points, ref_stats.points);
    // the evicted series re-enters through warm-up on both engines alike
    for t in 300..310u64 {
        let b = batch(&streams, t);
        let a = reference.ingest(b.clone()).unwrap();
        let r = recovered.ingest(b).unwrap();
        assert_outputs_bit_identical(&r, &a, "post-eviction");
    }
    let _ = fs::remove_dir_all(&dir);
}

/// An empty WAL (create, crash before any ingest) recovers to the base
/// snapshot and the engine works normally afterwards.
#[test]
fn empty_wal_recovers_to_base_snapshot() {
    let dir = test_dir("empty-wal");
    let dcfg = DurabilityConfig::new(&dir);
    drop(FleetEngine::create(config(), dcfg.clone()).unwrap());
    let mut recovered = FleetEngine::open(dcfg).unwrap();
    assert_eq!(recovered.batches(), 0);
    assert_eq!(recovered.stats().unwrap().live, 0);
    let streams = build_streams(3);
    for t in 0..80u64 {
        recovered.ingest(batch(&streams, t)).unwrap();
    }
    assert_eq!(recovered.stats().unwrap().live, 3);
    let _ = fs::remove_dir_all(&dir);
}

/// A snapshot whose format version this build does not understand (or
/// whose body is corrupt) is skipped: recovery falls back to the previous
/// valid snapshot and replays the full WAL from there.
#[test]
fn snapshot_version_mismatch_falls_back_to_older_snapshot() {
    let streams = build_streams(6);
    let dir = test_dir("version-mismatch");
    let dcfg = DurabilityConfig { snapshot_every: 10_000, ..DurabilityConfig::new(&dir) };
    let mut durable = FleetEngine::create(config(), dcfg.clone()).unwrap();
    for t in 0..90u64 {
        durable.ingest(batch(&streams, t)).unwrap();
    }
    durable.checkpoint().unwrap(); // durable snapshot at seq 90
    for t in 90..130u64 {
        durable.ingest(batch(&streams, t)).unwrap();
    }
    drop(durable); // crash with WAL tail 91..130

    // sabotage the newest snapshot: bump the codec version *and* fix up
    // the file CRC, so the corruption is caught by the version check
    let newest = fs::read_dir(&dir)
        .unwrap()
        .filter_map(|e| e.ok().map(|e| e.path()))
        .filter(|p| p.extension().is_some_and(|x| x == "fsnap"))
        .max()
        .unwrap();
    let mut bytes = fs::read(&newest).unwrap();
    // layout: u64 len | u32 crc | codec bytes (magic[8] then u16 version)
    bytes[12 + 8] = 0xEE;
    let crc = oneshotstl_suite::fleet::frame::crc32(&bytes[12..]);
    bytes[8..12].copy_from_slice(&crc.to_le_bytes());
    fs::write(&newest, &bytes).unwrap();

    let recovered = FleetEngine::open(dcfg).unwrap();
    // fell back to the base snapshot (seq 0) and replayed the whole WAL
    assert_eq!(recovered.batches(), 130);
    assert_eq!(recovered.stats().unwrap().live, 6);
    let _ = fs::remove_dir_all(&dir);
}

/// An explicit eviction right after the snapshot cadence fired mutates
/// state without advancing the batch seq; the checkpoint inside
/// `FleetEngine::evict_idle` must still force a re-snapshot, or the
/// eviction would silently vanish on crash.
#[test]
fn explicit_eviction_at_snapshot_boundary_survives_crash() {
    let streams = build_streams(2);
    let cfg = FleetConfig {
        shards: 2,
        period: PeriodPolicy::Fixed(8),
        ttl: Some(20),
        ..Default::default()
    };
    let dir = test_dir("evict-boundary");
    // snapshot_every = 30: the cadence triggers exactly on the last batch
    let dcfg = DurabilityConfig { snapshot_every: 30, ..DurabilityConfig::new(&dir) };
    let mut durable = FleetEngine::create(cfg, dcfg.clone()).unwrap();
    for t in 0..30u64 {
        durable.ingest(batch(&streams, t)).unwrap();
    }
    // both series idle at now = 1000 → evicted; seq is still 30
    assert_eq!(durable.evict_idle(1000).unwrap(), 2);
    drop(durable); // crash right after the eviction's checkpoint returned

    let recovered = FleetEngine::open(dcfg).unwrap();
    let stats = recovered.stats().unwrap();
    assert_eq!(stats.evicted, 2, "explicit eviction must survive the crash");
    assert_eq!(stats.live + stats.warming, 0);
    let _ = fs::remove_dir_all(&dir);
}

/// The TTL sweep that `submit` runs every 64 batches never checkpoints
/// (WAL replay reproduces it), while a durable engine's public
/// `evict_idle` checkpoints when it evicted something. A plain engine has
/// no checkpoint to take.
#[test]
fn ttl_sweep_never_checkpoints_but_explicit_eviction_does() {
    let streams = build_streams(2);
    let cfg = FleetConfig {
        shards: 2,
        period: PeriodPolicy::Fixed(8),
        ttl: Some(20),
        ..Default::default()
    };
    let dir = test_dir("sweep-no-checkpoint");
    let dcfg = DurabilityConfig { snapshot_every: 1000, ..DurabilityConfig::new(&dir) };
    let mut durable = FleetEngine::create(cfg.clone(), dcfg).unwrap();
    // series-1 goes quiet after t = 9, so the sweep at batch 64 evicts it
    for t in 0..64u64 {
        let mut b = batch(&streams, t);
        b.truncate(if t < 10 { 2 } else { 1 });
        durable.ingest(b).unwrap();
    }
    assert_eq!(durable.stats().unwrap().evicted, 1, "the sweep evicted the idle series");
    assert_eq!(durable.durable_snapshot(), 0, "the sweep took no checkpoint");
    assert_eq!(durable.evict_idle(1000).unwrap(), 1);
    assert_eq!(durable.durable_snapshot(), 64, "an explicit eviction checkpoints");
    durable.close().unwrap();

    let mut plain = FleetEngine::new(cfg).unwrap();
    assert!(matches!(plain.checkpoint(), Err(FleetError::Config(_))));
    plain.close().unwrap();
    let _ = fs::remove_dir_all(&dir);
}

/// Pipelined submission drains to the same outputs as synchronous ingest,
/// and bounded queues under `Block` never reject.
#[test]
fn pipelined_submit_matches_synchronous_ingest() {
    let streams = build_streams(10);
    let bounded =
        FleetConfig { queue_capacity: Some(4), queue_policy: QueuePolicy::Block, ..config() };
    let mut sync_engine = FleetEngine::new(config()).unwrap();
    let mut pipe_engine = FleetEngine::new(bounded).unwrap();
    let mut sync_out = Vec::new();
    for t in 0..120u64 {
        sync_out.push(sync_engine.ingest(batch(&streams, t)).unwrap());
        pipe_engine.submit(batch(&streams, t)).unwrap();
    }
    assert!(pipe_engine.in_flight() > 0);
    let mut pipe_out = Vec::new();
    while let Some(out) = pipe_engine.next_batch().unwrap() {
        pipe_out.push(out);
    }
    assert_eq!(pipe_out.len(), sync_out.len());
    for (t, (a, b)) in pipe_out.iter().zip(&sync_out).enumerate() {
        assert_outputs_bit_identical(a, b, &format!("pipelined t={t}"));
    }
}

/// `Reject` backpressure: a full bounded shard queue fails the submission
/// with a typed error before anything is applied, and the engine resumes
/// cleanly once the queue drains.
#[test]
fn reject_policy_sheds_load_with_typed_error() {
    let streams = build_streams(4);
    let cfg = FleetConfig {
        shards: 1,
        queue_capacity: Some(2),
        queue_policy: QueuePolicy::Reject,
        period: PeriodPolicy::Fixed(24),
        ..Default::default()
    };
    let mut engine = FleetEngine::new(cfg).unwrap();
    // park the single worker so nothing drains
    let guard = engine.stall_shard(0).unwrap();
    while engine.queue_depth(0) > 0 {
        std::thread::yield_now(); // wait for the worker to dequeue the stall
    }
    engine.submit(batch(&streams, 0)).unwrap();
    engine.submit(batch(&streams, 1)).unwrap();
    let batches_before = engine.batches();
    match engine.submit(batch(&streams, 2)) {
        Err(FleetError::Backpressure { shard: 0 }) => {}
        other => panic!("expected Backpressure, got {other:?}"),
    }
    assert_eq!(engine.batches(), batches_before, "rejected batch leaves no trace");
    // mixing synchronous ingest with in-flight batches is a typed error too
    assert!(matches!(engine.ingest(batch(&streams, 2)), Err(FleetError::InFlight)));
    drop(guard); // release the worker
    assert_eq!(engine.next_batch().unwrap().unwrap().len(), 4);
    assert_eq!(engine.next_batch().unwrap().unwrap().len(), 4);
    assert!(engine.next_batch().unwrap().is_none());
    // the rejected batch is retryable verbatim
    let out = engine.ingest(batch(&streams, 2)).unwrap();
    assert_eq!(out.len(), 4);
}

/// A durably acked batch costs exactly **one** WAL fsync no matter how
/// many shards it touches (the engine thread logs the whole batch as one
/// record), and `fsync_every = k` costs one fsync per k batches.
#[test]
fn group_commit_fsyncs_once_per_acked_batch() {
    let n_series = 16; // spread over all 4 shards
    let streams = build_streams(n_series);
    let cfg = FleetConfig { shards: 4, period: PeriodPolicy::Fixed(24), ..Default::default() };
    let dir = test_dir("group-commit");
    let dcfg = DurabilityConfig {
        snapshot_every: 10_000, // no cadence rotation during the measurement
        ..DurabilityConfig::new(&dir)
    };
    let mut fleet = FleetEngine::create(cfg.clone(), dcfg).unwrap();
    // sanity: with 16 keys, every batch routes to all 4 shards
    let shards_hit: std::collections::HashSet<usize> =
        (0..n_series).map(|s| SeriesKey::new(format!("series-{s}")).shard_of(4)).collect();
    assert_eq!(shards_hit.len(), 4, "workload must fan out to every shard");
    let before = fleet.wal_fsync_count();
    let batches = 20u64;
    for t in 0..batches {
        fleet.ingest(batch(&streams, t)).unwrap();
    }
    let per_batch = fleet.wal_fsync_count() - before;
    assert_eq!(
        per_batch, batches,
        "fsync_every=1 must cost exactly 1 fsync per batch (not per shard)"
    );
    drop(fleet);
    let _ = fs::remove_dir_all(&dir);

    // fsync_every = 4: one flush per 4 batches
    let dir = test_dir("group-commit-k");
    let dcfg = DurabilityConfig {
        snapshot_every: 10_000,
        fsync_every: 4,
        ..DurabilityConfig::new(&dir)
    };
    let mut fleet = FleetEngine::create(cfg, dcfg).unwrap();
    let before = fleet.wal_fsync_count();
    for t in 0..batches {
        fleet.ingest(batch(&streams, t)).unwrap();
    }
    let flushes = fleet.wal_fsync_count() - before;
    assert_eq!(flushes, batches / 4, "fsync_every=4 must flush once per 4 batches");
    drop(fleet);
    let _ = fs::remove_dir_all(&dir);
}

/// Upgrading a directory written by WAL format v1 (one frame per shard):
/// a header-only v1 segment — what a clean close leaves — is deleted and
/// the fleet resumes bit-identically, while a v1 segment holding records
/// fails recovery naming the file instead of silently dropping
/// acknowledged batches.
#[test]
fn v1_wal_segments_upgrade_when_empty_and_refuse_when_holding_records() {
    let streams = build_streams(4);
    let dir = test_dir("v1-upgrade");
    let dcfg = DurabilityConfig::new(&dir);
    let mut reference = FleetEngine::new(config()).unwrap();
    let mut durable = FleetEngine::create(config(), dcfg.clone()).unwrap();
    for t in 0..30u64 {
        reference.ingest(batch(&streams, t)).unwrap();
        durable.ingest(batch(&streams, t)).unwrap();
    }
    durable.close().unwrap();

    // a v1 header (magic · u16 version · u32 shard · u64 start_seq) at
    // `start`, in place of the current-format segments
    let write_v1 = |start: u64, record: &[u8]| {
        for entry in fs::read_dir(&dir).unwrap() {
            let path = entry.unwrap().path();
            if path.extension().is_some_and(|x| x == "flog") {
                fs::remove_file(path).unwrap();
            }
        }
        let mut bytes = b"OSTLWLOG".to_vec();
        bytes.extend_from_slice(&1u16.to_le_bytes());
        bytes.extend_from_slice(&0u32.to_le_bytes());
        bytes.extend_from_slice(&start.to_le_bytes());
        assert_eq!(bytes.len(), 22);
        bytes.extend_from_slice(record);
        let path = dir.join(format!("wal-{start:020}-0000.flog"));
        fs::write(&path, &bytes).unwrap();
        path
    };

    let v1 = write_v1(30, &[]);
    let mut reopened = FleetEngine::open(dcfg.clone()).unwrap();
    assert_eq!(reopened.batches(), 30);
    assert!(!v1.exists(), "a header-only v1 segment is deleted on open");
    for t in 30..35u64 {
        let out = reopened.ingest(batch(&streams, t)).unwrap();
        let expected = reference.ingest(batch(&streams, t)).unwrap();
        assert_outputs_bit_identical(&out, &expected, "after the upgrade");
    }
    reopened.close().unwrap();

    // one v1 record past the header: u32 len · u32 crc · payload (u64 seq
    // · u32 batch size · u32 count · u32 idx · u64 t · f64 value · string key)
    let mut payload = Vec::new();
    payload.extend_from_slice(&36u64.to_le_bytes());
    payload.extend_from_slice(&1u32.to_le_bytes());
    payload.extend_from_slice(&1u32.to_le_bytes());
    payload.extend_from_slice(&0u32.to_le_bytes());
    payload.extend_from_slice(&35u64.to_le_bytes());
    payload.extend_from_slice(&1.5f64.to_bits().to_le_bytes());
    payload.extend_from_slice(&8u32.to_le_bytes());
    payload.extend_from_slice(b"series-0");
    let mut record = (payload.len() as u32).to_le_bytes().to_vec();
    record.extend_from_slice(&oneshotstl_suite::fleet::frame::crc32(&payload).to_le_bytes());
    record.extend_from_slice(&payload);
    let v1 = write_v1(35, &record);
    match FleetEngine::open(dcfg).err() {
        Some(FleetError::Recovery(msg)) => {
            assert!(msg.contains(v1.file_name().unwrap().to_str().unwrap()), "{msg}");
        }
        other => panic!("a v1 segment with records must fail recovery, got {other:?}"),
    }
    assert!(v1.exists(), "the refused segment is left for the operator");
    let _ = fs::remove_dir_all(&dir);
}

/// Upgrading a directory an earlier build wrote with incremental delta
/// files: a delta at or below the base `open` picks is covered by it and
/// deleted, and the fleet resumes bit-identically; a delta above the base
/// may hold batches whose WAL segments were already compacted away, so
/// `open` fails naming the file instead of silently dropping them.
#[test]
fn delta_files_are_deleted_when_covered_and_refused_when_newer_than_the_base() {
    let streams = build_streams(4);
    let dir = test_dir("delta-upgrade");
    let dcfg = DurabilityConfig::new(&dir);
    let mut reference = FleetEngine::new(config()).unwrap();
    let mut durable = FleetEngine::create(config(), dcfg.clone()).unwrap();
    for t in 0..30u64 {
        reference.ingest(batch(&streams, t)).unwrap();
        durable.ingest(batch(&streams, t)).unwrap();
    }
    durable.close().unwrap(); // full base at seq 30

    // only the name is read: `open` never decodes a delta
    let plant = |seq: u64| {
        let path = dir.join(format!("delta-{seq:020}.fdelta"));
        fs::write(&path, b"an incremental delta from an earlier build").unwrap();
        path
    };

    let covered = [plant(20), plant(30)];
    let mut reopened = FleetEngine::open(dcfg.clone()).unwrap();
    assert_eq!(reopened.batches(), 30);
    for path in &covered {
        assert!(!path.exists(), "{} is covered by the base and deleted", path.display());
    }
    for t in 30..35u64 {
        let out = reopened.ingest(batch(&streams, t)).unwrap();
        let expected = reference.ingest(batch(&streams, t)).unwrap();
        assert_outputs_bit_identical(&out, &expected, "after deleting covered deltas");
    }
    reopened.close().unwrap(); // full base at seq 35

    let newer = plant(40);
    match FleetEngine::open(dcfg).err() {
        Some(FleetError::Recovery(msg)) => {
            assert!(msg.contains(newer.file_name().unwrap().to_str().unwrap()), "{msg}");
        }
        other => panic!("a delta newer than the base must fail recovery, got {other:?}"),
    }
    assert!(newer.exists(), "the refused delta is left for the operator");
    let _ = fs::remove_dir_all(&dir);
}

/// Per-series `AdmitOptions` are not WAL-logged; a durable engine's
/// registration path checkpoints instead, so a crash after registration —
/// before *or* after the series admits — recovers bit-identically: the
/// snapshot carries the pending overrides (codec v4) and WAL replay
/// re-runs the admission with the same tuning.
#[test]
fn admit_options_survive_crash_recovery_bit_identically() {
    use oneshotstl_suite::core::{Fusion, ScoreConfig, ShiftPrune};
    use oneshotstl_suite::fleet::{AdmitOptions, BackendSelect, ForecastOptions};

    let total = 140u64;
    let crash_at = 50u64; // past the overridden series' admission at 36
    let dir = test_dir("admit-options");
    let value = |key: &str, t: u64| -> f64 {
        let period = if key == "vip" { 12.0 } else { 24.0 };
        (2.0 * std::f64::consts::PI * t as f64 / period).sin() + 0.001 * t as f64
    };
    let tick = |t: u64| -> Vec<Record> {
        vec![Record::new("std", t, value("std", t)), Record::new("vip", t, value("vip", t))]
    };
    let opts = AdmitOptions {
        lambda: Some(0.5),
        nsigma: Some(3.5),
        period: Some(12),
        shift_search: Some(ShiftPrune::Off),
        // a per-series scoring override rides the same checkpoint path:
        // recovery must bring the CUSUM config back in force too
        score: Some(ScoreConfig {
            cusum_k: 0.4,
            cusum_h: 5.0,
            hold_decay: 0.95,
            fusion: Fusion::Cusum,
        }),
        // and so does a forecast-head override
        forecast: Some(ForecastOptions { damping: 0.9, ..ForecastOptions::on() }),
        // and a detection-backend override (codec v7): the ensemble's
        // trend CUSUM must come back bit-identically through checkpoint +
        // WAL replay
        backend: Some(BackendSelect::Ensemble(ScoreConfig::default())),
    };

    // reference: uninterrupted, no durability
    let mut reference = FleetEngine::new(config()).unwrap();
    reference.set_admit_options("vip", opts).unwrap();
    let mut ref_outputs = Vec::new();
    for t in 0..total {
        ref_outputs.push(reference.ingest(tick(t)).unwrap());
    }

    // durable run: register the overrides (checkpoints), ingest past the
    // overridden admission, crash without a clean shutdown
    let dcfg = DurabilityConfig { snapshot_every: 1_000, ..DurabilityConfig::new(&dir) };
    let mut durable = FleetEngine::create(config(), dcfg.clone()).unwrap();
    durable.set_admit_options("vip", opts).unwrap();
    for t in 0..crash_at {
        let out = durable.ingest(tick(t)).unwrap();
        assert_outputs_bit_identical(&out, &ref_outputs[t as usize], "pre-crash");
    }
    drop(durable); // crash

    // recovery folds the post-registration checkpoint and replays the WAL
    // through the same admission path — the overridden period, λ, NSigma
    // threshold and shift-search policy are all back in force
    let mut recovered = FleetEngine::open(dcfg).unwrap();
    assert_eq!(recovered.batches(), crash_at, "nothing durable was lost");
    for t in crash_at..total {
        let out = recovered.ingest(tick(t)).unwrap();
        assert_outputs_bit_identical(&out, &ref_outputs[t as usize], "post-recovery");
    }
    assert_eq!(recovered.stats().unwrap().live, 2);
    let _ = fs::remove_dir_all(&dir);
}

/// Forecast heads ride through crash recovery: a fleet with forecasting
/// enabled crashes mid-stream; recovery folds the last snapshot and
/// replays the WAL tail through the same admission path, so the recovered
/// engine's verdicts *and* forecasts continue bit-identical to an
/// uninterrupted reference.
#[test]
fn forecast_state_survives_crash_recovery_bit_identically() {
    use oneshotstl_suite::fleet::ForecastOptions;

    let n_series = 8;
    let total = 160u64;
    let crash_at = 110u64; // past init_len(24) = 72: every series is live
    let dir = test_dir("forecast");
    let streams = build_streams(n_series);
    let cfg = || FleetConfig {
        forecast: ForecastOptions { enabled: true, damping: 0.9 },
        ..config()
    };
    let keys: Vec<SeriesKey> =
        (0..n_series).map(|s| SeriesKey::new(format!("series-{s}"))).collect();

    // reference: uninterrupted, no durability — advanced in lockstep with
    // the durable run so forecasts can be compared at matching clocks
    let mut reference = FleetEngine::new(cfg()).unwrap();

    // durable run: ingest past admission, crash without a clean shutdown
    // (snapshot_every far out, so recovery must replay a long WAL tail)
    let dcfg = DurabilityConfig { snapshot_every: 1_000, ..DurabilityConfig::new(&dir) };
    let mut durable = FleetEngine::create(cfg(), dcfg.clone()).unwrap();
    for t in 0..crash_at {
        let expected = reference.ingest(batch(&streams, t)).unwrap();
        let out = durable.ingest(batch(&streams, t)).unwrap();
        assert_outputs_bit_identical(&out, &expected, "pre-crash");
    }
    drop(durable); // crash

    let mut recovered = FleetEngine::open(dcfg).unwrap();
    assert_eq!(recovered.batches(), crash_at, "nothing durable was lost");
    // the heads and the decomposer state they read were rebuilt by
    // replay: forecasts agree bit-for-bit before any post-recovery point
    let fa = reference.forecast(&keys, 48).unwrap();
    let fb = recovered.forecast(&keys, 48).unwrap();
    for (s, (a, b)) in fa.iter().zip(&fb).enumerate() {
        let (a, b) = (a.as_ref().unwrap(), b.as_ref().unwrap());
        for (x, y) in a.iter().zip(b) {
            assert_eq!(x.to_bits(), y.to_bits(), "series-{s}: recovered forecast differs");
        }
    }
    // …and the continuation stays bit-identical on both channels
    for t in crash_at..total {
        let expected = reference.ingest(batch(&streams, t)).unwrap();
        let out = recovered.ingest(batch(&streams, t)).unwrap();
        assert_outputs_bit_identical(&out, &expected, "post-recovery");
        if t % 16 == 0 {
            assert_eq!(
                reference.forecast(&keys, 24).unwrap(),
                recovered.forecast(&keys, 24).unwrap(),
                "forecast streams diverged at t={t}"
            );
        }
    }
    let _ = fs::remove_dir_all(&dir);
}

/// Cold-tier crash recovery: series spilled to the on-disk cold store,
/// rehydrated, crashed, and recovered must score bit-identically to a
/// twin that kept everything hot the whole time. This pins the full
/// tiered lifecycle — spill during the amortized sweep, rehydrate on the
/// next point, cold-store reattachment *before* WAL replay so the replay
/// re-runs the same spill/rehydrate sequence against the same bytes.
#[test]
fn cold_tier_crash_recovery_is_bit_identical() {
    let n_series = 6;
    let crash_at = 230u64;
    let total = 260u64;
    let streams = build_streams(n_series);
    let dir = test_dir("cold-tier");
    let cfg = FleetConfig { spill_after: Some(20), ..config() };

    // phase plan: all series live to t=100, series-3..5 then idle long
    // enough for the sweep (every 64 batches) to spill them, everyone
    // returns at t=200 (rehydration), crash at 230, finish at 260
    let tick = |t: u64| -> Vec<Record> {
        let active = if (100..200).contains(&t) { 3 } else { n_series };
        streams[..active]
            .iter()
            .enumerate()
            .map(|(s, y)| Record::new(format!("series-{s}"), t, y[t as usize]))
            .collect()
    };

    // reference twin: same config (the sweep cadence must match), but no
    // cold store attached — its idle series simply stay hot
    let mut reference = FleetEngine::new(cfg.clone()).unwrap();
    let mut ref_outputs = Vec::new();
    for t in 0..total {
        ref_outputs.push(reference.ingest(tick(t)).unwrap());
    }
    assert_eq!(reference.stats().unwrap().spills, 0, "no cold store on the twin");

    let dcfg = DurabilityConfig { snapshot_every: 60, ..DurabilityConfig::new(&dir) };
    let mut durable = FleetEngine::create(cfg, dcfg.clone()).unwrap();
    for t in 0..crash_at {
        let out = durable.ingest(tick(t)).unwrap();
        assert_outputs_bit_identical(&out, &ref_outputs[t as usize], "pre-crash");
        if t == 199 {
            let s = durable.stats().unwrap();
            assert_eq!(s.cold_resident, 3, "idle series are cold before they return");
            assert_eq!(s.spills, 3);
            assert_eq!(s.live, 3, "spilled series left the hot registry");
        }
    }
    let s = durable.stats().unwrap();
    assert_eq!(s.rehydrations, 3, "returning points pulled the series back");
    assert_eq!(s.cold_resident, 0);
    assert_eq!(s.live, n_series);
    assert_eq!(s.cold_errors, 0);
    drop(durable); // crash: no checkpoint, no clean shutdown

    let cold_files = fs::read_dir(dir.join("cold"))
        .unwrap()
        .filter(|e| e.as_ref().unwrap().path().extension().is_some_and(|x| x == "fcold"))
        .count();
    assert_eq!(cold_files, 3, "one cold file per shard");

    // recovery reattaches the cold tier before WAL replay, so the replay
    // re-spills and re-rehydrates against the same on-disk bytes
    let mut recovered = FleetEngine::open(dcfg).unwrap();
    assert_eq!(recovered.batches(), crash_at, "nothing durable was lost");
    for t in crash_at..total {
        let out = recovered.ingest(tick(t)).unwrap();
        assert_outputs_bit_identical(&out, &ref_outputs[t as usize], "post-recovery");
    }
    let got = recovered.stats().unwrap();
    let want = reference.stats().unwrap();
    assert_eq!(got.live, want.live);
    assert_eq!(got.points, want.points);
    assert_eq!(got.anomalies, want.anomalies);
    assert_eq!(got.cold_resident, 0, "everyone is hot again");
    assert_eq!(got.cold_errors, 0);
    let _ = fs::remove_dir_all(&dir);
}

/// WAL-segment compaction: prune keeps the two newest bases and drops
/// every segment below the older one — and what survives is exactly what
/// that fallback base still needs, pinned by deleting the newest base and
/// recovering through the older one + the kept tail.
#[test]
fn covered_wal_segments_are_compacted_and_fallback_still_recovers() {
    let n_series = 8;
    let streams = build_streams(n_series);
    let dir = test_dir("wal-compact");
    // full bases at 0/20/40/60/80 from the cadence
    let dcfg = DurabilityConfig { snapshot_every: 20, ..DurabilityConfig::new(&dir) };

    let mut reference = FleetEngine::new(config()).unwrap();
    let mut ref_outputs = Vec::new();
    for t in 0..90u64 {
        ref_outputs.push(reference.ingest(batch(&streams, t)).unwrap());
    }

    let mut durable = FleetEngine::create(config(), dcfg.clone()).unwrap();
    for t in 0..90u64 {
        durable.ingest(batch(&streams, t)).unwrap();
    }
    // forced full base at 90: every pending image is durable, prune runs
    durable.checkpoint().unwrap();
    drop(durable);

    // bases 80 and 90 are kept, so segments at 0/20/40/60 are gone;
    // (80,90] survives as the fallback base's tail, and wal-90 is the live
    // segment
    let mut starts: Vec<u64> = fs::read_dir(&dir)
        .unwrap()
        .filter_map(|e| e.ok())
        .filter_map(|e| {
            oneshotstl_suite::fleet::wal::parse_segment_name(e.file_name().to_str()?)
        })
        .collect();
    starts.sort();
    starts.dedup();
    assert_eq!(starts, vec![80, 90], "covered segments compacted, needed tail kept");

    // destroy the newest full base: recovery must fall back to base 80
    // and replay (80, 90] from the kept tail
    let newest = fs::read_dir(&dir)
        .unwrap()
        .filter_map(|e| e.ok().map(|e| e.path()))
        .filter(|p| p.extension().is_some_and(|x| x == "fsnap"))
        .max()
        .unwrap();
    assert!(newest.to_str().unwrap().contains("0090"), "checkpoint base is newest");
    fs::remove_file(&newest).unwrap();

    let mut recovered = FleetEngine::open(dcfg).unwrap();
    assert_eq!(recovered.batches(), 90, "base 80 + kept tail reach the end");
    for t in 90..110u64 {
        let out = recovered.ingest(batch(&streams, t)).unwrap();
        let expected = reference.ingest(batch(&streams, t)).unwrap();
        assert_outputs_bit_identical(&out, &expected, "after fallback recovery");
    }
    let _ = fs::remove_dir_all(&dir);
}

/// A base that fails to load must not count as one of the two bases prune
/// keeps. Bases 80 and 90 with 90 corrupted: `open` falls back to 80, and
/// the next checkpoint at 100 must leave base 80 and its WAL tail on disk,
/// so a corrupt 100 still falls back to 80 and replays to 100.
#[test]
fn a_base_that_fails_to_load_is_never_kept_over_a_valid_one() {
    use oneshotstl_suite::fleet::persist::snapshot_file_name;

    let streams = build_streams(8);
    let dir = test_dir("unloadable-base");
    let dcfg = DurabilityConfig { snapshot_every: 20, ..DurabilityConfig::new(&dir) };
    let corrupt = |seq: u64| {
        let path = dir.join(snapshot_file_name(seq));
        let mut bytes = fs::read(&path).unwrap();
        *bytes.last_mut().unwrap() ^= 0xFF; // the file CRC no longer matches
        fs::write(&path, &bytes).unwrap();
    };

    let mut reference = FleetEngine::new(config()).unwrap();
    for t in 0..100u64 {
        reference.ingest(batch(&streams, t)).unwrap();
    }

    let mut durable = FleetEngine::create(config(), dcfg.clone()).unwrap();
    for t in 0..90u64 {
        durable.ingest(batch(&streams, t)).unwrap();
    }
    durable.checkpoint().unwrap(); // bases 80 and 90
    drop(durable);
    corrupt(90);

    let mut reopened = FleetEngine::open(dcfg.clone()).unwrap();
    assert_eq!(reopened.batches(), 90, "base 80 + its WAL tail");
    for t in 90..100u64 {
        reopened.ingest(batch(&streams, t)).unwrap();
    }
    reopened.checkpoint().unwrap(); // base 100; prune runs
    drop(reopened);
    corrupt(100);

    let mut recovered = FleetEngine::open(dcfg).unwrap();
    assert_eq!(recovered.batches(), 100, "base 80 survived the prune at 100");
    for t in 100..120u64 {
        let out = recovered.ingest(batch(&streams, t)).unwrap();
        let expected = reference.ingest(batch(&streams, t)).unwrap();
        assert_outputs_bit_identical(&out, &expected, "after two unloadable bases");
    }
    let _ = fs::remove_dir_all(&dir);
}

/// The stats-counter crash-recovery contract, mirroring
/// `fleet_snapshot::stats_counters_obey_the_snapshot_contract`. Lifetime
/// counters carry across recovery; the diagnostic counters (shift search,
/// z/CUSUM, forecast, and the backend's trend alarm counts) are
/// not serialized — recovery restores the checkpoint (counters reset),
/// then WAL replay re-runs every batch after it, so the recovered
/// engine's diagnostics count exactly the alarms fired *since the last
/// checkpoint*, bit-identical to the reference's increments over the
/// same span.
#[test]
fn stats_counters_obey_the_crash_recovery_contract() {
    use oneshotstl_suite::fleet::{AdmitOptions, BackendSelect};

    let n_series = 6;
    let mid = 120u64; // explicit checkpoint: the deterministic replay anchor
    let crash_at = 150u64;
    let total = 260u64;
    let mut streams = build_streams(n_series);
    // irregular spikes on both sides of the checkpoint (spacing/sign/size
    // varied, so no two alarms repeat one motif)
    for y in streams.iter_mut() {
        for (at, delta) in
            [(100usize, 3.5), (135, -4.5), (180, 5.0), (205, -6.0), (230, 4.0), (245, 7.0)]
        {
            y[at] += delta;
        }
    }
    // same backend mix as the snapshot-side test: a low-bar ensemble, a
    // default ensemble, and a trend CUSUM
    let opts: [AdmitOptions; 3] = [
        AdmitOptions {
            nsigma: Some(0.9),
            backend: Some(BackendSelect::Ensemble(Default::default())),
            ..Default::default()
        },
        AdmitOptions {
            backend: Some(BackendSelect::Ensemble(Default::default())),
            ..Default::default()
        },
        AdmitOptions {
            backend: Some(BackendSelect::TrendCusum(Default::default())),
            ..Default::default()
        },
    ];

    // uninterrupted reference, counters read at the checkpoint seq
    let mut reference = FleetEngine::new(config()).unwrap();
    for (s, o) in opts.iter().enumerate() {
        reference.set_admit_options(format!("series-{s}"), *o).unwrap();
    }
    let mut ref_outputs = Vec::new();
    let mut ref_mid = None;
    for t in 0..total {
        ref_outputs.push(reference.ingest(batch(&streams, t)).unwrap());
        if t + 1 == mid {
            ref_mid = Some(reference.stats().unwrap());
        }
    }
    let ref_mid = ref_mid.unwrap();
    let ref_end = reference.stats().unwrap();
    assert!(ref_mid.z_alarms > 0, "pre-checkpoint z alarms: {ref_mid:?}");
    assert!(ref_mid.trend_alarms > 0, "pre-checkpoint trend alarms: {ref_mid:?}");

    // durable run: cadence off (snapshot_every huge) so the explicit
    // checkpoint at `mid` is the only replay anchor; then crash
    let dir = test_dir("stats-counters");
    let dcfg = DurabilityConfig { snapshot_every: 1_000_000, ..DurabilityConfig::new(&dir) };
    let mut durable = FleetEngine::create(config(), dcfg.clone()).unwrap();
    for (s, o) in opts.iter().enumerate() {
        durable.set_admit_options(format!("series-{s}"), *o).unwrap();
    }
    for t in 0..crash_at {
        let out = durable.ingest(batch(&streams, t)).unwrap();
        assert_outputs_bit_identical(&out, &ref_outputs[t as usize], "pre-crash");
        if t + 1 == mid {
            durable.checkpoint().unwrap();
        }
    }
    drop(durable); // crash: no clean shutdown

    // recovery replays the WAL from the checkpoint, re-firing the alarms
    // between `mid` and the crash point; continue to the end
    let mut recovered = FleetEngine::open(dcfg).unwrap();
    let resume = recovered.batches();
    assert_eq!(resume, crash_at, "synchronous WAL ingest loses no batch");
    for t in resume..total {
        let out = recovered.ingest(batch(&streams, t)).unwrap();
        assert_outputs_bit_identical(&out, &ref_outputs[t as usize], "post-recovery");
    }
    let got = recovered.stats().unwrap();

    // lifetime counters carried across the crash
    assert_eq!(got.points, ref_end.points);
    assert_eq!(got.anomalies, ref_end.anomalies);
    assert_eq!(got.admitted, ref_end.admitted);
    assert_eq!(got.evicted, ref_end.evicted);

    // diagnostics count from the checkpoint, in lockstep with the
    // reference's post-checkpoint increments
    assert_eq!(got.shift_searches, ref_end.shift_searches - ref_mid.shift_searches);
    assert_eq!(got.shift_trials, ref_end.shift_trials - ref_mid.shift_trials);
    assert_eq!(got.z_alarms, ref_end.z_alarms - ref_mid.z_alarms);
    assert_eq!(got.cusum_alarms, ref_end.cusum_alarms - ref_mid.cusum_alarms);
    assert_eq!(got.trend_alarms, ref_end.trend_alarms - ref_mid.trend_alarms);
    assert!(got.trend_alarms > 0, "no post-checkpoint trend alarms to track: {got:?}");

    // v8 health counters are lifetime counters: carried across recovery
    // (a healthy run leaves them all zero; the nonzero-carry case is
    // pinned by tests/fleet_faults.rs)
    assert_eq!(got.wal_retries, ref_end.wal_retries);
    assert_eq!(got.shard_restarts, ref_end.shard_restarts);
    assert_eq!(got.undurable_batches, ref_end.undurable_batches);
    assert_eq!(got.quarantined, 0, "healthy recovery quarantines nothing");
}
