//! Fleet scale: millions of series per node via the cold tier.
//!
//! Protocol: a durable engine ([`FleetEngine::create`] on a temp
//! directory, the only kind with a cold tier) takes series in *waves*.
//! Each wave admits a fresh slice of the keyspace (fixed period 8, so a
//! series is live after 24 points), then the idle sweep runs and every
//! previous wave — idle beyond [`FleetConfig::spill_after`] — spills to
//! the on-disk cold store under `<dir>/cold`. The
//! hot set therefore stays one wave wide while the admitted total climbs
//! to the target, which is how one node holds a million series: resident
//! memory and snapshot size track the *hot* set, the cold tier holds the
//! rest at its on-disk footprint.
//!
//! Per wave the run records admitted/hot/cold counts and resident memory
//! (`VmRSS`); every `measure_every` waves it also snapshots the hot set and
//! times a full restore, and the engine's own cadence snapshot lands on
//! those same waves. The RSS growth per cold series between consecutive
//! snapshot-free waves is the steady cost of one cold series
//! (`cold_bytes_per_series`), free of the snapshot/restore transient. At
//! the end a probe series that spilled in wave 0 is touched
//! again: its point must rehydrate through the normal shard path and
//! score **bit-identically** to a twin engine that kept the series hot
//! the whole time — the cold tier is invisible to detector semantics.
//!
//! Results go to `BENCH_fleet.json` as a `"scale"` section, plus a
//! markdown report under `target/experiments/`. `--smoke` (or `--quick`) shrinks the
//! target to a seconds-long CI gate and writes its JSON under
//! `target/experiments/`; the full run admits 1M series.

use benchkit::{fmt_duration, write_bench_json, Cli, Experiment};
use fleet::{DurabilityConfig, FleetConfig, FleetEngine, PeriodPolicy, Record, SeriesKey};
use std::fmt::Write as _;
use std::time::Instant;

const PERIOD: usize = 8;
const BATCH: usize = 8192;
const SPILL_AFTER: u64 = 16;

struct WaveRow {
    admitted: u64,
    hot: usize,
    cold: usize,
    rss_mib: f64,
    /// `Some((mib, restore_s))` on waves where the hot set was snapshotted
    /// and restored; `None` on unmeasured waves.
    snapshot: Option<(f64, f64)>,
}

/// Deterministic per-(series, t) noise in [-1, 1) (splitmix-style hash),
/// so the probe twin and any restore see the identical stream.
fn noise_unit(series: usize, t: u64) -> f64 {
    let mut s = (series as u64).wrapping_mul(0x9e37_79b9_7f4a_7c15)
        ^ t.wrapping_mul(0x2545_f491_4f6c_dd1d);
    s ^= s >> 30;
    s = s.wrapping_mul(0xbf58_476d_1ce4_e5b9);
    s ^= s >> 27;
    (s >> 11) as f64 / (1u64 << 53) as f64 * 2.0 - 1.0
}

fn series_value(series: usize, t: u64) -> f64 {
    let phase = (series % 17) as f64 * 0.37;
    (2.0 * std::f64::consts::PI * (t as f64 / PERIOD as f64 + phase)).sin()
        + 0.05 * noise_unit(series, t)
}

fn key_of(series: usize) -> SeriesKey {
    SeriesKey::new(format!("fleet/metric-{series}"))
}

/// One full-wave round of ingest at clock `t`, in `BATCH`-record chunks.
fn pump_round(engine: &mut FleetEngine, lo: usize, hi: usize, t: u64) {
    let mut series = lo;
    while series < hi {
        let end = (series + BATCH).min(hi);
        let batch: Vec<Record> =
            (series..end).map(|s| Record::new(key_of(s), t, series_value(s, t))).collect();
        engine.ingest(batch).expect("ingest");
        series = end;
    }
}

/// Resident set size of this process in MiB (Linux `/proc/self/status`).
fn rss_mib() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmRSS:"))
        .and_then(|l| l.split_whitespace().next())
        .and_then(|kb| kb.parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

/// The durable engine's temp directory, deleted when the run ends — after
/// a failed assert too, since the cold files of a full run take GiBs.
struct TempDir(std::path::PathBuf);

impl Drop for TempDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

/// RSS growth per newly cold series over pairs of consecutive waves that
/// took no snapshot. Snapshot waves are left out because the image, the
/// restore and the allocator's retention of both move RSS independently
/// of the cold count; so are the first two waves, over which the heap
/// grows to hold two waves of hot state (107 → 129 → 174 MiB in the 1M
/// run). What remains is the marginal cost of a cold series: its index
/// entry, plus any index-table doubling that lands between two
/// snapshot-free waves.
fn cold_bytes_per_series(rows: &[WaveRow]) -> f64 {
    let (mut mib, mut cold) = (0.0, 0usize);
    let free = |w: &&[WaveRow]| w[0].snapshot.is_none() && w[1].snapshot.is_none();
    for w in rows[2..].windows(2).filter(free) {
        mib += w[1].rss_mib - w[0].rss_mib;
        cold += w[1].cold - w[0].cold;
    }
    assert!(cold > 0, "no pair of snapshot-free waves to price a cold series on");
    mib * (1 << 20) as f64 / cold as f64
}

fn main() {
    let quick = Cli::parse().quick;
    let (wave_series, waves, measure_every) =
        if quick { (6_000usize, 6u64, 3u64) } else { (25_000usize, 40u64, 8u64) };
    let target = wave_series * waves as usize;

    let config = FleetConfig {
        shards: std::thread::available_parallelism().map_or(1, |n| n.get()).min(8),
        period: PeriodPolicy::Fixed(PERIOD),
        spill_after: Some(SPILL_AFTER),
        ..Default::default()
    };
    // a wave must be live (init_len points) and take 4 online points, and
    // then be observed idle past the spill threshold by the *next* wave's
    // sweep
    let wave_rounds = (config.init_len(PERIOD) + 4) as u64;
    assert!(wave_rounds > SPILL_AFTER, "waves must outlast the spill threshold");

    // the engine's cadence snapshot lands on the last batch of every
    // measured wave; the WAL is fsynced every 64 batches, as this run
    // prices memory, not the flush. `dir` is declared before the engine,
    // so it is dropped — and deleted — after it.
    let dir = TempDir(std::env::temp_dir().join(format!("fleet_scale_{}", std::process::id())));
    let _ = std::fs::remove_dir_all(&dir.0);
    let batches_per_wave = wave_rounds * wave_series.div_ceil(BATCH) as u64;
    let dcfg = DurabilityConfig {
        fsync_every: 64,
        snapshot_every: batches_per_wave * measure_every,
        ..DurabilityConfig::new(&dir.0)
    };
    let mut engine = FleetEngine::create(config.clone(), dcfg).expect("durable engine");

    // the probe's twin keeps series 0 hot forever (same config — including
    // the spill threshold, so sweep cadence matches — but a plain engine,
    // which has no cold tier, so the spill branch is a no-op)
    let mut twin = FleetEngine::new(FleetConfig { shards: 1, ..config.clone() }).expect("twin");

    eprintln!(
        "[fleet_scale] admitting {target} series in {waves} waves of {wave_series} \
         ({} shards, spill after {SPILL_AFTER} idle ticks)…",
        engine.shard_count()
    );
    let t_total = Instant::now();
    let mut rows: Vec<WaveRow> = Vec::new();
    let mut t = 0u64;
    for wave in 0..waves {
        let lo = wave as usize * wave_series;
        let hi = lo + wave_series;
        for _ in 0..wave_rounds {
            pump_round(&mut engine, lo, hi, t);
            if wave == 0 {
                twin.ingest_one(key_of(0), t, series_value(0, t)).expect("twin ingest");
            }
            t += 1;
        }
        // the sweep spills every previous wave (idle ≥ wave_rounds > threshold)
        engine.evict_idle(t).expect("sweep");
        let stats = engine.stats().expect("stats");
        assert_eq!(stats.admitted, (wave + 1) * wave_series as u64, "wave fully admitted");
        assert_eq!(stats.cold_errors, 0, "no degraded cold-tier operations");
        let snapshot = if (wave + 1) % measure_every == 0 || wave + 1 == waves {
            let bytes = engine.snapshot_bytes().expect("snapshot");
            let t_restore = Instant::now();
            let restored = FleetEngine::restore_bytes(&bytes).expect("restore");
            let restore_s = t_restore.elapsed().as_secs_f64();
            drop(restored);
            Some((bytes.len() as f64 / (1 << 20) as f64, restore_s))
        } else {
            None
        };
        let row = WaveRow {
            admitted: stats.admitted,
            hot: stats.live,
            cold: stats.cold_resident,
            rss_mib: rss_mib(),
            snapshot,
        };
        eprintln!(
            "[fleet_scale]   wave {:>2}: {:>8} admitted, {:>6} hot, {:>8} cold, rss {:.0} MiB{}",
            wave + 1,
            row.admitted,
            row.hot,
            row.cold,
            row.rss_mib,
            row.snapshot.map_or(String::new(), |(mib, s)| format!(
                ", snapshot {mib:.1} MiB restored in {s:.2}s"
            ))
        );
        rows.push(row);
    }

    // per-series snapshot footprint of the hot set: every solver is its
    // constant-size window from the first point
    let live = engine.stats().expect("stats").live;
    let bytes = engine.snapshot_bytes().expect("snapshot");
    let bytes_exact = bytes.len() as f64 / live as f64;

    // touch the wave-0 probe: it spilled long ago and must rehydrate
    // through the normal shard path, scoring bit-identically to the twin
    let pre = engine.stats().expect("stats");
    assert!(pre.spills >= (waves - 1) * wave_series as u64, "previous waves spilled");
    for i in 0..3u64 {
        let got = engine.ingest_one(key_of(0), t + i, series_value(0, t + i)).expect("probe");
        let want = twin.ingest_one(key_of(0), t + i, series_value(0, t + i)).expect("twin");
        assert_eq!(got.output, want.output, "rehydrated probe diverged at t+{i}");
    }
    let post = engine.stats().expect("stats");
    assert!(post.rehydrations >= 1, "probe rehydrated from the cold tier");
    assert_eq!(post.cold_errors, 0, "no degraded cold-tier operations");

    let cold_bytes = cold_bytes_per_series(&rows);
    let last = rows.last().expect("at least one wave");
    let (snap_mib, restore_s) = last.snapshot.expect("final wave measures the snapshot");
    assert_eq!(last.admitted, target as u64, "full target admitted");
    assert!(restore_s < 1.0, "hot-set restore took {restore_s:.2}s (must be < 1s)");
    eprintln!(
        "[fleet_scale] {} series in {} — final hot {}, cold {}, rss {:.0} MiB, \
         {bytes_exact:.0} B/series exact, {cold_bytes:.0} B per cold series",
        last.admitted,
        fmt_duration(t_total.elapsed()),
        post.live,
        post.cold_resident,
        last.rss_mib,
    );

    // BENCH_fleet.json — hand-rolled (the workspace is dependency-free)
    let mut scale = String::new();
    let _ = writeln!(scale, "{{");
    let _ = writeln!(scale, "    \"series_total\": {target},");
    let _ = writeln!(scale, "    \"waves\": {waves},");
    let _ = writeln!(scale, "    \"wave_series\": {wave_series},");
    let _ = writeln!(scale, "    \"shards\": {},", engine.shard_count());
    let _ = writeln!(scale, "    \"quick\": {quick},");
    let _ = writeln!(scale, "    \"spills\": {},", post.spills);
    let _ = writeln!(scale, "    \"rehydrations\": {},", post.rehydrations);
    let _ = writeln!(scale, "    \"bytes_per_series_exact\": {bytes_exact:.1},");
    let _ = writeln!(scale, "    \"cold_bytes_per_series\": {cold_bytes:.1},");
    let _ = writeln!(
        scale,
        "    \"final\": {{\"hot\": {}, \"cold_resident\": {}, \"rss_mib\": {:.1}, \
         \"snapshot_mib\": {snap_mib:.2}, \"restore_s\": {restore_s:.4}}},",
        post.live, post.cold_resident, last.rss_mib
    );
    let _ = writeln!(scale, "    \"curve\": [");
    for (i, r) in rows.iter().enumerate() {
        let comma = if i + 1 == rows.len() { "" } else { "," };
        let snap = r.snapshot.map_or(String::new(), |(mib, s)| {
            format!(", \"snapshot_mib\": {mib:.2}, \"restore_s\": {s:.4}")
        });
        let _ = writeln!(
            scale,
            "      {{\"admitted\": {}, \"hot\": {}, \"cold_resident\": {}, \
             \"rss_mib\": {:.1}{snap}}}{comma}",
            r.admitted, r.hot, r.cold, r.rss_mib
        );
    }
    let _ = writeln!(scale, "    ]");
    let _ = write!(scale, "  }}");

    let json = format!("{{\n  \"scale\": {scale}\n}}\n");
    let path = write_bench_json("BENCH_fleet.json", &json, quick);
    eprintln!("[fleet_scale] wrote {}", path.display());

    // markdown report
    let mut report = Experiment::new("fleet_scale", "Fleet scale via the cold tier");
    let mut table: Vec<Vec<String>> = Vec::new();
    for r in &rows {
        table.push(vec![
            r.admitted.to_string(),
            r.hot.to_string(),
            r.cold.to_string(),
            format!("{:.0}", r.rss_mib),
            r.snapshot.map_or("—".into(), |(mib, _)| format!("{mib:.1}")),
            r.snapshot.map_or("—".into(), |(_, s)| format!("{s:.2}")),
        ]);
    }
    report.table(
        "Scale curve (per wave)",
        &["admitted", "hot", "cold", "rss (MiB)", "snapshot (MiB)", "restore (s)"],
        &table,
    );
    report.para(&format!(
        "{target} series admitted; hot-set snapshot {snap_mib:.1} MiB restored in \
         {restore_s:.2}s; {bytes_exact:.0} B/series exact; {cold_bytes:.0} B of RSS per \
         cold series; probe rehydration bit-identical to an always-hot twin"
    ));
    report.finish();

    println!("[fleet_scale] OK");
}
