//! Fleet scale: millions of series per node via the cold tier.
//!
//! Protocol: series arrive in *waves*. Each wave admits a fresh slice of
//! the keyspace (fixed period 8, so a series is live after 24 points),
//! then the idle sweep runs and every previous wave — idle beyond
//! [`FleetConfig::spill_after`] — spills to the on-disk cold store. The
//! hot set therefore stays one wave wide while the admitted total climbs
//! to the target, which is how one node holds a million series: resident
//! memory and snapshot size track the *hot* set, the cold tier holds the
//! rest at its on-disk footprint.
//!
//! Per wave the run records admitted/hot/cold counts and resident memory
//! (`VmRSS`); periodically it also snapshots the hot set and times a full
//! restore. At the end a probe series that spilled in wave 0 is touched
//! again: its point must rehydrate through the normal shard path and
//! score **bit-identically** to a twin engine that kept the series hot
//! the whole time — the cold tier is invisible to detector semantics.
//!
//! Results go to `BENCH_fleet.json` as a `"scale"` section, plus a
//! markdown report under `target/experiments/`. `--smoke` (or `--quick`) shrinks the
//! target to a seconds-long CI gate and writes its JSON under
//! `target/experiments/`; the full run admits 1M series.

use benchkit::{fmt_duration, write_bench_json, Cli, Experiment};
use fleet::series::PhaseSnapshot;
use fleet::{FleetConfig, FleetEngine, PeriodPolicy, Record, SeriesKey};
use oneshotstl::online_doolittle::SolverState;
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

fn main() {
    let quick = Cli::parse().quick;
    let (wave_series, waves, measure_every) =
        if quick { (6_000usize, 4u64, 1u64) } else { (25_000usize, 40u64, 8u64) };
    let target = wave_series * waves as usize;

    let config = FleetConfig {
        shards: std::thread::available_parallelism().map_or(1, |n| n.get()).min(8),
        period: PeriodPolicy::Fixed(PERIOD),
        spill_after: Some(SPILL_AFTER),
        ..Default::default()
    };
    // a wave must be live (init_len points) with every IRLS solver past
    // its warm-up (the 4th live update makes a solver steady), and then
    // observed idle past the spill threshold by the *next* wave's sweep
    let wave_rounds = (config.init_len(PERIOD) + 4) as u64;
    assert!(wave_rounds > SPILL_AFTER, "waves must outlast the spill threshold");

    let cold_dir =
        std::env::temp_dir().join(format!("fleet_scale_cold_{}", std::process::id()));
    let mut engine = FleetEngine::new(config.clone()).expect("engine config");
    engine.attach_cold_dir(&cold_dir).expect("cold tier");

    // the probe's twin keeps series 0 hot forever (same config — including
    // the spill threshold, so sweep cadence matches — but no cold store
    // attached, which makes the spill branch a no-op)
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

    // per-series snapshot footprint of the hot set, priced on steady-state
    // series: every hot solver must hold its constant-size window
    let live = engine.stats().expect("stats").live;
    let bytes = engine.snapshot_bytes().expect("snapshot");
    let bytes_exact = bytes.len() as f64 / live as f64;
    let steady = fleet::codec::decode(&bytes)
        .expect("decode the final snapshot")
        .series
        .iter()
        .filter(|s| match &s.phase {
            PhaseSnapshot::Live { decomposer, .. } => {
                decomposer.iters.iter().all(|i| matches!(i.solver, SolverState::Steady { .. }))
            }
            _ => false,
        })
        .count();
    assert_eq!(steady, live, "every hot series' solvers are steady when priced");

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

    let last = rows.last().expect("at least one wave");
    let (snap_mib, restore_s) = last.snapshot.expect("final wave measures the snapshot");
    assert_eq!(last.admitted, target as u64, "full target admitted");
    assert!(restore_s < 1.0, "hot-set restore took {restore_s:.2}s (must be < 1s)");
    eprintln!(
        "[fleet_scale] {} series in {} — final hot {}, cold {}, rss {:.0} MiB, \
         {bytes_exact:.0} B/series exact",
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
         {restore_s:.2}s; {bytes_exact:.0} B/series exact; \
         probe rehydration bit-identical to an always-hot twin"
    ));
    report.finish();

    drop(engine);
    let _ = std::fs::remove_dir_all(&cold_dir);
    println!("[fleet_scale] OK");
}
