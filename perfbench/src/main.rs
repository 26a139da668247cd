//! End-to-end and per-layer benchmark of the `oneshotstl` fleet.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload <steady|incident> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Each workload runs in its own process against the public APIs of
//! `oneshotstl` and `fleet`. Inputs are generated from `--seed` only, and
//! `--seconds` sizes the timed phase as a fixed amount of work. Every
//! output record is checked, sampled series are replayed through a
//! standalone detector, and the last line of standard output is one JSON
//! object `{"correct", "attempted", "failed", "metrics"}`: the end-to-end
//! metrics with `--trace 0`, the per-layer metrics with `--trace 1`. Lines
//! before it are human-readable: provenance, samples behind each
//! percentile, and (traced) the per-layer cost ledger. Spans of a traced
//! run go to `.bench_work/trace/`.

mod check;
mod churn;
mod gen;
mod inproc;
mod layers;
mod stats;
mod trace;

use stats::{result_line, Metric};
use std::collections::HashMap;
use std::path::PathBuf;
use std::process::ExitCode;

/// End-to-end metrics, in `BENCHMARK.json` order: `(name, unit)`.
pub const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("throughput_pts_s", "pts/s"),
    ("batch_p50_ms", "ms"),
    ("forecast_p50_us", "us"),
    ("recover_s", "s"),
    ("peak_rss_mib", "MiB"),
    ("event_recall", "ratio"),
    ("false_alarm_pct", "%"),
];

/// Per-layer metrics of the traced run, in `BENCHMARK.json` order.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("oneshot.update_ns", "ns"),
    ("oneshot.update_p99_ns", "ns"),
    ("oneshot.state_bytes", "bytes"),
    ("oneshot.shift_searches", "count"),
    ("oneshot.shift_trials", "count"),
    ("oneshot.trials_per_search", "count"),
    ("jointstl.init_us", "us"),
    ("jointstl.admissions", "count"),
    ("score.update_ns", "ns"),
    ("score.z_alarms", "count"),
    ("score.cusum_alarms", "count"),
    ("forecast.into_ns_per_key", "ns"),
    ("forecast.track_ns", "ns"),
    ("forecast.alarms", "count"),
    ("engine.submit_us", "us"),
    ("engine.wait_us", "us"),
    ("engine.queue_depth_max", "count"),
    ("engine.shard_skew", "ratio"),
    ("codec.encode_ms", "ms"),
    ("codec.decode_ms", "ms"),
    ("codec.restore_ms", "ms"),
    ("codec.bytes_per_series", "bytes"),
    ("net.encode_ns_per_pt", "ns"),
    ("net.decode_ns_per_pt", "ns"),
    ("net.bytes_per_pt", "bytes"),
    ("net.hop_p50_ms", "ms"),
    ("wal.fsyncs_per_batch", "count"),
    ("wal.fsync_us", "us"),
    ("persist.submit_us", "us"),
    ("persist.snapshot_batch_ms", "ms"),
    ("persist.disk_mib", "MiB"),
    ("persist.replay_batches", "count"),
    ("cold.spills", "count"),
    ("cold.rehydrations", "count"),
    ("cold.errors", "count"),
    ("cold.resident", "count"),
    ("cold.file_mib", "MiB"),
    ("cold.rehydrate_batch_ms", "ms"),
    ("gen.ns_per_pt", "ns"),
    ("gen.late_p99_ms", "ms"),
    ("tail.batch_p90_ms", "ms"),
    ("tail.batch_p99_ms", "ms"),
    ("tail.forecast_p90_us", "us"),
    ("tail.forecast_p99_us", "us"),
    ("trace.overhead_pct", "%"),
    ("ledger.explained_pct", "%"),
    ("ledger.unexplained_ms", "ms"),
];

/// Command-line arguments (all required).
pub struct Args {
    /// Which workload.
    pub workload: String,
    /// Input seed.
    pub seed: u64,
    /// Sizes the timed phase (see `inproc::timed_batches`).
    pub seconds: f64,
    /// Per-layer (traced) run instead of the end-to-end one.
    pub trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut flags: HashMap<String, String> = HashMap::new();
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        flags.insert(flag, value);
    }
    let mut take = |f: &str| flags.remove(f).ok_or_else(|| format!("missing {f}"));
    let args = Args {
        workload: take("--workload")?,
        seed: take("--seed")?.parse().map_err(|e| format!("--seed: {e}"))?,
        seconds: take("--seconds")?.parse().map_err(|e| format!("--seconds: {e}"))?,
        trace: match take("--trace")?.as_str() {
            "0" => false,
            "1" => true,
            other => return Err(format!("--trace must be 0 or 1, got {other}")),
        },
    };
    if let Some(extra) = flags.keys().next() {
        return Err(format!("unknown flag {extra}"));
    }
    if !(args.seconds > 0.0 && args.seconds <= 120.0) {
        return Err(format!("--seconds must be in (0, 120], got {}", args.seconds));
    }
    Ok(args)
}

/// What a workload run hands back: the checker's tallies and every metric
/// it measured (a run measures the metrics of its mode).
pub struct Outcome {
    /// Operations attempted.
    pub attempted: u64,
    /// Operations failed.
    pub failed: u64,
    /// Metric values by name.
    pub values: HashMap<&'static str, f64>,
}

/// Scratch directory of this run inside the working directory (the
/// benchmark reads and writes nothing outside it).
pub fn work_dir(args: &Args) -> PathBuf {
    PathBuf::from(".bench_work").join(format!("{}-{}", args.workload, std::process::id()))
}

/// Resident set size of this process in MiB (`VmRSS`).
pub fn rss_mib() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmRSS:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(f64::NAN, |kb| kb / 1024.0)
}

/// Filesystem type of the mount holding `path` (provenance only).
pub fn fs_type(path: &std::path::Path) -> String {
    let abs = std::fs::canonicalize(path).unwrap_or_else(|_| path.to_path_buf());
    let mounts = std::fs::read_to_string("/proc/self/mounts").unwrap_or_default();
    mounts
        .lines()
        .filter_map(|l| {
            let mut f = l.split_whitespace();
            let (_, mnt, ty) = (f.next()?, f.next()?, f.next()?);
            abs.starts_with(mnt).then(|| (mnt.len(), ty.to_string()))
        })
        .max()
        .map_or_else(|| "unknown".into(), |(_, ty)| ty)
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            eprintln!(
                "usage: perfbench --workload <steady|incident> --seed <n> \
                 --seconds <s> --trace <0|1>"
            );
            return ExitCode::from(2);
        }
    };
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    let why = match args.workload.as_str() {
        "steady" => inproc::STEADY_WHY,
        "incident" => inproc::INCIDENT_WHY,
        other => {
            eprintln!("perfbench: unknown workload {other}");
            return ExitCode::from(2);
        }
    };
    println!(
        "# provenance: workload={} seed={} seconds={} trace={} nproc={nproc} \
         work_dir_fs={}",
        args.workload,
        args.seed,
        args.seconds,
        args.trace as u8,
        fs_type(std::path::Path::new(".")),
    );
    println!("# why: {why}");
    let result = inproc::run(&args);
    let _ = std::fs::remove_dir_all(work_dir(&args));
    let out = match result {
        Ok(o) => o,
        Err(e) => {
            eprintln!("perfbench: run failed: {e}");
            return ExitCode::FAILURE;
        }
    };
    let wanted = if args.trace { PER_LAYER } else { END_TO_END };
    let mut correct = out.failed == 0;
    let metrics: Vec<Metric> = wanted
        .iter()
        .map(|&(name, unit)| {
            let value = out.values.get(name).copied().unwrap_or(f64::NAN);
            if !value.is_finite() {
                eprintln!("perfbench: FAILED: metric {name} was not measured ({value})");
                correct = false;
            }
            Metric { name, value: if value.is_finite() { value } else { 0.0 }, unit }
        })
        .collect();
    println!("{}", result_line(correct, out.attempted.max(1), out.failed, &metrics));
    if correct {
        ExitCode::SUCCESS
    } else {
        eprintln!("perfbench: the run's outputs were NOT correct");
        ExitCode::FAILURE
    }
}
