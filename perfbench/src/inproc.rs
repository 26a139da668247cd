//! The in-process closed-loop workloads (`steady`, `incident`) and the
//! closed loop itself, which the durability probe shares.

use crate::check::Checker;
use crate::gen::{Expect, Gen, RoundRobin, PERIOD, WARM};
use crate::layers::{self, Ledger, Values, FORECAST_KEYS};
use crate::stats::{median, percentile};
use crate::trace::{Tracer, NONE};
use crate::{rss_mib, Args, Outcome};
use fleet::{
    DurableFleet, FleetConfig, FleetEngine, FleetError, FleetStats, ForecastOptions, Record,
    ScoredPoint, SeriesKey,
};
use std::collections::VecDeque;
use std::time::Instant;

/// Why the workload exists (also in `BENCHMARK.json`).
pub const STEADY_WHY: &str = "12k quiet series on 2 shards, closed loop of 4 x 4096-record \
batches, a forecast every 8th batch: decomposition dominates, so oneshot and engine gains \
show here";
/// Why the workload exists (also in `BENCHMARK.json`).
pub const INCIDENT_WHY: &str = "10k series, ~1% of points in spike/level/phase events, a \
1024-key forecast (h=T) beside every other batch: prices shift search, scoring, forecasting, \
detection quality";

/// Records per batch of the closed loops.
const BATCH: usize = 4096;
/// Batches the closed-loop caller keeps in flight.
pub const DEPTH: usize = 4;
/// Fewest batches a timed phase collects (a p99 with ten samples beyond).
pub const MIN_BATCHES: usize = 1000;

/// Batches of the timed phase for `--seconds`: 200 per second asked for,
/// and at least `MIN_BATCHES`. A fixed count rather than a deadline, so a
/// slow host does the same work (and scores the same points) as a fast
/// one.
fn timed_batches(seconds: f64) -> usize {
    ((200.0 * seconds).round() as usize).max(MIN_BATCHES)
}
/// Full set-ups per run; `setup_s` is their median.
const SETUP_REPS: usize = 3;
/// Batches per tracing block: the traced run alternates traced and
/// untraced blocks and compares their throughput (the tracing overhead).
const TRACE_BLOCK: usize = 32;

/// The pipelined ingest surface the closed loop drives.
pub trait Pipe {
    /// Submits one batch.
    fn submit(&mut self, batch: Vec<Record>) -> Result<(), FleetError>;
    /// Collects the oldest batch in flight.
    fn next_batch(&mut self) -> Result<Option<Vec<ScoredPoint>>, FleetError>;
    /// The engine, for reads.
    fn engine(&self) -> &FleetEngine;
}

impl Pipe for FleetEngine {
    fn submit(&mut self, batch: Vec<Record>) -> Result<(), FleetError> {
        FleetEngine::submit(self, batch)
    }
    fn next_batch(&mut self) -> Result<Option<Vec<ScoredPoint>>, FleetError> {
        FleetEngine::next_batch(self)
    }
    fn engine(&self) -> &FleetEngine {
        self
    }
}

impl Pipe for DurableFleet {
    fn submit(&mut self, batch: Vec<Record>) -> Result<(), FleetError> {
        DurableFleet::submit(self, batch)
    }
    fn next_batch(&mut self) -> Result<Option<Vec<ScoredPoint>>, FleetError> {
        DurableFleet::next_batch(self)
    }
    fn engine(&self) -> &FleetEngine {
        DurableFleet::engine(self)
    }
}

/// What a closed loop measured.
#[derive(Default)]
pub struct LoopStats {
    /// Records collected.
    pub points: u64,
    /// Batches collected.
    pub batches: usize,
    /// From the first submit to the last collection, seconds.
    pub wall_s: f64,
    /// Per batch, submit call to the return of its `next_batch`, ms.
    pub lat_ms: Vec<f64>,
    /// Per batch, when its collection ended (seconds from the first
    /// submit) and the points collected up to it.
    pub done: Vec<(f64, u64)>,
    /// Per batch, the `submit` call alone, µs.
    pub submit_us: Vec<f64>,
    /// Per batch, the `next_batch` call alone, µs.
    pub wait_us: Vec<f64>,
    /// Per batch, the caller's gap from the previous collection to this
    /// submission, ms (how late the generator ran).
    pub gap_ms: Vec<f64>,
    /// Time spent generating records, s.
    pub gen_s: f64,
    /// Forecast call latencies, µs.
    pub forecast_us: Vec<f64>,
    /// Per forecast call, the index of the batch submitted before it.
    pub forecast_batch: Vec<usize>,
    /// Largest sampled resident set, MiB.
    pub rss_max: f64,
    /// Largest sampled shard queue depth (traced runs).
    pub queue_max: usize,
    /// `(points, seconds)` of untraced and traced blocks (traced runs).
    pub blocks: [(u64, f64); 2],
    /// The last few collected batches (traced runs: frame-codec inputs).
    pub replies: Vec<Vec<ScoredPoint>>,
    /// Their requests.
    pub requests: Vec<Vec<Record>>,
}

/// Shape of one closed-loop run.
pub struct Plan {
    /// Records per batch.
    pub batch: usize,
    /// Batches submitted and collected.
    pub batches: usize,
    /// A forecast call runs after every this many submits (0: never).
    pub forecast_every: usize,
}

/// A batch in flight: its expectations, a copy of its records (traced
/// runs keep a few), when it was submitted, and its root span.
type InFlight = (Vec<Expect>, Option<Vec<Record>>, Instant, usize);

/// A record source for the closed loop.
pub trait Source {
    /// The next batch of at most `size` records.
    fn next(&mut self, size: usize) -> (Vec<Record>, Vec<Expect>);
    /// Up to `n` keys of live series to forecast next (rotating).
    fn forecast_keys(&mut self, n: usize) -> Vec<SeriesKey>;
}

/// Closed loop: submits and collects `plan.batches` batches, `DEPTH` in
/// flight, checking every output. With
/// `plan.forecast_every`, a forecast of `FORECAST_KEYS` live keys at horizon
/// T runs after every that many submits, behind the batches in flight.
pub fn closed_loop(
    pipe: &mut impl Pipe,
    src: &mut impl Source,
    checker: &mut Checker,
    key_ok: &dyn Fn(u64, &SeriesKey) -> bool,
    plan: Plan,
    tracer: &mut Tracer,
) -> Result<LoopStats, FleetError> {
    let traced = tracer.enabled();
    let mut st = LoopStats { rss_max: rss_mib(), ..Default::default() };
    let mut inflight: VecDeque<InFlight> = VecDeque::new();
    let start = Instant::now();
    let mut last_collect = start;
    let mut submitted = 0usize;
    let mut block_start = (start, 0u64);
    // the first block, right after set-up, runs untraced and is booked to
    // neither side of the overhead comparison
    tracer.set_enabled(false);
    loop {
        if submitted < plan.batches {
            let tg = Instant::now();
            let (recs, exp) = src.next(plan.batch);
            let keep = traced && submitted.is_multiple_of(TRACE_BLOCK);
            let copy = keep.then(|| recs.clone());
            let ts = Instant::now();
            st.gen_s += (ts - tg).as_secs_f64();
            if submitted > 0 {
                st.gap_ms.push((ts - last_collect).as_secs_f64() * 1e3);
            }
            let root = tracer.record("batch", ts, ts, NONE);
            tracer.record("gen", tg, ts, root);
            pipe.submit(recs)?;
            let te = Instant::now();
            st.submit_us.push((te - ts).as_secs_f64() * 1e6);
            tracer.record("engine.submit", ts, te, root);
            if traced {
                let e = pipe.engine();
                st.queue_max = (0..e.shard_count())
                    .map(|s| e.queue_depth(s))
                    .fold(st.queue_max, usize::max);
            }
            if plan.forecast_every > 0 && submitted.is_multiple_of(plan.forecast_every) {
                let keys = src.forecast_keys(FORECAST_KEYS);
                let tf = Instant::now();
                let got =
                    pipe.engine().forecast(&keys, PERIOD as usize).map_err(|e| e.to_string());
                let tfe = Instant::now();
                st.forecast_us.push((tfe - tf).as_secs_f64() * 1e6);
                st.forecast_batch.push(submitted);
                tracer.record("engine.forecast", tf, tfe, root);
                layers::check_forecast(checker, got);
            }
            inflight.push_back((exp, copy, ts, root));
            submitted += 1;
            if inflight.len() < DEPTH {
                continue;
            }
        } else if inflight.is_empty() {
            break;
        }
        let (exp, copy, ts, root) = inflight.pop_front().expect("a batch is in flight");
        let tw = Instant::now();
        let out =
            pipe.next_batch()?.ok_or(FleetError::Internal("submitted batch in flight"))?;
        let done = Instant::now();
        st.lat_ms.push((done - ts).as_secs_f64() * 1e3);
        st.wait_us.push((done - tw).as_secs_f64() * 1e6);
        tracer.record("engine.next_batch", tw, done, root);
        checker.batch(&exp, &out, key_ok);
        last_collect = Instant::now();
        tracer.record("check", done, last_collect, root);
        tracer.finish(root, last_collect);
        st.points += exp.len() as u64;
        st.batches += 1;
        st.done.push(((last_collect - start).as_secs_f64(), st.points));
        if let Some(req) = copy {
            st.requests.push(req);
            st.replies.push(out);
        }
        if st.batches.is_multiple_of(16) {
            st.rss_max = st.rss_max.max(rss_mib());
        }
        if traced && st.batches.is_multiple_of(TRACE_BLOCK) {
            // block k (from 0) just ended; odd blocks are traced
            let k = st.batches / TRACE_BLOCK - 1;
            if k > 0 {
                let mode = k % 2;
                st.blocks[mode].0 += st.points - block_start.1;
                st.blocks[mode].1 += (last_collect - block_start.0).as_secs_f64();
            }
            block_start = (last_collect, st.points);
            tracer.set_enabled(k.is_multiple_of(2));
        }
    }
    st.wall_s = (last_collect - start).as_secs_f64();
    st.rss_max = st.rss_max.max(rss_mib());
    tracer.set_enabled(traced);
    Ok(st)
}

impl Source for (RoundRobin, Gen) {
    fn next(&mut self, size: usize) -> (Vec<Record>, Vec<Expect>) {
        self.0.batch(&self.1, size, None)
    }
    fn forecast_keys(&mut self, n: usize) -> Vec<SeriesKey> {
        self.0.forecast_keys(n)
    }
}

/// One full set-up: a fresh engine, every series fed its warm-up through
/// the pipelined path until all are live. The outputs are checked when a
/// checker is given.
fn warm_up(
    cfg: &FleetConfig,
    src: &mut (RoundRobin, Gen),
    checker: Option<&mut Checker>,
) -> Result<FleetEngine, FleetError> {
    let mut engine = FleetEngine::new(cfg.clone())?;
    src.0.rewind(0);
    let keys = src.0.keys().to_vec();
    let mut sink = checker;
    let mut inflight = VecDeque::new();
    while src.0.tick() < WARM || !inflight.is_empty() {
        if src.0.tick() < WARM {
            let (recs, exp) = src.0.batch(&src.1, BATCH, Some(WARM));
            engine.submit(recs)?;
            inflight.push_back(exp);
            if inflight.len() < DEPTH {
                continue;
            }
        }
        let exp = inflight.pop_front().expect("a batch is in flight");
        let out =
            engine.next_batch()?.ok_or(FleetError::Internal("submitted batch in flight"))?;
        if let Some(c) = sink.as_deref_mut() {
            c.batch(&exp, &out, |id, k: &SeriesKey| *k == keys[id as usize]);
        }
    }
    let live = engine.stats()?.live;
    if live != keys.len() {
        return Err(FleetError::Recovery(format!(
            "{live} of {} series live after warm-up",
            keys.len()
        )));
    }
    Ok(engine)
}

/// `SETUP_REPS` timed set-ups; returns the last engine and the median.
fn setups(
    cfg: &FleetConfig,
    src: &mut (RoundRobin, Gen),
    checker: &mut Checker,
) -> Result<(FleetEngine, f64), FleetError> {
    let mut times = Vec::new();
    let mut engine = None;
    for rep in 0..SETUP_REPS {
        drop(engine.take());
        let last = rep + 1 == SETUP_REPS;
        let t0 = Instant::now();
        engine = Some(warm_up(cfg, src, last.then_some(&mut *checker))?);
        times.push(t0.elapsed().as_secs_f64());
    }
    println!("# setup_s samples: {times:?}");
    Ok((engine.expect("at least one set-up"), median(&times)))
}

/// Diagnostic counters of the timed phase (`FleetStats` deltas).
fn stat_deltas(a: &FleetStats, b: &FleetStats, v: &mut Values) {
    let d = |x: u64, y: u64| y.saturating_sub(x) as f64;
    let searches = d(a.shift_searches, b.shift_searches);
    let trials = d(a.shift_trials, b.shift_trials);
    v.insert("oneshot.shift_searches", searches);
    v.insert("oneshot.shift_trials", trials);
    v.insert("oneshot.trials_per_search", if searches > 0.0 { trials / searches } else { 0.0 });
    v.insert("jointstl.admissions", d(a.admitted, b.admitted));
    v.insert("score.z_alarms", d(a.z_alarms, b.z_alarms));
    v.insert("score.cusum_alarms", d(a.cusum_alarms, b.cusum_alarms));
    v.insert("forecast.alarms", d(a.forecast_alarms, b.forecast_alarms));
    let per: Vec<f64> =
        a.shards.iter().zip(&b.shards).map(|(x, y)| d(x.points, y.points)).collect();
    let mean = per.iter().sum::<f64>() / per.len().max(1) as f64;
    let max = per.iter().copied().fold(0.0, f64::max);
    v.insert("engine.shard_skew", if mean > 0.0 { max / mean } else { 1.0 });
}

/// End-to-end and caller-side per-layer numbers of a closed loop.
fn loop_metrics(st: &mut LoopStats, v: &mut Values) {
    println!(
        "# timed phase: {} batches ({} points) in {:.3} s",
        st.batches, st.points, st.wall_s
    );
    let rates: Vec<f64> = (0..SLICES)
        .map(|i| {
            let r = slice(i, st.batches);
            let (t0, p0) = if r.start == 0 { (0.0, 0) } else { st.done[r.start - 1] };
            let (t1, p1) = st.done[r.end - 1];
            (p1 - p0) as f64 / (t1 - t0)
        })
        .collect();
    println!("# throughput_pts_s per slice: {rates:.0?}");
    v.insert("throughput_pts_s", rates.iter().copied().fold(0.0, f64::max));
    latency_metrics(BATCH_LATENCY, &st.lat_ms, |j| j, st.batches, v);
    v.insert("peak_rss_mib", st.rss_max);
    v.insert("engine.submit_us", crate::stats::mean(&st.submit_us));
    v.insert("engine.wait_us", crate::stats::mean(&st.wait_us));
    v.insert("engine.queue_depth_max", st.queue_max as f64);
    v.insert("gen.ns_per_pt", st.gen_s * 1e9 / st.points.max(1) as f64);
    v.insert("gen.late_p99_ms", percentile(&mut st.gap_ms, 0.99));
    let [(p0, s0), (p1, s1)] = st.blocks;
    if s0 > 0.0 && s1 > 0.0 {
        let (untraced, traced) = (p0 as f64 / s0, p1 as f64 / s1);
        println!("# tracing overhead: untraced blocks {untraced:.0} pts/s, traced blocks {traced:.0} pts/s");
        v.insert("trace.overhead_pct", 100.0 * (untraced - traced) / untraced);
    }
}

/// The end-to-end timings of a closed loop come from the best of this
/// many equal slices of its timed phase: the highest throughput, the
/// lowest median latency. On a shared host a neighbour's burst only ever
/// slows a slice down, so the least-disturbed slice is the one that
/// repeats from run to run (the best-of-N rule of repeated timings, within
/// one run). Tails and per-layer costs cover the whole phase.
const SLICES: usize = 5;

/// Batch indices of slice `i` of `batches`.
fn slice(i: usize, batches: usize) -> std::ops::Range<usize> {
    i * batches / SLICES..(i + 1) * batches / SLICES
}

/// Batch latencies → `batch_p50_ms` and the per-layer tails.
const BATCH_LATENCY: [&str; 3] = ["batch_p50_ms", "tail.batch_p90_ms", "tail.batch_p99_ms"];
/// Forecast latencies → `forecast_p50_us` and the per-layer tails.
const FORECAST_LATENCY: [&str; 3] =
    ["forecast_p50_us", "tail.forecast_p90_us", "tail.forecast_p99_us"];

/// Stores under `names[0]` the lowest of the slices' medians of `lat`
/// (sample `j` belongs to batch `at(j)`), and under `names[1..]` the whole
/// phase's p90 and p99: per-layer tails, which swing too much between runs
/// on a shared host to gate on. Prints the slice medians and the whole
/// phase's percentiles with the count.
fn latency_metrics(
    names: [&'static str; 3],
    lat: &[f64],
    at: impl Fn(usize) -> usize,
    batches: usize,
    v: &mut Values,
) {
    let medians: Vec<f64> = (0..SLICES)
        .map(|i| {
            let r = slice(i, batches);
            let inside: Vec<f64> =
                (0..lat.len()).filter(|&j| r.contains(&at(j))).map(|j| lat[j]).collect();
            median(&inside)
        })
        .collect();
    let mut all = lat.to_vec();
    let p = [0.5, 0.9, 0.99].map(|q| percentile(&mut all, q));
    println!(
        "# {}: slice medians {medians:.3?}; whole phase p50/p90/p99 {p:.3?} over {} samples \
         (p99 has {} beyond)",
        names.join(" / "),
        lat.len(),
        crate::stats::beyond(lat.len(), 0.99)
    );
    v.insert(names[0], medians.iter().copied().fold(f64::INFINITY, f64::min));
    v.insert(names[1], p[1]);
    v.insert(names[2], p[2]);
}

/// Median time of `FleetEngine::restore_bytes` of `snapshot`, over at
/// least eleven restores and at least one second of restoring (a small
/// fleet restores in milliseconds, where one stall would decide the run).
fn restore_time(snapshot: &[u8], live: usize) -> Result<f64, FleetError> {
    let mut times = Vec::new();
    while times.len() < 11 || times.iter().sum::<f64>() < 1.0 {
        let t0 = Instant::now();
        let e = FleetEngine::restore_bytes(snapshot)?;
        times.push(t0.elapsed().as_secs_f64());
        let got = e.stats()?.live;
        if got != live {
            return Err(FleetError::Recovery(format!(
                "restored {got} live series, wanted {live}"
            )));
        }
    }
    println!(
        "# recover_s: median of {} snapshot restores ({:.3} s total)",
        times.len(),
        times.iter().sum::<f64>()
    );
    Ok(median(&times))
}

/// Shard-side ledger rows of the in-process workloads.
fn ledger_rows(
    ledger: &mut Ledger,
    v: &Values,
    scored: f64,
    forecast_keys: f64,
    tracking: bool,
) {
    ledger.add("oneshot.update", v["oneshot.update_ns"], scored);
    ledger.add("score.update", v["score.update_ns"], scored);
    if tracking {
        ledger.add("forecast.track", v["forecast.track_ns"], scored);
    }
    ledger.add("forecast.into (calls)", v["forecast.into_ns_per_key"], forecast_keys);
    ledger.add(
        "jointstl.init (admissions)",
        v["jointstl.init_us"] * 1e3,
        v["jointstl.admissions"],
    );
}

/// Caller-side costs: not shard time, printed beside the ledger.
fn caller_rows(st: &LoopStats) {
    let sum = |x: &[f64]| x.iter().sum::<f64>();
    println!(
        "#   caller thread (outside the shard budget): gen {:.1} ms, submit {:.1} ms, next_batch {:.1} ms",
        st.gen_s * 1e3,
        sum(&st.submit_us) / 1e3,
        sum(&st.wait_us) / 1e3
    );
}

pub fn run(args: &Args) -> Result<Outcome, String> {
    let incident = args.workload == "incident";
    let (series, event_rate) = if incident { (10_000, 0.04) } else { (12_000, 0.02) };
    let cfg = FleetConfig {
        shards: 2,
        forecast: if incident { ForecastOptions::on() } else { ForecastOptions::default() },
        ..FleetConfig::fixed_period(PERIOD as usize)
    };
    let gen = Gen::new(args.seed, event_rate);
    let mut checker = Checker::new(gen.clone(), series as u64);
    let mut src = (RoundRobin::new(&gen, series, 0), gen.clone());
    let keys = src.0.keys().to_vec();
    let mut v = Values::new();
    let e = |e: FleetError| e.to_string();

    let (mut engine, setup_s) = setups(&cfg, &mut src, &mut checker).map_err(e)?;
    v.insert("setup_s", setup_s);

    let mut tracer = Tracer::new(args.trace);
    let s0 = engine.stats().map_err(e)?;
    let key_ok = |id: u64, k: &SeriesKey| *k == keys[id as usize];
    let mut st = closed_loop(
        &mut engine,
        &mut src,
        &mut checker,
        &key_ok,
        Plan {
            batch: BATCH,
            batches: timed_batches(args.seconds),
            // incident prices reads beside writes on every other batch (a
            // thousand calls in a run, enough for a p99); steady samples
            // them without letting them set its throughput
            forecast_every: if incident { 2 } else { 8 },
        },
        &mut tracer,
    )
    .map_err(e)?;
    let s1 = engine.stats().map_err(e)?;
    if s1.quarantined > 0 || s1.live != series {
        checker
            .fail(|| format!("{} quarantined, {} of {series} live", s1.quarantined, s1.live));
    }
    loop_metrics(&mut st, &mut v);
    stat_deltas(&s0, &s1, &mut v);
    let at = |j: usize| st.forecast_batch[j];
    latency_metrics(FORECAST_LATENCY, &st.forecast_us, at, st.batches, &mut v);
    v.insert("peak_rss_mib", st.rss_max.max(rss_mib()));

    // bit-exact reference replay, then the engine's forecasts of the
    // sampled series against the reference detectors
    let refs = checker.replay(&cfg);
    let sample_keys: Vec<SeriesKey> =
        refs.iter().map(|(id, _)| keys[*id as usize].clone()).collect();
    let got = engine.forecast(&sample_keys, PERIOD as usize).map_err(e)?;
    checker.check_forecasts(&refs, &got, incident.then_some(cfg.forecast.damping));
    v.insert("event_recall", checker.event_recall());
    v.insert("false_alarm_pct", checker.false_alarm_pct());
    let (hit, events) = checker.events();
    println!("# events: {hit} of {events} detected; {} points scored", checker.scored);

    let snapshot = engine.snapshot_bytes().map_err(e)?;
    drop(engine);
    v.insert("recover_s", restore_time(&snapshot, series).map_err(e)?);

    if args.trace {
        layers::replay_layers(&cfg, &checker, &mut v);
        layers::frame_costs(&st.requests, &st.replies, &mut v);
        layers::hop_probe(&gen, series.min(10_000), 1024, &mut v)?;
        layers::codec_costs(&snapshot, cfg.shards, &mut v).map_err(e)?;
        crate::churn::probe(args, &mut v)?;
        let mut ledger = Ledger::new();
        let fkeys = (st.forecast_us.len() * FORECAST_KEYS) as f64;
        ledger_rows(&mut ledger, &v, checker.scored as f64, fkeys, incident);
        caller_rows(&st);
        ledger.close(&args.workload, st.wall_s, cfg.shards, &mut v);
        let path = std::path::Path::new(".bench_work/trace")
            .join(format!("{}-seed{}.jsonl", args.workload, args.seed));
        tracer.write(&path).map_err(|e| e.to_string())?;
        println!("# spans written to {}", path.display());
    }
    Ok(Outcome { attempted: checker.attempted, failed: checker.failed, values: v })
}
