//! Per-layer measurements taken from outside the program: standalone
//! replays of sampled series, codec and frame round trips, the loopback
//! hop, the forecast probe, and the cost ledger that adds them up.

use crate::check::Checker;
use crate::gen::{Gen, RoundRobin, PERIOD, WARM};
use crate::stats::{mean, percentile};
use decomp::OnlineDecomposer;
use fleet::net::{decode_frame, encode_frame_into, NetMessage};
use fleet::{FleetConfig, FleetEngine, FleetError, NetClient, NetServer, Record, ScoredPoint};
use oneshotstl::{OneShotStl, ResidualScorer, StdAnomalyDetector};
use std::collections::HashMap;
use std::hint::black_box;
use std::time::Instant;

/// Metric values by name.
pub type Values = HashMap<&'static str, f64>;

/// Replays the sampled series' exact inputs through standalone
/// `OneShotStl`, `ResidualScorer` and `StdAnomalyDetector::init`, timing
/// each layer's public call.
pub fn replay_layers(cfg: &FleetConfig, checker: &Checker, v: &mut Values) {
    let warm = WARM as usize;
    let period = PERIOD as usize;
    let (mut updates, mut init_us, mut state) = (Vec::new(), Vec::new(), Vec::new());
    let (mut score_ns, mut track_ns, mut into_ns) = (Vec::new(), Vec::new(), Vec::new());
    let damping = cfg.forecast.damping;
    let mut horizon = vec![0.0; period];
    for values in checker.sample_streams() {
        if values.len() <= warm {
            continue;
        }
        // admission: the detector init the engine runs at promotion
        for _ in 0..3 {
            let mut det = StdAnomalyDetector::with_score(
                OneShotStl::new(cfg.detector.clone()),
                cfg.nsigma,
                cfg.score,
            );
            let t0 = Instant::now();
            let r = det.init(black_box(&values[..warm]), period);
            init_us.push(t0.elapsed().as_secs_f64() * 1e6);
            black_box(r.is_ok());
        }
        // decomposition, one timed call per point
        let mut m = OneShotStl::new(cfg.detector.clone());
        let Ok(d) = m.init(&values[..warm], period) else { continue };
        let mut residuals = Vec::with_capacity(values.len() - warm);
        for &y in &values[warm..] {
            let t0 = Instant::now();
            let p = m.update(black_box(y));
            updates.push(t0.elapsed().as_nanos() as f64);
            residuals.push(p.residual);
        }
        state.push(m.state_bytes() as f64);
        // scoring, timed as a loop (one call is shorter than a clock read)
        let mut scorer = ResidualScorer::new(cfg.nsigma, cfg.score);
        scorer.seed(&d.residual);
        let t0 = Instant::now();
        for &r in &residuals {
            black_box(scorer.update(black_box(r)));
        }
        score_ns.push(t0.elapsed().as_nanos() as f64 / residuals.len() as f64);
        // forecast tracking (one-step forecast per point) and a full
        // horizon fill, both on the final state
        let reps = 2000;
        let t0 = Instant::now();
        for _ in 0..reps {
            black_box(m.forecast_damped(1, black_box(damping)));
        }
        track_ns.push(t0.elapsed().as_nanos() as f64 / reps as f64);
        let t0 = Instant::now();
        for _ in 0..reps {
            m.forecast_into(black_box(damping), &mut horizon);
            black_box(&horizon);
        }
        into_ns.push(t0.elapsed().as_nanos() as f64 / reps as f64);
    }
    v.insert("oneshot.update_ns", mean(&updates));
    v.insert("oneshot.update_p99_ns", percentile(&mut updates, 0.99));
    v.insert("oneshot.state_bytes", mean(&state));
    v.insert("jointstl.init_us", mean(&init_us));
    v.insert("score.update_ns", mean(&score_ns));
    v.insert("forecast.track_ns", mean(&track_ns));
    v.insert("forecast.into_ns_per_key", mean(&into_ns));
}

/// Frame codec cost per point over the workload's own request batches and
/// reply batches: encode and decode of both directions, and bytes moved.
pub fn frame_costs(requests: &[Vec<Record>], replies: &[Vec<ScoredPoint>], v: &mut Values) {
    let mut buf = Vec::new();
    let (mut enc, mut dec, mut bytes, mut points) = (0.0, 0.0, 0usize, 0usize);
    let msgs = requests
        .iter()
        .map(|r| NetMessage::IngestBatch(r.clone()))
        .chain(replies.iter().map(|r| NetMessage::Scored(r.clone())));
    for msg in msgs {
        let n = match &msg {
            NetMessage::IngestBatch(r) => r.len(),
            NetMessage::Scored(r) => r.len(),
            _ => 0,
        };
        let t0 = Instant::now();
        encode_frame_into(&mut buf, black_box(&msg));
        enc += t0.elapsed().as_secs_f64();
        let t0 = Instant::now();
        let back = decode_frame(black_box(&buf));
        dec += t0.elapsed().as_secs_f64();
        debug_assert!(matches!(back, Ok(Some(_))));
        black_box(back.ok());
        bytes += buf.len();
        points += n;
    }
    // requests and replies carry the same points: per point is per round trip
    let per = |x: f64| x * 1e9 / (points / 2).max(1) as f64;
    v.insert("net.encode_ns_per_pt", per(enc));
    v.insert("net.decode_ns_per_pt", per(dec));
    v.insert("net.bytes_per_pt", bytes as f64 / (points / 2).max(1) as f64);
}

/// The loopback hop: the same warming frames sent one at a time to a fresh
/// in-process engine and to a fresh engine behind `NetServer`; the hop is
/// the difference of the medians. Warming frames keep decomposition out of
/// both sides, so the difference is codec, socket and server loop.
pub fn hop_probe(gen: &Gen, series: usize, frame: usize, v: &mut Values) -> Result<(), String> {
    let frames = 128.min(series * (WARM as usize - 1) / frame).max(1);
    let cfg = FleetConfig { shards: 1, ..FleetConfig::fixed_period(PERIOD as usize) };
    let batches = |gen: &Gen| {
        let mut src = RoundRobin::new(gen, series, 0);
        (0..frames).map(|_| src.batch(gen, frame, None).0).collect::<Vec<_>>()
    };
    let mut local = FleetEngine::new(cfg.clone()).map_err(|e| e.to_string())?;
    let mut t_local = Vec::new();
    for b in batches(gen) {
        let t0 = Instant::now();
        local.ingest(b).map_err(|e| e.to_string())?;
        t_local.push(t0.elapsed().as_secs_f64() * 1e3);
    }
    let server =
        NetServer::serve("127.0.0.1:0", FleetEngine::new(cfg).map_err(|e| e.to_string())?)
            .map_err(|e| e.to_string())?;
    let mut client = NetClient::connect(server.local_addr()).map_err(|e| e.to_string())?;
    let mut t_wire = Vec::new();
    for b in batches(gen) {
        let t0 = Instant::now();
        client.ingest(b).map_err(|e| e.to_string())?;
        t_wire.push(t0.elapsed().as_secs_f64() * 1e3);
    }
    drop(client);
    server.shutdown();
    v.insert("net.hop_p50_ms", percentile(&mut t_wire, 0.5) - percentile(&mut t_local, 0.5));
    Ok(())
}

/// Codec cost of one full fleet image: decode, re-encode, and restore with
/// `shards` shards.
pub fn codec_costs(bytes: &[u8], shards: usize, v: &mut Values) -> Result<(), FleetError> {
    let t0 = Instant::now();
    let snap = fleet::codec::decode(bytes)?;
    v.insert("codec.decode_ms", t0.elapsed().as_secs_f64() * 1e3);
    let series = snap.series.len().max(1);
    let t0 = Instant::now();
    let again = fleet::codec::encode(&snap);
    v.insert("codec.encode_ms", t0.elapsed().as_secs_f64() * 1e3);
    if again != bytes {
        return Err(FleetError::Internal("re-encoded image differs from the decoded bytes"));
    }
    let t0 = Instant::now();
    let engine = FleetEngine::restore_with_shards(snap, shards)?;
    v.insert("codec.restore_ms", t0.elapsed().as_secs_f64() * 1e3);
    drop(engine);
    v.insert("codec.bytes_per_series", bytes.len() as f64 / series as f64);
    Ok(())
}

/// Keys per forecast call.
pub const FORECAST_KEYS: usize = 1024;

/// One forecast call's answer: every key live, `T` finite values each.
pub fn check_forecast(checker: &mut Checker, got: Result<Vec<Option<Vec<f64>>>, String>) {
    checker.attempted += 1;
    match got {
        Ok(slots) => {
            let bad = slots
                .iter()
                .filter(|s| {
                    !s.as_ref().is_some_and(|f| {
                        f.len() == PERIOD as usize && f.iter().all(|x| x.is_finite())
                    })
                })
                .count();
            if bad > 0 {
                checker.fail(|| {
                    format!("forecast call: {bad} of {} slots empty or non-finite", slots.len())
                });
            }
        }
        Err(e) => checker.fail(|| format!("forecast call failed: {e}")),
    }
}

/// The per-workload cost ledger: each layer's unit cost times its call
/// count, summed and compared with the busy budget `wall × threads` of
/// the timed phase. Prints the table and records the explained share and
/// the unexplained remainder.
pub struct Ledger {
    rows: Vec<(&'static str, f64, f64)>,
}

impl Ledger {
    /// An empty ledger.
    pub fn new() -> Self {
        Ledger { rows: Vec::new() }
    }

    /// Adds a layer: `unit_ns` per call, `calls` calls.
    pub fn add(&mut self, layer: &'static str, unit_ns: f64, calls: f64) {
        self.rows.push((layer, unit_ns, calls));
    }

    /// Prints the ledger against `wall_s × threads` and stores its totals.
    pub fn close(self, workload: &str, wall_s: f64, threads: usize, v: &mut Values) {
        let budget_ms = wall_s * threads as f64 * 1e3;
        println!("# ledger ({workload}): budget = {wall_s:.3} s wall x {threads} threads = {budget_ms:.1} ms");
        let mut explained = 0.0;
        for (layer, unit, calls) in &self.rows {
            let ms = unit * calls / 1e6;
            explained += ms;
            println!(
                "#   {layer:<28} {unit:>12.1} ns x {calls:>12.0} = {ms:>10.1} ms ({:>5.1}%)",
                100.0 * ms / budget_ms
            );
        }
        let pct = 100.0 * explained / budget_ms;
        println!(
            "#   explained {explained:.1} ms = {pct:.1}% of the budget; unexplained remainder {:.1} ms",
            budget_ms - explained
        );
        v.insert("ledger.explained_pct", pct);
        v.insert("ledger.unexplained_ms", budget_ms - explained);
    }
}
