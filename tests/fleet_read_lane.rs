//! The shard read lane: `forecast`/`stats` are answered between ingest
//! sub-batches, and at slot boundaries inside one, instead of FIFO behind
//! them, and
//! every forecast slot is stamped with the batch seq its series' state
//! reflects.
//!
//! 1. **Pinned seq.** A forecast taken with batches still in flight is
//!    bit-identical to a standalone detector replayed up to exactly the
//!    seq the engine stamped on it, and that seq lies between the last
//!    collected and the last submitted batch. A forecast answered inside
//!    a sweep carries two stamps on one shard, each exact for its keys.
//! 2. **Liveness.** A read wakes an idle worker; it neither waits for
//!    room on a full bounded queue nor leaves queue depth behind; and a
//!    read on a dead shard fails with `ShardDown` instead of hanging.

use oneshotstl_suite::core::{OneShotStl, StdAnomalyDetector};
use oneshotstl_suite::fleet::engine::StallGuard;
use oneshotstl_suite::fleet::fault::{self, FaultHook, FaultOp};
use oneshotstl_suite::fleet::{
    FleetConfig, FleetEngine, FleetError, PeriodPolicy, QueuePolicy, Record, SeriesKey,
};
use std::sync::{mpsc, Arc, Mutex};
use std::thread;
use std::time::{Duration, Instant};

const PERIOD: usize = 24;
const N_SERIES: usize = 12;
/// Points per series before the test proper: past the 72-point admission.
const WARM: u64 = 80;

fn key(s: usize) -> SeriesKey {
    SeriesKey::new(format!("lane-{s}"))
}

fn value(s: usize, t: u64) -> f64 {
    let w = 2.0 * std::f64::consts::PI * t as f64 / PERIOD as f64;
    (1.0 + 0.1 * s as f64) * (w + 0.3 * s as f64).sin()
        + 0.002 * t as f64
        + 0.05 * (t as f64 * 7.3 + s as f64).sin()
}

fn config(shards: usize) -> FleetConfig {
    FleetConfig { shards, period: PeriodPolicy::Fixed(PERIOD), ..Default::default() }
}

/// Batch builder that remembers, per series, every value it was fed and
/// the seq of the batch that carried it.
struct Feed {
    t: u64,
    keys: Vec<SeriesKey>,
    history: Vec<Vec<(u64, f64)>>,
}

impl Feed {
    /// The `N_SERIES` series `key(0..N_SERIES)`.
    fn new() -> Self {
        Self::with_keys((0..N_SERIES).map(key).collect())
    }

    /// One series per key; series `s` is `keys[s]`.
    fn with_keys(keys: Vec<SeriesKey>) -> Self {
        let history = vec![Vec::new(); keys.len()];
        Feed { t: 0, keys, history }
    }

    /// The next batch (engine seq `seq`): one point for every series that
    /// `member` selects, in series order.
    fn batch(&mut self, seq: u64, member: impl Fn(usize) -> bool) -> Vec<Record> {
        let t = self.t;
        self.t += 1;
        (0..self.keys.len())
            .filter(|&s| member(s))
            .map(|s| {
                let v = value(s, t);
                self.history[s].push((seq, v));
                Record::new(self.keys[s].clone(), t, v)
            })
            .collect()
    }

    /// `h`-step forecast of series `s` by a standalone detector fed the
    /// points of batches `1..=seq` only.
    fn replay(&self, cfg: &FleetConfig, s: usize, seq: u64, h: usize) -> Vec<f64> {
        let values: Vec<f64> =
            self.history[s].iter().filter(|(b, _)| *b <= seq).map(|(_, v)| *v).collect();
        let warm = cfg.init_len(PERIOD);
        let mut det = StdAnomalyDetector::with_score(
            OneShotStl::new(cfg.detector.clone()),
            cfg.nsigma,
            cfg.score,
        );
        det.init(&values[..warm], PERIOD).unwrap();
        for &v in &values[warm..] {
            det.update_scored(v);
        }
        (1..=h).map(|i| det.decomposer.predict(i)).collect()
    }
}

/// Asserts `got` is `Some` and bit-identical to `want`.
fn assert_bits(got: Option<&Vec<f64>>, want: &[f64], what: &str) {
    let got = got.unwrap_or_else(|| panic!("{what}: a live series forecasts"));
    assert_eq!(got.len(), want.len(), "{what}");
    assert!(
        got.iter().zip(want).all(|(a, b)| a.to_bits() == b.to_bits()),
        "{what}: forecast differs from the replay"
    );
}

/// A fresh engine with every series fed `WARM` points synchronously.
fn warmed(cfg: &FleetConfig, feed: &mut Feed) -> FleetEngine {
    let mut engine = FleetEngine::new(cfg.clone()).unwrap();
    for seq in 1..=WARM {
        engine.ingest(feed.batch(seq, |_| true)).unwrap();
    }
    engine
}

/// Parks shard `shard` and waits until the worker has dequeued the stall.
fn park(engine: &FleetEngine, shard: usize) -> StallGuard {
    let guard = engine.stall_shard(shard).unwrap();
    while engine.queue_depth(shard) > 0 {
        thread::yield_now();
    }
    guard
}

/// Runs `read` on another thread while the workers behind `guards` stay
/// parked, and releases them only once the read is on every lane: the
/// engine pushes a read to its shards in index order, each followed by a
/// wake-up nudge, so a nudge showing up in the queue of the parked shard
/// `witness` (the highest one read) proves every read is in place. The
/// witness' queue must not change otherwise while it is parked.
fn read_behind_stalls<R: Send + 'static>(
    engine: FleetEngine,
    guards: Vec<StallGuard>,
    witness: usize,
    read: impl FnOnce(&FleetEngine) -> R + Send + 'static,
) -> (FleetEngine, R) {
    let probe = engine.queue_depth_probe(witness);
    let before = probe();
    let reader = thread::spawn(move || {
        let out = read(&engine);
        (engine, out)
    });
    let deadline = Instant::now() + Duration::from_secs(10);
    while probe() == before && Instant::now() < deadline {
        thread::yield_now();
    }
    let reached = probe() != before;
    drop(guards);
    let out = reader.join().unwrap();
    assert!(reached, "the read never reached every lane: it waited for queue room");
    out
}

/// Runs `reads` on another thread and fails, instead of hanging, if they
/// are not all answered within 10 s (a worker that is never woken).
fn within_deadline<R: Send + 'static>(
    engine: FleetEngine,
    reads: impl FnOnce(&FleetEngine) -> R + Send + 'static,
) -> (FleetEngine, R) {
    let (done_tx, done_rx) = mpsc::channel();
    let reader = thread::spawn(move || {
        let out = reads(&engine);
        let _ = done_tx.send(());
        (engine, out)
    });
    // a timeout leaves the reader blocked; a disconnect means it panicked,
    // and the join below passes that panic on
    let timed_out = matches!(
        done_rx.recv_timeout(Duration::from_secs(10)),
        Err(mpsc::RecvTimeoutError::Timeout)
    );
    assert!(!timed_out, "a read was never answered");
    reader.join().unwrap()
}

/// Spins until every shard's queue depth is 0 (a nudge queued behind a
/// batch is dequeued right after it).
fn wait_for_empty_queues(engine: &FleetEngine) {
    let deadline = Instant::now() + Duration::from_secs(10);
    for shard in 0..engine.shard_count() {
        while engine.queue_depth(shard) > 0 {
            assert!(Instant::now() < deadline, "shard {shard} queue depth never drained");
            thread::yield_now();
        }
    }
}

/// A forecast taken mid-pipeline — one shard parked behind queued
/// batches, some batches routing that shard no rows — is bit-identical
/// to a replay up to exactly the seq stamped on each slot.
#[test]
fn pinned_seq_forecast_matches_a_replay_up_to_that_seq() {
    let cfg = config(2);
    let mut feed = Feed::new();
    let mut engine = warmed(&cfg, &mut feed);
    let keys: Vec<SeriesKey> = (0..N_SERIES).map(key).collect();
    let shard: Vec<usize> = keys.iter().map(|k| k.shard_of(2)).collect();
    assert!(shard.contains(&0) && shard.contains(&1), "both shards must hold series");

    let mut seq = WARM;
    let mut submit =
        |engine: &mut FleetEngine, feed: &mut Feed, member: &dyn Fn(usize) -> bool| {
            seq += 1;
            engine.submit(feed.batch(seq, member)).unwrap();
            seq
        };
    for _ in 0..4 {
        submit(&mut engine, &mut feed, &|_| true);
    }
    engine.next_batch().unwrap().unwrap();
    engine.next_batch().unwrap().unwrap();
    let collected = WARM + 2;
    // shard 1 parks behind its two uncollected batches; the next two
    // batches route it no rows, the three after that queue behind the park
    let guard = engine.stall_shard(1).unwrap();
    let parked_at = engine.batches();
    for _ in 0..2 {
        submit(&mut engine, &mut feed, &|s| shard[s] == 0);
    }
    let mut submitted = 0;
    for _ in 0..3 {
        submitted = submit(&mut engine, &mut feed, &|_| true);
    }
    assert_eq!(engine.batches(), submitted);
    while engine.queue_depth(1) > 3 {
        thread::yield_now(); // until the worker is parked on the stall
    }

    let mut asked = keys.clone();
    asked.push(SeriesKey::new("never-seen"));
    let (mut engine, got) =
        read_behind_stalls(engine, vec![guard], 1, move |e| e.forecast_as_of(&asked, PERIOD));
    let got = got.unwrap();
    assert_eq!(got.len(), N_SERIES + 1);
    assert!(got[N_SERIES].1.is_none(), "an unknown key answers None");
    for (s, (at, fc)) in got.iter().take(N_SERIES).enumerate() {
        assert!(
            (collected..=submitted).contains(at),
            "series {s}: seq {at} outside [{collected}, {submitted}]"
        );
        if shard[s] == 1 {
            // answered on release, before the first batch queued behind
            // the park; the two batches that routed it no rows count
            assert_eq!(*at, parked_at + 2, "series {s}");
        }
        let want = feed.replay(&cfg, s, *at, PERIOD);
        assert_bits(fc.as_ref(), &want, &format!("series {s} as of seq {at}"));
    }
    let on_shard_0: Vec<u64> =
        (0..N_SERIES).filter(|&s| shard[s] == 0).map(|s| got[s].0).collect();
    assert!(on_shard_0.iter().all(|&at| at == on_shard_0[0]), "one seq per shard");

    // once everything is collected, every slot is as of the last batch
    while engine.next_batch().unwrap().is_some() {}
    for (s, (at, fc)) in engine.forecast_as_of(&keys, PERIOD).unwrap().iter().enumerate() {
        assert_eq!(*at, submitted, "series {s}");
        assert_bits(fc.as_ref(), &feed.replay(&cfg, s, *at, PERIOD), &format!("series {s}"));
    }
}

/// A forecast issued while a shard is parked inside a sweep is answered at
/// the sweep's next slot boundary: the series the sweep has passed carry
/// the sub-batch's seq, the rest the seq before it, and every slot is
/// bit-identical to a replay at its own stamp. The shard is parked by a
/// blocking `SeriesStep` hook on a series in the middle of the slot order
/// (hooks are process-wide, so the keys carry a prefix no other test
/// uses); the hook is released once the read's nudge shows in the
/// shard's queue depth, i.e. once the read is on the lane and its flag is
/// raised.
#[test]
fn a_forecast_inside_a_sweep_is_stamped_per_key() {
    // series, all on the one shard; the first batch admits them in series
    // order, so slot = series
    const SERIES: usize = 576;
    // even, so the parked series is the first of a pair with the next one
    const PARKED: usize = 384;
    let keys: Vec<SeriesKey> =
        (0..SERIES).map(|s| SeriesKey::new(format!("lane-sweep/{s}"))).collect();
    let cfg = config(1);
    let mut feed = Feed::with_keys(keys.clone());
    let mut engine = FleetEngine::new(cfg.clone()).unwrap();
    for seq in 1..=WARM {
        engine.ingest(feed.batch(seq, |_| true)).unwrap();
    }

    // the hook reports each time it parks the worker, then blocks until
    // `release` is dropped
    let (parked_tx, parked) = mpsc::channel();
    let (release, release_rx) = mpsc::channel::<()>();
    let (parked_tx, release_rx) = (Mutex::new(parked_tx), Mutex::new(release_rx));
    let hook: FaultHook = Arc::new(move |op, _| {
        if op == FaultOp::SeriesStep {
            let _ = parked_tx.lock().unwrap().send(());
            let _ = release_rx.lock().unwrap().recv();
        }
        None
    });
    let _guard = fault::inject(keys[PARKED].as_str(), hook);
    let seq = WARM + 1;
    engine.submit(feed.batch(seq, |_| true)).unwrap();
    parked.recv_timeout(Duration::from_secs(10)).expect("the sweep reaches the hooked series");

    let probe = engine.queue_depth_probe(0);
    let before = probe();
    let asked = keys.clone();
    let reader = thread::spawn(move || {
        let out = engine.forecast_as_of(&asked, PERIOD);
        (engine, out)
    });
    let deadline = Instant::now() + Duration::from_secs(10);
    while probe() == before && Instant::now() < deadline {
        thread::yield_now();
    }
    let reached = probe() != before;
    drop(release);
    let (mut engine, got) = reader.join().unwrap();
    assert!(reached, "the read never reached the lane");
    let got = got.unwrap();

    let stamps: Vec<u64> = got.iter().map(|(at, _)| *at).collect();
    // answered at the first slot boundary after the parked series' pair:
    // the sweep's seq on the slots before it, the prior seq from it on
    let boundary = PARKED + 2;
    assert!(stamps[..boundary].iter().all(|&at| at == seq), "stamps by slot: {stamps:?}");
    assert!(stamps[boundary..].iter().all(|&at| at == WARM), "stamps by slot: {stamps:?}");
    for (s, (at, fc)) in got.iter().enumerate() {
        let want = feed.replay(&cfg, s, *at, PERIOD);
        assert_bits(fc.as_ref(), &want, &format!("series {s} as of seq {at}"));
    }

    engine.next_batch().unwrap().unwrap();
    for (s, (at, fc)) in engine.forecast_as_of(&keys, PERIOD).unwrap().iter().enumerate() {
        assert_eq!(*at, seq, "series {s}");
        assert_bits(fc.as_ref(), &feed.replay(&cfg, s, seq, PERIOD), &format!("series {s}"));
    }
}

/// Reads against idle workers wake them, answer, and leave no queue
/// depth behind — also when repeated back to back, and when issued with
/// batches in flight. (A read can be answered while its own wake-up nudge
/// is still queued, so the depth it reports or leaves is at most that
/// one nudge, which the worker dequeues next.)
#[test]
fn reads_wake_idle_workers_and_leave_no_queue_depth() {
    let cfg = config(2);
    let mut feed = Feed::new();
    let engine = warmed(&cfg, &mut feed);
    let keys: Vec<SeriesKey> = (0..N_SERIES).map(key).collect();
    let asked = keys.clone();
    let (mut engine, ()) = within_deadline(engine, move |e| {
        for round in 0..200 {
            let fc = e.forecast(&asked, PERIOD).unwrap();
            assert!(fc.iter().all(Option::is_some), "round {round}");
            wait_for_empty_queues(e);
            let stats = e.stats().unwrap();
            assert_eq!(stats.live, N_SERIES);
            assert!(stats.shards.iter().all(|s| s.queue_depth <= 1), "round {round}");
            wait_for_empty_queues(e);
        }
    });
    // with batches in flight the nudges queue behind them, and drain
    let mut seq = WARM;
    for _ in 0..4 {
        seq += 1;
        engine.submit(feed.batch(seq, |_| true)).unwrap();
        assert!(engine.forecast(&keys, PERIOD).unwrap().iter().all(Option::is_some));
        engine.stats().unwrap();
    }
    while engine.next_batch().unwrap().is_some() {}
    wait_for_empty_queues(&engine);
}

/// With a bounded `Reject` queue full behind a parked worker, `forecast`
/// and `stats` do not wait for queue room: each is answered as soon as
/// the worker dequeues its first queued batch, before applying it. The
/// nudges they could not queue leave no depth behind, so `Reject` still
/// admits exactly `capacity` batches afterwards.
#[test]
fn reads_bypass_a_full_rejecting_queue() {
    const CAP: usize = 2;
    let cfg = FleetConfig {
        queue_capacity: Some(CAP),
        queue_policy: QueuePolicy::Reject,
        ..config(2)
    };
    let mut feed = Feed::new();
    let mut engine = warmed(&cfg, &mut feed);
    let keys: Vec<SeriesKey> = (0..N_SERIES).map(key).collect();
    let shard: Vec<usize> = keys.iter().map(|k| k.shard_of(2)).collect();
    let on_shard_0 = shard.iter().filter(|&&x| x == 0).count();
    let bouncer =
        keys[shard.iter().position(|&x| x == 0).expect("a series on shard 0")].clone();
    let mut seq = WARM;

    // parks both workers and fills shard 0's queue to capacity with
    // batches that route shard 1 no rows; the next submit bounces
    let mut fill = |engine: &mut FleetEngine, feed: &mut Feed| {
        let guards = vec![park(engine, 0), park(engine, 1)];
        for _ in 0..CAP {
            seq += 1;
            engine.submit(feed.batch(seq, |s| shard[s] == 0)).unwrap();
        }
        let probe = vec![Record::new(bouncer.clone(), feed.t, 0.0)];
        assert!(matches!(engine.submit(probe), Err(FleetError::Backpressure { shard: 0 })));
        guards
    };

    // forecast: shard 0 answers as of the batch before its queued ones;
    // shard 1, which those batches skip, as of the last one
    let guards = fill(&mut engine, &mut feed);
    let asked = keys.clone();
    let (mut engine, got) =
        read_behind_stalls(engine, guards, 1, move |e| e.forecast_as_of(&asked, PERIOD));
    for (s, (at, fc)) in got.unwrap().iter().enumerate() {
        let want = if shard[s] == 0 { WARM } else { WARM + CAP as u64 };
        assert_eq!(*at, want, "series {s} on shard {}", shard[s]);
        assert_bits(fc.as_ref(), &feed.replay(&cfg, s, *at, PERIOD), &format!("series {s}"));
    }
    while engine.next_batch().unwrap().is_some() {}
    assert_eq!((engine.queue_depth(0), engine.queue_depth(1)), (0, 0));

    // stats: shard 0 answers with one batch dequeued, the other queued
    let guards = fill(&mut engine, &mut feed);
    let (mut engine, stats) = read_behind_stalls(engine, guards, 1, |e| e.stats());
    let stats = stats.unwrap();
    assert_eq!(stats.shards[0].queue_depth, CAP - 1, "depth is the backlog when answered");
    assert_eq!(stats.shards[1].queue_depth, 0);
    let applied = WARM as usize * N_SERIES + CAP * on_shard_0;
    assert_eq!(stats.points, applied as u64, "no batch queued behind the park applied");
    while engine.next_batch().unwrap().is_some() {}
    assert_eq!((engine.queue_depth(0), engine.queue_depth(1)), (0, 0));

    // no stale depth: Reject admits exactly CAP batches again
    let guards = fill(&mut engine, &mut feed);
    drop(guards);
    while engine.next_batch().unwrap().is_some() {}
}

/// A read on a crashed shard fails with `ShardDown` instead of hanging;
/// the next mutating call respawns the shard and reads answer again. The
/// respawned shard starts empty — a collected snapshot does not change
/// that — so its keys answer `None` until they re-warm.
#[test]
fn reads_on_a_crashed_shard_fail_with_shard_down() {
    let cfg = config(2);
    let mut feed = Feed::new();
    let mut engine = warmed(&cfg, &mut feed);
    engine.snapshot().unwrap();
    let keys: Vec<SeriesKey> = (0..N_SERIES).map(key).collect();
    engine.crash_shard(0).unwrap();
    let deadline = Instant::now() + Duration::from_secs(10);
    // until the panic lands, a read may still be answered (the worker
    // drains its lane before it handles the crash message)
    loop {
        match engine.forecast(&keys, PERIOD) {
            Ok(_) => assert!(Instant::now() < deadline, "the crashed shard kept answering"),
            Err(FleetError::ShardDown) => break,
            Err(e) => panic!("unexpected error: {e}"),
        }
        thread::sleep(Duration::from_millis(1));
    }
    assert!(matches!(engine.stats(), Err(FleetError::ShardDown)));
    assert!(matches!(engine.forecast_as_of(&keys, PERIOD), Err(FleetError::ShardDown)));

    let mut healed = false;
    for seq in WARM + 1..WARM + 10 {
        if engine.ingest(feed.batch(seq, |_| true)).is_ok() {
            healed = true;
            break;
        }
    }
    assert!(healed, "the plain engine never respawned the shard");
    let slots = engine.forecast(&keys, PERIOD).unwrap();
    for (k, slot) in keys.iter().zip(&slots) {
        let on_healed_shard = k.shard_of(2) == 0;
        assert_eq!(slot.is_none(), on_healed_shard, "{k}: re-warming iff on the healed shard");
    }
    let stats = engine.stats().unwrap();
    assert_eq!(stats.shard_restarts, 1);
    assert!(stats.live < N_SERIES && stats.warming > 0, "{stats:?}");
}

/// Requests whose answer cannot exist or cannot fit one wire frame are
/// refused with a typed error before any shard is asked.
#[test]
fn unanswerable_forecasts_are_refused_up_front() {
    let engine = FleetEngine::new(config(2)).unwrap();
    let keys: Vec<SeriesKey> = (0..4).map(key).collect();
    for horizon in [0, usize::MAX, (1 << 26) / 8 / 4 + 1] {
        match engine.forecast(&keys, horizon) {
            Err(FleetError::InvalidForecast { keys: 4, horizon: h }) => assert_eq!(h, horizon),
            other => panic!("horizon {horizon}: expected InvalidForecast, got {other:?}"),
        }
    }
    // the largest request that fits is served (every key unknown: None)
    let fits = engine.forecast(&keys, (1 << 26) / 8 / 4).unwrap();
    assert!(fits.iter().all(Option::is_none));
    assert!(engine.forecast(&[], 1).unwrap().is_empty());
}
