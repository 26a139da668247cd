//! The durability probe: a small `DurableFleet` whose hot set rotates
//! through a larger population, so idle series spill to the cold tier and
//! come back, some never return and new keys take their place, every batch
//! is WAL-logged, snapshots and deltas land during the run, and the run
//! ends with a crash and a recovery. The listed workloads bypass these
//! layers; their traced runs take the `wal`, `persist` and `cold` metrics
//! from this probe. Its outputs are checked like theirs, across spill,
//! rehydrate and crash recovery.

use crate::check::Checker;
use crate::gen::{self, Expect, Gen, Shape, PERIOD, WARM};
use crate::inproc::{closed_loop, Plan, Source, DEPTH};
use crate::layers::Values;
use crate::stats::{mean, median};
use crate::trace::Tracer;
use crate::Args;
use fleet::{DurabilityConfig, DurableFleet, FleetConfig, FleetError, Record, SeriesKey};
use std::cell::RefCell;
use std::collections::{HashMap, VecDeque};
use std::path::Path;
use std::rc::Rc;
use std::time::Instant;

/// Keys in the population (slots).
const POPULATION: usize = 480;
/// Slots hot at any tick.
const HOT: usize = 96;
/// Ticks a slot stays hot per visit. With `POPULATION / HOT · HOT_ROUNDS` a
/// multiple of T, a returning series resumes in phase.
const HOT_ROUNDS: u64 = 96;
/// Slots that enter (and leave) the hot window per tick.
const STEP: usize = HOT / HOT_ROUNDS as usize;
/// Records per batch.
const BATCH: usize = 512;
/// Batches of the timed phase.
const BATCHES: usize = 100;
/// `DurabilityConfig::snapshot_every`.
const SNAPSHOT_EVERY: u64 = 16;
/// `FleetConfig::spill_after`.
const SPILL_AFTER: u64 = 48;
/// Chance that a departing key never returns.
const RETIRE: f64 = 0.1;

/// Key table shared by the source (which mints keys, with their signal's
/// shape) and the output check.
type Keys = Rc<RefCell<HashMap<u64, (SeriesKey, Shape)>>>;

/// The rotating source. During set-up every slot gets ticks `0..WARM`;
/// afterwards tick `t` covers the `HOT` slots from `(t − WARM)·STEP` on
/// (mod `POPULATION`).
struct Rotation {
    gen: Gen,
    keys: Keys,
    /// Per slot: generation of its current key, visits completed, points
    /// sent to the current key.
    slots: Vec<(u64, u64, u64)>,
    t: u64,
    /// Index into the current tick's slot list.
    next: usize,
    /// Per batch of the timed phase: whether it carried a returning key
    /// (the first point of a visit by a key that has spilled).
    returning: Vec<bool>,
}

impl Rotation {
    fn new(gen: Gen, keys: Keys) -> Self {
        Rotation {
            gen,
            keys,
            slots: vec![(0, 0, 0); POPULATION],
            t: 0,
            next: 0,
            returning: Vec::new(),
        }
    }

    fn id(&self, slot: usize) -> u64 {
        slot as u64 | (self.slots[slot].0 << 32)
    }

    /// Slots active at the current tick, and the first of them.
    fn window(&self) -> (usize, usize) {
        if self.t < WARM {
            (0, POPULATION)
        } else {
            (((self.t - WARM) as usize * STEP) % POPULATION, HOT)
        }
    }

    /// Advances to the next tick: the slots leaving the hot window finish a
    /// visit, and some of their keys retire for good.
    fn advance(&mut self) {
        if self.t >= WARM {
            let (first, _) = self.window();
            for j in 0..STEP {
                let slot = (first + j) % POPULATION;
                let (g, visits, _) = self.slots[slot];
                let visits = visits + 1;
                let retire = gen::unit(self.gen.seed(), slot as u64, visits, 77) < RETIRE;
                self.slots[slot] =
                    if retire { (g + 1, visits, 0) } else { (g, visits, self.slots[slot].2) };
            }
        }
        self.t += 1;
        self.next = 0;
    }
}

impl Source for Rotation {
    fn next(&mut self, size: usize) -> (Vec<Record>, Vec<Expect>) {
        let mut recs = Vec::with_capacity(size);
        let mut exp = Vec::with_capacity(size);
        let mut returning = false;
        let stop_at_warm = self.t < WARM;
        while recs.len() < size {
            let (first, n) = self.window();
            if self.next == n {
                self.advance();
                if stop_at_warm && self.t == WARM {
                    break; // set-up ends with the warm-up ticks
                }
                continue;
            }
            let slot = (first + self.next) % POPULATION;
            self.next += 1;
            let id = self.id(slot);
            let seen = self.slots[slot].2;
            self.slots[slot].2 += 1;
            // a key back for another visit: its first point in the window
            returning |= self.t >= WARM && seen >= WARM && self.next > HOT - STEP;
            let (key, shape) = {
                let mut table = self.keys.borrow_mut();
                let e = table.entry(id).or_insert_with(|| (gen::key(id), self.gen.shape(id)));
                (e.0.clone(), e.1)
            };
            let value = self.gen.value_of(&shape, id, self.t);
            recs.push(Record { key, t: self.t, value });
            exp.push(Expect { id, t: self.t, value, warming: seen < WARM });
        }
        if !stop_at_warm {
            self.returning.push(returning);
        }
        (recs, exp)
    }

    /// The probe runs no forecasts beside ingest.
    fn forecast_keys(&mut self, _n: usize) -> Vec<SeriesKey> {
        Vec::new()
    }
}

/// Total size of the files under `dir`, MiB.
fn dir_mib(dir: &Path) -> f64 {
    let mut total = 0u64;
    let mut stack = vec![dir.to_path_buf()];
    while let Some(d) = stack.pop() {
        for entry in std::fs::read_dir(&d).into_iter().flatten().flatten() {
            match entry.metadata() {
                Ok(m) if m.is_dir() => stack.push(entry.path()),
                Ok(m) => total += m.len(),
                Err(_) => {}
            }
        }
    }
    total as f64 / (1 << 20) as f64
}

/// Median cost of one 64 KiB append plus `sync_data` in `dir`, µs — the
/// unit cost of a WAL group commit on this filesystem.
fn fsync_probe(dir: &Path) -> Result<f64, String> {
    use std::io::Write as _;
    let path = dir.join("fsync-probe");
    let mut f = std::fs::File::create(&path).map_err(|e| e.to_string())?;
    let block = vec![7u8; 64 * 1024];
    let mut times = Vec::new();
    for _ in 0..50 {
        let t0 = Instant::now();
        f.write_all(&block).and_then(|_| f.sync_data()).map_err(|e| e.to_string())?;
        times.push(t0.elapsed().as_secs_f64() * 1e6);
    }
    drop(f);
    let _ = std::fs::remove_file(path);
    Ok(median(&times))
}

/// Runs the probe and stores the `wal`, `persist` and `cold` metrics in
/// `v`. Any failed output check fails the probe.
pub fn probe(args: &Args, v: &mut Values) -> Result<(), String> {
    println!(
        "# durability probe (a small churn run; the listed workloads bypass these layers):"
    );
    let base = crate::work_dir(args).join("probe");
    let cfg = FleetConfig {
        shards: 2,
        spill_after: Some(SPILL_AFTER),
        ..FleetConfig::fixed_period(PERIOD as usize)
    };
    let dcfg = || DurabilityConfig {
        snapshot_every: SNAPSHOT_EVERY,
        ..DurabilityConfig::new(base.join("fleet"))
    };
    let dir = dcfg().dir;
    let gen = Gen::new(args.seed, 0.04);
    let keys: Keys = Rc::default();
    let mut checker = Checker::new(gen.clone(), POPULATION as u64);
    let table = Rc::clone(&keys);
    let key_ok =
        move |id: u64, k: &SeriesKey| table.borrow().get(&id).is_some_and(|e| e.0 == *k);
    let e = |e: FleetError| e.to_string();

    // set-up: create, then warm every key of the population until live
    let mut src = Rotation::new(gen, Rc::clone(&keys));
    let mut fleet = DurableFleet::create(cfg.clone(), dcfg()).map_err(e)?;
    let mut pending = VecDeque::new();
    while src.t < WARM || !pending.is_empty() {
        if src.t < WARM {
            let (recs, exp) = src.next(BATCH);
            fleet.submit(recs).map_err(e)?;
            pending.push_back(exp);
            if pending.len() < DEPTH && src.t < WARM {
                continue;
            }
        }
        let exp = pending.pop_front().expect("a batch is in flight");
        let out = fleet.next_batch().map_err(e)?.ok_or("submitted batch in flight")?;
        checker.batch(&exp, &out, &key_ok);
    }
    let live = fleet.engine().stats().map_err(e)?.live;
    if live != POPULATION {
        return Err(format!("{live} of {POPULATION} series live after warm-up"));
    }

    let s0 = fleet.engine().stats().map_err(e)?;
    let (fsync0, seq0) = (fleet.wal_fsync_count(), fleet.engine().batches());
    let plan = Plan { batch: BATCH, batches: BATCHES, forecast_every: 0 };
    let st =
        closed_loop(&mut fleet, &mut src, &mut checker, &key_ok, plan, &mut Tracer::new(false))
            .map_err(e)?;
    let s1 = fleet.engine().stats().map_err(e)?;
    if s1.quarantined > 0 {
        checker.fail(|| format!("{} series quarantined", s1.quarantined));
    }
    let d = |x: u64, y: u64| y.saturating_sub(x) as f64;
    v.insert("cold.spills", d(s0.spills, s1.spills));
    v.insert("cold.rehydrations", d(s0.rehydrations, s1.rehydrations));
    v.insert("cold.errors", d(s0.cold_errors, s1.cold_errors));
    v.insert("cold.resident", s1.cold_resident as f64);
    let logged = (fleet.engine().batches() - seq0) as f64;
    v.insert("wal.fsyncs_per_batch", (fleet.wal_fsync_count() - fsync0) as f64 / logged);
    v.insert("persist.submit_us", mean(&st.submit_us));
    v.insert("persist.disk_mib", dir_mib(&dir));
    v.insert("cold.file_mib", dir_mib(&dir.join("cold")));
    // batches whose submission triggered a snapshot, and batches carrying
    // a key back from the cold tier
    let snap: Vec<f64> = (0..st.lat_ms.len())
        .filter(|i| (seq0 + *i as u64 + 1).is_multiple_of(SNAPSHOT_EVERY))
        .map(|i| st.lat_ms[i])
        .collect();
    let back: Vec<f64> =
        (0..st.lat_ms.len()).filter(|i| src.returning[*i]).map(|i| st.lat_ms[i]).collect();
    println!(
        "#   {} batches: {} snapshot batches (mean {:.2} ms), {} carrying returning keys \
         (mean {:.2} ms)",
        st.batches,
        snap.len(),
        mean(&snap),
        back.len(),
        mean(&back)
    );
    v.insert("persist.snapshot_batch_ms", mean(&snap));
    v.insert("cold.rehydrate_batch_ms", mean(&back));
    v.insert("wal.fsync_us", fsync_probe(&base)?);

    // crash: drop without close, then recover; the recovered fleet must
    // hold the same counters and continue the stream
    let before = (fleet.engine().batches(), s1.points, s1.admitted);
    drop(fleet);
    let t0 = Instant::now();
    let mut fleet = DurableFleet::open(dcfg()).map_err(e)?;
    let open_ms = t0.elapsed().as_secs_f64() * 1e3;
    checker.attempted += 1;
    let rs = fleet.engine().stats().map_err(e)?;
    let after = (fleet.engine().batches(), rs.points, rs.admitted);
    if after != before {
        checker.fail(|| {
            format!(
                "recovery: (batches, points, admitted) {after:?}, before the crash {before:?}"
            )
        });
    }
    let replayed = (fleet.engine().batches() - fleet.durable_snapshot()) as f64;
    println!(
        "#   crash recovery: DurableFleet::open {open_ms:.2} ms, {replayed} batches replayed"
    );
    v.insert("persist.replay_batches", replayed);
    let plan = Plan { batch: BATCH, batches: 16, forecast_every: 0 };
    closed_loop(&mut fleet, &mut src, &mut checker, &key_ok, plan, &mut Tracer::new(false))
        .map_err(e)?;
    let refs = checker.replay(&cfg);
    let sample_keys: Vec<SeriesKey> =
        refs.iter().map(|(id, _)| keys.borrow()[id].0.clone()).collect();
    let got = fleet.engine().forecast(&sample_keys, PERIOD as usize).map_err(e)?;
    // keys spilled to the cold tier answer no forecast until they return
    let (live_refs, live_got): (Vec<_>, Vec<_>) =
        refs.into_iter().zip(got).filter(|(_, g)| g.is_some()).unzip();
    checker.check_forecasts(&live_refs, &live_got, None);
    fleet.close().map_err(e)?;
    let _ = std::fs::remove_dir_all(&base);
    if checker.failed > 0 {
        return Err(format!("durability probe: {} failed operations", checker.failed));
    }
    Ok(())
}
