//! Pins the zero-allocation guarantee of the steady-state online update
//! path: after initialization (and one scratch-buffer warm-up update), a
//! [`OneShotStl::update`] performs **zero heap allocations** — including
//! updates that trigger the §3.4 seasonality-shift search (under both the
//! default pruned `TopK` policy, whose stage-1 proxy scoring uses a
//! fixed-size scratch, and the exhaustive `Off` policy that runs all
//! `2H + 1` retry trials), and updates that impute non-finite input.
//! A second test extends the guarantee to the fused residual-scoring
//! path (CUSUM + peak-hold on top of the decomposition), a third to
//! the trend-innovation CUSUM backend (`TrendCusum`), a fourth to
//! several models stepped through one shared `UpdateScratch`
//! (`OneShotStl::update_with_scratch`, the fleet shard's one-row path),
//! a fifth to models stepped two at a time through it
//! (`OneShotStl::update_pair_with_scratch`, the shard's paired sweep), and
//! a sixth to the first updates of a model initialized after that
//! scratch is sized (a fleet admission round).
//!
//! The counting global allocator below makes the claim a hard test rather
//! than a code-review property. CI runs this test file explicitly
//! (`--test zero_alloc`), so deleting or renaming it fails the build — the
//! regression guard cannot be skipped silently.

use decomp::traits::OnlineDecomposer;
use oneshotstl::{OneShotStl, OneShotStlConfig, ShiftPrune, UpdateScratch};
use std::alloc::{GlobalAlloc, Layout, System};

/// Counts every allocation request routed to the system allocator,
/// **per thread**: the libtest harness keeps background threads alive
/// (hang-detection / reporting) that may allocate at any moment, and a
/// process-wide counter picks those up as rare spurious failures. The
/// update path under test runs entirely on the test thread, so its
/// thread-local count is the exact quantity the invariant covers.
/// `Cell<u64>` is const-initialized and has no destructor, so touching it
/// from inside the allocator can never recurse or hit TLS teardown.
struct CountingAlloc;

thread_local! {
    static ALLOCS: std::cell::Cell<u64> = const { std::cell::Cell::new(0) };
}

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCS.with(|c| c.set(c.get() + 1));
        System.alloc(layout)
    }
    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        ALLOCS.with(|c| c.set(c.get() + 1));
        System.alloc_zeroed(layout)
    }
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCS.with(|c| c.set(c.get() + 1));
        System.realloc(ptr, layout, new_size)
    }
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

fn allocs() -> u64 {
    ALLOCS.with(|c| c.get())
}

fn assert_zero_alloc_stream(search: ShiftPrune, label: &str) {
    let t = 48usize;
    let n = 4 * t + 2_000;
    // everything the stream needs is allocated up front
    let y: Vec<f64> = (0..n)
        .map(|i| 2.0 + (2.0 * std::f64::consts::PI * i as f64 / t as f64).sin())
        .collect();
    let mut m =
        OneShotStl::new(OneShotStlConfig { shift_search: search, ..Default::default() });
    m.init(&y[..4 * t], t).unwrap();
    // warm-up: the first updates size the scratch buffers (the noise-free
    // stream false-alarms early, sizing the trial *and* stage-1 proxy
    // buffers)
    for &v in &y[4 * t..4 * t + 16] {
        std::hint::black_box(m.update(v));
    }
    let (searches, _) = m.shift_search_stats();
    assert!(searches > 0, "[{label}] warm-up must exercise the shift search");

    // 1) plain steady-state updates
    let before = allocs();
    for &v in &y[4 * t + 16..4 * t + 1_016] {
        std::hint::black_box(m.update(v));
    }
    assert_eq!(allocs() - before, 0, "[{label}] steady-state update allocated");

    // 2) an anomalous spike: NSigma flags it and the §3.4 shift search
    //    runs its trials (all 2H+1 under Off, proxy-pruned under TopK;
    //    H = 20 with paper defaults)
    let before = allocs();
    std::hint::black_box(m.update(y[4 * t + 1_016] + 50.0));
    assert_eq!(allocs() - before, 0, "[{label}] shift-retry update allocated");

    // 3) non-finite input: the imputation path
    let before = allocs();
    std::hint::black_box(m.update(f64::NAN));
    assert_eq!(allocs() - before, 0, "[{label}] imputing update allocated");

    // 4) and the stream continues allocation-free after both excursions
    let before = allocs();
    for &v in &y[4 * t + 1_017..4 * t + 1_517] {
        std::hint::black_box(m.update(v));
    }
    assert_eq!(allocs() - before, 0, "[{label}] post-excursion update allocated");
}

/// The hard case: a *noisy* stream keeps NSigma calibrated, so the very
/// first shift search happens long after warm-up — and the next one right
/// after it (a winning candidate's buffer swap must not leave an
/// unsized buffer behind). Both flagged updates must allocate nothing:
/// every search buffer is pre-sized on plain updates.
fn assert_zero_alloc_late_flags(search: ShiftPrune, label: &str) {
    let t = 48usize;
    let mut state = 0x5eed_u64;
    let mut noise = move || {
        state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
        ((state >> 11) as f64 / (1u64 << 53) as f64) * 2.0 - 1.0
    };
    let y: Vec<f64> = (0..4 * t + 600)
        .map(|i| 2.0 + (2.0 * std::f64::consts::PI * i as f64 / t as f64).sin() + 0.1 * noise())
        .collect();
    let mut m =
        OneShotStl::new(OneShotStlConfig { shift_search: search, ..Default::default() });
    m.init(&y[..4 * t], t).unwrap();
    for &v in &y[4 * t..4 * t + 500] {
        std::hint::black_box(m.update(v));
    }
    let (searches, _) = m.shift_search_stats();
    assert_eq!(searches, 0, "[{label}] the noisy warm-up must stay calm — no search yet");
    // two consecutive flagged updates: the first exercises a fresh search,
    // the second the post-swap buffer state
    for (i, spike) in [50.0, 500.0].into_iter().enumerate() {
        let before = allocs();
        std::hint::black_box(m.update(y[4 * t + 500 + i] + spike));
        assert_eq!(allocs() - before, 0, "[{label}] late flagged update {i} allocated");
    }
    let (searches, _) = m.shift_search_stats();
    assert_eq!(searches, 2, "[{label}] both spikes must have run the search");
}

/// One test covers every hot-path branch — under both shift-search
/// policies — on one thread, whose thread-local counter is immune to
/// harness background threads.
#[test]
fn steady_state_update_performs_zero_heap_allocations() {
    assert_zero_alloc_stream(ShiftPrune::default(), "pruned TopK (default)");
    assert_zero_alloc_stream(ShiftPrune::Off, "exhaustive Off");
    assert_zero_alloc_late_flags(ShiftPrune::default(), "late flags, pruned");
    assert_zero_alloc_late_flags(ShiftPrune::Off, "late flags, exhaustive");
}

/// The fused residual-scoring path (`StdAnomalyDetector` →
/// `ResidualScorer`: NSigma z + two-sided CUSUM + peak-hold) inherits the
/// hot-path guarantee: its state is three `f64` accumulators on top of
/// NSigma's running sums, so a full scored update — decompose + fuse +
/// verdict — performs zero heap allocations in steady state, across
/// every fusion mode, CUSUM alarms (reset-on-alarm), the flagged
/// shift-search path, and non-finite input.
#[test]
fn fused_scoring_update_performs_zero_heap_allocations() {
    use oneshotstl::{Fusion, ScoreConfig, StdAnomalyDetector};
    for (fusion, label) in
        [(Fusion::Off, "Off"), (Fusion::Cusum, "Cusum"), (Fusion::Max, "Max (default)")]
    {
        let t = 48usize;
        let n = 4 * t + 2_000;
        let y: Vec<f64> = (0..n)
            .map(|i| 2.0 + (2.0 * std::f64::consts::PI * i as f64 / t as f64).sin())
            .collect();
        let score = ScoreConfig { fusion, ..Default::default() };
        let mut det = StdAnomalyDetector::with_score(
            OneShotStl::new(OneShotStlConfig::default()),
            5.0,
            score,
        );
        det.init(&y[..4 * t], t).unwrap();
        // warm-up: size the decomposer's scratch buffers
        for &v in &y[4 * t..4 * t + 16] {
            std::hint::black_box(det.update_scored(v));
        }

        // 1) plain steady-state scored updates
        let before = allocs();
        for &v in &y[4 * t + 16..4 * t + 1_016] {
            std::hint::black_box(det.update_scored(v));
        }
        assert_eq!(allocs() - before, 0, "[{label}] steady-state scored update allocated");

        // 2) a spike: z alarm + CUSUM jump + shift-search trials, and a
        //    drift long enough to trip the CUSUM bar and reset-on-alarm
        let before = allocs();
        std::hint::black_box(det.update_scored(y[4 * t + 1_016] + 50.0));
        for i in 0..40 {
            std::hint::black_box(det.update_scored(y[4 * t + 1_017 + i] + 0.4));
        }
        assert_eq!(allocs() - before, 0, "[{label}] alarming scored update allocated");

        // 3) non-finite input: the guarded path
        let before = allocs();
        std::hint::black_box(det.update_scored(f64::NAN));
        assert_eq!(allocs() - before, 0, "[{label}] non-finite scored update allocated");

        // 4) and the stream continues allocation-free
        let before = allocs();
        for &v in &y[4 * t + 1_057..4 * t + 1_557] {
            std::hint::black_box(det.update_scored(v));
        }
        assert_eq!(allocs() - before, 0, "[{label}] post-excursion scored update allocated");
    }
}

/// The trend-innovation CUSUM (`TrendCusum`) is a `ResidualScorer` over
/// trend first-differences plus two scalars — its steady-state `update`
/// (including warm-up absorption, alarms with reset, and the non-finite
/// guard) performs zero heap allocations. This is the backend contract
/// the fleet's `SeriesBackend` dispatch relies on.
#[test]
fn trend_cusum_update_performs_zero_heap_allocations() {
    use oneshotstl::{ScoreConfig, TrendCusum};
    let mut t = TrendCusum::new(5.0, ScoreConfig::default());
    // trend stream allocated up front: gentle wander, then a walk
    let trends: Vec<f64> = (0..2_000)
        .map(|i| 10.0 + 0.05 * (2.0 * std::f64::consts::PI * i as f64 / 200.0).sin())
        .collect();
    t.seed(&trends[..64]);

    // 1) plain steady-state updates
    let before = allocs();
    for &v in &trends[64..1_064] {
        std::hint::black_box(t.update(v));
    }
    assert_eq!(allocs() - before, 0, "steady-state trend update allocated");

    // 2) a sustained walk: the CUSUM charges, alarms, and resets
    let before = allocs();
    for i in 0..200 {
        std::hint::black_box(t.update(trends[1_064] + 0.2 * i as f64));
    }
    assert_eq!(allocs() - before, 0, "alarming trend update allocated");
    let (_, cusum_alarms) = t.alarm_counts();
    assert!(cusum_alarms > 0, "the walk must have tripped the CUSUM");

    // 3) non-finite input: the guarded path
    let before = allocs();
    std::hint::black_box(t.update(f64::NAN));
    assert_eq!(allocs() - before, 0, "non-finite trend update allocated");

    // 4) and the stream continues allocation-free
    let before = allocs();
    for &v in &trends[1_064..1_564] {
        std::hint::black_box(t.update(v));
    }
    assert_eq!(allocs() - before, 0, "post-excursion trend update allocated");
}

/// Models sharing the scratch in the shared-scratch case.
const MODELS: usize = 4;

/// A group of models stepped round-robin through one `UpdateScratch`
/// (`OneShotStl::update_with_scratch`, the fleet shard's sweep) keep the
/// guarantee: after the first rounds size the shared scratch, nothing
/// allocates — including a round in which one model's *first* flag
/// arrives long after warm-up (its §3.4 search runs on buffers pre-sized
/// by plain updates of other models), a round with flags on two models
/// back to back, and a model with non-finite input.
#[test]
fn grouped_update_performs_zero_heap_allocations() {
    for (search, label) in [(ShiftPrune::default(), "pruned"), (ShiftPrune::Off, "exhaustive")]
    {
        let t = 48usize;
        let mut state = 0x1a7e_u64;
        let mut noise = move || {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            ((state >> 11) as f64 / (1u64 << 53) as f64) * 2.0 - 1.0
        };
        // one noisy stream per model, phase-offset so the models differ
        let ys: Vec<Vec<f64>> = (0..MODELS)
            .map(|q| {
                (0..4 * t + 600)
                    .map(|i| {
                        2.0 + (2.0 * std::f64::consts::PI * (i + 5 * q) as f64 / t as f64).sin()
                            + 0.1 * noise()
                    })
                    .collect()
            })
            .collect();
        let mut models: Vec<OneShotStl> = ys
            .iter()
            .map(|y| {
                let mut m = OneShotStl::new(OneShotStlConfig {
                    shift_search: search,
                    ..Default::default()
                });
                m.init(&y[..4 * t], t).unwrap();
                m
            })
            .collect();
        let mut scratch = UpdateScratch::default();
        // one round: every model takes its point at `at`, plus its bump
        let mut round = |models: &mut Vec<OneShotStl>, at: usize, bump: [f64; MODELS]| {
            for (q, m) in models.iter_mut().enumerate() {
                std::hint::black_box(m.update_with_scratch(ys[q][at] + bump[q], &mut scratch));
            }
        };
        // warm-up: the first rounds size the shared scratch
        for i in 0..16 {
            round(&mut models, 4 * t + i, [0.0; MODELS]);
        }

        // 1) plain steady-state rounds
        let before = allocs();
        for i in 16..500 {
            round(&mut models, 4 * t + i, [0.0; MODELS]);
        }
        assert_eq!(allocs() - before, 0, "[{label}] steady-state round allocated");
        let searches = |models: &[OneShotStl]| -> Vec<u64> {
            models.iter().map(|m| m.shift_search_stats().0).collect()
        };
        assert_eq!(
            searches(&models),
            [0; MODELS],
            "[{label}] the noisy warm-up must stay calm"
        );

        // 2) a late first flag on the last model, then flags on the first
        //    and last models of the next round (the post-swap buffer
        //    state)
        let before = allocs();
        let mut spike = [0.0; MODELS];
        spike[MODELS - 1] = 50.0;
        round(&mut models, 4 * t + 500, spike);
        spike = [0.0; MODELS];
        spike[0] = 500.0;
        spike[MODELS - 1] = 500.0;
        round(&mut models, 4 * t + 501, spike);
        assert_eq!(allocs() - before, 0, "[{label}] flagged round allocated");
        let mut want = vec![0; MODELS];
        want[0] = 1;
        want[MODELS - 1] = 2;
        assert_eq!(searches(&models), want, "[{label}] the spikes must have run the search");

        // 3) non-finite input on one model: the imputation path
        let before = allocs();
        let mut nan = [0.0; MODELS];
        nan[0] = f64::NAN;
        round(&mut models, 4 * t + 502, nan);
        assert_eq!(allocs() - before, 0, "[{label}] imputing round allocated");

        // 4) and the streams continue allocation-free
        let before = allocs();
        for i in 503..600 {
            round(&mut models, 4 * t + i, [0.0; MODELS]);
        }
        assert_eq!(allocs() - before, 0, "[{label}] post-excursion round allocated");
    }
}

/// Models stepped two at a time through one `UpdateScratch`
/// (`OneShotStl::update_pair_with_scratch`, the fleet shard's paired
/// sweep) keep the guarantee: after the first rounds size the shared
/// scratch and its second baseline buffer, nothing allocates — including
/// a pair whose second lane takes its *first* flag long after warm-up, a
/// pair flagged on both lanes at once (two searches from two lane
/// baselines), a lane with non-finite input, and a searching lane paired
/// with one that runs no search.
#[test]
fn paired_update_performs_zero_heap_allocations() {
    for (search, label) in [(ShiftPrune::default(), "pruned"), (ShiftPrune::Off, "exhaustive")]
    {
        let t = 48usize;
        let mut state = 0x9a1d_u64;
        let mut noise = move || {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            ((state >> 11) as f64 / (1u64 << 53) as f64) * 2.0 - 1.0
        };
        let ys: Vec<Vec<f64>> = (0..MODELS)
            .map(|q| {
                (0..4 * t + 600)
                    .map(|i| {
                        2.0 + (2.0 * std::f64::consts::PI * (i + 7 * q) as f64 / t as f64).sin()
                            + 0.1 * noise()
                    })
                    .collect()
            })
            .collect();
        let mut models: Vec<OneShotStl> = ys
            .iter()
            .map(|y| {
                let mut m = OneShotStl::new(OneShotStlConfig {
                    shift_search: search,
                    ..Default::default()
                });
                m.init(&y[..4 * t], t).unwrap();
                m
            })
            .collect();
        let mut scratch = UpdateScratch::default();
        // one round: models (0, 1), (2, 3), … step as pairs at `at`
        let mut round = |models: &mut Vec<OneShotStl>, at: usize, bump: [f64; MODELS]| {
            for (p, pair) in models.chunks_exact_mut(2).enumerate() {
                let [a, b] = pair else { unreachable!("chunks of two") };
                let ys = [ys[2 * p][at] + bump[2 * p], ys[2 * p + 1][at] + bump[2 * p + 1]];
                std::hint::black_box(OneShotStl::update_pair_with_scratch(
                    [a, b],
                    ys,
                    &mut scratch,
                ));
            }
        };
        // warm-up: the first paired rounds size the shared scratch
        for i in 0..16 {
            round(&mut models, 4 * t + i, [0.0; MODELS]);
        }

        // 1) plain steady-state rounds
        let before = allocs();
        for i in 16..500 {
            round(&mut models, 4 * t + i, [0.0; MODELS]);
        }
        assert_eq!(allocs() - before, 0, "[{label}] steady-state paired round allocated");
        let searches = |models: &[OneShotStl]| -> Vec<u64> {
            models.iter().map(|m| m.shift_search_stats().0).collect()
        };
        assert_eq!(
            searches(&models),
            [0; MODELS],
            "[{label}] the noisy warm-up must stay calm"
        );

        // 2) a late first flag on the second lane of the last pair, then
        //    flags on both lanes of the first pair
        let before = allocs();
        let mut spike = [0.0; MODELS];
        spike[MODELS - 1] = 50.0;
        round(&mut models, 4 * t + 500, spike);
        spike = [0.0; MODELS];
        spike[0] = 500.0;
        spike[1] = 500.0;
        round(&mut models, 4 * t + 501, spike);
        assert_eq!(allocs() - before, 0, "[{label}] flagged paired round allocated");
        let mut want = vec![0; MODELS];
        want[0] = 1;
        want[1] = 1;
        want[MODELS - 1] = 1;
        assert_eq!(searches(&models), want, "[{label}] the spikes must have run the search");

        // 3) non-finite input on one lane: the imputation path
        let before = allocs();
        let mut nan = [0.0; MODELS];
        nan[1] = f64::NAN;
        round(&mut models, 4 * t + 502, nan);
        assert_eq!(allocs() - before, 0, "[{label}] imputing paired round allocated");

        // 4) and the streams continue allocation-free
        let before = allocs();
        for i in 503..600 {
            round(&mut models, 4 * t + i, [0.0; MODELS]);
        }
        assert_eq!(allocs() - before, 0, "[{label}] post-excursion paired round allocated");
    }

    // a pair whose first lane runs no shift search, moved after 16
    // points onto a fresh scratch: the paired updates must size the
    // second lane's search buffers, so its late first flag allocates
    // nothing either
    let t = 48usize;
    let y: Vec<f64> = (0..4 * t + 300)
        .map(|i| 2.0 + (2.0 * std::f64::consts::PI * i as f64 / t as f64).sin())
        .collect();
    let mut pair: Vec<OneShotStl> = [0, 20]
        .map(|shift_window| {
            let mut m =
                OneShotStl::new(OneShotStlConfig { shift_window, ..Default::default() });
            m.init(&y[..4 * t], t).unwrap();
            m
        })
        .into();
    let step = |pair: &mut Vec<OneShotStl>, scratch: &mut UpdateScratch<_>, at: usize, bump| {
        let [a, b] = &mut pair[..] else { unreachable!("two lanes") };
        let ys = [y[at], y[at] + bump];
        std::hint::black_box(OneShotStl::update_pair_with_scratch([a, b], ys, scratch));
    };
    let mut scratch = UpdateScratch::default();
    for i in 0..16 {
        step(&mut pair, &mut scratch, 4 * t + i, 0.0);
    }
    let mut scratch = UpdateScratch::default();
    for i in 16..20 {
        step(&mut pair, &mut scratch, 4 * t + i, 0.0);
    }
    let searches = pair[1].shift_search_stats().0;
    let before = allocs();
    for i in 20..250 {
        step(&mut pair, &mut scratch, 4 * t + i, 0.0);
    }
    step(&mut pair, &mut scratch, 4 * t + 250, 50.0);
    assert_eq!(allocs() - before, 0, "a late flag on the searching lane allocated");
    assert!(pair[1].shift_search_stats().0 > searches, "the spike must have run the search");
}

/// A model initialized after the shared `UpdateScratch` is sized takes
/// its first 16 updates allocation-free, alone (`update_with_scratch`)
/// and paired (`update_pair_with_scratch`, with another new model and
/// with an older one): its solvers are plain old data from the first
/// point, so the trial buffers the scratch holds take its iteration
/// states without a heap block. A fleet shard's admission round starts
/// every new series this way.
#[test]
fn first_updates_after_init_perform_zero_heap_allocations() {
    let t = 48usize;
    let n = 4 * t + 32;
    let ys: Vec<Vec<f64>> = (0..MODELS)
        .map(|q| {
            (0..n)
                .map(|i| {
                    2.0 + (2.0 * std::f64::consts::PI * (i + 5 * q) as f64 / t as f64).sin()
                })
                .collect()
        })
        .collect();
    let init = |q: usize| {
        let mut m = OneShotStl::new(OneShotStlConfig::default());
        m.init(&ys[q][..4 * t], t).unwrap();
        m
    };
    // older models size the scratch, alone and paired
    let mut scratch = UpdateScratch::default();
    let [mut a, mut b] = [init(0), init(1)];
    for i in 0..16 {
        let at = 4 * t + i;
        std::hint::black_box(a.update_with_scratch(ys[0][at], &mut scratch));
        let ys = [ys[0][at], ys[1][at]];
        std::hint::black_box(OneShotStl::update_pair_with_scratch(
            [&mut a, &mut b],
            ys,
            &mut scratch,
        ));
    }
    // new models: their init allocates, their first updates do not
    let [mut alone, mut c, mut d] = [init(1), init(2), init(3)];
    let before = allocs();
    for i in 0..16 {
        let at = 4 * t + i;
        std::hint::black_box(alone.update_with_scratch(ys[1][at], &mut scratch));
        let pair = [&mut c, &mut d];
        std::hint::black_box(OneShotStl::update_pair_with_scratch(
            pair,
            [ys[2][at], ys[3][at]],
            &mut scratch,
        ));
    }
    assert_eq!(allocs() - before, 0, "a new model's first updates allocated");
    // a new model paired with an older one
    let mut e = init(3);
    let before = allocs();
    for i in 0..16 {
        let ys = [ys[0][4 * t + 16 + i], ys[3][4 * t + i]];
        std::hint::black_box(OneShotStl::update_pair_with_scratch(
            [&mut a, &mut e],
            ys,
            &mut scratch,
        ));
    }
    assert_eq!(allocs() - before, 0, "a new model paired with an older one allocated");
}
