//! Pins the zero-allocation guarantee of the steady-state online update
//! path: after initialization (and one scratch-buffer warm-up update), a
//! [`OneShotStl::update`] performs **zero heap allocations** — including
//! updates that trigger the §3.4 seasonality-shift search (under both the
//! default pruned `TopK` policy, whose stage-1 proxy scoring uses a
//! fixed-size scratch, and the exhaustive `Off` policy that runs all
//! `2H + 1` retry trials), and updates that impute non-finite input.
//! A second test extends the guarantee to the fused residual-scoring
//! path (CUSUM + peak-hold on top of the decomposition), a third to
//! the trend-innovation CUSUM backend (`TrendCusum`), and a fourth to the
//! grouped lockstep update (`OneShotStl::update_lanes`).
//!
//! The counting global allocator below makes the claim a hard test rather
//! than a code-review property. CI runs this test file explicitly
//! (`--test zero_alloc`), so deleting or renaming it fails the build — the
//! regression guard cannot be skipped silently.

use decomp::traits::OnlineDecomposer;
use oneshotstl::{OneShotStl, OneShotStlConfig, ShiftSearchConfig, UpdateScratch};
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

fn assert_zero_alloc_stream(search: ShiftSearchConfig, label: &str) {
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
    // buffers) and walk the solvers through their 4-step warm-up into the
    // POD steady state
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
fn assert_zero_alloc_late_flags(search: ShiftSearchConfig, label: &str) {
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
    assert_zero_alloc_stream(ShiftSearchConfig::default(), "pruned TopK (default)");
    assert_zero_alloc_stream(ShiftSearchConfig::exhaustive(), "exhaustive Off");
    assert_zero_alloc_late_flags(ShiftSearchConfig::default(), "late flags, pruned");
    assert_zero_alloc_late_flags(ShiftSearchConfig::exhaustive(), "late flags, exhaustive");
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

/// Lanes of the grouped case: wider than the fleet's `LANES`, so several
/// lanes step in lockstep whatever width the fleet uses.
const GROUP: usize = 4;

/// The grouped update (`OneShotStl::update_lanes`, the fleet shard's
/// sweep) keeps the guarantee: after the first group sizes the shared
/// scratch, lockstep groups allocate nothing — including a group in which
/// one lane's *first* flag arrives long after warm-up (its §3.4 search
/// runs on buffers pre-sized by plain groups), a group with flags on two
/// lanes back to back, and a lane with non-finite input.
#[test]
fn grouped_update_performs_zero_heap_allocations() {
    for (search, label) in [
        (ShiftSearchConfig::default(), "pruned"),
        (ShiftSearchConfig::exhaustive(), "exhaustive"),
    ] {
        let t = 48usize;
        let mut state = 0x1a7e_u64;
        let mut noise = move || {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            ((state >> 11) as f64 / (1u64 << 53) as f64) * 2.0 - 1.0
        };
        // one noisy stream per lane, phase-offset so the lanes differ
        let ys: Vec<Vec<f64>> = (0..GROUP)
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
        let mut group = |models: &mut Vec<OneShotStl>, at: usize, bump: [f64; GROUP]| {
            let vals: [f64; GROUP] = std::array::from_fn(|q| ys[q][at] + bump[q]);
            let lanes: &mut [OneShotStl; GROUP] = models.as_mut_slice().try_into().unwrap();
            std::hint::black_box(OneShotStl::update_lanes(
                lanes.each_mut(),
                vals,
                &mut scratch,
            ));
        };
        // warm-up: the solvers leave their 4-point warm-up and the first
        // groups size the shared scratch
        for i in 0..16 {
            group(&mut models, 4 * t + i, [0.0; GROUP]);
        }

        // 1) plain steady-state groups
        let before = allocs();
        for i in 16..500 {
            group(&mut models, 4 * t + i, [0.0; GROUP]);
        }
        assert_eq!(allocs() - before, 0, "[{label}] steady-state group allocated");
        let searches = |models: &[OneShotStl]| -> Vec<u64> {
            models.iter().map(|m| m.shift_search_stats().0).collect()
        };
        assert_eq!(searches(&models), [0; GROUP], "[{label}] the noisy warm-up must stay calm");

        // 2) a late first flag on one lane inside a group, then flags on
        //    the first and last lanes of the next group (the post-swap
        //    buffer state)
        let before = allocs();
        let mut spike = [0.0; GROUP];
        spike[GROUP - 1] = 50.0;
        group(&mut models, 4 * t + 500, spike);
        spike = [0.0; GROUP];
        spike[0] = 500.0;
        spike[GROUP - 1] = 500.0;
        group(&mut models, 4 * t + 501, spike);
        assert_eq!(allocs() - before, 0, "[{label}] flagged group allocated");
        let mut want = vec![0; GROUP];
        want[0] = 1;
        want[GROUP - 1] = 2;
        assert_eq!(searches(&models), want, "[{label}] the spikes must have run the search");

        // 3) non-finite input on one lane: the imputation path
        let before = allocs();
        let mut nan = [0.0; GROUP];
        nan[0] = f64::NAN;
        group(&mut models, 4 * t + 502, nan);
        assert_eq!(allocs() - before, 0, "[{label}] imputing group allocated");

        // 4) and the stream continues allocation-free
        let before = allocs();
        for i in 503..600 {
            group(&mut models, 4 * t + i, [0.0; GROUP]);
        }
        assert_eq!(allocs() - before, 0, "[{label}] post-excursion group allocated");
    }
}
