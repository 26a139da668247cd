//! Pins the zero-allocation guarantee of the fleet's detection-backend
//! hot path: after construction and warm-up, [`SeriesBackend::observe`]
//! performs **zero heap allocations** per point for both backends (the
//! trend CUSUM alone and its ensemble with the fused verdict) —
//! including alarming points and non-finite input.
//!
//! Same counting-allocator technique as `core/tests/zero_alloc.rs`; the
//! counter is thread-local so libtest's background threads cannot fail
//! the invariant spuriously. CI runs this test file explicitly
//! (`--test zero_alloc` in the fleet package), so deleting or renaming
//! it fails the build — the regression guard cannot be skipped silently.

use fleet::{BackendSelect, SeriesBackend};
use oneshotstl::{ScoreConfig, ScoreVerdict};
use std::alloc::{GlobalAlloc, Layout, System};
use tskit::series::DecompPoint;

/// Counts every allocation request routed to the system allocator, per
/// thread (see `core/tests/zero_alloc.rs` for why per-thread matters).
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

/// Deterministic noise in [-1, 1) (same LCG as the core test), so the
/// trend innovations are non-trivial without an RNG dep.
fn noise_stream(n: usize, scale: f64) -> Vec<f64> {
    let mut state = 0x5eed_u64;
    (0..n)
        .map(|_| {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            (((state >> 11) as f64 / (1u64 << 53) as f64) * 2.0 - 1.0) * scale
        })
        .collect()
}

/// Everything the streams need, allocated up front: a noisy, slowly
/// wandering trend with a level shift at `shift_at`.
fn points(n: usize, shift_at: usize) -> Vec<DecompPoint> {
    let noise = noise_stream(n, 0.01);
    (0..n)
        .map(|i| DecompPoint {
            trend: 10.0
                + 0.05 * (2.0 * std::f64::consts::PI * i as f64 / 200.0).sin()
                + noise[i]
                + if i >= shift_at { 5.0 } else { 0.0 },
            seasonal: 0.0,
            residual: 0.0,
        })
        .collect()
}

/// One [`SeriesBackend`] in steady state: plain points, a trend level
/// shift under an alarming fused verdict (every verdict input fires at
/// once), non-finite input, and the stream after it — all
/// allocation-free after warm-up.
fn assert_observe_allocation_free(select: BackendSelect) {
    let pts = points(2_200, 1_100);
    let mut b = SeriesBackend::build(select, 0.5).expect("non-fused backends build");
    let quiet = ScoreVerdict { score: 0.1, z: 0.1, cusum: 0.0, is_anomaly: false };
    let loud = ScoreVerdict { score: 6.0, z: 6.0, cusum: 2.0, is_anomaly: true };

    // warm-up: the trend-CUSUM innovation statistics
    for p in &pts[..300] {
        std::hint::black_box(b.observe(p, &quiet));
    }

    // 1) plain steady-state points
    let before = allocs();
    for p in &pts[300..1_100] {
        std::hint::black_box(b.observe(p, &quiet));
    }
    assert_eq!(allocs() - before, 0, "[{select:?}] steady-state observe allocated");

    // 2) the level shift with an alarming fused verdict
    let before = allocs();
    for p in &pts[1_100..2_100] {
        std::hint::black_box(b.observe(p, &loud));
    }
    assert_eq!(allocs() - before, 0, "[{select:?}] alarming observe allocated");
    assert!(b.trend_alarms() > 0, "[{select:?}] the shift must trip the trend channel");

    // 3) non-finite input through the full dispatch
    let before = allocs();
    std::hint::black_box(
        b.observe(&DecompPoint { trend: f64::NAN, seasonal: 0.0, residual: f64::NAN }, &quiet),
    );
    assert_eq!(allocs() - before, 0, "[{select:?}] non-finite observe allocated");

    // 4) and the stream continues allocation-free
    let before = allocs();
    for p in &pts[2_100..] {
        std::hint::black_box(b.observe(p, &quiet));
    }
    assert_eq!(allocs() - before, 0, "[{select:?}] post-excursion observe allocated");
}

/// The trend-CUSUM backend on its own.
#[test]
fn trend_cusum_backend_observe_performs_zero_heap_allocations() {
    assert_observe_allocation_free(BackendSelect::TrendCusum(ScoreConfig::default()));
}

/// The ensemble dispatch: trend CUSUM plus the fused verdict, fused
/// as score = max and verdict = OR.
#[test]
fn ensemble_observe_performs_zero_heap_allocations() {
    assert_observe_allocation_free(BackendSelect::Ensemble(ScoreConfig::default()));
}
