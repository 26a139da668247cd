//! Pins the zero-allocation guarantee of the LOESS kernel: a
//! [`loess_point`] fit — degrees 0, 1 and 2, with and without robustness
//! weights, inside and just outside the data — performs **zero heap
//! allocations**, and so does smoothing into caller-provided buffers
//! ([`loess_into`], [`loess_extended_into`]) or through a prebuilt
//! [`LoessPlan`]. Every series admission runs hundreds of these fits in its
//! STL initialization.
//!
//! The counting global allocator below makes the claim a hard test rather
//! than a code-review property. CI runs this test file explicitly
//! (`--test zero_alloc`), so deleting or renaming it fails the build.

use std::alloc::{GlobalAlloc, Layout, System};
use std::hint::black_box;
use tskit::loess::{loess_extended_into, loess_into, loess_point, LoessConfig, LoessPlan};

/// Counts allocation requests per thread (the test harness's own threads
/// may allocate at any moment; the code under test runs on the test
/// thread).
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

/// A 72-point seasonal window (three cycles of 24, the default
/// initialization length) and robustness weights with a zeroed outlier.
fn inputs() -> (Vec<f64>, Vec<f64>) {
    let y: Vec<f64> = (0..72)
        .map(|i| (2.0 * std::f64::consts::PI * i as f64 / 24.0).sin() + 0.01 * i as f64)
        .collect();
    let rob: Vec<f64> = (0..72).map(|i| if i == 30 { 0.0 } else { 0.9 }).collect();
    (y, rob)
}

#[test]
fn loess_point_is_allocation_free_on_every_degree() {
    let (y, rob) = inputs();
    for degree in 0..=2 {
        for span in [7, 25, 101] {
            let cfg = LoessConfig::new(span).degree(degree);
            let before = allocs();
            for x in -1..=y.len() as i64 {
                black_box(loess_point(&y, x as f64, &cfg, None));
                black_box(loess_point(&y, x as f64, &cfg, Some(&rob)));
            }
            let n = allocs() - before;
            assert_eq!(n, 0, "degree {degree}, span {span}: {n} allocations");
        }
    }
}

#[test]
fn smoothing_into_buffers_is_allocation_free() {
    let (y, rob) = inputs();
    let mut out = vec![0.0; y.len()];
    let mut ext = vec![0.0; y.len() + 2];
    let before = allocs();
    for jump in [1, 8] {
        let cfg = LoessConfig::new(25).jump(jump);
        loess_into(&y, &cfg, Some(&rob), &mut out);
        loess_extended_into(&y, &cfg, None, &mut ext);
        black_box((&out, &ext));
    }
    let n = allocs() - before;
    assert_eq!(n, 0, "{n} allocations");
}

#[test]
fn plan_apply_is_allocation_free() {
    let (y, mut rob) = inputs();
    let mut out = vec![0.0; y.len()];
    // STL's low-pass and trend spans at T = 24, a span above n, and a
    // configuration the plan hands to `loess_into`
    let plans: Vec<LoessPlan> = [
        LoessConfig::new(25),
        LoessConfig::new(37),
        LoessConfig::new(101),
        LoessConfig::new(25).jump(8),
    ]
    .iter()
    .map(|cfg| LoessPlan::new(y.len(), cfg))
    .collect();
    let before = allocs();
    for plan in &plans {
        plan.apply(&y, None, &mut out);
        black_box(&out);
        plan.apply(&y, Some(&rob), &mut out);
        black_box(&out);
    }
    // a zeroed window sends fits to the mean fallbacks
    rob[20..40].fill(0.0);
    plans[0].apply(&y, Some(&rob), &mut out);
    black_box(&out);
    let n = allocs() - before;
    assert_eq!(n, 0, "{n} allocations");
}
