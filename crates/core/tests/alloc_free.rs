//! Verifies the engine's gain evaluation is allocation-free in steady
//! state: after a warm-up pass has sized the scratch buffers, repeated
//! `gain_of` / `gain_of_indexed` previews must not touch the heap.
//!
//! Uses a counting global allocator, so this lives in its own test binary
//! — the counter would otherwise see allocations from unrelated tests.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::atomic::{AtomicU64, Ordering};

struct CountingAlloc;

static ALLOCATIONS: AtomicU64 = AtomicU64::new(0);

thread_local! {
    // Count only while the measuring thread is inside a measured section:
    // the libtest harness and the runtime occasionally allocate from
    // *other* threads mid-measurement, which is noise for this assertion
    // (and made the test flaky). The const initializer and the Drop-less
    // Cell guarantee the gate itself never allocates.
    static COUNTING: Cell<bool> = const { Cell::new(false) };
}

fn counting() -> bool {
    // try_with: the allocator can be called during TLS teardown.
    COUNTING.try_with(Cell::get).unwrap_or(false)
}

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        if counting() {
            ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        }
        unsafe { System.alloc(layout) }
    }
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        if counting() {
            ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        }
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

fn allocations() -> u64 {
    ALLOCATIONS.load(Ordering::Relaxed)
}

/// Runs `f` with this thread's allocations counted, returning the count.
fn measured(f: impl FnOnce()) -> u64 {
    let before = allocations();
    COUNTING.with(|c| c.set(true));
    f();
    COUNTING.with(|c| c.set(false));
    allocations() - before
}

use photodtn_core::expected::ExpectedEngine;
use photodtn_coverage::{CoverageParams, PhotoCoverage, PhotoMeta, Poi, PoiList};
use photodtn_geo::{Angle, Point};

fn world() -> (PoiList, Vec<PhotoMeta>) {
    // A ring of PoIs and a fan of overlapping photos so gains exercise
    // both the point and the aspect (integration) paths, including the
    // multi-coverer cut loop.
    let pois = PoiList::new(
        (0..40)
            .map(|i| {
                let ang = f64::from(i) * std::f64::consts::TAU / 40.0;
                Poi::new(i, Point::new(400.0 * ang.cos(), 400.0 * ang.sin()))
            })
            .collect(),
    );
    let metas = (0..25)
        .map(|i| {
            let deg = f64::from(i) * 14.4;
            PhotoMeta::new(
                Point::new(
                    300.0 * deg.to_radians().cos(),
                    300.0 * deg.to_radians().sin(),
                ),
                250.0,
                Angle::from_degrees(60.0),
                Angle::from_degrees(deg + 180.0),
            )
        })
        .collect();
    (pois, metas)
}

#[test]
fn gain_evaluation_is_allocation_free_when_warm() {
    let (pois, metas) = world();
    let params = CoverageParams::default();
    let covs: Vec<PhotoCoverage> = metas
        .iter()
        .map(|m| PhotoCoverage::build(m, &pois, params))
        .collect();

    let mut engine = ExpectedEngine::new(&pois, params);
    let relay = engine.add_node(0.6);
    // Commit a few photos so previews hit populated coverer lists (the
    // expensive integration path), then warm the scratch buffers.
    for cov in covs.iter().take(8) {
        engine.add_photo_indexed(relay, cov);
    }
    let probe = engine.add_node(0.4);
    for (meta, cov) in metas.iter().zip(&covs) {
        let _ = engine.gain_of(probe, meta);
        let _ = engine.gain_of_indexed(probe, cov);
    }

    // Steady state: repeated previews must not allocate at all.
    let mut acc = 0.0;
    let indexed_allocs = measured(|| {
        for _ in 0..50 {
            for cov in &covs {
                acc += engine.gain_of_indexed(probe, cov).aspect;
            }
        }
    });
    assert_eq!(
        indexed_allocs, 0,
        "gain_of_indexed allocated {indexed_allocs} times in steady state"
    );

    // The linear path shares the same scratch buffers; its per-preview
    // geometry (grid iterators) is allocation-free too.
    let linear_allocs = measured(|| {
        for _ in 0..50 {
            for meta in &metas {
                acc += engine.gain_of(probe, meta).aspect;
            }
        }
    });
    assert_eq!(
        linear_allocs, 0,
        "gain_of allocated {linear_allocs} times in steady state"
    );

    assert!(acc.is_finite());
}

#[test]
fn batched_candidate_scratch_is_allocation_free_when_warm() {
    // The SIMD prefilter gathers per-photo candidates into thread-local
    // SoA scratch buffers. Once a first pass has sized them, the whole
    // steady-state gather + prefilter cycle (what `PhotoCoverage::build`
    // runs per photo) must never touch the heap.
    use photodtn_coverage::batch::{sector_prefilter, with_scratch, SectorKernel};
    let (_, metas) = world();
    // Source lanes standing in for the grid's per-cell candidate slices.
    let n = 600usize;
    let items_src: Vec<u32> = (0..n as u32).collect();
    let xs_src: Vec<f32> = (0..n).map(|i| (i as f32 * 7.3) % 800.0 - 400.0).collect();
    let ys_src: Vec<f32> = (0..n).map(|i| (i as f32 * 3.1) % 800.0 - 400.0).collect();
    let gather = |s: &mut photodtn_coverage::batch::BatchScratch, kernel: &SectorKernel| {
        // several extends, like a bbox spanning several grid cells
        for (chunk_i, chunk_x) in items_src.chunks(37).zip(xs_src.chunks(37)) {
            s.items.extend_from_slice(chunk_i);
            s.xs.extend_from_slice(chunk_x);
        }
        for chunk_y in ys_src.chunks(37) {
            s.ys.extend_from_slice(chunk_y);
        }
        s.keep.resize(s.items.len(), 0);
        sector_prefilter(kernel, &s.xs, &s.ys, &mut s.keep);
        s.keep.iter().map(|&k| u64::from(k)).sum::<u64>()
    };
    let kernels: Vec<SectorKernel> = metas
        .iter()
        .map(|m| SectorKernel::new(&m.sector()))
        .collect();
    // warm-up sizes the scratch to the largest candidate set
    let mut kept = with_scratch(|s| gather(s, &kernels[0]));
    let scratch_allocs = measured(|| {
        for _ in 0..50 {
            for kernel in &kernels {
                kept += with_scratch(|s| gather(s, kernel));
            }
        }
    });
    assert!(kept > 0, "prefilter must keep some candidates");
    assert_eq!(
        scratch_allocs, 0,
        "warm SoA scratch allocated {scratch_allocs} times in steady state"
    );
}
