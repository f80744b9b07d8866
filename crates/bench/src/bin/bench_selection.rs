//! Selection hot-path harness: times one full contact reallocation on a
//! large world (1000 PoIs, 200-photo pool, 150-photo command-center
//! collection, 4 MB photos) through the naive oracle and three session
//! set-ups, and writes `BENCH_selection.json`.
//!
//! Unlike the criterion benches this is a plain binary with hand-rolled
//! [`std::time::Instant`] timing, so it runs anywhere and emits a
//! machine-readable artifact the acceptance gates can check:
//!
//! * `indexed` (a fresh [`SelectionSession`] per contact, [`reallocate`])
//!   must beat the exhaustive greedy (`reallocate_naive`) by at least 3x;
//! * `incremental` (the steady-state [`SelectionSession`] path: warm
//!   coverage-table cache + checkpointed third-party base) must beat
//!   `indexed_scalar` — a fresh session whose coverage tables come from
//!   the scalar reference build ([`PhotoCoverage::build_scalar`]), i.e.
//!   the pre-SIMD per-contact path measured in this same process — by at
//!   least 3x.
//!
//! All four rows take the same input and must return identical
//! selections; the output records `selections_identical` and the
//! `machine` block.
//!
//! Both baselines are timed in-process on the same workload, so the
//! gates are machine-independent. `--smoke` shrinks the workload for CI
//! while keeping both gates armed.
//!
//! ```sh
//! cargo run --release -p photodtn-bench --bin bench_selection
//! cargo run --release -p photodtn-bench --bin bench_selection -- --smoke
//! ```

use std::sync::Arc;
use std::time::Instant;

use photodtn_bench::machine_json;
use photodtn_contacts::NodeId;
use photodtn_core::expected::DeliveryNode;
use photodtn_core::selection::{
    reallocate, reallocate_naive, PeerState, SelectionInput, SelectionResult, SelectionSession,
};
use photodtn_coverage::{
    CoverageParams, CoverageTableCache, Photo, PhotoCoverage, PhotoId, PhotoMeta, Poi, PoiList,
};
use photodtn_geo::{Angle, Point};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

const PHOTO_BYTES: u64 = 4 * 1024 * 1024;

struct Workload {
    num_pois: u32,
    /// Pooled photos across the two contacting peers.
    pool: u64,
    /// Photos the command center (the third-party base) already holds —
    /// the part of the per-contact cost the incremental path eliminates.
    cc_photos: u64,
    warmup: usize,
    iters: usize,
    smoke: bool,
}

impl Workload {
    fn large() -> Self {
        Workload {
            num_pois: 1000,
            pool: 200,
            cc_photos: 150,
            warmup: 3,
            iters: 21,
            smoke: false,
        }
    }

    fn smoke() -> Self {
        Workload {
            num_pois: 300,
            pool: 64,
            cc_photos: 64,
            warmup: 2,
            iters: 9,
            smoke: true,
        }
    }
}

#[allow(clippy::type_complexity)]
fn world(w: &Workload) -> (PoiList, Vec<Photo>, Vec<Photo>, Vec<(PhotoId, PhotoMeta)>) {
    let mut rng = SmallRng::seed_from_u64(5);
    let side = if w.smoke { 3400.0 } else { 6300.0 };
    let pois = PoiList::new(
        (0..w.num_pois)
            .map(|i| {
                Poi::new(
                    i,
                    Point::new(rng.gen_range(0.0..side), rng.gen_range(0.0..side)),
                )
            })
            .collect(),
    );
    let mut mk = |id: u64| {
        Photo::new(
            id,
            PhotoMeta::new(
                Point::new(rng.gen_range(0.0..side), rng.gen_range(0.0..side)),
                rng.gen_range(100.0..300.0),
                Angle::from_degrees(rng.gen_range(30.0..60.0)),
                Angle::from_degrees(rng.gen_range(0.0..360.0)),
            ),
            0.0,
        )
        .with_size(PHOTO_BYTES)
    };
    let a: Vec<Photo> = (0..w.pool / 2).map(&mut mk).collect();
    let b: Vec<Photo> = (w.pool / 2..w.pool).map(&mut mk).collect();
    let cc: Vec<(PhotoId, PhotoMeta)> = (w.pool..w.pool + w.cc_photos)
        .map(|id| {
            let p = mk(id);
            (p.id, p.meta)
        })
        .collect();
    (pois, a, b, cc)
}

/// One contact through a fresh session whose coverage tables come from
/// the scalar reference build — the pre-SIMD per-contact baseline.
fn reallocate_indexed_scalar(input: &SelectionInput<'_>) -> SelectionResult {
    let mut session = SelectionSession::new(Arc::new(input.pois.clone()), input.params);
    session.reallocate_with(input, |_, meta| {
        Arc::new(PhotoCoverage::build_scalar(meta, input.pois, input.params))
    })
}

/// Median wall time of one `f()` call, in nanoseconds.
fn median_ns<F: FnMut() -> SelectionResult>(w: &Workload, mut f: F) -> (u128, SelectionResult) {
    let mut last = f();
    for _ in 1..w.warmup {
        last = f();
    }
    let mut times: Vec<u128> = (0..w.iters)
        .map(|_| {
            let t = Instant::now();
            last = f();
            t.elapsed().as_nanos()
        })
        .collect();
    times.sort_unstable();
    (times[w.iters / 2], last)
}

fn main() {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let has = |name: &str| argv.iter().any(|a| a == name);
    let workload = if has("--smoke") {
        Workload::smoke()
    } else {
        Workload::large()
    };
    let w = &workload;

    let (pois, a, b, cc) = world(w);
    let pois = Arc::new(pois);
    let params = CoverageParams::default();
    let input = SelectionInput {
        pois: &pois,
        params,
        a: PeerState {
            node: NodeId(0),
            delivery_prob: 0.7,
            capacity: (w.pool / 2) * PHOTO_BYTES,
            photos: a,
        },
        b: PeerState {
            node: NodeId(1),
            delivery_prob: 0.2,
            capacity: (w.pool / 2) * PHOTO_BYTES,
            photos: b,
        },
        // The command center's collection: id-tagged, so every session
        // row commits it through coverage tables and the incremental row
        // can checkpoint it. The naive oracle scans its metadata.
        others: vec![DeliveryNode::with_ids(1.0, cc)],
    };

    println!(
        "bench_selection: one contact reallocation, {} PoIs, {}-photo pool, \
         {}-photo command-center base, median of {} iterations",
        w.num_pois, w.pool, w.cc_photos, w.iters
    );
    println!(
        "{:<16} {:>14} {:>12} {:>12} {:>10}",
        "strategy", "median ns", "evals", "refreshes", "commits"
    );

    let (naive_ns, naive) = median_ns(w, || reallocate_naive(&input));
    let (scalar_ns, scalar) = median_ns(w, || reallocate_indexed_scalar(&input));
    let (indexed_ns, indexed) = median_ns(w, || reallocate(&input));

    // Steady state of the production simulator wiring: a per-run session
    // (checkpointed command-center base, warm engine scratch) over a
    // per-run coverage-table cache. The warmup iterations populate both;
    // the timed iterations pay neither table builds nor base commits.
    let mut session = SelectionSession::new(Arc::clone(&pois), params);
    let mut cache = CoverageTableCache::new(4096);
    let (incr_ns, incr) = median_ns(w, || {
        session.reallocate_with(&input, |id, meta| {
            cache.get_or_build(id, meta, &pois, params)
        })
    });

    for (name, ns, r) in [
        ("naive", naive_ns, &naive),
        ("indexed_scalar", scalar_ns, &scalar),
        ("indexed", indexed_ns, &indexed),
        ("incremental", incr_ns, &incr),
    ] {
        println!(
            "{:<16} {:>14} {:>12} {:>12} {:>10}",
            name, ns, r.stats.evaluations, r.stats.refreshes, r.stats.commits
        );
    }

    assert_eq!(indexed, naive, "indexed and naive selections diverged");
    assert_eq!(
        indexed, scalar,
        "indexed and indexed-scalar selections diverged"
    );
    assert_eq!(indexed, incr, "indexed and incremental selections diverged");
    assert_eq!(
        indexed.expected.point.to_bits(),
        incr.expected.point.to_bits(),
        "incremental expected point coverage not bit-identical"
    );
    assert_eq!(
        indexed.expected.aspect.to_bits(),
        incr.expected.aspect.to_bits(),
        "incremental expected aspect coverage not bit-identical"
    );

    let speedup_vs_naive = naive_ns as f64 / indexed_ns as f64;
    let speedup_incr = scalar_ns as f64 / incr_ns as f64;
    println!("\nindexed vs naive:              {speedup_vs_naive:.2}x");
    println!("incremental vs indexed_scalar: {speedup_incr:.2}x");

    let json = format!(
        "{{\n  \"workload\": {{\n    \"num_pois\": {},\n    \"pool_photos\": {},\n    \
         \"cc_photos\": {},\n    \"photo_bytes\": {PHOTO_BYTES},\n    \"iterations\": {},\n    \
         \"smoke\": {}\n  }},\n  \
         \"median_ns_per_reallocation\": {{\n    \"naive\": {naive_ns},\n    \
         \"indexed_scalar\": {scalar_ns},\n    \
         \"indexed\": {indexed_ns},\n    \"incremental\": {incr_ns}\n  }},\n  \
         \"speedup_indexed_vs_naive\": {speedup_vs_naive:.3},\n  \
         \"speedup_incremental_vs_indexed_scalar\": {speedup_incr:.3},\n  \
         \"selections_identical\": true,\n  \"machine\": {}\n}}\n",
        w.num_pois,
        w.pool,
        w.cc_photos,
        w.iters,
        w.smoke,
        machine_json()
    );
    std::fs::write("BENCH_selection.json", &json).expect("write BENCH_selection.json");
    eprintln!("bench_selection: wrote BENCH_selection.json");

    assert!(
        speedup_vs_naive >= 3.0,
        "acceptance: expected >= 3x speedup over the exhaustive greedy, got {speedup_vs_naive:.2}x"
    );
    assert!(
        speedup_incr >= 3.0,
        "acceptance: expected >= 3x steady-state speedup over the pre-SIMD indexed baseline, \
         got {speedup_incr:.2}x"
    );
}
