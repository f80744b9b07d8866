//! Ablation benchmark for DESIGN.md decision #3: indexed lazy greedy vs
//! the naive greedy oracle in the per-contact photo reallocation, scaling
//! first the pool size and then the PoI count.

use criterion::{black_box, criterion_group, criterion_main, BenchmarkId, Criterion};
use photodtn_contacts::NodeId;
use photodtn_core::selection::{reallocate, reallocate_naive, PeerState, SelectionInput};
use photodtn_coverage::{CoverageParams, Photo, PhotoMeta, Poi, PoiList};
use photodtn_geo::{Angle, Point};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

fn world(pool: usize) -> (PoiList, Vec<Photo>, Vec<Photo>) {
    world_with_pois(250, pool)
}

fn world_with_pois(num_pois: u32, pool: usize) -> (PoiList, Vec<Photo>, Vec<Photo>) {
    let mut rng = SmallRng::seed_from_u64(5);
    let pois = PoiList::new(
        (0..num_pois)
            .map(|i| {
                Poi::new(
                    i,
                    Point::new(rng.gen_range(0.0..6300.0), rng.gen_range(0.0..6300.0)),
                )
            })
            .collect(),
    );
    let mut mk = |id: u64| {
        Photo::new(
            id,
            PhotoMeta::new(
                Point::new(rng.gen_range(0.0..6300.0), rng.gen_range(0.0..6300.0)),
                rng.gen_range(100.0..300.0),
                Angle::from_degrees(rng.gen_range(30.0..60.0)),
                Angle::from_degrees(rng.gen_range(0.0..360.0)),
            ),
            0.0,
        )
        .with_size(4 * 1024 * 1024)
    };
    let a: Vec<Photo> = (0..pool as u64 / 2).map(&mut mk).collect();
    let b: Vec<Photo> = (pool as u64 / 2..pool as u64).map(&mut mk).collect();
    (pois, a, b)
}

fn bench_reallocate(c: &mut Criterion) {
    let mut group = c.benchmark_group("selection/reallocate");
    for pool in [40usize, 120, 300] {
        let (pois, a, b) = world(pool);
        let input = SelectionInput {
            pois: &pois,
            params: CoverageParams::default(),
            a: PeerState {
                node: NodeId(0),
                delivery_prob: 0.7,
                capacity: (pool as u64 / 2) * 4 * 1024 * 1024,
                photos: a,
            },
            b: PeerState {
                node: NodeId(1),
                delivery_prob: 0.2,
                capacity: (pool as u64 / 2) * 4 * 1024 * 1024,
                photos: b,
            },
            others: vec![],
        };
        group.bench_with_input(BenchmarkId::new("lazy", pool), &input, |bch, input| {
            bch.iter(|| black_box(reallocate(input)));
        });
        group.bench_with_input(BenchmarkId::new("naive", pool), &input, |bch, input| {
            bch.iter(|| black_box(reallocate_naive(input)));
        });
    }
    group.finish();
}

/// Indexed vs naive greedy while the PoI count scales.
///
/// The pool is fixed at 120 photos so the only variable is how much of
/// the map each gain evaluation has to look at: the naive path walks the
/// PoI grid per candidate evaluation, the indexed path only touches the
/// PoIs each candidate's coverage table lists.
fn bench_poi_scaling(c: &mut Criterion) {
    let mut group = c.benchmark_group("selection/poi_scaling");
    for num_pois in [10u32, 100, 1000] {
        let (pois, a, b) = world_with_pois(num_pois, 120);
        let input = SelectionInput {
            pois: &pois,
            params: CoverageParams::default(),
            a: PeerState {
                node: NodeId(0),
                delivery_prob: 0.7,
                capacity: 60 * 4 * 1024 * 1024,
                photos: a,
            },
            b: PeerState {
                node: NodeId(1),
                delivery_prob: 0.2,
                capacity: 60 * 4 * 1024 * 1024,
                photos: b,
            },
            others: vec![],
        };
        group.bench_with_input(
            BenchmarkId::new("indexed", num_pois),
            &input,
            |bch, input| {
                bch.iter(|| black_box(reallocate(input)));
            },
        );
        group.bench_with_input(BenchmarkId::new("naive", num_pois), &input, |bch, input| {
            bch.iter(|| black_box(reallocate_naive(input)));
        });
    }
    group.finish();
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(10);
    targets = bench_reallocate, bench_poi_scaling
}
criterion_main!(benches);
