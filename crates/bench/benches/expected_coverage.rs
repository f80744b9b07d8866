//! Ablation benchmark for DESIGN.md decision #1: the exact
//! segment-decomposition expected coverage vs the paper's 2^m outcome
//! enumeration (Definition 2).
//!
//! The segment algorithm makes per-contact selection affordable; this
//! bench quantifies the gap (enumeration explodes past ~12 nodes, while
//! the exact algorithm stays polynomial).

use criterion::{black_box, criterion_group, criterion_main, BenchmarkId, Criterion};
use photodtn_core::expected::enumerate::expected_coverage_enumerate;
use photodtn_core::expected::segment::expected_coverage_exact;
use photodtn_core::expected::{DeliveryNode, ExpectedEngine};
use photodtn_coverage::{CoverageParams, PhotoCoverage, PhotoMeta, Poi, PoiList};
use photodtn_geo::{Angle, Point};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

fn world(num_pois: u32, nodes: usize, photos_per_node: usize) -> (PoiList, Vec<DeliveryNode>) {
    let mut rng = SmallRng::seed_from_u64(9);
    let pois = PoiList::new(
        (0..num_pois)
            .map(|i| {
                Poi::new(
                    i,
                    Point::new(rng.gen_range(0.0..2000.0), rng.gen_range(0.0..2000.0)),
                )
            })
            .collect(),
    );
    let nodes = (0..nodes)
        .map(|_| {
            let metas = (0..photos_per_node)
                .map(|_| {
                    PhotoMeta::new(
                        Point::new(rng.gen_range(0.0..2000.0), rng.gen_range(0.0..2000.0)),
                        rng.gen_range(100.0..300.0),
                        Angle::from_degrees(rng.gen_range(30.0..60.0)),
                        Angle::from_degrees(rng.gen_range(0.0..360.0)),
                    )
                })
                .collect();
            DeliveryNode::new(rng.gen_range(0.05..0.95), metas)
        })
        .collect();
    (pois, nodes)
}

fn bench_algorithms(c: &mut Criterion) {
    let params = CoverageParams::default();
    let mut group = c.benchmark_group("expected_coverage");
    for m in [4usize, 8, 12] {
        let (pois, nodes) = world(50, m, 6);
        group.bench_with_input(BenchmarkId::new("enumerate_2^m", m), &m, |b, _| {
            b.iter(|| black_box(expected_coverage_enumerate(&pois, &nodes, params)));
        });
        group.bench_with_input(BenchmarkId::new("segment_exact", m), &m, |b, _| {
            b.iter(|| black_box(expected_coverage_exact(&pois, &nodes, params)));
        });
    }
    // The segment algorithm keeps scaling where enumeration cannot go.
    for m in [32usize, 64] {
        let (pois, nodes) = world(250, m, 10);
        group.bench_with_input(BenchmarkId::new("segment_exact", m), &m, |b, _| {
            b.iter(|| black_box(expected_coverage_exact(&pois, &nodes, params)));
        });
    }
    group.finish();
}

/// Incremental gain preview: linear PoI scan vs the contact-scoped
/// coverage index, while the PoI count scales.
///
/// `gain_of` walks the spatial grid per evaluation; `gain_of_indexed`
/// consumes a [`PhotoCoverage`] table built once per contact, so each
/// preview only touches the PoIs the candidate actually covers.
fn bench_gain_paths(c: &mut Criterion) {
    let params = CoverageParams::default();
    let mut group = c.benchmark_group("expected_coverage/gain");
    for num_pois in [10u32, 100, 1000] {
        let (pois, nodes) = world(num_pois, 6, 8);
        let mut engine = ExpectedEngine::new(&pois, params);
        for n in &nodes {
            let h = engine.add_node(n.delivery_prob);
            engine.add_collection(h, n.metas.iter());
        }
        let probe = engine.add_node(0.5);
        let metas: Vec<PhotoMeta> = nodes.iter().flat_map(|n| n.metas.iter().cloned()).collect();
        let covs: Vec<PhotoCoverage> = metas
            .iter()
            .map(|m| PhotoCoverage::build(m, &pois, params))
            .collect();
        group.bench_with_input(
            BenchmarkId::new("gain_of_linear", num_pois),
            &num_pois,
            |b, _| {
                b.iter(|| {
                    let mut acc = 0.0;
                    for m in &metas {
                        acc += engine.gain_of(probe, m).aspect;
                    }
                    black_box(acc)
                });
            },
        );
        group.bench_with_input(
            BenchmarkId::new("gain_of_indexed", num_pois),
            &num_pois,
            |b, _| {
                b.iter(|| {
                    let mut acc = 0.0;
                    for cov in &covs {
                        acc += engine.gain_of_indexed(probe, cov).aspect;
                    }
                    black_box(acc)
                });
            },
        );
    }
    group.finish();
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(20);
    targets = bench_algorithms, bench_gain_paths
}
criterion_main!(benches);
