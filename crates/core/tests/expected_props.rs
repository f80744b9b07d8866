//! Property tests establishing that the expected-coverage implementations
//! agree with the enumeration oracle and that greedy selection obeys its
//! invariants.
//!
//! The segment-decomposition algorithm replaces the paper's exponential
//! Definition 2 in every hot path, so its equivalence to direct
//! enumeration *is* the correctness argument of this reproduction.

use photodtn_contacts::NodeId;
use photodtn_core::expected::enumerate::expected_coverage_enumerate;
use photodtn_core::expected::segment::expected_coverage_exact;
use photodtn_core::expected::{DeliveryNode, ExpectedEngine};
use photodtn_core::selection::{reallocate, reallocate_naive, PeerState, SelectionInput};
use photodtn_coverage::{Coverage, CoverageParams, Photo, PhotoMeta, Poi, PoiList};
use photodtn_geo::{Angle, Point};
use proptest::prelude::*;

fn pois() -> PoiList {
    PoiList::new(vec![
        Poi::new(0, Point::new(0.0, 0.0)),
        Poi::new(1, Point::new(300.0, 0.0)),
        Poi::with_weight(2, Point::new(0.0, 300.0), 2.0),
    ])
}

fn arb_meta() -> impl Strategy<Value = PhotoMeta> {
    (
        -100.0..400.0f64,
        -100.0..400.0f64,
        30.0..60.0f64,
        0.0..360.0f64,
        60.0..150.0f64,
    )
        .prop_map(|(x, y, fov, dir, r)| {
            PhotoMeta::new(
                Point::new(x, y),
                r,
                Angle::from_degrees(fov),
                Angle::from_degrees(dir),
            )
        })
}

fn arb_node() -> impl Strategy<Value = DeliveryNode> {
    (0.0..=1.0f64, prop::collection::vec(arb_meta(), 0..4))
        .prop_map(|(p, metas)| DeliveryNode::new(p, metas))
}

fn arb_nodes() -> impl Strategy<Value = Vec<DeliveryNode>> {
    prop::collection::vec(arb_node(), 0..7)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn segment_equals_enumeration(nodes in arb_nodes()) {
        let params = CoverageParams::default();
        let fast = expected_coverage_exact(&pois(), &nodes, params);
        let slow = expected_coverage_enumerate(&pois(), &nodes, params);
        prop_assert!((fast.point - slow.point).abs() < 1e-8,
            "point {} vs {}", fast.point, slow.point);
        prop_assert!((fast.aspect - slow.aspect).abs() < 1e-8,
            "aspect {} vs {}", fast.aspect, slow.aspect);
    }

    #[test]
    fn engine_equals_segment(nodes in arb_nodes()) {
        let params = CoverageParams::default();
        let mut engine = ExpectedEngine::new(&pois(), params);
        for n in &nodes {
            let h = engine.add_node(n.delivery_prob);
            engine.add_collection(h, n.metas.iter());
        }
        let batch = expected_coverage_exact(&pois(), &nodes, params);
        prop_assert!((engine.total().point - batch.point).abs() < 1e-8);
        prop_assert!((engine.total().aspect - batch.aspect).abs() < 1e-8);
    }

    #[test]
    fn expected_bounded_by_certain(nodes in arb_nodes()) {
        // C_ex ≤ C_ph with all photos delivered for sure.
        let params = CoverageParams::default();
        let e = expected_coverage_exact(&pois(), &nodes, params);
        let all: Vec<&PhotoMeta> = nodes.iter().flat_map(|n| n.metas.iter()).collect();
        let cap = Coverage::of(&pois(), all.iter().copied(), params);
        prop_assert!(e.point <= cap.point + 1e-9);
        prop_assert!(e.aspect <= cap.aspect + 1e-9);
        prop_assert!(e.point >= -1e-12 && e.aspect >= -1e-12);
    }

    #[test]
    fn raising_probability_helps(nodes in arb_nodes(), extra in 0.0..1.0f64) {
        prop_assume!(!nodes.is_empty());
        let params = CoverageParams::default();
        let base = expected_coverage_exact(&pois(), &nodes, params);
        let mut boosted = nodes.clone();
        let p0 = boosted[0].delivery_prob;
        boosted[0].delivery_prob = (p0 + extra).min(1.0);
        let up = expected_coverage_exact(&pois(), &boosted, params);
        prop_assert!(up.point + 1e-9 >= base.point);
        prop_assert!(up.aspect + 1e-9 >= base.aspect);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    #[test]
    fn lazy_greedy_equals_naive(
        a_metas in prop::collection::vec(arb_meta(), 0..6),
        b_metas in prop::collection::vec(arb_meta(), 0..6),
        others in prop::collection::vec(arb_node(), 0..3),
        pa in 0.0..1.0f64,
        pb in 0.0..1.0f64,
        cap_a in 0u64..6,
        cap_b in 0u64..6,
    ) {
        let pois = pois();
        let mut next_id = 0u64;
        let mut mk = |metas: Vec<PhotoMeta>| -> Vec<Photo> {
            metas.into_iter().map(|m| {
                next_id += 1;
                Photo::new(next_id, m, 0.0).with_size(1)
            }).collect()
        };
        let input = SelectionInput {
            pois: &pois,
            params: CoverageParams::default(),
            a: PeerState { node: NodeId(0), delivery_prob: pa, capacity: cap_a, photos: mk(a_metas) },
            b: PeerState { node: NodeId(1), delivery_prob: pb, capacity: cap_b, photos: mk(b_metas) },
            others,
        };
        // The indexed lazy production path and the exhaustive scan must
        // produce the exact same SelectionResult.
        let indexed = reallocate(&input);
        let naive = reallocate_naive(&input);
        prop_assert_eq!(&indexed, &naive);
    }

    #[test]
    fn selection_fits_capacity_and_pool(
        a_metas in prop::collection::vec(arb_meta(), 0..8),
        b_metas in prop::collection::vec(arb_meta(), 0..8),
        pa in 0.0..1.0f64,
        pb in 0.0..1.0f64,
        cap_a in 0u64..8,
        cap_b in 0u64..8,
    ) {
        let pois = pois();
        let mut next_id = 0u64;
        let mut mk = |metas: Vec<PhotoMeta>| -> Vec<Photo> {
            metas.into_iter().map(|m| {
                next_id += 1;
                Photo::new(next_id, m, 0.0).with_size(1)
            }).collect()
        };
        let a_photos = mk(a_metas);
        let b_photos = mk(b_metas);
        let pool: std::collections::BTreeSet<_> =
            a_photos.iter().chain(&b_photos).map(|p| p.id).collect();
        let input = SelectionInput {
            pois: &pois,
            params: CoverageParams::default(),
            a: PeerState { node: NodeId(0), delivery_prob: pa, capacity: cap_a, photos: a_photos },
            b: PeerState { node: NodeId(1), delivery_prob: pb, capacity: cap_b, photos: b_photos },
            others: vec![],
        };
        let r = reallocate(&input);
        prop_assert!(r.a_selected.len() as u64 <= cap_a);
        prop_assert!(r.b_selected.len() as u64 <= cap_b);
        // no duplicates within one node, and everything comes from the pool
        let ua: std::collections::BTreeSet<_> = r.a_selected.iter().collect();
        prop_assert_eq!(ua.len(), r.a_selected.len());
        let ub: std::collections::BTreeSet<_> = r.b_selected.iter().collect();
        prop_assert_eq!(ub.len(), r.b_selected.len());
        prop_assert!(r.a_selected.iter().all(|id| pool.contains(id)));
        prop_assert!(r.b_selected.iter().all(|id| pool.contains(id)));
    }

    #[test]
    fn greedy_prefix_gains_decrease(
        metas in prop::collection::vec(arb_meta(), 1..8),
        p in 0.1..1.0f64,
    ) {
        // The gain sequence along the greedy order must be non-increasing
        // (submodularity + greedy choice).
        let pois = pois();
        let photos: Vec<Photo> = metas.into_iter().enumerate()
            .map(|(i, m)| Photo::new(i as u64, m, 0.0).with_size(1)).collect();
        let input = SelectionInput {
            pois: &pois,
            params: CoverageParams::default(),
            a: PeerState { node: NodeId(0), delivery_prob: p, capacity: 64, photos },
            b: PeerState { node: NodeId(1), delivery_prob: 0.0, capacity: 0, photos: vec![] },
            others: vec![],
        };
        let r = reallocate(&input);
        // replay gains
        let mut engine = ExpectedEngine::new(&pois, CoverageParams::default());
        let h = engine.add_node(p);
        let mut prev: Option<Coverage> = None;
        for id in &r.a_selected {
            let photo = input.a.photos.iter().find(|ph| ph.id == *id).unwrap();
            let g = engine.add_photo(h, &photo.meta);
            if let Some(pg) = prev {
                prop_assert!(g.point <= pg.point + 1e-9 || g <= pg,
                    "gain increased along greedy order: {g:?} after {pg:?}");
            }
            prev = Some(g);
        }
    }
}
