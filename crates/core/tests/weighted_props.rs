//! Property tests for the aspect-weighted extension (§II-C): the weighted
//! segment algorithm must agree with weighted enumeration, weights must
//! only rescale aspects (never point coverage), and weighted selection
//! must actually chase the weighted objective.

use photodtn_contacts::NodeId;
use photodtn_core::expected::enumerate::expected_coverage_enumerate_weighted;
use photodtn_core::expected::segment::{expected_coverage_exact, expected_coverage_exact_weighted};
use photodtn_core::expected::{DeliveryNode, ExpectedEngine};
use photodtn_core::selection::{reallocate, reallocate_weighted, PeerState, SelectionInput};
use photodtn_coverage::{
    AspectWeightMap, AspectWeights, CoverageParams, Photo, PhotoMeta, Poi, PoiId, PoiList,
};
use photodtn_geo::{Angle, Arc, Point};
use proptest::prelude::*;

fn pois() -> PoiList {
    PoiList::new(vec![
        Poi::new(0, Point::new(0.0, 0.0)),
        Poi::new(1, Point::new(300.0, 0.0)),
    ])
}

fn arb_meta() -> impl Strategy<Value = PhotoMeta> {
    (
        -100.0..400.0f64,
        -100.0..300.0f64,
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

fn arb_nodes() -> impl Strategy<Value = Vec<DeliveryNode>> {
    prop::collection::vec(
        (0.0..=1.0f64, prop::collection::vec(arb_meta(), 0..4)),
        0..6,
    )
    .prop_map(|v| {
        v.into_iter()
            .map(|(p, m)| DeliveryNode::new(p, m))
            .collect()
    })
}

fn arb_weights() -> impl Strategy<Value = AspectWeightMap> {
    prop::collection::vec((0u32..2, 0.0..360.0f64, 5.0..90.0f64, 0.0..4.0f64), 0..4).prop_map(
        |regions| {
            let mut map = AspectWeightMap::new();
            for (poi, center, half, mult) in regions {
                map.entry(PoiId(poi))
                    .or_insert_with(AspectWeights::uniform)
                    .add_region(
                        Arc::centered(Angle::from_degrees(center), Angle::from_degrees(half)),
                        mult,
                    );
            }
            map
        },
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn weighted_segment_equals_weighted_enumeration(
        nodes in arb_nodes(),
        weights in arb_weights(),
    ) {
        let params = CoverageParams::default();
        let fast = expected_coverage_exact_weighted(&pois(), &nodes, params, &weights);
        let slow = expected_coverage_enumerate_weighted(&pois(), &nodes, params, &weights);
        prop_assert!((fast.point - slow.point).abs() < 1e-8,
            "point {} vs {}", fast.point, slow.point);
        prop_assert!((fast.aspect - slow.aspect).abs() < 1e-8,
            "aspect {} vs {}", fast.aspect, slow.aspect);
    }

    #[test]
    fn weighted_engine_equals_weighted_segment(
        nodes in arb_nodes(),
        weights in arb_weights(),
    ) {
        let params = CoverageParams::default();
        let mut engine = ExpectedEngine::new(&pois(), params)
            .with_aspect_weights(weights.clone());
        for n in &nodes {
            let h = engine.add_node(n.delivery_prob);
            engine.add_collection(h, n.metas.iter());
        }
        let batch = expected_coverage_exact_weighted(&pois(), &nodes, params, &weights);
        prop_assert!((engine.total().point - batch.point).abs() < 1e-8,
            "point {} vs {}", engine.total().point, batch.point);
        prop_assert!((engine.total().aspect - batch.aspect).abs() < 1e-8,
            "aspect {} vs {}", engine.total().aspect, batch.aspect);
    }

    #[test]
    fn weights_never_change_point_coverage(
        nodes in arb_nodes(),
        weights in arb_weights(),
    ) {
        let params = CoverageParams::default();
        let plain = expected_coverage_exact(&pois(), &nodes, params);
        let weighted = expected_coverage_exact_weighted(&pois(), &nodes, params, &weights);
        prop_assert!((plain.point - weighted.point).abs() < 1e-9);
    }

    #[test]
    fn uniform_weights_are_a_noop(nodes in arb_nodes()) {
        let params = CoverageParams::default();
        let empty = AspectWeightMap::new();
        let plain = expected_coverage_exact(&pois(), &nodes, params);
        let weighted = expected_coverage_exact_weighted(&pois(), &nodes, params, &empty);
        prop_assert!((plain.point - weighted.point).abs() < 1e-12);
        prop_assert!((plain.aspect - weighted.aspect).abs() < 1e-12);
    }
}

#[test]
fn weighted_selection_prefers_weighted_aspects() {
    // One storage slot; two photos of the same PoI from opposite sides.
    // Unweighted selection picks the lower photo id on the tie; with the
    // north side weighted 5×, selection must pick the north photo.
    let pois = pois();
    let target = Point::new(0.0, 0.0);
    let shot = |id: u64, deg: f64| {
        let dir = Angle::from_degrees(deg);
        Photo::new(
            id,
            PhotoMeta::new(
                target.offset(dir, 60.0),
                90.0,
                Angle::from_degrees(45.0),
                dir + Angle::PI,
            ),
            0.0,
        )
        .with_size(1)
    };
    let input = SelectionInput {
        pois: &pois,
        params: CoverageParams::default(),
        a: PeerState {
            node: NodeId(0),
            delivery_prob: 0.9,
            capacity: 1,
            photos: vec![shot(1, 270.0), shot(2, 90.0)], // south-side first by id
        },
        b: PeerState {
            node: NodeId(1),
            delivery_prob: 0.0,
            capacity: 0,
            photos: vec![],
        },
        others: vec![],
    };
    let plain = reallocate(&input);
    assert_eq!(plain.a_selected, vec![photodtn_coverage::PhotoId(1)]);

    let mut weights = AspectWeightMap::new();
    let mut w = AspectWeights::uniform();
    w.add_region(
        Arc::centered(Angle::from_degrees(90.0), Angle::from_degrees(40.0)),
        5.0,
    );
    weights.insert(PoiId(0), w);
    let weighted = reallocate_weighted(&input, &weights);
    assert_eq!(weighted.a_selected, vec![photodtn_coverage::PhotoId(2)]);
    assert!(weighted.expected.aspect > plain.expected.aspect);
}
