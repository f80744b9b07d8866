//! Property tests pinning the fixed-width aspect bitset ([`AspectBits`])
//! against the exact interval arithmetic ([`ArcSet`]) it approximates.
//! Both quantizations are one-sided:
//!
//! * **outer** — never misses a direction the arc covers
//!   (over-approximation, no false negatives);
//! * **inner** — every bin lies entirely inside the exact set
//!   (under-approximation, no false positives), which is what makes the
//!   engine's full-coverage skip exact-safe: `outer(arc) ⊆ inner(own)`
//!   proves the arc adds nothing.

use photodtn_geo::{Angle, Arc, ArcSet, AspectBits, ASPECT_BINS, ASPECT_BIN_WIDTH};
use proptest::prelude::*;

fn arb_arc() -> impl Strategy<Value = Arc> {
    (0.0..360.0f64, 0.0..360.0f64)
        .prop_map(|(start, width)| Arc::new(Angle::from_degrees(start), width.to_radians()))
}

fn arb_arcs() -> impl Strategy<Value = Vec<Arc>> {
    prop::collection::vec(arb_arc(), 0..8)
}

/// The bin a direction falls into.
fn bin_of(a: Angle) -> usize {
    ((a.radians() / ASPECT_BIN_WIDTH) as usize).min(ASPECT_BINS - 1)
}

/// The midpoint direction of a bin.
fn mid_of(bin: usize) -> Angle {
    Angle::from_radians((bin as f64 + 0.5) * ASPECT_BIN_WIDTH)
}

proptest! {
    #[test]
    fn outer_contains_inner_of_the_same_arc(a in arb_arc()) {
        let outer = AspectBits::outer_of_arc(a);
        let inner = AspectBits::inner_of_set(&ArcSet::from_arc(a));
        prop_assert!(outer.contains_all(inner), "outer must contain inner");
    }

    #[test]
    fn outer_covers_every_direction_in_arc(a in arb_arc(), frac in 0.0..1.0f64) {
        prop_assume!(!a.is_empty());
        // No false negatives: any direction the exact arc covers falls in
        // an outer bin — including across the 0/2π wrap.
        let dir = a.start() + Angle::from_radians(a.width() * frac);
        let outer = AspectBits::outer_of_arc(a);
        prop_assert!(
            outer.get(bin_of(dir)),
            "direction {dir:?} of arc {a:?} missing from outer bits"
        );
    }

    #[test]
    fn inner_bins_lie_inside_the_set(arcs in arb_arcs()) {
        let set: ArcSet = arcs.iter().copied().collect();
        let inner = AspectBits::inner_of_set(&set);
        // No false positives: every inner bin's midpoint is truly covered.
        for bin in (0..ASPECT_BINS).filter(|&b| inner.get(b)) {
            let mid = mid_of(bin);
            prop_assert!(
                set.contains(mid),
                "inner bin {bin} midpoint {mid:?} outside the exact set"
            );
        }
    }

    #[test]
    fn outer_within_inner_proves_arc_covered(arcs in arb_arcs(), a in arb_arc()) {
        // The engine's skip: if every outer bin of `a` is an inner bin of
        // the set, the exact set covers `a` entirely.
        let set: ArcSet = arcs.iter().copied().collect();
        if AspectBits::inner_of_set(&set).contains_all(AspectBits::outer_of_arc(a)) {
            let mut with_arc = set.clone();
            with_arc.insert(a);
            prop_assert!(
                (with_arc.measure() - set.measure()).abs() < 1e-9,
                "arc {a:?} claimed covered but adds {}",
                with_arc.measure() - set.measure()
            );
        }
    }

    #[test]
    fn minus_matches_per_bin_semantics(a1 in arb_arc(), a2 in arb_arc()) {
        let x = AspectBits::outer_of_arc(a1);
        let y = AspectBits::inner_of_set(&ArcSet::from_arc(a2));
        let minus = x.minus(y);
        for bin in 0..ASPECT_BINS {
            prop_assert_eq!(minus.get(bin), x.get(bin) && !y.get(bin));
        }
        prop_assert_eq!(y.contains_all(x), minus.is_empty());
    }
}
