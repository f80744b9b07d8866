use std::fmt;

use crate::{Arc, ArcSet, ANGLE_EPS, TAU};

/// Number of fixed-width aspect bins the circle is divided into.
pub const ASPECT_BINS: usize = 128;

/// Angular width of one aspect bin, `2π / 128` radians (≈ 2.8°).
pub const ASPECT_BIN_WIDTH: f64 = TAU / ASPECT_BINS as f64;

/// A fixed-width bitset over [`ASPECT_BINS`] equal aspect bins of the
/// circle: bin `k` is the half-open interval `[k·Δ, (k+1)·Δ)` with
/// `Δ =` [`ASPECT_BIN_WIDTH`].
///
/// Two one-sided quantizations of an angular set are used:
///
/// * **Outer** ([`outer_of_arc`](Self::outer_of_arc)): every bin that
///   intersects the arc is included, so the exact arc is a subset of the
///   bins. An over-approximation.
/// * **Inner** ([`inner_of_set`](Self::inner_of_set)): only bins lying
///   entirely inside the set *with a safety margin* are included, so the
///   bins (dilated by the margin) are a subset of the exact set. An
///   under-approximation.
///
/// `outer(A) ⊆ inner(B)` therefore proves `A ⊆ B` exactly (up to the
/// margin) in two word operations, which the expected-coverage engine
/// uses as an "arc already fully covered" short-circuit that cannot
/// change its results.
///
/// # Example
///
/// ```
/// use photodtn_geo::{Angle, Arc, ArcSet, AspectBits};
/// let north = Angle::from_degrees(90.0);
/// let wide = Arc::centered(north, Angle::from_degrees(45.0));
/// let narrow = Arc::centered(north, Angle::from_degrees(10.0));
/// let inner = AspectBits::inner_of_set(&ArcSet::from_arc(wide));
/// assert!(inner.contains_all(AspectBits::outer_of_arc(narrow)));
/// assert!(!inner.contains_all(AspectBits::outer_of_arc(wide)));
/// ```
#[derive(Clone, Copy, Default, PartialEq, Eq)]
pub struct AspectBits {
    words: [u64; 2],
}

impl AspectBits {
    /// The empty bitset.
    #[must_use]
    pub fn new() -> Self {
        AspectBits { words: [0; 2] }
    }

    /// Whether no bin is set.
    #[must_use]
    pub fn is_empty(self) -> bool {
        self.words == [0; 2]
    }

    /// Whether bin `bin` is set.
    #[must_use]
    pub fn get(self, bin: usize) -> bool {
        debug_assert!(bin < ASPECT_BINS);
        self.words[bin / 64] & (1 << (bin % 64)) != 0
    }

    /// `self \ other` (bins in `self` but not in `other`).
    #[must_use]
    pub fn minus(self, other: AspectBits) -> AspectBits {
        AspectBits {
            words: [
                self.words[0] & !other.words[0],
                self.words[1] & !other.words[1],
            ],
        }
    }

    /// Whether every bin of `other` is set in `self`.
    #[must_use]
    pub fn contains_all(self, other: AspectBits) -> bool {
        other.minus(self).is_empty()
    }

    /// Sets bins `lo..hi` (half-open; `0 ≤ lo ≤ hi ≤ 128`).
    fn set_range(&mut self, lo: usize, hi: usize) {
        debug_assert!(lo <= hi && hi <= ASPECT_BINS);
        for (w, word) in self.words.iter_mut().enumerate() {
            let base = w * 64;
            let a = lo.clamp(base, base + 64) - base;
            let b = hi.clamp(base, base + 64) - base;
            if a < b {
                let span = b - a;
                let mask = if span == 64 {
                    !0
                } else {
                    ((1u64 << span) - 1) << a
                };
                *word |= mask;
            }
        }
    }

    /// Adds every bin intersecting the non-wrapping interval `[lo, hi]`
    /// (over-approximation).
    fn insert_outer(&mut self, lo: f64, hi: f64) {
        if hi <= lo {
            return;
        }
        let qlo = ((lo / ASPECT_BIN_WIDTH).floor() as i64).clamp(0, ASPECT_BINS as i64) as usize;
        let qhi = ((hi / ASPECT_BIN_WIDTH).ceil() as i64).clamp(0, ASPECT_BINS as i64) as usize;
        self.set_range(qlo, qhi.max(qlo));
    }

    /// Adds every bin contained in `[lo + margin, hi − margin]`
    /// (under-approximation by at least `margin` on each side).
    fn insert_inner(&mut self, lo: f64, hi: f64, margin: f64) {
        let qlo = (((lo + margin) / ASPECT_BIN_WIDTH).ceil() as i64).clamp(0, ASPECT_BINS as i64)
            as usize;
        let qhi = (((hi - margin) / ASPECT_BIN_WIDTH).floor() as i64).clamp(0, ASPECT_BINS as i64)
            as usize;
        if qlo < qhi {
            self.set_range(qlo, qhi);
        }
    }

    /// The outer (over-approximating) quantization of a single arc: the
    /// exact arc is a subset of the returned bins. Wrap is handled by
    /// splitting at the zero direction, like [`ArcSet`].
    #[must_use]
    pub fn outer_of_arc(arc: Arc) -> Self {
        let mut b = AspectBits::new();
        for (lo, hi) in arc.split() {
            b.insert_outer(lo, hi);
        }
        b
    }

    /// The inner (under-approximating) quantization of an [`ArcSet`]: every
    /// returned bin, dilated by [`ANGLE_EPS`] on each side, lies inside the
    /// set. Intervals meeting at the zero split are treated independently,
    /// which only makes the approximation more conservative.
    #[must_use]
    pub fn inner_of_set(set: &ArcSet) -> Self {
        let mut b = AspectBits::new();
        for (lo, hi) in set.iter() {
            b.insert_inner(lo, hi, 2.0 * ANGLE_EPS);
        }
        b
    }
}

impl fmt::Debug for AspectBits {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "AspectBits[{:016x}{:016x}]",
            self.words[1], self.words[0]
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Angle;

    fn arc_deg(center: f64, half: f64) -> Arc {
        Arc::centered(Angle::from_degrees(center), Angle::from_degrees(half))
    }

    /// The set bins, in increasing order.
    fn bins(bits: AspectBits) -> Vec<usize> {
        (0..ASPECT_BINS).filter(|&b| bits.get(b)).collect()
    }

    #[test]
    fn empty_and_full_arcs() {
        assert!(AspectBits::new().is_empty());
        assert!(AspectBits::outer_of_arc(Arc::empty()).is_empty());
        assert_eq!(
            bins(AspectBits::outer_of_arc(Arc::full())).len(),
            ASPECT_BINS
        );
    }

    #[test]
    fn outer_contains_inner() {
        let arc = arc_deg(123.0, 31.0);
        let outer = AspectBits::outer_of_arc(arc);
        let inner = AspectBits::inner_of_set(&ArcSet::from_arc(arc));
        assert!(!inner.is_empty());
        assert!(outer.contains_all(inner));
        assert!(!inner.contains_all(outer));
    }

    #[test]
    fn inner_bins_lie_inside_set() {
        let set: ArcSet = [arc_deg(10.0, 25.0), arc_deg(200.0, 40.0), arc_deg(0.0, 8.0)]
            .into_iter()
            .collect();
        let inner = AspectBits::inner_of_set(&set);
        for bin in bins(inner) {
            let mid = (bin as f64 + 0.5) * ASPECT_BIN_WIDTH;
            assert!(
                set.contains(Angle::from_radians(mid)),
                "inner bin {bin} midpoint outside set"
            );
        }
    }

    #[test]
    fn outer_covers_arc_directions() {
        let arc = arc_deg(350.0, 25.0); // wraps zero
        let outer = AspectBits::outer_of_arc(arc);
        for k in 0..720 {
            let a = Angle::from_degrees(f64::from(k) / 2.0);
            if arc.contains(a) {
                let bin = ((a.radians() / ASPECT_BIN_WIDTH) as usize).min(ASPECT_BINS - 1);
                assert!(outer.get(bin), "direction {k}/2° on arc but bin unset");
            }
        }
    }

    #[test]
    fn minus_and_contains_all() {
        let a = AspectBits::outer_of_arc(arc_deg(0.0, 45.0));
        let b = AspectBits::outer_of_arc(arc_deg(45.0, 45.0));
        let far = AspectBits::outer_of_arc(arc_deg(180.0, 10.0));
        assert!(a.contains_all(a.minus(b)));
        assert!(!a.minus(b).is_empty());
        assert_eq!(a.minus(far), a);
        assert!(!a.contains_all(b));
        let mut set_range = AspectBits::new();
        for bin in bins(a) {
            set_range.set_range(bin, bin + 1);
        }
        assert_eq!(set_range, a);
    }
}
