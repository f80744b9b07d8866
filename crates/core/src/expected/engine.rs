//! Incremental expected-coverage engine.
//!
//! Greedy selection evaluates the marginal expected-coverage gain of
//! hundreds of candidate photos per contact; recomputing
//! [`expected_coverage_exact`](super::segment::expected_coverage_exact)
//! from scratch each time would be quadratic in the pool size. The engine
//! maintains, per PoI, which engine-nodes cover it and which aspects each
//! covers, so a candidate is evaluated in time proportional to the PoIs it
//! touches.

use std::cell::RefCell;
use std::sync::Arc as StdArc;

use photodtn_geo::{Angle, Arc, ArcSet, AspectBits};

use photodtn_coverage::{
    AspectWeightMap, AspectWeights, Coverage, CoverageParams, PhotoCoverage, PhotoMeta, PoiList,
};

/// Incrementally maintained `C_ex` over a set of engine-nodes.
///
/// An *engine-node* is one participant of the node set `M` of
/// Definition 2: it has a delivery probability and accumulates photos.
/// Typical use during a contact between `n_a` and `n_b`:
///
/// 1. add one engine-node per valid metadata record (including the
///    command center with probability 1) and commit their cached photos;
/// 2. add engine-nodes for `n_a` and `n_b`;
/// 3. repeatedly query [`gain_of`](Self::gain_of) for candidates and
///    [`add_photo`](Self::add_photo) the winner.
///
/// # Example
///
/// ```
/// use photodtn_core::expected::ExpectedEngine;
/// use photodtn_coverage::{CoverageParams, PhotoMeta, Poi, PoiList};
/// use photodtn_geo::{Angle, Point};
///
/// let pois = PoiList::new(vec![Poi::new(0, Point::new(0.0, 0.0))]);
/// let mut engine = ExpectedEngine::new(&pois, CoverageParams::default());
/// let relay = engine.add_node(0.5);
/// let meta = PhotoMeta::new(Point::new(50.0, 0.0), 100.0,
///                           Angle::from_degrees(60.0), Angle::from_degrees(180.0));
/// let gain = engine.add_photo(relay, &meta);
/// assert!((gain.point - 0.5).abs() < 1e-12); // P{delivered} × weight 1
/// // the same photo again adds nothing
/// assert!(engine.gain_of(relay, &meta).is_zero());
/// ```
#[derive(Clone, Debug)]
pub struct ExpectedEngine {
    pois: StdArc<PoiList>,
    params: CoverageParams,
    probs: Vec<f64>,
    states: Vec<PoiState>,
    total: Coverage,
    /// Optional per-PoI aspect weights (§II-C extension); `None` means
    /// uniform weights everywhere.
    aspect_weights: Option<AspectWeightMap>,
    /// Checkpoint of the committed base layer, when one is active. While
    /// set, every commit records an [`UndoOp`] so
    /// [`rollback`](Self::rollback) can restore the base state bitwise.
    base: Option<BaseMark>,
    /// Undo log of commits since the checkpoint, applied in reverse.
    undo: Vec<UndoOp>,
    /// Reusable buffers for gain evaluation. Interior mutability keeps
    /// [`gain_of`](Self::gain_of) a `&self` method while letting repeated
    /// previews run without heap allocation once the buffers are warm.
    scratch: RefCell<Scratch>,
}

/// One node's aspect coverage of one PoI.
#[derive(Clone, Debug)]
struct Coverer {
    /// The engine-node; membership implies it point-covers this PoI.
    node: usize,
    /// Exact covered-aspect set.
    set: ArcSet,
    /// Under-approximating bitset of `set`: every inner bin (dilated by
    /// the margin) lies inside `set`, so `outer(arc) ⊆ inner` proves a
    /// candidate arc is fully covered — an O(1) skip that cannot change
    /// results.
    inner: AspectBits,
}

/// Per-PoI incremental state.
#[derive(Clone, Debug, Default)]
struct PoiState {
    /// The nodes covering this PoI, with their aspect coverage.
    coverers: Vec<Coverer>,
    /// `Π (1 − p_i)` over covering nodes.
    point_survival: f64,
}

/// Snapshot header of [`ExpectedEngine::checkpoint`].
#[derive(Clone, Copy, Debug)]
struct BaseMark {
    nodes: usize,
    total: Coverage,
}

/// One reversible commit effect. Stored values are the exact pre-commit
/// bits, so rollback restores them bit-for-bit.
#[derive(Clone, Debug)]
enum UndoOp {
    /// A commit pushed a new coverer onto `states[poi]`.
    NewCoverer { poi: u32, prev_survival: f64 },
    /// A commit extended the aspect set of `states[poi].coverers[idx]`.
    Extended {
        poi: u32,
        idx: u32,
        prev_set: ArcSet,
    },
}

/// Reusable gain-evaluation buffers: the candidate's aspect region, the
/// region minus the node's own coverage, and the cut points of the
/// survival integral. All three are cleared (not freed) between
/// evaluations, so the steady state performs no allocation on the
/// uniform-weight path.
#[derive(Clone, Debug, Default)]
struct Scratch {
    region: ArcSet,
    novel: ArcSet,
    cuts: Vec<f64>,
}

impl ExpectedEngine {
    /// Creates an engine with no nodes.
    #[must_use]
    pub fn new(pois: &PoiList, params: CoverageParams) -> Self {
        Self::new_shared(StdArc::new(pois.clone()), params)
    }

    /// Creates an engine over a shared PoI list without cloning it — the
    /// hot-path constructor: a per-contact engine costs one refcount bump
    /// instead of a deep `PoiList` copy.
    #[must_use]
    pub fn new_shared(pois: StdArc<PoiList>, params: CoverageParams) -> Self {
        ExpectedEngine {
            states: vec![
                PoiState {
                    coverers: Vec::new(),
                    point_survival: 1.0
                };
                pois.len()
            ],
            pois,
            params,
            probs: Vec::new(),
            total: Coverage::ZERO,
            aspect_weights: None,
            base: None,
            undo: Vec::new(),
            scratch: RefCell::new(Scratch::default()),
        }
    }

    /// Clears all nodes and committed photos, returning the engine to its
    /// just-constructed state while **retaining every allocation**: the
    /// per-PoI coverer vectors, the scratch buffers, and the node table
    /// keep their capacity, so a reused engine stays on the
    /// zero-allocation warm path across contacts. PoI list, coverage
    /// parameters, and aspect weights are kept.
    pub fn reset(&mut self) {
        self.probs.clear();
        for state in &mut self.states {
            state.coverers.clear();
            state.point_survival = 1.0;
        }
        self.total = Coverage::ZERO;
        self.base = None;
        self.undo.clear();
    }

    /// Marks the current committed state as the *base layer*. Subsequent
    /// commits are recorded in an undo log; [`rollback`](Self::rollback)
    /// restores the engine to this point bitwise. Calling `checkpoint`
    /// again re-bases on the current state (absorbing anything committed
    /// since the previous checkpoint into the base).
    ///
    /// This is what lets callers keep an append-only base collection (the
    /// command center's photos across upload windows, a repeated metadata
    /// layer across contacts) committed once instead of rebuilding the
    /// whole engine per window.
    pub fn checkpoint(&mut self) {
        self.base = Some(BaseMark {
            nodes: self.probs.len(),
            total: self.total,
        });
        self.undo.clear();
    }

    /// Whether a checkpoint is active.
    #[must_use]
    pub fn has_checkpoint(&self) -> bool {
        self.base.is_some()
    }

    /// Reverts every commit and node added since the last
    /// [`checkpoint`](Self::checkpoint), restoring the engine to a state
    /// bit-identical to the one checkpointed (pinned by tests). The
    /// checkpoint stays active for the next round.
    ///
    /// # Panics
    ///
    /// Panics if no checkpoint is active.
    pub fn rollback(&mut self) {
        let base = self.base.expect("rollback without an active checkpoint");
        while let Some(op) = self.undo.pop() {
            match op {
                UndoOp::NewCoverer { poi, prev_survival } => {
                    let state = &mut self.states[poi as usize];
                    state.coverers.pop();
                    state.point_survival = prev_survival;
                }
                UndoOp::Extended { poi, idx, prev_set } => {
                    let c = &mut self.states[poi as usize].coverers[idx as usize];
                    c.inner = AspectBits::inner_of_set(&prev_set);
                    c.set = prev_set;
                }
            }
        }
        self.probs.truncate(base.nodes);
        self.total = base.total;
    }

    /// The engine's PoI list.
    #[must_use]
    pub fn pois(&self) -> &PoiList {
        &self.pois
    }

    /// The shared handle to the engine's PoI list (for `Arc::ptr_eq`
    /// same-world checks by callers that reuse engines across runs).
    #[must_use]
    pub fn pois_shared(&self) -> &StdArc<PoiList> {
        &self.pois
    }

    /// Applies per-PoI aspect weights (builder-style). Must be called
    /// before any photo is committed so the accumulated total stays
    /// consistent.
    ///
    /// # Panics
    ///
    /// Panics if photos were already committed.
    #[must_use]
    pub fn with_aspect_weights(mut self, weights: AspectWeightMap) -> Self {
        assert!(
            self.total.is_zero() && self.states.iter().all(|s| s.coverers.is_empty()),
            "aspect weights must be set before committing photos"
        );
        self.aspect_weights = Some(weights);
        self
    }

    /// Registers an engine-node with the given delivery probability
    /// (clamped to `[0, 1]`) and returns its handle.
    pub fn add_node(&mut self, delivery_prob: f64) -> usize {
        self.probs.push(super::clamp_prob(delivery_prob));
        self.probs.len() - 1
    }

    /// Number of engine-nodes.
    #[must_use]
    pub fn node_count(&self) -> usize {
        self.probs.len()
    }

    /// The delivery probability of an engine-node.
    #[must_use]
    pub fn prob(&self, node: usize) -> f64 {
        self.probs[node]
    }

    /// Current expected coverage `C_ex` of everything committed so far.
    #[must_use]
    pub fn total(&self) -> Coverage {
        self.total
    }

    /// Marginal expected-coverage gain of committing `meta` to `node`,
    /// without mutating the engine.
    ///
    /// # Panics
    ///
    /// Panics if `node` is not a handle returned by
    /// [`add_node`](Self::add_node).
    #[must_use]
    pub fn gain_of(&self, node: usize, meta: &PhotoMeta) -> Coverage {
        let p = self.probs[node];
        if p <= 0.0 {
            return Coverage::ZERO;
        }
        let mut scratch = self.scratch.borrow_mut();
        let scratch = &mut *scratch;
        let mut gain = Coverage::ZERO;
        for poi in meta.covered_pois(&self.pois) {
            let arc = meta.aspect_arc(poi, self.params.effective_angle);
            self.gain_at_poi(node, p, poi.id.index(), poi.weight, arc, scratch, &mut gain);
        }
        gain
    }

    /// Marginal gain of committing an indexed photo to `node` — the fast
    /// path of the selection loop.
    ///
    /// `cov` is the photo's precomputed [`PhotoCoverage`] against the
    /// engine's PoI list, built once per contact through the spatial grid.
    /// The evaluation performs no geometry and (on the uniform-weight
    /// path) no allocation: cost is proportional to the PoIs the photo
    /// touches, and the result is identical to
    /// [`gain_of`](Self::gain_of) on the metadata `cov` was built from.
    ///
    /// # Panics
    ///
    /// Panics if `cov` references PoIs outside the engine's list, or if
    /// `node` is not a valid handle.
    #[must_use]
    pub fn gain_of_indexed(&self, node: usize, cov: &PhotoCoverage) -> Coverage {
        let p = self.probs[node];
        if p <= 0.0 {
            return Coverage::ZERO;
        }
        let mut scratch = self.scratch.borrow_mut();
        let scratch = &mut *scratch;
        let mut gain = Coverage::ZERO;
        for e in cov.entries() {
            self.gain_at_poi(
                node,
                p,
                e.poi.index(),
                e.weight,
                Some(e.arc),
                scratch,
                &mut gain,
            );
        }
        gain
    }

    /// The gain contribution of one covered PoI — the single arithmetic
    /// path shared by [`gain_of`](Self::gain_of) and
    /// [`gain_of_indexed`](Self::gain_of_indexed), so the two produce
    /// bit-identical results.
    #[allow(clippy::too_many_arguments)]
    fn gain_at_poi(
        &self,
        node: usize,
        p: f64,
        poi_index: usize,
        weight: f64,
        arc: Option<Arc>,
        scratch: &mut Scratch,
        gain: &mut Coverage,
    ) {
        let state = &self.states[poi_index];
        let own = state.coverers.iter().find(|c| c.node == node);
        // Point: if this node is not yet a coverer, the survival product
        // gains a factor (1 − p): E[pt] rises by survival · p.
        if own.is_none() {
            gain.point += weight * state.point_survival * p;
        }
        // Aspect: on directions newly covered *by this node*, the survival
        // product gains the factor (1 − p).
        let Some(arc) = arc else { return };
        let poi_id = photodtn_coverage::PoiId(poi_index as u32);
        let weights = self.aspect_weights.as_ref().and_then(|m| m.get(&poi_id));
        if let Some(own_c) = own {
            // O(1) full-coverage short-circuit: if every bin the arc
            // touches is an inner bin of the node's own set, the exact
            // difference below is provably empty.
            if own_c.inner.contains_all(AspectBits::outer_of_arc(arc)) {
                return;
            }
        }
        scratch.region.assign_arc(arc);
        let region = if let Some(own_c) = own {
            scratch
                .region
                .difference_into(&own_c.set, &mut scratch.novel);
            &scratch.novel
        } else {
            &scratch.region
        };
        if region.is_empty() {
            return;
        }
        gain.aspect += weight
            * p
            * integrate_survival(
                &state.coverers,
                node,
                region,
                &self.probs,
                weights,
                &mut scratch.cuts,
            );
    }

    /// Records one committed arc on `(node, poi_index)`, logging an undo
    /// entry when a checkpoint is active — the single mutation path shared
    /// by [`add_photo`](Self::add_photo) and
    /// [`commit_indexed`](Self::commit_indexed).
    fn commit_arc(&mut self, node: usize, poi_index: usize, arc: Arc, p: f64) {
        let recording = self.base.is_some();
        let state = &mut self.states[poi_index];
        match state.coverers.iter().position(|c| c.node == node) {
            Some(k) => {
                if recording {
                    self.undo.push(UndoOp::Extended {
                        poi: poi_index as u32,
                        idx: k as u32,
                        prev_set: state.coverers[k].set.clone(),
                    });
                }
                let c = &mut state.coverers[k];
                c.set.insert(arc);
                c.inner = AspectBits::inner_of_set(&c.set);
            }
            None => {
                if recording {
                    self.undo.push(UndoOp::NewCoverer {
                        poi: poi_index as u32,
                        prev_survival: state.point_survival,
                    });
                }
                let set = ArcSet::from_arc(arc);
                state.coverers.push(Coverer {
                    node,
                    inner: AspectBits::inner_of_set(&set),
                    set,
                });
                state.point_survival *= 1.0 - p;
            }
        }
    }

    /// Commits `meta` to `node`, returning the gain (identical to what
    /// [`gain_of`](Self::gain_of) previewed).
    pub fn add_photo(&mut self, node: usize, meta: &PhotoMeta) -> Coverage {
        let gain = self.gain_of(node, meta);
        let p = self.probs[node];
        let touched: Vec<_> = meta.covered_pois(&self.pois).map(|poi| poi.id).collect();
        for id in touched {
            let poi = self.pois[id];
            let Some(arc) = meta.aspect_arc(&poi, self.params.effective_angle) else {
                continue;
            };
            self.commit_arc(node, id.index(), arc, p);
        }
        self.total += gain;
        gain
    }

    /// Commits an indexed photo whose gain was already previewed by
    /// [`gain_of_indexed`](Self::gain_of_indexed) — the *commit-from-
    /// preview* step of the selection loop. The previewed gain is applied
    /// to the running total without being recomputed, halving the
    /// evaluation cost of every committed photo.
    ///
    /// `previewed` must be the gain returned by `gain_of_indexed(node,
    /// cov)` against the engine's **current** state; passing a stale gain
    /// corrupts the accumulated total.
    pub fn commit_indexed(
        &mut self,
        node: usize,
        cov: &PhotoCoverage,
        previewed: Coverage,
    ) -> Coverage {
        let p = self.probs[node];
        for e in cov.entries() {
            self.commit_arc(node, e.poi.index(), e.arc, p);
        }
        self.total += previewed;
        previewed
    }

    /// Previews and commits an indexed photo in one call (the indexed
    /// equivalent of [`add_photo`](Self::add_photo)).
    pub fn add_photo_indexed(&mut self, node: usize, cov: &PhotoCoverage) -> Coverage {
        let gain = self.gain_of_indexed(node, cov);
        self.commit_indexed(node, cov, gain)
    }

    /// Commits a whole collection to `node`, returning the cumulative
    /// gain.
    pub fn add_collection<'a, M>(&mut self, node: usize, metas: M) -> Coverage
    where
        M: IntoIterator<Item = &'a PhotoMeta>,
    {
        let mut gain = Coverage::ZERO;
        for m in metas {
            gain += self.add_photo(node, m);
        }
        gain
    }
}

/// `∫_region w(v) · Π_{j ≠ node, region ∋ v ∈ S_j} (1 − p_j) dv`,
/// with `w ≡ 1` when `weights` is `None`.
///
/// `node`'s own set never overlaps `region` (the caller subtracted it), so
/// excluding it is belt-and-braces.
///
/// `cuts` is a caller-owned scratch buffer (cleared here) so the hot path
/// allocates nothing once the buffer is warm. The unstable sort is
/// value-equivalent to a stable one: `total_cmp` only ever calls two
/// *bitwise-identical* floats equal, so reordering "equal" elements cannot
/// change the sequence.
fn integrate_survival(
    coverers: &[Coverer],
    node: usize,
    region: &ArcSet,
    probs: &[f64],
    weights: Option<&AspectWeights>,
    cuts: &mut Vec<f64>,
) -> f64 {
    // Fast path: no other coverer and uniform weights — survival is 1
    // everywhere on region.
    if weights.is_none() && coverers.iter().all(|c| c.node == node) {
        return region.measure();
    }
    cuts.clear();
    for (lo, hi) in region.iter() {
        cuts.push(lo);
        cuts.push(hi);
    }
    for c in coverers {
        if c.node != node {
            for (lo, hi) in c.set.iter() {
                cuts.push(lo);
                cuts.push(hi);
            }
        }
    }
    if let Some(w) = weights {
        cuts.extend(w.endpoints());
    }
    cuts.sort_unstable_by(|a, b| a.total_cmp(b));
    cuts.dedup_by(|a, b| (*a - *b).abs() < 1e-12);
    let mut integral = 0.0;
    for w in cuts.windows(2) {
        let (lo, hi) = (w[0], w[1]);
        let len = hi - lo;
        if len <= 0.0 {
            continue;
        }
        let mid = Angle::from_radians(0.5 * (lo + hi));
        if !region.contains(mid) {
            continue;
        }
        let survival: f64 = coverers
            .iter()
            .filter(|c| c.node != node && c.set.contains(mid))
            .map(|c| 1.0 - probs[c.node])
            .product();
        let weight = weights.map_or(1.0, |w| w.weight_at(mid));
        integral += len * weight * survival;
    }
    integral
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::expected::segment::expected_coverage_exact;
    use crate::expected::DeliveryNode;
    use photodtn_coverage::Poi;
    use photodtn_geo::Point;

    fn pois() -> PoiList {
        PoiList::new(vec![
            Poi::new(0, Point::new(0.0, 0.0)),
            Poi::new(1, Point::new(500.0, 0.0)),
        ])
    }

    fn shot(target: Point, deg: f64) -> PhotoMeta {
        let dir = Angle::from_degrees(deg);
        PhotoMeta::new(
            target.offset(dir, 50.0),
            80.0,
            Angle::from_degrees(40.0),
            dir + Angle::PI,
        )
    }

    #[test]
    fn engine_matches_batch_exact() {
        let params = CoverageParams::default();
        let t0 = Point::new(0.0, 0.0);
        let t1 = Point::new(500.0, 0.0);
        let plan: Vec<(f64, Vec<PhotoMeta>)> = vec![
            (1.0, vec![shot(t0, 90.0)]),
            (0.7, vec![shot(t0, 0.0), shot(t1, 45.0)]),
            (0.3, vec![shot(t0, 30.0), shot(t0, 90.0)]),
            (0.5, vec![shot(t1, 200.0)]),
        ];
        let mut engine = ExpectedEngine::new(&pois(), params);
        for (p, metas) in &plan {
            let n = engine.add_node(*p);
            engine.add_collection(n, metas.iter());
        }
        let nodes: Vec<DeliveryNode> = plan
            .iter()
            .map(|(p, m)| DeliveryNode::new(*p, m.clone()))
            .collect();
        let batch = expected_coverage_exact(&pois(), &nodes, params);
        assert!((engine.total().point - batch.point).abs() < 1e-9);
        assert!((engine.total().aspect - batch.aspect).abs() < 1e-9);
    }

    #[test]
    fn gain_preview_equals_commit() {
        let params = CoverageParams::default();
        let t0 = Point::new(0.0, 0.0);
        let mut engine = ExpectedEngine::new(&pois(), params);
        let a = engine.add_node(0.6);
        let b = engine.add_node(0.3);
        for (node, meta) in [
            (a, shot(t0, 0.0)),
            (b, shot(t0, 10.0)),
            (a, shot(t0, 180.0)),
            (b, shot(t0, 180.0)),
        ] {
            let preview = engine.gain_of(node, &meta);
            let actual = engine.add_photo(node, &meta);
            assert!((preview.point - actual.point).abs() < 1e-12);
            assert!((preview.aspect - actual.aspect).abs() < 1e-12);
        }
    }

    #[test]
    fn duplicate_on_same_node_adds_nothing() {
        let params = CoverageParams::default();
        let t0 = Point::new(0.0, 0.0);
        let mut engine = ExpectedEngine::new(&pois(), params);
        let a = engine.add_node(0.8);
        engine.add_photo(a, &shot(t0, 0.0));
        assert!(engine.gain_of(a, &shot(t0, 0.0)).is_zero());
    }

    #[test]
    fn replica_on_second_node_adds_probability() {
        // The same photo on an independent relay increases delivery odds:
        // E[pt] goes from p_a to 1 − (1−p_a)(1−p_b).
        let params = CoverageParams::default();
        let t0 = Point::new(0.0, 0.0);
        let mut engine = ExpectedEngine::new(&pois(), params);
        let a = engine.add_node(0.6);
        let b = engine.add_node(0.5);
        engine.add_photo(a, &shot(t0, 0.0));
        let gain = engine.add_photo(b, &shot(t0, 0.0));
        assert!((gain.point - 0.4 * 0.5).abs() < 1e-12);
        assert!((engine.total().point - (1.0 - 0.4 * 0.5)).abs() < 1e-12);
    }

    #[test]
    fn zero_probability_node_gains_nothing() {
        let params = CoverageParams::default();
        let mut engine = ExpectedEngine::new(&pois(), params);
        let dead = engine.add_node(0.0);
        let gain = engine.add_photo(dead, &shot(Point::new(0.0, 0.0), 0.0));
        assert!(gain.is_zero());
        assert!(engine.total().is_zero());
    }

    #[test]
    fn command_center_saturates_point() {
        let params = CoverageParams::default();
        let t0 = Point::new(0.0, 0.0);
        let mut engine = ExpectedEngine::new(&pois(), params);
        let cc = engine.add_node(1.0);
        engine.add_photo(cc, &shot(t0, 0.0));
        // A relay re-covering the same PoI from the same angle adds zero.
        let relay = engine.add_node(0.9);
        let gain = engine.gain_of(relay, &shot(t0, 0.0));
        assert!(gain.is_zero());
        // From the opposite side it still adds aspects (but no point).
        let gain = engine.gain_of(relay, &shot(t0, 180.0));
        assert!(gain.point.abs() < 1e-12);
        assert!(gain.aspect > 0.0);
    }

    #[test]
    fn indexed_path_matches_linear_bitwise() {
        // The fast path must be *bit-identical* to the metadata scan, not
        // merely close — selection determinism depends on it.
        let params = CoverageParams::default();
        let pois = pois();
        let t0 = Point::new(0.0, 0.0);
        let t1 = Point::new(500.0, 0.0);
        let mut lin = ExpectedEngine::new(&pois, params);
        let mut idx = ExpectedEngine::new(&pois, params);
        let shots = [
            (1.0, shot(t0, 90.0)),
            (0.7, shot(t0, 0.0)),
            (0.7, shot(t1, 45.0)),
            (0.0, shot(t0, 30.0)), // zero-prob node still records arcs
            (0.3, shot(t0, 90.0)),
            (0.5, shot(t1, 200.0)),
        ];
        for (p, meta) in &shots {
            let node = lin.add_node(*p);
            assert_eq!(idx.add_node(*p), node);
            let cov = PhotoCoverage::build(meta, &pois, params);
            let g_lin = lin.gain_of(node, meta);
            let g_idx = idx.gain_of_indexed(node, &cov);
            assert_eq!(g_lin.point.to_bits(), g_idx.point.to_bits());
            assert_eq!(g_lin.aspect.to_bits(), g_idx.aspect.to_bits());
            lin.add_photo(node, meta);
            idx.add_photo_indexed(node, &cov);
        }
        assert_eq!(lin.total().point.to_bits(), idx.total().point.to_bits());
        assert_eq!(lin.total().aspect.to_bits(), idx.total().aspect.to_bits());
    }

    #[test]
    fn commit_from_preview_equals_add_photo() {
        let params = CoverageParams::default();
        let pois = pois();
        let t0 = Point::new(0.0, 0.0);
        let mut a = ExpectedEngine::new(&pois, params);
        let mut b = ExpectedEngine::new(&pois, params);
        let na = a.add_node(0.6);
        let nb = b.add_node(0.6);
        for deg in [0.0, 40.0, 180.0, 40.0] {
            let meta = shot(t0, deg);
            let cov = PhotoCoverage::build(&meta, &pois, params);
            let gain_a = a.add_photo(na, &meta);
            let preview = b.gain_of_indexed(nb, &cov);
            let gain_b = b.commit_indexed(nb, &cov, preview);
            assert_eq!(gain_a.point.to_bits(), gain_b.point.to_bits());
            assert_eq!(gain_a.aspect.to_bits(), gain_b.aspect.to_bits());
        }
        assert_eq!(a.total().point.to_bits(), b.total().point.to_bits());
        assert_eq!(a.total().aspect.to_bits(), b.total().aspect.to_bits());
    }

    #[test]
    fn reset_engine_is_bitwise_fresh() {
        // Engine reuse across contacts/uploads depends on reset being
        // indistinguishable from construction.
        let params = CoverageParams::default();
        let pois = pois();
        let t0 = Point::new(0.0, 0.0);
        let t1 = Point::new(500.0, 0.0);
        let shots = [
            (1.0, shot(t0, 90.0)),
            (0.7, shot(t1, 45.0)),
            (0.3, shot(t0, 90.0)),
        ];
        let mut reused = ExpectedEngine::new(&pois, params);
        // Dirty it with an unrelated first run.
        let n = reused.add_node(0.9);
        reused.add_photo(n, &shot(t1, 10.0));
        reused.add_photo(n, &shot(t0, 200.0));
        reused.reset();
        assert!(reused.total().is_zero());
        assert_eq!(reused.node_count(), 0);

        let mut fresh = ExpectedEngine::new(&pois, params);
        for (p, meta) in &shots {
            let a = fresh.add_node(*p);
            let b = reused.add_node(*p);
            assert_eq!(a, b);
            let ga = fresh.add_photo(a, meta);
            let gb = reused.add_photo(b, meta);
            assert_eq!(ga.point.to_bits(), gb.point.to_bits());
            assert_eq!(ga.aspect.to_bits(), gb.aspect.to_bits());
        }
        assert_eq!(
            fresh.total().point.to_bits(),
            reused.total().point.to_bits()
        );
        assert_eq!(
            fresh.total().aspect.to_bits(),
            reused.total().aspect.to_bits()
        );
    }

    #[test]
    fn new_shared_avoids_clone_and_exposes_handle() {
        let pois = StdArc::new(pois());
        let engine = ExpectedEngine::new_shared(StdArc::clone(&pois), CoverageParams::default());
        assert!(StdArc::ptr_eq(engine.pois_shared(), &pois));
        assert_eq!(engine.pois().len(), pois.len());
    }

    /// Bit-compares two engines by driving identical queries through them.
    fn assert_same_behavior(a: &ExpectedEngine, b: &ExpectedEngine, probe: &[(usize, PhotoMeta)]) {
        assert_eq!(a.node_count(), b.node_count());
        assert_eq!(a.total().point.to_bits(), b.total().point.to_bits());
        assert_eq!(a.total().aspect.to_bits(), b.total().aspect.to_bits());
        for (node, meta) in probe {
            let ga = a.gain_of(*node, meta);
            let gb = b.gain_of(*node, meta);
            assert_eq!(ga.point.to_bits(), gb.point.to_bits());
            assert_eq!(ga.aspect.to_bits(), gb.aspect.to_bits());
        }
    }

    #[test]
    fn rollback_restores_checkpoint_bitwise() {
        let params = CoverageParams::default();
        let pois = pois();
        let t0 = Point::new(0.0, 0.0);
        let t1 = Point::new(500.0, 0.0);
        let base_shots = [shot(t0, 90.0), shot(t1, 45.0)];

        // Reference: the base layer alone.
        let mut reference = ExpectedEngine::new(&pois, params);
        let cc_ref = reference.add_node(1.0);
        reference.add_collection(cc_ref, base_shots.iter());

        // Checkpointed engine: base layer, checkpoint, then a noisy session
        // touching both existing and new (node, poi) pairs.
        let mut engine = ExpectedEngine::new(&pois, params);
        let cc = engine.add_node(1.0);
        engine.add_collection(cc, base_shots.iter());
        engine.checkpoint();
        for round in 0..3 {
            let uploader = engine.add_node(0.7);
            engine.add_photo(uploader, &shot(t0, 90.0)); // duplicate of base
            engine.add_photo(uploader, &shot(t0, 200.0)); // new aspects
            engine.add_photo(cc, &shot(t1, 300.0)); // extends a base coverer
            engine.add_photo(uploader, &shot(t1, 300.0));
            engine.rollback();
            let probe = vec![
                (cc, shot(t0, 123.0)),
                (cc, shot(t1, 300.0)),
                (cc, shot(t0, 90.0)),
            ];
            assert_same_behavior(&engine, &reference, &probe);
            assert!(engine.has_checkpoint(), "checkpoint lost in round {round}");
        }

        // After rollback the engine must behave exactly like the reference
        // when the session is replayed (commits included).
        let ua = engine.add_node(0.4);
        let ub = reference.add_node(0.4);
        assert_eq!(ua, ub);
        let ga = engine.add_photo(ua, &shot(t0, 10.0));
        let gb = reference.add_photo(ub, &shot(t0, 10.0));
        assert_eq!(ga.point.to_bits(), gb.point.to_bits());
        assert_eq!(ga.aspect.to_bits(), gb.aspect.to_bits());
    }

    #[test]
    fn checkpoint_rebases_on_current_state() {
        let params = CoverageParams::default();
        let pois = pois();
        let t0 = Point::new(0.0, 0.0);
        let mut engine = ExpectedEngine::new(&pois, params);
        let cc = engine.add_node(1.0);
        engine.checkpoint();
        engine.add_photo(cc, &shot(t0, 90.0));
        // Re-checkpoint absorbs the commit into the base …
        engine.checkpoint();
        let n = engine.add_node(0.5);
        engine.add_photo(n, &shot(t0, 200.0));
        engine.rollback();
        // … so rollback keeps the first photo.
        assert_eq!(engine.node_count(), 1);
        assert!(engine.total().point > 0.0);
        assert!(engine.gain_of(cc, &shot(t0, 90.0)).is_zero());
    }

    #[test]
    #[should_panic(expected = "rollback without an active checkpoint")]
    fn rollback_without_checkpoint_panics() {
        let mut engine = ExpectedEngine::new(&pois(), CoverageParams::default());
        engine.rollback();
    }

    #[test]
    fn reset_clears_checkpoint() {
        let mut engine = ExpectedEngine::new(&pois(), CoverageParams::default());
        engine.checkpoint();
        assert!(engine.has_checkpoint());
        engine.reset();
        assert!(!engine.has_checkpoint());
    }

    #[test]
    fn handles_accessors() {
        let mut engine = ExpectedEngine::new(&pois(), CoverageParams::default());
        let n = engine.add_node(2.5); // clamped
        assert_eq!(engine.prob(n), 1.0);
        assert_eq!(engine.node_count(), 1);
    }
}
