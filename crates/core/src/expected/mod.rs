//! Expected coverage (§III-C, Definition 2).
//!
//! Given a node set `M = {n_0, n_1, …}` where node `n_i` holds photo
//! collection `F_i` and delivers it to the command center independently
//! with probability `p_i`, the *expected coverage* is
//!
//! ```text
//! C_ex(M) = Σ_{B ∈ {0,1}^m}  P_B · C_ph( ∪_{b_i = 1} F_i )
//! ```
//!
//! The paper presents this as a sum over all `2^m` delivery outcomes
//! ([`enumerate::expected_coverage_enumerate`]). Because deliveries are
//! independent and both coverage components are *union events* —
//! a PoI (or an aspect direction) is covered iff **some delivering node**
//! covers it — the expectation factorizes exactly:
//!
//! * `E[C_pt(x)] = 1 − Π_{i covers x} (1 − p_i)`
//! * `E[C_as(x)] = ∫ (1 − Π_{i covers aspect v} (1 − p_i)) dv`
//!
//! [`segment::expected_coverage_exact`] evaluates this in polynomial time
//! by decomposing each PoI's circle at arc endpoints, and
//! [`ExpectedEngine`] maintains it incrementally for greedy selection.
//! Enumeration is the test oracle: property tests assert the segment
//! algorithm and the engine agree with it.
//!
//! ## Ordering expected coverages
//!
//! The paper orders coverage pairs lexicographically but leaves the order
//! of *expected* pairs implicit. We take componentwise expectations
//! `(E[ΣC_pt], E[ΣC_as])` and compare them lexicographically (reusing
//! [`Coverage`](photodtn_coverage::Coverage)'s epsilon-tolerant order).
//! This preserves the paper's
//! intent — covering new PoIs in expectation dominates adding aspects —
//! while keeping the objective additive and efficiently computable.

mod engine;
pub mod enumerate;
pub mod segment;

pub use engine::ExpectedEngine;

use photodtn_coverage::{PhotoId, PhotoMeta};

/// One node's contribution to expected coverage: its delivery probability
/// and the metadata of the photos it holds.
///
/// The command center itself participates with `delivery_prob = 1.0`
/// (it trivially "delivers" what it already received).
#[derive(Clone, Debug, Default, PartialEq)]
pub struct DeliveryNode {
    /// Probability this node's photos reach the command center
    /// (PROPHET delivery predictability), clamped to `[0, 1]`.
    pub delivery_prob: f64,
    /// Metadata of the node's photo collection.
    pub metas: Vec<PhotoMeta>,
    /// Photo ids parallel to `metas`, when the caller knows them.
    ///
    /// Ids never change coverage math — they only let callers that keep a
    /// per-run [`PhotoCoverage`](photodtn_coverage::PhotoCoverage) cache
    /// (keyed by id) commit this node's photos through the indexed engine
    /// path instead of re-resolving geometry per contact. `None` falls
    /// back to the metadata scan; both paths are bit-identical.
    pub ids: Option<Vec<PhotoId>>,
}

impl DeliveryNode {
    /// Creates a node, clamping the probability into `[0, 1]`.
    #[must_use]
    pub fn new(delivery_prob: f64, metas: Vec<PhotoMeta>) -> Self {
        DeliveryNode {
            delivery_prob: clamp_prob(delivery_prob),
            metas,
            ids: None,
        }
    }

    /// Creates a node whose photo ids are known, enabling cached indexed
    /// commits. `photos` supplies `(id, meta)` pairs.
    ///
    /// The clamping matches [`new`](Self::new).
    #[must_use]
    pub fn with_ids(delivery_prob: f64, photos: Vec<(PhotoId, PhotoMeta)>) -> Self {
        let (ids, metas) = photos.into_iter().unzip();
        DeliveryNode {
            delivery_prob: clamp_prob(delivery_prob),
            metas,
            ids: Some(ids),
        }
    }
}

pub(crate) fn clamp_prob(p: f64) -> f64 {
    if p.is_finite() {
        p.clamp(0.0, 1.0)
    } else {
        0.0
    }
}
