use std::collections::HashMap;

use serde::{Deserialize, Serialize};

use crate::{ContactTrace, NodeId};

/// Online estimator of pairwise contact rates `λ_ab` and per-node rates
/// `λ_a = Σ_b λ_ab` (§III-B).
///
/// The paper models inter-contact times between `n_a` and `n_b` as
/// exponential with parameter `λ_ab`, "learned from historical contacts".
/// The maximum-likelihood estimate from a count of `k` contacts over an
/// observation window `T` is `k / T`, which is what this matrix maintains.
///
/// # Example
///
/// ```
/// use photodtn_contacts::{NodeId, RateMatrix};
/// let mut rates = RateMatrix::new(0.0);
/// rates.record(NodeId(0), NodeId(1), 3600.0);
/// rates.record(NodeId(0), NodeId(1), 7200.0);
/// rates.record(NodeId(0), NodeId(2), 7200.0);
/// // Node 0 met peers 3 times in 2 h → λ_0 = 3 / 7200 s⁻¹.
/// assert!((rates.node_rate(NodeId(0), 7200.0) - 3.0 / 7200.0).abs() < 1e-12);
/// ```
#[derive(Clone, Debug, Default, Serialize, Deserialize)]
pub struct RateMatrix {
    start_time: f64,
    pair_counts: HashMap<(u32, u32), u64>,
    node_counts: HashMap<u32, u64>,
}

impl RateMatrix {
    /// Creates an estimator observing from `start_time` (seconds).
    #[must_use]
    pub fn new(start_time: f64) -> Self {
        RateMatrix {
            start_time,
            pair_counts: HashMap::new(),
            node_counts: HashMap::new(),
        }
    }

    /// Builds an estimator from a full historical trace (observation
    /// window starts at 0).
    #[must_use]
    pub fn from_trace(trace: &ContactTrace) -> Self {
        let mut m = RateMatrix::new(0.0);
        for e in trace {
            m.record(e.a, e.b, e.start);
        }
        m
    }

    /// Records one contact between `a` and `b` (the time argument is kept
    /// for symmetry with streaming use; only the count matters).
    pub fn record(&mut self, a: NodeId, b: NodeId, _at: f64) {
        let key = if a < b { (a.0, b.0) } else { (b.0, a.0) };
        *self.pair_counts.entry(key).or_insert(0) += 1;
        *self.node_counts.entry(a.0).or_insert(0) += 1;
        *self.node_counts.entry(b.0).or_insert(0) += 1;
    }

    /// Number of recorded contacts between the pair.
    #[must_use]
    pub fn pair_count(&self, a: NodeId, b: NodeId) -> u64 {
        let key = if a < b { (a.0, b.0) } else { (b.0, a.0) };
        self.pair_counts.get(&key).copied().unwrap_or(0)
    }

    /// MLE of `λ_ab` at time `now`: contacts seen divided by the
    /// observation window. Zero before any observation time has elapsed.
    #[must_use]
    pub fn pair_rate(&self, a: NodeId, b: NodeId, now: f64) -> f64 {
        let window = now - self.start_time;
        if window <= 0.0 {
            return 0.0;
        }
        self.pair_count(a, b) as f64 / window
    }

    /// MLE of `λ_a = Σ_b λ_ab` at time `now` — the rate at which node `a`
    /// meets *anyone*, which drives metadata invalidation.
    #[must_use]
    pub fn node_rate(&self, a: NodeId, now: f64) -> f64 {
        let window = now - self.start_time;
        if window <= 0.0 {
            return 0.0;
        }
        self.node_counts.get(&a.0).copied().unwrap_or(0) as f64 / window
    }

    /// Total recorded contacts.
    #[must_use]
    pub fn total_contacts(&self) -> u64 {
        self.pair_counts.values().sum()
    }

    /// A canonical serializable snapshot of the estimator.
    ///
    /// The counts are flattened into *sorted* vectors: JSON maps need
    /// string keys (the pair counts are tuple-keyed), and sorting makes
    /// the encoding independent of `HashMap` iteration order, so equal
    /// estimators always snapshot to identical bytes.
    #[must_use]
    pub fn snapshot(&self) -> RateMatrixSnapshot {
        let mut pairs: Vec<(u32, u32, u64)> = self
            .pair_counts
            .iter()
            .map(|(&(a, b), &k)| (a, b, k))
            .collect();
        pairs.sort_unstable();
        let mut nodes: Vec<(u32, u64)> = self.node_counts.iter().map(|(&n, &k)| (n, k)).collect();
        nodes.sort_unstable();
        RateMatrixSnapshot {
            start_time: self.start_time,
            pairs,
            nodes,
        }
    }

    /// Rebuilds an estimator from a [`snapshot`](Self::snapshot).
    #[must_use]
    pub fn from_snapshot(s: &RateMatrixSnapshot) -> Self {
        RateMatrix {
            start_time: s.start_time,
            pair_counts: s.pairs.iter().map(|&(a, b, k)| ((a, b), k)).collect(),
            node_counts: s.nodes.iter().map(|&(n, k)| (n, k)).collect(),
        }
    }
}

/// The flattened, order-canonical form of a [`RateMatrix`] — see
/// [`RateMatrix::snapshot`].
#[derive(Clone, Debug, Default, PartialEq, Serialize, Deserialize)]
pub struct RateMatrixSnapshot {
    /// Start of the observation window, seconds.
    pub start_time: f64,
    /// `(a, b, count)` per observed pair, `a < b`, sorted.
    pub pairs: Vec<(u32, u32, u64)>,
    /// `(node, count)` per observed node, sorted.
    pub nodes: Vec<(u32, u64)>,
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ContactEvent;

    #[test]
    fn pair_and_node_rates() {
        let mut m = RateMatrix::new(0.0);
        m.record(NodeId(1), NodeId(0), 10.0);
        m.record(NodeId(0), NodeId(1), 20.0);
        m.record(NodeId(0), NodeId(2), 30.0);
        assert_eq!(m.pair_count(NodeId(0), NodeId(1)), 2);
        assert_eq!(m.pair_count(NodeId(1), NodeId(0)), 2);
        assert_eq!(m.pair_count(NodeId(1), NodeId(2)), 0);
        assert!((m.pair_rate(NodeId(0), NodeId(1), 100.0) - 0.02).abs() < 1e-12);
        assert!((m.node_rate(NodeId(0), 100.0) - 0.03).abs() < 1e-12);
        assert!((m.node_rate(NodeId(2), 100.0) - 0.01).abs() < 1e-12);
        assert_eq!(m.total_contacts(), 3);
    }

    #[test]
    fn zero_window_yields_zero() {
        let mut m = RateMatrix::new(50.0);
        m.record(NodeId(0), NodeId(1), 50.0);
        assert_eq!(m.pair_rate(NodeId(0), NodeId(1), 50.0), 0.0);
        assert_eq!(m.node_rate(NodeId(0), 40.0), 0.0);
    }

    #[test]
    fn from_trace_counts_all() {
        let t = ContactTrace::new(
            3,
            vec![
                ContactEvent::new(NodeId(0), NodeId(1), 0.0, 10.0),
                ContactEvent::new(NodeId(1), NodeId(2), 100.0, 110.0),
            ],
        );
        let m = RateMatrix::from_trace(&t);
        assert_eq!(m.total_contacts(), 2);
        assert_eq!(m.pair_count(NodeId(0), NodeId(1)), 1);
    }
}
