//! The simulator's event queue.
//!
//! # Ordering contract
//!
//! Events execute in ascending `(t, kind_key, seq)` order, where
//! [`kind_key`] is `(kind discriminant, primary id, secondary id)` and
//! `seq` is the queue-wide push counter. This is *provably identical* to
//! the previous implementation — a `Vec<Event>` stable-sorted by
//! `(t, kind_key)` — because a stable sort breaks ties by original
//! position, i.e. by push order, i.e. by `seq`. The determinism tests pin
//! this equivalence byte-for-byte on whole-run results.
//!
//! # Why not sort-on-insert
//!
//! The old queue re-sorted the entire vector after every batch of pushes
//! (`O(N log N)` per batch, `O(N² log N)` if pushes arrive one at a
//! time). Here a push is an `O(1)` append to an unsorted *pending*
//! batch, and ordering is materialized lazily: before iteration, the
//! pending batch is sorted once (`O(k log k)` for `k` pending events)
//! and merged with the already-ordered run in one `O(n + k)` pass. Work
//! counters expose how many element moves materialization performed, so
//! a regression test can pin the complexity without timing anything.
//!
//! An earlier revision kept the pending set in a [`BinaryHeap`]
//! (`O(log n)` per push, full heap drain per materialization). That
//! moved the whole `N log N` ordering cost from construction into the
//! first `run()` — where schemes with near-zero per-event work
//! (epidemic) paid it as a measured 0.90x events/sec regression. The
//! sorted-batch design does the same total work as the original
//! push-then-sort `Vec`, and [`Simulation`](crate::Simulation)
//! construction materializes eagerly so the hot loop never sorts.
//!
//! [`BinaryHeap`]: std::collections::BinaryHeap

use std::cmp::Ordering;
use std::sync::Arc;

use photodtn_contacts::NodeId;
use photodtn_coverage::{Photo, PoiList};

/// What happens at one instant of simulated time.
#[derive(Clone, Debug)]
pub(crate) enum EventKind {
    /// PoI importance phase `step` begins: the world's PoI list is
    /// replaced by this one (same geometry, new weights). Scheduled only
    /// by [`Simulation::with_poi_reweights`](crate::Simulation::with_poi_reweights).
    Reweight(u32, Arc<PoiList>),
    /// `node` takes `photo`.
    Generate(NodeId, Photo),
    /// DTN contact with a usable duration (seconds).
    Contact(NodeId, NodeId, f64),
    /// Uplink window of `node` with a usable duration (seconds).
    Upload(NodeId, f64),
    /// `node` crashes: its photo buffer (and optionally PROPHET state)
    /// is wiped and it stays down until the matching [`Reboot`].
    ///
    /// [`Reboot`]: EventKind::Reboot
    Crash(NodeId),
    /// `node` comes back up, empty.
    Reboot(NodeId),
}

/// Deterministic same-time tie-break: kind discriminant, then ids.
///
/// `Reweight` sorts first so a phase boundary at time `t` applies before
/// anything else at `t`. Shifting the other discriminants up preserved
/// their *relative* order, so worlds without reweights order — and
/// therefore simulate — exactly as before.
pub(crate) fn kind_key(k: &EventKind) -> (u8, u32, u32) {
    match k {
        EventKind::Reweight(step, _) => (0, *step, 0),
        EventKind::Generate(n, p) => (1, n.0, p.id.0 as u32),
        EventKind::Contact(a, b, _) => (2, a.0, b.0),
        EventKind::Upload(n, _) => (3, n.0, 0),
        EventKind::Crash(n) => (4, n.0, 0),
        EventKind::Reboot(n) => (5, n.0, 0),
    }
}

/// An event plus the components of its total order.
#[derive(Clone, Debug)]
pub(crate) struct ScheduledEvent {
    pub(crate) t: f64,
    pub(crate) kind: EventKind,
    key: (u8, u32, u32),
    /// Queue-wide push counter — unique per event and a pure function of
    /// the schedule, so it doubles as the per-event fault-RNG key.
    pub(crate) seq: u64,
}

impl ScheduledEvent {
    fn order(&self, other: &Self) -> Ordering {
        self.t
            .total_cmp(&other.t)
            .then_with(|| self.key.cmp(&other.key))
            .then_with(|| self.seq.cmp(&other.seq))
    }
}

/// Priority queue over [`ScheduledEvent`]s with lazy ordered
/// materialization (see the module docs for the ordering contract).
#[derive(Debug, Default)]
pub(crate) struct EventQueue {
    /// Pushed but not yet merged into `ordered`; unsorted, sorted once
    /// per materialization.
    pending: Vec<ScheduledEvent>,
    /// The materialized ascending run.
    ordered: Vec<ScheduledEvent>,
    next_seq: u64,
    /// Total elements written by materialization merges — the queue's
    /// entire sorting work, pinned by the insertion-complexity test.
    merge_moves: u64,
    materializations: u64,
}

impl EventQueue {
    pub(crate) fn new() -> Self {
        EventQueue::default()
    }

    /// Schedules an event: `O(1)` amortized, no sorting.
    pub(crate) fn push(&mut self, t: f64, kind: EventKind) {
        let key = kind_key(&kind);
        let seq = self.next_seq;
        self.next_seq += 1;
        self.pending.push(ScheduledEvent { t, kind, key, seq });
    }

    /// Number of scheduled events (pending + materialized).
    pub(crate) fn len(&self) -> usize {
        self.pending.len() + self.ordered.len()
    }

    /// Drops every event `f` rejects, wherever it currently lives.
    pub(crate) fn retain(&mut self, mut f: impl FnMut(f64, &EventKind) -> bool) {
        self.ordered.retain(|e| f(e.t, &e.kind));
        self.pending.retain(|e| f(e.t, &e.kind));
    }

    /// Merges all pending events into the ordered run. Idempotent; called
    /// automatically by [`ordered`](Self::ordered) /
    /// [`ordered_mut`](Self::ordered_mut) would hide the cost, so callers
    /// invoke it explicitly before iterating.
    pub(crate) fn ensure_ordered(&mut self) {
        if self.pending.is_empty() {
            return;
        }
        self.materializations += 1;
        // Sort the pending batch by the total order. `seq` is unique, so
        // the order is total and an unstable sort is deterministic.
        let mut fresh = std::mem::take(&mut self.pending);
        fresh.sort_unstable_by(ScheduledEvent::order);
        if self.ordered.is_empty() {
            self.merge_moves += fresh.len() as u64;
            self.ordered = fresh;
            return;
        }
        // One linear merge of two ascending runs.
        let old = std::mem::take(&mut self.ordered);
        self.merge_moves += (old.len() + fresh.len()) as u64;
        let mut merged = Vec::with_capacity(old.len() + fresh.len());
        let mut a = old.into_iter().peekable();
        let mut b = fresh.into_iter().peekable();
        loop {
            match (a.peek(), b.peek()) {
                (Some(x), Some(y)) => {
                    if x.order(y) != Ordering::Greater {
                        merged.push(a.next().unwrap());
                    } else {
                        merged.push(b.next().unwrap());
                    }
                }
                (Some(_), None) => merged.push(a.next().unwrap()),
                (None, Some(_)) => merged.push(b.next().unwrap()),
                (None, None) => break,
            }
        }
        self.ordered = merged;
    }

    /// The events in execution order.
    ///
    /// # Panics
    ///
    /// Debug-asserts that [`ensure_ordered`](Self::ensure_ordered) ran
    /// since the last push.
    pub(crate) fn ordered(&self) -> &[ScheduledEvent] {
        debug_assert!(self.pending.is_empty(), "call ensure_ordered() first");
        &self.ordered
    }

    /// Mutable access in execution order, materializing first. Callers
    /// must not change an event's time or identity (the order keys are
    /// precomputed); payload mutation — e.g. re-placing a photo's
    /// location — is fine.
    pub(crate) fn ordered_mut(&mut self) -> &mut [ScheduledEvent] {
        self.ensure_ordered();
        &mut self.ordered
    }

    /// Total elements moved by materialization merges so far.
    #[cfg_attr(not(test), allow(dead_code))]
    pub(crate) fn merge_moves(&self) -> u64 {
        self.merge_moves
    }

    /// How many materialization passes have run.
    #[cfg_attr(not(test), allow(dead_code))]
    pub(crate) fn materializations(&self) -> u64 {
        self.materializations
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn upload(n: u32) -> EventKind {
        EventKind::Upload(NodeId(n), 1.0)
    }

    fn times(q: &mut EventQueue) -> Vec<(f64, (u8, u32, u32), u64)> {
        q.ensure_ordered();
        q.ordered().iter().map(|e| (e.t, e.key, e.seq)).collect()
    }

    #[test]
    fn orders_by_time_kind_then_push_order() {
        let mut q = EventQueue::new();
        q.push(5.0, upload(2));
        q.push(1.0, EventKind::Crash(NodeId(0)));
        q.push(1.0, EventKind::Contact(NodeId(0), NodeId(1), 2.0));
        q.push(5.0, upload(1));
        q.push(1.0, EventKind::Contact(NodeId(0), NodeId(1), 9.0)); // same key: push order
        let got = times(&mut q);
        assert_eq!(got[0].0, 1.0);
        assert_eq!(got[0].1 .0, 2); // contact before crash at t=1
        assert_eq!(got[1], (1.0, (2, 0, 1), 4)); // duplicate key → later seq second
        assert_eq!(got[2].1 .0, 4);
        assert_eq!(got[3], (5.0, (3, 1, 0), 3)); // upload(1) before upload(2)
        assert_eq!(got[4], (5.0, (3, 2, 0), 0));
    }

    #[test]
    fn matches_stable_sort_reference() {
        // The queue's order must equal stable-sorting the push sequence by
        // (t, kind_key) — the old implementation — for an adversarial
        // pattern of interleaved pushes and materializations.
        let mut q = EventQueue::new();
        let mut reference: Vec<(f64, (u8, u32, u32), usize)> = Vec::new();
        let mut push = |q: &mut EventQueue, t: f64, kind: EventKind| {
            reference.push((t, kind_key(&kind), reference.len()));
            q.push(t, kind);
        };
        // batch 1
        for i in 0..40u32 {
            let t = f64::from((i * 7) % 13);
            push(&mut q, t, upload(i % 3));
        }
        q.ensure_ordered();
        // batch 2 lands between and on existing times
        for i in 0..25u32 {
            let t = f64::from((i * 5) % 13) + 0.5 * f64::from(i % 2);
            push(&mut q, t, EventKind::Contact(NodeId(i % 4), NodeId(5), 1.0));
        }
        let got = times(&mut q);
        let mut expect = reference.clone();
        expect.sort_by(|a, b| a.0.total_cmp(&b.0).then_with(|| a.1.cmp(&b.1)));
        let expect: Vec<(f64, (u8, u32, u32), u64)> = expect
            .into_iter()
            .map(|(t, k, seq)| (t, k, seq as u64))
            .collect();
        assert_eq!(got, expect);
    }

    #[test]
    fn insertion_does_no_sorting_and_merges_linearly() {
        // The O(N² log N) push-then-full-sort regression test, without
        // timing: pushes must do zero sorting work, and inserting a batch
        // of K into an ordered run of N must cost exactly one N+K merge —
        // not a re-sort per push.
        let n = 10_000u32;
        let mut q = EventQueue::new();
        for i in 0..n {
            let t = (u64::from(i) * 2_654_435_761) % 1_000_000;
            q.push(t as f64, upload(i));
        }
        assert_eq!(q.merge_moves(), 0, "push performed sorting work");
        q.ensure_ordered();
        assert_eq!(q.merge_moves(), u64::from(n));
        assert_eq!(q.materializations(), 1);

        let k = 500u32;
        for i in 0..k {
            q.push(f64::from(i * 37 % 1_000_000), upload(n + i));
        }
        assert_eq!(q.merge_moves(), u64::from(n), "push performed sorting work");
        q.ensure_ordered();
        assert_eq!(q.merge_moves(), u64::from(n) + u64::from(n + k));
        assert_eq!(q.materializations(), 2);
        // ordering survives the merge
        let run = q.ordered();
        assert_eq!(run.len(), (n + k) as usize);
        for w in run.windows(2) {
            assert!(w[0].order(&w[1]) != Ordering::Greater);
        }
    }

    #[test]
    fn retain_filters_both_stores() {
        let mut q = EventQueue::new();
        q.push(1.0, upload(0));
        q.push(2.0, upload(1));
        q.ensure_ordered();
        q.push(3.0, upload(2));
        q.push(4.0, upload(3));
        q.retain(|_, k| !matches!(k, EventKind::Upload(n, _) if n.0 % 2 == 1));
        assert_eq!(q.len(), 2);
        let got = times(&mut q);
        assert_eq!(got.iter().map(|e| e.0).collect::<Vec<_>>(), vec![1.0, 3.0]);
    }
}
