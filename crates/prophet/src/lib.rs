//! PROPHET delivery predictability (Lindgren, Doria, Schelén — the
//! protocol the paper adopts in §III-C to estimate how likely a node's
//! photos reach the command center).
//!
//! The *delivery predictability* `P(a,b) ∈ [0,1]` is maintained with three
//! rules:
//!
//! 1. **Encounter** — when `a` meets `b`:
//!    `P(a,b) ← P(a,b) + (1 − P(a,b)) · P_init`;
//! 2. **Aging** — `P(a,b) ← P(a,b) · γ^k`, where `k` is the number of
//!    elapsed time units since the entry was last aged;
//! 3. **Transitivity** — when `a` meets `b`:
//!    `P(a,c) ← max(P(a,c), P(a,b) · P(b,c) · β)` for every `c ≠ a` in
//!    `b`'s table (RFC 6693 §2.1.2), using `b`'s table as it was before
//!    this contact's transitivity step.
//!
//! Table I of the paper fixes `(P_init, β, γ) = (0.75, 0.25, 0.98)`.
//! The aging time unit is not stated in the paper; we default to one hour,
//! which makes `γ = 0.98` a gentle decay on trace scales of hundreds of
//! hours (configurable via [`ProphetParams::time_unit`]).
//!
//! # Example
//!
//! ```
//! use photodtn_contacts::NodeId;
//! use photodtn_prophet::{ProphetParams, ProphetRouter};
//!
//! let mut router = ProphetRouter::new(3, ProphetParams::default());
//! router.contact(NodeId(0), NodeId(2), 0.0);     // 0 meets the center (2)
//! router.contact(NodeId(0), NodeId(1), 60.0);    // 1 meets 0
//! let direct = router.predictability(NodeId(0), NodeId(2), 60.0);
//! let transitive = router.predictability(NodeId(1), NodeId(2), 60.0);
//! assert!(direct > 0.7);
//! assert!(transitive > 0.0 && transitive < direct);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use serde::{Deserialize, Serialize};

use photodtn_contacts::{ContactTrace, NodeId};

/// PROPHET protocol parameters.
#[derive(Clone, Copy, Debug, PartialEq, Serialize, Deserialize)]
pub struct ProphetParams {
    /// Encounter reinforcement `P_init ∈ (0, 1]`.
    pub p_init: f64,
    /// Transitivity damping `β ∈ [0, 1]`.
    pub beta: f64,
    /// Aging factor `γ ∈ (0, 1)` per time unit.
    pub gamma: f64,
    /// Length of one aging time unit, seconds.
    pub time_unit: f64,
}

impl ProphetParams {
    /// Table I values: `(0.75, 0.25, 0.98)` with a one-hour aging unit.
    #[must_use]
    pub fn paper_default() -> Self {
        ProphetParams {
            p_init: 0.75,
            beta: 0.25,
            gamma: 0.98,
            time_unit: 3600.0,
        }
    }

    /// Validates parameter ranges.
    ///
    /// # Errors
    ///
    /// Returns a description of the first out-of-range parameter.
    pub fn validate(&self) -> Result<(), String> {
        if !(0.0 < self.p_init && self.p_init <= 1.0) {
            return Err(format!("p_init {} outside (0, 1]", self.p_init));
        }
        if !(0.0..=1.0).contains(&self.beta) {
            return Err(format!("beta {} outside [0, 1]", self.beta));
        }
        if !(0.0 < self.gamma && self.gamma < 1.0) {
            return Err(format!("gamma {} outside (0, 1)", self.gamma));
        }
        if !(self.time_unit.is_finite() && self.time_unit > 0.0) {
            return Err(format!("time_unit {} must be positive", self.time_unit));
        }
        Ok(())
    }
}

impl Default for ProphetParams {
    fn default() -> Self {
        Self::paper_default()
    }
}

/// One node's predictability table: `P(self, dest)` for every destination
/// it has (directly or transitively) learned about, kept as a list sorted
/// by destination. The owner never appears in its own table, so
/// `P(a,a)` reads 0.
#[derive(Clone, Debug, Default, Serialize, Deserialize)]
pub struct ProphetTable {
    entries: Vec<Entry>,
}

#[derive(Clone, Copy, Debug, Serialize, Deserialize)]
struct Entry {
    dest: u32,
    p: f64,
    last_aged: f64,
}

impl ProphetTable {
    /// Creates an empty table.
    #[must_use]
    pub fn new() -> Self {
        ProphetTable::default()
    }

    fn find(&self, dest: u32) -> Result<usize, usize> {
        self.entries.binary_search_by_key(&dest, |e| e.dest)
    }

    /// The aged predictability towards `dest` at time `now` (0 if
    /// unknown). Does not mutate the table — aging is applied lazily.
    #[must_use]
    pub fn predictability(&self, dest: NodeId, now: f64, params: &ProphetParams) -> f64 {
        self.find(dest.0)
            .map_or(0.0, |i| aged(&self.entries[i], now, params))
    }

    /// Number of known destinations.
    #[must_use]
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether the table is empty.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Applies the encounter rule for a meeting with `peer` at `now`.
    pub fn encounter(&mut self, peer: NodeId, now: f64, params: &ProphetParams) {
        let i = self.find(peer.0).unwrap_or_else(|i| {
            let fresh = Entry {
                dest: peer.0,
                p: 0.0,
                last_aged: now,
            };
            self.entries.insert(i, fresh);
            i
        });
        let e = &mut self.entries[i];
        let p = aged(e, now, params);
        e.p = p + (1.0 - p) * params.p_init;
        e.last_aged = now;
    }
}

fn aged(e: &Entry, now: f64, params: &ProphetParams) -> f64 {
    let elapsed = (now - e.last_aged).max(0.0);
    e.p * params.gamma.powf(elapsed / params.time_unit)
}

/// [`aged`] for many entries at one `now`, with `powf` skipped only where
/// its result is known: `γ^0` is exactly 1, and `powf` is a pure function,
/// so an elapsed time equal to the previous one reuses its factor.
struct Decay<'a> {
    now: f64,
    params: &'a ProphetParams,
    elapsed: f64,
    factor: f64,
}

impl<'a> Decay<'a> {
    fn new(now: f64, params: &'a ProphetParams) -> Self {
        Decay {
            now,
            params,
            elapsed: 0.0,
            factor: 1.0,
        }
    }

    fn aged(&mut self, e: &Entry) -> f64 {
        let elapsed = (self.now - e.last_aged).max(0.0);
        if elapsed == 0.0 {
            return e.p; // p · γ^0 = p · 1.0 = p
        }
        if elapsed != self.elapsed {
            self.elapsed = elapsed;
            self.factor = self.params.gamma.powf(elapsed / self.params.time_unit);
        }
        e.p * self.factor
    }
}

/// The transitivity rule for both sides of an `a`–`b` contact at `now`:
/// one merge over the two post-encounter tables that builds both new
/// tables. It reads only the old tables, so each side sees the other's
/// table as it was before the exchange.
///
/// For every destination `c` other than `a` and `b`, each side's entry
/// is raised to `max(P(x,c), P(x,y) · P(y,c) · β)` and re-stamped `now`
/// when that candidate is positive; every other entry is kept as it is.
/// `c = y` is the peer (its own table holds no entry for it) and `c = x`
/// would be the self-entry, which RFC 6693 leaves out.
fn exchange(
    ta: &ProphetTable,
    a: u32,
    tb: &ProphetTable,
    b: u32,
    now: f64,
    params: &ProphetParams,
) -> (Vec<Entry>, Vec<Entry>) {
    let (xa, xb) = (&ta.entries, &tb.entries);
    let p_ab = ta.predictability(NodeId(b), now, params);
    let p_ba = tb.predictability(NodeId(a), now, params);
    let (mut age_a, mut age_b) = (Decay::new(now, params), Decay::new(now, params));
    // The candidate through a peer reached with `p_peer` whose aged entry
    // for the destination is `p_theirs`.
    let via =
        |p_peer: f64, p_theirs: Option<f64>| p_theirs.map_or(0.0, |p| p_peer * p * params.beta);
    let union = union_len(xa, xb);
    let (mut na, mut nb) = (Vec::with_capacity(union), Vec::with_capacity(union));
    let (mut i, mut j) = (0, 0);
    loop {
        let (dest, ea, eb) = match (xa.get(i), xb.get(j)) {
            (None, None) => break,
            (Some(x), Some(y)) if x.dest == y.dest => (x.dest, Some(x), Some(y)),
            (Some(x), Some(y)) if x.dest < y.dest => (x.dest, Some(x), None),
            (Some(x), None) => (x.dest, Some(x), None),
            (_, Some(y)) => (y.dest, None, Some(y)),
        };
        i += usize::from(ea.is_some());
        j += usize::from(eb.is_some());
        if dest == a || dest == b {
            na.extend(ea);
            nb.extend(eb);
            continue;
        }
        let pa = ea.map(|e| age_a.aged(e));
        let pb = eb.map(|e| age_b.aged(e));
        na.extend(raised(dest, ea, pa, via(p_ab, pb), now));
        nb.extend(raised(dest, eb, pb, via(p_ba, pa), now));
    }
    (na, nb)
}

/// One side's entry for `dest` after transitivity: `mine` (aged to
/// `p_mine`) raised to `candidate`, the value through the peer.
fn raised(
    dest: u32,
    mine: Option<&Entry>,
    p_mine: Option<f64>,
    candidate: f64,
    now: f64,
) -> Option<Entry> {
    if candidate > 0.0 {
        Some(Entry {
            dest,
            p: p_mine.unwrap_or(0.0).max(candidate),
            last_aged: now,
        })
    } else {
        mine.copied()
    }
}

/// Number of distinct destinations in two sorted tables.
fn union_len(x: &[Entry], y: &[Entry]) -> usize {
    let (mut i, mut j, mut n) = (0, 0, 0);
    while i < x.len() && j < y.len() {
        let (u, v) = (x[i].dest, y[j].dest);
        i += usize::from(u <= v);
        j += usize::from(v <= u);
        n += 1;
    }
    n + (x.len() - i) + (y.len() - j)
}

/// Predictability state for a whole network: one [`ProphetTable`] per node,
/// fed by contact events.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct ProphetRouter {
    params: ProphetParams,
    tables: Vec<ProphetTable>,
}

impl ProphetRouter {
    /// Creates state for `num_nodes` nodes.
    ///
    /// # Panics
    ///
    /// Panics if `params` fail [`ProphetParams::validate`].
    #[must_use]
    pub fn new(num_nodes: u32, params: ProphetParams) -> Self {
        params.validate().expect("invalid PROPHET parameters");
        ProphetRouter {
            params,
            tables: vec![ProphetTable::new(); num_nodes as usize],
        }
    }

    /// The protocol parameters.
    #[must_use]
    pub fn params(&self) -> &ProphetParams {
        &self.params
    }

    /// Number of nodes.
    #[must_use]
    pub fn num_nodes(&self) -> u32 {
        self.tables.len() as u32
    }

    /// Checks a deserialized router: valid parameters, and every table
    /// sorted by destination without repeats, naming only nodes of this
    /// router other than its owner.
    ///
    /// # Errors
    ///
    /// Returns a description of the first violation.
    pub fn validate(&self) -> Result<(), String> {
        self.params.validate()?;
        let n = self.num_nodes();
        for (owner, table) in (0..n).zip(&self.tables) {
            let sorted = table.entries.windows(2).all(|w| w[0].dest < w[1].dest);
            let in_range = table.entries.iter().all(|e| e.dest < n && e.dest != owner);
            if !(sorted && in_range) {
                return Err(format!(
                    "table of node {owner} is not a sorted list of other nodes below {n}"
                ));
            }
        }
        Ok(())
    }

    /// Processes a contact between `a` and `b` at time `now`: encounter
    /// updates on both sides, then a mutual transitivity exchange in which
    /// each side uses the other's post-encounter table.
    ///
    /// # Panics
    ///
    /// Panics if either node id is out of range, or if `a == b`.
    pub fn contact(&mut self, a: NodeId, b: NodeId, now: f64) {
        let n = self.tables.len();
        assert!(
            a != b && a.index() < n && b.index() < n,
            "contact({a}, {b}) needs two distinct nodes below {n}"
        );
        self.tables[a.index()].encounter(b, now, &self.params);
        self.tables[b.index()].encounter(a, now, &self.params);
        let (ta, tb) = exchange(
            &self.tables[a.index()],
            a.0,
            &self.tables[b.index()],
            b.0,
            now,
            &self.params,
        );
        self.tables[a.index()].entries = ta;
        self.tables[b.index()].entries = tb;
    }

    /// Replays a whole trace (contacts applied at their start times).
    pub fn learn_trace(&mut self, trace: &ContactTrace) {
        for e in trace {
            self.contact(e.a, e.b, e.start);
        }
    }

    /// `P(from, dest)` at time `now`.
    #[must_use]
    pub fn predictability(&self, from: NodeId, dest: NodeId, now: f64) -> f64 {
        self.tables[from.index()].predictability(dest, now, &self.params)
    }

    /// Read access to one node's table.
    #[must_use]
    pub fn table(&self, node: NodeId) -> &ProphetTable {
        &self.tables[node.index()]
    }

    /// Erases `node`'s own delivery-predictability table — the device
    /// rebooted and lost its protocol state. Other nodes' predictability
    /// *towards* `node` is untouched: their information about it is now
    /// stale, exactly the situation the metadata-validity model exists
    /// to handle.
    ///
    /// # Panics
    ///
    /// Panics if `node` is out of range.
    pub fn reset_node(&mut self, node: NodeId) {
        self.tables[node.index()] = ProphetTable::new();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn params() -> ProphetParams {
        ProphetParams::paper_default()
    }

    #[test]
    fn paper_defaults_match_table1() {
        let p = params();
        assert_eq!((p.p_init, p.beta, p.gamma), (0.75, 0.25, 0.98));
        assert!(p.validate().is_ok());
    }

    #[test]
    fn validate_rejects_bad_params() {
        assert!(ProphetParams {
            p_init: 0.0,
            ..params()
        }
        .validate()
        .is_err());
        assert!(ProphetParams {
            p_init: 1.5,
            ..params()
        }
        .validate()
        .is_err());
        assert!(ProphetParams {
            beta: -0.1,
            ..params()
        }
        .validate()
        .is_err());
        assert!(ProphetParams {
            gamma: 1.0,
            ..params()
        }
        .validate()
        .is_err());
        assert!(ProphetParams {
            time_unit: 0.0,
            ..params()
        }
        .validate()
        .is_err());
    }

    #[test]
    fn encounter_increases_towards_one() {
        let mut t = ProphetTable::new();
        let mut prev = 0.0;
        for k in 0..10 {
            t.encounter(NodeId(1), k as f64, &params());
            let p = t.predictability(NodeId(1), k as f64, &params());
            assert!(p > prev, "encounter must increase predictability");
            assert!(p <= 1.0);
            prev = p;
        }
        assert!(prev > 0.99);
        // first encounter exactly P_init
        let mut fresh = ProphetTable::new();
        fresh.encounter(NodeId(2), 0.0, &params());
        assert!((fresh.predictability(NodeId(2), 0.0, &params()) - 0.75).abs() < 1e-12);
    }

    #[test]
    fn aging_decays() {
        let mut t = ProphetTable::new();
        t.encounter(NodeId(1), 0.0, &params());
        let p0 = t.predictability(NodeId(1), 0.0, &params());
        let p_hour = t.predictability(NodeId(1), 3600.0, &params());
        let p_week = t.predictability(NodeId(1), 7.0 * 24.0 * 3600.0, &params());
        assert!((p_hour - p0 * 0.98).abs() < 1e-12);
        assert!(p_week < p_hour && p_hour < p0);
        assert!(p_week > 0.0);
    }

    #[test]
    fn transitivity_spreads_with_damping() {
        let mut r = ProphetRouter::new(3, params());
        // node 1 knows the destination 2 well
        for k in 0..5 {
            r.contact(NodeId(1), NodeId(2), k as f64 * 10.0);
        }
        let p_bc = r.predictability(NodeId(1), NodeId(2), 50.0);
        r.contact(NodeId(0), NodeId(1), 50.0);
        let p_ab = r.predictability(NodeId(0), NodeId(1), 50.0);
        let p_ac = r.predictability(NodeId(0), NodeId(2), 50.0);
        assert!((p_ac - p_ab * p_bc * 0.25).abs() < 1e-9);
        assert!(p_ac < p_bc);
    }

    #[test]
    fn transitivity_never_decreases_existing() {
        let mut r = ProphetRouter::new(3, params());
        // 0 knows 2 directly and strongly
        for k in 0..6 {
            r.contact(NodeId(0), NodeId(2), k as f64);
        }
        let strong = r.predictability(NodeId(0), NodeId(2), 6.0);
        // weak transitive path must not lower it
        r.contact(NodeId(1), NodeId(2), 6.0);
        r.contact(NodeId(0), NodeId(1), 7.0);
        let after = r.predictability(NodeId(0), NodeId(2), 7.0);
        assert!(after >= strong * 0.98f64.powf(1.0 / 3600.0) - 1e-9);
    }

    #[test]
    fn probabilities_always_in_unit_interval() {
        let mut r = ProphetRouter::new(5, params());
        for k in 0..200u32 {
            let a = NodeId(k % 5);
            let b = NodeId((k * 7 + 1) % 5);
            if a != b {
                r.contact(a, b, f64::from(k) * 30.0);
            }
        }
        for a in 0..5 {
            for b in 0..5 {
                let p = r.predictability(NodeId(a), NodeId(b), 6000.0);
                assert!((0.0..=1.0).contains(&p), "P({a},{b}) = {p}");
            }
        }
    }

    #[test]
    fn unknown_destination_is_zero() {
        let r = ProphetRouter::new(4, params());
        assert_eq!(r.predictability(NodeId(0), NodeId(3), 100.0), 0.0);
        assert!(r.table(NodeId(0)).is_empty());
    }

    #[test]
    fn learn_trace_replays_contacts() {
        use photodtn_contacts::ContactEvent;
        let trace = ContactTrace::new(
            3,
            vec![
                ContactEvent::new(NodeId(0), NodeId(1), 0.0, 10.0),
                ContactEvent::new(NodeId(1), NodeId(2), 100.0, 110.0),
            ],
        );
        let mut r = ProphetRouter::new(3, params());
        r.learn_trace(&trace);
        assert!(r.predictability(NodeId(0), NodeId(1), 100.0) > 0.0);
        assert!(r.predictability(NodeId(1), NodeId(2), 100.0) > 0.0);
        // 2 heard about 0 via transitivity through 1
        assert!(r.predictability(NodeId(2), NodeId(0), 100.0) > 0.0);
        assert_eq!(r.num_nodes(), 3);
    }

    #[test]
    #[should_panic(expected = "two distinct nodes")]
    fn self_contact_panics() {
        let mut r = ProphetRouter::new(3, params());
        r.contact(NodeId(1), NodeId(1), 0.0);
    }

    #[test]
    fn tables_stay_sorted_without_self_entries() {
        let mut r = ProphetRouter::new(6, params());
        for (k, (a, b)) in [(5, 0), (3, 4), (0, 3), (2, 1), (1, 5), (4, 2)]
            .into_iter()
            .enumerate()
        {
            r.contact(NodeId(a), NodeId(b), k as f64 * 60.0);
            assert_eq!(r.validate(), Ok(()));
        }
        for x in 0..6 {
            assert_eq!(r.predictability(NodeId(x), NodeId(x), 400.0), 0.0);
        }
    }

    #[test]
    fn validate_rejects_malformed_tables() {
        let entry = |dest| Entry {
            dest,
            p: 0.5,
            last_aged: 0.0,
        };
        let with_table = |entries: Vec<Entry>| {
            let mut r = ProphetRouter::new(3, params());
            r.tables[0] = ProphetTable { entries };
            r.validate()
        };
        assert_eq!(with_table(vec![entry(1), entry(2)]), Ok(()));
        assert!(with_table(vec![entry(2), entry(1)]).is_err());
        assert!(with_table(vec![entry(1), entry(1)]).is_err());
        assert!(with_table(vec![entry(0)]).is_err());
        assert!(with_table(vec![entry(3)]).is_err());
    }

    #[test]
    fn symmetric_contact_updates_both_sides() {
        let mut r = ProphetRouter::new(2, params());
        r.contact(NodeId(0), NodeId(1), 0.0);
        assert!(r.predictability(NodeId(0), NodeId(1), 0.0) > 0.0);
        assert!(r.predictability(NodeId(1), NodeId(0), 0.0) > 0.0);
    }
}
