//! Bit-identity of the sorted-merge PROPHET router against a reference:
//! the straightforward implementation with one hash table per node and a
//! snapshot copy of both tables per contact.
//!
//! The reference applies transitivity to every destination in the peer's
//! table except the peer, so it also writes a self-entry `P(x,x)`. The
//! router leaves that entry out (RFC 6693). The self-entry is read only
//! when `x`'s table is the peer's table and `c = x`, which is exactly the
//! skipped peer, so it never feeds another value: every `P(x,y)` with
//! `x ≠ y` must match to the bit, and each table may be shorter than the
//! reference's by exactly that one entry.
//!
//! Sequences are drawn from a fixed-seed generator, so failures replay.

use photodtn_contacts::NodeId;
use photodtn_prophet::{ProphetParams, ProphetRouter};

mod reference {
    use std::collections::HashMap;

    use photodtn_contacts::NodeId;
    use photodtn_prophet::ProphetParams;

    #[derive(Clone, Copy)]
    struct Entry {
        p: f64,
        last_aged: f64,
    }

    #[derive(Clone, Default)]
    struct Table {
        entries: HashMap<u32, Entry>,
    }

    fn aged(e: &Entry, now: f64, params: &ProphetParams) -> f64 {
        let elapsed = (now - e.last_aged).max(0.0);
        e.p * params.gamma.powf(elapsed / params.time_unit)
    }

    impl Table {
        fn predictability(&self, dest: u32, now: f64, params: &ProphetParams) -> f64 {
            self.entries
                .get(&dest)
                .map_or(0.0, |e| aged(e, now, params))
        }

        fn encounter(&mut self, peer: u32, now: f64, params: &ProphetParams) {
            let e = self.entries.entry(peer).or_insert(Entry {
                p: 0.0,
                last_aged: now,
            });
            let p = aged(e, now, params);
            e.p = p + (1.0 - p) * params.p_init;
            e.last_aged = now;
        }

        fn transitive(&mut self, peer: u32, peer_table: &Table, now: f64, params: &ProphetParams) {
            let p_ab = self.predictability(peer, now, params);
            if p_ab <= 0.0 {
                return;
            }
            for (&dest, peer_entry) in &peer_table.entries {
                if dest == peer {
                    continue;
                }
                let p_bc = aged(peer_entry, now, params);
                let candidate = p_ab * p_bc * params.beta;
                if candidate <= 0.0 {
                    continue;
                }
                let e = self.entries.entry(dest).or_insert(Entry {
                    p: 0.0,
                    last_aged: now,
                });
                let current = aged(e, now, params);
                e.p = current.max(candidate);
                e.last_aged = now;
            }
        }
    }

    /// The reference router: hash tables, snapshot copies per contact.
    pub struct Router {
        params: ProphetParams,
        tables: Vec<Table>,
    }

    impl Router {
        pub fn new(num_nodes: u32, params: ProphetParams) -> Self {
            Router {
                params,
                tables: vec![Table::default(); num_nodes as usize],
            }
        }

        pub fn contact(&mut self, a: NodeId, b: NodeId, now: f64) {
            let (ia, ib) = (a.index(), b.index());
            self.tables[ia].encounter(b.0, now, &self.params);
            self.tables[ib].encounter(a.0, now, &self.params);
            // transitivity uses snapshots of the post-encounter tables
            let ta = self.tables[ia].clone();
            let tb = self.tables[ib].clone();
            self.tables[ia].transitive(b.0, &tb, now, &self.params);
            self.tables[ib].transitive(a.0, &ta, now, &self.params);
        }

        pub fn predictability(&self, from: NodeId, dest: NodeId, now: f64) -> f64 {
            self.tables[from.index()].predictability(dest.0, now, &self.params)
        }

        pub fn reset_node(&mut self, node: NodeId) {
            self.tables[node.index()] = Table::default();
        }

        pub fn table_len(&self, node: NodeId) -> usize {
            self.tables[node.index()].entries.len()
        }

        pub fn has_self_entry(&self, node: NodeId) -> bool {
            self.tables[node.index()].entries.contains_key(&node.0)
        }
    }
}

/// SplitMix64: a fixed, dependency-free stream for the sequences.
struct Stream(u64);

impl Stream {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    fn below(&mut self, n: u64) -> u64 {
        self.next() % n
    }

    fn unit(&mut self) -> f64 {
        (self.next() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// A time step: ties, short gaps, long idle gaps, gaps long enough
    /// for aging to underflow to 0, and rare steps back in time.
    fn dt(&mut self) -> f64 {
        match self.below(100) {
            0..=24 => 0.0,
            25..=84 => self.unit() * 600.0,
            85..=94 => 1e5 + self.unit() * 1e7,
            95..=97 => 1e9 * (1.0 + self.unit()),
            _ => -self.unit() * 300.0,
        }
    }
}

/// Asserts the two routers agree at `now`: bit-equal `P(x,y)` for
/// `x ≠ y`, `P(x,x) = 0`, and table lengths that differ only by the
/// reference's self-entry. Returns the number of reads compared.
fn assert_agree(r: &ProphetRouter, o: &reference::Router, n: u32, now: f64, ctx: &str) -> usize {
    for x in (0..n).map(NodeId) {
        assert_eq!(r.predictability(x, x, now), 0.0, "{ctx}: P({x},{x})");
        let self_entry = usize::from(o.has_self_entry(x));
        assert_eq!(
            r.table(x).len() + self_entry,
            o.table_len(x),
            "{ctx}: table length of {x}"
        );
        for y in (0..n).map(NodeId).filter(|&y| y != x) {
            let (got, want) = (r.predictability(x, y, now), o.predictability(x, y, now));
            assert_eq!(
                got.to_bits(),
                want.to_bits(),
                "{ctx}: P({x},{y}) at {now}: {got} vs {want}"
            );
        }
    }
    (n * n) as usize
}

fn params_for(case: u64) -> ProphetParams {
    let paper = ProphetParams::paper_default();
    match case % 8 {
        // β = 0.25 scales exactly; a β that rounds pins the product order.
        4 => ProphetParams {
            p_init: 0.6,
            beta: 0.3,
            ..paper
        },
        5 => ProphetParams { beta: 0.0, ..paper },
        6 => ProphetParams {
            p_init: 1.0,
            beta: 1.0,
            ..paper
        },
        7 => ProphetParams {
            gamma: 0.5,
            time_unit: 60.0,
            ..paper
        },
        _ => paper,
    }
}

/// Replays one random sequence of contacts and resets on both routers,
/// comparing after every `check_every` steps and at probe times after
/// the last step.
fn replay(seed: u64, n: u32, steps: usize, check_every: usize) -> usize {
    let mut s = Stream(seed);
    let params = params_for(seed);
    let mut r = ProphetRouter::new(n, params);
    let mut o = reference::Router::new(n, params);
    let mut now = s.unit() * 1000.0;
    let mut reads = 0;
    for step in 0..steps {
        now += s.dt();
        if s.below(10) == 0 {
            let x = NodeId(s.below(u64::from(n)) as u32);
            r.reset_node(x);
            o.reset_node(x);
        } else {
            let a = s.below(u64::from(n)) as u32;
            let b = (a + 1 + s.below(u64::from(n) - 1) as u32) % n;
            r.contact(NodeId(a), NodeId(b), now);
            o.contact(NodeId(a), NodeId(b), now);
        }
        if step % check_every == 0 {
            let ctx = format!("seed {seed}, step {step}");
            reads += assert_agree(&r, &o, n, now, &ctx);
        }
    }
    for _ in 0..3 {
        let probe = now + s.dt().abs() + s.unit() * 1e4;
        reads += assert_agree(&r, &o, n, probe, &format!("seed {seed}, probe"));
    }
    reads
}

#[test]
fn small_worlds_match_reference_bit_for_bit() {
    let mut reads = 0;
    for seed in 0..400 {
        let n = 2 + (seed % 9) as u32;
        reads += replay(seed, n, 120, 1);
    }
    assert!(reads > 1_000_000, "only {reads} reads compared");
}

#[test]
fn wide_tables_match_reference_bit_for_bit() {
    // Enough nodes and contacts that tables hold dozens of entries with
    // many distinct aging stamps.
    for seed in 1000..1012 {
        replay(seed, 64, 1500, 100);
    }
}

#[test]
fn self_entry_is_the_only_length_difference() {
    // After 0 meets 1 and 1 meets 2, the reference has written P(1,1)
    // through 0's entry for 1, and P(0,0) through 1's entry for 0.
    let params = ProphetParams::paper_default();
    let mut r = ProphetRouter::new(3, params);
    let mut o = reference::Router::new(3, params);
    for (a, b, t) in [(0, 1, 0.0), (1, 2, 10.0), (0, 1, 20.0)] {
        r.contact(NodeId(a), NodeId(b), t);
        o.contact(NodeId(a), NodeId(b), t);
    }
    assert!(o.has_self_entry(NodeId(0)) && o.has_self_entry(NodeId(1)));
    assert!(o.predictability(NodeId(1), NodeId(1), 20.0) > 0.0);
    assert_eq!(r.predictability(NodeId(1), NodeId(1), 20.0), 0.0);
    assert_agree(&r, &o, 3, 20.0, "three nodes");
}
