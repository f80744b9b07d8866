use rand::rngs::SmallRng;
use rand::{seq::SliceRandom, Rng, SeedableRng};

use crate::{ContactEvent, ContactTrace, NodeId};

/// Metro-scale grid-city contact generator: thousands of nodes, sampled
/// in **O(contacts)** instead of the O(n²) pairwise machinery.
///
/// The city is a `grid × grid` lattice of cells (neighbourhoods). Every
/// node lives in one home cell; a small *roamer* fraction additionally
/// frequents a second, uniformly chosen cell, stitching the
/// neighbourhoods together the way commuters stitch a real city. Each
/// cell mixes internally as a single Poisson process whose rate scales
/// with its population — one arrival picks a uniform pair of the cell's
/// members — so generation cost is proportional to the number of contacts
/// produced, never to the number of node pairs. That is what makes
/// 5 000–50 000-node workloads practical where
/// [`CommunityTraceGenerator`](super::CommunityTraceGenerator) (97 nodes,
/// quadratic pair table) is not.
///
/// The resulting traces stand for *per-contact fixed cost*: thousands of
/// peers and many short contacts that each carry few photos, so the event
/// queue, PROPHET over every node, session set-up and metadata caches
/// dominate a run rather than the selection itself. Spatial community
/// structure stays strong (intra-cell contacts dominate) with a thin,
/// tunable layer of cross-cell contacts through roamers.
///
/// # Example
///
/// ```
/// use photodtn_contacts::synth::MetroTraceGenerator;
/// let trace = MetroTraceGenerator::new()
///     .with_num_nodes(2000)
///     .with_duration_hours(2.0)
///     .generate(7);
/// assert_eq!(trace.num_nodes(), 2000);
/// assert!(trace.len() > 1000);
/// ```
#[derive(Clone, Debug)]
pub struct MetroTraceGenerator {
    /// Number of nodes (default 5000).
    pub num_nodes: u32,
    /// Trace length, hours (default 12).
    pub duration_hours: f64,
    /// Cells per grid side; the city has `grid²` cells (default 8).
    pub grid: u32,
    /// Mean contacts each node participates in per hour (default 2).
    pub contacts_per_node_hour: f64,
    /// Fraction of nodes that also frequent a second cell (default 0.04).
    pub roamer_fraction: f64,
    /// Scan interval, seconds; 0 disables discretization (default 60).
    pub scan_interval: f64,
    /// Mean contact duration, seconds (default 300).
    pub mean_contact_duration: f64,
}

impl Default for MetroTraceGenerator {
    fn default() -> Self {
        Self::new()
    }
}

impl MetroTraceGenerator {
    /// Creates the default metro preset: 5000 nodes on an 8×8 grid over a
    /// 12-hour window.
    #[must_use]
    pub fn new() -> Self {
        MetroTraceGenerator {
            num_nodes: 5000,
            duration_hours: 12.0,
            grid: 8,
            contacts_per_node_hour: 2.0,
            roamer_fraction: 0.04,
            scan_interval: 60.0,
            mean_contact_duration: 300.0,
        }
    }

    /// Overrides the number of nodes (builder-style).
    #[must_use]
    pub fn with_num_nodes(mut self, n: u32) -> Self {
        self.num_nodes = n;
        self
    }

    /// Overrides the trace length in hours (builder-style).
    #[must_use]
    pub fn with_duration_hours(mut self, h: f64) -> Self {
        self.duration_hours = h;
        self
    }

    /// Overrides the grid side length (builder-style).
    #[must_use]
    pub fn with_grid(mut self, cells_per_side: u32) -> Self {
        self.grid = cells_per_side.max(1);
        self
    }

    /// The home cell of every node under `seed` (same assignment as
    /// [`generate`](Self::generate) uses).
    #[must_use]
    pub fn home_cells(&self, seed: u64) -> Vec<u32> {
        let num_cells = self.grid * self.grid;
        let mut rng = SmallRng::seed_from_u64(seed);
        let mut order: Vec<u32> = (0..self.num_nodes).collect();
        order.shuffle(&mut rng);
        // Round-robin over the shuffled order: cell populations differ by
        // at most one, so no cell degenerates to a single resident.
        let mut home = vec![0u32; self.num_nodes as usize];
        for (pos, node) in order.iter().enumerate() {
            home[*node as usize] = (pos as u32) % num_cells.max(1);
        }
        home
    }

    /// Generates a trace deterministically from `seed`.
    #[must_use]
    pub fn generate(&self, seed: u64) -> ContactTrace {
        let num_cells = (self.grid * self.grid).max(1) as usize;
        let home = self.home_cells(seed);
        // Derive the membership/arrival stream from the placement seed so
        // different seeds change both.
        let mut rng =
            SmallRng::seed_from_u64(seed.wrapping_mul(0x9E37_79B9_7F4A_7C15).wrapping_add(1));

        // Cell membership lists. Roamers join a second cell's list: their
        // contacts there are the cross-community edges of the trace.
        let mut members: Vec<Vec<u32>> = vec![Vec::new(); num_cells];
        for (node, &cell) in home.iter().enumerate() {
            members[cell as usize].push(node as u32);
        }
        let roamers = ((self.num_nodes as f64) * self.roamer_fraction.clamp(0.0, 1.0)) as u32;
        for node in 0..roamers {
            let away = rng.gen_range(0..num_cells);
            if away != home[node as usize] as usize {
                members[away].push(node);
            }
        }

        let duration = self.duration_hours * 3600.0;
        let per_node_rate = self.contacts_per_node_hour.max(0.0) / 3600.0;
        let mut events = Vec::new();
        for cell in &members {
            if cell.len() < 2 {
                continue;
            }
            // Each contact involves two members, so the cell's arrival
            // rate is half the summed per-node rate.
            let lambda = per_node_rate * cell.len() as f64 / 2.0;
            if lambda <= 0.0 {
                continue;
            }
            let mut t = sample_exp(&mut rng, lambda);
            while t < duration {
                let i = rng.gen_range(0..cell.len());
                let j = {
                    let mut j = rng.gen_range(0..cell.len() - 1);
                    if j >= i {
                        j += 1;
                    }
                    j
                };
                let raw_dur =
                    sample_exp(&mut rng, 1.0 / self.mean_contact_duration).clamp(30.0, 3600.0);
                let end = (t + raw_dur).min(duration);
                if let Some(e) = self.discretize(NodeId(cell[i]), NodeId(cell[j]), t, end) {
                    events.push(e);
                }
                t += sample_exp(&mut rng, lambda);
            }
        }
        ContactTrace::new(self.num_nodes, events)
    }

    /// Applies scan discretization to a true encounter (same rule as the
    /// pairwise generator: detected at the first scan boundary inside it).
    fn discretize(&self, a: NodeId, b: NodeId, start: f64, end: f64) -> Option<ContactEvent> {
        if self.scan_interval <= 0.0 {
            return (end > start).then(|| ContactEvent::new(a, b, start, end));
        }
        let detected = (start / self.scan_interval).ceil() * self.scan_interval;
        (detected < end).then(|| ContactEvent::new(a, b, detected, end))
    }
}

/// Exponential sample with rate `lambda`.
fn sample_exp<R: Rng + ?Sized>(rng: &mut R, lambda: f64) -> f64 {
    debug_assert!(lambda > 0.0);
    -rng.gen_range(f64::MIN_POSITIVE..1.0f64).ln() / lambda
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deterministic_per_seed() {
        let g = MetroTraceGenerator::new()
            .with_num_nodes(500)
            .with_duration_hours(1.0);
        assert_eq!(g.generate(3), g.generate(3));
        assert_ne!(g.generate(3), g.generate(4));
    }

    #[test]
    fn contact_volume_scales_with_population() {
        let base = MetroTraceGenerator::new()
            .with_num_nodes(1000)
            .with_duration_hours(1.0);
        let small = base.clone().generate(1).len() as f64;
        let big = base.with_num_nodes(4000).generate(1).len() as f64;
        // 4x the nodes at a fixed per-node rate ≈ 4x the contacts.
        assert!(
            big / small > 3.0 && big / small < 5.0,
            "small {small}, big {big}"
        );
    }

    #[test]
    fn intra_cell_contacts_dominate() {
        let g = MetroTraceGenerator::new()
            .with_num_nodes(2000)
            .with_duration_hours(2.0);
        let home = g.home_cells(5);
        let trace = g.generate(5);
        let mut intra = 0u64;
        let mut cross = 0u64;
        for e in &trace {
            if home[e.a.index()] == home[e.b.index()] {
                intra += 1;
            } else {
                cross += 1;
            }
        }
        assert!(cross > 0, "roamers should produce some cross-cell contacts");
        assert!(
            intra > 10 * cross,
            "community structure too weak: intra {intra} vs cross {cross}"
        );
    }

    #[test]
    fn metro_scale_generates_fast_and_within_bounds() {
        let g = MetroTraceGenerator::new(); // 5000 nodes, 12 h
        let trace = g.generate(2);
        // ~2 contacts/node/hour × 5000 nodes × 12 h / 2 ≈ 60k arrivals,
        // minus scan-discretization losses.
        assert!(
            (20_000..90_000).contains(&trace.len()),
            "unexpected volume {}",
            trace.len()
        );
        for e in &trace {
            assert!(e.start >= 0.0 && e.end <= 12.0 * 3600.0 + 1e-9);
            assert!(e.a != e.b);
        }
    }

    #[test]
    fn home_cells_are_balanced() {
        let g = MetroTraceGenerator::new().with_num_nodes(640);
        let home = g.home_cells(9);
        let cells = (g.grid * g.grid) as usize;
        for c in 0..cells {
            let size = home.iter().filter(|&&x| x == c as u32).count();
            assert_eq!(size, 640 / cells, "cell {c} holds {size}");
        }
    }
}
