//! PROPHET as a *routing* baseline (Lindgren et al., ref. 16 of the
//! paper).
//!
//! The paper uses PROPHET's delivery predictability only as an input to
//! photo selection; the original protocol is itself a router: on a
//! contact, a node forwards a bundle to the peer iff the peer's delivery
//! predictability towards the destination is higher (the GRTR rule).
//! Implementing it closes the baseline set: content-oblivious like
//! Spray&Wait, but *contact-history-aware* like our scheme.

use photodtn_contacts::NodeId;
use photodtn_coverage::Photo;
use photodtn_sim::{Scheme, SimCtx};

/// PROPHET routing with the GRTR forwarding rule and FIFO buffers.
///
/// Forwarding *copies* (the common PROPHET deployment): the sender keeps
/// its replica, so predictability gradients pull photos towards the
/// command center without a copy cap.
#[derive(Clone, Debug, Default)]
pub struct ProphetRouting;

impl ProphetRouting {
    /// Creates the baseline.
    #[must_use]
    pub fn new() -> Self {
        ProphetRouting
    }
}

impl Scheme for ProphetRouting {
    fn name(&self) -> &'static str {
        "prophet"
    }

    fn on_photo_generated(&mut self, ctx: &mut SimCtx, node: NodeId, photo: Photo) {
        let capacity = ctx.storage_bytes();
        let collection = ctx.collection_mut(node);
        while collection.total_size() + photo.size > capacity {
            let Some(oldest) = collection.ids().next() else {
                return;
            };
            collection.remove(oldest);
        }
        collection.insert(photo);
    }

    fn on_contact(&mut self, ctx: &mut SimCtx, a: NodeId, b: NodeId, budget: u64) {
        let (pa, pb) = (ctx.delivery_prob(a), ctx.delivery_prob(b));
        let mut remaining = budget;
        // GRTR: forward only towards strictly higher predictability.
        for (src, dst, forward) in [(a, b, pb > pa), (b, a, pa > pb)] {
            if !forward {
                continue;
            }
            let missing: Vec<Photo> = ctx
                .collection(src)
                .iter()
                .filter(|p| !ctx.collection(dst).contains(p.id))
                .copied()
                .collect();
            for photo in missing {
                if photo.size > remaining {
                    return;
                }
                if ctx.collection(dst).total_size() + photo.size > ctx.storage_bytes() {
                    continue;
                }
                remaining -= photo.size;
                if ctx.contact_transfer().arrived() {
                    ctx.collection_mut(dst).insert(photo);
                }
            }
        }
    }

    fn on_upload(&mut self, ctx: &mut SimCtx, node: NodeId, budget: u64) {
        let mut remaining = budget;
        let mut bytes = 0;
        let photos: Vec<Photo> = ctx.collection(node).iter().copied().collect();
        for photo in photos {
            if photo.size > remaining {
                break;
            }
            if ctx.upload_photo(photo).acked() {
                ctx.collection_mut(node).remove(photo.id);
            }
            remaining -= photo.size;
            bytes += photo.size;
        }
        ctx.note_upload_bytes(bytes);
    }

    fn export_global_state(&self) -> Option<String> {
        // Stateless: the PROPHET tables this router consults belong to
        // the engine, which checkpoints them itself.
        Some("{}".to_string())
    }

    fn import_global_state(&mut self, _state: &str) -> Result<(), String> {
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{BestPossible, DirectDelivery};
    use photodtn_contacts::synth::{CommunityTraceGenerator, TraceStyle};
    use photodtn_sim::{SimConfig, Simulation};

    fn trace() -> photodtn_contacts::ContactTrace {
        CommunityTraceGenerator::new(TraceStyle::MitLike)
            .with_num_nodes(16)
            .with_duration_hours(48.0)
            .generate(8)
    }

    fn config() -> SimConfig {
        SimConfig::mit_default().with_photos_per_hour(40.0)
    }

    #[test]
    fn prophet_routing_delivers_between_direct_and_best() {
        let trace = trace();
        let prophet = Simulation::new(&config(), &trace, 1).run(&mut ProphetRouting::new());
        let direct = Simulation::new(&config(), &trace, 1).run(&mut DirectDelivery::new());
        let best = Simulation::new(&config(), &trace, 1).run(&mut BestPossible);
        let (p, d, b) = (
            prophet.final_sample().delivered_photos,
            direct.final_sample().delivered_photos,
            best.final_sample().delivered_photos,
        );
        assert!(p > 0);
        assert!(p <= b, "prophet {p} beat unconstrained flooding {b}");
        // predictability gradients should clearly out-deliver no-relay
        assert!(p >= d, "prophet {p} below direct delivery {d}");
    }

    #[test]
    fn deterministic() {
        let trace = trace();
        let r1 = Simulation::new(&config(), &trace, 2).run(&mut ProphetRouting::new());
        let r2 = Simulation::new(&config(), &trace, 2).run(&mut ProphetRouting::new());
        assert_eq!(r1, r2);
    }

    #[test]
    fn forwards_only_uphill() {
        // After a gateway contact, the gateway's predictability is ~1, so
        // photos should accumulate on gateways, not drain away from them.
        let trace = trace();
        let mut scheme = ProphetRouting::new();
        let result = Simulation::new(&config(), &trace, 3).run(&mut scheme);
        // sanity: the run produces monotone coverage like every scheme
        for w in result.samples.windows(2) {
            assert!(w[1].point_coverage >= w[0].point_coverage - 1e-12);
        }
    }
}
