//! A SmartPhoto-style *centralized* selector (§VI): "SmartPhoto assumes
//! that reliable communication such as cellular network is available to
//! all users, and then develops centralized photo selection algorithms
//! running on the server."
//!
//! [`CentralizedOracle`] models that regime inside the DTN world: the
//! server has global knowledge of every photo in the network, and at
//! every uplink window it requests exactly the photos with the highest
//! marginal coverage **among those the uploading node happens to carry**.
//! Relaying between nodes is still DTN-opportunistic (epidemic under the
//! resource limits), so the oracle isolates how much of our scheme's gap
//! to BestPossible is *selection* quality versus *knowledge* quality:
//!
//! * `BestPossible`  — perfect knowledge, no resource limits;
//! * `CentralizedOracle` — perfect knowledge at the uplink, real resource
//!   limits, content-oblivious storage/relaying;
//! * `OurScheme`     — distributed (cached, staleness-checked) knowledge,
//!   real resource limits, coverage-aware storage/relaying.
//!
//! Empirically the oracle *loses* to `OurScheme` under tight storage:
//! a perfect uplink cannot recover photos that content-oblivious storage
//! already evicted. That is precisely the paper's argument for making the
//! in-network selection coverage-aware.

use std::sync::Arc;

use photodtn_contacts::NodeId;
use photodtn_coverage::{Coverage, Photo, PhotoCoverage};
use photodtn_sim::{Scheme, SimCtx};

use crate::upload_base::UploadBase;
use crate::value::PhotoValueCache;

/// Centralized photo selection with global knowledge (SmartPhoto regime).
#[derive(Debug, Default)]
pub struct CentralizedOracle {
    values: PhotoValueCache,
    /// Persistent upload engine whose server base is maintained
    /// incrementally across uplink windows (rebound when the world's PoI
    /// list changes identity, i.e. a new run).
    upload: UploadBase,
}

impl CentralizedOracle {
    /// Creates the oracle.
    #[must_use]
    pub fn new() -> Self {
        CentralizedOracle::default()
    }
}

impl Scheme for CentralizedOracle {
    fn name(&self) -> &'static str {
        "oracle"
    }

    fn on_photo_generated(&mut self, ctx: &mut SimCtx, node: NodeId, photo: Photo) {
        // Keep the per-node storage discipline of our scheme: evict the
        // lowest standalone-value photo under pressure.
        let capacity = ctx.storage_bytes();
        let pois = ctx.pois_shared();
        let params = ctx.coverage_params();
        let collection = ctx.collection_mut(node);
        while collection.total_size() + photo.size > capacity {
            let new_value = self.values.value(&photo, &pois, params);
            let worst = collection
                .iter()
                .map(|p| (self.values.value(p, &pois, params), p.id))
                .min();
            match worst {
                Some((value, id)) if (value, id) < (new_value, photo.id) => {
                    collection.remove(id);
                }
                _ => return,
            }
        }
        collection.insert(photo);
    }

    fn on_contact(&mut self, ctx: &mut SimCtx, a: NodeId, b: NodeId, budget: u64) {
        // Epidemic relaying under the budget; the oracle's advantage is
        // at the uplink, not in routing.
        let mut remaining = budget;
        for (src, dst) in [(a, b), (b, a)] {
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
        // The server knows exactly what it has and asks for the photos
        // with the highest marginal coverage, greedily. The server base
        // persists across windows behind a checkpoint; rollback discards
        // the previous window's commits (which also fire for lost/corrupt
        // uploads, so they must never leak into the base).
        let (engine, server) = self.upload.prepare(ctx);

        // Snapshot the (id-ordered) collection and resolve each photo's
        // coverage through the per-run cache; gains then come from the
        // engine's fast path.
        let photos: Vec<Photo> = ctx.collection(node).iter().copied().collect();
        let covs: Vec<Arc<PhotoCoverage>> = photos
            .iter()
            .map(|p| ctx.photo_coverage(p.id, &p.meta))
            .collect();
        let mut taken = vec![false; photos.len()];

        let mut remaining = budget;
        let mut bytes = 0;
        loop {
            let candidate = photos
                .iter()
                .enumerate()
                .filter(|(i, p)| !taken[*i] && p.size <= remaining)
                .map(|(i, p)| (engine.gain_of_indexed(server, &covs[i]), p.id, i))
                .max_by(|(ga, ida, _), (gb, idb, _)| {
                    ga.point
                        .total_cmp(&gb.point)
                        .then(ga.aspect.total_cmp(&gb.aspect))
                        .then(idb.cmp(ida))
                });
            let Some((gain, _, i)) = candidate else { break };
            if Coverage::new(gain.point, gain.aspect) <= Coverage::ZERO {
                break; // nothing this node carries helps the server
            }
            let photo = photos[i];
            engine.commit_indexed(server, &covs[i], gain);
            taken[i] = true;
            if ctx.upload_photo(photo).acked() {
                ctx.collection_mut(node).remove(photo.id);
            }
            remaining -= photo.size;
            bytes += photo.size;
        }
        ctx.note_upload_bytes(bytes);
    }

    fn export_global_state(&self) -> Option<String> {
        // Fully derived: the value cache is pure memoization, and
        // `UploadBase::prepare` rebuilds the server base from the
        // command-center collection byte-identically when cold.
        Some("{}".to_string())
    }

    fn import_global_state(&mut self, _state: &str) -> Result<(), String> {
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::BestPossible;
    use photodtn_contacts::synth::{CommunityTraceGenerator, TraceStyle};
    use photodtn_sim::{SimConfig, Simulation};

    fn trace() -> photodtn_contacts::ContactTrace {
        CommunityTraceGenerator::new(TraceStyle::MitLike)
            .with_num_nodes(16)
            .with_duration_hours(40.0)
            .generate(12)
    }

    fn config() -> SimConfig {
        SimConfig::mit_default().with_photos_per_hour(40.0)
    }

    #[test]
    fn oracle_runs_and_is_bounded_by_best_possible() {
        let trace = trace();
        let oracle = Simulation::new(&config(), &trace, 1).run(&mut CentralizedOracle::new());
        let best = Simulation::new(&config(), &trace, 1).run(&mut BestPossible);
        assert_eq!(oracle.scheme, "oracle");
        assert!(oracle.final_sample().delivered_photos > 0);
        assert!(oracle.final_sample().point_coverage <= best.final_sample().point_coverage + 1e-9);
    }

    #[test]
    fn oracle_upload_selection_beats_plain_epidemic() {
        // The oracle is epidemic relaying + perfect uplink selection, so
        // it must not lose to plain epidemic (identical relaying, naive
        // uploads). Note it CAN lose to OurScheme: distributed but
        // coverage-aware *storage* beats centralized upload selection
        // over content-oblivious storage — which is the paper's thesis.
        let mut oracle_sum = 0.0;
        let mut epidemic_sum = 0.0;
        for seed in [1, 2, 3] {
            let trace = trace();
            oracle_sum += Simulation::new(&config(), &trace, seed)
                .run(&mut CentralizedOracle::new())
                .final_sample()
                .point_coverage;
            epidemic_sum += Simulation::new(&config(), &trace, seed)
                .run(&mut crate::Epidemic::new())
                .final_sample()
                .point_coverage;
        }
        assert!(
            oracle_sum >= epidemic_sum - 0.05,
            "oracle {oracle_sum} clearly below epidemic {epidemic_sum}"
        );
    }

    #[test]
    fn deterministic() {
        let trace = trace();
        let a = Simulation::new(&config(), &trace, 7).run(&mut CentralizedOracle::new());
        let b = Simulation::new(&config(), &trace, 7).run(&mut CentralizedOracle::new());
        assert_eq!(a, b);
    }
}
