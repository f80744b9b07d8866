use std::collections::{BTreeMap, HashMap};
use std::sync::Arc;

use photodtn_contacts::{NodeId, RateMatrix};
use photodtn_core::expected::DeliveryNode;
use photodtn_core::selection::{PeerState, SelectionInput, SelectionSession};
use photodtn_core::transmission::{execute_plan_with, plan_transfers};
use photodtn_core::validity::ValidityModel;
use photodtn_core::MetadataCache;
use photodtn_coverage::{Photo, PhotoCoverage, PhotoId, PhotoMeta, PoiList};
use photodtn_sim::{Scheme, SimCtx, TraceEvent};

use crate::upload_base::UploadBase;
use crate::value::PhotoValueCache;

/// The paper's resource-aware photo selection scheme (§III), wired into
/// the simulator.
///
/// Per-contact behaviour:
///
/// 1. learn contact rates (`λ`) for the metadata-validity model;
/// 2. assemble the node set `M`: both endpoints (live collections), every
///    third node with **valid** cached metadata at either endpoint
///    (equation (1)), and the command center's known collection
///    (delivery probability 1 — its metadata "is always valid");
/// 3. run the greedy reallocation of §III-D under both storage limits;
/// 4. transmit in selection order under the contact's byte budget
///    (§III-D, network-constrained adjustment);
/// 5. exchange metadata snapshots + `λ` for future validity checks.
///
/// On an uplink window the node greedily sends the photos with the
/// largest marginal coverage on what the command center already has, and
/// drops delivered photos locally (the returned metadata acts as the
/// acknowledgment described in §III-B).
///
/// [`OurScheme::no_metadata`] constructs the §V-B *NoMetadata* ablation:
/// identical except that step 2's node set contains only the two
/// endpoints.
#[derive(Debug)]
pub struct OurScheme {
    use_metadata: bool,
    /// Relay command-center acknowledgments between nodes (the paper's
    /// "works as an acknowledgment" behaviour). On by default; disable
    /// for ablations.
    relay_acks: bool,
    validity: ValidityModel,
    caches: HashMap<u32, MetadataCache>,
    rates: RateMatrix,
    values: PhotoValueCache,
    /// Per-run selection context, lazily bound to the current world's PoI
    /// list (a new run — new `Arc` — replaces it).
    session: Option<SelectionSession>,
    /// Persistent greedy-upload engine whose command-center base is
    /// maintained incrementally across uplink windows (checkpoint +
    /// rollback; same `Arc`-staleness rule as `session`).
    upload: UploadBase,
}

impl OurScheme {
    /// The full scheme with Table I parameters.
    #[must_use]
    pub fn new() -> Self {
        OurScheme {
            use_metadata: true,
            relay_acks: true,
            validity: ValidityModel::paper_default(),
            caches: HashMap::new(),
            rates: RateMatrix::new(0.0),
            values: PhotoValueCache::new(),
            session: None,
            upload: UploadBase::default(),
        }
    }

    /// The *NoMetadata* ablation: no metadata caching or validity
    /// management; selection sees only the two contacting nodes.
    #[must_use]
    pub fn no_metadata() -> Self {
        OurScheme {
            use_metadata: false,
            relay_acks: false,
            ..Self::new()
        }
    }

    /// Overrides the validity threshold (builder-style).
    #[must_use]
    pub fn with_validity(mut self, validity: ValidityModel) -> Self {
        self.validity = validity;
        self
    }

    /// Disables relaying of command-center acknowledgments
    /// (builder-style; for ablation benches).
    #[must_use]
    pub fn without_ack_relay(mut self) -> Self {
        self.relay_acks = false;
        self
    }

    fn cache_mut(&mut self, node: NodeId) -> &mut MetadataCache {
        self.caches.entry(node.0).or_default()
    }

    /// The per-run [`SelectionSession`], (re)created when the world's PoI
    /// list changes identity (i.e. a new simulation run started).
    fn session_for(
        &mut self,
        pois: &Arc<PoiList>,
        params: photodtn_coverage::CoverageParams,
    ) -> &mut SelectionSession {
        let stale = self
            .session
            .as_ref()
            .is_none_or(|s| !Arc::ptr_eq(s.pois_shared(), pois));
        if stale {
            self.session = Some(SelectionSession::new(Arc::clone(pois), params));
        }
        self.session.as_mut().expect("just ensured")
    }

    /// Collects the valid third-party records both endpoints know about,
    /// converting them to [`DeliveryNode`]s (§III-C: "M contains all nodes
    /// of which n_a and n_b have valid metadata", plus `n_0`).
    fn gather_others(&self, ctx: &SimCtx, a: NodeId, b: NodeId) -> Vec<DeliveryNode> {
        if !self.use_metadata {
            return Vec::new();
        }
        let now = ctx.now();
        let cc = ctx.command_center_id();
        // peer id -> (snapshot time, (id, meta) records). Ordered map so
        // the node set M reaches selection in the same (ascending peer)
        // order on every run — the selection's f64 accumulation order is
        // part of the byte-identical determinism contract.
        let mut merged: BTreeMap<u32, (f64, Vec<(PhotoId, PhotoMeta)>)> = BTreeMap::new();
        for endpoint in [a, b] {
            let Some(cache) = self.caches.get(&endpoint.0) else {
                continue;
            };
            for (peer, record) in cache.valid_records(&self.validity, now) {
                if peer == a || peer == b {
                    continue; // live collections take precedence
                }
                let entry = merged
                    .entry(peer.0)
                    .or_insert((f64::NEG_INFINITY, Vec::new()));
                if record.snapshot_at > entry.0 {
                    *entry = (record.snapshot_at, record.photos.clone());
                }
            }
        }
        merged
            .into_iter()
            .map(|(peer, (_, photos))| {
                let prob = if NodeId(peer) == cc {
                    1.0
                } else {
                    ctx.delivery_prob(NodeId(peer))
                };
                // Ids are known here, so the session can commit these
                // photos through the cached indexed path.
                DeliveryNode::with_ids(prob, photos)
            })
            .collect()
    }

    /// Stores `peer`'s current snapshot (photos + λ) in `owner`'s cache,
    /// and optionally relays the freshest command-center record.
    fn exchange_metadata(&mut self, ctx: &mut SimCtx, owner: NodeId, peer: NodeId) {
        if !self.use_metadata {
            return;
        }
        let now = ctx.now();
        let snapshot: Vec<(PhotoId, PhotoMeta)> = ctx
            .collection(peer)
            .iter()
            .map(|p| (p.id, p.meta))
            .collect();
        let snapshot_bytes = snapshot.len() as u64 * PhotoMeta::wire_size() + 8;
        ctx.note_metadata_bytes(snapshot_bytes);
        if ctx.trace_enabled() {
            ctx.trace(TraceEvent::MetadataSnapshot {
                t: now,
                from: peer.0,
                to: owner.0,
                entries: snapshot.len() as u64,
                bytes: snapshot_bytes,
            });
        }
        let lambda = self.rates.node_rate(peer, now);
        let cc = ctx.command_center_id();
        // Relay the peer's command-center knowledge if fresher than ours.
        let relayed_cc = if self.relay_acks {
            self.caches.get(&peer.0).and_then(|c| c.record(cc)).cloned()
        } else {
            None
        };
        let validity = self.validity;
        let cache = self.cache_mut(owner);
        cache.update(peer, snapshot, lambda, now);
        if let Some(peer_cc) = relayed_cc {
            let ours_older = cache
                .record(cc)
                .is_none_or(|r| r.snapshot_at < peer_cc.snapshot_at);
            if ours_older {
                cache.update(cc, peer_cc.photos, 0.0, peer_cc.snapshot_at);
            }
        }
        let purged = cache.purge_stale(&validity, now);
        if purged > 0 && ctx.trace_enabled() {
            ctx.trace(TraceEvent::MetadataInvalidated {
                t: now,
                node: owner.0,
                purged: purged as u64,
            });
        }
    }
}

impl Default for OurScheme {
    fn default() -> Self {
        Self::new()
    }
}

impl Scheme for OurScheme {
    fn name(&self) -> &'static str {
        if self.use_metadata {
            "ours"
        } else {
            "no-metadata"
        }
    }

    fn on_photo_generated(&mut self, ctx: &mut SimCtx, node: NodeId, photo: Photo) {
        let capacity = ctx.storage_bytes();
        let pois = ctx.pois_shared();
        let params = ctx.coverage_params();
        let collection = ctx.collection_mut(node);
        // Make room by evicting the lowest standalone-coverage photo while
        // the new one is worth more than the worst stored one.
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
                _ => return, // the new photo is the least valuable: skip it
            }
        }
        collection.insert(photo);
    }

    fn on_contact(&mut self, ctx: &mut SimCtx, a: NodeId, b: NodeId, budget: u64) {
        let now = ctx.now();
        self.rates.record(a, b, now);

        let others = self.gather_others(ctx, a, b);
        let pois = ctx.pois_shared();
        let input = SelectionInput {
            pois: &pois,
            params: ctx.coverage_params(),
            a: PeerState {
                node: a,
                delivery_prob: ctx.delivery_prob(a),
                capacity: ctx.storage_bytes(),
                photos: ctx.collection(a).iter().copied().collect(),
            },
            b: PeerState {
                node: b,
                delivery_prob: ctx.delivery_prob(b),
                capacity: ctx.storage_bytes(),
                photos: ctx.collection(b).iter().copied().collect(),
            },
            others,
        };
        let session = self.session_for(&pois, input.params);
        let result = session.reallocate_with(&input, |id, meta| ctx.photo_coverage(id, meta));
        if ctx.trace_enabled() {
            ctx.trace(TraceEvent::Selection {
                t: now,
                a: a.0,
                b: b.0,
                a_first: result.a_first,
                a_selected: result.a_selected.iter().map(|p| p.0).collect(),
                b_selected: result.b_selected.iter().map(|p| p.0).collect(),
                expected_point: result.expected.point,
                expected_aspect_deg: result.expected.aspect.to_degrees(),
                evaluations: result.stats.evaluations,
                refreshes: result.stats.refreshes,
                commits: result.stats.commits,
            });
        }
        let capacity = ctx.storage_bytes();
        let (faults, ca, cb) = ctx.faults_and_pair_mut(a, b);
        let plan = plan_transfers(&result, ca, cb);
        // Transmit in selection order over the (possibly faulty) link:
        // lost/corrupt sends burn budget but never store (§III-D —
        // whatever prefix survives is still the most valuable one).
        execute_plan_with(&plan, &result, ca, capacity, cb, capacity, budget, |_| {
            faults.roll_transfer()
        });

        // Exchange metadata snapshots of the post-contact collections.
        self.exchange_metadata(ctx, a, b);
        self.exchange_metadata(ctx, b, a);
    }

    fn on_upload(&mut self, ctx: &mut SimCtx, node: NodeId, budget: u64) {
        let now = ctx.now();

        // Greedy marginal-gain order against what the command center has.
        // The engine persists across uplink windows with its command-
        // center base checkpointed: rollback discards the previous
        // window's commits (which also fire for lost/corrupt uploads, so
        // they must never leak into the base), and only the photos the
        // command center gained since last window are committed on top.
        let (engine, _cc_node) = self.upload.prepare(ctx);
        let uploader = engine.add_node(1.0);

        // Snapshot the (id-ordered) collection and resolve each photo's
        // coverage table through the per-run cache; the greedy loop then
        // evaluates gains through the engine's allocation-free fast path.
        let photos: Vec<Photo> = ctx.collection(node).iter().copied().collect();
        let covs: Vec<Arc<PhotoCoverage>> = photos
            .iter()
            .map(|p| ctx.photo_coverage(p.id, &p.meta))
            .collect();
        let mut taken = vec![false; photos.len()];

        let mut remaining = budget;
        let mut bytes = 0u64;
        loop {
            let candidate = photos
                .iter()
                .enumerate()
                .filter(|(i, p)| !taken[*i] && p.size <= remaining)
                .map(|(i, p)| (engine.gain_of_indexed(uploader, &covs[i]), p.id, i))
                .max_by(|(ga, ida, _), (gb, idb, _)| {
                    ga.point
                        .total_cmp(&gb.point)
                        .then(ga.aspect.total_cmp(&gb.aspect))
                        .then(idb.cmp(ida))
                });
            let Some((gain, _, i)) = candidate else { break };
            if gain.point < 1e-9 && gain.aspect < 1e-9 {
                break; // nothing left that adds coverage
            }
            let photo = photos[i];
            engine.commit_indexed(uploader, &covs[i], gain);
            taken[i] = true;
            // The uplink burns the bytes either way; only an acknowledged
            // arrival lets the node drop its local copy (§III-B — the
            // returned metadata is the acknowledgment).
            let outcome = ctx.upload_photo(photo);
            if ctx.trace_enabled() {
                ctx.trace(TraceEvent::UploadCommit {
                    t: now,
                    node: node.0,
                    photo: photo.id.0,
                    bytes: photo.size,
                    gain_point: gain.point,
                    gain_aspect_deg: gain.aspect.to_degrees(),
                    outcome,
                });
            }
            if outcome.acked() {
                ctx.collection_mut(node).remove(photo.id);
            }
            remaining -= photo.size;
            bytes += photo.size;
        }
        ctx.note_upload_bytes(bytes);

        // The command center's metadata (acknowledgments) is cached with
        // λ = 0: always valid.
        if self.use_metadata {
            let cc = ctx.command_center_id();
            let snapshot: Vec<(PhotoId, PhotoMeta)> =
                ctx.cc_collection().iter().map(|p| (p.id, p.meta)).collect();
            ctx.note_metadata_bytes(snapshot.len() as u64 * PhotoMeta::wire_size() + 8);
            self.cache_mut(node).update(cc, snapshot, 0.0, now);
        }
    }

    fn on_node_crashed(&mut self, _ctx: &mut SimCtx, node: NodeId) {
        // The metadata cache lives in the node's RAM: a crash destroys it.
        // Other nodes' cached records *about* this node survive and go
        // stale — exactly what the §III-B validity model must absorb.
        self.caches.remove(&node.0);
    }

    fn export_global_state(&self) -> Option<String> {
        // Persistent protocol state only: every node's metadata cache and
        // the λ estimator. The selection session, upload base, and photo-
        // value memoization are derived — they rebuild lazily and carry
        // byte-identity contracts ("cold caches must not influence
        // results"), so a resumed run reproduces the original bit-for-bit.
        let state = OursGlobalState {
            caches: self.caches.clone(),
            rates: self.rates.snapshot(),
        };
        Some(serde_json::to_string(&state).expect("ours state serialization is infallible"))
    }

    fn import_global_state(&mut self, state: &str) -> Result<(), String> {
        let state: OursGlobalState = serde_json::from_str(state).map_err(|e| e.to_string())?;
        self.caches = state.caches;
        self.rates = RateMatrix::from_snapshot(&state.rates);
        // Derived state restarts cold on purpose (DESIGN.md decision #14).
        self.values = PhotoValueCache::new();
        self.session = None;
        self.upload = UploadBase::default();
        Ok(())
    }
}

/// The checkpointable protocol state of [`OurScheme`]: metadata caches
/// keyed by node, plus the flattened λ estimator (the raw
/// [`RateMatrix`] is tuple-keyed, which JSON cannot express as a map).
#[derive(Debug, serde::Serialize, serde::Deserialize)]
struct OursGlobalState {
    caches: HashMap<u32, photodtn_core::MetadataCache>,
    rates: photodtn_contacts::RateMatrixSnapshot,
}

#[cfg(test)]
mod tests {
    use super::*;
    use photodtn_contacts::synth::{CommunityTraceGenerator, TraceStyle};
    use photodtn_sim::{SimConfig, Simulation};

    fn trace() -> photodtn_contacts::ContactTrace {
        CommunityTraceGenerator::new(TraceStyle::MitLike)
            .with_num_nodes(15)
            .with_duration_hours(40.0)
            .generate(3)
    }

    fn config() -> SimConfig {
        SimConfig::mit_default().with_photos_per_hour(30.0)
    }

    #[test]
    fn runs_and_delivers() {
        let result = Simulation::new(&config(), &trace(), 1).run(&mut OurScheme::new());
        assert_eq!(result.scheme, "ours");
        assert!(
            result.final_sample().delivered_photos > 0,
            "must deliver photos"
        );
        assert!(result.final_sample().point_coverage > 0.0);
    }

    #[test]
    fn no_metadata_variant_runs() {
        let result = Simulation::new(&config(), &trace(), 1).run(&mut OurScheme::no_metadata());
        assert_eq!(result.scheme, "no-metadata");
        assert!(result.final_sample().delivered_photos > 0);
    }

    #[test]
    fn deterministic() {
        let r1 = Simulation::new(&config(), &trace(), 5).run(&mut OurScheme::new());
        let r2 = Simulation::new(&config(), &trace(), 5).run(&mut OurScheme::new());
        assert_eq!(r1, r2);
    }

    #[test]
    fn storage_never_exceeded() {
        // small storage to force evictions
        let config = config().with_storage_bytes(20 * 1024 * 1024); // 5 photos
        let trace = trace();
        let mut sim = Simulation::new(&config, &trace, 2);
        let _ = sim.run(&mut OurScheme::new()); // debug_assert in engine checks
    }

    #[test]
    fn metadata_overhead_is_negligible() {
        // The paper's core resource argument: metadata is "just a couple
        // of floating point numbers". Verify the accounted metadata
        // traffic is a small fraction of the photo bytes delivered.
        let result = Simulation::new(&config(), &trace(), 6).run(&mut OurScheme::new());
        let f = result.final_sample();
        assert!(f.metadata_bytes > 0, "metadata exchange must be accounted");
        assert!(
            (f.metadata_bytes as f64) < 0.05 * (f.uploaded_bytes as f64),
            "metadata {} B not ≪ photo traffic {} B",
            f.metadata_bytes,
            f.uploaded_bytes
        );
        // metadata-free baselines report zero
        let spray = Simulation::new(&config(), &trace(), 6).run(&mut crate::SprayAndWait::new());
        assert_eq!(spray.final_sample().metadata_bytes, 0);
    }

    #[test]
    fn delivers_fewer_photos_than_flood() {
        // "the number of delivered photos in our scheme … is dramatically
        // less" — flooding delivers everything it can.
        let trace = trace();
        let flood =
            Simulation::new(&config(), &trace, 4).run(&mut photodtn_sim::schemes_api::FloodScheme);
        let ours = Simulation::new(&config(), &trace, 4).run(&mut OurScheme::new());
        assert!(
            ours.final_sample().delivered_photos <= flood.final_sample().delivered_photos,
            "ours {} vs flood {}",
            ours.final_sample().delivered_photos,
            flood.final_sample().delivered_photos
        );
    }
}
