use std::cell::RefCell;
use std::sync::Arc;

use rand::rngs::SmallRng;

use photodtn_contacts::NodeId;
use photodtn_core::transmission::TransferFate;
use photodtn_coverage::{
    CacheStats, Coverage, CoverageParams, CoverageProfile, CoverageTableCache, Photo,
    PhotoCollection, PhotoCoverage, PhotoId, PhotoMeta, PoiList,
};
use photodtn_prophet::ProphetRouter;

use crate::faults::FaultState;
use crate::trace::{TraceEvent, Tracer};

/// The scheme-visible random source: a [`SmallRng`] that counts how many
/// 64-bit words it has produced.
///
/// The stream is a pure function of the run seed, so a checkpoint needs
/// only the *draw count* — restore re-seeds from scratch and fast-forwards
/// that many words, reproducing the exact generator state without
/// serializing it. The counter is one integer increment per draw; the
/// underlying xoshiro state transition dwarfs it.
#[derive(Clone, Debug)]
pub struct SchemeRng {
    inner: SmallRng,
    words: u64,
}

impl SchemeRng {
    pub(crate) fn seed_from_u64(seed: u64) -> Self {
        use rand::SeedableRng;
        SchemeRng {
            inner: SmallRng::seed_from_u64(seed),
            words: 0,
        }
    }

    /// 64-bit words drawn so far (the checkpointed quantity).
    #[must_use]
    pub fn words_drawn(&self) -> u64 {
        self.words
    }

    /// Advances a freshly seeded generator by `words` draws, restoring
    /// the state a checkpointed run had at capture time.
    pub(crate) fn fast_forward(&mut self, words: u64) {
        use rand::RngCore;
        for _ in 0..words {
            self.inner.next_u64();
        }
        self.words = words;
    }
}

impl rand::RngCore for SchemeRng {
    #[inline]
    fn next_u32(&mut self) -> u32 {
        self.words += 1;
        self.inner.next_u32()
    }

    #[inline]
    fn next_u64(&mut self) -> u64 {
        self.words += 1;
        self.inner.next_u64()
    }

    fn fill_bytes(&mut self, dest: &mut [u8]) {
        self.words += (dest.len() as u64).div_ceil(8);
        self.inner.fill_bytes(dest);
    }
}

/// The mutable world state a [`Scheme`](crate::Scheme) operates on.
///
/// The context owns everything global: participant photo collections, the
/// command center's received collection (with an incrementally maintained
/// coverage profile), PROPHET state, and the simulation clock. Schemes
/// keep their protocol-specific state (metadata caches, spray counters,
/// …) on their side, keyed by [`NodeId`].
#[derive(Debug)]
pub struct SimCtx {
    pub(crate) pois: Arc<PoiList>,
    /// Per-run coverage-table cache: each photo's [`PhotoCoverage`] is
    /// built at most once per run and shared by `Arc` thereafter.
    /// `RefCell` so schemes can look tables up through `&SimCtx` while
    /// holding other immutable borrows of the context.
    pub(crate) cov_cache: RefCell<CoverageTableCache>,
    pub(crate) coverage_params: CoverageParams,
    pub(crate) storage_bytes: u64,
    pub(crate) collections: Vec<PhotoCollection>,
    pub(crate) cc_received: PhotoCollection,
    pub(crate) cc_profile: CoverageProfile,
    pub(crate) prophet: ProphetRouter,
    pub(crate) cc_prophet_id: NodeId,
    pub(crate) gateways: Vec<NodeId>,
    pub(crate) rng: SchemeRng,
    pub(crate) now: f64,
    pub(crate) uploaded_bytes: u64,
    /// Sum of (delivery time − capture time) over delivered photos.
    pub(crate) latency_sum: f64,
    /// Bytes spent exchanging metadata (not photo payloads).
    pub(crate) metadata_bytes: u64,
    /// Per-run fault-injection state (inert when faults are disabled).
    pub(crate) faults: FaultState,
    /// Per-run trace emission front end (inert without a sink).
    pub(crate) tracer: Tracer,
}

/// What happened to one photo uploaded through
/// [`SimCtx::upload_photo`].
#[derive(Clone, Copy, Debug, PartialEq, Eq, serde::Serialize)]
pub enum UploadOutcome {
    /// The photo arrived and was new to the command center.
    Delivered,
    /// The photo arrived but had already been delivered earlier.
    Duplicate,
    /// The transmission was lost on the uplink.
    Lost,
    /// The photo arrived corrupted; the command center discarded it.
    Corrupt,
}

impl UploadOutcome {
    /// Whether the sender received an acknowledgement — i.e. the command
    /// center now holds the photo (freshly or from before), so the local
    /// copy may safely be dropped.
    #[must_use]
    pub fn acked(self) -> bool {
        matches!(self, UploadOutcome::Delivered | UploadOutcome::Duplicate)
    }
}

impl SimCtx {
    /// Current simulation time, seconds.
    #[must_use]
    pub fn now(&self) -> f64 {
        self.now
    }

    /// The PoI list of this run.
    #[must_use]
    pub fn pois(&self) -> &PoiList {
        &self.pois
    }

    /// A shared handle to the PoI list, for schemes that need to keep a
    /// reference across calls (e.g. inside a persistent
    /// [`ExpectedEngine`](photodtn_core::expected::ExpectedEngine))
    /// without cloning the list itself.
    #[must_use]
    pub fn pois_shared(&self) -> Arc<PoiList> {
        Arc::clone(&self.pois)
    }

    /// The coverage table of one photo, built at most once per run.
    ///
    /// The first lookup of a [`PhotoId`] builds the table from `meta`;
    /// later lookups return the cached [`Arc`]. Callers must pass the
    /// photo's true metadata — tables are keyed by id alone.
    #[must_use]
    pub fn photo_coverage(&self, id: PhotoId, meta: &PhotoMeta) -> Arc<PhotoCoverage> {
        self.cov_cache
            .borrow_mut()
            .get_or_build(id, meta, &self.pois, self.coverage_params)
    }

    /// Hit/miss/eviction counters of the per-run coverage-table cache.
    #[must_use]
    pub fn coverage_cache_stats(&self) -> CacheStats {
        self.cov_cache.borrow().stats()
    }

    /// Coverage-model parameters.
    #[must_use]
    pub fn coverage_params(&self) -> CoverageParams {
        self.coverage_params
    }

    /// Per-node storage capacity, bytes.
    #[must_use]
    pub fn storage_bytes(&self) -> u64 {
        self.storage_bytes
    }

    /// Number of participant nodes.
    #[must_use]
    pub fn num_nodes(&self) -> u32 {
        self.collections.len() as u32
    }

    /// A participant's photo collection.
    ///
    /// # Panics
    ///
    /// Panics if `node` is out of range.
    #[must_use]
    pub fn collection(&self, node: NodeId) -> &PhotoCollection {
        &self.collections[node.index()]
    }

    /// Mutable access to a participant's photo collection.
    ///
    /// # Panics
    ///
    /// Panics if `node` is out of range.
    pub fn collection_mut(&mut self, node: NodeId) -> &mut PhotoCollection {
        &mut self.collections[node.index()]
    }

    /// Mutable access to two distinct participants' collections at once
    /// (the common case during a contact).
    ///
    /// # Panics
    ///
    /// Panics if `a == b` or either is out of range.
    pub fn collections_pair_mut(
        &mut self,
        a: NodeId,
        b: NodeId,
    ) -> (&mut PhotoCollection, &mut PhotoCollection) {
        assert!(a != b, "a contact needs two distinct nodes");
        let (lo, hi) = if a < b {
            (a.index(), b.index())
        } else {
            (b.index(), a.index())
        };
        let (left, right) = self.collections.split_at_mut(hi);
        let (first, second) = (&mut left[lo], &mut right[0]);
        if a < b {
            (first, second)
        } else {
            (second, first)
        }
    }

    /// Photos the command center has received so far.
    #[must_use]
    pub fn cc_collection(&self) -> &PhotoCollection {
        &self.cc_received
    }

    /// The photo coverage obtained by the command center so far.
    #[must_use]
    pub fn cc_coverage(&self) -> Coverage {
        self.cc_profile.total()
    }

    /// Number of PoIs the command center has point-covered.
    #[must_use]
    pub fn cc_covered_pois(&self) -> usize {
        self.cc_profile.covered_count()
    }

    /// The fault-injection state of this run (for inspecting the active
    /// [`FaultConfig`](crate::FaultConfig) and the running counters).
    #[must_use]
    pub fn faults(&self) -> &FaultState {
        &self.faults
    }

    /// Rolls the fate of one photo transmission over a DTN contact link.
    ///
    /// Schemes call this once per photo they transmit during
    /// [`on_contact`](crate::Scheme::on_contact); a non-
    /// [`Intact`](TransferFate::Intact) fate means the bytes were spent
    /// but the photo must not be stored at the receiver. When faults are
    /// disabled this always returns `Intact` without consuming
    /// randomness. For planner-driven schemes prefer
    /// [`faults_and_pair_mut`](Self::faults_and_pair_mut) +
    /// [`execute_plan_with`](photodtn_core::transmission::execute_plan_with).
    pub fn contact_transfer(&mut self) -> TransferFate {
        self.faults.roll_transfer()
    }

    /// Mutable access to the fault state *and* two distinct participants'
    /// collections at once, so a scheme can feed
    /// [`FaultState::roll_transfer`] into
    /// [`execute_plan_with`](photodtn_core::transmission::execute_plan_with)
    /// while both collections are borrowed.
    ///
    /// # Panics
    ///
    /// Panics if `a == b` or either is out of range.
    pub fn faults_and_pair_mut(
        &mut self,
        a: NodeId,
        b: NodeId,
    ) -> (&mut FaultState, &mut PhotoCollection, &mut PhotoCollection) {
        assert!(a != b, "a contact needs two distinct nodes");
        let (lo, hi) = if a < b {
            (a.index(), b.index())
        } else {
            (b.index(), a.index())
        };
        let (left, right) = self.collections.split_at_mut(hi);
        let (first, second) = (&mut left[lo], &mut right[0]);
        if a < b {
            (&mut self.faults, first, second)
        } else {
            (&mut self.faults, second, first)
        }
    }

    /// Uploads one photo to the command center over a (possibly faulty)
    /// uplink, rolling its transmission fate first.
    ///
    /// Lost and corrupt uploads burn the bandwidth the caller charged but
    /// never reach the command center's collection. Use
    /// [`UploadOutcome::acked`] to decide whether the local copy may be
    /// dropped.
    pub fn upload_photo(&mut self, photo: Photo) -> UploadOutcome {
        match self.faults.roll_transfer() {
            TransferFate::Lost => UploadOutcome::Lost,
            TransferFate::Corrupt => UploadOutcome::Corrupt,
            TransferFate::Intact => {
                if self.deliver(photo) {
                    UploadOutcome::Delivered
                } else {
                    UploadOutcome::Duplicate
                }
            }
        }
    }

    /// Delivers a photo to the command center. Returns `false` if it was
    /// already delivered (duplicates are ignored but still cost the
    /// uplink bandwidth the scheme spent on them).
    pub fn deliver(&mut self, photo: Photo) -> bool {
        if self.cc_received.insert(photo) {
            self.cc_profile.add(&photo.meta);
            let latency = (self.now - photo.taken_at).max(0.0);
            self.latency_sum += latency;
            let t = self.now;
            self.tracer.emit_with(|| TraceEvent::Delivered {
                t,
                photo: photo.id.0,
                latency_hours: latency / 3600.0,
            });
            true
        } else {
            false
        }
    }

    /// Mean capture-to-delivery latency of delivered photos, seconds
    /// (0 when nothing has been delivered).
    #[must_use]
    pub fn mean_delivery_latency(&self) -> f64 {
        let n = self.cc_received.len();
        if n == 0 {
            0.0
        } else {
            self.latency_sum / n as f64
        }
    }

    /// PROPHET delivery predictability of `node` towards the command
    /// center at the current time.
    #[must_use]
    pub fn delivery_prob(&self, node: NodeId) -> f64 {
        self.prophet
            .predictability(node, self.cc_prophet_id, self.now)
    }

    /// The PROPHET node id representing the command center.
    #[must_use]
    pub fn command_center_id(&self) -> NodeId {
        self.cc_prophet_id
    }

    /// Whether `node` has a direct uplink to the command center.
    #[must_use]
    pub fn is_gateway(&self, node: NodeId) -> bool {
        self.gateways.contains(&node)
    }

    /// The gateway set.
    #[must_use]
    pub fn gateways(&self) -> &[NodeId] {
        &self.gateways
    }

    /// Total bytes schemes reported over the uplink (via
    /// [`note_upload_bytes`](Self::note_upload_bytes)).
    #[must_use]
    pub fn uploaded_bytes(&self) -> u64 {
        self.uploaded_bytes
    }

    /// Accounts bytes spent on the uplink (delivered *and* duplicate
    /// transmissions).
    pub fn note_upload_bytes(&mut self, bytes: u64) {
        self.uploaded_bytes += bytes;
    }

    /// Accounts bytes spent exchanging *metadata* — the paper argues
    /// metadata is "easy to transmit, store, and analyze"; this counter
    /// lets experiments verify that the overhead stays negligible next to
    /// photo payloads.
    pub fn note_metadata_bytes(&mut self, bytes: u64) {
        self.metadata_bytes += bytes;
    }

    /// Total metadata bytes exchanged so far.
    #[must_use]
    pub fn metadata_bytes(&self) -> u64 {
        self.metadata_bytes
    }

    /// Deterministic per-run random source for scheme decisions.
    pub fn rng(&mut self) -> &mut SchemeRng {
        &mut self.rng
    }

    /// Whether a [`TraceSink`](crate::TraceSink) is attached to this run.
    ///
    /// Schemes should guard any non-trivial event construction (cloning
    /// photo-id lists, …) behind this so untraced runs pay nothing.
    #[must_use]
    pub fn trace_enabled(&self) -> bool {
        self.tracer.enabled()
    }

    /// Records one trace event (dropped silently when no sink is
    /// attached — pair with [`trace_enabled`](Self::trace_enabled) to
    /// skip construction entirely).
    ///
    /// Emission must stay *read-only*: build events from observed state,
    /// never consume [`rng`](Self::rng) or mutate the world for one —
    /// the determinism contract requires byte-identical results with
    /// tracing on or off.
    pub fn trace(&mut self, event: TraceEvent) {
        self.tracer.emit_with(|| event);
    }
}
