//! The routing-scheme interface, plus the unconstrained reference scheme.

use std::any::Any;

use photodtn_contacts::NodeId;
use photodtn_coverage::Photo;

use crate::SimCtx;

/// A photo routing/selection protocol driven by the simulator.
///
/// The engine calls the hooks in event order; all world state lives in
/// [`SimCtx`], protocol state lives in the implementor. Budgets are byte
/// counts (`bandwidth × usable contact duration`); a scheme must not move
/// more than its budget in one event — the metrics would silently
/// overstate its performance otherwise.
pub trait Scheme {
    /// Short identifier used in experiment output (e.g. `"ours"`).
    fn name(&self) -> &'static str;

    /// Whether the scheme promises to honor per-node storage limits.
    /// Constrained schemes (the default) are checked by a debug
    /// assertion in the engine; the BestPossible upper bound opts out.
    fn respects_storage(&self) -> bool {
        true
    }

    /// Called once before the first event.
    fn on_init(&mut self, _ctx: &mut SimCtx) {}

    /// `node` just took `photo`. The scheme decides whether/what to store
    /// (typically inserting it, evicting something if storage is full).
    fn on_photo_generated(&mut self, ctx: &mut SimCtx, node: NodeId, photo: Photo);

    /// Nodes `a` and `b` are in contact with `budget` transferable bytes.
    fn on_contact(&mut self, ctx: &mut SimCtx, a: NodeId, b: NodeId, budget: u64);

    /// `node` has an uplink window to the command center with `budget`
    /// transferable bytes. Deliver photos with
    /// [`SimCtx::deliver`]; account spent bytes with
    /// [`SimCtx::note_upload_bytes`].
    fn on_upload(&mut self, ctx: &mut SimCtx, node: NodeId, budget: u64);

    /// `node` is about to crash (fault injection): the engine will wipe
    /// its photo buffer — and optionally its PROPHET state — right after
    /// this hook returns, and the node stays unreachable until it
    /// reboots, empty.
    ///
    /// The buffer is still intact here so schemes can drop per-node
    /// protocol state (metadata caches, spray counters) that the crash
    /// invalidates. The default does nothing: keeping stale state about a
    /// crashed peer is *allowed* — §III-B's validity model exists exactly
    /// because remote state goes stale — but keeping state the node
    /// itself was supposed to hold in RAM is a bug this hook lets schemes
    /// avoid.
    fn on_node_crashed(&mut self, _ctx: &mut SimCtx, _node: NodeId) {}

    /// Inert replica hook: no engine path calls it.
    fn fork_shard(&self) -> Option<Box<dyn Scheme + Send>> {
        None
    }

    /// Inert per-node state hook: no engine path calls it.
    fn export_node_state(&mut self, _node: NodeId) -> Option<Box<dyn Any + Send>> {
        None
    }

    /// Inert per-node state hook: no engine path calls it.
    fn import_node_state(&mut self, _node: NodeId, _state: Box<dyn Any + Send>) {}

    /// Serializes the scheme's *entire* protocol state — every node's,
    /// plus anything global — for a mid-run checkpoint, or `None` when
    /// the scheme does not support checkpointing (the default; the engine
    /// then warns once and disables snapshots for the run).
    ///
    /// The state crosses a process boundary, so it must be a
    /// self-contained string (JSON by convention). Only *serialize the
    /// state, rebuild derived caches*: anything reconstructible from
    /// config or world state (selection engines, memoized coverage, upload bases)
    /// must be left out and rebuilt lazily after
    /// [`import_global_state`](Self::import_global_state) — those caches
    /// carry byte-identity contracts that make the rebuild exact.
    fn export_global_state(&self) -> Option<String> {
        None
    }

    /// Restores protocol state captured by
    /// [`export_global_state`](Self::export_global_state) on a freshly
    /// constructed scheme with the same configuration.
    ///
    /// # Errors
    ///
    /// A message describing why `state` does not decode; the engine
    /// treats this as fatal for the resume (the snapshot already passed
    /// integrity and fingerprint checks, so a rejection here means the
    /// exporter and importer disagree — a bug).
    fn import_global_state(&mut self, _state: &str) -> Result<(), String> {
        Err("scheme does not support checkpoint restore".to_string())
    }
}

impl<T: Scheme + ?Sized> Scheme for Box<T> {
    fn name(&self) -> &'static str {
        (**self).name()
    }
    fn respects_storage(&self) -> bool {
        (**self).respects_storage()
    }
    fn on_init(&mut self, ctx: &mut SimCtx) {
        (**self).on_init(ctx);
    }
    fn on_photo_generated(&mut self, ctx: &mut SimCtx, node: NodeId, photo: Photo) {
        (**self).on_photo_generated(ctx, node, photo);
    }
    fn on_contact(&mut self, ctx: &mut SimCtx, a: NodeId, b: NodeId, budget: u64) {
        (**self).on_contact(ctx, a, b, budget);
    }
    fn on_upload(&mut self, ctx: &mut SimCtx, node: NodeId, budget: u64) {
        (**self).on_upload(ctx, node, budget);
    }
    fn on_node_crashed(&mut self, ctx: &mut SimCtx, node: NodeId) {
        (**self).on_node_crashed(ctx, node);
    }
    fn export_global_state(&self) -> Option<String> {
        (**self).export_global_state()
    }
    fn import_global_state(&mut self, state: &str) -> Result<(), String> {
        (**self).import_global_state(state)
    }
}

/// Epidemic flooding with **no storage or bandwidth constraints** — the
/// paper's *BestPossible* upper bound ("the only constraint is contact
/// opportunity").
///
/// Not a deployable protocol: it exists to bound what any scheme could
/// deliver given the same contacts.
#[derive(Clone, Debug, Default)]
pub struct FloodScheme;

impl Scheme for FloodScheme {
    fn name(&self) -> &'static str {
        "best-possible"
    }

    fn respects_storage(&self) -> bool {
        false
    }

    fn on_photo_generated(&mut self, ctx: &mut SimCtx, node: NodeId, photo: Photo) {
        ctx.collection_mut(node).insert(photo);
    }

    fn on_contact(&mut self, ctx: &mut SimCtx, a: NodeId, b: NodeId, _budget: u64) {
        // Unconstrained by storage and bandwidth, but still subject to
        // the physical link: lost/corrupt transmissions don't arrive.
        let (faults, ca, cb) = ctx.faults_and_pair_mut(a, b);
        let from_a: Vec<Photo> = ca.iter().copied().collect();
        let from_b: Vec<Photo> = cb.iter().copied().collect();
        for p in from_b {
            if !ca.contains(p.id) && faults.roll_transfer().arrived() {
                ca.insert(p);
            }
        }
        for p in from_a {
            if !cb.contains(p.id) && faults.roll_transfer().arrived() {
                cb.insert(p);
            }
        }
    }

    fn on_upload(&mut self, ctx: &mut SimCtx, node: NodeId, _budget: u64) {
        let photos: Vec<Photo> = ctx.collection(node).iter().copied().collect();
        let mut bytes = 0;
        for p in photos {
            bytes += p.size;
            ctx.upload_photo(p);
        }
        ctx.note_upload_bytes(bytes);
    }

    fn export_global_state(&self) -> Option<String> {
        // Stateless: all flooding state lives in the context's photo
        // collections, which the engine checkpoints itself.
        Some("{}".to_string())
    }

    fn import_global_state(&mut self, _state: &str) -> Result<(), String> {
        Ok(())
    }
}
