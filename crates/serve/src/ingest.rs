//! Streaming-ingest coordination: targeted cache invalidation plus the
//! event-replay protocol that makes it safe under concurrent waves.
//!
//! When an edge is appended to the live graph, only cached layer-1
//! entries whose most-recent-k neighbor window the new edge could enter
//! are stale — everything older keeps sampling the same neighborhood and
//! stays valid. [`entry_stale_after_insert`] encodes that predicate
//! exactly; [`sweep_insert`] applies it to the shared cache. This
//! replaces sledgehammer per-node invalidation with a sweep that retains
//! provably-fresh entries (counted in telemetry as `entries_retained`).
//!
//! The sweep alone is not enough under concurrency: a worker that pinned
//! a pre-insert [`GraphView`] may *store* entries computed from stale
//! history after the submitter's sweep already scanned the cache.
//! [`IngestSync`] closes that window: every appended edge leaves an
//! [`IngestEvent`] in a log, each wave registers the epoch it pinned
//! (under the same lock the submitter appends under), and after its
//! stores complete the wave re-applies the sweep for every event at or
//! past its pin. Because the store happens-before the replay (program
//! order) and the event push happens-before the sweep (program order),
//! the mutex forces one of two outcomes: the submitter's sweep sees the
//! store, or the replay sees the event. Either way the stale entry dies.

use rustc_hash::FxHashMap;
use std::collections::VecDeque;
use tg_graph::{GraphView, NodeId, Time};
use tgopt::{pack_key, LayerCaches};

/// One appended edge, kept in the replay log until every wave that could
/// have computed from pre-insert history has released its pin.
#[derive(Clone, Copy, Debug)]
pub(crate) struct IngestEvent {
    /// Global sequence number of the edge (== its edge id).
    pub seq: u64,
    /// Source endpoint.
    pub src: NodeId,
    /// Destination endpoint.
    pub dst: NodeId,
    /// Interaction timestamp.
    pub time: Time,
}

/// The replay log and the per-slot epoch pins, guarded by one mutex in
/// the server's `Shared` state. Lock order: `ingest` is taken *before*
/// the live graph's `gen` lock (workers nest `LiveGraph::view` inside
/// their pin registration; submitters nest `LiveGraph::append`).
#[derive(Debug)]
pub(crate) struct IngestSync {
    /// Appended edges not yet proven covered by every active pin.
    events: VecDeque<IngestEvent>,
    /// Per-slot pinned epoch; `u64::MAX` marks an idle slot. Worker `i`
    /// owns slot `i`; the deterministic drain path owns the last slot.
    pins: Vec<u64>,
}

impl IngestSync {
    /// A sync block with `slots` pin slots, all idle.
    pub fn new(slots: usize) -> Self {
        Self { events: VecDeque::new(), pins: vec![u64::MAX; slots] }
    }

    /// Records one appended edge for post-wave replay.
    ///
    /// # Invariants
    ///
    /// - Must be called under the same `ingest` critical section as the
    ///   `LiveGraph::append` that produced `seq`, so no wave can pin an
    ///   epoch `<= seq` after the event is logged without seeing it.
    /// - `seq` values are pushed in strictly increasing order (appends
    ///   are serialized by the `ingest` lock), keeping the log sorted.
    pub fn push_event(&mut self, ev: IngestEvent) {
        debug_assert!(!self.events.back().is_some_and(|last| last.seq >= ev.seq));
        self.events.push_back(ev);
    }

    /// Pins `slot` at `epoch`: edges with `seq >= epoch` must be replayed
    /// by this slot before the pin is released.
    ///
    /// # Invariants
    ///
    /// - Must be called under the same `ingest` critical section as the
    ///   `LiveGraph::view` whose epoch is being pinned — registering the
    ///   pin after releasing the lock would let a concurrent submitter
    ///   prune an event this slot still needs.
    /// - `slot` was previously idle (`u64::MAX`): a slot processes one
    ///   wave at a time.
    pub fn register_pin(&mut self, slot: usize, epoch: u64) {
        debug_assert_eq!(self.pins.get(slot).copied(), Some(u64::MAX));
        if let Some(p) = self.pins.get_mut(slot) {
            *p = epoch;
        }
    }

    /// The events `slot` must replay: everything at or past its pinned
    /// epoch. Empty when the slot is idle.
    pub fn events_since_pin(&self, slot: usize) -> Vec<IngestEvent> {
        let pin = self.pins.get(slot).copied().unwrap_or(u64::MAX);
        let start = self.events.partition_point(|ev| ev.seq < pin);
        self.events.iter().skip(start).copied().collect()
    }

    /// Releases `slot`'s pin and prunes events already covered by every
    /// remaining pin (an event with `seq < min(active pins)` was visible
    /// in every still-pinned view, so no replay will ever need it; with
    /// no active pins the whole log drains).
    ///
    /// # Invariants
    ///
    /// - Called only after the slot's replay sweeps completed: releasing
    ///   first would let the events be pruned before they were applied.
    pub fn release_pin(&mut self, slot: usize) {
        if let Some(p) = self.pins.get_mut(slot) {
            *p = u64::MAX;
        }
        let min_pin = self.pins.iter().copied().min().unwrap_or(u64::MAX);
        let covered = self.events.partition_point(|ev| ev.seq < min_pin);
        self.events.drain(..covered);
    }

    /// Events currently held for replay (test/telemetry visibility).
    pub fn pending_events(&self) -> usize {
        self.events.len()
    }
}

/// Could a cached layer-1 entry `(x, t)` change after inserting an edge
/// at time `te` incident to `x`, given the *post-insert* view and a
/// sampler window of `k` most-recent neighbors?
///
/// The entry sampled the `k` most recent interactions of `x` strictly
/// before `t`. The new edge enters that window iff it precedes `t` and
/// either the history is still shorter than `k` (every interaction is in
/// the window) or it lands at-or-after the window's oldest slot. With
/// `cut` the post-insert history length before `t`, the oldest window
/// slot is index `cut - k`; ties insert after equal timestamps (matching
/// `TemporalGraph::insert`), so `te >= entries[cut - k].time` is exact.
pub(crate) fn entry_stale_after_insert(
    view: &GraphView,
    k: usize,
    x: NodeId,
    te: Time,
    t: Time,
) -> bool {
    if te >= t {
        return false;
    }
    let cut = view.hist_len_before(x, t);
    if cut <= k {
        return true;
    }
    match view.nth_before(x, t, cut - k) {
        Some(oldest_in_window) => te >= oldest_in_window.time,
        // cut > k >= 0 guarantees the slot exists; stay conservative if not.
        None => true,
    }
}

/// Per-layer accounting bins tracked by a sweep; layer `l` lands in slot
/// `l - 1`, with every layer past the fourth folded into the last slot.
pub(crate) const TRACKED_SWEEP_LAYERS: usize = 4;

/// What one [`sweep_insert`] did, broken down by cache layer so
/// telemetry can report where invalidation pressure lands (deep-layer
/// retention is the signal that constraint tracking is paying off).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub(crate) struct SweepReport {
    /// `(removed, retained)` per layer bin; see [`TRACKED_SWEEP_LAYERS`].
    pub per_layer: [(u64, u64); TRACKED_SWEEP_LAYERS],
}

impl SweepReport {
    /// The accounting bin for cache layer `layer` (1-based).
    pub fn slot(layer: usize) -> usize {
        layer.saturating_sub(1).min(TRACKED_SWEEP_LAYERS - 1)
    }

    fn add(&mut self, layer: usize, removed: u64, retained: u64) {
        if let Some(bin) = self.per_layer.get_mut(Self::slot(layer)) {
            bin.0 += removed;
            bin.1 += retained;
        }
    }

    /// Total entries removed across layers.
    pub fn removed(&self) -> u64 {
        self.per_layer.iter().map(|&(r, _)| r).sum()
    }

    /// Total at-risk entries retained across layers.
    pub fn retained(&self) -> u64 {
        self.per_layer.iter().map(|&(_, k)| k).sum()
    }
}

/// Applies the targeted invalidation for one inserted edge against the
/// shared cache: the exact window predicate on the layer-1 cache for
/// both endpoints, and the fingerprint check on every deeper cached
/// layer — an entry whose recorded temporal-subgraph constraint
/// (`tgopt::fingerprint`) the new edge cannot enter is provably fresh
/// and survives; entries without a fingerprint (warm-restored) fall
/// back to conservative removal. `retained` counts proven-fresh
/// survivors the old sweeps would have killed: layer-1 endpoint
/// entries outside the window, and deep entries at `t > te` whose
/// fingerprint the edge misses.
///
/// `view` must be a post-insert snapshot (epoch past the edge's seq);
/// both predicates stay sound at any later epoch, so replays may reuse
/// a single fresh view for a batch of events.
pub(crate) fn sweep_insert(
    cache: &LayerCaches,
    view: &GraphView,
    k: usize,
    src: NodeId,
    dst: NodeId,
    te: Time,
) -> SweepReport {
    let mut report = SweepReport::default();
    if let Some(c1) = cache.layer(1) {
        let both = [src, dst];
        let distinct = if src == dst { 1 } else { 2 };
        for &x in both.iter().take(distinct) {
            let (r, kept) =
                c1.invalidate_node_entries_if(x, |t| entry_stale_after_insert(view, k, x, te, t));
            report.add(1, r as u64, kept as u64);
        }
    }
    // Distinct deep entries share frontier pairs heavily (the fingerprints
    // of nearby targets overlap), so memoize the per-pair window check
    // across entries and layers.
    let mut memo: FxHashMap<u64, bool> = FxHashMap::default();
    for l in 2..=cache.num_layers() {
        if let Some(cl) = cache.layer(l) {
            let (r, kept) = cl.invalidate_constraints_after(te, |y, ty| {
                if y != src && y != dst {
                    return false;
                }
                *memo
                    .entry(pack_key(y, ty))
                    .or_insert_with(|| entry_stale_after_insert(view, k, y, te, ty))
            });
            report.add(l, r as u64, kept as u64);
        }
    }
    report
}

#[cfg(test)]
mod tests {
    use super::*;
    use tg_graph::{Edge, LiveGraph, TemporalGraph};

    fn live_with(edges: &[(NodeId, NodeId, Time)]) -> LiveGraph {
        let mut g = TemporalGraph::with_nodes(8);
        for (i, &(s, d, t)) in edges.iter().enumerate() {
            g.insert(&Edge { src: s, dst: d, time: t, eid: i as u32 });
        }
        LiveGraph::new(g)
    }

    #[test]
    fn staleness_predicate_matches_window_membership() {
        // Node 0 history: times 1, 3, 5, 7 (all with node 1).
        let live = live_with(&[(0, 1, 1.0), (0, 1, 3.0), (0, 1, 5.0), (0, 1, 7.0)]);
        // Insert te = 4 — post-insert history before t=8: [1, 3, 4, 5, 7].
        live.append(&Edge { src: 0, dst: 2, time: 4.0, eid: 4 });
        let v = live.view();
        // k = 2 window before t=8 is [5, 7]: te=4 is older than slot 5 → fresh.
        assert!(!entry_stale_after_insert(&v, 2, 0, 4.0, 8.0));
        // k = 3 window is [4, 5, 7]: the new edge is in it → stale.
        assert!(entry_stale_after_insert(&v, 3, 0, 4.0, 8.0));
        // Entries at or before te never change (strictly-before sampling).
        assert!(!entry_stale_after_insert(&v, 3, 0, 4.0, 4.0));
        assert!(!entry_stale_after_insert(&v, 3, 0, 4.0, 3.5));
        // Short history (node 2 has only the new edge): always stale.
        assert!(entry_stale_after_insert(&v, 2, 2, 4.0, 8.0));
    }

    #[test]
    fn tie_at_window_boundary_is_stale() {
        let live = live_with(&[(0, 1, 1.0), (0, 1, 3.0)]);
        // te equals the current most-recent time; ties insert after, so a
        // k=1 window at t=4 now samples the new edge.
        live.append(&Edge { src: 0, dst: 2, time: 3.0, eid: 2 });
        let v = live.view();
        assert!(entry_stale_after_insert(&v, 1, 0, 3.0, 4.0));
        // But an older insert below the k=1 boundary stays fresh.
        live.append(&Edge { src: 0, dst: 2, time: 2.0, eid: 3 });
        let v = live.view();
        assert!(!entry_stale_after_insert(&v, 1, 0, 2.0, 4.0));
    }

    #[test]
    fn deep_sweep_retains_entries_whose_fingerprint_the_edge_misses() {
        use tg_tensor::Tensor;
        use tgopt::fingerprint;

        // Node 0 talks to 1; nodes 4 and 5 talk to each other, far away.
        let live = live_with(&[(0, 1, 1.0), (0, 1, 2.0), (4, 5, 1.0), (4, 5, 2.0)]);
        let view = live.view();
        let k = 2;
        let caches = LayerCaches::new(2, true, 100, 1);
        let c2 = caches.layer(2).unwrap();
        // Two layer-2 entries, fingerprints captured exactly as the engine
        // does (depth l - 1 = 1): one rooted in the 0-1 component, one in
        // the 4-5 component, both keyed past the upcoming insert time.
        let keys = [tgopt::pack_key(0, 8.0), tgopt::pack_key(4, 8.0)];
        let fps = fingerprint::capture_many(&view, k, &[0, 4], &[8.0, 8.0], 1);
        c2.store_with_constraints(&keys, &Tensor::zeros(2, 1), fps).unwrap();

        // Insert 0-2@5: enters node 0's k=2 window before t=8, so the
        // first entry dies; the 4-5 entry's fingerprint never mentions the
        // endpoints and must survive the sweep that used to drop it.
        live.append(&Edge { src: 0, dst: 2, time: 5.0, eid: 4 });
        let view = live.view();
        let report = sweep_insert(&caches, &view, k, 0, 2, 5.0);
        assert_eq!(report.per_layer[SweepReport::slot(2)], (1, 1));
        assert!(!c2.contains(keys[0]) && c2.contains(keys[1]));

        // A second, unrelated insert below every window leaves the
        // survivor alone and counts it as retained again.
        live.append(&Edge { src: 6, dst: 7, time: 6.0, eid: 5 });
        let view = live.view();
        let report = sweep_insert(&caches, &view, k, 6, 7, 6.0);
        assert_eq!(report.per_layer[SweepReport::slot(2)], (0, 1));
        assert!(c2.contains(keys[1]));
    }

    #[test]
    fn pins_hold_events_until_released() {
        let mut sync = IngestSync::new(2);
        sync.register_pin(0, 5);
        sync.push_event(IngestEvent { seq: 5, src: 0, dst: 1, time: 1.0 });
        sync.push_event(IngestEvent { seq: 6, src: 2, dst: 3, time: 2.0 });
        // Slot 0 pinned at epoch 5 must replay both; idle slot 1 none.
        assert_eq!(sync.events_since_pin(0).len(), 2);
        assert!(sync.events_since_pin(1).is_empty());
        // A later pin (epoch 7 > both seqs) replays nothing but also
        // holds nothing: only pre-pin history matters.
        sync.register_pin(1, 7);
        assert!(sync.events_since_pin(1).is_empty());
        sync.release_pin(1);
        // Slot 0's pin still holds the log alive.
        assert_eq!(sync.pending_events(), 2);
        sync.release_pin(0);
        assert_eq!(sync.pending_events(), 0);
    }

    #[test]
    fn partial_prune_keeps_uncovered_suffix() {
        let mut sync = IngestSync::new(2);
        sync.register_pin(0, 3);
        sync.register_pin(1, 9);
        for seq in 3..12 {
            sync.push_event(IngestEvent { seq, src: 0, dst: 1, time: seq as Time });
        }
        sync.release_pin(0);
        // min active pin is 9: events 3..9 are covered, 9..12 survive.
        assert_eq!(sync.pending_events(), 3);
        assert_eq!(sync.events_since_pin(1).len(), 3);
        sync.release_pin(1);
        assert_eq!(sync.pending_events(), 0);
    }
}
