//! The embedding memoization cache (§4.2, Algorithm 3).
//!
//! A sharded concurrent hash table maps the collision-free `(node, time)`
//! key to a cached embedding row. Capacity is bounded by an item limit
//! (paper default 2M ≈ <1 GiB at 100 dims) with FIFO eviction. Lookups
//! and stores walk their keys on the calling thread; concurrent callers
//! (serving workers) contend only on the per-shard locks.

use crate::hash::unpack_key;
use parking_lot::{Mutex, RwLock};
use rustc_hash::FxHashMap;
use std::collections::VecDeque;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use tg_error::TgError;
use tg_graph::{NodeId, Time};
use tg_tensor::Tensor;

const NUM_SHARDS: usize = 16;

/// Sharded, size-limited embedding cache with FIFO eviction.
///
/// ```
/// use tgopt::{EmbedCache, pack_key};
/// use tg_tensor::Tensor;
///
/// let cache = EmbedCache::new(1000, 2);
/// let keys = [pack_key(7, 3.0)];
/// cache.store(&keys, &Tensor::from_vec(1, 2, vec![0.5, -0.5])).unwrap();
///
/// let mut out = Tensor::zeros(2, 2);
/// let hits = cache.lookup(&[pack_key(7, 3.0), pack_key(8, 3.0)], &mut out).unwrap();
/// assert_eq!(hits, vec![true, false]);
/// assert_eq!(out.row(0), &[0.5, -0.5]);
/// ```
pub struct EmbedCache {
    shards: Vec<RwLock<FxHashMap<u64, Entry>>>,
    /// Insertion order across all shards, for FIFO eviction.
    fifo: Mutex<FifoState>,
    /// Live entries. A store counts its fresh keys only when it queues
    /// them, under the FIFO lock, after publishing them in a shard; an
    /// invalidation that removes a published-but-uncounted key decrements
    /// first, so the raw value can wrap below zero for that instant.
    /// [`EmbedCache::len`] reads a wrapped value as 0.
    count: AtomicUsize,
    limit: usize,
    dim: usize,
    lookups: AtomicU64,
    hits: AtomicU64,
    stores: AtomicU64,
    evictions: AtomicU64,
    /// Fresh keys actually inserted (a subset of `stores`, which counts
    /// attempted rows). Every inserted entry leaves the cache through
    /// exactly one of eviction, invalidation, or residency, giving the
    /// accounting identity `inserted == evictions + invalidated + len()`
    /// at quiescence (asserted by `tests/streaming_stress.rs`).
    inserted: AtomicU64,
    /// Entries removed by `invalidate_node`, the targeted
    /// `invalidate_node_entries_if` / `invalidate_time_after` /
    /// `invalidate_constraints_after` sweeps, or `clear`.
    invalidated: AtomicU64,
    /// Rows silently dropped at admission because a single `store` call
    /// exceeded the whole item limit (the oldest rows of that call). These
    /// never reach a shard and are *not* counted in `stores`.
    store_dropped: AtomicU64,
}

/// A cached embedding row plus its recorded invalidation constraint.
struct Entry {
    row: Box<[f32]>,
    /// Temporal-subgraph fingerprint: packed `(node, time)` pairs whose
    /// most-recent-`k` windows this embedding's computation sampled (the
    /// entry's own `(node, time)` plus every interior pair of its recursive
    /// frontier). An appended edge can change the embedding only by
    /// entering one of these windows. Empty means "unrecorded" (layer-1
    /// entries, which have a closed-form staleness rule, and warm-restored
    /// entries): such entries take the conservative sweep path.
    constraint: Box<[u64]>,
}

/// FIFO queue plus per-key slot counts. Re-storing a key after its entry
/// was invalidated leaves the old (stale) queue slot behind and appends a
/// fresh one; the count lets eviction and export treat only the *newest*
/// slot of a key as owning the live entry.
struct FifoState {
    queue: VecDeque<u64>,
    /// Number of queue slots currently held per key (absent == 0).
    slots: FxHashMap<u64, u32>,
}

impl FifoState {
    fn push(&mut self, key: u64) {
        *self.slots.entry(key).or_insert(0) += 1;
        self.queue.push_back(key);
    }

    /// Pops the oldest slot; returns `(key, newest)` where `newest` is
    /// false when a more recent slot for the same key remains queued (the
    /// popped slot was a stale duplicate and must not touch the live entry).
    fn pop(&mut self) -> Option<(u64, bool)> {
        let key = self.queue.pop_front()?;
        let newest = match self.slots.get_mut(&key) {
            Some(c) if *c > 1 => {
                *c -= 1;
                false
            }
            Some(_) => {
                self.slots.remove(&key);
                true
            }
            // Slot accounting never under-counts queued keys; treat an
            // unknown key as sole owner rather than corrupting eviction.
            None => true,
        };
        Some((key, newest))
    }
}

#[inline]
fn shard_of(key: u64) -> usize {
    // Spread sequential node ids across shards.
    (key.wrapping_mul(0x9E37_79B9_7F4A_7C15) >> 60) as usize & (NUM_SHARDS - 1)
}

impl EmbedCache {
    /// A cache holding at most `limit` embeddings of `dim` floats each.
    ///
    /// Panics on a zero `limit` or `dim`; use [`EmbedCache::try_new`] to
    /// surface those as errors instead.
    pub fn new(limit: usize, dim: usize) -> Self {
        assert!(limit > 0, "cache limit must be positive");
        assert!(dim > 0, "embedding dimension must be positive");
        Self {
            shards: (0..NUM_SHARDS).map(|_| RwLock::new(FxHashMap::default())).collect(),
            fifo: Mutex::new(FifoState { queue: VecDeque::new(), slots: FxHashMap::default() }),
            count: AtomicUsize::new(0),
            limit,
            dim,
            lookups: AtomicU64::new(0),
            hits: AtomicU64::new(0),
            stores: AtomicU64::new(0),
            evictions: AtomicU64::new(0),
            inserted: AtomicU64::new(0),
            invalidated: AtomicU64::new(0),
            store_dropped: AtomicU64::new(0),
        }
    }

    /// Like [`EmbedCache::new`] but rejects a zero `limit` or `dim` with a
    /// typed error instead of panicking; preferred when the capacity comes
    /// from user configuration or a deserialized snapshot.
    pub fn try_new(limit: usize, dim: usize) -> Result<Self, TgError> {
        if limit == 0 {
            return Err(TgError::InvalidArgument("cache limit must be positive".into()));
        }
        if dim == 0 {
            return Err(TgError::InvalidArgument(
                "embedding dimension must be positive".into(),
            ));
        }
        Ok(Self::new(limit, dim))
    }

    /// `CacheLookup`: fills rows of `out` for hit keys and returns the hit
    /// mask. Missing rows are untouched (the engine fills them after
    /// recomputation), avoiding an intermediate tensor exactly as §4.2.2
    /// describes. Errors if `out` is not `[keys.len(), dim]`.
    ///
    /// # Invariants
    ///
    /// - `out` retains its previous contents in every row whose key missed.
    /// - The hit/lookup counters grow by exactly `keys.len()` attempted and
    ///   `mask.count_ones()` hit; no map or FIFO state changes.
    pub fn lookup(&self, keys: &[u64], out: &mut Tensor) -> Result<Vec<bool>, TgError> { // alloc-ok: the hit mask is the return value; embedding rows land in the caller's scratch tensor
        if out.shape() != (keys.len(), self.dim) {
            return Err(TgError::shape(
                "EmbedCache::lookup output",
                format_args!("({}, {})", keys.len(), self.dim),
                format_args!("{:?}", out.shape()),
            ));
        }
        self.lookups.fetch_add(keys.len() as u64, Ordering::Relaxed);
        let dim = self.dim;
        let mut mask = vec![false; keys.len()];
        for ((row, hit), &key) in out.as_mut_slice().chunks_mut(dim).zip(mask.iter_mut()).zip(keys) {
            let shard = self.shards[shard_of(key)].read();
            if let Some(v) = shard.get(&key) {
                row.copy_from_slice(&v.row);
                *hit = true;
            }
        }
        let n_hits = mask.iter().filter(|&&h| h).count() as u64;
        self.hits.fetch_add(n_hits, Ordering::Relaxed);
        Ok(mask)
    }

    /// `CacheStore` (Algorithm 3): evicts FIFO-oldest entries if the new
    /// rows would exceed the limit, then inserts row `i` of `h` under
    /// `keys[i]`. Errors if `h` is not `[keys.len(), dim]`.
    ///
    /// # Invariants
    ///
    /// - `len() <= limit()` holds at every instant, even under concurrent
    ///   stores (a corrective eviction runs after the FIFO append and
    ///   before the new keys are counted).
    /// - Re-storing an existing key overwrites in place without growing the
    ///   FIFO, so `len()` only counts distinct live keys.
    /// - Every key newly inserted by this call is appended to the FIFO
    ///   exactly once, after all older entries; a key re-stored after
    ///   invalidation supersedes its stale queue slot (the entry's FIFO age
    ///   restarts from this call).
    /// - The `stores` counter grows by the number of *admitted* rows only;
    ///   rows dropped because this one call exceeds the whole limit are
    ///   counted in [`EmbedCache::total_store_dropped`] instead.
    pub fn store(&self, keys: &[u64], h: &Tensor) -> Result<(), TgError> {
        self.store_impl(keys, h, None)
    }

    /// Like [`EmbedCache::store`] but records `constraints[i]` — the
    /// temporal-subgraph fingerprint, sorted packed `(node, time)` pairs —
    /// beside row `i`, for constraint-tracked invalidation via
    /// [`EmbedCache::invalidate_constraints_after`]. Errors if
    /// `constraints.len() != keys.len()`.
    ///
    /// # Invariants
    ///
    /// - Same capacity/FIFO/counter behavior as [`EmbedCache::store`].
    /// - Row `i` and `constraints[i]` are installed atomically under one
    ///   shard lock; an overwrite replaces both.
    pub fn store_with_constraints(
        &self,
        keys: &[u64],
        h: &Tensor,
        constraints: Vec<Box<[u64]>>,
    ) -> Result<(), TgError> {
        if constraints.len() != keys.len() {
            return Err(TgError::shape(
                "EmbedCache::store_with_constraints constraints",
                format_args!("{}", keys.len()),
                format_args!("{}", constraints.len()),
            ));
        }
        self.store_impl(keys, h, Some(constraints))
    }

    fn store_impl( // alloc-ok: cache admission must copy the rows it will own; the fresh-key list is bounded by the batch
        &self,
        keys: &[u64],
        h: &Tensor,
        mut constraints: Option<Vec<Box<[u64]>>>,
    ) -> Result<(), TgError> {
        if h.shape() != (keys.len(), self.dim) {
            return Err(TgError::shape(
                "EmbedCache::store input",
                format_args!("({}, {})", keys.len(), self.dim),
                format_args!("{:?}", h.shape()),
            ));
        }
        if keys.is_empty() {
            return Ok(());
        }
        let incoming = keys.len().min(self.limit);
        // If a single store call exceeds the whole limit, keep the newest.
        let skip = keys.len() - incoming;
        if skip > 0 {
            self.store_dropped.fetch_add(skip as u64, Ordering::Relaxed);
        }
        // Only keys not already cached consume capacity: overwrites keep
        // their slot, and repeated keys within one call insert once.
        let fresh_count = {
            let mut seen = rustc_hash::FxHashSet::default();
            keys[skip..]
                .iter()
                .filter(|&&k| seen.insert(k) && !self.contains(k))
                .count()
        };
        let cur = self.len();
        if cur + fresh_count > self.limit {
            self.evict((cur + fresh_count).saturating_sub(self.limit));
        }

        let mut fresh = Vec::with_capacity(incoming);
        for (j, (&key, row)) in keys[skip..]
            .iter()
            .zip(h.as_slice()[skip * self.dim..].chunks(self.dim))
            .enumerate()
        {
            let constraint = match constraints.as_mut() {
                Some(v) => std::mem::take(&mut v[skip + j]),
                None => Box::default(),
            };
            let entry = Entry { row: row.into(), constraint };
            if self.shards[shard_of(key)].write().insert(key, entry).is_none() {
                fresh.push(key);
            }
        }
        self.finish_store(fresh, incoming);
        Ok(())
    }

    fn finish_store(&self, fresh: Vec<u64>, admitted: usize) {
        self.stores.fetch_add(admitted as u64, Ordering::Relaxed);
        debug_assert!(
            fresh.len() <= admitted,
            "inserted {} fresh keys out of {admitted} admitted",
            fresh.len()
        );
        if fresh.is_empty() {
            return;
        }
        self.inserted.fetch_add(fresh.len() as u64, Ordering::Relaxed);
        // Queueing, the corrective eviction and counting share one FIFO
        // critical section. Every store counts its keys here, so no peer
        // raises the count meanwhile (invalidations only lower it), and
        // evicting *before* counting keeps `len() <= limit()` at every
        // instant. The eviction never reaches this call's keys: each
        // counted key is queued ahead of them, so at least `len()` older
        // live entries exist, and `fresh.len()` never exceeds the limit.
        let mut fifo = self.fifo.lock();
        for &key in &fresh {
            fifo.push(key); // alloc-ok: FIFO admission grows the queue and slot map by the fresh keys just inserted — bounded by the batch
        }
        // Concurrent stores may each have passed the pre-insert capacity
        // check; this eviction keeps the limit a hard bound.
        let over = (self.len() + fresh.len()).saturating_sub(self.limit);
        if over > 0 {
            self.evict_locked(&mut fifo, over);
        }
        self.count.fetch_add(fresh.len(), Ordering::Relaxed);
        debug_assert!(
            self.len() <= self.limit,
            "cache count {} exceeds limit {} after corrective eviction",
            self.len(),
            self.limit
        );
    }

    /// True if `key` is currently cached.
    pub fn contains(&self, key: u64) -> bool {
        self.shards[shard_of(key)].read().contains_key(&key)
    }

    /// Snapshot of all live entries in FIFO (oldest-first) order, for
    /// persistence. Stale queue slots (invalidated entries) are skipped,
    /// and a key re-stored after invalidation is emitted exactly once, at
    /// its *newest* slot position — never as a duplicate row.
    pub fn export_fifo_order(&self) -> Vec<(u64, Box<[f32]>)> {
        let fifo = self.fifo.lock();
        let mut remaining = fifo.slots.clone();
        let mut out = Vec::with_capacity(self.len());
        for &key in fifo.queue.iter() {
            let last = match remaining.get_mut(&key) {
                Some(c) => {
                    *c -= 1;
                    *c == 0
                }
                None => true,
            };
            if !last {
                continue; // an older duplicate slot; emit at the newest one
            }
            if let Some(e) = self.shards[shard_of(key)].read().get(&key) {
                out.push((key, e.row.clone()));
            }
        }
        out
    }

    /// Removes the `n` oldest entries.
    fn evict(&self, n: usize) {
        let mut fifo = self.fifo.lock();
        self.evict_locked(&mut fifo, n);
    }

    /// [`EmbedCache::evict`] under an already-held FIFO lock.
    fn evict_locked(&self, fifo: &mut FifoState, n: usize) {
        let mut removed = 0usize;
        // Stale FIFO entries (already invalidated) don't free capacity, so
        // keep popping until n live entries are gone.
        while removed < n {
            let Some((key, newest)) = fifo.pop() else { break };
            if !newest {
                // A superseded slot from before the key was invalidated and
                // re-stored: the live entry belongs to a newer slot and must
                // not be evicted as if it were this old.
                continue;
            }
            let mut shard = self.shards[shard_of(key)].write();
            if shard.remove(&key).is_some() {
                removed += 1;
            }
        }
        if removed > 0 {
            self.count.fetch_sub(removed, Ordering::Relaxed);
            self.evictions.fetch_add(removed as u64, Ordering::Relaxed);
        }
    }

    /// Drops every cached embedding of `node` (future-work §7: graph change
    /// events such as node-feature updates or edge deletion invalidate the
    /// node's embeddings). Returns how many entries were removed.
    ///
    /// # Invariants
    ///
    /// - After return, no key unpacking to `node` is live in any shard.
    /// - FIFO slots for removed keys go stale rather than being excised;
    ///   eviction skips them without counting them as live removals.
    /// - `len()` decreases by exactly the returned count.
    pub fn invalidate_node(&self, node: NodeId) -> usize {
        let (removed, _) = self.invalidate_node_entries_if(node, |_| true);
        removed
    }

    /// Targeted invalidation: drops only the entries of `node` whose
    /// cached time `t` satisfies `stale(t)` — the streaming-ingest
    /// replacement for the [`EmbedCache::invalidate_node`] sledgehammer
    /// (an appended edge at `te` can only enter the most-recent-`k`
    /// sample of entries with `t > te` whose window it reaches; see
    /// DESIGN.md "Streaming ingest"). Returns `(removed, retained)` where
    /// `retained` counts `node`'s entries that survived the sweep.
    ///
    /// # Invariants
    ///
    /// - After return, no live key of `node` has a time passing `stale`
    ///   (entries stored concurrently are the *caller's* obligation — the
    ///   serve layer replays pending sweeps after each worker wave).
    /// - Entries of other nodes, and `node`'s non-stale entries, are
    ///   untouched and uncounted except in `retained`.
    /// - `len()` decreases by exactly `removed`; FIFO slots of removed
    ///   keys go stale and are skipped by eviction without freeing
    ///   capacity twice.
    pub fn invalidate_node_entries_if(
        &self,
        node: NodeId,
        mut stale: impl FnMut(Time) -> bool,
    ) -> (usize, usize) {
        let mut removed = 0usize;
        let mut retained = 0usize;
        for shard in &self.shards {
            let mut shard = shard.write();
            shard.retain(|&key, _| {
                let (n, t) = unpack_key(key);
                if n != node {
                    return true;
                }
                if stale(t) {
                    removed += 1;
                    false
                } else {
                    retained += 1;
                    true
                }
            });
        }
        self.finish_invalidate(removed);
        (removed, retained)
    }

    /// Conservative whole-cache sweep: drops every entry whose cached
    /// time is strictly after `te`, regardless of node. Used for cached
    /// layers `>= 2`, where an appended edge can reach an entry through
    /// multi-hop recursion and the precise per-node window rule no longer
    /// applies. Returns `(removed, retained)` over all entries.
    ///
    /// # Invariants
    ///
    /// - After return, every live entry has time `<= te` (modulo
    ///   concurrent stores, handled by the caller's replay protocol).
    /// - `len()` decreases by exactly `removed`; stale FIFO slots are
    ///   skipped lazily by eviction.
    pub fn invalidate_time_after(&self, te: Time) -> (usize, usize) {
        let mut removed = 0usize;
        let mut retained = 0usize;
        for shard in &self.shards {
            let mut shard = shard.write();
            shard.retain(|&key, _| {
                let (_, t) = unpack_key(key);
                if t > te {
                    removed += 1;
                    false
                } else {
                    retained += 1;
                    true
                }
            });
        }
        self.finish_invalidate(removed);
        (removed, retained)
    }

    /// Constraint-tracked sweep for an edge appended at time `te`: examines
    /// only entries keyed at `t > te` (all window times in an entry's
    /// subgraph are `<= t`, so entries at `t <= te` are provably
    /// unaffected) and drops an examined entry iff
    ///
    /// - it carries no fingerprint (conservative fallback, e.g. entries
    ///   restored from a persistence snapshot), or
    /// - `stale(node, time)` holds for some recorded `(node, time)` pair —
    ///   i.e. the new edge enters one of the most-recent-`k` windows the
    ///   entry's computation actually sampled.
    ///
    /// Returns `(removed, retained)` where `retained` counts only *at-risk
    /// survivors*: examined entries (`t > te`) whose fingerprint proved
    /// them fresh. This is the precision the sweep buys over the
    /// [`EmbedCache::invalidate_time_after`] sledgehammer, which removes
    /// every examined entry.
    ///
    /// # Invariants
    ///
    /// - Entries keyed at `t <= te` are untouched and uncounted.
    /// - After return, every live entry at `t > te` either had a
    ///   fingerprint with no pair passing `stale`, or was stored
    ///   concurrently (the caller's replay protocol re-runs the sweep).
    /// - `len()` decreases by exactly `removed`; stale FIFO slots are
    ///   skipped lazily by eviction, as for every other sweep.
    pub fn invalidate_constraints_after(
        &self,
        te: Time,
        mut stale: impl FnMut(NodeId, Time) -> bool,
    ) -> (usize, usize) {
        let mut removed = 0usize;
        let mut retained = 0usize;
        for shard in &self.shards {
            let mut shard = shard.write();
            shard.retain(|&key, entry| {
                let (_, t) = unpack_key(key);
                if t <= te {
                    return true;
                }
                if entry.constraint.is_empty() {
                    removed += 1;
                    return false;
                }
                let hit = entry.constraint.iter().any(|&pk| {
                    let (y, ty) = unpack_key(pk);
                    stale(y, ty)
                });
                if hit {
                    removed += 1;
                    false
                } else {
                    retained += 1;
                    true
                }
            });
        }
        self.finish_invalidate(removed);
        (removed, retained)
    }

    fn finish_invalidate(&self, removed: usize) {
        if removed > 0 {
            self.count.fetch_sub(removed, Ordering::Relaxed);
            self.invalidated.fetch_add(removed as u64, Ordering::Relaxed);
        }
        // Stale FIFO entries are skipped lazily during eviction.
    }

    /// Removes everything.
    ///
    /// # Invariants
    ///
    /// - All shards, the FIFO queue, and the live count reset together, so
    ///   `len() == 0` and `bytes_used() == 0` on return when no store is
    ///   in flight (a concurrent store's keys count once it queues them).
    /// - Lifetime counters (lookups/hits/stores/evictions) are preserved;
    ///   the dropped entries count as invalidated, keeping the
    ///   `inserted == evictions + invalidated + len()` identity intact.
    pub fn clear(&self) {
        let mut removed = 0usize;
        for shard in &self.shards {
            let mut shard = shard.write();
            removed += shard.len();
            shard.clear();
        }
        {
            let mut fifo = self.fifo.lock();
            fifo.queue.clear();
            fifo.slots.clear();
        }
        // Subtract rather than zero: a store in flight counts its keys
        // after this returns, and the removal must cancel exactly that.
        self.finish_invalidate(removed);
    }

    /// Current number of cached embeddings.
    pub fn len(&self) -> usize {
        let n = self.count.load(Ordering::Relaxed);
        // A wrapped value is an invalidation that ran ahead of a store's
        // count (see the `count` field); the true count is then 0.
        if n > usize::MAX / 2 {
            0
        } else {
            n
        }
    }

    /// True if nothing is cached.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Item limit.
    pub fn limit(&self) -> usize {
        self.limit
    }

    /// Embedding dimension.
    pub fn dim(&self) -> usize {
        self.dim
    }

    /// Approximate payload memory (embedding floats only), in bytes.
    pub fn bytes_used(&self) -> usize {
        self.len() * self.dim * std::mem::size_of::<f32>()
    }

    /// Total keys looked up.
    pub fn total_lookups(&self) -> u64 {
        self.lookups.load(Ordering::Relaxed)
    }

    /// Total lookup hits.
    pub fn total_hits(&self) -> u64 {
        self.hits.load(Ordering::Relaxed)
    }

    /// Total rows admitted by `store` (rows dropped because a single call
    /// exceeded the whole limit are counted in
    /// [`EmbedCache::total_store_dropped`] instead).
    pub fn total_stores(&self) -> u64 {
        self.stores.load(Ordering::Relaxed)
    }

    /// Total rows dropped at admission because one `store` call exceeded
    /// the whole item limit.
    pub fn total_store_dropped(&self) -> u64 {
        self.store_dropped.load(Ordering::Relaxed)
    }

    /// Total evicted entries.
    pub fn total_evictions(&self) -> u64 {
        self.evictions.load(Ordering::Relaxed)
    }

    /// Total fresh keys actually inserted (distinct from
    /// [`EmbedCache::total_stores`], which counts attempted rows).
    pub fn total_inserted(&self) -> u64 {
        self.inserted.load(Ordering::Relaxed)
    }

    /// Total entries removed by invalidation sweeps (including `clear`).
    pub fn total_invalidated(&self) -> u64 {
        self.invalidated.load(Ordering::Relaxed)
    }

    /// Lifetime hit rate.
    pub fn hit_rate(&self) -> f64 {
        let l = self.total_lookups();
        if l == 0 {
            0.0
        } else {
            self.total_hits() as f64 / l as f64
        }
    }
}

/// One [`EmbedCache`] per cached model layer.
///
/// The memoization key is `(node, time)` (§4.1); embeddings of the *same*
/// target at *different layers* differ, so each cached layer gets its own
/// table — sharing one key space across layers would let a layer-1 lookup
/// return a layer-2 embedding. With the paper's configuration (2 layers,
/// last layer uncached) exactly one table exists, matching the paper's
/// single-cache design; deeper models split the item budget evenly.
pub struct LayerCaches {
    per_layer: Vec<Option<EmbedCache>>,
}

impl std::fmt::Debug for LayerCaches {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let layers: Vec<String> = self
            .per_layer
            .iter()
            .map(|c| match c {
                Some(c) => format!("EmbedCache{{len: {}, dim: {}}}", c.len(), c.dim()),
                None => "uncached".to_string(),
            })
            .collect();
        f.debug_struct("LayerCaches").field("per_layer", &layers).finish()
    }
}

impl LayerCaches {
    /// Caches for layers `1..=top` where `top = n_layers - 1` (or
    /// `n_layers` when `cache_last_layer` is set), sharing `total_limit`
    /// items between them.
    pub fn new(n_layers: usize, cache_last_layer: bool, total_limit: usize, dim: usize) -> Self {
        assert!(n_layers >= 1);
        let top = if cache_last_layer { n_layers } else { n_layers - 1 };
        let count = top; // layers 1..=top
        let per = total_limit.checked_div(count).map_or(0, |p| p.max(1));
        let per_layer: Vec<Option<EmbedCache>> = (0..=n_layers)
            .map(|l| (l >= 1 && l <= top).then(|| EmbedCache::new(per, dim)))
            .collect();
        debug_assert!(
            per_layer.iter().flatten().map(|c| c.limit()).sum::<usize>()
                <= total_limit.max(count),
            "per-layer budgets must not exceed the total item budget"
        );
        Self { per_layer }
    }

    /// Rebuilds from explicit per-layer caches (index = layer); used by the
    /// persistence module.
    pub fn from_parts(per_layer: Vec<Option<EmbedCache>>) -> Self {
        Self { per_layer }
    }

    /// Highest addressable layer index (the model's `L`).
    pub fn num_layers(&self) -> usize {
        self.per_layer.len().saturating_sub(1)
    }

    /// The cache for layer `l`, if that layer is cached.
    pub fn layer(&self, l: usize) -> Option<&EmbedCache> {
        self.per_layer.get(l).and_then(|c| c.as_ref())
    }

    fn iter(&self) -> impl Iterator<Item = &EmbedCache> {
        self.per_layer.iter().flatten()
    }

    /// Total cached embeddings across layers.
    pub fn len(&self) -> usize {
        self.iter().map(|c| c.len()).sum()
    }

    /// True if nothing is cached anywhere.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Total payload bytes across layers.
    pub fn bytes_used(&self) -> usize {
        self.iter().map(|c| c.bytes_used()).sum()
    }

    /// Total evictions across layers.
    pub fn total_evictions(&self) -> u64 {
        self.iter().map(|c| c.total_evictions()).sum()
    }

    /// Total fresh insertions across layers.
    pub fn total_inserted(&self) -> u64 {
        self.iter().map(|c| c.total_inserted()).sum()
    }

    /// Total invalidated entries across layers.
    pub fn total_invalidated(&self) -> u64 {
        self.iter().map(|c| c.total_invalidated()).sum()
    }

    /// Total rows dropped at store admission across layers.
    pub fn total_store_dropped(&self) -> u64 {
        self.iter().map(|c| c.total_store_dropped()).sum()
    }

    /// Summed item limits across layers.
    pub fn limit(&self) -> usize {
        self.iter().map(|c| c.limit()).sum()
    }

    /// Embedding dimension (uniform across layers); `None` if no layer is
    /// cached.
    pub fn dim(&self) -> Option<usize> {
        self.iter().next().map(|c| c.dim())
    }

    /// Invalidates `node` in every layer; returns total removals.
    ///
    /// # Invariants
    ///
    /// - Applies [`EmbedCache::invalidate_node`] to every cached layer; no
    ///   layer is skipped, so a node never survives at a deeper layer.
    pub fn invalidate_node(&self, node: NodeId) -> usize {
        self.iter().map(|c| c.invalidate_node(node)).sum()
    }

    /// Clears every layer.
    ///
    /// # Invariants
    ///
    /// - Every cached layer is cleared; `len() == 0` on return.
    pub fn clear(&self) {
        for c in self.iter() {
            c.clear();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::hash::pack_key;

    fn row_tensor(rows: &[&[f32]]) -> Tensor {
        let cols = rows[0].len();
        let mut data = Vec::new();
        for r in rows {
            data.extend_from_slice(r);
        }
        Tensor::from_vec(rows.len(), cols, data)
    }

    #[test]
    fn store_then_lookup_roundtrip() {
        let cache = EmbedCache::new(10, 3);
        let keys = [pack_key(1, 1.0), pack_key(2, 1.0)];
        cache.store(&keys, &row_tensor(&[&[1.0, 2.0, 3.0], &[4.0, 5.0, 6.0]])).unwrap();
        let mut out = Tensor::zeros(3, 3);
        let mask =
            cache.lookup(&[keys[1], pack_key(9, 9.0), keys[0]], &mut out).unwrap();
        assert_eq!(mask, vec![true, false, true]);
        assert_eq!(out.row(0), &[4.0, 5.0, 6.0]);
        assert_eq!(out.row(1), &[0.0, 0.0, 0.0]);
        assert_eq!(out.row(2), &[1.0, 2.0, 3.0]);
        assert_eq!(cache.len(), 2);
        assert_eq!(cache.total_hits(), 2);
        assert_eq!(cache.total_lookups(), 3);
    }

    #[test]
    fn mis_shaped_buffers_are_rejected_as_shape_mismatch() {
        // Callers dispatch on the variant (degraded-mode handling must be
        // able to tell a shape bug from an I/O failure), so assert the
        // variant itself, not just that an error came back.
        let cache = EmbedCache::new(10, 3);
        let keys = [pack_key(1, 1.0)];
        let mut narrow = Tensor::zeros(1, 2);
        let err = cache.lookup(&keys, &mut narrow).unwrap_err();
        assert!(matches!(err, TgError::ShapeMismatch { ref context, .. } if context.contains("lookup")));
        let err = cache.store(&keys, &Tensor::zeros(2, 3)).unwrap_err();
        assert!(matches!(err, TgError::ShapeMismatch { ref context, .. } if context.contains("store")));
    }

    #[test]
    fn fifo_eviction_keeps_newest() {
        let cache = EmbedCache::new(3, 1);
        for i in 0..5u32 {
            cache.store(&[pack_key(i, 0.0)], &Tensor::from_vec(1, 1, vec![i as f32])).unwrap();
        }
        assert_eq!(cache.len(), 3);
        assert_eq!(cache.total_evictions(), 2);
        let mut out = Tensor::zeros(5, 1);
        let keys: Vec<u64> = (0..5u32).map(|i| pack_key(i, 0.0)).collect();
        let mask = cache.lookup(&keys, &mut out).unwrap();
        assert_eq!(mask, vec![false, false, true, true, true]);
    }

    #[test]
    fn never_exceeds_limit() {
        let cache = EmbedCache::new(7, 2);
        for batch in 0..20u32 {
            let keys: Vec<u64> = (0..5u32).map(|i| pack_key(batch * 5 + i, 0.0)).collect();
            let h = Tensor::zeros(5, 2);
            cache.store(&keys, &h).unwrap();
            assert!(cache.len() <= 7, "len {} exceeds limit", cache.len());
        }
    }

    #[test]
    fn oversized_single_store_keeps_newest_rows() {
        let cache = EmbedCache::new(2, 1);
        let keys: Vec<u64> = (0..4u32).map(|i| pack_key(i, 0.0)).collect();
        let h = Tensor::from_vec(4, 1, vec![0.0, 1.0, 2.0, 3.0]);
        cache.store(&keys, &h).unwrap();
        assert_eq!(cache.len(), 2);
        let mut out = Tensor::zeros(4, 1);
        let mask = cache.lookup(&keys, &mut out).unwrap();
        assert_eq!(mask, vec![false, false, true, true]);
        assert_eq!(out.row(3), &[3.0]);
    }

    #[test]
    fn duplicate_store_overwrites_without_growth() {
        let cache = EmbedCache::new(5, 1);
        let k = [pack_key(1, 2.0)];
        cache.store(&k, &Tensor::from_vec(1, 1, vec![1.0])).unwrap();
        cache.store(&k, &Tensor::from_vec(1, 1, vec![9.0])).unwrap();
        assert_eq!(cache.len(), 1);
        let mut out = Tensor::zeros(1, 1);
        assert_eq!(cache.lookup(&k, &mut out).unwrap(), vec![true]);
        assert_eq!(out.get(0, 0), 9.0);
    }

    #[test]
    fn algorithm3_restore_accounting_does_not_evict_for_existing_keys() {
        // DESIGN.md's Algorithm-3 accounting case: the eviction pre-pass
        // must count only *fresh* keys against the limit — re-storing keys
        // that are already cached reuses their slots and must not push
        // anything out.
        let cache = EmbedCache::new(3, 1);
        let keys: Vec<u64> = (0..3).map(|n| pack_key(n, 1.0)).collect();
        cache.store(&keys, &row_tensor(&[&[1.0], &[2.0], &[3.0]])).unwrap();
        assert_eq!(cache.len(), 3);

        // Full-capacity re-store of every key: zero evictions, new values.
        cache.store(&keys, &row_tensor(&[&[10.0], &[20.0], &[30.0]])).unwrap();
        assert_eq!(cache.len(), 3);
        assert_eq!(cache.total_evictions(), 0, "re-store must not evict");
        let mut out = Tensor::zeros(3, 1);
        assert_eq!(cache.lookup(&keys, &mut out).unwrap(), vec![true; 3]);
        assert_eq!(out.as_slice(), &[10.0, 20.0, 30.0]);

        // Mixed batch at capacity: two existing keys plus one fresh key
        // needs exactly one eviction (the FIFO-oldest), not three.
        let mixed = [keys[1], keys[2], pack_key(9, 9.0)];
        cache.store(&mixed, &row_tensor(&[&[21.0], &[31.0], &[91.0]])).unwrap();
        assert_eq!(cache.len(), 3);
        assert_eq!(cache.total_evictions(), 1, "only the fresh key needs capacity");
        assert!(!cache.contains(keys[0]), "the FIFO-oldest key makes room");
        assert!(cache.contains(mixed[2]));
    }

    #[test]
    fn invalidate_node_removes_all_times() {
        let cache = EmbedCache::new(10, 1);
        cache.store(
            &[pack_key(1, 1.0), pack_key(1, 2.0), pack_key(2, 1.0)],
            &Tensor::zeros(3, 1),
        ).unwrap();
        assert_eq!(cache.invalidate_node(1), 2);
        assert_eq!(cache.len(), 1);
        let mut out = Tensor::zeros(3, 1);
        let mask = cache.lookup(
            &[pack_key(1, 1.0), pack_key(1, 2.0), pack_key(2, 1.0)],
            &mut out,
        ).unwrap();
        assert_eq!(mask, vec![false, false, true]);
    }

    #[test]
    fn targeted_invalidation_removes_only_matching_times() {
        let cache = EmbedCache::new(10, 1);
        let keys = [pack_key(1, 1.0), pack_key(1, 5.0), pack_key(1, 9.0), pack_key(2, 9.0)];
        cache.store(&keys, &Tensor::zeros(4, 1)).unwrap();
        // Stale: node 1 entries with t > 4.0. Node 2 is untouched even
        // though its time matches.
        let (removed, retained) = cache.invalidate_node_entries_if(1, |t| t > 4.0);
        assert_eq!((removed, retained), (2, 1));
        assert_eq!(cache.len(), 2);
        assert!(cache.contains(keys[0]) && cache.contains(keys[3]));
        assert!(!cache.contains(keys[1]) && !cache.contains(keys[2]));
        assert_eq!(cache.total_invalidated(), 2);
    }

    #[test]
    fn time_sweep_removes_entries_after_cutoff_for_all_nodes() {
        let cache = EmbedCache::new(10, 1);
        let keys = [pack_key(1, 1.0), pack_key(2, 5.0), pack_key(3, 9.0)];
        cache.store(&keys, &Tensor::zeros(3, 1)).unwrap();
        let (removed, retained) = cache.invalidate_time_after(4.0);
        assert_eq!((removed, retained), (2, 1));
        assert!(cache.contains(keys[0]));
        assert!(!cache.contains(keys[1]) && !cache.contains(keys[2]));
    }

    #[test]
    fn accounting_identity_inserted_equals_evicted_plus_invalidated_plus_resident() {
        let cache = EmbedCache::new(3, 1);
        for i in 0..5u32 {
            cache.store(&[pack_key(i, i as f32)], &Tensor::zeros(1, 1)).unwrap();
        }
        cache.invalidate_node(3);
        cache.invalidate_time_after(100.0); // removes everything left
        cache.store(&[pack_key(9, 1.0)], &Tensor::zeros(1, 1)).unwrap();
        cache.clear(); // clear counts as invalidation
        cache.store(&[pack_key(10, 1.0)], &Tensor::zeros(1, 1)).unwrap();
        assert_eq!(
            cache.total_inserted(),
            cache.total_evictions() + cache.total_invalidated() + cache.len() as u64,
            "inserted {} != evicted {} + invalidated {} + resident {}",
            cache.total_inserted(),
            cache.total_evictions(),
            cache.total_invalidated(),
            cache.len()
        );
    }

    #[test]
    fn invalidation_between_publish_and_count_keeps_the_count_exact() {
        // The interleaving a serving worker and an invalidator can produce:
        // a store has published its key in a shard but not yet counted it
        // when an invalidation removes that key.
        let cache = EmbedCache::new(4, 1);
        let key = pack_key(7, 1.0);
        let entry = Entry { row: vec![1.0].into(), constraint: Box::default() };
        cache.shards[shard_of(key)].write().insert(key, entry);
        assert_eq!(cache.invalidate_node(7), 1);
        assert_eq!(cache.len(), 0, "the early decrement must not read as a wrapped count");
        cache.finish_store(vec![key], 1);
        assert_eq!(cache.len(), 0, "the late count must cancel the early decrement");
        // A full batch still fits exactly, with no phantom eviction.
        let keys: Vec<u64> = (0..4u32).map(|i| pack_key(i, 2.0)).collect();
        cache.store(&keys, &Tensor::zeros(4, 1)).unwrap();
        assert_eq!(cache.len(), 4);
        assert_eq!(cache.total_evictions(), 0);
        assert_eq!(
            cache.total_inserted(),
            cache.total_evictions() + cache.total_invalidated() + cache.len() as u64
        );
    }

    #[test]
    fn eviction_skips_invalidated_entries() {
        let cache = EmbedCache::new(3, 1);
        for i in 0..3u32 {
            cache.store(&[pack_key(i, 0.0)], &Tensor::zeros(1, 1)).unwrap();
        }
        cache.invalidate_node(0);
        assert_eq!(cache.len(), 2);
        // Storing two more must evict exactly one live entry (key 1) while
        // skipping the stale FIFO slot for key 0.
        cache.store(&[pack_key(10, 0.0), pack_key(11, 0.0)], &Tensor::zeros(2, 1)).unwrap();
        assert!(cache.len() <= 3);
        let mut out = Tensor::zeros(1, 1);
        assert_eq!(cache.lookup(&[pack_key(11, 0.0)], &mut out).unwrap(), vec![true]);
    }

    #[test]
    fn oversized_store_counts_only_admitted_rows() {
        // A single call exceeding the whole limit must not inflate the
        // `stores` counter with rows it silently dropped.
        let cache = EmbedCache::new(2, 1);
        let keys: Vec<u64> = (0..4u32).map(|i| pack_key(i, 0.0)).collect();
        cache.store(&keys, &Tensor::zeros(4, 1)).unwrap();
        assert_eq!(cache.total_stores(), 2, "only admitted rows count as stores");
        assert_eq!(cache.total_store_dropped(), 2, "dropped rows are surfaced");
        // A fitting store drops nothing.
        cache.store(&[pack_key(9, 0.0)], &Tensor::zeros(1, 1)).unwrap();
        assert_eq!(cache.total_stores(), 3);
        assert_eq!(cache.total_store_dropped(), 2);
    }

    #[test]
    fn restore_after_invalidation_does_not_duplicate_fifo_rows() {
        let cache = EmbedCache::new(10, 1);
        let keys: Vec<u64> = (0..3u32).map(|i| pack_key(i, 1.0)).collect();
        cache.store(&keys, &row_tensor(&[&[0.0], &[1.0], &[2.0]])).unwrap();
        cache.invalidate_node(1);
        cache.store(&[keys[1]], &Tensor::from_vec(1, 1, vec![9.0])).unwrap();
        let export = cache.export_fifo_order();
        let exported: Vec<u64> = export.iter().map(|(k, _)| *k).collect();
        // Exactly once, at its re-store (newest) position.
        assert_eq!(exported, vec![keys[0], keys[2], keys[1]]);
        assert_eq!(export[2].1.as_ref(), &[9.0]);
    }

    #[test]
    fn eviction_after_restore_treats_the_entry_as_young() {
        let cache = EmbedCache::new(3, 1);
        let keys: Vec<u64> = (0..3u32).map(|i| pack_key(i, 1.0)).collect();
        cache.store(&keys, &Tensor::zeros(3, 1)).unwrap();
        cache.invalidate_node(0);
        cache.store(&[keys[0]], &Tensor::zeros(1, 1)).unwrap();
        // FIFO age order is now 1, 2, 0. Two more stores must evict keys 1
        // and 2 — not the re-stored key 0 via its stale front slot.
        cache.store(
            &[pack_key(10, 0.0), pack_key(11, 0.0)],
            &Tensor::zeros(2, 1),
        ).unwrap();
        assert!(cache.contains(keys[0]), "re-stored entry must survive as youngest");
        assert!(!cache.contains(keys[1]) && !cache.contains(keys[2]));
        assert_eq!(cache.len(), 3);
    }

    #[test]
    fn constraint_sweep_removes_only_entries_whose_sample_is_hit() {
        let cache = EmbedCache::new(10, 1);
        let keys = [pack_key(1, 5.0), pack_key(2, 6.0), pack_key(3, 7.0)];
        // Entry 1's subgraph read node 8's window at t=4; entry 2's read
        // node 9's at t=5; entry 3 has no fingerprint (conservative).
        let constraints = vec![
            vec![pack_key(1, 5.0), pack_key(8, 4.0)].into_boxed_slice(),
            vec![pack_key(2, 6.0), pack_key(9, 5.0)].into_boxed_slice(),
            Box::default(),
        ];
        cache.store_with_constraints(&keys, &Tensor::zeros(3, 1), constraints).unwrap();
        // Edge at te=4.5: only pairs with time > 4.5 can be entered; say
        // the edge lands in node 9's window but not node 1's or 2's own.
        let (removed, retained) =
            cache.invalidate_constraints_after(4.5, |n, t| t > 4.5 && n == 9);
        assert_eq!((removed, retained), (2, 1), "entry 2 (hit) and entry 3 (no fp) go");
        assert!(cache.contains(keys[0]));
        assert!(!cache.contains(keys[1]) && !cache.contains(keys[2]));
        // Entries at t <= te are never examined.
        let (removed, retained) = cache.invalidate_constraints_after(9.0, |_, _| true);
        assert_eq!((removed, retained), (0, 0));
        assert!(cache.contains(keys[0]));
    }

    #[test]
    fn plain_restore_drops_a_previous_fingerprint() {
        // Overwriting a constrained entry through the plain store path must
        // leave it conservative (empty fingerprint), not freshly guaranteed.
        let cache = EmbedCache::new(10, 1);
        let k = [pack_key(1, 5.0)];
        let fp = vec![vec![pack_key(1, 5.0)].into_boxed_slice()];
        cache.store_with_constraints(&k, &Tensor::zeros(1, 1), fp).unwrap();
        cache.store(&k, &Tensor::zeros(1, 1)).unwrap();
        let (removed, _) = cache.invalidate_constraints_after(4.0, |_, _| false);
        assert_eq!(removed, 1, "fingerprint-less entry takes the conservative path");
    }

    #[test]
    fn layer_caches_default_config_has_single_table() {
        // 2 layers, last layer uncached => only layer 1 is cached, with the
        // full budget (the paper's configuration).
        let lc = LayerCaches::new(2, false, 100, 4);
        assert!(lc.layer(0).is_none(), "layer 0 is feature lookup, never cached");
        assert!(lc.layer(1).is_some());
        assert!(lc.layer(2).is_none());
        assert_eq!(lc.limit(), 100);
        assert_eq!(lc.dim(), Some(4));
        assert!(lc.is_empty());
    }

    #[test]
    fn layer_caches_split_budget_when_caching_all_layers() {
        let lc = LayerCaches::new(3, true, 90, 4);
        assert!(lc.layer(1).is_some() && lc.layer(2).is_some() && lc.layer(3).is_some());
        assert_eq!(lc.limit(), 90);
        assert_eq!(lc.layer(1).unwrap().limit(), 30);
    }

    #[test]
    fn layer_caches_same_key_different_layers_do_not_collide() {
        let lc = LayerCaches::new(2, true, 100, 1);
        let key = [pack_key(5, 3.0)];
        lc.layer(1).unwrap().store(&key, &Tensor::from_vec(1, 1, vec![1.0])).unwrap();
        lc.layer(2).unwrap().store(&key, &Tensor::from_vec(1, 1, vec![2.0])).unwrap();
        let mut o1 = Tensor::zeros(1, 1);
        let mut o2 = Tensor::zeros(1, 1);
        assert_eq!(lc.layer(1).unwrap().lookup(&key, &mut o1).unwrap(), vec![true]);
        assert_eq!(lc.layer(2).unwrap().lookup(&key, &mut o2).unwrap(), vec![true]);
        assert_eq!(o1.get(0, 0), 1.0);
        assert_eq!(o2.get(0, 0), 2.0);
        assert_eq!(lc.len(), 2);
    }

    #[test]
    fn layer_caches_aggregate_invalidation_and_clear() {
        let lc = LayerCaches::new(2, true, 100, 1);
        lc.layer(1).unwrap().store(&[pack_key(5, 1.0)], &Tensor::zeros(1, 1)).unwrap();
        lc.layer(2).unwrap().store(&[pack_key(5, 2.0)], &Tensor::zeros(1, 1)).unwrap();
        assert_eq!(lc.invalidate_node(5), 2);
        lc.layer(1).unwrap().store(&[pack_key(6, 1.0)], &Tensor::zeros(1, 1)).unwrap();
        lc.clear();
        assert!(lc.is_empty());
        assert_eq!(lc.bytes_used(), 0);
    }

    #[test]
    fn single_layer_model_without_last_layer_caching_caches_nothing() {
        let lc = LayerCaches::new(1, false, 100, 4);
        assert!(lc.layer(1).is_none());
        assert_eq!(lc.dim(), None);
        assert_eq!(lc.limit(), 0);
    }

    #[test]
    fn hit_rate_is_zero_not_nan_on_fresh_cache() {
        let cache = EmbedCache::new(10, 4);
        assert_eq!(cache.total_lookups(), 0);
        assert_eq!(cache.hit_rate(), 0.0);
        assert!(!cache.hit_rate().is_nan());
        // One miss then one hit: rate becomes well-defined and exact.
        let k = [pack_key(1, 1.0)];
        let mut out = Tensor::zeros(1, 4);
        let _ = cache.lookup(&k, &mut out).unwrap();
        cache.store(&k, &Tensor::zeros(1, 4)).unwrap();
        let _ = cache.lookup(&k, &mut out).unwrap();
        assert!((cache.hit_rate() - 0.5).abs() < 1e-12);
    }

    #[test]
    fn clear_and_bytes_used() {
        let cache = EmbedCache::new(10, 8);
        cache.store(&[pack_key(1, 1.0)], &Tensor::zeros(1, 8)).unwrap();
        assert_eq!(cache.bytes_used(), 32);
        cache.clear();
        assert!(cache.is_empty());
        assert_eq!(cache.bytes_used(), 0);
    }
}
