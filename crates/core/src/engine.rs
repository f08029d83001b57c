//! The optimized inference engine (Algorithm 1).
//!
//! `TgoptEngine` is a drop-in replacement for `tgat::BaselineEngine`: same
//! inputs, same outputs within floating-point tolerance, with deduplication,
//! memoization, and time-encoding precomputation layered in front of the
//! original computation.

use crate::cache::LayerCaches;
use crate::config::{OptConfig, TimeCacheKind};
use crate::dedup::{dedup_filter, dedup_invert};
use crate::fingerprint;
use crate::hash::compute_keys;
use crate::timecache::{HashTimeCache, TimeCache};
use tg_error::TgError;
use tg_graph::{GraphView, NodeId, SamplingStrategy, TemporalSampler, Time};
use tg_tensor::{ops, Scratch, Tensor};
use tgat::attention::{self, AttentionInputs};
use tgat::engine::GraphContext;
use std::sync::Arc;
use tgat::{OpKind, OpStats, TgatParams};

/// Cumulative reuse counters (drive Figures 3 and 7 and Table 3's hit rate).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct EngineCounters {
    /// Keys probed against the embedding cache.
    pub cache_lookups: u64,
    /// Probes that hit (embeddings reused instead of recomputed).
    pub cache_hits: u64,
    /// Embeddings stored after recomputation.
    pub cache_stores: u64,
    /// Unique targets whose embedding had to be recomputed.
    pub recomputed: u64,
    /// Duplicate targets removed by the dedup filter.
    pub dedup_removed: u64,
    /// Recomputed embeddings *not* stored because the engine was in
    /// degraded (store-skipping) mode — e.g. a serving layer's memory
    /// budget was exceeded, so the cache serves lookups only.
    pub stores_skipped: u64,
}

impl EngineCounters {
    /// Elementwise difference (for per-batch deltas).
    pub fn delta_since(&self, earlier: &EngineCounters) -> EngineCounters {
        EngineCounters {
            cache_lookups: self.cache_lookups - earlier.cache_lookups,
            cache_hits: self.cache_hits - earlier.cache_hits,
            cache_stores: self.cache_stores - earlier.cache_stores,
            recomputed: self.recomputed - earlier.recomputed,
            dedup_removed: self.dedup_removed - earlier.dedup_removed,
            stores_skipped: self.stores_skipped - earlier.stores_skipped,
        }
    }

    /// Elementwise sum (for aggregating per-worker counters).
    pub fn merge(&self, other: &EngineCounters) -> EngineCounters {
        EngineCounters {
            cache_lookups: self.cache_lookups + other.cache_lookups,
            cache_hits: self.cache_hits + other.cache_hits,
            cache_stores: self.cache_stores + other.cache_stores,
            recomputed: self.recomputed + other.recomputed,
            dedup_removed: self.dedup_removed + other.dedup_removed,
            stores_skipped: self.stores_skipped + other.stores_skipped,
        }
    }

    /// Hit rate over these counters (0 if nothing was looked up).
    pub fn hit_rate(&self) -> f64 {
        if self.cache_lookups == 0 {
            0.0
        } else {
            self.cache_hits as f64 / self.cache_lookups as f64
        }
    }
}

/// The configured time-encoding reuse structure (§4.3): either the paper's
/// dense precomputed window or the hash-memoization alternative (an
/// ablation of that design choice — see DESIGN.md).
enum TimeCacheImpl {
    Dense(TimeCache),
    Hash { cache: HashTimeCache, zero_row: Vec<f32> },
}

impl TimeCacheImpl {
    fn new(encoder: &tgat::TimeEncoder, opt: &OptConfig) -> Self {
        match opt.time_cache_kind {
            TimeCacheKind::DenseWindow => {
                Self::Dense(TimeCache::precompute(encoder, opt.time_window.max(1)))
            }
            TimeCacheKind::Hash => Self::Hash {
                cache: HashTimeCache::new(opt.time_window.max(1)),
                zero_row: encoder.encode_one(0.0).into_vec(),
            },
        }
    }

    /// Encodes into a caller-provided (scratch-backed) destination so the
    /// all-hit steady state allocates nothing; misses batch one encoder
    /// fallback internally.
    fn encode_into(&mut self, encoder: &tgat::TimeEncoder, dts: &[f32], out: &mut Tensor) {
        match self {
            Self::Dense(c) => c.encode_into(encoder, dts, out),
            Self::Hash { cache, .. } => cache.encode_into(encoder, dts, out),
        }
    }

    /// `Phi(0)` broadcast from the ahead-of-time row (both variants
    /// precompute it once, per §3.3) into a caller-provided destination.
    /// Every row of `out` is overwritten; allocation-free.
    fn encode_zeros_into(&self, out: &mut Tensor) {
        match self {
            Self::Dense(c) => c.encode_zeros_into(out),
            Self::Hash { zero_row, .. } => {
                debug_assert_eq!(out.cols(), zero_row.len());
                for r in 0..out.rows() {
                    out.row_mut(r).copy_from_slice(zero_row);
                }
            }
        }
    }

    fn stats(&self) -> (u64, u64) {
        match self {
            Self::Dense(c) => (c.hits(), c.misses()),
            Self::Hash { cache, .. } => (cache.hits(), cache.misses()),
        }
    }
}

/// TGOpt's redundancy-aware TGAT inference engine.
pub struct TgoptEngine<'a> {
    params: &'a TgatParams,
    ctx: GraphContext<'a>,
    sampler: TemporalSampler,
    opt: OptConfig,
    caches: Arc<LayerCaches>,
    timecache: TimeCacheImpl,
    stats: OpStats,
    counters: EngineCounters,
    store_enabled: bool,
    /// When pinned, neighborhood sampling reads this epoch-stamped live
    /// snapshot instead of `ctx.graph` — the streaming-ingest read path.
    /// Owned (not borrowed) because views are per-wave while the engine
    /// lives for the worker's lifetime.
    view: Option<GraphView>,
    /// Recycled per-batch buffers; owned by the engine (one per serve
    /// worker) so steady-state batches run allocation-free.
    scratch: Scratch,
}

impl<'a> TgoptEngine<'a> {
    /// Builds an engine with the model's configured most-recent sampler.
    pub fn new(params: &'a TgatParams, ctx: GraphContext<'a>, opt: OptConfig) -> Self {
        let sampler = TemporalSampler::most_recent(params.cfg.n_neighbors);
        Self::with_sampler(params, ctx, opt, sampler)
    }

    /// Builds an engine with a custom sampler. With a non-deterministic
    /// strategy (uniform sampling) the embedding cache is automatically
    /// bypassed — memoization is only sound under most-recent sampling
    /// (§3.2 / §7).
    pub fn with_sampler(
        params: &'a TgatParams,
        ctx: GraphContext<'a>,
        opt: OptConfig,
        sampler: TemporalSampler,
    ) -> Self {
        let timecache = TimeCacheImpl::new(&params.time, &opt);
        Self {
            params,
            ctx,
            sampler,
            opt,
            caches: Arc::new(LayerCaches::new(
                params.cfg.n_layers,
                opt.cache_last_layer,
                opt.cache_limit.max(1),
                params.cfg.dim,
            )),
            timecache,
            stats: OpStats::disabled(),
            counters: EngineCounters::default(),
            store_enabled: true,
            view: None,
            scratch: Scratch::new(),
        }
    }

    /// Rebuilds an engine around an existing cache (and counters), e.g.
    /// after the graph grew and a new [`GraphContext`] borrow is needed.
    /// The caller is responsible for invalidating entries whose history
    /// changed semantically (most-recent sampling makes pure *additions*
    /// safe, §3.2; deletions require [`TgoptEngine::invalidate_node`]).
    pub fn with_cache(
        params: &'a TgatParams,
        ctx: GraphContext<'a>,
        opt: OptConfig,
        caches: Arc<LayerCaches>,
        counters: EngineCounters,
    ) -> Self {
        if let Some(dim) = caches.dim() {
            assert_eq!(dim, params.cfg.dim, "cache dimension mismatch");
        }
        let mut eng = Self::new(params, ctx, opt);
        eng.caches = caches;
        eng.counters = counters;
        eng
    }

    /// Tears the engine down, releasing the cache and counters for reuse
    /// with [`TgoptEngine::with_cache`].
    pub fn into_cache(self) -> (Arc<LayerCaches>, EngineCounters) {
        (self.caches, self.counters)
    }

    /// A shareable handle to the engine's caches. Multiple engines (e.g.
    /// one per serving thread) built over the same graph may share caches
    /// via [`TgoptEngine::with_cache`]: the tables are sharded and
    /// internally synchronized, and memoized values are deterministic
    /// functions of their key, so concurrent readers/writers always observe
    /// correct embeddings.
    pub fn shared_cache(&self) -> Arc<LayerCaches> {
        Arc::clone(&self.caches)
    }

    /// Turns on per-operation timing (Table 3 reproduction).
    pub fn enable_stats(&mut self) {
        self.stats = OpStats::enabled();
    }

    /// Accumulated operation timings.
    pub fn stats(&self) -> &OpStats {
        &self.stats
    }

    /// Cumulative reuse counters.
    pub fn counters(&self) -> EngineCounters {
        self.counters
    }

    /// The per-layer embedding caches (for memory accounting and
    /// invalidation).
    pub fn cache(&self) -> &LayerCaches {
        &self.caches
    }

    /// Hit/miss counters of the time-encoding cache `(hits, misses)`.
    pub fn time_cache_stats(&self) -> (u64, u64) {
        self.timecache.stats()
    }

    /// Hit rate of the time-encoding cache.
    pub fn time_cache_hit_rate(&self) -> f64 {
        let (h, m) = self.timecache.stats();
        if h + m == 0 { 0.0 } else { h as f64 / (h + m) as f64 }
    }

    /// The active optimization configuration.
    pub fn opt_config(&self) -> &OptConfig {
        &self.opt
    }

    /// Invalidate all cached embeddings of `node` — called by the holder
    /// after a graph-change event that alters the node's history semantics
    /// (edge deletion, node-feature update; future-work §7).
    pub fn invalidate_node(&mut self, node: NodeId) -> usize {
        self.caches.invalidate_node(node)
    }

    /// Invalidation for the deletion of an edge between `src` and `dst`
    /// (future-work §7), correct for *any* model depth: a cached layer-`l`
    /// embedding of node `X` can embed the deleted interaction when `X` is
    /// within `l - 1` hops of either endpoint, so every node within
    /// `max_cached_layer - 1` hops is invalidated (conservatively across all
    /// cached layers). For the paper's 2-layer configuration this reduces to
    /// invalidating the two endpoints.
    ///
    /// Call *after* removing the edge from the graph; the hop expansion only
    /// shrinks with the deletion, so post-deletion expansion plus the
    /// endpoints themselves covers every affected node.
    pub fn invalidate_edge_deletion(&mut self, src: NodeId, dst: NodeId) -> usize {
        let max_cached = if self.opt.cache_last_layer {
            self.params.cfg.n_layers
        } else {
            self.params.cfg.n_layers.saturating_sub(1)
        };
        let hops = max_cached.saturating_sub(1);
        let mut victims: Vec<NodeId> = self.ctx.graph.k_hop_nodes(src, hops);
        victims.extend(self.ctx.graph.k_hop_nodes(dst, hops));
        victims.sort_unstable();
        victims.dedup();
        victims.iter().map(|&n| self.caches.invalidate_node(n)).sum()
    }

    /// True if memoization is actually in effect (enabled *and* sound under
    /// the configured sampling strategy).
    pub fn memoization_active(&self) -> bool {
        self.opt.enable_cache && self.sampler.strategy() == SamplingStrategy::MostRecent
    }

    /// Toggles degraded (store-skipping) mode: with stores disabled the
    /// engine still *reads* the cache and still recomputes misses correctly,
    /// but recomputed embeddings are not written back, so the cache stops
    /// growing. Serving layers flip this when a memory budget is exceeded —
    /// degrading throughput instead of failing requests. Skipped writes are
    /// counted in [`EngineCounters::stores_skipped`]. Always safe: skipping
    /// a store never changes any returned embedding.
    pub fn set_store_enabled(&mut self, enabled: bool) {
        self.store_enabled = enabled;
    }

    /// True unless degraded (store-skipping) mode is active.
    pub fn store_enabled(&self) -> bool {
        self.store_enabled
    }

    /// Pins an epoch-stamped live snapshot: until [`TgoptEngine::unpin_view`],
    /// neighborhood sampling reads `view` instead of the frozen
    /// `ctx.graph`. Memoization stays sound because a view only ever
    /// *adds* interactions relative to older epochs, and the serve layer
    /// invalidates the (few) entries a new edge can reach before queries
    /// at later epochs are admitted (see DESIGN.md "Streaming ingest").
    pub fn pin_view(&mut self, view: GraphView) {
        self.view = Some(view);
    }

    /// Unpins the live snapshot; sampling reverts to `ctx.graph`.
    pub fn unpin_view(&mut self) {
        self.view = None;
    }

    /// The epoch of the pinned view, if one is pinned.
    pub fn pinned_epoch(&self) -> Option<u64> {
        self.view.as_ref().map(|v| v.epoch())
    }

    /// Computes final-layer temporal embeddings for `(ns[i], ts[i])` targets.
    /// Drop-in equivalent of `BaselineEngine::embed_batch`, except that
    /// internal cache shape violations surface as [`TgError`] instead of
    /// aborting the serving thread.
    // hot-path-root
    pub fn embed_batch(&mut self, ns: &[NodeId], ts: &[Time]) -> Result<Tensor, TgError> {
        if ns.len() != ts.len() {
            return Err(TgError::InvalidArgument(format!( // alloc-ok: rejection path only; one message String per invalid request
                "embed_batch needs one timestamp per node: {} nodes vs {} times",
                ns.len(),
                ts.len()
            )));
        }
        self.embed(self.params.cfg.n_layers, ns, ts)
    }

    fn embed(&mut self, l: usize, ns: &[NodeId], ts: &[Time]) -> Result<Tensor, TgError> {
        debug_assert_eq!(ns.len(), ts.len());
        let cfg = &self.params.cfg;
        if l == 0 {
            // Layer 0 only gathers static features; dedup would cost more
            // than the lookup it saves (§4.1).
            return Ok(self.ctx.gather_node_features_with(ns, &mut self.scratch));
        }
        if ns.is_empty() {
            return Ok(self.scratch.take(0, cfg.dim));
        }

        // §4.1 DedupFilter.
        let dedup = if self.opt.enable_dedup {
            let r = self.stats.time(OpKind::DedupFilter, || dedup_filter(ns, ts));
            self.counters.dedup_removed += (ns.len() - r.num_unique()) as u64;
            Some(r)
        } else {
            None
        };
        let (uns, uts): (&[NodeId], &[Time]) = match &dedup {
            Some(r) => (&r.ns, &r.ts),
            None => (ns, ts),
        };
        let n_uniq = uns.len();
        // Zeroed (not just taken) because a partial cache lookup only fills
        // hit rows; the scatter below covers the misses.
        let mut h = self.scratch.zeros(n_uniq, cfg.dim);

        // §4.2 memoization — sound only under most-recent sampling, and the
        // last layer is skipped unless configured otherwise. Each cached
        // layer has its own table: keys identify a (node, time) target, not
        // a layer.
        let caches = Arc::clone(&self.caches);
        let cache_l = if self.memoization_active() { caches.layer(l) } else { None };
        let (keys, hit_mask) = if let Some(cache) = cache_l {
            let keys = self.stats.time(OpKind::ComputeKeys, || compute_keys(uns, uts));
            let hit_mask = self.stats.time(OpKind::CacheLookup, || cache.lookup(&keys, &mut h))?;
            self.counters.cache_lookups += n_uniq as u64;
            self.counters.cache_hits += hit_mask.iter().filter(|&&m| m).count() as u64;
            (keys, hit_mask)
        } else {
            (Vec::new(), vec![false; n_uniq]) // alloc-ok: cache-disabled fallback; one empty key vec and one bool mask per batch
        };

        let miss_idx: Vec<usize> =
            (0..n_uniq).filter(|&i| !hit_mask[i]).collect(); // alloc-ok: Algorithm 1 miss bookkeeping; shrinks to empty as hit rate rises
        if !miss_idx.is_empty() {
            let m_ns: Vec<NodeId> = miss_idx.iter().map(|&i| uns[i]).collect(); // alloc-ok: miss-target ids; variable-size id lists are not poolable f32 scratch
            let m_ts: Vec<Time> = miss_idx.iter().map(|&i| uts[i]).collect(); // alloc-ok: miss-target times; same per-batch id bookkeeping as m_ns

            let (graph, sampler, view) = (self.ctx.graph, &self.sampler, self.view.as_ref());
            let nb = self.stats.time(OpKind::NghLookup, || match view {
                Some(v) => sampler.sample_view(v, &m_ns, &m_ts),
                None => sampler.sample(graph, &m_ns, &m_ts),
            });

            let mut all_ns = m_ns.clone();
            all_ns.extend_from_slice(&nb.nodes);
            let mut all_ts = m_ts.clone();
            all_ts.extend_from_slice(&nb.times);
            let h_prev = self.embed(l - 1, &all_ns, &all_ts)?;
            let mut h_src = self.scratch.take(m_ns.len(), h_prev.cols());
            let mut h_ngh = self.scratch.take(nb.nodes.len(), h_prev.cols());
            ops::split_rows_into(&h_prev, m_ns.len(), &mut h_src, &mut h_ngh);
            self.scratch.give(h_prev);

            // §4.3 precomputed time encodings — both branches fill
            // scratch-backed destinations, so a steady-state (all-hit)
            // batch performs no time-encode allocations.
            let params = self.params;
            let time_dim = params.time.dim();
            let precompute = self.opt.enable_time_precompute;
            let mut ht0 = self.scratch.take(m_ns.len(), time_dim);
            {
                let timecache = &self.timecache;
                let stats = &mut self.stats;
                stats.time(OpKind::TimeEncodeZero, || {
                    if precompute {
                        timecache.encode_zeros_into(&mut ht0);
                    } else {
                        params.time.encode_zeros_into(&mut ht0);
                    }
                });
            }
            let mut ht = self.scratch.take(nb.dts.len(), time_dim);
            {
                let timecache = &mut self.timecache;
                let stats = &mut self.stats;
                stats.time(OpKind::TimeEncodeDt, || {
                    if precompute {
                        timecache.encode_into(&params.time, &nb.dts, &mut ht);
                    } else {
                        params.time.encode_into(&nb.dts, &mut ht);
                    }
                });
            }
            let (ht0, ht) = (ht0, ht);
            let e_feat = self.ctx.gather_edge_features_with(&nb.eids, &mut self.scratch);
            let mask = nb.mask();

            let layer = &self.params.layers[l - 1];
            let stats = &mut self.stats;
            let scratch = &mut self.scratch;
            let h_m = stats.time(OpKind::Attention, || {
                attention::forward_with(
                    layer,
                    cfg,
                    &AttentionInputs {
                        h_src: &h_src,
                        ht0: &ht0,
                        h_ngh: &h_ngh,
                        e_feat: &e_feat,
                        ht: &ht,
                        mask: &mask,
                    },
                    scratch,
                )
            });
            self.scratch.give(e_feat);
            self.scratch.give(ht);
            self.scratch.give(ht0);
            self.scratch.give(h_ngh);
            self.scratch.give(h_src);

            if let Some(cache) = cache_l {
                if self.store_enabled {
                    let miss_keys: Vec<u64> = miss_idx.iter().map(|&i| keys[i]).collect(); // alloc-ok: Algorithm 3 CacheStore keys; one u64 per recomputed row
                    if l >= 2 {
                        // Layers >= 2 record each entry's temporal-subgraph
                        // fingerprint so streaming inserts can revalidate
                        // entries instead of sweeping everything at t > te
                        // (DESIGN.md "Constraint-tracked invalidation").
                        // Layer 1 keeps plain stores: its staleness rule is
                        // closed-form over the endpoint's own window.
                        let k = cfg.n_neighbors;
                        let (graph, view) = (self.ctx.graph, self.view.as_ref());
                        let stats = &mut self.stats;
                        stats.time(OpKind::CacheStore, || {
                            let fps = match view {
                                Some(v) => fingerprint::capture_many(v, k, &m_ns, &m_ts, l - 1),
                                None => fingerprint::capture_many(graph, k, &m_ns, &m_ts, l - 1),
                            };
                            cache.store_with_constraints(&miss_keys, &h_m, fps)
                        })?;
                    } else {
                        self.stats.time(OpKind::CacheStore, || cache.store(&miss_keys, &h_m))?;
                    }
                    self.counters.cache_stores += miss_keys.len() as u64;
                } else {
                    self.counters.stores_skipped += miss_idx.len() as u64;
                }
            }
            self.counters.recomputed += miss_idx.len() as u64;

            // Copy recomputed rows into their unique-array positions.
            for (src_row, &dst) in miss_idx.iter().enumerate() {
                h.row_mut(dst).copy_from_slice(h_m.row(src_row));
            }
            self.scratch.give(h_m);
        }

        // §4.1 DedupInvert: expand back to the original batch layout.
        Ok(match &dedup {
            Some(r) => {
                let out =
                    self.stats.time(OpKind::DedupInvert, || dedup_invert(&h, &r.inv_idx));
                self.scratch.give(h);
                out
            }
            None => h,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tg_graph::{EdgeStream, TemporalGraph};
    use tg_tensor::init;
    use tgat::{BaselineEngine, TgatConfig};

    fn world(cfg: TgatConfig, n_nodes: usize, n_edges: usize) -> (TemporalGraph, Tensor, Tensor) {
        let mut srcs = Vec::new();
        let mut dsts = Vec::new();
        let mut times = Vec::new();
        for i in 0..n_edges {
            srcs.push((i % n_nodes) as NodeId);
            dsts.push(((i * 3 + 1) % n_nodes) as NodeId);
            times.push((i + 1) as Time);
        }
        let stream = EdgeStream::new(&srcs, &dsts, &times);
        let graph = TemporalGraph::from_stream(&stream);
        let mut rng = init::seeded_rng(5);
        let nf = init::normal(&mut rng, n_nodes, cfg.dim, 0.5);
        let ef = init::normal(&mut rng, n_edges, cfg.edge_dim, 0.5);
        (graph, nf, ef)
    }

    fn assert_matches_baseline(opt: OptConfig) {
        let cfg = TgatConfig::tiny();
        let params = TgatParams::init(cfg, 7).unwrap();
        let (graph, nf, ef) = world(cfg, 12, 80);
        let ctx = GraphContext { graph: &graph, node_features: &nf, edge_features: &ef };
        let mut base = BaselineEngine::new(&params, ctx);
        let mut tgopt = TgoptEngine::new(&params, ctx, opt);
        // Several batches with heavy duplication and recurring targets.
        for round in 0..4 {
            let t = 40.0 + round as Time * 5.0;
            let ns: Vec<NodeId> = vec![0, 1, 2, 0, 1, 5, 0];
            let ts: Vec<Time> = vec![t, t, t + 1.0, t, t, t, t];
            let hb = base.embed_batch(&ns, &ts);
            let ho = tgopt.embed_batch(&ns, &ts).unwrap();
            let diff = hb.max_abs_diff(&ho);
            assert!(diff < 1e-4, "round {round}: max diff {diff} vs baseline ({opt:?})");
        }
    }

    #[test]
    fn all_optimizations_preserve_semantics() {
        assert_matches_baseline(OptConfig::all());
    }

    #[test]
    fn each_ablation_stage_preserves_semantics() {
        assert_matches_baseline(OptConfig::none());
        assert_matches_baseline(OptConfig::cache_only());
        assert_matches_baseline(OptConfig::cache_dedup());
        assert_matches_baseline(OptConfig { enable_dedup: true, enable_cache: false, enable_time_precompute: false, ..OptConfig::all() });
        assert_matches_baseline(OptConfig { enable_dedup: false, enable_cache: false, enable_time_precompute: true, ..OptConfig::all() });
    }

    #[test]
    fn cache_last_layer_also_preserves_semantics() {
        assert_matches_baseline(OptConfig { cache_last_layer: true, ..OptConfig::all() });
    }

    #[test]
    fn tiny_cache_limit_preserves_semantics() {
        assert_matches_baseline(OptConfig::all().with_cache_limit(4));
        assert_matches_baseline(OptConfig::all().with_time_window(2));
    }

    #[test]
    fn hash_time_cache_preserves_semantics() {
        use crate::config::TimeCacheKind;
        assert_matches_baseline(OptConfig::all().with_time_cache_kind(TimeCacheKind::Hash));
        assert_matches_baseline(
            OptConfig::all().with_time_cache_kind(TimeCacheKind::Hash).with_time_window(3),
        );
    }

    #[test]
    fn steady_state_time_encode_is_allocation_free() {
        use crate::config::TimeCacheKind;
        for kind in [TimeCacheKind::DenseWindow, TimeCacheKind::Hash] {
            let cfg = TgatConfig::tiny();
            let params = TgatParams::init(cfg, 7).unwrap();
            let (graph, nf, ef) = world(cfg, 12, 80);
            let ctx = GraphContext { graph: &graph, node_features: &nf, edge_features: &ef };
            // Cache and dedup off: every batch re-runs both time-encode
            // stages, and the output tensor stays scratch-backed so it can
            // be returned to the pool.
            let opt = OptConfig { enable_cache: false, enable_dedup: false, ..OptConfig::all() }
                .with_time_cache_kind(kind);
            let mut eng = TgoptEngine::new(&params, ctx, opt);
            let ns: Vec<NodeId> = vec![0, 1, 2, 5];
            let ts: Vec<Time> = vec![50.0, 50.0, 51.0, 52.0];
            // Warm-up: grow the scratch pool and (for Hash) memoize deltas.
            for _ in 0..3 {
                let h = eng.embed_batch(&ns, &ts).unwrap();
                eng.scratch.give(h);
            }
            let pooled = eng.scratch.pooled_capacity();
            for _ in 0..5 {
                let h = eng.embed_batch(&ns, &ts).unwrap();
                eng.scratch.give(h);
            }
            assert_eq!(
                eng.scratch.pooled_capacity(),
                pooled,
                "steady-state batches must not allocate scratch blocks ({kind:?})"
            );
        }
    }

    #[test]
    fn time_cache_stats_accumulate() {
        let cfg = TgatConfig::tiny();
        let params = TgatParams::init(cfg, 7).unwrap();
        let (graph, nf, ef) = world(cfg, 12, 80);
        let ctx = GraphContext { graph: &graph, node_features: &nf, edge_features: &ef };
        let mut eng = TgoptEngine::new(&params, ctx, OptConfig::all());
        let _ = eng.embed_batch(&[0, 1], &[50.0, 51.0]).unwrap();
        let (h, m) = eng.time_cache_stats();
        assert!(h + m > 0, "time encoder must have been exercised");
        assert!(eng.time_cache_hit_rate() >= 0.0);
    }

    #[test]
    fn repeated_batches_hit_the_cache() {
        let cfg = TgatConfig::tiny();
        let params = TgatParams::init(cfg, 7).unwrap();
        let (graph, nf, ef) = world(cfg, 12, 80);
        let ctx = GraphContext { graph: &graph, node_features: &nf, edge_features: &ef };
        let mut eng = TgoptEngine::new(&params, ctx, OptConfig::all());
        let ns: Vec<NodeId> = vec![0, 1, 2, 3];
        let ts: Vec<Time> = vec![50.0; 4];
        let h1 = eng.embed_batch(&ns, &ts).unwrap();
        let before = eng.counters();
        let h2 = eng.embed_batch(&ns, &ts).unwrap();
        let delta = eng.counters().delta_since(&before);
        assert_eq!(h1.max_abs_diff(&h2), 0.0, "cached results must be bit-identical");
        assert!(delta.cache_hits > 0, "second pass should reuse: {delta:?}");
        // The final layer is not cached (§4.2.2), so exactly the 4 top-level
        // targets recompute; every layer-1 embedding comes from the cache.
        assert_eq!(delta.recomputed, 4, "only the uncached top layer recomputes");
        assert_eq!(delta.cache_hits, delta.cache_lookups, "all layer-1 lookups hit");
        assert_eq!(delta.cache_stores, 0, "nothing new to store on the second pass");
    }

    #[test]
    fn uniform_sampling_bypasses_cache() {
        let cfg = TgatConfig::tiny();
        let params = TgatParams::init(cfg, 7).unwrap();
        let (graph, nf, ef) = world(cfg, 12, 80);
        let ctx = GraphContext { graph: &graph, node_features: &nf, edge_features: &ef };
        let sampler = TemporalSampler::new(cfg.n_neighbors, SamplingStrategy::Uniform { seed: 3 });
        let mut eng = TgoptEngine::with_sampler(&params, ctx, OptConfig::all(), sampler);
        assert!(!eng.memoization_active());
        let _ = eng.embed_batch(&[0, 1], &[50.0, 50.0]).unwrap();
        let c = eng.counters();
        assert_eq!(c.cache_lookups, 0);
        assert_eq!(c.cache_stores, 0);
        // Dedup still applies (it is always sound).
        assert!(eng.cache().is_empty());
    }

    #[test]
    fn counters_track_dedup_and_recompute() {
        let cfg = TgatConfig::tiny();
        let params = TgatParams::init(cfg, 7).unwrap();
        let (graph, nf, ef) = world(cfg, 12, 80);
        let ctx = GraphContext { graph: &graph, node_features: &nf, edge_features: &ef };
        let mut eng = TgoptEngine::new(&params, ctx, OptConfig::all());
        let _ = eng.embed_batch(&[4, 4, 4], &[60.0, 60.0, 60.0]).unwrap();
        let c = eng.counters();
        assert!(c.dedup_removed >= 2, "three identical targets leave two duplicates");
        assert!(c.recomputed > 0);
        assert!(c.hit_rate() >= 0.0);
    }

    #[test]
    fn hit_rate_is_zero_not_nan_on_fresh_engine() {
        // 0 lookups must yield 0.0, never 0/0 = NaN (a fresh engine's
        // hit rate is printed by every bench binary before warm-up).
        let c = EngineCounters::default();
        assert_eq!(c.cache_lookups, 0);
        assert_eq!(c.hit_rate(), 0.0);
        assert!(!c.hit_rate().is_nan());
    }

    #[test]
    fn degraded_mode_skips_stores_but_preserves_semantics() {
        let cfg = TgatConfig::tiny();
        let params = TgatParams::init(cfg, 7).unwrap();
        let (graph, nf, ef) = world(cfg, 12, 80);
        let ctx = GraphContext { graph: &graph, node_features: &nf, edge_features: &ef };
        let mut base = BaselineEngine::new(&params, ctx);
        let mut eng = TgoptEngine::new(&params, ctx, OptConfig::all());
        assert!(eng.store_enabled());
        eng.set_store_enabled(false);
        assert!(!eng.store_enabled());

        let ns: Vec<NodeId> = vec![0, 1, 2, 0];
        let ts: Vec<Time> = vec![50.0; 4];
        let h = eng.embed_batch(&ns, &ts).unwrap();
        let hb = base.embed_batch(&ns, &ts);
        assert!(h.max_abs_diff(&hb) < 1e-4, "degraded mode must stay correct");

        let c = eng.counters();
        assert_eq!(c.cache_stores, 0, "no writes while degraded");
        assert!(c.stores_skipped > 0, "skipped writes are counted");
        assert!(eng.cache().is_empty(), "the cache must not grow while degraded");

        // Re-enabling stores resumes cache population.
        eng.set_store_enabled(true);
        let _ = eng.embed_batch(&ns, &ts).unwrap();
        assert!(!eng.cache().is_empty());
        assert!(eng.counters().cache_stores > 0);
    }

    #[test]
    fn counters_merge_and_delta_cover_all_fields() {
        let a = EngineCounters {
            cache_lookups: 5,
            cache_hits: 3,
            cache_stores: 2,
            recomputed: 2,
            dedup_removed: 1,
            stores_skipped: 4,
        };
        let sum = a.merge(&a);
        assert_eq!(sum.cache_lookups, 10);
        assert_eq!(sum.stores_skipped, 8);
        assert_eq!(sum.delta_since(&a), a);
    }

    #[test]
    fn invalidation_forces_recompute() {
        let cfg = TgatConfig::tiny();
        let params = TgatParams::init(cfg, 7).unwrap();
        let (graph, nf, ef) = world(cfg, 12, 80);
        let ctx = GraphContext { graph: &graph, node_features: &nf, edge_features: &ef };
        let mut eng = TgoptEngine::new(&params, ctx, OptConfig::all());
        let _ = eng.embed_batch(&[0], &[50.0]).unwrap();
        let cached = eng.cache().len();
        assert!(cached > 0);
        let removed: usize = (0..12).map(|n| eng.invalidate_node(n)).sum();
        assert_eq!(removed, cached);
        let before = eng.counters();
        let _ = eng.embed_batch(&[0], &[50.0]).unwrap();
        let delta = eng.counters().delta_since(&before);
        assert_eq!(delta.cache_hits, 0, "invalidation must clear reuse");
    }

    #[test]
    fn stats_cover_tgopt_specific_ops() {
        let cfg = TgatConfig::tiny();
        let params = TgatParams::init(cfg, 7).unwrap();
        let (graph, nf, ef) = world(cfg, 12, 80);
        let ctx = GraphContext { graph: &graph, node_features: &nf, edge_features: &ef };
        let mut eng = TgoptEngine::new(&params, ctx, OptConfig::all());
        eng.enable_stats();
        let _ = eng.embed_batch(&[0, 1, 0], &[50.0, 50.0, 50.0]).unwrap();
        let s = eng.stats();
        assert!(s.count(OpKind::DedupFilter) > 0);
        assert!(s.count(OpKind::DedupInvert) > 0);
        assert!(s.count(OpKind::ComputeKeys) > 0);
        assert!(s.count(OpKind::CacheLookup) > 0);
        assert!(s.count(OpKind::CacheStore) > 0);
        assert!(s.count(OpKind::Attention) > 0);
    }
}
