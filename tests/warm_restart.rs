//! Warm restarts: snapshotting the embedding caches to disk and restoring
//! them lets a restarted server skip the Figure 7 hit-rate ramp-up.

use std::sync::Arc;
use tgopt_repro::datasets::{generate, spec_by_name};
use tgopt_repro::tgopt::{pack_key, LayerCaches};
use tgopt_repro::graph::{BatchIter, TemporalGraph};
use tgopt_repro::tensor::Tensor;
use tgopt_repro::tgat::engine::GraphContext;
use tgopt_repro::tgat::{TgatConfig, TgatParams};
use tgopt_repro::tgopt::{persist, OptConfig, TgoptEngine};

/// Regression: invalidating a key and then re-storing it used to leave
/// two FIFO slots behind — the snapshot exported the row twice (inflating
/// the on-disk image and `restored.len()`), and eviction later treated
/// the re-stored entry as old, dropping the *newest* data first.
#[test]
fn restore_after_invalidation_snapshots_each_key_once() {
    let caches = LayerCaches::new(1, true, 4, 2);
    let c1 = caches.layer(1).unwrap();
    let keys: Vec<u64> = (0u32..3).map(|n| pack_key(n, (n + 1) as f32)).collect();
    let rows = Tensor::from_vec(3, 2, vec![0.0; 6]);
    c1.store(&keys, &rows).unwrap();

    // Invalidate the middle key, then re-store it with fresh data.
    let removed = c1.invalidate_node(1);
    assert_eq!(removed, 1);
    let fresh = Tensor::from_vec(1, 2, vec![9.0, 9.0]);
    c1.store(&keys[1..2], &fresh).unwrap();
    assert_eq!(c1.len(), 3);

    // The export — and therefore the snapshot — must carry the key once,
    // with the re-stored row, and the restored cache must agree on len.
    let export = c1.export_fifo_order();
    assert_eq!(export.len(), 3, "duplicate FIFO slot leaked into export");
    let dup = export.iter().filter(|(k, _)| *k == keys[1]).count();
    assert_eq!(dup, 1);
    let row = &export.iter().find(|(k, _)| *k == keys[1]).unwrap().1;
    assert_eq!(row.as_ref(), &[9.0, 9.0], "export must keep the re-stored row");

    let path = std::env::temp_dir().join(format!("tgopt-dedupe-{}.bin", std::process::id()));
    persist::save(&caches, &path).unwrap();
    let restored = persist::load(&path).unwrap();
    std::fs::remove_file(&path).ok();
    assert_eq!(restored.len(), 3, "snapshot round trip must not duplicate rows");

    // Eviction order: the re-stored key is the *youngest* entry. Filling
    // the cache past its 4-slot limit must evict the two untouched old
    // keys before it.
    let more: Vec<u64> = (10u32..13).map(|n| pack_key(n, 1.0)).collect();
    let rows = Tensor::from_vec(3, 2, vec![0.0; 6]);
    c1.store(&more, &rows).unwrap();
    assert!(
        c1.contains(keys[1]),
        "re-stored key evicted as if it were old"
    );
    assert!(!c1.contains(keys[0]) && !c1.contains(keys[2]));
}

#[test]
fn snapshot_restore_continues_with_full_reuse() {
    let spec = spec_by_name("snap-email").unwrap();
    let data = generate(&spec, 0.01, 31).unwrap();
    let cfg = TgatConfig {
        dim: 8,
        edge_dim: data.dim(),
        time_dim: 8,
        n_layers: 2,
        n_heads: 2,
        n_neighbors: 4,
    };
    let params = TgatParams::init(cfg, 9).unwrap();
    let graph = TemporalGraph::from_stream(&data.stream);
    let node_features = Tensor::zeros(data.stream.num_nodes(), cfg.dim);
    let ctx = GraphContext {
        graph: &graph,
        node_features: &node_features,
        edge_features: &data.edge_features,
    };

    // Continuous reference run over the whole stream.
    let mut reference = TgoptEngine::new(&params, ctx, OptConfig::all());
    let mut ref_sums: Vec<f64> = Vec::new();
    for batch in BatchIter::new(&data.stream, 100) {
        let (ns, ts) = batch.targets();
        let h = reference.embed_batch(&ns, &ts).unwrap();
        ref_sums.push(h.as_slice().iter().map(|&v| v as f64).sum());
    }

    // Run A: first half, then snapshot to disk.
    let half = BatchIter::new(&data.stream, 100).num_batches() / 2;
    let mut a = TgoptEngine::new(&params, ctx, OptConfig::all());
    for batch in BatchIter::new(&data.stream, 100).take(half) {
        let (ns, ts) = batch.targets();
        let _ = a.embed_batch(&ns, &ts).unwrap();
    }
    let path = std::env::temp_dir().join(format!("tgopt-warm-{}.bin", std::process::id()));
    persist::save(a.cache(), &path).unwrap();
    let warm_items = a.cache().len();
    drop(a); // "process exits"

    // Run B: restore and continue from the second half.
    let restored = persist::load(&path).unwrap();
    std::fs::remove_file(&path).ok();
    assert_eq!(restored.len(), warm_items, "snapshot captured everything");
    let mut b = TgoptEngine::with_cache(
        &params,
        ctx,
        OptConfig::all(),
        Arc::new(restored),
        Default::default(),
    );
    for (i, batch) in BatchIter::new(&data.stream, 100).enumerate().skip(half) {
        let (ns, ts) = batch.targets();
        let h = b.embed_batch(&ns, &ts).unwrap();
        let sum: f64 = h.as_slice().iter().map(|&v| v as f64).sum();
        let drift = (sum - ref_sums[i]).abs() / ref_sums[i].abs().max(1.0);
        assert!(drift < 1e-9, "batch {i}: restored run diverged (drift {drift:.2e})");
    }
    // The restored run must reuse, not rebuild: its stores are far fewer
    // than the warm set it inherited.
    let c = b.counters();
    assert!(c.cache_hits > 0, "restored cache must serve hits");
    assert!(
        (c.cache_stores as usize) < warm_items,
        "restored run should mostly reuse ({} stores vs {} inherited)",
        c.cache_stores,
        warm_items
    );
}
