//! Concurrent ingest + query stress: real threads hammer a live-ingest
//! server while a checker thread reads snapshots, then quiescent-state
//! invariants are verified:
//!
//! * **No torn epoch reads** — every `GraphView` taken mid-run has a
//!   monotonically advancing epoch and internally consistent postings
//!   (each visible edge contributes exactly two adjacency entries, so a
//!   half-published edge would break the count identity).
//! * **Cache accounting identity** — at quiescence, every admitted row is
//!   accounted for: `inserted == evictions + invalidated + len`.
//! * **No stale survivors** — targeted invalidation may retain entries,
//!   but every layer-1 entry still cached after the run must equal a
//!   from-scratch recompute over the fully-rebuilt graph (a one-layer
//!   engine is the oracle: the layer-1 cache stores exactly the layer-1
//!   embedding of its `(node, time)` key).
//! * **Caches drain to zero** — an invalidator sweeps every node while
//!   the run is live; at quiescence a second full sweep must leave every
//!   layer's cache empty (an underflowing count or a leaked entry would
//!   show up as a nonzero length).
//!
//! A second scenario drives a threaded server over a generated dataset
//! with several clients using `submit_many`, an ingester and a per-node
//! invalidator, then audits the books: edge ids stay sequential, every
//! ticket resolves, stats and telemetry agree, and a full sweep drains
//! the cache.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use tgopt_repro::datasets::{generate, spec_by_name};
use tgopt_repro::graph::{Edge, EdgeStream, NodeId, TemporalGraph, Time};
use tgopt_repro::serve::{ModelBundle, ServeConfig, TgServer};
use tgopt_repro::tensor::{init, Tensor};
use tgopt_repro::tgat::engine::GraphContext;
use tgopt_repro::tgat::{TgatConfig, TgatParams};
use tgopt_repro::tgopt::{unpack_key, OptConfig, TgoptEngine};

const N_NODES: usize = 16;
const N_BASE: usize = 100;
const N_POOL: usize = 120;
const QUERY_THREADS: usize = 3;
const QUERIES_PER_THREAD: usize = 400;

fn build_world() -> (Arc<ModelBundle>, Vec<Edge>) {
    let cfg = TgatConfig::tiny();
    let params = TgatParams::init(cfg, 13).unwrap();
    let mut srcs = Vec::new();
    let mut dsts = Vec::new();
    let mut times = Vec::new();
    for i in 0..N_BASE {
        srcs.push((i % N_NODES) as NodeId);
        dsts.push(((i * 5 + 2) % N_NODES) as NodeId);
        times.push((i + 1) as Time);
    }
    let stream = EdgeStream::new(&srcs, &dsts, &times);
    let graph = TemporalGraph::from_stream(&stream);
    let mut rng = init::seeded_rng(3);
    let nf = init::normal(&mut rng, N_NODES, cfg.dim, 0.5);
    let ef = init::normal(&mut rng, N_BASE + N_POOL, cfg.edge_dim, 0.5);
    // Live edges: a mix of fresh (past the base) and out-of-order times,
    // including an occasional self-loop and exact tie.
    let pool: Vec<Edge> = (0..N_POOL)
        .map(|i| Edge {
            src: ((i * 3 + 1) % N_NODES) as NodeId,
            dst: if i % 17 == 0 {
                ((i * 3 + 1) % N_NODES) as NodeId
            } else {
                ((i * 11 + 4) % N_NODES) as NodeId
            },
            time: match i % 4 {
                0 | 1 => 101.0 + i as Time * 0.5,
                2 => 20.25 + i as Time * 0.25,
                _ => ((i % N_BASE) + 1) as Time,
            },
            eid: (N_BASE + i) as u32,
        })
        .collect();
    (Arc::new(ModelBundle::new(params, graph, nf, ef).unwrap()), pool)
}

/// Raises its flag when dropped, including during a panic unwind.
struct SetOnDrop<'a>(&'a AtomicBool);

impl Drop for SetOnDrop<'_> {
    fn drop(&mut self) {
        self.0.store(true, Ordering::Release);
    }
}

#[test]
fn concurrent_ingest_and_queries_hold_invariants() {
    let (bundle, pool) = build_world();
    let k = bundle.params.cfg.n_neighbors;
    let mut cfg = ServeConfig::default()
        .with_max_batch(16)
        .with_workers(QUERY_THREADS)
        .with_queue_capacity(100_000)
        .with_live_ingest(true)
        .with_compact_threshold(48);
    // Cache the last layer too: the deep-entry oracle below checks that
    // the constraint-tracked sweep never retained a stale layer-2 entry.
    cfg.opt.cache_last_layer = true;
    let server = TgServer::threaded(Arc::clone(&bundle), cfg).unwrap();

    let writer_done = AtomicBool::new(false);
    std::thread::scope(|scope| {
        let server = &server;
        let pool = &pool;
        let writer_done = &writer_done;

        scope.spawn(move || {
            // Released on unwind too: a failed assertion here must fail
            // the test, not leave the snapshot checker spinning forever.
            let _done = SetOnDrop(writer_done);
            for e in pool {
                let eid = server.submit_edge(e.src, e.dst, e.time).unwrap();
                assert_eq!(eid, e.eid, "edge ids must be assigned in submission order");
                std::thread::yield_now();
            }
        });

        // Snapshot checker: epochs advance monotonically and no view ever
        // exposes a half-published edge (every visible edge posts exactly
        // two adjacency entries, self-loops included).
        scope.spawn(move || {
            let mut last_epoch = 0u64;
            while !writer_done.load(Ordering::Acquire) {
                let v = server.live_view().unwrap();
                let epoch = v.epoch();
                assert!(epoch >= last_epoch, "epoch went backwards: {last_epoch} -> {epoch}");
                last_epoch = epoch;
                let postings: usize =
                    (0..N_NODES).map(|n| v.hist_len_before(n as NodeId, 1e9)).sum();
                assert_eq!(
                    postings as u64,
                    2 * v.num_edges(),
                    "torn view at epoch {epoch}: posting count does not match visible edges"
                );
                std::thread::yield_now();
            }
        });

        // Per-node invalidation racing the ingest sweeps and the stores.
        scope.spawn(move || {
            for node in 0..N_NODES {
                server.invalidate_node(node as NodeId);
                std::thread::yield_now();
            }
        });

        for c in 0..QUERY_THREADS {
            scope.spawn(move || {
                let mut rng = StdRng::seed_from_u64(0xace + c as u64);
                for _ in 0..QUERIES_PER_THREAD {
                    let n = rng.gen_range(0..N_NODES as u32) as NodeId;
                    let t = 1.0 + rng.gen_range(0..400) as Time * 0.5;
                    let ticket = server.submit(n, t).unwrap();
                    let row = ticket.wait().unwrap();
                    assert!(
                        row.iter().all(|x| x.is_finite()),
                        "served row must be finite under concurrent ingest"
                    );
                }
            });
        }
    });

    let final_view = server.live_view().unwrap();
    assert_eq!(final_view.num_edges(), (N_BASE + N_POOL) as u64);
    let ingest = server.ingest_stats().unwrap();
    assert_eq!(ingest.edges_appended, N_POOL as u64);
    assert!(ingest.compactions >= 1, "threshold 48 must compact during a 120-edge ingest");

    let cache = server.shared_cache();
    // Shutdown joins every worker: all stores, sweeps, replays, and counter
    // updates are done before the stats snapshot is taken.
    let stats = server.shutdown();
    assert_eq!(stats.edges_ingested, N_POOL as u64);
    assert_eq!(stats.completed, (QUERY_THREADS * QUERIES_PER_THREAD) as u64);
    assert_eq!(stats.rejected_deadline, 0);
    assert!(stats.submitted >= stats.completed + stats.rejected_deadline);

    // Cache accounting identity at quiescence: every row ever admitted
    // was either evicted, invalidated, or is still resident.
    assert_eq!(
        cache.total_inserted(),
        cache.total_evictions() + cache.total_invalidated() + cache.len() as u64,
        "cache accounting identity violated"
    );

    // Staleness spot-check: every surviving layer-1 entry must match a
    // cold recompute over the final graph. Targeted invalidation retained
    // these entries as provably fresh — verify that proof held.
    let mut full = TemporalGraph::with_nodes(N_NODES);
    let base_edges: Vec<Edge> = {
        // Rebuild the base stream exactly as build_world constructed it.
        let mut v = Vec::new();
        for i in 0..N_BASE {
            v.push(Edge {
                src: (i % N_NODES) as NodeId,
                dst: ((i * 5 + 2) % N_NODES) as NodeId,
                time: (i + 1) as Time,
                eid: i as u32,
            });
        }
        v
    };
    for e in base_edges.iter().chain(&pool) {
        full.insert(e);
    }
    full.freeze();

    let cfg1 = TgatConfig { n_layers: 1, ..bundle.params.cfg };
    assert_eq!(cfg1.n_neighbors, k);
    let params1 = TgatParams {
        cfg: cfg1,
        layers: vec![bundle.params.layers[0].clone()],
        time: bundle.params.time.clone(),
        predictor: bundle.params.predictor.clone(),
    };
    let ctx = GraphContext {
        graph: &full,
        node_features: &bundle.node_features,
        edge_features: &bundle.edge_features,
    };
    let mut oracle = TgoptEngine::new(&params1, ctx, OptConfig::all());

    let layer1 = cache.layer(1).expect("layer-1 cache exists for a 2-layer model");
    let entries = layer1.export_fifo_order();
    assert!(!entries.is_empty(), "stress run must leave layer-1 entries to spot-check");
    let sample: Vec<_> = entries.iter().take(256).collect();
    let (ns, ts): (Vec<NodeId>, Vec<Time>) =
        sample.iter().map(|(key, _)| unpack_key(*key)).unzip();
    let h = oracle.embed_batch(&ns, &ts).unwrap();
    for (i, (key, row)) in sample.iter().enumerate() {
        let (n, t) = unpack_key(*key);
        let diff = row
            .iter()
            .zip(h.row(i))
            .map(|(a, b)| (a - b).abs())
            .fold(0.0f32, f32::max);
        assert!(
            diff < 1e-5,
            "stale layer-1 entry survived: ({n}, {t}) deviates from recompute by {diff}"
        );
    }

    // Deep-entry oracle: layer-2 entries survive sweeps only when their
    // recorded fingerprint proves the new edges missed their sample — so
    // every survivor must equal the full two-layer recompute of its key.
    let mut oracle2 = TgoptEngine::new(&bundle.params, ctx, OptConfig::all());
    let layer2 = cache.layer(2).expect("last layer cached under cache_last_layer");
    let entries2 = layer2.export_fifo_order();
    assert!(
        !entries2.is_empty(),
        "stress run must leave layer-2 entries to spot-check"
    );
    let sample2: Vec<_> = entries2.iter().take(256).collect();
    let (ns2, ts2): (Vec<NodeId>, Vec<Time>) =
        sample2.iter().map(|(key, _)| unpack_key(*key)).unzip();
    let h2 = oracle2.embed_batch(&ns2, &ts2).unwrap();
    for (i, (key, row)) in sample2.iter().enumerate() {
        let (n, t) = unpack_key(*key);
        let diff = row
            .iter()
            .zip(h2.row(i))
            .map(|(a, b)| (a - b).abs())
            .fold(0.0f32, f32::max);
        assert!(
            diff < 1e-5,
            "stale layer-2 entry survived the fingerprint sweep: ({n}, {t}) deviates by {diff}"
        );
    }

    // Quiesced: a full per-node sweep empties every layer's cache, and
    // the accounting identity still balances with nothing resident.
    for node in 0..N_NODES {
        cache.invalidate_node(node as NodeId);
    }
    for l in [1, 2] {
        let layer = cache.layer(l).unwrap();
        assert_eq!(layer.len(), 0, "layer-{l} cache not drained by a full sweep");
    }
    assert_eq!(cache.len(), 0);
    assert_eq!(
        cache.total_inserted(),
        cache.total_evictions() + cache.total_invalidated(),
        "cache accounting identity violated after the drain"
    );
}

/// Bundle over a generated graph with `n_ingest` spare edge-feature rows
/// so live ingest has capacity.
fn generated_bundle(n_ingest: usize) -> (Arc<ModelBundle>, usize, Time) {
    let spec = spec_by_name("snap-email").unwrap();
    let data = generate(&spec, 0.01, 21).unwrap();
    let cfg = TgatConfig {
        dim: 8,
        edge_dim: data.dim(),
        time_dim: 8,
        n_layers: 2,
        n_heads: 2,
        n_neighbors: 4,
    };
    let params = TgatParams::init(cfg, 3).unwrap();
    let graph = TemporalGraph::from_stream(&data.stream);
    let num_nodes = data.stream.num_nodes();
    let max_t = data.stream.max_time();
    let node_features = Tensor::zeros(num_nodes, cfg.dim);
    let base_rows = data.edge_features.rows();
    let mut rng = init::seeded_rng(9);
    let extra = init::normal(&mut rng, n_ingest, data.dim(), 0.5);
    let mut all = Vec::with_capacity((base_rows + n_ingest) * data.dim());
    all.extend_from_slice(data.edge_features.as_slice());
    all.extend_from_slice(extra.as_slice());
    let edge_features = Tensor::from_vec(base_rows + n_ingest, data.dim(), all);
    let b = ModelBundle::new(params, graph, node_features, edge_features).unwrap();
    (Arc::new(b), num_nodes, max_t)
}

#[test]
fn live_serving_under_concurrent_ingest_keeps_the_books() {
    const N_INGEST: usize = 120;
    const CLIENTS: usize = 3;
    const ROUNDS: usize = 6;
    const PER_ROUND: usize = 30;
    let (bundle, num_nodes, max_t) = generated_bundle(N_INGEST);
    let t_query = max_t * 1.01;
    // Queries over sources with history, all past the stream's end.
    let ns: Vec<NodeId> = (0..num_nodes as NodeId)
        .filter(|&n| bundle.graph.degree(n) > 0)
        .cycle()
        .take(PER_ROUND)
        .collect();
    let ts = vec![t_query; PER_ROUND];

    let cfg = ServeConfig::default()
        .with_workers(2)
        .with_queue_capacity(4096)
        .with_live_ingest(true);
    let server = TgServer::threaded(Arc::clone(&bundle), cfg).unwrap();

    std::thread::scope(|scope| {
        let server = &server;
        for _ in 0..CLIENTS {
            let (ns, ts) = (&ns, &ts);
            scope.spawn(move || {
                for _ in 0..ROUNDS {
                    for ticket in server.submit_many(ns, ts).unwrap() {
                        // Live edges land mid-flight, so values shift by
                        // design; every ticket must still resolve cleanly.
                        let row = ticket.wait().unwrap();
                        assert!(row.iter().all(|x| x.is_finite()));
                    }
                }
            });
        }

        // Ingest racing the clients: edge ids come out sequential.
        let base = bundle.graph.num_edges() as usize;
        scope.spawn(move || {
            for i in 0..N_INGEST {
                let src = (i * 7 + 1) as NodeId % num_nodes as NodeId;
                let dst = (i * 11 + 3) as NodeId % num_nodes as NodeId;
                let time = t_query - 0.5 + i as Time * 1e-3;
                let eid = server.submit_edge(src, dst, time).unwrap();
                assert_eq!(eid as usize, base + i, "edge ids must stay sequential");
                if i % 16 == 0 {
                    std::thread::yield_now();
                }
            }
        });

        // And an invalidator sweeping every node.
        scope.spawn(move || {
            for node in 0..num_nodes {
                server.invalidate_node(node as NodeId);
            }
        });
    });

    let live = server.stats();
    assert_eq!(live.edges_ingested, N_INGEST as u64);
    assert!(live.submitted >= live.completed + live.rejected_deadline, "identity violated: {live:?}");

    // Quiesced: a full sweep leaves the cache empty; an underflowing
    // count or a leaked entry would show up as a nonzero length.
    for node in 0..num_nodes {
        server.invalidate_node(node as NodeId);
    }
    let cache = server.shared_cache();
    assert_eq!(cache.len(), 0, "cache not drained by a full sweep");

    let (finals, telemetry) = server.shutdown_with_telemetry();
    assert_eq!(finals.completed, (CLIENTS * ROUNDS * PER_ROUND) as u64);
    assert_eq!(finals.rejected_deadline, 0);
    assert_eq!(finals.submitted, finals.completed);
    // Telemetry is derived from the same counters as the stats.
    assert_eq!(telemetry.serve.submitted, finals.submitted);
    assert_eq!(telemetry.serve.completed, finals.completed);
    assert_eq!(telemetry.ingest.edges_appended, N_INGEST as u64);
    assert_eq!(telemetry.embed_cache.items, 0);
}
