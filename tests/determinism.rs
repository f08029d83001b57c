//! Determinism: everything in the pipeline is reproducible from seeds —
//! generation, initialization, both engines, and the deterministic
//! serving mode.

use std::sync::Arc;
use tgopt_repro::datasets::{generate, spec_by_name};
use tgopt_repro::graph::{BatchIter, TemporalGraph};
use tgopt_repro::serve::{ModelBundle, ServeConfig, TgServer};
use tgopt_repro::tensor::Tensor;
use tgopt_repro::tgat::engine::GraphContext;
use tgopt_repro::tgat::{BaselineEngine, TgatConfig, TgatParams};
use tgopt_repro::tgopt::{OptConfig, TgoptEngine};

fn full_replay(seed: u64, opt: Option<OptConfig>) -> Vec<f32> {
    let spec = spec_by_name("snap-email").unwrap();
    let data = generate(&spec, 0.004, seed).unwrap();
    let cfg = TgatConfig {
        dim: 8,
        edge_dim: data.dim(),
        time_dim: 8,
        n_layers: 2,
        n_heads: 2,
        n_neighbors: 4,
    };
    let params = TgatParams::init(cfg, seed).unwrap();
    let graph = TemporalGraph::from_stream(&data.stream);
    let node_features = Tensor::zeros(data.stream.num_nodes(), cfg.dim);
    let ctx = GraphContext {
        graph: &graph,
        node_features: &node_features,
        edge_features: &data.edge_features,
    };
    let mut out = Vec::new();
    match opt {
        None => {
            let mut eng = BaselineEngine::new(&params, ctx);
            for batch in BatchIter::new(&data.stream, 100) {
                let (ns, ts) = batch.targets();
                out.extend_from_slice(eng.embed_batch(&ns, &ts).as_slice());
            }
        }
        Some(opt) => {
            let mut eng = TgoptEngine::new(&params, ctx, opt);
            for batch in BatchIter::new(&data.stream, 100) {
                let (ns, ts) = batch.targets();
                out.extend_from_slice(eng.embed_batch(&ns, &ts).unwrap().as_slice());
            }
        }
    }
    out
}

#[test]
fn baseline_replay_is_bitwise_deterministic() {
    assert_eq!(full_replay(11, None), full_replay(11, None));
}

#[test]
fn tgopt_replay_is_bitwise_deterministic() {
    let opt = OptConfig::all();
    assert_eq!(full_replay(11, Some(opt)), full_replay(11, Some(opt)));
}

/// Replays the stream's targets through a deterministic server: each
/// batch is submitted whole, the first half of its edges ingested live
/// mid-batch, then drained.
fn served_replay(seed: u64) -> Vec<f32> {
    let spec = spec_by_name("snap-email").unwrap();
    let data = generate(&spec, 0.004, seed).unwrap();
    let cfg = TgatConfig {
        dim: 8,
        edge_dim: data.dim(),
        time_dim: 8,
        n_layers: 2,
        n_heads: 2,
        n_neighbors: 4,
    };
    let params = TgatParams::init(cfg, seed).unwrap();
    let edges = data.stream.edges();
    let (base, live) = edges.split_at(edges.len() / 2);
    let mut graph = TemporalGraph::with_nodes(data.stream.num_nodes());
    for e in base {
        graph.insert(e);
    }
    let node_features = Tensor::zeros(data.stream.num_nodes(), cfg.dim);
    let bundle = ModelBundle::new(params, graph, node_features, data.edge_features).unwrap();
    let serve_cfg = ServeConfig::default()
        .with_max_batch(37)
        .with_queue_capacity(4096)
        .with_live_ingest(true)
        .with_compact_threshold(64);
    let server = TgServer::deterministic(Arc::new(bundle), serve_cfg).unwrap();
    let mut out = Vec::new();
    for batch in BatchIter::new(&data.stream, 100) {
        let (ns, ts) = batch.targets();
        let tickets = server.submit_many(&ns, &ts).unwrap();
        for e in live.iter().skip(batch.index * 50).take(50) {
            server.submit_edge(e.src, e.dst, e.time).unwrap();
        }
        server.drain().unwrap();
        for ticket in tickets {
            out.extend_from_slice(&ticket.wait().unwrap());
        }
    }
    server.shutdown();
    out
}

#[test]
fn deterministic_server_replay_is_bitwise_reproducible() {
    let a = served_replay(11);
    assert!(!a.is_empty() && a.iter().all(|x| x.is_finite()));
    assert_eq!(a, served_replay(11));
}

#[test]
fn different_seeds_produce_different_embeddings() {
    assert_ne!(full_replay(11, None), full_replay(12, None));
}
