//! Serving-layer benchmark: throughput and latency percentiles of the
//! micro-batching `tg-serve` front end versus direct `embed_batch` calls
//! on the same workload, plus the cross-request dedup ratio.
//!
//! ```sh
//! cargo run --release -p tg-bench --bin serve -- -d snap-msg --clients 4 --requests 2000
//! cargo run --release -p tg-bench --bin serve -- --verify
//! ```
//!
//! `--verify` replays the query stream through a deterministic
//! [`TgServer`] and fails (exit 1) on any row deviating from a direct
//! engine by ≥1e-5 — the CI smoke proof that serving preserves semantics.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::sync::Arc;
use std::time::{Duration, Instant};
use tg_bench::harness::percentile;
use tg_graph::{NodeId, TemporalGraph, Time};
use tg_serve::{ModelBundle, ServeConfig, TgServer};
use tg_tensor::Tensor;
use tgat::{TgatConfig, TgatParams};
use tgopt::{OptConfig, TgoptEngine};

struct Opts {
    dataset: String,
    scale: f64,
    seed: u64,
    dim: usize,
    clients: usize,
    requests_per_client: usize,
    max_batch: usize,
    linger_us: u64,
    workers: usize,
    hot: usize,
    hot_prob: f64,
    budget_bytes: Option<usize>,
    stats_json: Option<String>,
    verify: bool,
}

impl Default for Opts {
    fn default() -> Self {
        Self {
            dataset: "snap-msg".to_string(),
            scale: 0.02,
            seed: 7,
            dim: 32,
            clients: 4,
            requests_per_client: 1500,
            max_batch: 64,
            linger_us: 200,
            workers: 2,
            hot: 16,
            hot_prob: 0.6,
            budget_bytes: None,
            stats_json: None,
            verify: false,
        }
    }
}

const USAGE: &str = "\
Usage: serve [-d NAME] [--scale F] [--seed N] [--dim N] [--clients N]
             [--requests N] [--batch N] [--linger-us N] [--workers N]
             [--hot N] [--hot-prob F] [--budget-bytes N] [--stats-json PATH]
             [--verify]

Benchmarks the tg-serve layer against direct embed_batch calls on one
generated dataset, reporting throughput, latency percentiles (p50/p95/p99),
and the cross-request dedup ratio. --verify replays the stream through a
deterministic server and fails unless every row matches a direct engine
within 1e-5.";

fn parse() -> Opts {
    let mut o = Opts::default();
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut take = |name: &str| {
            it.next().unwrap_or_else(|| {
                eprintln!("error: {name} needs a value");
                std::process::exit(2);
            })
        };
        match flag.as_str() {
            "-d" | "--dataset" => o.dataset = take("-d"),
            "--scale" => o.scale = num(&take("--scale")),
            "--seed" => o.seed = num::<f64>(&take("--seed")) as u64,
            "--dim" => o.dim = num::<f64>(&take("--dim")) as usize,
            "--clients" => o.clients = num::<f64>(&take("--clients")) as usize,
            "--requests" => o.requests_per_client = num::<f64>(&take("--requests")) as usize,
            "--batch" => o.max_batch = num::<f64>(&take("--batch")) as usize,
            "--linger-us" => o.linger_us = num::<f64>(&take("--linger-us")) as u64,
            "--workers" => o.workers = num::<f64>(&take("--workers")) as usize,
            "--hot" => o.hot = num::<f64>(&take("--hot")) as usize,
            "--hot-prob" => o.hot_prob = num(&take("--hot-prob")),
            "--budget-bytes" => o.budget_bytes = Some(num::<f64>(&take("--budget-bytes")) as usize),
            "--stats-json" => o.stats_json = Some(take("--stats-json")),
            "--verify" => o.verify = true,
            "-h" | "--help" => {
                eprintln!("{USAGE}");
                std::process::exit(0);
            }
            other => {
                eprintln!("error: unknown flag {other}\n{USAGE}");
                std::process::exit(2);
            }
        }
    }
    o
}

fn num<T: std::str::FromStr>(s: &str) -> T {
    s.parse().unwrap_or_else(|_| {
        eprintln!("error: invalid numeric value {s:?}");
        std::process::exit(2);
    })
}

/// Per-client query stream: mostly-hot targets (mimicking production skew,
/// which is what cross-request dedup exploits) plus a random tail.
fn query_stream(
    seed: u64,
    n: usize,
    hot_prob: f64,
    hot: &[(NodeId, Time)],
    all: &[(NodeId, Time)],
) -> Vec<(NodeId, Time)> {
    let mut rng = StdRng::seed_from_u64(seed);
    (0..n)
        .map(|_| {
            if rng.gen_bool(hot_prob.clamp(0.0, 1.0)) && !hot.is_empty() {
                hot[rng.gen_range(0..hot.len())]
            } else {
                all[rng.gen_range(0..all.len())]
            }
        })
        .collect()
}

/// Prints `what: err` and exits. Bench binaries fail loudly with a clean
/// message instead of unwinding a panic through worker threads.
fn fail(what: &str, err: impl std::fmt::Display) -> ! {
    eprintln!("error: {what}: {err}");
    std::process::exit(1);
}

fn serve_config(o: &Opts, total_requests: usize) -> ServeConfig {
    let mut cfg = ServeConfig::default()
        .with_max_batch(o.max_batch)
        .with_linger(Duration::from_micros(o.linger_us))
        .with_queue_capacity(total_requests.max(1024))
        .with_workers(o.workers)
        .with_stage_spans(o.stats_json.is_some());
    if let Some(b) = o.budget_bytes {
        cfg = cfg.with_memory_budget(b);
    }
    cfg
}

/// One measured pass through a threaded [`TgServer`]: every client thread
/// submits its stream closed-loop (one request in flight per client).
/// Returns request latencies in µs (sorted), the wall time in seconds, and
/// the final stats/telemetry.
fn run_served(
    o: &Opts,
    bundle: &Arc<ModelBundle>,
    streams: &[Vec<(NodeId, Time)>],
) -> (Vec<f64>, f64, tg_serve::ServeStats, tg_telemetry::TelemetrySnapshot) {
    let total_requests: usize = streams.iter().map(Vec::len).sum();
    let server = TgServer::threaded(Arc::clone(bundle), serve_config(o, total_requests))
        .unwrap_or_else(|e| fail("server start", e));

    let start = Instant::now();
    let mut latencies_us: Vec<f64> = std::thread::scope(|scope| {
        let handles: Vec<_> = streams
            .iter()
            .map(|stream| {
                let server = &server;
                scope.spawn(move || {
                    let mut lat = Vec::with_capacity(stream.len());
                    for &(n, t) in stream {
                        let submitted = Instant::now();
                        match server.submit(n, t) {
                            Ok(ticket) => {
                                let _ = ticket.wait().unwrap_or_else(|e| fail("serve embed", e));
                                lat.push(submitted.elapsed().as_secs_f64() * 1e6);
                            }
                            Err(e) => fail("submission", e),
                        }
                    }
                    lat
                })
            })
            .collect();
        handles
            .into_iter()
            .flat_map(|h| h.join().unwrap_or_else(|_| fail("client thread", "panicked")))
            .collect()
    });
    let seconds = start.elapsed().as_secs_f64();
    let (stats, telemetry) = server.shutdown_with_telemetry();
    latencies_us.sort_by(|a, b| a.total_cmp(b));
    (latencies_us, seconds, stats, telemetry)
}

/// `--verify`: the deterministic server must serve every query
/// identically (≤ 1e-5) to one direct engine over the same stream.
fn run_verify(o: &Opts, bundle: &Arc<ModelBundle>, streams: &[Vec<(NodeId, Time)>]) {
    let queries: Vec<(NodeId, Time)> = streams.iter().flatten().copied().collect();
    let cfg = ServeConfig::default()
        .with_max_batch(o.max_batch)
        .with_queue_capacity(queries.len() + 1);
    let server = TgServer::deterministic(Arc::clone(bundle), cfg)
        .unwrap_or_else(|e| fail("server start", e));

    let mut tickets = Vec::with_capacity(queries.len());
    for (i, &(n, t)) in queries.iter().enumerate() {
        tickets.push(server.submit(n, t).unwrap_or_else(|e| fail("submission", e)));
        // Drain at a stride co-prime with common batch sizes so the last
        // wave of each drain is cut at varying fill levels.
        if i % 97 == 96 {
            server.drain().unwrap_or_else(|e| fail("drain", e));
        }
    }
    server.drain().unwrap_or_else(|e| fail("drain", e));

    let ns: Vec<NodeId> = queries.iter().map(|&(n, _)| n).collect();
    let ts: Vec<Time> = queries.iter().map(|&(_, t)| t).collect();
    let mut eng = TgoptEngine::new(&bundle.params, bundle.context(), OptConfig::all());
    let expected = eng.embed_batch(&ns, &ts).unwrap_or_else(|e| fail("direct embed", e));

    let mut max_diff = 0.0f32;
    for (i, ticket) in tickets.into_iter().enumerate() {
        let got = ticket.wait().unwrap_or_else(|e| fail("serve embed", e));
        let diff = got
            .iter()
            .zip(expected.row(i))
            .map(|(a, b)| (a - b).abs())
            .fold(0.0f32, f32::max);
        max_diff = max_diff.max(diff);
        if diff >= 1e-5 {
            eprintln!(
                "verify: FAIL at row {i} (node {}, t {}): served row deviates by {diff}",
                ns[i], ts[i]
            );
            std::process::exit(1);
        }
    }
    let stats = server.shutdown();
    if stats.completed != queries.len() as u64 {
        eprintln!(
            "verify: FAIL: {} completed of {} submitted",
            stats.completed,
            queries.len()
        );
        std::process::exit(1);
    }
    println!(
        "verify: PASS — {} served queries match a direct engine; max |Δ| = {max_diff:.2e}",
        queries.len(),
    );
}

fn main() {
    let o = parse();
    let spec = tg_datasets::spec_by_name(&o.dataset).unwrap_or_else(|| {
        eprintln!("error: unknown dataset {:?}", o.dataset);
        std::process::exit(2);
    });
    let data = tg_datasets::generate(&spec, o.scale, o.seed).unwrap_or_else(|e| fail("dataset generation", e));
    let cfg = TgatConfig {
        dim: o.dim,
        edge_dim: data.dim(),
        time_dim: o.dim,
        n_layers: 2,
        n_heads: 2,
        n_neighbors: 10,
    };
    let params = TgatParams::init(cfg, o.seed).unwrap_or_else(|e| fail("param init", e));
    let graph = TemporalGraph::from_stream(&data.stream);
    let node_features = Tensor::zeros(data.stream.num_nodes(), cfg.dim);
    let t_query = data.stream.max_time() * 1.01;

    // Candidate targets: sources of the stream, queried just past the end.
    let all: Vec<(NodeId, Time)> =
        data.stream.edges().iter().map(|e| (e.src, t_query)).collect();
    let hot: Vec<(NodeId, Time)> = all.iter().take(o.hot.max(1)).copied().collect();

    let bundle = Arc::new(
        ModelBundle::new(params, graph, node_features, data.edge_features.clone())
            .unwrap_or_else(|e| fail("model bundle", e)),
    );

    let streams: Vec<Vec<(NodeId, Time)>> = (0..o.clients)
        .map(|c| query_stream(o.seed + c as u64 + 1, o.requests_per_client, o.hot_prob, &hot, &all))
        .collect();
    let total_requests = o.clients * o.requests_per_client;

    println!(
        "dataset {} (scale {}): {} nodes, {} edges; {} clients x {} requests, \
         batch {} linger {}us workers {}",
        o.dataset,
        o.scale,
        data.stream.num_nodes(),
        data.stream.len(),
        o.clients,
        o.requests_per_client,
        o.max_batch,
        o.linger_us,
        o.workers,
    );

    if o.verify {
        run_verify(&o, &bundle, &streams);
        return;
    }

    // ---- Direct path: one engine, caller-formed batches of max_batch. ----
    let direct_seconds = {
        let mut eng = TgoptEngine::new(&bundle.params, bundle.context(), OptConfig::all());
        let start = Instant::now();
        for stream in &streams {
            for chunk in stream.chunks(o.max_batch.max(1)) {
                let ns: Vec<NodeId> = chunk.iter().map(|&(n, _)| n).collect();
                let ts: Vec<Time> = chunk.iter().map(|&(_, t)| t).collect();
                let _ = eng.embed_batch(&ns, &ts).unwrap_or_else(|e| fail("direct embed", e));
            }
        }
        start.elapsed().as_secs_f64()
    };
    let direct_req_per_s = total_requests as f64 / direct_seconds;
    println!(
        "direct    : {:>9.1} req/s  ({} requests in {:.3}s, sequential)",
        direct_req_per_s, total_requests, direct_seconds
    );

    // ---- Served path: one threaded server. ----
    let (latencies_us, seconds, stats, telemetry) = run_served(&o, &bundle, &streams);
    println!(
        "served    : {:>9.1} req/s  p50 {:>8.1}us  p95 {:>8.1}us  p99 {:>8.1}us",
        total_requests as f64 / seconds,
        percentile(&latencies_us, 50.0),
        percentile(&latencies_us, 95.0),
        percentile(&latencies_us, 99.0),
    );
    println!(
        "batching  : {} batches, mean size {:.1}, cross-request dedup ratio {:.1}%",
        stats.batches,
        stats.mean_batch_size(),
        100.0 * stats.cross_dedup_ratio()
    );
    println!(
        "admission : {} submitted, {} overloaded, {} deadline-expired, {} degraded batches",
        stats.submitted, stats.rejected_overload, stats.rejected_deadline, stats.degraded_batches
    );
    if let Some(path) = &o.stats_json {
        let text = serde_json::to_string(&telemetry).unwrap_or_else(|e| fail("telemetry snapshot serialization", e));
        if let Err(e) = std::fs::write(path, tg_bench::table::pretty_json(&text) + "\n") {
            eprintln!("error: failed to write {path}: {e}");
            std::process::exit(1);
        }
        println!("wrote {path}");
    }
}
