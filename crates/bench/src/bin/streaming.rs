//! Mixed-workload streaming benchmark: query throughput while the graph
//! mutates, versus the same query load on a frozen graph.
//!
//! The generated edge stream is split into a frozen base and a live
//! suffix that is ingested through `TgServer::submit_edge` during the run.
//! Each `--ratios` entry runs `--clients` × `--ops` operations of which
//! exactly `floor(ops * ratio)` per client are edge inserts, spread evenly
//! through the client's sequence; the rest are queries. The suffix is
//! sized to the largest ratio's insert count, so every planned insert has
//! an edge to ingest, and running out of suffix edges is a hard error
//! rather than a silent switch to a query. Each row reports the achieved
//! insert share beside the requested one, throughput, latency
//! percentiles, engine cache hit rate, and the targeted-invalidation
//! precision (entries retained vs dropped). Ratio 0.0 is the frozen-graph
//! baseline (live ingest off).
//!
//! ```sh
//! cargo run --release -p tg-bench --bin streaming -- -d snap-msg --ratios 0,0.05,0.2
//! cargo run --release -p tg-bench --bin streaming -- --verify --json BENCH_streaming.json
//! ```
//!
//! `--verify` additionally ingests the *entire* suffix through a live
//! server (interleaved with cache-populating queries) and checks that
//! embeddings served afterwards match a cold engine over the full
//! rebuilt graph within 1e-5 — the same oracle the equivalence property
//! tests use. Any mismatch exits nonzero, so CI can gate on it.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};
use tg_bench::harness::percentile;
use tg_bench::table;
use tg_graph::{Edge, NodeId, TemporalGraph, Time};
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
    ops_per_client: usize,
    max_batch: usize,
    linger_us: u64,
    workers: usize,
    hot: usize,
    hot_prob: f64,
    ratios: Vec<f64>,
    compact_threshold: usize,
    verify: bool,
    json: Option<String>,
}

impl Default for Opts {
    fn default() -> Self {
        Self {
            dataset: "snap-msg".to_string(),
            scale: 0.05,
            seed: 7,
            dim: 32,
            clients: 4,
            ops_per_client: 1500,
            max_batch: 64,
            linger_us: 200,
            workers: 2,
            hot: 16,
            hot_prob: 0.6,
            ratios: vec![0.0, 0.05, 0.1, 0.2],
            compact_threshold: 96,
            verify: false,
            json: None,
        }
    }
}

const USAGE: &str = "\
Usage: streaming [-d NAME] [--scale F] [--seed N] [--dim N] [--clients N]
                 [--ops N] [--batch N] [--linger-us N] [--workers N]
                 [--hot N] [--hot-prob F] [--ratios LIST]
                 [--compact-threshold N] [--verify] [--json PATH]

Benchmarks tg-serve under a mixed insert/query workload. Each --ratios
entry (comma-separated insert fractions in [0, 1], e.g. 0,0.05,0.2) runs
the client load with exactly that share of operations ingesting edges
from a live suffix of the stream; the suffix holds the largest ratio's
inserts and the rest of the stream is the frozen base. Reports the
achieved insert share, throughput, latency percentiles, engine cache hit
rate, and targeted invalidation precision. --verify replays the full
suffix and checks served embeddings against a cold rebuild (exit 1 on
mismatch); --json writes the per-ratio report.";

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
            "--ops" => o.ops_per_client = num::<f64>(&take("--ops")) as usize,
            "--batch" => o.max_batch = num::<f64>(&take("--batch")) as usize,
            "--linger-us" => o.linger_us = num::<f64>(&take("--linger-us")) as u64,
            "--workers" => o.workers = num::<f64>(&take("--workers")) as usize,
            "--hot" => o.hot = num::<f64>(&take("--hot")) as usize,
            "--hot-prob" => o.hot_prob = num(&take("--hot-prob")),
            "--ratios" => {
                o.ratios = take("--ratios").split(',').map(num).collect();
            }
            "--compact-threshold" => {
                o.compact_threshold = num::<f64>(&take("--compact-threshold")) as usize
            }
            "--verify" => o.verify = true,
            "--json" => o.json = Some(take("--json")),
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
    if let Some(r) = o.ratios.iter().find(|r| !(0.0..=1.0).contains(*r)) {
        eprintln!("error: --ratios entries must lie in [0, 1], got {r}");
        std::process::exit(2);
    }
    o
}

/// Whether operation `j` of a client's sequence is an insert at `ratio`:
/// exactly `floor(ops * ratio)` of the first `ops` operations are, spaced
/// evenly (the running count `floor(j * ratio)` steps up at each one).
fn is_insert(j: usize, ratio: f64) -> bool {
    ((j + 1) as f64 * ratio).floor() > (j as f64 * ratio).floor()
}

/// Inserts one client performs over `ops` operations at `ratio`.
fn inserts_per_client(ops: usize, ratio: f64) -> usize {
    (0..ops).filter(|&j| is_insert(j, ratio)).count()
}

fn num<T: std::str::FromStr>(s: &str) -> T {
    s.parse().unwrap_or_else(|_| {
        eprintln!("error: invalid numeric value {s:?}");
        std::process::exit(2);
    })
}

/// Prints `what: err` and exits. Bench binaries fail loudly with a clean
/// message instead of unwinding a panic through worker threads.
fn fail(what: &str, err: impl std::fmt::Display) -> ! {
    eprintln!("error: {what}: {err}");
    std::process::exit(1);
}

/// One ratio's measured outcome (a row of `BENCH_streaming.json`).
#[derive(serde::Serialize)]
struct RunReport {
    insert_ratio: f64,
    /// `inserts / (queries + inserts)`: the write share the run really had.
    achieved_insert_ratio: f64,
    queries: u64,
    inserts: u64,
    ops_per_s: f64,
    query_p50_us: f64,
    query_p95_us: f64,
    query_p99_us: f64,
    cache_hit_rate: f64,
    edges_appended: u64,
    compactions: u64,
    entries_invalidated: u64,
    entries_retained: u64,
    /// Per-layer sweep split: layer 1 uses the endpoint time-window test,
    /// layers >= 2 the constraint-tracked fingerprint check. A nonzero
    /// deep-layer `retained` is the retention the fingerprints buy over
    /// the old clear-all sweep.
    per_layer: Vec<tg_telemetry::LayerSweepTelemetry>,
}

/// Top-level schema of `--json` output.
#[derive(serde::Serialize)]
struct Report {
    bench: String,
    /// Logical CPUs of the measuring host.
    host_cpus: usize,
    /// `git describe --always --dirty` of the measured tree.
    git_rev: String,
    /// `rustc --version` on the measuring host.
    rustc: String,
    dataset: String,
    scale: f64,
    seed: u64,
    base_edges: usize,
    live_edges: usize,
    clients: usize,
    ops_per_client: usize,
    runs: Vec<RunReport>,
    verify: Option<VerifyReport>,
}

/// Result of the `--verify` equivalence replay.
#[derive(serde::Serialize)]
struct VerifyReport {
    checked_rows: usize,
    max_abs_diff: f64,
    tolerance: f64,
}

/// First line of `cmd args...`'s stdout, or `"unknown"` if it cannot run
/// (no git checkout, no toolchain on `PATH`).
fn tool_output(cmd: &str, args: &[&str]) -> String {
    std::process::Command::new(cmd)
        .args(args)
        .output()
        .ok()
        .filter(|out| out.status.success())
        .map(|out| String::from_utf8_lossy(&out.stdout).trim().to_string())
        .unwrap_or_else(|| "unknown".to_string())
}

/// Runs one mixed workload against a fresh server; returns the report row.
#[allow(clippy::too_many_arguments)]
fn run_ratio(
    bundle: &Arc<ModelBundle>,
    o: &Opts,
    ratio: f64,
    tail: &[Edge],
    hot: &[(NodeId, Time)],
    all: &[(NodeId, Time)],
) -> RunReport {
    let live = ratio > 0.0;
    let total_ops = o.clients * o.ops_per_client;
    let mut cfg_serve = ServeConfig::default()
        .with_max_batch(o.max_batch)
        .with_linger(Duration::from_micros(o.linger_us))
        .with_queue_capacity(total_ops.max(1024))
        .with_workers(o.workers)
        .with_live_ingest(live)
        .with_compact_threshold(o.compact_threshold);
    // Cache the last layer too so the deep-layer fingerprint sweep has
    // entries to defend; its retention is what per_layer reports.
    cfg_serve.opt.cache_last_layer = true;
    let server =
        TgServer::threaded(Arc::clone(bundle), cfg_serve).unwrap_or_else(|e| fail("server start", e));

    // Suffix edges are claimed in stream (time) order across clients.
    let next_edge = AtomicUsize::new(0);
    let start = Instant::now();
    let per_client: Vec<(Vec<f64>, u64, u64)> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..o.clients)
            .map(|c| {
                let server = &server;
                let next_edge = &next_edge;
                scope.spawn(move || {
                    let mut rng = StdRng::seed_from_u64(o.seed ^ (0x5eed + c as u64));
                    let mut lat = Vec::with_capacity(o.ops_per_client);
                    let (mut queries, mut inserts) = (0u64, 0u64);
                    for j in 0..o.ops_per_client {
                        if live && is_insert(j, ratio) {
                            let i = next_edge.fetch_add(1, Ordering::Relaxed);
                            let Some(e) = tail.get(i) else {
                                fail(
                                    "submit_edge",
                                    format!("live suffix exhausted: insert {} of {}", i + 1, tail.len()),
                                );
                            };
                            server
                                .submit_edge(e.src, e.dst, e.time)
                                .unwrap_or_else(|err| fail("submit_edge", err));
                            inserts += 1;
                            continue;
                        }
                        let (n, t) = if rng.gen_bool(o.hot_prob.clamp(0.0, 1.0)) && !hot.is_empty()
                        {
                            hot[rng.gen_range(0..hot.len())]
                        } else {
                            all[rng.gen_range(0..all.len())]
                        };
                        let submitted = Instant::now();
                        match server.submit(n, t) {
                            Ok(ticket) => {
                                let _ = ticket.wait().unwrap_or_else(|e| fail("serve embed", e));
                                lat.push(submitted.elapsed().as_secs_f64() * 1e6);
                            }
                            Err(e) => fail("submission", e),
                        }
                        queries += 1;
                    }
                    (lat, queries, inserts)
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().unwrap_or_else(|_| fail("client thread", "panicked")))
            .collect()
    });
    let elapsed = start.elapsed().as_secs_f64();
    let (_, telemetry) = server.shutdown_with_telemetry();

    let mut lat: Vec<f64> = Vec::new();
    let (mut queries, mut inserts) = (0u64, 0u64);
    for (l, q, i) in per_client {
        lat.extend(l);
        queries += q;
        inserts += i;
    }
    lat.sort_by(|a, b| a.total_cmp(b));
    let eng = &telemetry.engine;
    let hit_rate = if eng.cache_lookups == 0 {
        0.0
    } else {
        eng.cache_hits as f64 / eng.cache_lookups as f64
    };
    RunReport {
        insert_ratio: ratio,
        achieved_insert_ratio: inserts as f64 / (queries + inserts).max(1) as f64,
        queries,
        inserts,
        ops_per_s: (queries + inserts) as f64 / elapsed.max(1e-12),
        query_p50_us: percentile(&lat, 50.0),
        query_p95_us: percentile(&lat, 95.0),
        query_p99_us: percentile(&lat, 99.0),
        cache_hit_rate: hit_rate,
        edges_appended: telemetry.ingest.edges_appended,
        compactions: telemetry.ingest.compactions,
        entries_invalidated: telemetry.ingest.entries_invalidated,
        entries_retained: telemetry.ingest.entries_retained,
        per_layer: telemetry.ingest.per_layer.clone(),
    }
}

/// Ingests the whole suffix through a live server (with interleaved
/// cache-populating queries), then checks embeddings served over the
/// fully-mutated graph against a cold engine on the rebuilt full graph.
fn verify(
    bundle: &Arc<ModelBundle>,
    full_graph: &TemporalGraph,
    o: &Opts,
    tail: &[Edge],
    sample: &[(NodeId, Time)],
) -> VerifyReport {
    let mut cfg_serve = ServeConfig::default()
        .with_max_batch(o.max_batch)
        .with_linger(Duration::from_micros(o.linger_us))
        .with_queue_capacity((sample.len() + tail.len()).max(1024))
        .with_workers(o.workers)
        .with_live_ingest(true)
        .with_compact_threshold(o.compact_threshold);
    // Same caching shape as the measured runs: the oracle must also hold
    // when fingerprinted last-layer entries are being served.
    cfg_serve.opt.cache_last_layer = true;
    let server =
        TgServer::threaded(Arc::clone(bundle), cfg_serve).unwrap_or_else(|e| fail("server start", e));

    // Interleave ingest with queries so the cache holds pre-insert entries
    // the targeted sweep must catch — an empty cache would verify nothing.
    for (i, e) in tail.iter().enumerate() {
        if i % 8 == 0 {
            let (n, t) = sample[i % sample.len()];
            let ticket = server.submit(n, t).unwrap_or_else(|e| fail("verify query", e));
            let _ = ticket.wait().unwrap_or_else(|e| fail("verify embed", e));
        }
        server.submit_edge(e.src, e.dst, e.time).unwrap_or_else(|err| fail("verify ingest", err));
    }

    // Served rows over the live graph, post-ingest.
    let served: Vec<Vec<f32>> = sample
        .iter()
        .map(|&(n, t)| {
            let ticket = server.submit(n, t).unwrap_or_else(|e| fail("verify query", e));
            ticket.wait().unwrap_or_else(|e| fail("verify embed", e))
        })
        .collect();
    drop(server);

    // Cold oracle: a fresh engine over the full graph rebuilt from scratch.
    let ctx = tgat::engine::GraphContext {
        graph: full_graph,
        node_features: &bundle.node_features,
        edge_features: &bundle.edge_features,
    };
    let mut eng = TgoptEngine::new(&bundle.params, ctx, OptConfig::all());
    let ns: Vec<NodeId> = sample.iter().map(|&(n, _)| n).collect();
    let ts: Vec<Time> = sample.iter().map(|&(_, t)| t).collect();
    let h = eng.embed_batch(&ns, &ts).unwrap_or_else(|e| fail("cold embed", e));

    let mut max_diff = 0.0f64;
    for (i, row) in served.iter().enumerate() {
        for (a, b) in row.iter().zip(h.row(i)) {
            max_diff = max_diff.max((*a as f64 - *b as f64).abs());
        }
    }
    let tolerance = 1e-5;
    if max_diff > tolerance {
        fail(
            "streaming equivalence",
            format!("served vs cold-rebuild max abs diff {max_diff:.3e} > {tolerance:.0e}"),
        );
    }
    VerifyReport { checked_rows: served.len(), max_abs_diff: max_diff, tolerance }
}

fn main() {
    let o = parse();
    let spec = tg_datasets::spec_by_name(&o.dataset).unwrap_or_else(|| {
        eprintln!("error: unknown dataset {:?}", o.dataset);
        std::process::exit(2);
    });
    let data =
        tg_datasets::generate(&spec, o.scale, o.seed).unwrap_or_else(|e| fail("dataset generation", e));
    let cfg = TgatConfig {
        dim: o.dim,
        edge_dim: data.dim(),
        time_dim: o.dim,
        n_layers: 2,
        n_heads: 2,
        n_neighbors: 10,
    };
    let params = TgatParams::init(cfg, o.seed).unwrap_or_else(|e| fail("param init", e));

    let edges = data.stream.edges();
    // The live suffix holds exactly the largest ratio's inserts; every
    // ratio runs on the same base so the rows differ only in write share.
    let n_live = o
        .ratios
        .iter()
        .map(|&r| o.clients * inserts_per_client(o.ops_per_client, r))
        .max()
        .unwrap_or(0);
    if n_live >= edges.len() {
        fail(
            "live suffix",
            format!(
                "the ratios need {n_live} live edges but the stream has {}; raise --scale or lower --ops",
                edges.len()
            ),
        );
    }
    if o.verify && n_live == 0 {
        fail("verify", "no live suffix to ingest; --ratios needs a nonzero entry");
    }
    let (base_edges, tail) = edges.split_at(edges.len() - n_live);
    let mut base = TemporalGraph::with_nodes(data.stream.num_nodes());
    for e in base_edges {
        base.insert(e);
    }
    base.freeze();
    let full_graph = TemporalGraph::from_stream(&data.stream);

    let node_features = Tensor::zeros(data.stream.num_nodes(), cfg.dim);
    let t_query = data.stream.max_time() * 1.01;

    // Query points: half just past the stream's end (see every insert),
    // half at historical interaction times (inserts after t never touch
    // them — the retention the targeted sweep is supposed to deliver).
    let all: Vec<(NodeId, Time)> = edges
        .iter()
        .enumerate()
        .map(|(i, e)| (e.src, if i % 2 == 0 { t_query } else { e.time }))
        .collect();
    let hot: Vec<(NodeId, Time)> = all.iter().take(o.hot.max(1)).copied().collect();

    let bundle = Arc::new(
        ModelBundle::new(params, base, node_features, data.edge_features.clone())
            .unwrap_or_else(|e| fail("model bundle", e)),
    );

    println!(
        "dataset {} (scale {}): {} nodes, {} base + {} live edges; {} clients x {} ops, \
         batch {} workers {}",
        o.dataset,
        o.scale,
        data.stream.num_nodes(),
        base_edges.len(),
        tail.len(),
        o.clients,
        o.ops_per_client,
        o.max_batch,
        o.workers
    );

    let mut runs = Vec::new();
    for &ratio in &o.ratios {
        let r = run_ratio(&bundle, &o, ratio, tail, &hot, &all);
        let (deep_removed, deep_retained) = r
            .per_layer
            .iter()
            .filter(|l| l.layer >= 2)
            .fold((0u64, 0u64), |(rm, rt), l| (rm + l.removed, rt + l.retained));
        println!(
            "ratio {:>5.2} (achieved {:.3}): {:>9.1} ops/s  ({} queries, {} inserts)  p50 {:>7.1}us p99 {:>8.1}us  \
             hit {:>5.1}%  inval {} retained {} (deep {}/{})  compactions {}",
            r.insert_ratio,
            r.achieved_insert_ratio,
            r.ops_per_s,
            r.queries,
            r.inserts,
            r.query_p50_us,
            r.query_p99_us,
            100.0 * r.cache_hit_rate,
            r.entries_invalidated,
            r.entries_retained,
            deep_removed,
            deep_retained,
            r.compactions
        );
        runs.push(r);
    }

    let verify_report = if o.verify {
        let mut rng = StdRng::seed_from_u64(o.seed ^ 0xfeed);
        let n_sample = all.len().min(192);
        let sample: Vec<(NodeId, Time)> =
            (0..n_sample).map(|_| all[rng.gen_range(0..all.len())]).collect();
        let v = verify(&bundle, &full_graph, &o, tail, &sample);
        println!(
            "verify    : {} rows vs cold rebuild, max abs diff {:.3e} (tolerance {:.0e})",
            v.checked_rows, v.max_abs_diff, v.tolerance
        );
        Some(v)
    } else {
        None
    };

    if let Some(path) = &o.json {
        let report = Report {
            bench: "streaming".to_string(),
            host_cpus: std::thread::available_parallelism().map_or(1, usize::from),
            git_rev: tool_output("git", &["describe", "--always", "--dirty"]),
            rustc: tool_output("rustc", &["--version"]),
            dataset: o.dataset.clone(),
            scale: o.scale,
            seed: o.seed,
            base_edges: base_edges.len(),
            live_edges: tail.len(),
            clients: o.clients,
            ops_per_client: o.ops_per_client,
            runs,
            verify: verify_report,
        };
        let text =
            serde_json::to_string(&report).unwrap_or_else(|e| fail("report serialization", e));
        if let Err(e) = std::fs::write(path, table::pretty_json(&text) + "\n") {
            eprintln!("error: failed to write {path}: {e}");
            std::process::exit(1);
        }
        println!("wrote {path}");
    }
}
