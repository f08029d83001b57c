//! `replay`: the paper's §5.1 task. `snap-msg` at full scale is embedded
//! in chronological batches of 200 edges (both endpoints of every edge)
//! through `TgoptEngine::embed_batch` with `OptConfig::all()`, offline on
//! one thread. Each pass starts from a fresh engine, as the paper's does,
//! and passes repeat until the run's seconds are used.
//!
//! End-to-end: `throughput_per_s` is the edges of every timed pass over the
//! total time of their `embed_batch` calls; `latency_p50_us` is the
//! nearest-rank median over every timed `embed_batch` call. The median
//! pass and the tail percentiles are printed beside them.
//! Referee: a seeded sample of batches is recomputed by the stateless
//! `BaselineEngine` and every pass's rows for them must match within 1e-5.

use crate::loadgen::{median, Summary};
use crate::report::{ratio, Failures, Metrics, Outcome, END_TO_END, PER_LAYER};
use crate::trace::{next_id, Spans};
use crate::world::{self, Params, BATCH_EDGES};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::time::{Duration, Instant};
use tg_datasets::Dataset;
use tg_graph::{BatchIter, TemporalGraph};
use tg_telemetry::Recorder;
use tgat::engine::GraphContext;
use tgat::{BaselineEngine, TgatParams};
use tgopt::{EngineCounters, OptConfig, TgoptEngine};

pub const DATASET: &str = "snap-msg";
/// Batches the baseline referee recomputes per run.
const REFEREE_BATCHES: usize = 4;

struct World {
    data: Dataset,
    params: TgatParams,
    graph: TemporalGraph,
}

impl World {
    fn ctx(&self) -> GraphContext<'_> {
        GraphContext {
            graph: &self.graph,
            node_features: &self.data.node_features,
            edge_features: &self.data.edge_features,
        }
    }
}

fn setup(p: &Params, spans: &mut Spans) -> Result<World, String> {
    let data = world::dataset(DATASET, p, spans)?;
    let params = world::model(&data);
    let graph = world::graph(&data.stream, spans);
    let w = World {
        data,
        params,
        graph,
    };
    // Engine start is part of set-up; each timed pass builds its own.
    drop(TgoptEngine::new(&w.params, w.ctx(), OptConfig::all()));
    Ok(w)
}

/// What one measured phase (a sequence of passes) observed.
struct Phase {
    edges_per_s: Vec<f64>,
    /// Every timed `embed_batch` call (µs), in call order.
    batch_us: Vec<f64>,
    embed_s: f64,
    edges: u64,
    targets: u64,
    attempted: u64,
    failures: Failures,
    stages: Recorder,
    counters: EngineCounters,
    time_cache: (u64, u64),
    checked_rows: u64,
    max_abs_diff: f64,
    setup_s: f64,
    spans: Spans,
    layer: Metrics,
}

fn phase(p: &Params, seconds: f64, traced: bool) -> Result<Phase, String> {
    let mut spans = Spans::new(traced);
    let (w, setup_s) = world::timed_setups(|| setup(p, &mut spans))?;
    let n_batches = BatchIter::new(&w.data.stream, BATCH_EDGES).num_batches();
    let mut rng = StdRng::seed_from_u64(p.seed ^ 0x7e_fe7e);
    let mut sampled: Vec<usize> = (0..REFEREE_BATCHES.min(n_batches))
        .map(|_| rng.gen_range(0..n_batches))
        .collect();
    sampled.sort_unstable();
    sampled.dedup();

    let mut ph = Phase {
        edges_per_s: Vec::new(),
        batch_us: Vec::new(),
        embed_s: 0.0,
        edges: 0,
        targets: 0,
        attempted: 0,
        failures: Failures::default(),
        stages: if traced {
            Recorder::enabled()
        } else {
            Recorder::disabled()
        },
        counters: EngineCounters::default(),
        time_cache: (0, 0),
        checked_rows: 0,
        max_abs_diff: 0.0,
        setup_s,
        spans,
        layer: Metrics::registered(PER_LAYER),
    };
    // Rows of the sampled batches, from every pass.
    let mut kept: Vec<(usize, tg_tensor::Tensor)> = Vec::new();
    // Every timed pass starts from a fresh engine and a cold cache.
    let deadline = Instant::now() + Duration::from_secs_f64(seconds);
    let last = loop {
        let mut eng = TgoptEngine::new(&w.params, w.ctx(), OptConfig::all());
        if traced {
            eng.enable_stats();
        }
        let pass = next_id();
        let (mut pass_s, mut pass_edges) = (0.0f64, 0u64);
        for batch in BatchIter::new(&w.data.stream, BATCH_EDGES) {
            let (ns, ts) = batch.targets();
            let start = Instant::now();
            let out = eng.embed_batch(&ns, &ts);
            let end = Instant::now();
            ph.attempted += 1;
            ph.spans
                .record((pass, next_id(), 0), "TgoptEngine::embed_batch", start, end);
            match out {
                Ok(h) => {
                    let dt = (end - start).as_secs_f64();
                    pass_s += dt;
                    pass_edges += batch.len() as u64;
                    ph.targets += ns.len() as u64;
                    ph.batch_us.push(dt * 1e6);
                    if sampled.binary_search(&batch.index).is_ok() {
                        kept.push((batch.index, h));
                    }
                }
                Err(e) => ph.failures.record(&e),
            }
        }
        ph.edges_per_s.push(pass_edges as f64 / pass_s.max(1e-12));
        ph.embed_s += pass_s;
        ph.edges += pass_edges;
        ph.stages.merge(eng.stats());
        ph.counters = ph.counters.merge(&eng.counters());
        let (hits, misses) = eng.time_cache_stats();
        ph.time_cache = (ph.time_cache.0 + hits, ph.time_cache.1 + misses);
        if Instant::now() >= deadline {
            break eng;
        }
    };
    if traced {
        let span_s = ph.spans.total_secs("TgoptEngine::embed_batch");
        world::stage_metrics(&ph.stages.breakdown(), span_s, &mut ph.layer);
        let cfg = w.params.cfg;
        world::engine_metrics(
            &ph.counters,
            ph.time_cache,
            last.cache(),
            ph.targets,
            &cfg,
            &mut ph.layer,
        );
        world::setup_layer_metrics(&ph.spans, &mut ph.layer);
    }
    drop(last);

    // Referee, off the timed path: the baseline recomputes each sampled batch.
    let mut base = BaselineEngine::new(&w.params, w.ctx());
    let batches: Vec<_> = BatchIter::new(&w.data.stream, BATCH_EDGES).collect();
    for &bi in &sampled {
        let (ns, ts) = batches[bi].targets();
        let want = base.embed_batch(&ns, &ts);
        let want = &want;
        let pairs = kept
            .iter()
            .filter(|(i, _)| *i == bi)
            .flat_map(|(_, got)| (0..got.rows()).map(move |r| (got.row(r), want.row(r))));
        let (max, bad, rows) = world::compare(pairs);
        ph.max_abs_diff = ph.max_abs_diff.max(max);
        ph.failures.mismatch += bad;
        ph.checked_rows += rows;
    }
    Ok(ph)
}

impl Phase {
    /// Percentiles over every timed call, and edges per second of
    /// embedding work.
    fn figures(&self) -> (Summary, f64) {
        (
            Summary::of(&self.batch_us),
            self.edges as f64 / self.embed_s.max(1e-12),
        )
    }
}

pub fn run(p: &Params) -> Result<Outcome, String> {
    let mut out = Outcome {
        end_to_end: Metrics::registered(END_TO_END),
        ..Outcome::default()
    };
    let (reference, traced) = world::halves(p, |seconds, traced| phase(p, seconds, traced))?;

    let (lat, edges_per_s) = reference.figures();
    let e2e = &mut out.end_to_end;
    e2e.set("setup_s", reference.setup_s);
    e2e.set("throughput_per_s", edges_per_s);
    e2e.set("latency_p50_us", lat.p50);
    e2e.set("peak_rss_mib", world::peak_rss_mib());

    let named = &mut out.named;
    named.put("edges_per_s", edges_per_s, "edges/s");
    named.put(
        "edges_per_s_median_pass",
        median(&reference.edges_per_s),
        "edges/s",
    );
    named.put("passes", reference.edges_per_s.len() as f64, "count");
    named.put("embed_batch_p90_us", lat.p90, "us");
    named.put("embed_batch_p99_us", lat.p99, "us");
    named.put("embed_batch_samples", lat.n as f64, "count");
    named.put("embed_s", reference.embed_s, "s");
    named.put("edges_embedded", reference.edges as f64, "count");

    out.attempted = reference.attempted;
    out.failures = reference.failures;
    out.checked_rows = reference.checked_rows;
    out.max_abs_diff = reference.max_abs_diff;

    if let Some(t) = traced {
        let (tl, traced_eps) = t.figures();
        let mut m = t.layer;
        let batch_ms: Vec<f64> = t.batch_us.iter().map(|u| u / 1e3).collect();
        let s = Summary::of(&batch_ms);
        m.set("engine.embed_batch_ms_p50", s.p50);
        m.set("engine.embed_batch_ms_p99", s.p99);
        m.set("trace.throughput_per_s", traced_eps);
        m.set("trace.latency_p50_us", tl.p50);
        m.set("trace.latency_p90_us", tl.p90);
        m.set("trace.latency_p99_us", tl.p99);
        m.set("untraced.latency_p90_us", lat.p90);
        m.set("untraced.latency_p99_us", lat.p99);
        m.set("trace.overhead_ratio", ratio(edges_per_s, traced_eps) - 1.0);
        out.attempted += t.attempted;
        out.failures.add(&t.failures);
        out.checked_rows += t.checked_rows;
        out.max_abs_diff = out.max_abs_diff.max(t.max_abs_diff);
        out.per_layer = m;
        out.trace_spans = Some(t.spans);
    }

    out.provenance
        .push(("dataset".into(), world::dataset_provenance(DATASET, p)));
    out.provenance
        .push(("opt_config".into(), format!("{:?}", OptConfig::all())));
    Ok(out)
}
