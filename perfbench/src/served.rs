//! What the two served workloads share after their load has run: the
//! cross-check of the benchmark's own counts against `ServeStats`, the
//! direct-engine referee, the per-layer figures read from the server's
//! `TelemetrySnapshot`, and the assembly of the run's outcome.

use crate::client::Load;
use crate::loadgen::Summary;
use crate::report::{ratio, Failures, Metrics, Outcome, END_TO_END};
use crate::trace::Spans;
use crate::world::{self, Params};
use std::time::Duration;
use tg_graph::{NodeId, Time};
use tg_serve::{ModelBundle, ServeStats};
use tg_telemetry::{HistogramSnapshot, TelemetrySnapshot};
use tgat::engine::GraphContext;
use tgopt::{EngineCounters, LayerCaches, OptConfig, TgoptEngine};

/// Open-loop query latency: nearest-rank percentiles over every timed
/// query, each timed from its scheduled send to its observed completion.
pub fn open_latency(open: &Load) -> Summary {
    Summary::of(&open.query_us)
}

/// Closed-loop capacity: operations completed over the whole closed phase,
/// per second of the phase.
pub fn closed_rate(closed: &Load) -> f64 {
    closed.succeeded as f64 / closed.elapsed_s.max(1e-9)
}

/// Offered rate of an open-loop phase as a share of the workload's
/// calibrated closed-loop rate: light enough that no backlog builds, so the
/// latency is that of the serve path rather than of a queue.
pub const OPEN_LOAD: f64 = 1.0 / 3.0;

/// A closed phase runs a fixed operation budget, `rate` (the workload's
/// calibrated closed-loop rate) per second of `window`, so the cache (and
/// with it peak memory) and, on `stream-mixed`, the live suffix end the
/// same size on every run. A faster server finishes early, a slower one
/// runs longer, up to [`CLOSED_TIME_CAP`] times `window`.
pub const CLOSED_TIME_CAP: f64 = 4.0;

/// The operation budget and the time cap of a closed phase of `window`.
pub fn closed_plan(rate: f64, window: Duration) -> (usize, Duration) {
    let budget = (rate * window.as_secs_f64()).ceil() as usize;
    (budget.max(1), window.mul_f64(CLOSED_TIME_CAP))
}

/// Threads the closed loop uses: one client per CPU.
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// Checks the benchmark's tally of its own queries against the server's
/// counters, read after shutdown so every wave has been accounted. The
/// server must have seen exactly the queries the benchmark submitted,
/// completed exactly those it got rows for, and keep
/// `submitted >= completed + rejected_deadline`.
pub fn check_accounting(stats: &ServeStats, loads: &[&Load]) -> Result<(), String> {
    let submitted: u64 = loads.iter().map(|l| l.queries).sum();
    let rows: u64 = loads.iter().map(|l| l.answered).sum();
    let overloaded: u64 = loads.iter().map(|l| l.failures.overloaded).sum();
    if stats.submitted < stats.completed + stats.rejected_deadline {
        return Err(format!(
            "ServeStats identity broken: submitted {} < completed {} + rejected_deadline {}",
            stats.submitted, stats.completed, stats.rejected_deadline
        ));
    }
    if stats.submitted != submitted
        || stats.completed != rows
        || stats.rejected_overload != overloaded
    {
        return Err(format!(
            "accounting mismatch: server submitted/completed/overloaded {}/{}/{}, benchmark {}/{}/{}",
            stats.submitted, stats.completed, stats.rejected_overload, submitted, rows, overloaded
        ));
    }
    Ok(())
}

/// Recomputes `rows` with a fresh engine over `ctx` (`OptConfig::all()`)
/// and compares: (max abs diff, rows outside tolerance, rows checked).
pub fn referee(
    ctx: GraphContext<'_>,
    bundle: &ModelBundle,
    rows: &[(NodeId, Time, Vec<f32>)],
) -> (f64, u64, u64) {
    let mut eng = TgoptEngine::new(&bundle.params, ctx, OptConfig::all());
    let (mut max, mut bad, mut checked) = (0.0f64, 0u64, 0u64);
    for chunk in rows.chunks(256) {
        let ns: Vec<NodeId> = chunk.iter().map(|r| r.0).collect();
        let ts: Vec<Time> = chunk.iter().map(|r| r.1).collect();
        match eng.embed_batch(&ns, &ts) {
            Ok(h) => {
                let (m, b, c) =
                    world::compare(chunk.iter().enumerate().map(|(i, r)| (&r.2[..], h.row(i))));
                max = max.max(m);
                bad += b;
                checked += c;
            }
            Err(_) => {
                bad += chunk.len() as u64;
                checked += chunk.len() as u64;
            }
        }
    }
    (max, bad, checked)
}

/// Per-layer figures from the server's own counters, over the server's
/// lifetime (warm-up, timed load and, on `stream-mixed`, the referee's
/// queries).
pub fn layer_metrics(
    stats: &ServeStats,
    tel: &TelemetrySnapshot,
    caches: &LayerCaches,
    cfg: &tgat::TgatConfig,
    m: &mut Metrics,
) {
    let mut waves = HistogramSnapshot::default();
    for w in &tel.latency.workers {
        waves.merge(w);
    }
    let wave_us = waves.mean_ns() / 1e3;
    m.set("serve.wave_us_mean", wave_us);
    m.set(
        "serve.outside_wave_us",
        tel.latency.end_to_end.mean_ns() / 1e3 - wave_us,
    );
    m.set("serve.wave_size", stats.mean_batch_size());
    m.set("serve.cross_dedup_ratio", stats.cross_dedup_ratio());
    m.set("serve.rejected_overload", stats.rejected_overload as f64);
    m.set("serve.rejected_deadline", stats.rejected_deadline as f64);
    m.set("serve.degraded_batches", stats.degraded_batches as f64);

    // Worker waves enclose each `embed_batch` plus coalescing and scatter.
    world::stage_metrics(&tel.stages, waves.sum_ns() as f64 * 1e-9, m);
    let e = &tel.engine;
    let counters = EngineCounters {
        cache_lookups: e.cache_lookups,
        cache_hits: e.cache_hits,
        cache_stores: e.cache_stores,
        recomputed: e.recomputed,
        dedup_removed: e.dedup_removed,
        stores_skipped: e.stores_skipped,
    };
    let tc = (
        tel.time_cache.hits,
        tel.time_cache.lookups - tel.time_cache.hits,
    );
    // The server hands `embed_batch` one row per unique request of a wave.
    world::engine_metrics(&counters, tc, caches, stats.unique_rows, cfg, m);

    let ing = &tel.ingest;
    m.set("ingest.removed", ing.entries_invalidated as f64);
    m.set("ingest.retained", ing.entries_retained as f64);
    for (layer, name) in [
        (1, "ingest.l1.retained_ratio"),
        (2, "ingest.l2.retained_ratio"),
    ] {
        if let Some(l) = ing.per_layer.iter().find(|l| l.layer == layer) {
            m.set(
                name,
                ratio(l.retained as f64, (l.removed + l.retained) as f64),
            );
        }
    }
    m.set("ingest.compactions", ing.compactions as f64);
    m.set("ingest.delta_edges", ing.delta_edges as f64);
}

/// Load-generator and client-call figures of the timed load.
pub fn load_metrics(open: &Load, closed: &Load, m: &mut Metrics) {
    let calls: Vec<f64> = open
        .submit_call_us
        .iter()
        .chain(&closed.submit_call_us)
        .copied()
        .collect();
    m.set("serve.submit_us_p99", Summary::of(&calls).p99);
    let edge_calls: Vec<f64> = open
        .write_call_us
        .iter()
        .chain(&closed.write_call_us)
        .copied()
        .collect();
    let s = Summary::of(&edge_calls);
    m.set("ingest.submit_edge_us_p50", s.p50);
    m.set("ingest.submit_edge_us_p99", s.p99);
    m.set("loadgen.lag_p99_us", Summary::of(&open.lag_us).p99);
}

/// What one phase of a served workload measured.
pub struct Phase {
    pub setup_s: f64,
    pub open: Load,
    pub closed: Load,
    /// Failures outside the timed load (queries the referee itself sent).
    pub referee_failures: Failures,
    /// Referee: rows checked, rows outside tolerance, largest difference.
    pub checked_rows: u64,
    pub mismatch: u64,
    pub max_abs_diff: f64,
    /// Per-layer figures (traced phases only).
    pub layer: Metrics,
    /// Set-up spans (traced phases only).
    pub spans: Spans,
    /// The workload's own figures and provenance.
    pub named: Metrics,
    pub provenance: Vec<(String, String)>,
}

/// Runs a served workload's phases (see [`world::halves`]) and assembles
/// the outcome: end-to-end figures from the untraced phase, per-layer
/// figures and spans from the traced one.
pub fn outcome(
    p: &Params,
    phase: impl FnMut(f64, bool) -> Result<Phase, String>,
) -> Result<Outcome, String> {
    let (r, traced) = world::halves(p, phase)?;
    let lat = open_latency(&r.open);
    let rate = closed_rate(&r.closed);
    let mut out = Outcome {
        end_to_end: Metrics::registered(END_TO_END),
        ..Outcome::default()
    };
    let e2e = &mut out.end_to_end;
    e2e.set("setup_s", r.setup_s);
    e2e.set("throughput_per_s", rate);
    e2e.set("latency_p50_us", lat.p50);
    e2e.set("peak_rss_mib", world::peak_rss_mib());

    let named = &mut out.named;
    named.put("query_p50_us", lat.p50, "us");
    named.put("query_p90_us", lat.p90, "us");
    named.put("query_p99_us", lat.p99, "us");
    named.put("query_samples", lat.n as f64, "count");
    named.put("closed_loop_per_s", rate, "1/s");
    named.put("closed_loop_ops", r.closed.ops() as f64, "count");
    named.put("loadgen_lag_p99_us", Summary::of(&r.open.lag_us).p99, "us");
    named.0.extend(r.named.0.iter().cloned());
    out.provenance = r.provenance.clone();
    out.provenance.push(("clients".into(), nproc().to_string()));

    for ph in std::iter::once(&r).chain(&traced) {
        out.attempted += ph.open.ops() + ph.closed.ops();
        out.failures.add(&ph.open.failures);
        out.failures.add(&ph.closed.failures);
        out.failures.add(&ph.referee_failures);
        out.failures.mismatch += ph.mismatch;
        out.checked_rows += ph.checked_rows;
        out.max_abs_diff = out.max_abs_diff.max(ph.max_abs_diff);
    }
    if let Some(t) = traced {
        let mut m = t.layer;
        world::setup_layer_metrics(&t.spans, &mut m);
        let tl = open_latency(&t.open);
        let traced_rate = closed_rate(&t.closed);
        m.set("untraced.latency_p90_us", lat.p90);
        m.set("untraced.latency_p99_us", lat.p99);
        m.set("trace.throughput_per_s", traced_rate);
        m.set("trace.latency_p50_us", tl.p50);
        m.set("trace.latency_p90_us", tl.p90);
        m.set("trace.latency_p99_us", tl.p99);
        m.set("trace.overhead_ratio", ratio(rate, traced_rate) - 1.0);
        let mut spans = t.spans;
        spans.absorb(t.open.spans);
        spans.absorb(t.closed.spans);
        out.per_layer = m;
        out.trace_spans = Some(spans);
    }
    Ok(out)
}
