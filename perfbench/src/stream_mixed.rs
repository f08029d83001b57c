//! `stream-mixed`: the serve layer with writes beside reads.
//! `TgServer::threaded` runs `ServeConfig::default()` with live ingest on
//! and the last layer cached (so layer-2 entries carry fingerprints), over
//! `snap-msg` at full scale. The stream splits into a frozen base and a
//! live suffix sized from the write share and the operation count of the
//! run; one schedule interleaves `submit_edge` at a 20% share with
//! queries. A query asks for an endpoint of a uniformly drawn base edge
//! (the graph's own degree skew), half of them at the live frontier (just
//! after the newest edge) and half at the drawn edge's time. An untimed
//! closed-loop warm-up of queries runs after set-up.
//!
//! End-to-end: `latency_p50_us` is the nearest-rank median over every
//! query of an open-loop Poisson phase at a fixed rate, each timed from its
//! scheduled send (p90 and p99 are printed beside it); `throughput_per_s` is
//! operations (queries and inserts) completed per second over a closed
//! loop of `nproc` clients running a fixed number of operations of the same
//! 20% mix, compactions of the live delta included.
//! Insert latencies (`insert_p50_us`, `insert_p99_us`, from the schedule
//! to the return of `submit_edge`) are printed with the report. Referee:
//! after the load, sampled rows served by the live server must match a
//! cold engine over the graph rebuilt from every ingested edge, within
//! 1e-5.

use crate::client::{self, just_after, Load, Op, Writer};
use crate::loadgen::{poisson_schedule, Summary, WritePlan};
use crate::report::{ratio, Metrics, Outcome, PER_LAYER};
use crate::served;
use crate::trace::Spans;
use crate::world::{self, Params};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::sync::Arc;
use std::time::Duration;
use tg_graph::{Edge, EdgeStream, NodeId, Time};
use tg_serve::{ModelBundle, ServeConfig, TgServer};
use tgat::engine::GraphContext;

pub const DATASET: &str = "snap-msg";
/// Requested share of operations that insert an edge.
pub const WRITE_SHARE: f64 = 0.2;
/// Closed-loop operations per second at the shipped defaults: the median
/// closed-loop rate of five 30 s runs (seeds 21-25) on a 2-vCPU x86-64
/// host, rounded to a hundred. It sets the closed phase's budget (and so the live suffix)
/// and, through `served::OPEN_LOAD`, the open phase's offered rate.
pub const CALIBRATED_RATE: f64 = 2400.0;
/// Untimed queries after set-up (at most `WARMUP_CAP`).
const WARMUP_OPS: usize = 1500;
const WARMUP_CAP: Duration = Duration::from_secs(10);
/// Rows served while the graph moves have no fixed referee, so the load
/// keeps (almost) none; the referee probes after the load instead.
const SAMPLE_EVERY: usize = usize::MAX;
/// Rows the post-run referee compares, half at the frontier.
const REFEREE_ROWS: usize = 128;

/// The run's operation plan, a pure function of the seed and the window.
struct Plan {
    offered: f64,
    schedule: Vec<Duration>,
    open_writes: WritePlan,
    closed_writes: WritePlan,
    closed_budget: usize,
    closed_cap: Duration,
    /// Live edges the plan can consume: the base/live split point.
    live_edges: usize,
}

impl Plan {
    fn new(p: &Params, window: Duration) -> Self {
        let offered = served::OPEN_LOAD * CALIBRATED_RATE;
        let schedule = poisson_schedule(p.seed, offered, window);
        let open_writes = WritePlan::new(p.seed, WRITE_SHARE);
        let closed_writes = WritePlan::new(p.seed ^ 0xc105ed, WRITE_SHARE);
        let (closed_budget, closed_cap) = served::closed_plan(CALIBRATED_RATE, window);
        let live_edges =
            open_writes.writes_in(schedule.len()) + closed_writes.writes_in(closed_budget);
        Self {
            offered,
            schedule,
            open_writes,
            closed_writes,
            closed_budget,
            closed_cap,
            live_edges,
        }
    }
}

struct World {
    bundle: Arc<ModelBundle>,
    server: TgServer,
    stream: EdgeStream,
    n_base: usize,
}

impl World {
    fn base(&self) -> &[Edge] {
        &self.stream.edges()[..self.n_base]
    }

    fn live(&self) -> &[Edge] {
        &self.stream.edges()[self.n_base..]
    }
}

fn setup(p: &Params, live_edges: usize, spans: &mut Spans, traced: bool) -> Result<World, String> {
    let data = world::dataset(DATASET, p, spans)?;
    let n = data.stream.len();
    if live_edges * 2 > n {
        return Err(format!(
            "the run needs {live_edges} live edges but {DATASET} has only {n}: use fewer --seconds"
        ));
    }
    let n_base = n - live_edges;
    let mut base_stream = data.stream.clone();
    base_stream.truncate(n_base);
    let params = world::model(&data);
    let graph = world::graph(&base_stream, spans);
    let bundle = Arc::new(
        ModelBundle::new(params, graph, data.node_features, data.edge_features)
            .map_err(|e| e.to_string())?,
    );
    let mut cfg = ServeConfig::default()
        .with_live_ingest(true)
        .with_stage_spans(traced);
    cfg.opt.cache_last_layer = true;
    let server = spans
        .time("TgServer::threaded", || {
            TgServer::threaded(Arc::clone(&bundle), cfg)
        })
        .map_err(|e| format!("server start: {e}"))?;
    Ok(World {
        bundle,
        server,
        stream: data.stream,
        n_base,
    })
}

/// An endpoint of a uniformly drawn base edge: half the time at the live
/// frontier (just after `newest`), half at the drawn edge's time.
fn pick(w: &World, rng: &mut StdRng, newest: &Edge) -> (NodeId, Time) {
    let (node, time) = world::endpoint(w.base(), rng);
    if rng.gen_bool(0.5) {
        (node, just_after(newest.time))
    } else {
        (node, time)
    }
}

fn phase(p: &Params, seconds: f64, traced: bool) -> Result<served::Phase, String> {
    let window = Duration::from_secs_f64(seconds / 2.0);
    let plan = Plan::new(p, window);
    let mut spans = Spans::new(traced);
    let (w, setup_s) = world::timed_setups(|| setup(p, plan.live_edges, &mut spans, traced))?;
    let config = format!("{:?}", w.server.config());
    let clients = served::nproc();
    let base_last = w.base()[w.n_base - 1];
    let warm = client::closed_loop(
        &w.server,
        clients,
        WARMUP_CAP,
        WARMUP_OPS,
        None,
        &|rng: &mut StdRng, _: &Edge| pick(&w, rng, &base_last),
        p.seed ^ 1,
        usize::MAX,
        false,
    )?;

    // Open loop: writes take live edges in stream order, and a frontier
    // query sits just after the newest edge written before it.
    let live = w.live();
    let mut rng = StdRng::seed_from_u64(p.seed ^ 0x0057_12ea);
    let (mut written, mut newest) = (0usize, base_last);
    let mut ops = Vec::with_capacity(plan.schedule.len());
    for i in 0..plan.schedule.len() {
        if plan.open_writes.is_write(i) {
            let e = *live
                .get(written)
                .ok_or("live suffix exhausted by the open-loop plan")?;
            ops.push(Op::Write(e));
            written += 1;
            newest = e;
        } else {
            let (node, time) = pick(&w, &mut rng, &newest);
            ops.push(Op::Query { node, time });
        }
    }
    let open = client::open_loop(&w.server, &plan.schedule, &ops, SAMPLE_EVERY, traced);

    let writer = Writer::new(plan.closed_writes, &live[written..], newest);
    let pick_live = |rng: &mut StdRng, newest: &Edge| pick(&w, rng, newest);
    let closed = client::closed_loop(
        &w.server,
        clients,
        plan.closed_cap,
        plan.closed_budget,
        Some(&writer),
        &pick_live,
        p.seed,
        SAMPLE_EVERY,
        traced,
    )?;
    let live_written = written + writer.written();

    // Referee: rows served now, against a cold engine over the base plus
    // every ingested edge.
    let ingested = &w.stream.edges()[..w.n_base + live_written];
    let frontier = ingested[ingested.len() - 1];
    let mut rng = StdRng::seed_from_u64(p.seed ^ 0x2ef);
    let mut probe = Vec::with_capacity(REFEREE_ROWS);
    for i in 0..REFEREE_ROWS {
        let (node, time) = world::endpoint(ingested, &mut rng);
        let time = if i % 2 == 0 {
            just_after(frontier.time)
        } else {
            time
        };
        probe.push((node, time));
    }
    let referee = probe_rows(&w.server, &probe);
    let caches = w.server.shared_cache();
    let (stats, tel) = w.server.shutdown_with_telemetry();
    served::check_accounting(&stats, &[&warm, &open, &closed, &referee])?;
    check_write_share(&open)?;
    check_write_share(&closed)?;

    let mut cold_stream = w.stream.clone();
    cold_stream.truncate(w.n_base + live_written);
    let cold = tg_graph::TemporalGraph::from_stream(&cold_stream);
    let ctx = GraphContext {
        graph: &cold,
        node_features: &w.bundle.node_features,
        edge_features: &w.bundle.edge_features,
    };
    let (max_abs_diff, mismatch, checked_rows) = served::referee(ctx, &w.bundle, &referee.rows);

    let mut layer = Metrics::registered(PER_LAYER);
    if traced {
        served::layer_metrics(&stats, &tel, &caches, &w.bundle.params.cfg, &mut layer);
        served::load_metrics(&open, &closed, &mut layer);
    }
    let ins = Summary::of(&open.write_us);
    let mut named = Metrics::default();
    named.put("insert_p50_us", ins.p50, "us");
    named.put("insert_p99_us", ins.p99, "us");
    named.put("insert_samples", ins.n as f64, "count");
    named.put("offered_ops_per_s", plan.offered, "ops/s");
    named.put("write_share_requested", WRITE_SHARE, "ratio");
    named.put(
        "write_share_open",
        ratio(open.writes as f64, open.ops() as f64),
        "ratio",
    );
    named.put(
        "write_share_closed",
        ratio(closed.writes as f64, closed.ops() as f64),
        "ratio",
    );
    named.put("base_edges", w.n_base as f64, "count");
    named.put("live_edges_sized", plan.live_edges as f64, "count");
    named.put("live_edges_written", live_written as f64, "count");
    Ok(served::Phase {
        setup_s,
        open,
        closed,
        referee_failures: referee.failures,
        checked_rows,
        mismatch,
        max_abs_diff,
        layer,
        spans,
        named,
        provenance: vec![
            ("dataset".into(), world::dataset_provenance(DATASET, p)),
            ("serve_config".into(), config),
        ],
    })
}

/// A run whose achieved write share is off the requested one by more than
/// a point measured another workload, so it is refused.
fn check_write_share(load: &Load) -> Result<(), String> {
    let achieved = ratio(load.writes as f64, load.ops() as f64);
    if (achieved - WRITE_SHARE).abs() > 0.01 {
        return Err(format!(
            "achieved write share {achieved:.4} is more than a point off the requested {WRITE_SHARE}"
        ));
    }
    Ok(())
}

/// Queries `probe` one at a time and keeps every served row.
fn probe_rows(server: &TgServer, probe: &[(NodeId, Time)]) -> Load {
    let mut load = Load::default();
    for &(node, time) in probe {
        load.queries += 1;
        match server.submit(node, time).and_then(tg_serve::Ticket::wait) {
            Ok(row) => {
                load.succeeded += 1;
                load.answered += 1;
                load.rows.push((node, time, row));
            }
            Err(e) => load.failures.record(&e),
        }
    }
    load
}

pub fn run(p: &Params) -> Result<Outcome, String> {
    served::outcome(p, |seconds, traced| phase(p, seconds, traced))
}
