//! `serve-read`: read-only queries against `TgServer::threaded` with
//! `ServeConfig::default()` over `synth-shard` (131,072 nodes, 1.2M edges
//! at full scale). A query asks for an endpoint of a uniformly drawn edge
//! at the stream's end time, so nodes are queried with the graph's own
//! degree skew. An untimed closed-loop warm-up of a fixed number of queries
//! runs after set-up.
//!
//! End-to-end: `latency_p50_us` is the nearest-rank median over every
//! query of an open-loop Poisson phase at a fixed offered rate, each timed
//! from its scheduled send time to its observed completion (p90 and p99
//! are printed beside it). `throughput_per_s` is queries completed per second over a
//! saturating closed loop of `nproc` clients running a fixed number of
//! queries (the capacity figure; a rate ladder did not repeat within a
//! tenth on a 2-CPU host).
//! Referee: every 50th served row is recomputed by a direct `TgoptEngine`
//! and must match within 1e-5.

use crate::client::{self, Op};
use crate::loadgen::poisson_schedule;
use crate::report::{Failures, Metrics, Outcome, PER_LAYER};
use crate::served;
use crate::trace::Spans;
use crate::world::{self, Params};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::sync::Arc;
use std::time::Duration;
use tg_graph::{Edge, EdgeStream, NodeId, Time};
use tg_serve::{ModelBundle, ServeConfig, TgServer};

pub const DATASET: &str = "synth-shard";
/// Closed-loop queries per second at the shipped defaults: the median
/// closed-loop rate of five 30 s runs (seeds 21-25) on a 2-vCPU x86-64
/// host, rounded to a hundred. It sets the closed phase's budget
/// and, through `served::OPEN_LOAD`, the open phase's offered rate.
pub const CALIBRATED_RATE: f64 = 2700.0;
/// Untimed queries after set-up (at most `WARMUP_CAP`).
const WARMUP_OPS: usize = 3000;
const WARMUP_CAP: Duration = Duration::from_secs(10);
const SAMPLE_EVERY: usize = 50;

struct World {
    bundle: Arc<ModelBundle>,
    server: TgServer,
    stream: EdgeStream,
    t_end: Time,
}

fn setup(p: &Params, spans: &mut Spans, traced: bool) -> Result<World, String> {
    let data = world::dataset(DATASET, p, spans)?;
    let params = world::model(&data);
    let graph = world::graph(&data.stream, spans);
    let t_end = client::just_after(data.stream.max_time());
    let bundle = Arc::new(
        ModelBundle::new(params, graph, data.node_features, data.edge_features)
            .map_err(|e| e.to_string())?,
    );
    let cfg = ServeConfig::default().with_stage_spans(traced);
    let server = spans
        .time("TgServer::threaded", || {
            TgServer::threaded(Arc::clone(&bundle), cfg)
        })
        .map_err(|e| format!("server start: {e}"))?;
    Ok(World {
        bundle,
        server,
        stream: data.stream,
        t_end,
    })
}

fn pick(w: &World, rng: &mut StdRng) -> (NodeId, Time) {
    (world::endpoint(w.stream.edges(), rng).0, w.t_end)
}

fn phase(p: &Params, seconds: f64, traced: bool) -> Result<served::Phase, String> {
    let mut spans = Spans::new(traced);
    let (w, setup_s) = world::timed_setups(|| setup(p, &mut spans, traced))?;
    let config = format!("{:?}", w.server.config());
    let clients = served::nproc();
    let pick_any = |rng: &mut StdRng, _: &Edge| pick(&w, rng);
    let warm = client::closed_loop(
        &w.server,
        clients,
        WARMUP_CAP,
        WARMUP_OPS,
        None,
        &pick_any,
        p.seed ^ 1,
        usize::MAX,
        false,
    )?;

    let window = Duration::from_secs_f64(seconds / 2.0);
    let offered = served::OPEN_LOAD * CALIBRATED_RATE;
    let schedule = poisson_schedule(p.seed, offered, window);
    let mut rng = StdRng::seed_from_u64(p.seed ^ 0x0e11);
    let ops: Vec<Op> = schedule
        .iter()
        .map(|_| {
            let (node, time) = pick(&w, &mut rng);
            Op::Query { node, time }
        })
        .collect();
    let open = client::open_loop(&w.server, &schedule, &ops, SAMPLE_EVERY, traced);
    let (budget, cap) = served::closed_plan(CALIBRATED_RATE, window);
    let closed = client::closed_loop(
        &w.server,
        clients,
        cap,
        budget,
        None,
        &pick_any,
        p.seed,
        SAMPLE_EVERY,
        traced,
    )?;

    let caches = w.server.shared_cache();
    let (stats, tel) = w.server.shutdown_with_telemetry();
    served::check_accounting(&stats, &[&warm, &open, &closed])?;
    let rows: Vec<_> = open.rows.iter().chain(&closed.rows).cloned().collect();
    let (max_abs_diff, mismatch, checked_rows) =
        served::referee(w.bundle.context(), &w.bundle, &rows);

    let mut layer = Metrics::registered(PER_LAYER);
    if traced {
        served::layer_metrics(&stats, &tel, &caches, &w.bundle.params.cfg, &mut layer);
        served::load_metrics(&open, &closed, &mut layer);
    }
    let mut named = Metrics::default();
    named.put("offered_rps", offered, "req/s");
    named.put(
        "achieved_open_rps",
        open.queries as f64 / open.elapsed_s.max(1e-9),
        "req/s",
    );
    Ok(served::Phase {
        setup_s,
        open,
        closed,
        referee_failures: Failures::default(),
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

pub fn run(p: &Params) -> Result<Outcome, String> {
    served::outcome(p, |seconds, traced| phase(p, seconds, traced))
}
