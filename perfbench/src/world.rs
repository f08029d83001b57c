//! What every workload shares: the model shape, dataset and graph set-up
//! through the crates' public functions, the referee comparison, and the
//! layer metrics read from the counters the crates already expose.

use crate::loadgen::median;
use crate::report::{ratio, Metrics};
use crate::trace::Spans;
use rand::rngs::StdRng;
use rand::Rng;
use std::time::Instant;
use tg_bench::harness::params_for;
use tg_bench::ExpArgs;
use tg_datasets::Dataset;
use tg_graph::{Edge, EdgeStream, NodeId, TemporalGraph, Time};
use tg_telemetry::{OpKind, StageSpan};
use tg_tensor::Tensor;
use tgat::{TgatConfig, TgatParams};
use tgopt::{EngineCounters, LayerCaches};

/// TGAT embedding (and time-encoding) width.
pub const DIM: usize = 32;
/// Most-recent neighbours sampled per target.
pub const N_NEIGHBORS: usize = 10;
/// Edges per chronological batch (§5.1).
pub const BATCH_EDGES: usize = 200;
/// Referee tolerance: TGOpt vs baseline, served vs direct, live vs cold.
pub const TOLERANCE: f64 = 1e-5;
/// Seed of the generated datasets and model weights. They are fixed, as a
/// real dataset file would be; `--seed` drives the traffic instead (query
/// choice, arrival schedule, write placement, referee samples), so runs
/// with different seeds measure the same graphs under different traffic.
pub const DATA_SEED: u64 = 7;
/// Set-ups per run: at least `SETUP_REPEATS`, and more until they have
/// taken `SETUP_MIN_S` in all, so a set-up of milliseconds is timed as
/// often as a slow one needs; `setup_s` is their median. The first one or
/// two set-ups of a process run slower (fresh pages from the kernel), and
/// nine keep them from deciding the median. A set-up is
/// dataset generation, graph build and engine or server start; a
/// workload's untimed warm-up runs once, after the last set-up, and is not
/// part of it.
pub const SETUP_REPEATS: usize = 9;
pub const SETUP_MIN_S: f64 = 1.0;

/// One run's inputs, all derived from the command line.
#[derive(Clone, Debug)]
pub struct Params {
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    /// Fraction of each dataset's edges to generate: 1.0 for the benchmark,
    /// smaller in the benchmark's own tests.
    pub scale: f64,
}

/// Generates `name` at `p.scale` from [`DATA_SEED`], with zero node features of
/// width [`DIM`] (as `tg_bench::harness::dataset_for` does).
pub fn dataset(name: &str, p: &Params, spans: &mut Spans) -> Result<Dataset, String> {
    let spec = tg_datasets::spec_by_name(name).ok_or_else(|| format!("unknown dataset {name}"))?;
    let mut ds = spans
        .time("tg_datasets::generate", || {
            tg_datasets::generate(&spec, p.scale, DATA_SEED)
        })
        .map_err(|e| format!("generating {name}: {e}"))?;
    ds.node_features = Tensor::zeros(ds.node_features.rows(), DIM);
    Ok(ds)
}

/// Seeded TGAT weights: dim 32, 2 layers, 2 heads, 10 neighbours.
pub fn model(ds: &Dataset) -> TgatParams {
    let args = ExpArgs {
        seed: DATA_SEED,
        dim: DIM,
        n_neighbors: N_NEIGHBORS,
        ..ExpArgs::default()
    };
    params_for(&args, ds)
}

/// A query target drawn with the graph's own skew: an endpoint of a
/// uniformly drawn edge of `edges` (so a node is drawn in proportion to its
/// degree), with that edge's time.
pub fn endpoint(edges: &[Edge], rng: &mut StdRng) -> (NodeId, Time) {
    let e = edges[rng.gen_range(0..edges.len())];
    (if rng.gen_bool(0.5) { e.src } else { e.dst }, e.time)
}

pub fn graph(stream: &EdgeStream, spans: &mut Spans) -> TemporalGraph {
    spans.time("TemporalGraph::from_stream", || {
        TemporalGraph::from_stream(stream)
    })
}

/// Runs `phase(seconds, traced)`: once untraced for the whole run, or, in
/// a traced run, an untraced half then a traced half, so the traced run
/// states its own overhead.
pub fn halves<T>(
    p: &Params,
    mut phase: impl FnMut(f64, bool) -> Result<T, String>,
) -> Result<(T, Option<T>), String> {
    if p.trace {
        let reference = phase(p.seconds / 2.0, false)?;
        Ok((reference, Some(phase(p.seconds / 2.0, true)?)))
    } else {
        Ok((phase(p.seconds, false)?, None))
    }
}

/// Runs `setup` as often as [`SETUP_REPEATS`] and [`SETUP_MIN_S`] ask,
/// dropping each result before the next so memory does not pile up;
/// returns the last result and the median set-up time in seconds.
pub fn timed_setups<T>(mut setup: impl FnMut() -> Result<T, String>) -> Result<(T, f64), String> {
    let mut times = Vec::with_capacity(SETUP_REPEATS);
    let mut last = None;
    while times.len() < SETUP_REPEATS || times.iter().sum::<f64>() < SETUP_MIN_S {
        drop(last.take());
        let start = Instant::now();
        last = Some(setup()?);
        times.push(start.elapsed().as_secs_f64());
    }
    let world = last.ok_or("no set-up ran")?;
    Ok((world, median(&times)))
}

/// The process's high-water resident set (`VmHWM`), MiB.
pub fn peak_rss_mib() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kib| kib / 1024.0)
}

/// Largest absolute difference between `got` rows and `want` rows, and
/// how many rows differ by more than [`TOLERANCE`].
pub fn compare<'a>(pairs: impl Iterator<Item = (&'a [f32], &'a [f32])>) -> (f64, u64, u64) {
    let (mut max_diff, mut bad, mut rows) = (0.0f64, 0u64, 0u64);
    for (got, want) in pairs {
        rows += 1;
        let d = if got.len() == want.len() {
            got.iter()
                .zip(want)
                .map(|(a, b)| (f64::from(*a) - f64::from(*b)).abs())
                .fold(0.0, f64::max)
        } else {
            f64::INFINITY
        };
        if d.is_nan() || d > TOLERANCE {
            bad += 1;
        }
        if d.is_finite() {
            max_diff = max_diff.max(d);
        }
    }
    (max_diff, bad, rows)
}

/// Floating-point operations one recomputed embedding row costs in the
/// attention layer (query/key/value projections, scores, weighted sum and
/// the two-layer FFN), from the model shape. A computed figure, not a
/// hardware counter.
pub fn attention_flops_per_row(cfg: &TgatConfig) -> f64 {
    let (d, e, t, k) = (
        cfg.dim as f64,
        cfg.edge_dim as f64,
        cfg.time_dim as f64,
        cfg.n_neighbors as f64,
    );
    2.0 * (d + t) * d + 4.0 * k * (d + e + t) * d + 4.0 * k * d + 6.0 * d * d
}

/// Engine stage totals from the stage recorder, against `span_s`: the
/// total of the enclosing span (the benchmark's `embed_batch` spans on
/// `replay`, the server's worker waves on the served workloads). Returns
/// `engine.unattributed_s`, the span time no stage accounts for.
pub fn stage_metrics(stages: &[StageSpan], span_s: f64, m: &mut Metrics) -> f64 {
    let secs = |kinds: &[OpKind]| -> f64 {
        kinds
            .iter()
            .map(|k| {
                stages
                    .iter()
                    .filter(|s| s.stage == k.slug())
                    .map(|s| s.total_ns)
                    .sum::<u64>()
            })
            .sum::<u64>() as f64
            * 1e-9
    };
    let groups: [(&str, &[OpKind]); 7] = [
        ("engine.ngh_lookup_s", &[OpKind::NghLookup]),
        (
            "engine.dedup_s",
            &[OpKind::DedupFilter, OpKind::DedupInvert],
        ),
        (
            "engine.time_encode_s",
            &[OpKind::TimeEncodeZero, OpKind::TimeEncodeDt],
        ),
        ("engine.compute_keys_s", &[OpKind::ComputeKeys]),
        ("engine.cache_lookup_s", &[OpKind::CacheLookup]),
        ("engine.cache_store_s", &[OpKind::CacheStore]),
        ("engine.attention_s", &[OpKind::Attention]),
    ];
    let mut staged = 0.0;
    for (name, kinds) in groups {
        let s = secs(kinds);
        staged += s;
        m.set(name, s);
    }
    let unattributed = span_s - staged;
    m.set("engine.span_s", span_s);
    m.set("engine.unattributed_s", unattributed);
    unattributed
}

/// Engine reuse counters, per-layer cache hit ratios and cache state, and
/// the computed attention work. `targets` is the number of targets handed
/// to `embed_batch` (the base of `dedup.removed_per_target`).
pub fn engine_metrics(
    c: &EngineCounters,
    time_cache: (u64, u64),
    caches: &LayerCaches,
    targets: u64,
    cfg: &TgatConfig,
    m: &mut Metrics,
) {
    m.set(
        "dedup.removed_per_target",
        ratio(c.dedup_removed as f64, targets as f64),
    );
    m.set(
        "time_cache.hit_ratio",
        ratio(time_cache.0 as f64, (time_cache.0 + time_cache.1) as f64),
    );
    for (l, name) in [(1, "cache.l1.hit_ratio"), (2, "cache.l2.hit_ratio")] {
        if let Some(c) = caches.layer(l) {
            m.set(name, ratio(c.total_hits() as f64, c.total_lookups() as f64));
        }
    }
    m.set("cache.recomputed", c.recomputed as f64);
    m.set("cache.items", caches.len() as f64);
    m.set("cache.bytes", caches.bytes_used() as f64);
    m.set("cache.evictions", caches.total_evictions() as f64);
    m.set("cache.store_drops", caches.total_store_dropped() as f64);
    let gflop = c.recomputed as f64 * attention_flops_per_row(cfg) * 1e-9;
    m.set("tensor.attention_gflop", gflop);
    let attention_s = m.get("engine.attention_s").unwrap_or(0.0);
    m.set("tensor.attention_gflop_per_s", ratio(gflop, attention_s));
}

/// Median generate and build spans across the run's set-ups.
pub fn setup_layer_metrics(spans: &Spans, m: &mut Metrics) {
    for (span, name) in [
        ("tg_datasets::generate", "datasets.generate_s"),
        ("TemporalGraph::from_stream", "graph.build_s"),
    ] {
        let v = spans.secs_of(span);
        if !v.is_empty() {
            m.set(name, median(&v));
        }
    }
}

/// `name at scale S: N nodes, E edges, data_seed D` from the dataset's spec.
pub fn dataset_provenance(name: &str, p: &Params) -> String {
    match tg_datasets::spec_by_name(name) {
        Some(spec) => format!(
            "{name} at scale {}: {} nodes, {} edges, data_seed {DATA_SEED}",
            p.scale,
            spec.num_nodes(),
            ((spec.num_edges as f64 * p.scale).round() as usize).max(1)
        ),
        None => name.to_string(),
    }
}

/// `target-cpu` from the repository's `.cargo/config.toml`, if set.
pub fn target_cpu() -> String {
    let cfg = std::fs::read_to_string(".cargo/config.toml").unwrap_or_default();
    cfg.split('"')
        .find_map(|s| s.strip_prefix("target-cpu="))
        .unwrap_or("default")
        .to_string()
}

/// The checkout's git revision, when it is a git repository.
pub fn git_revision() -> String {
    if !std::path::Path::new(".git").exists() {
        return "unavailable".to_string();
    }
    std::process::Command::new("git")
        .args(["rev-parse", "--short=12", "HEAD"])
        .stderr(std::process::Stdio::null())
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .map_or_else(|| "unavailable".to_string(), |s| s.trim().to_string())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn unattributed_time_closes_the_span() {
        let stages: Vec<StageSpan> = OpKind::ALL
            .iter()
            .enumerate()
            .map(|(i, k)| StageSpan {
                stage: k.slug().to_string(),
                label: k.label().to_string(),
                total_ns: 1_000_000 * (i as u64 + 1),
                count: 1,
            })
            .collect();
        let mut m = Metrics::registered(crate::report::PER_LAYER);
        let un = stage_metrics(&stages, 0.05, &mut m);
        let staged: f64 = [
            "engine.ngh_lookup_s",
            "engine.dedup_s",
            "engine.time_encode_s",
            "engine.compute_keys_s",
            "engine.cache_lookup_s",
            "engine.cache_store_s",
            "engine.attention_s",
        ]
        .iter()
        .map(|n| m.get(n).unwrap())
        .sum();
        assert!(
            (staged - 0.045).abs() < 1e-12,
            "all nine stages are grouped: {staged}"
        );
        assert!((staged + un - m.get("engine.span_s").unwrap()).abs() < 1e-12);
        assert!((un - 0.005).abs() < 1e-12);
    }

    #[test]
    fn compare_counts_rows_outside_tolerance() {
        let a = [1.0f32, 2.0];
        let b = [1.0f32, 2.0 + 1e-3];
        let (max, bad, rows) = compare([(&a[..], &a[..]), (&a[..], &b[..])].into_iter());
        assert_eq!((bad, rows), (1, 2));
        assert!(max > 9e-4);
        let (_, bad, _) = compare([(&a[..1], &a[..])].into_iter());
        assert_eq!(bad, 1, "a short row is a mismatch");
    }
}
