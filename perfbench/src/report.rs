//! What a workload run hands back: op accounting by failure kind, the
//! registered metrics, the workload's own named figures, and the final
//! JSON line.

use tg_error::TgError;

/// Failed operations, split by kind.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct Failures {
    pub overloaded: u64,
    pub deadline: u64,
    pub other: u64,
    /// Rows the workload's referee rejected.
    pub mismatch: u64,
}

impl Failures {
    pub fn record(&mut self, err: &TgError) {
        match err {
            TgError::Overloaded { .. } => self.overloaded += 1,
            TgError::DeadlineExceeded => self.deadline += 1,
            _ => self.other += 1,
        }
    }

    pub fn add(&mut self, other: &Failures) {
        self.overloaded += other.overloaded;
        self.deadline += other.deadline;
        self.other += other.other;
        self.mismatch += other.mismatch;
    }

    pub fn total(&self) -> u64 {
        self.overloaded + self.deadline + self.other + self.mismatch
    }
}

#[derive(Clone, Debug, PartialEq)]
pub struct Metric {
    pub name: String,
    pub value: f64,
    pub unit: &'static str,
}

/// The end-to-end metrics every untraced run reports, as registered in
/// `BENCHMARK.json` (name, unit). What each means per workload is in the
/// workload's module docs.
pub const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("peak_rss_mib", "MiB"),
    ("throughput_per_s", "1/s"),
    ("latency_p50_us", "us"),
];

/// The per-layer metrics every traced run reports, as registered in
/// `BENCHMARK.json`. A layer the workload never runs reads 0 (tg-serve on
/// `replay`, ingest on `serve-read`, the `embed_batch` span on the served
/// workloads, which call the engine only through the server).
pub const PER_LAYER: &[(&str, &str)] = &[
    // tg-serve batching and admission
    ("serve.wave_us_mean", "us"),
    ("serve.outside_wave_us", "us"),
    ("serve.wave_size", "count"),
    ("serve.cross_dedup_ratio", "ratio"),
    ("serve.submit_us_p99", "us"),
    ("serve.rejected_overload", "count"),
    ("serve.rejected_deadline", "count"),
    ("serve.degraded_batches", "count"),
    // tg-serve ingest
    ("ingest.submit_edge_us_p50", "us"),
    ("ingest.submit_edge_us_p99", "us"),
    ("ingest.removed", "count"),
    ("ingest.retained", "count"),
    ("ingest.l1.retained_ratio", "ratio"),
    ("ingest.l2.retained_ratio", "ratio"),
    ("ingest.compactions", "count"),
    ("ingest.delta_edges", "count"),
    // tgopt engine stages
    ("engine.embed_batch_ms_p50", "ms"),
    ("engine.embed_batch_ms_p99", "ms"),
    ("engine.span_s", "s"),
    ("engine.ngh_lookup_s", "s"),
    ("engine.dedup_s", "s"),
    ("engine.time_encode_s", "s"),
    ("engine.compute_keys_s", "s"),
    ("engine.cache_lookup_s", "s"),
    ("engine.cache_store_s", "s"),
    ("engine.attention_s", "s"),
    ("engine.unattributed_s", "s"),
    ("dedup.removed_per_target", "ratio"),
    ("time_cache.hit_ratio", "ratio"),
    // tgopt cache
    ("cache.l1.hit_ratio", "ratio"),
    ("cache.l2.hit_ratio", "ratio"),
    ("cache.recomputed", "count"),
    ("cache.items", "count"),
    ("cache.bytes", "bytes"),
    ("cache.evictions", "count"),
    ("cache.store_drops", "count"),
    // tgat + tg-tensor (computed from counters and the model shape)
    ("tensor.attention_gflop", "gflop"),
    ("tensor.attention_gflop_per_s", "gflop/s"),
    // tg-datasets + tg-graph
    ("datasets.generate_s", "s"),
    ("graph.build_s", "s"),
    // load generator (how late sends ran against the schedule)
    ("loadgen.lag_p99_us", "us"),
    // the untraced half's tail (too noisy on a shared host to bound), and
    // the traced half's own end-to-end figures and overhead
    ("untraced.latency_p90_us", "us"),
    ("untraced.latency_p99_us", "us"),
    ("trace.throughput_per_s", "1/s"),
    ("trace.latency_p50_us", "us"),
    ("trace.latency_p90_us", "us"),
    ("trace.latency_p99_us", "us"),
    ("trace.overhead_ratio", "ratio"),
];

/// An ordered list of named, unit-tagged values.
#[derive(Clone, Debug, Default)]
pub struct Metrics(pub Vec<Metric>);

impl Metrics {
    /// Every metric of `names` at 0, in registration order; fill with
    /// [`Metrics::set`].
    pub fn registered(names: &[(&str, &'static str)]) -> Self {
        Self(
            names
                .iter()
                .map(|&(n, u)| Metric {
                    name: n.to_string(),
                    value: 0.0,
                    unit: u,
                })
                .collect(),
        )
    }

    /// Sets a registered metric. Setting a name the registry lacks is a
    /// bug in the benchmark, not a measurement, so it panics.
    pub fn set(&mut self, name: &str, value: f64) {
        match self.0.iter_mut().find(|m| m.name == name) {
            Some(m) => m.value = value,
            None => panic!("metric {name} is not registered"),
        }
    }

    pub fn put(&mut self, name: impl Into<String>, value: f64, unit: &'static str) {
        self.0.push(Metric {
            name: name.into(),
            value,
            unit,
        });
    }

    pub fn get(&self, name: &str) -> Option<f64> {
        self.0.iter().find(|m| m.name == name).map(|m| m.value)
    }
}

/// The result of one workload invocation.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Timed operations attempted (embed calls, queries, edge inserts).
    pub attempted: u64,
    pub failures: Failures,
    /// Referee rows compared (all of them within tolerance unless
    /// `failures.mismatch > 0`).
    pub checked_rows: u64,
    pub max_abs_diff: f64,
    /// The registered end-to-end metrics, measured untraced.
    pub end_to_end: Metrics,
    /// The registered per-layer metrics (traced runs only).
    pub per_layer: Metrics,
    /// The workload's figures under the names its definition uses
    /// (`edges_per_s`, `query_p99_us`, `insert_p50_us`, ...), printed as
    /// report lines.
    pub named: Metrics,
    /// `key=value` provenance and configuration actually in effect.
    pub provenance: Vec<(String, String)>,
    /// The traced run's spans, written out at exit.
    pub trace_spans: Option<crate::trace::Spans>,
}

impl Outcome {
    pub fn correct(&self) -> bool {
        self.failures.mismatch == 0
    }
}

/// The last stdout line: `{"correct", "attempted", "failed", "metrics"}`.
pub fn result_json(correct: bool, attempted: u64, failed: u64, metrics: &Metrics) -> String {
    let body: Vec<String> = metrics
        .0
        .iter()
        .map(|m| {
            format!(
                "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                m.name,
                num(m.value),
                m.unit
            )
        })
        .collect();
    format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        body.join(", ")
    )
}

/// A JSON number with every digit Rust's shortest round-trip form keeps.
/// Non-finite values cannot appear in JSON; they are written as 0 and the
/// caller has already refused them (see `main`).
fn num(v: f64) -> String {
    if !v.is_finite() {
        return "0".to_string();
    }
    let s = format!("{v}");
    if s.contains('.') || s.contains('e') {
        s
    } else {
        format!("{s}.0")
    }
}

/// A ratio that is 0 when its base is empty.
pub fn ratio(num: f64, base: f64) -> f64 {
    if base > 0.0 {
        num / base
    } else {
        0.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn result_line_has_exactly_the_contract_keys() {
        let mut m = Metrics::default();
        m.put("latency_p50_us", 612.25, "us");
        m.put("setup_s", 2.0, "s");
        assert_eq!(
            result_json(true, 10, 0, &m),
            "{\"correct\": true, \"attempted\": 10, \"failed\": 0, \"metrics\": \
             {\"latency_p50_us\": {\"value\": 612.25, \"unit\": \"us\"}, \
             \"setup_s\": {\"value\": 2.0, \"unit\": \"s\"}}}"
        );
    }

    #[test]
    fn failures_split_by_kind() {
        let mut f = Failures::default();
        f.record(&TgError::DeadlineExceeded);
        f.record(&TgError::InvalidArgument("x".into()));
        f.mismatch += 2;
        assert_eq!((f.deadline, f.other, f.overloaded, f.total()), (1, 1, 0, 4));
    }
}
