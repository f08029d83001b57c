//! Serving-layer counters: admission, batching, dedup, degradation, and
//! the online end-to-end latency distribution.

use crate::ingest::TRACKED_SWEEP_LAYERS;
use std::sync::atomic::{AtomicU64, Ordering};
use tg_telemetry::{HistogramSnapshot, LatencyHistogram};

/// Relaxed-loads an atomic counter bin array into its snapshot form.
fn snapshot_bins(bins: &[AtomicU64; TRACKED_SWEEP_LAYERS]) -> [u64; TRACKED_SWEEP_LAYERS] {
    let mut out = [0u64; TRACKED_SWEEP_LAYERS];
    for (o, bin) in out.iter_mut().zip(bins) {
        *o = bin.load(Ordering::Relaxed);
    }
    out
}

/// Shared atomic counters bumped by client handles, the batcher, and the
/// workers. Read them through [`ServeCounters::snapshot`].
///
/// Accounting identity: every submission attempt that is not shed by
/// backpressure is recorded as `submitted` *before* any terminal counter,
/// so any snapshot satisfies `submitted >= completed + rejected_deadline`
/// (strict once a micro-batch fails with an engine error, since those
/// requests resolve without bumping either terminal counter).
#[derive(Debug, Default)]
pub struct ServeCounters {
    submitted: AtomicU64,
    rejected_overload: AtomicU64,
    rejected_deadline: AtomicU64,
    completed: AtomicU64,
    batches: AtomicU64,
    batched_requests: AtomicU64,
    unique_rows: AtomicU64,
    degraded_batches: AtomicU64,
    edges_ingested: AtomicU64,
    entries_invalidated: AtomicU64,
    entries_retained: AtomicU64,
    layer_removed: [AtomicU64; TRACKED_SWEEP_LAYERS],
    layer_retained: [AtomicU64; TRACKED_SWEEP_LAYERS],
    latency: LatencyHistogram,
}

impl ServeCounters {
    /// Records one submission attempt that was not shed by backpressure —
    /// both admitted requests and submit-time deadline rejections count
    /// (the latter so `submitted >= completed + rejected_deadline` holds).
    ///
    /// # Invariants
    ///
    /// - Monotone: counters only grow; a snapshot is always consistent with
    ///   some interleaving of recorded events.
    /// - Called before the matching terminal counter
    ///   ([`ServeCounters::record_completed`] /
    ///   [`ServeCounters::record_deadline`]), preserving the identity
    ///   `submitted >= completed + rejected_deadline` in every snapshot.
    pub fn record_submitted(&self) {
        self.submitted.fetch_add(1, Ordering::Relaxed);
    }

    /// Records one request shed by the full admission queue.
    ///
    /// # Invariants
    ///
    /// - Monotone; never decremented.
    pub fn record_overload(&self) {
        self.rejected_overload.fetch_add(1, Ordering::Relaxed);
    }

    /// Records `n` requests rejected because their deadline expired.
    ///
    /// # Invariants
    ///
    /// - Monotone; never decremented.
    pub fn record_deadline(&self, n: u64) {
        self.rejected_deadline.fetch_add(n, Ordering::Relaxed);
    }

    /// Records `n` requests completed with an embedding.
    ///
    /// # Invariants
    ///
    /// - Monotone; never decremented.
    pub fn record_completed(&self, n: u64) {
        self.completed.fetch_add(n, Ordering::Relaxed);
    }

    /// Records one executed micro-batch of `requests` requests that
    /// coalesced to `unique` engine rows, run in (non-)degraded mode.
    ///
    /// # Invariants
    ///
    /// - `unique <= requests` (a batch never grows under dedup).
    /// - All three batch counters move together, so ratios derived from a
    ///   snapshot stay in `[0, 1]`.
    pub fn record_batch(&self, requests: u64, unique: u64, degraded: bool) {
        debug_assert!(unique <= requests);
        self.batches.fetch_add(1, Ordering::Relaxed);
        self.batched_requests.fetch_add(requests, Ordering::Relaxed);
        self.unique_rows.fetch_add(unique, Ordering::Relaxed);
        if degraded {
            self.degraded_batches.fetch_add(1, Ordering::Relaxed);
        }
    }

    /// Records one edge accepted by `submit_edge` into the live graph.
    ///
    /// # Invariants
    ///
    /// - Monotone; never decremented.
    /// - Bumped after the append is durable in the delta log, so
    ///   `edges_ingested` never exceeds the live graph's own count.
    pub fn record_edge_ingested(&self) {
        self.edges_ingested.fetch_add(1, Ordering::Relaxed);
    }

    /// Records the outcome of one targeted-invalidation sweep: `removed`
    /// cached entries dropped as potentially stale, `retained` examined
    /// and proven fresh.
    ///
    /// # Invariants
    ///
    /// - Monotone; both counters only grow.
    /// - Replay sweeps report with `retained = 0` so the retention ratio
    ///   reflects submit-time precision, not idempotent re-examination.
    pub fn record_invalidation_sweep(&self, removed: u64, retained: u64) {
        self.entries_invalidated.fetch_add(removed, Ordering::Relaxed);
        self.entries_retained.fetch_add(retained, Ordering::Relaxed);
    }

    /// Records one layer bin of a sweep's outcome (`slot` as defined by
    /// `SweepReport::slot`: layer `l` → bin `min(l - 1, 3)`), so telemetry
    /// can attribute invalidation pressure and fingerprint-driven
    /// retention per cache layer. Out-of-range slots are ignored.
    ///
    /// # Invariants
    ///
    /// - Monotone; both per-layer counters only grow.
    /// - The per-layer bins partition the totals: callers bump this in
    ///   lockstep with [`ServeCounters::record_invalidation_sweep`] (replay
    ///   sweeps keep the `retained = 0` convention per bin too), so
    ///   summing the bins of a quiescent snapshot reproduces
    ///   `entries_invalidated` / `entries_retained`.
    pub fn record_layer_sweep(&self, slot: usize, removed: u64, retained: u64) {
        if let (Some(r), Some(k)) = (self.layer_removed.get(slot), self.layer_retained.get(slot)) {
            r.fetch_add(removed, Ordering::Relaxed);
            k.fetch_add(retained, Ordering::Relaxed);
        }
    }

    /// Records one completed request's end-to-end (submit-to-fulfill)
    /// latency. Only successful completions are sampled, so the histogram
    /// describes the latency a satisfied client observed.
    ///
    /// # Invariants
    ///
    /// - Monotone; wait-free (log2-bucketed `fetch_add`s, no locks).
    pub fn record_latency(&self, ns: u64) {
        self.latency.record(ns);
    }

    /// A point-in-time copy of every counter.
    pub fn snapshot(&self) -> ServeStats {
        ServeStats {
            submitted: self.submitted.load(Ordering::Relaxed),
            rejected_overload: self.rejected_overload.load(Ordering::Relaxed),
            rejected_deadline: self.rejected_deadline.load(Ordering::Relaxed),
            completed: self.completed.load(Ordering::Relaxed),
            batches: self.batches.load(Ordering::Relaxed),
            batched_requests: self.batched_requests.load(Ordering::Relaxed),
            unique_rows: self.unique_rows.load(Ordering::Relaxed),
            degraded_batches: self.degraded_batches.load(Ordering::Relaxed),
            edges_ingested: self.edges_ingested.load(Ordering::Relaxed),
            entries_invalidated: self.entries_invalidated.load(Ordering::Relaxed),
            entries_retained: self.entries_retained.load(Ordering::Relaxed),
            layer_removed: snapshot_bins(&self.layer_removed),
            layer_retained: snapshot_bins(&self.layer_retained),
            latency: self.latency.snapshot(),
        }
    }
}

/// A snapshot of the serving layer's counters.
///
/// Identity: `submitted >= completed + rejected_deadline` in every
/// snapshot (see [`ServeCounters`]); the gap is requests still in flight
/// plus requests resolved by a micro-batch engine error.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ServeStats {
    /// Submission attempts not shed by backpressure: requests admitted to
    /// the queue plus requests rejected at submit time because their
    /// deadline had already expired.
    pub submitted: u64,
    /// Requests shed with [`tg_error::TgError::Overloaded`].
    pub rejected_overload: u64,
    /// Requests rejected with [`tg_error::TgError::DeadlineExceeded`].
    pub rejected_deadline: u64,
    /// Requests completed with an embedding row.
    pub completed: u64,
    /// Micro-batches executed.
    pub batches: u64,
    /// Requests that entered a micro-batch (post-deadline-filter).
    pub batched_requests: u64,
    /// Engine rows actually computed/looked up after cross-request dedup.
    pub unique_rows: u64,
    /// Micro-batches run in degraded (store-skipping) mode.
    pub degraded_batches: u64,
    /// Edges accepted by `submit_edge` into the live graph.
    pub edges_ingested: u64,
    /// Cached entries dropped by targeted invalidation sweeps.
    pub entries_invalidated: u64,
    /// Cached entries examined by a submit-time sweep and proven fresh.
    pub entries_retained: u64,
    /// Per-layer breakdown of `entries_invalidated`: bin `i` holds cache
    /// layer `i + 1`, with layers past the fourth folded into the last bin.
    pub layer_removed: [u64; TRACKED_SWEEP_LAYERS],
    /// Per-layer breakdown of `entries_retained`, same binning. Deep bins
    /// (`i >= 1`) count entries the pre-fingerprint conservative sweep
    /// would have removed.
    pub layer_retained: [u64; TRACKED_SWEEP_LAYERS],
    /// Online end-to-end (submit-to-fulfill) latency distribution of
    /// completed requests, log2-bucketed nanoseconds.
    pub latency: HistogramSnapshot,
}

impl ServeStats {
    /// Fraction of batched requests eliminated by cross-request dedup
    /// (0.0 when nothing has been batched — never NaN).
    pub fn cross_dedup_ratio(&self) -> f64 {
        if self.batched_requests == 0 {
            0.0
        } else {
            1.0 - self.unique_rows as f64 / self.batched_requests as f64
        }
    }

    /// Mean requests per executed micro-batch (0.0 before the first batch).
    pub fn mean_batch_size(&self) -> f64 {
        if self.batches == 0 {
            0.0
        } else {
            self.batched_requests as f64 / self.batches as f64
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ratios_are_zero_not_nan_when_fresh() {
        let s = ServeStats::default();
        assert_eq!(s.cross_dedup_ratio(), 0.0);
        assert_eq!(s.mean_batch_size(), 0.0);
        assert!(!s.cross_dedup_ratio().is_nan());
    }

    #[test]
    fn counters_accumulate_into_snapshot() {
        let c = ServeCounters::default();
        c.record_submitted();
        c.record_submitted();
        c.record_overload();
        c.record_deadline(1);
        c.record_batch(4, 3, true);
        c.record_batch(6, 3, false);
        c.record_completed(10);
        c.record_latency(1_500);
        c.record_latency(90_000);
        let s = c.snapshot();
        assert_eq!(s.latency.count(), 2);
        assert_eq!(s.latency.sum_ns(), 91_500);
        assert!(s.latency.p99_ns() >= 90_000);
        assert_eq!(s.submitted, 2);
        assert_eq!(s.rejected_overload, 1);
        assert_eq!(s.rejected_deadline, 1);
        assert_eq!(s.completed, 10);
        assert_eq!(s.batches, 2);
        assert_eq!(s.degraded_batches, 1);
        assert!((s.cross_dedup_ratio() - 0.4).abs() < 1e-12);
        assert!((s.mean_batch_size() - 5.0).abs() < 1e-12);
    }

    #[test]
    fn layer_sweep_bins_partition_the_totals() {
        let c = ServeCounters::default();
        // One sweep: 3 removed / 5 retained on layer 1, 2 / 7 on layer 2.
        c.record_invalidation_sweep(3 + 2, 5 + 7);
        c.record_layer_sweep(0, 3, 5);
        c.record_layer_sweep(1, 2, 7);
        c.record_layer_sweep(99, 1, 1); // out of range: ignored, not misfiled
        let s = c.snapshot();
        assert_eq!(s.layer_removed, [3, 2, 0, 0]);
        assert_eq!(s.layer_retained, [5, 7, 0, 0]);
        assert_eq!(s.layer_removed.iter().sum::<u64>(), s.entries_invalidated);
        assert_eq!(s.layer_retained.iter().sum::<u64>(), s.entries_retained);
    }
}
