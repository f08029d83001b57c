#![cfg(loom)]
//! Loom models of the three cache/serve hot-path protocols (see DESIGN.md
//! "Concurrency model"). Compiled only under `--cfg loom`:
//!
//! ```sh
//! RUSTFLAGS="--cfg loom" cargo test --test loom_concurrency --release
//! ```
//!
//! `LOOM_ITERATIONS` (default 64) controls how many seeded schedules each
//! model explores. The vendored `loom` is a randomized-interleaving shim,
//! not exhaustive DPOR — see vendor/loom's crate docs — so these models
//! drive the *real* `tgopt::EmbedCache` and `tg_serve::BoundedQueue` with
//! real threads; only the Ticket/Slot protocol is mirrored (the `Slot`
//! type is `pub(crate)`).

use loom::sync::atomic::{AtomicUsize, Ordering};
use loom::sync::{Arc, Condvar, Mutex};
use loom::thread;
use std::time::Duration;
use tg_graph::{Edge, LiveGraph, NodeId, TemporalGraph};
use tg_serve::BoundedQueue;
use tg_telemetry::LatencyHistogram;
use tg_tensor::Tensor;
use tgopt::{pack_key, EmbedCache};

/// Mirror of `tg_serve::request::Slot`'s first-write-wins protocol
/// (`fulfill` + consuming `wait`); the real type is crate-private.
struct SlotModel {
    cell: Mutex<Option<u32>>,
    ready: Condvar,
}

impl SlotModel {
    fn new() -> Self {
        Self { cell: Mutex::new(None), ready: Condvar::new() }
    }

    /// Returns true if this call's value won the slot.
    fn fulfill(&self, value: u32) -> bool {
        let mut cell = self.cell.lock().unwrap();
        if cell.is_none() {
            *cell = Some(value);
            drop(cell);
            self.ready.notify_all();
            true
        } else {
            false
        }
    }

    fn wait(&self) -> u32 {
        let mut cell = self.cell.lock().unwrap();
        loop {
            if let Some(v) = cell.take() {
                return v;
            }
            cell = self.ready.wait(cell).unwrap();
        }
    }
}

/// (a) Ticket/Slot scatter: two racing fulfillments (a batch result vs a
/// deadline rejection) produce exactly one winner and the waiter observes
/// exactly that winner's value — no lost write, no double completion.
#[test]
fn slot_first_write_wins_under_racing_fulfillments() {
    static ITERS: AtomicUsize = AtomicUsize::new(0);
    loom::model(|| {
        ITERS.fetch_add(1, Ordering::SeqCst);
        let slot = Arc::new(SlotModel::new());
        let s1 = Arc::clone(&slot);
        let s2 = Arc::clone(&slot);
        let t1 = thread::spawn(move || s1.fulfill(1));
        let t2 = thread::spawn(move || s2.fulfill(2));
        let w1 = t1.join().unwrap();
        let w2 = t2.join().unwrap();
        // Exactly one fulfillment wins; the other is ignored.
        assert!(w1 ^ w2, "exactly one writer must win (got w1={w1}, w2={w2})");
        let observed = slot.wait();
        let winner = if w1 { 1 } else { 2 };
        assert_eq!(observed, winner, "waiter must observe the winning write");
    });
    assert!(ITERS.load(Ordering::SeqCst) > 1, "model must explore more than one schedule");
}

/// (e) LiveGraph epoch publish vs reader pin: a writer appends edges —
/// crossing the compaction threshold mid-stream so a generation swap
/// races the readers — while one thread repeatedly takes fresh views and
/// a view pinned before the first append is held across the whole run.
/// Epochs only advance, every view is internally consistent (each
/// visible edge contributes exactly two adjacency postings, so a
/// half-published append would break the identity), and the pinned
/// snapshot is immutable even after compaction replaced the generation
/// beneath it.
#[test]
fn live_graph_epoch_publish_never_tears_a_view() {
    static ITERS: AtomicUsize = AtomicUsize::new(0);
    const N_NODES: u32 = 4;

    fn postings(v: &tg_graph::GraphView) -> u64 {
        (0..N_NODES).map(|n| v.hist_len_before(n as NodeId, 1e9) as u64).sum()
    }

    loom::model(|| {
        ITERS.fetch_add(1, Ordering::SeqCst);
        let mut base = TemporalGraph::with_nodes(N_NODES as usize);
        base.insert(&Edge { src: 0, dst: 1, time: 1.0, eid: 0 });
        base.insert(&Edge { src: 1, dst: 2, time: 2.0, eid: 1 });
        base.freeze();
        let live = Arc::new(LiveGraph::new(base).with_compact_threshold(2));

        let pinned = live.view();
        assert_eq!(pinned.num_edges(), 2);

        let g = Arc::clone(&live);
        let writer = thread::spawn(move || {
            for i in 0..3u32 {
                // Serialized appends get contiguous sequence numbers; the
                // second one crosses the threshold and compacts inline.
                let seq = g.append(&Edge {
                    src: i % N_NODES,
                    dst: (i + 2) % N_NODES,
                    time: 3.0 + i as f32,
                    eid: 2 + i,
                });
                assert_eq!(seq, 2 + u64::from(i), "appends must publish contiguous seqs");
                thread::yield_now();
            }
        });

        let g = Arc::clone(&live);
        let reader = thread::spawn(move || {
            let mut last = 0u64;
            for _ in 0..4 {
                let v = g.view();
                let epoch = v.epoch();
                assert!(epoch >= last, "epoch went backwards: {last} -> {epoch}");
                last = epoch;
                assert_eq!(v.num_edges(), epoch, "view visibility must equal its epoch");
                assert_eq!(
                    postings(&v),
                    2 * v.num_edges(),
                    "torn view at epoch {epoch}: postings do not match visible edges"
                );
                thread::yield_now();
            }
        });

        writer.join().unwrap();
        reader.join().unwrap();

        // The pinned pre-write snapshot never moved, even though the
        // writer's inline compaction swapped the generation under it.
        assert_eq!(pinned.num_edges(), 2, "pinned view must stay frozen");
        assert_eq!(postings(&pinned), 4, "pinned view postings must stay frozen");
        let final_view = live.view();
        assert_eq!(final_view.num_edges(), 5);
        assert_eq!(postings(&final_view), 10);
        assert!(live.ingest_stats().compactions >= 1, "threshold 2 must force a compaction");
    });
    assert!(ITERS.load(Ordering::SeqCst) > 1, "model must explore more than one schedule");
}

/// (b) EmbedCache store/lookup vs `invalidate_node`: after a writer, a
/// reader, and an invalidator race, the atomic accounting (`len()`)
/// agrees with the actual live entries, never underflows (an underflow
/// wraps a usize and would blow the `<= limit` bound), and the capacity
/// limit holds.
#[test]
fn cache_accounting_survives_store_lookup_invalidate_race() {
    static ITERS: AtomicUsize = AtomicUsize::new(0);
    loom::model(|| {
        ITERS.fetch_add(1, Ordering::SeqCst);
        let cache = Arc::new(EmbedCache::new(4, 2));

        let c = Arc::clone(&cache);
        let writer = thread::spawn(move || {
            for t in 0..3u32 {
                let keys = [pack_key(7, t as f32), pack_key(100 + t, 1.0)];
                let h = Tensor::from_vec(2, 2, vec![t as f32, 1.0, t as f32, 2.0]);
                c.store(&keys, &h).unwrap();
            }
        });

        let c = Arc::clone(&cache);
        let invalidator = thread::spawn(move || {
            let mut removed = 0;
            for _ in 0..2 {
                removed += c.invalidate_node(7);
                thread::yield_now();
            }
            removed
        });

        let c = Arc::clone(&cache);
        let reader = thread::spawn(move || {
            let mut out = Tensor::zeros(1, 2);
            for t in 0..3u32 {
                let hit = c.lookup(&[pack_key(7, t as f32)], &mut out).unwrap();
                if hit[0] {
                    // A hit row is a fully-written row, never a torn one.
                    assert_eq!(out.row(0), &[t as f32, 1.0], "lookup returned a torn row");
                }
            }
        });

        writer.join().unwrap();
        invalidator.join().unwrap();
        reader.join().unwrap();

        let live = cache.export_fifo_order().len();
        assert_eq!(
            cache.len(),
            live,
            "atomic count diverged from live entries (underflow or lost accounting)"
        );
        assert!(cache.len() <= cache.limit(), "capacity bound violated: {}", cache.len());
    });
    assert!(ITERS.load(Ordering::SeqCst) > 1, "model must explore more than one schedule");
}

/// (c) BoundedQueue close/backpressure handshake: every accepted push is
/// popped exactly once (no lost or duplicated items), rejected pushes are
/// really rejected, close wakes the blocked consumer, and the backlog
/// never exceeds capacity.
#[test]
fn bounded_queue_close_backpressure_handshake() {
    static ITERS: AtomicUsize = AtomicUsize::new(0);
    loom::model(|| {
        ITERS.fetch_add(1, Ordering::SeqCst);
        let queue: Arc<BoundedQueue<u32>> = Arc::new(BoundedQueue::new(2));

        let producers: Vec<_> = (0..2u32)
            .map(|p| {
                let q = Arc::clone(&queue);
                thread::spawn(move || {
                    let mut accepted = Vec::new();
                    for i in 0..3u32 {
                        let item = p * 10 + i;
                        if q.push(item).is_ok() {
                            accepted.push(item);
                        }
                        assert!(q.len() <= q.capacity(), "backlog exceeded capacity");
                        thread::yield_now();
                    }
                    accepted
                })
            })
            .collect();

        let q = Arc::clone(&queue);
        let consumer = thread::spawn(move || {
            let mut popped = Vec::new();
            while let Some(wave) = q.pop_wave(2, Duration::ZERO) {
                assert!(!wave.is_empty(), "pop_wave returned an empty wave");
                assert!(wave.len() <= 2, "wave exceeded max");
                popped.extend(wave);
            }
            popped
        });

        let mut accepted: Vec<u32> =
            producers.into_iter().flat_map(|t| t.join().unwrap()).collect();
        // Consumer exits only once the queue is closed *and* drained.
        queue.close();
        assert!(queue.is_closed());
        assert!(queue.push(99).is_err(), "push after close must be rejected");

        let mut popped = consumer.join().unwrap();
        accepted.sort_unstable();
        popped.sort_unstable();
        assert_eq!(popped, accepted, "every accepted item pops exactly once");
        assert_eq!(queue.len(), 0, "drained queue must account to empty");
    });
    assert!(ITERS.load(Ordering::SeqCst) > 1, "model must explore more than one schedule");
}

/// (d) Latency histogram conservation: concurrent `record()`s from two
/// recorder threads race against a `merge_from` into a sink histogram.
/// Every recorded sample must land in exactly one bucket (count equals the
/// bucket sum), nothing is lost or double-counted across the merge, and a
/// mid-race snapshot is never ahead of what was recorded.
#[test]
fn latency_histogram_conserves_counts_under_concurrent_record_and_merge() {
    static ITERS: AtomicUsize = AtomicUsize::new(0);
    loom::model(|| {
        ITERS.fetch_add(1, Ordering::SeqCst);
        let hist = Arc::new(LatencyHistogram::new());
        let sink = Arc::new(LatencyHistogram::new());

        let recorders: Vec<_> = (0..2u32)
            .map(|r| {
                let h = Arc::clone(&hist);
                thread::spawn(move || {
                    // Distinct magnitudes per thread so both land in
                    // different log2 buckets (no masking of lost updates
                    // by same-bucket collisions).
                    for i in 0..3u64 {
                        h.record((u64::from(r) + 1) * 1000 + i);
                        thread::yield_now();
                    }
                })
            })
            .collect();

        let h = Arc::clone(&hist);
        let s = Arc::clone(&sink);
        let merger = thread::spawn(move || {
            // Mid-race observation: `record()` bumps the bucket before the
            // `count` atomic, so a snapshot taken between the two sees the
            // bucket sum ahead of `count` by at most one per in-flight
            // recorder — never behind, never more than 2 ahead here.
            let mid = h.snapshot();
            let bucket_sum = mid.buckets().iter().sum::<u64>();
            assert!(mid.count() <= 6, "snapshot counted more records than issued");
            assert!(bucket_sum <= 6, "snapshot bucketed more records than issued");
            assert!(
                bucket_sum >= mid.count() && bucket_sum - mid.count() <= 2,
                "bucket sum {bucket_sum} vs count {} exceeds in-flight bound",
                mid.count()
            );
            s.merge_from(&h);
            thread::yield_now();
        });

        for t in recorders {
            t.join().unwrap();
        }
        merger.join().unwrap();

        // Quiescent: everything recorded is in `hist`; the sink holds a
        // prefix of it (whatever the merge observed), never more.
        let final_snap = hist.snapshot();
        assert_eq!(final_snap.count(), 6, "records lost or double-counted");
        assert_eq!(
            final_snap.count(),
            final_snap.buckets().iter().sum::<u64>(),
            "bucket sum diverged from count"
        );
        assert_eq!(
            final_snap.sum_ns(),
            1000 + 1001 + 1002 + 2000 + 2001 + 2002,
            "sum_ns diverged from the recorded samples"
        );
        // The sink holds whatever prefix the merge observed — a mid-race
        // source snapshot can be up to 2 bucket-bumps ahead of its count.
        let merged = sink.snapshot();
        let merged_sum = merged.buckets().iter().sum::<u64>();
        assert!(merged_sum <= 6, "merge manufactured records");
        assert!(
            merged_sum >= merged.count() && merged_sum - merged.count() <= 2,
            "merged bucket sum {merged_sum} vs count {} exceeds in-flight bound",
            merged.count()
        );
    });
    assert!(ITERS.load(Ordering::SeqCst) > 1, "model must explore more than one schedule");
}
