//! The served workloads' clients: an open-loop sender that follows a
//! precomputed schedule, and a closed loop of `nproc` clients that each
//! wait for a reply before sending again. Both drive `TgServer` only
//! through `submit`, `Ticket::wait` and `submit_edge`, and both use at
//! most two threads of the benchmark's own.

use crate::loadgen::{micros, wait_until, WritePlan};
use crate::report::Failures;
use crate::trace::{next_id, Spans};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{mpsc, Mutex};
use std::time::{Duration, Instant};
use tg_graph::{Edge, NodeId, Time};
use tg_serve::{TgServer, Ticket};

/// One operation of a workload.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum Op {
    Query { node: NodeId, time: Time },
    Write(Edge),
}

/// What a load phase observed.
#[derive(Debug, Default)]
pub struct Load {
    pub queries: u64,
    pub writes: u64,
    /// Queries and writes that completed without error.
    pub succeeded: u64,
    /// Queries answered with a row.
    pub answered: u64,
    pub failures: Failures,
    /// Query latency: open loop from the scheduled send time, closed loop
    /// from the `submit` call, to the observed completion (µs).
    pub query_us: Vec<f64>,
    /// Open loop: write latency from the scheduled time to the return of
    /// `submit_edge` (µs).
    pub write_us: Vec<f64>,
    /// Duration of `TgServer::submit` calls (µs).
    pub submit_call_us: Vec<f64>,
    /// Duration of `TgServer::submit_edge` calls (µs).
    pub write_call_us: Vec<f64>,
    /// How late each open-loop send ran against its schedule (µs).
    pub lag_us: Vec<f64>,
    /// Every `sample_every`-th successful query's served row.
    pub rows: Vec<(NodeId, Time, Vec<f32>)>,
    pub elapsed_s: f64,
    pub spans: Spans,
}

impl Load {
    fn absorb(&mut self, o: Load) {
        self.queries += o.queries;
        self.writes += o.writes;
        self.succeeded += o.succeeded;
        self.answered += o.answered;
        self.failures.add(&o.failures);
        self.query_us.extend(o.query_us);
        self.write_us.extend(o.write_us);
        self.submit_call_us.extend(o.submit_call_us);
        self.write_call_us.extend(o.write_call_us);
        self.lag_us.extend(o.lag_us);
        self.rows.extend(o.rows);
        self.spans.absorb(o.spans);
    }

    pub fn ops(&self) -> u64 {
        self.queries + self.writes
    }
}

struct InFlight {
    trace: u64,
    root: u64,
    from: Instant,
    node: NodeId,
    time: Time,
    ticket: Ticket,
    keep_row: bool,
}

/// Sends `ops[i]` at `start + schedule[i]` from this thread while a second
/// thread waits on tickets in send order. A write runs inline on the
/// sender, so a slow `submit_edge` delays later sends — and, since each
/// operation is timed from its scheduled time, that delay is counted.
pub fn open_loop(
    server: &TgServer,
    schedule: &[Duration],
    ops: &[Op],
    sample_every: usize,
    traced: bool,
) -> Load {
    let (tx, rx) = mpsc::channel::<InFlight>();
    let sample_every = sample_every.max(1);
    let began = Instant::now();
    let mut load = std::thread::scope(|scope| {
        let collector = scope.spawn(move || {
            let mut got = Load {
                spans: Spans::new(traced),
                ..Load::default()
            };
            for f in rx {
                let wait_start = Instant::now();
                let result = f.ticket.wait();
                let done = Instant::now();
                got.spans.record(
                    (f.trace, next_id(), f.root),
                    "Ticket::wait",
                    wait_start,
                    done,
                );
                got.spans
                    .record((f.trace, f.root, 0), "query", f.from, done);
                match result {
                    Ok(row) => {
                        got.succeeded += 1;
                        got.answered += 1;
                        got.query_us.push(micros(done - f.from));
                        if f.keep_row {
                            got.rows.push((f.node, f.time, row));
                        }
                    }
                    Err(e) => got.failures.record(&e),
                }
            }
            got
        });

        let mut sent = Load {
            spans: Spans::new(traced),
            ..Load::default()
        };
        let start = Instant::now() + Duration::from_millis(1);
        for (i, (&at, op)) in schedule.iter().zip(ops).enumerate() {
            let due = start + at;
            sent.lag_us.push(micros(wait_until(due)));
            let trace = next_id();
            let root = next_id();
            match *op {
                Op::Query { node, time } => {
                    sent.queries += 1;
                    let call = Instant::now();
                    let submitted = server.submit(node, time);
                    let back = Instant::now();
                    sent.submit_call_us.push(micros(back - call));
                    sent.spans
                        .record((trace, next_id(), root), "TgServer::submit", call, back);
                    match submitted {
                        Ok(ticket) => {
                            let keep_row = i.is_multiple_of(sample_every);
                            let f = InFlight {
                                trace,
                                root,
                                from: due,
                                node,
                                time,
                                ticket,
                                keep_row,
                            };
                            // The collector only ends after this loop drops `tx`.
                            let _ = tx.send(f);
                        }
                        Err(e) => {
                            sent.failures.record(&e);
                            sent.spans.record((trace, root, 0), "query", due, back);
                        }
                    }
                }
                Op::Write(e) => {
                    sent.writes += 1;
                    let call = Instant::now();
                    let r = server.submit_edge(e.src, e.dst, e.time);
                    let back = Instant::now();
                    sent.write_us.push(micros(back - due));
                    sent.write_call_us.push(micros(back - call));
                    sent.spans.record(
                        (trace, next_id(), root),
                        "TgServer::submit_edge",
                        call,
                        back,
                    );
                    sent.spans.record((trace, root, 0), "write", due, back);
                    match r {
                        Ok(_) => sent.succeeded += 1,
                        Err(err) => sent.failures.record(&err),
                    }
                }
            }
        }
        drop(tx);
        match collector.join() {
            Ok(got) => sent.absorb(got),
            Err(_) => sent.failures.other += 1,
        }
        sent
    });
    load.elapsed_s = began.elapsed().as_secs_f64();
    load
}

/// The live-edge side of a closed loop: the next unwritten edge of the
/// live suffix and the newest edge the graph holds.
pub struct Writer<'a> {
    pub plan: WritePlan,
    pub suffix: &'a [Edge],
    pub state: Mutex<(usize, Edge)>,
}

impl<'a> Writer<'a> {
    pub fn new(plan: WritePlan, suffix: &'a [Edge], newest: Edge) -> Self {
        Self {
            plan,
            suffix,
            state: Mutex::new((0, newest)),
        }
    }

    pub fn written(&self) -> usize {
        self.state.lock().map_or(0, |s| s.0)
    }

    fn newest(&self) -> Edge {
        self.state
            .lock()
            .expect("writer state lock poisoned by a client panic")
            .1
    }
}

/// Closed loop: `clients` threads each send one operation and wait for it,
/// until `window` passes or `budget` operations have been claimed. The
/// global operation index picks writes through the writer's plan, so the
/// write share holds for whatever prefix of operations ran; writes claim
/// live edges in stream order under one lock. Running out of live edges is
/// an error, never a silent switch to a query.
#[allow(clippy::too_many_arguments)]
pub fn closed_loop(
    server: &TgServer,
    clients: usize,
    window: Duration,
    budget: usize,
    writer: Option<&Writer<'_>>,
    pick: &(dyn Fn(&mut StdRng, &Edge) -> (NodeId, Time) + Sync),
    seed: u64,
    sample_every: usize,
    traced: bool,
) -> Result<Load, String> {
    let claimed = AtomicUsize::new(0);
    let began = Instant::now();
    let end = began + window;
    let no_edge = Edge {
        src: 0,
        dst: 0,
        time: 0.0,
        eid: 0,
    };
    let sample_every = sample_every.max(1);
    let per_client: Vec<Result<Load, String>> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..clients)
            .map(|c| {
                let claimed = &claimed;
                scope.spawn(move || -> Result<Load, String> {
                    let mut rng = StdRng::seed_from_u64(seed ^ (0xc11e_0000 + c as u64));
                    let mut load = Load { spans: Spans::new(traced), ..Load::default() };
                    while Instant::now() < end {
                        // relaxed: a ticket counter, publishes no other data.
                        let g = claimed.fetch_add(1, Ordering::Relaxed);
                        if g >= budget {
                            break;
                        }
                        let (trace, root) = (next_id(), next_id());
                        if let Some(w) = writer.filter(|w| w.plan.is_write(g)) {
                            load.writes += 1;
                            let mut st = w.state.lock().map_err(|_| "writer lock poisoned")?;
                            let Some(&e) = w.suffix.get(st.0) else {
                                return Err(format!(
                                    "live suffix exhausted after {} edges: the run asked for more writes than it was sized for",
                                    st.0
                                ));
                            };
                            let call = Instant::now();
                            let r = server.submit_edge(e.src, e.dst, e.time);
                            let back = Instant::now();
                            *st = (st.0 + 1, e);
                            drop(st);
                            load.write_call_us.push(micros(back - call));
                            load.spans.record((trace, next_id(), root), "TgServer::submit_edge", call, back);
                            load.spans.record((trace, root, 0), "write", call, back);
                            match r {
                                Ok(_) => load.succeeded += 1,
                                Err(err) => load.failures.record(&err),
                            }
                            continue;
                        }
                        let newest = writer.map_or(no_edge, Writer::newest);
                        let (node, time) = pick(&mut rng, &newest);
                        load.queries += 1;
                        let call = Instant::now();
                        let submitted = server.submit(node, time);
                        let back = Instant::now();
                        load.submit_call_us.push(micros(back - call));
                        load.spans.record((trace, next_id(), root), "TgServer::submit", call, back);
                        let result = submitted.and_then(Ticket::wait);
                        let done = Instant::now();
                        load.spans.record((trace, next_id(), root), "Ticket::wait", back, done);
                        load.spans.record((trace, root, 0), "query", call, done);
                        match result {
                            Ok(row) => {
                                load.succeeded += 1;
                                load.answered += 1;
                                load.query_us.push(micros(done - call));
                                if g.is_multiple_of(sample_every) {
                                    load.rows.push((node, time, row));
                                }
                            }
                            Err(e) => load.failures.record(&e),
                        }
                    }
                    Ok(load)
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| {
                h.join()
                    .unwrap_or_else(|_| Err("client thread panicked".to_string()))
            })
            .collect()
    });
    let mut load = Load {
        spans: Spans::new(traced),
        ..Load::default()
    };
    for l in per_client {
        load.absorb(l?);
    }
    load.elapsed_s = began.elapsed().as_secs_f64();
    Ok(load)
}

/// The time just after `t`: a query there sees every edge at or before `t`
/// (sampling keeps neighbours strictly before the query time).
pub fn just_after(t: Time) -> Time {
    let next = Time::from_bits(t.to_bits() + 1);
    if t >= 0.0 && next.is_finite() {
        next
    } else {
        t + 1.0
    }
}
