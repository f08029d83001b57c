//! The repository benchmark.
//!
//! ```sh
//! cargo run --release --offline -q --manifest-path perfbench/Cargo.toml -- \
//!     --workload replay --seed 1 --seconds 10 --trace 0
//! ```
//!
//! Runs one workload (`replay`, `serve-read` or `stream-mixed`) through the
//! crates' public APIs with their shipped defaults, checks the outputs
//! against the workload's referee, and prints a report: provenance,
//! operation accounting, the workload's own named figures, then as the
//! last line one JSON object `{"correct", "attempted", "failed",
//! "metrics"}`. With `--trace 0` the metrics are the end-to-end set
//! (`report::END_TO_END`); with `--trace 1` the run also records spans and
//! the engine stage recorder and reports the per-layer set
//! (`report::PER_LAYER`), writing its spans to
//! `perfbench/traces/<workload>-seed<seed>.jsonl`.
//!
//! Exits 0 when every referee row matched, 1 when one did not (the JSON
//! line is still printed), and 2 on a usage or set-up error.

mod client;
mod loadgen;
mod replay;
mod report;
mod serve_read;
mod served;
mod stream_mixed;
mod trace;
mod world;

use report::Outcome;
use world::Params;

const USAGE: &str =
    "usage: perfbench --workload replay|serve-read|stream-mixed --seed N --seconds S --trace 0|1";

struct Args {
    workload: String,
    params: Params,
}

fn parse(mut it: impl Iterator<Item = String>) -> Result<Args, String> {
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or_else(|| format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => workload = Some(value()?),
            "--seed" => {
                seed = Some(
                    value()?
                        .parse::<u64>()
                        .map_err(|e| format!("--seed: {e}"))?,
                )
            }
            "--seconds" => {
                let s = value()?
                    .parse::<f64>()
                    .map_err(|e| format!("--seconds: {e}"))?;
                if !(s > 0.0 && s <= 600.0) {
                    return Err("--seconds must be in (0, 600]".into());
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other}")),
                })
            }
            other => return Err(format!("unknown argument {other}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    Ok(Args {
        workload,
        params: Params {
            seed: seed.unwrap_or(1),
            seconds: seconds.unwrap_or(10.0),
            trace: trace.unwrap_or(false),
            scale: 1.0,
        },
    })
}

pub fn run_workload(name: &str, p: &Params) -> Result<Outcome, String> {
    match name {
        "replay" => replay::run(p),
        "serve-read" => serve_read::run(p),
        "stream-mixed" => stream_mixed::run(p),
        other => Err(format!("unknown workload {other}")),
    }
}

fn main() {
    let args = match parse(std::env::args().skip(1)) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("error: {e}\n{USAGE}");
            std::process::exit(2);
        }
    };
    let p = &args.params;
    let out = match run_workload(&args.workload, p) {
        Ok(o) => o,
        Err(e) => {
            eprintln!("error: {}: {e}", args.workload);
            std::process::exit(2);
        }
    };

    println!(
        "provenance workload={} seed={} seconds={} trace={} nproc={} git={} rustc=\"{}\" target-cpu={}",
        args.workload,
        p.seed,
        p.seconds,
        u8::from(p.trace),
        served::nproc(),
        world::git_revision(),
        env!("PERFBENCH_RUSTC_VERSION"),
        world::target_cpu(),
    );
    for (k, v) in &out.provenance {
        println!("provenance {k}={v}");
    }
    let f = &out.failures;
    println!(
        "ops attempted={} succeeded={} failed={} overloaded={} deadline_exceeded={} other_error={} referee_mismatch={}",
        out.attempted,
        out.attempted.saturating_sub(f.total() - f.mismatch),
        f.total(),
        f.overloaded,
        f.deadline,
        f.other,
        f.mismatch
    );
    println!(
        "referee rows={} max_abs_diff={:e} tolerance={:e} {}",
        out.checked_rows,
        out.max_abs_diff,
        world::TOLERANCE,
        if out.correct() { "ok" } else { "MISMATCH" }
    );
    let error_rate = report::ratio(f.total() as f64, out.attempted as f64);
    println!("metric error_rate {error_rate} ratio");
    // The end-to-end figures (from the untraced half in a traced run), then
    // the workload's own named figures.
    for m in out.end_to_end.0.iter().chain(&out.named.0) {
        println!("metric {} {} {}", m.name, m.value, m.unit);
    }
    let metrics = if p.trace {
        &out.per_layer
    } else {
        &out.end_to_end
    };
    if let Some(bad) = metrics.0.iter().find(|m| !m.value.is_finite()) {
        eprintln!("error: metric {} is not a finite number", bad.name);
        std::process::exit(2);
    }
    if let Some(spans) = &out.trace_spans {
        let path = std::path::PathBuf::from(format!(
            "perfbench/traces/{}-seed{}.jsonl",
            args.workload, p.seed
        ));
        match spans.write_jsonl(&path) {
            Ok(()) => println!("trace {} spans -> {}", spans.all().len(), path.display()),
            Err(e) => eprintln!("warning: could not write {}: {e}", path.display()),
        }
    }
    println!(
        "{}",
        report::result_json(out.correct(), out.attempted, f.total(), metrics)
    );
    if !out.correct() {
        std::process::exit(1);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small(seed: u64, trace: bool, scale: f64) -> Params {
        Params {
            seed,
            seconds: 1.0,
            trace,
            scale,
        }
    }

    #[test]
    fn parse_reads_the_command_line_flags() {
        let argv = [
            "--workload",
            "replay",
            "--seed",
            "7",
            "--seconds",
            "10",
            "--trace",
            "1",
        ];
        let a = parse(argv.iter().map(|s| s.to_string())).unwrap();
        assert_eq!(
            (
                a.workload.as_str(),
                a.params.seed,
                a.params.seconds,
                a.params.trace
            ),
            ("replay", 7, 10.0, true)
        );
        assert!(parse(["--trace", "2"].iter().map(|s| s.to_string())).is_err());
        assert!(
            parse(["--seed", "1"].iter().map(|s| s.to_string())).is_err(),
            "workload is required"
        );
    }

    #[test]
    fn the_registry_matches_benchmark_json() {
        let text =
            std::fs::read_to_string(concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json"))
                .unwrap();
        for (name, unit) in report::END_TO_END.iter().chain(report::PER_LAYER) {
            let entry = format!("{{\"name\": \"{name}\", \"unit\": \"{unit}\"");
            assert!(
                text.contains(&entry),
                "{name} ({unit}) missing from BENCHMARK.json"
            );
        }
        assert_eq!(
            text.matches("\"unit\"").count(),
            report::END_TO_END.len() + report::PER_LAYER.len()
        );
    }

    #[test]
    fn traced_replay_stages_close_the_embed_batch_span() {
        let out = run_workload("replay", &small(3, true, 0.05)).unwrap();
        assert!(out.correct() && out.checked_rows > 0);
        let m = &out.per_layer;
        let get = |n: &str| m.get(n).unwrap();
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
        .map(|n| get(n))
        .sum();
        assert!(get("engine.unattributed_s") >= 0.0);
        assert!(get("engine.span_s") > 0.0);
        assert!((staged + get("engine.unattributed_s") - get("engine.span_s")).abs() < 1e-9);
        assert_eq!(m.0.len(), report::PER_LAYER.len());
    }

    #[test]
    fn stream_mixed_writes_its_share_and_matches_a_cold_rebuild() {
        let out = run_workload("stream-mixed", &small(5, false, 0.4)).unwrap();
        assert!(
            out.correct() && out.checked_rows > 0,
            "referee: {:?}",
            out.failures
        );
        assert_eq!(out.failures.total(), 0);
        for side in ["write_share_open", "write_share_closed"] {
            let share = out.named.get(side).unwrap();
            assert!(
                (share - stream_mixed::WRITE_SHARE).abs() <= 0.01,
                "{side} {share}"
            );
        }
        assert_eq!(out.end_to_end.0.len(), report::END_TO_END.len());
        assert!(
            out.end_to_end.0.iter().all(|m| m.value > 0.0),
            "{:?}",
            out.end_to_end
        );
    }

    #[test]
    fn serve_read_rows_match_the_direct_engine() {
        let out = run_workload("serve-read", &small(9, false, 0.02)).unwrap();
        assert!(out.correct() && out.checked_rows > 0);
        assert_eq!(out.failures.total(), 0);
    }
}
