#!/usr/bin/env bash
# Pre-PR gate: everything a change must pass before review.
#
#   ./scripts/check.sh
#
# Runs, in order:
#   1. cargo build --release        — the workspace compiles with optimizations
#   2. cargo test -q --workspace    — every crate's unit + integration tests
#      (includes the streaming-ingest suites: tests/prop_streaming.rs,
#      the seeded interleaving equivalence battery, and
#      tests/streaming_stress.rs, real concurrent ingest+query workers)
#   3. cargo run -p tg-xtask -- lint — the repo's static-analysis suite
#      (L1 panic, L2 lossy-cast, L3 std-hash, L4 missing-invariants; the
#      concurrency rules L5 lock-order, L6 atomics, L7 lock-across,
#      L8 unguarded-counter; the call-graph reachability rules
#      L9 hot-path-alloc, L10 panic-reach, L11 float-determinism,
#      L12 error-coverage; and the effect-inference rules
#      L13 lock-held-effects, L14 deadline-safety, L15 unsafe-audit,
#      L16 effects-drift against the committed effects.lock; see
#      DESIGN.md "Error handling & lint policy", "Concurrency model",
#      "Call-graph reachability (L9-L12)", and
#      "Effect inference (L13-L16)")
#   4. streaming --verify           — live-ingest served rows vs cold
#      rebuild (the blocking half of the streaming smoke bench in CI)
#   5. serve --verify               — deterministic-server rows vs a
#      direct engine (the blocking serving correctness gate in CI)
#
# The lint also runs inside `cargo test` via tests/lint_gate.rs, so step 3
# is technically redundant — but running it standalone gives file:line
# output (and `--format json` for CI) without a test harness around it.
#
# Not run here (separate CI jobs, both seconds-to-minutes): the loom
# concurrency models —
#   RUSTFLAGS="--cfg loom" cargo test --test loom_concurrency --release
# (a different RUSTFLAGS fingerprint rebuilds the whole workspace, so it
# stays out of the inner dev loop) — and nightly `cargo miri test`.

set -euo pipefail
cd "$(dirname "$0")/.."

echo "==> cargo build --release"
cargo build --release

echo "==> cargo test -q --workspace"
cargo test -q --workspace

echo "==> cargo run -p tg-xtask -- lint"
cargo run --release -q -p tg-xtask -- lint

# Streaming-ingest equivalence gate (mirrors the blocking CI step): serve
# from a live graph while ingesting the whole tail, then check served
# rows against a cold rebuild. Exits nonzero on divergence.
echo "==> streaming --verify"
cargo build --release -q -p tg-bench
./target/release/streaming --verify >/dev/null

# Serving equivalence gate (mirrors the blocking CI step): replay the
# query stream through a deterministic TgServer and check every row
# against a direct engine within 1e-5. Exits nonzero on divergence.
echo "==> serve --verify"
./target/release/serve -d snap-msg --scale 0.02 --clients 2 --requests 200 \
  --verify >/dev/null

echo "==> all checks passed"
