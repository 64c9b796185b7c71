#!/usr/bin/env bash
# Offline CI gate: formatting, lints, build, and the tier-1 test suite.
# Everything runs with --offline (the repo has no registry dependencies),
# so it works in air-gapped containers.
set -euo pipefail
cd "$(dirname "$0")"

echo "== cargo fmt --check =="
cargo fmt --all -- --check

echo "== cargo clippy (-D warnings + pedantic subset, all targets) =="
# Beyond the default lints, an allow-listed clippy::pedantic subset the
# codebase is verified clean under (kept explicit so new pedantic lints
# don't break CI when the toolchain updates).
cargo clippy --workspace --release --benches --examples --tests --offline -- -D warnings \
  -D clippy::uninlined_format_args \
  -D clippy::semicolon_if_nothing_returned \
  -D clippy::redundant_closure_for_method_calls \
  -D clippy::unnested_or_patterns \
  -D clippy::manual_let_else \
  -D clippy::ignored_unit_patterns \
  -D clippy::needless_continue \
  -D clippy::explicit_iter_loop \
  -D clippy::inefficient_to_string

echo "== cargo build --release =="
cargo build --release --workspace --offline

echo "== kernel lint gate (static verifier, deny warnings) =="
# Every shipped kernel at every input scale must pass the six-pass static
# verifier (CFG shape, re-convergence, def-use, memory bounds, divergence,
# melding advisory) plus the buffer-layout cross-check with zero errors and
# zero warnings (DWS06xx meld advisories are notes and never gate).
cargo run -q --release --offline --bin dws-cli -- lint --all --deny-warnings

echo "== meld transform gate (opt --meld output must stay lint-clean) =="
# The control-flow melding pass must fire on the checked-in fuzz
# reproducer and its predicated straight-line output must re-verify with
# zero errors and zero warnings.
cargo run -q --release --offline --bin dws-cli -- \
  opt crates/sim/tests/corpus/seed-00000-meldable-poly.asm \
  --meld --deny-warnings --quiet > /dev/null

echo "== cargo test (tier-1) =="
cargo test -q --release --workspace --offline

echo "== golden timing table (named, release) =="
# The timing model's own output — cycles, instructions, misses, DRAM
# traffic, splits, merges, WST peak, MSHR rejections, L1-I fetches and the
# stall-cycle split for every benchmark x fuzz policy — must match
# tests/golden/timing_test.tsv exactly. Every engine-vs-engine
# oracle below would miss a drift that hits both engines at once.
cargo test -q --release --offline --test golden_timing -- --exact timing_model_matches_golden_table

echo "== bench-scale golden timing table (named, release) =="
# The same columns at Scale::Bench for the BENCH_simspeed.json rows plus
# Short, whose MSHR back-pressure is heaviest (tests/golden/timing_bench.tsv).
# Ignored in debug builds, so tier-1 (debug) skips it; this gate runs it.
cargo test -q --release --offline --test golden_timing -- --exact timing_model_matches_bench_golden_table

echo "== tier-1 equivalence guards (named, release) =="
# The event-driven run loop and the incremental scheduler must stay
# bit-identical to their exhaustive counterparts; run these by name so a
# test-filter mistake can never silently drop them from the gate.
cargo test -q --release --offline -p dws-sim --test zero_alloc_steady_state
cargo test -q --release --offline -p dws-sim --test sweep_determinism
cargo test -q --release --offline -p dws-sim --test event_equivalence
cargo test -q --release --offline -p dws-core --test random_policies
cargo test -q --release --offline -p dws-core --test uop_differential
cargo test -q --release --offline -p dws-core --test uniform_hints_differential

echo "== tier-1 robustness guards (named, release) =="
# Chaos battery (fault plans x policies, sanitizer forced on) and sweep
# panic isolation — the machine must fail loudly and precisely, never
# hang or take sibling jobs down with it. Small-L2 machines, whose L2
# fills back-invalidate lines mid-access, must run to a verified result.
cargo test -q --release --offline -p dws-sim --test chaos_invariants
cargo test -q --release --offline -p dws-sim --test sweep_panic_isolation
cargo test -q --release --offline -p dws-sim --test fuzz_harness
cargo test -q --release --offline -p dws-sim --test corpus_replay
cargo test -q --release --offline -p dws-sim --test small_l2_mshr

echo "== tier-1 transform-equivalence guards (named, release) =="
# Static control-flow melding must be semantics-preserving on the timed
# machine (bit-identity across all policies + chaos plans), profitable
# under the conventional baseline, and lint-clean; the reusable dataflow
# framework must agree with the reference def-use fixpoint everywhere.
cargo test -q --release --offline -p dws-sim --test meld_differential
cargo test -q --release --offline -p dws-isa --test dataflow_differential

echo "== fuzz smoke (differential oracle battery, fixed seeds) =="
# A short verifier-guided fuzz campaign across every oracle axis (all
# policies vs the reference interpreter, stepped vs event-driven, legacy
# engine vs µop, chaos vs zero-fault, melded vs unmelded). Must be clean
# (exit 0; 7 = real divergence found) AND byte-identical across two runs —
# the report embeds no wall-clock, so any diff is lost determinism. The
# second run goes through the DWS_WATCHDOG_* env overrides to keep that
# configuration path exercised.
cargo run -q --release --offline --bin dws-cli -- \
  fuzz --seeds 25 --json > fuzz_smoke_a.json
DWS_WATCHDOG_LIVELOCK=200000 DWS_WATCHDOG_HOST_MS=60000 \
  cargo run -q --release --offline --bin dws-cli -- \
  fuzz --seeds 25 --json > fuzz_smoke_b.json
cmp fuzz_smoke_a.json fuzz_smoke_b.json
rm -f fuzz_smoke_a.json fuzz_smoke_b.json

echo "== benchmark self-test (perfbench, named) =="
# One untraced and one traced pass of every BENCHMARK.json workload: each
# job must verify, the model fingerprint must agree across passes, and the
# metric names and units must match BENCHMARK.json. perfbench is its own
# Cargo workspace, so this also proves it still builds against the crates.
cargo run -q --release --offline --manifest-path perfbench/Cargo.toml -- --self-test

echo "== DWS_SANITIZE=1 release smoke run =="
# One paper-scale simulation with the debug-only scheduler-sync and
# µop-oracle checks promoted into the release binary.
DWS_SANITIZE=1 cargo run -q --release --offline --bin dws-cli -- \
  run --bench Merge --scale test --policy revive > /dev/null

# Advisory perf check: compares the committed simspeed baseline against
# the previous one when a bench run has left it behind. Regressions are
# reported but do not fail CI (host speed varies across machines).
if [[ -f BENCH_simspeed.prev.json && -f BENCH_simspeed.json ]]; then
  echo "== perf-diff (advisory) =="
  cargo run --release --offline --bin perf-diff -- \
    BENCH_simspeed.prev.json BENCH_simspeed.json --max-regress 20 \
    || echo "perf-diff: throughput regressed (advisory only)"
fi

echo "CI OK"
