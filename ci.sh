#!/usr/bin/env bash
# Repo CI: format, lint, test, sanitize, determinism, and the scale_bench smoke gate.
set -euo pipefail
cd "$(dirname "$0")"

echo "== cargo fmt --check =="
cargo fmt --all -- --check

echo "== cargo clippy (-D warnings) =="
cargo clippy --workspace --all-targets -- -D warnings

echo "== sage-lint: workspace invariant checker =="
# deny-by-default repo-specific static analysis: replay-join discipline on
# Device, dirty-annotation justifications + sanitize-matrix coverage,
# determinism lints (hash iteration / wall clock / unordered reduces), and
# lock-poison recovery on the serving path. Any violation without a
# justified `// sage-lint: allow(<rule>)` marker exits 1; so do stale or
# malformed markers. The linter's own fixture suite runs under cargo test.
cargo run -q -p sage-lint -- --workspace

echo "== replay handoff model check (exhaustive interleavings) =="
# loom-style DFS over every host/replay-thread interleaving of the async
# replay double-buffer protocol, plus mutant protocols that must fail
cargo test -q -p gpu-sim --features model --test replay_model

echo "== cargo test =="
cargo test -q --workspace

echo "== perfbench's own tests =="
# the benchmark is a separate Cargo workspace, so --workspace misses it
cargo test --release --offline -q --manifest-path perfbench/Cargo.toml

echo "== rustdoc (no broken intra-doc links) =="
RUSTDOCFLAGS="-D rustdoc::broken_intra_doc_links" cargo doc --no-deps --workspace -q

echo "== race sanitizer: all engines hazard-free, bitwise cost-neutral =="
# full matrix (7 engines x BFS/CC/PR/MIS x push/adaptive x 1 and 4 host
# threads, sanitize on == sanitize off bit for bit) lives in the test
cargo test --release -q -p sage --test sanitize
# CLI-level smoke: SAGE_SANITIZE=1 must leave the exit code at 0 (any
# detected hazard makes sage_cli exit 1)
for eng in sage sage-tp naive b40c tigr gunrock; do
  for app in bfs cc pr; do
    for t in 1 4; do
      SAGE_SANITIZE=1 cargo run --release -q -p sage-bench --bin sage_cli -- \
        "$app" --dataset brain --scale 0.05 --engine "$eng" --threads "$t" > /dev/null
    done
  done
done
for app in bfs cc pr; do
  SAGE_SANITIZE=1 cargo run --release -q -p sage-bench --bin sage_cli -- \
    "$app" --dataset brain --scale 0.05 --engine subway --out-of-core --threads 4 > /dev/null
done

echo "== race sanitizer: matrix/SpMV pipeline hazard-free =="
# the tensor-core SpMV direction: matrix-forced and adaptive-3-way runs on
# naive (push fallback + the shared matrix kernel) and the default engine,
# sanitized, 1 and 4 host threads — any cross-SM hazard exits 1
for eng in naive sage; do
  for app in bfs cc pr; do
    for t in 1 4; do
      SAGE_SANITIZE=1 cargo run --release -q -p sage-bench --bin sage_cli -- \
        "$app" --dataset brain --scale 0.05 --engine "$eng" --mode matrix \
        --threads "$t" > /dev/null
    done
  done
  SAGE_SANITIZE=1 cargo run --release -q -p sage-bench --bin sage_cli -- \
    bfs --dataset brain --scale 0.05 --engine "$eng" --mode adaptive --threads 4 > /dev/null
done

echo "== race sanitizer: walk kernels hazard-free for both apps and samplers =="
for app in ppr node2vec; do
  for sampler in its alias; do
    for t in 1 4; do
      SAGE_SANITIZE=1 cargo run --release -q -p sage-bench --bin sage_cli -- \
        walk --dataset brain --scale 0.05 --walk-app "$app" --sampler "$sampler" \
        --walks 64 --length 16 --threads "$t" > /dev/null
    done
  done
done

echo "== determinism (release): parallel simulation == sequential, bit for bit =="
# covers push-only, adaptive-3-way, and matrix-forced pipelines, plus the
# replay gate (the only replay decision) on both sides of its boundary;
# golden_sim pins the absolute simulated counters and prop_sim checks the
# cache against its stamp-LRU oracle, so optimised builds are pinned too
cargo test --release -q -p sage --test prop_determinism
cargo test --release -q -p sage --test golden_sim
cargo test --release -q -p gpu-sim --test prop_sim
cargo test --release -q -p sage --test prop_direction
cargo test --release -q -p sage --test prop_walk
cargo test --release -q -p gpu-sim --test prop_replay_gate
cargo test --release -q -p gpu-sim kernel::

echo "== scale_bench smoke (1 vs 4 host threads at scale 14) =="
# 1 vs 4 host threads on an R-MAT 2^14 graph: always enforces bitwise
# determinism across thread counts; additionally fails on speedup_vs_1t
# < 1.0 when the host has >= 4 cores to parallelise over (on smaller
# hosts the sharded path cannot win wall-clock and is only recorded).
cargo run --release -q -p sage-bench --bin scale_bench -- --smoke --out BENCH_scale_smoke.json
test -s BENCH_scale_smoke.json || { echo "BENCH_scale_smoke.json missing"; exit 1; }

echo "== perf regression: scale-smoke 4-thread speedup vs recorded baseline =="
# Recorded on a >= 4-core host from BENCH_scale.json's smoke-equivalent row;
# ratchet upward when the replay backend improves. On hosts without 4 cores
# the sharded path cannot win wall-clock, so the gate is skipped (the smoke
# JSON's speedup_enforced/speedup_enforced_reason fields say the same).
SCALE_SMOKE_BASELINE="1.0"
CORES=$(nproc 2>/dev/null || echo 1)
if [ "$CORES" -ge 4 ]; then
  SPEEDUP=$(grep -o '"threads": 4[^}]*' BENCH_scale_smoke.json \
    | grep -o '"speedup_vs_1t": [0-9.]*' | head -1 | grep -o '[0-9.]*$')
  echo "4-thread speedup_vs_1t: ${SPEEDUP} (baseline ${SCALE_SMOKE_BASELINE}, ${CORES} cores)"
  awk -v s="$SPEEDUP" -v b="$SCALE_SMOKE_BASELINE" 'BEGIN { exit !(s+0 >= b+0) }' || {
    echo "FAIL: 4-thread speedup ${SPEEDUP} dropped below baseline ${SCALE_SMOKE_BASELINE}"
    exit 1
  }
else
  echo "SKIP: host has ${CORES} core(s) (< 4) — sharded replay has no cores to win on; speedup gate not enforced"
fi
rm -f BENCH_scale_smoke.json

echo "CI OK"
