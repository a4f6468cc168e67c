#!/usr/bin/env bash
# Repo CI: format, lint, test, perfbench's own checks, sanitize, and
# determinism (the direct and recorded simulation routes, bit for bit).
set -euo pipefail
cd "$(dirname "$0")"

echo "== cargo fmt --check =="
cargo fmt --all -- --check

echo "== cargo clippy (-D warnings) =="
cargo clippy --workspace --all-targets -- -D warnings

echo "== sage-lint: workspace invariant checker =="
# deny-by-default repo-specific static analysis: dirty-annotation
# justifications + sanitize-matrix coverage,
# determinism lints (hash iteration / wall clock / unordered reduces),
# lock-poison recovery on the serving path, and dead-pub (a `pub fn` in
# sim/core/graph/serve that no non-test code names). Any violation without a
# justified `// sage-lint: allow(<rule>)` marker exits 1; so do stale or
# malformed markers. The linter's own fixture suite runs under cargo test.
cargo run -q -p sage-lint -- --workspace

echo "== scheduling overhead: engines never convert instructions to time =="
# gpu-sim's Kernel::finish turns tagged scheduling work into overhead next
# to the kernel's cycles; an engine reading the issue width or the clock
# would be a second formula
if grep -rnE "issue_width|clock_hz" crates/core/src/engine/; then
  echo "crates/core/src/engine/ must not mention issue_width or clock_hz" >&2
  exit 1
fi

echo "== contraction: fused into the kernel that produced the queue =="
# every gear contracts inside its own last kernel (push engines through
# engine::common::contract); a separate contraction launch would pay a
# kernel launch per push iteration again
if grep -rnE 'launch\("contract' crates/core/src; then
  echo "crates/core/src must not launch a kernel named contract" >&2
  exit 1
fi

echo "== resident tile stealing: one launch per push iteration =="
# the tile expansion is the first phase of the consume kernel, split from
# the stealing by Kernel::grid_sync; a second launch would pay a kernel
# launch per push iteration again
launches=$(grep -c 'dev.launch(' crates/core/src/engine/resident.rs || true)
if [ "$launches" -ne 1 ]; then
  echo "crates/core/src/engine/resident.rs must hold exactly one dev.launch( (found $launches)" >&2
  exit 1
fi

echo "== experiment cells: one measurement path =="
# every cell of the report is measured through harness::measure or
# harness::measure_adapted, so the direction protocol (in-edge view or
# not), adaptation rounds and run aggregation live in harness.rs only
if grep -rnE "maybe_reorder|with_in_edges|Measurement|Runner::" crates/bench/src/experiments/; then
  echo "crates/bench/src/experiments/ must measure through crates/bench/src/harness.rs" >&2
  exit 1
fi

echo "== serving: one adaptation session per graph =="
# a served graph has one layout: workers adopt and decide reorder rounds
# through the graph's ReorderSession (SageRuntime::adapt_shared), so a
# worker-local round would fork the layout and the epoch again
if grep -rnE "maybe_reorder|force_reorder" crates/serve/src; then
  echo "crates/serve/src must reorder through the graph's session, not maybe_reorder/force_reorder" >&2
  exit 1
fi

echo "== settings: the library crates read no environment variable =="
# every setting of sim/core/graph/serve is a config field or a constant, so
# a run is reproduced by its code and arguments alone; test modules (from
# the first column-0 #[cfg(test)] of a file on) are exempt
if find crates/{sim,core,graph,serve}/src -name '*.rs' -print0 | xargs -0 awk '
    /^#\[cfg\(test\)\]/ { nextfile }
    /env::var/ { print FILENAME ":" FNR ": " $0; found = 1 }
    END { exit !found }'; then
  echo "crates/{sim,core,graph,serve}/src must not read the environment outside tests" >&2
  exit 1
fi

echo "== serving: the cache's stored form stays inside cache.rs =="
# cached results are packed to their narrowest exact form; every other
# module sees only ResultValues, so the format can change in one place
if grep -rnE "Packed(Values|Words)" crates/serve/src --exclude=cache.rs; then
  echo "only crates/serve/src/cache.rs may name the cache's packed types" >&2
  exit 1
fi

echo "== serving: results remap through the runtime only =="
# a graph's DeviceGraph owns its current -> original id map, apps read it
# at init and SageRuntime::to_original_order remaps through it; inverting
# the permutation or handing an app a map would be a second owner of the
# layout
if grep -rnE '\.inverse\(\)|apply_values|orig_of' crates/serve/src; then
  echo "crates/serve/src must remap results through SageRuntime::to_original_order" >&2
  exit 1
fi

echo "== cargo test =="
cargo test -q --workspace

echo "== perfbench's own tests =="
# the benchmark is a separate Cargo workspace, so --workspace misses it
cargo test --release --offline -q --manifest-path perfbench/Cargo.toml

echo "== perfbench end to end: adapt-social16-t1 =="
# one short run of the self-reordering workload: it exits 1 on a wrong
# answer or a counter that does not repeat, so it covers the in-edge view
# shared with a symmetric CSR, rollbacks recomputed from the permutation
# and the resident tile-record arena together
cargo run --release --offline -q --manifest-path perfbench/Cargo.toml -- \
  --workload adapt-social16-t1 --seed 7919 --seconds 1 > /dev/null

echo "== perfbench end to end: bfs-rmat17-t2 =="
# one short run of the adaptive BFS workload at 2 host threads, the one
# workload on the recorded route, which replays each kernel phase by phase:
# it exits 1 on a wrong answer or a counter that does not repeat
cargo run --release --offline -q --manifest-path perfbench/Cargo.toml -- \
  --workload bfs-rmat17-t2 --seed 7919 --seconds 1 > /dev/null

echo "== perfbench end to end: serve-rmat14-low =="
# one short open-loop run of the query service (admission queue, batching,
# cache, execution and remap on two worker devices): it exits 1 on a wrong
# answer or a failed query
cargo run --release --offline -q --manifest-path perfbench/Cargo.toml -- \
  --workload serve-rmat14-low --seed 7919 --seconds 1 > /dev/null

echo "== rustdoc (no broken intra-doc links) =="
RUSTDOCFLAGS="-D rustdoc::broken_intra_doc_links" cargo doc --no-deps --workspace -q

echo "== race sanitizer: all engines hazard-free, bitwise cost-neutral =="
# full matrix (7 engines x BFS/CC/PR x push/adaptive x 1 and 4 host
# threads, sanitize on == sanitize off bit for bit, plus the three
# pull-capable engines under the two-way policy, whose BFS must take the
# scalar pull gear) lives in the test
cargo test --release -q -p sage --test sanitize
# CLI-level smoke: --sanitize must leave the exit code at 0 (any
# detected hazard makes sage_cli exit 1). sage_cli runs the direct route;
# the recorded route stays sanitized in crates/core/tests/sanitize.rs
# above, which runs every engine at 1 and 4 host threads, and hazards are
# detected at the access on both routes
for eng in sage sage-tp naive b40c tigr gunrock; do
  for app in bfs cc pr; do
    cargo run --release -q -p sage-bench --bin sage_cli -- \
      "$app" --dataset brain --scale 0.05 --engine "$eng" --sanitize > /dev/null
  done
done
for app in bfs cc pr; do
  cargo run --release -q -p sage-bench --bin sage_cli -- \
    "$app" --dataset brain --scale 0.05 --engine subway --out-of-core --sanitize > /dev/null
done

echo "== race sanitizer: matrix/SpMV pipeline hazard-free =="
# the tensor-core SpMV direction: adaptive three-way BFS (the one app that
# goes bottom-up) on naive (push fallback + the shared matrix kernel) and
# the default engine, sanitized — any cross-SM hazard
# exits 1, and a run whose direction trace has no matrix iteration `M`
# (brain at scale 0.05 traces `>MM`) did not test the gear
for eng in naive sage; do
  out=$(cargo run --release -q -p sage-bench --bin sage_cli -- \
    bfs --dataset brain --scale 0.05 --engine "$eng" --mode adaptive --sanitize)
  if ! grep -qE '\[[<>M]*M' <<<"$out"; then
    echo "adaptive bfs on $eng never took the matrix gear: $out" >&2
    exit 1
  fi
done

echo "== race sanitizer: walk kernels hazard-free for both apps =="
# prop_walk (below) runs sanitized walks at 1 and more host threads
for app in ppr node2vec; do
  cargo run --release -q -p sage-bench --bin sage_cli -- \
    walk --dataset brain --scale 0.05 --walk-app "$app" \
    --walks 64 --length 16 --sanitize > /dev/null
done

echo "== determinism (release): recorded route == direct route, bit for bit =="
# at more than one host thread every kernel records its cache probes and
# replays them in program order at finish; these suites check that this
# changes nothing on push-only and adaptive-3-way pipelines (R-MAT 2^14 on
# the default device included) or on BFS pinned to the matrix gear;
# golden_sim pins the absolute simulated counters and prop_sim checks the
# cache against its stamp-LRU oracle, so optimised builds are pinned too;
# prop_serve checks served BFS, SSSP and CC answers against the host
# reference across reorder rounds
cargo test --release -q -p sage --test prop_determinism
cargo test --release -q -p sage --test golden_sim
cargo test --release -q -p gpu-sim --test prop_sim
cargo test --release -q -p sage --test prop_direction
cargo test --release -q -p sage --test prop_walk
cargo test --release -q -p sage-serve --test prop_serve
cargo test --release -q -p gpu-sim kernel::
# the graphs themselves: golden_gen pins every generator's output (the
# benchmark graphs, built in parts, included), and prop_graph checks the
# CSR builder and the R-MAT sampler at 2, 3 and 8 parts against one part
cargo test --release -q -p sage-graph --test golden_gen
cargo test --release -q -p sage-graph --test prop_graph

echo "CI OK"
