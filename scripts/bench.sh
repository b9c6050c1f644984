#!/usr/bin/env bash
# Runs the criterion suites and emits machine-readable summaries so the
# perf trajectory is tracked across PRs:
#   BENCH_graphgen.json — graph-generation kernels
#   BENCH_hpo.json      — HPO trial throughput (trials/sec, encoded trials)
#   BENCH_mining.json   — corpus mining (scripts/sec, p1 vs pN)
#   BENCH_serve.json    — kgpip-serve (QPS, p50/p99 latency, cache hit rate)
#   BENCH_embeddings.json — similarity tiers (build secs, insert/sec, QPS,
#                           recall@10, resident bytes per tier for the
#                           exact scan and the HNSW graph;
#                           KGPIP_BENCH_EMBED_N sizes the catalog,
#                           default 100K)
#   BENCH_tabular.json  — chunked tabular engine (ingest rows/sec vs
#                         read_frame at p1/p2/p4 + bounded mode with its
#                         resident-chunk cap, dense GBT fit rows/sec,
#                         sampled vs in-memory table embeddings)
#   scripts/bench.sh [graphgen_out.json] [hpo_out.json] [mining_out.json] [serve_out.json] [embeddings_out.json] [tabular_out.json]
#
# Guard: parallel arms (pN mining, p4/p8 HPO, multi-worker serving) are
# requested worker counts, not guarantees. Every fan-out maps through
# map_ordered(), which clamps the width through effective_parallelism() to
# the host's available cores, so on a 1-CPU box the pN arms measure the
# same sequential schedule as p1 instead of oversubscribing — compare
# speedup ratios only against the core count recorded in the "host" field
# below.
set -euo pipefail
cd "$(dirname "$0")/.."

graphgen_out="${1:-BENCH_graphgen.json}"
hpo_out="${2:-BENCH_hpo.json}"
mining_out="${3:-BENCH_mining.json}"
serve_out="${4:-BENCH_serve.json}"
embeddings_out="${5:-BENCH_embeddings.json}"
tabular_out="${6:-BENCH_tabular.json}"

# Runs one criterion bench target and folds its `BENCH_JSON {...}` lines
# (one per benchmark, printed by the vendored criterion plus any summary
# lines the bench emits itself) into a single JSON document.
run_suite() {
  local bench="$1" out="$2"
  local raw
  raw="$(mktemp)"
  echo "==> cargo bench -p kgpip-bench --bench $bench"
  cargo bench -p kgpip-bench --bench "$bench" -- --bench | tee "$raw"
  {
    echo '{'
    echo "  \"suite\": \"$bench\","
    echo "  \"host\": \"$(uname -sm) ($(nproc) cpu)\","
    echo '  "results": ['
    grep '^BENCH_JSON ' "$raw" | sed 's/^BENCH_JSON //' | sed '$!s/$/,/' | sed 's/^/    /'
    echo '  ]'
    echo '}'
  } > "$out"
  echo "==> wrote $out ($(grep -c '^BENCH_JSON ' "$raw") benchmarks)"
  rm -f "$raw"
}

run_suite graph_generation "$graphgen_out"
run_suite hpo_parallel "$hpo_out"
run_suite corpus_mining "$mining_out"
run_suite serve_bench "$serve_out"
run_suite embeddings "$embeddings_out"
run_suite tabular_chunked "$tabular_out"
