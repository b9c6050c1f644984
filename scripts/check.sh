#!/usr/bin/env bash
# Pre-PR gate: run the same sequence CI expects. Fails fast.
#   scripts/check.sh
set -euo pipefail
cd "$(dirname "$0")/.."

echo "==> cargo fmt --check"
cargo fmt --all -- --check

echo "==> cargo clippy (warnings are errors)"
cargo clippy --workspace --all-targets -- -D warnings

echo "==> xlint (house invariants: determinism, clamped parallelism, typed serve errors)"
cargo run --release --quiet --bin kgpip-cli -- xlint

echo "==> cargo test"
cargo test --workspace -q

echo "==> cargo bench --no-run (kernel changes must keep benches compiling)"
cargo bench --workspace --no-run

echo "==> vendored parallel runtime (one persistent pool: order, nesting, panics, no per-call threads)"
cargo test -p rayon -q

echo "==> determinism suite (parallel engine bit-for-bit reproducibility and pinned generator bits; one-pass generation ≡ reference loop; the per-call state memo and the one-row add-node pass ≡ the reference at widths 1 and 2; layers row-local; GBT fits identical with or without an installed width; mining identical at any worker count)"
cargo test -p kgpip-graphgen --test determinism -q
cargo test -p kgpip-graphgen --lib -q
cargo test -p kgpip-graphgen --lib -q memo
cargo test -p kgpip-nn --test props -q
cargo test -p kgpip-nn --test props -q row_subset
cargo test -p kgpip-learners --test gbt_determinism -q
cargo test -p kgpip --test mining_determinism -q

echo "==> chunked-identity suite (chunked ingest, column stats and table embeddings ≡ their row-major oracles at any chunk size × worker count; columns switching between numbers, missing markers and labels part-way through ≡ the oracle in both memory modes; byte scanner ≡ char-level reference; CSV decoder fuzz against the oracle)"
cargo test -p kgpip-tabular --test chunked_identity -q
cargo test -p kgpip-tabular --lib -q csv::tests
cargo test -p kgpip-tabular --lib -q oracle
cargo test -p kgpip-embeddings --lib -q oracle

echo "==> degenerate inputs (run_k on 0- and 1-row training sets fails with the holdout split's typed error before generation; one label class, an all-NaN feature column and k beyond the catalog answer; every outcome alike at widths 1 and 2, no panics)"
cargo test -p kgpip --lib -q degenerate_training_sets_answer_typed_and_alike_at_any_width

echo "==> similarity-tier suite (HNSW determinism; KGVI round-trip; legacy PQ-sectioned files open and encode as before; decoder fuzz and allocation bounds; recall gate)"
cargo test -p kgpip-embeddings --test hnsw -q
cargo test -p kgpip-embeddings --test legacy_pq -q
cargo test -p kgpip-embeddings --test decode_fuzz -q
cargo test -p kgpip-embeddings --test decode_alloc -q
cargo test -p kgpip-benchdata --test recall -q

echo "==> cache-equivalence suite (trial caches change cost, never results; ensemble selection from kept predictions equals the refit oracle, and only an ensembling search keeps any)"
cargo test -p kgpip-hpo --test cache_equivalence -q
cargo test -p kgpip-hpo --lib -q -- refit_oracle keeps_predictions

echo "==> artifact suite (snapshot round-trips bit-for-bit; decoder fuzz and allocation bounds; serving is bit-identical at any serve width)"
cargo test -p kgpip --test snapshot_roundtrip -q
cargo test -p kgpip --test snapshot_fuzz -q
cargo test -p kgpip --test snapshot_alloc -q
cargo test -p kgpip-serve -q

echo "==> serve identity (a parallelism-1 model served at widths 1, 2 and 3 — burst, registration, swap — answers as direct prediction does)"
cargo test -p kgpip-serve --test serve_identity -q

echo "==> parser fuzz (byte flips, truncations, repeated lines and deep nesting of corpus scripts: typed errors, no panics, lint-clean graphs)"
cargo test -p kgpip-codegraph --test parser_fuzz -q

echo "==> lint-corpus (fixed-seed graph invariant gate)"
cargo run --release --quiet --bin kgpip-cli -- lint-corpus \
  --datasets 4 --scripts-per-dataset 50 --seed 0 \
  --malformed-fraction 0.05 --helper-fraction 0.25

echo "All checks passed."
