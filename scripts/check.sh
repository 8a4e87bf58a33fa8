#!/usr/bin/env bash
# Full repository health check: formatting, lints, docs, tests, examples,
# the experiment binaries, and a diff of the goldens they regenerate.
# Everything must be green.
set -euo pipefail
cd "$(dirname "$0")/.."

echo "== rustfmt =="
cargo fmt --all -- --check

echo "== clippy (deny warnings) =="
cargo clippy --workspace --all-targets -- -D warnings

echo "== rustdoc =="
RUSTDOCFLAGS="-D warnings" cargo doc --workspace --no-deps --quiet

echo "== tests =="
cargo test --workspace --release

echo "== examples =="
for e in quickstart smith_waterman kmeans_pipeline dse_anatomy; do
  cargo run --release -p s2fa --example "$e" > /dev/null
  echo "  example $e ok"
done

echo "== experiment binaries =="
for b in table1 table2 fig3 fig4; do
  cargo run --release -p s2fa-bench --bin "$b" > /dev/null
  echo "  bin $b ok"
done
cargo run --release -p s2fa-bench --bin s2fa_cli -- --list > /dev/null
echo "  bin s2fa_cli ok"
cargo run --release -p s2fa-bench --bin s2fa_cli -- lint --format json --save > /dev/null
echo "  bin s2fa_cli lint ok"

echo "== goldens =="
git diff --exit-code -- results/fig3.json results/table2.json results/lint_report.json \
  results/table1.json results/fig4.json
echo "  goldens unchanged"

echo "ALL CHECKS PASSED"
