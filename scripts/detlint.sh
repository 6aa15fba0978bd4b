#!/usr/bin/env bash
# Run the in-tree determinism & safety linter (exflow-detlint).
#
#   scripts/detlint.sh             lint the tree against detlint.baseline
#   scripts/detlint.sh --selftest  assert the fixture corpus behaves
#                                  (every *_fire.rs exits 1, every
#                                  *_pass.rs exits 0), then lint the tree
#
# In CI ($GITHUB_STEP_SUMMARY set) the markdown report is appended to the
# job's step summary. Exit: 0 clean, 1 findings, 2 tool error.
set -euo pipefail
cd "$(dirname "$0")/.."

selftest=0
if [ "${1:-}" = "--selftest" ]; then
  selftest=1
  shift
fi

# Build once so the per-fixture runs below are instant and quiet.
cargo build -q -p exflow-detlint
detlint() { cargo run -q -p exflow-detlint -- "$@"; }

if [ "$selftest" -eq 1 ]; then
  for fixture in crates/detlint/fixtures/d00*_fire.rs; do
    code=0
    detlint --no-baseline "$fixture" >/dev/null || code=$?
    if [ "$code" -ne 1 ]; then
      echo "FAIL: should-fire fixture exited $code (want 1): $fixture" >&2
      exit 2
    fi
  done
  for fixture in crates/detlint/fixtures/d00*_pass.rs; do
    if ! detlint --no-baseline "$fixture" >/dev/null; then
      echo "FAIL: should-pass fixture fired: $fixture" >&2
      exit 2
    fi
  done
  echo "detlint selftest: OK (7 fire + 7 pass fixtures)"
fi

md_args=()
if [ -n "${GITHUB_STEP_SUMMARY:-}" ]; then
  md_args=(--markdown /tmp/detlint-report.md)
fi

status=0
detlint "${md_args[@]}" "$@" || status=$?

if [ -n "${GITHUB_STEP_SUMMARY:-}" ] && [ -f /tmp/detlint-report.md ]; then
  cat /tmp/detlint-report.md >>"$GITHUB_STEP_SUMMARY"
fi
exit "$status"
