#!/usr/bin/env bash
# Offline cargo-deny-style dependency audit.
#
# The workspace must keep building with the network unplugged: every
# third-party crate name resolves to an in-tree shim under shims/, the
# first-party crates live under crates/, and the lockfile must never
# acquire a registry or git source. cargo-deny itself would be a registry
# dependency, so this script re-implements the two checks that policy
# needs from the manifests and lockfile directly. It also checks the two
# shim surfaces determinism rules D003 and D004 rely on (case 4), that
# the workspace's one `unsafe` block stays the only one (case 5), and that
# no first-party crate lists a dependency it never uses (case 6).
#
# Exit 0 when the policy holds, 1 with one FAIL line per violation.
set -euo pipefail
cd "$(dirname "$0")/.."

violations=0

# 1. Cargo.lock must resolve no registry or git sources. A crates.io
#    package carries `source = "registry+https://..."` in its lock entry;
#    path dependencies carry no source line at all, so any source line of
#    either kind means a network dependency crept in.
if bad=$(grep -nE 'source = "(registry|git)\+' Cargo.lock); then
  echo "FAIL: Cargo.lock resolves non-path sources:" >&2
  echo "$bad" >&2
  violations=$((violations + 1))
fi

# 2. Every `path = "..."` in any manifest must point into crates/, shims/,
#    or the manifest's own src/ tree (bin/lib target paths). Nothing may
#    reach outside the repository or into an unvetted directory.
while IFS=: read -r file line entry; do
  p=$(sed -E 's/.*path *= *"([^"]*)".*/\1/' <<<"$entry")
  case "$p" in
    crates/* | shims/* | src/*) ;;
    *)
      echo "FAIL: $file:$line: path escapes crates/, shims/, src/: $p" >&2
      violations=$((violations + 1))
      ;;
  esac
done < <(grep -nH 'path *= *"' Cargo.toml crates/*/Cargo.toml shims/*/Cargo.toml)

# 3. Every [workspace.dependencies] entry must be a path dependency, and
#    only the first-party exflow-* crates may live under crates/ — any
#    other name (rand, rayon, ...) is third-party and must point at its
#    shim, so a future `rand = "0.8"` edit fails here even before the
#    lockfile regenerates.
while IFS= read -r dep; do
  name=${dep%%[ =]*}
  case "$dep" in
    *'path = "shims/'*) ;;
    *'path = "crates/'*)
      case "$name" in
        exflow-*) ;;
        *)
          echo "FAIL: third-party name '$name' must resolve to shims/, not crates/" >&2
          violations=$((violations + 1))
          ;;
      esac
      ;;
    *)
      echo "FAIL: workspace dependency '$name' is not a path dependency: $dep" >&2
      violations=$((violations + 1))
      ;;
  esac
done < <(awk '/^\[workspace\.dependencies\]/ { s = 1; next }
              /^\[/ { s = 0 }
              s && /=/ { print }' Cargo.toml)

# 4. Determinism rules D003 and D004 hold by absence, which clippy cannot
#    check: the rand shim has no entropy source (so an ambient RNG call
#    cannot compile) and the rayon shim has no reduction adaptor (so an
#    unordered parallel float reduction cannot be written).
if bad=$(grep -rnwE 'thread_rng|from_entropy|OsRng' shims/rand/src); then
  echo "FAIL: shims/rand defines an entropy source (D003):" >&2
  echo "$bad" >&2
  violations=$((violations + 1))
fi
if bad=$(grep -rnwE 'fn (sum|product|fold|reduce)' shims/rayon/src); then
  echo "FAIL: shims/rayon defines a parallel reduction (D004):" >&2
  echo "$bad" >&2
  violations=$((violations + 1))
fi

# 5. One `unsafe` in the workspace: the model crate's call of the AVX2 and
#    AVX-512 builds of the expert kernel. Every other first-party library
#    forbids unsafe code, and the model crate holds that one use alone
#    (comment lines aside; `-w` keeps `unsafe_code` from matching).
for lib in src/lib.rs crates/*/src/lib.rs; do
  if [ "$lib" != crates/model/src/lib.rs ] && ! grep -qxF '#![forbid(unsafe_code)]' "$lib"; then
    echo "FAIL: $lib lacks #![forbid(unsafe_code)]" >&2
    violations=$((violations + 1))
  fi
done
uses=$(grep -rnw unsafe crates/model/src | grep -vE '^[^:]+:[0-9]+:[[:space:]]*//' || true)
if [ "$(grep -c . <<<"$uses")" -gt 1 ]; then
  echo "FAIL: crates/model/src holds more than one unsafe block:" >&2
  echo "$uses" >&2
  violations=$((violations + 1))
fi

# 6. Every [dependencies] entry of a first-party crate is named, dashes as
#    underscores, somewhere in that crate's src/: an unused edge still
#    builds and still sits in the lockfile, so nothing else notices it.
#    One edge is exempt: exflow-model's rayon is recorded in
#    benchmark/Cargo.lock, which the benchmark builds `--locked`, so it
#    leaves with the next change to benchmark/.
for manifest in crates/*/Cargo.toml; do
  crate=${manifest%/Cargo.toml}
  while IFS= read -r dep; do
    name=${dep%%[ =]*}
    [ "$crate:$name" = crates/model:rayon ] && continue
    if ! grep -rqw "${name//-/_}" "$crate/src"; then
      echo "FAIL: $manifest: dependency '$name' is named nowhere in $crate/src" >&2
      violations=$((violations + 1))
    fi
  done < <(awk '/^\[dependencies\]/ { s = 1; next }
                /^\[/ { s = 0 }
                s && /=/ { print }' "$manifest")
done

if [ "$violations" -ne 0 ]; then
  echo "deps-audit: $violations violation(s)" >&2
  exit 1
fi
echo "deps-audit: OK (no registry/git sources; shims/ and crates/ are the only path deps; no entropy source in shims/rand, no reduction in shims/rayon; one unsafe block, the call of the AVX2 and AVX-512 expert kernels in exflow-model; every crate dependency used but exflow-model's exempt rayon)"
