#!/usr/bin/env bash
# Count the repository's Rust lines: non-test lines per library crate and
# in each of the ten largest files, and all Rust lines in the tree.
#
# A non-test line is a line of a tracked `.rs` file under crates/*/src or
# src that is not part of a column-0 `#[cfg(test)]` item. Such an item is
# skipped from the attribute through its matching closing brace, or
# through its `;` when it has no body (`#[cfg(test)] mod oracle;`), and a
# file that a skipped `mod NAME;` loads (by `#[path = "..."]` or by the
# usual module-file rules) is skipped whole. Indented `#[cfg(test)]`
# attributes (test-only fields and statements) are counted.
#
# Braces are counted after string literals, char literals and `//`
# comments are removed from the line, so a brace inside one of them does
# not end an item early.
#
# The files are the ones git tracks in the checkout the script lives in,
# whatever the working directory, so the report's first line names that
# checkout's root and HEAD commit: to count another checkout, run that
# checkout's own copy. Outside a checkout of this repository (a
# `git archive` export, alone or inside another git repository) there is
# nothing to count: the script then prints one message and no report, and
# exits 1.
#
# Usage: scripts/loc.sh    (prints a report and exits 0)
set -euo pipefail
cd "$(dirname "$0")/.."

sources=$(git ls-files -- ':(glob)crates/*/src/**/*.rs' ':(glob)src/**/*.rs' 2>/dev/null) || sources=
if [ -z "$sources" ]; then
  echo "loc.sh: git tracks no .rs file under crates/*/src or src here; run it in a checkout" >&2
  exit 1
fi
printf 'Counted: %s at %s\n' "$(pwd -P)" "$(git rev-parse --short HEAD)"

printf '%s\n' "$sources" |
  xargs awk '
    FNR == 1 {
      dir = FILENAME
      sub(/[^\/]*$/, "", dir)
      base = FILENAME
      sub(/^.*\//, "", base)
      sub(/\.rs$/, "", base)
      # `mod NAME;` in lib.rs, main.rs or mod.rs loads DIR/NAME.rs; in
      # any other file FILE.rs it loads DIR/FILE/NAME.rs.
      moddir = (base == "lib" || base == "main" || base == "mod") ? dir : dir base "/"
      count[FILENAME] = 0
      skip = 0
    }
    !skip && /^#\[cfg\(test\)\]/ {
      skip = 1
      depth = 0
      opened = 0
      path = ""
      next
    }
    skip {
      line = $0
      gsub(/"([^"\\]|\\.)*"/, "\"\"", line)
      gsub(/'\''([^'\''\\]|\\.)'\''/, "", line)
      sub(/\/\/.*$/, "", line)
      if (!opened) {
        if (line ~ /^[ \t]*#\[path[ \t]*=/) {
          path = $0
          sub(/^[^"]*"/, "", path)
          sub(/".*$/, "", path)
          next
        }
        if (line ~ /^[ \t]*#\[/) {
          next
        }
        if (line !~ /\{/ && line ~ /;[ \t]*$/) {
          if (match(line, /mod[ \t]+[A-Za-z0-9_]+[ \t]*;/)) {
            name = substr(line, RSTART, RLENGTH)
            sub(/^mod[ \t]+/, "", name)
            sub(/[ \t]*;$/, "", name)
            if (path != "") {
              loaded[dir path] = 1
            } else {
              loaded[moddir name ".rs"] = 1
              loaded[moddir name "/mod.rs"] = 1
            }
          }
          skip = 0
          next
        }
      }
      opens = gsub(/\{/, "{", line)
      closes = gsub(/\}/, "}", line)
      depth += opens - closes
      if (opens > 0) {
        opened = 1
      }
      if (opened && depth <= 0) {
        skip = 0
      }
      next
    }
    { count[FILENAME]++ }
    END {
      for (f in count) {
        if (f in loaded) {
          continue
        }
        n = split(f, part, "/")
        crate = (part[1] == "crates") ? part[2] : "facade"
        lines[crate] += count[f]
        total += count[f]
      }
      print "Non-test lines (crates/*/src and src, column-0 #[cfg(test)] items"
      print "and the files they load skipped):"
      for (c in lines) {
        printf "  %-12s %6d\n", c, lines[c] | "sort"
      }
      close("sort")
      printf "  %-12s %6d\n", "total", total
      print "Largest non-test files:"
      for (f in count) {
        if (!(f in loaded)) {
          printf "  %6d  %s\n", count[f], f | "sort -k1,1nr -k2 | head -n 10"
        }
      }
      close("sort -k1,1nr -k2 | head -n 10")
    }
  '

whole=$(git ls-files -- ':(glob)crates/**/*.rs' ':(glob)src/**/*.rs' ':(glob)tests/**/*.rs' \
  ':(glob)examples/**/*.rs' ':(glob)shims/**/*.rs' | xargs cat | wc -l)
printf 'Whole-tree Rust lines (crates, src, tests, examples, shims): %d\n' "$whole"
