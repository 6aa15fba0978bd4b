#!/usr/bin/env bash
# Count the repository's Rust lines: non-test lines per library crate, and
# all Rust lines in the tree.
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
# Usage: scripts/loc.sh    (prints a report; always exits 0 on success)
set -euo pipefail
cd "$(dirname "$0")/.."

git ls-files -- ':(glob)crates/*/src/**/*.rs' ':(glob)src/**/*.rs' |
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
    }
  '

whole=$(git ls-files -- ':(glob)crates/**/*.rs' ':(glob)src/**/*.rs' ':(glob)tests/**/*.rs' \
  ':(glob)examples/**/*.rs' ':(glob)shims/**/*.rs' | xargs cat | wc -l)
printf 'Whole-tree Rust lines (crates, src, tests, examples, shims): %d\n' "$whole"
