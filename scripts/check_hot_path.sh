#!/usr/bin/env bash
# Zero-copy guard for the certified hot read path.
#
# The hot read path (memtable probe in `shardstore-lsm`, value assembly
# in `Store::read_value`) is marked with HOT-PATH-BEGIN(tag)/HOT-PATH-END
# comment fences. Inside those regions no value-byte copy primitive may
# appear: `.to_vec(`, `.to_owned(`, `extend_from_slice(`, `Vec::from(`,
# or `.clone()`. A clone of *metadata* (locator lists, never payload
# bytes) may be allow-listed with a trailing `// hot-path: metadata
# clone` comment, which reviewers can grep for.
#
# The `lsm-block-read` region (`LsmIndex::read_table_slice`'s per-chunk
# loop) carries one more rule: it may only issue *ranged* chunk reads. A
# whole-chunk `.get(locator)` / `cache.get(` there would make every point
# lookup read the table instead of the block.
#
# Also asserts the fences still exist — a refactor that deletes the
# markers must not silently disable the guard.
set -euo pipefail
cd "$(dirname "$0")/.."

fail=0
files=$(grep -rl "HOT-PATH-BEGIN" crates --include='*.rs' || true)
if [ -z "$files" ]; then
  echo "check_hot_path: no HOT-PATH-BEGIN markers found under crates/" >&2
  exit 1
fi

for tag in lsm-get store-read lsm-block-decode lsm-block-read; do
  if ! grep -rq "HOT-PATH-BEGIN($tag)" crates --include='*.rs'; then
    echo "check_hot_path: certified region '$tag' is missing" >&2
    fail=1
  fi
done

for f in $files; do
  awk -v file="$f" '
    /HOT-PATH-BEGIN/ { inblock = 1; ranged = /HOT-PATH-BEGIN\(lsm-block-read\)/; next }
    /HOT-PATH-END/   { inblock = 0; ranged = 0; next }
    inblock && /hot-path: metadata clone/ { next }
    inblock && /(\.to_vec\(|\.to_owned\(|extend_from_slice\(|Vec::from\(|\.clone\(\))/ {
      printf "%s:%d: value copy on certified hot path: %s\n", file, NR, $0
      bad = 1
    }
    inblock && ranged && /(\.get\(locator\)|cache\.get\()/ {
      printf "%s:%d: whole-chunk read on the ranged block-read path: %s\n", file, NR, $0
      bad = 1
    }
    END { exit bad }
  ' "$f" || fail=1
done

if [ "$fail" -ne 0 ]; then
  echo "check_hot_path: FAILED — the certified read path must stay zero-copy and block-ranged" >&2
  exit 1
fi
echo "check_hot_path: ok — no value copies or whole-chunk reads inside HOT-PATH regions"
