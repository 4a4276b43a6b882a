#!/bin/sh
# `repro run WORKLOAD` and `repro record` + `repro replay` must agree:
# the same per-level table through a hierarchy preset, and the same
# misses, fetches and miss ratio through a single cache.
# Usage: cli_run_replay.sh REPRO_EXE
repro=$1
dir=$(mktemp -d)
trap 'rm -rf "$dir"' EXIT
status=0
run() {
  out=$1
  shift
  if ! "$repro" "$@" > "$dir/$out" 2> "$dir/err"; then
    echo "repro $*: nonzero exit" >&2
    cat "$dir/err" >&2
    status=1
  fi
}
# Print section $2 of output file $1: the per-level table, or the
# single-cache rows (spaces squeezed: the two commands' tables pad
# their value columns to different widths).
pick() {
  case $2 in
    levels) sed -n '/^level /,$p' "$dir/$1" ;;
    cache) grep -E '^(misses|fetches|miss ratio) ' "$dir/$1" | tr -s ' ' ;;
  esac
}
same() {
  a=$1
  b=$2
  section=$3
  pick "$a" "$section" > "$dir/a.$section"
  pick "$b" "$section" > "$dir/b.$section"
  if [ ! -s "$dir/a.$section" ]; then
    echo "$a: no $section rows" >&2
    status=1
  elif ! cmp -s "$dir/a.$section" "$dir/b.$section"; then
    echo "$a and $b disagree on the $section rows:" >&2
    diff "$dir/a.$section" "$dir/b.$section" >&2
    status=1
  fi
}
run record.out record nbody --scale 1 --format v2 -o "$dir/nbody.trace"
run run.skl run nbody --scale 1 --hier skl
run replay.skl replay "$dir/nbody.trace" --hier skl
same run.skl replay.skl levels
run run.64k run nbody --scale 1 --cache 64k --block 64
run replay.64k replay "$dir/nbody.trace" --cache 64k --block 64
same run.64k replay.64k cache
exit $status
