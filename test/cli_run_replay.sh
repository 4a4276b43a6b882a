#!/bin/sh
# `repro run WORKLOAD` and `repro record` + `repro replay` must agree:
# the same per-level table through a hierarchy preset, and the same
# misses, fetches and miss ratio through a single cache under either
# write-miss policy.  With --metrics, both write the same cache.*
# counters; replay's document passes `repro check`, and the telemetry
# flags leave its stdout as it was unless one of them is `-' (stdout).
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
run run.fow run nbody --scale 1 --cache 64k --block 64 \
  --policy fetch-on-write
run replay.fow replay "$dir/nbody.trace" --cache 64k --block 64 \
  --policy fetch-on-write
same run.fow replay.fow cache
if [ "$(pick run.fow cache)" = "$(pick run.64k cache)" ]; then
  echo "--policy fetch-on-write: the same rows as write-validate" >&2
  status=1
fi

# The cache.* counters of a telemetry document, one per line.
counters() {
  tr -d ' \n' < "$1" \
    | grep -o '"cache\.[a-z_.]*":{"type":"counter","value":[0-9]*' | sort
}
run run.doc run nbody --scale 1 --cache 64k --block 64 \
  --metrics "$dir/run.json"
run replay.doc replay "$dir/nbody.trace" --cache 64k --block 64 \
  --metrics "$dir/replay.json" --trace-events "$dir/replay.events.json"
if ! cmp -s "$dir/replay.64k" "$dir/replay.doc"; then
  echo "replay --metrics: stdout differs from replay without it" >&2
  diff "$dir/replay.64k" "$dir/replay.doc" >&2
  status=1
fi
counters "$dir/run.json" > "$dir/run.counters"
counters "$dir/replay.json" > "$dir/replay.counters"
if [ ! -s "$dir/run.counters" ] \
   || ! cmp -s "$dir/run.counters" "$dir/replay.counters"; then
  echo "run and replay --metrics disagree on the cache counters:" >&2
  diff "$dir/run.counters" "$dir/replay.counters" >&2
  status=1
fi
run check.doc check "$dir/replay.json"
if ! grep -q '"traceEvents"' "$dir/replay.events.json"; then
  echo "replay --trace-events: no traceEvents array" >&2
  status=1
fi

# `-' puts one document alone on stdout, also when stdout is a file,
# and moves the table to stderr; two `-' outputs are refused.
for flag in metrics trace-events; do
  case $flag in
    metrics) want=$dir/replay.json ;;
    trace-events) want=$dir/replay.events.json ;;
  esac
  "$repro" replay "$dir/nbody.trace" --cache 64k --block 64 --$flag - \
    > "$dir/stdout.$flag" 2> "$dir/stderr.$flag"
  if ! cmp -s "$want" "$dir/stdout.$flag"; then
    echo "replay --$flag - > FILE: not the document --$flag FILE writes" >&2
    status=1
  fi
  if ! cmp -s "$dir/replay.64k" "$dir/stderr.$flag"; then
    echo "replay --$flag -: stderr is not the table:" >&2
    cat "$dir/stderr.$flag" >&2
    status=1
  fi
done
if "$repro" replay "$dir/nbody.trace" --metrics - --trace-events - \
     > /dev/null 2> "$dir/err" \
   || ! grep -q "only one output can be" "$dir/err"; then
  echo "replay --metrics - --trace-events -: not refused" >&2
  status=1
fi
exit $status
