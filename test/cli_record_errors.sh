#!/bin/sh
# `repro record` reports a save that fails as a `repro:` message with
# exit status 1, never as an uncaught exception, and leaves no
# temporary file behind.  Four saves that cannot succeed: the trace
# into a missing directory (one workload, then two), the attribution
# sidecar into a missing directory, and the trace onto a non-empty
# directory, which the atomic writer's rename cannot replace.
# Usage: cli_record_errors.sh REPRO_EXE
repro=$1
dir=$(mktemp -d)
trap 'rm -rf "$dir"' EXIT
status=0
mkdir "$dir/taken"
echo kept > "$dir/taken/inside"

# expect_failure LABEL ARGS...: the command must exit 1 with a
# `repro:` line on stderr.
expect_failure() {
  label=$1
  shift
  "$repro" record --scale 1 "$@" > "$dir/stdout" 2> "$dir/err"
  rc=$?
  cat "$dir/stdout" "$dir/err" >> "$dir/out"
  if [ "$rc" -ne 1 ]; then
    echo "repro record $label: want exit 1, got $rc" >&2
    status=1
  fi
  if ! grep -q '^repro: ' "$dir/err"; then
    echo "repro record $label: no 'repro:' message" >&2
    status=1
  fi
  if grep -q 'uncaught exception' "$dir/err"; then
    echo "repro record $label: uncaught exception" >&2
    status=1
  fi
}

expect_failure "-o MISSING/x.trace" nbody -o "$dir/missing/x.trace"
expect_failure "two workloads -o MISSING/x.trace" nbody lred \
  -o "$dir/missing/x.trace"
expect_failure "--attr MISSING/x.attr" nbody -o "$dir/ok.trace" \
  --attr "$dir/missing/x.attr"
if [ ! -s "$dir/ok.trace" ]; then
  echo "repro record --attr MISSING/x.attr: the trace was not saved" >&2
  status=1
fi
if ! grep -q '^recorded ' "$dir/stdout"; then
  echo "repro record --attr MISSING/x.attr: no report for the saved trace" >&2
  status=1
fi
expect_failure "-o DIR" nbody -o "$dir/taken"
if [ "$(cat "$dir/taken/inside")" != kept ]; then
  echo "repro record -o DIR: the directory changed" >&2
  status=1
fi
leftover=$(find "$dir" -name '*.tmp')
if [ -n "$leftover" ]; then
  echo "repro record: left $leftover" >&2
  status=1
fi
[ "$status" -eq 0 ] || cat "$dir/out" >&2
exit $status
