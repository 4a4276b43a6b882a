#!/bin/sh
# Files in a retired format handed to `repro check` must be recognised
# by their magic and reported as exactly one located error at byte 0,
# with exit status 1 -- never decoded, never a crash:
#   - a grid checkpoint in the retired SWPCKPT1 format is a checkpoint
#     (not scanned as a trace) with one ckpt.retired error;
#   - a trace in the retired v1 format (16-byte header of magic and
#     event count, then 8 LE bytes per event) gets one trace.retired
#     error.
# Usage: cli_retired_ckpt.sh REPRO_EXE
repro=$1
dir=$(mktemp -d)
trap 'rm -rf "$dir"' EXIT
status=0

# expect_retired FILE RULE: one error, RULE at byte 0, nothing else.
expect_retired() {
  "$repro" check "$1" > "$dir/out" 2>&1
  rc=$?
  bad=0
  if [ "$rc" -ne 1 ]; then
    echo "repro check on $1: want exit 1, got $rc" >&2
    bad=1
  fi
  if [ "$(grep -c 'error: ' "$dir/out")" -ne 1 ] \
     || [ "$(grep -c "error: \[$2\] byte 0:" "$dir/out")" -ne 1 ]; then
    echo "repro check on $1: want one $2 error at byte 0 and nothing else, got:" >&2
    bad=1
  fi
  [ "$bad" -eq 0 ] || { cat "$dir/out" >&2; status=1; }
}

ckpt="$dir/grid.ckpt"
printf 'SWPCKPT1' > "$ckpt"
head -c 200 /dev/zero >> "$ckpt"
expect_retired "$ckpt" ckpt.retired
if grep -q 'trace\.' "$dir/out"; then
  echo "repro check on a retired checkpoint: scanned as a trace" >&2
  status=1
fi

# The magic "RCTRCACE" as little-endian bytes, a count of 1, one word.
trace="$dir/v1.trace"
printf 'ECACRTCR\001\000\000\000\000\000\000\000' > "$trace"
head -c 8 /dev/zero >> "$trace"
expect_retired "$trace" trace.retired

exit $status
