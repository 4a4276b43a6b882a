#!/bin/sh
# A grid checkpoint in the retired SWPCKPT1 format handed to
# `repro check` must be recognised as a checkpoint by its magic (not
# scanned as a trace), and reported as exactly one located
# ckpt.retired error with exit status 1 -- never a crash.
# Usage: cli_retired_ckpt.sh REPRO_EXE
repro=$1
dir=$(mktemp -d)
trap 'rm -rf "$dir"' EXIT
ckpt="$dir/grid.ckpt"
printf 'SWPCKPT1' > "$ckpt"
head -c 200 /dev/zero >> "$ckpt"
"$repro" check "$ckpt" > "$dir/out" 2>&1
rc=$?
status=0
if [ "$rc" -ne 1 ]; then
  echo "repro check on a retired checkpoint: want exit 1, got $rc" >&2
  status=1
fi
if [ "$(grep -c 'error: \[ckpt.retired\] byte 0:' "$dir/out")" -ne 1 ] \
   || grep -q 'trace\.' "$dir/out"; then
  echo "repro check on a retired checkpoint: want one ckpt.retired error and no trace findings, got:" >&2
  status=1
fi
[ "$status" -eq 0 ] || cat "$dir/out" >&2
exit $status
