#!/bin/sh
# `repro run T2 --metrics FILE --trace-events FILE` writes both
# documents, and each parses as JSON.  Both are replaced atomically:
# pointed at a non-empty directory, which no rename can replace, the
# run exits 1 with a `repro:` message, leaves the directory as it was
# and no temporary file beside it.
# Usage: cli_trace_events.sh REPRO_EXE
repro=$1
dir=$(mktemp -d)
trap 'rm -rf "$dir"' EXIT
status=0
if ! "$repro" run T2 --metrics "$dir/m.json" --trace-events "$dir/t.json" \
     > "$dir/out" 2>&1; then
  echo "repro run T2 --metrics --trace-events: nonzero exit" >&2
  status=1
else
  for f in m.json t.json; do
    if ! python3 -c 'import json, sys; json.load(open(sys.argv[1]))' \
         "$dir/$f" >> "$dir/out" 2>&1; then
      echo "repro run T2: $f does not parse as JSON" >&2
      status=1
    fi
  done
  if ! grep -q '"traceEvents"' "$dir/t.json"; then
    echo "repro run T2 --trace-events: no traceEvents array" >&2
    status=1
  fi
fi
mkdir "$dir/taken"
echo kept > "$dir/taken/inside"
"$repro" run T2 --metrics "$dir/taken" > /dev/null 2> "$dir/err"
rc=$?
cat "$dir/err" >> "$dir/out"
if [ "$rc" -ne 1 ]; then
  echo "repro run T2 --metrics DIR: want exit 1, got $rc" >&2
  status=1
fi
if ! grep -q '^repro: ' "$dir/err"; then
  echo "repro run T2 --metrics DIR: no 'repro:' message" >&2
  status=1
fi
if [ "$(cat "$dir/taken/inside")" != kept ]; then
  echo "repro run T2 --metrics DIR: the directory changed" >&2
  status=1
fi
leftover=$(find "$dir" -maxdepth 1 -name '*.tmp')
if [ -n "$leftover" ]; then
  echo "repro run T2 --metrics DIR: left $leftover" >&2
  status=1
fi
[ "$status" -eq 0 ] || cat "$dir/out" >&2
exit $status
