#!/bin/sh
# `repro profile` of a saved trace must not depend on the trace's
# on-disk format: a v2 file (decoded into slabs) and a v3 file (mapped
# in place) of the same run hand out the same chunks, so a sampled
# profile attributes the same chunks and prints the same JSON.  The
# two files share a basename, which names the workload in the JSON.
# Usage: cli_profile_formats.sh REPRO_EXE
repro=$1
dir=$(mktemp -d)
trap 'rm -rf "$dir"' EXIT
status=0
run() {
  if ! "$repro" "$@" > "$dir/out" 2> "$dir/err"; then
    echo "repro $*: nonzero exit" >&2
    cat "$dir/err" >&2
    status=1
  fi
}
for f in v2 v3; do
  mkdir "$dir/$f"
  run record lred --scale 1 --gc cheney:1m --format $f \
    -o "$dir/$f/lred.trace" --attr "$dir/$f/lred.attr"
done
# The VM is deterministic, so the two recordings are one run: their
# sidecars must agree byte for byte.
if ! cmp -s "$dir/v2/lred.attr" "$dir/v3/lred.attr"; then
  echo "the v2 and v3 recordings' sidecars differ" >&2
  status=1
fi
for f in v2 v3; do
  run profile --trace "$dir/$f/lred.trace" --attr "$dir/$f/lred.attr" \
    --cache 64k --block 32 --sample 8 --no-heatmap --json "$dir/$f.json"
done
if [ ! -s "$dir/v2.json" ]; then
  echo "profile of the v2 trace wrote no JSON" >&2
  status=1
elif ! cmp -s "$dir/v2.json" "$dir/v3.json"; then
  echo "profiles of the v2 and v3 traces differ:" >&2
  diff "$dir/v2.json" "$dir/v3.json" | head -20 >&2
  status=1
fi
exit $status
