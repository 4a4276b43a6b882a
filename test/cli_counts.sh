#!/bin/sh
# A count that is not a positive integer must not silently become 1:
# REPRO_SCALE, REPRO_JOBS and every count flag (--jobs or -j, --scale,
# --workers, --checkpoint-every, --sample, --count) share one parser, and repro exits 1
# with a message naming the variable or flag and the value it was
# given, before any daemon, worker domain or workload starts (a
# daemon that starts anyway is stopped by `timeout' and fails the
# case).  Surrounding blanks are trimmed:
# REPRO_SCALE=' 2' runs at scale 2 (the telemetry meta says so).
# Usage: cli_counts.sh REPRO_EXE
repro=$1
dir=$(mktemp -d)
trap 'rm -rf "$dir"' EXIT
status=0
# refuse NAME VALUE CMD...: CMD must exit 1 and name NAME and VALUE.
refuse() {
  name=$1 value=$2
  shift 2
  "$@" > "$dir/out" 2> "$dir/err"
  rc=$?
  if [ "$rc" -ne 1 ]; then
    echo "$name=$value: want exit 1, got $rc" >&2
    status=1
  elif ! grep -q -- "$name" "$dir/err" \
       || ! grep -q -F "\"$value\"" "$dir/err"; then
    echo "$name=$value: the message does not name both:" >&2
    cat "$dir/err" >&2
    status=1
  fi
}
refuse REPRO_SCALE 0 env REPRO_SCALE=0 "$repro" run T2
refuse REPRO_SCALE 10x env REPRO_SCALE=10x "$repro" run T2
refuse REPRO_JOBS abc env REPRO_JOBS=abc "$repro" run T2
refuse --jobs 0 env -u REPRO_JOBS "$repro" run --jobs 0 T2
refuse --jobs abc env -u REPRO_JOBS "$repro" run -j abc T2
refuse --scale 0 "$repro" run nbody --scale 0
refuse --scale -3 "$repro" record nbody --scale=-3 -o "$dir/x.trace"
serve() {
  timeout 20 "$repro" serve --socket "$dir/s.sock" --dir "$dir/spool" "$@"
}
refuse --workers 0 serve --workers 0
refuse --workers -3 serve --workers=-3
refuse --checkpoint-every 0 serve --checkpoint-every 0
refuse --checkpoint-every -3 serve --checkpoint-every=-3
: > "$dir/empty.trace"
refuse --checkpoint-every 0 "$repro" replay "$dir/empty.trace" \
  --checkpoint-every 0
refuse --checkpoint-every -3 "$repro" replay "$dir/empty.trace" \
  --checkpoint-every=-3
refuse --sample 0 "$repro" profile nbody --sample 0
refuse --sample -3 "$repro" profile nbody --sample=-3
refuse --count 0 "$repro" client load --socket "$dir/s.sock" --count 0
refuse --count -3 "$repro" client load --socket "$dir/s.sock" --count=-3
if ! env REPRO_SCALE=' 2' "$repro" run T2 --metrics "$dir/t2.json" \
     > "$dir/out" 2>&1; then
  echo "REPRO_SCALE=' 2': want exit 0" >&2
  cat "$dir/out" >&2
  status=1
elif ! tr -d ' \n' < "$dir/t2.json" | grep -q '"scale":2'; then
  echo "REPRO_SCALE=' 2': the run's meta does not say scale 2" >&2
  status=1
fi
exit $status
