#!/bin/sh
# `repro run EXPERIMENT --metrics FILE` must write a telemetry document
# that `repro check` accepts and whose meta names the experiments run;
# asking for one document over experiments and workloads together is
# a usage error (exit 1) that writes nothing.
# Usage: cli_run_metrics.sh REPRO_EXE
repro=$1
dir=$(mktemp -d)
trap 'rm -rf "$dir"' EXIT
status=0
if ! "$repro" run T2 --metrics "$dir/t2.json" > "$dir/out" 2>&1; then
  echo "repro run T2 --metrics: nonzero exit" >&2
  status=1
elif ! "$repro" check "$dir/t2.json" >> "$dir/out" 2>&1; then
  echo "repro check on the run T2 document: nonzero exit" >&2
  status=1
elif ! grep -q '"experiments"' "$dir/t2.json"; then
  echo "repro run T2 --metrics: meta does not list the experiments" >&2
  status=1
fi
"$repro" run T2 nbody --metrics "$dir/mixed.json" >> "$dir/out" 2>&1
rc=$?
if [ "$rc" -ne 1 ] || [ -e "$dir/mixed.json" ]; then
  echo "repro run T2 nbody --metrics: want exit 1 and no file, got exit $rc" >&2
  status=1
fi
[ "$status" -eq 0 ] || cat "$dir/out" >&2
exit $status
