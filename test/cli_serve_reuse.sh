#!/bin/sh
# Jobs that share a trace record it once per daemon process.  Two grid
# variants of one golden run (as `repro client load' makes them) go to
# a `repro serve --workers 1' daemon: its stats must show one VM
# production and one trace-memo reuse, and the reused job's fixture
# must equal the one a fresh daemon measures for that variant alone.
# Usage: cli_serve_reuse.sh REPRO_EXE
repro=$1
dir=$(mktemp -d)
pid=
cleanup() {
  [ -n "$pid" ] && kill "$pid" 2> /dev/null && wait "$pid" 2> /dev/null
  rm -rf "$dir"
}
trap cleanup EXIT
status=0
variant() {
  printf '(run (name "variant-%s") (workload "selfcomp") (scale 1)
 (gc "cheney:48k") (cache-sizes %s) (block-sizes %s)
 (policy "write-validate") (jobs 1) (format "v2"))\n' "$1" "$2" "$3"
}
variant a "16384 32768" 16 > "$dir/both.sexp"
variant b 65536 64 >> "$dir/both.sexp"
variant b 65536 64 > "$dir/b.sexp"

# serve NAME RUNS: boot a daemon, submit RUNS and wait for them, save
# its stats and the last job's fixture as NAME.stats / NAME.fixture.
serve() {
  "$repro" serve --workers 1 --socket "$dir/$1.sock" --dir "$dir/$1.spool" \
    >> "$dir/out" 2>&1 &
  pid=$!
  "$repro" client ping --socket "$dir/$1.sock" >> "$dir/out" 2>&1 \
    && "$repro" client submit --socket "$dir/$1.sock" --wait "$2" \
         > "$dir/$1.replies" 2>> "$dir/out" \
    && "$repro" client stats --socket "$dir/$1.sock" --json "$dir/$1.stats" \
         >> "$dir/out" 2>&1 \
    && "$repro" client result --socket "$dir/$1.sock" \
         "$(wc -l < "$dir/$1.replies")" -o "$dir/$1.fixture" \
         >> "$dir/out" 2>&1
  rc=$?
  "$repro" client shutdown --socket "$dir/$1.sock" >> "$dir/out" 2>&1
  wait "$pid"
  pid=
  return $rc
}

if ! serve shared "$dir/both.sexp" || ! serve fresh "$dir/b.sexp"; then
  echo "a daemon run failed" >&2
  status=1
else
  for want in '"runner.productions": 1' '"runner.reuses": 1'; do
    if ! grep -q "$want" "$dir/shared.stats"; then
      echo "shared daemon: stats lack $want" >&2
      status=1
    fi
  done
  if ! grep -q '"runner.productions": 1' "$dir/fresh.stats"; then
    echo "fresh daemon: want one production" >&2
    status=1
  fi
  if ! cmp -s "$dir/shared.fixture" "$dir/fresh.fixture"; then
    echo "the reused trace's fixture differs from a fresh daemon's" >&2
    diff "$dir/shared.fixture" "$dir/fresh.fixture" >&2
    status=1
  fi
fi
[ "$status" -eq 0 ] || { cat "$dir/out" "$dir"/*.stats >&2; }
exit $status
