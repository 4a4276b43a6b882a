#!/bin/sh
# Jobs that share a trace record it once per daemon process.  Two grid
# variants of one golden run (as `repro client load' makes them) go to
# a `repro serve --workers 1' daemon: its stats must show one VM
# production and one trace-memo reuse, and the reused job's fixture
# must equal the one a fresh daemon measures for that variant alone.
# Each daemon also answers `client status` for its first job (done),
# refuses `client cancel` of it (a done job cannot be cancelled), and
# echoes its shutdown mode: draining, then `--no-drain`.
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

# serve NAME RUNS [SHUTDOWN FLAGS]: boot a daemon, submit RUNS and wait
# for them, save its stats and the last job's fixture as NAME.stats /
# NAME.fixture, job 1's status and the refused cancel as NAME.status
# / NAME.cancel, and the shutdown reply as NAME.shutdown.
serve() {
  name=$1 runs=$2
  shift 2
  sock=$dir/$name.sock
  "$repro" serve --workers 1 --socket "$sock" --dir "$dir/$name.spool" \
    >> "$dir/out" 2>&1 &
  pid=$!
  "$repro" client ping --socket "$sock" >> "$dir/out" 2>&1 \
    && "$repro" client submit --socket "$sock" --wait "$runs" \
         > "$dir/$name.replies" 2>> "$dir/out" \
    && "$repro" client stats --socket "$sock" --json "$dir/$name.stats" \
         >> "$dir/out" 2>&1 \
    && "$repro" client result --socket "$sock" \
         "$(wc -l < "$dir/$name.replies")" -o "$dir/$name.fixture" \
         >> "$dir/out" 2>&1 \
    && "$repro" client status --socket "$sock" 1 > "$dir/$name.status" \
         2>> "$dir/out" \
    && ! "$repro" client cancel --socket "$sock" 1 > /dev/null \
         2> "$dir/$name.cancel"
  rc=$?
  "$repro" client shutdown --socket "$sock" "$@" > "$dir/$name.shutdown" \
    2>> "$dir/out"
  wait "$pid"
  pid=
  return $rc
}

if ! serve shared "$dir/both.sexp" \
   || ! serve fresh "$dir/b.sexp" --no-drain; then
  echo "a daemon run failed" >&2
  status=1
else
  for name in shared fresh; do
    if ! grep -q '"job":1,.*"state":"done"' "$dir/$name.status"; then
      echo "$name daemon: client status 1 does not say done" >&2
      status=1
    fi
    if ! grep -q 'job 1: .* is already done' "$dir/$name.cancel"; then
      echo "$name daemon: client cancel 1 was not refused as done" >&2
      status=1
    fi
  done
  for want in 'shared "drain":true' 'fresh "drain":false'; do
    if ! grep -q -F "${want#* }" "$dir/${want%% *}.shutdown"; then
      echo "${want%% *} daemon: the shutdown reply lacks ${want#* }" >&2
      status=1
    fi
  done
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
[ "$status" -eq 0 ] || { cat "$dir/out" "$dir"/*.stats "$dir"/*.shutdown >&2; }
exit $status
