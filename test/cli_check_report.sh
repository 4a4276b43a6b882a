#!/bin/sh
# Pins what `repro check` prints for every file kind it verifies: the
# exact "FILE: ok[: summary]" and finding lines, the exit status, and
# the `--json` document, member order included.  Inputs: a v2 and a v3
# Cheney trace of lred with its attribution sidecar, a replay
# checkpoint, a `run T2 --metrics` telemetry document, a one-line
# hand-made serve spool and a truncated trace.
# Usage: cli_check_report.sh REPRO_EXE
repro=$1
case $repro in /*) ;; *) repro=$PWD/$repro ;; esac
dir=$(mktemp -d)
trap 'rm -rf "$dir"' EXIT
cd "$dir" || exit 1

"$repro" record lred --scale 1 --gc cheney:1m -o v2.trace --attr lred.attr \
  > /dev/null || exit 1
"$repro" record lred --scale 1 --gc cheney:1m --format v3 -o v3.trace \
  > /dev/null || exit 1
"$repro" replay v2.trace --cache 32k --checkpoint grid.ckpt \
  --checkpoint-every 1000000 > /dev/null || exit 1
"$repro" run T2 --metrics t2.json > /dev/null || exit 1
mkdir spool
printf '{"ev":"submitted","job":1,"t":0,"run":"(run (name x))"}\n' \
  > spool/journal.jsonl
head -c 100000 v2.trace > cut.trace

# One transcript: the command, its exit status, stdout, then stderr.
check() {
  echo "== check $*"
  "$repro" check "$@" > out 2> err
  echo "rc=$?"
  cat out
  if [ -s err ]; then echo "-- stderr"; cat err; fi
}
{
  check --gc cheney:1m v2.trace
  check v3.trace
  check t2.json
  check lred.attr
  check grid.ckpt
  check spool
  check cut.trace
  check --gc cheney:1m v2.trace t2.json
  check v2.trace lred.attr grid.ckpt
  check --gc cheney:1m v2.trace v3.trace t2.json lred.attr grid.ckpt spool \
    cut.trace
  check --json - --gc cheney:1m v2.trace v3.trace t2.json lred.attr \
    grid.ckpt spool cut.trace
  check --json findings.json v2.trace
  cat findings.json
} > actual

cat > expected <<'EOF'
== check --gc cheney:1m v2.trace
rc=0
v2.trace: ok: v2, 9095388 events (8875952 mutator / 219436 collector, 1 collection run)
== check v3.trace
rc=0
v3.trace: ok: v3, 9095388 events (8875952 mutator / 219436 collector, 1 collection run)
== check t2.json
rc=0
t2.json: ok: telemetry document
== check lred.attr
rc=0
lred.attr: ok: attribution table (4 region epochs, 1383 site runs, 81 sites)
== check grid.ckpt
rc=0
grid.ckpt: ok: hierarchy checkpoint (1 snapshot, cursor 9095388 of 9095388 events)
== check spool
rc=0
spool/journal.jsonl: warning: [serve.journal.dangling] job 1 is not terminal at end of journal (daemon killed? a restart will recover it)
spool: ok: serve spool (1 events, 1 jobs, 1 dangling, 0 results, 0 checkpoints)
== check cut.trace
rc=1
cut.trace: error: [trace.truncated] byte 100000: file ends inside event 42428 (42428 of 9095388 events decoded)
== check --gc cheney:1m v2.trace t2.json
rc=0
v2.trace: ok: v2, 9095388 events (8875952 mutator / 219436 collector, 1 collection run)
t2.json: ok: telemetry document
== check v2.trace lred.attr grid.ckpt
rc=0
v2.trace: ok: v2, 9095388 events (8875952 mutator / 219436 collector, 1 collection run)
lred.attr: ok: attribution table (4 region epochs, 1383 site runs, 81 sites)
grid.ckpt: ok: hierarchy checkpoint (1 snapshot, cursor 9095388 of 9095388 events)
== check --gc cheney:1m v2.trace v3.trace t2.json lred.attr grid.ckpt spool cut.trace
rc=1
cut.trace: error: [trace.truncated] byte 100000: file ends inside event 42428 (42428 of 9095388 events decoded)
spool/journal.jsonl: warning: [serve.journal.dangling] job 1 is not terminal at end of journal (daemon killed? a restart will recover it)
v2.trace: ok: v2, 9095388 events (8875952 mutator / 219436 collector, 1 collection run)
v3.trace: ok: v3, 9095388 events (8875952 mutator / 219436 collector, 1 collection run)
t2.json: ok: telemetry document
lred.attr: ok: attribution table (4 region epochs, 1383 site runs, 81 sites)
grid.ckpt: ok: hierarchy checkpoint (1 snapshot, cursor 9095388 of 9095388 events)
spool: ok: serve spool (1 events, 1 jobs, 1 dangling, 0 results, 0 checkpoints)
== check --json - --gc cheney:1m v2.trace v3.trace t2.json lred.attr grid.ckpt spool cut.trace
rc=1
{
  "files": [
    {
      "file": "v2.trace",
      "format": "v2",
      "summary": {
        "events": 9095388,
        "mutator_events": 8875952,
        "collector_events": 219436,
        "collector_runs": 1
      },
      "findings": []
    },
    {
      "file": "v3.trace",
      "format": "v3",
      "summary": {
        "events": 9095388,
        "mutator_events": 8875952,
        "collector_events": 219436,
        "collector_runs": 1
      },
      "findings": []
    },
    {
      "file": "cut.trace",
      "format": "v2",
      "findings": [
        {
          "rule": "trace.truncated",
          "severity": "error",
          "file": "cut.trace",
          "byte": 100000,
          "message": "file ends inside event 42428 (42428 of 9095388 events decoded)"
        }
      ]
    },
    {
      "file": "t2.json",
      "findings": []
    },
    {
      "file": "lred.attr",
      "findings": []
    },
    {
      "file": "grid.ckpt",
      "kind": "hierarchy",
      "cursor": 9095388,
      "events": 9095388,
      "snapshots": 1,
      "findings": []
    },
    {
      "file": "spool",
      "events": 1,
      "jobs": 1,
      "dangling": 1,
      "results": 0,
      "checkpoints": 0,
      "findings": [
        {
          "rule": "serve.journal.dangling",
          "severity": "warning",
          "file": "spool/journal.jsonl",
          "message": "job 1 is not terminal at end of journal (daemon killed? a restart will recover it)"
        }
      ]
    }
  ]
}
-- stderr
cut.trace: error: [trace.truncated] byte 100000: file ends inside event 42428 (42428 of 9095388 events decoded)
spool/journal.jsonl: warning: [serve.journal.dangling] job 1 is not terminal at end of journal (daemon killed? a restart will recover it)
v2.trace: ok: v2, 9095388 events (8875952 mutator / 219436 collector, 1 collection run)
v3.trace: ok: v3, 9095388 events (8875952 mutator / 219436 collector, 1 collection run)
t2.json: ok: telemetry document
lred.attr: ok: attribution table (4 region epochs, 1383 site runs, 81 sites)
grid.ckpt: ok: hierarchy checkpoint (1 snapshot, cursor 9095388 of 9095388 events)
spool: ok: serve spool (1 events, 1 jobs, 1 dangling, 0 results, 0 checkpoints)
== check --json findings.json v2.trace
rc=0
v2.trace: ok: v2, 9095388 events (8875952 mutator / 219436 collector, 1 collection run)
wrote findings to findings.json
{
  "files": [
    {
      "file": "v2.trace",
      "format": "v2",
      "summary": {
        "events": 9095388,
        "mutator_events": 8875952,
        "collector_events": 219436,
        "collector_runs": 1
      },
      "findings": []
    }
  ]
}
EOF

if ! diff -u expected actual >&2; then
  echo "cli_check_report.sh: repro check output differs from the pinned transcript" >&2
  exit 1
fi
