#!/bin/sh
# A cache geometry the simulator cannot take must be a usage error
# (cmdliner's exit 124) naming the offending flag, on every command
# that accepts --cache/--block -- never an uncaught exception.
# Usage: cli_geometry.sh REPRO_EXE EXISTING_FILE
repro=$1
file=$2
status=0
err=$(mktemp)
trap 'rm -f "$err"' EXIT
expect() {
  flag=$1
  shift
  "$repro" "$@" > /dev/null 2> "$err"
  rc=$?
  if [ "$rc" -ne 124 ] || ! grep -q "option '$flag'" "$err"; then
    echo "repro $*: want exit 124 naming $flag, got exit $rc:" >&2
    cat "$err" >&2
    status=1
  fi
}
expect --cache simulate nbody --cache 3000
expect --block simulate nbody --block 512
expect --cache replay "$file" --cache 3000
expect --block replay "$file" --block 512
expect --cache stats "$file" --cache 3000
expect --block stats "$file" --block 2
expect --cache profile nbody --cache 3000
expect --block profile nbody --block 512
expect --block run nbody --cache 1k --block 2048
expect --block simulate nbody --cache 64 --block 128
exit $status
