#!/bin/sh
# `repro experiments` and `repro workloads` list everything `repro run`
# accepts.  The committed paper tables (golden/repro-run.txt, every
# experiment in order) are the reference: the experiment ids are its
# "==== E-ID:" headers, and the workloads with their source lines are
# the rows of its T1 table.  An unknown target sends the user to both
# commands.
# Usage: cli_lists.sh REPRO_EXE REPRO_RUN_TXT
repro=$1
tables=$2
dir=$(mktemp -d)
trap 'rm -rf "$dir"' EXIT
status=0
# The first column of a listing, or its first and last, past the
# two header lines.
"$repro" experiments > "$dir/experiments" || status=1
"$repro" workloads > "$dir/workloads" || status=1
tail -n +3 "$dir/experiments" | awk '{ print $1 }' > "$dir/ids"
sed -n 's/^==== E-\([A-Z0-9]*\): .*/\1/p' "$tables" > "$dir/want.ids"
if [ ! -s "$dir/want.ids" ] || ! cmp -s "$dir/ids" "$dir/want.ids"; then
  echo "repro experiments: ids differ from $tables:" >&2
  diff "$dir/want.ids" "$dir/ids" >&2
  status=1
fi
tail -n +3 "$dir/workloads" | awk '{ print $1, $NF }' > "$dir/names"
sed -n '/^==== E-T1:/,/^==== /p' "$tables" \
  | awk '$1 ~ /^[a-z]+$/ && $2 ~ /^[0-9]+$/ { print $1, $2 }' \
  > "$dir/want.names"
if [ ! -s "$dir/want.names" ] || ! cmp -s "$dir/names" "$dir/want.names"; then
  echo "repro workloads: names or lines differ from $tables's T1 table:" >&2
  diff "$dir/want.names" "$dir/names" >&2
  status=1
fi
"$repro" run nosuch > /dev/null 2> "$dir/err"
rc=$?
if [ "$rc" -ne 1 ] \
   || ! grep -q "repro experiments' or \`repro workloads'" "$dir/err"; then
  echo "repro run nosuch: want exit 1 naming both listings, got $rc:" >&2
  cat "$dir/err" >&2
  status=1
fi
exit $status
