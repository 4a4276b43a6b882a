#!/bin/sh
# `repro scheme` runs a program on the vscheme machine: a FILE, or
# -e/--expr EXPR, prints the program's output and its value.  --gc
# installs a collector (a garbage-heavy loop in a 64k semispace must
# collect, as --stats reports), a --heap too small for a live list
# is `out of memory:` with exit 1, and giving both or neither of FILE
# and -e is an error with exit 1.
# Usage: cli_scheme.sh REPRO_EXE SAMPLE.scm
repro=$1
sample=$2
dir=$(mktemp -d)
trap 'rm -rf "$dir"' EXIT
status=0
# expect RC LABEL CMD...: CMD exits RC; its stdout and stderr are left
# in $dir/out and $dir/err.
expect() {
  want=$1 label=$2
  shift 2
  "$@" > "$dir/out" 2> "$dir/err"
  rc=$?
  if [ "$rc" -ne "$want" ]; then
    echo "repro scheme $label: want exit $want, got $rc" >&2
    cat "$dir/out" "$dir/err" >&2
    status=1
  fi
}
# printed LABEL TEXT: stdout holds the line TEXT.
printed() {
  if ! grep -q -x -F "$2" "$dir/out"; then
    echo "repro scheme $1: no line '$2' in:" >&2
    cat "$dir/out" >&2
    status=1
  fi
}

# said LABEL PATTERN: stderr matches PATTERN.
said() {
  if ! grep -q "$2" "$dir/err"; then
    echo "repro scheme $1: stderr does not match '$2':" >&2
    cat "$dir/err" >&2
    status=1
  fi
}

expect 0 FILE "$repro" scheme "$sample"
printed FILE "8-queens solutions: 92"
printed FILE 92
expect 0 -e "$repro" scheme -e '(+ 1 2)'
printed -e 3
expect 0 --expr "$repro" scheme --expr '(map (lambda (x) (* x x)) (iota 5))'
printed --expr '(0 1 4 9 16)'
garbage='(let loop ((i 0)) (if (< i 100000) (begin (cons i i) (loop (+ i 1))) i))'
expect 0 "--gc --stats" "$repro" scheme -e "$garbage" --gc cheney:64k --stats
printed "--gc --stats" 100000
if ! grep -q '^; .* [1-9][0-9]* collections, ' "$dir/out"; then
  echo "repro scheme --gc cheney:64k --stats: no collection reported" >&2
  cat "$dir/out" >&2
  status=1
fi
live='(let loop ((i 0) (l (quote ()))) (if (< i 100000) (loop (+ i 1) (cons i l)) (length l)))'
expect 1 --heap "$repro" scheme -e "$live" --heap 64k
said --heap '^out of memory: '
expect 0 "--heap 8m" "$repro" scheme -e "$live" --heap 8m
printed "--heap 8m" 100000
expect 1 "FILE -e" "$repro" scheme "$sample" -e '(+ 1 2)'
said "FILE -e" 'exactly one of FILE or -e'
expect 1 "no program" "$repro" scheme
said "no program" 'exactly one of FILE or -e'
exit $status
