#!/bin/sh
# The build must let ocamlopt inline across this repo's modules.  Under
# dune's dev profile every unit is compiled with -opaque, and a .cmx
# then records each imported implementation with an all-dash digest:
# nothing from that unit can be inlined, so every Mem.read in Vm.step
# becomes an unknown-arity call.  dune-workspace selects the release
# profile; this check fails when a build falls back to -opaque.
# Usage: build_inlining.sh OCAMLOBJINFO CMX...
objinfo=$1
shift
own='^(Sexp|Memsim|Vscheme|Analysis|Workloads|Core|Obs|Check|Golden|Serve)(__|$)'
status=0
for cmx in "$@"; do
  # "<digest>\t<unit>" lines between the two headings.
  imports=$("$objinfo" "$cmx" \
    | awk '/^Implementations imported:/{on=1; next} /^[^\t]/{on=0} on' \
    | awk -v own="$own" '$2 ~ own')
  if [ -z "$imports" ]; then
    echo "$cmx: imports no implementation of this repo's units" >&2
    status=1
    continue
  fi
  opaque=$(printf '%s\n' "$imports" | awk '$1 ~ /^-+$/ {print $2}')
  if [ -n "$opaque" ]; then
    echo "$cmx: compiled against -opaque implementations of:" \
      $opaque >&2
    echo "  (dune's dev profile compiles with -opaque; dune-workspace selects release)" >&2
    status=1
  fi
done
exit $status
