#!/bin/sh
# Every module named in DESIGN.md's experiment tables (sections 4 and
# 4b) must exist: each backticked `lib.module` in a table row must be
# a file lib/<lib>/<module>.ml.  Only the table rows are read, because
# dotted names elsewhere (`golden.count`, `serve.resumed`) are rule and
# metric names, not modules.
# Usage: doc_modules.sh DESIGN_MD LIB_DIR
design=$1
lib=$2
rows=$(awk '/^## 4\. /{on=1; next} /^## 4c\. /{on=0} on && /^\|/' "$design")
if [ -z "$rows" ]; then
  echo "$design: no table rows under sections 4 and 4b" >&2
  exit 1
fi
names=$(printf '%s\n' "$rows" \
  | grep -o '`[a-z_][a-z0-9_]*\.[a-z_][a-z0-9_]*`' | tr -d '`' | sort -u)
if [ -z "$names" ]; then
  echo "$design: no \`lib.module\` names in sections 4 and 4b" >&2
  exit 1
fi
status=0
for name in $names; do
  file="$lib/${name%%.*}/${name#*.}.ml"
  if [ ! -f "$file" ]; then
    echo "$design: \`$name\` names no module ($file is missing)" >&2
    status=1
  fi
done
exit $status
