#!/bin/sh
# Invokes fixture_cli.ml's commands and flags, all but the seeded
# ones: `fixture_cli db drop', --untested and -q.  A comment, a
# here-document and the lines that do not run the program name them
# without invoking them.  `db show' is invoked from fixture_invoke.ml.
# "$fixture_cli" db drop --untested -q
fixture_cli=$1
"$fixture_cli" run \
  -v > log
# say wraps the program, so its calls invoke it; quiet does not.
say() {
  "$fixture_cli" "$@" >> log
}
quiet() {
  grep -q "$@" log
}
say run --verbose
quiet run
echo "never passed: --untested" >> log
cat > expected << 'EOF'
"$fixture_cli" db drop --untested -q
EOF
