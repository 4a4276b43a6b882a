# Convenience targets; CI runs `make check`.

.PHONY: all build test test-parallel test-fastpath bench lint policy-check \
  check-recordings check-profile check-serve golden golden-record \
  check-tables tables-record check untracked-build clean

all: build

build:
	dune build

test:
	dune runtest

# The serial-vs-parallel differential suite again with worker domains
# forced on, so CI exercises the Runner --jobs path end to end.
test-parallel:
	REPRO_JOBS=2 dune exec test/test_parallel.exe

# The trace fast-path differential suite (direct writer vs closure
# sink, record-then-replay vs per-event oracle, v2 -> v3 round trip)
# with worker domains forced on.
test-fastpath:
	REPRO_JOBS=2 dune exec test/test_fastpath.exe

# The perf smoke: microbenchmarks and same-run engine comparisons,
# held to the bounds in bench/main.ml (a hard bound failing exits 1).
# Writes BENCH_metrics.json to the current directory.
bench:
	dune exec bench/main.exe

# Source lint: Parsetree rules plus Typedtree rules (poly-compare,
# domain-race audit) over the .cmt files, so @check must build first.
# Fails on any finding not allowlisted (with justification) in
# lint.allow.
lint:
	dune build @check
	dune exec tools/lint/lint.exe

# Machine-check the fast paths.  The model checker enumerates every
# reachable replacement-policy metadata state (assoc 1/2/4/8, all five
# policies) against the executable spec and writes the certificate
# CI uploads; the --mutate run seeds a known spec bug and succeeds
# only if the checker catches it; the lint --self-test scans the
# seeded-violation fixture so the interprocedural allocation pass is
# proven alive, not just quiet.
policy-check:
	dune build @check
	dune exec tools/policy_check/main.exe -- --json policy-certificate.json
	dune exec tools/policy_check/main.exe -- -q --ways 4 \
	  --mutate plru-flip --expect-findings
	dune exec tools/lint/lint.exe -- --self-test

# Record every workload (both on-disk formats, plus one run under
# the Cheney collector) and statically verify the traces: format
# well-formedness, heap-geometry address ranges, allocation-pointer
# monotonicity, semispace discipline, phase structure.
check-recordings:
	dune build
	@tmp=$$(mktemp -d) && trap 'rm -rf "$$tmp"' EXIT; \
	set -e; \
	for w in selfcomp prover lred nbody mexpr; do \
	  dune exec bin/repro.exe -- record $$w --scale 1 -o "$$tmp/$$w.v2"; \
	  dune exec bin/repro.exe -- record $$w --scale 1 --format v3 -o "$$tmp/$$w.v3"; \
	  dune exec bin/repro.exe -- check "$$tmp/$$w.v2" "$$tmp/$$w.v3"; \
	done; \
	dune exec bin/repro.exe -- record lred --scale 1 --gc cheney:1m -o "$$tmp/lred-gc.v2"; \
	dune exec bin/repro.exe -- check --gc cheney:1m "$$tmp/lred-gc.v2"
	@echo "check-recordings: ok"

# The attribution pipeline end to end, serial and with worker domains:
# record with a sidecar, profile the saved trace (sampled, parallel),
# profile a live run, and statically verify the sidecar alongside its
# trace.  Exercises `repro profile` the way CI publishes it.
check-profile:
	dune build
	@tmp=$$(mktemp -d) && trap 'rm -rf "$$tmp"' EXIT; \
	set -e; \
	dune exec bin/repro.exe -- record lred --scale 1 --gc cheney:1m \
	  -o "$$tmp/lred.v2" --attr "$$tmp/lred.attr"; \
	dune exec bin/repro.exe -- check --gc cheney:1m "$$tmp/lred.v2" "$$tmp/lred.attr"; \
	dune exec bin/repro.exe -- profile --trace "$$tmp/lred.v2" --attr "$$tmp/lred.attr" \
	  --cache 64k --block 32 --json "$$tmp/lred.json" --folded "$$tmp/lred.folded" \
	  --no-heatmap > /dev/null; \
	REPRO_JOBS=2 dune exec bin/repro.exe -- profile --trace "$$tmp/lred.v2" \
	  --attr "$$tmp/lred.attr" --cache 256k --block 32 --sample 8 \
	  --no-heatmap > /dev/null; \
	dune exec bin/repro.exe -- profile nbody --scale 1 --gc cheney:256k \
	  --cache 64k --block 32 --json "$$tmp/nbody.json" > /dev/null; \
	test -s "$$tmp/lred.json" && test -s "$$tmp/lred.folded" && test -s "$$tmp/nbody.json"
	@echo "check-profile: ok"

# The serve daemon end to end over a real socket: boot it, submit a
# synthetic load (12 distinct configurations, 24 submissions, so the
# result cache answers half), SIGKILL the daemon mid-run, restart it on
# the same spool, drain, and shut down.  Then verify the spool
# offline: every resumed job's stored fixture must be bit-identical
# to an uninterrupted re-measurement, and `repro check` must accept
# the journal, result store and checkpoint layout.  The CI serve-soak
# job runs the same script at 200 submissions with --require 1.
check-serve:
	dune build
	@tmp=$$(mktemp -d) && trap 'rm -rf "$$tmp"' EXIT; \
	set -e; \
	repro=$$PWD/_build/default/bin/repro.exe; \
	sock="$$tmp/serve.sock"; spool="$$tmp/spool"; \
	"$$repro" serve --socket "$$sock" --dir "$$spool" \
	  --workers 2 --checkpoint-every 100000 > "$$tmp/serve.log" 2>&1 & \
	pid=$$!; \
	"$$repro" client ping --socket "$$sock" --timeout 30; \
	"$$repro" client load --socket "$$sock" -n 24 --distinct 12; \
	sleep 1; \
	kill -9 $$pid; wait $$pid 2>/dev/null || true; \
	rm -f "$$sock"; \
	"$$repro" serve --socket "$$sock" --dir "$$spool" \
	  --workers 2 --checkpoint-every 100000 >> "$$tmp/serve.log" 2>&1 & \
	pid=$$!; \
	"$$repro" client ping --socket "$$sock" --timeout 30; \
	"$$repro" client drain --socket "$$sock" --timeout 300; \
	"$$repro" client stats --socket "$$sock"; \
	"$$repro" client shutdown --socket "$$sock"; \
	wait $$pid || true; \
	"$$repro" client verify-resumed --dir "$$spool"; \
	"$$repro" check "$$spool"
	@echo "check-serve: ok"

# The golden regression gate: re-measure every run in golden/manifest.sexp
# and compare against the committed fixtures.  Exact counters must match
# bit-for-bit; derived ratios within a 1e-9 relative band.
golden:
	dune build
	dune exec bin/repro.exe -- golden verify

# Regenerate the committed fixtures after a deliberate behaviour change.
# Review the diff of golden/*.sexp before committing it.
golden-record:
	dune build
	dune exec bin/repro.exe -- golden record

# The paper's tables as committed: `repro run` at scale 1 must print
# golden/repro-run.txt byte for byte, serially and with two worker
# domains.  The serial run also writes its telemetry; both stdouts stay
# in the working directory (repro-run.txt, repro-run-jobs2.txt) for
# CI to upload.
check-tables:
	dune build
	REPRO_SCALE=1 dune exec bin/repro.exe -- run --jobs 1 \
	  --metrics run-metrics.json > repro-run.txt
	diff -u golden/repro-run.txt repro-run.txt
	REPRO_SCALE=1 dune exec bin/repro.exe -- run --jobs 2 > repro-run-jobs2.txt
	diff -u golden/repro-run.txt repro-run-jobs2.txt
	@echo "check-tables: ok"

# Re-record golden/repro-run.txt after a deliberate change to what
# `repro run` prints.  Review its diff before committing it.
tables-record:
	dune build
	REPRO_SCALE=1 dune exec bin/repro.exe -- run --jobs 1 > golden/repro-run.txt.tmp
	mv golden/repro-run.txt.tmp golden/repro-run.txt

# Fail if the _build tree ever sneaks back into the index.
untracked-build:
	@n=$$(git ls-files _build | wc -l); \
	if [ "$$n" -ne 0 ]; then \
	  echo "error: $$n file(s) under _build/ are tracked by git"; exit 1; \
	fi

check: build test lint policy-check test-parallel test-fastpath check-recordings check-profile check-serve golden check-tables untracked-build
	@echo "check: ok"

clean:
	dune clean
