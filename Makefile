GO ?= go

.PHONY: build test race lint bench-smoke scenarios scenarios-smoke chaos servebench-test

build:
	$(GO) build ./...

test:
	$(GO) test ./...

race:
	$(GO) test -race ./internal/... ./cmd/...

# lint fails on any Go file gofmt would rewrite (the benchmark's build
# directory aside), and forbids ad-hoc diagnostic prints outside examples/
# and tests: all operational chatter must go through the structured slog
# logger (obs.NewLogger), so every line is JSON and carries trace correlation.
lint:
	@unformatted=$$(gofmt -l $$(find . -name '*.go' -not -path './.bench_build/*')); \
	if [ -n "$$unformatted" ]; then \
		echo "files not gofmt-clean (run gofmt -w):"; \
		echo "$$unformatted"; \
		exit 1; \
	fi
	@bad=$$(grep -rn 'log\.Printf\|log\.Println\|fmt\.Fprintf(os\.Stderr\|fmt\.Fprintf(errOut' \
		--include='*.go' . \
		| grep -v '_test\.go' | grep -v '^\./examples/' || true); \
	if [ -n "$$bad" ]; then \
		echo "ad-hoc prints found; use the structured logger (obs.NewLogger):"; \
		echo "$$bad"; \
		exit 1; \
	fi

# bench-smoke is the CI performance gate: one short traced servebench run
# (BENCHMARK.json's benchmark, servebench/RESULTS.md) that must pass the
# output check, keep the bare detector step zero-alloc and keep frame decode
# cheaper per reading than NDJSON decode. Its JSON result is the last line of
# .bench_build/smoke.out.
bench-smoke:
	mkdir -p .bench_build
	bash servebench/run.sh --workload frame-tcp-journal --seed 1 --seconds 2 --trace 1 > .bench_build/smoke.out
	@python3 -c "import json,sys; r=json.loads(open('.bench_build/smoke.out').read().splitlines()[-1]); \
		m={k: v['value'] for k, v in r['metrics'].items()}; \
		nd, fr = m['ingest.ndjson_solo_ns'], m['ingest.frame_solo_ns']; \
		print('bench-smoke: correct %s, failed %d, core.step_allocs %g, frame %.1f vs NDJSON %.1f ns/reading (%.1fx)' % (r['correct'], r['failed'], m['core.step_allocs'], fr, nd, nd / fr)); \
		bad=[c for c, ok in (('correct', r['correct'] is True), ('failed == 0', r['failed'] == 0), \
			('core.step_allocs == 0', m['core.step_allocs'] == 0), ('frame_solo_ns < ndjson_solo_ns', fr < nd)) if not ok]; \
		sys.exit('bench-smoke failed: ' + ', '.join(bad) if bad else 0)"

# scenarios refreshes the committed adversary-simulation corpus report:
# every labeled campaign in internal/scenario streamed over a real HTTP
# ingest path into an embedded collector, scored against ground truth.
scenarios:
	$(GO) run ./cmd/sgsim -score-corpus -out BENCH_scenarios.json

# scenarios-smoke is the CI step: a corpus subset covering all three truth
# classes, enough to prove the sgsim → ingest → sentinel → scorer path.
scenarios-smoke:
	$(GO) run ./cmd/sgsim -score-corpus \
		-scenarios benign-control,error-stuck,attack-collusion-majority,attack-replay-stale \
		-out BENCH_scenarios_smoke.json

# chaos runs the fault-injection harness of docs/RESILIENCE.md under the
# race detector: seeded disk faults (ENOSPC, EIO, torn writes) under the
# journal and checkpoint paths, network faults under the ingest listener and
# shipper, plus the torn-checkpoint and degraded-crash convergence proofs.
chaos:
	$(GO) test -race -count=1 \
		-run 'TestChaosEndToEnd|TestSentinelTornCheckpointRecovery|TestJournalFaultDegradesThenRecovers|TestDegradedCrashConvergence|TestCheckpointFailureCoolsDownAndSurfaces|TestTCPAcceptRetriesTransientErrors' \
		./cmd/sentinel ./internal/fleet ./internal/ingest
	$(GO) test -race -count=1 ./internal/chaos

# servebench-test vets and tests the serving benchmark. servebench/ is a
# module of its own, so the root build and test targets never compile it;
# this catches an API change that would break the benchmark.
servebench-test:
	cd servebench && $(GO) vet ./... && $(GO) test ./...
