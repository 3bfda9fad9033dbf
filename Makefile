GO ?= go

.PHONY: ci fmt vet build test race bench benchreport bench-smoke bench-e2e-smoke healthmon-smoke journal-smoke benchdiff nodeprecated doc-lint drift-check obs-demo trace-demo figures clean

# ci is the gate every change must pass: formatting, vet, the
# no-deprecated-wrappers grep, the godoc and docs-drift lints, build, the
# full test suite under the race detector (the lock manager and protocol
# are concurrent; -race is not optional here), the end-to-end
# incident-dump demo, the lockbench smoke gate (fast-path,
# contention-survival, grant-path and network scenarios), the colockbench
# end-to-end smoke gate, the health-monitor smoke gate, and the
# journal-forensics smoke gate.
ci: fmt vet nodeprecated doc-lint drift-check build race trace-demo bench-smoke bench-e2e-smoke healthmon-smoke journal-smoke

# fmt fails if any file needs gofmt, listing the offenders.
fmt:
	@out=$$(gofmt -l .); if [ -n "$$out" ]; then \
		echo "gofmt needed on:"; echo "$$out"; exit 1; fi

vet:
	$(GO) vet ./...

build:
	$(GO) build ./...

test:
	$(GO) test ./...

race:
	$(GO) test -race ./...

bench:
	$(GO) test -bench=. -benchmem ./...

# benchreport regenerates one lockbench scenario report, e.g.
#   make benchreport BENCH=hot OUT=BENCH_PR4.json        (fast path, DESIGN.md §11)
#   make benchreport BENCH=storm OUT=BENCH_PR6.json      (contention survival, §12)
#   make benchreport BENCH=grant OUT=BENCH_PR9.json      (constant-time grant path, §15)
#   make benchreport BENCH=net OUT=BENCH_PR10.json       (wire loopback cost, §16)
#   make benchreport BENCH=observers OUT=BENCH_PR12.json (observer overhead, §9)
benchreport:
	@if [ -z "$(BENCH)" ] || [ -z "$(OUT)" ]; then \
		echo "usage: make benchreport BENCH=<hot|storm|grant|net|observers> OUT=<file>"; exit 1; fi
	$(GO) run ./cmd/lockbench -bench $(BENCH) -out $(OUT)

# bench-smoke runs the hot, storm, grant and net scenarios with -quick into
# temp files and holds each report, via the table-driven TestExternalBenchFile
# gate in cmd/lockbench, to its smoke bounds: the fast path is no slowdown
# (≥1.0x) and was live; the survival kit is no slowdown (≥1.0x) and the chaos
# phase converged; the hot-root grant path is no slowdown (≥1.0x), the
# blocked path stays at ≤1 alloc/op and the deferred detector resolves; the
# wire costs more than in-process (>1.0x). The committed full reports
# document the headline results.
bench-smoke:
	@dir=$$(mktemp -d) && \
	$(GO) build -o "$$dir/lockbench" ./cmd/lockbench && \
	for b in hot storm grant net; do \
		"$$dir/lockbench" -bench $$b -quick -out "$$dir/$$b.json" >/dev/null && \
		$(GO) test ./cmd/lockbench -count=1 -run TestExternalBenchFile -benchfile "$$dir/$$b.json" || \
		{ rm -rf "$$dir"; exit 1; }; \
	done && \
	echo "bench-smoke: hot, storm, grant and net reports pass their gates" && \
	rm -rf "$$dir"

# bench-e2e-smoke runs the colockbench end-to-end benchmark for two seconds
# on remote-read (untraced) and on local-query (traced, so its
# conflict-serializability check runs over the protocol's cached entry
# points), and fails unless each run's last line reports "correct":true and
# "failed":0.
bench-e2e-smoke:
	@for w in "remote-read 0" "local-query 1"; do \
		set -- $$w; \
		out=$$(bash colockbench/run.sh --workload $$1 --seconds 2 --trace $$2) || \
			{ echo "bench-e2e-smoke: $$1 run failed"; exit 1; }; \
		last=$$(printf '%s\n' "$$out" | tail -1); \
		case "$$last" in *'"correct":true'*'"failed":0,'*) ;; \
			*) echo "bench-e2e-smoke: $$1: $$last"; exit 1 ;; esac; \
	done && \
	echo "bench-e2e-smoke: remote-read and local-query are correct with no failed operations"

# healthmon-smoke runs a scripted colockshell session that storms a hot key
# and dumps the /health document with `.health dump`, then asserts, via the
# flag-gated validation test in internal/health, that the dump parses, the
# verdict is well-formed, every windowed rate is present, and the storm's hot
# key leads the top-K contention sketch.
healthmon-smoke:
	@f=$$(mktemp) && \
	printf "%s\n" ".storm 8 10" ".health" ".health dump $$f" ".topk 5" ".quit" \
		| $(GO) run ./cmd/colockshell >/dev/null && \
	$(GO) test ./internal/health -count=1 -run TestExternalHealthFile -healthfile "$$f" && \
	echo "healthmon-smoke: $$f passes (verdict parses, hot key in top-K)" && \
	rm -f "$$f"

# journal-smoke runs a scripted colockshell session with a durable journal
# attached, storms a hot key, and dumps the live /health verdict; then it
# replays the journal offline with colockreplay -json and asserts, via the
# flag-gated validation test in cmd/colockreplay, that forensics sees the
# storm: the trajectory-leaf hot key, at least one convoy on it, and an SLO
# replay verdict that matches what the live monitor reported.
journal-smoke:
	@dir=$$(mktemp -d) && hf=$$(mktemp) && f=$$(mktemp) && \
	printf "%s\n" ".storm 8 10" ".journal flush" ".journal" ".health dump $$hf" ".quit" \
		| $(GO) run ./cmd/colockshell -journal "$$dir" >/dev/null && \
	$(GO) run ./cmd/colockreplay -dir "$$dir" -json "$$f" >/dev/null && \
	$(GO) test ./cmd/colockreplay -count=1 -run TestExternalReplayFile \
		-replayfile "$$f" -livehealth "$$hf" && \
	echo "journal-smoke: replay of $$dir passes (hot key, convoy, SLO verdict matches live)" && \
	rm -rf "$$dir" "$$hf" "$$f"

# doc-lint asserts godoc hygiene: every package has a package doc comment
# and every exported symbol of the public API packages (client,
# internal/wire) is documented. See scripts/doclint.sh.
doc-lint:
	@sh scripts/doclint.sh

# drift-check asserts the docs have not drifted: every "DESIGN.md §N"
# reference resolves to a real heading and every intra-repo markdown link
# resolves to a real file. See scripts/docdrift.sh.
drift-check:
	@sh scripts/docdrift.sh

# benchdiff tabulates every committed BENCH_PR*.json so the performance
# trajectory of the PR sequence is visible in one table.
benchdiff:
	$(GO) run ./cmd/benchdiff

# nodeprecated fails the build if any Deprecated marker survives in
# internal/lock: the consolidated AcquireCtx + options API is the only
# acquire surface, and this gate keeps the legacy wrappers from creeping
# back.
nodeprecated:
	@if grep -rn "Deprecated:" internal/lock --include="*.go"; then \
		echo "nodeprecated: deprecated wrappers found in internal/lock"; exit 1; \
	else echo "nodeprecated: internal/lock is wrapper-free"; fi

# trace-demo runs a scripted colockshell session that forces a lock timeout,
# then asserts that an incident dump was produced and parses (via the
# flag-gated validation test in internal/trace).
trace-demo:
	@dir=$$(mktemp -d) && \
	printf "%s\n" ".forcetimeout" ".incident" ".quit" \
		| $(GO) run ./cmd/colockshell -incidents "$$dir" && \
	f=$$(ls "$$dir"/incident-*-timeout-*.jsonl 2>/dev/null | head -1) && \
	if [ -z "$$f" ]; then echo "trace-demo: no incident file produced"; exit 1; fi && \
	$(GO) test ./internal/trace -count=1 -run TestExternalIncidentFileParses -incidentfile "$$f" && \
	echo "trace-demo: incident dump $$f parses" && \
	rm -rf "$$dir"

# obs-demo runs a scripted colockshell session that takes locks and dumps
# the .metrics tables, the wait-queue view, and the waits-for DOT graph.
obs-demo:
	@printf "%s\n" \
		"SELECT r FROM c IN cells, r IN c.robots WHERE c.cell_id = 'c1' AND r.robot_id = 'r1' FOR UPDATE" \
		".metrics" ".queues all" ".dot" ".commit" ".quit" \
		| $(GO) run ./cmd/colockshell

figures:
	$(GO) run ./cmd/figures

clean:
	$(GO) clean ./...
