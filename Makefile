# Tier-1 verification for the repo (see ROADMAP.md): check formatting,
# build everything, vet, and run the full test suite under the race detector.

GO ?= go

.PHONY: check fmt build vet test test-race allocs fuzz chaos bench profile obs serve scenarios diff

check: fmt build vet test-race

# Fails listing every Go file gofmt would rewrite.
fmt:
	@files="$$(gofmt -l .)"; test -z "$$files" || { echo "gofmt needed: $$files"; exit 1; }

build:
	$(GO) build ./...

vet:
	$(GO) vet ./...

test:
	$(GO) test ./...

test-race:
	$(GO) test -race ./...

# Allocation budgets, counted plain: make check runs the suite only under
# -race, whose instrumentation changes the counts, so the four
# *AllocBudget tests run here again without it, with TestSinkRetainedBudget
# (its -v line prints the retained bytes per task) and TestEngineEventBudget
# (the bare, all-sinks and per-poll-wake event counts). Then ALLOCS.pprof records
# where the scale-batch-shaped run of TestScaleAllocBudget allocates (one
# sample per 512 B; read it with `go tool pprof -sample_index=alloc_objects
# ALLOCS.pprof`). CI uploads the profile as an artifact.
allocs:
	$(GO) test -count=1 -run 'AllocBudget$$|^TestSinkRetainedBudget$$|^TestEngineEventBudget$$' -v ./internal/core
	$(GO) test -count=1 -run '^TestScaleAllocBudget$$' -memprofile ALLOCS.pprof -memprofilerate 512 ./internal/core
	rm -f core.test

# Native fuzzing. FuzzAutoLabel: random Observe/Preload/Retry/Next/
# CurrentLabel sequences and field changes, with arbitrary float peaks,
# must never panic and must always read the label a fresh computation
# gives. FuzzReaders: every input goes to all four artifact readers
# (archive, trace, obs stream, telemetry export); none may panic, every
# failure must be the shared typed error, and accepted input must
# re-encode to a fixed point. Its seeds are whole artifacts of tens to
# hundreds of KB. FuzzLazyPolls: random process trees, poll
# intervals, limits, kill delays and aborts run under the monitor's grid
# walker and under the eager one-event-per-poll reference; the reports
# (series on), observed streams and final engine times must be equal.
# FuzzEventQueue: byte-driven push, pop, peek, remove and pop-then-push-back
# sequences must pop what a linear min-scan reference pops and leave a
# valid indexed heap after every operation. FuzzDecode: arbitrary bytes go
# to serde.Decode; none may panic, a rejected frame must fail with a serde:
# error, and an accepted frame must re-encode to one that decodes to the
# same kind and value. FuzzSpanStore: byte-driven Begin, Instant, End,
# SetWorker, AddLink and mid-recording Spans sequences must read back, hand
# out and export exactly what a plain []Span reference holds, and any input
# trace.ReadJSON accepts must re-encode byte-identically and take further
# recording; an input can hold thousands of spans, each run JSON-encoding
# them several times.
# FuzzParseVersion and FuzzParseSpec: arbitrary strings go to the pypkg
# version and requirement-spec parsers; none may panic, a rejected one
# must fail with a pypkg: error, and an accepted one must re-parse from
# its String to an equal value. Their seeds are the cases of the version
# and requirements tests.
# Minimizing each new input is capped at 50 runs on every target but
# FuzzLazyPolls and FuzzDecode: uncapped, minimizing stalled FuzzAutoLabel,
# FuzzEventQueue and FuzzParseSpec at 0 execs/s for most of their 10 s,
# and the large inputs of FuzzReaders and FuzzSpanStore minimize slowly.
# Seed inputs also run as plain tests under `make test`.
fuzz:
	$(GO) test -run '^$$' -fuzz '^FuzzAutoLabel$$' -fuzztime 10s -fuzzminimizetime 50x ./internal/alloc
	$(GO) test -run '^$$' -fuzz '^FuzzReaders$$' -fuzztime 10s -fuzzminimizetime 50x ./internal/artifact
	$(GO) test -run '^$$' -fuzz '^FuzzLazyPolls$$' -fuzztime 10s ./internal/monitor
	$(GO) test -run '^$$' -fuzz '^FuzzEventQueue$$' -fuzztime 10s -fuzzminimizetime 50x ./internal/sim
	$(GO) test -run '^$$' -fuzz '^FuzzDecode$$' -fuzztime 10s ./internal/serde
	$(GO) test -run '^$$' -fuzz '^FuzzSpanStore$$' -fuzztime 10s -fuzzminimizetime 50x ./internal/trace
	$(GO) test -run '^$$' -fuzz '^FuzzParseVersion$$' -fuzztime 10s -fuzzminimizetime 50x ./internal/pypkg
	$(GO) test -run '^$$' -fuzz '^FuzzParseSpec$$' -fuzztime 10s -fuzzminimizetime 50x ./internal/pypkg

# Deterministic chaos soak: drive the fault-injection engine, the hardening
# features, and the invariant checker under the race detector, then survive
# the overload-storm scenario (2x overload plus churn, crashes, slowdowns and
# flaky staging) end to end via the CLI, which exits 3 on any invariant
# breach.
chaos:
	$(GO) test -race -count=1 -run 'Chaos|Resilience|Speculation|Heartbeat|Quarantine|Staging|KillDelay|CrashW|SlowWorker|ProvisionReject' ./internal/...
	$(GO) run ./cmd/lfmscenario run overload-storm

# Scheduler scale sweep in quick mode: measures the indexed matcher against
# the linear scan's counterfactual cost, re-runs each point with the
# observability plane attached (byte-verifying identical output), writes
# BENCH_scheduler.json, and captures a CPU profile (CI uploads both as
# artifacts). Drop -quick to reproduce the committed full-size numbers,
# including the 1M-task point.
bench:
	$(GO) run ./cmd/lfmbench -scale -quick -scale-out BENCH_scheduler.json -cpuprofile BENCH_cpu.pprof

# Observability smoke: archive the overload-storm scenario's run (config,
# summary with health, snapshot ring, scheduler events), archive it again
# with the same seed and byte-compare the two (the determinism contract),
# then render the health report from the archive. The run sheds load by
# design, so its verdict is unhealthy. CI uploads OBS_run.lfma as an
# artifact.
obs:
	$(GO) run ./cmd/lfmscenario run overload-storm -archive OBS_run.lfma
	$(GO) run ./cmd/lfmscenario run overload-storm -archive OBS_run.rerun.lfma
	cmp OBS_run.lfma OBS_run.rerun.lfma
	rm -f OBS_run.rerun.lfma
	$(GO) run ./cmd/lfmreport -allow-unhealthy OBS_run.lfma

# Open-loop serving sweep in quick mode: stream Poisson arrivals at
# fractions of cluster capacity through the admission-control frontend,
# verify the heaviest point is byte-deterministic on a same-seed re-run,
# and write BENCH_serving.json (CI uploads it as an artifact). Drop -quick
# for the full seven-point sweep.
serve:
	$(GO) run ./cmd/lfmbench -serve -quick -serve-out BENCH_serving.json

# Telemetry sweep in quick mode: record every paper workload under every
# strategy with resource time-series capture on, write the combined JSONL
# export (CI uploads it as an artifact), and render the profiles and node
# utilization timelines. Drop -quick for the full-size sweep.
profile:
	$(GO) run ./cmd/lfmbench -telemetry-sweep -quick -telemetry-out TELEMETRY_profile.jsonl
	$(GO) run ./cmd/lfmprof TELEMETRY_profile.jsonl

# Scenario regression gate: run every canned scenario and fail on any
# invariant breach (writes SCENARIOS.json; CI uploads it as an artifact),
# then prove bit-exact replay on the diurnal-tenants scenario — record a
# trace, replay it with digest verification, record again and byte-compare
# the two trace files — and finally regenerate the scenario catalog
# (README.md) and regression table (EXPERIMENTS.md), failing on drift.
scenarios:
	$(GO) run ./cmd/lfmscenario run -all -json SCENARIOS.json
	$(GO) run ./cmd/lfmscenario record diurnal-tenants -o SCENARIO_dt.trace
	$(GO) run ./cmd/lfmscenario replay SCENARIO_dt.trace
	$(GO) run ./cmd/lfmscenario record diurnal-tenants -o SCENARIO_dt.rerun.trace
	cmp SCENARIO_dt.trace SCENARIO_dt.rerun.trace
	rm -f SCENARIO_dt.trace SCENARIO_dt.rerun.trace
	$(GO) run ./cmd/lfmscenario export -refresh
	git diff --exit-code README.md EXPERIMENTS.md SCENARIOS.json

# Differential regression gate: re-run every canned scenario and diff its
# archive against the committed baseline (baselines/NAME.lfma), failing on
# any metric regression beyond the noise thresholds. Writes the DiffReport
# JSON artifact and the markdown verdict table (CI uploads the former and
# posts the latter to the job summary). The second invocation is the
# gate's self-test: a deliberately perturbed run MUST fail, proving the
# gate can actually catch a regression. The third regenerates every
# baseline into a temporary directory and byte-compares it with the
# committed one, so "same behaviour" is exact: each archive embeds the
# run's outcome digest and its whole snapshot stream. After an intentional
# behaviour change, refresh with `lfmdiff gate -refresh` and review the
# git diff (see baselines/README.md).
diff:
	$(GO) run ./cmd/lfmdiff gate -json DIFF_report.json -md DIFF_report.md
	! $(GO) run ./cmd/lfmdiff gate -perturb workers-halved -scenarios heavy-tail
	@fresh="$$(mktemp -d)"; status=0; \
	$(GO) run ./cmd/lfmdiff gate -refresh -baselines "$$fresh" || status=1; \
	for f in baselines/*.lfma; do cmp "$$f" "$$fresh/$${f##*/}" || status=1; done; \
	rm -rf "$$fresh"; exit $$status
