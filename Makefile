# Tier-1 verification for the repo (see ROADMAP.md): check formatting,
# build everything, vet, and run the full test suite under the race detector.

GO ?= go

.PHONY: check fmt build vet test test-race chaos bench profile obs serve scenarios diff

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

# Deterministic chaos soak: drive the fault-injection engine, the hardening
# features, and the invariant checker under the race detector, then survive
# a full storm schedule end to end via the CLI.
chaos:
	$(GO) test -race -count=1 -run 'Chaos|Resilience|Speculation|Heartbeat|Quarantine|Staging|KillDelay|CrashW|SlowWorker|ProvisionReject' ./internal/...
	$(GO) run ./cmd/lfmbench -chaos-profile storm -seed 7

# Scheduler scale sweep in quick mode: measures the indexed matcher against
# the linear scan's counterfactual cost, re-runs each point with the
# observability plane attached (byte-verifying identical output), writes
# BENCH_scheduler.json, and captures a CPU profile (CI uploads both as
# artifacts). Drop -quick to reproduce the committed full-size numbers,
# including the 1M-task point.
bench:
	$(GO) run ./cmd/lfmbench -scale -quick -scale-out BENCH_scheduler.json -cpuprofile BENCH_cpu.pprof

# Observability smoke: stream a seeded chaos run's snapshot bus to JSONL
# plus the unified summary, re-run it with the same seed and byte-compare
# the two streams (the determinism contract), then render the health
# report. CI uploads OBS_stream.jsonl as an artifact.
obs:
	$(GO) run ./cmd/lfmbench -chaos-profile storm -seed 7 \
		-obs-out OBS_stream.jsonl -summary-out OBS_summary.json
	$(GO) run ./cmd/lfmbench -chaos-profile storm -seed 7 \
		-obs-out OBS_stream.rerun.jsonl -summary-out OBS_summary.rerun.json
	cmp OBS_stream.jsonl OBS_stream.rerun.jsonl
	cmp OBS_summary.json OBS_summary.rerun.json
	rm -f OBS_stream.rerun.jsonl OBS_summary.rerun.json
	$(GO) run ./cmd/lfmreport -allow-unhealthy OBS_stream.jsonl

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
# gate can actually catch a regression. After an intentional behaviour
# change, refresh with `lfmdiff gate -refresh` and review the git diff
# (see baselines/README.md).
diff:
	$(GO) run ./cmd/lfmdiff gate -json DIFF_report.json -md DIFF_report.md
	! $(GO) run ./cmd/lfmdiff gate -perturb workers-halved -scenarios heavy-tail
