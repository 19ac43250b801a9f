# CI entry points. `make ci` is the gate: gofmt, vet, build, a check that
# every test name a gate's -run pattern lists still names a test, the
# full test suite under the race detector, the campaign determinism check (a
# serial vs workers=4 Small-scale campaign must be byte-identical, the
# replay path must match the legacy dual-CPU oracle, the pruned
# campaign must match the -no-prune one, and — since the plan fixes
# every dataset byte — TestPlanMatchesReference and
# TestPlanSourceMatchesMathRand must hold the sharded, lazily seeded plan
# to the original one and its RNG to math/rand, and the CSV row encoder
# must match its fmt.Sprintf oracle), the crash-safety check
# (kill/resume at any point must reproduce the byte-identical dataset),
# the pruning differential-oracle soundness gate (register containment
# included, and the liveness tables held to the forward builder they
# replaced) and the replay's stuck-at skip and re-convergence exit gates
# (skip on must equal skip off on every replayed site of the reference
# campaign, skip off must equal the dual-CPU oracle), the telemetry concurrency tests under
# -race, the injection and predict hot-path allocation guards, the
# hot-table-reload swap-atomicity and
# training-parity gate, the serving-path SLO smoke, and a build and
# self-test of the benchmark (perfbench/, run with `bash perfbench/run.sh`).
GO ?= go

.PHONY: ci fmt vet build gate-names test race determinism resume-determinism distributed-determinism mode-determinism prune-soundness telemetry alloc server serve-smoke serve-slo swap-determinism bench-selftest cover bench bench-quick bench-ab fuzz

ci: fmt vet build gate-names race determinism resume-determinism distributed-determinism mode-determinism prune-soundness telemetry alloc server serve-smoke swap-determinism serve-slo bench-selftest

# Every tracked Go file must be gofmt-clean; the target lists the
# offenders and fails.
GOFMT ?= gofmt
fmt:
	@out=$$($(GOFMT) -l $$(git ls-files '*.go')); \
	if [ -n "$$out" ]; then echo "gofmt needed on:"; echo "$$out"; exit 1; fi

# vet also holds the simulation packages free of metrics: the campaign
# engine records what they compute, so no registry has to reach the
# constructors the benchmark calls (lockstep.NewGolden, NewReplayer).
vet:
	$(GO) vet ./...
	@if $(GO) list -deps ./internal/lockstep ./internal/handler | grep -qx 'lockstep/internal/telemetry'; then \
		echo "internal/lockstep or internal/handler depends on internal/telemetry"; exit 1; fi

build:
	$(GO) build ./...

# Every name a gate below lists in `-run` must match a test of the
# packages that line runs, under its -race and -tags flags: `go test
# -run` passes when a name matches nothing, so a renamed test would
# silently drop out of its gate.
gate-names:
	GO='$(GO)' bash scripts/check-gate-names.sh Makefile

test:
	$(GO) test ./...

race:
	$(GO) test -race ./...

# The campaign determinism contracts, explicitly and under -race: the
# sharded campaign must reproduce the serial dataset bit for bit, the
# golden-trace replay path must reproduce the legacy dual-CPU oracle's
# outcomes bit for bit (per-experiment and as a whole campaign dataset),
# a fault-free replay must reproduce the recorded states and their
# output vectors (TestGoldenTraceSelfCheck), the replay's one-pass word
# compare must agree with ==, FlopLoc.EqualExcept and Outputs() equality
# under every single-flop flip and force, and its raw-word check
# (DiffExcept) with that pass, also with garbage in State's padding
# (TestDiffWordsMatchesCompares, TestFieldMaskSkipsPadding), the replay's
# checker map (DivergeStates) must equal Diverge of the two Outputs()
# vectors, in both argument orders, under every single-flop flip and
# force of warm states of all 13 kernels and on random pairs with every
# output strobe both ways (TestDivergeStatesMatchesOutputs),
# FlopLoc.Force must agree with ForceBit (TestFlopLocMatchesAccessors), and
# the plan, which fixes every dataset byte, must equal the original
# one-rand.NewSource-per-group plan at 1, 3 and 7 workers while its
# lazily seeded RNG matches math/rand draw for draw, and the dataset and
# checkpoint row encoder (Record.AppendCSV) must write exactly the bytes
# of the fmt.Sprintf format it replaced. The engine, which builds each
# kernel's golden when its workers reach it, must build every golden of
# a 13-kernel campaign once and hold at most Workers+1 at a time
# (TestGoldenBound), and a cancel that lands while a golden is being
# built must resume to the uninterrupted dataset
# (TestCancelThenResumeIdenticalDataset). lockstep-trace's run, the
# dual-CPU oracle plus a recorder, must return the replay's outcome on a
# grid of kernels, kinds, flops and cycles, with one map per cycle of the
# stop window, cut at the horizon (TestTraceMatchesInject).
determinism:
	$(GO) test -race -run 'TestWorkerCountInvariance|TestProgressMonotonic|TestGoldenBound|TestCancelThenResumeIdenticalDataset|TestConcurrentInjectMatchesSerial|TestReplayMatchesLegacyOracle|TestTraceMatchesInject|TestLegacyOracleDatasetIdentical|TestPrunedMatchesUnpruned|TestGoldenTraceSelfCheck|TestDiffWordsMatchesCompares|TestFieldMaskSkipsPadding|TestDivergeStatesMatchesOutputs|TestFlopLocMatchesAccessors|TestPlanMatchesReference|TestPlanSourceMatchesMathRand|TestAppendCSVMatchesSprintf' -count=1 \
		./internal/inject/ ./internal/lockstep/ ./internal/cpu/ ./internal/dataset/

# The crash-safety contracts, explicitly: resuming a campaign from any
# checkpoint prefix (in-process truncation) or after a SIGKILL of the real
# binary at a seeded random checkpoint boundary (subprocess) must
# reproduce the uninterrupted dataset byte for byte, and -resume must
# refuse corrupt checkpoints and config mismatches with a named field. A
# canceled campaign with Failed rows on both sides of the cut must resume
# to the same dataset and the same Stats counts (restored Failed rows
# included) through RunStats and through a Coordinator fed by SpanRunners
# (TestResumeStatsAcrossDrivers). A checkpoint write that fails mid-run
# is superseded by the next, so the campaign still returns the
# uninterrupted dataset (TestFailedCheckpointWriteSuperseded), and a
# SIGINT to a local lockstep-inject run writes a final checkpoint that
# -resume completes to the same bytes (TestInterruptWritesFinalCheckpoint).
resume-determinism:
	$(GO) test -run 'TestResumeProducesIdenticalDataset|TestResumeConfigMismatch|TestResumeRefusesBadCheckpoint|TestPanicContainment|TestResumeStatsAcrossDrivers|TestFailedCheckpointWriteSuperseded' -count=1 ./internal/inject/
	$(GO) test -run 'TestKillResumeEquivalence|TestCLIResumeRefusals|TestInterruptWritesFinalCheckpoint' -count=1 ./cmd/lockstep-inject/

# The distributed-campaign contracts, explicitly: a span-lease campaign
# must merge to the byte-identical single-machine dataset at any worker
# count and lease size and in every lockstep mode (in-process
# coordinator, HTTP through lockstep-serve under dcls, tmr and slip:16,
# and the standalone -distribute coordinator), survive lease
# expiry/re-issue and duplicate spans, refuse every malformed lease or
# span body with a 400 in the JSON error envelope (the fuzz target's seed
# corpus included), fit the worst-case span submission in the body
# limit, resume a half-merged campaign from its checkpoint, and —
# against the real binaries — stay byte-identical after a worker is
# SIGKILLed mid-span. A distributed job's progress is its coordinator's
# merged count, so a span reply written late cannot set it back
# (TestSlowSpanReplyKeepsProgress). Both hosts serve through one edge:
# each answers a full limiter with 429, an expired deadline with 504 and
# a trickled body within the deadline, and a worker retries the 429,
# resends a refused span commit and finishes (TestWorkerRetriesOverload). A worker
# node's spans of one kernel block build its golden once, and spans over
# more kernels than the bound evict the least recently used golden
# (TestSpanRunnerGoldenReuse).
distributed-determinism:
	$(GO) test -race -run 'TestDistributedMatchesRun|TestLeaseKernelAffinity|TestLeaseExpiryReissue|TestDrainWorkers|TestCommitRejections|TestCoordinatorResume|TestSpanRunnerMatchesRun|TestSpanRunnerGoldenReuse|TestFingerprintConfigRoundTrip' -count=1 ./internal/inject/
	$(GO) test -race -run 'TestDistributedCampaignMatchesDirect|TestDistributorMatchesDirect|TestDistributedEndpointErrors|TestDistributedRestartResume|TestSubmitForeignCheckpointRejected|TestWorstCaseSpanFitsBody|FuzzDistributedRequest|TestWorkerRetriesOverload|TestTrickledBodyReleasesSlot|TestConcurrencyLimiter|TestDeadlineExceeded|TestSlowSpanReplyKeepsProgress' -count=1 ./internal/server/
	$(GO) test -run 'TestDistributedKillWorkerEquivalence|TestDistributeJoinExclusive' -count=1 ./cmd/lockstep-inject/

# The lockstep-mode determinism gate: (a) a dcls campaign reproduces the
# pre-mode binary's dataset bytes (pinned SHA-256) at one worker and at
# all of them; (b) slip:0 equals dcls experiment for experiment; (c) the
# slip and tmr fast paths (and mode-aware pruning) match the legacy
# full-simulation oracles on a seeded >= 1% sample; (d) checkpoints,
# leases and resume refuse cross-mode mixing with a named field, and the
# whole axis round-trips over HTTP — submission, drain/resume,
# train-and-swap, mode-stamped manifests/bundles/datasets.
mode-determinism:
	$(GO) test -run 'TestDCLSDatasetPinnedDigest|TestSlipZeroCampaignEquivalence|TestSlipConfigErrors|TestCrossModeDistributedRefusal|TestModeCampaignsDiffer|TestResumeConfigMismatch' -count=1 ./internal/inject/
	$(GO) test -run 'TestParseModeRoundTrip|TestSlipZeroEquivalence|TestSlipMatchesLegacyOracle|TestTMRMatchesLegacyOracle|TestTMRDetectionEqualsDCLS|TestModePruneSoundness' -count=1 ./internal/lockstep/
	$(GO) test -race -run 'TestCampaignModeErrors|TestCampaignModesRoundTrip|TestSlipCampaignDrainResume' -count=1 ./internal/server/

# The pruning soundness gate: every (kernel, fault kind) pair's pruned
# sites are differentially re-simulated on the replay oracle at a >= 1%
# sample (seeded, so the sample is reproducible), with the replay's
# stuck-at skip off because the skip reasons with the same liveness
# tables, and every predicted outcome must match the simulation exactly.
# The liveness gate holds the tables NewGolden derives from its recorded
# states and stream masks (a backward scan) to the forward per-cycle
# builder they replaced, kept as a test oracle: stream map, observation
# bitmaps, lastVal and escape tables on all 13 kernels at horizons 1, 63,
# 64, 65 and 6,000 (TestLivenessMatchesForwardBuilder; the builder takes
# the register read sets from the same step as NewGolden).
# The premise gate checks the first step of the pruning induction
# directly, for every stream: on six kernels (an MPU read-back probe
# among them), every flop the tables call unobserved at a cycle, and
# every MPU flop at a load or store whose decision forcing it cannot
# flip, is flipped in the golden state; the outputs must not change and
# one step must land on the next golden state except at that flop
# (TestObservationPremise).
# The register-containment gate re-simulates every site of the sealed
# registers (CycCnt, RetCnt, XMStore) on a cycle grid, and an rdcyc probe
# kernel checks that no detected CycCnt stuck-at is pruned. The exit gate
# pins where the skip-off replay's exact re-convergence exit fires,
# including at horizons placed on either side of the cycle where golden
# leaves the stuck value. The counter-offset gate flips every CycCnt and
# RetCnt flop on a cycle grid of the rdcyc probe and three reference
# kernels: the replay with the skip on (which ends a soft fault that has
# left only a sealed counter offset), the replay with it off and the
# dual-CPU oracle must agree, and the probe must detect flips through
# rdcyc (TestCounterOffsetExit).
# The skip gate: on every replayed (unpruned) site of the reference
# campaign plan (ttsprk, rspeed, puwmod; 6,000 cycles; stride 1; seed 1)
# under dcls, slip:16 and tmr, the replay with the skip on must return
# the outcome of the replay with it off, and on every site of that plan
# the runtime oracle samples, the skip-off replay must return the
# dual-CPU oracle's outcome. They run here, without -race, where they
# take seconds instead of a minute.
prune-soundness:
	$(GO) test -run 'TestPruneSoundness|TestPruneCoverageSubstantial|TestPruneSoftLastCycle|TestPruneRejectsOutOfRange|TestStreamClassification|TestLivenessMatchesForwardBuilder|TestObservationPremise|TestContainmentSoundness|TestContainmentRdcycProbe|TestCounterOffsetExit|TestReconvergenceExit' -count=1 ./internal/lockstep/
	$(GO) test -run 'TestSkipMatchesNoSkip|TestSkipOffMatchesLegacyOnOracleSites' -count=1 ./internal/inject/

# The telemetry layer's own contract, under -race: exact totals from
# NumCPU hammering goroutines, monotone histogram buckets, and
# byte-deterministic snapshots.
telemetry:
	$(GO) test -race -count=1 ./internal/telemetry/

# The HTTP service's API contract, under -race: the structured error
# envelope on every failure path, /v1/predict equivalence with the
# offline handler, campaign job lifecycle with byte-identical datasets,
# and drain/restart resume.
server:
	$(GO) test -race -count=1 ./internal/server/

# End-to-end smoke of the real lockstep-serve binary via clitest: random
# port, campaign over HTTP byte-identical to a direct run, and
# SIGTERM-mid-job drain + checkpoint-resume across a restart.
serve-smoke:
	$(GO) test -race -count=1 ./cmd/lockstep-serve/

# The hot-table-reload contracts, explicitly and under -race: while a
# writer hot-swaps table versions in a loop, every /v1/predict response
# must be byte-identical to the render of exactly the table named by its
# ETag (torn-read freedom of the atomic bundle swap); a table trained
# server-side must be byte-identical to the offline lockstep-train
# pipeline on the same dataset; a restart must adopt the
# last-activated version; a table is registered only once its files are
# written (TestTablesPersistBeforePublish); and a tmr or slip table's
# .mode sidecar is written before its image, so a failed write cannot
# leave an image that blocks the next start (TestTablesSidecarBeforeImage).
swap-determinism:
	$(GO) test -race -run 'TestSwapAtomicityUnderRace|TestTrainingParityWithOffline|TestTablesPersistenceAcrossRestart|TestCampaignTrainAndSwap|TestTablesPersistBeforePublish|TestTablesSidecarBeforeImage' -count=1 ./internal/server/

# Coverage report with per-package floors: internal/telemetry is the
# observability backbone (>= 60%), internal/inject carries the campaign,
# checkpoint, containment and distributed-coordination machinery
# (>= 80%), internal/server is the HTTP boundary plus the
# distributed-campaign endpoints and worker client (>= 75%),
# internal/loadgen generates the benchmark's predict load, whose bytes
# the comparison of two commits relies on (>= 70%), internal/lockstep
# carries the liveness pruning, trace compaction, replay and
# lockstep-mode machinery (>= 80%).
cover:
	$(GO) test -coverprofile=cover.out ./...
	@$(GO) tool cover -func=cover.out | tail -n 1
	@for spec in internal/telemetry:60 internal/inject:80 internal/server:75 internal/loadgen:70 internal/lockstep:80; do \
		pkg=$${spec%:*}; floor=$${spec#*:}; \
		pct=$$($(GO) test -cover ./$$pkg/ | sed -n 's/.*coverage: \([0-9.]*\)% of statements.*/\1/p'); \
		if [ -z "$$pct" ]; then echo "cover: could not measure $$pkg coverage"; exit 1; fi; \
		ok=$$(awk -v p="$$pct" -v f="$$floor" 'BEGIN { print (p >= f) ? 1 : 0 }'); \
		if [ "$$ok" != "1" ]; then echo "cover: $$pkg $$pct% below the $$floor% floor"; exit 1; fi; \
		echo "cover: $$pkg $$pct% (floor $$floor%)"; \
	done

# Allocation regression guards for the two hot paths: steady-state
# Replayer.InjectMode (injection, including a stuck-at jump and a TMR
# forward-recovery recheck, stepping the faulty CPU through the
# Replayer's double-buffered State with cpu.StepInto; TestInjectReplayZeroAlloc
# and TestTMRZeroAlloc) and predictBytes — decode, dense lookup,
# render — (serving) must perform zero heap allocations, and the full
# predict HTTP round trip must stay within its fixed stdlib-plumbing
# budget. Run without -race (the detector's instrumentation allocates;
# the tests skip themselves there).
alloc:
	$(GO) test -run 'TestInjectReplayZeroAlloc|TestTMRZeroAlloc' -count=1 ./internal/lockstep/
	$(GO) test -run 'TestPredictZeroAlloc' -count=1 ./internal/server/

bench:
	$(GO) test -bench=. -benchmem

# Micro-benchmarks of the hot paths, the entry point for profiling them
# (rerun a line with -cpuprofile): golden-trace replay vs the legacy
# dual-CPU oracle vs the pruned campaign path on the same mix, the
# campaign-dcls plan, the golden builds of all 13 kernels at 6,000 cycles
# one after another (the golden share of campaign-tmr-ckpt's set-up),
# the whole campaign-dcls and campaign-tmr-ckpt campaigns in process
# (RunStats plus the dataset CSV, for A/B runs of engine changes), the
# dataset CSV writer, and the predict decode, render and serve path
# beside the encoding/json reference decoder and the table-path render.
# It records nothing; the benchmark is `bash perfbench/run.sh`.
bench-quick:
	$(GO) test -run '^$$' -bench 'BenchmarkInject(Replay|Legacy|Pruned)$$' -benchmem -benchtime=200ms .
	$(GO) test -run '^$$' -bench 'BenchmarkPlan$$' -benchmem -benchtime=200ms ./internal/inject/
	$(GO) test -run '^$$' -bench 'BenchmarkNewGolden$$' -benchmem -benchtime=5x ./internal/lockstep/
	$(GO) test -run '^$$' -bench 'BenchmarkCampaign(DCLS|TMR)$$' -benchmem -benchtime=5x ./internal/inject/
	$(GO) test -run '^$$' -bench 'BenchmarkWriteCSV$$' -benchmem -benchtime=200ms ./internal/dataset/
	$(GO) test -run '^$$' -bench 'BenchmarkPredict(Decode|Render|E2E)' -benchmem -benchtime=200ms ./internal/server/

# Paired A/B runs of the benchmark: the working tree against the commit
# BASE on WORKLOAD, in alternating pairs of runs of the length
# BENCHMARK.json sets. PAIRS, SEED and TRACE (1 for traced runs and the
# per-layer metrics) are optional; cmd/bench-ab's flags hold their
# defaults (10 pairs, seed 1, untraced). It checks BASE out as a git
# worktree under .bench_build/, builds both perfbench binaries once, keeps
# every result line under .bench_build/ab/, and prints per metric each
# side's median and IQR, the ratio, the pairs won and the verdict against
# the bound in BENCHMARK.json. Not part of ci.
bench-ab:
	$(GO) run ./cmd/bench-ab -base '$(BASE)' -workload '$(WORKLOAD)' $(if $(PAIRS),-pairs $(PAIRS)) $(if $(SEED),-seed $(SEED)) $(if $(TRACE),-trace $(TRACE))

# Serving-path SLO smoke for ci: 8 concurrent clients x 200 predict
# requests against a loopback server must see no failure and a p99
# under 5ms in the worse of 2 repeats. It runs alone, behind the slo
# build tag, because a latency floor measured beside other test binaries
# measures them.
serve-slo:
	$(GO) test -tags slo -run '^TestPredictSLO$$' -count=1 ./internal/server/

# The benchmark is a nested module, so `go build ./...` and
# `go test ./...` never compile it: vet it and run its self-test with
# the environment perfbench/run.sh builds it under.
bench-selftest:
	cd perfbench && export GOFLAGS= GOPROXY=off GOWORK=off && $(GO) vet . && $(GO) test -count=1 .

# Short fuzz passes over the campaign-log parser, the checkpoint decoder,
# the prediction-table image decoder (an accepted image must re-encode to
# an equal table), the lockstep-mode parser, and the four lockstep-serve
# request decoders (predict bodies through the full endpoint, lease and
# span bodies through a live coordinator's endpoints, campaign
# submissions and server-side training requests through their validation
# layers).
fuzz:
	$(GO) test -fuzz=FuzzReadCSV -fuzztime=30s ./internal/dataset/
	$(GO) test -fuzz=FuzzReadCheckpoint -fuzztime=30s ./internal/inject/
	$(GO) test -fuzz=FuzzReadTable -fuzztime=30s ./internal/core/
	$(GO) test -fuzz=FuzzModeParse -fuzztime=30s ./internal/lockstep/
	$(GO) test -fuzz=FuzzPredictRequest -fuzztime=30s ./internal/server/
	$(GO) test -fuzz=FuzzDistributedRequest -fuzztime=30s ./internal/server/
	$(GO) test -fuzz=FuzzCampaignRequest -fuzztime=30s ./internal/server/
	$(GO) test -fuzz=FuzzTablesRequest -fuzztime=30s ./internal/server/
