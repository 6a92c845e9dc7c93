GO ?= go

.PHONY: check vet build test race bench bench-short bench-smoke bench-json bench-big bench-big-smoke bench-compare bench-pair telemetry-overhead kernel-equivalence fused-equivalence robustness cachefmt obs serve

# check is the tier-1 gate: everything must pass before a change lands.
# A PR that touches the kernels or the sweep should also refresh the
# dated benchmark archive with `make bench-json` and note the numbers.
check: vet build test race bench-smoke bench-big-smoke telemetry-overhead kernel-equivalence fused-equivalence robustness cachefmt obs serve

# vet also fails when any Go file in the tree is not gofmt-formatted.
# bench/ is its own module, which ./... does not enter, so vet and build
# also compile socbench: it imports internal packages, and a change to
# their API must break the gate, not the next benchmark run.
vet:
	$(GO) vet ./...
	cd bench && $(GO) vet ./...
	@out=$$(gofmt -l .); if [ -n "$$out" ]; then echo "gofmt -l: unformatted files:"; echo "$$out"; exit 1; fi

build:
	$(GO) build ./...
	cd bench && $(GO) build -o /dev/null ./socbench

test:
	$(GO) test ./...

# race re-runs the suite under the race detector; the parallel
# evaluation engine (worker pools, singleflight table cache) is
# exercised by dedicated determinism and contention tests. internal/core
# runs in a go test of its own, then every other package: its race run
# takes about four minutes alone on 2 vCPUs, and sharing them with the
# other packages' race runs (go test runs package binaries in parallel)
# could carry it past go test's default 10-minute timeout.
race:
	$(GO) test -race ./internal/core
	$(GO) test -race $$($(GO) list ./... | grep -v '^soctap/internal/core$$')

# bench runs the full benchmark harness (one bench per paper artifact
# plus the engine micro-benchmarks). Slow: tab3 alone is minutes.
bench:
	$(GO) test -bench . -benchmem ./...

# bench-short runs only the fast engine benchmarks — the tdcCost
# kernel (benchCore, and ckt-7 on both sides of the kernel's reset
# rule) and the serial-vs-parallel table build.
bench-short:
	$(GO) test -run '^$$' -bench 'BenchmarkTDCCostKernel|BenchmarkBuildTable' -benchmem ./internal/core

# bench-smoke compiles and runs each fast benchmark exactly once — a
# regression tripwire for the benchmark code itself (the point setup of
# a new m, the one-shot wrapper.New, the warm searches on d695 and
# System4, the simulator's BenchmarkVerifyPlan and the ATE image's
# BenchmarkBuildVectorImage included), cheap enough for the tier-1
# gate (no timing is measured at -benchtime=1x).
bench-smoke:
	$(GO) test -run '^$$' -bench 'BenchmarkTDCCostKernel|BenchmarkPointSetup|BenchmarkBuildTableSerial|BenchmarkBuildTableParallel' -benchtime 1x ./internal/core
	$(GO) test -run '^$$' -bench 'BenchmarkGreedySchedule|BenchmarkGreedy50Cores' -benchtime 1x ./internal/sched
	$(GO) test -run '^$$' -bench 'BenchmarkWrapperNew$$' -benchtime 1x ./internal/wrapper
	$(GO) test -run '^$$' -bench 'BenchmarkOptimizeSearch$$|BenchmarkOptimizeSearchSystem4$$|BenchmarkVerifyPlan$$|BenchmarkBuildVectorImage$$' -benchtime 1x .

# bench-json archives the headline benchmarks as a dated,
# machine-readable report (BENCH_<yyyy-mm-dd>.json, or the first free
# name of BENCH_<yyyy-mm-dd>b.json, c, ... when an archive of that date
# exists, so it never overwrites one): per-op time plus
# alloc stats and any custom metrics, parsed by cmd/benchjson, which
# stores a benchmark run several times as the median of each field, its
# sample count and the quartiles of ns/op. Every rung runs five times
# (-count 5), so a compare reads medians rather than single samples:
# the paper artifacts and the search (every artifact sample runs on a
# fresh engine, so builds its tables cold), the counting
# kernel's pass (BenchmarkTDCCostKernel: benchCore at m = 48 and ckt-7
# at m = 16 and 255), the point setup
# of a new m (BenchmarkPointSetup), one core's serial table build, the
# one-shot wrapper.New of the verify path (BenchmarkWrapperNew: d695
# and d2758 at m = 8..64), the warm System4 search
# (BenchmarkOptimizeSearchSystem4), warm technique selection
# (BenchmarkTechSelWarm: the socopt -techsel flow on d695 and System1
# at W_TAM 32, tables warmed first), the simulator (BenchmarkVerifyPlan
# on d695 and d2758, at GOMAXPROCS 1 and 2: its replays fan out over
# the CPUs, and benchjson keeps one name per GOMAXPROCS value), the
# shipping layer (BenchmarkBuildVectorImage: the ATE image of the d695
# and d2758 plans at W_TAM 32, tables warmed first), the warm socserve
# request, the greedy schedule (at the default benchtime: a single
# -benchtime 1x iteration times a cold first call, several times the
# steady state) and the cache tiers (the cold load of a checksummed
# table entry at MaxWidth 64 with its entry-bytes,
# BenchmarkDiskLoadV1VsV2/v2-bitpack, and warm parallel Gets on the
# one-lock Cache, BenchmarkCacheGetParallel/single-lock; both keep
# their archived names).
bench-json:
	d=$$(date +%Y-%m-%d); out=BENCH_$$d.json; \
	for s in b c d e f g h i j k l m n o p q r s t u v w x y z; do [ -e $$out ] || break; out=BENCH_$$d$$s.json; done; \
	if [ -e $$out ]; then echo "bench-json: every archive name of $$d is taken"; exit 1; fi; \
	{ $(GO) test -run '^$$' -bench 'BenchmarkFig2CktSweep$$|BenchmarkTab3WithWithoutTDC$$|BenchmarkOptimizeSearch$$' -benchtime 1x -count 5 -benchmem . ; \
	  $(GO) test -run '^$$' -bench 'BenchmarkGreedySchedule$$' -count 5 -benchmem ./internal/sched ; \
	  $(GO) test -run '^$$' -bench 'BenchmarkTDCCostKernel$$|BenchmarkPointSetup|BenchmarkBuildTableSerial$$' -count 5 -benchmem ./internal/core ; \
	  $(GO) test -run '^$$' -bench 'BenchmarkWrapperNew$$' -count 5 -benchmem ./internal/wrapper ; \
	  $(GO) test -run '^$$' -bench 'BenchmarkDiskLoadV1VsV2|BenchmarkCacheGetParallel' -count 5 -benchmem ./internal/core ; \
	  $(GO) test -run '^$$' -bench 'BenchmarkOptimizeSearchSystem4$$|BenchmarkTechSelWarm$$|BenchmarkBuildVectorImage$$' -count 5 -benchmem . ; \
	  $(GO) test -run '^$$' -bench 'BenchmarkVerifyPlan$$' -cpu 1,2 -count 5 -benchmem . ; \
	  $(GO) test -run '^$$' -bench 'BenchmarkServeOptimizeWarm$$' -count 5 -benchmem ./internal/serve ; } \
	| $(GO) run ./cmd/benchjson -o $$out && echo wrote $$out

# bench-big runs the giant-profile streaming workload: every core of a
# 48-core, million-cube design priced through the window-64 streaming
# evaluator (cubes/s, cores/s, peak heap high-water), plus the
# streamed-vs-materialized >=10x memory acceptance test. Results merge
# into the newest benchmark archive of the day (the one bench-json
# wrote last), next to the bench-json headliners.
bench-big:
	SOCTAP_GIANT=1 $(GO) test -run TestStreamingPeakMemoryGiant -count=1 -v -timeout 1800s ./internal/core
	d=$$(date +%Y-%m-%d); out=$$(ls BENCH_$$d*.json 2>/dev/null | LC_ALL=C sort | tail -1); out=$${out:-BENCH_$$d.json}; \
	$(GO) test -run '^$$' -bench 'BenchmarkStreamGiantSweep$$|BenchmarkFusedGiantTable$$' -benchtime 1x -benchmem -timeout 1800s ./internal/core \
	| $(GO) run ./cmd/benchjson -merge -o $$out && echo merged into $$out

# bench-big-smoke is the tier-1 slice of bench-big: the same sweep on a
# scaled-down member of the giant family, plus the window-proportional
# peak-memory gate (streamed evaluator footprint must stay O(window),
# far under the materialized whole-set footprint), the fused-pass
# counter gate (eval.passes / eval.fused_points / window loads must be
# identical at Workers 1 and 8 on the smoke-scale giant core), and the
# fused table bench's >= 5x window-load amortization.
bench-big-smoke:
	$(GO) test -run 'TestStreamingPeakMemorySmoke|TestFusedCountersWorkerInvariance' -count=1 ./internal/core
	$(GO) test -run '^$$' -bench 'BenchmarkStreamGiantSweep$$|BenchmarkFusedGiantTable$$' -benchtime 1x -short ./internal/core

# kernel-equivalence asserts the counting kernel and sweep-pruning
# exactness contracts: the kernel agrees with the real encoder (group
# copy) and with a per-target-bit count (no group copy) on dense, thin,
# combinational, small, input-free, one-long-chain and tied-slice cores
# at windows 0, 1 and 64, the point table lands every stimulus cell on
# its StimulusMap row and (row, group) slot on random cores at every m,
# unpruned tables render to the same text golden on every
# d695/industrial core, steady-state tdcCost runs at 0 allocs/op on a dense and a thin
# core over a kept whole-set window (and a new m, its design rebuilt in
# place, allocates nothing), an evaluator returning to an earlier m
# prices it like the one-shot API, wrapper.New and one recycled design
# rebuilt by a Packer in shuffled m order build every design of the
# paper cores and of random cores field for field like the reference
# form (the rebuilt design's StimulusMap like a fresh one's), the cube
# generator yields the same cubes as its map-and-sort reference form on
# the paper cores, synthesized industrial, iscas and giant cores, flat
# and saturated specs, every d695/industrial table renders byte-identically
# to its section of the checked-in text golden golden_tables.txt (options,
# then every Config of every row at every width) at windows 0/64 (and 1
# on d695) × workers 1/2/8, every plan of d695, d2758 and System1-4 (W_TAM 8..64 × three
# styles × MergeSearch × NaiveOrder: partition in bus order, makespan,
# volume, schedule items and each core's Config) is byte-identical to
# the checked-in golden plans at workers 1/2/8, tables built at every
# window (forced through the package's test seam) and worker count are
# deeply equal to the residency rule's build (including the
# window-boundary fuzz seeds), SweepTDC gives Evaluator.TDC's Config at
# every m at every forced window on 1 and 8 workers, the residency rule
# flips exactly at 2^31 raw stimulus bits and an evaluator at that point
# streams ceil(patterns/64) windows without generating a cube, a
# Workers-8 table build allocates less beyond a Workers-1 build than one
# flattened copy of its test set (one producer loads the cubes, mirrors
# share them), the fuzz seed corpora
# for the word and codec kernels still pass (the word kernels': CopyBits
# against a per-bit reference and a ReadBits/WriteBits round trip; the
# codec's: encode/decode round trip, cost model = encoder, the append
# encoder leaving its buffer's prefix untouched, and the decompressor
# agreeing with the reference decoder on arbitrary streams), the
# decompressor VerifyPlan replays through matches that reference decoder
# on 200 random encoded streams at one cycle per codeword, emits each
# slice on the next header, keeps an emitted slice intact until then in
# its two recycled buffers with no allocation once warm, and rejects
# every malformed stream, and every
# dictionary configuration technique selection prices on d695 and
# System1 (each m at capacities 4..256: Config, dictionary words and
# stream digests) and 24 of their dictionary plans, each passing
# VerifyPlan, are byte-identical to the checked-in golden_dict.txt, and
# the selective-encoding stream atevec.Build ships for every compressed
# core of 20 plans (d695 and d2758 at W_TAM 8..64 under tdc-per-core,
# System1 at W_TAM 16 and 32 under tdc-per-core and tdc-per-TAM; each
# plan passing VerifyPlan: m, w, codeword and bit counts, stream digest)
# is the one the checked-in golden_selenc.txt records.
kernel-equivalence:
	$(GO) test -run 'TestKernelPathsAgree|TestSegmentTableMatchesStimulusMap|TestKernelSteadyStateZeroAlloc|TestEvaluatorMatchesOneShotAPI|TestBuildTablePruningGoldenEquivalence|TestEvalTDCMatchesRealEncoder|TestGoldenTables|TestGoldenPlans' -count=1 ./internal/core
	$(GO) test -run 'TestStreamingTableEquivalence|TestStreamingEvaluatorEquivalence|TestEvalWindowValidation|TestStreamingWindowTelemetry|FuzzStreamingWindowEquivalence|TestSweepTDCForcedWindows|TestEvaluatorStreamsAtThreshold|TestBuildTableLoadsCubesOnce' -count=1 ./internal/core
	$(GO) test -run 'TestStreamsCubesThreshold' -count=1 ./internal/soc
	$(GO) test -run 'TestNewMatchesReference|TestPackerMatchesReference' -count=1 ./internal/wrapper
	$(GO) test -run 'TestGeneratorMatchesReference' -count=1 ./internal/cube
	$(GO) test -run 'FuzzWordKernels' -count=1 ./internal/bitvec
	$(GO) test -run 'FuzzEncodeDecodeRoundTrip|FuzzDecodeStream|TestQuickMachineEquivalence|TestStepMatchesReferenceDecoder|TestStepErrors|TestStepEmitsOnNextHeader|TestStepRecyclesTwoBuffers|TestDecodeStreamErrors|TestNewValidation|TestHardwareCost' -count=1 ./internal/selenc
	$(GO) test -run 'TestGoldenDict|TestGoldenSelEnc' -count=1 ./internal/sim

# fused-equivalence asserts the fused single-pass sweep's exactness
# contracts under the race detector: tables built by the fused sweep
# (windows 1/64, forced through the package's test seam) are
# bit-identical to the per-band sweep over one whole-set window (the
# residency rule's window, or the whole set streamed as one) on every
# d695/industrial core plus the
# decay/compressible synthetics × workers 1/8 (including multi-batch
# schedules), the schedule follows the window count, the mid-pass LB/UB
# pruning drops candidates without changing the table, every fused and
# pruning counter is worker-count invariant, every sampled band point
# of both schedules is accounted as a completed evaluation or a pruned
# candidate (globally and per core, workers 1/2/8), and the
# steady-state fused window kernel runs at 0 allocs/op.
fused-equivalence:
	$(GO) test -race -count=1 -timeout 600s -run 'TestFusedTableEquivalence|TestStreamingTableEquivalence|TestFusedMidPassPruning|TestFusedCountersWorkerInvariance|TestBuildTableBandBoundaries|TestPruneAccounting' ./internal/core
	$(GO) test -count=1 -run 'TestFusedWindowKernelZeroAlloc' ./internal/core

# robustness asserts the failure-model contracts under the race
# detector with a tight timeout: the singleflight deadlock regression
# (a poisoned cache entry would hang here, not pass), panic containment
# at the core package boundary (table builds, fused sweep windows on the
# producer and on mirrors, and the architecture search), prompt
# cancellation with no goroutine
# leaks (technique selection's dictionary sweeps stop at the next
# pattern), bit-identical results through the context-threaded entry
# points, disk-store fault injection, the counting kernel's slot
# scratch staying within StimulusBits bytes on a small upload whose
# point at MaxWrapperChains once needed si × GroupCount(m), and
# malformed-design rejection —
# explicit test cubes included (off-width, out-of-range, repeated or
# unsorted care positions never reach the kernels) — and the simulator's
# own failure model: VerifyPlan rejects corrupted plans (a core dropped
# or tested twice, a choice off its schedule item, a width, time or
# plan total that disagrees with the simulation, the wrapper design or
# the bus, a partition that is not the schedule's bus widths, has a
# bus with no wire or exceeds W_TAM) and malformed ones (no result,
# schedule or SOC, a bus time missing) with an error rather than a
# panic, verifies dictionary plans at the capacity they record and
# direct-access plans whose bus is wider than a core's useful wrapper
# chains, and every flip of a header prefix or single-bit payload bit of
# a shipped stream, or a dropped last codeword, fails the receiver. Its
# replay fan-out reports the plan-order first error at GOMAXPROCS 1, 2
# and 4, turns a panicking replay into a *core.PanicError naming the
# core with no goroutine left behind, and verifies every style's plan
# of d695 and d2758 at W_TAM 8..64 on one worker and on two. Under all
# of these sits the one worker pool, internal/par, whose own contract
# is checked here too: one worker runs the tasks in order on the caller
# and starts no goroutine, the lowest-index error wins at 1, 2 and 8
# workers, no task is claimed after a failure or a cancellation, a
# worker index is never in use on two goroutines at once, and no
# goroutine outlives the call.
robustness:
	$(GO) test -race -count=1 -timeout 300s -run 'TestCacheGetPanicNoDeadlock|TestCacheWaiterCancelPromptly|TestCacheDeterministicErrorCached|TestForEachEvalPanicContained|TestFusedPassPanicContained|TestSearchPanicContained|TestBuildTableContextCancelled|TestSweepTDCContextCancelled|TestOptimizeCancelMidRun|TestOptimizeCancelDuringTechSel|TestOptimizeContextMatchesOptimize|TestStoreDiskTableFaultInjection|TestDiskCacheShortEntryIsCorrupt|TestKernelSlotScratchBounded' ./internal/core
	$(GO) test -race -count=1 -timeout 60s -run 'TestParseRejectsMalformedDesigns|TestValidateStructuralBounds|TestMalformedDesignNeverReachesKernels|TestValidateRejectsMalformedExplicitCubes' ./internal/soc
	$(GO) test -race -count=1 -timeout 120s -run 'TestVerifyPlanCatchesCorruptPlans|TestVerifyPlanDictRecordedCapacity|TestVerifyClampedDirectConfigs|TestShippedStreamMutationsFail|TestVerifyPlanFirstErrorInPlanOrder|TestVerifyPlanPanicContained|TestVerifyPlanAllStyles' ./internal/sim
	$(GO) test -race -count=1 -timeout 60s ./internal/par

# cachefmt asserts the cache-format and cache-tier contracts: the
# checked-in entry pins the byte layout (TestTableEntryLayout), the
# decoder rejects every flaw it guards against — a bad magic, version,
# checksum or length, trailing bytes, an unknown flag or codec, another
# key, every truncation and bit flip — and FuzzTableEntry's seed corpus
# holds it to never panicking and to re-encoding what it accepts
# byte-exactly, every d695/industrial table at MaxWidth 64 decodes
# DeepEqual to its build (TestFormatV2MatchesV1OnBenchmarks), a
# truncated, garbage, stale-version, bit-flipped, earlier-format
# (bitpacked container, gob) entry is one counted corrupt rebuild and is
# rewritten, a flat file of the first revision is never read,
# diskcache.bytes counts an overwritten entry's bytes as removed, both
# tiers honour their size bounds — the memory tier as one exact LRU
# over every resident table — a resident table keeps only its rows (a
# core passed to Get and dropped is collected, TestCacheKeepsNoCore,
# and twelve upload-shaped cores built and dropped leave at most their
# twelve tables' charge plus a fixed slack on the heap,
# TestCacheRetainsOnlyRows), a table's charge is the heap keeping it
# costs (TestTableMemBytesMatchesHeap, at MaxWidth 16, 32 and 64), a
# technique selection keeps no core either
# (TestTechSelectionKeepsNoCore), and, under the race detector, the one-lock
# cache builds each key once and hands every caller the same table.
cachefmt:
	$(GO) test -run 'TestTableEntryLayout|TestTableEntryRejects|FuzzTableEntry|TestFormatV2MatchesV1OnBenchmarks' -count=1 ./internal/core
	$(GO) test -run 'TestDiskCacheV1Migration|TestDiskCacheCorruption|TestDiskCacheBytesNetOfOverwrites|TestDiskCacheRoundTrip|TestDiskCacheBitFlipNeverPanics|TestDiskCacheSizeBound' -count=1 ./internal/core
	$(GO) test -run 'TestCacheKeepsNoCore|TestCacheRetainsOnlyRows|TestTableMemBytesMatchesHeap|TestTechSelectionKeepsNoCore' -count=1 ./internal/core
	$(GO) test -race -count=1 -timeout 120s -run 'TestCacheShardedConcurrency|TestCacheMemBound|TestCacheMemBoundEvictsLRU' ./internal/core

# telemetry-overhead asserts the zero-overhead-when-disabled contract:
# the instrumented-but-disabled kernel and makespan paths must run at 0
# allocs/op (test-enforced), the enabled peak-heap gauge samples the
# heap through runtime/metrics at 0 allocs/op too, the disabled-path
# benchmark must still compile and run, and the telemetry package
# itself must be vet-clean.
telemetry-overhead:
	$(GO) vet ./internal/telemetry
	$(GO) test -run 'TestKernelDisabledTelemetryZeroAlloc|TestMakespanDisabledTelemetryZeroAlloc|TestPeakHeapSampleZeroAlloc|TestNilFastPathAllocs' -count=1 ./internal/core ./internal/telemetry
	$(GO) test -run '^$$' -bench 'BenchmarkTDCCostKernelDisabled|BenchmarkTDCCostKernelTelemetry' -benchtime 1x -benchmem ./internal/core

# obs asserts the observability-plane contracts: the disabled histogram
# record path and the subscriber-free publish path run at 0 allocs/op
# (test-enforced), the /metrics exposition matches its golden
# byte-for-byte, the event bus never blocks publishers (including
# against a stalled /events client) and survives the race detector, a
# command's progress printer — one bus subscription — has printed every
# span that ended by the time the run's End returns, the histogram
# observation counts are worker-count invariant on d695, and the
# benchjson compare heuristics hold.
obs:
	$(GO) test -race -count=1 -timeout 300s -run 'TestBus|TestSubscriptionCloseRace|TestEvent|TestHistogram|TestBucketBounds|TestWriteOpenMetricsGolden|TestMetricsAndHealthzEndpoints|TestShutdownCancelsStreams|TestParseKinds' ./internal/telemetry
	$(GO) test -race -count=1 -timeout 60s -run 'TestProgressDrainedBeforeEnd' ./internal/cli
	$(GO) test -count=1 -run 'TestHistogramEnabledZeroAlloc|TestNilFastPathAllocs|TestBusNoSubscribersIsFree' ./internal/telemetry
	$(GO) test -race -count=1 -timeout 600s -run 'TestHistogramCountInvariance' ./internal/core
	$(GO) test -count=1 ./cmd/benchjson

# serve asserts the optimization-service contracts under the race
# detector: the end-to-end socserve suite (job queue admission bounds,
# per-request deadline cancellation mid-build, per-tenant rate
# limiting, singleflight table sharing across concurrent identical
# designs, NDJSON progress streaming, graceful drain with no goroutine
# leaks, a technique-selection plan with dictionary cores that passes
# VerifyPlan, a request's ?workers capped at the server's per-job bound,
# one per CPU by default, and 24 never-seen uploads growing the heap by
# no more than the cache's memory budget plus a constant,
# TestUploadHeapWithinCacheBudget, about 11 s of the race run) plus the
# HTTP/cache hardening regressions this plane stands on (non-Flusher
# event streaming, slowloris header reaping, write-timeout exemption for
# streams, disk-cache touch-error accounting).
serve:
	$(GO) test -race -count=1 -timeout 300s ./internal/serve ./cmd/socserve
	$(GO) test -race -count=1 -timeout 120s -run 'TestEventsNonFlusherWriter|TestStalledHeaderReadReaped|TestEventsStreamSurvivesWriteTimeout' ./internal/telemetry
	$(GO) test -count=1 -run 'TestDiskStoreTouchErrorCounted' ./internal/core

# bench-compare diffs the two most recent dated benchmark archives
# (BENCH_*.json at the repository root), failing on any directional
# metric that regressed by more than 10%. Run `make bench-json` first
# on both commits being compared. The names sort in the C locale, where
# BENCH_<date>.json comes before BENCH_<date>b.json.
bench-compare:
	@set -- $$(ls BENCH_*.json 2>/dev/null | LC_ALL=C sort | tail -2); \
	if [ $$# -lt 2 ]; then echo "bench-compare: need two BENCH_*.json archives (run make bench-json)"; exit 1; fi; \
	echo "benchjson -compare $$1 $$2"; \
	$(GO) run ./cmd/benchjson -compare $$1 $$2 -threshold 0.10

# bench-pair runs the benchmarks matching BENCH in package PKG (default
# the module root) from two builds alternately, PAIRS times (default
# 6): the test binary of git revision REV (default HEAD), built from a
# `git archive` of it in a temporary directory, and the working tree's
# own. Each binary runs in its own tree's package directory. `benchjson
# -pair` then prints, per benchmark, both medians of ns/op, how many
# pairs the working tree won, and both medians of B/op. The two samples of a pair are taken back
# to back, so a VM whose speed drifts moves both alike, which two
# archives made hours apart (bench-compare) cannot cancel. The
# temporary directory is removed however the target ends. BENCH is
# passed on unexpanded, so a `$` in it needs no doubling. Example:
#
#	make bench-pair BENCH='BenchmarkTDCCostKernel$' PKG=./internal/core PAIRS=10
REV ?= HEAD
PKG ?= .
PAIRS ?= 6
bench-pair:
	@if [ -z '$(value BENCH)' ]; then echo "bench-pair: set BENCH to a -bench pattern"; exit 2; fi
	@set -e; git rev-parse --verify -q '$(REV)^{commit}' >/dev/null || { echo "bench-pair: no commit $(REV)"; exit 2; }; \
	tmp=$$(mktemp -d); trap 'rm -rf "$$tmp"' EXIT; \
	mkdir "$$tmp/src"; git archive '$(REV)' | tar -x -C "$$tmp/src"; \
	(cd "$$tmp/src" && $(GO) test -c -o "$$tmp/old.test" $(PKG)); \
	$(GO) test -c -o "$$tmp/new.test" $(PKG); \
	for i in $$(seq $(PAIRS)); do \
		(cd "$$tmp/src/$(PKG)" && "$$tmp/old.test" -test.run '^$$' -test.bench '$(value BENCH)' -test.benchmem -test.timeout 30m) >>"$$tmp/old.txt"; \
		(cd $(PKG) && "$$tmp/new.test" -test.run '^$$' -test.bench '$(value BENCH)' -test.benchmem -test.timeout 30m) >>"$$tmp/new.txt"; \
		echo "bench-pair: pair $$i of $(PAIRS) done"; \
	done; \
	echo "bench-pair: $(REV) -> working tree, $(PKG), $(PAIRS) pairs"; \
	$(GO) run ./cmd/benchjson -pair "$$tmp/old.txt" "$$tmp/new.txt"
