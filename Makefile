GO ?= go

.PHONY: all build test check vet fmt allocs inline results examples race bench hostprof allocprof serveprof benchmark ab experiments serve fuzz traces

all: build

build:
	$(GO) build ./...

test:
	$(GO) test ./...

# check is the pre-merge gate: static analysis, formatting, the host
# allocation guards, the retire-path inlining guard, the byte-identical
# regeneration of results.txt, the example programs, and the
# race-enabled tests for the packages with real concurrency (the parallel
# experiment runner and the pintool observers).
check: vet fmt allocs inline results examples race

vet:
	$(GO) vet ./...

fmt:
	@out="$$(gofmt -l .)"; \
	if [ -n "$$out" ]; then \
		echo "gofmt needed on:"; echo "$$out"; exit 1; \
	fi

# allocs runs the testing.AllocsPerRun == 0 guards on the simulator's
# per-event paths (trace entry/exit, residual calls, bound calls; see
# DESIGN.md "Host memory discipline"), the buffer-aliasing tests, and the
# serving path's handler-level guard: a warm /run allocates at most twice
# its reply and a fixed few objects (DESIGN.md "The serving path"); the
# one-allocation-per-guest-object guards of internal/heap and the string
# runtime; and the per-cell budget (internal/harness: three fixed cells
# under committed host-allocations-per-kinstr ceilings, measured number
# printed on failure); the plain interpreter's fused dispatch and
# primitive retire, which compute into the machine's own buffers; and
# pylang's plain value handlers on the one concrete guest machine.
# The guards live in //go:build !race files — the race detector
# allocates — so they run here, without -race.
allocs:
	$(GO) test -run 'DoesNotAllocate|Aliasing' ./internal/mtjit/ ./internal/pylang/ ./internal/heap/ ./internal/aot/ ./internal/harness/ ./internal/cluster/

# inline fails unless the compiler reports cpu.Machine.Ops inlined into
# the trace executor, the guest machine and the heap: every emitter
# holds the concrete *cpu.Machine so that the retire calls inline, and an
# interface creeping back between them would show here first (DESIGN.md
# "Executor"). It also holds the interpreter's fused dispatch to one call
# per bytecode: the cache, BTB and gshare models inline into the fused
# cpu.Machine entries, the cache model into Load and Store and gshare
# into OpsBranch (the compiled guard), and the table-address helper and its reciprocal
# modulus into mtjit.Machine.Dispatch (DESIGN.md "The interpreter's
# retire path"). And it holds the guest handlers to the one concrete
# mtjit.Machine: its small operations, Const and KindOf, inline into
# pylang's index, normIndex and classify, which no call through an
# interface can. inlined FILE FUNC CALLEE finds CALLEE's inlining
# diagnostic between the line of FILE that starts with FUNC and the next
# closing brace. go build replays the -m diagnostics from its cache.
inline:
	@out="$$($(GO) build -gcflags=-m ./internal/cpu ./internal/mtjit ./internal/heap ./internal/aot ./internal/pylang 2>&1)"; \
	for f in internal/mtjit/executor.go internal/mtjit/machine.go internal/heap/heap.go; do \
		if ! echo "$$out" | grep -q "^$$f:.*inlining call to cpu.(\*Machine).Ops"; then \
			echo "$$f: cpu.Machine.Ops is not inlined (is the retire path behind an interface again?)"; exit 1; \
		fi; \
	done; \
	inlined() { \
		echo "$$out" | awk -v f="$$1" -v h="$$2" -v c="inlining call to $$3" ' \
			FNR == NR { if (index($$0, h) == 1) s = FNR; else if (s && !e && $$0 == "}") e = FNR; next } \
			index($$0, f ":") == 1 && index($$0, c) { split($$0, p, ":"); if (p[2] >= s && p[2] <= e) ok = 1 } \
			END { exit !ok }' "$$1" - || { echo "$$1: $$3 is not inlined into $$2...)"; exit 1; }; \
	}; \
	inlined internal/cpu/machine.go 'func (m *Machine) Dispatch(' '(*cache).access' && \
	inlined internal/cpu/machine.go 'func (m *Machine) OpsLoads(' '(*cache).access' && \
	inlined internal/cpu/machine.go 'func (m *Machine) Dispatch(' '(*btb).predict' && \
	inlined internal/cpu/machine.go 'func (m *Machine) Dispatch(' '(*gshare).predict' && \
	inlined internal/cpu/machine.go 'func (m *Machine) OpsBranch(' '(*gshare).predict' && \
	inlined internal/cpu/machine.go 'func (m *Machine) Load(' '(*cache).access' && \
	inlined internal/cpu/machine.go 'func (m *Machine) Store(' '(*cache).access' && \
	inlined internal/mtjit/machine.go 'func (m *Machine) Dispatch(' '(*DirectMachine).tableAddr' && \
	inlined internal/mtjit/machine.go 'func (m *Machine) Dispatch(' 'divisor.mod' && \
	inlined internal/pylang/ops.go 'func (vm *VM) normIndex(' 'mtjit.(*Machine).Const' && \
	inlined internal/pylang/ops.go 'func (vm *VM) index(' 'mtjit.(*Machine).Const' && \
	inlined internal/pylang/ops.go 'func (vm *VM) classify(' 'mtjit.(*Machine).KindOf'

# results regenerates every table and figure and compares the output
# byte for byte with the checked-in results.txt — the repo's first
# invariant (~10 s on 2 CPUs; each distinct cell simulates once). It also
# fails when the run simulates more than its 159 cells: every table asks
# for its cells under one Options, and a cell asked for a second time
# under Options that differ only in what is not simulated would run
# twice.
results:
	@err="$$(mktemp)"; trap 'rm -f "$$err"' EXIT; \
	$(GO) run ./cmd/experiments -exp all -stats 2>"$$err" | cmp - results.txt || { cat "$$err"; exit 1; }; \
	misses="$$(sed -n 's/^cache: .*, \([0-9]*\) misses.*/\1/p' "$$err")"; \
	if [ -z "$$misses" ] || [ "$$misses" -gt 159 ]; then \
		cat "$$err"; echo "results: $$misses cells simulated, want at most 159"; exit 1; \
	fi

# examples runs the four programs under examples/ (each well under a
# second) and the guest source examples/sumloop.py through mtjit -file,
# and fails on a non-zero exit, or unless the engine's record of
# compiled code shows through them: quickstart must report at least one
# compiled trace, both schemeloops guests at least one trace each, and
# the -file run its JIT log.
examples:
	@for d in phasebreakdown warmupcurve; do \
		$(GO) run ./examples/$$d > /dev/null || { echo "examples/$$d failed"; exit 1; }; \
	done; \
	out="$$($(GO) run ./examples/quickstart)" || { echo "examples/quickstart failed"; exit 1; }; \
	echo "$$out" | grep -q 'the JIT compiled [1-9]' || { echo "examples/quickstart: the JIT compiled no trace"; exit 1; }; \
	out="$$($(GO) run ./examples/schemeloops)" || { echo "examples/schemeloops failed"; exit 1; }; \
	for g in scheme python; do \
		echo "$$out" | grep -Eq "^$$g .*, [1-9][0-9]* traces" || { echo "examples/schemeloops: no $$g trace"; exit 1; }; \
	done; \
	out="$$($(GO) run ./cmd/mtjit -vm pypy -file examples/sumloop.py -jitlog)" || { echo "mtjit -file examples/sumloop.py failed"; exit 1; }; \
	echo "$$out" | grep -q -- '---- jit log ----' || { echo "mtjit -file examples/sumloop.py: no jit log"; exit 1; }

# Race instrumentation slows the simulator ~10x; give slow single-core
# machines headroom beyond go test's default 10m panic. The JIT engine
# and differential oracle are single-threaded but ride along under
# -short to catch races introduced by future parallelism. The profiler's
# equivalence and cost-guard tests (internal/profile/profiler_test.go,
# internal/harness/reqtrace_test.go) run here with every other test of
# their packages.
race:
	$(GO) test -race -timeout 30m ./internal/harness/... ./internal/pintool/... ./internal/telemetry/... ./internal/profile/... ./internal/trace/... ./internal/cluster/... ./internal/reqtrace/...
	$(GO) test -race -short -timeout 30m ./internal/mtjit/... ./internal/difftest/...

# -run '^$' keeps `go test` from running the whole unit-test suite
# before the benchmarks start.
bench:
	$(GO) test -run '^$$' -bench=. -benchmem . ./internal/cpu

# hostprof profiles the simulator itself: it runs the root bench_test.go
# benchmarks BENCH names (default BenchmarkTable1, the interpreter and JIT
# kinds side by side) under -cpuprofile and prints the 25 hottest
# functions — the recipe behind EXPERIMENTS.md "Where host time goes".
# The test binary and the profile stay in .bench_build/.
BENCH ?= BenchmarkTable1

hostprof:
	@mkdir -p .bench_build
	$(GO) test -run '^$$' -bench '$(BENCH)' -benchtime 3x -o .bench_build/hostprof.test \
		-cpuprofile .bench_build/hostprof.prof .
	$(GO) tool pprof -top -nodecount 25 .bench_build/hostprof.test .bench_build/hostprof.prof

# allocprof counts where the simulator allocates on the host: the same
# benchmarks under -memprofile with every 512th byte sampled, then the 25
# sites with the most objects — the recipe behind EXPERIMENTS.md "Host
# allocations per simulated instruction".
allocprof:
	@mkdir -p .bench_build
	$(GO) test -run '^$$' -bench '$(BENCH)' -benchtime 1x -o .bench_build/allocprof.test \
		-memprofile .bench_build/allocprof.prof -memprofilerate 512 .
	$(GO) tool pprof -sample_index=alloc_objects -top -nodecount 25 .bench_build/allocprof.test .bench_build/allocprof.prof

# serveprof profiles the warm serving path: BenchmarkServeMemo (frontend,
# three workers, loopback, memo hits from GOMAXPROCS clients) under
# -cpuprofile, then the 25 hottest functions — the recipe behind
# EXPERIMENTS.md "What a request costs".
serveprof:
	@mkdir -p .bench_build
	$(GO) test -run '^$$' -bench BenchmarkServeMemo -benchtime 20000x -o .bench_build/serveprof.test \
		-cpuprofile .bench_build/serveprof.prof ./internal/cluster
	$(GO) tool pprof -top -nodecount 25 .bench_build/serveprof.test .bench_build/serveprof.prof

# benchmark runs one workload of the repository benchmark (BENCHMARK.json,
# benchmark/README.md): W is interp_sweep, jit_sweep, paper_regen or
# serve_mix; TRACE=1 adds the per-layer rows and writes
# benchmark/out/trace-$(W).json.
W ?= serve_mix
TRACE ?= 0

benchmark:
	bash benchmark/run.sh --workload $(W) --seed 1 --seconds 20 --trace $(TRACE)

# ab compares the work tree with commit REF on the repository benchmark:
# N alternated pairs of runs of each workload in W (a space-separated
# list), then per end-to-end metric each side's median and quartiles, the
# pairs the change won, and a verdict against the BENCHMARK.json bound
# (scripts/ab.sh, cmd/abreport). REF's committed files and both binaries
# stay in .bench_build/, every run's output in .bench_build/ab-runs/.
REF ?= HEAD
N ?= 10

ab:
	bash scripts/ab.sh '$(REF)' '$(W)' '$(N)'

experiments:
	$(GO) run ./cmd/experiments -exp all

# serve starts mtjitd in single mode (a worker with no store) on :8077
# (see README).
serve:
	$(GO) run ./cmd/mtjitd -addr :8077

# Differential fuzzing: each target generates guest programs from raw
# bytes and cross-checks them under the full VM configuration matrix
# (see internal/difftest). Divergences are minimized into
# internal/difftest/testdata/fuzz and replayed by plain `go test`.
# FuzzTraceDecode, FuzzRunRequest, FuzzDecodeResult (store payloads),
# FuzzStoreVerify (the store's blob frame), FuzzTraceparent and
# FuzzReqtraceQuery (the /debug/reqtrace query) fuzz
# decoders of bytes that cross a process boundary: never panic, and what
# is accepted is canonical.
FUZZTIME ?= 30s

fuzz:
	$(GO) test -fuzz=FuzzPylangDifferential -fuzztime=$(FUZZTIME) ./internal/difftest
	$(GO) test -fuzz=FuzzSklangDifferential -fuzztime=$(FUZZTIME) ./internal/difftest
	$(GO) test -fuzz=FuzzTieredPromotion -fuzztime=$(FUZZTIME) ./internal/difftest
	$(GO) test -fuzz=FuzzAmalgamatedTiering -fuzztime=$(FUZZTIME) ./internal/difftest
	$(GO) test -fuzz=FuzzAnnotStream -fuzztime=$(FUZZTIME) ./internal/profile
	$(GO) test -fuzz=FuzzTraceDecode -fuzztime=$(FUZZTIME) ./internal/trace
	$(GO) test -fuzz=FuzzRunRequest -fuzztime=$(FUZZTIME) ./internal/cluster
	$(GO) test -fuzz=FuzzDecodeResult -fuzztime=$(FUZZTIME) ./internal/cluster
	$(GO) test -fuzz=FuzzStoreVerify -fuzztime=$(FUZZTIME) ./internal/cluster
	$(GO) test -fuzz=FuzzTraceparent -fuzztime=$(FUZZTIME) ./internal/reqtrace
	$(GO) test -fuzz=FuzzReqtraceQuery -fuzztime=$(FUZZTIME) ./internal/reqtrace

# traces re-records the committed workload fixtures under
# internal/bench/testdata/traces (needed when instruction accounting or
# the trace wire format changes; bump trace.FormatVersion for the
# latter) and refreshes the tracefmt golden that renders one of them.
traces:
	$(GO) test ./internal/bench -run TestTraceFixtures -update
	$(GO) test ./cmd/tracefmt -update
