#!/bin/sh
# Tier-1 gate: everything must pass before a change lands.
#
#	./script/check.sh        # or: make check
#
# Runs vet, a full build, and the test suite with the race detector —
# the obs registry and the parallel replay analyzer are exercised from
# many goroutines, so -race is part of the gate, not an extra.
set -eu
cd "$(dirname "$0")/.."

echo "== gofmt -l"
unformatted=$(gofmt -l .)
if [ -n "$unformatted" ]; then
	echo "gofmt: the following files need formatting:" >&2
	echo "$unformatted" >&2
	exit 1
fi

echo "== go vet ./..."
go vet ./...

echo "== go build ./..."
go build ./...

# -shuffle randomizes test (and subtest-sibling) execution order so
# accidental inter-test dependencies surface in CI instead of in the
# field. The seed is printed for every run, green or not;
# go test -race -shuffle=<seed> ./... replays one.
seed=$(date +%s%N)
echo "== go test -race -shuffle=$seed ./..."
go test -race -shuffle="$seed" ./...

# Every step from here on runs something the full run above does not.
# A step that re-runs one of its tests by name only adds wall time.

# run_named PKG NAME... runs the tests NAME... of PKG without -race and
# fails unless each one passed: `go test -run` exits 0 when a name
# matches nothing, so a renamed test would leave the gate unseen.
run_named() {
	pkg=$1
	shift
	out=$(go test -count=1 -v -run "^($(echo "$@" | tr ' ' '|'))\$" "$pkg") || { echo "$out" >&2; exit 1; }
	for name in "$@"; do
		echo "$out" | grep -q "^--- PASS: $name " || { echo "check: $pkg $name did not run and pass" >&2; exit 1; }
	done
	echo "ok	$pkg	$*"
}

# The design rules (rules_test.go): one typed check per structural
# invariant, each with the counterexamples it must reject. They read
# source on one goroutine, so a build tag keeps them out of the -race
# run above and they run here.
echo "== design rules"
run_named . TestDesignRules

# Severities graded against the simulator's true time: six VIOLA runs,
# each analyzed by the reference under three schemes and by the replay.
# Its concurrency is the replay's, which the -race run covers; under the
# detector it would add some 40 s to that run, so a build tag keeps it
# out and it runs here.
echo "== severities against true time"
run_named ./internal/conformance TestSeveritiesAgainstTruth

# A short soak of the analysis service: a couple of seconds of mixed
# concurrent traffic (good archives, hostile uploads, cancellations)
# with oracle-exact verification and a goroutine-leak check at the
# end. `make soak` runs the minutes-long version of the same test.
echo "== serve soak (short)"
METASCOPE_SOAK_SECONDS=2 go test -race -count=1 -run 'TestServeSoak' ./internal/serve

# One iteration of every benchmark: catches benchmarks that rot (fail
# to compile or crash) without paying for a real measurement run. The
# phase search's benchmark must be among them, on both of its shapes,
# and the ranks-scaling one at 1024 ranks.
echo "== go test -bench . -benchtime=1x (smoke)"
out=$(go test -run '^$' -bench . -benchtime=1x ./...)
for shape in ragged-192x256 silenced-32x1000; do
	echo "$out" | grep -q "^BenchmarkDetect/$shape" || { echo "check: BenchmarkDetect/$shape did not run" >&2; exit 1; }
done
echo "$out" | grep -q "^BenchmarkAnalyzeRanks/1024" || { echo "check: BenchmarkAnalyzeRanks/1024 did not run" >&2; exit 1; }

# The flight recorder's contract is that a disabled recorder is free:
# instrumented hot paths (every mailbox put/take in the parallel
# replay) must not allocate when tracing is off. Gate on the benchmark
# so a stray fmt.Sprintf or interface boxing in the Emit path fails CI
# rather than taxing every analysis run.
echo "== flight recorder zero-alloc gate (disabled path)"
out=$(go test -run '^$' -bench 'BenchmarkFlightDisabled$' -benchmem -benchtime=100000x ./internal/obs/flight)
echo "$out" | grep 'BenchmarkFlightDisabled' || { echo "check: zero-alloc benchmark did not run" >&2; exit 1; }
if ! echo "$out" | grep 'BenchmarkFlightDisabled' | grep -q '\b0 allocs/op'; then
	echo "check: disabled flight recorder allocates on the hot path" >&2
	exit 1
fi

# The v2 block decoder is the per-event hot path of lazy analysis: a
# sweep decodes and validates every block into a caller-provided buffer
# (BlockReader.NextInto, which Next calls), so neither the decoder nor
# the validating path may allocate per call. Gate it exactly like the
# flight recorder's disabled path.
echo "== v2 block decode zero-alloc gate"
out=$(go test -run '^$' -bench 'BenchmarkV2BlockDecode$' -benchmem -benchtime=10000x ./internal/trace)
echo "$out" | grep 'BenchmarkV2BlockDecode' || { echo "check: v2 block decode benchmark did not run" >&2; exit 1; }
if ! echo "$out" | grep 'BenchmarkV2BlockDecode' | grep -q '\b0 allocs/op'; then
	echo "check: v2 block decode allocates per block" >&2
	exit 1
fi

# The simulator behind every generated archive switches processes on
# each Sleep, message wait and collective, by coroutine: neither of the
# engine's switches may allocate, and a process blocked in Recv or
# Barrier hands over a wait reason that is formatted only for a deadlock
# report — the cycles allocate exactly what the message and the
# collective need. Gated like the v2 block decoder above.
echo "== simulator engine zero-alloc gate"
out=$(go test -run '^$' -bench 'BenchmarkEngine$' -benchmem -benchtime=10000x ./internal/sim)
for case in sleep ping-pong; do
	line=$(echo "$out" | grep "^BenchmarkEngine/$case-") || { echo "check: BenchmarkEngine/$case did not run" >&2; exit 1; }
	echo "$line"
	echo "$line" | grep -q '\b0 allocs/op' || { echo "check: the engine's $case switch allocates" >&2; exit 1; }
done
run_named ./internal/sim TestSleepCycleAllocatesNothing
run_named ./internal/mmpi TestBlockingWaitsAllocateNoDiagnostics
# A rank writes its trace as it records it: recording allocates about
# the encoded image and one block of events, not 40 bytes per event.
run_named ./internal/measure TestRecordingAllocatesEncodedBytes

# Streaming ingest decodes each event once, straight into the block the
# sweep reads. Gate the consequence: feeding an archive through a live
# session in 64 KiB chunks allocates at most 25 B/event more than the
# lazy post-mortem analysis of the same bytes allocates — the
# streaming-ingest cost as BENCHMARK.json defines it, a difference — and
# at most 1.25x the bytes per event the session is known to need, the
# lazy analysis itself at most 1.25x the bytes per event it is known to
# need (the sweep decodes into the blocks it releases; phase detection
# copies nothing per candidate; the ledger grows in pages), and
# the lazy analysis of an archive of many short ranks at most 1.25x the
# eager one, and the post-mortem path on a communication-bound archive —
# eager load, analysis, the three artifact writes — at most 1.25x the
# bytes per event it is known to need (files borrowed, logs sized by one
# counting pass, no span list, no reflective render), and the same
# archive through the analysis service at most 1.25x that plus the data
# itself, the bundle and its inflated files, once each; and a finished
# job retains at most 1.25x what its report and profile retain alone.
# Run without -race, like the two zero-alloc gates above: the budgets are
# about the program's own bytes.
echo "== live ingest, lazy, eager and served analysis allocation budgets"
run_named . TestLiveIngestAllocBudget TestLazyAllocPerEventBudget TestLazyShortRanksAllocBudget TestEagerAllocPerEventBudget TestServedAllocPerEventBudget TestSettledAnalysesKeepWhatTheyServe
# A collective instance allocates nothing of its own: four times the
# instances, on the world and on a sub-communicator, rooted and not,
# allocate the same object count within a small constant.
run_named ./internal/replay TestCollectiveAllocsFlatInInstances
# The intake's own byte counts — one allocation per inflated entry, none
# for the digest, at most 1 MB on a declared length alone — skip under
# the race detector, which drops archive/zip's pooled inflaters at random.
run_named ./internal/serve TestDecodeZipAllocatesInflatedSizeOnce TestDigestBorrows TestSubmitBodyReadOnce
# The analysis epilogue allocates in proportion to what it writes: a
# write into a written cube row allocates nothing and a new call node
# only the row written; the metric panel, the findings and a subtree
# total walk the metric tree in place; profile.Snapshot hands the series'
# sums over and phase.Snapshot cuts every phase's signatures from one
# string — so none of them allocates more for more metrics, series or
# phases. cube.Read, profile.Read, phase.Read, profile.Diff and
# ByMetahost allocate by what their input holds, not by the cube or
# bucket count it declares.
echo "== epilogue allocation gates"
run_named ./internal/cube TestWritesAllocateByTouch TestTreeQueryAllocsFlatInMetrics TestReadDoesNotAmplifyDeclarations FuzzCubeRead
run_named ./internal/profile TestSnapshotAllocsFlatInSeries TestSnapshotSpendsAccumulator TestDiffAndByMetahostSizeRowsByValues FuzzProfileRead
run_named ./internal/phase TestSnapshotAllocsFlatInPhases FuzzPhaseRead
# The phase search allocates by its input, not by the candidates it
# tries. It compares process-wide bytes, so it runs here, alone and
# without the detector, not beside the -race run's other goroutines.
run_named ./internal/phase TestDetectAllocsIndependentOfCandidates

echo "check: all green"
