# Convenience entry points; see script/check.sh for the tier-1 gate.

.PHONY: check build test race vet bench conformance fuzz soak scenarios

check: ## gofmt + vet + build + race-enabled tests + the design rules of rules_test.go + soak, bench smoke and allocation gates (tier-1 gate)
	./script/check.sh

conformance: ## analytic-oracle suite over a wider seed sweep (the short tier runs inside `make check`)
	METASCOPE_CONFORMANCE_SEEDS=$(or $(SEEDS),8) go test ./internal/conformance -count=1 -v -run 'TestOracle|TestMutationSensitivity'
	go test ./internal/conformance -count=1 -run 'TestMetamorphic|TestFault'

soak: ## minutes-long analysis-service soak under -race (the seconds-long tier runs inside `make check`); SOAK_SECONDS=300 for longer
	METASCOPE_SOAK_SECONDS=$(or $(SOAK_SECONDS),60) go test -race -count=1 -v -run 'TestServeSoak' ./internal/serve

FUZZTIME ?= 10s
fuzz: ## coverage-guided fuzzing of the trace decoders, the live-vs-lazy feeders, the scenario parser, the cube, profile and phase readers and the upload bundle decoder (seed corpora alone run in plain `go test`); FUZZTIME=5m for a long local run
	go test ./internal/trace -run '^$$' -fuzz 'FuzzDecode$$' -fuzztime $(FUZZTIME)
	go test ./internal/trace -run '^$$' -fuzz 'FuzzDecodeV2$$' -fuzztime $(FUZZTIME)
	go test ./internal/trace -run '^$$' -fuzz 'FuzzDecodeDifferential$$' -fuzztime $(FUZZTIME)
	go test ./internal/trace -run '^$$' -fuzz 'FuzzIngestDifferential$$' -fuzztime $(FUZZTIME)
	go test ./internal/replay -run '^$$' -fuzz 'FuzzLiveFeed$$' -fuzztime $(FUZZTIME)
	go test ./internal/scenario -run '^$$' -fuzz 'FuzzScenarioParse$$' -fuzztime $(FUZZTIME)
	go test ./internal/phase -run '^$$' -fuzz 'FuzzPhaseAlign$$' -fuzztime $(FUZZTIME)
	go test ./internal/cube -run '^$$' -fuzz 'FuzzCubeRead$$' -fuzztime $(FUZZTIME)
	go test ./internal/profile -run '^$$' -fuzz 'FuzzProfileRead$$' -fuzztime $(FUZZTIME)
	go test ./internal/phase -run '^$$' -fuzz 'FuzzPhaseRead$$' -fuzztime $(FUZZTIME)
	go test ./internal/serve -run '^$$' -fuzz 'FuzzDecodeZip$$' -fuzztime $(FUZZTIME)

scenarios: ## compile, run, and oracle-check every library scenario across both trace formats
	go test ./internal/conformance -count=1 -v -run 'TestKernelOracle|TestKernelTruncationFails'
	go test ./internal/scenario -count=1 -run 'TestLibraryCompiles|TestArchiveDeterminism'

build:
	go build ./...

test:
	go test ./...

race:
	go test -race ./...

vet:
	go vet ./...

bench: ## the repo benchmark (bench/README.md): four end-to-end workloads; `go run ./bench -trace 1` adds the per-layer rungs
	go run ./bench
