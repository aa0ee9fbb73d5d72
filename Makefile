# Makefile — common entry points. `make ci` is what the repo considers a
# green build; `make bench` refreshes BENCH_search.json (the perf
# trajectory of the parallel grid-search engine).

.PHONY: build test vet lint race bench ci

build:
	go build ./...

test:
	go test ./...

vet:
	go vet ./...

lint:
	go run ./cmd/bfpp-lint ./...

# race runs exactly ci.sh's race pass (same packages, same -run pattern).
race:
	go test -race -count=1 \
		-run 'Parallel|Cache|Concurrent|Sweep|FastPath|RunMatches|Curve|CheapArtifacts|LowerBound|ExactBound|Lattice|PrunedErrors|PerFamily|Ctx|Cancel|Progress|HTTP|Search|Registry|Chaos|Fault|Supervisor|Recover|Shed|Partial|Retry|Seeded|Script|Sleep|Cascade|WarmStart|Checkpoint|Resume|Journal|Store|Corrupt|Dispatch|Replica|Sharder|Metrics|Stream|CostModel|Fit|VSchedule' \
		./internal/parallel ./internal/search ./internal/schedule \
		./internal/memsim ./internal/des ./internal/engine \
		./internal/figures ./internal/tradeoff \
		./internal/analytic ./internal/runtime ./internal/fault \
		./internal/service ./internal/model ./internal/hw \
		./internal/store ./internal/dispatch ./internal/cost

bench:
	sh scripts/bench.sh

ci:
	sh ci.sh
