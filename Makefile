.PHONY: build test bench check

build:
	go build ./...

test:
	go test ./...

# `bench` writes a fresh snapshot to the gitignored .bench_out/bench.json
# (QUICK=1 ./scripts/bench.sh for a bounded smoke run; OUT=... to choose the
# path), then runs the testing.B suite. Committed BENCH_PR*.json files are
# historical records and are never overwritten.
bench:
	./scripts/bench.sh
	go test -bench=. -benchmem ./...

# Extended tier-1 gate: vet + race-detector tests + fuzz smokes of every
# wire-decoder target. FUZZTIME=30s make check lengthens the fuzz budget.
check:
	./scripts/check.sh
