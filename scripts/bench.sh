#!/bin/sh
# Machine-readable performance snapshot: runs cmd/benchjson and writes a
# fresh report to .bench_out/bench.json (seal/open ns/op, MB/s, allocs/op per
# engine and size; 16x4KiB concurrent aggregate through the shared crypto
# pool; shm ping-pong; simulated collective latencies incl. BcastPipelined vs
# Bcast; multi-pair TCP bandwidth with the batched wire engine's coalescing
# accounting; chunked-rendezvous p2p overlap vs the serial
# seal-whole-message path on TCP and the simulated IB40G cluster;
# session_overhead pricing the context-AAD binding vs the legacy engine;
# shm_ring comparing zero-copy slot-ring delivery vs seed inline copies;
# hier_coll and hear_allreduce on the simulated cluster).
#
# QUICK=1 bounds the measurement loops for CI smoke use; OUT overrides the
# output path. The default path is gitignored, so a run never overwrites a
# committed BENCH_PR*.json snapshot; copy the report there by hand to record
# a new one. `make bench` is the entry point.
set -eu
cd "$(dirname "$0")/.."

OUT="${OUT:-.bench_out/bench.json}"
mkdir -p "$(dirname "$OUT")"
FLAGS=""
[ "${QUICK:-0}" = "1" ] && FLAGS="-quick"

go run ./cmd/benchjson $FLAGS -o "$OUT"
grep -q '"schema": "encmpi-bench/1"' "$OUT" || {
	echo "bench.sh: $OUT is missing the snapshot schema marker" >&2
	exit 1
}
