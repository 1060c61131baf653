#!/usr/bin/env bash
# verify.sh — the full pre-merge gate: static checks, build, the test
# suite under the race detector, and a short run of the allocation
# benchmarks so hot-path regressions (see DESIGN.md "Memory discipline")
# surface before review. `make verify` runs this.
set -euo pipefail
cd "$(dirname "$0")/.."

echo "== go vet =="
go vet ./...

# Deeper linters run when present; the container image does not ship them
# and installing tools is out of scope for the gate, so absence is a skip,
# not a failure.
if command -v staticcheck >/dev/null 2>&1; then
    echo "== staticcheck =="
    staticcheck ./...
else
    echo "== staticcheck == (not installed; skipped)"
fi
if command -v govulncheck >/dev/null 2>&1; then
    echo "== govulncheck =="
    govulncheck ./...
else
    echo "== govulncheck == (not installed; skipped)"
fi

echo "== go build =="
go build ./...

echo "== go test -race =="
# The experiments suite runs ~10-20x slower under the race detector;
# give it room beyond the default 10m package timeout.
go test -race -timeout 60m ./...

echo "== flake check: serve, cluster, index, server and kg, five runs =="
# The coalescer and router-cancellation tests synchronize on events, not
# sleeps (ROADMAP item 0); five plain runs catch one that starts to depend
# on timing again. The index package is here for its concurrent batch test
# (16 goroutines of mixed-size batches against one Sharded), the server
# package for its concurrent trace + deadline test, the kg package for its
# first-use test (16 goroutines deriving a fresh graph's indexes together,
# one build each; the -race line above runs it too); none sleeps.
go test -count=5 ./internal/serve ./internal/cluster ./internal/index ./internal/server ./internal/kg

echo "== portable fast-scan build: purego tests, arm64 vet =="
# The AVX2 assembly kernel has a portable sibling (the query-major group
# kernel; DESIGN.md §11) that this amd64 host never runs by itself: the
# purego tag runs the scan, lookup and serve suites on it, and the arm64
# vet type-checks the non-amd64 file set so it cannot rot.
go test -tags purego ./internal/index ./internal/core ./internal/serve
GOARCH=arm64 go vet ./internal/index ./internal/core

echo "== fast-scan kernel fuzz (short, both builds) =="
# Each build's kernels against the plain float32 scan: batch sizes 1-9,
# all-ties tables, mid-block ranges (DESIGN.md §11).
go test -run '^$' -fuzz FuzzFastScanEquivalence -fuzztime 10s ./internal/index
go test -tags purego -run '^$' -fuzz FuzzFastScanEquivalence -fuzztime 10s ./internal/index

echo "== artifact parser fuzz (short) =="
# 10 seconds of coverage-guided input on the v4 section parser and the
# model-read dispatch (v4 magic sniffing plus the gob fallback). The
# checked-in corpora under testdata/ always run as part of go test; this
# adds a short exploration pass so new parser bugs surface pre-merge.
go test -run '^$' -fuzz FuzzParse -fuzztime 10s ./internal/artifact
go test -run '^$' -fuzz FuzzReadArtifact -fuzztime 10s ./internal/core
# Graph files are containers too, with a read-only gob path behind the same
# magic sniff (DESIGN.md §12): whatever kg.Read accepts must be safe to
# index and to re-save.
go test -run '^$' -fuzz FuzzReadGraph -fuzztime 10s ./internal/kg

echo "== allocation benchmarks (short) =="
go test -run '^$' -bench 'BenchmarkPQSearch$|BenchmarkLookupAllocs' \
    -benchmem -benchtime 10x .

echo "== graph load and clone benchmarks (short, 100k entities) =="
# kg.LoadFile of the flat container vs the legacy gob stream, Clone, and
# the first-use index builds a load no longer pays: B/op and allocs/op are
# the rows to read (flat ≈ 43 MB / 74 allocs, neither growing an index).
go test -run '^$' -bench 'BenchmarkGraph' -benchmem -benchtime 3x .

echo "== fast-scan kernel benchmark (short, both builds) =="
# The compressed-scan kernels side by side (plain 8-bit ADC, 4-bit
# fast-scan solo, a batch of four, and the solo scan over 100k clustered
# rows — compare their ns/query-row, and cand/query: the rows a query
# re-ranks exactly, index.FastScanCounts, a count no host noise moves), once
# on this host's kernel and once on the portable one, so both land in the
# log; the full-length numbers are snapshotted into BENCH_lookup.json
# (scan_pq / scan_fastscan / scan_fastscan_batch4, kernel named in env)
# and diffed by `make bench-compare`.
go test -run '^$' -bench 'BenchmarkFastScan' \
    -benchmem -benchtime 100x .
go test -tags purego -run '^$' -bench 'BenchmarkFastScan' \
    -benchmem -benchtime 100x .

echo "== metrics overhead benchmarks (short) =="
go test -run '^$' -bench 'BenchmarkMetricsOverhead' \
    -benchmem -benchtime 100x ./internal/obs

echo "== serving benchmarks (short) =="
go test -run '^$' -bench 'BenchmarkServe' \
    -benchmem -benchtime 10x ./internal/serve

echo "== build benchmarks (short) =="
go test -run '^$' -bench 'BenchmarkPQBuild|BenchmarkIVFBuild' \
    -benchtime 3x .

echo "== training and ingest benchmarks (short) =="
# Deterministic vs hogwild training (det/hw1/hw2/hw4) and the streaming
# ingest loop; the full train-phase rows plus the ingest-lag snapshot live
# in BENCH_build.json (train_semantic / train_combiner / obs_ingest) and
# are diffed by `make bench-compare`.
go test -run '^$' -bench 'BenchmarkTrainEpoch|BenchmarkIngest$' \
    -benchtime 1x .

echo "== cluster benchmarks (short) =="
go test -run '^$' -bench 'BenchmarkClusterLookup' \
    -benchtime 10x ./internal/cluster

echo "== replica benchmarks (short) =="
# Routed lookup through replicated clusters (P2R1 vs P2R2): the per-lookup
# cost of replica selection. The full replica scenarios (degraded-replica
# hedging, failover, rebalance under load) live in BENCH_replica.json and
# are diffed by `make bench-compare`.
go test -run '^$' -bench 'BenchmarkReplicaLookup' \
    -benchtime 10x ./internal/replica

echo "== tenant admission benchmarks (short) =="
# The multi-tenant admission gate (DESIGN.md §15): the uncontended
# Acquire/Release pair must stay allocation-free (TestTenantAdmissionAllocs
# asserts admitted lookups cost ≤1 alloc over the single-tenant budget; it
# runs with the race suite above) and the 429 shed path must stay cheap.
# The full multi-tenant isolation scenario (abusive tenant throttled,
# well-behaved p99, shed curve) lives in BENCH_tenant.json and is diffed
# by `make bench-compare`.
go test -run '^$' -bench 'BenchmarkAdmission' \
    -benchmem -benchtime 100x ./internal/tenant

echo "== non-test Go lines, request-path packages =="
# The baseline the next simplicity PR reads from this log instead of
# re-deriving it.
for pkg in core index serve server cluster; do
    printf '%-8s %s\n' "$pkg" "$(find "internal/$pkg" -name '*.go' -not -name '*_test.go' -print0 | xargs -0 cat | wc -l)"
done

echo "verify: OK"
