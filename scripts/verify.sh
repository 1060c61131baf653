#!/usr/bin/env bash
# verify.sh — the full pre-merge gate: static checks, build, the test
# suite under the race detector, and a short run of the allocation
# benchmarks so hot-path regressions (see DESIGN.md "Memory discipline")
# surface before review. `make verify` runs this.
set -euo pipefail
cd "$(dirname "$0")/.."

echo "== go vet =="
go vet ./...

echo "== gofmt =="
# Every Go file is gofmt-clean; the step fails on any file gofmt would
# rewrite.
unformatted=$(gofmt -l .)
if [[ -n "$unformatted" ]]; then
    echo "$unformatted"
    echo "verify: files not gofmt-clean (run gofmt -w on them)" >&2
    exit 1
fi

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

echo "== every declaration under internal/ is reachable from a program =="
# cmd/deadcode walks from every main package (cmd/*, benchmark/,
# examples/*) over both builds (default and purego) and prints each
# declaration under internal/ that none reaches. A capability only its own
# tests call is deleted with them; one a test needs as the reference for
# live code goes on the command's allowlist with that test's name.
go run ./cmd/deadcode

echo "== no program links encoding/gob =="
# Every model and graph file is a v4 container (DESIGN.md §12), and the gob
# package is not hardened against adversarial input: no non-test package
# may import it, directly or through a dependency. Tests still encode gob
# streams, to check that every loader refuses them.
deps=$(go list -deps ./...)
if grep -qx 'encoding/gob' <<<"$deps"; then
    echo "verify: a non-test package links encoding/gob" >&2
    exit 1
fi

echo "== no sleeps in non-test Go under internal/ =="
# Waits synchronize on events: a drain closes a channel, a backoff races a
# timer against the request's context (DESIGN.md §9, §14). A time.Sleep in
# library code is a poll or a wait nobody can cancel.
if grep -rn --include='*.go' --exclude='*_test.go' 'time\.Sleep(' internal; then
    echo "verify: time.Sleep in non-test Go under internal/" >&2
    exit 1
fi

echo "== no RWMutex in non-test Go under internal/index =="
# A dynamic index publishes immutable snapshots (DESIGN.md §8): readers
# load one atomic pointer and never wait on the writer. A read-write lock
# in the index package is a reader queueing behind an ingest again.
if grep -rn --include='*.go' --exclude='*_test.go' 'sync\.RWMutex' internal/index; then
    echo "verify: sync.RWMutex in non-test Go under internal/index" >&2
    exit 1
fi

echo "== index layouts stay in internal/index =="
# The index codec (DESIGN.md §8) is the one place that takes each index
# kind apart, puts it back together and slices it, and index.Build the one
# place that builds one from an index.Spec; core calls their entry points
# and never switches on a concrete index kind, assembles one from parts or
# constructs one itself.
if grep -rnE --include='*.go' --exclude='*_test.go' \
    'case \*index\.(Flat|PQ|FastScan|IVF)\b|FromParts|index\.New(Flat|PQ|FastScan|IVF)\(|\.SetRerank\(|index\.DefaultIVFConfig|quant\.Config4' internal/core; then
    echo "verify: per-kind index code in internal/core" >&2
    exit 1
fi

echo "== no fused multiply-add in served distances or training (arm64 assembly) =="
# Go may fuse an unconverted a*b+c into one multiply-add where the target
# has one (arm64 does; amd64 only at GOAMD64=v3), which changes the bits of
# a distance or of a trained weight. The arithmetic that decides served
# distances and the trainer's (the embedding and training goldens) spells
# every product float32(a*b) (float64 likewise), so these packages compile
# to no fused instruction. Cross-compiling needs no arm64 host.
fused=$(GOARCH=arm64 go build -gcflags=-S ./internal/mathx ./internal/quant ./internal/index \
    ./internal/nn ./internal/ngram ./internal/triplet 2>&1)
if grep -E '\bF(N)?M(ADD|SUB)[SD]\b' <<<"$fused"; then
    echo "verify: fused multiply-add in mathx, quant, index, nn, ngram or triplet on arm64" >&2
    exit 1
fi

echo "== no fused multiply-add in the assembly kernels =="
# Every AVX2 kernel matches its portable loop bit for bit because it
# rounds each product (VMULPS) before its add (VADDPS); a fused
# instruction rounds once and changes the bits.
if grep -rnE --include='*.s' '\bVF(N)?M(ADD|SUB)' internal; then
    echo "verify: fused multiply-add in an assembly kernel under internal/" >&2
    exit 1
fi

echo "== go build =="
go build ./...

echo "== go test -race =="
# The experiments suite runs ~10-20x slower under the race detector;
# give it room beyond the default 10m package timeout.
go test -race -timeout 60m ./...

echo "== flake check: serve, cluster, index, server, kg and core's dynamic tests, five runs =="
# The router-cancellation tests synchronize on events, not sleeps
# (ROADMAP item 0); five plain runs catch one that starts to depend on
# timing again. The serve package is here for its concurrent bit-identity
# test (16 goroutines of misses against one 2-shard index on each index
# kind), the index package for its concurrent batch test
# (16 goroutines of mixed-size batches against one Sharded), the server
# package for its concurrent trace + deadline test, the kg package for its
# first-use test (16 goroutines deriving a fresh graph's indexes together,
# one build each; the -race line above runs it too); none sleeps. The core
# package's dynamic and ingest tests run five times too: readers that must
# each see one snapshot while compactions publish new bases beside them.
go test -count=5 ./internal/serve ./internal/cluster ./internal/index ./internal/server ./internal/kg
go test -count=5 -run 'Dynamic|Ingest' ./internal/core

echo "== portable kernel builds: purego tests, arm64 vet, GOAMD64=v3 =="
# Each AVX2 assembly kernel has a portable sibling that this amd64 host
# never runs by itself: the fast-scan cluster-bound loop, the scalar loops
# of the table quantizer and the four-lane loop of the centroid-distance
# block (DESIGN.md §11), and the convolution, four-row
# matvec and Axpy loops (§3, "Inference kernels"). The purego tag
# runs the kernel, scan, lookup and serve suites on them — the embedding
# golden included — and the arm64 vet type-checks the non-amd64 file set so
# it cannot rot. The GOAMD64=v3 run lets the compiler use every FMA the
# language allows: the portable loops round each product (float32(w*x)), so
# the embedding golden, the kernel equivalence and the pinned index build
# bits (TestBuildBitsPinned) hold there too. The training golden
# (TestTrainDeterministicRunToRunAcrossWorkerCounts: the trainer's Adam and
# backward passes included) holds there as well.
go test -tags purego ./internal/nn ./internal/mathx ./internal/quant ./internal/index ./internal/core ./internal/serve
GOARCH=arm64 go vet ./internal/nn ./internal/mathx ./internal/quant ./internal/index ./internal/core
GOAMD64=v3 go test -run 'Golden|Equivalence|TestTrainDeterministicRunToRun|BitIdentity|TestBuildBitsPinned' ./internal/nn ./internal/core ./internal/mathx ./internal/index

echo "== kernel fuzz (short, both builds) =="
# Each build's fast-scan kernels against the plain float32 scan: batch sizes
# 1-9, all-ties tables, mid-block ranges; and a clustered index against the
# same codes in id order, solo and batch, under arbitrary cluster layouts,
# duplicate rows, all-ties tables and appended clusters (DESIGN.md §11); the
# cluster bound kernel against its definition and the portable loop, on
# random and empty masks, 0 and 255 table entries and a padded last group,
# and no bound above a member row's integer sum. Each build's
# convolution kernels against the scalar loop, bit for bit: lengths 1-40,
# signed zeros, subnormals, overflow (DESIGN.md §3). Each build's centroid
# block against SquaredL2 per centroid, and each build's matvec against Dot
# per row and Axpy against its one-element loop, bit for bit, on arbitrary
# float32 bit patterns (DESIGN.md §3, §11). The IVF-PQ list scan against
# pushing every row's plain sum: M 1-12, underfull, tied and full heaps,
# +Inf and NaN rows. The query's one case fold against strings.ToLower.
go test -run '^$' -fuzz FuzzFastScanEquivalence -fuzztime 10s ./internal/index
go test -tags purego -run '^$' -fuzz FuzzFastScanEquivalence -fuzztime 10s ./internal/index
go test -run '^$' -fuzz FuzzClusteredFastScanEquivalence -fuzztime 10s ./internal/index
go test -tags purego -run '^$' -fuzz FuzzClusteredFastScanEquivalence -fuzztime 10s ./internal/index
go test -run '^$' -fuzz FuzzClusterBoundEquivalence -fuzztime 10s ./internal/index
go test -tags purego -run '^$' -fuzz FuzzClusterBoundEquivalence -fuzztime 10s ./internal/index
go test -run '^$' -fuzz FuzzConvEquivalence -fuzztime 10s ./internal/nn
go test -tags purego -run '^$' -fuzz FuzzConvEquivalence -fuzztime 10s ./internal/nn
go test -run '^$' -fuzz FuzzSquaredL2ManyEquivalence -fuzztime 10s ./internal/mathx
go test -tags purego -run '^$' -fuzz FuzzSquaredL2ManyEquivalence -fuzztime 10s ./internal/mathx
go test -run '^$' -fuzz FuzzMatVecEquivalence -fuzztime 10s ./internal/mathx
go test -tags purego -run '^$' -fuzz FuzzMatVecEquivalence -fuzztime 10s ./internal/mathx
go test -run '^$' -fuzz FuzzAxpyEquivalence -fuzztime 10s ./internal/mathx
go test -tags purego -run '^$' -fuzz FuzzAxpyEquivalence -fuzztime 10s ./internal/mathx
go test -run '^$' -fuzz FuzzADCListScanEquivalence -fuzztime 10s ./internal/index
go test -tags purego -run '^$' -fuzz FuzzADCListScanEquivalence -fuzztime 10s ./internal/index
go test -run '^$' -fuzz FuzzLowerInto -fuzztime 10s ./internal/core

echo "== artifact parser fuzz (short) =="
# 10 seconds of coverage-guided input on the v4 section parser and the
# model read, seeded from the golden v4 models whole and cut short, from the
# fast-scan golden with cluster-layout sections (a valid layout, and ids that
# are not a permutation, which must fail closed at attach), and from
# files without the magic (a gob stream among them, which must fail with
# artifact.ErrNotV4), and on the meta section alone, re-emitted with valid
# checksums so the config and shapes it names reach the reader's own
# checks. The checked-in corpora under
# testdata/ always run as part of go test; this adds a short exploration
# pass so new parser bugs surface pre-merge. Whole-artifact inputs are a
# few hundred KB: minimizing each new one for the default minute would
# spend the whole pass on it, so minimization is capped.
go test -run '^$' -fuzz FuzzParse -fuzztime 10s ./internal/artifact
go test -run '^$' -fuzz 'FuzzReadArtifact$' -fuzztime 10s -fuzzminimizetime 20x ./internal/core
go test -run '^$' -fuzz FuzzReadArtifactMeta -fuzztime 10s ./internal/core
# Graph files are containers too (DESIGN.md §12): whatever the graph reader
# accepts must be safe to index and to re-save, and a gob stream is refused.
go test -run '^$' -fuzz FuzzReadGraph -fuzztime 10s ./internal/kg

echo "== request parser fuzz (short) =="
# The parsers every HTTP front-end shares (the single-node server, the
# tenant routes and the cluster router): the /bulk body under both of its
# bounds with ?k=, the reply encoder of /lookup and /bulk against
# encoding/json byte for byte (HTML escaping, invalid UTF-8, 'e'-form
# floats, partial replies), and the /ingest body of the server and the router. The
# /partition/search frames both ways (DESIGN.md §9): the request frame a
# node decodes and the reply frame the router decodes, each re-encoding to
# its own bytes and rejecting an over-claiming header before allocating.
# The deadline budget (?deadline_ms= and its header): a 400 unless a
# positive integer, otherwise a deadline no later than the cap, however
# large the budget. The JSON /partition/search body: 200, 400 or 413 and
# never a panic, 413 past the bound, a 200 only for exactly one JSON value
# with at most k hits per query, and an accepted body answers what its
# frame encoding answers (its inputs reach the 16 KiB body bound, so
# minimization is capped as for the artifacts).
go test -run '^$' -fuzz FuzzReadBulkBody -fuzztime 10s ./internal/server
go test -run '^$' -fuzz FuzzAppendLookupResponse -fuzztime 10s ./internal/server
go test -run '^$' -fuzz FuzzRequestContext -fuzztime 10s ./internal/server
go test -run '^$' -fuzz FuzzDecodeIngestItems -fuzztime 10s ./internal/server
go test -run '^$' -fuzz FuzzDecodeSearchFrame -fuzztime 10s ./internal/server
go test -run '^$' -fuzz FuzzDecodeHitsFrame -fuzztime 10s ./internal/server
go test -run '^$' -fuzz FuzzPartitionSearchJSON -fuzztime 10s -fuzzminimizetime 20x ./internal/server
# The two files an operator writes: a tenants config Validate accepts must
# admit a request on an idle gate, and a cluster map Validate accepts must
# survive Clone and a JSON round trip unchanged.
go test -run '^$' -fuzz FuzzTenantConfig -fuzztime 10s ./internal/tenant
go test -run '^$' -fuzz FuzzMapJSON -fuzztime 10s ./internal/cluster

echo "== allocation guards and benchmarks (short) =="
# The root allocation guards skip under the race detector (its runtime
# makes sync.Pool drop entries, and the count with them), so they run here,
# without it.
go test -run 'Alloc' -bench 'BenchmarkPQSearch$|BenchmarkLookupAllocs' \
    -benchmem -benchtime 10x .

echo "== embedding and index build benchmarks (short) =="
# One query's embedding by stage (ngram / cnn / mlp) and whole (all, which
# allocates only the returned vector), and the rebuild of a 20k-entity
# fast-scan index from weights: embedding every label, then the quantizer.
go test -run '^$' -bench 'BenchmarkEmbed' -benchmem -benchtime 20000x .
go test -run '^$' -bench 'BenchmarkIndexBuild' -benchmem -benchtime 2x .

echo "== graph load and clone benchmarks (short, 100k entities) =="
# kg.LoadFile of the container, Clone, and the first-use index builds a
# load no longer pays: B/op and allocs/op are the rows to read (load ≈
# 43 MB / 74 allocs, growing no index).
go test -run '^$' -bench 'BenchmarkGraph' -benchmem -benchtime 3x .

echo "== fast-scan kernel benchmark (short, both builds) =="
# The compressed-scan kernels side by side (plain 8-bit ADC, 4-bit
# fast-scan solo, a batch of four, and the solo scan over 100k clustered
# rows — compare their ns/op and ns/row-scanned beside rows/query,
# clusters/query and cand/query: the rows and clusters a query scans and the
# rows it re-ranks exactly, index.FastScanCounts, counts no host noise
# moves), once
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
# BenchmarkServeCacheHit, BenchmarkServeCacheMiss and
# BenchmarkServeConcurrentMiss.
go test -run '^$' -bench 'BenchmarkServe' \
    -benchmem -benchtime 10x ./internal/serve

echo "== build benchmarks (short) =="
# The IVF-PQ builds, then the served ivf100k shape's search over the
# built index (us/query: coarse ranking, 16 ADC tables, 16 list scans,
# the exact re-rank of 80).
go test -run '^$' -bench 'BenchmarkPQBuild|BenchmarkIVFBuild' \
    -benchtime 3x .
go test -run '^$' -bench 'BenchmarkIVFSearch' -benchtime 2000x .

echo "== training and ingest benchmarks (short) =="
# Training on one and on two replica workers (w1/w2) and the streaming
# ingest loop. `benchkg -bench-build` writes the train-phase rows
# (train_semantic / train_combiner) and the ingest-lag row (obs_ingest),
# but the checked-in BENCH_build.json predates them and carries none, so
# `make bench-compare` has nothing to diff them against until it is
# regenerated.
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

echo "== tier-1 time of internal/experiments (report; budget 60 s) =="
# ROADMAP 18(c) budgets the slowest tier-1 package at 60 s with the same
# sizes and assertions. This prints the time against it; it is a report,
# not a gate.
start=$SECONDS
go test -count=1 ./internal/experiments
echo "internal/experiments tier-1: $((SECONDS - start)) s of a 60 s budget"

echo "== non-test Go lines, by package and whole repo =="
# The baseline the next simplicity PR reads from this log instead of
# re-deriving it.
lines() { find "$1" -name '*.go' -not -name '*_test.go' -print0 | xargs -0 cat | wc -l; }
for pkg in core artifact index serve server cluster remote tenant replica ngram nn mathx triplet \
    kg baselines tabular strutil metrics quant; do
    printf '%-9s %s\n' "$pkg" "$(lines "internal/$pkg")"
done
printf '%-9s %s\n' "server + cluster" "$(( $(lines internal/server) + $(lines internal/cluster) ))"
printf '%-9s %s\n' "repo" "$(lines .)"

echo "verify: OK"
