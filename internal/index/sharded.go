package index

import (
	"context"
	"fmt"

	"emblookup/internal/par"
)

// rangeScanner is implemented by indexes whose scan decomposes into
// independent scans of contiguous row ranges sharing one per-query
// preparation: the ADC table for PQ, the query itself for Flat. Because the
// top-k selection is canonical (see `worse`), scanning [0, n) in one pass
// and scanning a partition of it then merging the per-range heaps select
// the same result set.
type rangeScanner interface {
	Index
	// prepare computes one query's state, shared read-only by every range
	// scan of it, in s (the query itself for Flat) and returns it.
	prepare(q []float32, s *Scratch) []float32
	// scanRange pushes stored rows [lo, hi) into t, taking per-range
	// working memory (e.g. the fast-scan tables) from s.
	scanRange(state []float32, s *Scratch, t *topK, lo, hi int)
}

// scanSolo is the one solo scan, behind Search for every range-scannable
// index: prepare the query's scan state once in s, scan the row ranges
// between bounds (nil is a bare index's single range [0, n)), merge the
// per-range heaps in range order and sort into dst[:0]. Several ranges fan
// out across `parallelism` goroutines, each with a pooled Scratch of its
// own. The merge is single-threaded and the per-range heaps are
// deterministic, so the output does not depend on how the fan-out was
// scheduled; canonical top-k selection makes it equal to the one-range
// scan's. ctx is checked on entry and before each range of a fan-out — a
// range is the cancellation granularity, so a done context wastes at most
// the ranges already in flight.
func scanSolo(ctx context.Context, rs rangeScanner, bounds []int, parallelism int, s *Scratch, q []float32, k int, dst []Result) ([]Result, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	if k <= 0 {
		return dst[:0], nil
	}
	state := rs.prepare(q, s)
	t := &s.res
	t.reset(k)
	if len(bounds) <= 2 {
		rs.scanRange(state, s, t, 0, rs.Len())
		return t.appendSorted(dst), nil
	}
	scratches := make([]*Scratch, len(bounds)-1)
	par.ForEach(len(scratches), parallelism, func(i int) {
		if ctx.Err() != nil {
			return // cancelled: skip the remaining ranges
		}
		ss := GetScratch()
		scratches[i] = ss
		h := &ss.res
		h.reset(k)
		rs.scanRange(state, ss, h, bounds[i], bounds[i+1])
	})
	for _, ss := range scratches {
		if ss == nil {
			continue
		}
		for _, r := range ss.res.heap {
			t.push(r.ID, r.Dist)
		}
		PutScratch(ss)
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	return t.appendSorted(dst), nil
}

// Sharded partitions a PQ, FastScan or Flat index's stored rows into S
// contiguous shards (a FastScan's by position: each shard prunes the
// clusters it holds). A single query is scanSolo over the shard bounds; a
// batch of two or more never splits a query by shard: BatchSearchCtx runs
// each query's whole-row scan on the wrapped index. Both paths return
// bit-identical results to the wrapped index.
type Sharded struct {
	inner       rangeScanner
	bounds      []int // len shards+1; shard i scans rows [bounds[i], bounds[i+1])
	parallelism int
}

// NewSharded wraps inner with S-way sharding. Only indexes whose scan
// decomposes by row range are supported (PQ, FastScan and Flat; IVF already
// partitions by coarse cluster). parallelism bounds one query's fan-out
// (≤0 means GOMAXPROCS). The inner index is retained, not copied.
func NewSharded(inner Index, shards, parallelism int) (*Sharded, error) {
	rs, ok := inner.(rangeScanner)
	if !ok {
		return nil, fmt.Errorf("index: %T does not support sharded scans (want *PQ, *FastScan, or *Flat)", inner)
	}
	if shards <= 0 {
		return nil, fmt.Errorf("index: shard count must be positive, got %d", shards)
	}
	return &Sharded{
		inner:       rs,
		bounds:      par.Split(inner.Len(), shards),
		parallelism: parallelism,
	}, nil
}

// soloRangeBytes is the least payload one range of a solo scan must cover
// to be worth a goroutine of its own. It is a measurement, not a knob:
// fanning a scan out means waking a second thread, and on the 2-core
// benchmark host that costs a flat 60-70 µs on top of the longest range's
// scan. Fast-scan on the AVX2 kernel, whole vs split in two: 0.76 MiB of
// codes (100k rows) 54 vs 87 µs, 1.5 MiB 102 vs 117 µs, 3 MiB 253 vs
// 196 µs, 6 MiB 560 vs 376 µs — a loss below 2 MiB, a gain above. A MiB
// of codes is ~130k fast-scan rows, 70-85 µs of scanning: one wake-up's
// worth, so two ranges of a MiB each break even and anything larger wins.
// Bytes stand for scan time only on the kernel they were timed on; on the
// others the rule errs toward one range. 8-bit PQ on scanADC (M = 8,
// Ks = 256, k = 10), whole vs four ranges, medians of 10 rounds: 2 000
// rows (16 KiB) 25 vs 30 µs, 10k rows 61 vs 76 µs, 100k rows (0.76 MiB)
// 0.55 vs 0.42 ms. Flat at d = 64, 2 000 rows (0.5 MiB): 80-100 vs
// 68-95 µs; fast-scan on the portable kernel, 100k rows: 441 vs 356 µs.
// The rule serves 100k-row PQ, 2 000-row Flat and 100k-row portable
// fast-scan as one range each and accepts their loss; -shards 4 takes the
// split back.
const soloRangeBytes = 1 << 20

// maxDefaultShards caps DefaultShards: past it a solo scan has more ranges
// than a small server has cores, and an operator with more names a count.
const maxDefaultShards = 4

// DefaultShards is the shard count a server wraps ix with when its operator
// named none. A clustered FastScan gets 1: its pruned scan visits under a
// quarter of the rows on the benchmark's index, far under what a second
// range's wake-up costs (DESIGN.md §11). Every other range-scannable index
// (PQ, Flat, unclustered FastScan) gets one range per soloRangeBytes of
// payload, at least 1 (serve the index as it is) and at most
// maxDefaultShards; an index whose scan does not decompose by row range
// (IVF, Dynamic) gets 1.
func DefaultShards(ix Index) int {
	if _, ok := ix.(rangeScanner); !ok {
		return 1
	}
	if fs, ok := ix.(*FastScan); ok && fs.clusters() > 1 {
		return 1
	}
	return min(max(ix.SizeBytes()/soloRangeBytes, 1), maxDefaultShards)
}

// Shards returns the number of shards (ranges may be fewer than requested
// when the index holds fewer rows).
func (sh *Sharded) Shards() int { return len(sh.bounds) - 1 }

// Inner exposes the wrapped index (the codec takes the inner index apart;
// sharding is a per-deployment serving choice, re-applied after load).
func (sh *Sharded) Inner() Index { return sh.inner }

// Len returns the number of stored vectors.
func (sh *Sharded) Len() int { return sh.inner.Len() }

// Dim returns the vector dimensionality.
func (sh *Sharded) Dim() int { return sh.inner.Dim() }

// SizeBytes returns the wrapped index's payload cost (sharding adds none).
func (sh *Sharded) SizeBytes() int { return sh.inner.SizeBytes() }

// Search implements Index: one query's scan fanned across the shards.
func (sh *Sharded) Search(ctx context.Context, s *Scratch, q []float32, k int, dst []Result) ([]Result, error) {
	return scanSolo(ctx, sh.inner, sh.bounds, sh.parallelism, s, q, k, dst)
}

// SearchWith implements ScratchSearcher.
func (sh *Sharded) SearchWith(s *Scratch, q []float32, k int) []Result {
	return searchWith(sh, s, q, k)
}
