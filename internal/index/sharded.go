package index

import (
	"context"
	"fmt"

	"emblookup/internal/mathx"
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
	// stateLen is the length of the per-query scan state (0 when the state
	// is the query itself).
	stateLen() int
	// prepareInto computes the state shared read-only by every range scan
	// of one query into state (stateLen entries) and returns it.
	prepareInto(q, state []float32) []float32
	// scanRange pushes stored rows [lo, hi) into t, taking per-range
	// working memory (e.g. the blocked-scan distance strip) from s.
	scanRange(state []float32, s *Scratch, t *topK, lo, hi int)
}

// prepareScan prepares one query's scan state in s.
func prepareScan(rs rangeScanner, s *Scratch, q []float32) []float32 {
	s.table = mathx.Resize(s.table, rs.stateLen())
	return rs.prepareInto(q, s.table)
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
	state := prepareScan(rs, s, q)
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
// contiguous shards. A single query is scanSolo over the shard bounds; a
// batch goes through searchBatch, which splits by query group first and by
// shard only when groups are scarce. Both paths return bit-identical
// results to the wrapped index.
type Sharded struct {
	inner       rangeScanner
	bounds      []int // len shards+1; shard i scans rows [bounds[i], bounds[i+1])
	parallelism int
}

// NewSharded wraps inner with S-way sharding. Only indexes whose scan
// decomposes by row range are supported (PQ, FastScan and Flat; IVF already
// partitions by coarse cluster). parallelism bounds the fan-out per
// query/batch (≤0 means GOMAXPROCS). The inner index is retained, not
// copied.
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

// soloRangeBytes is the least payload one range of a solo fast-scan scan on
// the AVX2 kernel must cover to be worth a goroutine of its own. It is a
// measurement, not a knob: fanning a scan out means waking a second thread,
// and on the 2-core benchmark host that costs a flat 60-70 µs on top of the
// longest range's scan. Whole vs split in two: 0.76 MiB of codes (100k rows)
// 54 vs 87 µs, 1.5 MiB 102 vs 117 µs, 3 MiB 253 vs 196 µs, 6 MiB 560 vs
// 376 µs — a loss below 2 MiB, a gain above. A MiB of codes is ~130k
// fast-scan rows, 70-85 µs of scanning: one wake-up's worth, so two ranges
// of a MiB each break even and anything larger wins. Bytes stand for scan
// time only on the kernel they were timed on. The same 100k rows, whole vs
// the four ranges every other scan keeps: 8-bit PQ (also 0.76 MiB) 1.31 vs
// 0.71 ms, Flat 5.67 vs 2.83 ms, FastScan on the portable kernel 441 vs
// 356 µs — all still worth splitting.
const soloRangeBytes = 1 << 20

// maxDefaultShards caps DefaultShards: past it a solo scan has more ranges
// than a small server has cores, and an operator with more names a count.
// It is also the count of every scan the size rule was not measured on.
const maxDefaultShards = 4

// DefaultShards is the shard count a server wraps ix with when its operator
// named none. A FastScan index on the AVX2 kernel gets one range per
// soloRangeBytes of payload, at least 1 (serve the index as it is) and at
// most maxDefaultShards; every other range-scannable index (PQ, Flat,
// FastScan on the portable kernel) keeps maxDefaultShards, the count the
// rule was not measured against; an index whose scan does not decompose by
// row range (IVF, Dynamic) gets 1.
func DefaultShards(ix Index) int {
	if _, ok := ix.(rangeScanner); !ok {
		return 1
	}
	if _, ok := ix.(*FastScan); ok && fsAVX2 {
		return min(max(ix.SizeBytes()/soloRangeBytes, 1), maxDefaultShards)
	}
	return maxDefaultShards
}

// Shards returns the number of shards (ranges may be fewer than requested
// when the index holds fewer rows).
func (sh *Sharded) Shards() int { return len(sh.bounds) - 1 }

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

// searchBatch is the one batch scan, behind BatchSearchCtx for every
// range-scannable index (bounds are a Sharded's shards, or the single range
// [0, n) of a bare index). Every query's scan state is prepared once; the
// unit of work is (group, row range), groups first: a group is up to
// fsLanes queries the portable fast-scan kernel scans in one pass (one query
// for PQ and Flat, and for FastScan on AVX2, where the assembly kernel per
// query beats the group kernel), and with at least as many groups as workers
// every task prepares its group, scans all rows — the codes stream past a
// cache-resident LUT once per group — and emits the results, with nothing
// to merge. Only a batch with fewer groups than workers splits the rows at
// bounds. Every (range, query) heap is a k-slot window of one flat arena;
// range 0's heap absorbs the others in range order and is sorted in place
// as the query's result, which canonical top-k selection makes identical to
// a solo Search whatever the scheduling. ctx is checked before each task; a
// cancelled batch returns ctx.Err() and no results.
func searchBatch(ctx context.Context, rs rangeScanner, bounds []int, queries [][]float32, k, parallelism int) ([][]Result, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	nq := len(queries)
	out := make([][]Result, nq)
	if k <= 0 {
		return out, nil
	}
	fs, _ := rs.(*FastScan)
	width := 1
	if fs != nil && !fsAVX2 && fs.pq.M <= fsGroupMaxM4 {
		width = fsLanes
	}
	ng := (nq + width - 1) / width
	nr := len(bounds) - 1
	if ng >= par.Workers(ng*nr, parallelism) {
		nr = 1 // enough groups to fill the workers: every task scans all rows
	}

	qs := make([]fsQuery, nq)
	arena := make([]Result, nr*nq*k)
	heaps := make([]topK, nr*nq) // heap of (range r, query i) at r*nq+i
	for i := range heaps {
		heaps[i] = topK{k: k, heap: arena[i*k : i*k : (i+1)*k]}
	}
	// prepare computes query i's scan state, once, into table and qs[i].table
	// (all a PQ or Flat scan reads of qs), and for the group kernel its
	// quantization into lut8 (as long as the table: a byte per entry);
	// finish turns its heaps into its result. With one range both run inside
	// the query's only task and the state lives in the worker's Scratch;
	// with several they run before and after all tasks, on per-batch arrays.
	sl := rs.stateLen()
	prepare := func(i int, table []float32, lut8 []uint8) {
		qs[i].table = rs.prepareInto(queries[i], table)
		if width > 1 {
			qs[i] = fs.quantize(qs[i].table, lut8, 0, 0)
		}
	}
	finish := func(i int) {
		t := &heaps[i]
		for r := 1; r < nr; r++ {
			for _, c := range heaps[r*nq+i].heap {
				t.push(c.ID, c.Dist)
			}
		}
		sortResults(t.heap)
		out[i] = t.heap
	}
	if nr > 1 {
		tables, lut8 := make([]float32, nq*sl), make([]uint8, nq*sl)
		par.ForEach(nq, parallelism, func(i int) {
			prepare(i, tables[i*sl:(i+1)*sl], lut8[i*sl:(i+1)*sl])
		})
	}
	scratches := make([]*Scratch, par.Workers(ng*nr, parallelism))
	par.ForEachWorker(ng*nr, parallelism, func(w, t int) {
		if ctx.Err() != nil {
			return
		}
		s := scratches[w]
		if s == nil {
			s = GetScratch()
			scratches[w] = s
		}
		r, lo := t/ng, t%ng*width
		hi := min(lo+width, nq)
		rlo, rhi := bounds[r], bounds[r+1]
		if nr == 1 {
			rhi = bounds[len(bounds)-1]
			s.table, s.lut8 = mathx.Resize(s.table, width*sl), resize(s.lut8, width*sl)
			for i, j := lo, 0; i < hi; i, j = i+1, j+sl {
				prepare(i, s.table[j:j+sl], s.lut8[j:j+sl])
			}
		}
		h := heaps[r*nq+lo : r*nq+hi]
		if width > 1 {
			fs.scanGroup(qs[lo:hi], s, h, rlo, rhi)
		} else {
			rs.scanRange(qs[lo].table, s, &h[0], rlo, rhi)
		}
		for i := lo; i < hi && nr == 1; i++ {
			finish(i)
		}
	})
	for _, s := range scratches {
		if s != nil {
			PutScratch(s)
		}
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	if nr > 1 {
		par.ForEach(nq, parallelism, finish)
	}
	return out, nil
}
