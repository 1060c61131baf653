// Package index implements the similarity-search substrate of Section
// III-C/D — the reproduction's FAISS: an exact flat index, a
// product-quantized index with ADC scanning, and an IVF (inverted-file)
// variant with a coarse quantizer. BatchSearch fans a query batch across
// all CPU cores; that parallel mode is this reproduction's stand-in for the
// paper's GPU acceleration (a GPU is a data-parallel device, and the GPU
// columns of the paper's tables measure exactly this batched regime).
package index

import (
	"context"
	"slices"

	"emblookup/internal/mathx"
	"emblookup/internal/par"
)

// Result is one nearest neighbor: the row id of the stored vector and its
// (possibly approximate) squared L2 distance to the query.
type Result struct {
	ID   int32
	Dist float32
}

// Index is a k-nearest-neighbor index over fixed vectors.
type Index interface {
	// Search is the one search contract: the k nearest stored vectors to q,
	// nearest first, written into dst[:0] (grown if needed; nil allocates)
	// with all working memory taken from s. ctx is checked at whatever
	// granularity the index can stop at — per shard range for Sharded, once
	// before an uninterruptible scan for the others. A context that is never
	// cancelled changes nothing; a done one returns ctx.Err() and no results.
	Search(ctx context.Context, s *Scratch, q []float32, k int, dst []Result) ([]Result, error)
	// Len returns the number of stored vectors.
	Len() int
	// Dim returns the vector dimensionality.
	Dim() int
	// SizeBytes returns the approximate storage the index needs for its
	// vector payload (codes or raw floats), excluding codebooks.
	SizeBytes() int
}

// Search is ix.Search for callers that hold no Scratch and no context
// (experiments, tests): pooled working memory, a fresh result slice.
func Search(ix Index, q []float32, k int) []Result {
	s := GetScratch()
	defer PutScratch(s)
	return searchWith(ix, s, q, k)
}

// searchWith backs every kind's SearchWith: an uncancellable search into a
// fresh result slice.
func searchWith(ix Index, s *Scratch, q []float32, k int) []Result {
	res, _ := ix.Search(context.Background(), s, q, k, nil) // errors are ctx's only
	return res
}

// BatchSearch is BatchSearchCtx without cancellation.
func BatchSearch(ix Index, queries [][]float32, k, parallelism int) [][]Result {
	out, _ := BatchSearchCtx(context.Background(), ix, queries, k, parallelism) // errors are ctx's only
	return out
}

// BatchSearchCtx searches every query using `parallelism` goroutines (≤0
// means GOMAXPROCS). Results align with the query order and are identical
// to per-query Search. Each worker owns one Scratch and runs one query's
// solo scan at a time, and all results share one flat array. A batch never
// splits a query by shard: on a Sharded, a batch of two or more fills the
// workers by query, each scanning all rows of the wrapped index, and only a
// batch of one takes the shard fan-out. A done context returns ctx.Err()
// and no results.
func BatchSearchCtx(ctx context.Context, ix Index, queries [][]float32, k, parallelism int) ([][]Result, error) {
	if sh, ok := ix.(*Sharded); ok && len(queries) > 1 {
		ix = sh.inner
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	out := make([][]Result, len(queries))
	if k <= 0 {
		return out, nil
	}
	// Slot i appends into its capacity-clipped cap-k window of flat.
	flat := make([]Result, len(queries)*k)
	scratches := make([]*Scratch, par.Workers(len(queries), parallelism))
	par.ForEachWorker(len(queries), parallelism, func(w, i int) {
		if scratches[w] == nil {
			scratches[w] = GetScratch()
		}
		out[i], _ = ix.Search(ctx, scratches[w], queries[i], k, flat[i*k:i*k:(i+1)*k])
	})
	for _, s := range scratches {
		if s != nil {
			PutScratch(s)
		}
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	return out, nil
}

// worse reports whether a ranks strictly after b in the canonical result
// order: larger distance is worse, ties broken toward the larger ID. Because
// this order is total, the top-k selection is a pure function of the
// candidate (Dist, ID) multiset — independent of push order — which is what
// lets the sharded scan merge per-shard heaps and still return bit-identical
// results to the single full scan (see DESIGN.md §7).
func worse(a, b Result) bool {
	if a.Dist != b.Dist {
		return a.Dist > b.Dist
	}
	return a.ID > b.ID
}

// topK maintains the k canonically-smallest results seen, as a bounded
// max-heap under the `worse` order.
type topK struct {
	k    int
	heap []Result // max-heap under worse()
}

func newTopK(k int) *topK { return &topK{k: k} }

// reset prepares a reused topK for a fresh search, keeping the heap's
// backing array.
func (t *topK) reset(k int) {
	t.k = k
	t.heap = t.heap[:0]
}

func (t *topK) push(id int32, dist float32) {
	r := Result{ID: id, Dist: dist}
	if len(t.heap) < t.k {
		t.heap = append(t.heap, r)
		t.up(len(t.heap) - 1)
		return
	}
	if !worse(t.heap[0], r) {
		return
	}
	t.heap[0] = r
	t.down(0)
}

// admits reports whether push(_, dist) could change the heap: always while
// it is underfull (+Inf and NaN included), and once full only for a
// distance no larger than the k-th, which may still win the ID tie-break.
// A scan that pushes only what admits passes leaves the heap exactly as
// pushing every candidate would.
func (t *topK) admits(dist float32) bool {
	return len(t.heap) < t.k || dist <= t.heap[0].Dist
}

// worst returns the current k-th distance, or +inf while underfull. A
// candidate with a strictly larger distance can never enter the heap; one
// with an equal distance still can (it may win the ID tie-break), so
// early-abandon checks against worst must be strict.
func (t *topK) worst() float32 {
	if len(t.heap) < t.k {
		return float32(3.4e38)
	}
	return t.heap[0].Dist
}

func (t *topK) up(i int) {
	for i > 0 {
		parent := (i - 1) / 2
		if !worse(t.heap[i], t.heap[parent]) {
			return
		}
		t.heap[parent], t.heap[i] = t.heap[i], t.heap[parent]
		i = parent
	}
}

func (t *topK) down(i int) {
	n := len(t.heap)
	for {
		l, r := 2*i+1, 2*i+2
		largest := i
		if l < n && worse(t.heap[l], t.heap[largest]) {
			largest = l
		}
		if r < n && worse(t.heap[r], t.heap[largest]) {
			largest = r
		}
		if largest == i {
			return
		}
		t.heap[i], t.heap[largest] = t.heap[largest], t.heap[i]
		i = largest
	}
}

// sorted extracts the results nearest-first into a fresh slice.
func (t *topK) sorted() []Result {
	return t.appendSorted(nil)
}

// appendSorted extracts the results nearest-first into dst[:0], reusing its
// backing array when possible.
func (t *topK) appendSorted(dst []Result) []Result {
	if dst == nil {
		dst = make([]Result, 0, len(t.heap))
	}
	dst = append(dst[:0], t.heap...)
	sortResults(dst)
	return dst
}

func sortResults(rs []Result) {
	slices.SortFunc(rs, func(a, b Result) int {
		switch {
		case a.Dist < b.Dist:
			return -1
		case a.Dist > b.Dist:
			return 1
		case a.ID < b.ID:
			return -1
		case a.ID > b.ID:
			return 1
		}
		return 0
	})
}

// Flat is the exact brute-force index: it stores the raw vectors and scans
// them all per query. It is the ground truth the approximate indexes are
// measured against (Figure 4).
type Flat struct {
	data *mathx.Matrix
}

// NewFlat builds a flat index over the rows of data. The matrix is retained,
// not copied.
func NewFlat(data *mathx.Matrix) *Flat { return &Flat{data: data} }

// Len returns the number of stored vectors.
func (f *Flat) Len() int { return f.data.Rows }

// Dim returns the vector dimensionality.
func (f *Flat) Dim() int { return f.data.Cols }

// SizeBytes returns the raw float storage cost.
func (f *Flat) SizeBytes() int { return f.data.Rows * f.data.Cols * 4 }

// Search implements Index: one exact scan of every stored vector.
func (f *Flat) Search(ctx context.Context, s *Scratch, q []float32, k int, dst []Result) ([]Result, error) {
	return scanSolo(ctx, f, nil, 0, s, q, k, dst)
}

// SearchWith implements ScratchSearcher.
func (f *Flat) SearchWith(s *Scratch, q []float32, k int) []Result { return searchWith(f, s, q, k) }

// prepare implements rangeScanner: an exact scan needs no per-query
// precomputation, so the shared state is the query itself.
func (f *Flat) prepare(q []float32, _ *Scratch) []float32 { return q }

// scanRange implements rangeScanner: the brute-force scan restricted to
// stored rows [lo, hi).
func (f *Flat) scanRange(q []float32, _ *Scratch, t *topK, lo, hi int) {
	for i := lo; i < hi; i++ {
		t.push(int32(i), mathx.SquaredL2(q, f.data.Row(i)))
	}
}

// Reconstruct returns the stored vector for id (shared storage).
func (f *Flat) Reconstruct(id int32) []float32 { return f.data.Row(int(id)) }
