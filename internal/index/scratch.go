package index

import "sync"

// Scratch is the reusable per-worker working memory of a search: the ADC
// table, the top-k heap, the blocked-scan distance strip, and the IVF probe
// state. All buffers grow on demand and are retained, so a worker that owns
// a Scratch — and hands Index.Search a result buffer — searches without
// allocating at all; wrapped indexes pass the same Scratch down (Dynamic to
// its base) rather than checking out another. The zero value is ready to
// use; a Scratch must not be used concurrently.
type Scratch struct {
	res      topK
	probes   topK
	table    []float32
	residual []float32
	probeBuf []Result
	base     []Result // Dynamic: the sealed base segment's hits, merged into res
	dists    [scanBlock]float32
	lut8     []uint8  // fast-scan: uint8-quantized ADC table (M4 × Ks4)
	lut4     []uint64 // fast-scan group kernel: fsLanes queries' fused pair LUTs (M4/2 × 256), one per 16-bit lane
}

// ScratchSearcher is Index.Search without the context and the result
// buffer. Every index implements it as a one-line wrapper, and it exists
// only because benchmark/trace.go type-asserts to it: when the benchmark is
// re-baselined (ROADMAP item 1) it can call Index.Search and this can go.
type ScratchSearcher interface {
	// SearchWith is Search with all working memory taken from s. The
	// returned slice is freshly allocated (it outlives the Scratch).
	SearchWith(s *Scratch, q []float32, k int) []Result
}

var scratchPool = sync.Pool{New: func() any { return new(Scratch) }}

// GetScratch checks a Scratch out of the shared pool.
func GetScratch() *Scratch { return scratchPool.Get().(*Scratch) }

// PutScratch returns a Scratch to the pool. The caller must not retain any
// slice that aliases it (search results are safe — they are copies).
func PutScratch(s *Scratch) { scratchPool.Put(s) }
