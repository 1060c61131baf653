package index

import "sync"

// Scratch is the reusable per-worker working memory of a search: the ADC
// table, the top-k heap, the blocked-scan distance strip, and the IVF probe
// state. All buffers grow on demand and are retained, so a worker that owns
// a Scratch searches without allocating anything but the returned result
// slice. The zero value is ready to use; a Scratch must not be used
// concurrently.
type Scratch struct {
	res      topK
	probes   topK
	table    []float32
	residual []float32
	probeBuf []Result
	dists    [scanBlock]float32
	lut8     []uint8  // fast-scan: uint8-quantized ADC table (M4 × Ks4)
	lut2     []uint16 // fast-scan: fused pair LUTs (M4/2 × 256)
	lut4     []uint64 // fast-scan group kernel: fsLanes queries' fused LUTs, one per 16-bit lane
}

// ScratchSearcher is implemented by indexes whose search can reuse a
// caller-owned Scratch. All indexes in this package implement it; Search is
// the allocation-tolerant wrapper that checks a Scratch out of the shared
// pool.
type ScratchSearcher interface {
	// SearchWith is Search with all working memory taken from s. The
	// returned slice is freshly allocated (it outlives the Scratch).
	SearchWith(s *Scratch, q []float32, k int) []Result
}

// AppendSearcher is implemented by indexes whose search can additionally
// reuse a caller-owned result buffer: results are written into dst[:0]
// (grown if needed) and the possibly-reallocated slice returned, so a bulk
// caller that holds one buffer per slot searches with zero per-query
// allocations. All indexes in this package implement it; SearchWith is
// equivalent to SearchAppendWith with a nil dst.
type AppendSearcher interface {
	SearchAppendWith(s *Scratch, q []float32, k int, dst []Result) []Result
}

var scratchPool = sync.Pool{New: func() any { return new(Scratch) }}

// GetScratch checks a Scratch out of the shared pool.
func GetScratch() *Scratch { return scratchPool.Get().(*Scratch) }

// PutScratch returns a Scratch to the pool. The caller must not retain any
// slice that aliases it (SearchWith results are safe — they are copies).
func PutScratch(s *Scratch) { scratchPool.Put(s) }
