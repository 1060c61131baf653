package index

import (
	"context"
	"fmt"

	"emblookup/internal/mathx"
	"emblookup/internal/par"
	"emblookup/internal/quant"
)

// IVFConfig configures the inverted-file index.
type IVFConfig struct {
	// NList is the number of coarse clusters (inverted lists).
	NList int
	// NProbe is how many nearest lists a query scans. Larger values trade
	// speed for recall.
	NProbe int
	// PQ, when non-nil, stores residual codes instead of raw vectors
	// (IVF-PQ); nil keeps raw vectors in the lists (IVF-Flat).
	PQ    *quant.PQConfig
	Iters int
	Seed  uint64
	// Workers bounds construction parallelism (≤0 = GOMAXPROCS); the built
	// index is bit-identical at any worker count.
	Workers int
	// TrainSample caps the rows the coarse k-means (and the residual PQ's
	// sub-quantizers) train on — see quant.KMeansConfig.TrainSample. List
	// assignment and encoding still cover every row. 0 trains on all rows.
	TrainSample int
}

// DefaultIVFConfig sizes the coarse quantizer as ~sqrt(n) lists probing 8.
func DefaultIVFConfig(n int) IVFConfig {
	nlist := 1
	for nlist*nlist < n {
		nlist++
	}
	if nlist < 4 {
		nlist = 4
	}
	return IVFConfig{NList: nlist, NProbe: 8, Iters: 10, Seed: 53}
}

// IVF is an inverted-file index: a coarse k-means quantizer routes each
// vector to one list; a query scans only the NProbe nearest lists. With the
// optional PQ it stores compressed codes (FAISS's IVFPQ).
type IVF struct {
	coarse *mathx.Matrix    // NList × D centroids
	cols   *mathx.Centroids // coarse, column-major: what queries and appends rank
	nprobe int
	dim    int
	n      int

	lists [][]int32 // vector ids per list

	// Compressed storage (IVF-PQ).
	pq    *quant.ProductQuantizer
	codes [][]byte // per-list codes, parallel to lists

	// Exact vectors by id: IVF-Flat's payload, IVF-PQ's re-rank matrix when
	// rerank > 1. vectors is typically an mmap'd view paged in on demand;
	// tail holds the rows appendRows added after it (DESIGN.md §8).
	vectors *mathx.Matrix
	tail    []float32
	rerank  int
}

// vec returns row id's exact vector.
func (ix *IVF) vec(id int32) []float32 {
	if int(id) < ix.vectors.Rows {
		return ix.vectors.Row(int(id))
	}
	return ix.tail[(int(id)-ix.vectors.Rows)*ix.dim:][:ix.dim]
}

// NewIVF builds an inverted-file index over the rows of data. The coarse
// clustering, residual computation, and per-list encoding all fan across
// cfg.Workers goroutines.
func NewIVF(data *mathx.Matrix, cfg IVFConfig) (*IVF, error) {
	if cfg.NList <= 0 {
		workers := cfg.Workers
		cfg = DefaultIVFConfig(data.Rows)
		cfg.Workers = workers
	}
	cents, assign := quant.KMeans(data, quant.KMeansConfig{K: cfg.NList, MaxIters: cfg.Iters, Seed: cfg.Seed, Workers: cfg.Workers, TrainSample: cfg.TrainSample})
	ix := &IVF{
		coarse: cents,
		cols:   mathx.NewCentroids(cents),
		nprobe: cfg.NProbe,
		dim:    data.Cols,
		n:      data.Rows,
		lists:  make([][]int32, cfg.NList),
	}
	if ix.nprobe <= 0 {
		ix.nprobe = 1
	}
	for i, c := range assign {
		ix.lists[c] = append(ix.lists[c], int32(i))
	}
	if cfg.PQ == nil {
		ix.vectors = data
		return ix, nil
	}
	// IVF-PQ: quantize the residuals (vector − its coarse centroid), the
	// standard FAISS formulation.
	residuals := mathx.NewMatrix(data.Rows, data.Cols)
	par.ForEach(data.Rows, cfg.Workers, func(i int) {
		r := residuals.Row(i)
		copy(r, data.Row(i))
		cRow := cents.Row(assign[i])
		for j := range r {
			r[j] -= cRow[j]
		}
	})
	pqCfg := *cfg.PQ
	if pqCfg.Workers == 0 {
		pqCfg.Workers = cfg.Workers
	}
	if pqCfg.TrainSample == 0 {
		pqCfg.TrainSample = cfg.TrainSample
	}
	pq, err := quant.TrainPQ(residuals, pqCfg)
	if err != nil {
		return nil, err
	}
	ix.pq = pq
	ix.codes = make([][]byte, cfg.NList)
	par.ForEach(cfg.NList, cfg.Workers, func(li int) {
		ids := ix.lists[li]
		buf := make([]byte, len(ids)*pq.M)
		for j, id := range ids {
			pq.EncodeInto(residuals.Row(int(id)), buf[j*pq.M:(j+1)*pq.M])
		}
		ix.codes[li] = buf
	})
	return ix, nil
}

// SetNProbe adjusts how many coarse lists a query scans, clamped to
// [1, NList] — the runtime recall/latency knob of the nprobe sweep in
// BENCH_scale.json. Not safe to call concurrently with Search.
func (ix *IVF) SetNProbe(n int) {
	if n < 1 {
		n = 1
	}
	if n > len(ix.lists) {
		n = len(ix.lists)
	}
	ix.nprobe = n
}

// MaxRerank caps the exact re-rank over-fetch factor. Past it the ADC pass
// would keep more candidates than any list scan yields, and a factor near
// the int range would wrap k×factor negative.
const MaxRerank = 1024

// SetRerank enables (factor > 1) or disables (factor <= 1) exact re-ranking
// for an IVF-PQ index (an IVF-Flat one refuses either): the ADC scan
// over-fetches k×factor candidates and the final top-k is decided by exact
// squared-L2 distances against vectors, which must hold the original data
// row-aligned with the index ids (for an mmap'd artifact this is the
// zero-copy "vectors" section — pages fault in only for the few candidate
// rows each query touches). Not safe to call concurrently with Search.
func (ix *IVF) SetRerank(factor int, vectors *mathx.Matrix) error {
	if ix.pq == nil {
		return fmt.Errorf("index: rerank requires IVF-PQ (IVF-Flat distances are already exact)")
	}
	if factor <= 1 || vectors == nil {
		ix.rerank, ix.vectors, ix.tail = 0, nil, nil
		return nil
	}
	if factor > MaxRerank {
		return fmt.Errorf("index: rerank factor %d exceeds %d", factor, MaxRerank)
	}
	if vectors.Rows != ix.n || vectors.Cols != ix.dim {
		return fmt.Errorf("index: rerank vectors are %dx%d, index is %dx%d", vectors.Rows, vectors.Cols, ix.n, ix.dim)
	}
	ix.rerank, ix.vectors, ix.tail = factor, vectors, nil
	return nil
}

// NProbe returns how many coarse lists a query scans.
func (ix *IVF) NProbe() int { return ix.nprobe }

// Quantizer exposes the residual product quantizer (nil for IVF-Flat).
func (ix *IVF) Quantizer() *quant.ProductQuantizer { return ix.pq }

// Len returns the number of stored vectors.
func (ix *IVF) Len() int { return ix.n }

// Dim returns the vector dimensionality.
func (ix *IVF) Dim() int { return ix.dim }

// SizeBytes returns the payload storage cost.
func (ix *IVF) SizeBytes() int {
	if ix.pq == nil {
		return ix.n * ix.dim * 4
	}
	return ix.n * ix.pq.M
}

// Search implements Index: probe the nprobe nearest coarse lists, with
// the probe ranking, residual vector, ADC table, and top-k heap all reused
// from s. The probe scan is uninterruptible; ctx is checked once on entry.
func (ix *IVF) Search(ctx context.Context, s *Scratch, q []float32, k int, dst []Result) ([]Result, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	if k <= 0 {
		return dst[:0], nil
	}
	// Rank coarse centroids.
	probes := &s.probes
	probes.reset(ix.nprobe)
	s.coarse = mathx.Resize(s.coarse, ix.cols.K)
	ix.cols.SquaredL2Into(q, s.coarse)
	for c, d := range s.coarse {
		probes.push(int32(c), d)
	}
	s.probeBuf = probes.appendSorted(s.probeBuf)
	// With re-ranking on, the ADC pass over-fetches into the probe heap
	// (free once probeBuf holds the ranking) and the exact pass below
	// decides the final order; otherwise ADC order is final.
	rerank := ix.pq != nil && ix.rerank > 1
	t := &s.res
	if rerank {
		t = probes
		t.reset(k * ix.rerank)
	} else {
		t.reset(k)
	}
	for _, pr := range s.probeBuf {
		li := int(pr.ID)
		if ix.pq == nil {
			for _, id := range ix.lists[li] {
				t.push(id, mathx.SquaredL2(q, ix.vec(id)))
			}
			continue
		}
		// ADC on residual: table built from (q − centroid).
		res := mathx.Resize(s.residual, ix.dim)
		s.residual = res
		cRow := ix.coarse.Row(li)
		for j := range res {
			res[j] = q[j] - cRow[j]
		}
		scanADC(adcTable(ix.pq, res, s), ix.pq.M, ix.pq.Ks, ix.codes[li], ix.lists[li], 0, t)
	}
	if !rerank {
		return t.appendSorted(dst), nil
	}
	// Exact re-rank: true distances over the ADC candidates, pushed through
	// a fresh top-k under the canonical (Dist, ID) order — deterministic
	// regardless of the ADC pass's candidate order.
	final := &s.res
	final.reset(k)
	for _, r := range t.heap {
		final.push(r.ID, mathx.SquaredL2(q, ix.vec(r.ID)))
	}
	return final.appendSorted(dst), nil
}

// SearchWith implements ScratchSearcher.
func (ix *IVF) SearchWith(s *Scratch, q []float32, k int) []Result { return searchWith(ix, s, q, k) }
