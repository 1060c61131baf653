package quant

import (
	"fmt"
	"runtime"

	"emblookup/internal/mathx"
	"emblookup/internal/par"
)

// ProductQuantizer compresses D-dimensional vectors into M bytes, exactly
// as Section III-D describes: the vector is split into M groups of D/M
// dimensions, each group is k-means-clustered into Ks (≤256) centroids, and
// a vector is stored as the M centroid ids of its groups. With the paper's
// defaults (D=64, M=8, Ks=256) each embedding costs 8 bytes instead of 256.
type ProductQuantizer struct {
	D, M, Ks, Dsub int
	// Codebooks[m] is a Ks×Dsub matrix of centroids for group m.
	Codebooks []*mathx.Matrix
	// cols[m] is Codebooks[m] column-major: the block EncodeInto and
	// ADCTableInto score a sub-vector against, eight centroids per
	// instruction on AVX2.
	cols []*mathx.Centroids
}

// NewProductQuantizer makes the quantizer of the given sub-codebooks: M of
// them, each of at most ks centroids and all of one width Dsub (D = M·Dsub).
// It is the one constructor — TrainPQ and the index codec's assembly both
// end here — and it lays every codebook out column-major once. The
// codebooks must not change afterwards; ones read from an artifact are
// checked before they get here.
func NewProductQuantizer(ks int, codebooks []*mathx.Matrix) *ProductQuantizer {
	pq := &ProductQuantizer{M: len(codebooks), Ks: ks, Dsub: codebooks[0].Cols, Codebooks: codebooks}
	pq.D = pq.M * pq.Dsub
	pq.cols = make([]*mathx.Centroids, pq.M)
	for m, cb := range codebooks {
		pq.cols[m] = mathx.NewCentroids(cb)
	}
	return pq
}

// PQConfig configures training.
type PQConfig struct {
	M     int // number of sub-quantizers (= bytes per code)
	Ks    int // centroids per sub-quantizer, at most 256
	Iters int
	Seed  uint64
	// Workers bounds training parallelism (≤0 = GOMAXPROCS). The M
	// sub-codebooks are independent k-means problems and train
	// concurrently; each inherits KMeans's worker-count-invariant
	// reductions, so the codebooks are bit-identical at any Workers.
	Workers int
	// TrainSample caps the rows each sub-quantizer's k-means trains on
	// (see quant.KMeansConfig.TrainSample); encoding still covers every
	// row. 0 trains on all rows.
	TrainSample int
}

// DefaultPQConfig returns the paper's 8-byte configuration.
func DefaultPQConfig() PQConfig { return PQConfig{M: 8, Ks: 256, Iters: 15, Seed: 31} }

// TrainPQ learns the codebooks from the rows of data (N×D). D must be
// divisible by cfg.M.
func TrainPQ(data *mathx.Matrix, cfg PQConfig) (*ProductQuantizer, error) {
	if cfg.M <= 0 || cfg.Ks <= 0 || cfg.Ks > 256 {
		return nil, fmt.Errorf("quant: invalid PQ config M=%d Ks=%d", cfg.M, cfg.Ks)
	}
	if data.Cols%cfg.M != 0 {
		return nil, fmt.Errorf("quant: dimension %d not divisible by M=%d", data.Cols, cfg.M)
	}
	dsub := data.Cols / cfg.M
	codebooks := make([]*mathx.Matrix, cfg.M)
	// Each sub-codebook is an independent clustering of its own column
	// group with its own seed, so the groups fan across workers; leftover
	// workers fold into each group's KMeans (whose result is worker-count
	// invariant, so this split only affects wall-clock time).
	effective := cfg.Workers
	if effective <= 0 {
		effective = runtime.GOMAXPROCS(0)
	}
	inner := effective / cfg.M
	if inner < 1 {
		inner = 1
	}
	par.ForEach(cfg.M, cfg.Workers, func(m int) {
		sub := mathx.NewMatrix(data.Rows, dsub)
		for i := 0; i < data.Rows; i++ {
			copy(sub.Row(i), data.Row(i)[m*dsub:(m+1)*dsub])
		}
		codebooks[m], _ = KMeans(sub, KMeansConfig{K: cfg.Ks, MaxIters: cfg.Iters, Seed: cfg.Seed + uint64(m), Workers: inner, TrainSample: cfg.TrainSample})
	})
	return NewProductQuantizer(cfg.Ks, codebooks), nil
}

// Encode quantizes vec into its M-byte code.
func (pq *ProductQuantizer) Encode(vec []float32) []byte {
	code := make([]byte, pq.M)
	pq.EncodeInto(vec, code)
	return code
}

// EncodeInto quantizes vec into code, which must have length M.
func (pq *ProductQuantizer) EncodeInto(vec []float32, code []byte) {
	var dists [256]float32 // Ks ≤ 256
	for m, cols := range pq.cols {
		cols.SquaredL2Into(vec[m*pq.Dsub:(m+1)*pq.Dsub], dists[:])
		best, bestD := 0, float32(0)
		for c, d := range dists[:cols.K] {
			if c == 0 || d < bestD {
				best, bestD = c, d
			}
		}
		code[m] = byte(best)
	}
}

// Decode reconstructs the approximate vector for a code.
func (pq *ProductQuantizer) Decode(code []byte) []float32 {
	out := make([]float32, pq.D)
	for m := 0; m < pq.M; m++ {
		copy(out[m*pq.Dsub:(m+1)*pq.Dsub], pq.Codebooks[m].Row(int(code[m])))
	}
	return out
}

// ADCTable precomputes, for a query, the squared distance from each query
// sub-vector to every centroid of every sub-quantizer. With the table, the
// distance to any stored code is M table lookups — the asymmetric distance
// computation that makes PQ search fast.
func (pq *ProductQuantizer) ADCTable(query []float32) []float32 {
	table := make([]float32, pq.M*pq.Ks)
	pq.ADCTableInto(query, table)
	return table
}

// ADCTableInto writes the ADC table into table, which must have length
// M*Ks. Query paths that reuse a scratch table avoid the per-query
// allocation that otherwise dominates compressed search.
func (pq *ProductQuantizer) ADCTableInto(query, table []float32) {
	if len(table) != pq.M*pq.Ks {
		panic(fmt.Sprintf("quant: ADC table length %d, want %d", len(table), pq.M*pq.Ks))
	}
	for m, cols := range pq.cols {
		row := table[m*pq.Ks:][:pq.Ks]
		cols.SquaredL2Into(query[m*pq.Dsub:(m+1)*pq.Dsub], row)
		// A reused table may hold stale values past the trained centroids;
		// codes never reference them, but keep the table well-defined.
		clear(row[cols.K:])
	}
}

// ADCDistance returns the approximate squared distance between the query
// that produced table and the stored code.
func (pq *ProductQuantizer) ADCDistance(table []float32, code []byte) float32 {
	var s float32
	for m := 0; m < pq.M; m++ {
		s += table[m*pq.Ks+int(code[m])]
	}
	return s
}
