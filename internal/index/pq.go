package index

import (
	"context"

	"emblookup/internal/mathx"
	"emblookup/internal/par"
	"emblookup/internal/quant"
)

// PQ is the compressed index of Section III-D: every stored vector is an
// M-byte product-quantization code and queries scan the codes with an
// asymmetric-distance table. At the paper's defaults this shrinks the index
// 32× (8 bytes vs 256 per entity).
type PQ struct {
	pq    *quant.ProductQuantizer
	codes []byte // n × M, flattened
	n     int
}

// NewPQ trains a product quantizer on data and encodes every row. cfg.M
// must divide the dimensionality. Training and encoding fan across
// cfg.Workers goroutines; every row's code is an independent exact argmin,
// so the codes are byte-identical at any worker count.
func NewPQ(data *mathx.Matrix, cfg quant.PQConfig) (*PQ, error) {
	q, err := quant.TrainPQ(data, cfg)
	if err != nil {
		return nil, err
	}
	ix := &PQ{pq: q, n: data.Rows, codes: make([]byte, data.Rows*q.M)}
	par.ForEach(data.Rows, cfg.Workers, func(i int) {
		q.EncodeInto(data.Row(i), ix.codes[i*q.M:(i+1)*q.M])
	})
	return ix, nil
}

// Len returns the number of stored codes.
func (ix *PQ) Len() int { return ix.n }

// Dim returns the original vector dimensionality.
func (ix *PQ) Dim() int { return ix.pq.D }

// SizeBytes returns the code storage cost.
func (ix *PQ) SizeBytes() int { return len(ix.codes) }

// Quantizer exposes the trained product quantizer.
func (ix *PQ) Quantizer() *quant.ProductQuantizer { return ix.pq }

// Search implements Index: the ADC table for q is built once and the
// codes are walked with the ADC kernel.
func (ix *PQ) Search(ctx context.Context, s *Scratch, q []float32, k int, dst []Result) ([]Result, error) {
	return scanSolo(ctx, ix, nil, 0, s, q, k, dst)
}

// SearchWith implements ScratchSearcher.
func (ix *PQ) SearchWith(s *Scratch, q []float32, k int) []Result { return searchWith(ix, s, q, k) }

// adcTable builds q's ADC table under pq in s and returns it.
func adcTable(pq *quant.ProductQuantizer, q []float32, s *Scratch) []float32 {
	s.table = mathx.Resize(s.table, pq.M*pq.Ks)
	pq.ADCTableInto(q, s.table)
	return s.table
}

// prepare implements rangeScanner: the shared per-query scan state is the
// ADC table, built once and read-only thereafter.
func (ix *PQ) prepare(q []float32, s *Scratch) []float32 { return adcTable(ix.pq, q, s) }

// scanRange implements rangeScanner: the ADC kernel over the contiguous
// codes of stored rows [lo, hi), row j of the range being id lo+j. The
// kernel's heap is a pure function of the candidate (Dist, ID) multiset,
// so any sharding of [0, n) into ranges returns bit-identical results to
// scanPlain.
func (ix *PQ) scanRange(table []float32, _ *Scratch, t *topK, lo, hi int) {
	m := ix.pq.M
	scanADC(table, m, ix.pq.Ks, ix.codes[lo*m:hi*m], nil, int32(lo), t)
}

// scanADC is the one 8-bit ADC kernel, behind PQ ranges and IVF-PQ lists.
// It pushes into t the distance of every row of codes: row j's code is the
// m bytes at codes[j·m:] and its distance table[code[0]] + table[ks+code[1]]
// + … + table[(m−1)·ks+code[m−1]], summed from +0 in that order, as
// scanPlain sums it. Row j's id is ids[j] (an inverted list) or, when ids
// is nil, id0+j (a contiguous range). Eight rows' sums are in flight at
// once, each sub-quantizer's table offset computed once for all eight, and
// a row is pushed only if t.admits its distance, which is exactly when push
// would keep it, so t ends as pushing every row would leave it.
func scanADC(table []float32, m, ks int, codes []byte, ids []int32, id0 int32, t *topK) {
	n := len(codes) / m
	j := 0
	for ; j+8 <= n; j += 8 {
		c := codes[j*m:][:8*m]
		c0 := c[:m]
		c1, c2, c3 := c[m:][:len(c0)], c[2*m:][:len(c0)], c[3*m:][:len(c0)]
		c4, c5, c6, c7 := c[4*m:][:len(c0)], c[5*m:][:len(c0)], c[6*m:][:len(c0)], c[7*m:][:len(c0)]
		var d0, d1, d2, d3, d4, d5, d6, d7 float32
		off := 0
		for b := range c0 {
			d0 += table[off+int(c0[b])]
			d1 += table[off+int(c1[b])]
			d2 += table[off+int(c2[b])]
			d3 += table[off+int(c3[b])]
			d4 += table[off+int(c4[b])]
			d5 += table[off+int(c5[b])]
			d6 += table[off+int(c6[b])]
			d7 += table[off+int(c7[b])]
			off += ks
		}
		for i, d := range [8]float32{d0, d1, d2, d3, d4, d5, d6, d7} {
			if t.admits(d) {
				t.push(adcID(ids, id0, j+i), d)
			}
		}
	}
	for ; j < n; j++ {
		var d float32
		off := 0
		for _, code := range codes[j*m:][:m] {
			d += table[off+int(code)]
			off += ks
		}
		if t.admits(d) {
			t.push(adcID(ids, id0, j), d)
		}
	}
}

// adcID is the id of scanADC's row j.
func adcID(ids []int32, id0 int32, j int) int32 {
	if ids == nil {
		return id0 + int32(j)
	}
	return ids[j]
}

// Reconstruct decodes the stored approximation of vector id.
func (ix *PQ) Reconstruct(id int32) []float32 {
	m := ix.pq.M
	return ix.pq.Decode(ix.codes[int(id)*m : (int(id)+1)*m])
}
