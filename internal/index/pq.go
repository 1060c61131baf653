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
// codes are walked with the blocked scan.
func (ix *PQ) Search(ctx context.Context, s *Scratch, q []float32, k int, dst []Result) ([]Result, error) {
	return scanSolo(ctx, ix, nil, 0, s, q, k, dst)
}

// SearchWith implements ScratchSearcher.
func (ix *PQ) SearchWith(s *Scratch, q []float32, k int) []Result { return searchWith(ix, s, q, k) }

// scanBlock is the number of codes one blocked-scan strip covers. At the
// paper's M=8 a strip is 2 KB of codes plus a 1 KB distance buffer — both
// resident in L1 while each sub-quantizer's 256-entry table row is swept
// across the strip.
const scanBlock = 256

// stateLen and prepareInto implement rangeScanner: the shared per-query
// scan state is the ADC table, built once and read-only thereafter.
func (ix *PQ) stateLen() int { return ix.pq.M * ix.pq.Ks }

func (ix *PQ) prepareInto(q, table []float32) []float32 {
	ix.pq.ADCTableInto(q, table)
	return table
}

// scanRange implements rangeScanner: the blocked scan restricted to stored
// rows [lo, hi).
func (ix *PQ) scanRange(table []float32, s *Scratch, t *topK, lo, hi int) {
	ix.scanBlockedRange(table, t, &s.dists, lo, hi)
}

// scanBlockedRange walks the codes of rows [lo, hi) in strips of scanBlock
// codes. Within a strip the first half of the sub-quantizers is accumulated
// column-wise (one table row swept over all codes of the strip, the
// cache-friendly order), then each code finishes row-wise with an
// early-abandon check: a partial distance already strictly above the current
// k-th best can never enter the heap, because table entries are
// non-negative. (The check must be strict: an exact tie can still enter on
// the canonical ID tie-break.) The heap's selection is a pure function of
// the candidate (Dist, ID) multiset, so the strip decomposition — and any
// sharding of [0, n) into ranges — returns bit-identical results to
// scanPlain.
func (ix *PQ) scanBlockedRange(table []float32, t *topK, dists *[scanBlock]float32, lo, hi int) {
	m, ks := ix.pq.M, ix.pq.Ks
	mh := m / 2
	for base := lo; base < hi; base += scanBlock {
		bn := scanBlock
		if base+bn > hi {
			bn = hi - base
		}
		codes := ix.codes[base*m : (base+bn)*m]
		for i := 0; i < bn; i++ {
			dists[i] = 0
		}
		for j := 0; j < mh; j++ {
			row := table[j*ks : (j+1)*ks]
			for i := 0; i < bn; i++ {
				dists[i] += row[codes[i*m+j]]
			}
		}
		// worst only shrinks as pushes land, so an abandon decision made
		// against a stale bound stays valid.
		w := t.worst()
		for i := 0; i < bn; i++ {
			d := dists[i]
			if d > w {
				continue
			}
			code := codes[i*m : (i+1)*m]
			for j := mh; j < m; j++ {
				d += table[j*ks+int(code[j])]
			}
			t.push(int32(base+i), d)
			w = t.worst()
		}
	}
}

// scanPlain is the straightforward one-code-at-a-time ADC scan. It is the
// reference the blocked scan is tested against and the shape of the
// original implementation.
func (ix *PQ) scanPlain(table []float32, t *topK) {
	m, ks := ix.pq.M, ix.pq.Ks
	for i := 0; i < ix.n; i++ {
		code := ix.codes[i*m : (i+1)*m]
		var d float32
		for j := 0; j < m; j++ {
			d += table[j*ks+int(code[j])]
		}
		t.push(int32(i), d)
	}
}

// Reconstruct decodes the stored approximation of vector id.
func (ix *PQ) Reconstruct(id int32) []float32 {
	m := ix.pq.M
	return ix.pq.Decode(ix.codes[int(id)*m : (int(id)+1)*m])
}
