package index

import (
	"testing"

	"emblookup/internal/mathx"
	"emblookup/internal/quant"
)

// buildPQ trains a small PQ index over n random rows.
func buildPQ(t *testing.T, n, dim int, seed uint64) (*PQ, *mathx.Matrix) {
	t.Helper()
	data := mathx.NewMatrix(n, dim)
	data.FillRandn(mathx.NewRNG(seed), 1)
	ix, err := NewPQ(data, quant.PQConfig{M: 8, Ks: 32, Iters: 4, Seed: seed + 1})
	if err != nil {
		t.Fatal(err)
	}
	return ix, data
}

// TestPQScanRangeMatchesPlain asserts PQ.scanRange (the scanADC kernel
// over contiguous codes) returns bit-identical results to the
// straightforward per-code loop, over all rows and over sub-ranges [lo, hi)
// that start off a group of eight and end in a partial one, for k around
// the range size.
func TestPQScanRangeMatchesPlain(t *testing.T) {
	for _, n := range []int{1, 7, 8, 9, 255, 256, 257, 785} {
		ix, data := buildPQ(t, n, 32, uint64(n))
		for _, rg := range [][2]int{{0, n}, {n / 3, n}, {n / 5, n - n/4}, {n / 2, n/2 + 1}} {
			lo, hi := rg[0], rg[1]
			for _, k := range []int{1, 5, hi - lo, hi - lo + 10} {
				for qi := 0; qi < 5 && qi < n; qi++ {
					table := ix.pq.ADCTable(data.Row(qi))
					plain, got := newTopK(k), newTopK(k)
					ix.scanPlain(table, plain, lo, hi)
					ix.scanRange(table, nil, got, lo, hi)
					ps, gs := plain.sorted(), got.sorted()
					if len(ps) != len(gs) {
						t.Fatalf("n=%d [%d, %d) k=%d: %d plain vs %d kernel results", n, lo, hi, k, len(ps), len(gs))
					}
					for i := range ps {
						if ps[i] != gs[i] {
							t.Fatalf("n=%d [%d, %d) k=%d q=%d: result %d diverges: plain %+v kernel %+v",
								n, lo, hi, k, qi, i, ps[i], gs[i])
						}
					}
				}
			}
		}
	}
}

// TestPQSearchScratchReuse asserts that one Scratch reused across many
// searches (the bulk-worker pattern) answers identically to fresh pooled
// searches — guarding against stale state leaking between queries.
func TestPQSearchScratchReuse(t *testing.T) {
	ix, data := buildPQ(t, 500, 32, 99)
	s := &Scratch{}
	for qi := 0; qi < 20; qi++ {
		q := data.Row(qi)
		want := Search(ix, q, 10)
		got := ix.SearchWith(s, q, 10)
		if len(want) != len(got) {
			t.Fatalf("query %d: length mismatch", qi)
		}
		for i := range want {
			if want[i] != got[i] {
				t.Fatalf("query %d result %d: %+v vs %+v", qi, i, want[i], got[i])
			}
		}
	}
}

// TestScratchSharedAcrossIndexKinds reuses one Scratch across PQ, Flat, and
// IVF searches of different dimensionalities, the way the shared pool will.
func TestScratchSharedAcrossIndexKinds(t *testing.T) {
	s := &Scratch{}
	pqIx, pqData := buildPQ(t, 300, 32, 7)

	flatData := mathx.NewMatrix(200, 16)
	flatData.FillRandn(mathx.NewRNG(8), 1)
	flat := NewFlat(flatData)

	ivfCfg := DefaultIVFConfig(flatData.Rows)
	ivfCfg.PQ = &quant.PQConfig{M: 4, Ks: 16, Iters: 3, Seed: 9}
	ivf, err := NewIVF(flatData, ivfCfg)
	if err != nil {
		t.Fatal(err)
	}

	for round := 0; round < 3; round++ {
		for _, check := range []struct {
			name string
			ix   ScratchSearcher
			ref  Index
			q    []float32
		}{
			{"pq", pqIx, pqIx, pqData.Row(round)},
			{"flat", flat, flat, flatData.Row(round)},
			{"ivf", ivf, ivf, flatData.Row(round)},
		} {
			want := Search(check.ref, check.q, 5)
			got := check.ix.SearchWith(s, check.q, 5)
			if len(want) != len(got) {
				t.Fatalf("%s: length mismatch", check.name)
			}
			for i := range want {
				if want[i] != got[i] {
					t.Fatalf("%s round %d: result %d diverges", check.name, round, i)
				}
			}
		}
	}
}

// scanPlain is the straightforward one-code-at-a-time ADC scan of stored
// rows [lo, hi). It is the reference scanADC is tested against and the
// shape of the original implementation.
func (ix *PQ) scanPlain(table []float32, t *topK, lo, hi int) {
	m, ks := ix.pq.M, ix.pq.Ks
	for i := lo; i < hi; i++ {
		code := ix.codes[i*m : (i+1)*m]
		var d float32
		for j := 0; j < m; j++ {
			d += table[j*ks+int(code[j])]
		}
		t.push(int32(i), d)
	}
}
