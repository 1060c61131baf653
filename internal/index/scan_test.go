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

// TestBlockedScanMatchesPlain asserts the blocked, early-abandoning scan
// returns bit-identical results to the straightforward per-code loop, for
// sizes that exercise partial trailing blocks and k values around the
// block size.
func TestBlockedScanMatchesPlain(t *testing.T) {
	for _, n := range []int{1, 7, scanBlock - 1, scanBlock, scanBlock + 1, 3*scanBlock + 17} {
		ix, data := buildPQ(t, n, 32, uint64(n))
		for _, k := range []int{1, 5, n, n + 10} {
			for qi := 0; qi < 5 && qi < n; qi++ {
				q := data.Row(qi)
				table := ix.pq.ADCTable(q)

				plain := newTopK(k)
				ix.scanPlain(table, plain)

				blocked := newTopK(k)
				var dists [scanBlock]float32
				ix.scanBlockedRange(table, blocked, &dists, 0, ix.n)

				ps, bs := plain.sorted(), blocked.sorted()
				if len(ps) != len(bs) {
					t.Fatalf("n=%d k=%d: %d plain vs %d blocked results", n, k, len(ps), len(bs))
				}
				for i := range ps {
					if ps[i] != bs[i] {
						t.Fatalf("n=%d k=%d q=%d: result %d diverges: plain %+v blocked %+v",
							n, k, qi, i, ps[i], bs[i])
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
