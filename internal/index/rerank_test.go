package index

import (
	"testing"

	"emblookup/internal/mathx"
	"emblookup/internal/quant"
)

// TestIVFRerankExhaustiveExact pins the re-rank contract at its limit: with
// every list probed and an over-fetch budget covering the whole index, the
// exact re-rank pass must reproduce the flat exact search bit-for-bit —
// IDs, distances, and the canonical (Dist, ID) order.
func TestIVFRerankExhaustiveExact(t *testing.T) {
	data := randomData(400, 16, 21)
	flat := NewFlat(data)
	pqCfg := quant.PQConfig{M: 4, Ks: 32, Iters: 8, Seed: 22}
	ix, err := NewIVF(data, IVFConfig{NList: 8, NProbe: 8, PQ: &pqCfg, Iters: 8, Seed: 23})
	if err != nil {
		t.Fatal(err)
	}
	// k=5 × factor 100 ≥ 400 rows: the ADC pass keeps everything, so the
	// re-rank is a full exact search.
	if err := ix.SetRerank(100, data); err != nil {
		t.Fatal(err)
	}
	rng := mathx.NewRNG(24)
	q := make([]float32, 16)
	for trial := 0; trial < 30; trial++ {
		for i := range q {
			q[i] = float32(rng.NormFloat64())
		}
		want := Search(flat, q, 5)
		got := Search(ix, q, 5)
		if len(want) != len(got) {
			t.Fatalf("trial %d: %d vs %d results", trial, len(got), len(want))
		}
		for i := range want {
			if want[i] != got[i] {
				t.Fatalf("trial %d result %d: %+v vs flat %+v", trial, i, got[i], want[i])
			}
		}
	}
}

// TestIVFRerankImprovesRecall is the reason the knob exists: at the same
// nprobe, deciding the final top-k by exact distances must beat (or at
// worst match) raw ADC ordering against the flat ground truth.
func TestIVFRerankImprovesRecall(t *testing.T) {
	data := randomData(800, 16, 25)
	flat := NewFlat(data)
	pqCfg := quant.PQConfig{M: 4, Ks: 16, Iters: 6, Seed: 26}
	ix, err := NewIVF(data, IVFConfig{NList: 16, NProbe: 16, PQ: &pqCfg, Iters: 8, Seed: 27})
	if err != nil {
		t.Fatal(err)
	}
	recall := func() float64 {
		rng := mathx.NewRNG(28)
		q := make([]float32, 16)
		hits, total := 0, 0
		for trial := 0; trial < 50; trial++ {
			for i := range q {
				q[i] = float32(rng.NormFloat64())
			}
			truth := map[int32]bool{}
			for _, r := range Search(flat, q, 10) {
				truth[r.ID] = true
			}
			for _, r := range Search(ix, q, 10) {
				if truth[r.ID] {
					hits++
				}
				total++
			}
		}
		return float64(hits) / float64(total)
	}
	adc := recall()
	if err := ix.SetRerank(8, data); err != nil {
		t.Fatal(err)
	}
	reranked := recall()
	if reranked < adc {
		t.Fatalf("recall dropped with re-rank: %.3f → %.3f", adc, reranked)
	}
	if reranked < 0.9 {
		t.Fatalf("re-ranked recall@10 = %.3f, want ≥ 0.9 at full probe", reranked)
	}
	// Disabling restores the plain ADC behavior.
	if err := ix.SetRerank(0, nil); err != nil {
		t.Fatal(err)
	}
	if got := recall(); got != adc {
		t.Fatalf("disabled re-rank recall %.3f != original ADC %.3f", got, adc)
	}
}

// TestSetRerankValidation pins the guard rails: IVF-Flat refuses (its
// distances are already exact), misaligned vector matrices refuse, and
// factor ≤ 1 clears.
func TestSetRerankValidation(t *testing.T) {
	data := randomData(200, 8, 29)
	flatIVF, err := NewIVF(data, IVFConfig{NList: 4, NProbe: 4, Iters: 4, Seed: 30})
	if err != nil {
		t.Fatal(err)
	}
	if err := flatIVF.SetRerank(4, data); err == nil {
		t.Fatal("IVF-Flat accepted a re-rank matrix")
	}
	pqCfg := quant.PQConfig{M: 4, Ks: 16, Iters: 4, Seed: 31}
	ix, err := NewIVF(data, IVFConfig{NList: 4, NProbe: 4, PQ: &pqCfg, Iters: 4, Seed: 32})
	if err != nil {
		t.Fatal(err)
	}
	if err := ix.SetRerank(4, randomData(200, 4, 33)); err == nil {
		t.Fatal("dimension-mismatched re-rank matrix accepted")
	}
	if err := ix.SetRerank(4, randomData(100, 8, 34)); err == nil {
		t.Fatal("row-mismatched re-rank matrix accepted")
	}
	if err := ix.SetRerank(4, data); err != nil {
		t.Fatal(err)
	}
	if ix.rerank != 4 || ix.vectors == nil {
		t.Fatalf("rerank = (%d, %v) after enable", ix.rerank, ix.vectors)
	}
	if err := ix.SetRerank(1, data); err != nil {
		t.Fatal(err)
	}
	if ix.rerank != 0 || ix.vectors != nil {
		t.Fatalf("rerank = (%d, %v) after clear", ix.rerank, ix.vectors)
	}
}

// TestRerankFactorCapped: SetRerank takes factors up to MaxRerank and
// refuses any above it, 2^62 (which wraps k×factor negative) included,
// leaving the index as it was.
func TestRerankFactorCapped(t *testing.T) {
	data := randomData(300, 16, 31)
	pqCfg := quant.PQConfig{M: 4, Ks: 16, Iters: 4, Seed: 32}
	ix, err := NewIVF(data, IVFConfig{NList: 6, NProbe: 2, PQ: &pqCfg, Iters: 4, Seed: 33})
	if err != nil {
		t.Fatal(err)
	}
	if err := ix.SetRerank(MaxRerank, data); err != nil {
		t.Fatalf("factor %d refused: %v", MaxRerank, err)
	}
	for _, f := range []int{MaxRerank + 1, 1 << 62} {
		if err := ix.SetRerank(f, data); err == nil {
			t.Fatalf("factor %d accepted", f)
		}
		if ix.rerank != MaxRerank {
			t.Fatalf("refused factor %d left rerank %d", f, ix.rerank)
		}
	}
	if got := Search(ix, data.Row(0), 10); len(got) != 10 || got[0].ID != 0 {
		t.Fatalf("search after refusals: %+v", got)
	}
}

// TestAssembleIVFClampsNProbe: an artifact's nprobe outside [1, NList] is
// clamped at attach, as SetNProbe clamps it.
func TestAssembleIVFClampsNProbe(t *testing.T) {
	data := randomData(200, 8, 34)
	ix, err := NewIVF(data, IVFConfig{NList: 6, NProbe: 2, Iters: 4, Seed: 35})
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct{ in, want int }{{1 << 40, 6}, {7, 6}, {6, 6}, {4, 4}, {0, 1}, {-3, 1}} {
		got, err := assemble(&parts{Kind: "ivf-flat", Coarse: ix.coarse, NProbe: c.in, Lists: ix.lists, Vectors: data}, data.Rows)
		if err != nil {
			t.Fatal(err)
		}
		if n := got.(*IVF).NProbe(); n != c.want {
			t.Errorf("nprobe %d attached as %d, want %d", c.in, n, c.want)
		}
	}
}
