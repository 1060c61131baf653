package index

import (
	"testing"

	"emblookup/internal/mathx"
	"emblookup/internal/quant"
)

func randomData(n, d int, seed uint64) *mathx.Matrix {
	m := mathx.NewMatrix(n, d)
	m.FillRandn(mathx.NewRNG(seed), 1)
	return m
}

func TestFlatExactness(t *testing.T) {
	data := randomData(200, 8, 1)
	ix := NewFlat(data)
	q := data.Row(17)
	res := Search(ix, q, 5)
	if len(res) != 5 {
		t.Fatalf("got %d results", len(res))
	}
	if res[0].ID != 17 || res[0].Dist != 0 {
		t.Fatalf("self not first: %+v", res[0])
	}
	// Distances non-decreasing.
	for i := 1; i < len(res); i++ {
		if res[i].Dist < res[i-1].Dist {
			t.Fatal("results not sorted")
		}
	}
}

func TestFlatMatchesBruteForce(t *testing.T) {
	data := randomData(150, 6, 2)
	ix := NewFlat(data)
	rng := mathx.NewRNG(3)
	for trial := 0; trial < 10; trial++ {
		q := make([]float32, 6)
		for i := range q {
			q[i] = float32(rng.NormFloat64())
		}
		res := Search(ix, q, 10)
		// Verify against full scan.
		var bestID int32
		best := float32(3.4e38)
		for i := 0; i < data.Rows; i++ {
			if d := mathx.SquaredL2(q, data.Row(i)); d < best {
				best, bestID = d, int32(i)
			}
		}
		if res[0].ID != bestID {
			t.Fatalf("nearest mismatch: %d vs %d", res[0].ID, bestID)
		}
	}
}

func TestSearchKLargerThanN(t *testing.T) {
	data := randomData(5, 4, 4)
	res := Search(NewFlat(data), data.Row(0), 50)
	if len(res) != 5 {
		t.Fatalf("got %d results for k>n", len(res))
	}
}

func TestSearchKZero(t *testing.T) {
	data := randomData(5, 4, 5)
	if res := Search(NewFlat(data), data.Row(0), 0); res != nil {
		t.Fatal("k=0 should return nil")
	}
}

func TestPQIndexRecall(t *testing.T) {
	data := randomData(1000, 16, 6)
	flat := NewFlat(data)
	pqIx, err := NewPQ(data, quant.PQConfig{M: 4, Ks: 64, Iters: 10, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	if pqIx.SizeBytes() != 1000*4 {
		t.Fatalf("PQ payload = %d bytes", pqIx.SizeBytes())
	}
	// recall@10 against exact search must be reasonable on random data.
	rng := mathx.NewRNG(8)
	hits, total := 0, 0
	for trial := 0; trial < 30; trial++ {
		q := make([]float32, 16)
		for i := range q {
			q[i] = float32(rng.NormFloat64())
		}
		truth := map[int32]bool{}
		for _, r := range Search(flat, q, 10) {
			truth[r.ID] = true
		}
		for _, r := range Search(pqIx, q, 10) {
			if truth[r.ID] {
				hits++
			}
			total++
		}
	}
	recall := float64(hits) / float64(total)
	if recall < 0.3 {
		t.Fatalf("PQ recall@10 = %.2f, too low", recall)
	}
}

func TestPQReconstructApproximates(t *testing.T) {
	data := randomData(300, 8, 9)
	pqIx, err := NewPQ(data, quant.PQConfig{M: 4, Ks: 64, Iters: 10, Seed: 10})
	if err != nil {
		t.Fatal(err)
	}
	var errSum float64
	for i := 0; i < 100; i++ {
		rec := pqIx.Reconstruct(int32(i))
		errSum += float64(mathx.SquaredL2(data.Row(i), rec))
	}
	// 8 dims of unit gaussian: per-vector squared norm ≈ 8.
	if errSum/100 > 4 {
		t.Fatalf("PQ reconstruction error %.2f too large", errSum/100)
	}
}

func TestIVFFlatFindsSelf(t *testing.T) {
	data := randomData(500, 8, 11)
	ix, err := NewIVF(data, IVFConfig{NList: 16, NProbe: 16, Iters: 8, Seed: 12})
	if err != nil {
		t.Fatal(err)
	}
	// With nprobe = nlist the search is exhaustive, so self must be found.
	for i := 0; i < 50; i++ {
		res := Search(ix, data.Row(i), 1)
		if len(res) != 1 || res[0].ID != int32(i) {
			t.Fatalf("IVF full-probe missed self for %d: %+v", i, res)
		}
	}
}

func TestIVFProbeTradeoff(t *testing.T) {
	data := randomData(800, 8, 13)
	flat := NewFlat(data)
	recallAt := func(nprobe int) float64 {
		ix, err := NewIVF(data, IVFConfig{NList: 32, NProbe: nprobe, Iters: 8, Seed: 14})
		if err != nil {
			t.Fatal(err)
		}
		rng := mathx.NewRNG(15)
		hits, total := 0, 0
		for trial := 0; trial < 30; trial++ {
			q := make([]float32, 8)
			for i := range q {
				q[i] = float32(rng.NormFloat64())
			}
			truth := map[int32]bool{}
			for _, r := range Search(flat, q, 5) {
				truth[r.ID] = true
			}
			for _, r := range Search(ix, q, 5) {
				if truth[r.ID] {
					hits++
				}
				total++
			}
		}
		return float64(hits) / float64(total)
	}
	low := recallAt(1)
	high := recallAt(32)
	if high < 0.99 {
		t.Fatalf("full-probe IVF recall = %.2f, want ~1", high)
	}
	if low > high {
		t.Fatalf("recall should not decrease with more probes: %.2f vs %.2f", low, high)
	}
}

func TestIVFPQ(t *testing.T) {
	data := randomData(600, 16, 16)
	pqCfg := quant.PQConfig{M: 4, Ks: 32, Iters: 8, Seed: 17}
	ix, err := NewIVF(data, IVFConfig{NList: 16, NProbe: 16, PQ: &pqCfg, Iters: 8, Seed: 18})
	if err != nil {
		t.Fatal(err)
	}
	if ix.SizeBytes() != 600*4 {
		t.Fatalf("IVF-PQ payload = %d", ix.SizeBytes())
	}
	// Self should usually be within top-5 under quantization.
	hits := 0
	for i := 0; i < 100; i++ {
		for _, r := range Search(ix, data.Row(i), 5) {
			if r.ID == int32(i) {
				hits++
				break
			}
		}
	}
	if hits < 70 {
		t.Fatalf("IVF-PQ self-recall@5 = %d/100", hits)
	}
}

func TestBatchSearchMatchesSequential(t *testing.T) {
	data := randomData(300, 8, 19)
	ix := NewFlat(data)
	rng := mathx.NewRNG(20)
	queries := make([][]float32, 64)
	for i := range queries {
		q := make([]float32, 8)
		for j := range q {
			q[j] = float32(rng.NormFloat64())
		}
		queries[i] = q
	}
	seq := BatchSearch(ix, queries, 5, 1)
	par := BatchSearch(ix, queries, 5, 8)
	for i := range queries {
		if len(seq[i]) != len(par[i]) {
			t.Fatal("result count mismatch")
		}
		for j := range seq[i] {
			if seq[i][j] != par[i][j] {
				t.Fatalf("parallel result differs at query %d pos %d", i, j)
			}
		}
	}
}

func TestBatchSearchEmpty(t *testing.T) {
	ix := NewFlat(randomData(10, 4, 21))
	if out := BatchSearch(ix, nil, 3, 4); len(out) != 0 {
		t.Fatal("empty batch should return empty results")
	}
}

func TestTopKTieBreaksByID(t *testing.T) {
	tk := newTopK(3)
	tk.push(5, 1)
	tk.push(2, 1)
	tk.push(9, 1)
	res := tk.sorted()
	if res[0].ID != 2 || res[1].ID != 5 || res[2].ID != 9 {
		t.Fatalf("tie break wrong: %+v", res)
	}
}

func TestTopKWorst(t *testing.T) {
	tk := newTopK(2)
	if tk.worst() < 1e38 {
		t.Fatal("underfull worst should be +inf-ish")
	}
	tk.push(1, 5)
	tk.push(2, 3)
	if tk.worst() != 5 {
		t.Fatalf("worst = %v", tk.worst())
	}
	tk.push(3, 1) // evicts 5
	if tk.worst() != 3 {
		t.Fatalf("worst after evict = %v", tk.worst())
	}
}
