package index

import (
	"testing"
	"testing/quick"

	"emblookup/internal/mathx"
	"emblookup/internal/quant"
)

// Property: for any data and query, Flat.Search returns exactly the k
// smallest distances found by a naive scan, sorted.
func TestFlatMatchesNaiveProperty(t *testing.T) {
	f := func(seed uint64, nRaw, kRaw uint8) bool {
		n := int(nRaw)%50 + 1
		k := int(kRaw)%10 + 1
		rng := mathx.NewRNG(seed)
		data := mathx.NewMatrix(n, 4)
		data.FillRandn(rng, 1)
		q := make([]float32, 4)
		for i := range q {
			q[i] = float32(rng.NormFloat64())
		}
		got := Search(NewFlat(data), q, k)

		// Naive: compute all distances, selection-sort the smallest k.
		dists := make([]float32, n)
		for i := 0; i < n; i++ {
			dists[i] = mathx.SquaredL2(q, data.Row(i))
		}
		want := k
		if n < k {
			want = n
		}
		if len(got) != want {
			return false
		}
		// Every returned distance must be correct and the set must be the
		// k smallest (allowing ties).
		prev := float32(-1)
		for _, r := range got {
			if mathx.SquaredL2(q, data.Row(int(r.ID))) != r.Dist {
				return false
			}
			if r.Dist < prev {
				return false
			}
			prev = r.Dist
		}
		// No excluded point may be strictly closer than the worst result.
		worst := got[len(got)-1].Dist
		in := map[int32]bool{}
		for _, r := range got {
			in[r.ID] = true
		}
		for i := 0; i < n; i++ {
			if !in[int32(i)] && dists[i] < worst {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

// Property: PQ codes always decode to one of the codebook centroid
// combinations, and ADC distance equals the decoded distance.
func TestPQConsistencyProperty(t *testing.T) {
	f := func(seed uint64) bool {
		rng := mathx.NewRNG(seed)
		data := mathx.NewMatrix(60, 8)
		data.FillRandn(rng, 1)
		ix, err := NewPQ(data, pqTestConfig(seed))
		if err != nil {
			return false
		}
		q := make([]float32, 8)
		for i := range q {
			q[i] = float32(rng.NormFloat64())
		}
		res := Search(ix, q, 5)
		if len(res) != 5 {
			return false
		}
		for _, r := range res {
			rec := ix.Reconstruct(r.ID)
			if d := mathx.SquaredL2(q, rec); !approxEq(d, r.Dist, 1e-3) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Fatal(err)
	}
}

// Property: on adversarial tie-heavy tables (tiny integer alphabet, so
// nearly every distance collides) the fast-scan candidate set is a
// superset of the exact top-k — the floored quantization makes the integer
// sum a lower bound, so the prune may only over-admit — and after the exact
// float32 re-rank the returned top-k is bit-identical to the plain scan's.
// Bit-identity subsumes the superset claim: a dropped exact-top-k row would
// be missing from the output.
func TestFastScanSupersetProperty(t *testing.T) {
	f := func(seed uint64, nRaw uint16, m4Raw, ksRaw, kRaw, alphaRaw uint8) bool {
		n := int(nRaw)%600 + 1
		m4 := (int(m4Raw)%5 + 1) * 2
		ks := int(ksRaw)%quant.Ks4 + 1
		k := int(kRaw)%40 + 1
		alpha := int(alphaRaw)%3 + 1 // distance alphabet {0..alpha}: all ties at 1

		rng := mathx.NewRNG(seed)
		nib := make([]byte, n*m4)
		for i := range nib {
			nib[i] = byte(rng.Intn(ks))
		}
		ix := syntheticFastScan(nib, m4, ks, n)
		table := make([]float32, m4*quant.Ks4)
		for m := 0; m < m4; m++ {
			for c := 0; c < ks; c++ {
				table[m*quant.Ks4+c] = float32(rng.Intn(alpha + 1))
			}
		}

		plain := newTopK(k)
		ix.scanPlain4(table, plain, 0, ix.n)
		want := plain.sorted()

		s := GetScratch()
		defer PutScratch(s)
		fast := newTopK(k)
		ix.scanRange(table, s, fast, 0, n)
		got := fast.sorted()

		if len(want) != len(got) {
			return false
		}
		for i := range want {
			if want[i] != got[i] {
				return false
			}
		}
		// The exact top-k ids must all be present (the superset property,
		// stated directly).
		in := map[int32]bool{}
		for _, r := range got {
			in[r.ID] = true
		}
		for _, r := range want {
			if !in[r.ID] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 120}); err != nil {
		t.Fatal(err)
	}
}

func approxEq(a, b, eps float32) bool {
	d := a - b
	if d < 0 {
		d = -d
	}
	scale := a
	if b > a {
		scale = b
	}
	if scale < 1 {
		scale = 1
	}
	return d <= eps*scale
}

func pqTestConfig(seed uint64) (cfg quant.PQConfig) {
	cfg.M = 4
	cfg.Ks = 16
	cfg.Iters = 5
	cfg.Seed = seed
	return cfg
}
