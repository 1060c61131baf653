package index

import (
	"bytes"
	"fmt"
	"slices"
	"sort"
	"sync"
	"sync/atomic"
	"testing"

	"emblookup/internal/artifact"
	"emblookup/internal/mathx"
	"emblookup/internal/quant"
)

// bruteTopK is the from-scratch reference: exact distances over the live
// rows, canonical (Dist, ID) order.
func bruteTopK(rows map[int32][]float32, q []float32, k int) []Result {
	all := make([]Result, 0, len(rows))
	for id, v := range rows {
		all = append(all, Result{ID: id, Dist: mathx.SquaredL2(q, v)})
	}
	sort.Slice(all, func(i, j int) bool {
		if all[i].Dist != all[j].Dist {
			return all[i].Dist < all[j].Dist
		}
		return all[i].ID < all[j].ID
	})
	if len(all) > k {
		all = all[:k]
	}
	return all
}

func randomQuery(rng *mathx.RNG, d int) []float32 {
	q := make([]float32, d)
	for i := range q {
		q[i] = float32(rng.NormFloat64())
	}
	return q
}

// A Dynamic over an exact base must stay exact through adds and the
// compactions the threshold triggers, and hand out ids in one sequence.
func TestDynamicMatchesBruteForce(t *testing.T) {
	const d, threshold, n = 6, 16, 120
	data := randomData(n, d, 31) // the Flat base appends into it
	rows := map[int32][]float32{}
	for i := 0; i < n; i++ {
		rows[int32(i)] = data.Row(i)
	}
	dyn := NewDynamic(NewFlat(data), threshold)
	rng := mathx.NewRNG(32)

	check := func(stage string) {
		t.Helper()
		if dyn.Len() != len(rows) {
			t.Fatalf("%s: Len = %d, want %d", stage, dyn.Len(), len(rows))
		}
		for trial := 0; trial < 5; trial++ {
			q := randomQuery(rng, d)
			got := Search(dyn, q, 10)
			want := bruteTopK(rows, q, 10)
			if len(got) != len(want) {
				t.Fatalf("%s: got %d results, want %d", stage, len(got), len(want))
			}
			for i := range got {
				if got[i] != want[i] {
					t.Fatalf("%s: result %d = %+v, want %+v", stage, i, got[i], want[i])
				}
			}
		}
	}

	check("initial")
	// 41 adds cross the threshold twice: over a Flat base a compaction
	// moves raw vectors verbatim, so every stage stays exact.
	for i := 0; i < 41; i++ {
		v := randomQuery(rng, d)
		id := dyn.Add(v)
		if want := int32(n + i); id != want {
			t.Fatalf("add %d got id %d, want %d", i, id, want)
		}
		rows[id] = v
		if i%5 == 0 {
			check(fmt.Sprintf("after %d adds", i+1))
		}
	}
	if st := dyn.Stats(); st.Base != n+2*threshold || st.Delta != 41-2*threshold {
		t.Fatalf("after two compactions: %+v", st)
	}
	check("after compactions")
}

// Quantized bases absorb compacted rows through their sealed quantizer. The
// representation is lossy, so the invariant is about membership, not
// distances: an exhaustive search returns every row id before and after
// the compaction the threshold triggers, and Len tracks it.
func TestDynamicCompactQuantizedBases(t *testing.T) {
	const d, threshold = 16, 25
	data := randomData(300, d, 33)
	pqCfg := quant.PQConfig{M: 4, Ks: 16, Iters: 6, Seed: 34}
	bases := map[string]Index{}
	if ix, err := NewPQ(data, pqCfg); err != nil {
		t.Fatal(err)
	} else {
		bases["pq"] = ix
	}
	if ix, err := NewIVF(data, IVFConfig{NList: 8, NProbe: 8, Iters: 5, Seed: 35}); err != nil {
		t.Fatal(err)
	} else {
		bases["ivf-flat"] = ix
	}
	if ix, err := NewIVF(data, IVFConfig{NList: 8, NProbe: 8, PQ: &pqCfg, Iters: 5, Seed: 36}); err != nil {
		t.Fatal(err)
	} else {
		bases["ivf-pq"] = ix
	}
	// Re-ranking reads the exact vectors of every candidate, compacted
	// rows included. They are a copy: the IVF-Flat base holds data itself.
	exact := &mathx.Matrix{Rows: data.Rows, Cols: d, Data: slices.Clone(data.Data)}
	if ix, err := NewIVF(data, IVFConfig{NList: 8, NProbe: 8, PQ: &pqCfg, Iters: 5, Seed: 36}); err != nil {
		t.Fatal(err)
	} else if err := ix.SetRerank(8, exact); err != nil {
		t.Fatal(err)
	} else {
		bases["ivf-pq-rerank"] = ix
	}
	cfg4 := quant.Config4(pqCfg)
	for name, level := range map[string]int{"fastscan": 1, "fastscan-clustered": 4} {
		if ix, err := newFastScan(data, cfg4, level); err != nil {
			t.Fatal(err)
		} else {
			bases[name] = ix
		}
	}
	for name, base := range bases {
		dyn := NewDynamic(base, threshold)
		rng := mathx.NewRNG(37)
		idSet := func(stage string, n int) {
			t.Helper()
			res := Search(dyn, randomQuery(rng, d), dyn.Len())
			if len(res) != n || dyn.Len() != n {
				t.Fatalf("%s/%s: exhaustive search returned %d rows, Len %d, want %d", name, stage, len(res), dyn.Len(), n)
			}
			seen := map[int32]bool{}
			for _, r := range res {
				if r.ID < 0 || int(r.ID) >= n || seen[r.ID] {
					t.Fatalf("%s/%s: bad or duplicate id %d in results", name, stage, r.ID)
				}
				seen[r.ID] = true
			}
		}
		for i := 0; i < threshold-1; i++ {
			dyn.Add(randomQuery(rng, d))
		}
		idSet("pre-compact", 300+threshold-1)
		dyn.Add(randomQuery(rng, d))
		if st := dyn.Stats(); st.Delta != 0 || st.Base != 300+threshold {
			t.Fatalf("%s: the threshold add did not compact: %+v", name, st)
		}
		idSet("post-compact", 300+threshold)
		if ix, ok := dyn.Base().(*IVF); ok && ix.vectors != nil {
			checkIVFTail(t, name, base.(*IVF), ix, threshold)
		}
	}
}

// checkIVFTail: a compacted IVF shares its parent's sealed exact vectors
// and holds only the appended rows in its tail, and the codec writes both,
// so the re-attached index answers as the compacted one does.
func checkIVFTail(t *testing.T, name string, parent, ix *IVF, added int) {
	t.Helper()
	if ix.vectors != parent.vectors || len(ix.tail) != added*ix.dim {
		t.Fatalf("%s: compaction copied the sealed vectors or lost the appended ones (tail %d floats)", name, len(ix.tail))
	}
	aw := artifact.NewWriter()
	meta, err := WriteSections(aw, ix)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if _, err := aw.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	af, err := artifact.Decode(buf.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	back, err := ReadSections(af, meta, ix.Len())
	if err != nil {
		t.Fatalf("%s: re-attaching the compacted index: %v", name, err)
	}
	rng := mathx.NewRNG(41)
	for i := 0; i < 5; i++ {
		q := randomQuery(rng, ix.dim)
		if got, want := Search(back, q, 10), Search(ix, q, 10); !slices.Equal(got, want) {
			t.Fatalf("%s: re-attached index answers %v, compacted one %v", name, got, want)
		}
	}
}

// A base that cannot absorb appends (Sharded: fixed shard bounds) never
// compacts — the delta just keeps serving — and results stay exact.
func TestDynamicShardedBaseNeverCompacts(t *testing.T) {
	const d = 4
	data := randomData(90, d, 38)
	live := map[int32][]float32{}
	for i := 0; i < data.Rows; i++ {
		live[int32(i)] = data.Row(i)
	}
	sh, err := NewSharded(NewFlat(data), 3, 2)
	if err != nil {
		t.Fatal(err)
	}
	dyn := NewDynamic(sh, 4) // tiny threshold: compaction keeps triggering
	rng := mathx.NewRNG(39)
	for i := 0; i < 20; i++ {
		v := randomQuery(rng, d)
		live[dyn.Add(v)] = v
	}
	if st := dyn.Stats(); st.Delta != 20 {
		t.Fatalf("sharded base should never compact, delta = %d", st.Delta)
	}
	q := randomQuery(rng, d)
	got := Search(dyn, q, 8)
	want := bruteTopK(live, q, 8)
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("result %d = %+v, want %+v", i, got[i], want[i])
		}
	}
}

// Crossing the threshold compacts inline from Add.
func TestDynamicAutoCompaction(t *testing.T) {
	data := randomData(50, 4, 40)
	dyn := NewDynamic(NewFlat(data), 8)
	rng := mathx.NewRNG(41)
	for i := 0; i < 30; i++ {
		dyn.Add(randomQuery(rng, 4))
	}
	if st := dyn.Stats(); st.Delta >= 8 {
		t.Fatalf("delta %d should stay under the threshold", st.Delta)
	}
	if dyn.Len() != 80 {
		t.Fatalf("Len = %d, want 80", dyn.Len())
	}
}

// Searches and adds from many goroutines: run under -race. Readers search
// while the writers' adds cross the threshold at least 3 times, and every
// answer must be one snapshot's: the exact top-k of rows [0, L) for some L
// between the Len read before and after that search.
func TestDynamicConcurrentMutation(t *testing.T) {
	const d, n, threshold, writers, adds, k = 8, 200, 64, 4, 200, 10
	data := randomData(n, d, 42)
	dyn := NewDynamic(NewFlat(data), threshold)
	// vecs[id] is row id's vector; a writer fills its rows' slots after
	// Add returns, and readers check their answers once every writer is
	// done.
	vecs := make([][]float32, n+writers*adds)
	for i := 0; i < n; i++ {
		vecs[i] = data.Row(i)
	}
	var writersWG, readersWG sync.WaitGroup
	var writing atomic.Bool
	writing.Store(true)
	for w := 0; w < writers; w++ {
		writersWG.Add(1)
		go func(w int) {
			defer writersWG.Done()
			rng := mathx.NewRNG(uint64(100 + w))
			for i := 0; i < adds; i++ {
				v := randomQuery(rng, d)
				vecs[dyn.Add(v)] = v
			}
		}(w)
	}
	type answer struct {
		q      []float32
		lo, hi int
		res    []Result
	}
	answers := make([][]answer, 4)
	for w := range answers {
		readersWG.Add(1)
		go func(w int) {
			defer readersWG.Done()
			rng := mathx.NewRNG(uint64(200 + w))
			for i := 0; i < 50 || writing.Load(); i++ {
				q := randomQuery(rng, d)
				lo := dyn.Len()
				res := Search(dyn, q, k)
				answers[w] = append(answers[w], answer{q, lo, dyn.Len(), res})
			}
		}(w)
	}
	writersWG.Wait()
	writing.Store(false)
	readersWG.Wait()
	if st := dyn.Stats(); st.Base < n+3*threshold || dyn.Len() != len(vecs) {
		t.Fatalf("after the adds: %+v, Len %d; want 3 compactions or more and %d rows", st, dyn.Len(), len(vecs))
	}
	for _, as := range answers {
		for _, a := range as {
			rows := map[int32][]float32{}
			for id := range a.lo {
				rows[int32(id)] = vecs[id]
			}
			for l := a.lo; !slices.Equal(a.res, bruteTopK(rows, a.q, k)); l++ {
				if l == a.hi {
					t.Fatalf("search between Len %d and %d answered %+v: no snapshot's top-%d", a.lo, a.hi, a.res, k)
				}
				rows[int32(l)] = vecs[l]
			}
		}
	}
}
