package index

import (
	"fmt"
	"sort"
	"sync"
	"testing"

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

// A Dynamic over an exact base must stay exact through an interleaving of
// adds and deletes in both segments.
func TestDynamicMatchesBruteForce(t *testing.T) {
	const d = 6
	data := randomData(120, d, 31)
	live := map[int32][]float32{}
	for i := 0; i < data.Rows; i++ {
		live[int32(i)] = data.Row(i)
	}
	dyn := NewDynamic(NewFlat(data), 1<<30) // threshold out of reach: delta stays raw
	rng := mathx.NewRNG(32)

	check := func(stage string) {
		t.Helper()
		for trial := 0; trial < 5; trial++ {
			q := randomQuery(rng, d)
			got := Search(dyn, q, 10)
			want := bruteTopK(live, q, 10)
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
	// Grow a delta segment.
	added := []int32{}
	for i := 0; i < 40; i++ {
		v := randomQuery(rng, d)
		id := dyn.Add(v)
		live[id] = v
		added = append(added, id)
	}
	check("after adds")
	// Delete from the base segment (tombstones survive forever there)...
	for _, id := range []int32{0, 7, 55, 119} {
		if !dyn.Delete(id) {
			t.Fatalf("base delete %d reported not-live", id)
		}
		delete(live, id)
	}
	// ...and from the delta segment.
	for _, id := range added[:10] {
		if !dyn.Delete(id) {
			t.Fatalf("delta delete %d reported not-live", id)
		}
		delete(live, id)
	}
	check("after deletes")
	if dyn.Delete(0) {
		t.Fatal("double delete should report false")
	}
	if dyn.Delete(1 << 20) {
		t.Fatal("deleting an unknown id should report false")
	}
	if dyn.Len() != len(live) {
		t.Fatalf("Len = %d, want %d live rows", dyn.Len(), len(live))
	}

	// Compaction over a Flat base moves raw vectors verbatim: still exact,
	// deleted delta rows physically gone.
	preStats := dyn.Stats()
	dyn.Compact()
	post := dyn.Stats()
	if post.Delta != 0 {
		t.Fatalf("delta not drained by Compact: %+v", post)
	}
	if post.Dead >= preStats.Dead {
		t.Fatalf("deleted delta rows should leave the dead set at compaction: %+v -> %+v", preStats, post)
	}
	check("after compaction")

	// Ids handed out after compaction continue the same sequence.
	v := randomQuery(rng, d)
	id := dyn.Add(v)
	live[id] = v
	check("after post-compaction add")
}

// Quantized bases absorb compacted rows through their sealed quantizer. The
// representation is lossy, so the invariant is about membership, not
// distances: an exhaustive search returns exactly the live id set before
// and after compaction, and Len tracks it.
func TestDynamicCompactQuantizedBases(t *testing.T) {
	const d = 16
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
	for name, base := range bases {
		dyn := NewDynamic(base, 1<<30)
		rng := mathx.NewRNG(37)
		liveIDs := map[int32]bool{}
		for i := 0; i < 300; i++ {
			liveIDs[int32(i)] = true
		}
		for i := 0; i < 25; i++ {
			liveIDs[dyn.Add(randomQuery(rng, d))] = true
		}
		for _, id := range []int32{3, 299, 305, 310} {
			if !dyn.Delete(id) {
				t.Fatalf("%s: delete %d failed", name, id)
			}
			delete(liveIDs, id)
		}
		idSet := func(stage string) {
			t.Helper()
			res := Search(dyn, randomQuery(rng, d), dyn.Len())
			if len(res) != len(liveIDs) {
				t.Fatalf("%s/%s: exhaustive search returned %d rows, want %d", name, stage, len(res), len(liveIDs))
			}
			for _, r := range res {
				if !liveIDs[r.ID] {
					t.Fatalf("%s/%s: dead or unknown id %d in results", name, stage, r.ID)
				}
			}
		}
		idSet("pre-compact")
		dyn.Compact()
		if st := dyn.Stats(); st.Delta != 0 {
			t.Fatalf("%s: compaction left delta rows: %+v", name, st)
		}
		idSet("post-compact")
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

// Searches, adds, and deletes from many goroutines: run under -race. Each
// search must return well-formed results (sorted canonically, no duplicate
// ids); exact contents are racy by design.
func TestDynamicConcurrentMutation(t *testing.T) {
	const d = 8
	data := randomData(200, d, 42)
	dyn := NewDynamic(NewFlat(data), 64)
	var wg sync.WaitGroup
	errc := make(chan error, 8) // one slot per goroutine: sends never block

	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			rng := mathx.NewRNG(uint64(100 + w))
			for i := 0; i < 200; i++ {
				id := dyn.Add(randomQuery(rng, d))
				if i%3 == 0 {
					dyn.Delete(id)
				}
				if i%7 == 0 {
					dyn.Delete(int32(rng.Intn(200)))
				}
			}
		}(w)
	}
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			rng := mathx.NewRNG(uint64(200 + w))
			for i := 0; i < 200; i++ {
				res := Search(dyn, randomQuery(rng, d), 10)
				seen := map[int32]bool{}
				for j, r := range res {
					if seen[r.ID] {
						errc <- fmt.Errorf("duplicate id %d in search results", r.ID)
						return
					}
					seen[r.ID] = true
					if j > 0 && (res[j-1].Dist > r.Dist ||
						(res[j-1].Dist == r.Dist && res[j-1].ID >= r.ID)) {
						errc <- fmt.Errorf("results not in canonical order at %d", j)
						return
					}
				}
			}
		}(w)
	}
	wg.Wait()
	close(errc)
	for err := range errc {
		t.Fatal(err)
	}
}
