package index

import (
	"context"
	"errors"
	"testing"

	"emblookup/internal/quant"
)

// TestSearchContract holds every index kind to the one Search contract:
// under a live context the results equal the package-level Search and land
// in the caller's dst; under a done context there is an error and no
// results; and a context that fires mid-fan-out stops a Sharded scan,
// directly and through a Dynamic wrapped around it.
func TestSearchContract(t *testing.T) {
	data := randomData(7*fsBlock+5, 16, 61)
	pqCfg := quant.PQConfig{M: 4, Ks: 16, Iters: 3, Seed: 2}
	pqIx, err := NewPQ(data, pqCfg)
	if err != nil {
		t.Fatal(err)
	}
	fs, err := NewFastScan(data, pqCfg)
	if err != nil {
		t.Fatal(err)
	}
	ivf, err := NewIVF(data, IVFConfig{NList: 4, NProbe: 2, Iters: 3, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	sh, err := NewSharded(fs, 4, 2)
	if err != nil {
		t.Fatal(err)
	}
	dyn := NewDynamic(sh, 0)
	dyn.Add(data.Row(3))
	dyn.Delete(5)
	kinds := map[string]Index{"flat": NewFlat(data), "pq": pqIx, "fast-scan": fs, "ivf": ivf, "sharded": sh, "dynamic": dyn}

	done, cancel := context.WithCancel(context.Background())
	cancel()
	live, cancelLive := context.WithCancel(context.Background())
	defer cancelLive()
	q := data.Row(11)
	for name, ix := range kinds {
		want := Search(ix, q, 6)
		if len(want) != 6 {
			t.Fatalf("%s: %d results, want 6", name, len(want))
		}
		s := new(Scratch)
		dst := make([]Result, 0, 6)
		for _, ctx := range []context.Context{context.Background(), live} {
			got, err := ix.Search(ctx, s, q, 6, dst)
			if err != nil {
				t.Fatalf("%s: live context: %v", name, err)
			}
			sameResults(t, name, want, got)
			if &got[0] != &dst[:1][0] {
				t.Errorf("%s: results did not land in dst", name)
			}
		}
		if got, err := ix.Search(done, s, q, 6, dst); !errors.Is(err, context.Canceled) || got != nil {
			t.Errorf("%s: done context returned %d results, err %v", name, len(got), err)
		}
		if got, err := ix.Search(context.Background(), s, q, 0, nil); err != nil || len(got) != 0 {
			t.Errorf("%s: k=0 returned %d results, err %v", name, len(got), err)
		}
	}

	for _, name := range []string{"sharded", "dynamic"} {
		// The entry checks pass (two for the Dynamic: its own and its
		// base's), one shard range starts, then the context fires.
		ctx := &countdownCtx{Context: context.Background()}
		ctx.left.Store(3)
		if got, err := kinds[name].Search(ctx, new(Scratch), q, 6, nil); !errors.Is(err, context.Canceled) || got != nil {
			t.Errorf("%s: cancelled mid-scan returned %d results, err %v", name, len(got), err)
		}
	}
}
