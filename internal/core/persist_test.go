package core

import (
	"fmt"
	"slices"
	"sync"
	"sync/atomic"
	"testing"

	"emblookup/internal/kg"
	"emblookup/internal/lookup"
)

// Every index kind must round-trip through the artifact format with full
// fidelity: the loaded index and the deterministically rebuilt one answer
// bit-identically to the original, and provenance tells them apart.
func TestIndexArtifactRoundTrip(t *testing.T) {
	g, _ := kg.Generate(kg.DefaultGeneratorConfig(kg.WikidataProfile, 150))
	cfg := testConfig()
	cfg.Epochs = 2
	cfg.IVFNProbe = 64 // exhaustive probing keeps IVF recall comparable
	base, err := Train(g, cfg)
	if err != nil {
		t.Fatal(err)
	}
	variants := []struct {
		name          string
		ivf, compress bool
	}{
		{"flat", false, false},
		{"pq", false, true},
		{"ivf-flat", true, false},
		{"ivf-pq", true, true},
	}
	for _, v := range variants {
		base.cfg.IVF, base.cfg.Compress = v.ivf, v.compress
		if err := base.buildIndex(); err != nil {
			t.Fatalf("%s: rebuild: %v", v.name, err)
		}
		if src := base.IndexProvenance().Source; src != "rebuilt" {
			t.Fatalf("%s: built index provenance = %q", v.name, src)
		}
		dir := t.TempDir()
		if err := base.SaveFileWithIndex(dir + "/with.bin"); err != nil {
			t.Fatalf("%s: save with index: %v", v.name, err)
		}
		if err := base.SaveFile(dir + "/weights.bin"); err != nil {
			t.Fatalf("%s: save weights: %v", v.name, err)
		}
		loaded, err := LoadFile(dir+"/with.bin", g)
		if err != nil {
			t.Fatalf("%s: load artifact: %v", v.name, err)
		}
		defer loaded.Close()
		rebuilt, err := LoadFile(dir+"/weights.bin", g)
		if err != nil {
			t.Fatalf("%s: load weights: %v", v.name, err)
		}
		defer rebuilt.Close()
		if src := loaded.IndexProvenance().Source; src != "loaded" {
			t.Fatalf("%s: artifact load provenance = %q", v.name, src)
		}
		if src := rebuilt.IndexProvenance().Source; src != "rebuilt" {
			t.Fatalf("%s: weights-only load provenance = %q", v.name, src)
		}
		for i := 0; i < 25; i++ {
			q := g.Entities[(i*7)%len(g.Entities)].Label
			want := base.Lookup(q, 10)
			for which, e := range map[string]*EmbLookup{"loaded": loaded, "rebuilt": rebuilt} {
				got := e.Lookup(q, 10)
				if len(got) != len(want) {
					t.Fatalf("%s/%s: %d candidates, want %d", v.name, which, len(got), len(want))
				}
				for j := range got {
					if got[j] != want[j] {
						t.Fatalf("%s/%s: Lookup(%q) diverges at %d: %+v vs %+v",
							v.name, which, q, j, got[j], want[j])
					}
				}
			}
		}
	}
}

// A dynamic index has no serialized form: its delta is serving state. The
// save path must say so instead of writing a broken artifact.
func TestSaveWithIndexRejectsDynamic(t *testing.T) {
	_, e := fixture(t)
	dyn := e.WithDynamicIndex(1 << 30)
	if err := dyn.SaveFileWithIndex(t.TempDir() + "/dyn.bin"); err == nil {
		t.Fatal("saving a dynamic index as an artifact should fail")
	}
}

// AddMention makes an unseen alias resolve to its entity immediately, as
// the next row of the append-only index, and still once a compaction moves
// it into a new base; the parent service never sees the rows, and its
// index is never written.
func TestDynamicServiceAdd(t *testing.T) {
	g, e := fixture(t)
	dyn := e.WithDynamicIndex(2) // the second add compacts
	defer dyn.Close()
	const alias, alias2 = "zyqqat flombrix unit", "quorvel plinth yard"
	target := g.Entities[5].ID
	parentLen := e.Index().Len()
	before := e.Lookup(alias, 10)

	if _, err := e.AddMention(alias, target); err == nil {
		t.Fatal("AddMention on a non-dynamic service should fail")
	}
	if _, err := dyn.AddMention(alias, kg.EntityID(len(g.Entities)+7)); err == nil {
		t.Fatal("AddMention with an out-of-graph entity should fail")
	}

	row, err := dyn.AddMention(alias, target)
	if err != nil {
		t.Fatal(err)
	}
	if want := int32(parentLen); row != want {
		t.Fatalf("added row %d, want the next row %d", row, want)
	}
	if dyn.RowEntity(row) != target {
		t.Fatalf("row %d maps to entity %d, want %d", row, dyn.RowEntity(row), target)
	}
	res := dyn.Lookup(alias, 1)
	if len(res) != 1 || res[0].ID != target {
		t.Fatalf("added mention does not resolve to its entity: %+v", res)
	}
	if row2, err := dyn.AddMention(alias2, g.Entities[9].ID); err != nil || row2 != row+1 {
		t.Fatalf("second add: row %d, %v; want row %d", row2, err, row+1)
	}
	if st := dyn.Dynamic().Stats(); st.Base != parentLen+2 || st.Delta != 0 {
		t.Fatalf("the threshold add did not compact: %+v", st)
	}
	if !slices.ContainsFunc(dyn.Lookup(alias, 10), func(c lookup.Candidate) bool { return c.ID == target }) {
		t.Fatalf("compacted mention no longer finds its entity: %+v", dyn.Lookup(alias, 10))
	}
	// The original service must not see the live rows.
	got := e.Lookup(alias, 10)
	if len(got) != len(before) {
		t.Fatal("AddMention leaked into the parent service")
	}
	for i := range got {
		if got[i] != before[i] {
			t.Fatalf("parent results diverge at %d after the adds: %+v vs %+v", i, got[i], before[i])
		}
	}
	if n := e.Index().Len(); n != parentLen {
		t.Fatalf("the parent's index grew from %d to %d rows", parentLen, n)
	}
}

// Live appends under concurrent lookups: run with -race. A writer adds
// mentions through at least 3 compactions while readers look up, and every
// answer must be one snapshot's: what a sequential replay of the same adds
// answers after L of them, for some L between the Len read before and
// after that lookup.
func TestDynamicServiceConcurrent(t *testing.T) {
	g, e := fixture(t)
	const threshold, adds, readers, k = 8, 40, 4, 10
	mention := func(i int) string { return fmt.Sprintf("novel mention %d", i) }
	entity := func(i int) kg.EntityID { return g.Entities[i*7%len(g.Entities)].ID }
	queries := []string{mention(3), mention(17), mention(38), g.Entities[1].Label, "novel mention"}
	// want[i][qi] answers queries[qi] after i adds.
	ref := e.WithDynamicIndex(threshold)
	defer ref.Close()
	want := make([][][]lookup.Candidate, adds+1)
	for i := range want {
		for _, q := range queries {
			want[i] = append(want[i], ref.Lookup(q, k))
		}
		if i < adds {
			if _, err := ref.AddMention(mention(i), entity(i)); err != nil {
				t.Fatal(err)
			}
		}
	}

	dyn := e.WithDynamicIndex(threshold)
	defer dyn.Close()
	base := e.Index().Len()
	var writing atomic.Bool
	writing.Store(true)
	var wg sync.WaitGroup
	errc := make(chan error, readers+1)
	wg.Add(1)
	go func() {
		defer wg.Done()
		defer writing.Store(false)
		for i := 0; i < adds; i++ {
			if _, err := dyn.AddMention(mention(i), entity(i)); err != nil {
				errc <- err
				return
			}
		}
	}()
	for w := 0; w < readers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 20 || writing.Load(); i++ {
				qi := (w + i) % len(queries)
				lo := dyn.Index().Len() - base
				got := dyn.Lookup(queries[qi], k)
				hi := dyn.Index().Len() - base
				if !slices.ContainsFunc(want[lo:hi+1], func(ans [][]lookup.Candidate) bool { return slices.Equal(ans[qi], got) }) {
					errc <- fmt.Errorf("lookup %q between %d and %d adds answered %+v: no snapshot's answer", queries[qi], lo, hi, got)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	close(errc)
	for err := range errc {
		t.Fatal(err)
	}
	if st := dyn.Dynamic().Stats(); st.Base < base+3*threshold {
		t.Fatalf("after %d adds at threshold %d: %+v, want 3 compactions or more", adds, threshold, st)
	}
}
