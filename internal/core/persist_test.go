package core

import (
	"fmt"
	"sync"
	"testing"

	"emblookup/internal/kg"
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
// the next row of the append-only index, and the parent service never sees
// the row.
func TestDynamicServiceAdd(t *testing.T) {
	g, e := fixture(t)
	// Huge threshold: compaction would append rows into the fixture's
	// shared base index.
	dyn := e.WithDynamicIndex(1 << 30)
	defer dyn.Close()
	const alias = "zyqqat flombrix unit"
	target := g.Entities[5].ID
	before := dyn.Lookup(alias, 10)

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
	if want := int32(e.Index().Len()); row != want {
		t.Fatalf("added row %d, want the next row %d", row, want)
	}
	if dyn.RowEntity(row) != target {
		t.Fatalf("row %d maps to entity %d, want %d", row, dyn.RowEntity(row), target)
	}
	res := dyn.Lookup(alias, 1)
	if len(res) != 1 || res[0].ID != target {
		t.Fatalf("added mention does not resolve to its entity: %+v", res)
	}
	// The original service must not see the live row.
	got := e.Lookup(alias, 10)
	if len(got) != len(before) {
		t.Fatal("AddMention leaked into the parent service")
	}
	for i := range got {
		if got[i] != before[i] {
			t.Fatalf("parent results diverge at %d after the add: %+v vs %+v", i, got[i], before[i])
		}
	}
}

// Live appends under concurrent lookups: run with -race. Readers must keep
// getting well-formed candidates while a writer inserts rows (the
// row→entity extension and the index delta grow underneath them).
func TestDynamicServiceConcurrent(t *testing.T) {
	g, e := fixture(t)
	dyn := e.WithDynamicIndex(1 << 30)
	defer dyn.Close()
	var wg sync.WaitGroup
	errc := make(chan error, 5)

	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < 60; i++ {
			if _, err := dyn.AddMention(fmt.Sprintf("novel mention %d", i), g.Entities[i%len(g.Entities)].ID); err != nil {
				errc <- err
				return
			}
		}
	}()
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 40; i++ {
				q := g.Entities[(w*13+i)%len(g.Entities)].Label
				for _, c := range dyn.Lookup(q, 10) {
					if int(c.ID) < 0 || int(c.ID) >= len(g.Entities) {
						errc <- fmt.Errorf("lookup returned out-of-graph entity %d", c.ID)
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
