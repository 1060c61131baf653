package core

import (
	"path/filepath"
	"reflect"
	"runtime"
	"sync"
	"testing"

	"emblookup/internal/index"
	"emblookup/internal/lookup"
	"emblookup/internal/procmaps"
)

// siblings are the six ways to derive a model from another. Each derived
// model holds its own reference to an attached artifact.
var siblings = []struct {
	name   string
	derive func(*EmbLookup) (*EmbLookup, error)
}{
	{"WithIndex", func(e *EmbLookup) (*EmbLookup, error) { return e.WithIndex(index.Spec{}) }},
	{"WithAliasRows", func(e *EmbLookup) (*EmbLookup, error) { return e.WithAliasRows() }},
	{"WithGraph", func(e *EmbLookup) (*EmbLookup, error) { return e.WithGraph(e.Graph().Clone()), nil }},
	{"WithShardedIndex", func(e *EmbLookup) (*EmbLookup, error) { return e.WithShardedIndex(2, 0) }},
	{"WithPartition", func(e *EmbLookup) (*EmbLookup, error) { return e.WithPartition(0, e.Index().Len()/2) }},
	{"WithDynamicIndex", func(e *EmbLookup) (*EmbLookup, error) { return e.WithDynamicIndex(0), nil }},
}

// attachedFixture saves the shared fixture as a v4 artifact with its index
// and attaches it (by mmap on linux), returning the path and the model.
func attachedFixture(t *testing.T) (string, *EmbLookup) {
	t.Helper()
	g, e := fixture(t)
	path := filepath.Join(t.TempDir(), "model.bin")
	if err := e.SaveFileWithIndex(path); err != nil {
		t.Fatal(err)
	}
	m, err := LoadFile(path, g)
	if err != nil {
		t.Fatal(err)
	}
	if runtime.GOOS == "linux" && m.IndexProvenance().Backing != "mmap" {
		t.Fatalf("backing %q, want mmap", m.IndexProvenance().Backing)
	}
	return path, m
}

// answers looks up a fixed query set on e.
func answers(e *EmbLookup) [][]lookup.Candidate {
	g := e.Graph()
	var out [][]lookup.Candidate
	for i := 0; i < 20; i++ {
		out = append(out, e.Lookup(g.Entities[(i*7)%len(g.Entities)].Label, 10))
	}
	return out
}

// TestSiblingCloseOrder closes one of a parent and its sibling, twice, and
// looks up on the other: the survivor must answer as before, and only its
// own Close may unmap the artifact.
func TestSiblingCloseOrder(t *testing.T) {
	for _, s := range siblings {
		for _, order := range []string{"sibling_first", "parent_first"} {
			t.Run(s.name+"/"+order, func(t *testing.T) {
				path, parent := attachedFixture(t)
				sib, err := s.derive(parent)
				if err != nil {
					t.Fatal(err)
				}
				first, survivor := sib, parent
				if order == "parent_first" {
					first, survivor = parent, sib
				}
				want := answers(survivor)
				for i := 0; i < 2; i++ { // a second Close must not take the survivor's reference
					if err := first.Close(); err != nil {
						t.Fatal(err)
					}
				}
				if got := answers(survivor); !reflect.DeepEqual(got, want) {
					t.Fatal("survivor's answers changed after the other model closed")
				}
				if len(procmaps.Under(t, path)) == 0 {
					t.Fatal("artifact unmapped while the survivor holds it")
				}
				if err := survivor.Close(); err != nil {
					t.Fatal(err)
				}
				if m := procmaps.Under(t, path); len(m) != 0 {
					t.Fatalf("artifact still mapped after every holder closed: %v", m)
				}
			})
		}
	}
}

// TestSiblingConcurrentClose closes a parent and its siblings at once from
// many goroutines while one more sibling keeps serving: the count must drop
// to exactly that sibling's reference, and its Close must unmap.
func TestSiblingConcurrentClose(t *testing.T) {
	path, parent := attachedFixture(t)
	holders := []*EmbLookup{parent}
	for _, s := range siblings {
		sib, err := s.derive(parent)
		if err != nil {
			t.Fatal(err)
		}
		holders = append(holders, sib)
	}
	keep := parent.WithGraph(parent.Graph())
	want := answers(keep)
	q := parent.Graph().Entities[0].Label
	errs := make([]error, len(holders))
	start := make(chan struct{})
	var wg sync.WaitGroup
	for i, h := range holders {
		wg.Add(1)
		go func(i int, h *EmbLookup) {
			defer wg.Done()
			<-start
			h.Lookup(q, 10)
			errs[i] = h.Close()
			h.Close()
		}(i, h)
	}
	close(start)
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("holder %d: Close: %v", i, err)
		}
	}
	if got := answers(keep); !reflect.DeepEqual(got, want) {
		t.Fatal("the kept sibling's answers changed after the others closed")
	}
	if len(procmaps.Under(t, path)) == 0 {
		t.Fatal("artifact unmapped while a sibling holds it")
	}
	if err := keep.Close(); err != nil {
		t.Fatal(err)
	}
	if m := procmaps.Under(t, path); len(m) != 0 {
		t.Fatalf("artifact still mapped after every holder closed: %v", m)
	}
}
