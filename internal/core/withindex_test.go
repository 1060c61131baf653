package core

import (
	"fmt"
	"path/filepath"
	"testing"

	"emblookup/internal/index"
)

// TestWithIndexRoundTrip: from a fast-scan model and from an IVF-PQ ×8
// re-rank model, every legal index kind built through WithIndex saves an
// artifact that LoadFile attaches and that answers bit-identically to the
// in-memory sibling. Each spec is the parent's with only the kind switched
// (quantizer and probe settings carried over), the way a caller derives a
// sibling. Switching the kind while keeping the parent's re-rank factor is
// an illegal pairing, and WithIndex refuses it instead of building a model
// whose own artifact would not load: a flat sibling of a fast-scan model
// once kept FastScan without Compress, and one of a re-rank model kept
// Rerank without IVF-PQ, and LoadFile refused both.
func TestWithIndexRoundTrip(t *testing.T) {
	type kind struct {
		name   string
		rerank int
	}
	kinds := []kind{{"flat", 0}, {"pq", 0}, {"fastscan", 0}, {"ivf-flat", 0}, {"ivf-pq", 0}, {"ivf-pq", 8}}
	spec := func(t *testing.T, from index.Spec, k kind) index.Spec {
		t.Helper()
		s, err := from.WithKind(k.name)
		if err != nil {
			t.Fatal(err)
		}
		s.Rerank = k.rerank
		return s
	}
	g, e := fixture(t)
	base := e.Config().Spec
	base.IVFNProbe = 64 // exhaustive at this size
	for _, from := range []kind{{"fastscan", 0}, {"ivf-pq", 8}} {
		parent, err := e.WithIndex(spec(t, base, from))
		if err != nil {
			t.Fatal(err)
		}
		for _, to := range kinds {
			tag := fmt.Sprintf("%s×%d→%s×%d", from.name, from.rerank, to.name, to.rerank)
			s := spec(t, parent.Config().Spec, to)
			if from.rerank > 1 && to.name != "ivf-pq" {
				kept := s
				kept.Rerank = from.rerank
				if _, err := parent.WithIndex(kept); err == nil {
					t.Fatalf("%s: re-rank ×%d kept on a %s index accepted", tag, from.rerank, to.name)
				}
			}
			sib, err := parent.WithIndex(s)
			if err != nil {
				t.Fatalf("%s: %v", tag, err)
			}
			if sib.Config().Spec != s {
				t.Fatalf("%s: sibling spec %+v, want %+v", tag, sib.Config().Spec, s)
			}
			path := filepath.Join(t.TempDir(), "model.v4")
			if err := sib.SaveFileWithIndex(path); err != nil {
				t.Fatalf("%s: save: %v", tag, err)
			}
			loaded, err := LoadFile(path, g)
			if err != nil {
				t.Fatalf("%s: load: %v", tag, err)
			}
			if src := loaded.IndexProvenance().Source; src != "loaded" {
				t.Fatalf("%s: provenance %q, want loaded", tag, src)
			}
			if mi := indexMeta(t, loaded); mi.Kind != to.name || mi.Rerank != to.rerank {
				t.Fatalf("%s: loaded a %s ×%d index", tag, mi.Kind, mi.Rerank)
			}
			sameLookups(t, tag, sib, loaded)
			if err := loaded.Close(); err != nil {
				t.Fatal(err)
			}
		}
	}
}
