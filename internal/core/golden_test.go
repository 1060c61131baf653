package core

import (
	"bytes"
	"encoding/gob"
	"flag"
	"os"
	"path/filepath"
	"testing"

	"emblookup/internal/artifact"
	"emblookup/internal/index"
	"emblookup/internal/kg"
)

// The golden corpus pins backward compatibility to real bytes: tiny models
// in every gob format older builds wrote (v0 weights-only, v2 with an index
// artifact of each non-fast-scan kind, v3 fast-scan) are checked into
// testdata/, and every build must keep loading them and re-serializing them
// to the current format (v4) with bit-identical search results. Nothing
// writes gob any more, so the corpus is frozen: these files are the only
// source of gob bytes. golden_v0/v2/v3 came from a model trained on
// goldenGraph; the golden_v2_<kind> files re-index golden_v2's weights.

// updateGolden rewrites the embedding and training goldens (the gob corpus
// has no writer and never changes):
//
//	go test ./internal/core/ -run 'TestEmbedGolden|TestTrainDeterministic' -update-golden
var updateGolden = flag.Bool("update-golden", false, "rewrite the embedding and training goldens in testdata/")

// goldenEntities pins the graph the goldens were trained on; their row
// mappings reference its entity numbering.
const goldenEntities = 80

func goldenGraph() *kg.Graph {
	g, _ := kg.Generate(kg.DefaultGeneratorConfig(kg.WikidataProfile, goldenEntities))
	return g
}

// TestGoldenCorpus loads every checked-in historic artifact and asserts (a)
// it still loads, with the provenance its format implies, and (b) rewriting
// it in the current format and reloading preserves every search result bit
// for bit.
func TestGoldenCorpus(t *testing.T) {
	g := goldenGraph()
	// The version each stream is stamped with, the index kind it carries
	// ("" for weights only, whose load rebuilds the index) and its ivf-pq
	// re-rank factor.
	cases := []struct {
		file   string
		gobVer int
		kind   string
		rerank int
	}{
		{"golden_v0.bin", 0, "", 0},
		{"golden_v2.bin", 2, "pq", 0},
		{"golden_v3.bin", 3, "fastscan", 0},
		{"golden_v2_flat.bin", 2, "flat", 0},
		{"golden_v2_ivf_flat.bin", 2, "ivf-flat", 0},
		{"golden_v2_ivf_pq.bin", 2, "ivf-pq", 0},
		{"golden_v2_ivf_pq_rerank8.bin", 2, "ivf-pq", 8},
	}
	for _, c := range cases {
		t.Run(c.file, func(t *testing.T) {
			path := filepath.Join("testdata", c.file)
			raw, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			var wire modelWire
			if err := gob.NewDecoder(bytes.NewReader(raw)).Decode(&wire); err != nil {
				t.Fatalf("golden is not a gob stream: %v", err)
			}
			if wire.Version != c.gobVer {
				t.Fatalf("golden stamped version %d, want %d", wire.Version, c.gobVer)
			}
			kind, rerank := "", 0
			if wire.Index != nil {
				kind, rerank = wire.Index.Kind, wire.Index.Rerank
			}
			if kind != c.kind || rerank != c.rerank {
				t.Fatalf("golden carries index %q ×%d, want %q ×%d", kind, rerank, c.kind, c.rerank)
			}
			withIndex, source := c.kind != "", "rebuilt"
			if withIndex {
				source = "loaded"
			}
			old, err := LoadFile(path, g)
			if err != nil {
				t.Fatalf("loading %s: %v", c.file, err)
			}
			if src := old.IndexProvenance().Source; src != source {
				t.Fatalf("provenance %q, want %q", src, source)
			}
			if (c.kind == "fastscan") != old.Config().FastScan {
				t.Fatalf("FastScan config %v on a %q golden", old.Config().FastScan, c.kind)
			}

			// Re-serialize to the current format and reload.
			v4Path := filepath.Join(t.TempDir(), "rewritten.v4")
			if withIndex {
				err = old.SaveFileWithIndex(v4Path)
			} else {
				err = old.SaveFile(v4Path)
			}
			if err != nil {
				t.Fatalf("rewriting to v4: %v", err)
			}
			now, err := LoadFile(v4Path, g)
			if err != nil {
				t.Fatalf("reloading v4 rewrite: %v", err)
			}
			defer now.Close()
			if src := now.IndexProvenance().Source; src != source {
				t.Fatalf("v4 rewrite provenance %q, want %q", src, source)
			}
			if withIndex {
				for tag, m := range map[string]*EmbLookup{"gob": old, "v4 rewrite": now} {
					if mi := indexMeta(t, m); mi.Kind != c.kind || mi.Rerank != c.rerank {
						t.Fatalf("%s attaches index %q ×%d, want %q ×%d", tag, mi.Kind, mi.Rerank, c.kind, c.rerank)
					}
				}
			}
			sameLookups(t, c.file+"→v4", old, now)
		})
	}
}

// indexMeta is the meta entry the codec writes for e's index: the kind and
// re-rank factor the model actually serves with.
func indexMeta(t *testing.T, e *EmbLookup) *index.Meta {
	t.Helper()
	mi, err := index.WriteSections(artifact.NewWriter(), e.Index())
	if err != nil {
		t.Fatal(err)
	}
	return mi
}
