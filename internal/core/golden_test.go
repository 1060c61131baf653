package core

import (
	"bytes"
	"flag"
	"os"
	"path/filepath"
	"runtime"
	"testing"

	"emblookup/internal/artifact"
	"emblookup/internal/index"
	"emblookup/internal/kg"
)

// The golden corpus pins the artifact reader to real bytes: tiny models of
// every index kind, checked into testdata/ as v4 files, must keep attaching
// and answering bit for bit. golden_v0/v2/v3 came from a model trained on
// goldenGraph; the golden_v2_<kind> files re-index golden_v2's weights. The
// suffix names the older format each was first written in; all seven were
// re-saved as v4 once, by the last build that read those formats, which
// checked that every re-saved file answers as its source did.

// updateGolden rewrites the embedding and training goldens (the model
// corpus is re-saved byte for byte by TestGoldenCorpus and never changes):
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

// TestGoldenCorpus attaches every checked-in golden and asserts (a) it
// attaches by mmap, with the provenance, index kind and re-rank factor it
// was saved with, (b) saving the attached model reproduces the file byte
// for byte, and (c) a reload of that save answers bit for bit as the
// golden does.
func TestGoldenCorpus(t *testing.T) {
	g := goldenGraph()
	// The index kind each golden carries ("" for weights only, whose load
	// rebuilds the index) and its ivf-pq re-rank factor.
	cases := []struct {
		file   string
		kind   string
		rerank int
	}{
		{"golden_v0.bin", "", 0},
		{"golden_v2.bin", "pq", 0},
		{"golden_v3.bin", "fastscan", 0},
		{"golden_v2_flat.bin", "flat", 0},
		{"golden_v2_ivf_flat.bin", "ivf-flat", 0},
		{"golden_v2_ivf_pq.bin", "ivf-pq", 0},
		{"golden_v2_ivf_pq_rerank8.bin", "ivf-pq", 8},
	}
	for _, c := range cases {
		t.Run(c.file, func(t *testing.T) {
			path := filepath.Join("testdata", c.file)
			raw, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			withIndex, source := c.kind != "", "rebuilt"
			if withIndex {
				source = "loaded"
			}
			golden, err := LoadFile(path, g)
			if err != nil {
				t.Fatalf("loading %s: %v", c.file, err)
			}
			defer golden.Close()
			prov := golden.IndexProvenance()
			if prov.Source != source {
				t.Fatalf("provenance %q, want %q", prov.Source, source)
			}
			if runtime.GOOS == "linux" && prov.Backing != "mmap" {
				t.Fatalf("backing %q, want mmap", prov.Backing)
			}
			if (c.kind == "fastscan") != golden.Config().FastScan {
				t.Fatalf("FastScan config %v on a %q golden", golden.Config().FastScan, c.kind)
			}
			if withIndex {
				if mi := indexMeta(t, golden); mi.Kind != c.kind || mi.Rerank != c.rerank {
					t.Fatalf("attaches index %q ×%d, want %q ×%d", mi.Kind, mi.Rerank, c.kind, c.rerank)
				}
			}

			resaved := filepath.Join(t.TempDir(), "resaved.v4")
			if withIndex {
				err = golden.SaveFileWithIndex(resaved)
			} else {
				err = golden.SaveFile(resaved)
			}
			if err != nil {
				t.Fatalf("re-saving: %v", err)
			}
			if again, err := os.ReadFile(resaved); err != nil || !bytes.Equal(again, raw) {
				t.Fatalf("re-saving did not reproduce the golden's bytes (err %v)", err)
			}
			now, err := LoadFile(resaved, g)
			if err != nil {
				t.Fatalf("reloading the re-save: %v", err)
			}
			defer now.Close()
			if src := now.IndexProvenance().Source; src != source {
				t.Fatalf("reload provenance %q, want %q", src, source)
			}
			sameLookups(t, c.file+"→resaved", golden, now)
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
