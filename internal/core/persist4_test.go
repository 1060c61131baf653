package core

import (
	"bytes"
	"os"
	"runtime"
	"testing"

	"emblookup/internal/artifact"
	"emblookup/internal/index"
	"emblookup/internal/kg"
)

// v4Variants drives every index kind through the zero-copy artifact tests.
// The fixture model is re-indexed in place per variant (cheap: no
// retraining), mirroring TestIndexArtifactRoundTrip.
var v4Variants = []struct {
	name                    string
	ivf, compress, fastscan bool
	rerank                  int
}{
	{"flat", false, false, false, 0},
	{"pq", false, true, false, 0},
	{"fastscan", false, true, true, 0},
	{"ivf-flat", true, false, false, 0},
	{"ivf-pq", true, true, false, 0},
	{"ivf-pq-rerank", true, true, false, 8},
}

// decodeModel is LoadFile's dispatch over bytes held in memory: a v4
// artifact decoded onto the heap, every payload checksum verified, or else
// a gob stream.
func decodeModel(data []byte, g *kg.Graph) (*EmbLookup, error) {
	if !artifact.Sniff(data) {
		return readGob(bytes.NewReader(data), g)
	}
	af, err := artifact.Decode(data)
	if err != nil {
		return nil, err
	}
	return readV4(af, g)
}

func sameLookups(t *testing.T, tag string, want, got *EmbLookup) {
	t.Helper()
	g := want.Graph()
	for i := 0; i < 25; i++ {
		q := g.Entities[(i*7)%len(g.Entities)].Label
		w, r := want.Lookup(q, 10), got.Lookup(q, 10)
		if len(w) != len(r) {
			t.Fatalf("%s: Lookup(%q): %d candidates, want %d", tag, q, len(r), len(w))
		}
		for j := range w {
			if w[j] != r[j] {
				t.Fatalf("%s: Lookup(%q) diverges at %d: %+v vs %+v", tag, q, j, r[j], w[j])
			}
		}
	}
}

// TestV4MmapAttachBitIdentity is the acceptance gate of the v4 format: for
// every index kind, a model attached zero-copy from an mmap'd artifact and
// one decoded from the same bytes on the heap both answer bit-identically
// to the in-process model that wrote them. (The gob reader of every kind is
// held to the same answers by TestGoldenCorpus.)
func TestV4MmapAttachBitIdentity(t *testing.T) {
	g, fixtureM := fixture(t)
	base := *fixtureM // shallow copy so re-indexing never mutates the shared fixture
	base.cfg.IVFNProbe = 64
	for _, v := range v4Variants {
		base.cfg.IVF, base.cfg.Compress, base.cfg.FastScan = v.ivf, v.compress, v.fastscan
		base.cfg.Rerank = v.rerank
		if err := base.buildIndex(); err != nil {
			t.Fatalf("%s: rebuild: %v", v.name, err)
		}
		path := t.TempDir() + "/model.v4"
		if err := base.SaveFileWithIndex(path); err != nil {
			t.Fatalf("%s: save: %v", v.name, err)
		}
		raw, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		if !artifact.Sniff(raw) {
			t.Fatalf("%s: SaveFileWithIndex did not write a v4 artifact", v.name)
		}

		mmapped, err := LoadFile(path, g)
		if err != nil {
			t.Fatalf("%s: mmap attach: %v", v.name, err)
		}
		prov := mmapped.IndexProvenance()
		if prov.Source != "loaded" {
			t.Fatalf("%s: provenance %q, want loaded", v.name, prov.Source)
		}
		if v.rerank > 1 {
			ivfIx, ok := mmapped.Index().(*index.IVF)
			if !ok {
				t.Fatalf("%s: loaded index is %T, want *index.IVF", v.name, mmapped.Index())
			}
			if f, vecs := ivfIx.Rerank(); f != v.rerank || vecs == nil {
				t.Fatalf("%s: loaded rerank = (%d, %v), want (%d, non-nil)", v.name, f, vecs, v.rerank)
			}
		}
		if runtime.GOOS == "linux" && prov.Backing != "mmap" {
			t.Fatalf("%s: backing %q, want mmap", v.name, prov.Backing)
		}

		heap, err := decodeModel(raw, g)
		if err != nil {
			t.Fatalf("%s: heap read: %v", v.name, err)
		}
		if b := heap.IndexProvenance().Backing; b != "heap" {
			t.Fatalf("%s: heap read backing %q, want heap", v.name, b)
		}

		sameLookups(t, v.name+"/mmap", &base, mmapped)
		sameLookups(t, v.name+"/heap", &base, heap)

		if err := mmapped.Close(); err != nil {
			t.Fatalf("%s: close: %v", v.name, err)
		}
		if err := mmapped.Close(); err != nil {
			t.Fatalf("%s: double close: %v", v.name, err)
		}
		if err := heap.Close(); err != nil {
			t.Fatalf("%s: heap close: %v", v.name, err)
		}
	}
}

// TestV4WeightsOnly exercises the rebuild path of a v4 file: no index
// sections, index rebuilt over the graph, backing still recorded.
func TestV4WeightsOnly(t *testing.T) {
	g, e := fixture(t)
	path := t.TempDir() + "/weights.v4"
	if err := e.SaveFile(path); err != nil {
		t.Fatal(err)
	}
	loaded, err := LoadFile(path, g)
	if err != nil {
		t.Fatal(err)
	}
	defer loaded.Close()
	prov := loaded.IndexProvenance()
	if prov.Source != "rebuilt" {
		t.Fatalf("provenance %q, want rebuilt", prov.Source)
	}
	if runtime.GOOS == "linux" && prov.Backing != "mmap" {
		t.Fatalf("backing %q, want mmap", prov.Backing)
	}
	sameLookups(t, "weights-only", e, loaded)
}

// TestV4DeterministicBytes: two writes of the same model are byte-identical
// (the artifact is layout-stable; nothing map-ordered leaks into the file).
func TestV4DeterministicBytes(t *testing.T) {
	_, e := fixture(t)
	var a, b bytes.Buffer
	if err := e.writeV4(&a, true); err != nil {
		t.Fatal(err)
	}
	if err := e.writeV4(&b, true); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a.Bytes(), b.Bytes()) {
		t.Fatal("two writes of the same model produced different bytes")
	}
}

// TestV4CorruptionRejected: a table flip fails the load on both paths
// (LoadFile→mmap verifies the table, and a table flip breaks its
// checksum), and a payload flip fails the heap decode, which verifies
// payload checksums.
func TestV4CorruptionRejected(t *testing.T) {
	g, e := fixture(t)
	var buf bytes.Buffer
	if err := e.writeV4(&buf, true); err != nil {
		t.Fatal(err)
	}
	raw := buf.Bytes()
	// Flip one byte in the section table (offset area of section 0).
	mut := bytes.Clone(raw)
	mut[64+17] ^= 0xff
	if _, err := decodeModel(mut, g); err == nil {
		t.Fatal("corrupted section table accepted by the heap decode")
	}
	path := t.TempDir() + "/corrupt.v4"
	if err := os.WriteFile(path, mut, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := LoadFile(path, g); err == nil {
		t.Fatal("corrupted section table accepted by LoadFile")
	}
	// Flip one byte in the last payload: the heap decode must catch it.
	mut = bytes.Clone(raw)
	mut[len(mut)-1] ^= 0xff
	if _, err := decodeModel(mut, g); err == nil {
		t.Fatal("corrupted payload accepted by the heap decode")
	}
}

// FuzzReadArtifact hammers the whole model-read dispatch — v4 magic
// sniffing, the v4 section parser and attach path, and the gob fallback —
// with arbitrary bytes, seeded from the golden PQ gob file and its v4
// rewrite. A read must return an error or a valid model, never panic, and
// never allocate proportionally to corrupt header fields.
func FuzzReadArtifact(f *testing.F) {
	g := goldenGraph()
	gobBytes, err := os.ReadFile("testdata/golden_v2.bin")
	if err != nil {
		f.Fatal(err)
	}
	e, err := decodeModel(gobBytes, g)
	if err != nil {
		f.Fatal(err)
	}
	path := f.TempDir() + "/golden_v2.v4"
	if err := e.SaveFileWithIndex(path); err != nil {
		f.Fatal(err)
	}
	v4, err := os.ReadFile(path)
	if err != nil {
		f.Fatal(err)
	}
	f.Add(v4)
	f.Add(v4[:200])
	f.Add(gobBytes)
	f.Add(gobBytes[:50])
	f.Add([]byte(artifact.Magic))
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, data []byte) {
		m, err := decodeModel(data, g)
		if err != nil {
			return
		}
		// A model that parses must serve a lookup without panicking.
		_ = m.Lookup(g.Entities[0].Label, 3)
	})
}
