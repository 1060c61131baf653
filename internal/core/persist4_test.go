package core

import (
	"bytes"
	"encoding/gob"
	"encoding/json"
	"os"
	"path/filepath"
	"runtime"
	"testing"

	"emblookup/internal/artifact"
	"emblookup/internal/index"
	"emblookup/internal/kg"
	"emblookup/internal/mathx"
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
		if mi := indexMeta(t, mmapped); mi.Rerank != v.rerank {
			t.Fatalf("%s: loaded rerank ×%d, want ×%d", v.name, mi.Rerank, v.rerank)
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

// goldenPair reads a golden gob artifact and returns its bytes and those of
// its v4 rewrite.
func goldenPair(tb testing.TB, file string, g *kg.Graph) (gobBytes, v4 []byte) {
	tb.Helper()
	gobBytes, err := os.ReadFile(filepath.Join("testdata", file))
	if err != nil {
		tb.Fatal(err)
	}
	e, err := decodeModel(gobBytes, g)
	if err != nil {
		tb.Fatal(err)
	}
	var buf bytes.Buffer
	if err := e.writeV4(&buf, true); err != nil {
		tb.Fatal(err)
	}
	return gobBytes, buf.Bytes()
}

// rewriteSections re-emits a v4 artifact with the payloads of the named
// sections replaced (a *mathx.Matrix replaces a float32 section's shape
// too) and every other section as it was. Checksums are
// recomputed, so only the reader's own shape checks stand between the edit
// and a loaded model.
func rewriteSections(t *testing.T, data []byte, repl map[string]any) []byte {
	t.Helper()
	af, err := artifact.Decode(data)
	if err != nil {
		t.Fatal(err)
	}
	aw := artifact.NewWriter()
	secs := af.Sections()
	for i := range secs {
		s := &secs[i]
		var v any
		switch s.Elem {
		case artifact.ElemU8:
			v = s.Bytes()
		case artifact.ElemF32:
			v = s.Float32s()
		case artifact.ElemI32:
			v = s.Int32s()
		case artifact.ElemI64:
			v = s.Int64s()
		case artifact.ElemJSON:
			v = json.RawMessage(s.Bytes())
		}
		if r, ok := repl[s.Name]; ok {
			v = r
		}
		switch v := v.(type) {
		case []byte:
			aw.AddBytes(s.Name, v)
		case []float32:
			aw.AddFloat32s(s.Name, v, s.Rows, s.Cols)
		case *mathx.Matrix:
			aw.AddFloat32s(s.Name, v.Data, v.Rows, v.Cols)
		case []int32:
			aw.AddInt32s(s.Name, v)
		case []int64:
			aw.AddInt64s(s.Name, v)
		case json.RawMessage:
			aw.AddJSON(s.Name, v)
		}
	}
	var buf bytes.Buffer
	if _, err := aw.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// withIndexRerank returns the meta section of v4 with the index's re-rank
// factor replaced.
func withIndexRerank(t testing.TB, v4 []byte, factor int) json.RawMessage {
	t.Helper()
	af, err := artifact.Decode(v4)
	if err != nil {
		t.Fatal(err)
	}
	var meta metaV4
	if err := af.Section("meta").JSON(&meta); err != nil {
		t.Fatal(err)
	}
	mi := *meta.Index
	mi.Rerank = factor
	meta.Index = &mi
	mj, err := json.Marshal(meta)
	if err != nil {
		t.Fatal(err)
	}
	return mj
}

// TestMalformedIndexRejected: an index artifact whose counts agree but
// whose contents would fail the first lookup that touches them is refused
// at attach, by the gob reader and — where the v4 container can carry the
// same defect — the v4 reader alike. Each case edits a golden's decoded gob
// struct; v4 derives the sections the edit replaces in the golden's v4
// rewrite (nil: the container cannot express the defect).
func TestMalformedIndexRejected(t *testing.T) {
	listSections := func(w *wireIndex) map[string]any {
		offsets := []int64{0}
		var ids []int32
		var codes []byte
		for i, l := range w.Lists {
			ids = append(ids, l...)
			offsets = append(offsets, int64(len(ids)))
			if w.ListCodes != nil {
				codes = append(codes, w.ListCodes[i]...)
			}
		}
		repl := map[string]any{"rows": rowsAsInt32(w.Rows), "list_offsets": offsets, "list_ids": ids}
		if codes != nil {
			repl["list_codes"] = codes
		}
		return repl
	}
	// The longest list loses its last id (and that id's codes), the row map
	// loses its last entry, and the list's first id becomes the new row
	// count: every count agrees, one id names no row.
	listIDPastRows := func(w *wireIndex) {
		longest := 0
		for i, l := range w.Lists {
			if len(l) > len(w.Lists[longest]) {
				longest = i
			}
		}
		l := w.Lists[longest]
		w.Lists[longest] = l[:len(l)-1]
		if w.ListCodes != nil {
			c := w.ListCodes[longest]
			w.ListCodes[longest] = c[:len(c)-w.Quant.M]
		}
		w.Rows = w.Rows[:len(w.Rows)-1]
		w.Lists[longest][0] = int32(len(w.Rows))
	}
	g := goldenGraph()
	_, rerank8 := goldenPair(t, "golden_v2_ivf_pq_rerank8.bin", g)
	hugeRerank, pastCap := withIndexRerank(t, rerank8, 1<<62), withIndexRerank(t, rerank8, index.MaxRerank+1)
	cases := []struct {
		name, file string
		edit       func(w *wireIndex)
		v4         func(w *wireIndex) map[string]any
	}{
		{"ivf-flat list id past the row map", "golden_v2_ivf_flat.bin", listIDPastRows, listSections},
		{"ivf-pq list id past the row map", "golden_v2_ivf_pq.bin", listIDPastRows, listSections},
		{"flat vectors narrower than the model", "golden_v2_flat.bin", func(w *wireIndex) {
			w.Flat.Cols /= 2
			w.Flat.Data = w.Flat.Data[:w.Flat.Rows*w.Flat.Cols]
		}, func(w *wireIndex) map[string]any { return map[string]any{"flat": fromWire(w.Flat)} }},
		{"flat data short of its shape", "golden_v2_flat.bin", func(w *wireIndex) {
			w.Flat.Data = w.Flat.Data[:len(w.Flat.Data)-1]
		}, nil},
		// k × 2^62 wraps negative: the over-fetch heap would take no
		// candidate and the first lookup would index it empty.
		{"ivf-pq re-rank factor 2^62", "golden_v2_ivf_pq_rerank8.bin", func(w *wireIndex) {
			w.Rerank = 1 << 62
		}, func(*wireIndex) map[string]any { return map[string]any{"meta": hugeRerank} }},
		{"ivf-pq re-rank factor past the cap", "golden_v2_ivf_pq_rerank8.bin", func(w *wireIndex) {
			w.Rerank = index.MaxRerank + 1
		}, func(*wireIndex) map[string]any { return map[string]any{"meta": pastCap} }},
	}
	for _, c := range cases {
		gobBytes, v4 := goldenPair(t, c.file, g)
		var wire modelWire
		if err := gob.NewDecoder(bytes.NewReader(gobBytes)).Decode(&wire); err != nil {
			t.Fatal(err)
		}
		c.edit(wire.Index)
		var badGob bytes.Buffer
		if err := gob.NewEncoder(&badGob).Encode(&wire); err != nil {
			t.Fatal(err)
		}
		bad := map[string][]byte{"gob": badGob.Bytes()}
		if c.v4 != nil {
			bad["v4"] = rewriteSections(t, v4, c.v4(wire.Index))
		}
		for format, data := range bad {
			if _, err := decodeModel(data, g); err == nil {
				t.Errorf("%s (%s): accepted", c.name, format)
			}
		}
	}
}

// TestHostileConfigRejected: an artifact whose config alone is edited — the
// gob stream's Cfg, or the v4 meta section with every checksum recomputed —
// is refused at attach, before anything sized by the edited field is
// allocated: negative or zero layer widths and counts (a makeslice panic
// once), sizes no stored weight matches (2^28 hidden units was a 77 GB
// allocation), a mention length or kernel width past maxMaxLen, which no
// stored weight vouches for, and on a model that re-ranks a re-rank factor
// past index.MaxRerank.
func TestHostileConfigRejected(t *testing.T) {
	cases := []struct {
		name string
		edit func(c *Config)
		file string // "" is golden_v2.bin
	}{
		{"negative hidden width", func(c *Config) { c.Hidden = -1 }, ""},
		{"negative channel count", func(c *Config) { c.CNNChannels = -1 }, ""},
		{"negative layer count", func(c *Config) { c.CNNLayers = -1 }, ""},
		{"zero hidden width", func(c *Config) { c.Hidden = 0 }, ""},
		{"zero channel count", func(c *Config) { c.CNNChannels = 0 }, ""},
		{"zero layer count", func(c *Config) { c.CNNLayers = 0 }, ""},
		{"negative kernel width", func(c *Config) { c.Kernel = -1 }, ""},
		{"hidden width 2^28", func(c *Config) { c.Hidden = 1 << 28 }, ""},
		{"channel count 2^28", func(c *Config) { c.CNNChannels = 1 << 28 }, ""},
		{"layer count 2^40", func(c *Config) { c.CNNLayers = 1 << 40 }, ""},
		{"kernel width 2^40+1", func(c *Config) { c.Kernel = 1<<40 + 1 }, ""},
		{"mention length 2^40", func(c *Config) { c.MaxLen = 1 << 40 }, ""},
		{"dimension doubled", func(c *Config) { c.Dim *= 2 }, ""},
		{"one more layer", func(c *Config) { c.CNNLayers++ }, ""},
		{"kernel width 5", func(c *Config) { c.Kernel = 5 }, ""},
		// On a model that re-ranks: k × 2^62 wraps negative.
		{"re-rank factor 2^62", func(c *Config) { c.Rerank = 1 << 62 }, "golden_v2_ivf_pq_rerank8.bin"},
	}
	g := goldenGraph()
	for _, c := range cases {
		if c.file == "" {
			c.file = "golden_v2.bin"
		}
		gobBytes, v4 := goldenPair(t, c.file, g)
		af, err := artifact.Decode(v4)
		if err != nil {
			t.Fatal(err)
		}
		var meta metaV4
		if err := af.Section("meta").JSON(&meta); err != nil {
			t.Fatal(err)
		}
		var wire modelWire
		if err := gob.NewDecoder(bytes.NewReader(gobBytes)).Decode(&wire); err != nil {
			t.Fatal(err)
		}
		c.edit(&wire.Cfg)
		var badGob bytes.Buffer
		if err := gob.NewEncoder(&badGob).Encode(&wire); err != nil {
			t.Fatal(err)
		}
		m := meta
		c.edit(&m.Cfg)
		mj, err := json.Marshal(m)
		if err != nil {
			t.Fatal(err)
		}
		bad := map[string][]byte{"gob": badGob.Bytes(), "v4": rewriteSections(t, v4, map[string]any{"meta": json.RawMessage(mj)})}
		for format, data := range bad {
			func() {
				defer func() {
					if r := recover(); r != nil {
						t.Errorf("%s (%s): panicked: %v", c.name, format, r)
					}
				}()
				if _, err := decodeModel(data, g); err == nil {
					t.Errorf("%s (%s): accepted", c.name, format)
				}
			}()
		}
	}
}

// FuzzReadArtifactMeta mutates only the meta section of the golden v4 files
// and re-emits them with valid checksums, so every input reaches the
// reader's own checks instead of stopping at a CRC: the config, the alphabet,
// the subword table's shape and the index description are all untrusted. A
// read must return an error or a model that serves a lookup; it must never
// panic or allocate by an unchecked size.
func FuzzReadArtifactMeta(f *testing.F) {
	g := goldenGraph()
	files := []string{"golden_v2.bin", "golden_v3.bin", "golden_v2_flat.bin", "golden_v2_ivf_flat.bin", "golden_v2_ivf_pq.bin", "golden_v2_ivf_pq_rerank8.bin"}
	v4s := make([][]byte, len(files))
	for i, file := range files {
		_, v4s[i] = goldenPair(f, file, g)
		af, err := artifact.Decode(v4s[i])
		if err != nil {
			f.Fatal(err)
		}
		f.Add(uint8(i), af.Section("meta").Bytes())
		if file == "golden_v2_ivf_pq_rerank8.bin" {
			f.Add(uint8(i), []byte(withIndexRerank(f, v4s[i], 1<<62)))
		}
	}
	f.Fuzz(func(t *testing.T, which uint8, meta []byte) {
		if !json.Valid(meta) {
			return // the meta parse refuses it; FuzzReadArtifact covers that
		}
		data := rewriteSections(t, v4s[int(which)%len(v4s)], map[string]any{"meta": json.RawMessage(meta)})
		m, err := decodeModel(data, g)
		if err != nil {
			return
		}
		_ = m.Lookup(g.Entities[0].Label, 3)
	})
}

// FuzzReadArtifact hammers the whole model-read dispatch — v4 magic
// sniffing, the v4 section parser and attach path, and the gob fallback —
// with arbitrary bytes, seeded from every golden gob file that carries an
// index (PQ, fast-scan, IVF-Flat, IVF-PQ with and without re-rank) and its
// v4 rewrite. A read must return an error or a valid model, never panic,
// and never allocate proportionally to corrupt header fields.
func FuzzReadArtifact(f *testing.F) {
	g := goldenGraph()
	gobBytes, v4 := goldenPair(f, "golden_v2.bin", g)
	f.Add(v4)
	f.Add(v4[:200])
	f.Add(gobBytes)
	f.Add(gobBytes[:50])
	f.Add([]byte(artifact.Magic))
	f.Add([]byte{})
	for _, file := range []string{"golden_v2_ivf_flat.bin", "golden_v2_ivf_pq.bin", "golden_v2_ivf_pq_rerank8.bin", "golden_v3.bin"} {
		gobBytes, v4 := goldenPair(f, file, g)
		f.Add(gobBytes)
		f.Add(v4)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		m, err := decodeModel(data, g)
		if err != nil {
			return
		}
		// A model that parses must serve a lookup without panicking.
		_ = m.Lookup(g.Entities[0].Label, 3)
	})
}
