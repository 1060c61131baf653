package core

import (
	"bytes"
	"encoding/gob"
	"encoding/json"
	"errors"
	"os"
	"path/filepath"
	"runtime"
	"slices"
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

// decodeModel is LoadFile over bytes held in memory: the artifact decoded
// onto the heap, every payload checksum verified.
func decodeModel(data []byte, g *kg.Graph) (*EmbLookup, error) {
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
// to the in-process model that wrote them. (TestGoldenCorpus holds the
// checked-in file of every kind to its own answers.)
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

// goldenFile returns the bytes of a checked-in golden model.
func goldenFile(tb testing.TB, file string) []byte {
	tb.Helper()
	data, err := os.ReadFile(filepath.Join("testdata", file))
	if err != nil {
		tb.Fatal(err)
	}
	return data
}

// notV4 is what a model file that predates the v4 container looks like — a
// gob stream, as builds before it wrote — and two more files without the
// magic.
func notV4(tb testing.TB) map[string][]byte {
	tb.Helper()
	var stream bytes.Buffer
	if err := gob.NewEncoder(&stream).Encode(struct {
		Version int
		Cfg     Config
	}{3, testConfig()}); err != nil {
		tb.Fatal(err)
	}
	return map[string][]byte{"gob stream": stream.Bytes(), "empty": {}, "8 random bytes": {0x9c, 0x41, 0x07, 0xee, 0x5a, 0x13, 0xd2, 0x68}}
}

// TestLoadFileRefusesNonV4: LoadFile attaches the v4 container and nothing
// else, and says so with artifact.ErrNotV4.
func TestLoadFileRefusesNonV4(t *testing.T) {
	g, _ := fixture(t)
	for name, data := range notV4(t) {
		path := filepath.Join(t.TempDir(), "model.bin")
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		if e, err := LoadFile(path, g); !errors.Is(err, artifact.ErrNotV4) {
			t.Errorf("%s: LoadFile = %v, %v; want artifact.ErrNotV4", name, e, err)
		}
		if _, err := decodeModel(data, g); !errors.Is(err, artifact.ErrNotV4) {
			t.Errorf("%s: heap decode error %v, want artifact.ErrNotV4", name, err)
		}
	}
}

// rewriteSections re-emits a v4 artifact with the payloads of the named
// sections replaced (a *mathx.Matrix replaces a float32 section's shape
// too) and every other section as it was; a named section the artifact
// lacks is added at the end, in name order. Checksums are
// recomputed, so only the reader's own shape checks stand between the edit
// and a loaded model.
func rewriteSections(t testing.TB, data []byte, repl map[string]any) []byte {
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
		addSection(aw, s.Name, v, s.Rows, s.Cols)
	}
	var added []string
	for name := range repl {
		if af.Section(name) == nil {
			added = append(added, name)
		}
	}
	slices.Sort(added)
	for _, name := range added {
		addSection(aw, name, repl[name], 0, 0)
	}
	var buf bytes.Buffer
	if _, err := aw.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// addSection writes one section of rewriteSections by its payload's type.
func addSection(aw *artifact.Writer, name string, v any, rows, cols int) {
	switch v := v.(type) {
	case []byte:
		aw.AddBytes(name, v)
	case []float32:
		aw.AddFloat32s(name, v, rows, cols)
	case *mathx.Matrix:
		aw.AddFloat32s(name, v.Data, v.Rows, v.Cols)
	case []int32:
		aw.AddInt32s(name, v)
	case []int64:
		aw.AddInt64s(name, v)
	case json.RawMessage:
		aw.AddJSON(name, v)
	}
}

// fastScanLayouts are golden_v3 (the fast-scan golden, 80 rows in id order)
// with cluster-layout sections added: "two clusters", a valid layout (the
// rows reversed, split in two, the blocks under fs_blocks), and layouts
// attach must refuse — ids that repeat one and miss another, an id past the
// rows, bounds that stop short and bounds that fall, ids without bounds,
// and a layout whose blocks are still under the id-order name.
func fastScanLayouts(tb testing.TB) map[string][]byte {
	tb.Helper()
	v3 := goldenFile(tb, "golden_v3.bin")
	af, err := artifact.Decode(v3)
	if err != nil {
		tb.Fatal(err)
	}
	blocks := af.Section("blocks").Bytes()
	const n = 80
	ids := make([]int32, n)
	for i := range ids {
		ids[i] = int32(n - 1 - i)
	}
	dup, past := slices.Clone(ids), slices.Clone(ids)
	dup[1], past[5] = dup[0], n
	layouts := map[string][]byte{}
	for name, l := range map[string]struct {
		ids    []int32
		bounds []int64
	}{
		"two clusters":       {ids, []int64{0, 40, n}},
		"not a permutation":  {dup, []int64{0, 40, n}},
		"id past the rows":   {past, []int64{0, 40, n}},
		"bounds stop short":  {ids, []int64{0, 40, n - 1}},
		"bounds fall":        {ids, []int64{0, 50, 40, n}},
		"ids without bounds": {ids, nil},
		"blocks in id order": {ids, []int64{0, 40, n}},
	} {
		repl := map[string]any{"fs_ids": l.ids}
		if l.bounds != nil {
			repl["fs_bounds"] = l.bounds
		}
		if name != "blocks in id order" {
			repl["fs_blocks"] = blocks
		}
		layouts[name] = rewriteSections(tb, v3, repl)
	}
	return layouts
}

// TestFastScanLayoutAttach: a fast-scan artifact with a valid cluster
// layout attaches and answers; one whose ids are not a permutation of its
// rows, or whose bounds do not span them in order, fails closed at attach.
func TestFastScanLayoutAttach(t *testing.T) {
	g := goldenGraph()
	for name, data := range fastScanLayouts(t) {
		m, err := decodeModel(data, g)
		if name == "two clusters" {
			if err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			if got := m.Lookup(g.Entities[0].Label, 3); len(got) != 3 {
				t.Fatalf("%s: %d answers", name, len(got))
			}
			continue
		}
		if err == nil {
			t.Fatalf("%s: attached", name)
		}
	}
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
// at attach. Each case derives the sections it replaces from a golden's
// own; checksums are recomputed, so only the reader's checks stand between
// the edit and a loaded model.
func TestMalformedIndexRejected(t *testing.T) {
	// The longest list loses its last id (and that id's codes), the row map
	// loses its last entry, and the list's first id becomes the new row
	// count: every count agrees, one id names no row.
	listIDPastRows := func(af *artifact.File) map[string]any {
		offsets := slices.Clone(af.Section("list_offsets").Int64s())
		ids := af.Section("list_ids").Int32s()
		rows := af.Section("rows").Int32s()
		longest := 0
		for i := range len(offsets) - 1 {
			if offsets[i+1]-offsets[i] > offsets[longest+1]-offsets[longest] {
				longest = i
			}
		}
		lo, hi := offsets[longest], offsets[longest+1]
		cut := slices.Concat(ids[:hi-1], ids[hi:])
		cut[lo] = int32(len(rows) - 1)
		for i := longest + 1; i < len(offsets); i++ {
			offsets[i]--
		}
		repl := map[string]any{"rows": rows[:len(rows)-1], "list_offsets": offsets, "list_ids": cut}
		if s := af.Section("list_codes"); s != nil {
			m := int64(s.Len() / len(ids))
			repl["list_codes"] = slices.Concat(s.Bytes()[:(hi-1)*m], s.Bytes()[hi*m:])
		}
		return repl
	}
	g := goldenGraph()
	rerank8 := goldenFile(t, "golden_v2_ivf_pq_rerank8.bin")
	cases := []struct {
		name, file string
		edit       func(af *artifact.File) map[string]any
	}{
		{"ivf-flat list id past the row map", "golden_v2_ivf_flat.bin", listIDPastRows},
		{"ivf-pq list id past the row map", "golden_v2_ivf_pq.bin", listIDPastRows},
		{"flat vectors narrower than the model", "golden_v2_flat.bin", func(af *artifact.File) map[string]any {
			s := af.Section("flat")
			half := s.Cols / 2
			return map[string]any{"flat": &mathx.Matrix{Rows: s.Rows, Cols: half, Data: s.Float32s()[:s.Rows*half]}}
		}},
		// k × 2^62 wraps negative: the over-fetch heap would take no
		// candidate and the first lookup would index it empty.
		{"ivf-pq re-rank factor 2^62", "golden_v2_ivf_pq_rerank8.bin", func(*artifact.File) map[string]any {
			return map[string]any{"meta": withIndexRerank(t, rerank8, 1<<62)}
		}},
		{"ivf-pq re-rank factor past the cap", "golden_v2_ivf_pq_rerank8.bin", func(*artifact.File) map[string]any {
			return map[string]any{"meta": withIndexRerank(t, rerank8, index.MaxRerank+1)}
		}},
	}
	for _, c := range cases {
		v4 := goldenFile(t, c.file)
		// The harness itself: re-emitting the sections unchanged loads.
		if _, err := decodeModel(rewriteSections(t, v4, nil), g); err != nil {
			t.Fatalf("%s: unedited re-emit: %v", c.file, err)
		}
		af, err := artifact.Decode(v4)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := decodeModel(rewriteSections(t, v4, c.edit(af)), g); err == nil {
			t.Errorf("%s: accepted", c.name)
		}
	}
}

// TestHostileConfigRejected: an artifact whose config alone is edited — the
// meta section, with every checksum recomputed — is refused at attach,
// before anything sized by the edited field is allocated: negative or zero
// layer widths and counts (a makeslice panic once), sizes no stored weight
// matches (2^28 hidden units was a 77 GB allocation), a mention length or
// kernel width past maxMaxLen, which no stored weight vouches for, and on a
// model that re-ranks a re-rank factor past index.MaxRerank.
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
		v4 := goldenFile(t, c.file)
		af, err := artifact.Decode(v4)
		if err != nil {
			t.Fatal(err)
		}
		var meta metaV4
		if err := af.Section("meta").JSON(&meta); err != nil {
			t.Fatal(err)
		}
		c.edit(&meta.Cfg)
		mj, err := json.Marshal(meta)
		if err != nil {
			t.Fatal(err)
		}
		func() {
			defer func() {
				if r := recover(); r != nil {
					t.Errorf("%s: panicked: %v", c.name, r)
				}
			}()
			if _, err := decodeModel(rewriteSections(t, v4, map[string]any{"meta": json.RawMessage(mj)}), g); err == nil {
				t.Errorf("%s: accepted", c.name)
			}
		}()
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
		v4s[i] = goldenFile(f, file)
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

// FuzzReadArtifact hammers the whole model read — the v4 section parser
// and the attach path — with arbitrary bytes, seeded from every golden
// (weights only, PQ, fast-scan, Flat, IVF-Flat, IVF-PQ with and without
// re-rank) whole and cut short, from the fast-scan golden with cluster
// layouts valid and not (fastScanLayouts), and from files without the magic: a gob
// stream, the format before v4. A read must return an error or a valid
// model, never panic, and never allocate proportionally to corrupt header
// fields; a file without the magic fails with artifact.ErrNotV4.
func FuzzReadArtifact(f *testing.F) {
	g := goldenGraph()
	for _, file := range []string{"golden_v2.bin", "golden_v0.bin", "golden_v3.bin", "golden_v2_flat.bin", "golden_v2_ivf_flat.bin", "golden_v2_ivf_pq.bin", "golden_v2_ivf_pq_rerank8.bin"} {
		v4 := goldenFile(f, file)
		f.Add(v4)
		f.Add(v4[:len(v4)/2])
	}
	for _, layout := range fastScanLayouts(f) {
		f.Add(layout)
	}
	f.Add([]byte(artifact.Magic))
	bad := notV4(f)
	for _, name := range []string{"gob stream", "empty", "8 random bytes"} {
		f.Add(bad[name])
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		m, err := decodeModel(data, g)
		if !artifact.Sniff(data) && !errors.Is(err, artifact.ErrNotV4) {
			t.Fatalf("a file without the magic read as %v, %v; want artifact.ErrNotV4", m, err)
		}
		if err != nil {
			return
		}
		// A model that parses must serve a lookup without panicking.
		_ = m.Lookup(g.Entities[0].Label, 3)
	})
}
