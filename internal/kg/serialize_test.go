package kg

import (
	"bytes"
	"encoding/gob"
	"encoding/json"
	"errors"
	"os"
	"path/filepath"
	"reflect"
	"sync"
	"testing"

	"emblookup/internal/artifact"
)

// flatBytes is g in the container format Write produces.
func flatBytes(t testing.TB, g *Graph) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := g.Write(&buf); err != nil {
		t.Fatal(err)
	}
	if !artifact.Sniff(buf.Bytes()) {
		t.Fatal("Write did not produce an artifact container")
	}
	return buf.Bytes()
}

// sameGraph compares every exported field and every answer of the derived
// indexes over all entities.
func sameGraph(t *testing.T, want, got *Graph) {
	t.Helper()
	if want.Name != got.Name || !reflect.DeepEqual(want.Entities, got.Entities) ||
		!reflect.DeepEqual(want.Types, got.Types) || !reflect.DeepEqual(want.Props, got.Props) ||
		!reflect.DeepEqual(want.Facts, got.Facts) {
		t.Fatal("exported fields differ")
	}
	for i := range want.Entities {
		id := EntityID(i)
		for _, m := range want.Entities[i].Mentions() {
			if !reflect.DeepEqual(want.ExactMatch(m), got.ExactMatch(m)) {
				t.Fatalf("ExactMatch(%q) differs", m)
			}
		}
		if !reflect.DeepEqual(want.FactsFrom(id), got.FactsFrom(id)) ||
			!reflect.DeepEqual(want.FactsTo(id), got.FactsTo(id)) ||
			!reflect.DeepEqual(want.Neighbors(id), got.Neighbors(id)) {
			t.Fatalf("facts or neighbors of entity %d differ", id)
		}
	}
}

// notV4 is what a graph file that predates the container looks like — a
// gob stream of the Graph, as Write produced before — and two more files
// without the magic.
func notV4(t testing.TB) map[string][]byte {
	t.Helper()
	var stream bytes.Buffer
	if err := gob.NewEncoder(&stream).Encode(firstGraph(t, 20)); err != nil {
		t.Fatal(err)
	}
	return map[string][]byte{"gob stream": stream.Bytes(), "empty": {}, "8 random bytes": {0x9c, 0x41, 0x07, 0xee, 0x5a, 0x13, 0xd2, 0x68}}
}

// TestLoadFileRefusesNonV4: LoadFile reads the container and nothing else,
// and says so with artifact.ErrNotV4.
func TestLoadFileRefusesNonV4(t *testing.T) {
	for name, data := range notV4(t) {
		path := filepath.Join(t.TempDir(), "graph.bin")
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		if g, err := LoadFile(path); !errors.Is(err, artifact.ErrNotV4) {
			t.Errorf("%s: LoadFile = %v, %v; want artifact.ErrNotV4", name, g, err)
		}
	}
}

// TestDecodedSlicesAreClipped: the decode backs every entity's aliases and
// types with one shared array each, so an append through one entity's slice
// must reallocate, never write into its neighbour's.
func TestDecodedSlicesAreClipped(t *testing.T) {
	g, err := decode(flatBytes(t, firstGraph(t, 50)))
	if err != nil {
		t.Fatal(err)
	}
	for i := range g.Entities {
		e := &g.Entities[i]
		if cap(e.Aliases) != len(e.Aliases) || cap(e.Types) != len(e.Types) {
			t.Fatalf("entity %d: aliases %d/%d, types %d/%d not capacity-clipped",
				i, len(e.Aliases), cap(e.Aliases), len(e.Types), cap(e.Types))
		}
	}
}

func firstGraph(t testing.TB, n int) *Graph {
	t.Helper()
	g, _ := Generate(DefaultGeneratorConfig(WikidataProfile, n))
	return g
}

// exercise reads everything a caller could read from a graph a reader
// accepted: with IDs validated none of it may panic or run off a slice.
func exercise(g *Graph) {
	for i := range g.Entities {
		id := EntityID(i)
		g.ExactMatch(g.Label(id))
		g.FactsFrom(id)
		g.FactsTo(id)
		g.Neighbors(id)
		for _, tid := range g.Entities[i].Types {
			g.HasType(id, tid)
			g.TypeDepth(tid)
		}
	}
	g.Stats()
}

// FuzzReadGraph covers the graph reader. Whatever it accepts must be safe
// to use and must survive a re-save; a gob stream, the format before the
// container, is one seed and must be refused.
func FuzzReadGraph(f *testing.F) {
	f.Add(notV4(f)["gob stream"])
	f.Add(flatBytes(f, firstGraph(f, 20)))
	f.Add(flatBytes(f, NewGraph("empty")))
	f.Fuzz(func(t *testing.T, data []byte) {
		g, err := decode(data)
		if err != nil {
			return
		}
		exercise(g)
		var buf bytes.Buffer
		if err := g.Write(&buf); err != nil {
			t.Fatalf("re-saving an accepted graph: %v", err)
		}
		again, err := decode(buf.Bytes())
		if err != nil {
			t.Fatalf("re-reading a re-saved graph: %v", err)
		}
		if len(again.Entities) != len(g.Entities) || len(again.Facts) != len(g.Facts) {
			t.Fatal("re-saved graph changed size")
		}
	})
}

// TestGraphFileDamage: a container cut short anywhere, or with any one byte
// flipped, is an error — or, when the flip lands in padding no checksum
// covers, the same graph — never a panic.
func TestGraphFileDamage(t *testing.T) {
	want := firstGraph(t, 20)
	data := flatBytes(t, want)
	for n := 0; n < len(data); n++ {
		if _, err := decode(data[:n]); err == nil {
			t.Fatalf("file truncated to %d of %d bytes loaded", n, len(data))
		}
	}
	flipped := make([]byte, len(data))
	for i := range data {
		copy(flipped, data)
		flipped[i] ^= 0xFF
		g, err := decode(flipped)
		if err != nil {
			continue
		}
		if !reflect.DeepEqual(want.Entities, g.Entities) || !reflect.DeepEqual(want.Facts, g.Facts) ||
			!reflect.DeepEqual(want.Types, g.Types) || !reflect.DeepEqual(want.Props, g.Props) {
			t.Fatalf("flipping byte %d loaded a different graph", i)
		}
	}
}

// resection rewrites one section of a container (checksums recomputed), so a
// test can hand the reader a well-formed file whose contents lie.
func resection(t *testing.T, data []byte, name string, edit func(*artifact.Section) any) []byte {
	t.Helper()
	af, err := artifact.Decode(data)
	if err != nil {
		t.Fatal(err)
	}
	w, found := artifact.NewWriter(), false
	for i := range af.Sections() {
		s := &af.Sections()[i]
		var v any = s.Bytes()
		switch {
		case s.Name == name:
			v, found = edit(s), true
		case s.Elem == artifact.ElemJSON:
			v = json.RawMessage(s.Bytes())
		case s.Elem == artifact.ElemI32:
			v = s.Int32s()
		}
		switch v := v.(type) {
		case skip:
		case []int32:
			w.AddInt32s(s.Name, v)
		case []byte:
			w.AddBytes(s.Name, v)
		default:
			w.AddJSON(s.Name, v)
		}
	}
	if !found {
		t.Fatalf("no section %q", name)
	}
	var buf bytes.Buffer
	if _, err := w.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// skip, returned from a resection edit, drops the section.
type skip struct{}

// TestGraphFileLies: every way the sections can disagree with each other or
// with the graph's own ID spaces is rejected at load, checksums intact.
func TestGraphFileLies(t *testing.T) {
	g := firstGraph(t, 20)
	data := flatBytes(t, g)
	ints := func(edit func(v []int32) []int32) func(*artifact.Section) any {
		return func(s *artifact.Section) any { return edit(append([]int32(nil), s.Int32s()...)) }
	}
	set := func(i int, x int32) func(*artifact.Section) any {
		return ints(func(v []int32) []int32 {
			if i < 0 {
				i += len(v)
			}
			v[i] = x
			return v
		})
	}
	meta := func(edit func(*graphMeta)) func(*artifact.Section) any {
		return func(s *artifact.Section) any {
			var m graphMeta
			if err := s.JSON(&m); err != nil {
				t.Fatal(err)
			}
			edit(&m)
			return m
		}
	}
	nE, nT, nP := int32(len(g.Entities)), int32(len(g.Types)), int32(len(g.Props))
	cases := []struct {
		name, section string
		edit          func(*artifact.Section) any
	}{
		{"label offset decreases", "label_ends", set(3, 0)},
		{"label offset negative", "label_ends", set(0, -1)},
		{"alias offset overruns the slab", "alias_ends", set(-1, 1<<30)},
		{"literal offset short of the slab", "literal_ends", ints(func(v []int32) []int32 { v[len(v)-1]--; return v })},
		{"slab longer than the offsets", "strings", func(s *artifact.Section) any { return append(append([]byte(nil), s.Bytes()...), 'x') }},
		{"alias index decreases", "alias_idx", set(2, 0)},
		{"alias index overruns", "alias_idx", set(-1, 1<<20)},
		{"alias index short", "alias_idx", ints(func(v []int32) []int32 { v[len(v)-1]--; return v })},
		{"type index overruns", "type_idx", set(-1, 1<<20)},
		{"type index section short", "type_idx", ints(func(v []int32) []int32 { return v[1:] })},
		{"entity type out of range", "types", set(0, nT)},
		{"entity type negative", "types", set(0, -1)},
		{"fact subject out of range", "facts", set(0, nE)},
		{"fact subject negative", "facts", set(0, -1)},
		{"fact prop out of range", "facts", set(1, nP)},
		{"fact object out of range", "facts", set(2, nE)},
		{"fact object below NoEntity", "facts", set(2, -2)},
		{"a literal fact too many", "facts", set(2, -1)},
		{"fact section not triples", "facts", ints(func(v []int32) []int32 { return v[1:] })},
		{"literal section missing", "literal_ends", func(*artifact.Section) any { return skip{} }},
		{"slab missing", "strings", func(*artifact.Section) any { return skip{} }},
		{"offsets as bytes", "label_ends", func(s *artifact.Section) any { return append([]byte(nil), s.Bytes()...) }},
		{"entity count disagrees", "meta", meta(func(m *graphMeta) { m.Entities++ })},
		{"fact count disagrees", "meta", meta(func(m *graphMeta) { m.Facts = -1 })},
		{"an alias end missing", "alias_ends", ints(func(v []int32) []int32 { return v[:len(v)-1] })},
		{"meta is not JSON", "meta", func(*artifact.Section) any { return []byte("{") }},
		{"type parent cycle", "meta", meta(func(m *graphMeta) { m.Types[1].Parent = 1 })},
		{"type ID not dense", "meta", meta(func(m *graphMeta) { m.Types[2].ID = 7 })},
		{"prop range out of range", "meta", meta(func(m *graphMeta) { m.Props[0].Range = TypeID(nT) })},
		{"fewer props than facts name", "meta", meta(func(m *graphMeta) { m.Props = m.Props[:1] })},
	}
	for _, c := range cases {
		if g, err := decode(resection(t, data, c.section, c.edit)); err == nil {
			t.Errorf("%s: loaded a graph of %d entities", c.name, len(g.Entities))
		}
	}
	// The harness itself: an edit that changes nothing still loads.
	same := resection(t, data, "facts", ints(func(v []int32) []int32 { return v }))
	if _, err := decode(same); err != nil {
		t.Fatalf("identity resection: %v", err)
	}
	// A model artifact is a container too, and not a graph.
	var other bytes.Buffer
	w := artifact.NewWriter()
	w.AddBytes("codes", []byte{1, 2, 3})
	if _, err := w.WriteTo(&other); err != nil {
		t.Fatal(err)
	}
	if _, err := decode(other.Bytes()); err == nil {
		t.Fatal("a container without graph sections loaded")
	}
	// Write refuses what the format cannot hold rather than dropping it.
	bad := firstGraph(t, 20)
	bad.Facts[0].Literal = "both"
	if bad.Facts[0].Object == NoEntity {
		t.Fatal("fixture: fact 0 should be entity-valued")
	}
	if err := bad.Write(new(bytes.Buffer)); err == nil {
		t.Fatal("Write accepted a fact with an object and a literal")
	}
}

// TestFirstUseConcurrent: 16 goroutines make the first reads of a freshly
// loaded graph, and of a Clone, together. Each index is built once — every
// goroutine finds the index the last one leaves published — and every answer
// equals an eagerly Reindexed twin's. Run under -race by scripts/verify.sh.
func TestFirstUseConcurrent(t *testing.T) {
	loaded, err := decode(flatBytes(t, firstGraph(t, 400)))
	if err != nil {
		t.Fatal(err)
	}
	twin := loaded.Clone()
	twin.Reindex()
	for name, g := range map[string]*Graph{"loaded": loaded, "clone": loaded.Clone()} {
		if g.Indexed() {
			t.Fatalf("%s: indexed before first use", name)
		}
		start := make(chan struct{})
		var wg sync.WaitGroup
		var sawMentions [16]*map[string][]EntityID
		var sawAdj [16]*adjacency
		for w := 0; w < 16; w++ {
			wg.Add(1)
			go func(w int) {
				defer wg.Done()
				<-start
				for i := range g.Entities {
					id := EntityID((i + w*25) % len(g.Entities))
					var same bool
					switch (i + w) % 3 {
					case 0:
						l := g.Label(id)
						same = reflect.DeepEqual(g.ExactMatch(l), twin.ExactMatch(l))
					case 1:
						same = reflect.DeepEqual(g.FactsFrom(id), twin.FactsFrom(id))
					default:
						same = reflect.DeepEqual(g.Neighbors(id), twin.Neighbors(id))
					}
					if !same {
						t.Errorf("%s: goroutine %d, entity %d: answer differs from the eager twin", name, w, id)
						return
					}
					if i == 2 { // one read of each kind made: both indexes exist
						sawMentions[w], sawAdj[w] = g.mentions.Load(), g.adj.Load()
					}
				}
			}(w)
		}
		close(start)
		wg.Wait()
		for w := range sawMentions {
			if sawMentions[w] == nil || sawMentions[w] != g.mentions.Load() || sawAdj[w] == nil || sawAdj[w] != g.adj.Load() {
				t.Fatalf("%s: goroutine %d saw an index that was later replaced: built more than once", name, w)
			}
		}
	}
}

// TestLoadFileAllocs: the decode's allocation count does not grow with the
// graph. A footprint regression (a string per label, a slice per entity)
// fails here as a count that repeats exactly, not as a noisy RSS reading.
func TestLoadFileAllocs(t *testing.T) {
	const ceiling = 100
	var counts []float64
	for _, n := range []int{2_000, 20_000} {
		path := filepath.Join(t.TempDir(), "graph.bin")
		if err := firstGraph(t, n).SaveFile(path); err != nil {
			t.Fatal(err)
		}
		counts = append(counts, testing.AllocsPerRun(3, func() {
			if _, err := LoadFile(path); err != nil {
				t.Fatal(err)
			}
		}))
	}
	if counts[0] != counts[1] || counts[0] > ceiling {
		t.Fatalf("LoadFile allocations: %v at 2 000 entities, %v at 20 000; want equal and ≤ %d",
			counts[0], counts[1], ceiling)
	}
}
