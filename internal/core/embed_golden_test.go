package core

import (
	"bytes"
	"encoding/binary"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"emblookup/internal/kg"
	"emblookup/internal/mathx"
)

// TestEmbedGolden pins the embedding kernels to bytes on disk:
// testdata/golden_embed.bin holds the query-space (Embed) and index-space
// (IndexEmbed) embeddings of goldenMentions under golden_v2.bin's weights,
// as float32 bits, written by the scalar kernels the vector ones replaced.
// Every build — the assembly kernels, purego, any GOAMD64 level — must
// reproduce them bit for bit, so a kernel that moves one bit fails here
// even when it moves it consistently everywhere else. Regenerate with
//
//	go test ./internal/core/ -run TestEmbedGolden -update-golden
//
// only after an intentional change to what an embedding is.
//
// Layout, little-endian: mention count and dimension as uint32, then per
// mention its byte length (uint32), its bytes, and 2·dim float32 bits.
func TestEmbedGolden(t *testing.T) {
	path := filepath.Join("testdata", "golden_embed.bin")
	g := goldenGraph()
	m, err := LoadFile(filepath.Join("testdata", "golden_v2.bin"), g)
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()
	if *updateGolden {
		writeEmbedGolden(t, path, m, goldenMentions(g))
	}
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("embedding golden missing (regenerate with -update-golden): %v", err)
	}
	r := bytes.NewReader(raw)
	var n, dim uint32
	if err := binary.Read(r, binary.LittleEndian, &n); err != nil {
		t.Fatal(err)
	}
	if err := binary.Read(r, binary.LittleEndian, &dim); err != nil {
		t.Fatal(err)
	}
	if int(dim) != m.Config().Dim {
		t.Fatalf("golden dimension %d, model %d", dim, m.Config().Dim)
	}
	want := make([]uint32, 2*dim)
	for i := 0; i < int(n); i++ {
		var l uint32
		if err := binary.Read(r, binary.LittleEndian, &l); err != nil {
			t.Fatal(err)
		}
		mention := make([]byte, l)
		if _, err := r.Read(mention); err != nil && l > 0 {
			t.Fatal(err)
		}
		if err := binary.Read(r, binary.LittleEndian, want); err != nil {
			t.Fatal(err)
		}
		got := append(m.Embed(string(mention)), m.IndexEmbed(string(mention))...)
		for j, w := range want {
			if b := math.Float32bits(got[j]); b != w {
				space := "query"
				if j >= int(dim) {
					space = "index"
				}
				t.Fatalf("mention %d %q, %s space [%d]: %v (%#08x), golden %v (%#08x)",
					i, mention, space, j%int(dim), got[j], b, math.Float32frombits(w), w)
			}
		}
	}
	if r.Len() != 0 {
		t.Fatalf("%d trailing bytes in the golden", r.Len())
	}
	if n < 150 {
		t.Fatalf("golden holds %d mentions, want the full set", n)
	}
}

func writeEmbedGolden(t *testing.T, path string, m *EmbLookup, mentions []string) {
	t.Helper()
	b := binary.LittleEndian.AppendUint32(nil, uint32(len(mentions)))
	b = binary.LittleEndian.AppendUint32(b, uint32(m.Config().Dim))
	for _, s := range mentions {
		b = appendEmbedRecord(b, m, s)
	}
	if err := os.WriteFile(path, b, 0o644); err != nil {
		t.Fatal(err)
	}
	t.Logf("embedding golden rewritten: %d mentions", len(mentions))
}

// appendEmbedRecord appends one mention's record of the embedding golden to
// b: its byte length, its bytes, then its query-space and index-space
// embeddings under m as float32 bits.
func appendEmbedRecord(b []byte, m *EmbLookup, s string) []byte {
	b = binary.LittleEndian.AppendUint32(b, uint32(len(s)))
	b = append(b, s...)
	for _, v := range append(m.Embed(s), m.IndexEmbed(s)...) {
		b = binary.LittleEndian.AppendUint32(b, math.Float32bits(v))
	}
	return b
}

// goldenMentions is the embedding golden's input set, about 200 strings
// that reach every branch of the embedding path: the golden graph's labels
// and aliases, typos of them, case changes, empty and one- or
// two-character strings, strings longer than MaxLen (32), padding,
// non-ASCII and invalid UTF-8.
func goldenMentions(g *kg.Graph) []string {
	var out []string
	for i := 0; i < 60; i++ {
		out = append(out, g.Entities[i].Label)
	}
	for _, e := range g.Entities[60:] {
		out = append(out, e.Aliases...)
	}
	rng := mathx.NewRNG(2718)
	for i := 0; i < 40; i++ {
		s := []rune(g.Entities[rng.Intn(len(g.Entities))].Label)
		p := rng.Intn(len(s))
		switch i % 4 {
		case 0: // deletion
			s = append(s[:p], s[p+1:]...)
		case 1: // transposition
			if p+1 < len(s) {
				s[p], s[p+1] = s[p+1], s[p]
			}
		case 2: // substitution
			s[p] = 'a' + rune(rng.Intn(26))
		default: // insertion
			s = append(s[:p], append([]rune{'a' + rune(rng.Intn(26))}, s[p:]...)...)
		}
		out = append(out, string(s))
	}
	for i := 0; i < 20; i++ {
		l := g.Entities[i*3%len(g.Entities)].Label
		if i%2 == 0 {
			out = append(out, strings.ToUpper(l))
		} else {
			out = append(out, strings.ToLower(l))
		}
	}
	long := g.Entities[0].Label + " " + g.Entities[1].Label + " of the northern reaches province"
	out = append(out,
		"", " ", "a", "Z", "ab", "Q7", "-", "é",
		long, strings.ToUpper(long), strings.Repeat("x", 33), strings.Repeat("ab ", 40),
		"  padded "+g.Entities[2].Label+"  ", "\t"+g.Entities[3].Label+"\n",
		"Zürich", "ÉCOLE Normale Supérieure", "Ελλάδα", "東京タワー", "Ångström", "Straße",
		"İstanbul", "naïve café", "🚀 launch pad", "ǅemal", "ΣΟΦΙΑ",
		"\xff", "abc\x80def", "\xc3\x28", "Bad\xe2\x82", "\xed\xa0\x80", "A\xffB\xfeC",
	)
	return out
}
