package kg

import (
	"bytes"
	"strings"
	"testing"
)

func smallGraph(t *testing.T) (*Graph, *Schema) {
	t.Helper()
	g, s := Generate(DefaultGeneratorConfig(WikidataProfile, 500))
	if len(g.Entities) == 0 {
		t.Fatal("generator produced no entities")
	}
	return g, s
}

func TestGenerateDeterministic(t *testing.T) {
	cfg := DefaultGeneratorConfig(WikidataProfile, 300)
	g1, _ := Generate(cfg)
	g2, _ := Generate(cfg)
	if len(g1.Entities) != len(g2.Entities) || len(g1.Facts) != len(g2.Facts) {
		t.Fatalf("sizes differ: %d/%d vs %d/%d", len(g1.Entities), len(g1.Facts), len(g2.Entities), len(g2.Facts))
	}
	for i := range g1.Entities {
		if g1.Entities[i].Label != g2.Entities[i].Label {
			t.Fatalf("entity %d label differs: %q vs %q", i, g1.Entities[i].Label, g2.Entities[i].Label)
		}
		if len(g1.Entities[i].Aliases) != len(g2.Entities[i].Aliases) {
			t.Fatalf("entity %d alias count differs", i)
		}
	}
}

func TestGenerateEntityCount(t *testing.T) {
	g, _ := Generate(DefaultGeneratorConfig(WikidataProfile, 1000))
	if n := len(g.Entities); n < 950 || n > 1050 {
		t.Fatalf("entity count %d far from requested 1000", n)
	}
}

func TestAliasStatisticsMatchPaper(t *testing.T) {
	// Section IV-E: "the number of synonyms is less than 50 for at least
	// 95% of the KG entities" and "for the vast majority of the entities,
	// there were at least 3 aliases/synonyms".
	g, _ := Generate(DefaultGeneratorConfig(WikidataProfile, 2000))
	atLeast3, under50 := 0, 0
	for i := range g.Entities {
		n := len(g.Entities[i].Aliases)
		if n >= 3 {
			atLeast3++
		}
		if n < 50 {
			under50++
		}
	}
	total := len(g.Entities)
	if frac := float64(atLeast3) / float64(total); frac < 0.60 {
		t.Fatalf("only %.0f%% of entities have >=3 aliases", frac*100)
	}
	if frac := float64(under50) / float64(total); frac < 0.95 {
		t.Fatalf("only %.0f%% of entities have <50 aliases", frac*100)
	}
}

func TestExactMatchFindsLabelAndAlias(t *testing.T) {
	g, _ := smallGraph(t)
	e := &g.Entities[0]
	found := false
	for _, id := range g.ExactMatch(strings.ToUpper(e.Label)) {
		if id == e.ID {
			found = true
		}
	}
	if !found {
		t.Fatalf("ExactMatch missed own label %q", e.Label)
	}
	if len(e.Aliases) > 0 {
		found = false
		for _, id := range g.ExactMatch(e.Aliases[0]) {
			if id == e.ID {
				found = true
			}
		}
		if !found {
			t.Fatalf("ExactMatch missed alias %q", e.Aliases[0])
		}
	}
}

func TestFactsRespectSchema(t *testing.T) {
	g, s := smallGraph(t)
	for _, f := range g.Facts {
		p := g.Props[f.Prop]
		if f.Object == NoEntity {
			if p.Range != NoType {
				t.Fatalf("literal fact on entity-valued property %s", p.Name)
			}
			if f.Literal == "" {
				t.Fatalf("literal fact with empty literal on %s", p.Name)
			}
			continue
		}
		if p.Range != NoType && !g.HasType(f.Object, p.Range) {
			t.Fatalf("fact %s: object %q lacks range type %s",
				p.Name, g.Label(f.Object), g.TypeName(p.Range))
		}
		if p.Domain != NoType && !g.HasType(f.Subject, p.Domain) {
			t.Fatalf("fact %s: subject %q lacks domain type %s",
				p.Name, g.Label(f.Subject), g.TypeName(p.Domain))
		}
	}
	_ = s
}

func TestNeighborsSymmetric(t *testing.T) {
	g, _ := smallGraph(t)
	// For a sample of entities: if b in Neighbors(a) then a in Neighbors(b).
	for i := 0; i < 50 && i < len(g.Entities); i++ {
		a := EntityID(i)
		for _, b := range g.Neighbors(a) {
			found := false
			for _, back := range g.Neighbors(b) {
				if back == a {
					found = true
					break
				}
			}
			if !found {
				t.Fatalf("neighbor asymmetry: %d -> %d", a, b)
			}
		}
	}
}

func TestHasTypeHierarchy(t *testing.T) {
	g, s := smallGraph(t)
	// Find a city; it must also be a place and an entity via the hierarchy.
	for i := range g.Entities {
		if hasType(g.Entities[i].Types, s.City) {
			id := g.Entities[i].ID
			if !g.HasType(id, s.City) || !g.HasType(id, s.Place) || !g.HasType(id, s.Root) {
				t.Fatal("type hierarchy walk broken for city")
			}
			if g.HasType(id, s.Person) {
				t.Fatal("city must not be a person")
			}
			return
		}
	}
	t.Fatal("no city generated")
}

func TestTypeDepth(t *testing.T) {
	g, s := smallGraph(t)
	if g.TypeDepth(s.Root) != 0 {
		t.Fatalf("root depth = %d", g.TypeDepth(s.Root))
	}
	if g.TypeDepth(s.City) <= g.TypeDepth(s.Place) {
		t.Fatal("city should be deeper than place")
	}
}

func TestSerializationRoundTrip(t *testing.T) {
	g, _ := smallGraph(t)
	var buf bytes.Buffer
	if err := g.Write(&buf); err != nil {
		t.Fatal(err)
	}
	g2, err := decode(buf.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	if len(g2.Entities) != len(g.Entities) || len(g2.Facts) != len(g.Facts) {
		t.Fatal("round trip lost data")
	}
	// Indexes must be rebuilt: exact match still works.
	e := &g.Entities[0]
	if len(g2.ExactMatch(e.Label)) == 0 {
		t.Fatal("round-tripped graph lost mention index")
	}
}

func TestSaveLoadFile(t *testing.T) {
	g, _ := smallGraph(t)
	path := t.TempDir() + "/graph.bin"
	if err := g.SaveFile(path); err != nil {
		t.Fatal(err)
	}
	g2, err := LoadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if g2.Indexed() {
		t.Fatal("LoadFile built an index")
	}
	sameGraph(t, g, g2)
}

func TestDBPediaProfileDiffers(t *testing.T) {
	gw, _ := Generate(DefaultGeneratorConfig(WikidataProfile, 1000))
	gd, _ := Generate(DefaultGeneratorConfig(DBPediaProfile, 1000))
	// DBPedia labels sometimes carry parenthesized suffixes.
	parens := 0
	for i := range gd.Entities {
		if strings.Contains(gd.Entities[i].Label, "(") {
			parens++
		}
	}
	if parens == 0 {
		t.Fatal("DBPedia profile produced no disambiguation suffixes")
	}
	// Wikidata should be alias-richer on average.
	avg := func(g *Graph) float64 {
		n := 0
		for i := range g.Entities {
			n += len(g.Entities[i].Aliases)
		}
		return float64(n) / float64(len(g.Entities))
	}
	if avg(gw) <= avg(gd) {
		t.Fatalf("expected Wikidata profile alias-richer: %.2f vs %.2f", avg(gw), avg(gd))
	}
}

func TestPseudoTranslateDeterministic(t *testing.T) {
	a := pseudoTranslate("Germany", langDe)
	b := pseudoTranslate("Germany", langDe)
	if a != b {
		t.Fatal("pseudoTranslate not deterministic")
	}
	if a == "Germany" {
		t.Fatal("pseudoTranslate must change the label")
	}
	// Different languages give different surface forms.
	if pseudoTranslate("Germany", langFr) == a {
		t.Fatal("languages should differ")
	}
}

func TestEntityAccessorsOutOfRange(t *testing.T) {
	g := NewGraph("x")
	if g.Entity(0) != nil || g.Entity(-1) != nil {
		t.Fatal("out-of-range entity should be nil")
	}
	if g.Label(5) != "" || g.TypeName(5) != "" {
		t.Fatal("out-of-range accessors should return empty")
	}
	if g.FactsFrom(3) != nil || g.FactsTo(3) != nil {
		t.Fatal("facts on empty graph should be nil")
	}
}

func TestStatsString(t *testing.T) {
	g, _ := smallGraph(t)
	s := g.Stats()
	if !strings.Contains(s, "entities") {
		t.Fatalf("Stats = %q", s)
	}
}

// TestAddAfterFirstReadIsVisible: an entity and facts added after the
// adjacency was derived are in the next read. (With the eager indexes this
// package had, the new entity read as "no facts" until someone remembered to
// call Reindex.)
func TestAddAfterFirstReadIsVisible(t *testing.T) {
	g, s := smallGraph(t)
	city := EntityID(-1)
	for i := range g.Entities {
		if hasType(g.Entities[i].Types, s.City) {
			city = EntityID(i)
			break
		}
	}
	before := len(g.FactsTo(city)) // derives the adjacency
	if len(g.ExactMatch("Newcomer Example")) != 0 {
		t.Fatal("fixture label already taken")
	}
	id := g.AddEntity("Newcomer Example", []string{"N. Example"}, s.Person)
	if g.FactsFrom(id) != nil {
		t.Fatal("an entity no fact names yet should read as nil")
	}
	g.AddFact(id, s.BornIn, city)
	g.AddLiteralFact(id, s.Population, "1")
	if from := g.FactsFrom(id); len(from) != 2 || from[0].Object != city || from[1].Literal != "1" {
		t.Fatalf("FactsFrom(new) = %+v", from)
	}
	if to := g.FactsTo(city); len(to) != before+1 || to[len(to)-1].Subject != id {
		t.Fatalf("FactsTo(city) grew %d → %d", before, len(to))
	}
	if nb := g.Neighbors(id); len(nb) != 1 || nb[0] != city {
		t.Fatalf("Neighbors(new) = %v", nb)
	}
	for _, m := range []string{"newcomer example", "n. example"} {
		if got := g.ExactMatch(m); len(got) != 1 || got[0] != id {
			t.Fatalf("ExactMatch(%q) = %v", m, got)
		}
	}
}

// TestIndexesAreDerivedOnUse: nothing that produces a graph builds an index,
// mutators leave an unbuilt index unbuilt, and Reindex picks up raw-slice
// edits.
func TestIndexesAreDerivedOnUse(t *testing.T) {
	g, s := smallGraph(t)
	c := g.Clone()
	c.AddFact(c.AddEntity("Somebody New", nil, s.Person), s.BornIn, 0)
	if g.Indexed() || c.Indexed() {
		t.Fatal("Generate, Clone, AddEntity or AddFact built an index")
	}
	if len(g.ExactMatch("somebody new")) != 0 || len(c.ExactMatch("somebody new")) != 1 {
		t.Fatal("the clone's entity leaked, or was not indexed on first use")
	}
	if !g.Indexed() || g.adj.Load() != nil {
		t.Fatal("ExactMatch should derive the mention map and nothing else")
	}
	g.Entities[0].Label = "Renamed In Place"
	g.Reindex()
	if got := g.ExactMatch("renamed in place"); len(got) != 1 || got[0] != 0 || g.adj.Load() == nil {
		t.Fatalf("Reindex: ExactMatch = %v", got)
	}
}
