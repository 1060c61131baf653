package triplet

import (
	"testing"

	"emblookup/internal/kg"
	"emblookup/internal/strutil"
)

func graph(t *testing.T) *kg.Graph {
	t.Helper()
	g, _ := kg.Generate(kg.DefaultGeneratorConfig(kg.WikidataProfile, 400))
	return g
}

func TestMineBudgetRespected(t *testing.T) {
	g := graph(t)
	cfg := DefaultMinerConfig()
	cfg.PerEntity = 20
	ts := Mine(g, cfg)
	if len(ts) != 20*len(g.Entities) {
		t.Fatalf("got %d triplets, want %d", len(ts), 20*len(g.Entities))
	}
}

func TestMineMaxEntities(t *testing.T) {
	g := graph(t)
	cfg := DefaultMinerConfig()
	cfg.PerEntity = 10
	cfg.MaxEntities = 7
	ts := Mine(g, cfg)
	if len(ts) != 70 {
		t.Fatalf("got %d triplets, want 70", len(ts))
	}
}

func TestMineAliasesAppearAsPositives(t *testing.T) {
	g := graph(t)
	ts := Mine(g, DefaultMinerConfig())
	// Collect (anchor, positive) pairs in both orientations (the miner
	// anchors half the semantic triplets on the alias) and verify most
	// entities have every alias paired with their label.
	pos := map[string]map[string]bool{}
	addPair := func(a, b string) {
		if pos[a] == nil {
			pos[a] = map[string]bool{}
		}
		pos[a][b] = true
	}
	for _, tr := range ts {
		addPair(tr.Anchor, tr.Positive)
		addPair(tr.Positive, tr.Anchor)
	}
	verified := 0
	for i := range g.Entities {
		e := &g.Entities[i]
		if len(e.Aliases) == 0 || len(e.Aliases) > 50 {
			continue
		}
		all := true
		for _, a := range e.Aliases {
			if !pos[e.Label][a] {
				all = false
			}
		}
		if all {
			verified++
		}
	}
	if verified < len(g.Entities)/2 {
		t.Fatalf("only %d/%d entities had all aliases mined", verified, len(g.Entities))
	}
}

func TestMineSyntacticPositivesAreClose(t *testing.T) {
	g := graph(t)
	cfg := DefaultMinerConfig()
	cfg.TypeShare = 0
	ts := Mine(g, cfg)
	// Syntactic positives (non-alias) should mostly be within small edit
	// distance of their anchor.
	aliasSet := map[string]map[string]bool{}
	for i := range g.Entities {
		e := &g.Entities[i]
		aliasSet[e.Label] = map[string]bool{}
		for _, a := range e.Aliases {
			aliasSet[e.Label][a] = true
		}
	}
	syntactic, close := 0, 0
	for _, tr := range ts {
		if as, ok := aliasSet[tr.Anchor]; ok && !as[tr.Positive] {
			syntactic++
			if strutil.Levenshtein(tr.Anchor, tr.Positive) <= 4 ||
				strutil.TokenSortRatio(tr.Anchor, tr.Positive) >= 80 {
				close++
			}
		}
	}
	if syntactic == 0 {
		t.Fatal("no syntactic triplets mined")
	}
	if float64(close)/float64(syntactic) < 0.6 {
		t.Fatalf("only %d/%d syntactic positives are near their anchor", close, syntactic)
	}
}

func TestMineDeterministic(t *testing.T) {
	g := graph(t)
	cfg := DefaultMinerConfig()
	cfg.PerEntity = 15
	a := Mine(g, cfg)
	b := Mine(g, cfg)
	if len(a) != len(b) {
		t.Fatal("lengths differ")
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatal("triplets differ between identical configs")
		}
	}
}

func TestSynonymPairsAndLabels(t *testing.T) {
	g := graph(t)
	pairs := SynonymPairs(g)
	if len(pairs) == 0 {
		t.Fatal("no synonym pairs")
	}
	for _, p := range pairs[:10] {
		if p[0] == "" || p[1] == "" {
			t.Fatal("empty pair element")
		}
	}
	labels := Labels(g)
	if len(labels) != len(g.Entities) {
		t.Fatal("labels count mismatch")
	}
}

func TestClassify(t *testing.T) {
	// dap=1, dan=5, margin=1: easy (5 >= 1+1).
	if Classify(1, 5, 1) != Easy {
		t.Fatal("expected Easy")
	}
	// dap=1, dan=1.5, margin=1: semi-hard (1 < 1.5 < 2).
	if Classify(1, 1.5, 1) != SemiHard {
		t.Fatal("expected SemiHard")
	}
	// dan <= dap: hard.
	if Classify(2, 1, 1) != Hard {
		t.Fatal("expected Hard")
	}
	if Classify(2, 2, 1) != Hard {
		t.Fatal("expected Hard at equality")
	}
}

func TestSelectHardFilters(t *testing.T) {
	// Embedding: map strings to fixed 1-D points.
	points := map[string]float32{"a": 0, "p_easy": 0.1, "n_far": 10, "p2": 0, "n_near": 0.05}
	embed := func(s string) []float32 { return []float32{points[s]} }
	ts := []Triplet{
		{"a", "p_easy", "n_far"}, // easy: dap=0.01, dan=100
		{"a", "p2", "n_near"},    // hard-ish: dan=0.0025 < margin
	}
	for _, workers := range []int{1, 4} {
		got := SelectHard(ts, embed, 1, workers)
		if len(got) != 1 || got[0].Positive != "p2" {
			t.Fatalf("SelectHard(workers=%d) = %+v", workers, got)
		}
	}
}
