package baselines

import (
	"testing"

	"emblookup/internal/kg"
	"emblookup/internal/lookup"
)

// fixedCorpus builds a tiny corpus with known contents.
func fixedCorpus() (*lookup.Corpus, map[string]kg.EntityID) {
	labels := []string{
		"Germany", "France", "Berlin", "East Berlin", "Bermuda",
		"United Kingdom", "New Zealand", "Zealandia Corp", "Francium Labs",
		"German Empire",
	}
	c := &lookup.Corpus{}
	ids := map[string]kg.EntityID{}
	for i, l := range labels {
		id := kg.EntityID(i)
		ids[l] = id
		c.Mentions = append(c.Mentions, lookup.Mention{Text: l, Entity: id})
	}
	return c, ids
}

// services returns every baseline over the corpus.
func services(c *lookup.Corpus) []lookup.Service {
	return []lookup.Service{
		NewExact(c),
		NewLevenshteinScan(c),
		NewFuzzyWuzzy(c),
		NewElasticQGram(c),
		NewElastic(c),
		NewLSH(c),
	}
}

func contains(cands []lookup.Candidate, id kg.EntityID) bool {
	for _, c := range cands {
		if c.ID == id {
			return true
		}
	}
	return false
}

func TestAllServicesFindExactLabel(t *testing.T) {
	c, ids := fixedCorpus()
	for _, s := range services(c) {
		res := s.Lookup("Germany", 5)
		if !contains(res, ids["Germany"]) {
			t.Errorf("%s missed exact label Germany: %+v", s.Name(), res)
		}
	}
}

func TestFuzzyServicesTolerateTypo(t *testing.T) {
	c, ids := fixedCorpus()
	fuzzy := []lookup.Service{
		NewLevenshteinScan(c),
		NewFuzzyWuzzy(c),
		NewElasticQGram(c),
		NewElastic(c),
	}
	for _, s := range fuzzy {
		res := s.Lookup("Germny", 5) // dropped letter
		if !contains(res, ids["Germany"]) {
			t.Errorf("%s missed typo'd Germany: %+v", s.Name(), res)
		}
	}
}

func TestExactMatchCollapsesOnTypo(t *testing.T) {
	c, _ := fixedCorpus()
	e := NewExact(c)
	if res := e.Lookup("Germny", 5); len(res) != 0 {
		t.Fatalf("exact match should miss typos, got %+v", res)
	}
	// Case-insensitive on clean input.
	if res := e.Lookup("germany", 5); len(res) != 1 {
		t.Fatalf("exact match should be case-insensitive, got %+v", res)
	}
}

func TestRankingPrefersCloserString(t *testing.T) {
	c, ids := fixedCorpus()
	for _, s := range []lookup.Service{NewLevenshteinScan(c), NewFuzzyWuzzy(c), NewElasticQGram(c)} {
		res := s.Lookup("Berlin", 3)
		if len(res) == 0 || res[0].ID != ids["Berlin"] {
			t.Errorf("%s did not rank Berlin first: %+v", s.Name(), res)
		}
	}
}

func TestElasticTokenMatch(t *testing.T) {
	c, ids := fixedCorpus()
	e := NewElastic(c)
	// Token "Berlin" appears in two mentions; both should surface.
	res := e.Lookup("Berlin", 5)
	if !contains(res, ids["Berlin"]) || !contains(res, ids["East Berlin"]) {
		t.Fatalf("elastic token matching incomplete: %+v", res)
	}
	// Shorter exact doc should outrank the longer partial doc.
	if res[0].ID != ids["Berlin"] {
		t.Fatalf("elastic ranked %v first", res[0])
	}
}

func TestElasticSwappedTokens(t *testing.T) {
	c, ids := fixedCorpus()
	e := NewElastic(c)
	res := e.Lookup("Kingdom United", 3)
	if len(res) == 0 || res[0].ID != ids["United Kingdom"] {
		t.Fatalf("elastic should be order-insensitive: %+v", res)
	}
}

func TestLSHFindsNearDuplicates(t *testing.T) {
	c, ids := fixedCorpus()
	l := NewLSH(c)
	// One transposition keeps most trigrams intact.
	res := l.Lookup("Gemrany", 5)
	if !contains(res, ids["Germany"]) {
		t.Fatalf("LSH missed near-duplicate: %+v", res)
	}
}

func TestLSHMissesHeavyNoise(t *testing.T) {
	c, _ := fixedCorpus()
	l := NewLSH(c)
	// An abbreviation shares almost no q-grams — LSH is expected to fail
	// here (its Table V failure mode).
	res := l.Lookup("UK", 5)
	for _, r := range res {
		if r.Score > 0.9 {
			t.Fatalf("LSH should not confidently match an abbreviation: %+v", res)
		}
	}
}

func TestKTruncation(t *testing.T) {
	c, _ := fixedCorpus()
	for _, s := range services(c) {
		res := s.Lookup("Germany", 2)
		if len(res) > 2 {
			t.Errorf("%s returned %d > k results", s.Name(), len(res))
		}
	}
}

func TestDedupeAcrossAliases(t *testing.T) {
	// Corpus with aliases: multiple mentions of the same entity must
	// dedupe to one candidate.
	c := &lookup.Corpus{Mentions: []lookup.Mention{
		{Text: "Germany", Entity: 1},
		{Text: "Germany", Entity: 1}, // variant spelling, same entity
		{Text: "France", Entity: 2},
	}}
	s := NewLevenshteinScan(c)
	res := s.Lookup("Germany", 5)
	count := 0
	for _, r := range res {
		if r.ID == 1 {
			count++
		}
	}
	if count != 1 {
		t.Fatalf("entity 1 appears %d times, want deduped", count)
	}
}

func TestEmptyQuery(t *testing.T) {
	c, _ := fixedCorpus()
	for _, s := range services(c) {
		res := s.Lookup("", 3)
		if len(res) > 3 {
			t.Errorf("%s returned %d results for empty query", s.Name(), len(res))
		}
	}
}

func TestCorpusFromGraphAliasToggle(t *testing.T) {
	g, _ := kg.Generate(kg.DefaultGeneratorConfig(kg.WikidataProfile, 200))
	labelsOnly := lookup.CorpusFromGraph(g, false)
	withAliases := lookup.CorpusFromGraph(g, true)
	if len(labelsOnly.Mentions) != len(g.Entities) {
		t.Fatalf("labels-only corpus has %d mentions", len(labelsOnly.Mentions))
	}
	if len(withAliases.Mentions) <= len(labelsOnly.Mentions) {
		t.Fatal("alias corpus should be larger")
	}
	if withAliases.SizeBytes() <= labelsOnly.SizeBytes() {
		t.Fatal("alias corpus should cost more bytes")
	}
}

func TestElasticIndexSize(t *testing.T) {
	c, _ := fixedCorpus()
	e := NewElastic(c)
	if e.SizeBytes() <= 0 {
		t.Fatal("elastic index size should be positive")
	}
}
