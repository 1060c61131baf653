// Package baselines implements the comparison lookup services of Table V:
// exact match, a full Levenshtein scan, the FuzzyWuzzy ratio matcher, an
// ElasticSearch-style BM25 engine over words and trigrams with fuzzy
// expansion (which also hosts exact, q-gram and Levenshtein matching), and
// a MinHash-LSH approximate matcher.
// Every service indexes a lookup.Corpus and implements lookup.Service.
package baselines

import (
	"sort"
	"strings"

	"emblookup/internal/kg"
	"emblookup/internal/lookup"
)

// Exact is the exact-match lookup: a hash index over lowercased mention
// text. It is the fastest baseline on clean data and collapses on any typo,
// exactly as the paper's Table V shows.
type Exact struct {
	byText map[string][]kg.EntityID
}

// NewExact indexes the corpus.
func NewExact(c *lookup.Corpus) *Exact {
	e := &Exact{byText: make(map[string][]kg.EntityID, len(c.Mentions))}
	for _, m := range c.Mentions {
		key := strings.ToLower(m.Text)
		e.byText[key] = append(e.byText[key], m.Entity)
	}
	return e
}

// Name implements lookup.Service.
func (e *Exact) Name() string { return "exact-match" }

// Lookup returns the entities whose indexed mention equals q.
func (e *Exact) Lookup(q string, k int) []lookup.Candidate {
	ids := e.byText[strings.ToLower(strings.TrimSpace(q))]
	var out []lookup.Candidate
	for _, id := range ids {
		out = append(out, lookup.Candidate{ID: id, Score: 1})
	}
	return lookup.DedupeTopK(out, k)
}

// rankMentions scores every (mention, score) pair and returns the deduped
// top-k entities, best score first. Ties break by entity ID so services
// built over map-ordered intermediates stay deterministic.
func rankMentions(scored []scoredMention, k int) []lookup.Candidate {
	sort.Slice(scored, func(a, b int) bool {
		if scored[a].score != scored[b].score {
			return scored[a].score > scored[b].score
		}
		return scored[a].entity < scored[b].entity
	})
	cands := make([]lookup.Candidate, len(scored))
	for i, s := range scored {
		cands[i] = lookup.Candidate{ID: s.entity, Score: s.score}
	}
	return lookup.DedupeTopK(cands, k)
}

type scoredMention struct {
	entity kg.EntityID
	score  float64
}
