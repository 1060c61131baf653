// Package lookup defines the lookup operation of Section II — the
// fundamental primitive every semantic-annotation system in the paper is
// built on: given a query string q and a budget k, return the k knowledge
// graph entities most relevant to q. EmbLookup and every baseline service
// implement the same Service interface so the downstream systems can swap
// their lookup component transparently, which is precisely the experiment
// design of Section IV.
package lookup

import (
	"time"

	"emblookup/internal/kg"
	"emblookup/internal/par"
)

// Candidate is one retrieved entity with a service-specific relevance score
// (higher is better).
type Candidate struct {
	ID    kg.EntityID
	Score float64
}

// Service is the lookup operation. Implementations must be safe for
// concurrent Lookup calls once constructed.
type Service interface {
	// Name identifies the service in experiment reports.
	Name() string
	// Lookup returns up to k candidates for q, best first.
	Lookup(q string, k int) []Candidate
}

// Bulk looks up every query with `parallelism` goroutines (≤0 means
// GOMAXPROCS — the "GPU mode" of the reproduction; 1 reproduces the
// sequential CPU mode). Results align with the query order.
func Bulk(s Service, queries []string, k, parallelism int) [][]Candidate {
	out := make([][]Candidate, len(queries))
	par.ForEach(len(queries), parallelism, func(i int) {
		out[i] = s.Lookup(queries[i], k)
	})
	return out
}

// Timed runs one measured bulk lookup and returns its results and its
// duration: wall time plus, for a service that simulates remote latency
// (VirtualClock), the virtual time the run accrued, counted from a reset
// just before it.
func Timed(s Service, queries []string, k, parallelism int) ([][]Candidate, time.Duration) {
	if vc, ok := s.(VirtualClock); ok {
		vc.ResetVirtual()
	}
	start := time.Now()
	res := Bulk(s, queries, k, parallelism)
	return res, TotalDuration(s, time.Since(start))
}

// VirtualClock is implemented by simulated remote services whose dominant
// cost (network latency under rate limits) is accounted on a virtual clock
// rather than actually slept.
type VirtualClock interface {
	// VirtualElapsed returns the simulated time consumed so far.
	VirtualElapsed() time.Duration
	// ResetVirtual clears the simulated time.
	ResetVirtual()
}

// TotalDuration returns wall time plus any virtual time s accumulated
// during the measured run. Call ResetVirtual (when available) before the
// run being measured.
func TotalDuration(s Service, wall time.Duration) time.Duration {
	if vc, ok := s.(VirtualClock); ok {
		return wall + vc.VirtualElapsed()
	}
	return wall
}

// Mention is one indexable string with the entity it refers to.
type Mention struct {
	Text   string
	Entity kg.EntityID
}

// Corpus is the set of mentions a local lookup service indexes. The paper's
// baselines index only entity labels ("titles"); including aliases blows up
// the index (790 MB vs 63 MB for ST-Wikidata in the paper) which is why the
// corpus makes alias inclusion explicit.
type Corpus struct {
	Mentions []Mention
}

// CorpusFromGraph extracts the mention corpus from g. With includeAliases
// false only canonical labels are indexed.
func CorpusFromGraph(g *kg.Graph, includeAliases bool) *Corpus {
	c := &Corpus{}
	for i := range g.Entities {
		e := &g.Entities[i]
		c.Mentions = append(c.Mentions, Mention{Text: e.Label, Entity: e.ID})
		if includeAliases {
			for _, a := range e.Aliases {
				c.Mentions = append(c.Mentions, Mention{Text: a, Entity: e.ID})
			}
		}
	}
	return c
}

// SizeBytes approximates the raw text payload of the corpus, used to report
// index-size comparisons.
func (c *Corpus) SizeBytes() int {
	n := 0
	for _, m := range c.Mentions {
		n += len(m.Text) + 4
	}
	return n
}

// DedupeTopK collapses duplicate entities in a ranked candidate list
// (multiple mentions can map to one entity), keeping the best-scored
// occurrence and truncating to k.
func DedupeTopK(cands []Candidate, k int) []Candidate {
	seen := make(map[kg.EntityID]bool, len(cands))
	out := make([]Candidate, 0, k)
	for _, c := range cands {
		if seen[c.ID] {
			continue
		}
		seen[c.ID] = true
		out = append(out, c)
		if len(out) == k {
			break
		}
	}
	return out
}
