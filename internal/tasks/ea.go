package tasks

import (
	"time"

	"emblookup/internal/kg"
	"emblookup/internal/lookup"
	"emblookup/internal/metrics"
)

// EAConfig controls collective entity disambiguation.
type EAConfig struct {
	// K is the candidate budget per mention.
	K int
	// Damping is the restart probability of the coherence walk (DoSeR uses
	// a personalized-PageRank-style propagation).
	Damping float64
	// Iterations of score propagation.
	Iterations int
	// Parallelism for the lookup pass.
	Parallelism int
}

// DefaultEAConfig mirrors DoSeR's usual settings.
func DefaultEAConfig() EAConfig {
	return EAConfig{K: 20, Damping: 0.85, Iterations: 10, Parallelism: 1}
}

// EAResult carries the disambiguation output for one mention list.
type EAResult struct {
	Assignments []kg.EntityID
	Confusion   metrics.Confusion
	LookupTime  time.Duration
	LookupCalls int
}

// F1 is shorthand for the run's F-score.
func (r *EAResult) F1() float64 { return r.Confusion.F1() }

// Disambiguate assigns one entity to each mention in a list, collectively:
// candidates come from svc, then scores propagate over the knowledge-graph
// links between candidates of different mentions (coherent candidate sets
// reinforce each other), in the style of DoSeR's PageRank disambiguation.
// truths may be nil when ground truth is unknown; otherwise it scores the
// assignment.
func Disambiguate(g *kg.Graph, svc lookup.Service, mentions []string, truths []kg.EntityID, cfg EAConfig) *EAResult {
	if cfg.K <= 0 {
		cfg.K = 20
	}
	if cfg.Iterations <= 0 {
		cfg.Iterations = 10
	}
	candLists, elapsed := lookup.Timed(svc, mentions, cfg.K, cfg.Parallelism)

	// Node set: (mention index, candidate). Prior = normalized lookup rank.
	type node struct {
		mention int
		id      kg.EntityID
	}
	var nodes []node
	prior := make([]float64, 0)
	byEntity := make(map[kg.EntityID][]int) // entity -> node indexes
	for mi, cands := range candLists {
		for rank, c := range cands {
			nodes = append(nodes, node{mention: mi, id: c.ID})
			prior = append(prior, 1.0/float64(rank+1))
			byEntity[c.ID] = append(byEntity[c.ID], len(nodes)-1)
		}
	}
	// Normalize priors per mention.
	sumPerMention := make([]float64, len(mentions))
	for i, n := range nodes {
		sumPerMention[n.mention] += prior[i]
	}
	for i, n := range nodes {
		if s := sumPerMention[n.mention]; s > 0 {
			prior[i] /= s
		}
	}

	// Edges: KG links between candidates of *different* mentions.
	adj := make([][]int, len(nodes))
	for i, n := range nodes {
		for _, nb := range g.Neighbors(n.id) {
			for _, j := range byEntity[nb] {
				if nodes[j].mention != n.mention {
					adj[i] = append(adj[i], j)
				}
			}
		}
	}

	// Personalized-PageRank-style propagation.
	score := append([]float64(nil), prior...)
	next := make([]float64, len(nodes))
	for it := 0; it < cfg.Iterations; it++ {
		for i := range next {
			next[i] = (1 - cfg.Damping) * prior[i]
		}
		for i := range nodes {
			if len(adj[i]) == 0 || score[i] == 0 {
				continue
			}
			share := cfg.Damping * score[i] / float64(len(adj[i]))
			for _, j := range adj[i] {
				next[j] += share
			}
		}
		score, next = next, score
	}

	res := &EAResult{
		Assignments: make([]kg.EntityID, len(mentions)),
		LookupTime:  elapsed,
		LookupCalls: len(mentions),
	}
	for mi := range mentions {
		res.Assignments[mi] = kg.NoEntity
	}
	best := make([]float64, len(mentions))
	for i, n := range nodes {
		if res.Assignments[n.mention] == kg.NoEntity || score[i] > best[n.mention] {
			res.Assignments[n.mention] = n.id
			best[n.mention] = score[i]
		}
	}
	if truths != nil {
		for mi, pred := range res.Assignments {
			res.Confusion.Record(pred != kg.NoEntity, pred == truths[mi])
		}
	}
	return res
}
