// Package triplet implements the triplet-mining process of Section III-B:
// for each knowledge-graph entity it generates (anchor, positive, negative)
// string triplets that encode semantic similarity (label ↔ alias pairs),
// syntactic similarity (label ↔ artificially misspelled label), and the
// type-based heuristic (label ↔ label of a same-type entity), with random
// entity labels as negatives. It also provides the easy/semi-hard/hard
// classification used by the online-mining half of training.
package triplet

import (
	"emblookup/internal/kg"
	"emblookup/internal/mathx"
	"emblookup/internal/par"
	"emblookup/internal/tabular"
)

// Triplet is one (anchor, positive, negative) training example.
type Triplet struct {
	Anchor, Positive, Negative string
}

// MinerConfig controls triplet generation. The paper's default budget is
// 100 triplets per entity: synonyms first (they number under 50 for 95% of
// entities), the remaining budget spent on syntactic perturbations, with a
// small share of type-based positives.
type MinerConfig struct {
	PerEntity int
	Seed      uint64

	// TypeShare is the fraction of the budget spent on same-type positive
	// pairs (the second heuristic of Section III-B). The default is 0.05.
	TypeShare float64

	// MaxEntities caps how many entities are mined (0 = all); useful for
	// the training-size sweeps of Figure 3.
	MaxEntities int

	// Related, when set, supplies the pool of related entities for the
	// type/property heuristic instead of the same-type buckets — e.g. the
	// nearest neighbors of a knowledge-graph embedding model, the
	// bootstrap direction the paper's conclusion sketches.
	Related func(kg.EntityID) []kg.EntityID
}

// DefaultMinerConfig mirrors the paper's defaults.
func DefaultMinerConfig() MinerConfig {
	return MinerConfig{PerEntity: 100, Seed: 29, TypeShare: 0.05}
}

// Mine generates the training triplets for g.
func Mine(g *kg.Graph, cfg MinerConfig) []Triplet {
	if cfg.PerEntity <= 0 {
		cfg.PerEntity = 100
	}
	rng := mathx.NewRNG(cfg.Seed)
	n := len(g.Entities)
	if n == 0 {
		return nil
	}
	limit := n
	if cfg.MaxEntities > 0 && cfg.MaxEntities < n {
		limit = cfg.MaxEntities
	}

	// Same-type pools for the type heuristic.
	byType := map[kg.TypeID][]kg.EntityID{}
	for i := range g.Entities {
		for _, t := range g.Entities[i].Types {
			byType[t] = append(byType[t], g.Entities[i].ID)
		}
	}

	negLabel := func() string {
		return g.Entities[rng.Intn(n)].Label
	}

	out := make([]Triplet, 0, limit*cfg.PerEntity/2)
	injector := &tabular.Injector{Fraction: 1}
	for i := 0; i < limit; i++ {
		e := &g.Entities[i]
		budget := cfg.PerEntity

		// 0. Identity triplets: the label as its own positive. These are
		// trivial for a plain embedding model but load-bearing for models
		// that treat queries and index rows asymmetrically (EmbLookup's
		// known-mention slot): they teach the query form of a label to map
		// onto its index form.
		identity := budget / 10
		if identity < 1 {
			identity = 1
		}
		for t := 0; t < identity && budget > 0; t++ {
			out = append(out, Triplet{Anchor: e.Label, Positive: e.Label, Negative: negLabel()})
			budget--
		}

		// 1. Semantic triplets: every alias is a positive. Half the
		// triplets anchor on the alias instead of the label: retrieval
		// compares d(query, ownLabel) against d(query, otherLabel), and
		// only query-anchored triplets constrain that exact ordering.
		for _, alias := range e.Aliases {
			if budget == 0 {
				break
			}
			if rng.Bool(0.5) {
				out = append(out, Triplet{Anchor: alias, Positive: e.Label, Negative: negLabel()})
			} else {
				out = append(out, Triplet{Anchor: e.Label, Positive: alias, Negative: negLabel()})
			}
			budget--
		}

		// 2. Related-entity positives: by default entities sharing a type
		// (Section III-B's heuristic); with cfg.Related, an arbitrary
		// relatedness source such as KG-embedding neighbors.
		typeBudget := int(float64(cfg.PerEntity) * cfg.TypeShare)
		for t := 0; t < typeBudget && budget > 0; t++ {
			var pool []kg.EntityID
			if cfg.Related != nil {
				pool = cfg.Related(e.ID)
			} else if len(e.Types) > 0 {
				pool = byType[e.Types[rng.Intn(len(e.Types))]]
			}
			if len(pool) < 1 {
				continue
			}
			other := pool[rng.Intn(len(pool))]
			if other == e.ID {
				continue
			}
			out = append(out, Triplet{Anchor: e.Label, Positive: g.Label(other), Negative: negLabel()})
			budget--
		}

		// 3. Syntactic triplets: perturb the label with the same noise
		// classes the evaluation injects, so the CNN sees realistic typos.
		// Half anchor on the noisy form (see the semantic case above).
		for budget > 0 {
			noisy := injector.Corrupt(e.Label, rng)
			if rng.Bool(0.5) {
				out = append(out, Triplet{Anchor: noisy, Positive: e.Label, Negative: negLabel()})
			} else {
				out = append(out, Triplet{Anchor: e.Label, Positive: noisy, Negative: negLabel()})
			}
			budget--
		}
	}
	return out
}

// SynonymPairs extracts the (label, alias) pairs used to train the semantic
// (fastText-substitute) model.
func SynonymPairs(g *kg.Graph) [][2]string {
	var out [][2]string
	for i := range g.Entities {
		e := &g.Entities[i]
		for _, a := range e.Aliases {
			out = append(out, [2]string{e.Label, a})
		}
	}
	return out
}

// Labels returns every entity label, the negative-sampling pool.
func Labels(g *kg.Graph) []string {
	out := make([]string, len(g.Entities))
	for i := range g.Entities {
		out[i] = g.Entities[i].Label
	}
	return out
}

// Hardness classifies a triplet's difficulty under the current embeddings,
// following Section III-B: easy triplets have zero loss, semi-hard triplets
// have positive loss but the negative is still farther than the positive,
// and hard triplets have the negative closer than the positive.
type Hardness int

const (
	// Easy: d(a,p) + margin <= d(a,n); the loss is zero.
	Easy Hardness = iota
	// SemiHard: d(a,p) < d(a,n) < d(a,p) + margin.
	SemiHard
	// Hard: d(a,n) <= d(a,p).
	Hard
)

// Classify returns the hardness of a triplet given the squared distances
// and the margin.
func Classify(dap, dan, margin float32) Hardness {
	switch {
	case dan <= dap:
		return Hard
	case dan < dap+margin:
		return SemiHard
	default:
		return Easy
	}
}

// SelectHard returns the subset of triplets that are semi-hard or hard
// under embed — the working set for the online-mining epochs (the second
// half of the paper's training schedule). The triplets are classified on
// `workers` goroutines (≤0 = GOMAXPROCS), so embed must be safe for
// concurrent use; the subset keeps the input order at every worker count.
func SelectHard(ts []Triplet, embed func(string) []float32, margin float32, workers int) []Triplet {
	keep := make([]bool, len(ts))
	par.ForEach(len(ts), workers, func(i int) {
		a, p, n := embed(ts[i].Anchor), embed(ts[i].Positive), embed(ts[i].Negative)
		keep[i] = Classify(mathx.SquaredL2(a, p), mathx.SquaredL2(a, n), margin) != Easy
	})
	var out []Triplet
	for i, k := range keep {
		if k {
			out = append(out, ts[i])
		}
	}
	return out
}
