// Package tasks implements the four semantic-annotation tasks of Section II
// on top of any lookup.Service: Cell Entity Annotation (CEA), Column Type
// Annotation (CTA), collective Entity Disambiguation (EA), and Data Repair
// (DR). Each pipeline separates the lookup calls (instrumented, since the
// paper's speedup numbers measure exactly that component) from the
// system-specific candidate post-processing, so swapping the lookup service
// is transparent — the experimental design of Section IV.
package tasks

import (
	"time"

	"emblookup/internal/kg"
	"emblookup/internal/lookup"
	"emblookup/internal/metrics"
	"emblookup/internal/tabular"
)

// CellRef addresses one cell of one table in a dataset.
type CellRef struct {
	Table, Row, Col int
}

// Context is what a ranker sees when scoring candidates for a cell: the
// graph, the table, the cell position, the query text, and the column-type
// votes accumulated from every cell's candidates in the same column.
type Context struct {
	Graph     *kg.Graph
	Table     *tabular.Table
	Row, Col  int
	Query     string
	TypeVotes map[kg.TypeID]int
	// RowEntities are the currently assigned entities of the other cells
	// in the same row (kg.NoEntity when unassigned).
	RowEntities []kg.EntityID
}

// Ranker picks the final entity for a cell from its candidate set. A
// return of kg.NoEntity abstains.
type Ranker interface {
	Rank(ctx *Context, cands []lookup.Candidate) kg.EntityID
}

// RankerFunc adapts a function to the Ranker interface.
type RankerFunc func(ctx *Context, cands []lookup.Candidate) kg.EntityID

// Rank implements Ranker.
func (f RankerFunc) Rank(ctx *Context, cands []lookup.Candidate) kg.EntityID {
	return f(ctx, cands)
}

// TopCandidate is the trivial ranker: the service's best candidate.
var TopCandidate = RankerFunc(func(_ *Context, cands []lookup.Candidate) kg.EntityID {
	if len(cands) == 0 {
		return kg.NoEntity
	}
	return cands[0].ID
})

// Result carries a task run's predictions, accuracy, and the instrumented
// lookup time (wall plus virtual for simulated remote services).
type Result struct {
	Predictions map[CellRef]kg.EntityID
	Confusion   metrics.Confusion
	LookupTime  time.Duration
	LookupCalls int
}

// F1 is shorthand for the run's F-score.
func (r *Result) F1() float64 { return r.Confusion.F1() }

// lookupAll performs the candidate-generation pass for every entity cell of
// every table, timed. parallelism ≤0 uses one goroutine per the caller's
// contract with the service ("CPU mode"); >1 exercises bulk mode.
func lookupAll(ds *tabular.Dataset, svc lookup.Service, k, parallelism int) (map[CellRef][]lookup.Candidate, time.Duration, int) {
	var refs []CellRef
	var queries []string
	for ti, tb := range ds.Tables {
		for ri, row := range tb.Rows {
			for ci, cell := range row {
				if !cell.IsEntity() {
					continue
				}
				refs = append(refs, CellRef{Table: ti, Row: ri, Col: ci})
				queries = append(queries, cell.Text)
			}
		}
	}
	results, elapsed := lookup.Timed(svc, queries, k, parallelism)

	out := make(map[CellRef][]lookup.Candidate, len(refs))
	for i, r := range refs {
		out[r] = results[i]
	}
	return out, elapsed, len(queries)
}

// typeVotes tallies, per (table, column), how often each type appears among
// the candidates of the column's cells — the shared signal every
// column-aware ranker uses.
func typeVotes(ds *tabular.Dataset, cands map[CellRef][]lookup.Candidate) map[[2]int]map[kg.TypeID]int {
	votes := make(map[[2]int]map[kg.TypeID]int)
	for ref, cs := range cands {
		key := [2]int{ref.Table, ref.Col}
		m := votes[key]
		if m == nil {
			m = make(map[kg.TypeID]int)
			votes[key] = m
		}
		// Only the strongest few candidates vote, keeping noise cells from
		// flooding the tally.
		limit := 3
		for i, c := range cs {
			if i >= limit {
				break
			}
			e := ds.Graph.Entity(c.ID)
			if e == nil {
				continue
			}
			for _, t := range e.Types {
				m[t]++
			}
		}
	}
	return votes
}
