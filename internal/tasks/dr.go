package tasks

import (
	"sort"
	"time"

	"emblookup/internal/kg"
	"emblookup/internal/lookup"
	"emblookup/internal/mathx"
	"emblookup/internal/metrics"
	"emblookup/internal/tabular"
)

// MaskedCell records one cell blanked for the repair task, with its truth.
type MaskedCell struct {
	Ref       CellRef
	TruthText string
	TruthID   kg.EntityID
}

// MaskCells blanks `fraction` of the non-subject entity cells of a copy of
// ds (the paper's DR setup replaces 10% of cells with missing values) and
// returns the masked dataset together with the hidden truths.
func MaskCells(ds *tabular.Dataset, fraction float64, seed uint64) (*tabular.Dataset, []MaskedCell) {
	rng := mathx.NewRNG(seed)
	out := ds.Clone()
	out.Name = ds.Name + "+masked"
	var masked []MaskedCell
	for ti, tb := range out.Tables {
		for ri := range tb.Rows {
			for ci := 1; ci < len(tb.Rows[ri]); ci++ { // never mask the subject column
				c := &tb.Rows[ri][ci]
				if !c.IsEntity() || !rng.Bool(fraction) {
					continue
				}
				masked = append(masked, MaskedCell{
					Ref:       CellRef{Table: ti, Row: ri, Col: ci},
					TruthText: c.Text,
					TruthID:   c.Truth,
				})
				c.Text = ""
				c.Truth = kg.NoEntity
			}
		}
	}
	return out, masked
}

// DRConfig controls data repair.
type DRConfig struct {
	// K is the candidate budget for the subject lookup.
	K int
	// Parallelism for the lookup pass.
	Parallelism int
}

// DefaultDRConfig uses k=20 sequential lookups.
func DefaultDRConfig() DRConfig { return DRConfig{K: 20, Parallelism: 1} }

// DRResult carries imputations and accuracy.
type DRResult struct {
	Imputed     map[CellRef]kg.EntityID
	Confusion   metrics.Confusion
	LookupTime  time.Duration
	LookupCalls int
}

// F1 is shorthand for the run's F-score.
func (r *DRResult) F1() float64 { return r.Confusion.F1() }

// Repair imputes the masked cells Katara-style: the row's subject cell is
// looked up through svc, candidate subjects are validated against the row's
// surviving cells (a candidate explaining more of the row wins), and the
// missing value is then read off the knowledge graph by following the
// masked column's relation from the chosen subject.
func Repair(masked *tabular.Dataset, cells []MaskedCell, svc lookup.Service, cfg DRConfig) *DRResult {
	if cfg.K <= 0 {
		cfg.K = 20
	}
	// One lookup per distinct row that needs repair.
	type rowKey struct{ table, row int }
	rowsNeeded := make(map[rowKey]bool)
	for _, mc := range cells {
		rowsNeeded[rowKey{mc.Ref.Table, mc.Ref.Row}] = true
	}
	var keys []rowKey
	var queries []string
	for k := range rowsNeeded {
		keys = append(keys, k)
	}
	// Deterministic order.
	sort.Slice(keys, func(a, b int) bool {
		if keys[a].table != keys[b].table {
			return keys[a].table < keys[b].table
		}
		return keys[a].row < keys[b].row
	})
	for _, k := range keys {
		queries = append(queries, masked.Tables[k.table].Rows[k.row][0].Text)
	}
	candLists, elapsed := lookup.Timed(svc, queries, cfg.K, cfg.Parallelism)

	subjects := make(map[rowKey]kg.EntityID, len(keys))
	for i, k := range keys {
		subjects[k] = chooseSubject(masked, k.table, k.row, candLists[i])
	}

	res := &DRResult{
		Imputed:     make(map[CellRef]kg.EntityID, len(cells)),
		LookupTime:  elapsed,
		LookupCalls: len(queries),
	}
	for _, mc := range cells {
		tb := masked.Tables[mc.Ref.Table]
		prop := tb.Cols[mc.Ref.Col].Prop
		subj := subjects[rowKey{mc.Ref.Table, mc.Ref.Row}]
		pred := kg.NoEntity
		if subj != kg.NoEntity && prop >= 0 {
			for _, f := range masked.Graph.FactsFrom(subj) {
				if f.Prop == prop && f.Object != kg.NoEntity {
					pred = f.Object
					break
				}
			}
		}
		res.Imputed[mc.Ref] = pred
		res.Confusion.Record(pred != kg.NoEntity, pred == mc.TruthID)
	}
	return res
}

// chooseSubject validates subject candidates against the row's surviving
// cells: the candidate whose facts explain the most row values wins.
func chooseSubject(ds *tabular.Dataset, ti, ri int, cands []lookup.Candidate) kg.EntityID {
	tb := ds.Tables[ti]
	best := kg.NoEntity
	bestScore := -1.0
	for rank, c := range cands {
		score := 1.0 / float64(rank+1)
		facts := ds.Graph.FactsFrom(c.ID)
		for ci := 1; ci < tb.NumCols(); ci++ {
			cell := tb.Rows[ri][ci]
			if cell.Text == "" {
				continue
			}
			prop := tb.Cols[ci].Prop
			for _, f := range facts {
				if f.Prop != prop {
					continue
				}
				if f.Object != kg.NoEntity && f.Object == cell.Truth {
					score += 2
				} else if f.Object == kg.NoEntity && f.Literal == cell.Text {
					score += 2
				}
			}
		}
		if score > bestScore {
			best, bestScore = c.ID, score
		}
	}
	return best
}
