package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"

	"emblookup/internal/lookup"
)

// hit is the part of a served result row the checks read. Scores travel as
// shortest-round-trip JSON floats, so equality below is bit equality.
type hit struct {
	ID    int32   `json:"id"`
	Score float64 `json:"score"`
}

type lookupBody struct {
	Results []hit `json:"results"`
	Partial bool  `json:"partial"`
}

// parseLookup decodes a /lookup reply (single node, tenant or router shape).
func parseLookup(body []byte) ([]hit, error) {
	var b lookupBody
	if err := json.Unmarshal(body, &b); err != nil {
		return nil, err
	}
	if b.Partial {
		return nil, fmt.Errorf("partial response")
	}
	return b.Results, nil
}

// parseBulk decodes a /bulk NDJSON reply into one hit list per cell.
func parseBulk(body []byte) ([][]hit, error) {
	var out [][]hit
	for _, line := range bytes.Split(bytes.TrimSpace(body), []byte{'\n'}) {
		hits, err := parseLookup(line)
		if err != nil {
			return nil, err
		}
		out = append(out, hits)
	}
	return out, nil
}

// sameAnswer reports whether a served answer equals the reference lookup:
// same entities in the same order with bit-identical scores.
func sameAnswer(got []hit, want []lookup.Candidate) bool {
	if len(got) != len(want) {
		return false
	}
	for i := range got {
		if got[i].ID != int32(want[i].ID) || math.Float64bits(got[i].Score) != math.Float64bits(want[i].Score) {
			return false
		}
	}
	return true
}

// sameUnlessIngested is sameAnswer for a reader racing an ingest stream: a
// served row may differ from the sealed reference only by an entity the
// stream attached a new mention to (its new row can enter the top-k or lift
// the entity's score), and the rows that are not such entities must be
// reference rows, in reference order.
func sameUnlessIngested(got []hit, want []lookup.Candidate, ingested map[int32]bool) bool {
	w := 0
	for _, h := range got {
		if ingested[h.ID] {
			continue
		}
		for w < len(want) && (int32(want[w].ID) != h.ID || math.Float64bits(want[w].Score) != math.Float64bits(h.Score)) {
			w++
		}
		if w == len(want) {
			return false
		}
		w++
	}
	return true
}

// quality accumulates recall@10 and top-1 accuracy over served answers.
type quality struct {
	n, top1 int
	recall  float64
}

func (q *quality) add(got []hit, p poolEntry) {
	q.n++
	if len(got) > 0 && got[0].ID == p.Truth {
		q.top1++
	}
	if len(p.Exact) == 0 {
		return
	}
	exact := make(map[int32]bool, len(p.Exact))
	for _, id := range p.Exact {
		exact[id] = true
	}
	found := 0
	for _, h := range got {
		if exact[h.ID] {
			found++
		}
	}
	q.recall += float64(found) / float64(len(p.Exact))
}

func (q *quality) recallAt10() float64   { return q.recall / float64(max(q.n, 1)) }
func (q *quality) top1Accuracy() float64 { return float64(q.top1) / float64(max(q.n, 1)) }
