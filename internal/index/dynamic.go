package index

import (
	"context"
	"fmt"
	"sync"

	"emblookup/internal/mathx"
)

// appender is implemented by sealed indexes that can absorb one more row at
// the end of their storage (id = Len() before the append). Compaction uses
// it to re-encode the delta segment into the base. The caller must hold
// whatever lock protects concurrent searches.
type appender interface {
	appendRow(vec []float32)
}

// appendRow grows the stored matrix by one row. The matrix is shared with
// the caller of NewFlat; appending may reallocate its backing array.
func (f *Flat) appendRow(vec []float32) {
	f.data.Data = append(f.data.Data, vec...)
	f.data.Rows++
}

// appendRow encodes vec with the trained (sealed) quantizer and appends its
// code — no retraining, exactly how a PQ index absorbs new rows online.
func (ix *PQ) appendRow(vec []float32) {
	m := ix.pq.M
	ix.codes = append(ix.codes, make([]byte, m)...)
	ix.pq.EncodeInto(vec, ix.codes[ix.n*m:])
	ix.n++
}

// appendRow routes vec to its nearest coarse list and stores it there — raw
// for IVF-Flat, as a residual code for IVF-PQ.
func (ix *IVF) appendRow(vec []float32) {
	dists := make([]float32, ix.cols.K)
	ix.cols.SquaredL2Into(vec, dists)
	best, bestD := 0, float32(0)
	for c, d := range dists {
		if c == 0 || d < bestD {
			best, bestD = c, d
		}
	}
	id := int32(ix.n)
	ix.lists[best] = append(ix.lists[best], id)
	if ix.pq == nil {
		ix.vectors.Data = append(ix.vectors.Data, vec...)
		ix.vectors.Rows++
	} else {
		res := make([]float32, ix.dim)
		cRow := ix.coarse.Row(best)
		for j := range res {
			res[j] = vec[j] - cRow[j]
		}
		m := ix.pq.M
		buf := ix.codes[best]
		buf = append(buf, make([]byte, m)...)
		ix.pq.EncodeInto(res, buf[len(buf)-m:])
		ix.codes[best] = buf
	}
	ix.n++
}

// DefaultCompactThreshold is the delta size that triggers compaction when
// NewDynamic is given no explicit threshold.
const DefaultCompactThreshold = 4096

// Dynamic makes a sealed index appendable at serve time: the base index
// stays untouched on the hot path while Add appends to a raw float delta
// segment. The index is append-only: no row is ever removed. A search scans
// both segments and merges under the canonical (Dist, ID) order, so results
// are exactly the top-k of every row. When the delta reaches the compaction
// threshold it is re-encoded into the base with the base's own sealed
// quantizer (no retraining). Row ids are stable across Add and compaction:
// the base rows keep ids [0, base.Len()), delta row j has id base.Len()+j,
// and compaction moves the delta to the end of the base in order, so every
// Add returns the next id and an external row→entity mapping stays
// append-only. All methods are safe for concurrent use; searches share a
// read lock and Add serializes on a write lock.
type Dynamic struct {
	mu       sync.RWMutex
	base     Index
	delta    []float32 // the rows added since the last compaction, row-major
	rows     int       // rows in delta
	dim      int
	maxDelta int
}

// NewDynamic wraps base (retained, not copied) with an append-only delta
// segment. maxDelta is the delta size that triggers compaction (≤0 =
// DefaultCompactThreshold). Bases that cannot absorb appended rows (e.g. a
// Sharded wrapper, whose shard bounds are fixed at construction) still take
// adds — their delta is simply never compacted.
func NewDynamic(base Index, maxDelta int) *Dynamic {
	if maxDelta <= 0 {
		maxDelta = DefaultCompactThreshold
	}
	return &Dynamic{base: base, dim: base.Dim(), maxDelta: maxDelta}
}

// Len returns the number of rows in both segments.
func (d *Dynamic) Len() int {
	d.mu.RLock()
	defer d.mu.RUnlock()
	return d.base.Len() + d.rows
}

// Dim returns the vector dimensionality.
func (d *Dynamic) Dim() int { return d.dim }

// SizeBytes returns the base payload plus the raw delta segment.
func (d *Dynamic) SizeBytes() int {
	d.mu.RLock()
	defer d.mu.RUnlock()
	return d.base.SizeBytes() + len(d.delta)*4
}

// Add appends a vector and returns its stable row id. Crossing the
// compaction threshold compacts inline (the caller pays for the re-encode,
// keeping concurrent searches readers-only).
func (d *Dynamic) Add(vec []float32) int32 {
	if len(vec) != d.dim {
		panic(fmt.Sprintf("index: Dynamic.Add dimension %d, want %d", len(vec), d.dim))
	}
	d.mu.Lock()
	defer d.mu.Unlock()
	id := int32(d.base.Len() + d.rows)
	d.delta = append(d.delta, vec...)
	d.rows++
	if ap, ok := d.base.(appender); ok && d.rows >= d.maxDelta {
		for j := 0; j < d.rows; j++ {
			ap.appendRow(d.delta[j*d.dim : (j+1)*d.dim])
		}
		d.delta, d.rows = d.delta[:0], 0
	}
	return id
}

// Search implements Index: the k nearest rows, merged across the base and
// delta segments. ctx, s and a scratch-owned hit buffer pass through to the
// base search, so a cancelled context reaches a Sharded base's fan-out and
// a query costs one Scratch however deep the wrapping. (The base's search
// is finished with s.res before the merge below resets it.) Base row ids
// are the index's own ids and every delta id is larger, so the merged
// selection keeps the canonical (Dist, ID) tie order and equals a
// from-scratch scan of every row. Delta rows are scanned exhaustively.
func (d *Dynamic) Search(ctx context.Context, s *Scratch, q []float32, k int, dst []Result) ([]Result, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	if k <= 0 {
		return dst[:0], nil
	}
	d.mu.RLock()
	defer d.mu.RUnlock()
	base, err := d.base.Search(ctx, s, q, k, s.base)
	if err != nil {
		return nil, err
	}
	s.base = base
	t := &s.res
	t.reset(k)
	for _, r := range base {
		t.push(r.ID, r.Dist)
	}
	n := int32(d.base.Len())
	for j := 0; j < d.rows; j++ {
		t.push(n+int32(j), mathx.SquaredL2(q, d.delta[j*d.dim:(j+1)*d.dim]))
	}
	return t.appendSorted(dst), nil
}

// SearchWith implements ScratchSearcher.
func (d *Dynamic) SearchWith(s *Scratch, q []float32, k int) []Result { return searchWith(d, s, q, k) }

// DynamicStats snapshots the segment sizes for observability.
type DynamicStats struct {
	Base  int `json:"base"`  // rows sealed in the base segment
	Delta int `json:"delta"` // rows in the append-only delta segment
}

// Stats reports the current segment sizes.
func (d *Dynamic) Stats() DynamicStats {
	d.mu.RLock()
	defer d.mu.RUnlock()
	return DynamicStats{Base: d.base.Len(), Delta: d.rows}
}

// Base exposes the sealed base index, which holds every row compacted so
// far.
func (d *Dynamic) Base() Index { return d.base }
