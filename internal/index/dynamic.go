package index

import (
	"context"
	"fmt"
	"slices"
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
	best, bestD := 0, float32(0)
	for c := 0; c < ix.coarse.Rows; c++ {
		d := mathx.SquaredL2(vec, ix.coarse.Row(c))
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

// Dynamic makes a sealed index mutable at serve time: the base index stays
// untouched on the hot path while Add appends to a raw float delta segment
// and Delete tombstones ids in either segment. A search scans both segments
// and merges under the canonical (Dist, ID) order, so results are exactly
// the top-k of the live rows. When the delta reaches the compaction
// threshold it is re-encoded into the base with the base's own sealed
// quantizer (no retraining) and tombstoned delta rows vanish physically.
// Row ids are stable across Add, Delete, and compaction: the base rows keep
// ids [0, baseLen) and every Add returns the next id, so an external
// row→entity mapping stays append-only. All methods are safe for concurrent
// use; searches share a read lock and mutations serialize on a write lock.
type Dynamic struct {
	mu       sync.RWMutex
	base     Index
	baseIDs  []int32 // external id of each base row, strictly increasing
	deltaVec []float32
	deltaIDs []int32 // external id of each delta row, strictly increasing
	dead     map[int32]bool
	deadBase int // how many tombstoned ids live in the base segment
	nextID   int32
	dim      int
	maxDelta int
}

// NewDynamic wraps base (retained, not copied) with a mutable delta
// segment. maxDelta is the delta size that triggers compaction (≤0 =
// DefaultCompactThreshold). Bases that cannot absorb appended rows (e.g. a
// Sharded wrapper, whose shard bounds are fixed at construction) are still
// searchable and mutable — their delta is simply never compacted.
func NewDynamic(base Index, maxDelta int) *Dynamic {
	if maxDelta <= 0 {
		maxDelta = DefaultCompactThreshold
	}
	ids := make([]int32, base.Len())
	for i := range ids {
		ids[i] = int32(i)
	}
	return &Dynamic{
		base:     base,
		baseIDs:  ids,
		dead:     make(map[int32]bool),
		nextID:   int32(base.Len()),
		dim:      base.Dim(),
		maxDelta: maxDelta,
	}
}

// Len returns the number of live (non-tombstoned) vectors.
func (d *Dynamic) Len() int {
	d.mu.RLock()
	defer d.mu.RUnlock()
	return d.base.Len() + len(d.deltaIDs) - len(d.dead)
}

// Dim returns the vector dimensionality.
func (d *Dynamic) Dim() int { return d.dim }

// SizeBytes returns the base payload plus the raw delta segment.
func (d *Dynamic) SizeBytes() int {
	d.mu.RLock()
	defer d.mu.RUnlock()
	return d.base.SizeBytes() + len(d.deltaVec)*4
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
	id := d.nextID
	d.nextID++
	d.deltaVec = append(d.deltaVec, vec...)
	d.deltaIDs = append(d.deltaIDs, id)
	if len(d.deltaIDs) >= d.maxDelta {
		d.compactLocked()
	}
	return id
}

// Delete tombstones the row with the given id. It reports whether the id
// was present and live. The storage is reclaimed at the next compaction for
// delta rows; base rows stay tombstoned (a sealed segment never shrinks).
func (d *Dynamic) Delete(id int32) bool {
	d.mu.Lock()
	defer d.mu.Unlock()
	if d.dead[id] {
		return false
	}
	if _, ok := slices.BinarySearch(d.baseIDs, id); ok {
		d.dead[id] = true
		d.deadBase++
		return true
	}
	if _, ok := slices.BinarySearch(d.deltaIDs, id); ok {
		d.dead[id] = true
		return true
	}
	return false
}

// Compact re-encodes the delta segment into the base immediately,
// regardless of the threshold.
func (d *Dynamic) Compact() {
	d.mu.Lock()
	defer d.mu.Unlock()
	d.compactLocked()
}

func (d *Dynamic) compactLocked() {
	ap, ok := d.base.(appender)
	if !ok || len(d.deltaIDs) == 0 {
		return
	}
	for j, id := range d.deltaIDs {
		if d.dead[id] {
			// The row never reaches the base: this is the moment a deleted
			// delta row physically disappears.
			delete(d.dead, id)
			continue
		}
		ap.appendRow(d.deltaVec[j*d.dim : (j+1)*d.dim])
		d.baseIDs = append(d.baseIDs, id)
	}
	d.deltaVec = d.deltaVec[:0]
	d.deltaIDs = d.deltaIDs[:0]
}

// Search implements Index: the k nearest live rows, merged across the base
// and delta segments. ctx, s and a scratch-owned hit buffer pass through to
// the base search, so a cancelled context reaches a Sharded base's fan-out
// and a query costs one Scratch however deep the wrapping. (The base's
// search is finished with s.res before the merge below resets it.)
//
// Correctness of the merge: the base is over-fetched by the number of base
// tombstones, so after filtering the dead ids at least the k best live base
// rows are present; any live base row the over-fetch missed is canonically
// worse than all of them and can never enter the global top-k. Delta rows
// are scanned exhaustively. baseIDs is strictly increasing, so mapping base
// row ids to external ids preserves the canonical (Dist, ID) tie order and
// the merged selection equals a from-scratch scan of the live rows.
func (d *Dynamic) Search(ctx context.Context, s *Scratch, q []float32, k int, dst []Result) ([]Result, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	if k <= 0 {
		return dst[:0], nil
	}
	d.mu.RLock()
	defer d.mu.RUnlock()
	base, err := d.base.Search(ctx, s, q, k+d.deadBase, s.base)
	if err != nil {
		return nil, err
	}
	s.base = base
	t := &s.res
	t.reset(k)
	for _, r := range base {
		id := d.baseIDs[r.ID]
		if d.dead[id] {
			continue
		}
		t.push(id, r.Dist)
	}
	for j, id := range d.deltaIDs {
		if d.dead[id] {
			continue
		}
		t.push(id, mathx.SquaredL2(q, d.deltaVec[j*d.dim:(j+1)*d.dim]))
	}
	return t.appendSorted(dst), nil
}

// SearchWith implements ScratchSearcher.
func (d *Dynamic) SearchWith(s *Scratch, q []float32, k int) []Result { return searchWith(d, s, q, k) }

// DynamicStats snapshots the segment sizes for observability.
type DynamicStats struct {
	Base  int `json:"base"`  // rows sealed in the base segment
	Delta int `json:"delta"` // rows in the append-only delta segment
	Dead  int `json:"dead"`  // tombstoned rows still occupying storage
}

// Stats reports the current segment sizes.
func (d *Dynamic) Stats() DynamicStats {
	d.mu.RLock()
	defer d.mu.RUnlock()
	return DynamicStats{Base: d.base.Len(), Delta: len(d.deltaIDs), Dead: len(d.dead)}
}

// Base exposes the sealed base index (the serializer snapshots a Dynamic
// through its base after compaction).
func (d *Dynamic) Base() Index { return d.base }
