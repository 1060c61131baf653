package index

import (
	"context"
	"fmt"
	"slices"
	"sync"
	"sync/atomic"

	"emblookup/internal/mathx"
)

// appender is implemented by sealed indexes that can absorb rows at the end
// of their storage; compaction re-encodes the delta segment through it.
type appender interface {
	// appendRows returns a new index: the receiver's rows, then rows
	// (row-major) under ids from Len() on. It writes no byte the receiver
	// can read (a reader, a parent model or a read-only mapping may hold it).
	appendRows(rows []float32) Index
}

// grow returns a fresh copy of s with n zero elements after it.
func grow[T any](s []T, n int) []T {
	out := make([]T, len(s)+n)
	copy(out, s)
	return out
}

// clipAll copies lists with every list's capacity clipped, so a list's
// first append moves it to a backing of its own.
func clipAll[T any](lists [][]T) [][]T {
	out := make([][]T, len(lists))
	for i, l := range lists {
		out[i] = slices.Clip(l)
	}
	return out
}

// appendRows implements appender: the raw rows, verbatim.
func (f *Flat) appendRows(rows []float32) Index {
	m := f.data
	return NewFlat(&mathx.Matrix{Rows: m.Rows + len(rows)/m.Cols, Cols: m.Cols, Data: slices.Concat(m.Data, rows)})
}

// appendRows implements appender: each row is encoded with the sealed
// quantizer — no retraining.
func (ix *PQ) appendRows(rows []float32) Index {
	m, d := ix.pq.M, ix.pq.D
	out := &PQ{pq: ix.pq, n: ix.n + len(rows)/d, codes: grow(ix.codes, len(rows)/d*m)}
	for i := ix.n; i < out.n; i++ {
		ix.pq.EncodeInto(rows[(i-ix.n)*d:][:d], out.codes[i*m:][:m])
	}
	return out
}

// appendRows implements appender: each row joins its nearest coarse list —
// raw for IVF-Flat, as a residual code for IVF-PQ — and the exact vectors'
// tail (IVF-Flat, or IVF-PQ with re-ranking on); the sealed view is shared.
func (ix *IVF) appendRows(rows []float32) Index {
	out := *ix
	out.n += len(rows) / ix.dim
	out.lists, out.codes = clipAll(ix.lists), clipAll(ix.codes)
	if ix.vectors != nil {
		out.tail = slices.Concat(ix.tail, rows)
	}
	dists, res := make([]float32, ix.cols.K), make([]float32, ix.dim)
	for i := 0; i < len(rows); i += ix.dim {
		vec := rows[i : i+ix.dim]
		ix.cols.SquaredL2Into(vec, dists)
		best := 0
		for c, d := range dists {
			if d < dists[best] {
				best = c
			}
		}
		out.lists[best] = append(out.lists[best], int32(ix.n+i/ix.dim))
		if ix.pq != nil {
			for j, c := range ix.coarse.Row(best) {
				res[j] = vec[j] - c
			}
			buf := append(out.codes[best], make([]byte, ix.pq.M)...)
			ix.pq.EncodeInto(res, buf[len(buf)-ix.pq.M:])
			out.codes[best] = buf
		}
	}
	return &out
}

// DefaultCompactThreshold is the delta size that triggers compaction when
// NewDynamic is given no explicit threshold.
const DefaultCompactThreshold = 4096

// Dynamic makes a sealed index appendable at serve time: Add appends to a
// raw float delta segment, and no row is ever removed. A search scans both
// segments and merges under the canonical (Dist, ID) order, so results are
// exactly the top-k of every row. When the delta reaches the compaction
// threshold it is re-encoded with the base's own sealed quantizer (no
// retraining) into a new base. Row ids are stable: base rows keep ids
// [0, base.Len()), delta row j has id base.Len()+j, and compaction moves
// the delta to the end of the base in order, so every Add returns the next
// id and an external row→entity mapping stays append-only.
//
// The state is one immutable snapshot behind an atomic pointer (DESIGN.md
// §8): Search, Len, SizeBytes, Stats and Base load it once and take no
// lock, and Add, serialized on a mutex, publishes the next one. Nothing a
// published snapshot reads is written again, so a reader never waits on a
// writer and a compaction leaves the wrapped base, which a parent model
// may still serve, as it was. Each Add publishes one snapshot with one
// more row, so Len is also the generation of what a reader saw.
type Dynamic struct {
	snap     atomic.Pointer[dynSnapshot]
	mu       sync.Mutex // serializes Add
	dim      int
	maxDelta int
}

// dynSnapshot is one published state of a Dynamic.
type dynSnapshot struct {
	base  Index
	delta []float32 // the rows added since the last compaction, row-major
}

// NewDynamic wraps base (retained, never written) with an append-only delta
// segment. maxDelta is the delta size that triggers compaction (≤0 =
// DefaultCompactThreshold). Bases that cannot absorb appended rows (e.g. a
// Sharded wrapper, whose shard bounds are fixed at construction) still take
// adds — their delta is simply never compacted.
func NewDynamic(base Index, maxDelta int) *Dynamic {
	if maxDelta <= 0 {
		maxDelta = DefaultCompactThreshold
	}
	d := &Dynamic{dim: base.Dim(), maxDelta: maxDelta}
	d.snap.Store(&dynSnapshot{base: base})
	return d
}

// Len returns the number of rows in both segments.
func (d *Dynamic) Len() int { st := d.Stats(); return st.Base + st.Delta }

// Dim returns the vector dimensionality.
func (d *Dynamic) Dim() int { return d.dim }

// SizeBytes returns the base payload plus the raw delta segment.
func (d *Dynamic) SizeBytes() int {
	sn := d.snap.Load()
	return sn.base.SizeBytes() + len(sn.delta)*4
}

// Add appends a vector and returns its stable row id. Crossing the
// compaction threshold compacts inline: the caller (a served model's
// ingest worker) pays for the re-encode while searches read the last
// snapshot.
func (d *Dynamic) Add(vec []float32) int32 {
	if len(vec) != d.dim {
		panic(fmt.Sprintf("index: Dynamic.Add dimension %d, want %d", len(vec), d.dim))
	}
	d.mu.Lock()
	defer d.mu.Unlock()
	cur := d.snap.Load()
	id := int32(cur.base.Len() + len(cur.delta)/d.dim)
	// Older snapshots read a prefix of delta; after a compaction the next
	// delta starts on a backing of its own.
	next := &dynSnapshot{base: cur.base, delta: append(cur.delta, vec...)}
	if ap, ok := next.base.(appender); ok && len(next.delta) >= d.maxDelta*d.dim {
		next = &dynSnapshot{base: ap.appendRows(next.delta)}
	}
	d.snap.Store(next)
	return id
}

// Search implements Index: the k nearest rows, merged across the base and
// delta segments of one snapshot. ctx, s and a scratch-owned hit buffer
// pass through to the base search (which is done with s.res before the
// merge resets it), so a query costs one Scratch however deep the wrapping.
// Every delta id is above every base id, so the merged selection keeps the
// canonical (Dist, ID) tie order and equals a from-scratch scan of every
// row. Delta rows are scanned exhaustively.
func (d *Dynamic) Search(ctx context.Context, s *Scratch, q []float32, k int, dst []Result) ([]Result, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	if k <= 0 {
		return dst[:0], nil
	}
	sn := d.snap.Load()
	base, err := sn.base.Search(ctx, s, q, k, s.base)
	if err != nil {
		return nil, err
	}
	s.base = base
	t := &s.res
	t.reset(k)
	for _, r := range base {
		t.push(r.ID, r.Dist)
	}
	id := int32(sn.base.Len())
	for j := 0; j < len(sn.delta); j += d.dim {
		t.push(id, mathx.SquaredL2(q, sn.delta[j:j+d.dim]))
		id++
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
	sn := d.snap.Load()
	return DynamicStats{Base: sn.base.Len(), Delta: len(sn.delta) / d.dim}
}

// Base exposes the current sealed base index, which holds every row
// compacted so far; a compaction replaces it and never writes it.
func (d *Dynamic) Base() Index { return d.snap.Load().base }
