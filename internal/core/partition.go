package core

import (
	"fmt"

	"emblookup/internal/index"
	"emblookup/internal/mathx"
)

// WithPartition returns a sibling service sharing this model's trained
// weights whose index holds only the global row range [lo, hi) of the full
// index — the per-node artifact of a partitioned cluster (internal/cluster).
// Row ids in the partition index are local (0-based); the caller tracks the
// global offset lo. The slice shares the parent's storage (codes, vectors,
// quantizer) — nothing is re-embedded or retrained — and serializes through
// SaveFileWithIndex like any other model, so each cluster node's artifact
// carries exactly its slice.
//
// Supported for Flat, PQ, and FastScan indexes, the same restriction as
// sharded scans: all decompose by contiguous row range with per-row distances that do not
// depend on the range's position, which is what makes a partitioned search
// bit-identical to the single-process scan (DESIGN.md §9). A Sharded
// wrapper is unwrapped first (shard count is a per-node serving choice).
func (e *EmbLookup) WithPartition(lo, hi int) (*EmbLookup, error) {
	ix := e.ix
	if sh, ok := ix.(*index.Sharded); ok {
		ix = sh.Inner()
	}
	if lo < 0 || hi > ix.Len() || lo > hi {
		return nil, fmt.Errorf("core: partition [%d, %d) outside index rows [0, %d)", lo, hi, ix.Len())
	}
	var part index.Index
	switch t := ix.(type) {
	case *index.Flat:
		// The slices are capacity-clipped: a later append (Dynamic
		// compaction on the partition) reallocates instead of writing into
		// the parent's rows past hi — or through a read-only mmap backing.
		m := t.Vectors()
		part = index.NewFlat(&mathx.Matrix{
			Rows: hi - lo,
			Cols: m.Cols,
			Data: m.Data[lo*m.Cols : hi*m.Cols : hi*m.Cols],
		})
	case *index.PQ:
		q := t.Quantizer()
		p, err := index.NewPQFromParts(q, t.Codes()[lo*q.M:hi*q.M:hi*q.M])
		if err != nil {
			return nil, err
		}
		part = p
	case *index.FastScan:
		// Interleaved blocks cannot alias parent storage at arbitrary
		// bounds, so the slice re-interleaves the rows into fresh blocks
		// (one pass over the partition's codes; the quantizer is shared).
		p, err := t.Slice(lo, hi)
		if err != nil {
			return nil, err
		}
		part = p
	default:
		return nil, fmt.Errorf("core: index type %T cannot be partitioned (want *index.Flat, *index.PQ, or *index.FastScan)", ix)
	}
	clone := *e
	clone.ix = part
	clone.rows = e.rows[lo:hi]
	clone.extra = nil
	return &clone, nil
}
