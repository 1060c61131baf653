package core

import "emblookup/internal/index"

// WithPartition returns a sibling service sharing this model's trained
// weights whose index holds only the global row range [lo, hi) of the full
// index — the per-node artifact of a partitioned cluster (internal/cluster).
// Row ids in the partition index are local (0-based); the caller tracks the
// global offset lo. The slice shares the parent's storage where its layout
// allows (index.Slice) — nothing is re-embedded or retrained — and
// serializes through SaveFileWithIndex like any other model, so each
// cluster node's artifact carries exactly its slice.
//
// Supported for Flat, PQ, and FastScan indexes, the same restriction as
// sharded scans: all decompose by contiguous row range with per-row
// distances that do not depend on the range's position, which is what makes
// a partitioned search bit-identical to the single-process scan (DESIGN.md
// §9). Like every sibling it holds a reference to an attached artifact:
// close it.
func (e *EmbLookup) WithPartition(lo, hi int) (*EmbLookup, error) {
	return e.derive(func(c *EmbLookup) (err error) {
		if c.ix, err = index.Slice(e.ix, lo, hi); err == nil {
			c.rows, c.live = e.rows[lo:hi], nil
		}
		return err
	})
}
