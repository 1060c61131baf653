// Package refcount is a reference count in which zero is terminal: once the
// last reference is released no Acquire can take a new one, so whatever the
// count guards is torn down exactly once and never used after it. A retired
// model generation, a retired routing view and a mapped artifact all drain
// through it (DESIGN.md §14).
package refcount

import "sync/atomic"

// Count is a reference count whose zero value holds one reference, its
// creator's. Safe for concurrent use.
type Count struct {
	extra atomic.Int64 // references held beyond the first; negative once the last is gone
}

// Acquire takes one more reference and reports true, or reports false once
// the last reference is gone.
func (c *Count) Acquire() bool {
	for {
		n := c.extra.Load()
		if n < 0 {
			return false
		}
		if c.extra.CompareAndSwap(n, n+1) {
			return true
		}
	}
}

// Release drops one reference and reports whether it was the last. Releases
// past the last are no-ops that report false.
func (c *Count) Release() bool {
	return c.extra.Add(-1) == -1
}
