package core

import (
	"fmt"
	"sync"
	"sync/atomic"

	"emblookup/internal/index"
	"emblookup/internal/kg"
)

// liveRows extends the trained row→entity mapping (e.rows) for rows
// inserted at serve time through a dynamic index: an immutable slice that a
// lookup reads with one atomic load and AddMention, serialized on mu,
// replaces with a longer one (appending past the end readers read).
type liveRows struct {
	mu  sync.Mutex
	ids atomic.Pointer[[]kg.EntityID]
}

// RowEntity maps an index row id to its entity, including rows appended
// live through AddMention. Partition nodes use it to translate search hits
// into globally meaningful entity ids even for delta rows.
func (e *EmbLookup) RowEntity(row int32) kg.EntityID {
	if int(row) < len(e.rows) {
		return e.rows[row]
	}
	return (*e.live.ids.Load())[int(row)-len(e.rows)]
}

// WithDynamicIndex returns a sibling service sharing this model's weights
// whose index is append-only: AddMention inserts new index rows while
// concurrent Lookup traffic keeps flowing (index.Dynamic merges the sealed
// base with the delta under the canonical result order), and no row is
// ever removed. maxDelta is the delta size that triggers compaction into a
// new base (≤0 = index default); this model's index is never written. Like
// every sibling it holds a reference to an attached artifact: close it.
func (e *EmbLookup) WithDynamicIndex(maxDelta int) *EmbLookup {
	clone, _ := e.derive(func(c *EmbLookup) error {
		c.ix, c.live = index.NewDynamic(e.ix, maxDelta), &liveRows{}
		c.live.ids.Store(&[]kg.EntityID{})
		return nil
	})
	return clone
}

// Dynamic exposes the mutable index, or nil when the service was not built
// with WithDynamicIndex.
func (e *EmbLookup) Dynamic() *index.Dynamic {
	dyn, _ := e.ix.(*index.Dynamic)
	return dyn
}

// AddMention embeds mention in the index (anchor) space and inserts it as a
// live index row resolving to entity id — the online path for new entities
// or newly learned aliases, with no retraining and no index rebuild. It
// returns the stable row id. All insertions must go through this method so
// the row→entity extension stays aligned with the index's id sequence.
func (e *EmbLookup) AddMention(mention string, id kg.EntityID) (int32, error) {
	dyn := e.Dynamic()
	if dyn == nil {
		return 0, fmt.Errorf("core: index is not mutable (build the service with WithDynamicIndex)")
	}
	if int(id) < 0 || int(id) >= len(e.graph.Entities) {
		return 0, fmt.Errorf("core: entity %d outside the graph (%d entities)", id, len(e.graph.Entities))
	}
	emb := e.IndexEmbed(mention)
	// The extension entry must be visible before the row becomes
	// searchable, and concurrent adds must pair row ids with entities in
	// one atomic step — hence the publish-then-Add order under one lock.
	e.live.mu.Lock()
	defer e.live.mu.Unlock()
	ids := append(*e.live.ids.Load(), id)
	e.live.ids.Store(&ids)
	return dyn.Add(emb), nil
}
