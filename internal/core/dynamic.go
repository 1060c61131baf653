package core

import (
	"fmt"
	"sync"

	"emblookup/internal/index"
	"emblookup/internal/kg"
)

// extraRows extends the trained row→entity mapping for rows inserted at
// serve time through a dynamic index. The trained prefix (e.rows) is
// immutable and read lock-free on the hot path; only the extension pays a
// read lock, and only for rows that were actually added live.
type extraRows struct {
	mu  sync.RWMutex
	ids []kg.EntityID
}

// rowEntity maps an index row id to its entity. Rows past the trained
// mapping were appended through AddMention and live in the extension.
func (e *EmbLookup) rowEntity(row int32) kg.EntityID {
	if int(row) < len(e.rows) {
		return e.rows[row]
	}
	e.extra.mu.RLock()
	id := e.extra.ids[int(row)-len(e.rows)]
	e.extra.mu.RUnlock()
	return id
}

// RowEntity maps an index row id to its entity, including rows appended
// live through AddMention. Partition nodes use it to translate search hits
// into globally meaningful entity ids even for delta rows.
func (e *EmbLookup) RowEntity(row int32) kg.EntityID {
	if e.extra == nil || int(row) < len(e.rows) {
		return e.rows[row]
	}
	return e.rowEntity(row)
}

// WithDynamicIndex returns a sibling service sharing this model's weights
// whose index is append-only: AddMention inserts new index rows while
// concurrent Lookup traffic keeps flowing (index.Dynamic merges the sealed
// base with the delta under the canonical result order), and no row is
// ever removed. maxDelta is the delta size that triggers compaction back
// into the base (≤0 = index default). The wrapped index is retained and
// mutated by compaction, so the parent service must not keep serving from
// it. Like every sibling it holds a reference to an attached artifact:
// close it.
func (e *EmbLookup) WithDynamicIndex(maxDelta int) *EmbLookup {
	clone, _ := e.derive(func(c *EmbLookup) error {
		c.ix, c.extra = index.NewDynamic(e.ix, maxDelta), &extraRows{}
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
	// one atomic step — hence the append-then-Add order under one lock.
	e.extra.mu.Lock()
	e.extra.ids = append(e.extra.ids, id)
	row := dyn.Add(emb)
	e.extra.mu.Unlock()
	return row, nil
}
