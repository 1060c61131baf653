// Package kg implements the knowledge-graph substrate of the reproduction:
// the ⟨E, T, P, F⟩ model from Section II of the paper (entities, types,
// properties, facts), fast label/alias lookup indexes, serialization, and a
// deterministic synthetic generator that stands in for the Wikidata and
// DBPedia dumps used by the original evaluation.
package kg

import (
	"fmt"
	"strings"
	"sync"
	"sync/atomic"
)

// EntityID identifies an entity within a Graph. IDs are dense indexes into
// Graph.Entities.
type EntityID int32

// TypeID identifies an entity type (class) within a Graph.
type TypeID int32

// PropID identifies a property (relation) within a Graph.
type PropID int32

// NoEntity is returned by lookups that find nothing.
const NoEntity EntityID = -1

// NoType marks the absence of a type (e.g. the root of the type hierarchy).
const NoType TypeID = -1

// Entity is a knowledge-graph entity: a canonical label plus zero or more
// aliases (the paper's "entity mentions", sourced from rdfs:label,
// skos:altLabel, and similar properties), and the set of types it belongs to.
type Entity struct {
	ID      EntityID
	Label   string
	Aliases []string
	Types   []TypeID
}

// Mentions returns the label followed by all aliases.
func (e *Entity) Mentions() []string {
	out := make([]string, 0, 1+len(e.Aliases))
	out = append(out, e.Label)
	out = append(out, e.Aliases...)
	return out
}

// Type is an entity class. Parent links form the type hierarchy used by the
// column-type-annotation task to pick the most specific common type.
type Type struct {
	ID     TypeID
	Name   string
	Parent TypeID
}

// Property is a relation between a subject entity and either an object
// entity or a literal.
type Property struct {
	ID     PropID
	Name   string
	Domain TypeID // expected subject type, NoType if unconstrained
	Range  TypeID // expected object type, NoType for literal-valued props
}

// Fact is a single ⟨subject, property, object⟩ triple. Exactly one of
// Object/Literal is meaningful: entity-valued facts set Object and leave
// Literal empty; literal-valued facts set Object to NoEntity.
type Fact struct {
	Subject EntityID
	Prop    PropID
	Object  EntityID
	Literal string
}

// Graph is an in-memory knowledge graph. The raw slices are the graph; the
// mention and adjacency indexes are derived from them by the first reader
// that needs one (ExactMatch; FactsFrom / FactsTo and what sits on them), so
// a process that only resolves labels pays for neither. Any number of
// goroutines may make that first read together; mutators need the exclusion
// from readers they always needed. Reindex after editing the slices directly.
type Graph struct {
	Name     string
	Entities []Entity
	Types    []Type
	Props    []Property
	Facts    []Fact

	mu       sync.Mutex                            // serialises the first-use builds
	mentions atomic.Pointer[map[string][]EntityID] // lowercased label/alias -> entities
	adj      atomic.Pointer[adjacency]
}

// adjacency: per entity, the indexes of the facts it is subject (out) or object (in) of.
type adjacency struct{ out, in [][]int32 }

// NewGraph returns an empty graph with the given name.
func NewGraph(name string) *Graph { return &Graph{Name: name} }

// derived returns *p, building it first if no reader has yet.
func derived[T any](g *Graph, p *atomic.Pointer[T], build func() *T) *T {
	if v := p.Load(); v != nil {
		return v
	}
	g.mu.Lock()
	defer g.mu.Unlock()
	if p.Load() == nil {
		p.Store(build())
	}
	return p.Load()
}

// Indexed reports whether any reader has made the graph derive an index.
func (g *Graph) Indexed() bool { return g.mentions.Load() != nil || g.adj.Load() != nil }

// Clone returns an independently growable copy of the graph: appending
// entities or facts to the clone never reallocates into (or reads from)
// the original's slices, and the clone derives its own lookup indexes. The
// per-entity alias and type slices are shared read-only — AddEntity only
// ever appends new Entity values, so both sides stay safe as long as
// callers never mutate an existing entity in place. Replicated serving
// uses this to give every node (and the router's control plane) a graph
// it can grow through ingest without coordinating with its siblings.
func (g *Graph) Clone() *Graph {
	return &Graph{
		Name:     g.Name,
		Entities: append([]Entity(nil), g.Entities...),
		Types:    append([]Type(nil), g.Types...),
		Props:    append([]Property(nil), g.Props...),
		Facts:    append([]Fact(nil), g.Facts...),
	}
}

// AddType appends a type and returns its ID.
func (g *Graph) AddType(name string, parent TypeID) TypeID {
	id := TypeID(len(g.Types))
	g.Types = append(g.Types, Type{ID: id, Name: name, Parent: parent})
	return id
}

// AddProperty appends a property and returns its ID.
func (g *Graph) AddProperty(name string, domain, rng TypeID) PropID {
	id := PropID(len(g.Props))
	g.Props = append(g.Props, Property{ID: id, Name: name, Domain: domain, Range: rng})
	return id
}

// AddEntity appends an entity and returns its ID, extending the mention
// index only if one exists.
func (g *Graph) AddEntity(label string, aliases []string, types ...TypeID) EntityID {
	id := EntityID(len(g.Entities))
	g.Entities = append(g.Entities, Entity{ID: id, Label: label, Aliases: aliases, Types: types})
	if m := g.mentions.Load(); m != nil {
		g.indexMentions(*m, id)
	}
	return id
}

// AddFact appends an entity-valued fact and drops the adjacency: the next
// read rebuilds it.
func (g *Graph) AddFact(s EntityID, p PropID, o EntityID) {
	g.Facts = append(g.Facts, Fact{Subject: s, Prop: p, Object: o})
	g.adj.Store(nil)
}

// AddLiteralFact appends a literal-valued fact.
func (g *Graph) AddLiteralFact(s EntityID, p PropID, lit string) {
	g.Facts = append(g.Facts, Fact{Subject: s, Prop: p, Object: NoEntity, Literal: lit})
	g.adj.Store(nil)
}

// Entity returns the entity with the given ID, or nil when out of range.
func (g *Graph) Entity(id EntityID) *Entity {
	if id < 0 || int(id) >= len(g.Entities) {
		return nil
	}
	return &g.Entities[id]
}

// Label returns the canonical label for id, or "" when out of range.
func (g *Graph) Label(id EntityID) string {
	if e := g.Entity(id); e != nil {
		return e.Label
	}
	return ""
}

// TypeName returns the name of type id, or "" when out of range.
func (g *Graph) TypeName(id TypeID) string {
	if id < 0 || int(id) >= len(g.Types) {
		return ""
	}
	return g.Types[id].Name
}

// PropName returns the name of property id, or "" when out of range.
func (g *Graph) PropName(id PropID) string {
	if id < 0 || int(id) >= len(g.Props) {
		return ""
	}
	return g.Props[id].Name
}

// Reindex rebuilds both indexes now: the call for code that edited the raw slices directly.
func (g *Graph) Reindex() {
	g.mentions.Store(g.buildMentions())
	g.adj.Store(g.buildAdjacency())
}

// buildMentions presizes the map to the exact mention count: no rehash at a million entities.
func (g *Graph) buildMentions() *map[string][]EntityID {
	mentions := 0
	for i := range g.Entities {
		mentions += 1 + len(g.Entities[i].Aliases)
	}
	m := make(map[string][]EntityID, mentions)
	for i := range g.Entities {
		g.indexMentions(m, EntityID(i))
	}
	return &m
}

func (g *Graph) indexMentions(m map[string][]EntityID, id EntityID) {
	e := &g.Entities[id]
	key := strings.ToLower(e.Label)
	m[key] = append(m[key], id)
	for _, a := range e.Aliases {
		key = strings.ToLower(a)
		m[key] = append(m[key], id)
	}
}

// buildAdjacency groups the fact indexes by subject and by object.
func (g *Graph) buildAdjacency() *adjacency {
	return &adjacency{
		out: g.factsBy(func(f *Fact) EntityID { return f.Subject }),
		in:  g.factsBy(func(f *Fact) EntityID { return f.Object }),
	}
}

// factsBy lists, per entity, the indexes of the facts whose key names it, ascending, CSR-style
// over one backing array. A list starts empty with its degree as capacity, so filling it cannot
// spill into its neighbour's and it ends capacity-clipped.
func (g *Graph) factsBy(key func(*Fact) EntityID) [][]int32 {
	n := len(g.Entities)
	off := make([]int, n+1)
	for i := range g.Facts {
		if k := key(&g.Facts[i]); k != NoEntity {
			off[k+1]++
		}
	}
	for i := 0; i < n; i++ {
		off[i+1] += off[i]
	}
	back, lists := make([]int32, off[n]), make([][]int32, n)
	for i := range lists {
		lists[i] = back[off[i]:off[i]:off[i+1]]
	}
	for i := range g.Facts {
		if k := key(&g.Facts[i]); k != NoEntity {
			lists[k] = append(lists[k], int32(i))
		}
	}
	return lists
}

// ExactMatch returns the entities whose label or alias equals q
// (case-insensitively). The returned slice is shared; callers must not
// modify it.
func (g *Graph) ExactMatch(q string) []EntityID {
	return (*derived(g, &g.mentions, g.buildMentions))[strings.ToLower(q)]
}

// FactsFrom returns the facts whose subject is id.
func (g *Graph) FactsFrom(id EntityID) []Fact {
	return g.facts(derived(g, &g.adj, g.buildAdjacency).out, id)
}

// FactsTo returns the facts whose object is id.
func (g *Graph) FactsTo(id EntityID) []Fact {
	return g.facts(derived(g, &g.adj, g.buildAdjacency).in, id)
}

// facts resolves one list; an entity added since the build has none (AddFact drops the adjacency).
func (g *Graph) facts(lists [][]int32, id EntityID) []Fact {
	if id < 0 || int(id) >= len(lists) {
		return nil
	}
	out := make([]Fact, len(lists[id]))
	for i, fi := range lists[id] {
		out[i] = g.Facts[fi]
	}
	return out
}

// Neighbors returns the distinct entities connected to id by any fact, in
// either direction.
func (g *Graph) Neighbors(id EntityID) []EntityID {
	seen := make(map[EntityID]bool)
	var out []EntityID
	for _, f := range g.FactsFrom(id) {
		if f.Object != NoEntity && !seen[f.Object] {
			seen[f.Object] = true
			out = append(out, f.Object)
		}
	}
	for _, f := range g.FactsTo(id) {
		if !seen[f.Subject] {
			seen[f.Subject] = true
			out = append(out, f.Subject)
		}
	}
	return out
}

// HasType reports whether entity id has type t, directly or through the
// type hierarchy.
func (g *Graph) HasType(id EntityID, t TypeID) bool {
	e := g.Entity(id)
	if e == nil {
		return false
	}
	for _, et := range e.Types {
		for cur := et; cur != NoType; cur = g.Types[cur].Parent {
			if cur == t {
				return true
			}
		}
	}
	return false
}

// TypeDepth returns the depth of t in the hierarchy (root types have depth 0).
func (g *Graph) TypeDepth(t TypeID) int {
	d := 0
	for cur := t; cur != NoType && int(cur) < len(g.Types); cur = g.Types[cur].Parent {
		if g.Types[cur].Parent == NoType {
			break
		}
		d++
	}
	return d
}

// Stats summarizes the graph for logging and Table I style reporting.
func (g *Graph) Stats() string {
	aliases := 0
	for i := range g.Entities {
		aliases += len(g.Entities[i].Aliases)
	}
	return fmt.Sprintf("%s: %d entities, %d aliases, %d types, %d props, %d facts",
		g.Name, len(g.Entities), aliases, len(g.Types), len(g.Props), len(g.Facts))
}
