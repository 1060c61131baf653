package kg

import (
	"bytes"
	"encoding/gob"
	"errors"
	"fmt"
	"io"
	"math"
	"os"

	"emblookup/internal/artifact"
)

// A graph file is an internal/artifact container (DESIGN.md §12): a "meta"
// JSON, one "strings" slab (every label, then alias, then literal, back to
// back) and these int32 sections: where each label / alias / literal ends in
// the slab; where each entity's run ends in alias_ends / in types; the type
// IDs; (subject, prop, object) per fact, object -1 taking the next literal.
var i32Sections = [...]string{"label_ends", "alias_ends", "literal_ends", "alias_idx", "type_idx", "types", "facts"}

// graphMeta is what does not grow with the entities, and two counts to check.
type graphMeta struct {
	Name            string
	Types           []Type
	Props           []Property
	Entities, Facts int
}

// Write serializes g to w as one flat container.
func (g *Graph) Write(w io.Writer) error {
	if !artifact.Supported() {
		return errors.New("kg: graph files are little-endian containers; this host cannot write one")
	}
	var slab []byte
	var labelEnds, aliasEnds, literalEnds, aliasIdx, typeIdx, types, facts []int32
	put := func(ends []int32, s string) []int32 {
		slab = append(slab, s...)
		return append(ends, int32(len(slab)))
	}
	for i := range g.Entities {
		labelEnds = put(labelEnds, g.Entities[i].Label)
	}
	for i := range g.Entities {
		for _, a := range g.Entities[i].Aliases {
			aliasEnds = put(aliasEnds, a)
		}
		aliasIdx = append(aliasIdx, int32(len(aliasEnds)))
		for _, t := range g.Entities[i].Types {
			types = append(types, int32(t))
		}
		typeIdx = append(typeIdx, int32(len(types)))
	}
	for _, f := range g.Facts {
		facts = append(facts, int32(f.Subject), int32(f.Prop), int32(f.Object))
		if f.Object == NoEntity {
			literalEnds = put(literalEnds, f.Literal)
		} else if f.Literal != "" {
			return fmt.Errorf("kg: fact (%d, %d, %d) carries both an object and a literal", f.Subject, f.Prop, f.Object)
		}
	}
	if len(slab) > math.MaxInt32 {
		return fmt.Errorf("kg: %d bytes of strings exceed the graph file's int32 offsets", len(slab))
	}
	aw := artifact.NewWriter()
	aw.AddJSON("meta", graphMeta{g.Name, g.Types, g.Props, len(g.Entities), len(g.Facts)})
	aw.AddBytes("strings", slab)
	for i, data := range [...][]int32{labelEnds, aliasEnds, literalEnds, aliasIdx, typeIdx, types, facts} {
		aw.AddInt32s(i32Sections[i], data)
	}
	_, err := aw.WriteTo(w)
	return err
}

var errGraphFile = errors.New("kg: graph file sections disagree (offsets decrease, overrun, or counts differ)")

// readFlat decodes a container into a graph whose allocation count does not
// grow with it: every Label, alias and Literal is a substring of one slab
// string; all Aliases, and all Types, are capacity-clipped runs of one array
// (an append reallocates, never spills). Nothing points into af afterwards.
func readFlat(af *artifact.File) (*Graph, error) {
	var meta graphMeta
	ms, strs := af.Section("meta"), af.Section("strings")
	if ms == nil || strs == nil || ms.JSON(&meta) != nil {
		return nil, errors.New("kg: not a graph file: no meta JSON or no strings section")
	}
	var sec [len(i32Sections)][]int32
	for i, name := range i32Sections {
		s := af.Section(name)
		if s == nil || s.Elem != artifact.ElemI32 {
			return nil, fmt.Errorf("kg: graph file has no int32 section %q", name)
		}
		sec[i] = s.Int32s()
	}
	labelEnds, aliasEnds, literalEnds, aliasIdx, typeIdx, typeIDs, facts := sec[0], sec[1], sec[2], sec[3], sec[4], sec[5], sec[6]
	n, slab := len(labelEnds), string(strs.Bytes())
	if n != meta.Entities || len(aliasIdx) != n || len(typeIdx) != n || len(facts)%3 != 0 || len(facts)/3 != meta.Facts ||
		!ascending(len(slab), labelEnds, aliasEnds, literalEnds) ||
		!ascending(len(aliasEnds), aliasIdx) || !ascending(len(typeIDs), typeIdx) {
		return nil, errGraphFile
	}
	g := &Graph{Name: meta.Name, Types: meta.Types, Props: meta.Props, Entities: make([]Entity, n), Facts: make([]Fact, meta.Facts)}
	aliases, types := make([]string, len(aliasEnds)), make([]TypeID, len(typeIDs))
	pos, a0, t0, lit := int32(0), int32(0), int32(0), 0 // the last cut of the slab, of aliases, of types; literals taken
	for i := range g.Entities {
		e := &g.Entities[i]
		e.ID, e.Label, pos = EntityID(i), slab[pos:labelEnds[i]], labelEnds[i]
		if a1 := aliasIdx[i]; a1 > a0 {
			e.Aliases, a0 = aliases[a0:a1:a1], a1
		}
		if t1 := typeIdx[i]; t1 > t0 {
			e.Types, t0 = types[t0:t1:t1], t1
		}
	}
	for i, end := range aliasEnds {
		aliases[i], pos = slab[pos:end], end
	}
	for i, t := range typeIDs {
		types[i] = TypeID(t)
	}
	for i := range g.Facts {
		f := &g.Facts[i]
		f.Subject, f.Prop, f.Object = EntityID(facts[3*i]), PropID(facts[3*i+1]), EntityID(facts[3*i+2])
		if f.Object == NoEntity {
			if lit == len(literalEnds) {
				return nil, errGraphFile
			}
			f.Literal, pos, lit = slab[pos:literalEnds[lit]], literalEnds[lit], lit+1
		}
	}
	if lit != len(literalEnds) {
		return nil, errGraphFile
	}
	return g, g.validate()
}

// ascending: the offsets, read as one sequence, start at or after 0, never decrease and end at last.
func ascending(last int, seqs ...[]int32) bool {
	prev := int32(0)
	for _, s := range seqs {
		for _, end := range s {
			if end < prev {
				return false
			}
			prev = end
		}
	}
	return int(prev) == last
}

// validate rejects a decoded graph whose IDs are not dense or point outside it, or whose type
// hierarchy could cycle (a parent must precede its child): index builds and HasType check nothing.
func (g *Graph) validate() error {
	nE, nT, nP, ok := EntityID(len(g.Entities)), TypeID(len(g.Types)), PropID(len(g.Props)), true
	for i, t := range g.Types {
		ok = ok && t.ID == TypeID(i) && t.Parent >= NoType && t.Parent < t.ID
	}
	for i, p := range g.Props {
		ok = ok && p.ID == PropID(i) && p.Domain >= NoType && p.Domain < nT && p.Range >= NoType && p.Range < nT
	}
	for i := range g.Entities {
		ok = ok && g.Entities[i].ID == EntityID(i)
		for _, t := range g.Entities[i].Types {
			ok = ok && t >= 0 && t < nT
		}
	}
	for _, f := range g.Facts {
		ok = ok && f.Subject >= 0 && f.Subject < nE && f.Prop >= 0 && f.Prop < nP && f.Object >= NoEntity && f.Object < nE
	}
	if !ok {
		return errors.New("kg: graph IDs are not dense, or name a type, property or entity out of range")
	}
	return nil
}

// Read deserializes a Graph written by Write — or, read-only legacy, the gob
// stream Write produced before graph files were containers.
func Read(r io.Reader) (*Graph, error) {
	return decode(io.ReadAll(r))
}

// LoadFile reads a graph previously written with SaveFile.
func LoadFile(path string) (*Graph, error) {
	return decode(os.ReadFile(path))
}

func decode(data []byte, err error) (*Graph, error) {
	if err != nil {
		return nil, err
	}
	if !artifact.Sniff(data) {
		g := &Graph{} // gob matches the old wire struct's fields by name
		if err := gob.NewDecoder(bytes.NewReader(data)).Decode(g); err != nil {
			return nil, err
		}
		return g, g.validate()
	}
	af, err := artifact.Decode(data)
	if err != nil {
		return nil, err
	}
	return readFlat(af)
}

// SaveFile writes g to path, creating or truncating the file.
func (g *Graph) SaveFile(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	return errors.Join(g.Write(f), f.Close()) // a dozen large writes: no bufio needed
}
