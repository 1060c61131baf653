package core

import (
	"errors"
	"fmt"
	"io"
	"sort"
	"sync"
	"time"
	"unsafe"

	"emblookup/internal/artifact"
	"emblookup/internal/charenc"
	"emblookup/internal/index"
	"emblookup/internal/kg"
	"emblookup/internal/mathx"
	"emblookup/internal/ngram"
)

// This file is the format-v4 serializer: the model (and optional index
// artifact) laid out in the sectioned zero-copy container of
// internal/artifact, the one format a model is written and read in (a
// big-endian host refuses both). LoadFile attaches a v4 file by mmap: the
// index payloads (codes, vectors, inverted lists, codebooks, weights)
// become typed views over the page cache, making cold start O(sections),
// not O(model size).
//
// Model sections (the index sections, present when the model carries its
// index, are internal/index's; see its codec):
//
//	meta            JSON   config, alphabet, shapes, index.Meta
//	known_mentions  i64    sorted trained mention hashes (may be empty)
//	ngram_table     f32    Buckets×Dim subword table
//	param_%d        f32    combiner/CNN weight matrices, master order
//	rows            i32    index row → entity id
//
// File order: param_%d, the index sections, rows, meta, known_mentions,
// ngram_table.

// metaV4 is the JSON "meta" section: everything structural that is not a
// bulk payload.
type metaV4 struct {
	Cfg      Config      `json:"cfg"`
	Alphabet string      `json:"alphabet"`
	NgramDim int         `json:"ngram_dim"`
	NgramBk  int         `json:"ngram_buckets"`
	Params   [][2]int    `json:"params"` // shapes of param_%d, master order
	Index    *index.Meta `json:"index,omitempty"`
}

// rowsAsInt32 reinterprets the row→entity table for zero-copy IO
// (kg.EntityID is defined as int32).
func rowsAsInt32(rows []kg.EntityID) []int32 {
	if len(rows) == 0 {
		return nil
	}
	return unsafe.Slice((*int32)(unsafe.Pointer(&rows[0])), len(rows))
}

func int32AsRows(ids []int32) []kg.EntityID {
	if len(ids) == 0 {
		return nil
	}
	return unsafe.Slice((*kg.EntityID)(unsafe.Pointer(&ids[0])), len(ids))
}

// writeV4 serializes the model as a v4 artifact. The byte stream is
// deterministic: section order is fixed and the one map-ordered input (the
// known-mention set) is sorted.
func (e *EmbLookup) writeV4(w io.Writer, withIndex bool) error {
	if !artifact.Supported() {
		return errors.New("core: model files are little-endian containers; this host cannot write one")
	}
	aw := artifact.NewWriter()
	meta := metaV4{
		Cfg:      e.cfg,
		Alphabet: e.enc.Alphabet.Runes(),
		NgramDim: e.sem.Dim,
		NgramBk:  e.sem.Buckets,
	}

	known := e.sem.KnownMentionHashes()
	hashes := make([]int64, len(known))
	for i, h := range known {
		hashes[i] = int64(h)
	}
	sort.Slice(hashes, func(i, j int) bool { return hashes[i] < hashes[j] })

	params := e.masterParams()
	for i, p := range params {
		meta.Params = append(meta.Params, [2]int{p.W.Rows, p.W.Cols})
		aw.AddFloat32s(fmt.Sprintf("param_%d", i), p.W.Data, p.W.Rows, p.W.Cols)
	}

	if withIndex {
		mi, err := index.WriteSections(aw, e.ix)
		if err != nil {
			return err
		}
		meta.Index = mi
		aw.AddInt32s("rows", rowsAsInt32(e.rows))
	}

	aw.AddJSON("meta", meta)
	aw.AddInt64s("known_mentions", hashes)
	aw.AddFloat32s("ngram_table", e.sem.Table.Data, e.sem.Table.Rows, e.sem.Table.Cols)
	_, err := aw.WriteTo(w)
	return err
}

// sectionMatrix views an F32 section as a matrix. The returned matrix
// aliases the artifact backing (cap-clipped); callers must not mutate it.
func sectionMatrix(af *artifact.File, name string) (*mathx.Matrix, error) {
	s := af.Section(name)
	if s == nil {
		return nil, fmt.Errorf("core: artifact is missing section %q", name)
	}
	if s.Elem != artifact.ElemF32 || !shapeHolds(s.Rows, s.Cols, s.Len()) {
		return nil, fmt.Errorf("core: artifact section %q is not a float32 matrix", name)
	}
	return &mathx.Matrix{Rows: s.Rows, Cols: s.Cols, Data: s.Float32s()}, nil
}

// readV4 assembles a model from a parsed artifact. Weight matrices, the
// subword table, and every index payload alias the artifact backing
// (read-only); af's lifetime is handed to the model (Close releases it).
func readV4(af *artifact.File, g *kg.Graph) (*EmbLookup, error) {
	metaSec := af.Section("meta")
	if metaSec == nil {
		return nil, fmt.Errorf("core: artifact has no meta section")
	}
	var meta metaV4
	if err := metaSec.JSON(&meta); err != nil {
		return nil, fmt.Errorf("core: artifact meta: %w", err)
	}
	cfg := meta.Cfg
	if err := cfg.Validate(); err != nil {
		return nil, fmt.Errorf("core: artifact config: %w", err)
	}
	e := &EmbLookup{cfg: cfg, graph: g, backing: af, release: sync.OnceValue(af.Close)}
	e.enc = charenc.NewEncoder(charenc.NewAlphabet(meta.Alphabet), cfg.MaxLen)
	tbl, err := sectionMatrix(af, "ngram_table")
	if err != nil {
		return nil, err
	}
	if err := checkNgram(cfg, meta.NgramDim, meta.NgramBk, tbl); err != nil {
		return nil, err
	}
	params := make([]*mathx.Matrix, len(meta.Params))
	for i := range params {
		if params[i], err = sectionMatrix(af, fmt.Sprintf("param_%d", i)); err != nil {
			return nil, err
		}
	}
	if err := checkParamShapes(cfg, e.enc.Alphabet.Size(), params); err != nil {
		return nil, err
	}
	e.sem = ngram.NewModelForLoad(meta.NgramDim, meta.NgramBk)
	e.sem.Table = tbl

	kmSec := af.Section("known_mentions")
	if kmSec == nil {
		return nil, fmt.Errorf("core: artifact has no known_mentions section")
	}
	// The section is written sorted (writeV4), so it attaches directly as a
	// binary-searched view aliasing the mmap — the map rebuild this
	// replaced was the last O(n) component of a cold attach (~25ms of 31ms
	// at 1M entities).
	e.sem.SetKnownMentionView(kmSec.Int64s())

	e.newLayers()
	for i, p := range e.masterParams() {
		p.W.Data = params[i].Data
	}

	if meta.Index != nil {
		start := time.Now()
		rowsSec := af.Section("rows")
		if rowsSec == nil {
			return nil, fmt.Errorf("core: artifact declares an index but has no rows section")
		}
		rows := int32AsRows(rowsSec.Int32s())
		ix, err := index.ReadSections(af, meta.Index, len(rows))
		if err != nil {
			return nil, err
		}
		if err := e.attachIndex(ix, rows, start); err != nil {
			return nil, err
		}
	} else if err := e.buildIndex(); err != nil {
		return nil, err
	}
	e.prov.Backing = af.Backing()
	return e, nil
}
