package core

import (
	"errors"
	"fmt"
	"io"
	"sort"
	"time"
	"unsafe"

	"emblookup/internal/artifact"
	"emblookup/internal/charenc"
	"emblookup/internal/index"
	"emblookup/internal/kg"
	"emblookup/internal/mathx"
	"emblookup/internal/ngram"
	"emblookup/internal/nn"
	"emblookup/internal/quant"
)

// This file is the format-v4 serializer: the model (and optional index
// artifact) laid out in the sectioned zero-copy container of
// internal/artifact. SaveFile and SaveFileWithIndex write it and are the only
// way a model reaches disk (a big-endian host refuses); LoadFile sniffs the
// magic and accepts both v4 and the read-only gob formats v0–v3, so every
// artifact ever written still loads.
// LoadFile attaches a v4 file by mmap: the index payloads (codes, vectors,
// inverted lists, codebooks, weights) become typed views over the page
// cache, making cold start O(sections), not O(model size).
//
// Section inventory (exactly the sections for the model's index kind exist):
//
//	meta            JSON   config, alphabet, shapes, index kind, nprobe
//	known_mentions  i64    sorted trained mention hashes (may be empty)
//	ngram_table     f32    Buckets×Dim subword table
//	param_%d        f32    combiner/CNN weight matrices, master order
//	rows            i32    index row → entity id
//	flat            f32    flat: the vector matrix
//	cb_%d           f32    pq/fastscan/ivf-pq: sub-codebook m
//	codes           u8     pq: row-major codes
//	blocks          u8     fastscan: 32-row interleaved blocks, verbatim
//	coarse          f32    ivf-*: coarse centroid matrix
//	list_offsets    i64    ivf-*: prefix offsets into list_ids (nlist+1)
//	list_ids        i32    ivf-*: concatenated inverted lists
//	vectors         f32    ivf-flat: the stored vectors; also written for
//	                       ivf-pq when Config.Rerank > 1 (exact re-rank
//	                       pages candidate rows in from this mmap'd view)
//	list_codes      u8     ivf-pq: concatenated per-list residual codes
//
// Every view handed to the index constructors is cap-clipped, so the
// read-only-backing discipline holds: any append (Dynamic compaction,
// WithPartition growth) reallocates to the heap instead of writing through
// to the mapping.

// metaV4 is the JSON "meta" section: everything structural that is not a
// bulk payload.
type metaV4 struct {
	Cfg      Config       `json:"cfg"`
	Alphabet string       `json:"alphabet"`
	NgramDim int          `json:"ngram_dim"`
	NgramBk  int          `json:"ngram_buckets"`
	Params   [][2]int     `json:"params"` // shapes of param_%d, master order
	Index    *metaIndexV4 `json:"index,omitempty"`
}

type metaIndexV4 struct {
	Kind   string       `json:"kind"` // flat | pq | fastscan | ivf-flat | ivf-pq
	NProbe int          `json:"nprobe,omitempty"`
	Quant  *metaQuantV4 `json:"quant,omitempty"`
	// Rerank is the ivf-pq exact re-rank over-fetch factor; when > 1 the
	// artifact also carries a "vectors" section with the raw embeddings.
	Rerank int `json:"rerank,omitempty"`
}

type metaQuantV4 struct {
	D    int `json:"d"`
	M    int `json:"m"`
	Ks   int `json:"ks"`
	Dsub int `json:"dsub"`
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
		mi, err := e.indexSections(aw)
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

// addQuantizer emits the M sub-codebooks as cb_%d sections.
func addQuantizer(aw *artifact.Writer, q *quant.ProductQuantizer) *metaQuantV4 {
	for m, cb := range q.Codebooks {
		aw.AddFloat32s(fmt.Sprintf("cb_%d", m), cb.Data, cb.Rows, cb.Cols)
	}
	return &metaQuantV4{D: q.D, M: q.M, Ks: q.Ks, Dsub: q.Dsub}
}

// indexSections decomposes the model's built index into v4 sections — flat
// arrays the reader can view without copying. Inverted lists are
// concatenated with a prefix-offset table; everything else is stored
// verbatim. A Sharded wrapper is unwrapped (shard count is a serving-time
// choice, re-applied after load); a Dynamic index is refused, because its
// delta segment is serving state, not an artifact.
func (e *EmbLookup) indexSections(aw *artifact.Writer) (*metaIndexV4, error) {
	ix := e.ix
	if sh, ok := ix.(*index.Sharded); ok {
		ix = sh.Inner()
	}
	mi := &metaIndexV4{}
	switch t := ix.(type) {
	case *index.Flat:
		mi.Kind = "flat"
		m := t.Vectors()
		aw.AddFloat32s("flat", m.Data, m.Rows, m.Cols)
	case *index.PQ:
		mi.Kind = "pq"
		mi.Quant = addQuantizer(aw, t.Quantizer())
		aw.AddBytes("codes", t.Codes())
	case *index.FastScan:
		mi.Kind = "fastscan"
		mi.Quant = addQuantizer(aw, t.Quantizer())
		aw.AddBytes("blocks", t.Blocks())
	case *index.IVF:
		m := t.Coarse()
		aw.AddFloat32s("coarse", m.Data, m.Rows, m.Cols)
		mi.NProbe = t.NProbe()
		lists := t.Lists()
		offsets := make([]int64, len(lists)+1)
		total := 0
		for i, ids := range lists {
			offsets[i] = int64(total)
			total += len(ids)
		}
		offsets[len(lists)] = int64(total)
		ids := make([]int32, 0, total)
		for _, l := range lists {
			ids = append(ids, l...)
		}
		aw.AddInt64s("list_offsets", offsets)
		aw.AddInt32s("list_ids", ids)
		if q := t.Quantizer(); q != nil {
			mi.Kind = "ivf-pq"
			mi.Quant = addQuantizer(aw, q)
			codes := make([]byte, 0, total*q.M)
			for _, c := range t.ListCodes() {
				codes = append(codes, c...)
			}
			aw.AddBytes("list_codes", codes)
			if rr, rv := t.Rerank(); rv != nil {
				mi.Rerank = rr
				aw.AddFloat32s("vectors", rv.Data, rv.Rows, rv.Cols)
			}
		} else {
			mi.Kind = "ivf-flat"
			v := t.Vectors()
			aw.AddFloat32s("vectors", v.Data, v.Rows, v.Cols)
		}
	default:
		return nil, fmt.Errorf("core: index type %T has no serialized form", ix)
	}
	return mi, nil
}

// sectionMatrix views an F32 section as a matrix. The returned matrix
// aliases the artifact backing (cap-clipped); callers must not mutate it.
func sectionMatrix(af *artifact.File, name string) (*mathx.Matrix, error) {
	s := af.Section(name)
	if s == nil {
		return nil, fmt.Errorf("core: artifact is missing section %q", name)
	}
	if s.Elem != artifact.ElemF32 || s.Rows*s.Cols != s.Len() {
		return nil, fmt.Errorf("core: artifact section %q is not a float32 matrix", name)
	}
	return &mathx.Matrix{Rows: s.Rows, Cols: s.Cols, Data: s.Float32s()}, nil
}

func sectionBytes(af *artifact.File, name string) ([]byte, error) {
	s := af.Section(name)
	if s == nil {
		return nil, fmt.Errorf("core: artifact is missing section %q", name)
	}
	return s.Bytes(), nil
}

// quantizerFromSections reassembles a product quantizer over cb_%d views.
func quantizerFromSections(af *artifact.File, mq *metaQuantV4) (*quant.ProductQuantizer, error) {
	if mq == nil {
		return nil, fmt.Errorf("core: artifact index kind needs a quantizer but meta has none")
	}
	if mq.M <= 0 || mq.M > 256 {
		return nil, fmt.Errorf("core: implausible quantizer M=%d", mq.M)
	}
	q := &quant.ProductQuantizer{D: mq.D, M: mq.M, Ks: mq.Ks, Dsub: mq.Dsub}
	for m := 0; m < mq.M; m++ {
		cb, err := sectionMatrix(af, fmt.Sprintf("cb_%d", m))
		if err != nil {
			return nil, err
		}
		q.Codebooks = append(q.Codebooks, cb)
	}
	return q, nil
}

// indexFromSections reassembles the index artifact over zero-copy views and
// validates its row mapping against g — the v4 counterpart of
// indexFromWire. All shape validation lives in the index.New*FromParts
// constructors; nothing here allocates proportionally to untrusted metadata.
func indexFromSections(af *artifact.File, mi *metaIndexV4, g *kg.Graph) (index.Index, []kg.EntityID, error) {
	rowsSec := af.Section("rows")
	if rowsSec == nil {
		return nil, nil, fmt.Errorf("core: artifact declares an index but has no rows section")
	}
	rows := int32AsRows(rowsSec.Int32s())

	var ix index.Index
	var err error
	switch mi.Kind {
	case "flat":
		var m *mathx.Matrix
		if m, err = sectionMatrix(af, "flat"); err == nil {
			ix = index.NewFlat(m)
		}
	case "pq":
		var q *quant.ProductQuantizer
		var codes []byte
		if q, err = quantizerFromSections(af, mi.Quant); err == nil {
			if codes, err = sectionBytes(af, "codes"); err == nil {
				ix, err = index.NewPQFromParts(q, codes)
			}
		}
	case "fastscan":
		var q *quant.ProductQuantizer
		var blocks []byte
		if q, err = quantizerFromSections(af, mi.Quant); err == nil {
			if blocks, err = sectionBytes(af, "blocks"); err == nil {
				ix, err = index.NewFastScanFromParts(q, blocks, len(rows))
			}
		}
	case "ivf-flat", "ivf-pq":
		ix, err = ivfFromSections(af, mi)
	default:
		err = fmt.Errorf("core: unknown index artifact kind %q", mi.Kind)
	}
	if err != nil {
		return nil, nil, err
	}
	if len(rows) != ix.Len() {
		return nil, nil, fmt.Errorf("core: index artifact maps %d rows but stores %d vectors", len(rows), ix.Len())
	}
	for _, id := range rows {
		if int(id) < 0 || int(id) >= len(g.Entities) {
			return nil, nil, fmt.Errorf("core: index artifact references entity %d outside the graph (%d entities) — wrong graph?", id, len(g.Entities))
		}
	}
	return ix, rows, nil
}

// ivfFromSections rebuilds the inverted lists as cap-clipped sub-slices of
// the concatenated id (and code) arrays — per-list views over the backing,
// not copies, so attaching a million-entity IVF index allocates only the
// outer list headers.
func ivfFromSections(af *artifact.File, mi *metaIndexV4) (index.Index, error) {
	coarse, err := sectionMatrix(af, "coarse")
	if err != nil {
		return nil, err
	}
	offSec := af.Section("list_offsets")
	idsSec := af.Section("list_ids")
	if offSec == nil || idsSec == nil {
		return nil, fmt.Errorf("core: IVF artifact is missing its list sections")
	}
	offsets := offSec.Int64s()
	ids := idsSec.Int32s()
	if len(offsets) != coarse.Rows+1 {
		return nil, fmt.Errorf("core: IVF artifact holds %d list offsets for %d coarse centroids", len(offsets), coarse.Rows)
	}
	if len(offsets) == 0 || offsets[0] != 0 || offsets[len(offsets)-1] != int64(len(ids)) {
		return nil, fmt.Errorf("core: IVF list offsets do not span the id array")
	}
	lists := make([][]int32, coarse.Rows)
	for i := range lists {
		lo, hi := offsets[i], offsets[i+1]
		if lo < 0 || hi < lo || hi > int64(len(ids)) {
			return nil, fmt.Errorf("core: IVF list %d has offsets [%d, %d) outside the %d stored ids", i, lo, hi, len(ids))
		}
		lists[i] = ids[lo:hi:hi]
	}
	if mi.Kind == "ivf-flat" {
		vectors, err := sectionMatrix(af, "vectors")
		if err != nil {
			return nil, err
		}
		return index.NewIVFFromParts(coarse, mi.NProbe, lists, vectors, nil, nil)
	}
	q, err := quantizerFromSections(af, mi.Quant)
	if err != nil {
		return nil, err
	}
	flat, err := sectionBytes(af, "list_codes")
	if err != nil {
		return nil, err
	}
	if int64(len(flat)) != offsets[len(offsets)-1]*int64(q.M) {
		return nil, fmt.Errorf("core: IVF artifact holds %d code bytes for %d ids ×M=%d", len(flat), len(ids), q.M)
	}
	codes := make([][]byte, len(lists))
	for i := range codes {
		lo, hi := offsets[i]*int64(q.M), offsets[i+1]*int64(q.M)
		codes[i] = flat[lo:hi:hi]
	}
	ivf, err := index.NewIVFFromParts(coarse, mi.NProbe, lists, nil, q, codes)
	if err != nil {
		return nil, err
	}
	if mi.Rerank > 1 {
		vectors, err := sectionMatrix(af, "vectors")
		if err != nil {
			return nil, fmt.Errorf("core: IVF-PQ artifact declares rerank=%d: %w", mi.Rerank, err)
		}
		if err := ivf.SetRerank(mi.Rerank, vectors); err != nil {
			return nil, err
		}
	}
	return ivf, nil
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
	rng := mathx.NewRNG(cfg.Seed)
	e := &EmbLookup{cfg: cfg, graph: g, backing: af}
	e.enc = charenc.NewEncoder(charenc.NewAlphabet(meta.Alphabet), cfg.MaxLen)
	e.sem = ngram.NewModelForLoad(meta.NgramDim, meta.NgramBk)
	tbl, err := sectionMatrix(af, "ngram_table")
	if err != nil {
		return nil, err
	}
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

	jointDim := cfg.Dim
	if cfg.MentionSlot {
		jointDim += cfg.Dim
	}
	if !cfg.SingleModel {
		e.cnn = nn.NewCharCNN(rng, e.enc.Alphabet.Size(), cfg.CNNChannels, cfg.Kernel, cfg.CNNLayers)
		jointDim += e.cnn.OutDim()
	}
	e.mlp = nn.NewMLP(rng, jointDim, cfg.Hidden, cfg.Dim)

	params := e.masterParams()
	if len(params) != len(meta.Params) {
		return nil, fmt.Errorf("core: model shape mismatch: %d params stored, %d expected", len(meta.Params), len(params))
	}
	for i, p := range params {
		w, err := sectionMatrix(af, fmt.Sprintf("param_%d", i))
		if err != nil {
			return nil, err
		}
		if w.Rows != p.W.Rows || w.Cols != p.W.Cols {
			return nil, fmt.Errorf("core: param %d shape %dx%d, expected %dx%d", i, w.Rows, w.Cols, p.W.Rows, p.W.Cols)
		}
		p.W.Data = w.Data
	}

	if meta.Index != nil {
		start := time.Now()
		ix, rows, err := indexFromSections(af, meta.Index, g)
		if err != nil {
			return nil, err
		}
		e.ix, e.rows = ix, rows
		e.prov = IndexProvenance{Source: "loaded", Took: time.Since(start), Backing: af.Backing()}
		return e, nil
	}
	if err := e.buildIndex(); err != nil {
		return nil, err
	}
	e.prov.Backing = af.Backing()
	return e, nil
}
