package index

import (
	"fmt"
	"slices"

	"emblookup/internal/artifact"
	"emblookup/internal/mathx"
	"emblookup/internal/quant"
)

// This file is the index codec, the one place that knows how each index
// kind is laid out at rest: WriteSections takes a built index apart into
// artifact sections, ReadSections views them as parts and assemble puts
// the index back together — without re-running k-means or re-encoding a
// single row, and with every shape checked, so a truncated or mismatched
// artifact fails at attach instead of mis-indexing at the first lookup —
// and Slice cuts one to a contiguous row range. Assembled indexes share
// the given slices and matrices, never copy them.
//
// Index sections of a v4 model artifact, in file order (exactly the
// sections for the index kind exist; the model's own sections are listed
// in internal/core):
//
//	flat            f32    flat: the vector matrix
//	coarse          f32    ivf-*: coarse centroid matrix
//	list_offsets    i64    ivf-*: prefix offsets into list_ids (nlist+1)
//	list_ids        i32    ivf-*: concatenated inverted lists
//	cb_%d           f32    pq/fastscan/ivf-pq: sub-codebook m
//	codes           u8     pq: row-major codes
//	blocks          u8     fastscan in id order: 32-row interleaved blocks, verbatim
//	fs_blocks       u8     fastscan, clustered: the same, by position
//	fs_ids          i32    fastscan, clustered: the row id at each position
//	fs_bounds       i64    fastscan, clustered: prefix position offsets of
//	                       the clusters (clusters+1); an artifact without
//	                       the three is one cluster in id order. The
//	                       clustered blocks have a name of their own so a
//	                       build that predates the layout finds no blocks
//	                       and refuses the artifact at attach, instead of
//	                       reading positions as row ids
//	list_codes      u8     ivf-pq: concatenated per-list residual codes
//	vectors         f32    ivf-flat: the stored vectors; also written for
//	                       ivf-pq when Meta.Rerank > 1 (exact re-rank
//	                       pages candidate rows in from this mmap'd view)

// Meta is the index entry of a v4 artifact's JSON meta section: everything
// structural about the index that is not a bulk payload.
type Meta struct {
	Kind   string     `json:"kind"` // flat | pq | fastscan | ivf-flat | ivf-pq
	NProbe int        `json:"nprobe,omitempty"`
	Quant  *QuantMeta `json:"quant,omitempty"`
	// Rerank is the ivf-pq exact re-rank over-fetch factor; when > 1 the
	// artifact also carries a "vectors" section with the raw embeddings.
	Rerank int `json:"rerank,omitempty"`
}

// QuantMeta is a product quantizer's shape; its codebooks are the cb_%d
// sections.
type QuantMeta struct {
	D    int `json:"d"`
	M    int `json:"m"`
	Ks   int `json:"ks"`
	Dsub int `json:"dsub"`
}

// parts is an index taken apart: one field per index section, of which
// assemble reads exactly those Kind stores.
type parts struct {
	Kind      string
	Flat      *mathx.Matrix           // flat
	Quant     *quant.ProductQuantizer // pq, fastscan, ivf-pq
	Codes     []byte                  // pq: row-major codes
	Blocks    []byte                  // fastscan: interleaved blocks (fs_blocks when clustered)
	IDs       []int32                 // fastscan, clustered: position → row id
	Clusters  []int64                 // fastscan, clustered: cluster position bounds
	Coarse    *mathx.Matrix           // ivf-*
	NProbe    int                     // ivf-*
	Lists     [][]int32               // ivf-*
	ListCodes [][]byte                // ivf-pq
	Vectors   *mathx.Matrix           // ivf-flat; ivf-pq re-rank vectors when Rerank > 1
	Rerank    int                     // ivf-pq exact re-rank over-fetch factor (0 = off)
}

// WriteSections takes ix apart into aw's index sections and returns the
// meta entry describing them. Inverted lists are concatenated with a
// prefix-offset table; everything else is stored verbatim. A Sharded
// wrapper is unwrapped (shard count is a serving-time choice, re-applied
// after load); a Dynamic index is refused, because its delta segment is
// serving state, not an artifact.
func WriteSections(aw *artifact.Writer, ix Index) (*Meta, error) {
	if sh, ok := ix.(*Sharded); ok {
		ix = sh.inner
	}
	mi := &Meta{}
	switch t := ix.(type) {
	case *Flat:
		mi.Kind = "flat"
		aw.AddFloat32s("flat", t.data.Data, t.data.Rows, t.data.Cols)
	case *PQ:
		mi.Kind = "pq"
		mi.Quant = addQuantizer(aw, t.pq)
		aw.AddBytes("codes", t.codes)
	case *FastScan:
		mi.Kind = "fastscan"
		mi.Quant = addQuantizer(aw, t.pq)
		if t.ids == nil {
			aw.AddBytes("blocks", t.blocks)
			break
		}
		bounds := make([]int64, len(t.bounds))
		for i, b := range t.bounds {
			bounds[i] = int64(b)
		}
		aw.AddBytes("fs_blocks", t.blocks)
		aw.AddInt32s("fs_ids", t.ids)
		aw.AddInt64s("fs_bounds", bounds)
	case *IVF:
		aw.AddFloat32s("coarse", t.coarse.Data, t.coarse.Rows, t.coarse.Cols)
		mi.NProbe = t.nprobe
		offsets := []int64{0}
		var ids []int32
		for _, l := range t.lists {
			ids = append(ids, l...)
			offsets = append(offsets, int64(len(ids)))
		}
		aw.AddInt64s("list_offsets", offsets)
		aw.AddInt32s("list_ids", ids)
		mi.Kind = "ivf-flat"
		if t.pq != nil {
			mi.Kind, mi.Rerank = "ivf-pq", t.rerank
			mi.Quant = addQuantizer(aw, t.pq)
			var codes []byte
			for _, c := range t.codes {
				codes = append(codes, c...)
			}
			aw.AddBytes("list_codes", codes)
		}
		if t.vectors != nil {
			// A compacted index's appended rows follow the sealed view.
			aw.AddFloat32s("vectors", append(slices.Clip(t.vectors.Data), t.tail...), t.n, t.dim)
		}
	default:
		return nil, fmt.Errorf("index: %T has no serialized form", ix)
	}
	return mi, nil
}

// addQuantizer emits the M sub-codebooks as cb_%d sections.
func addQuantizer(aw *artifact.Writer, q *quant.ProductQuantizer) *QuantMeta {
	for m, cb := range q.Codebooks {
		aw.AddFloat32s(fmt.Sprintf("cb_%d", m), cb.Data, cb.Rows, cb.Cols)
	}
	return &QuantMeta{D: q.D, M: q.M, Ks: q.Ks, Dsub: q.Dsub}
}

// ReadSections puts the index m describes back together over zero-copy
// views of af's sections, and holds it to n rows, the length of the
// artifact's row map. Sections are viewed wherever present; which of them
// the kind needs is assemble's business. Nothing here allocates
// proportionally to untrusted metadata.
func ReadSections(af *artifact.File, m *Meta, n int) (Index, error) {
	p := &parts{
		Kind:    m.Kind,
		Flat:    sectionMatrix(af, "flat"),
		Codes:   sectionBytes(af, "codes"),
		Blocks:  sectionBytes(af, "blocks"),
		Coarse:  sectionMatrix(af, "coarse"),
		NProbe:  m.NProbe,
		Vectors: sectionMatrix(af, "vectors"),
		Rerank:  m.Rerank,
	}
	if mq := m.Quant; mq != nil {
		if mq.M <= 0 || mq.M > 256 {
			return nil, fmt.Errorf("index: implausible quantizer M=%d", mq.M)
		}
		p.Quant = &quant.ProductQuantizer{D: mq.D, M: mq.M, Ks: mq.Ks, Dsub: mq.Dsub}
		for i := 0; i < mq.M; i++ {
			p.Quant.Codebooks = append(p.Quant.Codebooks, sectionMatrix(af, fmt.Sprintf("cb_%d", i)))
		}
	}
	if ids, bounds := af.Section("fs_ids"), af.Section("fs_bounds"); ids != nil || bounds != nil {
		if ids == nil || bounds == nil || ids.Elem != artifact.ElemI32 || bounds.Elem != artifact.ElemI64 {
			return nil, fmt.Errorf("index: fast-scan cluster sections need both fs_ids (i32) and fs_bounds (i64)")
		}
		p.Blocks, p.IDs, p.Clusters = sectionBytes(af, "fs_blocks"), ids.Int32s(), bounds.Int64s()
		if p.IDs == nil {
			p.IDs = []int32{}
		}
	}
	var err error
	if p.Lists, p.ListCodes, err = sectionLists(af, p.Quant); err != nil {
		return nil, err
	}
	return assemble(p, n)
}

// sectionMatrix views an F32 section as a matrix (nil when absent or of
// another element type).
func sectionMatrix(af *artifact.File, name string) *mathx.Matrix {
	s := af.Section(name)
	if s == nil || s.Elem != artifact.ElemF32 {
		return nil
	}
	return &mathx.Matrix{Rows: s.Rows, Cols: s.Cols, Data: s.Float32s()}
}

// sectionBytes views a section's payload (nil when absent).
func sectionBytes(af *artifact.File, name string) []byte {
	if s := af.Section(name); s != nil {
		return s.Bytes()
	}
	return nil
}

// sectionLists views the inverted lists (nil when absent) as cap-clipped
// sub-slices of the concatenated id array, and with a quantizer the
// per-list codes likewise — views over the backing, not copies, so
// attaching a million-entity IVF index allocates only the list headers.
func sectionLists(af *artifact.File, q *quant.ProductQuantizer) ([][]int32, [][]byte, error) {
	offSec, idsSec := af.Section("list_offsets"), af.Section("list_ids")
	if offSec == nil && idsSec == nil {
		return nil, nil, nil
	}
	if offSec == nil || idsSec == nil {
		return nil, nil, fmt.Errorf("index: IVF artifact is missing one of its list sections")
	}
	offsets, ids := offSec.Int64s(), idsSec.Int32s()
	if len(offsets) == 0 || offsets[0] != 0 || offsets[len(offsets)-1] != int64(len(ids)) {
		return nil, nil, fmt.Errorf("index: IVF list offsets do not span the id array")
	}
	lists := make([][]int32, len(offsets)-1)
	for i := range lists {
		lo, hi := offsets[i], offsets[i+1]
		if hi < lo || hi > int64(len(ids)) {
			return nil, nil, fmt.Errorf("index: IVF list %d has offsets [%d, %d) outside the %d stored ids", i, lo, hi, len(ids))
		}
		lists[i] = ids[lo:hi:hi]
	}
	codesSec := af.Section("list_codes")
	if q == nil || codesSec == nil {
		return lists, nil, nil
	}
	flat, m := codesSec.Bytes(), int64(q.M)
	if int64(len(flat)) != int64(len(ids))*m {
		return nil, nil, fmt.Errorf("index: IVF artifact holds %d code bytes for %d ids ×M=%d", len(flat), len(ids), m)
	}
	codes := make([][]byte, len(lists))
	for i := range codes {
		lo, hi := offsets[i]*m, offsets[i+1]*m
		codes[i] = flat[lo:hi:hi]
	}
	return lists, codes, nil
}

// assemble puts the index p describes back together, adopting its slices
// and matrices, and holds it to n rows, the length of the artifact's row
// map that every id a search returns is resolved through. It is the one
// reader of every index kind.
func assemble(p *parts, n int) (Index, error) {
	var ix Index
	var err error
	switch p.Kind {
	case "flat":
		if err = checkMatrix(p.Flat, "flat"); err == nil {
			ix = NewFlat(p.Flat)
		}
	case "pq":
		ix, err = assemblePQ(p)
	case "fastscan":
		ix, err = assembleFastScan(p, n)
	case "ivf-flat", "ivf-pq":
		ix, err = assembleIVF(p, n)
	default:
		err = fmt.Errorf("index: unknown index artifact kind %q", p.Kind)
	}
	if err != nil {
		return nil, err
	}
	if ix.Len() != n {
		return nil, fmt.Errorf("index: artifact maps %d rows but stores %d vectors", n, ix.Len())
	}
	return ix, nil
}

// checkMatrix rejects a missing matrix and one whose data does not fill
// its shape (the division keeps a forged shape's product from
// overflowing into a match).
func checkMatrix(m *mathx.Matrix, name string) error {
	if m == nil {
		return fmt.Errorf("index: artifact has no %s float32 matrix", name)
	}
	if m.Rows < 0 || m.Cols < 0 || (m.Cols > 0 && m.Rows != len(m.Data)/m.Cols) || m.Rows*m.Cols != len(m.Data) {
		return fmt.Errorf("index: %s matrix holds %d floats for %dx%d", name, len(m.Data), m.Rows, m.Cols)
	}
	return nil
}

// assembleQuantizer checks a product quantizer's internal consistency
// before any code is decoded against it, and makes the quantizer the index
// serves from its codebooks (quant.NewProductQuantizer, which lays them out
// for the distance kernel).
func assembleQuantizer(q *quant.ProductQuantizer) (*quant.ProductQuantizer, error) {
	if q == nil || q.M <= 0 || q.Ks <= 0 || q.Ks > 256 || q.Dsub <= 0 || q.D != q.M*q.Dsub {
		return nil, fmt.Errorf("index: missing or inconsistent quantizer")
	}
	if len(q.Codebooks) != q.M {
		return nil, fmt.Errorf("index: quantizer has %d codebooks, want M=%d", len(q.Codebooks), q.M)
	}
	for m, cb := range q.Codebooks {
		if cb == nil || cb.Cols != q.Dsub || cb.Rows == 0 || cb.Rows > q.Ks || len(cb.Data) != cb.Rows*cb.Cols {
			return nil, fmt.Errorf("index: codebook %d has bad shape", m)
		}
	}
	return quant.NewProductQuantizer(q.Ks, q.Codebooks), nil
}

// checkCodes rejects code bytes referencing centroids past the trained
// rows of their codebook — decoding such a code would index out of range.
func checkCodes(q *quant.ProductQuantizer, codes []byte) error {
	for i, b := range codes {
		if int(b) >= q.Codebooks[i%q.M].Rows {
			return fmt.Errorf("index: code byte %d references centroid %d of codebook %d (trained %d)", i, b, i%q.M, q.Codebooks[i%q.M].Rows)
		}
	}
	return nil
}

// assemblePQ reads a trained quantizer and its row-major codes.
func assemblePQ(p *parts) (*PQ, error) {
	q, err := assembleQuantizer(p.Quant)
	if err != nil {
		return nil, err
	}
	if len(p.Codes)%q.M != 0 {
		return nil, fmt.Errorf("index: code array length %d not a multiple of M=%d", len(p.Codes), q.M)
	}
	if err := checkCodes(q, p.Codes); err != nil {
		return nil, err
	}
	return &PQ{pq: q, codes: p.Codes, n: len(p.Codes) / q.M}, nil
}

// assembleFastScan reads a trained 4-bit quantizer and the interleaved
// blocks of n rows, and with a cluster layout its ids and bounds. Every
// nibble is validated: live rows must reference trained centroids and the
// padding rows of the final partial block must be zero. The ids must be a
// permutation of [0, n) and the bounds must run from 0 to n without
// falling; the clusters' code masks are recomputed from the codes, never
// read from the file, so no bound can disagree with the rows it covers.
func assembleFastScan(p *parts, n int) (*FastScan, error) {
	q, err := assembleQuantizer(p.Quant)
	if err != nil {
		return nil, err
	}
	if err := validate4(q); err != nil {
		return nil, err
	}
	if n < 0 || len(p.Blocks) != fsBlocksLen(q.M, n) {
		return nil, fmt.Errorf("index: fast-scan block array length %d for %d rows (want %d)", len(p.Blocks), n, fsBlocksLen(q.M, n))
	}
	ix := &FastScan{pq: q, blocks: p.Blocks, n: n}
	if p.IDs != nil {
		if ix.ids, ix.bounds, err = checkClusters(p.IDs, p.Clusters, n); err != nil {
			return nil, err
		}
		ix.growMasks()
	}
	nib := make([]byte, q.M)
	rows := (n + fsBlock - 1) / fsBlock * fsBlock
	for i, c := 0, 0; i < rows; i++ {
		ix.rowNibbles(i, nib)
		for m, v := range nib {
			if i >= n {
				if v != 0 {
					return nil, fmt.Errorf("index: fast-scan padding row %d holds non-zero nibble %d", i, v)
				}
				continue
			}
			if int(v) >= q.Codebooks[m].Rows {
				return nil, fmt.Errorf("index: fast-scan row %d references centroid %d of codebook %d (trained %d)", i, v, m, q.Codebooks[m].Rows)
			}
		}
		if ix.masks != nil && i < n {
			for i >= ix.bounds[c+1] {
				c++
			}
			ix.addMasks(c, nib)
		}
	}
	return ix, nil
}

// checkClusters holds a fast-scan cluster layout to n rows: ids a
// permutation of [0, n), bounds from 0 to n and never falling. It returns
// the bounds as ints.
func checkClusters(ids []int32, bounds []int64, n int) ([]int32, []int, error) {
	if len(ids) != n {
		return nil, nil, fmt.Errorf("index: fast-scan layout holds %d ids for %d rows", len(ids), n)
	}
	if len(bounds) < 2 || len(bounds) > n+2 || bounds[0] != 0 || bounds[len(bounds)-1] != int64(n) {
		return nil, nil, fmt.Errorf("index: fast-scan cluster bounds (%d) do not span %d rows", len(bounds), n)
	}
	out := make([]int, len(bounds))
	for c, b := range bounds {
		if c > 0 && b < bounds[c-1] {
			return nil, nil, fmt.Errorf("index: fast-scan cluster %d ends at %d before it starts at %d", c-1, b, bounds[c-1])
		}
		out[c] = int(b)
	}
	seen := make([]bool, n)
	for pos, id := range ids {
		if id < 0 || int(id) >= n || seen[id] {
			return nil, nil, fmt.Errorf("index: fast-scan position %d holds id %d: the ids are not a permutation of [0,%d)", pos, id, n)
		}
		seen[id] = true
	}
	return ids, out, nil
}

// assembleIVF reads the coarse centroids, the lists, and either the raw
// vectors (ivf-flat) or a residual quantizer with per-list codes (ivf-pq,
// plus the raw vectors when it re-ranks). The lists must hold n ids, each a
// row in [0, n).
func assembleIVF(p *parts, n int) (*IVF, error) {
	coarse := p.Coarse
	if err := checkMatrix(coarse, "coarse"); err != nil {
		return nil, err
	}
	if coarse.Rows == 0 || len(p.Lists) != coarse.Rows {
		return nil, fmt.Errorf("index: %d lists for %d coarse centroids", len(p.Lists), coarse.Rows)
	}
	total := 0
	for _, ids := range p.Lists {
		total += len(ids)
		for _, id := range ids {
			if id < 0 || int(id) >= n {
				return nil, fmt.Errorf("index: IVF list id %d outside rows [0,%d)", id, n)
			}
		}
	}
	if total != n {
		return nil, fmt.Errorf("index: IVF lists hold %d ids for %d rows", total, n)
	}
	ix := &IVF{coarse: coarse, cols: mathx.NewCentroids(coarse), dim: coarse.Cols, n: n, lists: p.Lists}
	ix.SetNProbe(p.NProbe)
	if p.Kind == "ivf-flat" {
		if err := checkMatrix(p.Vectors, "vectors"); err != nil {
			return nil, err
		}
		if p.Vectors.Rows != n || p.Vectors.Cols != coarse.Cols {
			return nil, fmt.Errorf("index: IVF-Flat vectors are %dx%d, index is %dx%d", p.Vectors.Rows, p.Vectors.Cols, n, coarse.Cols)
		}
		ix.vectors = p.Vectors
		return ix, nil
	}
	q, err := assembleQuantizer(p.Quant)
	if err != nil {
		return nil, err
	}
	if q.D != coarse.Cols {
		return nil, fmt.Errorf("index: residual quantizer dimensionality %d != coarse %d", q.D, coarse.Cols)
	}
	if len(p.ListCodes) != len(p.Lists) {
		return nil, fmt.Errorf("index: %d code lists for %d id lists", len(p.ListCodes), len(p.Lists))
	}
	for li, ids := range p.Lists {
		if len(p.ListCodes[li]) != len(ids)*q.M {
			return nil, fmt.Errorf("index: list %d holds %d ids but %d code bytes (want %d)", li, len(ids), len(p.ListCodes[li]), len(ids)*q.M)
		}
		if err := checkCodes(q, p.ListCodes[li]); err != nil {
			return nil, err
		}
	}
	ix.pq, ix.codes = q, p.ListCodes
	if p.Rerank > 1 {
		if err := checkMatrix(p.Vectors, "vectors"); err != nil {
			return nil, fmt.Errorf("index: IVF-PQ artifact declares rerank=%d: %w", p.Rerank, err)
		}
		if err := ix.SetRerank(p.Rerank, p.Vectors); err != nil {
			return nil, err
		}
	}
	return ix, nil
}

// Slice returns an index over rows [lo, hi) of ix, row ids rebased to 0 —
// the per-node index of a partitioned cluster. Flat and PQ slices alias
// ix's storage, capacity-clipped so no append through a slice reaches the
// parent's rows past hi (no index writes its storage after it is built; a
// Dynamic compaction copies). Interleaved fast-scan blocks cannot be
// aliased on non-block boundaries, so a FastScan slice re-interleaves its
// rows into fresh blocks (one pass over its codes; the quantizer is
// shared). These are the kinds whose per-row distances do not depend on a
// row's position, which makes a partitioned search bit-identical to the
// single-process scan (DESIGN.md §9); IVF is refused. A Sharded wrapper is
// unwrapped first (shard count is a per-node serving choice).
func Slice(ix Index, lo, hi int) (Index, error) {
	if sh, ok := ix.(*Sharded); ok {
		ix = sh.inner
	}
	if lo < 0 || hi > ix.Len() || lo > hi {
		return nil, fmt.Errorf("index: slice [%d, %d) outside rows [0, %d)", lo, hi, ix.Len())
	}
	switch t := ix.(type) {
	case *Flat:
		c := t.data.Cols
		return NewFlat(&mathx.Matrix{Rows: hi - lo, Cols: c, Data: t.data.Data[lo*c : hi*c : hi*c]}), nil
	case *PQ:
		m := t.pq.M
		return &PQ{pq: t.pq, codes: t.codes[lo*m : hi*m : hi*m], n: hi - lo}, nil
	case *FastScan:
		return sliceFastScan(t, lo, hi), nil
	}
	return nil, fmt.Errorf("index: %T cannot be sliced by rows (want *Flat, *PQ or *FastScan)", ix)
}

// sliceFastScan re-interleaves the rows of ids [lo, hi) into fresh blocks
// (one pass over the codes; the quantizer is shared). A clustered index
// keeps its layout: the slice holds each cluster's rows of the range, in
// the parent's position order, as a cluster of its own (empty ones
// dropped), with ids rebased and masks recomputed, so a partition node
// prunes as the single process does.
func sliceFastScan(t *FastScan, lo, hi int) *FastScan {
	out := &FastScan{pq: t.pq, n: hi - lo, blocks: make([]byte, fsBlocksLen(t.pq.M, hi-lo))}
	nib := make([]byte, t.pq.M)
	if t.ids == nil {
		for i := lo; i < hi; i++ {
			t.rowNibbles(i, nib)
			out.setRow(i-lo, nib)
		}
		return out
	}
	out.ids, out.bounds = make([]int32, 0, hi-lo), []int{0}
	for c := range t.clusters() {
		for pos := t.bounds[c]; pos < t.bounds[c+1]; pos++ {
			if id := int(t.ids[pos]); id >= lo && id < hi {
				t.rowNibbles(pos, nib)
				out.setRow(len(out.ids), nib)
				out.ids = append(out.ids, int32(id-lo))
			}
		}
		if len(out.ids) > out.bounds[len(out.bounds)-1] {
			out.bounds = append(out.bounds, len(out.ids))
		}
	}
	if len(out.bounds) == 1 {
		out.bounds = append(out.bounds, 0) // an empty slice: one empty cluster
	}
	out.computeMasks()
	return out
}
