package core

import (
	"bufio"
	"encoding/gob"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"time"

	"emblookup/internal/artifact"
	"emblookup/internal/charenc"
	"emblookup/internal/index"
	"emblookup/internal/kg"
	"emblookup/internal/mathx"
	"emblookup/internal/ngram"
	"emblookup/internal/nn"
	"emblookup/internal/quant"
)

// gobFormatVersion is the newest gob format, which older builds wrote and
// this one only reads. Version 0 files are the original weights-only layout
// (pre-versioning, the field decodes to zero); version 2 adds the optional
// index artifact; version 3 adds the "fastscan" artifact kind. A gob stream
// stamped with a newer version is rejected. Re-saving a loaded gob model
// migrates it to v4; testdata/ holds the golden gob files that pin this
// reader.
const gobFormatVersion = 3

// modelWire is the gob form of a trained EmbLookup model: the weights, and
// optionally the built index as a wireIndex; the knowledge graph is
// attached by the caller.
type modelWire struct {
	Version       int
	Cfg           Config
	Alphabet      string
	Ngram         wireMatrix
	NgramCfg      [2]int // dim, buckets
	KnownMentions []int
	Params        []wireMatrix
	Index         *wireIndex
}

type wireMatrix struct {
	Rows, Cols int
	Data       []float32
}

// wireQuantizer is a serialized product quantizer: shape plus the M
// sub-codebooks.
type wireQuantizer struct {
	D, M, Ks, Dsub int
	Codebooks      []wireMatrix
}

// wireIndex is the index artifact: everything a cold start needs to attach
// the trained index without re-embedding the graph or re-running k-means.
// Exactly the fields for Kind are populated.
type wireIndex struct {
	Kind      string        // "flat" | "pq" | "fastscan" | "ivf-flat" | "ivf-pq"
	Rows      []kg.EntityID // index row -> entity
	Flat      wireMatrix    // flat
	Quant     wireQuantizer // pq, fastscan, ivf-pq
	Codes     []byte        // pq (row-major codes), fastscan (interleaved blocks)
	Coarse    wireMatrix    // ivf-flat, ivf-pq
	NProbe    int           // ivf-flat, ivf-pq
	Lists     [][]int32     // ivf-flat, ivf-pq
	ListCodes [][]byte      // ivf-pq
	Vectors   wireMatrix    // ivf-flat; ivf-pq re-rank vectors when Rerank > 1
	Rerank    int           // ivf-pq exact re-rank over-fetch factor (0 = off)
}

func fromWire(w wireMatrix) *mathx.Matrix {
	return &mathx.Matrix{Rows: w.Rows, Cols: w.Cols, Data: w.Data}
}

func quantizerFromWire(wq wireQuantizer) *quant.ProductQuantizer {
	q := &quant.ProductQuantizer{D: wq.D, M: wq.M, Ks: wq.Ks, Dsub: wq.Dsub}
	for _, cb := range wq.Codebooks {
		q.Codebooks = append(q.Codebooks, fromWire(cb))
	}
	return q
}

// parts hands the decoded index artifact to the index codec.
func (w *wireIndex) parts() *index.Parts {
	return &index.Parts{
		Kind:      w.Kind,
		Flat:      fromWire(w.Flat),
		Quant:     quantizerFromWire(w.Quant),
		Codes:     w.Codes, // the one gob field holds PQ codes or fast-scan blocks
		Blocks:    w.Codes,
		Coarse:    fromWire(w.Coarse),
		NProbe:    w.NProbe,
		Lists:     w.Lists,
		ListCodes: w.ListCodes,
		Vectors:   fromWire(w.Vectors),
		Rerank:    w.Rerank,
	}
}

// attachIndex adopts an index read from an artifact and its row map, once
// every row names an entity of the graph and the index holds vectors of the
// model's dimension. start is when the read began.
func (e *EmbLookup) attachIndex(ix index.Index, rows []kg.EntityID, start time.Time) error {
	for _, id := range rows {
		if int(id) < 0 || int(id) >= len(e.graph.Entities) {
			return fmt.Errorf("core: index artifact references entity %d outside the graph (%d entities) — wrong graph?", id, len(e.graph.Entities))
		}
	}
	if ix.Dim() != e.cfg.Dim {
		return fmt.Errorf("core: index artifact stores %d-dim vectors for a %d-dim model", ix.Dim(), e.cfg.Dim)
	}
	e.ix, e.rows = ix, rows
	e.prov = IndexProvenance{Source: "loaded", Took: time.Since(start)}
	return nil
}

// shapeHolds reports whether a rows × cols matrix is exactly n entries,
// without a product that could wrap.
func shapeHolds(rows, cols, n int) bool {
	return rows > 0 && cols > 0 && n%rows == 0 && n/rows == cols
}

// checkNgram verifies the stored subword table against the dimension and
// bucket count it is read with: Buckets × Dim entries, Dim the model's.
func checkNgram(cfg Config, dim, buckets, rows, cols, n int) error {
	if dim != cfg.Dim || rows != buckets || cols != dim || !shapeHolds(rows, cols, n) {
		return fmt.Errorf("core: subword table %dx%d (%d entries) for %d buckets of dimension %d, model dimension %d", rows, cols, n, buckets, dim, cfg.Dim)
	}
	return nil
}

// checkParamShapes verifies, before a reader allocates anything sized by
// cfg, that the n stored parameters are exactly the ones newLayers builds
// for cfg over an alphabet of alpha symbols, in masterParams order: the
// combiner's two layers (weights, bias), then each convolution layer's. A
// layer built afterwards is then no larger than what the artifact stores.
// shape(i) returns stored parameter i's rows, cols and entry count.
func checkParamShapes(cfg Config, alpha, n int, shape func(i int) (rows, cols, entries int)) error {
	layers := 0
	if !cfg.SingleModel {
		layers = cfg.CNNLayers
	}
	if n < 4 || (n-4)%2 != 0 || (n-4)/2 != layers {
		return fmt.Errorf("core: model shape mismatch: %d params stored for %d convolution layers", n, layers)
	}
	joint := cfg.Dim
	if cfg.MentionSlot {
		joint += cfg.Dim
	}
	if layers > 0 {
		joint += cfg.CNNChannels
	}
	for i := 0; i < n; i++ {
		var wr, wc int
		switch i {
		case 0:
			wr, wc = cfg.Hidden, joint
		case 1:
			wr, wc = cfg.Hidden, 1
		case 2:
			wr, wc = cfg.Dim, cfg.Hidden
		case 3:
			wr, wc = cfg.Dim, 1
		default:
			in := alpha
			if i >= 6 {
				in = cfg.CNNChannels
			}
			wr, wc = cfg.CNNChannels, in*cfg.Kernel
			if i%2 == 1 {
				wc = 1
			}
		}
		if r, c, e := shape(i); r != wr || c != wc || !shapeHolds(r, c, e) {
			return fmt.Errorf("core: param %d shape %dx%d (%d entries), expected %dx%d", i, r, c, e, wr, wc)
		}
	}
	return nil
}

// newLayers builds a read model's layers for its config and alphabet; the
// reader then points every parameter at its stored values, which
// checkParamShapes has matched to these shapes.
func (e *EmbLookup) newLayers() {
	cfg := e.cfg
	rng := mathx.NewRNG(cfg.Seed)
	jointDim := cfg.Dim
	if cfg.MentionSlot {
		jointDim += cfg.Dim
	}
	if !cfg.SingleModel {
		e.cnn = nn.NewCharCNN(rng, e.enc.Alphabet.Size(), cfg.CNNChannels, cfg.Kernel, cfg.CNNLayers)
		jointDim += e.cnn.OutDim()
	}
	e.mlp = nn.NewMLP(rng, jointDim, cfg.Hidden, cfg.Dim)
}

// readGob deserializes the legacy gob formats (v0 weights-only, v2 index
// artifact, v3 fast-scan artifact).
func readGob(r io.Reader, g *kg.Graph) (*EmbLookup, error) {
	var wire modelWire
	if err := gob.NewDecoder(r).Decode(&wire); err != nil {
		return nil, err
	}
	if wire.Version > gobFormatVersion {
		return nil, fmt.Errorf("core: model format version %d is newer than this build supports (%d)", wire.Version, gobFormatVersion)
	}
	cfg := wire.Cfg
	if err := cfg.Validate(); err != nil {
		return nil, fmt.Errorf("core: model config: %w", err)
	}
	e := &EmbLookup{cfg: cfg, graph: g}
	e.enc = charenc.NewEncoder(charenc.NewAlphabet(wire.Alphabet), cfg.MaxLen)
	ng := wire.Ngram
	if err := checkNgram(cfg, wire.NgramCfg[0], wire.NgramCfg[1], ng.Rows, ng.Cols, len(ng.Data)); err != nil {
		return nil, err
	}
	err := checkParamShapes(cfg, e.enc.Alphabet.Size(), len(wire.Params), func(i int) (int, int, int) {
		w := wire.Params[i]
		return w.Rows, w.Cols, len(w.Data)
	})
	if err != nil {
		return nil, err
	}
	e.sem = ngram.NewModelForLoad(wire.NgramCfg[0], wire.NgramCfg[1])
	e.sem.Table = fromWire(ng)
	e.sem.SetKnownMentionHashes(wire.KnownMentions)
	e.newLayers()
	for i, p := range e.masterParams() {
		p.W.Data = wire.Params[i].Data
	}
	if wire.Index != nil {
		start := time.Now()
		ix, err := index.Assemble(wire.Index.parts(), len(wire.Index.Rows))
		if err != nil {
			return nil, err
		}
		if err := e.attachIndex(ix, wire.Index.Rows, start); err != nil {
			return nil, err
		}
	} else if err := e.buildIndex(); err != nil {
		return nil, err
	}
	return e, nil
}

// SaveFile writes the model weights to path (index rebuilt on load).
func (e *EmbLookup) SaveFile(path string) error {
	return e.saveFile(path, false)
}

// SaveFileWithIndex writes the model and its index artifact to path, so
// LoadFile attaches the index instead of rebuilding it.
func (e *EmbLookup) SaveFileWithIndex(path string) error {
	return e.saveFile(path, true)
}

func (e *EmbLookup) saveFile(path string, withIndex bool) error {
	return AtomicWriteFile(path, func(w io.Writer) error {
		return e.writeV4(w, withIndex)
	})
}

// AtomicWriteFile writes an artifact through fill into a temp file in
// path's directory, fsyncs it, and renames it into place — a reader (or a
// crash) never observes a half-written artifact, and an existing artifact
// at path survives a failed save untouched.
func AtomicWriteFile(path string, fill func(io.Writer) error) error {
	dir := filepath.Dir(path)
	f, err := os.CreateTemp(dir, filepath.Base(path)+".tmp*")
	if err != nil {
		return err
	}
	tmp := f.Name()
	cleanup := func(err error) error {
		f.Close()
		os.Remove(tmp)
		return err
	}
	bw := bufio.NewWriterSize(f, 1<<20)
	if err := fill(bw); err != nil {
		return cleanup(err)
	}
	if err := bw.Flush(); err != nil {
		return cleanup(err)
	}
	if err := f.Sync(); err != nil {
		return cleanup(err)
	}
	// CreateTemp's restrictive 0600 would otherwise stick to the artifact.
	if err := f.Chmod(0o644); err != nil {
		return cleanup(err)
	}
	if err := f.Close(); err != nil {
		os.Remove(tmp)
		return err
	}
	if err := os.Rename(tmp, path); err != nil {
		os.Remove(tmp)
		return err
	}
	return nil
}

// LoadFile reads a model saved with SaveFile or SaveFileWithIndex,
// attaching the saved index when present and rebuilding it over g
// otherwise. A v4 artifact is attached by mmap where supported — the
// payloads stay in the page cache and load time is independent of model
// size; call Close on the returned model to release the mapping. A gob file
// (formats v0–v3, written by older builds) is decoded onto the heap.
func LoadFile(path string, g *kg.Graph) (*EmbLookup, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	var prefix [8]byte
	n, _ := io.ReadFull(f, prefix[:])
	if artifact.Sniff(prefix[:n]) {
		f.Close()
		af, err := artifact.Open(path)
		if err != nil {
			return nil, err
		}
		e, err := readV4(af, g)
		if err != nil {
			af.Close()
			return nil, err
		}
		return e, nil
	}
	if _, err := f.Seek(0, io.SeekStart); err != nil {
		f.Close()
		return nil, err
	}
	defer f.Close()
	return readGob(bufio.NewReader(f), g)
}
