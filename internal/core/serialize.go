package core

import (
	"bufio"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"time"

	"emblookup/internal/artifact"
	"emblookup/internal/index"
	"emblookup/internal/kg"
	"emblookup/internal/mathx"
	"emblookup/internal/nn"
)

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
func checkNgram(cfg Config, dim, buckets int, tbl *mathx.Matrix) error {
	if dim != cfg.Dim || tbl.Rows != buckets || tbl.Cols != dim || !shapeHolds(tbl.Rows, tbl.Cols, len(tbl.Data)) {
		return fmt.Errorf("core: subword table %dx%d (%d entries) for %d buckets of dimension %d, model dimension %d", tbl.Rows, tbl.Cols, len(tbl.Data), buckets, dim, cfg.Dim)
	}
	return nil
}

// checkParamShapes verifies, before a reader allocates anything sized by
// cfg, that the stored parameters are exactly the ones newLayers builds for
// cfg over an alphabet of alpha symbols, in masterParams order: the
// combiner's two layers (weights, bias), then each convolution layer's. A
// layer built afterwards is then no larger than what the artifact stores.
func checkParamShapes(cfg Config, alpha int, params []*mathx.Matrix) error {
	n := len(params)
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
		if p := params[i]; p.Rows != wr || p.Cols != wc || !shapeHolds(p.Rows, p.Cols, len(p.Data)) {
			return fmt.Errorf("core: param %d shape %dx%d (%d entries), expected %dx%d", i, p.Rows, p.Cols, len(p.Data), wr, wc)
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

// LoadFile attaches a model saved with SaveFile or SaveFileWithIndex: the
// saved index when present, otherwise one rebuilt over g. Where mmap is
// supported the payloads stay in the page cache and load time is
// independent of model size; call Close on the returned model to release
// the mapping. A file that is not a v4 artifact fails with an error that
// wraps artifact.ErrNotV4.
func LoadFile(path string, g *kg.Graph) (*EmbLookup, error) {
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
