package nn

import (
	"sync"

	"emblookup/internal/mathx"
)

// Scratch is the reusable working memory of one inference pass through the
// CharCNN and MLP: two ping-pong activation matrices (each conv layer reads
// one and writes the other), the pooled CNN output, and the MLP's hidden
// and output vectors. All buffers grow on demand and are retained between
// calls, so a worker that owns a Scratch runs the whole forward pass
// without allocating. The zero value is ready to use. A Scratch must not be
// used concurrently; slices returned by *Into methods alias it and are only
// valid until the next call with the same Scratch.
type Scratch struct {
	h      [2]mathx.Matrix
	pooled []float32
	hidden []float32
	out    []float32
}

// mat shapes ping-pong slot i to rows×cols, reusing its backing array.
func (s *Scratch) mat(i, rows, cols int) *mathx.Matrix {
	m := &s.h[i]
	m.Data = mathx.Resize(m.Data, rows*cols)
	m.Rows, m.Cols = rows, cols
	return m
}

var scratchPool = sync.Pool{New: func() any { return new(Scratch) }}

// Apply is the inference forward pass (concurrent-safe). The result is
// freshly allocated; hot paths use ApplyInto with a worker-owned Scratch.
func (m *CharCNN) Apply(x *mathx.Matrix) []float32 {
	s := scratchPool.Get().(*Scratch)
	defer scratchPool.Put(s)
	return append([]float32(nil), m.ApplyInto(x, s)...)
}

// ApplyInto is Apply with all intermediate activations taken from s. The
// returned slice is owned by s.
func (m *CharCNN) ApplyInto(x *mathx.Matrix, s *Scratch) []float32 {
	h := s.mat(0, m.Convs[0].Out, x.Cols)
	m.Convs[0].applyInto(x, h, true)
	return m.applyRest(h, s)
}

// ApplyIdx is the CharCNN inference pass over sparse one-hot indexes. The
// result is freshly allocated; hot paths use ApplyIdxInto.
func (m *CharCNN) ApplyIdx(idx []int) []float32 {
	s := scratchPool.Get().(*Scratch)
	defer scratchPool.Put(s)
	return append([]float32(nil), m.ApplyIdxInto(idx, s)...)
}

// ApplyIdxInto is ApplyIdx with all intermediate activations taken from s.
// The returned slice is owned by s.
func (m *CharCNN) ApplyIdxInto(idx []int, s *Scratch) []float32 {
	h := s.mat(0, m.Convs[0].Out, len(idx))
	m.Convs[0].applySparseOneHotInto(idx, h, true)
	return m.applyRest(h, s)
}

// applyRest runs the remaining conv layers, ReLU fused into each, over the
// first-layer activations in h (ping-pong slot 0) and pools.
func (m *CharCNN) applyRest(h *mathx.Matrix, s *Scratch) []float32 {
	slot := 1
	for _, c := range m.Convs[1:] {
		y := s.mat(slot, c.Out, h.Cols)
		c.applyInto(h, y, true)
		h = y
		slot ^= 1
	}
	s.pooled = mathx.Resize(s.pooled, h.Rows)
	GlobalMaxPoolInto(h, s.pooled)
	return s.pooled
}

// ApplyInto is the MLP inference pass with the hidden and output vectors
// taken from s. The returned slice is owned by s.
func (m *MLP) ApplyInto(x []float32, s *Scratch) []float32 {
	s.hidden = mathx.Resize(s.hidden, m.L1.Out)
	m.L1.ApplyInto(x, s.hidden)
	for i, v := range s.hidden {
		s.hidden[i] = reluValue(v)
	}
	s.out = mathx.Resize(s.out, m.L2.Out)
	m.L2.ApplyInto(s.hidden, s.out)
	return s.out
}
