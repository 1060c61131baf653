package nn

import "emblookup/internal/mathx"

// Sparse one-hot fast path. The first convolution layer of the syntactic
// CNN always consumes a one-hot character matrix: each input column has at
// most a single 1. Exploiting that drops the first layer's cost from
// O(|A|·L·Out·K) to O(L·Out·K) in both directions — the dominant term of a
// training step, since the alphabet is several times wider than the hidden
// channels.

// ApplySparseOneHot computes the convolution over a one-hot input given the
// per-position alphabet indexes (-1 marks padding), matching Apply on the
// equivalent dense matrix.
func (c *Conv1D) ApplySparseOneHot(idx []int) *mathx.Matrix {
	y := mathx.NewMatrix(c.Out, len(idx))
	c.ApplySparseOneHotInto(idx, y)
	return y
}

// ApplySparseOneHotInto is ApplySparseOneHot into y, which must be
// Out×len(idx); every element is overwritten.
func (c *Conv1D) ApplySparseOneHotInto(idx []int, y *mathx.Matrix) {
	c.applySparseOneHotInto(idx, y, false)
}

// applySparseOneHotInto is ApplySparseOneHotInto with the inference ReLU
// fused into the store when relu is set (as Conv1D.applyInto does).
func (c *Conv1D) applySparseOneHotInto(idx []int, y *mathx.Matrix, relu bool) {
	L := len(idx)
	pad := (c.K - 1) / 2
	for o := 0; o < c.Out; o++ {
		w := c.Weight.W.Row(o)
		b := c.Bias.W.Data[o]
		yr := y.Row(o)
		for t := 0; t < L; t++ {
			s := b
			for k := 0; k < c.K; k++ {
				src := t + k - pad
				if src < 0 || src >= L {
					continue
				}
				ch := idx[src]
				if ch < 0 {
					continue
				}
				s += w[ch*c.K+k]
			}
			if relu {
				s = reluValue(s)
			}
			yr[t] = s
		}
	}
}

// BackwardSparseOneHot accumulates dWeight/dBias for a forward pass done
// with ApplySparseOneHot. The input gradient is not computed (the one-hot
// encoding is not learned).
func (c *Conv1D) BackwardSparseOneHot(idx []int, dy *mathx.Matrix) {
	L := len(idx)
	pad := (c.K - 1) / 2
	for o := 0; o < c.Out; o++ {
		gw := c.Weight.Grad.Row(o)
		dyr := dy.Row(o)
		var gb float32
		for t := 0; t < L; t++ {
			g := dyr[t]
			if g == 0 {
				continue
			}
			gb += g
			for k := 0; k < c.K; k++ {
				src := t + k - pad
				if src < 0 || src >= L {
					continue
				}
				ch := idx[src]
				if ch < 0 {
					continue
				}
				gw[ch*c.K+k] += g
			}
		}
		c.Bias.Grad.Data[o] += gb
	}
}

// ForwardIdx is the CharCNN training pass over sparse one-hot indexes. The
// returned cache must be passed to BackwardIdx.
func (m *CharCNN) ForwardIdx(idx []int) ([]float32, *CharCNNCache) {
	cache := &CharCNNCache{idx: idx}
	h := m.Convs[0].ApplySparseOneHot(idx)
	cache.masks = append(cache.masks, ReLUInPlace(h))
	for _, c := range m.Convs[1:] {
		var cc *ConvCache
		h, cc = c.Forward(h)
		cache.convCaches = append(cache.convCaches, cc)
		cache.masks = append(cache.masks, ReLUInPlace(h))
	}
	out, arg := GlobalMaxPool(h)
	cache.arg = arg
	cache.rows, cache.cols = h.Rows, h.Cols
	return out, cache
}

// BackwardIdx accumulates gradients for a ForwardIdx pass.
func (m *CharCNN) BackwardIdx(cache *CharCNNCache, dy []float32) {
	g := GlobalMaxPoolBackward(dy, cache.arg, cache.rows, cache.cols)
	for i := len(m.Convs) - 1; i >= 1; i-- {
		ReLUBackward(g, cache.masks[i])
		g = m.Convs[i].Backward(cache.convCaches[i-1], g)
	}
	ReLUBackward(g, cache.masks[0])
	m.Convs[0].BackwardSparseOneHot(cache.idx, g)
}
