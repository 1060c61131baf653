package nn

import "emblookup/internal/mathx"

// CharCNN is the syntactic embedding model of Section III-B: a stack of 1-D
// convolutions with ReLU activations over the one-hot character matrix,
// aggregated by global max-pooling. The paper uses 5 layers of 8 kernels of
// size 3; both are configurable.
type CharCNN struct {
	Convs []*Conv1D
}

// NewCharCNN builds a CNN over inChannels (the alphabet size) with `layers`
// convolutions of `channels` kernels of size `kernel`.
func NewCharCNN(r *mathx.RNG, inChannels, channels, kernel, layers int) *CharCNN {
	m := &CharCNN{}
	in := inChannels
	for i := 0; i < layers; i++ {
		m.Convs = append(m.Convs, NewConv1D(r, in, channels, kernel))
		in = channels
	}
	return m
}

// OutDim returns the dimensionality of the pooled output.
func (m *CharCNN) OutDim() int {
	if len(m.Convs) == 0 {
		return 0
	}
	return m.Convs[len(m.Convs)-1].Out
}

// Params returns all learnable parameters.
func (m *CharCNN) Params() []*Param {
	var ps []*Param
	for _, c := range m.Convs {
		ps = append(ps, c.Params()...)
	}
	return ps
}

// CharCNNCache stores per-layer caches plus pooling bookkeeping. idx is
// set only on the sparse ForwardIdx path.
type CharCNNCache struct {
	convCaches []*ConvCache
	masks      [][]bool
	arg        []int
	rows, cols int
	idx        []int
}

// Forward computes the pooled embedding and the backward cache.
func (m *CharCNN) Forward(x *mathx.Matrix) ([]float32, *CharCNNCache) {
	cache := &CharCNNCache{}
	h := x
	for _, c := range m.Convs {
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

// Backward accumulates parameter gradients. The gradient with respect to the
// one-hot input is discarded (the input is not learned).
func (m *CharCNN) Backward(cache *CharCNNCache, dy []float32) {
	g := GlobalMaxPoolBackward(dy, cache.arg, cache.rows, cache.cols)
	for i := len(m.Convs) - 1; i >= 0; i-- {
		ReLUBackward(g, cache.masks[i])
		g = m.Convs[i].Backward(cache.convCaches[i], g)
	}
}

// TripletLoss computes the squared-L2 triplet loss of Equation 3,
// max(‖a−p‖² − ‖a−n‖² + margin, 0), and the gradients with respect to the
// three embeddings. For an inactive triplet (loss 0) the gradients are nil.
func TripletLoss(a, p, n []float32, margin float32) (loss float32, da, dp, dn []float32) {
	dap := mathx.SquaredL2(a, p)
	dan := mathx.SquaredL2(a, n)
	loss = dap - dan + margin
	if loss <= 0 {
		return 0, nil, nil, nil
	}
	da = make([]float32, len(a))
	dp = make([]float32, len(a))
	dn = make([]float32, len(a))
	for i := range a {
		// d/da (‖a−p‖² − ‖a−n‖²) = 2(a−p) − 2(a−n) = 2(n−p)
		da[i] = 2 * (n[i] - p[i])
		dp[i] = -2 * (a[i] - p[i])
		dn[i] = 2 * (a[i] - n[i])
	}
	return loss, da, dp, dn
}

// ContrastiveLoss is the alternative training objective the paper's
// conclusion proposes evaluating: instead of the relative triplet
// constraint, it penalizes the positive pair's distance absolutely and
// hinges the negative pair below the margin,
// L = ‖a−p‖² + max(0, margin − ‖a−n‖²). Gradients are nil only when both
// terms vanish.
func ContrastiveLoss(a, p, n []float32, margin float32) (loss float32, da, dp, dn []float32) {
	dap := mathx.SquaredL2(a, p)
	dan := mathx.SquaredL2(a, n)
	hinge := margin - dan
	if hinge < 0 {
		hinge = 0
	}
	loss = dap + hinge
	if loss == 0 {
		return 0, nil, nil, nil
	}
	da = make([]float32, len(a))
	dp = make([]float32, len(a))
	dn = make([]float32, len(a))
	for i := range a {
		// d/da ‖a−p‖² = 2(a−p); hinge active adds d/da −‖a−n‖² = −2(a−n).
		da[i] = 2 * (a[i] - p[i])
		dp[i] = -2 * (a[i] - p[i])
		if hinge > 0 {
			da[i] += float32(-2 * (a[i] - n[i]))
			dn[i] = 2 * (a[i] - n[i])
		}
	}
	return loss, da, dp, dn
}
