// Package nn is a from-scratch neural-network substrate standing in for the
// PyTorch stack the paper trained EmbLookup with. It provides exactly the
// operators Section III-B needs — 1-D convolutions over one-hot character
// matrices, max-pooling, linear layers with ReLU, an LSTM (for the Table VII
// baseline), the Adam optimizer, and the triplet loss — implemented with
// explicit forward/backward passes on float32 data.
//
// Training is single-goroutine per model (gradients accumulate directly into
// the parameters); inference paths are pure functions over read-only
// parameters and are safe for concurrent use, which is what the parallel
// "GPU-mode" batch lookup relies on.
package nn

import (
	"math"

	"emblookup/internal/mathx"
)

// Param is one learnable tensor with its gradient accumulator and Adam
// moment estimates.
type Param struct {
	W    *mathx.Matrix
	Grad *mathx.Matrix
	m, v *mathx.Matrix // Adam first/second moments, lazily allocated
}

// NewParam allocates a zeroed parameter of the given shape.
func NewParam(rows, cols int) *Param {
	return &Param{
		W:    mathx.NewMatrix(rows, cols),
		Grad: mathx.NewMatrix(rows, cols),
	}
}

// InitKaiming fills the parameter with Kaiming-normal values for fanIn
// inputs — the standard initialization for ReLU networks.
func (p *Param) InitKaiming(r *mathx.RNG, fanIn int) {
	std := math.Sqrt(2.0 / float64(fanIn))
	p.W.FillRandn(r, std)
}

// InitXavier fills the parameter with Xavier/Glorot-normal values.
func (p *Param) InitXavier(r *mathx.RNG, fanIn, fanOut int) {
	std := math.Sqrt(2.0 / float64(fanIn+fanOut))
	p.W.FillRandn(r, std)
}

// ZeroGrad clears the gradient accumulator.
func (p *Param) ZeroGrad() {
	p.Grad.Zero()
}

// Adam implements the Adam optimizer (Kingma & Ba) over a set of
// parameters. The paper trains EmbLookup with Adam and batch size 128.
type Adam struct {
	LR          float32
	Beta1       float32
	Beta2       float32
	Eps         float32
	WeightDecay float32

	t      int
	params []*Param
}

// NewAdam returns an optimizer with the standard defaults (lr as given,
// β1=0.9, β2=0.999, ε=1e-8).
func NewAdam(lr float32, params []*Param) *Adam {
	return &Adam{LR: lr, Beta1: 0.9, Beta2: 0.999, Eps: 1e-8, params: params}
}

// Step applies one Adam update using the accumulated gradients, then clears
// them. scale divides the gradients first (use 1/batchSize for mean loss).
func (a *Adam) Step(scale float32) {
	a.t++
	c1 := 1 - float32(math.Pow(float64(a.Beta1), float64(a.t)))
	c2 := 1 - float32(math.Pow(float64(a.Beta2), float64(a.t)))
	for _, p := range a.params {
		if p.m == nil {
			p.m = mathx.NewMatrix(p.W.Rows, p.W.Cols)
			p.v = mathx.NewMatrix(p.W.Rows, p.W.Cols)
		}
		for i, g := range p.Grad.Data {
			g = float32(g * scale)
			if a.WeightDecay > 0 {
				g += float32(a.WeightDecay * p.W.Data[i])
			}
			p.m.Data[i] = float32(a.Beta1*p.m.Data[i]) + float32((1-a.Beta1)*g)
			p.v.Data[i] = float32(a.Beta2*p.v.Data[i]) + float32((1-a.Beta2)*g*g)
			mHat := p.m.Data[i] / c1
			vHat := p.v.Data[i] / c2
			p.W.Data[i] -= a.LR * mHat / (float32(math.Sqrt(float64(vHat))) + a.Eps)
		}
		p.ZeroGrad()
	}
}
