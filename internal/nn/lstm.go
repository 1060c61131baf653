package nn

import (
	"math"

	"emblookup/internal/mathx"
)

// LSTM is a single-layer long short-term memory network over character
// sequences. It exists for the Table VII baseline: the paper compares
// EmbLookup's CNN against "an LSTM model trained over the labels and aliases
// of the KG entities".
type LSTM struct {
	In, Hidden int
	Wx         *Param // 4H × In, gate order [i f g o]
	Wh         *Param // 4H × H
	B          *Param // 4H × 1
}

// NewLSTM builds an LSTM with Xavier-initialized weights and forget-gate
// bias 1 (the usual trick to ease gradient flow early in training).
func NewLSTM(r *mathx.RNG, in, hidden int) *LSTM {
	l := &LSTM{In: in, Hidden: hidden,
		Wx: NewParam(4*hidden, in),
		Wh: NewParam(4*hidden, hidden),
		B:  NewParam(4*hidden, 1),
	}
	l.Wx.InitXavier(r, in, hidden)
	l.Wh.InitXavier(r, hidden, hidden)
	for i := hidden; i < 2*hidden; i++ {
		l.B.W.Data[i] = 1
	}
	return l
}

// Params returns the learnable parameters.
func (l *LSTM) Params() []*Param { return []*Param{l.Wx, l.Wh, l.B} }

type lstmStep struct {
	x          []float32
	i, f, g, o []float32
	c, h       []float32
	cPrev      []float32
	hPrev      []float32
	tanhC      []float32
}

// LSTMCache stores the per-timestep activations for BPTT.
type LSTMCache struct {
	steps []*lstmStep
}

func sigmoid(x float32) float32 {
	return float32(1 / (1 + math.Exp(-float64(x))))
}

func tanhf(x float32) float32 {
	return float32(math.Tanh(float64(x)))
}

// step runs one LSTM cell update.
func (l *LSTM) step(x, hPrev, cPrev []float32) *lstmStep {
	H := l.Hidden
	z := l.Wx.W.MatVec(x)
	zh := l.Wh.W.MatVec(hPrev)
	for i := range z {
		z[i] += zh[i] + l.B.W.Data[i]
	}
	st := &lstmStep{
		x: x, hPrev: hPrev, cPrev: cPrev,
		i: make([]float32, H), f: make([]float32, H),
		g: make([]float32, H), o: make([]float32, H),
		c: make([]float32, H), h: make([]float32, H),
		tanhC: make([]float32, H),
	}
	for j := 0; j < H; j++ {
		st.i[j] = sigmoid(z[j])
		st.f[j] = sigmoid(z[H+j])
		st.g[j] = tanhf(z[2*H+j])
		st.o[j] = sigmoid(z[3*H+j])
		st.c[j] = float32(st.f[j]*cPrev[j]) + float32(st.i[j]*st.g[j])
		st.tanhC[j] = tanhf(st.c[j])
		st.h[j] = st.o[j] * st.tanhC[j]
	}
	return st
}

// columns extracts the first seqLen columns of x as dense vectors.
func columns(x *mathx.Matrix, seqLen int) [][]float32 {
	if seqLen <= 0 || seqLen > x.Cols {
		seqLen = x.Cols
	}
	cols := make([][]float32, seqLen)
	for t := 0; t < seqLen; t++ {
		v := make([]float32, x.Rows)
		for r := 0; r < x.Rows; r++ {
			v[r] = x.At(r, t)
		}
		cols[t] = v
	}
	return cols
}

// Apply runs the sequence and returns the final hidden state
// (inference-only, concurrent-safe).
func (l *LSTM) Apply(x *mathx.Matrix, seqLen int) []float32 {
	h := make([]float32, l.Hidden)
	c := make([]float32, l.Hidden)
	for _, xt := range columns(x, seqLen) {
		st := l.step(xt, h, c)
		h, c = st.h, st.c
	}
	return h
}

// Forward runs the sequence keeping the activations needed for Backward and
// returns the final hidden state.
func (l *LSTM) Forward(x *mathx.Matrix, seqLen int) ([]float32, *LSTMCache) {
	cache := &LSTMCache{}
	h := make([]float32, l.Hidden)
	c := make([]float32, l.Hidden)
	for _, xt := range columns(x, seqLen) {
		st := l.step(xt, h, c)
		cache.steps = append(cache.steps, st)
		h, c = st.h, st.c
	}
	return h, cache
}

// Backward back-propagates dL/dh_final through time, accumulating parameter
// gradients. The gradient with respect to the input is discarded.
func (l *LSTM) Backward(cache *LSTMCache, dhFinal []float32) {
	H := l.Hidden
	dh := append([]float32(nil), dhFinal...)
	dc := make([]float32, H)
	dz := make([]float32, 4*H)
	for t := len(cache.steps) - 1; t >= 0; t-- {
		st := cache.steps[t]
		for j := 0; j < H; j++ {
			do := dh[j] * st.tanhC[j]
			dcj := dc[j] + float32(dh[j]*st.o[j]*(1-float32(st.tanhC[j]*st.tanhC[j])))
			di := dcj * st.g[j]
			df := dcj * st.cPrev[j]
			dg := dcj * st.i[j]
			dz[j] = di * st.i[j] * (1 - st.i[j])
			dz[H+j] = df * st.f[j] * (1 - st.f[j])
			dz[2*H+j] = dg * (1 - float32(st.g[j]*st.g[j]))
			dz[3*H+j] = do * st.o[j] * (1 - st.o[j])
			dc[j] = dcj * st.f[j]
		}
		// Accumulate parameter gradients: dWx += dz·xᵀ, dWh += dz·hPrevᵀ.
		for r := 0; r < 4*H; r++ {
			g := dz[r]
			if g == 0 {
				continue
			}
			l.B.Grad.Data[r] += g
			mathx.Axpy(g, st.x, l.Wx.Grad.Row(r))
			mathx.Axpy(g, st.hPrev, l.Wh.Grad.Row(r))
		}
		// dh for the previous step: Whᵀ·dz.
		dh = l.Wh.W.MatVecT(dz)
	}
}
