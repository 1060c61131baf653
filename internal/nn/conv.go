package nn

import (
	"fmt"
	"math"

	"emblookup/internal/mathx"
)

// Conv1D is a 1-D convolution over a channels×length matrix with "same"
// zero padding, the building block of the paper's syntactic CNN (5 layers of
// 8 kernels of size 3).
type Conv1D struct {
	In, Out, K int
	Weight     *Param // Out × (In*K)
	Bias       *Param // Out × 1
}

// NewConv1D builds a convolution layer with Kaiming initialization.
func NewConv1D(r *mathx.RNG, in, out, k int) *Conv1D {
	c := &Conv1D{In: in, Out: out, K: k,
		Weight: NewParam(out, in*k),
		Bias:   NewParam(out, 1),
	}
	c.Weight.InitKaiming(r, in*k)
	return c
}

// Params returns the layer's learnable parameters.
func (c *Conv1D) Params() []*Param { return []*Param{c.Weight, c.Bias} }

// ConvCache holds the forward activations needed by Backward.
type ConvCache struct {
	x *mathx.Matrix
}

// Forward computes y[o][t] = b[o] + Σ_{i,k} W[o][i,k]·x[i][t+k-pad] with
// zero padding so the output length equals the input length.
func (c *Conv1D) Forward(x *mathx.Matrix) (*mathx.Matrix, *ConvCache) {
	y := c.Apply(x)
	return y, &ConvCache{x: x}
}

// Apply is the inference-only forward pass; it reads parameters without
// mutating any state and is safe for concurrent use.
func (c *Conv1D) Apply(x *mathx.Matrix) *mathx.Matrix {
	y := mathx.NewMatrix(c.Out, x.Cols)
	c.ApplyInto(x, y)
	return y
}

// ApplyInto computes the convolution into y, which must be Out×x.Cols; every
// element of y is overwritten, so a reused scratch matrix needs no zeroing.
func (c *Conv1D) ApplyInto(x, y *mathx.Matrix) { c.applyInto(x, y, false) }

// convMaxK is the widest kernel the assembly kernel takes (its per-tap lane
// masks live in a fixed array); wider kernels run the portable one.
const convMaxK = 8

// applyInto is the one convolution entry: ApplyInto, and with relu set the
// inference layers, which store max(v, 0) as `if v < 0 { v = 0 }` does (−0
// and NaN stay). Every output is b + Σ_{i,k} W[o][i,k]·x[i][t+k-pad] added
// in (i, k) order, skipping zero weights and taps outside [0, L), with each
// product rounded before its add — whichever kernel runs, so the bits are
// the same (DESIGN.md §3, "Inference kernels").
func (c *Conv1D) applyInto(x, y *mathx.Matrix, relu bool) {
	L := x.Cols
	if x.Rows != c.In || y.Rows != c.Out || y.Cols != L || len(x.Data) < c.In*L || len(y.Data) < c.Out*L ||
		len(c.Weight.W.Data) < c.Out*c.In*c.K || len(c.Bias.W.Data) < c.Out {
		panic(fmt.Sprintf("nn: Conv1D %d→%d (K=%d) applied to %dx%d into %dx%d", c.In, c.Out, c.K, x.Rows, x.Cols, y.Rows, y.Cols))
	}
	if mathx.HasAVX2 && c.K >= 1 && c.K <= convMaxK && c.In > 0 && c.Out > 0 && L > 0 {
		c.applyAVX2(x, y, relu)
		return
	}
	c.applyPortable(x, y, relu)
}

// applyPortable is the kernel of builds and CPUs without the assembly one.
// The loops run over contiguous slices (per input channel and kernel tap) so
// the hot inner loop is a strided multiply-add the compiler keeps in
// registers; the float32 conversion keeps it from fusing into an FMA.
func (c *Conv1D) applyPortable(x, y *mathx.Matrix, relu bool) {
	L := x.Cols
	pad := (c.K - 1) / 2
	for o := 0; o < c.Out; o++ {
		yr := y.Row(o)
		b := c.Bias.W.Data[o]
		for t := range yr {
			yr[t] = b
		}
		w := c.Weight.W.Row(o)
		for i := 0; i < c.In; i++ {
			xr := x.Row(i)
			wBase := i * c.K
			for k := 0; k < c.K; k++ {
				wv := w[wBase+k]
				if wv == 0 {
					continue
				}
				off := k - pad
				lo, hi := 0, L
				if off < 0 {
					lo = -off
				} else if off > 0 {
					hi = L - off
				}
				if lo >= hi {
					continue // a tap past both ends of a row shorter than pad
				}
				xs := xr[lo+off : hi+off]
				ys := yr[lo:hi]
				for t := range ys {
					ys[t] += float32(wv * xs[t])
				}
			}
		}
		if relu {
			for t, v := range yr {
				yr[t] = reluValue(v)
			}
		}
	}
}

// reluValue is the inference ReLU, `if v < 0 { v = 0 }` (so −0 and NaN
// pass), without a branch on the data: v < 0 holds for exactly the bit
// patterns 0x80000001 (the negative subnormal nearest zero) through
// 0xff800000 (−Inf), one unsigned compare, and the compiler selects with a
// conditional move. A branch there mispredicts on about half of a layer's
// outputs.
func reluValue(v float32) float32 {
	u := math.Float32bits(v)
	if u-0x80000001 < 0x7f800000 {
		u = 0
	}
	return math.Float32frombits(u)
}

// Backward accumulates dWeight/dBias and returns dL/dx, with the same
// contiguous-slice loop structure as Apply.
func (c *Conv1D) Backward(cache *ConvCache, dy *mathx.Matrix) *mathx.Matrix {
	x := cache.x
	L := x.Cols
	pad := (c.K - 1) / 2
	dx := mathx.NewMatrix(x.Rows, L)
	for o := 0; o < c.Out; o++ {
		w := c.Weight.W.Row(o)
		gw := c.Weight.Grad.Row(o)
		dyr := dy.Row(o)
		var gb float32
		for t := 0; t < L; t++ {
			gb += dyr[t]
		}
		c.Bias.Grad.Data[o] += gb
		for i := 0; i < c.In; i++ {
			xr := x.Row(i)
			dxr := dx.Row(i)
			wBase := i * c.K
			for k := 0; k < c.K; k++ {
				off := k - pad
				lo, hi := 0, L
				if off < 0 {
					lo = -off
				} else if off > 0 {
					hi = L - off
				}
				xs := xr[lo+off : hi+off]
				dxs := dxr[lo+off : hi+off]
				ds := dyr[lo:hi]
				var gwAcc float32
				wv := w[wBase+k]
				for t := range ds {
					g := ds[t]
					gwAcc += float32(g * xs[t])
					dxs[t] += float32(g * wv)
				}
				gw[wBase+k] += gwAcc
			}
		}
	}
	return dx
}

// ReLUInPlace applies max(0,·) to m and returns a mask cache for backward.
func ReLUInPlace(m *mathx.Matrix) []bool {
	mask := make([]bool, len(m.Data))
	for i, v := range m.Data {
		if v > 0 {
			mask[i] = true
		} else {
			m.Data[i] = 0
		}
	}
	return mask
}

// ReLUBackward zeroes gradient entries where the forward activation was
// clamped.
func ReLUBackward(dy *mathx.Matrix, mask []bool) {
	for i := range dy.Data {
		if !mask[i] {
			dy.Data[i] = 0
		}
	}
}

// GlobalMaxPool reduces a channels×length matrix to a per-channel max
// vector, returning the argmax positions for backward.
func GlobalMaxPool(x *mathx.Matrix) ([]float32, []int) {
	out := make([]float32, x.Rows)
	arg := make([]int, x.Rows)
	for c := 0; c < x.Rows; c++ {
		row := x.Row(c)
		best, idx := row[0], 0
		for t := 1; t < len(row); t++ {
			if row[t] > best {
				best, idx = row[t], t
			}
		}
		out[c] = best
		arg[c] = idx
	}
	return out, arg
}

// GlobalMaxPoolInto writes the per-channel max into out (length x.Rows)
// without the argmax bookkeeping — the inference-only variant.
func GlobalMaxPoolInto(x *mathx.Matrix, out []float32) {
	for c := 0; c < x.Rows; c++ {
		row := x.Row(c)
		best := row[0]
		for t := 1; t < len(row); t++ {
			if row[t] > best {
				best = row[t]
			}
		}
		out[c] = best
	}
}

// GlobalMaxPoolBackward scatters the pooled gradient back to the argmax
// positions, producing dL/dx of the given shape.
func GlobalMaxPoolBackward(dy []float32, arg []int, rows, cols int) *mathx.Matrix {
	dx := mathx.NewMatrix(rows, cols)
	for c := range dy {
		dx.Set(c, arg[c], dy[c])
	}
	return dx
}
