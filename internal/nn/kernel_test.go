package nn

import (
	"math"
	"testing"

	"emblookup/internal/mathx"
)

// refConvApply is Conv1D.ApplyInto as it stood before the kernels, verbatim
// but for the float32 conversion that spells out the rounding of each
// product (amd64 never fused the old loop; arm64 would) and the guard for a
// tap past both ends of a row shorter than pad (the old loop panicked
// there). Every kernel is held to it bit for bit.
func refConvApply(c *Conv1D, x, y *mathx.Matrix) {
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
	}
}

// refSparseApply is Conv1D.ApplySparseOneHotInto as it stood before the
// kernels, verbatim.
func refSparseApply(c *Conv1D, idx []int, y *mathx.Matrix) {
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
			yr[t] = s
		}
	}
}

// refReLU is the inference ReLU that used to run after every layer.
func refReLU(m *mathx.Matrix) {
	for i, v := range m.Data {
		if v < 0 {
			m.Data[i] = 0
		}
	}
}

// kernelValue draws a weight, bias or input from one of two palettes.
// Palette 0: a third of the time one of the values a kernel gets wrong
// first — signed zeros, subnormals, magnitudes whose products overflow —
// otherwise a plain Gaussian. Palette 1: mostly signed zeros, where a tap
// added as zero instead of skipped, a zero weight not skipped, or a ReLU
// that rewrites −0 flips a sign bit that survives to the output.
func kernelValue(r *mathx.RNG, palette int) float32 {
	negZero := float32(math.Copysign(0, -1))
	if palette == 1 {
		zeros := [...]float32{0, negZero, 0, negZero, 1, -1, math.SmallestNonzeroFloat32, -math.SmallestNonzeroFloat32}
		return zeros[r.Intn(len(zeros))]
	}
	special := [...]float32{
		0, negZero, math.SmallestNonzeroFloat32, -math.SmallestNonzeroFloat32,
		math.Float32frombits(0x007fffff), -math.Float32frombits(0x007fffff),
		1e-30, -1e-30, 1e20, -1e20, 3e38, -3e38,
	}
	if r.Intn(3) == 0 {
		return special[r.Intn(len(special))]
	}
	return float32(r.NormFloat64())
}

func sameBits(a, b []float32) int {
	for i := range a {
		if math.Float32bits(a[i]) != math.Float32bits(b[i]) {
			return i
		}
	}
	return -1
}

// FuzzConvEquivalence holds both convolution kernels (the dispatch, which
// is the assembly one on an AVX2 host, and the portable one) and the sparse
// layer-0 loop to the old loops, ReLU off and fused, over shapes the
// kernels split differently: L from 1 to 40 (shorter than the kernel,
// shorter than one block plus the borders), In and Out off multiples of 4
// and 8, every K the assembly kernel takes (1 to convMaxK; an even K pads
// one column more on the right than on the left), and values from either
// kernelValue palette. The output starts as NaN, so a column a kernel
// forgets to write shows.
func FuzzConvEquivalence(f *testing.F) {
	for l := uint8(1); l <= 40; l++ {
		for palette := uint8(0); palette < 2; palette++ {
			f.Add(uint64(l), l, l%9+1, (l*7)%11+1, l%convMaxK, palette)
		}
	}
	f.Fuzz(func(t *testing.T, seed uint64, l, in, out, ksel, palette uint8) {
		L, In, Out, K := int(l)%40+1, int(in)%12+1, int(out)%12+1, int(ksel)%convMaxK+1
		pal := int(palette % 2)
		r := mathx.NewRNG(seed)
		c := NewConv1D(r, In, Out, K)
		for _, p := range c.Params() {
			for i := range p.W.Data {
				p.W.Data[i] = kernelValue(r, pal)
			}
		}
		x := mathx.NewMatrix(In, L)
		for i := range x.Data {
			x.Data[i] = kernelValue(r, pal)
		}
		idx := make([]int, L) // a one-hot input as layer 0 sees it; -1 is padding
		for i := range idx {
			idx[i] = r.Intn(In+1) - 1
		}
		for _, relu := range []bool{false, true} {
			want := mathx.NewMatrix(Out, L)
			refConvApply(c, x, want)
			if relu {
				refReLU(want)
			}
			for _, k := range []struct {
				name  string
				apply func(x, y *mathx.Matrix, relu bool)
			}{{"applyInto", c.applyInto}, {"applyPortable", c.applyPortable}} {
				got := mathx.NewMatrix(Out, L)
				for i := range got.Data {
					got.Data[i] = float32(math.NaN())
				}
				k.apply(x, got, relu)
				if i := sameBits(want.Data, got.Data); i >= 0 {
					t.Fatalf("%s (relu %v) In=%d Out=%d K=%d L=%d: y[%d][%d] = %v (%#x), want %v (%#x)",
						k.name, relu, In, Out, K, L, i/L, i%L, got.Data[i], math.Float32bits(got.Data[i]),
						want.Data[i], math.Float32bits(want.Data[i]))
				}
			}

			refSparseApply(c, idx, want)
			if relu {
				refReLU(want)
			}
			got := mathx.NewMatrix(Out, L)
			c.applySparseOneHotInto(idx, got, relu)
			if i := sameBits(want.Data, got.Data); i >= 0 {
				t.Fatalf("applySparseOneHotInto (relu %v) In=%d Out=%d K=%d L=%d idx %v: y[%d][%d] = %v, want %v",
					relu, In, Out, K, L, idx, i/L, i%L, got.Data[i], want.Data[i])
			}
		}
	})
}

// TestReLUValue holds the branch-free ReLU to `if v < 0 { v = 0 }` at every
// boundary of its bit range — ±0, the subnormals next to zero, ±Inf, the
// NaNs on both signs — and on a stride through all 2³² patterns.
func TestReLUValue(t *testing.T) {
	bits := []uint32{0, 1, 0x007fffff, 0x00800000, 0x3f800000, 0x7f7fffff, 0x7f800000, 0x7f800001, 0x7fc00000, 0x7fffffff,
		0x80000000, 0x80000001, 0x807fffff, 0xbf800000, 0xff7fffff, 0xff800000, 0xff800001, 0xffc00000, 0xffffffff}
	for u := uint64(0); u < 1<<32; u += 65521 {
		bits = append(bits, uint32(u))
	}
	for _, b := range bits {
		v := math.Float32frombits(b)
		want := v
		if v < 0 {
			want = 0
		}
		if got := reluValue(v); math.Float32bits(got) != math.Float32bits(want) {
			t.Fatalf("reluValue(%#08x) = %#08x, want %#08x", b, math.Float32bits(got), math.Float32bits(want))
		}
	}
}
