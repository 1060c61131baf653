package mathx

import (
	"fmt"
	"math"
)

// Dot returns the dot product of a and b. The slices must have equal length.
// The float32 conversion rounds each product before its add: Go may fuse an
// unconverted a*b+s into one multiply-add (it does on arm64), and the
// embedding kernels promise the same bits on every architecture.
func Dot(a, b []float32) float32 {
	var s float32
	for i := range a {
		s += float32(a[i] * b[i])
	}
	return s
}

// SquaredL2 returns the squared Euclidean distance between a and b. Like
// Dot (and Norm and Axpy below) it rounds each product before its add.
func SquaredL2(a, b []float32) float32 {
	var s float32
	for i := range a {
		d := a[i] - b[i]
		s += float32(d * d)
	}
	return s
}

// Norm returns the Euclidean norm of a.
func Norm(a []float32) float32 {
	var s float32
	for _, v := range a {
		s += float32(v * v)
	}
	return float32(math.Sqrt(float64(s)))
}

// Normalize scales a in place to unit Euclidean norm. A zero vector is left
// unchanged.
func Normalize(a []float32) {
	n := Norm(a)
	if n == 0 {
		return
	}
	inv := 1 / n
	for i := range a {
		a[i] *= inv
	}
}

// Axpy computes y += alpha*x in place; y must be at least as long as x
// and must not partly overlap it. Each element is y[i] + float32(alpha*x[i])
// on every build: on AVX2 (dense_amd64.s) eight elements per instruction,
// the product rounded before its add, the rest of x one at a time.
func Axpy(alpha float32, x, y []float32) {
	if len(y) < len(x) {
		panic(fmt.Sprintf("mathx: Axpy of %d elements into %d", len(x), len(y)))
	}
	i := 0
	if HasAVX2 {
		i = axpyAVX2Blocks(alpha, x, y)
	}
	for ; i < len(x); i++ {
		y[i] += float32(alpha * x[i])
	}
}

// Scale multiplies a by alpha in place.
func Scale(alpha float32, a []float32) {
	for i := range a {
		a[i] *= alpha
	}
}

// Sub returns a new vector a-b.
func Sub(a, b []float32) []float32 {
	out := make([]float32, len(a))
	for i := range a {
		out[i] = a[i] - b[i]
	}
	return out
}

// Resize returns a length-n slice, reusing buf's backing array when its
// capacity allows. The contents are unspecified; callers overwrite them.
func Resize(buf []float32, n int) []float32 {
	if cap(buf) < n {
		return make([]float32, n)
	}
	return buf[:n]
}

// Clone returns a copy of a.
func Clone(a []float32) []float32 {
	out := make([]float32, len(a))
	copy(out, a)
	return out
}
