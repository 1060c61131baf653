//go:build amd64 && !purego

package nn

import "emblookup/internal/mathx"

//go:noescape
func convBlockAVX2(y, x, w, b *float32, l, in, out, k, xoff int, masks *[convMaxK][8]int32, store *[8]int32, relu bool)

// applyAVX2 runs the assembly kernel (conv_amd64.s) over x in blocks of 8
// output columns; a row whose length is not a multiple of 8 ends with a
// block that overlaps the one before it and rewrites its columns with the
// same bits. Per block and tap it passes the lanes whose input column lies
// in [0, L): the kernel adds only those (a skipped tap is not an added
// zero — −0 + 0 is +0). The caller, applyInto, has checked every shape the
// kernel reads through.
func (c *Conv1D) applyAVX2(x, y *mathx.Matrix, relu bool) {
	L := x.Cols
	pad := (c.K - 1) / 2
	var masks [convMaxK][8]int32
	var short [8]int32
	var store *[8]int32 // nil: every lane of a block is a column of y
	if L < 8 {
		for j := 0; j < L; j++ {
			short[j] = -1
		}
		store = &short
	}
	for t0 := 0; ; t0 += 8 {
		t0 = max(min(t0, L-8), 0)
		for k := 0; k < c.K; k++ {
			for j := range masks[k] {
				masks[k][j] = 0
				if src := t0 + j + k - pad; src >= 0 && src < L {
					masks[k][j] = -1
				}
			}
		}
		convBlockAVX2(&y.Data[t0], &x.Data[0], &c.Weight.W.Data[0], &c.Bias.W.Data[0],
			L, c.In, c.Out, c.K, t0-pad, &masks, store, relu)
		if t0+8 >= L {
			return
		}
	}
}
