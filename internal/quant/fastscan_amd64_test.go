//go:build amd64 && !purego

package quant

import (
	"fmt"
	"math"
	"testing"

	"emblookup/internal/mathx"
)

// TestQuantizeRowsAVX2MatchesScalar holds QuantizeTableInto's assembly
// loops (the row spans and the conversion) to its scalar loops, byte for
// byte and in every returned value, zeros of either sign included: codebooks
// of 1 to 16 trained rows (the untrained entries of a row are cleared either
// way), up to MaxM4 sub-quantizers, the full-spread and threshold-relative
// scales, and entries that land exactly on a step, just under 255 and far
// past it, besides huge, infinite, NaN and negative ones.
func TestQuantizeRowsAVX2MatchesScalar(t *testing.T) {
	if !hasQuantizeAVX2 {
		t.Skip("no AVX2 on this CPU")
	}
	defer func(v bool) { hasQuantizeAVX2 = v }(hasQuantizeAVX2)
	rng := mathx.NewRNG(3)
	negZero := float32(math.Copysign(0, -1))
	specials := []float32{0, negZero, 1, 254.99998, 255, 255.00002, 1e30, float32(math.Inf(1)), float32(math.NaN()), -3, 1e-40}
	for _, m := range []int{1, 2, 16, 130, MaxM4} {
		for _, rows := range []int{1, 7, Ks4} {
			for trial := 0; trial < 20; trial++ {
				pq := &ProductQuantizer{M: m, Ks: Ks4, Codebooks: make([]*mathx.Matrix, m)}
				for i := range pq.Codebooks {
					pq.Codebooks[i] = mathx.NewMatrix(max(1, rows-i%2), 1)
				}
				table := make([]float32, m*Ks4)
				for i := range table {
					switch trial % 5 {
					case 4:
						// A NaN past a row's first entry is passed over, a NaN
						// first entry poisons the row: a few of each, among
						// zeros of both signs.
						switch r := rng.Intn(40); {
						case r == 0:
							table[i] = float32(math.NaN())
						case r < 4:
							table[i] = negZero
						case r < 7:
							table[i] = 0
						default:
							table[i] = rng.Float32()
						}
					case 0:
						table[i] = rng.Float32()
					case 1:
						table[i] = float32(rng.Intn(300)) // steps of 1 under delta = 1
					case 2:
						table[i] = specials[rng.Intn(len(specials))]
					default:
						table[i] = rng.Float32() * 1e6
					}
				}
				for _, sc := range [][2]float32{{0, 0}, {0.5, 250}, {float32(m) * 0.7, 250}, {300, 1}} {
					want, got := make([]uint8, len(table)), make([]uint8, len(table))
					for i := range got {
						want[i], got[i] = 0xaa, 0x55 // stale bytes must not survive
					}
					hasQuantizeAVX2 = false
					wb, wd, wm := pq.QuantizeTableInto(table, want, sc[0], sc[1])
					hasQuantizeAVX2 = true
					gb, gd, gm := pq.QuantizeTableInto(table, got, sc[0], sc[1])
					ctx := fmt.Sprintf("M=%d rows=%d trial %d at=%v steps=%v", m, rows, trial, sc[0], sc[1])
					if math.Float32bits(wb) != math.Float32bits(gb) || math.Float32bits(wd) != math.Float32bits(gd) || math.Float32bits(wm) != math.Float32bits(gm) {
						t.Fatalf("%s: returned (%v, %v, %v), scalar (%v, %v, %v)", ctx, gb, gd, gm, wb, wd, wm)
					}
					for i := range want {
						if want[i] != got[i] {
							t.Fatalf("%s: lut8[%d] = %d, scalar %d (entry %v)", ctx, i, got[i], want[i], table[i])
						}
					}
				}
			}
		}
	}
}

// TestQuantizeRowsBoundsChecked asserts the doors to the assembly loops
// panic, as Go code, on a table, lut8 or maxs shorter than its rows.
func TestQuantizeRowsBoundsChecked(t *testing.T) {
	mins := make([]float32, 3)
	for name, run := range map[string]func(){
		"spans: table one entry short": func() { rowSpans4(make([]float32, 3*Ks4-1), mins, make([]float32, 3)) },
		"spans: maxs one short":        func() { rowSpans4(make([]float32, 3*Ks4), mins, make([]float32, 2)) },
		"lut8 one byte short":          func() { quantizeRows4(make([]uint8, 3*Ks4-1), make([]float32, 3*Ks4), mins, 1) },
		"table one entry short":        func() { quantizeRows4(make([]uint8, 3*Ks4), make([]float32, 3*Ks4-1), mins, 1) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s: no panic", name)
				}
			}()
			run()
		}()
	}
}
