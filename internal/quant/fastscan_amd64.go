//go:build amd64 && !purego

package quant

import "emblookup/internal/mathx"

// hasQuantizeAVX2 reports whether the assembly loops of QuantizeTableInto
// can run here.
var hasQuantizeAVX2 = mathx.HasAVX2

//go:noescape
func quantizeRows4AVX2(lut8 *uint8, table, mins *float32, m int, inv float32)

//go:noescape
func rowSpans4AVX2(table *float32, m int, mins, maxs *float32)

// rowSpans4 writes the smallest and largest entry of each of len(mins)
// Ks4-entry rows of table into mins and maxs (fastscan_amd64.s), as the
// scalar loop of QuantizeTableInto finds them — except that a row whose
// smallest or largest entry is a zero may report it with either sign. The
// index expressions panic before the assembly could read or write past a
// slice.
func rowSpans4(table, mins, maxs []float32) {
	m := len(mins)
	if m == 0 {
		return
	}
	_, _ = table[m*Ks4-1], maxs[m-1]
	rowSpans4AVX2(&table[0], m, &mins[0], &maxs[0])
}

// quantizeRows4 is the one door to the assembly loop of QuantizeTableInto
// (fastscan_amd64.s) for Ks4-entry rows: lut8[i] = min(255, ⌊(table[i] −
// mins[i/Ks4])·inv⌋) over len(mins) rows, with the scalar loop's float32
// subtract, multiply, clamp and truncation, lane by lane. The index
// expressions panic before the assembly could read or write past a slice.
func quantizeRows4(lut8 []uint8, table, mins []float32, inv float32) {
	m := len(mins)
	if m == 0 {
		return
	}
	_, _ = lut8[m*Ks4-1], table[m*Ks4-1]
	quantizeRows4AVX2(&lut8[0], &table[0], &mins[0], m, inv)
}
