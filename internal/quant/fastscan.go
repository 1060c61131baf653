package quant

import (
	"fmt"
	"math"
)

// This file is the quantization layer of the fast-scan ADC path (DESIGN.md
// §11): 4-bit sub-quantizers whose codes pack two per byte, and per-query
// uint8 quantization of the ADC distance table so the table a scan gathers
// from shrinks from Ks float32s per sub-quantizer to 16 bytes — small enough
// to stay L1-resident (and, fused pairwise by the scan kernel, to stay in a
// few cache lines) while distances accumulate in integer registers.

// Ks4 is the centroid count of a 4-bit sub-quantizer: every code is a
// nibble.
const Ks4 = 16

// MaxM4 bounds the sub-quantizer count of the 4-bit path: the widest code
// whose M uint8 entries sum inside a uint16, which configurations and stored
// artifacts have always been validated against. No accumulator leans on it
// any more; the scan's rounding slack is derived for M no larger.
const MaxM4 = 257

// Config4 derives the 4-bit twin of an 8-bit PQ configuration: twice the
// sub-quantizers at 16 centroids each, so the bytes-per-code storage cost
// is unchanged (two nibble codes pack into each byte) while each sub-space
// is half as wide — the FAISS fast-scan trade: coarser codebooks, finer
// splits, and a distance table 16× smaller per sub-quantizer.
func Config4(cfg PQConfig) PQConfig {
	cfg.M *= 2
	cfg.Ks = Ks4
	return cfg
}

// Pack4 packs nibble codes two per byte: code 2j lands in the low nibble of
// packed[j], code 2j+1 in the high nibble. len(nibbles) must be even and
// len(packed) = len(nibbles)/2; every nibble must be < 16.
func Pack4(nibbles, packed []byte) {
	if len(nibbles) != 2*len(packed) {
		panic(fmt.Sprintf("quant: Pack4 of %d nibbles into %d bytes", len(nibbles), len(packed)))
	}
	for j := range packed {
		packed[j] = nibbles[2*j]&0xf | nibbles[2*j+1]<<4
	}
}

// Unpack4 is the inverse of Pack4.
func Unpack4(packed, nibbles []byte) {
	if len(nibbles) != 2*len(packed) {
		panic(fmt.Sprintf("quant: Unpack4 of %d bytes into %d nibbles", len(packed), len(nibbles)))
	}
	for j, b := range packed {
		nibbles[2*j] = b & 0xf
		nibbles[2*j+1] = b >> 4
	}
}

// Encode4Into quantizes vec into its packed 4-bit code: M/2 bytes, two
// sub-quantizer codes per byte in Pack4 order. The quantizer must be 4-bit
// (Ks ≤ 16) with an even M. nibbles is caller scratch of length M (reused
// across calls); pass nil to allocate.
func (pq *ProductQuantizer) Encode4Into(vec []float32, packed, nibbles []byte) {
	if pq.Ks > Ks4 || pq.M%2 != 0 {
		panic(fmt.Sprintf("quant: Encode4Into on a non-4-bit quantizer (M=%d Ks=%d)", pq.M, pq.Ks))
	}
	if nibbles == nil {
		nibbles = make([]byte, pq.M)
	}
	pq.EncodeInto(vec, nibbles[:pq.M])
	Pack4(nibbles[:pq.M], packed)
}

// Decode4 reconstructs the approximate vector for a packed 4-bit code.
func (pq *ProductQuantizer) Decode4(packed []byte) []float32 {
	nibbles := make([]byte, pq.M)
	Unpack4(packed, nibbles)
	return pq.Decode(nibbles)
}

// QuantizeTableInto quantizes the float32 ADC table (laid out as
// ADCTableInto: M rows of Ks entries) to uint8 with one shared scale:
//
//	lut8[m*Ks+c] = min(255, floor((table[m*Ks+c] - min_m) / delta))
//	bias  = Σ_m min_m
//	delta = max((at - bias) / steps, 4·M·2⁻²⁴·at),   mag = at
//
// so a row whose float sum is `at` sums to about `steps`: the
// threshold-relative scale of PQ Fast Scan (André et al., VLDB 2015) and
// Quick ADC (ICMR 2017) — a scan that only asks "is this row above the k-th
// best?" spends all eight bits below that bound and lets everything far
// above it clamp. The second term keeps a step no finer than float32
// resolves the sums it stands for (M non-negative entries up to `at` sum to
// within M·2⁻²⁴·at): when `at` closes in on bias the scale stops following
// it and the threshold sinks below `steps` instead. With steps = 0, a table
// with a negative entry (no ADC table has one: entries are squared
// distances), or a scale that is not positive with a finite inverse,
//
//	delta = max_{m,c}(table[m*Ks+c] - min_m) / 255,   mag = Σ_m max(|min_m|, |max_m|)
//
// the full-spread scale, under which no entry clamps (delta = 1 when the
// table is constant per sub-quantizer: every entry quantizes to 0).
// min_m/max_m range over each sub-quantizer's *trained* centroids (entries
// past Codebooks[m].Rows, padding no code references, are written as 0).
//
// Floor and clamp both round down, so under either scale every quantized
// sum — and every saturated one, min(255, Σ) — is a lower bound of its float
// sum, bias + delta·Σ_m lut8[m][c_m] ≤ Σ_m table[m][c_m], and a scan can
// early-abandon on the integer sum without dropping a row the exact table
// would keep; without clamping the error is also below M·delta. mag bounds
// Σ_m |entry| of every row the scale is there to decide (rows summing to at
// most `at`, or all rows): what bounds such a sum's float32 rounding.
func (pq *ProductQuantizer) QuantizeTableInto(table []float32, lut8 []uint8, at, steps float32) (bias, delta, mag float32) {
	if len(table) != pq.M*pq.Ks || len(lut8) != pq.M*pq.Ks {
		panic(fmt.Sprintf("quant: QuantizeTableInto length %d/%d, want %d", len(table), len(lut8), pq.M*pq.Ks))
	}
	if pq.M > MaxM4 {
		panic(fmt.Sprintf("quant: M=%d exceeds MaxM4=%d", pq.M, MaxM4))
	}
	var spread, top float32
	var mins [MaxM4]float32
	relative := steps > 0 // and, below, no negative entry
	for m := 0; m < pq.M; m++ {
		row := table[m*pq.Ks:][:pq.Codebooks[m].Rows]
		mn, mx := row[0], row[0]
		for _, v := range row[1:] {
			if v < mn {
				mn = v
			} else if v > mx {
				mx = v
			}
		}
		mins[m] = mn
		bias += mn
		top += max(mx, -mn)
		spread = max(spread, mx-mn)
		relative = relative && mn >= 0
	}
	delta, mag = max((at-bias)/steps, 4*float32(pq.M)/(1<<24)*at), at
	if inv := 1 / delta; !(relative && delta > 0 && inv <= math.MaxFloat32) {
		delta, mag = spread/255, top
		if delta <= 0 {
			delta = 1
		}
	}
	inv := 1 / delta
	for m := 0; m < pq.M; m++ {
		rows := pq.Codebooks[m].Rows
		row, out := table[m*pq.Ks:][:rows], lut8[m*pq.Ks:][:pq.Ks]
		for c, v := range row {
			// Clamp as a float: a product past int32 converts to anything.
			if q := (v - mins[m]) * inv; q >= 255 {
				out[c] = 255
			} else {
				out[c] = uint8(int32(q))
			}
		}
		clear(out[rows:])
	}
	return bias, delta, mag
}
