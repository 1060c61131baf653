package index

import (
	"fmt"
	"testing"

	"emblookup/internal/mathx"
	"emblookup/internal/quant"
)

// fsBlockSums is the scalar definition of what the assembly kernel
// accumulates: row r's sum of its M4 lut8 entries, saturated to a byte.
func fsBlockSums(blk []byte, lut8 []uint8, np int) (sums [fsBlock]uint8) {
	for r := range sums {
		sum := 0
		for p := 0; p < np; p++ {
			b := blk[p*fsBlock+r]
			sum += int(lut8[2*p*quant.Ks4+int(b&0xf)]) + int(lut8[(2*p+1)*quant.Ks4+int(b>>4)])
		}
		sums[r] = uint8(min(sum, 255))
	}
	return sums
}

// fsKernelCase is one prepared query over one synthetic index, with the
// plain float32 scan as the reference.
type fsKernelCase struct {
	name string
	ix   *FastScan
	q    fsQuery
}

// query returns the case's prepared query over a lut8 of its own: a kernel
// that requantizes in place must not hand that to the next one.
func (c *fsKernelCase) query() *fsQuery {
	q := c.q
	q.lut8 = append([]uint8(nil), q.lut8...)
	return &q
}

// kernelScan runs one kernel — the AVX2 assembly or the portable one —
// over positions [lo, hi) with a fresh scan state, as scanRange does for
// one cluster, and returns the counts it would flush.
func (ix *FastScan) kernelScan(table []float32, s *Scratch, t *topK, lo, hi int, avx2 bool) FastScanCounts {
	sc := fsScan{ix: ix, s: s, t: t, table: table}
	if lo < hi {
		sc.c.Rows = int64(hi - lo)
		if avx2 {
			sc.scanAVX2(lo, hi)
		} else {
			sc.scanPortable(lo, hi)
		}
	}
	return sc.c
}

// fsKernelCases builds, for one code shape, a query from random codebooks,
// one from an all-ties alphabet, one whose table is constant per
// sub-quantizer (every row at distance bias: w == bias, the fallback scale)
// and one whose every lut8 entry is 255 — M4·255 per row, which the
// portable kernel's uint16 sum must hold exactly and a byte must saturate
// at, never wrap.
func fsKernelCases(m4, ks, n int, seed uint64) []fsKernelCase {
	rng := mathx.NewRNG(seed)
	var cases []fsKernelCase
	for _, style := range []string{"random", "ties", "constant", "all255"} {
		ix := syntheticFastScan(randomNibbles(n, m4, ks, seed+uint64(len(cases))), m4, ks, n)
		table, lut8 := make([]float32, ix.pq.M*quant.Ks4), make([]uint8, ix.pq.M*quant.Ks4)
		var q fsQuery
		switch style {
		case "all255":
			// Every distance is at least 255 per sub-quantizer, so 255 per
			// entry at scale 1 is a valid floor of the table.
			for i := range table {
				table[i], lut8[i] = 255+float32(rng.Intn(3)), 255
			}
			q = newFSQuery(table, lut8, 0, 1, float32(m4)*257)
		default:
			query := make([]float32, m4)
			for _, cb := range ix.pq.Codebooks {
				for c := range cb.Data {
					switch style {
					case "ties":
						cb.Data[c] = float32(rng.Intn(2))
					case "constant":
						cb.Data[c] = 3
					default:
						cb.Data[c] = rng.Float32()
					}
				}
			}
			remakeQuantizer(ix)
			for m := range query {
				if style == "random" {
					query[m] = rng.Float32()
				}
			}
			q = ix.quantize(ix.prepare(query, &Scratch{}), lut8, 0, 0)
		}
		cases = append(cases, fsKernelCase{fmt.Sprintf("M4=%d/Ks=%d/n=%d/%s", m4, ks, n, style), ix, q})
	}
	return cases
}

// TestFastScanKernelsAgree is the equivalence table: the AVX2 kernel, the
// portable kernel (on every host) and scanRange's own dispatch, each
// against scanPlain4, over code widths up to the widest a configuration may
// name (the portable kernel's 16-bit sums reach 256·255 there), centroid counts
// from one to all sixteen, the four table styles of fsKernelCases, row
// counts off the block size, ranges that start and end mid-block or inside
// one block (the last inside the rows the heap is seeded from), k from
// 1 to past n (a heap that never fills: the range ends inside the seed and
// no table is ever quantized), and heaps that arrive already full of the
// rows before the range.
func TestFastScanKernelsAgree(t *testing.T) {
	s := &Scratch{}
	for _, m4 := range []int{2, 4, 16, 126, 128, 130, 256} {
		for _, ks := range []int{1, 7, 16} {
			for _, n := range []int{5, 3*fsBlock + 7} {
				for _, c := range fsKernelCases(m4, ks, n, uint64(m4*100+ks)) {
					ranges := [][2]int{{0, n}, {n / 3, n - 1}, {1, min(n, fsBlock) - 1}}
					for _, rg := range ranges {
						for _, k := range []int{1, 9, n + 3} {
							for _, prefill := range []int{0, rg[0]} {
								// prefill > 0: the heap arrives holding the best
								// of rows [0, lo).
								lo, hi := rg[0], rg[1]
								heap := func(table []float32) *topK {
									h := newTopK(k)
									c.ix.scanPlain4(table, h, 0, prefill)
									return h
								}
								plain := func(table []float32) []Result {
									h := heap(table)
									c.ix.scanPlain4(table, h, lo, hi)
									return h.sorted()
								}
								want := plain(c.q.table)
								ctx := fmt.Sprintf("%s rows [%d,%d) after %d k=%d", c.name, lo, hi, prefill, k)

								if fsAVX2 {
									h := heap(c.q.table)
									c.ix.kernelScan(c.q.table, s, h, lo, hi, true)
									sameResults(t, ctx+" avx2", want, h.sorted())
								}
								h := heap(c.q.table)
								c.ix.kernelScan(c.q.table, s, h, lo, hi, false)
								sameResults(t, ctx+" portable", want, h.sorted())
								got := heap(c.q.table)
								c.ix.scanRange(c.q.table, s, got, lo, hi)
								sameResults(t, ctx+" scanRange", want, got.sorted())
							}
						}
					}
				}
			}
		}
	}
}

// TestFastScanRequantizes forces the table to be rescaled mid-range, twice
// at least: rows sit far from the query except three planted ever nearer
// matches, blocks apart, each of which pulls the k-th best distance — and
// with it the limit — below half the threshold the table was last quantized
// against. The answer must not notice, and off AVX2 (one full-spread table
// per scan) nothing is requantized at all.
func TestFastScanRequantizes(t *testing.T) {
	const m4, far = 16, quant.Ks4 - 1
	n := 40 * fsBlock
	nib := randomNibbles(n, m4, 4, 5) // centroids 0-3, the query sits on 15
	for i, row := range []int{10 * fsBlock, 20*fsBlock + 7, 30*fsBlock + 31} {
		for m := 0; m < m4; m++ {
			nib[row*m4+m] = byte(min(far, 9+3*i)) // 6, 3, then 0 away per coordinate
		}
	}
	ix := syntheticFastScan(nib, m4, quant.Ks4, n)
	for _, cb := range ix.pq.Codebooks {
		for c := range cb.Data {
			cb.Data[c] = float32(c)
		}
	}
	remakeQuantizer(ix)
	query := make([]float32, m4)
	for m := range query {
		query[m] = far
	}
	s := &Scratch{}
	table := append([]float32(nil), ix.prepare(query, s)...)
	plain, got := newTopK(1), newTopK(1)
	ix.scanPlain4(table, plain, 0, n)
	before := ReadFastScanCounts()
	ix.scanRange(table, s, got, 0, n)
	requantized := ReadFastScanCounts().Requantizations - before.Requantizations
	sameResults(t, "requantized scan", plain.sorted(), got.sorted())
	if fsAVX2 && requantized < 2 {
		t.Fatalf("%d requantizations, want the limit halved at least twice", requantized)
	}
	if !fsAVX2 && requantized != 0 {
		t.Fatalf("%d requantizations on the portable kernel", requantized)
	}
}

// TestFastScanDistancesDwarfSpread is the regime where float32 cannot
// resolve what a threshold-relative table would like to: every table entry
// is 1 plus a few units in the last place, so row sums differ only in bits
// the summation itself rounds, and the k-th best distance sits a hair above
// bias. A scale that followed w − bias down there would prune on rounding
// noise; the quantizer's precision floor (and, on the full-spread table, the
// derived slack) must keep every row the float scan keeps.
func TestFastScanDistancesDwarfSpread(t *testing.T) {
	const m4, n = 16, 50 * fsBlock
	s := &Scratch{}
	for seed := uint64(1); seed <= 20; seed++ {
		rng := mathx.NewRNG(seed)
		ix := syntheticFastScan(randomNibbles(n, m4, quant.Ks4, seed), m4, quant.Ks4, n)
		table := make([]float32, ix.pq.M*quant.Ks4)
		for i := range table {
			table[i] = 1 + float32(rng.Intn(1<<uint(seed%6)))/(1<<23)
		}
		for _, k := range []int{1, 10, 100} {
			plain, got := newTopK(k), newTopK(k)
			ix.scanPlain4(table, plain, 0, n)
			ix.scanRange(table, s, got, 0, n)
			sameResults(t, fmt.Sprintf("seed %d k=%d", seed, k), plain.sorted(), got.sorted())
		}
	}
}

// TestFastScanLongRange scans more blocks than one assembly call walks
// (fsMaxRun), so scanAVX2 re-enters the
// kernel at run boundaries. Every row is far from the query except two
// planted near matches — the last row of a run and the row after it — and
// one exact match a whole run further on: the near matches tighten the
// limit until a full run admits nothing and is skipped whole, and the exact
// match is missed if the re-entry after that run loses a block.
func TestFastScanLongRange(t *testing.T) {
	const m4, far = 2, quant.Ks4 - 1
	n := 2*fsMaxRun*fsBlock + fsBlock + 5
	near, exact := []int{fsMaxRun*fsBlock - 1, fsMaxRun * fsBlock}, n-3
	nib := randomNibbles(n, m4, quant.Ks4/2, 77) // centroids 0-7, the query sits on 15
	for _, r := range near {
		nib[r*m4], nib[r*m4+1] = far, far-1
	}
	nib[exact*m4], nib[exact*m4+1] = far, far
	ix := syntheticFastScan(nib, m4, quant.Ks4, n)
	for _, cb := range ix.pq.Codebooks {
		for c := range cb.Data {
			cb.Data[c] = float32(c)
		}
	}
	remakeQuantizer(ix)
	table := ix.prepare([]float32{far, far}, &Scratch{})
	s := &Scratch{}
	for _, rg := range [][2]int{{0, n}, {fsBlock + 3, n - 1}, {near[0], near[1] + 1}} {
		for _, k := range []int{1, 3, 40} {
			plain, got := newTopK(k), newTopK(k)
			ix.scanPlain4(table, plain, rg[0], rg[1])
			ix.scanRange(table, s, got, rg[0], rg[1])
			want := plain.sorted()
			if rg[1] > exact && want[0] != (Result{ID: int32(exact)}) {
				t.Fatalf("rows [%d,%d) k=%d: reference top hit %+v is not the exact match", rg[0], rg[1], k, want[0])
			}
			sameResults(t, fmt.Sprintf("rows [%d,%d) k=%d", rg[0], rg[1], k), want, got.sorted())
		}
	}
}

// TestFastScanRunMatchesScalarSums checks the assembly kernel's own
// contract against a scalar saturating loop: under every limit — 0 (only
// an all-zero row stops it), the lowest sum present, a middling one, 254,
// and 255 and the underfull-heap sentinel above it (both admit everything,
// a saturated row included) — it stops at exactly the first block holding
// a sum ≤ limit, with that block's 32 byte sums in row order and exactly
// the rows at or under the limit in the mask, and otherwise returns the
// run's length and an empty mask. The all-255 table at M4 = 256 must read
// 255 on every row: saturated, not wrapped.
func TestFastScanRunMatchesScalarSums(t *testing.T) {
	if !fsAVX2 {
		t.Skip("no AVX2 kernel in this build")
	}
	for _, m4 := range []int{2, 16, 130, 256} {
		for _, c := range fsKernelCases(m4, 16, 6*fsBlock+1, uint64(m4)) {
			np, bpb := m4/2, fsBlockBytes(m4)
			nblocks := len(c.ix.blocks) / bpb
			sums := make([][fsBlock]uint8, nblocks)
			var lowest uint8 = 255
			for b := range sums {
				sums[b] = fsBlockSums(c.ix.blocks[b*bpb:], c.q.lut8, np)
				for _, v := range sums[b] {
					lowest = min(lowest, v)
				}
			}
			for _, limit := range []uint32{0, uint32(lowest), (uint32(lowest) + 255) / 2, 254, 255, 1<<32 - 1} {
				ctx := fmt.Sprintf("%s limit %d", c.name, limit)
				for b := 0; b < nblocks; b++ {
					want := b
					for want < nblocks && maskAtMost(sums[want], limit) == 0 {
						want++
					}
					var qd [fsBlock]uint8
					skipped, mask := fsScanRun(c.ix.blocks[b*bpb:], c.q.lut8, np, nblocks-b, limit, &qd)
					if got := b + skipped; got != want {
						t.Fatalf("%s from block %d: stopped at %d, want %d", ctx, b, got, want)
					}
					if want == nblocks {
						if mask != 0 {
							t.Fatalf("%s from block %d: mask %#x for a run with no hit", ctx, b, mask)
						}
						continue
					}
					if qd != sums[want] {
						t.Fatalf("%s block %d: sums %v, want %v", ctx, want, qd, sums[want])
					}
					if wantMask := maskAtMost(sums[want], limit); mask != wantMask {
						t.Fatalf("%s block %d: mask %#x, want %#x", ctx, want, mask, wantMask)
					}
				}
			}
		}
	}
}

// maskAtMost is the row mask of a block's sums under limit.
func maskAtMost(sums [fsBlock]uint8, limit uint32) (mask uint32) {
	for r, v := range sums {
		if uint32(v) <= limit {
			mask |= 1 << r
		}
	}
	return mask
}

// TestFastScanRunBoundsChecked asserts the wrapper refuses, with an
// ordinary Go panic, a run longer than the blocks it is handed or a lut8
// shorter than its table — a byte short included: the assembly behind it
// would read past the slice.
func TestFastScanRunBoundsChecked(t *testing.T) {
	if !fsAVX2 {
		t.Skip("no AVX2 kernel in this build")
	}
	const m4 = 16
	np, bpb, sl := m4/2, fsBlockBytes(m4), m4*quant.Ks4
	blocks, lut8 := make([]byte, 3*bpb), make([]uint8, sl)
	var qd [fsBlock]uint8
	run := func(blocks []byte, lut8 []uint8, np int) func() {
		return func() { fsScanRun(blocks, lut8, np, 3, 0, &qd) }
	}
	for name, run := range map[string]func(){
		"blocks one byte short":  run(blocks[:3*bpb-1], lut8, np),
		"blocks one block short": run(blocks[:2*bpb:2*bpb], lut8, np),
		"lut8 one row short":     run(blocks, lut8[:sl-quant.Ks4], np),
		"lut8 one byte short":    run(blocks, lut8[:sl-1], np),
		"empty lut8":             run(blocks, nil, np),
		"no strips":              run(blocks, lut8, 0),
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
	if got, mask := fsScanRun(blocks, lut8, np, 0, 0, &qd); got != 0 || mask != 0 {
		t.Fatalf("empty run returned %d, %#x", got, mask)
	}
}

// TestFastScanIgnoresBytesPastRun scans an index whose blocks are a
// sub-slice of a larger buffer filled with 0xFF before and after, and
// asserts the answers equal those over an exact-length copy: no kernel's
// result may depend on a byte outside the blocks of its range.
func TestFastScanIgnoresBytesPastRun(t *testing.T) {
	exact, data := buildFastScan(t, 5*fsBlock+9, 32, 17)
	const margin = 4096
	big := make([]byte, margin+len(exact.blocks)+margin)
	for i := range big {
		big[i] = 0xff
	}
	copy(big[margin:], exact.blocks)
	inside := &FastScan{pq: exact.pq, n: exact.n, blocks: big[margin : margin+len(exact.blocks)]}
	sh, err := NewSharded(inside, 3, 2)
	if err != nil {
		t.Fatal(err)
	}
	queries := make([][]float32, 9)
	for i := range queries {
		queries[i] = data.Row(i * 11)
	}
	s := &Scratch{}
	for _, k := range []int{1, 10, exact.n + 1} {
		for _, nq := range []int{4, 6, 9} {
			batch, shBatch := BatchSearch(inside, queries[:nq], k, 1), BatchSearch(sh, queries[:nq], k, 2)
			for i, q := range queries[:nq] {
				want := Search(exact, q, k)
				sameResults(t, "solo inside a larger buffer", want, Search(inside, q, k))
				sameResults(t, "sharded inside a larger buffer", want, Search(sh, q, k))
				sameResults(t, "batch inside a larger buffer", want, batch[i])
				sameResults(t, "sharded batch inside a larger buffer", want, shBatch[i])
			}
		}
		// Each kernel itself, over ranges that end at the last row and
		// start and end mid-block.
		table := inside.prepare(queries[0], &Scratch{})
		for _, rg := range [][2]int{{0, exact.n}, {3, exact.n - 2}} {
			plain := newTopK(k)
			exact.scanPlain4(table, plain, rg[0], rg[1])
			for _, avx2 := range []bool{false, fsAVX2} {
				got := newTopK(k)
				inside.kernelScan(table, s, got, rg[0], rg[1], avx2)
				sameResults(t, fmt.Sprintf("kernel (avx2 %v) inside a larger buffer, rows %v", avx2, rg), plain.sorted(), got.sorted())
			}
		}
	}
}
