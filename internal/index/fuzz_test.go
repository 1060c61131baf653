package index

import (
	"bytes"
	"context"
	"math"
	"slices"
	"testing"

	"emblookup/internal/mathx"
	"emblookup/internal/quant"
)

// syntheticFastScan builds a fast-scan index directly from arbitrary
// nibble codes (n rows × m4 codes, each < ks ≤ 16) with a fake trained
// quantizer of Dsub=1 — no k-means, so fuzzers control the codes exactly.
func syntheticFastScan(nib []byte, m4, ks, n int) *FastScan {
	cbs := make([]*mathx.Matrix, m4)
	for m := range cbs {
		cbs[m] = mathx.NewMatrix(ks, 1)
	}
	return &FastScan{pq: quant.NewProductQuantizer(quant.Ks4, cbs), blocks: interleave4(nib, m4, n), n: n}
}

// interleave4 transposes row-major nibble codes (n rows × m4 nibbles, one
// per byte) into the block-interleaved layout; deinterleave4 inverts it.
// They define the layout the fuzz round-trip locks down.
func interleave4(nib []byte, m4, n int) []byte {
	np := m4 / 2
	blocks := make([]byte, fsBlocksLen(m4, n))
	for i := 0; i < n; i++ {
		blk := blocks[i/fsBlock*fsBlockBytes(m4):]
		r := i % fsBlock
		for p := 0; p < np; p++ {
			blk[p*fsBlock+r] = nib[i*m4+2*p]&0xf | nib[i*m4+2*p+1]<<4
		}
	}
	return blocks
}

func deinterleave4(blocks []byte, m4, n int) []byte {
	np := m4 / 2
	nib := make([]byte, n*m4)
	for i := 0; i < n; i++ {
		blk := blocks[i/fsBlock*fsBlockBytes(m4):]
		r := i % fsBlock
		for p := 0; p < np; p++ {
			b := blk[p*fsBlock+r]
			nib[i*m4+2*p] = b & 0xf
			nib[i*m4+2*p+1] = b >> 4
		}
	}
	return nib
}

// remakeQuantizer makes ix's quantizer anew from its codebooks, as the
// codec does at attach, after a test has written centroids into them.
func remakeQuantizer(ix *FastScan) {
	ix.pq = quant.NewProductQuantizer(ix.pq.Ks, ix.pq.Codebooks)
}

// FuzzInterleave4RoundTrip locks down the block-interleaved 4-bit layout:
// interleave4 followed by deinterleave4 is the identity on nibble codes,
// and the padding rows of the final partial block stay zero.
func FuzzInterleave4RoundTrip(f *testing.F) {
	f.Add(uint8(1), uint8(1), uint64(0))
	f.Add(uint8(33), uint8(4), uint64(7))
	f.Add(uint8(96), uint8(8), uint64(42))
	f.Fuzz(func(t *testing.T, nRaw, m4Raw uint8, seed uint64) {
		n := int(nRaw)%200 + 1
		m4 := (int(m4Raw)%8 + 1) * 2
		rng := mathx.NewRNG(seed)
		nib := make([]byte, n*m4)
		for i := range nib {
			nib[i] = byte(rng.Intn(quant.Ks4))
		}
		blocks := interleave4(nib, m4, n)
		if len(blocks) != fsBlocksLen(m4, n) {
			t.Fatalf("interleave4(%d rows, M=%d) = %d bytes, want %d", n, m4, len(blocks), fsBlocksLen(m4, n))
		}
		back := deinterleave4(blocks, m4, n)
		for i := range nib {
			if nib[i] != back[i] {
				t.Fatalf("round trip diverges at nibble %d: %d vs %d", i, nib[i], back[i])
			}
		}
		// Padding rows must read back zero (the layout's persistence
		// validator depends on it).
		padded := (n + fsBlock - 1) / fsBlock * fsBlock
		pad := deinterleave4(blocks, m4, padded)
		for i := n * m4; i < len(pad); i++ {
			if pad[i] != 0 {
				t.Fatalf("padding nibble %d = %d, want 0", i, pad[i])
			}
		}
	})
}

// FuzzFastScanEquivalence asserts the quantized early-abandoning fast-scan
// kernels — the AVX2 one where the CPU has it, and the portable one on
// every host — return bit-identical results to the plain float32 scan of
// the same 4-bit codes, for arbitrary shapes, k (including 1 and k > n),
// shard counts, batch sizes 1…9 (a duplicate query inside the batch), and
// tie-heavy integer distance tables (where the quantized prune
// must over-admit on exact ties, never drop). Tables come from queries
// against synthetic codebooks, so the batch entry points see them too.
func FuzzFastScanEquivalence(f *testing.F) {
	f.Add(uint16(1), uint8(1), uint8(1), uint16(1), uint8(1), uint64(0), uint8(0), uint8(0))
	f.Add(uint16(200), uint8(4), uint8(15), uint16(10), uint8(4), uint64(7), uint8(3), uint8(1))
	f.Add(uint16(700), uint8(2), uint8(7), uint16(250), uint8(7), uint64(42), uint8(1), uint8(2))
	f.Add(uint16(96), uint8(6), uint8(3), uint16(5), uint8(2), uint64(99), uint8(0), uint8(3))
	f.Add(uint16(40), uint8(5), uint8(9), uint16(250), uint8(3), uint64(5), uint8(4), uint8(4))
	f.Add(uint16(333), uint8(3), uint8(15), uint16(0), uint8(5), uint64(11), uint8(2), uint8(8))
	f.Fuzz(func(t *testing.T, nRaw uint16, m4Raw, ksRaw uint8, kRaw uint16, shardsRaw uint8, seed uint64, tieMod, batchRaw uint8) {
		n := int(nRaw)%1200 + 1
		m4 := (int(m4Raw)%6 + 1) * 2
		ks := int(ksRaw)%quant.Ks4 + 1
		k := int(kRaw)%300 + 1
		shards := int(shardsRaw)%9 + 1
		nq := int(batchRaw)%9 + 1

		rng := mathx.NewRNG(seed)
		nib := make([]byte, n*m4)
		for i := range nib {
			nib[i] = byte(rng.Intn(ks))
		}
		ix := syntheticFastScan(nib, m4, ks, n)
		// Continuous coordinates, or a tiny integer alphabet under which most
		// table entries — all of them at one level — collide.
		draw := func(levels int) float32 {
			if tieMod == 0 {
				return rng.Float32()
			}
			return float32(rng.Intn(levels))
		}
		for _, cb := range ix.pq.Codebooks {
			for c := range cb.Data {
				cb.Data[c] = draw(int(tieMod)%4 + 1)
			}
		}
		remakeQuantizer(ix)
		queries := make([][]float32, nq)
		for i := range queries {
			if i == 2 {
				queries[i] = queries[0] // a duplicate inside the batch
				continue
			}
			queries[i] = make([]float32, m4)
			for m := range queries[i] {
				queries[i][m] = draw(3)
			}
		}
		sh, err := NewSharded(ix, shards, 2)
		if err != nil {
			t.Fatal(err)
		}

		s := GetScratch()
		defer PutScratch(s)
		want := make([][]Result, nq)
		for i, q := range queries {
			table := ix.prepare(q, s)
			plain := newTopK(k)
			ix.scanPlain4(table, plain, 0, ix.n)
			want[i] = plain.sorted()

			fast := newTopK(k)
			ix.scanRange(table, s, fast, 0, n)
			sameResults(t, "fast-scan", want[i], fast.sorted())
			merged, _ := sh.Search(context.Background(), s, q, k, nil)
			sameResults(t, "sharded fast-scan", want[i], merged)
			sameResults(t, "solo SearchWith", want[i], ix.SearchWith(s, q, k))
		}

		// One worker scans every query over all rows; three split a small
		// batch's rows at the shard bounds.
		for _, parallelism := range []int{1, 3} {
			for name, b := range map[string]Index{"bare": ix, "sharded": sh} {
				for i, got := range BatchSearch(b, queries, k, parallelism) {
					sameResults(t, name+" batch", want[i], got)
				}
			}
		}

		// Both kernels and scanRange against the plain scan on a range that
		// starts and ends mid-block.
		lo := rng.Intn(n)
		hi := lo + rng.Intn(n-lo+1)
		for _, q := range queries {
			table := ix.prepare(q, &Scratch{})
			plain, solo := newTopK(k), newTopK(k)
			ix.scanPlain4(table, plain, lo, hi)
			ix.scanRange(table, s, solo, lo, hi)
			sameResults(t, "solo range", plain.sorted(), solo.sorted())
			for _, avx2 := range []bool{false, fsAVX2} {
				got := newTopK(k)
				ix.kernelScan(table, s, got, lo, hi, avx2)
				sameResults(t, "kernel range", plain.sorted(), got.sorted())
			}
		}
	})
}

// FuzzScanEquivalence asserts that every decomposition of the 8-bit ADC
// scan — PQ.scanRange (the scanADC kernel) over all rows and over a random
// sub-range [lo, hi), and the sharded per-range scans merged in shard
// order — returns bit-identical results to the plain per-code loop over the
// same rows, for arbitrary code counts, sub-quantizer shapes, k, and shard
// counts. Distance tables are drawn from a small integer alphabet when
// tieMod is nonzero, so exact distance ties (the hard case for top-k
// equivalence) dominate the search space.
func FuzzScanEquivalence(f *testing.F) {
	f.Add(uint16(1), uint8(1), uint8(1), uint16(1), uint8(1), uint64(0), uint8(0))
	f.Add(uint16(300), uint8(8), uint8(31), uint16(10), uint8(4), uint64(7), uint8(3))
	f.Add(uint16(777), uint8(3), uint8(63), uint16(300), uint8(7), uint64(42), uint8(1))
	f.Add(uint16(512), uint8(12), uint8(15), uint16(5), uint8(2), uint64(99), uint8(0))
	f.Fuzz(func(t *testing.T, nRaw uint16, mRaw, ksRaw uint8, kRaw uint16, shardsRaw uint8, seed uint64, tieMod uint8) {
		n := int(nRaw)%1500 + 1
		m := int(mRaw)%12 + 1
		ks := int(ksRaw)%64 + 1
		k := int(kRaw)%320 + 1
		shards := int(shardsRaw)%9 + 1

		rng := mathx.NewRNG(seed)
		table := make([]float32, m*ks)
		for i := range table {
			if tieMod == 0 {
				// Continuous non-negative distances (ties still possible
				// through summation, just rare).
				table[i] = rng.Float32()
			} else {
				// Tiny integer alphabet: most candidate distances collide.
				table[i] = float32(rng.Intn(int(tieMod)%4 + 1))
			}
		}
		codes := make([]byte, n*m)
		for i := range codes {
			codes[i] = byte(rng.Intn(ks))
		}
		ix := &PQ{pq: &quant.ProductQuantizer{D: m, M: m, Ks: ks, Dsub: 1}, codes: codes, n: n}

		plain := newTopK(k)
		ix.scanPlain(table, plain, 0, n)
		want := plain.sorted()

		lo := rng.Intn(n + 1)
		hi := lo + rng.Intn(n-lo+1)
		for _, rg := range [][2]int{{0, n}, {lo, hi}} {
			ref, got := newTopK(k), newTopK(k)
			ix.scanPlain(table, ref, rg[0], rg[1])
			ix.scanRange(table, nil, got, rg[0], rg[1])
			rs, gs := ref.sorted(), got.sorted()
			if len(rs) != len(gs) {
				t.Fatalf("scanRange [%d, %d): %d vs %d results", rg[0], rg[1], len(rs), len(gs))
			}
			for i := range rs {
				if rs[i] != gs[i] {
					t.Fatalf("scanRange [%d, %d) diverges at %d: %+v vs %+v", rg[0], rg[1], i, rs[i], gs[i])
				}
			}
		}

		sh, err := NewSharded(tableScanner{ix, table}, shards, 2)
		if err != nil {
			t.Fatal(err)
		}
		merged := Search(sh, nil, k)
		if len(want) != len(merged) {
			t.Fatalf("sharded: %d vs %d results", len(want), len(merged))
		}
		for i := range want {
			if want[i] != merged[i] {
				t.Fatalf("sharded merge diverges at %d (shards=%d): %+v vs %+v",
					i, shards, want[i], merged[i])
			}
		}
	})
}

// tableScanner is a PQ that scans one fixed, synthetic ADC table whatever
// the query — how the fuzzer drives the solo scan over tables no trained
// quantizer would produce.
type tableScanner struct {
	*PQ
	table []float32
}

func (ts tableScanner) prepare([]float32, *Scratch) []float32 { return ts.table }

// FuzzADCListScanEquivalence holds the one ADC kernel (scanADC: eight
// sums in flight, a push only where the heap admits) to pushing every row's
// plain one-at-a-time sum, heap entry for heap entry, in both of its modes:
// an IVF-PQ list (row j is ids[j]) and a PQ range (nil ids, row j is
// id0+j for a random id0). It runs at M 1–12, 0–100 rows (whole groups of
// eight and a tail), k 1–40, and a heap that arrives with 0 to k+3 entries
// already in it — underfull, full, or tied with the rows' distances. Table
// entries are +Inf or NaN one time in eight, and otherwise continuous or
// drawn from a tiny integer alphabet where ties dominate; an underfull heap
// must take a +Inf or NaN row, a full one never does.
func FuzzADCListScanEquivalence(f *testing.F) {
	f.Add(uint8(8), uint8(40), uint8(10), uint8(0), uint64(1), uint8(0))
	f.Add(uint8(1), uint8(17), uint8(3), uint8(5), uint64(7), uint8(2))
	f.Add(uint8(12), uint8(100), uint8(39), uint8(20), uint64(42), uint8(1))
	f.Add(uint8(5), uint8(9), uint8(40), uint8(2), uint64(99), uint8(3))
	f.Fuzz(func(t *testing.T, mRaw, nRaw, kRaw, preRaw uint8, seed uint64, tieMod uint8) {
		m, n, k := int(mRaw)%12+1, int(nRaw)%101, int(kRaw)%40+1
		pre := int(preRaw) % (k + 4)
		const ks = 16
		rng := mathx.NewRNG(seed)
		value := func() float32 {
			switch {
			case rng.Intn(16) == 0:
				return float32(math.Inf(1))
			case rng.Intn(16) == 0:
				return float32(math.NaN())
			case tieMod == 0:
				return rng.Float32()
			default:
				return float32(rng.Intn(int(tieMod)%4 + 1))
			}
		}
		table := make([]float32, m*ks)
		for i := range table {
			table[i] = value()
		}
		codes := make([]byte, n*m)
		for i := range codes {
			codes[i] = byte(rng.Intn(ks))
		}
		ids := make([]int32, n)
		for i := range ids {
			ids[i] = int32(rng.Intn(200))
		}
		prefill := make([]Result, pre)
		for i := range prefill {
			prefill[i] = Result{ID: int32(rng.Intn(200)), Dist: value() * float32(m)}
		}
		id0 := int32(rng.Intn(1 << 30))
		for _, mode := range []struct {
			name string
			ids  []int32
			id0  int32
		}{{"list", ids, 0}, {"range", nil, id0}} {
			got, want := newTopK(k), newTopK(k)
			for _, r := range prefill {
				got.push(r.ID, r.Dist)
				want.push(r.ID, r.Dist)
			}
			scanADC(table, m, ks, codes, mode.ids, mode.id0, got)
			for j := 0; j < n; j++ {
				var d float32
				for b := 0; b < m; b++ {
					d += table[b*ks+int(codes[j*m+b])]
				}
				id := mode.id0 + int32(j)
				if mode.ids != nil {
					id = mode.ids[j]
				}
				want.push(id, d)
			}
			if len(got.heap) != len(want.heap) {
				t.Fatalf("%s M=%d n=%d k=%d pre=%d: %d entries, want %d", mode.name, m, n, k, pre, len(got.heap), len(want.heap))
			}
			for i, w := range want.heap {
				g := got.heap[i]
				if g.ID != w.ID || (math.Float32bits(g.Dist) != math.Float32bits(w.Dist) && !(g.Dist != g.Dist && w.Dist != w.Dist)) {
					t.Fatalf("%s M=%d n=%d k=%d pre=%d: heap[%d] = %+v, want %+v", mode.name, m, n, k, pre, i, g, w)
				}
			}
		}
	})
}

// clusteredSynthetic is syntheticFastScan's rows stored under an arbitrary
// cluster layout: position p holds row perm[p], cluster c positions
// [bounds[c], bounds[c+1]), masks derived from the codes as attach does.
func clusteredSynthetic(plain *FastScan, nib []byte, perm []int32, bounds []int) *FastScan {
	m4 := plain.pq.M
	byPos := make([]byte, len(nib))
	for pos, id := range perm {
		copy(byPos[pos*m4:(pos+1)*m4], nib[int(id)*m4:(int(id)+1)*m4])
	}
	ix := &FastScan{pq: plain.pq, blocks: interleave4(byPos, m4, plain.n), n: plain.n, ids: perm, bounds: bounds}
	ix.computeMasks()
	return ix
}

// checkClusteredEquivalence draws one case — n rows of m4 nibble codes
// below ks, a third of them copies of earlier rows, codebooks continuous or
// from a tiny integer alphabet (all-ties tables), a random permutation (for
// an even seed, ordered by the rows' leading codes) cut into nc clusters
// (empty ones included), nq queries with a duplicate — and
// holds the clustered index to the same codes in id order: solo, batch at
// one and three workers, 3-shard, and after two appends (one row, then
// four) that each add a cluster, every answer bit for bit.
func checkClusteredEquivalence(t *testing.T, n, m4, ks, k, nc, nq int, seed uint64, ties bool) {
	rng := mathx.NewRNG(seed)
	nib := randomNibbles(n, m4, ks, seed)
	for i := 1; i < n; i += 3 {
		j := rng.Intn(i)
		copy(nib[i*m4:(i+1)*m4], nib[j*m4:(j+1)*m4])
	}
	plain := syntheticFastScan(nib, m4, ks, n)
	draw := func() float32 {
		if ties {
			return float32(rng.Intn(2))
		}
		return rng.Float32()
	}
	for _, cb := range plain.pq.Codebooks {
		for c := range cb.Data {
			cb.Data[c] = draw()
		}
	}
	remakeQuantizer(plain)
	perm := make([]int32, n)
	for i := range perm {
		perm[i] = int32(i)
	}
	for i := n - 1; i > 0; i-- {
		j := rng.Intn(i + 1)
		perm[i], perm[j] = perm[j], perm[i]
	}
	if seed%2 == 0 {
		// Rows ordered by their leading codes, so clusters are narrow in
		// those sub-quantizers and bounds prune, as k-means clusters do.
		slices.SortStableFunc(perm, func(a, b int32) int {
			return bytes.Compare(nib[int(a)*m4:int(a)*m4+min(m4, 3)], nib[int(b)*m4:int(b)*m4+min(m4, 3)])
		})
	}
	bounds := []int{0}
	for c := 1; c < nc; c++ {
		bounds = append(bounds, rng.Intn(n+1))
	}
	bounds = append(bounds, n)
	slices.Sort(bounds)
	ix := clusteredSynthetic(plain, nib, perm, bounds)
	queries := make([][]float32, nq)
	for i := range queries {
		if i == 2 {
			queries[i] = queries[0]
			continue
		}
		queries[i] = make([]float32, m4)
		for m := range queries[i] {
			queries[i][m] = draw()
		}
	}
	sh, err := NewSharded(ix, 3, 2)
	if err != nil {
		t.Fatal(err)
	}
	check := func(stage string) {
		t.Helper()
		for i, q := range queries {
			want := Search(plain, q, k)
			sameResults(t, stage+" solo", want, Search(ix, q, k))
			sameResults(t, stage+" 3-shard", want, Search(sh, q, k))
			for _, parallelism := range []int{1, 3} {
				sameResults(t, stage+" batch", want, BatchSearch(ix, queries, k, parallelism)[i])
			}
		}
	}
	check("clustered")
	rows := make([]float32, 5*m4)
	for i := range rows {
		rows[i] = draw()
	}
	for _, part := range [][]float32{rows[:m4], rows[m4:]} {
		plain = plain.appendRows(part).(*FastScan)
		ix = ix.appendRows(part).(*FastScan)
	}
	if sh, err = NewSharded(ix, 3, 2); err != nil {
		t.Fatal(err)
	}
	check("with appended clusters")
}

// FuzzClusteredFastScanEquivalence: whatever the cluster layout, a
// clustered fast-scan index answers exactly as the same codes stored in id
// order (checkClusteredEquivalence).
func FuzzClusteredFastScanEquivalence(f *testing.F) {
	f.Add(uint16(1), uint8(1), uint8(1), uint16(1), uint8(1), uint64(0), false, uint8(0))
	f.Add(uint16(300), uint8(4), uint8(15), uint16(10), uint8(20), uint64(7), false, uint8(5))
	f.Add(uint16(700), uint8(2), uint8(7), uint16(250), uint8(64), uint64(42), true, uint8(2))
	f.Add(uint16(96), uint8(6), uint8(3), uint16(5), uint8(9), uint64(99), true, uint8(8))
	f.Add(uint16(1000), uint8(3), uint8(15), uint16(3), uint8(200), uint64(11), false, uint8(3))
	f.Fuzz(func(t *testing.T, nRaw uint16, m4Raw, ksRaw uint8, kRaw uint16, ncRaw uint8, seed uint64, ties bool, batchRaw uint8) {
		n := int(nRaw)%1200 + 1
		checkClusteredEquivalence(t, n, (int(m4Raw)%6+1)*2, int(ksRaw)%quant.Ks4+1, int(kRaw)%300+1, int(ncRaw)%(n+1)+1, int(batchRaw)%9+1, seed, ties)
	})
}

// TestFastScanClusterLayoutProperty runs checkClusteredEquivalence over 60
// seeded cases: with every bound exact, no answer may move; a bound that
// is too high anywhere (one code missing from one cluster's mask) shows up
// here as a wrong answer.
func TestFastScanClusterLayoutProperty(t *testing.T) {
	rng := mathx.NewRNG(2026)
	c := countsOf(func() {
		for i := 0; i < 60; i++ {
			n := 200 + rng.Intn(600)
			checkClusteredEquivalence(t, n, 2*(1+rng.Intn(6)), 2+rng.Intn(15), 1+rng.Intn(20), 2+rng.Intn(40), 1+rng.Intn(8), uint64(i), i%3 == 0)
		}
	})
	// The cases must prune for the property to say anything about bounds.
	t.Logf("%d scans visited %d rows", c.Scans, c.Rows)
}

// FuzzClusterBoundEquivalence holds the cluster bound kernel to its
// definition: over random masks (empty ones included) of nc clusters —
// the last group padded — and tables holding 0 and 255 entries, the
// bounds of this build's kernel (AVX2 where the CPU has it) and of the
// portable loop are bit-equal to Σ_p min over each mask, and no bound
// exceeds the integer sum of a row whose codes lie in its cluster's masks;
// and a bound over the first h sub-quantizers, at the kernel's h and at
// any other, finished by fsBoundRest is the whole bound.
func FuzzClusterBoundEquivalence(f *testing.F) {
	f.Add(uint8(1), uint8(1), uint64(0), uint8(0))
	f.Add(uint8(8), uint8(33), uint64(7), uint8(3))
	f.Add(uint8(128), uint8(64), uint64(42), uint8(1))
	f.Add(uint8(3), uint8(200), uint64(99), uint8(9))
	f.Fuzz(func(t *testing.T, mRaw, ncRaw uint8, seed uint64, emptyRaw uint8) {
		m, nc := (int(mRaw)%128+1)*2, int(ncRaw)+1
		rng := mathx.NewRNG(seed)
		sets := make([]uint16, nc*m)
		for i := range sets {
			switch {
			case emptyRaw > 0 && rng.Intn(int(emptyRaw)+2) == 0:
			case rng.Intn(3) == 0:
				sets[i] = 1 << rng.Intn(quant.Ks4)
			default:
				sets[i] = uint16(rng.Uint64())
			}
		}
		masks := make([]byte, fsMasksLen(nc, m))
		for c := range nc {
			for p := range m {
				i := fsMaskIndex(c, p, m)
				masks[i], masks[i+fsBlock] = byte(sets[c*m+p]), byte(sets[c*m+p]>>8)
			}
		}
		lut8 := make([]uint8, m*quant.Ks4)
		for i := range lut8 {
			switch rng.Intn(4) {
			case 0:
				lut8[i] = 0
			case 1:
				lut8[i] = 255
			default:
				lut8[i] = uint8(rng.Intn(256))
			}
		}
		ngroups := (nc + fsBlock - 1) / fsBlock
		got, want := make([]uint16, ngroups*fsBlock), make([]uint16, ngroups*fsBlock)
		tab, split := make([]uint8, fsBoundTablesLen(m)), make([]uint16, ngroups*fsBlock)
		h := fsClusterBounds(masks, lut8, m, tab, got)
		for c := range got {
			if h < m {
				got[c] += fsBoundRest(masks, tab, m, h, c)
			}
		}
		fsClusterBoundsGo(masks, lut8, m, m, make([]uint8, fsBoundTablesLen(m)), want)
		h = rng.Intn(m + 1)
		fsClusterBoundsGo(masks, lut8, m, h, tab, split)
		for c := range split {
			split[c] += fsBoundRest(masks, tab, m, h, c)
		}
		if !slices.Equal(split, want) {
			t.Fatalf("M=%d: bounds over %d sub-quantizers finished by fsBoundRest %v, want %v", m, h, split, want)
		}
		for c := range got {
			var def int
			for p := range m {
				least := 255
				for v := range quant.Ks4 {
					if c < nc && sets[c*m+p]&(1<<v) != 0 {
						least = min(least, int(lut8[p*quant.Ks4+v]))
					}
				}
				def += least
			}
			if int(got[c]) != def || want[c] != got[c] {
				t.Fatalf("M=%d cluster %d of %d: kernel bound %d, portable %d, want %d", m, c, nc, got[c], want[c], def)
			}
			if c >= nc {
				continue
			}
			// A row of c: one code of each mask, where every mask holds one.
			sum, row := 0, true
			for p := range m {
				set := sets[c*m+p]
				if set == 0 {
					row = false
					break
				}
				v := rng.Intn(quant.Ks4)
				for set&(1<<v) == 0 {
					v = (v + 1) % quant.Ks4
				}
				sum += int(lut8[p*quant.Ks4+v])
			}
			if row && int(got[c]) > sum {
				t.Fatalf("M=%d cluster %d: bound %d above a row's sum %d", m, c, got[c], sum)
			}
		}
	})
}
