package index

import (
	"context"
	"testing"

	"emblookup/internal/mathx"
	"emblookup/internal/quant"
)

// FuzzScanEquivalence asserts that every decomposition of the ADC scan —
// the blocked early-abandoning scan and the sharded per-range scans merged
// in shard order — returns bit-identical results to the plain per-code
// loop, for arbitrary code counts, sub-quantizer shapes, k, and shard
// counts. Distance tables are drawn from a small integer alphabet when
// tieMod is nonzero, so exact distance ties (the hard case for top-k
// equivalence) dominate the search space.
// syntheticFastScan builds a fast-scan index directly from arbitrary
// nibble codes (n rows × m4 codes, each < ks ≤ 16) with a fake trained
// quantizer of Dsub=1 — no k-means, so fuzzers control the codes exactly.
func syntheticFastScan(nib []byte, m4, ks, n int) *FastScan {
	cbs := make([]*mathx.Matrix, m4)
	for m := range cbs {
		cbs[m] = mathx.NewMatrix(ks, 1)
	}
	pq := &quant.ProductQuantizer{D: m4, M: m4, Ks: quant.Ks4, Dsub: 1, Codebooks: cbs}
	return &FastScan{pq: pq, blocks: interleave4(nib, m4, n), n: n}
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
// kernels — this build's solo kernel and the query-major group — return
// bit-identical results to the plain float32 scan of the same 4-bit codes, for arbitrary shapes, k
// (including 1 and k > n), shard counts, batch sizes 1…9 (a batch of one,
// masked remainders, full and several groups, a duplicate query inside the
// batch), and tie-heavy integer distance tables (where the quantized prune
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
			table := prepareScan(ix, s, q)
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

		// One worker scans every group over all rows; three split a small
		// batch's rows at the shard bounds.
		for _, parallelism := range []int{1, 3} {
			for name, b := range map[string]Index{"bare": ix, "sharded": sh} {
				for i, got := range BatchSearch(b, queries, k, parallelism) {
					sameResults(t, name+" batch", want[i], got)
				}
			}
		}

		// The group kernel and the solo kernel against the plain scan on a
		// range that starts and ends mid-block.
		lo := rng.Intn(n)
		hi := lo + rng.Intn(n-lo+1)
		for g := 0; g < nq; g += fsLanes {
			group := queries[g:min(g+fsLanes, nq)]
			fq, heaps := make([]fsQuery, len(group)), make([]topK, len(group))
			for l, q := range group {
				table := ix.prepareInto(q, make([]float32, ix.stateLen()))
				fq[l] = ix.quantize(table, make([]uint8, ix.stateLen()), 0, 0)
				heaps[l].reset(k)
			}
			ix.scanGroup(fq, s, heaps, lo, hi)
			for l := range group {
				plain, solo := newTopK(k), newTopK(k)
				ix.scanPlain4(fq[l].table, plain, lo, hi)
				ix.scanRange(fq[l].table, s, solo, lo, hi)
				sameResults(t, "group range", plain.sorted(), heaps[l].sorted())
				sameResults(t, "solo range", plain.sorted(), solo.sorted())
			}
		}
	})
}

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
		ix.scanPlain(table, plain)
		want := plain.sorted()

		blocked := newTopK(k)
		var dists [scanBlock]float32
		ix.scanBlockedRange(table, blocked, &dists, 0, n)
		got := blocked.sorted()
		if len(want) != len(got) {
			t.Fatalf("blocked: %d vs %d results", len(want), len(got))
		}
		for i := range want {
			if want[i] != got[i] {
				t.Fatalf("blocked diverges at %d: %+v vs %+v", i, want[i], got[i])
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

func (ts tableScanner) prepareInto(_, _ []float32) []float32 { return ts.table }
