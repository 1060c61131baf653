package index

import (
	"math"
	"testing"

	"emblookup/internal/mathx"
	"emblookup/internal/quant"
)

// clusteredFastScan builds a fast-scan index over n rows drawn around 20
// seeded centres — label embeddings cluster, so that hundreds of rows sit
// within a few quantization steps of a query's k-th best; independent
// Gaussian rows prune unlike them — and nq queries, each a stored row nudged
// off its place.
func clusteredFastScan(t testing.TB, n, nq int) (*FastScan, [][]float32) {
	t.Helper()
	const dim, centres = 64, 20
	rng := mathx.NewRNG(2024)
	cs := mathx.NewMatrix(centres, dim)
	cs.FillRandn(rng, 1)
	data := mathx.NewMatrix(n, dim)
	data.FillRandn(rng, 0.4)
	for i := 0; i < n; i++ {
		c := cs.Row(rng.Intn(centres))
		for j, v := range c {
			data.Row(i)[j] += v
		}
	}
	ix, err := NewFastScan(data, quant.Config4(quant.PQConfig{M: 8, Ks: 64, Iters: 5, Seed: 7, TrainSample: 4000}))
	if err != nil {
		t.Fatal(err)
	}
	queries := make([][]float32, nq)
	for i := range queries {
		queries[i] = append([]float32(nil), data.Row(rng.Intn(n))...)
		for j := range queries[i] {
			queries[i][j] += 0.1 * float32(rng.NormFloat64())
		}
	}
	return ix, queries
}

// countsOf returns what f added to the process-wide fast-scan counters.
func countsOf(f func()) FastScanCounts {
	b := ReadFastScanCounts()
	f()
	a := ReadFastScanCounts()
	return FastScanCounts{a.Scans - b.Scans, a.Rows - b.Rows, a.FlaggedBlocks - b.FlaggedBlocks, a.Candidates - b.Candidates, a.Requantizations - b.Requantizations}
}

// parentCandidates replays, row by row, the prune these kernels replaced —
// the full-spread table, a limit M4 + 1 steps above ⌊(w − bias)/δ⌋, no heap
// seed — and returns how many rows it re-ranked.
func parentCandidates(ix *FastScan, table []float32, k int) (candidates int64) {
	q := ix.quantize(table, make([]uint8, len(table)), 0, 0)
	q.slack = uint32(ix.pq.M) + 1
	np, bpb := ix.pq.M/2, fsBlockBytes(ix.pq.M)
	heap := newTopK(k)
	for i := 0; i < ix.n; i++ {
		blk, r := ix.blocks[i/fsBlock*bpb:], i%fsBlock
		var sum uint32
		for p := 0; p < np; p++ {
			b := blk[p*fsBlock+r]
			sum += uint32(q.lut8[2*p*quant.Ks4+int(b&0xf)]) + uint32(q.lut8[(2*p+1)*quant.Ks4+int(b>>4)])
		}
		if sum <= q.limit(heap) {
			candidates++
			heap.push(int32(i), fsRowDist(table, blk, np, r))
		}
	}
	return candidates
}

// TestFastScanPruneCounts pins the prune's efficiency as counts, which a
// noisy host cannot move: on 20 000 clustered rows and 64 queries at k = 10,
// (i) the rows a scan re-ranks, against what the replaced prune admitted on
// the same data; (ii) requantizations per scan at most ⌈log₂⌉ of how far the
// limit fell from the heap seed to the end; (iii) every count repeating
// exactly, equal between solo scans and one batch, and for a 3-shard scan
// equal to its three ranges scanned one by one, however they were scheduled.
func TestFastScanPruneCounts(t *testing.T) {
	const n, nq, k = 20000, 64, 10
	ix, queries := clusteredFastScan(t, n, nq)
	s := &Scratch{}

	var parent int64
	solo := countsOf(func() {
		for _, q := range queries {
			table := append([]float32(nil), prepareScan(ix, s, q)...)
			parent += parentCandidates(ix, table, k)

			seed, final := newTopK(k), newTopK(k)
			ix.scanPlain4(table, seed, 0, fsBlock)
			one := countsOf(func() { ix.scanRange(table, s, final, 0, n) })
			bias := ix.quantize(table, make([]uint8, len(table)), 0, 0).bias
			// (A k-th best that ends on bias itself — ten rows sharing the
			// query's nearest code — fell without bound.)
			fell := float64(seed.worst()-bias) / float64(final.worst()-bias)
			if most := math.Ceil(math.Log2(fell)); float64(one.Requantizations) > most {
				t.Errorf("%d requantizations for a limit that fell %.1f-fold, want at most %.0f", one.Requantizations, fell, most)
			}
		}
	})
	// Recorded on this data (amd64): the replaced prune re-ranked 26 643 rows
	// for the 64 queries (416 each); the AVX2 kernel re-ranks 7 358 (115 each,
	// the 32 seed rows included) in 3 452 flagged blocks with 254
	// requantizations, the portable kernel — derived slack, full-spread table
	// — 9 024 (141 each) in 5 824.
	t.Logf("candidates: replaced prune %d, this kernel %d (%s); flagged blocks %d, requantizations %d",
		parent, solo.Candidates, FastScanKernel(), solo.FlaggedBlocks, solo.Requantizations)
	if solo.Scans != nq || solo.Rows != nq*n {
		t.Fatalf("solo scans covered %d rows in %d scans, want %d in %d", solo.Rows, solo.Scans, nq*n, nq)
	}
	most := parent / 2
	if !fsAVX2 {
		most = parent * 2 / 3 // the derived slack alone
	}
	if solo.Candidates > most {
		t.Fatalf("%d candidates, want at most %d (the replaced prune admitted %d)", solo.Candidates, most, parent)
	}
	if fsAVX2 == (solo.Requantizations == 0) {
		t.Fatalf("%d requantizations on the %s kernel", solo.Requantizations, FastScanKernel())
	}

	search := func(ix Index) func() {
		return func() {
			for _, q := range queries {
				searchWith(ix, s, q, k)
			}
		}
	}
	if again := countsOf(search(ix)); again != solo {
		t.Fatalf("solo counts do not repeat: %+v then %+v", solo, again)
	}
	if batch := countsOf(func() { BatchSearch(ix, queries, k, 2) }); batch != solo {
		t.Fatalf("batch counts %+v, solo %+v", batch, solo)
	}

	sh, err := NewSharded(ix, 3, 2)
	if err != nil {
		t.Fatal(err)
	}
	ranges := countsOf(func() {
		for _, q := range queries {
			table := append([]float32(nil), prepareScan(ix, s, q)...)
			for i := 0; i < sh.Shards(); i++ {
				ix.scanRange(table, s, newTopK(k), sh.bounds[i], sh.bounds[i+1])
			}
		}
	})
	if ranges.Scans != 3*nq || ranges.Rows != nq*n {
		t.Fatalf("three ranges covered %d rows in %d scans", ranges.Rows, ranges.Scans)
	}
	for run := 0; run < 2; run++ {
		if sharded := countsOf(search(sh)); sharded != ranges {
			t.Fatalf("3-shard counts %+v, its ranges one by one %+v", sharded, ranges)
		}
	}
}
