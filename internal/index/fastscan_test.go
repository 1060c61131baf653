package index

import (
	"bytes"
	"context"
	"testing"

	"emblookup/internal/mathx"
	"emblookup/internal/quant"
)

// buildFastScan trains a small fast-scan index over n random rows, plus a
// PQ index over the same data for comparison.
func buildFastScan(t *testing.T, n, dim int, seed uint64) (*FastScan, *mathx.Matrix) {
	t.Helper()
	data := mathx.NewMatrix(n, dim)
	data.FillRandn(mathx.NewRNG(seed), 1)
	ix, err := NewFastScan(data, quant.Config4(quant.PQConfig{M: dim / 8, Ks: 64, Iters: 4, Seed: seed + 1}))
	if err != nil {
		t.Fatal(err)
	}
	return ix, data
}

// sameResults fails the test if two result slices are not bit-identical.
func sameResults(t *testing.T, ctx string, want, got []Result) {
	t.Helper()
	if len(want) != len(got) {
		t.Fatalf("%s: %d vs %d results", ctx, len(want), len(got))
	}
	for i := range want {
		if want[i] != got[i] {
			t.Fatalf("%s: result %d diverges: %+v vs %+v", ctx, i, want[i], got[i])
		}
	}
}

// TestFastScanMatchesPlain4 asserts the quantized early-abandoning kernel
// returns bit-identical results to the plain float32 scan of the same 4-bit
// codes, across sizes that exercise partial trailing blocks and k values
// around the block size.
func TestFastScanMatchesPlain4(t *testing.T) {
	for _, n := range []int{1, 7, fsBlock - 1, fsBlock, fsBlock + 1, 5*fsBlock + 13} {
		ix, data := buildFastScan(t, n, 32, uint64(n)+1)
		s := &Scratch{}
		for _, k := range []int{1, 5, n, n + 10} {
			for qi := 0; qi < 5 && qi < n; qi++ {
				q := data.Row(qi)
				table := prepareScan(ix, s, q)

				plain := newTopK(k)
				ix.scanPlain4(table, plain, 0, ix.n)

				fast := newTopK(k)
				ix.scanRange(table, s, fast, 0, ix.n)

				sameResults(t, "fast-scan", plain.sorted(), fast.sorted())
			}
		}
	}
}

// TestFastScanInterleaveRoundTrip locks the block layout down: setRow and
// rowNibbles invert each other, and interleave4/deinterleave4 agree with
// the incremental layout NewFastScan builds.
func TestFastScanInterleaveRoundTrip(t *testing.T) {
	ix, data := buildFastScan(t, 3*fsBlock+5, 32, 77)
	nib := make([]byte, ix.pq.M)
	want := make([]byte, ix.pq.M)
	flat := make([]byte, ix.n*ix.pq.M)
	for i := 0; i < ix.n; i++ {
		ix.pq.EncodeInto(data.Row(i), want)
		ix.rowNibbles(i, nib)
		for m := range want {
			if nib[m] != want[m] {
				t.Fatalf("row %d sub %d: interleaved code %d, EncodeInto %d", i, m, nib[m], want[m])
			}
		}
		copy(flat[i*ix.pq.M:], want)
	}
	if got := interleave4(flat, ix.pq.M, ix.n); !bytes.Equal(got, ix.blocks) {
		t.Fatal("interleave4 disagrees with NewFastScan's layout")
	}
	if got := deinterleave4(ix.blocks, ix.pq.M, ix.n); !bytes.Equal(got, flat) {
		t.Fatal("deinterleave4 does not invert the layout")
	}
}

// TestFastScanScratchReuse asserts one Scratch reused across many searches
// answers identically to fresh pooled searches.
func TestFastScanScratchReuse(t *testing.T) {
	ix, data := buildFastScan(t, 400, 32, 99)
	s := &Scratch{}
	var dst []Result
	for qi := 0; qi < 20; qi++ {
		q := data.Row(qi)
		want := Search(ix, q, 10)
		sameResults(t, "SearchWith", want, ix.SearchWith(s, q, 10))
		dst, _ = ix.Search(context.Background(), s, q, 10, dst)
		sameResults(t, "Search into dst", want, dst)
	}
}

// TestFastScanSharded asserts the sharded fan-out over a fast-scan index is
// bit-identical to the unsharded search — the per-shard scans re-quantize
// the LUT from the shared float table, so the merge must still agree.
func TestFastScanSharded(t *testing.T) {
	ix, data := buildFastScan(t, 6*fsBlock+9, 32, 123)
	for _, shards := range []int{1, 2, 3, 7} {
		sh, err := NewSharded(ix, shards, 2)
		if err != nil {
			t.Fatal(err)
		}
		for qi := 0; qi < 8; qi++ {
			q := data.Row(qi)
			sameResults(t, "sharded", Search(ix, q, 10), Search(sh, q, 10))
		}
		batch := make([][]float32, 6)
		for i := range batch {
			batch[i] = data.Row(i)
		}
		res := BatchSearch(sh, batch, 10, 2)
		for i, q := range batch {
			sameResults(t, "sharded batch", Search(ix, q, 10), res[i])
		}
	}
}

// TestFastScanDynamic asserts a fast-scan base absorbs a Dynamic delta.
// The quantizer is lossy, so the pre/post-compaction invariant is
// membership under an exhaustive search (as for PQ bases), while the
// compacted blocks must be byte-identical to encoding the same rows up
// front with the sealed quantizer.
func TestFastScanDynamic(t *testing.T) {
	n, dim := 2*fsBlock+7, 32
	all := mathx.NewMatrix(n+40, dim)
	all.FillRandn(mathx.NewRNG(321), 1)
	base := mathx.NewMatrix(n, dim)
	copy(base.Data, all.Data[:n*dim])
	cfg := quant.Config4(quant.PQConfig{M: dim / 8, Ks: 64, Iters: 4, Seed: 5})
	ix, err := NewFastScan(base, cfg)
	if err != nil {
		t.Fatal(err)
	}
	d := NewDynamic(ix, 1000)
	for i := n; i < n+40; i++ {
		d.Add(all.Row(i))
	}
	q := all.Row(0)
	idSet := func(stage string) {
		t.Helper()
		res := Search(d, q, n+40)
		if len(res) != n+40 {
			t.Fatalf("%s: exhaustive search returned %d of %d rows", stage, len(res), n+40)
		}
		seen := map[int32]bool{}
		for _, r := range res {
			if r.ID < 0 || int(r.ID) >= n+40 || seen[r.ID] {
				t.Fatalf("%s: bad or duplicate id %d", stage, r.ID)
			}
			seen[r.ID] = true
		}
	}
	idSet("pre-compact")
	d.Compact()
	idSet("post-compact")
	if ix.Len() != n+40 {
		t.Fatalf("base holds %d rows after compaction, want %d", ix.Len(), n+40)
	}

	// The compacted blocks must match a from-scratch encode of all rows
	// with the same sealed quantizer.
	want := &FastScan{pq: ix.pq, n: 0, blocks: nil}
	for i := 0; i < n+40; i++ {
		want.appendRow(all.Row(i))
	}
	if !bytes.Equal(want.blocks, ix.blocks) {
		t.Fatal("compacted blocks diverge from a from-scratch encode")
	}
}

// TestFastScanSlice asserts Slice extracts rows with rebased ids and
// identical codes.
func TestFastScanSlice(t *testing.T) {
	ix, _ := buildFastScan(t, 4*fsBlock+21, 32, 55)
	for _, bounds := range [][2]int{{0, ix.n}, {0, 10}, {17, 3 * fsBlock}, {fsBlock, fsBlock}, {ix.n - 5, ix.n}} {
		lo, hi := bounds[0], bounds[1]
		sl, err := ix.Slice(lo, hi)
		if err != nil {
			t.Fatal(err)
		}
		if sl.Len() != hi-lo {
			t.Fatalf("slice [%d,%d) has %d rows", lo, hi, sl.Len())
		}
		nibFull, nibSl := make([]byte, ix.pq.M), make([]byte, ix.pq.M)
		for i := lo; i < hi; i++ {
			ix.rowNibbles(i, nibFull)
			sl.rowNibbles(i-lo, nibSl)
			if !bytes.Equal(nibFull, nibSl) {
				t.Fatalf("slice [%d,%d): row %d codes diverge", lo, hi, i)
			}
		}
	}
	if _, err := ix.Slice(-1, 3); err == nil {
		t.Fatal("negative lo accepted")
	}
	if _, err := ix.Slice(5, ix.n+1); err == nil {
		t.Fatal("hi past n accepted")
	}
}

// TestFastScanFromParts round-trips the persistence seam and asserts the
// validators reject corrupted artifacts.
func TestFastScanFromParts(t *testing.T) {
	ix, data := buildFastScan(t, 3*fsBlock+11, 32, 42)
	re, err := NewFastScanFromParts(ix.Quantizer(), ix.Blocks(), ix.Len())
	if err != nil {
		t.Fatal(err)
	}
	q := data.Row(1)
	sameResults(t, "from-parts", Search(ix, q, 10), Search(re, q, 10))

	if _, err := NewFastScanFromParts(ix.pq, ix.blocks[:len(ix.blocks)-1], ix.n); err == nil {
		t.Fatal("truncated blocks accepted")
	}
	bad := bytes.Clone(ix.blocks)
	bad[len(bad)-1] = 0xff // padding row of the final partial block
	if _, err := NewFastScanFromParts(ix.pq, bad, ix.n); err == nil {
		t.Fatal("non-zero padding accepted")
	}
	odd := *ix.pq
	odd.M = 15
	if _, err := NewFastScanFromParts(&odd, ix.blocks, ix.n); err == nil {
		t.Fatal("odd-M quantizer accepted")
	}
}

// TestFastScanRejectsWrongKs asserts construction refuses 8-bit configs.
func TestFastScanRejectsWrongKs(t *testing.T) {
	data := mathx.NewMatrix(64, 32)
	data.FillRandn(mathx.NewRNG(1), 1)
	if _, err := NewFastScan(data, quant.PQConfig{M: 4, Ks: 64, Iters: 2, Seed: 1}); err == nil {
		t.Fatal("8-bit config accepted")
	}
}
