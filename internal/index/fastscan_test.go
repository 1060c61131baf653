package index

import (
	"bytes"
	"context"
	"fmt"
	"slices"
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
				table := ix.prepare(q, s)

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
	d := NewDynamic(ix, 40) // the 40th add compacts
	q := all.Row(0)
	idSet := func(stage string, rows int) {
		t.Helper()
		res := Search(d, q, rows)
		if len(res) != rows {
			t.Fatalf("%s: exhaustive search returned %d of %d rows", stage, len(res), rows)
		}
		seen := map[int32]bool{}
		for _, r := range res {
			if r.ID < 0 || int(r.ID) >= rows || seen[r.ID] {
				t.Fatalf("%s: bad or duplicate id %d", stage, r.ID)
			}
			seen[r.ID] = true
		}
	}
	for i := n; i < n+39; i++ {
		d.Add(all.Row(i))
	}
	idSet("pre-compact", n+39)
	d.Add(all.Row(n + 39))
	idSet("post-compact", n+40)
	compacted := d.Base().(*FastScan)
	if compacted.Len() != n+40 || ix.Len() != n {
		t.Fatalf("compaction left %d rows in the base and %d in the wrapped index, want %d and %d", compacted.Len(), ix.Len(), n+40, n)
	}

	// The compacted blocks must match a from-scratch encode of all rows
	// with the same sealed quantizer.
	want := (&FastScan{pq: ix.pq}).appendRows(all.Data[:(n+40)*dim]).(*FastScan)
	if !bytes.Equal(want.blocks, compacted.blocks) {
		t.Fatal("compacted blocks diverge from a from-scratch encode")
	}

	// On a clustered base each compaction's rows form one more cluster at
	// the end, and every answer equals the same rows' in id order.
	big := mathx.NewMatrix(3000, dim)
	big.FillRandn(mathx.NewRNG(322), 1)
	byID, err := newFastScan(big, cfg, 1)
	if err != nil {
		t.Fatal(err)
	}
	cl, err := newFastScan(big, cfg, 4)
	if err != nil {
		t.Fatal(err)
	}
	nc := cl.clusters()
	dByID, dCl := NewDynamic(byID, 40), NewDynamic(cl, 40)
	for i := 0; i < 100; i++ {
		row := all.Row(i % all.Rows)
		if a, b := dByID.Add(row), dCl.Add(row); a != b {
			t.Fatalf("add %d: ids %d and %d", i, a, b)
		}
		for j := 0; j < 3; j++ {
			sameResults(t, "clustered dynamic", Search(dByID, big.Row(j*7), 10), Search(dCl, big.Row(j*7), 10))
			sameResults(t, "clustered dynamic, an added row", Search(dByID, row, 10), Search(dCl, row, 10))
		}
	}
	if cl := dCl.Base().(*FastScan); cl.clusters() != nc+2 || !slices.Equal(cl.bounds[nc:], []int{3000, 3040, 3080}) {
		t.Fatalf("after 2 compactions: %d clusters (built %d), appended bounds %v", cl.clusters(), nc, cl.bounds[nc:])
	}
}

// TestFastScanSlice asserts Slice extracts fast-scan rows with rebased ids
// and identical codes.
func TestFastScanSlice(t *testing.T) {
	ix, _ := buildFastScan(t, 4*fsBlock+21, 32, 55)
	for _, bounds := range [][2]int{{0, ix.n}, {0, 10}, {17, 3 * fsBlock}, {fsBlock, fsBlock}, {ix.n - 5, ix.n}} {
		lo, hi := bounds[0], bounds[1]
		part, err := Slice(ix, lo, hi)
		if err != nil {
			t.Fatal(err)
		}
		sl := part.(*FastScan)
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
	// A clustered index slices to the same rows as the same codes in id
	// order, keeping a cluster layout of its own that answers identically.
	data := mathx.NewMatrix(3000, 32)
	data.FillRandn(mathx.NewRNG(56), 1)
	cfg := quant.Config4(quant.PQConfig{M: 4, Ks: 64, Iters: 4, Seed: 57})
	byID, err := newFastScan(data, cfg, 1)
	if err != nil {
		t.Fatal(err)
	}
	cl, err := newFastScan(data, cfg, 4)
	if err != nil {
		t.Fatal(err)
	}
	for _, bounds := range [][2]int{{0, 3000}, {0, 10}, {1017, 2500}, {700, 700}} {
		want, _ := Slice(byID, bounds[0], bounds[1])
		got, err := Slice(cl, bounds[0], bounds[1])
		if err != nil {
			t.Fatal(err)
		}
		if part := got.(*FastScan); part.Len() != bounds[1]-bounds[0] || (part.Len() > 10 && part.clusters() < 2) {
			t.Fatalf("clustered slice %v: %d rows in %d clusters", bounds, part.Len(), part.clusters())
		}
		for i := 0; i < 10; i++ {
			sameResults(t, fmt.Sprintf("clustered slice %v", bounds), Search(want, data.Row(i), 7), Search(got, data.Row(i), 7))
		}
	}
	if _, err := Slice(ix, -1, 3); err == nil {
		t.Fatal("negative lo accepted")
	}
	if _, err := Slice(ix, 5, ix.n+1); err == nil {
		t.Fatal("hi past n accepted")
	}
}

// TestFastScanFromParts round-trips a fast-scan index through the codec's
// assembly and asserts it rejects corrupted artifacts.
func TestFastScanFromParts(t *testing.T) {
	ix, data := buildFastScan(t, 3*fsBlock+11, 32, 42)
	fromParts := func(q *quant.ProductQuantizer, blocks []byte) (Index, error) {
		return assemble(&parts{Kind: "fastscan", Quant: q, Blocks: blocks}, ix.n)
	}
	re, err := fromParts(ix.pq, ix.blocks)
	if err != nil {
		t.Fatal(err)
	}
	q := data.Row(1)
	sameResults(t, "from-parts", Search(ix, q, 10), Search(re, q, 10))

	if _, err := fromParts(ix.pq, ix.blocks[:len(ix.blocks)-1]); err == nil {
		t.Fatal("truncated blocks accepted")
	}
	bad := bytes.Clone(ix.blocks)
	bad[len(bad)-1] = 0xff // padding row of the final partial block
	if _, err := fromParts(ix.pq, bad); err == nil {
		t.Fatal("non-zero padding accepted")
	}
	odd := *ix.pq
	odd.M = 15
	if _, err := fromParts(&odd, ix.blocks); err == nil {
		t.Fatal("odd-M quantizer accepted")
	}

	// A clustered index: its layout round-trips, its masks are recomputed
	// equal to the built ones, and a layout that is not a permutation of
	// the rows, or whose bounds do not span them in order, is refused.
	data = mathx.NewMatrix(3000, 32)
	data.FillRandn(mathx.NewRNG(43), 1)
	cl, err := newFastScan(data, quant.Config4(quant.PQConfig{M: 4, Ks: 64, Iters: 4, Seed: 44}), 4)
	if err != nil {
		t.Fatal(err)
	}
	bounds := make([]int64, len(cl.bounds))
	for i, b := range cl.bounds {
		bounds[i] = int64(b)
	}
	layout := func(ids []int32, bounds []int64) (Index, error) {
		return assemble(&parts{Kind: "fastscan", Quant: cl.pq, Blocks: cl.blocks, IDs: ids, Clusters: bounds}, cl.n)
	}
	re, err = layout(cl.ids, bounds)
	if err != nil {
		t.Fatal(err)
	}
	if got := re.(*FastScan); !slices.Equal(got.masks, cl.masks) || !slices.Equal(got.bounds, cl.bounds) {
		t.Fatal("re-assembled cluster layout differs")
	}
	for i := 0; i < 20; i++ {
		sameResults(t, "clustered from-parts", Search(cl, data.Row(i), 10), Search(re, data.Row(i), 10))
	}
	dup := slices.Clone(cl.ids)
	dup[0] = dup[1]
	for name, bad := range map[string][2]any{
		"repeated id":   {dup, bounds},
		"short ids":     {cl.ids[:cl.n-1], bounds},
		"falling bound": {cl.ids, append([]int64{0, 2000, 1000}, bounds[1:]...)},
		"short bounds":  {cl.ids, append(slices.Clone(bounds[:len(bounds)-1]), int64(cl.n-1))},
		"no bounds":     {cl.ids, []int64{}},
	} {
		if _, err := layout(bad[0].([]int32), bad[1].([]int64)); err == nil {
			t.Fatalf("%s accepted", name)
		}
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

// TestFastScanClustersOnlyWhenTheyPrune: NewFastScan keeps the cluster
// layout over rows that cluster, and stores rows with no cluster structure
// (independent Gaussian coordinates, over which a scan would visit nearly
// every cluster) in id order; either way the answers are the same codes'.
func TestFastScanClustersOnlyWhenTheyPrune(t *testing.T) {
	cfg := quant.Config4(quant.PQConfig{M: 4, Ks: 64, Iters: 4, Seed: 81})
	random := mathx.NewMatrix(5000, 32)
	random.FillRandn(mathx.NewRNG(82), 1)
	for name, c := range map[string]struct {
		data      *mathx.Matrix
		clustered bool
	}{
		"clustered rows": {clusteredData(5000, 32, 83), true},
		"Gaussian rows":  {random, false},
	} {
		ix, err := NewFastScan(c.data, cfg)
		if err != nil {
			t.Fatal(err)
		}
		if got := ix.clusters() > 1; got != c.clustered {
			t.Fatalf("%s: %d clusters", name, ix.clusters())
		}
		byID, err := newFastScan(c.data, cfg, 1)
		if err != nil {
			t.Fatal(err)
		}
		if !c.clustered && !bytes.Equal(ix.blocks, byID.blocks) {
			t.Fatalf("%s: blocks differ from the same codes in id order", name)
		}
		for i := 0; i < 20; i++ {
			sameResults(t, name, Search(byID, c.data.Row(i*13), 10), Search(ix, c.data.Row(i*13), 10))
		}
	}
}
