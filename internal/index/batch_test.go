package index

import (
	"context"
	"errors"
	"sync"
	"sync/atomic"
	"testing"

	"emblookup/internal/mathx"
	"emblookup/internal/quant"
)

// randomNibbles draws n rows of m4 nibble codes below ks.
func randomNibbles(n, m4, ks int, seed uint64) []byte {
	rng := mathx.NewRNG(seed)
	nib := make([]byte, n*m4)
	for i := range nib {
		nib[i] = byte(rng.Intn(ks))
	}
	return nib
}

// TestFastScanGroupLanesNeverCarry drives the group kernel at the widest
// code it serves (M4 = fsGroupMaxM4) with every lut8 entry of lanes 0 and 2
// at 255, so those lanes hold the largest sum a lane can (128·255 = 32640)
// on every row and their limit clamps to the lane. A carry or borrow out of
// a saturated lane would corrupt lanes 1 and 3, which scan ordinary
// queries; every lane must still equal the plain float32 scan of its table.
func TestFastScanGroupLanesNeverCarry(t *testing.T) {
	const m4, n, k = fsGroupMaxM4, 3*fsBlock + 5, 7
	ix := syntheticFastScan(randomNibbles(n, m4, quant.Ks4, 1), m4, quant.Ks4, n)
	rng := mathx.NewRNG(2)
	for _, cb := range ix.pq.Codebooks {
		for c := range cb.Data {
			cb.Data[c] = rng.Float32()
		}
	}
	fq := make([]fsQuery, fsLanes)
	for l := range fq {
		table, lut8 := make([]float32, ix.stateLen()), make([]uint8, ix.stateLen())
		if l%2 == 1 {
			q := make([]float32, m4)
			for m := range q {
				q[m] = rng.Float32()
			}
			fq[l] = ix.quantize(ix.prepareInto(q, table), lut8, 0, 0)
			continue
		}
		// Every distance is at least 255 per sub-quantizer, so 255 per entry
		// at scale 1 is a valid floor of the table.
		for i := range table {
			table[i], lut8[i] = 255+rng.Float32(), 255
		}
		fq[l] = newFSQuery(table, lut8, 0, 1, m4*256)
	}

	s := &Scratch{}
	var qd [fsBlock]uint64
	fsAccumulate(&qd, fuseLanes(s, fq, m4/2), ix.blocks, m4/2)
	for r, w := range qd {
		if lane0, lane2 := w&0xffff, w>>32&0xffff; lane0 != m4*255 || lane2 != m4*255 {
			t.Fatalf("row %d: saturated lanes hold %d and %d, want %d", r, lane0, lane2, m4*255)
		}
	}

	heaps := make([]topK, fsLanes)
	for l := range heaps {
		heaps[l].reset(k)
	}
	ix.scanGroup(fq, s, heaps, 0, n)
	for l := range fq {
		plain := newTopK(k)
		ix.scanPlain4(fq[l].table, plain, 0, n)
		sameResults(t, "lane beside a saturated lane", plain.sorted(), heaps[l].sorted())
	}
}

// fuseLanes packs the group's LUTs the way scanGroup does.
func fuseLanes(s *Scratch, fq []fsQuery, np int) []uint64 {
	s.lut4 = resize(s.lut4, np*256)
	clear(s.lut4)
	for l := range fq {
		fsFuse(s.lut4, fq[l].lut8, np, uint(l))
	}
	return s.lut4
}

// TestFastScanGroupFallbackWideCodes asserts a code too wide for the group
// kernel's packed compare (M4 > fsGroupMaxM4: a lane's sum can reach its top
// bit) is still answered exactly, solo and in batches, bare and sharded — by
// the AVX2 kernel, whose compare is a full unsigned 16 bits, or off AVX2 by
// the plain float scan of each range. Every row sits on each
// sub-quantizer's far centroid, so every quantized sum is 130·255 = 33150 ≥
// 0x8000 — sums a signed or lane-clamped compare would never admit — and
// k > n asks for all of them.
func TestFastScanGroupFallbackWideCodes(t *testing.T) {
	const m4, n = fsGroupMaxM4 + 2, 2*fsBlock + 3
	nib := make([]byte, n*m4)
	for i := range nib {
		nib[i] = 1
	}
	ix := syntheticFastScan(nib, m4, 2, n)
	for _, cb := range ix.pq.Codebooks {
		cb.Data[1] = 1 // centroid 0 at the origin, centroid 1 one unit away
	}
	queries := make([][]float32, 5)
	for i := range queries {
		queries[i] = make([]float32, m4) // the origin: table rows are {0, 1}
	}
	sh, err := NewSharded(ix, 3, 2)
	if err != nil {
		t.Fatal(err)
	}
	plain := newTopK(n + 5)
	ix.scanPlain4(ix.prepareInto(queries[0], make([]float32, ix.stateLen())), plain, 0, n)
	want := plain.sorted()
	if len(want) != n {
		t.Fatalf("plain scan returned %d of %d rows", len(want), n)
	}
	kernel := FastScanKernel()
	for name, b := range map[string]Index{"bare": ix, "sharded": sh} {
		sameResults(t, kernel+" "+name+" wide-code solo", want, Search(b, queries[0], n+5))
		for _, got := range BatchSearch(b, queries, n+5, 2) {
			sameResults(t, kernel+" "+name+" wide-code batch", want, got)
		}
	}
}

// countdownCtx reports cancellation from its (left+1)-th Err call on — a
// context that fires at a chosen point inside a batch, deterministically.
type countdownCtx struct {
	context.Context
	left atomic.Int64
}

func (c *countdownCtx) Err() error {
	if c.left.Add(-1) < 0 {
		return context.Canceled
	}
	return nil
}

// TestBatchSearchCancelledMidBatch asserts a context that fires after some
// of a batch's tasks have run makes every batch path return ctx.Err() and
// no results.
func TestBatchSearchCancelledMidBatch(t *testing.T) {
	fs, data := buildFastScan(t, 6*fsBlock+9, 32, 7)
	sh, err := NewSharded(fs, 4, 2)
	if err != nil {
		t.Fatal(err)
	}
	ivf, err := NewIVF(data, IVFConfig{NList: 4, NProbe: 2, Iters: 3, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	queries := make([][]float32, 24)
	for i := range queries {
		queries[i] = data.Row(i)
	}
	for name, ix := range map[string]Index{"fast-scan": fs, "sharded": sh, "ivf": ivf} {
		ctx := &countdownCtx{Context: context.Background()}
		ctx.left.Store(4) // the entry check and a few tasks pass
		res, err := BatchSearchCtx(ctx, ix, queries, 5, 2)
		if !errors.Is(err, context.Canceled) || res != nil {
			t.Fatalf("%s: cancelled batch returned %d results, err %v", name, len(res), err)
		}
		if res, err := BatchSearchCtx(context.Background(), ix, queries, 5, 2); err != nil || len(res) != len(queries) {
			t.Fatalf("%s: live batch returned %d results, err %v", name, len(res), err)
		}
	}
}

// TestShardedBatchConcurrent issues batches of mixed sizes — a batch of
// one, masked remainders, full groups, enough groups to drop the shard
// split — from 16 goroutines against one Sharded, and asserts every answer
// equals the solo search. Under -race it is the batch path's race test.
func TestShardedBatchConcurrent(t *testing.T) {
	fs, data := buildFastScan(t, 9*fsBlock+17, 32, 31)
	sh, err := NewSharded(fs, 4, 2)
	if err != nil {
		t.Fatal(err)
	}
	queries := make([][]float32, 40)
	want := make([][]Result, len(queries))
	for i := range queries {
		queries[i] = data.Row(i * 7 % data.Rows)
		want[i] = Search(fs, queries[i], 10)
	}
	var wg sync.WaitGroup
	for g := 0; g < 16; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for round, size := range []int{1, 2, 3, 4, 5, 9, 33} {
				lo := (g + round) % (len(queries) - size)
				for i, got := range BatchSearch(sh, queries[lo:lo+size], 10, 1+g%3) {
					if len(got) != len(want[lo+i]) {
						t.Errorf("goroutine %d size %d: %d vs %d results", g, size, len(got), len(want[lo+i]))
						return
					}
					for j := range got {
						if got[j] != want[lo+i][j] {
							t.Errorf("goroutine %d size %d query %d: result %d diverges", g, size, i, j)
							return
						}
					}
				}
			}
		}(g)
	}
	wg.Wait()
}
