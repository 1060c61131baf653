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

// TestFastScanPortableSumsNeverWrap drives the portable kernel at the
// widest even code a configuration may name (M4 = 256) with every lut8
// entry at 255, so every row's 16-bit sum is 256·255 = 65280, the largest
// one can be: it must read exactly that, never wrapped, and with the
// largest limit the scan must still equal the plain float32 scan.
func TestFastScanPortableSumsNeverWrap(t *testing.T) {
	const m4, n, k = quant.MaxM4 - 1, 3*fsBlock + 5, 7
	ix := syntheticFastScan(randomNibbles(n, m4, quant.Ks4, 1), m4, quant.Ks4, n)
	rng := mathx.NewRNG(2)
	table, lut8 := make([]float32, ix.pq.M*quant.Ks4), make([]uint8, ix.pq.M*quant.Ks4)
	// Every distance is at least 255 per sub-quantizer, so 255 per entry at
	// scale 1 is a valid floor of the table.
	for i := range table {
		table[i], lut8[i] = 255+rng.Float32(), 255
	}
	fused := make([]uint16, m4/2*256)
	fsFuse(fused, lut8, m4/2)
	var qd [fsBlock]uint16
	fsAccumulate(&qd, fused, ix.blocks, m4/2)
	for r, v := range qd {
		if v != m4*255 {
			t.Fatalf("row %d: sum %d, want %d", r, v, m4*255)
		}
	}
	plain, got := newTopK(k), newTopK(k)
	ix.scanPlain4(table, plain, 0, n)
	ix.kernelScan(table, &Scratch{}, got, 0, n, false)
	sameResults(t, "portable kernel at the widest code", plain.sorted(), got.sorted())
}

// TestFastScanWideCodes asserts a code wider than a signed 16-bit sum
// holds is answered exactly, solo and in batches, bare and sharded. Every
// row sits on each sub-quantizer's far centroid, so every quantized sum is
// 130·255 = 33150 ≥ 0x8000 — sums a signed compare would never admit — and
// k > n asks for all of them.
func TestFastScanWideCodes(t *testing.T) {
	const m4, n = 130, 2*fsBlock + 3
	nib := make([]byte, n*m4)
	for i := range nib {
		nib[i] = 1
	}
	ix := syntheticFastScan(nib, m4, 2, n)
	for _, cb := range ix.pq.Codebooks {
		cb.Data[1] = 1 // centroid 0 at the origin, centroid 1 one unit away
	}
	remakeQuantizer(ix)
	queries := make([][]float32, 5)
	for i := range queries {
		queries[i] = make([]float32, m4) // the origin: table rows are {0, 1}
	}
	sh, err := NewSharded(ix, 3, 2)
	if err != nil {
		t.Fatal(err)
	}
	plain := newTopK(n + 5)
	ix.scanPlain4(ix.prepare(queries[0], &Scratch{}), plain, 0, n)
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
// one, which takes the shard fan-out, and batches of two to 33, which scan
// each query's rows whole — from 16 goroutines against one Sharded, and
// asserts every answer equals the solo search. Under -race it is the batch
// path's race test.
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
