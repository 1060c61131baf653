package index

import (
	"testing"

	"emblookup/internal/mathx"
	"emblookup/internal/quant"
)

// tieProneData builds a matrix where every vector appears several times, so
// equal distances (and therefore the canonical ID tie-break) are exercised
// on every query.
func tieProneData(n, d int, seed uint64) *mathx.Matrix {
	distinct := max(1, n/4)
	base := mathx.NewMatrix(distinct, d)
	base.FillRandn(mathx.NewRNG(seed), 1)
	m := mathx.NewMatrix(n, d)
	for i := 0; i < n; i++ {
		copy(m.Row(i), base.Row(i%distinct))
	}
	return m
}

func assertSameResults(t *testing.T, ctx string, want, got []Result) {
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

// TestShardedMatchesDirect asserts the sharded fan-out returns bit-identical
// results to the wrapped index, for PQ and Flat, across shard counts that
// exercise empty tails and single-row shards, on tie-heavy data.
func TestShardedMatchesDirect(t *testing.T) {
	for _, n := range []int{1, 5, 100, 3*scanBlock + 17} {
		data := tieProneData(n, 16, uint64(n)+1)
		pqIx, err := NewPQ(data, quant.PQConfig{M: 4, Ks: 16, Iters: 4, Seed: 3})
		if err != nil {
			t.Fatal(err)
		}
		for _, inner := range []Index{pqIx, NewFlat(data)} {
			for _, shards := range []int{1, 2, 3, 7, n, n + 4} {
				sh, err := NewSharded(inner, shards, 2)
				if err != nil {
					t.Fatal(err)
				}
				for _, k := range []int{1, 3, n, n + 5} {
					for qi := 0; qi < 4 && qi < n; qi++ {
						q := data.Row(qi)
						want := Search(inner, q, k)
						got := Search(sh, q, k)
						assertSameResults(t, "sharded search", want, got)
					}
				}
			}
		}
	}
}

// TestShardedBatchMatchesSequential asserts the shard-major batch path
// returns exactly what per-query sharded (and direct) search returns, at
// several parallelism levels.
func TestShardedBatchMatchesSequential(t *testing.T) {
	data := tieProneData(400, 16, 77)
	pqIx, err := NewPQ(data, quant.PQConfig{M: 4, Ks: 16, Iters: 4, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	sh, err := NewSharded(pqIx, 4, 2)
	if err != nil {
		t.Fatal(err)
	}
	queries := make([][]float32, 30)
	for i := range queries {
		queries[i] = data.Row(i * 13 % data.Rows)
	}
	for _, parallelism := range []int{1, 3, 8} {
		batch := BatchSearch(sh, queries, 7, parallelism)
		for i, q := range queries {
			assertSameResults(t, "sharded batch", Search(pqIx, q, 7), batch[i])
		}
	}
	// BatchSearch must route through the shard-major path.
	viaBatchSearch := BatchSearch(sh, queries, 7, 2)
	for i, q := range queries {
		assertSameResults(t, "BatchSearch over Sharded", Search(pqIx, q, 7), viaBatchSearch[i])
	}
}

// TestShardedRejectsUnsupported asserts only range-decomposable indexes can
// be sharded, and invalid shard counts are refused.
func TestShardedRejectsUnsupported(t *testing.T) {
	data := randomData(64, 8, 21)
	ivf, err := NewIVF(data, IVFConfig{NList: 4, NProbe: 2, Iters: 3, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := NewSharded(ivf, 4, 0); err == nil {
		t.Fatal("sharding an IVF index should fail")
	}
	if _, err := NewSharded(NewFlat(data), 0, 0); err == nil {
		t.Fatal("zero shards should fail")
	}
}

// TestDefaultShards pins the derived shard count: for a FastScan index on
// the AVX2 kernel one range per MiB of payload at its boundaries, never
// fewer than one nor more than four; four for every other range-scannable
// index whatever its size (the size rule was measured on that kernel only);
// and one for an index that cannot be range-scanned.
func TestDefaultShards(t *testing.T) {
	for _, c := range []struct {
		bytes, want int
	}{
		{32, 1},
		{1<<20 - 32, 1}, // just under 1 MiB
		{1 << 20, 1},
		{2 << 20, 2},
		{5 << 19, 2}, // 2.5 MiB
		{4<<20 - 32, 3},
		{4 << 20, 4},
		{9 << 20, 4},
	} {
		want := c.want
		if !fsAVX2 {
			want = 4
		}
		fs := &FastScan{blocks: make([]byte, c.bytes)}
		if got := DefaultShards(fs); got != want {
			t.Errorf("FastScan (%s) of %d bytes: %d shards, want %d", FastScanKernel(), c.bytes, got, want)
		}
	}
	const rowBytes = 64 * 4 // a Flat row at d = 64
	for _, rows := range []int{1, (1 << 19) / rowBytes, (9 << 20) / rowBytes} {
		if got := DefaultShards(NewFlat(mathx.NewMatrix(rows, 64))); got != 4 {
			t.Errorf("Flat of %d rows: %d shards, want 4", rows, got)
		}
	}
	data := randomData(64, 8, 21)
	pq, err := NewPQ(data, quant.PQConfig{M: 4, Ks: 16, Iters: 3, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if got := DefaultShards(pq); got != 4 {
		t.Errorf("PQ of %d bytes: %d shards, want 4", pq.SizeBytes(), got)
	}
	ivf, err := NewIVF(data, IVFConfig{NList: 4, NProbe: 2, Iters: 3, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if got := DefaultShards(ivf); got != 1 {
		t.Errorf("IVF: %d shards, want 1", got)
	}
	if got := DefaultShards(NewDynamic(NewFlat(mathx.NewMatrix((9<<20)/rowBytes, 64)), 10)); got != 1 {
		t.Errorf("Dynamic over 9 MiB: %d shards, want 1", got)
	}
}

// TestShardedSearchKEdge covers k<=0 and k>n through the sharded paths.
func TestShardedSearchKEdge(t *testing.T) {
	data := randomData(10, 8, 31)
	sh, err := NewSharded(NewFlat(data), 3, 0)
	if err != nil {
		t.Fatal(err)
	}
	if res := Search(sh, data.Row(0), 0); res != nil {
		t.Fatal("k=0 should return nil")
	}
	if res := Search(sh, data.Row(0), 50); len(res) != 10 {
		t.Fatalf("k>n returned %d results", len(res))
	}
	batch := BatchSearch(sh, [][]float32{data.Row(0)}, 0, 0)
	if len(batch) != 1 || batch[0] != nil {
		t.Fatalf("batch k=0 = %+v", batch)
	}
}
