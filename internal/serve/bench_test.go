package serve

import (
	"sync"
	"testing"
	"time"

	"emblookup/internal/core"
	"emblookup/internal/kg"
)

var (
	benchOnce  sync.Once
	benchGraph *kg.Graph
	benchModel *core.EmbLookup
	benchErr   error
)

func benchSetup(b *testing.B) (*kg.Graph, *core.EmbLookup) {
	b.Helper()
	benchOnce.Do(func() {
		g, _ := kg.Generate(kg.DefaultGeneratorConfig(kg.WikidataProfile, 300))
		cfg := core.FastConfig()
		cfg.Epochs = 2
		cfg.TripletsPerEntity = 8
		m, err := core.Train(g, cfg)
		if err != nil {
			benchErr = err
			return
		}
		benchGraph, benchModel = g, m
	})
	if benchErr != nil {
		b.Fatal(benchErr)
	}
	return benchGraph, benchModel
}

// BenchmarkServeCacheHit measures the cache-warm lookup path — the cost a
// repeated mention pays. Guarded by `make verify` (short mode) so cache
// regressions surface pre-merge.
func BenchmarkServeCacheHit(b *testing.B) {
	g, m := benchSetup(b)
	sv, err := New(m, Options{Shards: 1, CacheSize: 256})
	if err != nil {
		b.Fatal(err)
	}
	q := g.Entities[0].Label
	sv.Lookup(q, 10) // warm
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sv.Lookup(q, 10)
	}
}

// BenchmarkServeCacheMiss measures the cache-cold serving path (sharded
// scan) by rotating through more mentions than the cache holds.
func BenchmarkServeCacheMiss(b *testing.B) {
	g, m := benchSetup(b)
	sv, err := New(m, Options{Shards: 2, CacheSize: 1})
	if err != nil {
		b.Fatal(err)
	}
	queries := make([]string, 64)
	for i := range queries {
		queries[i] = g.Entities[i%len(g.Entities)].Label
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sv.Lookup(queries[i%len(queries)], 10)
	}
}

// BenchmarkServeConcurrentMiss measures concurrent misses (cache disabled
// so every query reaches the model), each scanned on its caller's goroutine
// over a 2-shard index: the saturated serving regime.
func BenchmarkServeConcurrentMiss(b *testing.B) {
	g, m := benchSetup(b)
	sv, err := New(m, Options{Shards: 2, CacheSize: -1})
	if err != nil {
		b.Fatal(err)
	}
	defer sv.Close()
	queries := make([]string, 64)
	for i := range queries {
		queries[i] = g.Entities[i%len(g.Entities)].Label
	}
	b.ReportAllocs()
	b.SetParallelism(16) // 16 concurrent clients per GOMAXPROCS
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		i := int(time.Now().UnixNano()) % len(queries)
		for pb.Next() {
			sv.Lookup(queries[i%len(queries)], 10)
			i++
		}
	})
}
