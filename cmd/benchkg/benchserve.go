package main

import (
	"fmt"
	"sort"
	"sync"
	"time"

	"emblookup/internal/core"
	"emblookup/internal/kg"
	"emblookup/internal/mathx"
	"emblookup/internal/obs"
	"emblookup/internal/serve"
)

// zipfSkew is the popularity exponent of the synthetic query mix — table
// annotation and entity-linking traffic repeat head entities far more often
// than tail ones, which is exactly the regime the mention cache targets.
const zipfSkew = 1.07

// percentile returns the p-quantile (0..1) of sorted latency samples.
func percentile(sorted []time.Duration, p float64) time.Duration {
	if len(sorted) == 0 {
		return 0
	}
	i := int(p * float64(len(sorted)-1))
	return sorted[i]
}

// benchServe measures the serving substrate end to end — direct lookups,
// cache hit and miss paths, and C concurrent clients driving a Zipf-skewed
// query mix through it — and writes the snapshot to path.
//
// The summary row carries the two figures the substrate is judged by:
// cache_hit_speedup (miss cost / hit cost, expected ≫ 10) and
// concurrent_miss_vs_bulk (per-query cost of C clients each running its own
// misses over a hand-batched BulkLookup of the same number of queries).
func benchServe(path string, entities, clients int, seed uint64) error {
	gCfg := kg.DefaultGeneratorConfig(kg.WikidataProfile, entities)
	gCfg.Seed = seed
	g, _ := kg.Generate(gCfg)

	cfg := core.FastConfig()
	cfg.Epochs = 4
	m, err := core.Train(g, cfg)
	if err != nil {
		return fmt.Errorf("training: %w", err)
	}

	// Zipf-skewed workload: entity i is queried with probability ∝ 1/i^s.
	const totalOps = 2048
	rng := mathx.NewRNG(seed + 1)
	mix := make([]string, totalOps)
	for i := range mix {
		mix[i] = g.Entities[rng.Zipf(len(g.Entities), zipfSkew)].Label
	}

	snap := benchSnapshot{Env: captureEnv(entities)}
	add := func(name string, metrics map[string]float64) {
		snap.Results = append(snap.Results, benchResult{Name: name, Metrics: metrics})
	}

	// Sequential latency of one path over the mix: ns/op, p50, p99.
	seqLat := func(ops int, fn func(q string)) (nsPerOp, p50us, p99us float64) {
		lats := make([]time.Duration, ops)
		start := time.Now()
		for i := 0; i < ops; i++ {
			t0 := time.Now()
			fn(mix[i%len(mix)])
			lats[i] = time.Since(t0)
		}
		total := time.Since(start)
		sort.Slice(lats, func(a, b int) bool { return lats[a] < lats[b] })
		return float64(total.Nanoseconds()) / float64(ops),
			float64(percentile(lats, 0.50).Microseconds()),
			float64(percentile(lats, 0.99).Microseconds())
	}

	// Baseline: the model called directly, no serving substrate.
	ns, p50, p99 := seqLat(512, func(q string) { m.Lookup(q, 10) })
	add("lookup_direct", map[string]float64{"ns_per_op": ns, "p50_us": p50, "p99_us": p99})
	directNs := ns

	// Cache-miss path: sharded scan, no cache.
	svMiss, err := serve.New(m, serve.Options{CacheSize: -1})
	if err != nil {
		return fmt.Errorf("serve (miss): %w", err)
	}
	missNs, p50, p99 := seqLat(512, func(q string) { svMiss.Lookup(q, 10) })
	add("serve_cache_miss", map[string]float64{"ns_per_op": missNs, "p50_us": p50, "p99_us": p99})

	// Cache-hit path: warm every mention in the mix first.
	svHit, err := serve.New(m, serve.Options{Shards: 1, CacheSize: 8192})
	if err != nil {
		return fmt.Errorf("serve (hit): %w", err)
	}
	for _, q := range mix {
		svHit.Lookup(q, 10)
	}
	hitNs, p50, p99 := seqLat(8192, func(q string) { svHit.Lookup(q, 10) })
	add("serve_cache_hit", map[string]float64{"ns_per_op": hitNs, "p50_us": p50, "p99_us": p99})

	// Hybrid re-rank (?hybrid=1): the embedding top-k re-ordered by exact
	// string similarity against the entity labels. Measured over the warm
	// cache so the delta vs serve_cache_hit isolates the re-rank itself.
	hybNs, p50, p99 := seqLat(8192, func(q string) {
		serve.HybridRerank(q, svHit.Lookup(q, 10), g.Label)
	})
	add("serve_hybrid_rerank", map[string]float64{
		"ns_per_op": hybNs, "p50_us": p50, "p99_us": p99,
		"rerank_overhead_ns": hybNs - hitNs,
	})

	// Concurrent serving: C clients, full substrate (cache + sharded
	// scans), each client drawing its own Zipf stream.
	concurrent := func(sv *serve.Serve) (qps, p50us, p99us float64, wall time.Duration) {
		perClient := totalOps / clients
		latCh := make(chan []time.Duration, clients)
		var wg sync.WaitGroup
		start := time.Now()
		for c := 0; c < clients; c++ {
			wg.Add(1)
			go func(c int) {
				defer wg.Done()
				r := mathx.NewRNG(seed + 100 + uint64(c))
				lats := make([]time.Duration, perClient)
				for i := 0; i < perClient; i++ {
					q := g.Entities[r.Zipf(len(g.Entities), zipfSkew)].Label
					t0 := time.Now()
					sv.Lookup(q, 10)
					lats[i] = time.Since(t0)
				}
				latCh <- lats
			}(c)
		}
		wg.Wait()
		wall = time.Since(start)
		close(latCh)
		var all []time.Duration
		for lats := range latCh {
			all = append(all, lats...)
		}
		sort.Slice(all, func(a, b int) bool { return all[a] < all[b] })
		ops := clients * perClient
		return float64(ops) / wall.Seconds(),
			float64(percentile(all, 0.50).Microseconds()),
			float64(percentile(all, 0.99).Microseconds()),
			wall
	}

	regFull := obs.New()
	svFull, err := serve.New(m, serve.Options{CacheSize: 4096, Registry: regFull})
	if err != nil {
		return fmt.Errorf("serve (full): %w", err)
	}
	qps, p50, p99, _ := concurrent(svFull)
	st := svFull.Stats()
	svFull.Close()
	add("serve_concurrent", map[string]float64{
		"clients":        float64(clients),
		"qps":            qps,
		"p50_us":         p50,
		"p99_us":         p99,
		"cache_hit_rate": st.Cache.HitRate(),
	})

	// The same phase as the metrics registry saw it: the serve-side latency
	// histogram (log-bucketed, so quantiles are within ~6% of exact) plus the
	// pull-time cache collectors. Diffing this row against the externally
	// measured serve_concurrent row guards the instrumentation itself.
	obsLat := regFull.Histogram("emblookup_serve_lookup_seconds").Summary()
	add("obs_serve_concurrent", map[string]float64{
		"lookups":      float64(obsLat.Count),
		"p50_us":       obsLat.P50Us,
		"p95_us":       obsLat.P95Us,
		"cache_hits":   float64(st.Cache.Hits),
		"cache_misses": float64(st.Cache.Misses),
	})

	// Concurrent misses: the same clients without the cache, so every query
	// reaches the model on its caller's goroutine.
	svMisses, err := serve.New(m, serve.Options{CacheSize: -1, Registry: obs.New()})
	if err != nil {
		return fmt.Errorf("serve (concurrent miss): %w", err)
	}
	cmQps, p50, p99, cmWall := concurrent(svMisses)
	svMisses.Close()
	cmNsPerQuery := float64(cmWall.Nanoseconds()) / float64(totalOps/clients*clients)
	add("serve_concurrent_miss", map[string]float64{
		"qps":          cmQps,
		"p50_us":       p50,
		"p99_us":       p99,
		"ns_per_query": cmNsPerQuery,
	})

	// Per-stage lookup latency as recorded by the core instrumentation over
	// the whole run — the decomposition /metrics serves in production.
	def := obs.Default()
	stages := map[string]float64{}
	for _, stage := range []string{"embed", "search", "merge"} {
		s := def.Histogram(obs.Labels("emblookup_lookup_stage_seconds", "stage", stage)).Summary()
		stages[stage+"_p50_us"] = s.P50Us
		stages[stage+"_p95_us"] = s.P95Us
		stages[stage+"_count"] = float64(s.Count)
	}
	add("obs_lookup_stages", stages)

	// The hand-batched ceiling: the same number of Zipf queries in one
	// pre-formed BulkLookup call.
	bulkQueries := make([]string, totalOps/clients*clients)
	br := mathx.NewRNG(seed + 500)
	for i := range bulkQueries {
		bulkQueries[i] = g.Entities[br.Zipf(len(g.Entities), zipfSkew)].Label
	}
	start := time.Now()
	m.BulkLookup(bulkQueries, 10, 0)
	bulkWall := time.Since(start)
	bulkNsPerQuery := float64(bulkWall.Nanoseconds()) / float64(len(bulkQueries))
	add("bulk_hand_batched", map[string]float64{"ns_per_query": bulkNsPerQuery})

	add("summary", map[string]float64{
		"cache_hit_speedup":       missNs / hitNs,
		"direct_over_hit":         directNs / hitNs,
		"concurrent_miss_vs_bulk": cmNsPerQuery / bulkNsPerQuery,
		"concurrent_clients":      float64(clients),
		"total_ops_per_phase":     float64(totalOps),
	})
	return writeSnapshot(path, snap)
}
