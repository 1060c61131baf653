package main

import (
	"context"
	"fmt"
	"testing"

	"emblookup/internal/core"
	"emblookup/internal/index"
	"emblookup/internal/kg"
	"emblookup/internal/mathx"
	"emblookup/internal/quant"
)

// recallVs measures recall@1 and recall@10 of a lookup variant against a
// ground-truth model (the uncompressed flat index) over a fixed query set:
// recall@k is the mean fraction of the truth's top-k entity ids the variant's
// top-k retains.
func recallVs(variant, truth *core.EmbLookup, queries []string) (r1, r10 float64) {
	for _, q := range queries {
		want := truth.Lookup(q, 10)
		got := variant.Lookup(q, 10)
		if len(want) == 0 {
			continue
		}
		ids := make(map[kg.EntityID]bool, len(got))
		for _, c := range got {
			ids[c.ID] = true
		}
		if len(got) > 0 && got[0].ID == want[0].ID {
			r1++
		}
		hit := 0
		for _, c := range want {
			if ids[c.ID] {
				hit++
			}
		}
		r10 += float64(hit) / float64(len(want))
	}
	n := float64(len(queries))
	return r1 / n, r10 / n
}

// benchLookup trains a small model and snapshots the latency, allocation,
// and recall profile of the query hot path into a JSON file, so regressions
// show up in diffs rather than only under `go test -bench -benchmem`.
//
// Rows: embed and lookup_* measure the end-to-end path (embedding included);
// scan_* isolate the index-scan kernels on a 20k-row synthetic index with a
// reused scratch — the loop the fast-scan layout accelerates — and
// scan_fastscan_batch4 the batch path on a batch of four. Every compressed
// variant carries recall@1/recall@10 against the flat ground truth (metric
// keys without a timing suffix, so bench-compare treats them as
// informational).
func benchLookup(path string, entities int, seed uint64) error {
	gCfg := kg.DefaultGeneratorConfig(kg.WikidataProfile, entities)
	gCfg.Seed = seed
	g, _ := kg.Generate(gCfg)

	cfg := core.FastConfig()
	cfg.Epochs = 4
	m, err := core.Train(g, cfg)
	if err != nil {
		return fmt.Errorf("training: %w", err)
	}
	nc, err := m.WithCompression(false)
	if err != nil {
		return fmt.Errorf("decompressing: %w", err)
	}
	fs, err := m.WithFastScan()
	if err != nil {
		return fmt.Errorf("fast-scan sibling: %w", err)
	}

	query := g.Entities[0].Label
	queries := make([]string, 256)
	for i := range queries {
		queries[i] = g.Entities[i%len(g.Entities)].Label
	}
	recallQueries := queries[:min(len(queries), len(g.Entities))]

	// The scan_* rows isolate the compressed-scan kernels at serving scale:
	// a 20k-row index (10× the model fixture) so the scan dominates fixed
	// per-query costs and the throughput ratio is stable run to run. Both
	// kernels index the same synthetic vectors at equal bytes per code.
	const scanRows = 20000
	scanData := mathx.NewMatrix(scanRows, m.Config().Dim)
	scanData.FillRandn(mathx.NewRNG(seed+1), 1)
	scanCfg := m.Config().PQ
	scanPQ, err := index.NewPQ(scanData, scanCfg)
	if err != nil {
		return fmt.Errorf("scan PQ index: %w", err)
	}
	scanFS, err := index.NewFastScan(scanData, quant.Config4(scanCfg))
	if err != nil {
		return fmt.Errorf("scan fast-scan index: %w", err)
	}
	scanQ := scanData.Row(0)

	r1PQ, r10PQ := recallVs(m, nc, recallQueries)
	r1FS, r10FS := recallVs(fs, nc, recallQueries)

	cases := []struct {
		name  string
		extra map[string]float64
		fn    func(b *testing.B)
	}{
		{"embed", nil, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				m.Embed(query)
			}
		}},
		{"lookup_pq", map[string]float64{"recall_at_1": r1PQ, "recall_at_10": r10PQ}, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				m.Lookup(query, 10)
			}
		}},
		{"lookup_fastscan", map[string]float64{"recall_at_1": r1FS, "recall_at_10": r10FS}, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				fs.Lookup(query, 10)
			}
		}},
		{"lookup_flat", nil, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				nc.Lookup(query, 10)
			}
		}},
		{"scan_pq", map[string]float64{"rows": scanRows}, func(b *testing.B) {
			var s index.Scratch
			var dst []index.Result
			for i := 0; i < b.N; i++ {
				dst, _ = scanPQ.Search(context.Background(), &s, scanQ, 10, dst)
			}
		}},
		{"scan_fastscan", map[string]float64{"rows": scanRows}, func(b *testing.B) {
			var s index.Scratch
			var dst []index.Result
			for i := 0; i < b.N; i++ {
				dst, _ = scanFS.Search(context.Background(), &s, scanQ, 10, dst)
			}
		}},
		// A batch of four, one worker (four runs of the AVX2 kernel, or off
		// AVX2 one full group of the query-major kernel): ns_per_op is four
		// queries' scan, so a quarter of it compares with the scan_fastscan
		// row.
		{"scan_fastscan_batch4", map[string]float64{"rows": scanRows, "queries": 4}, func(b *testing.B) {
			group := [][]float32{scanData.Row(0), scanData.Row(1), scanData.Row(2), scanData.Row(3)}
			for i := 0; i < b.N; i++ {
				index.BatchSearch(scanFS, group, 10, 1)
			}
		}},
		{"bulk_lookup_256", nil, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				m.BulkLookup(queries, 10, 0)
			}
		}},
		{"bulk_lookup_fastscan_256", nil, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				fs.BulkLookup(queries, 10, 0)
			}
		}},
	}

	snap := benchSnapshot{Env: captureEnv(entities)}
	for _, c := range cases {
		r := testing.Benchmark(func(b *testing.B) {
			b.ReportAllocs()
			c.fn(b)
		})
		metrics := map[string]float64{
			"ns_per_op":     float64(r.T.Nanoseconds()) / float64(r.N),
			"allocs_per_op": float64(r.AllocsPerOp()),
			"bytes_per_op":  float64(r.AllocedBytesPerOp()),
		}
		for k, v := range c.extra {
			metrics[k] = v
		}
		snap.Results = append(snap.Results, benchResult{Name: c.name, Metrics: metrics})
	}
	return writeSnapshot(path, snap)
}
