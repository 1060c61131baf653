package emblookup_test

// The benchmark harness regenerates every table and figure of the paper
// (one Benchmark per experiment — each iteration produces the full report)
// plus micro-benchmarks for the operations whose costs the paper's speedup
// claims rest on: embedding inference, compressed and exact lookup, bulk
// batching, and the baseline services.
//
// Run everything:
//
//	go test -bench=. -benchmem
//
// Regenerate one table at a larger scale with the CLI instead:
//
//	go run ./cmd/experiments -run table2 -entities 4000

import (
	"context"
	"encoding/gob"
	"io"
	"os"
	"path/filepath"
	"sync"
	"testing"

	"emblookup/internal/baselines"
	"emblookup/internal/core"
	"emblookup/internal/experiments"
	"emblookup/internal/index"
	"emblookup/internal/kg"
	"emblookup/internal/lookup"
	"emblookup/internal/mathx"
	"emblookup/internal/quant"
	"emblookup/internal/tabular"
)

// ---- shared fixtures -------------------------------------------------

var (
	envOnce  sync.Once
	benchEnv *experiments.Env

	modelOnce  sync.Once
	benchGraph *kg.Graph
	benchModel *core.EmbLookup // compressed
	benchNC    *core.EmbLookup // uncompressed
)

// env lazily builds the shared experiment environment at bench scale.
func env(b *testing.B) *experiments.Env {
	b.Helper()
	envOnce.Do(func() {
		o := experiments.TestOptions()
		o.Entities = 500
		o.WikidataTables = 20
		o.DBPediaTables = 10
		o.ToughTableCount = 2
		o.AliasVariants = 1
		e, err := experiments.NewEnv(o)
		if err != nil {
			panic(err)
		}
		benchEnv = e
	})
	return benchEnv
}

// model lazily trains one EmbLookup over a 2000-entity graph for the
// micro-benchmarks and the allocation-guard test.
func model(b testing.TB) (*kg.Graph, *core.EmbLookup, *core.EmbLookup) {
	b.Helper()
	modelOnce.Do(func() {
		g, _ := kg.Generate(kg.DefaultGeneratorConfig(kg.WikidataProfile, 2000))
		cfg := core.FastConfig()
		cfg.Epochs = 4
		m, err := core.Train(g, cfg)
		if err != nil {
			panic(err)
		}
		nc, err := m.WithCompression(false)
		if err != nil {
			panic(err)
		}
		benchGraph, benchModel, benchNC = g, m, nc
	})
	return benchGraph, benchModel, benchNC
}

// ---- one benchmark per paper table/figure ----------------------------

func benchExperiment(b *testing.B, id string) {
	e := env(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rep, err := e.Run(id)
		if err != nil {
			b.Fatal(err)
		}
		rep.Render(io.Discard)
	}
}

func BenchmarkTableI(b *testing.B)    { benchExperiment(b, "table1") }
func BenchmarkTableII(b *testing.B)   { benchExperiment(b, "table2") }
func BenchmarkTableIII(b *testing.B)  { benchExperiment(b, "table3") }
func BenchmarkTableIV(b *testing.B)   { benchExperiment(b, "table4") }
func BenchmarkTableV(b *testing.B)    { benchExperiment(b, "table5") }
func BenchmarkTableVI(b *testing.B)   { benchExperiment(b, "table6") }
func BenchmarkTableVII(b *testing.B)  { benchExperiment(b, "table7") }
func BenchmarkTableVIII(b *testing.B) { benchExperiment(b, "table8") }
func BenchmarkFigure3(b *testing.B)   { benchExperiment(b, "figure3") }
func BenchmarkFigure4(b *testing.B)   { benchExperiment(b, "figure4") }
func BenchmarkFigure5(b *testing.B)   { benchExperiment(b, "figure5") }
func BenchmarkAblations(b *testing.B) { benchExperiment(b, "ablations") }

// ---- micro-benchmarks: the operations behind the speedup claims ------

func BenchmarkEmbed(b *testing.B) {
	_, m, _ := model(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m.Embed("Bramonia Ridge")
	}
}

func BenchmarkLookupPQ(b *testing.B) {
	_, m, _ := model(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m.Lookup("Bramonia Ridge", 10)
	}
}

func BenchmarkLookupFlat(b *testing.B) {
	_, _, nc := model(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		nc.Lookup("Bramonia Ridge", 10)
	}
}

func BenchmarkBulkLookup(b *testing.B) {
	g, m, _ := model(b)
	queries := make([]string, 256)
	for i := range queries {
		queries[i] = g.Entities[i%len(g.Entities)].Label
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m.BulkLookup(queries, 10, 0)
	}
}

func benchBaseline(b *testing.B, build func(*lookup.Corpus) lookup.Service) {
	g, _, _ := model(b)
	svc := build(lookup.CorpusFromGraph(g, false))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		svc.Lookup("Bramonia Ridge", 10)
	}
}

func BenchmarkBaselineExact(b *testing.B) {
	benchBaseline(b, func(c *lookup.Corpus) lookup.Service { return baselines.NewExact(c) })
}

func BenchmarkBaselineElastic(b *testing.B) {
	benchBaseline(b, func(c *lookup.Corpus) lookup.Service { return baselines.NewElastic(c) })
}

func BenchmarkBaselineFuzzyWuzzy(b *testing.B) {
	benchBaseline(b, func(c *lookup.Corpus) lookup.Service { return baselines.NewFuzzyWuzzy(c) })
}

func BenchmarkBaselineLevenshtein(b *testing.B) {
	benchBaseline(b, func(c *lookup.Corpus) lookup.Service { return baselines.NewLevenshteinScan(c) })
}

func BenchmarkBaselineQGram(b *testing.B) {
	benchBaseline(b, func(c *lookup.Corpus) lookup.Service { return baselines.NewQGram(c) })
}

func BenchmarkBaselineLSH(b *testing.B) {
	benchBaseline(b, func(c *lookup.Corpus) lookup.Service { return baselines.NewLSH(c) })
}

// BenchmarkPQSearch measures the steady-state compressed search path. With
// pooled scratch (ADC table, top-k heap, block distance strip all reused)
// the only allocation left is the returned result slice; run with -benchmem
// to verify ≤2 allocs/op.
func BenchmarkPQSearch(b *testing.B) {
	data := mathx.NewMatrix(10000, 64)
	data.FillRandn(mathx.NewRNG(3), 1)
	ix, err := index.NewPQ(data, quant.PQConfig{M: 8, Ks: 64, Iters: 5, Seed: 4})
	if err != nil {
		b.Fatal(err)
	}
	q := data.Row(0)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		index.Search(ix, q, 10)
	}
}

// BenchmarkFastScan pits the two compressed-scan kernels against each other
// on identical data at identical bytes per code (M=8 × 8-bit vs 2M=16 ×
// 4-bit): the plain float32-LUT ADC scan vs the block-interleaved fast-scan
// with a uint8-quantized table and exact re-rank (DESIGN.md §11). Run under
// `make verify` and diffed by `make bench-compare`; the fast-scan row is the
// ≥2× single-core throughput gate of BENCH_lookup.json in kernel-only form.
// The fast-scan rows report cand/query beside ns/query-row — the rows a
// query re-ranks exactly (index.FastScanCounts), the count the timing rides
// on — and clustered100k is the scan at the benchmark's scale over rows that
// cluster as label embeddings do: independent Gaussian rows, every one about
// as far from a query as the next, prune unlike them.
func BenchmarkFastScan(b *testing.B) {
	data := mathx.NewMatrix(20000, 64)
	data.FillRandn(mathx.NewRNG(9), 1)
	cfg := quant.PQConfig{M: 8, Ks: 64, Iters: 5, Seed: 10}
	pq, err := index.NewPQ(data, cfg)
	if err != nil {
		b.Fatal(err)
	}
	fs, err := index.NewFastScan(data, quant.Config4(cfg))
	if err != nil {
		b.Fatal(err)
	}
	q := data.Row(0)
	b.Run("pq", func(b *testing.B) {
		var s index.Scratch
		var dst []index.Result
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			dst, _ = pq.Search(context.Background(), &s, q, 10, dst)
		}
	})
	// solo times one query after another over ix and reports both metrics.
	solo := func(ix *index.FastScan, queries [][]float32) func(b *testing.B) {
		return func(b *testing.B) {
			var s index.Scratch
			var dst []index.Result
			before := index.ReadFastScanCounts()
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				dst, _ = ix.Search(context.Background(), &s, queries[i%len(queries)], 10, dst)
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*ix.Len()), "ns/query-row")
			b.ReportMetric(float64(index.ReadFastScanCounts().Candidates-before.Candidates)/float64(b.N), "cand/query")
		}
	}
	b.Run("fastscan", solo(fs, [][]float32{q}))
	// A batch of four on one core (table quantization and the batch's
	// result slices included): four runs of the AVX2 kernel, or off AVX2 one
	// full group of the query-major kernel — four queries per pass over the
	// codes, LUT packing included.
	b.Run("batch4", func(b *testing.B) {
		group := [][]float32{data.Row(0), data.Row(1), data.Row(2), data.Row(3)}
		before := index.ReadFastScanCounts()
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			index.BatchSearch(fs, group, 10, 1)
		}
		b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*len(group)*data.Rows), "ns/query-row")
		b.ReportMetric(float64(index.ReadFastScanCounts().Candidates-before.Candidates)/float64(b.N*len(group)), "cand/query")
	})
	b.Run("clustered100k", func(b *testing.B) {
		// 100 000 rows around 100 centres, 64 queries each a stored row
		// nudged off its place.
		const rows, centres, nq = 100000, 100, 64
		rng := mathx.NewRNG(11)
		cs := mathx.NewMatrix(centres, data.Cols)
		cs.FillRandn(rng, 1)
		clustered := mathx.NewMatrix(rows, data.Cols)
		clustered.FillRandn(rng, 0.4)
		for i := 0; i < rows; i++ {
			for j, v := range cs.Row(rng.Intn(centres)) {
				clustered.Row(i)[j] += v
			}
		}
		c4 := quant.Config4(cfg)
		c4.TrainSample = 20000
		ix, err := index.NewFastScan(clustered, c4)
		if err != nil {
			b.Fatal(err)
		}
		queries := make([][]float32, nq)
		for i := range queries {
			queries[i] = append([]float32(nil), clustered.Row(rng.Intn(rows))...)
			for j := range queries[i] {
				queries[i][j] += 0.1 * float32(rng.NormFloat64())
			}
		}
		solo(ix, queries)(b)
	})
}

// BenchmarkLookupAllocs records the allocation profile of the end-to-end
// query path (the numbers cmd/benchkg -bench-lookup snapshots into
// BENCH_lookup.json). Sub-benchmarks cover the single-query wrappers and
// the bulk mode whose workers own scratch for the whole batch.
func BenchmarkLookupAllocs(b *testing.B) {
	g, m, nc := model(b)
	b.Run("embed", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			m.Embed("Bramonia Ridge")
		}
	})
	b.Run("pq", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			m.Lookup("Bramonia Ridge", 10)
		}
	})
	b.Run("flat", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			nc.Lookup("Bramonia Ridge", 10)
		}
	})
	b.Run("bulk", func(b *testing.B) {
		queries := make([]string, 256)
		for i := range queries {
			queries[i] = g.Entities[i%len(g.Entities)].Label
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			m.BulkLookup(queries, 10, 0)
		}
	})
}

func BenchmarkPQEncode(b *testing.B) {
	data := mathx.NewMatrix(1000, 64)
	data.FillRandn(mathx.NewRNG(1), 1)
	pq, err := quant.TrainPQ(data, quant.PQConfig{M: 8, Ks: 64, Iters: 8, Seed: 2})
	if err != nil {
		b.Fatal(err)
	}
	code := make([]byte, 8)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		pq.EncodeInto(data.Row(i%data.Rows), code)
	}
}

func BenchmarkPQADCScan(b *testing.B) {
	data := mathx.NewMatrix(10000, 64)
	data.FillRandn(mathx.NewRNG(3), 1)
	pq, err := quant.TrainPQ(data, quant.PQConfig{M: 8, Ks: 64, Iters: 5, Seed: 4})
	if err != nil {
		b.Fatal(err)
	}
	codes := make([][]byte, data.Rows)
	for i := range codes {
		codes[i] = pq.Encode(data.Row(i))
	}
	q := data.Row(0)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		table := pq.ADCTable(q)
		var best float32 = 1e30
		for _, c := range codes {
			if d := pq.ADCDistance(table, c); d < best {
				best = d
			}
		}
	}
}

// BenchmarkPQBuild measures full PQ index construction — codebook training
// plus row encoding — with one worker vs all cores: the parallel-build path
// cmd/benchkg -bench-build snapshots into BENCH_build.json.
func BenchmarkPQBuild(b *testing.B) {
	data := mathx.NewMatrix(5000, 64)
	data.FillRandn(mathx.NewRNG(5), 1)
	for _, bc := range []struct {
		name    string
		workers int
	}{{"seq", 1}, {"par", 0}} {
		b.Run(bc.name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				cfg := quant.PQConfig{M: 8, Ks: 64, Iters: 5, Seed: 6, Workers: bc.workers}
				if _, err := index.NewPQ(data, cfg); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkIVFBuild is the same comparison for the inverted-file index:
// coarse k-means, residual computation, and per-list encoding all fan out.
func BenchmarkIVFBuild(b *testing.B) {
	data := mathx.NewMatrix(5000, 64)
	data.FillRandn(mathx.NewRNG(7), 1)
	pqCfg := quant.PQConfig{M: 8, Ks: 64, Iters: 5, Seed: 8}
	for _, bc := range []struct {
		name    string
		workers int
	}{{"seq", 1}, {"par", 0}} {
		b.Run(bc.name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				cfg := index.DefaultIVFConfig(data.Rows)
				cfg.PQ = &pqCfg
				cfg.Workers = bc.workers
				if _, err := index.NewIVF(data, cfg); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

func BenchmarkTrain(b *testing.B) {
	g, _ := kg.Generate(kg.DefaultGeneratorConfig(kg.WikidataProfile, 300))
	cfg := core.FastConfig()
	cfg.Epochs = 2
	cfg.TripletsPerEntity = 8
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := core.Train(g, cfg); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkTrainEpoch compares the two combiner/semantic training modes at
// a fixed small scale: the deterministic sequential path vs hogwild at
// 1/2/4 workers (DESIGN.md §13). On a single-core machine the hw variants
// measure goroutine overhead, not speedup — `make bench-compare` does not
// gate them there.
func BenchmarkTrainEpoch(b *testing.B) {
	g, _ := kg.Generate(kg.DefaultGeneratorConfig(kg.WikidataProfile, 300))
	base := core.FastConfig()
	base.Epochs = 2
	base.TripletsPerEntity = 8
	for _, bc := range []struct {
		name    string
		hogwild bool
		workers int
	}{{"det", false, 0}, {"hw1", true, 1}, {"hw2", true, 2}, {"hw4", true, 4}} {
		b.Run(bc.name, func(b *testing.B) {
			cfg := base
			cfg.Hogwild = bc.hogwild
			cfg.Workers = bc.workers
			for i := 0; i < b.N; i++ {
				if _, err := core.Train(g, cfg); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkIngest measures the streaming-ingest loop end to end: enqueue a
// new entity, then the worker embeds it and appends to the dynamic delta
// index. The final Flush keeps the apply cost inside the timed region.
func BenchmarkIngest(b *testing.B) {
	g, _ := kg.Generate(kg.DefaultGeneratorConfig(kg.WikidataProfile, 300))
	cfg := core.FastConfig()
	cfg.Epochs = 2
	cfg.TripletsPerEntity = 8
	m, err := core.Train(g, cfg)
	if err != nil {
		b.Fatal(err)
	}
	dyn := m.WithDynamicIndex(1 << 30)
	in, err := dyn.NewIngestor(1024)
	if err != nil {
		b.Fatal(err)
	}
	defer in.Close()
	labels := make([]string, 512)
	for i := range labels {
		labels[i] = "ingest bench entity " + string(rune('a'+i%26)) + string(rune('a'+(i/26)%26))
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := in.Enqueue(core.IngestItem{NewEntity: true, Label: labels[i%len(labels)]}); err != nil {
			b.Fatal(err)
		}
	}
	in.Flush()
}

func BenchmarkNoiseInjection(b *testing.B) {
	g, s := kg.Generate(kg.DefaultGeneratorConfig(kg.WikidataProfile, 500))
	ds := tabular.GenerateDataset(g, s, tabular.DefaultDatasetConfig(tabular.STWikidata, 20))
	in := tabular.NewInjector(1)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		in.Apply(ds)
	}
}

// ---- graph load and clone -----------------------------------------------

// graph100k is the graph the served benchmark loads (benchmark/prepare.go:
// 100k entities, Wikidata profile, default seed), generated once.
var graph100k = sync.OnceValue(func() *kg.Graph {
	g, _ := kg.Generate(kg.DefaultGeneratorConfig(kg.WikidataProfile, 100_000))
	return g
})

// BenchmarkGraphLoad is kg.LoadFile of that graph from the flat container
// SaveFile writes and from the gob stream it wrote before, which still loads
// (the encoder below is the only gob graph writer left, kept for this
// comparison). B/op and allocs/op are the point: the flat decode's
// allocations do not grow with the graph (kg.TestLoadFileAllocs), and
// neither load builds an index (DESIGN.md §12).
func BenchmarkGraphLoad(b *testing.B) {
	g, dir := graph100k(), b.TempDir()
	flat, legacy := filepath.Join(dir, "flat.bin"), filepath.Join(dir, "gob.bin")
	if err := g.SaveFile(flat); err != nil {
		b.Fatal(err)
	}
	f, err := os.Create(legacy)
	if err != nil {
		b.Fatal(err)
	}
	err = gob.NewEncoder(f).Encode(struct {
		Name     string
		Entities []kg.Entity
		Types    []kg.Type
		Props    []kg.Property
		Facts    []kg.Fact
	}{g.Name, g.Entities, g.Types, g.Props, g.Facts})
	if cerr := f.Close(); err != nil || cerr != nil {
		b.Fatal(err, cerr)
	}
	for _, c := range []struct{ name, path string }{{"gob", legacy}, {"flat", flat}} {
		b.Run(c.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := kg.LoadFile(c.path); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkGraphClone is what every replica of a replicated cluster pays
// per node: four slice copies, no index.
func BenchmarkGraphClone(b *testing.B) {
	g := graph100k()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if g.Clone().Indexed() {
			b.Fatal("Clone built an index")
		}
	}
}

// BenchmarkGraphFirstUse is the build a load no longer does, paid by the
// first ExactMatch (mention map) and the first FactsFrom (adjacency).
func BenchmarkGraphFirstUse(b *testing.B) {
	g := graph100k()
	for _, c := range []struct {
		name string
		use  func(*kg.Graph)
	}{
		{"mentions", func(g *kg.Graph) { g.ExactMatch("x") }},
		{"adjacency", func(g *kg.Graph) { g.FactsFrom(0) }},
	} {
		b.Run(c.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				ng := g.Clone()
				b.StartTimer()
				c.use(ng)
			}
		})
	}
}
