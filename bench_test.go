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
	"fmt"
	"io"
	"path/filepath"
	"sync"
	"testing"

	"emblookup/internal/baselines"
	"emblookup/internal/charenc"
	"emblookup/internal/core"
	"emblookup/internal/experiments"
	"emblookup/internal/index"
	"emblookup/internal/kg"
	"emblookup/internal/lookup"
	"emblookup/internal/mathx"
	"emblookup/internal/ngram"
	"emblookup/internal/nn"
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
		nc, err := m.WithIndex(index.Spec{})
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

// BenchmarkEmbed times one query embedding (all) and its three stages: the
// n-gram bag (ngram), the character encoding plus CharCNN (cnn) and the MLP
// combiner (mlp). The stage rows run freshly initialised layers of the
// bench model's shapes, whose cost is the trained layers' — a stage's work
// depends on its shapes and the mention, not on its weights. The stage
// mention is lowercase, so no stage row pays for case folding; all does.
func BenchmarkEmbed(b *testing.B) {
	_, m, _ := model(b)
	cfg := m.Config()
	const q = "bramonia ridge"
	rng := mathx.NewRNG(1)
	enc := charenc.NewEncoder(charenc.NewAlphabet("abcdefghijklmnopqrstuvwxyz0123456789 .'-()&,/"), cfg.MaxLen)
	cnn := nn.NewCharCNN(rng, enc.Alphabet.Size(), cfg.CNNChannels, cfg.Kernel, cfg.CNNLayers)
	sem := ngram.NewModel(cfg.Dim, cfg.NgramBuckets, 2)
	joint := make([]float32, cfg.CNNChannels+cfg.Dim)
	if cfg.MentionSlot {
		joint = append(joint, make([]float32, cfg.Dim)...)
	}
	mlp := nn.NewMLP(rng, len(joint), cfg.Hidden, cfg.Dim)
	for i := range joint {
		joint[i] = float32(rng.NormFloat64())
	}
	var (
		ns       ngram.Scratch
		s        nn.Scratch
		idx      []int
		sub, men = make([]float32, cfg.Dim), make([]float32, cfg.Dim)
	)
	b.Run("ngram", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			sem.EmbedPartsInto(&ns, q, sub, men)
		}
	})
	b.Run("cnn", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			idx = enc.EncodeIndexesInto(q, idx)
			cnn.ApplyIdxInto(idx[:len(q)], &s)
		}
	})
	b.Run("mlp", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			mlp.ApplyInto(joint, &s)
		}
	})
	b.Run("all", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			m.Embed("Bramonia Ridge")
		}
	})
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

func BenchmarkBaselineLSH(b *testing.B) {
	benchBaseline(b, func(c *lookup.Corpus) lookup.Service { return baselines.NewLSH(c) })
}

// BenchmarkPQSearch measures the steady-state compressed search path: one
// ADC table, then the scanADC kernel over 10k contiguous 8-bit codes. With
// pooled scratch (ADC table and top-k heap reused) the only allocation left
// is the returned result slice, so it reports 1 allocs/op.
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
// The fast-scan rows report their work from the prune counters
// (index.FastScanCounts) beside the time: rows/query and clusters/query
// scanned, ns/row-scanned (the time over the rows a query scanned, not
// over every row of the index), and cand/query, the rows a query re-ranks
// exactly. clustered100k is the scan at the benchmark's scale over rows that
// cluster as label embeddings do (independent Gaussian rows, every one about
// as far from a query as the next, prune unlike them; the index stores them
// by k-means cluster and a query scans only the clusters that can hold a
// winner, DESIGN.md §11), solo and, as clustered100k_batch64, as one batch.
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
	// work reports, over the queries run since before, the counters' work
	// per query and the time per row scanned.
	work := func(b *testing.B, before index.FastScanCounts, queries int) {
		c := index.ReadFastScanCounts()
		rows := float64(c.Rows - before.Rows)
		b.ReportMetric(rows/float64(queries), "rows/query")
		b.ReportMetric(float64(c.Clusters-before.Clusters)/float64(queries), "clusters/query")
		b.ReportMetric(float64(b.Elapsed().Nanoseconds())/rows, "ns/row-scanned")
		b.ReportMetric(float64(c.Candidates-before.Candidates)/float64(queries), "cand/query")
	}
	// solo times one query after another over ix.
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
			work(b, before, b.N)
		}
	}
	b.Run("fastscan", solo(fs, [][]float32{q}))
	// batch times one BatchSearch of all queries after another on one core
	// (table quantization and the batch's result slices included).
	batch := func(ix *index.FastScan, queries [][]float32) func(b *testing.B) {
		return func(b *testing.B) {
			before := index.ReadFastScanCounts()
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				index.BatchSearch(ix, queries, 10, 1)
			}
			work(b, before, b.N*len(queries))
		}
	}
	// A batch of four: four pruned scans, one per query, as a bulk request
	// runs them (table preparation and the batch's result slices
	// included).
	b.Run("batch4", batch(fs, [][]float32{data.Row(0), data.Row(1), data.Row(2), data.Row(3)}))
	// 100 000 rows around 100 centres, 64 queries each a stored row nudged
	// off its place; built on first use.
	var big *index.FastScan
	var bigQueries [][]float32
	clustered := func(b *testing.B) (*index.FastScan, [][]float32) {
		if big != nil {
			return big, bigQueries
		}
		rng := mathx.NewRNG(11)
		clustered := clusteredRows(rng, 100000, data.Cols)
		c4 := quant.Config4(cfg)
		c4.TrainSample = 20000
		ix, err := index.NewFastScan(clustered, c4)
		if err != nil {
			b.Fatal(err)
		}
		queries := nudgedQueries(rng, clustered, 64)
		big, bigQueries = ix, queries
		return ix, queries
	}
	b.Run("clustered100k", func(b *testing.B) {
		ix, queries := clustered(b)
		solo(ix, queries)(b)
	})
	// The same 64 queries as one batch on one core: the bulk path's scan at
	// the benchmark's scale.
	b.Run("clustered100k_batch64", func(b *testing.B) {
		ix, queries := clustered(b)
		batch(ix, queries)(b)
	})
}

// clusteredRows draws rows × cols values around 100 Gaussian centres, the
// way label embeddings cluster.
func clusteredRows(rng *mathx.RNG, rows, cols int) *mathx.Matrix {
	cs := mathx.NewMatrix(100, cols)
	cs.FillRandn(rng, 1)
	m := mathx.NewMatrix(rows, cols)
	m.FillRandn(rng, 0.4)
	for i := 0; i < rows; i++ {
		for j, v := range cs.Row(rng.Intn(cs.Rows)) {
			m.Row(i)[j] += v
		}
	}
	return m
}

// nudgedQueries returns n queries, each a row of data moved a little off
// its place.
func nudgedQueries(rng *mathx.RNG, data *mathx.Matrix, n int) [][]float32 {
	queries := make([][]float32, n)
	for i := range queries {
		queries[i] = append([]float32(nil), data.Row(rng.Intn(data.Rows))...)
		for j := range queries[i] {
			queries[i][j] += 0.1 * float32(rng.NormFloat64())
		}
	}
	return queries
}

// BenchmarkIVFSearch is the served ivf100k model's search in kernel-only
// form: IVF-PQ over 100 000 clustered rows (√n coarse lists, 8 × 8-bit
// residual codes, quantizers trained on 20 000 rows), nprobe 16, exact
// re-rank ×8. A query ranks every coarse centroid, builds 16 ADC tables,
// scans 16 lists and re-ranks 80 candidates.
func BenchmarkIVFSearch(b *testing.B) {
	rng := mathx.NewRNG(13)
	data := clusteredRows(rng, 100000, 64)
	pqCfg := quant.PQConfig{M: 8, Ks: 256, Iters: 10, Seed: 14}
	cfg := index.DefaultIVFConfig(data.Rows)
	cfg.NProbe, cfg.PQ, cfg.TrainSample = 16, &pqCfg, 20000
	ix, err := index.NewIVF(data, cfg)
	if err != nil {
		b.Fatal(err)
	}
	if err := ix.SetRerank(8, data); err != nil {
		b.Fatal(err)
	}
	queries := nudgedQueries(rng, data, 64)
	var s index.Scratch
	var dst []index.Result
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		dst, _ = ix.Search(context.Background(), &s, queries[i%len(queries)], 10, dst)
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/1e3/float64(b.N), "us/query")
}

// BenchmarkADCTable times one query's ADC table at the two quantizer shapes
// the served models use: M = 8 sub-quantizers of Ks = 256 (the PQ and
// IVF-PQ residual table, built once per probed list) and the fast-scan
// shape M4 = 16 of Ks = 16 (built once per query before quantization).
func BenchmarkADCTable(b *testing.B) {
	data := clusteredRows(mathx.NewRNG(15), 5000, 64)
	for _, bc := range []struct {
		name string
		cfg  quant.PQConfig
	}{
		{"m8_ks256", quant.PQConfig{M: 8, Ks: 256, Iters: 5, Seed: 16}},
		{"m16_ks16", quant.Config4(quant.PQConfig{M: 8, Iters: 5, Seed: 16})},
	} {
		b.Run(bc.name, func(b *testing.B) {
			pq, err := quant.TrainPQ(data, bc.cfg)
			if err != nil {
				b.Fatal(err)
			}
			table := make([]float32, pq.M*pq.Ks)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				pq.ADCTableInto(data.Row(i%data.Rows), table)
			}
		})
	}
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

// BenchmarkIndexBuild is core.LoadFile of a weights-only fast-scan model
// over a 20k-entity graph: the rebuild a process pays when its artifact
// carries no index, as the served benchmark's setup_s does for fs100k —
// embed every entity, train the 4-bit quantizer, encode the rows.
func BenchmarkIndexBuild(b *testing.B) {
	_, m, _ := model(b)
	fs, err := m.WithIndex(index.Spec{Compress: true, FastScan: true, PQ: m.Config().PQ})
	if err != nil {
		b.Fatal(err)
	}
	g, _ := kg.Generate(kg.DefaultGeneratorConfig(kg.WikidataProfile, 20_000))
	path := filepath.Join(b.TempDir(), "weights.v4")
	if err := fs.SaveFile(path); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		lm, err := core.LoadFile(path, g)
		if err != nil {
			b.Fatal(err)
		}
		lm.Close()
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

// BenchmarkTrainEpoch times a full small Train on one and on two replica
// workers (DESIGN.md §13): w1/w2 is the replica trainer's own speed-up.
// On a single-core machine w2 measures goroutine overhead, not speed-up.
func BenchmarkTrainEpoch(b *testing.B) {
	g, _ := kg.Generate(kg.DefaultGeneratorConfig(kg.WikidataProfile, 300))
	base := core.FastConfig()
	base.Epochs = 2
	base.TripletsPerEntity = 8
	for _, workers := range []int{1, 2} {
		b.Run(fmt.Sprintf("w%d", workers), func(b *testing.B) {
			cfg := base
			cfg.Workers = workers
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

// BenchmarkGraphLoad is kg.LoadFile of that graph from the container
// SaveFile writes. B/op and allocs/op are the point: the decode's
// allocations do not grow with the graph (kg.TestLoadFileAllocs), and the
// load builds no index (DESIGN.md §12).
func BenchmarkGraphLoad(b *testing.B) {
	path := filepath.Join(b.TempDir(), "graph.bin")
	if err := graph100k().SaveFile(path); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := kg.LoadFile(path); err != nil {
			b.Fatal(err)
		}
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
