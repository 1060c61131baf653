package main

import (
	"encoding/json"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"time"

	"emblookup/internal/core"
	"emblookup/internal/index"
	"emblookup/internal/kg"
	"emblookup/internal/mathx"
	"emblookup/internal/tabular"
)

// sizing fixes every size the benchmark depends on. fullSizing is what
// BENCHMARK.json measures; the smoke test shrinks it.
type sizing struct {
	Entities      int // served graph
	DonorEntities int // graph the shared encoder is trained on
	DonorEpochs   int
	TrainSample   int // PQ.TrainSample: rows the quantizers train on
	PoolSize      int // quality pool: noised queries with truth and exact top-10
	CheckN        int // served responses compared bit for bit per run
	TraceN        int // requests replayed per layer in the traced run
	TraceBulkN    int // same, for bulk requests
	BulkCells     int // cells per /bulk request
}

func fullSizing() sizing {
	return sizing{
		Entities:      100_000,
		DonorEntities: 2000,
		DonorEpochs:   4,
		TrainSample:   20_000,
		PoolSize:      1000,
		CheckN:        200,
		TraceN:        500,
		TraceBulkN:    10,
		BulkCells:     256,
	}
}

// prepSeed drives everything prepared once per checkout (graph, encoder,
// quality pool). It is fixed: --seed varies the request streams only, so
// runs with different seeds share one prepared state.
const prepSeed = 42

// The two served models. Both come from one encoder; the names are the
// ISSUE's and stay the same at smoke sizing.
const (
	modelFS  = "fs100k"  // Compress + FastScan, flat 4-bit scan
	modelIVF = "ivf100k" // IVF-PQ, nprobe 16, exact re-rank ×8
)

// poolEntry is one quality query: a noised mention of Truth, and the exact
// (index.Flat) top-10 entities for it.
type poolEntry struct {
	Mention string  `json:"mention"`
	Truth   int32   `json:"truth"`
	Exact   []int32 `json:"exact"`
}

// prepared is the per-checkout state every run reuses.
type prepared struct {
	Sizing    sizing            `json:"sizing"`
	GraphPath string            `json:"graph"`
	Weights   map[string]string `json:"weights"` // model name → encoder weights carrying that index config
	PoolPath  string            `json:"pool"`
	GenerateS float64           `json:"kg_generate_s"`
	TrainS    float64           `json:"core_train_s"`
}

const preparedManifest = "prepared.json"

// modelConfig is the index configuration each served model is built with.
func modelConfig(name string, sz sizing) core.Config {
	cfg := core.FastConfig()
	cfg.Epochs = sz.DonorEpochs
	cfg.PQ.TrainSample = sz.TrainSample
	cfg.Compress = true
	if name == modelIVF {
		cfg.IVF = true
		cfg.IVFNProbe = 16
		cfg.Rerank = 8
	} else {
		cfg.FastScan = true
	}
	return cfg
}

// prepare returns the cached state under dir, building it on the first call
// in a checkout: the served graph, the encoder trained on the donor graph
// (once per index configuration — training is deterministic, so the two
// weight files hold the same encoder), and the quality pool.
func prepare(dir string, sz sizing, logf func(string, ...any)) (*prepared, error) {
	manifest := filepath.Join(dir, preparedManifest)
	if buf, err := os.ReadFile(manifest); err == nil {
		var p prepared
		if json.Unmarshal(buf, &p) == nil && p.Sizing == sz {
			return &p, nil
		}
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	p := &prepared{
		Sizing:    sz,
		GraphPath: filepath.Join(dir, "graph.bin"),
		Weights:   map[string]string{},
		PoolPath:  filepath.Join(dir, "pool.json"),
	}

	start := time.Now()
	gCfg := kg.DefaultGeneratorConfig(kg.WikidataProfile, sz.Entities)
	gCfg.Seed = prepSeed
	g, _ := kg.Generate(gCfg)
	p.GenerateS = time.Since(start).Seconds()
	if err := g.SaveFile(p.GraphPath); err != nil {
		return nil, fmt.Errorf("saving graph: %w", err)
	}
	logf("prepare: %d-entity graph generated in %.1fs", sz.Entities, p.GenerateS)

	dCfg := kg.DefaultGeneratorConfig(kg.WikidataProfile, sz.DonorEntities)
	dCfg.Seed = prepSeed
	donor, _ := kg.Generate(dCfg)
	var encoders []*core.EmbLookup
	for _, name := range []string{modelFS, modelIVF} {
		start = time.Now()
		m, err := core.Train(donor, modelConfig(name, sz))
		if err != nil {
			return nil, fmt.Errorf("training %s encoder: %w", name, err)
		}
		p.TrainS = time.Since(start).Seconds()
		p.Weights[name] = filepath.Join(dir, name+".weights.v4")
		if err := m.SaveFile(p.Weights[name]); err != nil {
			return nil, fmt.Errorf("saving %s weights: %w", name, err)
		}
		encoders = append(encoders, m)
		logf("prepare: %s encoder trained in %.1fs", name, p.TrainS)
	}
	// "One donor encoder" is a property the run depends on (one quality pool
	// serves both models), so check it rather than assume it.
	probe := g.Entities[0].Label
	a, b := encoders[0].Embed(probe), encoders[1].Embed(probe)
	for i := range a {
		if math.Float32bits(a[i]) != math.Float32bits(b[i]) {
			return nil, fmt.Errorf("the two encoder trainings diverged: Embed(%q)[%d] = %v vs %v", probe, i, a[i], b[i])
		}
	}

	start = time.Now()
	pool := buildPool(encoders[0], g, sz.PoolSize)
	buf, err := json.Marshal(pool)
	if err != nil {
		return nil, err
	}
	if err := os.WriteFile(p.PoolPath, buf, 0o644); err != nil {
		return nil, err
	}
	logf("prepare: %d-query quality pool in %.1fs", len(pool), time.Since(start).Seconds())

	buf, err = json.MarshalIndent(p, "", "  ")
	if err != nil {
		return nil, err
	}
	// The manifest lands last and by rename, so an interrupted prepare is
	// redone instead of trusted.
	tmp := manifest + ".tmp"
	if err := os.WriteFile(tmp, buf, 0o644); err != nil {
		return nil, err
	}
	return p, os.Rename(tmp, manifest)
}

// buildPool draws n noised mentions uniformly over g's entities and records
// the exact top-10 for each: index.Flat over the index-space embedding of
// every label, row i being entity i (the served models index labels only).
func buildPool(enc *core.EmbLookup, g *kg.Graph, n int) []poolEntry {
	labels := make([]string, len(g.Entities))
	for i := range g.Entities {
		labels[i] = g.Entities[i].Label
	}
	vecs := enc.IndexEmbedAll(labels, 0)
	data := mathx.NewMatrix(len(vecs), enc.Config().Dim)
	for i, v := range vecs {
		copy(data.Row(i), v)
	}
	flat := index.NewFlat(data)

	rng := mathx.NewRNG(prepSeed + 1)
	noise := &tabular.Injector{}
	pool := make([]poolEntry, n)
	mentions := make([]string, n)
	for i := range pool {
		id := rng.Intn(len(g.Entities))
		mentions[i] = noise.Corrupt(labels[id], rng)
		pool[i] = poolEntry{Mention: mentions[i], Truth: int32(id)}
	}
	exact := index.BatchSearch(flat, enc.EmbedAll(mentions, 0), 10, 0)
	for i, rs := range exact {
		for _, r := range rs {
			pool[i].Exact = append(pool[i].Exact, r.ID)
		}
	}
	return pool
}

func loadPool(path string) ([]poolEntry, error) {
	buf, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var pool []poolEntry
	if err := json.Unmarshal(buf, &pool); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return pool, nil
}

// buildModel is the index build a run counts in setup_s: attach the encoder
// weights over g — which embeds every entity, trains the quantizers and
// encodes the rows — and write the v4 artifact the child will mmap.
func buildModel(weights string, g *kg.Graph, out string) (time.Duration, error) {
	start := time.Now()
	m, err := core.LoadFile(weights, g)
	if err != nil {
		return 0, fmt.Errorf("building index from %s: %w", weights, err)
	}
	defer m.Close()
	if err := m.SaveFileWithIndex(out); err != nil {
		return 0, fmt.Errorf("writing %s: %w", out, err)
	}
	return time.Since(start), nil
}
