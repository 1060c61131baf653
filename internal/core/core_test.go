package core

import (
	"fmt"
	"sync"
	"testing"

	"emblookup/internal/index"
	"emblookup/internal/kg"
	"emblookup/internal/lookup"
	"emblookup/internal/mathx"
	"emblookup/internal/tabular"
	"emblookup/internal/triplet"
)

// The shared fixture trains one small model; individual tests reuse it to
// keep the suite fast. Tests that need different configs train their own
// smaller models.
var (
	fixtureOnce  sync.Once
	fixtureGraph *kg.Graph
	fixtureModel *EmbLookup
)

func testConfig() Config {
	cfg := FastConfig()
	cfg.Epochs = 4
	cfg.TripletsPerEntity = 12
	cfg.NgramEpochs = 6
	return cfg
}

func fixture(t *testing.T) (*kg.Graph, *EmbLookup) {
	t.Helper()
	fixtureOnce.Do(func() {
		g, _ := kg.Generate(kg.DefaultGeneratorConfig(kg.WikidataProfile, 400))
		e, err := Train(g, testConfig())
		if err != nil {
			panic(err)
		}
		fixtureGraph, fixtureModel = g, e
	})
	return fixtureGraph, fixtureModel
}

func recallAt10(e *EmbLookup, queries []string, truths []kg.EntityID) float64 {
	hits := 0
	for i, q := range queries {
		for _, c := range e.Lookup(q, 10) {
			if c.ID == truths[i] {
				hits++
				break
			}
		}
	}
	return float64(hits) / float64(len(queries))
}

func TestTrainCleanLookup(t *testing.T) {
	g, e := fixture(t)
	var queries []string
	var truths []kg.EntityID
	for i := 0; i < 100; i++ {
		queries = append(queries, g.Entities[i].Label)
		truths = append(truths, g.Entities[i].ID)
	}
	if r := recallAt10(e, queries, truths); r < 0.9 {
		t.Fatalf("clean recall@10 = %.2f, want >= 0.9", r)
	}
}

func TestTrainNoisyLookup(t *testing.T) {
	g, e := fixture(t)
	rng := mathx.NewRNG(5)
	var queries []string
	var truths []kg.EntityID
	for i := 0; i < 100; i++ {
		ent := &g.Entities[rng.Intn(len(g.Entities))]
		queries = append(queries, tabular.ApplyNoise(ent.Label, tabular.TransposeLetters, rng))
		truths = append(truths, ent.ID)
	}
	if r := recallAt10(e, queries, truths); r < 0.5 {
		t.Fatalf("noisy recall@10 = %.2f, want >= 0.5", r)
	}
}

func TestSemanticLookupBeatsChance(t *testing.T) {
	g, e := fixture(t)
	rng := mathx.NewRNG(7)
	var queries []string
	var truths []kg.EntityID
	for i := 0; i < 100; i++ {
		ent := &g.Entities[rng.Intn(len(g.Entities))]
		if len(ent.Aliases) == 0 {
			continue
		}
		queries = append(queries, ent.Aliases[rng.Intn(len(ent.Aliases))])
		truths = append(truths, ent.ID)
	}
	if r := recallAt10(e, queries, truths); r < 0.35 {
		t.Fatalf("alias recall@10 = %.2f, want >= 0.35", r)
	}
}

func TestLookupKHandling(t *testing.T) {
	g, e := fixture(t)
	if res := e.Lookup(g.Entities[0].Label, 0); res != nil {
		t.Fatal("k=0 should return nil")
	}
	res := e.Lookup(g.Entities[0].Label, 3)
	if len(res) > 3 {
		t.Fatalf("got %d results for k=3", len(res))
	}
	// Scores must be non-increasing.
	for i := 1; i < len(res); i++ {
		if res[i].Score > res[i-1].Score {
			t.Fatal("results not sorted by score")
		}
	}
}

func TestEmbedDeterministicAndConcurrent(t *testing.T) {
	g, e := fixture(t)
	q := g.Entities[3].Label
	want := e.Embed(q)
	done := make(chan []float32, 8)
	for i := 0; i < 8; i++ {
		go func() { done <- e.Embed(q) }()
	}
	for i := 0; i < 8; i++ {
		got := <-done
		for j := range want {
			if got[j] != want[j] {
				t.Fatal("concurrent Embed results differ")
			}
		}
	}

	// Hammer Lookup and BulkLookup from many goroutines against the
	// sequential answers. Pooled scratch is recycled across goroutines and
	// queries here, so any aliasing bug (a buffer shared by two in-flight
	// lookups, or state leaking between consecutive queries on one worker)
	// shows up as a diverging result.
	queries := make([]string, 32)
	for i := range queries {
		queries[i] = g.Entities[i*7%len(g.Entities)].Label
	}
	seqLookup := make([][]lookup.Candidate, len(queries))
	for i, s := range queries {
		seqLookup[i] = e.Lookup(s, 10)
	}
	seqBulk := e.BulkLookup(queries, 5, 1)

	var wg sync.WaitGroup
	errc := make(chan error, 16)
	for w := 0; w < 16; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for iter := 0; iter < 10; iter++ {
				qi := (w*10 + iter) % len(queries)
				got := e.Lookup(queries[qi], 10)
				if len(got) != len(seqLookup[qi]) {
					errc <- fmt.Errorf("concurrent Lookup(%q) returned %d candidates, want %d",
						queries[qi], len(got), len(seqLookup[qi]))
					return
				}
				for j := range got {
					if got[j] != seqLookup[qi][j] {
						errc <- fmt.Errorf("concurrent Lookup(%q) diverges at %d: %+v vs %+v",
							queries[qi], j, got[j], seqLookup[qi][j])
						return
					}
				}
			}
			// Nested parallel bulk from concurrent callers.
			bulk := e.BulkLookup(queries, 5, 4)
			for i := range bulk {
				if len(bulk[i]) != len(seqBulk[i]) {
					errc <- fmt.Errorf("concurrent BulkLookup length diverges for %q", queries[i])
					return
				}
				for j := range bulk[i] {
					if bulk[i][j] != seqBulk[i][j] {
						errc <- fmt.Errorf("concurrent BulkLookup diverges for %q at %d", queries[i], j)
						return
					}
				}
			}
		}(w)
	}
	wg.Wait()
	close(errc)
	for err := range errc {
		t.Fatal(err)
	}
}

func TestBulkLookupMatchesSequential(t *testing.T) {
	g, e := fixture(t)
	var queries []string
	for i := 0; i < 40; i++ {
		queries = append(queries, g.Entities[i].Label)
	}
	seq := e.BulkLookup(queries, 5, 1)
	par := e.BulkLookup(queries, 5, 8)
	for i := range queries {
		if len(seq[i]) != len(par[i]) {
			t.Fatal("length mismatch")
		}
		for j := range seq[i] {
			if seq[i][j] != par[i][j] {
				t.Fatal("parallel bulk lookup diverges from sequential")
			}
		}
	}
}

func TestCompressionToggle(t *testing.T) {
	_, e := fixture(t)
	// EL (compressed) payload must be Dim*4/M smaller than EL-NC.
	nc, err := e.WithIndex(index.Spec{})
	if err != nil {
		t.Fatal(err)
	}
	elBytes, ncBytes := e.Index().SizeBytes(), nc.Index().SizeBytes()
	if ncBytes <= elBytes*4 {
		t.Fatalf("EL-NC (%d B) should be much larger than EL (%d B)", ncBytes, elBytes)
	}
}

func TestSaveLoadRoundTrip(t *testing.T) {
	g, e := fixture(t)
	path := t.TempDir() + "/weights.bin"
	if err := e.SaveFile(path); err != nil {
		t.Fatal(err)
	}
	e2, err := LoadFile(path, g)
	if err != nil {
		t.Fatal(err)
	}
	defer e2.Close()
	for _, q := range []string{"Bramonia", g.Entities[0].Label, "xyz 123"} {
		a, b := e.Embed(q), e2.Embed(q)
		for i := range a {
			if a[i] != b[i] {
				t.Fatalf("loaded model embeds %q differently", q)
			}
		}
	}
	// The rebuilt index must answer identically.
	q := g.Entities[1].Label
	r1 := e.Lookup(q, 5)
	r2 := e2.Lookup(q, 5)
	if len(r1) != len(r2) {
		t.Fatal("loaded index answers differently")
	}
	for i := range r1 {
		if r1[i].ID != r2[i].ID {
			t.Fatal("loaded index ranks differently")
		}
	}
}

func TestSaveLoadFile(t *testing.T) {
	g, e := fixture(t)
	path := t.TempDir() + "/model.bin"
	if err := e.SaveFile(path); err != nil {
		t.Fatal(err)
	}
	loaded, err := LoadFile(path, g)
	if err != nil {
		t.Fatal(err)
	}
	if err := loaded.Close(); err != nil {
		t.Fatal(err)
	}
}

func TestSingleModelAblationTrains(t *testing.T) {
	g, _ := kg.Generate(kg.DefaultGeneratorConfig(kg.WikidataProfile, 120))
	cfg := testConfig()
	cfg.Epochs = 2
	cfg.SingleModel = true
	e, err := Train(g, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if e.Embed("anything") == nil {
		t.Fatal("single-model embed failed")
	}
	res := e.Lookup(g.Entities[0].Label, 5)
	if len(res) == 0 {
		t.Fatal("single-model lookup empty")
	}
}

func TestIndexAliasesImprovesAliasRecall(t *testing.T) {
	g, _ := kg.Generate(kg.DefaultGeneratorConfig(kg.WikidataProfile, 150))
	cfg := testConfig()
	cfg.Epochs = 2
	base, err := Train(g, cfg)
	if err != nil {
		t.Fatal(err)
	}
	cfg.IndexAliases = true
	withAliases, err := Train(g, cfg)
	if err != nil {
		t.Fatal(err)
	}
	rng := mathx.NewRNG(11)
	var queries []string
	var truths []kg.EntityID
	for i := 0; i < 80; i++ {
		ent := &g.Entities[rng.Intn(len(g.Entities))]
		if len(ent.Aliases) == 0 {
			continue
		}
		queries = append(queries, ent.Aliases[rng.Intn(len(ent.Aliases))])
		truths = append(truths, ent.ID)
	}
	rBase := recallAt10(base, queries, truths)
	rAlias := recallAt10(withAliases, queries, truths)
	if rAlias < rBase {
		t.Fatalf("alias rows should not hurt alias recall: %.2f vs %.2f", rAlias, rBase)
	}
	if withAliases.Index().Len() <= base.Index().Len() {
		t.Fatal("alias index should have more rows")
	}
}

func TestValidate(t *testing.T) {
	// The index spec's own rules are index.TestSpecValidate's; this checks
	// only that Config.Validate applies them at the model's dimension.
	cfg := DefaultConfig()
	cfg.Dim = 60 // not divisible by PQ.M=8
	if err := cfg.Validate(); err == nil {
		t.Fatal("expected divisibility error")
	}
	cfg = DefaultConfig()
	cfg.Kernel = 4
	if err := cfg.Validate(); err == nil {
		t.Fatal("expected odd-kernel error")
	}
	cfg = DefaultConfig()
	cfg.BatchSize = 0
	if err := cfg.Validate(); err == nil {
		t.Fatal("expected batch error")
	}
	if err := DefaultConfig().Validate(); err != nil {
		t.Fatalf("default config invalid: %v", err)
	}
}

func TestNames(t *testing.T) {
	_, e := fixture(t)
	if e.Name() != "emblookup" {
		t.Fatalf("Name = %q", e.Name())
	}
	nc := *e
	nc.cfg.Compress = false
	if nc.Name() != "emblookup-nc" {
		t.Fatalf("NC name = %q", nc.Name())
	}
}

func TestContrastiveLossTrains(t *testing.T) {
	g, _ := kg.Generate(kg.DefaultGeneratorConfig(kg.WikidataProfile, 150))
	cfg := testConfig()
	cfg.Epochs = 2
	cfg.Loss = "contrastive"
	e, err := Train(g, cfg)
	if err != nil {
		t.Fatal(err)
	}
	var queries []string
	var truths []kg.EntityID
	for i := 0; i < 60; i++ {
		queries = append(queries, g.Entities[i].Label)
		truths = append(truths, g.Entities[i].ID)
	}
	if r := recallAt10(e, queries, truths); r < 0.8 {
		t.Fatalf("contrastive clean recall = %.2f", r)
	}
}

func TestTopLossScheduleTrains(t *testing.T) {
	g, _ := kg.Generate(kg.DefaultGeneratorConfig(kg.WikidataProfile, 150))
	cfg := testConfig()
	cfg.Epochs = 4
	cfg.TopLossFraction = 0.25
	e, err := Train(g, cfg)
	if err != nil {
		t.Fatal(err)
	}
	var queries []string
	var truths []kg.EntityID
	for i := 0; i < 60; i++ {
		queries = append(queries, g.Entities[i].Label)
		truths = append(truths, g.Entities[i].ID)
	}
	if r := recallAt10(e, queries, truths); r < 0.8 {
		t.Fatalf("top-loss clean recall = %.2f", r)
	}
}

func TestValidateNewOptions(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Loss = "hinge"
	if err := cfg.Validate(); err == nil {
		t.Fatal("unknown loss should fail validation")
	}
	cfg = DefaultConfig()
	cfg.TopLossFraction = 1.5
	if err := cfg.Validate(); err == nil {
		t.Fatal("out-of-range TopLossFraction should fail validation")
	}
	cfg = DefaultConfig()
	cfg.Loss = "contrastive"
	cfg.TopLossFraction = 0.5
	if err := cfg.Validate(); err != nil {
		t.Fatalf("valid options rejected: %v", err)
	}
}

func TestWithAliasRows(t *testing.T) {
	g, e := fixture(t)
	withA, err := e.WithAliasRows()
	if err != nil {
		t.Fatal(err)
	}
	if withA.Index().Len() <= e.Index().Len() {
		t.Fatal("alias rows should enlarge the index")
	}
	// The original service must be untouched.
	if e.Config().IndexAliases {
		t.Fatal("WithAliasRows mutated the receiver")
	}
	_ = g
}

func TestIVFIndexVariants(t *testing.T) {
	g, _ := kg.Generate(kg.DefaultGeneratorConfig(kg.WikidataProfile, 200))
	cfg := testConfig()
	cfg.Epochs = 2
	cfg.IVF = true
	cfg.IVFNProbe = 64 // effectively exhaustive at this size
	for _, compress := range []bool{false, true} {
		cfg.Compress = compress
		e, err := Train(g, cfg)
		if err != nil {
			t.Fatalf("compress=%v: %v", compress, err)
		}
		hits := 0
		for i := 0; i < 50; i++ {
			for _, c := range e.Lookup(g.Entities[i].Label, 10) {
				if c.ID == g.Entities[i].ID {
					hits++
					break
				}
			}
		}
		if hits < 45 {
			t.Fatalf("IVF compress=%v clean recall %d/50", compress, hits)
		}
	}
}

func TestMinerRelatedHook(t *testing.T) {
	g, _ := kg.Generate(kg.DefaultGeneratorConfig(kg.WikidataProfile, 100))
	related := func(id kg.EntityID) []kg.EntityID {
		return g.Neighbors(id)
	}
	mCfg := triplet.DefaultMinerConfig()
	mCfg.PerEntity = 20
	mCfg.TypeShare = 0.3
	mCfg.Related = related
	ts := triplet.Mine(g, mCfg)
	if len(ts) == 0 {
		t.Fatal("no triplets")
	}
	// At least some positives should be neighbor labels.
	neighborPositives := 0
	for _, tr := range ts {
		ids := g.ExactMatch(tr.Anchor)
		if len(ids) == 0 {
			continue
		}
		for _, nb := range g.Neighbors(ids[0]) {
			if g.Label(nb) == tr.Positive {
				neighborPositives++
				break
			}
		}
	}
	if neighborPositives == 0 {
		t.Fatal("Related hook produced no neighbor positives")
	}
}

func TestValidateRerank(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Rerank = -1
	if err := cfg.Validate(); err == nil {
		t.Fatal("negative Rerank should fail validation")
	}
	cfg = DefaultConfig()
	cfg.Rerank = 8
	if err := cfg.Validate(); err == nil {
		t.Fatal("Rerank without IVF+Compress should fail validation")
	}
	cfg.IVF, cfg.Compress = true, true
	if err := cfg.Validate(); err != nil {
		t.Fatalf("valid rerank config rejected: %v", err)
	}
	// Rerank ≤ 1 is a no-op and needs no index preconditions.
	cfg = DefaultConfig()
	cfg.Rerank = 1
	if err := cfg.Validate(); err != nil {
		t.Fatalf("Rerank=1 rejected: %v", err)
	}
}
