package experiments

import (
	"fmt"

	"emblookup/internal/core"
	"emblookup/internal/tasks"
)

// Ablations regenerates the design-choice studies DESIGN.md calls out
// beyond the paper's own tables: the two-model vs single-model
// architecture (the paper reports two models won but shows no numbers),
// offline-only vs the offline+online mining schedule, a triplet-loss
// margin sweep, and labels-only vs alias-rows indexing. Each variant
// reports CEA F-score on the clean and fully-corrupted workloads plus the
// index payload size.
func (env *Env) Ablations() *Report {
	r := &Report{ID: "Ablations", Title: "Design-choice ablations (CEA, ST-Wikidata)",
		Header: []string{"Variant", "F(no err)", "F(all err)", "IndexBytes"}}

	ceaCfg := tasks.DefaultCEAConfig()
	ceaCfg.Parallelism = 0
	evaluate := func(name string, m *core.EmbLookup) {
		clean := tasks.CEA(env.WikidataDS, m, tasks.TopCandidate, ceaCfg).F1()
		noisy := tasks.CEA(env.WikidataAllNoisy, m, tasks.TopCandidate, ceaCfg).F1()
		r.AddRow(name, f2(clean), f2(noisy), fmt.Sprint(m.Index().SizeBytes()))
	}

	train := func(mutate func(*core.Config)) (*core.EmbLookup, error) {
		cfg := env.Opts.TrainConfig
		cfg.Compress = false // isolate the modeling choice from quantization
		mutate(&cfg)
		return core.Train(env.WGraph, cfg)
	}

	// Baseline: the default two-model architecture.
	evaluate("default (two models)", env.WELNC)

	// Single-model: semantic path only through the combiner (the paper:
	// "using a single embedding model ... was less accurate").
	if m, err := train(func(c *core.Config) { c.SingleModel = true }); err == nil {
		evaluate("single model (no CNN)", m)
	} else {
		r.AddNote("single-model variant failed: %v", err)
	}

	// Offline-only schedule: all epochs on the full triplet set, no online
	// hard mining (the paper's second-half refinement removed).
	if m, err := train(func(c *core.Config) { c.Epochs = c.Epochs / 2 }); err == nil {
		evaluate("offline-only (half epochs)", m)
	} else {
		r.AddNote("offline-only variant failed: %v", err)
	}

	// Margin sweep. The trained weights do not depend on the index spec,
	// so at the default margin the variant is env.WELNC itself.
	for _, margin := range []float32{0.2, 1.0, 3.0} {
		m := env.WELNC
		if margin != env.Opts.TrainConfig.Margin {
			var err error
			if m, err = train(func(c *core.Config) { c.Margin = margin }); err != nil {
				r.AddNote("margin %.1f failed: %v", margin, err)
				continue
			}
		}
		evaluate(fmt.Sprintf("margin %.1f", margin), m)
	}

	// Alternative loss function (future work, Section VI).
	if m, err := train(func(c *core.Config) { c.Loss = "contrastive" }); err == nil {
		evaluate("contrastive loss", m)
	} else {
		r.AddNote("contrastive variant failed: %v", err)
	}

	// Most-promising-triplet schedule (future work, Section VI): offline
	// epochs after the first train only on the top 25%% of triplets by
	// current loss.
	if m, err := train(func(c *core.Config) { c.TopLossFraction = 0.25 }); err == nil {
		evaluate("top-25% triplets", m)
	} else {
		r.AddNote("top-loss variant failed: %v", err)
	}

	// Alias rows in the index (Section III-C's storage/accuracy option).
	if withA, err := env.WELNC.WithAliasRows(); err == nil {
		evaluate("alias rows indexed", withA)
	} else {
		r.AddNote("alias-row variant failed: %v", err)
	}

	// IVF coarse quantizer (FAISS's "wide variety of indexing options"):
	// probe a handful of lists instead of scanning everything. Only the
	// index differs from the default model's, so it is rebuilt, not
	// retrained.
	spec := env.Opts.TrainConfig.Spec
	spec.Compress, spec.IVF = false, true
	if m, err := env.WELNC.WithIndex(spec); err == nil {
		evaluate("IVF-flat index (nprobe default)", m)
	} else {
		r.AddNote("IVF variant failed: %v", err)
	}

	r.AddNote("all variants uncompressed (flat index) so the modeling choice is isolated from quantization")
	r.AddNote("offline-only halves the epochs because the default schedule spends its second half on online-mined hard triplets")
	return r
}
