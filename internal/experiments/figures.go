package experiments

import (
	"fmt"
	"time"

	"emblookup/internal/altembed"
	"emblookup/internal/core"
	"emblookup/internal/index"
	"emblookup/internal/kg"
	"emblookup/internal/lookup"
	"emblookup/internal/mathx"
	"emblookup/internal/quant"
	"emblookup/internal/triplet"
)

// altServices builds the Table VII contestants: EmbLookup plus the four
// alternative embedding generators over the Wikidata graph.
func (env *Env) altServices() []lookup.Service {
	seed := env.Opts.TrainConfig.Seed
	lstmCfg := altembed.DefaultLSTMConfig()
	lstmCfg.Epochs = env.Opts.TrainConfig.Epochs / 2
	if lstmCfg.Epochs < 1 {
		lstmCfg.Epochs = 1
	}
	lstmCfg.TripletsPerEntity = env.Opts.TrainConfig.TripletsPerEntity / 2
	if lstmCfg.TripletsPerEntity < 4 {
		lstmCfg.TripletsPerEntity = 4
	}
	return []lookup.Service{
		env.WELNC, // uncompressed: Table VII compares embeddings, not compression
		altembed.NewService(env.WGraph, altembed.TrainWord2Vec(env.WGraph, altembed.DefaultWord2VecConfig())),
		altembed.NewService(env.WGraph, altembed.TrainRawFastText(env.WGraph, 64, env.Opts.TrainConfig.NgramEpochs, seed+2)),
		altembed.NewService(env.WGraph, altembed.TrainBERTProxy(env.WGraph, 64, seed+3)),
		altembed.NewService(env.WGraph, altembed.TrainLSTM(env.WGraph, lstmCfg)),
	}
}

// Figure3 sweeps the triplet budget per entity and reports the F-score of
// all four tasks plus training time, reproducing the paper's Figure 3
// (accuracy creeps up with more triplets; training time grows linearly).
func (env *Env) Figure3() *Report {
	r := &Report{ID: "Figure 3", Title: "Impact of the number of triplets per entity",
		Header: []string{"Triplets/entity", "CEA-F", "CTA-F", "EA-F", "DR-F", "TrainTime"}}

	ref := env.Opts.TrainConfig.TripletsPerEntity
	budgets := []int{ref / 4, ref / 2, ref, ref * 2}
	for _, b := range budgets {
		if b < 2 {
			continue
		}
		cfg := env.Opts.TrainConfig
		cfg.TripletsPerEntity = b
		mCfg := triplet.DefaultMinerConfig()
		mCfg.PerEntity = b
		ts := triplet.Mine(env.WGraph, mCfg)
		start := time.Now()
		model, err := core.Train(env.WGraph, cfg, core.WithTriplets(ts))
		if err != nil {
			r.AddNote("budget %d failed: %v", b, err)
			continue
		}
		trainTime := time.Since(start)

		ceaRes := env.WMantis.RunCEA(env.WikidataDS, model, 0)
		ctaRes := env.WMantis.RunCTA(env.WikidataDS, model, 0)
		eaRes := env.WDoSeR.Run(env.WikidataDS, model, 0)
		drRes := env.WKatara.Run(env.WikidataDS, model, 0.10, env.Opts.NoiseSeed+7, 0)
		r.AddRow(fmt.Sprint(b),
			f2(ceaRes.F1()), f2(ctaRes.F1()), f2(eaRes.F1()), f2(drRes.F1()),
			trainTime.Round(10*time.Millisecond).String())
	}
	r.AddNote("paper reference budget is 100 triplets/entity; this run scales the sweep around %d (see EXPERIMENTS.md)", ref)
	return r
}

// Figure4 measures the recall of the compressed index against the
// uncompressed one for growing k — low at small k, recovering as k grows,
// the paper's Figure 4 shape.
func (env *Env) Figure4() *Report {
	r := &Report{ID: "Figure 4", Title: "Recall of PQ-compressed lookup vs uncompressed (ground truth)",
		Header: []string{"k", "Recall"}}

	// Query workload: the CEA cells of the clean dataset.
	var queries []string
	for _, tb := range env.WikidataDS.Tables {
		for _, row := range tb.Rows {
			for _, cell := range row {
				if cell.IsEntity() {
					queries = append(queries, cell.Text)
				}
			}
		}
	}
	if len(queries) > 400 {
		queries = queries[:400]
	}
	for _, k := range []int{1, 2, 5, 10, 20, 50, 100} {
		var hit, total int
		for _, q := range queries {
			truth := map[kg.EntityID]bool{}
			for _, c := range env.WELNC.Lookup(q, k) {
				truth[c.ID] = true
			}
			for _, c := range env.WEL.Lookup(q, k) {
				if truth[c.ID] {
					hit++
				}
				total++
			}
		}
		if total == 0 {
			continue
		}
		r.AddRow(fmt.Sprint(k), f2(float64(hit)/float64(total)))
	}
	r.AddNote("recall = overlap between compressed and uncompressed top-k, averaged over %d CEA queries", len(queries))
	return r
}

// pcaService compresses the trained embeddings with PCA instead of PQ —
// the Figure 5 alternative. Both the index rows and the query are
// projected onto the principal components.
type pcaService struct {
	name  string
	model *core.EmbLookup
	pca   *quant.PCA
	ix    *index.Flat
	rows  []kg.EntityID
}

func newPCAService(model *core.EmbLookup, g *kg.Graph, components int) *pcaService {
	labels := make([]string, len(g.Entities))
	rows := make([]kg.EntityID, len(g.Entities))
	for i := range g.Entities {
		labels[i] = g.Entities[i].Label
		rows[i] = g.Entities[i].ID
	}
	full := model.EmbeddingMatrix(labels, 0)
	pca := quant.TrainPCA(full, components)
	proj := mathx.NewMatrix(full.Rows, components)
	for i := 0; i < full.Rows; i++ {
		copy(proj.Row(i), pca.Project(full.Row(i)))
	}
	return &pcaService{
		name:  fmt.Sprintf("emblookup-pca%d", components),
		model: model, pca: pca, ix: index.NewFlat(proj), rows: rows,
	}
}

// Name implements lookup.Service.
func (s *pcaService) Name() string { return s.name }

// Lookup projects the query embedding and searches the reduced space.
func (s *pcaService) Lookup(q string, k int) []lookup.Candidate {
	res := index.Search(s.ix, s.pca.Project(s.model.Embed(q)), k)
	out := make([]lookup.Candidate, len(res))
	for i, h := range res {
		out[i] = lookup.Candidate{ID: s.rows[h.ID], Score: -float64(h.Dist)}
	}
	return out
}

// Figure5 compares PQ against PCA at equal bytes-per-entity budgets on the
// CEA and CTA tasks (bbw pipeline, as in the paper).
func (env *Env) Figure5() *Report {
	r := &Report{ID: "Figure 5", Title: "Compression schemes at equal storage: PQ vs PCA (bbw)",
		Header: []string{"Bytes/entity", "CEA-PQ", "CEA-PCA", "CTA-PQ", "CTA-PCA"}}

	for _, bytes := range []int{8, 16, 32, 64} {
		pqCfg := env.Opts.TrainConfig.PQ
		pqCfg.M = bytes // one byte per sub-quantizer
		pqModel, err := env.WEL.WithPQ(pqCfg)
		if err != nil {
			r.AddNote("PQ %d bytes failed: %v", bytes, err)
			continue
		}
		components := bytes / 4 // PCA stores float32 per component
		if components < 1 {
			components = 1
		}
		pcaModel := newPCAService(env.WELNC, env.WGraph, components)

		ceaPQ := env.WBBW.RunCEA(env.WikidataAllNoisy, pqModel, 0).F1()
		ceaPCA := env.WBBW.RunCEA(env.WikidataAllNoisy, pcaModel, 0).F1()
		ctaPQ := env.WBBW.RunCTA(env.WikidataAllNoisy, pqModel, 0).F1()
		ctaPCA := env.WBBW.RunCTA(env.WikidataAllNoisy, pcaModel, 0).F1()
		r.AddRow(fmt.Sprint(bytes), f2(ceaPQ), f2(ceaPCA), f2(ctaPQ), f2(ctaPCA))
	}
	r.AddNote("PQ: bytes = number of 1-byte sub-quantizers; PCA: bytes = 4·components; 64-dim uncompressed = 256 bytes")
	r.AddNote("measured on the fully-corrupted workload where compression quality matters most")
	return r
}
