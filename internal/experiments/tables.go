package experiments

import (
	"fmt"
	"time"

	"emblookup/internal/baselines"
	"emblookup/internal/core"
	"emblookup/internal/kg"
	"emblookup/internal/lookup"
	"emblookup/internal/metrics"
	"emblookup/internal/remote"
	"emblookup/internal/systems"
	"emblookup/internal/tabular"
	"emblookup/internal/tasks"
)

// TableI reports the statistics of the generated benchmark datasets, in
// the shape of the paper's Table I.
func (env *Env) TableI() *Report {
	r := &Report{ID: "Table I", Title: "Statistics of the tabular datasets",
		Header: []string{"", "ST-Wikidata", "ST-DBPedia", "ToughTables"}}
	w := env.WikidataDS.ComputeStats()
	d := env.DBPediaDS.ComputeStats()
	tt := env.ToughDS.ComputeStats()
	r.AddRow("#Tables", fmt.Sprint(w.Tables), fmt.Sprint(d.Tables), fmt.Sprint(tt.Tables))
	r.AddRow("Avg #Rows", fmt.Sprintf("%.1f", w.AvgRows), fmt.Sprintf("%.1f", d.AvgRows), fmt.Sprintf("%.1f", tt.AvgRows))
	r.AddRow("Avg #Cols", fmt.Sprintf("%.1f", w.AvgCols), fmt.Sprintf("%.1f", d.AvgCols), fmt.Sprintf("%.1f", tt.AvgCols))
	r.AddRow("#Cells to annotate", fmt.Sprint(w.CellsToLabel), fmt.Sprint(d.CellsToLabel), fmt.Sprint(tt.CellsToLabel))
	r.AddNote("paper scale: 109K/14K/180 tables over full Wikidata/DBPedia; this run is scaled to %d entities (see EXPERIMENTS.md)", env.Opts.Entities)
	return r
}

// taskRun abstracts one (system, task) row: it runs the task with a given
// lookup service and parallelism and reports F-score and instrumented
// lookup time.
type taskRun struct {
	task, system string
	run          func(svc lookup.Service, parallelism int) (float64, time.Duration)
}

// systemRows builds the 8 rows of Tables II/III/IV/VI for one graph's
// dataset.
func (env *Env) systemRows(ds *tabular.Dataset, bbw, mantis, jentab *systems.System, doser *systems.DoSeR, katara *systems.Katara) []taskRun {
	cea := func(sys *systems.System) func(lookup.Service, int) (float64, time.Duration) {
		return func(svc lookup.Service, par int) (float64, time.Duration) {
			res := sys.RunCEA(ds, svc, par)
			return res.F1(), res.LookupTime
		}
	}
	cta := func(sys *systems.System) func(lookup.Service, int) (float64, time.Duration) {
		return func(svc lookup.Service, par int) (float64, time.Duration) {
			res := sys.RunCTA(ds, svc, par)
			return res.F1(), res.LookupTime
		}
	}
	return []taskRun{
		{"CEA", "bbw", cea(bbw)},
		{"CEA", "MantisTable", cea(mantis)},
		{"CEA", "JenTab", cea(jentab)},
		{"CTA", "bbw", cta(bbw)},
		{"CTA", "MantisTable", cta(mantis)},
		{"CTA", "JenTab", cta(jentab)},
		{"EA", "DoSeR", func(svc lookup.Service, par int) (float64, time.Duration) {
			res := doser.Run(ds, svc, par)
			return res.F1(), res.LookupTime
		}},
		{"DR", "Katara", func(svc lookup.Service, par int) (float64, time.Duration) {
			res := katara.Run(ds, svc, 0.10, env.Opts.NoiseSeed+7, par)
			return res.F1(), res.LookupTime
		}},
	}
}

func (env *Env) wikidataRows(ds *tabular.Dataset) []taskRun {
	return env.systemRows(ds, env.WBBW, env.WMantis, env.WJenTab, env.WDoSeR, env.WKatara)
}

func (env *Env) dbpediaRows(ds *tabular.Dataset) []taskRun {
	return env.systemRows(ds, env.DBBW, env.DMantis, env.DJenTab, env.DDoSeR, env.DKatara)
}

// speedupTable is the engine of Tables II and III: for each system×task it
// measures the original lookup service and both EmbLookup variants in
// sequential ("CPU") and all-core-batch ("GPU", see DESIGN.md) modes.
func (env *Env) speedupTable(id, title string, rows []taskRun,
	originals []lookup.Service, el, elnc *core.EmbLookup) *Report {

	r := &Report{ID: id, Title: title, Header: []string{
		"Task", "System",
		"SpCPU-EL", "SpCPU-ELNC", "SpGPU-EL", "SpGPU-ELNC",
		"F-Orig", "F-EL", "F-ELNC"}}
	scale := env.Opts.gpuScale()
	for i, row := range rows {
		fOrig, tOrig := row.run(originals[i], 1)
		fEL, tELCPU := row.run(el, 1)
		_, tELGPU := row.run(el, 0)
		fELNC, tELNCCPU := row.run(elnc, 1)
		_, tELNCGPU := row.run(elnc, 0)
		tELGPU = time.Duration(float64(tELGPU) / scale)
		tELNCGPU = time.Duration(float64(tELNCGPU) / scale)
		r.AddRow(row.task, row.system,
			metrics.FormatSpeedup(metrics.Speedup(tOrig, tELCPU)),
			metrics.FormatSpeedup(metrics.Speedup(tOrig, tELNCCPU)),
			metrics.FormatSpeedup(metrics.Speedup(tOrig, tELGPU)),
			metrics.FormatSpeedup(metrics.Speedup(tOrig, tELNCGPU)),
			f2(fOrig), f2(fEL), f2(fELNC))
	}
	r.AddNote("GPU columns = batched lookup across cores, scaled by the simulated %d-way device width (factor %.0f on this host; DESIGN.md §1)",
		env.Opts.SimulatedGPUParallelism, scale)
	r.AddNote("remote originals (bbw/JenTab stages) charge simulated network latency on a virtual clock")
	return r
}

func (env *Env) wikidataOriginals() []lookup.Service {
	return []lookup.Service{
		env.WBBW.Original, env.WMantis.Original, env.WJenTab.Original,
		env.WBBW.Original, env.WMantis.Original, env.WJenTab.Original,
		env.WDoSeR.Original, env.WKatara.Original,
	}
}

func (env *Env) dbpediaOriginals() []lookup.Service {
	return []lookup.Service{
		env.DBBW.Original, env.DMantis.Original, env.DJenTab.Original,
		env.DBBW.Original, env.DMantis.Original, env.DJenTab.Original,
		env.DDoSeR.Original, env.DKatara.Original,
	}
}

// TableII measures speedup and accuracy on the clean ST-Wikidata dataset.
func (env *Env) TableII() *Report {
	return env.speedupTable("Table II", "EmbLookup accelerating lookups, ST-Wikidata (no error)",
		env.wikidataRows(env.WikidataDS), env.wikidataOriginals(), env.WEL, env.WELNC)
}

// TableIII measures speedup and accuracy on the clean ST-DBPedia dataset.
func (env *Env) TableIII() *Report {
	return env.speedupTable("Table III", "EmbLookup accelerating lookups, ST-DBPedia (no error)",
		env.dbpediaRows(env.DBPediaDS), env.dbpediaOriginals(), env.DEL, env.DELNC)
}

// TableIV compares F-scores under noise: the 10%-corrupted variants of
// ST-Wikidata and ST-DBPedia plus the inherently noisy Tough Tables.
func (env *Env) TableIV() *Report {
	r := &Report{ID: "Table IV", Title: "F-scores on noisy tabular datasets (original lookup vs EmbLookup)",
		Header: []string{"Task", "System",
			"Wiki-Orig", "Wiki-EL", "DBP-Orig", "DBP-EL", "Tough-Orig", "Tough-EL"}}

	wRows := env.wikidataRows(env.WikidataNoisy)
	dRows := env.dbpediaRows(env.DBPediaNoisy)
	tRows := env.wikidataRows(env.ToughDS)
	wOrig := env.wikidataOriginals()
	dOrig := env.dbpediaOriginals()
	for i := range wRows {
		fwo, _ := wRows[i].run(wOrig[i], 1)
		fwe, _ := wRows[i].run(env.WEL, 0)
		fdo, _ := dRows[i].run(dOrig[i], 1)
		fde, _ := dRows[i].run(env.DEL, 0)
		fto, _ := tRows[i].run(wOrig[i], 1)
		fte, _ := tRows[i].run(env.WEL, 0)
		r.AddRow(wRows[i].task, wRows[i].system, f2(fwo), f2(fwe), f2(fdo), f2(fde), f2(fto), f2(fte))
	}
	r.AddNote("10%% of entity cells corrupted (drop/insert/transpose letters, token swap, abbreviation); ToughTables is 30%% corrupted + ambiguity-heavy")
	return r
}

// TableV is the head-to-head comparison against the eight lookup services
// on the CEA query workload (top-10 retrieval).
func (env *Env) TableV() *Report {
	r := &Report{ID: "Table V", Title: "EmbLookup vs popular lookup services (ST-Wikidata, CEA top-10)",
		Header: []string{"Approach", "SpCPU", "SpGPU", "F(no err)", "F(err)"}}

	// Query workloads: every entity cell of the clean and noisy datasets.
	var clean, noisy []string
	var truths []kg.EntityID
	for ti, tb := range env.WikidataDS.Tables {
		for ri, row := range tb.Rows {
			for ci, cell := range row {
				if !cell.IsEntity() {
					continue
				}
				clean = append(clean, cell.Text)
				noisy = append(noisy, env.WikidataNoisy.Tables[ti].Rows[ri][ci].Text)
				truths = append(truths, cell.Truth)
			}
		}
	}
	const k = 10
	success := func(svc lookup.Service, queries []string, par int) (float64, time.Duration) {
		res, elapsed := lookup.Timed(svc, queries, k, par)
		var conf metrics.Confusion
		for i, cands := range res {
			hit := false
			for _, c := range cands {
				if c.ID == truths[i] {
					hit = true
					break
				}
			}
			conf.Record(len(cands) > 0, hit)
		}
		return conf.F1(), elapsed
	}

	labels := lookup.CorpusFromGraph(env.WGraph, false)
	full := lookup.CorpusFromGraph(env.WGraph, true)
	// The three syntactic operations run inside the ElasticSearch engine,
	// as in the paper ("optimized implementations of these operations in
	// Elastic Search").
	services := []lookup.Service{
		baselines.NewFuzzyWuzzy(labels),
		baselines.NewElastic(labels),
		baselines.NewLSH(labels),
		baselines.NewElasticExact(labels),
		baselines.NewElasticQGram(labels),
		baselines.NewElasticLevenshtein(labels),
		remote.New("wikidata-api", baselines.NewExact(full), remote.WikidataAPIConfig()),
		remote.New("searx-api", baselines.NewFuzzyWuzzy(full), remote.SearXConfig()),
	}

	fELClean, tELCPU := success(env.WEL, clean, 1)
	fELErr, _ := success(env.WEL, noisy, 1)
	_, tELGPU := success(env.WEL, clean, 0)
	tELGPU = time.Duration(float64(tELGPU) / env.Opts.gpuScale())
	for _, svc := range services {
		fClean, tSvc := success(svc, clean, 1)
		fErr, _ := success(svc, noisy, 1)
		r.AddRow(svc.Name(),
			metrics.FormatSpeedup(metrics.Speedup(tSvc, tELCPU)),
			metrics.FormatSpeedup(metrics.Speedup(tSvc, tELGPU)),
			f2(fClean), f2(fErr))
	}
	r.AddRow("emblookup", "1.0x", metrics.FormatSpeedup(metrics.Speedup(tELCPU, tELGPU)), f2(fELClean), f2(fELErr))
	r.AddNote("speedups are relative to EmbLookup (compressed); %d queries, k=%d", len(clean), k)
	r.AddNote("local services index labels only (the paper's setup); remote services know the full alias set but pay rate-limited network latency")
	return r
}

// TableVI evaluates semantic lookup: entity cells replaced by randomly
// chosen aliases, averaged over several substitution variants.
func (env *Env) TableVI() *Report {
	r := &Report{ID: "Table VI", Title: "Semantic lookup: cells replaced by aliases (mean F over variants)",
		Header: []string{"Task", "System",
			"Wiki-Orig", "Wiki-EL", "Wiki-EL+A", "DBP-Orig", "DBP-EL", "Tough-Orig", "Tough-EL"}}

	variants := env.Opts.AliasVariants
	if variants <= 0 {
		variants = 2
	}
	welA, err := env.WEL.WithAliasRows()
	if err != nil {
		r.AddNote("alias-row index failed: %v", err)
		welA = env.WEL
	}
	type acc struct{ wo, we, wa, do, de, to, te float64 }
	var sums []acc

	for v := 0; v < variants; v++ {
		seed := env.Opts.NoiseSeed + uint64(100+v)
		wDS := tabular.SubstituteAliases(env.WikidataDS, seed)
		dDS := tabular.SubstituteAliases(env.DBPediaDS, seed)
		tDS := tabular.SubstituteAliases(env.ToughDS, seed)
		wRows := env.wikidataRows(wDS)
		dRows := env.dbpediaRows(dDS)
		tRows := env.wikidataRows(tDS)
		wOrig := env.wikidataOriginals()
		dOrig := env.dbpediaOriginals()
		if sums == nil {
			sums = make([]acc, len(wRows))
		}
		for i := range wRows {
			fwo, _ := wRows[i].run(wOrig[i], 1)
			fwe, _ := wRows[i].run(env.WEL, 0)
			fwa, _ := wRows[i].run(welA, 0)
			fdo, _ := dRows[i].run(dOrig[i], 1)
			fde, _ := dRows[i].run(env.DEL, 0)
			fto, _ := tRows[i].run(wOrig[i], 1)
			fte, _ := tRows[i].run(env.WEL, 0)
			sums[i].wo += fwo
			sums[i].we += fwe
			sums[i].wa += fwa
			sums[i].do += fdo
			sums[i].de += fde
			sums[i].to += fto
			sums[i].te += fte
		}
	}
	rows := env.wikidataRows(env.WikidataDS)
	n := float64(variants)
	for i := range sums {
		r.AddRow(rows[i].task, rows[i].system,
			f2(sums[i].wo/n), f2(sums[i].we/n), f2(sums[i].wa/n),
			f2(sums[i].do/n), f2(sums[i].de/n),
			f2(sums[i].to/n), f2(sums[i].te/n))
	}
	r.AddNote("%d alias-substitution variants averaged (paper: 5); local original services index labels only, so aliases miss", variants)
	r.AddNote("EL resolves aliases through the learned embedding without storing them; EL+A additionally embeds alias rows (the Section III-C storage/accuracy option) — EXPERIMENTS.md discusses where this run diverges from the paper")
	return r
}

// TableVII compares embedding generators on the CEA workload.
func (env *Env) TableVII() *Report {
	r := &Report{ID: "Table VII", Title: "Varying the embedding generation algorithm (CEA)",
		Header: []string{"Embedding", "F(no err)", "F(err)"}}

	cea := func(svc lookup.Service, ds *tabular.Dataset) float64 {
		cfg := tasks.DefaultCEAConfig()
		cfg.Parallelism = 0
		return tasks.CEA(ds, svc, tasks.TopCandidate, cfg).F1()
	}
	for _, svc := range env.altServices() {
		r.AddRow(svc.Name(), f2(cea(svc, env.WikidataDS)), f2(cea(svc, env.WikidataAllNoisy)))
	}
	r.AddNote("word2vec/fastText/BERT rows are the substitutions documented in DESIGN.md §1 (no pre-trained checkpoints offline); each reproduces its baseline's failure mode")
	r.AddNote("error column corrupts every entity cell (the paper corrupts 10%%; at reproduction scale that leaves too little signal to rank the algorithms)")
	return r
}

// TableVIII sweeps the embedding dimension with compression disabled.
func (env *Env) TableVIII() *Report {
	r := &Report{ID: "Table VIII", Title: "Varying the embedding dimension (no compression)",
		Header: []string{"Dimension", "F(no err)", "F(err)"}}
	cea := func(svc lookup.Service, ds *tabular.Dataset) float64 {
		cfg := tasks.DefaultCEAConfig()
		cfg.Parallelism = 0
		return tasks.CEA(ds, svc, tasks.TopCandidate, cfg).F1()
	}
	for _, dim := range []int{32, 64, 128, 256} {
		cfg := env.Opts.TrainConfig
		cfg.Dim = dim
		cfg.Compress = false
		cfg.Seed = cfg.Seed + uint64(dim)
		model, err := core.Train(env.WGraph, cfg)
		if err != nil {
			r.AddNote("dim %d failed: %v", dim, err)
			continue
		}
		label := fmt.Sprint(dim)
		if dim == 64 {
			label += " (default)"
		}
		r.AddRow(label, f2(cea(model, env.WikidataDS)), f2(cea(model, env.WikidataAllNoisy)))
	}
	r.AddNote("error column corrupts every entity cell (see Table VII note)")
	return r
}
