package experiments

import (
	"fmt"
	"runtime"

	"emblookup/internal/core"
	"emblookup/internal/index"
	"emblookup/internal/kg"
	"emblookup/internal/systems"
	"emblookup/internal/tabular"
)

// Options scales the experiment environment. The paper's datasets (109K
// tables over 90M-entity Wikidata) are far beyond a laptop-scale pure-Go
// reproduction; these options size everything down while keeping the
// relative proportions of Table I.
type Options struct {
	// Entities per synthetic knowledge graph.
	Entities int
	// Tables per benchmark dataset.
	WikidataTables, DBPediaTables, ToughTableCount int
	// TrainConfig configures EmbLookup training (architecture follows the
	// paper regardless; this mostly scales epochs/triplets).
	TrainConfig core.Config
	// AliasVariants is the number of alias-substituted dataset variants
	// averaged in Table VI (the paper uses 5).
	AliasVariants int
	// NoiseSeed drives the 10% error injection.
	NoiseSeed uint64
	// SimulatedGPUParallelism is the data-parallel width of the simulated
	// GPU for the "GPU" columns. Batched lookup genuinely parallelizes
	// across cores; when the host has fewer cores than this width, the
	// remaining factor is applied on a virtual clock (documented per
	// table). 0 disables the simulation (GPU = whatever the cores give).
	SimulatedGPUParallelism int
	// Logf receives progress lines.
	Logf func(format string, args ...any)
}

// gpuScale returns the virtual-clock divisor for GPU-mode measurements:
// the simulated device width not already realized by physical cores.
func (o Options) gpuScale() float64 {
	if o.SimulatedGPUParallelism <= 0 {
		return 1
	}
	cores := runtime.GOMAXPROCS(0)
	if cores >= o.SimulatedGPUParallelism {
		return 1
	}
	return float64(o.SimulatedGPUParallelism) / float64(cores)
}

// TestOptions is the tiny scale used by unit tests and the bench harness.
func TestOptions() Options {
	cfg := core.FastConfig()
	cfg.Epochs = 6
	cfg.TripletsPerEntity = 16
	cfg.NgramEpochs = 25
	return Options{
		Entities:                400,
		WikidataTables:          24,
		DBPediaTables:           12,
		ToughTableCount:         3,
		TrainConfig:             cfg,
		AliasVariants:           2,
		NoiseSeed:               99,
		SimulatedGPUParallelism: 8,
		Logf:                    func(string, ...any) {},
	}
}

// DefaultOptions is the laptop scale used by cmd/experiments.
func DefaultOptions() Options {
	cfg := core.FastConfig()
	return Options{
		Entities:                2000,
		WikidataTables:          80,
		DBPediaTables:           40,
		ToughTableCount:         6,
		TrainConfig:             cfg,
		AliasVariants:           5,
		NoiseSeed:               99,
		SimulatedGPUParallelism: 8,
		Logf:                    func(string, ...any) {},
	}
}

// Env holds everything the experiment drivers share: the two knowledge
// graphs, the three benchmark datasets (plus noisy variants), the trained
// EmbLookup models (compressed and not), and the five downstream systems.
type Env struct {
	Opts Options

	WGraph  *kg.Graph
	WSchema *kg.Schema
	DGraph  *kg.Graph
	DSchema *kg.Schema

	WikidataDS, DBPediaDS, ToughDS *tabular.Dataset
	WikidataNoisy, DBPediaNoisy    *tabular.Dataset
	// WikidataAllNoisy corrupts every entity cell — the stress workload
	// the embedding ablations (Tables VII/VIII) use for their error
	// column, where the paper's 10% corruption leaves too little signal at
	// reproduction scale.
	WikidataAllNoisy *tabular.Dataset

	// EL / ELNC are the compressed / uncompressed EmbLookup services per
	// graph (shared trained weights).
	WEL, WELNC *core.EmbLookup
	DEL, DELNC *core.EmbLookup

	// Annotation systems per graph.
	WBBW, WMantis, WJenTab *systems.System
	DBBW, DMantis, DJenTab *systems.System
	WDoSeR                 *systems.DoSeR
	DDoSeR                 *systems.DoSeR
	WKatara                *systems.Katara
	DKatara                *systems.Katara
}

// NewEnv generates the graphs and datasets and trains the models. This is
// the expensive, one-time setup every driver shares.
func NewEnv(o Options) (*Env, error) {
	if o.Logf == nil {
		o.Logf = func(string, ...any) {}
	}
	env := &Env{Opts: o}

	o.Logf("experiments: generating knowledge graphs (%d entities each)", o.Entities)
	env.WGraph, env.WSchema = kg.Generate(kg.DefaultGeneratorConfig(kg.WikidataProfile, o.Entities))
	env.DGraph, env.DSchema = kg.Generate(kg.DefaultGeneratorConfig(kg.DBPediaProfile, o.Entities))

	env.WikidataDS = tabular.GenerateDataset(env.WGraph, env.WSchema, tabular.DefaultDatasetConfig(tabular.STWikidata, o.WikidataTables))
	env.DBPediaDS = tabular.GenerateDataset(env.DGraph, env.DSchema, tabular.DefaultDatasetConfig(tabular.STDBPedia, o.DBPediaTables))
	env.ToughDS = tabular.GenerateDataset(env.WGraph, env.WSchema, tabular.DefaultDatasetConfig(tabular.ToughTables, o.ToughTableCount))
	// Tough Tables ships with heavy noise baked in.
	env.ToughDS = (&tabular.Injector{Fraction: 0.30, Seed: o.NoiseSeed + 1}).Apply(env.ToughDS)
	env.ToughDS.Name = "ToughTables"

	inj := tabular.NewInjector(o.NoiseSeed)
	env.WikidataNoisy = inj.Apply(env.WikidataDS)
	env.DBPediaNoisy = inj.Apply(env.DBPediaDS)
	allNoise := tabular.NewInjector(o.NoiseSeed + 2)
	allNoise.Fraction = 1
	env.WikidataAllNoisy = allNoise.Apply(env.WikidataDS)

	o.Logf("experiments: training EmbLookup on %s", env.WGraph.Name)
	var err error
	env.WEL, err = core.Train(env.WGraph, o.TrainConfig)
	if err != nil {
		return nil, fmt.Errorf("training wikidata model: %w", err)
	}
	// The zero spec is the exact flat index: EL-NC, EL without compression.
	env.WELNC, err = env.WEL.WithIndex(index.Spec{})
	if err != nil {
		return nil, err
	}
	o.Logf("experiments: training EmbLookup on %s", env.DGraph.Name)
	env.DEL, err = core.Train(env.DGraph, o.TrainConfig)
	if err != nil {
		return nil, fmt.Errorf("training dbpedia model: %w", err)
	}
	env.DELNC, err = env.DEL.WithIndex(index.Spec{})
	if err != nil {
		return nil, err
	}

	env.WBBW = systems.NewBBW(env.WGraph)
	env.WMantis = systems.NewMantisTable(env.WGraph)
	env.WJenTab = systems.NewJenTab(env.WGraph)
	env.DBBW = systems.NewBBW(env.DGraph)
	env.DMantis = systems.NewMantisTable(env.DGraph)
	env.DJenTab = systems.NewJenTab(env.DGraph)
	env.WDoSeR = systems.NewDoSeR(env.WGraph)
	env.DDoSeR = systems.NewDoSeR(env.DGraph)
	env.WKatara = systems.NewKatara(env.WGraph)
	env.DKatara = systems.NewKatara(env.DGraph)
	return env, nil
}

// Run dispatches an experiment by id ("table1".."table8", "figure3"..
// "figure5").
func (env *Env) Run(id string) (*Report, error) {
	switch id {
	case "table1":
		return env.TableI(), nil
	case "table2":
		return env.TableII(), nil
	case "table3":
		return env.TableIII(), nil
	case "table4":
		return env.TableIV(), nil
	case "table5":
		return env.TableV(), nil
	case "table6":
		return env.TableVI(), nil
	case "table7":
		return env.TableVII(), nil
	case "table8":
		return env.TableVIII(), nil
	case "figure3":
		return env.Figure3(), nil
	case "figure4":
		return env.Figure4(), nil
	case "figure5":
		return env.Figure5(), nil
	case "ablations":
		return env.Ablations(), nil
	case "kgembed":
		return env.KGEmbedDemo(), nil
	}
	return nil, fmt.Errorf("experiments: unknown experiment %q (want one of %v)", id, AllIDs())
}

// AllIDs lists every regenerable table and figure.
func AllIDs() []string {
	return []string{"table1", "table2", "table3", "table4", "table5", "table6", "table7", "table8", "figure3", "figure4", "figure5", "ablations", "kgembed"}
}
