// SemTab-style annotation: generate a noisy benchmark dataset, annotate its
// cells (CEA) and columns (CTA) with a MantisTable-style pipeline, and
// compare the original ElasticSearch lookup against EmbLookup — the
// experiment at the heart of the paper, end to end.
//
//	go run ./examples/semtab
package main

import (
	"fmt"
	"log"

	"emblookup/internal/core"
	"emblookup/internal/index"
	"emblookup/internal/kg"
	"emblookup/internal/lookup"
	"emblookup/internal/systems"
	"emblookup/internal/tabular"
)

func main() {
	log.SetFlags(0)

	// Benchmark setup: a knowledge graph and a SemTab-style table
	// collection with 10% of cells corrupted by typos.
	g, schema := kg.Generate(kg.DefaultGeneratorConfig(kg.WikidataProfile, 1500))
	ds := tabular.GenerateDataset(g, schema, tabular.DefaultDatasetConfig(tabular.STWikidata, 40))
	noisy := tabular.NewInjector(7).Apply(ds)
	log.Printf("dataset: %s", noisy.ComputeStats())

	// The annotation system under test (MantisTable-style: ElasticSearch
	// lookup + column-coherence ranking).
	sys := systems.NewMantisTable(g)

	// EmbLookup, trained on the same graph.
	model, err := core.Train(g, core.FastConfig())
	if err != nil {
		log.Fatal(err)
	}

	run := func(name string, svc lookup.Service) {
		cea := sys.RunCEA(noisy, svc, 1)
		cta := sys.RunCTA(noisy, svc, 1)
		fmt.Printf("%-22s CEA F=%.2f  CTA F=%.2f  lookup=%v (%d calls)\n",
			name, cea.F1(), cta.F1(), cea.LookupTime.Round(1e6), cea.LookupCalls)
	}
	fmt.Println("\nMantisTable pipeline, noisy ST-Wikidata:")
	run("original (Elastic)", sys.Original)
	run("EmbLookup (PQ)", model)

	nc, err := model.WithIndex(index.Spec{}) // exact flat search
	if err != nil {
		log.Fatal(err)
	}
	run("EmbLookup (no PQ)", nc)

	fmt.Printf("\nindex payload: EmbLookup PQ %d B vs raw embeddings %d B (%.0fx smaller)\n",
		model.Index().SizeBytes(), nc.Index().SizeBytes(),
		float64(nc.Index().SizeBytes())/float64(model.Index().SizeBytes()))
}
