// Command benchkg generates and inspects the synthetic benchmark datasets:
// the knowledge graphs and the SemTab-style annotated table collections of
// Table I, with optional noise injection and alias substitution.
//
// Usage:
//
//	benchkg -entities 2000 -dataset st-wikidata -tables 40 [-noise 0.1] [-aliases] [-dump 2]
//
// With -bench-lookup it instead trains a small model and writes a JSON
// snapshot of the lookup hot path's timing and allocation profile:
//
//	benchkg -bench-lookup BENCH_lookup.json [-entities 2000]
//
// With -bench-serve it measures the serving substrate (internal/serve):
// C concurrent clients drive a Zipf-skewed query mix through the sharded
// index and the mention cache, and the snapshot
// records throughput, tail latency, and cache hit rate:
//
//	benchkg -bench-serve BENCH_serve.json [-entities 2000] [-clients 16]
//
// With -bench-build it measures index construction and cold start: the
// per-phase build timings (embedding, k-means, PQ training, row encoding)
// sequential vs parallel, plus loading a saved index artifact against
// rebuilding the index from weights:
//
//	benchkg -bench-build BENCH_build.json [-entities 2000]
//
// With -bench-cluster it measures the partitioned serving path
// (internal/cluster): routed lookup latency over 1/2/4 in-process nodes,
// plus a straggler scenario with and without hedged requests:
//
//	benchkg -bench-cluster BENCH_cluster.json [-entities 2000]
//
// With -bench-replica it measures the replicated control plane
// (internal/replica): tail latency under a degraded replica with
// distinct-replica hedging vs the single-replica duplicate-send, the
// latency a replica crash makes visible before failover settles, and a
// live 2→3 rebalance under concurrent traffic:
//
//	benchkg -bench-replica BENCH_replica.json [-entities 2000]
//
// With -bench-scale it measures the zero-copy v4 artifact format as the
// corpus grows: per entity count, cold attach time and resident memory (in
// a fresh subprocess), recall@1/@10 against exact flat search, lookup
// latency percentiles, and the IVF nprobe recall/latency sweep:
//
//	benchkg -bench-scale BENCH_scale.json [-scales 10000,100000,1000000]
package main

import (
	"flag"
	"fmt"
	"log"
	"os"
	"path/filepath"
	"strings"

	"emblookup/internal/kg"
	"emblookup/internal/tabular"
)

func main() {
	log.SetFlags(0)
	entities := flag.Int("entities", 2000, "entities per knowledge graph")
	dataset := flag.String("dataset", "st-wikidata", "st-wikidata|st-dbpedia|tough-tables")
	tables := flag.Int("tables", 40, "table count")
	noise := flag.Float64("noise", 0, "fraction of entity cells to corrupt")
	aliases := flag.Bool("aliases", false, "substitute cells with aliases (semantic-lookup variant)")
	dump := flag.Int("dump", 0, "print the first N tables")
	csvDir := flag.String("csv", "", "write every table as a CSV file into this directory")
	seed := flag.Uint64("seed", 42, "seed")
	benchPath := flag.String("bench-lookup", "", "train a model and write a lookup benchmark snapshot to this JSON file")
	benchServePath := flag.String("bench-serve", "", "train a model and write a serving benchmark snapshot to this JSON file")
	benchBuildPath := flag.String("bench-build", "", "train a model and write an index-construction benchmark snapshot to this JSON file")
	benchClusterPath := flag.String("bench-cluster", "", "train a model and write a cluster serving benchmark snapshot to this JSON file")
	benchReplicaPath := flag.String("bench-replica", "", "train a model and write a replicated-cluster benchmark snapshot (hedging, failover, rebalance) to this JSON file")
	benchScalePath := flag.String("bench-scale", "", "write the scaling benchmark snapshot (cold attach, RSS, recall, latency per entity count) to this JSON file")
	benchTenantPath := flag.String("bench-tenant", "", "train a model and write a multi-tenant serving benchmark snapshot (admission throttling, isolation, shed curve) to this JSON file")
	scales := flag.String("scales", "10000,100000", "comma-separated entity counts for -bench-scale")
	scaleAttach := flag.String("scale-attach", "", "internal: cold-attach the given artifact once and print a JSON probe (used by -bench-scale subprocesses)")
	clients := flag.Int("clients", 16, "concurrent clients for -bench-serve")
	flag.Parse()

	if *scaleAttach != "" {
		if err := scaleAttachMain(*scaleAttach, *entities, *seed); err != nil {
			log.Fatal(err)
		}
		return
	}
	if *benchScalePath != "" {
		if err := benchScale(*benchScalePath, *scales, *seed); err != nil {
			log.Fatal(err)
		}
		return
	}
	if *benchPath != "" {
		if err := benchLookup(*benchPath, *entities, *seed); err != nil {
			log.Fatal(err)
		}
		return
	}
	if *benchServePath != "" {
		if err := benchServe(*benchServePath, *entities, *clients, *seed); err != nil {
			log.Fatal(err)
		}
		return
	}
	if *benchBuildPath != "" {
		if err := benchBuild(*benchBuildPath, *entities, *seed); err != nil {
			log.Fatal(err)
		}
		return
	}
	if *benchClusterPath != "" {
		if err := benchCluster(*benchClusterPath, *entities, *seed); err != nil {
			log.Fatal(err)
		}
		return
	}
	if *benchReplicaPath != "" {
		if err := benchReplica(*benchReplicaPath, *entities, *seed); err != nil {
			log.Fatal(err)
		}
		return
	}
	if *benchTenantPath != "" {
		if err := benchTenant(*benchTenantPath, *entities, *clients, *seed); err != nil {
			log.Fatal(err)
		}
		return
	}

	profile := kg.WikidataProfile
	dsProfile := tabular.STWikidata
	switch *dataset {
	case "st-wikidata":
	case "st-dbpedia":
		profile, dsProfile = kg.DBPediaProfile, tabular.STDBPedia
	case "tough-tables":
		dsProfile = tabular.ToughTables
	default:
		log.Fatalf("unknown dataset %q", *dataset)
	}

	gCfg := kg.DefaultGeneratorConfig(profile, *entities)
	gCfg.Seed = *seed
	g, schema := kg.Generate(gCfg)
	fmt.Println(g.Stats())

	dCfg := tabular.DefaultDatasetConfig(dsProfile, *tables)
	dCfg.Seed = *seed + 1
	ds := tabular.GenerateDataset(g, schema, dCfg)
	if *noise > 0 {
		in := tabular.NewInjector(*seed + 2)
		in.Fraction = *noise
		ds = in.Apply(ds)
	}
	if *aliases {
		ds = tabular.SubstituteAliases(ds, *seed+3)
	}
	fmt.Printf("%s: %s\n", ds.Name, ds.ComputeStats())

	if *csvDir != "" {
		if err := os.MkdirAll(*csvDir, 0o755); err != nil {
			log.Fatalf("creating %s: %v", *csvDir, err)
		}
		for _, tb := range ds.Tables {
			f, err := os.Create(filepath.Join(*csvDir, tb.Name+".csv"))
			if err != nil {
				log.Fatalf("creating table file: %v", err)
			}
			if err := tb.WriteCSV(f); err != nil {
				f.Close()
				log.Fatalf("writing %s: %v", tb.Name, err)
			}
			if err := f.Close(); err != nil {
				log.Fatalf("closing %s: %v", tb.Name, err)
			}
		}
		fmt.Printf("wrote %d CSV tables to %s\n", len(ds.Tables), *csvDir)
	}

	for i := 0; i < *dump && i < len(ds.Tables); i++ {
		tb := ds.Tables[i]
		fmt.Printf("\n== %s (%dx%d) ==\n", tb.Name, tb.NumRows(), tb.NumCols())
		var hdr []string
		for _, c := range tb.Cols {
			hdr = append(hdr, c.Name)
		}
		fmt.Println(strings.Join(hdr, " | "))
		for r, row := range tb.Rows {
			if r >= 8 {
				fmt.Println("...")
				break
			}
			var cells []string
			for _, c := range row {
				mark := ""
				if c.IsEntity() {
					mark = fmt.Sprintf(" [%d]", c.Truth)
				}
				cells = append(cells, c.Text+mark)
			}
			fmt.Println(strings.Join(cells, " | "))
		}
	}
}
