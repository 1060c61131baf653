// Command emblookup is the end-to-end CLI for the library: generate a
// synthetic knowledge graph, train an EmbLookup model over it, and run
// lookups against the trained index.
//
// Usage:
//
//	emblookup gen   -entities 2000 -profile wikidata -out graph.bin
//	emblookup train -graph graph.bin -out model.bin [-epochs 6] [-dim 64] [-save-index=false]
//	emblookup query -graph graph.bin -model model.bin -k 10 "Germany" "Germoney" ...
//	emblookup bulk  -graph graph.bin -model model.bin -in queries.txt -k 10
//	emblookup serve -graph graph.bin -model model.bin -addr :8080
//	emblookup stats -graph graph.bin
//
// Model files written with the index artifact (the train default) make cold
// starts IO-bound: load attaches the saved index instead of re-embedding
// the graph and retraining the quantizer. `emblookup index` manages the
// artifact after the fact:
//
//	emblookup index save -graph graph.bin -model model.bin -out model.bin
//	emblookup index load -graph graph.bin -model model.bin
//
// Cluster serving (DESIGN.md §9) splits the index across partition nodes and
// scatter-gathers exact top-k through a router; `serve -cluster N` runs the
// whole thing in one process for a local demo:
//
//	emblookup serve -graph graph.bin -model model.bin -cluster 4
//	emblookup cluster-part  -graph graph.bin -model model.bin -out cluster/ -p 4
//	emblookup cluster-node  -graph graph.bin -dir cluster/ -part 0 -addr :8081
//	emblookup cluster-route -graph graph.bin -model model.bin -nodes http://localhost:8081,... -addr :8080
//
// Replicated serving (DESIGN.md §14) adds replica sets, a versioned cluster
// map, and routed ingest; `serve -cluster P -replicas R` runs it in-process,
// and a router can follow a coordinator's map live via -map-url:
//
//	emblookup serve -graph graph.bin -model model.bin -cluster 2 -replicas 2
//	emblookup cluster-route -graph graph.bin -model model.bin -map-url http://coord:9090/cluster/map -addr :8080
package main

import (
	"bufio"
	"flag"
	"fmt"
	"log"
	"os"
	"strings"
	"time"

	"emblookup/internal/core"
	"emblookup/internal/index"
	"emblookup/internal/kg"
	"emblookup/internal/obs"
	"emblookup/internal/serve"
	"emblookup/internal/server"
)

func main() {
	log.SetFlags(0)
	if len(os.Args) < 2 {
		usage()
	}
	switch os.Args[1] {
	case "gen":
		cmdGen(os.Args[2:])
	case "train":
		cmdTrain(os.Args[2:])
	case "query":
		cmdQuery(os.Args[2:])
	case "serve":
		cmdServe(os.Args[2:])
	case "bulk":
		cmdBulk(os.Args[2:])
	case "stats":
		cmdStats(os.Args[2:])
	case "index":
		cmdIndex(os.Args[2:])
	case "cluster-part":
		cmdClusterPart(os.Args[2:])
	case "cluster-node":
		cmdClusterNode(os.Args[2:])
	case "cluster-route":
		cmdClusterRoute(os.Args[2:])
	default:
		usage()
	}
}

func usage() {
	fmt.Fprintln(os.Stderr, "usage: emblookup <gen|train|query|bulk|serve|stats|index|cluster-part|cluster-node|cluster-route> [flags]")
	os.Exit(2)
}

// cmdIndex manages the index artifact of a saved model.
//
//	index save  — load a model (rebuilding its index if the file has no
//	              artifact) and rewrite it with the index embedded
//	index load  — load a model and report where its index came from and how
//	              long the attach took, without serving anything
func cmdIndex(args []string) {
	if len(args) < 1 {
		log.Fatal("usage: emblookup index <save|load> [flags]")
	}
	sub, args := args[0], args[1:]
	fs := flag.NewFlagSet("index "+sub, flag.ExitOnError)
	graphPath := fs.String("graph", "graph.bin", "graph file")
	modelPath := fs.String("model", "model.bin", "model file")
	out := fs.String("out", "", "output path for `index save` (default: overwrite -model)")
	fs.Parse(args)

	g, err := kg.LoadFile(*graphPath)
	if err != nil {
		log.Fatalf("loading graph: %v", err)
	}
	start := time.Now()
	model, err := core.LoadFile(*modelPath, g)
	if err != nil {
		log.Fatalf("loading model: %v", err)
	}
	prov := model.IndexProvenance()
	log.Printf("index %s in %v (%d rows, %d payload bytes%s; model load %v total)",
		prov.Source, prov.Took.Round(time.Microsecond), model.Index().Len(),
		model.Index().SizeBytes(), kernelNote(model.Index()), time.Since(start).Round(time.Millisecond))

	switch sub {
	case "load":
		// The report above is the whole job.
	case "save":
		path := *out
		if path == "" {
			path = *modelPath
		}
		if err := model.SaveFileWithIndex(path); err != nil {
			log.Fatalf("saving model with index: %v", err)
		}
		log.Printf("wrote %s with index artifact", path)
	default:
		log.Fatalf("unknown subcommand %q (want save or load)", sub)
	}
}

// kernelNote names the fast-scan kernel behind ix for a log line, and says
// nothing for an index that runs none.
func kernelNote(ix index.Index) string {
	if k := index.FastScanKernelOf(ix); k != "" {
		return ", fast-scan kernel " + k
	}
	return ""
}

// cmdBulk runs the bulk-lookup mode the paper optimizes for: one query per
// input line (stdin or -in), tab-separated results on stdout, batched
// across all cores.
func cmdBulk(args []string) {
	fs := flag.NewFlagSet("bulk", flag.ExitOnError)
	graphPath := fs.String("graph", "graph.bin", "graph file")
	modelPath := fs.String("model", "model.bin", "model file")
	inPath := fs.String("in", "-", "query file, one query per line ('-' = stdin)")
	k := fs.Int("k", 10, "results per query")
	parallelism := fs.Int("parallel", 0, "worker count (0 = all cores)")
	fs.Parse(args)

	g, err := kg.LoadFile(*graphPath)
	if err != nil {
		log.Fatalf("loading graph: %v", err)
	}
	model, err := core.LoadFile(*modelPath, g)
	if err != nil {
		log.Fatalf("loading model: %v", err)
	}

	in := os.Stdin
	if *inPath != "-" {
		f, err := os.Open(*inPath)
		if err != nil {
			log.Fatalf("opening queries: %v", err)
		}
		defer f.Close()
		in = f
	}
	var queries []string
	sc := bufio.NewScanner(in)
	for sc.Scan() {
		if q := strings.TrimSpace(sc.Text()); q != "" {
			queries = append(queries, q)
		}
	}
	if err := sc.Err(); err != nil {
		log.Fatalf("reading queries: %v", err)
	}

	start := time.Now()
	results := model.BulkLookup(queries, *k, *parallelism)
	elapsed := time.Since(start)

	w := bufio.NewWriter(os.Stdout)
	defer w.Flush()
	for i, q := range queries {
		fmt.Fprintf(w, "%s", q)
		for _, c := range results[i] {
			fmt.Fprintf(w, "\t%s(%d)", g.Label(c.ID), c.ID)
		}
		fmt.Fprintln(w)
	}
	log.Printf("%d queries in %v (%v/query)", len(queries),
		elapsed.Round(time.Millisecond), (elapsed / time.Duration(max(1, len(queries)))).Round(time.Microsecond))
}

func max(a, b int) int {
	if a > b {
		return a
	}
	return b
}

// cmdServe exposes the lookup service over HTTP:
//
//	GET /lookup?q=Germoney&k=10
//
// responds with a JSON candidate list. This is the "transparent
// replacement for remote lookup services" deployment shape from the paper.
// Requests flow through the serving substrate (internal/serve): sharded
// index scans, query coalescing, and a sharded mention cache — each tunable
// or disableable via flags, all returning bit-identical results to direct
// model lookups.
func cmdServe(args []string) {
	fs := flag.NewFlagSet("serve", flag.ExitOnError)
	graphPath := fs.String("graph", "graph.bin", "graph file")
	modelPath := fs.String("model", "model.bin", "model file")
	addr := fs.String("addr", ":8080", "listen address")
	shards := fs.Int("shards", 0, "index scan shards (0 = by index kind and size, 1 = unsharded)")
	batch := fs.Int("batch", 0, "coalescer max batch size (0 = default 32, negative disables coalescing)")
	cacheSize := fs.Int("cache-size", 0, "mention cache entries (0 = default 4096, negative disables the cache)")
	pprofOn := fs.Bool("pprof", false, "expose net/http/pprof under /debug/pprof/")
	clusterN := fs.Int("cluster", 0, "run an in-process demo cluster with N partition nodes behind a router")
	replicasN := fs.Int("replicas", 1, "replicas per partition with -cluster (R > 1 runs the replicated control plane: coordinator, versioned map, routed ingest)")
	metricsOn := fs.Bool("metrics", true, "record metrics and expose them at GET /metrics (false disables all recording)")
	slowMs := fs.Int("slowlog-ms", 100, "log queries slower than this many ms at GET /debug/slowlog (0 disables)")
	dynamic := fs.Bool("dynamic", false, "live ingest mode: mutable index + POST /ingest (bypasses the serving substrate, whose caches assume an immutable index)")
	ingestQueue := fs.Int("ingest-queue", 256, "ingest queue depth in -dynamic mode (Enqueue blocks when full)")
	tenantsConf := fs.String("tenants", "", "multi-tenant mode: JSON config of named tenants served under /t/{tenant}/ (ignores -graph/-model)")
	fs.Parse(args)

	if *tenantsConf != "" {
		obs.Default().SetEnabled(*metricsOn)
		serveTenants(*tenantsConf, *addr, *metricsOn, newSlowLog(*slowMs))
		return
	}

	g, err := kg.LoadFile(*graphPath)
	if err != nil {
		log.Fatalf("loading graph: %v", err)
	}
	model, err := core.LoadFile(*modelPath, g)
	if err != nil {
		log.Fatalf("loading model: %v", err)
	}
	prov := model.IndexProvenance()
	log.Printf("index %s in %v (also under /stats)", prov.Source, prov.Took.Round(time.Microsecond))
	obs.Default().SetEnabled(*metricsOn)
	sl := newSlowLog(*slowMs)
	if *clusterN > 0 {
		serveCluster(g, model, *addr, *clusterN, *replicasN, *metricsOn, sl)
		return
	}
	var opts []server.Option
	if *dynamic {
		// Live ingest: the mention cache and fixed shard ranges of the
		// serving substrate assume an immutable index, so dynamic mode
		// serves straight from the model (which is still concurrency-safe
		// and allocation-disciplined) and mounts POST /ingest.
		model = model.WithDynamicIndex(0)
		ing, err := model.NewIngestor(*ingestQueue)
		if err != nil {
			log.Fatalf("starting ingest: %v", err)
		}
		defer ing.Close()
		opts = append(opts, server.WithIngest(ing))
		log.Printf("dynamic mode: POST /ingest mounted (queue %d), serving substrate bypassed", *ingestQueue)
	} else {
		sv, err := serve.New(model, serve.Options{
			Shards:    *shards,
			MaxBatch:  *batch,
			CacheSize: *cacheSize,
		})
		if err != nil {
			log.Fatalf("serving substrate: %v", err)
		}
		defer sv.Close()
		opts = append(opts, server.WithServe(sv))
		log.Printf("serving substrate: %d scan shards%s", sv.Stats().Shards, kernelNote(model.Index()))
	}
	if *pprofOn {
		opts = append(opts, server.WithPprof())
		log.Printf("pprof enabled at /debug/pprof/")
	}
	if *metricsOn {
		opts = append(opts, server.WithMetrics(nil))
	}
	if sl != nil {
		opts = append(opts, server.WithSlowLog(sl))
	}
	log.Printf("serving lookups on %s (graph: %s, %d entities)", *addr, g.Name, len(g.Entities))
	log.Fatal(server.NewHTTPServer(*addr, server.New(g, model, opts...).Handler()).ListenAndServe())
}

func cmdGen(args []string) {
	fs := flag.NewFlagSet("gen", flag.ExitOnError)
	entities := fs.Int("entities", 2000, "entity count")
	profile := fs.String("profile", "wikidata", "wikidata|dbpedia")
	seed := fs.Uint64("seed", 42, "generator seed")
	out := fs.String("out", "graph.bin", "output path")
	fs.Parse(args)

	p := kg.WikidataProfile
	if *profile == "dbpedia" {
		p = kg.DBPediaProfile
	}
	cfg := kg.DefaultGeneratorConfig(p, *entities)
	cfg.Seed = *seed
	g, _ := kg.Generate(cfg)
	if err := g.SaveFile(*out); err != nil {
		log.Fatalf("saving graph: %v", err)
	}
	log.Printf("wrote %s: %s", *out, g.Stats())
}

func cmdTrain(args []string) {
	fs := flag.NewFlagSet("train", flag.ExitOnError)
	graphPath := fs.String("graph", "graph.bin", "graph file from `emblookup gen`")
	out := fs.String("out", "model.bin", "output model path")
	dim := fs.Int("dim", 64, "embedding dimension")
	epochs := fs.Int("epochs", 6, "training epochs (half offline, half online-mined)")
	triplets := fs.Int("triplets", 20, "triplets mined per entity")
	compress := fs.Bool("compress", true, "product-quantize the index")
	fastScan := fs.Bool("fastscan", false, "build the compressed index as the 4-bit fast-scan variant (requires -compress)")
	saveIndex := fs.Bool("save-index", true, "embed the built index in the model file (IO-bound cold starts)")
	paper := fs.Bool("paper", false, "use the full paper configuration (100 epochs, 100 triplets/entity)")
	workers := fs.Int("workers", 0, "training/indexing worker count (0 = GOMAXPROCS)")
	hogwild := fs.Bool("hogwild", false, "lock-free parallel SGD for both training phases (faster on multi-core, non-deterministic)")
	fs.Parse(args)

	g, err := kg.LoadFile(*graphPath)
	if err != nil {
		log.Fatalf("loading graph: %v", err)
	}
	cfg := core.FastConfig()
	if *paper {
		cfg = core.DefaultConfig()
	}
	cfg.Dim = *dim
	if !*paper {
		cfg.Epochs = *epochs
		cfg.TripletsPerEntity = *triplets
	}
	cfg.Compress = *compress
	cfg.FastScan = *fastScan
	cfg.Workers = *workers
	cfg.Hogwild = *hogwild

	start := time.Now()
	var stats core.TrainStats
	model, err := core.Train(g, cfg, core.WithLogf(log.Printf), core.WithTrainStats(&stats))
	if err != nil {
		log.Fatalf("training: %v", err)
	}
	mode := "deterministic"
	if cfg.Hogwild {
		mode = "hogwild"
	}
	log.Printf("trained in %v (%s: semantic %v, combiner %v); index %d rows, %d payload bytes",
		time.Since(start).Round(time.Millisecond), mode,
		stats.SemanticDur.Round(time.Millisecond), stats.CombinerDur.Round(time.Millisecond),
		model.Index().Len(), model.Index().SizeBytes())
	if *saveIndex {
		err = model.SaveFileWithIndex(*out)
	} else {
		err = model.SaveFile(*out)
	}
	if err != nil {
		log.Fatalf("saving model: %v", err)
	}
	if *saveIndex {
		log.Printf("wrote %s (with index artifact)", *out)
	} else {
		log.Printf("wrote %s (weights only, index rebuilt on load)", *out)
	}
}

func cmdQuery(args []string) {
	fs := flag.NewFlagSet("query", flag.ExitOnError)
	graphPath := fs.String("graph", "graph.bin", "graph file")
	modelPath := fs.String("model", "model.bin", "model file from `emblookup train`")
	k := fs.Int("k", 10, "results per query")
	fs.Parse(args)
	queries := fs.Args()
	if len(queries) == 0 {
		log.Fatal("query: provide at least one query string")
	}

	g, err := kg.LoadFile(*graphPath)
	if err != nil {
		log.Fatalf("loading graph: %v", err)
	}
	model, err := core.LoadFile(*modelPath, g)
	if err != nil {
		log.Fatalf("loading model: %v", err)
	}
	for _, q := range queries {
		start := time.Now()
		res := model.Lookup(q, *k)
		elapsed := time.Since(start)
		fmt.Printf("%q (%v):\n", q, elapsed.Round(time.Microsecond))
		for i, c := range res {
			e := g.Entity(c.ID)
			types := ""
			for _, t := range e.Types {
				types += " " + g.TypeName(t)
			}
			fmt.Printf("  %2d. %-32s score=%.3f types:%s\n", i+1, e.Label, c.Score, types)
		}
	}
}

func cmdStats(args []string) {
	fs := flag.NewFlagSet("stats", flag.ExitOnError)
	graphPath := fs.String("graph", "graph.bin", "graph file")
	fs.Parse(args)
	g, err := kg.LoadFile(*graphPath)
	if err != nil {
		log.Fatalf("loading graph: %v", err)
	}
	fmt.Println(g.Stats())
}
