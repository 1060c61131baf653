package main

import (
	"context"
	"flag"
	"log"
	"strings"
	"time"

	"emblookup/internal/cluster"
	"emblookup/internal/core"
	"emblookup/internal/kg"
	"emblookup/internal/obs"
	"emblookup/internal/replica"
	"emblookup/internal/server"
)

// newSlowLog builds the serving commands' slow-query log from the
// -slowlog-ms flag (0 or negative disables it).
func newSlowLog(ms int) *obs.SlowLog {
	if ms <= 0 {
		return nil
	}
	return obs.NewSlowLog(time.Duration(ms)*time.Millisecond, 0)
}

// obsOptions attaches a serving command's /metrics (-metrics) and slow log
// (-slowlog-ms; nil for none) to its front-end.
func obsOptions(metricsOn bool, sl *obs.SlowLog) []server.Option {
	opts := []server.Option{server.WithSlowLog(sl)}
	if metricsOn {
		opts = append(opts, server.WithMetrics(nil))
	}
	return opts
}

// cmdClusterPart splits a trained model into P partition artifacts, each a
// full model file whose index covers only that partition's rows (written via
// the PR-3 index-artifact path, so node cold starts stay IO-bound), plus a
// manifest recording the row bounds.
func cmdClusterPart(args []string) {
	fs := flag.NewFlagSet("cluster-part", flag.ExitOnError)
	graphPath := fs.String("graph", "graph.bin", "graph file")
	modelPath := fs.String("model", "model.bin", "model file")
	dir := fs.String("out", "cluster", "output directory for node artifacts + manifest")
	p := fs.Int("p", 2, "partition count")
	fs.Parse(args)

	_, model := loadModel(*graphPath, *modelPath)
	start := time.Now()
	man, err := cluster.SavePartitions(*dir, model, *p)
	if err != nil {
		log.Fatalf("partitioning: %v", err)
	}
	log.Printf("wrote %d partitions of %d rows to %s in %v",
		man.Partitions, man.TotalRows, *dir, time.Since(start).Round(time.Millisecond))
	for i := 0; i < man.Partitions; i++ {
		log.Printf("  node %d: rows [%d, %d)", i, man.Bounds[i], man.Bounds[i+1])
	}
}

// cmdClusterNode serves one partition: it loads only its slice of the index
// and exposes the standard single-node API plus the partition-scoped batch
// endpoint the router scatters to.
func cmdClusterNode(args []string) {
	fs := flag.NewFlagSet("cluster-node", flag.ExitOnError)
	graphPath := fs.String("graph", "graph.bin", "graph file")
	dir := fs.String("dir", "cluster", "partition directory from `emblookup cluster-part`")
	part := fs.Int("part", 0, "partition id to serve")
	addr := fs.String("addr", ":8081", "listen address")
	metricsOn := fs.Bool("metrics", true, "record metrics and expose them at GET /metrics (false disables all recording)")
	slowMs := fs.Int("slowlog-ms", 100, "log queries slower than this many ms at GET /debug/slowlog (0 disables)")
	fs.Parse(args)

	g, err := kg.LoadFile(*graphPath)
	if err != nil {
		log.Fatalf("loading graph: %v", err)
	}
	model, man, err := cluster.LoadNodeModel(*dir, *part, g)
	if err != nil {
		log.Fatalf("loading partition model: %v", err)
	}
	info := server.PartitionInfo{
		ID:    *part,
		Count: man.Partitions,
		RowLo: man.Bounds[*part],
		RowHi: man.Bounds[*part+1],
	}
	obs.Default().SetEnabled(*metricsOn)
	opts := append(obsOptions(*metricsOn, newSlowLog(*slowMs)), server.WithPartition(info))
	h := server.New(g, model, opts...).Handler()
	log.Printf("serving partition %d/%d (rows [%d, %d)) on %s",
		info.ID, info.Count, info.RowLo, info.RowHi, *addr)
	log.Fatal(server.NewHTTPServer(*addr, h).ListenAndServe())
}

// cmdClusterRoute runs the coordinator: it embeds each query once locally
// and scatter-gathers exact top-k over the partition nodes, with hedged
// requests and failure-aware degradation. With -nodes the assignment is
// static (one replica per partition, fixed for the process lifetime); with
// -map-url the router fetches the versioned cluster map from a replica
// coordinator and keeps polling it, following epoch bumps — replica sets,
// rolling restarts, and rebalances — live.
func cmdClusterRoute(args []string) {
	fs := flag.NewFlagSet("cluster-route", flag.ExitOnError)
	graphPath := fs.String("graph", "graph.bin", "graph file")
	modelPath := fs.String("model", "model.bin", "model file (embedder weights; index unused)")
	nodes := fs.String("nodes", "", "comma-separated node base URLs in partition order (static single-replica assignment)")
	mapURL := fs.String("map-url", "", "coordinator map endpoint (e.g. http://coord:9090/cluster/map); polled for epoch bumps")
	poll := fs.Duration("poll", 0, "map poll interval with -map-url (0 = default 1s)")
	addr := fs.String("addr", ":8080", "listen address")
	timeout := fs.Duration("timeout", 0, "per-request node timeout (0 = default 2s)")
	hedgeAfter := fs.Duration("hedge-after", 0, "hedge a straggling node request after this delay (0 = default 50ms, negative disables)")
	metricsOn := fs.Bool("metrics", true, "record metrics and expose them at GET /metrics (false disables all recording)")
	slowMs := fs.Int("slowlog-ms", 100, "log routed queries slower than this many ms at GET /debug/slowlog (0 disables)")
	fs.Parse(args)

	if (*nodes == "") == (*mapURL == "") {
		log.Fatal("cluster-route: exactly one of -nodes or -map-url is required")
	}
	_, model := loadModel(*graphPath, *modelPath)
	obs.Default().SetEnabled(*metricsOn)
	ropts := cluster.RouterOptions{
		Timeout:    *timeout,
		HedgeAfter: *hedgeAfter,
	}
	var rt *cluster.Router
	var err error
	if *mapURL != "" {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		m, err := replica.FetchMap(ctx, nil, *mapURL)
		cancel()
		if err != nil {
			log.Fatalf("fetching cluster map: %v", err)
		}
		rt, err = cluster.NewRouterWithMap(model, m, ropts)
		if err != nil {
			log.Fatalf("router: %v", err)
		}
		poller := replica.StartPoller(rt, *mapURL, *poll)
		defer poller.Close()
		interval := *poll
		if interval <= 0 {
			interval = time.Second
		}
		log.Printf("cluster map epoch %d from %s (polling every %v)", m.Epoch, *mapURL, interval)
	} else {
		urls := strings.Split(*nodes, ",")
		rt, err = cluster.NewRouter(model, urls, ropts)
		if err != nil {
			log.Fatalf("router: %v", err)
		}
	}
	defer rt.Close()
	log.Printf("routing over %d partitions on %s", rt.Partitions(), *addr)
	log.Fatal(server.NewHTTPServer(*addr, rt.Handler(obsOptions(*metricsOn, newSlowLog(*slowMs))...)).ListenAndServe())
}

// serveCluster is `emblookup serve -cluster N`: an in-process demo cluster —
// N partition nodes on loopback listeners plus the router serving the public
// address. Same code path as a real multi-machine deployment, minus the
// machines. With -replicas R > 1 it runs the replicated control plane
// instead: R replicas per partition, a coordinator gossiping the versioned
// cluster map, and routed ingest fanning to the owning partition's
// replicas.
func serveCluster(g *kg.Graph, model *core.EmbLookup, addr string, n, replicas int, metricsOn bool, sl *obs.SlowLog) {
	if replicas > 1 {
		c, err := replica.Start(model, n, replica.Options{Replicas: replicas})
		if err != nil {
			log.Fatalf("starting in-process replicated cluster: %v", err)
		}
		defer c.Close()
		for p := 0; p < n; p++ {
			for j := 0; j < replicas; j++ {
				log.Printf("  node %d/%d: rows [%d, %d) at %s",
					p, j, c.Manifest.Bounds[p], c.Manifest.Bounds[p+1], c.NodeURL(p, j))
			}
		}
		log.Printf("cluster map at %s (epoch %d)", c.MapURL, c.Coord.Epoch())
		log.Printf("routing over %d in-process partitions x %d replicas on %s (graph: %s, %d entities)",
			n, replicas, addr, g.Name, len(g.Entities))
		log.Fatal(server.NewHTTPServer(addr, c.Router.Handler(obsOptions(metricsOn, sl)...)).ListenAndServe())
	}
	l, err := cluster.StartLocal(model, n, cluster.LocalOptions{})
	if err != nil {
		log.Fatalf("starting in-process cluster: %v", err)
	}
	defer l.Close()
	for i, u := range l.URLs {
		log.Printf("  node %d: rows [%d, %d) at %s",
			i, l.Manifest.Bounds[i], l.Manifest.Bounds[i+1], u)
	}
	log.Printf("routing over %d in-process partitions on %s (graph: %s, %d entities)",
		n, addr, g.Name, len(g.Entities))
	log.Fatal(server.NewHTTPServer(addr, l.Router.Handler(obsOptions(metricsOn, sl)...)).ListenAndServe())
}
