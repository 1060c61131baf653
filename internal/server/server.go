// Package server exposes EmbLookup over HTTP — the deployment shape the
// paper positions EmbLookup for: a transparent, local, rate-limit-free
// replacement for remote lookup endpoints. Server is the one front-end
// type: New serves one model on the static routes, NewTenantServer the
// models of a tenant.Registry on the tenant routes.
//
//	GET /lookup?q=<query>&k=<n>   → JSON candidate list
//	GET /bulk  (POST body: one query per line) → NDJSON results
//	GET /stats                    → index, graph, and serving statistics
//	GET /healthz                  → 200 + JSON liveness report: partition
//	                                assignment, cluster-map epoch, applied
//	                                ingest count — enough for a router probe
//	                                to detect a stale assignment, not just a
//	                                dead process
//	POST /partition/search        → partition-scoped batch search (only
//	                                with WithPartition — see internal/cluster):
//	                                little-endian frames both ways for
//	                                Content-Type FrameContentType (the
//	                                router's codec), JSON for any other
//	GET /debug/pprof/...          → profiling (only with WithPprof)
//
// Every server and the cluster router answer /lookup and /bulk through one
// handler pair (NewMux), with one reply shape (LookupResponse), one error
// shape (ErrorBody) and one set of Limits; each supplies only how a request
// finds its Backend and that backend's labels (an Opener). A request runs
// under one context (RequestContext: the client's connection, its
// ?deadline_ms= budget, its trace); one whose caller hung up or whose
// budget ran out stops costing a scan and is answered 504. Every lookup of
// a Server runs through internal/serve — where configured the sharded
// mention cache and sharded index scans — which returns bit-identical
// results at higher concurrent throughput (DESIGN.md §7).
package server

import (
	"context"
	"encoding/json"
	"net/http"
	"net/http/pprof"
	"sync/atomic"
	"time"

	"emblookup/internal/core"
	"emblookup/internal/index"
	"emblookup/internal/kg"
	"emblookup/internal/obs"
	"emblookup/internal/serve"
	"emblookup/internal/tenant"
)

// Server is the HTTP front-end: one model's static routes (New) or a tenant
// registry's routes (NewTenantServer). Mount it via Handler.
type Server struct {
	Limits
	// MaxPartitionBytes bounds the /partition/search body (embeddings are
	// bulkier than query strings).
	MaxPartitionBytes int64

	graph   *kg.Graph
	model   *core.EmbLookup
	tenants *tenant.Registry // set: the tenant routes replace the static ones
	options
	// epoch is the cluster-map version this node last heard from the
	// control plane; /healthz reports it so probes can tell a live node
	// with a stale view from a healthy one.
	epoch         atomic.Int64
	httpPartition *obs.Histogram
}

// WithServe answers /lookup and /bulk through sv (mention cache + sharded
// scans over the server's model) instead of the substrate New builds by
// itself.
func WithServe(sv *serve.Serve) Option {
	return func(o *options) { o.serve = sv }
}

// WithPprof mounts net/http/pprof under /debug/pprof/ — off by default so a
// plain deployment exposes no profiling surface.
func WithPprof() Option {
	return func(o *options) { o.pprof = true }
}

// WithIngest mounts POST /ingest backed by in (streaming entity/alias
// ingest, DESIGN.md §13) and adds an ingest section to /stats. The graph
// now grows under live traffic, so every handler resolving entity IDs takes
// the ingestor's read lock around graph accesses.
func WithIngest(in *core.Ingestor) Option {
	return func(o *options) { o.ingest = in }
}

// SetEpoch records the cluster-map epoch the control plane last pushed to
// this node; /healthz reports it. Safe to call concurrently with serving.
func (s *Server) SetEpoch(e int64) { s.epoch.Store(e) }

// New builds a server over a trained model. Without WithServe its lookups
// run through a substrate of its own: unsharded, so it derives no sibling
// for a Server (which has no Close) to close, and cacheless, since cache
// memory is its caller's to size and the nodes built this way serve
// /partition/search; it answers bit-identically to the model.
func New(g *kg.Graph, model *core.EmbLookup, opts ...Option) *Server {
	s := newServer(opts)
	s.graph, s.model = g, model
	if s.serve == nil {
		s.serve, _ = serve.New(model, serve.Options{Shards: 1, CacheSize: -1, Registry: s.reg}) // one shard cannot fail
	}
	s.httpPartition = s.registry().Histogram(obs.Labels("emblookup_http_request_seconds", "route", "/partition/search"))
	return s
}

func newServer(opts []Option) *Server {
	s := &Server{Limits: DefaultLimits(), MaxPartitionBytes: 64 << 20}
	for _, o := range opts {
		o(&s.options)
	}
	return s
}

// NewHTTPServer wraps h in an http.Server with the listener timeouts a
// production deployment needs: slow-loris header reads, stalled request
// bodies, and wedged response writes all get bounded instead of pinning a
// connection forever. Every CLI serving mode (serve, cluster-node,
// cluster-route) listens through this.
func NewHTTPServer(addr string, h http.Handler) *http.Server {
	return &http.Server{
		Addr:              addr,
		Handler:           h,
		ReadHeaderTimeout: 5 * time.Second,
		ReadTimeout:       30 * time.Second,
		WriteTimeout:      60 * time.Second,
		IdleTimeout:       120 * time.Second,
	}
}

// Handler returns the HTTP handler with all routes mounted: the tenant
// routes or the static ones, beside /healthz and what the options add.
func (s *Server) Handler() http.Handler {
	var mux *http.ServeMux
	if s.tenants != nil {
		mux = s.mux("/t/{tenant}", s.openTenant)
		mux.HandleFunc("GET /t/{tenant}/stats", s.handleTenantStats)
		mux.HandleFunc("POST /t/{tenant}/reload", s.handleReload)
		mux.HandleFunc("GET /stats", s.handleTenantsStats)
	} else {
		mux = s.mux("", s.route)
		mux.HandleFunc("GET /stats", s.handleStats)
		if s.partition != nil {
			mux.HandleFunc("POST /partition/search", s.handlePartitionSearch)
		}
		if s.ingest != nil {
			mux.HandleFunc("POST /ingest", s.handleIngest)
		}
	}
	mux.HandleFunc("GET /healthz", s.handleHealthz)
	if s.pprof {
		mux.HandleFunc("/debug/pprof/", pprof.Index)
		mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
		mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
		mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
		mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	}
	return mux
}

// route answers every lookup through the server's serving substrate, with
// its graph's labels, read under the ingestor's lock while ingest grows
// the graph.
func (s *Server) route(http.ResponseWriter, *http.Request) (Route, *Error) {
	rt := Route{Backend: serveBackend{s.serve}, Labels: s.graph, Limits: s.Limits}
	if s.ingest != nil {
		rt.Lock = s.ingest
	}
	return rt, nil
}

// serveBackend answers through a serving substrate.
type serveBackend struct{ sv *serve.Serve }

func (b serveBackend) LookupCtx(ctx context.Context, q string, k int) (Answer, error) {
	res, err := b.sv.LookupCtx(ctx, q, k)
	return Answer{Candidates: res}, err
}

func (b serveBackend) BulkLookupCtx(ctx context.Context, queries []string, k int) (BulkAnswer, error) {
	res, err := b.sv.BulkLookupCtx(ctx, queries, k)
	return BulkAnswer{PerQuery: res}, err
}

// HealthzResponse is the GET /healthz reply. Beyond liveness it carries
// what a cluster probe needs to detect a *stale* node: the partition range
// this process actually serves, the cluster-map epoch it last heard, and
// how many ingest deltas it has applied. A router readmitting a node checks
// these against its own view instead of trusting any 200.
type HealthzResponse struct {
	Status        string         `json:"status"`
	Partition     *PartitionInfo `json:"partition,omitempty"`
	Epoch         int64          `json:"epoch,omitempty"`
	IngestApplied int64          `json:"ingestApplied,omitempty"`
}

func (s *Server) handleHealthz(w http.ResponseWriter, _ *http.Request) {
	resp := HealthzResponse{Status: "ok", Partition: s.partition, Epoch: s.epoch.Load()}
	if s.ingest != nil {
		resp.IngestApplied = s.ingest.Stats().Applied
	}
	w.Header().Set("Content-Type", "application/json")
	json.NewEncoder(w).Encode(resp)
}

// IngestResponse is the POST /ingest reply.
type IngestResponse struct {
	Enqueued int               `json:"enqueued"`
	Stats    *core.IngestStats `json:"stats,omitempty"`
}

// handleIngest accepts one IngestItem or a JSON array of them, enqueues
// everything, and replies 202 — ingest is asynchronous by design. With
// ?flush=1 it waits until the batch is applied and replies 200 with the
// ingestor's counters, which is how a client gets read-your-writes.
func (s *Server) handleIngest(w http.ResponseWriter, r *http.Request) {
	items, e := ReadIngestBody(w, r, s.Limits)
	if e != nil {
		WriteError(w, r, e)
		return
	}
	for _, it := range items {
		if err := s.ingest.Enqueue(it); err != nil {
			WriteError(w, r, NewError(http.StatusServiceUnavailable, "ingest_unavailable", err.Error()))
			return
		}
	}
	resp := IngestResponse{Enqueued: len(items)}
	w.Header().Set("Content-Type", "application/json")
	if r.URL.Query().Get("flush") == "1" {
		s.ingest.Flush()
		st := s.ingest.Stats()
		resp.Stats = &st
	} else {
		w.WriteHeader(http.StatusAccepted)
	}
	json.NewEncoder(w).Encode(resp)
}

// StatsResponse is the /stats reply. Serving is the server's substrate:
// the one WithServe passed, or its own one-shard, cacheless one.
// IndexSource tells a cold start that attached a saved index artifact
// ("loaded") from one that re-embedded the graph and retrained the
// quantizer ("rebuilt"); IndexAttachUs is how long that took. GraphIndexed says whether anything in this process has made the
// graph derive its mention or adjacency index (kg.Graph.Indexed) — serving
// never does, so true means something else in the process paid for one.
// FastScanKernel is present only for a fast-scan index: the
// kernel its scans run on in this process ("avx2" or "portable") — a node on
// the portable kernel scans several times slower, and this is where that
// shows from the outside — and FastScanPrune beside it, the process-wide
// prune accounting of those scans (index.FastScanCounts; the
// emblookup_fastscan_*_total counters of /metrics): candidates and flagged
// blocks per scan say how well the integer prune is doing on this data.
type StatsResponse struct {
	Graph          string                `json:"graph"`
	Entities       int                   `json:"entities"`
	GraphIndexed   bool                  `json:"graphIndexed"`
	IndexRows      int                   `json:"indexRows"`
	IndexBytes     int                   `json:"indexBytes"`
	FastScanKernel string                `json:"fastScanKernel,omitempty"`
	FastScanPrune  *index.FastScanCounts `json:"fastScanPrune,omitempty"`
	Dim            int                   `json:"dim"`
	Compressed     bool                  `json:"compressed"`
	IndexSource    string                `json:"indexSource,omitempty"`
	IndexAttachUs  int64                 `json:"indexAttachUs,omitempty"`
	Serving        *serve.Stats          `json:"serving,omitempty"`
	Partition      *PartitionInfo        `json:"partition,omitempty"`
	Ingest         *core.IngestStats     `json:"ingest,omitempty"`
}

func (s *Server) handleStats(w http.ResponseWriter, _ *http.Request) {
	cfg := s.model.Config()
	prov := s.model.IndexProvenance()
	resp := StatsResponse{
		Graph:          s.graph.Name,
		GraphIndexed:   s.graph.Indexed(),
		IndexRows:      s.model.Index().Len(),
		IndexBytes:     s.model.Index().SizeBytes(),
		FastScanKernel: index.FastScanKernelOf(s.model.Index()),
		Dim:            cfg.Dim,
		Compressed:     cfg.Compress,
		IndexSource:    prov.Source,
		IndexAttachUs:  prov.Took.Microseconds(),
		Partition:      s.partition,
	}
	if resp.FastScanKernel != "" {
		counts := index.ReadFastScanCounts()
		resp.FastScanPrune = &counts
	}
	sv := s.serve.Stats()
	resp.Serving = &sv
	if s.ingest != nil {
		st := s.ingest.Stats()
		resp.Ingest = &st
		s.ingest.RLock() // the graph grows under ingest
		resp.Entities = len(s.graph.Entities)
		s.ingest.RUnlock()
	} else {
		resp.Entities = len(s.graph.Entities)
	}
	w.Header().Set("Content-Type", "application/json")
	json.NewEncoder(w).Encode(resp)
}
