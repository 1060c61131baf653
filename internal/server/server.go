// Package server exposes a trained EmbLookup model over HTTP — the
// deployment shape the paper positions EmbLookup for: a transparent,
// local, rate-limit-free replacement for remote lookup endpoints.
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
//	                                with WithPartition — see internal/cluster)
//	GET /debug/pprof/...          → profiling (only with WithPprof)
//
// Every lookup handler — here, on the tenant routes and on the cluster
// router's front-end — builds one request context (RequestContext: the
// client's connection, its ?deadline_ms= budget, and the trace when one was
// asked for or a slow log is configured) and calls the one LookupCtx /
// BulkLookupCtx underneath; a request whose caller hung up or whose budget
// ran out stops costing a scan and is answered 504. Those entry points pool
// their working memory per worker (see DESIGN.md "Memory discipline"), so
// concurrent requests contend only on the scratch pool. With WithServe the
// request path additionally flows through internal/serve — the sharded
// mention cache, the query coalescer, and sharded index scans — returning
// bit-identical results at higher concurrent throughput (DESIGN.md §7).
package server

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/pprof"
	"sync/atomic"
	"time"

	"emblookup/internal/core"
	"emblookup/internal/index"
	"emblookup/internal/kg"
	"emblookup/internal/lookup"
	"emblookup/internal/obs"
	"emblookup/internal/serve"
)

// Server routes lookup requests to a model. Create with New and mount via
// Handler.
type Server struct {
	graph     *kg.Graph
	model     *core.EmbLookup
	serve     *serve.Serve
	pprof     bool
	partition *PartitionInfo
	ingest    *core.Ingestor
	// epoch is the cluster-map version this node last heard from the
	// control plane; /healthz reports it so probes can tell a live node
	// with a stale view from a healthy one.
	epoch atomic.Int64

	reg          *obs.Registry
	mountMetrics bool
	slowLog      *obs.SlowLog
	// Per-route latency histograms, resolved once at construction.
	httpLookup    *obs.Histogram
	httpBulk      *obs.Histogram
	httpPartition *obs.Histogram
	// MaxK bounds the per-request candidate budget.
	MaxK int
	// MaxBulkQueries bounds how many queries one /bulk or
	// /partition/search request may carry; more is a 400, never a silent
	// truncation.
	MaxBulkQueries int
	// MaxBulkBytes bounds the /bulk request body; larger bodies are a 413.
	MaxBulkBytes int64
	// MaxPartitionBytes bounds the /partition/search body (embeddings are
	// bulkier than query strings).
	MaxPartitionBytes int64
}

// Option configures a Server at construction.
type Option func(*Server)

// WithServe routes /lookup and /bulk through the serving substrate (mention
// cache + query coalescer + sharded scans) instead of calling the model
// directly, and adds its counters to /stats.
func WithServe(sv *serve.Serve) Option {
	return func(s *Server) { s.serve = sv }
}

// WithPprof mounts net/http/pprof under /debug/pprof/ — off by default so a
// plain deployment exposes no profiling surface.
func WithPprof() Option {
	return func(s *Server) { s.pprof = true }
}

// WithMetrics directs the server's metrics into reg (nil keeps the
// process-wide obs.Default()) and mounts GET /metrics serving it in
// Prometheus text format.
func WithMetrics(reg *obs.Registry) Option {
	return func(s *Server) {
		if reg != nil {
			s.reg = reg
		}
		s.mountMetrics = true
	}
}

// WithSlowLog records requests crossing the log's threshold — with their
// trace spans, so a slow entry shows which stage dragged — and mounts
// GET /debug/slowlog.
func WithSlowLog(sl *obs.SlowLog) Option {
	return func(s *Server) { s.slowLog = sl }
}

// WithIngest mounts POST /ingest backed by in (streaming entity/alias
// ingest, DESIGN.md §13) and adds an ingest section to /stats. The graph
// now grows under live traffic, so every handler resolving entity IDs takes
// the ingestor's read lock around graph accesses.
func WithIngest(in *core.Ingestor) Option {
	return func(s *Server) { s.ingest = in }
}

// SetEpoch records the cluster-map epoch the control plane last pushed to
// this node; /healthz reports it. Safe to call concurrently with serving.
func (s *Server) SetEpoch(e int64) { s.epoch.Store(e) }

// Epoch returns the last recorded cluster-map epoch (0 when standalone).
func (s *Server) Epoch() int64 { return s.epoch.Load() }

// New builds a server over a trained model.
func New(g *kg.Graph, model *core.EmbLookup, opts ...Option) *Server {
	s := &Server{
		graph:             g,
		model:             model,
		MaxK:              1000,
		MaxBulkQueries:    4096,
		MaxBulkBytes:      1 << 20,
		MaxPartitionBytes: 64 << 20,
	}
	s.reg = obs.Default()
	for _, o := range opts {
		o(s)
	}
	s.httpLookup = s.reg.Histogram(obs.Labels("emblookup_http_request_seconds", "route", "/lookup"))
	s.httpBulk = s.reg.Histogram(obs.Labels("emblookup_http_request_seconds", "route", "/bulk"))
	s.httpPartition = s.reg.Histogram(obs.Labels("emblookup_http_request_seconds", "route", "/partition/search"))
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

// Handler returns the HTTP handler with all routes mounted.
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("GET /lookup", s.handleLookup)
	mux.HandleFunc("POST /bulk", s.handleBulk)
	mux.HandleFunc("GET /stats", s.handleStats)
	mux.HandleFunc("GET /healthz", s.handleHealthz)
	if s.partition != nil {
		mux.HandleFunc("POST /partition/search", s.handlePartitionSearch)
	}
	if s.ingest != nil {
		mux.HandleFunc("POST /ingest", s.handleIngest)
	}
	if s.mountMetrics {
		mux.Handle("GET /metrics", s.reg.Handler())
	}
	if s.slowLog != nil {
		mux.Handle("GET /debug/slowlog", s.slowLog.Handler())
	}
	if s.pprof {
		mux.HandleFunc("/debug/pprof/", pprof.Index)
		mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
		mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
		mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
		mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	}
	return mux
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

// lookupOne answers one query through the serving substrate when present.
func (s *Server) lookupOne(ctx context.Context, q string, k int) ([]lookup.Candidate, error) {
	if s.serve != nil {
		return s.serve.LookupCtx(ctx, q, k)
	}
	return s.model.LookupCtx(ctx, q, k)
}

// lookupBulk answers a query batch through the serving substrate when
// present.
func (s *Server) lookupBulk(ctx context.Context, queries []string, k int) ([][]lookup.Candidate, error) {
	if s.serve != nil {
		return s.serve.BulkLookupCtx(ctx, queries, k)
	}
	return s.model.BulkLookupCtx(ctx, queries, k, 0)
}

// ReadQueryLines reads one query per line from r, skipping blank lines and
// failing once maxQueries is exceeded — shared by the single-node /bulk
// handler and the cluster router's front-end so both enforce the same
// bound instead of silently truncating.
func ReadQueryLines(r io.Reader, maxQueries int) ([]string, error) {
	var queries []string
	sc := bufio.NewScanner(r)
	for sc.Scan() {
		if q := sc.Text(); q != "" {
			queries = append(queries, q)
		}
		if len(queries) > maxQueries {
			return nil, fmt.Errorf("query count exceeds limit %d", maxQueries)
		}
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("reading body: %w", err)
	}
	return queries, nil
}

// ReadBulkBody reads a /bulk request body of at most maxBytes through
// ReadQueryLines, for every front-end. A failure comes with the status it
// maps to: 413 for an oversized body, 400 for too many queries or an
// unreadable body.
func ReadBulkBody(w http.ResponseWriter, r *http.Request, maxBytes int64, maxQueries int) ([]string, int, error) {
	r.Body = http.MaxBytesReader(w, r.Body, maxBytes)
	queries, err := ReadQueryLines(r.Body, maxQueries)
	if err != nil {
		status, err := bodyError(err, maxBytes)
		return nil, status, err
	}
	return queries, 0, nil
}

// bodyError maps a failed bounded body read to its reply: 413 when the body
// ran past maxBytes, 400 otherwise.
func bodyError(err error, maxBytes int64) (int, error) {
	var mbe *http.MaxBytesError
	if errors.As(err, &mbe) {
		return http.StatusRequestEntityTooLarge, fmt.Errorf("request body exceeds %d bytes", maxBytes)
	}
	return http.StatusBadRequest, err
}

// Hit is one JSON result row.
type Hit struct {
	ID    int32    `json:"id"`
	Label string   `json:"label"`
	Score float64  `json:"score"`
	Types []string `json:"types,omitempty"`
}

// LookupResponse is the /lookup reply. TraceID and Trace appear when the
// request asked for tracing (?trace=1 or an X-Emblookup-Trace header): the
// per-stage spans of this lookup, cluster hops included.
type LookupResponse struct {
	Query   string           `json:"query"`
	TookUs  int64            `json:"tookUs"`
	Results []Hit            `json:"results"`
	TraceID string           `json:"traceId,omitempty"`
	Trace   []obs.SpanRecord `json:"trace,omitempty"`
}

// graphRLock/graphRUnlock guard graph reads against live ingest. Without an
// ingestor the graph is immutable and the calls are no-ops.
func (s *Server) graphRLock() {
	if s.ingest != nil {
		s.ingest.RLock()
	}
}

func (s *Server) graphRUnlock() {
	if s.ingest != nil {
		s.ingest.RUnlock()
	}
}

func (s *Server) hits(ctx context.Context, q string, k int, hybrid bool) ([]Hit, error) {
	res, err := s.lookupOne(ctx, q, k)
	if err != nil {
		return nil, err
	}
	if hybrid {
		// Re-rank the embedding top-k by exact string similarity against the
		// entity labels (DESIGN.md §15); the graph lock covers the label reads.
		s.graphRLock()
		res = serve.HybridRerank(q, res, s.graph.Label)
		s.graphRUnlock()
	}
	hits := make([]Hit, len(res))
	s.graphRLock()
	for i, c := range res {
		e := s.graph.Entity(c.ID)
		h := Hit{ID: int32(c.ID), Label: e.Label, Score: c.Score}
		for _, t := range e.Types {
			h.Types = append(h.Types, s.graph.TypeName(t))
		}
		hits[i] = h
	}
	s.graphRUnlock()
	return hits, nil
}

func (s *Server) handleLookup(w http.ResponseWriter, r *http.Request) {
	q := r.URL.Query().Get("q")
	if q == "" {
		http.Error(w, `missing "q" parameter`, http.StatusBadRequest)
		return
	}
	k, err := ParseK(r, s.MaxK)
	if err != nil {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	ctx, cancel, wantTrace, err := RequestContext(r, 0, 0, s.slowLog)
	if err != nil {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	defer cancel()
	tr := obs.FromContext(ctx)
	start := time.Now()
	hits, err := s.hits(ctx, q, k, r.URL.Query().Get("hybrid") == "1")
	if err != nil {
		// The client hung up or its budget ran out: the scan was cancelled.
		http.Error(w, "deadline exceeded", http.StatusGatewayTimeout)
		return
	}
	took := time.Since(start)
	s.httpLookup.Observe(took)
	if s.slowLog.Slow(took) {
		s.slowLog.Record(obs.SlowEntry{
			Route: "/lookup", Query: q, K: k, DurUs: took.Microseconds(),
			TraceID: tr.ID(), Spans: tr.Spans(),
		})
	}
	resp := LookupResponse{
		Query:   q,
		TookUs:  took.Microseconds(),
		Results: hits,
	}
	if wantTrace {
		resp.TraceID = tr.ID()
		resp.Trace = tr.Spans()
	}
	w.Header().Set("Content-Type", "application/json")
	json.NewEncoder(w).Encode(resp)
}

// handleBulk reads one query per line from the body and streams one JSON
// object per line back — the bulk mode the paper's applications need. The
// body is bounded by MaxBulkBytes (413 past it) and the query count by
// MaxBulkQueries (400 past it) — over-limit requests fail loudly instead of
// being silently truncated.
func (s *Server) handleBulk(w http.ResponseWriter, r *http.Request) {
	k, err := ParseK(r, s.MaxK)
	if err != nil {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	queries, status, err := ReadBulkBody(w, r, s.MaxBulkBytes, s.MaxBulkQueries)
	if err != nil {
		http.Error(w, err.Error(), status)
		return
	}
	ctx, cancel, _, err := RequestContext(r, 0, 0, s.slowLog)
	if err != nil {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	defer cancel()
	start := time.Now()
	results, err := s.lookupBulk(ctx, queries, k)
	if err != nil {
		http.Error(w, "deadline exceeded", http.StatusGatewayTimeout)
		return
	}
	took := time.Since(start)
	s.httpBulk.Observe(took)
	if s.slowLog.Slow(took) {
		tr := obs.FromContext(ctx)
		s.slowLog.Record(obs.SlowEntry{
			Route: "/bulk", Query: fmt.Sprintf("[%d queries]", len(queries)),
			K: k, DurUs: took.Microseconds(), TraceID: tr.ID(), Spans: tr.Spans(),
		})
	}
	s.graphRLock()
	hits := bulkHits(results, s.graph.Label)
	s.graphRUnlock()
	writeBulk(w, queries, results, hits)
}

// bulkHits resolves every result of a bulk request into one buffer, line
// after line — one allocation and, for a caller that guards label reads, one
// lock span per request instead of one per line.
func bulkHits(results [][]lookup.Candidate, label func(kg.EntityID) string) []Hit {
	total := 0
	for _, res := range results {
		total += len(res)
	}
	hits := make([]Hit, 0, total)
	for _, res := range results {
		for _, c := range res {
			hits = append(hits, Hit{ID: int32(c.ID), Label: label(c.ID), Score: c.Score})
		}
	}
	return hits
}

// writeBulk streams a bulk reply: one JSON object per query, each line's
// results its window of hits (bulkHits over the same results).
func writeBulk(w http.ResponseWriter, queries []string, results [][]lookup.Candidate, hits []Hit) {
	w.Header().Set("Content-Type", "application/x-ndjson")
	enc := json.NewEncoder(w)
	for i, q := range queries {
		n := len(results[i])
		enc.Encode(LookupResponse{Query: q, Results: hits[:n:n]})
		hits = hits[n:]
	}
}

// ReadIngestBody reads an /ingest request body of at most maxBytes through
// DecodeIngestItems, for the single-node handler and the cluster router's
// ingest front-end. A failure comes with the status it maps to, as in
// ReadBulkBody.
func ReadIngestBody(w http.ResponseWriter, r *http.Request, maxBytes int64, maxItems int) ([]core.IngestItem, int, error) {
	r.Body = http.MaxBytesReader(w, r.Body, maxBytes)
	body, err := io.ReadAll(r.Body)
	if err != nil {
		status, err := bodyError(err, maxBytes)
		return nil, status, err
	}
	items, err := DecodeIngestItems(body, maxItems)
	if err != nil {
		return nil, http.StatusBadRequest, err
	}
	return items, 0, nil
}

// DecodeIngestItems parses an ingest request body — one core.IngestItem or
// a JSON array of them — enforcing maxItems, so every front-end accepts the
// same wire shapes and applies the same bound.
func DecodeIngestItems(body []byte, maxItems int) ([]core.IngestItem, error) {
	var items []core.IngestItem
	var err error
	trimmed := bytes.TrimLeft(body, " \t\r\n")
	if len(trimmed) > 0 && trimmed[0] == '[' {
		err = json.Unmarshal(body, &items)
	} else {
		var one core.IngestItem
		err = json.Unmarshal(body, &one)
		items = []core.IngestItem{one}
	}
	if err != nil {
		return nil, fmt.Errorf("decoding ingest items: %v", err)
	}
	if len(items) > maxItems {
		return nil, fmt.Errorf("item count exceeds limit %d", maxItems)
	}
	return items, nil
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
	items, status, err := ReadIngestBody(w, r, s.MaxBulkBytes, s.MaxBulkQueries)
	if err != nil {
		http.Error(w, err.Error(), status)
		return
	}
	for _, it := range items {
		if err := s.ingest.Enqueue(it); err != nil {
			http.Error(w, err.Error(), http.StatusServiceUnavailable)
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

// StatsResponse is the /stats reply. Serving is present only when the
// server was built with WithServe. IndexSource tells a cold start that
// attached a saved index artifact ("loaded") from one that re-embedded the
// graph and retrained the quantizer ("rebuilt"); IndexAttachUs is how long
// that took. GraphIndexed says whether anything in this process has made the
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
	s.graphRLock()
	entities := len(s.graph.Entities)
	s.graphRUnlock()
	resp := StatsResponse{
		Graph:          s.graph.Name,
		Entities:       entities,
		GraphIndexed:   s.graph.Indexed(),
		IndexRows:      s.model.Index().Len(),
		IndexBytes:     s.model.Index().SizeBytes(),
		FastScanKernel: index.FastScanKernelOf(s.model.Index()),
		Dim:            cfg.Dim,
		Compressed:     cfg.Compress,
		IndexSource:    prov.Source,
		IndexAttachUs:  prov.Took.Microseconds(),
	}
	if resp.FastScanKernel != "" {
		counts := index.ReadFastScanCounts()
		resp.FastScanPrune = &counts
	}
	if s.serve != nil {
		st := s.serve.Stats()
		resp.Serving = &st
	}
	resp.Partition = s.partition
	if s.ingest != nil {
		st := s.ingest.Stats()
		resp.Ingest = &st
	}
	w.Header().Set("Content-Type", "application/json")
	json.NewEncoder(w).Encode(resp)
}
