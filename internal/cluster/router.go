package cluster

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"emblookup/internal/core"
	"emblookup/internal/kg"
	"emblookup/internal/lookup"
	"emblookup/internal/obs"
	"emblookup/internal/server"
)

// RouterOptions tunes the coordinator's request discipline. The zero value
// picks sensible defaults for a LAN deployment.
type RouterOptions struct {
	// Timeout bounds one attempt against one node (default 2s).
	Timeout time.Duration
	// Retry is the per-partition retry/backoff policy (default 3 attempts,
	// 10ms base backoff). With replicas, each retry attempt is steered to a
	// different replica of the set.
	Retry RetryPolicy
	// HedgeAfter races a duplicate request against a node that has not
	// answered within this delay — the tail-latency insurance of
	// partitioned fan-outs, where the slowest partition gates every query.
	// With replicas the duplicate goes to a *distinct* replica (default
	// 50ms; negative disables hedging).
	HedgeAfter time.Duration
	// FailThreshold consecutive failed requests mark a node unhealthy
	// (default 3); an unhealthy node is skipped — responses turn partial
	// only when every replica of a partition is down — until a health probe
	// passes.
	FailThreshold int
	// ProbeInterval is how often unhealthy nodes are probed for recovery
	// (default 1s).
	ProbeInterval time.Duration
	// ProbeTimeout bounds one /healthz probe (default 500ms).
	ProbeTimeout time.Duration
	// Parallelism bounds the router's local embedding fan-out
	// (≤0 = GOMAXPROCS).
	Parallelism int
	// Registry receives the router's metrics — routed-lookup latency,
	// per-partition counters and latency, health gauges (nil =
	// obs.Default()).
	Registry *obs.Registry
}

func (o *RouterOptions) fill() {
	if o.Timeout <= 0 {
		o.Timeout = 2 * time.Second
	}
	if o.Retry.Attempts == 0 {
		o.Retry = DefaultRetryPolicy()
	}
	if o.HedgeAfter == 0 {
		o.HedgeAfter = 50 * time.Millisecond
	}
	if o.FailThreshold <= 0 {
		o.FailThreshold = 3
	}
	if o.ProbeInterval <= 0 {
		o.ProbeInterval = time.Second
	}
	if o.ProbeTimeout <= 0 {
		o.ProbeTimeout = 500 * time.Millisecond
	}
}

// ErrStaleEpoch marks an ApplyMap rejected because the router already
// serves that epoch or a newer one — expected when gossip and direct
// application race; callers treat it as "already there", not a failure.
var ErrStaleEpoch = errors.New("stale map epoch")

// routerView is one epoch's immutable routing state. Lookups pin the view
// they started on (acquireView), so a map change drains in-flight queries
// on the old assignment before the control plane may tear its nodes down —
// the zero-dropped-queries half of the rolling-restart contract.
type routerView struct {
	epoch int64
	m     Map
	parts []*replicaSet

	inflight atomic.Int64
	retired  atomic.Bool
}

// Router is the cluster coordinator: it embeds each query once locally
// (it holds the full model weights; nodes hold only index slices),
// scatter-gathers the partition-scoped search over every partition's
// replica set, and merges per-partition hits under the canonical
// (Dist, Row) order — so a P-partition cluster returns bit-identical
// candidates to the single-process sharded index at any replica count.
// Replica selection per attempt combines the health state machine with an
// EWMA latency score; hedged duplicates race distinct replicas. When a
// whole replica set is missing the merge still returns the surviving
// partitions' exact results, flagged Partial.
//
// The partition→replica assignment is a versioned Map: ApplyMap installs a
// newer epoch atomically and drains queries still on the old one. Routed
// ingest (POST /ingest, Ingest) forwards deltas to the owning partition's
// primary and fans them to its replicas. Safe for concurrent use; Close
// stops the health prober.
type Router struct {
	model *core.EmbLookup
	opts  RouterOptions
	// MaxK bounds the per-request candidate budget of the HTTP front-end.
	MaxK int
	// Metrics, when set, is mounted as GET /metrics on the Handler —
	// normally the same registry the router records into.
	Metrics *obs.Registry
	// SlowLog, when set, records routed lookups that cross its threshold
	// (with the full cross-node span timeline) and is mounted as
	// GET /debug/slowlog.
	SlowLog *obs.SlowLog

	view atomic.Pointer[routerView]

	// mapMu serializes ApplyMap; clients persists nodeClients across
	// epochs keyed by URL, so health state and latency EWMAs survive a map
	// change and a readmitted URL keeps its history.
	mapMu   sync.Mutex
	clients map[string]*nodeClient

	// Routed-ingest state: the mutex orders batches (and lets a control
	// plane exclude ingest during a cutover via WithIngestLock), the log
	// replays deltas onto restarted or rebalanced replicas, and graphMu
	// guards the router's own graph copy, which grows so /lookup can
	// resolve ingested entity labels.
	ingestMu    sync.Mutex
	ingestLog   []core.IngestItem
	ingestCount atomic.Int64
	graphMu     sync.RWMutex

	reg              *obs.Registry
	partials         atomic.Int64
	deadlineExceeded atomic.Int64 // queries lost to a spent caller deadline
	latency          *obs.Histogram // end-to-end routed lookup latency
	mapSwaps         *obs.Counter
	ingestRouted     *obs.Counter
	ingestFanFail    *obs.Counter

	stop     chan struct{}
	stopOnce sync.Once
	wg       sync.WaitGroup
}

// NewRouter builds a coordinator over the given node base URLs, one per
// partition in partition order — the unreplicated compatibility shape,
// equivalent to NewRouterWithMap(model, SingleMap(nodeURLs), opts). model
// must be the full (unpartitioned) trained model the nodes were partitioned
// from. The background health prober starts immediately; call Close to
// stop it.
func NewRouter(model *core.EmbLookup, nodeURLs []string, opts RouterOptions) (*Router, error) {
	if len(nodeURLs) == 0 {
		return nil, fmt.Errorf("cluster: router needs at least one node URL")
	}
	return NewRouterWithMap(model, SingleMap(nodeURLs), opts)
}

// NewRouterWithMap builds a coordinator serving the given cluster map —
// the replicated entry point. Later maps arrive through ApplyMap.
func NewRouterWithMap(model *core.EmbLookup, m Map, opts RouterOptions) (*Router, error) {
	opts.fill()
	r := &Router{
		model:   model,
		opts:    opts,
		MaxK:    1000,
		clients: make(map[string]*nodeClient),
		stop:    make(chan struct{}),
	}
	reg := opts.Registry
	if reg == nil {
		reg = obs.Default()
	}
	r.reg = reg
	r.latency = reg.Histogram("emblookup_cluster_lookup_seconds")
	r.mapSwaps = reg.Counter("emblookup_cluster_map_transitions_total")
	r.ingestRouted = reg.Counter("emblookup_cluster_ingest_routed_total")
	r.ingestFanFail = reg.Counter("emblookup_cluster_ingest_fanout_failures_total")
	reg.CounterFunc("emblookup_cluster_partial_responses_total", func() float64 {
		return float64(r.partials.Load())
	})
	reg.CounterFunc("emblookup_cluster_deadline_exceeded_total", func() float64 {
		return float64(r.deadlineExceeded.Load())
	})
	reg.GaugeFunc("emblookup_cluster_healthy_nodes", func() float64 {
		n := 0
		for _, c := range r.viewClients() {
			if c.healthy() {
				n++
			}
		}
		return float64(n)
	})
	reg.GaugeFunc("emblookup_cluster_map_epoch", func() float64 {
		return float64(r.Epoch())
	})
	if err := r.ApplyMap(m); err != nil {
		return nil, err
	}
	r.wg.Add(1)
	go r.probeLoop()
	return r, nil
}

// ApplyMap installs a newer cluster map: the routing view swaps atomically,
// new queries land on the new assignment immediately, and the call returns
// only after every query still running on the old assignment has finished —
// at which point the control plane may stop nodes the new map dropped.
// Node clients are reused across epochs by URL, so health state and latency
// history survive. Maps at or below the current epoch are rejected.
func (r *Router) ApplyMap(m Map) error {
	if err := m.Validate(); err != nil {
		return err
	}
	m = m.Clone()
	r.mapMu.Lock()
	old := r.view.Load()
	if old != nil && m.Epoch <= old.epoch {
		r.mapMu.Unlock()
		return fmt.Errorf("cluster: map epoch %d is not newer than the current %d: %w", m.Epoch, old.epoch, ErrStaleEpoch)
	}
	nv := &routerView{epoch: m.Epoch, m: m}
	for p, urls := range m.Replicas {
		rs := &replicaSet{partition: p}
		for j, u := range urls {
			c := r.clients[u]
			if c == nil {
				c = newNodeClient(p, j, u, r.opts.FailThreshold)
				c.observe(r.reg)
				r.clients[u] = c
			}
			rs.replicas = append(rs.replicas, c)
		}
		nv.parts = append(nv.parts, rs)
	}
	r.view.Store(nv)
	r.mapMu.Unlock()
	if old != nil {
		// Drain: queries pin their view, so when the old view's refcount
		// reaches zero nothing references the old assignment anymore.
		old.retired.Store(true)
		for old.inflight.Load() > 0 {
			time.Sleep(200 * time.Microsecond)
		}
		r.mapSwaps.Inc()
	}
	return nil
}

// acquireView pins the current view for one request. The retry loop closes
// the race with a concurrent ApplyMap: if the view retired between load and
// pin, the pin is released and the new view is taken instead — so the drain
// in ApplyMap can never miss a request.
func (r *Router) acquireView() *routerView {
	for {
		v := r.view.Load()
		v.inflight.Add(1)
		if !v.retired.Load() {
			return v
		}
		v.inflight.Add(-1)
	}
}

func (v *routerView) release() { v.inflight.Add(-1) }

// viewClients returns the distinct node clients of the current view in
// partition-major, replica-minor order (URLs are unique per map, so no
// dedupe is needed).
func (r *Router) viewClients() []*nodeClient {
	v := r.view.Load()
	if v == nil {
		return nil
	}
	var out []*nodeClient
	for _, rs := range v.parts {
		out = append(out, rs.replicas...)
	}
	return out
}

// Epoch returns the epoch of the map currently being served.
func (r *Router) Epoch() int64 {
	if v := r.view.Load(); v != nil {
		return v.epoch
	}
	return 0
}

// Map returns a copy of the cluster map currently being served.
func (r *Router) Map() Map {
	if v := r.view.Load(); v != nil {
		return v.m.Clone()
	}
	return Map{}
}

// probeLoop periodically re-probes unhealthy nodes so a recovered node
// rejoins the scatter without waiting for traffic to be risked on it. The
// probe checks the node's /healthz *report*, not just its status code: a
// node must claim the partition the view assigns it and have applied the
// routed ingest watermark before it is readmitted.
func (r *Router) probeLoop() {
	defer r.wg.Done()
	t := time.NewTicker(r.opts.ProbeInterval)
	defer t.Stop()
	for {
		select {
		case <-r.stop:
			return
		case <-t.C:
			v := r.view.Load()
			if v == nil {
				continue
			}
			owner := len(v.parts) - 1
			for _, rs := range v.parts {
				expect := probeExpect{partition: rs.partition}
				if rs.partition == owner {
					expect.minApplied = r.ingestCount.Load()
				}
				for _, c := range rs.replicas {
					if !c.healthy() {
						c.probe(context.Background(), r.opts.ProbeTimeout, expect)
					}
				}
			}
		}
	}
}

// Close stops the health prober. In-flight lookups finish normally.
func (r *Router) Close() {
	r.stopOnce.Do(func() { close(r.stop) })
	r.wg.Wait()
}

// Partitions returns the cluster size P.
func (r *Router) Partitions() int {
	if v := r.view.Load(); v != nil {
		return len(v.parts)
	}
	return 0
}

// Result is one routed lookup: the merged candidates plus the degradation
// flags — Partial is true when at least one partition contributed nothing,
// and Failed lists those partition ids.
type Result struct {
	Candidates []lookup.Candidate
	Partial    bool
	Failed     []int
}

// BulkResult is a routed batch; PerQuery aligns with the query order and
// the degradation flags cover the whole batch (all queries of one scatter
// share the same surviving node set).
type BulkResult struct {
	PerQuery [][]lookup.Candidate
	Partial  bool
	Failed   []int
}

// Lookup is LookupCtx without a context.
func (r *Router) Lookup(q string, k int) Result {
	res, _ := r.LookupCtx(context.Background(), q, k) // errors are ctx's only
	return res
}

// LookupCtx answers one query through the cluster: BulkLookupCtx of one.
func (r *Router) LookupCtx(ctx context.Context, q string, k int) (Result, error) {
	br, err := r.BulkLookupCtx(ctx, []string{q}, k)
	if err != nil {
		return Result{}, err
	}
	return Result{Candidates: br.PerQuery[0], Partial: br.Partial, Failed: br.Failed}, nil
}

// BulkLookup is BulkLookupCtx without a context.
func (r *Router) BulkLookup(queries []string, k int) BulkResult {
	br, _ := r.BulkLookupCtx(context.Background(), queries, k) // errors are ctx's only
	return br
}

// BulkLookupCtx is the one routed request: it embeds the batch once
// locally and scatters it to every partition's replica set in one
// partition-scoped request per partition. ctx is the whole request. Its
// deadline or cancellation reaches every scatter leg — node attempts (whose
// timeouts shrink to fit the remaining budget), backoff sleeps, hedged
// duplicates — so a caller that gives up cancels the whole fan-out instead
// of letting it finish into the void. Its trace (obs.WithTrace), if any,
// gets the router's embed and merge stages, one rpc span per node attempt
// (hedged duplicates and retries flagged), and each node's own spans
// grafted under its leg — one timeline for a routed query. A context loss
// returns ctx.Err(); the deadline_exceeded counter is incremented here and
// only here (once per query of the lost batch) — the inner retry and hedge
// layers report context errors but never count them, which is what keeps
// the counter exactly-once.
func (r *Router) BulkLookupCtx(ctx context.Context, queries []string, k int) (BulkResult, error) {
	out := BulkResult{PerQuery: make([][]lookup.Candidate, len(queries))}
	if len(queries) == 0 {
		return out, nil
	}
	if k <= 0 {
		return out, nil
	}
	if err := ctx.Err(); err != nil {
		r.deadlineExceeded.Add(int64(len(queries)))
		return out, err
	}
	t0 := time.Now()
	// Same over-fetch discipline as core.EmbLookup.Lookup: alias rows can
	// collapse onto one entity, so dedupe needs headroom.
	fetch := k
	if r.model.Config().IndexAliases {
		fetch = k * 3
	}
	tr := obs.FromContext(ctx)
	sp := tr.Start("embed")
	embs := r.model.EmbedAll(queries, r.opts.Parallelism)
	sp.End()

	v := r.acquireView()
	defer v.release()
	parts := v.parts
	perPart := make([][][]server.PartitionHit, len(parts))
	errs := make([]error, len(parts))
	skipped := make([]bool, len(parts))
	var wg sync.WaitGroup
	for i, rs := range parts {
		if !rs.anyHealthy() {
			skipped[i] = true
			continue
		}
		wg.Add(1)
		go func(i int, rs *replicaSet) {
			defer wg.Done()
			perPart[i], errs[i] = rs.search(ctx, fetch, embs, r.opts)
		}(i, rs)
	}
	wg.Wait()

	if err := ctx.Err(); err != nil {
		r.deadlineExceeded.Add(int64(len(queries)))
		return out, err
	}
	for i := range parts {
		if skipped[i] || errs[i] != nil {
			out.Failed = append(out.Failed, i)
		}
	}
	out.Partial = len(out.Failed) > 0
	if out.Partial {
		r.partials.Add(1)
	}

	sp = tr.Start("merge")
	var all []server.PartitionHit
	for qi := range queries {
		all = all[:0]
		for i := range parts {
			if perPart[i] != nil {
				all = append(all, perPart[i][qi]...)
			}
		}
		out.PerQuery[qi] = mergeHits(all, fetch, k)
	}
	sp.End()
	r.latency.Since(t0)
	return out, nil
}

// mergeHits turns the union of per-partition top-fetch hits into the final
// candidate list, replaying the single-process pipeline exactly: sort under
// the canonical (Dist, Row) order, truncate to the global top-fetch —
// because each partition contributed its own exact top-fetch, the first
// fetch entries of the sorted union ARE the global top-fetch — then dedupe
// alias rows onto entities, best first, down to k.
func mergeHits(all []server.PartitionHit, fetch, k int) []lookup.Candidate {
	slices.SortFunc(all, func(a, b server.PartitionHit) int {
		switch {
		case a.Dist < b.Dist:
			return -1
		case a.Dist > b.Dist:
			return 1
		case a.Row < b.Row:
			return -1
		case a.Row > b.Row:
			return 1
		}
		return 0
	})
	if len(all) > fetch {
		all = all[:fetch]
	}
	seen := make(map[int32]bool, len(all))
	cands := make([]lookup.Candidate, 0, min(k, len(all)))
	for _, h := range all {
		if seen[h.Entity] {
			continue
		}
		seen[h.Entity] = true
		cands = append(cands, lookup.Candidate{ID: kg.EntityID(h.Entity), Score: -float64(h.Dist)})
		if len(cands) == k {
			break
		}
	}
	return cands
}

// RouterStats is the coordinator's observability snapshot: per-node health
// and traffic, the cluster-wide totals aggregated across nodes, and the
// routed-lookup latency quantiles. Nodes lists every replica of the current
// map in partition-major order, so an R=1 cluster's Nodes[i] is partition
// i's node, exactly the PR-4 shape.
type RouterStats struct {
	Partitions int   `json:"partitions"`
	Epoch      int64 `json:"epoch"`
	// Healthy counts healthy nodes; HealthyPartitions counts partitions
	// with at least one healthy replica (the number that decides whether
	// responses are partial).
	Healthy           int                 `json:"healthy"`
	HealthyPartitions int                 `json:"healthyPartitions"`
	PartialResponses  int64               `json:"partialResponses"`
	IngestRouted      int64               `json:"ingestRouted"`
	Totals            RouterTotals        `json:"totals"`
	Latency           *obs.LatencySummary `json:"latency,omitempty"`
	Nodes             []NodeStats         `json:"nodes"`
}

// RouterTotals sums the per-node traffic counters across the cluster.
type RouterTotals struct {
	Requests          int64 `json:"requests"`
	Failures          int64 `json:"failures"`
	Retries           int64 `json:"retries"`
	Hedges            int64 `json:"hedges"`
	HedgeWins         int64 `json:"hedgeWins"`
	HealthTransitions int64 `json:"healthTransitions"`
}

// Stats snapshots per-node health and traffic counters.
func (r *Router) Stats() RouterStats {
	v := r.view.Load()
	st := RouterStats{PartialResponses: r.partials.Load(), IngestRouted: r.ingestCount.Load()}
	if v == nil {
		return st
	}
	st.Partitions = len(v.parts)
	st.Epoch = v.epoch
	for _, rs := range v.parts {
		if rs.anyHealthy() {
			st.HealthyPartitions++
		}
		for _, c := range rs.replicas {
			ns := c.stats()
			if ns.Healthy {
				st.Healthy++
			}
			st.Totals.Requests += ns.Requests
			st.Totals.Failures += ns.Failures
			st.Totals.Retries += ns.Retries
			st.Totals.Hedges += ns.Hedges
			st.Totals.HedgeWins += ns.HedgeWins
			st.Totals.HealthTransitions += ns.HealthTransitions
			st.Nodes = append(st.Nodes, ns)
		}
	}
	if sum := r.latency.Summary(); sum.Count > 0 {
		st.Latency = &sum
	}
	return st
}

// RouteResponse is the router front-end's /lookup reply — the single-node
// LookupResponse shape plus the degradation flags, so a client can tell an
// exact answer from a surviving-partitions one.
type RouteResponse struct {
	Query   string           `json:"query"`
	TookUs  int64            `json:"tookUs"`
	Partial bool             `json:"partial,omitempty"`
	Failed  []int            `json:"failedPartitions,omitempty"`
	Results []server.Hit     `json:"results"`
	TraceID string           `json:"traceId,omitempty"`
	Trace   []obs.SpanRecord `json:"trace,omitempty"`
}

// Handler returns the router's HTTP front-end: the same /lookup, /bulk,
// /stats, /healthz, /ingest surface as a single node, answered by the
// cluster.
func (r *Router) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("GET /lookup", r.handleLookup)
	mux.HandleFunc("POST /bulk", r.handleBulk)
	mux.HandleFunc("GET /stats", r.handleStats)
	mux.HandleFunc("POST /ingest", r.handleIngest)
	mux.HandleFunc("GET /healthz", func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		json.NewEncoder(w).Encode(server.HealthzResponse{Status: "ok", Epoch: r.Epoch(), IngestApplied: r.ingestCount.Load()})
	})
	if r.Metrics != nil {
		mux.Handle("GET /metrics", r.Metrics.Handler())
	}
	if r.SlowLog != nil {
		mux.Handle("GET /debug/slowlog", r.SlowLog.Handler())
	}
	return mux
}

func (r *Router) hits(cands []lookup.Candidate) []server.Hit {
	r.graphMu.RLock()
	defer r.graphMu.RUnlock()
	g := r.model.Graph()
	hits := make([]server.Hit, len(cands))
	for i, c := range cands {
		hits[i] = server.Hit{ID: int32(c.ID), Label: g.Label(c.ID), Score: c.Score}
	}
	return hits
}

func (r *Router) handleLookup(w http.ResponseWriter, req *http.Request) {
	q := req.URL.Query().Get("q")
	if q == "" {
		http.Error(w, `missing "q" parameter`, http.StatusBadRequest)
		return
	}
	k, err := server.ParseK(req, r.MaxK)
	if err != nil {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	ctx, cancel, wantTrace, err := server.RequestContext(req, 0, 0, r.SlowLog)
	if err != nil {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	defer cancel()
	tr := obs.FromContext(ctx)
	start := time.Now()
	res, err := r.LookupCtx(ctx, q, k)
	if err != nil {
		http.Error(w, "deadline exceeded", http.StatusGatewayTimeout)
		return
	}
	took := time.Since(start)
	if r.SlowLog.Slow(took) {
		r.SlowLog.Record(obs.SlowEntry{
			Route: "/lookup", Query: q, K: k, DurUs: took.Microseconds(),
			TraceID: tr.ID(), Partial: res.Partial, Spans: tr.Spans(),
		})
	}
	resp := RouteResponse{
		Query:   q,
		TookUs:  took.Microseconds(),
		Partial: res.Partial,
		Failed:  res.Failed,
		Results: r.hits(res.Candidates),
	}
	if wantTrace {
		resp.TraceID = tr.ID()
		resp.Trace = tr.Spans()
	}
	w.Header().Set("Content-Type", "application/json")
	json.NewEncoder(w).Encode(resp)
}

// handleBulk mirrors the single-node /bulk: one query per body line, one
// NDJSON object per line back, each carrying the batch's degradation flags.
func (r *Router) handleBulk(w http.ResponseWriter, req *http.Request) {
	k, err := server.ParseK(req, r.MaxK)
	if err != nil {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	const maxBulkBytes = 1 << 20
	const maxBulkQueries = 4096
	queries, status, err := server.ReadBulkBody(w, req, maxBulkBytes, maxBulkQueries)
	if err != nil {
		http.Error(w, err.Error(), status)
		return
	}
	ctx, cancel, _, err := server.RequestContext(req, 0, 0, r.SlowLog)
	if err != nil {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	defer cancel()
	start := time.Now()
	res, err := r.BulkLookupCtx(ctx, queries, k)
	if err != nil {
		http.Error(w, "deadline exceeded", http.StatusGatewayTimeout)
		return
	}
	if took := time.Since(start); r.SlowLog.Slow(took) {
		tr := obs.FromContext(ctx)
		r.SlowLog.Record(obs.SlowEntry{
			Route: "/bulk", Query: fmt.Sprintf("[%d queries]", len(queries)),
			K: k, DurUs: took.Microseconds(), TraceID: tr.ID(), Partial: res.Partial, Spans: tr.Spans(),
		})
	}
	w.Header().Set("Content-Type", "application/x-ndjson")
	enc := json.NewEncoder(w)
	for i, q := range queries {
		enc.Encode(RouteResponse{
			Query:   q,
			Partial: res.Partial,
			Failed:  res.Failed,
			Results: r.hits(res.PerQuery[i]),
		})
	}
}

func (r *Router) handleStats(w http.ResponseWriter, _ *http.Request) {
	w.Header().Set("Content-Type", "application/json")
	json.NewEncoder(w).Encode(r.Stats())
}
