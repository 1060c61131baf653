package server

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/url"
	"time"

	"emblookup/internal/core"
	"emblookup/internal/kg"
	"emblookup/internal/lookup"
	"emblookup/internal/obs"
	"emblookup/internal/serve"
)

// Limits bounds what one request may ask of a front-end: DefaultLimits on
// the cluster router, a Server's own on its static routes (DefaultLimits
// unless changed), and on a tenant route DefaultLimits with the tenant's
// maxK and maxBatch for MaxK and MaxBulkQueries.
type Limits struct {
	// MaxK bounds the per-request candidate budget ?k=.
	MaxK int
	// MaxBulkQueries bounds the queries of one /bulk or /partition/search
	// request and the items of one /ingest request; more is a 400, never a
	// silent truncation.
	MaxBulkQueries int
	// MaxBulkBytes bounds a /bulk or /ingest body; larger is a 413. It is
	// the one bound on a body's bytes: a single line may be as long.
	MaxBulkBytes int64
}

// DefaultLimits returns the limits every front-end starts with.
func DefaultLimits() Limits {
	return Limits{MaxK: 1000, MaxBulkQueries: 4096, MaxBulkBytes: 1 << 20}
}

// Answer is a backend's answer to one query: the candidates and, from the
// cluster router, whether only the surviving partitions answered (Partial,
// with the Failed partition ids).
type Answer struct {
	Candidates []lookup.Candidate
	Partial    bool
	Failed     []int
}

// BulkAnswer is a backend's answer to a batch. PerQuery aligns with the
// query order; the degradation flags cover the whole batch.
type BulkAnswer struct {
	PerQuery [][]lookup.Candidate
	Partial  bool
	Failed   []int
}

// Backend answers a request's lookups: a Server's serving substrate, a
// tenant's pinned model generation, or the cluster router.
// An error is the context's: the caller hung up or its budget ran out.
type Backend interface {
	// LookupCtx answers one query on the backend's solo path.
	LookupCtx(ctx context.Context, q string, k int) (Answer, error)
	// BulkLookupCtx answers a batch.
	BulkLookupCtx(ctx context.Context, queries []string, k int) (BulkAnswer, error)
}

// RLocker is a read lock; *sync.RWMutex and *core.Ingestor are both.
type RLocker interface {
	RLock()
	RUnlock()
}

// Route is what a front-end resolves one request to.
type Route struct {
	Backend Backend
	// Labels resolves the hits. Lock, when set, is held for every label
	// read of the request in one span (the hybrid re-rank's included),
	// because the labels grow under live ingest.
	Labels *kg.Graph
	Lock   RLocker
	Limits Limits
	// Deadline is the budget of a request that names none, MaxDeadline the
	// most it may name (zero: no deadline, no clamp).
	Deadline, MaxDeadline time.Duration
	// Pin, when set, is released once the reply is written: what the
	// request held while it ran (a tenant's admission slot and model
	// generation).
	Pin interface{ Release() }
}

// Opener resolves a request to its Route: the one thing each front-end
// supplies. A failure is answered as it is.
type Opener func(w http.ResponseWriter, r *http.Request) (Route, *Error)

// Hit is one JSON result row.
type Hit struct {
	ID    int32   `json:"id"`
	Label string  `json:"label"`
	Score float64 `json:"score"`
}

// LookupResponse is the /lookup reply and one /bulk NDJSON line, on every
// front-end. Partial and Failed come from the cluster router when a
// partition did not answer. TraceID and Trace appear when the request asked
// for tracing (?trace=1 or an X-Emblookup-Trace header): the per-stage
// spans of this lookup, cluster hops included.
type LookupResponse struct {
	Query   string           `json:"query"`
	TookUs  int64            `json:"tookUs"`
	Results []Hit            `json:"results"`
	Partial bool             `json:"partial,omitempty"`
	Failed  []int            `json:"failedPartitions,omitempty"`
	TraceID string           `json:"traceId,omitempty"`
	Trace   []obs.SpanRecord `json:"trace,omitempty"`
}

// ErrorBody is the error reply of every front-end: a stable
// machine-readable code, a human message, and where they apply the tenant,
// the violated limit and the back-off hint mirrored from the Retry-After
// header.
type ErrorBody struct {
	Error ErrorDetail `json:"error"`
}

// ErrorDetail carries the structured error fields.
type ErrorDetail struct {
	Code         string `json:"code"`
	Message      string `json:"message"`
	Tenant       string `json:"tenant,omitempty"`
	Limit        int    `json:"limit,omitempty"`
	RetryAfterMs int64  `json:"retryAfterMs,omitempty"`
}

// Error is a failed request: the status it is answered with and its body.
type Error struct {
	Status int
	ErrorDetail
}

// NewError builds a failure from its status, code and message.
func NewError(status int, code, message string) *Error {
	return &Error{Status: status, ErrorDetail: ErrorDetail{Code: code, Message: message}}
}

// WriteError answers a failed request with its ErrorBody, naming the tenant
// on a tenant route.
func WriteError(w http.ResponseWriter, r *http.Request, e *Error) {
	d := e.ErrorDetail
	d.Tenant = r.PathValue("tenant")
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(e.Status)
	json.NewEncoder(w).Encode(ErrorBody{Error: d})
}

// Option configures a front-end at construction. WithMetrics and
// WithSlowLog apply to every front-end (New, NewTenantServer, the cluster
// router's Handler), WithPprof to both Server constructors; WithServe,
// WithIngest and WithPartition configure the model New serves and mean
// nothing to the tenant routes, whose generations bring their own.
type Option func(*options)

type options struct {
	reg     *obs.Registry
	metrics bool
	slowLog *obs.SlowLog

	serve     *serve.Serve
	pprof     bool
	partition *PartitionInfo
	ingest    *core.Ingestor
}

// WithMetrics directs the front-end's metrics into reg (nil keeps the
// process-wide obs.Default()) and mounts GET /metrics serving it in
// Prometheus text format.
func WithMetrics(reg *obs.Registry) Option {
	return func(o *options) { o.reg, o.metrics = reg, true }
}

// WithSlowLog records requests crossing the log's threshold, with their
// trace spans so a slow entry shows which stage dragged, and mounts
// GET /debug/slowlog.
func WithSlowLog(sl *obs.SlowLog) Option {
	return func(o *options) { o.slowLog = sl }
}

func (o *options) registry() *obs.Registry {
	if o.reg != nil {
		return o.reg
	}
	return obs.Default()
}

// NewMux returns the lookup front-end every server shares: GET
// {prefix}/lookup and POST {prefix}/bulk answered through open, plus
// GET /metrics and GET /debug/slowlog when opts ask for them. The caller
// mounts its own routes beside them.
func NewMux(prefix string, open Opener, opts ...Option) *http.ServeMux {
	var o options
	for _, opt := range opts {
		opt(&o)
	}
	return o.mux(prefix, open)
}

func (o *options) mux(prefix string, open Opener) *http.ServeMux {
	reg := o.registry()
	f := &frontEnd{
		open:      open,
		slowLog:   o.slowLog,
		lookupLat: reg.Histogram(obs.Labels("emblookup_http_request_seconds", "route", prefix+"/lookup")),
		bulkLat:   reg.Histogram(obs.Labels("emblookup_http_request_seconds", "route", prefix+"/bulk")),
	}
	mux := http.NewServeMux()
	mux.HandleFunc("GET "+prefix+"/lookup", f.handleLookup)
	mux.HandleFunc("POST "+prefix+"/bulk", f.handleBulk)
	if o.metrics {
		mux.Handle("GET /metrics", reg.Handler())
	}
	if o.slowLog != nil {
		mux.Handle("GET /debug/slowlog", o.slowLog.Handler())
	}
	return mux
}

// frontEnd is the one /lookup + /bulk handler pair of every server.
type frontEnd struct {
	open               Opener
	slowLog            *obs.SlowLog
	lookupLat, bulkLat *obs.Histogram
}

// handleLookup answers GET /lookup?q=&k=[&hybrid=1][&trace=1][&deadline_ms=]
// with one query on the backend's solo path.
func (f *frontEnd) handleLookup(w http.ResponseWriter, r *http.Request) {
	query := r.URL.Query()
	rt, e := f.open(w, r)
	if e != nil {
		WriteError(w, r, e)
		return
	}
	defer rt.release()
	q := query.Get("q")
	if q == "" {
		WriteError(w, r, NewError(http.StatusBadRequest, "bad_request", `missing "q" parameter`))
		return
	}
	k, e := rt.parseK(query)
	if e != nil {
		WriteError(w, r, e)
		return
	}
	ctx, cancel, echo, e := RequestContext(r, query, rt.Deadline, rt.MaxDeadline, f.slowLog)
	if e != nil {
		WriteError(w, r, e)
		return
	}
	defer cancel()
	start := time.Now()
	ans, err := rt.Backend.LookupCtx(ctx, q, k)
	var hits []Hit
	if err == nil {
		hits = rt.hits([]string{q}, [][]lookup.Candidate{ans.Candidates}, query.Get("hybrid") == "1")
	}
	took := time.Since(start)
	if !f.finish(w, r, ctx, f.lookupLat, obs.SlowEntry{Query: q, K: k, Partial: ans.Partial}, 0, took, err) {
		return
	}
	resp := LookupResponse{Query: q, TookUs: took.Microseconds(), Results: hits, Partial: ans.Partial, Failed: ans.Failed}
	if echo {
		tr := obs.FromContext(ctx)
		resp.TraceID, resp.Trace = tr.ID(), tr.Spans()
	}
	buf := replyPool.Get().(*[]byte)
	*buf = appendLookupResponse((*buf)[:0], &resp)
	writeReply(w, "application/json", *buf)
	replyPool.Put(buf)
}

// handleBulk reads one query per line from the body and answers one JSON
// object per line, in one write, the bulk mode the paper's applications need. Each
// line carries the batch's degradation flags.
func (f *frontEnd) handleBulk(w http.ResponseWriter, r *http.Request) {
	query := r.URL.Query()
	rt, e := f.open(w, r)
	if e != nil {
		WriteError(w, r, e)
		return
	}
	defer rt.release()
	k, e := rt.parseK(query)
	if e != nil {
		WriteError(w, r, e)
		return
	}
	queries, e := ReadBulkBody(w, r, rt.Limits)
	if e != nil {
		WriteError(w, r, e)
		return
	}
	ctx, cancel, _, e := RequestContext(r, query, rt.Deadline, rt.MaxDeadline, f.slowLog)
	if e != nil {
		WriteError(w, r, e)
		return
	}
	defer cancel()
	start := time.Now()
	ans, err := rt.Backend.BulkLookupCtx(ctx, queries, k)
	var hits []Hit
	if err == nil {
		hits = rt.hits(queries, ans.PerQuery, query.Get("hybrid") == "1")
	}
	took := time.Since(start)
	if !f.finish(w, r, ctx, f.bulkLat, obs.SlowEntry{K: k, Partial: ans.Partial}, len(queries), took, err) {
		return
	}
	buf := replyPool.Get().(*[]byte)
	b := (*buf)[:0]
	for i, q := range queries {
		n := len(ans.PerQuery[i])
		b = appendLookupResponse(b, &LookupResponse{Query: q, Results: hits[:n:n], Partial: ans.Partial, Failed: ans.Failed})
		hits = hits[n:]
	}
	writeReply(w, "application/x-ndjson", b)
	*buf = b
	replyPool.Put(buf)
}

// finish ends a lookup that ran. One that crossed the slow log's threshold
// is logged with the spans it reached, 504 or not (a batch as its size);
// a failed one is answered 504, a successful one observed in lat. It
// reports whether the reply is still to be written.
func (f *frontEnd) finish(w http.ResponseWriter, r *http.Request, ctx context.Context, lat *obs.Histogram, e obs.SlowEntry, batch int, took time.Duration, err error) bool {
	if f.slowLog.Slow(took) {
		if batch > 0 {
			e.Query = fmt.Sprintf("[%d queries]", batch)
		}
		tr := obs.FromContext(ctx)
		e.Route, e.DurUs, e.TraceID, e.Spans = r.URL.Path, took.Microseconds(), tr.ID(), tr.Spans()
		f.slowLog.Record(e)
	}
	if err != nil {
		WriteError(w, r, NewError(http.StatusGatewayTimeout, "deadline_exceeded", "deadline exceeded before the lookup completed"))
		return false
	}
	lat.Observe(took)
	return true
}

func (rt *Route) release() {
	if rt.Pin != nil {
		rt.Pin.Release()
	}
}

func (rt *Route) parseK(query url.Values) (int, *Error) {
	k, err := ParseK(query.Get("k"), rt.Limits.MaxK)
	if err != nil {
		e := NewError(http.StatusBadRequest, "k_too_large", err.Error())
		e.Limit = rt.Limits.MaxK
		return 0, e
	}
	return k, nil
}

// hits resolves the answers' candidates to hits in one buffer, line after
// line, under one span of the label lock; with hybrid each answer is first
// re-ranked by exact string similarity against the labels (DESIGN.md §15).
func (rt *Route) hits(queries []string, results [][]lookup.Candidate, hybrid bool) []Hit {
	if rt.Lock != nil {
		rt.Lock.RLock()
		defer rt.Lock.RUnlock()
	}
	total := 0
	for i := range results {
		if hybrid {
			results[i] = serve.HybridRerank(queries[i], results[i], rt.Labels.Label)
		}
		total += len(results[i])
	}
	hits := make([]Hit, 0, total)
	for _, res := range results {
		for _, c := range res {
			hits = append(hits, Hit{ID: int32(c.ID), Label: rt.Labels.Label(c.ID), Score: c.Score})
		}
	}
	return hits
}
