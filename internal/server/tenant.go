package server

import (
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"time"

	"emblookup/internal/obs"
	"emblookup/internal/serve"
	"emblookup/internal/tenant"
)

// TenantServer fronts a tenant.Registry: the multi-tenant HTTP surface.
//
//	GET  /t/{tenant}/lookup?q=&k=[&deadline_ms=][&hybrid=1] → JSON candidates
//	POST /t/{tenant}/bulk                                   → NDJSON results
//	GET  /t/{tenant}/stats                                  → one tenant's stats
//	POST /t/{tenant}/reload                                 → hot-swap the model
//	GET  /stats                                             → all tenants
//	GET  /healthz, GET /metrics
//
// Every request passes the tenant's admission gate first (429 +
// Retry-After when throttled or shed), then runs under its deadline budget
// (explicit ?deadline_ms= clamped to the tenant's MaxDeadlineMs, else the
// tenant's default), which the serve substrate propagates into coalescer
// flushes and shard scans — a 504 means the work was cancelled, not
// completed and discarded. Per-tenant MaxK/MaxBatch violations are 400s
// with a structured error body. Unlike the single-tenant Server, errors
// here are always JSON.
type TenantServer struct {
	tenants *tenant.Registry
	reg     *obs.Registry

	mountMetrics bool
	slowLog      *obs.SlowLog
}

// TenantOption configures a TenantServer.
type TenantOption func(*TenantServer)

// WithTenantMetrics mounts GET /metrics over reg (nil = obs.Default()).
func WithTenantMetrics(reg *obs.Registry) TenantOption {
	return func(s *TenantServer) {
		if reg != nil {
			s.reg = reg
		}
		s.mountMetrics = true
	}
}

// WithTenantSlowLog records slow tenant requests and mounts
// GET /debug/slowlog.
func WithTenantSlowLog(sl *obs.SlowLog) TenantOption {
	return func(s *TenantServer) { s.slowLog = sl }
}

// NewTenantServer builds the multi-tenant front-end over a registry.
func NewTenantServer(tenants *tenant.Registry, opts ...TenantOption) *TenantServer {
	s := &TenantServer{tenants: tenants, reg: obs.Default()}
	for _, o := range opts {
		o(s)
	}
	return s
}

// Handler mounts all tenant routes.
func (s *TenantServer) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("GET /t/{tenant}/lookup", s.handleLookup)
	mux.HandleFunc("POST /t/{tenant}/bulk", s.handleBulk)
	mux.HandleFunc("GET /t/{tenant}/stats", s.handleTenantStats)
	mux.HandleFunc("POST /t/{tenant}/reload", s.handleReload)
	mux.HandleFunc("GET /stats", s.handleStats)
	mux.HandleFunc("GET /healthz", func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		json.NewEncoder(w).Encode(HealthzResponse{Status: "ok"})
	})
	if s.mountMetrics {
		mux.Handle("GET /metrics", s.reg.Handler())
	}
	if s.slowLog != nil {
		mux.Handle("GET /debug/slowlog", s.slowLog.Handler())
	}
	return mux
}

// ErrorBody is the structured error reply of every tenant route: a stable
// machine-readable code, a human message, and — where they apply — the
// violated limit and the back-off hint mirrored from the Retry-After
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

func writeError(w http.ResponseWriter, status int, d ErrorDetail) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	json.NewEncoder(w).Encode(ErrorBody{Error: d})
}

// admit resolves the tenant and passes its admission gate. On success the
// caller owns one Release. Failures have already been written to w.
func (s *TenantServer) admit(w http.ResponseWriter, r *http.Request) (*tenant.Tenant, bool) {
	name := r.PathValue("tenant")
	t, ok := s.tenants.Tenant(name)
	if !ok {
		writeError(w, http.StatusNotFound, ErrorDetail{Code: "tenant_not_found", Message: fmt.Sprintf("unknown tenant %q", name), Tenant: name})
		return nil, false
	}
	if err := t.Admission().Acquire(r.Context()); err != nil {
		var ae *tenant.AdmitError
		if errors.As(err, &ae) {
			w.Header().Set("Retry-After", tenant.RetryAfterHeader(ae.RetryAfter))
			writeError(w, http.StatusTooManyRequests, ErrorDetail{
				Code: ae.Reason, Message: "admission rejected: " + ae.Reason,
				Tenant: name, RetryAfterMs: ae.RetryAfter.Milliseconds(),
			})
			return nil, false
		}
		// The client went away while queued; nothing useful to write.
		writeError(w, http.StatusServiceUnavailable, ErrorDetail{Code: "canceled", Message: err.Error(), Tenant: name})
		return nil, false
	}
	return t, true
}

// requestK is ParseK against the tenant's MaxK; a violation has already
// been written to w as a structured k_too_large.
func requestK(w http.ResponseWriter, r *http.Request, tenant string, maxK int) (int, bool) {
	k, err := ParseK(r, maxK)
	if err != nil {
		writeError(w, http.StatusBadRequest, ErrorDetail{Code: "k_too_large", Message: err.Error(), Tenant: tenant, Limit: maxK})
	}
	return k, err == nil
}

func (s *TenantServer) handleLookup(w http.ResponseWriter, r *http.Request) {
	t, ok := s.admit(w, r)
	if !ok {
		return
	}
	defer t.Admission().Release()
	q := r.URL.Query().Get("q")
	if q == "" {
		writeError(w, http.StatusBadRequest, ErrorDetail{Code: "bad_request", Message: `missing "q" parameter`, Tenant: t.Name()})
		return
	}
	lim := t.Limits()
	k, ok := requestK(w, r, t.Name(), lim.MaxK)
	if !ok {
		return
	}
	ctx, cancel, wantTrace, err := RequestContext(r, lim.DefaultDeadline(), lim.MaxDeadline(), s.slowLog)
	if err != nil {
		writeError(w, http.StatusBadRequest, ErrorDetail{Code: "bad_request", Message: err.Error(), Tenant: t.Name()})
		return
	}
	defer cancel()
	tr := obs.FromContext(ctx)
	h, err := t.Acquire()
	if err != nil {
		writeError(w, http.StatusServiceUnavailable, ErrorDetail{Code: "model_unavailable", Message: err.Error(), Tenant: t.Name()})
		return
	}
	defer h.Release()
	start := time.Now()
	res, err := h.Serve().LookupCtx(ctx, q, k)
	if err == nil && r.URL.Query().Get("hybrid") == "1" {
		res = serve.HybridRerank(q, res, h.Graph().Label)
	}
	took := time.Since(start)
	// A request that ran out its budget is logged with the spans it got to.
	if s.slowLog.Slow(took) {
		s.slowLog.Record(obs.SlowEntry{
			Route: "/t/" + t.Name() + "/lookup", Query: q, K: k, DurUs: took.Microseconds(),
			TraceID: tr.ID(), Spans: tr.Spans(),
		})
	}
	if err != nil {
		t.DeadlineExceeded(1)
		writeError(w, http.StatusGatewayTimeout, ErrorDetail{Code: "deadline_exceeded", Message: "deadline exceeded before the lookup completed", Tenant: t.Name()})
		return
	}
	t.Latency().Observe(took)
	g := h.Graph()
	hits := make([]Hit, len(res))
	for i, c := range res {
		hits[i] = Hit{ID: int32(c.ID), Label: g.Label(c.ID), Score: c.Score}
	}
	resp := LookupResponse{Query: q, TookUs: took.Microseconds(), Results: hits}
	if wantTrace {
		resp.TraceID, resp.Trace = tr.ID(), tr.Spans()
	}
	w.Header().Set("Content-Type", "application/json")
	json.NewEncoder(w).Encode(resp)
}

func (s *TenantServer) handleBulk(w http.ResponseWriter, r *http.Request) {
	t, ok := s.admit(w, r)
	if !ok {
		return
	}
	defer t.Admission().Release()
	lim := t.Limits()
	k, ok := requestK(w, r, t.Name(), lim.MaxK)
	if !ok {
		return
	}
	queries, status, err := ReadBulkBody(w, r, 1<<20, lim.MaxBatch)
	if status == http.StatusRequestEntityTooLarge {
		writeError(w, status, ErrorDetail{Code: "body_too_large", Message: err.Error(), Tenant: t.Name()})
		return
	}
	if err != nil {
		writeError(w, status, ErrorDetail{
			Code: "batch_too_large", Message: fmt.Sprintf("at most %d queries per bulk request", lim.MaxBatch),
			Tenant: t.Name(), Limit: lim.MaxBatch,
		})
		return
	}
	// No slow log: bulk requests are not slow-logged on tenant routes.
	ctx, cancel, _, err := RequestContext(r, lim.DefaultDeadline(), lim.MaxDeadline(), nil)
	if err != nil {
		writeError(w, http.StatusBadRequest, ErrorDetail{Code: "bad_request", Message: err.Error(), Tenant: t.Name()})
		return
	}
	defer cancel()
	h, err := t.Acquire()
	if err != nil {
		writeError(w, http.StatusServiceUnavailable, ErrorDetail{Code: "model_unavailable", Message: err.Error(), Tenant: t.Name()})
		return
	}
	defer h.Release()
	start := time.Now()
	results, err := h.Serve().BulkLookupCtx(ctx, queries, k)
	if err != nil {
		t.DeadlineExceeded(int64(len(queries)))
		writeError(w, http.StatusGatewayTimeout, ErrorDetail{Code: "deadline_exceeded", Message: "deadline exceeded before the batch completed", Tenant: t.Name()})
		return
	}
	hybrid := r.URL.Query().Get("hybrid") == "1"
	took := time.Since(start)
	t.Latency().Observe(took)
	g := h.Graph()
	if hybrid {
		for i, q := range queries {
			results[i] = serve.HybridRerank(q, results[i], g.Label)
		}
	}
	writeBulk(w, queries, results, bulkHits(results, g.Label))
}

func (s *TenantServer) handleTenantStats(w http.ResponseWriter, r *http.Request) {
	name := r.PathValue("tenant")
	t, ok := s.tenants.Tenant(name)
	if !ok {
		writeError(w, http.StatusNotFound, ErrorDetail{Code: "tenant_not_found", Message: fmt.Sprintf("unknown tenant %q", name), Tenant: name})
		return
	}
	w.Header().Set("Content-Type", "application/json")
	json.NewEncoder(w).Encode(t.Stats())
}

// handleReload hot-swaps the tenant's model from its configured artifact
// paths: the new generation attaches, the pointer swaps atomically, and
// the old closes once its in-flight requests drain. In-flight and new
// requests never block.
func (s *TenantServer) handleReload(w http.ResponseWriter, r *http.Request) {
	name := r.PathValue("tenant")
	t, ok := s.tenants.Tenant(name)
	if !ok {
		writeError(w, http.StatusNotFound, ErrorDetail{Code: "tenant_not_found", Message: fmt.Sprintf("unknown tenant %q", name), Tenant: name})
		return
	}
	if err := t.Swap(); err != nil {
		writeError(w, http.StatusServiceUnavailable, ErrorDetail{Code: "model_unavailable", Message: err.Error(), Tenant: name})
		return
	}
	w.Header().Set("Content-Type", "application/json")
	json.NewEncoder(w).Encode(map[string]string{"status": "reloaded", "tenant": name})
}

// TenantsStatsResponse is the global /stats reply: every tenant's section.
type TenantsStatsResponse struct {
	Tenants []tenant.TenantStats `json:"tenants"`
}

func (s *TenantServer) handleStats(w http.ResponseWriter, _ *http.Request) {
	w.Header().Set("Content-Type", "application/json")
	json.NewEncoder(w).Encode(TenantsStatsResponse{Tenants: s.tenants.Stats()})
}
