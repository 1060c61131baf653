package server

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"log"
	"net/http"
	"time"

	"emblookup/internal/tenant"
)

// NewTenantServer builds the multi-tenant front-end over a registry:
//
//	GET  /t/{tenant}/lookup?q=&k=[&deadline_ms=][&hybrid=1] → JSON candidates
//	POST /t/{tenant}/bulk                                   → NDJSON results
//	GET  /t/{tenant}/stats                                  → one tenant's stats
//	POST /t/{tenant}/reload                                 → hot-swap the model
//	GET  /stats                                             → all tenants
//	GET  /healthz
//
// Every request passes the tenant's admission gate first (429 +
// Retry-After when throttled or shed) and pins the tenant's current model
// generation, then runs under its deadline budget (explicit ?deadline_ms=
// clamped to the tenant's MaxDeadlineMs, else the tenant's default), which
// the generation's serve substrate propagates into the embedding and the
// shard scans — a 504 means the work was cancelled, not completed and
// discarded. The tenant's maxK and maxBatch stand in for DefaultLimits'
// MaxK and MaxBulkQueries on its routes.
func NewTenantServer(tenants *tenant.Registry, opts ...Option) *Server {
	s := newServer(opts)
	s.tenants = tenants
	return s
}

func (s *Server) tenantOf(r *http.Request) (*tenant.Tenant, *Error) {
	name := r.PathValue("tenant")
	if t, ok := s.tenants.Tenant(name); ok {
		return t, nil
	}
	return nil, NewError(http.StatusNotFound, "tenant_not_found", fmt.Sprintf("unknown tenant %q", name))
}

// openTenant passes the tenant's admission gate and pins its current model
// generation, which answers the request under the tenant's limits and
// deadline budget; both are released with the route's Pin.
func (s *Server) openTenant(w http.ResponseWriter, r *http.Request) (Route, *Error) {
	t, e := s.tenantOf(r)
	if e != nil {
		return Route{}, e
	}
	if err := t.Admission().Acquire(r.Context()); err != nil {
		var ae *tenant.AdmitError
		if !errors.As(err, &ae) {
			// The client went away while queued; nothing useful to write.
			return Route{}, NewError(http.StatusServiceUnavailable, "canceled", err.Error())
		}
		w.Header().Set("Retry-After", tenant.RetryAfterHeader(ae.RetryAfter))
		e := NewError(http.StatusTooManyRequests, ae.Reason, "admission rejected: "+ae.Reason)
		e.RetryAfterMs = ae.RetryAfter.Milliseconds()
		return Route{}, e
	}
	h, err := t.Acquire()
	if err != nil {
		t.Admission().Release()
		return Route{}, modelUnavailable(t, "load", err)
	}
	lim, b := t.Limits(), tenantBackend{h}
	bounds := DefaultLimits()
	bounds.MaxK, bounds.MaxBulkQueries = lim.MaxK, lim.MaxBatch
	return Route{Backend: b, Labels: h.Graph(), Pin: b, Limits: bounds,
		Deadline: lim.DefaultDeadline(), MaxDeadline: lim.MaxDeadline()}, nil
}

// modelUnavailable answers a tenant model that failed to load or reload
// with a fixed message: the error names the server's artifact paths, which
// go to the server's log, never to the client.
func modelUnavailable(t *tenant.Tenant, op string, err error) *Error {
	log.Printf("tenant %s: model %s failed: %v", t.Name(), op, err)
	return NewError(http.StatusServiceUnavailable, "model_unavailable", "the tenant's model could not be "+op+"ed")
}

// tenantBackend is a tenant's pinned model generation answering one
// request: it counts the tenant's latency and deadline_exceeded (once per
// query), and its Release returns the generation and the admission slot.
type tenantBackend struct{ h *tenant.Handle }

func (b tenantBackend) LookupCtx(ctx context.Context, q string, k int) (Answer, error) {
	start := time.Now()
	ans, err := serveBackend{b.h.Serve()}.LookupCtx(ctx, q, k)
	b.count(start, 1, err)
	return ans, err
}

func (b tenantBackend) BulkLookupCtx(ctx context.Context, queries []string, k int) (BulkAnswer, error) {
	start := time.Now()
	ans, err := serveBackend{b.h.Serve()}.BulkLookupCtx(ctx, queries, k)
	b.count(start, len(queries), err)
	return ans, err
}

func (b tenantBackend) count(start time.Time, queries int, err error) {
	if err != nil {
		b.h.Tenant().DeadlineExceeded(int64(queries))
		return
	}
	b.h.Tenant().Latency().Since(start)
}

func (b tenantBackend) Release() {
	t := b.h.Tenant()
	b.h.Release()
	t.Admission().Release()
}

func (s *Server) handleTenantStats(w http.ResponseWriter, r *http.Request) {
	t, e := s.tenantOf(r)
	if e != nil {
		WriteError(w, r, e)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	json.NewEncoder(w).Encode(t.Stats())
}

// handleReload hot-swaps the tenant's model from its configured artifact
// paths: the new generation attaches, the pointer swaps atomically, and
// the old closes once its in-flight requests drain. In-flight and new
// requests never block.
func (s *Server) handleReload(w http.ResponseWriter, r *http.Request) {
	t, e := s.tenantOf(r)
	if e != nil {
		WriteError(w, r, e)
		return
	}
	if err := t.Swap(); err != nil {
		WriteError(w, r, modelUnavailable(t, "reload", err))
		return
	}
	w.Header().Set("Content-Type", "application/json")
	json.NewEncoder(w).Encode(map[string]string{"status": "reloaded", "tenant": t.Name()})
}

// TenantsStatsResponse is the global /stats reply: every tenant's section.
type TenantsStatsResponse struct {
	Tenants []tenant.TenantStats `json:"tenants"`
}

func (s *Server) handleTenantsStats(w http.ResponseWriter, _ *http.Request) {
	w.Header().Set("Content-Type", "application/json")
	json.NewEncoder(w).Encode(TenantsStatsResponse{Tenants: s.tenants.Stats()})
}
