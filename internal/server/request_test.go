package server

import (
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"net/url"
	"strings"
	"sync"
	"testing"
	"time"

	"emblookup/internal/obs"
	"emblookup/internal/tenant"
)

// strictKCases is the ?k= contract every front-end shares: the whole value
// must be an integer in range — a numeric prefix is not enough.
var strictKCases = []struct {
	k      string
	status int
}{
	{"10abc", 400}, {"3.9", 400}, {"7 9", 400}, {"0", 400}, {"-1", 400}, {"", 200}, {"3", 200},
}

// TestStrictK drives ?k= through /lookup and /bulk of the single-tenant and
// the tenant front-end (the router's twin lives in internal/cluster). The
// tenant routes used to read k with Sscanf("%d") and serve "10abc" as 10.
func TestStrictK(t *testing.T) {
	_, s := testServer(t)
	single := s.Handler()
	gp, mp := tenantArtifacts(t)
	reg, err := tenant.NewRegistry(tenant.Config{Tenants: []tenant.TenantConfig{{Name: "wd", Graph: gp, Model: mp, Shards: 1}}}, obs.New())
	if err != nil {
		t.Fatal(err)
	}
	defer reg.Close()
	tenants := NewTenantServer(reg).Handler()

	for _, c := range strictKCases {
		k := url.QueryEscape(c.k)
		for _, route := range []struct {
			h      http.Handler
			method string
			path   string
		}{
			{single, "GET", "/lookup?q=x&k=" + k},
			{single, "POST", "/bulk?k=" + k},
			{tenants, "GET", "/t/wd/lookup?q=x&k=" + k},
			{tenants, "POST", "/t/wd/bulk?k=" + k},
		} {
			rec := httptest.NewRecorder()
			route.h.ServeHTTP(rec, httptest.NewRequest(route.method, route.path, strings.NewReader("x\n")))
			if rec.Code != c.status {
				t.Errorf("%s %s: status %d, want %d", route.method, route.path, rec.Code, c.status)
			}
			if c.status == 400 && strings.HasPrefix(route.path, "/t/") {
				var eb ErrorBody
				if err := json.Unmarshal(rec.Body.Bytes(), &eb); err != nil || eb.Error.Code != "k_too_large" || eb.Error.Limit == 0 {
					t.Errorf("%s: tenant error body %s, want a structured k_too_large with its limit", route.path, rec.Body)
				}
			}
		}
	}
}

func spanCount(spans []obs.SpanRecord, name string) int {
	n := 0
	for _, sp := range spans {
		if sp.Name == name {
			n++
		}
	}
	return n
}

// TestTenantTraceAndDeadline: a tenant request carries its deadline and its
// trace in one context. ?trace=1 and a propagated X-Emblookup-Trace echo the
// span timeline, the slow log keeps it, and a request whose budget is spent
// is answered 504 and still logged with the spans it got to — all of which
// the tenant routes could not do while the traced and the cancellable
// lookups were different code.
func TestTenantTraceAndDeadline(t *testing.T) {
	gp, mp := tenantArtifacts(t)
	reg, err := tenant.NewRegistry(tenant.Config{Tenants: []tenant.TenantConfig{{
		Name: "wd", Graph: gp, Model: mp, Shards: 2, CacheSize: -1,
		Limits: tenant.Limits{DefaultDeadlineMs: 60_000},
	}}}, obs.New())
	if err != nil {
		t.Fatal(err)
	}
	defer reg.Close()
	slow := obs.NewSlowLog(0, 64) // threshold 0: log everything
	h := NewTenantServer(reg, WithTenantSlowLog(slow)).Handler()
	get := func(req *http.Request) (*httptest.ResponseRecorder, LookupResponse) {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, req)
		var lr LookupResponse
		json.Unmarshal(rec.Body.Bytes(), &lr) // an error reply leaves lr empty
		return rec, lr
	}
	stages := []string{"normalize", "embed", "search", "merge"}

	// Asked for: the reply carries the trace of a request that also ran
	// under the tenant's default deadline.
	rec, lr := get(httptest.NewRequest("GET", "/t/wd/lookup?q=anything&k=3&trace=1", nil))
	if rec.Code != 200 || len(lr.TraceID) != 16 {
		t.Fatalf("?trace=1: status %d, traceId %q", rec.Code, lr.TraceID)
	}
	for _, st := range stages {
		if spanCount(lr.Trace, st) != 1 {
			t.Errorf("?trace=1: span %q ×%d in %+v", st, spanCount(lr.Trace, st), lr.Trace)
		}
	}
	// Propagated: the upstream id is adopted and echoed.
	req := httptest.NewRequest("GET", "/t/wd/lookup?q=anything&k=3", nil)
	req.Header.Set(obs.TraceHeader, "feedfacefeedface")
	if rec, lr = get(req); rec.Code != 200 || lr.TraceID != "feedfacefeedface" || len(lr.Trace) == 0 {
		t.Fatalf("propagated trace: status %d, traceId %q, %d spans", rec.Code, lr.TraceID, len(lr.Trace))
	}
	// Not asked for: nothing echoed, but the slow log has the spans.
	if rec, lr = get(httptest.NewRequest("GET", "/t/wd/lookup?q=anything&k=3", nil)); rec.Code != 200 || lr.TraceID != "" || lr.Trace != nil {
		t.Fatalf("untraced request echoed a trace: %+v", lr)
	}
	entries := slow.Snapshot()
	if len(entries) != 3 {
		t.Fatalf("%d slow entries, want 3", len(entries))
	}
	for _, e := range entries {
		if e.Route != "/t/wd/lookup" || len(e.TraceID) != 16 || spanCount(e.Spans, "search") != 1 {
			t.Errorf("slow entry without its trace: %+v", e)
		}
	}

	// A spent budget and a trace on one request: a 504, and the slow log
	// keeps the spans recorded before the lookup gave up.
	spent, cancel := context.WithDeadline(context.Background(), time.Now().Add(-time.Second))
	defer cancel()
	rec, _ = get(httptest.NewRequest("GET", "/t/wd/lookup?q=anything&k=3&trace=1", nil).WithContext(spent))
	if rec.Code != http.StatusGatewayTimeout {
		t.Fatalf("spent budget: status %d, want 504", rec.Code)
	}
	last := slow.Snapshot()[0] // newest first
	if len(last.TraceID) != 16 || spanCount(last.Spans, "normalize") != 1 || spanCount(last.Spans, "merge") != 0 {
		t.Fatalf("504's slow entry = %+v, want the normalize span and no merge", last)
	}
	if tn, _ := reg.Tenant("wd"); tn.Stats().DeadlineExceeded != 1 {
		t.Fatalf("deadline_exceeded = %d, want 1", tn.Stats().DeadlineExceeded)
	}

	// Concurrent traced requests under live deadlines each get their own
	// timeline (run under -race).
	var wg sync.WaitGroup
	for i := 0; i < 16; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			rec, lr := get(httptest.NewRequest("GET", "/t/wd/lookup?q=anything&k=3&trace=1&deadline_ms=60000", nil))
			if rec.Code != 200 || spanCount(lr.Trace, "normalize") != 1 {
				t.Errorf("concurrent traced request: status %d, spans %+v", rec.Code, lr.Trace)
			}
			if got := spanCount(lr.Trace, "search") + spanCount(lr.Trace, "batch_scan"); got != 1 {
				t.Errorf("concurrent traced request: %d scan spans in %+v, want its own one", got, lr.Trace)
			}
		}()
	}
	wg.Wait()
}

// TestServerRequestContext: the single-tenant server runs lookups under the
// request's context too — a request whose caller is gone or whose budget is
// spent stops before the scan, and a malformed budget is a 400.
func TestServerRequestContext(t *testing.T) {
	_, s := testServer(t)
	h := s.Handler()
	gone, cancel := context.WithCancel(context.Background())
	cancel()
	for _, c := range []struct {
		method, path string
		ctx          context.Context
		status       int
	}{
		{"GET", "/lookup?q=x", gone, http.StatusGatewayTimeout},
		{"POST", "/bulk", gone, http.StatusGatewayTimeout},
		{"GET", "/lookup?q=x&deadline_ms=bogus", context.Background(), 400},
		{"POST", "/bulk?deadline_ms=-5", context.Background(), 400},
		{"GET", "/lookup?q=x&deadline_ms=60000", context.Background(), 200},
	} {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(c.method, c.path, strings.NewReader("x\n")).WithContext(c.ctx))
		if rec.Code != c.status {
			t.Errorf("%s %s: status %d, want %d", c.method, c.path, rec.Code, c.status)
		}
	}
}
