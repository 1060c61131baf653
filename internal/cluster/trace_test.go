package cluster

import (
	"context"
	"encoding/json"
	"errors"
	"net/http"
	"net/http/httptest"
	"net/url"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"emblookup/internal/obs"
	"emblookup/internal/server"
)

// spanNames collects the distinct names of a span list.
func spanNames(spans []obs.SpanRecord) map[string]int {
	m := map[string]int{}
	for _, s := range spans {
		m[s.Name]++
	}
	return m
}

// TestTracePropagationAcrossCluster routes one traced query through a
// 2-partition in-process cluster and asserts the single resulting timeline:
// the router's embed/merge stages, one rpc span per node leg, and each
// node's own search spans grafted under its partition prefix — proving the
// trace id crossed the HTTP hop in both directions.
func TestTracePropagationAcrossCluster(t *testing.T) {
	_, m := testModel(t)
	l, err := StartLocal(m, 2, LocalOptions{Router: RouterOptions{Registry: obs.New()}})
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()

	tr := obs.NewTrace()
	res, _ := l.Router.LookupCtx(obs.WithTrace(context.Background(), tr), "marie curie", 5)
	if res.Partial {
		t.Fatalf("unexpected partial result: failed=%v", res.Failed)
	}
	names := spanNames(tr.Spans())
	for _, want := range []string{
		"embed", "merge",
		"node0/rpc", "node1/rpc",
		"node0/search", "node1/search",
		"node0/translate", "node1/translate",
	} {
		if names[want] == 0 {
			t.Errorf("trace missing span %q; got %v", want, names)
		}
	}
	// Node spans must be re-based into the router's timeline: they start
	// after the router's embed stage began, not at zero of their own clock.
	var embedStart int64 = -1
	for _, s := range tr.Spans() {
		if s.Name == "embed" {
			embedStart = s.StartUs
		}
	}
	for _, s := range tr.Spans() {
		if strings.HasSuffix(s.Name, "/search") && s.StartUs < embedStart {
			t.Errorf("grafted span %q starts at %dus, before the router's embed at %dus", s.Name, s.StartUs, embedStart)
		}
	}
}

// TestTraceHTTPFrontEnd drives the router's HTTP /lookup with ?trace=1 and
// checks the response carries one trace id and the cross-node spans.
func TestTraceHTTPFrontEnd(t *testing.T) {
	_, m := testModel(t)
	reg := obs.New()
	l, err := StartLocal(m, 2, LocalOptions{Router: RouterOptions{Registry: reg}})
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	slow := obs.NewSlowLog(0, 16) // threshold 0: log everything

	h := l.Router.Handler(server.WithMetrics(reg), server.WithSlowLog(slow))
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest("GET", "/lookup?q=marie+curie&k=3&trace=1", nil))
	if rec.Code != http.StatusOK {
		t.Fatalf("status %d: %s", rec.Code, rec.Body.String())
	}
	var resp server.LookupResponse
	if err := json.Unmarshal(rec.Body.Bytes(), &resp); err != nil {
		t.Fatal(err)
	}
	if len(resp.TraceID) != 16 {
		t.Fatalf("traceId = %q, want 16 hex digits", resp.TraceID)
	}
	names := spanNames(resp.Trace)
	for _, want := range []string{"embed", "merge", "node0/search", "node1/search"} {
		if names[want] == 0 {
			t.Errorf("response trace missing %q; got %v", want, names)
		}
	}
	// The zero-threshold slow log captured the same request with its spans.
	entries := slow.Snapshot()
	if len(entries) != 1 || entries[0].TraceID != resp.TraceID || len(entries[0].Spans) == 0 {
		t.Fatalf("slow log entry = %+v", entries)
	}

	// GET /metrics on the front-end exposes the router's registry.
	rec = httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest("GET", "/metrics", nil))
	body := rec.Body.String()
	for _, want := range []string{
		"# TYPE emblookup_cluster_lookup_seconds histogram",
		`emblookup_cluster_node_requests_total{partition="0"}`,
		"emblookup_cluster_healthy_nodes 2",
	} {
		if !strings.Contains(body, want) {
			t.Errorf("/metrics missing %q", want)
		}
	}
	// GET /debug/slowlog dumps the captured entry.
	rec = httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest("GET", "/debug/slowlog", nil))
	if !strings.Contains(rec.Body.String(), resp.TraceID) {
		t.Errorf("/debug/slowlog missing trace id %s: %s", resp.TraceID, rec.Body.String())
	}
}

// TestTraceHedgedSpansFlagged makes partition 1's first response straggle
// past the hedge delay and asserts the race shows up in the timeline: two
// rpc spans for that node, the duplicate flagged Hedged.
func TestTraceHedgedSpansFlagged(t *testing.T) {
	_, m := testModel(t)
	var calls atomic.Int64
	l, err := StartLocal(m, 2, LocalOptions{
		Router: RouterOptions{
			Registry:   obs.New(),
			HedgeAfter: 20 * time.Millisecond,
		},
		Wrap: func(partition int, h http.Handler) http.Handler {
			if partition != 1 {
				return h
			}
			return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
				if r.URL.Path == "/partition/search" && calls.Add(1) == 1 {
					time.Sleep(150 * time.Millisecond) // first attempt straggles
				}
				h.ServeHTTP(w, r)
			})
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()

	tr := obs.NewTrace()
	res, _ := l.Router.LookupCtx(obs.WithTrace(context.Background(), tr), "marie curie", 5)
	if res.Partial {
		t.Fatalf("unexpected partial result: failed=%v", res.Failed)
	}
	// The losing attempt closes its span asynchronously once the shared
	// context cancels it, so give it a moment to land.
	var plain, hedged int
	deadline := time.Now().Add(2 * time.Second)
	for {
		plain, hedged = 0, 0
		for _, s := range tr.Spans() {
			if s.Name == "node1/rpc" {
				if s.Hedged {
					hedged++
				} else {
					plain++
				}
			}
		}
		if plain >= 1 && hedged >= 1 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("want both contenders of the hedge race in the trace; got plain=%d hedged=%d spans=%v",
				plain, hedged, tr.Spans())
		}
		time.Sleep(5 * time.Millisecond)
	}
	st := l.Router.Stats()
	if st.Totals.Hedges == 0 {
		t.Fatalf("router totals missing the hedge: %+v", st.Totals)
	}
	if st.Nodes[1].Hedges == 0 {
		t.Fatalf("node 1 stats missing the hedge: %+v", st.Nodes[1])
	}
}

// TestRouterOnePath holds the routed lookup to the one-path contract over
// {background, cancellable, already done, cancelled mid-scatter} × {no
// trace, trace}: candidates bit-identical to the single-process Lookup
// whenever err is nil, ctx's error and no candidates otherwise, and on a
// trace that rode in the whole cross-node timeline — or, once cancelled,
// what was recorded before: the embed stage, never the merge.
func TestRouterOnePath(t *testing.T) {
	_, m := testModel(t)
	// onSearch, when set, runs as a node receives a partition search — the
	// instant a test cancels a lookup whose scatter is in flight.
	var onSearch atomic.Pointer[context.CancelFunc]
	l, err := StartLocal(m, 2, LocalOptions{
		Router: RouterOptions{Registry: obs.New()},
		Wrap: func(_ int, h http.Handler) http.Handler {
			return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
				if cancel := onSearch.Load(); cancel != nil && r.URL.Path == "/partition/search" {
					(*cancel)()
				}
				h.ServeHTTP(w, r)
			})
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	want := m.Lookup("marie curie", 5)

	for _, kind := range []string{"background", "cancellable", "done", "mid-scatter"} {
		for _, traced := range []bool{false, true} {
			ctx, cancel := context.Background(), context.CancelFunc(func() {})
			if kind != "background" {
				ctx, cancel = context.WithCancel(ctx)
			}
			switch kind {
			case "done":
				cancel()
			case "mid-scatter":
				onSearch.Store(&cancel)
			}
			var tr *obs.Trace
			if traced {
				tr = obs.NewTrace()
				ctx = obs.WithTrace(ctx, tr)
			}
			res, err := l.Router.LookupCtx(ctx, "marie curie", 5)
			onSearch.Store(nil)
			cancel()
			names := spanNames(tr.Spans())
			if kind == "background" || kind == "cancellable" {
				if err != nil || res.Partial {
					t.Fatalf("%s: err %v, partial %v", kind, err, res.Partial)
				}
				sameCandidates(t, kind, want, res.Candidates)
				for _, span := range []string{"embed", "node0/rpc", "node1/search", "merge"} {
					if traced && names[span] == 0 {
						t.Errorf("%s: trace missing span %q; got %v", kind, span, names)
					}
				}
				continue
			}
			if !errors.Is(err, context.Canceled) || res.Candidates != nil {
				t.Fatalf("%s: %d candidates, err %v", kind, len(res.Candidates), err)
			}
			if names["merge"] != 0 || (kind == "done" && len(names) != 0) {
				t.Errorf("%s: cancelled lookup recorded spans %v", kind, names)
			}
			if traced && kind == "mid-scatter" && names["embed"] == 0 {
				t.Errorf("mid-scatter: the embed span recorded before the cancellation was lost; got %v", names)
			}
		}
	}
	// The caller's departures are not node failures.
	if st := l.Router.Stats(); st.Healthy != len(st.Nodes) {
		t.Fatalf("cancelled lookups marked nodes unhealthy: %d/%d healthy", st.Healthy, len(st.Nodes))
	}
}

// TestRouterStrictK: the router front-end reads ?k= with the same strict
// parser as the single-node and tenant servers (server.ParseK).
func TestRouterStrictK(t *testing.T) {
	_, m := testModel(t)
	l, err := StartLocal(m, 2, LocalOptions{Router: RouterOptions{Registry: obs.New()}})
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	h := l.Router.Handler()
	for _, c := range strictKCases {
		k := url.QueryEscape(c.k)
		for method, path := range map[string]string{"GET": "/lookup?q=x&k=" + k, "POST": "/bulk?k=" + k} {
			rec := httptest.NewRecorder()
			h.ServeHTTP(rec, httptest.NewRequest(method, path, strings.NewReader("x\n")))
			if rec.Code != c.status {
				t.Errorf("%s %s: status %d, want %d", method, path, rec.Code, c.status)
			}
			if c.status == 400 {
				var eb server.ErrorBody
				if err := json.Unmarshal(rec.Body.Bytes(), &eb); err != nil || eb.Error.Code != "k_too_large" || eb.Error.Limit == 0 {
					t.Errorf("%s %s: error body %s, want a structured k_too_large with its limit", method, path, rec.Body)
				}
			}
		}
	}
}
