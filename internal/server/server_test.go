package server

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"net/url"
	"strings"
	"sync"
	"testing"

	"emblookup/internal/core"
	"emblookup/internal/index"
	"emblookup/internal/kg"
	"emblookup/internal/obs"
	"emblookup/internal/serve"
	"emblookup/internal/tenant"
)

var (
	once   sync.Once
	tGr    *kg.Graph
	tModel *core.EmbLookup
	tSrv   *Server
	tErr   error
)

func testServer(t testing.TB) (*kg.Graph, *Server) {
	t.Helper()
	once.Do(func() {
		g, _ := kg.Generate(kg.DefaultGeneratorConfig(kg.WikidataProfile, 200))
		cfg := core.FastConfig()
		cfg.Epochs = 2
		cfg.TripletsPerEntity = 8
		m, err := core.Train(g, cfg)
		if err != nil {
			tErr = err
			return
		}
		tGr, tModel, tSrv = g, m, New(g, m)
	})
	if tErr != nil {
		t.Fatal(tErr)
	}
	return tGr, tSrv
}

// testModel returns the shared trained model (training once for the whole
// package).
func testModel(t testing.TB) (*kg.Graph, *core.EmbLookup) {
	g, _ := testServer(t)
	return g, tModel
}

func TestLookupEndpoint(t *testing.T) {
	g, s := testServer(t)
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	label := g.Entities[0].Label
	resp, err := ts.Client().Get(ts.URL + "/lookup?q=" + strings.ReplaceAll(label, " ", "+") + "&k=3")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != 200 {
		t.Fatalf("status %d", resp.StatusCode)
	}
	var lr LookupResponse
	if err := json.NewDecoder(resp.Body).Decode(&lr); err != nil {
		t.Fatal(err)
	}
	if len(lr.Results) == 0 || len(lr.Results) > 3 {
		t.Fatalf("results = %+v", lr.Results)
	}
	if lr.Results[0].Label != label {
		t.Fatalf("self not first: %+v", lr.Results[0])
	}
}

func TestLookupValidation(t *testing.T) {
	_, s := testServer(t)
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	for _, url := range []string{"/lookup", "/lookup?q=x&k=0", "/lookup?q=x&k=99999", "/lookup?q=x&k=abc"} {
		resp, err := ts.Client().Get(ts.URL + url)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != 400 {
			t.Errorf("%s: status %d, want 400", url, resp.StatusCode)
		}
	}
}

func TestBulkEndpoint(t *testing.T) {
	g, s := testServer(t)
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	body := g.Entities[0].Label + "\n" + g.Entities[1].Label + "\n"
	resp, err := ts.Client().Post(ts.URL+"/bulk?k=2", "text/plain", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != 200 {
		t.Fatalf("status %d", resp.StatusCode)
	}
	dec := json.NewDecoder(resp.Body)
	var lines []LookupResponse
	for dec.More() {
		var lr LookupResponse
		if err := dec.Decode(&lr); err != nil {
			t.Fatal(err)
		}
		lines = append(lines, lr)
	}
	if len(lines) != 2 {
		t.Fatalf("got %d NDJSON lines", len(lines))
	}
	if lines[0].Query != g.Entities[0].Label {
		t.Fatal("bulk result order broken")
	}
}

func TestStatsAndHealth(t *testing.T) {
	g, s := testServer(t)
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	resp, err := ts.Client().Get(ts.URL + "/stats")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var st StatsResponse
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	if st.Entities != len(g.Entities) || st.IndexRows == 0 || st.Dim != 64 || st.FastScanKernel != "" || st.FastScanPrune != nil {
		t.Fatalf("stats = %+v", st) // an 8-bit PQ index runs no fast-scan kernel
	}
	fs, err := tModel.WithIndex(index.Spec{Compress: true, FastScan: true, PQ: tModel.Config().PQ})
	if err != nil {
		t.Fatal(err)
	}
	fsHandler := New(g, fs).Handler()
	fsHandler.ServeHTTP(httptest.NewRecorder(), httptest.NewRequest("GET", "/lookup?q="+url.QueryEscape(g.Entities[0].Label), nil))
	rec := httptest.NewRecorder()
	fsHandler.ServeHTTP(rec, httptest.NewRequest("GET", "/stats", nil))
	if err := json.NewDecoder(rec.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	if st.FastScanKernel != index.FastScanKernel() {
		t.Fatalf("fast-scan stats name kernel %q, want %q", st.FastScanKernel, index.FastScanKernel())
	}
	// A 200-row index: the lookup above swept every row, its one cluster,
	// and re-ranked at least the heap's k of them.
	if p := st.FastScanPrune; p == nil || p.Scans < 1 || p.Rows < int64(len(g.Entities)) || p.Clusters < p.Scans || p.Candidates < 1 {
		t.Fatalf("fast-scan stats carry prune counts %+v after a lookup", p)
	}

	h, err := ts.Client().Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	h.Body.Close()
	if h.StatusCode != 200 {
		t.Fatalf("healthz status %d", h.StatusCode)
	}
}

func TestMethodRouting(t *testing.T) {
	_, s := testServer(t)
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	// GET on /bulk must 405 (it is POST-only).
	resp, err := ts.Client().Get(ts.URL + "/bulk")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != 405 {
		t.Fatalf("GET /bulk status %d, want 405", resp.StatusCode)
	}
}

// servingServer builds a Server routed through the full serving substrate
// (sharded scans + mention cache).
func servingServer(t *testing.T) (*kg.Graph, *Server, *serve.Serve) {
	t.Helper()
	g, m := testModel(t)
	sv, err := serve.New(m, serve.Options{
		Shards:    2,
		CacheSize: 256,
	})
	if err != nil {
		t.Fatal(err)
	}
	return g, New(g, m, WithServe(sv)), sv
}

func fetchLookup(t *testing.T, client *http.Client, base, q string, k int) LookupResponse {
	t.Helper()
	resp, err := client.Get(base + "/lookup?q=" + strings.ReplaceAll(q, " ", "+") + fmt.Sprintf("&k=%d", k))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != 200 {
		t.Fatalf("lookup status %d", resp.StatusCode)
	}
	var lr LookupResponse
	if err := json.NewDecoder(resp.Body).Decode(&lr); err != nil {
		t.Fatal(err)
	}
	return lr
}

func fetchBulk(t *testing.T, client *http.Client, base string, queries []string, k int) []LookupResponse {
	t.Helper()
	body := strings.Join(queries, "\n") + "\n"
	resp, err := client.Post(base+fmt.Sprintf("/bulk?k=%d", k), "text/plain", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != 200 {
		t.Fatalf("bulk status %d", resp.StatusCode)
	}
	dec := json.NewDecoder(resp.Body)
	var lines []LookupResponse
	for dec.More() {
		var lr LookupResponse
		if err := dec.Decode(&lr); err != nil {
			t.Fatal(err)
		}
		lines = append(lines, lr)
	}
	return lines
}

func sameHits(t *testing.T, ctx string, want, got []Hit) {
	t.Helper()
	if len(want) != len(got) {
		t.Fatalf("%s: %d vs %d hits", ctx, len(want), len(got))
	}
	for i := range want {
		if want[i].ID != got[i].ID || want[i].Score != got[i].Score {
			t.Fatalf("%s: hit %d diverges: %+v vs %+v", ctx, i, want[i], got[i])
		}
	}
}

// TestServeConcurrentEndpoints hammers /lookup and /bulk with 16 goroutines
// through the full serving substrate and checks every response against the
// sequential ground truth from the plain (direct-model) server. The first
// phase runs cache-cold, the second fully cache-warm; run under -race this
// exercises the cache shards and the sharded scan merge concurrently.
func TestServeConcurrentEndpoints(t *testing.T) {
	g, plain := testServer(t)
	_, srv, sv := servingServer(t)

	tsPlain := httptest.NewServer(plain.Handler())
	defer tsPlain.Close()
	tsServe := httptest.NewServer(srv.Handler())
	defer tsServe.Close()

	const k = 5
	queries := make([]string, 8)
	want := make([][]Hit, len(queries))
	for i := range queries {
		queries[i] = g.Entities[i].Label
		want[i] = fetchLookup(t, tsPlain.Client(), tsPlain.URL, queries[i], k).Results
	}
	bulkWant := make([]LookupResponse, 0)
	bulkWant = append(bulkWant, fetchBulk(t, tsPlain.Client(), tsPlain.URL, queries, k)...)

	for _, phase := range []string{"cold", "warm"} {
		var wg sync.WaitGroup
		for w := 0; w < 16; w++ {
			wg.Add(1)
			go func(w int) {
				defer wg.Done()
				client := tsServe.Client()
				for i := 0; i < 10; i++ {
					qi := (w + i) % len(queries)
					got := fetchLookup(t, client, tsServe.URL, queries[qi], k)
					sameHits(t, fmt.Sprintf("%s /lookup %q worker %d", phase, queries[qi], w), want[qi], got.Results)
					if w%4 == 0 && i%5 == 0 {
						lines := fetchBulk(t, client, tsServe.URL, queries, k)
						if len(lines) != len(queries) {
							t.Errorf("%s /bulk: %d lines", phase, len(lines))
							return
						}
						for j := range lines {
							sameHits(t, fmt.Sprintf("%s /bulk line %d", phase, j), bulkWant[j].Results, lines[j].Results)
						}
					}
				}
			}(w)
		}
		wg.Wait()
		if phase == "cold" {
			if st := sv.Stats(); st.Cache == nil || st.Cache.Entries == 0 {
				t.Fatalf("cache never populated: %+v", st)
			}
		}
	}
	st := sv.Stats()
	if st.Cache.Hits == 0 {
		t.Fatalf("warm phase produced no cache hits: %+v", *st.Cache)
	}
}

// TestStatsServing checks that /stats exposes the serving counters of the
// substrate WithServe passed, and otherwise those of the one-shard,
// cacheless substrate the server built itself.
func TestStatsServing(t *testing.T) {
	g, srv, _ := servingServer(t)
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	fetchLookup(t, ts.Client(), ts.URL, g.Entities[0].Label, 3)
	fetchLookup(t, ts.Client(), ts.URL, g.Entities[0].Label, 3) // warm hit

	resp, err := ts.Client().Get(ts.URL + "/stats")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var st StatsResponse
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	if st.Serving == nil {
		t.Fatal("serving stats missing with WithServe")
	}
	if st.Serving.Shards != 2 || st.Serving.Cache == nil || st.Serving.Cache.Hits == 0 {
		t.Fatalf("serving stats = %+v", *st.Serving)
	}

	// A plain server reports the substrate it built itself: one shard, no
	// cache, and no query batcher in /stats or /metrics.
	_, m := testModel(t)
	tsPlain := httptest.NewServer(New(g, m, WithMetrics(obs.New())).Handler())
	defer tsPlain.Close()
	fetchLookup(t, tsPlain.Client(), tsPlain.URL, g.Entities[0].Label, 3)
	get := func(path string) []byte {
		resp, err := tsPlain.Client().Get(tsPlain.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		body, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatal(err)
		}
		return body
	}
	var stP struct {
		Serving map[string]json.RawMessage `json:"serving"`
	}
	if err := json.Unmarshal(get("/stats"), &stP); err != nil {
		t.Fatal(err)
	}
	_, hasCache := stP.Serving["cache"]
	_, hasCoalescer := stP.Serving["coalescer"]
	if string(stP.Serving["shards"]) != "1" || hasCache || hasCoalescer {
		t.Fatalf("plain server's serving stats = %s, want one shard, no cache and no coalescer", stP.Serving)
	}
	metrics := string(get("/metrics"))
	if !strings.Contains(metrics, "emblookup_serve_lookup_seconds") || strings.Contains(metrics, "emblookup_coalescer_") {
		t.Fatalf("plain server's /metrics: want the serve latency and no emblookup_coalescer_ series:\n%s", metrics)
	}
}

// TestPprofGating checks that /debug/pprof/ is mounted only with WithPprof.
func TestPprofGating(t *testing.T) {
	g, m := testModel(t)

	plain := httptest.NewServer(New(g, m).Handler())
	defer plain.Close()
	resp, err := plain.Client().Get(plain.URL + "/debug/pprof/")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode == 200 {
		t.Fatal("pprof exposed without WithPprof")
	}

	prof := httptest.NewServer(New(g, m, WithPprof()).Handler())
	defer prof.Close()
	resp, err = prof.Client().Get(prof.URL + "/debug/pprof/")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != 200 {
		t.Fatalf("pprof index status %d with WithPprof", resp.StatusCode)
	}
}

// TestLookupHandlerAllocs pins the allocations of one solo GET /lookup
// through the handler, on the single-node Server and on a tenant route over
// the same model generation and serving substrate. Both run the one shared
// handler, so the tenant route may cost only its admission budget (1, the
// TestTenantAdmissionAllocs rule) more. The query repeats, so the lookup
// under the handler is a cache hit and the count is the front-end's.
func TestLookupHandlerAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("under the race detector sync.Pool drops entries at random, and the count with them")
	}
	gp, mp := tenantArtifacts(t)
	g, _ := testModel(t)
	reg, err := tenant.NewRegistry(tenant.Config{Tenants: []tenant.TenantConfig{{Name: "wd", Graph: gp, Model: mp, Shards: 1, Preload: true}}}, obs.New())
	if err != nil {
		t.Fatal(err)
	}
	defer reg.Close()
	tn, _ := reg.Tenant("wd")
	h, err := tn.Acquire()
	if err != nil {
		t.Fatal(err)
	}
	defer h.Release()
	q := url.QueryEscape(g.Entities[0].Label)
	count := func(handler http.Handler, path string) float64 {
		get := func() *httptest.ResponseRecorder {
			rec := httptest.NewRecorder()
			handler.ServeHTTP(rec, httptest.NewRequest("GET", path, nil))
			return rec
		}
		if rec := get(); rec.Code != 200 {
			t.Fatalf("%s: status %d", path, rec.Code)
		}
		return testing.AllocsPerRun(200, func() { get() })
	}
	single := count(New(h.Graph(), h.Serve().Model(), WithServe(h.Serve())).Handler(), "/lookup?k=10&q="+q)
	tenantRoute := count(NewTenantServer(reg).Handler(), "/t/wd/lookup?k=10&q="+q)
	t.Logf("solo /lookup: %.0f allocs/op on Server, %.0f on a tenant route", single, tenantRoute)
	const maxLookupHandlerAllocs = 28
	if single > maxLookupHandlerAllocs {
		t.Errorf("Server /lookup: %.0f allocs/op, budget %d", single, maxLookupHandlerAllocs)
	}
	if tenantRoute > single+1 {
		t.Errorf("tenant /lookup: %.0f allocs/op, budget %.0f (Server's %.0f + 1 admission)", tenantRoute, single+1, single)
	}
}

// TestBulkHandlerAllocs pins the allocations of one 256-line POST /bulk
// through the handler: the reply's hits are one buffer re-sliced per line
// (and the graph lock one span), not a slice per line — 255 allocations a
// request the handler used to make on the path whose garbage is the
// benchmark's rss_peak_mb. The budget is the count measured when the plain
// server called the model directly, 1 091 (1 346 before); through its own
// serving substrate, which answers a repeated line once, 855; with the
// replies appended into one pooled buffer instead of encoded line by line,
// 589, the budget. The lookup under it (core.BulkLookup, root
// alloc_test.go) is most of it.
func TestBulkHandlerAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("under the race detector sync.Pool drops entries at random, and the count with them")
	}
	g, s := testServer(t)
	var body strings.Builder
	for i := 0; i < 256; i++ {
		body.WriteString(g.Entities[i%len(g.Entities)].Label + "\n")
	}
	h := s.Handler()
	post := func() *httptest.ResponseRecorder {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest("POST", "/bulk?k=10", strings.NewReader(body.String())))
		return rec
	}
	if rec := post(); rec.Code != 200 || strings.Count(rec.Body.String(), "\n") != 256 {
		t.Fatalf("bulk reply: status %d, %d lines", rec.Code, strings.Count(rec.Body.String(), "\n"))
	}
	const maxBulkHandlerAllocs = 589
	n := testing.AllocsPerRun(20, func() { post() })
	t.Logf("256-line /bulk: %.0f allocs/op", n)
	if n > maxBulkHandlerAllocs {
		t.Errorf("256-line /bulk: %.0f allocs/op, budget %d", n, maxBulkHandlerAllocs)
	}
}
