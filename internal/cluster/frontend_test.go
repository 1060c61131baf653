package cluster

import (
	"bytes"
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"net/url"
	"path/filepath"
	"slices"
	"strings"
	"testing"
	"time"

	"emblookup/internal/obs"
	"emblookup/internal/serve"
	"emblookup/internal/server"
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

// conformingFrontEnd is one of the three lookup front-ends under test.
type conformingFrontEnd struct {
	name   string
	prefix string // where its /lookup and /bulk live
	tenant string // the tenant its errors name
	h      http.Handler
	slow   *obs.SlowLog
}

// frontEnds builds every lookup front-end over one model: the single-node
// Server, a tenant route over the model's saved artifacts, and a
// 2-partition router. Each logs every request (slow-log threshold 0).
func frontEnds(t *testing.T) []conformingFrontEnd {
	g, m := testModel(t)
	dir := t.TempDir()
	gp, mp := filepath.Join(dir, "graph.bin"), filepath.Join(dir, "model.bin")
	if err := g.SaveFile(gp); err != nil {
		t.Fatal(err)
	}
	if err := m.SaveFileWithIndex(mp); err != nil {
		t.Fatal(err)
	}
	reg, err := tenant.NewRegistry(tenant.Config{Tenants: []tenant.TenantConfig{{Name: "wd", Graph: gp, Model: mp, Shards: 1}}}, obs.New())
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(reg.Close)
	opts := fastRouterOptions()
	opts.Registry = obs.New()
	l, err := StartLocal(m, 2, LocalOptions{Router: opts})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(l.Close)
	slow := func() *obs.SlowLog { return obs.NewSlowLog(0, 8) }
	s, ts, rs := slow(), slow(), slow()
	return []conformingFrontEnd{
		{"server", "", "", server.New(g, m, server.WithSlowLog(s)).Handler(), s},
		{"tenant", "/t/wd", "wd", server.NewTenantServer(reg, server.WithSlowLog(ts)).Handler(), ts},
		{"router", "", "", l.Router.Handler(server.WithSlowLog(rs)), rs},
	}
}

// conformanceCase is one request every front-end must answer alike.
type conformanceCase struct {
	method, path, body string
	spent              bool // run under an already expired context
	status             int
	code               string // the ErrorBody code of a failure
}

// TestFrontEndConformance runs the same requests against the single-node
// Server, a tenant route and the cluster router: the same status and error
// code everywhere (the tenant's error naming its tenant), 504s slow-logged
// with their trace, ?trace=1 echoing spans, ?hybrid=1 applied on /lookup
// and /bulk, and every 200's results byte-equal to the single node's.
func TestFrontEndConformance(t *testing.T) {
	g, m := testModel(t)
	fes := frontEnds(t)

	// A query whose exact-string re-rank reorders its candidates, so a
	// route that ignored ?hybrid=1 would show.
	var hq string
	for _, q := range testQueries(g) {
		plain := m.Lookup(q, 10)
		if !slices.Equal(plain, serve.HybridRerank(q, plain, g.Label)) {
			hq = q
			break
		}
	}
	if hq == "" {
		t.Fatal("no test query is reordered by the hybrid re-rank")
	}
	label := url.QueryEscape(g.Entities[0].Label)
	lines := g.Entities[0].Label + "\n" + hq + "\n"
	long := strings.Repeat("y", 100<<10) // past bufio.Scanner's default 64 KiB token
	lim := server.DefaultLimits()
	cases := []conformanceCase{
		{method: "GET", path: "/lookup?k=3", status: 400, code: "bad_request"},
		{method: "GET", path: "/lookup?q=" + label + "&deadline_ms=bogus", status: 400, code: "bad_request"},
		{method: "POST", path: "/bulk", body: strings.Repeat("a", int(lim.MaxBulkBytes)) + "\n", status: 413, code: "body_too_large"},
		{method: "POST", path: "/bulk", body: strings.Repeat("x\n", lim.MaxBulkQueries+1), status: 400, code: "batch_too_large"},
		{method: "POST", path: "/bulk?k=2", body: lines + long + "\n", status: 200},
		{method: "GET", path: "/lookup?q=" + label + "&deadline_ms=1", spent: true, status: 504, code: "deadline_exceeded"},
		{method: "POST", path: "/bulk?deadline_ms=1", body: lines, spent: true, status: 504, code: "deadline_exceeded"},
		{method: "GET", path: "/lookup?q=" + label + "&k=3&trace=1", status: 200},
		{method: "GET", path: "/lookup?k=10&q=" + url.QueryEscape(hq), status: 200},
		{method: "GET", path: "/lookup?k=10&hybrid=1&q=" + url.QueryEscape(hq), status: 200},
		{method: "POST", path: "/bulk?k=10&hybrid=1", body: lines, status: 200},
	}
	for _, c := range strictKCases {
		k := url.QueryEscape(c.k)
		code := ""
		if c.status != 200 {
			code = "k_too_large"
		}
		cases = append(cases,
			conformanceCase{method: "GET", path: "/lookup?q=" + label + "&k=" + k, status: c.status, code: code},
			conformanceCase{method: "POST", path: "/bulk?k=" + k, body: lines, status: c.status, code: code})
	}

	for _, c := range cases {
		var want [][]byte // the single node's results, line by line
		for _, fe := range fes {
			ctx, cancel := context.Background(), context.CancelFunc(func() {})
			if c.spent {
				ctx, cancel = context.WithDeadline(ctx, time.Now().Add(-time.Second))
			}
			rec := httptest.NewRecorder()
			fe.h.ServeHTTP(rec, httptest.NewRequest(c.method, fe.prefix+c.path, strings.NewReader(c.body)).WithContext(ctx))
			cancel()
			where := fe.name + " " + c.method + " " + fe.prefix + c.path
			if rec.Code != c.status {
				t.Errorf("%s: status %d, want %d: %.200s", where, rec.Code, c.status, rec.Body)
				continue
			}
			if c.status != 200 {
				var eb server.ErrorBody
				if err := json.Unmarshal(rec.Body.Bytes(), &eb); err != nil || eb.Error.Code != c.code || eb.Error.Tenant != fe.tenant {
					t.Errorf("%s: error body %s, want code %q naming tenant %q", where, rec.Body, c.code, fe.tenant)
				}
				if c.status == 504 {
					route := fe.prefix + c.path[:strings.IndexByte(c.path, '?')]
					if e := fe.slow.Snapshot(); len(e) == 0 || e[0].Route != route || len(e[0].TraceID) != 16 {
						t.Errorf("%s: 504 not slow-logged with its trace: %+v", where, e)
					}
				}
				continue
			}
			got := replyResults(t, where, rec.Body.Bytes())
			if strings.Contains(c.path, "trace=1") {
				var lr server.LookupResponse
				json.Unmarshal(rec.Body.Bytes(), &lr)
				if names := spanNames(lr.Trace); len(lr.TraceID) != 16 || names["embed"] == 0 || names["merge"] == 0 {
					t.Errorf("%s: traceId %q, spans %v", where, lr.TraceID, names)
				}
			}
			if want == nil {
				want = got
				continue
			}
			if len(got) != len(want) {
				t.Errorf("%s: %d reply lines, the single node's %d", where, len(got), len(want))
				continue
			}
			for i := range want {
				if !bytes.Equal(got[i], want[i]) {
					t.Errorf("%s: line %d results\n%s\nthe single node's\n%s", where, i, got[i], want[i])
				}
			}
		}
	}

	// The single node's hybrid answer is the re-rank of its plain one.
	rec := httptest.NewRecorder()
	fes[0].h.ServeHTTP(rec, httptest.NewRequest("GET", "/lookup?k=10&hybrid=1&q="+url.QueryEscape(hq), nil))
	var lr server.LookupResponse
	if err := json.Unmarshal(rec.Body.Bytes(), &lr); err != nil {
		t.Fatal(err)
	}
	want := serve.HybridRerank(hq, m.Lookup(hq, 10), g.Label)
	if len(lr.Results) != len(want) {
		t.Fatalf("hybrid: %d results, want %d", len(lr.Results), len(want))
	}
	for i, h := range lr.Results {
		if h.ID != int32(want[i].ID) || h.Score != want[i].Score {
			t.Fatalf("hybrid result %d = %+v, want %+v", i, h, want[i])
		}
	}
}

// replyResults splits a /lookup reply or a /bulk NDJSON reply into the raw
// results of each line.
func replyResults(t *testing.T, where string, body []byte) [][]byte {
	t.Helper()
	var out [][]byte
	dec := json.NewDecoder(bytes.NewReader(body))
	for dec.More() {
		var line struct {
			Results json.RawMessage `json:"results"`
			Partial bool            `json:"partial"`
		}
		if err := dec.Decode(&line); err != nil {
			t.Fatalf("%s: %v in %.200s", where, err, body)
		}
		if line.Partial {
			t.Fatalf("%s: partial reply", where)
		}
		out = append(out, line.Results)
	}
	return out
}
