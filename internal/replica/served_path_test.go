package replica

import (
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"net/url"
	"path/filepath"
	"strings"
	"testing"

	"emblookup/internal/core"
	"emblookup/internal/kg"
	"emblookup/internal/obs"
	"emblookup/internal/serve"
	"emblookup/internal/server"
	"emblookup/internal/tenant"
)

// TestServedPathNeverIndexes: a graph's mention and adjacency indexes are
// derived by whoever first reads them (kg.Graph), and nothing a served
// request runs does — not /lookup, /bulk or the hybrid re-rank of the plain
// server, not a tenant route, not a partition node's /partition/search, a
// routed lookup or a routed /ingest across a 2×2 replicated cluster (every
// node a Clone of the loaded graph), not a direct /ingest that grows the
// loaded graph itself. /stats says so from the outside.
func TestServedPathNeverIndexes(t *testing.T) {
	g0, m0 := testModel(t)
	dir := t.TempDir()
	gp, mp := filepath.Join(dir, "graph.bin"), filepath.Join(dir, "model.bin")
	if err := g0.SaveFile(gp); err != nil {
		t.Fatal(err)
	}
	if err := m0.SaveFileWithIndex(mp); err != nil {
		t.Fatal(err)
	}
	g, err := kg.LoadFile(gp)
	if err != nil {
		t.Fatal(err)
	}
	m, err := core.LoadFile(mp, g)
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()
	label := url.QueryEscape(g.Entities[3].Label)
	bulk := g.Entities[0].Label + "\n" + g.Entities[1].Label + "x\n"
	get := func(u string, into any) {
		t.Helper()
		resp, err := http.Get(u)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		body, _ := io.ReadAll(resp.Body)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("GET %s: %d %s", u, resp.StatusCode, body)
		}
		if err := json.Unmarshal(body, into); err != nil {
			t.Fatalf("GET %s: %v in %s", u, err, body)
		}
	}
	post := func(u, body string) {
		t.Helper()
		resp, err := http.Post(u, "text/plain", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		if b, _ := io.ReadAll(resp.Body); resp.StatusCode != http.StatusOK {
			t.Fatalf("POST %s: %d %s", u, resp.StatusCode, b)
		}
	}
	var lr server.LookupResponse

	// The plain server over the coalescing serve layer.
	sv, err := serve.New(m, serve.Options{Registry: obs.New()})
	if err != nil {
		t.Fatal(err)
	}
	defer sv.Close()
	plain := httptest.NewServer(server.New(g, m, server.WithServe(sv)).Handler())
	defer plain.Close()
	get(plain.URL+"/lookup?k=3&q="+label, &lr)
	get(plain.URL+"/lookup?k=3&hybrid=1&q="+label, &lr)
	if len(lr.Results) == 0 || lr.Results[0].Label != g.Entities[3].Label {
		t.Fatalf("hybrid lookup of an exact label = %+v", lr.Results)
	}
	post(plain.URL+"/bulk?k=2", bulk)

	// A tenant route: its own LoadFile of the same graph file.
	reg, err := tenant.NewRegistry(tenant.Config{Tenants: []tenant.TenantConfig{
		{Name: "t", Graph: gp, Model: mp, Shards: 1},
	}}, obs.New())
	if err != nil {
		t.Fatal(err)
	}
	defer reg.Close()
	tenants := httptest.NewServer(server.NewTenantServer(reg).Handler())
	defer tenants.Close()
	get(tenants.URL+"/t/t/lookup?k=3&hybrid=1&q="+label, &lr)
	post(tenants.URL+"/t/t/bulk?k=2", bulk)
	var ts tenant.TenantStats
	get(tenants.URL+"/t/t/stats", &ts)
	if !ts.Loaded || ts.Entities != len(g.Entities) || ts.GraphIndexed {
		t.Fatalf("tenant stats = %+v, want a loaded, unindexed graph", ts)
	}

	// A replicated cluster: partition nodes and a router, all on Clones.
	opts := fastOptions()
	opts.Replicas = 2
	c, err := Start(m, 2, opts)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	router := httptest.NewServer(c.Router.Handler())
	defer router.Close()
	get(router.URL+"/lookup?k=3&q="+label, &lr)
	post(router.URL+"/bulk?k=2", bulk)
	items := ingestItems()
	if err := c.Router.Ingest(t.Context(), items, true); err != nil {
		t.Fatal(err)
	}
	if res := c.Router.Lookup(items[0].Label, 1); len(res.Candidates) != 1 || int(res.Candidates[0].ID) != len(g.Entities) {
		t.Fatalf("routed lookup of an ingested entity = %+v", res)
	}
	for p, reps := range c.nodes {
		for j, n := range reps {
			var st server.StatsResponse
			get(n.URL+"/stats", &st)
			if st.GraphIndexed || n.model.Graph().Indexed() || n.model.Graph() == g {
				t.Fatalf("node %d/%d: graph indexed (or not a clone); stats %+v", p, j, st)
			}
		}
	}

	// A direct /ingest grows the loaded graph itself.
	dm := m.WithDynamicIndex(64)
	in, err := dm.NewIngestor(8)
	if err != nil {
		t.Fatal(err)
	}
	defer in.Close()
	direct := httptest.NewServer(server.New(g, dm, server.WithIngest(in)).Handler())
	defer direct.Close()
	post(direct.URL+"/ingest?flush=1", `{"newEntity":true,"label":"Zanzibar Quantum Relay","aliases":["ZQR"]}`)
	get(direct.URL+"/lookup?k=1&q=Zanzibar+Quantum+Relay", &lr)
	if len(lr.Results) != 1 || lr.Results[0].Label != "Zanzibar Quantum Relay" {
		t.Fatalf("ingested entity not served: %+v", lr.Results)
	}

	var st server.StatsResponse
	get(direct.URL+"/stats", &st)
	if st.Entities != len(g0.Entities)+1 || st.GraphIndexed || g.Indexed() {
		t.Fatalf("after every served path: stats %+v, Indexed() = %v", st, g.Indexed())
	}
	// And the stats field is not stuck at false.
	g.ExactMatch("zqr")
	get(direct.URL+"/stats", &st)
	if !st.GraphIndexed {
		t.Fatal("/stats does not report an index someone built")
	}
}
