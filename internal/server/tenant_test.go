package server

import (
	"bytes"
	"encoding/gob"
	"encoding/json"
	"errors"
	"io"
	"net/http"
	"net/http/httptest"
	"net/url"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"sync"
	"testing"

	"emblookup/internal/artifact"
	"emblookup/internal/obs"
	"emblookup/internal/tenant"
)

var (
	tenantOnce sync.Once
	tenantDir  string
	tenantErr  error
)

// tenantArtifacts saves the shared test model as on-disk artifacts once.
func tenantArtifacts(t *testing.T) (graphPath, modelPath string) {
	t.Helper()
	g, m := testModel(t)
	tenantOnce.Do(func() {
		dir, err := os.MkdirTemp("", "tenantsrv")
		if err != nil {
			tenantErr = err
			return
		}
		if err := g.SaveFile(filepath.Join(dir, "graph.bin")); err != nil {
			tenantErr = err
			return
		}
		if err := m.SaveFileWithIndex(filepath.Join(dir, "model.bin")); err != nil {
			tenantErr = err
			return
		}
		tenantDir = dir
	})
	if tenantErr != nil {
		t.Fatal(tenantErr)
	}
	return filepath.Join(tenantDir, "graph.bin"), filepath.Join(tenantDir, "model.bin")
}

func tenantTestServer(t *testing.T, tenants ...tenant.TenantConfig) (*httptest.Server, *tenant.Registry) {
	t.Helper()
	reg, err := tenant.NewRegistry(tenant.Config{Tenants: tenants}, obs.New())
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(reg.Close)
	ts := httptest.NewServer(NewTenantServer(reg).Handler())
	t.Cleanup(ts.Close)
	return ts, reg
}

func decodeErrorBody(t *testing.T, resp *http.Response) ErrorDetail {
	t.Helper()
	var eb ErrorBody
	if err := json.NewDecoder(resp.Body).Decode(&eb); err != nil {
		t.Fatalf("error body is not structured JSON: %v", err)
	}
	if eb.Error.Code == "" {
		t.Fatal("error body has no code")
	}
	return eb.Error
}

func TestTenantLookupAndStats(t *testing.T) {
	gp, mp := tenantArtifacts(t)
	g, _ := testModel(t)
	ts, _ := tenantTestServer(t,
		tenant.TenantConfig{Name: "wd", Graph: gp, Model: mp, Shards: 1},
		tenant.TenantConfig{Name: "db", Graph: gp, Model: mp, Shards: 1},
	)

	label := g.Entities[0].Label
	resp, err := ts.Client().Get(ts.URL + "/t/wd/lookup?k=3&q=" + url.QueryEscape(label))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != 200 {
		body, _ := io.ReadAll(resp.Body)
		t.Fatalf("status %d: %s", resp.StatusCode, body)
	}
	var lr LookupResponse
	if err := json.NewDecoder(resp.Body).Decode(&lr); err != nil {
		t.Fatal(err)
	}
	if len(lr.Results) == 0 || lr.Results[0].Label != label {
		t.Fatalf("results = %+v", lr.Results)
	}

	// Global stats show both tenants; only the queried one is loaded.
	resp, err = ts.Client().Get(ts.URL + "/stats")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var st TenantsStatsResponse
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	if len(st.Tenants) != 2 {
		t.Fatalf("stats tenants = %d", len(st.Tenants))
	}
	byName := map[string]tenant.TenantStats{}
	for _, s := range st.Tenants {
		byName[s.Name] = s
	}
	if !byName["wd"].Loaded || byName["wd"].Admission.Admitted != 1 {
		t.Fatalf("wd stats = %+v", byName["wd"])
	}
	if byName["db"].Loaded {
		t.Fatal("db loaded without ever being queried (lazy load broken)")
	}

	// Per-tenant stats route.
	resp, err = ts.Client().Get(ts.URL + "/t/wd/stats")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var one tenant.TenantStats
	if err := json.NewDecoder(resp.Body).Decode(&one); err != nil {
		t.Fatal(err)
	}
	if one.Name != "wd" || !one.Loaded {
		t.Fatalf("tenant stats = %+v", one)
	}
}

func TestTenantUnknown404(t *testing.T) {
	gp, mp := tenantArtifacts(t)
	ts, _ := tenantTestServer(t, tenant.TenantConfig{Name: "wd", Graph: gp, Model: mp, Shards: 1})
	resp, err := ts.Client().Get(ts.URL + "/t/nope/lookup?q=x")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != 404 {
		t.Fatalf("status %d, want 404", resp.StatusCode)
	}
	if d := decodeErrorBody(t, resp); d.Code != "tenant_not_found" {
		t.Fatalf("code = %q", d.Code)
	}
}

// TestTenantLimitValidation: per-tenant MaxK/MaxBatch violations are 400s
// with structured bodies naming the violated limit. The tenant comes from a
// conf.json entry that still carries the retired tenant-level maxBatch (the
// old coalescer cap): limits.maxBatch alone bounds /bulk.
func TestTenantLimitValidation(t *testing.T) {
	gp, mp := tenantArtifacts(t)
	var tc tenant.TenantConfig
	if err := json.Unmarshal([]byte(`{"name":"wd","shards":1,"maxBatch":8,"limits":{"maxK":5,"maxBatch":3}}`), &tc); err != nil {
		t.Fatal(err)
	}
	tc.Graph, tc.Model = gp, mp
	ts, _ := tenantTestServer(t, tc)

	resp, err := ts.Client().Get(ts.URL + "/t/wd/lookup?q=x&k=6")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != 400 {
		t.Fatalf("k over limit: status %d, want 400", resp.StatusCode)
	}
	d := decodeErrorBody(t, resp)
	if d.Code != "k_too_large" || d.Limit != 5 || d.Tenant != "wd" {
		t.Fatalf("error detail = %+v", d)
	}

	resp, err = ts.Client().Post(ts.URL+"/t/wd/bulk?k=2", "text/plain",
		strings.NewReader("a\nb\nc\nd\n"))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != 400 {
		t.Fatalf("batch over limit: status %d, want 400", resp.StatusCode)
	}
	d = decodeErrorBody(t, resp)
	if d.Code != "batch_too_large" || d.Limit != 3 {
		t.Fatalf("error detail = %+v", d)
	}

	// Missing q and malformed deadline are 400s too.
	for _, u := range []string{"/t/wd/lookup?k=3", "/t/wd/lookup?q=x&deadline_ms=bogus"} {
		resp, err := ts.Client().Get(ts.URL + u)
		if err != nil {
			t.Fatal(err)
		}
		if resp.StatusCode != 400 {
			t.Fatalf("%s: status %d, want 400", u, resp.StatusCode)
		}
		decodeErrorBody(t, resp)
		resp.Body.Close()
	}
}

// TestTenantRateLimit429: past the token bucket the server answers 429 with
// a Retry-After header and a structured body carrying the same hint.
func TestTenantRateLimit429(t *testing.T) {
	gp, mp := tenantArtifacts(t)
	g, _ := testModel(t)
	ts, _ := tenantTestServer(t, tenant.TenantConfig{
		Name: "wd", Graph: gp, Model: mp, Shards: 1,
		Limits: tenant.Limits{RatePerSec: 0.001, Burst: 2},
	})
	q := url.QueryEscape(g.Entities[0].Label)
	var got429 *http.Response
	for i := 0; i < 3; i++ {
		resp, err := ts.Client().Get(ts.URL + "/t/wd/lookup?k=3&q=" + q)
		if err != nil {
			t.Fatal(err)
		}
		if resp.StatusCode == http.StatusTooManyRequests {
			got429 = resp
			break
		}
		resp.Body.Close()
		if resp.StatusCode != 200 {
			t.Fatalf("request %d: status %d", i, resp.StatusCode)
		}
	}
	if got429 == nil {
		t.Fatal("no 429 after draining a 2-token bucket")
	}
	defer got429.Body.Close()
	if ra := got429.Header.Get("Retry-After"); ra == "" {
		t.Fatal("429 without Retry-After header")
	}
	d := decodeErrorBody(t, got429)
	if d.Code != tenant.ReasonRateLimited || d.RetryAfterMs <= 0 {
		t.Fatalf("error detail = %+v", d)
	}
}

// TestTenantDeadline504: an impossible deadline is answered 504 with a
// structured body and increments the tenant's deadline_exceeded counter
// exactly once.
func TestTenantDeadline504(t *testing.T) {
	gp, mp := tenantArtifacts(t)
	ts, reg := tenantTestServer(t, tenant.TenantConfig{
		Name: "wd", Graph: gp, Model: mp, Shards: 1, CacheSize: -1, Preload: true,
	})
	resp, err := ts.Client().Get(ts.URL + "/t/wd/lookup?q=zzz&deadline_ms=1")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	// 1ms may occasionally be enough on a fast machine; only assert the
	// error contract when the deadline actually fired.
	if resp.StatusCode == http.StatusGatewayTimeout {
		d := decodeErrorBody(t, resp)
		if d.Code != "deadline_exceeded" {
			t.Fatalf("error detail = %+v", d)
		}
		tn, _ := reg.Tenant("wd")
		if got := tn.Stats().DeadlineExceeded; got != 1 {
			t.Fatalf("deadline_exceeded = %d, want exactly 1", got)
		}
	} else if resp.StatusCode != 200 {
		t.Fatalf("status %d", resp.StatusCode)
	}
}

// TestTenantHybridLookup: ?hybrid=1 returns the same candidate set
// re-ordered deterministically.
func TestTenantHybridLookup(t *testing.T) {
	gp, mp := tenantArtifacts(t)
	g, _ := testModel(t)
	ts, _ := tenantTestServer(t, tenant.TenantConfig{Name: "wd", Graph: gp, Model: mp, Shards: 1})
	q := url.QueryEscape(g.Entities[1].Label)

	fetch := func(u string) []Hit {
		resp, err := ts.Client().Get(ts.URL + u)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		if resp.StatusCode != 200 {
			t.Fatalf("%s: status %d", u, resp.StatusCode)
		}
		var lr LookupResponse
		if err := json.NewDecoder(resp.Body).Decode(&lr); err != nil {
			t.Fatal(err)
		}
		return lr.Results
	}
	plain := fetch("/t/wd/lookup?k=5&q=" + q)
	hybrid := fetch("/t/wd/lookup?k=5&q=" + q + "&hybrid=1")
	again := fetch("/t/wd/lookup?k=5&q=" + q + "&hybrid=1")
	if len(hybrid) != len(plain) {
		t.Fatalf("hybrid changed the candidate count: %d vs %d", len(hybrid), len(plain))
	}
	ids := map[int32]bool{}
	for _, h := range plain {
		ids[h.ID] = true
	}
	for i, h := range hybrid {
		if !ids[h.ID] {
			t.Fatalf("hybrid invented candidate %d", h.ID)
		}
		if h.ID != again[i].ID || h.Score != again[i].Score {
			t.Fatalf("hybrid ordering not deterministic at %d: %+v vs %+v", i, h, again[i])
		}
	}
	// The exact surface-form match must be ranked first under hybrid.
	if hybrid[0].Label != g.Entities[1].Label {
		t.Fatalf("exact match not first under hybrid: %+v", hybrid[0])
	}
}

// TestTenantReload: POST /t/{tenant}/reload hot-swaps without breaking
// subsequent lookups.
func TestTenantReload(t *testing.T) {
	gp, mp := tenantArtifacts(t)
	g, _ := testModel(t)
	ts, reg := tenantTestServer(t, tenant.TenantConfig{Name: "wd", Graph: gp, Model: mp, Shards: 1, Preload: true})
	resp, err := ts.Client().Post(ts.URL+"/t/wd/reload", "", nil)
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != 200 {
		t.Fatalf("reload status %d", resp.StatusCode)
	}
	q := url.QueryEscape(g.Entities[0].Label)
	resp, err = ts.Client().Get(ts.URL + "/t/wd/lookup?k=3&q=" + q)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != 200 {
		t.Fatalf("lookup after reload: status %d", resp.StatusCode)
	}
	tn, _ := reg.Tenant("wd")
	if !tn.Loaded() {
		t.Fatal("tenant unloaded after reload")
	}
}

// TestTenantReloadRefusesNonV4: a reload whose model or graph file is not a
// v4 artifact — a gob stream, as builds before v4 wrote, an empty file, 8
// random bytes — answers 503 model_unavailable with a message that names
// no part of the artifact path (Swap's error, which wraps
// artifact.ErrNotV4, goes to the server log), and the tenant keeps
// answering from the generation it had.
func TestTenantReloadRefusesNonV4(t *testing.T) {
	goodGraph, goodModel := tenantArtifacts(t)
	g, _ := testModel(t)
	dir := t.TempDir()
	// Each file is swapped by rename, so the live generation's mapping of
	// the old model file stays valid.
	place := func(path string, data []byte) {
		t.Helper()
		tmp := path + ".tmp"
		if err := os.WriteFile(tmp, data, 0o644); err != nil {
			t.Fatal(err)
		}
		if err := os.Rename(tmp, path); err != nil {
			t.Fatal(err)
		}
	}
	good := map[string][]byte{}
	for name, src := range map[string]string{"graph.bin": goodGraph, "model.bin": goodModel} {
		data, err := os.ReadFile(src)
		if err != nil {
			t.Fatal(err)
		}
		good[name] = data
		place(filepath.Join(dir, name), data)
	}
	ts, reg := tenantTestServer(t, tenant.TenantConfig{Name: "wd", Graph: filepath.Join(dir, "graph.bin"), Model: filepath.Join(dir, "model.bin"), Shards: 1, Preload: true})
	tn, _ := reg.Tenant("wd")
	q := url.QueryEscape(g.Entities[0].Label + "x")
	answer := func() []Hit {
		t.Helper()
		resp, err := ts.Client().Get(ts.URL + "/t/wd/lookup?k=5&q=" + q)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		var lr LookupResponse
		if resp.StatusCode != 200 || json.NewDecoder(resp.Body).Decode(&lr) != nil || len(lr.Results) == 0 {
			t.Fatalf("lookup: status %d, %+v", resp.StatusCode, lr)
		}
		return lr.Results
	}
	reload := func() int {
		t.Helper()
		resp, err := ts.Client().Post(ts.URL+"/t/wd/reload", "", nil)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		if resp.StatusCode != 200 {
			e := decodeErrorBody(t, resp)
			if e.Code != "model_unavailable" {
				t.Fatalf("reload refused with code %q, want model_unavailable", e.Code)
			}
			// The server's file layout stays on the server: no part of the
			// artifact path reaches the client.
			for _, part := range append(strings.Split(dir, string(filepath.Separator)), "graph.bin", "model.bin", "EMBLKV4") {
				if part != "" && strings.Contains(e.Message, part) {
					t.Fatalf("reload refusal %q names %q of the artifact path %s", e.Message, part, dir)
				}
			}
		}
		return resp.StatusCode
	}
	before := answer()

	var stream bytes.Buffer
	if err := gob.NewEncoder(&stream).Encode(struct{ Version int }{3}); err != nil {
		t.Fatal(err)
	}
	inputs := map[string][]byte{"gob stream": stream.Bytes(), "empty": {}, "8 random bytes": {0x9c, 0x41, 0x07, 0xee, 0x5a, 0x13, 0xd2, 0x68}}
	for input, data := range inputs {
		for _, file := range []string{"graph.bin", "model.bin"} {
			place(filepath.Join(dir, file), data)
			if code := reload(); code != http.StatusServiceUnavailable {
				t.Fatalf("%s as %s: reload status %d, want 503", input, file, code)
			}
			if err := tn.Swap(); !errors.Is(err, artifact.ErrNotV4) {
				t.Fatalf("%s as %s: Swap error %v, want artifact.ErrNotV4", input, file, err)
			}
			if after := answer(); !slices.Equal(after, before) {
				t.Fatalf("%s as %s: the tenant answers %+v after the refused reload, %+v before", input, file, after, before)
			}
			place(filepath.Join(dir, file), good[file])
		}
	}
	if code := reload(); code != 200 {
		t.Fatalf("reload of the restored files: status %d", code)
	}
	if after := answer(); !slices.Equal(after, before) {
		t.Fatalf("the reloaded generation answers %+v, the first %+v", after, before)
	}
}

// TestTenantBulk exercises the NDJSON bulk route end to end.
func TestTenantBulk(t *testing.T) {
	gp, mp := tenantArtifacts(t)
	g, _ := testModel(t)
	ts, _ := tenantTestServer(t, tenant.TenantConfig{Name: "wd", Graph: gp, Model: mp, Shards: 1})
	body := g.Entities[0].Label + "\n" + g.Entities[1].Label + "\n"
	resp, err := ts.Client().Post(ts.URL+"/t/wd/bulk?k=3", "text/plain", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != 200 {
		t.Fatalf("status %d", resp.StatusCode)
	}
	dec := json.NewDecoder(resp.Body)
	var rows []LookupResponse
	for dec.More() {
		var lr LookupResponse
		if err := dec.Decode(&lr); err != nil {
			t.Fatal(err)
		}
		rows = append(rows, lr)
	}
	if len(rows) != 2 {
		t.Fatalf("rows = %d", len(rows))
	}
	for i, lr := range rows {
		if len(lr.Results) == 0 || lr.Results[0].Label != g.Entities[i].Label {
			t.Fatalf("row %d = %+v", i, lr)
		}
	}
}

// TestTenantDefaultKBound: a request that names no k gets the default 10
// candidates clipped to the tenant's maxK, on /lookup and on every /bulk
// line, as an explicit k past it is refused.
func TestTenantDefaultKBound(t *testing.T) {
	gp, mp := tenantArtifacts(t)
	g, _ := testModel(t)
	ts, _ := tenantTestServer(t, tenant.TenantConfig{Name: "wd", Graph: gp, Model: mp, Shards: 1,
		Limits: tenant.Limits{MaxK: 3}})
	q := g.Entities[0].Label
	var lr LookupResponse
	resp, err := ts.Client().Get(ts.URL + "/t/wd/lookup?q=" + url.QueryEscape(q))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if err := json.NewDecoder(resp.Body).Decode(&lr); err != nil || resp.StatusCode != 200 {
		t.Fatalf("status %d, %v", resp.StatusCode, err)
	}
	if len(lr.Results) != 3 {
		t.Fatalf("/lookup without k: %d results, want the tenant's maxK 3", len(lr.Results))
	}
	resp, err = ts.Client().Post(ts.URL+"/t/wd/bulk", "text/plain", strings.NewReader(q+"\n"+g.Entities[1].Label+"\n"))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	dec := json.NewDecoder(resp.Body)
	lines := 0
	for ; dec.More(); lines++ {
		if err := dec.Decode(&lr); err != nil {
			t.Fatal(err)
		}
		if len(lr.Results) != 3 {
			t.Fatalf("/bulk line %d without k: %d results, want the tenant's maxK 3", lines, len(lr.Results))
		}
	}
	if resp.StatusCode != 200 || lines != 2 {
		t.Fatalf("/bulk without k: status %d, %d lines", resp.StatusCode, lines)
	}
}
