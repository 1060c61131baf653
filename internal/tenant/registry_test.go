package tenant

import (
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"

	"emblookup/internal/core"
	"emblookup/internal/kg"
	"emblookup/internal/obs"
	"emblookup/internal/procmaps"
)

var (
	artOnce  sync.Once
	artDir   string
	artGraph *kg.Graph
	artModel *core.EmbLookup
	artErr   error
)

// testArtifacts trains one small model and saves graph + model (with index
// artifact) once for the whole package; tenants in the tests attach these
// files the way production attaches v4 artifacts.
func testArtifacts(t *testing.T) (graphPath, modelPath string) {
	t.Helper()
	artOnce.Do(func() {
		g, _ := kg.Generate(kg.DefaultGeneratorConfig(kg.WikidataProfile, 200))
		cfg := core.FastConfig()
		cfg.Epochs = 2
		cfg.TripletsPerEntity = 8
		m, err := core.Train(g, cfg)
		if err != nil {
			artErr = err
			return
		}
		dir, err := os.MkdirTemp("", "tenanttest")
		if err != nil {
			artErr = err
			return
		}
		if err := g.SaveFile(filepath.Join(dir, "graph.bin")); err != nil {
			artErr = err
			return
		}
		if err := m.SaveFileWithIndex(filepath.Join(dir, "model.bin")); err != nil {
			artErr = err
			return
		}
		artDir, artGraph, artModel = dir, g, m
	})
	if artErr != nil {
		t.Fatal(artErr)
	}
	return filepath.Join(artDir, "graph.bin"), filepath.Join(artDir, "model.bin")
}

func testRegistry(t *testing.T, tenants ...TenantConfig) *Registry {
	t.Helper()
	r, err := NewRegistry(Config{Tenants: tenants}, obs.New())
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(r.Close)
	return r
}

func TestRegistryLazyLoad(t *testing.T) {
	gp, mp := testArtifacts(t)
	r := testRegistry(t, TenantConfig{Name: "a", Graph: gp, Model: mp, Shards: 1})
	tn, ok := r.Tenant("a")
	if !ok {
		t.Fatal("tenant a missing")
	}
	if tn.Loaded() {
		t.Fatal("tenant loaded before first request")
	}
	h, err := tn.Acquire()
	if err != nil {
		t.Fatal(err)
	}
	defer h.Release()
	if !tn.Loaded() {
		t.Fatal("tenant not loaded after Acquire")
	}
	// The attached model answers bit-identically to the in-memory donor.
	q := artGraph.Entities[3].Label
	want := artModel.Lookup(q, 5)
	got := h.Serve().Lookup(q, 5)
	if len(want) != len(got) {
		t.Fatalf("%d vs %d candidates", len(want), len(got))
	}
	for i := range want {
		if want[i] != got[i] {
			t.Fatalf("candidate %d diverges: %+v vs %+v", i, want[i], got[i])
		}
	}
	if _, ok := r.Tenant("nope"); ok {
		t.Fatal("unknown tenant resolved")
	}
}

func TestRegistryPreload(t *testing.T) {
	gp, mp := testArtifacts(t)
	r := testRegistry(t, TenantConfig{Name: "a", Graph: gp, Model: mp, Shards: 1, Preload: true})
	tn, _ := r.Tenant("a")
	if !tn.Loaded() {
		t.Fatal("preload tenant not loaded at construction")
	}
}

// TestRegistrySwapDrain checks the hot-swap lifecycle: the old generation
// keeps serving its in-flight request across a Swap and closes only when
// that request releases it; new acquires land on the new generation
// immediately.
func TestRegistrySwapDrain(t *testing.T) {
	gp, mp := testArtifacts(t)
	r := testRegistry(t, TenantConfig{Name: "a", Graph: gp, Model: mp, Shards: 1, Preload: true})
	tn, _ := r.Tenant("a")

	old, err := tn.Acquire()
	if err != nil {
		t.Fatal(err)
	}
	if err := tn.Swap(); err != nil {
		t.Fatal(err)
	}
	if tn.cur.Load() == old {
		t.Fatal("the current generation did not move on swap")
	}
	// Still pinned: the old handle must keep answering.
	q := artGraph.Entities[1].Label
	if res := old.Serve().Lookup(q, 3); len(res) == 0 {
		t.Fatal("retired-but-pinned handle stopped serving")
	}

	fresh, err := tn.Acquire()
	if err != nil {
		t.Fatal(err)
	}
	if fresh == old {
		t.Fatal("Acquire after swap returned the retired generation")
	}
	old.Release() // the last reference: the swap dropped the registry's
	if old.refs.Acquire() {
		t.Fatal("the drained generation took a new reference")
	}
	if res := fresh.Serve().Lookup(q, 3); len(res) == 0 {
		t.Fatal("new generation not serving")
	}
	fresh.Release()
}

// TestRegistryAcquireSwapRace hammers Acquire/Release against concurrent
// Swaps; under -race this exercises Acquire's turn past a drained handle.
func TestRegistryAcquireSwapRace(t *testing.T) {
	gp, mp := testArtifacts(t)
	r := testRegistry(t, TenantConfig{Name: "a", Graph: gp, Model: mp, Shards: 1, Preload: true})
	tn, _ := r.Tenant("a")
	q := artGraph.Entities[0].Label

	var wg sync.WaitGroup
	for c := 0; c < 8; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 20; i++ {
				h, err := tn.Acquire()
				if err != nil {
					t.Error(err)
					return
				}
				if res := h.Serve().Lookup(q, 3); len(res) == 0 {
					t.Error("empty result during swap churn")
				}
				h.Release()
			}
		}()
	}
	for i := 0; i < 3; i++ {
		if err := tn.Swap(); err != nil {
			t.Fatal(err)
		}
	}
	wg.Wait()
}

// inodes returns the inodes of the mappings of path.
func inodes(t *testing.T, path string) map[uint64]bool {
	t.Helper()
	out := map[uint64]bool{}
	for _, m := range procmaps.Under(t, path) {
		out[m.Inode] = true
	}
	return out
}

// TestSwapUnmapsRetiredArtifact rewrites a sharded tenant's artifact in
// place, swaps, and drains the old generation: the old file must leave the
// process map, the new one stay in it. The serve substrate's sharded
// sibling holds a reference of its own, so this fails if Handle's close
// misses it.
func TestSwapUnmapsRetiredArtifact(t *testing.T) {
	gp, src := testArtifacts(t)
	mp := filepath.Join(t.TempDir(), "model.bin")
	raw, err := os.ReadFile(src)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(mp, raw, 0o644); err != nil {
		t.Fatal(err)
	}
	r := testRegistry(t, TenantConfig{Name: "a", Graph: gp, Model: mp, Shards: 2, Preload: true})
	tn, _ := r.Tenant("a")
	old, err := tn.Acquire()
	if err != nil {
		t.Fatal(err)
	}
	before := inodes(t, mp)
	if len(before) != 1 {
		t.Fatalf("first generation maps %d files, want 1", len(before))
	}
	// A re-save renames a new file into place, as a redeploy does.
	if err := artModel.SaveFileWithIndex(mp); err != nil {
		t.Fatal(err)
	}
	if err := tn.Swap(); err != nil {
		t.Fatal(err)
	}
	if now := inodes(t, mp); len(now) != 2 {
		t.Fatalf("%d files mapped while the old generation is pinned, want 2", len(now))
	}
	old.Release()
	after := inodes(t, mp)
	for ino := range before {
		if after[ino] {
			t.Fatalf("retired generation's artifact (inode %d) still mapped after its drain", ino)
		}
	}
	if len(after) != 1 {
		t.Fatalf("%d files mapped after the swap, want the new generation's 1", len(after))
	}
}

func TestRegistryCloseWithPinnedHandle(t *testing.T) {
	gp, mp := testArtifacts(t)
	r, err := NewRegistry(Config{Tenants: []TenantConfig{
		{Name: "a", Graph: gp, Model: mp, Shards: 1, Preload: true},
	}}, obs.New())
	if err != nil {
		t.Fatal(err)
	}
	tn, _ := r.Tenant("a")
	h, err := tn.Acquire()
	if err != nil {
		t.Fatal(err)
	}
	r.Close()
	// The registry dropped its reference but this request still holds one.
	q := artGraph.Entities[2].Label
	if res := h.Serve().Lookup(q, 3); len(res) == 0 {
		t.Fatal("pinned handle stopped serving after registry close")
	}
	if tn.cur.Load() != nil {
		t.Fatal("registry close left a current generation")
	}
	h.Release()
	if h.refs.Acquire() {
		t.Fatal("the drained generation took a new reference")
	}
}

func TestConfigValidate(t *testing.T) {
	gp, mp := testArtifacts(t)
	cases := []struct {
		name string
		cfg  Config
	}{
		{"empty", Config{}},
		{"unnamed", Config{Tenants: []TenantConfig{{Graph: gp, Model: mp}}}},
		{"duplicate", Config{Tenants: []TenantConfig{
			{Name: "a", Graph: gp, Model: mp},
			{Name: "a", Graph: gp, Model: mp},
		}}},
		{"no paths", Config{Tenants: []TenantConfig{{Name: "a"}}}},
	}
	for _, tc := range cases {
		if err := tc.cfg.Validate(); err == nil {
			t.Errorf("%s: Validate accepted an invalid config", tc.name)
		}
	}
	// A limit that would refuse every request is named with its tenant; a
	// negative that means "off" is accepted.
	one := func(l Limits) Config {
		return Config{Tenants: []TenantConfig{{Name: "wd", Graph: gp, Model: mp, Limits: l}}}
	}
	for field, l := range map[string]Limits{
		"maxConcurrent": {MaxConcurrent: -1},
		"maxK":          {MaxK: -1},
		"maxBatch":      {MaxBatch: -2},
		"burst":         {RatePerSec: 5, Burst: 0.5},
	} {
		err := one(l).Validate()
		if err == nil || !strings.Contains(err.Error(), `"wd"`) || !strings.Contains(err.Error(), "limits."+field) {
			t.Errorf("%s: Validate = %v, want an error naming tenant \"wd\" and limits.%s", field, err, field)
		}
	}
	if err := one(Limits{QueueDepth: -1, DefaultDeadlineMs: -1, MaxDeadlineMs: -1, Burst: 0.5}).Validate(); err != nil {
		t.Errorf("negatives that turn a limit off refused: %v", err)
	}
	if _, err := NewRegistry(Config{}, obs.New()); err == nil {
		t.Fatal("NewRegistry accepted an empty config")
	}
}

// TestLoadConfigIgnoresWindowUs: a conf.json written before the coalescer
// lost its flush window and its tenant-level maxBatch (the coalescer cap)
// still loads, both dead fields ignored; limits.maxBatch, the /bulk cap
// that shared the key, is read as before.
func TestLoadConfigIgnoresWindowUs(t *testing.T) {
	for _, c := range []struct {
		conf string
		want int // limits.maxBatch after defaults
	}{
		{`{"tenants":[{"name":"a","graph":"g.bin","model":"m.bin","windowUs":200}]}`, 4096},
		{`{"tenants":[{"name":"a","graph":"g.bin","model":"m.bin","maxBatch":8,"windowUs":200}]}`, 4096},
		{`{"tenants":[{"name":"a","graph":"g.bin","model":"m.bin","maxBatch":8,"limits":{"maxBatch":3}}]}`, 3},
	} {
		path := filepath.Join(t.TempDir(), "conf.json")
		if err := os.WriteFile(path, []byte(c.conf), 0o644); err != nil {
			t.Fatal(err)
		}
		cfg, err := LoadConfig(path)
		if err != nil {
			t.Fatalf("config with leftover fields refused: %v\n%s", err, c.conf)
		}
		if len(cfg.Tenants) != 1 || cfg.Tenants[0].Limits.withDefaults().MaxBatch != c.want {
			t.Fatalf("config = %+v, want limits.maxBatch %d\n%s", cfg, c.want, c.conf)
		}
	}
}

// TestTenantSeriesApart holds two tenants on one registry to series of
// their own: after one miss and four hits on a (the same query five times)
// /metrics shows a's cache counts and five lookups, and b's none.
func TestTenantSeriesApart(t *testing.T) {
	gp, mp := testArtifacts(t)
	reg := obs.New()
	r, err := NewRegistry(Config{Tenants: []TenantConfig{
		{Name: "a", Graph: gp, Model: mp, Shards: 1, Preload: true},
		{Name: "b", Graph: gp, Model: mp, Shards: 1, Preload: true},
	}}, reg)
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	tn, _ := r.Tenant("a")
	h, err := tn.Acquire()
	if err != nil {
		t.Fatal(err)
	}
	for range 5 {
		h.Serve().Lookup(artGraph.Entities[3].Label, 5)
	}
	h.Release()
	var out strings.Builder
	if err := reg.WritePrometheus(&out); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{
		`emblookup_cache_hits_total{tenant="a"} 4`,
		`emblookup_cache_misses_total{tenant="a"} 1`,
		`emblookup_cache_hits_total{tenant="b"} 0`,
		`emblookup_cache_misses_total{tenant="b"} 0`,
		`emblookup_serve_lookup_seconds_count{tenant="a"} 5`,
		`emblookup_serve_lookup_seconds_count{tenant="b"} 0`,
		`emblookup_lookup_stage_seconds_count{tenant="a",stage="normalize"} 5`,
	} {
		if !strings.Contains(out.String(), want+"\n") {
			t.Errorf("/metrics lacks %q", want)
		}
	}
	if t.Failed() {
		t.Log(out.String())
	}
}
