package tenant

import (
	"os"
	"path/filepath"
	"sync"
	"testing"

	"emblookup/internal/core"
	"emblookup/internal/kg"
	"emblookup/internal/obs"
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
	if !old.retired.Load() {
		t.Fatal("old generation not retired after swap")
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
	if refs := old.refs.Load(); refs != 1 {
		t.Fatalf("old generation refs = %d, want 1 (just this test)", refs)
	}
	old.Release()
	if refs := old.refs.Load(); refs != 0 {
		t.Fatalf("old generation refs = %d after final release, want 0", refs)
	}
	if res := fresh.Serve().Lookup(q, 3); len(res) == 0 {
		t.Fatal("new generation not serving")
	}
	fresh.Release()
}

// TestRegistryAcquireSwapRace hammers Acquire/Release against concurrent
// Swaps; under -race this exercises the retired-handle retry loop.
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
	h.Release()
	if refs := h.refs.Load(); refs != 0 {
		t.Fatalf("refs = %d after final release", refs)
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
	if _, err := NewRegistry(Config{}, obs.New()); err == nil {
		t.Fatal("NewRegistry accepted an empty config")
	}
}

// TestLoadConfigIgnoresWindowUs: a conf.json written before the coalescer
// lost its flush window still loads, the dead field ignored.
func TestLoadConfigIgnoresWindowUs(t *testing.T) {
	path := filepath.Join(t.TempDir(), "conf.json")
	conf := `{"tenants":[{"name":"a","graph":"g.bin","model":"m.bin","maxBatch":8,"windowUs":200}]}`
	if err := os.WriteFile(path, []byte(conf), 0o644); err != nil {
		t.Fatal(err)
	}
	c, err := LoadConfig(path)
	if err != nil {
		t.Fatalf("config with a leftover windowUs refused: %v", err)
	}
	if len(c.Tenants) != 1 || c.Tenants[0].MaxBatch != 8 {
		t.Fatalf("config = %+v", c)
	}
}
