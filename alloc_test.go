package emblookup_test

// The allocation guard for the observability subsystem: metrics recording,
// the request context and untraced span plumbing must not cost the hot path
// a single allocation. These are the same budgets BenchmarkLookupAllocs
// reports and cmd/benchkg snapshots into BENCH_lookup.json — asserted here as
// a test so `make verify` (and plain `go test`) fails loudly if
// instrumentation ever leaks an allocation into the query path.

import (
	"context"
	"path/filepath"
	"testing"

	"emblookup/internal/artifact"
	"emblookup/internal/core"
	"emblookup/internal/kg"
	"emblookup/internal/ngram"
	"emblookup/internal/obs"
	"emblookup/internal/serve"
	"emblookup/internal/tenant"
)

// Allocation budgets of the end-to-end query path with metrics enabled:
// Lookup = result slice + its candidate backing + two query-normalization
// scratch strings; Embed = the returned vector + normalization scratch.
const (
	maxLookupAllocs = 4
	maxEmbedAllocs  = 3
)

// Attach budgets for the zero-copy v4 path: LoadFile on an mmap'd artifact
// allocates model scaffolding (encoder, section views, and the
// known-mention view — a binary-searched window onto the sorted on-disk
// section, no per-mention set rebuild) — a count that depends on the
// architecture, never on how many entities the index holds.
const (
	maxAttachAllocs  = 512 // measured 215 for a PQ model, any entity count
	attachAllocSlack = 16
)

// epochAllocSlack bounds how much the total allocation count of one
// ngram.Model.Train call may grow when the epoch count quadruples — the
// reused trainScratch means extra epochs of the loop itself are free.
const epochAllocSlack = 8

func TestLookupAllocsWithMetrics(t *testing.T) {
	if testing.Short() {
		t.Skip("allocation guard trains a model; skipped in -short")
	}
	_, m, _ := model(t)
	obs.Default().SetEnabled(true)

	// Warm the scratch pools and lazily-built index state so steady-state
	// allocation is what gets measured.
	for i := 0; i < 8; i++ {
		m.Lookup("Bramonia Ridge", 10)
		m.Embed("Bramonia Ridge")
		m.LookupCtx(context.Background(), "Bramonia Ridge", 10)
	}

	if n := testing.AllocsPerRun(200, func() {
		m.Lookup("Bramonia Ridge", 10)
	}); n > maxLookupAllocs {
		t.Errorf("Lookup with metrics enabled: %.1f allocs/op, budget %d", n, maxLookupAllocs)
	}
	if n := testing.AllocsPerRun(200, func() {
		m.Embed("Bramonia Ridge")
	}); n > maxEmbedAllocs {
		t.Errorf("Embed with metrics enabled: %.1f allocs/op, budget %d", n, maxEmbedAllocs)
	}
	// A request context is free: a cancellable, untraced one — what every
	// served lookup runs under — holds the same budget, and putting a trace
	// on it costs the one context.WithValue and nothing else (span records
	// amortize into the trace's own slice, so one trace takes every run's).
	live, cancel := context.WithCancel(context.Background())
	defer cancel()
	if n := testing.AllocsPerRun(200, func() {
		m.LookupCtx(live, "Bramonia Ridge", 10)
	}); n > maxLookupAllocs {
		t.Errorf("LookupCtx under a cancellable context: %.1f allocs/op, budget %d", n, maxLookupAllocs)
	}
	tr := obs.NewTrace()
	if n := testing.AllocsPerRun(200, func() {
		m.LookupCtx(obs.WithTrace(live, tr), "Bramonia Ridge", 10)
	}); n > maxLookupAllocs+1 {
		t.Errorf("LookupCtx under a traced context: %.1f allocs/op, budget %d + 1", n, maxLookupAllocs)
	}

	// The fast-scan path shares the budget: its extra state (uint8 LUT,
	// fused pair tables) lives in the same pooled scratch.
	fs, err := m.WithFastScan()
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 8; i++ {
		fs.Lookup("Bramonia Ridge", 10)
	}
	if n := testing.AllocsPerRun(200, func() {
		fs.Lookup("Bramonia Ridge", 10)
	}); n > maxLookupAllocs {
		t.Errorf("fast-scan Lookup with metrics enabled: %.1f allocs/op, budget %d", n, maxLookupAllocs)
	}
}

// maxDynamicLookupAllocs is the Lookup budget on a WithDynamicIndex model.
// Measured 4 at the commit before the one search contract, where Dynamic
// dropped its caller's scratch — a second pooled checkout and a fresh
// result slice for the base segment's hits per query; 3 now that context,
// scratch and a scratch-owned buffer pass through to the base, which is
// what a lookup on the sealed model costs.
const maxDynamicLookupAllocs = 3

func TestDynamicLookupAllocs(t *testing.T) {
	if testing.Short() {
		t.Skip("allocation guard trains a model; skipped in -short")
	}
	_, m, _ := model(t)
	dyn := m.WithDynamicIndex(0)
	for i := 0; i < 8; i++ {
		dyn.Lookup("Bramonia Ridge", 10)
	}
	if n := testing.AllocsPerRun(200, func() {
		dyn.Lookup("Bramonia Ridge", 10)
	}); n > maxDynamicLookupAllocs {
		t.Errorf("Lookup on a dynamic index: %.1f allocs/op, budget %d", n, maxDynamicLookupAllocs)
	}
}

// maxBulkAllocs is the allocation budget of one 256-query BulkLookup on the
// sharded fast-scan model (what serve runs): two normalization strings per
// query plus 16 for the batch. Measured 531 at the commit before the
// query-major batch scan (its per-(shard, query) state came from pooled
// scratches, free in steady state) and 528 with per-worker state and one
// result arena, so the budget is the old number.
const maxBulkAllocs = 531

// TestBulkLookupAllocs guards the batch path's fixed allocation count: the
// batch scan's per-query state lives in flat per-batch arenas, so a bulk
// request allocates no more than it did when that state came from pooled
// scratches.
func TestBulkLookupAllocs(t *testing.T) {
	if testing.Short() {
		t.Skip("allocation guard trains a model; skipped in -short")
	}
	g, m, _ := model(t)
	fs, err := m.WithFastScan()
	if err != nil {
		t.Fatal(err)
	}
	sh, err := fs.WithShardedIndex(4, 0)
	if err != nil {
		t.Fatal(err)
	}
	queries := make([]string, 256)
	for i := range queries {
		queries[i] = g.Entities[i%len(g.Entities)].Label
	}
	for i := 0; i < 4; i++ {
		sh.BulkLookup(queries, 10, 0)
	}
	if n := testing.AllocsPerRun(20, func() { sh.BulkLookup(queries, 10, 0) }); n > maxBulkAllocs {
		t.Errorf("BulkLookup of 256 on the sharded fast-scan model: %.0f allocs/op, budget %d", n, maxBulkAllocs)
	} else {
		t.Logf("BulkLookup of 256: %.0f allocs/op", n)
	}
}

// TestTenantAdmissionAllocs guards the multi-tenant admission gate: the
// uncontended Acquire/Release pair is allocation-free, so routing a lookup
// through a tenant costs at most one allocation over the single-tenant
// budget (the per-request deadline context, paid only when a deadline is
// actually set — the bare admission wrap here must stay within
// maxLookupAllocs + 1).
func TestTenantAdmissionAllocs(t *testing.T) {
	if testing.Short() {
		t.Skip("allocation guard trains a model; skipped in -short")
	}
	_, m, _ := model(t)
	obs.Default().SetEnabled(true)

	adm := tenant.NewAdmission("alloc-guard", tenant.Limits{RatePerSec: 1e9, MaxConcurrent: 64})
	ctx := context.Background()
	for i := 0; i < 8; i++ {
		if err := adm.Acquire(ctx); err != nil {
			t.Fatal(err)
		}
		m.Lookup("Bramonia Ridge", 10)
		adm.Release()
	}

	if n := testing.AllocsPerRun(200, func() {
		if err := adm.Acquire(ctx); err != nil {
			t.Fatal(err)
		}
		adm.Release()
	}); n > 0 {
		t.Errorf("uncontended Acquire/Release: %.1f allocs/op, want 0", n)
	}
	if n := testing.AllocsPerRun(200, func() {
		if err := adm.Acquire(ctx); err != nil {
			t.Fatal(err)
		}
		m.Lookup("Bramonia Ridge", 10)
		adm.Release()
	}); n > maxLookupAllocs+1 {
		t.Errorf("admitted lookup: %.1f allocs/op, budget %d (single-tenant %d + 1 admission)",
			n, maxLookupAllocs+1, maxLookupAllocs)
	}
}

// TestServeSoloMissAllocs guards the coalescer's idle path: a serve miss
// that finds a core free runs the single-query lookup on its own goroutine,
// so the whole substrate — gate, counters, histograms — may add at most the
// normalized query string to the direct lookup's budget. (A queued request
// pays for its queue entry, channel and the bulk call's slices; an idle
// coalescer must not.)
func TestServeSoloMissAllocs(t *testing.T) {
	if testing.Short() {
		t.Skip("allocation guard trains a model; skipped in -short")
	}
	_, m, _ := model(t)
	obs.Default().SetEnabled(true)
	sv, err := serve.New(m, serve.Options{CacheSize: -1, Registry: obs.New()})
	if err != nil {
		t.Fatal(err)
	}
	defer sv.Close()
	for i := 0; i < 8; i++ {
		sv.Lookup("Bramonia Ridge", 10)
	}
	if n := testing.AllocsPerRun(200, func() {
		sv.Lookup("Bramonia Ridge", 10)
	}); n > maxLookupAllocs+1 {
		t.Errorf("serve miss on an idle coalescer: %.1f allocs/op, budget %d (direct lookup %d + 1)",
			n, maxLookupAllocs+1, maxLookupAllocs)
	}
	if st := sv.Stats().Coalescer; st.Batches != st.Queries {
		t.Errorf("idle coalescer formed batches: %+v", st)
	}
}

// TestNgramEpochLoopAllocFree guards the reused per-step training scratch
// of the semantic phase: once feature extraction is memoized (first epoch)
// every further epoch of the sequential loop runs out of one trainScratch,
// so the total allocation count of a Train call is independent of the
// epoch count.
func TestNgramEpochLoopAllocFree(t *testing.T) {
	m := ngram.NewModel(32, 1<<12, 7)
	pairs := []ngram.Pair{
		{Label: "alpha station", Synonym: "alpha stn"},
		{Label: "borel ridge", Synonym: "borel mountain ridge"},
		{Label: "cassiopeia relay", Synonym: "cassiopeia relay node"},
		{Label: "delta works", Synonym: "deltaworks"},
		{Label: "erebus gate", Synonym: "gate of erebus"},
		{Label: "fornax hub", Synonym: "fornax central hub"},
	}
	negatives := make([]string, 0, len(pairs))
	for _, p := range pairs {
		negatives = append(negatives, p.Label)
	}
	cfgAt := func(epochs int) ngram.TrainConfig {
		cfg := ngram.DefaultTrainConfig()
		cfg.Epochs = epochs
		return cfg
	}
	// One warm-up run registers the mentions in the model's known set so
	// both measurements see identical model state.
	m.Train(pairs, negatives, cfgAt(1))
	a1 := testing.AllocsPerRun(10, func() { m.Train(pairs, negatives, cfgAt(1)) })
	a4 := testing.AllocsPerRun(10, func() { m.Train(pairs, negatives, cfgAt(4)) })
	t.Logf("ngram Train allocs: %.1f at 1 epoch, %.1f at 4 epochs", a1, a4)
	if diff := a4 - a1; diff > epochAllocSlack {
		t.Errorf("epoch loop allocates: %.1f allocs at 1 epoch vs %.1f at 4 (slack %d)", a1, a4, epochAllocSlack)
	}
}

// TestAttachAllocsSizeIndependent guards the zero-copy promise of the v4
// artifact format (DESIGN.md §12): attaching a model by mmap allocates a
// fixed number of objects, not O(model size) — the payloads stay in the
// page cache. A 300-entity and a 2000-entity model must attach with nearly
// the same allocation count, and both under a fixed budget.
func TestAttachAllocsSizeIndependent(t *testing.T) {
	if testing.Short() {
		t.Skip("attach guard trains a model; skipped in -short")
	}
	if !artifact.Supported() {
		t.Skip("this host does not write v4 artifacts")
	}
	gBig, mBig, _ := model(t)

	gSmall, _ := kg.Generate(kg.DefaultGeneratorConfig(kg.WikidataProfile, 300))
	cfg := core.FastConfig()
	cfg.Epochs = 2
	mSmall, err := core.Train(gSmall, cfg)
	if err != nil {
		t.Fatal(err)
	}

	dir := t.TempDir()
	bigPath := filepath.Join(dir, "big.v4")
	smallPath := filepath.Join(dir, "small.v4")
	if err := mBig.SaveFileWithIndex(bigPath); err != nil {
		t.Fatal(err)
	}
	if err := mSmall.SaveFileWithIndex(smallPath); err != nil {
		t.Fatal(err)
	}

	attach := func(path string, g *kg.Graph) float64 {
		return testing.AllocsPerRun(10, func() {
			lm, err := core.LoadFile(path, g)
			if err != nil {
				t.Fatal(err)
			}
			lm.Close()
		})
	}
	smallN := attach(smallPath, gSmall)
	bigN := attach(bigPath, gBig)
	t.Logf("attach allocs: %.0f (300 entities), %.0f (2000 entities)", smallN, bigN)
	if smallN > maxAttachAllocs || bigN > maxAttachAllocs {
		t.Errorf("attach allocs %.0f/%.0f exceed budget %d", smallN, bigN, maxAttachAllocs)
	}
	if diff := bigN - smallN; diff > attachAllocSlack || diff < -attachAllocSlack {
		t.Errorf("attach allocations scale with model size: %.0f allocs at 300 entities vs %.0f at 2000 (slack %d)",
			smallN, bigN, attachAllocSlack)
	}
}
