package serve

import (
	"context"
	"fmt"
	"slices"
	"sync"
	"testing"

	"emblookup/internal/core"
	"emblookup/internal/index"
	"emblookup/internal/kg"
	"emblookup/internal/lookup"
	"emblookup/internal/obs"
)

var (
	modelOnce sync.Once
	tGraph    *kg.Graph
	tModel    *core.EmbLookup
	tErr      error
)

// testModel trains one small model shared by every test in the package.
func testModel(t *testing.T) (*kg.Graph, *core.EmbLookup) {
	t.Helper()
	modelOnce.Do(func() {
		g, _ := kg.Generate(kg.DefaultGeneratorConfig(kg.WikidataProfile, 200))
		cfg := core.FastConfig()
		cfg.Epochs = 2
		cfg.TripletsPerEntity = 8
		m, err := core.Train(g, cfg)
		if err != nil {
			tErr = err
			return
		}
		tGraph, tModel = g, m
	})
	if tErr != nil {
		t.Fatal(tErr)
	}
	return tGraph, tModel
}

func sameCandidates(t *testing.T, ctx string, want, got []lookup.Candidate) {
	t.Helper()
	if len(want) != len(got) {
		t.Fatalf("%s: %d vs %d candidates", ctx, len(want), len(got))
	}
	for i := range want {
		if want[i] != got[i] {
			t.Fatalf("%s: candidate %d diverges: %+v vs %+v", ctx, i, want[i], got[i])
		}
	}
}

func TestMentionCacheBasics(t *testing.T) {
	c := NewMentionCache(4)
	val := []lookup.Candidate{{ID: 1, Score: -2}}
	if _, ok := c.Get("a", 5, 0); ok {
		t.Fatal("empty cache hit")
	}
	c.Put("a", 5, 0, val)
	got, ok := c.Get("a", 5, 0)
	if !ok {
		t.Fatal("miss after put")
	}
	sameCandidates(t, "cache value", val, got)
	// Different k is a different entry.
	if _, ok := c.Get("a", 6, 0); ok {
		t.Fatal("k must be part of the key")
	}
	st := c.Stats()
	if st.Hits != 1 || st.Misses != 2 {
		t.Fatalf("stats = %+v", st)
	}
}

func TestMentionCacheEviction(t *testing.T) {
	c := NewMentionCache(1) // single shard, capacity 1
	c.Put("a", 1, 0, nil)
	c.Put("b", 1, 0, nil)
	if _, ok := c.Get("a", 1, 0); ok {
		t.Fatal("LRU entry should have been evicted")
	}
	if _, ok := c.Get("b", 1, 0); !ok {
		t.Fatal("newest entry evicted")
	}
	if st := c.Stats(); st.Evictions != 1 {
		t.Fatalf("evictions = %d", st.Evictions)
	}
}

func TestMentionCacheLRUOrder(t *testing.T) {
	// Force a single segment of capacity 3 so LRU order is observable:
	// after touching "a", inserting a fourth entry must evict "b".
	c := NewMentionCache(1)
	c.shards[0].capacity = 3
	for _, m := range []string{"a", "b", "c"} {
		c.Put(m, 1, 0, []lookup.Candidate{{ID: kg.EntityID(len(m))}})
	}
	c.Get("a", 1, 0) // promote the oldest
	c.Put("d", 1, 0, nil)
	if _, ok := c.Get("b", 1, 0); ok {
		t.Fatal("b should have been the LRU victim")
	}
	for _, m := range []string{"a", "c", "d"} {
		if _, ok := c.Get(m, 1, 0); !ok {
			t.Fatalf("%q evicted unexpectedly", m)
		}
	}
}

func spanNames(tr *obs.Trace) []string {
	var names []string
	for _, sp := range tr.Spans() {
		names = append(names, sp.Name)
	}
	return names
}

// TestServeMatchesDirect is the package's core guarantee: every serving
// path — sharded index, cache-cold and cache-warm —
// returns bit-identical candidates to direct model.Lookup calls.
func TestServeMatchesDirect(t *testing.T) {
	g, m := testModel(t)
	sv, err := New(m, Options{Shards: 3, CacheSize: 64})
	if err != nil {
		t.Fatal(err)
	}
	defer sv.Close()
	queries := []string{
		g.Entities[0].Label,
		g.Entities[1].Label,
		"no such entity anywhere",
		g.Entities[0].Label, // repeat: exercises the cache
	}
	for round := 0; round < 2; round++ { // round 1 is fully cache-warm
		for _, q := range queries {
			want := m.Lookup(q, 5)
			got := sv.Lookup(q, 5)
			sameCandidates(t, fmt.Sprintf("serve round %d %q", round, q), want, got)
		}
	}
	st := sv.Stats()
	if st.Cache == nil || st.Cache.Hits == 0 {
		t.Fatalf("expected cache hits, stats = %+v", st)
	}
	if st.Shards != 3 {
		t.Fatalf("shards = %d", st.Shards)
	}
}

// Over a dynamic model the cache stays on, and an answer cached before an
// AddMention that changes it is not served after: entries carry the index
// generation read before their lookup, and a later one misses.
func TestServeDynamicCache(t *testing.T) {
	g, m := testModel(t)
	dyn := m.WithDynamicIndex(0)
	defer dyn.Close()
	if _, err := New(dyn, Options{Shards: 2}); err == nil {
		t.Fatal("a dynamic index split into 2 shards should be refused")
	}
	sv, err := New(dyn, Options{CacheSize: 64})
	if err != nil {
		t.Fatal(err)
	}
	defer sv.Close()
	const alias = "zyqqat flombrix unit"
	target := g.Entities[5].ID
	if sv.Lookup(alias, 1)[0].ID == target || sv.BulkLookup([]string{alias}, 3)[0][0].ID == target {
		t.Fatal("the alias already resolves to its entity")
	}
	sv.Lookup(alias, 1)
	sv.BulkLookup([]string{alias}, 3)
	if st := sv.Stats(); st.Shards != 1 || st.Cache == nil || st.Cache.Hits != 2 {
		t.Fatalf("want 1 shard and both repeats served from the cache, stats = %+v", st)
	}
	if _, err := dyn.AddMention(alias, target); err != nil {
		t.Fatal(err)
	}
	sameCandidates(t, "lookup after the add", dyn.Lookup(alias, 1), sv.Lookup(alias, 1))
	sameCandidates(t, "bulk after the add", dyn.Lookup(alias, 3), sv.BulkLookup([]string{alias}, 3)[0])
	if got := sv.Lookup(alias, 1); got[0].ID != target {
		t.Fatalf("after the add the alias resolves to %+v, want entity %d", got, target)
	}
	if st := sv.Stats(); st.Cache.Hits != 3 {
		t.Fatalf("the answer cached after the add was not served: %+v", st.Cache)
	}
}

func TestServeBulkDedupesMentions(t *testing.T) {
	g, m := testModel(t)
	sv, err := New(m, Options{Shards: 2, CacheSize: 32})
	if err != nil {
		t.Fatal(err)
	}
	a, b := g.Entities[2].Label, g.Entities[3].Label
	queries := []string{a, b, a, a, b}
	got := sv.BulkLookup(queries, 4)
	for i, q := range queries {
		sameCandidates(t, fmt.Sprintf("bulk query %d", i), m.Lookup(q, 4), got[i])
	}
	// 5 queries, 2 distinct mentions: all probes missed (cold), but only 2
	// lookups ran; the in-batch duplicates never became cache misses twice.
	st := sv.Stats()
	if st.Cache.Misses != 5 || st.Cache.Entries != 2 {
		t.Fatalf("cache stats = %+v", *st.Cache)
	}
	// Second pass: all hits.
	sv.BulkLookup(queries, 4)
	if st := sv.Stats(); st.Cache.Hits != 5 {
		t.Fatalf("warm pass hits = %d", st.Cache.Hits)
	}
}

func TestServeCaseNormalization(t *testing.T) {
	g, m := testModel(t)
	sv, err := New(m, Options{Shards: 1, CacheSize: 32})
	if err != nil {
		t.Fatal(err)
	}
	q := g.Entities[4].Label
	upper := ""
	for _, r := range q {
		if 'a' <= r && r <= 'z' {
			r -= 'a' - 'A'
		}
		upper += string(r)
	}
	want := sv.Lookup(q, 3)
	got := sv.Lookup(upper, 3) // must hit the cache under the normalized key
	sameCandidates(t, "case-normalized lookup", want, got)
	if st := sv.Stats(); st.Cache.Hits != 1 {
		t.Fatalf("expected a cache hit across case variants, stats = %+v", *st.Cache)
	}
	// And the normalized result must equal the direct lookup of the
	// uppercase form (embedding invariance, not just cache aliasing).
	sameCandidates(t, "embedding case invariance", m.Lookup(upper, 3), want)
}

// TestServeConcurrent (run with -race): 16 goroutines on 2 shards, with
// and without a deadline, each miss scanned on its caller's goroutine —
// every answer bit-identical to model.Lookup on a Flat, a PQ and a
// FastScan index.
func TestServeConcurrent(t *testing.T) {
	g, m := testModel(t)
	flat, err := m.WithIndex(index.Spec{})
	if err != nil {
		t.Fatal(err)
	}
	pq, err := m.WithIndex(index.Spec{Compress: true, PQ: m.Config().PQ})
	if err != nil {
		t.Fatal(err)
	}
	fs, err := m.WithIndex(index.Spec{Compress: true, FastScan: true, PQ: m.Config().PQ})
	if err != nil {
		t.Fatal(err)
	}
	for name, model := range map[string]*core.EmbLookup{"flat": flat, "pq": pq, "fastscan": fs} {
		t.Run(name, func(t *testing.T) {
			sv, err := New(model, Options{Shards: 2, CacheSize: -1})
			if err != nil {
				t.Fatal(err)
			}
			defer sv.Close()
			queries := make([]string, 8)
			want := make([][]lookup.Candidate, len(queries))
			for i := range queries {
				queries[i] = g.Entities[i].Label
				want[i] = model.Lookup(queries[i], 5)
			}
			const workers, rounds = 16, 20
			var wg sync.WaitGroup
			for w := 0; w < workers; w++ {
				wg.Add(1)
				go func(w int) {
					defer wg.Done()
					ctx, cancel := context.WithCancel(context.Background())
					defer cancel()
					for i := 0; i < rounds; i++ {
						qi := (w + i) % len(queries)
						var got []lookup.Candidate
						var err error
						if w%2 == 0 {
							got = sv.Lookup(queries[qi], 5)
						} else {
							got, err = sv.LookupCtx(ctx, queries[qi], 5)
						}
						if err != nil || !slices.Equal(got, want[qi]) {
							t.Errorf("worker %d query %d diverged (err %v)", w, qi, err)
							return
						}
					}
				}(w)
			}
			wg.Wait()
		})
	}
}

// TestServeFastScan runs the full serving stack (shards, cache)
// over a fast-scan model and checks bit-identity with direct lookups.
func TestServeFastScan(t *testing.T) {
	g, m := testModel(t)
	fs, err := m.WithIndex(index.Spec{Compress: true, FastScan: true, PQ: m.Config().PQ})
	if err != nil {
		t.Fatal(err)
	}
	sv, err := New(fs, Options{Shards: 3, CacheSize: 64})
	if err != nil {
		t.Fatal(err)
	}
	defer sv.Close()
	queries := []string{
		g.Entities[0].Label,
		g.Entities[5].Label,
		"no such entity anywhere",
		g.Entities[0].Label,
	}
	for round := 0; round < 2; round++ {
		for _, q := range queries {
			want := fs.Lookup(q, 5)
			got := sv.Lookup(q, 5)
			sameCandidates(t, fmt.Sprintf("fastscan serve round %d %q", round, q), want, got)
		}
	}
}

// TestServeDefaultShards asserts the zero Options derive the shard count
// from the index and Stats reports what the index was actually split into:
// a small PQ index and a small fast-scan index on either kernel are served
// unsharded (and answer as the model does), an explicit count is honoured
// up to one range per row, and an IVF index — which cannot be
// range-scanned — serves under the default but still refuses an explicit
// split.
func TestServeDefaultShards(t *testing.T) {
	g, m := testModel(t)
	q := g.Entities[3].Label
	sv, err := New(m, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer sv.Close()
	if got := sv.Stats().Shards; got != 1 || sv.Model() != m {
		t.Fatalf("default over %d PQ bytes: %d shards, want 1 (model rewrapped %v)",
			m.Index().SizeBytes(), got, sv.Model() != m)
	}
	sameCandidates(t, "default serve", m.Lookup(q, 5), sv.Lookup(q, 5))

	fs, err := m.WithIndex(index.Spec{Compress: true, FastScan: true, PQ: m.Config().PQ})
	if err != nil {
		t.Fatal(err)
	}
	svFS, err := New(fs, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer svFS.Close()
	if got := svFS.Stats().Shards; got != 1 || svFS.Model() != fs {
		t.Fatalf("default over %d fast-scan bytes on %s: %d shards, want 1 (model rewrapped %v)",
			fs.Index().SizeBytes(), index.FastScanKernel(), got, svFS.Model() != fs)
	}
	sameCandidates(t, "default fast-scan serve", fs.Lookup(q, 5), svFS.Lookup(q, 5))

	rows := m.Index().Len()
	clamped, err := New(m, Options{Shards: rows + 50, CacheSize: -1})
	if err != nil {
		t.Fatal(err)
	}
	if got := clamped.Stats().Shards; got != rows {
		t.Fatalf("%d shards asked of %d rows: stats report %d", rows+50, rows, got)
	}

	small, _ := kg.Generate(kg.DefaultGeneratorConfig(kg.WikidataProfile, 60))
	cfg := core.FastConfig()
	cfg.Epochs, cfg.TripletsPerEntity, cfg.IVF = 1, 4, true
	ivf, err := core.Train(small, cfg)
	if err != nil {
		t.Fatal(err)
	}
	svIVF, err := New(ivf, Options{})
	if err != nil {
		t.Fatalf("IVF under default options: %v", err)
	}
	defer svIVF.Close()
	if got := svIVF.Stats().Shards; got != 1 {
		t.Fatalf("IVF default: %d shards", got)
	}
	sameCandidates(t, "IVF serve", ivf.Lookup(small.Entities[0].Label, 3), svIVF.Lookup(small.Entities[0].Label, 3))
	if _, err := New(ivf, Options{Shards: 4}); err == nil {
		t.Fatal("explicit Shards: 4 on an IVF index accepted")
	}
}
