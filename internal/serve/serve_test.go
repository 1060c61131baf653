package serve

import (
	"context"
	"fmt"
	"runtime"
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
	if _, ok := c.Get("a", 5); ok {
		t.Fatal("empty cache hit")
	}
	c.Put("a", 5, val)
	got, ok := c.Get("a", 5)
	if !ok {
		t.Fatal("miss after put")
	}
	sameCandidates(t, "cache value", val, got)
	// Different k is a different entry.
	if _, ok := c.Get("a", 6); ok {
		t.Fatal("k must be part of the key")
	}
	st := c.Stats()
	if st.Hits != 1 || st.Misses != 2 {
		t.Fatalf("stats = %+v", st)
	}
}

func TestMentionCacheEviction(t *testing.T) {
	c := NewMentionCache(1) // single shard, capacity 1
	c.Put("a", 1, nil)
	c.Put("b", 1, nil)
	if _, ok := c.Get("a", 1); ok {
		t.Fatal("LRU entry should have been evicted")
	}
	if _, ok := c.Get("b", 1); !ok {
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
		c.Put(m, 1, []lookup.Candidate{{ID: kg.EntityID(len(m))}})
	}
	c.Get("a", 1) // promote the oldest
	c.Put("d", 1, nil)
	if _, ok := c.Get("b", 1); ok {
		t.Fatal("b should have been the LRU victim")
	}
	for _, m := range []string{"a", "c", "d"} {
		if _, ok := c.Get(m, 1); !ok {
			t.Fatalf("%q evicted unexpectedly", m)
		}
	}
}

// stubModel is a Model whose single-query calls block until the test lets
// them through — the way a test holds the coalescer's slots — and whose
// bulk calls never block. It answers query q at k with stubAnswer(q, k)
// and records every call, so a test can assert what was computed and how.
type stubModel struct {
	entered chan string   // one send per single-query call, as it starts; buffered past any test's count of them
	hold    chan struct{} // single-query calls return once this is closed

	mu    sync.Mutex
	solos []string   // queries answered by a single-query call
	bulks [][]string // queries of each bulk call
	bulkK []int      // k of each bulk call
}

// newStubModel returns a stub that holds its single-query calls; open
// releases them, and every later one passes straight through.
func newStubModel() *stubModel {
	return &stubModel{entered: make(chan string, 64), hold: make(chan struct{})}
}

func (m *stubModel) open() { close(m.hold) }

func stubAnswer(q string, k int) []lookup.Candidate {
	return []lookup.Candidate{{ID: kg.EntityID(len(q)), Score: float64(k)}, {ID: kg.EntityID(q[len(q)-1])}}
}

func (m *stubModel) LookupCtx(ctx context.Context, q string, k int) ([]lookup.Candidate, error) {
	sp := obs.FromContext(ctx).Start("stub_lookup")
	defer sp.End()
	m.entered <- q
	<-m.hold
	m.mu.Lock()
	m.solos = append(m.solos, q)
	m.mu.Unlock()
	return stubAnswer(q, k), nil
}

func (m *stubModel) BulkLookupCtx(ctx context.Context, queries []string, k, parallelism int) ([][]lookup.Candidate, error) {
	m.mu.Lock()
	m.bulks = append(m.bulks, append([]string(nil), queries...))
	m.bulkK = append(m.bulkK, k)
	m.mu.Unlock()
	out := make([][]lookup.Candidate, len(queries))
	for i, q := range queries {
		out[i] = stubAnswer(q, k)
	}
	return out, nil
}

// computed counts how many times q reached the model, on either path.
func (m *stubModel) computed(q string) int {
	m.mu.Lock()
	defer m.mu.Unlock()
	n := 0
	for _, s := range m.solos {
		if s == q {
			n++
		}
	}
	for _, b := range m.bulks {
		for _, s := range b {
			if s == q {
				n++
			}
		}
	}
	return n
}

// holdSlots occupies n slots of co with single-query calls blocked inside
// the stub, and returns once all n are inside. done receives one value per
// holder as it returns.
func holdSlots(t *testing.T, co *Coalescer, m *stubModel, n int) (done chan struct{}) {
	t.Helper()
	done = make(chan struct{}, n)
	for i := 0; i < n; i++ {
		q := fmt.Sprintf("hold-%d", i)
		go func() {
			res, err := co.Lookup(context.Background(), q, 1)
			if err != nil || !slices.Equal(res, stubAnswer(q, 1)) {
				t.Errorf("holder %q = %+v, %v", q, res, err)
			}
			done <- struct{}{}
		}()
	}
	for i := 0; i < n; i++ {
		<-m.entered
	}
	return done
}

// waitQueued returns once n requests sit in co's queue — the event the
// queueing tests synchronize on; a request has no other way to tell the
// test that it got as far as waiting.
func waitQueued(co *Coalescer, n int) {
	for {
		co.mu.Lock()
		queued := len(co.queue)
		co.mu.Unlock()
		if queued == n {
			return
		}
		runtime.Gosched()
	}
}

// TestCoalescerSoloWhenIdle: a lone request on an idle coalescer waits for
// nothing — no second request, no window — and runs the single-query path.
func TestCoalescerSoloWhenIdle(t *testing.T) {
	m := newStubModel()
	m.open()
	co := NewCoalescer(m, 1<<20, 2)
	res, err := co.Lookup(context.Background(), "lone", 3)
	if err != nil {
		t.Fatal(err)
	}
	sameCandidates(t, "lone lookup", stubAnswer("lone", 3), res)
	if len(m.solos) != 1 || len(m.bulks) != 0 {
		t.Fatalf("lone lookup ran %d single-query and %d bulk calls, want 1 and 0", len(m.solos), len(m.bulks))
	}
	if st := co.Stats(); st.Batches != 1 || st.Queries != 1 {
		t.Fatalf("a solo run counts as a batch of one, stats = %+v", st)
	}
}

// TestCoalescerBatchesBehindBusySlots: with every slot held, further
// requests queue; freeing the slots answers them in batches of at most
// MaxBatch, each caller with its own result.
func TestCoalescerBatchesBehindBusySlots(t *testing.T) {
	const slots, maxBatch, n = 2, 4, 10
	m := newStubModel()
	co := NewCoalescer(m, maxBatch, slots)
	held := holdSlots(t, co, m, slots)

	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			q := fmt.Sprintf("queued-%0*d", i, i) // distinct lengths, distinct answers
			res, err := co.Lookup(context.Background(), q, 3)
			if err != nil || !slices.Equal(res, stubAnswer(q, 3)) {
				t.Errorf("%q = %+v, %v", q, res, err)
			}
		}(i)
	}
	waitQueued(co, n)
	if st := co.Stats(); st.Queries != slots {
		t.Fatalf("%d queries dispatched while every slot is held, want only the %d holders", st.Queries, slots)
	}
	m.open()
	wg.Wait()
	<-held
	<-held
	co.Close() // waits for the batch goroutines, so the counters below are final

	// Two freed slots take 4 + 4 of the 10, whichever finishes first the last 2.
	sizes := map[int]int{}
	for _, b := range m.bulks {
		sizes[len(b)]++
	}
	if len(m.bulks) != 3 || sizes[4] != 2 || sizes[2] != 1 {
		t.Fatalf("bulk calls = %v, want sizes 4, 4 and 2", m.bulks)
	}
	if st := co.Stats(); st.Batches != slots+3 || st.Queries != slots+n {
		t.Fatalf("stats = %+v, want %d batches over %d queries", st, slots+3, slots+n)
	}
}

// TestCoalescerMixedK: requests with different k queued into one batch are
// answered by one bulk call per k, each with its own k's result.
func TestCoalescerMixedK(t *testing.T) {
	m := newStubModel()
	co := NewCoalescer(m, 16, 1)
	held := holdSlots(t, co, m, 1)
	var wg sync.WaitGroup
	for i := 0; i < 6; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			q, k := fmt.Sprintf("mixed-%d", i), 1+i%3
			res, err := co.Lookup(context.Background(), q, k)
			if err != nil || !slices.Equal(res, stubAnswer(q, k)) {
				t.Errorf("%q k=%d = %+v, %v", q, k, res, err)
			}
		}(i)
	}
	waitQueued(co, 6)
	m.open()
	wg.Wait()
	<-held
	co.Close()
	if len(m.bulks) != 3 {
		t.Fatalf("one batch of three k values made %d bulk calls: %v", len(m.bulks), m.bulks)
	}
	for i, b := range m.bulks {
		if len(b) != 2 {
			t.Fatalf("bulk call %d (k=%d) got %v, want the two queries of that k", i, m.bulkK[i], b)
		}
	}
	if st := co.Stats(); st.Batches != 2 || st.Queries != 7 {
		t.Fatalf("stats = %+v, want the holder plus one batch of 6", st)
	}
}

// TestCoalescerTracedQueue: a traced request that queues records its wait
// and the batch's scan; one that gets a slot records the model's own spans.
func TestCoalescerTracedQueue(t *testing.T) {
	m := newStubModel()
	co := NewCoalescer(m, 16, 1)
	held := holdSlots(t, co, m, 1)
	queued := obs.NewTrace()
	got := make(chan []lookup.Candidate, 1)
	go func() {
		res, _ := co.Lookup(obs.WithTrace(context.Background(), queued), "traced", 2)
		got <- res
	}()
	waitQueued(co, 1)
	m.open()
	sameCandidates(t, "traced queued lookup", stubAnswer("traced", 2), <-got)
	<-held
	if names := spanNames(queued); len(names) != 2 || names[0] != "coalesce_wait" || names[1] != "batch_scan" {
		t.Fatalf("queued trace spans = %v, want coalesce_wait then batch_scan", names)
	}
	co.Close()
	solo := obs.NewTrace()
	if _, err := co.Lookup(obs.WithTrace(context.Background(), solo), "traced", 2); err != nil {
		t.Fatal(err)
	}
	if names := spanNames(solo); len(names) != 1 || names[0] != "stub_lookup" {
		t.Fatalf("solo trace spans = %v, want the model's own", names)
	}
}

func spanNames(tr *obs.Trace) []string {
	var names []string
	for _, sp := range tr.Spans() {
		names = append(names, sp.Name)
	}
	return names
}

// TestCoalescerClose: Close answers everything queued, on its own
// goroutine, while the slots are still held; later lookups run solo.
func TestCoalescerClose(t *testing.T) {
	m := newStubModel()
	co := NewCoalescer(m, 2, 1)
	held := holdSlots(t, co, m, 1)
	var wg sync.WaitGroup
	for i := 0; i < 3; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			q := fmt.Sprintf("pending-%d", i)
			res, err := co.Lookup(context.Background(), q, 1)
			if err != nil || !slices.Equal(res, stubAnswer(q, 1)) {
				t.Errorf("%q = %+v, %v", q, res, err)
			}
		}(i)
	}
	waitQueued(co, 3)
	co.Close()
	wg.Wait() // the holder is still inside the model
	if len(m.bulks) != 2 {
		t.Fatalf("Close answered 3 queued requests at MaxBatch 2 in %d bulk calls", len(m.bulks))
	}
	// After Close nothing queues, even behind the held slot.
	after := make(chan struct{})
	go func() {
		co.Lookup(context.Background(), "after", 1)
		close(after)
	}()
	if q := <-m.entered; q != "after" {
		t.Fatalf("post-close lookup did not run solo: model entered with %q", q)
	}
	m.open()
	<-after
	<-held
}

// TestServeMatchesDirect is the package's core guarantee: every serving
// path — sharded index, coalesced lookups, cache-cold and cache-warm —
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

// TestServeConcurrent (run with -race): 16 goroutines on one slot, so most
// requests queue and come back through the batch path while the rest run
// solo, with and without a deadline — every answer bit-identical to
// model.Lookup on a Flat, a PQ and a FastScan index.
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
			sv.co = NewCoalescer(sv.model, 4, 1) // one slot, batches of four
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
			if st := sv.Stats().Coalescer; st.Queries != workers*rounds {
				t.Fatalf("coalescer dispatched %d queries, want %d", st.Queries, workers*rounds)
			}
		})
	}
}

// TestServeFastScan runs the full serving stack (shards, coalescer, cache)
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
// a PQ index keeps the four ranges it always had, a small fast-scan index
// on the AVX2 kernel is served unsharded (and answers as the model does),
// an explicit count is honoured up to one range per row, and an IVF index —
// which cannot be range-scanned — serves under the default but still
// refuses an explicit split.
func TestServeDefaultShards(t *testing.T) {
	g, m := testModel(t)
	q := g.Entities[3].Label
	sv, err := New(m, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer sv.Close()
	if got := sv.Stats().Shards; got != 4 {
		t.Fatalf("default over a PQ index: %d shards, want 4", got)
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
	want := 4
	if index.FastScanKernel() == "avx2" {
		want = 1
	}
	if got := svFS.Stats().Shards; got != want || (want == 1) != (svFS.Model() == fs) {
		t.Fatalf("default over %d fast-scan bytes on %s: %d shards, want %d (model rewrapped %v)",
			fs.Index().SizeBytes(), index.FastScanKernel(), got, want, svFS.Model() != fs)
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
