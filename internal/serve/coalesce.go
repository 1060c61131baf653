package serve

import (
	"context"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"emblookup/internal/lookup"
	"emblookup/internal/obs"
)

// Model is what the coalescer runs queries on: the single-query path for a
// request that finds a free slot, the batch path for requests that queued.
// *core.EmbLookup implements it; both must return, for each query, what a
// solo lookup of that query returns, and both read the request's deadline
// and trace from ctx.
type Model interface {
	LookupCtx(ctx context.Context, q string, k int) ([]lookup.Candidate, error)
	BulkLookupCtx(ctx context.Context, queries []string, k, parallelism int) ([][]lookup.Candidate, error)
}

// coalOut is what a queued caller receives: its candidates, or the batch's
// error (only ever a context error — the bulk deadline passed mid-dispatch).
type coalOut struct {
	res []lookup.Candidate
	err error
}

// coalReq is one caller queued behind the busy slots. t0 is its arrival
// time, from which the coalescing-wait histogram is fed at dispatch; sp is
// the open span on the trace riding in ctx (coalesce_wait, then batch_scan;
// inert for an untraced caller). A caller that stops waiting (its context
// fired) sets abandoned; dispatch drops abandoned requests before the bulk
// call — their channel is buffered, so a lost race (result computed anyway)
// just gets discarded.
type coalReq struct {
	ctx       context.Context
	sp        obs.SpanTimer
	q         string
	k         int
	t0        time.Time
	ch        chan coalOut
	abandoned atomic.Bool
}

// Coalescer batches queries by backpressure: it holds one in-flight slot
// per core, a request that finds a slot free runs at once on its caller's
// goroutine through the single-query path, and requests that find every
// slot busy queue. Whoever frees a slot hands it to up to MaxBatch queued
// requests, answered by one bulk call — which amortizes per-query overheads
// (scratch checkout, scheduling, a solo scan's shard fan-out and, on the
// portable fast-scan kernel, the pass over the codes) across the batch. Batches
// therefore form exactly when the cores are saturated, the only time
// batching buys throughput, and an unloaded request waits for nothing.
// Every caller receives exactly the result a solo lookup would have
// produced.
type Coalescer struct {
	m           Model
	maxBatch    int
	parallelism int

	mu     sync.Mutex
	free   int        // idle slots
	queue  []*coalReq // arrivals while free == 0, oldest first
	closed bool       // nothing queues any more: every arrival runs solo

	// running counts the goroutines answering queued batches, so Close
	// returns only once nothing started here still touches the model.
	running sync.WaitGroup

	// Counters, guarded by mu (abandoned is touched off-lock).
	batches    uint64
	dispatched uint64
	abandoned  atomic.Uint64

	// Registry histograms, set by Observe; nil handles record nothing.
	batchSize *obs.Histogram // queries per dispatched batch
	wait      *obs.Histogram // per-query time from arrival to dispatch
}

// NewCoalescer builds the batcher over m. maxBatch ≤ 0 defaults to 32
// queries. parallelism (≤0 = GOMAXPROCS) is both the fan-out bound handed
// to the bulk call and the slot count: one running lookup per core is what
// keeps the cores busy, and any more would only time-slice them.
func NewCoalescer(m Model, maxBatch, parallelism int) *Coalescer {
	if maxBatch <= 0 {
		maxBatch = 32
	}
	slots := parallelism
	if slots <= 0 {
		slots = runtime.GOMAXPROCS(0)
	}
	return &Coalescer{m: m, maxBatch: maxBatch, parallelism: parallelism, free: slots}
}

// Lookup answers one query, at once when a slot is free and as part of a
// batch otherwise. A trace riding in ctx records the core stage spans when
// the request runs solo, and coalesce_wait plus the shared batch_scan when
// it queued. A queued caller stops waiting the moment ctx fires (marking
// the request abandoned so dispatch can skip it); the only errors are
// ctx's. It is safe for concurrent use.
func (c *Coalescer) Lookup(ctx context.Context, q string, k int) ([]lookup.Candidate, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	c.mu.Lock()
	if c.free > 0 || c.closed {
		c.free--
		c.batches++
		c.dispatched++
		c.mu.Unlock()
		defer c.release()
		c.batchSize.ObserveVal(1)
		c.wait.Observe(0)
		return c.m.LookupCtx(ctx, q, k)
	}
	r := &coalReq{ctx: ctx, sp: obs.FromContext(ctx).Start("coalesce_wait"), q: q, k: k, t0: time.Now(), ch: make(chan coalOut, 1)}
	c.queue = append(c.queue, r)
	c.mu.Unlock()
	select {
	case out := <-r.ch:
		return out.res, out.err
	case <-ctx.Done():
		r.abandoned.Store(true)
		c.abandoned.Add(1)
		return nil, ctx.Err()
	}
}

// nextLocked gives a slot its next piece of work: up to maxBatch of the
// queued requests as one batch, or nil with the slot freed when nothing
// queued. The caller must hold mu and own a slot (Close owns none, and
// after it the count is never consulted again).
func (c *Coalescer) nextLocked() []*coalReq {
	n := min(len(c.queue), c.maxBatch)
	if n == 0 {
		c.free++
		return nil
	}
	batch := c.queue[:n:n]
	if c.queue = c.queue[n:]; len(c.queue) == 0 {
		c.queue = nil
	}
	c.batches++
	c.dispatched += uint64(n)
	return batch
}

// release gives up the caller's slot. Requests that queued behind it take
// the slot over on a fresh goroutine, so the releasing caller returns its
// own result without first computing theirs.
func (c *Coalescer) release() {
	c.mu.Lock()
	batch := c.nextLocked()
	if batch == nil {
		c.mu.Unlock()
		return
	}
	c.running.Add(1) // under mu: ordered before a Close that follows
	c.mu.Unlock()
	go c.drain(batch)
}

// drain is the goroutine release starts: it answers batch and then whatever
// queued meanwhile, batch by batch, until the queue is empty and the slot
// is freed.
func (c *Coalescer) drain(batch []*coalReq) {
	defer c.running.Done()
	for batch != nil {
		c.dispatch(batch)
		c.mu.Lock()
		batch = c.nextLocked()
		c.mu.Unlock()
	}
}

// dispatch answers every live request in the batch with one bulk call per
// distinct k (one call total in the common uniform-k case) and unblocks
// the callers. Requests whose caller already gave up are dropped here —
// a batch with no live requests costs nothing.
func (c *Coalescer) dispatch(batch []*coalReq) {
	live := batch[:0]
	for _, r := range batch {
		if r.abandoned.Load() {
			continue
		}
		live = append(live, r)
	}
	if len(live) == 0 {
		return
	}
	c.batchSize.ObserveVal(int64(len(live)))
	for _, r := range live {
		c.wait.Since(r.t0)
		r.sp.End()
		r.sp = obs.FromContext(r.ctx).Start("batch_scan")
	}
	// Group by k preserving arrival order within each group. Almost every
	// batch has a single k, so scan for that case first.
	uniform := true
	for i := 1; i < len(live); i++ {
		if live[i].k != live[0].k {
			uniform = false
			break
		}
	}
	if uniform {
		c.answer(live, live[0].k)
		return
	}
	groups := make(map[int][]*coalReq)
	for _, r := range live {
		groups[r.k] = append(groups[r.k], r)
	}
	for k, group := range groups {
		c.answer(group, k)
	}
}

// groupCtx derives the bulk call's context from a same-k group: the latest
// deadline across the group's callers, so the shared computation is never
// cut short while any caller still wants it. Any deadline-less caller
// makes the bulk call deadline-less.
func groupCtx(group []*coalReq) (context.Context, context.CancelFunc) {
	var latest time.Time
	for _, r := range group {
		d, ok := r.ctx.Deadline()
		if !ok {
			return context.Background(), func() {}
		}
		if d.After(latest) {
			latest = d
		}
	}
	return context.WithDeadline(context.Background(), latest)
}

// answer runs one bulk call for a same-k group and delivers the results.
func (c *Coalescer) answer(group []*coalReq, k int) {
	queries := make([]string, len(group))
	for i, r := range group {
		queries[i] = r.q
	}
	gctx, cancel := groupCtx(group)
	results, err := c.m.BulkLookupCtx(gctx, queries, k, c.parallelism)
	cancel()
	for i, r := range group {
		r.sp.End()
		if err != nil {
			r.ch <- coalOut{err: err}
		} else {
			r.ch <- coalOut{res: results[i]}
		}
	}
}

// Observe wires the coalescer into a metrics registry: batch-size and wait
// histograms recorded at dispatch (a solo run is a batch of one that waited
// for nothing), plus pull-time collectors over the exact instance-local
// batch counters. Call it before the coalescer starts serving — the
// histogram handles are read without the lock on dispatch.
func (c *Coalescer) Observe(r *obs.Registry) {
	c.mu.Lock()
	c.batchSize = r.Histogram("emblookup_coalescer_batch_size")
	c.wait = r.Histogram("emblookup_coalescer_wait_seconds")
	c.mu.Unlock()
	r.CounterFunc("emblookup_coalescer_batches_total", func() float64 { return float64(c.Stats().Batches) })
	r.CounterFunc("emblookup_coalescer_queries_total", func() float64 { return float64(c.Stats().Queries) })
	r.CounterFunc("emblookup_coalescer_abandoned_total", func() float64 { return float64(c.abandoned.Load()) })
}

// CoalescerStats is a point-in-time snapshot of the batching counters.
type CoalescerStats struct {
	Batches      uint64  `json:"batches"`
	Queries      uint64  `json:"queries"`
	Abandoned    uint64  `json:"abandoned,omitempty"`
	AvgBatchSize float64 `json:"avgBatchSize"`
	MaxBatch     int     `json:"maxBatch"`
}

// Stats snapshots the batching counters.
func (c *Coalescer) Stats() CoalescerStats {
	c.mu.Lock()
	defer c.mu.Unlock()
	st := CoalescerStats{
		Batches:   c.batches,
		Queries:   c.dispatched,
		Abandoned: c.abandoned.Load(),
		MaxBatch:  c.maxBatch,
	}
	if st.Batches > 0 {
		st.AvgBatchSize = float64(st.Queries) / float64(st.Batches)
	}
	return st
}

// Close answers every queued request on the caller's goroutine and waits
// for the batches already running. Afterwards nothing queues: lookups run
// solo, and the slot count stops mattering.
func (c *Coalescer) Close() {
	c.mu.Lock()
	c.closed = true
	// The whole queue is detached here, so no release after this point
	// finds a batch to start a goroutine for.
	var batches [][]*coalReq
	for b := c.nextLocked(); b != nil; b = c.nextLocked() {
		batches = append(batches, b)
	}
	c.mu.Unlock()
	for _, b := range batches {
		c.dispatch(b)
	}
	c.running.Wait()
}
