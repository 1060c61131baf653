package core

import (
	"context"
	"time"

	"emblookup/internal/index"
	"emblookup/internal/lookup"
)

// LookupCtx is Lookup with cooperative cancellation: the pipeline checks
// ctx at each stage boundary (embed → search → merge) and, when the index
// supports it (index.CtxSearcher — the sharded index does), inside the
// shard fan-out too, so a caller that has given up stops costing CPU
// mid-scan instead of completing work nobody will read. With a context
// that can never be cancelled this is exactly Lookup — same results, same
// allocation budget. A done context returns ctx.Err() and no candidates.
func (e *EmbLookup) LookupCtx(ctx context.Context, q string, k int) ([]lookup.Candidate, error) {
	if ctx == nil || ctx.Done() == nil {
		return e.Lookup(q, k), nil
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	sc := getScratch()
	defer putScratch(sc)
	return e.lookupCtx(sc, ctx, q, k)
}

// lookupCtx is the cancellable twin of lookupTraced: same stages, same
// stage histograms, same output, plus a ctx check between stages. The
// caller has already established that ctx is cancellable and not yet done.
func (e *EmbLookup) lookupCtx(sc *Scratch, ctx context.Context, q string, k int) ([]lookup.Candidate, error) {
	if k <= 0 {
		return nil, nil
	}
	fetch := k
	if e.cfg.IndexAliases {
		fetch = k * 3
	}
	t0 := time.Now()
	emb := e.embedInto(sc, q, true)
	stageEmbed.Since(t0)
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	t1 := time.Now()
	res, err := index.SearchCtx(ctx, e.ix, &sc.ix, emb, fetch, sc.res)
	stageSearch.Since(t1)
	if err == nil {
		err = ctx.Err() // an uninterruptible scan may have outlived the caller
	}
	if err != nil {
		return nil, err
	}
	sc.res = res
	t2 := time.Now()
	out := e.dedupeAppend(sc, res, k, nil)
	stageMerge.Since(t2)
	lookupsTotal.Inc()
	lookupSeconds.Since(t0)
	return out, nil
}
