package core

import (
	"context"
	"sync"
	"time"

	"emblookup/internal/index"
	"emblookup/internal/kg"
	"emblookup/internal/lookup"
	"emblookup/internal/mathx"
	"emblookup/internal/ngram"
	"emblookup/internal/nn"
	"emblookup/internal/obs"
)

// Scratch is the per-worker working memory of one lookup: the character
// index buffer, the CNN/MLP activation scratch, the n-gram feature scratch,
// the subword/mention accumulators, the joint input vector, the index
// search scratch, and the dedupe set. Every buffer grows on demand and is
// retained across queries, so a worker that owns a Scratch answers queries
// with only the result slices allocated. The zero value is ready to use; a
// Scratch must not be used concurrently.
type Scratch struct {
	idx     []int
	nn      nn.Scratch
	ng      ngram.Scratch
	sub     []float32
	mention []float32
	joint   []float32
	ix      index.Scratch
	res     []index.Result // reused search-result buffer
	seen    map[kg.EntityID]bool
}

// Scratch sizes depend only on model configuration and every buffer grows
// on demand, so one process-wide pool serves all models.
var scratchPool = sync.Pool{New: func() any { return new(Scratch) }}

func getScratch() *Scratch  { return scratchPool.Get().(*Scratch) }
func putScratch(s *Scratch) { scratchPool.Put(s) }

// embedInto is the embedding forward pass with all working memory taken
// from sc. The returned vector is owned by sc and valid until its next use.
func (e *EmbLookup) embedInto(sc *Scratch, s string, useMention bool) []float32 {
	dim := e.sem.Dim
	sc.sub = mathx.Resize(sc.sub, dim)
	sc.mention = mathx.Resize(sc.mention, dim)
	e.sem.EmbedPartsInto(&sc.ng, s, sc.sub, sc.mention)
	mention := sc.mention
	if !e.cfg.MentionSlot {
		mention = nil
	} else if !useMention {
		for i := range mention {
			mention[i] = 0
		}
	}
	var syn []float32
	if e.cnn != nil {
		sc.idx = e.enc.EncodeIndexesInto(s, sc.idx)
		syn = e.cnn.ApplyIdxInto(trimIdx(sc.idx), &sc.nn)
	}
	joint := sc.joint[:0]
	joint = append(joint, syn...)
	joint = append(joint, sc.sub...)
	joint = append(joint, mention...)
	sc.joint = joint
	return e.mlp.ApplyInto(joint, &sc.nn)
}

// lookup is the one single-query body: embed → search → merge. Each stage
// records into its process-wide histogram, opens a span when a trace rides
// in ctx (obs.FromContext; nil-safe, so an untraced request pays a nil
// check per span), and is followed by a ctx check, so a caller that has
// given up stops costing CPU at the next stage boundary — and inside the
// scan too, where the index can stop (a Sharded fan-out). A context that is
// never cancelled and carries no trace is the plain path: all working
// memory comes from sc and only the returned candidate slice is allocated.
// A done context returns ctx.Err() and no candidates; spans recorded before
// it fired are kept.
func (e *EmbLookup) lookup(ctx context.Context, sc *Scratch, q string, k int) ([]lookup.Candidate, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	if k <= 0 {
		return nil, nil
	}
	tr := obs.FromContext(ctx)
	t0 := time.Now()
	sp := tr.Start("embed")
	emb := e.embedInto(sc, q, true)
	sp.End()
	stageEmbed.Since(t0)
	if err := ctx.Err(); err != nil {
		return nil, err
	}

	t1 := time.Now()
	sp = tr.Start("search")
	// The raw results are consumed by the merge below, so they live in the
	// scratch-owned buffer — no per-query allocation.
	res, err := e.ix.Search(ctx, &sc.ix, emb, e.fetch(k), sc.res)
	sp.End()
	stageSearch.Since(t1)
	if err == nil {
		err = ctx.Err() // an uninterruptible scan may have outlived the caller
	}
	if err != nil {
		return nil, err
	}
	sc.res = res

	t2 := time.Now()
	sp = tr.Start("merge")
	out := e.dedupeAppend(sc, res, k, nil)
	sp.End()
	stageMerge.Since(t2)

	lookupsTotal.Inc()
	lookupSeconds.Since(t0)
	return out, nil
}

// fetch is the index budget behind k candidates: over-fetched when alias
// rows can collapse onto one entity.
func (e *EmbLookup) fetch(k int) int {
	if e.cfg.IndexAliases {
		return k * 3
	}
	return k
}

// dedupeAppend converts ranked index results to candidates, collapsing
// alias rows onto their entity with the scratch-owned seen set — same
// semantics as lookup.DedupeTopK over the converted candidate list, without
// the intermediate slice and map allocations. The output slice is taken
// from dst[:0] (nil allocates a fresh one). At most k candidates are
// appended, so a dst with capacity k never reallocates — the invariant the
// bulk path's flat batch array depends on.
func (e *EmbLookup) dedupeAppend(sc *Scratch, res []index.Result, k int, dst []lookup.Candidate) []lookup.Candidate {
	if sc.seen == nil {
		sc.seen = make(map[kg.EntityID]bool, len(res))
	} else {
		clear(sc.seen)
	}
	out := dst[:0]
	if dst == nil {
		out = make([]lookup.Candidate, 0, min(k, len(res)))
	}
	for _, r := range res {
		id := e.rowEntity(r.ID)
		if sc.seen[id] {
			continue
		}
		sc.seen[id] = true
		out = append(out, lookup.Candidate{ID: id, Score: -float64(r.Dist)})
		if len(out) == k {
			break
		}
	}
	return out
}
