package core

import (
	"context"
	"sync"
	"time"

	"emblookup/internal/artifact"
	"emblookup/internal/charenc"
	"emblookup/internal/index"
	"emblookup/internal/kg"
	"emblookup/internal/lookup"
	"emblookup/internal/mathx"
	"emblookup/internal/ngram"
	"emblookup/internal/nn"
	"emblookup/internal/obs"
	"emblookup/internal/par"
)

// EmbLookup is a trained lookup service: the embedding model plus the
// nearest-neighbor index over the knowledge graph's entity embeddings. It
// implements lookup.Service; Lookup and Embed are safe for concurrent use.
type EmbLookup struct {
	cfg Config

	enc *charenc.Encoder
	cnn *nn.CharCNN
	sem *ngram.Model
	mlp *nn.MLP

	graph *kg.Graph
	ix    index.Index
	rows  []kg.EntityID // index row -> entity (trained prefix, immutable)
	live  *liveRows     // live-added rows (dynamic index only)
	prov  IndexProvenance

	// backing is the artifact this model's weights and index alias when it
	// was attached from a v4 file (nil for trained models).
	// The model holds one reference to it, which release drops once.
	backing *artifact.File
	release func() error
}

// Close drops this model's reference to the artifact it was attached from.
// The model LoadFile returned and every sibling derived from it hold one
// reference each, and whichever of them closes last unmaps the artifact, in
// any order. After Close this model must not be used; its siblings still
// open keep serving. A second Close is a no-op. Models that own their
// memory (trained in-process) have no backing, and Close is a no-op.
func (e *EmbLookup) Close() error {
	if e.release == nil {
		return nil
	}
	return e.release()
}

// derive makes every With* sibling: a copy of e, changed by edit, that
// shares e's weights and holds its own reference to e's artifact. A failed
// edit takes no reference.
func (e *EmbLookup) derive(edit func(*EmbLookup) error) (*EmbLookup, error) {
	clone := *e
	if err := edit(&clone); err != nil {
		return nil, err
	}
	if e.backing != nil {
		e.backing.Retain()
		clone.release = sync.OnceValue(e.backing.Close)
	}
	return &clone, nil
}

// IndexProvenance records how the model's current index came to be: rebuilt
// from the weights (embedding every entity and retraining the quantizer) or
// attached from a saved artifact (IO-bound), and how long that took. The
// server surfaces it under /stats so a deployment can tell a fast cold
// start from a silent multi-minute rebuild.
type IndexProvenance struct {
	Source string        // "rebuilt" or "loaded"
	Took   time.Duration // wall-clock of the rebuild or the artifact attach
	// Backing is how an attached v4 artifact is held: "mmap" (zero-copy
	// views over the page cache) or "heap" (one private copy). Empty for
	// trained models, whose memory is ordinary heap.
	Backing string `json:",omitempty"`
}

// IndexProvenance reports the current index's provenance.
func (e *EmbLookup) IndexProvenance() IndexProvenance { return e.prov }

// Name implements lookup.Service.
func (e *EmbLookup) Name() string {
	if e.cfg.Compress {
		return "emblookup"
	}
	return "emblookup-nc"
}

// Config returns the configuration the model was trained with.
func (e *EmbLookup) Config() Config { return e.cfg }

// Graph returns the knowledge graph the index covers.
func (e *EmbLookup) Graph() *kg.Graph { return e.graph }

// WithGraph returns a sibling service resolving entities against g — a
// graph with identical entity numbering, normally a Clone of this model's
// graph. A router or replica node uses it to grow its own copy through
// ingest without mutating the graph shared with other nodes. Like every
// sibling it holds a reference to an attached artifact: close it.
func (e *EmbLookup) WithGraph(g *kg.Graph) *EmbLookup {
	clone, _ := e.derive(func(c *EmbLookup) error { c.graph = g; return nil })
	return clone
}

// Index exposes the underlying nearest-neighbor index (for size reporting
// and the compression experiments).
func (e *EmbLookup) Index() index.Index { return e.ix }

// Embed maps an arbitrary query string to its embedding, evaluating the
// CNN path, the semantic path (subword mean plus the known-mention slot),
// and the combiner (Figure 2 of the paper).
func (e *EmbLookup) Embed(s string) []float32 {
	return e.embed(s, true)
}

// IndexEmbed maps a string to the embedding stored in the index. Index
// rows are computed without the mention slot — the anchor space — so that
// noisy queries (which never have a mention slot) compare against the same
// representation; training maps mention-carrying queries into this space.
func (e *EmbLookup) IndexEmbed(s string) []float32 {
	return e.embed(s, false)
}

// embed is the allocation-tolerant embedding wrapper: it checks scratch out
// of the pool and copies the result so the caller owns it.
func (e *EmbLookup) embed(s string, useMention bool) []float32 {
	sc := getScratch()
	defer putScratch(sc)
	return append([]float32(nil), e.embedInto(sc, s, useMention)...)
}

// Lookup embeds q and returns the k nearest entities. Scores are negated
// squared distances so that higher is better, matching lookup.Candidate.
// It is LookupCtx without a context.
func (e *EmbLookup) Lookup(q string, k int) []lookup.Candidate {
	out, _ := e.LookupCtx(context.Background(), q, k) // errors are ctx's only
	return out
}

// LookupCtx answers one request: ctx carries its deadline or cancellation
// and, through obs.WithTrace, its trace. It is the pooled-scratch entry to
// the one lookup body, so steady-state calls only allocate the returned
// candidates.
func (e *EmbLookup) LookupCtx(ctx context.Context, q string, k int) ([]lookup.Candidate, error) {
	sc := getScratch()
	defer putScratch(sc)
	return e.lookup(ctx, sc, q, k)
}

// BulkLookup is BulkLookupCtx without cancellation.
func (e *EmbLookup) BulkLookup(queries []string, k, parallelism int) [][]lookup.Candidate {
	out, _ := e.BulkLookupCtx(context.Background(), queries, k, parallelism) // errors are ctx's only
	return out
}

// BulkLookupCtx answers a query batch with `parallelism` goroutines (≤0 =
// all cores — the reproduction's GPU mode, see DESIGN.md) in three stages:
// embed every query, hand the whole batch to index.BatchSearchCtx — which
// spreads the queries over the workers, each scanning all rows — then
// dedupe per query.
// Results align with the query order and are identical to per-query
// Lookup. ctx is checked between the stages and inside the batch scan; a
// cancelled batch returns ctx.Err() and no results. A trace riding in ctx
// gets the batch's embed, batch_scan and merge spans.
func (e *EmbLookup) BulkLookupCtx(ctx context.Context, queries []string, k, parallelism int) ([][]lookup.Candidate, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	bulkTotal.Inc()
	bulkQueries.ObserveVal(int64(len(queries)))
	out := make([][]lookup.Candidate, len(queries))
	if len(queries) == 0 || k <= 0 {
		return out, nil
	}
	tr := obs.FromContext(ctx)
	sp := tr.Start("embed")
	embs := e.EmbedAll(queries, parallelism)
	sp.End()
	sp = tr.Start("batch_scan")
	res, err := index.BatchSearchCtx(ctx, e.ix, embs, FetchBudget(k, e.cfg.IndexAliases), parallelism)
	sp.End()
	if err != nil {
		return nil, err
	}
	sp = tr.Start("merge")
	// One flat array backs every query's candidates: slot i appends into
	// flat[i*k:i*k:(i+1)*k] (capacity-clipped, so slots can never bleed into
	// each other).
	flat := make([]lookup.Candidate, len(queries)*k)
	scratches := make([]*Scratch, par.Workers(len(queries), parallelism))
	par.ForEachWorker(len(queries), parallelism, func(w, i int) {
		if scratches[w] == nil {
			scratches[w] = getScratch()
		}
		out[i] = e.dedupeAppend(scratches[w], res[i], k, flat[i*k:i*k:(i+1)*k])
	})
	for _, sc := range scratches {
		if sc != nil {
			putScratch(sc)
		}
	}
	sp.End()
	return out, nil
}

// WithShardedIndex returns a sibling service sharing this model's weights
// and trained index whose scans fan out across `shards` row ranges
// (index.Sharded): a single query merges per-shard top-k heaps, and a
// batch of two or more scans each query's rows whole, never split by shard.
// Results are bit-identical to the unsharded service. parallelism bounds
// the per-query fan-out (≤0 = GOMAXPROCS). Like every sibling it holds a
// reference to an attached artifact: close it.
func (e *EmbLookup) WithShardedIndex(shards, parallelism int) (*EmbLookup, error) {
	return e.derive(func(c *EmbLookup) (err error) {
		c.ix, err = index.NewSharded(e.ix, shards, parallelism)
		return err
	})
}

// EmbedAll embeds a list of strings in parallel (query space), preserving
// order.
func (e *EmbLookup) EmbedAll(strs []string, parallelism int) [][]float32 {
	return e.embedAll(strs, parallelism, true)
}

// IndexEmbedAll embeds a list of strings in parallel in the index (anchor)
// space.
func (e *EmbLookup) IndexEmbedAll(strs []string, parallelism int) [][]float32 {
	return e.embedAll(strs, parallelism, false)
}

func (e *EmbLookup) embedAll(strs []string, parallelism int, useMention bool) [][]float32 {
	out := make([][]float32, len(strs))
	// One flat array backs every embedding (dimension is fixed by the
	// model), so copying the batch out of the scratches costs one
	// allocation instead of one per string.
	dim := e.cfg.Dim
	flat := make([]float32, len(strs)*dim)
	scratches := make([]*Scratch, par.Workers(len(strs), parallelism))
	par.ForEachWorker(len(strs), parallelism, func(w, i int) {
		sc := scratches[w]
		if sc == nil {
			sc = getScratch()
			scratches[w] = sc
		}
		// The embedding outlives the scratch: copy it out.
		dst := flat[i*dim : (i+1)*dim]
		copy(dst, e.embedInto(sc, strs[i], useMention))
		out[i] = dst
	})
	for _, sc := range scratches {
		if sc != nil {
			putScratch(sc)
		}
	}
	return out
}

// trimIdx cuts the zero-padding tail of an encoded index sequence so the
// convolution runs over the mention's actual length (identically at
// training and inference time). At least kernel-size positions remain so
// every layer sees a non-degenerate input.
func trimIdx(idx []int) []int {
	n := len(idx)
	for n > 0 && idx[n-1] < 0 {
		n--
	}
	if n < 3 {
		n = 3
		if n > len(idx) {
			n = len(idx)
		}
	}
	return idx[:n]
}

// EmbeddingMatrix builds the N×Dim matrix of embeddings for the given
// strings (used by the index builder and the compression experiments).
// Each distinct string is embedded once and its row copied to every
// repeat (labels repeat: 90 742 distinct of 100 000 on the benchmark
// graph); an embedding is a pure function of its string, so the matrix is
// bit-identical to embedding every string.
func (e *EmbLookup) EmbeddingMatrix(strs []string, parallelism int) *mathx.Matrix {
	first := make(map[string]int, len(strs))
	src := make([]int, len(strs)) // row i copies distinct[src[i]]
	var distinct []string
	for i, s := range strs {
		j, ok := first[s]
		if !ok {
			j = len(distinct)
			first[s] = j
			distinct = append(distinct, s)
		}
		src[i] = j
	}
	vecs := e.EmbedAll(distinct, parallelism)
	m := mathx.NewMatrix(len(strs), e.cfg.Dim)
	for i, j := range src {
		copy(m.Row(i), vecs[j])
	}
	return m
}
