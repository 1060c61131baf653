// Package serve is the throughput substrate between the HTTP layer and
// core.EmbLookup — the deployment shape of embedding-as-a-service systems
// like KGvec2go and Wembedder, where one shared entity index answers heavy
// concurrent traffic of small lookups. Three cooperating pieces raise
// throughput without changing any result:
//
//   - sharded scans (index.Sharded via core.WithShardedIndex): over an
//     index large enough for a range to be worth a thread wake-up, one query
//     fans its scan across S row shards and merges per-shard top-k heaps; a
//     batch spreads its queries over the cores instead
//   - query coalescing (Coalescer): a Lookup runs at once while a core is
//     free; those that arrive behind busy cores queue and are answered as one
//     BulkLookup, amortizing scratch checkout, scheduling and (on the
//     portable fast-scan kernel, four queries per pass) the scan itself
//     across callers
//   - a sharded mention cache (MentionCache): table-annotation traffic
//     repeats the same cell strings constantly, so results are cached under
//     the embedding-invariant key core.NormalizeMention(q)
//
// A request is one context.Context: LookupCtx and BulkLookupCtx are the
// only bodies, a request's deadline and its trace (obs.WithTrace) both ride
// in ctx through the cache, the coalescer's queue and the scan, and Lookup
// and BulkLookup are one-line wrappers under context.Background() (kept
// because benchmark/ compiles against them). Every path returns
// bit-identical candidates to a direct core.EmbLookup.Lookup call (see
// DESIGN.md §7).
package serve

import (
	"context"
	"time"

	"emblookup/internal/core"
	"emblookup/internal/index"
	"emblookup/internal/lookup"
	"emblookup/internal/obs"
)

// Options configures the serving substrate. The zero value enables every
// piece at defaults; use the negative sentinels to disable pieces.
type Options struct {
	// Shards is the index shard count: 0 derives it from the index
	// (index.DefaultShards: a fast-scan index on the AVX2 kernel gets one per
	// MiB of payload, 1 to 4, so a small one is served unsharded; PQ and Flat
	// get 4; one that cannot be range-scanned gets 1), 1 keeps the index
	// unsharded, n > 1 asks for exactly n.
	Shards int
	// MaxBatch caps a coalescer batch at this many queries (0 = 32;
	// negative disables coalescing entirely — every Lookup goes solo).
	MaxBatch int
	// CacheSize is the mention cache capacity in entries (0 = 4096;
	// negative disables the cache).
	CacheSize int
	// Parallelism bounds worker fan-out for scans and batches, and the
	// lookups the coalescer runs at once before it queues (≤0 = GOMAXPROCS).
	Parallelism int
	// Registry receives the substrate's metrics — serve latency, the
	// normalize stage histogram, cache and coalescer collectors (nil =
	// obs.Default()). Benchmarks hand each instance a fresh registry so
	// phases don't contaminate each other.
	Registry *obs.Registry
}

// Serve answers lookups through the cache, the coalescer, and the sharded
// index. Safe for concurrent use.
type Serve struct {
	model *core.EmbLookup
	cache *MentionCache
	co    *Coalescer
	opts  Options

	latency        *obs.Histogram // end-to-end serve.Lookup latency
	stageNormalize *obs.Histogram // the serve-side stage of the lookup pipeline
}

// New builds the serving substrate over a trained model. With more than
// one shard the model's index is wrapped for sharded scans (the model itself
// is shared, not retrained); PQ, FastScan and Flat indexes support this, IVF
// refuses an explicit opts.Shards > 1 and derives 1.
func New(model *core.EmbLookup, opts Options) (*Serve, error) {
	if opts.Shards == 0 {
		opts.Shards = index.DefaultShards(model.Index())
	}
	if opts.CacheSize == 0 {
		opts.CacheSize = 4096
	}
	if opts.Shards > 1 {
		sharded, err := model.WithShardedIndex(opts.Shards, opts.Parallelism)
		if err != nil {
			return nil, err
		}
		model = sharded
	}
	reg := opts.Registry
	if reg == nil {
		reg = obs.Default()
	}
	s := &Serve{model: model, opts: opts}
	s.latency = reg.Histogram("emblookup_serve_lookup_seconds")
	s.stageNormalize = reg.Histogram(obs.Labels("emblookup_lookup_stage_seconds", "stage", "normalize"))
	if opts.CacheSize > 0 {
		s.cache = NewMentionCache(opts.CacheSize)
		s.cache.Observe(reg)
	}
	if opts.MaxBatch >= 0 {
		s.co = NewCoalescer(model, opts.MaxBatch, opts.Parallelism)
		s.co.Observe(reg)
	}
	return s, nil
}

// Model returns the model lookups are answered with (the sharded sibling
// when sharding is enabled).
func (s *Serve) Model() *core.EmbLookup { return s.model }

// Lookup is LookupCtx without a context.
func (s *Serve) Lookup(q string, k int) []lookup.Candidate {
	res, _ := s.LookupCtx(context.Background(), q, k) // errors are ctx's only
	return res
}

// LookupCtx answers one request: normalize → cache → the coalescer's gate →
// cache fill. ctx is the whole request: its deadline or cancellation and,
// through obs.WithTrace, its trace. The normalize and cache stages span
// here; a miss takes the same gate traced or not, so a traced latency is
// the one users see — core stage spans when it ran at once, coalesce_wait
// and the shared batch_scan when it queued. A cache hit is served even
// under a done context (it is already paid for); a miss checks ctx before
// starting, stops waiting in the coalescer's queue the moment ctx fires,
// and is cancelled mid-scan. Results are bit-identical to model.Lookup(q,
// k); cached slices are shared across callers and must be treated as
// read-only. A done context returns ctx.Err() and no candidates.
func (s *Serve) LookupCtx(ctx context.Context, q string, k int) ([]lookup.Candidate, error) {
	if k <= 0 {
		return nil, nil
	}
	tr := obs.FromContext(ctx)
	t0 := time.Now()
	sp := tr.Start("normalize")
	norm := core.NormalizeMention(q)
	sp.End()
	s.stageNormalize.Since(t0)
	if s.cache != nil {
		sp = tr.Start("cache")
		res, ok := s.cache.Get(norm, k)
		sp.End()
		if ok {
			s.latency.Since(t0)
			return res, nil
		}
	}
	var res []lookup.Candidate
	var err error
	if s.co != nil {
		res, err = s.co.Lookup(ctx, norm, k)
	} else {
		res, err = s.model.LookupCtx(ctx, norm, k)
	}
	if err != nil {
		return nil, err
	}
	if s.cache != nil {
		s.cache.Put(norm, k, res)
	}
	s.latency.Since(t0)
	return res, nil
}

// BulkLookup is BulkLookupCtx without cancellation.
func (s *Serve) BulkLookup(queries []string, k int) [][]lookup.Candidate {
	out, _ := s.BulkLookupCtx(context.Background(), queries, k) // errors are ctx's only
	return out
}

// BulkLookupCtx answers an explicit batch: repeated mentions collapse onto
// one computation, cache hits are served directly (under a done context
// too — they are already paid for), and only the distinct misses reach the
// model, in one cancellable call (hand-batched, bypassing the coalescer —
// the batch is already formed). Results align with the query order and are
// bit-identical to per-query model.Lookup calls.
func (s *Serve) BulkLookupCtx(ctx context.Context, queries []string, k int) ([][]lookup.Candidate, error) {
	out := make([][]lookup.Candidate, len(queries))
	if len(queries) == 0 || k <= 0 {
		return out, nil
	}
	norms := make([]string, len(queries))
	hit := make([]bool, len(queries))
	missIdx := make(map[string]int) // normalized mention -> index into misses
	var misses []string
	for i, q := range queries {
		norms[i] = core.NormalizeMention(q)
		if s.cache != nil {
			if res, ok := s.cache.Get(norms[i], k); ok {
				out[i], hit[i] = res, true
				continue
			}
		}
		if _, ok := missIdx[norms[i]]; !ok {
			missIdx[norms[i]] = len(misses)
			misses = append(misses, norms[i])
		}
	}
	if len(misses) == 0 {
		return out, nil
	}
	results, err := s.model.BulkLookupCtx(ctx, misses, k, s.opts.Parallelism)
	if err != nil {
		return nil, err
	}
	for j, m := range misses {
		if s.cache != nil {
			s.cache.Put(m, k, results[j])
		}
	}
	for i := range queries {
		if !hit[i] {
			out[i] = results[missIdx[norms[i]]]
		}
	}
	return out, nil
}

// Stats is the serving substrate's observability snapshot, exposed by the
// HTTP server's /stats endpoint.
type Stats struct {
	// Shards is the number of row ranges a solo scan covers — what the index
	// was split into, not what was asked for; 1 is an unsharded index.
	Shards    int                 `json:"shards"`
	Cache     *CacheStats         `json:"cache,omitempty"`
	Coalescer *CoalescerStats     `json:"coalescer,omitempty"`
	Latency   *obs.LatencySummary `json:"latency,omitempty"`
}

// Stats snapshots cache and coalescer counters plus the serve-latency
// quantiles.
func (s *Serve) Stats() Stats {
	st := Stats{Shards: 1}
	if sh, ok := s.model.Index().(*index.Sharded); ok {
		st.Shards = sh.Shards()
	}
	if s.cache != nil {
		cs := s.cache.Stats()
		st.Cache = &cs
	}
	if s.co != nil {
		co := s.co.Stats()
		st.Coalescer = &co
	}
	if sum := s.latency.Summary(); sum.Count > 0 {
		st.Latency = &sum
	}
	return st
}

// Close answers what the coalescer has queued and waits for its running
// batches. The Serve remains usable; subsequent lookups bypass batching.
func (s *Serve) Close() {
	if s.co != nil {
		s.co.Close()
	}
}
