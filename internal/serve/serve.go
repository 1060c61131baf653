// Package serve is the throughput substrate between the HTTP layer and
// core.EmbLookup — the deployment shape of embedding-as-a-service systems
// like KGvec2go and Wembedder, where one shared entity index answers heavy
// concurrent traffic of small lookups. Two pieces raise throughput without
// changing any result:
//
//   - sharded scans (index.Sharded via core.WithShardedIndex): over an
//     index large enough for a range to be worth a thread wake-up, one query
//     fans its scan across S row shards and merges per-shard top-k heaps; a
//     batch spreads its queries over the cores instead
//   - a sharded mention cache (MentionCache): table-annotation traffic
//     repeats the same cell strings constantly, so results are cached under
//     the embedding-invariant key core.NormalizeMention(q)
//
// A miss runs on its caller's goroutine: no queue sits between a request
// and the scan (DESIGN.md §7 "No query coalescing" has the measurement).
// A request is one context.Context: LookupCtx and BulkLookupCtx are the
// only bodies, a request's deadline and its trace (obs.WithTrace) both ride
// in ctx through the cache and the scan, and Lookup and BulkLookup are
// one-line wrappers under context.Background() (kept because benchmark/
// compiles against them). Every path returns bit-identical candidates to a
// direct core.EmbLookup.Lookup call (see DESIGN.md §7).
package serve

import (
	"context"
	"time"

	"emblookup/internal/core"
	"emblookup/internal/index"
	"emblookup/internal/lookup"
	"emblookup/internal/obs"
)

// Options configures the serving substrate. The zero value enables both
// pieces at defaults; a negative CacheSize disables the cache.
type Options struct {
	// Shards is the index shard count: 0 derives it from the index
	// (index.DefaultShards: a clustered fast-scan index gets 1; PQ, Flat
	// and an unclustered fast-scan index get one per MiB of payload, 1 to
	// 4, so a small one is served unsharded; one that cannot be
	// range-scanned gets 1), 1 keeps the index unsharded, n > 1 asks for
	// exactly n.
	Shards int
	// CacheSize is the mention cache capacity in entries (0 = 4096;
	// negative disables the cache).
	CacheSize int
	// Registry receives the substrate's metrics — serve latency, the
	// normalize stage histogram and the cache collectors (nil =
	// obs.Default()). Benchmarks hand each instance a fresh registry so
	// phases don't contaminate each other.
	Registry *obs.Registry
	// Tenant, when set, labels every one of those series tenant="<name>",
	// so the substrates of tenants sharing a registry keep series of their
	// own; empty keeps the unlabelled names of a plain server.
	Tenant string
}

// Serve answers lookups through the cache and the sharded index. Safe for
// concurrent use.
type Serve struct {
	model   *core.EmbLookup
	derived bool // model is the sharded sibling New made; Close closes it
	cache   *MentionCache

	latency        *obs.Histogram // end-to-end serve.Lookup latency
	stageNormalize *obs.Histogram // the serve-side stage of the lookup pipeline
}

// New builds the serving substrate over a trained model. With more than
// one shard the model's index is wrapped for sharded scans (the model itself
// is shared, not retrained); PQ, FastScan and Flat indexes support this, IVF
// and a dynamic index refuse an explicit opts.Shards > 1 and derive 1. The
// caller keeps model and closes it after the Serve.
func New(model *core.EmbLookup, opts Options) (*Serve, error) {
	if opts.Shards == 0 {
		opts.Shards = index.DefaultShards(model.Index())
	}
	if opts.CacheSize == 0 {
		opts.CacheSize = 4096
	}
	derived := opts.Shards > 1
	if derived {
		sharded, err := model.WithShardedIndex(opts.Shards, 0)
		if err != nil {
			return nil, err
		}
		model = sharded
	}
	reg := opts.Registry
	if reg == nil {
		reg = obs.Default()
	}
	var tenant []string
	if opts.Tenant != "" {
		tenant = []string{"tenant", opts.Tenant}
	}
	s := &Serve{model: model, derived: derived}
	s.latency = reg.Histogram(obs.Labels("emblookup_serve_lookup_seconds", tenant...))
	s.stageNormalize = reg.Histogram(obs.Labels("emblookup_lookup_stage_seconds", append(tenant, "stage", "normalize")...))
	if opts.CacheSize > 0 {
		s.cache = NewMentionCache(opts.CacheSize)
		s.cache.Observe(reg, tenant...)
	}
	return s, nil
}

// Model returns the model lookups are answered with (the sharded sibling
// when sharding is enabled).
func (s *Serve) Model() *core.EmbLookup { return s.model }

// generation tags a cache entry, so that an ingest expires every answer
// cached before it: read before its lookup, a dynamic index's Len (every
// Add raises it), or 0 for a sealed index, which reads nothing. An entry of
// an older generation is never hit again; the LRU evicts it.
func (s *Serve) generation() int {
	if dyn := s.model.Dynamic(); dyn != nil {
		return dyn.Len()
	}
	return 0
}

// Lookup is LookupCtx without a context.
func (s *Serve) Lookup(q string, k int) []lookup.Candidate {
	res, _ := s.LookupCtx(context.Background(), q, k) // errors are ctx's only
	return res
}

// LookupCtx answers one request on the caller's goroutine: normalize →
// cache → model.LookupCtx → cache fill. ctx is the whole request: its
// deadline or cancellation and, through obs.WithTrace, its trace. The
// normalize and cache stages span here and the model adds its own. A cache
// hit is served even under a done context (it is already paid for); a miss
// is checked on entry to the model and cancelled mid-scan. Results are
// bit-identical to model.Lookup(q, k); cached slices are shared across
// callers and must be treated as read-only. A done context returns
// ctx.Err() and no candidates.
func (s *Serve) LookupCtx(ctx context.Context, q string, k int) ([]lookup.Candidate, error) {
	if k <= 0 {
		return nil, nil
	}
	gen := s.generation()
	tr := obs.FromContext(ctx)
	t0 := time.Now()
	sp := tr.Start("normalize")
	norm := core.NormalizeMention(q)
	sp.End()
	s.stageNormalize.Since(t0)
	if s.cache != nil {
		sp = tr.Start("cache")
		res, ok := s.cache.Get(norm, k, gen)
		sp.End()
		if ok {
			s.latency.Since(t0)
			return res, nil
		}
	}
	res, err := s.model.LookupCtx(ctx, norm, k)
	if err != nil {
		return nil, err
	}
	if s.cache != nil {
		s.cache.Put(norm, k, gen, res)
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
// model, in one cancellable call. Results align with the query order and are
// bit-identical to per-query model.Lookup calls.
func (s *Serve) BulkLookupCtx(ctx context.Context, queries []string, k int) ([][]lookup.Candidate, error) {
	out := make([][]lookup.Candidate, len(queries))
	if len(queries) == 0 || k <= 0 {
		return out, nil
	}
	gen := s.generation()
	norms := make([]string, len(queries))
	hit := make([]bool, len(queries))
	missIdx := make(map[string]int) // normalized mention -> index into misses
	var misses []string
	for i, q := range queries {
		norms[i] = core.NormalizeMention(q)
		if s.cache != nil {
			if res, ok := s.cache.Get(norms[i], k, gen); ok {
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
	results, err := s.model.BulkLookupCtx(ctx, misses, k, 0)
	if err != nil {
		return nil, err
	}
	for j, m := range misses {
		if s.cache != nil {
			s.cache.Put(m, k, gen, results[j])
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
	Shards  int                 `json:"shards"`
	Cache   *CacheStats         `json:"cache,omitempty"`
	Latency *obs.LatencySummary `json:"latency,omitempty"`
	// Coalescer is always nil: nothing batches single lookups any more. It
	// is kept, and omitted from /stats, only because benchmark/child.go
	// compiles against its two counters.
	Coalescer *struct{ Batches, Queries uint64 } `json:"coalescer,omitempty"`
}

// Stats snapshots the cache counters and the serve-latency quantiles.
func (s *Serve) Stats() Stats {
	st := Stats{Shards: 1}
	if sh, ok := s.model.Index().(*index.Sharded); ok {
		st.Shards = sh.Shards()
	}
	if s.cache != nil {
		cs := s.cache.Stats()
		st.Cache = &cs
	}
	if sum := s.latency.Summary(); sum.Count > 0 {
		st.Latency = &sum
	}
	return st
}

// Close closes the sharded sibling New derived, which holds a reference to
// the caller's artifact. Lookups after Close stay valid while the caller's
// model is open.
func (s *Serve) Close() {
	if s.derived {
		s.model.Close()
	}
}
