package serve

import (
	"container/list"
	"sync"

	"emblookup/internal/lookup"
	"emblookup/internal/obs"
)

// cacheKey identifies one cached lookup: the normalized mention (see
// core.NormalizeMention), the candidate budget and the index generation
// (Serve.generation). Different k values cache separately — a truncated
// larger result is not guaranteed bit-identical to a direct smaller-k
// lookup once alias dedupe is involved.
type cacheKey struct {
	mention string
	k, gen  int
}

// cacheEntry is one LRU node payload.
type cacheEntry struct {
	key cacheKey
	val []lookup.Candidate
}

// cacheShard is one independently-locked LRU segment.
type cacheShard struct {
	mu       sync.Mutex
	capacity int
	ll       *list.List // front = most recent
	items    map[cacheKey]*list.Element

	hits, misses, evictions uint64
}

// MentionCache is a fixed-capacity LRU over lookup results, sharded across
// a power-of-two number of independently-locked segments so concurrent
// requests contend only when they hash to the same segment. Cached slices
// are shared between callers and must be treated as read-only.
type MentionCache struct {
	shards []cacheShard
	mask   uint64
}

// maxCacheShards bounds the segment count; capacities below it get one
// entry per shard rather than more shards than entries.
const maxCacheShards = 16

// NewMentionCache builds a cache holding at most `capacity` entries in
// total. Capacity must be positive; it is rounded up to a multiple of the
// shard count (the largest power of two ≤ min(maxCacheShards, capacity)).
func NewMentionCache(capacity int) *MentionCache {
	if capacity <= 0 {
		capacity = 1
	}
	shards := 1
	for shards*2 <= capacity && shards*2 <= maxCacheShards {
		shards *= 2
	}
	c := &MentionCache{shards: make([]cacheShard, shards), mask: uint64(shards - 1)}
	per := (capacity + shards - 1) / shards
	for i := range c.shards {
		c.shards[i] = cacheShard{
			capacity: per,
			ll:       list.New(),
			items:    make(map[cacheKey]*list.Element, per),
		}
	}
	return c
}

// shardFor hashes (mention, k) with FNV-1a and selects a segment.
func (c *MentionCache) shardFor(key cacheKey) *cacheShard {
	const (
		offset64 = 14695981039346656037
		prime64  = 1099511628211
	)
	h := uint64(offset64)
	for i := 0; i < len(key.mention); i++ {
		h ^= uint64(key.mention[i])
		h *= prime64
	}
	h ^= uint64(key.k)
	h *= prime64
	return &c.shards[h&c.mask]
}

// Get returns the cached candidates for (mention, k, gen) and whether they
// were present, promoting the entry to most-recently-used. The returned
// slice is shared: callers must not modify it.
func (c *MentionCache) Get(mention string, k, gen int) ([]lookup.Candidate, bool) {
	key := cacheKey{mention, k, gen}
	s := c.shardFor(key)
	s.mu.Lock()
	defer s.mu.Unlock()
	if el, ok := s.items[key]; ok {
		s.ll.MoveToFront(el)
		s.hits++
		return el.Value.(*cacheEntry).val, true
	}
	s.misses++
	return nil, false
}

// Put stores the candidates for (mention, k, gen), evicting the segment's
// least-recently-used entry when it is full. The cache takes shared
// ownership of val: it must not be modified after insertion.
func (c *MentionCache) Put(mention string, k, gen int, val []lookup.Candidate) {
	key := cacheKey{mention, k, gen}
	s := c.shardFor(key)
	s.mu.Lock()
	defer s.mu.Unlock()
	if el, ok := s.items[key]; ok {
		el.Value.(*cacheEntry).val = val
		s.ll.MoveToFront(el)
		return
	}
	s.items[key] = s.ll.PushFront(&cacheEntry{key: key, val: val})
	if s.ll.Len() > s.capacity {
		oldest := s.ll.Back()
		s.ll.Remove(oldest)
		delete(s.items, oldest.Value.(*cacheEntry).key)
		s.evictions++
	}
}

// CacheStats is a point-in-time snapshot of the cache counters, summed
// across segments.
type CacheStats struct {
	Hits      uint64 `json:"hits"`
	Misses    uint64 `json:"misses"`
	Evictions uint64 `json:"evictions"`
	Entries   int    `json:"entries"`
	Capacity  int    `json:"capacity"`
	Shards    int    `json:"shards"`
}

// HitRate returns hits / (hits + misses), or 0 before any probe.
func (cs CacheStats) HitRate() float64 {
	total := cs.Hits + cs.Misses
	if total == 0 {
		return 0
	}
	return float64(cs.Hits) / float64(total)
}

// Observe bridges the cache's exact instance-local counters into a metrics
// registry as pull-time collectors: the per-instance Stats stay the source
// of truth (tests assert exact values on them) and /metrics reads them at
// scrape time without any double counting on the hot path. The series
// carry the label pairs kv (none for a plain server).
func (c *MentionCache) Observe(r *obs.Registry, kv ...string) {
	r.CounterFunc(obs.Labels("emblookup_cache_hits_total", kv...), func() float64 { return float64(c.Stats().Hits) })
	r.CounterFunc(obs.Labels("emblookup_cache_misses_total", kv...), func() float64 { return float64(c.Stats().Misses) })
	r.CounterFunc(obs.Labels("emblookup_cache_evictions_total", kv...), func() float64 { return float64(c.Stats().Evictions) })
	r.GaugeFunc(obs.Labels("emblookup_cache_entries", kv...), func() float64 { return float64(c.Stats().Entries) })
}

// Stats snapshots the counters across all segments.
func (c *MentionCache) Stats() CacheStats {
	st := CacheStats{Shards: len(c.shards)}
	for i := range c.shards {
		s := &c.shards[i]
		s.mu.Lock()
		st.Hits += s.hits
		st.Misses += s.misses
		st.Evictions += s.evictions
		st.Entries += s.ll.Len()
		st.Capacity += s.capacity
		s.mu.Unlock()
	}
	return st
}
