// Package obs is the observability substrate of the serving stack: a
// metrics registry whose recording primitives are cheap enough for the
// allocation-free lookup hot path (DESIGN.md §6), per-request tracing that
// decomposes a lookup into its pipeline stages and follows it across
// cluster hops, Prometheus text exposition, and a ring-buffer slow-query
// log. Every serving layer (internal/core, serve, server, cluster, remote)
// records into it; /metrics and /debug/slowlog expose it (DESIGN.md §10).
//
// Three recording primitives, all safe for concurrent use and all
// allocation-free on the record path:
//
//   - Counter: a monotone count sharded across padded cache lines, so
//     concurrent recorders don't serialize on one hot word
//   - Gauge: a last-written float64 (set, not accumulated)
//   - Histogram: log-bucketed atomic bucket counts yielding p50/p95/p99
//     without sampling or locks (histogram.go)
//
// Metrics are named in Prometheus style, constant labels rendered into the
// name at registration time (`Labels("x_total", "stage", "embed")` →
// `x_total{stage="embed"}`) so the hot path never formats strings.
// Registration is get-or-create: two callers asking for the same name share
// one metric, which is exactly the Prometheus process-wide semantics.
// Recording costs ~ns (an atomic add behind an enabled check); a disabled
// registry (SetEnabled(false), `emblookup serve -metrics=false`) reduces
// every record to a single atomic load.
package obs

import (
	"math"
	"math/rand/v2"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
)

// counterShards spreads concurrent Add calls across this many padded
// slots — a power of two so the shard pick is a mask, not a modulo.
const counterShards = 8

// paddedInt64 occupies a full cache line so neighboring shards don't
// false-share.
type paddedInt64 struct {
	v atomic.Int64
	_ [56]byte
}

// Counter is a monotonically increasing count. Add picks a shard with the
// runtime's per-thread cheap RNG (wait-free, no allocation), so 16
// goroutines hammering one counter touch 8 independent cache lines instead
// of serializing on one. A nil Counter is a valid no-op recorder.
type Counter struct {
	off    *atomic.Bool
	shards [counterShards]paddedInt64
}

// Add increments the counter by n.
func (c *Counter) Add(n int64) {
	if c == nil || c.off.Load() {
		return
	}
	c.shards[rand.Uint32()&(counterShards-1)].v.Add(n)
}

// Inc increments the counter by one.
func (c *Counter) Inc() { c.Add(1) }

// Value returns the summed count.
func (c *Counter) Value() int64 {
	if c == nil {
		return 0
	}
	var total int64
	for i := range c.shards {
		total += c.shards[i].v.Load()
	}
	return total
}

// Gauge is a last-written value (queue depth, healthy-node count). A nil
// Gauge is a valid no-op recorder.
type Gauge struct {
	off *atomic.Bool
	v   atomic.Uint64 // float64 bits
}

// Set stores the gauge value.
func (g *Gauge) Set(v float64) {
	if g == nil || g.off.Load() {
		return
	}
	g.v.Store(math.Float64bits(v))
}

// Value returns the last stored value.
func (g *Gauge) Value() float64 {
	if g == nil {
		return 0
	}
	return math.Float64frombits(g.v.Load())
}

// metricKind discriminates what one registered name holds.
type metricKind int

const (
	kindCounter metricKind = iota
	kindGauge
	kindHistogram
	kindCounterFunc
	kindGaugeFunc
)

// entry is one registered metric: exactly one of the typed fields is set.
type entry struct {
	family string // name with the {label} suffix stripped
	kind   metricKind
	c      *Counter
	g      *Gauge
	h      *Histogram
	f      func() float64
}

// Registry holds named metrics and renders them in Prometheus text format
// (prometheus.go). Registration takes a lock; recording through the
// returned handles never does. The zero value is not usable — construct
// with New or use the process-wide Default.
type Registry struct {
	off     atomic.Bool
	mu      sync.Mutex
	entries map[string]*entry
}

// New builds an empty, enabled registry.
func New() *Registry {
	return &Registry{entries: make(map[string]*entry)}
}

var defaultRegistry = New()

// Default returns the process-wide registry: the one the core lookup
// stages, the CLI serving modes, and every component that is not handed an
// explicit registry record into.
func Default() *Registry { return defaultRegistry }

// SetEnabled turns recording on or off for every metric created from this
// registry. Disabled metrics keep their accumulated values; they just stop
// moving.
func (r *Registry) SetEnabled(on bool) { r.off.Store(!on) }

// family strips the constant-label suffix from a full metric name.
func family(name string) string {
	if i := strings.IndexByte(name, '{'); i >= 0 {
		return name[:i]
	}
	return name
}

// get returns the entry for name, creating it with mk on first use and
// panicking when the name is already registered as a different kind —
// always a programming error, never a runtime condition.
func (r *Registry) get(name string, kind metricKind, mk func(*entry)) *entry {
	if name == "" || family(name) == "" {
		panic("obs: empty metric name")
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if e, ok := r.entries[name]; ok {
		if e.kind != kind {
			panic("obs: metric " + name + " re-registered as a different kind")
		}
		return e
	}
	e := &entry{family: family(name), kind: kind}
	mk(e)
	r.entries[name] = e
	return e
}

// Counter returns the counter registered under name, creating it on first
// use. The name may carry constant labels: `hits_total{cache="mention"}`.
func (r *Registry) Counter(name string) *Counter {
	return r.get(name, kindCounter, func(e *entry) {
		e.c = &Counter{off: &r.off}
	}).c
}

// Gauge returns the gauge registered under name, creating it on first use.
func (r *Registry) Gauge(name string) *Gauge {
	return r.get(name, kindGauge, func(e *entry) {
		e.g = &Gauge{off: &r.off}
	}).g
}

// Histogram returns the histogram registered under name, creating it on
// first use. Names ending in `_seconds` are exposed with nanosecond
// observations scaled to seconds; anything else is exposed raw (sizes,
// counts).
func (r *Registry) Histogram(name string) *Histogram {
	return r.get(name, kindHistogram, func(e *entry) {
		e.h = &Histogram{off: &r.off}
	}).h
}

// CounterFunc registers a counter whose value is pulled from f at
// exposition time — the bridge for components that already keep their own
// exact instance-local counters (the mention cache, tenant admission).
// Re-registering the same name swaps in the new function: the latest
// instance wins, matching the one-serving-stack-per-process deployment.
func (r *Registry) CounterFunc(name string, f func() float64) {
	r.registerFunc(name, kindCounterFunc, f)
}

// GaugeFunc registers a gauge pulled from f at exposition time.
func (r *Registry) GaugeFunc(name string, f func() float64) {
	r.registerFunc(name, kindGaugeFunc, f)
}

func (r *Registry) registerFunc(name string, kind metricKind, f func() float64) {
	if name == "" || family(name) == "" {
		panic("obs: empty metric name")
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if e, ok := r.entries[name]; ok {
		if e.kind != kind {
			panic("obs: metric " + name + " re-registered as a different kind")
		}
		e.f = f
		return
	}
	r.entries[name] = &entry{family: family(name), kind: kind, f: f}
}

// snapshot returns the registered names in sorted order plus their entries,
// under the lock — the exposition path.
func (r *Registry) snapshot() ([]string, map[string]*entry) {
	r.mu.Lock()
	defer r.mu.Unlock()
	names := make([]string, 0, len(r.entries))
	entries := make(map[string]*entry, len(r.entries))
	for n, e := range r.entries {
		names = append(names, n)
		entries[n] = e
	}
	sort.Strings(names)
	return names, entries
}

// Labels renders a family name plus constant key/value label pairs into the
// full metric name: Labels("x_total", "stage", "embed") →
// `x_total{stage="embed"}`. Call it at registration time, never on a hot
// path.
func Labels(family string, kv ...string) string {
	if len(kv) == 0 {
		return family
	}
	if len(kv)%2 != 0 {
		panic("obs: Labels needs key/value pairs")
	}
	var b strings.Builder
	b.WriteString(family)
	b.WriteByte('{')
	for i := 0; i < len(kv); i += 2 {
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteString(kv[i])
		b.WriteString(`="`)
		b.WriteString(kv[i+1])
		b.WriteString(`"`)
	}
	b.WriteByte('}')
	return b.String()
}
