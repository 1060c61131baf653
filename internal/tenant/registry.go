package tenant

import (
	"fmt"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"emblookup/internal/core"
	"emblookup/internal/kg"
	"emblookup/internal/obs"
	"emblookup/internal/serve"
)

// Handle is one loaded generation of a tenant's model: the zero-copy
// attached artifact, its graph, and the serve substrate over them. Handles
// are ref-counted: every request pins the handle it serves with, so a hot
// swap can retire the old generation and close its mmap backing only after
// the last in-flight request on it finishes — the routerView drain
// discipline applied to model lifetimes.
type Handle struct {
	tenant string
	graph  *kg.Graph
	model  *core.EmbLookup // the attached model owning the artifact backing
	sv     *serve.Serve

	refs      atomic.Int64 // registry's reference counts as 1
	retired   atomic.Bool
	closeOnce sync.Once
}

// Graph returns the handle's knowledge graph.
func (h *Handle) Graph() *kg.Graph { return h.graph }

// Serve returns the handle's serving substrate.
func (h *Handle) Serve() *serve.Serve { return h.sv }

// Release unpins the handle. The last release of a retired handle closes
// it: the serve coalescer flushes and the artifact backing is unmapped.
func (h *Handle) Release() {
	if h.refs.Add(-1) == 0 && h.retired.Load() {
		h.close()
	}
}

func (h *Handle) close() {
	h.closeOnce.Do(func() {
		h.sv.Close()
		h.model.Close()
	})
}

// retire drops the registry's own reference. New acquires bounce to the
// replacement handle; the generation closes when its refcount drains.
func (h *Handle) retire() {
	h.retired.Store(true)
	h.Release()
}

// Tenant is one hosted model slot: its admission gate, its limits, and the
// current Handle generation (atomic pointer; nil until first use when the
// tenant is lazy-loaded).
type Tenant struct {
	cfg TenantConfig
	adm *Admission
	reg *obs.Registry

	latency *obs.Histogram // per-tenant end-to-end request latency
	ddlExc  atomic.Int64   // requests that ran out of deadline

	mu  sync.Mutex // serializes load and swap (not the request path)
	cur atomic.Pointer[Handle]

	loadedAt atomic.Int64 // unix nanos of the last successful (re)load
}

// Name returns the tenant's route name.
func (t *Tenant) Name() string { return t.cfg.Name }

// Admission returns the tenant's admission gate.
func (t *Tenant) Admission() *Admission { return t.adm }

// Limits returns the tenant's effective limits.
func (t *Tenant) Limits() Limits { return t.adm.Limits() }

// Latency returns the tenant-labeled request histogram.
func (t *Tenant) Latency() *obs.Histogram { return t.latency }

// DeadlineExceeded increments the tenant's deadline_exceeded counter by n
// queries — called exactly once per failed query, at the outermost layer
// that owns the request (never in inner retry loops).
func (t *Tenant) DeadlineExceeded(n int64) { t.ddlExc.Add(n) }

// Loaded reports whether the tenant's model is currently attached.
func (t *Tenant) Loaded() bool { return t.cur.Load() != nil }

// Acquire pins the tenant's current handle, lazily attaching the model on
// first use. The retry loop closes the race with a concurrent Swap: a
// handle retired between load and pin is released and the new generation
// taken instead, so a swap's drain can never miss a request.
func (t *Tenant) Acquire() (*Handle, error) {
	for {
		h := t.cur.Load()
		if h == nil {
			var err error
			if h, err = t.load(); err != nil {
				return nil, err
			}
		}
		h.refs.Add(1)
		if !h.retired.Load() {
			return h, nil
		}
		h.Release()
	}
}

// load attaches the tenant's model if no generation is live yet.
func (t *Tenant) load() (*Handle, error) {
	t.mu.Lock()
	defer t.mu.Unlock()
	if h := t.cur.Load(); h != nil {
		return h, nil
	}
	h, err := t.open()
	if err != nil {
		return nil, err
	}
	t.cur.Store(h)
	return h, nil
}

// open attaches one fresh generation from the configured artifact paths.
func (t *Tenant) open() (*Handle, error) {
	g, err := kg.LoadFile(t.cfg.Graph)
	if err != nil {
		return nil, fmt.Errorf("tenant %s: loading graph: %w", t.cfg.Name, err)
	}
	model, err := core.LoadFile(t.cfg.Model, g)
	if err != nil {
		return nil, fmt.Errorf("tenant %s: loading model: %w", t.cfg.Name, err)
	}
	sv, err := serve.New(model, serve.Options{
		Shards:    t.cfg.Shards,
		CacheSize: t.cfg.CacheSize,
		MaxBatch:  t.cfg.MaxBatch,
		Registry:  t.reg,
	})
	if err != nil {
		model.Close()
		return nil, fmt.Errorf("tenant %s: serve substrate: %w", t.cfg.Name, err)
	}
	h := &Handle{tenant: t.cfg.Name, graph: g, model: model, sv: sv}
	h.refs.Store(1) // the registry's reference
	t.loadedAt.Store(time.Now().UnixNano())
	return h, nil
}

// Swap hot-reloads the tenant: the new generation is attached from the
// (possibly rewritten) artifact paths, the pointer swaps atomically — new
// requests land on the new model immediately — and the old generation
// closes when its in-flight requests drain. Lookups never block on a swap.
func (t *Tenant) Swap() error {
	t.mu.Lock()
	defer t.mu.Unlock()
	h, err := t.open()
	if err != nil {
		return err
	}
	old := t.cur.Swap(h)
	if old != nil {
		old.retire()
	}
	return nil
}

// TenantStats is one tenant's /stats section.
type TenantStats struct {
	Name             string              `json:"name"`
	Loaded           bool                `json:"loaded"`
	Limits           Limits              `json:"limits"`
	Admission        AdmissionStats      `json:"admission"`
	DeadlineExceeded int64               `json:"deadlineExceeded"`
	Latency          *obs.LatencySummary `json:"latency,omitempty"`
	Serving          *serve.Stats        `json:"serving,omitempty"`
	Graph            string              `json:"graph,omitempty"`
	Entities         int                 `json:"entities,omitempty"`
	GraphIndexed     bool                `json:"graphIndexed,omitempty"`
}

// Stats snapshots the tenant without forcing a lazy load.
func (t *Tenant) Stats() TenantStats {
	st := TenantStats{
		Name:             t.cfg.Name,
		Limits:           t.adm.Limits(),
		Admission:        t.adm.Stats(),
		DeadlineExceeded: t.ddlExc.Load(),
	}
	if sum := t.latency.Summary(); sum.Count > 0 {
		st.Latency = &sum
	}
	if h := t.cur.Load(); h != nil {
		st.Loaded = true
		sv := h.sv.Stats()
		st.Serving = &sv
		st.Graph = h.graph.Name
		st.Entities = len(h.graph.Entities)
		st.GraphIndexed = h.graph.Indexed()
	}
	return st
}

// Registry hosts the process's tenants, keyed by route name.
type Registry struct {
	tenants map[string]*Tenant
	names   []string // config order
}

// NewRegistry builds the tenant registry from a validated config. Metrics
// land in reg (nil = obs.Default()) under tenant-labeled names. Tenants
// with Preload attach immediately; the rest attach on first request.
func NewRegistry(cfg Config, reg *obs.Registry) (*Registry, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if reg == nil {
		reg = obs.Default()
	}
	r := &Registry{tenants: make(map[string]*Tenant, len(cfg.Tenants))}
	for _, tc := range cfg.Tenants {
		t := &Tenant{cfg: tc, reg: reg, adm: NewAdmission(tc.Name, tc.Limits)}
		t.adm.Observe(reg)
		t.latency = reg.Histogram(obs.Labels("emblookup_tenant_request_seconds", "tenant", tc.Name))
		reg.CounterFunc(obs.Labels("emblookup_tenant_deadline_exceeded_total", "tenant", tc.Name), func() float64 {
			return float64(t.ddlExc.Load())
		})
		r.tenants[tc.Name] = t
		r.names = append(r.names, tc.Name)
		if tc.Preload {
			if _, err := t.load(); err != nil {
				return nil, err
			}
		}
	}
	return r, nil
}

// Tenant resolves a route name.
func (r *Registry) Tenant(name string) (*Tenant, bool) {
	t, ok := r.tenants[name]
	return t, ok
}

// Names returns the hosted tenant names in config order.
func (r *Registry) Names() []string { return append([]string(nil), r.names...) }

// Stats snapshots every tenant, sorted by name for stable output.
func (r *Registry) Stats() []TenantStats {
	out := make([]TenantStats, 0, len(r.tenants))
	for _, name := range r.names {
		out = append(out, r.tenants[name].Stats())
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}

// Close retires every tenant's current generation; each closes when its
// in-flight requests drain (immediately when idle).
func (r *Registry) Close() {
	for _, t := range r.tenants {
		t.mu.Lock()
		if h := t.cur.Swap(nil); h != nil {
			h.retire()
		}
		t.mu.Unlock()
	}
}
