// Package remote simulates the remote lookup services of Table V — the
// Wikidata API endpoint and the SearX metasearch engine. A real benchmark
// cannot hammer those services (and this environment is offline), so the
// dominant cost of remote lookup — per-request network latency under a
// parallelism cap (Wikidata allows five parallel queries per IP) — is
// accounted on a virtual clock instead of being slept. The result semantics
// come from local indexes that, like the real services, know the full alias
// set of every entity.
//
// Each lookup is one round trip: the service counts them, and
// VirtualElapsed serializes the count into rounds of MaxParallel.
package remote

import (
	"sync/atomic"
	"time"

	"emblookup/internal/lookup"
	"emblookup/internal/obs"
)

// Config describes one simulated endpoint.
type Config struct {
	// Latency is the round-trip cost of one request.
	Latency time.Duration
	// MaxParallel is the endpoint's per-client parallelism cap (≤ 0
	// treated as 1).
	MaxParallel int
}

// WikidataAPIConfig models the Wikidata search endpoint: moderate latency,
// five parallel queries per IP (the limit the paper cites).
func WikidataAPIConfig() Config {
	return Config{Latency: 80 * time.Millisecond, MaxParallel: 5}
}

// SearXConfig models a metasearch engine that fans out to ~70 engines:
// higher latency, modest parallelism.
func SearXConfig() Config {
	return Config{Latency: 250 * time.Millisecond, MaxParallel: 4}
}

// Service wraps a result backend with virtual latency accounting. It
// implements both lookup.Service and lookup.VirtualClock.
type Service struct {
	name     string
	backend  lookup.Service
	cfg      Config
	requests atomic.Int64

	// A process-wide counter labeled by service name; simulated services
	// surface on /metrics like any live dependency would.
	reqTotal *obs.Counter
}

// New wraps backend as a simulated remote endpoint.
func New(name string, backend lookup.Service, cfg Config) *Service {
	if cfg.MaxParallel <= 0 {
		cfg.MaxParallel = 1
	}
	return &Service{
		name:     name,
		backend:  backend,
		cfg:      cfg,
		reqTotal: obs.Default().Counter(obs.Labels("emblookup_remote_requests_total", "service", name)),
	}
}

// Name implements lookup.Service.
func (s *Service) Name() string { return s.name }

// Lookup performs the backend lookup as one round trip to the endpoint.
func (s *Service) Lookup(q string, k int) []lookup.Candidate {
	s.requests.Add(1)
	s.reqTotal.Inc()
	return s.backend.Lookup(q, k)
}

// VirtualElapsed returns the simulated network time: with MaxParallel
// requests in flight, n requests take ceil(n/MaxParallel) round trips.
func (s *Service) VirtualElapsed() time.Duration {
	n := s.requests.Load()
	rounds := (n + int64(s.cfg.MaxParallel) - 1) / int64(s.cfg.MaxParallel)
	return time.Duration(rounds) * s.cfg.Latency
}

// ResetVirtual clears the request counter.
func (s *Service) ResetVirtual() { s.requests.Store(0) }

// Requests returns how many requests were issued since the last reset.
func (s *Service) Requests() int64 { return s.requests.Load() }
