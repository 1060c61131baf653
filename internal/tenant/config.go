// Package tenant turns one emblookup process into a multi-tenant host: a
// registry of named models/KGs (lazy zero-copy attach, ref-counted close,
// hot swap by atomic pointer) fronted by per-tenant admission control —
// token-bucket rate limits, concurrency caps, and a bounded admission
// queue with LIFO shedding — plus the deadline budget every request
// carries from HTTP through the serve substrate into the shard scans.
// Overload degrades predictably: an abusive tenant is throttled at its own
// quota while well-behaved tenants keep their isolated latency
// (DESIGN.md §15).
package tenant

import (
	"encoding/json"
	"fmt"
	"os"
	"time"
)

// Limits is one tenant's admission contract. Zero values pick the
// defaults below. A negative QueueDepth, DefaultDeadlineMs or MaxDeadlineMs
// turns that limit off; a negative MaxConcurrent, MaxK or MaxBatch would
// refuse every request, so Config.Validate rejects it, and a Burst below 1
// under a rate would never hold a whole token, so Validate rejects that too.
type Limits struct {
	// RatePerSec is the token-bucket refill rate in requests per second
	// (0 = unlimited: no rate gate).
	RatePerSec float64 `json:"ratePerSec,omitempty"`
	// Burst is the bucket depth — how many requests may arrive back-to-back
	// before the rate gate bites (0 = max(1, RatePerSec)).
	Burst float64 `json:"burst,omitempty"`
	// MaxConcurrent caps in-flight requests (0 = 64).
	MaxConcurrent int `json:"maxConcurrent,omitempty"`
	// QueueDepth bounds how many requests may wait for a concurrency slot;
	// past it the *oldest* waiter is shed with 429 (adaptive LIFO: newest
	// first, because the newest caller is the one still likely to be
	// listening). 0 = 2×MaxConcurrent; negative = no queue (immediate 429
	// at the cap).
	QueueDepth int `json:"queueDepth,omitempty"`
	// MaxK bounds the per-request candidate budget (0 = 1000, the
	// single-tenant server default).
	MaxK int `json:"maxK,omitempty"`
	// MaxBatch bounds the queries one /bulk request may carry (0 = 4096).
	MaxBatch int `json:"maxBatch,omitempty"`
	// DefaultDeadlineMs is the deadline applied when the request carries
	// none (0 = no implicit deadline).
	DefaultDeadlineMs int `json:"defaultDeadlineMs,omitempty"`
	// MaxDeadlineMs clamps the deadline a request may ask for (0 = 30000).
	MaxDeadlineMs int `json:"maxDeadlineMs,omitempty"`
}

func (l Limits) withDefaults() Limits {
	if l.Burst <= 0 {
		l.Burst = l.RatePerSec
		if l.Burst < 1 {
			l.Burst = 1
		}
	}
	if l.MaxConcurrent == 0 {
		l.MaxConcurrent = 64
	}
	if l.QueueDepth == 0 {
		l.QueueDepth = 2 * l.MaxConcurrent
	}
	if l.MaxK == 0 {
		l.MaxK = 1000
	}
	if l.MaxBatch == 0 {
		l.MaxBatch = 4096
	}
	if l.MaxDeadlineMs == 0 {
		l.MaxDeadlineMs = 30000
	}
	return l
}

// MaxDeadline returns the clamp as a duration (0 = unclamped).
func (l Limits) MaxDeadline() time.Duration {
	if l.MaxDeadlineMs <= 0 {
		return 0
	}
	return time.Duration(l.MaxDeadlineMs) * time.Millisecond
}

// DefaultDeadline returns the implicit per-request deadline (0 = none).
func (l Limits) DefaultDeadline() time.Duration {
	if l.DefaultDeadlineMs <= 0 {
		return 0
	}
	return time.Duration(l.DefaultDeadlineMs) * time.Millisecond
}

// TenantConfig declares one hosted tenant: its name (the /t/{name}/ path
// segment), the graph and model artifact paths, and its serving shape.
type TenantConfig struct {
	Name  string `json:"name"`
	Graph string `json:"graph"`
	Model string `json:"model"`
	// Shards and CacheSize tune the tenant's serve substrate (zero = the
	// serve package defaults: shards by index kind and size, 4096 entries).
	// A windowUs or tenant-level maxBatch (settings of a query batcher the
	// serve substrate no longer has) left over from an older file is
	// ignored, as encoding/json ignores any unknown field; limits.maxBatch
	// is the /bulk cap.
	Shards    int `json:"shards,omitempty"`
	CacheSize int `json:"cacheSize,omitempty"`
	// Preload attaches the model at startup instead of on first request.
	Preload bool   `json:"preload,omitempty"`
	Limits  Limits `json:"limits"`
}

// Config is the `serve -tenants` file: the tenants hosted by one process.
type Config struct {
	Tenants []TenantConfig `json:"tenants"`
}

// Validate checks names are present and unique, paths are set, and no
// limit is set to a value that would refuse every request.
func (c Config) Validate() error {
	if len(c.Tenants) == 0 {
		return fmt.Errorf("tenant: config declares no tenants")
	}
	seen := make(map[string]bool, len(c.Tenants))
	for i, t := range c.Tenants {
		if t.Name == "" {
			return fmt.Errorf("tenant: tenants[%d] has no name", i)
		}
		if seen[t.Name] {
			return fmt.Errorf("tenant: duplicate tenant name %q", t.Name)
		}
		seen[t.Name] = true
		if t.Graph == "" || t.Model == "" {
			return fmt.Errorf("tenant: tenant %q needs both graph and model paths", t.Name)
		}
		l := t.Limits
		for _, f := range []struct {
			name string
			v    int
		}{{"maxConcurrent", l.MaxConcurrent}, {"maxK", l.MaxK}, {"maxBatch", l.MaxBatch}} {
			if f.v < 0 {
				return fmt.Errorf("tenant: tenant %q: limits.%s is %d, must not be negative (0 picks the default)", t.Name, f.name, f.v)
			}
		}
		if l.RatePerSec > 0 && l.Burst > 0 && l.Burst < 1 {
			return fmt.Errorf("tenant: tenant %q: limits.burst is %g, must be at least 1 (0 picks the default)", t.Name, l.Burst)
		}
	}
	return nil
}

// LoadConfig reads and validates a tenants JSON file.
func LoadConfig(path string) (Config, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return Config{}, fmt.Errorf("tenant: reading config: %w", err)
	}
	var c Config
	if err := json.Unmarshal(data, &c); err != nil {
		return Config{}, fmt.Errorf("tenant: parsing %s: %w", path, err)
	}
	if err := c.Validate(); err != nil {
		return Config{}, err
	}
	return c, nil
}
