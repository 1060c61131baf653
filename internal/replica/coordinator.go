// Package replica is the replication and rebalancing control plane over
// the scatter-gather cluster (DESIGN.md §14): a coordinator that owns the
// versioned partition→replica-set assignment, pollers that gossip it to
// routers, and a local harness that runs replicated clusters through live
// partition moves and rolling restarts with zero dropped queries.
//
// The division of labor: internal/cluster is the data plane (a router
// serves whatever map it holds, drains the old assignment on a swap, and
// keeps per-URL health/latency history); this package is the control plane
// (who serves what, and the choreography — drain, stop, restart, replay,
// rejoin — that moves a cluster between assignments while it serves).
package replica

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"sync"
	"time"

	"emblookup/internal/cluster"
)

// Coordinator owns the cluster map and its epoch counter. Every change
// goes through Install, which takes only a strictly newer epoch — routers
// only ever move to strictly newer epochs too, so however a map reaches a
// router (poll, direct apply, or both racing) the routing state converges
// forward.
type Coordinator struct {
	mu sync.Mutex
	m  cluster.Map
}

// NewCoordinator seeds the control plane with the cluster's first map.
func NewCoordinator(m cluster.Map) (*Coordinator, error) {
	if err := m.Validate(); err != nil {
		return nil, err
	}
	return &Coordinator{m: m.Clone()}, nil
}

// Map returns the currently published map.
func (c *Coordinator) Map() cluster.Map {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.m.Clone()
}

// Epoch returns the current map epoch.
func (c *Coordinator) Epoch() int64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.m.Epoch
}

// Install adopts a map a control plane already applied out-of-band (e.g.
// directly to a co-located router) so gossip observers converge to it.
// The epoch must move strictly forward.
func (c *Coordinator) Install(m cluster.Map) error {
	if err := m.Validate(); err != nil {
		return err
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if m.Epoch <= c.m.Epoch {
		return fmt.Errorf("replica: installing epoch %d over %d", m.Epoch, c.m.Epoch)
	}
	c.m = m.Clone()
	return nil
}

// Handler serves the map to polling routers: GET /cluster/map returns the
// current assignment as JSON.
func (c *Coordinator) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("GET /cluster/map", func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		json.NewEncoder(w).Encode(c.Map())
	})
	return mux
}

// FetchMap retrieves a coordinator's current map over HTTP — what a router
// process does at startup and on every poll tick.
func FetchMap(ctx context.Context, client *http.Client, mapURL string) (cluster.Map, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, mapURL, nil)
	if err != nil {
		return cluster.Map{}, err
	}
	if client == nil {
		client = http.DefaultClient
	}
	resp, err := client.Do(req)
	if err != nil {
		return cluster.Map{}, err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(io.LimitReader(resp.Body, 1<<20))
	if err != nil {
		return cluster.Map{}, err
	}
	if resp.StatusCode != http.StatusOK {
		return cluster.Map{}, fmt.Errorf("replica: %s returned %s", mapURL, resp.Status)
	}
	var m cluster.Map
	if err := json.Unmarshal(body, &m); err != nil {
		return cluster.Map{}, fmt.Errorf("replica: decoding map from %s: %w", mapURL, err)
	}
	if err := m.Validate(); err != nil {
		return cluster.Map{}, err
	}
	return m, nil
}

// Poller gossips the coordinator's map to one router by polling
// GET /cluster/map and applying any strictly newer epoch. Polling is the
// fallback propagation path — a control plane co-located with the router
// (the local harness, `emblookup serve -replicas`) applies maps directly
// and the poller's redundant apply of the same epoch is rejected as stale,
// which is the point: epochs make the two paths commute.
type Poller struct {
	stop     chan struct{}
	done     chan struct{}
	stopOnce sync.Once
}

// StartPoller begins polling mapURL every interval (≤0 = 1s), steering r.
func StartPoller(r *cluster.Router, mapURL string, interval time.Duration) *Poller {
	if interval <= 0 {
		interval = time.Second
	}
	p := &Poller{stop: make(chan struct{}), done: make(chan struct{})}
	go func() {
		defer close(p.done)
		t := time.NewTicker(interval)
		defer t.Stop()
		client := &http.Client{Timeout: 2 * interval}
		for {
			select {
			case <-p.stop:
				return
			case <-t.C:
				m, err := FetchMap(context.Background(), client, mapURL)
				if err != nil || m.Epoch <= r.Epoch() {
					continue
				}
				// A concurrent direct apply can win the race; "not newer"
				// (cluster.ErrStaleEpoch) is success by another path, not a
				// poller failure.
				r.ApplyMap(m)
			}
		}
	}()
	return p
}

// Close stops the poller and waits for its goroutine to exit.
func (p *Poller) Close() {
	p.stopOnce.Do(func() { close(p.stop) })
	<-p.done
}
