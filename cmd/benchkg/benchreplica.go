package main

import (
	"fmt"
	"net/http"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"emblookup/internal/cluster"
	"emblookup/internal/core"
	"emblookup/internal/kg"
	"emblookup/internal/mathx"
	"emblookup/internal/obs"
	"emblookup/internal/replica"
)

// benchReplica measures the replicated control plane (internal/replica)
// through three scenarios:
//
//  1. A degraded replica — one replica of partition 0 stalls on every
//     search. With a replica pair the hedge escapes to the *other* replica
//     (and the EWMA score steers subsequent primaries away); with one
//     replica per partition the PR-4 duplicate-send lands on the same
//     stalled node and eats the stall every time. The summary's
//     replica_hedge_win is the p99 ratio of the two runs.
//  2. Failover — kill one replica of a pair mid-serve and measure the
//     latency the crash makes visible before the health machinery settles
//     on the survivor (plus the partial count, which must stay zero).
//  3. Rebalance under load — a live 2→3 partition re-split under
//     concurrent traffic, recording dropped/partial counts (expected
//     zero) and the wall-clock duration of the move.
func benchReplica(path string, entities int, seed uint64) error {
	gCfg := kg.DefaultGeneratorConfig(kg.WikidataProfile, entities)
	gCfg.Seed = seed
	g, _ := kg.Generate(gCfg)

	cfg := core.FastConfig()
	cfg.Epochs = 4
	m, err := core.Train(g, cfg)
	if err != nil {
		return fmt.Errorf("training: %w", err)
	}

	rng := mathx.NewRNG(seed + 1)
	mix := make([]string, 512)
	for i := range mix {
		mix[i] = g.Entities[rng.Zipf(len(g.Entities), zipfSkew)].Label
	}

	snap := benchSnapshot{Env: captureEnv(entities)}
	add := func(name string, metrics map[string]float64) {
		snap.Results = append(snap.Results, benchResult{Name: name, Metrics: metrics})
	}

	// routed runs ops sequential router lookups and reports ns/op, p50,
	// p99, max, and how many answers degraded to partial.
	routed := func(c *replica.Cluster, ops int) (nsPerOp, p50us, p99us, maxus, partials float64) {
		lats := make([]time.Duration, ops)
		start := time.Now()
		for i := 0; i < ops; i++ {
			t0 := time.Now()
			if r := c.Router.Lookup(mix[i%len(mix)], 10); r.Partial {
				partials++
			}
			lats[i] = time.Since(t0)
		}
		total := time.Since(start)
		sort.Slice(lats, func(a, b int) bool { return lats[a] < lats[b] })
		return float64(total.Nanoseconds()) / float64(ops),
			float64(percentile(lats, 0.50).Microseconds()),
			float64(percentile(lats, 0.99).Microseconds()),
			float64(lats[len(lats)-1].Microseconds()),
			partials
	}

	// Scenario 1: replica 0 of partition 0 stalls injectedDelay on every
	// search request — a node degraded by GC, load, or a bad disk, not a
	// dead one. Retrying or duplicating to the same node cannot help;
	// only a *distinct* replica can.
	const injectedDelay = 40 * time.Millisecond
	const ops = 64
	stallWrap := func(p, j int, h http.Handler) http.Handler {
		if p != 0 || j != 0 {
			return h
		}
		return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			if r.URL.Path == "/partition/search" {
				time.Sleep(injectedDelay)
			}
			h.ServeHTTP(w, r)
		})
	}
	degraded := func(replicas int) (float64, float64, float64, cluster.RouterStats, error) {
		c, err := replica.Start(m, 2, replica.Options{
			Replicas: replicas,
			Router:   cluster.RouterOptions{HedgeAfter: 5 * time.Millisecond, Registry: obs.New()},
			Wrap:     stallWrap,
		})
		if err != nil {
			return 0, 0, 0, cluster.RouterStats{}, err
		}
		defer c.Close()
		ns, p50, p99, _, _ := routed(c, ops)
		return ns, p50, p99, c.Router.Stats(), nil
	}

	ns, p50, p99Dup, _, err := degraded(1)
	if err != nil {
		return fmt.Errorf("degraded (duplicate-send): %w", err)
	}
	add("degraded_duplicate_send", map[string]float64{
		"ns_per_op": ns, "p50_us": p50, "p99_us": p99Dup,
	})

	ns, p50, p99Hedged, hst, err := degraded(2)
	if err != nil {
		return fmt.Errorf("degraded (replica hedge): %w", err)
	}
	add("degraded_replica_hedged", map[string]float64{
		"ns_per_op": ns, "p50_us": p50, "p99_us": p99Hedged,
		"hedges":     float64(hst.Totals.Hedges),
		"hedge_wins": float64(hst.Totals.HedgeWins),
	})

	// Scenario 2: a clean 2x2 cluster loses one replica mid-serve. The
	// first lookup that picks the dead node pays the failover (connection
	// refused + retry to the survivor); nothing may degrade to partial.
	fo, err := replica.Start(m, 2, replica.Options{
		Replicas: 2,
		Router: cluster.RouterOptions{
			HedgeAfter:    -1,
			FailThreshold: 1,
			ProbeInterval: 50 * time.Millisecond,
			Registry:      obs.New(),
		},
	})
	if err != nil {
		return fmt.Errorf("failover cluster: %w", err)
	}
	routed(fo, 16) // warm every replica's EWMA and connections
	// Kill the replica of partition 0 the router currently prefers (the
	// one the warmup requests settled on): killing the idle standby would
	// measure nothing, since traffic never touches it.
	victim := 0
	if st := fo.Router.Stats(); st.Nodes[1].Requests > st.Nodes[0].Requests {
		victim = 1
	}
	fo.KillReplica(0, victim)
	ns, p50, p99, maxUs, partials := routed(fo, ops)
	fst := fo.Router.Stats()
	fo.Close()
	add("failover", map[string]float64{
		"ns_per_op": ns, "p50_us": p50, "p99_us": p99, "max_us": maxUs,
		"partials":           partials,
		"healthy_after":      float64(fst.Healthy),
		"health_transitions": float64(fst.Totals.HealthTransitions),
	})

	// Scenario 3: a live 2→3 re-split under concurrent traffic. Queries
	// keep flowing while artifacts are re-cut, fresh nodes boot, and the
	// map flips; the drain protocol means zero dropped and zero partial.
	rb, err := replica.Start(m, 2, replica.Options{
		Replicas: 2,
		Router:   cluster.RouterOptions{HedgeAfter: -1, Registry: obs.New()},
	})
	if err != nil {
		return fmt.Errorf("rebalance cluster: %w", err)
	}
	var rbOps, rbPartials, rbDropped atomic.Int64
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				r := rb.Router.Lookup(mix[(w*131+i)%len(mix)], 10)
				rbOps.Add(1)
				if r.Partial {
					rbPartials.Add(1)
				}
				if len(r.Candidates) == 0 {
					rbDropped.Add(1)
				}
			}
		}(w)
	}
	rbStart := time.Now()
	rbErr := rb.Rebalance(3)
	rbMs := float64(time.Since(rbStart).Milliseconds())
	close(stop)
	wg.Wait()
	rb.Close()
	if rbErr != nil {
		return fmt.Errorf("rebalance under load: %w", rbErr)
	}
	add("rebalance_under_load", map[string]float64{
		"rebalance_ms": rbMs,
		"ops":          float64(rbOps.Load()),
		"partials":     float64(rbPartials.Load()),
		"dropped":      float64(rbDropped.Load()),
	})

	add("summary", map[string]float64{
		"replica_hedge_win": p99Dup / p99Hedged,
		"injected_delay_ms": float64(injectedDelay.Milliseconds()),
		"ops_per_scenario":  ops,
	})
	return writeSnapshot(path, snap)
}
