package cluster

import (
	"context"
	"encoding/json"
	"errors"

	"emblookup/internal/server"
)

// replicaSet is one partition's replica clients under a given cluster-map
// epoch. The set itself is immutable (a new map builds new sets over the
// persistent clients); all mutable state lives in the nodeClients, which
// survive epoch changes so health and latency history carry over.
type replicaSet struct {
	partition int
	replicas  []*nodeClient
}

// anyHealthy reports whether the scatter can cover this partition at all;
// when false the partition is skipped and the response turns partial.
func (rs *replicaSet) anyHealthy() bool {
	for _, c := range rs.replicas {
		if c.healthy() {
			return true
		}
	}
	return false
}

// pick selects the untried replica with the lowest EWMA latency score,
// preferring healthy ones (allowDown widens to unhealthy as a last resort).
// Score ties break toward the earlier replica — the primary — so an idle
// set routes deterministically.
func (rs *replicaSet) pick(tried map[*nodeClient]bool, allowDown bool) *nodeClient {
	var best *nodeClient
	var bestScore float64
	for _, c := range rs.replicas {
		if tried[c] || (!allowDown && !c.healthy()) {
			continue
		}
		if s := c.score(); best == nil || s < bestScore {
			best, bestScore = c, s
		}
	}
	return best
}

// pickFor is the per-attempt selection ladder: an untried healthy replica,
// then an untried unhealthy one, and — once every replica has been risked —
// the exclusion set resets so a retry budget larger than the set still
// spends every attempt.
func (rs *replicaSet) pickFor(tried map[*nodeClient]bool) *nodeClient {
	if c := rs.pick(tried, false); c != nil {
		return c
	}
	if c := rs.pick(tried, true); c != nil {
		return c
	}
	clear(tried)
	if c := rs.pick(tried, false); c != nil {
		return c
	}
	return rs.pick(tried, true)
}

// search runs one scatter leg against the replica set. With one replica it
// is exactly the PR-4 single-node discipline (bounded retries against that
// node, hedged duplicate to the same node). With more, every retry attempt
// is steered to a different replica (health first, then EWMA score) and the
// hedged duplicate races a *distinct* replica against the straggler — the
// tail-latency win replication buys: a slow node cannot also be the
// insurance against itself.
func (rs *replicaSet) search(ctx context.Context, k int, embs [][]float32, opts RouterOptions) ([][]server.PartitionHit, error) {
	if len(rs.replicas) == 1 {
		return rs.replicas[0].search(ctx, k, embs, opts.Timeout, opts.HedgeAfter, opts.Retry)
	}
	body, err := json.Marshal(server.PartitionSearchRequest{K: k, Queries: embs})
	if err != nil {
		return nil, err
	}
	attempts := opts.Retry.Attempts
	if attempts < 1 {
		attempts = 1
	}
	tried := make(map[*nodeClient]bool, len(rs.replicas))
	// Failed contenders are marked down-path immediately. The shared context
	// cancels the loser when a winner returns, and the caller's own abort
	// (deadline spent, client gone) says nothing about the node's health
	// either, so neither is a failure.
	markFail := func(c *nodeClient, err error) {
		if !errors.Is(err, context.Canceled) && ctx.Err() == nil {
			c.markFailure()
		}
	}
	var lastErr error
	for a := 0; a < attempts; a++ {
		if a > 0 {
			if err := sleepCtx(ctx, RealSleep, opts.Retry.Backoff(a-1)); err != nil {
				if lastErr == nil {
					lastErr = err
				}
				break
			}
		}
		// Each attempt's timeout is carved from the remaining deadline so
		// every try left in the budget still fits; a spent deadline stops
		// the loop instead of firing a doomed request.
		tmo := AttemptTimeout(ctx, opts.Timeout, attempts-a)
		if tmo <= 0 {
			if lastErr == nil {
				lastErr = context.DeadlineExceeded
			}
			break
		}
		c := rs.pickFor(tried)
		if c == nil {
			break // unreachable with a validated map; defensive
		}
		if a > 0 {
			c.retries.Add(1)
			c.retryTotal.Inc()
		}
		tried[c] = true
		// The duplicate goes to the best other untried replica, falling back
		// to the same node only when the set is exhausted.
		alt := func() *nodeClient {
			o := rs.pick(tried, false)
			if o == nil {
				return c
			}
			tried[o] = true
			return o
		}
		hits, winner, err := hedgeRace(ctx, a, c, alt, markFail, body, len(embs), tmo, opts.HedgeAfter)
		if err == nil {
			winner.markSuccess()
			return hits, nil
		}
		lastErr = err
		if ctx.Err() != nil {
			break // the caller gave up; retrying is work nobody reads
		}
	}
	return nil, lastErr
}
