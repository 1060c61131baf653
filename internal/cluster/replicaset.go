package cluster

import (
	"context"
	"errors"
	"time"

	"emblookup/internal/obs"
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

// search runs one scatter leg against the replica set — the one attempt
// loop of every leg at any replica count. frame is the routed request's
// search frame for its nq queries. Each attempt is steered to a replica
// (pickFor: health first, then EWMA score), runs under a timeout carved
// from the caller's remaining deadline, and may race a hedged duplicate
// against a *distinct* replica (race) — the tail-latency win replication
// buys: a slow node cannot also be the insurance against itself. With one
// replica every attempt and duplicate goes to that node. Failed attempts
// feed the node's health one by one, whatever the replica count.
func (rs *replicaSet) search(ctx context.Context, frame []byte, nq int, opts RouterOptions) ([][]server.PartitionHit, error) {
	lg := leg{partition: rs.partition, frame: frame, nq: nq}
	tried := make(map[*nodeClient]bool, len(rs.replicas))
	var lastErr error
	for a := 0; a < attempts; a++ {
		if a > 0 {
			if err := sleepCtx(ctx, backoff(a-1)); err != nil {
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
		hits, winner, err := rs.race(ctx, a, c, tried, lg, tmo, opts.HedgeAfter)
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

// searchReply is what one contender of a hedge race reports back.
type searchReply struct {
	node   *nodeClient
	hits   [][]server.PartitionHit
	spans  []obs.SpanRecord // node-side spans echoed in the response
	start  time.Time        // when this attempt fired (graft base)
	err    error
	hedged bool // true when produced by the duplicate request
}

// race is one attempt of a scatter leg: it issues the request against
// primary and, if no reply lands within hedgeAfter (≤ 0 disables hedging),
// races a duplicate against the best other untried replica — the
// straggler itself when the set has none left. The first success wins and
// is returned with its node; the loser is cancelled by the shared context
// when race returns. A contender that loses to an error is marked failed,
// unless the error is the loser's cancellation or the caller's own abort
// (deadline spent, client gone), neither of which says anything about the
// node. With a trace riding in ctx every contender, losers too, becomes a
// span — a traced hedge race shows both side by side — and the winner's
// node-side spans are grafted under it.
func (rs *replicaSet) race(ctx context.Context, attempt int, primary *nodeClient, tried map[*nodeClient]bool, lg leg, timeout, hedgeAfter time.Duration) ([][]server.PartitionHit, *nodeClient, error) {
	tr := obs.FromContext(ctx)
	cctx, cancel := context.WithCancel(ctx)
	defer cancel() // aborts the losing contender as soon as a winner returns
	attemptOn := func(c *nodeClient, isHedge bool) searchReply {
		sp := tr.StartAttempt(c.spanRPC, isHedge, attempt)
		start := time.Now()
		hits, spans, err := c.post(cctx, tr.ID(), lg, timeout)
		sp.End()
		return searchReply{node: c, hits: hits, spans: spans, start: start, err: err, hedged: isHedge}
	}
	ch := make(chan searchReply, 2)
	inFlight := 1
	var timer <-chan time.Time
	if hedgeAfter <= 0 {
		ch <- attemptOn(primary, false)
	} else {
		go func() { ch <- attemptOn(primary, false) }()
		t := time.NewTimer(hedgeAfter)
		defer t.Stop()
		timer = t.C
	}
	var firstErr error
	for {
		select {
		case r := <-ch:
			if r.err == nil {
				if r.hedged {
					r.node.hedgeWins.Add(1)
					r.node.hedgeWinTotal.Inc()
				}
				tr.Graft(r.node.spanPrefix, tr.SinceUs(r.start), r.spans)
				return r.hits, r.node, nil
			}
			if !errors.Is(r.err, context.Canceled) && ctx.Err() == nil {
				r.node.markFailure()
			}
			if firstErr == nil {
				firstErr = r.err
			}
			if inFlight--; inFlight == 0 {
				return nil, nil, firstErr
			}
		case <-timer:
			// The hedge counter lands on the straggler — it is the node
			// whose tail the duplicate insures against.
			primary.hedges.Add(1)
			primary.hedgeTotal.Inc()
			c := rs.pick(tried, false)
			if c == nil {
				c = primary
			}
			tried[c] = true
			go func() { ch <- attemptOn(c, true) }()
			inFlight++
		}
	}
}
