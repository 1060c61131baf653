// Package cluster turns the single-process lookup service into a
// partitioned multi-node deployment: a partitioner that splits the entity
// index into per-node slices (partition.go), a scatter-gather router that
// embeds queries once and merges per-partition top-k under the canonical
// (Dist, ID) order (router.go), and the request discipline a networked
// service needs — bounded retries with backoff, hedged requests against
// stragglers, and failure-aware degradation with health probes (this file,
// replicaset.go, client.go). See DESIGN.md §9.
package cluster

import (
	"context"
	"time"
)

// The retry discipline of every scatter leg: three tries, the first retry
// after 10ms, each later one after twice the last, never more than 1s.
const (
	attempts    = 3
	baseBackoff = 10 * time.Millisecond
	maxBackoff  = time.Second
)

// backoff returns the delay waited after failed attempt number `attempt`
// (0-based): baseBackoff << attempt, capped at maxBackoff.
func backoff(attempt int) time.Duration {
	d := baseBackoff << uint(attempt)
	if d > maxBackoff || d <= 0 { // overflow guard
		d = maxBackoff
	}
	return d
}

// AttemptTimeout derives one attempt's timeout from the caller's remaining
// deadline: the base per-attempt timeout, shrunk so the `attemptsLeft`
// remaining tries (this one included) can all fit in what is left of the
// deadline — a fixed 2s timeout must not eat a 100ms budget whole on
// attempt one. Without a deadline the base timeout stands. A non-positive
// return means the deadline is already spent.
func AttemptTimeout(ctx context.Context, base time.Duration, attemptsLeft int) time.Duration {
	if ctx.Err() != nil {
		return -1 // cancelled counts as spent even without a deadline
	}
	d, ok := ctx.Deadline()
	if !ok {
		return base
	}
	remaining := time.Until(d)
	if remaining <= 0 {
		return -1
	}
	if attemptsLeft < 1 {
		attemptsLeft = 1
	}
	per := remaining / time.Duration(attemptsLeft)
	if per < base {
		return per
	}
	return base
}

// sleepCtx waits d unless ctx is done first, in which case it returns
// ctx.Err() at once: a backoff the caller has abandoned is not waited out.
func sleepCtx(ctx context.Context, d time.Duration) error {
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-t.C:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}
