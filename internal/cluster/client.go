package cluster

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net/http"
	"strconv"
	"sync/atomic"
	"time"

	"emblookup/internal/obs"
	"emblookup/internal/server"
)

// nodeClient is the router's view of one partition node: the HTTP client,
// the per-node health state machine, and the hedging/retry counters.
//
// Health follows a simple degradation protocol: a node that fails
// failThreshold consecutive requests is marked unhealthy and skipped by the
// scatter (responses turn partial) until a /healthz probe succeeds, at
// which point it rejoins. Success on the request path also heals the node
// immediately — a probe is just the cheap way back when no traffic is being
// risked on it.
type nodeClient struct {
	partition int
	replica   int // index within the partition's replica set at creation
	url       string
	hc        *http.Client

	failThreshold int32
	consecFails   atomic.Int32
	down          atomic.Bool

	// ewma is the node's smoothed request latency in microseconds, stored
	// as float64 bits (0 = no data yet). The replica selector prefers the
	// lowest-scoring healthy replica, so a slow node organically sheds
	// traffic to its faster siblings without ever being marked down.
	ewma atomic.Uint64

	requests    atomic.Int64
	failures    atomic.Int64
	hedges      atomic.Int64
	hedgeWins   atomic.Int64
	retries     atomic.Int64
	transitions atomic.Int64 // healthy→unhealthy→healthy flips, both directions

	// Registry handles, set by observe before the router serves; nil
	// handles (tests constructing a bare client) record nothing.
	latSec        *obs.Histogram
	reqTotal      *obs.Counter
	failTotal     *obs.Counter
	retryTotal    *obs.Counter
	hedgeTotal    *obs.Counter
	hedgeWinTotal *obs.Counter
	transTotal    *obs.Counter
	// spanPrefix labels this node's trace spans and grafted remote spans
	// ("node3/"), precomputed so the request path never formats strings.
	spanPrefix string
	spanRPC    string
}

func newNodeClient(partition, replica int, url string, failThreshold int) *nodeClient {
	if failThreshold <= 0 {
		failThreshold = 3
	}
	c := &nodeClient{
		partition:     partition,
		replica:       replica,
		url:           url,
		hc:            &http.Client{},
		failThreshold: int32(failThreshold),
	}
	c.spanPrefix = "node" + strconv.Itoa(partition)
	if replica > 0 {
		c.spanPrefix += "r" + strconv.Itoa(replica)
	}
	c.spanPrefix += "/"
	c.spanRPC = c.spanPrefix + "rpc"
	return c
}

// observe resolves this node's per-partition registry handles (replica 0
// keeps the unlabeled-replica names, so an R=1 cluster exposes exactly the
// PR-4 metric set). Call before the router starts serving. A replacement
// client for the same (partition, replica) slot accumulates into the same
// counters; its health gauge swaps in (latest registration wins).
func (c *nodeClient) observe(reg *obs.Registry) {
	lbl := func(name string) string {
		p := strconv.Itoa(c.partition)
		if c.replica > 0 {
			return obs.Labels(name, "partition", p, "replica", strconv.Itoa(c.replica))
		}
		return obs.Labels(name, "partition", p)
	}
	c.latSec = reg.Histogram(lbl("emblookup_cluster_node_seconds"))
	c.reqTotal = reg.Counter(lbl("emblookup_cluster_node_requests_total"))
	c.failTotal = reg.Counter(lbl("emblookup_cluster_node_failures_total"))
	c.retryTotal = reg.Counter(lbl("emblookup_cluster_node_retries_total"))
	c.hedgeTotal = reg.Counter(lbl("emblookup_cluster_node_hedges_total"))
	c.hedgeWinTotal = reg.Counter(lbl("emblookup_cluster_node_hedge_wins_total"))
	c.transTotal = reg.Counter(lbl("emblookup_cluster_node_health_transitions_total"))
	reg.GaugeFunc(lbl("emblookup_cluster_node_healthy"), func() float64 {
		if c.healthy() {
			return 1
		}
		return 0
	})
}

// score returns the EWMA latency in microseconds (0 = no traffic yet, which
// sorts first — an untried replica is worth trying).
func (c *nodeClient) score() float64 {
	return math.Float64frombits(c.ewma.Load())
}

// recordLatency folds one successful request into the EWMA (α = 0.2). A
// lock-free read-modify-write race between concurrent requests loses one
// sample — fine for a load signal.
func (c *nodeClient) recordLatency(us float64) {
	old := math.Float64frombits(c.ewma.Load())
	if old == 0 {
		c.ewma.Store(math.Float64bits(us))
		return
	}
	c.ewma.Store(math.Float64bits(0.8*old + 0.2*us))
}

// healthy reports whether the scatter should include this node.
func (c *nodeClient) healthy() bool { return !c.down.Load() }

func (c *nodeClient) markSuccess() {
	c.consecFails.Store(0)
	if c.down.CompareAndSwap(true, false) {
		c.transitions.Add(1)
		c.transTotal.Inc()
	}
}

func (c *nodeClient) markFailure() {
	c.failures.Add(1)
	c.failTotal.Inc()
	if c.consecFails.Add(1) >= c.failThreshold {
		if c.down.CompareAndSwap(false, true) {
			c.transitions.Add(1)
			c.transTotal.Inc()
		}
	}
}

// search runs one scatter leg: POST the embedded query batch to the node's
// partition-scoped endpoint under the router's full request discipline —
// per-attempt timeout, bounded retries with real backoff, and a hedged
// duplicate raced against a straggling attempt. The request body is
// marshaled once and reused across attempts and hedges. With a trace
// riding in ctx, every attempt (retries and hedges included, losers too)
// becomes a span, and the winning attempt's node-side spans are grafted
// under it.
func (c *nodeClient) search(ctx context.Context, k int, embs [][]float32, timeout, hedgeAfter time.Duration, retry RetryPolicy) ([][]server.PartitionHit, error) {
	body, err := json.Marshal(server.PartitionSearchRequest{K: k, Queries: embs})
	if err != nil {
		return nil, err
	}
	attempts := retry.Attempts
	if attempts < 1 {
		attempts = 1
	}
	var out [][]server.PartitionHit
	err = retry.DoCtx(ctx, RealSleep, func(attempt int) error {
		if attempt > 0 {
			c.retries.Add(1)
			c.retryTotal.Inc()
		}
		// Carve this attempt's timeout from the remaining deadline so the
		// tries still in the budget all fit (see AttemptTimeout).
		tmo := AttemptTimeout(ctx, timeout, attempts-attempt)
		if tmo <= 0 {
			return context.DeadlineExceeded
		}
		self := func() *nodeClient { return c }
		res, _, err := hedgeRace(ctx, attempt, c, self, func(*nodeClient, error) {}, body, len(embs), tmo, hedgeAfter)
		if err != nil {
			return err
		}
		out = res
		return nil
	})
	if err != nil {
		// A caller-side abort (deadline spent, client gone) is not the
		// node's fault; only node-side failures feed the health machine.
		if ctx.Err() == nil {
			c.markFailure()
		}
		return nil, err
	}
	c.markSuccess()
	return out, nil
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

// hedgeRace is the one attempt discipline of a scatter leg: it issues the
// request against primary and, if no reply lands within hedgeAfter (≤ 0
// disables hedging), races a duplicate against the node alt names — the
// straggler itself for a lone node, a distinct replica where there is one.
// The first success wins and is returned with its node; the loser is
// cancelled by the shared context when the caller returns. failed hears of
// every contender that lost to an error. With a trace riding in ctx every
// contender, losers too, becomes a span — a traced hedge race shows both
// side by side — and the winner's node-side spans are grafted under it.
func hedgeRace(ctx context.Context, attempt int, primary *nodeClient, alt func() *nodeClient, failed func(*nodeClient, error), body []byte, nq int, timeout, hedgeAfter time.Duration) ([][]server.PartitionHit, *nodeClient, error) {
	tr := obs.FromContext(ctx)
	cctx, cancel := context.WithCancel(ctx)
	defer cancel() // aborts the losing contender as soon as a winner returns
	attemptOn := func(c *nodeClient, isHedge bool) searchReply {
		sp := tr.StartAttempt(c.spanRPC, isHedge, attempt)
		start := time.Now()
		hits, spans, err := c.post(cctx, tr.ID(), body, nq, timeout)
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
			failed(r.node, r.err)
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
			c := alt()
			go func() { ch <- attemptOn(c, true) }()
			inFlight++
		}
	}
}

// post is one attempt against /partition/search. A non-empty traceID is
// propagated in the X-Emblookup-Trace header; the node echoes its spans in
// the response for the caller to graft.
func (c *nodeClient) post(ctx context.Context, traceID string, body []byte, nq int, timeout time.Duration) ([][]server.PartitionHit, []obs.SpanRecord, error) {
	cctx, cancel := context.WithTimeout(ctx, timeout)
	defer cancel()
	c.requests.Add(1)
	c.reqTotal.Inc()
	t0 := time.Now()
	req, err := http.NewRequestWithContext(cctx, http.MethodPost, c.url+"/partition/search", bytes.NewReader(body))
	if err != nil {
		return nil, nil, err
	}
	req.Header.Set("Content-Type", "application/json")
	if traceID != "" {
		req.Header.Set(obs.TraceHeader, traceID)
	}
	resp, err := c.hc.Do(req)
	if err != nil {
		return nil, nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		io.Copy(io.Discard, io.LimitReader(resp.Body, 512))
		return nil, nil, fmt.Errorf("cluster: node %s: status %d", c.url, resp.StatusCode)
	}
	var psr server.PartitionSearchResponse
	if err := json.NewDecoder(resp.Body).Decode(&psr); err != nil {
		return nil, nil, fmt.Errorf("cluster: node %s: decoding response: %w", c.url, err)
	}
	if len(psr.Results) != nq {
		return nil, nil, fmt.Errorf("cluster: node %s: %d result lists for %d queries", c.url, len(psr.Results), nq)
	}
	took := time.Since(t0)
	c.latSec.Observe(took)
	c.recordLatency(float64(took.Microseconds()))
	return psr.Results, psr.Spans, nil
}

// probeExpect is what the router's view says this node should look like; a
// probe readmits a node only when the node's own /healthz report agrees.
type probeExpect struct {
	// partition is the partition the node must report serving (< 0 skips
	// the check — e.g. probing a bare handler in tests).
	partition int
	// minApplied is the ingest watermark the node must have applied before
	// it may rejoin — a replica restarted without replaying the routed
	// ingest log would otherwise serve stale (non-bit-identical) results.
	minApplied int64
}

// probe checks /healthz with a short timeout; a healthy *and current*
// report heals the node. A 200 from a process serving the wrong partition
// or missing ingest deltas is treated as a failed probe: liveness is not
// correctness. Plain non-JSON "ok" bodies (older nodes, plain handlers)
// still pass on status alone.
func (c *nodeClient) probe(ctx context.Context, timeout time.Duration, expect probeExpect) bool {
	cctx, cancel := context.WithTimeout(ctx, timeout)
	defer cancel()
	req, err := http.NewRequestWithContext(cctx, http.MethodGet, c.url+"/healthz", nil)
	if err != nil {
		return false
	}
	resp, err := c.hc.Do(req)
	if err != nil {
		return false
	}
	body, _ := io.ReadAll(io.LimitReader(resp.Body, 4096))
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return false
	}
	var hz server.HealthzResponse
	if json.Unmarshal(body, &hz) == nil && hz.Partition != nil {
		if expect.partition >= 0 && hz.Partition.ID != expect.partition {
			return false
		}
		if hz.IngestApplied < expect.minApplied {
			return false
		}
	}
	c.markSuccess()
	return true
}

// postIngest forwards an already-validated ingest batch to this node's
// /ingest endpoint. With flush the node applies the batch before replying
// (read-your-writes through the router); without it the node just enqueues.
func (c *nodeClient) postIngest(ctx context.Context, body []byte, flush bool, timeout time.Duration) error {
	cctx, cancel := context.WithTimeout(ctx, timeout)
	defer cancel()
	url := c.url + "/ingest"
	if flush {
		url += "?flush=1"
	}
	req, err := http.NewRequestWithContext(cctx, http.MethodPost, url, bytes.NewReader(body))
	if err != nil {
		return err
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := c.hc.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK && resp.StatusCode != http.StatusAccepted {
		io.Copy(io.Discard, io.LimitReader(resp.Body, 512))
		return fmt.Errorf("cluster: node %s: ingest status %d", c.url, resp.StatusCode)
	}
	io.Copy(io.Discard, io.LimitReader(resp.Body, 4096))
	return nil
}

// NodeStats is one node's health and traffic snapshot in RouterStats.
type NodeStats struct {
	Partition           int     `json:"partition"`
	Replica             int     `json:"replica"`
	URL                 string  `json:"url"`
	Healthy             bool    `json:"healthy"`
	EwmaUs              float64 `json:"ewmaUs,omitempty"`
	Requests            int64   `json:"requests"`
	Failures            int64   `json:"failures"`
	Hedges              int64   `json:"hedges"`
	HedgeWins           int64   `json:"hedgeWins"`
	Retries             int64   `json:"retries"`
	HealthTransitions   int64   `json:"healthTransitions"`
	ConsecutiveFailures int32   `json:"consecutiveFailures"`
}

func (c *nodeClient) stats() NodeStats {
	return NodeStats{
		Partition:           c.partition,
		Replica:             c.replica,
		URL:                 c.url,
		Healthy:             c.healthy(),
		EwmaUs:              c.score(),
		Requests:            c.requests.Load(),
		Failures:            c.failures.Load(),
		Hedges:              c.hedges.Load(),
		HedgeWins:           c.hedgeWins.Load(),
		Retries:             c.retries.Load(),
		HealthTransitions:   c.transitions.Load(),
		ConsecutiveFailures: c.consecFails.Load(),
	}
}
