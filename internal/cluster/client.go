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
// failThreshold consecutive requests (every attempt and hedged duplicate
// counts on its own) is marked unhealthy and skipped by the scatter
// (responses turn partial) until a /healthz probe succeeds, at which point
// it rejoins. Success on the request path also heals the node immediately —
// a probe is just the cheap way back when no traffic is being risked on it.
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

// leg is one scatter leg's request: the partition that must answer it and
// the frame every attempt, retry and hedge of the routed request sends,
// encoded once by BulkLookupCtx.
type leg struct {
	partition int
	frame     []byte
	nq        int
}

// post is one attempt against /partition/search: the leg's frame out, a
// reply frame back. A non-empty traceID is propagated in the
// X-Emblookup-Trace header; the node echoes its spans in the reply for the
// caller to graft. A reply from a node serving another partition than the
// leg's is a failure, as a dead node is: merging it would silently drop the
// leg's partition from the answer.
func (c *nodeClient) post(ctx context.Context, traceID string, lg leg, timeout time.Duration) ([][]server.PartitionHit, []obs.SpanRecord, error) {
	cctx, cancel := context.WithTimeout(ctx, timeout)
	defer cancel()
	c.requests.Add(1)
	c.reqTotal.Inc()
	t0 := time.Now()
	req, err := http.NewRequestWithContext(cctx, http.MethodPost, c.url+"/partition/search", bytes.NewReader(lg.frame))
	if err != nil {
		return nil, nil, err
	}
	req.Header.Set("Content-Type", server.FrameContentType)
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
	psr, err := server.ReadHitsFrame(resp.Body)
	if err != nil {
		return nil, nil, fmt.Errorf("cluster: node %s: decoding response: %w", c.url, err)
	}
	if psr.Partition.ID != lg.partition {
		return nil, nil, fmt.Errorf("cluster: node %s answered for partition %d, not %d", c.url, psr.Partition.ID, lg.partition)
	}
	if len(psr.Results) != lg.nq {
		return nil, nil, fmt.Errorf("cluster: node %s: %d result lists for %d queries", c.url, len(psr.Results), lg.nq)
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
	if resp.StatusCode == http.StatusNotFound {
		io.Copy(io.Discard, io.LimitReader(resp.Body, 512))
		return fmt.Errorf("cluster: node %s: %w", c.url, errReadOnly)
	}
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
