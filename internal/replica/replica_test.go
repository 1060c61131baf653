package replica

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"path/filepath"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"emblookup/internal/cluster"
	"emblookup/internal/core"
	"emblookup/internal/kg"
	"emblookup/internal/lookup"
	"emblookup/internal/procmaps"
	"emblookup/internal/server"
)

var (
	once   sync.Once
	tGr    *kg.Graph
	tModel *core.EmbLookup
	tErr   error
)

// testModel trains one small model for the whole package. Tests never
// mutate it or its graph — anything that ingests works on clones.
func testModel(t testing.TB) (*kg.Graph, *core.EmbLookup) {
	t.Helper()
	once.Do(func() {
		g, _ := kg.Generate(kg.DefaultGeneratorConfig(kg.WikidataProfile, 200))
		cfg := core.FastConfig()
		cfg.Epochs = 2
		cfg.TripletsPerEntity = 8
		m, err := core.Train(g, cfg)
		if err != nil {
			tErr = err
			return
		}
		tGr, tModel = g, m
	})
	if tErr != nil {
		t.Fatal(tErr)
	}
	return tGr, tModel
}

func fastOptions() Options {
	return Options{
		Router: cluster.RouterOptions{
			Timeout:       5 * time.Second,
			HedgeAfter:    -1,
			FailThreshold: 1,
			ProbeInterval: 10 * time.Millisecond,
		},
		PollInterval: 20 * time.Millisecond,
	}
}

func sameCandidates(t *testing.T, ctx string, want, got []lookup.Candidate) {
	t.Helper()
	if len(want) != len(got) {
		t.Fatalf("%s: %d vs %d candidates", ctx, len(want), len(got))
	}
	for i := range want {
		if want[i].ID != got[i].ID || want[i].Score != got[i].Score {
			t.Fatalf("%s: candidate %d diverges: %+v vs %+v", ctx, i, want[i], got[i])
		}
	}
}

func testQueries(g *kg.Graph, n int) []string {
	qs := []string{}
	for i := 0; i < n && i < len(g.Entities); i++ {
		qs = append(qs, g.Entities[i].Label)
	}
	return qs
}

// TestReplicatedBitIdentical is the tentpole property extended to replica
// sets: for P ∈ {1, 2, 4} × R ∈ {1, 2, 3}, a replicated cluster returns
// bit-identical candidates to the single-process model, query by query and
// as one routed batch — replication is invisible to results.
func TestReplicatedBitIdentical(t *testing.T) {
	g, m := testModel(t)
	queries := testQueries(g, 10)
	for _, p := range []int{1, 2, 4} {
		for _, r := range []int{1, 2, 3} {
			opts := fastOptions()
			opts.Replicas = r
			c, err := Start(m, p, opts)
			if err != nil {
				t.Fatalf("P=%d R=%d: %v", p, r, err)
			}
			for _, k := range []int{1, 10} {
				for _, q := range queries {
					want := m.Lookup(q, k)
					got := c.Router.Lookup(q, k)
					if got.Partial || len(got.Failed) != 0 {
						t.Fatalf("P=%d R=%d q=%q: unexpected degradation: %+v", p, r, q, got)
					}
					sameCandidates(t, fmt.Sprintf("P=%d R=%d k=%d q=%q", p, r, k, q), want, got.Candidates)
				}
				// The routed batch — one multi-query partition RPC per node —
				// against the single-process batch.
				want := m.BulkLookup(queries, k, 0)
				got, err := c.Router.BulkLookupCtx(context.Background(), queries, k)
				if err != nil {
					t.Fatal(err)
				}
				if got.Partial || len(got.Failed) != 0 {
					t.Fatalf("P=%d R=%d bulk: unexpected degradation: %+v", p, r, got.Failed)
				}
				for i, q := range queries {
					sameCandidates(t, fmt.Sprintf("P=%d R=%d k=%d bulk q=%q", p, r, k, q), want[i], got.PerQuery[i])
				}
			}
			c.Close()
		}
	}
}

// TestReplicaFailover kills one replica of every partition under concurrent
// traffic and requires zero degradation: every response stays full
// (partial: false) and bit-identical — surviving replicas absorb the loss
// invisibly. Run under -race this doubles as the health-machinery race test.
func TestReplicaFailover(t *testing.T) {
	g, m := testModel(t)
	const p, r = 2, 2
	opts := fastOptions()
	opts.Replicas = r
	c, err := Start(m, p, opts)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	queries := testQueries(g, 8)
	const k = 5
	wants := make([][]lookup.Candidate, len(queries))
	for i, q := range queries {
		wants[i] = m.Lookup(q, k)
	}

	for pi := 0; pi < p; pi++ {
		c.KillReplica(pi, 0)
	}

	var wg sync.WaitGroup
	var failures atomic.Int64
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for round := 0; round < 10; round++ {
				for i, q := range queries {
					res := c.Router.Lookup(q, k)
					if res.Partial || len(res.Failed) != 0 {
						failures.Add(1)
						return
					}
					for j := range wants[i] {
						if res.Candidates[j].ID != wants[i][j].ID || res.Candidates[j].Score != wants[i][j].Score {
							failures.Add(1)
							return
						}
					}
				}
			}
		}()
	}
	wg.Wait()
	if failures.Load() != 0 {
		t.Fatalf("%d responses degraded or diverged with one replica down per partition", failures.Load())
	}
	st := c.Router.Stats()
	if st.HealthyPartitions != p {
		t.Fatalf("HealthyPartitions = %d, want %d", st.HealthyPartitions, p)
	}
	if st.Healthy != p*(r-1) {
		t.Fatalf("Healthy = %d, want %d (one dead replica per partition)", st.Healthy, p*(r-1))
	}
}

// TestReplicaDistinctHedge pins the tail-latency win replication buys: when
// a replica straggles, the hedged duplicate goes to a *different* replica
// and wins — the straggler is not its own insurance.
func TestReplicaDistinctHedge(t *testing.T) {
	g, m := testModel(t)
	var firstSearch atomic.Int64
	opts := fastOptions()
	opts.Replicas = 2
	opts.Router.HedgeAfter = 10 * time.Millisecond
	opts.Wrap = func(p, j int, h http.Handler) http.Handler {
		return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			// Replica 0's first search stalls well past the hedge delay.
			if j == 0 && r.URL.Path == "/partition/search" && firstSearch.Add(1) == 1 {
				time.Sleep(300 * time.Millisecond)
			}
			h.ServeHTTP(w, r)
		})
	}
	c, err := Start(m, 1, opts)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	q := g.Entities[1].Label
	res := c.Router.Lookup(q, 5)
	if res.Partial {
		t.Fatalf("hedged lookup went partial: %+v", res.Failed)
	}
	sameCandidates(t, "hedged", m.Lookup(q, 5), res.Candidates)
	st := c.Router.Stats()
	if st.Nodes[0].Hedges == 0 {
		t.Fatalf("straggling primary not hedged: %+v", st.Nodes)
	}
	if st.Nodes[1].HedgeWins == 0 {
		t.Fatalf("hedge win not credited to the distinct replica: %+v", st.Nodes)
	}
}

func ingestItems() []core.IngestItem {
	return []core.IngestItem{
		{NewEntity: true, Label: "Zorblatt Industries", Aliases: []string{"Zorblatt"}},
		{NewEntity: true, Label: "Quuxium Refinery"},
		{NewEntity: true, Label: "Vexatron Dynamics", Aliases: []string{"Vexatron", "VXD"}},
	}
}

// comparator builds the single-process ground truth for routed ingest: the
// full model with its own graph copy and a dynamic delta index, with the
// same items applied in the same order. The test's cleanup closes the
// ingestor and both siblings.
func comparator(t *testing.T, m *core.EmbLookup, items []core.IngestItem) *core.EmbLookup {
	t.Helper()
	withGraph := m.WithGraph(m.Graph().Clone())
	t.Cleanup(func() { withGraph.Close() })
	cm := withGraph.WithDynamicIndex(4096)
	t.Cleanup(func() { cm.Close() })
	ing, err := cm.NewIngestor(64)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(ing.Close)
	for _, it := range items {
		if err := ing.Enqueue(it); err != nil {
			t.Fatal(err)
		}
	}
	ing.Flush()
	if st := ing.Stats(); st.Failed != 0 || st.Applied != int64(len(items)) {
		t.Fatalf("comparator ingest: %+v", st)
	}
	return cm
}

func getHealthz(t *testing.T, url string) server.HealthzResponse {
	t.Helper()
	resp, err := http.Get(url + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, _ := io.ReadAll(resp.Body)
	var hz server.HealthzResponse
	if err := json.Unmarshal(body, &hz); err != nil {
		t.Fatalf("healthz %s: %v (%q)", url, err, body)
	}
	return hz
}

// TestRoutedIngest routes deltas through the cluster front-end and checks
// the full read-your-writes story: the batch lands on the owning (last)
// partition's primary, fans to its replicas, and a lookup through the
// router returns the ingested entities bit-identically to the
// single-process dynamic model — global delta row ids and all.
func TestRoutedIngest(t *testing.T) {
	g, m := testModel(t)
	const p, r = 2, 2
	opts := fastOptions()
	opts.Replicas = r
	c, err := Start(m, p, opts)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	items := ingestItems()
	if err := c.Router.Ingest(t.Context(), items, true); err != nil {
		t.Fatal(err)
	}
	cm := comparator(t, m, items)

	// Every replica of the owning partition applied the batch.
	owner := p - 1
	for j := 0; j < r; j++ {
		hz := getHealthz(t, c.NodeURL(owner, j))
		if hz.IngestApplied != int64(len(items)) {
			t.Fatalf("owner replica %d applied %d items, want %d", j, hz.IngestApplied, len(items))
		}
	}
	// Non-owning partitions never see deltas.
	if hz := getHealthz(t, c.NodeURL(0, 0)); hz.IngestApplied != 0 {
		t.Fatalf("non-owner partition applied %d deltas", hz.IngestApplied)
	}

	for _, it := range items {
		want := cm.Lookup(it.Label, 3)
		got := c.Router.Lookup(it.Label, 3)
		if got.Partial {
			t.Fatalf("ingested lookup partial: %+v", got.Failed)
		}
		sameCandidates(t, fmt.Sprintf("ingested q=%q", it.Label), want, got.Candidates)
		if len(got.Candidates) == 0 {
			t.Fatalf("ingested entity %q not found", it.Label)
		}
		// The router resolves the ingested entity's label from its own
		// grown graph copy.
		id := got.Candidates[0].ID
		if lbl := cm.Graph().Label(id); lbl != it.Label {
			t.Fatalf("ingested candidate resolves to %q, want %q", lbl, it.Label)
		}
	}

	// Pre-existing entities still answer bit-identically post-ingest.
	for _, q := range testQueries(g, 6) {
		sameCandidates(t, fmt.Sprintf("post-ingest q=%q", q), cm.Lookup(q, 5), c.Router.Lookup(q, 5).Candidates)
	}
}

// TestRollingRestart is the acceptance gate: restart every node of a 2P×2R
// cluster under continuous traffic — zero dropped queries, zero partial
// responses, bit-identical results at every point — and ingested entities
// stay visible on every replica of the owning partition afterwards.
func TestRollingRestart(t *testing.T) {
	g, m := testModel(t)
	const p, r = 2, 2
	opts := fastOptions()
	opts.Replicas = r
	c, err := Start(m, p, opts)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	items := ingestItems()
	if err := c.Router.Ingest(t.Context(), items, true); err != nil {
		t.Fatal(err)
	}
	cm := comparator(t, m, items)

	queries := append(testQueries(g, 8), items[0].Label, items[2].Label)
	const k = 5
	wants := make([][]lookup.Candidate, len(queries))
	for i, q := range queries {
		wants[i] = cm.Lookup(q, k)
	}

	startEpoch := c.Router.Epoch()
	stop := make(chan struct{})
	var wg sync.WaitGroup
	var sent, bad atomic.Int64
	var firstErr atomic.Value
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; ; i = (i + 1) % len(queries) {
				select {
				case <-stop:
					return
				default:
				}
				res := c.Router.Lookup(queries[i], k)
				sent.Add(1)
				if res.Partial || len(res.Failed) != 0 {
					bad.Add(1)
					firstErr.CompareAndSwap(nil, fmt.Sprintf("q=%q partial=%v failed=%v", queries[i], res.Partial, res.Failed))
					return
				}
				if len(res.Candidates) != len(wants[i]) {
					bad.Add(1)
					firstErr.CompareAndSwap(nil, fmt.Sprintf("q=%q: %d vs %d candidates", queries[i], len(res.Candidates), len(wants[i])))
					return
				}
				for j := range wants[i] {
					if res.Candidates[j].ID != wants[i][j].ID || res.Candidates[j].Score != wants[i][j].Score {
						bad.Add(1)
						firstErr.CompareAndSwap(nil, fmt.Sprintf("q=%q candidate %d: %+v vs %+v", queries[i], j, res.Candidates[j], wants[i][j]))
						return
					}
				}
			}
		}()
	}

	if err := c.RollingRestart(); err != nil {
		close(stop)
		wg.Wait()
		t.Fatal(err)
	}
	close(stop)
	wg.Wait()

	if bad.Load() != 0 {
		t.Fatalf("%d of %d responses dropped, partial, or diverged during the rolling restart: %v",
			bad.Load(), sent.Load(), firstErr.Load())
	}
	if sent.Load() == 0 {
		t.Fatal("no traffic flowed during the restart")
	}
	// Every node rolled: 2 epochs per restart (drain-out + rejoin), P×R nodes.
	if got := c.Router.Epoch(); got < startEpoch+2*int64(p*r) {
		t.Fatalf("epoch advanced to %d, want ≥ %d", got, startEpoch+2*int64(p*r))
	}

	// The restarted owner replicas were replayed: deltas visible on each.
	owner := p - 1
	for j := 0; j < r; j++ {
		hz := getHealthz(t, c.NodeURL(owner, j))
		if hz.IngestApplied != int64(len(items)) {
			t.Fatalf("restarted owner replica %d applied %d items, want %d", j, hz.IngestApplied, len(items))
		}
		if hz.Partition == nil || hz.Partition.ID != owner {
			t.Fatalf("restarted owner replica %d reports partition %+v", j, hz.Partition)
		}
	}
	for i, q := range queries {
		sameCandidates(t, fmt.Sprintf("post-restart q=%q", q), wants[i], c.Router.Lookup(q, k).Candidates)
	}
}

// TestRebalanceUnderLoad moves a live cluster from 2 to 3 partitions under
// traffic: zero dropped, zero partial, bit-identical throughout — both
// splits cover the same rows, and routed deltas follow the owning partition
// across the move.
// TestStoppedNodeUnmapped checks that a node gives its artifact back when
// it stops: a restarted replica's old node and a rebalanced-away split
// leave no mapping behind, and Close leaves none at all. Each node holds
// two models over its artifact, the attached partition and its dynamic
// sibling, and must close both.
func TestStoppedNodeUnmapped(t *testing.T) {
	_, m := testModel(t)
	opts := fastOptions()
	opts.Replicas = 2
	c, err := Start(m, 2, opts)
	if err != nil {
		t.Fatal(err)
	}
	closed := false
	defer func() {
		if !closed {
			c.Close()
		}
	}()
	split0 := c.nodeDir
	node0 := filepath.Join(split0, "node-0.bin")
	if n := len(procmaps.Under(t, node0)); n != 2 {
		t.Fatalf("partition 0's two replicas map its artifact %d times, want 2", n)
	}
	if err := c.RestartReplica(0, 0); err != nil {
		t.Fatal(err)
	}
	if n := len(procmaps.Under(t, node0)); n != 2 {
		t.Fatalf("after a restart partition 0's artifact is mapped %d times, want 2", n)
	}
	if err := c.Rebalance(3); err != nil {
		t.Fatal(err)
	}
	if ms := procmaps.Under(t, split0); len(ms) != 0 {
		t.Fatalf("rebalanced-away split still mapped: %v", ms)
	}
	if n := len(procmaps.Under(t, c.nodeDir)); n != 6 {
		t.Fatalf("new split mapped %d times, want 3 partitions × 2 replicas", n)
	}
	dir, err := filepath.EvalSymlinks(c.dir)
	if err != nil {
		t.Fatal(err)
	}
	c.Close()
	closed = true
	if ms := procmaps.Under(t, dir); len(ms) != 0 {
		t.Fatalf("artifacts still mapped after Close: %v", ms)
	}
}

func TestRebalanceUnderLoad(t *testing.T) {
	g, m := testModel(t)
	opts := fastOptions()
	opts.Replicas = 2
	c, err := Start(m, 2, opts)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	items := ingestItems()
	if err := c.Router.Ingest(t.Context(), items, true); err != nil {
		t.Fatal(err)
	}
	cm := comparator(t, m, items)

	queries := append(testQueries(g, 8), items[1].Label)
	const k = 5
	wants := make([][]lookup.Candidate, len(queries))
	for i, q := range queries {
		wants[i] = cm.Lookup(q, k)
	}

	stop := make(chan struct{})
	var wg sync.WaitGroup
	var sent, bad atomic.Int64
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; ; i = (i + 1) % len(queries) {
				select {
				case <-stop:
					return
				default:
				}
				res := c.Router.Lookup(queries[i], k)
				sent.Add(1)
				if res.Partial || len(res.Candidates) != len(wants[i]) {
					bad.Add(1)
					return
				}
				for j := range wants[i] {
					if res.Candidates[j].ID != wants[i][j].ID || res.Candidates[j].Score != wants[i][j].Score {
						bad.Add(1)
						return
					}
				}
			}
		}()
	}

	rerr := c.Rebalance(3)
	close(stop)
	wg.Wait()
	if rerr != nil {
		t.Fatal(rerr)
	}
	if bad.Load() != 0 {
		t.Fatalf("%d of %d responses degraded during the rebalance", bad.Load(), sent.Load())
	}
	if c.Router.Partitions() != 3 {
		t.Fatalf("router serves %d partitions, want 3", c.Router.Partitions())
	}

	// Deltas moved with the owning partition: the new last partition's
	// replicas carry them, and results are still exact.
	for j := 0; j < 2; j++ {
		if hz := getHealthz(t, c.NodeURL(2, j)); hz.IngestApplied != int64(len(items)) {
			t.Fatalf("new owner replica %d applied %d items, want %d", j, hz.IngestApplied, len(items))
		}
	}
	for i, q := range queries {
		sameCandidates(t, fmt.Sprintf("post-rebalance q=%q", q), wants[i], c.Router.Lookup(q, k).Candidates)
	}
	// Ingest keeps flowing on the new layout.
	extra := core.IngestItem{NewEntity: true, Label: "Post-Rebalance Corp"}
	if err := c.Router.Ingest(t.Context(), []core.IngestItem{extra}, true); err != nil {
		t.Fatal(err)
	}
	if res := c.Router.Lookup(extra.Label, 1); res.Partial || len(res.Candidates) == 0 {
		t.Fatalf("post-rebalance ingest not visible: %+v", res)
	}
}

// TestPollerGossip installs a map only in the coordinator and waits for the
// router's poller to pick it up — the gossip propagation path.
func TestPollerGossip(t *testing.T) {
	_, m := testModel(t)
	opts := fastOptions()
	opts.Replicas = 2
	c, err := Start(m, 2, opts)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	before := c.Router.Epoch()
	pub := cluster.Map{
		Epoch:     before + 1,
		TotalRows: c.Manifest.TotalRows,
		Bounds:    c.Manifest.Bounds,
		Replicas: [][]string{
			{c.NodeURL(0, 0), c.NodeURL(0, 1)},
			{c.NodeURL(1, 0), c.NodeURL(1, 1)},
		},
	}
	if err := c.Coord.Install(pub); err != nil {
		t.Fatal(err)
	}
	if c.Coord.Epoch() != pub.Epoch {
		t.Fatalf("coordinator at epoch %d, want %d", c.Coord.Epoch(), pub.Epoch)
	}
	deadline := time.Now().Add(5 * time.Second)
	for c.Router.Epoch() != pub.Epoch {
		if time.Now().After(deadline) {
			t.Fatalf("poller never applied epoch %d (router at %d)", pub.Epoch, c.Router.Epoch())
		}
		time.Sleep(5 * time.Millisecond)
	}

	// Stale maps can never roll the router back.
	old := c.Router.Map()
	old.Epoch = before
	if err := c.Router.ApplyMap(old); !errors.Is(err, cluster.ErrStaleEpoch) {
		t.Fatalf("stale ApplyMap returned %v, want ErrStaleEpoch", err)
	}
}

// TestHealthzReportsAssignment pins the /healthz satellite: nodes report
// their partition assignment and the epoch they were started under, and the
// router front-end reports its serving epoch — what external probes use to
// detect stale assignments.
func TestHealthzReportsAssignment(t *testing.T) {
	_, m := testModel(t)
	opts := fastOptions()
	opts.Replicas = 2
	c, err := Start(m, 2, opts)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	for p := 0; p < 2; p++ {
		for j := 0; j < 2; j++ {
			hz := getHealthz(t, c.NodeURL(p, j))
			if hz.Status != "ok" {
				t.Fatalf("node %d/%d status %q", p, j, hz.Status)
			}
			if hz.Partition == nil || hz.Partition.ID != p || hz.Partition.Count != 2 {
				t.Fatalf("node %d/%d reports partition %+v", p, j, hz.Partition)
			}
			if hz.Epoch != c.Router.Epoch() {
				t.Fatalf("node %d/%d reports epoch %d, router serves %d", p, j, hz.Epoch, c.Router.Epoch())
			}
		}
	}
}

// TestCoordinatorValidation pins Install's gate: an invalid assignment (a
// URL serving two partitions) or a stale epoch never becomes an epoch.
func TestCoordinatorValidation(t *testing.T) {
	crd, err := NewCoordinator(cluster.SingleMap([]string{"http://a", "http://b"}))
	if err != nil {
		t.Fatal(err)
	}
	if err := crd.Install(cluster.Map{Epoch: 2, Replicas: [][]string{{"http://a"}, {"http://a"}}}); err == nil {
		t.Fatal("duplicate URL across partitions accepted")
	}
	if err := crd.Install(cluster.Map{Epoch: 1, Replicas: [][]string{{"http://a"}, {"http://c"}}}); err == nil {
		t.Fatal("map at the current epoch accepted")
	}
	if crd.Epoch() != 1 {
		t.Fatalf("failed installs moved the epoch to %d", crd.Epoch())
	}
	if err := crd.Install(cluster.Map{Epoch: 2, Replicas: [][]string{{"http://a"}, {"http://c"}}}); err != nil {
		t.Fatal(err)
	}
	if m := crd.Map(); m.Epoch != 2 || crd.Epoch() != 2 || m.Replicas[1][0] != "http://c" {
		t.Fatalf("installed map %+v, coordinator epoch %d", m, crd.Epoch())
	}
}
