package cluster

import (
	"bytes"
	"context"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"emblookup/internal/artifact"
	"emblookup/internal/core"
	"emblookup/internal/index"
	"emblookup/internal/kg"
	"emblookup/internal/lookup"
	"emblookup/internal/obs"
	"emblookup/internal/server"
)

var (
	once   sync.Once
	tGr    *kg.Graph
	tModel *core.EmbLookup
	tErr   error
)

// testModel trains one small model for the whole package.
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

// testQueries mixes exact labels, aliases, and typos — the query shapes the
// paper cares about.
func testQueries(g *kg.Graph) []string {
	qs := []string{}
	for i := 0; i < 12; i++ {
		qs = append(qs, g.Entities[i].Label)
	}
	for i := range g.Entities {
		if len(g.Entities[i].Aliases) > 0 {
			qs = append(qs, g.Entities[i].Aliases[0])
			if len(qs) >= 18 {
				break
			}
		}
	}
	for i := 20; i < 26; i++ {
		l := g.Entities[i].Label
		qs = append(qs, strings.ToLower(l)+"x") // typo-ish
	}
	return qs
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

// fastRouterOptions keeps the request discipline snappy for tests.
func fastRouterOptions() RouterOptions {
	return RouterOptions{
		Timeout:       5 * time.Second,
		HedgeAfter:    -1, // deterministic: no duplicates unless a test wants them
		FailThreshold: 1,
		ProbeInterval: 10 * time.Millisecond,
	}
}

// TestClusterBitIdentical is the tentpole property: for P ∈ {1, 2, 3, 4} and
// varying k, a P-node cluster returns bit-identical candidates (IDs and
// scores) to the single-process model, over labels, aliases, and typos.
func TestClusterBitIdentical(t *testing.T) {
	g, m := testModel(t)
	queries := testQueries(g)
	for _, p := range []int{1, 2, 3, 4} {
		l, err := StartLocal(m, p, LocalOptions{Router: fastRouterOptions()})
		if err != nil {
			t.Fatal(err)
		}
		for _, k := range []int{1, 3, 10} {
			for _, q := range queries {
				want := m.Lookup(q, k)
				got := l.Router.Lookup(q, k)
				if got.Partial || len(got.Failed) != 0 {
					t.Fatalf("P=%d q=%q: unexpected degradation: %+v", p, q, got)
				}
				sameCandidates(t, fmt.Sprintf("P=%d k=%d q=%q", p, k, q), want, got.Candidates)
			}
		}
		l.Close()
	}
}

// TestClusterBulkBitIdentical checks the batched scatter path against the
// single-process bulk path.
func TestClusterBulkBitIdentical(t *testing.T) {
	g, m := testModel(t)
	queries := testQueries(g)
	l, err := StartLocal(m, 3, LocalOptions{Router: fastRouterOptions()})
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()

	const k = 5
	want := m.BulkLookup(queries, k, 0)
	got, err := l.Router.BulkLookupCtx(context.Background(), queries, k)
	if err != nil {
		t.Fatal(err)
	}
	if got.Partial {
		t.Fatalf("unexpected partial: %+v", got.Failed)
	}
	for i := range queries {
		sameCandidates(t, fmt.Sprintf("bulk q=%q", queries[i]), want[i], got.PerQuery[i])
	}
}

// TestClusterAliasRows exercises the 3k over-fetch + dedupe merge: with
// alias rows indexed, several rows collapse onto one entity, so the router's
// post-merge dedupe must replay the single-process pipeline exactly.
func TestClusterAliasRows(t *testing.T) {
	g, m := testModel(t)
	am, err := m.WithAliasRows()
	if err != nil {
		t.Fatal(err)
	}
	l, err := StartLocal(am, 4, LocalOptions{Router: fastRouterOptions()})
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	for _, q := range testQueries(g)[:10] {
		want := am.Lookup(q, 5)
		got := l.Router.Lookup(q, 5)
		sameCandidates(t, fmt.Sprintf("alias q=%q", q), want, got.Candidates)
	}
}

// TestClusterShardedSource checks that a model already wrapped in a sharded
// index partitions cleanly (the partitioner unwraps the shard view).
func TestClusterShardedSource(t *testing.T) {
	g, m := testModel(t)
	sm, err := m.WithShardedIndex(3, 0)
	if err != nil {
		t.Fatal(err)
	}
	l, err := StartLocal(sm, 2, LocalOptions{Router: fastRouterOptions()})
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	q := g.Entities[0].Label
	sameCandidates(t, "sharded source", m.Lookup(q, 5), l.Router.Lookup(q, 5).Candidates)
}

// expectedSurviving computes, without any HTTP in the way, what an exact
// merge over only the surviving partitions must return.
func expectedSurviving(t *testing.T, m *core.EmbLookup, p int, alive []bool, q string, k int) []lookup.Candidate {
	t.Helper()
	parts, man, err := BuildPartitions(m, p)
	if err != nil {
		t.Fatal(err)
	}
	fetch := k
	if m.Config().IndexAliases {
		fetch = k * 3
	}
	emb := m.Embed(q)
	var all []server.PartitionHit
	for i, pm := range parts {
		if !alive[i] {
			continue
		}
		rows := pm.IndexRows()
		lo := int32(man.Bounds[i])
		for _, h := range index.BatchSearch(pm.Index(), [][]float32{emb}, fetch, 0)[0] {
			all = append(all, server.PartitionHit{Row: lo + h.ID, Dist: h.Dist, Entity: int32(rows[h.ID])})
		}
	}
	return mergeHits(all, fetch, k)
}

// TestClusterNodeDownAndRecovery kills one node mid-stream (a middleware
// kill switch turns it into a 503 wall), asserts the router degrades to the
// surviving partitions' exact results flagged Partial, then flips the switch
// back and waits for the health probe to readmit the node — after which
// responses are full and bit-identical again. Run under -race this also
// exercises the health state machine concurrently with traffic.
func TestClusterNodeDownAndRecovery(t *testing.T) {
	g, m := testModel(t)
	const p = 3
	var killed [p]atomic.Bool
	l, err := StartLocal(m, p, LocalOptions{
		Router: fastRouterOptions(),
		Wrap: func(i int, h http.Handler) http.Handler {
			return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
				if killed[i].Load() {
					http.Error(w, "killed", http.StatusServiceUnavailable)
					return
				}
				h.ServeHTTP(w, r)
			})
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()

	q := g.Entities[0].Label
	const k = 5

	if res := l.Router.Lookup(q, k); res.Partial {
		t.Fatalf("healthy cluster answered partial: %+v", res.Failed)
	}

	// Kill node 1: the next scatter fails it (FailThreshold 1 → down), and
	// the response must be the surviving partitions' exact merge, flagged.
	killed[1].Store(true)
	res := l.Router.Lookup(q, k)
	if !res.Partial || len(res.Failed) != 1 || res.Failed[0] != 1 {
		t.Fatalf("expected partial with failed=[1], got partial=%v failed=%v", res.Partial, res.Failed)
	}
	want := expectedSurviving(t, m, p, []bool{true, false, true}, q, k)
	sameCandidates(t, "surviving merge", want, res.Candidates)

	// While down, the node is skipped outright — still partial, no traffic
	// risked on it.
	before := l.Router.Stats().Nodes[1].Requests
	if res := l.Router.Lookup(q, k); !res.Partial {
		t.Fatal("down node rejoined without a passing probe")
	}
	if after := l.Router.Stats().Nodes[1].Requests; after != before {
		t.Fatalf("scatter still sends to a down node (%d → %d requests)", before, after)
	}

	// Restart: probes heal it, responses go exact again.
	killed[1].Store(false)
	deadline := time.Now().Add(5 * time.Second)
	for l.Router.Stats().Healthy != p {
		if time.Now().After(deadline) {
			t.Fatal("node never recovered")
		}
		time.Sleep(5 * time.Millisecond)
	}
	res = l.Router.Lookup(q, k)
	if res.Partial {
		t.Fatalf("recovered cluster still partial: %+v", res.Failed)
	}
	sameCandidates(t, "post-recovery", m.Lookup(q, k), res.Candidates)
	if l.Router.Stats().PartialResponses == 0 {
		t.Fatal("partial responses not counted")
	}
}

// TestClusterSwappedMap points partition 0's leg at the node serving
// partition 1 and partition 1's at partition 0's. Every reply names the
// partition it answered for, so both legs fail instead of merging two
// misplaced halves into an answer that looks whole: the lookup returns
// partition 2's exact hits, flagged partial with partitions 0 and 1. The
// two moved URLs get fresh clients, so each node's stats row names the
// partition the new map gives it, not the one it served at epoch 1.
func TestClusterSwappedMap(t *testing.T) {
	g, m := testModel(t)
	const p, k = 3, 5
	l, err := StartLocal(m, p, LocalOptions{Router: fastRouterOptions()})
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	swapped := Map{Epoch: 2, Replicas: [][]string{{l.URLs[1]}, {l.URLs[0]}, {l.URLs[2]}}}
	if err := l.Router.ApplyMap(swapped); err != nil {
		t.Fatal(err)
	}
	q := g.Entities[0].Label
	res := l.Router.Lookup(q, k)
	if !res.Partial || !slices.Equal(res.Failed, []int{0, 1}) {
		t.Fatalf("swapped map: partial %v, failed %v; want partial with [0 1]", res.Partial, res.Failed)
	}
	sameCandidates(t, "swapped map", expectedSurviving(t, m, p, []bool{false, false, true}, q, k), res.Candidates)
	for i, ns := range l.Router.Stats().Nodes {
		if ns.Partition != i {
			t.Errorf("Nodes[%d] (%s) reports partition %d, want %d", i, ns.URL, ns.Partition, i)
		}
	}
}

// TestSingleReplicaFailureAccounting pins the one attempt loop at R = 1:
// every failed attempt counts against the node's health, as it does at
// R ≥ 2, so one lookup spends the three-attempt budget on a node that
// answers 503 and leaves it marked down after three consecutive failures.
func TestSingleReplicaFailureAccounting(t *testing.T) {
	g, m := testModel(t)
	l, err := StartLocal(m, 2, LocalOptions{
		Router: RouterOptions{HedgeAfter: -1, Registry: obs.New()},
		Wrap: func(i int, h http.Handler) http.Handler {
			return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
				if i == 1 && r.URL.Path == "/partition/search" {
					http.Error(w, "unavailable", http.StatusServiceUnavailable)
					return
				}
				h.ServeHTTP(w, r)
			})
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	res := l.Router.Lookup(g.Entities[0].Label, 5)
	if !res.Partial || !slices.Equal(res.Failed, []int{1}) {
		t.Fatalf("partial %v, failed %v; want partial with [1]", res.Partial, res.Failed)
	}
	ns := l.Router.Stats().Nodes[1]
	if ns.Requests != 3 || ns.Failures != 3 || ns.Healthy {
		t.Fatalf("node 1: requests %d, failures %d, healthy %v; want 3, 3, false", ns.Requests, ns.Failures, ns.Healthy)
	}
}

// TestApplyMapDrains holds one routed lookup inside a node handler and
// checks that ApplyMap of the next epoch installs the new view at once but
// returns only after that lookup — the last user of the old view — is
// released, after which the old view can never be pinned again.
func TestApplyMapDrains(t *testing.T) {
	g, m := testModel(t)
	entered := make(chan struct{})
	release := make(chan struct{})
	var held atomic.Bool
	l, err := StartLocal(m, 1, LocalOptions{
		Router: RouterOptions{Timeout: 30 * time.Second, HedgeAfter: -1, Registry: obs.New()},
		Wrap: func(_ int, h http.Handler) http.Handler {
			return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
				if r.URL.Path == "/partition/search" && held.CompareAndSwap(false, true) {
					entered <- struct{}{}
					<-release
				}
				h.ServeHTTP(w, r)
			})
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()

	q := g.Entities[0].Label
	lookedUp := make(chan server.Answer, 1)
	go func() { lookedUp <- l.Router.Lookup(q, 5) }()
	<-entered
	old := l.Router.view.Load()

	var releasedAt atomic.Bool // set just before the handler is let go
	applied := make(chan bool, 1)
	go func() {
		err := l.Router.ApplyMap(Map{Epoch: 2, Replicas: [][]string{{l.URLs[0]}}})
		if err != nil {
			t.Error(err)
		}
		applied <- releasedAt.Load()
	}()
	for l.Router.view.Load() == old {
		runtime.Gosched()
	}
	if l.Router.Epoch() != 2 {
		t.Fatalf("epoch %d after the view moved, want 2", l.Router.Epoch())
	}
	select {
	case <-old.drained:
		t.Fatal("old view drained while a lookup still holds it")
	case <-applied:
		t.Fatal("ApplyMap returned while a lookup still holds the old view")
	default:
	}
	releasedAt.Store(true)
	close(release)
	if !<-applied {
		t.Fatal("ApplyMap returned before the held lookup was released")
	}
	if old.refs.Acquire() {
		t.Fatal("the drained view took a new reference")
	}
	res := <-lookedUp
	if res.Partial {
		t.Fatalf("drained lookup went partial: %v", res.Failed)
	}
	sameCandidates(t, "drained lookup", m.Lookup(q, 5), res.Candidates)
}

// TestClusterHedging makes one node's first answer a straggler and checks
// the hedged duplicate wins without costing correctness.
func TestClusterHedging(t *testing.T) {
	g, m := testModel(t)
	var firstSearch atomic.Int64
	opts := fastRouterOptions()
	opts.HedgeAfter = 10 * time.Millisecond
	l, err := StartLocal(m, 2, LocalOptions{
		Router: opts,
		Wrap: func(i int, h http.Handler) http.Handler {
			return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
				// Node 0's first search stalls well past the hedge delay;
				// its duplicate (and everything after) is fast.
				if i == 0 && r.URL.Path == "/partition/search" && firstSearch.Add(1) == 1 {
					time.Sleep(300 * time.Millisecond)
				}
				h.ServeHTTP(w, r)
			})
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()

	q := g.Entities[1].Label
	res := l.Router.Lookup(q, 5)
	if res.Partial {
		t.Fatalf("hedged lookup went partial: %+v", res.Failed)
	}
	sameCandidates(t, "hedged", m.Lookup(q, 5), res.Candidates)
	st := l.Router.Stats().Nodes[0]
	if st.Hedges == 0 || st.HedgeWins == 0 {
		t.Fatalf("straggler not hedged: %+v", st)
	}
}

// TestPartitionArtifactRoundTrip writes per-node artifacts + manifest to
// disk and loads each node back, checking the loaded slice searches exactly
// like the in-memory partition.
func TestPartitionArtifactRoundTrip(t *testing.T) {
	g, m := testModel(t)
	dir := t.TempDir()
	const p = 3
	man, err := SavePartitions(dir, m, p)
	if err != nil {
		t.Fatal(err)
	}
	man2, err := LoadManifest(dir)
	if err != nil {
		t.Fatal(err)
	}
	if man2.Partitions != man.Partitions || man2.TotalRows != man.TotalRows {
		t.Fatalf("manifest round trip: %+v vs %+v", man, man2)
	}
	parts, _, err := BuildPartitions(m, p)
	if err != nil {
		t.Fatal(err)
	}
	emb := m.Embed(g.Entities[3].Label)
	for i := 0; i < p; i++ {
		nm, nman, err := LoadNodeModel(dir, i, g)
		if err != nil {
			t.Fatal(err)
		}
		defer nm.Close()
		if nman.Bounds[i] != man.Bounds[i] {
			t.Fatalf("node %d manifest bounds diverge", i)
		}
		if nm.IndexProvenance().Source != "loaded" {
			t.Fatalf("node %d rebuilt its index instead of attaching the artifact", i)
		}
		want := index.BatchSearch(parts[i].Index(), [][]float32{emb}, 5, 0)[0]
		got := index.BatchSearch(nm.Index(), [][]float32{emb}, 5, 0)[0]
		if len(want) != len(got) {
			t.Fatalf("node %d: %d vs %d hits", i, len(want), len(got))
		}
		for j := range want {
			if want[j] != got[j] {
				t.Fatalf("node %d hit %d: %+v vs %+v", i, j, want[j], got[j])
			}
		}
	}
	if _, _, err := LoadNodeModel(dir, p, g); err == nil {
		t.Fatal("out-of-range partition load should fail")
	}
	// A node file that is not a v4 artifact is refused with the sentinel.
	// (Renamed into place: node 0's mapping of the old file stays valid.)
	bad := filepath.Join(dir, "bad")
	if err := os.WriteFile(bad, []byte{0x9c, 0x41, 0x07, 0xee, 0x5a, 0x13, 0xd2, 0x68}, 0o644); err != nil {
		t.Fatal(err)
	}
	if err := os.Rename(bad, filepath.Join(dir, nodeFileName(0))); err != nil {
		t.Fatal(err)
	}
	if nm, _, err := LoadNodeModel(dir, 0, g); !errors.Is(err, artifact.ErrNotV4) {
		t.Fatalf("LoadNodeModel of 8 random bytes = %v, %v; want artifact.ErrNotV4", nm, err)
	}
}

// TestPartitionEndpointValidation drives the node-side bounds in both
// codecs: non-positive or oversized k, an empty or oversized batch, and
// dimension mismatches are 400s, never silent clamps, with the same status
// and error code whether the request came as JSON or as a frame. Bodies
// that are not a request of their codec at all — bad JSON; a truncated
// header, a wrong magic or version, or a payload that is not nq·dim·4 bytes
// — are 400s too.
func TestPartitionEndpointValidation(t *testing.T) {
	_, m := testModel(t)
	l, err := StartLocal(m, 1, LocalOptions{Router: fastRouterOptions()})
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	url := l.URLs[0] + "/partition/search"
	post := func(contentType string, body []byte) (status int, code string) {
		resp, err := http.Post(url, contentType, bytes.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		var eb server.ErrorBody
		json.NewDecoder(resp.Body).Decode(&eb) // a 200 has no error to decode
		return resp.StatusCode, eb.Error.Code
	}

	dim := m.Index().Dim()
	queries := func(n, d int) [][]float32 {
		qs := make([][]float32, n)
		for i := range qs {
			qs[i] = make([]float32, d)
			for j := range qs[i] {
				qs[i][j] = 0.5
			}
		}
		return qs
	}
	cases := []struct {
		name    string
		k       int
		queries [][]float32
		status  int
		code    string
	}{
		{"k zero", 0, queries(1, dim), 400, "bad_request"},
		{"k huge", 30001, queries(1, dim), 400, "bad_request"},
		{"no queries", 5, nil, 400, "bad_request"},
		{"too many queries", 5, queries(server.DefaultLimits().MaxBulkQueries+1, 1), 400, "bad_request"},
		{"dim mismatch", 5, queries(1, 3), 400, "bad_request"},
		{"ok", 5, queries(2, dim), 200, ""},
	}
	for _, c := range cases {
		body, err := json.Marshal(server.PartitionSearchRequest{K: c.k, Queries: c.queries})
		if err != nil {
			t.Fatal(err)
		}
		js, jc := post("application/json", body)
		fs, fc := post(server.FrameContentType, server.AppendSearchFrame(nil, c.k, c.queries))
		if js != c.status || jc != c.code || fs != c.status || fc != c.code {
			t.Errorf("%s: JSON %d %q, frame %d %q; want %d %q", c.name, js, jc, fs, fc, c.status, c.code)
		}
	}

	good := server.AppendSearchFrame(nil, 5, queries(2, dim))
	header := func(k, nq, d uint32) []byte {
		h := append([]byte(nil), good[:4]...)
		for _, v := range []uint32{k, nq, d} {
			h = binary.LittleEndian.AppendUint32(h, v)
		}
		return h
	}
	malformed := []struct {
		name, contentType string
		body              []byte
	}{
		{"bad json", "application/json", []byte("{")},
		{"truncated header", server.FrameContentType, good[:10]},
		{"wrong magic", server.FrameContentType, append([]byte("XLQ\x01"), good[4:]...)},
		{"wrong version", server.FrameContentType, append([]byte("ELQ\x02"), good[4:]...)},
		{"payload short of nq·dim·4", server.FrameContentType, good[:len(good)-4]},
		{"payload past nq·dim·4", server.FrameContentType, append(slices.Clone(good), 0, 0, 0, 0)},
		{"2^31 queries claimed", server.FrameContentType, header(5, 1<<31, uint32(dim))},
		{"nq·dim wraps to 0 in 32 bits", server.FrameContentType, header(5, 1<<16, 1<<16)},
		{"dim mismatch at the right length", server.FrameContentType, append(header(5, 4, uint32(dim/2)), good[16:]...)},
	}
	for _, c := range malformed {
		if status, code := post(c.contentType, c.body); status != 400 || code != "bad_request" {
			t.Errorf("%s: %d %q, want 400 bad_request", c.name, status, code)
		}
	}
}

// TestWithPartitionBounds checks the core-level partitioner's error paths
// and storage sharing.
func TestWithPartitionBounds(t *testing.T) {
	_, m := testModel(t)
	n := m.Index().Len()
	for _, b := range [][2]int{{-1, 5}, {0, n + 1}, {5, 4}} {
		if _, err := m.WithPartition(b[0], b[1]); err == nil {
			t.Errorf("WithPartition(%d, %d) should fail", b[0], b[1])
		}
	}
	pm, err := m.WithPartition(2, 7)
	if err != nil {
		t.Fatal(err)
	}
	if pm.Index().Len() != 5 || len(pm.IndexRows()) != 5 {
		t.Fatalf("partition shape wrong: %d rows", pm.Index().Len())
	}
	if pm.IndexRows()[0] != m.IndexRows()[2] {
		t.Fatal("partition rows not offset by lo")
	}
}

func TestPartitionBoundsSplit(t *testing.T) {
	b := PartitionBounds(10, 4)
	if len(b) != 5 || b[0] != 0 || b[4] != 10 {
		t.Fatalf("bounds = %v", b)
	}
	for i := 0; i < len(b)-1; i++ {
		if b[i+1] <= b[i] {
			t.Fatalf("empty partition in %v", b)
		}
	}
	if _, _, err := BuildPartitions(tModel, 0); err == nil {
		t.Fatal("P=0 should fail")
	}
}

// BenchmarkClusterLookup measures one routed lookup over a 2-node
// in-process cluster — scatter, node-side ADC scan, gather, merge — the
// short pass `make verify` runs to keep the routed path honest.
func BenchmarkClusterLookup(b *testing.B) {
	g, m := testModel(b)
	l, err := StartLocal(m, 2, LocalOptions{Router: fastRouterOptions()})
	if err != nil {
		b.Fatal(err)
	}
	defer l.Close()
	q := g.Entities[0].Label
	l.Router.Lookup(q, 10) // warm connections
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		l.Router.Lookup(q, 10)
	}
}

// TestBackoff pins the retry delays: 10ms doubling per attempt, capped at
// 1s, and a shift past the int64 range capped rather than wrapped.
func TestBackoff(t *testing.T) {
	for _, c := range []struct {
		attempt int
		want    time.Duration
	}{
		{0, 10 * time.Millisecond},
		{1, 20 * time.Millisecond},
		{2, 40 * time.Millisecond},
		{6, 640 * time.Millisecond},
		{7, time.Second}, // 1.28s capped
		{40, time.Second},
		{56, time.Second}, // 10ms = 78125·2⁷ ns: the shift lands on the sign bit
		{57, time.Second}, // every set bit shifted out: 0
		{70, time.Second}, // a shift past 64 bits yields 0 as well
	} {
		if got := backoff(c.attempt); got != c.want {
			t.Errorf("backoff(%d) = %v, want %v", c.attempt, got, c.want)
		}
	}
}

// TestMergeHitsDedupe pins the merge pipeline order: truncate the union to
// fetch FIRST, then dedupe — a candidate past the global top-fetch must not
// surface even if dedupe frees a slot.
func TestMergeHitsDedupe(t *testing.T) {
	hits := []server.PartitionHit{
		{Row: 0, Dist: 1, Entity: 7},
		{Row: 9, Dist: 2, Entity: 7}, // alias row of the same entity
		{Row: 3, Dist: 3, Entity: 8},
		{Row: 5, Dist: 4, Entity: 9}, // outside fetch=3 → must not appear
	}
	got := mergeHits(hits, 3, 3)
	if len(got) != 2 {
		t.Fatalf("got %d candidates, want 2 (dedupe after truncation)", len(got))
	}
	if got[0].ID != 7 || got[1].ID != 8 {
		t.Fatalf("merge order wrong: %+v", got)
	}
	if got[0].Score != -1 || got[1].Score != -3 {
		t.Fatalf("scores wrong: %+v", got)
	}

	// Tie on distance breaks toward the smaller row, matching the
	// single-process scan order.
	tie := []server.PartitionHit{
		{Row: 4, Dist: 1, Entity: 2},
		{Row: 1, Dist: 1, Entity: 3},
	}
	got = mergeHits(tie, 2, 2)
	if got[0].ID != 3 || got[1].ID != 2 {
		t.Fatalf("tie-break wrong: %+v", got)
	}
}

// TestClusterFastScan runs the scatter-gather path over a fast-scan model:
// each partition re-interleaves its row slice, and the merged cluster answer
// must stay bit-identical to the single-process fast-scan lookup — also for
// a routed batch, which every node scans one query at a time over its bare
// partition.
func TestClusterFastScan(t *testing.T) {
	g, m := testModel(t)
	fs, err := m.WithIndex(index.Spec{Compress: true, FastScan: true, PQ: m.Config().PQ})
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := fs.Index().(*index.FastScan); !ok {
		t.Fatalf("index type %T, want *index.FastScan", fs.Index())
	}
	queries := testQueries(g)
	for _, p := range []int{1, 2, 3} {
		l, err := StartLocal(fs, p, LocalOptions{Router: fastRouterOptions()})
		if err != nil {
			t.Fatal(err)
		}
		for _, q := range queries {
			want := fs.Lookup(q, 10)
			got := l.Router.Lookup(q, 10)
			if got.Partial || len(got.Failed) != 0 {
				t.Fatalf("P=%d q=%q: unexpected degradation: %+v", p, q, got)
			}
			sameCandidates(t, fmt.Sprintf("fastscan P=%d q=%q", p, q), want, got.Candidates)
		}
		want := fs.BulkLookup(queries, 5, 0)
		bulk, err := l.Router.BulkLookupCtx(context.Background(), queries, 5)
		if err != nil {
			t.Fatal(err)
		}
		for i := range queries {
			sameCandidates(t, fmt.Sprintf("fastscan bulk q=%q", queries[i]), want[i], bulk.PerQuery[i])
		}
		l.Close()
	}
}
