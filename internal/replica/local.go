package replica

import (
	"context"
	"fmt"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"time"

	"emblookup/internal/cluster"
	"emblookup/internal/core"
	"emblookup/internal/kg"
	"emblookup/internal/server"
)

// Every node bounds its dynamic delta index at nodeMaxDelta rows and its
// ingest buffer at nodeQueue items. Partition artifacts go to a fresh temp
// directory, removed on Close.
const (
	nodeMaxDelta = 4096
	nodeQueue    = 256
)

// Options configures a replicated in-process cluster.
type Options struct {
	// Replicas is R, the replica count per partition (≤0 = 1).
	Replicas int
	// Router tunes the data plane.
	Router cluster.RouterOptions
	// PollInterval is the router's map-gossip poll period (≤0 = 250ms).
	// The harness also applies maps directly after publishing — the poller
	// is the convergence backstop and the proof the gossip path works.
	PollInterval time.Duration
	// Wrap, when set, wraps node (partition, replica)'s HTTP handler — the
	// fault-injection hook of the tests and benchmarks.
	Wrap func(partition, replica int, h http.Handler) http.Handler
}

func (o *Options) fill() {
	if o.Replicas <= 0 {
		o.Replicas = 1
	}
	if o.PollInterval <= 0 {
		o.PollInterval = 250 * time.Millisecond
	}
}

// Node is one running replica: partition p's artifact mmap-attached under a
// dynamic delta index, with its own graph copy and ingest worker, served
// over loopback HTTP. Replicas of one partition are fully independent
// processes-in-miniature — they share no state, only the artifact file.
type Node struct {
	Partition int
	Replica   int
	URL       string

	base   *core.EmbLookup // the model attached from the partition artifact
	model  *core.EmbLookup // base's dynamic sibling, which the node serves
	ingest *core.Ingestor
	srv    *server.Server
	hsrv   *http.Server
	killed bool
}

// Cluster is a replicated local cluster: P×R nodes, a coordinator serving
// the map, a poller gossiping it, and a router over it all. It is the
// substrate of the rolling-restart and rebalance tests and of
// `emblookup serve -cluster P -replicas R`.
type Cluster struct {
	Router   *cluster.Router
	Coord    *Coordinator
	Manifest cluster.Manifest
	// MapURL is the coordinator's gossip endpoint (GET returns the map).
	MapURL string

	opts    Options
	graph   *kg.Graph       // pristine base graph; every node clones it
	full    *core.EmbLookup // full model, kept for rebalance re-splits
	routed  *core.EmbLookup // the router's sibling of full; Close closes it
	dir     string          // temp directory of every split's artifacts
	nodeDir string          // directory of the artifacts current nodes loaded
	poller  *Poller
	coordLn net.Listener
	crdSrv  *http.Server
	nodes   [][]*Node // [partition][replica]
}

// Start saves model's P-way partition artifacts, boots R replicas per
// partition (each mmap-attaching its slice), publishes epoch 1, and wires a
// router over the set. The router gets its own graph copy, so routed
// ingest can grow it without racing the nodes' graphs.
func Start(model *core.EmbLookup, partitions int, opts Options) (*Cluster, error) {
	opts.fill()
	c := &Cluster{opts: opts, graph: model.Graph(), full: model}
	dir, err := os.MkdirTemp("", "emblookup-replica-")
	if err != nil {
		return nil, err
	}
	c.dir = dir
	c.nodeDir = filepath.Join(c.dir, "split-0")
	man, err := cluster.SavePartitions(c.nodeDir, model, partitions)
	if err != nil {
		c.cleanup()
		return nil, err
	}
	c.Manifest = man

	c.nodes = make([][]*Node, man.Partitions)
	for p := 0; p < man.Partitions; p++ {
		for j := 0; j < opts.Replicas; j++ {
			n, err := c.startNode(c.nodeDir, man, p, j, 1)
			if err != nil {
				c.cleanup()
				return nil, err
			}
			c.nodes[p] = append(c.nodes[p], n)
		}
	}

	m := cluster.Map{Epoch: 1, TotalRows: man.TotalRows, Bounds: man.Bounds, Replicas: c.urls()}
	c.Coord, err = NewCoordinator(m)
	if err != nil {
		c.cleanup()
		return nil, err
	}
	c.coordLn, err = net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		c.cleanup()
		return nil, err
	}
	c.crdSrv = server.NewHTTPServer("", c.Coord.Handler())
	go c.crdSrv.Serve(c.coordLn)
	c.MapURL = "http://" + c.coordLn.Addr().String() + "/cluster/map"

	c.routed = model.WithGraph(model.Graph().Clone())
	rt, err := cluster.NewRouterWithMap(c.routed, m, opts.Router)
	if err != nil {
		c.cleanup()
		return nil, err
	}
	c.Router = rt
	c.poller = StartPoller(rt, c.MapURL, opts.PollInterval)
	return c, nil
}

// startNode boots one replica of partition p from the artifacts in dir.
func (c *Cluster) startNode(dir string, man cluster.Manifest, p, j int, epoch int64) (*Node, error) {
	g := c.graph.Clone()
	m, _, err := cluster.LoadNodeModel(dir, p, g)
	if err != nil {
		return nil, err
	}
	dm := m.WithDynamicIndex(nodeMaxDelta)
	ing, err := dm.NewIngestor(nodeQueue)
	if err != nil {
		dm.Close()
		m.Close()
		return nil, err
	}
	info := server.PartitionInfo{ID: p, Count: man.Partitions, RowLo: man.Bounds[p], RowHi: man.Bounds[p+1]}
	s := server.New(g, dm, server.WithPartition(info), server.WithIngest(ing))
	s.SetEpoch(epoch)
	h := http.Handler(s.Handler())
	if c.opts.Wrap != nil {
		h = c.opts.Wrap(p, j, h)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		ing.Close()
		dm.Close()
		m.Close()
		return nil, fmt.Errorf("replica: listening for node %d/%d: %w", p, j, err)
	}
	hsrv := server.NewHTTPServer("", h)
	go hsrv.Serve(ln)
	return &Node{
		Partition: p, Replica: j,
		URL:  "http://" + ln.Addr().String(),
		base: m, model: dm, ingest: ing, srv: s, hsrv: hsrv,
	}, nil
}

// stop tears one replica down: listener, ingest worker, and the two models
// it holds; closing both unmaps the partition artifact. Callers
// must have drained router traffic off the node first (ApplyMap of a map
// without it); the graceful Shutdown then waits out handlers the drain
// cannot see — hedge losers and canceled attempts whose clients already
// gave up but whose goroutines are still mid-search — before the mmap
// goes away under them. A node already severed by KillReplica has no
// tracked connections left, so Shutdown returns immediately.
func (n *Node) stop() {
	if n.hsrv != nil {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		n.hsrv.Shutdown(ctx)
		cancel()
		n.hsrv.Close()
	}
	if n.ingest != nil {
		n.ingest.Close()
	}
	if n.model != nil {
		n.model.Close()
		n.base.Close()
	}
}

// urls snapshots the current assignment as Replicas-shaped URL lists.
func (c *Cluster) urls() [][]string {
	out := make([][]string, len(c.nodes))
	for p, reps := range c.nodes {
		for _, n := range reps {
			out[p] = append(out[p], n.URL)
		}
	}
	return out
}

// setEpochs pushes the published epoch into every live node's /healthz.
func (c *Cluster) setEpochs(e int64) {
	for _, reps := range c.nodes {
		for _, n := range reps {
			if !n.killed {
				n.srv.SetEpoch(e)
			}
		}
	}
}

// publish installs the current membership at the next epoch: directly into
// the router first — ApplyMap returns only after queries on the old
// assignment drained — then into the coordinator for gossip observers.
// Router-first closes the race with the harness's own poller: were the
// coordinator updated first, the poller could apply the epoch concurrently
// and this call could return before that apply's drain finished.
func (c *Cluster) publish() error {
	m := cluster.Map{
		Epoch:     c.Coord.Epoch() + 1,
		TotalRows: c.Manifest.TotalRows,
		Bounds:    c.Manifest.Bounds,
		Replicas:  c.urls(),
	}
	if err := c.Router.ApplyMap(m); err != nil {
		return err
	}
	if err := c.Coord.Install(m); err != nil {
		return err
	}
	c.setEpochs(m.Epoch)
	return nil
}

// NodeURL returns replica j of partition p's base URL.
func (c *Cluster) NodeURL(p, j int) string { return c.nodes[p][j].URL }

// owner returns the partition routed ingest lands on — the last one, whose
// row range ends at TotalRows, so delta rows get the same global ids the
// single-process dynamic index assigns.
func (c *Cluster) owner() int { return len(c.nodes) - 1 }

// replay catches a fresh node up from the router's ingest log, in original
// order. Called under the router's ingest lock, so no batch can slip in
// between the replay and the map publish that readmits the node.
func (n *Node) replay(log []core.IngestItem) error {
	for _, it := range log {
		if err := n.ingest.Enqueue(it); err != nil {
			return err
		}
	}
	n.ingest.Flush()
	return nil
}

// KillReplica severs replica j of partition p — the listener dies
// mid-flight, exactly like a crashed process — without touching the map.
// The router's health machinery must absorb it: mark down, fail over to the
// surviving replicas, readmit nothing until a probe passes (it won't — the
// node is gone until RestartReplica).
func (c *Cluster) KillReplica(p, j int) {
	n := c.nodes[p][j]
	if !n.killed {
		n.hsrv.Close()
		n.killed = true
	}
}

// RestartReplica rolls one replica: drain it out of the map, stop it, boot
// a fresh node from the artifact, replay routed ingest onto it (owner
// partition only — other partitions never receive deltas), and publish it
// back in. Requires R ≥ 2 — with a lone replica the partition would have
// no coverage during the roll and queries would degrade to partial, which
// is exactly what the zero-dropped contract forbids.
func (c *Cluster) RestartReplica(p, j int) error {
	if len(c.nodes[p]) < 2 {
		return fmt.Errorf("replica: partition %d has %d replica(s); a zero-downtime roll needs at least 2", p, len(c.nodes[p]))
	}
	old := c.nodes[p][j]
	// 1. Publish the map without the node. ApplyMap returns after every
	// in-flight query on the old assignment finished, so nothing is dropped
	// when the node stops.
	c.nodes[p] = append(append([]*Node(nil), c.nodes[p][:j]...), c.nodes[p][j+1:]...)
	if err := c.publish(); err != nil {
		c.nodes[p] = insertNode(c.nodes[p], j, old)
		return err
	}
	// 2. Stop it — a real process exit: listener, worker, mmap all go.
	old.stop()
	// 3. Boot the replacement from the same artifact (fresh URL, fresh
	// delta index, fresh graph clone).
	fresh, err := c.startNode(c.nodeDir, c.Manifest, p, j, c.Coord.Epoch())
	if err != nil {
		return err
	}
	// 4. Catch up and rejoin atomically with respect to routed ingest: the
	// lock closes the window where a batch lands after the replay but
	// before the node is in the map (it would miss the fan-out).
	var perr error
	c.Router.WithIngestLock(func(log []core.IngestItem) {
		if p == c.owner() {
			if perr = fresh.replay(log); perr != nil {
				return
			}
		}
		c.nodes[p] = insertNode(c.nodes[p], j, fresh)
		perr = c.publish()
	})
	return perr
}

func insertNode(reps []*Node, j int, n *Node) []*Node {
	out := append([]*Node(nil), reps[:j]...)
	out = append(out, n)
	return append(out, reps[j:]...)
}

// RollingRestart restarts every node of the cluster in sequence — the
// zero-downtime deploy. Under concurrent traffic no query is dropped and
// none turns partial: each roll drains the node out of the assignment
// before stopping it, and readmits it only caught-up.
func (c *Cluster) RollingRestart() error {
	for p := range c.nodes {
		for j := range c.nodes[p] {
			if err := c.RestartReplica(p, j); err != nil {
				return fmt.Errorf("replica: rolling restart at node %d/%d: %w", p, j, err)
			}
		}
	}
	return nil
}

// Rebalance moves the cluster to a new partition count live: re-split the
// model's artifacts P'-ways, boot a full fresh node set over them, replay
// routed ingest onto the new owner set, publish the new assignment — new
// queries land on the new split immediately, in-flight queries drain on the
// old one — and only then stop the old nodes. Both splits cover the exact
// same rows, so results are bit-identical across the move.
func (c *Cluster) Rebalance(partitions int) error {
	dir := filepath.Join(c.dir, fmt.Sprintf("split-%d", c.Coord.Epoch()))
	man, err := cluster.SavePartitions(dir, c.full, partitions)
	if err != nil {
		return err
	}
	fresh := make([][]*Node, man.Partitions)
	for p := 0; p < man.Partitions; p++ {
		for j := 0; j < c.opts.Replicas; j++ {
			n, err := c.startNode(dir, man, p, j, c.Coord.Epoch())
			if err != nil {
				for _, reps := range fresh {
					for _, fn := range reps {
						fn.stop()
					}
				}
				return err
			}
			fresh[p] = append(fresh[p], n)
		}
	}
	oldNodes := c.nodes
	var perr error
	c.Router.WithIngestLock(func(log []core.IngestItem) {
		for _, n := range fresh[len(fresh)-1] {
			if perr = n.replay(log); perr != nil {
				return
			}
		}
		c.nodes = fresh
		c.nodeDir = dir
		c.Manifest = man
		perr = c.publish()
	})
	if perr != nil {
		for _, reps := range fresh {
			for _, n := range reps {
				n.stop()
			}
		}
		c.nodes = oldNodes
		return perr
	}
	for _, reps := range oldNodes {
		for _, n := range reps {
			n.stop()
		}
	}
	return nil
}

// Close stops the poller, router, coordinator, and every node; a temp
// artifact directory is removed.
func (c *Cluster) Close() {
	if c.poller != nil {
		c.poller.Close()
	}
	if c.Router != nil {
		c.Router.Close()
	}
	c.cleanup()
}

func (c *Cluster) cleanup() {
	if c.crdSrv != nil {
		c.crdSrv.Close()
	}
	for _, reps := range c.nodes {
		for _, n := range reps {
			n.stop()
		}
	}
	if c.routed != nil {
		c.routed.Close()
	}
	os.RemoveAll(c.dir)
}
