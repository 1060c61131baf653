package cluster

import (
	"fmt"
	"net"
	"net/http"

	"emblookup/internal/core"
	"emblookup/internal/server"
)

// LocalOptions configures an in-process cluster.
type LocalOptions struct {
	// Router tunes the coordinator.
	Router RouterOptions
	// Wrap, when set, wraps partition i's HTTP handler — the hook the
	// tests and benchmarks use to inject faults (errors, latency, kill
	// switches) between the router and a node.
	Wrap func(partition int, h http.Handler) http.Handler
}

// Local is an in-process cluster: P partition nodes listening on loopback
// plus a router over them — the `emblookup serve -cluster N` demo mode and
// the substrate the offline tests and benchmarks drive. The nodes speak
// real HTTP, so everything the router exercises (timeouts, retries,
// hedging, health probes) is the production code path.
type Local struct {
	Router *Router
	// URLs are the node base URLs in partition order.
	URLs     []string
	Manifest Manifest
	servers  []*http.Server
	parts    []*core.EmbLookup // the partition siblings of the model
}

// StartLocal partitions model P ways and serves every partition on its own
// loopback listener, returning the router wired over them.
func StartLocal(model *core.EmbLookup, p int, opts LocalOptions) (*Local, error) {
	parts, man, err := BuildPartitions(model, p)
	if err != nil {
		return nil, err
	}
	g := model.Graph()
	l := &Local{Manifest: man, parts: parts}
	for i, pm := range parts {
		info := server.PartitionInfo{
			ID:    i,
			Count: man.Partitions,
			RowLo: man.Bounds[i],
			RowHi: man.Bounds[i+1],
		}
		h := server.New(g, pm, server.WithPartition(info)).Handler()
		if opts.Wrap != nil {
			h = opts.Wrap(i, h)
		}
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			l.Close()
			return nil, fmt.Errorf("cluster: listening for partition %d: %w", i, err)
		}
		srv := server.NewHTTPServer("", h)
		go srv.Serve(ln)
		l.servers = append(l.servers, srv)
		l.URLs = append(l.URLs, "http://"+ln.Addr().String())
	}
	rt, err := NewRouter(model, l.URLs, opts.Router)
	if err != nil {
		l.Close()
		return nil, err
	}
	l.Router = rt
	return l, nil
}

// Close stops the router's prober and every node listener, and closes the
// partition siblings.
func (l *Local) Close() {
	if l.Router != nil {
		l.Router.Close()
	}
	for _, s := range l.servers {
		s.Close()
	}
	closeAll(l.parts)
}
