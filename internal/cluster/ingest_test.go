package cluster

import (
	"context"
	"testing"

	"emblookup/internal/core"
)

// TestIngestOnReadOnlyClusterKeepsNodesHealthy: StartLocal's nodes mount no
// /ingest, so a routed ingest is rejected — and the 404 it gets is no node
// failure. After three rejected batches (the default failure threshold)
// every lookup still reaches both partitions and every node is healthy.
func TestIngestOnReadOnlyClusterKeepsNodesHealthy(t *testing.T) {
	g, m := testModel(t)
	l, err := StartLocal(m, 2, LocalOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	items := []core.IngestItem{{Mention: "a brand new alias", ID: g.Entities[0].ID}}
	for i := 0; i < 3; i++ {
		if err := l.Router.Ingest(context.Background(), items, false); err == nil {
			t.Fatalf("ingest %d on a read-only cluster accepted", i)
		}
	}
	for _, q := range testQueries(g) {
		if a := l.Router.Lookup(q, 5); a.Partial || len(a.Failed) > 0 {
			t.Fatalf("lookup %q after rejected ingests: partial=%v failed=%v", q, a.Partial, a.Failed)
		}
	}
	for _, n := range l.Router.Stats().Nodes {
		if !n.Healthy || n.Failures != 0 {
			t.Fatalf("node %d after rejected ingests: healthy=%v failures=%d", n.Partition, n.Healthy, n.Failures)
		}
	}
	if got := l.Router.IngestCount(); got != 0 {
		t.Fatalf("rejected batches counted as routed: %d", got)
	}
}
