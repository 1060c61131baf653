package cluster

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"

	"emblookup/internal/core"
	"emblookup/internal/server"
)

// Routed ingest: the cluster front-end accepts the same POST /ingest bodies
// as a single node and forwards them to the partition that owns appended
// rows — the LAST partition, whose RowHi is the global row count, so a
// delta row gets the same global id the single-process dynamic index would
// assign (bit-identity extends to ingested entities). The batch lands on
// the owning set's primary first (that write must succeed) and then fans to
// the remaining replicas best-effort; a replica that misses the fan-out is
// caught by the staleness-aware health probe and healed by control-plane
// replay from the router's ingest log.
//
// A node that mounts no /ingest (cluster-node and StartLocal build
// read-only nodes) answers 404. That rejects the batch and says nothing
// about the node's health: it serves lookups as well as ever.

// errReadOnly is a node's 404 on POST /ingest.
var errReadOnly = errors.New("partition is read-only (no /ingest)")

// Ingest routes one batch through the cluster. flush asks the owning nodes
// for read-your-writes (the batch is applied, not just enqueued, before the
// call returns). Batches are serialized by the router, so every replica
// applies deltas in the same order and assigns identical delta row ids.
func (r *Router) Ingest(ctx context.Context, items []core.IngestItem, flush bool) error {
	r.ingestMu.Lock()
	defer r.ingestMu.Unlock()
	return r.ingestLocked(ctx, items, flush)
}

func (r *Router) ingestLocked(ctx context.Context, items []core.IngestItem, flush bool) error {
	if len(items) == 0 {
		return nil
	}
	body, err := json.Marshal(items)
	if err != nil {
		return err
	}
	v := r.acquireView()
	defer v.release()
	rs := v.parts[len(v.parts)-1]

	// Primary write: the first replica (healthy ones first, set order within
	// each pass) that accepts the batch. If nobody does, the batch is
	// rejected whole — routed ingest never half-applies.
	var applied *nodeClient
	var lastErr error
	for pass := 0; pass < 2 && applied == nil; pass++ {
		for _, c := range rs.replicas {
			if (pass == 0) != c.healthy() {
				continue
			}
			if err := c.postIngest(ctx, body, flush, r.opts.Timeout); err != nil {
				if errors.Is(err, errReadOnly) {
					return err
				}
				lastErr = err
				c.markFailure()
				continue
			}
			c.markSuccess()
			applied = c
			break
		}
	}
	if applied == nil {
		return fmt.Errorf("cluster: ingest: no replica of partition %d accepted the batch: %w", rs.partition, lastErr)
	}
	for _, c := range rs.replicas {
		if c == applied {
			continue
		}
		if err := c.postIngest(ctx, body, flush, r.opts.Timeout); err != nil {
			if !errors.Is(err, errReadOnly) {
				c.markFailure()
			}
			r.ingestFanFail.Inc()
		}
	}

	// Record after the primary write: the log is the replay source for
	// restarted or rebalanced replicas, and the count is the staleness
	// watermark probes hold readmission to.
	r.ingestLog = append(r.ingestLog, items...)
	r.ingestCount.Add(int64(len(items)))
	r.ingestRouted.Add(int64(len(items)))

	// Grow the router's own graph copy for NewEntity items so /lookup can
	// resolve their labels. The router clones the nodes' id assignment:
	// both sides append to identical base graphs under the same serialized
	// order, so ids agree without a round-trip.
	r.graphMu.Lock()
	g := r.model.Graph()
	for _, it := range items {
		if it.NewEntity && it.Label != "" {
			g.AddEntity(it.Label, it.Aliases)
		}
	}
	r.graphMu.Unlock()
	return nil
}

// WithIngestLock runs fn with routed ingest excluded — the control plane's
// cutover primitive: while held, no batch can land between a log replay
// onto a fresh replica and the map publish that adds it, so the replica
// rejoins exactly caught-up. fn receives the ingest log snapshot (the
// replay source); it must not call back into Ingest, which would
// self-deadlock on the lock it already holds.
func (r *Router) WithIngestLock(fn func(log []core.IngestItem)) {
	r.ingestMu.Lock()
	defer r.ingestMu.Unlock()
	fn(append([]core.IngestItem(nil), r.ingestLog...))
}

// IngestCount returns how many items have been routed — the watermark a
// replica's /healthz report must reach before a probe readmits it.
func (r *Router) IngestCount() int64 { return r.ingestCount.Load() }

// handleIngest is the router's POST /ingest: same wire shapes and bounds as
// the single-node endpoint, routed to the owning partition's replica set.
func (r *Router) handleIngest(w http.ResponseWriter, req *http.Request) {
	items, e := server.ReadIngestBody(w, req, server.DefaultLimits())
	if e != nil {
		server.WriteError(w, req, e)
		return
	}
	flush := req.URL.Query().Get("flush") == "1"
	if err := r.Ingest(req.Context(), items, flush); err != nil {
		server.WriteError(w, req, server.NewError(http.StatusServiceUnavailable, "ingest_unavailable", err.Error()))
		return
	}
	w.Header().Set("Content-Type", "application/json")
	if !flush {
		w.WriteHeader(http.StatusAccepted)
	}
	json.NewEncoder(w).Encode(server.IngestResponse{Enqueued: len(items)})
}
