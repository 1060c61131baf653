package server

import (
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"time"

	"emblookup/internal/index"
	"emblookup/internal/obs"
)

// PartitionInfo describes the slice of a global entity index this node
// serves in a partitioned cluster: partition ID out of Count, covering
// global index rows [RowLo, RowHi). The router uses it (via /stats) to
// sanity-check that a node set covers the full index, and the node uses
// RowLo to report global row ids from its partition-scoped search.
type PartitionInfo struct {
	ID    int `json:"id"`
	Count int `json:"count"`
	RowLo int `json:"rowLo"`
	RowHi int `json:"rowHi"`
}

// WithPartition marks the server as one node of a partitioned cluster:
// /stats reports the partition metadata and POST /partition/search is
// mounted — the partition-scoped bulk endpoint the scatter-gather router
// fans out to (already-embedded queries in, raw per-partition top-k out).
func WithPartition(info PartitionInfo) Option {
	return func(s *Server) { s.partition = &info }
}

// PartitionSearchRequest is the body of POST /partition/search: queries
// already embedded by the router (embedding happens once, at the router),
// and the per-query candidate budget k.
type PartitionSearchRequest struct {
	K       int         `json:"k"`
	Queries [][]float32 `json:"queries"`
}

// PartitionHit is one raw index hit of a partition-scoped search: the
// global row id (node-local id plus the partition's RowLo offset), the
// exact float32 distance, and the entity the row maps to. Hits are not
// deduplicated — the router merges all partitions under the canonical
// (Dist, Row) order first, then dedupes, which is what keeps a P-node
// cluster bit-identical to the single-process search (DESIGN.md §9).
type PartitionHit struct {
	Row    int32   `json:"row"`
	Dist   float32 `json:"dist"`
	Entity int32   `json:"entity"`
}

// PartitionSearchResponse is the /partition/search reply; Results aligns
// with the request's query order. When the router propagated a trace id
// (X-Emblookup-Trace), the node echoes it with its own spans, which the
// router grafts under this hop's leg — one timeline across the cluster.
type PartitionSearchResponse struct {
	Partition PartitionInfo    `json:"partition"`
	Results   [][]PartitionHit `json:"results"`
	TraceID   string           `json:"traceId,omitempty"`
	Spans     []obs.SpanRecord `json:"spans,omitempty"`
}

// handlePartitionSearch answers a router's scatter: validate strictly (400
// on any bound violation rather than silently clamping), run the batch over
// this node's index slice, and translate row ids into the global space.
func (s *Server) handlePartitionSearch(w http.ResponseWriter, r *http.Request) {
	r.Body = http.MaxBytesReader(w, r.Body, s.MaxPartitionBytes)
	var req PartitionSearchRequest
	if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
		var mbe *http.MaxBytesError
		if errors.As(err, &mbe) {
			http.Error(w, fmt.Sprintf("request body exceeds %d bytes", s.MaxPartitionBytes), http.StatusRequestEntityTooLarge)
			return
		}
		http.Error(w, "decoding request: "+err.Error(), http.StatusBadRequest)
		return
	}
	// The router over-fetches dedupe headroom (up to 3k when alias rows are
	// indexed), so the partition budget is bounded at 3×MaxK.
	if req.K <= 0 || req.K > 3*s.MaxK {
		http.Error(w, fmt.Sprintf("\"k\" must be in 1..%d", 3*s.MaxK), http.StatusBadRequest)
		return
	}
	if len(req.Queries) == 0 {
		http.Error(w, "no queries", http.StatusBadRequest)
		return
	}
	if len(req.Queries) > s.MaxBulkQueries {
		http.Error(w, fmt.Sprintf("query count %d exceeds limit %d", len(req.Queries), s.MaxBulkQueries), http.StatusBadRequest)
		return
	}
	dim := s.model.Index().Dim()
	for i, q := range req.Queries {
		if len(q) != dim {
			http.Error(w, fmt.Sprintf("query %d has dim %d, index dim is %d", i, len(q), dim), http.StatusBadRequest)
			return
		}
	}

	// Adopt the router's trace id so this node's spans join its timeline.
	var tr *obs.Trace
	if id := r.Header.Get(obs.TraceHeader); id != "" {
		tr = obs.NewTraceWith(id)
	}
	start := time.Now()
	sp := tr.Start("search")
	// Under the request's context: a router that hung up (deadline, a
	// hedge that lost) stops costing this node the rest of the batch scan.
	res, err := index.BatchSearchCtx(r.Context(), s.model.Index(), req.Queries, req.K, 0)
	sp.End()
	if err != nil {
		return // the caller is gone; nobody reads a reply
	}
	sp = tr.Start("translate")
	resp := PartitionSearchResponse{Partition: *s.partition}
	resp.Results = make([][]PartitionHit, len(res))
	lo := int32(s.partition.RowLo)
	for i, rs := range res {
		hits := make([]PartitionHit, len(rs))
		for j, h := range rs {
			// RowEntity (not the trained row table) so rows appended live
			// through routed ingest translate too.
			hits[j] = PartitionHit{Row: lo + h.ID, Dist: h.Dist, Entity: int32(s.model.RowEntity(h.ID))}
		}
		resp.Results[i] = hits
	}
	sp.End()
	took := time.Since(start)
	s.httpPartition.Observe(took)
	if s.slowLog.Slow(took) {
		s.slowLog.Record(obs.SlowEntry{
			Route: "/partition/search", Query: fmt.Sprintf("[%d queries]", len(req.Queries)),
			K: req.K, DurUs: took.Microseconds(), TraceID: tr.ID(), Spans: tr.Spans(),
		})
	}
	resp.TraceID = tr.ID()
	resp.Spans = tr.Spans()
	w.Header().Set("Content-Type", "application/json")
	json.NewEncoder(w).Encode(resp)
}
