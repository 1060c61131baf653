package server

import (
	"bytes"
	"encoding/json"
	"math"
	"net/http"
	"net/http/httptest"
	"strconv"
	"testing"

	"emblookup/internal/obs"
)

// searchPartition answers one POST /partition/search of body, sent as
// contentType and traced under traceID when that is set, through h.
func searchPartition(h http.Handler, body []byte, contentType, traceID string) *httptest.ResponseRecorder {
	req := httptest.NewRequest("POST", "/partition/search", bytes.NewReader(body))
	req.Header.Set("Content-Type", contentType)
	if traceID != "" {
		req.Header.Set(obs.TraceHeader, traceID)
	}
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, req)
	return rec
}

// TestPartitionCodecEquivalence posts the same embeddings to one node as
// JSON and as a frame: both replies carry the same hits, distances down to
// their bits, and a traced frame carries the node's spans.
func TestPartitionCodecEquivalence(t *testing.T) {
	g, m := testModel(t)
	n := m.Index().Len()
	const lo = 5
	pm, err := m.WithPartition(lo, n)
	if err != nil {
		t.Fatal(err)
	}
	info := PartitionInfo{ID: 1, Count: 2, RowLo: lo, RowHi: n}
	h := New(g, pm, WithPartition(info)).Handler()
	var embs [][]float32
	for i := 0; i < 6; i++ {
		embs = append(embs, m.Embed(g.Entities[7*i].Label))
	}
	const k = 10

	body, err := json.Marshal(PartitionSearchRequest{K: k, Queries: embs})
	if err != nil {
		t.Fatal(err)
	}
	rec := searchPartition(h, body, "application/json", "")
	var viaJSON PartitionSearchResponse
	if err := json.Unmarshal(rec.Body.Bytes(), &viaJSON); rec.Code != 200 || err != nil {
		t.Fatalf("JSON: status %d, %v", rec.Code, err)
	}
	if len(viaJSON.Results) != len(embs) || len(viaJSON.Results[0]) != k {
		t.Fatalf("JSON: %d result lists, want %d of %d hits", len(viaJSON.Results), len(embs), k)
	}

	frame := AppendSearchFrame(nil, k, embs)
	for _, traceID := range []string{"", "00000000000000ab"} {
		rec := searchPartition(h, frame, FrameContentType, traceID)
		if rec.Code != 200 || rec.Header().Get("Content-Type") != FrameContentType {
			t.Fatalf("frame: status %d, content type %q", rec.Code, rec.Header().Get("Content-Type"))
		}
		if cl := rec.Header().Get("Content-Length"); cl != strconv.Itoa(rec.Body.Len()) {
			t.Fatalf("frame: Content-Length %s for a %d-byte reply", cl, rec.Body.Len())
		}
		viaFrame, err := ReadHitsFrame(rec.Body)
		if err != nil {
			t.Fatal(err)
		}
		if viaFrame.Partition.ID != info.ID {
			t.Fatalf("frame: partition %d, want %d", viaFrame.Partition.ID, info.ID)
		}
		if len(viaFrame.Results) != len(viaJSON.Results) {
			t.Fatalf("frame: %d result lists, JSON %d", len(viaFrame.Results), len(viaJSON.Results))
		}
		for i, want := range viaJSON.Results {
			got := viaFrame.Results[i]
			if len(got) != len(want) {
				t.Fatalf("query %d: %d hits by frame, %d by JSON", i, len(got), len(want))
			}
			for j := range want {
				if got[j].Row != want[j].Row || got[j].Entity != want[j].Entity || math.Float32bits(got[j].Dist) != math.Float32bits(want[j].Dist) {
					t.Fatalf("query %d hit %d: %+v by frame, %+v by JSON", i, j, got[j], want[j])
				}
			}
		}
		names := map[string]bool{}
		for _, s := range viaFrame.Spans {
			names[s.Name] = true
		}
		if traced := traceID != ""; traced != (names["search"] && names["translate"]) || !traced && len(viaFrame.Spans) != 0 {
			t.Fatalf("trace %q: reply spans %+v", traceID, viaFrame.Spans)
		}
	}
}

// TestPartitionSearchAllocs pins the allocations of a node answering one
// 1-query search frame, request construction included. The same request as
// JSON cost 49 when JSON was the only codec; the frame measured 34, and the
// budget is that plus 2.
func TestPartitionSearchAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("under the race detector sync.Pool drops entries at random, and the count with them")
	}
	g, m := testModel(t)
	n := m.Index().Len()
	pm, err := m.WithPartition(0, n)
	if err != nil {
		t.Fatal(err)
	}
	h := New(g, pm, WithPartition(PartitionInfo{Count: 1, RowHi: n})).Handler()
	frame := AppendSearchFrame(nil, 10, [][]float32{m.Embed(g.Entities[0].Label)})
	if rec := searchPartition(h, frame, FrameContentType, ""); rec.Code != 200 {
		t.Fatalf("status %d: %s", rec.Code, rec.Body)
	}
	allocs := testing.AllocsPerRun(200, func() { searchPartition(h, frame, FrameContentType, "") })
	t.Logf("1-query frame /partition/search: %.0f allocs/op", allocs)
	const maxPartitionSearchAllocs = 36
	if allocs > maxPartitionSearchAllocs {
		t.Errorf("1-query frame /partition/search: %.0f allocs/op, budget %d", allocs, maxPartitionSearchAllocs)
	}
}
