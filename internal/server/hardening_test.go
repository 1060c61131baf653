package server

import (
	"encoding/json"
	"fmt"
	"net/http/httptest"
	"strings"
	"testing"
)

// TestBulkBodyLimit checks that /bulk rejects oversized bodies with 413
// instead of truncating them.
func TestBulkBodyLimit(t *testing.T) {
	g, m := testModel(t)
	s := New(g, m)
	s.MaxBulkBytes = 64
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	body := strings.Repeat("a", 65) + "\n"
	resp, err := ts.Client().Post(ts.URL+"/bulk", "text/plain", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != 413 {
		t.Fatalf("oversized bulk body: status %d, want 413", resp.StatusCode)
	}

	// A body under the limit still works.
	resp, err = ts.Client().Post(ts.URL+"/bulk?k=1", "text/plain", strings.NewReader(g.Entities[0].Label+"\n"))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != 200 {
		t.Fatalf("in-bounds bulk body: status %d", resp.StatusCode)
	}
}

// TestBulkQueryCountLimit checks that too many queries is a 400, never a
// silent truncation.
func TestBulkQueryCountLimit(t *testing.T) {
	g, m := testModel(t)
	s := New(g, m)
	s.MaxBulkQueries = 3
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	body := ""
	for i := 0; i < 4; i++ {
		body += g.Entities[i].Label + "\n"
	}
	resp, err := ts.Client().Post(ts.URL+"/bulk", "text/plain", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != 400 {
		t.Fatalf("over-count bulk: status %d, want 400", resp.StatusCode)
	}
}

func TestReadQueryLines(t *testing.T) {
	qs, err := ReadQueryLines(strings.NewReader("a\n\nb\nc\n"), 10, 1<<20)
	if err != nil || len(qs) != 3 {
		t.Fatalf("qs=%v err=%v", qs, err)
	}
	if _, err := ReadQueryLines(strings.NewReader("a\nb\nc\n"), 2, 1<<20); err == nil {
		t.Fatal("over-limit line count should fail")
	}
	// A line is bounded by the body alone, not by a scanner token cap.
	long := strings.Repeat("x", 100<<10)
	if qs, err := ReadQueryLines(strings.NewReader("a\n"+long), 10, int64(len(long))+2); err != nil || len(qs) != 2 || qs[1] != long {
		t.Fatalf("a %d-byte line: %d queries, err %v", len(long), len(qs), err)
	}
}

// TestPartitionEndpointGating checks that /partition/search exists only on
// servers built as cluster nodes, that hits come back in global row
// coordinates, and that /stats carries the partition metadata.
func TestPartitionEndpointGating(t *testing.T) {
	g, m := testModel(t)

	plain := httptest.NewServer(New(g, m).Handler())
	defer plain.Close()
	resp, err := plain.Client().Post(plain.URL+"/partition/search", "application/json", strings.NewReader(`{"k":1,"queries":[[0]]}`))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode == 200 {
		t.Fatal("partition endpoint exposed without WithPartition")
	}

	// A node serving rows [lo, hi) must report global row ids ≥ lo.
	const lo, hi = 5, 25
	pm, err := m.WithPartition(lo, hi)
	if err != nil {
		t.Fatal(err)
	}
	info := PartitionInfo{ID: 1, Count: 3, RowLo: lo, RowHi: hi}
	node := httptest.NewServer(New(g, pm, WithPartition(info)).Handler())
	defer node.Close()

	emb := m.Embed(g.Entities[0].Label)
	body, _ := json.Marshal(PartitionSearchRequest{K: 3, Queries: [][]float32{emb}})
	resp, err = node.Client().Post(node.URL+"/partition/search", "application/json", strings.NewReader(string(body)))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != 200 {
		t.Fatalf("partition search status %d", resp.StatusCode)
	}
	var psr PartitionSearchResponse
	if err := json.NewDecoder(resp.Body).Decode(&psr); err != nil {
		t.Fatal(err)
	}
	if psr.Partition != info {
		t.Fatalf("partition metadata = %+v", psr.Partition)
	}
	if len(psr.Results) != 1 || len(psr.Results[0]) == 0 {
		t.Fatalf("results = %+v", psr.Results)
	}
	for _, h := range psr.Results[0] {
		if h.Row < lo || h.Row >= hi {
			t.Fatalf("hit row %d outside global range [%d, %d)", h.Row, lo, hi)
		}
	}

	st, err := node.Client().Get(node.URL + "/stats")
	if err != nil {
		t.Fatal(err)
	}
	defer st.Body.Close()
	var sr StatsResponse
	if err := json.NewDecoder(st.Body).Decode(&sr); err != nil {
		t.Fatal(err)
	}
	if sr.Partition == nil || *sr.Partition != info {
		t.Fatalf("stats partition = %+v", sr.Partition)
	}
}

// TestPartitionBodyLimit checks the partition endpoint's own 413 bound, in
// both codecs.
func TestPartitionBodyLimit(t *testing.T) {
	g, m := testModel(t)
	pm, err := m.WithPartition(0, m.Index().Len())
	if err != nil {
		t.Fatal(err)
	}
	s := New(g, pm, WithPartition(PartitionInfo{Count: 1, RowHi: m.Index().Len()}))
	s.MaxPartitionBytes = 32
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	emb := make([]float32, 64)
	for contentType, body := range map[string]string{
		"application/json": fmt.Sprintf(`{"k":1,"queries":[[%s]]}`, strings.Repeat("0.123,", 63)+"0.123"),
		FrameContentType:   string(AppendSearchFrame(nil, 1, [][]float32{emb})),
	} {
		resp, err := ts.Client().Post(ts.URL+"/partition/search", contentType, strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		var eb ErrorBody
		json.NewDecoder(resp.Body).Decode(&eb)
		resp.Body.Close()
		if resp.StatusCode != 413 || eb.Error.Code != "body_too_large" {
			t.Fatalf("oversized %s partition body: status %d, code %q; want 413 body_too_large", contentType, resp.StatusCode, eb.Error.Code)
		}
	}
}
