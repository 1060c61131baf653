package server

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"math"
	"net/http"
	"net/http/httptest"
	"net/url"
	"slices"
	"strconv"
	"strings"
	"testing"
	"time"
)

// FuzzReadBulkBody drives the /bulk request reading every front-end shares:
// ParseK on ?k=, and ReadBulkBody (http.MaxBytesReader over ReadQueryLines)
// under both of its bounds. A body within both bounds is read whole,
// whatever its line lengths, into exactly its non-blank lines; a body past
// either bound fails with that bound's status and code.
func FuzzReadBulkBody(f *testing.F) {
	f.Add([]byte("Germoney\nBramonia Ridge\n"), "10", uint32(64), uint8(4))
	f.Add([]byte("a\n\n\r\nb\r"), "3", uint32(8), uint8(2))
	f.Add([]byte(strings.Repeat("x", 300)), "10abc", uint32(300), uint8(1))
	f.Add([]byte(strings.Repeat("y", 300)+"\n"), "3.9", uint32(299), uint8(1))
	f.Add([]byte("a\n"+strings.Repeat("z", 70_000)+"\nb\n"), "1000", uint32(1<<20), uint8(3))
	f.Add([]byte("a\nb\nc\n"), "", uint32(100), uint8(2))
	f.Add([]byte{}, "-1", uint32(0), uint8(0))
	f.Fuzz(func(t *testing.T, body []byte, ks string, maxBytes uint32, maxQueries uint8) {
		lim := Limits{MaxK: 1000, MaxBulkQueries: int(maxQueries), MaxBulkBytes: int64(maxBytes)}

		k, err := ParseK(ks, lim.MaxK)
		switch n, aerr := strconv.Atoi(ks); {
		case ks == "":
			if k != 10 || err != nil {
				t.Fatalf("ParseK(%q) = %d, %v; want the default 10", ks, k, err)
			}
		case aerr == nil && n >= 1 && n <= lim.MaxK:
			if k != n || err != nil {
				t.Fatalf("ParseK(%q) = %d, %v", ks, k, err)
			}
		case err == nil:
			t.Fatalf("ParseK(%q) = %d, want an error", ks, k)
		}

		var lines []string
		for _, l := range strings.Split(string(body), "\n") {
			if l = strings.TrimSuffix(l, "\r"); l != "" {
				lines = append(lines, l)
			}
		}
		r := httptest.NewRequest("POST", "/bulk", bytes.NewReader(body))
		queries, e := ReadBulkBody(httptest.NewRecorder(), r, lim)
		switch {
		case int64(len(body)) > lim.MaxBulkBytes:
			if e == nil || (e.Code != "body_too_large" && e.Code != "batch_too_large") {
				t.Fatalf("%d-byte body past a %d-byte bound: %+v", len(body), maxBytes, e)
			}
		case len(lines) > lim.MaxBulkQueries:
			if e == nil || e.Status != http.StatusBadRequest || e.Code != "batch_too_large" || e.Limit != lim.MaxBulkQueries {
				t.Fatalf("%d lines past a %d-query bound: %+v", len(lines), lim.MaxBulkQueries, e)
			}
		case e != nil:
			t.Fatalf("%d-byte body of %d lines within its bounds: %+v", len(body), len(lines), e)
		case !slices.Equal(queries, lines):
			t.Fatalf("read %q, want %q", queries, lines)
		}
		if e != nil && e.Code == "body_too_large" && e.Status != http.StatusRequestEntityTooLarge {
			t.Fatalf("body_too_large answered %d", e.Status)
		}
	})
}

// FuzzDecodeIngestItems drives the /ingest body decoder the single-node
// server and the cluster router share: whatever it accepts is within the
// item bound and re-encodes to a body that decodes to the same items.
func FuzzDecodeIngestItems(f *testing.F) {
	f.Add([]byte(`{"newEntity":true,"label":"Zanzibar Quantum Relay","aliases":["ZQR"]}`), uint8(4))
	f.Add([]byte(`[{"mention":"relay alias one","id":3},{"mention":"relay alias two","id":3}]`), uint8(2))
	f.Add([]byte(" \n[ ]"), uint8(0))
	f.Add([]byte(`null`), uint8(1))
	f.Add([]byte(`[{"id":-1},{"aliases":[]},{"label":"\ud800"}]`), uint8(2))
	f.Add([]byte(`[1]`), uint8(1))
	f.Fuzz(func(t *testing.T, body []byte, maxItems uint8) {
		items, err := DecodeIngestItems(body, int(maxItems))
		if err != nil {
			return
		}
		if len(items) > int(maxItems) {
			t.Fatalf("%d items past a %d-item bound", len(items), maxItems)
		}
		enc, err := json.Marshal(items)
		if err != nil {
			t.Fatal(err)
		}
		again, err := DecodeIngestItems(enc, int(maxItems))
		if err != nil {
			t.Fatalf("re-decoding %s: %v", enc, err)
		}
		if enc2, _ := json.Marshal(again); !bytes.Equal(enc, enc2) {
			t.Fatalf("re-encoded items changed:\n%s\n%s", enc, enc2)
		}
	})
}

// frameHeader is magic followed by words, little-endian: a frame header
// claiming whatever the words say, with nothing behind it.
func frameHeader(magic [4]byte, words ...uint32) []byte {
	b := magic[:]
	for _, w := range words {
		b = binary.LittleEndian.AppendUint32(b, w)
	}
	return b
}

// rejectsWithoutAllocating fails t when decode allocates on its way to
// rejecting the input: a header claiming more than its frame carries must
// cost nothing.
func rejectsWithoutAllocating(t *testing.T, b []byte, decode func()) {
	t.Helper()
	if raceEnabled {
		return // the race runtime's own bookkeeping shows up in the count
	}
	if n := testing.AllocsPerRun(1, decode); n != 0 {
		t.Fatalf("rejecting %d bytes (%.40x…) allocated %.0f times", len(b), b, n)
	}
}

// FuzzDecodeSearchFrame drives the request-frame decoder every partition
// node runs on a routed search: it never panics, whatever it accepts
// re-encodes to the same bytes, and whatever it rejects, a header claiming
// 2^31 queries or an nq·dim past 32 bits among them, it rejects before
// allocating anything.
func FuzzDecodeSearchFrame(f *testing.F) {
	negZero := float32(math.Copysign(0, -1))
	nan := math.Float32frombits(0x7fc00001) // a NaN with a payload to keep
	f.Add(AppendSearchFrame(nil, 10, [][]float32{{0.5, -1, 3}}))
	f.Add(AppendSearchFrame(nil, 30, [][]float32{{nan, float32(math.Inf(-1))}, {negZero, math.SmallestNonzeroFloat32}}))
	f.Add(frameHeader(searchMagic, 10, 1<<31, 64))
	f.Add(frameHeader(searchMagic, 10, 1<<16, 1<<16))
	f.Add(frameHeader(searchMagic, 10, 2, 1<<31))
	f.Add(frameHeader(searchMagic, 10, math.MaxUint32, math.MaxUint32))
	f.Add(frameHeader(searchMagic, 5, 0, 0))
	f.Add(frameHeader(hitsMagic, 10, 1, 1))
	f.Add([]byte("ELQ"))
	f.Fuzz(func(t *testing.T, b []byte) {
		req, err := decodeSearchFrame(b)
		if err != nil {
			rejectsWithoutAllocating(t, b, func() { decodeSearchFrame(b) })
			return
		}
		if len(req.Queries) == 0 || slices.ContainsFunc(req.Queries, func(q []float32) bool { return len(q) != len(req.Queries[0]) || len(q) == 0 }) {
			t.Fatalf("accepted %d queries of uneven or zero dim", len(req.Queries))
		}
		if again := AppendSearchFrame(nil, req.K, req.Queries); !bytes.Equal(again, b) {
			t.Fatalf("re-encoded frame differs:\n%x\n%x", b, again)
		}
	})
}

// FuzzDecodeHitsFrame drives the reply-frame decoder the cluster router
// runs on every node reply: it never panics, whatever it accepts re-encodes
// to the same bytes, and whatever it rejects, a header claiming 2^31
// queries or a hit list longer than the frame among them, it rejects before
// allocating anything.
func FuzzDecodeHitsFrame(f *testing.F) {
	f.Add(appendHitsFrame(nil, 1, [][]PartitionHit{{{Row: 5, Dist: 0.25, Entity: 3}, {Row: 9, Dist: 0.5, Entity: 3}}, {}}, nil))
	f.Add(appendHitsFrame(nil, 7, [][]PartitionHit{{{Row: -1, Dist: math.Float32frombits(0x7fc00001), Entity: math.MaxInt32}}},
		[]byte(`[{"name":"search","startUs":1,"durUs":2}]`)))
	f.Add(appendHitsFrame(nil, 3, nil, nil))
	f.Add(frameHeader(hitsMagic, 0, 1<<31))
	f.Add(frameHeader(hitsMagic, 0, 1, math.MaxInt32, 0))
	f.Add(frameHeader(hitsMagic, 0, 1, 0, 1<<31))
	f.Add(frameHeader(searchMagic, 0, 0, 0))
	f.Fuzz(func(t *testing.T, b []byte) {
		part, results, spans, err := decodeHitsFrame(b)
		if err != nil {
			rejectsWithoutAllocating(t, b, func() { decodeHitsFrame(b) })
			return
		}
		if again := appendHitsFrame(nil, part, results, spans); !bytes.Equal(again, b) {
			t.Fatalf("re-encoded frame differs:\n%x\n%x", b, again)
		}
	})
}

// FuzzRequestContext drives the deadline budget every front-end parses,
// through ?deadline_ms= and through DeadlineHeader, under a 100 ms default
// and a 1 s cap. A budget that is not a positive integer is a 400; any
// other gets a deadline of min(budget, cap) from the call — never none, and
// never later than the cap, however large the budget.
func FuzzRequestContext(f *testing.F) {
	for _, s := range []string{"50", "1000", "9223372036854", "9223372036855",
		"9223372036854775807", "18446744073709551616", "0", "-5", "1e3", "10abc", ""} {
		f.Add(s, false)
		f.Add(s, true)
	}
	const defD, maxD = 100 * time.Millisecond, time.Second
	f.Fuzz(func(t *testing.T, budget string, viaHeader bool) {
		r := httptest.NewRequest(http.MethodGet, "/lookup", nil)
		q := url.Values{}
		if viaHeader {
			r.Header.Set(DeadlineHeader, budget)
		} else if budget != "" {
			q.Set("deadline_ms", budget)
		}
		start := time.Now()
		ctx, cancel, _, e := RequestContext(r, q, defD, maxD, nil)
		end := time.Now()
		want := defD
		if budget != "" {
			ms, err := strconv.ParseInt(budget, 10, 64)
			if err != nil || ms <= 0 {
				if e == nil {
					cancel()
					t.Fatalf("budget %q accepted, want a 400", budget)
				}
				if e.Status != http.StatusBadRequest {
					t.Fatalf("budget %q: status %d, want 400", budget, e.Status)
				}
				return
			}
			want = maxD
			if ms < maxD.Milliseconds() {
				want = time.Duration(ms) * time.Millisecond
			}
		}
		if e != nil {
			t.Fatalf("budget %q rejected: %v", budget, e)
		}
		defer cancel()
		dl, ok := ctx.Deadline()
		if !ok {
			t.Fatalf("budget %q: no deadline", budget)
		}
		if dl.Before(start.Add(want)) || dl.After(end.Add(want)) {
			t.Fatalf("budget %q: deadline %v after the call, want %v", budget, dl.Sub(start), want)
		}
	})
}

// FuzzPartitionSearchJSON drives the JSON branch of POST /partition/search
// on a small trained model, with a 16 KiB body bound: whatever the body, the
// answer is 200, 400 or 413 and nothing panics; a body past the bound is
// 413, wherever its padding sits; a 200 means the body was exactly one JSON
// value and carries one result list per query of at most k hits each; and
// the frame encoding of an accepted body, posted to a node without the
// small bound, answers the same hits, distances down to their bits.
func FuzzPartitionSearchJSON(f *testing.F) {
	g, m := testModel(f)
	n := m.Index().Len()
	pm, err := m.WithPartition(0, n)
	if err != nil {
		f.Fatal(err)
	}
	info := PartitionInfo{ID: 0, Count: 1, RowLo: 0, RowHi: n}
	small := New(g, pm, WithPartition(info))
	small.MaxPartitionBytes = 16 << 10
	viaJSON, viaFrame := small.Handler(), New(g, pm, WithPartition(info)).Handler()

	emb := m.Embed(g.Entities[3].Label)
	valid, _ := json.Marshal(PartitionSearchRequest{K: 5, Queries: [][]float32{emb, m.Embed(g.Entities[9].Label)}})
	f.Add(valid)
	f.Add(bytes.Replace(valid, []byte(`"k":5`), []byte(`"k":0`), 1))
	f.Add(bytes.Replace(valid, []byte(`"k":5`), []byte(`"k":99999999`), 1))
	f.Add([]byte(`{"k":3,"queries":[]}`))
	f.Add([]byte(`{"k":3,"queries":[[1,2,3]]}`))
	f.Add([]byte(`{"k":3,"queries":[[1e39]]}`))
	f.Add([]byte(`{"k":3,"queries":null} trailing`))
	f.Add(append(bytes.Repeat([]byte(" "), 17<<10), valid...))
	f.Add(append(valid[:len(valid):len(valid)], bytes.Repeat([]byte(" "), 17<<10)...))
	f.Add(append(valid[:len(valid):len(valid)], "{}"...))
	f.Add([]byte(`[`))
	f.Fuzz(func(t *testing.T, body []byte) {
		rec := searchPartition(viaJSON, body, "application/json", "")
		if int64(len(body)) > small.MaxPartitionBytes && rec.Code != http.StatusRequestEntityTooLarge {
			t.Fatalf("status %d for a %d-byte body past the %d-byte bound", rec.Code, len(body), small.MaxPartitionBytes)
		}
		switch rec.Code {
		case http.StatusOK:
		case http.StatusBadRequest, http.StatusRequestEntityTooLarge:
			return
		default:
			t.Fatalf("status %d for %q", rec.Code, body)
		}
		var req PartitionSearchRequest
		if err := json.Unmarshal(body, &req); err != nil {
			t.Fatalf("answered 200 to a body that is not one JSON value: %v", err)
		}
		var got PartitionSearchResponse
		if err := json.Unmarshal(rec.Body.Bytes(), &got); err != nil {
			t.Fatal(err)
		}
		if len(got.Results) != len(req.Queries) {
			t.Fatalf("%d result lists for %d queries", len(got.Results), len(req.Queries))
		}
		for i, hits := range got.Results {
			if len(hits) > req.K {
				t.Fatalf("query %d: %d hits past k = %d", i, len(hits), req.K)
			}
		}
		frec := searchPartition(viaFrame, AppendSearchFrame(nil, req.K, req.Queries), FrameContentType, "")
		if frec.Code != http.StatusOK {
			t.Fatalf("frame of an accepted body: status %d", frec.Code)
		}
		want, err := ReadHitsFrame(frec.Body)
		if err != nil {
			t.Fatal(err)
		}
		if len(want.Results) != len(got.Results) {
			t.Fatalf("%d result lists by JSON, %d by frame", len(got.Results), len(want.Results))
		}
		for i, w := range want.Results {
			g := got.Results[i]
			if len(g) != len(w) {
				t.Fatalf("query %d: %d hits by JSON, %d by frame", i, len(g), len(w))
			}
			for j := range w {
				if g[j].Row != w[j].Row || g[j].Entity != w[j].Entity || math.Float32bits(g[j].Dist) != math.Float32bits(w[j].Dist) {
					t.Fatalf("query %d hit %d: %+v by JSON, %+v by frame", i, j, g[j], w[j])
				}
			}
		}
	})
}

// FuzzAppendLookupResponse holds the reply encoder to encoding/json: for
// any query and labels (HTML-special, control and invalid UTF-8 bytes,
// U+2028/2029 among them), ids, scores (bit patterns, so 'e'-form
// exponents, negative zero, NaN and infinities come up), tookUs, partial
// flag and failed partitions, its bytes equal what
// json.NewEncoder(w).Encode writes for the same LookupResponse — nothing
// at all where Encode refuses.
func FuzzAppendLookupResponse(f *testing.F) {
	f.Add("Germoney", "Bramonia <Ridge> & \"co\"", int32(7), uint64(math.Float64bits(0.875)), int64(123), false, uint8(0), uint8(2))
	f.Add("a\x00b\x1f\b\f\n\r\t\\", "\xff\xfe  \x7f", int32(-1), uint64(math.Float64bits(1e-7)), int64(0), true, uint8(3), uint8(1))
	f.Add("é😀", "", int32(0), uint64(math.Float64bits(-2.5e21)), int64(-5), true, uint8(0), uint8(0))
	f.Add("x", "y", int32(1), uint64(math.Float64bits(math.NaN())), int64(1), false, uint8(1), uint8(3))
	f.Add("", "z", int32(2), uint64(math.Float64bits(math.Copysign(0, -1))), int64(9), false, uint8(7), uint8(4))
	f.Add("q", "l", int32(3), uint64(math.Float64bits(1e-300)), int64(2), false, uint8(0), uint8(5))
	f.Fuzz(func(t *testing.T, query, label string, id int32, scoreBits uint64, tookUs int64, partial bool, failed, nhits uint8) {
		resp := LookupResponse{Query: query, TookUs: tookUs, Partial: partial}
		if nhits%5 != 0 { // 0 mod 5: nil results
			resp.Results = []Hit{}
		}
		for i := range int(nhits % 5) {
			resp.Results = append(resp.Results, Hit{ID: id + int32(i), Label: label[:len(label)*i/4], Score: math.Float64frombits(scoreBits + uint64(i))})
		}
		for i := range int(failed % 4) {
			resp.Failed = append(resp.Failed, int(failed)*i-3)
		}
		var want bytes.Buffer
		json.NewEncoder(&want).Encode(resp)
		if got := appendLookupResponse(nil, &resp); !bytes.Equal(got, want.Bytes()) {
			t.Fatalf("appended %q\nencoding/json %q", got, want.Bytes())
		}
	})
}
