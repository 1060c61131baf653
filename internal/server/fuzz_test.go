package server

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"slices"
	"strconv"
	"strings"
	"testing"
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
