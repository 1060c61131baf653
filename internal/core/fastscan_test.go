package core

import (
	"bytes"
	"encoding/gob"
	"testing"

	"emblookup/internal/index"
	"emblookup/internal/kg"
)

// fastScanSibling derives the fast-scan variant of the shared fixture.
func fastScanSibling(t *testing.T) (*kg.Graph, *EmbLookup, *EmbLookup) {
	t.Helper()
	g, e := fixture(t)
	fs, err := e.WithFastScan()
	if err != nil {
		t.Fatal(err)
	}
	return g, e, fs
}

// TestWithFastScan asserts the fast-scan sibling serves real lookups at the
// same storage cost (±block padding) and comparable recall to the 8-bit PQ
// variant, without touching the receiver.
func TestWithFastScan(t *testing.T) {
	g, e, fs := fastScanSibling(t)
	if _, ok := fs.Index().(*index.FastScan); !ok {
		t.Fatalf("index type %T, want *index.FastScan", fs.Index())
	}
	if e.Config().FastScan {
		t.Fatal("WithFastScan mutated the receiver")
	}
	// Same bytes per code: 2·M nibbles pack into M bytes; only the final
	// partial block adds padding.
	if pq, fsB := e.Index().SizeBytes(), fs.Index().SizeBytes(); fsB < pq || fsB > pq+32*e.Config().PQ.M {
		t.Fatalf("fast-scan payload %d B vs PQ %d B", fsB, pq)
	}
	var queries []string
	var truths []kg.EntityID
	for i := 0; i < 100; i++ {
		queries = append(queries, g.Entities[i].Label)
		truths = append(truths, g.Entities[i].ID)
	}
	rPQ := recallAt10(e, queries, truths)
	rFS := recallAt10(fs, queries, truths)
	if rFS < rPQ-0.05 {
		t.Fatalf("fast-scan recall@10 %.2f dropped more than 0.05 below PQ %.2f", rFS, rPQ)
	}
}

// TestFastScanShardedBitIdentical asserts the serve-stack wrapper (sharded
// scans) over a fast-scan index answers bit-identically to the unsharded
// sibling — the property the whole serve path inherits.
func TestFastScanShardedBitIdentical(t *testing.T) {
	g, _, fs := fastScanSibling(t)
	sh, err := fs.WithShardedIndex(4, 2)
	if err != nil {
		t.Fatal(err)
	}
	var queries []string
	for i := 0; i < 24; i++ {
		queries = append(queries, g.Entities[i].Label)
	}
	for _, q := range queries {
		want := fs.Lookup(q, 10)
		got := sh.Lookup(q, 10)
		if len(want) != len(got) {
			t.Fatalf("%q: %d vs %d candidates", q, len(want), len(got))
		}
		for i := range want {
			if want[i] != got[i] {
				t.Fatalf("%q: candidate %d diverges: %+v vs %+v", q, i, want[i], got[i])
			}
		}
	}
	// The batch path (query-major groups) must agree too — over the shards,
	// and over the bare index, which scans a batch as one range.
	for name, m := range map[string]*EmbLookup{"sharded": sh, "bare": fs} {
		bulk := m.BulkLookup(queries, 10, 4)
		for i, q := range queries {
			want := fs.Lookup(q, 10)
			if len(want) != len(bulk[i]) {
				t.Fatalf("%s bulk %q: %d vs %d candidates", name, q, len(want), len(bulk[i]))
			}
			for j := range want {
				if want[j] != bulk[i][j] {
					t.Fatalf("%s bulk %q: candidate %d diverges", name, q, j)
				}
			}
		}
	}
}

// TestFastScanPartition asserts WithPartition slices a fast-scan index: the
// partition searches its local rows and maps them to the same entities the
// full index would.
func TestFastScanPartition(t *testing.T) {
	g, _, fs := fastScanSibling(t)
	n := fs.Index().Len()
	mid := n / 2
	left, err := fs.WithPartition(0, mid)
	if err != nil {
		t.Fatal(err)
	}
	right, err := fs.WithPartition(mid, n)
	if err != nil {
		t.Fatal(err)
	}
	if left.Index().Len() != mid || right.Index().Len() != n-mid {
		t.Fatalf("partition sizes %d + %d, want %d + %d", left.Index().Len(), right.Index().Len(), mid, n-mid)
	}
	// A query's global top-1 must appear as the top-1 of the partition
	// holding its row (the scatter-gather merge in internal/cluster builds
	// on exactly this).
	for i := 0; i < 20; i++ {
		q := g.Entities[i].Label
		want := fs.Lookup(q, 1)
		lres, rres := left.Lookup(q, 1), right.Lookup(q, 1)
		if len(want) != 1 || len(lres) != 1 || len(rres) != 1 {
			t.Fatalf("%q: missing results", q)
		}
		best := lres[0]
		if rres[0].Score > best.Score {
			best = rres[0]
		}
		if best.ID != want[0].ID || best.Score != want[0].Score {
			t.Fatalf("%q: partition best %+v, full %+v", q, best, want[0])
		}
	}
}

// TestFastScanSaveLoadRoundTrip asserts the legacy gob version-3 artifact
// round-trips bit-identically, and that non-fast-scan models keep stamping
// version 2 (the current default format, v4, is covered in
// persist4_test.go).
func TestFastScanSaveLoadRoundTrip(t *testing.T) {
	g, e, fs := fastScanSibling(t)
	var buf bytes.Buffer
	if err := fs.WriteGob(&buf, true); err != nil {
		t.Fatal(err)
	}
	raw := buf.Bytes()
	var wire modelWire
	if err := gob.NewDecoder(bytes.NewReader(raw)).Decode(&wire); err != nil {
		t.Fatal(err)
	}
	if wire.Version != 3 {
		t.Fatalf("fast-scan artifact stamped version %d, want 3", wire.Version)
	}
	if wire.Index == nil || wire.Index.Kind != "fastscan" {
		t.Fatalf("artifact kind %+v, want fastscan", wire.Index)
	}
	re, err := Read(bytes.NewReader(raw), g)
	if err != nil {
		t.Fatal(err)
	}
	if re.IndexProvenance().Source != "loaded" {
		t.Fatalf("provenance %q, want loaded", re.IndexProvenance().Source)
	}
	for i := 0; i < 20; i++ {
		q := g.Entities[i].Label
		want, got := fs.Lookup(q, 10), re.Lookup(q, 10)
		if len(want) != len(got) {
			t.Fatalf("%q: %d vs %d candidates", q, len(want), len(got))
		}
		for j := range want {
			if want[j] != got[j] {
				t.Fatalf("%q: loaded index diverges at %d: %+v vs %+v", q, j, want[j], got[j])
			}
		}
	}

	// Back-compat: a model without fast-scan still writes version 2.
	buf.Reset()
	if err := e.WriteGob(&buf, true); err != nil {
		t.Fatal(err)
	}
	var wire2 modelWire
	if err := gob.NewDecoder(&buf).Decode(&wire2); err != nil {
		t.Fatal(err)
	}
	if wire2.Version != 2 {
		t.Fatalf("PQ artifact stamped version %d, want 2", wire2.Version)
	}
}

// TestValidateFastScan covers the fast-scan configuration rules.
func TestValidateFastScan(t *testing.T) {
	cfg := DefaultConfig()
	cfg.FastScan = true
	if err := cfg.Validate(); err != nil {
		t.Fatalf("default + FastScan invalid: %v", err)
	}
	cfg.Compress = false
	if err := cfg.Validate(); err == nil {
		t.Fatal("FastScan without Compress accepted")
	}
	cfg = DefaultConfig()
	cfg.FastScan = true
	cfg.IVF = true
	if err := cfg.Validate(); err == nil {
		t.Fatal("FastScan with IVF accepted")
	}
	cfg = DefaultConfig()
	cfg.FastScan = true
	cfg.Dim = 72 // divisible by M=8 but not by 2M=16
	if err := cfg.Validate(); err == nil {
		t.Fatal("Dim not divisible by 2·M accepted")
	}
}
