package artifact

import (
	"bytes"
	"encoding/binary"
	"errors"
	"os"
	"path/filepath"
	"runtime"
	"testing"

	"emblookup/internal/procmaps"
)

// buildSample writes a small artifact exercising every element kind and
// returns its bytes.
func buildSample(t *testing.T) []byte {
	t.Helper()
	w := NewWriter()
	w.AddJSON("meta", map[string]any{"kind": "pq", "n": 3})
	w.AddFloat32s("vecs", []float32{1, 2, 3, 4, 5, 6}, 2, 3)
	w.AddBytes("codes", []byte{9, 8, 7, 6, 5})
	w.AddInt32s("rows", []int32{0, 1, 2})
	w.AddInt64s("offs", []int64{0, 2, 5})
	var buf bytes.Buffer
	n, err := w.WriteTo(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if n != int64(buf.Len()) {
		t.Fatalf("WriteTo reported %d bytes, wrote %d", n, buf.Len())
	}
	return buf.Bytes()
}

func checkSample(t *testing.T, af *File) {
	t.Helper()
	var meta struct {
		Kind string `json:"kind"`
		N    int    `json:"n"`
	}
	if err := af.Section("meta").JSON(&meta); err != nil {
		t.Fatal(err)
	}
	if meta.Kind != "pq" || meta.N != 3 {
		t.Fatalf("meta round trip: %+v", meta)
	}
	vecs := af.Section("vecs")
	if vecs.Rows != 2 || vecs.Cols != 3 {
		t.Fatalf("vecs shape %dx%d", vecs.Rows, vecs.Cols)
	}
	got := vecs.Float32s()
	want := []float32{1, 2, 3, 4, 5, 6}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("vecs[%d] = %v, want %v", i, got[i], want[i])
		}
	}
	if c := got[:0]; cap(c) != len(want) {
		t.Fatalf("section view capacity %d leaks past its length %d", cap(got), len(want))
	}
	if b := af.Section("codes").Bytes(); !bytes.Equal(b, []byte{9, 8, 7, 6, 5}) {
		t.Fatalf("codes = %v", b)
	}
	if r := af.Section("rows").Int32s(); len(r) != 3 || r[2] != 2 {
		t.Fatalf("rows = %v", r)
	}
	if o := af.Section("offs").Int64s(); len(o) != 3 || o[2] != 5 {
		t.Fatalf("offs = %v", o)
	}
	if af.Section("missing") != nil {
		t.Fatal("missing section should be nil")
	}
	if err := af.Verify(); err != nil {
		t.Fatal(err)
	}
}

func TestRoundTripDecode(t *testing.T) {
	raw := buildSample(t)
	af, err := Decode(raw)
	if err != nil {
		t.Fatal(err)
	}
	if af.Backing() != "heap" {
		t.Fatalf("Decode backing = %q", af.Backing())
	}
	checkSample(t, af)
}

func TestRoundTripOpenMmap(t *testing.T) {
	raw := buildSample(t)
	path := filepath.Join(t.TempDir(), "a.bin")
	if err := os.WriteFile(path, raw, 0o644); err != nil {
		t.Fatal(err)
	}
	af, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer af.Close()
	if runtime.GOOS == "linux" && af.Backing() != "mmap" {
		t.Fatalf("Open backing = %q, want mmap on linux", af.Backing())
	}
	checkSample(t, af)
	if err := af.Close(); err != nil {
		t.Fatal(err)
	}
	if err := af.Close(); err != nil { // double close is a no-op
		t.Fatal(err)
	}
}

// TestRetainClose checks the reference count: the backing stays mapped
// until the last holder closes, and a Retain after that panics rather than
// revive an unmapped file.
func TestRetainClose(t *testing.T) {
	path := filepath.Join(t.TempDir(), "a.bin")
	if err := os.WriteFile(path, buildSample(t), 0o644); err != nil {
		t.Fatal(err)
	}
	af, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	af.Retain()
	if err := af.Close(); err != nil {
		t.Fatal(err)
	}
	checkSample(t, af) // one reference left
	if err := af.Close(); err != nil {
		t.Fatal(err)
	}
	if ms := procmaps.Under(t, path); len(ms) != 0 {
		t.Fatalf("still mapped after the last Close: %v", ms)
	}
	defer func() {
		if recover() == nil {
			t.Fatal("Retain after the last Close did not panic")
		}
	}()
	af.Retain()
}

func TestSectionAlignment(t *testing.T) {
	raw := buildSample(t)
	af, err := Decode(raw)
	if err != nil {
		t.Fatal(err)
	}
	le := binary.LittleEndian
	nsec := int(le.Uint32(raw[12:16]))
	for i := 0; i < nsec; i++ {
		ent := raw[headerSize+i*entrySize : headerSize+(i+1)*entrySize]
		if off := le.Uint64(ent[16:24]); off%align != 0 {
			t.Fatalf("section %d at offset %d, not %d-aligned", i, off, align)
		}
	}
	_ = af
}

// TestCorruption flips bytes across the artifact and asserts the parser
// reports an error (never panics, never silently succeeds) for header,
// table, and — on the verifying Decode path — payload corruption.
func TestCorruption(t *testing.T) {
	raw := buildSample(t)
	for pos := 0; pos < len(raw); pos += 7 {
		mut := bytes.Clone(raw)
		mut[pos] ^= 0xff
		if af, err := Decode(mut); err == nil {
			// A flip inside reserved padding is the only tolerable survival;
			// anything else must fail the table or payload checksum.
			if af.Verify() == nil && !inReserved(raw, pos) {
				t.Fatalf("corruption at byte %d went undetected", pos)
			}
		}
	}
}

// inReserved reports whether pos falls in header/table reserved bytes or
// alignment padding — regions no checksum covers.
func inReserved(raw []byte, pos int) bool {
	le := binary.LittleEndian
	if pos < headerSize {
		return pos >= 28 // header reserved area
	}
	nsec := int(le.Uint32(raw[12:16]))
	if pos < headerSize+nsec*entrySize {
		return false // table is fully checksummed
	}
	// Outside every section payload → padding.
	for i := 0; i < nsec; i++ {
		ent := raw[headerSize+i*entrySize : headerSize+(i+1)*entrySize]
		off, ln := le.Uint64(ent[16:24]), le.Uint64(ent[24:32])
		if uint64(pos) >= off && uint64(pos) < off+ln {
			return false
		}
	}
	return true
}

func TestTruncation(t *testing.T) {
	raw := buildSample(t)
	for _, n := range []int{0, 4, 8, headerSize - 1, headerSize, headerSize + entrySize, len(raw) - 1} {
		if _, err := Decode(raw[:n]); err == nil {
			t.Fatalf("truncation to %d bytes went undetected", n)
		}
	}
}

// TestNotV4: a file without the magic fails with ErrNotV4 through Open and
// Decode alike, and a damaged v4 file fails with some other error.
func TestNotV4(t *testing.T) {
	for name, data := range map[string][]byte{"empty": {}, "8 random bytes": {0x9c, 0x41, 0x07, 0xee, 0x5a, 0x13, 0xd2, 0x68}, "magic cut short": []byte(Magic[:7])} {
		path := filepath.Join(t.TempDir(), "f")
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		if _, err := Open(path); !errors.Is(err, ErrNotV4) {
			t.Errorf("%s: Open error %v, want ErrNotV4", name, err)
		}
		if _, err := Decode(data); !errors.Is(err, ErrNotV4) {
			t.Errorf("%s: Decode error %v, want ErrNotV4", name, err)
		}
	}
	if _, err := Decode(buildSample(t)[:headerSize]); err == nil || errors.Is(err, ErrNotV4) {
		t.Fatalf("a truncated v4 file failed with %v, want an error other than ErrNotV4", err)
	}
}

func TestWriterErrors(t *testing.T) {
	w := NewWriter()
	w.AddBytes("dup", nil)
	w.AddBytes("dup", nil)
	if _, err := w.WriteTo(&bytes.Buffer{}); err == nil {
		t.Fatal("duplicate section accepted")
	}
	w = NewWriter()
	w.AddBytes("this-name-is-far-too-long-for-an-entry", nil)
	if _, err := w.WriteTo(&bytes.Buffer{}); err == nil {
		t.Fatal("over-long section name accepted")
	}
}

func TestEmptyArtifact(t *testing.T) {
	var buf bytes.Buffer
	if _, err := NewWriter().WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	af, err := Decode(buf.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	if len(af.Sections()) != 0 {
		t.Fatalf("%d sections in empty artifact", len(af.Sections()))
	}
}

// FuzzParse hammers the section parser directly with arbitrary bytes: it
// must error or succeed, never panic, and never allocate huge buffers from
// a tiny corrupt input (the driver enforces that indirectly via OOM).
func FuzzParse(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte(Magic))
	raw := NewWriter()
	raw.AddBytes("codes", []byte{1, 2, 3})
	raw.AddFloat32s("vecs", []float32{1, 2}, 1, 2)
	var buf bytes.Buffer
	raw.WriteTo(&buf)
	f.Add(buf.Bytes())
	f.Add(buf.Bytes()[:40])
	f.Fuzz(func(t *testing.T, data []byte) {
		af, err := Decode(data)
		if err != nil {
			return
		}
		for i := range af.Sections() {
			s := &af.Sections()[i]
			switch s.Elem {
			case ElemF32:
				_ = s.Float32s()
			case ElemI32:
				_ = s.Int32s()
			case ElemI64:
				_ = s.Int64s()
			default:
				_ = s.Bytes()
			}
		}
	})
}
