// Package artifact implements the layout-stable on-disk container every
// model and index artifact uses from format v4 on (DESIGN.md §12): a small
// header, a table of named sections, and raw little-endian payloads, each
// 64-byte aligned and checksummed. The layout is designed so that loading is
// *attachment*, not decoding — on Linux the file is mmap'd and every payload
// becomes a typed slice view over the page cache (zero copies, allocation
// count independent of model size); elsewhere, or when reading from a plain
// io.Reader, the file is read once into an aligned heap buffer and the same
// views are taken over that copy.
//
// Layout (all integers little-endian):
//
//	offset 0, 64 bytes          header
//	  [0:8)    magic "EMBLKV4\x00"
//	  [8:12)   uint32 format version (4)
//	  [12:16)  uint32 section count S
//	  [16:24)  uint64 total file size in bytes
//	  [24:28)  uint32 CRC-32C of the section table
//	  [28:64)  reserved, zero
//	offset 64, S×64 bytes       section table
//	  [0:16)   section name, NUL-padded
//	  [16:24)  uint64 payload offset (64-byte aligned)
//	  [24:32)  uint64 payload length in bytes
//	  [32:40)  uint64 rows (matrices; 0 otherwise)
//	  [40:48)  uint64 cols (matrices; 0 otherwise)
//	  [48:52)  uint32 element kind (ElemKind)
//	  [52:56)  uint32 CRC-32C of the payload
//	  [56:64)  reserved, zero
//	payloads                    raw little-endian data, 64-byte aligned,
//	                            zero-padded between sections
//
// The parser never allocates proportionally to untrusted header fields: the
// section count and every offset/length are validated against the actual
// byte count on hand before any dependent allocation, so a malformed or
// truncated artifact fails with an error — never a panic or a huge
// make([]byte) (FuzzReadArtifact locks this down).
package artifact

import (
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"math"
	"os"
	"unsafe"

	"emblookup/internal/refcount"
)

// Magic identifies a format-v4 artifact: the first eight bytes of every
// model and graph file.
const Magic = "EMBLKV4\x00"

// ErrNotV4 is the error, wrapped by Open and returned by Decode, for a
// file that does not begin with Magic: an empty file, random bytes, or a
// model or graph written before the v4 container, which no reader here
// accepts.
var ErrNotV4 = errors.New("not a v4 artifact (no EMBLKV4 magic)")

// Version is the container format version this package reads and writes.
const Version = 4

const (
	headerSize  = 64
	entrySize   = 64
	align       = 64
	maxName     = 16
	maxSections = 1 << 12 // sanity cap, far above any real artifact
)

// ElemKind is the element type of a section payload.
type ElemKind uint32

const (
	// ElemU8 is raw bytes (PQ codes, interleaved fast-scan blocks).
	ElemU8 ElemKind = iota
	// ElemF32 is []float32 (vectors, codebooks, model weights).
	ElemF32
	// ElemI32 is []int32 (row→entity tables, inverted-list ids).
	ElemI32
	// ElemI64 is []int64 (list offsets, known-mention hashes).
	ElemI64
	// ElemJSON is a UTF-8 JSON document (the model's structured metadata).
	ElemJSON

	elemKinds // count sentinel
)

// elemSize returns the byte width of one element (1 for variable-width
// kinds).
func (k ElemKind) elemSize() int {
	switch k {
	case ElemF32, ElemI32:
		return 4
	case ElemI64:
		return 8
	default:
		return 1
	}
}

// castagnoli is the CRC-32C table (hardware-accelerated on amd64/arm64).
var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// Section is one named payload of an artifact. The typed accessors return
// views over the artifact's backing memory (mmap or heap) — shared,
// read-only, and cap-clipped; callers must treat them as immutable.
type Section struct {
	Name string
	Elem ElemKind
	Rows int // matrix row count (0 when not a matrix)
	Cols int // matrix column count
	crc  uint32
	data []byte
}

// Len returns the element count of the section.
func (s *Section) Len() int { return len(s.data) / s.Elem.elemSize() }

// Bytes returns the raw payload view.
func (s *Section) Bytes() []byte { return s.data }

// Float32s returns the payload as a float32 view (ElemF32 sections).
func (s *Section) Float32s() []float32 {
	if len(s.data) == 0 {
		return nil
	}
	return unsafe.Slice((*float32)(unsafe.Pointer(&s.data[0])), len(s.data)/4)
}

// Int32s returns the payload as an int32 view (ElemI32 sections).
func (s *Section) Int32s() []int32 {
	if len(s.data) == 0 {
		return nil
	}
	return unsafe.Slice((*int32)(unsafe.Pointer(&s.data[0])), len(s.data)/4)
}

// Int64s returns the payload as an int64 view (ElemI64 sections).
func (s *Section) Int64s() []int64 {
	if len(s.data) == 0 {
		return nil
	}
	return unsafe.Slice((*int64)(unsafe.Pointer(&s.data[0])), len(s.data)/8)
}

// JSON unmarshals an ElemJSON section into v.
func (s *Section) JSON(v any) error {
	if s.Elem != ElemJSON {
		return fmt.Errorf("artifact: section %q holds %v, not JSON", s.Name, s.Elem)
	}
	return json.Unmarshal(s.data, v)
}

// verify recomputes the payload checksum.
func (s *Section) verify() error {
	if got := crc32.Checksum(s.data, castagnoli); got != s.crc {
		return fmt.Errorf("artifact: section %q checksum mismatch (stored %08x, computed %08x)", s.Name, s.crc, got)
	}
	return nil
}

// File is a parsed artifact: the section directory over one contiguous
// backing buffer, shared by reference. The opener holds the first
// reference and Retain takes another; each holder calls Close once, and the
// Close that drops the last reference releases the backing (munmap when
// mapped), after which every section view is invalid.
type File struct {
	sections []Section
	byName   map[string]*Section
	mapping  []byte         // munmap target; nil for heap backings
	backing  string         // "mmap" or "heap"
	refs     refcount.Count // the opener's reference and every Retain
}

// Backing reports how the payloads are held: "mmap" (views over the page
// cache) or "heap" (views over a private copy).
func (f *File) Backing() string { return f.backing }

// Section returns the named section, or nil when absent.
func (f *File) Section(name string) *Section { return f.byName[name] }

// Sections returns every section in file order.
func (f *File) Sections() []Section { return f.sections }

// Verify recomputes every payload checksum. On an mmap backing this faults
// in every page, so it is an explicit integrity pass, not part of Open.
func (f *File) Verify() error {
	for i := range f.sections {
		if err := f.sections[i].verify(); err != nil {
			return err
		}
	}
	return nil
}

// Retain takes one more reference to f for a holder that closes it on its
// own. The caller must hold a reference itself: a File whose last reference
// is gone cannot be revived, and Retain panics rather than let its backing
// be released twice.
func (f *File) Retain() {
	if !f.refs.Acquire() {
		panic("artifact: Retain after the last Close")
	}
}

// Close drops one reference. The drop of the last one releases the backing
// memory, exactly once however many holders close concurrently; Close calls
// past the last reference are no-ops, so a single holder may call it twice.
func (f *File) Close() error {
	if !f.refs.Release() || f.mapping == nil {
		return nil
	}
	return munmap(f.mapping)
}

// Sniff reports whether prefix (at least 8 bytes of a stream) begins a
// format-v4 artifact.
func Sniff(prefix []byte) bool {
	return len(prefix) >= len(Magic) && string(prefix[:len(Magic)]) == Magic
}

// Open attaches the artifact at path. On platforms with mmap support the
// payloads become zero-copy views over the page cache (Backing() ==
// "mmap"); otherwise the file is read into an aligned heap buffer. Open
// validates the header, the section table and its checksum, and every
// section's geometry; payload checksums are *not* recomputed on the mmap
// path (that would fault in the whole file — call Verify for a full
// integrity pass). Heap fallbacks verify payloads, since they touch every
// byte anyway.
func Open(path string) (*File, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	st, err := f.Stat()
	if err != nil {
		return nil, err
	}
	size := st.Size()
	if size > math.MaxInt {
		return nil, fmt.Errorf("artifact: %s is %d bytes, larger than the address space", path, size)
	}
	data, err := mmapFile(f, int(size))
	if err == nil {
		af, perr := parse(data, "mmap")
		if perr != nil {
			munmap(data)
			return nil, fmt.Errorf("artifact: %s: %w", path, perr)
		}
		af.mapping = data
		return af, nil
	}
	// No mmap on this platform (or the map failed): fall back to one
	// aligned read of the whole file.
	return readFallback(f, int(size), path)
}

// readFallback reads the artifact through an io.ReaderAt into an aligned
// heap buffer and verifies every payload checksum.
func readFallback(r io.ReaderAt, size int, name string) (*File, error) {
	buf := alignedBuf(size)
	if _, err := r.ReadAt(buf, 0); err != nil {
		return nil, fmt.Errorf("artifact: %s: %w", name, err)
	}
	af, err := parse(buf, "heap")
	if err != nil {
		return nil, fmt.Errorf("artifact: %s: %w", name, err)
	}
	if err := af.Verify(); err != nil {
		return nil, fmt.Errorf("artifact: %s: %w", name, err)
	}
	return af, nil
}

// Decode parses an artifact held in memory. The buffer is copied into
// aligned storage when misaligned for the widest element; payload checksums
// are always verified.
func Decode(data []byte) (*File, error) {
	if len(data) > 0 && uintptr(unsafe.Pointer(&data[0]))%8 != 0 {
		buf := alignedBuf(len(data))
		copy(buf, data)
		data = buf
	}
	af, err := parse(data, "heap")
	if err != nil {
		return nil, err
	}
	if err := af.Verify(); err != nil {
		return nil, err
	}
	return af, nil
}

// alignedBuf allocates n bytes whose base address is 8-byte aligned, so
// int64 views over any 64-byte-aligned section offset stay aligned.
func alignedBuf(n int) []byte {
	if n == 0 {
		return nil
	}
	words := make([]uint64, (n+7)/8)
	return unsafe.Slice((*byte)(unsafe.Pointer(&words[0])), n)[:n:n]
}

// parse builds the section directory over data. Every size and offset is
// validated against len(data) before any dependent allocation.
func parse(data []byte, backing string) (*File, error) {
	if !hostLittle {
		return nil, errors.New("artifacts are little-endian containers; this host cannot read one")
	}
	if !Sniff(data) {
		return nil, ErrNotV4
	}
	if len(data) < headerSize {
		return nil, fmt.Errorf("truncated header: %d bytes", len(data))
	}
	le := binary.LittleEndian
	if v := le.Uint32(data[8:12]); v != Version {
		return nil, fmt.Errorf("format version %d, this build reads %d", v, Version)
	}
	nsec := int(le.Uint32(data[12:16]))
	if nsec < 0 || nsec > maxSections {
		return nil, fmt.Errorf("implausible section count %d", nsec)
	}
	if fsize := le.Uint64(data[16:24]); fsize != uint64(len(data)) {
		return nil, fmt.Errorf("header declares %d bytes, artifact holds %d (truncated or padded)", fsize, len(data))
	}
	tableEnd := headerSize + nsec*entrySize
	if tableEnd > len(data) {
		return nil, fmt.Errorf("section table (%d entries) exceeds the artifact's %d bytes", nsec, len(data))
	}
	table := data[headerSize:tableEnd]
	if got := crc32.Checksum(table, castagnoli); got != le.Uint32(data[24:28]) {
		return nil, fmt.Errorf("section table checksum mismatch")
	}
	af := &File{
		sections: make([]Section, nsec),
		byName:   make(map[string]*Section, nsec),
		backing:  backing,
	}
	for i := 0; i < nsec; i++ {
		ent := table[i*entrySize : (i+1)*entrySize]
		name := trimName(ent[:maxName])
		if name == "" {
			return nil, fmt.Errorf("section %d has an empty name", i)
		}
		off := le.Uint64(ent[16:24])
		length := le.Uint64(ent[24:32])
		rows := le.Uint64(ent[32:40])
		cols := le.Uint64(ent[40:48])
		kind := ElemKind(le.Uint32(ent[48:52]))
		if kind >= elemKinds {
			return nil, fmt.Errorf("section %q has unknown element kind %d", name, kind)
		}
		if off%align != 0 {
			return nil, fmt.Errorf("section %q offset %d not %d-byte aligned", name, off, align)
		}
		if off > uint64(len(data)) || length > uint64(len(data))-off {
			return nil, fmt.Errorf("section %q spans [%d, %d+%d) outside the artifact's %d bytes", name, off, off, length, len(data))
		}
		es := uint64(kind.elemSize())
		if length%es != 0 {
			return nil, fmt.Errorf("section %q length %d not a multiple of the %d-byte element", name, length, es)
		}
		if rows > 0 || cols > 0 {
			if cols == 0 || rows > math.MaxInt64/cols || rows*cols != length/es {
				return nil, fmt.Errorf("section %q declares %d×%d elements but holds %d", name, rows, cols, length/es)
			}
		}
		if _, dup := af.byName[name]; dup {
			return nil, fmt.Errorf("duplicate section %q", name)
		}
		s := &af.sections[i]
		*s = Section{
			Name: name,
			Elem: kind,
			Rows: int(rows),
			Cols: int(cols),
			crc:  le.Uint32(ent[52:56]),
			data: data[off : off+length : off+length],
		}
		af.byName[name] = s
	}
	return af, nil
}

func trimName(b []byte) string {
	n := len(b)
	for n > 0 && b[n-1] == 0 {
		n--
	}
	return string(b[:n])
}

// Writer accumulates sections and serializes them as one v4 artifact. Add*
// methods retain the given slices (no copies) until WriteTo runs.
type Writer struct {
	sections []wSection
	err      error
}

type wSection struct {
	name       string
	elem       ElemKind
	rows, cols int
	data       []byte
}

// NewWriter returns an empty artifact writer.
func NewWriter() *Writer { return &Writer{} }

func (w *Writer) add(name string, kind ElemKind, rows, cols int, data []byte) {
	if w.err != nil {
		return
	}
	if len(name) == 0 || len(name) > maxName {
		w.err = fmt.Errorf("artifact: section name %q must be 1–%d bytes", name, maxName)
		return
	}
	for _, s := range w.sections {
		if s.name == name {
			w.err = fmt.Errorf("artifact: duplicate section %q", name)
			return
		}
	}
	if len(w.sections) >= maxSections {
		w.err = fmt.Errorf("artifact: too many sections (%d)", maxSections)
		return
	}
	w.sections = append(w.sections, wSection{name: name, elem: kind, rows: rows, cols: cols, data: data})
}

// AddBytes adds a raw byte section.
func (w *Writer) AddBytes(name string, data []byte) {
	w.add(name, ElemU8, 0, 0, data)
}

// AddFloat32s adds a float32 section; rows×cols documents a matrix shape
// (pass 0,0 for a plain vector).
func (w *Writer) AddFloat32s(name string, data []float32, rows, cols int) {
	w.add(name, ElemF32, rows, cols, f32Bytes(data))
}

// AddInt32s adds an int32 section.
func (w *Writer) AddInt32s(name string, data []int32) {
	var b []byte
	if len(data) > 0 {
		b = unsafe.Slice((*byte)(unsafe.Pointer(&data[0])), len(data)*4)
	}
	w.add(name, ElemI32, 0, 0, b)
}

// AddInt64s adds an int64 section.
func (w *Writer) AddInt64s(name string, data []int64) {
	var b []byte
	if len(data) > 0 {
		b = unsafe.Slice((*byte)(unsafe.Pointer(&data[0])), len(data)*8)
	}
	w.add(name, ElemI64, 0, 0, b)
}

// AddJSON adds a JSON metadata section.
func (w *Writer) AddJSON(name string, v any) {
	if w.err != nil {
		return
	}
	buf, err := json.Marshal(v)
	if err != nil {
		w.err = fmt.Errorf("artifact: marshaling section %q: %w", name, err)
		return
	}
	w.add(name, ElemJSON, 0, 0, buf)
}

func f32Bytes(data []float32) []byte {
	if len(data) == 0 {
		return nil
	}
	return unsafe.Slice((*byte)(unsafe.Pointer(&data[0])), len(data)*4)
}

var zeroPad [align]byte

// WriteTo serializes the artifact: header, section table, then each payload
// at its 64-byte-aligned offset. The byte stream is deterministic for a
// given sequence of Add calls.
func (w *Writer) WriteTo(out io.Writer) (int64, error) {
	if w.err != nil {
		return 0, w.err
	}
	le := binary.LittleEndian
	nsec := len(w.sections)
	// Lay out payload offsets.
	offsets := make([]uint64, nsec)
	pos := uint64(headerSize + nsec*entrySize)
	for i, s := range w.sections {
		pos = (pos + align - 1) / align * align
		offsets[i] = pos
		pos += uint64(len(s.data))
	}
	total := pos

	table := make([]byte, nsec*entrySize)
	for i, s := range w.sections {
		ent := table[i*entrySize : (i+1)*entrySize]
		copy(ent[:maxName], s.name)
		le.PutUint64(ent[16:24], offsets[i])
		le.PutUint64(ent[24:32], uint64(len(s.data)))
		le.PutUint64(ent[32:40], uint64(s.rows))
		le.PutUint64(ent[40:48], uint64(s.cols))
		le.PutUint32(ent[48:52], uint32(s.elem))
		le.PutUint32(ent[52:56], crc32.Checksum(s.data, castagnoli))
	}

	var header [headerSize]byte
	copy(header[:8], Magic)
	le.PutUint32(header[8:12], Version)
	le.PutUint32(header[12:16], uint32(nsec))
	le.PutUint64(header[16:24], total)
	le.PutUint32(header[24:28], crc32.Checksum(table, castagnoli))

	var written int64
	emit := func(b []byte) error {
		n, err := out.Write(b)
		written += int64(n)
		return err
	}
	if err := emit(header[:]); err != nil {
		return written, err
	}
	if err := emit(table); err != nil {
		return written, err
	}
	cur := uint64(headerSize + nsec*entrySize)
	for i, s := range w.sections {
		if pad := offsets[i] - cur; pad > 0 {
			if err := emit(zeroPad[:pad]); err != nil {
				return written, err
			}
			cur += pad
		}
		if err := emit(s.data); err != nil {
			return written, err
		}
		cur += uint64(len(s.data))
	}
	return written, nil
}
