package server

import (
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"slices"
	"sync"
)

// FrameContentType names the binary codec of POST /partition/search, the
// one the cluster router speaks: a request frame in, a reply frame out. A
// request of any other content type is JSON both ways (PartitionSearchRequest
// in, PartitionSearchResponse out), the shape curl and direct callers use.
//
// Every field is little-endian. A request frame is
//
//	"ELQ" 0x01 | k u32 | nq u32 | dim u32 | nq·dim × f32
//
// and a reply frame is
//
//	"ELH" 0x01 | partition u32 | nq u32 |
//	nq × (n u32 | n × (row i32 | dist f32 | entity i32)) |
//	len u32 | len bytes of JSON []obs.SpanRecord (none when untraced)
//
// The fourth magic byte is the version. Floats cross as their stored bits,
// so the router scatters exactly the embeddings it computed and merges
// exactly the distances the nodes scanned.
const FrameContentType = "application/x-emblookup-frame"

var (
	searchMagic = [4]byte{'E', 'L', 'Q', 1}
	hitsMagic   = [4]byte{'E', 'L', 'H', 1}
)

const (
	searchHeaderBytes = 16 // magic, k, nq, dim
	hitsHeaderBytes   = 12 // magic, partition, nq
	hitBytes          = 12 // row, dist, entity
)

// The decoders reject with these fixed errors, so a rejected frame costs no
// allocation at all.
var (
	errFrameHeader  = errors.New("frame: truncated header")
	errFrameMagic   = errors.New("frame: not a version-1 frame of this kind")
	errFrameEmpty   = errors.New("frame: a search frame carries at least one query of at least one value")
	errFrameLength  = errors.New("frame: payload length is not nq·dim·4 bytes")
	errFrameHits    = errors.New("frame: hit lists overrun the frame")
	errFrameTrailer = errors.New("frame: span length does not match the bytes that follow")
)

var le = binary.LittleEndian

// AppendSearchFrame appends the request frame asking for the top k of
// every query to dst. The queries must share one length, as the router's
// embeddings do.
func AppendSearchFrame(dst []byte, k int, queries [][]float32) []byte {
	dim := 0
	if len(queries) > 0 {
		dim = len(queries[0])
	}
	dst = slices.Grow(dst, searchHeaderBytes+4*len(queries)*dim)
	dst = append(dst, searchMagic[:]...)
	dst = le.AppendUint32(dst, uint32(k))
	dst = le.AppendUint32(dst, uint32(len(queries)))
	dst = le.AppendUint32(dst, uint32(dim))
	for _, q := range queries {
		for _, v := range q {
			dst = le.AppendUint32(dst, math.Float32bits(v))
		}
	}
	return dst
}

// decodeSearchFrame parses a request frame into the request the JSON codec
// fills, its queries sub-slices of one slab. The header is checked against
// the frame's length before anything is allocated, so a frame cannot claim
// more queries than it carries.
func decodeSearchFrame(b []byte) (PartitionSearchRequest, error) {
	if len(b) < searchHeaderBytes {
		return PartitionSearchRequest{}, errFrameHeader
	}
	if [4]byte(b) != searchMagic {
		return PartitionSearchRequest{}, errFrameMagic
	}
	k, nq, dim := le.Uint32(b[4:]), le.Uint32(b[8:]), le.Uint32(b[12:])
	payload := b[searchHeaderBytes:]
	if nq == 0 || dim == 0 {
		return PartitionSearchRequest{}, errFrameEmpty
	}
	// Two u32s multiply without overflow in a u64.
	if len(payload)%4 != 0 || uint64(nq)*uint64(dim) != uint64(len(payload)/4) {
		return PartitionSearchRequest{}, errFrameLength
	}
	slab := make([]float32, len(payload)/4)
	for i := range slab {
		slab[i] = math.Float32frombits(le.Uint32(payload[4*i:]))
	}
	d := int(dim)
	queries := make([][]float32, nq)
	for i := range queries {
		queries[i] = slab[i*d : (i+1)*d : (i+1)*d]
	}
	return PartitionSearchRequest{K: int(k), Queries: queries}, nil
}

// appendHitsFrame appends the reply frame of a partition's search to dst;
// spans is the node's JSON span list, empty when the request was not traced.
func appendHitsFrame(dst []byte, partition int, results [][]PartitionHit, spans []byte) []byte {
	n := hitsHeaderBytes + 4*len(results) + 4 + len(spans)
	for _, hits := range results {
		n += hitBytes * len(hits)
	}
	dst = slices.Grow(dst, n)
	dst = append(dst, hitsMagic[:]...)
	dst = le.AppendUint32(dst, uint32(partition))
	dst = le.AppendUint32(dst, uint32(len(results)))
	for _, hits := range results {
		dst = le.AppendUint32(dst, uint32(len(hits)))
		for _, h := range hits {
			dst = le.AppendUint32(dst, uint32(h.Row))
			dst = le.AppendUint32(dst, math.Float32bits(h.Dist))
			dst = le.AppendUint32(dst, uint32(h.Entity))
		}
	}
	dst = le.AppendUint32(dst, uint32(len(spans)))
	return append(dst, spans...)
}

// decodeHitsFrame parses a reply frame: the answering partition, its hits
// per query as sub-slices of one slab, and the span list's JSON bytes (a
// sub-slice of b). A first pass walks the counts against the frame's length,
// so nothing is allocated for a frame that claims more than it carries.
func decodeHitsFrame(b []byte) (partition int, results [][]PartitionHit, spans []byte, err error) {
	if len(b) < hitsHeaderBytes {
		return 0, nil, nil, errFrameHeader
	}
	if [4]byte(b) != hitsMagic {
		return 0, nil, nil, errFrameMagic
	}
	part, nq := le.Uint32(b[4:]), le.Uint32(b[8:])
	rest := b[hitsHeaderBytes:]
	off, total := 0, 0
	for i := uint32(0); i < nq; i++ {
		if len(rest)-off < 4 {
			return 0, nil, nil, errFrameHits
		}
		n := le.Uint32(rest[off:])
		off += 4
		if uint64(n) > uint64((len(rest)-off)/hitBytes) {
			return 0, nil, nil, errFrameHits
		}
		off += int(n) * hitBytes
		total += int(n)
	}
	if len(rest)-off < 4 || uint64(le.Uint32(rest[off:])) != uint64(len(rest)-off-4) {
		return 0, nil, nil, errFrameTrailer
	}
	spans = rest[off+4:]

	slab := make([]PartitionHit, total)
	results = make([][]PartitionHit, nq)
	off, at := 0, 0
	for i := range results {
		n := int(le.Uint32(rest[off:]))
		off += 4
		hits := slab[at : at+n : at+n]
		for j := range hits {
			p := rest[off+j*hitBytes:]
			hits[j] = PartitionHit{Row: int32(le.Uint32(p)), Dist: math.Float32frombits(le.Uint32(p[4:])), Entity: int32(le.Uint32(p[8:]))}
		}
		results[i] = hits
		off += n * hitBytes
		at += n
	}
	return int(part), results, spans, nil
}

// ReadHitsFrame reads a reply frame from r and decodes it into the JSON
// reply's shape: Partition carries only the answering node's partition ID,
// Results are sub-slices of one slab, and Spans are the node's own when the
// request was traced. The bytes are read into a pooled buffer that nothing
// returned references.
func ReadHitsFrame(r io.Reader) (PartitionSearchResponse, error) {
	bp, err := readFrame(r)
	defer framePool.Put(bp)
	if err != nil {
		return PartitionSearchResponse{}, err
	}
	part, results, spans, err := decodeHitsFrame(*bp)
	if err != nil {
		return PartitionSearchResponse{}, err
	}
	resp := PartitionSearchResponse{Partition: PartitionInfo{ID: part}, Results: results}
	if len(spans) > 0 {
		if err := json.Unmarshal(spans, &resp.Spans); err != nil {
			return PartitionSearchResponse{}, fmt.Errorf("frame: decoding spans: %w", err)
		}
	}
	return resp, nil
}

// framePool recycles the buffers frames are read into and written from: a
// node's request bodies and replies, a router's replies.
var framePool = sync.Pool{New: func() any { return new([]byte) }}

// readFrame reads r to its end into a buffer from framePool, which the
// caller puts back, error or not.
func readFrame(r io.Reader) (*[]byte, error) {
	bp := framePool.Get().(*[]byte)
	b := (*bp)[:0]
	for {
		if len(b) == cap(b) {
			b = append(b, 0)[:len(b)]
		}
		n, err := r.Read(b[len(b):cap(b)])
		b = b[:len(b)+n]
		if err != nil {
			*bp = b
			if err == io.EOF {
				err = nil
			}
			return bp, err
		}
	}
}
