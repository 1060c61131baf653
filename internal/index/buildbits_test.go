package index

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"hash"
	"math"
	"testing"

	"emblookup/internal/mathx"
	"emblookup/internal/quant"
)

// buildBitsHash is the SHA-256 of every bit an index build over
// clusteredData produces (see TestBuildBitsPinned). It was computed before
// the column-block distance kernel replaced the scalar loops, and it is the
// same on the default, purego and GOAMD64=v3 builds: a kernel that moved
// one argmin, one centroid bit or one code would change it.
const buildBitsHash = "d3b688eaf2959cbf1f411537dd3845239035d5fa366186c1f6d8ac84b45a195f"

// clusterLayoutHash is the SHA-256 of the fast-scan cluster layout the
// same build produces at 3 × 3 clusters (ids, bounds, masks), first
// computed when the layout was introduced.
const clusterLayoutHash = "421a3247e40f13e76fd9b9d2c1657550d567a43065a761ee3de8107f46bae96b"

// clusteredData is n rows of dimension d around 24 Gaussian centres, the
// shape label embeddings have, so k-means has real clusters to find and
// ties between near-equal distances come up.
func clusteredData(n, d int, seed uint64) *mathx.Matrix {
	rng := mathx.NewRNG(seed)
	cs := mathx.NewMatrix(24, d)
	cs.FillRandn(rng, 1)
	m := mathx.NewMatrix(n, d)
	m.FillRandn(rng, 0.3)
	for i := 0; i < n; i++ {
		for j, v := range cs.Row(rng.Intn(cs.Rows)) {
			m.Row(i)[j] += v
		}
	}
	return m
}

type bitsHash struct{ h hash.Hash }

func (b bitsHash) floats(v []float32) {
	var buf [4]byte
	for _, f := range v {
		binary.LittleEndian.PutUint32(buf[:], math.Float32bits(f))
		b.h.Write(buf[:])
	}
}

func (b bitsHash) ints(v []int) {
	var buf [8]byte
	for _, x := range v {
		binary.LittleEndian.PutUint64(buf[:], uint64(x))
		b.h.Write(buf[:])
	}
}

func (b bitsHash) quantizer(q *quant.ProductQuantizer) {
	b.ints([]int{q.D, q.M, q.Ks, q.Dsub})
	for _, cb := range q.Codebooks {
		b.ints([]int{cb.Rows, cb.Cols})
		b.floats(cb.Data)
	}
}

// TestBuildBitsPinned hashes the output of every index build step over a
// seeded clustered matrix — k-means centroids and assignments, TrainPQ
// codebooks and the PQ codes of every row, the fast-scan quantizer and
// blocks, query-time ADC tables of both quantizers, and the IVF-PQ coarse
// centroids, lists and list codes (ragged NList, sub-table sizes off
// multiples of 8, and a trained-sample build among them) — against a
// constant computed on the scalar build. Every
// other bit-identity test compares two paths of one tree; this one holds
// the tree to its past.
func TestBuildBitsPinned(t *testing.T) {
	data := clusteredData(3000, 32, 71)
	b := bitsHash{sha256.New()}

	cents, assign := quant.KMeans(data, quant.KMeansConfig{K: 37, MaxIters: 12, Seed: 72})
	b.floats(cents.Data)
	b.ints(assign)

	pq, err := quant.TrainPQ(data, quant.PQConfig{M: 4, Ks: 100, Iters: 8, Seed: 73})
	if err != nil {
		t.Fatal(err)
	}
	b.quantizer(pq)
	for i := 0; i < data.Rows; i++ {
		b.h.Write(pq.Encode(data.Row(i)))
	}
	// A few query-time ADC tables: the distances themselves, which a
	// rounding change moves even where no argmin flips.
	for i := 0; i < 16; i++ {
		b.floats(pq.ADCTable(data.Row(i)))
	}

	fs, err := NewFastScan(data, quant.Config4(quant.PQConfig{M: 4, Iters: 8, Seed: 74}))
	if err != nil {
		t.Fatal(err)
	}
	b.quantizer(fs.pq)
	// The codes in id order: the blocks an index stored in id order holds,
	// whatever cluster layout this one has.
	nib, byID := make([]byte, fs.pq.M), make([]byte, fs.n*fs.pq.M)
	for pos := 0; pos < fs.n; pos++ {
		fs.rowNibbles(pos, nib)
		copy(byID[int(fs.id(pos))*fs.pq.M:], nib)
	}
	b.h.Write(interleave4(byID, fs.pq.M, fs.n))
	for i := 0; i < 16; i++ {
		b.floats(fs.pq.ADCTable(data.Row(i)))
	}

	pqCfg := quant.PQConfig{M: 8, Ks: 64, Iters: 6, Seed: 75}
	ivf, err := NewIVF(data, IVFConfig{NList: 53, NProbe: 4, PQ: &pqCfg, Iters: 8, Seed: 76, TrainSample: 1500})
	if err != nil {
		t.Fatal(err)
	}
	b.floats(ivf.coarse.Data)
	b.quantizer(ivf.pq)
	for li, ids := range ivf.lists {
		b.ints([]int{len(ids)})
		for _, id := range ids {
			b.ints([]int{int(id)})
		}
		b.h.Write(ivf.codes[li])
	}

	if got := hex.EncodeToString(b.h.Sum(nil)); got != buildBitsHash {
		t.Fatalf("index build bits hash %s, want %s", got, buildBitsHash)
	}

	// The fast-scan cluster layout, a step of its own: its ids, bounds and
	// masks at the 3 × 3 clusters the hash was first computed for (this
	// many rows now derive 5 × 5).
	if fs.clusters() != 25 {
		t.Fatalf("fast-scan build over %d rows has %d clusters, want 5 × 5", fs.n, fs.clusters())
	}
	fs, err = newFastScan(data, quant.Config4(quant.PQConfig{M: 4, Iters: 8, Seed: 74}), 3)
	if err != nil {
		t.Fatal(err)
	}
	layout := bitsHash{sha256.New()}
	for _, id := range fs.ids {
		layout.ints([]int{int(id)})
	}
	layout.ints(fs.bounds)
	// The masks as 16-bit sets in the order they were first hashed in:
	// groups of eight clusters, sub-quantizer by sub-quantizer, the last
	// group padded with empty sets.
	for g := 0; g < (fs.clusters()+7)/8; g++ {
		for p := range fs.pq.M {
			for c := 8 * g; c < 8*g+8; c++ {
				var set uint16
				if c < fs.clusters() {
					set = fs.mask(c, p)
				}
				layout.ints([]int{int(set)})
			}
		}
	}
	if got := hex.EncodeToString(layout.h.Sum(nil)); got != clusterLayoutHash {
		t.Fatalf("fast-scan cluster layout hash %s, want %s", got, clusterLayoutHash)
	}
}

// mask returns cluster c's code set at sub-quantizer p: bit v set when
// some row of c takes code v.
func (ix *FastScan) mask(c, p int) uint16 {
	i := fsMaskIndex(c, p, ix.pq.M)
	return uint16(ix.masks[i]) | uint16(ix.masks[i+fsBlock])<<8
}
