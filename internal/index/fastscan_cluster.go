package index

import (
	"math"
	"math/bits"
	"sort"

	"emblookup/internal/mathx"
	"emblookup/internal/quant"
)

// This file is the fast-scan cluster layout (DESIGN.md §11 "Exact cluster
// pruning"): how NewFastScan groups rows into clusters, and how a query
// bounds each cluster from below and orders them.

// fsClusterSeed seeds both levels of the clustering: the layout is a pure
// function of the vectors.
const fsClusterSeed = 0x5eed

// fsMinClusterRows is the least number of rows a cluster should average:
// below it the per-cluster work (a bound, a heap pop, the partial blocks at
// its ends) outweighs the blocks a skipped cluster saves.
const fsMinClusterRows = 256

// fsClusterLevel derives the per-level fan-out of the two-level clustering
// from the row count: level = round(√(0.8·√n)), so level² clusters of about
// 1.25·√n rows each (16 × 16 at 100 000 rows), lowered until clusters
// average fsMinClusterRows, and 1 — no clustering — below 1 024 rows. The
// measurement behind it is in DESIGN.md §11: at 100 000 rows the scan's
// µs per query is flat within 7 % from 12 × 12 to 24 × 24 with its least
// at 16 × 16, where the per-cluster costs (bounds, heap, kernel entries)
// stay small beside scanning the visited rows.
func fsClusterLevel(n int) int {
	level := int(math.Round(math.Sqrt(math.Sqrt(float64(n)) * 4 / 5)))
	for level > 1 && n/(level*level) < fsMinClusterRows {
		level--
	}
	return max(level, 1)
}

// clusterRows groups data's rows by a two-level k-means — level centroids
// over all rows, then level centroids inside each of those — and returns
// the positions' row ids, cluster by cluster and ascending inside each,
// with the clusters' position bounds (empty clusters dropped). Both levels
// train six Lloyd iterations on an evenly strided sample (128 rows a
// centroid at the top, 32 inside) and assign every row exactly; the result
// is bit-identical at every worker count (quant.KMeansConfig). At 100 000
// rows it costs ≈ 50 ms on two cores: 10 iterations on twice the samples
// cost ≈ 80 ms for 1 % fewer rows scanned (DESIGN.md §11).
func clusterRows(data *mathx.Matrix, level, workers int) (ids []int32, bounds []int) {
	n := data.Rows
	cfg := quant.KMeansConfig{K: level, MaxIters: 6, Seed: fsClusterSeed, Workers: workers, TrainSample: level * 128}
	_, top := quant.KMeans(data, cfg)
	byTop := countingSort(top, level)
	cluster := make([]int, n)
	sub := mathx.NewMatrix(0, data.Cols)
	for c, lo := 0, 0; c < level; c++ {
		hi := lo
		for hi < n && top[byTop[hi]] == c {
			hi++
		}
		rows := byTop[lo:hi]
		sub.Rows, sub.Data = len(rows), mathx.Resize(sub.Data, len(rows)*data.Cols)
		for j, i := range rows {
			copy(sub.Row(j), data.Row(int(i)))
		}
		cfg.Seed, cfg.TrainSample = fsClusterSeed+1+uint64(c), level*32
		_, assign := quant.KMeans(sub, cfg)
		for j, i := range rows {
			cluster[i] = c*level + assign[j]
		}
		lo = hi
	}
	ids = countingSort(cluster, level*level)
	bounds = []int{0}
	for pos := range n {
		if pos+1 == n || cluster[ids[pos+1]] != cluster[ids[pos]] {
			bounds = append(bounds, pos+1)
		}
	}
	return ids, bounds
}

// countingSort returns the rows 0..len(keys)-1 ordered by key (each in
// [0, nkeys)), ascending row inside a key.
func countingSort(keys []int, nkeys int) []int32 {
	start := make([]int, nkeys+1)
	for _, k := range keys {
		start[k+1]++
	}
	for k := range nkeys {
		start[k+1] += start[k]
	}
	out := make([]int32, len(keys))
	for i, k := range keys {
		out[start[k]] = int32(i)
		start[k]++
	}
	return out
}

// clusterSpan returns the clusters [c0, c1) holding positions of [lo, hi).
func (ix *FastScan) clusterSpan(lo, hi int) (c0, c1 int) {
	nc := ix.clusters()
	c0 = sort.Search(nc, func(c int) bool { return ix.bounds[c+1] > lo })
	c1 = sort.Search(nc, func(c int) bool { return ix.bounds[c] >= hi })
	return c0, max(c0, c1)
}

// fsGroup is how many clusters' masks lie side by side per sub-quantizer:
// the eight float lanes of one AVX2 register.
const fsGroup = 8

// fsMaskIndex is where cluster c's mask for sub-quantizer p lies among an
// m-sub-quantizer index's masks: groups of fsGroup clusters, sub-quantizer
// by sub-quantizer, so one 16-byte load is a group's masks for one p.
func fsMaskIndex(c, p, m int) int { return c/fsGroup*m*fsGroup + p*fsGroup + c%fsGroup }

// fsMasksLen is the length of the masks of nc clusters (the last group is
// padded with empty masks, whose bound is +Inf).
func fsMasksLen(nc, m int) int { return (nc + fsGroup - 1) / fsGroup * fsGroup * m }

// The bound of a cluster c is Σ_p min{table[p][v] : v in its mask for p},
// summed in ascending p from 0 — fsRowDist's order. Each term is at most
// the entry a row of c takes at p, and IEEE addition rounds monotonically
// (a ≤ a′ and b ≤ b′ give fl(a+b) ≤ fl(a′+b′)), so the float32 bound is at
// most the float32 distance of every row of c, bit for bit (+Inf for an
// empty mask). The same holds one level up: a super-cluster's masks are the
// union of its eight clusters' masks, so its bound is at most each of
// theirs. The minimum over a mask is read from four nibble-subset tables
// per sub-quantizer (fsNibMins, m × 4 × 16 floats): entry b of table j holds
// the least of table[p][4j+i] over the bits i of b. The AVX2 kernels
// compute exactly these minima and sums.

// fsNibMinsGo writes the nibble-subset tables of table into nib.
func fsNibMinsGo(table []float32, m int, nib []float32) {
	inf := float32(math.Inf(1))
	for q := range m * 4 {
		row, nt := table[q*4:q*4+4], nib[q*16:q*16+16]
		nt[0] = inf
		for b := 1; b < 16; b++ {
			nt[b] = nt[b&(b-1)]
			if v := row[bits.TrailingZeros(uint(b))]; v < nt[b] {
				nt[b] = v
			}
		}
	}
}

// fsGroupBoundsGo writes the bounds of the len(out)/fsGroup groups of
// clusters whose masks are masks into out.
func fsGroupBoundsGo(masks []uint16, nib []float32, m int, out []float32) {
	for g := range len(out) / fsGroup {
		lb := out[g*fsGroup : (g+1)*fsGroup : (g+1)*fsGroup]
		clear(lb)
		for p := range m {
			nt := nib[p*64 : p*64+64 : p*64+64]
			for l, mk := range masks[(g*m+p)*fsGroup : (g*m+p+1)*fsGroup] {
				lb[l] += min(nt[mk&15], nt[16+(mk>>4)&15], nt[32+(mk>>8)&15], nt[48+mk>>12])
			}
		}
	}
}

// visitClusters scans the clusters [c0, c1) of a range clipped to
// [lo, hi) in ascending order of their bounds, and stops at the first
// whose bound exceeds the full heap's k-th best distance: every row of it
// and of every later cluster is at least that far, so none can enter. The
// order comes best-first from two min-heaps of keys — a bound (fsOrd)
// above an index — one of super-clusters, all bounded up front, and one of
// clusters: whichever top is less is taken next; a super-cluster taken is
// opened, its clusters bounded (each at least its super-cluster's bound,
// so the order holds) and those the full heap could still admit pushed.
// The clusters of a super-cluster whose bound exceeds the k-th best are
// never bounded at all.
func (ix *FastScan) visitClusters(sc *fsScan, lo, hi int) {
	s, t, m := sc.s, sc.t, ix.pq.M
	c0, c1 := ix.clusterSpan(lo, hi)
	g0, g1 := c0/fsGroup, (c1+fsGroup-1)/fsGroup
	s0, s1 := g0/fsGroup, (g1+fsGroup-1)/fsGroup
	s.nibMin = mathx.Resize(s.nibMin, m*64)
	s.bounds = mathx.Resize(s.bounds, (s1-s0)*fsGroup)
	fsNibMins(sc.table, m, s.nibMin)
	fsGroupBounds(ix.supers[s0*m*fsGroup:s1*m*fsGroup], s.nibMin, m, s.bounds)
	supers, clusters := s.order[:0], s.keys[:0]
	for g := g0; g < g1; g++ {
		supers = append(supers, uint64(fsOrd(s.bounds[g-s0*fsGroup]))<<32|uint64(g))
	}
	for i := len(supers)/2 - 1; i >= 0; i-- {
		fsSiftDown(supers, i)
	}
	var cb [fsGroup]float32
	for len(supers) > 0 || len(clusters) > 0 {
		fromSupers := len(supers) > 0 && (len(clusters) == 0 || supers[0] < clusters[0])
		h := &clusters
		if fromSupers {
			h = &supers
		}
		key := (*h)[0]
		if len(t.heap) == t.k && fsKeyBound(key) > t.heap[0].Dist {
			break
		}
		*h = fsPop(*h)
		if !fromSupers {
			c := int(uint32(key))
			sc.scan(max(lo, ix.bounds[c]), min(hi, ix.bounds[c+1]))
			continue
		}
		g := int(uint32(key))
		fsGroupBounds(ix.masks[g*m*fsGroup:(g+1)*m*fsGroup], s.nibMin, m, cb[:])
		for c := max(c0, g*fsGroup); c < min(c1, (g+1)*fsGroup); c++ {
			if len(t.heap) == t.k && cb[c-g*fsGroup] > t.heap[0].Dist {
				continue
			}
			clusters = append(clusters, uint64(fsOrd(cb[c-g*fsGroup]))<<32|uint64(c))
			fsSiftUp(clusters, len(clusters)-1)
		}
	}
	s.order, s.keys = supers, clusters
}

// fsOrd maps a float32 to a key whose unsigned order is the float's
// numeric order: its bits with the sign flipped, all of them for a
// negative. fsKeyBound inverts it for a key's bound.
func fsOrd(f float32) uint32 {
	b := math.Float32bits(f)
	return b ^ (uint32(int32(b)>>31) | 1<<31)
}

func fsKeyBound(key uint64) float32 {
	k := uint32(key >> 32)
	return math.Float32frombits(k ^ (^uint32(int32(k)>>31) | 1<<31))
}

// fsSiftDown restores the min-heap order of h below position i.
func fsSiftDown(h []uint64, i int) {
	for {
		l := 2*i + 1
		if l >= len(h) {
			return
		}
		if r := l + 1; r < len(h) && h[r] < h[l] {
			l = r
		}
		if h[i] <= h[l] {
			return
		}
		h[i], h[l] = h[l], h[i]
		i = l
	}
}

// fsPop removes the least key of the min-heap h.
func fsPop(h []uint64) []uint64 {
	last := len(h) - 1
	h[0] = h[last]
	h = h[:last]
	fsSiftDown(h, 0)
	return h
}

// fsSiftUp restores the min-heap order of h above position i.
func fsSiftUp(h []uint64, i int) {
	for i > 0 {
		parent := (i - 1) / 2
		if h[parent] <= h[i] {
			return
		}
		h[parent], h[i] = h[i], h[parent]
		i = parent
	}
}
