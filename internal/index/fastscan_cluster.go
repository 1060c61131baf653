package index

import (
	"encoding/binary"
	"math"
	"math/bits"
	"slices"
	"sort"

	"emblookup/internal/mathx"
	"emblookup/internal/par"
	"emblookup/internal/quant"
)

// This file is the fast-scan cluster layout (DESIGN.md §11 "Exact cluster
// pruning"): how NewFastScan groups rows into clusters, and how a query
// bounds each cluster from below and orders them.

// fsClusterSeed seeds both levels of the clustering: the layout is a pure
// function of the vectors.
const fsClusterSeed = 0x5eed

// fsMinClusterRows is the least number of rows a cluster should average,
// three blocks: below it the two partial blocks at a cluster's ends are
// most of what a visit scans.
const fsMinClusterRows = 3 * fsBlock

// fsClusterLevel derives the per-level fan-out of the two-level clustering
// from the row count: level = round(√(3.2·√n)), so level² ≈ 3.2·√n
// clusters (32 × 32 at 100 000 rows, about 98 rows each), lowered until
// clusters average fsMinClusterRows, and 1 — no clustering — below 1 024
// rows. Clusters in proportion to √n balance the bound pass, which costs
// in proportion to the clusters, against the scan, which costs the rows of
// the few dozen clusters a query visits: n over the clusters each. The
// measurement behind the factor is in DESIGN.md §11: at 100 000 rows a
// query is within 5 % of its least from 24 × 24 to 32 × 32 and slower past
// 40 × 40, where the bound pass and the partial blocks grow.
func fsClusterLevel(n int) int {
	if n < 1024 {
		return 1
	}
	level := int(math.Round(math.Sqrt(math.Sqrt(float64(n)) * 3.2)))
	for level > 1 && n/(level*level) < fsMinClusterRows {
		level--
	}
	return level
}

// clusterRows groups data's rows by a two-level k-means — level centroids
// over all rows, then level centroids inside each of those — and returns
// the positions' row ids, cluster by cluster and ascending inside each,
// with the clusters' position bounds (empty clusters dropped). Both levels
// train six Lloyd iterations on an evenly strided sample (128 rows a
// centroid at the top, 32 inside) and assign every row exactly; the result
// is bit-identical at every worker count (quant.KMeansConfig). At 100 000
// rows and 32 × 32 clusters it costs ≈ 70 ms on two cores.
func clusterRows(data *mathx.Matrix, level, workers int) (ids []int32, bounds []int) {
	cfg := quant.KMeansConfig{K: level, MaxIters: 6, Seed: fsClusterSeed, Workers: workers, TrainSample: level * 128}
	_, top := quant.KMeans(data, cfg)
	byTop, start := countingSort(top, level)
	cluster := make([]int, data.Rows)
	// The inner clusterings run side by side on one worker each: KMeans
	// gives the same bits at any worker count.
	subs := make([]*mathx.Matrix, par.Workers(level, workers))
	par.ForEachWorker(level, workers, func(w, c int) {
		if subs[w] == nil {
			subs[w] = mathx.NewMatrix(0, data.Cols)
		}
		sub, rows := subs[w], byTop[start[c]:start[c+1]]
		sub.Rows, sub.Data = len(rows), mathx.Resize(sub.Data, len(rows)*data.Cols)
		for j, i := range rows {
			copy(sub.Row(j), data.Row(int(i)))
		}
		inner := quant.KMeansConfig{K: level, MaxIters: 6, Seed: fsClusterSeed + 1 + uint64(c), Workers: 1, TrainSample: level * 32}
		_, assign := quant.KMeans(sub, inner)
		for j, i := range rows {
			cluster[i] = c*level + assign[j]
		}
	})
	ids, start = countingSort(cluster, level*level)
	bounds = []int{0}
	for _, end := range start[1:] {
		if end > bounds[len(bounds)-1] {
			bounds = append(bounds, end)
		}
	}
	return ids, bounds
}

// countingSort returns the rows 0..len(keys)-1 ordered by key (each in
// [0, nkeys)), ascending row inside a key, and where each key's rows start
// in that order (start[nkeys] = len(keys)).
func countingSort(keys []int, nkeys int) (order []int32, start []int) {
	start = make([]int, nkeys+1)
	for _, k := range keys {
		start[k+1]++
	}
	for k := range nkeys {
		start[k+1] += start[k]
	}
	next := slices.Clone(start)
	order = make([]int32, len(keys))
	for i, k := range keys {
		order[next[k]] = int32(i)
		next[k]++
	}
	return order, start
}

// clusterSpan returns the clusters [c0, c1) holding positions of [lo, hi).
func (ix *FastScan) clusterSpan(lo, hi int) (c0, c1 int) {
	nc := ix.clusters()
	c0 = sort.Search(nc, func(c int) bool { return ix.bounds[c+1] > lo })
	c1 = sort.Search(nc, func(c int) bool { return ix.bounds[c] >= hi })
	return c0, max(c0, c1)
}

// A cluster's masks lie beside those of the fsBlock clusters of its group
// as a fast-scan block lies beside its rows: per sub-quantizer p, a strip
// of the masks' low bytes (codes 0-7, two nibbles a byte) and one of their
// high bytes (codes 8-15), byte c%fsBlock of each. One 32-byte load is one
// strip of a group, as for the row kernel.
func fsMaskIndex(c, p, m int) int { return (c/fsBlock*m+p)*2*fsBlock + c%fsBlock }

// fsMasksLen is the byte length of the masks of nc clusters (the last
// group is padded with empty masks).
func fsMasksLen(nc, m int) int { return (nc + fsBlock - 1) / fsBlock * m * 2 * fsBlock }

// The bound of a cluster c is Σ_p min{lut8[p][v] : v in its mask for p}
// over the query's table quantized to its full spread (fsScan.spread),
// summed in 16 bits: an even M4 ≤ MaxM4 keeps it at most 256·255 = 65280,
// so it never wraps and fsVisited is free to mark a visited cluster. Every
// row of c takes some v of each mask, so the bound is at most that row's
// integer sum under the same table, and a cluster whose bound exceeds
// fsLimit(w) holds no row the portable prune would admit — none can enter
// the heap (fsLimit). The minimum over a mask is read from subset tables
// of the query, the least entry over each subset of a run of codes (255
// for the empty one): the AVX2 kernel looks a mask's four nibbles up in
// four 16-entry tables per sub-quantizer, the portable loop its two bytes
// in two 256-entry ones. Both take the same minima, so the bounds are
// bit-equal; the portable pass sums only the first half of the
// sub-quantizers, a lower bound of the bound, and fsBoundRest adds the
// rest for a cluster that comes up within the limit.

// fsBoundTablesLen is the bytes of subset tables fsClusterBounds needs for
// m sub-quantizers: the portable loop's two 256-entry tables each (the
// AVX2 kernel uses the first m·64).
func fsBoundTablesLen(m int) int { return m * 512 }

// fsClusterBoundsGo writes the byte-subset tables of lut8's m
// sub-quantizers into tab and the bounds over the first h of them of the
// len(out)/fsBlock groups of clusters whose masks are masks into out.
func fsClusterBoundsGo(masks []byte, lut8 []uint8, m, h int, tab []uint8, out []uint16) {
	for j := range m * 2 {
		codes, t := (*[8]uint8)(lut8[j*8:]), (*[256]uint8)(tab[j*256:])
		t[0] = 255
		for i, v := range codes { // the subsets holding code i: those without it, and i
			for a, x := range t[:1<<i] {
				t[1<<i+a] = uint8(min(int(x), int(v)))
			}
		}
	}
	// Eight clusters at a time, their masks read eight bytes a load and
	// their sums kept in registers across the sub-quantizers.
	for c := 0; c < len(out); c += 8 {
		group := masks[c/fsBlock*m*2*fsBlock:]
		var s0, s1, s2, s3, s4, s5, s6, s7 int
		for p := range h {
			t := (*[512]uint8)(tab[p*512:])
			strips := (*[2 * fsBlock]byte)(group[p*2*fsBlock:])
			lo := binary.LittleEndian.Uint64(strips[c%fsBlock:])
			hi := binary.LittleEndian.Uint64(strips[fsBlock+c%fsBlock:])
			s0 += min(int(t[byte(lo)]), int(t[256+int(byte(hi))]))
			s1 += min(int(t[byte(lo>>8)]), int(t[256+int(byte(hi>>8))]))
			s2 += min(int(t[byte(lo>>16)]), int(t[256+int(byte(hi>>16))]))
			s3 += min(int(t[byte(lo>>24)]), int(t[256+int(byte(hi>>24))]))
			s4 += min(int(t[byte(lo>>32)]), int(t[256+int(byte(hi>>32))]))
			s5 += min(int(t[byte(lo>>40)]), int(t[256+int(byte(hi>>40))]))
			s6 += min(int(t[byte(lo>>48)]), int(t[256+int(byte(hi>>48))]))
			s7 += min(int(t[byte(lo>>56)]), int(t[256+int(byte(hi>>56))]))
		}
		o := (*[8]uint16)(out[c:])
		o[0], o[1], o[2], o[3] = uint16(s0), uint16(s1), uint16(s2), uint16(s3)
		o[4], o[5], o[6], o[7] = uint16(s4), uint16(s5), uint16(s6), uint16(s7)
	}
}

// fsBoundRest is the bound of cluster c of masks over the sub-quantizers
// [h, m), read from the tables fsClusterBoundsGo wrote into tab.
func fsBoundRest(masks []byte, tab []uint8, m, h, c int) (sum uint16) {
	for p := h; p < m; p++ {
		t, i := (*[512]uint8)(tab[p*512:]), fsMaskIndex(c, p, m)
		sum += uint16(min(t[masks[i]], t[256+int(masks[i+fsBlock])]))
	}
	return sum
}

// fsVisited marks the bound of a cluster scanned or outside the range.
const fsVisited = 0xffff

// fsBucketShift is how far visitClusters shifts a bound for its bucket:
// the least s that puts M4·255, the largest bound, in bucket 255.
func fsBucketShift(m int) int { return max(bits.Len(uint(m*255))-8, 0) }

// visitClusters scans the clusters [c0, c1) of a range clipped to
// [lo, hi), bounded in one pass (fsClusterBounds), and stops where the rest
// cannot hold a winner. One pass puts every cluster into one of 256
// buckets keyed on bound >> fsBucketShift and finds the least bound; that
// cluster seeds the heap. The buckets are then taken in order, each
// cluster skipped whose bound the limit has fallen below, until a bucket's
// floor exceeds the limit: every cluster left is at least that far. While
// the heap still lacks rows its limit admits every bound, so the queue
// goes on seeding without another pass. The portable pass bounds over the
// first h of the sub-quantizers only; a cluster's bound is finished
// (fsBoundRest) when it comes out of its bucket within the limit, and
// moved to a later bucket if the rest puts it there, so a cluster far from
// the query never pays for its second half. The seed and the order inside
// a bucket (the last pushed first) only move the counts, never an answer.
func (ix *FastScan) visitClusters(sc *fsScan, lo, hi int) {
	s, t, m := sc.s, sc.t, ix.pq.M
	c0, c1 := ix.clusterSpan(lo, hi)
	g0, g1 := c0/fsBlock, (c1+fsBlock-1)/fsBlock
	full := sc.spread()
	s.subsets = resize(s.subsets, fsBoundTablesLen(m))
	s.bounds = resize(s.bounds, (g1-g0)*fsBlock)
	s.partial = resize(s.partial, g1-g0)
	s.next = resize(s.next, len(s.bounds))
	bounds, partial, next := s.bounds, s.partial, s.next
	masks := ix.masks[fsMaskIndex(g0*fsBlock, 0, m):fsMaskIndex(g1*fsBlock, 0, m)]
	h := fsClusterBounds(masks, full.lut8, m, s.subsets, bounds)
	for i := range c0 - g0*fsBlock {
		bounds[i] = fsVisited
	}
	for i := c1 - g0*fsBlock; i < len(bounds); i++ {
		bounds[i] = fsVisited
	}
	visit := func(i int) {
		c := g0*fsBlock + i
		bounds[i] = fsVisited
		sc.c.Clusters++
		sc.scan(max(lo, ix.bounds[c]), min(hi, ix.bounds[c+1]))
	}
	// Every cluster goes into its bucket (a visited one into the last,
	// where it is skipped), the least found on the way.
	shift, head := fsBucketShift(m), &s.buckets
	clear(head[:])
	least, lb := 0, bounds[0]
	for i, b := range bounds {
		k := min(b>>shift, 255)
		next[i], head[k] = head[k], int32(i+1)
		if b < lb {
			least, lb = i, b
		}
	}
	// A cluster's bit stays set while its bound is partial (h < m), until
	// fsBoundRest finishes it.
	for g := range partial {
		partial[g] = 1<<32 - 1
	}
	if lb != fsVisited {
		visit(least)
	}
	limit := full.limit(t)
	for k := range head {
		if uint32(k)<<shift > limit {
			break
		}
		for e := head[k]; e != 0; {
			i := int(e - 1)
			e = next[i]
			if b := bounds[i]; b == fsVisited || uint32(b) > limit {
				continue
			}
			if bit := uint32(1) << (i % fsBlock); h < m && partial[i/fsBlock]&bit != 0 {
				partial[i/fsBlock] &^= bit
				bounds[i] += fsBoundRest(masks, s.subsets, m, h, i)
				if uint32(bounds[i]) > limit {
					continue
				}
				if k2 := bounds[i] >> shift; int(k2) > k {
					next[i], head[k2] = head[k2], int32(i+1)
					continue
				}
			}
			visit(i)
			limit = full.limit(t)
		}
	}
}
