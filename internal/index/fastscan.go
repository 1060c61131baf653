package index

import (
	"context"
	"fmt"
	"math/bits"
	"slices"

	"emblookup/internal/mathx"
	"emblookup/internal/obs"
	"emblookup/internal/par"
	"emblookup/internal/quant"
)

// FastScan is the 4-bit fast-scan PQ index (DESIGN.md §11): the same
// asymmetric-distance scan as PQ, restructured — FAISS's PQFastScan layout —
// so the inner loop is a byte shuffle over register-resident integer tables
// instead of a float32 walk of an 8 KB LUT. Four pieces cooperate:
//
//   - 4-bit sub-quantizers (quant.Config4): twice the sub-quantizers at 16
//     centroids each, so a row still costs M4/2 bytes — two nibble codes
//     per byte — while each distance table row shrinks to 16 entries, the
//     width of one PSHUFB;
//   - a block-interleaved code layout: codes for fsBlock (32) rows are
//     transposed sub-quantizer-pair-major per block, so one 32-byte load is
//     one pair's codes for 32 consecutive rows;
//   - rows stored cluster by cluster (DESIGN.md §11 "Exact cluster
//     pruning"): a query bounds every cluster from below in one integer
//     pass over per-cluster code masks (the portable build over half the
//     sub-quantizers, finishing a bound when its cluster comes up), visits
//     the clusters least bound first through a bucket queue, and stops
//     where the next bound exceeds the limit its k-th best distance sets;
//   - per-query uint8 quantization of the distance table
//     (quant.QuantizeTableInto): distances accumulate as integers, the
//     early-abandon check is an integer compare, and the few surviving
//     candidates are re-ranked with the exact float32 table.
//
// One kernel per platform scans a cluster: the AVX2 assembly (fsScanRun)
// where the CPU has it, saturating bytes over a table scaled to the k-th
// best distance; the portable kernel (scanPortable) elsewhere, 16-bit sums
// over a full-spread table. Floor, clamp, saturation and the cluster bound
// all round down, so every prune can only over-admit; the exact re-rank
// then selects under the canonical (Dist, ID) order, so results are
// bit-identical to a plain float32 ADC scan of the same 4-bit codes in id
// order (fuzz- and property-tested, including adversarial all-ties tables).
type FastScan struct {
	pq     *quant.ProductQuantizer // 4-bit: Ks == 16, even M
	blocks []byte                  // ceil(n/32) blocks × (M/2)×32 bytes, pair-major, by position
	n      int

	// The cluster layout. nil bounds is one cluster holding every row in id
	// order (ids and masks nil too): every artifact written before the
	// layout existed, and every index too small to cluster. Otherwise rows
	// are stored cluster by cluster: cluster c holds positions
	// [bounds[c], bounds[c+1]), ids[pos] is the row id stored at pos, and
	// bit v%8 of masks[fsMaskIndex(c, p, M)+v/8·fsBlock] is set when some
	// row of c takes code v at sub-quantizer p. Each appendRows (a
	// Dynamic's compaction) stores its rows as one more cluster at the end.
	ids    []int32
	bounds []int
	masks  []byte
}

// fsBlock is the number of rows one interleaved block covers. 32 rows ×
// one byte per sub-quantizer pair keeps a block's strip for one pair in
// half a cache line and the whole block (at M4=16) in 256 bytes.
const fsBlock = 32

// fsBlockBytes returns the byte size of one interleaved block for an
// m4-sub-quantizer code.
func fsBlockBytes(m4 int) int { return m4 / 2 * fsBlock }

// fsBlocksLen returns the total byte size of the interleaved code array
// for n rows (the last block is padded with zero nibbles).
func fsBlocksLen(m4, n int) int {
	return (n + fsBlock - 1) / fsBlock * fsBlockBytes(m4)
}

// validate4 rejects quantizers the fast-scan layout cannot serve: the
// kernel's LUT stride and nibble packing hard-code Ks4 centroids, pairs of
// sub-quantizers share a byte, and the prune's slack is derived up to MaxM4.
func validate4(q *quant.ProductQuantizer) error {
	if q.Ks != quant.Ks4 {
		return fmt.Errorf("index: fast-scan needs Ks=%d sub-quantizers, got Ks=%d", quant.Ks4, q.Ks)
	}
	if q.M%2 != 0 {
		return fmt.Errorf("index: fast-scan needs an even sub-quantizer count, got M=%d", q.M)
	}
	if q.M > quant.MaxM4 {
		return fmt.Errorf("index: fast-scan M=%d exceeds %d", q.M, quant.MaxM4)
	}
	return nil
}

// NewFastScan trains a 4-bit product quantizer on data (use
// quant.Config4 to derive the configuration from an 8-bit one), clusters
// the rows (fsClusterLevel, clusterRows) and encodes every row into the
// block-interleaved layout, cluster by cluster — or in id order, when the
// rows are too few to cluster or the clusters would not prune (prunes).
// Training, clustering and encoding fan across cfg.Workers; the index is
// byte-identical at any worker count.
func NewFastScan(data *mathx.Matrix, cfg quant.PQConfig) (*FastScan, error) {
	ix, err := newFastScan(data, cfg, fsClusterLevel(data.Rows))
	if err == nil && ix.bounds != nil && !ix.prunes(data) {
		ix.toIDOrder()
	}
	return ix, err
}

// newFastScan is NewFastScan with the clustering's fan-out named: level²
// clusters, or one cluster in id order for level ≤ 1.
func newFastScan(data *mathx.Matrix, cfg quant.PQConfig, level int) (*FastScan, error) {
	if cfg.Ks != quant.Ks4 {
		return nil, fmt.Errorf("index: fast-scan config needs Ks=%d, got %d (derive it with quant.Config4)", quant.Ks4, cfg.Ks)
	}
	q, err := quant.TrainPQ(data, cfg)
	if err != nil {
		return nil, err
	}
	if err := validate4(q); err != nil {
		return nil, err
	}
	ix := &FastScan{pq: q, n: data.Rows, blocks: make([]byte, fsBlocksLen(q.M, data.Rows))}
	if level > 1 {
		ix.ids, ix.bounds = clusterRows(data, level, cfg.Workers)
	}
	nibbles := make([][]byte, par.Workers(data.Rows, cfg.Workers))
	par.ForEachWorker(data.Rows, cfg.Workers, func(w, pos int) {
		nib := nibbles[w]
		if nib == nil {
			nib = make([]byte, q.M)
			nibbles[w] = nib
		}
		q.EncodeInto(data.Row(int(ix.id(pos))), nib)
		ix.setRow(pos, nib)
	})
	ix.computeMasks()
	return ix, nil
}

// fsProbes is how many stored rows prunes scans the clustered index with.
const fsProbes = 16

// prunes reports whether the cluster layout pays for itself on data: scans
// of fsProbes evenly strided stored rows at k = 10 (the served default)
// visit at most half the rows on average. Rows that cluster, as label
// embeddings do, visit a small share; rows with no cluster structure
// (independent Gaussian coordinates) visit nearly all, and over those the
// layout only adds the per-cluster costs to a full scan (DESIGN.md §11).
func (ix *FastScan) prunes(data *mathx.Matrix) bool {
	s := &Scratch{}
	var rows int64
	for i := range fsProbes {
		sc := fsScan{ix: ix, s: s, t: newTopK(10), table: ix.prepare(data.Row(i*data.Rows/fsProbes), s)}
		ix.visitClusters(&sc, 0, ix.n)
		rows += sc.c.Rows
	}
	return 2*rows <= int64(fsProbes*ix.n)
}

// toIDOrder stores the rows in id order, as one cluster.
func (ix *FastScan) toIDOrder() {
	byID := &FastScan{pq: ix.pq, blocks: make([]byte, len(ix.blocks)), n: ix.n}
	nib := make([]byte, ix.pq.M)
	for pos, id := range ix.ids {
		ix.rowNibbles(pos, nib)
		byID.setRow(int(id), nib)
	}
	*ix = *byID
}

// id returns the row id stored at position pos.
func (ix *FastScan) id(pos int) int32 {
	if ix.ids == nil {
		return int32(pos)
	}
	return ix.ids[pos]
}

// clusters returns the number of clusters (1 for the id-order layout).
func (ix *FastScan) clusters() int {
	if ix.bounds == nil {
		return 1
	}
	return len(ix.bounds) - 1
}

// computeMasks derives every cluster's code masks from the stored codes.
func (ix *FastScan) computeMasks() {
	ix.masks = nil
	if ix.bounds == nil {
		return
	}
	ix.growMasks()
	nib := make([]byte, ix.pq.M)
	for c := range ix.clusters() {
		for pos := ix.bounds[c]; pos < ix.bounds[c+1]; pos++ {
			ix.rowNibbles(pos, nib)
			ix.addMasks(c, nib)
		}
	}
}

// growMasks replaces the masks with fresh copies sized for every cluster,
// the clusters past the old size with empty masks.
func (ix *FastScan) growMasks() {
	ix.masks = grow(ix.masks, fsMasksLen(ix.clusters(), ix.pq.M)-len(ix.masks))
}

// addMasks adds one row of cluster c, its nibble codes nib, to c's masks.
func (ix *FastScan) addMasks(c int, nib []byte) {
	mk := ix.masks[fsMaskIndex(c, 0, ix.pq.M):]
	for p, v := range nib {
		mk[(2*p+int(v>>3))*fsBlock] |= 1 << (v & 7)
	}
}

// setRow scatters one row's nibble codes into its block (two codes per
// byte, pair-major strips of fsBlock bytes).
func (ix *FastScan) setRow(pos int, nib []byte) {
	np := ix.pq.M / 2
	blk := ix.blocks[pos/fsBlock*fsBlockBytes(ix.pq.M):]
	r := pos % fsBlock
	for p := 0; p < np; p++ {
		blk[p*fsBlock+r] = nib[2*p]&0xf | nib[2*p+1]<<4
	}
}

// rowNibbles gathers the nibble codes stored at position pos back out of
// the interleaved layout into nib (length M).
func (ix *FastScan) rowNibbles(pos int, nib []byte) {
	np := ix.pq.M / 2
	blk := ix.blocks[pos/fsBlock*fsBlockBytes(ix.pq.M):]
	r := pos % fsBlock
	for p := 0; p < np; p++ {
		b := blk[p*fsBlock+r]
		nib[2*p] = b & 0xf
		nib[2*p+1] = b >> 4
	}
}

// Len returns the number of stored codes.
func (ix *FastScan) Len() int { return ix.n }

// Dim returns the original vector dimensionality.
func (ix *FastScan) Dim() int { return ix.pq.D }

// SizeBytes returns the interleaved code storage cost (including the zero
// padding of the final partial block).
func (ix *FastScan) SizeBytes() int { return len(ix.blocks) }

// Quantizer exposes the trained 4-bit product quantizer.
func (ix *FastScan) Quantizer() *quant.ProductQuantizer { return ix.pq }

// Search implements Index: the float ADC table for q is built once and the
// clusters that can hold a winner are scanned.
func (ix *FastScan) Search(ctx context.Context, s *Scratch, q []float32, k int, dst []Result) ([]Result, error) {
	return scanSolo(ctx, ix, nil, 0, s, q, k, dst)
}

// SearchWith implements ScratchSearcher.
func (ix *FastScan) SearchWith(s *Scratch, q []float32, k int) []Result {
	return searchWith(ix, s, q, k)
}

// prepare implements rangeScanner: the shared per-query state is the exact
// float32 ADC table (M4 rows of 16 entries — at M4=16 a single kilobyte),
// built in s; each range scan derives its bounds and integer tables from it.
func (ix *FastScan) prepare(q []float32, s *Scratch) []float32 { return adcTable(ix.pq, q, s) }

// FastScanKernel names the kernel fast-scan scans run on in this process:
// "avx2" (the assembly kernel) or "portable" (the 16-bit Go kernel: a
// purego build, another architecture, or a CPU without AVX2). Operators
// read it from /stats to tell a slow node from a slow build.
func FastScanKernel() string {
	if fsAVX2 {
		return "avx2"
	}
	return "portable"
}

// FastScanKernelOf is FastScanKernel() for an index whose scans run a
// fast-scan kernel — a *FastScan, bare or sharded — and "" for any other:
// an 8-bit PQ, IVF or Flat index runs neither kernel, whatever the CPU has.
func FastScanKernelOf(ix Index) string {
	if sh, ok := ix.(*Sharded); ok {
		ix = sh.Inner()
	}
	if _, ok := ix.(*FastScan); !ok {
		return ""
	}
	return FastScanKernel()
}

// scanRange implements rangeScanner: one query's pruned scan of positions
// [lo, hi). The clusters meeting the range are visited least bound first
// (visitClusters), each clipped to the range and scanned by this
// platform's kernel with one table carried across them, until the heap is
// full and no bound left is within its limit (DESIGN.md §11).
func (ix *FastScan) scanRange(table []float32, s *Scratch, t *topK, lo, hi int) {
	sc := fsScan{ix: ix, s: s, t: t, table: table}
	sc.c.Scans = 1
	if ix.clusters() == 1 {
		sc.c.Clusters = 1
		sc.scan(lo, hi)
	} else {
		ix.visitClusters(&sc, lo, hi)
	}
	sc.c.flush()
}

// fsScan is one query's scan of one range, carried across the clusters it
// visits: the heap, the exact table and, once made, its quantizations.
type fsScan struct {
	ix    *FastScan
	s     *Scratch
	t     *topK
	table []float32
	full  fsQuery // once made (spread), the table at its full spread, in s.spread
	q     fsQuery
	ready bool // q holds the kernel's table (and, portable, s.lut16 its fused form)
	// requantize is false once a requantization failed to lift the limit
	// back over fsThreshold/2 (the AVX2 kernel's table only).
	requantize bool
	c          FastScanCounts
}

// spread returns the table quantized to its full spread, quantizing it on
// the first call: the scale of the cluster bounds and of the portable
// kernel.
func (sc *fsScan) spread() *fsQuery {
	if sc.full.lut8 == nil {
		sc.s.spread = resize(sc.s.spread, len(sc.table))
		sc.full = sc.ix.quantize(sc.table, sc.s.spread, 0, 0)
	}
	return &sc.full
}

// scan pushes the rows at positions [lo, hi) that can enter the heap,
// with this platform's kernel.
func (sc *fsScan) scan(lo, hi int) {
	if lo >= hi {
		return
	}
	sc.c.Rows += int64(hi - lo)
	if fsAVX2 {
		sc.scanAVX2(lo, hi)
	} else {
		sc.scanPortable(lo, hi)
	}
}

// fsThreshold is where a threshold-relative table puts the k-th best
// distance: as high as a byte goes while the limit, a slack of 2 above it,
// still prunes (255 admits every saturated sum). A limit that pushes have
// pulled below half of it requantizes the table: the threshold lives in the
// top half of the byte range — a derived invariant, not a tunable — so a scan
// decides with seven bits or more and requantizes at most once per halving.
const fsThreshold = 250

// scanAVX2 scans positions [lo, hi) with the assembly kernel:
//
//   - while the heap lacks rows it is filled exactly, from as many leading
//     rows as it lacks, so there is a k-th best distance to
//     quantize a threshold-relative table against (a range that ends first
//     quantizes nothing); the table, made once, serves every later cluster;
//   - fsScanRun skips whole runs of blocks in which no row's saturated sum
//     reaches the limit, and stops at the first block in which one does,
//     with its row mask and 32 sums;
//   - the candidate pass runs in plain Go: the mask clipped to [lo, hi)
//     (the kernel may flag a padding row or one outside the range), each
//     row re-checked against a limit an earlier row of the block just
//     tightened, then the exact float32 re-rank and the heap push under the
//     row's id — and the kernel re-enters after the block;
//   - after each flagged block, a limit fallen below fsThreshold/2
//     requantizes the table in place, until a requantization fails to lift
//     it (the scale is at what float32 resolves, or the full-spread one; a
//     smaller w cures neither).
//
// A run is at most fsMaxRun blocks: assembly cannot be preempted, so a GC
// stop would otherwise wait out a whole range that admits no row.
func (sc *fsScan) scanAVX2(lo, hi int) {
	ix, s, t := sc.ix, sc.s, sc.t
	if need := t.k - len(t.heap); need > 0 {
		seeded := min(hi-lo, need)
		ix.scanPlain4(sc.table, t, lo, lo+seeded)
		sc.c.Candidates += int64(seeded)
		if lo += seeded; lo >= hi {
			return
		}
	}
	if !sc.ready {
		s.lut8 = resize(s.lut8, len(sc.table))
		sc.q = ix.quantize(sc.table, s.lut8, t.worst(), fsThreshold)
		sc.ready, sc.requantize = true, true
	}
	q := &sc.q
	limit := q.limit(t)
	np := ix.pq.M / 2
	bpb := fsBlockBytes(ix.pq.M)
	var qd [fsBlock]uint8
	for b, end := lo/fsBlock, (hi+fsBlock-1)/fsBlock; b < end; {
		run := min(end-b, fsMaxRun)
		skipped, mask := fsScanRun(ix.blocks[b*bpb:(b+run)*bpb], q.lut8, np, run, limit, &qd)
		b += skipped
		if skipped == run {
			continue // nothing admitted in this run
		}
		blk := ix.blocks[b*bpb:][:bpb:bpb]
		b0 := b * fsBlock
		sc.c.FlaggedBlocks++
		if r := lo - b0; r > 0 {
			mask &= ^uint32(0) << r
		}
		if r := hi - b0; r < fsBlock {
			mask &= 1<<r - 1
		}
		for ; mask != 0; mask &= mask - 1 {
			r := bits.TrailingZeros32(mask)
			if uint32(qd[r]) > limit {
				continue
			}
			sc.c.Candidates++
			t.push(ix.id(b0+r), fsRowDist(q.table, blk, np, r))
			limit = q.limit(t)
		}
		if sc.requantize && limit < fsThreshold/2 {
			*q = ix.quantize(q.table, q.lut8, t.worst(), fsThreshold)
			limit = q.limit(t)
			sc.requantize = limit >= fsThreshold/2
			sc.c.Requantizations++
		}
		b++
	}
}

// FastScanCounts is the prune accounting of the fast-scan scans this process
// has run, as /stats and /metrics (emblookup_fastscan_*_total) show it:
// (query, row range) scans that reached a kernel, the rows of the clusters
// they visited, those clusters (one a scan of an index in id order), the
// blocks in which the integer prune admitted a row, the rows re-ranked with
// the float table (heap seed included) and the tables rescaled mid-scan.
// The counts are a pure function of index, queries, k and ranges: a slack,
// scale or bound regression moves them, a noisy host does not.
type FastScanCounts struct {
	Scans           int64 `json:"scans"`
	Rows            int64 `json:"rows"`
	Clusters        int64 `json:"clusters"`
	FlaggedBlocks   int64 `json:"flaggedBlocks"`
	Candidates      int64 `json:"candidates"`
	Requantizations int64 `json:"requantizations"`
}

// A scan accumulates in a FastScanCounts of its own and flushes once.
var fsCounters = [...]*obs.Counter{
	obs.Default().Counter("emblookup_fastscan_scans_total"),
	obs.Default().Counter("emblookup_fastscan_rows_total"),
	obs.Default().Counter("emblookup_fastscan_clusters_total"),
	obs.Default().Counter("emblookup_fastscan_flagged_blocks_total"),
	obs.Default().Counter("emblookup_fastscan_candidates_total"),
	obs.Default().Counter("emblookup_fastscan_requantizations_total"),
}

// ReadFastScanCounts returns the current totals.
func ReadFastScanCounts() FastScanCounts {
	v := func(i int) int64 { return fsCounters[i].Value() }
	return FastScanCounts{v(0), v(1), v(2), v(3), v(4), v(5)}
}

func (c FastScanCounts) flush() {
	for i, n := range [...]int64{c.Scans, c.Rows, c.Clusters, c.FlaggedBlocks, c.Candidates, c.Requantizations} {
		fsCounters[i].Add(n)
	}
}

// fsMaxRun is the most blocks one call of the assembly kernel walks: 128k
// rows, 70-85 µs at M4 = 16, for one extra call per MiB of those codes.
const fsMaxRun = 4096

// scanPortable is the portable kernel over positions [lo, hi). The fused
// pair LUT is the scalar stand-in for the shuffle: entry b of pair p holds
// lut8[2p][b&15] + lut8[2p+1][b>>4], so one byte load, one uint16 load and
// one add advance a row by two sub-quantizers. A row's sum is at most
// MaxM4·255 = 65535 and never wraps, so the prune admits exactly the rows
// whose integer sum reaches the limit. The table is quantized to its full
// spread once per scan (no heap to scale it to yet; the cluster bounds'
// table), so it is never requantized.
func (sc *fsScan) scanPortable(lo, hi int) {
	ix, s, t := sc.ix, sc.s, sc.t
	np := ix.pq.M / 2
	if !sc.ready {
		sc.q = *sc.spread()
		s.lut16 = resize(s.lut16, np*256)
		fsFuse(s.lut16, sc.q.lut8, np)
		sc.ready = true
	}
	q, fused := &sc.q, s.lut16
	limit := q.limit(t)
	bpb := fsBlockBytes(ix.pq.M)
	var qd [fsBlock]uint16
	for b0 := lo / fsBlock * fsBlock; b0 < hi; b0 += fsBlock {
		blk := ix.blocks[b0/fsBlock*bpb:][:bpb:bpb]
		fsAccumulate(&qd, fused, blk, np)
		flagged := false
		for r, rhi := max(lo-b0, 0), min(hi-b0, fsBlock); r < rhi; r++ {
			if uint32(qd[r]) > limit {
				continue
			}
			t.push(ix.id(b0+r), fsRowDist(q.table, blk, np, r))
			limit = q.limit(t)
			sc.c.Candidates++
			flagged = true
		}
		if flagged {
			sc.c.FlaggedBlocks++
		}
	}
}

// fsQuery is one query prepared for the quantized kernels: the exact
// float32 ADC table survivors are re-ranked against, its uint8
// quantization, and the scale that maps a float bound to an integer one.
type fsQuery struct {
	table          []float32
	lut8           []uint8
	bias, invDelta float32
	slack          uint32
}

// quantize prepares table for a quantized scan, writing its uint8 form
// into lut8 (M4 × Ks4): scaled so that distance w sums to steps, or to the
// table's full spread with steps = 0 (quant.QuantizeTableInto).
func (ix *FastScan) quantize(table []float32, lut8 []uint8, w, steps float32) fsQuery {
	bias, delta, mag := ix.pq.QuantizeTableInto(table, lut8, w, steps)
	return newFSQuery(table, lut8, bias, delta, mag)
}

// newFSQuery is the one constructor of an fsQuery: lut8 must hold floors of
// (table − per-sub-quantizer minimum)/delta, clamped at 255 or not, bias the
// sum of those minima, and mag a bound on Σ|entry| of any row the scan may
// not lose. It derives the slack of fsLimit — see there.
func newFSQuery(table []float32, lut8 []uint8, bias, delta, mag float32) fsQuery {
	e := 3 * float32(len(table)/quant.Ks4) / (1 << 24) * mag / delta
	return fsQuery{table: table, lut8: lut8, bias: bias, invDelta: 1 / delta, slack: 2 + uint32(min(e, 1<<30))}
}

// limit is fsLimit against t's current k-th best distance.
func (q *fsQuery) limit(t *topK) uint32 {
	return fsLimit(t.worst(), q.bias, q.invDelta, q.slack)
}

// fsFuse writes the fused pair LUTs into fused (M4/2 × 256 entries): entry
// b of pair p is lut8[2p][b&15] + lut8[2p+1][b>>4].
func fsFuse(fused []uint16, lut8 []uint8, np int) {
	for p := 0; p < np; p++ {
		lo8 := lut8[2*p*quant.Ks4:][:quant.Ks4]
		hi8 := lut8[(2*p+1)*quant.Ks4:][:quant.Ks4]
		for h, hv := range hi8 {
			f := fused[p*256+h*quant.Ks4:][:quant.Ks4]
			for l, lv := range lo8 {
				f[l] = uint16(lv) + uint16(hv)
			}
		}
	}
}

// fsAccumulate sums the quantized distances of one block's 32 rows into qd,
// one fused pair LUT swept over one 32-byte code strip at a time. The first
// pair writes instead of adds, so qd needs no per-block reset.
func fsAccumulate(qd *[fsBlock]uint16, fused []uint16, blk []byte, np int) {
	f := fused[:256]
	cb := blk[:fsBlock:fsBlock]
	for r := 0; r < fsBlock; r += 4 {
		qd[r] = f[cb[r]]
		qd[r+1] = f[cb[r+1]]
		qd[r+2] = f[cb[r+2]]
		qd[r+3] = f[cb[r+3]]
	}
	for p := 1; p < np; p++ {
		f := fused[p*256 : p*256+256]
		cb := blk[p*fsBlock : p*fsBlock+fsBlock : p*fsBlock+fsBlock]
		for r := 0; r < fsBlock; r += 4 {
			qd[r] += f[cb[r]]
			qd[r+1] += f[cb[r+1]]
			qd[r+2] += f[cb[r+2]]
			qd[r+3] += f[cb[r+3]]
		}
	}
}

// fsLimit converts the current k-th best float distance into the quantized
// early-abandon threshold: rows whose integer sum exceeds it have a float
// lower bound strictly above w and can never enter the heap — including
// exact ties, which may still enter on the canonical ID tie-break — so the
// prune can only over-admit (a few extra exact re-ranks).
//
// The slack covers float32 rounding only: floors, clamps and saturation are
// already on the safe side (bias + δ·Σ lut8 ≤ Σ table in exact arithmetic).
// In steps of δ = 1/invDelta, a row the float scan keeps (float32 sum D ≤ w):
//
//	Σ lut8  ≤  (D − bias)/δ + E + ε  ≤  v + E + ε  <  ⌊v⌋ + 1 + E + ε
//
// ε < 2⁻⁶: one rounding in each of the M4 ≤ MaxM4 products (t − min)·invDelta,
// each below 256, and those of v = (w − bias)·invDelta below 65 000.
// E ≤ 2·M4·2⁻²⁴·mag/δ: the float32 sums D and bias, M4 additions each of
// entries whose magnitudes sum to at most mag. Σ lut8 is an integer, so
// 1 + ⌊1.5·E⌋ above ⌊v⌋ would do; newFSQuery spares one, 2 + ⌊3·M4·2⁻²⁴·mag/δ⌋:
// 2 under a threshold-relative table (its δ ≥ 4·M4·2⁻²⁴·w, so E ≤ ½) and any
// ordinary full-spread one, more only when distances dwarf their scale.
func fsLimit(w, bias, invDelta float32, slack uint32) uint32 {
	v := (w - bias) * invDelta
	if !(v < 65000) { // catches +Inf, NaN and the underfull-heap sentinel
		return 1<<32 - 1
	}
	if v < 0 {
		return slack
	}
	return uint32(v) + slack
}

// fsRowDist computes row r's exact float32 ADC distance from its block
// strip, summing sub-quantizers in ascending order — the identical
// association order scanPlain4 uses, so re-ranked distances are
// bit-identical to the reference scan's.
func fsRowDist(table []float32, blk []byte, np, r int) float32 {
	var d float32
	for p := 0; p < np; p++ {
		b := blk[p*fsBlock+r]
		d += table[2*p*quant.Ks4+int(b&0xf)]
		d += table[(2*p+1)*quant.Ks4+int(b>>4)]
	}
	return d
}

// scanPlain4 is the straightforward float32 ADC scan of positions [lo, hi)
// of the 4-bit codes, each pushed under its row id — the ground-truth
// reference every fast-scan kernel is tested against.
func (ix *FastScan) scanPlain4(table []float32, t *topK, lo, hi int) {
	np := ix.pq.M / 2
	bpb := fsBlockBytes(ix.pq.M)
	for pos := lo; pos < hi; pos++ {
		blk := ix.blocks[pos/fsBlock*bpb:]
		t.push(ix.id(pos), fsRowDist(table, blk, np, pos%fsBlock))
	}
}

// appendRows implements appender: each row is encoded with the sealed
// quantizer into the next position under the next row id, in a fresh copy
// of the blocks (the last one may be partial, and the receiver's, possibly
// a read-only mapping, is never written). On a clustered index the rows
// form one more cluster at the end, with masks of its own.
func (ix *FastScan) appendRows(rows []float32) Index {
	d := ix.pq.D
	out := *ix
	out.n = ix.n + len(rows)/d
	out.blocks = grow(ix.blocks, fsBlocksLen(ix.pq.M, out.n)-len(ix.blocks))
	if ix.bounds != nil {
		out.ids = grow(ix.ids, out.n-ix.n)
		out.bounds = append(slices.Clip(ix.bounds), out.n)
		out.growMasks()
	}
	nib := make([]byte, ix.pq.M)
	for pos := ix.n; pos < out.n; pos++ {
		ix.pq.EncodeInto(rows[(pos-ix.n)*d:][:d], nib)
		out.setRow(pos, nib)
		if out.bounds != nil {
			out.ids[pos] = int32(pos)
			out.addMasks(out.clusters()-1, nib)
		}
	}
	return &out
}

// Reconstruct decodes the stored approximation of vector id.
func (ix *FastScan) Reconstruct(id int32) []float32 {
	pos := int(id)
	if ix.ids != nil {
		pos = slices.Index(ix.ids, id)
	}
	nib := make([]byte, ix.pq.M)
	ix.rowNibbles(pos, nib)
	return ix.pq.Decode(nib)
}

// resize is mathx.Resize for the integer LUT buffers.
func resize[T any](buf []T, n int) []T {
	if cap(buf) < n {
		return make([]T, n)
	}
	return buf[:n]
}
