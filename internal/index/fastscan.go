package index

import (
	"context"
	"fmt"
	"math/bits"

	"emblookup/internal/mathx"
	"emblookup/internal/obs"
	"emblookup/internal/par"
	"emblookup/internal/quant"
)

// FastScan is the 4-bit fast-scan PQ index (DESIGN.md §11): the same
// asymmetric-distance scan as PQ, restructured — FAISS's PQFastScan layout —
// so the inner loop is a byte shuffle over register-resident integer tables
// instead of a float32 walk of an 8 KB LUT. Three pieces cooperate:
//
//   - 4-bit sub-quantizers (quant.Config4): twice the sub-quantizers at 16
//     centroids each, so a row still costs M4/2 bytes — two nibble codes
//     per byte — while each distance table row shrinks to 16 entries, the
//     width of one PSHUFB;
//   - a block-interleaved code layout: codes for fsBlock (32) rows are
//     transposed sub-quantizer-pair-major per block, so one 32-byte load is
//     one pair's codes for 32 consecutive rows;
//   - per-query uint8 quantization of the distance table
//     (quant.QuantizeTableInto): distances accumulate as integers, the
//     early-abandon check is an integer compare, and the few surviving
//     candidates are re-ranked with the exact float32 table.
//
// One kernel per platform scans it: the AVX2 assembly (fsScanRun) where the
// CPU has it, saturating bytes over a table scaled to the k-th best distance;
// the portable query-major group kernel (scanGroup) elsewhere, 16-bit lanes
// over a full-spread table. Floor, clamp and saturation all round down, so
// the integer prune can only over-admit; the exact re-rank then selects
// under the canonical (Dist, ID) order, so results are bit-identical to a
// plain float32 ADC scan of the same 4-bit codes (fuzz- and
// property-tested, including adversarial all-ties tables).
type FastScan struct {
	pq     *quant.ProductQuantizer // 4-bit: Ks == 16, even M
	blocks []byte                  // ceil(n/32) blocks × (M/2)×32 bytes, pair-major
	n      int
	shared bool // blocks alias memory this index does not own (possibly read-only mmap)
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
// quant.Config4 to derive the configuration from an 8-bit one) and encodes
// every row into the block-interleaved layout. Training and encoding fan
// across cfg.Workers; codes are byte-identical at any worker count.
func NewFastScan(data *mathx.Matrix, cfg quant.PQConfig) (*FastScan, error) {
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
	nibbles := make([][]byte, par.Workers(data.Rows, cfg.Workers))
	par.ForEachWorker(data.Rows, cfg.Workers, func(w, i int) {
		nib := nibbles[w]
		if nib == nil {
			nib = make([]byte, q.M)
			nibbles[w] = nib
		}
		q.EncodeInto(data.Row(i), nib)
		ix.setRow(i, nib)
	})
	return ix, nil
}

// setRow scatters one row's nibble codes into its block (two codes per
// byte, pair-major strips of fsBlock bytes).
func (ix *FastScan) setRow(row int, nib []byte) {
	np := ix.pq.M / 2
	blk := ix.blocks[row/fsBlock*fsBlockBytes(ix.pq.M):]
	r := row % fsBlock
	for p := 0; p < np; p++ {
		blk[p*fsBlock+r] = nib[2*p]&0xf | nib[2*p+1]<<4
	}
}

// rowNibbles gathers one row's nibble codes back out of the interleaved
// layout into nib (length M).
func (ix *FastScan) rowNibbles(row int, nib []byte) {
	np := ix.pq.M / 2
	blk := ix.blocks[row/fsBlock*fsBlockBytes(ix.pq.M):]
	r := row % fsBlock
	for p := 0; p < np; p++ {
		b := blk[p*fsBlock+r]
		nib[2*p] = b & 0xf
		nib[2*p+1] = b >> 4
	}
}

// interleave4 transposes row-major nibble codes (n rows × m4 nibbles, one
// per byte) into the block-interleaved layout; deinterleave4 inverts it.
// They define the layout the fuzz round-trip locks down.
func interleave4(nib []byte, m4, n int) []byte {
	np := m4 / 2
	blocks := make([]byte, fsBlocksLen(m4, n))
	for i := 0; i < n; i++ {
		blk := blocks[i/fsBlock*fsBlockBytes(m4):]
		r := i % fsBlock
		for p := 0; p < np; p++ {
			blk[p*fsBlock+r] = nib[i*m4+2*p]&0xf | nib[i*m4+2*p+1]<<4
		}
	}
	return blocks
}

func deinterleave4(blocks []byte, m4, n int) []byte {
	np := m4 / 2
	nib := make([]byte, n*m4)
	for i := 0; i < n; i++ {
		blk := blocks[i/fsBlock*fsBlockBytes(m4):]
		r := i % fsBlock
		for p := 0; p < np; p++ {
			b := blk[p*fsBlock+r]
			nib[i*m4+2*p] = b & 0xf
			nib[i*m4+2*p+1] = b >> 4
		}
	}
	return nib
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

// Search implements Index: the float ADC table for q is built once,
// quantized, and swept over all blocks.
func (ix *FastScan) Search(ctx context.Context, s *Scratch, q []float32, k int, dst []Result) ([]Result, error) {
	return scanSolo(ctx, ix, nil, 0, s, q, k, dst)
}

// SearchWith implements ScratchSearcher.
func (ix *FastScan) SearchWith(s *Scratch, q []float32, k int) []Result {
	return searchWith(ix, s, q, k)
}

// stateLen and prepareInto implement rangeScanner: the shared per-query
// state is the exact float32 ADC table (M4 rows of 16 entries — at M4=16 a
// single kilobyte). A solo range scan derives its integer tables from it,
// so the shared state stays a plain []float32 and sharded scans need no
// extra coordination; a batch quantizes it once per query (searchBatch).
func (ix *FastScan) stateLen() int { return ix.pq.M * quant.Ks4 }

func (ix *FastScan) prepareInto(q, table []float32) []float32 {
	ix.pq.ADCTableInto(q, table)
	return table
}

// FastScanKernel names the kernel fast-scan scans run on in this process:
// "avx2" (the assembly kernel) or "portable" (the query-major group kernel:
// a purego build, another architecture, or a CPU without AVX2). Operators
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

// scanRange implements rangeScanner: this platform's kernel over rows
// [lo, hi). On AVX2 the heap is first filled exactly, from as many leading
// blocks as hold the rows it lacks, so there is a k-th best distance to
// quantize the table against (a range that ends first never quantizes).
// Elsewhere it is a portable group of one over the full-spread table (a lone
// live lane costs the group kernel about 2 % over a dedicated scalar kernel,
// DESIGN.md §11, so there is none); a code too wide for its lanes has only
// the plain float scan, and no product configuration is that wide.
func (ix *FastScan) scanRange(table []float32, s *Scratch, t *topK, lo, hi int) {
	if !fsAVX2 && ix.pq.M > fsGroupMaxM4 {
		ix.scanPlain4(table, t, lo, hi)
		return
	}
	seeded := 0
	if need := t.k - len(t.heap); fsAVX2 && need > 0 {
		seeded = min(hi, (lo+need+fsBlock-1)/fsBlock*fsBlock) - lo
		ix.scanPlain4(table, t, lo, lo+seeded)
		lo += seeded
	}
	if lo >= hi {
		return
	}
	s.lut8 = resize(s.lut8, ix.stateLen())
	if fsAVX2 {
		q := ix.quantize(table, s.lut8, t.worst(), fsThreshold)
		ix.scanAVX2(&q, t, lo, hi, seeded)
		return
	}
	qs, heaps := [1]fsQuery{ix.quantize(table, s.lut8, 0, 0)}, [1]topK{*t}
	ix.scanGroup(qs[:], s, heaps[:], lo, hi)
	*t = heaps[0]
}

// fsThreshold is where a threshold-relative table puts the k-th best
// distance: as high as a byte goes while the limit, a slack of 2 above it,
// still prunes (255 admits every saturated sum). A limit that pushes have
// pulled below half of it requantizes the table: the threshold lives in the
// top half of the byte range — a derived invariant, not a tunable — so a scan
// decides with seven bits or more and requantizes at most once per halving.
const fsThreshold = 250

// scanAVX2 scans rows [lo, hi) for one prepared query with the assembly
// kernel: fsScanRun skips whole runs of blocks in which no row's saturated
// sum reaches the limit and stops at the first block that has one, with its
// row mask and its 32 sums in qd; the candidate pass walks the mask in plain
// Go — clipped to [lo, hi) (the kernel may flag a padding row or one outside
// the range), re-checked against a limit an earlier row of the block just
// tightened, then the exact float32 re-rank and the heap push — and the
// kernel re-enters after it. A limit fallen below fsThreshold/2 requantizes
// q in place, until a requantization fails to lift it (the scale is at what
// float32 resolves, or the full-spread one; a smaller w cures neither). A
// run is at most fsMaxRun blocks: assembly cannot be preempted, so a GC stop
// would otherwise wait out a whole range that admits no row. seeded counts
// the rows the caller re-ranked to fill the heap.
func (ix *FastScan) scanAVX2(q *fsQuery, t *topK, lo, hi, seeded int) {
	np := ix.pq.M / 2
	bpb := fsBlockBytes(ix.pq.M)
	qlimit := q.limit(t)
	c := FastScanCounts{Scans: 1, Rows: int64(hi - lo + seeded), Candidates: int64(seeded)}
	requantize := true
	var qd [fsBlock]uint8
	for b, end := lo/fsBlock, (hi+fsBlock-1)/fsBlock; b < end; {
		run := min(end-b, fsMaxRun)
		skipped, mask := fsScanRun(ix.blocks[b*bpb:(b+run)*bpb], q.lut8, np, run, qlimit, &qd)
		b += skipped
		if skipped == run {
			continue // nothing admitted in this run
		}
		c.FlaggedBlocks++
		blk := ix.blocks[b*bpb:][:bpb:bpb]
		b0 := b * fsBlock
		if r := lo - b0; r > 0 {
			mask &= ^uint32(0) << r
		}
		if r := hi - b0; r < fsBlock {
			mask &= 1<<r - 1
		}
		for ; mask != 0; mask &= mask - 1 {
			r := bits.TrailingZeros32(mask)
			if uint32(qd[r]) > qlimit {
				continue
			}
			c.Candidates++
			t.push(int32(b0+r), fsRowDist(q.table, blk, np, r))
			qlimit = q.limit(t)
		}
		b++
		if requantize && qlimit < fsThreshold/2 {
			*q = ix.quantize(q.table, q.lut8, t.worst(), fsThreshold)
			qlimit = q.limit(t)
			requantize = qlimit >= fsThreshold/2
			c.Requantizations++
		}
	}
	c.flush()
}

// FastScanCounts is the prune accounting of the fast-scan scans this process
// has run, as /stats and /metrics (emblookup_fastscan_*_total) show it:
// (query, row range) scans that reached a kernel, the rows they covered, the
// blocks in which the integer prune admitted a row, the rows re-ranked with
// the float table (heap seed included) and the tables rescaled mid-scan. The
// counts are a pure function of index, queries, k and ranges: a slack or
// scale regression moves them, a noisy host does not.
type FastScanCounts struct {
	Scans           int64 `json:"scans"`
	Rows            int64 `json:"rows"`
	FlaggedBlocks   int64 `json:"flaggedBlocks"`
	Candidates      int64 `json:"candidates"`
	Requantizations int64 `json:"requantizations"`
}

// A scan accumulates in a FastScanCounts of its own and flushes once.
var fsCounters = [...]*obs.Counter{
	obs.Default().Counter("emblookup_fastscan_scans_total"),
	obs.Default().Counter("emblookup_fastscan_rows_total"),
	obs.Default().Counter("emblookup_fastscan_flagged_blocks_total"),
	obs.Default().Counter("emblookup_fastscan_candidates_total"),
	obs.Default().Counter("emblookup_fastscan_requantizations_total"),
}

// ReadFastScanCounts returns the current totals.
func ReadFastScanCounts() FastScanCounts {
	v := func(i int) int64 { return fsCounters[i].Value() }
	return FastScanCounts{v(0), v(1), v(2), v(3), v(4)}
}

func (c FastScanCounts) flush() {
	for i, n := range [...]int64{c.Scans, c.Rows, c.FlaggedBlocks, c.Candidates, c.Requantizations} {
		fsCounters[i].Add(n)
	}
}

// fsMaxRun is the most blocks one call of the assembly kernel walks: 128k
// rows, 70-85 µs at M4 = 16, for one extra call per MiB of those codes.
const fsMaxRun = 4096

// fsLanes is the group width of the query-major kernel: the uint16 sums of
// four queries ride the four 16-bit lanes of one uint64. It is the word
// size over the lane size, not a tuning knob.
const fsLanes = 4

// fsGroupMaxM4 is the largest sub-quantizer count the group kernel serves.
// A lane's sum is at most M4·255; the packed compare borrows each lane's
// top bit, so the sum must stay below 0x8000 (128·255 = 32640). Wider
// codes are the AVX2 kernel's, or the plain float scan's (scanRange).
const fsGroupMaxM4 = 128

// fsHigh is the top bit of every lane.
const fsHigh = 0x8000_8000_8000_8000

// scanGroup is the portable kernel: rows [lo, hi) for up to fsLanes
// prepared queries in one pass over the codes. The fused pair LUT is the
// scalar stand-in for the shuffle: entry b of pair p holds
// lut8[2p][b&15] + lut8[2p+1][b>>4], so one byte load, one word load and one
// add advance a row by two sub-quantizers — and lane l of every LUT word
// holds query l's uint16 entry, so that add advances four queries at once.
// No lane can carry into the next (sums stay below 0x8000), so each lane
// ends up with exactly the integer sum of its query's lut8 entries, the
// prune admits for each query exactly the rows a scan of it alone would,
// and heaps[l] receives query l's pushes in row order. Lanes past len(qs)
// stay zero and are masked out of the compare; a solo scan off AVX2 is a
// group of one.
func (ix *FastScan) scanGroup(qs []fsQuery, s *Scratch, heaps []topK, lo, hi int) {
	if lo >= hi {
		return
	}
	np := ix.pq.M / 2
	s.lut4 = resize(s.lut4, np*256)
	clear(s.lut4)
	// limits holds 0x8000|laneLimit per lane. A lane of limits−qd keeps its
	// top bit exactly when limit ≥ sum, and never borrows from its neighbour.
	var live, limits uint64 = 0, fsHigh
	for l := range qs {
		fsFuse(s.lut4, qs[l].lut8, np, uint(l))
		live |= 0x8000 << (16 * l)
		limits |= qs[l].laneLimit(&heaps[l]) << (16 * l)
	}
	bpb := fsBlockBytes(ix.pq.M)
	c := FastScanCounts{Scans: int64(len(qs)), Rows: int64(len(qs) * (hi - lo))}
	flagged := [fsLanes]int{-1, -1, -1, -1} // the last block each lane had a candidate in
	var qd [fsBlock]uint64
	for b0 := lo / fsBlock * fsBlock; b0 < hi; b0 += fsBlock {
		blk := ix.blocks[b0/fsBlock*bpb:][:bpb:bpb]
		fsAccumulate(&qd, s.lut4, blk, np)
		// Candidate pass: one packed compare per row for all lanes; a row
		// that survives in some lane pays that query's exact re-rank.
		for r, rhi := max(lo-b0, 0), min(hi-b0, fsBlock); r < rhi; r++ {
			alive := (limits - qd[r]) & live
			for ; alive != 0; alive &= alive - 1 {
				l := bits.TrailingZeros64(alive) / 16
				q, t := &qs[l], &heaps[l]
				t.push(int32(b0+r), fsRowDist(q.table, blk, np, r))
				limits = limits&^(0x7fff<<(16*l)) | q.laneLimit(t)<<(16*l)
				c.Candidates++
				if flagged[l] != b0 {
					flagged[l] = b0
					c.FlaggedBlocks++
				}
			}
		}
	}
	c.flush()
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

// laneLimit is limit clamped to a lane of the group kernel: 0x7fff already
// admits every sum a lane can hold, and the lane's top bit must stay free.
func (q *fsQuery) laneLimit(t *topK) uint64 {
	return uint64(min(q.limit(t), 0x7fff))
}

// fsFuse ORs one query's fused pair LUTs into lane `lane` of fused (M4/2
// × 256 words, cleared by the caller): entry b of pair p is
// lut8[2p][b&15] + lut8[2p+1][b>>4].
func fsFuse(fused []uint64, lut8 []uint8, np int, lane uint) {
	for p := 0; p < np; p++ {
		lo8 := lut8[2*p*quant.Ks4:][:quant.Ks4]
		hi8 := lut8[(2*p+1)*quant.Ks4:][:quant.Ks4]
		for h, hv := range hi8 {
			f := fused[p*256+h*quant.Ks4:][:quant.Ks4]
			for l, lv := range lo8 {
				f[l] |= uint64(uint16(lv)+uint16(hv)) << (16 * lane)
			}
		}
	}
}

// fsAccumulate sums the group's quantized distances of one block's 32 rows
// into qd, one fused pair LUT swept over one 32-byte code strip at a time. The
// first pair writes instead of adds, so qd needs no per-block reset.
func fsAccumulate(qd *[fsBlock]uint64, fused []uint64, blk []byte, np int) {
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

// scanPlain4 is the straightforward float32 ADC scan of rows [lo, hi) of
// the 4-bit codes — the ground-truth reference every fast-scan kernel is
// tested against.
func (ix *FastScan) scanPlain4(table []float32, t *topK, lo, hi int) {
	np := ix.pq.M / 2
	bpb := fsBlockBytes(ix.pq.M)
	for i := lo; i < hi; i++ {
		blk := ix.blocks[i/fsBlock*bpb:]
		t.push(int32(i), fsRowDist(table, blk, np, i%fsBlock))
	}
}

// appendRow encodes vec with the sealed quantizer into the next row slot,
// growing a fresh zero-padded block when the last one is full — how a
// fast-scan index absorbs Dynamic's delta segment at compaction.
func (ix *FastScan) appendRow(vec []float32) {
	// Unlike the other appendRow implementations (pure appends, which Go
	// turns into a reallocation when the backing is capacity-clipped),
	// setRow writes *into* the last partial block. On a shared backing —
	// a zero-copy v4 artifact, possibly a read-only mapping — that write
	// must hit a private copy, taken once at the first append.
	if ix.shared {
		ix.blocks = append([]byte(nil), ix.blocks...)
		ix.shared = false
	}
	if ix.n%fsBlock == 0 {
		ix.blocks = append(ix.blocks, make([]byte, fsBlockBytes(ix.pq.M))...)
	}
	nib := make([]byte, ix.pq.M)
	ix.pq.EncodeInto(vec, nib)
	ix.setRow(ix.n, nib)
	ix.n++
}

// Slice extracts rows [lo, hi) into a new FastScan sharing the quantizer
// but owning re-interleaved blocks (row ids rebase to 0) — the fast-scan
// leg of core.WithPartition. Interleaved blocks cannot be aliased on
// non-block boundaries, so the nibbles are copied; the cost is one pass
// over the slice's codes.
func (ix *FastScan) Slice(lo, hi int) (*FastScan, error) {
	if lo < 0 || hi > ix.n || lo > hi {
		return nil, fmt.Errorf("index: fast-scan slice [%d, %d) outside rows [0, %d)", lo, hi, ix.n)
	}
	out := &FastScan{pq: ix.pq, n: hi - lo, blocks: make([]byte, fsBlocksLen(ix.pq.M, hi-lo))}
	nib := make([]byte, ix.pq.M)
	for i := lo; i < hi; i++ {
		ix.rowNibbles(i, nib)
		out.setRow(i-lo, nib)
	}
	return out, nil
}

// Reconstruct decodes the stored approximation of vector id.
func (ix *FastScan) Reconstruct(id int32) []float32 {
	nib := make([]byte, ix.pq.M)
	ix.rowNibbles(int(id), nib)
	return ix.pq.Decode(nib)
}

// resize is mathx.Resize for the integer LUT buffers.
func resize[T any](buf []T, n int) []T {
	if cap(buf) < n {
		return make([]T, n)
	}
	return buf[:n]
}
