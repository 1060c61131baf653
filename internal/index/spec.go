package index

import (
	"fmt"

	"emblookup/internal/mathx"
	"emblookup/internal/quant"
)

// Spec chooses the index a model serves: its kind, and the quantizer, probe
// and re-rank settings the kind reads. Validate holds every pairing rule and
// Build is the one builder, so a spec that passes Validate always builds.
type Spec struct {
	// Compress enables product quantization of the entity index (the EL
	// variant; false gives EL-NC).
	Compress bool
	// IVF adds an inverted-file coarse quantizer in front of the index
	// (FAISS's IVFFlat / IVFPQ, depending on Compress): queries probe only
	// the nearest coarse lists, trading a little recall for sub-linear
	// scans on large graphs.
	IVF bool
	// IVFNProbe is how many coarse lists a query scans (0 = the index
	// default).
	IVFNProbe int
	// PQ configures the product quantizer when Compress is set.
	PQ quant.PQConfig
	// FastScan builds the compressed index as the 4-bit fast-scan variant
	// (DESIGN.md §11): the PQ configuration is rewritten by quant.Config4
	// to twice the sub-quantizers at 16 centroids each (same bytes per
	// code), codes are stored block-interleaved, and queries scan a
	// uint8-quantized distance table with an exact float32 re-rank of the
	// survivors. Requires Compress; incompatible with IVF.
	FastScan bool

	// Rerank, when > 1, makes IVF-PQ queries over-fetch Rerank×k candidates
	// from the compressed ADC scan and decide the final top-k by exact
	// distances against the raw embedding matrix. With a v4 artifact the raw
	// vectors are an mmap'd section paged in on demand, so the fix for the
	// large-scale recall@10 sag costs pages only for the candidate rows a
	// query actually touches. Requires IVF and Compress; 0 disables; at most
	// MaxRerank.
	Rerank int
}

// kinds are the layouts a spec names, under the names Meta records.
var kinds = map[string]Spec{
	"flat": {}, "pq": {Compress: true}, "fastscan": {Compress: true, FastScan: true},
	"ivf-flat": {IVF: true}, "ivf-pq": {Compress: true, IVF: true},
}

// WithKind returns s switched to the named kind — flat, pq, fastscan,
// ivf-flat or ivf-pq — keeping its quantizer, probe and re-rank settings.
func (s Spec) WithKind(kind string) (Spec, error) {
	k, ok := kinds[kind]
	if !ok {
		return s, fmt.Errorf("index: unknown kind %q (want flat, pq, fastscan, ivf-flat or ivf-pq)", kind)
	}
	s.Compress, s.IVF, s.FastScan = k.Compress, k.IVF, k.FastScan
	return s, nil
}

// Validate reports a spec that cannot build over dim-dimensional vectors.
func (s Spec) Validate(dim int) error {
	if s.Compress && s.PQ.M <= 0 {
		return fmt.Errorf("index: Compress needs a positive PQ.M, got %d", s.PQ.M)
	}
	if s.Compress && dim%s.PQ.M != 0 {
		return fmt.Errorf("index: Dim=%d not divisible by PQ.M=%d", dim, s.PQ.M)
	}
	if s.FastScan {
		if !s.Compress {
			return fmt.Errorf("index: FastScan requires Compress (it is a compressed-index layout)")
		}
		if s.IVF {
			return fmt.Errorf("index: FastScan is incompatible with IVF")
		}
		// The 4-bit variant doubles the sub-quantizer count (quant.Config4),
		// so the dimensionality must split across 2·M sub-spaces.
		if dim%(2*s.PQ.M) != 0 {
			return fmt.Errorf("index: Dim=%d not divisible by the fast-scan sub-quantizer count 2·PQ.M=%d", dim, 2*s.PQ.M)
		}
		if 2*s.PQ.M > quant.MaxM4 {
			return fmt.Errorf("index: fast-scan sub-quantizer count %d exceeds %d", 2*s.PQ.M, quant.MaxM4)
		}
	}
	if s.Rerank < 0 || s.Rerank > MaxRerank {
		return fmt.Errorf("index: Rerank must be in [0, %d], got %d", MaxRerank, s.Rerank)
	}
	if s.Rerank > 1 && !(s.IVF && s.Compress) {
		return fmt.Errorf("index: Rerank requires IVF and Compress (exact re-rank only applies to IVF-PQ)")
	}
	return nil
}

// Build constructs the index s names over vectors. Construction fans across
// workers (≤0 = GOMAXPROCS); the built index is bit-identical at every
// worker count (see quant.KMeansConfig).
func Build(s Spec, vectors *mathx.Matrix, workers int) (Index, error) {
	pqCfg := s.PQ
	if pqCfg.Workers == 0 {
		pqCfg.Workers = workers
	}
	switch {
	case s.IVF:
		ivfCfg := DefaultIVFConfig(vectors.Rows)
		if s.IVFNProbe > 0 {
			ivfCfg.NProbe = s.IVFNProbe
		}
		if s.Compress {
			ivfCfg.PQ = &pqCfg
		}
		ivfCfg.Workers = workers
		// The PQ config's sampling knob governs the coarse k-means too, so
		// one setting bounds all training cost at million-entity scale.
		ivfCfg.TrainSample = pqCfg.TrainSample
		ivf, err := NewIVF(vectors, ivfCfg)
		if err != nil {
			return nil, fmt.Errorf("index: building IVF index: %w", err)
		}
		if s.Rerank > 1 && s.Compress {
			// The embedding matrix is in memory anyway at build time; the
			// artifact writer persists it as the "vectors" section so a later
			// attach re-ranks against the mmap'd view instead.
			if err := ivf.SetRerank(s.Rerank, vectors); err != nil {
				return nil, fmt.Errorf("index: enabling IVF re-rank: %w", err)
			}
		}
		return ivf, nil
	case s.Compress && s.FastScan:
		fsIx, err := NewFastScan(vectors, quant.Config4(pqCfg))
		if err != nil {
			return nil, fmt.Errorf("index: building fast-scan index: %w", err)
		}
		return fsIx, nil
	case s.Compress:
		pqIx, err := NewPQ(vectors, pqCfg)
		if err != nil {
			return nil, fmt.Errorf("index: building PQ index: %w", err)
		}
		return pqIx, nil
	default:
		return NewFlat(vectors), nil
	}
}
