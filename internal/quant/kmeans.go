// Package quant implements the embedding-compression substrate of Section
// III-D: k-means clustering, product quantization with asymmetric-distance
// (ADC) lookup tables, and PCA (the alternate compression scheme of the
// Figure 5 ablation).
package quant

import (
	"emblookup/internal/mathx"
	"emblookup/internal/par"
)

// KMeansConfig controls Lloyd's algorithm.
type KMeansConfig struct {
	K        int
	MaxIters int
	Seed     uint64
	// Workers bounds construction parallelism (≤0 = GOMAXPROCS). The result
	// is bit-identical for every worker count at a fixed seed: all
	// floating-point reductions run over a fixed partition of the rows and
	// merge in partition order, so only wall-clock time depends on Workers.
	Workers int
	// TrainSample, when positive and smaller than the row count, trains the
	// centroids on a deterministic evenly-strided sample of that many rows
	// and then runs one exact assignment pass over all rows — the standard
	// large-corpus k-means shortcut (training cost stops scaling with n; the
	// assignment stays exact). 0 trains on every row, bit-identical to
	// builds predating this knob.
	TrainSample int
}

// kmeansParts is the fixed number of row partitions every parallel reduction
// in KMeans uses. It is a constant — not the worker count — so the
// floating-point summation tree is the same no matter how many goroutines
// execute the partitions, which is what makes the parallel build
// deterministic across worker counts.
const kmeansParts = 64

// kmeansState holds the preallocated per-partition buffers of one KMeans
// run: partial centroid sums and counts for the update step, partial
// distance-total decrements for the seeding step, and the changed flags
// and one row's distances to every centroid for the assignment step.
type kmeansState struct {
	bounds  []int // len parts+1, partition p covers rows [bounds[p], bounds[p+1])
	sums    []*mathx.Matrix
	counts  [][]int
	deltas  []float64
	changed []bool
	dists   [][]float32
	workers int
}

func newKMeansState(n, k, d, workers int) *kmeansState {
	bounds := par.Split(n, kmeansParts)
	parts := len(bounds) - 1
	st := &kmeansState{
		bounds:  bounds,
		sums:    make([]*mathx.Matrix, parts),
		counts:  make([][]int, parts),
		deltas:  make([]float64, parts),
		changed: make([]bool, parts),
		dists:   make([][]float32, parts),
		workers: workers,
	}
	for p := range st.sums {
		st.sums[p] = mathx.NewMatrix(k, d)
		st.counts[p] = make([]int, k)
		st.dists[p] = make([]float32, k)
	}
	return st
}

func (st *kmeansState) parts() int { return len(st.bounds) - 1 }

// KMeans runs Lloyd's algorithm with k-means++ seeding on the rows of data
// and returns the K×D centroid matrix together with each row's assignment.
// If data has fewer rows than K, surplus centroids repeat existing rows.
// The assignment and update steps fan across cfg.Workers goroutines over a
// fixed row partition; see KMeansConfig for the determinism contract.
func KMeans(data *mathx.Matrix, cfg KMeansConfig) (*mathx.Matrix, []int) {
	n, d := data.Rows, data.Cols
	k := cfg.K
	if k <= 0 {
		k = 1
	}
	iters := cfg.MaxIters
	if iters <= 0 {
		iters = 15
	}
	rng := mathx.NewRNG(cfg.Seed)
	centroids := mathx.NewMatrix(k, d)
	assign := make([]int, n)
	if n == 0 {
		return centroids, assign
	}
	if cfg.TrainSample > 0 && cfg.TrainSample < n {
		// Train on an evenly-strided sample (deterministic: no RNG draw
		// decides membership), then assign every row exactly once.
		sub := mathx.NewMatrix(cfg.TrainSample, d)
		for i := 0; i < cfg.TrainSample; i++ {
			copy(sub.Row(i), data.Row(i*n/cfg.TrainSample))
		}
		subCfg := cfg
		subCfg.TrainSample = 0
		centroids, _ = KMeans(sub, subCfg)
		st := newKMeansState(n, k, d, cfg.Workers)
		assignStep(data, centroids, assign, st)
		return centroids, assign
	}
	st := newKMeansState(n, k, d, cfg.Workers)

	seedPlusPlus(data, centroids, rng, st)

	// Lloyd iterations. After an assignment pass the assignments are exact
	// for the current centroids; after an update pass they are stale. The
	// loop breaks right after an assignment pass when nothing moved, so on
	// the convergence exit no final re-assignment is needed — recomputing
	// all N×K distances there would reproduce assign bit for bit.
	converged := false
	for iter := 0; iter < iters; iter++ {
		changed := assignStep(data, centroids, assign, st)
		if !changed && iter > 0 {
			converged = true
			break
		}
		updateStep(data, centroids, assign, rng, st)
	}
	if !converged {
		// The loop exhausted MaxIters with an update as its last step, so
		// the assignments lag the final centroids by one pass.
		assignStep(data, centroids, assign, st)
	}
	return centroids, assign
}

// seedPlusPlus runs k-means++ seeding: first centroid uniform, then
// proportional to the squared distance to the closest chosen centroid. The
// running distance total is maintained incrementally — each new centroid
// subtracts the per-partition sum of distance decrements instead of
// re-summing all N distances — and the distance updates fan across workers.
// Each partition's rows are laid out column-major once, so a new centroid's
// distance to all of them is one call of the column-block kernel, which
// equals SquaredL2 of each row bit for bit.
func seedPlusPlus(data, centroids *mathx.Matrix, rng *mathx.RNG, st *kmeansState) {
	n, k, d := data.Rows, centroids.Rows, data.Cols
	copy(centroids.Row(0), data.Row(rng.Intn(n)))
	dist := make([]float64, n)
	var total float64
	rows := make([]*mathx.Centroids, st.parts())
	scores := make([][]float32, st.parts())
	// score writes partition p's distances to centroid c into scores[p].
	score := func(p, c int) []float32 {
		rows[p].SquaredL2Into(centroids.Row(c), scores[p])
		return scores[p]
	}
	par.ForEach(st.parts(), st.workers, func(p int) {
		lo, hi := st.bounds[p], st.bounds[p+1]
		rows[p] = mathx.NewCentroids(&mathx.Matrix{Rows: hi - lo, Cols: d, Data: data.Data[lo*d : hi*d]})
		scores[p] = make([]float32, hi-lo)
		var sum float64
		for j, nd := range score(p, 0) {
			dist[lo+j] = float64(nd)
			sum += dist[lo+j]
		}
		st.deltas[p] = sum
	})
	for p := 0; p < st.parts(); p++ {
		total += st.deltas[p]
	}
	for c := 1; c < k; c++ {
		var chosen int
		if total <= 0 {
			chosen = rng.Intn(n)
		} else {
			target := rng.Float64() * total
			acc := 0.0
			chosen = n - 1
			for i, v := range dist {
				acc += v
				if acc >= target {
					chosen = i
					break
				}
			}
		}
		copy(centroids.Row(c), data.Row(chosen))
		par.ForEach(st.parts(), st.workers, func(p int) {
			var dec float64
			lo := st.bounds[p]
			for j, v := range score(p, c) {
				if nd := float64(v); nd < dist[lo+j] {
					dec += dist[lo+j] - nd
					dist[lo+j] = nd
				}
			}
			st.deltas[p] = dec
		})
		// Merge decrements in partition order so total is worker-count
		// independent.
		for p := 0; p < st.parts(); p++ {
			total -= st.deltas[p]
		}
	}
}

// assignStep reassigns every row to its nearest centroid in parallel and
// reports whether any assignment moved. Each row's nearest centroid is an
// exact argmin, so the result is independent of scheduling. The centroids
// are laid out column-major once per step, and each row's distances to all
// of them come from one call of the column-block kernel.
func assignStep(data, centroids *mathx.Matrix, assign []int, st *kmeansState) bool {
	cols := mathx.NewCentroids(centroids)
	par.ForEach(st.parts(), st.workers, func(p int) {
		dists := st.dists[p]
		moved := false
		for i := st.bounds[p]; i < st.bounds[p+1]; i++ {
			cols.SquaredL2Into(data.Row(i), dists)
			best, bestD := 0, float32(0)
			for c, d := range dists {
				if c == 0 || d < bestD {
					best, bestD = c, d
				}
			}
			if assign[i] != best {
				assign[i] = best
				moved = true
			}
		}
		st.changed[p] = moved
	})
	changed := false
	for _, m := range st.changed {
		changed = changed || m
	}
	return changed
}

// updateStep recomputes the centroids from the current assignments: every
// partition accumulates its rows into private sums/counts, then the partials
// merge in partition order. The merged sum for a centroid adds its rows in
// global row order with a parenthesization fixed by the partition bounds, so
// the centroids are bit-identical for every worker count.
func updateStep(data, centroids *mathx.Matrix, assign []int, rng *mathx.RNG, st *kmeansState) {
	n, k := data.Rows, centroids.Rows
	par.ForEach(st.parts(), st.workers, func(p int) {
		sums, counts := st.sums[p], st.counts[p]
		sums.Zero()
		for c := range counts {
			counts[c] = 0
		}
		for i := st.bounds[p]; i < st.bounds[p+1]; i++ {
			mathx.Axpy(1, data.Row(i), sums.Row(assign[i]))
			counts[assign[i]]++
		}
	})
	centroids.Zero()
	totals := make([]int, k)
	for p := 0; p < st.parts(); p++ {
		for c := 0; c < k; c++ {
			if st.counts[p][c] == 0 {
				continue
			}
			mathx.Axpy(1, st.sums[p].Row(c), centroids.Row(c))
			totals[c] += st.counts[p][c]
		}
	}
	for c := 0; c < k; c++ {
		if totals[c] == 0 {
			// Re-seed an empty cluster from a random point.
			if n > 0 {
				copy(centroids.Row(c), data.Row(rng.Intn(n)))
			}
			continue
		}
		mathx.Scale(1/float32(totals[c]), centroids.Row(c))
	}
}

// Inertia returns the sum of squared distances of each row to its assigned
// centroid — the k-means objective, exposed for testing convergence.
func Inertia(data, centroids *mathx.Matrix, assign []int) float64 {
	var s float64
	for i := 0; i < data.Rows; i++ {
		s += float64(mathx.SquaredL2(data.Row(i), centroids.Row(assign[i])))
	}
	return s
}
