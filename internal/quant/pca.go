package quant

import (
	"math"
	"sort"

	"emblookup/internal/mathx"
)

// PCA is a principal-component projection learned from data, the
// dimensionality-reduction alternative to product quantization evaluated in
// Figure 5 of the paper. Each reduced dimension costs 4 bytes (float32), so
// a PCA compressed to c components matches a PQ code of 4·c bytes.
type PCA struct {
	Mean       []float32
	Components *mathx.Matrix // nComponents × D, rows are principal axes
}

// TrainPCA fits nComponents principal axes to the rows of data using the
// Jacobi eigenvalue decomposition of the covariance matrix (exact for the
// embedding sizes used here, D ≤ 256).
func TrainPCA(data *mathx.Matrix, nComponents int) *PCA {
	n, d := data.Rows, data.Cols
	if nComponents <= 0 || nComponents > d {
		nComponents = d
	}
	mean := make([]float32, d)
	for i := 0; i < n; i++ {
		mathx.Axpy(1, data.Row(i), mean)
	}
	if n > 0 {
		mathx.Scale(1/float32(n), mean)
	}
	// Covariance in float64 for numerical stability.
	cov := make([][]float64, d)
	for i := range cov {
		cov[i] = make([]float64, d)
	}
	for r := 0; r < n; r++ {
		row := data.Row(r)
		for i := 0; i < d; i++ {
			xi := float64(row[i] - mean[i])
			if xi == 0 {
				continue
			}
			for j := i; j < d; j++ {
				cov[i][j] += float64(xi * float64(row[j]-mean[j]))
			}
		}
	}
	denom := float64(n - 1)
	if denom < 1 {
		denom = 1
	}
	for i := 0; i < d; i++ {
		for j := i; j < d; j++ {
			cov[i][j] /= denom
			cov[j][i] = cov[i][j]
		}
	}

	vals, vecs := jacobiEigen(cov)
	// Sort by descending eigenvalue.
	idx := make([]int, d)
	for i := range idx {
		idx[i] = i
	}
	sort.Slice(idx, func(a, b int) bool { return vals[idx[a]] > vals[idx[b]] })

	comp := mathx.NewMatrix(nComponents, d)
	for c := 0; c < nComponents; c++ {
		col := idx[c]
		for j := 0; j < d; j++ {
			comp.Set(c, j, float32(vecs[j][col]))
		}
	}
	return &PCA{Mean: mean, Components: comp}
}

// Project maps vec onto the principal axes, returning an nComponents-length
// vector.
func (p *PCA) Project(vec []float32) []float32 {
	centered := mathx.Sub(vec, p.Mean)
	return p.Components.MatVec(centered)
}

// Reconstruct maps a projected vector back into the original space.
func (p *PCA) Reconstruct(proj []float32) []float32 {
	out := p.Components.MatVecT(proj)
	for i := range out {
		out[i] += p.Mean[i]
	}
	return out
}

// jacobiEigen computes all eigenvalues and eigenvectors of a symmetric
// matrix by cyclic Jacobi rotations. vecs columns are eigenvectors. Each
// product is rounded before its add, as in TrainPCA's covariance, so no
// architecture fuses them into a multiply-add (see mathx.Dot).
func jacobiEigen(a [][]float64) (vals []float64, vecs [][]float64) {
	n := len(a)
	// Work on a copy.
	m := make([][]float64, n)
	for i := range m {
		m[i] = append([]float64(nil), a[i]...)
	}
	vecs = make([][]float64, n)
	for i := range vecs {
		vecs[i] = make([]float64, n)
		vecs[i][i] = 1
	}
	for sweep := 0; sweep < 100; sweep++ {
		off := 0.0
		for i := 0; i < n; i++ {
			for j := i + 1; j < n; j++ {
				off += float64(m[i][j] * m[i][j])
			}
		}
		if off < 1e-18 {
			break
		}
		for p := 0; p < n; p++ {
			for q := p + 1; q < n; q++ {
				if math.Abs(m[p][q]) < 1e-15 {
					continue
				}
				theta := (m[q][q] - m[p][p]) / (2 * m[p][q])
				t := math.Copysign(1, theta) / (math.Abs(theta) + math.Sqrt(float64(theta*theta)+1))
				c := 1 / math.Sqrt(float64(t*t)+1)
				s := t * c
				for k := 0; k < n; k++ {
					mkp, mkq := m[k][p], m[k][q]
					m[k][p] = float64(c*mkp) - float64(s*mkq)
					m[k][q] = float64(s*mkp) + float64(c*mkq)
				}
				for k := 0; k < n; k++ {
					mpk, mqk := m[p][k], m[q][k]
					m[p][k] = float64(c*mpk) - float64(s*mqk)
					m[q][k] = float64(s*mpk) + float64(c*mqk)
				}
				for k := 0; k < n; k++ {
					vkp, vkq := vecs[k][p], vecs[k][q]
					vecs[k][p] = float64(c*vkp) - float64(s*vkq)
					vecs[k][q] = float64(s*vkp) + float64(c*vkq)
				}
			}
		}
	}
	vals = make([]float64, n)
	for i := 0; i < n; i++ {
		vals[i] = m[i][i]
	}
	return vals, vecs
}
