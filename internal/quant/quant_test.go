package quant

import (
	"math"
	"testing"

	"emblookup/internal/mathx"
)

// clusteredData builds n points around k well-separated centers.
func clusteredData(n, d, k int, seed uint64) (*mathx.Matrix, []int) {
	rng := mathx.NewRNG(seed)
	centers := mathx.NewMatrix(k, d)
	for c := 0; c < k; c++ {
		for j := 0; j < d; j++ {
			centers.Set(c, j, float32(c*10)+float32(rng.NormFloat64()))
		}
	}
	data := mathx.NewMatrix(n, d)
	truth := make([]int, n)
	for i := 0; i < n; i++ {
		c := i % k
		truth[i] = c
		row := data.Row(i)
		for j := 0; j < d; j++ {
			row[j] = centers.At(c, j) + float32(rng.NormFloat64()*0.1)
		}
	}
	return data, truth
}

func TestKMeansRecoversClusters(t *testing.T) {
	data, truth := clusteredData(300, 4, 3, 1)
	_, assign := KMeans(data, KMeansConfig{K: 3, MaxIters: 25, Seed: 2})
	// Assignments must be consistent with the ground truth partition: two
	// points in the same true cluster share an assigned cluster.
	repr := map[int]int{}
	for i, a := range assign {
		tc := truth[i]
		if r, ok := repr[tc]; ok {
			if r != a {
				t.Fatalf("true cluster %d split across kmeans clusters", tc)
			}
		} else {
			repr[tc] = a
		}
	}
	if len(repr) != 3 {
		t.Fatalf("found %d clusters, want 3", len(repr))
	}
}

func TestKMeansInertiaDecreasesWithK(t *testing.T) {
	data, _ := clusteredData(200, 6, 4, 3)
	c1, a1 := KMeans(data, KMeansConfig{K: 1, MaxIters: 10, Seed: 4})
	c4, a4 := KMeans(data, KMeansConfig{K: 4, MaxIters: 25, Seed: 4})
	if Inertia(data, c4, a4) >= Inertia(data, c1, a1) {
		t.Fatal("k=4 inertia should be below k=1")
	}
}

func TestKMeansFewerPointsThanK(t *testing.T) {
	data := mathx.NewMatrix(3, 2)
	cents, assign := KMeans(data, KMeansConfig{K: 8, MaxIters: 5, Seed: 5})
	if cents.Rows != 8 || len(assign) != 3 {
		t.Fatalf("degenerate kmeans output %d/%d", cents.Rows, len(assign))
	}
}

func TestKMeansDeterministic(t *testing.T) {
	data, _ := clusteredData(100, 4, 2, 6)
	_, a1 := KMeans(data, KMeansConfig{K: 2, MaxIters: 20, Seed: 7})
	_, a2 := KMeans(data, KMeansConfig{K: 2, MaxIters: 20, Seed: 7})
	for i := range a1 {
		if a1[i] != a2[i] {
			t.Fatal("kmeans not deterministic")
		}
	}
}

func TestPQRoundTripError(t *testing.T) {
	data, _ := clusteredData(500, 16, 4, 8)
	pq, err := TrainPQ(data, PQConfig{M: 4, Ks: 16, Iters: 15, Seed: 9})
	if err != nil {
		t.Fatal(err)
	}
	// Reconstruction error must be far below the data's own variance.
	var errSum, varSum float64
	mean := make([]float32, data.Cols)
	for i := 0; i < data.Rows; i++ {
		mathx.Axpy(1, data.Row(i), mean)
	}
	mathx.Scale(1/float32(data.Rows), mean)
	for i := 0; i < data.Rows; i++ {
		rec := pq.Decode(pq.Encode(data.Row(i)))
		errSum += float64(mathx.SquaredL2(data.Row(i), rec))
		varSum += float64(mathx.SquaredL2(data.Row(i), mean))
	}
	if errSum >= varSum*0.1 {
		t.Fatalf("PQ reconstruction error too large: %.3f vs variance %.3f", errSum, varSum)
	}
}

func TestPQADCMatchesDecodedDistance(t *testing.T) {
	data, _ := clusteredData(200, 8, 3, 11)
	pq, err := TrainPQ(data, PQConfig{M: 2, Ks: 8, Iters: 10, Seed: 12})
	if err != nil {
		t.Fatal(err)
	}
	rng := mathx.NewRNG(13)
	q := make([]float32, 8)
	for i := range q {
		q[i] = float32(rng.NormFloat64())
	}
	table := pq.ADCTable(q)
	for i := 0; i < 50; i++ {
		code := pq.Encode(data.Row(i))
		adc := pq.ADCDistance(table, code)
		direct := mathx.SquaredL2(q, pq.Decode(code))
		if math.Abs(float64(adc-direct)) > 1e-3*math.Max(1, float64(direct)) {
			t.Fatalf("ADC %v != decoded distance %v", adc, direct)
		}
	}
}

func TestPQInvalidConfigs(t *testing.T) {
	data := mathx.NewMatrix(10, 7)
	if _, err := TrainPQ(data, PQConfig{M: 2, Ks: 4}); err == nil {
		t.Fatal("expected error: 7 not divisible by 2")
	}
	if _, err := TrainPQ(data, PQConfig{M: 0, Ks: 4}); err == nil {
		t.Fatal("expected error: M=0")
	}
	if _, err := TrainPQ(data, PQConfig{M: 7, Ks: 300}); err == nil {
		t.Fatal("expected error: Ks>256")
	}
}

func TestPQBytesPerCode(t *testing.T) {
	data, _ := clusteredData(50, 8, 2, 14)
	pq, err := TrainPQ(data, PQConfig{M: 8, Ks: 4, Iters: 5, Seed: 15})
	if err != nil {
		t.Fatal(err)
	}
	if len(pq.Encode(data.Row(0))) != 8 {
		t.Fatal("code length != M") // one byte per sub-quantizer
	}
}

func TestPCAReconstructionImprovesWithComponents(t *testing.T) {
	data, _ := clusteredData(300, 12, 4, 16)
	errAt := func(nc int) float64 {
		p := TrainPCA(data, nc)
		var e float64
		for i := 0; i < data.Rows; i++ {
			rec := p.Reconstruct(p.Project(data.Row(i)))
			e += float64(mathx.SquaredL2(data.Row(i), rec))
		}
		return e
	}
	e2, e6, e12 := errAt(2), errAt(6), errAt(12)
	if !(e2 >= e6 && e6 >= e12) {
		t.Fatalf("PCA error not monotone: %v %v %v", e2, e6, e12)
	}
	if e12 > 1e-3*float64(data.Rows) {
		t.Fatalf("full-rank PCA should reconstruct near-exactly, err=%v", e12)
	}
}

func TestPCAComponentsOrthonormal(t *testing.T) {
	data, _ := clusteredData(200, 8, 3, 18)
	p := TrainPCA(data, 4)
	for i := 0; i < 4; i++ {
		for j := 0; j < 4; j++ {
			dot := mathx.Dot(p.Components.Row(i), p.Components.Row(j))
			want := float32(0)
			if i == j {
				want = 1
			}
			if math.Abs(float64(dot-want)) > 1e-3 {
				t.Fatalf("components not orthonormal: <%d,%d> = %v", i, j, dot)
			}
		}
	}
}

func TestPCAProjectDim(t *testing.T) {
	data, _ := clusteredData(50, 6, 2, 19)
	p := TrainPCA(data, 3)
	if got := len(p.Project(data.Row(0))); got != 3 {
		t.Fatalf("projected dim = %d", got)
	}
}

func TestJacobiEigenKnownMatrix(t *testing.T) {
	// Symmetric matrix with known eigenvalues {3, 1}: [[2,1],[1,2]].
	vals, vecs := jacobiEigen([][]float64{{2, 1}, {1, 2}})
	got := []float64{vals[0], vals[1]}
	if got[0] > got[1] {
		got[0], got[1] = got[1], got[0]
	}
	if math.Abs(got[0]-1) > 1e-9 || math.Abs(got[1]-3) > 1e-9 {
		t.Fatalf("eigenvalues = %v", vals)
	}
	// Eigenvector columns must be unit length.
	for c := 0; c < 2; c++ {
		n := vecs[0][c]*vecs[0][c] + vecs[1][c]*vecs[1][c]
		if math.Abs(n-1) > 1e-9 {
			t.Fatalf("eigenvector %d not unit: %v", c, n)
		}
	}
}
