package index

import (
	"testing"

	"emblookup/internal/artifact"
	"emblookup/internal/quant"
)

// TestSpecValidate is the table of every pairing rule and bound a spec
// obeys: each legal kind, and each way to leave them.
func TestSpecValidate(t *testing.T) {
	pq8 := quant.PQConfig{M: 8, Ks: 16}
	cases := []struct {
		name string
		dim  int
		s    Spec
		ok   bool
	}{
		{"flat", 64, Spec{}, true},
		{"pq", 64, Spec{Compress: true, PQ: pq8}, true},
		{"fastscan", 64, Spec{Compress: true, FastScan: true, PQ: pq8}, true},
		{"ivf-flat", 64, Spec{IVF: true, IVFNProbe: 4}, true},
		{"ivf-pq", 64, Spec{Compress: true, IVF: true, PQ: pq8}, true},
		{"ivf-pq r8", 64, Spec{Compress: true, IVF: true, PQ: pq8, Rerank: 8}, true},
		{"ivf-pq at MaxRerank", 64, Spec{Compress: true, IVF: true, PQ: pq8, Rerank: MaxRerank}, true},
		{"rerank 1 is a no-op on any kind", 64, Spec{Rerank: 1}, true},
		{"fastscan at the widest 2M ≤ MaxM4", 2 * 128, Spec{Compress: true, FastScan: true, PQ: quant.PQConfig{M: 128, Ks: 16}}, true},

		{"pq with M = 0", 64, Spec{Compress: true}, false},
		{"pq with M < 0", 64, Spec{Compress: true, PQ: quant.PQConfig{M: -8}}, false},
		{"ivf-pq with M = 0", 64, Spec{Compress: true, IVF: true}, false},
		{"Dim % M", 60, Spec{Compress: true, PQ: pq8}, false},
		{"fastscan without Compress", 64, Spec{FastScan: true, PQ: pq8}, false},
		{"fastscan with IVF", 64, Spec{Compress: true, IVF: true, FastScan: true, PQ: pq8}, false},
		{"fastscan Dim % 2M", 72, Spec{Compress: true, FastScan: true, PQ: pq8}, false},
		{"fastscan 2M > MaxM4", 2 * 129, Spec{Compress: true, FastScan: true, PQ: quant.PQConfig{M: 129, Ks: 16}}, false},
		{"Rerank < 0", 64, Spec{Compress: true, IVF: true, PQ: pq8, Rerank: -1}, false},
		{"Rerank > MaxRerank", 64, Spec{Compress: true, IVF: true, PQ: pq8, Rerank: MaxRerank + 1}, false},
		{"rerank on flat", 64, Spec{Rerank: 2}, false},
		{"rerank on pq", 64, Spec{Compress: true, PQ: pq8, Rerank: 8}, false},
		{"rerank on fastscan", 64, Spec{Compress: true, FastScan: true, PQ: pq8, Rerank: 8}, false},
		{"rerank on ivf-flat", 64, Spec{IVF: true, Rerank: 8}, false},
	}
	for _, c := range cases {
		err := c.s.Validate(c.dim)
		if c.ok && err != nil {
			t.Errorf("%s: rejected: %v", c.name, err)
		}
		if !c.ok && err == nil {
			t.Errorf("%s: accepted", c.name)
		}
	}
}

// TestBuildKinds: each kind name WithKind takes builds the index the codec
// records under that same name, and an unknown name is refused.
func TestBuildKinds(t *testing.T) {
	data := clusteredData(300, 16, 5)
	base := Spec{PQ: quant.PQConfig{M: 4, Ks: 16, Iters: 4, Seed: 3}}
	for _, kind := range []string{"flat", "pq", "fastscan", "ivf-flat", "ivf-pq"} {
		s, err := base.WithKind(kind)
		if err != nil {
			t.Fatal(err)
		}
		if err := s.Validate(data.Cols); err != nil {
			t.Fatalf("%s: %v", kind, err)
		}
		ix, err := Build(s, data, 2)
		if err != nil {
			t.Fatalf("%s: %v", kind, err)
		}
		meta, err := WriteSections(artifact.NewWriter(), ix)
		if err != nil {
			t.Fatal(err)
		}
		if meta.Kind != kind || ix.Len() != data.Rows {
			t.Errorf("%s: built a %s index of %d rows", kind, meta.Kind, ix.Len())
		}
	}
	if _, err := base.WithKind("hnsw"); err == nil {
		t.Error("unknown kind accepted")
	}
}
