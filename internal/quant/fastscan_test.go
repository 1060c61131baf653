package quant

import (
	"testing"

	"emblookup/internal/mathx"
)

func TestConfig4KeepsBytesPerCode(t *testing.T) {
	cfg := DefaultPQConfig() // M=8, Ks=256
	c4 := Config4(cfg)
	if c4.M != 2*cfg.M || c4.Ks != Ks4 {
		t.Fatalf("Config4(%+v) = %+v", cfg, c4)
	}
	// Two nibbles per byte: same storage as M 8-bit codes.
	if c4.M/2 != cfg.M {
		t.Fatalf("4-bit bytes per code %d != 8-bit %d", c4.M/2, cfg.M)
	}
}

// train4 trains a small 4-bit quantizer over random data.
func train4(t *testing.T, n, d int, seed uint64) (*ProductQuantizer, *mathx.Matrix) {
	t.Helper()
	data := mathx.NewMatrix(n, d)
	data.FillRandn(mathx.NewRNG(seed), 1)
	cfg := Config4(PQConfig{M: d / 8, Ks: 64, Iters: 5, Seed: seed + 1})
	pq, err := TrainPQ(data, cfg)
	if err != nil {
		t.Fatal(err)
	}
	return pq, data
}

// TestQuantizeTableBounds asserts the two inequalities QuantizeTableInto
// documents: the quantized sum is a lower bound of the float sum, and the
// error is below M·delta (both with a small FP-rounding slack).
func TestQuantizeTableBounds(t *testing.T) {
	pq, data := train4(t, 400, 32, 23)
	table := make([]float32, pq.M*pq.Ks)
	lut8 := make([]uint8, pq.M*pq.Ks)
	code := make([]byte, pq.M)
	for qi := 0; qi < 10; qi++ {
		q := data.Row(qi)
		pq.ADCTableInto(q, table)
		bias, delta, _ := pq.QuantizeTableInto(table, lut8, 0, 0)
		if delta <= 0 {
			t.Fatalf("query %d: non-positive delta %v", qi, delta)
		}
		for ri := 0; ri < 50; ri++ {
			pq.EncodeInto(data.Row(ri), code)
			var exact float32
			var qsum int
			for m := 0; m < pq.M; m++ {
				exact += table[m*pq.Ks+int(code[m])]
				qsum += int(lut8[m*pq.Ks+int(code[m])])
			}
			lo := bias + delta*float32(qsum)
			hi := bias + delta*float32(qsum+pq.M)
			slack := delta * float32(pq.M) * 1e-4
			if lo > exact+slack {
				t.Fatalf("query %d row %d: lower bound %v above exact %v", qi, ri, lo, exact)
			}
			if exact > hi+slack {
				t.Fatalf("query %d row %d: exact %v above upper bound %v", qi, ri, exact, hi)
			}
		}
	}
}

// TestQuantizeTableConstant covers the delta=0 degenerate case: a table
// that is constant per sub-quantizer must quantize to all-zero entries with
// bias carrying the whole distance.
func TestQuantizeTableConstant(t *testing.T) {
	pq, _ := train4(t, 100, 16, 31)
	table := make([]float32, pq.M*pq.Ks)
	for m := 0; m < pq.M; m++ {
		for c := 0; c < pq.Ks; c++ {
			table[m*pq.Ks+c] = float32(m + 1)
		}
	}
	lut8 := make([]uint8, len(table))
	bias, delta, _ := pq.QuantizeTableInto(table, lut8, 0, 0)
	if delta != 1 {
		t.Fatalf("constant table: delta %v, want forced 1", delta)
	}
	wantBias := float32(0)
	for m := 0; m < pq.M; m++ {
		wantBias += float32(m + 1)
	}
	if bias != wantBias {
		t.Fatalf("constant table: bias %v, want %v", bias, wantBias)
	}
	for i, v := range lut8 {
		if v != 0 {
			t.Fatalf("constant table: lut8[%d] = %d, want 0", i, v)
		}
	}
}

// TestQuantizeTableThresholdRelative covers the scale a scan asks for once
// it has a k-th best distance: a row summing to `at` lands on about `steps`,
// every saturated quantized sum is still a lower bound of its float sum,
// entries far above the threshold clamp at 255, and the degenerate requests
// — steps = 0, `at` at or under bias beyond what float32 resolves, a table
// with a negative entry — get the full-spread scale or the precision floor,
// never a scale that is zero, negative or not finite.
func TestQuantizeTableThresholdRelative(t *testing.T) {
	pq, data := train4(t, 400, 32, 23)
	table := make([]float32, pq.M*pq.Ks)
	lut8 := make([]uint8, pq.M*pq.Ks)
	code := make([]byte, pq.M)
	pq.ADCTableInto(data.Row(0), table)
	fullBias, fullDelta, fullMag := pq.QuantizeTableInto(table, lut8, 0, 0)

	const steps = 250
	at := fullBias + 20*fullDelta // a threshold twenty full-spread steps up
	bias, delta, mag := pq.QuantizeTableInto(table, lut8, at, steps)
	if bias != fullBias || mag != at {
		t.Fatalf("bias %v mag %v, want %v and %v", bias, mag, fullBias, at)
	}
	if got := (at - bias) / delta; got < steps-1 || got > steps+1 {
		t.Fatalf("threshold lands on step %v, want %d", got, steps)
	}
	clamped := 0
	for _, v := range lut8 {
		if v == 255 {
			clamped++
		}
	}
	if clamped == 0 {
		t.Fatal("no entry clamps under a scale 12 times finer than the spread")
	}
	for ri := 0; ri < 100; ri++ {
		pq.EncodeInto(data.Row(ri), code)
		var exact float32
		qsum := 0
		for m := 0; m < pq.M; m++ {
			exact += table[m*pq.Ks+int(code[m])]
			qsum += int(lut8[m*pq.Ks+int(code[m])])
		}
		if lo := bias + delta*float32(min(qsum, 255)); lo > exact*(1+1e-5) {
			t.Fatalf("row %d: saturated lower bound %v above exact %v", ri, lo, exact)
		}
	}

	for name, c := range map[string]struct{ at, steps float32 }{
		"steps = 0": {at, 0}, "at = 0": {0, steps},
	} {
		if _, d, m := pq.QuantizeTableInto(table, lut8, c.at, c.steps); d != fullDelta || m != fullMag {
			t.Fatalf("%s: delta %v mag %v, want the full-spread %v and %v", name, d, m, fullDelta, fullMag)
		}
	}
	floor := 4 * float32(pq.M) / (1 << 24) * bias
	if _, d, _ := pq.QuantizeTableInto(table, lut8, bias, steps); d != floor {
		t.Fatalf("at = bias: delta %v, want the float32 floor %v", d, floor)
	}
	table[3] = -table[3] - 1
	if _, d, _ := pq.QuantizeTableInto(table, lut8, at, steps); !(d > delta) {
		t.Fatalf("negative entry: delta %v, want a full-spread scale above %v", d, delta)
	}
}
