package metrics

import (
	"strings"
	"testing"
	"time"
)

func TestConfusionRecord(t *testing.T) {
	var c Confusion
	c.Record(true, true)   // TP
	c.Record(true, false)  // FP + FN
	c.Record(false, false) // FN
	if c.TP != 1 || c.FP != 1 || c.FN != 2 {
		t.Fatalf("confusion = %+v", c)
	}
}

func TestPrecisionRecallF1(t *testing.T) {
	c := Confusion{TP: 8, FP: 2, FN: 2}
	if p := c.Precision(); p != 0.8 {
		t.Fatalf("precision = %v", p)
	}
	if r := c.Recall(); r != 0.8 {
		t.Fatalf("recall = %v", r)
	}
	if f := c.F1(); f < 0.8-1e-9 || f > 0.8+1e-9 {
		t.Fatalf("f1 = %v", f)
	}
}

func TestZeroConfusionSafe(t *testing.T) {
	var c Confusion
	if c.Precision() != 0 || c.Recall() != 0 || c.F1() != 0 {
		t.Fatal("empty confusion should score 0 without dividing by zero")
	}
}

func TestAdd(t *testing.T) {
	a := Confusion{TP: 1, FP: 2, FN: 3}
	a.Add(Confusion{TP: 10, FP: 20, FN: 30})
	if a.TP != 11 || a.FP != 22 || a.FN != 33 {
		t.Fatalf("add = %+v", a)
	}
}

func TestConfusionString(t *testing.T) {
	s := Confusion{TP: 1}.String()
	if !strings.Contains(s, "F=") {
		t.Fatalf("String = %q", s)
	}
}

func TestSpeedup(t *testing.T) {
	if s := Speedup(100*time.Millisecond, 10*time.Millisecond); s != 10 {
		t.Fatalf("speedup = %v", s)
	}
	// Zero own time must not produce Inf.
	if s := Speedup(time.Second, 0); s <= 0 || s != s {
		t.Fatalf("degenerate speedup = %v", s)
	}
}

func TestFormatSpeedup(t *testing.T) {
	if got := FormatSpeedup(19.7); got != "20x" {
		t.Fatalf("FormatSpeedup = %q", got)
	}
	if got := FormatSpeedup(2.34); got != "2.3x" {
		t.Fatalf("FormatSpeedup = %q", got)
	}
}
