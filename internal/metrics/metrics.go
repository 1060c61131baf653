// Package metrics provides the evaluation bookkeeping of Section IV:
// precision/recall/F-score accounting for the annotation tasks
// and speedup ratios.
package metrics

import (
	"fmt"
	"time"
)

// Confusion accumulates true positives, false positives, and false
// negatives for a task. The zero value is ready to use.
type Confusion struct {
	TP, FP, FN int
}

// Add merges another confusion into c.
func (c *Confusion) Add(o Confusion) {
	c.TP += o.TP
	c.FP += o.FP
	c.FN += o.FN
}

// Record registers one prediction outcome: predicted reports whether the
// system produced an answer, correct whether it matched the ground truth.
func (c *Confusion) Record(predicted, correct bool) {
	switch {
	case predicted && correct:
		c.TP++
	case predicted && !correct:
		c.FP++
		c.FN++ // the true answer was missed as well
	default:
		c.FN++
	}
}

// Precision returns TP/(TP+FP), or 0 when undefined.
func (c Confusion) Precision() float64 {
	if c.TP+c.FP == 0 {
		return 0
	}
	return float64(c.TP) / float64(c.TP+c.FP)
}

// Recall returns TP/(TP+FN), or 0 when undefined.
func (c Confusion) Recall() float64 {
	if c.TP+c.FN == 0 {
		return 0
	}
	return float64(c.TP) / float64(c.TP+c.FN)
}

// F1 returns the harmonic mean of precision and recall.
func (c Confusion) F1() float64 {
	p, r := c.Precision(), c.Recall()
	if p+r == 0 {
		return 0
	}
	return 2 * p * r / (p + r)
}

// String renders the confusion compactly.
func (c Confusion) String() string {
	return fmt.Sprintf("P=%.3f R=%.3f F=%.3f (tp=%d fp=%d fn=%d)",
		c.Precision(), c.Recall(), c.F1(), c.TP, c.FP, c.FN)
}

// Speedup returns how many times faster `mine` is than `baseline` (≥1 means
// faster). A zero or negative own time degrades gracefully to a large
// ratio rather than Inf so reports stay printable.
func Speedup(baseline, mine time.Duration) float64 {
	if mine <= 0 {
		mine = time.Nanosecond
	}
	return float64(baseline) / float64(mine)
}

// FormatSpeedup renders a ratio the way the paper's tables do ("20x").
func FormatSpeedup(ratio float64) string {
	if ratio >= 10 {
		return fmt.Sprintf("%.0fx", ratio)
	}
	return fmt.Sprintf("%.1fx", ratio)
}
