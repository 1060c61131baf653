package obs

import (
	"fmt"
	"math/rand/v2"
	"os"
	"runtime"
	"sort"
	"strings"
	"sync"
	"testing"
	"time"
)

func TestCounterExactUnderConcurrency(t *testing.T) {
	r := New()
	c := r.Counter("test_total")
	const goroutines, perG = 16, 10000
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < perG; i++ {
				c.Inc()
			}
		}()
	}
	wg.Wait()
	if got := c.Value(); got != goroutines*perG {
		t.Fatalf("counter = %d, want %d", got, goroutines*perG)
	}
}

func TestCounterGetOrCreateShares(t *testing.T) {
	r := New()
	a := r.Counter("shared_total")
	b := r.Counter("shared_total")
	if a != b {
		t.Fatal("same name returned distinct counters")
	}
	a.Add(3)
	if b.Value() != 3 {
		t.Fatalf("shared counter = %d, want 3", b.Value())
	}
}

func TestKindMismatchPanics(t *testing.T) {
	r := New()
	r.Counter("x_total")
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on kind mismatch")
		}
	}()
	r.Histogram("x_total")
}

func TestDisabledRegistryRecordsNothing(t *testing.T) {
	r := New()
	c := r.Counter("c_total")
	h := r.Histogram("h_seconds")
	g := r.Gauge("g")
	r.SetEnabled(false)
	c.Add(5)
	h.Observe(time.Millisecond)
	g.Set(7)
	if c.Value() != 0 || h.Count() != 0 || g.Value() != 0 {
		t.Fatalf("disabled registry recorded: c=%d h=%d g=%v", c.Value(), h.Count(), g.Value())
	}
	r.SetEnabled(true)
	c.Add(5)
	if c.Value() != 5 {
		t.Fatalf("re-enabled counter = %d, want 5", c.Value())
	}
}

func TestNilRecordersAreNoOps(t *testing.T) {
	var c *Counter
	var g *Gauge
	var h *Histogram
	c.Add(1)
	c.Inc()
	g.Set(1)
	h.Observe(time.Second)
	h.ObserveVal(3)
	h.Since(time.Now())
	if c.Value() != 0 || g.Value() != 0 || h.Count() != 0 || h.Quantile(0.5) != 0 {
		t.Fatal("nil recorders must read as zero")
	}
}

func TestBucketIndexMonotoneAndBounded(t *testing.T) {
	prev := -1
	for _, v := range []int64{0, 1, 7, 8, 9, 15, 16, 17, 100, 1000, 1 << 20, 1<<40 + 12345, 1<<62 + 99, 1<<63 - 1} {
		i := bucketIndex(v)
		if i < prev {
			t.Fatalf("bucketIndex not monotone at %d: %d < %d", v, i, prev)
		}
		if i < 0 || i >= histBuckets {
			t.Fatalf("bucketIndex(%d) = %d out of range", v, i)
		}
		lo, hi := bucketBounds(i)
		// The saturated top bucket is closed at MaxInt64.
		if v < lo || (v >= hi && hi != 1<<63-1) {
			t.Fatalf("value %d outside its bucket [%d,%d)", v, lo, hi)
		}
		prev = i
	}
}

// TestHistogramQuantileAccuracy checks the log-bucketed quantile estimate
// against an exact sort on random workloads: the bucket midpoint must land
// within the bucket's ≤12.5% relative width of the true order statistic.
func TestHistogramQuantileAccuracy(t *testing.T) {
	rng := rand.New(rand.NewPCG(1, 2))
	workloads := map[string]func() int64{
		// Uniform micro-to-milli latencies.
		"uniform": func() int64 { return 1_000 + rng.Int64N(5_000_000) },
		// Log-normal-ish: the shape real serving latency takes.
		"lognormal": func() int64 {
			v := 50_000.0
			for i := 0; i < 4; i++ {
				v *= 0.5 + rng.Float64()
			}
			return int64(v) + 1
		},
		// Bimodal: cache hits vs misses.
		"bimodal": func() int64 {
			if rng.IntN(2) == 0 {
				return 200 + rng.Int64N(400)
			}
			return 80_000 + rng.Int64N(40_000)
		},
	}
	for name, gen := range workloads {
		h := NewHistogram()
		const n = 20000
		exact := make([]int64, n)
		for i := range exact {
			v := gen()
			exact[i] = v
			h.ObserveVal(v)
		}
		sort.Slice(exact, func(a, b int) bool { return exact[a] < exact[b] })
		snap := h.Snapshot()
		if snap.Total != n {
			t.Fatalf("%s: total = %d, want %d", name, snap.Total, n)
		}
		for _, p := range []float64{0, 0.25, 0.5, 0.9, 0.95, 0.99, 1} {
			got := snap.Quantile(p)
			want := exact[int(p*float64(n-1))]
			relErr := float64(got-want) / float64(want)
			if relErr < 0 {
				relErr = -relErr
			}
			if relErr > 0.125 {
				t.Errorf("%s p%g: estimate %d vs exact %d (rel err %.3f)", name, p*100, got, want, relErr)
			}
		}
	}
}

// TestRegistryHammer drives one registry from 16 goroutines mixing every
// recording primitive with concurrent expositions — the -race test the
// verify gate runs (scripts/verify.sh).
func TestRegistryHammer(t *testing.T) {
	r := New()
	c := r.Counter("hammer_total")
	h := r.Histogram("hammer_seconds")
	g := r.Gauge("hammer_gauge")
	r.CounterFunc("hammer_func_total", func() float64 { return float64(c.Value()) })
	const goroutines, perG = 16, 2000
	var wg sync.WaitGroup
	for w := 0; w < goroutines; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perG; i++ {
				c.Inc()
				h.ObserveVal(int64(i + 1))
				g.Set(float64(i))
				if i%500 == 0 {
					var sb strings.Builder
					if err := r.WritePrometheus(&sb); err != nil {
						t.Error(err)
					}
				}
			}
		}(w)
	}
	wg.Wait()
	if c.Value() != goroutines*perG {
		t.Fatalf("counter = %d, want %d", c.Value(), goroutines*perG)
	}
	if h.Count() != goroutines*perG {
		t.Fatalf("histogram count = %d, want %d", h.Count(), goroutines*perG)
	}
}

func TestWritePrometheusFormat(t *testing.T) {
	r := New()
	r.Counter(Labels("kg_lookups_total", "kind", "pq")).Add(7)
	r.Counter(Labels("kg_lookups_total", "kind", "flat")).Add(3)
	r.Gauge("kg_nodes").Set(2)
	r.GaugeFunc("kg_entries", func() float64 { return 42 })
	h := r.Histogram("kg_lookup_seconds")
	h.Observe(100 * time.Microsecond)
	h.Observe(200 * time.Microsecond)
	h.Observe(50 * time.Millisecond)
	var sb strings.Builder
	if err := r.WritePrometheus(&sb); err != nil {
		t.Fatal(err)
	}
	out := sb.String()

	for _, want := range []string{
		"# TYPE kg_lookups_total counter\n",
		`kg_lookups_total{kind="pq"} 7` + "\n",
		`kg_lookups_total{kind="flat"} 3` + "\n",
		"# TYPE kg_nodes gauge\n",
		"kg_nodes 2\n",
		"kg_entries 42\n",
		"# TYPE kg_lookup_seconds histogram\n",
		`kg_lookup_seconds_bucket{le="+Inf"} 3` + "\n",
		"kg_lookup_seconds_count 3\n",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("exposition missing %q in:\n%s", want, out)
		}
	}
	if strings.Count(out, "# TYPE kg_lookups_total") != 1 {
		t.Error("TYPE line emitted more than once per family")
	}
	// Family samples must be contiguous under their TYPE line.
	lines := strings.Split(strings.TrimSpace(out), "\n")
	seenDone := map[string]bool{}
	last := ""
	for _, ln := range lines {
		if strings.HasPrefix(ln, "# TYPE ") {
			fam := strings.Fields(ln)[2]
			if seenDone[fam] {
				t.Fatalf("family %s split across the exposition:\n%s", fam, out)
			}
			if last != "" {
				seenDone[last] = true
			}
			last = fam
		}
	}
	// Histogram buckets must be cumulative and end at the total.
	var cum []int
	for _, ln := range lines {
		if strings.HasPrefix(ln, "kg_lookup_seconds_bucket") {
			var v int
			if _, err := fmt.Sscanf(ln[strings.LastIndexByte(ln, ' ')+1:], "%d", &v); err != nil {
				t.Fatalf("parsing %q: %v", ln, err)
			}
			cum = append(cum, v)
		}
	}
	if !sort.IntsAreSorted(cum) || cum[len(cum)-1] != 3 {
		t.Fatalf("buckets not cumulative to total: %v", cum)
	}
}

func TestSecondsScaling(t *testing.T) {
	r := New()
	h := r.Histogram("scaled_seconds")
	h.Observe(1500 * time.Millisecond)
	var sb strings.Builder
	r.WritePrometheus(&sb)
	if !strings.Contains(sb.String(), "scaled_seconds_sum 1.5\n") {
		t.Fatalf("duration sum not scaled to seconds:\n%s", sb.String())
	}
	r2 := New()
	raw := r2.Histogram("batch_size")
	raw.ObserveVal(32)
	sb.Reset()
	r2.WritePrometheus(&sb)
	if !strings.Contains(sb.String(), "batch_size_sum 32\n") {
		t.Fatalf("raw histogram unexpectedly scaled:\n%s", sb.String())
	}
}

func TestHistogramSummary(t *testing.T) {
	h := NewHistogram()
	if s := h.Summary(); s.Count != 0 || s.P99Us != 0 {
		t.Fatalf("empty summary = %+v", s)
	}
	for i := 1; i <= 1000; i++ {
		h.Observe(time.Duration(i) * time.Microsecond)
	}
	s := h.Summary()
	if s.Count != 1000 {
		t.Fatalf("count = %d", s.Count)
	}
	if s.P50Us < 400 || s.P50Us > 600 {
		t.Fatalf("p50 = %vus, want ~500", s.P50Us)
	}
	if s.P99Us < 850 || s.P99Us > 1150 {
		t.Fatalf("p99 = %vus, want ~990", s.P99Us)
	}
}

func TestLabels(t *testing.T) {
	if got := Labels("f_total"); got != "f_total" {
		t.Fatal(got)
	}
	if got := Labels("f_total", "a", "1", "b", "2"); got != `f_total{a="1",b="2"}` {
		t.Fatal(got)
	}
}

// TestProcessMemoryGauges: the process-wide registry exposes resident, peak
// resident and live-heap bytes without anyone registering them, and an
// absent /proc field reads as 0 rather than failing the scrape.
func TestProcessMemoryGauges(t *testing.T) {
	runtime.GC() // the live-heap gauge reports what the last cycle marked
	var sb strings.Builder
	if err := Default().WritePrometheus(&sb); err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{
		"emblookup_process_resident_bytes",
		"emblookup_process_resident_peak_bytes",
		"emblookup_go_heap_live_bytes",
	} {
		if !strings.Contains(sb.String(), "# TYPE "+name+" gauge\n") {
			t.Errorf("/metrics lacks %s", name)
		}
	}
	_, entries := Default().snapshot()
	if live := entries["emblookup_go_heap_live_bytes"].f(); live <= 0 {
		t.Errorf("live heap = %v after a GC", live)
	}
	rss, peak := procStatusBytes("VmRSS:"), procStatusBytes("VmHWM:")
	if _, err := os.Stat("/proc/self/status"); err == nil && (rss <= 0 || peak < rss) {
		t.Errorf("resident %v, peak %v", rss, peak)
	}
	if v := procStatusBytes("NoSuchField:"); v != 0 {
		t.Errorf("absent field read as %v", v)
	}
}
