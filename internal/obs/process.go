package obs

import (
	"bytes"
	"os"
	"runtime/metrics"
	"strconv"
)

// Process memory, on the process-wide registry from the start: what the
// kernel holds resident for the process now and at its peak (VmRSS and VmHWM
// of /proc/self/status — the peak is the field the end-to-end benchmark
// reports as rss_peak_mb), and the heap the last garbage collection found
// live (0 until the first collection has run), which steady RSS runs at about
// twice of under the default GC target.
// All three are read when /metrics is scraped and cost a request nothing.
func init() {
	r := Default()
	r.GaugeFunc("emblookup_process_resident_bytes", func() float64 { return procStatusBytes("VmRSS:") })
	r.GaugeFunc("emblookup_process_resident_peak_bytes", func() float64 { return procStatusBytes("VmHWM:") })
	r.GaugeFunc("emblookup_go_heap_live_bytes", func() float64 {
		s := []metrics.Sample{{Name: "/gc/heap/live:bytes"}}
		metrics.Read(s)
		if s[0].Value.Kind() != metrics.KindUint64 {
			return 0
		}
		return float64(s[0].Value.Uint64())
	})
}

// procStatusBytes reads one "Field:   n kB" line of /proc/self/status; 0
// where /proc or the field is absent.
func procStatusBytes(field string) float64 {
	buf, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0
	}
	for _, line := range bytes.Split(buf, []byte("\n")) {
		if rest, ok := bytes.CutPrefix(line, []byte(field)); ok {
			if f := bytes.Fields(rest); len(f) > 0 {
				kb, _ := strconv.ParseFloat(string(f[0]), 64)
				return kb * 1024
			}
		}
	}
	return 0
}
