package main

import (
	"encoding/json"
	"fmt"
	"os"
	"runtime"
	"sort"

	"emblookup/internal/index"
)

// benchEnv records the machine and build context a snapshot was taken on,
// so a diff between two snapshots can tell a code regression from an
// environment change (different core count, Go release, corpus size, or a
// build or host on the portable fast-scan kernel).
type benchEnv struct {
	GoVersion  string `json:"go"`
	GOOS       string `json:"goos"`
	GOARCH     string `json:"goarch"`
	NumCPU     int    `json:"num_cpu"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	Entities   int    `json:"entities"`
	FastScan   string `json:"fastscan_kernel"`
}

func captureEnv(entities int) benchEnv {
	return benchEnv{
		GoVersion:  runtime.Version(),
		GOOS:       runtime.GOOS,
		GOARCH:     runtime.GOARCH,
		NumCPU:     runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		Entities:   entities,
		FastScan:   index.FastScanKernel(),
	}
}

// benchResult is one named measurement: a flat metric map so lookup rows
// (ns_per_op, allocs_per_op) and serving rows (qps, p50_us, cache_hit_rate)
// share one schema that cmd/benchcompare can diff metric-by-metric.
type benchResult struct {
	Name    string             `json:"name"`
	Metrics map[string]float64 `json:"metrics"`
}

// benchSnapshot is the on-disk layout of BENCH_lookup.json and
// BENCH_serve.json.
type benchSnapshot struct {
	Env     benchEnv      `json:"env"`
	Results []benchResult `json:"results"`
}

// writeSnapshot saves the snapshot and echoes each row to stdout with
// metrics in stable (sorted) order.
func writeSnapshot(path string, snap benchSnapshot) error {
	for _, r := range snap.Results {
		keys := make([]string, 0, len(r.Metrics))
		for k := range r.Metrics {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		fmt.Printf("%-24s", r.Name)
		for _, k := range keys {
			fmt.Printf("  %s=%.1f", k, r.Metrics[k])
		}
		fmt.Println()
	}
	buf, err := json.MarshalIndent(snap, "", "  ")
	if err != nil {
		return err
	}
	buf = append(buf, '\n')
	if err := os.WriteFile(path, buf, 0o644); err != nil {
		return err
	}
	fmt.Printf("wrote %s\n", path)
	return nil
}
