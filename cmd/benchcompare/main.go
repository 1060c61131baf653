// Command benchcompare diffs two benchmark snapshots (the schema written by
// `benchkg -bench-lookup` / `-bench-serve`) metric by metric and fails when
// a timing metric regresses beyond the threshold. `make bench-compare`
// regenerates fresh snapshots and runs this against the committed ones, so
// hot-path slowdowns surface as a red target rather than a silent drift.
//
// Usage:
//
//	benchcompare [-threshold 0.20] old.json new.json
//
// Exit status 1 when any timing metric (ns/us units) in new.json exceeds
// its old.json value by more than the threshold fraction. Non-timing
// metrics (qps, hit rates, allocation counts) are reported but never fail
// the run — throughput is environment-sensitive and allocations are guarded
// separately by the allocation benchmarks in `make verify`.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"log"
	"os"
	"strings"
)

type benchEnv struct {
	GoVersion  string `json:"go"`
	GOOS       string `json:"goos"`
	GOARCH     string `json:"goarch"`
	NumCPU     int    `json:"num_cpu"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	Entities   int    `json:"entities"`
	FastScan   string `json:"fastscan_kernel"`
}

type benchResult struct {
	Name    string             `json:"name"`
	Metrics map[string]float64 `json:"metrics"`
}

type benchSnapshot struct {
	Env     benchEnv      `json:"env"`
	Results []benchResult `json:"results"`
}

func load(path string) (benchSnapshot, error) {
	var s benchSnapshot
	buf, err := os.ReadFile(path)
	if err != nil {
		return s, err
	}
	if err := json.Unmarshal(buf, &s); err != nil {
		return s, fmt.Errorf("%s: %w", path, err)
	}
	return s, nil
}

// timingMetric reports whether a metric measures time (lower is better and
// a large increase is a regression).
func timingMetric(name string) bool {
	return strings.HasSuffix(name, "ns_per_op") ||
		strings.HasSuffix(name, "ns_per_query") ||
		strings.HasSuffix(name, "_us")
}

// parallelMetric reports whether a metric times a multi-worker code path
// (parallel build phases, hogwild training at hwN workers). On a
// single-core machine those timings measure goroutine oversubscription,
// not the code, so they are reported but never gated there.
func parallelMetric(name string) bool {
	return name == "par_us" ||
		(strings.HasPrefix(name, "hw") && strings.HasSuffix(name, "_us"))
}

func main() {
	log.SetFlags(0)
	threshold := flag.Float64("threshold", 0.20, "regression threshold as a fraction (0.20 = +20%)")
	flag.Parse()
	if flag.NArg() != 2 {
		log.Fatal("usage: benchcompare [-threshold 0.20] old.json new.json")
	}
	oldSnap, err := load(flag.Arg(0))
	if err != nil {
		log.Fatal(err)
	}
	newSnap, err := load(flag.Arg(1))
	if err != nil {
		log.Fatal(err)
	}

	if oldSnap.Env != newSnap.Env {
		fmt.Printf("note: environments differ (old %+v, new %+v) — deltas may reflect the machine, not the code\n",
			oldSnap.Env, newSnap.Env)
	}
	singleCore := oldSnap.Env.NumCPU <= 1 || newSnap.Env.NumCPU <= 1
	if singleCore {
		fmt.Println("note: single-core environment — parallel-path timings (par_us, hw*_us) reported without gating")
	}

	oldByName := make(map[string]map[string]float64, len(oldSnap.Results))
	for _, r := range oldSnap.Results {
		oldByName[r.Name] = r.Metrics
	}

	regressions := 0
	for _, r := range newSnap.Results {
		old, ok := oldByName[r.Name]
		if !ok {
			fmt.Printf("%-24s (new result, no baseline)\n", r.Name)
			continue
		}
		for metric, nv := range r.Metrics {
			ov, ok := old[metric]
			if !ok || ov == 0 {
				continue
			}
			delta := (nv - ov) / ov
			mark := ""
			if timingMetric(metric) && delta > *threshold {
				if singleCore && parallelMetric(metric) {
					mark = "  (not gated: single core)"
				} else {
					mark = "  REGRESSION"
					regressions++
				}
			}
			fmt.Printf("%-24s %-18s %12.1f -> %12.1f  %+6.1f%%%s\n",
				r.Name, metric, ov, nv, 100*delta, mark)
		}
	}
	if regressions > 0 {
		log.Fatalf("benchcompare: %d timing metric(s) regressed beyond %.0f%%", regressions, 100**threshold)
	}
	fmt.Println("benchcompare: OK")
}
