package main

import (
	"encoding/json"
	"fmt"
	"os"
)

// benchSpec is the part of BENCHMARK.json the benchmark itself reads.
type benchSpec struct {
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []specMetric `json:"end_to_end"`
	PerLayer []specMetric `json:"per_layer"`
}

type specMetric struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

func loadSpec(path string) (*benchSpec, error) {
	buf, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var s benchSpec
	if err := json.Unmarshal(buf, &s); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &s, nil
}

func loadReport(path string) (*report, error) {
	buf, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var r report
	if err := json.Unmarshal(buf, &r); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &r, nil
}

func compareFiles(specPath, aPath, bPath string) error {
	spec, err := loadSpec(specPath)
	if err != nil {
		return err
	}
	a, err := loadReport(aPath)
	if err != nil {
		return err
	}
	b, err := loadReport(bPath)
	if err != nil {
		return err
	}
	return compareReports(spec, a, b)
}

// compareReports prints, per workload and end-to-end metric, both values,
// how much worse b is than a as a share of a, and the bound; it fails when a
// gap exceeds its bound. Getting better is never a failure.
func compareReports(spec *benchSpec, a, b *report) error {
	over := 0
	fmt.Printf("\n%-18s %-20s %14s %14s %9s %7s\n", "workload", "metric", "first", "second", "worse by", "bound")
	for _, w := range workloads { // the ungated one too
		wa, wb := a.Workloads[w.Name], b.Workloads[w.Name]
		if wa == nil || wb == nil {
			return fmt.Errorf("workload %s is missing from a report", w.Name)
		}
		for _, d := range spec.EndToEnd {
			va, vb := wa.EndToEnd[d.Name].Value, wb.EndToEnd[d.Name].Value
			worse := 0.0
			if va != 0 {
				worse = (vb - va) / va
				if d.Better == "higher" {
					worse = -worse
				}
			}
			flag := ""
			if worse > d.Bound {
				flag = "  OVER"
				over++
			}
			fmt.Printf("%-18s %-20s %14.4f %14.4f %+8.1f%% %6.0f%%%s\n", w.Name, d.Name, va, vb, worse*100, d.Bound*100, flag)
		}
	}
	if over > 0 {
		return fmt.Errorf("%d workload × metric pairs are worse than their bound", over)
	}
	return nil
}
