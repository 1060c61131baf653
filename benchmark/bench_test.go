package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"

	"emblookup/internal/kg"
)

// The serving children and spinners are this binary re-executed; under
// `go test` that is the test binary, so it needs the same switch main has.
func TestMain(m *testing.M) {
	if helper, err := runHelper(); helper {
		if err != nil {
			fmt.Fprintln(os.Stderr, "benchmark helper:", err)
			os.Exit(1)
		}
		os.Exit(0)
	}
	os.Exit(m.Run())
}

func smallGraph(n int) *kg.Graph {
	cfg := kg.DefaultGeneratorConfig(kg.WikidataProfile, n)
	cfg.Seed = prepSeed
	g, _ := kg.Generate(cfg)
	return g
}

// Same seed → same bytes, different seed → different bytes, for every
// stream generator; and cluster_miss's stream is single_miss's.
func TestStreamsAreDeterministic(t *testing.T) {
	g := smallGraph(2000)
	dir := t.TempDir()
	gens := map[string]func(seed uint64) *stream{
		"noised": func(seed uint64) *stream { return noisedLookups(g, seed, 500) },
		"bulk":   func(seed uint64) *stream { return bulkRequests(g, seed, 5, 256) },
		"zipf":   func(seed uint64) *stream { return zipfLookups(g, seed, 500) },
		"ingest": func(seed uint64) *stream { s, _ := ingestBatches(g, seed, 10, ingestPerBatch); return s },
	}
	for name, gen := range gens {
		digest := func(seed uint64) streamInfo {
			info, err := gen(seed).write(filepath.Join(dir, name+".txt"))
			if err != nil {
				t.Fatal(err)
			}
			return info
		}
		a, b, c := digest(7), digest(7), digest(8)
		if a != b {
			t.Errorf("%s: seed 7 twice gave %+v and %+v", name, a, b)
		}
		if a.SHA256 == c.SHA256 {
			t.Errorf("%s: seeds 7 and 8 gave the same bytes", name)
		}
	}
	short, long := noisedLookups(g, 7, 100), noisedLookups(g, 7, 400)
	for i, l := range short.Lines {
		if long.Lines[i] != l {
			t.Fatalf("line %d: a longer stream of the same seed does not extend the shorter one", i)
		}
	}
	seen := map[string]bool{}
	for _, l := range long.Lines {
		if seen[strings.ToLower(l)] {
			t.Fatalf("noised lookups repeat %q: the cache could hit", l)
		}
		seen[strings.ToLower(l)] = true
	}
	bulk := bulkRequests(g, 7, 20, 256)
	repeats, cells := 0, 0
	for _, l := range bulk.Lines {
		inRow := map[string]bool{}
		for _, c := range strings.Split(l, cellSep) {
			cells++
			if inRow[c] {
				repeats++
			}
			inRow[c] = true
		}
	}
	if share := float64(repeats) / float64(cells); share < 0.05 || share > 0.15 {
		t.Errorf("bulk requests repeat %.1f%% of their cells, want about 10%%", 100*share)
	}
}

var (
	nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitRE = regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
)

// BENCHMARK.json and the program must name the same workloads and metrics.
func TestContractMatchesProgram(t *testing.T) {
	spec, err := loadSpec(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	if len(spec.Paths) != 1 || spec.Paths[0] != "benchmark" {
		t.Errorf("paths = %v, want [benchmark]", spec.Paths)
	}
	if spec.RunSeconds < 1 || spec.RunSeconds > 60 {
		t.Errorf("run_seconds = %d", spec.RunSeconds)
	}
	var gated []workload
	for _, w := range workloads {
		if w.Gated {
			gated = append(gated, w)
		}
	}
	if len(spec.Workloads) != len(gated) {
		t.Fatalf("%d workloads in BENCHMARK.json, %d gated in the program", len(spec.Workloads), len(gated))
	}
	for i, w := range gated {
		if spec.Workloads[i].Name != w.Name || spec.Workloads[i].Why != w.Why {
			t.Errorf("workload %d: BENCHMARK.json has %q / %q, the program %q / %q", i, spec.Workloads[i].Name, spec.Workloads[i].Why, w.Name, w.Why)
		}
	}
	for _, w := range workloads {
		if !nameRE.MatchString(w.Name) || len(w.Why) > 200 || strings.Contains(w.Why, "\n") {
			t.Errorf("workload %q: bad name or reason", w.Name)
		}
	}
	same := func(kind string, got []specMetric, want []metricDef) {
		if len(got) != len(want) {
			t.Fatalf("%s: %d metrics in BENCHMARK.json, %d in the program", kind, len(got), len(want))
		}
		seen := map[string]bool{}
		for i, d := range want {
			if got[i].Name != d.Name || got[i].Unit != d.Unit {
				t.Errorf("%s metric %d: BENCHMARK.json has %s [%s], the program %s [%s]", kind, i, got[i].Name, got[i].Unit, d.Name, d.Unit)
			}
			if !nameRE.MatchString(d.Name) || !unitRE.MatchString(d.Unit) || seen[d.Name] {
				t.Errorf("%s metric %q [%s]: bad or repeated name, or bad unit", kind, d.Name, d.Unit)
			}
			seen[d.Name] = true
			if got[i].Better != "lower" && got[i].Better != "higher" {
				t.Errorf("%s metric %s: better = %q", kind, d.Name, got[i].Better)
			}
		}
	}
	same("end_to_end", spec.EndToEnd, endToEnd)
	same("per_layer", spec.PerLayer, perLayer)
	setup := false
	for _, d := range spec.EndToEnd {
		if d.Bound <= 0 || d.Bound > 0.25 {
			t.Errorf("%s: bound %v outside (0, 0.25]", d.Name, d.Bound)
		}
		setup = setup || (d.Name == "setup_s" && d.Unit == "s" && d.Better == "lower")
	}
	if !setup {
		t.Error("no setup_s [s, lower] among the end-to-end metrics")
	}
	if len(spec.PerLayer) > 128 {
		t.Errorf("%d per-layer metrics, at most 128 allowed", len(spec.PerLayer))
	}
}

// TestSmoke runs the whole benchmark small: a 2 000-entity graph, 1 s runs,
// all five workloads with their traced replay. It asserts structure, not
// speed: every metric is emitted, the answers are correct, and the peel
// sums to the wall time.
func TestSmoke(t *testing.T) {
	if raceEnabled {
		t.Skip("trains two encoders and times five workloads; too slow and meaningless under the race detector")
	}
	sz := sizing{
		Entities: 2000, DonorEntities: 200, DonorEpochs: 1, TrainSample: 2000,
		PoolSize: 100, CheckN: 40, TraceN: 40, TraceBulkN: 2, BulkCells: 256,
	}
	dir := t.TempDir()
	e, cleanup, err := newEnv(dir, sz, t.Logf)
	if err != nil {
		t.Fatal(err)
	}
	defer cleanup()
	traceOut := filepath.Join(dir, "trace.jsonl")
	digests := map[string]string{}
	for _, w := range workloads {
		res, err := e.runWorkload(w, 7, 1, true, traceOut)
		if err != nil {
			t.Fatalf("%s: %v", w.Name, err)
		}
		if !res.Correct || res.Attempted < 1 {
			t.Errorf("%s: correct=%v attempted=%d failed=%d: %v", w.Name, res.Correct, res.Attempted, res.Failed, res.Notes)
		}
		m := res.Metrics
		for _, d := range endToEnd {
			if v, ok := m[d.Name]; !ok || v <= 0 || math.IsNaN(v) || math.IsInf(v, 0) {
				t.Errorf("%s: end-to-end metric %s = %v (present %v), want a positive number", w.Name, d.Name, v, ok)
			}
		}
		for _, d := range perLayer {
			if v, ok := m[d.Name]; !ok || math.IsNaN(v) || math.IsInf(v, 0) {
				t.Errorf("%s: per-layer metric %s = %v (present %v)", w.Name, d.Name, v, ok)
			}
		}
		known := map[string]bool{}
		for _, d := range append(append([]metricDef(nil), endToEnd...), perLayer...) {
			known[d.Name] = true
		}
		for name := range m {
			if !known[name] {
				t.Errorf("%s: emits %s, which BENCHMARK.json does not list", w.Name, name)
			}
		}
		wall, sum := m["trace.wall_mean_us"], m["trace.self_sum_us"]
		if wall <= 0 || math.Abs(sum-wall) > 1e-6*wall {
			t.Errorf("%s: layer self times sum to %.3f us, loopback wall time is %.3f us", w.Name, sum, wall)
		}
		for _, s := range res.Streams {
			if s.Requests < 1 || len(s.SHA256) != 64 {
				t.Errorf("%s: stream %+v", w.Name, s)
			}
		}
		digests[w.Name] = res.Digest
	}
	if digests["single_miss"] != digests["cluster_miss"] {
		t.Errorf("cluster_miss's checked answers differ from single_miss's: %s vs %s", digests["cluster_miss"], digests["single_miss"])
	}

	// trace.jsonl: one span per (request, layer), children inside parents.
	f, err := os.Open(traceOut)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	perWorkload := map[string]int{}
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		var sp span
		if err := json.Unmarshal(sc.Bytes(), &sp); err != nil {
			t.Fatalf("trace.jsonl: %v", err)
		}
		if sp.EndUs < sp.StartUs || (sp.Parent == "") != (sp.Name == "loopback") {
			t.Fatalf("trace.jsonl: bad span %+v", sp)
		}
		perWorkload[sp.Workload]++
	}
	for _, w := range workloads {
		if perWorkload[w.Name] == 0 {
			t.Errorf("trace.jsonl has no spans of %s", w.Name)
		}
	}
}
