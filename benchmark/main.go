// Command benchmark is the repository's end-to-end benchmark: five served
// workloads over one 100 000-entity graph, measured over real loopback HTTP
// with tracing off, and a traced replay that peels each request into
// per-layer self times. README.md in this directory describes the workloads
// and metrics; BENCHMARK.json at the repository root is its contract.
//
//	go run ./benchmark -seed 42                  every workload, both metric sets
//	go run ./benchmark -workload single_miss \
//	    -seed 7 -seconds 20 -trace 0             one run, one JSON result line
//	go run ./benchmark -repeat 2                 two sets of runs, compared
//	go run ./benchmark -compare a.json b.json    two saved reports, compared
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"time"

	"emblookup/internal/kg"
)

// report is what a run over every workload writes (-out) and -compare reads.
type report struct {
	Seed      uint64             `json:"seed"`
	Seconds   int                `json:"seconds"`
	NumCPU    int                `json:"num_cpu"`
	Workloads map[string]*wlJSON `json:"workloads"`
}

type wlJSON struct {
	Correct   bool                `json:"correct"`
	Attempted int                 `json:"attempted"`
	Failed    int                 `json:"failed"`
	EndToEnd  map[string]measured `json:"end_to_end"`
	PerLayer  map[string]measured `json:"per_layer"`
	Streams   []streamInfo        `json:"streams"`
	Digest    string              `json:"sample_digest"`
	Notes     []string            `json:"notes,omitempty"`
}

// line is the last line of standard output of a single-workload run.
type line struct {
	Correct   bool                `json:"correct"`
	Attempted int                 `json:"attempted"`
	Failed    int                 `json:"failed"`
	Metrics   map[string]measured `json:"metrics"`
}

func main() {
	if helper, err := runHelper(); helper {
		if err != nil {
			fmt.Fprintln(os.Stderr, "benchmark helper:", err)
			os.Exit(1)
		}
		return
	}
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		os.Exit(1)
	}
}

func run() error {
	var (
		name     = flag.String("workload", "", "run only this workload and print one JSON result line (default: all five, as a report)")
		seed     = flag.Uint64("seed", 42, "seed of the generated request streams")
		seconds  = flag.Int("seconds", 20, "length of each timed run")
		trace    = flag.Int("trace", 0, "with -workload: 1 also runs the traced replay and prints the per-layer metrics instead of the end-to-end ones")
		cacheDir = flag.String("cache-dir", filepath.Join(".bench_build", "emblookup-bench"), "where the prepared graph, encoder and quality pool are kept between runs")
		out      = flag.String("out", "", "write the all-workload report to this file")
		traceOut = flag.String("trace-out", "", "where the traced replay appends its spans (default <cache-dir>/trace.jsonl)")
		repeat   = flag.Int("repeat", 0, "run every workload this many times (same seed, back to back) and compare the sets against the bounds")
		compare  = flag.Bool("compare", false, "compare the two report files given as arguments against the bounds")
		specPath = flag.String("spec", "BENCHMARK.json", "the benchmark contract: metric bounds for -repeat and -compare")
	)
	flag.IntVar(seconds, "run-seconds", 20, "alias of -seconds")
	flag.Parse()

	if *compare {
		if flag.NArg() != 2 {
			return fmt.Errorf("-compare needs two report files")
		}
		return compareFiles(*specPath, flag.Arg(0), flag.Arg(1))
	}
	if *seconds < 1 {
		return fmt.Errorf("-seconds must be at least 1")
	}
	if *traceOut == "" {
		*traceOut = filepath.Join(*cacheDir, "trace.jsonl")
	}
	logf := func(format string, args ...any) { fmt.Fprintf(os.Stderr, format+"\n", args...) }
	e, cleanup, err := newEnv(*cacheDir, fullSizing(), logf)
	if err != nil {
		return err
	}
	defer cleanup()

	if *name != "" {
		w, ok := findWorkload(*name)
		if !ok {
			return fmt.Errorf("unknown workload %q", *name)
		}
		res, err := e.runWorkload(w, *seed, *seconds, *trace == 1, *traceOut)
		if err != nil {
			return err
		}
		for _, n := range res.Notes {
			logf("%s: %s", w.Name, n)
		}
		defs := endToEnd
		if *trace == 1 {
			defs = perLayer
		}
		buf, err := json.Marshal(line{Correct: res.Correct, Attempted: res.Attempted, Failed: res.Failed, Metrics: pick(defs, res.Metrics)})
		if err != nil {
			return err
		}
		fmt.Println(string(buf))
		if !res.Correct {
			return fmt.Errorf("%s: %d of %d operations failed or answered wrongly", w.Name, res.Failed, res.Attempted)
		}
		return nil
	}

	sets := max(*repeat, 1)
	var reports []*report
	for i := 0; i < sets; i++ {
		rep, err := e.runAll(*seed, *seconds, *traceOut)
		if err != nil {
			return err
		}
		reports = append(reports, rep)
		printReport(rep)
	}
	if *out != "" {
		buf, err := json.MarshalIndent(reports[len(reports)-1], "", "  ")
		if err != nil {
			return err
		}
		if err := os.WriteFile(*out, append(buf, '\n'), 0o644); err != nil {
			return err
		}
	}
	for _, rep := range reports {
		for name, w := range rep.Workloads {
			if !w.Correct {
				return fmt.Errorf("%s: %d of %d operations failed or answered wrongly", name, w.Failed, w.Attempted)
			}
		}
	}
	if sets > 1 {
		spec, err := loadSpec(*specPath)
		if err != nil {
			return err
		}
		return compareReports(spec, reports[0], reports[len(reports)-1])
	}
	return nil
}

// newEnv prepares (or finds prepared) the per-checkout state and loads what
// every run of this invocation shares.
func newEnv(cacheDir string, sz sizing, logf func(string, ...any)) (*env, func(), error) {
	exe, err := os.Executable()
	if err != nil {
		return nil, nil, fmt.Errorf("resolving own binary for the serving children: %w", err)
	}
	prep, err := prepare(cacheDir, sz, logf)
	if err != nil {
		return nil, nil, fmt.Errorf("prepare: %w", err)
	}
	start := time.Now()
	g, err := kg.LoadFile(prep.GraphPath)
	if err != nil {
		return nil, nil, fmt.Errorf("loading graph: %w", err)
	}
	loadS := time.Since(start).Seconds()
	pool, err := loadPool(prep.PoolPath)
	if err != nil {
		return nil, nil, err
	}
	runDir, err := os.MkdirTemp(cacheDir, "run-")
	if err != nil {
		return nil, nil, err
	}
	e := &env{prep: prep, graph: g, pool: pool, loadS: loadS, runDir: runDir, exe: exe, logf: logf}
	return e, func() { os.RemoveAll(runDir) }, nil
}

// runAll runs every workload once, traced replay included.
func (e *env) runAll(seed uint64, seconds int, traceOut string) (*report, error) {
	if err := os.RemoveAll(traceOut); err != nil {
		return nil, err
	}
	rep := &report{Seed: seed, Seconds: seconds, NumCPU: runtime.NumCPU(), Workloads: map[string]*wlJSON{}}
	for _, w := range workloads {
		e.logf("running %s", w.Name)
		res, err := e.runWorkload(w, seed, seconds, true, traceOut)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", w.Name, err)
		}
		rep.Workloads[w.Name] = &wlJSON{
			Correct: res.Correct, Attempted: res.Attempted, Failed: res.Failed,
			EndToEnd: pick(endToEnd, res.Metrics), PerLayer: pick(perLayer, res.Metrics),
			Streams: res.Streams, Digest: res.Digest, Notes: res.Notes,
		}
	}
	// cluster_miss replays single_miss's mentions; its checked answers must
	// be single_miss's, bit for bit.
	if a, b := rep.Workloads["single_miss"], rep.Workloads["cluster_miss"]; a.Digest != b.Digest {
		b.Correct = false
		b.Failed++
		b.Notes = append(b.Notes, fmt.Sprintf("checked answers differ from single_miss (digest %s vs %s)", b.Digest, a.Digest))
	}
	return rep, nil
}

func printReport(rep *report) {
	fmt.Printf("seed %d, %d s runs, %d CPUs\n", rep.Seed, rep.Seconds, rep.NumCPU)
	for _, w := range workloads {
		r := rep.Workloads[w.Name]
		fmt.Printf("\n%s  correct=%v attempted=%d failed=%d\n", w.Name, r.Correct, r.Attempted, r.Failed)
		for _, s := range r.Streams {
			fmt.Printf("  stream %-8s %7d requests  sha256 %s\n", s.Name, s.Requests, s.SHA256)
		}
		for _, d := range endToEnd {
			fmt.Printf("  %-32s %14.4f %s\n", d.Name, r.EndToEnd[d.Name].Value, d.Unit)
		}
		for _, d := range perLayer {
			if v := r.PerLayer[d.Name].Value; v != 0 {
				fmt.Printf("    %-30s %14.4f %s\n", d.Name, v, d.Unit)
			}
		}
		notes := append([]string(nil), r.Notes...)
		sort.Strings(notes)
		for _, n := range notes[:min(len(notes), 5)] {
			fmt.Printf("  ! %s\n", n)
		}
	}
}
