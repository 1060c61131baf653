package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"time"

	"emblookup/internal/core"
	"emblookup/internal/index"
	"emblookup/internal/kg"
)

// benchScale is the million-entity benchmark: for each entity count it
// measures what the v4 zero-copy artifact format (DESIGN.md §12) buys at
// that scale — cold attach time and resident memory against the gob
// format, recall@1/@10 against exact flat search, the served lookup
// latency distribution, and the IVF nprobe recall/latency trade-off.
//
// The model weights are trained once on a small donor graph; each scale
// then rebuilds only the index over its own graph (embedding every entity
// and clustering with a bounded training sample), which is how a real
// deployment grows a corpus under a fixed encoder. Cold attach runs in a
// fresh subprocess per measurement so the page cache state and heap are
// those of a genuinely cold process.
const (
	donorEntities    = 2000
	scaleTrainSample = 20000 // rows the coarse k-means / PQ train on at scale
	scaleQueries     = 200   // labels per recall measurement
	scaleLatencyOps  = 1000  // lookups per latency distribution
)

func parseScales(csv string) ([]int, error) {
	var out []int
	for _, part := range strings.Split(csv, ",") {
		part = strings.TrimSpace(part)
		if part == "" {
			continue
		}
		n, err := strconv.Atoi(part)
		if err != nil || n <= 0 {
			return nil, fmt.Errorf("bad scale %q (want a positive entity count)", part)
		}
		out = append(out, n)
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("no scales given")
	}
	sort.Ints(out)
	return out, nil
}

// donorModel trains the fixed encoder every scale shares. IVF-PQ with a
// bounded training sample is the only configuration that stays buildable
// and serveable at a million entities.
func donorModel(seed uint64) (*core.EmbLookup, error) {
	gCfg := kg.DefaultGeneratorConfig(kg.WikidataProfile, donorEntities)
	gCfg.Seed = seed
	g, _ := kg.Generate(gCfg)
	cfg := core.FastConfig()
	cfg.Epochs = 4
	cfg.IVF = true
	cfg.IVFNProbe = 16
	cfg.PQ.TrainSample = scaleTrainSample
	return core.Train(g, cfg)
}

func benchScale(path, scalesCSV string, seed uint64) error {
	scales, err := parseScales(scalesCSV)
	if err != nil {
		return err
	}
	exe, err := os.Executable()
	if err != nil {
		return fmt.Errorf("resolving own binary for cold-attach subprocesses: %w", err)
	}
	dir, err := os.MkdirTemp("", "benchscale")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)

	fmt.Printf("training donor model (%d entities)\n", donorEntities)
	donor, err := donorModel(seed)
	if err != nil {
		return fmt.Errorf("training donor model: %w", err)
	}
	weights := filepath.Join(dir, "weights.v4")
	if err := donor.SaveFile(weights); err != nil {
		return err
	}

	snap := benchSnapshot{Env: captureEnv(scales[len(scales)-1])}
	for _, n := range scales {
		if err := benchScaleOne(&snap, weights, n, seed, dir, exe); err != nil {
			return fmt.Errorf("scale %d: %w", n, err)
		}
	}
	return writeSnapshot(path, snap)
}

func benchScaleOne(snap *benchSnapshot, weights string, n int, seed uint64, dir, exe string) error {
	tag := func(s string) string { return fmt.Sprintf("scale_%d/%s", n, s) }
	add := func(name string, metrics map[string]float64) {
		snap.Results = append(snap.Results, benchResult{Name: name, Metrics: metrics})
	}

	gCfg := kg.DefaultGeneratorConfig(kg.WikidataProfile, n)
	gCfg.Seed = seed
	genStart := time.Now()
	g, _ := kg.Generate(gCfg)
	genUs := float64(time.Since(genStart).Microseconds())
	fmt.Printf("scale %d: graph generated (%.1fs)\n", n, time.Since(genStart).Seconds())

	// Rebuild the index over this graph under the donor's weights: embeds
	// every entity and clusters with the bounded training sample. This is
	// the cost the zero-copy attach avoids.
	buildStart := time.Now()
	m, err := core.LoadFile(weights, g)
	if err != nil {
		return fmt.Errorf("rebuilding index: %w", err)
	}
	buildUs := float64(time.Since(buildStart).Microseconds())
	fmt.Printf("scale %d: index rebuilt (%.1fs)\n", n, time.Since(buildStart).Seconds())

	v4Path := filepath.Join(dir, fmt.Sprintf("scale_%d.v4", n))
	gobPath := filepath.Join(dir, fmt.Sprintf("scale_%d.gob", n))
	if err := m.SaveFileWithIndex(v4Path); err != nil {
		return err
	}
	if err := m.SaveFileGob(gobPath, true); err != nil {
		return err
	}
	v4MB, gobMB := fileMB(v4Path), fileMB(gobPath)
	m.Close()

	// Cold attach: each measurement is a fresh process that regenerates the
	// graph, then times exactly one LoadFile and one first lookup. The v4
	// attach is so fast that scheduler noise dominates a single sample, so
	// it gets the most repetitions; a gob decode at 1M runs for tens of
	// seconds, so past 200k one suffices.
	v4Reps, reps := 5, 3
	if n > 200_000 {
		v4Reps, reps = 3, 1
	}
	v4Probe, err := coldAttach(exe, v4Path, n, seed, v4Reps)
	if err != nil {
		return fmt.Errorf("v4 cold attach: %w", err)
	}
	gobProbe, err := coldAttach(exe, gobPath, n, seed, reps)
	if err != nil {
		return fmt.Errorf("gob cold attach: %w", err)
	}
	add(tag("cold_attach"), map[string]float64{
		"v4_attach_us":       v4Probe.AttachUs,
		"gob_attach_us":      gobProbe.AttachUs,
		"attach_speedup":     gobProbe.AttachUs / v4Probe.AttachUs,
		"v4_first_lookup_us": v4Probe.FirstLookupUs,
		"v4_rss_delta_kb":    v4Probe.RSSAfterKB - v4Probe.RSSBeforeKB,
		"gob_rss_delta_kb":   gobProbe.RSSAfterKB - gobProbe.RSSBeforeKB,
		"v4_file_mb":         v4MB,
		"gob_file_mb":        gobMB,
	})
	add(tag("build"), map[string]float64{
		"gen_us":     genUs,
		"rebuild_us": buildUs,
	})

	// Everything below is served from the mmap-attached artifact — the
	// deployment configuration the numbers should describe.
	served, err := core.LoadFile(v4Path, g)
	if err != nil {
		return err
	}
	defer served.Close()

	// Ground truth: exact flat search over the full embedding matrix, row i
	// holding entity i (FastConfig does not index aliases).
	nq := scaleQueries
	if nq > n {
		nq = n
	}
	queries := make([]string, nq)
	for i := range queries {
		queries[i] = g.Entities[(i*(n/nq))%n].Label
	}
	labels := make([]string, len(g.Entities))
	for i := range g.Entities {
		labels[i] = g.Entities[i].Label
	}
	embStart := time.Now()
	data := served.EmbeddingMatrix(labels, 0)
	embUs := float64(time.Since(embStart).Microseconds())
	fmt.Printf("scale %d: ground-truth embeddings (%.1fs)\n", n, time.Since(embStart).Seconds())
	flat := index.NewFlat(data)
	truth := make([][]int32, nq)
	for i, q := range queries {
		rs := index.Search(flat, served.Embed(q), 10)
		ids := make([]int32, len(rs))
		for j, r := range rs {
			ids[j] = r.ID
		}
		truth[i] = ids
	}

	r1, r10 := recallAgainst(served, queries, truth)
	add(tag("recall"), map[string]float64{"recall_at_1": r1, "recall_at_10": r10})
	add(tag("embed"), map[string]float64{"all_entities_us": embUs})

	// Lookup latency distribution through the full model path.
	durs := make([]time.Duration, scaleLatencyOps)
	for i := range durs {
		q := queries[i%nq]
		start := time.Now()
		served.Lookup(q, 10)
		durs[i] = time.Since(start)
	}
	sort.Slice(durs, func(i, j int) bool { return durs[i] < durs[j] })
	add(tag("lookup"), map[string]float64{
		"p50_us": float64(durs[len(durs)/2].Microseconds()),
		"p99_us": float64(durs[len(durs)*99/100].Microseconds()),
	})

	// The nprobe sweep: recall and mean latency as the probe width grows.
	if ivf := unwrapIVF(served.Index()); ivf != nil {
		orig := ivf.NProbe()
		for _, np := range []int{1, 2, 4, 8, 16, 32} {
			ivf.SetNProbe(np)
			if ivf.NProbe() != np {
				break // clamped: fewer lists than np
			}
			r1, r10 := recallAgainst(served, queries, truth)
			start := time.Now()
			for _, q := range queries {
				served.Lookup(q, 10)
			}
			mean := float64(time.Since(start).Microseconds()) / float64(len(queries))
			add(tag(fmt.Sprintf("nprobe_%d", np)), map[string]float64{
				"recall_at_1":  r1,
				"recall_at_10": r10,
				"mean_us":      mean,
			})
		}
		ivf.SetNProbe(orig)

		// The re-rank sweep (Config.Rerank): decide the final top-k by
		// exact distances over the ADC shortlist, re-reading raw vectors —
		// the recall the quantized scan gives up at scale, bought back at
		// the cost of k×factor exact distances per probe. The flat
		// ground-truth matrix doubles as the re-rank vectors.
		if ivf.Quantizer() != nil {
			for _, f := range []int{2, 4, 8} {
				if err := ivf.SetRerank(f, data); err != nil {
					return err
				}
				r1, r10 := recallAgainst(served, queries, truth)
				start := time.Now()
				for _, q := range queries {
					served.Lookup(q, 10)
				}
				mean := float64(time.Since(start).Microseconds()) / float64(len(queries))
				add(tag(fmt.Sprintf("rerank_%d", f)), map[string]float64{
					"recall_at_1":  r1,
					"recall_at_10": r10,
					"mean_us":      mean,
				})
			}
			if err := ivf.SetRerank(0, nil); err != nil {
				return err
			}
		}
	}
	return nil
}

// recallAgainst scores the served model's top-10 against exact flat truth:
// recall@1 is rank-1 agreement, recall@10 the top-10 overlap fraction.
func recallAgainst(m *core.EmbLookup, queries []string, truth [][]int32) (r1, r10 float64) {
	for i, q := range queries {
		got := m.Lookup(q, 10)
		if len(got) > 0 && len(truth[i]) > 0 && int32(got[0].ID) == truth[i][0] {
			r1++
		}
		want := make(map[int32]bool, len(truth[i]))
		for _, id := range truth[i] {
			want[id] = true
		}
		hits := 0
		for _, c := range got {
			if want[int32(c.ID)] {
				hits++
			}
		}
		if len(truth[i]) > 0 {
			r10 += float64(hits) / float64(len(truth[i]))
		}
	}
	n := float64(len(queries))
	return r1 / n, r10 / n
}

func unwrapIVF(ix index.Index) *index.IVF {
	if sh, ok := ix.(*index.Sharded); ok {
		ix = sh.Inner()
	}
	ivf, _ := ix.(*index.IVF)
	return ivf
}

func fileMB(path string) float64 {
	fi, err := os.Stat(path)
	if err != nil {
		return 0
	}
	return float64(fi.Size()) / (1 << 20)
}

// ---- cold-attach subprocess protocol ---------------------------------

// attachProbe is the JSON one measurement subprocess prints on stdout.
type attachProbe struct {
	AttachUs      float64 `json:"attach_us"`
	FirstLookupUs float64 `json:"first_lookup_us"`
	RSSBeforeKB   float64 `json:"rss_before_kb"`
	RSSAfterKB    float64 `json:"rss_after_kb"`
}

// coldAttach re-execs this binary with the hidden -scale-attach flag reps
// times and keeps the fastest attach (RSS from the same run).
func coldAttach(exe, artifact string, entities int, seed uint64, reps int) (attachProbe, error) {
	var best attachProbe
	for i := 0; i < reps; i++ {
		cmd := exec.Command(exe,
			"-scale-attach", artifact,
			"-entities", strconv.Itoa(entities),
			"-seed", strconv.FormatUint(seed, 10))
		out, err := cmd.Output()
		if err != nil {
			if ee, ok := err.(*exec.ExitError); ok {
				return best, fmt.Errorf("subprocess: %v: %s", err, ee.Stderr)
			}
			return best, err
		}
		var p attachProbe
		if err := json.Unmarshal(out, &p); err != nil {
			return best, fmt.Errorf("subprocess output %q: %w", out, err)
		}
		if i == 0 || p.AttachUs < best.AttachUs {
			best = p
		}
	}
	return best, nil
}

// scaleAttachMain is the subprocess side: regenerate the graph (excluded
// from the timing), then measure one cold LoadFile, one first lookup, and
// resident memory before and after.
func scaleAttachMain(artifact string, entities int, seed uint64) error {
	gCfg := kg.DefaultGeneratorConfig(kg.WikidataProfile, entities)
	gCfg.Seed = seed
	g, _ := kg.Generate(gCfg)

	before := rssKB()
	start := time.Now()
	m, err := core.LoadFile(artifact, g)
	if err != nil {
		return err
	}
	attach := time.Since(start)
	start = time.Now()
	m.Lookup(g.Entities[0].Label, 10)
	first := time.Since(start)
	after := rssKB()

	probe := attachProbe{
		AttachUs:      float64(attach.Microseconds()),
		FirstLookupUs: float64(first.Microseconds()),
		RSSBeforeKB:   before,
		RSSAfterKB:    after,
	}
	return json.NewEncoder(os.Stdout).Encode(probe)
}

// rssKB reads VmRSS from /proc/self/status; 0 where /proc is absent.
func rssKB() float64 {
	f, err := os.Open("/proc/self/status")
	if err != nil {
		return 0
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		line := sc.Text()
		if !strings.HasPrefix(line, "VmRSS:") {
			continue
		}
		fields := strings.Fields(line)
		if len(fields) >= 2 {
			kb, _ := strconv.ParseFloat(fields[1], 64)
			return kb
		}
	}
	return 0
}
