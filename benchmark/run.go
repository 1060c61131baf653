package main

import (
	"bufio"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"sort"
	"strings"
	"time"

	"emblookup/internal/core"
	"emblookup/internal/kg"
	"emblookup/internal/mathx"
)

// workload is one served traffic shape. The sizes below are for the 20 s
// runs BENCHMARK.json asks for; README.md records how they were chosen.
type workload struct {
	Name string
	Why  string // one line, repeated in BENCHMARK.json
	// Gated workloads are the ones BENCHMARK.json lists, which the driver
	// runs and bounds. single_ingest_mix is not: the driver's time limit buys
	// four workloads of 20 s or five of 15 s, and its writer and compactions
	// make it the least steady of the five (README, "Departures").
	Gated bool
	Model string
	Path  string
	Kind  reqKind
	// Rate > 0 drives the main stream open loop at that many requests per
	// second; 0 drives it closed loop.
	Rate float64
	// Readers is how many of the two connections drive the main stream; the
	// ingest mix gives the other one to its writer.
	Readers int
	// Warm is the number of warm-up requests (fewer in runs shorter than
	// 10 s, which only the smoke test makes): a count, not a time, so the
	// caches reach the same state on a fast and a slow host and setup_s sees
	// what warm-up costs.
	Warm int
	// LinesPerSec sizes a closed-loop stream: an upper bound on what two
	// connections complete. A stream that still runs out wraps around.
	LinesPerSec int
}

// Ingest writer: open loop, 30 POST /ingest per second of 20 new mentions:
// 12 000 rows in a 20 s run, which crosses the 4096-row compaction threshold
// twice.
const (
	ingestRate     = 30
	ingestPerBatch = 20
	visibleChecks  = 300 // acked mentions looked up after the final flush
)

var workloads = []workload{
	{
		Name:  "single_miss",
		Why:   "open loop 300 req/s of distinct noised GET /lookup on fs100k: the flat fast-scan scan dominates, the cache never hits",
		Gated: true, Model: modelFS, Path: "/lookup", Kind: kindLookup, Rate: 300, Readers: 2, Warm: 300,
	},
	{
		Name:  "single_bulk",
		Why:   "2 closed-loop clients POST /bulk of 256 noised cells on fs100k: the only path that forms real batches (dedupe, BulkLookup, SearchBatch)",
		Gated: true, Model: modelFS, Path: "/bulk", Kind: kindBulk, Readers: 2, Warm: 8, LinesPerSec: 100,
	},
	{
		Name:  "tenant_zipf",
		Why:   "2 closed-loop clients GET /t/bench/lookup of Zipf(1.1) clean labels on ivf100k: mostly cache hits, so HTTP, admission and encode set p50; bypass for scan work",
		Gated: true, Model: modelIVF, Path: "/t/" + tenantName + "/lookup", Kind: kindLookup, Readers: 2, Warm: 20000, LinesPerSec: 30000,
	},
	{
		Name:  "single_ingest_mix",
		Why:   "1 closed-loop reader of noised lookups beside 1 open-loop POST /ingest writer on a dynamic fs100k: appends and compactions beside reads",
		Model: modelFS, Path: "/lookup", Kind: kindLookup, Readers: 1, Warm: 300, LinesPerSec: 4000,
	},
	{
		Name:  "cluster_miss",
		Why:   "2 closed-loop clients replay the single_miss mentions through a 2-partition router: router embed, JSON float32 RPC, two half scans, merge",
		Gated: true, Model: modelFS, Path: "/lookup", Kind: kindLookup, Readers: 2, Warm: 300, LinesPerSec: 4000,
	},
}

func findWorkload(name string) (workload, bool) {
	for _, w := range workloads {
		if w.Name == name {
			return w, true
		}
	}
	return workload{}, false
}

// env is what every run of one invocation shares.
type env struct {
	prep   *prepared
	graph  *kg.Graph
	pool   []poolEntry
	loadS  float64 // kg.LoadFile of the served graph, in this process
	runDir string  // scratch for this invocation's streams, artifacts, specs
	exe    string
	logf   func(string, ...any)
}

// result is one run of one workload.
type result struct {
	Workload  string             `json:"workload"`
	Correct   bool               `json:"correct"`
	Attempted int                `json:"attempted"`
	Failed    int                `json:"failed"`
	Metrics   map[string]float64 `json:"metrics"`
	Streams   []streamInfo       `json:"streams"`
	// Digest covers the checked sample of served answers (query, ids,
	// scores): equal digests mean equal bits. single_miss and cluster_miss
	// check the same requests, so theirs must match.
	Digest string   `json:"sample_digest"`
	Notes  []string `json:"notes,omitempty"`
}

// child is a serving process and the line protocol to it.
type child struct {
	cmd  *exec.Cmd
	in   io.WriteCloser
	out  *bufio.Scanner
	addr string
}

// startChild launches this binary as the server of spec and waits for its
// ready line. The returned duration is process start to listening.
func startChild(exe, specPath string) (*child, time.Duration, error) {
	start := time.Now()
	cmd := exec.Command(exe)
	cmd.Env = append(os.Environ(), childEnv+"="+specPath)
	cmd.Stderr = os.Stderr
	in, err := cmd.StdinPipe()
	if err != nil {
		return nil, 0, err
	}
	outPipe, err := cmd.StdoutPipe()
	if err != nil {
		return nil, 0, err
	}
	if err := cmd.Start(); err != nil {
		return nil, 0, err
	}
	c := &child{cmd: cmd, in: in, out: bufio.NewScanner(outPipe)}
	var ready childReady
	if err := c.readJSON(&ready); err != nil {
		c.stop()
		return nil, 0, fmt.Errorf("child did not become ready: %w", err)
	}
	c.addr = ready.Addr
	return c, time.Since(start), nil
}

func (c *child) readJSON(v any) error {
	if !c.out.Scan() {
		if err := c.out.Err(); err != nil {
			return err
		}
		return io.ErrUnexpectedEOF
	}
	return json.Unmarshal(c.out.Bytes(), v)
}

// snap asks the child for its cumulative counters.
func (c *child) snap() (map[string]float64, error) {
	if _, err := io.WriteString(c.in, "snap\n"); err != nil {
		return nil, err
	}
	m := map[string]float64{}
	return m, c.readJSON(&m)
}

// stop ends the child and waits for it.
func (c *child) stop() error {
	io.WriteString(c.in, "stop\n")
	c.in.Close()
	return c.cmd.Wait()
}

// runWorkload measures one workload once: streams from the seed, set-up
// (index build, child start, warm-up), the timed run with tracing off, the
// served-quality and correctness checks, and — with traced set — the
// per-layer replay afterwards.
func (e *env) runWorkload(w workload, seed uint64, seconds int, traced bool, traceOut string) (*result, error) {
	sz := e.prep.Sizing
	res := &result{Workload: w.Name, Metrics: map[string]float64{}}
	m := res.Metrics
	window := time.Duration(seconds) * time.Second
	lapStart := time.Now()
	lap := func(what string) { // where a run's wall time goes, on standard error
		e.logf("%s: %-14s %6.2f s", w.Name, what, time.Since(lapStart).Seconds())
		lapStart = time.Now()
	}
	warm := max(4, w.Warm*min(seconds, 10)/10)
	cells := 1
	if w.Kind == kindBulk {
		cells = sz.BulkCells
	}

	// Streams, from the seed, on disk before anything is served.
	perSec := w.LinesPerSec
	if w.Rate > 0 {
		perSec = int(w.Rate)
	}
	lines := warm + perSec*seconds
	var main *stream
	switch w.Name {
	case "single_bulk":
		main = bulkRequests(e.graph, seed, lines, sz.BulkCells)
	case "tenant_zipf":
		main = zipfLookups(e.graph, seed, lines)
	default:
		// single_miss, cluster_miss and the ingest mix's reader share one
		// generator: the same seed gives cluster_miss single_miss's mentions.
		main = noisedLookups(e.graph, seed, lines)
	}
	streams := []*stream{main}
	var ingests *stream
	var ingestItems []core.IngestItem
	if w.Name == "single_ingest_mix" {
		ingests, ingestItems = ingestBatches(e.graph, seed+1, ingestRate*seconds, ingestPerBatch)
		streams = append(streams, ingests)
	}
	for _, s := range streams {
		info, err := s.write(filepath.Join(e.runDir, w.Name+"."+s.Name+".txt"))
		if err != nil {
			return nil, err
		}
		res.Streams = append(res.Streams, info)
	}

	lap("streams")

	// Set-up. The index build runs once (seconds of deterministic CPU work);
	// the child start, where scheduling and page-cache noise live, runs three
	// times and the median counts.
	modelPath := filepath.Join(e.runDir, w.Name+".model.v4")
	buildD, err := buildModel(e.prep.Weights[w.Model], e.graph, modelPath)
	if err != nil {
		return nil, err
	}
	lap("index build")
	specPath := filepath.Join(e.runDir, w.Name+".spec.json")
	spec, _ := json.Marshal(childSpec{Workload: w.Name, Graph: e.prep.GraphPath, Model: modelPath})
	if err := os.WriteFile(specPath, spec, 0o644); err != nil {
		return nil, err
	}
	var ch *child
	var starts []float64
	for i := 0; i < 3; i++ {
		if ch != nil {
			if err := ch.stop(); err != nil {
				return nil, fmt.Errorf("stopping child: %w", err)
			}
		}
		var d time.Duration
		if ch, d, err = startChild(e.exe, specPath); err != nil {
			return nil, err
		}
		starts = append(starts, d.Seconds())
	}
	defer func() {
		if ch != nil {
			ch.stop()
		}
	}()
	lap("child starts")
	conns := newConns()
	defer closeConns(conns)
	tgt := target{base: "http://" + ch.addr, path: w.Path, kind: w.Kind}

	// This process's own mmap attach of the artifact: the reference the
	// served answers are compared with, and the artifact.attach_ms row.
	attachStart := time.Now()
	ref, err := core.LoadFile(modelPath, e.graph)
	if err != nil {
		return nil, fmt.Errorf("attaching %s: %w", modelPath, err)
	}
	defer ref.Close()
	attachD := time.Since(attachStart)

	stopAwake := func() {}
	if w.Rate > 0 {
		stopAwake = keepAwake(e.exe, e.logf) // open loop: see awakeEnv
	}
	defer stopAwake()
	warmStart := time.Now()
	warmed := phase{target: tgt, lines: main.Lines, conns: conns[:w.Readers], count: warm, keepEvery: max(1, warm/sz.CheckN)}.run()
	warmD := time.Since(warmStart)
	lap("attach, warm-up")
	m["setup_s"] = buildD.Seconds() + median(starts) + warmD.Seconds()
	m["core.index_build_s"] = buildD.Seconds()
	m["core.train_s"] = e.prep.TrainS
	m["kg.generate_s"] = e.prep.GenerateS
	m["kg.load_s"] = e.loadS
	m["artifact.attach_ms"] = attachD.Seconds() * 1000
	if fi, err := os.Stat(modelPath); err == nil {
		m["artifact.file_mb"] = float64(fi.Size()) / (1 << 20)
	}

	if ingests != nil {
		e.servedQuality(w, tgt, conns, res)
	}

	// The timed run, tracing off. The child's counters are read at every
	// slice boundary, so each slice has its own CPU time.
	before, err := ch.snap()
	if err != nil {
		return nil, err
	}
	nSlices := max(minSlices, seconds)
	epoch := time.Now()
	cuts := []time.Duration{0}
	cpuAt := []float64{before["cpu_s"]}
	snapped := make(chan error, 1)
	go func() {
		for k := 1; k <= nSlices; k++ {
			sleepUntil(epoch.Add(window * time.Duration(k) / time.Duration(nSlices)))
			at := time.Since(epoch)
			c, err := ch.snap()
			if err != nil {
				snapped <- err
				return
			}
			cuts = append(cuts, at)
			cpuAt = append(cpuAt, c["cpu_s"])
		}
		snapped <- nil
	}()
	read := phase{target: tgt, lines: main.Lines, from: warm, conns: conns[:w.Readers], duration: window, rate: w.Rate, keepEvery: 16, epoch: epoch}
	if w.Rate > 0 {
		read.keepEvery = max(1, int(w.Rate)*seconds/sz.CheckN)
	}
	var samples, writes []sample
	if ingests == nil {
		samples = read.run()
	} else {
		wr := phase{target: target{base: tgt.base, path: "/ingest", kind: kindIngest}, lines: ingests.Lines,
			conns: conns[w.Readers:], duration: window, rate: ingestRate, epoch: epoch}
		done := make(chan []sample)
		go func() { done <- wr.run() }()
		samples = read.run()
		writes = <-done
	}
	if err := <-snapped; err != nil {
		return nil, err
	}
	after, err := ch.snap()
	if err != nil {
		return nil, err
	}
	stopAwake() // what follows is closed loop
	lap("timed run")
	delta := func(k string) float64 { return after[k] - before[k] }
	m["host.calib_cpu_ms"], m["host.calib_mem_ms"] = hostCalibration()

	okReads, bytesRead := 0, 0
	var lags, tooks []float64
	for _, s := range samples {
		if s.ok {
			okReads++
			bytesRead += s.bytes
		}
		lags = append(lags, float64(s.sent-s.start)/float64(time.Millisecond))
		if t, ok := tookUs(s.body); ok {
			tooks = append(tooks, t)
		}
	}
	res.Attempted = len(samples) + len(writes)
	res.Failed = len(samples) - okReads
	lookups := float64(okReads * cells)

	// The ingest mix is the one workload whose slices are not alike: its
	// delta grows and is compacted as the run goes, so its best slices are
	// simply its first. It reports the median slice.
	q := 0.10
	if ingests != nil {
		q = 0.50
	}
	for name, vals := range sliceMetrics(samples, window, cuts, cpuAt, cells) {
		m[name] = acrossSlices(vals, name == "throughput_qps", q)
		e.logf("%s: slices %s %.5g", w.Name, name, vals)
	}
	m["loadgen.lat_p99_ms"] = latencyMs(samples, 0.99)
	m["rss_peak_mb"] = after["rss_peak_mb"]

	sort.Float64s(lags)
	sort.Float64s(tooks)
	m["loadgen.sent"] = float64(len(samples))
	m["loadgen.ok"] = float64(okReads)
	m["loadgen.lag_p99_ms"] = quantile(lags, 0.99)
	m["server.took_p50_us"] = quantile(tooks, 0.50)
	m["server.resp_bytes_per_lookup"] = float64(bytesRead) / max(lookups, 1)
	if probes := delta("cache_hits") + delta("cache_misses"); probes > 0 {
		m["serve.cache_hit_rate"] = delta("cache_hits") / probes
	}
	if b := delta("coalesce_batches"); b > 0 {
		m["serve.coalesce_batch_mean"] = delta("coalesce_queries") / b
	}
	m["serve.coalesce_wait_p50_us"] = after["coalesce_wait_p50_us"]
	if w.Kind == kindBulk && lookups > 0 {
		// Cells that never reached core.BulkLookup: in-request repeats and
		// cache hits.
		m["serve.bulk_dedupe_rate"] = 1 - delta("core_bulk_queries")/lookups
	}
	m["tenant.admitted"] = delta("tenant_admitted")
	m["tenant.shed"] = delta("tenant_shed")
	m["cluster.retries"] = delta("cluster_retries")
	m["cluster.hedges"] = delta("cluster_hedges")
	m["cluster.partial"] = delta("cluster_partial")
	m["index.dynamic_delta_rows"] = after["dynamic_delta_rows"]
	m["index.dynamic_compactions"] = delta("dynamic_compactions")
	m["core.ingest_queue_depth_max"] = after["ingest_queue_max"]

	// In-band correctness over the kept sample of served answers. The warm-up
	// answers are the digested ones: every run sends the same first lines
	// whatever its speed, and on the ingest mix they are served before any
	// write, so they must match bit for bit.
	var ingested map[int32]bool // entities the writer raced the reader on
	if ingests != nil {
		ingested = map[int32]bool{}
		for _, it := range ingestItems {
			ingested[int32(it.ID)] = true
		}
	}
	digest := sha256.New()
	checkAnswers(res, w, main, warmed, ref, sz.CheckN, nil, digest)
	checkAnswers(res, w, main, samples, ref, sz.CheckN, ingested, nil)
	res.Digest = hex.EncodeToString(digest.Sum(nil))

	if ingests != nil {
		if err := settleIngest(res, ch, conns[0], tgt, writes, ingestItems, seed); err != nil {
			return nil, err
		}
	}

	// Served quality: the fixed pool through the same endpoint. After the
	// timed run, so its thousand distinct mentions cannot disturb the cache
	// being measured — except on the ingest mix, which has no cache and whose
	// index the ingest stream changes: there it ran before the writes.
	if ingests == nil {
		e.servedQuality(w, tgt, conns, res)
	}
	lap("checks")
	m["loadgen.failed"] = float64(res.Failed)
	m["loadgen.error_rate"] = float64(res.Failed) / float64(max(res.Attempted, 1))
	res.Correct = res.Failed == 0

	err = ch.stop()
	ch = nil
	if err != nil {
		return nil, fmt.Errorf("stopping child: %w", err)
	}

	if traced {
		replay := main.Lines[warm:]
		n := sz.TraceN
		if w.Kind == kindBulk {
			n = sz.TraceBulkN
		}
		if err := e.traceWorkload(w, childSpec{Workload: w.Name, Graph: e.prep.GraphPath, Model: modelPath}, main.Lines[:warm], replay[:min(n, len(replay))], ingestItems, m, traceOut); err != nil {
			return nil, fmt.Errorf("traced replay: %w", err)
		}
	}
	for _, d := range perLayer {
		if _, ok := m[d.Name]; !ok {
			m[d.Name] = 0 // a layer this workload does not pass through
		}
	}
	return res, nil
}

// checkAnswers compares up to limit kept answers (by stream line, not by
// arrival, so the checked set does not depend on how two connections
// interleaved) with ref.Lookup: bit for bit, or — with racing set to the
// entities an ingest stream touched — up to those entities. Mismatches count
// as failures. digest, when given, receives the checked answers.
func checkAnswers(res *result, w workload, main *stream, kept []sample, ref *core.EmbLookup, limit int, racing map[int32]bool, digest io.Writer) {
	kept = append([]sample(nil), kept...)
	sort.Slice(kept, func(a, b int) bool { return kept[a].idx < kept[b].idx })
	checked := 0
	for _, s := range kept {
		if s.body == nil || !s.ok || checked >= limit {
			continue
		}
		queries := strings.Split(main.Lines[s.idx], cellSep)
		answers, err := parseAnswers(w.Kind, s.body)
		if err != nil || len(answers) != len(queries) {
			res.Failed++
			res.Notes = append(res.Notes, fmt.Sprintf("request %d: unreadable answer: %v", s.idx, err))
			continue
		}
		for i, q := range queries {
			want := ref.Lookup(q, 10)
			same := sameAnswer(answers[i], want)
			if racing != nil {
				same = sameUnlessIngested(answers[i], want, racing)
			}
			if digest != nil {
				fmt.Fprintf(digest, "%s\n%v\n", q, answers[i])
			}
			if !same {
				res.Failed++
				res.Notes = append(res.Notes, fmt.Sprintf("request %d %q: served %v, core.Lookup %v", s.idx, q, answers[i], want))
			}
			checked++
		}
	}
}

// parseAnswers decodes a reply into one hit list per query of the request.
func parseAnswers(kind reqKind, body []byte) ([][]hit, error) {
	if kind == kindBulk {
		return parseBulk(body)
	}
	one, err := parseLookup(body)
	return [][]hit{one}, err
}

// settleIngest closes the ingest mix's write side: ack latencies, the final
// flush, that every acked item was applied, and how many of a seeded sample
// of acked mentions a lookup now finds.
func settleIngest(res *result, ch *child, c *conn, tgt target, writes []sample, items []core.IngestItem, seed uint64) error {
	m := res.Metrics
	var wl []float64
	var acked []int
	for _, s := range writes {
		if !s.ok {
			res.Failed++
			continue
		}
		wl = append(wl, float64(s.latency())/float64(time.Millisecond))
		for i := 0; i < ingestPerBatch; i++ {
			acked = append(acked, s.idx*ingestPerBatch+i)
		}
	}
	sort.Float64s(wl)
	m["ingest.write_p50_ms"] = quantile(wl, 0.50)
	m["ingest.write_p99_ms"] = quantile(wl, 0.99)

	res.Attempted++
	if ok, _, _ := c.do(target{base: tgt.base, path: "/ingest?flush=1", kind: kindIngest}, "[]", false); !ok {
		res.Failed++
		res.Notes = append(res.Notes, "final POST /ingest?flush=1 failed")
	}
	final, err := ch.snap()
	if err != nil {
		return err
	}
	if applied := int(final["ingest_applied"]); applied != len(acked) || final["ingest_failed"] > 0 {
		res.Failed++
		res.Notes = append(res.Notes, fmt.Sprintf("%d items acked, %d applied, %v failed to apply", len(acked), applied, final["ingest_failed"]))
	}

	// Not an operation that can fail: a compacted row is PQ-encoded, so even
	// its own mention can rank ten other rows first. A rate.
	mathx.NewRNG(seed + 2).ShuffleInts(acked)
	acked = acked[:min(len(acked), visibleChecks)]
	visible := 0
	for _, i := range acked {
		ok, _, body := c.do(tgt, items[i].Mention, true)
		hits, err := parseLookup(body)
		for _, h := range hits {
			if ok && err == nil && h.ID == int32(items[i].ID) {
				visible++
				break
			}
		}
	}
	m["ingest.visible_rate"] = float64(visible) / float64(max(len(acked), 1))
	return nil
}

// servedQuality sends the quality pool through the workload's endpoint and
// scores the answers against the pool's truth and exact top-10. The pool is
// the same for every seed, so for one build of the program the two metrics
// repeat exactly and any change in answer quality shows.
func (e *env) servedQuality(w workload, tgt target, conns []*conn, res *result) {
	sz := e.prep.Sizing
	var lines []string
	if w.Kind == kindBulk {
		for i := 0; i < len(e.pool); i += sz.BulkCells {
			var row []string
			for _, p := range e.pool[i:min(i+sz.BulkCells, len(e.pool))] {
				row = append(row, p.Mention)
			}
			lines = append(lines, strings.Join(row, cellSep))
		}
	} else {
		for _, p := range e.pool {
			lines = append(lines, p.Mention)
		}
	}
	answered := phase{target: tgt, lines: lines, conns: conns, count: len(lines), keepEvery: 1}.run()
	q := &quality{}
	for _, s := range answered {
		res.Attempted++
		answers, err := parseAnswers(w.Kind, s.body)
		first := s.idx
		if w.Kind == kindBulk {
			first = s.idx * sz.BulkCells
		}
		if !s.ok || err != nil || first+len(answers) > len(e.pool) {
			res.Failed++
			res.Notes = append(res.Notes, fmt.Sprintf("quality request %d failed: %v", s.idx, err))
			continue
		}
		for i, a := range answers {
			q.add(a, e.pool[first+i])
		}
	}
	res.Metrics["recall_at_10"] = q.recallAt10()
	res.Metrics["top1_accuracy"] = q.top1Accuracy()
}
