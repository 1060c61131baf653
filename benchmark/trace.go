package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"os"
	"sort"
	"strings"
	"time"

	"emblookup/internal/cluster"
	"emblookup/internal/core"
	"emblookup/internal/index"
	"emblookup/internal/quant"
	"emblookup/internal/server"
)

// The traced replay peels a request layer by layer from outside the
// program: a fixed sample of requests is replayed, one request at a time, at
// every layer boundary in turn — over loopback, then into the handler, then
// into the layer the handler calls, and so on down to the ADC table. The
// three stateful levels (loopback, handler, serve/router) each own a fresh
// instance of the serving stack with identical options, so their caches
// evolve identically; all levels of one request run back to back, so slow
// drift of the host hits them alike. A layer's self time is its duration
// minus its children's, and by construction the selves sum to the loopback
// wall time.

// stage is one layer boundary of the peel.
type stage struct {
	name   string
	parent int             // index of the enclosing stage, -1 for the wall
	dur    []time.Duration // per request
	// reached marks the requests that executed this stage (nil = all): a
	// cache hit never reaches core, so its serve time is all self.
	reached []bool
	// durMetric and selfMetric name the per-layer rows fed by this stage's
	// p50 duration and p50 self time ("" = not reported).
	durMetric, selfMetric string
	// selfOver narrows the requests the self-time p50 is taken over (nil =
	// those that reached the stage): serve's self time is a miss's overhead,
	// its hits are reported apart.
	selfOver []bool
}

// step is how one stage is measured for request i. before and after run
// outside the timer.
type step struct {
	stage  int
	before func(i int)
	run    func(i int)
	after  func(i int)
}

// peel is the stage tree of one workload, root first, and the steps that
// fill it.
type peel struct {
	n      int
	stages []*stage
	steps  []*step
}

func (p *peel) add(name string, parent int, durMetric, selfMetric string) int {
	p.stages = append(p.stages, &stage{name: name, parent: parent, dur: make([]time.Duration, p.n), durMetric: durMetric, selfMetric: selfMetric})
	return len(p.stages) - 1
}

// measure registers run as the way to time stage st.
func (p *peel) measure(st int, run func(i int)) *step {
	s := &step{stage: st, run: run}
	p.steps = append(p.steps, s)
	return s
}

func (s *stage) ran(i int) bool { return s.reached == nil || s.reached[i] }

// replay runs every step for request 0, then every step for request 1, ...
func (p *peel) replay() {
	for i := 0; i < p.n; i++ {
		for _, st := range p.steps {
			s := p.stages[st.stage]
			if !s.ran(i) {
				continue
			}
			if st.before != nil {
				st.before(i)
			}
			start := time.Now()
			st.run(i)
			s.dur[i] = time.Since(start)
			if st.after != nil {
				st.after(i)
			}
		}
	}
}

func p50us(d []time.Duration, over []bool) float64 {
	var v []float64
	for i, x := range d {
		if over == nil || over[i] {
			v = append(v, float64(x)/float64(time.Microsecond))
		}
	}
	sort.Float64s(v)
	return quantile(v, 0.5)
}

// span is one line of trace.jsonl: one (request, layer) interval. The
// nesting is synthetic — each level was timed by its own call — so start
// offsets are laid out, not observed: children run back to back from their
// parent's start.
type span struct {
	Workload  string  `json:"workload"`
	Request   int     `json:"request"`
	Name      string  `json:"name"`
	Parent    string  `json:"parent,omitempty"`
	StartUs   float64 `json:"start_us"`
	EndUs     float64 `json:"end_us"`
	SelfUs    float64 `json:"self_us"` // raw: duration minus children, may be negative
	Synthetic bool    `json:"synthetic"`
}

// finish computes self times, fills the per-layer metrics, and appends the
// spans to out. Each level is timed by its own call, so a request's self
// time (duration minus children) carries the noise of two or more calls and
// can come out negative. Clipping per request would bias every thin layer
// upward; instead a layer's reported self time is the p50 of the raw
// per-request values, and the books are balanced on the means, where the
// selves sum to the wall time exactly: a layer whose mean self time is
// negative is clipped to zero there and its deficit reported.
func (p *peel) finish(workload string, m map[string]float64, out io.Writer) error {
	us := func(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }
	selves := make([][]time.Duration, len(p.stages))
	for si, s := range p.stages {
		selves[si] = make([]time.Duration, p.n)
		for i := 0; i < p.n; i++ {
			if !s.ran(i) {
				continue
			}
			selves[si][i] = s.dur[i]
			for _, c := range p.stages {
				if c.parent == si && c.ran(i) {
					selves[si][i] -= c.dur[i]
				}
			}
		}
	}
	n := float64(max(p.n, 1))
	var wall, positive, negative float64
	for _, d := range p.stages[0].dur {
		wall += us(d)
	}
	for si, s := range p.stages {
		var sum float64
		for _, d := range selves[si] {
			sum += us(d)
		}
		if sum < 0 {
			negative -= sum
		} else {
			positive += sum
		}
		fmt.Fprintf(os.Stderr, "peel %-18s %-13s p50 %9.1f us   self p50 %9.1f us   self mean %9.1f us (%5.1f%% of wall)\n",
			workload, s.name, p50us(s.dur, s.reached), p50us(selves[si], s.reached), sum/n, 100*sum/max(wall, 1))
		if s.durMetric != "" {
			m[s.durMetric] = p50us(s.dur, s.reached)
		}
		if s.selfMetric != "" {
			over := s.selfOver
			if over == nil {
				over = s.reached
			}
			m[s.selfMetric] = max(0, p50us(selves[si], over))
		}
	}
	m["trace.wall_p50_us"] = p50us(p.stages[0].dur, nil)
	m["trace.wall_mean_us"] = wall / n
	m["trace.self_sum_us"] = (positive - negative) / n
	m["trace.negative_self_share"] = negative / max(wall, 1)
	if timed := m["lat_p50_ms"] * 1000; timed > 0 {
		m["trace.overhead_share"] = (m["trace.wall_p50_us"] - timed) / timed
	}

	bw := bufio.NewWriter(out)
	enc := json.NewEncoder(bw)
	starts := make([]float64, len(p.stages))
	for i := 0; i < p.n; i++ {
		next := make([]float64, len(p.stages)) // where each stage's next child starts
		for si, s := range p.stages {
			if !s.ran(i) {
				continue
			}
			sp := span{Workload: workload, Request: i, Name: s.name, SelfUs: us(selves[si][i]), Synthetic: si > 0}
			starts[si] = 0
			if s.parent >= 0 {
				sp.Parent = p.stages[s.parent].name
				starts[si] = next[s.parent]
				next[s.parent] += us(s.dur[i])
			}
			next[si] = starts[si]
			sp.StartUs, sp.EndUs = starts[si], starts[si]+us(s.dur[i])
			if err := enc.Encode(sp); err != nil {
				return err
			}
		}
	}
	return bw.Flush()
}

// quantizerOf digs the product quantizer out of a served index, and how
// many ADC tables one search builds with it (one per probed list for IVF).
func quantizerOf(ix index.Index) (*quant.ProductQuantizer, int) {
	for {
		switch t := ix.(type) {
		case *index.Sharded:
			ix = t.Inner()
		case *index.Dynamic:
			ix = t.Base()
		case *index.FastScan:
			return t.Quantizer(), 1
		case *index.PQ:
			return t.Quantizer(), 1
		case *index.IVF:
			return t.Quantizer(), t.NProbe()
		default:
			return nil, 0
		}
	}
}

// serverRequest is target.request for a handler called in-process.
func serverRequest(t target, line string) *http.Request {
	req, _ := t.request(line) // the same line is sent over loopback first
	var body io.Reader
	if req.Body != nil {
		body = req.Body
	}
	sreq := httptest.NewRequest(req.Method, req.URL.RequestURI(), body)
	sreq.Header = req.Header
	return sreq
}

// traceWorkload runs the traced replay of one workload over lines and adds
// the per-layer metrics to m; the spans are appended to the file at traceOut.
// warm is the timed run's warm-up, applied to every instance first.
func (e *env) traceWorkload(w workload, spec childSpec, warm, lines []string, ingestItems []core.IngestItem, m map[string]float64, traceOut string) error {
	if len(lines) == 0 {
		return fmt.Errorf("no requests to replay")
	}
	// The ingest mix's readers see an index with a half-full delta (the
	// run's average), so every instance gets the same 2048 live rows first.
	preload := ingestItems[:min(len(ingestItems), index.DefaultCompactThreshold/2)]
	var applied []time.Duration
	var instances []*served
	defer func() {
		for _, sv := range instances {
			sv.close()
		}
	}()
	fresh := func() (*served, error) {
		sv, err := buildServed(spec, e.graph)
		if err != nil {
			return nil, err
		}
		instances = append(instances, sv)
		if sv.serve != nil {
			// Through the batch path: one call instead of thousands of solo
			// coalescer windows, and the same cache contents at every level.
			sv.serve.BulkLookup(warm, 10)
		}
		timed := applied == nil
		for _, it := range preload {
			start := time.Now()
			if _, err := sv.model.AddMention(it.Mention, it.ID); err != nil {
				return nil, err
			}
			if timed {
				applied = append(applied, time.Since(start))
			}
		}
		return sv, nil
	}
	var level [3]*served
	for i := range level {
		var err error
		if level[i], err = fresh(); err != nil {
			return err
		}
	}

	p := &peel{n: len(lines)}
	failed := 0

	// Level 0: a real loopback request, on one connection.
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return err
	}
	srv := server.NewHTTPServer("", level[0].handler)
	go srv.Serve(ln)
	defer srv.Close()
	tgt := target{base: "http://" + ln.Addr().String(), path: w.Path, kind: w.Kind}
	one := newConns()[:1]
	defer closeConns(one)
	wall := p.add("loopback", -1, "", "loopback.self_p50_us")
	p.measure(wall, func(i int) {
		if ok, _, _ := one[0].do(tgt, lines[i], false); !ok {
			failed++
		}
	})

	// Level 1: the same handler, called in-process.
	handler := p.add("server", wall, "", "server.self_p50_us")
	var sreq *http.Request
	var rec *httptest.ResponseRecorder
	st := p.measure(handler, func(int) { level[1].handler.ServeHTTP(rec, sreq) })
	st.before = func(i int) { sreq, rec = serverRequest(tgt, lines[i]), httptest.NewRecorder() }
	st.after = func(int) {
		if rec.Code/100 != 2 {
			failed++
		}
	}

	// Level 2 and below differ per serving shape.
	var derive func()
	switch {
	case w.Kind == kindBulk:
		derive = peelBulk(p, handler, level[2], lines, m)
	case level[2].local != nil:
		derive, err = e.peelCluster(p, handler, level[2], lines, m, &failed)
	default:
		derive, err = peelLookup(p, handler, level[2], lines, m)
	}
	if err != nil {
		return err
	}
	p.replay()
	if failed > 0 {
		return fmt.Errorf("%d traced requests failed", failed)
	}
	derive()
	if len(applied) > 0 {
		m["core.ingest_apply_p50_us"] = p50us(applied, nil)
	}

	f, err := os.OpenFile(traceOut, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return err
	}
	if err := p.finish(w.Name, m, f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// peelLookup covers single lookups on one node: handler → [tenant gate] →
// [serve] → core → embed, search → ADC table. The returned function derives
// the metrics that are not a stage's p50, once the replay has run.
func peelLookup(p *peel, handler int, sv *served, lines []string, m map[string]float64) (func(), error) {
	n := len(lines)
	norms := lines    // what reaches core: normalized by serve, raw without it
	var missed []bool // requests that reach core (nil = all)
	coreParent := handler
	ctx := context.Background()

	if sv.tenant != nil {
		// What TenantServer does around the lookup: the admission gate and
		// pinning the model generation.
		gate := p.add("tenant", handler, "", "tenant.self_p50_us")
		p.measure(gate, func(int) {
			if sv.tenant.Admission().Acquire(ctx) == nil {
				if h, err := sv.tenant.Acquire(); err == nil {
					h.Release()
				}
				sv.tenant.Admission().Release()
			}
		})
		adm := p.add("admission", gate, "tenant.admission_p50_us", "")
		p.measure(adm, func(int) {
			if sv.tenant.Admission().Acquire(ctx) == nil {
				sv.tenant.Admission().Release()
			}
		})
	}

	srv := -1
	if sv.serve != nil {
		norms = make([]string, n)
		for i, l := range lines {
			norms[i] = core.NormalizeMention(l)
		}
		missed = make([]bool, n)
		hits := func() uint64 {
			if c := sv.serve.Stats().Cache; c != nil {
				return c.Hits
			}
			return 0
		}
		srv = p.add("serve", handler, "", "serve.self_p50_us")
		p.stages[srv].selfOver = missed
		coreParent = srv
		var before uint64
		st := p.measure(srv, func(i int) {
			if sv.tenant != nil {
				sv.serve.LookupCtx(ctx, lines[i], 10)
			} else {
				sv.serve.Lookup(lines[i], 10)
			}
		})
		st.before = func(int) { before = hits() }
		st.after = func(i int) { missed[i] = hits() == before }
		norm := p.add("normalize", srv, "core.normalize_p50_us", "")
		p.measure(norm, func(i int) { core.NormalizeMention(lines[i]) })
	}

	// What reaches core differs by path: the dynamic server's handler calls
	// Lookup; a serve miss goes through the coalescer, which answers even a
	// batch of one with BulkLookup → EmbedAll → SearchBatch.
	model := sv.model
	ix, ok := model.Index().(index.ScratchSearcher)
	if !ok {
		return nil, fmt.Errorf("index %T has no SearchWith", model.Index())
	}
	sc := new(index.Scratch)
	embs := make([][]float32, n)
	coreLookup := func(i int) { model.Lookup(norms[i], 10) }
	coreEmbed := func(i int) { embs[i] = model.Embed(norms[i]) }
	coreSearch := func(i int) { ix.SearchWith(sc, embs[i], 10) }
	if sv.serve != nil {
		coreLookup = func(i int) { model.BulkLookup(norms[i:i+1], 10, 0) }
		coreEmbed = func(i int) { embs[i] = model.EmbedAll(norms[i:i+1], 0)[0] }
		coreSearch = func(i int) { index.BatchSearch(model.Index(), embs[i:i+1], 10, 0) }
	}
	lookup := p.add("core", coreParent, "core.lookup_p50_us", "core.self_p50_us")
	p.measure(lookup, coreLookup)
	embed := p.add("embed", lookup, "core.embed_p50_us", "")
	p.measure(embed, coreEmbed)
	search := p.add("search", lookup, "index.search_p50_us", "index.self_p50_us")
	searchStep := p.measure(search, coreSearch)
	adc, perTable := peelADC(p, search, model.Index(), embs)
	for _, st := range []int{lookup, embed, search, adc} {
		if st >= 0 {
			p.stages[st].reached = missed
		}
	}

	// Beside the tree: the same scan with and without the shard fan-out.
	var whole, split []time.Duration
	if sh, ok := model.Index().(*index.Sharded); ok {
		if inner, ok := sh.Inner().(index.ScratchSearcher); ok {
			whole, split = make([]time.Duration, n), make([]time.Duration, n)
			searchStep.after = func(i int) {
				start := time.Now()
				sh.SearchWith(sc, embs[i], 10)
				split[i] = time.Since(start)
				start = time.Now()
				inner.SearchWith(sc, embs[i], 10)
				whole[i] = time.Since(start)
			}
		}
	}

	return func() {
		if srv >= 0 {
			hit := make([]bool, n)
			for i := range hit {
				hit[i] = !missed[i]
			}
			m["serve.hit_p50_us"] = p50us(p.stages[srv].dur, hit)
		}
		m["index.ns_per_row"] = p50us(p.stages[search].dur, missed) * 1000 / float64(max(model.Index().Len(), 1))
		if s := p50us(split, missed); s > 0 {
			m["index.sharded_speedup"] = p50us(whole, missed) / s
		}
		if perTable != nil {
			m["quant.adc_table_p50_us"] = p50us(perTable, missed)
		}
	}, nil
}

// peelADC adds the ADC table build under a search stage: one search's worth
// of tables in the tree, one table's time in perTable. It returns -1 for an
// index without a quantizer.
func peelADC(p *peel, search int, ix index.Index, embs [][]float32) (st int, perTable []time.Duration) {
	q, tables := quantizerOf(ix)
	if q == nil {
		return -1, nil
	}
	st = p.add("adc_table", search, "", "")
	table := make([]float32, q.M*q.Ks)
	perTable = make([]time.Duration, len(embs))
	p.measure(st, func(i int) { q.ADCTableInto(embs[i], table) }).after = func(i int) {
		perTable[i] = p.stages[st].dur[i]
		p.stages[st].dur[i] *= time.Duration(tables)
	}
	return st, perTable
}

// peelBulk covers POST /bulk: handler → serve.BulkLookup → core.BulkLookup
// of the distinct cells → EmbedAll, BatchSearch. Durations are per request
// (256 cells); the *_per_query rows divide by the distinct cells.
func peelBulk(p *peel, handler int, sv *served, lines []string, m map[string]float64) func() {
	n := len(lines)
	cells := make([][]string, n)
	distinct := make([][]string, n)
	for i, l := range lines {
		cells[i] = strings.Split(l, cellSep)
		seen := map[string]bool{}
		for _, c := range cells[i] {
			if k := core.NormalizeMention(c); !seen[k] {
				seen[k] = true
				distinct[i] = append(distinct[i], k)
			}
		}
	}
	model := sv.model
	embs := make([][][]float32, n)
	srv := p.add("serve", handler, "", "serve.self_p50_us")
	p.measure(srv, func(i int) { sv.serve.BulkLookup(cells[i], 10) })
	norm := p.add("normalize", srv, "core.normalize_p50_us", "")
	p.measure(norm, func(i int) {
		for _, c := range cells[i] {
			core.NormalizeMention(c)
		}
	})
	lookup := p.add("core", srv, "core.lookup_p50_us", "core.self_p50_us")
	p.measure(lookup, func(i int) { model.BulkLookup(distinct[i], 10, 0) })
	embed := p.add("embed", lookup, "core.embed_p50_us", "")
	p.measure(embed, func(i int) { embs[i] = model.EmbedAll(distinct[i], 0) })
	search := p.add("search", lookup, "index.search_p50_us", "index.self_p50_us")
	p.measure(search, func(i int) { index.BatchSearch(model.Index(), embs[i], 10, 0) })

	return func() {
		perQuery := func(d []time.Duration) float64 {
			v := make([]time.Duration, n)
			for i := range d {
				v[i] = d[i] / time.Duration(max(len(distinct[i]), 1))
			}
			return p50us(v, nil)
		}
		m["core.bulk_us_per_query"] = perQuery(p.stages[lookup].dur)
		m["index.batch_us_per_query"] = perQuery(p.stages[search].dur)
		m["index.ns_per_row"] = m["index.batch_us_per_query"] * 1000 / float64(max(model.Index().Len(), 1))
	}
}

// peelCluster covers the routed lookup: router handler → Router.Lookup →
// embed and the slower of the two node RPCs → its marshalling and the node's
// handler → the node's scan → ADC table.
func (e *env) peelCluster(p *peel, handler int, sv *served, lines []string, m map[string]float64, failed *int) (func(), error) {
	n := len(lines)
	router := p.add("router", handler, "", "cluster.router_self_p50_us")
	p.measure(router, func(i int) {
		if sv.local.Router.Lookup(lines[i], 10).Partial {
			*failed++
		}
	})
	embs := make([][]float32, n)
	embed := p.add("embed", router, "core.embed_p50_us", "")
	embedStep := p.measure(embed, func(i int) { embs[i] = sv.model.EmbedAll(lines[i:i+1], 0)[0] })

	// The nodes, rebuilt here the way cluster.StartLocal builds them, so
	// their handlers can be called without the network.
	parts, man, err := cluster.BuildPartitions(sv.model, len(sv.local.URLs))
	if err != nil {
		return nil, err
	}
	nodes := make([]http.Handler, len(parts))
	for i, pm := range parts {
		info := server.PartitionInfo{ID: i, Count: man.Partitions, RowLo: man.Bounds[i], RowHi: man.Bounds[i+1]}
		nodes[i] = server.New(e.graph, pm, server.WithPartition(info)).Handler()
	}
	q, _ := quantizerOf(parts[0].Index())
	var table []float32
	if q != nil {
		table = make([]float32, q.M*q.Ks)
	}

	rpc := p.add("rpc", router, "cluster.rpc_p50_us", "cluster.rpc_self_p50_us")
	marshal := p.add("marshal", rpc, "cluster.marshal_p50_us", "")
	node := p.add("node_handler", rpc, "cluster.node_handler_p50_us", "cluster.node_self_p50_us")
	search := p.add("search", node, "index.search_p50_us", "index.self_p50_us")
	adc := p.add("adc_table", search, "quant.adc_table_p50_us", "")
	client := &http.Client{}
	var reqBytes, respBytes int

	// One leg per node, each layer of it timed by its own call. The router
	// waits for every node, so the slower leg is the one on the request's
	// blocking path and the one the tree records. The legs time themselves,
	// so they hang behind the embed step instead of being steps.
	type leg struct{ rpc, marshal, handler, scan, adc time.Duration }
	embedStep.after = func(i int) {
		var slow leg
		for nd := range nodes {
			var l leg
			start := time.Now()
			body, err := json.Marshal(server.PartitionSearchRequest{K: 10, Queries: embs[i : i+1]})
			l.marshal = time.Since(start)
			var reply []byte
			if err == nil {
				var resp *http.Response
				if resp, err = client.Post(sv.local.URLs[nd]+"/partition/search", "application/json", bytes.NewReader(body)); err == nil {
					reply, err = io.ReadAll(resp.Body)
					resp.Body.Close()
					if err == nil && resp.StatusCode != http.StatusOK {
						err = fmt.Errorf("status %d", resp.StatusCode)
					}
				}
			}
			decode := time.Now()
			var out server.PartitionSearchResponse
			if err == nil {
				err = json.Unmarshal(reply, &out)
			}
			l.marshal += time.Since(decode)
			l.rpc = time.Since(start)
			if err != nil {
				*failed++
				return
			}
			reqBytes, respBytes = len(body), len(reply)

			hreq := httptest.NewRequest(http.MethodPost, "/partition/search", bytes.NewReader(body))
			start = time.Now()
			nodes[nd].ServeHTTP(httptest.NewRecorder(), hreq)
			l.handler = time.Since(start)

			start = time.Now()
			index.BatchSearch(parts[nd].Index(), embs[i:i+1], 10, 0)
			l.scan = time.Since(start)

			if q != nil {
				start = time.Now()
				q.ADCTableInto(embs[i], table)
				l.adc = time.Since(start)
			}
			if l.rpc > slow.rpc {
				slow = l
			}
		}
		p.stages[rpc].dur[i] = slow.rpc
		p.stages[marshal].dur[i] = slow.marshal
		p.stages[node].dur[i] = slow.handler
		p.stages[search].dur[i] = slow.scan
		p.stages[adc].dur[i] = slow.adc
	}

	return func() {
		client.CloseIdleConnections()
		m["cluster.rpc_req_bytes"] = float64(reqBytes)
		m["cluster.rpc_resp_bytes"] = float64(respBytes)
		m["index.ns_per_row"] = p50us(p.stages[search].dur, nil) * 1000 / float64(max(parts[0].Index().Len(), 1))
	}, nil
}
