package main

import (
	"bytes"
	"crypto/sha256"
	"fmt"
	"io"
	"net/http"
	"net/url"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"time"
)

// connections is the load generator's connection count: one per core of the
// 2-core host the benchmark is sized for (README, "Sizing").
const connections = 2

// reqKind says how a stream line becomes an HTTP request.
type reqKind int

const (
	kindLookup reqKind = iota // GET <path>?k=10&q=<line>
	kindBulk                  // POST <path>?k=10, the line's cells one per body line
	kindIngest                // POST <path>, the line is the JSON body
)

// target is where and how one stream is sent.
type target struct {
	base string // http://127.0.0.1:port
	path string // /lookup, /t/bench/lookup, /bulk, /ingest
	kind reqKind
}

func (t target) request(line string) (*http.Request, error) {
	switch t.kind {
	case kindBulk:
		body := strings.ReplaceAll(line, cellSep, "\n")
		return http.NewRequest(http.MethodPost, t.base+t.path+"?k=10", strings.NewReader(body))
	case kindIngest:
		req, err := http.NewRequest(http.MethodPost, t.base+t.path, strings.NewReader(line))
		if err == nil {
			req.Header.Set("Content-Type", "application/json")
		}
		return req, err
	}
	return http.NewRequest(http.MethodGet, t.base+t.path+"?k=10&q="+url.QueryEscape(line), nil)
}

// sample is one request as the generator saw it. Times are offsets from the
// phase start.
type sample struct {
	idx   int           // stream line
	start time.Duration // open loop: when it was due; closed loop: when it was sent
	sent  time.Duration
	done  time.Duration
	ok    bool   // transport succeeded and status was 2xx
	bytes int    // response body size
	body  []byte // kept for every keepEvery-th request, for the correctness check
}

func (s sample) latency() time.Duration { return s.done - s.start }

// conn is one persistent connection: a client whose transport may hold
// exactly one.
type conn struct{ client *http.Client }

func newConns() []*conn {
	cs := make([]*conn, connections)
	for i := range cs {
		cs[i] = &conn{client: &http.Client{Transport: &http.Transport{
			MaxConnsPerHost:     1,
			MaxIdleConnsPerHost: 1,
			DisableCompression:  true,
		}}}
	}
	return cs
}

func closeConns(cs []*conn) {
	for _, c := range cs {
		c.client.CloseIdleConnections()
	}
}

// do sends one request and reads the whole response.
func (c *conn) do(t target, line string, keep bool) (ok bool, n int, body []byte) {
	req, err := t.request(line)
	if err != nil {
		return false, 0, nil
	}
	resp, err := c.client.Do(req)
	if err != nil {
		return false, 0, nil
	}
	defer resp.Body.Close()
	if keep {
		body, err = io.ReadAll(resp.Body)
		n = len(body)
	} else {
		var m int64
		m, err = io.Copy(io.Discard, resp.Body)
		n = int(m)
	}
	return err == nil && resp.StatusCode/100 == 2, n, body
}

// phase describes one driven interval over a stream.
type phase struct {
	target    target
	lines     []string
	from      int           // first stream line to send
	conns     []*conn       // the connections this phase may use
	duration  time.Duration // closed loop: stop sending after this long
	count     int           // >0: send exactly this many requests instead (warm-up)
	rate      float64       // >0: open loop at this many requests per second
	keepEvery int           // keep every n-th response body (0 = none)
	epoch     time.Time     // when the phase starts; zero: when run is called
}

// run drives the phase and returns one sample per request sent, in stream
// order. Closed loop: every connection sends its next request as soon as the
// previous one completed, drawing lines from a shared cursor and wrapping
// around a stream that runs out. Open loop: request i is due at i/rate and
// belongs to connection i mod len(conns); a connection still busy at the due
// time sends late, and latency counts from the due time.
func (p phase) run() []sample {
	var mu sync.Mutex
	var out []sample
	var wg sync.WaitGroup
	start := p.epoch
	if start.IsZero() {
		start = time.Now()
	}

	total := p.count
	if p.rate > 0 && total == 0 {
		total = int(p.rate * p.duration.Seconds())
	}
	var cursor atomic.Int64
	for ci, c := range p.conns {
		wg.Add(1)
		go func(ci int, c *conn) {
			defer wg.Done()
			var local []sample
			for {
				var i int
				var due time.Duration
				if p.rate > 0 {
					// Connection ci owns requests ci, ci+n, ci+2n, ...
					i = ci + len(p.conns)*len(local)
					if i >= total {
						break
					}
					due = time.Duration(float64(i) / p.rate * float64(time.Second))
					sleepUntil(start.Add(due))
				} else {
					i = int(cursor.Add(1)) - 1
					if total > 0 && i >= total {
						break
					}
					if total == 0 && time.Since(start) >= p.duration {
						break
					}
				}
				idx := (p.from + i) % len(p.lines)
				s := sample{idx: idx, sent: time.Since(start)}
				s.start = s.sent
				if p.rate > 0 {
					s.start = due
				}
				keep := p.keepEvery > 0 && i%p.keepEvery == 0
				s.ok, s.bytes, s.body = c.do(p.target, p.lines[idx], keep)
				s.done = time.Since(start)
				local = append(local, s)
			}
			mu.Lock()
			out = append(out, local...)
			mu.Unlock()
		}(ci, c)
	}
	wg.Wait()
	sort.Slice(out, func(a, b int) bool { return out[a].start < out[b].start })
	return out
}

// sleepUntil blocks until t. time.Sleep rounds a sub-millisecond remainder up
// to the netpoller's 1 ms when the process is otherwise idle, which would put
// up to a millisecond of the generator's own lateness into every open-loop
// latency; nanosleep on the calling thread wakes within the kernel's timer
// slack and burns no CPU the served process could use.
func sleepUntil(t time.Time) {
	for {
		wait := time.Until(t)
		if wait <= 0 {
			return
		}
		ts := syscall.NsecToTimespec(int64(wait))
		syscall.Nanosleep(&ts, nil) // an early wake-up (EINTR) just loops
	}
}

// hostCalibration times two fixed pieces of work in this process: hashing
// 8 MB (compute-bound) and streaming over 64 MB (memory-bound), each the
// median of three. They say nothing about the served program; they say how
// fast the host was when the run was taken. On a shared host the memory
// figure moves by a third from one minute to the next, and every timing
// moves with it.
func hostCalibration() (cpuMs, memMs float64) {
	small := make([]byte, 1<<20)
	big := make([]uint64, 8<<20)
	for i := range big {
		big[i] = uint64(i)
	}
	var cpu, mem []float64
	var sink uint64
	for rep := 0; rep < 3; rep++ {
		start := time.Now()
		for i := 0; i < 8; i++ {
			sum := sha256.Sum256(small)
			sink += uint64(sum[0])
		}
		cpu = append(cpu, float64(time.Since(start))/float64(time.Millisecond))
		start = time.Now()
		for i := 0; i < len(big); i += 8 { // one load per cache line
			sink += big[i]
		}
		mem = append(mem, float64(time.Since(start))/float64(time.Millisecond))
	}
	calibrationSink = sink
	return median(cpu), median(mem)
}

// calibrationSink keeps the calibration loops from being optimized away.
var calibrationSink uint64

// quantile returns the p-quantile (0..1) of sorted by the nearest-rank rule.
func quantile(sorted []float64, p float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	i := int(p*float64(len(sorted))+0.5) - 1
	if i < 0 {
		i = 0
	}
	if i >= len(sorted) {
		i = len(sorted) - 1
	}
	return sorted[i]
}

func median(v []float64) float64 {
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	if len(s) == 0 {
		return 0
	}
	if len(s)%2 == 1 {
		return s[len(s)/2]
	}
	return (s[len(s)/2-1] + s[len(s)/2]) / 2
}

// minSlices is the least number of equal slices a timed run is cut into; a
// run of more seconds has one slice per second.
const minSlices = 5

// sliceMetrics computes the timed end-to-end metrics once per slice of the
// run. A sample belongs to the slice its start falls in. cuts are the
// instants (offsets from the phase start, cuts[0] = 0) at which the child's
// cumulative CPU seconds cpuAt were read; a slice's CPU time is divided by
// the lookups served between its two cuts, a request that straddles a cut
// counting in each slice by the share of its time spent there. A slice
// without samples contributes no value.
func sliceMetrics(samples []sample, window time.Duration, cuts []time.Duration, cpuAt []float64, cells int) map[string][]float64 {
	n := len(cuts) - 1
	parts := make([][]sample, n)
	servedIn := make([]float64, n)
	for _, s := range samples {
		i := min(int(int64(s.start)*int64(n)/int64(window)), n-1)
		parts[i] = append(parts[i], s)
		if !s.ok || s.done <= s.sent {
			continue
		}
		for k := 0; k < n; k++ {
			if overlap := min(s.done, cuts[k+1]) - max(s.sent, cuts[k]); overlap > 0 {
				servedIn[k] += float64(cells) * float64(overlap) / float64(s.done-s.sent)
			}
		}
	}
	out := map[string][]float64{}
	for i, part := range parts {
		if len(part) == 0 {
			continue
		}
		out["lat_p50_ms"] = append(out["lat_p50_ms"], latencyMs(part, 0.50))
		out["lat_p95_ms"] = append(out["lat_p95_ms"], latencyMs(part, 0.95))
		// Completed lookups over the time they took: first send of the slice
		// to its last completion.
		ok, last := 0, part[0].done
		for _, s := range part {
			if s.ok {
				ok += cells
			}
			last = max(last, s.done)
		}
		out["throughput_qps"] = append(out["throughput_qps"], float64(ok)/(last-part[0].sent).Seconds())
		if servedIn[i] >= 1 {
			out["cpu_ms_per_lookup"] = append(out["cpu_ms_per_lookup"], (cpuAt[i+1]-cpuAt[i])*1000/servedIn[i])
		}
	}
	return out
}

// acrossSlices reduces a metric's per-slice values to the reported one: their
// q-quantile counted from the metric's better side (q = 0.10 of twenty
// slices: the second-lowest latency, the second-highest rate). On a shared
// host a neighbour can only slow a slice down, never speed it up, so the
// better decile is what the program does when it has the machine: it stays
// put until nine tenths of a run's slices are disturbed, where the median
// gives way at half. A change to the program moves every slice, and so moves
// the decile as it would the median; README.md ("Steadiness") has the
// measurements behind the choice.
func acrossSlices(vals []float64, higherIsBetter bool, q float64) float64 {
	sign := 1.0
	if higherIsBetter {
		sign = -1
	}
	s := make([]float64, len(vals))
	for i, v := range vals {
		s[i] = sign * v
	}
	sort.Float64s(s)
	return sign * quantile(s, q)
}

// latencyMs returns the p-quantile of the successful samples' latency in
// milliseconds.
func latencyMs(part []sample, p float64) float64 {
	var v []float64
	for _, s := range part {
		if s.ok {
			v = append(v, float64(s.latency())/float64(time.Millisecond))
		}
	}
	sort.Float64s(v)
	return quantile(v, p)
}

// tookUs extracts the handler's own "tookUs" from a /lookup response body
// without decoding it.
func tookUs(body []byte) (float64, bool) {
	const key = `"tookUs":`
	i := bytes.Index(body, []byte(key))
	if i < 0 {
		return 0, false
	}
	var v float64
	if _, err := fmt.Sscanf(string(body[i+len(key):]), "%g", &v); err != nil {
		return 0, false
	}
	return v, true
}
