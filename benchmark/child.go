package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"net"
	"net/http"
	"os"
	"strconv"
	"strings"
	"sync/atomic"
	"syscall"
	"time"

	"emblookup/internal/cluster"
	"emblookup/internal/core"
	"emblookup/internal/index"
	"emblookup/internal/kg"
	"emblookup/internal/obs"
	"emblookup/internal/serve"
	"emblookup/internal/server"
	"emblookup/internal/tenant"
)

// childEnv names the spec file of a serving child. Every workload is served
// by a fresh process of this same binary started with the variable set, so
// its peak RSS, its CPU time and its obs.Default() registry belong to that
// workload alone.
const childEnv = "EMBLOOKUP_BENCH_CHILD"

// runHelper runs this process as a serving child or a keep-awake spinner when
// its environment asks for one, and reports whether it did.
func runHelper() (bool, error) {
	if spec := os.Getenv(childEnv); spec != "" {
		return true, childMain(spec)
	}
	if cpu := os.Getenv(awakeEnv); cpu != "" {
		return true, awakeMain(cpu)
	}
	return false, nil
}

// tenantName is the one tenant of the tenant_zipf workload.
const tenantName = "bench"

// childSpec tells a child what to serve.
type childSpec struct {
	Workload string `json:"workload"`
	Graph    string `json:"graph"`
	Model    string `json:"model"`
}

// childReady is the first line a child prints: where it listens.
type childReady struct {
	Addr string `json:"addr"`
}

// served is one workload's serving stack: the handler the listener mounts,
// the counters its layers expose, and — for the traced replay, which calls
// each layer directly — the layers themselves.
type served struct {
	handler  http.Handler
	counters func(into map[string]float64)
	close    func()

	model  *core.EmbLookup // what the handler's lookups reach (sharded / dynamic sibling)
	serve  *serve.Serve    // nil where the serve substrate is bypassed
	tenant *tenant.Tenant
	local  *cluster.Local
}

// buildServed assembles the product's serving stack for a workload, with
// product-default options, over its own mmap attach of the artifact at
// spec.Model. g may be nil for tenant_zipf, whose registry loads the graph
// itself. The traced replay builds its in-process instances through the same
// function, so the child and the replay cannot drift apart.
func buildServed(spec childSpec, g *kg.Graph) (*served, error) {
	if spec.Workload == "tenant_zipf" {
		return buildTenant(spec)
	}
	model, err := core.LoadFile(spec.Model, g)
	if err != nil {
		return nil, fmt.Errorf("attaching model: %w", err)
	}
	sv, err := buildSingle(spec, g, model)
	if err != nil {
		model.Close()
		return nil, err
	}
	inner := sv.close
	sv.close = func() { inner(); model.Close() }
	return sv, nil
}

func buildSingle(spec childSpec, g *kg.Graph, model *core.EmbLookup) (*served, error) {
	switch spec.Workload {
	case "single_miss", "single_bulk":
		sv, err := serve.New(model, serve.Options{})
		if err != nil {
			return nil, err
		}
		return &served{
			handler:  server.New(g, model, server.WithServe(sv)).Handler(),
			counters: func(c map[string]float64) { serveCounters(c, sv.Stats()) },
			close:    sv.Close,
			model:    sv.Model(),
			serve:    sv,
		}, nil
	case "single_ingest_mix":
		// The CLI's -dynamic shape: mutable index, ingest worker, and no
		// serve substrate (its cache and shard bounds assume a sealed index).
		dyn := model.WithDynamicIndex(0)
		ing, err := dyn.NewIngestor(256)
		if err != nil {
			return nil, err
		}
		base := dyn.Dynamic().Stats().Base
		var queueMax atomic.Int64
		stop := make(chan struct{})
		done := make(chan struct{})
		go func() {
			// IngestStats.Queued is instantaneous; its maximum needs sampling.
			defer close(done)
			tick := time.NewTicker(5 * time.Millisecond)
			defer tick.Stop()
			for {
				select {
				case <-stop:
					return
				case <-tick.C:
					if q := int64(ing.Stats().Queued); q > queueMax.Load() {
						queueMax.Store(q)
					}
				}
			}
		}()
		return &served{
			handler: server.New(g, dyn, server.WithIngest(ing)).Handler(),
			counters: func(c map[string]float64) {
				is, ds := ing.Stats(), dyn.Dynamic().Stats()
				c["ingest_applied"] = float64(is.Applied)
				c["ingest_failed"] = float64(is.Failed)
				c["ingest_queue_max"] = float64(queueMax.Load())
				c["dynamic_delta_rows"] = float64(ds.Delta)
				// DynamicStats has no compaction counter; the base only grows
				// by whole compactions.
				c["dynamic_compactions"] = float64((ds.Base - base) / index.DefaultCompactThreshold)
			},
			close: func() { close(stop); <-done; ing.Close() },
			model: dyn,
		}, nil

	case "cluster_miss":
		local, err := cluster.StartLocal(model, 2, cluster.LocalOptions{})
		if err != nil {
			return nil, err
		}
		return &served{
			handler: local.Router.Handler(),
			counters: func(c map[string]float64) {
				st := local.Router.Stats()
				c["cluster_requests"] = float64(st.Totals.Requests)
				c["cluster_retries"] = float64(st.Totals.Retries)
				c["cluster_hedges"] = float64(st.Totals.Hedges)
				c["cluster_partial"] = float64(st.PartialResponses)
			},
			close: local.Close,
			model: model,
			local: local,
		}, nil
	}
	return nil, fmt.Errorf("unknown workload %q", spec.Workload)
}

// buildTenant hosts the artifact as the one tenant of a TenantServer: IVF
// does not shard, and the limits are open (no rate gate, the default
// concurrency cap far above two connections).
func buildTenant(spec childSpec) (*served, error) {
	reg, err := tenant.NewRegistry(tenant.Config{Tenants: []tenant.TenantConfig{{
		Name: tenantName, Graph: spec.Graph, Model: spec.Model, Shards: 1, Preload: true,
	}}}, nil)
	if err != nil {
		return nil, err
	}
	t, _ := reg.Tenant(tenantName)
	h, err := t.Acquire()
	if err != nil {
		reg.Close()
		return nil, err
	}
	defer h.Release()
	return &served{
		handler: server.NewTenantServer(reg).Handler(),
		counters: func(c map[string]float64) {
			st := t.Stats()
			c["tenant_admitted"] = float64(st.Admission.Admitted)
			c["tenant_shed"] = float64(st.Admission.Shed + st.Admission.RateLimited)
			if st.Serving != nil {
				serveCounters(c, *st.Serving)
			}
		},
		close:  reg.Close,
		model:  h.Serve().Model(),
		serve:  h.Serve(),
		tenant: t,
	}, nil
}

func serveCounters(c map[string]float64, st serve.Stats) {
	if st.Cache != nil {
		c["cache_hits"] = float64(st.Cache.Hits)
		c["cache_misses"] = float64(st.Cache.Misses)
	}
	if st.Coalescer != nil {
		c["coalesce_batches"] = float64(st.Coalescer.Batches)
		c["coalesce_queries"] = float64(st.Coalescer.Queries)
	}
}

// childMain serves one workload until told to stop. Protocol, one line each
// way: the child prints a childReady line once it listens; "snap" on stdin
// is answered with a JSON object of cumulative counters; "stop" (or EOF)
// ends the process.
func childMain(specPath string) error {
	buf, err := os.ReadFile(specPath)
	if err != nil {
		return err
	}
	var spec childSpec
	if err := json.Unmarshal(buf, &spec); err != nil {
		return fmt.Errorf("%s: %w", specPath, err)
	}

	var g *kg.Graph
	if spec.Workload != "tenant_zipf" {
		if g, err = kg.LoadFile(spec.Graph); err != nil {
			return fmt.Errorf("loading graph: %w", err)
		}
	}
	sv, err := buildServed(spec, g)
	if err != nil {
		return err
	}
	defer sv.close()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return err
	}
	srv := server.NewHTTPServer("", sv.handler)
	go srv.Serve(ln)
	defer srv.Close()

	out := json.NewEncoder(os.Stdout)
	if err := out.Encode(childReady{Addr: ln.Addr().String()}); err != nil {
		return err
	}
	in := bufio.NewScanner(os.Stdin)
	for in.Scan() {
		switch in.Text() {
		case "snap":
			c := map[string]float64{}
			sv.counters(c)
			processCounters(c)
			if err := out.Encode(c); err != nil {
				return err
			}
		case "stop":
			return nil
		}
	}
	return in.Err()
}

// processCounters adds what the process itself knows: CPU time, peak RSS,
// and the histograms of its own obs.Default() registry that no Stats()
// carries (get-or-create returns the handles the layers record into).
func processCounters(c map[string]float64) {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err == nil {
		c["cpu_s"] = tvSeconds(ru.Utime) + tvSeconds(ru.Stime)
	}
	c["rss_peak_mb"] = vmHWMMB()
	reg := obs.Default()
	c["coalesce_wait_p50_us"] = reg.Histogram("emblookup_coalescer_wait_seconds").Summary().P50Us
	bulk := reg.Histogram("emblookup_bulk_batch_size").Snapshot()
	c["core_bulk_queries"] = float64(bulk.Sum)
}

func tvSeconds(tv syscall.Timeval) float64 {
	return float64(tv.Sec) + float64(tv.Usec)/1e6
}

// vmHWMMB reads the process's peak resident set from /proc; 0 where /proc
// is absent.
func vmHWMMB() float64 {
	buf, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0
	}
	for _, line := range strings.Split(string(buf), "\n") {
		if strings.HasPrefix(line, "VmHWM:") {
			if f := strings.Fields(line); len(f) >= 2 {
				kb, _ := strconv.ParseFloat(f[1], 64)
				return kb / 1024
			}
		}
	}
	return 0
}
