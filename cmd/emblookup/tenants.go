package main

import (
	"log"

	"emblookup/internal/obs"
	"emblookup/internal/server"
	"emblookup/internal/tenant"
)

// serveTenants runs the multi-tenant serving mode (DESIGN.md §15): one
// process hosting N named models behind per-tenant admission control and
// deadline budgets.
//
//	emblookup serve -tenants conf.json -addr :8080
//
// conf.json names each tenant with its graph/model artifact paths and
// limits:
//
//	{"tenants": [
//	  {"name": "wikidata", "graph": "wd-graph.bin", "model": "wd-model.bin",
//	   "preload": true,
//	   "limits": {"ratePerSec": 500, "maxConcurrent": 32, "maxK": 100,
//	              "defaultDeadlineMs": 250}},
//	  {"name": "dbpedia", "graph": "db-graph.bin", "model": "db-model.bin"}
//	]}
//
// Tenants without "preload" attach lazily on their first request; POST
// /t/{name}/reload hot-swaps a tenant from its (rewritten) artifact paths
// without dropping in-flight requests.
func serveTenants(confPath, addr string, metricsOn bool, sl *obs.SlowLog) {
	cfg, err := tenant.LoadConfig(confPath)
	if err != nil {
		log.Fatalf("loading tenant config: %v", err)
	}
	reg, err := tenant.NewRegistry(cfg, nil)
	if err != nil {
		log.Fatalf("building tenant registry: %v", err)
	}
	defer reg.Close()
	ts := server.NewTenantServer(reg, obsOptions(metricsOn, sl)...)
	log.Printf("serving %d tenants on %s: %v", len(cfg.Tenants), addr, reg.Names())
	log.Fatal(server.NewHTTPServer(addr, ts.Handler()).ListenAndServe())
}
