package remote

import (
	"testing"
	"time"

	"emblookup/internal/baselines"
	"emblookup/internal/kg"
	"emblookup/internal/lookup"
)

func backend() lookup.Service {
	c := &lookup.Corpus{Mentions: []lookup.Mention{
		{Text: "Germany", Entity: 1},
		{Text: "France", Entity: 2},
	}}
	return baselines.NewExact(c)
}

func TestVirtualLatencyAccounting(t *testing.T) {
	s := New("wikidata-api", backend(), Config{Latency: 100 * time.Millisecond, MaxParallel: 5})
	for i := 0; i < 10; i++ {
		s.Lookup("Germany", 5)
	}
	// 10 requests at 5 parallel = 2 rounds of 100ms.
	if got := s.VirtualElapsed(); got != 200*time.Millisecond {
		t.Fatalf("VirtualElapsed = %v, want 200ms", got)
	}
	if s.Requests() != 10 {
		t.Fatalf("Requests = %d", s.Requests())
	}
	s.ResetVirtual()
	if s.VirtualElapsed() != 0 {
		t.Fatal("reset did not clear virtual time")
	}
}

func TestVirtualElapsedZeroRequests(t *testing.T) {
	s := New("x", backend(), WikidataAPIConfig())
	if s.VirtualElapsed() != 0 {
		t.Fatal("no requests should mean zero virtual time")
	}
}

func TestResultsPassThrough(t *testing.T) {
	s := New("x", backend(), WikidataAPIConfig())
	res := s.Lookup("Germany", 5)
	if len(res) != 1 || res[0].ID != 1 {
		t.Fatalf("passthrough results wrong: %+v", res)
	}
}

func TestMaxParallelDefaults(t *testing.T) {
	s := New("x", backend(), Config{Latency: time.Millisecond})
	s.Lookup("Germany", 1)
	if s.VirtualElapsed() != time.Millisecond {
		t.Fatalf("MaxParallel 0 should default to 1: %v", s.VirtualElapsed())
	}
}

func TestTotalDurationCombinesClocks(t *testing.T) {
	s := New("x", backend(), Config{Latency: 50 * time.Millisecond, MaxParallel: 1})
	s.Lookup("Germany", 1)
	total := lookup.TotalDuration(s, 10*time.Millisecond)
	if total != 60*time.Millisecond {
		t.Fatalf("TotalDuration = %v", total)
	}
	// A plain local service contributes no virtual time.
	local := backend()
	if lookup.TotalDuration(local, 10*time.Millisecond) != 10*time.Millisecond {
		t.Fatal("local service should add nothing")
	}
}

// TestTimedCountsOnlyItsRun: Timed over a service that already accrued
// virtual time charges the run its own round trips, not the earlier ones,
// on top of its wall time.
func TestTimedCountsOnlyItsRun(t *testing.T) {
	s := New("x", backend(), Config{Latency: time.Hour, MaxParallel: 1})
	for i := 0; i < 5; i++ {
		s.Lookup("France", 1) // five hours accrued before the measured run
	}
	res, took := lookup.Timed(s, []string{"Germany", "France"}, 1, 1)
	if took < 2*time.Hour || took >= 3*time.Hour {
		t.Fatalf("Timed = %v, want the run's 2h of round trips plus its wall time", took)
	}
	if len(res) != 2 || res[0][0].ID != 1 || res[1][0].ID != 2 {
		t.Fatalf("Timed results = %+v", res)
	}
}

func TestSearXSlowerThanWikidata(t *testing.T) {
	w := WikidataAPIConfig()
	x := SearXConfig()
	if x.Latency <= w.Latency {
		t.Fatal("SearX should model higher latency")
	}
}

func TestRemoteKnowsAliases(t *testing.T) {
	// A remote endpoint indexes the full alias set, unlike the local
	// baselines' label-only corpora — that asymmetry drives Table VI.
	g, _ := kg.Generate(kg.DefaultGeneratorConfig(kg.WikidataProfile, 300))
	full := lookup.CorpusFromGraph(g, true)
	s := New("wikidata-api", baselines.NewExact(full), WikidataAPIConfig())
	var target *kg.Entity
	for i := range g.Entities {
		if len(g.Entities[i].Aliases) > 0 {
			target = &g.Entities[i]
			break
		}
	}
	if target == nil {
		t.Fatal("no aliased entity")
	}
	res := s.Lookup(target.Aliases[0], 10)
	found := false
	for _, r := range res {
		if r.ID == target.ID {
			found = true
		}
	}
	if !found {
		t.Fatalf("remote service should resolve alias %q", target.Aliases[0])
	}
}
