package core

import (
	"context"
	"errors"
	"fmt"
	"slices"
	"sync/atomic"
	"testing"

	"emblookup/internal/obs"
)

// countdownCtx reports context.Canceled from its (left+1)-th Err call on —
// a context that fires at a chosen check inside a lookup, deterministically.
type countdownCtx struct {
	context.Context
	left atomic.Int64
}

func newCountdownCtx(left int) *countdownCtx {
	c := &countdownCtx{Context: context.Background()}
	c.left.Store(int64(left))
	return c
}

func (c *countdownCtx) Err() error {
	if c.left.Add(-1) < 0 {
		return context.Canceled
	}
	return nil
}

func spanNames(tr *obs.Trace) []string {
	var names []string
	for _, sp := range tr.Spans() {
		names = append(names, sp.Name)
	}
	return names
}

// TestLookupOnePath holds the one lookup body to its contract over
// {background, cancellable, already done, cancelled at every check in turn}
// × {no trace, trace}: candidates bit-identical to Lookup whenever err is
// nil, ctx's error and no candidates otherwise, and on a trace that rode in
// exactly the spans of the stages that ran — those recorded before a
// cancellation are kept.
func TestLookupOnePath(t *testing.T) {
	g, e := fixture(t)
	sharded, err := e.WithShardedIndex(4, 2)
	if err != nil {
		t.Fatal(err)
	}
	q := g.Entities[7].Label
	want := e.Lookup(q, 10)
	stages := []string{"embed", "search", "merge"}

	live, cancel := context.WithCancel(context.Background())
	defer cancel()
	done, cancelDone := context.WithCancel(context.Background())
	cancelDone()
	type ctxCase struct {
		name string
		ctx  func() context.Context
		ok   bool // the lookup must succeed
	}
	cases := []ctxCase{
		{"background", context.Background, true},
		{"cancellable", func() context.Context { return live }, true},
		{"done", func() context.Context { return done }, false},
	}
	// Entry, after embed, the scan's own entry, one per shard, after the
	// fan-out, after the search: a countdown swept past them all cancels
	// the lookup at every check it makes, mid-scan included.
	for n := 0; n < 12; n++ {
		cases = append(cases, ctxCase{fmt.Sprintf("countdown-%d", n), func() context.Context { return newCountdownCtx(n) }, n == 11})
	}
	var midScan bool
	for name, m := range map[string]*EmbLookup{"bare": e, "sharded": sharded} {
		for _, c := range cases {
			for _, traced := range []bool{false, true} {
				ctx, tr := c.ctx(), (*obs.Trace)(nil)
				if traced {
					tr = obs.NewTrace()
					ctx = obs.WithTrace(ctx, tr)
				}
				got, err := m.LookupCtx(ctx, q, 10)
				spans := spanNames(tr)
				if err == nil {
					if !slices.Equal(got, want) {
						t.Fatalf("%s/%s: candidates %+v, want %+v", name, c.name, got, want)
					}
					if traced && !slices.Equal(spans, stages) {
						t.Errorf("%s/%s: spans %v, want %v", name, c.name, spans, stages)
					}
					continue
				}
				if c.ok || !errors.Is(err, context.Canceled) || got != nil {
					t.Fatalf("%s/%s: %d candidates, err %v", name, c.name, len(got), err)
				}
				// A cancelled lookup never merges, and keeps what it
				// recorded on the way; one done on arrival records nothing.
				if len(spans) > 2 || !slices.Equal(spans, stages[:len(spans)]) || (c.name == "done" && len(spans) > 0) {
					t.Errorf("%s/%s: cancelled lookup recorded spans %v", name, c.name, spans)
				}
				midScan = midScan || (name == "sharded" && len(spans) == 2)
			}
		}
	}
	if !midScan {
		t.Fatal("no countdown cancelled the sharded lookup inside its search stage")
	}

	// A batch under a traced context records its three stages too.
	tr := obs.NewTrace()
	if _, err := e.BulkLookupCtx(obs.WithTrace(context.Background(), tr), []string{q, "x"}, 5, 2); err != nil {
		t.Fatal(err)
	}
	if spans := spanNames(tr); !slices.Equal(spans, []string{"embed", "batch_scan", "merge"}) {
		t.Errorf("bulk spans %v", spans)
	}
}
