package cluster

import (
	"context"
	"errors"
	"io"
	"net/http"
	"runtime"
	"testing"
	"time"

	"emblookup/internal/obs"
)

func TestAttemptTimeout(t *testing.T) {
	base := 2 * time.Second
	// No deadline: the configured per-attempt timeout stands.
	if got := AttemptTimeout(context.Background(), base, 3); got != base {
		t.Fatalf("no deadline: %v, want %v", got, base)
	}
	// A deadline tighter than base×attempts splits the remainder.
	ctx, cancel := context.WithTimeout(context.Background(), 300*time.Millisecond)
	defer cancel()
	got := AttemptTimeout(ctx, base, 3)
	if got <= 0 || got > 150*time.Millisecond {
		t.Fatalf("tight deadline: per-attempt %v, want ≈100ms (remaining/3)", got)
	}
	// A roomy deadline never inflates past base.
	ctx2, cancel2 := context.WithTimeout(context.Background(), time.Hour)
	defer cancel2()
	if got := AttemptTimeout(ctx2, base, 1); got != base {
		t.Fatalf("roomy deadline: %v, want capped at %v", got, base)
	}
	// A spent deadline reports non-positive: nothing left to attempt with.
	expired, cancel3 := context.WithCancel(context.Background())
	cancel3()
	if got := AttemptTimeout(expired, base, 2); got > 0 {
		t.Fatalf("spent deadline: %v, want ≤ 0", got)
	}
}

// TestRouterDeadlineExceededExactlyOnce: every lost query ticks the
// counter exactly once, at the router — never again in the retry or hedge
// layers underneath.
func TestRouterDeadlineExceededExactlyOnce(t *testing.T) {
	_, m := testModel(t)
	l, err := StartLocal(m, 2, LocalOptions{
		Router: RouterOptions{HedgeAfter: -1, Registry: obs.New()},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()

	expired, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := l.Router.BulkLookupCtx(expired, []string{"a", "b", "c"}, 5); !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if got := l.Router.deadlineExceeded.Load(); got != 3 {
		t.Fatalf("deadline_exceeded = %d after a lost 3-query batch, want 3", got)
	}
	if _, err := l.Router.LookupCtx(expired, "d", 5); err == nil {
		t.Fatal("expired single lookup succeeded")
	}
	if got := l.Router.deadlineExceeded.Load(); got != 4 {
		t.Fatalf("deadline_exceeded = %d, want 4 (exactly once per query)", got)
	}
	// A successful routed lookup leaves the counter alone.
	if _, err := l.Router.LookupCtx(context.Background(), "e", 5); err != nil {
		t.Fatal(err)
	}
	if got := l.Router.deadlineExceeded.Load(); got != 4 {
		t.Fatalf("deadline_exceeded moved to %d on a successful lookup", got)
	}
}

// TestRouterCtxCancelStopsFanout (run with -race): a cancelled client
// context stops the whole scatter — node requests return promptly, hedged
// duplicates die with their parent, no goroutine keeps computing into the
// void, and the health tracker does not blame the nodes for the caller's
// departure.
func TestRouterCtxCancelStopsFanout(t *testing.T) {
	_, m := testModel(t)
	// Every node hangs /partition/search until the request's own context
	// fires — the only way a request finishes during this test is
	// cancellation propagating through the router's HTTP client. The body
	// is drained first: net/http watches the connection for the client's
	// abort only once the request body has hit EOF.
	entered := make(chan int, 16) // node index per stalled request; 2 nodes × (attempt + hedge) fit
	stall := func(i int, r *http.Request) {
		io.Copy(io.Discard, r.Body)
		entered <- i
		<-r.Context().Done()
	}
	l, err := StartLocal(m, 2, LocalOptions{
		Router: RouterOptions{
			Timeout:    30 * time.Second,
			HedgeAfter: 5 * time.Millisecond, // hedges spawn, then must die too
			Registry:   obs.New(),
		},
		Wrap: func(i int, h http.Handler) http.Handler {
			return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
				if r.URL.Path == "/partition/search" {
					stall(i, r)
					return
				}
				h.ServeHTTP(w, r)
			})
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()

	before := runtime.NumGoroutine()
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() {
		_, err := l.Router.BulkLookupCtx(ctx, []string{"x", "y"}, 5)
		done <- err
	}()
	// Cancel once the scatter is fully out: both nodes hold a request, and
	// a third arrival means a hedge has spawned too.
	for seen, n := [2]bool{}, 0; !seen[0] || !seen[1] || n < 3; n++ {
		seen[<-entered] = true
	}
	cancel()
	select {
	case err := <-done:
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("err = %v, want context.Canceled", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("fan-out did not stop on cancel (nodes hold requests forever)")
	}
	if got := l.Router.deadlineExceeded.Load(); got != 2 {
		t.Fatalf("deadline_exceeded = %d, want 2 (once per query)", got)
	}

	// All scatter goroutines — node attempts, hedges, backoff sleeps — must
	// wind down. Allow the runtime a moment to reap them.
	deadline := time.Now().Add(5 * time.Second)
	for {
		runtime.GC()
		if g := runtime.NumGoroutine(); g <= before+2 {
			break
		}
		if time.Now().After(deadline) {
			buf := make([]byte, 1<<16)
			n := runtime.Stack(buf, true)
			t.Fatalf("goroutines leaked: %d before, %d after cancel\n%s",
				before, runtime.NumGoroutine(), buf[:n])
		}
		time.Sleep(20 * time.Millisecond)
	}

	// The caller's departure is not a node failure: nothing should be
	// marked unhealthy by the abandoned attempts.
	st := l.Router.Stats()
	if st.Healthy != len(st.Nodes) {
		t.Fatalf("client cancel marked nodes unhealthy: %d/%d healthy (%+v)",
			st.Healthy, len(st.Nodes), st.Nodes)
	}
}

// TestRouterDeadlinePropagation: a real (non-cancelled) deadline bounds the
// whole routed call even when nodes stall far longer.
func TestRouterDeadlinePropagation(t *testing.T) {
	_, m := testModel(t)
	stallFirst := func(i int, h http.Handler) http.Handler {
		return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			if r.URL.Path == "/partition/search" {
				select {
				case <-time.After(10 * time.Second):
				case <-r.Context().Done():
					return
				}
			}
			h.ServeHTTP(w, r)
		})
	}
	l, err := StartLocal(m, 2, LocalOptions{
		Router: RouterOptions{Timeout: 30 * time.Second, HedgeAfter: -1, Registry: obs.New()},
		Wrap:   stallFirst,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()

	ctx, cancel := context.WithTimeout(context.Background(), 200*time.Millisecond)
	defer cancel()
	start := time.Now()
	_, err = l.Router.LookupCtx(ctx, "q", 5)
	took := time.Since(start)
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("err = %v, want context.DeadlineExceeded", err)
	}
	// The 30s node timeout must not gate the return — the deadline does.
	if took > 3*time.Second {
		t.Fatalf("routed call took %v past a 200ms deadline", took)
	}
	if got := l.Router.deadlineExceeded.Load(); got != 1 {
		t.Fatalf("deadline_exceeded = %d, want 1", got)
	}
}
