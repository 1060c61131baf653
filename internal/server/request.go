package server

import (
	"context"
	"fmt"
	"net/http"
	"strconv"
	"time"

	"emblookup/internal/obs"
)

// DeadlineHeader carries the caller's remaining budget in milliseconds —
// the cross-service deadline-propagation header (the ?deadline_ms= query
// parameter is the curl-friendly equivalent and wins when both appear).
const DeadlineHeader = "X-Emblookup-Deadline-Ms"

// RequestDeadline extracts the caller's deadline budget from the request.
// Returns (0, false, nil) when no deadline was asked for; a malformed
// value is an error the handler should turn into a 400.
func RequestDeadline(r *http.Request) (time.Duration, bool, error) {
	s := r.URL.Query().Get("deadline_ms")
	if s == "" {
		s = r.Header.Get(DeadlineHeader)
	}
	if s == "" {
		return 0, false, nil
	}
	ms, err := strconv.Atoi(s)
	if err != nil || ms <= 0 {
		return 0, false, fmt.Errorf(`"deadline_ms" must be a positive integer of milliseconds`)
	}
	return time.Duration(ms) * time.Millisecond, true, nil
}

// RequestContext builds the one context a lookup request runs under, for
// every front-end (Server, TenantServer, the cluster router): the HTTP
// request's context — cancelled when the client disconnects — tightened by
// the caller's budget (?deadline_ms= or DeadlineHeader, clamped to maxD when
// that is positive; defD when the caller named none; no deadline when the
// result is zero), and carrying the request's trace (obs.WithTrace) when the
// caller asked for one (?trace=1), when an upstream hop propagated an id
// (obs.TraceHeader), or when slow — the front-end's slow log, nil for none —
// might need the span breakdown of a laggard. Everything below the handler
// reads both from the context. echo reports whether the reply should carry
// the trace; a malformed budget is an error the handler turns into a 400.
func RequestContext(r *http.Request, defD, maxD time.Duration, slow *obs.SlowLog) (ctx context.Context, cancel context.CancelFunc, echo bool, err error) {
	d, ok, err := RequestDeadline(r)
	if err != nil {
		return nil, nil, false, err
	}
	if !ok {
		d = defD
	} else if maxD > 0 && d > maxD {
		d = maxD
	}
	ctx, cancel = r.Context(), func() {}
	if d > 0 {
		ctx, cancel = context.WithTimeout(ctx, d)
	}
	// The trace goes on last, so the lookup path finds it one level down.
	echo = r.URL.Query().Get("trace") == "1"
	if id := r.Header.Get(obs.TraceHeader); id != "" {
		return obs.WithTrace(ctx, obs.NewTraceWith(id)), cancel, true, nil
	}
	if echo || slow != nil {
		ctx = obs.WithTrace(ctx, obs.NewTrace())
	}
	return ctx, cancel, echo, nil
}

// ParseK reads the request's candidate budget ?k= (10 when absent). The
// whole value must be a decimal integer in 1..maxK — "10abc" and "3.9" are
// errors, not 10 and 3.
func ParseK(r *http.Request, maxK int) (int, error) {
	ks := r.URL.Query().Get("k")
	if ks == "" {
		return 10, nil
	}
	k, err := strconv.Atoi(ks)
	if err != nil || k <= 0 || k > maxK {
		return 0, fmt.Errorf(`"k" must be an integer in 1..%d`, maxK)
	}
	return k, nil
}
