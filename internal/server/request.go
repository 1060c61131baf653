package server

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"net/http"
	"net/url"
	"strconv"
	"time"

	"emblookup/internal/core"
	"emblookup/internal/obs"
)

// DeadlineHeader carries the caller's remaining budget in milliseconds —
// the cross-service deadline-propagation header (the ?deadline_ms= query
// parameter is the curl-friendly equivalent and wins when both appear).
const DeadlineHeader = "X-Emblookup-Deadline-Ms"

// RequestContext builds the one context a lookup request runs under, on
// every front-end: the HTTP request's context — cancelled when the client
// disconnects — tightened by the caller's budget (?deadline_ms= or
// DeadlineHeader, clamped to maxD when that is positive; defD when the
// caller named none; no deadline when the result is zero), and carrying the
// request's trace (obs.WithTrace) when the caller asked for one (?trace=1),
// when an upstream hop propagated an id (obs.TraceHeader), or when slow —
// the front-end's slow log, nil for none — might need the span breakdown of
// a laggard. Everything below the handler reads both from the context. echo
// reports whether the reply should carry the trace; a malformed budget is a
// 400.
func RequestContext(r *http.Request, query url.Values, defD, maxD time.Duration, slow *obs.SlowLog) (ctx context.Context, cancel context.CancelFunc, echo bool, e *Error) {
	d := defD
	s := query.Get("deadline_ms")
	if s == "" {
		s = r.Header.Get(DeadlineHeader)
	}
	if s != "" {
		ms, err := strconv.Atoi(s)
		if err != nil || ms <= 0 {
			return nil, nil, false, NewError(http.StatusBadRequest, "bad_request", `"deadline_ms" must be a positive integer of milliseconds`)
		}
		// A budget past the longest Duration saturates instead of wrapping
		// negative, which would have meant no deadline at all.
		d = time.Duration(min(int64(ms), math.MaxInt64/int64(time.Millisecond))) * time.Millisecond
		if maxD > 0 && d > maxD {
			d = maxD
		}
	}
	ctx, cancel = r.Context(), func() {}
	if d > 0 {
		ctx, cancel = context.WithTimeout(ctx, d)
	}
	// The trace goes on last, so the lookup path finds it one level down.
	echo = query.Get("trace") == "1"
	if id := r.Header.Get(obs.TraceHeader); id != "" {
		return obs.WithTrace(ctx, obs.NewTraceWith(id)), cancel, true, nil
	}
	if echo || slow != nil {
		ctx = obs.WithTrace(ctx, obs.NewTrace())
	}
	return ctx, cancel, echo, nil
}

// ParseK reads a candidate budget ?k= (min(10, maxK) when absent). The
// whole value must be a decimal integer in 1..maxK — "10abc" and "3.9" are
// errors, not 10 and 3.
func ParseK(s string, maxK int) (int, error) {
	if s == "" {
		return min(10, maxK), nil
	}
	k, err := strconv.Atoi(s)
	if err != nil || k <= 0 || k > maxK {
		return 0, fmt.Errorf(`"k" must be an integer in 1..%d`, maxK)
	}
	return k, nil
}

// errTooMany marks a body carrying more entries than its limit allows.
var errTooMany = errors.New("too many entries")

// ReadQueryLines reads one query per line from r, skipping blank lines and
// failing once maxQueries is exceeded. A line may be as long as the body,
// maxBytes, to which the caller bounds r: a long cell never fails a batch
// the body bound admits.
func ReadQueryLines(r io.Reader, maxQueries int, maxBytes int64) ([]string, error) {
	var queries []string
	sc := bufio.NewScanner(r)
	sc.Buffer(nil, int(maxBytes)+1)
	for sc.Scan() {
		if q := sc.Text(); q != "" {
			queries = append(queries, q)
		}
		if len(queries) > maxQueries {
			return nil, fmt.Errorf("at most %d queries per request: %w", maxQueries, errTooMany)
		}
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("reading body: %w", err)
	}
	return queries, nil
}

// ReadBulkBody reads a /bulk body through ReadQueryLines under lim's two
// bounds, for every front-end.
func ReadBulkBody(w http.ResponseWriter, r *http.Request, lim Limits) ([]string, *Error) {
	r.Body = http.MaxBytesReader(w, r.Body, lim.MaxBulkBytes)
	queries, err := ReadQueryLines(r.Body, lim.MaxBulkQueries, lim.MaxBulkBytes)
	if err != nil {
		return nil, bodyError(err, lim)
	}
	return queries, nil
}

// ReadIngestBody reads an /ingest body through DecodeIngestItems under lim's
// two bounds, for the single-node server and the cluster router.
func ReadIngestBody(w http.ResponseWriter, r *http.Request, lim Limits) ([]core.IngestItem, *Error) {
	r.Body = http.MaxBytesReader(w, r.Body, lim.MaxBulkBytes)
	body, err := io.ReadAll(r.Body)
	var items []core.IngestItem
	if err == nil {
		items, err = DecodeIngestItems(body, lim.MaxBulkQueries)
	}
	if err != nil {
		return nil, bodyError(err, lim)
	}
	return items, nil
}

// bodyError maps a failed read of a body bounded by lim to its reply: 413
// past MaxBulkBytes, 400 past MaxBulkQueries or for an unreadable body.
func bodyError(err error, lim Limits) *Error {
	var mbe *http.MaxBytesError
	switch {
	case errors.As(err, &mbe):
		return NewError(http.StatusRequestEntityTooLarge, "body_too_large", fmt.Sprintf("request body exceeds %d bytes", mbe.Limit))
	case errors.Is(err, errTooMany):
		e := NewError(http.StatusBadRequest, "batch_too_large", err.Error())
		e.Limit = lim.MaxBulkQueries
		return e
	}
	return NewError(http.StatusBadRequest, "bad_request", err.Error())
}

// DecodeIngestItems parses an ingest request body — one core.IngestItem or
// a JSON array of them — enforcing maxItems, so every front-end accepts the
// same wire shapes and applies the same bound.
func DecodeIngestItems(body []byte, maxItems int) ([]core.IngestItem, error) {
	var items []core.IngestItem
	var err error
	trimmed := bytes.TrimLeft(body, " \t\r\n")
	if len(trimmed) > 0 && trimmed[0] == '[' {
		err = json.Unmarshal(body, &items)
	} else {
		var one core.IngestItem
		err = json.Unmarshal(body, &one)
		items = []core.IngestItem{one}
	}
	if err != nil {
		return nil, fmt.Errorf("decoding ingest items: %v", err)
	}
	if len(items) > maxItems {
		return nil, fmt.Errorf("at most %d items per request: %w", maxItems, errTooMany)
	}
	return items, nil
}
