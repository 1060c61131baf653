package core

import (
	"fmt"
	"sync"
	"time"

	"emblookup/internal/kg"
	"emblookup/internal/obs"
)

// Streaming ingest (DESIGN.md §13): new entities and aliases enter the
// service under live traffic with no retraining and no index rebuild. An
// Ingestor serializes all mutations onto one background worker — embed in
// the trained anchor space, extend the row→entity mapping, append to the
// dynamic index (compacting inline) — and each publishes a snapshot, so
// lookups take no index lock and never wait on it. New entities also grow the
// knowledge graph; readers that resolve candidate IDs against the graph
// during live ingest must hold the Ingestor's read lock (the HTTP server
// does when built WithIngest).

// Ingest metrics, resolved once like the lookup-path handles.
var (
	ingestEnqueued = obs.Default().Counter("emblookup_ingest_enqueued_total")
	ingestApplied  = obs.Default().Counter("emblookup_ingest_applied_total")
	ingestErrors   = obs.Default().Counter("emblookup_ingest_errors_total")
	ingestQueue    = obs.Default().Gauge("emblookup_ingest_queue_depth")
	ingestLag      = obs.Default().Histogram("emblookup_ingest_lag_seconds")
)

// IngestItem is one streamed mutation. Label set and NewEntity true creates
// an entity (aliases become extra index rows when the service indexes
// aliases); otherwise Mention is attached to the existing entity ID.
type IngestItem struct {
	// NewEntity creates a graph entity from Label/Aliases and indexes it.
	NewEntity bool     `json:"newEntity,omitempty"`
	Label     string   `json:"label,omitempty"`
	Aliases   []string `json:"aliases,omitempty"`
	// Mention/ID attach a new alias row to an existing entity.
	Mention string      `json:"mention,omitempty"`
	ID      kg.EntityID `json:"id,omitempty"`
}

type ingestJob struct {
	item  IngestItem
	enq   time.Time
	flush chan struct{} // non-nil: a Flush sentinel, closed when reached
}

// Ingestor owns the streaming-ingest worker for one dynamic service.
type Ingestor struct {
	e    *EmbLookup
	jobs chan ingestJob
	done chan struct{}

	// sendMu lets Enqueue (read side) race-freely observe Close (write
	// side) closing the channel.
	sendMu sync.RWMutex
	closed bool

	// graphMu guards graph growth against concurrent readers: the worker
	// write-locks around AddEntity; anything resolving entity IDs while
	// ingest runs read-locks (RLock/RUnlock).
	graphMu sync.RWMutex

	mu       sync.Mutex
	applied  int64
	failed   int64
	lastErr  error
	enqueued int64
}

// NewIngestor starts the background worker. The service must have been
// built WithDynamicIndex. queue bounds the in-flight buffer (≤0 = 256);
// Enqueue blocks when it is full — backpressure, not loss.
func (e *EmbLookup) NewIngestor(queue int) (*Ingestor, error) {
	if e.Dynamic() == nil {
		return nil, fmt.Errorf("core: ingest requires a dynamic index (WithDynamicIndex)")
	}
	if queue <= 0 {
		queue = 256
	}
	in := &Ingestor{
		e:    e,
		jobs: make(chan ingestJob, queue),
		done: make(chan struct{}),
	}
	go in.run()
	return in, nil
}

// Enqueue queues one item and returns once it is buffered (visible shortly
// after; Flush forces the wait). It fails only after Close.
func (in *Ingestor) Enqueue(item IngestItem) error {
	in.sendMu.RLock()
	defer in.sendMu.RUnlock()
	if in.closed {
		return fmt.Errorf("core: ingestor closed")
	}
	in.jobs <- ingestJob{item: item, enq: time.Now()}
	ingestEnqueued.Add(1)
	ingestQueue.Set(float64(len(in.jobs)))
	in.mu.Lock()
	in.enqueued++
	in.mu.Unlock()
	return nil
}

// Flush blocks until every item enqueued before the call is applied.
func (in *Ingestor) Flush() {
	in.sendMu.RLock()
	if in.closed {
		in.sendMu.RUnlock()
		return
	}
	fl := make(chan struct{})
	in.jobs <- ingestJob{flush: fl}
	in.sendMu.RUnlock()
	<-fl
}

// Close drains the queue, applies everything, and stops the worker. Enqueue
// fails afterwards; Close is idempotent.
func (in *Ingestor) Close() {
	in.sendMu.Lock()
	if in.closed {
		in.sendMu.Unlock()
		return
	}
	in.closed = true
	close(in.jobs)
	in.sendMu.Unlock()
	<-in.done
}

// RLock takes the graph read lock; readers resolving entity IDs while
// ingest is live hold it around graph accesses.
func (in *Ingestor) RLock() { in.graphMu.RLock() }

// RUnlock releases RLock.
func (in *Ingestor) RUnlock() { in.graphMu.RUnlock() }

// IngestStats is a point-in-time snapshot for /stats.
type IngestStats struct {
	Enqueued int64  `json:"enqueued"`
	Applied  int64  `json:"applied"`
	Failed   int64  `json:"failed"`
	Queued   int    `json:"queued"`
	LastErr  string `json:"last_error,omitempty"`
}

// Stats snapshots the ingestor's counters.
func (in *Ingestor) Stats() IngestStats {
	in.mu.Lock()
	defer in.mu.Unlock()
	st := IngestStats{
		Enqueued: in.enqueued,
		Applied:  in.applied,
		Failed:   in.failed,
		Queued:   len(in.jobs),
	}
	if in.lastErr != nil {
		st.LastErr = in.lastErr.Error()
	}
	return st
}

func (in *Ingestor) run() {
	defer close(in.done)
	for job := range in.jobs {
		if job.flush != nil {
			close(job.flush)
			continue
		}
		err := in.apply(job.item)
		ingestQueue.Set(float64(len(in.jobs)))
		ingestLag.Observe(time.Since(job.enq))
		in.mu.Lock()
		if err != nil {
			in.failed++
			in.lastErr = err
			ingestErrors.Add(1)
		} else {
			in.applied++
			ingestApplied.Add(1)
		}
		in.mu.Unlock()
	}
}

// apply performs one mutation on the worker goroutine: embed → delta-index
// append → visible. Only AddEntity needs the graph write lock; index
// appends publish through AddMention.
func (in *Ingestor) apply(item IngestItem) error {
	if item.NewEntity {
		if item.Label == "" {
			return fmt.Errorf("core: ingest: new entity with empty label")
		}
		in.graphMu.Lock()
		id := in.e.graph.AddEntity(item.Label, item.Aliases)
		in.graphMu.Unlock()
		if _, err := in.e.AddMention(item.Label, id); err != nil {
			return err
		}
		if in.e.cfg.IndexAliases {
			for _, a := range item.Aliases {
				if _, err := in.e.AddMention(a, id); err != nil {
					return err
				}
			}
		}
		return nil
	}
	if item.Mention == "" {
		return fmt.Errorf("core: ingest: empty mention")
	}
	in.graphMu.RLock()
	_, err := in.e.AddMention(item.Mention, item.ID)
	in.graphMu.RUnlock()
	return err
}
