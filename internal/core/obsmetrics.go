package core

import "emblookup/internal/obs"

// The core lookup path records into the process-wide registry through
// handles resolved once at package init, so the hot path never touches the
// registry lock: recording is an atomic add behind an enabled check and
// keeps the pooled-scratch allocation guarantees (DESIGN.md §6) intact —
// Lookup stays at its PR-1 allocation count with metrics enabled, which
// TestLookupAllocsWithMetrics asserts.
var (
	lookupsTotal  = obs.Default().Counter("emblookup_lookups_total")
	lookupSeconds = obs.Default().Histogram("emblookup_lookup_seconds")
	stageEmbed    = obs.Default().Histogram(obs.Labels("emblookup_lookup_stage_seconds", "stage", "embed"))
	stageSearch   = obs.Default().Histogram(obs.Labels("emblookup_lookup_stage_seconds", "stage", "search"))
	stageMerge    = obs.Default().Histogram(obs.Labels("emblookup_lookup_stage_seconds", "stage", "merge"))
	bulkTotal     = obs.Default().Counter("emblookup_bulk_lookups_total")
	bulkQueries   = obs.Default().Histogram("emblookup_bulk_batch_size")

	// Hogwild training progress (DESIGN.md §13): the semantic phase's
	// atomic pair counter mirrored as a gauge, and one count per combiner
	// micro-batch push.
	trainSemProgress  = obs.Default().Gauge("emblookup_train_semantic_pairs_done")
	trainHogwildSteps = obs.Default().Counter("emblookup_train_hogwild_steps_total")
)
