package index

import "context"

// CtxSearcher is implemented by indexes whose single-query scan can be
// cancelled cooperatively: a caller that has given up (deadline passed,
// client disconnected) stops paying for shard scans it will never read.
// With an uncancelled context the results are bit-identical to
// SearchAppendWith; once the context is done the scan returns ctx.Err()
// and no results. Sharded implements it.
type CtxSearcher interface {
	SearchAppendCtx(ctx context.Context, s *Scratch, q []float32, k int, dst []Result) ([]Result, error)
}

// SearchCtx searches one query on any index under ctx, with results in
// dst[:0]: through the cancellable scan where the index has one, else with
// ctx checked once before an uninterruptible scan.
func SearchCtx(ctx context.Context, ix Index, s *Scratch, q []float32, k int, dst []Result) ([]Result, error) {
	if cs, ok := ix.(CtxSearcher); ok {
		return cs.SearchAppendCtx(ctx, s, q, k, dst)
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	if as, ok := ix.(AppendSearcher); ok {
		return as.SearchAppendWith(s, q, k, dst), nil
	}
	return append(dst[:0], ix.Search(q, k)...), nil
}
