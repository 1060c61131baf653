package core

import (
	"runtime"
	"sort"
	"sync"
	"time"

	"emblookup/internal/charenc"
	"emblookup/internal/index"
	"emblookup/internal/kg"
	"emblookup/internal/mathx"
	"emblookup/internal/ngram"
	"emblookup/internal/nn"
	"emblookup/internal/par"
	"emblookup/internal/strutil"
	"emblookup/internal/triplet"
)

// TrainOption customizes training without widening Config.
type TrainOption func(*trainState)

// WithLogf routes progress messages (one line per epoch) to f.
func WithLogf(f func(format string, args ...any)) TrainOption {
	return func(s *trainState) { s.logf = f }
}

// WithTriplets overrides the mined triplet set (used by the Figure 3
// training-data sweep to control the triplet budget precisely).
func WithTriplets(ts []triplet.Triplet) TrainOption {
	return func(s *trainState) { s.triplets = ts }
}

// TrainStats reports the phase timings of one Train run — benchkg uses it
// for the per-phase train rows.
type TrainStats struct {
	SemanticDur time.Duration // synonym-pair (ngram) phase
	CombinerDur time.Duration // triplet/combiner phase
}

// WithTrainStats fills st with phase timings.
func WithTrainStats(st *TrainStats) TrainOption {
	return func(s *trainState) { s.stats = st }
}

type trainState struct {
	logf     func(format string, args ...any)
	triplets []triplet.Triplet
	stats    *TrainStats
}

// Train builds an EmbLookup service for g following Section III end to end:
// train the semantic subword model on (label, alias) synonym pairs, mine
// triplets, train the CNN+combiner with triplet loss (offline epochs on all
// triplets, then online epochs on semi-hard/hard triplets only), embed
// every entity, and build the (optionally product-quantized) index.
func Train(g *kg.Graph, cfg Config, opts ...TrainOption) (*EmbLookup, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	st := &trainState{logf: func(string, ...any) {}, stats: &TrainStats{}}
	for _, o := range opts {
		o(st)
	}
	rng := mathx.NewRNG(cfg.Seed)

	// Character alphabet over the graph's mentions.
	var mentions []string
	for i := range g.Entities {
		mentions = append(mentions, g.Entities[i].Mentions()...)
	}
	alphabet := charenc.AlphabetFromMentions(mentions)
	enc := charenc.NewEncoder(alphabet, cfg.MaxLen)

	// Semantic path: the fastText substitute trained on synonym pairs. The
	// mention memorization features participate only when the combiner
	// will consume the mention slot — otherwise they would absorb the
	// synonym-attachment signal the subword rows need.
	sem := ngram.NewModel(cfg.Dim, cfg.NgramBuckets, rng.Uint64())
	sem.MentionHalf = cfg.MentionSlot
	pairs := make([]ngram.Pair, 0)
	for _, p := range triplet.SynonymPairs(g) {
		pairs = append(pairs, ngram.Pair{Label: p[0], Synonym: p[1]})
	}
	ngCfg := ngram.DefaultTrainConfig()
	ngCfg.Epochs = cfg.NgramEpochs
	ngCfg.Seed = rng.Uint64()
	semStart := time.Now()
	sem.Train(pairs, triplet.Labels(g), ngCfg)
	st.stats.SemanticDur = time.Since(semStart)
	st.logf("core: semantic model trained on %d synonym pairs", len(pairs))

	// Syntactic path + combiner. The semantic path contributes the subword
	// mean, plus the known-mention slot when MentionSlot is enabled (see
	// ngram.EmbedParts).
	var cnn *nn.CharCNN
	jointDim := cfg.Dim
	if cfg.MentionSlot {
		jointDim += cfg.Dim
	}
	if !cfg.SingleModel {
		cnn = nn.NewCharCNN(rng, alphabet.Size(), cfg.CNNChannels, cfg.Kernel, cfg.CNNLayers)
		jointDim += cnn.OutDim()
	}
	mlp := nn.NewMLP(rng, jointDim, cfg.Hidden, cfg.Dim)
	// Bootstrap the combiner from the semantic model (Section III-B): when
	// the hidden layer is wide enough, initialize it as an exact ReLU
	// pass-through of the subword block, so the model starts from the
	// fastText metric and training refines it with the CNN instead of
	// starting from a random metric.
	initSemPassthrough(mlp, jointDim-cfg.Dim, cfg.Dim)

	e := &EmbLookup{cfg: cfg, enc: enc, cnn: cnn, sem: sem, mlp: mlp, graph: g}

	// Triplet mining.
	ts := st.triplets
	if ts == nil {
		mCfg := triplet.DefaultMinerConfig()
		mCfg.PerEntity = cfg.TripletsPerEntity
		mCfg.Seed = rng.Uint64()
		ts = triplet.Mine(g, mCfg)
	}
	st.logf("core: %d training triplets", len(ts))

	if cfg.Epochs > 0 && len(ts) > 0 {
		combStart := time.Now()
		e.train(ts, cfg, rng, st.logf)
		st.stats.CombinerDur = time.Since(combStart)
	}

	if err := e.buildIndex(); err != nil {
		return nil, err
	}
	st.logf("core: index built over %d rows (%d bytes payload)", e.ix.Len(), e.ix.SizeBytes())
	return e, nil
}

// initSemPassthrough initializes the combiner so its output initially
// equals the semantic block of the input. ReLU cannot pass negative values
// through one unit, so each semantic dimension i uses a +x/−x pair of
// hidden units (x = relu(x) − relu(−x)); this needs Hidden ≥ 2·dim, and is
// skipped otherwise. semOffset is where the semantic block starts in the
// joint input (after the CNN features). The remaining connections keep
// their small random initialization so the CNN path can grow in.
func initSemPassthrough(mlp *nn.MLP, semOffset, dim int) {
	if mlp.L1.Out < 2*dim {
		return
	}
	scaleDown := float32(0.05)
	for i := range mlp.L1.Weight.W.Data {
		mlp.L1.Weight.W.Data[i] *= scaleDown
	}
	for i := range mlp.L2.Weight.W.Data {
		mlp.L2.Weight.W.Data[i] *= scaleDown
	}
	for i := 0; i < dim; i++ {
		mlp.L1.Weight.W.Set(i, semOffset+i, 1)
		mlp.L1.Weight.W.Set(dim+i, semOffset+i, -1)
		mlp.L2.Weight.W.Set(i, i, 1)
		mlp.L2.Weight.W.Set(i, dim+i, -1)
	}
}

// fwdCache holds the per-string activations of one training forward pass.
type fwdCache struct {
	cnnCache *nn.CharCNNCache
	mlpCache *nn.MLPCache
	synLen   int
}

// trainWorker owns replica modules (shared weights, private gradients) so a
// batch can be sharded across goroutines.
type trainWorker struct {
	cnn            *nn.CharCNN
	mlp            *nn.MLP
	sem            *ngram.Model
	enc            *charenc.Encoder
	params         []*nn.Param
	rng            *mathx.RNG
	mentionSlot    bool
	mentionDropout float64
	simCache       map[string]bool
	loss           func(a, p, n []float32, margin float32) (float32, []float32, []float32, []float32)
}

func (e *EmbLookup) newWorker(seed uint64) *trainWorker {
	w := &trainWorker{
		sem: e.sem, enc: e.enc, mlp: e.mlp.Replica(),
		rng:            mathx.NewRNG(seed),
		mentionSlot:    e.cfg.MentionSlot,
		mentionDropout: e.cfg.MentionDropout,
		loss:           nn.TripletLoss,
	}
	if e.cfg.Loss == "contrastive" {
		w.loss = nn.ContrastiveLoss
	}
	w.params = w.mlp.Params()
	if e.cnn != nil {
		w.cnn = e.cnn.Replica()
		w.params = append(w.params, w.cnn.Params()...)
	}
	return w
}

// forward runs one training forward pass. useMention controls the
// known-mention input slot (see step for the dropout policy).
func (w *trainWorker) forward(s string, useMention bool) ([]float32, fwdCache) {
	sub, mention := w.sem.EmbedParts(s)
	if !w.mentionSlot {
		mention = nil
	} else if !useMention {
		clear(mention)
	}
	var syn []float32
	var cc *nn.CharCNNCache
	if w.cnn != nil {
		syn, cc = w.cnn.ForwardIdx(trimIdx(w.enc.EncodeIndexes(s)))
	}
	joint := make([]float32, 0, len(syn)+len(sub)+len(mention))
	joint = append(joint, syn...)
	joint = append(joint, sub...)
	joint = append(joint, mention...)
	y, mc := w.mlp.Forward(joint)
	return y, fwdCache{cnnCache: cc, mlpCache: mc, synLen: len(syn)}
}

func (w *trainWorker) backward(c fwdCache, dy []float32) {
	dj := w.mlp.Backward(c.mlpCache, dy)
	if w.cnn != nil {
		w.cnn.BackwardIdx(c.cnnCache, dj[:c.synLen])
	}
	// The semantic path is frozen (bootstrap, Section III-B), so the tail
	// of dj is discarded.
}

// step trains one triplet and returns its loss. The mention slot of a
// *syntactically close* positive is dropped with probability
// MentionDropout so the CNN/subword paths keep learning typo robustness;
// surface-dissimilar (semantic) positives always keep their mention slot —
// forcing the subword path to attach opaque aliases would smear the very
// geometry syntactic matching depends on.
func (w *trainWorker) step(t triplet.Triplet, margin float32) float32 {
	posMention := true
	if w.mentionSlot && w.mentionDropout > 0 && w.rng.Float64() < w.mentionDropout && w.syntacticPair(t.Anchor, t.Positive) {
		posMention = false
	}
	ya, ca := w.forward(t.Anchor, true)
	yp, cp := w.forward(t.Positive, posMention)
	yn, cn := w.forward(t.Negative, true)
	loss, da, dp, dn := w.loss(ya, yp, yn, margin)
	if loss > 0 {
		w.backward(ca, da)
		w.backward(cp, dp)
		w.backward(cn, dn)
	}
	return loss
}

// syntacticPair reports whether two mentions are surface-similar (memoized
// q-gram check).
func (w *trainWorker) syntacticPair(a, b string) bool {
	key := a + "\x00" + b
	if v, ok := w.simCache[key]; ok {
		return v
	}
	v := strutil.QGramSimilarity(a, b, 3) >= 0.35
	if w.simCache == nil {
		w.simCache = make(map[string]bool)
	}
	w.simCache[key] = v
	return v
}

func (e *EmbLookup) masterParams() []*nn.Param {
	ps := e.mlp.Params()
	if e.cnn != nil {
		ps = append(ps, e.cnn.Params()...)
	}
	return ps
}

// train runs the two-phase schedule: offline epochs over all triplets, then
// online epochs over the semi-hard/hard subset re-selected each epoch. Each
// epoch runs on the replica trainer (runEpochReplica).
func (e *EmbLookup) train(ts []triplet.Triplet, cfg Config, rng *mathx.RNG, logf func(string, ...any)) {
	workers := cfg.Workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	master := e.masterParams()
	opt := nn.NewAdam(cfg.LR, master)
	ws := make([]*trainWorker, workers)
	for i := range ws {
		ws[i] = e.newWorker(cfg.Seed ^ (uint64(i+1) * 0x9e3779b97f4a7c15))
	}

	offline := cfg.Epochs / 2
	order := make([]int, len(ts))
	for epoch := 0; epoch < cfg.Epochs; epoch++ {
		active := ts
		phase := "offline"
		if epoch >= offline {
			phase = "online"
			active = triplet.SelectHard(ts, e.Embed, cfg.Margin, workers)
			if len(active) == 0 {
				logf("core: epoch %d (%s): all triplets easy, stopping early", epoch, phase)
				break
			}
		} else if cfg.TopLossFraction > 0 && epoch > 0 {
			phase = "offline/top-loss"
			active = e.selectTopLoss(ts, cfg, workers)
			if len(active) == 0 {
				active = ts
			}
		}
		if len(order) < len(active) {
			order = make([]int, len(active))
		}
		for i := 0; i < len(active); i++ {
			order[i] = i
		}
		loss := e.runEpochReplica(ws, master, opt, active, order, cfg, rng)
		logf("core: epoch %d (%s): %d triplets, mean loss %.4f", epoch, phase, len(active), loss)
	}
}

// runEpochReplica is the per-batch training loop: workers stride over each
// batch on replica modules, MergeGrads folds their gradients into the
// master, and one shared Adam steps — bit-identical for a given (seed,
// workers) pair. The stride is fixed on purpose: worker wi always takes
// batch items wi, wi+workers, …, so each replica's gradient sum and
// mention-dropout draws, and the order MergeGrads adds the replicas in,
// never depend on scheduling. A dynamic fan-out (internal/par hands items
// to whichever goroutine is free) would reorder float additions from run
// to run.
func (e *EmbLookup) runEpochReplica(ws []*trainWorker, master []*nn.Param, opt *nn.Adam, active []triplet.Triplet, order []int, cfg Config, rng *mathx.RNG) float64 {
	rng.ShuffleInts(order[:len(active)])
	var epochLoss float64
	for start := 0; start < len(active); start += cfg.BatchSize {
		batch := order[start:min(start+cfg.BatchSize, len(active))]
		var wg sync.WaitGroup
		losses := make([]float32, len(ws))
		for wi := range ws {
			wg.Add(1)
			go func(wi int) {
				defer wg.Done()
				w := ws[wi]
				var sum float32
				for bi := wi; bi < len(batch); bi += len(ws) {
					sum += w.step(active[batch[bi]], cfg.Margin)
				}
				losses[wi] = sum
			}(wi)
		}
		wg.Wait()
		for wi := range ws {
			nn.MergeGrads(master, ws[wi].params)
			epochLoss += float64(losses[wi])
		}
		opt.Step(1 / float32(len(batch)))
	}
	return epochLoss / float64(len(active))
}

// selectTopLoss ranks the triplets by their loss under the current model
// and keeps the top cfg.TopLossFraction — the "most promising triplets"
// schedule from the paper's future-work discussion.
func (e *EmbLookup) selectTopLoss(ts []triplet.Triplet, cfg Config, workers int) []triplet.Triplet {
	losses := make([]float32, len(ts))
	lossFn := nn.TripletLoss
	if cfg.Loss == "contrastive" {
		lossFn = nn.ContrastiveLoss
	}
	par.ForEach(len(ts), workers, func(i int) {
		t := ts[i]
		losses[i], _, _, _ = lossFn(e.Embed(t.Anchor), e.Embed(t.Positive), e.Embed(t.Negative), cfg.Margin)
	})
	idx := make([]int, len(ts))
	for i := range idx {
		idx[i] = i
	}
	sort.Slice(idx, func(a, b int) bool { return losses[idx[a]] > losses[idx[b]] })
	keep := max(int(float64(len(ts))*cfg.TopLossFraction), 1)
	out := make([]triplet.Triplet, keep)
	for i := 0; i < keep; i++ {
		out[i] = ts[idx[i]]
	}
	return out
}

// buildIndex embeds every entity (by label, plus aliases when configured)
// and builds the index cfg.Spec names. Embedding, k-means, and row encoding
// all fan across cfg.Workers; the built index is bit-identical at every
// worker count (see quant.KMeansConfig).
func (e *EmbLookup) buildIndex() error {
	start := time.Now()
	var strs []string
	var rows []kg.EntityID
	for i := range e.graph.Entities {
		ent := &e.graph.Entities[i]
		strs = append(strs, ent.Label)
		rows = append(rows, ent.ID)
		if e.cfg.IndexAliases {
			for _, a := range ent.Aliases {
				strs = append(strs, a)
				rows = append(rows, ent.ID)
			}
		}
	}
	m := e.EmbeddingMatrix(strs, e.cfg.Workers)
	ix, err := index.Build(e.cfg.Spec, m, e.cfg.Workers)
	if err != nil {
		return err
	}
	e.ix, e.rows = ix, rows
	e.prov = IndexProvenance{Source: "rebuilt", Took: time.Since(start)}
	return nil
}

// WithIndex returns a sibling service sharing this model's trained weights
// whose index is the one s names — the EL and EL-NC variants of Tables
// II/III side by side, the Figure 5 bytes-per-code sweep, the fast-scan
// layout of the same codes. The whole configuration is validated first, so
// the sibling's config is one an artifact of it can be loaded with. The
// receiver is untouched. Like every sibling it holds a reference to an
// attached artifact (its weights still alias it): close it.
func (e *EmbLookup) WithIndex(s index.Spec) (*EmbLookup, error) {
	return e.derive(func(c *EmbLookup) error {
		c.cfg.Spec = s
		return c.rebuild()
	})
}

// WithAliasRows returns a sibling service sharing this model's trained
// weights whose index additionally embeds every alias as its own row — the
// accuracy-for-storage trade-off Section III-C describes. Like every
// sibling it holds a reference to an attached artifact: close it.
func (e *EmbLookup) WithAliasRows() (*EmbLookup, error) {
	return e.derive(func(c *EmbLookup) error {
		c.cfg.IndexAliases = true
		return c.rebuild()
	})
}

// rebuild validates e's configuration and builds its index afresh.
func (e *EmbLookup) rebuild() error {
	if err := e.cfg.Validate(); err != nil {
		return err
	}
	return e.buildIndex()
}

// IndexRows returns the entity behind each index row (alias rows map to
// their entity).
func (e *EmbLookup) IndexRows() []kg.EntityID { return e.rows }
