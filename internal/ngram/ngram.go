// Package ngram implements the semantic embedding model of Section III-B —
// the reproduction's substitute for fastText. Like fastText, a string is
// represented as the bag of its hashed character n-grams (3–6) plus word
// tokens, each mapped to a learned vector, and the string embedding is their
// mean. Training pulls the embeddings of entity labels and their synonyms
// together (and pushes random labels apart) with the same triplet objective
// the paper uses, so the model delivers fastText's one property EmbLookup
// relies on: semantically equivalent mentions embed nearby.
package ngram

import (
	"strings"
	"unicode/utf8"

	"emblookup/internal/mathx"
	"emblookup/internal/strutil"
)

// Scratch holds the reusable buffers of one feature extraction: the bucket
// list and the padded-token rune buffer. A worker that owns a Scratch runs
// EmbedPartsInto without allocating. The zero value is ready to use; a
// Scratch must not be used concurrently.
type Scratch struct {
	feats []int
	runes []rune
}

// Model is a hashed bag-of-subwords embedding model. Embed is safe for
// concurrent use once training has finished.
type Model struct {
	Dim     int
	Buckets int
	MinN    int
	MaxN    int
	// WordWeight replicates the whole-word feature this many times in the
	// bag. Character n-grams are shared across many strings (that is what
	// makes the model robust to typos), so without extra weight the
	// string-specific word feature is diluted ~30:1 and distinct aliases
	// built from common subwords blur together.
	WordWeight int
	// MentionHalf, when set, adds a whole-mention feature carrying half of
	// the embedding mass — but only for mentions seen during training.
	// Shared subwords pull the embeddings of distinct mentions together
	// (the typo-robustness mechanism); the mention feature gives
	// contrastive training a dedicated slot to attach each *known* mention
	// — e.g. a cross-lingual alias — to its entity, the role pre-training
	// on real text plays for the original fastText. Unknown strings (typos,
	// novel queries) fall back to the pure subword bag, so the feature
	// never injects untrained noise.
	MentionHalf bool
	Table       *mathx.Matrix // Buckets × Dim

	// The known-mention set has two representations. known holds buckets
	// registered in-process (training, RegisterMention). knownView is a
	// sorted, read-only slice attached straight from a v4 artifact's
	// known_mentions section — binary-searched instead of rebuilt into a
	// map, so a million-entity attach pays O(1) for it, not O(n)
	// (DESIGN.md §12). isKnown consults both.
	known     map[int]struct{}
	knownView []int64
}

// NewModel allocates a model with small random initial vectors.
func NewModel(dim, buckets int, seed uint64) *Model {
	m := NewModelForLoad(dim, buckets)
	m.Table = mathx.NewMatrix(buckets, dim)
	m.Table.FillRandn(mathx.NewRNG(seed), 0.1)
	return m
}

// NewModelForLoad allocates a model shell for deserialization: the same
// defaults as NewModel but no table — the loader attaches the trained one,
// so initializing (and for zero-copy artifacts, even allocating) a random
// Buckets×Dim matrix here would be pure cold-start waste.
func NewModelForLoad(dim, buckets int) *Model {
	return &Model{Dim: dim, Buckets: buckets, MinN: 3, MaxN: 6, WordWeight: 2, MentionHalf: true}
}

// fnv1a hashes s into a bucket index.
func (m *Model) fnv1a(s string) int {
	return int(fnv1aBytes(fnvOffset, s) % uint64(m.Buckets))
}

// fnv1aTagged hashes tag+s without materializing the concatenation,
// producing the same bucket as fnv1a(tag + s).
func (m *Model) fnv1aTagged(tag, s string) int {
	return int(fnv1aBytes(fnv1aBytes(fnvOffset, tag), s) % uint64(m.Buckets))
}

// fnv1aRunes hashes the UTF-8 encoding of rs, producing the same bucket as
// fnv1a(string(rs)) without allocating the string.
func (m *Model) fnv1aRunes(rs []rune) int {
	h := uint64(fnvOffset)
	var buf [utf8.UTFMax]byte
	for _, r := range rs {
		n := utf8.EncodeRune(buf[:], r)
		for i := 0; i < n; i++ {
			h ^= uint64(buf[i])
			h *= fnvPrime
		}
	}
	return int(h % uint64(m.Buckets))
}

const (
	fnvOffset uint64 = 14695981039346656037
	fnvPrime  uint64 = 1099511628211
)

func fnv1aBytes(h uint64, s string) uint64 {
	for i := 0; i < len(s); i++ {
		h ^= uint64(s[i])
		h *= fnvPrime
	}
	return h
}

// Features returns the bucket indexes of every subword feature of s: padded
// character n-grams of lengths MinN..MaxN plus whole word tokens.
func (m *Model) Features(s string) []int {
	s = strings.ToLower(strings.TrimSpace(s))
	if s == "" {
		return nil
	}
	feats := m.subwordFeatures(s)
	if m.MentionHalf {
		mf := m.fnv1aTagged("MENTION:", s)
		if m.isKnown(mf) {
			n := len(feats)
			for i := 0; i < n; i++ {
				feats = append(feats, mf)
			}
		}
	}
	return feats
}

// EmbedParts returns the two components of the semantic representation
// separately: the pure subword-bag mean (always defined, robust to typos)
// and the dedicated mention vector (the trained memorization slot, zero for
// mentions never seen in training). Downstream models that consume the two
// parts as separate inputs can learn to rely on the mention slot when it is
// present and fall back to subwords when it is zero — which a blended mean
// cannot offer.
func (m *Model) EmbedParts(s string) (subword, mention []float32) {
	subword = make([]float32, m.Dim)
	mention = make([]float32, m.Dim)
	var sc Scratch
	m.EmbedPartsInto(&sc, strings.ToLower(s), subword, mention)
	return subword, mention
}

// EmbedPartsInto is EmbedParts of a mention the caller has already
// lowercased (lower is strings.ToLower of it), writing into the caller's
// sub and mention buffers (each of length Dim) with all intermediate state
// taken from sc — the steady-state query path runs it without allocating.
// Trimming after lowering gives what Features normalizes to,
// strings.ToLower(strings.TrimSpace(s)).
func (m *Model) EmbedPartsInto(sc *Scratch, lower string, sub, mention []float32) {
	norm := strings.TrimSpace(lower)
	for i := range mention {
		mention[i] = 0
	}
	if m.MentionHalf && norm != "" {
		mf := m.fnv1aTagged("MENTION:", norm)
		if m.isKnown(mf) {
			copy(mention, m.Table.Row(mf))
		}
	}
	// Subword-only bag: computed without the mention half.
	for i := range sub {
		sub[i] = 0
	}
	feats := m.subwordFeaturesInto(sc, norm)
	if len(feats) == 0 {
		return
	}
	for _, f := range feats {
		mathx.Axpy(1, m.Table.Row(f), sub)
	}
	mathx.Scale(1/float32(len(feats)), sub)
}

// subwordFeatures is Features without the mention half (s must already be
// normalized).
func (m *Model) subwordFeatures(s string) []int {
	var sc Scratch
	return m.subwordFeaturesInto(&sc, s)
}

// subwordFeaturesInto extracts the subword bucket list into sc.feats. The
// padded token is built in sc.runes and every n-gram is hashed directly
// from the rune window, so a reused Scratch makes extraction
// allocation-free (buckets are identical to the string-hashing path).
func (m *Model) subwordFeaturesInto(sc *Scratch, s string) []int {
	feats := sc.feats[:0]
	if s == "" {
		sc.feats = feats
		return nil
	}
	for ts, te := strutil.NextToken(s, 0); ts >= 0; ts, te = strutil.NextToken(s, te) {
		tok := s[ts:te]
		r := sc.runes[:0]
		r = append(r, '<')
		for _, c := range tok {
			r = append(r, c)
		}
		r = append(r, '>')
		sc.runes = r
		for n := m.MinN; n <= m.MaxN; n++ {
			for i := 0; i+n <= len(r); i++ {
				feats = append(feats, m.fnv1aRunes(r[i:i+n]))
			}
		}
		w := m.WordWeight
		if w < 1 {
			w = 1
		}
		wf := m.fnv1aTagged("WORD:", tok)
		for i := 0; i < w; i++ {
			feats = append(feats, wf)
		}
	}
	if len(feats) == 0 {
		feats = append(feats, m.fnv1a(s))
	}
	sc.feats = feats
	return feats
}

// isKnown reports whether bucket h is a trained mention feature: in the
// in-process set, or in the sorted on-disk view (binary search — no
// allocation, no map build on load).
func (m *Model) isKnown(h int) bool {
	if _, ok := m.known[h]; ok {
		return true
	}
	v := m.knownView
	if len(v) == 0 {
		return false
	}
	t := int64(h)
	lo, hi := 0, len(v)
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if v[mid] < t {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo < len(v) && v[lo] == t
}

// KnownMentionHashes returns the trained mention-feature buckets (for
// serialization) — the union of the in-process set and the attached view,
// deduplicated, in no particular order (writers sort).
func (m *Model) KnownMentionHashes() []int {
	out := make([]int, 0, len(m.known)+len(m.knownView))
	for h := range m.known {
		out = append(out, h)
	}
	for _, h := range m.knownView {
		if _, ok := m.known[int(h)]; !ok {
			out = append(out, int(h))
		}
	}
	return out
}

// SetKnownMentionView attaches a sorted (ascending) known-mention list as a
// read-only view — typically a v4 artifact section aliasing an mmap, which
// must stay alive as long as the model. Nothing is copied and no map is
// built; membership tests binary-search the view. Later RegisterMention
// calls layer on top in the in-process set and never mutate the view.
func (m *Model) SetKnownMentionView(hs []int64) {
	m.known = nil
	m.knownView = hs
}

// RegisterMention marks s as a known mention so its whole-mention feature
// participates in the bag. Train registers every string it sees; callers
// indexing additional mentions may register them explicitly before
// training.
func (m *Model) RegisterMention(s string) {
	if !m.MentionHalf {
		return
	}
	if m.known == nil {
		m.known = make(map[int]struct{})
	}
	s = strings.ToLower(strings.TrimSpace(s))
	m.known[m.fnv1aTagged("MENTION:", s)] = struct{}{}
}

// Embed returns the mean of the feature vectors of s — a Dim-length vector.
// Unknown text still embeds (hashing never misses), which is exactly the
// property that lets the downstream model process arbitrary queries.
func (m *Model) Embed(s string) []float32 {
	feats := m.Features(s)
	out := make([]float32, m.Dim)
	if len(feats) == 0 {
		return out
	}
	for _, f := range feats {
		mathx.Axpy(1, m.Table.Row(f), out)
	}
	mathx.Scale(1/float32(len(feats)), out)
	return out
}

// TrainConfig controls synonym training.
type TrainConfig struct {
	Epochs int
	LR     float32
	Margin float32
	// Negatives is how many random negatives each (label, synonym) pair is
	// contrasted against per epoch. Retrieval needs the synonym to be
	// closer to its label than to *every* other label, and one negative
	// per epoch explores that space too slowly for surface-dissimilar
	// synonyms.
	Negatives int
	Seed      uint64
}

// DefaultTrainConfig returns the settings used by the pipeline.
func DefaultTrainConfig() TrainConfig {
	return TrainConfig{Epochs: 5, LR: 0.05, Margin: 1.0, Negatives: 5, Seed: 17}
}

// Pair is one (label, synonym) training example.
type Pair struct {
	Label, Synonym string
}

// Train fits the table so that each pair embeds nearby while negatives
// embed farther away. The objective is a contrastive hinge: the synonym is
// always attracted to its label, and both are repelled (up to the margin)
// from sampled negatives — including *hard* negatives, the closest of a
// random sample of labels, without which surface-dissimilar synonyms stay
// closer to some foreign label than to their own. Gradients are sparse:
// only the buckets touched by an update move. Feature extraction is
// memoized across epochs (the string set is fixed).
//
// Training runs on one goroutine with one RNG stream, so the table is a
// pure function of (model, pairs, negatives, cfg). The per-pair working
// buffers (feature embeddings and the gradient) live in one trainScratch
// reused across the whole run, so the epoch loop allocates nothing once the
// feature cache is warm (asserted in alloc_test.go).
func (m *Model) Train(pairs []Pair, negatives []string, cfg TrainConfig) {
	if len(pairs) == 0 || len(negatives) == 0 {
		return
	}
	// Every training string becomes a known mention (its dedicated feature
	// joins the bag) before features are cached.
	for _, p := range pairs {
		m.RegisterMention(p.Label)
		m.RegisterMention(p.Synonym)
	}
	for _, n := range negatives {
		m.RegisterMention(n)
	}
	rng := mathx.NewRNG(cfg.Seed)
	featCache := make(map[string][]int)
	feats := func(s string) []int {
		if f, ok := featCache[s]; ok {
			return f
		}
		f := m.Features(s)
		featCache[s] = f
		return f
	}
	order := make([]int, len(pairs))
	for i := range order {
		order[i] = i
	}
	negs := cfg.Negatives
	if negs < 1 {
		negs = 1
	}
	sc := newTrainScratch(m.Dim)
	const hardSample = 12
	for epoch := 0; epoch < cfg.Epochs; epoch++ {
		rng.ShuffleInts(order)
		for _, pi := range order {
			p := pairs[pi]
			fl, fs := feats(p.Label), feats(p.Synonym)
			if len(fl) == 0 || len(fs) == 0 {
				continue
			}
			// Attract synonym and label.
			m.attract(sc, fl, fs, cfg.LR)
			// Repel from negatives: uniform ones plus the hardest of a
			// random sample (the label currently nearest the synonym).
			es := m.embedFeaturesInto(sc.es, fs)
			for n := 0; n < negs; n++ {
				var fn []int
				if n == 0 {
					fn = m.hardestNegative(sc, es, p.Label, negatives, hardSample, feats, rng)
				} else {
					neg := negatives[rng.Intn(len(negatives))]
					if neg == p.Label {
						continue
					}
					fn = feats(neg)
				}
				if len(fn) == 0 {
					continue
				}
				m.repel(sc, fs, fn, cfg.Margin, cfg.LR)
				m.repel(sc, fl, fn, cfg.Margin, cfg.LR*0.5)
			}
		}
	}
}

// trainScratch holds the per-step working buffers of one training
// goroutine: two embedding accumulators, the persistent synonym embedding
// of the current pair, and the gradient. One scratch serves a whole
// training run; it must not be shared across goroutines.
type trainScratch struct {
	ea, eb, es, grad []float32
}

func newTrainScratch(dim int) *trainScratch {
	return &trainScratch{
		ea:   make([]float32, dim),
		eb:   make([]float32, dim),
		es:   make([]float32, dim),
		grad: make([]float32, dim),
	}
}

// hardestNegative returns the features of the closest label to es among a
// random sample, excluding the true label.
func (m *Model) hardestNegative(sc *trainScratch, es []float32, ownLabel string, negatives []string, sample int, feats func(string) []int, rng *mathx.RNG) []int {
	var best []int
	bestD := float32(3.4e38)
	for i := 0; i < sample; i++ {
		neg := negatives[rng.Intn(len(negatives))]
		if neg == ownLabel {
			continue
		}
		fn := feats(neg)
		if len(fn) == 0 {
			continue
		}
		if d := mathx.SquaredL2(es, m.embedFeaturesInto(sc.eb, fn)); d < bestD {
			best, bestD = fn, d
		}
	}
	return best
}

// embedFeaturesInto is Embed over a precomputed feature list, written into
// out (length Dim), which is also returned.
func (m *Model) embedFeaturesInto(out []float32, feats []int) []float32 {
	for i := range out {
		out[i] = 0
	}
	if len(feats) == 0 {
		return out
	}
	for _, f := range feats {
		mathx.Axpy(1, m.Table.Row(f), out)
	}
	mathx.Scale(1/float32(len(feats)), out)
	return out
}

// attract moves the two embeddings toward each other: loss = d(a,b)².
func (m *Model) attract(sc *trainScratch, fa, fb []int, lr float32) {
	ea := m.embedFeaturesInto(sc.ea, fa)
	eb := m.embedFeaturesInto(sc.eb, fb)
	// dL/dea = 2(ea-eb); dL/deb = -2(ea-eb).
	grad := sc.grad
	for i := range grad {
		grad[i] = 2 * (ea[i] - eb[i])
	}
	m.step(fa, grad, lr)
	mathx.Scale(-1, grad)
	m.step(fb, grad, lr)
}

// repel pushes the two embeddings apart while their squared distance is
// below the margin: loss = max(0, margin − d(a,b)²).
func (m *Model) repel(sc *trainScratch, fa, fn []int, margin, lr float32) {
	ea := m.embedFeaturesInto(sc.ea, fa)
	en := m.embedFeaturesInto(sc.eb, fn)
	if mathx.SquaredL2(ea, en) >= margin {
		return
	}
	// dL/dea = -2(ea-en); dL/den = 2(ea-en).
	grad := sc.grad
	for i := range grad {
		grad[i] = -2 * (ea[i] - en[i])
	}
	m.step(fa, grad, lr)
	mathx.Scale(-1, grad)
	m.step(fn, grad, lr)
}

// step applies -lr·grad/len(feats) to every feature row (the embedding is
// the mean of its rows).
func (m *Model) step(feats []int, grad []float32, lr float32) {
	scale := -lr / float32(len(feats))
	for _, f := range feats {
		mathx.Axpy(scale, grad, m.Table.Row(f))
	}
}
