// Package core implements EmbLookup itself — the paper's contribution: a
// lookup service whose index is a set of learned 64-dimensional mention
// embeddings. The model is the two-path architecture of Section III-B (a
// character CNN for syntactic similarity plus a fastText-style subword model
// for semantic similarity, aggregated by a two-layer ReLU combiner), trained
// with triplet loss over mined triplets — offline on all triplets for the
// first half of the epochs, online on semi-hard/hard triplets for the
// second half — and served through an exact or product-quantized
// nearest-neighbor index (Sections III-C and III-D).
package core

import (
	"fmt"

	"emblookup/internal/index"
	"emblookup/internal/quant"
)

// Config are the EmbLookup hyperparameters. Defaults follow the paper;
// DefaultConfig documents each paper value. Scaled-down settings for tests
// and laptop benchmarks come from FastConfig.
type Config struct {
	// Dim is the embedding dimensionality (paper: 64; Table VIII sweeps
	// 32–256).
	Dim int
	// CNNChannels is the number of kernels per convolution layer (paper: 8).
	CNNChannels int
	// CNNLayers is the number of convolution layers (paper: 5).
	CNNLayers int
	// Kernel is the convolution kernel size (paper: 3).
	Kernel int
	// Hidden is the width of the combiner's hidden layer.
	Hidden int
	// MaxLen is the maximum mention length L for one-hot encoding.
	MaxLen int

	// Margin is the triplet-loss margin.
	Margin float32
	// Loss selects the training objective: "triplet" (the paper's default,
	// Equation 3) or "contrastive" (the alternative the paper's conclusion
	// proposes evaluating). Empty means triplet.
	Loss string
	// TopLossFraction, when in (0,1), restricts every offline epoch after
	// the first to the most promising triplets — the highest-loss fraction
	// under the current model. This is the paper's future-work idea of
	// "training over the most promising triplets through mining ...
	// achieving the same accuracy while training over a smaller number of
	// triplets". 0 disables it.
	TopLossFraction float64
	// Epochs is the total training epoch count (paper: 100, half offline
	// and half online-mined).
	Epochs int
	// BatchSize is the minibatch size (paper: 128).
	BatchSize int
	// LR is the Adam learning rate.
	LR float32
	// TripletsPerEntity is the mining budget (paper: 100; Figure 3 sweeps
	// it).
	TripletsPerEntity int

	// NgramBuckets sizes the hashed subword table of the semantic model.
	NgramBuckets int
	// NgramEpochs trains the semantic model on synonym pairs.
	NgramEpochs int
	// MentionSlot feeds the semantic model's known-mention memorization
	// vector (ngram.EmbedParts) to the combiner as a third input. It
	// raises semantic-lookup accuracy on trained aliases at the cost of
	// typo robustness (the combiner learns to lean on the memorized slot),
	// so it is off by default; the ablation benches quantify the trade.
	MentionSlot bool
	// MentionDropout zeroes the known-mention input slot with this
	// probability during combiner training when MentionSlot is enabled.
	// Without it the combiner satisfies the triplets through the memorized
	// slot alone and never learns to use the CNN/subword paths.
	MentionDropout float64

	// Spec chooses the served index (index.Spec documents its fields);
	// JSON flattens it, so an artifact's meta stores its fields inline.
	index.Spec

	// IndexAliases additionally embeds every alias as its own index row
	// (Section III-C notes this trades storage for accuracy).
	IndexAliases bool

	// SingleModel disables the CNN path and trains only the semantic path
	// through the combiner — the single-model ablation DESIGN.md calls out
	// (the paper reports the two-model design won).
	SingleModel bool

	// Workers bounds training/indexing parallelism (≤0 = GOMAXPROCS).
	Workers int

	// Seed drives every random choice in mining, initialization, and
	// training order.
	Seed uint64
}

// DefaultConfig returns the paper-faithful configuration.
func DefaultConfig() Config {
	return Config{
		Dim:               64,
		CNNChannels:       8,
		CNNLayers:         5,
		Kernel:            3,
		Hidden:            128,
		MaxLen:            32,
		Margin:            1.0,
		Epochs:            100,
		BatchSize:         128,
		LR:                1e-3,
		TripletsPerEntity: 100,
		NgramBuckets:      1 << 17,
		NgramEpochs:       20,
		MentionDropout:    0.5,
		Spec:              index.Spec{Compress: true, PQ: quant.DefaultPQConfig()},
		Seed:              1234,
	}
}

// FastConfig returns a scaled-down configuration for tests and
// laptop-sized experiments: fewer epochs and triplets, a smaller hash
// table, and a PQ sized for small entity counts. The architecture is
// unchanged.
func FastConfig() Config {
	c := DefaultConfig()
	c.Epochs = 6
	c.TripletsPerEntity = 20
	c.NgramBuckets = 1 << 14
	c.NgramEpochs = 20
	c.LR = 3e-3
	c.PQ = quant.PQConfig{M: 8, Ks: 64, Iters: 8, Seed: 31}
	return c
}

// maxMaxLen bounds Config.MaxLen and Config.Kernel. A lookup encodes its
// mention into MaxLen columns, so an artifact naming more would have every
// lookup allocate past any memory, and no stored weight depends on MaxLen
// to vouch for it. Mentions longer than MaxLen are truncated.
const maxMaxLen = 1 << 16

// Validate reports configuration errors early.
func (c Config) Validate() error {
	if c.Dim <= 0 || c.MaxLen <= 0 || c.Epochs < 0 || c.BatchSize <= 0 {
		return fmt.Errorf("core: non-positive dimension/epoch/batch in config")
	}
	// A model read from an artifact is built from these before its weights
	// are attached, so they are bounded here, not by a makeslice panic.
	if c.Hidden <= 0 || c.CNNChannels <= 0 || c.CNNLayers <= 0 || c.Kernel <= 0 {
		return fmt.Errorf("core: non-positive hidden width, channel, layer or kernel count in config")
	}
	if c.MaxLen > maxMaxLen || c.Kernel > maxMaxLen {
		return fmt.Errorf("core: MaxLen %d or Kernel %d exceeds %d", c.MaxLen, c.Kernel, maxMaxLen)
	}
	if err := c.Spec.Validate(c.Dim); err != nil {
		return err
	}
	if c.Kernel%2 == 0 {
		return fmt.Errorf("core: kernel size must be odd for same-padding, got %d", c.Kernel)
	}
	switch c.Loss {
	case "", "triplet", "contrastive":
	default:
		return fmt.Errorf("core: unknown loss %q (want triplet or contrastive)", c.Loss)
	}
	if c.TopLossFraction < 0 || c.TopLossFraction >= 1 {
		return fmt.Errorf("core: TopLossFraction %v out of (0,1)", c.TopLossFraction)
	}
	return nil
}
