package tabular

import (
	"strings"

	"emblookup/internal/mathx"
)

// NoiseKind enumerates the paper's injected error classes: "common
// misspellings such as dropping/inserting one or more letters, transposing
// letters, swapping the tokens, abbreviations, and so on" (Section IV).
type NoiseKind int

const (
	// DropLetters removes one or two characters.
	DropLetters NoiseKind = iota
	// InsertLetters inserts one or two unrelated characters.
	InsertLetters
	// TransposeLetters swaps two adjacent characters.
	TransposeLetters
	// SwapTokens reverses the order of two word tokens.
	SwapTokens
	// AbbreviateToken shortens the string to an initialism.
	AbbreviateToken
)

// String names the noise class.
func (k NoiseKind) String() string {
	switch k {
	case DropLetters:
		return "drop-letters"
	case InsertLetters:
		return "insert-letters"
	case TransposeLetters:
		return "transpose-letters"
	case SwapTokens:
		return "swap-tokens"
	case AbbreviateToken:
		return "abbreviate"
	default:
		return "unknown"
	}
}

// Injector applies cell-level noise to a fraction of entity cells. The zero
// value uses all noise kinds; restrict Kinds to study one class.
type Injector struct {
	// Fraction of entity cells to corrupt; the paper uses 0.10.
	Fraction float64
	// Kinds restricts the error classes. Empty means all.
	Kinds []NoiseKind
	// Seed drives the deterministic corruption choices.
	Seed uint64
}

// NewInjector returns an injector matching the paper's default setup: 10% of
// cells, all error classes.
func NewInjector(seed uint64) *Injector {
	return &Injector{Fraction: 0.10, Seed: seed}
}

// Apply returns a corrupted deep copy of ds. Ground-truth annotations are
// preserved: the whole point of the experiment is looking up noisy mentions
// against clean truth.
func (in *Injector) Apply(ds *Dataset) *Dataset {
	rng := mathx.NewRNG(in.Seed)
	out := ds.Clone()
	out.Name = ds.Name + "+noise"
	for _, t := range out.Tables {
		for i := range t.Rows {
			for j := range t.Rows[i] {
				c := &t.Rows[i][j]
				if !c.IsEntity() || !rng.Bool(in.Fraction) {
					continue
				}
				c.Text = in.corrupt(c.Text, rng)
			}
		}
	}
	return out
}

// Corrupt applies one randomly chosen error class to s (exported for query
// workload generation in the lookup-service comparison).
func (in *Injector) Corrupt(s string, rng *mathx.RNG) string {
	return in.corrupt(s, rng)
}

func (in *Injector) corrupt(s string, rng *mathx.RNG) string {
	kinds := in.Kinds
	if len(kinds) == 0 {
		kinds = []NoiseKind{DropLetters, InsertLetters, TransposeLetters, SwapTokens, AbbreviateToken}
	}
	k := kinds[rng.Intn(len(kinds))]
	out := ApplyNoise(s, k, rng)
	if out == s && len(kinds) > 1 {
		// The chosen class was a no-op on this string (e.g. SwapTokens on a
		// single token); fall back to a letter-level edit.
		out = ApplyNoise(s, TransposeLetters, rng)
	}
	return out
}

// ApplyNoise corrupts s with a single error class. Strings too short for
// the requested class are returned unchanged (SwapTokens) or minimally
// perturbed.
func ApplyNoise(s string, k NoiseKind, rng *mathx.RNG) string {
	r := []rune(s)
	switch k {
	case DropLetters:
		n := 1
		if len(r) > 6 && rng.Bool(0.3) {
			n = 2
		}
		for i := 0; i < n && len(r) > 1; i++ {
			p := rng.Intn(len(r))
			r = append(r[:p], r[p+1:]...)
		}
		return string(r)
	case InsertLetters:
		n := 1
		if len(r) > 6 && rng.Bool(0.3) {
			n = 2
		}
		letters := []rune("abcdefghijklmnopqrstuvwxyz")
		for i := 0; i < n; i++ {
			p := rng.Intn(len(r) + 1)
			c := letters[rng.Intn(len(letters))]
			r = append(r[:p], append([]rune{c}, r[p:]...)...)
		}
		return string(r)
	case TransposeLetters:
		if len(r) < 2 {
			return s + "x"
		}
		p := rng.Intn(len(r) - 1)
		r[p], r[p+1] = r[p+1], r[p]
		return string(r)
	case SwapTokens:
		toks := strings.Fields(s)
		if len(toks) < 2 {
			return s
		}
		i := rng.Intn(len(toks) - 1)
		toks[i], toks[i+1] = toks[i+1], toks[i]
		return strings.Join(toks, " ")
	case AbbreviateToken:
		toks := strings.Fields(s)
		if len(toks) < 2 {
			// Single token: truncate instead.
			if len(r) > 4 {
				return string(r[:3]) + "."
			}
			return s
		}
		// Abbreviate one token to its initial.
		i := rng.Intn(len(toks))
		tr := []rune(toks[i])
		toks[i] = strings.ToUpper(string(tr[0])) + "."
		return strings.Join(toks, " ")
	}
	return s
}

// SubstituteAliases returns a copy of ds where every entity cell whose
// ground-truth entity has aliases is replaced by one chosen uniformly at
// random — the semantic-lookup workload of Table VI. Cells without aliases
// keep their original text, exactly as the paper specifies.
func SubstituteAliases(ds *Dataset, seed uint64) *Dataset {
	rng := mathx.NewRNG(seed)
	out := ds.Clone()
	out.Name = ds.Name + "+aliases"
	for _, t := range out.Tables {
		for i := range t.Rows {
			for j := range t.Rows[i] {
				c := &t.Rows[i][j]
				if !c.IsEntity() {
					continue
				}
				e := ds.Graph.Entity(c.Truth)
				if e == nil || len(e.Aliases) == 0 {
					continue
				}
				c.Text = e.Aliases[rng.Intn(len(e.Aliases))]
			}
		}
	}
	return out
}
