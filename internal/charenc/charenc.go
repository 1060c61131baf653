// Package charenc implements the character-level input encoding of Section
// III-B: an alphabet over the entity mentions and the one-hot matrix
// transformation that turns a mention into an |A|×L binary matrix whose i-th
// column one-hot-encodes the i-th character.
package charenc

import (
	"strings"

	"emblookup/internal/mathx"
)

// Alphabet maps characters to dense positional indexes. Characters outside
// the alphabet map to the shared unknown slot so that arbitrary query
// strings can always be encoded.
type Alphabet struct {
	pos     map[rune]int
	runes   []rune
	unknown int
}

// NewAlphabet builds an alphabet over the given runes plus one unknown slot.
// Input characters are matched case-insensitively (mentions are lowercased
// before encoding).
func NewAlphabet(runes string) *Alphabet {
	a := &Alphabet{pos: make(map[rune]int)}
	for _, r := range runes {
		if _, ok := a.pos[r]; ok {
			continue
		}
		a.pos[r] = len(a.runes)
		a.runes = append(a.runes, r)
	}
	a.unknown = len(a.runes)
	return a
}

// AlphabetFromMentions scans mentions and builds an alphabet over every
// character that appears, in first-seen order.
func AlphabetFromMentions(mentions []string) *Alphabet {
	var b strings.Builder
	seen := make(map[rune]bool)
	for _, m := range mentions {
		for _, r := range strings.ToLower(m) {
			if !seen[r] {
				seen[r] = true
				b.WriteRune(r)
			}
		}
	}
	return NewAlphabet(b.String())
}

// Size returns |A| including the unknown slot.
func (a *Alphabet) Size() int { return len(a.runes) + 1 }

// Pos returns the positional index of r (lowercased), or the unknown slot.
func (a *Alphabet) Pos(r rune) int {
	if p, ok := a.pos[lower(r)]; ok {
		return p
	}
	return a.unknown
}

// Runes returns the alphabet's characters in positional order (excluding
// the unknown slot).
func (a *Alphabet) Runes() string { return string(a.runes) }

func lower(r rune) rune {
	if 'A' <= r && r <= 'Z' {
		return r + ('a' - 'A')
	}
	return r
}

// Encoder converts mentions into one-hot matrices of a fixed maximum length
// L. Mentions longer than L are truncated; shorter ones are zero-padded, as
// in the paper.
type Encoder struct {
	Alphabet *Alphabet
	MaxLen   int
}

// NewEncoder returns an encoder with maximum mention length maxLen.
func NewEncoder(a *Alphabet, maxLen int) *Encoder {
	if maxLen <= 0 {
		maxLen = 32
	}
	return &Encoder{Alphabet: a, MaxLen: maxLen}
}

// Encode returns the one-hot matrix X of shape |A|×L for mention m: column i
// one-hot-encodes character i. The matrix is freshly allocated.
func (e *Encoder) Encode(m string) *mathx.Matrix {
	X := mathx.NewMatrix(e.Alphabet.Size(), e.MaxLen)
	e.EncodeInto(m, X)
	return X
}

// EncodeInto fills X (which must be |A|×L) with the encoding of m, zeroing
// it first. Reusing a matrix avoids per-query allocation in bulk encoding.
func (e *Encoder) EncodeInto(m string, X *mathx.Matrix) {
	X.Zero()
	i := 0
	for _, r := range strings.ToLower(m) {
		if i >= e.MaxLen {
			break
		}
		X.Set(e.Alphabet.Pos(r), i, 1)
		i++
	}
}

// EncodeIndexes returns the per-position alphabet indexes of m, truncated to
// MaxLen and padded with -1. This sparse form lets the first convolution
// layer skip the dense one-hot multiply.
func (e *Encoder) EncodeIndexes(m string) []int {
	return e.EncodeIndexesInto(strings.ToLower(m), nil)
}

// EncodeIndexesInto is EncodeIndexes of a mention the caller has already
// lowercased (lower is strings.ToLower of it), writing into buf, which is
// reused when its capacity suffices (the returned slice always has length
// MaxLen). Reusing a buffer keeps the steady-state query path
// allocation-free.
func (e *Encoder) EncodeIndexesInto(lower string, buf []int) []int {
	if cap(buf) < e.MaxLen {
		buf = make([]int, e.MaxLen)
	}
	out := buf[:e.MaxLen]
	for i := range out {
		out[i] = -1
	}
	i := 0
	for _, r := range lower {
		if i >= e.MaxLen {
			break
		}
		out[i] = e.Alphabet.Pos(r)
		i++
	}
	return out
}
