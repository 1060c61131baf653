package core

import (
	"unicode"
	"unicode/utf8"
)

// NormalizeMention maps a query string to its cache key: two queries with
// the same key are guaranteed to produce the same embedding, so a cached
// lookup result can be served for either. The normalization is exactly the
// invariance the embedding pipeline provides — ASCII case erasure — and
// nothing more: charenc matches alphabet characters through an ASCII-only
// per-rune lowering, and the ngram model lowercases with strings.ToLower
// (which fixes every ASCII-lowercase string). Anything stronger would serve
// wrong results: whitespace is part of the CNN alphabet (so trimming is not
// invariant), and non-ASCII case pairs can encode differently (so Unicode
// folding is not invariant either).
func NormalizeMention(s string) string {
	// Fast path: already free of ASCII uppercase (byte-wise scan is safe on
	// UTF-8 — continuation bytes are ≥ 0x80).
	i := 0
	for ; i < len(s); i++ {
		if c := s[i]; 'A' <= c && c <= 'Z' {
			break
		}
	}
	if i == len(s) {
		return s
	}
	b := []byte(s)
	for ; i < len(b); i++ {
		if c := b[i]; 'A' <= c && c <= 'Z' {
			b[i] = c + ('a' - 'A')
		}
	}
	return string(b)
}

// lowerInto writes strings.ToLower(s) into dst[:0] and returns it: the same
// bytes, built without allocating once dst has grown to fit. ASCII goes
// byte by byte; anything else rune by rune through unicode.ToLower, each
// invalid UTF-8 byte becoming U+FFFD as strings.Map writes it.
func lowerInto(dst []byte, s string) []byte {
	dst = dst[:0]
	for i := 0; i < len(s); i++ {
		if s[i] >= utf8.RuneSelf {
			for _, r := range s {
				dst = utf8.AppendRune(dst, unicode.ToLower(r))
			}
			return dst
		}
	}
	for i := 0; i < len(s); i++ {
		c := s[i]
		if 'A' <= c && c <= 'Z' {
			c += 'a' - 'A'
		}
		dst = append(dst, c)
	}
	return dst
}
