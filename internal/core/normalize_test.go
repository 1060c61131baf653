package core

import (
	"strings"
	"testing"
)

// FuzzLowerInto holds the query path's one case fold to the two it
// replaced: the buffer is strings.ToLower byte for byte, and trimming it
// gives strings.ToLower(strings.TrimSpace(s)), what the n-gram model
// computed from the raw mention before.
func FuzzLowerInto(f *testing.F) {
	for _, s := range []string{
		"", "Bramonia Ridge", "bramonia ridge", " ÉCOLE Zürich ", "İstanbul",
		"ΣΑΣ", "ǅemal", "\xff\xfeAB", "abc\x80DEF", "\xed\xa0\x80", "a�B",
		" X　", "\t\n ", "ß STRASSE",
	} {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, s string) {
		buf := lowerInto([]byte("stale bytes a reused buffer holds"), s)
		if got, want := string(buf), strings.ToLower(s); got != want {
			t.Fatalf("lowerInto(%q) = %q, want strings.ToLower's %q", s, got, want)
		}
		if got, want := strings.TrimSpace(string(buf)), strings.ToLower(strings.TrimSpace(s)); got != want {
			t.Fatalf("TrimSpace(lowerInto(%q)) = %q, want %q", s, got, want)
		}
	})
}
