package strutil

import (
	"strings"
	"testing"
	"testing/quick"
)

func TestLevenshteinBasics(t *testing.T) {
	cases := []struct {
		a, b string
		want int
	}{
		{"", "", 0},
		{"abc", "", 3},
		{"", "abc", 3},
		{"kitten", "sitting", 3},
		{"germany", "germany", 0},
		{"germany", "germoney", 2},
		{"berlin", "bellin", 1},
		{"flaw", "lawn", 2},
		{"abcd", "abdc", 2}, // a transposition is two edits
	}
	for _, c := range cases {
		if got := Levenshtein(c.a, c.b); got != c.want {
			t.Errorf("Levenshtein(%q,%q) = %d, want %d", c.a, c.b, got, c.want)
		}
	}
}

func TestLevenshteinProperties(t *testing.T) {
	f := func(a, b string) bool {
		if len(a) > 50 || len(b) > 50 {
			return true
		}
		d := Levenshtein(a, b)
		// Symmetry, identity, and length bound.
		la, lb := len([]rune(a)), len([]rune(b))
		maxLen := la
		if lb > maxLen {
			maxLen = lb
		}
		return d == Levenshtein(b, a) &&
			Levenshtein(a, a) == 0 &&
			d >= abs(la-lb) && d <= maxLen
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestLevenshteinTriangleInequality(t *testing.T) {
	f := func(a, b, c string) bool {
		if len(a) > 30 || len(b) > 30 || len(c) > 30 {
			return true
		}
		return Levenshtein(a, c) <= Levenshtein(a, b)+Levenshtein(b, c)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestLevenshteinBounded(t *testing.T) {
	if got := LevenshteinBounded("kitten", "sitting", 3); got != 3 {
		t.Fatalf("bounded = %d, want 3", got)
	}
	if got := LevenshteinBounded("kitten", "sitting", 2); got != 3 {
		t.Fatalf("bounded should report maxDist+1, got %d", got)
	}
	if got := LevenshteinBounded("aaaaaaaa", "b", 2); got != 3 {
		t.Fatalf("length gap early exit failed: %d", got)
	}
}

func TestLevenshteinBoundedAgreesWithExact(t *testing.T) {
	f := func(a, b string) bool {
		if len(a) > 30 || len(b) > 30 {
			return true
		}
		exact := Levenshtein(a, b)
		for _, m := range []int{0, 1, 2, 5, 100} {
			got := LevenshteinBounded(a, b, m)
			if exact <= m && got != exact {
				return false
			}
			if exact > m && got != m+1 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestSimilarity(t *testing.T) {
	if Similarity("", "") != 1 {
		t.Fatal("empty-empty similarity should be 1")
	}
	if s := Similarity("abc", "abc"); s != 1 {
		t.Fatalf("identical similarity = %v", s)
	}
	if s := Similarity("abc", "xyz"); s != 0 {
		t.Fatalf("disjoint similarity = %v", s)
	}
}

func TestQGrams(t *testing.T) {
	g := QGrams("ab", 2)
	// padded "#ab#": grams #a, ab, b#
	if len(g) != 3 || g["#a"] != 1 || g["ab"] != 1 || g["b#"] != 1 {
		t.Fatalf("QGrams = %v", g)
	}
	list := QGramList("ab", 2)
	if len(list) != 3 || list[1] != "ab" {
		t.Fatalf("QGramList = %v", list)
	}
}

func TestQGramSimilarity(t *testing.T) {
	if s := QGramSimilarity("germany", "germany", 3); s != 1 {
		t.Fatalf("identical q-gram sim = %v", s)
	}
	near := QGramSimilarity("germany", "germoney", 3)
	far := QGramSimilarity("germany", "australia", 3)
	if near <= far {
		t.Fatalf("expected near (%v) > far (%v)", near, far)
	}
	if s := QGramSimilarity("", "", 3); s != 1 {
		t.Fatalf("empty q-gram sim = %v", s)
	}
}

func TestQGramSimilarityRange(t *testing.T) {
	f := func(a, b string) bool {
		if len(a) > 40 || len(b) > 40 {
			return true
		}
		s := QGramSimilarity(a, b, 3)
		return s >= 0 && s <= 1
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestRatio(t *testing.T) {
	if Ratio("germany", "GERMANY") != 100 {
		t.Fatal("Ratio should be case-insensitive")
	}
	// Distance 2 over max length 8 → similarity 0.75.
	if r := Ratio("germany", "germoney"); r != 75 {
		t.Fatalf("Ratio(germany,germoney) = %d, want 75", r)
	}
}

func TestPartialRatio(t *testing.T) {
	if r := PartialRatio("berlin", "east berlin city"); r != 100 {
		t.Fatalf("substring partial ratio = %d, want 100", r)
	}
	if r := PartialRatio("", ""); r != 100 {
		t.Fatalf("empty partial ratio = %d", r)
	}
	if r := PartialRatio("", "abc"); r != 0 {
		t.Fatalf("empty-vs-nonempty partial ratio = %d", r)
	}
}

func TestTokenSortRatio(t *testing.T) {
	if r := TokenSortRatio("new york mets", "mets new york"); r != 100 {
		t.Fatalf("token sort on reordered tokens = %d, want 100", r)
	}
}

func TestTokenSetRatio(t *testing.T) {
	if r := TokenSetRatio("mets vs braves", "new york mets vs atlanta braves"); r < 90 {
		t.Fatalf("token set ratio = %d, want >= 90", r)
	}
}

func TestWRatioOrdering(t *testing.T) {
	// WRatio must score the true match above an unrelated string.
	match := WRatio("federal republic of germany", "germany federal republic")
	miss := WRatio("federal republic of germany", "kingdom of spain")
	if match <= miss {
		t.Fatalf("WRatio ordering violated: match=%d miss=%d", match, miss)
	}
}

func TestTokenize(t *testing.T) {
	toks := Tokenize("East Berlin, Germany!")
	want := []string{"east", "berlin", "germany"}
	if len(toks) != len(want) {
		t.Fatalf("Tokenize = %v", toks)
	}
	for i := range want {
		if toks[i] != want[i] {
			t.Fatalf("Tokenize = %v", toks)
		}
	}
}

func TestAbbreviate(t *testing.T) {
	if a := Abbreviate("European Union"); a != "EU" {
		t.Fatalf("Abbreviate = %q", a)
	}
	if a := Abbreviate("Germany"); a != "GER" {
		t.Fatalf("Abbreviate single = %q", a)
	}
	if a := Abbreviate(""); a != "" {
		t.Fatalf("Abbreviate empty = %q", a)
	}
	if a := Abbreviate("Federal Republic of Germany"); a != "FROG" && !strings.HasPrefix(a, "F") {
		t.Fatalf("Abbreviate = %q", a)
	}
}
