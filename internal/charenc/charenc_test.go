package charenc

import (
	"testing"
	"testing/quick"
)

// testRunes is a mention alphabet: lowercase letters, digits and common
// punctuation.
const testRunes = "abcdefghijklmnopqrstuvwxyz0123456789 .'-()&,/"

func TestAlphabetPositions(t *testing.T) {
	a := NewAlphabet("abc")
	if a.Size() != 4 { // 3 + unknown
		t.Fatalf("Size = %d", a.Size())
	}
	if a.Pos('a') != 0 || a.Pos('b') != 1 || a.Pos('c') != 2 {
		t.Fatal("positions wrong")
	}
	if a.Pos('z') != 3 {
		t.Fatalf("unknown slot = %d, want 3", a.Pos('z'))
	}
	if a.Pos('A') != 0 {
		t.Fatal("Pos must be case-insensitive")
	}
}

func TestAlphabetDedup(t *testing.T) {
	a := NewAlphabet("aab")
	if a.Size() != 3 {
		t.Fatalf("duplicate rune not deduped: size %d", a.Size())
	}
}

func TestAlphabetFromMentions(t *testing.T) {
	a := AlphabetFromMentions([]string{"Ab", "bc"})
	// lowercased: a, b, c
	if a.Size() != 4 {
		t.Fatalf("Size = %d", a.Size())
	}
	if a.Runes() != "abc" {
		t.Fatalf("Runes = %q", a.Runes())
	}
}

func TestEncodeShape(t *testing.T) {
	a := NewAlphabet("abcde")
	e := NewEncoder(a, 4)
	X := e.Encode("cad")
	if X.Rows != a.Size() || X.Cols != 4 {
		t.Fatalf("shape %dx%d", X.Rows, X.Cols)
	}
	// Column 0 one-hot 'c' (pos 2), col 1 'a' (0), col 2 'd' (3), col 3 zero.
	if X.At(2, 0) != 1 || X.At(0, 1) != 1 || X.At(3, 2) != 1 {
		t.Fatal("one-hot placement wrong")
	}
	var col3 float32
	for r := 0; r < X.Rows; r++ {
		col3 += X.At(r, 3)
	}
	if col3 != 0 {
		t.Fatal("padding column must be zero")
	}
}

func TestEncodeTruncates(t *testing.T) {
	a := NewAlphabet("ab")
	e := NewEncoder(a, 2)
	X := e.Encode("abab")
	total := float32(0)
	for _, v := range X.Data {
		total += v
	}
	if total != 2 {
		t.Fatalf("truncated encoding has %v ones, want 2", total)
	}
}

// Property: every column of an encoding has at most one 1, and the number of
// ones equals min(len(mention), L).
func TestEncodeOneHotProperty(t *testing.T) {
	a := NewAlphabet(testRunes)
	e := NewEncoder(a, 16)
	f := func(s string) bool {
		if len(s) > 100 {
			return true
		}
		X := e.Encode(s)
		ones := 0
		for c := 0; c < X.Cols; c++ {
			colSum := float32(0)
			for r := 0; r < X.Rows; r++ {
				colSum += X.At(r, c)
			}
			if colSum > 1 {
				return false
			}
			ones += int(colSum)
		}
		runes := 0
		for range s {
			runes++
		}
		want := runes
		if want > 16 {
			want = 16
		}
		return ones == want
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestEncodeIntoReuse(t *testing.T) {
	a := NewAlphabet("ab")
	e := NewEncoder(a, 3)
	X := e.Encode("ab")
	e.EncodeInto("b", X)
	// Old content must be gone.
	if X.At(0, 0) != 0 || X.At(1, 0) != 1 {
		t.Fatal("EncodeInto did not reset the matrix")
	}
}

func TestEncodeIndexes(t *testing.T) {
	a := NewAlphabet("ab")
	e := NewEncoder(a, 4)
	idx := e.EncodeIndexes("ba")
	if idx[0] != 1 || idx[1] != 0 || idx[2] != -1 || idx[3] != -1 {
		t.Fatalf("EncodeIndexes = %v", idx)
	}
}

func TestNewEncoderDefaultLen(t *testing.T) {
	e := NewEncoder(NewAlphabet(testRunes), 0)
	if e.MaxLen != 32 {
		t.Fatalf("default MaxLen = %d", e.MaxLen)
	}
}
