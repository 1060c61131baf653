package strutil

import "strings"

// QGrams returns the multiset of q-grams of s after padding with q-1 leading
// and trailing '#' markers, as QGramSimilarity compares them. The result
// maps each gram to its multiplicity.
func QGrams(s string, q int) map[string]int {
	if q <= 0 {
		q = 2
	}
	pad := strings.Repeat("#", q-1)
	padded := pad + strings.ToLower(s) + pad
	runes := []rune(padded)
	grams := make(map[string]int)
	for i := 0; i+q <= len(runes); i++ {
		grams[string(runes[i:i+q])]++
	}
	return grams
}

// QGramList returns the q-grams of s in order, with the same padding as
// QGrams. Duplicates are preserved.
func QGramList(s string, q int) []string {
	if q <= 0 {
		q = 2
	}
	pad := strings.Repeat("#", q-1)
	padded := pad + strings.ToLower(s) + pad
	runes := []rune(padded)
	var grams []string
	for i := 0; i+q <= len(runes); i++ {
		grams = append(grams, string(runes[i:i+q]))
	}
	return grams
}

// QGramSimilarity returns the Dice coefficient over the q-gram multisets of
// a and b, a value in [0,1].
func QGramSimilarity(a, b string, q int) float64 {
	ga := QGrams(a, q)
	gb := QGrams(b, q)
	na, nb := 0, 0
	for _, c := range ga {
		na += c
	}
	for _, c := range gb {
		nb += c
	}
	if na+nb == 0 {
		return 1
	}
	overlap := 0
	for g, ca := range ga {
		if cb, ok := gb[g]; ok {
			if cb < ca {
				overlap += cb
			} else {
				overlap += ca
			}
		}
	}
	return 2 * float64(overlap) / float64(na+nb)
}
