// Package strutil implements the string-similarity primitives used both by
// the baseline lookup services (Table V of the paper) and by the noise
// injection machinery: Levenshtein edit distances, q-gram decomposition and
// similarity, token operations, and the FuzzyWuzzy-style similarity ratios.
package strutil

// Levenshtein returns the edit distance between a and b using unit costs for
// insertion, deletion, and substitution. It runs in O(len(a)·len(b)) time and
// O(min(len(a),len(b))) space.
func Levenshtein(a, b string) int {
	ra, rb := []rune(a), []rune(b)
	if len(ra) < len(rb) {
		ra, rb = rb, ra
	}
	if len(rb) == 0 {
		return len(ra)
	}
	prev := make([]int, len(rb)+1)
	cur := make([]int, len(rb)+1)
	for j := range prev {
		prev[j] = j
	}
	for i := 1; i <= len(ra); i++ {
		cur[0] = i
		for j := 1; j <= len(rb); j++ {
			cost := 1
			if ra[i-1] == rb[j-1] {
				cost = 0
			}
			cur[j] = min3(prev[j]+1, cur[j-1]+1, prev[j-1]+cost)
		}
		prev, cur = cur, prev
	}
	return prev[len(rb)]
}

// LevenshteinBounded returns the edit distance between a and b if it is at
// most maxDist, or maxDist+1 otherwise. The early-exit banded computation is
// the optimization used by "optimized Levenshtein modules" referenced in the
// paper's introduction.
func LevenshteinBounded(a, b string, maxDist int) int {
	ra, rb := []rune(a), []rune(b)
	if abs(len(ra)-len(rb)) > maxDist {
		return maxDist + 1
	}
	if len(ra) < len(rb) {
		ra, rb = rb, ra
	}
	if len(rb) == 0 {
		return len(ra)
	}
	prev := make([]int, len(rb)+1)
	cur := make([]int, len(rb)+1)
	for j := range prev {
		prev[j] = j
	}
	for i := 1; i <= len(ra); i++ {
		cur[0] = i
		rowMin := cur[0]
		for j := 1; j <= len(rb); j++ {
			cost := 1
			if ra[i-1] == rb[j-1] {
				cost = 0
			}
			cur[j] = min3(prev[j]+1, cur[j-1]+1, prev[j-1]+cost)
			if cur[j] < rowMin {
				rowMin = cur[j]
			}
		}
		if rowMin > maxDist {
			return maxDist + 1
		}
		prev, cur = cur, prev
	}
	if prev[len(rb)] > maxDist {
		return maxDist + 1
	}
	return prev[len(rb)]
}

// Similarity returns a normalized similarity in [0,1] derived from the
// Levenshtein distance: 1 - dist/max(len). Two empty strings have
// similarity 1.
func Similarity(a, b string) float64 {
	la, lb := len([]rune(a)), len([]rune(b))
	if la == 0 && lb == 0 {
		return 1
	}
	m := la
	if lb > m {
		m = lb
	}
	return 1 - float64(Levenshtein(a, b))/float64(m)
}

func min3(a, b, c int) int {
	if b < a {
		a = b
	}
	if c < a {
		a = c
	}
	return a
}

func abs(x int) int {
	if x < 0 {
		return -x
	}
	return x
}
