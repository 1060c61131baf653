package ngram

import (
	"slices"
	"testing"
	"testing/quick"
)

// Property: Embed is deterministic, dimension-stable, and invariant to
// leading/trailing whitespace and case.
func TestEmbedInvariantsProperty(t *testing.T) {
	m := NewModel(16, 1024, 7)
	f := func(s string) bool {
		if len(s) > 60 {
			return true
		}
		a := m.Embed(s)
		b := m.Embed(s)
		if len(a) != 16 {
			return false
		}
		for i := range a {
			if a[i] != b[i] {
				return false
			}
		}
		c := m.Embed("  " + s + "  ")
		for i := range a {
			if a[i] != c[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// Property: feature indexes always fall inside the bucket table.
func TestFeaturesInRangeProperty(t *testing.T) {
	m := NewModel(8, 512, 3)
	f := func(s string) bool {
		for _, idx := range m.Features(s) {
			if idx < 0 || idx >= 512 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestEmbedPartsMentionZeroForUnknown(t *testing.T) {
	m := NewModel(8, 512, 5)
	m.RegisterMention("Germany")
	sub, mention := m.EmbedParts("Germany")
	if len(sub) != 8 || len(mention) != 8 {
		t.Fatal("part dims wrong")
	}
	nonZero := false
	for _, v := range mention {
		if v != 0 {
			nonZero = true
		}
	}
	if !nonZero {
		t.Fatal("registered mention should have a non-zero slot")
	}
	_, unknown := m.EmbedParts("NeverSeenBefore")
	for _, v := range unknown {
		if v != 0 {
			t.Fatal("unknown mention slot must be zero")
		}
	}
}

func TestKnownMentionRoundTrip(t *testing.T) {
	m := NewModel(8, 512, 5)
	m.RegisterMention("alpha")
	m.RegisterMention("beta")
	hs := m.KnownMentionHashes()
	if len(hs) != 2 {
		t.Fatalf("hashes = %v", hs)
	}
	view := make([]int64, len(hs)) // sorted, as a v4 artifact stores it
	for i, h := range hs {
		view[i] = int64(h)
	}
	slices.Sort(view)
	m2 := NewModel(8, 512, 5)
	m2.SetKnownMentionView(view)
	_, a := m2.EmbedParts("alpha")
	zero := true
	for _, v := range a {
		if v != 0 {
			zero = false
		}
	}
	// Tables differ (random init), but the slot must be *recognized* —
	// i.e. copied from the table rather than forced to zero. Verify by
	// comparing against the table row directly.
	if zero {
		// The random row could be all zeros only with probability ~0.
		t.Fatal("restored known mention not recognized")
	}
}
