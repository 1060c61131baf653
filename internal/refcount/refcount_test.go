package refcount

import (
	"sync"
	"sync/atomic"
	"testing"
)

func TestCount(t *testing.T) {
	var c Count // the creator's reference
	if !c.Acquire() {
		t.Fatal("Acquire on a live count failed")
	}
	if c.Release() {
		t.Fatal("Release of one of two references reported the last")
	}
	if !c.Release() {
		t.Fatal("Release of the creator's reference did not report the last")
	}
	if c.Acquire() {
		t.Fatal("Acquire after the last Release revived the count")
	}
	if c.Release() {
		t.Fatal("a Release past the last reported the last again")
	}
	if c.Acquire() {
		t.Fatal("Acquire after a Release past the last revived the count")
	}
}

// TestCountConcurrent races acquirers against the creator's release: every
// Acquire that succeeds is released, and exactly one Release reports the
// last whatever the interleaving.
func TestCountConcurrent(t *testing.T) {
	for round := 0; round < 200; round++ {
		var c Count
		var last atomic.Int32
		var wg sync.WaitGroup
		for g := 0; g < 4; g++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for i := 0; i < 50; i++ {
					if c.Acquire() && c.Release() {
						last.Add(1)
					}
				}
			}()
		}
		if c.Release() {
			last.Add(1)
		}
		wg.Wait()
		if n := last.Load(); n != 1 {
			t.Fatalf("round %d: %d releases reported the last, want 1", round, n)
		}
		if c.Acquire() {
			t.Fatalf("round %d: Acquire after the drain succeeded", round)
		}
	}
}
