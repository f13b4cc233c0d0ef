package gc

import "testing"

// TestFailAllocDeterministic pins the replay guarantee: two plans with the
// same seed and knobs make identical decisions, and every decision is
// counted.
func TestFailAllocDeterministic(t *testing.T) {
	a := &FaultPlan{FailNth: 3, FailEvery: 11, FailProb: 0.25, Seed: 7}
	b := &FaultPlan{FailNth: 3, FailEvery: 11, FailProb: 0.25, Seed: 7}
	for i := 0; i < 1000; i++ {
		if a.FailAlloc() != b.FailAlloc() {
			t.Fatalf("decision %d diverged between identically seeded plans", i)
		}
	}
	if a.Allocs() != 1000 || b.Allocs() != 1000 {
		t.Fatalf("Allocs() = %d, %d, want 1000", a.Allocs(), b.Allocs())
	}
}
