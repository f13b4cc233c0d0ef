package experiments

import (
	"encoding/json"
	"testing"

	"tagfree/internal/workloads"
)

// TestPercentile pins the nearest-rank-below rule and the degenerate
// cases: empty → 0, single sample → itself at every p, out-of-range p
// clamped to the extremes.
func TestPercentile(t *testing.T) {
	cases := []struct {
		name   string
		sorted []int64
		p      float64
		want   int64
	}{
		{"empty", nil, 0.5, 0},
		{"empty p0", []int64{}, 0, 0},
		{"single p0", []int64{42}, 0, 42},
		{"single p50", []int64{42}, 0.5, 42},
		{"single p100", []int64{42}, 1, 42},
		{"pair p50 rounds down", []int64{10, 20}, 0.5, 10},
		{"five p0", []int64{1, 2, 3, 4, 5}, 0, 1},
		{"five p50", []int64{1, 2, 3, 4, 5}, 0.5, 3},
		{"five p90 rounds down", []int64{1, 2, 3, 4, 5}, 0.9, 4},
		{"five p100", []int64{1, 2, 3, 4, 5}, 1, 5},
		{"p below range clamps", []int64{1, 2, 3}, -0.5, 1},
		{"p above range clamps", []int64{1, 2, 3}, 99.9, 3},
	}
	for _, c := range cases {
		if got := percentile(c.sorted, c.p); got != c.want {
			t.Errorf("%s: percentile(%v, %v) = %d, want %d", c.name, c.sorted, c.p, got, c.want)
		}
	}
}

// TestBenchSnapshotSmoke exercises the bench harness end to end on a
// reduced schedule: one pause run per knob combination on the deep-stack
// workload, plus one e2e run — and checks the snapshot marshals under the
// documented schema.
func TestBenchSnapshotSmoke(t *testing.T) {
	w, ok := workloads.TaskByName("taskdeep")
	if !ok {
		t.Fatal("taskdeep workload missing")
	}
	snap := &BenchSnapshot{Schema: BenchSchema, Repeats: 1}
	for _, fast := range []bool{false, true} {
		r := collectPauseRun(w, false, fast, 20)
		if r.Collections != 20 || r.PauseP50NS <= 0 || r.ResolveMeanNS <= 0 || r.RootsPerGC <= 0 {
			t.Fatalf("degenerate pause run: %+v", r)
		}
		if fast && r.PlanHits == 0 {
			t.Fatalf("fast run never hit the plan cache: %+v", r)
		}
		if !fast && (r.PlanHits != 0 || r.KernelWords != 0) {
			t.Fatalf("oracle run used the fast path: %+v", r)
		}
		snap.Runs = append(snap.Runs, r)
	}
	lw, ok := workloads.ByName("listchurn")
	if !ok {
		t.Fatal("listchurn workload missing")
	}
	e := e2eRun(lw, true, 1)
	if e.RunNS <= 0 || e.AllocWords <= 0 {
		t.Fatalf("degenerate e2e run: %+v", e)
	}
	snap.Runs = append(snap.Runs, e)

	// The generational split on the barrier-heavy workload: minors must be
	// strictly cheaper than fulls over the tenured resident set, and the
	// end-to-end counters must show the write barrier actually firing.
	mw, ok := workloads.TaskByName("taskmutate")
	if !ok {
		t.Fatal("taskmutate workload missing")
	}
	m := minorPauseRun(mw, false, 20)
	if m.MinorP50NS <= 0 || m.FullP50NS <= 0 {
		t.Fatalf("degenerate minor-pause run: %+v", m)
	}
	if m.MinorP50NS >= m.FullP50NS {
		t.Fatalf("minor p50 %dns not below full p50 %dns", m.MinorP50NS, m.FullP50NS)
	}
	if m.BarrierHits == 0 || m.MinorCollections == 0 {
		t.Fatalf("end-to-end counters missing generational activity: %+v", m)
	}
	snap.Runs = append(snap.Runs, m)

	// The allocation-contention pair: the baseline acquires the shared
	// heap at least once per allocation; buffers must collapse the ratio.
	cw, ok := workloads.TaskByName("taskchurn")
	if !ok {
		t.Fatal("taskchurn workload missing")
	}
	base := allocContentionRun(cw, 0, 1)
	buf := allocContentionRun(cw, benchTLABWords, 1)
	if base.AcqsPerAlloc < 1 {
		t.Fatalf("baseline acqs/alloc %.3f below 1", base.AcqsPerAlloc)
	}
	if buf.AcqsPerAlloc*4 >= 1 || buf.TLABRefills == 0 {
		t.Fatalf("buffers did not amortize acquisitions: %+v", buf)
	}
	if buf.Allocations != base.Allocations {
		t.Fatalf("buffers changed the allocation count: %d vs %d", buf.Allocations, base.Allocations)
	}
	snap.Runs = append(snap.Runs, base, buf)

	js, err := json.Marshal(snap)
	if err != nil {
		t.Fatal(err)
	}
	var back BenchSnapshot
	if err := json.Unmarshal(js, &back); err != nil {
		t.Fatal(err)
	}
	if back.Schema != BenchSchema || len(back.Runs) != len(snap.Runs) {
		t.Fatalf("snapshot did not round-trip: %s", js)
	}
}
