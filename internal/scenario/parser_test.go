package scenario

import (
	"errors"
	"reflect"
	"strings"
	"testing"

	"tagfree/internal/gc"
)

func TestScenarioParseFull(t *testing.T) {
	src := `
# all knobs at once
scenario kitchen-sink {
  workload    taskmutate
  strategies  compiled appel
  disciplines copying marksweep
  repeats     3
  heap        4096
  nursery     256
  promote     3
  tlab        64
  faults {
    torture
    verify-heap
    fail-alloc  100
    fail-every  50
    fail-refills
    heap-grow   1.5
    heap-max    65536
  }
}
`
	scs, err := Parse(src)
	if err != nil {
		t.Fatalf("Parse: %v", err)
	}
	if len(scs) != 1 {
		t.Fatalf("got %d scenarios, want 1", len(scs))
	}
	sc := scs[0]
	if sc.Name != "kitchen-sink" || sc.Workload != "taskmutate" {
		t.Fatalf("header = %q/%q", sc.Name, sc.Workload)
	}
	if want := []gc.Strategy{gc.StratCompiled, gc.StratAppel}; !reflect.DeepEqual(sc.Strategies, want) {
		t.Errorf("strategies = %v, want %v", sc.Strategies, want)
	}
	if want := []Discipline{Copying, MarkSweep}; !reflect.DeepEqual(sc.Disciplines, want) {
		t.Errorf("disciplines = %v, want %v", sc.Disciplines, want)
	}
	if sc.Repeats != 3 || sc.HeapWords != 4096 || sc.NurseryWords != 256 ||
		sc.PromoteAfter != 3 || sc.TLABWords != 64 {
		t.Errorf("knobs = %+v", sc)
	}
	wantFaults := FaultBlock{
		Torture: true, VerifyHeap: true, FailRefills: true,
		FailAlloc: 100, FailEvery: 50, HeapGrow: 1.5, HeapMax: 65536,
	}
	if sc.Faults != wantFaults {
		t.Errorf("faults = %+v, want %+v", sc.Faults, wantFaults)
	}
}

func TestScenarioParseDefaults(t *testing.T) {
	scs, err := Parse("scenario d { workload taskchurn }")
	if err != nil {
		t.Fatalf("Parse: %v", err)
	}
	sc := scs[0]
	if len(sc.Strategies) != 4 {
		t.Errorf("default strategies = %v, want all four", sc.Strategies)
	}
	if want := []Discipline{Copying}; !reflect.DeepEqual(sc.Disciplines, want) {
		t.Errorf("default disciplines = %v, want %v", sc.Disciplines, want)
	}
	if want := []int{1}; !reflect.DeepEqual(sc.Shards, want) {
		t.Errorf("default shards = %v, want %v", sc.Shards, want)
	}
	if sc.Repeats != 1 {
		t.Errorf("default repeats = %d, want 1", sc.Repeats)
	}
}

// TestScenarioGCConcurrent pins the gc_concurrent key: a bare boolean that
// turns on incremental marking for the cells in its envelope (mark/sweep,
// tag-free, no nursery) and reports every other cell as skipped.
func TestScenarioGCConcurrent(t *testing.T) {
	scs, err := Parse(`
scenario conc {
  workload    taskchurn
  strategies  compiled tagged
  disciplines copying marksweep
  gc_concurrent
}
`)
	if err != nil {
		t.Fatalf("Parse: %v", err)
	}
	if !scs[0].GCConcurrent {
		t.Fatalf("gc_concurrent not set on the scenario")
	}
	cells, err := Compile(scs)
	if err != nil {
		t.Fatalf("Compile: %v", err)
	}
	if len(cells) != 4 {
		t.Fatalf("got %d cells, want 4", len(cells))
	}
	var on, skipped int
	for _, c := range cells {
		if c.Opts.GCConcurrent {
			on++
			if c.Skip != "" {
				t.Errorf("%s: skipped cell has GCConcurrent set", c.Name)
			}
			if c.Strategy != gc.StratCompiled || c.Discipline != MarkSweep {
				t.Errorf("%s: concurrent marking outside its envelope", c.Name)
			}
		} else if c.Skip != "" {
			skipped++
		} else {
			t.Errorf("%s: neither concurrent nor skipped under gc_concurrent", c.Name)
		}
	}
	if on != 1 {
		t.Errorf("got %d concurrent cells, want exactly compiled/marksweep", on)
	}
	if skipped != 3 {
		t.Errorf("got %d skipped cells, want 3", skipped)
	}
}

// TestScenarioGCHeapLiveness pins the gc_heap_liveness key: a bare
// boolean that turns on liveness-guided tracing (with the poison debug
// mode riding along) for compiled-strategy cells and reports every other
// strategy's cells as skipped — including multi-reason skips joined with
// "; " when the cell is out of the envelope on several counts at once.
func TestScenarioGCHeapLiveness(t *testing.T) {
	scs, err := Parse(`
scenario live {
  workload    taskspine
  strategies  compiled interp tagged
  disciplines copying marksweep
  gc_heap_liveness
  gc_concurrent
}
`)
	if err != nil {
		t.Fatalf("Parse: %v", err)
	}
	if !scs[0].GCHeapLiveness {
		t.Fatalf("gc_heap_liveness not set on the scenario")
	}
	cells, err := Compile(scs)
	if err != nil {
		t.Fatalf("Compile: %v", err)
	}
	if len(cells) != 6 {
		t.Fatalf("got %d cells, want 6", len(cells))
	}
	var on int
	for _, c := range cells {
		if c.Opts.GCHeapLiveness {
			on++
			if c.Skip != "" {
				t.Errorf("%s: skipped cell has GCHeapLiveness set", c.Name)
			}
			if !c.Opts.PoisonPruned {
				t.Errorf("%s: liveness cell without the poison debug mode", c.Name)
			}
			if c.Strategy != gc.StratCompiled {
				t.Errorf("%s: heap-liveness pruning outside the compiled strategy", c.Name)
			}
		} else if c.Skip == "" {
			t.Errorf("%s: neither liveness-enabled nor skipped under gc_heap_liveness", c.Name)
		} else if c.Strategy != gc.StratCompiled && !strings.Contains(c.Skip, "heap-liveness pruning requires the compiled strategy") {
			t.Errorf("%s: skip %q does not name the liveness reason", c.Name, c.Skip)
		}
	}
	// compiled × marksweep is the one cell inside both envelopes.
	if on != 1 {
		t.Errorf("got %d liveness cells, want exactly compiled/marksweep", on)
	}
	// The tagged mark/sweep cell is out of the envelope on four counts:
	// its skip must carry ALL reasons, "; "-joined, in one row.
	var tagged *Cell
	for i := range cells {
		if cells[i].Strategy == gc.StratTagged && cells[i].Discipline == MarkSweep {
			tagged = &cells[i]
		}
	}
	if tagged == nil {
		t.Fatal("no tagged/marksweep cell")
	}
	for _, reason := range []string{
		"mark/sweep is implemented for the tag-free strategies",
		"concurrent marking requires a tag-free strategy",
		"heap-liveness pruning requires the compiled strategy",
	} {
		if !strings.Contains(tagged.Skip, reason) {
			t.Errorf("tagged cell skip %q missing reason %q", tagged.Skip, reason)
		}
	}
	if parts := strings.Split(tagged.Skip, "; "); len(parts) < 3 {
		t.Errorf("tagged cell skip %q not a multi-reason \"; \" join", tagged.Skip)
	}
}

// TestScenarioDiagnosticsGolden pins the exact position and message of
// the parser's diagnostics for malformed .tfs input — the contract that
// `tfbench -scenario` failures point at the offending token.
func TestScenarioDiagnosticsGolden(t *testing.T) {
	cases := []struct {
		name string
		src  string
		want string // exact "line:col: message"
	}{
		{
			name: "unknown key",
			src:  "scenario x {\n  workload taskchurn\n  wrkload taskchurn\n}\n",
			want: `3:3: unknown scenario key "wrkload" (have workload, strategies, disciplines, shards, repeats, heap, nursery, promote, tlab, gc_concurrent, gc_heap_liveness, faults, arrivals, mix)`,
		},
		{
			name: "bad strategy name",
			src:  "scenario x {\n  workload taskchurn\n  strategies compiled wizard\n}\n",
			want: `3:23: unknown strategy "wizard" (have compiled, interp, appel, tagged)`,
		},
		{
			name: "bad discipline name",
			src:  "scenario x {\n  workload taskchurn\n  disciplines sweeping\n}\n",
			want: `3:15: unknown discipline "sweeping" (have copying, marksweep)`,
		},
		{
			name: "nursery too small",
			src:  "scenario x {\n  workload taskchurn\n  nursery 7\n}\n",
			want: `3:11: nursery size 7 words out of range (0 to disable, or 16..4194304)`,
		},
		{
			name: "nursery too large",
			src:  "scenario x {\n  workload taskchurn\n  nursery 8388608\n}\n",
			want: `3:11: nursery size 8388608 words out of range (0 to disable, or 16..4194304)`,
		},
		{
			name: "tlab too small",
			src:  "scenario x {\n  workload taskchurn\n  tlab 4\n}\n",
			want: `3:8: tlab size 4 words out of range (0 to disable, or 8..65536)`,
		},
		{
			name: "tlab too large",
			src:  "scenario x {\n  workload taskchurn\n  tlab 131072\n}\n",
			want: `3:8: tlab size 131072 words out of range (0 to disable, or 8..65536)`,
		},
		{
			name: "heap out of range",
			src:  "scenario x {\n  workload taskchurn\n  heap 64\n}\n",
			want: `3:8: heap size 64 words out of range (128..67108864)`,
		},
		{
			name: "missing workload",
			src:  "scenario empty {\n  repeats 1\n}\n",
			want: `1:1: scenario "empty" missing required key "workload"`,
		},
		{
			name: "duplicate key",
			src:  "scenario x {\n  workload taskchurn\n  heap 1024\n  heap 2048\n}\n",
			want: `4:3: duplicate key "heap" (first set at 3:3)`,
		},
		{
			name: "unknown faults key",
			src:  "scenario x {\n  workload taskchurn\n  faults {\n    tortore\n  }\n}\n",
			want: `4:5: unknown faults key "tortore" (have torture, verify-heap, fail-alloc, fail-every, fail-refills, heap-grow, heap-max)`,
		},
		{
			name: "heap-grow out of range",
			src:  "scenario x {\n  workload taskchurn\n  faults {\n    heap-grow 0.5\n  }\n}\n",
			want: `4:15: heap-grow 0.5 out of range (must exceed 1, at most 16)`,
		},
		{
			name: "missing closing brace",
			src:  "scenario x {\n  workload taskchurn\n",
			want: `1:1: scenario "x" missing closing }`,
		},
		{
			name: "trailing junk after value",
			src:  "scenario x {\n  workload taskchurn extra\n}\n",
			want: `2:22: expected end of line after workload, found "extra"`,
		},
		{
			name: "duplicate scenario name",
			src:  "scenario x { workload taskchurn }\nscenario x { workload taskchurn }\n",
			want: `2:1: duplicate scenario name "x" (first defined at 1:1)`,
		},
		{
			name: "lexical error surfaces",
			src:  "scenario x {\n  workload taskchurn\n  heap 10z24\n}\n",
			want: `3:8: malformed number "10z24"`,
		},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			_, err := Parse(c.src)
			if err == nil {
				t.Fatalf("Parse accepted malformed input")
			}
			var pe *PosError
			if !errors.As(err, &pe) {
				t.Fatalf("error %T is not a *PosError: %v", err, err)
			}
			if got := err.Error(); got != c.want {
				t.Errorf("diagnostic\n got: %s\nwant: %s", got, c.want)
			}
		})
	}
}

func TestScenarioCompileDiagnostics(t *testing.T) {
	cases := []struct {
		name string
		src  string
		want string
	}{
		{
			name: "unknown workload",
			src:  "scenario x {\n  workload nosuch\n}\n",
			want: `2:3: unknown task workload "nosuch" (have taskchurn, tasktree, taskpoly, taskmutate, taskdeep, taskspine, taskserve)`,
		},
		{
			name: "tlab at least heap",
			src:  "scenario x {\n  workload taskchurn\n  heap 256\n  tlab 256\n}\n",
			want: `4:3: tlab size 256 words must be smaller than the heap (256 words)`,
		},
		{
			name: "tlab at least nursery",
			src:  "scenario x {\n  workload taskchurn\n  nursery 64\n  tlab 64\n}\n",
			want: `4:3: tlab size 64 words must be smaller than the nursery (64 words)`,
		},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			scs, err := Parse(c.src)
			if err != nil {
				t.Fatalf("Parse: %v", err)
			}
			_, err = Compile(scs)
			if err == nil {
				t.Fatalf("Compile accepted bad scenario")
			}
			var pe *PosError
			if !errors.As(err, &pe) {
				t.Fatalf("error %T is not a *PosError: %v", err, err)
			}
			if got := err.Error(); got != c.want {
				t.Errorf("diagnostic\n got: %s\nwant: %s", got, c.want)
			}
		})
	}
}
