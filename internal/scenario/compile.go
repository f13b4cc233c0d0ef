package scenario

import (
	"fmt"
	"strings"

	"tagfree/internal/gc"
	"tagfree/internal/mlang/token"
	"tagfree/internal/pipeline"
	"tagfree/internal/serve"
	"tagfree/internal/workloads"
)

// The scenario compiler: crossing a scenario's axes into matrix cells.
// Each cell is exactly one pipeline.RunTasks invocation — the same
// Options struct a hand-coded harness (cmd/tfgc tasks, the telemetry
// report, the bench suites) would build, which is what the differential
// suite pins: a compiled cell must be configuration-identical to its
// hand-written twin, so the DSL adds breadth without adding a second
// execution semantics.

// Cell is one compiled matrix cell: a workload under one fully resolved
// configuration.
type Cell struct {
	// Scenario and Name identify the cell; Name is
	// "<scenario>/<strategy>/<discipline-key>".
	Scenario string
	Name     string

	Workload   workloads.TaskWorkload
	Strategy   gc.Strategy
	Discipline Discipline
	// Shards is the heap shard count (1 = the unsharded heap). When the
	// scenario sets the shards key, the cell name carries a "/sh<k>"
	// suffix; otherwise names keep their historical shape.
	Shards  int
	Repeats int

	// Opts is the exact configuration RunMatrix passes to
	// pipeline.RunTasks.
	Opts pipeline.Options

	// Serve, for arrival-bearing scenarios, is the open-loop serving plan
	// (arrival schedule, admission control, retry policy, service mix);
	// RunMatrix fills in Workload and Opts from the cell and runs the cell
	// through serve.Run instead of pipeline.RunTasks.
	Serve *serve.Config

	// Skip is non-empty for combinations the runtime rejects by design
	// (e.g. mark/sweep under the tagged baseline); the cell is reported,
	// not run.
	Skip string
}

// Compile crosses every scenario's axes into cells, in scenario order
// with strategies varying slowest. Unknown workloads and contradictory
// sizes are positioned errors pointing at the scenario source.
func Compile(scs []*Scenario) ([]Cell, error) {
	var cells []Cell
	for _, sc := range scs {
		w, ok := workloads.TaskByName(sc.Workload)
		if !ok {
			return nil, sc.compileErrorf(sc.keyPos["workload"],
				"unknown task workload %q (have %s)", sc.Workload, taskWorkloadList())
		}
		heapWords := sc.HeapWords
		if heapWords == 0 {
			heapWords = w.HeapWords
		}
		if sc.TLABWords >= heapWords {
			return nil, sc.compileErrorf(sc.keyPos["tlab"],
				"tlab size %d words must be smaller than the heap (%d words)", sc.TLABWords, heapWords)
		}
		if sc.NurseryWords > 0 && sc.TLABWords >= sc.NurseryWords {
			return nil, sc.compileErrorf(sc.keyPos["tlab"],
				"tlab size %d words must be smaller than the nursery (%d words)", sc.TLABWords, sc.NurseryWords)
		}
		w.HeapWords = heapWords
		srv, err := compileServe(sc, w)
		if err != nil {
			return nil, err
		}
		for _, strat := range sc.Strategies {
			for _, disc := range sc.Disciplines {
				for _, shards := range sc.Shards {
					cells = append(cells, compileCell(sc, w, srv, strat, disc, shards))
				}
			}
		}
	}
	return cells, nil
}

// compileServe resolves an arrival-bearing scenario's serving plan,
// validating the mix against the workload's entry functions. Workload and
// Opts stay zero: they vary per cell, so the runner fills them in.
func compileServe(sc *Scenario, w workloads.TaskWorkload) (*serve.Config, error) {
	if sc.Arrivals == nil {
		return nil, nil
	}
	known := map[string]bool{}
	for _, e := range w.Entries {
		known[e] = true
	}
	var mix []serve.MixEntry
	for _, m := range sc.Mix {
		if !known[m.Entry] {
			return nil, sc.compileErrorf(m.Pos,
				"mix entry %q is not an entry of workload %s (have %s)",
				m.Entry, w.Name, strings.Join(w.Entries, ", "))
		}
		mix = append(mix, serve.MixEntry{Entry: m.Entry, Weight: m.Weight})
	}
	a := sc.Arrivals
	return &serve.Config{
		Mix:         mix,
		Period:      a.Period,
		Burst:       a.Burst,
		Requests:    a.Requests,
		Seed:        a.Seed,
		QueueDepth:  a.Queue,
		MaxInflight: a.Inflight,
		ShedHeapPct: a.ShedHeapPct,
		MaxRetries:  a.Retries,
		Backoff:     a.Backoff,
		BackoffCap:  a.BackoffCap,
		Deadline:    a.Deadline,
	}, nil
}

// compileCell resolves one (strategy, discipline, shards) point.
func compileCell(sc *Scenario, w workloads.TaskWorkload, srv *serve.Config, strat gc.Strategy, disc Discipline, shards int) Cell {
	name := fmt.Sprintf("%s/%s/%s", sc.Name, strat, disc.Key())
	if _, set := sc.keyPos["shards"]; set {
		name += fmt.Sprintf("/sh%d", shards)
	}
	c := Cell{
		Scenario:   sc.Name,
		Name:       name,
		Workload:   w,
		Strategy:   strat,
		Discipline: disc,
		Shards:     shards,
		Repeats:    sc.Repeats,
		Serve:      srv,
		Opts: pipeline.Options{
			Strategy:        strat,
			HeapWords:       w.HeapWords,
			MarkSweep:       disc == MarkSweep,
			NurseryWords:    sc.NurseryWords,
			PromoteAfter:    sc.PromoteAfter,
			TLABWords:       sc.TLABWords,
			VerifyHeap:      sc.Faults.VerifyHeap,
			Torture:         sc.Faults.Torture,
			FailAllocNth:    sc.Faults.FailAlloc,
			FailAllocEvery:  sc.Faults.FailEvery,
			FailRefillsOnly: sc.Faults.FailRefills,
			GrowFactor:      sc.Faults.HeapGrow,
			MaxHeapWords:    sc.Faults.HeapMax,
		},
	}
	if sc.Arrivals != nil {
		c.Opts.BudgetSteps = sc.Arrivals.BudgetSteps
		c.Opts.BudgetAllocWords = sc.Arrivals.BudgetAlloc
	}
	// Combinations the runtime rejects by design become reported skips, so
	// the matrix still covers every strategy × discipline cell. ALL
	// applicable reasons are collected into the one Skip string (joined
	// with "; "), so a cell out of the envelope on several counts is still
	// exactly one skipped row in the matrix totals — never double-reported.
	var reasons []string
	if strat == gc.StratTagged && disc == MarkSweep {
		reasons = append(reasons, "mark/sweep is implemented for the tag-free strategies")
	}
	if strat == gc.StratTagged && sc.NurseryWords > 0 {
		reasons = append(reasons, "the generational nursery requires a tag-free strategy")
	}
	if sc.GCConcurrent {
		if strat == gc.StratTagged {
			reasons = append(reasons, "concurrent marking requires a tag-free strategy")
		}
		if disc != MarkSweep {
			reasons = append(reasons, "concurrent marking requires the mark/sweep discipline")
		}
		if sc.NurseryWords > 0 {
			reasons = append(reasons, "concurrent marking requires the nursery off")
		}
	}
	if shards > 1 {
		if strat == gc.StratTagged {
			reasons = append(reasons, "heap sharding requires a tag-free strategy")
		}
		if sc.NurseryWords == 0 {
			reasons = append(reasons, "heap sharding requires a nursery (per-shard minor collections)")
		}
		if sc.GCConcurrent {
			reasons = append(reasons, "heap sharding does not compose with concurrent marking")
		}
	}
	if sc.GCHeapLiveness && strat != gc.StratCompiled {
		// Other out-of-envelope combinations (shard minors, concurrent
		// cycles) run and degrade to full tracing with
		// the refusal counted in LivenessStats; only the strategy axis is a
		// skip, because the pruning kernels exist solely in compiled mode.
		reasons = append(reasons, "heap-liveness pruning requires the compiled strategy")
	}
	c.Skip = strings.Join(reasons, "; ")
	if c.Skip == "" {
		if sc.GCConcurrent {
			c.Opts.GCConcurrent = true
		}
		if sc.GCHeapLiveness {
			// Scenario cells are correctness harnesses, so the poison debug
			// mode rides along: a wrong spine verdict faults the loading
			// task instead of silently computing on a pruned word.
			c.Opts.GCHeapLiveness = true
			c.Opts.PoisonPruned = true
		}
		if shards > 1 {
			// shards 1 stays zero-valued so a defaulted axis compiles to an
			// Options struct identical to its hand-written twin.
			c.Opts.Shards = shards
		}
	}
	return c
}

// compileErrorf builds a compile-time diagnostic, prefixed with the
// scenario's source file when LoadPath recorded one — Compile runs over
// scenarios pooled from many files, so the position alone is ambiguous.
func (sc *Scenario) compileErrorf(pos token.Pos, format string, args ...any) error {
	err := posErrorf(pos, format, args...)
	if sc.File == "" {
		return err
	}
	return fmt.Errorf("%s:%w", sc.File, err)
}

// taskWorkloadList renders the tasking corpus names for diagnostics.
func taskWorkloadList() string {
	names := make([]string, len(workloads.Tasking))
	for i, w := range workloads.Tasking {
		names[i] = w.Name
	}
	return strings.Join(names, ", ")
}
