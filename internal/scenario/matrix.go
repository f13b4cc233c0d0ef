package scenario

import (
	"fmt"
	"strings"
	"time"

	"tagfree/internal/pipeline"
	"tagfree/internal/serve"
)

// The matrix runner: every compiled cell through pipeline.RunTasks, with
// the outcome folded into a comparative report. The JSON form reuses the
// benchmark-snapshot schema (tagfree-bench/v1, see EXPERIMENTS.md) with a
// run kind of "scenario-cell", so the same tooling that reads
// BENCH_PR<n>.json can read a scenario shootout.

// SnapshotSchema identifies the snapshot layout. It is the same schema
// string the benchmark trajectory uses (experiments.BenchSchema);
// duplicated here so the scenario package does not depend on the
// experiment tables (which depend on it for E13).
const SnapshotSchema = "tagfree-bench/v1"

// CellResult is one executed (or skipped) matrix cell.
type CellResult struct {
	Name     string `json:"name"`
	Kind     string `json:"kind"` // "scenario-cell"
	Scenario string `json:"scenario"`
	Workload string `json:"workload"`
	Strategy string `json:"strategy"`
	// Discipline is "copying" or "mark/sweep".
	Discipline string `json:"discipline"`
	// Shards is the heap shard count (omitted for the unsharded heap).
	Shards  int `json:"shards,omitempty"`
	Repeats int `json:"repeats"`

	// The resolved configuration, for cross-checking against hand-coded
	// invocations.
	HeapWords    int  `json:"heap_words"`
	NurseryWords int  `json:"nursery_words,omitempty"`
	PromoteAfter int  `json:"promote_after,omitempty"`
	TLABWords    int  `json:"tlab_words,omitempty"`
	Torture      bool `json:"torture,omitempty"`
	VerifyHeap   bool `json:"verify_heap,omitempty"`

	// Skip is the reason a by-design-unsupported combination was not run.
	Skip string `json:"skip,omitempty"`
	// Error reports a run that failed outright (no result to compare).
	Error string `json:"error,omitempty"`

	// OK is true when every task returned its expected value with no
	// faults — the matrix doubles as a cross-strategy correctness check.
	OK      bool  `json:"ok"`
	Faulted int   `json:"faulted,omitempty"`
	RunNS   int64 `json:"run_ns,omitempty"`
	// Collections/GCPauseNS/AllocWords/Records summarize the collector's
	// work: Records is the telemetry record count the differential suite
	// compares against hand-coded runs.
	Collections int64 `json:"gc_count,omitempty"`
	GCPauseNS   int64 `json:"gc_pause_ns,omitempty"`
	AllocWords  int64 `json:"alloc_words,omitempty"`
	Records     int   `json:"records,omitempty"`

	// Serve is set for arrival-bearing cells: the serve-harness report
	// row (arrival/admission configuration, loss ledger, latency
	// percentiles) for the cell's open-loop run.
	Serve *serve.Report `json:"serve,omitempty"`
}

// Snapshot is the whole emitted report.
type Snapshot struct {
	Schema string       `json:"schema"`
	Runs   []CellResult `json:"runs"`
}

// RunMatrix executes every cell (best-of-repeats wall time) and returns
// the report. A cell whose run fails is recorded with its error rather
// than aborting the matrix: the report's job is to show every cell.
func RunMatrix(cells []Cell) *Snapshot {
	snap := &Snapshot{Schema: SnapshotSchema}
	for _, c := range cells {
		snap.Runs = append(snap.Runs, runCell(c))
	}
	return snap
}

// runCell executes one cell.
func runCell(c Cell) CellResult {
	r := CellResult{
		Name:         c.Name,
		Kind:         "scenario-cell",
		Scenario:     c.Scenario,
		Workload:     c.Workload.Name,
		Strategy:     c.Strategy.String(),
		Discipline:   c.Discipline.String(),
		Shards:       c.Opts.Shards,
		Repeats:      c.Repeats,
		HeapWords:    c.Opts.HeapWords,
		NurseryWords: c.Opts.NurseryWords,
		PromoteAfter: c.Opts.PromoteAfter,
		TLABWords:    c.Opts.TLABWords,
		Torture:      c.Opts.Torture,
		VerifyHeap:   c.Opts.VerifyHeap,
		Skip:         c.Skip,
	}
	if c.Skip != "" {
		return r
	}
	if c.Serve != nil {
		return runServeCell(c, r)
	}
	var best *pipeline.TaskResult
	bestNS := int64(1 << 62)
	for i := 0; i < c.Repeats; i++ {
		start := time.Now()
		res, err := pipeline.RunTasks(c.Workload.Source, c.Workload.Entries, c.Opts)
		if err != nil {
			r.Error = err.Error()
			return r
		}
		if ns := time.Since(start).Nanoseconds(); ns < bestNS {
			bestNS = ns
			best = res
		}
	}
	r.RunNS = bestNS
	r.Collections = best.GCStats.Collections
	r.GCPauseNS = best.GCStats.PauseNS
	r.AllocWords = best.Heap.WordsAllocated
	r.Records = len(best.Telemetry.Records)
	r.OK = true
	for i, want := range c.Workload.Expect {
		if best.Faults[i] != nil {
			r.Faulted++
			r.OK = false
			continue
		}
		if best.Values[i] != want {
			r.OK = false
		}
	}
	return r
}

// runServeCell executes one arrival-bearing cell through the serve
// harness (best-of-repeats wall time; the virtual-time stats are
// deterministic, so repeats only steady the wall clock). The cell is OK
// when the loss ledger balances (serve.Run enforces it), every completed
// request returned its expected value, and every fault is a planned one —
// a deadline cancellation or a budget overrun, the ladder's own rungs;
// only unplanned faults (OOM-ladder exhaustion, runtime errors) fail it.
func runServeCell(c Cell, r CellResult) CellResult {
	cfg := *c.Serve
	cfg.Workload = c.Workload
	cfg.Opts = c.Opts
	var best *serve.Result
	for i := 0; i < c.Repeats; i++ {
		res, err := serve.Run(cfg)
		if err != nil {
			r.Error = err.Error()
			return r
		}
		if best == nil || res.WallNS < best.WallNS {
			best = res
		}
	}
	rep := serve.NewReport(c.Name, cfg, best)
	r.Serve = &rep
	r.RunNS = best.WallNS
	r.Collections = rep.Collections
	r.AllocWords = best.Group.Heap.Stats.WordsAllocated
	r.GCPauseNS = best.Group.Col.Stats.PauseNS
	r.Records = len(best.Group.Col.Telem.Records)
	r.Faulted = int(best.Stats.Faulted)
	// Telemetry's BudgetFaults counts cancellations too; the difference is
	// the budget overruns among Stats.Faulted, and anything beyond those
	// is an unplanned fault.
	overruns := rep.BudgetFaults - best.Stats.Canceled
	r.OK = best.Stats.WrongResults == 0 && best.Stats.Faulted <= overruns
	return r
}

// Table renders the snapshot as an aligned comparative table, one row per
// cell, grouped the way the cells were compiled (scenario order,
// strategies varying slowest).
func (s *Snapshot) Table() string {
	header := []string{"scenario", "workload", "strategy", "discipline",
		"ok", "gcs", "gc pause", "alloc words", "wall", "note"}
	rows := make([][]string, 0, len(s.Runs))
	for _, r := range s.Runs {
		ok, note := "yes", ""
		switch {
		case r.Skip != "":
			ok, note = "-", "skip: "+r.Skip
		case r.Error != "":
			ok, note = "no", "error: "+r.Error
		case !r.OK:
			ok = "no"
			if r.Faulted > 0 {
				note = fmt.Sprintf("%d task(s) faulted", r.Faulted)
			} else {
				note = "wrong result"
			}
		}
		if r.Serve != nil && note == "" {
			s := r.Serve.Stats
			note = fmt.Sprintf("serve: done=%d shed=%d drop=%d cancel=%d p99=%d",
				s.Completed, s.Shed, s.Dropped, s.Canceled, r.Serve.LatencyP99)
		}
		gcs, pause, alloc, wall := "-", "-", "-", "-"
		if r.Skip == "" && r.Error == "" {
			gcs = fmt.Sprint(r.Collections)
			pause = time.Duration(r.GCPauseNS).String()
			alloc = fmt.Sprint(r.AllocWords)
			wall = time.Duration(r.RunNS).String()
		}
		rows = append(rows, []string{r.Scenario, r.Workload, r.Strategy, r.Discipline,
			ok, gcs, pause, alloc, wall, note})
	}

	widths := make([]int, len(header))
	for i, h := range header {
		widths[i] = len(h)
	}
	for _, row := range rows {
		for i, c := range row {
			if len(c) > widths[i] {
				widths[i] = len(c)
			}
		}
	}
	var b strings.Builder
	fmt.Fprintf(&b, "scenario matrix: %d cells (%d run, %d skipped)\n",
		len(s.Runs), len(s.Runs)-s.skipped(), s.skipped())
	line := func(cells []string) {
		for i, c := range cells {
			if i > 0 {
				b.WriteString("  ")
			}
			fmt.Fprintf(&b, "%-*s", widths[i], c)
		}
		b.WriteByte('\n')
	}
	line(header)
	sep := make([]string, len(header))
	for i := range sep {
		sep[i] = strings.Repeat("-", widths[i])
	}
	line(sep)
	for _, row := range rows {
		line(row)
	}
	return b.String()
}

func (s *Snapshot) skipped() int {
	n := 0
	for _, r := range s.Runs {
		if r.Skip != "" {
			n++
		}
	}
	return n
}
