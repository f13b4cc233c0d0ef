// Package scenario implements the .tfs scenario language: a small
// declarative notation for GC benchmark scenarios, compiled into the
// corpus-run machinery (pipeline.RunTasks) the experiments and telemetry
// reports already use. A scenario names a task workload and the matrix
// axes to cross it with — collection strategies, heap disciplines, heap
// shards — plus the runtime knobs (heap, nursery, promotion, TLAB)
// and a fault-injection block, plus gc_concurrent for incremental marking,
// so that widening the evaluation no longer
// means editing Go in internal/workloads: workloads stay code, but the
// *configurations* under which they run become data.
//
// A .tfs file holds one or more scenarios:
//
//	# taskchurn across every strategy and discipline.
//	scenario churn-all {
//	  workload    taskchurn
//	  strategies  compiled interp appel tagged
//	  disciplines copying marksweep
//	  faults {
//	    torture
//	    verify-heap
//	  }
//	}
//
// `#` comments run to end of line; statements end at end of line. Every
// key is validated when parsed — unknown keys, unknown strategy or
// discipline names and out-of-range sizes are positioned errors (see
// PosError) — and the ranges mirror the constraints cmd/tfgc and
// cmd/tfbench enforce on their flags, so a scenario that parses is a
// configuration those tools would accept.
//
// Compile crosses the axes into matrix cells, one pipeline.Options per
// (strategy, discipline, shards); RunMatrix executes them and renders the
// comparative report (an aligned table plus a tagfree-bench/v1 JSON
// snapshot). Cells whose combination the runtime rejects by design
// (mark/sweep or a nursery under the tagged baseline) are emitted as
// skipped rows rather than dropped, so every strategy × discipline ×
// scenario cell is accounted for.
package scenario

import (
	"fmt"

	"tagfree/internal/gc"
	"tagfree/internal/mlang/token"
)

// Scenario is one parsed scenario: a workload crossed with matrix axes
// under shared runtime knobs. Zero-valued axes get defaults at parse time
// (all strategies, copying discipline, one shard, one repeat); sizes default
// to 0 = "use the workload's recommendation" (heap) or "off" (nursery,
// tlab).
type Scenario struct {
	Name string
	// Pos is the position of the scenario header, for diagnostics.
	Pos token.Pos
	// File is the .tfs file the scenario came from (set by LoadPath;
	// empty for Parse), prefixed onto compile-time diagnostics.
	File string

	// Workload names a task workload from workloads.Tasking.
	Workload string

	// The matrix axes.
	Strategies  []gc.Strategy
	Disciplines []Discipline
	// Shards crosses heap shard counts (task→shard partitioning with
	// independent per-shard minor collections). Cells with shards > 1
	// outside the sharding envelope (tag-free strategy, a nursery, no
	// gc_concurrent) become reported skips.
	Shards []int

	// Repeats is the best-of wall-time repetition count per cell.
	Repeats int

	// Runtime knobs, in words (0 = default/off).
	HeapWords    int
	NurseryWords int
	PromoteAfter int
	TLABWords    int

	// GCConcurrent turns on incremental (mostly-concurrent) marking for
	// the cells that support it — mark/sweep, tag-free strategy, no
	// nursery. Cells outside that envelope become reported
	// skips, like mark/sweep under the tagged baseline.
	GCConcurrent bool

	// GCHeapLiveness turns on liveness-guided tracing (spine-only trace
	// descriptors with dead-element pruning and the poison debug mode)
	// for the cells that can carry it. The descriptors are compiled-
	// strategy kernels, so every other strategy's cells become reported
	// skips; within the compiled strategy, out-of-envelope collections
	// (shard minors, concurrent cycles) degrade to full
	// tracing at runtime with the refusal counted, not skipped here.
	GCHeapLiveness bool

	// Faults is the fault-injection plan applied to every cell.
	Faults FaultBlock

	// Arrivals, when present, turns every cell into a serve-harness run
	// (open-loop arrivals, bounded admission, the degradation ladder)
	// instead of a closed-loop corpus run; Mix is its weighted service
	// mix over the workload's entry functions.
	Arrivals *ArrivalsBlock
	Mix      []MixItem

	// keyPos remembers where each key appeared, so compile-time
	// diagnostics (unknown workload, tlab larger than the heap) can point
	// at source like parse-time ones.
	keyPos map[string]token.Pos
}

// ArrivalsBlock is the scenario's open-loop arrival and admission plan —
// the DSL form of the tfserve flags (serve.Config). Period and requests
// are required; zero-valued knobs take the serve defaults (queue 16,
// inflight 8, burst 1, backoff = period).
type ArrivalsBlock struct {
	// Burst requests arrive every Period steps until Requests have been
	// issued; Seed drives mix sampling and retry jitter.
	Period   int64
	Burst    int
	Requests int
	Seed     int64
	// Queue bounds the admission queue, Inflight the concurrently running
	// requests; ShedHeapPct > 0 sheds arrivals at that heap occupancy.
	Queue       int
	Inflight    int
	ShedHeapPct int
	// Retries/Backoff/BackoffCap are the shed client's retry policy.
	Retries    int
	Backoff    int64
	BackoffCap int64
	// Deadline > 0 cancels admitted requests running longer than this.
	Deadline int64
	// BudgetSteps/BudgetAlloc are the per-task budgets (pipeline.Options).
	BudgetSteps int64
	BudgetAlloc int64
}

// MixItem weights one service class of the arrival mix. Pos points at the
// entry name so Compile can reject entries the workload lacks with a
// positioned diagnostic.
type MixItem struct {
	Entry  string
	Weight int
	Pos    token.Pos
}

// FaultBlock is the scenario's fault-injection plan — the DSL form of the
// tfgc/tfbench robustness flags.
type FaultBlock struct {
	// Torture collects before every allocation; VerifyHeap re-checks heap
	// invariants after every collection.
	Torture    bool
	VerifyHeap bool
	// FailAlloc fails the Nth allocation once; FailEvery fails every Kth.
	FailAlloc int64
	FailEvery int64
	// FailRefills restricts the injections to TLAB refill carves.
	FailRefills bool
	// HeapGrow > 1 enables the recovery ladder's growth rung, bounded by
	// HeapMax semispace words (0 = unbounded).
	HeapGrow float64
	HeapMax  int
}

// Discipline is a heap discipline axis value.
type Discipline int

// The two heap disciplines a scenario can cross with.
const (
	Copying Discipline = iota
	MarkSweep
)

// String returns the discipline's display name (the spelling BenchRun and
// the telemetry tables use).
func (d Discipline) String() string {
	if d == MarkSweep {
		return "mark/sweep"
	}
	return "copying"
}

// Key returns the discipline's DSL spelling.
func (d Discipline) Key() string {
	if d == MarkSweep {
		return "marksweep"
	}
	return "copying"
}

// The validation ranges, shared by the parser and the documentation. They
// mirror what the runtime tolerates: a heap below minHeapWords cannot hold
// the init globals of the smallest corpus program, and the upper bounds
// keep a typo'd size from allocating gigawords.
const (
	minHeapWords = 128
	maxHeapWords = 1 << 26
	minNursery   = 16
	maxNursery   = 1 << 22
	minTLAB      = 8
	maxTLAB      = 1 << 16
	maxShards    = 64
	maxRepeats   = 100
	maxPromote   = 64
	maxHeapGrow  = 16.0

	// The arrivals{} ranges. Steps are virtual time, so the upper bounds
	// only guard against typo'd magnitudes; budgets get the widest range
	// (a quota of billions of steps is a legitimate "effectively off").
	maxPeriod    = 1 << 30
	maxBurst     = 1 << 10
	maxRequests  = 1 << 20
	maxQueue     = 1 << 16
	maxInflight  = 1 << 10
	maxRetries   = 64
	maxMixWeight = 1 << 20
)

// maxBudget bounds the per-task budget and deadline values (compared as
// int64 so the constant stays portable).
const maxBudget = int64(1) << 40

// strategyNames maps DSL spellings to strategies, in presentation order.
var strategyNames = []struct {
	name  string
	strat gc.Strategy
}{
	{"compiled", gc.StratCompiled},
	{"interp", gc.StratInterp},
	{"appel", gc.StratAppel},
	{"tagged", gc.StratTagged},
}

// strategyByName resolves a DSL strategy spelling.
func strategyByName(name string) (gc.Strategy, bool) {
	for _, s := range strategyNames {
		if s.name == name {
			return s.strat, true
		}
	}
	return 0, false
}

// strategyList renders the accepted strategy spellings for diagnostics.
func strategyList() string {
	return "compiled, interp, appel, tagged"
}

// PosError is a scenario diagnostic with a source position; every error
// the lexer, parser and compiler produce for a given .tfs input is one
// (or wraps one), so tooling can always point at the offending line:col.
type PosError struct {
	Pos token.Pos
	Err error
}

// Error renders the diagnostic as "line:col: message".
func (e *PosError) Error() string { return fmt.Sprintf("%s: %s", e.Pos, e.Err) }

// Unwrap exposes the underlying error.
func (e *PosError) Unwrap() error { return e.Err }

// posErrorf builds a positioned diagnostic.
func posErrorf(pos token.Pos, format string, args ...any) *PosError {
	return &PosError{Pos: pos, Err: fmt.Errorf(format, args...)}
}
