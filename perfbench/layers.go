package main

import (
	"fmt"
	"sort"
)

// perLayer computes the per-layer metrics of a traced run: span times per
// op, deterministic counters per program, the capture-point probe, the
// self-time shares and the tracing overhead (untraced against traced
// ops/s over the same pool).
func perLayer(m map[string]metric, b *bench, tr *tracer, untraced, traced *phase) {
	nOps := float64(len(traced.ops))
	lay := tr.layers()
	spanNS := func(name string, self bool) float64 {
		l := lay[name]
		if l == nil {
			return 0
		}
		if self {
			return float64(l.selfNS)
		}
		return float64(l.totalNS)
	}
	perOp := func(name string, self bool) float64 { return spanNS(name, self) / nOps }
	m["mlang.parse_ns"] = metric{perOp("mlang.parse", false), "ns"}
	m["mlang.check_ns"] = metric{perOp("mlang.check", false), "ns"}
	m["lower.ns"] = metric{perOp("lower", false), "ns"}
	m["gcanal.ns"] = metric{perOp("gcanal", false), "ns"}
	m["codegen.ns"] = metric{perOp("codegen", false), "ns"}
	m["load.ns"] = metric{perOp("load", false), "ns"}
	// The mutator is the interpreter that runs the program: vm for
	// single-task programs, the tasking scheduler for task programs. Its
	// self time is its run span minus the collector's pauses.
	mutator := spanNS("vm.run", true) + spanNS("tasking.run", true)
	m["mutator.self_ns"] = metric{mutator / nOps, "ns"}

	// Counters: mean per distinct program, so they repeat exactly.
	progs := traced.distinct()
	var sum counters
	var latencies []int64
	for _, o := range progs {
		c := o.c
		sum.Instructions += c.Instructions
		sum.Calls += c.Calls
		sum.RgcChecks += c.RgcChecks
		sum.Allocations += c.Allocations
		sum.WordsAllocated += c.WordsAllocated
		sum.WordsCopied += c.WordsCopied
		sum.Collections += c.Collections
		sum.FramesTraced += c.FramesTraced
		sum.SlotsTraced += c.SlotsTraced
		sum.ObjectsCopied += c.ObjectsCopied
		sum.PlanHits += c.PlanHits
		sum.PlanMisses += c.PlanMisses
		sum.KernelWords += c.KernelWords
		sum.TypeGCBuilt += c.TypeGCBuilt
		sum.CodeWords += c.CodeWords
		sum.Sites += c.Sites
		sum.ElidedSites += c.ElidedSites
		latencies = append(latencies, c.SuspendLatencyP50)
	}
	n := float64(len(progs))
	count := func(v int64) metric { return metric{float64(v) / n, "count"} }
	m["codegen.code_words"] = metric{float64(sum.CodeWords) / n, "words"}
	m["codegen.sites"] = count(sum.Sites)
	m["gcanal.elided_sites"] = count(sum.ElidedSites)
	m["mutator.instructions"] = count(sum.Instructions)
	m["vm.calls"] = count(sum.Calls)
	m["tasking.rgc_checks"] = count(sum.RgcChecks)
	m["tasking.suspend_latency_instr_p50"] = metric{float64(median(latencies)), "instr"}

	// Time per instruction over every traced op (not only first runs).
	var allInstr int64
	var pauseNS int64
	for _, o := range traced.ops {
		allInstr += o.c.Instructions
		for _, p := range o.pauses {
			pauseNS += p
		}
	}
	m["mutator.ns_per_instr"] = metric{mutator / float64(max(allInstr, 1)), "ns"}

	m["heap.allocations"] = count(sum.Allocations)
	m["heap.words_allocated"] = metric{float64(sum.WordsAllocated) / n, "words"}
	m["heap.words_copied"] = metric{float64(sum.WordsCopied) / n, "words"}
	m["gc.collections"] = count(sum.Collections)
	m["gc.pause_ns_sum"] = metric{float64(pauseNS) / nOps, "ns"}
	m["gc.frames_traced"] = count(sum.FramesTraced)
	m["gc.slots_traced"] = count(sum.SlotsTraced)
	m["gc.objects_copied"] = count(sum.ObjectsCopied)
	m["gc.plan_hits"] = count(sum.PlanHits)
	m["gc.plan_misses"] = count(sum.PlanMisses)
	ratio := 0.0
	if sum.PlanHits+sum.PlanMisses > 0 {
		ratio = float64(sum.PlanHits) / float64(sum.PlanHits+sum.PlanMisses)
	}
	m["gc.plan_hit_ratio"] = metric{ratio, "ratio"}
	m["gc.kernel_words"] = metric{float64(sum.KernelWords) / n, "words"}
	m["gc.typegc_built"] = count(sum.TypeGCBuilt)

	var probes []probeResult
	for i := 0; i < probeProgs && i < len(b.pool); i++ {
		p, ok, err := b.pool[i].probe(tr, -1-i)
		if err != nil {
			b.defect("probe of program %d: %v", i, err)
		}
		if ok {
			probes = append(probes, p)
		}
	}
	var pr probeResult
	for _, p := range probes {
		pr.resolveNS += p.resolveNS
		pr.collectNS += p.collectNS
		pr.roots += p.roots
		pr.liveWords += p.liveWords
	}
	pn := float64(max(len(probes), 1))
	m["gc.probe.resolve_ns"] = metric{float64(pr.resolveNS) / pn, "ns"}
	m["gc.probe.collect_ns"] = metric{float64(pr.collectNS) / pn, "ns"}
	m["gc.probe.roots"] = metric{float64(pr.roots) / pn, "count"}
	m["gc.probe.live_words"] = metric{float64(pr.liveWords) / pn, "words"}

	// Self-time shares of the traced ops' wall time. GC is the collector's
	// own PauseNS; the mutator is its run span minus those pauses.
	total := spanNS("op", false)
	compile := spanNS("compile", false)
	shares := []struct {
		name string
		ns   float64
	}{
		{"compile", compile},
		{"load", spanNS("load", false)},
		{"mutator", mutator},
		{"gc", float64(pauseNS)},
		{"other", spanNS("op", true)},
	}
	overhead := 100 * (untraced.opsPerCPUSec()/traced.opsPerCPUSec() - 1)
	m["trace.overhead_pct"] = metric{overhead, "%"}

	var names []string
	for name := range lay {
		names = append(names, name)
	}
	sort.Strings(names)
	fmt.Printf("layers (traced ops %d, untraced %.2f ops/cpu-s, traced %.2f ops/cpu-s, tracing overhead %.1f%%)\n",
		len(traced.ops), untraced.opsPerCPUSec(), traced.opsPerCPUSec(), overhead)
	for _, s := range shares {
		fmt.Printf("  share %-8s %5.1f%%\n", s.name, 100*s.ns/total)
	}
	for _, name := range names {
		l := lay[name]
		fmt.Printf("  span %-18s calls %6d  total %12.3f ms  self %12.3f ms\n", name, l.calls, float64(l.totalNS)/1e6, float64(l.selfNS)/1e6)
	}
}
