package gc

import "tagfree/internal/code"

// Root resolution is the pure half of a collection: frame chains, gc_word
// lookups, type-argument resolution (including Appel mode's O(n²) chain
// re-walks) and descriptor decoding read only the program, the stopped
// stacks and un-moved heap words. The benchmark probe and experiment E10
// time it apart from tracing, and the concurrent marker, the heap verifier
// and RootSignature reuse it to enumerate roots without tracing them.

// rootJob is one resolved root: a stack slot, the routine tracing it, and
// the specialized kernel chosen for it at plan-build time (kGeneric when
// the fast path is off or the shape needs full dispatch).
type rootJob struct {
	idx   int // absolute index into the task's stack
	g     TypeGC
	k     kernel
	spine *spineKernel
	box   *boxKernel
}

// planJob converts a resolved plan slot into a root job. Pruning kernels
// are not carried over: every consumer of resolved roots walks them in
// full.
func planJob(base int, ps *planSlot) rootJob {
	return rootJob{idx: base + ps.slot, g: ps.g, k: ps.k, spine: ps.spine, box: ps.box}
}

// ResolveRoots resolves every task's complete root set — frame chains,
// gc_word lookups, type-argument resolution, plan construction — without
// mutating the heap, the stacks or the collector's counters. It is the
// pure metadata half of a collection, exported so the benchmark harness
// (experiment E10) can time resolution separately from tracing. It
// returns the number of roots resolved. Tagged collections have no
// resolution phase (the scan is header-driven) and return 0.
func (c *Collector) ResolveRoots(tasks []TaskRoots) int {
	if c.Strat == StratTagged {
		return 0
	}
	// E10 calls this in a tight loop outside any collection; reset the
	// arena each time so repeated resolution does not accumulate.
	c.sc.reset()
	var st Stats
	total := 0
	for i := range tasks {
		total += len(c.taskJobs(tasks[i], &st))
	}
	return total
}

// taskJobs resolves one task's complete root set without mutating the
// heap: the job list mirrors collectTask's trace order slot for slot. The
// returned slice lives in the collector's arena, valid until its next reset
// (the top of the next collection).
func (c *Collector) taskJobs(t TaskRoots, st *Stats) []rootJob {
	fps, pcs := frameChain(t)
	fast := c.Strat == StratCompiled && !c.DisableFastPath
	jobs := c.sc.jobsWindow()
	var incoming pkg
	var ic planIC
	var prev *framePlan
	for i, fp := range fps {
		siteIdx, site := c.siteAtFast(pcs[i], st)
		fi := c.Prog.Funcs[site.Func]
		if fast {
			// Compiled fast path: the memoized plan already carries the
			// resolved slot routines, kernels, the deduplicated argument
			// map and the outgoing package, and the caller plan's edge
			// cache resolves warmed towers in O(1) per frame (fastpath.go).
			plan := c.planForEdge(prev, &ic, siteIdx, site, fi, incoming, t.Stack, fp, st)
			base := fp + 2
			for k := range plan.slots {
				jobs = append(jobs, planJob(base, &plan.slots[k]))
			}
			if t.AtCall && i == len(fps)-1 {
				for k := range plan.args {
					jobs = append(jobs, planJob(base, &plan.args[k]))
				}
			}
			incoming, prev = plan.out, plan
			continue
		}
		var targs []TypeGC
		if c.Strat == StratAppel {
			targs = c.appelTypeArgs(t, fps, pcs, i, st)
		} else {
			targs = c.frameTypeArgs(fi, incoming, t.Stack, fp)
		}
		jobs = c.frameJobs(jobs, siteIdx, site, fi, fp, targs, t.AtCall && i == len(fps)-1, st)
		if i < len(fps)-1 && c.Strat != StratAppel {
			incoming = c.outgoing(site, targs)
		}
	}
	st.FramesTraced += int64(len(fps))
	c.sc.commitJobs(jobs)
	return jobs
}

// frameJobs appends one frame's root jobs in traceFrame's slot order.
func (c *Collector) frameJobs(jobs []rootJob, siteIdx int, site *code.SiteInfo, fi *code.FuncInfo, fp int, targs []TypeGC, atCall bool, st *Stats) []rootJob {
	base := fp + 2
	start := len(jobs)
	switch c.Strat {
	case StratCompiled:
		for _, tr := range c.compiledSites[siteIdx] {
			g := tr.ground
			if g == nil {
				g = c.FromDesc(tr.desc, targs)
			}
			jobs = append(jobs, rootJob{idx: base + tr.slot, g: g})
		}
	case StratInterp:
		jobs = c.interpFrameJobs(jobs, c.interpSites[siteIdx], base, targs, st)
	case StratAppel:
		for _, e := range fi.AllSlots {
			jobs = append(jobs, rootJob{idx: base + e.Slot, g: c.FromDesc(e.Desc, targs)})
		}
	}
	if atCall {
		// Mirror traceFrame's dedupe: a slot covered by both the frame walk
		// and the site's argument map is traced once only.
		var seen slotSet
		for _, j := range jobs[start:] {
			seen.add(j.idx - base)
		}
		for _, e := range site.Args {
			if seen.has(e.Slot) {
				continue
			}
			jobs = append(jobs, rootJob{idx: base + e.Slot, g: c.FromDesc(e.Desc, targs)})
		}
	}
	return jobs
}
