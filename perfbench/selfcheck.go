package main

import (
	"fmt"

	"tagfree/internal/workloads"
)

// selfCheck holds every Go reference to the corpus: at the corpus
// parameters each template's reference must equal the Expect recorded in
// internal/workloads for the program it was derived from.
func selfCheck() error {
	for _, t := range templates {
		w, ok := workloads.ByName(t.name)
		if !ok {
			return fmt.Errorf("template %s has no corpus workload", t.name)
		}
		if got := t.ref(t.corpus); got != w.Expect {
			return fmt.Errorf("template %s: reference %d at corpus parameters, corpus expects %d", t.name, got, w.Expect)
		}
	}
	// The task references against the task corpus: each entry's
	// accumulator seed, as written in the corpus source.
	btree := tmplBtree.ref([]int{7, 30})
	for _, c := range []struct {
		name  string
		accs  []int64
		value func(acc int64) int64
	}{
		{"taskchurn", []int64{0, 1000, 2000, 3000}, func(acc int64) int64 { return holdRef(0, 25, 40, acc) }},
		{"taskspine", []int64{0, 1000, 2000}, func(acc int64) int64 { return holdRef(40, 30, 60, acc) }},
		{"taskmutate", []int64{0, 5000, 9000}, func(acc int64) int64 { return cycleRef(10, cellLen, 30, acc) }},
		{"tasktree", []int64{0, 0, 0}, func(int64) int64 { return btree }},
	} {
		w, ok := workloads.TaskByName(c.name)
		if !ok || len(w.Expect) != len(c.accs) {
			return fmt.Errorf("task corpus %s changed shape", c.name)
		}
		for i, acc := range c.accs {
			if got := c.value(acc); got != w.Expect[i] {
				return fmt.Errorf("%s entry %d: reference %d, corpus expects %d", c.name, i, got, w.Expect[i])
			}
		}
	}
	return nil
}
