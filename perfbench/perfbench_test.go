package main

import (
	"testing"

	"tagfree/internal/pipeline"
	"tagfree/internal/workloads"
)

func TestReferencesMatchCorpus(t *testing.T) {
	if err := selfCheck(); err != nil {
		t.Fatal(err)
	}
}

// TestTemplatesAtCorpusParameters runs each template's MinML at the corpus
// parameters: it must compute what the corpus program does.
func TestTemplatesAtCorpusParameters(t *testing.T) {
	for _, tm := range templates {
		w, _ := workloads.ByName(tm.name)
		src := expand(tm.src(tm.corpus), "c0") + "let main () = c0_run ()\n"
		res, err := pipeline.Run(src, pipeline.Options{})
		if err != nil {
			t.Fatalf("%s: %v", tm.name, err)
		}
		if res.Value != w.Expect {
			t.Errorf("%s: %d, corpus expects %d", tm.name, res.Value, w.Expect)
		}
	}
}

func TestGenerationIsDeterministic(t *testing.T) {
	for _, w := range benchWorkloads {
		a, b, c := generate(w, 7), generate(w, 7), generate(w, 8)
		for i := range a {
			if a[i].src != b[i].src {
				t.Fatalf("%s program %d: same seed, different source", w.name, i)
			}
		}
		if a[0].src == c[0].src {
			t.Errorf("%s: seeds 7 and 8 generated the same first program", w.name)
		}
	}
}

// TestGeneratedProgramsMatchReferences runs the first programs of every
// workload through both executors: values must match the Go references
// and the traced executor must reproduce the untraced counters.
func TestGeneratedProgramsMatchReferences(t *testing.T) {
	for _, w := range benchWorkloads {
		pool := generate(w, 3)
		for i := range pool[:2] {
			o := pool[i].run()
			if o.err != nil {
				t.Fatalf("%s program %d: %v", w.name, i, o.err)
			}
			tr := newTracer()
			ot := pool[i].runTraced(tr, 0)
			if ot.err != nil {
				t.Fatalf("%s program %d traced: %v", w.name, i, ot.err)
			}
			if o.c != ot.c {
				t.Errorf("%s program %d: counters differ between executors:\n%+v\n%+v", w.name, i, o.c, ot.c)
			}
		}
	}
}
