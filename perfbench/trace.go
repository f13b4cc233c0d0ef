package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"time"
)

// span is one timed call into a layer, recorded by the benchmark around
// the call (the layers themselves carry no tracing). Spans of one op share
// its op id; parent is the enclosing span's index, -1 for a root.
type span struct {
	name       string
	op, parent int
	start, end time.Duration // since the tracer's base
	// hiddenNS is child time the layer reports without a span of its own:
	// the collector's pauses inside a mutator run, from PauseNS records.
	hiddenNS int64
}

// tracer keeps spans in memory until the run ends.
type tracer struct {
	base  time.Time
	spans []span
}

func newTracer() *tracer { return &tracer{base: time.Now()} }

func (t *tracer) begin(name string, op, parent int) int {
	t.spans = append(t.spans, span{name: name, op: op, parent: parent, start: time.Since(t.base)})
	return len(t.spans) - 1
}

func (t *tracer) end(id int) { t.spans[id].end = time.Since(t.base) }

// layerTime is a layer's aggregate over a set of spans.
type layerTime struct {
	calls           int
	totalNS, selfNS int64
}

// layers aggregates spans by name. A span's self time is its duration
// minus what its child spans and hidden children cover.
func (t *tracer) layers() map[string]*layerTime {
	childNS := make([]int64, len(t.spans))
	for _, s := range t.spans {
		if s.parent >= 0 {
			childNS[s.parent] += int64(s.end - s.start)
		}
	}
	out := map[string]*layerTime{}
	for i, s := range t.spans {
		l := out[s.name]
		if l == nil {
			l = &layerTime{}
			out[s.name] = l
		}
		d := int64(s.end - s.start)
		l.calls++
		l.totalNS += d
		l.selfNS += d - childNS[i] - s.hiddenNS
	}
	return out
}

// writeChrome writes the spans as Chrome trace-event JSON (complete "X"
// events, microsecond timestamps), which Perfetto and chrome://tracing
// open directly.
func (t *tracer) writeChrome(path string) error {
	type event struct {
		Name string         `json:"name"`
		Cat  string         `json:"cat"`
		Ph   string         `json:"ph"`
		TS   float64        `json:"ts"`
		Dur  float64        `json:"dur"`
		PID  int            `json:"pid"`
		TID  int            `json:"tid"`
		Args map[string]any `json:"args"`
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	fmt.Fprint(w, `{"displayTimeUnit":"ns","traceEvents":[`)
	for i, s := range t.spans {
		if i > 0 {
			fmt.Fprint(w, ",")
		}
		args := map[string]any{"op": s.op, "id": i, "parent": s.parent}
		if s.hiddenNS > 0 {
			args["gc_pause_ns"] = s.hiddenNS
		}
		if err := enc.Encode(event{Name: s.name, Cat: "perfbench", Ph: "X",
			TS: float64(s.start.Nanoseconds()) / 1e3, Dur: float64((s.end - s.start).Nanoseconds()) / 1e3,
			PID: 1, TID: 1, Args: args}); err != nil {
			f.Close()
			return err
		}
	}
	fmt.Fprint(w, "]}\n")
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
