package main

import (
	"encoding/json"
	"strings"
	"testing"

	"tagfree/internal/serve"
)

// The tfserve CLI smoke suite drives cli() directly, the way the tfgc
// tests drive theirs: the closed-loop default, an open-loop overload run,
// the JSON snapshot form, and flag validation.

func TestCLIClosedLoop(t *testing.T) {
	var out strings.Builder
	if err := cli(nil, &out); err != nil {
		t.Fatal(err)
	}
	got := out.String()
	for _, want := range []string{"serve: workload=taskserve", "closed-loop",
		"issued=4 completed=4", "latency(steps):"} {
		if !strings.Contains(got, want) {
			t.Errorf("output missing %q:\n%s", want, got)
		}
	}
}

func TestCLIOpenLoopJSON(t *testing.T) {
	var out strings.Builder
	args := []string{"-period", "3000", "-requests", "40", "-seed", "7",
		"-queue", "4", "-inflight", "2", "-retries", "2",
		"-mix", "req_tiny:3,req_small:1", "-json"}
	if err := cli(args, &out); err != nil {
		t.Fatal(err)
	}
	var snap serve.Snapshot
	if err := json.Unmarshal([]byte(out.String()), &snap); err != nil {
		t.Fatalf("snapshot does not parse: %v", err)
	}
	if snap.Schema != serve.SnapshotSchema || len(snap.Runs) != 1 {
		t.Fatalf("snapshot shape: schema=%q runs=%d", snap.Schema, len(snap.Runs))
	}
	r := snap.Runs[0]
	s := r.Stats
	if s.Requests != 40 || s.Completed+s.Dropped+s.Canceled+s.Faulted != s.Requests {
		t.Fatalf("ledger does not balance: %+v", s)
	}
	if r.Kind != "serve" || r.Period != 3000 {
		t.Fatalf("report misdescribes the run: %+v", r)
	}
}

func TestCLIScenario(t *testing.T) {
	var out strings.Builder
	if err := cli([]string{"-scenario", "../../testdata/scenarios/overload-torture.tfs"}, &out); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), "overload-torture") ||
		!strings.Contains(out.String(), "serve: done=") {
		t.Errorf("scenario table missing serve row:\n%s", out.String())
	}
}

func TestCLIBadFlags(t *testing.T) {
	for _, args := range [][]string{
		{"-workload", "nosuch"},
		{"-gc", "wizard"},
		{"-mix", "req_tiny"},   // missing weight
		{"-mix", "req_tiny:0"}, // non-positive weight
		{"-period", "10"},      // open loop without -requests
		{"-mix", "nope:1", "-period", "10", "-requests", "1"}, // unknown entry
		{"stray-arg"},
	} {
		var out strings.Builder
		if err := cli(args, &out); err == nil {
			t.Errorf("args %v not rejected", args)
		}
	}
}
