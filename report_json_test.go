package bip_test

import (
	"encoding/json"
	"reflect"
	"strings"
	"testing"

	"bip"
	"bip/models"
)

// TestReportJSONRoundTrip pins the wire shape bipd serves and caches:
// a fully-populated Report (every field non-zero) survives
// marshal→unmarshal bit-identically, and the JSON uses the stable
// snake_case keys external tooling depends on.
func TestReportJSONRoundTrip(t *testing.T) {
	rep := bip.Report{
		Properties: []bip.Property{
			{
				Name:       "deadlock",
				Violated:   true,
				State:      42,
				Path:       []string{"go", "stop", "go"},
				Conclusive: true,
			},
			{Name: "always#2", Conclusive: false},
		},
		States:              625,
		Transitions:         2000,
		Truncated:           true,
		Reduced:             true,
		AmpleStates:         100,
		PrunedMoves:         50,
		ProvisoFallbacks:    3,
		SeenBytes:           1 << 20,
		PeakFrontierBytes:   1 << 16,
		SpilledChunks:       2,
		ReductionDegradedBy: "invariant",
		OK:                  false,
	}
	data, err := json.Marshal(&rep)
	if err != nil {
		t.Fatal(err)
	}
	var back bip.Report
	if err := json.Unmarshal(data, &back); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(rep, back) {
		t.Fatalf("round trip changed the report:\n got %+v\nwant %+v", back, rep)
	}
	for _, key := range []string{
		`"properties"`, `"name"`, `"violated"`, `"state"`, `"path"`,
		`"conclusive"`, `"states"`, `"transitions"`, `"truncated"`,
		`"reduced"`, `"ample_states"`, `"pruned_moves"`,
		`"proviso_fallbacks"`, `"seen_bytes"`, `"peak_frontier_bytes"`,
		`"spilled_chunks"`,
		`"reduction_degraded_by"`, `"ok"`,
	} {
		if !strings.Contains(string(data), key) {
			t.Fatalf("wire key %s missing from %s", key, data)
		}
	}
}

// TestReductionDegradedBySurfaced pins that a Reduce() run forced back
// to full expansion by an opaque property names the culprit in the
// report instead of degrading silently — and that a reduction-friendly
// run leaves the field empty. Both fields are settled before the first
// state is explored, so the runs are bounded: the philosophers' meal
// counters make the space unbounded, and exploring it to the default
// bound only costs time (minutes under -race).
func TestReductionDegradedBySurfaced(t *testing.T) {
	sys, err := models.Philosophers(4)
	if err != nil {
		t.Fatal(err)
	}
	rep, err := bip.Verify(sys, bip.Reduce(), bip.MaxStates(20000),
		bip.Invariant(func(bip.State) bool { return true }))
	if err != nil {
		t.Fatal(err)
	}
	if rep.Reduced {
		t.Fatal("opaque invariant must degrade reduction to full expansion")
	}
	if rep.ReductionDegradedBy != "invariant" {
		t.Fatalf("ReductionDegradedBy = %q, want %q", rep.ReductionDegradedBy, "invariant")
	}
	rep, err = bip.Verify(sys, bip.Reduce(), bip.MaxStates(20000), bip.Deadlock())
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Reduced || rep.ReductionDegradedBy != "" {
		t.Fatalf("deadlock check should reduce cleanly: reduced=%v degradedBy=%q",
			rep.Reduced, rep.ReductionDegradedBy)
	}
}

// TestStatsJSONRoundTrip does the same for the progress snapshot shape
// streamed over SSE.
func TestStatsJSONRoundTrip(t *testing.T) {
	st := bip.Stats{
		States:              1000,
		Transitions:         4000,
		PeakFrontier:        128,
		PeakFrontierBytes:   4096,
		SeenBytes:           1 << 18,
		SpilledChunks:       1,
		Truncated:           true,
		Stopped:             true,
		AmpleStates:         12,
		PrunedMoves:         34,
		ProvisoFallbacks:    1,
		ReductionDegradedBy: "always",
	}
	data, err := json.Marshal(&st)
	if err != nil {
		t.Fatal(err)
	}
	var back bip.Stats
	if err := json.Unmarshal(data, &back); err != nil {
		t.Fatal(err)
	}
	if back != st {
		t.Fatalf("round trip changed the stats:\n got %+v\nwant %+v", back, st)
	}
}
