package main

import (
	"bufio"
	"encoding/json"
	"strings"
	"testing"
)

func TestParse(t *testing.T) {
	in := `goos: linux
BenchmarkFig7_MVCCvsBlockSize-8   	       1	123456789 ns/op	 1048576 B/op	    4242 allocs/op
some experiment table row   12  34
BenchmarkSingleRun_EHR   	       2	  5000000 ns/op
BenchmarkExpAllParallelism/parallel=numcpu-8         	       1	  777 ns/op	 10 B/op	 3 allocs/op
PASS
ok  	repro	12.3s
`
	got, err := parse(bufio.NewScanner(strings.NewReader(in)))
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 3 {
		t.Fatalf("parsed %d results, want 3: %+v", len(got), got)
	}
	r := got[0]
	if r.Name != "BenchmarkFig7_MVCCvsBlockSize" || r.Procs != 8 ||
		r.Iterations != 1 || r.NsOp != 123456789 {
		t.Errorf("first result mismatch: %+v", r)
	}
	if r.BytesOp == nil || *r.BytesOp != 1048576 || r.AllocsOp == nil || *r.AllocsOp != 4242 {
		t.Errorf("memory columns mismatch: %+v", r)
	}
	if got[1].BytesOp != nil || got[1].AllocsOp != nil {
		t.Errorf("no-benchmem line grew memory columns: %+v", got[1])
	}
	if got[1].Procs != 1 {
		t.Errorf("missing -procs suffix should default to 1: %+v", got[1])
	}
	if got[2].Name != "BenchmarkExpAllParallelism/parallel=numcpu" {
		t.Errorf("sub-benchmark name mismatch: %q", got[2].Name)
	}
}

func TestCompareFlagsRegressions(t *testing.T) {
	baseline := []Result{
		{Name: "BenchmarkStable", NsOp: 1000},
		{Name: "BenchmarkRegressed", NsOp: 1000},
		{Name: "BenchmarkImproved", NsOp: 1000},
		{Name: "BenchmarkRetired", NsOp: 500},
	}
	current := []Result{
		{Name: "BenchmarkStable", NsOp: 1100},    // +10%: inside threshold
		{Name: "BenchmarkRegressed", NsOp: 1400}, // +40%: flagged
		{Name: "BenchmarkImproved", NsOp: 600},   // -40%: never flagged
		{Name: "BenchmarkAdded", NsOp: 42},       // no baseline: never flagged
	}
	deltas := compare(current, baseline)
	if len(deltas) != 5 {
		t.Fatalf("compared %d benchmarks, want 5: %+v", len(deltas), deltas)
	}
	table, regressed := report(deltas, 25)
	if len(regressed) != 1 || !strings.Contains(regressed[0], "BenchmarkRegressed") {
		t.Fatalf("regressed = %v, want exactly BenchmarkRegressed", regressed)
	}
	if !strings.Contains(regressed[0], "+40.0%") {
		t.Errorf("regression %q should carry the delta percentage", regressed[0])
	}
	for _, want := range []string{"REGRESSION", "new", "gone", "BenchmarkRetired"} {
		if !strings.Contains(table, want) {
			t.Errorf("delta table missing %q:\n%s", want, table)
		}
	}
	if strings.Count(table, "REGRESSION") != 1 {
		t.Errorf("table flags %d regressions, want 1:\n%s", strings.Count(table, "REGRESSION"), table)
	}
}

func TestCompareAtThresholdPasses(t *testing.T) {
	deltas := compare(
		[]Result{{Name: "BenchmarkEdge", NsOp: 1250}},
		[]Result{{Name: "BenchmarkEdge", NsOp: 1000}},
	)
	if _, regressed := report(deltas, 25); len(regressed) != 0 {
		t.Errorf("exactly +25%% must not fail a 25%% threshold: %v", regressed)
	}
}

func TestParseRejectsNothing(t *testing.T) {
	got, err := parse(bufio.NewScanner(strings.NewReader("no benchmarks here\n")))
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 0 {
		t.Fatalf("parsed %d results from noise", len(got))
	}
}

func TestCheckUniqueNamesDuplicates(t *testing.T) {
	in := `BenchmarkA-2   1   10 ns/op
BenchmarkB-2   1   20 ns/op
BenchmarkA-2   1   30 ns/op
BenchmarkC/sub-2   1   40 ns/op
BenchmarkC/sub-2   1   50 ns/op
BenchmarkA-2   1   60 ns/op
`
	got, err := parse(bufio.NewScanner(strings.NewReader(in)))
	if err != nil {
		t.Fatal(err)
	}
	err = checkUnique(got)
	if err == nil {
		t.Fatal("duplicate names accepted")
	}
	if msg := err.Error(); !strings.Contains(msg, "BenchmarkA, BenchmarkC/sub") || strings.Contains(msg, "BenchmarkB") {
		t.Errorf("error %q should name exactly BenchmarkA and BenchmarkC/sub", msg)
	}
	var baseline []Result
	if err := json.Unmarshal([]byte(`[{"name":"BenchmarkX","ns_op":1},{"name":"BenchmarkX","ns_op":2}]`), &baseline); err != nil {
		t.Fatal(err)
	}
	if err := checkUnique(baseline); err == nil || !strings.Contains(err.Error(), "BenchmarkX") {
		t.Errorf("baseline duplicates: err = %v, want one naming BenchmarkX", err)
	}
	if err := checkUnique(got[:2]); err != nil {
		t.Errorf("unique names rejected: %v", err)
	}
}
