// Command benchjson converts `go test -bench` text output into a JSON
// array, so CI can archive benchmark baselines as machine-readable
// artifacts and diffs against BENCH_baseline.json stay scriptable.
//
// Usage:
//
//	go test -run '^$' -bench . -benchtime=1x -benchmem ./... | go run ./cmd/benchjson > bench.json
//
// Each benchmark result line becomes one object:
//
//	{"name": "BenchmarkFig7_MVCCvsBlockSize", "procs": 8,
//	 "iterations": 1, "ns_op": 123456789,
//	 "bytes_op": 1048576, "allocs_op": 4242}
//
// bytes_op and allocs_op are present only when the run used -benchmem.
// Non-benchmark lines (experiment tables, PASS/ok trailers) are
// ignored, so the tool can consume the full test output unfiltered.
//
// Compare mode turns the tool into a CI bench-delta gate:
//
//	go test -run '^$' -bench . -benchtime=1x ./... | go run ./cmd/benchjson -compare BENCH_baseline.json -threshold 25
//
// prints a per-benchmark ns/op delta table against the baseline and
// exits 1 when any benchmark regressed by more than the threshold
// percentage. Benchmarks present on only one side are listed but never
// fail the gate (new benchmarks have no baseline; retired ones have no
// current run).
//
// Benchmarks are matched by name, so a name that appears twice, on
// stdin or in the baseline, is an error that lists the repeated names.
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"regexp"
	"sort"
	"strconv"
	"strings"
)

// Result is one parsed benchmark line.
type Result struct {
	Name       string  `json:"name"`
	Procs      int     `json:"procs"`
	Iterations int64   `json:"iterations"`
	NsOp       float64 `json:"ns_op"`
	BytesOp    *int64  `json:"bytes_op,omitempty"`
	AllocsOp   *int64  `json:"allocs_op,omitempty"`
}

// benchLine matches "BenchmarkName-8   10   123 ns/op   456 B/op   7 allocs/op"
// (the -procs suffix and the memory columns are optional).
var benchLine = regexp.MustCompile(`^(Benchmark\S*?)(?:-(\d+))?\s+(\d+)\s+([0-9.]+) ns/op(.*)$`)

// parse extracts every benchmark result from the reader.
func parse(sc *bufio.Scanner) ([]Result, error) {
	var out []Result
	for sc.Scan() {
		m := benchLine.FindStringSubmatch(strings.TrimSpace(sc.Text()))
		if m == nil {
			continue
		}
		r := Result{Name: m[1], Procs: 1}
		if m[2] != "" {
			p, err := strconv.Atoi(m[2])
			if err != nil {
				return nil, fmt.Errorf("procs in %q: %w", sc.Text(), err)
			}
			r.Procs = p
		}
		iters, err := strconv.ParseInt(m[3], 10, 64)
		if err != nil {
			return nil, fmt.Errorf("iterations in %q: %w", sc.Text(), err)
		}
		r.Iterations = iters
		ns, err := strconv.ParseFloat(m[4], 64)
		if err != nil {
			return nil, fmt.Errorf("ns/op in %q: %w", sc.Text(), err)
		}
		r.NsOp = ns
		rest := strings.Fields(m[5])
		for i := 0; i+1 < len(rest); i += 2 {
			v, err := strconv.ParseInt(rest[i], 10, 64)
			if err != nil {
				continue
			}
			switch rest[i+1] {
			case "B/op":
				r.BytesOp = &v
			case "allocs/op":
				r.AllocsOp = &v
			}
		}
		out = append(out, r)
	}
	return out, sc.Err()
}

// checkUnique returns an error naming every benchmark that appears more
// than once in rs.
func checkUnique(rs []Result) error {
	count := map[string]int{}
	var dups []string
	for _, r := range rs {
		count[r.Name]++
		if count[r.Name] == 2 {
			dups = append(dups, r.Name)
		}
	}
	if len(dups) > 0 {
		sort.Strings(dups)
		return fmt.Errorf("duplicate benchmark names: %s", strings.Join(dups, ", "))
	}
	return nil
}

// delta is one compared benchmark: the ns/op change from baseline to
// current, in percent (positive = slower).
type delta struct {
	name             string
	baseNs, curNs    float64
	pct              float64
	baseOnly, curNew bool
}

// compare matches current results against the baseline by name and
// computes per-benchmark ns/op deltas. Unmatched entries on either
// side are carried through flagged baseOnly/curNew.
func compare(current, baseline []Result) []delta {
	base := map[string]Result{}
	for _, r := range baseline {
		base[r.Name] = r
	}
	seen := map[string]bool{}
	var out []delta
	for _, r := range current {
		seen[r.Name] = true
		b, ok := base[r.Name]
		if !ok {
			out = append(out, delta{name: r.Name, curNs: r.NsOp, curNew: true})
			continue
		}
		d := delta{name: r.Name, baseNs: b.NsOp, curNs: r.NsOp}
		if b.NsOp > 0 {
			d.pct = 100 * (r.NsOp - b.NsOp) / b.NsOp
		}
		out = append(out, d)
	}
	for _, b := range baseline {
		if !seen[b.Name] {
			out = append(out, delta{name: b.Name, baseNs: b.NsOp, baseOnly: true})
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].name < out[j].name })
	return out
}

// report renders the delta table and returns the benchmarks that
// regressed beyond threshold percent.
func report(deltas []delta, threshold float64) (string, []string) {
	var sb strings.Builder
	var regressed []string
	fmt.Fprintf(&sb, "%-60s %14s %14s %9s\n", "benchmark", "baseline ns/op", "current ns/op", "delta")
	for _, d := range deltas {
		switch {
		case d.curNew:
			fmt.Fprintf(&sb, "%-60s %14s %14.0f %9s\n", d.name, "-", d.curNs, "new")
		case d.baseOnly:
			fmt.Fprintf(&sb, "%-60s %14.0f %14s %9s\n", d.name, d.baseNs, "-", "gone")
		default:
			mark := ""
			if d.pct > threshold {
				mark = "  << REGRESSION"
				regressed = append(regressed, fmt.Sprintf("%s (+%.1f%%)", d.name, d.pct))
			}
			fmt.Fprintf(&sb, "%-60s %14.0f %14.0f %+8.1f%%%s\n", d.name, d.baseNs, d.curNs, d.pct, mark)
		}
	}
	return sb.String(), regressed
}

func main() {
	baselinePath := flag.String("compare", "", "baseline JSON (a previous benchjson run); compare instead of emitting JSON")
	threshold := flag.Float64("threshold", 25, "compare mode: fail on ns/op regressions above this percentage")
	flag.Parse()

	sc := bufio.NewScanner(os.Stdin)
	sc.Buffer(make([]byte, 0, 1<<20), 1<<20)
	results, err := parse(sc)
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchjson:", err)
		os.Exit(1)
	}
	if len(results) == 0 {
		fmt.Fprintln(os.Stderr, "benchjson: no benchmark lines on stdin")
		os.Exit(1)
	}
	if err := checkUnique(results); err != nil {
		fmt.Fprintln(os.Stderr, "benchjson: stdin:", err)
		os.Exit(1)
	}

	if *baselinePath != "" {
		raw, err := os.ReadFile(*baselinePath)
		if err != nil {
			fmt.Fprintln(os.Stderr, "benchjson:", err)
			os.Exit(1)
		}
		var baseline []Result
		if err := json.Unmarshal(raw, &baseline); err != nil {
			fmt.Fprintf(os.Stderr, "benchjson: baseline %s: %v\n", *baselinePath, err)
			os.Exit(1)
		}
		if err := checkUnique(baseline); err != nil {
			fmt.Fprintf(os.Stderr, "benchjson: baseline %s: %v\n", *baselinePath, err)
			os.Exit(1)
		}
		table, regressed := report(compare(results, baseline), *threshold)
		fmt.Print(table)
		if len(regressed) > 0 {
			fmt.Fprintf(os.Stderr, "benchjson: %d benchmark(s) regressed more than %.0f%% ns/op:\n",
				len(regressed), *threshold)
			for _, r := range regressed {
				fmt.Fprintln(os.Stderr, "  "+r)
			}
			os.Exit(1)
		}
		return
	}

	enc := json.NewEncoder(os.Stdout)
	enc.SetIndent("", "  ")
	if err := enc.Encode(results); err != nil {
		fmt.Fprintln(os.Stderr, "benchjson:", err)
		os.Exit(1)
	}
}
