// Command perfbench is the repository's benchmark. Each operation is
// one seeded simulated run of a workload (see workloads.go and
// README.md). With --trace 0 it measures host cost end to end; with
// --trace 1 it decorates the layers, replays the committed blocks
// through them, and reports per-layer numbers. Every run's output is
// checked, and the last line of standard output is one JSON result.
//
// Usage, from the repository root:
//
//	bash perfbench/run.sh --workload ehr-point --seed 1 --seconds 25 --trace 0
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"
	"time"
)

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

// metricDef names a reported metric and its unit.
type metricDef struct{ name, unit string }

// endToEnd are the --trace 0 metrics, all measured with tracing off.
var endToEnd = []metricDef{
	{"run_s", "s"},
	{"tx_per_s", "1/s"},
	{"setup_s", "s"},
	{"alloc_bytes_per_tx", "B"},
	{"allocs_per_tx", "count"},
	{"peak_mem_mb", "MiB"},
}

// perLayer are the --trace 1 metrics.
var perLayer = []metricDef{
	{"chaincode.invoke_us", "us"},
	{"chaincode.invoke_share", "ratio"},
	{"chaincode.gets_per_invoke", "count"},
	{"chaincode.range_keys_per_invoke", "count"},
	{"chaincode.invokes_per_tx", "count"},
	{"chaincode.init_s", "s"},
	{"workload.next_us", "us"},
	{"variant.on_submit_us", "us"},
	{"variant.on_cut_us", "us"},
	{"variant.aborted_pct", "%"},
	{"conflictgraph.build_us_per_block", "us"},
	{"conflictgraph.break_us_per_block", "us"},
	{"fabric.self_share", "ratio"},
	{"fabric.tx_per_block", "count"},
	{"fabric.valid_pct", "%"},
	{"fabric.retry_amp", "ratio"},
	{"sim.events_per_tx", "count"},
	{"sim.events_per_s", "1/s"},
	{"metrics.report_ms", "ms"},
	{"ledger.digest_us", "us"},
	{"ledger.block_hash_us", "us"},
	{"ledger.verify_ms", "ms"},
	{"fabcrypto.sign_us", "us"},
	{"fabcrypto.verify_us", "us"},
	{"policy.required_endorsers_us", "us"},
	{"statedb.apply_us_per_block", "us"},
	{"statedb.get_us", "us"},
	{"statedb.range_us", "us"},
	{"statedb.clone_ms", "ms"},
	{"tracing.overhead_s", "s"},
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the JSON object printed as the last line of output.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload to run: "+strings.Join(workloadNames(), ", "))
	seed := fs.Int64("seed", 1, "seed of the simulated runs")
	seconds := fs.Float64("seconds", 10, "how long to measure, in seconds")
	trace := fs.Int("trace", 0, "0: end-to-end metrics, tracing off; 1: per-layer metrics from traced runs")
	root := fs.String("root", ".", "repository root, hashed into the result stamp")
	spansDir := fs.String("spans-dir", "", "directory the traced run's spans are written to (empty: not written)")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if _, err := buildConfig(*name, *seed); err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 2
	}
	if *trace != 0 && *trace != 1 {
		fmt.Fprintln(stderr, "perfbench: --trace must be 0 or 1")
		return 2
	}
	s := newBench(*name, *seed, stderr)

	fmt.Fprintf(stdout, "# perfbench workload=%s trace=%d %s\n", *name, *trace, stamp(*root, *seed))
	deadline := time.Now().Add(time.Duration(*seconds * float64(time.Second)))
	var metrics map[string]float64
	var defs []metricDef
	if *trace == 0 {
		metrics, defs = s.endToEnd(deadline), endToEnd
	} else {
		metrics, defs = s.layers(deadline), perLayer
		if s.spans != nil && *spansDir != "" {
			path := filepath.Join(*spansDir, *name+".spans.jsonl")
			if err := s.spans.write(path); err != nil {
				fmt.Fprintln(stderr, "perfbench: writing spans:", err)
			} else {
				fmt.Fprintf(stdout, "# spans of the first traced run: %s\n", path)
			}
		}
	}

	speed := s.speed()
	atReferenceSpeed(metrics, defs, speed)

	res := result{
		Correct:   s.failed == 0 && s.measured > 0,
		Attempted: s.attempted,
		Failed:    s.failed,
		Metrics:   map[string]metricValue{},
	}
	for _, fp := range s.fingerprints() {
		fmt.Fprintln(stdout, "# fingerprint", fp)
	}
	fmt.Fprintf(stdout, "# operations attempted=%d failed=%d measured=%d\n", s.attempted, s.failed, s.measured)
	fmt.Fprintf(stdout, "# reference task: median %.4f ms over %d runs, nominal %v: times scaled by %.4f\n",
		median(s.refs)*1e3, len(s.refs), refNominal, speed)
	if res.Correct {
		for _, d := range defs {
			v := metrics[d.name]
			res.Metrics[d.name] = metricValue{Value: v, Unit: d.unit}
			fmt.Fprintf(stdout, "%-34s %14.6g %s\n", d.name, v, d.unit)
		}
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	fmt.Fprintln(stdout, string(line))
	if !res.Correct {
		return 1
	}
	return 0
}
