package main

import (
	"bytes"
	"encoding/json"
	"os"
	"sort"
	"strings"
	"testing"
	"time"

	"repro/internal/fabric"
)

// shortConfig is the named workload over a 2 s send window and a 3 s
// drain, so that tests stay fast.
func shortConfig(t *testing.T, name string, seed int64) fabric.Config {
	t.Helper()
	cfg, err := buildConfig(name, seed)
	if err != nil {
		t.Fatal(err)
	}
	cfg.Duration = 2 * time.Second
	cfg.Drain = 3 * time.Second
	return cfg
}

func TestTracedRunHasTheUntracedFingerprint(t *testing.T) {
	for _, name := range workloadNames() {
		t.Run(name, func(t *testing.T) {
			plain, err := runOp(shortConfig(t, name, 5), nil)
			if err != nil {
				t.Fatal(err)
			}
			tr := newTracer()
			traced, err := runOp(shortConfig(t, name, 5), tr)
			if err != nil {
				t.Fatal(err)
			}
			if got, want := traced.fp, plain.fp; got != want {
				t.Errorf("traced run's fingerprint\n  %s\nuntraced run's\n  %s", got, want)
			}
			spans := tr.byName()
			for _, name := range []string{"fabric.setup", "fabric.run", "metrics.report", "chaincode.init",
				"chaincode.invoke", "workload.next", "variant.on_submit", "variant.on_cut"} {
				if spans[name].count == 0 {
					t.Errorf("no %s span", name)
				}
			}
		})
	}
}

func TestReplayRecomputesEveryBlockHash(t *testing.T) {
	for _, name := range workloadNames() {
		t.Run(name, func(t *testing.T) {
			tr := newTracer()
			res, err := runOp(shortConfig(t, name, 5), tr)
			if err != nil {
				t.Fatal(err)
			}
			if err := replay(tr, shortConfig(t, name, 5), res.nw); err != nil {
				t.Fatal(err)
			}
			blocks := 0
			for _, chain := range res.nw.Chains() {
				blocks += int(chain.Height()) - 1
			}
			spans := tr.byName()
			if n := spans["ledger.block_hash"].count; n != blocks || n == 0 {
				t.Errorf("replay hashed %d blocks, the chains hold %d", n, blocks)
			}
			for _, name := range []string{"ledger.digest", "ledger.verify", "fabcrypto.sign", "fabcrypto.verify",
				"policy.required_endorsers", "statedb.apply", "statedb.get", "statedb.range", "statedb.clone",
				"conflictgraph.build", "conflictgraph.break"} {
				if spans[name].count == 0 {
					t.Errorf("no %s span", name)
				}
			}
		})
	}
}

func TestReplayRejectsATamperedTip(t *testing.T) {
	res, err := runOp(shortConfig(t, "ehr-point", 5), nil)
	if err != nil {
		t.Fatal(err)
	}
	chain := res.nw.Chains()[0]
	tip := chain.Block(chain.Height() - 1)
	tip.Transactions[0].ID += "-tampered"
	err = replay(newTracer(), shortConfig(t, "ehr-point", 5), res.nw)
	if err == nil || !strings.Contains(err.Error(), "hash") {
		t.Fatalf("replay of a tampered tip: got error %v, want a hash mismatch", err)
	}
}

func TestSelfTimeSubtractsChildSpans(t *testing.T) {
	tr := &tracer{spans: []span{
		{name: "run", start: 0, end: 100, parent: -1},
		{name: "invoke", start: 10, end: 30, parent: 0},
		{name: "cut", start: 40, end: 50, parent: 0},
		{name: "invoke", start: 42, end: 45, parent: 2},
	}}
	l := tr.byName()
	for name, want := range map[string]layerTime{
		"run":    {count: 1, total: 100, self: 70},
		"cut":    {count: 1, total: 10, self: 7},
		"invoke": {count: 2, total: 23, self: 23},
	} {
		if l[name] != want {
			t.Errorf("%s: got %+v, want %+v", name, l[name], want)
		}
	}
}

func TestSpansNestUnderTheOpenSpan(t *testing.T) {
	tr := newTracer()
	outer := tr.begin("outer")
	inner := tr.begin("inner")
	tr.end(inner)
	tr.end(outer)
	next := tr.begin("next")
	tr.end(next)
	if p := tr.spans[inner].parent; p != outer {
		t.Errorf("inner span's parent is %d, want %d", p, outer)
	}
	if p := tr.spans[next].parent; p != -1 {
		t.Errorf("span opened after the root closed has parent %d, want none", p)
	}
}

func TestBenchmarkJSONListsTheProgramsWorkloadsAndMetrics(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	type metric struct{ Name, Unit string }
	var b struct {
		Workloads []struct{ Name string } `json:"workloads"`
		EndToEnd  []metric                `json:"end_to_end"`
		PerLayer  []metric                `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &b); err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, w := range b.Workloads {
		names = append(names, w.Name)
	}
	sort.Strings(names)
	if got, want := strings.Join(names, " "), strings.Join(workloadNames(), " "); got != want {
		t.Errorf("BENCHMARK.json workloads %q, program has %q", got, want)
	}
	for _, c := range []struct {
		key  string
		json []metric
		defs []metricDef
	}{{"end_to_end", b.EndToEnd, endToEnd}, {"per_layer", b.PerLayer, perLayer}} {
		if len(c.json) != len(c.defs) {
			t.Errorf("%s: BENCHMARK.json lists %d metrics, program reports %d", c.key, len(c.json), len(c.defs))
			continue
		}
		for i, d := range c.defs {
			if c.json[i] != (metric{d.name, d.unit}) {
				t.Errorf("%s[%d]: BENCHMARK.json has %+v, program reports %s in %s", c.key, i, c.json[i], d.name, d.unit)
			}
		}
	}
}

func TestRunPrintsEveryMetricAsTheLastLine(t *testing.T) {
	for _, c := range []struct {
		trace string
		defs  []metricDef
	}{{"0", endToEnd}, {"1", perLayer}} {
		var out, errs bytes.Buffer
		code := run([]string{"--workload", "ehr-point", "--seed", "3", "--seconds", "0", "--trace", c.trace}, &out, &errs)
		if code != 0 {
			t.Fatalf("--trace %s: exit code %d, stderr:\n%s", c.trace, code, errs.String())
		}
		lines := strings.Split(strings.TrimSpace(out.String()), "\n")
		var res result
		if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
			t.Fatalf("--trace %s: last line is not the result: %v", c.trace, err)
		}
		if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
			t.Errorf("--trace %s: result %+v", c.trace, res)
		}
		if len(res.Metrics) != len(c.defs) {
			t.Errorf("--trace %s: %d metrics, want %d", c.trace, len(res.Metrics), len(c.defs))
		}
		for _, d := range c.defs {
			if m, ok := res.Metrics[d.name]; !ok || m.Unit != d.unit {
				t.Errorf("--trace %s: metric %s: got %+v", c.trace, d.name, m)
			}
		}
		if c.trace == "0" {
			for _, d := range c.defs {
				if res.Metrics[d.name].Value <= 0 {
					t.Errorf("end-to-end metric %s is %v, want > 0", d.name, res.Metrics[d.name].Value)
				}
			}
		}
	}
}

func TestRunRejectsAnUnknownWorkload(t *testing.T) {
	var out, errs bytes.Buffer
	if code := run([]string{"--workload", "nope", "--seconds", "0"}, &out, &errs); code == 0 {
		t.Fatal("unknown workload: exit code 0")
	}
	if out.Len() != 0 {
		t.Errorf("unknown workload printed %q", out.String())
	}
}
