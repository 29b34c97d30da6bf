package main

import (
	"fmt"
	"io"
	"runtime"
	"runtime/debug"
	"sort"
	"time"
)

const (
	// subSeeds is how many seeded inputs one benchmark run cycles
	// through. Costs differ from seed to seed by up to 10%; averaging
	// over several inputs keeps that out of the run-to-run spread.
	subSeeds = 8
	// subSeedStride separates the derived seeds of neighbouring
	// --seed values.
	subSeedStride = 1_000_003
	// minTracedOps is the fewest traced operations a --trace 1 run
	// measures, however short its window.
	minTracedOps = 2
)

// subSeed is the j'th input seed of a run started with --seed seed.
// The first is seed itself.
func subSeed(seed int64, j int) int64 { return seed + int64(j)*subSeedStride }

// bench runs the operations of one benchmark invocation and keeps
// their tally.
type bench struct {
	name   string
	seed   int64
	stderr io.Writer

	attempted int
	failed    int
	measured  int // operations whose numbers were kept

	fps   map[int64]string // fingerprint of each input seed's first run
	refs  []float64        // every reference-task time, in seconds
	spans *tracer          // spans of the first traced operation
}

func newBench(name string, seed int64, stderr io.Writer) *bench {
	return &bench{name: name, seed: seed, stderr: stderr, fps: map[int64]string{}}
}

// measuredOp is a checked operation, with its tracer when it was
// traced.
type measuredOp struct {
	opResult
	peakMiB float64 // peak resident set during the operation
	t       *tracer
}

// op runs one operation on input seed seed, after a run of the
// reference task, and tallies it. With traced set, the layers are
// decorated and the committed blocks are replayed. The operation
// fails when it errors, panics, fails an output check, or its
// fingerprint differs from the first run of the same seed.
func (s *bench) op(seed int64, traced bool) (measuredOp, bool) {
	s.reference()
	cfg, _ := buildConfig(s.name, seed)
	var out measuredOp
	if traced {
		out.t = newTracer()
	}
	var res opResult
	err := guarded(func() error {
		if err := resetPeakRSS(); err != nil {
			return err
		}
		var err error
		if res, err = runOp(cfg, out.t); err != nil {
			return err
		}
		if out.peakMiB, err = peakRSS(); err != nil {
			return err
		}
		if traced {
			fresh, _ := buildConfig(s.name, seed)
			return replay(out.t, fresh, res.nw)
		}
		return nil
	})
	s.attempted++
	if err == nil {
		err = s.sameFingerprint(seed, res.fp)
	}
	if err != nil {
		s.failed++
		fmt.Fprintf(s.stderr, "perfbench: %s seed %d: run %d failed: %v\n", s.name, seed, s.attempted, err)
		return out, false
	}
	out.opResult = res
	return out, true
}

// reference runs the reference task on a collected heap with the
// collector off, so that what the operations leave behind does not
// change its time, and records the time.
func (s *bench) reference() {
	runtime.GC()
	gcPercent := debug.SetGCPercent(-1)
	d := referenceTask()
	debug.SetGCPercent(gcPercent)
	s.refs = append(s.refs, d.Seconds())
}

// speed is refNominal over the median reference time of this run: how
// much faster than the reference host this host ran.
func (s *bench) speed() float64 {
	if len(s.refs) == 0 {
		return 1
	}
	return refNominal.Seconds() / median(s.refs)
}

// atReferenceSpeed rescales the time metrics of a run to the reference
// host's speed: times by speed, rates by its inverse.
func atReferenceSpeed(metrics map[string]float64, defs []metricDef, speed float64) {
	for _, d := range defs {
		switch d.unit {
		case "s", "ms", "us":
			metrics[d.name] *= speed
		case "1/s":
			metrics[d.name] /= speed
		}
	}
}

// sameFingerprint records the first fingerprint of each input seed and
// checks later ones against it.
func (s *bench) sameFingerprint(seed int64, fp string) error {
	first, ok := s.fps[seed]
	if !ok {
		s.fps[seed] = fp
		return nil
	}
	if fp != first {
		return fmt.Errorf("fingerprint %q differs from the first run's %q", fp, first)
	}
	return nil
}

// fingerprints lists each input seed's fingerprint in seed order.
func (s *bench) fingerprints() []string {
	seeds := make([]int64, 0, len(s.fps))
	for sd := range s.fps {
		seeds = append(seeds, sd)
	}
	sort.Slice(seeds, func(i, j int) bool { return seeds[i] < seeds[j] })
	out := make([]string, len(seeds))
	for i, sd := range seeds {
		out[i] = fmt.Sprintf("workload=%s seed=%d %s", s.name, sd, s.fps[sd])
	}
	return out
}

// guarded calls fn, returning a panic as an error.
func guarded(fn func() error) (err error) {
	defer func() {
		if r := recover(); r != nil {
			err = fmt.Errorf("panic: %v", r)
		}
	}()
	return fn()
}

// endToEnd measures untraced operations, cycling through the input
// seeds, until the deadline and at least one whole cycle, after one
// warm-up operation whose numbers are dropped. Each metric is the
// median over an input seed's operations, averaged over the input
// seeds.
func (s *bench) endToEnd(deadline time.Time) map[string]float64 {
	s.op(s.seed, false) // warm-up: heap growth and lazy initialisation
	samples := make([]map[string][]float64, subSeeds)
	for j := range samples {
		samples[j] = map[string][]float64{}
	}
	for i := 0; i < subSeeds || time.Now().Before(deadline); i++ {
		j := i % subSeeds
		o, ok := s.op(subSeed(s.seed, j), false)
		if !ok {
			break
		}
		s.measured++
		total, run := float64(o.rep.Total), o.run.Seconds()
		m := samples[j]
		m["run_s"] = append(m["run_s"], run)
		m["tx_per_s"] = append(m["tx_per_s"], total/run)
		m["setup_s"] = append(m["setup_s"], o.setup.Seconds())
		m["alloc_bytes_per_tx"] = append(m["alloc_bytes_per_tx"], float64(o.allocBytes)/total)
		m["allocs_per_tx"] = append(m["allocs_per_tx"], float64(o.allocs)/total)
		m["peak_mem_mb"] = append(m["peak_mem_mb"], o.peakMiB)
	}
	out := map[string]float64{}
	for _, d := range endToEnd {
		var perSeed []float64
		for _, m := range samples {
			if v, ok := m[d.name]; ok {
				perSeed = append(perSeed, median(v))
			}
		}
		out[d.name] = mean(perSeed)
	}
	return out
}

// layers runs pairs of an untraced and a traced operation on the same
// input seed, cycling through the input seeds until the deadline. Each
// per-layer metric is the median over the traced operations; the
// tracing overhead is the median difference within a pair.
func (s *bench) layers(deadline time.Time) map[string]float64 {
	s.op(s.seed, false) // warm-up
	samples := map[string][]float64{}
	for j := 0; j < minTracedOps || time.Now().Before(deadline); j++ {
		seed := subSeed(s.seed, j%subSeeds)
		plain, ok := s.op(seed, false)
		if !ok {
			break
		}
		o, ok := s.op(seed, true)
		if !ok {
			break
		}
		s.measured++
		if s.spans == nil {
			s.spans = o.t
		}
		for k, v := range layerSample(o) {
			samples[k] = append(samples[k], v)
		}
		samples["tracing.overhead_s"] = append(samples["tracing.overhead_s"], (o.run - plain.run).Seconds())
		samples["sim.events_per_s"] = append(samples["sim.events_per_s"],
			float64(plain.nw.Engine().Processed())/plain.run.Seconds())
	}
	out := map[string]float64{}
	for k, v := range samples {
		out[k] = median(v)
	}
	return out
}

// layerSample derives the per-layer numbers of one traced operation
// from its spans and boundary counts.
func layerSample(o measuredOp) map[string]float64 {
	l := o.t.byName()
	run := l["fabric.run"]
	us := func(name string) float64 { return l[name].perCall() * 1e6 }
	ms := func(d time.Duration) float64 { return d.Seconds() * 1e3 }
	ratio := func(a, b float64) float64 {
		if b == 0 {
			return 0
		}
		return a / b
	}
	blocks := 0
	for _, chain := range o.nw.Chains() {
		blocks += int(chain.Height()) - 1 // genesis block excluded
	}
	c, total := &o.t.counts, float64(o.rep.Total)
	return map[string]float64{
		"chaincode.invoke_us":              us("chaincode.invoke"),
		"chaincode.invoke_share":           ratio(float64(l["chaincode.invoke"].total), float64(run.total)),
		"chaincode.gets_per_invoke":        ratio(float64(c.gets), float64(c.invokes)),
		"chaincode.range_keys_per_invoke":  ratio(float64(c.rangeKeys), float64(c.invokes)),
		"chaincode.invokes_per_tx":         ratio(float64(c.invokes), total),
		"chaincode.init_s":                 l["chaincode.init"].total.Seconds(),
		"workload.next_us":                 us("workload.next"),
		"variant.on_submit_us":             us("variant.on_submit"),
		"variant.on_cut_us":                us("variant.on_cut"),
		"variant.aborted_pct":              100 * ratio(float64(c.aborted), float64(c.cutTxs)),
		"conflictgraph.build_us_per_block": us("conflictgraph.build"),
		"conflictgraph.break_us_per_block": us("conflictgraph.break"),
		"fabric.self_share":                ratio(float64(run.self), float64(run.total)),
		"fabric.tx_per_block":              ratio(float64(o.rep.Committed), float64(blocks)),
		"fabric.valid_pct":                 100 * ratio(float64(o.rep.Valid), total),
		"fabric.retry_amp":                 o.rep.RetryAmplification,
		"sim.events_per_tx":                ratio(float64(o.nw.Engine().Processed()), total),
		"metrics.report_ms":                ms(l["metrics.report"].total),
		"ledger.digest_us":                 us("ledger.digest"),
		"ledger.block_hash_us":             us("ledger.block_hash"),
		"ledger.verify_ms":                 ms(l["ledger.verify"].total),
		"fabcrypto.sign_us":                us("fabcrypto.sign"),
		"fabcrypto.verify_us":              us("fabcrypto.verify"),
		"policy.required_endorsers_us":     us("policy.required_endorsers"),
		"statedb.apply_us_per_block":       us("statedb.apply"),
		"statedb.get_us":                   us("statedb.get"),
		"statedb.range_us":                 us("statedb.range"),
		"statedb.clone_ms":                 l["statedb.clone"].perCall() * 1e3,
	}
}

// median of xs; 0 for none.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// mean of xs; 0 for none.
func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sum := 0.0
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}
