package main

import (
	"runtime"
	"time"

	"repro/internal/fabric"
	"repro/internal/metrics"
)

// opResult is one operation: one simulated run, built by NewNetwork
// and executed by Network.Run.
type opResult struct {
	setup, run time.Duration
	allocBytes uint64 // heap bytes allocated during Run
	allocs     uint64 // heap objects allocated during Run
	rep        metrics.Report
	fp         string // fingerprintOf the run
	nw         *fabric.Network
}

// runOp builds cfg into a network, runs it and checks the output. With
// a tracer, the chaincode, workload and variant are decorated, and
// set-up, run and report are recorded as spans.
func runOp(cfg fabric.Config, t *tracer) (res opResult, err error) {
	if t != nil {
		cfg = t.wrap(cfg)
	}
	// Start every operation from a collected heap, so garbage left by
	// the previous one is not charged to this one.
	runtime.GC()

	var nw *fabric.Network
	begin := time.Now()
	if t != nil {
		t.timed("fabric.setup", func() { nw, err = fabric.NewNetwork(cfg) })
	} else {
		nw, err = fabric.NewNetwork(cfg)
	}
	res.setup = time.Since(begin)
	if err != nil {
		return res, err
	}

	// Collect set-up's garbage here, not during Run.
	runtime.GC()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	begin = time.Now()
	if t != nil {
		t.timed("fabric.run", func() { res.rep = nw.Run() })
	} else {
		res.rep = nw.Run()
	}
	res.run = time.Since(begin)
	runtime.ReadMemStats(&after)
	if t != nil {
		// Report is pure, so computing it again times the metrics
		// layer without changing the run.
		t.timed("metrics.report", func() { nw.Collector().Report() })
	}
	res.allocBytes = after.TotalAlloc - before.TotalAlloc
	res.allocs = after.Mallocs - before.Mallocs

	if err := checkRun(nw, res.rep); err != nil {
		return res, err
	}
	res.fp = fingerprintOf(nw, res.rep)
	res.nw = nw
	return res, nil
}
