package main

import (
	"bufio"
	"encoding/json"
	"math/rand"
	"os"
	"time"

	"repro/internal/chaincode"
	"repro/internal/fabric"
	"repro/internal/ledger"
	"repro/internal/workload"
)

// span is one timed call at a layer boundary. Times are nanoseconds
// since the tracer's epoch; parent indexes the enclosing span, or is -1
// for a root.
type span struct {
	name       string
	start, end int64
	parent     int32
}

// tracer keeps spans in memory. The simulation runs on one goroutine,
// so spans nest strictly and a stack gives each span its parent.
type tracer struct {
	epoch  time.Time
	spans  []span
	stack  []int32
	counts layerCounts
}

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

// begin opens a span under the innermost open span.
func (t *tracer) begin(name string) int32 {
	parent := int32(-1)
	if n := len(t.stack); n > 0 {
		parent = t.stack[n-1]
	}
	id := int32(len(t.spans))
	t.spans = append(t.spans, span{name: name, start: int64(time.Since(t.epoch)), parent: parent})
	t.stack = append(t.stack, id)
	return id
}

// end closes span id, which must be the innermost open span.
func (t *tracer) end(id int32) {
	t.spans[id].end = int64(time.Since(t.epoch))
	t.stack = t.stack[:len(t.stack)-1]
}

// layerTime sums the spans of one name.
type layerTime struct {
	count int
	total time.Duration // sum of span durations
	self  time.Duration // total minus the time child spans cover
}

// perCall is the mean duration of one span, in seconds.
func (l layerTime) perCall() float64 {
	if l.count == 0 {
		return 0
	}
	return l.total.Seconds() / float64(l.count)
}

// byName aggregates the spans by name.
func (t *tracer) byName() map[string]layerTime {
	children := make([]int64, len(t.spans))
	for _, s := range t.spans {
		if s.parent >= 0 {
			children[s.parent] += s.end - s.start
		}
	}
	out := map[string]layerTime{}
	for i, s := range t.spans {
		l := out[s.name]
		l.count++
		l.total += time.Duration(s.end - s.start)
		l.self += time.Duration(s.end - s.start - children[i])
		out[s.name] = l
	}
	return out
}

// write stores the spans as JSON lines, one object per span.
func (t *tracer) write(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range t.spans {
		rec := struct {
			Name    string `json:"name"`
			StartNS int64  `json:"start_ns"`
			EndNS   int64  `json:"end_ns"`
			Parent  int32  `json:"parent"`
		}{s.name, s.start, s.end, s.parent}
		if err := enc.Encode(rec); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// layerCounts are the work counts the decorators see at the boundary.
type layerCounts struct {
	invokes   int // chaincode Invoke calls
	gets      int // GetState calls made by those invocations
	rangeKeys int // keys returned by their range scans
	cutTxs    int // transactions handed to Variant.OnCut
	aborted   int // transactions OnCut aborted
}

// wrap returns cfg with pass-through decorators around its chaincode,
// workload generator and variant. internal/fabric calls these through
// plain interface methods, so the decorators change no behaviour.
// Config.Retry is type-asserted inside fabric and stays unwrapped.
func (t *tracer) wrap(cfg fabric.Config) fabric.Config {
	cfg.Chaincode = &tracedChaincode{inner: cfg.Chaincode, t: t}
	cfg.Workload = &tracedWorkload{inner: cfg.Workload, t: t}
	inner := cfg.Variant
	if inner == nil {
		inner = fabric.Vanilla{} // what NewNetwork substitutes for nil
	}
	cfg.Variant = &tracedVariant{inner: inner, t: t}
	return cfg
}

type tracedChaincode struct {
	inner chaincode.Chaincode
	t     *tracer
}

func (c *tracedChaincode) Name() string { return c.inner.Name() }

func (c *tracedChaincode) Init(stub *chaincode.Stub) error {
	id := c.t.begin("chaincode.init")
	err := c.inner.Init(stub)
	c.t.end(id)
	return err
}

func (c *tracedChaincode) Invoke(stub *chaincode.Stub, fn string, args []string) error {
	id := c.t.begin("chaincode.invoke")
	err := c.inner.Invoke(stub, fn, args)
	c.t.end(id)
	tr := stub.Trace()
	c.t.counts.invokes++
	c.t.counts.gets += tr.Gets
	c.t.counts.rangeKeys += tr.RangeKeys
	return err
}

type tracedWorkload struct {
	inner workload.Generator
	t     *tracer
}

func (w *tracedWorkload) Next(rng *rand.Rand) workload.Invocation {
	id := w.t.begin("workload.next")
	inv := w.inner.Next(rng)
	w.t.end(id)
	return inv
}

// tracedVariant times the variant hooks that do work. Name, Adjust,
// SkipMVCC and EndorseSnapshotLag are constant-answer queries and pass
// through untimed.
type tracedVariant struct {
	inner fabric.Variant
	t     *tracer
}

func (v *tracedVariant) Name() string              { return v.inner.Name() }
func (v *tracedVariant) Adjust(cfg *fabric.Config) { v.inner.Adjust(cfg) }
func (v *tracedVariant) SkipMVCC() bool            { return v.inner.SkipMVCC() }
func (v *tracedVariant) EndorseSnapshotLag() bool  { return v.inner.EndorseSnapshotLag() }

func (v *tracedVariant) OnSubmit(tx *ledger.Transaction) (bool, time.Duration) {
	id := v.t.begin("variant.on_submit")
	ok, cost := v.inner.OnSubmit(tx)
	v.t.end(id)
	return ok, cost
}

func (v *tracedVariant) OnCut(batch []*ledger.Transaction) ([]*ledger.Transaction, []*ledger.Transaction, time.Duration) {
	id := v.t.begin("variant.on_cut")
	kept, aborted, cost := v.inner.OnCut(batch)
	v.t.end(id)
	v.t.counts.cutTxs += len(batch)
	v.t.counts.aborted += len(aborted)
	return kept, aborted, cost
}

func (v *tracedVariant) OnBlockValidated(b *ledger.Block, codes []ledger.ValidationCode) {
	id := v.t.begin("variant.on_block_validated")
	v.inner.OnBlockValidated(b, codes)
	v.t.end(id)
}

// timed runs fn inside a span.
func (t *tracer) timed(name string, fn func()) {
	id := t.begin(name)
	fn()
	t.end(id)
}
