package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"time"
)

// Layers a span can belong to. Spans are recorded by the benchmark around
// its own calls into each layer's public API: bench is the load generator's
// own work per operation, core the forms runtime (Window, Manager), engine
// statement execution on a Session, txn transaction control and
// checkpoints, client pool and fleet checkout, and wire a round trip
// through the client to an in-process server (server dispatch and the
// engine behind it, which the benchmark cannot split from outside).
const (
	layerBench = iota
	layerCore
	layerEngine
	layerTxn
	layerClient
	layerWire
	numLayers
)

var layerNames = [numLayers]string{"bench", "core", "engine", "txn", "client", "wire"}

// maxSpans bounds the spans one tracer keeps for the dump; self time is
// accumulated for every span regardless.
const maxSpans = 1 << 17

// span is one recorded call: its name, layer, operation id, parent (index
// into the phase's spans, -1 for a root) and monotonic start and end
// in nanoseconds since the tracer was created.
type span struct {
	Name   string `json:"name"`
	Layer  string `json:"layer"`
	Op     uint64 `json:"op"`
	Parent int32  `json:"parent"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

type frame struct {
	idx   int32
	layer int
	name  string
	op    uint64
	start int64
	child int64
}

// tracer records the spans of one worker goroutine. Every method is a no-op
// on a nil tracer, which is what untraced runs use.
type tracer struct {
	epoch time.Time
	spans []span
	stack []frame
	self  [numLayers]int64
}

// newTracer returns a tracer whose span times count from epoch, which every
// worker of a phase shares.
func newTracer(epoch time.Time) *tracer {
	return &tracer{epoch: epoch, spans: make([]span, 0, 1024)}
}

// begin opens a span; op 0 inherits the enclosing span's operation id.
func (t *tracer) begin(layer int, name string, op uint64) {
	if t == nil {
		return
	}
	parent := int32(-1)
	if n := len(t.stack); n > 0 {
		parent = t.stack[n-1].idx
		if op == 0 {
			op = t.stack[n-1].op
		}
	}
	now := int64(time.Since(t.epoch))
	idx := int32(-1)
	if len(t.spans) < maxSpans {
		idx = int32(len(t.spans))
		t.spans = append(t.spans, span{Name: name, Layer: layerNames[layer], Op: op, Parent: parent, Start: now})
	}
	t.stack = append(t.stack, frame{idx: idx, layer: layer, name: name, op: op, start: now})
}

// end closes the innermost open span, charging its duration minus its
// children's to its layer's self time.
func (t *tracer) end() {
	if t == nil {
		return
	}
	now := int64(time.Since(t.epoch))
	n := len(t.stack) - 1
	f := t.stack[n]
	t.stack = t.stack[:n]
	dur := now - f.start
	t.self[f.layer] += dur - f.child
	if n > 0 {
		t.stack[n-1].child += dur
	}
	if f.idx >= 0 {
		t.spans[f.idx].End = now
	}
}

// reportTrace prints the traced run's self-time table, sets the self-time
// and overhead metrics, and writes the kept spans as JSON lines.
func reportTrace(out io.Writer, cfg config, plain, traced *phaseResult, m metrics) {
	ops := float64(traced.ops)
	var total int64
	for _, ns := range traced.self {
		total += ns
	}
	fmt.Fprintf(out, "self time per operation (traced phase: %d ops, %d goroutines, %.1f s)\n",
		traced.ops, traced.tracers, traced.elapsed.Seconds())
	fmt.Fprintf(out, "  %-8s %12s %8s\n", "layer", "self_us/op", "share")
	for l, ns := range traced.self {
		us := ratio(float64(ns)/1e3, ops)
		m.set("self."+layerNames[l]+"_us", "us", us)
		fmt.Fprintf(out, "  %-8s %12.2f %7.1f%%\n", layerNames[l], us, 100*ratio(float64(ns), float64(total)))
	}
	plainRate, tracedRate := plain.rate(), traced.rate()
	overhead := 100 * (ratio(plainRate, tracedRate) - 1)
	m.set("trace.overhead_pct", "%", overhead)
	fmt.Fprintf(out, "tracing overhead: untraced %.0f ops/s, traced %.0f ops/s (%+.1f%%)\n", plainRate, tracedRate, overhead)

	path := filepath.Join(cfg.out, "perfbench-traces", fmt.Sprintf("%s-seed%d.jsonl", cfg.workload, cfg.seed))
	if err := writeSpans(path, traced.spans); err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: writing spans: %v\n", err)
		return
	}
	fmt.Fprintf(out, "spans: %d written to %s\n", len(traced.spans), path)
}

func writeSpans(path string, spans []span) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for i := range spans {
		if err := enc.Encode(&spans[i]); err != nil {
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
