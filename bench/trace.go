package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"time"
)

// Spans are recorded from the benchmark's own files, around the calls into
// each layer's public surface; spans inside the program are ROADMAP item 1.
// They are kept in memory and written out when the run ends.

// rawSpan is a span as recorded: times in ns since the tracer's epoch,
// parent as an index into the same buffer (-1: the buffer's root parent).
type rawSpan struct {
	name       string
	start, end int64
	parent     int
	op         int
}

// traceBuf is one goroutine's span buffer; it is never shared.
type traceBuf struct {
	epoch      time.Time
	spans      []rawSpan
	rootParent int // global id the buffer's top-level spans hang under
	ops        int
}

func (b *traceBuf) rel(t time.Time) int64 { return t.Sub(b.epoch).Nanoseconds() }

// op records one operation: a root span with a facade.invoke child and,
// when the client had to wait for the response, a facade.wait child.
func (b *traceBuf) op(name string, t0, t1, t2 time.Time) {
	b.ops++
	root := len(b.spans)
	b.spans = append(b.spans,
		rawSpan{name: name, start: b.rel(t0), end: b.rel(t2), parent: -1, op: b.ops},
		rawSpan{name: "facade.invoke", start: b.rel(t0), end: b.rel(t1), parent: root, op: b.ops})
	if t2.After(t1) {
		b.spans = append(b.spans, rawSpan{name: "facade.wait", start: b.rel(t1), end: b.rel(t2), parent: root, op: b.ops})
	}
}

// tracer owns the run-level spans (recorded on the main goroutine) and the
// workers' buffers. A nil tracer records nothing.
type tracer struct {
	main    traceBuf
	stack   []int // open run-level spans, innermost last
	workers []*traceBuf
}

func newTracer() *tracer {
	return &tracer{main: traceBuf{epoch: time.Now()}}
}

// begin opens a run-level span; the returned func closes it.
func (t *tracer) begin(name string) func() {
	if t == nil {
		return func() {}
	}
	parent := -1
	if n := len(t.stack); n > 0 {
		parent = t.stack[n-1]
	}
	idx := len(t.main.spans)
	t.main.spans = append(t.main.spans, rawSpan{name: name, start: t.main.rel(time.Now()), parent: parent})
	t.stack = append(t.stack, idx)
	return func() {
		t.main.spans[idx].end = t.main.rel(time.Now())
		t.stack = t.stack[:len(t.stack)-1]
	}
}

// workerBuf hands out a buffer whose operations hang under the innermost
// open run-level span (the window).
func (t *tracer) workerBuf() *traceBuf {
	if t == nil {
		return &traceBuf{}
	}
	b := &traceBuf{epoch: t.main.epoch}
	if n := len(t.stack); n > 0 {
		b.rootParent = t.stack[n-1] + 1
	}
	t.workers = append(t.workers, b)
	return b
}

// span is the exported form: times in µs since the run started, ids
// global, parent 0 for a top-level span.
type span struct {
	Name   string  `json:"name"`
	Start  float64 `json:"start"`
	End    float64 `json:"end"`
	ID     int     `json:"id"`
	Parent int     `json:"parent"`
	Op     int     `json:"op"`
}

// merged flattens all buffers into spans with global ids.
func (t *tracer) merged() []span {
	var out []span
	add := func(b *traceBuf, opBase int) {
		base := len(out)
		for _, s := range b.spans {
			p := b.rootParent
			if s.parent >= 0 {
				p = base + s.parent + 1
			}
			op := 0
			if s.op > 0 {
				op = opBase + s.op
			}
			out = append(out, span{
				Name: s.name, Start: float64(s.start) / 1e3, End: float64(s.end) / 1e3,
				ID: len(out) + 1, Parent: p, Op: op,
			})
		}
	}
	add(&t.main, 0)
	ops := 0
	for _, b := range t.workers {
		add(b, ops)
		ops += b.ops
	}
	return out
}

// layerTime is one row of the self-time table.
type layerTime struct {
	Name    string
	Count   int
	TotalMS float64
	SelfMS  float64
}

// selfTimes computes, per span name, the total duration and the self time:
// a span's duration minus what its child spans cover.
func selfTimes(spans []span) []layerTime {
	child := make(map[int]float64, len(spans))
	for _, s := range spans {
		if s.Parent != 0 {
			child[s.Parent] += s.End - s.Start
		}
	}
	agg := map[string]*layerTime{}
	for _, s := range spans {
		a := agg[s.Name]
		if a == nil {
			a = &layerTime{Name: s.Name}
			agg[s.Name] = a
		}
		d := s.End - s.Start
		a.Count++
		a.TotalMS += d / 1e3
		a.SelfMS += (d - child[s.ID]) / 1e3
	}
	rows := make([]layerTime, 0, len(agg))
	for _, a := range agg {
		rows = append(rows, *a)
	}
	sort.Slice(rows, func(i, j int) bool { return rows[i].TotalMS > rows[j].TotalMS })
	return rows
}

// maxSpansWritten caps the trace file: the in-process workload records
// hundreds of thousands of operation spans, all of which enter the
// self-time table, but a file of that size helps nobody.
const maxSpansWritten = 30000

// write stores the trace as JSON and prints the self-time table.
func (t *tracer) write(outDir, workload string, w io.Writer) error {
	spans := t.merged()
	fmt.Fprintf(w, "\n%-22s %8s %12s %12s\n", "span", "count", "total_ms", "self_ms")
	for _, r := range selfTimes(spans) {
		fmt.Fprintf(w, "%-22s %8d %12.3f %12.3f\n", r.Name, r.Count, r.TotalMS, r.SelfMS)
	}
	total := len(spans)
	if total > maxSpansWritten {
		spans = spans[:maxSpansWritten]
	}
	if err := os.MkdirAll(outDir, 0o755); err != nil {
		return err
	}
	path := filepath.Join(outDir, workload+".trace.json")
	data, err := json.Marshal(struct {
		Workload string `json:"workload"`
		Unit     string `json:"unit"`
		Total    int    `json:"spans_recorded"`
		Spans    []span `json:"spans"`
	}{workload, "us", total, spans})
	if err != nil {
		return err
	}
	if err := os.WriteFile(path, data, 0o644); err != nil {
		return err
	}
	fmt.Fprintf(w, "trace: %d spans recorded, %d written to %s\n", total, len(spans), path)
	return nil
}
