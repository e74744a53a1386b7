package main

import (
	"bufio"
	"encoding/json"
	"os"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// span is one timed call made by the benchmark: around an HTTP call to
// the server, around an fault.FS operation handed to the store or the
// cache, or around a direct call into a layer's public function. Times
// are nanoseconds since the tracer started. Op is the workload op the
// span belongs to (0 outside the timed window).
type span struct {
	ID     int64  `json:"id"`
	Parent int64  `json:"parent"`
	Op     int64  `json:"op"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// layer is the span name's prefix: "server", "store", "core", ...
func (s span) layer() string {
	if i := strings.IndexByte(s.Name, '.'); i >= 0 {
		return s.Name[:i]
	}
	return s.Name
}

func (s span) dur() time.Duration { return time.Duration(s.End - s.Start) }

// tracer keeps spans in memory until the run ends. A nil *tracer
// records nothing, so untraced runs pay one nil check per call site.
type tracer struct {
	t0   time.Time
	on   atomic.Bool // off: calls record nothing (the untraced window)
	next atomic.Int64
	// cur and curOp name the span that calls without an explicit
	// parent (the fault.FS probes) attach to. Only phases with a single
	// caller set it; with several callers it stays 0.
	cur, curOp atomic.Int64

	mu    sync.Mutex
	spans []span
}

func newTracer() *tracer {
	t := &tracer{t0: time.Now()}
	t.on.Store(true)
	return t
}

// span opens a span under parent for op and returns its id and the
// function that closes it.
func (t *tracer) span(name string, parent, op int64) (int64, func()) {
	if t == nil || !t.on.Load() {
		return 0, func() {}
	}
	id := t.next.Add(1)
	start := time.Since(t.t0).Nanoseconds()
	return id, func() {
		end := time.Since(t.t0).Nanoseconds()
		t.mu.Lock()
		t.spans = append(t.spans, span{ID: id, Parent: parent, Op: op, Name: name, Start: start, End: end})
		t.mu.Unlock()
	}
}

// begin opens a span under the current span.
func (t *tracer) begin(name string) func() {
	if t == nil || !t.on.Load() {
		return func() {}
	}
	_, end := t.span(name, t.cur.Load(), t.curOp.Load())
	return end
}

// enter opens a span under parent and makes it the current span until
// the returned function closes it. Single-caller phases only.
func (t *tracer) enter(name string, parent, op int64) (int64, func()) {
	if t == nil || !t.on.Load() {
		return 0, func() {}
	}
	id, end := t.span(name, parent, op)
	prev, prevOp := t.cur.Load(), t.curOp.Load()
	t.cur.Store(id)
	t.curOp.Store(op)
	return id, func() {
		end()
		t.cur.Store(prev)
		t.curOp.Store(prevOp)
	}
}

// snapshot returns a copy of the spans recorded so far.
func (t *tracer) snapshot() []span {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]span(nil), t.spans...)
}

// writeFile writes every span as one JSON line.
func (t *tracer) writeFile(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range t.snapshot() {
		if err := enc.Encode(s); err != nil {
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

// selfTimes sums, per layer, each span's duration minus the part of it
// its child spans cover. Only spans accepted by keep count.
func selfTimes(spans []span, keep func(span) bool) map[string]time.Duration {
	children := make(map[int64][]span)
	for _, s := range spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	out := make(map[string]time.Duration)
	for _, s := range spans {
		if keep(s) {
			out[s.layer()] += s.dur() - covered(s, children[s.ID])
		}
	}
	return out
}

// covered is the length of the union of the children's intervals,
// clipped to the parent's.
func covered(parent span, children []span) time.Duration {
	iv := make([][2]int64, 0, len(children))
	for _, c := range children {
		lo, hi := max(c.Start, parent.Start), min(c.End, parent.End)
		if hi > lo {
			iv = append(iv, [2]int64{lo, hi})
		}
	}
	sort.Slice(iv, func(i, j int) bool { return iv[i][0] < iv[j][0] })
	var total, curLo, curHi int64
	for i, v := range iv {
		switch {
		case i == 0:
			curLo, curHi = v[0], v[1]
		case v[0] > curHi:
			total += curHi - curLo
			curLo, curHi = v[0], v[1]
		case v[1] > curHi:
			curHi = v[1]
		}
	}
	if len(iv) > 0 {
		total += curHi - curLo
	}
	return time.Duration(total)
}

// spanDurations collects the durations of the spans named name.
func spanDurations(spans []span, name string) []time.Duration {
	var out []time.Duration
	for _, s := range spans {
		if s.Name == name {
			out = append(out, s.dur())
		}
	}
	return out
}
