package main

import (
	"bufio"
	"fmt"
	"os"
	"sync/atomic"
	"time"
)

// span is one harness-side span around a call into the library.
type span struct {
	id, parent uint64
	name       string
	// op is the operation id (-1 outside the measured operations).
	op         int
	start, end time.Duration // since the tracer's origin
}

// tracer records harness spans in memory, one list per client so that
// clients never contend; they are written out when the run ends. A nil
// tracer records nothing.
type tracer struct {
	t0     time.Time
	ids    atomic.Uint64
	spans  [][]span
	parent []uint64 // per client: the span new spans nest under
}

// observerRing is the span-ring size of observers built for a traced
// run, kept small so the decision-audit records in the dump stay
// bounded.
const observerRing = 1024

func newTracer(clients int) *tracer {
	return &tracer{t0: time.Now(), spans: make([][]span, clients), parent: make([]uint64, clients)}
}

func (t *tracer) ringCapacity() int {
	if t == nil {
		return 0
	}
	return observerRing
}

// begin opens a span on client c's list and returns its index.
func (t *tracer) begin(c int, name string, op int) int {
	if t == nil {
		return -1
	}
	id := t.ids.Add(1)
	t.spans[c] = append(t.spans[c], span{id: id, parent: t.parent[c], name: name, op: op, start: time.Since(t.t0)})
	if op < 0 {
		// Set-up and phase spans parent what follows until they end.
		t.parent[c] = id
	}
	return len(t.spans[c]) - 1
}

func (t *tracer) end(c, idx int) {
	if t == nil || idx < 0 {
		return
	}
	s := &t.spans[c][idx]
	s.end = time.Since(t.t0)
	if t.parent[c] == s.id {
		t.parent[c] = s.parent
	}
}

// inherit makes every client's new spans nest under client 0's current
// span (the measured phase) so a client's op spans have a parent.
func (t *tracer) inherit() {
	if t == nil {
		return
	}
	for c := range t.parent {
		t.parent[c] = t.parent[0]
	}
}

// durations returns the durations of every span with the given name.
func (t *tracer) durations(name string) []time.Duration {
	var out []time.Duration
	for _, list := range t.spans {
		for _, s := range list {
			if s.name == name {
				out = append(out, s.end-s.start)
			}
		}
	}
	return out
}

// writeChrome writes the spans as Chrome trace-event JSON, one thread
// track per client. Events are written one at a time: a traced serve
// run holds hundreds of thousands of spans.
func (t *tracer) writeChrome(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	bw := bufio.NewWriter(f)
	bw.WriteString(`{"displayTimeUnit":"ms","traceEvents":[`)
	sep := ""
	for c, list := range t.spans {
		for _, s := range list {
			fmt.Fprintf(bw, `%s{"name":%q,"ph":"X","ts":%.3f,"dur":%.3f,"pid":1,"tid":%d,"args":{"id":%d,"parent":%d,"op":%d}}`,
				sep, s.name, us(s.start), us(s.end-s.start), c, s.id, s.parent, s.op)
			sep = ","
		}
	}
	bw.WriteString("]}\n")
	if err := bw.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
