package main

import (
	"bufio"
	"fmt"
	"os"
	"path/filepath"
	"time"
)

// span is one timed call into a layer. Spans of one job share job; parent
// indexes the enclosing span in tracer.spans (-1 for a job's root span).
type span struct {
	job, parent, name int32
	start, end        int64 // ns since the tracer's epoch
}

// tracer keeps a traced run's spans in memory until the run ends. Spans
// nest strictly: a span opened while another is open is its child.
type tracer struct {
	epoch time.Time
	names []string
	ids   map[string]int32
	spans []span
	job   int32
	open  int32 // innermost open span, -1 for none
	first int   // index of the current job's root span
}

func newTracer() *tracer {
	return &tracer{epoch: time.Now(), ids: map[string]int32{}, job: -1, open: -1}
}

// name interns a span name; hot loops intern once and call beginID.
func (t *tracer) name(s string) int32 {
	id, ok := t.ids[s]
	if !ok {
		id = int32(len(t.names))
		t.names = append(t.names, s)
		t.ids[s] = id
	}
	return id
}

func (t *tracer) now() int64 { return int64(time.Since(t.epoch)) }

// begin opens a span named s under the innermost open span.
func (t *tracer) begin(s string) int32 { return t.beginID(t.name(s)) }

func (t *tracer) beginID(name int32) int32 {
	id := int32(len(t.spans))
	t.spans = append(t.spans, span{job: t.job, parent: t.open, name: name, start: t.now()})
	t.open = id
	return id
}

// end closes span id, which must be the innermost open span.
func (t *tracer) end(id int32) {
	if id != t.open {
		panic("e2ebench: spans closed out of order")
	}
	t.spans[id].end = t.now()
	t.open = t.spans[id].parent
}

// add records an already-finished span under the innermost open span.
func (t *tracer) add(s string, start, end time.Time) {
	t.spans = append(t.spans, span{job: t.job, parent: t.open, name: t.name(s),
		start: int64(start.Sub(t.epoch)), end: int64(end.Sub(t.epoch))})
}

// beginJob opens the root span of a new job.
func (t *tracer) beginJob() {
	t.job++
	t.first = len(t.spans)
	t.begin("job")
}

func (t *tracer) endJob() { t.end(int32(t.first)) }

// selfTimes returns the current job's self time per span name: each span's
// duration minus the part of it its child spans cover.
func (t *tracer) selfTimes() map[string]time.Duration {
	job := t.spans[t.first:]
	self := make([]int64, len(job))
	for i, s := range job {
		self[i] += s.end - s.start
		if p := int(s.parent) - t.first; p >= 0 {
			self[p] -= s.end - s.start
		}
	}
	out := map[string]time.Duration{}
	for i, s := range job {
		out[t.names[s.name]] += time.Duration(self[i])
	}
	return out
}

// write saves every span as tab-separated text: a provenance comment, a
// header, then one line per span with times in ns since the run began.
func (t *tracer) write(path, prov string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	fmt.Fprintf(w, "# %s\njob\tspan\tparent\tname\tstart_ns\tend_ns\n", prov)
	for i, s := range t.spans {
		fmt.Fprintf(w, "%d\t%d\t%d\t%s\t%d\t%d\n", s.job, i, s.parent, t.names[s.name], s.start, s.end)
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
