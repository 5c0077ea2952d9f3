package main

import (
	"bytes"
	"cmp"
	"compress/flate"
	"encoding/json"
	"math/rand"
	"slices"
	"strconv"
	"sync"
	"syscall"
	"time"
)

// The host the benchmark runs on changes speed by tens of percent from one
// second to the next, as other tenants of a shared machine come and go,
// and the simulator's jobs slow and speed up with it. The harness therefore
// runs refKernel, a fixed mix of standard-library work that is not the
// program's, before each timed set-up and job, after each, and inside a
// job in the gaps between its units of work once refEvery of CPU time has
// passed. Each stretch of the job's CPU time is scaled by refSeconds over
// the mean of the two reference runs around it: the time the stretch
// would take on a host where the kernel runs in refSeconds. A change to
// the program moves the scaled time as it moves the raw one, while the
// host's drift cancels.

// refSeconds is refKernel's usual CPU time on the host the benchmark was
// tuned on (a 2-vCPU Xeon VM, Go 1.24). Any fixed value serves; this one
// keeps scaled times close to raw ones there.
const refSeconds = 0.027

// refState is refKernel's input and the buffers it reuses, so that a run
// allocates next to nothing and leaves the program's heap as it found it.
type refState struct {
	recs   []refRecord
	sorted []refRecord
	text   []byte
	counts map[string]*int
	enc    bytes.Buffer
	indent bytes.Buffer
	z      bytes.Buffer
	zw     *flate.Writer
	line   []byte
}

type refRecord struct {
	ID    int
	Name  string
	Tags  []string
	Score float64
}

var refOnce = sync.OnceValue(func() *refState {
	r := rand.New(rand.NewSource(1))
	words := []string{"alpha", "beta", "gamma", "delta", "persist", "release", "acquire", "flush", "line", "epoch"}
	st := &refState{recs: make([]refRecord, 4000), counts: map[string]*int{}}
	for i := range st.recs {
		st.recs[i] = refRecord{ID: i, Name: words[r.Intn(len(words))] + strconv.Itoa(r.Intn(1000)),
			Tags: []string{words[r.Intn(len(words))], words[r.Intn(len(words))]}, Score: r.Float64()}
	}
	var text bytes.Buffer
	for text.Len() < 256<<10 {
		text.WriteString(words[r.Intn(len(words))])
		text.WriteByte(" \n"[r.Intn(8)/7])
	}
	st.text = text.Bytes()
	for _, w := range words {
		st.counts[w] = new(int)
	}
	st.zw, _ = flate.NewWriter(&st.z, 5)
	refRun(st) // sizes every buffer
	return st
})

// refSink keeps refKernel's results live.
var refSink int

// refKernel runs a fixed mix of standard-library work (JSON encoding and
// re-indenting, sorting, compression, map counting, number formatting)
// and returns the CPU time it took.
func refKernel() time.Duration {
	st := refOnce()
	start := cpuTime()
	refRun(st)
	return cpuTime() - start
}

func refRun(st *refState) {
	st.enc.Reset()
	if err := json.NewEncoder(&st.enc).Encode(st.recs); err != nil {
		panic(err)
	}
	st.indent.Reset()
	if err := json.Indent(&st.indent, st.enc.Bytes(), "", "  "); err != nil {
		panic(err)
	}
	st.sorted = append(st.sorted[:0], st.recs...)
	slices.SortFunc(st.sorted, func(a, b refRecord) int { return cmp.Compare(a.Score, b.Score) })
	st.z.Reset()
	st.zw.Reset(&st.z)
	st.zw.Write(st.text)
	st.zw.Close()
	for rest := st.text; len(rest) > 0; {
		i := bytes.IndexAny(rest, " \n")
		if i < 0 {
			i = len(rest)
		}
		if n := st.counts[string(rest[:i])]; n != nil {
			*n++
		}
		rest = rest[min(i+1, len(rest)):]
	}
	st.line = st.line[:0]
	for _, r := range st.sorted {
		st.line = strconv.AppendInt(st.line, int64(r.ID), 10)
		st.line = append(st.line, ' ')
		st.line = append(st.line, r.Name...)
		st.line = strconv.AppendFloat(st.line, r.Score, 'f', 4, 64)
		st.line = append(st.line, '\n')
	}
	refSink += st.indent.Len() + st.z.Len() + len(st.line) + len(st.counts)
}

// scaler scales CPU times to the reference host speed. A timing is made
// of one or more segments, and the reference kernel runs (ref) before the
// first segment, between segments and after the last. Each segment is
// scaled by refSeconds over the mean of the reference runs on either side.
type scaler struct {
	refs []float64 // reference runs, CPU seconds
	segs []segment
}

type segment struct {
	timing int     // the timing the segment belongs to
	ref    int     // the reference run just before it
	cpu    float64 // CPU seconds
}

func (s *scaler) ref() { s.refs = append(s.refs, refKernel().Seconds()) }

// add records a segment of timing t.
func (s *scaler) add(t int, cpu time.Duration) {
	s.segs = append(s.segs, segment{t, len(s.refs) - 1, cpu.Seconds()})
}

// times returns the raw and the scaled CPU seconds of timings 0 to n-1.
func (s *scaler) times(n int) (raw, scaled []float64) {
	raw, scaled = make([]float64, n), make([]float64, n)
	for _, g := range s.segs {
		raw[g.timing] += g.cpu
		scaled[g.timing] += g.cpu * refSeconds * 2 / (s.refs[g.ref] + s.refs[g.ref+1])
	}
	return raw, scaled
}

// cpuTime returns the user plus system CPU time the process has used, all
// threads together. A KVM guest kernel with steal-time accounting also
// leaves out the time the host ran something else on the virtual CPU.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		panic(err)
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}
