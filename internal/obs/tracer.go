package obs

import (
	"bufio"
	"fmt"
	"io"
	"sort"

	"lrp/internal/engine"
)

// EventKind classifies a trace event.
type EventKind uint8

const (
	// EvPersist is one line persist: issue → ack span. Arg is the line
	// address, Arg2 is 1 when the persist was on a core's critical path.
	EvPersist EventKind = iota
	// EvEngineScan is one persist-engine L1 scan. Arg is the number of
	// dirty lines discovered, Arg2 the released lines among them.
	EvEngineScan
	// EvEpochAdvance marks a thread epoch advance (a release). Arg is the
	// new epoch id.
	EvEpochAdvance
	// EvEpochOverflow marks an epoch-counter wraparound flush.
	EvEpochOverflow
	// EvRETDrain is a watermark-triggered RET drain. Arg is the drained
	// line address.
	EvRETDrain
	// EvDowngrade is a dirty-line forward between L1s. Arg is the line
	// address, Arg2 the DowngradeCause.
	EvDowngrade
	// EvStall is a span a core spent blocked on persistency. Arg is the
	// StallCause.
	EvStall
	// EvEvict is a dirty L1 eviction handled by the mechanism. Arg is the
	// line address.
	EvEvict
	// EvCrash is a crash-snapshot instant. Arg is the number of persisted
	// writes at the instant, Arg2 the total writes.
	EvCrash

	numEventKinds
)

func (k EventKind) String() string {
	switch k {
	case EvPersist:
		return "persist"
	case EvEngineScan:
		return "engine-scan"
	case EvEpochAdvance:
		return "epoch-advance"
	case EvEpochOverflow:
		return "epoch-overflow"
	case EvRETDrain:
		return "ret-drain"
	case EvDowngrade:
		return "downgrade"
	case EvStall:
		return "stall"
	case EvEvict:
		return "evict"
	case EvCrash:
		return "crash-snapshot"
	default:
		return fmt.Sprintf("event(%d)", uint8(k))
	}
}

// DowngradeCause explains why a downgrade cost what it did.
type DowngradeCause uint8

const (
	// DowngradeClean: the line held no unpersisted data.
	DowngradeClean DowngradeCause = iota
	// DowngradeReleased: the line held an unpersisted release — the
	// requester blocked for the persist chain (Invariant I2).
	DowngradeReleased
	// DowngradeOnlyWritten: only plain writes; persisted off the critical
	// path.
	DowngradeOnlyWritten
	// DowngradeInFlight: a persist ack was still in flight; the requester
	// waited for it.
	DowngradeInFlight

	// NumDowngradeCauses sizes per-cause counter arrays.
	NumDowngradeCauses
)

func (c DowngradeCause) String() string {
	switch c {
	case DowngradeClean:
		return "clean"
	case DowngradeReleased:
		return "released"
	case DowngradeOnlyWritten:
		return "only-written"
	case DowngradeInFlight:
		return "in-flight"
	default:
		return fmt.Sprintf("cause(%d)", uint8(c))
	}
}

// StallCause explains a blocked-core span.
type StallCause uint8

const (
	// StallWrite: a write conflicted with buffered persist state
	// (backpressure, epoch conflicts).
	StallWrite StallCause = iota
	// StallRMWAcquire: Invariant I3 — an acquire-RMW waited for its own
	// write to persist.
	StallRMWAcquire
	// StallDowngrade: Invariant I2 — an acquire waited for a producer's
	// release chain to persist.
	StallDowngrade
	// StallEvict: a dirty eviction persisted on the critical path.
	StallEvict

	// NumStallCauses sizes per-cause counter arrays.
	NumStallCauses
)

func (c StallCause) String() string {
	switch c {
	case StallWrite:
		return "write"
	case StallRMWAcquire:
		return "rmw-acquire"
	case StallDowngrade:
		return "downgrade"
	case StallEvict:
		return "evict"
	default:
		return fmt.Sprintf("cause(%d)", uint8(c))
	}
}

// Event is one cycle-stamped trace record. Spans carry a nonzero Dur;
// instants have Dur == 0.
type Event struct {
	// TS is the event's start, in cycles of virtual time.
	TS engine.Time
	// Dur is the span length in cycles (0 for instants).
	Dur engine.Time
	// Kind classifies the event.
	Kind EventKind
	// Core is the hardware thread the event belongs to (-1: machine-wide).
	Core int32
	// Arg and Arg2 carry kind-specific payload (see EventKind docs).
	Arg  uint64
	Arg2 uint64
}

// shard is one core's ring buffer. seq counts every Record so wraparound
// losses are reported, not silent.
type shard struct {
	ring []Event
	seq  uint64
}

// Tracer collects cycle-stamped events into per-core ring-buffer shards.
// A full ring overwrites its oldest events: a trace is a window over the
// tail of the run, bounded in memory no matter how long the simulation
// runs. Core -1 (machine-wide events) gets its own shard.
type Tracer struct {
	shards []shard // index 0 is the machine shard, 1+i is core i
	cap    int
}

// DefaultTraceCap is the per-core ring capacity (events) of an
// Observer's tracer.
const DefaultTraceCap = 1 << 14

// NewTracer builds a tracer for the given core count with the given
// per-core ring capacity (DefaultTraceCap if capEvents <= 0).
func NewTracer(cores, capEvents int) *Tracer {
	if cores < 0 {
		panic("obs: negative core count")
	}
	if capEvents <= 0 {
		capEvents = DefaultTraceCap
	}
	return &Tracer{shards: make([]shard, cores+1), cap: capEvents}
}

// Record appends an event to its core's shard, evicting the oldest event
// if the ring is full. Not safe for concurrent use — the simulator's
// scheduler serializes all machine activity (the registry, which external
// readers poll, is the concurrent-safe half of the Observer).
func (t *Tracer) Record(e Event) {
	idx := int(e.Core) + 1
	if idx < 0 || idx >= len(t.shards) {
		idx = 0
		e.Core = -1
	}
	s := &t.shards[idx]
	if s.ring == nil {
		s.ring = make([]Event, 0, t.cap)
	}
	if len(s.ring) < t.cap {
		s.ring = append(s.ring, e)
	} else {
		s.ring[s.seq%uint64(t.cap)] = e
	}
	s.seq++
}

// Len reports the number of retained events across all shards.
func (t *Tracer) Len() int {
	n := 0
	for i := range t.shards {
		n += len(t.shards[i].ring)
	}
	return n
}

// Dropped reports how many events were overwritten by ring wraparound.
func (t *Tracer) Dropped() uint64 {
	var n uint64
	for i := range t.shards {
		if t.shards[i].seq > uint64(len(t.shards[i].ring)) {
			n += t.shards[i].seq - uint64(len(t.shards[i].ring))
		}
	}
	return n
}

// Events returns all retained events merged across shards in
// nondecreasing TS order (ties broken by core, then kind) — the order
// both exporters emit.
func (t *Tracer) Events() []Event {
	out := make([]Event, 0, t.Len())
	for i := range t.shards {
		out = append(out, t.shards[i].ring...)
	}
	sort.SliceStable(out, func(i, j int) bool {
		if out[i].TS != out[j].TS {
			return out[i].TS < out[j].TS
		}
		if out[i].Core != out[j].Core {
			return out[i].Core < out[j].Core
		}
		return out[i].Kind < out[j].Kind
	})
	return out
}

// WriteChromeTrace emits the retained events as Chrome trace_event JSON
// (the "JSON array format"), loadable in chrome://tracing and Perfetto.
// One trace "thread" per core; virtual-time cycles map to microseconds
// (the viewers' native unit), so 1 µs on screen is 1 simulated cycle.
// When ring wraparound lost events, a "dropped_events" metadata record
// carries the count.
func (t *Tracer) WriteChromeTrace(w io.Writer) error {
	bw := bufio.NewWriter(w)
	if _, err := bw.WriteString("[\n"); err != nil {
		return err
	}
	first := true
	emit := func(s string) {
		if !first {
			bw.WriteString(",\n")
		}
		first = false
		bw.WriteString(s)
	}
	emit(`{"name":"process_name","ph":"M","pid":0,"tid":0,"args":{"name":"lrp simulated machine"}}`)
	for i := range t.shards {
		core := i - 1
		name := fmt.Sprintf("core %d", core)
		if core < 0 {
			name = "machine"
		}
		emit(fmt.Sprintf(`{"name":"thread_name","ph":"M","pid":0,"tid":%d,"args":{"name":%q}}`, i, name))
	}
	if dropped := t.Dropped(); dropped > 0 {
		emit(fmt.Sprintf(`{"name":"dropped_events","ph":"M","pid":0,"tid":0,"args":{"dropped":%d}}`, dropped))
	}
	for _, e := range t.Events() {
		tid := int(e.Core) + 1
		args := chromeArgs(e)
		if e.Dur > 0 {
			emit(fmt.Sprintf(`{"name":%q,"cat":"lrp","ph":"X","ts":%d,"dur":%d,"pid":0,"tid":%d,"args":{%s}}`,
				e.Kind.String(), int64(e.TS), int64(e.Dur), tid, args))
		} else {
			emit(fmt.Sprintf(`{"name":%q,"cat":"lrp","ph":"i","ts":%d,"pid":0,"tid":%d,"s":"t","args":{%s}}`,
				e.Kind.String(), int64(e.TS), tid, args))
		}
	}
	if _, err := bw.WriteString("\n]\n"); err != nil {
		return err
	}
	return bw.Flush()
}

// chromeArgs renders the kind-specific payload as JSON object members.
func chromeArgs(e Event) string {
	switch e.Kind {
	case EvPersist:
		return fmt.Sprintf(`"line":"0x%x","critical":%v`, e.Arg, e.Arg2 != 0)
	case EvEngineScan:
		return fmt.Sprintf(`"scanned":%d,"releases":%d`, e.Arg, e.Arg2)
	case EvEpochAdvance:
		return fmt.Sprintf(`"epoch":%d`, e.Arg)
	case EvRETDrain, EvEvict:
		return fmt.Sprintf(`"line":"0x%x"`, e.Arg)
	case EvDowngrade:
		return fmt.Sprintf(`"line":"0x%x","cause":%q`, e.Arg, DowngradeCause(e.Arg2).String())
	case EvStall:
		return fmt.Sprintf(`"cause":%q`, StallCause(e.Arg).String())
	case EvCrash:
		return fmt.Sprintf(`"persisted":%d,"total":%d`, e.Arg, e.Arg2)
	default:
		return fmt.Sprintf(`"arg":%d,"arg2":%d`, e.Arg, e.Arg2)
	}
}
