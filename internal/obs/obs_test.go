package obs

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"sync"
	"testing"

	"lrp/internal/engine"
)

// TestRegistryConcurrent exercises get-or-create and instrument updates
// from many goroutines (run under -race in CI): registration takes the
// lock, updates are atomic.
func TestRegistryConcurrent(t *testing.T) {
	r := NewRegistry()
	const workers = 8
	const perWorker = 1000
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			c := r.Counter("shared/counter")
			g := r.Gauge("shared/gauge")
			h := r.Histogram("shared/hist")
			for i := 0; i < perWorker; i++ {
				c.Inc()
				g.Add(1)
				h.Observe(uint64(i))
			}
		}(w)
	}
	wg.Wait()
	if got := r.Counter("shared/counter").Value(); got != workers*perWorker {
		t.Fatalf("counter = %d, want %d", got, workers*perWorker)
	}
	if got := r.Gauge("shared/gauge").Value(); got != workers*perWorker {
		t.Fatalf("gauge = %d, want %d", got, workers*perWorker)
	}
	if got := r.Histogram("shared/hist").Snapshot().Count; got != workers*perWorker {
		t.Fatalf("histogram count = %d, want %d", got, workers*perWorker)
	}
}

func TestRegistryKindClash(t *testing.T) {
	r := NewRegistry()
	r.Counter("x")
	defer func() {
		if recover() == nil {
			t.Fatal("registering a gauge under a counter name did not panic")
		}
	}()
	r.Gauge("x")
}

func TestRegistrySnapshotSorted(t *testing.T) {
	r := NewRegistry()
	r.Counter("b").Add(2)
	r.Gauge("a").Set(-7)
	r.Histogram("c").Observe(5)
	snap := r.Snapshot()
	if len(snap) != 3 {
		t.Fatalf("snapshot has %d entries, want 3", len(snap))
	}
	for i := 1; i < len(snap); i++ {
		if snap[i-1].Name >= snap[i].Name {
			t.Fatalf("snapshot not sorted: %q before %q", snap[i-1].Name, snap[i].Name)
		}
	}
	if snap[0].Value != -7 || snap[1].Value != 2 {
		t.Fatalf("unexpected values %+v", snap[:2])
	}
	if snap[2].Hist == nil || snap[2].Hist.Count != 1 {
		t.Fatalf("histogram snapshot missing: %+v", snap[2])
	}
}

// TestRegistryView pins read-through counters: a view reports its source
// word as it changes, sums with owned counters, refuses writes, and
// cannot take a registered name.
func TestRegistryView(t *testing.T) {
	r := NewRegistry()
	c := NewCounts(2, 1, 1)
	r.View("fam/core00", func() uint64 { return c.Core[0].Ops })
	r.Counter("fam/core01").Add(5)
	c.Core[0].Ops = 3
	if got := r.SumCounters("fam/"); got != 8 {
		t.Fatalf("SumCounters over a view = %d, want 8", got)
	}
	c.Row(-1).Ops = 9
	if got := r.Counter("fam/core00").Value(); got != 3 {
		t.Fatalf("view = %d, want 3 (the machine-wide row is separate)", got)
	}
	for name, f := range map[string]func(){
		"add":       func() { r.Counter("fam/core00").Inc() },
		"duplicate": func() { r.View("fam/core01", func() uint64 { return 0 }) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s: no panic", name)
				}
			}()
			f()
		}()
	}
}

func TestRegistryAggregates(t *testing.T) {
	r := NewRegistry()
	r.Counter("fam/core00").Add(3)
	r.Counter("fam/core01").Add(4)
	r.Counter("other/core00").Add(100)
	if got := r.SumCounters("fam/"); got != 7 {
		t.Fatalf("SumCounters = %d, want 7", got)
	}
	r.Histogram("lat/core00").Observe(10)
	r.Histogram("lat/core01").Observe(300)
	m := r.MergeHistograms("lat/")
	if m.Count != 2 || m.Sum != 310 {
		t.Fatalf("merged = %+v", m)
	}
}

// TestHistogramBucketBoundaries pins the power-of-two bucketing: bucket 0
// holds only 0; bucket i holds [2^(i-1), 2^i).
func TestHistogramBucketBoundaries(t *testing.T) {
	cases := []struct {
		v      uint64
		bucket int
	}{
		{0, 0}, {1, 1}, {2, 2}, {3, 2}, {4, 3}, {7, 3}, {8, 4},
		{255, 8}, {256, 9}, {1<<63 - 1, 63}, {1 << 63, 64}, {^uint64(0), 64},
	}
	for _, c := range cases {
		if got := bucketOf(c.v); got != c.bucket {
			t.Errorf("bucketOf(%d) = %d, want %d", c.v, got, c.bucket)
		}
		lo, hi := BucketBounds(c.bucket)
		if c.v < lo {
			t.Errorf("value %d below its bucket %d range [%d, %d)", c.v, c.bucket, lo, hi)
		}
		if hi != 0 && c.v >= hi {
			t.Errorf("value %d above its bucket %d range [%d, %d)", c.v, c.bucket, lo, hi)
		}
	}
}

func TestHistogramStats(t *testing.T) {
	var h Histogram
	for _, v := range []uint64{100, 100, 100, 100, 100, 100, 100, 100, 100, 4000} {
		h.Observe(v)
	}
	s := h.Snapshot()
	if s.Count != 10 || s.Sum != 900+4000 {
		t.Fatalf("snapshot = %+v", s)
	}
	if m := s.Mean(); m != 490 {
		t.Fatalf("mean = %v, want 490", m)
	}
	// The p50 falls in 100's bucket [64, 128); the bound is 127.
	if q := s.Quantile(0.5); q != 127 {
		t.Fatalf("p50 = %d, want 127", q)
	}
	// The p99 (rank 9) falls in 4000's bucket [2048, 4096).
	if q := s.Quantile(0.99); q != 4095 {
		t.Fatalf("p99 = %d, want 4095", q)
	}
	var empty HistSnapshot
	if empty.Mean() != 0 || empty.Quantile(0.5) != 0 {
		t.Fatal("empty snapshot must report zeros")
	}
}

// TestTracerWraparound fills a ring past capacity: the oldest events are
// overwritten, the loss is accounted, and Events still sorts by time.
func TestTracerWraparound(t *testing.T) {
	tr := NewTracer(1, 4)
	for i := 0; i < 10; i++ {
		tr.Record(Event{TS: engine.Time(100 * i), Kind: EvPersist, Core: 0, Arg: uint64(i)})
	}
	if got := tr.Len(); got != 4 {
		t.Fatalf("Len = %d, want 4", got)
	}
	if got := tr.Dropped(); got != 6 {
		t.Fatalf("Dropped = %d, want 6", got)
	}
	evs := tr.Events()
	for i := 1; i < len(evs); i++ {
		if evs[i-1].TS > evs[i].TS {
			t.Fatalf("events out of order: %v", evs)
		}
	}
	// The survivors are the newest four records.
	if evs[0].Arg != 6 || evs[3].Arg != 9 {
		t.Fatalf("wrong survivors: %v", evs)
	}
}

// TestChromeTraceNotesDrops: a wrapped ring's export carries one
// metadata record with the number of events lost, and still parses.
func TestChromeTraceNotesDrops(t *testing.T) {
	tr := NewTracer(1, 4)
	for i := 0; i < 10; i++ {
		tr.Record(Event{TS: engine.Time(100 * i), Kind: EvPersist, Core: 0, Arg: uint64(i)})
	}
	var buf bytes.Buffer
	if err := tr.WriteChromeTrace(&buf); err != nil {
		t.Fatal(err)
	}
	var events []struct {
		Name string         `json:"name"`
		Ph   string         `json:"ph"`
		Args map[string]any `json:"args"`
	}
	if err := json.Unmarshal(buf.Bytes(), &events); err != nil {
		t.Fatalf("exported trace is not valid JSON: %v", err)
	}
	var notes []float64
	for _, e := range events {
		if e.Name == "dropped_events" {
			if e.Ph != "M" {
				t.Fatalf("dropped_events record has ph %q, want M", e.Ph)
			}
			notes = append(notes, e.Args["dropped"].(float64))
		}
	}
	if len(notes) != 1 || notes[0] != 6 {
		t.Fatalf("dropped_events notes = %v, want one record with 6", notes)
	}
}

func TestTracerOutOfRangeCore(t *testing.T) {
	tr := NewTracer(2, 8)
	tr.Record(Event{TS: 5, Kind: EvEngineScan, Core: 99})
	evs := tr.Events()
	if len(evs) != 1 || evs[0].Core != -1 {
		t.Fatalf("out-of-range core must land in the machine shard: %v", evs)
	}
}

// goldenTracer builds the fixed event set behind the Chrome-JSON golden.
func goldenTracer() *Tracer {
	tr := NewTracer(2, 16)
	tr.Record(Event{TS: 10, Dur: 120, Kind: EvPersist, Core: 0, Arg: 0x1040, Arg2: 1})
	tr.Record(Event{TS: 12, Kind: EvEpochAdvance, Core: 1, Arg: 3})
	tr.Record(Event{TS: 15, Kind: EvEngineScan, Core: 0, Arg: 7, Arg2: 2})
	tr.Record(Event{TS: 20, Dur: 60, Kind: EvStall, Core: 1, Arg: uint64(StallDowngrade)})
	tr.Record(Event{TS: 25, Kind: EvDowngrade, Core: 0, Arg: 0x2080, Arg2: uint64(DowngradeReleased)})
	tr.Record(Event{TS: 30, Kind: EvRETDrain, Core: 1, Arg: 0x30c0})
	tr.Record(Event{TS: 90, Kind: EvCrash, Core: -1, Arg: 41, Arg2: 64})
	return tr
}

// TestChromeTraceGolden pins the exported Chrome trace_event JSON byte for
// byte and checks that it parses as the JSON array format the viewers
// load. Regenerate with LRP_UPDATE_GOLDEN=1 go test ./internal/obs/.
func TestChromeTraceGolden(t *testing.T) {
	var buf bytes.Buffer
	if err := goldenTracer().WriteChromeTrace(&buf); err != nil {
		t.Fatal(err)
	}
	var events []map[string]any
	if err := json.Unmarshal(buf.Bytes(), &events); err != nil {
		t.Fatalf("exported trace is not valid JSON: %v", err)
	}
	// 1 process_name + 3 thread_name metadata records + 7 events.
	if len(events) != 11 {
		t.Fatalf("got %d records, want 11", len(events))
	}
	for _, e := range events {
		if _, ok := e["ph"]; !ok {
			t.Fatalf("record missing ph: %v", e)
		}
	}

	golden := filepath.Join("testdata", "chrome_trace.golden")
	if update() {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(golden, buf.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("missing golden (regenerate with LRP_UPDATE_GOLDEN=1): %v", err)
	}
	if !bytes.Equal(buf.Bytes(), want) {
		t.Fatalf("trace drifted from golden.\n--- got ---\n%s\n--- want ---\n%s", buf.Bytes(), want)
	}
}

func update() bool { return os.Getenv("LRP_UPDATE_GOLDEN") != "" }

// TestNilObserver pins the nil-safety contract: every hook on a nil
// Observer is a no-op, not a panic.
func TestNilObserver(t *testing.T) {
	var o *Observer
	o.PersistIssued(0, 0x40, 1, 2, true)
	o.EngineScan(0, 3, 1, 5)
	o.EpochAdvance(0, 1, 5)
	o.EpochOverflow(0, 5)
	o.RETAdd(0, 4)
	o.RETRemove(0, 100)
	o.RETDrain(0, 0x40, 5)
	o.Downgrade(0, 0x40, DowngradeReleased, 5)
	o.Stall(0, StallWrite, 1, 9)
	o.DirtyEviction(0, 0x40, 5)
	o.NVMPersist(0, 3)
	o.NVMRetry(0, 48)
	o.RecoveryQuarantine(2)
	o.TraceRecorded(1, 2, 3)
	o.TraceReplayed(1, 2)
	o.CrashSnapshot(10, 1, 2)
	if o.Registry() != nil || o.Tracer() != nil {
		t.Fatal("nil observer accessors must return nil")
	}
}

// TestObserverHooks spot-checks that hooks land in the right instruments.
func TestObserverHooks(t *testing.T) {
	o := New(Config{Cores: 2, Controllers: 2, EnableTrace: true})
	o.PersistIssued(1, 0x40, 100, 220, true)
	o.PersistIssued(1, 0x80, 100, 220, false)
	o.Stall(0, StallEvict, 10, 110)
	o.NVMPersist(0, 16)
	o.RETAdd(1, 5)
	o.RETRemove(1, 1000)

	r := o.Registry()
	if q := r.MergeHistograms("nvm/queue_delay/"); q.Count != 1 || q.Sum != 16 {
		t.Fatalf("queue delay merged = %+v", q)
	}
	lat := r.MergeHistograms("persist/latency/")
	if lat.Count != 2 || lat.Sum != 240 {
		t.Fatalf("persist latency merged = %+v", lat)
	}
	occ := r.MergeHistograms("ret/occupancy/")
	if occ.Count != 1 || occ.Sum != 5 {
		t.Fatalf("ret occupancy merged = %+v", occ)
	}
	// Out-of-range actors must not panic and must not misattribute.
	o.PersistIssued(-1, 0xc0, 5, 10, false)
	if got := r.MergeHistograms("persist/latency/").Count; got != 2 {
		t.Fatalf("machine-wide persist landed on a core: %d", got)
	}
	if o.Tracer().Len() == 0 {
		t.Fatal("trace events missing")
	}
}
