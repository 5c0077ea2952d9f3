package nvm

import (
	"math/rand"
	"slices"
	"sort"
	"testing"

	"lrp/internal/engine"
	"lrp/internal/fault"
	"lrp/internal/isa"
	"lrp/internal/mm"
)

func words(v uint64) [isa.WordsPerLine]uint64 {
	var w [isa.WordsPerLine]uint64
	for i := range w {
		w[i] = v
	}
	return w
}

func TestLatencyModes(t *testing.T) {
	cfg := DefaultConfig()
	c := New(cfg, false, nil)
	if c.Latency() != 120 || c.Mode() != Cached {
		t.Fatalf("cached latency = %v", c.Latency())
	}
	cfg.Mode = Uncached
	u := New(cfg, false, nil)
	if u.Latency() != 350 || u.Mode() != Uncached {
		t.Fatalf("uncached latency = %v", u.Latency())
	}
	if Cached.String() != "cached" || Uncached.String() != "uncached" {
		t.Fatal("Mode strings")
	}
}

func TestPersistTiming(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Controllers = 1
	s := New(cfg, false, nil)
	d1 := s.PersistLine(0, 0, 0x1000, words(1))
	if d1 != 120 {
		t.Fatalf("first persist done at %v", d1)
	}
	// Second persist to the same controller waits for the first's
	// occupancy slot (16 cycles), then completes a full latency later:
	// the controller pipelines but does not reorder.
	d2 := s.PersistLine(10, 10, 0x2000, words(2))
	if d2 != 136 {
		t.Fatalf("queued persist done at %v", d2)
	}
	// A persist held by an ordering constraint completes later still.
	d3 := s.PersistLine(20, 500, 0x3000, words(3))
	if d3 != 620 {
		t.Fatalf("constrained persist done at %v", d3)
	}
	st := s.Stats()
	if st.Persists != 3 || st.BytesPersisted != 3*isa.LineSize {
		t.Fatalf("stats: %+v", st)
	}
}

func TestControllersParallel(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Controllers = 2
	s := New(cfg, false, nil)
	// Lines 0 and 1 map to different controllers.
	d1 := s.PersistLine(0, 0, isa.Addr(0*isa.LineSize), words(1))
	d2 := s.PersistLine(0, 0, isa.Addr(1*isa.LineSize), words(2))
	if d1 != 120 || d2 != 120 {
		t.Fatalf("parallel persists: %v %v", d1, d2)
	}
}

func TestReadsContendWithPersists(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Controllers = 1
	s := New(cfg, false, nil)
	s.PersistLine(0, 0, 0x1000, words(1))
	if done := s.ReadLine(0, 0x4000); done != 136 {
		t.Fatalf("read behind persist done at %v", done)
	}
	if s.Stats().Reads != 1 {
		t.Fatal("read not counted")
	}
}

func TestImageAt(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Controllers = 1
	s := New(cfg, true, nil)
	lineA := isa.Addr(0x1000)
	d1 := s.PersistLine(0, 0, lineA, words(1))     // done at 120
	d2 := s.PersistLine(200, 200, lineA, words(2)) // done at 320
	if d1 != 120 || d2 != 320 {
		t.Fatalf("unexpected times %v %v", d1, d2)
	}
	// Before the first completes: nothing.
	if img := crashImage(s, 119, nil); img.Read(lineA) != 0 {
		t.Fatal("image too eager")
	}
	// Between: first content only.
	if img := crashImage(s, 120, nil); img.Read(lineA) != 1 {
		t.Fatal("first persist missing at its completion time")
	}
	if img := crashImage(s, 319, nil); img.Read(lineA+8) != 1 {
		t.Fatal("image should still hold first content")
	}
	// After both: second content.
	if img := s.FinalImage(nil); img.Read(lineA) != 2 {
		t.Fatal("final image wrong")
	}
}

func TestImageAtWithBase(t *testing.T) {
	cfg := DefaultConfig()
	s := New(cfg, true, nil)
	base := mm.NewMemory()
	base.Write(0x9000, 77)
	img := crashImage(s, 0, base)
	if img.Read(0x9000) != 77 {
		t.Fatal("base contents lost")
	}
	// Base must not be mutated by later persists.
	s.PersistLine(0, 0, 0x9000, words(5))
	img2 := s.FinalImage(base)
	if img2.Read(0x9000) != 5 || base.Read(0x9000) != 77 {
		t.Fatal("base aliased or persist not applied")
	}
}

func TestEventsNilWithoutLogging(t *testing.T) {
	s := New(DefaultConfig(), false, nil)
	s.PersistLine(0, 0, 0x1000, words(1))
	if s.Events() != nil {
		t.Fatal("log should be disabled by default")
	}
}

func TestImageOrderStableAtTies(t *testing.T) {
	// Two persists of the same line completing at identical times (two
	// different issue points, same controller cannot tie; simulate via
	// separate controllers is impossible for one line) — same-line
	// persists always serialize, so later-issued content must win.
	cfg := DefaultConfig()
	cfg.Controllers = 1
	s := New(cfg, true, nil)
	s.PersistLine(0, 0, 0x1000, words(1))
	s.PersistLine(0, 0, 0x1000, words(2))
	if img := s.FinalImage(nil); img.Read(0x1000) != 2 {
		t.Fatal("same-line persist order violated")
	}
}

// TestSameLinePersistsAckInIssueOrder: a persist of a line that no hold
// delays must not complete ahead of the line's earlier, held persist, or
// the older content would land on top of the newer one.
func TestSameLinePersistsAckInIssueOrder(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Controllers = 1
	s := New(cfg, true, nil)
	held := s.PersistLine(0, 5000, 0x1000, words(1))
	free := s.PersistLine(10, 10, 0x1000, words(2))
	if free < held {
		t.Fatalf("second persist acked at %v, before the held first one at %v", free, held)
	}
	if img := s.FinalImage(nil); img.Read(0x1000) != 2 {
		t.Fatalf("final image holds %d, want the second persist's 2", img.Read(0x1000))
	}
}

func TestBadConfigPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	New(Config{Controllers: 0}, false, nil)
}

func TestPersistAlignsToLine(t *testing.T) {
	cfg := DefaultConfig()
	s := New(cfg, true, nil)
	s.PersistLine(0, 0, 0x1008, words(3)) // mid-line address
	img := s.FinalImage(nil)
	if img.Read(0x1000) != 3 || img.Read(0x1038) != 3 {
		t.Fatal("persist did not cover the whole line")
	}
	_ = engine.Time(0)
}

// --- fault injection ---

func faultyNVM(t *testing.T, fc fault.Config) *Subsystem {
	t.Helper()
	cfg := DefaultConfig()
	cfg.Controllers = 1
	s := New(cfg, true, nil)
	s.SetFaults(fault.MustNew(fc))
	return s
}

func TestRetryBackoffDeterministic(t *testing.T) {
	fc := fault.Config{Seed: 11, WriteFaultProb: 0.4, ReadFaultProb: 0.4}
	a := faultyNVM(t, fc)
	b := faultyNVM(t, fc)
	for i := 0; i < 200; i++ {
		line := isa.Addr(i * isa.LineSize)
		now := engine.Time(i * 5)
		if da, db := a.PersistLine(now, now, line, words(uint64(i))), b.PersistLine(now, now, line, words(uint64(i))); da != db {
			t.Fatalf("persist %d: %v != %v", i, da, db)
		}
		if da, db := a.ReadLine(now, line), b.ReadLine(now, line); da != db {
			t.Fatalf("read %d: %v != %v", i, da, db)
		}
	}
	if a.Stats() != b.Stats() {
		t.Fatalf("stats diverged:\n%+v\n%+v", a.Stats(), b.Stats())
	}
	if a.Stats().Retries == 0 || a.Stats().BackoffCycles == 0 {
		t.Fatalf("no retries injected at p=0.4: %+v", a.Stats())
	}
}

func TestRetryDelaysCompletion(t *testing.T) {
	// With faults at p=1 every attempt is rejected: the access exhausts
	// MaxRetries, gives up, and completes with backoff plus the
	// spare-block remap penalty — later than the fault-free time, never
	// earlier, and without losing the line content.
	s := faultyNVM(t, fault.Config{Seed: 1, WriteFaultProb: 1})
	done := s.PersistLine(0, 0, 0x1000, words(9))
	clean := New(func() Config { c := DefaultConfig(); c.Controllers = 1; return c }(), false, nil)
	if base := clean.PersistLine(0, 0, 0x1000, words(9)); done <= base {
		t.Fatalf("faulted persist done at %v, fault-free at %v", done, base)
	}
	st := s.Stats()
	if st.Giveups != 1 || st.Retries != uint64(s.cfg.MaxRetries) {
		t.Fatalf("giveup accounting: %+v", st)
	}
	if img := s.FinalImage(nil); img.Read(0x1000) != 9 {
		t.Fatal("giveup lost the line content")
	}
}

func TestTornImageAt(t *testing.T) {
	s := faultyNVM(t, fault.Config{Seed: 21, TearProb: 1})
	line := isa.Addr(0x2000)
	done := s.PersistLine(0, 0, line, words(7))
	ev := s.Events()[0]
	if ev.Start != done-s.Latency() {
		t.Fatalf("event start %v, want %v", ev.Start, done-s.Latency())
	}
	// Before the media write begins: nothing durable.
	if img := crashImage(s, ev.Start-1, nil); img.Read(line) != 0 {
		t.Fatal("tear applied before persist started")
	}
	// Mid-persist: exactly the torn word subset.
	mask, torn := s.faults.TornWords(line, done)
	if !torn {
		t.Fatal("TearProb=1 did not tear")
	}
	img := crashImage(s, done-1, nil)
	for i := 0; i < isa.WordsPerLine; i++ {
		a := line + isa.Addr(i*isa.WordSize)
		want := uint64(0)
		if mask&(1<<i) != 0 {
			want = 7
		}
		if got := img.Read(a); got != want {
			t.Fatalf("word %d: got %d want %d (mask %x)", i, got, want, mask)
		}
	}
	// At the ack: the whole line, torn overlay superseded.
	if img := crashImage(s, done, nil); img.Read(line) != 7 || img.Read(line+56) != 7 {
		t.Fatal("completed persist still torn")
	}
	if s.Stats().TornApplied == 0 {
		t.Fatal("tear not counted")
	}
}

func TestTearsMonotoneAcrossInstants(t *testing.T) {
	// As the crash instant advances through the in-flight window, a
	// torn line only gains words: the same (line, done) tear applies at
	// every instant, then the full line at the ack.
	s := faultyNVM(t, fault.Config{Seed: 5, TearProb: 0.7})
	var acks []engine.Time
	for i := 0; i < 40; i++ {
		acks = append(acks, s.PersistLine(engine.Time(i*9), 0, isa.Addr(i%8*isa.LineSize), words(uint64(i+1))))
	}
	prev := map[isa.Addr]uint64{}
	for t1 := engine.Time(0); t1 <= acks[len(acks)-1]+1; t1 += 7 {
		img := crashImage(s, t1, nil)
		for i := 0; i < 8; i++ {
			for w := 0; w < isa.WordsPerLine; w++ {
				a := isa.Addr(i*isa.LineSize + w*isa.WordSize)
				v := img.Read(a)
				if pv, ok := prev[a]; ok && v == 0 && pv != 0 {
					t.Fatalf("word %x went durable→zero as crash advanced to %v", a, t1)
				}
				prev[a] = v
			}
		}
	}
}

// crashImage is the durable image at crash as production code builds it:
// a fresh cursor advanced once.
func crashImage(s *Subsystem, crash engine.Time, base *mm.Memory) *mm.Memory {
	return s.NewCursor(base).AdvanceTo(crash)
}

// imageAt is the reference durable image at crash, built by brute force:
// sort a copy of the whole log by completion time (stable, so ties keep
// log order), apply every completed persist over base, then lay the torn
// word subsets of the persists in flight at crash on top, in the same
// order.
func imageAt(s *Subsystem, crash engine.Time, base *mm.Memory) *mm.Memory {
	img := mm.NewMemory()
	if base != nil {
		img = base.Clone()
	}
	evs := append([]Event(nil), s.Events()...)
	sort.SliceStable(evs, func(i, j int) bool { return evs[i].Done < evs[j].Done })
	for _, e := range evs {
		if e.Done <= crash {
			img.WriteLine(e.Line, e.Words)
		}
	}
	for _, e := range evs {
		if s.faults == nil || e.Start > crash || e.Done <= crash {
			continue
		}
		if mask, torn := s.faults.TornWords(e.Line, e.Done); torn {
			for i := 0; i < isa.WordsPerLine; i++ {
				if mask&(1<<i) != 0 {
					img.Write(e.Line+isa.Addr(i*isa.WordSize), e.Words[i])
				}
			}
		}
	}
	return img
}

// checkCursorAgainstReference builds a random persist log for seed — a
// few lines on two controllers, issue times close enough that in-flight
// windows overlap, some persists held by an ordering constraint (so acks
// reorder and tie) — over a random base image, then advances one cursor through every Start and
// Done instant ±1 and compares it with the reference image at each.
func checkCursorAgainstReference(t *testing.T, seed int64, faults bool) {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	cfg := DefaultConfig()
	cfg.Controllers = 2
	s := New(cfg, true, nil)
	if faults {
		s.SetFaults(fault.MustNew(fault.Config{Seed: uint64(seed), TearProb: 0.5, WriteFaultProb: 0.2}))
	}
	const lines = 4
	base := mm.NewMemory()
	for i := 0; i < lines*isa.WordsPerLine; i++ {
		if rng.Intn(2) == 0 {
			base.Write(isa.Addr(i*isa.WordSize), rng.Uint64()%1000)
		}
	}
	var now engine.Time
	for i, n := 0, 5+rng.Intn(40); i < n; i++ {
		now += engine.Time(rng.Intn(60))
		earliest := now
		if rng.Intn(3) == 0 {
			// A hold to a coarse instant: held persists of one line
			// often tie on Done.
			earliest = (now/200 + engine.Time(1+rng.Intn(2))) * 200
		}
		var w [isa.WordsPerLine]uint64
		for j := range w {
			w[j] = uint64(i+1)<<8 | uint64(j)
		}
		s.PersistLine(now, earliest, isa.Addr(rng.Intn(lines)*isa.LineSize), w)
	}
	var instants []engine.Time
	for _, e := range s.Events() {
		for _, at := range []engine.Time{e.Start, e.Done} {
			instants = append(instants, at-1, at, at+1)
		}
	}
	sort.Slice(instants, func(i, j int) bool { return instants[i] < instants[j] })
	cur := s.NewCursor(base)
	for _, at := range instants {
		if !cur.AdvanceTo(at).Equal(imageAt(s, at, base)) {
			t.Fatalf("seed %d (faults %v): cursor image diverges from the reference at %v", seed, faults, at)
		}
	}
}

func TestCursorMatchesImageAt(t *testing.T) {
	for seed := int64(1); seed <= 300; seed++ {
		checkCursorAgainstReference(t, seed, true)
	}
	// Monotonicity is enforced.
	s := faultyNVM(t, fault.EnableAll(77))
	s.PersistLine(0, 0, 0x1000, words(1))
	cur := s.NewCursor(nil)
	cur.AdvanceTo(200)
	defer func() {
		if recover() == nil {
			t.Fatal("backwards AdvanceTo did not panic")
		}
	}()
	cur.AdvanceTo(0)
}

func TestCursorNoFaultsMatchesImageAt(t *testing.T) {
	for seed := int64(1); seed <= 300; seed++ {
		checkCursorAgainstReference(t, seed, false)
	}
}

// TestCursorDifferential advances one cursor over random persist logs —
// Done ties from coarse holds, a few lines shared by many persists, torn
// fault planes at several rates, either latency mode — through instants
// that repeat and that jump far ahead, and checks at each:
//   - the image equals a fresh reconstruction (imageAt);
//   - Written names exactly the lines whose content the advance changed,
//     every line being watched before it;
//   - every logged event starts Latency() before it completes, which the
//     cursor's single order relies on.
func TestCursorDifferential(t *testing.T) {
	for seed := int64(1); seed <= 200; seed++ {
		rng := rand.New(rand.NewSource(seed))
		cfg := DefaultConfig()
		cfg.Controllers = 1 + rng.Intn(3)
		if rng.Intn(4) == 0 {
			cfg.Mode = Uncached
		}
		s := New(cfg, true, nil)
		if rng.Intn(5) != 0 {
			tear := []float64{0.2, 0.5, 1}[rng.Intn(3)]
			s.SetFaults(fault.MustNew(fault.Config{Seed: uint64(seed), TearProb: tear, WriteFaultProb: 0.1}))
		}
		lines := 2 + rng.Intn(4)
		base := mm.NewMemory()
		for i := 0; i < lines*isa.WordsPerLine; i++ {
			if rng.Intn(3) == 0 {
				base.Write(isa.Addr(i*isa.WordSize), rng.Uint64()%1000)
			}
		}
		var now engine.Time
		for i, n := 0, 10+rng.Intn(60); i < n; i++ {
			now += engine.Time(rng.Intn(40))
			earliest := now
			if rng.Intn(3) == 0 {
				earliest = (now/150 + engine.Time(1+rng.Intn(2))) * 150
			}
			var w [isa.WordsPerLine]uint64
			for j := range w {
				// Some persists re-carry a word unchanged.
				w[j] = uint64(i+1)<<8 | uint64(j)
				if rng.Intn(4) == 0 {
					w[j] = uint64(j)
				}
			}
			s.PersistLine(now, earliest, isa.Addr(rng.Intn(lines)*isa.LineSize), w)
		}
		for i, e := range s.Events() {
			if e.Start != e.Done-s.Latency() {
				t.Fatalf("seed %d: event %d starts at %v, completes at %v, latency %v", seed, i, e.Start, e.Done, s.Latency())
			}
		}
		var instants []engine.Time
		for _, e := range s.Events() {
			for _, at := range []engine.Time{e.Start, e.Done} {
				for d := engine.Time(-1); d <= 1; d++ {
					if rng.Intn(3) != 0 {
						instants = append(instants, at+d)
					}
				}
			}
		}
		instants = append(instants, instants[:len(instants)/4]...) // repeats
		sort.Slice(instants, func(i, j int) bool { return instants[i] < instants[j] })
		instants = append(instants, now+10_000, engine.Infinity)

		cur := s.NewCursor(base)
		watchAll := func(img *mm.Memory) *mm.Memory {
			img.Watch()
			for l := 0; l < lines; l++ {
				img.ReadLine(isa.Addr(l * isa.LineSize))
			}
			return img.Clone()
		}
		prev := watchAll(cur.AdvanceTo(instants[0] - 1))
		for _, at := range instants {
			img := cur.AdvanceTo(at)
			if !img.Equal(imageAt(s, at, base)) {
				t.Fatalf("seed %d: cursor image diverges from the reference at %v", seed, at)
			}
			var changed []isa.Addr
			for l := 0; l < lines; l++ {
				a := isa.Addr(l * isa.LineSize)
				if img.ReadLine(a) != prev.ReadLine(a) {
					changed = append(changed, a)
				}
			}
			written := slices.Clone(img.Written())
			slices.Sort(written)
			if !slices.Equal(written, changed) {
				t.Fatalf("seed %d at %v: Written %v, lines changed %v", seed, at, written, changed)
			}
			prev = watchAll(img)
		}
	}
}
